#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <tuple>

#include "nn/gpu_infer.hpp"
#include "nn/network.hpp"

namespace gpufi::nn {
namespace {

TEST(Network, LeNetShapes) {
  Rng rng(1);
  const auto net = make_lenet(rng);
  ASSERT_EQ(net.convs.size(), 2u);
  ASSERT_EQ(net.fcs.size(), 3u);
  EXPECT_EQ(net.convs[0].out_h(), 12u);
  EXPECT_EQ(net.convs[1].out_h(), 4u);
  EXPECT_EQ(net.fcs[0].in_n, 256u);
  EXPECT_EQ(net.fcs[2].out_n, 10u);
  EXPECT_GT(net.total_params(), 40000u);
}

TEST(Network, YoloLiteShapes) {
  Rng rng(1);
  const auto net = make_yololite(rng);
  ASSERT_EQ(net.convs.size(), 3u);
  EXPECT_TRUE(net.fcs.empty());
  EXPECT_EQ(net.convs.back().out_c, kDetChannels);
  EXPECT_EQ(net.convs.back().out_h(), kDetGrid);
}

TEST(Network, HostForwardOutputSizes) {
  Rng rng(2);
  const auto lenet = make_lenet(rng);
  EXPECT_EQ(host_forward(lenet, Tensor(1, 28, 28)).size(), 10u);
  const auto yolo = make_yololite(rng);
  EXPECT_EQ(host_forward(yolo, Tensor(1, 32, 32)).size(),
            kDetChannels * kDetGrid * kDetGrid);
}

TEST(Network, GradientCheckPasses) {
  Rng rng(3);
  EXPECT_LT(gradient_check(rng), 2e-2);
}

/// A scratch file path unique to the running test and process, so test
/// binaries running in parallel (ctest -j) never share a file.
std::string scratch_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          ("gpufi_nn_" + std::string(info->test_suite_name()) + "_" +
           info->name() + "_" + std::to_string(::getpid()) + ".gfnn"))
      .string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Expects load_file to throw a std::runtime_error that names the file.
void expect_load_rejects(const std::string& path) {
  try {
    (void)Network::load_file(path);
    ADD_FAILURE() << "loaded " << path;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(Network, SerializationRoundTrip) {
  Rng rng(4);
  auto net = make_lenet(rng);
  const std::string path = scratch_path();
  net.save_file(path);
  const auto loaded = Network::load_file(path);
  EXPECT_EQ(loaded.name, net.name);
  ASSERT_EQ(loaded.convs.size(), net.convs.size());
  EXPECT_EQ(loaded.convs[1].weights, net.convs[1].weights);
  EXPECT_EQ(loaded.fcs[0].bias, net.fcs[0].bias);
  std::remove(path.c_str());
}

TEST(Network, CommittedWeightsLoad) {
  // gpufi_data/ holds the trained weights core::ensure_models writes by
  // default, in today's layout: `gpufi cnn` and the CNN benches run on them.
  const auto lenet = Network::load_file(GPUFI_TEST_DATA_DIR "/lenet.gfnn");
  ASSERT_EQ(lenet.convs.size(), 2u);
  ASSERT_EQ(lenet.fcs.size(), 3u);
  Rng rng(777);
  unsigned correct = 0;
  for (unsigned i = 0; i < 100; ++i) {
    const auto s = make_digit(rng);
    correct += classify(host_forward(lenet, s.image)) == s.label;
  }
  EXPECT_GE(correct, 90u);
  const auto yolo = Network::load_file(GPUFI_TEST_DATA_DIR "/yololite.gfnn");
  EXPECT_EQ(yolo.convs.size(), 3u);
  EXPECT_TRUE(yolo.fcs.empty());
}

TEST(Network, LoadRejectsATruncatedFile) {
  Rng rng(5);
  const std::string path = scratch_path();
  make_lenet(rng).save_file(path);
  const std::string bytes = read_bytes(path);
  for (const std::size_t keep : {std::size_t{2}, std::size_t{30},
                                 bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(path, bytes.substr(0, keep));
    expect_load_rejects(path);
  }
  std::remove(path.c_str());
}

TEST(Network, LoadRejectsAFlippedCount) {
  Rng rng(6);
  const Network net = make_lenet(rng);
  const std::string path = scratch_path();
  net.save_file(path);
  std::string bytes = read_bytes(path);
  // magic, name length + name, input shape, conv count, 7 conv fields:
  // then the first conv's weight count.
  const std::size_t weights_count = 4 + 4 + net.name.size() + 12 + 4 + 28;
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + weights_count, 4);
  ASSERT_EQ(count, net.convs[0].weights.size());
  for (const std::uint32_t flip : {1u, 1u << 20, 1u << 31}) {
    std::string mutated = bytes;
    const std::uint32_t bad = count ^ flip;
    std::memcpy(mutated.data() + weights_count, &bad, 4);
    write_bytes(path, mutated);
    expect_load_rejects(path);
  }
  std::remove(path.c_str());
}

/// A conv layer of the given shape whose weight and bias counts match it.
ConvLayer conv_layer(unsigned in_c, unsigned in_h, unsigned in_w,
                     unsigned out_c, unsigned k) {
  ConvLayer c{in_c, in_h, in_w, out_c, k};
  c.weights.assign(static_cast<std::size_t>(out_c) * in_c * k * k, 0.01f);
  c.bias.assign(out_c, 0.0f);
  return c;
}

/// An fc layer of the given shape whose weight and bias counts match it.
FcLayer fc_layer(unsigned in_n, unsigned out_n) {
  FcLayer f{in_n, out_n};
  f.weights.assign(static_cast<std::size_t>(in_n) * out_n, 0.01f);
  f.bias.assign(out_n, 0.0f);
  return f;
}

/// Saves `net` and expects loading it back to throw, naming the file. Every
/// count in the file matches its layer, so only a shape rule can reject it.
void expect_saved_rejects(const Network& net) {
  const std::string path = scratch_path();
  net.save_file(path);
  expect_load_rejects(path);
  std::remove(path.c_str());
}

TEST(Network, LoadRejectsAFirstConvThatDoesNotTakeTheInput) {
  Rng rng(10);
  Network net = make_lenet(rng);
  net.in_h = 30;
  expect_saved_rejects(net);
}

TEST(Network, LoadRejectsAConvThatDoesNotTakeThePreviousOutput) {
  Rng rng(11);
  Network net = make_lenet(rng);
  net.convs[1].in_h = 13;  // conv1 outputs 6x12x12
  expect_saved_rejects(net);
}

TEST(Network, LoadRejectsAKernelThatDoesNotFitItsInput) {
  for (const unsigned k : {0u, 5u}) {
    Network net;
    net.in_h = net.in_w = 4;
    net.convs.push_back(conv_layer(1, 4, 4, 2, k));
    expect_saved_rejects(net);
  }
}

TEST(Network, LoadRejectsAnFcThatDoesNotTakeTheFlattenedSize) {
  Rng rng(12);
  Network net = make_lenet(rng);
  net.fcs[0] = fc_layer(128, 120);  // conv2 flattens to 16x4x4 = 256
  expect_saved_rejects(net);
}

TEST(Network, ConvlessNetworkFeedsTheInputToItsFirstFc) {
  Network net;
  net.fcs.push_back(fc_layer(100, 10));  // the input flattens to 784
  expect_saved_rejects(net);

  Rng rng(13);
  net.fcs[0] = fc_layer(28 * 28, 10);
  for (float& w : net.fcs[0].weights)
    w = static_cast<float>(rng.uniform(-0.1, 0.1));
  const std::string path = scratch_path();
  net.save_file(path);
  const Network loaded = Network::load_file(path);
  std::remove(path.c_str());
  GpuInference infer(loaded);
  Rng ir(6);
  const auto img = make_digit(ir).image;
  emu::Device dev(infer.device_words());
  const auto out = infer.run(dev, img, {});
  ASSERT_TRUE(out.has_value());
  const auto host = host_forward(loaded, img);
  ASSERT_EQ(out->size(), host.size());
  for (std::size_t i = 0; i < host.size(); ++i)
    EXPECT_NEAR((*out)[i], host[i], 1e-4f);
}

TEST(Dataset, DigitsAreDeterministicAndLabelled) {
  Rng a(9), b(9);
  const auto s1 = make_digit(a), s2 = make_digit(b);
  EXPECT_EQ(s1.label, s2.label);
  EXPECT_EQ(s1.image.data, s2.image.data);
  EXPECT_LT(s1.label, 10u);
  double sum = 0;
  for (float v : s1.image.data) sum += v;
  EXPECT_GT(sum, 1.0);  // a glyph was drawn
}

TEST(Dataset, ScenesHaveObjectsInBounds) {
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const auto s = make_scene(rng);
    ASSERT_GE(s.objects.size(), 1u);
    ASSERT_LE(s.objects.size(), 2u);
    for (const auto& o : s.objects) {
      EXPECT_LT(o.cls, kDetClasses);
      EXPECT_GT(o.bw, 0.1f);
      EXPECT_GE(o.cx - o.bw / 2, -0.05f);
      EXPECT_LE(o.cx + o.bw / 2, 1.05f);
    }
  }
}

TEST(Metrics, IouBasics) {
  Detection a{0, 0.5f, 0.5f, 0.2f, 0.2f, 1.0f};
  EXPECT_NEAR(iou(a, a), 1.0f, 1e-6);
  Detection b{0, 0.9f, 0.9f, 0.1f, 0.1f, 1.0f};
  EXPECT_NEAR(iou(a, b), 0.0f, 1e-6);
  Detection c{0, 0.55f, 0.5f, 0.2f, 0.2f, 1.0f};
  EXPECT_GT(iou(a, c), 0.4f);
}

TEST(Metrics, DetectionsMatchRules) {
  Detection a{0, 0.5f, 0.5f, 0.2f, 0.2f, 1.0f};
  Detection a2 = a;
  a2.cx = 0.52f;
  EXPECT_TRUE(detections_match({a}, {a2}));
  Detection wrong_cls = a;
  wrong_cls.cls = 1;
  EXPECT_FALSE(detections_match({a}, {wrong_cls}));
  EXPECT_FALSE(detections_match({a}, {}));
  EXPECT_FALSE(detections_match({}, {a}));
  EXPECT_TRUE(detections_match({}, {}));
}

TEST(Training, LeNetLearnsQuickly) {
  Rng rng(42);
  auto net = make_lenet(rng);
  const double acc = train_lenet(net, rng, 1200);
  EXPECT_GT(acc, 0.85);
}

TEST(Training, YoloLiteLearnsSomething) {
  Rng rng(42);
  auto net = make_yololite(rng);
  const double f1 = train_yololite(net, rng, 1500);
  EXPECT_GT(f1, 0.05);
}

TEST(GpuInference, MatchesHostForward) {
  Rng rng(5);
  auto net = make_lenet(rng);
  (void)train_lenet(net, rng, 200);  // non-degenerate weights
  GpuInference infer(net);
  EXPECT_EQ(infer.gemm_layers(), 5u);
  Rng ir(6);
  const auto img = make_digit(ir).image;
  emu::Device dev(infer.device_words());
  const auto out = infer.run(dev, img, {});
  ASSERT_TRUE(out.has_value());
  const auto host = host_forward(net, img);
  ASSERT_EQ(out->size(), host.size());
  for (std::size_t i = 0; i < host.size(); ++i)
    EXPECT_NEAR((*out)[i], host[i], 1e-4f);
}

TEST(GpuInference, LayerGeometry) {
  Rng rng(7);
  const auto net = make_lenet(rng);
  GpuInference infer(net);
  // conv1: M=6, N=576 (24x24 positions).
  EXPECT_EQ(infer.layer_dims(0), (std::pair<unsigned, unsigned>{6, 576}));
  // fc3: 10x1.
  EXPECT_EQ(infer.layer_dims(4), (std::pair<unsigned, unsigned>{10, 1}));
  const auto [tm, tn] = infer.layer_tiles(0);
  EXPECT_EQ(tm, 1u);
  EXPECT_EQ(tn, 72u);
}

TEST(GpuInference, TileFaultCorruptsOutput) {
  Rng rng(8);
  auto net = make_lenet(rng);
  (void)train_lenet(net, rng, 200);
  GpuInference infer(net);
  Rng ir(6);
  const auto img = make_digit(ir).image;
  emu::Device d1(infer.device_words()), d2(infer.device_words());
  const auto golden = infer.run(d1, img, {});
  TileFault tf;
  tf.layer = 0;
  tf.tile_row = 0;
  tf.tile_col = 3;
  tf.corruption.pattern = syndrome::Pattern::All;
  for (unsigned r = 0; r < 8; ++r)
    for (unsigned c = 0; c < 8; ++c)
      tf.corruption.elements.push_back({r, c, 5.0});
  InferOptions opts;
  opts.tile_fault = &tf;
  const auto faulty = infer.run(d2, img, opts);
  ASSERT_TRUE(golden && faulty);
  EXPECT_NE(*golden, *faulty);
}

/// An engine config of `n` trials from `seed`, `jobs` wide.
exec::EngineConfig trials(std::size_t n, std::uint64_t seed,
                          unsigned jobs = 1) {
  exec::EngineConfig cfg;
  cfg.n_trials = n;
  cfg.seed = seed;
  cfg.jobs = jobs;
  return cfg;
}

/// Every counter of a CNN campaign result, for whole-result comparisons.
auto counts(const CnnCampaignResult& r) {
  return std::tuple(r.injections, r.masked, r.sdc, r.critical, r.due);
}

TEST(CnnCampaign, BitFlipCountsConsistent) {
  const auto net = Network::load_file(GPUFI_TEST_DATA_DIR "/lenet.gfnn");
  const auto r = run_cnn_campaign(net, CnnTask::Classification,
                                  CnnFaultModel::SingleBitFlip, nullptr,
                                  trials(25, 77));
  EXPECT_EQ(r.injections, 25u);
  EXPECT_EQ(r.masked + r.sdc + r.due, r.injections);
  EXPECT_LE(r.critical, r.sdc);
}

TEST(CnnCampaign, TileModelProducesCriticalsOnLeNet) {
  const auto net = Network::load_file(GPUFI_TEST_DATA_DIR "/lenet.gfnn");
  // Tile patterns and errors come from the committed RTL characterization.
  const auto db =
      syndrome::Database::load_file(GPUFI_TEST_DATA_DIR "/syndromes.db");
  const auto r = run_cnn_campaign(net, CnnTask::Classification,
                                  CnnFaultModel::TiledMxM, &db,
                                  trials(100, 78));
  EXPECT_EQ(r.injections, 100u);
  EXPECT_GT(r.sdc, 0u);
  EXPECT_GT(r.critical, 0u);
  EXPECT_LE(r.critical, r.sdc);
}

TEST(CnnCampaign, TileModelWithoutDatabaseThrows) {
  Rng rng(11);
  const auto net = make_lenet(rng);
  EXPECT_THROW(run_cnn_campaign(net, CnnTask::Classification,
                                CnnFaultModel::TiledMxM, nullptr,
                                trials(1, 1)),
               std::invalid_argument);
}

TEST(CnnCampaign, RejectsANetworkThatDoesNotTakeItsTasksInput) {
  Rng rng(14);
  const auto lenet = make_lenet(rng);    // 1x28x28
  const auto yolo = make_yololite(rng);  // 1x32x32
  EXPECT_THROW(run_cnn_campaign(yolo, CnnTask::Classification,
                                CnnFaultModel::SingleBitFlip, nullptr,
                                trials(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(run_cnn_campaign(lenet, CnnTask::Detection,
                                CnnFaultModel::SingleBitFlip, nullptr,
                                trials(1, 1)),
               std::invalid_argument);
}

TEST(CnnCampaign, RejectsADetectorWithoutADetectionGrid) {
  Rng rng(15);
  auto yolo = make_yololite(rng);
  yolo.convs.back() = conv_layer(24, 6, 6, kDetChannels - 1, 1);
  EXPECT_THROW(run_cnn_campaign(yolo, CnnTask::Detection,
                                CnnFaultModel::SingleBitFlip, nullptr,
                                trials(1, 1)),
               std::invalid_argument);
}

TEST(CnnCampaign, ResultsAreIdenticalAcrossJobsAndTrialRanges) {
  // 33 trials form chunks of 16, 16 and 1, so jobs 2 and 4 interleave the
  // chunks differently and [0, 16) + [16, 33) is a chunk-aligned split.
  const auto net = Network::load_file(GPUFI_TEST_DATA_DIR "/lenet.gfnn");
  const auto db =
      syndrome::Database::load_file(GPUFI_TEST_DATA_DIR "/syndromes.db");
  for (const auto model :
       {CnnFaultModel::SingleBitFlip, CnnFaultModel::TiledMxM}) {
    const auto run = [&](exec::EngineConfig cfg) {
      return run_cnn_campaign(net, CnnTask::Classification, model, &db, cfg);
    };
    const auto whole = run(trials(33, 5));
    EXPECT_EQ(whole.injections, 33u);
    EXPECT_LT(whole.masked, whole.injections) << "nothing to compare";
    for (const unsigned jobs : {2u, 4u})
      EXPECT_EQ(counts(run(trials(33, 5, jobs))), counts(whole))
          << cnn_fault_model_name(model) << " at jobs " << jobs;
    auto head = trials(33, 5);
    head.shard = {0, 16};
    auto tail = trials(33, 5, 2);
    tail.shard = {16, 17};
    auto merged = run(head);
    merged.merge(run(tail));
    EXPECT_EQ(counts(merged), counts(whole)) << cnn_fault_model_name(model);
  }
}

}  // namespace
}  // namespace gpufi::nn
