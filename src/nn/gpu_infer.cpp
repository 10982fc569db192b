#include "nn/gpu_infer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apps/apps.hpp"
#include "isa/isa.hpp"
#include "swfi/swfi.hpp"

namespace gpufi::nn {

using namespace gpufi::isa;

namespace {

constexpr std::uint64_t kLaunchBudget = 40'000'000;  ///< per-launch watchdog

unsigned pad8(unsigned v) { return (v + 7) & ~7u; }

}  // namespace

GpuInference::GpuInference(const Network& net) : net_(&net) {
  std::size_t max_a = 0, max_b = 0, max_c = 0;
  auto add_gemm = [&](Gemm g) {
    g.mp = pad8(g.m);
    g.np = pad8(g.n);
    g.kp = pad8(g.k);
    max_a = std::max(max_a, static_cast<std::size_t>(g.mp) * g.kp);
    max_b = std::max(max_b, static_cast<std::size_t>(g.kp) * g.np);
    max_c = std::max(max_c, static_cast<std::size_t>(g.mp) * g.np);
    gemms_.push_back(std::move(g));
  };
  for (const auto& c : net.convs) {
    Gemm g;
    g.m = c.gemm_m();
    g.n = c.gemm_n();
    g.k = c.gemm_k();
    g.conv = &c;
    add_gemm(std::move(g));
  }
  for (const auto& f : net.fcs) {
    Gemm g;
    g.m = f.out_n;
    g.n = 1;
    g.k = f.in_n;
    g.fc = &f;
    add_gemm(std::move(g));
  }
  // Pre-pad the weight matrices.
  for (auto& g : gemms_) {
    g.a.assign(static_cast<std::size_t>(g.mp) * g.kp, 0.0f);
    const std::vector<float>& w = g.conv ? g.conv->weights : g.fc->weights;
    for (unsigned r = 0; r < g.m; ++r)
      for (unsigned c = 0; c < g.k; ++c)
        g.a[r * g.kp + c] = w[static_cast<std::size_t>(r) * g.k + c];
  }
  device_words_ = max_a + max_b + max_c + 64;
}

unsigned GpuInference::gemm_layers() const {
  return static_cast<unsigned>(gemms_.size());
}

std::pair<unsigned, unsigned> GpuInference::layer_dims(unsigned i) const {
  return {gemms_.at(i).m, gemms_.at(i).n};
}

std::pair<unsigned, unsigned> GpuInference::layer_tiles(unsigned i) const {
  return {gemms_.at(i).mp / 8, gemms_.at(i).np / 8};
}

std::optional<std::vector<float>> GpuInference::run(
    emu::Device& dev, const Tensor& input, const InferOptions& opts) const {
  if (dev.global_words() < device_words_)
    throw std::invalid_argument("GpuInference: device too small");
  // One program for every layer's launch: a static instruction is the same
  // isa::Instr across launches (the sticky injector re-fires on it).
  Program kernel = apps::gemm_kernel();

  Tensor t = input;
  // Flat activations once the fc stack starts; a conv-less network's first
  // fc reads the input.
  std::vector<float> vec;
  if (net_->convs.empty()) vec = input.data;

  for (std::size_t li = 0; li < gemms_.size(); ++li) {
    const Gemm& g = gemms_[li];
    // Build the padded B matrix (im2col for convs, column vector for fcs).
    std::vector<float> b(static_cast<std::size_t>(g.kp) * g.np, 0.0f);
    if (g.conv) {
      const ConvLayer& c = *g.conv;
      const unsigned ch = c.conv_h(), cw = c.conv_w();
      for (unsigned ic = 0; ic < c.in_c; ++ic)
        for (unsigned ky = 0; ky < c.k; ++ky)
          for (unsigned kx = 0; kx < c.k; ++kx) {
            const unsigned krow = (ic * c.k + ky) * c.k + kx;
            for (unsigned y = 0; y < ch; ++y)
              for (unsigned x = 0; x < cw; ++x)
                b[static_cast<std::size_t>(krow) * g.np + y * cw + x] =
                    t.at(ic, y + ky, x + kx);
          }
    } else {
      for (unsigned i = 0; i < g.k; ++i)
        b[static_cast<std::size_t>(i) * g.np] = vec[i];
    }

    // Device GEMM.
    const std::uint32_t a_base = 0;
    const auto b_base = static_cast<std::uint32_t>(g.a.size());
    const auto c_base = static_cast<std::uint32_t>(g.a.size() + b.size());
    dev.copy_in_f(a_base, g.a.data(), g.a.size());
    dev.copy_in_f(b_base, b.data(), b.size());
    kernel.params = {a_base, b_base, c_base, g.np, g.kp, g.kp / 8, 0, 0};
    emu::LaunchConfig cfg;
    cfg.hook = opts.hook;
    cfg.oob_wraps = true;
    cfg.max_retired = kLaunchBudget;
    const auto r =
        dev.launch(kernel, emu::LaunchDims{g.np / 8, g.mp / 8, 8, 8}, cfg);
    if (r.status != emu::LaunchStatus::Ok) return std::nullopt;
    std::vector<float> cmat(static_cast<std::size_t>(g.mp) * g.np);
    dev.copy_out_f(c_base, cmat.data(), cmat.size());

    // t-MxM tile corruption on this layer's output matrix.
    if (opts.tile_fault && opts.tile_fault->layer == li) {
      const TileFault& tf = *opts.tile_fault;
      Rng sign_rng(tf.sign_seed);
      for (const auto& e : tf.corruption.elements) {
        const unsigned row = tf.tile_row * 8 + e.row;
        const unsigned col = tf.tile_col * 8 + e.col;
        if (row >= g.mp || col >= g.np) continue;
        float& v = cmat[static_cast<std::size_t>(row) * g.np + col];
        const double sign = sign_rng.chance(0.5) ? 1.0 : -1.0;
        v = static_cast<float>(v * (1.0 + sign * e.rel_error));
      }
    }

    // Bias + activation (+ pooling) on the host.
    if (g.conv) {
      const ConvLayer& c = *g.conv;
      Tensor pre(c.out_c, c.conv_h(), c.conv_w());
      for (unsigned oc = 0; oc < c.out_c; ++oc)
        for (unsigned i = 0; i < pre.h * pre.w; ++i) {
          float v = cmat[static_cast<std::size_t>(oc) * g.np + i] +
                    c.bias[oc];
          if (c.relu && v < 0) v *= 0.1f;  // leaky rectifier (Darknet)
          pre.data[static_cast<std::size_t>(oc) * pre.h * pre.w + i] = v;
        }
      if (c.pool) {
        Tensor pooled(pre.c, pre.h / 2, pre.w / 2);
        std::size_t o = 0;
        for (unsigned ch2 = 0; ch2 < pre.c; ++ch2)
          for (unsigned y = 0; y < pooled.h; ++y)
            for (unsigned x = 0; x < pooled.w; ++x, ++o)
              pooled.data[o] = std::max(
                  std::max(pre.at(ch2, 2 * y, 2 * x),
                           pre.at(ch2, 2 * y, 2 * x + 1)),
                  std::max(pre.at(ch2, 2 * y + 1, 2 * x),
                           pre.at(ch2, 2 * y + 1, 2 * x + 1)));
        t = std::move(pooled);
      } else {
        t = std::move(pre);
      }
      if (li + 1 < gemms_.size() && gemms_[li + 1].fc) vec = t.data;
    } else {
      const FcLayer& f = *g.fc;
      vec.assign(f.out_n, 0.0f);
      for (unsigned o = 0; o < f.out_n; ++o) {
        float v = cmat[static_cast<std::size_t>(o) * g.np] + f.bias[o];
        if (f.relu && v < 0) v *= 0.1f;  // leaky rectifier
        vec[o] = v;
      }
    }
  }
  return net_->fcs.empty() ? t.data : vec;
}

std::string_view cnn_fault_model_name(CnnFaultModel m) {
  switch (m) {
    case CnnFaultModel::SingleBitFlip: return "single bit-flip";
    case CnnFaultModel::RelativeError: return "relative error";
    case CnnFaultModel::TiledMxM: return "t-MxM tile";
  }
  return "?";
}

void CnnCampaignResult::merge(const CnnCampaignResult& other) {
  injections += other.injections;
  masked += other.masked;
  sdc += other.sdc;
  critical += other.critical;
  due += other.due;
}

CnnCampaignResult run_cnn_campaign(const Network& net, CnnTask task,
                                   CnnFaultModel model,
                                   const syndrome::Database* db,
                                   const exec::EngineConfig& cfg) {
  if (model == CnnFaultModel::TiledMxM && !db)
    throw std::invalid_argument(
        "t-MxM CNN campaign needs a syndrome database");
  // Fixed deterministic input (one inference per injection, as NVBitFI
  // evaluates one application execution per fault).
  Rng input_rng(0xCAFE);
  const Tensor input = task == CnnTask::Classification
                           ? make_digit(input_rng).image
                           : make_scene(input_rng).image;
  if (net.in_c != input.c || net.in_h != input.h || net.in_w != input.w)
    throw std::invalid_argument(
        net.name + " does not take this task's " + std::to_string(input.c) +
        "x" + std::to_string(input.h) + "x" + std::to_string(input.w) +
        " input");
  GpuInference infer(net);

  // Golden run: profile (for injection targeting) + reference output.
  swfi::ProfileHook profile;
  emu::Device golden_dev(infer.device_words());
  InferOptions gopts;
  gopts.hook = &profile;
  const auto golden = infer.run(golden_dev, input, gopts);
  if (!golden) throw std::runtime_error("golden CNN inference failed");
  // decode_detections reads a full detection grid.
  if (task == CnnTask::Detection &&
      golden->size() != std::size_t{kDetChannels} * kDetGrid * kDetGrid)
    throw std::invalid_argument(net.name +
                                " does not output a detection grid");
  const unsigned golden_class =
      task == CnnTask::Classification ? classify(*golden) : 0;
  const auto golden_dets = task == CnnTask::Detection
                               ? decode_detections(*golden)
                               : std::vector<Detection>{};

  return exec::run_trials<CnnCampaignResult>(
      cfg,
      [&] { return emu::Device(infer.device_words()); },
      [&](emu::Device& dev, std::size_t, Rng& rng, CnnCampaignResult& shard) {
        dev.reset();
        InferOptions opts;
        std::optional<swfi::InjectHook> hook;
        TileFault tf;
        if (model == CnnFaultModel::TiledMxM) {
          // Random layer, random tile, RTL-characterized pattern + errors.
          tf.layer = static_cast<unsigned>(rng.below(infer.gemm_layers()));
          const auto [tm, tn] = infer.layer_tiles(tf.layer);
          tf.tile_row = static_cast<unsigned>(rng.below(tm));
          tf.tile_col = static_cast<unsigned>(rng.below(tn));
          tf.sign_seed = rng();
          tf.corruption = db->sample_tile_corruption(8, 8, rng);
          opts.tile_fault = &tf;
        } else {
          const auto target = rng.below(profile.candidates());
          hook.emplace(model == CnnFaultModel::SingleBitFlip
                           ? swfi::FaultModel::SingleBitFlip
                           : swfi::FaultModel::RelativeError,
                       target, rng(), db, true);
          opts.hook = &*hook;
        }
        const auto out = infer.run(dev, input, opts);
        ++shard.injections;
        if (!out) {
          ++shard.due;
        } else if (*out == *golden) {
          ++shard.masked;
        } else {
          ++shard.sdc;
          const bool critical =
              task == CnnTask::Classification
                  ? classify(*out) != golden_class
                  : !detections_match(decode_detections(*out), golden_dets);
          if (critical) ++shard.critical;
        }
      });
}

}  // namespace gpufi::nn
