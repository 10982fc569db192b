// Tests for gpufi-fabric: the endpoint grammar, chunk-aligned shard
// planning, the shard partial codecs, the version handshake, and
// coordinator/worker fleets pinning the distributed byte-identity
// contract — a fabric campaign's merged payload equals the offline
// single-process run for any worker count, over Unix or TCP transport,
// and even after a worker dies mid-campaign and its shard is retried.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "swfi/swfi.hpp"
#include "vocab/vocab.hpp"

using namespace gpufi;
using namespace gpufi::fabric;

namespace {

/// A multi-shard RTL spec: 96 faults = 6 chunks of 16, so any worker count
/// in {1,2,4} exercises a genuine multi-way merge.
serve::CampaignSpec rtl_spec() {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Rtl;
  spec.op = "FFMA";
  spec.module = "fp32";
  spec.range = "M";
  spec.faults = 96;
  spec.seed = 7;
  spec.jobs = 1;
  return spec;
}

serve::CampaignSpec sw_spec() {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 48;  // 3 chunks of 16
  spec.seed = 11;
  spec.jobs = 1;
  return spec;
}

/// A multi-shard cnn t-MxM spec over the committed weights and DB: 33
/// injections = chunks of 16, 16 and 1.
serve::CampaignSpec cnn_spec() {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Cnn;
  spec.net = "lenet";
  spec.model = "tmxm";
  spec.injections = 33;
  spec.seed = 3;
  spec.jobs = 1;
  spec.db_path = GPUFI_TEST_DATA_DIR "/syndromes.db";
  spec.models_dir = GPUFI_TEST_DATA_DIR;
  return spec;
}

/// A coordinator listening on a unix socket in the test cwd plus `n`
/// in-process workers, started and registered before the constructor
/// returns. Teardown order (workers, then coordinator) is the destructor.
struct Fleet {
  explicit Fleet(const std::string& socket, std::size_t n,
                 CoordinatorConfig base = {}) {
    base.listen = *parse_endpoint("unix:" + socket);
    coord = std::make_unique<Coordinator>(base);
    coord->start();
    for (std::size_t i = 0; i < n; ++i) add_worker({});
    EXPECT_TRUE(coord->wait_for_workers(n, 10'000));
  }

  Worker& add_worker(WorkerConfig wcfg) {
    wcfg.coordinator = coord->config().listen;
    if (wcfg.name.empty())
      wcfg.name = "w" + std::to_string(workers.size());
    wcfg.heartbeat_ms = 50;
    workers.push_back(std::make_unique<Worker>(wcfg));
    workers.back()->start();
    return *workers.back();
  }

  ~Fleet() {
    for (auto& w : workers) w->stop();
    if (coord) coord->stop();
  }

  std::unique_ptr<Coordinator> coord;
  std::vector<std::unique_ptr<Worker>> workers;
};

}  // namespace

// --------------------------------------------------------------- transport

TEST(Transport, ParseEndpointGrammar) {
  auto e = parse_endpoint("unix:/tmp/fab.sock");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, Endpoint::Kind::Unix);
  EXPECT_EQ(e->path, "/tmp/fab.sock");
  EXPECT_EQ(e->describe(), "unix:/tmp/fab.sock");

  e = parse_endpoint("tcp:127.0.0.1:9000");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(e->host, "127.0.0.1");
  EXPECT_EQ(e->port, 9000);
  EXPECT_EQ(e->describe(), "tcp:127.0.0.1:9000");

  e = parse_endpoint("localhost:80");  // tcp: shorthand
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(e->host, "localhost");
  EXPECT_EQ(e->port, 80);

  e = parse_endpoint("fab.sock");  // unix: shorthand (no colon)
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, Endpoint::Kind::Unix);
  EXPECT_EQ(e->path, "fab.sock");

  EXPECT_FALSE(parse_endpoint(""));
  EXPECT_FALSE(parse_endpoint("tcp:host"));         // no port
  EXPECT_FALSE(parse_endpoint("host:notaport"));    // non-numeric port
  EXPECT_FALSE(parse_endpoint("host:70000"));       // out of range
  EXPECT_FALSE(parse_endpoint(":123"));             // empty host
}

// ---------------------------------------------------------- shard planning

TEST(PlanShards, PartitionsAreChunkAlignedAndCoverEverything) {
  for (const std::size_t n : {1, 16, 30, 96, 1000, 16384}) {
    for (const std::size_t max_shards : {1, 2, 4, 7, 64}) {
      const auto shards = exec::plan_shards(n, max_shards);
      ASSERT_FALSE(shards.empty());
      EXPECT_LE(shards.size(), max_shards);
      const std::size_t chunk = exec::chunk_size(n);
      std::size_t next = 0;
      for (const auto& s : shards) {
        EXPECT_EQ(s.offset, next) << "gap or overlap at " << s.offset;
        EXPECT_GT(s.count, 0u);
        EXPECT_EQ(s.offset % chunk, 0u) << "unaligned shard start";
        next = s.offset + s.count;
        if (&s != &shards.back()) {
          EXPECT_EQ(next % chunk, 0u) << "unaligned shard end";
        }
      }
      EXPECT_EQ(next, n) << "partition must cover [0, n)";
    }
  }
  EXPECT_TRUE(exec::plan_shards(0, 4).empty());
}

TEST(PlanShards, ShardedCampaignMergesToWholeCampaignBytes) {
  const auto spec = rtl_spec();
  const auto w = rtlfi::make_microbenchmark(isa::Opcode::FFMA,
                                            rtlfi::InputRange::Medium, 7);
  rtlfi::CampaignConfig cfg;
  cfg.module = rtl::Module::Fp32Fu;
  cfg.n_faults = 96;
  cfg.seed = 7;
  cfg.jobs = 1;
  const auto whole = rtlfi::run_campaign(w, cfg);

  for (const std::size_t n_shards : {2, 3, 6}) {
    rtlfi::CampaignResult merged;
    for (const auto& r : exec::plan_shards(96, n_shards)) {
      rtlfi::CampaignConfig shard = cfg;
      shard.shard_offset = r.offset;
      shard.shard_count = r.count;
      merged.merge(rtlfi::run_campaign(w, shard));
    }
    EXPECT_EQ(serve::serialize_campaign_result(spec, merged),
              serve::serialize_campaign_result(spec, whole))
        << n_shards << "-way shard merge drifted from the whole campaign";
  }
}

// ----------------------------------------------------------- wire messages

TEST(Protocol, ControlMessagesRoundTrip) {
  const Hello h{3, "rack7-gpu2", 4242};
  const auto hd = decode_hello(encode_hello(h));
  ASSERT_TRUE(hd);
  EXPECT_EQ(hd->version, 3u);
  EXPECT_EQ(hd->name, "rack7-gpu2");
  EXPECT_EQ(hd->pid, 4242u);

  ShardRequest req;
  req.job = 9;
  req.shard_index = 2;
  req.n_shards = 6;
  req.range = {32, 16};
  req.spec = rtl_spec();
  const auto rd = decode_shard_request(encode_shard_request(req));
  ASSERT_TRUE(rd);
  EXPECT_EQ(rd->job, 9u);
  EXPECT_EQ(rd->shard_index, 2u);
  EXPECT_EQ(rd->n_shards, 6u);
  EXPECT_EQ(rd->range, (exec::TrialRange{32, 16}));
  EXPECT_EQ(serve::encode_spec(rd->spec), serve::encode_spec(req.spec));

  // Result/error payloads are raw bytes: embedded newlines and the marker
  // vocabulary itself must survive.
  const ShardResultMsg res{9, 2, "v=1\ninjected=16\n--- weird ---\n"};
  const auto resd = decode_shard_result(encode_shard_result(res));
  ASSERT_TRUE(resd);
  EXPECT_EQ(resd->job, 9u);
  EXPECT_EQ(resd->shard_index, 2u);
  EXPECT_EQ(resd->payload, res.payload);

  const ShardErrorMsg err{9, 2, "multi\nline\nerror"};
  const auto errd = decode_shard_error(encode_shard_error(err));
  ASSERT_TRUE(errd);
  EXPECT_EQ(errd->error, err.error);

  const ShardProgressMsg prog{9, 2, 12, 16};
  const auto progd = decode_shard_progress(encode_shard_progress(prog));
  ASSERT_TRUE(progd);
  EXPECT_EQ(progd->done, 12u);
  EXPECT_EQ(progd->total, 16u);
}

TEST(Protocol, RtlPartialRoundTripsBitForBit) {
  const auto w = rtlfi::make_microbenchmark(isa::Opcode::FFMA,
                                            rtlfi::InputRange::Medium, 7);
  rtlfi::CampaignConfig cfg;
  cfg.module = rtl::Module::Fp32Fu;
  cfg.n_faults = 32;
  cfg.seed = 7;
  cfg.jobs = 1;
  cfg.keep_all_records = true;  // exercise DUE/multi-SDC record paths too
  const auto r = rtlfi::run_campaign(w, cfg);
  ASSERT_GT(r.injected, 0u);

  std::string error;
  const auto back = decode_rtl_partial(encode_rtl_partial(r), &error);
  ASSERT_TRUE(back) << error;
  // Re-encoding the decoded result must reproduce the wire bytes exactly —
  // a lossless codec composed with itself is the identity.
  EXPECT_EQ(encode_rtl_partial(*back), encode_rtl_partial(r));
  EXPECT_EQ(back->injected, r.injected);
  EXPECT_EQ(back->masked, r.masked);
  EXPECT_EQ(back->due, r.due);
  EXPECT_EQ(back->golden_cycles, r.golden_cycles);
  ASSERT_EQ(back->records.size(), r.records.size());
  // And the public serialization — what the coordinator actually ships to
  // the client — cannot tell the decoded result from the original.
  const auto spec = rtl_spec();
  EXPECT_EQ(serve::serialize_campaign_result(spec, *back),
            serve::serialize_campaign_result(spec, r));
}

TEST(Protocol, SwResultRoundTripsBitForBit) {
  const auto app = vocab::make_app("mxm");
  swfi::Config cfg;
  cfg.model = swfi::FaultModel::SingleBitFlip;
  cfg.n_injections = 48;
  cfg.seed = 11;
  cfg.jobs = 1;
  const auto r = swfi::run_sw_campaign(app.app, cfg);
  ASSERT_GT(r.injections, 0u);

  // The public sw payload is the sw shard partial: it carries every field.
  std::string error;
  const auto back =
      serve::decode_sw_result(serve::serialize_sw_result(r), &error);
  ASSERT_TRUE(back) << error;
  EXPECT_EQ(serve::serialize_sw_result(*back), serve::serialize_sw_result(r));
}

TEST(Protocol, PartialDecodersRejectGarbage) {
  std::string error;
  EXPECT_FALSE(decode_rtl_partial("", &error));
  EXPECT_FALSE(decode_rtl_partial("v=99\n", &error));
  EXPECT_FALSE(serve::decode_sw_result("not a result", &error));
  EXPECT_FALSE(decode_shard_request("job=\n"));
  EXPECT_FALSE(decode_hello("version=x\n"));
  // A version past 32 bits is not v1.
  EXPECT_FALSE(decode_hello("version=4294967297\nname=w\npid=1\n"));
  // Shard positions past 32 bits are rejected, not truncated.
  const std::string spec = "--- spec ---\nkind=rtl\n";
  EXPECT_TRUE(decode_shard_request(
      "job=1\nshard=0\nn_shards=1\noffset=0\ncount=0\n" + spec));
  EXPECT_FALSE(decode_shard_request(
      "job=1\nshard=4294967296\nn_shards=1\noffset=0\ncount=0\n" +
      spec));
  EXPECT_FALSE(decode_shard_request(
      "job=1\nshard=0\nn_shards=4294967297\noffset=0\ncount=0\n" +
      spec));
  // A sw result holds its keys in serialize_sw_result's order, once each,
  // and nothing after them; a count past 64 bits is rejected, not wrapped.
  const auto sw = [](std::string_view injections, std::string_view tail) {
    return "kind=sw\ninjections=" + std::string(injections) +
           "\nmasked=1\nsdc=1\ndue=1\n" + std::string(tail);
  };
  EXPECT_TRUE(serve::decode_sw_result(sw("3", "candidates=9\n"), &error))
      << error;
  EXPECT_FALSE(serve::decode_sw_result(
      sw("18446744073709551616", "candidates=9\n"), &error));
  EXPECT_FALSE(serve::decode_sw_result(sw("3", ""), &error));  // missing
  EXPECT_FALSE(serve::decode_sw_result(
      sw("3", "due=1\ncandidates=9\n"), &error));  // repeated
  EXPECT_FALSE(serve::decode_sw_result(
      "kind=sw\ninjections=3\nsdc=1\nmasked=1\ndue=1\ncandidates=9\n",
      &error));  // out of order
  EXPECT_FALSE(serve::decode_sw_result(
      "kind=rtl\ninjections=3\nmasked=1\nsdc=1\ndue=1\ncandidates=9\n",
      &error));
  EXPECT_FALSE(
      serve::decode_sw_result(sw("3", "candidates=9\nx"), &error));  // trailing
  // A cnn result follows the same rules, with its own kind and keys.
  const auto cnn = [](std::string_view tail) {
    return "kind=cnn\ninjections=3\nmasked=1\nsdc=1\n" + std::string(tail);
  };
  EXPECT_TRUE(serve::decode_cnn_result(cnn("critical=1\ndue=1\n"), &error))
      << error;
  EXPECT_FALSE(serve::decode_cnn_result(
      cnn("critical=18446744073709551616\ndue=1\n"), &error));
  EXPECT_FALSE(serve::decode_cnn_result(cnn("critical=1\n"), &error));
  EXPECT_FALSE(serve::decode_cnn_result(
      cnn("critical=1\ndue=1\ndue=1\n"), &error));  // repeated
  EXPECT_FALSE(serve::decode_cnn_result(
      cnn("due=1\ncritical=1\n"), &error));  // out of order
  EXPECT_FALSE(serve::decode_cnn_result(
      cnn("critical=1\ndue=1\nx"), &error));  // trailing
  EXPECT_FALSE(serve::decode_cnn_result(sw("3", "candidates=9\n"), &error));
  const auto rtl_partial = [](const char* bit) {
    std::string p =
        "v=1\ninjected=1\nmasked=0\nsdc_single=1\nsdc_multi=0\ndue=0\n"
        "golden_cycles=10\nconverged_early=0\nrecords=1\nr=0 ";
    p += bit;
    p += " 5 0 0 0 0 1 0 1 1 0 0 0 0 0 0 0 0 0\nf=x\nw=\nattrs=0\n";
    return p;
  };
  EXPECT_TRUE(decode_rtl_partial(rtl_partial("7"), &error)) << error;
  EXPECT_FALSE(decode_rtl_partial(rtl_partial("4294967296"), &error));
}

TEST(Protocol, SpecWorkersFieldRoundTrips) {
  auto spec = rtl_spec();
  spec.workers = 4;
  const auto back = serve::decode_spec(serve::encode_spec(spec));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->workers, 4u);
}

// ------------------------------------------------------- fleet byte-identity

TEST(Fabric, RtlByteIdenticalAcrossWorkerCounts) {
  // The rtl spec merges lossless rtl partials; a bitflip and a syndrome sw
  // spec merge public sw results, and a cnn t-MxM spec public cnn results.
  // A zero-trial spec of each kind runs as one empty range, merged like any
  // other, so what the golden run alone decides must survive the merge.
  auto syndrome = sw_spec();
  syndrome.model = "syndrome";
  syndrome.db_path = GPUFI_TEST_DATA_DIR "/syndromes.db";
  std::vector<serve::CampaignSpec> specs{rtl_spec(), sw_spec(), syndrome,
                                         cnn_spec()};
  auto rtl_empty = rtl_spec();
  rtl_empty.faults = 0;
  auto sw_empty = sw_spec();
  sw_empty.injections = 0;
  auto cnn_empty = cnn_spec();
  cnn_empty.injections = 0;
  specs.insert(specs.end(), {rtl_empty, sw_empty, cnn_empty});
  std::vector<std::string> offline;
  for (const auto& spec : specs)
    offline.push_back(serve::run_spec_offline(spec));
  for (const std::size_t n_workers : {1, 2, 4}) {
    Fleet fleet("fab_rtl_" + std::to_string(n_workers) + ".sock", n_workers);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string served = fleet.coord->run_job(
          specs[i], static_cast<unsigned>(n_workers), {}, nullptr);
      EXPECT_EQ(served, offline[i])
          << n_workers << "-worker fabric run of spec " << i
          << " drifted from offline";
    }
    const auto s = fleet.coord->stats();
    EXPECT_EQ(s.jobs_completed, specs.size());
    EXPECT_EQ(s.shards_retried, 0u);
    EXPECT_EQ(s.shards_duplicate, 0u);
  }
}

TEST(Fabric, SwAndTmxmCampaignsByteIdentical) {
  Fleet fleet("fab_mixed.sock", 2);
  const auto sw = sw_spec();
  EXPECT_EQ(fleet.coord->run_job(sw, 2, {}, nullptr),
            serve::run_spec_offline(sw));
  // The models that replay the syndrome DB (sticky samples its stuck-at-1
  // class), sharded over the same fleet.
  for (const char* model : {"syndrome", "warp", "sticky"}) {
    auto replay = sw_spec();
    replay.model = model;
    replay.db_path = GPUFI_TEST_DATA_DIR "/syndromes.db";
    EXPECT_EQ(fleet.coord->run_job(replay, 2, {}, nullptr),
              serve::run_spec_offline(replay))
        << model;
  }

  serve::CampaignSpec tmxm;
  tmxm.kind = serve::CampaignKind::Tmxm;
  tmxm.module = "sched";
  tmxm.tile = "random";
  tmxm.faults = 64;
  tmxm.seed = 3;
  tmxm.jobs = 1;
  EXPECT_EQ(fleet.coord->run_job(tmxm, 2, {}, nullptr),
            serve::run_spec_offline(tmxm));
}

TEST(Fabric, PlannedSwCampaignRunsAsSingleShard) {
  // The adaptive planner's trial loop is sequential by construction, so the
  // fabric must NOT split it: one range, its payload forwarded as is.
  Fleet fleet("fab_planned.sock", 2);
  auto spec = sw_spec();
  spec.plan = "target_err=0.2,min_trials=8";
  EXPECT_EQ(fleet.coord->run_job(spec, 2, {}, nullptr),
            serve::run_spec_offline(spec));
  EXPECT_EQ(fleet.coord->stats().shards_dispatched, 1u);
}

TEST(Fabric, TcpTransportByteIdentical) {
  CoordinatorConfig ccfg;
  ccfg.listen = *parse_endpoint("tcp:127.0.0.1:0");  // ephemeral port
  ccfg.worker_wait_ms = 10'000;
  Coordinator coord(ccfg);
  coord.start();
  ASSERT_GT(coord.port(), 0u);

  WorkerConfig wcfg;
  wcfg.coordinator =
      *parse_endpoint("tcp:127.0.0.1:" + std::to_string(coord.port()));
  wcfg.heartbeat_ms = 50;
  Worker worker(wcfg);
  worker.start();
  ASSERT_TRUE(coord.wait_for_workers(1, 10'000));

  const auto spec = rtl_spec();
  EXPECT_EQ(coord.run_job(spec, 1, {}, nullptr),
            serve::run_spec_offline(spec));
  worker.stop();
  coord.stop();
}

TEST(Fabric, ProgressIsMonotonicAndBounded) {
  Fleet fleet("fab_progress.sock", 2);
  std::mutex mu;
  std::vector<std::size_t> dones;
  const auto spec = rtl_spec();
  const std::string served =
      fleet.coord->run_job(spec, 2,
                           [&](const exec::Progress& p) {
                             std::lock_guard<std::mutex> lock(mu);
                             EXPECT_EQ(p.total, 96u);
                             EXPECT_LE(p.done, p.total);
                             dones.push_back(p.done);
                           },
                           nullptr);
  EXPECT_EQ(served, serve::run_spec_offline(rtl_spec()));
  ASSERT_FALSE(dones.empty()) << "no progress frames reached the client";
  for (std::size_t i = 1; i < dones.size(); ++i)
    EXPECT_LE(dones[i - 1], dones[i]) << "progress regressed at frame " << i;
}

// ------------------------------------------------------------ failure paths

TEST(Fabric, VersionMismatchIsRejectedWithClearError) {
  Fleet fleet("fab_version.sock", 1);
  WorkerConfig stale;
  stale.protocol_version = kFabricProtocolVersion + 41;
  stale.name = "stale";
  try {
    fleet.add_worker(stale);
    FAIL() << "a mismatched worker must be rejected at registration";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    // Both versions are named so the operator knows which side is stale.
    EXPECT_NE(what.find("v" + std::to_string(kFabricProtocolVersion)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kFabricProtocolVersion + 41)),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(fleet.coord->stats().workers_rejected, 1u);
  EXPECT_EQ(fleet.coord->stats().workers_alive, 1u);
  // The healthy fleet is unaffected.
  const auto spec = rtl_spec();
  EXPECT_EQ(fleet.coord->run_job(spec, 1, {}, nullptr),
            serve::run_spec_offline(spec));
}

TEST(Fabric, WorkerDeathMidCampaignRetriesWithoutChangingBytes) {
  CoordinatorConfig ccfg;
  ccfg.heartbeat_timeout_ms = 2000;
  Fleet fleet("fab_death.sock", 0, ccfg);
  // Worker A crashes on receipt of its second shard — after returning real
  // results, so the coordinator holds a genuine partial merge when it dies.
  // It is the only worker until it has died, so it receives that second
  // shard however fast the shards run.
  WorkerConfig crashy;
  crashy.name = "crashy";
  crashy.fail_after_shards = 1;
  fleet.add_worker(crashy);
  ASSERT_TRUE(fleet.coord->wait_for_workers(1, 10'000));

  const auto spec = rtl_spec();
  std::string served, error;
  std::thread job([&] {
    try {
      served = fleet.coord->run_job(spec, 2, {}, nullptr);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.coord->stats().shards_retried == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  WorkerConfig steady;
  steady.name = "steady";
  fleet.add_worker(steady);
  job.join();
  EXPECT_EQ(error, "");
  EXPECT_EQ(served, serve::run_spec_offline(spec))
      << "retried shard changed the merged bytes";
  const auto s = fleet.coord->stats();
  EXPECT_GE(s.shards_retried, 1u) << "the crash was never exercised";
  EXPECT_EQ(s.jobs_completed, 1u);
  EXPECT_EQ(s.workers_alive, 1u);
}

TEST(Fabric, NoWorkersFailsWithClearError) {
  CoordinatorConfig ccfg;
  ccfg.worker_wait_ms = 100;
  Fleet fleet("fab_empty.sock", 0, ccfg);
  try {
    fleet.coord->run_job(rtl_spec(), 2, {}, nullptr);
    FAIL() << "a workerless fabric must fail the job";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no fabric workers"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- daemon integration

TEST(ServerFabric, SubmitFansOutAndMatchesOffline) {
  serve::ServerConfig cfg;
  cfg.socket_path = "serve_fabric.sock";
  cfg.workers = 2;
  cfg.fabric_listen = "unix:serve_fabric_fab.sock";
  serve::Server server(cfg);
  server.start();

  WorkerConfig wcfg;
  wcfg.coordinator = *parse_endpoint(cfg.fabric_listen);
  wcfg.heartbeat_ms = 50;
  Worker w1(wcfg), w2(wcfg);
  w1.start();
  w2.start();
  ASSERT_TRUE(server.coordinator() != nullptr);
  ASSERT_TRUE(server.coordinator()->wait_for_workers(2, 10'000));

  auto spec = rtl_spec();
  spec.workers = 2;
  const auto outcome = serve::submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  auto offline_spec = rtl_spec();  // workers is transport config, not
  EXPECT_EQ(outcome.result,        // result-affecting: compare without it
            serve::run_spec_offline(offline_spec));

  const auto stats = server.stats();
  EXPECT_EQ(stats.fabric_workers_registered, 2u);
  EXPECT_EQ(stats.fabric_workers_alive, 2u);
  EXPECT_GT(stats.fabric_shards_completed, 0u);
  EXPECT_EQ(stats.fabric_shards_inflight, 0u);

  std::string error;
  const auto text = serve::query_metrics(cfg.socket_path, &error);
  ASSERT_TRUE(text) << error;
  EXPECT_NE(text->find("gpufi_fabric_workers_alive"), std::string::npos);
  EXPECT_NE(text->find("gpufi_fabric_shards_inflight"), std::string::npos);

  // Stats survive their wire codec with the fabric fields intact.
  const auto decoded = serve::decode_stats(serve::encode_stats(stats));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->fabric_workers_alive, stats.fabric_workers_alive);
  EXPECT_EQ(decoded->fabric_shards_completed, stats.fabric_shards_completed);

  w1.stop();
  w2.stop();
  server.shutdown(/*drain=*/true);
}

TEST(ServerFabric, WorkersWithoutFabricIsRejected) {
  serve::ServerConfig cfg;
  cfg.socket_path = "serve_nofabric.sock";
  serve::Server server(cfg);
  server.start();
  auto spec = rtl_spec();
  spec.workers = 2;
  const auto outcome = serve::submit_campaign(cfg.socket_path, spec);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("no fabric"), std::string::npos)
      << outcome.error;
  server.shutdown(/*drain=*/false);
}
