// Tests for gpufi-serve: wire protocol framing, the bounded priority queue,
// the single-flight shared caches, and loopback daemon sessions pinning the
// served-equals-offline byte-identity contract, golden-trace sharing across
// concurrent requests, admission control, deadlines, and SIGTERM-style drain.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fabric/transport.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "vocab/vocab.hpp"

using namespace gpufi;
using namespace gpufi::serve;

namespace {

/// Polls `pred` (5 ms period) until true or `timeout`; returns the verdict.
bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(10'000)) {
  const auto end = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// A small, fast RTL campaign spec (the loopback workhorse).
CampaignSpec small_rtl_spec() {
  CampaignSpec spec;
  spec.kind = CampaignKind::Rtl;
  spec.op = "FFMA";
  spec.module = "fp32";
  spec.range = "M";
  spec.faults = 30;
  spec.seed = 7;
  spec.jobs = 1;
  return spec;
}

/// small_rtl_spec's attribution report over `module` ("all": six modules).
CampaignSpec small_report_spec(const std::string& module) {
  auto spec = small_rtl_spec();
  spec.kind = CampaignKind::Report;
  spec.module = module;
  return spec;
}

/// A small cnn spec over the committed weights and syndrome DB.
CampaignSpec small_cnn_spec() {
  CampaignSpec spec;
  spec.kind = CampaignKind::Cnn;
  spec.net = "lenet";
  spec.model = "tmxm";
  spec.injections = 20;
  spec.seed = 5;
  spec.jobs = 1;
  spec.db_path = GPUFI_TEST_DATA_DIR "/syndromes.db";
  spec.models_dir = GPUFI_TEST_DATA_DIR;
  return spec;
}

/// Submits `spec` on a raw connection without reading the reply (lets tests
/// observe server state while the job is queued/running). Caller closes fd.
int submit_raw(const std::string& socket_path, const CampaignSpec& spec) {
  const int fd = fabric::connect_endpoint({.path = socket_path});
  EXPECT_GE(fd, 0) << "connect(" << socket_path << ")";
  EXPECT_TRUE(write_frame(fd, {FrameType::Submit, encode_spec(spec)}));
  return fd;
}

/// Reads frames until the final Result/Error frame (skipping Progress).
Frame read_final(int fd) {
  for (;;) {
    Frame f;
    const ReadStatus st = read_frame(fd, f);
    EXPECT_EQ(st, ReadStatus::Ok) << "stream ended before a final frame";
    if (st != ReadStatus::Ok) return {FrameType::Error, "transport error"};
    if (f.type == FrameType::Progress) continue;
    return f;
  }
}

}  // namespace

// ----------------------------------------------------------------- framing

TEST(Protocol, FrameRoundTripsThroughEncodeDecode) {
  const Frame in{FrameType::Submit, "kind=rtl\nop=FFMA\n"};
  const std::string wire = encode_frame(in);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + in.payload.size());
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::Ok);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Protocol, EmptyPayloadFrameIsValid) {
  const std::string wire = encode_frame({FrameType::Status, ""});
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::Ok);
  EXPECT_EQ(out.type, FrameType::Status);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Protocol, TruncatedFramesNeedMoreBytes) {
  const std::string wire = encode_frame({FrameType::Result, "payload body"});
  Frame out;
  std::size_t consumed = 0;
  // Every strict prefix — header fragments and partial payloads alike — must
  // ask for more bytes, never decode garbage.
  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_EQ(decode_frame(std::string_view(wire).substr(0, len), out,
                           consumed),
              DecodeStatus::NeedMore)
        << "prefix length " << len;
}

TEST(Protocol, OversizedDeclaredPayloadIsRejected) {
  // Declared length 100 with a 16-byte cap: protocol violation, not NeedMore.
  std::string wire = encode_frame({FrameType::Error, std::string(100, 'x')});
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed, /*max_payload=*/16),
            DecodeStatus::TooLarge);
}

TEST(Protocol, EncodeRefusesOverlongPayload) {
  Frame f{FrameType::Result, std::string(kMaxFramePayload + 1, 'x')};
  EXPECT_THROW(encode_frame(f), std::length_error);
}

TEST(Protocol, UnknownFrameTypeByteIsRejected) {
  std::string wire = encode_frame({FrameType::Submit, "abc"});
  wire[4] = 0;  // type byte below the enum range
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::BadType);
  wire[4] = 42;  // above the enum range
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::BadType);
  // Retired report request and reply; the fabric frames after them keep
  // their numbers.
  for (const char retired : {9, 10}) {
    wire[4] = retired;
    EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::BadType)
        << int{retired};
  }
  wire[4] = static_cast<char>(FrameType::Hello);
  EXPECT_EQ(static_cast<int>(FrameType::Hello), 11);
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::Ok);
}

TEST(Protocol, SocketFramingRoundTripsAndSignalsEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Frame sent{FrameType::Progress, "done=5\ntotal=10\n"};
  ASSERT_TRUE(write_frame(fds[0], sent));
  Frame got;
  ASSERT_EQ(read_frame(fds[1], got), ReadStatus::Ok);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.payload, sent.payload);
  ::close(fds[0]);  // clean close -> Eof on the reader
  EXPECT_EQ(read_frame(fds[1], got), ReadStatus::Eof);
  ::close(fds[1]);
}

TEST(Protocol, WriteToHungUpPeerFailsInsteadOfKillingTheProcess) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // MSG_NOSIGNAL: EPIPE as a return value, no SIGPIPE.
  EXPECT_FALSE(write_frame(fds[0], {FrameType::Result, "late result"}));
  ::close(fds[0]);
}

TEST(Protocol, ReadRejectsOversizedAndBadTypeFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(write_frame(fds[0], {FrameType::Error, std::string(64, 'y')}));
  Frame got;
  EXPECT_EQ(read_frame(fds[1], got, /*max_payload=*/8), ReadStatus::TooLarge);
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string wire = encode_frame({FrameType::Submit, "x"});
  wire[4] = 99;
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  EXPECT_EQ(read_frame(fds[1], got), ReadStatus::BadType);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------------------------ spec payloads

TEST(Protocol, SpecRoundTripsEveryField) {
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.op = "FADD";
  spec.module = "sched";
  spec.range = "L";
  spec.tile = "zero";
  spec.app = "hotspot";
  spec.model = "syndrome";
  spec.net = "yolo";
  spec.fault_model = "burst";
  spec.fault_duration = 64;
  spec.burst_period = 5;
  spec.faults = 123;
  spec.injections = 45;
  spec.seed = 999;
  spec.jobs = 3;
  spec.db_path = "some/dir/syn.db";
  spec.models_dir = "some/dir";
  spec.priority = -2;
  spec.deadline_ms = 1500;
  spec.plan = "target_err=0.05,min_trials=16";
  spec.workers = 4;
  for (const auto& s : {spec, small_report_spec("all")}) {
    std::string error;
    const auto back = decode_spec(encode_spec(s), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(*back, s);
  }
}

TEST(Protocol, SpecDecodeIsStrict) {
  std::string error;
  // Unknown key.
  EXPECT_FALSE(decode_spec("kind=rtl\nbogus=1\n", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  // Malformed number.
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=12x\n", &error).has_value());
  // Line without '='.
  EXPECT_FALSE(decode_spec("kind=rtl\nnonsense\n", &error).has_value());
  // Invalid vocabulary caught by validation.
  EXPECT_FALSE(decode_spec("kind=rtl\nop=NOSUCH\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=sw\napp=doom\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=cnn\nnet=alexnet\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\naccel=warp9\n", &error).has_value());
  // The reference RTL levels are test oracles, not a spec field.
  EXPECT_FALSE(decode_spec("kind=rtl\naccel=full\n", &error).has_value());
  EXPECT_EQ(error, "unknown spec key: accel");
  // The progress cadence is not a spec field either.
  EXPECT_FALSE(
      decode_spec("kind=rtl\nprogress_interval=25\n", &error).has_value());
  EXPECT_EQ(error, "unknown spec key: progress_interval");
  EXPECT_FALSE(decode_spec("kind=marsupial\n", &error).has_value());
  // "all" names every module of a report only, and a report never fans
  // out.
  EXPECT_FALSE(decode_spec("kind=rtl\nmodule=all\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=report\nmodule=nosuch\n", &error)
                   .has_value());
  EXPECT_FALSE(decode_spec("kind=report\nworkers=2\n", &error).has_value());
  EXPECT_NE(error.find("fan out"), std::string::npos);
  // Unknown fault-model token rejected for every kind.
  EXPECT_FALSE(decode_spec("kind=rtl\nfault_model=gamma\n", &error)
                   .has_value());
  EXPECT_NE(error.find("fault model"), std::string::npos);
  EXPECT_FALSE(decode_spec("kind=sw\nfault_model=stuckX\n", &error)
                   .has_value());
  // Plan vocabulary: parsed strictly, and only valid for kind=sw.
  EXPECT_FALSE(decode_spec("kind=sw\nplan=target_err=2\n", &error)
                   .has_value());
  EXPECT_FALSE(decode_spec("kind=sw\nplan=bogus\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\nplan=target_err=0.1\n", &error)
                   .has_value());
  EXPECT_NE(error.find("kind=sw"), std::string::npos);
  EXPECT_TRUE(decode_spec("kind=sw\nplan=target_err=0.1\n", &error)
                  .has_value()) << error;
  EXPECT_FALSE(decode_spec("kind=sw\nplan=target_err=nan\n", &error)
                   .has_value());
  // Signs and spaces are outside the number grammar: no wrap to 2^64-1,
  // no silently skipped blank.
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults= -1\n", &error).has_value());
  EXPECT_NE(error.find("faults"), std::string::npos);
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=+5\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults= 5\n", &error).has_value());
  // Numbers that do not fit their field are rejected, never truncated.
  EXPECT_FALSE(decode_spec("kind=rtl\njobs=4294967296\nworkers=4294967298\n"
                           "priority=4294967297\n",
                           &error)
                   .has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\njobs=4294967296\n", &error).has_value());
  EXPECT_NE(error.find("jobs"), std::string::npos);
  EXPECT_FALSE(
      decode_spec("kind=rtl\nworkers=4294967298\n", &error).has_value());
  EXPECT_FALSE(
      decode_spec("kind=rtl\npriority=4294967297\n", &error).has_value());
  EXPECT_FALSE(
      decode_spec("kind=rtl\npriority=-2147483649\n", &error).has_value());
  const auto widest = decode_spec(
      "kind=rtl\njobs=4294967295\nworkers=4294967295\n"
      "priority=-2147483648\n",
      &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_EQ(widest->jobs, 4294967295u);
  EXPECT_EQ(widest->priority, -2147483647 - 1);
}

TEST(Vocab, PlanTrialCountsAreStrict) {
  // A plan's trial counts are positive decimal integers only. Zero, any
  // non-digit and overflow-range inputs are usage errors.
  const auto min_trials = [](const std::string& n) {
    return vocab::parse_plan("target_err=0.1,min_trials=" + n);
  };
  ASSERT_TRUE(min_trials("1").has_value());
  EXPECT_EQ(min_trials("1")->min_trials, std::size_t{1});
  ASSERT_TRUE(min_trials("2500").has_value());
  EXPECT_EQ(min_trials("2500")->min_trials, std::size_t{2500});
  EXPECT_FALSE(min_trials("0").has_value());
  EXPECT_FALSE(min_trials("").has_value());
  EXPECT_FALSE(min_trials("-5").has_value());
  EXPECT_FALSE(min_trials("12x").has_value());
  EXPECT_FALSE(min_trials("1e3").has_value());
  // 19 digits exceeds the accepted width.
  EXPECT_FALSE(min_trials("9999999999999999999").has_value());
}

TEST(Protocol, ProgressRoundTrips) {
  exec::Progress p;
  p.done = 7;
  p.total = 1000;
  p.per_second = 123.456789012345;
  p.eta_seconds = 8.0500000000000007;
  const auto back = decode_progress(encode_progress(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->done, p.done);
  EXPECT_EQ(back->total, p.total);
  EXPECT_DOUBLE_EQ(back->per_second, p.per_second);
  EXPECT_DOUBLE_EQ(back->eta_seconds, p.eta_seconds);
}

TEST(Protocol, StatsRoundTrip) {
  ServerStats s;
  s.accepted = 10;
  s.completed = 6;
  s.failed = 1;
  s.cancelled = 2;
  s.rejected = 3;
  s.active = 1;
  s.queued = 4;
  s.queue_capacity = 64;
  s.workers = 2;
  s.planner_early_stops = 7;
  s.db_cache = {5, 1};
  s.golden_cache = {9, 2};
  const auto back = decode_stats(encode_stats(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->accepted, s.accepted);
  EXPECT_EQ(back->completed, s.completed);
  EXPECT_EQ(back->failed, s.failed);
  EXPECT_EQ(back->cancelled, s.cancelled);
  EXPECT_EQ(back->rejected, s.rejected);
  EXPECT_EQ(back->active, s.active);
  EXPECT_EQ(back->queued, s.queued);
  EXPECT_EQ(back->queue_capacity, s.queue_capacity);
  EXPECT_EQ(back->workers, s.workers);
  EXPECT_EQ(back->planner_early_stops, s.planner_early_stops);
  EXPECT_EQ(back->db_cache.hits, s.db_cache.hits);
  EXPECT_EQ(back->golden_cache.misses, s.golden_cache.misses);
  EXPECT_FALSE(decode_stats("accepted=1\nnope=2\n").has_value());
}

// ----------------------------------------------------------------- queue

namespace {

Job make_job(std::uint64_t id, int priority = 0) {
  Job j;
  j.id = id;
  j.spec = small_rtl_spec();
  j.spec.priority = priority;
  j.cancel = std::make_shared<exec::CancelToken>();
  return j;
}

}  // namespace

TEST(JobQueue, PopsInPriorityThenArrivalOrder) {
  JobQueue q(8);
  ASSERT_TRUE(q.push(make_job(1, /*priority=*/5)));
  ASSERT_TRUE(q.push(make_job(2, /*priority=*/0)));
  ASSERT_TRUE(q.push(make_job(3, /*priority=*/5)));
  ASSERT_TRUE(q.push(make_job(4, /*priority=*/-1)));
  EXPECT_EQ(q.pop()->id, 4u);  // lowest priority value first
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 1u);  // FIFO within a priority class
  EXPECT_EQ(q.pop()->id, 3u);
}

TEST(JobQueue, RejectsWhenFullAndCountsRejections) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(make_job(1)));
  EXPECT_TRUE(q.push(make_job(2)));
  EXPECT_FALSE(q.push(make_job(3)));  // bounded: reject, don't block
  EXPECT_FALSE(q.push(make_job(4)));
  EXPECT_EQ(q.rejected(), 2u);
  EXPECT_EQ(q.depth(), 2u);
  q.pop();
  EXPECT_TRUE(q.push(make_job(5)));  // slot freed -> admitted again
}

TEST(JobQueue, CloseDrainsQueuedJobsThenSignalsExit) {
  JobQueue q(8);
  ASSERT_TRUE(q.push(make_job(1)));
  ASSERT_TRUE(q.push(make_job(2)));
  q.close();
  EXPECT_FALSE(q.push(make_job(3)));  // no admissions after close
  EXPECT_TRUE(q.pop().has_value());   // ...but queued jobs still drain
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // empty + closed -> worker exits
}

TEST(JobQueue, DrainPendingEmptiesTheQueue) {
  JobQueue q(8);
  ASSERT_TRUE(q.push(make_job(1)));
  ASSERT_TRUE(q.push(make_job(2, 1)));
  const auto pending = q.drain_pending();
  EXPECT_EQ(pending.size(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(JobQueue, PopBlocksUntilAJobArrives) {
  JobQueue q(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto j = q.pop();
    got = j.has_value() && j->id == 77;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.push(make_job(77)));
  consumer.join();
  EXPECT_TRUE(got.load());
}

// ----------------------------------------------------------------- cache

TEST(SharedCache, ComputesOnceAndSharesAcrossRacingThreads) {
  SharedCache<int> cache;
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(6);
  for (std::size_t t = 0; t < results.size(); ++t)
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_compute("k", [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      });
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);  // single flight
  for (const auto& r : results) {
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.get(), results[0].get());  // literally the same object
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
}

TEST(SharedCache, DistinctKeysComputeSeparately) {
  SharedCache<std::string> cache;
  const auto a = cache.get_or_compute("a", [] { return std::string("A"); });
  const auto b = cache.get_or_compute("b", [] { return std::string("B"); });
  EXPECT_EQ(*a, "A");
  EXPECT_EQ(*b, "B");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SharedCache, FailedComputeIsNotPoisoned) {
  SharedCache<int> cache;
  EXPECT_THROW(cache.get_or_compute(
                   "k", []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The failure was erased: the next requester retries and succeeds.
  const auto r = cache.get_or_compute("k", [] { return 7; });
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------------- loopback

TEST(Serve, ServedResultIsByteIdenticalToOffline) {
  const auto spec = small_rtl_spec();
  const std::string offline = run_spec_offline(spec);
  ASSERT_FALSE(offline.empty());
  ASSERT_NE(offline.find("--- syndrome-db ---"), std::string::npos);

  ServerConfig cfg;
  cfg.socket_path = "serve_bytes.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);  // THE determinism contract
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ResultCarriesVersionedRecordsAndAttribution) {
  // The v2 result serialization: a record_version marker, one site= line
  // per record (the fault-site context), and the attribution table ahead
  // of the syndrome-db block — all inside the byte-identity contract.
  const auto spec = small_rtl_spec();
  const std::string offline = run_spec_offline(spec);
  EXPECT_NE(offline.find("record_version=2\n"), std::string::npos);
  EXPECT_NE(offline.find("attr_sites="), std::string::npos);
  EXPECT_NE(offline.find("attr="), std::string::npos);
  // The attribution lines precede the database block.
  EXPECT_LT(offline.find("attr_sites="), offline.find("--- syndrome-db ---"));
}

TEST(Serve, ServedReportIsByteIdenticalToOffline) {
  // query_report submits an rtl spec as a report; the Result payload is the
  // attribution-report JSON, byte-identical to the offline rendering of the
  // same spec (`gpufi report --json`).
  const auto spec = small_rtl_spec();
  const std::string offline = run_report_offline(spec);
  ASSERT_FALSE(offline.empty());
  EXPECT_NE(offline.find("\"instructions\":["), std::string::npos);

  ServerConfig cfg;
  cfg.socket_path = "serve_report.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto served = query_report(cfg.socket_path, spec, {}, &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_EQ(*served, offline);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ReportRequestRejectsNonRtlSpecs) {
  // Attribution joins RTL fault cycles to the golden liveness timeline;
  // software/CNN campaigns have no such timeline, so neither report
  // wrapper turns a non-rtl spec into a report: query_report refuses it
  // before the daemon admits a job, and run_report_offline throws.
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 5;

  ServerConfig cfg;
  cfg.socket_path = "serve_report_bad.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto served = query_report(cfg.socket_path, spec, {}, &error);
  EXPECT_FALSE(served.has_value());
  EXPECT_NE(error.find("rtl"), std::string::npos);
  EXPECT_EQ(server.stats().accepted, 0u);
  EXPECT_THROW(run_report_offline(spec), std::invalid_argument);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ServedAllModuleReportMatchesOfflineWithMonotoneProgress) {
  // A report over all six modules is one Submit answered by one Result
  // frame. Its Progress frames count trials over modules x faults, so
  // they never go backwards and the last one reads done == total.
  const auto spec = small_report_spec("all");
  const std::string offline = run_report_offline(spec);

  ServerConfig cfg;
  cfg.socket_path = "serve_report_all.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  std::vector<exec::Progress> frames;
  const auto outcome = submit_campaign(
      cfg.socket_path, spec,
      [&](const exec::Progress& p) { frames.push_back(p); });
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  ASSERT_FALSE(frames.empty());
  for (std::size_t i = 1; i < frames.size(); ++i)
    EXPECT_GE(frames[i].done, frames[i - 1].done) << "frame " << i;
  EXPECT_EQ(frames.back().done, 6 * spec.faults);
  EXPECT_EQ(frames.back().total, 6 * spec.faults);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, RtlCampaignAndReportShareOneCachedGolden) {
  // A report prepares its golden through the rtl runner's cache key: an
  // rtl spec and a report of the same op, range and seed build one.
  ServerConfig cfg;
  cfg.socket_path = "serve_report_golden.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  ASSERT_TRUE(submit_campaign(cfg.socket_path, small_rtl_spec()).ok);
  const auto report = submit_campaign(cfg.socket_path,
                                      small_report_spec("all"));
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_TRUE(wait_until([&] { return server.stats().completed == 2; }));
  EXPECT_EQ(server.stats().golden_cache.misses, 1u);
  EXPECT_EQ(server.stats().golden_cache.hits, 1u);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ServedStuckAtCampaignMatchesOffline) {
  // The determinism contract holds along the fault-model axis too: a
  // stuck-at-1 campaign served over the socket must be byte-identical to
  // the offline run, and its serialized result carries the model token.
  auto spec = small_rtl_spec();
  spec.fault_model = "stuck1";
  const std::string offline = run_spec_offline(spec);
  ASSERT_FALSE(offline.empty());
  ASSERT_NE(offline.find("fault_model=stuck1"), std::string::npos);

  ServerConfig cfg;
  cfg.socket_path = "serve_stuck.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ServedSwCampaignMatchesOffline) {
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 15;
  spec.seed = 4;
  spec.jobs = 1;
  const std::string offline = run_spec_offline(spec);

  ServerConfig cfg;
  cfg.socket_path = "serve_sw.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  server.shutdown(true);
}

TEST(Serve, ServedCnnCampaignMatchesOffline) {
  const auto spec = small_cnn_spec();
  const std::string offline = run_spec_offline(spec);

  ServerConfig cfg;
  cfg.socket_path = "serve_cnn.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  server.shutdown(true);
}

TEST(Serve, CnnBitFlipSpecLoadsNoSyndromeDatabase) {
  // Bit-flip hooks never read the DB: a missing db_path is neither built
  // nor written, and the payload equals the run over the committed DB.
  auto spec = small_cnn_spec();
  spec.model = "bitflip";
  spec.injections = 8;
  const std::string committed = run_spec_offline(spec);
  spec.db_path = "serve_cnn_missing.db";
  std::filesystem::remove(spec.db_path);
  EXPECT_EQ(run_spec_offline(spec), committed);
  EXPECT_FALSE(std::filesystem::exists(spec.db_path));
}

TEST(Serve, CnnDeadlineStopsTheTrialLoopMidRun) {
  // A cnn campaign runs on the trial engine, so a deadline that expires
  // while its trials run stops it between two trials: some trials ran,
  // far from all of them.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  ServerConfig cfg;
  cfg.socket_path = "serve_cnn_deadline.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  // A zero-trial run warms the DB cache and times what precedes the first
  // trial, so the deadline below lands inside the trial loop on slow
  // (sanitized) builds too.
  auto spec = small_cnn_spec();
  spec.injections = 0;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(submit_campaign(cfg.socket_path, spec).ok);
  const auto startup = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  spec.injections = 1'000'000;
  spec.deadline_ms = static_cast<std::uint64_t>(3 * startup.count() + 500);
  const int fd = submit_raw(cfg.socket_path, spec);
  const Frame reply = read_final(fd);
  ::close(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("deadline"), std::string::npos);
  ASSERT_TRUE(wait_until([&] { return server.stats().cancelled == 1; }));
  const auto& metrics = obs::Registry::global();
  EXPECT_EQ(metrics.counter_value("gpufi_exec_deadline_expired_total"), 1u);
  const auto trials = metrics.counter_value("gpufi_exec_trials_total");
  EXPECT_GT(trials, 0u);
  EXPECT_LT(trials, spec.injections);
  server.shutdown(true);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(Serve, StickySpecReplaysTheStuckAt1SyndromeClass) {
  // The syndrome-DB policy has one copy (the sw spec runner): a sticky spec
  // samples the stuck-at-1 class. The committed database holds transient
  // classes only, so characterize both classes into a small one here.
  const std::string db_path =
      "serve_sticky_" + std::to_string(::getpid()) + ".db";
  core::RtlCharacterizationConfig dbcfg;
  dbcfg.faults_per_campaign = 24;
  dbcfg.value_seeds = 1;
  dbcfg.tmxm_faults = 24;
  dbcfg.fault_models = {rtl::FaultModel::Transient, rtl::FaultModel::StuckAt1};
  core::build_syndrome_database(dbcfg).save_file(db_path);
  const auto db = syndrome::Database::load_file(db_path);

  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "sticky";
  spec.injections = 32;
  spec.seed = 5;
  spec.db_path = db_path;
  const auto replay = [&](rtl::FaultModel syndrome_class) {
    swfi::Config cfg;
    cfg.model = swfi::FaultModel::StickyRelativeError;
    cfg.db = &db;
    cfg.syndrome_model = syndrome_class;
    cfg.n_injections = spec.injections;
    cfg.seed = spec.seed;
    cfg.jobs = 1;
    return serialize_sw_result(
        swfi::run_sw_campaign(vocab::make_app(spec.app).app, cfg));
  };
  const std::string offline = run_spec_offline(spec);
  std::remove(db_path.c_str());
  EXPECT_EQ(offline, replay(rtl::FaultModel::StuckAt1));
  EXPECT_NE(offline, replay(rtl::FaultModel::Transient))
      << "the two syndrome classes must be distinguishable";
}

TEST(Serve, ServedPlannedSwCampaignMatchesOffline) {
  // A planned campaign through the daemon: the sw-planned payload is
  // byte-identical to the offline dispatch of the same spec, and the Stats
  // frame reports the early-stopped strata the run produced.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 120;
  spec.seed = 4;
  spec.jobs = 1;
  spec.plan = "target_err=0.25,min_trials=8";
  const std::string offline = run_spec_offline(spec);
  EXPECT_NE(offline.find("kind=sw-planned\n"), std::string::npos);
  EXPECT_NE(offline.find("adaptive=1\n"), std::string::npos);
  EXPECT_NE(offline.find("stratum="), std::string::npos);

  obs::Registry::global().reset();  // count only the served run below
  ServerConfig cfg;
  cfg.socket_path = "serve_sw_planned.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  std::string error;
  const auto stats = query_stats(cfg.socket_path, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GT(stats->planner_early_stops, 0u);
  server.shutdown(true);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(Serve, MetricsScrapeReportsCountersAndQueueState) {
  // A MetricsRequest frame answers with the Prometheus text exposition:
  // after one served campaign the job counters have advanced, the engine
  // trial counter matches the submitted fault count, and the queue gauges
  // show an idle daemon.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  ServerConfig cfg;
  cfg.socket_path = "serve_metrics.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto spec = small_rtl_spec();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // The completed counter is bumped by the worker after the Result frame is
  // written; give the worker a beat to retire the job.
  ASSERT_TRUE(wait_until([] {
    return obs::Registry::global().counter_value(
               "gpufi_serve_jobs_completed_total") >= 1;
  }));

  std::string error;
  const auto text = query_metrics(cfg.socket_path, &error);
  ASSERT_TRUE(text.has_value()) << error;
  EXPECT_NE(text->find("# TYPE"), std::string::npos);
  EXPECT_NE(text->find("gpufi_serve_jobs_accepted_total 1\n"),
            std::string::npos);
  EXPECT_NE(text->find("gpufi_serve_jobs_completed_total 1\n"),
            std::string::npos);
  // One trial per fault ran through the engine.
  EXPECT_NE(text->find("gpufi_exec_trials_total " +
                       std::to_string(spec.faults) + "\n"),
            std::string::npos);
  // Gauges show a drained, idle daemon.
  EXPECT_NE(text->find("gpufi_serve_queue_depth 0\n"), std::string::npos);
  EXPECT_NE(text->find("gpufi_serve_active_jobs 0\n"), std::string::npos);
  // The queue-wait histogram observed the one admitted job.
  EXPECT_NE(text->find("gpufi_serve_queue_wait_seconds_count 1\n"),
            std::string::npos);
  server.shutdown(true);
  obs::Registry::global().reset();
}

TEST(Serve, ConcurrentRequestsShareOneCachedGolden) {
  // Four identical campaigns in flight at once must trigger exactly one
  // prepare_golden (single-flight cache) and still each get the full,
  // byte-identical result.
  const auto spec = small_rtl_spec();
  const std::string offline = run_spec_offline(spec);

  ServerConfig cfg;
  cfg.socket_path = "serve_shared.sock";
  cfg.workers = 4;
  Server server(cfg);
  server.start();

  std::vector<std::thread> clients;
  std::vector<SubmitOutcome> outcomes(4);
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    clients.emplace_back([&, i] {
      outcomes[i] = submit_campaign(cfg.socket_path, spec);
    });
  for (auto& c : clients) c.join();

  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.result, offline);
  }
  // The worker increments `completed` just after sending the Result frame,
  // so a fast client can observe its bytes first — poll briefly.
  ASSERT_TRUE(wait_until([&] { return server.stats().completed == 4; }));
  const auto stats = server.stats();
  EXPECT_EQ(stats.golden_cache.misses, 1u);  // one compute...
  EXPECT_EQ(stats.golden_cache.hits, 3u);    // ...shared by the other three
  server.shutdown(true);
}

TEST(Serve, InvalidSpecGetsAnErrorFrame) {
  ServerConfig cfg;
  cfg.socket_path = "serve_invalid.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const int fd = fabric::connect_endpoint({.path = cfg.socket_path});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_frame(fd, {FrameType::Submit, "kind=rtl\nop=NOSUCH\n"}));
  const Frame reply = read_final(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("NOSUCH"), std::string::npos);
  ::close(fd);
  // A report's module seeds have no rtl shard equivalent, so the daemon
  // names why it will not fan one out instead of running it.
  auto fanned_report = small_report_spec("fp32");
  fanned_report.workers = 2;
  const int report_fd = submit_raw(cfg.socket_path, fanned_report);
  const Frame report_reply = read_final(report_fd);
  ::close(report_fd);
  EXPECT_EQ(report_reply.type, FrameType::Error);
  EXPECT_NE(report_reply.payload.find("cannot fan out"), std::string::npos)
      << report_reply.payload;
  server.shutdown(true);
}

TEST(Serve, FullQueueRejectsWithBackpressure) {
  ServerConfig cfg;
  cfg.socket_path = "serve_reject.sock";
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  Server server(cfg);
  server.start();

  // A deliberately slow campaign occupies the single worker...
  auto slow = small_rtl_spec();
  slow.faults = 8000;
  const int running = submit_raw(cfg.socket_path, slow);
  ASSERT_TRUE(wait_until([&] { return server.stats().active == 1; }));
  // ...a second fills the only queue slot...
  const int queued = submit_raw(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));
  // ...and the third bounces immediately with a queue-full Error.
  const int bounced = submit_raw(cfg.socket_path, small_rtl_spec());
  const Frame reply = read_final(bounced);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("queue full"), std::string::npos);
  EXPECT_GE(server.stats().rejected, 1u);
  ::close(bounced);

  // The admitted jobs still complete normally.
  EXPECT_EQ(read_final(running).type, FrameType::Result);
  EXPECT_EQ(read_final(queued).type, FrameType::Result);
  ::close(running);
  ::close(queued);
  server.shutdown(true);
}

TEST(Serve, ExpiredDeadlineCancelsTheCampaign) {
  ServerConfig cfg;
  cfg.socket_path = "serve_deadline.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  auto spec = small_rtl_spec();
  spec.faults = 8000;
  spec.deadline_ms = 1;  // expires long before 8000 trials
  const int fd = submit_raw(cfg.socket_path, spec);
  const Frame reply = read_final(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("deadline"), std::string::npos);
  ::close(fd);
  ASSERT_TRUE(wait_until([&] { return server.stats().cancelled == 1; }));
  server.shutdown(true);
}

TEST(Serve, GracefulDrainFinishesAdmittedJobs) {
  // The SIGTERM path: shutdown(drain=true) must complete every admitted
  // campaign (and deliver its bytes) before tearing down.
  ServerConfig cfg;
  cfg.socket_path = "serve_drain.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto spec = small_rtl_spec();
  const int a = submit_raw(cfg.socket_path, spec);
  const int b = submit_raw(cfg.socket_path, spec);
  ASSERT_TRUE(wait_until([&] { return server.stats().accepted == 2; }));

  server.shutdown(/*drain=*/true);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().completed, 2u);
  EXPECT_EQ(server.stats().cancelled, 0u);
  // Both clients still receive their full results.
  EXPECT_EQ(read_final(a).type, FrameType::Result);
  EXPECT_EQ(read_final(b).type, FrameType::Result);
  ::close(a);
  ::close(b);
  // The socket file is gone: a later bind can reuse the path.
  EXPECT_LT(fabric::connect_endpoint({.path = cfg.socket_path}), 0);
}

TEST(Serve, ForcedShutdownCancelsActiveAndBouncesQueued) {
  ServerConfig cfg;
  cfg.socket_path = "serve_force.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  auto slow = small_rtl_spec();
  slow.faults = 8000;
  const int running = submit_raw(cfg.socket_path, slow);
  ASSERT_TRUE(wait_until([&] { return server.stats().active == 1; }));
  const int queued = submit_raw(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));

  server.shutdown(/*drain=*/false);
  // The queued job is bounced with an explicit shutdown Error.
  const Frame bounced = read_final(queued);
  EXPECT_EQ(bounced.type, FrameType::Error);
  EXPECT_NE(bounced.payload.find("shutting down"), std::string::npos);
  // The active job was cancelled cooperatively (no Result frame).
  const Frame aborted = read_final(running);
  EXPECT_EQ(aborted.type, FrameType::Error);
  ::close(running);
  ::close(queued);
  EXPECT_EQ(server.stats().completed, 0u);
  EXPECT_EQ(server.stats().cancelled, 2u);
}

TEST(Serve, StatusQueryReportsConfigurationAndCounters) {
  ServerConfig cfg;
  cfg.socket_path = "serve_status.sock";
  cfg.workers = 3;
  cfg.queue_capacity = 17;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(wait_until([&] { return server.stats().completed == 1; }));
  std::string error;
  const auto stats = query_stats(cfg.socket_path, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->workers, 3u);
  EXPECT_EQ(stats->queue_capacity, 17u);
  EXPECT_EQ(stats->accepted, 1u);
  EXPECT_EQ(stats->completed, 1u);
  server.shutdown(true);
  // After teardown the daemon is unreachable.
  EXPECT_FALSE(query_stats(cfg.socket_path, &error).has_value());
}

TEST(Serve, MalformedFirstFrameGetsAnErrorReply) {
  ServerConfig cfg;
  cfg.socket_path = "serve_garbage.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const int fd = fabric::connect_endpoint({.path = cfg.socket_path});
  ASSERT_GE(fd, 0);
  // A Progress frame is not a valid request.
  ASSERT_TRUE(write_frame(fd, {FrameType::Progress, "done=1\ntotal=2\n"}));
  const Frame reply = read_final(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  ::close(fd);
  server.shutdown(true);
}
