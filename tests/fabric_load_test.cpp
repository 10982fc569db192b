// gpufi-fabric load test (ISSUE satellite): >= 1000 concurrent campaign
// submissions funneled through a fabric-enabled daemon against a 4-worker
// fleet. Every returned payload must equal the one offline reference
// byte for byte, no shard may be lost or double-counted, and every
// submission's progress stream must be monotonic. This is the contract
// under load: the coordinator queue cannot reorder, drop, or duplicate
// work no matter how many jobs contend for the fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace gpufi;

namespace {

constexpr std::size_t kClientThreads = 16;
constexpr std::size_t kSubmitsPerThread = 64;  // 16 * 64 = 1024 submits
constexpr std::size_t kFleetSize = 4;

/// Small but genuinely sharded: 32 faults = 2 chunks of 16, so every job
/// exercises a real fan-out/merge instead of the single-shard passthrough.
serve::CampaignSpec load_spec() {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Rtl;
  spec.op = "FFMA";
  spec.module = "fp32";
  spec.range = "M";
  spec.faults = 32;
  spec.seed = 7;
  spec.jobs = 1;
  spec.workers = kFleetSize;
  return spec;
}

}  // namespace

TEST(FabricLoad, ThousandSubmitsZeroLostOrDuplicatedShards) {
  serve::ServerConfig cfg;
  cfg.socket_path = "fabric_load.sock";
  cfg.workers = static_cast<unsigned>(kClientThreads);  // executor pool
  cfg.queue_capacity = kClientThreads * 2;
  cfg.fabric_listen = "unix:fabric_load_fab.sock";
  serve::Server server(cfg);
  server.start();

  std::vector<std::unique_ptr<fabric::Worker>> fleet;
  fabric::WorkerConfig wcfg;
  wcfg.coordinator = *fabric::parse_endpoint(cfg.fabric_listen);
  wcfg.heartbeat_ms = 100;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    wcfg.name = "load-w" + std::to_string(i);
    fleet.push_back(std::make_unique<fabric::Worker>(wcfg));
    fleet.back()->start();
  }
  ASSERT_TRUE(server.coordinator()->wait_for_workers(kFleetSize, 10'000));

  const auto spec = load_spec();
  const std::string reference = serve::run_spec_offline(spec);

  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> byte_mismatches{0};
  std::atomic<std::size_t> progress_regressions{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kSubmitsPerThread; ++i) {
        // Per-submit monotonicity: the client thread owns this counter, so
        // no lock is needed — frames of one session arrive in order.
        std::size_t last_done = 0;
        bool monotonic = true;
        const auto outcome = serve::submit_campaign(
            cfg.socket_path, spec, [&](const exec::Progress& p) {
              if (p.done < last_done) monotonic = false;
              last_done = p.done;
            });
        if (!outcome.ok) {
          ++failures;
          continue;
        }
        if (!monotonic) ++progress_regressions;
        if (outcome.result != reference)
          ++byte_mismatches;
        else
          ++ok;
      }
    });
  }
  for (auto& c : clients) c.join();

  const std::size_t total = kClientThreads * kSubmitsPerThread;
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(byte_mismatches.load(), 0u) << "a merged payload drifted";
  EXPECT_EQ(progress_regressions.load(), 0u) << "progress went backwards";
  EXPECT_EQ(ok.load(), total);

  // Shard accounting must balance exactly: with no worker deaths, every
  // dispatched shard completed once — none lost, none duplicated.
  const auto cs = server.coordinator()->stats();
  EXPECT_EQ(cs.jobs_completed, total);
  EXPECT_EQ(cs.jobs_failed, 0u);
  EXPECT_EQ(cs.shards_retried, 0u);
  EXPECT_EQ(cs.shards_duplicate, 0u);
  EXPECT_EQ(cs.shards_completed, cs.shards_dispatched);
  EXPECT_EQ(cs.shards_inflight, 0u);
  EXPECT_EQ(cs.shards_pending, 0u);
  // 32 faults = 2 chunks: every job fans out into exactly 2 shards.
  EXPECT_EQ(cs.shards_completed, total * 2);

  // The server counts a job completed only after its Result frame is sent,
  // so a client can return before the count moves: read it once the
  // drained shutdown has joined every executor.
  for (auto& w : fleet) w->stop();
  server.shutdown(/*drain=*/true);
  const auto ss = server.stats();
  EXPECT_EQ(ss.completed, total);
  EXPECT_EQ(ss.failed, 0u);
}
