#pragma once

// gpufi-fabric worker: one process (or in-test thread) that connects to a
// coordinator, registers with a version handshake, and executes the
// trial-range shards it is assigned — each shard a pure function of
// (spec, seed, range), so the coordinator may re-run one anywhere after a
// loss. The worker keeps its own serve::Caches: the golden context of a
// workload is built once per worker and reused by every shard (and every
// campaign) that shares the key, and syndrome databases load once per
// path — the per-worker tier of the fabric's tiered caching.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "serve/cache.hpp"

namespace gpufi::fabric {

struct WorkerConfig {
  Endpoint coordinator;
  /// Display name in coordinator stats/metrics; empty = "worker-<pid>".
  std::string name;
  /// Liveness beacon period. Must be well under the coordinator's
  /// heartbeat timeout.
  std::uint64_t heartbeat_ms = 500;
  /// Version advertised in the Hello (tests override to provoke the
  /// mismatch rejection).
  std::uint32_t protocol_version = kFabricProtocolVersion;
  bool quiet = true;
  /// Fault-injection hook for the fabric's own tests: after completing
  /// this many shards the worker abruptly severs the connection (as a
  /// crashed process would) instead of sending more results. 0 = never.
  std::size_t fail_after_shards = 0;
};

class Worker {
 public:
  explicit Worker(WorkerConfig cfg);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Connects, performs the Hello handshake, and spawns the shard-executor
  /// and heartbeat threads. Throws std::runtime_error on connect failure
  /// or a coordinator rejection (e.g. protocol version mismatch — the
  /// coordinator's Error text is the exception message).
  void start();

  /// Blocks until the coordinator connection closes (coordinator shutdown
  /// or the fail_after_shards hook firing).
  void join();

  /// Severs the connection and joins the threads. Idempotent.
  void stop();

  bool connected() const { return connected_.load(); }
  std::size_t shards_done() const { return shards_done_.load(); }
  const WorkerConfig& config() const { return cfg_; }

 private:
  void run_loop();
  void heartbeat_loop();
  /// Executes one shard; returns its result payload: the lossless rtl
  /// partial for rtl and tmxm, the public payload of its range otherwise.
  std::string execute(const ShardRequest& req);
  bool send(serve::FrameType type, std::string payload);

  WorkerConfig cfg_;
  serve::Caches caches_;
  int fd_ = -1;
  std::mutex write_mutex_;  ///< results, progress and heartbeats interleave
  std::thread loop_;
  std::thread heartbeat_;
  std::atomic<bool> running_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::size_t> shards_done_{0};
};

}  // namespace gpufi::fabric
