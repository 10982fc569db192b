#pragma once

// gpufi-fabric coordinator: accepts worker registrations, splits each
// submitted campaign into chunk-aligned trial-range shards
// (exec::plan_shards), fans them out over the registered fleet, and merges
// the returned partials IN SHARD-INDEX ORDER — the same chunk-order merge
// exec::run_trials performs in-process, so the final Result payload is
// byte-identical to the offline single-process run for ANY worker count,
// retry history, or completion order.
//
// Failure model: a shard is a pure function of (spec, seed, range), so
//  * a DEAD worker (EOF, read error, heartbeat timeout) only costs the
//    re-execution of its in-flight shard — the coordinator requeues it
//    (at most 3 times) and the merged bytes cannot change;
//  * a shard that REPORTS an error (ShardError) failed deterministically —
//    a retry would fail identically, so the job fails immediately.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "serve/protocol.hpp"

namespace gpufi::fabric {

struct CoordinatorConfig {
  Endpoint listen;
  /// A worker whose connection stays silent this long (no result, no
  /// progress, no heartbeat) is declared dead and its in-flight shard
  /// requeued. Workers beacon every ~500ms, so this is many missed beats.
  std::uint64_t heartbeat_timeout_ms = 5000;
  /// Fan-out granularity: a job targeting W workers is split into up to
  /// W * this many shards, so a straggler costs 1/(W*k) of the campaign
  /// and retry loses proportionally little.
  unsigned shards_per_worker = 4;
  /// How long run_job waits for the first worker registration before
  /// failing the job.
  std::uint64_t worker_wait_ms = 10000;
  bool quiet = true;
};

struct CoordinatorStats {
  std::size_t workers_registered = 0;  ///< lifetime successful handshakes
  std::size_t workers_alive = 0;
  std::size_t workers_rejected = 0;  ///< version-mismatch handshakes
  std::size_t shards_dispatched = 0;
  std::size_t shards_completed = 0;
  std::size_t shards_retried = 0;    ///< requeued after a worker death
  std::size_t shards_duplicate = 0;  ///< late results dropped (already done)
  std::size_t shards_inflight = 0;
  std::size_t shards_pending = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorConfig cfg);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listen endpoint and spawns the accept + dispatch threads.
  void start();

  /// Severs every worker connection and joins all threads. Idempotent.
  void stop();

  /// Runs one campaign over the fleet and returns the SAME payload bytes
  /// run_spec_offline(spec) produces. Blocks until done; throws
  /// std::runtime_error on failure, and with message "campaign cancelled"
  /// when `cancel` stops the job. `max_workers` caps the fan-out
  /// (spec.workers; >= 1). Thread-safe — any number of concurrent jobs
  /// share the fleet.
  std::string run_job(const serve::CampaignSpec& spec, unsigned max_workers,
                      const exec::ProgressFn& progress,
                      const exec::CancelToken* cancel);

  /// Blocks until `n` workers are alive (tests); false on timeout.
  bool wait_for_workers(std::size_t n, std::uint64_t timeout_ms);

  CoordinatorStats stats() const;
  /// Port actually bound (TCP listen endpoints with port 0); 0 for unix.
  std::uint16_t port() const;
  const CoordinatorConfig& config() const { return cfg_; }

 private:
  struct Shard {
    std::uint64_t job = 0;
    std::uint32_t index = 0;
    std::uint32_t n_shards = 1;
    exec::TrialRange range;
    unsigned attempts = 0;
  };

  struct JobState {
    std::uint64_t id = 0;
    serve::CampaignSpec spec;
    std::size_t n_shards = 0;
    std::size_t completed = 0;
    std::vector<std::optional<std::string>> partials;
    bool failed = false;
    bool cancelled = false;
    std::string error;
    /// Per-shard trials-done high-water marks: progress survives a retry
    /// (the rerun's early frames never regress the job's done count).
    std::vector<std::uint64_t> shard_done;
    std::uint64_t total_trials = 0;
    exec::ProgressFn progress;
    std::chrono::steady_clock::time_point started;
    /// Serializes progress callbacks and enforces job-level monotonicity.
    std::mutex progress_mutex;
    std::size_t last_done_reported = 0;

    bool done() const { return failed || completed == n_shards; }
  };

  struct WorkerConn {
    int fd = -1;
    std::string name;
    std::uint64_t pid = 0;
    bool alive = false;
    std::optional<Shard> inflight;
    std::chrono::steady_clock::time_point dispatched_at;
  };

  void accept_loop();
  void session(int fd);
  void dispatch_loop();
  /// Marks `w` dead and requeues (or fails) its in-flight shard. Called
  /// with `mutex_` held.
  void worker_died(WorkerConn& w);
  /// Reports job progress from the shard high-water marks. Called with
  /// `mutex_` held; performs the callback outside it.
  void report_progress(const std::shared_ptr<JobState>& job,
                       std::unique_lock<std::mutex>& lock);
  void handle_result(ShardResultMsg msg, WorkerConn& w);
  void handle_error(const ShardErrorMsg& msg, WorkerConn& w);
  void handle_progress(const ShardProgressMsg& msg);
  std::string merge_job(JobState& job);
  void logf(const char* fmt, ...);

  CoordinatorConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::vector<std::thread> sessions_;
  std::mutex sessions_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  std::deque<Shard> pending_;
  std::map<std::uint64_t, std::shared_ptr<JobState>> jobs_;
  std::vector<std::unique_ptr<WorkerConn>> workers_;
  std::uint64_t next_job_ = 1;
  CoordinatorStats stats_;
};

}  // namespace gpufi::fabric
