#pragma once

// gpufi-serve: a long-running fault-injection campaign daemon.
//
// Lifecycle: Server::start() binds the Unix-domain socket and spawns one
// accept thread plus `workers` campaign workers. Each accepted connection
// submits one campaign spec; the accept thread applies admission control
// (bounded priority queue, reject-with-backpressure when full) and workers
// execute jobs with progress streamed back as frames. A client disconnect or
// an expired per-request deadline cancels the trial loop cooperatively via
// exec::CancelToken. shutdown(drain=true) — the SIGTERM path — stops
// accepting, finishes every admitted job, then tears down.
//
// Determinism contract: a served campaign's Result payload is byte-identical
// to run_spec_offline() of the same spec — queueing, worker count, cache
// sharing and progress streaming cannot change a single byte of the result.

#include <cstdint>
#include <memory>
#include <string>

#include "attr/attr.hpp"
#include "core/gpufi.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace gpufi::fabric {
class Coordinator;
}  // namespace gpufi::fabric

namespace gpufi::serve {

struct ServerConfig {
  std::string socket_path = kDefaultSocketPath;
  unsigned workers = 2;          ///< concurrent campaign executors
  std::size_t queue_capacity = 64;  ///< admitted-but-not-running bound
  /// Applied when a spec carries no deadline; 0 = unlimited.
  std::uint64_t default_deadline_ms = 0;
  /// Suppress stderr lifecycle logging (tests).
  bool quiet = true;
  /// gpufi-fabric coordinator listen address ("unix:PATH", "HOST:PORT" or
  /// "tcp:HOST:PORT"); empty disables the fabric, and submits asking for
  /// workers > 0 are then rejected with a clear error.
  std::string fabric_listen;
};

/// Point-in-time counters (the Stats frame payload).
struct ServerStats {
  std::size_t accepted = 0;   ///< jobs admitted to the queue
  std::size_t completed = 0;  ///< jobs that sent a Result frame
  std::size_t failed = 0;     ///< jobs that sent an Error frame
  std::size_t cancelled = 0;  ///< jobs aborted by disconnect/deadline/shutdown
  std::size_t rejected = 0;   ///< submissions bounced by admission control
  std::size_t active = 0;     ///< jobs currently executing
  std::size_t queued = 0;     ///< jobs waiting in the queue
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  /// Strata of planned campaigns whose PVF half-width reached target_err
  /// before the trial budget ran out, over the daemon's lifetime — read
  /// from the gpufi_swfi_planner_early_stops_total counter.
  std::size_t planner_early_stops = 0;
  CacheStats db_cache;
  CacheStats golden_cache;
  // Fabric fleet aggregates (all zero when the fabric is disabled).
  std::size_t fabric_workers_registered = 0;  ///< lifetime handshakes
  std::size_t fabric_workers_alive = 0;
  std::size_t fabric_shards_inflight = 0;
  std::size_t fabric_shards_retried = 0;
  std::size_t fabric_shards_completed = 0;
};

std::string encode_stats(const ServerStats& s);
std::optional<ServerStats> decode_stats(std::string_view payload);

// ---------------------------------------------------------------------------
// Spec runners: the one place a CampaignSpec becomes an engine config.
//
// Each runner validates the spec (std::invalid_argument when it is bad or of
// another kind), maps it onto the engine config, applies the syndrome-DB
// policy and runs the campaign on the calling thread, sharing `caches`.
// `shard` restricts a run to one fabric shard's trial range (the default
// runs every trial). A stopped `cancel` token makes a runner throw instead
// of returning a partial result. The daemon (run_spec), fabric workers and
// the CLI all run campaigns through these, so an offline, a served and a
// sharded campaign cannot drift apart.
// ---------------------------------------------------------------------------

/// rtl and tmxm campaigns. The golden half is shared through `caches`.
rtlfi::CampaignResult run_rtl_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::ProgressFn& progress,
                                   const exec::CancelToken* cancel,
                                   exec::TrialRange shard = {});

/// Fixed-trial sw campaigns (spec.plan empty).
swfi::Result run_sw_spec(const CampaignSpec& spec, Caches& caches,
                         const exec::ProgressFn& progress,
                         const exec::CancelToken* cancel,
                         exec::TrialRange shard = {});

/// Adaptive sw campaigns (spec.plan set). The planner's rounds are
/// sequential, so these never shard.
swfi::PlanResult run_planned_sw_spec(const CampaignSpec& spec, Caches& caches,
                                     const exec::ProgressFn& progress,
                                     const exec::CancelToken* cancel);

/// cnn campaigns.
nn::CnnCampaignResult run_cnn_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::ProgressFn& progress,
                                   const exec::CancelToken* cancel,
                                   exec::TrialRange shard = {});

/// The syndrome-DB policy: the database at spec.db_path for the sw models
/// that replay syndromes (syndrome, warp, sticky) and the cnn models that
/// sample it (syndrome, tmxm); null otherwise. Loads (or builds) it once
/// through `caches`.
std::shared_ptr<const syndrome::Database> syndrome_db_for_spec(
    const CampaignSpec& spec, Caches& caches);

/// Attribution reports: one rtl campaign per requested module (`module`
/// names one, or "all" runs the six in enum order), each with fault seed
/// rng_derive(seed, module), over the golden run_rtl_spec caches under the
/// same key, aggregated by attr::build_report. Progress counts trials over
/// modules x faults. A report runs whole: it never shards.
attr::Report run_report_spec(const CampaignSpec& spec, Caches& caches,
                             const exec::ProgressFn& progress,
                             const exec::CancelToken* cancel);

/// Runs one campaign spec through its runner and returns the deterministic
/// Result payload (a report's is attr::render_json). `progress`/`cancel`
/// may be empty/null. `shard` reaches the runners that take one (planned
/// sw runs whole; a report throws). Throws on failure, including when
/// `cancel` stopped the campaign.
std::string run_spec(const CampaignSpec& spec, Caches& caches,
                     const exec::ProgressFn& progress,
                     const exec::CancelToken* cancel,
                     exec::TrialRange shard = {});

/// The offline reference path: the same runners with fresh caches and no
/// hooks. The CLI runs the same runners, and the byte-identity tests
/// compare a served payload against this.
std::string run_spec_offline(const CampaignSpec& spec);

/// run_spec_offline of `spec` as a report: an rtl (or report) spec with
/// kind=report. Throws std::invalid_argument for the other kinds, whose
/// campaigns have no golden liveness timeline to attribute to.
std::string run_report_offline(const CampaignSpec& spec);

class Server {
 public:
  explicit Server(ServerConfig cfg);
  /// Stops without draining if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept/worker threads. Throws
  /// std::runtime_error on bind/listen failure.
  void start();

  /// Idempotent teardown. drain=true (SIGTERM): stop accepting, run every
  /// admitted job to completion, then join. drain=false: additionally
  /// cancel the active jobs and bounce the queued ones with an Error frame.
  void shutdown(bool drain);

  bool running() const;
  ServerStats stats() const;
  const ServerConfig& config() const;
  /// The embedded fabric coordinator; null when fabric_listen is empty.
  fabric::Coordinator* coordinator() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gpufi::serve
