#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpufi::exec {

/// Cooperative stop flag threaded through the campaign loops: `cancel()` (or
/// an expired deadline) makes `run_trials` skip every trial not yet started
/// and return the partial merge. Cancellation never tears a trial
/// mid-flight — completed trials are still byte-identical to an uncancelled
/// run's prefix. Safe to signal from any thread (e.g. a server noticing a
/// client disconnect) while a campaign is running.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms (or re-arms) an absolute deadline; trials started after it passes
  /// are skipped exactly like an explicit cancel().
  void set_deadline(std::chrono::steady_clock::time_point t) noexcept;
  /// Convenience: deadline `budget` from now.
  void set_deadline_after(std::chrono::nanoseconds budget) noexcept;
  bool expired() const noexcept;

  /// True once the token should stop work (cancelled or past deadline).
  bool stopped() const noexcept { return cancelled() || expired(); }

 private:
  std::atomic<bool> cancelled_{false};
  /// Deadline as steady-clock nanoseconds-since-epoch; 0 = unarmed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

/// Snapshot handed to the progress callback while a trial batch runs.
struct Progress {
  std::size_t done = 0;      ///< trials finished so far
  std::size_t total = 0;     ///< trials in the batch
  double per_second = 0.0;   ///< completed trials (= injections) per second
  double eta_seconds = 0.0;  ///< remaining / per_second (0 while warming up)
};

/// Invoked from worker threads, serialized and throttled by the engine; safe
/// to print from. The final call always reports done == total.
using ProgressFn = std::function<void(const Progress&)>;

/// One contiguous chunk-aligned trial range — the fabric's unit of
/// dispatch and retry (a pure function of (spec, seed, offset, count)).
struct TrialRange {
  std::size_t offset = 0;
  std::size_t count = 0;

  bool operator==(const TrialRange&) const = default;
};

/// Parameters shared by every campaign-shaped computation: how many
/// independent trials, which of them this batch runs, the campaign seed,
/// and how wide to run.
struct EngineConfig {
  std::size_t n_trials = 0;  ///< the campaign's total
  /// Distributed sharding (gpufi-fabric): run only the global trial indices
  /// [shard.offset, shard.offset + shard.count) of the n_trials-trial
  /// campaign; a count of 0 runs every trial. Chunking — and therefore
  /// per-chunk context reuse — is computed over n_trials, so a shard must
  /// start on a chunk boundary and end on one (or at n_trials); run_trials
  /// throws std::invalid_argument otherwise. Merging shard Results in
  /// offset order is then identical to the single-process chunk-order
  /// merge, byte for byte.
  TrialRange shard;
  std::uint64_t seed = 1;
  /// Worker threads; 0 resolves to ThreadPool::default_jobs() (the GPUFI_JOBS
  /// environment variable, else the hardware concurrency).
  unsigned jobs = 0;
  ProgressFn progress;  ///< optional; ~50 reports per batch
  /// Optional cooperative stop flag: once `stopped()`, no further trial
  /// starts and run_trials returns the merge of the trials already done.
  const CancelToken* cancel = nullptr;
};

/// Resolves the user-facing jobs knob against the batch width: 0 becomes
/// ThreadPool::default_jobs(), and the result is clamped to `n_units` so a
/// wide pool is never spun up for a narrow batch (jobs > trials spawns no
/// idle threads).
unsigned resolve_jobs(unsigned jobs, std::size_t n_units);

/// Trials are executed in contiguous index chunks; the chunk size is a
/// function of the trial count ONLY (never of `jobs`), so per-chunk worker
/// context (e.g. the rtl::Sm a chunk's trials share) sees the same trial
/// sequence whatever the parallelism — a prerequisite for the
/// bit-identical-across-jobs guarantee. The 16-trial floor amortizes
/// per-chunk work (a context, a metrics shard, a merge) and fixes the grid
/// that fabric shards split on.
std::size_t chunk_size(std::size_t n_trials);

/// Splits [0, n_trials) into at most `max_shards` contiguous ranges, each
/// aligned to chunk_size(n_trials) boundaries, balanced to within one chunk.
/// A pure function of its arguments — and because the chunk-order merge is
/// associative over chunk boundaries, ANY chunk-aligned partition merges to
/// the same bytes; the shard count only shapes fan-out granularity.
std::vector<TrialRange> plan_shards(std::size_t n_trials,
                                    std::size_t max_shards);

namespace detail {

/// Thread-safe throttled progress reporting: about 50 reports per batch,
/// and always the final done == total.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, const ProgressFn& fn);
  ~ProgressMeter();
  /// Records `n` finished trials, possibly firing the callback.
  void add(std::size_t n);

 private:
  struct State;
  State* state_;
};

/// Records why a batch stopped early (cancel vs deadline) as a counter and
/// trace event. No-op when the token is null or not stopped.
void note_stop(const CancelToken* cancel);

}  // namespace detail

/// The common shape of every fault-injection campaign in this codebase
/// ("golden run, then N independent trials, classify each, merge"): runs
/// the `cfg.shard` trials of a `cfg.n_trials`-trial campaign (all of them
/// when the shard is empty) and returns the merged Result.
///
/// Determinism contract — the returned Result is byte-identical for every
/// `jobs` value, because:
///  * trial `i` draws all randomness from `Rng(rng_derive(cfg.seed, i))`,
///    never from a shared stream;
///  * `make_context()` builds one worker context per chunk (chunking depends
///    only on n_trials), so context reuse is schedule-independent;
///  * every trial writes only to its chunk's Result shard, and shards are
///    merged in chunk-index order — i.e. records end up in trial order.
///
/// Result: default-constructible, with `merge(const Result&)` accumulating
/// counters commutatively and appending records in call order.
/// MakeContext: Context() — per-chunk worker state (simulator instance, ...).
/// Trial: void(Context&, std::size_t trial_index, Rng&, Result& shard).
///
/// Cancellation (`cfg.cancel`) is checked before each chunk and each trial;
/// a stopped token makes the remaining trials no-ops, so the returned Result
/// is the merge of a prefix-closed-per-chunk subset of trials. Callers that
/// care must test the token afterwards — a partial result is not flagged.
template <class Result, class MakeContext, class Trial>
Result run_trials(const EngineConfig& cfg, MakeContext&& make_context,
                  Trial&& trial) {
  Result merged{};
  // A shard chunks over the campaign total, so its chunks line up exactly
  // with the chunks the single-process run would have formed — the
  // alignment the byte-identical distributed merge rests on.
  const std::size_t total = cfg.n_trials;
  const std::size_t chunk = chunk_size(total);
  const TrialRange range =
      cfg.shard.count == 0 ? TrialRange{0, total} : cfg.shard;
  if (range.offset % chunk != 0)
    throw std::invalid_argument("shard offset not chunk-aligned");
  if (range.count > total || range.offset > total - range.count)
    throw std::invalid_argument("shard range exceeds n_trials");
  if (range.count % chunk != 0 && range.offset + range.count != total)
    throw std::invalid_argument(
        "shard must end on a chunk boundary or at n_trials");
  const std::size_t n = range.count;
  if (n == 0) return merged;
  obs::Span span("exec.run_trials");
  span.set("trials", static_cast<std::uint64_t>(n));
  const bool obs_on = obs::enabled();
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  std::vector<Result> shards(n_chunks);
  // One metrics shard per chunk, absorbed in chunk-index order below —
  // the same shape (and the same determinism argument) as the Result
  // shards. Observability reads trial timings but never writes anything a
  // trial can see, so Results are identical with obs on/off/compiled-out.
  std::vector<obs::Shard> obs_shards(obs_on ? n_chunks : 0);
  detail::ProgressMeter meter(n, cfg.progress);
  const CancelToken* cancel = cfg.cancel;
  ThreadPool pool(resolve_jobs(cfg.jobs, n_chunks));
  pool.run(n_chunks, [&](std::size_t c) {
    if (cancel && cancel->stopped()) return;
    obs::ScopedShard scoped(obs_on ? &obs_shards[c] : nullptr);
    auto context = make_context();
    Result& shard = shards[c];
    const std::size_t lo = range.offset + c * chunk;
    const std::size_t hi = std::min(range.offset + n, lo + chunk);
    std::size_t done = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (cancel && cancel->stopped()) break;
      Rng rng(rng_derive(cfg.seed, i));
      if (obs_on) {
        const auto t0 = std::chrono::steady_clock::now();
        trial(context, i, rng, shard);
        obs::observe("gpufi_exec_trial_seconds",
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
      } else {
        trial(context, i, rng, shard);
      }
      ++done;
      meter.add(1);
    }
    if (obs_on) {
      obs::count("gpufi_exec_trials_total", done);
      obs::count("gpufi_exec_chunks_total");
    }
  });
  for (auto& shard : shards) merged.merge(shard);
  for (const auto& s : obs_shards) obs::Registry::global().absorb(s);
  detail::note_stop(cancel);
  return merged;
}

/// Index-addressed fan-out for heterogeneous work (e.g. one task per RTL
/// characterization campaign): runs task(i) for i in [0, n) on `jobs`
/// workers and reports progress per finished task. Results should be written
/// to pre-sized slots so completion order cannot leak into the output.
void run_indexed(std::size_t n, unsigned jobs, const ProgressFn& progress,
                 const std::function<void(std::size_t)>& task);

}  // namespace gpufi::exec
