#include "exec/engine.hpp"

#include <chrono>
#include <mutex>

namespace gpufi::exec {

namespace {

std::int64_t steady_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

void CancelToken::set_deadline(std::chrono::steady_clock::time_point t) noexcept {
  // 0 means "unarmed", so a deadline that lands exactly on the epoch is
  // nudged forward one tick — indistinguishable in practice.
  const std::int64_t ns = steady_ns(t);
  deadline_ns_.store(ns == 0 ? 1 : ns, std::memory_order_relaxed);
}

void CancelToken::set_deadline_after(std::chrono::nanoseconds budget) noexcept {
  set_deadline(std::chrono::steady_clock::now() + budget);
}

bool CancelToken::expired() const noexcept {
  const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
  if (d == 0) return false;
  return steady_ns(std::chrono::steady_clock::now()) >= d;
}

unsigned resolve_jobs(unsigned jobs, std::size_t n_units) {
  if (jobs == 0) jobs = ThreadPool::default_jobs();
  if (n_units == 0) return 1;
  return static_cast<unsigned>(
      std::min<std::size_t>(jobs, n_units));
}

std::size_t chunk_size(std::size_t n_trials) {
  // Roughly 64 chunks per campaign so any realistic worker count load-balances
  // well, floored at 16 trials so per-chunk work (a worker context, a metrics
  // shard, a merge) amortizes. The grid is observable: the fabric splits
  // shards on it and the exec counters count it, so both bounds stay put
  // even for cheap contexts (an rtl::Sm builds in about a microsecond). Must
  // stay a pure function of the trial count: the jobs knob must never
  // influence which trials share a context.
  const std::size_t target = (n_trials + 63) / 64;
  return std::clamp<std::size_t>(target, 16, 256);
}

std::vector<TrialRange> plan_shards(std::size_t n_trials,
                                    std::size_t max_shards) {
  std::vector<TrialRange> out;
  if (n_trials == 0) return out;
  const std::size_t chunk = chunk_size(n_trials);
  const std::size_t n_chunks = (n_trials + chunk - 1) / chunk;
  const std::size_t n_shards =
      std::max<std::size_t>(1, std::min(max_shards, n_chunks));
  out.reserve(n_shards);
  // Distribute whole chunks round-robin-evenly: the first `rem` shards get
  // one extra chunk. The partition never splits a chunk, so every shard
  // starts (and, except the last, ends) on a chunk boundary.
  const std::size_t base = n_chunks / n_shards;
  const std::size_t rem = n_chunks % n_shards;
  std::size_t chunk_lo = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::size_t chunks_here = base + (s < rem ? 1 : 0);
    const std::size_t lo = chunk_lo * chunk;
    const std::size_t hi = std::min(n_trials, (chunk_lo + chunks_here) * chunk);
    out.push_back({lo, hi - lo});
    chunk_lo += chunks_here;
  }
  return out;
}

namespace detail {

struct ProgressMeter::State {
  std::mutex mutex;
  std::size_t total = 0;
  std::size_t done = 0;
  std::size_t next_report = 0;
  std::size_t step = 1;
  std::chrono::steady_clock::time_point start;
  ProgressFn fn;
};

ProgressMeter::ProgressMeter(std::size_t total, const ProgressFn& fn)
    : state_(nullptr) {
  if (!fn || total == 0) return;
  state_ = new State;
  state_->total = total;
  // ~50 reports per batch keeps terminal progress readable at any scale.
  state_->step = std::max<std::size_t>(1, total / 50);
  state_->next_report = state_->step;
  state_->start = std::chrono::steady_clock::now();
  state_->fn = fn;
}

ProgressMeter::~ProgressMeter() { delete state_; }

void ProgressMeter::add(std::size_t n) {
  if (!state_ || n == 0) return;
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->done += n;
  if (state_->done < state_->next_report && state_->done < state_->total)
    return;
  while (state_->next_report <= state_->done)
    state_->next_report += state_->step;
  Progress p;
  p.done = state_->done;
  p.total = state_->total;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state_->start)
          .count();
  if (elapsed > 0) {
    p.per_second = static_cast<double>(p.done) / elapsed;
    if (p.per_second > 0)
      p.eta_seconds = static_cast<double>(p.total - p.done) / p.per_second;
  }
  state_->fn(p);
}

void note_stop(const CancelToken* cancel) {
  if (!cancel || !cancel->stopped() || !obs::enabled()) return;
  // An explicit cancel wins the tie-break: it is the caller's intent even
  // when the deadline has also passed by the time we look.
  if (cancel->cancelled()) {
    obs::count("gpufi_exec_cancelled_total");
    obs::event("exec.cancelled");
  } else {
    obs::count("gpufi_exec_deadline_expired_total");
    obs::event("exec.deadline_expired");
  }
}

}  // namespace detail

void run_indexed(std::size_t n, unsigned jobs, const ProgressFn& progress,
                 const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  detail::ProgressMeter meter(n, progress);
  ThreadPool pool(resolve_jobs(jobs, n));
  pool.run(n, [&](std::size_t i) {
    task(i);
    meter.add(1);
  });
}

}  // namespace gpufi::exec
