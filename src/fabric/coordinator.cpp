#include "fabric/coordinator.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpufi::fabric {

namespace {

/// A shard lost more than this many times fails its job (a fleet that keeps
/// crashing on one range is a deployment problem, not a retry problem).
constexpr unsigned kMaxShardRetries = 3;

void set_recv_timeout(int fd, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Decodes every shard's partial and merges them IN SHARD-INDEX (== chunk-
/// index) ORDER — the distributed image of run_trials' epilogue.
template <class Result, class Decode>
Result merge_partials(const std::vector<std::optional<std::string>>& partials,
                      Decode decode) {
  Result merged;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    std::string err;
    const auto part = decode(*partials[i], &err);
    if (!part)
      throw std::runtime_error("corrupt shard " + std::to_string(i) +
                               " partial: " + err);
    merged.merge(*part);
  }
  return merged;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig cfg) : cfg_(std::move(cfg)) {}

Coordinator::~Coordinator() { stop(); }

void Coordinator::logf(const char* fmt, ...) {
  if (cfg_.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "gpufi-fabric: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

void Coordinator::start() {
  listen_fd_ = listen_endpoint(cfg_.listen);
  port_ = local_port(listen_fd_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = true;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  logf("listening on %s", cfg_.listen.describe().c_str());
}

void Coordinator::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!running_ && listen_fd_ < 0) return;
    running_ = false;
    for (auto& w : workers_)
      if (w->alive) ::shutdown(w->fd, SHUT_RDWR);
    // Unblock every waiting run_job with a terminal error.
    for (auto& [id, job] : jobs_) {
      if (!job->done()) {
        job->failed = true;
        job->error = "coordinator stopped";
      }
    }
    cv_.notify_all();
  }
  if (listen_fd_ >= 0) {
    // Wake the accept loop; the fd value itself is still read by that
    // thread, so it is only reset after the join below.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (cfg_.listen.kind == Endpoint::Kind::Unix)
      ::unlink(cfg_.listen.path.c_str());
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  listen_fd_ = -1;
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& t : sessions)
    if (t.joinable()) t.join();
}

std::uint16_t Coordinator::port() const { return port_; }

CoordinatorStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CoordinatorStats s = stats_;
  s.shards_pending = pending_.size();
  s.shards_inflight = 0;
  s.workers_alive = 0;
  for (const auto& w : workers_) {
    if (w->alive) ++s.workers_alive;
    if (w->inflight) ++s.shards_inflight;
  }
  return s;
}

bool Coordinator::wait_for_workers(std::size_t n, std::uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    std::size_t alive = 0;
    for (const auto& w : workers_)
      if (w->alive) ++alive;
    return alive >= n || !running_;
  });
}

// ---------------------------------------------------------------------------
// Accept / session threads.
// ---------------------------------------------------------------------------

void Coordinator::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!running_) return;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!running_) {
        ::close(fd);
        return;
      }
    }
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.emplace_back([this, fd] { session(fd); });
  }
}

void Coordinator::session(int fd) {
  // The read timeout doubles as the liveness check: a worker that sends
  // nothing — not even a heartbeat — for the whole window is dead.
  set_recv_timeout(fd, cfg_.heartbeat_timeout_ms);

  serve::Frame frame;
  if (serve::read_frame(fd, frame) != serve::ReadStatus::Ok ||
      frame.type != serve::FrameType::Hello) {
    ::close(fd);
    return;
  }
  const auto hello = decode_hello(frame.payload);
  if (!hello) {
    ::close(fd);
    return;
  }
  if (hello->version != kFabricProtocolVersion) {
    // Satellite hardening: a mismatched worker binary gets a clear,
    // actionable rejection instead of a framing failure mid-campaign.
    std::string msg = "fabric protocol version mismatch: coordinator speaks v" +
                      std::to_string(kFabricProtocolVersion) + ", worker '" +
                      hello->name + "' speaks v" +
                      std::to_string(hello->version) +
                      " — rebuild or redeploy the worker binary";
    logf("rejecting %s: %s", hello->name.c_str(), msg.c_str());
    // Count BEFORE the reply: the rejected worker observes the error the
    // moment the frame lands, and by then the stat must already be there.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.workers_rejected;
    }
    obs::count("gpufi_fabric_workers_rejected_total");
    serve::write_frame(fd, {serve::FrameType::Error, std::move(msg)});
    ::close(fd);
    return;
  }
  if (!serve::write_frame(fd, {serve::FrameType::HelloAck, {}})) {
    ::close(fd);
    return;
  }

  WorkerConn* w = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto conn = std::make_unique<WorkerConn>();
    conn->fd = fd;
    conn->name = hello->name;
    conn->pid = hello->pid;
    conn->alive = true;
    w = conn.get();
    workers_.push_back(std::move(conn));
    ++stats_.workers_registered;
    cv_.notify_all();
  }
  obs::count("gpufi_fabric_workers_registered_total");
  logf("worker %s (pid %llu) registered", w->name.c_str(),
       static_cast<unsigned long long>(w->pid));

  for (;;) {
    if (serve::read_frame(fd, frame) != serve::ReadStatus::Ok) break;
    switch (frame.type) {
      case serve::FrameType::Heartbeat:
        break;  // any frame refreshes liveness via the read timeout
      case serve::FrameType::ShardResult:
        if (auto msg = decode_shard_result(frame.payload))
          handle_result(std::move(*msg), *w);
        break;
      case serve::FrameType::ShardError:
        if (const auto msg = decode_shard_error(frame.payload))
          handle_error(*msg, *w);
        break;
      case serve::FrameType::ShardProgress:
        if (const auto msg = decode_shard_progress(frame.payload))
          handle_progress(*msg);
        break;
      default:
        break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    worker_died(*w);
  }
  ::close(fd);
}

void Coordinator::worker_died(WorkerConn& w) {
  if (!w.alive) return;
  w.alive = false;
  logf("worker %s died", w.name.c_str());
  if (w.inflight) {
    Shard shard = *w.inflight;
    w.inflight.reset();
    const auto it = jobs_.find(shard.job);
    if (it != jobs_.end() && !it->second->done()) {
      ++shard.attempts;
      if (shard.attempts > kMaxShardRetries) {
        it->second->failed = true;
        it->second->error =
            "shard " + std::to_string(shard.index) + " lost " +
            std::to_string(shard.attempts) +
            " times to worker failures; giving up";
      } else {
        // Shards are pure functions of (spec, seed, range): rerunning one
        // anywhere yields the same bytes, so retry is always merge-safe.
        ++stats_.shards_retried;
        obs::count("gpufi_fabric_shards_retried_total");
        pending_.push_front(shard);
      }
    }
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void Coordinator::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_) {
    // Assign pending shards to idle alive workers, FIFO.
    bool assigned = true;
    while (assigned && !pending_.empty()) {
      assigned = false;
      for (auto& wp : workers_) {
        WorkerConn& w = *wp;
        if (!w.alive || w.inflight || pending_.empty()) continue;
        Shard shard = pending_.front();
        pending_.pop_front();
        const auto it = jobs_.find(shard.job);
        if (it == jobs_.end()) continue;  // job cancelled after queueing
        ShardRequest req;
        req.job = shard.job;
        req.shard_index = shard.index;
        req.n_shards = shard.n_shards;
        req.range = shard.range;
        req.spec = it->second->spec;
        w.inflight = shard;
        w.dispatched_at = std::chrono::steady_clock::now();
        ++stats_.shards_dispatched;
        obs::count("gpufi_fabric_shards_dispatched_total");
        if (!serve::write_frame(
                w.fd, {serve::FrameType::ShardRequest,
                       encode_shard_request(req)})) {
          // The connection is gone; the session thread will also notice,
          // but requeue NOW so the shard never sits on a dead worker.
          ::shutdown(w.fd, SHUT_RDWR);
          worker_died(w);
          continue;
        }
        assigned = true;
      }
      if (!assigned) break;
    }
    cv_.wait_for(lock, std::chrono::milliseconds(200));
  }
}

// ---------------------------------------------------------------------------
// Worker frame handlers (called from session threads).
// ---------------------------------------------------------------------------

void Coordinator::handle_result(ShardResultMsg msg, WorkerConn& w) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!w.inflight || w.inflight->job != msg.job ||
      w.inflight->index != msg.shard_index) {
    ++stats_.shards_duplicate;
    obs::count("gpufi_fabric_shards_duplicate_total");
    return;
  }
  const Shard shard = *w.inflight;
  w.inflight.reset();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    w.dispatched_at)
          .count();
  const auto it = jobs_.find(msg.job);
  if (it == jobs_.end() || it->second->partials[shard.index].has_value()) {
    ++stats_.shards_duplicate;
    obs::count("gpufi_fabric_shards_duplicate_total");
    cv_.notify_all();
    return;
  }
  auto job = it->second;
  job->partials[shard.index] = std::move(msg.payload);
  ++job->completed;
  job->shard_done[shard.index] =
      std::max(job->shard_done[shard.index], shard.range.count);
  ++stats_.shards_completed;
  obs::count("gpufi_fabric_shards_completed_total");
  obs::count(obs::label("gpufi_fabric_worker_shards_completed_total", "worker",
                        w.name));
  obs::observe("gpufi_fabric_shard_seconds", seconds);
  cv_.notify_all();
  if (!job->done()) report_progress(job, lock);
}

void Coordinator::handle_error(const ShardErrorMsg& msg, WorkerConn& w) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (w.inflight && w.inflight->job == msg.job &&
      w.inflight->index == msg.shard_index)
    w.inflight.reset();
  const auto it = jobs_.find(msg.job);
  if (it == jobs_.end() || it->second->done()) return;
  // Deterministic failure: the same shard would fail the same way on any
  // worker, so retrying would only burn the fleet.
  it->second->failed = true;
  it->second->error = msg.error;
  cv_.notify_all();
}

void Coordinator::handle_progress(const ShardProgressMsg& msg) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(msg.job);
  if (it == jobs_.end() || msg.shard_index >= it->second->n_shards) return;
  auto job = it->second;
  // High-water mark: a retried shard's rerun restarts at 0, but the job's
  // done count must never regress.
  job->shard_done[msg.shard_index] =
      std::max(job->shard_done[msg.shard_index], msg.done);
  if (job->n_shards == 1) job->total_trials = std::max(job->total_trials,
                                                       msg.total);
  report_progress(job, lock);
}

void Coordinator::report_progress(const std::shared_ptr<JobState>& job,
                                  std::unique_lock<std::mutex>& lock) {
  std::uint64_t done = 0;
  for (const auto d : job->shard_done) done += d;
  const std::uint64_t total = job->total_trials;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job->started)
          .count();
  // The callback may write to a (possibly slow) client socket: never hold
  // the coordinator lock across it. The per-job progress mutex both
  // serializes concurrent reporters and enforces monotonicity.
  lock.unlock();
  {
    std::lock_guard<std::mutex> plock(job->progress_mutex);
    // run_job detaches the callback before it returns (see there).
    if (job->progress && done >= job->last_done_reported) {
      job->last_done_reported = done;
      exec::Progress p;
      p.done = done;
      p.total = total;
      p.per_second = elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;
      p.eta_seconds = p.per_second > 0 && total > done
                          ? static_cast<double>(total - done) / p.per_second
                          : 0.0;
      job->progress(p);
    }
  }
  lock.lock();
}

// ---------------------------------------------------------------------------
// Job submission.
// ---------------------------------------------------------------------------

std::string Coordinator::run_job(const serve::CampaignSpec& spec,
                                 unsigned max_workers,
                                 const exec::ProgressFn& progress,
                                 const exec::CancelToken* cancel) {
  obs::Span span("fabric.run_job");
  span.set("kind", serve::campaign_kind_name(spec.kind));

  // Shard plan: chunk-aligned trial ranges. An adaptive sw campaign
  // (spec.plan) is sequential — the planner sizes each round from the
  // last — and a zero-trial campaign has no chunk to split; each runs as
  // ONE range.
  const bool rtl_like = spec.kind == serve::CampaignKind::Rtl ||
                        spec.kind == serve::CampaignKind::Tmxm;
  const std::size_t n_trials = rtl_like ? spec.faults : spec.injections;
  std::vector<exec::TrialRange> ranges;
  if (spec.plan.empty())
    ranges = exec::plan_shards(
        n_trials, static_cast<std::size_t>(std::max(1u, max_workers)) *
                      std::max(1u, cfg_.shards_per_worker));
  const bool one_range = ranges.empty();
  if (one_range) ranges.push_back({0, n_trials});

  std::shared_ptr<JobState> job;
  std::uint64_t id = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!running_) throw std::runtime_error("fabric coordinator not running");
    // A fleet of zero can never finish a shard; give registration a beat.
    const bool have_worker = cv_.wait_for(
        lock, std::chrono::milliseconds(cfg_.worker_wait_ms), [&] {
          if (!running_) return true;
          return std::any_of(workers_.begin(), workers_.end(),
                             [](const auto& w) { return w->alive; });
        });
    if (!running_) throw std::runtime_error("fabric coordinator not running");
    if (!have_worker)
      throw std::runtime_error(
          "no fabric workers registered — start `gpufi worker` processes "
          "pointing at " +
          cfg_.listen.describe());

    id = next_job_++;
    job = std::make_shared<JobState>();
    job->id = id;
    job->spec = spec;
    job->n_shards = ranges.size();
    job->partials.resize(ranges.size());
    job->shard_done.assign(ranges.size(), 0);
    job->total_trials = one_range ? 0 : n_trials;
    job->progress = progress;
    job->started = std::chrono::steady_clock::now();
    jobs_.emplace(id, job);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      Shard shard;
      shard.job = id;
      shard.index = static_cast<std::uint32_t>(i);
      shard.n_shards = static_cast<std::uint32_t>(ranges.size());
      shard.range = ranges[i];
      pending_.push_back(shard);
    }
    cv_.notify_all();

    while (!job->done()) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (cancel && cancel->stopped() && !job->done()) {
        job->cancelled = true;
        std::erase_if(pending_,
                      [&](const Shard& s) { return s.job == id; });
        break;
      }
    }
    jobs_.erase(id);
    if (job->failed) {
      ++stats_.jobs_failed;
      obs::count("gpufi_fabric_jobs_failed_total");
    }
  }
  // The caller answers and closes its client connection once run_job
  // returns: detach the callback, so a reporter that summed the shard counts
  // before the last result landed cannot write into a reused descriptor.
  {
    std::lock_guard<std::mutex> plock(job->progress_mutex);
    job->progress = nullptr;
  }
  if (job->cancelled) throw std::runtime_error("campaign cancelled");
  if (job->failed) throw std::runtime_error(job->error);
  // Merge outside the lock: decoding partials is CPU work no other
  // session/dispatch step should wait on.
  std::string payload = merge_job(*job);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_completed;
  }
  obs::count("gpufi_fabric_jobs_completed_total");
  return payload;
}

std::string Coordinator::merge_job(JobState& job) {
  // A planned campaign's one range already carries the public payload.
  if (!job.spec.plan.empty()) return *job.partials[0];
  // Otherwise apply the same public serialization the offline path applies
  // to the exact in-memory result the shards reassemble.
  if (job.spec.kind == serve::CampaignKind::Sw)
    return serve::serialize_sw_result(
        merge_partials<swfi::Result>(job.partials, serve::decode_sw_result));
  if (job.spec.kind == serve::CampaignKind::Cnn)
    return serve::serialize_cnn_result(merge_partials<nn::CnnCampaignResult>(
        job.partials, serve::decode_cnn_result));
  return serve::serialize_campaign_result(
      job.spec, merge_partials<rtlfi::CampaignResult>(job.partials,
                                                      decode_rtl_partial));
}

}  // namespace gpufi::fabric
