#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/kv.hpp"
#include "core/gpufi.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "nn/gpu_infer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/queue.hpp"
#include "vocab/vocab.hpp"

namespace gpufi::serve {

namespace {

/// Internal control-flow signal for "the token stopped the campaign".
struct CancelledError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void throw_if_stopped(const exec::CancelToken* cancel) {
  if (cancel && cancel->stopped()) throw CancelledError("campaign cancelled");
}

/// Throws std::invalid_argument with `kind_error` unless `kind_ok`, and
/// with validate_spec's message unless the spec is sound.
void require_spec(const CampaignSpec& spec, bool kind_ok,
                  const char* kind_error) {
  if (!kind_ok) throw std::invalid_argument(kind_error);
  if (const auto err = validate_spec(spec)) throw std::invalid_argument(*err);
}

/// The sw engine config of a validated sw spec, syndrome-DB policy
/// included. `db` keeps the replayed database alive for cfg.db.
swfi::Config sw_config_for_spec(const CampaignSpec& spec, Caches& caches,
                                const exec::ProgressFn& progress,
                                const exec::CancelToken* cancel,
                                std::shared_ptr<const syndrome::Database>& db) {
  swfi::Config cfg;
  cfg.model = *vocab::parse_sw_model(spec.model);
  cfg.n_injections = spec.injections;
  cfg.seed = spec.seed;
  cfg.jobs = spec.jobs;
  cfg.progress = progress;
  cfg.cancel = cancel;
  db = syndrome_db_for_spec(spec, caches);
  throw_if_stopped(cancel);  // the shared build may outlive a deadline
  cfg.db = db.get();
  // Sticky replay images a permanently stuck datapath FF: sample the
  // stuck-at-1 syndrome class (transient fallback inside the database).
  if (cfg.model == swfi::FaultModel::StickyRelativeError)
    cfg.syndrome_model = rtl::FaultModel::StuckAt1;
  return cfg;
}

/// The rtl engine half of a validated rtl, tmxm or report spec.
struct RtlRun {
  rtlfi::Workload workload;
  rtlfi::CampaignConfig cc;  ///< a report sets module and seed per module
  std::shared_ptr<const rtlfi::GoldenContext> golden;
};

RtlRun rtl_run_for_spec(const CampaignSpec& spec, Caches& caches,
                        const exec::ProgressFn& progress,
                        const exec::CancelToken* cancel) {
  RtlRun run{spec.kind == CampaignKind::Tmxm
                 ? rtlfi::make_tmxm(*vocab::parse_tile(spec.tile), spec.seed)
                 : rtlfi::make_microbenchmark(*vocab::parse_opcode(spec.op),
                                              *vocab::parse_range(spec.range),
                                              spec.seed)};
  rtlfi::CampaignConfig& cc = run.cc;
  if (const auto module = vocab::parse_module(spec.module)) cc.module = *module;
  cc.n_faults = spec.faults;
  cc.seed = spec.seed;
  cc.jobs = spec.jobs;
  cc.fault_model = *vocab::parse_fault_model(spec.fault_model);
  cc.fault_duration = spec.fault_duration;
  cc.burst_period = spec.burst_period;
  cc.progress = progress;
  cc.cancel = cancel;
  // The golden half is keyed by workload identity (the name encodes
  // op/range or tile kind) and value seed; every runner prepares the same
  // traced golden, so nothing else enters the key, and an rtl campaign and
  // a report of the same op, range and seed share one golden.
  run.golden = caches.golden(
      run.workload.name + "/vseed=" + std::to_string(spec.seed),
      [&] { return rtlfi::prepare_golden(run.workload, cc); });
  return run;
}

}  // namespace

rtlfi::CampaignResult run_rtl_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::ProgressFn& progress,
                                   const exec::CancelToken* cancel,
                                   exec::TrialRange shard) {
  require_spec(spec,
               spec.kind == CampaignKind::Rtl ||
                   spec.kind == CampaignKind::Tmxm,
               "expected an rtl or tmxm campaign spec");
  RtlRun run = rtl_run_for_spec(spec, caches, progress, cancel);
  run.cc.shard_offset = shard.offset;
  run.cc.shard_count = shard.count;
  auto r = rtlfi::run_campaign(run.workload, run.cc, *run.golden);
  throw_if_stopped(cancel);
  return r;
}

attr::Report run_report_spec(const CampaignSpec& spec, Caches& caches,
                             const exec::ProgressFn& progress,
                             const exec::CancelToken* cancel) {
  require_spec(spec, spec.kind == CampaignKind::Report,
               "expected a report spec");
  RtlRun run = rtl_run_for_spec(spec, caches, {}, cancel);
  const auto one = vocab::parse_module(spec.module);  // nullopt: "all"
  const std::size_t n_modules = one ? 1 : rtl::kNumModules;
  std::vector<attr::CampaignSlice> slices;
  for (std::size_t k = 0; k < n_modules; ++k) {
    const rtl::Module m = one ? *one : static_cast<rtl::Module>(k);
    run.cc.module = m;
    // Per-module fault seed: a single-module report reproduces exactly
    // that module's slice of the all-module report.
    run.cc.seed = rng_derive(spec.seed, static_cast<std::uint64_t>(m));
    if (progress)
      run.cc.progress = [&, k](const exec::Progress& p) {
        exec::Progress all = p;
        all.done += k * spec.faults;
        all.total = n_modules * spec.faults;
        all.eta_seconds =
            p.per_second > 0
                ? static_cast<double>(all.total - all.done) / p.per_second
                : 0.0;
        progress(all);
      };
    auto r = rtlfi::run_campaign(run.workload, run.cc, *run.golden);
    throw_if_stopped(cancel);
    slices.push_back({std::string(rtl::module_name(m)),
                      std::move(r.attribution), r.injected});
  }
  return attr::build_report(run.workload.name, *run.golden->liveness, slices);
}

swfi::Result run_sw_spec(const CampaignSpec& spec, Caches& caches,
                         const exec::ProgressFn& progress,
                         const exec::CancelToken* cancel,
                         exec::TrialRange shard) {
  require_spec(spec, spec.kind == CampaignKind::Sw && spec.plan.empty(),
               "expected a sw campaign spec without a plan");
  std::shared_ptr<const syndrome::Database> db;
  auto cfg = sw_config_for_spec(spec, caches, progress, cancel, db);
  cfg.shard_offset = shard.offset;
  cfg.shard_count = shard.count;
  auto r = swfi::run_sw_campaign(vocab::make_app(spec.app).app, cfg);
  throw_if_stopped(cancel);
  return r;
}

swfi::PlanResult run_planned_sw_spec(const CampaignSpec& spec, Caches& caches,
                                     const exec::ProgressFn& progress,
                                     const exec::CancelToken* cancel) {
  require_spec(spec, spec.kind == CampaignKind::Sw && !spec.plan.empty(),
               "expected a sw campaign spec with a plan");
  std::shared_ptr<const syndrome::Database> db;
  const auto cfg = sw_config_for_spec(spec, caches, progress, cancel, db);
  auto r = swfi::run_planned_campaign(vocab::make_app(spec.app).app, cfg,
                                      *vocab::parse_plan(spec.plan));
  throw_if_stopped(cancel);
  return r;
}

nn::CnnCampaignResult run_cnn_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::ProgressFn& progress,
                                   const exec::CancelToken* cancel,
                                   exec::TrialRange shard) {
  require_spec(spec, spec.kind == CampaignKind::Cnn,
               "expected a cnn campaign spec");
  const auto db = syndrome_db_for_spec(spec, caches);
  const auto models = core::ensure_models(spec.models_dir);
  throw_if_stopped(cancel);
  exec::EngineConfig ec;
  ec.n_trials = spec.injections;
  ec.shard = shard;
  ec.seed = spec.seed;
  ec.jobs = spec.jobs;
  ec.progress = progress;
  ec.cancel = cancel;
  const bool lenet = spec.net == "lenet";
  auto r = nn::run_cnn_campaign(
      lenet ? models.lenet : models.yololite,
      lenet ? nn::CnnTask::Classification : nn::CnnTask::Detection,
      *vocab::parse_cnn_model(spec.model), db.get(), ec);
  throw_if_stopped(cancel);
  return r;
}

std::shared_ptr<const syndrome::Database> syndrome_db_for_spec(
    const CampaignSpec& spec, Caches& caches) {
  bool replays = false;
  if (spec.kind == CampaignKind::Sw) {
    const auto model = vocab::parse_sw_model(spec.model);
    replays = model == swfi::FaultModel::RelativeError ||
              model == swfi::FaultModel::WarpRelativeError ||
              model == swfi::FaultModel::StickyRelativeError;
  } else if (spec.kind == CampaignKind::Cnn) {
    replays = vocab::parse_cnn_model(spec.model) !=
              nn::CnnFaultModel::SingleBitFlip;
  }
  return replays ? caches.syndrome_db(spec.db_path, spec.jobs) : nullptr;
}

std::string run_spec(const CampaignSpec& spec, Caches& caches,
                     const exec::ProgressFn& progress,
                     const exec::CancelToken* cancel,
                     exec::TrialRange shard) {
  obs::Span span("serve.run_spec");
  span.set("kind", campaign_kind_name(spec.kind));
  switch (spec.kind) {
    case CampaignKind::Rtl:
    case CampaignKind::Tmxm:
      return serialize_campaign_result(
          spec, run_rtl_spec(spec, caches, progress, cancel, shard));
    case CampaignKind::Sw:
      if (!spec.plan.empty())
        return serialize_planned_sw_result(
            run_planned_sw_spec(spec, caches, progress, cancel));
      return serialize_sw_result(
          run_sw_spec(spec, caches, progress, cancel, shard));
    case CampaignKind::Cnn:
      return serialize_cnn_result(
          run_cnn_spec(spec, caches, progress, cancel, shard));
    case CampaignKind::Report:
      if (shard.count != 0)
        throw std::invalid_argument("a report does not shard");
      return attr::render_json(run_report_spec(spec, caches, progress, cancel));
  }
  throw std::logic_error("unreachable campaign kind");
}

std::string run_spec_offline(const CampaignSpec& spec) {
  Caches fresh;
  return run_spec(spec, fresh, {}, nullptr);
}

std::string run_report_offline(const CampaignSpec& spec) {
  if (spec.kind != CampaignKind::Rtl && spec.kind != CampaignKind::Report)
    throw std::invalid_argument(
        "attribution reports require an rtl campaign spec");
  CampaignSpec report = spec;
  report.kind = CampaignKind::Report;
  return run_spec_offline(report);
}

// ---------------------------------------------------------------------------
// Stats payload.
// ---------------------------------------------------------------------------

namespace {

/// The stats payload: each key names its ServerStats field once.
/// encode_stats writes them in this order; decode_stats reads them in any.
struct StatsField {
  std::string_view key;
  std::size_t& (*field)(ServerStats&);
};

constexpr StatsField kStatsFields[] = {
    {"accepted", [](ServerStats& s) -> auto& { return s.accepted; }},
    {"completed", [](ServerStats& s) -> auto& { return s.completed; }},
    {"failed", [](ServerStats& s) -> auto& { return s.failed; }},
    {"cancelled", [](ServerStats& s) -> auto& { return s.cancelled; }},
    {"rejected", [](ServerStats& s) -> auto& { return s.rejected; }},
    {"active", [](ServerStats& s) -> auto& { return s.active; }},
    {"queued", [](ServerStats& s) -> auto& { return s.queued; }},
    {"queue_capacity",
     [](ServerStats& s) -> auto& { return s.queue_capacity; }},
    {"workers", [](ServerStats& s) -> auto& { return s.workers; }},
    {"planner_early_stops",
     [](ServerStats& s) -> auto& { return s.planner_early_stops; }},
    {"db_cache_hits", [](ServerStats& s) -> auto& { return s.db_cache.hits; }},
    {"db_cache_misses",
     [](ServerStats& s) -> auto& { return s.db_cache.misses; }},
    {"golden_cache_hits",
     [](ServerStats& s) -> auto& { return s.golden_cache.hits; }},
    {"golden_cache_misses",
     [](ServerStats& s) -> auto& { return s.golden_cache.misses; }},
    {"fabric_workers_registered",
     [](ServerStats& s) -> auto& { return s.fabric_workers_registered; }},
    {"fabric_workers_alive",
     [](ServerStats& s) -> auto& { return s.fabric_workers_alive; }},
    {"fabric_shards_inflight",
     [](ServerStats& s) -> auto& { return s.fabric_shards_inflight; }},
    {"fabric_shards_retried",
     [](ServerStats& s) -> auto& { return s.fabric_shards_retried; }},
    {"fabric_shards_completed",
     [](ServerStats& s) -> auto& { return s.fabric_shards_completed; }},
};

}  // namespace

std::string encode_stats(const ServerStats& s) {
  ServerStats copy = s;
  std::string out;
  for (const auto& f : kStatsFields) kv::put_kv(out, f.key, f.field(copy));
  return out;
}

std::optional<ServerStats> decode_stats(std::string_view payload) {
  ServerStats s;
  const bool ok = kv::for_each_kv(
      payload, nullptr, [&](std::string_view key, std::string_view value) {
        for (const auto& f : kStatsFields)
          if (f.key == key) return kv::parse_number(value, f.field(s));
        return false;
      });
  if (!ok) return std::nullopt;
  return s;
}

// ---------------------------------------------------------------------------
// The daemon.
// ---------------------------------------------------------------------------

struct Server::Impl {
  explicit Impl(ServerConfig c)
      : cfg(std::move(c)), queue(cfg.queue_capacity) {}

  ServerConfig cfg;
  JobQueue queue;
  Caches caches;
  /// Embedded fabric coordinator (null when cfg.fabric_listen is empty).
  std::unique_ptr<fabric::Coordinator> fabric;

  int listen_fd = -1;
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::thread accept_thread;
  std::vector<std::thread> workers;

  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> cancelled{0};
  std::atomic<std::size_t> active{0};

  /// Tokens of currently-executing jobs (forced shutdown cancels them).
  std::mutex active_mutex;
  std::set<std::shared_ptr<exec::CancelToken>> active_tokens;

  void log(const char* fmt, ...) const;
  void accept_loop();
  void handle_connection(int fd);
  void worker_loop();
  void handle_job(Job job);
  /// Syncs the point-in-time gauges (queue depth, active jobs, pool shape)
  /// into the metric registry — called at scrape time, so a Metrics frame
  /// always reflects the live state.
  void refresh_gauges();
  void fill_stats(ServerStats& s) const;
};

void Server::Impl::refresh_gauges() {
  obs::set_gauge("gpufi_serve_queue_depth",
                 static_cast<std::int64_t>(queue.depth()));
  obs::set_gauge("gpufi_serve_queue_capacity",
                 static_cast<std::int64_t>(queue.capacity()));
  obs::set_gauge("gpufi_serve_active_jobs",
                 static_cast<std::int64_t>(active.load()));
  obs::set_gauge("gpufi_serve_workers",
                 static_cast<std::int64_t>(workers.size()));
  if (fabric) {
    // Fleet-wide aggregates so `gpufi stats --metrics` reflects the fabric
    // at scrape time.
    const auto fs = fabric->stats();
    obs::set_gauge("gpufi_fabric_workers_registered",
                   static_cast<std::int64_t>(fs.workers_registered));
    obs::set_gauge("gpufi_fabric_workers_alive",
                   static_cast<std::int64_t>(fs.workers_alive));
    obs::set_gauge("gpufi_fabric_shards_inflight",
                   static_cast<std::int64_t>(fs.shards_inflight));
    obs::set_gauge("gpufi_fabric_shards_pending",
                   static_cast<std::int64_t>(fs.shards_pending));
    obs::set_gauge("gpufi_fabric_shards_retried",
                   static_cast<std::int64_t>(fs.shards_retried));
  }
}

void Server::Impl::fill_stats(ServerStats& s) const {
  s.accepted = accepted;
  s.completed = completed;
  s.failed = failed;
  s.cancelled = cancelled;
  s.rejected = queue.rejected();
  s.active = active;
  s.queued = queue.depth();
  s.queue_capacity = queue.capacity();
  s.workers = workers.size();
  s.planner_early_stops = obs::Registry::global().counter_value(
      "gpufi_swfi_planner_early_stops_total");
  s.db_cache = caches.syndrome_db_stats();
  s.golden_cache = caches.golden_stats();
  if (fabric) {
    const auto fs = fabric->stats();
    s.fabric_workers_registered = fs.workers_registered;
    s.fabric_workers_alive = fs.workers_alive;
    s.fabric_shards_inflight = fs.shards_inflight;
    s.fabric_shards_retried = fs.shards_retried;
    s.fabric_shards_completed = fs.shards_completed;
  }
}

void Server::Impl::log(const char* fmt, ...) const {
  if (cfg.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::fputs("gpufi-serve: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

void Server::Impl::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (or fatal): stop accepting
    }
    // Bound the time a silent client can hold the accept thread.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    handle_connection(fd);
  }
}

void Server::Impl::handle_connection(int fd) {
  Frame req;
  const ReadStatus st = read_frame(fd, req);
  if (st != ReadStatus::Ok) {
    if (st != ReadStatus::Eof) {
      obs::count("gpufi_serve_bad_requests_total");
      write_frame(fd, {FrameType::Error, "malformed request frame"});
    }
    ::close(fd);
    return;
  }

  if (req.type == FrameType::MetricsRequest) {
    refresh_gauges();
    write_frame(fd,
                {FrameType::Metrics,
                 obs::Registry::global().render_prometheus()});
    ::close(fd);
    return;
  }

  if (req.type == FrameType::Status) {
    ServerStats s;
    fill_stats(s);
    write_frame(fd, {FrameType::Stats, encode_stats(s)});
    ::close(fd);
    return;
  }

  if (req.type != FrameType::Submit) {
    obs::count("gpufi_serve_bad_requests_total");
    write_frame(fd, {FrameType::Error,
                     "expected a Submit, Status or MetricsRequest frame"});
    ::close(fd);
    return;
  }

  std::string error;
  const auto spec = decode_spec(req.payload, &error);
  if (!spec) {
    ++failed;
    obs::count("gpufi_serve_jobs_failed_total");
    write_frame(fd, {FrameType::Error, "invalid campaign spec: " + error});
    ::close(fd);
    return;
  }

  Job job;
  job.id = next_id.fetch_add(1);
  job.spec = *spec;
  job.fd = fd;
  job.cancel = std::make_shared<exec::CancelToken>();
  const std::uint64_t deadline_ms =
      spec->deadline_ms != 0 ? spec->deadline_ms : cfg.default_deadline_ms;
  if (deadline_ms != 0)
    job.cancel->set_deadline_after(std::chrono::milliseconds(deadline_ms));
  job.enqueued_at = std::chrono::steady_clock::now();

  if (!queue.push(std::move(job))) {
    // Admission control: reject-with-backpressure instead of buffering.
    obs::count("gpufi_serve_jobs_rejected_total");
    write_frame(fd, {FrameType::Error,
                     "queue full (capacity " +
                         std::to_string(queue.capacity()) +
                         "): retry later"});
    ::close(fd);
    log("rejected job (queue full)");
    return;
  }
  ++accepted;
  obs::count("gpufi_serve_jobs_accepted_total");
  log("accepted %s job (queued %zu)",
      std::string(campaign_kind_name(spec->kind)).c_str(), queue.depth());
}

void Server::Impl::worker_loop() {
  while (auto job = queue.pop()) handle_job(std::move(*job));
}

void Server::Impl::handle_job(Job job) {
  ++active;
  {
    std::lock_guard<std::mutex> lock(active_mutex);
    active_tokens.insert(job.cancel);
  }
  const auto token = job.cancel;
  const int fd = job.fd;

  obs::observe("gpufi_serve_queue_wait_seconds",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             job.enqueued_at)
                   .count());
  obs::Span span("serve.request");
  span.set("kind", campaign_kind_name(job.spec.kind));
  span.set("id", job.id);

  // Progress streamer + disconnect detector: a client that closed its end
  // surfaces as recv()==0 (orderly FIN) or a failed frame write, either of
  // which cancels the trial loop cooperatively.
  const exec::ProgressFn progress = [fd, token](const exec::Progress& p) {
    char probe;
    const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (r == 0) {
      token->cancel();
      return;
    }
    if (!write_frame(fd, {FrameType::Progress, encode_progress(p)}))
      token->cancel();
  };

  try {
    throw_if_stopped(token.get());
    std::string payload;
    if (job.spec.workers > 0) {
      // Fabric fan-out: the coordinator shards the campaign over the
      // registered `gpufi worker` fleet and merges to the exact bytes the
      // in-process path below would have produced.
      if (!fabric)
        throw std::invalid_argument(
            "this daemon has no fabric: restart `gpufi serve` with "
            "--fabric ADDR, or resubmit without --workers");
      payload =
          fabric->run_job(job.spec, job.spec.workers, progress, token.get());
    } else {
      payload = run_spec(job.spec, caches, progress, token.get());
    }
    if (write_frame(fd, {FrameType::Result, payload})) {
      ++completed;
      obs::count("gpufi_serve_jobs_completed_total");
      log("job %llu done", static_cast<unsigned long long>(job.id));
    } else {
      ++cancelled;  // client vanished between the last trial and the result
      obs::count("gpufi_serve_jobs_cancelled_total");
    }
  } catch (const CancelledError&) {
    ++cancelled;
    obs::count("gpufi_serve_jobs_cancelled_total");
    const char* why = token->cancelled() ? "campaign cancelled"
                                         : "deadline exceeded";
    write_frame(fd, {FrameType::Error, why});
    log("job %llu %s", static_cast<unsigned long long>(job.id), why);
  } catch (const std::exception& e) {
    if (token->stopped()) {
      // A cancelled shared computation (e.g. DB build) may surface as a
      // generic exception; classify by the token, not the message.
      ++cancelled;
      obs::count("gpufi_serve_jobs_cancelled_total");
      write_frame(fd, {FrameType::Error, token->cancelled()
                                             ? "campaign cancelled"
                                             : "deadline exceeded"});
    } else {
      ++failed;
      obs::count("gpufi_serve_jobs_failed_total");
      write_frame(fd, {FrameType::Error,
                       std::string("campaign failed: ") + e.what()});
      log("job %llu failed: %s", static_cast<unsigned long long>(job.id),
          e.what());
    }
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(active_mutex);
    active_tokens.erase(token);
  }
  --active;
}

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Server::~Server() {
  if (impl_->started && !impl_->stopped) shutdown(false);
}

const ServerConfig& Server::config() const { return impl_->cfg; }

bool Server::running() const {
  return impl_->started && !impl_->stopped;
}

void Server::start() {
  if (impl_->started) throw std::logic_error("server already started");
  const std::string& path = impl_->cfg.socket_path;

  const int fd = fabric::listen_endpoint({.path = path}, 128);

  if (!impl_->cfg.fabric_listen.empty()) {
    const auto ep = fabric::parse_endpoint(impl_->cfg.fabric_listen);
    if (!ep) {
      ::close(fd);
      ::unlink(path.c_str());
      throw std::runtime_error("bad fabric listen address: " +
                               impl_->cfg.fabric_listen);
    }
    fabric::CoordinatorConfig fc;
    fc.listen = *ep;
    fc.quiet = impl_->cfg.quiet;
    impl_->fabric = std::make_unique<fabric::Coordinator>(fc);
    try {
      impl_->fabric->start();
    } catch (...) {
      impl_->fabric.reset();
      ::close(fd);
      ::unlink(path.c_str());
      throw;
    }
    impl_->log("fabric coordinator on %s", ep->describe().c_str());
  }

  impl_->listen_fd = fd;
  impl_->started = true;
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  const unsigned n = impl_->cfg.workers == 0 ? 1 : impl_->cfg.workers;
  impl_->workers.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  impl_->log("listening on %s (%u workers, queue capacity %zu)",
             path.c_str(), n, impl_->queue.capacity());
}

void Server::shutdown(bool drain) {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  impl_->log(drain ? "draining..." : "stopping...");

  // Wake the accept thread: shutdown() on a listening socket makes a
  // blocked accept() return immediately.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;

  if (!drain) {
    for (auto& job : impl_->queue.drain_pending()) {
      job.cancel->cancel();
      write_frame(job.fd, {FrameType::Error, "server shutting down"});
      ::close(job.fd);
      ++impl_->cancelled;
    }
    std::lock_guard<std::mutex> lock(impl_->active_mutex);
    for (const auto& token : impl_->active_tokens) token->cancel();
  }

  // Drain semantics: admitted jobs still run to completion; workers exit
  // once the queue is empty.
  impl_->queue.close();
  for (auto& w : impl_->workers) w.join();
  impl_->workers.clear();
  // Stop the fabric only after the executor pool drained: in-flight fabric
  // jobs finish their shards before the fleet is cut loose.
  if (impl_->fabric) impl_->fabric->stop();
  ::unlink(impl_->cfg.socket_path.c_str());
  impl_->log("stopped (completed %zu, failed %zu, cancelled %zu)",
             impl_->completed.load(), impl_->failed.load(),
             impl_->cancelled.load());
}

ServerStats Server::stats() const {
  ServerStats s;
  impl_->fill_stats(s);
  return s;
}

fabric::Coordinator* Server::coordinator() const {
  return impl_->fabric.get();
}

}  // namespace gpufi::serve
