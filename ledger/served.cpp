// Workload `served`: an in-process serve::Server (2 campaign workers) with an
// embedded fabric coordinator and 2 in-process fabric::Workers over Unix
// sockets, driven by a closed loop of 2 client threads. Each client cycles
// a fixed rotation of small campaigns, so the daemon's framing, queueing,
// caches, shard fan-out and merge, and report rendering are a visible share
// of every answer. Two clients match the two workers: a third adds queue
// wait but no throughput, and at most 3 campaign threads compute at once
// (a local campaign plus a fanned-out one on the 2 fabric workers).

#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "exec/engine.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "ledger.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace ledger {

using namespace gpufi;

namespace {

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kFanOut = 2;  ///< fabric workers = spec.workers
constexpr int kClients = 2;
constexpr int kSetups = 9;  ///< set-up repetitions; setup_s is their median
constexpr std::size_t kSeedPool = 8;
/// Pool of the short probe a traced two_level run makes: its few seconds of
/// closed loop reach only the first pool seeds.
constexpr std::size_t kProbeSeedPool = 2;

/// The committed syndrome DB the sw_syndrome class replays (the served
/// workload only reads it; `two_level` is the one that writes a DB).
constexpr const char* kCommittedDb = "gpufi_data/syndromes.db";

enum class Cls { Rtl, RtlFan, RtlStuck, Tmxm, Sw, SwFan, SwSyndrome, Report };

struct ClassInfo {
  Cls cls;
  const char* name;
  const char* latency_metric;
};

/// The fixed rotation every client cycles (each client starts at its own
/// offset, so concurrent requests mix classes).
const std::vector<ClassInfo>& rotation() {
  static const std::vector<ClassInfo> r = {
      {Cls::Rtl, "rtl", "serve.answer_ms.rtl"},
      {Cls::RtlFan, "rtl_fan", "fabric.answer_ms.rtl"},
      {Cls::RtlStuck, "rtl_stuck", "serve.answer_ms.rtl_stuck"},
      {Cls::Tmxm, "tmxm", "serve.answer_ms.tmxm"},
      {Cls::Sw, "sw", "serve.answer_ms.sw"},
      {Cls::SwFan, "sw_fan", "fabric.answer_ms.sw"},
      {Cls::SwSyndrome, "sw_syndrome", "serve.answer_ms.sw_syndrome"},
      {Cls::Report, "report", "serve.answer_ms.report"},
  };
  return r;
}

/// A fanned-out class is the same spec as its in-daemon twin plus workers;
/// the twin names the payload reference and the seed family.
Cls twin(Cls c) {
  if (c == Cls::RtlFan) return Cls::Rtl;
  if (c == Cls::SwFan) return Cls::Sw;
  return c;
}

bool is_sw(Cls c) {
  return c == Cls::Sw || c == Cls::SwFan || c == Cls::SwSyndrome;
}

std::uint64_t pool_seed(std::uint64_t seed, Cls c, std::size_t k) {
  return 1 + rng_derive(seed, 0x5e, static_cast<unsigned>(twin(c)), k) %
                 1000000007ull;
}

/// The measured spec of class `c` with pool seed `k`. `trials` overrides
/// the trial count (0 = the measured size).
serve::CampaignSpec spec_for(Cls c, std::size_t k, std::uint64_t seed,
                             std::size_t trials = 0) {
  serve::CampaignSpec s;
  s.seed = pool_seed(seed, c, k);
  s.jobs = 1;
  switch (c) {
    case Cls::Rtl:
    case Cls::RtlFan:
    case Cls::Report:
      s.kind = serve::CampaignKind::Rtl;
      s.op = "FFMA";
      s.module = "fp32";
      s.range = "M";
      s.faults = 256;
      break;
    case Cls::RtlStuck:
      s.kind = serve::CampaignKind::Rtl;
      s.op = "IMAD";
      s.module = "sched";
      s.range = "M";
      s.fault_model = "stuck1";
      s.faults = 128;
      break;
    case Cls::Tmxm:
      s.kind = serve::CampaignKind::Tmxm;
      s.module = "sched";
      s.tile = "random";
      s.faults = 128;
      break;
    case Cls::Sw:
    case Cls::SwFan:
      s.kind = serve::CampaignKind::Sw;
      s.app = "lava";
      s.model = "bitflip";
      s.injections = 64;
      break;
    case Cls::SwSyndrome:
      s.kind = serve::CampaignKind::Sw;
      s.app = "quicksort";
      s.model = "syndrome";
      s.db_path = kCommittedDb;
      s.injections = 64;
      break;
  }
  if (c == Cls::RtlFan || c == Cls::SwFan) s.workers = kFanOut;
  if (trials != 0) {
    if (is_sw(c))
      s.injections = trials;
    else
      s.faults = trials;
  }
  return s;
}

std::size_t trials_of(const serve::CampaignSpec& s) {
  return s.kind == serve::CampaignKind::Sw ? s.injections : s.faults;
}

struct Answer {
  bool ok = false;
  std::string payload;
  std::string error;
};

Answer ask(const std::string& socket, Cls c, const serve::CampaignSpec& spec) {
  Answer a;
  if (c == Cls::Report) {
    const auto r = serve::query_report(socket, spec, {}, &a.error);
    a.ok = r.has_value();
    if (r) a.payload = *r;
  } else {
    const auto o = serve::submit_campaign(socket, spec);
    a.ok = o.ok;
    a.payload = o.result;
    a.error = o.error;
  }
  return a;
}

/// One daemon + fabric fleet; torn down in reverse order of start.
struct Daemon {
  std::string socket;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<fabric::Worker>> workers;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  void stop() {
    for (auto& w : workers) w->stop();
    workers.clear();
    if (server) server->shutdown(/*drain=*/true);
    server.reset();
  }
};

struct SetupTimes {
  double setup_s = 0, start_ms = 0, register_ms = 0, first_job_ms = 0;
};

/// Daemon start, fabric registration and cache fill: every distinct spec of
/// the first `pool` seeds that has a cache, submitted once at the smallest
/// trial count that reaches it (a fanned-out RTL spec at two chunks, so
/// both fabric workers build their golden context).
SetupTimes set_up(Daemon& d, const Options& opt, std::size_t pool, int rep,
                  Tally& tally) {
  SetupTimes t;
  Span setup("served.setup", Tracer::new_request());
  serve::ServerConfig cfg;
  cfg.socket_path = opt.work_dir + "/d" + std::to_string(rep) + ".sock";
  cfg.workers = kServerWorkers;
  cfg.fabric_listen = "unix:" + opt.work_dir + "/f" + std::to_string(rep) +
                      ".sock";
  d.socket = cfg.socket_path;
  {
    Span s("serve.Server.start");
    d.server = std::make_unique<serve::Server>(cfg);
    d.server->start();
    t.start_ms = s.ms();
  }
  {
    Span s("fabric.register");
    fabric::WorkerConfig wcfg;
    wcfg.coordinator = *fabric::parse_endpoint(cfg.fabric_listen);
    for (unsigned i = 0; i < kFanOut; ++i) {
      d.workers.push_back(std::make_unique<fabric::Worker>(wcfg));
      d.workers.back()->start();
    }
    tally.check(d.server->coordinator()->wait_for_workers(kFanOut, 10000),
                "fabric workers did not register");
    t.register_ms = s.ms();
  }
  const auto warm = [&](Cls c, std::size_t k, std::size_t trials) {
    const auto spec = spec_for(c, k, opt.seed, trials);
    const Answer a = ask(d.socket, c, spec);
    tally.check(a.ok, "warm-up submit failed: " + a.error);
  };
  {
    Span s("fabric.first_job");
    warm(Cls::RtlFan, 0, 2 * exec::chunk_size(1));
    t.first_job_ms = s.ms();
  }
  // The daemon caches golden contexts of rtl/tmxm specs and the syndrome DB;
  // sw bitflip specs and reports have no cache to fill.
  for (std::size_t k = 0; k < pool; ++k) {
    if (k > 0) warm(Cls::RtlFan, k, 2 * exec::chunk_size(1));
    for (Cls c : {Cls::Rtl, Cls::RtlStuck, Cls::Tmxm}) warm(c, k, 1);
  }
  warm(Cls::SwSyndrome, 0, 1);
  t.setup_s = setup.seconds();
  return t;
}

/// Median of a Prometheus histogram's increase between two scrapes, by
/// linear interpolation inside the bucket that holds the middle rank.
double histogram_median_ms(const std::string& before, const std::string& after,
                           const std::string& family) {
  const auto buckets = [&](const std::string& text) {
    std::vector<std::pair<double, double>> out;  // (le, cumulative)
    std::istringstream in(text);
    std::string line;
    const std::string prefix = family + "_bucket{le=\"";
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) != 0) continue;
      const auto q = line.find('"', prefix.size());
      const std::string le = line.substr(prefix.size(), q - prefix.size());
      const double bound = le == "+Inf" ? 1e300 : std::stod(le);
      out.emplace_back(bound, std::stod(line.substr(line.rfind(' ') + 1)));
    }
    return out;
  };
  const auto a = buckets(before), b = buckets(after);
  if (b.empty()) return 0.0;
  const double total = b.back().second - (a.empty() ? 0 : a.back().second);
  if (total <= 0) return 0.0;
  double prev_bound = 0, prev_cum = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double cum = b[i].second - (i < a.size() ? a[i].second : 0);
    if (cum >= total / 2) {
      const double in_bucket = cum - prev_cum;
      const double hi = b[i].first > 1e299 ? prev_bound : b[i].first;
      const double frac =
          in_bucket > 0 ? (total / 2 - prev_cum) / in_bucket : 0.0;
      return 1e3 * (prev_bound + frac * (hi - prev_bound));
    }
    prev_bound = b[i].first;
    prev_cum = cum;
  }
  return 1e3 * prev_bound;
}

}  // namespace

void run_served(const Options& opt, const Scale& scale, Report& out) {
  Tally& tally = out.tally;
  const std::size_t pool = scale.full ? kSeedPool : kProbeSeedPool;

  // ---- payload references, before any timing (outside setup_s) --------
  std::map<std::pair<Cls, std::size_t>, std::string> refs;
  for (std::size_t k = 0; k < pool; ++k) {
    for (const auto& info : rotation()) {
      if (twin(info.cls) != info.cls) continue;
      const auto spec = spec_for(info.cls, k, opt.seed);
      try {
        refs[{info.cls, k}] = info.cls == Cls::Report
                                  ? serve::run_report_offline(spec)
                                  : serve::run_spec_offline(spec);
      } catch (const std::exception& e) {
        tally.fail(std::string("offline reference threw: ") + e.what());
      }
      out.counts.add(std::string("served.payload_digest.") + info.name + "." +
                         std::to_string(k),
                     hex64(fnv1a(refs[{info.cls, k}])));
    }
  }
  for (const auto& info : rotation()) {
    const auto spec = spec_for(info.cls, 0, opt.seed);
    out.counts.add(std::string("served.trials.") + info.name, trials_of(spec));
    if (spec.workers > 0)
      out.counts.add(std::string("served.shards.") + info.name,
                     exec::plan_shards(trials_of(spec),
                                       spec.workers *
                                           fabric::CoordinatorConfig{}
                                               .shards_per_worker)
                         .size());
  }

  // ---- set-up; this daemon serves the closed loop ----------------------
  // The repetitions that make setup_s a median run after the loop, so the
  // serving phase's memory holds no discarded daemon.
  std::vector<SetupTimes> setups;
  Daemon daemon;
  {
    const std::uint64_t goldens_before =
        counter("gpufi_rtl_golden_builds_total");
    setups.push_back(set_up(daemon, opt, pool, 0, tally));
    out.counts.add("served.setup.gpufi_rtl_golden_builds_total",
                   counter("gpufi_rtl_golden_builds_total") - goldens_before);
  }

  // ---- closed loop -------------------------------------------------------
  struct Sample {
    Cls cls;
    double ms;
  };
  struct ClientLog {
    std::vector<Sample> samples;
    std::vector<double> rotation_ms, rotation_ms_traced, rotation_ms_untraced;
    std::size_t trials = 0;
    double elapsed_s = 0;
  };
  std::vector<ClientLog> logs(kClients);
  // Peak RSS covers the closed loop alone: one daemon and its fleet
  // serving. The offline references' freed heap goes back first.
  reset_peak_rss();
  const double rss_at_loop_start_mb = peak_rss_mb();
  const std::string metrics_before =
      serve::query_metrics(daemon.socket).value_or("");
  const bool trace_ab = opt.trace && scale.full;
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        const std::size_t n = rotation().size();
        const std::size_t offset = static_cast<std::size_t>(c) * 3 % n;
        std::size_t k = static_cast<std::size_t>(c) % pool;
        bool tamper = opt.tamper == "payload" && c == 0;
        try {
          for (int rot = 0; rot == 0 || seconds_since(t0) < scale.seconds;
               ++rot) {
            // The trace A/B runs each pool seed twice, recorded and not, and
            // alternates which goes first, so both arms see the same seeds.
            const bool untraced_rot =
                trace_ab && (rot % 2 == 1) != (rot / 2 % 2 == 1);
            Tracer::Pause pause(untraced_rot);
            Span rotation_span("served.rotation", Tracer::new_request());
            for (std::size_t r = 0; r < n; ++r) {
              const ClassInfo& info = rotation()[(offset + r) % n];
              const auto spec = spec_for(info.cls, k, opt.seed);
              Span req(std::string("serve.request.") + info.name,
                       Tracer::new_request());
              Answer a = ask(daemon.socket, info.cls, spec);
              const double ms = req.ms();
              if (tamper && a.ok && !a.payload.empty()) {
                a.payload[a.payload.size() / 2] ^= 1;
                tamper = false;
              }
              const auto& ref = refs.at({twin(info.cls), k});
              if (!a.ok)
                tally.fail(std::string(info.name) + " request failed: " +
                           a.error);
              else
                tally.check(a.payload == ref,
                            std::string(info.name) +
                                " payload differs from the offline reference");
              log.samples.push_back({info.cls, ms});
              log.trials += trials_of(spec);
            }
            const double ms = rotation_span.ms();
            log.rotation_ms.push_back(ms);
            (untraced_rot ? log.rotation_ms_untraced : log.rotation_ms_traced)
                .push_back(ms);
            if (!trace_ab || rot % 2 == 1) k = (k + 1) % pool;
          }
        } catch (const std::exception& e) {
          tally.fail(std::string("client threw: ") + e.what());
        }
        log.elapsed_s = seconds_since(t0);
      });
    }
    for (auto& t : clients) t.join();
  }

  // Throughput: the sum of each client's own trials/s, so the tail where
  // fewer clients are still finishing their last rotation adds no bias.
  double trials_per_s = 0;
  std::vector<double> rotation_ms, rot_traced, rot_untraced;
  std::map<Cls, std::vector<double>> by_class;
  for (const auto& log : logs) {
    trials_per_s += static_cast<double>(log.trials) / log.elapsed_s;
    rotation_ms.insert(rotation_ms.end(), log.rotation_ms.begin(),
                       log.rotation_ms.end());
    rot_traced.insert(rot_traced.end(), log.rotation_ms_traced.begin(),
                      log.rotation_ms_traced.end());
    rot_untraced.insert(rot_untraced.end(), log.rotation_ms_untraced.begin(),
                        log.rotation_ms_untraced.end());
    for (const auto& s : log.samples) by_class[s.cls].push_back(s.ms);
  }
  for (const auto& info : rotation())
    std::cout << "served class " << info.name
              << " n=" << by_class[info.cls].size()
              << " median_ms=" << median(by_class[info.cls]) << "\n";
  const double loop_peak_rss_mb = peak_rss_mb();
  std::cout << "served rotations=" << rotation_ms.size()
            << " rss_mb_at_loop_start=" << rss_at_loop_start_mb
            << " loop_peak_rss_mb=" << loop_peak_rss_mb << "\n";

  const serve::ServerStats stats = daemon.server->stats();
  const fabric::CoordinatorStats fstats =
      daemon.server->coordinator()->stats();
  tally.check(stats.failed == 0 && stats.rejected == 0,
              "daemon reports failed or rejected jobs");
  tally.check(fstats.shards_retried == 0 && fstats.shards_duplicate == 0,
              "fabric retried or duplicated shards");
  out.counts.add("served.fabric.shards_retried", fstats.shards_retried);
  out.counts.add("served.fabric.shards_duplicate", fstats.shards_duplicate);

  if (scale.full) {
    out.e2e.set("answer_ms", median(rotation_ms), "ms");
    out.e2e.set("trials_per_s", trials_per_s, "1/s");
    out.e2e.set("peak_rss_mb", loop_peak_rss_mb, "MB");
    if (trace_ab && !rot_untraced.empty()) {
      const double off = median(rot_untraced);
      out.layer.set("obs.trace_overhead_pct",
                    100.0 * (median(rot_traced) - off) / off, "%");
    }
  }

  // ---- per-layer metrics of the serving daemon and its fleet -----------
  if (opt.trace) {
    for (const auto& info : rotation())
      out.layer.set(info.latency_metric, median(by_class[info.cls]), "ms");
    out.layer.set("fabric.speedup.rtl",
                  median(by_class[Cls::Rtl]) / median(by_class[Cls::RtlFan]),
                  "x");
    out.layer.set("fabric.speedup.sw",
                  median(by_class[Cls::Sw]) / median(by_class[Cls::SwFan]),
                  "x");
    out.layer.set("fabric.shards_dispatched",
                  static_cast<double>(fstats.shards_dispatched), "count");
    out.layer.set("fabric.shards_retried",
                  static_cast<double>(fstats.shards_retried), "count");
    out.layer.set("fabric.shards_duplicate",
                  static_cast<double>(fstats.shards_duplicate), "count");
    const auto hits = stats.golden_cache.hits,
               misses = stats.golden_cache.misses;
    out.layer.set("serve.golden_cache_hit_frac",
                  hits + misses ? static_cast<double>(hits) / (hits + misses)
                                : 0.0,
                  "1");
    const std::string metrics_after =
        serve::query_metrics(daemon.socket).value_or("");
    out.layer.set("serve.queue_wait_ms",
                  histogram_median_ms(metrics_before, metrics_after,
                                      "gpufi_serve_queue_wait_seconds"),
                  "ms");
    bool status_ok = true;
    out.layer.set("serve.status_rtt_us",
                  time_per_call(
                      [&](std::size_t) {
                        Span s("serve.query_stats");
                        status_ok &=
                            serve::query_stats(daemon.socket).has_value();
                      },
                      10, 0.2, 1e6),
                  "us");
    tally.check(status_ok, "status query failed");
  }
  daemon.stop();

  // ---- the remaining set-up repetitions; setup_s is the median ---------
  for (int rep = 1; scale.full && rep < kSetups; ++rep) {
    Daemon d;
    setups.push_back(set_up(d, opt, pool, rep, tally));
  }
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return median(v);
  };
  std::cout << "served setups=" << setups.size() << "\n";
  if (scale.full) out.e2e.set("setup_s", med(&SetupTimes::setup_s), "s");
  if (!opt.trace) return;
  out.layer.set("serve.start_ms", med(&SetupTimes::start_ms), "ms");
  out.layer.set("fabric.register_ms", med(&SetupTimes::register_ms), "ms");
  out.layer.set("fabric.first_job_ms", med(&SetupTimes::first_job_ms), "ms");

  // Offline leg of the offline / served / fabric comparison: run_spec
  // in-process on warm caches, same spec as the served class.
  serve::Caches caches;
  for (Cls c : {Cls::Rtl, Cls::Sw}) {
    const auto spec = spec_for(c, 0, opt.seed);
    (void)serve::run_spec(spec, caches, {}, nullptr);  // warm
    const double offline = time_per_call(
        [&](std::size_t) {
          Span s("serve.run_spec");
          tally.check(serve::run_spec(spec, caches, {}, nullptr) ==
                          refs[{c, 0}],
                      "in-process run_spec differs from the reference");
        },
        1, 0.5, 1e3);
    const std::string suffix = c == Cls::Rtl ? "rtl" : "sw";
    out.layer.set("serve.offline_ms." + suffix, offline, "ms");
    out.layer.set("serve.overhead_ms." + suffix,
                  median(by_class[c]) - offline, "ms");
  }
}

}  // namespace ledger
