// gpufi — command-line driver for the two-level fault-injection framework.
//
//   gpufi modules                         list RTL fault targets (Table I)
//   gpufi rtl <op> <module> [options]     one RTL campaign on a micro-benchmark
//   gpufi tmxm <site> [options]           t-MxM characterization campaign
//   gpufi build-db <path> [options]       full RTL characterization -> database
//   gpufi sw <app> <model> [options]      software campaign on an HPC app
//   gpufi cnn <net> <model> [options]     CNN campaign with criticality split
//   gpufi report <op> [module|all] ...    cross-layer attribution report
//   gpufi serve [options]                 campaign daemon on a Unix socket
//   gpufi worker --connect ADDR           fabric shard executor process
//   gpufi submit <kind> ...               run a campaign or a report through
//                                         the daemon (rtl|tmxm|sw|cnn|report)
//   gpufi status [--socket PATH]          daemon queue/cache counters
//   gpufi stats --metrics                 daemon Prometheus metrics scrape
//
// Common options: --faults N / --injections N, --seed S, --db PATH,
// --jobs N (0 = GPUFI_JOBS env or all hardware threads; results are
// byte-identical whatever the value), --trace-out FILE (JSONL span/event
// trace).
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/kv.hpp"
#include "core/gpufi.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "nn/gpu_infer.hpp"
#include "obs/trace.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "swfi/planner.hpp"
#include "swfi/swfi.hpp"
#include "syndrome/syndrome.hpp"
#include "vocab/vocab.hpp"

using namespace gpufi;

namespace {

int usage() {
  std::puts(
      "usage:\n"
      "  gpufi modules\n"
      "  gpufi rtl <FADD|FMUL|FFMA|IADD|IMUL|IMAD|FSIN|FEXP|GLD|GST|BRA|"
      "ISETP> <fp32|int|sfu|sfuctl|sched|pipe> [--range S|M|L] [--faults N] "
      "[--seed S]\n"
      "  gpufi tmxm <sched|pipe> [--tile max|zero|random] [--faults N]\n"
      "  gpufi build-db <path> [--faults N] "
      "[--fault-model transient[,stuck0,...]]\n"
      "  gpufi sw <mxm|gaussian|lud|hotspot|lava|quicksort> "
      "<bitflip|doublebit|syndrome|warp|sticky> [--injections N] "
      "[--db PATH] [--plan target_err=X[,min_trials=N][,max_trials=N]]\n"
      "  gpufi cnn <lenet|yolo> <bitflip|syndrome|tmxm> [--injections N] "
      "[--db PATH] [--models DIR]\n"
      "  gpufi report <op> [<module>|all] [--range S|M|L] [--faults N] "
      "[--seed S] [--json] [--out FILE] [--socket PATH]\n"
      "  gpufi serve [--socket PATH] [--workers N] [--queue N] "
      "[--deadline MS] [--fabric ADDR]\n"
      "  gpufi worker --connect ADDR [--name NAME] [--heartbeat MS]\n"
      "  gpufi submit <rtl|tmxm|sw|cnn|report> <args as above> "
      "[--socket PATH] [--priority P] [--deadline MS] [--workers N]\n"
      "  gpufi status [--socket PATH] [--metrics]\n"
      "  gpufi stats --metrics [--socket PATH]   (alias of status)\n"
      "\n"
      "every campaign accepts --jobs N: worker threads for the trial loop\n"
      "(default: GPUFI_JOBS env, else all hardware threads; submit defaults\n"
      "to 1 — the daemon's workers are the wide axis). Results are\n"
      "byte-identical for every --jobs value.\n"
      "\n"
      "software campaigns (sw, submit sw) accept --plan: a ZOFI-style\n"
      "adaptive sampler that stratifies injections over (opcode x input\n"
      "range), runs a min_trials pilot, then Neyman-allocated rounds until\n"
      "the stratified PVF's 95% half-width is at most target_err, and\n"
      "reports that PVF, its half-width and the trials saved. max_trials\n"
      "caps each stratum; --injections stays the total trial budget.\n"
      "\n"
      "RTL commands also accept --fault-model transient|stuck0|stuck1|burst\n"
      "(build-db takes a comma list), --fault-duration N (fault window in\n"
      "cycles; 0 = permanent for non-transient models) and --burst-period N\n"
      "(re-flip period of the burst model).\n"
      "\n"
      "gpufi report joins every injection outcome to the instruction live\n"
      "at the fault site (golden-run liveness timeline) and prints\n"
      "per-(module x static instruction) and per-opcode vulnerability\n"
      "tables with 95% Wilson intervals. `all` (the default) bombards all\n"
      "six modules; --json emits the machine-readable form; --out FILE\n"
      "writes atomically (tmp + rename); --socket PATH asks a running\n"
      "daemon instead, as `gpufi submit report` does (the answer is always\n"
      "JSON, byte-identical to the offline --json output). A report runs in\n"
      "one process: --workers on a report is a usage error.\n"
      "\n"
      "scaling out: `gpufi serve --fabric ADDR` opens a coordinator socket\n"
      "(unix:PATH for one machine, tcp:HOST:PORT across machines); each\n"
      "`gpufi worker --connect ADDR` process registers as a shard executor.\n"
      "`gpufi submit ... --workers N` then fans the campaign out over up to\n"
      "N workers; the merged result is byte-identical to the offline run\n"
      "for any worker count, including after worker failures (lost shards\n"
      "are retried on surviving workers).\n"
      "\n"
      "observability: --trace-out FILE writes a JSONL span/event trace,\n"
      "`gpufi status --metrics` scrapes the daemon's Prometheus text\n"
      "exposition.\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure, 2 usage error (including\n"
      "a syndrome database with an incompatible schema version).\n");
  return 2;
}

/// Hard usage error: diagnose on stderr, then exit 2 via usage().
int usage_error(const std::string& what) {
  std::fprintf(stderr, "error: %s\n\n", what.c_str());
  return usage();
}

/// Pre-flight check for output paths (--trace-out, report --out): the
/// parent directory must exist and be writable, caught at option-parse time
/// so a doomed long campaign fails before its first trial.
bool writable_parent(const std::string& path) {
  auto dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return false;
  return ::access(dir.c_str(), W_OK) == 0;
}

/// Writes `content` to `path` atomically (tmp + rename) so readers never
/// observe a torn report. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc | std::ios::binary);
    if (!f) throw std::runtime_error("cannot open " + tmp);
    f.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!f) throw std::runtime_error("failed writing " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

/// Pulls "--name value" pairs out of argv. Strict: an unknown flag, a flag
/// missing its value, a malformed or out-of-range number, or an invalid enum
/// value is a hard usage error (nullopt; the caller exits 2), never a
/// warning — on every command, whether or not it uses the flag.
struct Options {
  /// Campaign flags parse straight into the spec the serve:: runners take,
  /// so their defaults live in CampaignSpec. The one CLI difference: --jobs
  /// defaults to 0 (GPUFI_JOBS env or all hardware threads); submit maps 0
  /// to the daemon's one core per request.
  serve::CampaignSpec spec{.jobs = 0};
  /// Validated --fault-model tokens (build-db takes a comma list; the raw
  /// value is spec.fault_model, which campaigns require to be one token).
  std::vector<rtl::FaultModel> fault_models = {rtl::FaultModel::Transient};
  // serve/submit/status options
  std::string socket = serve::kDefaultSocketPath;
  bool socket_set = false;  ///< --socket given (report: route via daemon)
  /// serve: executor pool size; submit: fabric fan-out width.
  std::optional<unsigned> workers;
  std::size_t queue = 64;
  // fabric options
  std::string fabric;   ///< serve: coordinator listen address ("" = off)
  std::string connect;  ///< worker: coordinator address to dial
  std::string name;     ///< worker: registration name ("" = worker-<pid>)
  std::uint64_t heartbeat_ms = 500;  ///< worker: liveness ping period
  // observability options
  std::string trace_out;  ///< JSONL span/event sink ("" = off)
  bool metrics = false;   ///< status: scrape Prometheus text
  // report options
  bool json = false;     ///< report: machine-readable rendering
  std::string out_path;  ///< report: write here (atomic) instead of stdout

  static std::optional<Options> parse(int argc, char** argv, int first) {
    Options o;
    serve::CampaignSpec& spec = o.spec;
    int i = first;
    while (i < argc) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        usage_error("unexpected argument: " + key);
        return std::nullopt;
      }
      // Boolean flags take no value and advance by one.
      if (key == "--metrics") {
        o.metrics = true;
        ++i;
        continue;
      }
      if (key == "--json") {
        o.json = true;
        ++i;
        continue;
      }
      if (i + 1 >= argc) {
        usage_error("option " + key + " requires a value");
        return std::nullopt;
      }
      const std::string val = argv[i + 1];
      i += 2;
      const auto fail = [](const std::string& what) {
        usage_error(what);
        return false;
      };
      // Parses `val` into a numeric field in the shared number grammar; a
      // value the field cannot hold is a usage error, never a truncation.
      const auto number = [&](auto& dst) {
        return kv::parse_number(val, dst) ||
               fail("option " + key + " expects a number, got '" + val + "'");
      };
      const auto endpoint = [&](std::string& dst) {
        dst = val;
        return fabric::parse_endpoint(val).has_value() ||
               fail("bad " + key + " address '" + val +
                    "' (expected unix:PATH or tcp:HOST:PORT)");
      };
      const auto out_file = [&](std::string& dst) {
        dst = val;
        return writable_parent(val) ||
               fail(key + " parent directory is missing or not writable: " +
                    val);
      };
      bool ok = true;
      if (key == "--faults") {
        ok = number(spec.faults);
      } else if (key == "--injections") {
        ok = number(spec.injections);
      } else if (key == "--seed") {
        ok = number(spec.seed);
      } else if (key == "--jobs") {
        ok = number(spec.jobs);
      } else if (key == "--workers") {
        ok = number(o.workers.emplace());
      } else if (key == "--fabric") {
        ok = endpoint(o.fabric);
      } else if (key == "--connect") {
        ok = endpoint(o.connect);
      } else if (key == "--name") {
        o.name = val;
      } else if (key == "--heartbeat") {
        ok = number(o.heartbeat_ms) &&
             (o.heartbeat_ms != 0 ||
              fail("option --heartbeat expects a positive millisecond count"));
      } else if (key == "--queue") {
        ok = number(o.queue);
      } else if (key == "--deadline") {
        ok = number(spec.deadline_ms);
      } else if (key == "--priority") {
        ok = number(spec.priority);
      } else if (key == "--db") {
        spec.db_path = val;
      } else if (key == "--models") {
        spec.models_dir = val;
      } else if (key == "--socket") {
        o.socket = val;
        o.socket_set = true;
      } else if (key == "--out") {
        ok = out_file(o.out_path);
      } else if (key == "--trace-out") {
        ok = out_file(o.trace_out);
      } else if (key == "--range") {
        spec.range = val;
        ok = vocab::parse_range(val).has_value() ||
             fail("unknown --range '" + val + "' (expected S|M|L)");
      } else if (key == "--tile") {
        spec.tile = val;
        ok = vocab::parse_tile(val).has_value() ||
             fail("unknown --tile '" + val + "' (expected max|zero|random)");
      } else if (key == "--fault-model") {
        spec.fault_model = val;
        o.fault_models.clear();
        std::size_t pos = 0;
        while (ok && pos <= val.size()) {
          std::size_t comma = val.find(',', pos);
          if (comma == std::string::npos) comma = val.size();
          const std::string tok = val.substr(pos, comma - pos);
          const auto m = vocab::parse_fault_model(tok);
          if (m) o.fault_models.push_back(*m);
          ok = m || fail("unknown --fault-model '" + tok +
                         "' (expected transient|stuck0|stuck1|burst)");
          pos = comma + 1;
        }
      } else if (key == "--fault-duration") {
        ok = number(spec.fault_duration);
      } else if (key == "--burst-period") {
        ok = number(spec.burst_period);
      } else if (key == "--plan") {
        spec.plan = val;
        std::string err;
        ok = vocab::parse_plan(val, &err).has_value() || fail(err);
      } else {
        ok = fail("unknown option " + key);
      }
      if (!ok) return std::nullopt;
    }
    return o;
  }
};

/// Checks a campaign spec the way the runners will, so a bad name or an
/// out-of-place flag such as --plan on an rtl campaign is a usage error
/// (exit 2), not a runtime failure.
bool check_campaign(const serve::CampaignSpec& spec) {
  const auto err = serve::validate_spec(spec);
  if (err) usage_error(*err);
  return !err;
}

/// Parses a campaign command whose positional arguments start at
/// argv[first] — rtl: <op> <module>; tmxm: <site>; sw: <app> <model>;
/// cnn: <net> <model>; report: <op> [<module>|all], the same for
/// `gpufi <kind>` and `gpufi submit <kind>` — then its flags, into one
/// checked spec. Nullopt: usage error (exit 2).
std::optional<Options> parse_campaign(serve::CampaignKind kind, int argc,
                                      char** argv, int first) {
  // A report's module is optional: a flag or nothing in its place means
  // "all".
  const bool one_name =
      kind == serve::CampaignKind::Tmxm ||
      (kind == serve::CampaignKind::Report &&
       (argc <= first + 1 || argv[first + 1][0] == '-'));
  const int flags = first + (one_name ? 1 : 2);
  if (argc < flags) {
    usage();
    return std::nullopt;
  }
  auto o = Options::parse(argc, argv, flags);
  if (!o) return std::nullopt;
  serve::CampaignSpec& spec = o->spec;
  spec.kind = kind;
  // --workers is a served campaign's fabric fan-out width (0 = in-process);
  // the daemon's executor pool keeps its own `serve --workers` knob.
  spec.workers = o->workers.value_or(0);
  switch (kind) {
    case serve::CampaignKind::Rtl:
      spec.op = argv[first];
      spec.module = argv[first + 1];
      break;
    case serve::CampaignKind::Tmxm:
      spec.module = argv[first];
      break;
    case serve::CampaignKind::Sw:
      spec.app = argv[first];
      spec.model = argv[first + 1];
      break;
    case serve::CampaignKind::Cnn:
      spec.net = argv[first];
      spec.model = argv[first + 1];
      break;
    case serve::CampaignKind::Report:
      spec.op = argv[first];
      spec.module = one_name ? "all" : argv[first + 1];
      break;
  }
  if (!check_campaign(spec)) return std::nullopt;
  return o;
}

/// Installs the process-wide JSONL trace sink when --trace-out was given.
/// TraceSink::open throws on an unwritable path; main() maps that to exit 1.
void install_trace_sink(const Options& o) {
  if (!o.trace_out.empty())
    obs::set_trace_sink(obs::TraceSink::open(o.trace_out));
}

/// Telemetry printer for long campaigns: carriage-return progress on stderr
/// so piped stdout stays machine-readable.
exec::ProgressFn stderr_progress(const char* unit) {
  return [unit](const exec::Progress& p) {
    std::fprintf(stderr, "\r  %zu/%zu %s (%.1f/s, ETA %.0fs)   ", p.done,
                 p.total, unit, p.per_second, p.eta_seconds);
    if (p.done == p.total) std::fputc('\n', stderr);
    std::fflush(stderr);
  };
}

void print_campaign(const rtlfi::CampaignResult& r) {
  std::printf("injected       %zu (golden run: %llu cycles)\n", r.injected,
              static_cast<unsigned long long>(r.golden_cycles));
  std::printf("masked         %zu (%.2f%%)\n", r.masked,
              100.0 * r.masked / r.injected);
  std::printf("SDC single-thr %zu\n", r.sdc_single);
  std::printf("SDC multi-thr  %zu (mean %.1f threads)\n", r.sdc_multi,
              r.mean_corrupted_threads());
  std::printf("DUE            %zu\n", r.due);
  std::printf("AVF            %.3f%% +- %.3f%% (95%%)\n", 100 * r.avf(),
              100 * r.margin_of_error());
}

int cmd_modules() {
  std::printf("%-22s %10s %10s %10s\n", "module", "flip-flops", "data",
              "control");
  for (unsigned i = 0; i < rtl::kNumModules; ++i) {
    const auto m = static_cast<rtl::Module>(i);
    const auto& l = rtl::layouts().of(m);
    std::printf("%-22s %10zu %10zu %10zu\n",
                std::string(rtl::module_name(m)).c_str(), l.bits(),
                l.data_bits(), l.control_bits());
  }
  return 0;
}

int cmd_rtl(int argc, char** argv) {
  const auto o = parse_campaign(serve::CampaignKind::Rtl, argc, argv, 2);
  if (!o) return 2;
  install_trace_sink(*o);
  const serve::CampaignSpec& spec = o->spec;
  std::printf("== RTL campaign: %s on %s (%s inputs, %s faults), %zu faults\n",
              std::string(isa::mnemonic(*vocab::parse_opcode(spec.op))).c_str(),
              std::string(rtl::module_name(*vocab::parse_module(spec.module)))
                  .c_str(),
              std::string(rtlfi::range_name(*vocab::parse_range(spec.range)))
                  .c_str(),
              std::string(rtl::fault_model_name(
                              *vocab::parse_fault_model(spec.fault_model)))
                  .c_str(),
              spec.faults);
  serve::Caches caches;
  print_campaign(serve::run_rtl_spec(spec, caches,
                                     stderr_progress("injections"), nullptr));
  return 0;
}

int cmd_tmxm(int argc, char** argv) {
  const auto o = parse_campaign(serve::CampaignKind::Tmxm, argc, argv, 2);
  if (!o) return 2;
  install_trace_sink(*o);
  const serve::CampaignSpec& spec = o->spec;
  const auto site = *vocab::parse_module(spec.module);
  std::printf("== t-MxM campaign: %s site, %s tile, %zu faults\n",
              std::string(rtl::module_name(site)).c_str(),
              std::string(rtlfi::tile_name(*vocab::parse_tile(spec.tile)))
                  .c_str(),
              spec.faults);
  serve::Caches caches;
  const auto r = serve::run_rtl_spec(spec, caches,
                                     stderr_progress("injections"), nullptr);
  print_campaign(r);
  syndrome::Database db;
  db.add_tmxm_campaign(site, 8, 8, r);
  const auto& stats = db.tmxm(site);
  std::printf("patterns:");
  for (std::size_t p = 0; p < syndrome::kNumPatterns; ++p)
    std::printf(" %s=%zu",
                std::string(syndrome::pattern_name(
                                static_cast<syndrome::Pattern>(p)))
                    .c_str(),
                stats.counts[p]);
  std::printf("\n");
  return 0;
}

int cmd_build_db(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto o = Options::parse(argc, argv, 3);
  if (!o) return 2;
  install_trace_sink(*o);
  core::RtlCharacterizationConfig cfg;
  cfg.faults_per_campaign = o->spec.faults;
  cfg.jobs = o->spec.jobs;
  cfg.fault_models = o->fault_models;
  cfg.progress = stderr_progress("campaigns");
  std::printf("building syndrome database (%zu faults/campaign, models: %s)"
              "...\n",
              cfg.faults_per_campaign, o->spec.fault_model.c_str());
  const auto db = core::build_syndrome_database(cfg);
  db.save_file(argv[2]);
  std::printf("wrote %s (%zu distributions)\n", argv[2], db.keys().size());
  return 0;
}

int cmd_sw(int argc, char** argv) {
  const auto o = parse_campaign(serve::CampaignKind::Sw, argc, argv, 2);
  if (!o) return 2;
  install_trace_sink(*o);
  const serve::CampaignSpec& spec = o->spec;
  serve::Caches caches(stderr_progress("campaigns"));
  // A replayed DB loads (or builds) before the header, as the campaign
  // cannot start without it; the runner then finds it cached.
  serve::syndrome_db_for_spec(spec, caches);
  const std::string app = vocab::make_app(spec.app).app.name;
  const std::string model(
      swfi::fault_model_name(*vocab::parse_sw_model(spec.model)));
  const auto progress = stderr_progress("injections");
  if (!spec.plan.empty()) {
    std::printf("== planned software campaign: %s under %s, budget %zu "
                "(target_err %.3g)\n",
                app.c_str(), model.c_str(), spec.injections,
                vocab::parse_plan(spec.plan)->target_err);
    const auto pr =
        serve::run_planned_sw_spec(spec, caches, progress, nullptr);
    std::printf("candidates %llu\n",
                static_cast<unsigned long long>(
                    pr.result.candidate_instructions));
    for (const auto& s : pr.strata)
      std::printf("  %-5s %s  cand %-8llu trials %zu/%zu  sdc %llu  (%s, "
                  "hw %.3f)\n",
                  std::string(isa::mnemonic(s.op)).c_str(),
                  std::string(rtlfi::range_name(s.range)).c_str(),
                  static_cast<unsigned long long>(s.candidates), s.trials,
                  s.budget, static_cast<unsigned long long>(s.sdc),
                  std::string(swfi::stratum_stop_name(s.stop)).c_str(),
                  s.sdc_half_width);
    std::printf("PVF        %.3f +- %.3f (stratified)\nSDC %zu / masked %zu "
                "/ DUE %zu\ntrials     %zu of %zu planned (%zu saved)\n",
                pr.pvf, pr.pvf_half_width, pr.result.sdc, pr.result.masked,
                pr.result.due, pr.result.injections, pr.planned_trials,
                pr.trials_saved);
    return 0;
  }
  std::printf("== software campaign: %s under %s, %zu injections\n",
              app.c_str(), model.c_str(), spec.injections);
  const auto r = serve::run_sw_spec(spec, caches, progress, nullptr);
  std::printf("candidates %llu\nPVF        %.3f +- %.3f\nSDC %zu / masked "
              "%zu / DUE %zu\n",
              static_cast<unsigned long long>(r.candidate_instructions),
              r.pvf(), r.margin_of_error(), r.sdc, r.masked, r.due);
  return 0;
}

int cmd_cnn(int argc, char** argv) {
  const auto o = parse_campaign(serve::CampaignKind::Cnn, argc, argv, 2);
  if (!o) return 2;
  install_trace_sink(*o);
  const serve::CampaignSpec& spec = o->spec;
  serve::Caches caches(stderr_progress("campaigns"));
  const auto r = serve::run_cnn_spec(spec, caches,
                                     stderr_progress("injections"), nullptr);
  std::printf("== %s under %s: %zu injections\n",
              spec.net == "lenet" ? "LeNet" : "YoloLite",
              std::string(nn::cnn_fault_model_name(
                              *vocab::parse_cnn_model(spec.model)))
                  .c_str(),
              r.injections);
  std::printf("PVF (SDC)  %.3f\ncritical   %.3f (%zu of %zu SDCs change "
              "the decision)\nmasked %zu / DUE %zu\n",
              r.pvf(), r.critical_rate(), r.critical, r.sdc, r.masked,
              r.due);
  return 0;
}

/// Sends `spec` to the daemon at `socket` and returns its Result payload;
/// nullopt, with the error on stderr, when the daemon is unreachable or
/// answers with an Error frame.
std::optional<std::string> submit(const std::string& socket,
                                  serve::CampaignSpec spec) {
  if (spec.jobs == 0) spec.jobs = 1;  // served default: one core each
  const auto outcome =
      serve::submit_campaign(socket, spec, stderr_progress("trials"));
  if (!outcome.ok) {
    std::fprintf(stderr, "error: %s\n", outcome.error.c_str());
    return std::nullopt;
  }
  return outcome.result;
}

int cmd_report(int argc, char** argv) {
  const auto o = parse_campaign(serve::CampaignKind::Report, argc, argv, 2);
  if (!o) return 2;
  install_trace_sink(*o);
  std::string payload;
  if (o->socket_set) {
    // The daemon answers a report with its JSON rendering.
    const auto result = submit(o->socket, o->spec);
    if (!result) return 1;
    payload = *result;
  } else {
    serve::Caches caches;
    const attr::Report report = serve::run_report_spec(
        o->spec, caches, stderr_progress("injections"), nullptr);
    payload = o->json ? attr::render_json(report) : attr::render_text(report);
  }

  if (!o->out_path.empty()) {
    // Atomic publish: a crashed write never leaves a torn report file.
    write_file_atomic(o->out_path, payload);
    std::fprintf(stderr, "wrote %s\n", o->out_path.c_str());
  } else {
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    if (payload.empty() || payload.back() != '\n') std::fputc('\n', stdout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Service commands.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

int cmd_serve(int argc, char** argv) {
  const auto o = Options::parse(argc, argv, 2);
  if (!o) return 2;
  install_trace_sink(*o);
  serve::ServerConfig cfg;
  cfg.socket_path = o->socket;
  if (o->workers) cfg.workers = *o->workers;
  cfg.queue_capacity = o->queue;
  cfg.default_deadline_ms = o->spec.deadline_ms;
  cfg.quiet = false;
  cfg.fabric_listen = o->fabric;
  serve::Server server(cfg);
  // A worker writing to a hung-up client must get EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  server.start();
  while (g_signal == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Graceful drain: finish every admitted campaign, then tear down.
  server.shutdown(/*drain=*/true);
  return 0;
}

int cmd_worker(int argc, char** argv) {
  const auto o = Options::parse(argc, argv, 2);
  if (!o) return 2;
  if (o->connect.empty())
    return usage_error("gpufi worker requires --connect ADDR");
  install_trace_sink(*o);
  fabric::WorkerConfig cfg;
  cfg.coordinator = *fabric::parse_endpoint(o->connect);
  cfg.name = o->name;
  cfg.heartbeat_ms = o->heartbeat_ms;
  cfg.quiet = false;
  fabric::Worker worker(cfg);
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  // A version-mismatch rejection or an unreachable coordinator throws here;
  // main() prints the coordinator's error and exits 1.
  worker.start();
  // Serve shards until signalled or the coordinator hangs up. A coordinator
  // shutdown is a normal drain, not a failure: exit 0 so process supervisors
  // do not restart-loop a worker whose daemon was retired.
  while (g_signal == 0 && worker.connected())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  worker.stop();
  std::fprintf(stderr, "worker done: %zu shards executed\n",
               worker.shards_done());
  return 0;
}

int cmd_submit(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto kind = serve::parse_campaign_kind(argv[2]);
  if (!kind)
    return usage_error(std::string("unknown campaign kind '") + argv[2] + "'");
  const auto o = parse_campaign(*kind, argc, argv, 3);
  if (!o) return 2;
  const auto result = submit(o->socket, o->spec);
  if (!result) return 1;
  std::fwrite(result->data(), 1, result->size(), stdout);
  return 0;
}

int cmd_status(int argc, char** argv) {
  const auto o = Options::parse(argc, argv, 2);
  if (!o) return 2;
  std::string error;
  if (o->metrics) {
    const auto text = serve::query_metrics(o->socket, &error);
    if (!text) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    // Raw Prometheus text exposition — scrapers consume it verbatim.
    std::fwrite(text->data(), 1, text->size(), stdout);
    return 0;
  }
  const auto s = serve::query_stats(o->socket, &error);
  if (!s) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("accepted   %zu\ncompleted  %zu\nfailed     %zu\n"
              "cancelled  %zu\nrejected   %zu\nactive     %zu\n"
              "queued     %zu/%zu\nworkers    %zu\n",
              s->accepted, s->completed, s->failed, s->cancelled,
              s->rejected, s->active, s->queued, s->queue_capacity,
              s->workers);
  std::printf("planner early stops %zu\n", s->planner_early_stops);
  std::printf("db cache     %zu hits / %zu misses\n", s->db_cache.hits,
              s->db_cache.misses);
  std::printf("golden cache %zu hits / %zu misses\n", s->golden_cache.hits,
              s->golden_cache.misses);
  std::printf("fabric workers  %zu alive / %zu registered\n",
              s->fabric_workers_alive, s->fabric_workers_registered);
  std::printf("fabric shards   %zu done, %zu in flight, %zu retried\n",
              s->fabric_shards_completed, s->fabric_shards_inflight,
              s->fabric_shards_retried);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "modules") return cmd_modules();
    if (cmd == "rtl") return cmd_rtl(argc, argv);
    if (cmd == "tmxm") return cmd_tmxm(argc, argv);
    if (cmd == "build-db") return cmd_build_db(argc, argv);
    if (cmd == "sw") return cmd_sw(argc, argv);
    if (cmd == "cnn") return cmd_cnn(argc, argv);
    if (cmd == "report") return cmd_report(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "worker") return cmd_worker(argc, argv);
    if (cmd == "submit") return cmd_submit(argc, argv);
    if (cmd == "status" || cmd == "stats") return cmd_status(argc, argv);
  } catch (const syndrome::SchemaMismatch& e) {
    // A stale database file is a configuration error, not a runtime crash:
    // the fix is user action (regenerate), so it exits like a usage error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage_error("unknown command '" + cmd + "'");
}
