// gpufi performance ledger — one command runs a named workload for a seed,
// checks its outputs, and prints its metrics as one JSON line:
//
//   gpufi_ledger --workload two_level|served --seed N --seconds S
//                --trace 0|1 [--tamper payload|db]
//
// --trace 0 prints the end-to-end metrics. --trace 1 records the ledger's
// own spans, runs the primary workload, a short probe of the other
// workload (for the layers the primary bypasses) and the isolated
// primitive timings, then prints every per-layer metric and writes its span
// dump under .bench_build/ledger-out. Run it from the repository root: it
// reads src/ (LOC counts) and gpufi_data/syndromes.db.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "ledger.hpp"

namespace ledger {

namespace {

/// Length of the short probe of the workload a traced run does not measure.
constexpr double kProbeSeconds = 3.0;

/// Where a traced run writes its span dump (under the repository root).
constexpr const char* kOutDir = ".bench_build/ledger-out";

int usage(const char* msg) {
  std::cerr << "gpufi_ledger: " << msg
            << "\nusage: gpufi_ledger --workload two_level|served --seed N "
               "--seconds S --trace 0|1 [--tamper payload|db]\n";
  return 2;
}

void print_json(const Report& r, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += r.tally.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.tally.attempted());
  out += ", \"failed\": " + std::to_string(r.tally.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.values()) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  namespace fs = std::filesystem;
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--tamper") {
        if (v != "payload" && v != "db")
          return usage("--tamper takes payload or db");
        opt.tamper = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("malformed value for " + a).c_str());
    }
  }
  if (opt.workload != "two_level" && opt.workload != "served")
    return usage("--workload must be two_level or served");
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (> 0) and --trace are required");
  if (!fs::is_directory("src") || !fs::exists("gpufi_data/syndromes.db")) {
    std::cerr << "gpufi_ledger: run from the repository root (needs src/ and "
                 "gpufi_data/syndromes.db)\n";
    return 2;
  }

  opt.work_dir = ".bench_build/ledger-run-" + std::to_string(::getpid());
  fs::create_directories(opt.work_dir);
  if (opt.trace) fs::create_directories(kOutDir);

  Report report;
  int rc = 0;
  try {
    Tracer::set_enabled(opt.trace);
    const bool two_level = opt.workload == "two_level";
    const Scale full{true, opt.seconds};
    if (two_level)
      run_two_level(opt, full, report);
    else
      run_served(opt, full, report);
    if (opt.trace) {
      // Every traced run reports every per-layer metric: the layers the
      // primary workload bypasses are measured by a short probe of the
      // other workload, then the isolated primitives run.
      const Scale probe{false, kProbeSeconds};
      if (two_level)
        run_served(opt, probe, report);
      else
        run_two_level(opt, probe, report);
      run_probes(opt, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "gpufi_ledger: " << opt.workload << " aborted: " << e.what()
              << "\n";
    rc = 1;
  }

  if (rc == 0) {
    add_src_loc(report.counts);
    report.counts.print();
    for (const auto& [name, vu] : report.e2e.values())
      std::cout << "e2e " << name << " " << vu.first << " " << vu.second
                << "\n";
    const double frac =
        report.tally.attempted()
            ? static_cast<double>(report.tally.failed()) /
                  static_cast<double>(report.tally.attempted())
            : 0.0;
    std::cout << "failed_frac " << frac << " (" << report.tally.failed()
              << "/" << report.tally.attempted() << ")\n";
    const Metrics& shown = opt.trace ? report.layer : report.e2e;
    if (opt.trace)
      Tracer::dump(std::string(kOutDir) + "/trace-" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".jsonl");
    for (const auto& [name, vu] : shown.values())
      if (!std::isfinite(vu.first)) {
        std::cerr << "gpufi_ledger: metric " << name << " is not finite\n";
        rc = 1;
      }
    if (rc == 0) print_json(report, shown);
  }
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  return rc;
}
