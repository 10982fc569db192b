#pragma once

// gpufi performance ledger: shared plumbing for the benchmark workloads —
// options, failure accounting, metric and exact-count sinks, timing and
// statistics helpers, and the benchmark's own in-memory span recorder.
//
// The ledger reaches gpufi only through the public headers under src/; it
// never changes program code. Spans are recorded around the public calls
// the ledger makes, kept in memory, and written once at exit.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "apps/apps.hpp"
#include "common/statistics.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: "payload" corrupts one served payload byte and "db" one
  /// saved syndrome-DB byte before their checks run; both must show up as
  /// failed operations.
  std::string tamper;
  /// Per-process working directory for sockets and DB files; removed at
  /// exit.
  std::string work_dir;
};

/// Failure accounting: every checked operation is one attempt; a failure is
/// an exception, an Error frame, a rejected submit or an output that fails
/// its check. Thread-safe.
class Tally {
 public:
  void fail(const std::string& what);
  /// Counts one attempt and, when `cond` is false, one failure.
  bool check(bool cond, const std::string& what);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mutex_;
};

/// Named metric values with units, as printed in the final JSON line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Exact, schedule-independent counts printed on every run as
/// "count <name> <value>" lines — the noise-free twin of the timings. They
/// must repeat bit for bit across runs of one seed.
class Counts {
 public:
  void add(const std::string& name, std::uint64_t value);
  void add(const std::string& name, const std::string& value);
  void print() const;

 private:
  std::vector<std::pair<std::string, std::string>> rows_;
};

/// Everything a run reports.
struct Report {
  Tally tally;
  Metrics e2e;
  Metrics layer;
  Counts counts;
};

// ---------------------------------------------------------------------------
// Timing and statistics.
// ---------------------------------------------------------------------------

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

using gpufi::stats::median;

/// Median per-call time in `unit_scale` units of `fn`, timed in batches of
/// `batch` calls until `budget_s` seconds elapse (at least 5 batches).
template <class Fn>
double time_per_call(Fn&& fn, std::size_t batch, double budget_s,
                     double unit_scale) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 5 || seconds_since(t0) < budget_s) {
    const auto b0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    samples.push_back(seconds_since(b0) * unit_scale /
                      static_cast<double>(batch));
  }
  return median(samples);
}

/// 64-bit FNV-1a over raw bytes (digests of DB bytes, tables, payloads).
std::uint64_t fnv1a(std::string_view bytes);
std::string hex64(std::uint64_t v);

/// Peak resident set size of this process in MB (VmHWM), since start or
/// since the last reset_peak_rss().
double peak_rss_mb();
/// Returns freed heap to the system and restarts the peak at the current
/// resident set size, so the next peak_rss_mb() covers one phase.
void reset_peak_rss();

/// Reads a gpufi obs counter from the global registry.
std::uint64_t counter(std::string_view name);

/// Non-blank lines per module under src/ (the tracked LOC), as counts.
void add_src_loc(Counts& counts);

// ---------------------------------------------------------------------------
// The ledger's own spans.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;  ///< answer / request id shared by its spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store. Off by default; the traced run switches it on.
class Tracer {
 public:
  static void set_enabled(bool on);
  /// A fresh answer / request id.
  static std::uint64_t new_request();
  /// Suppresses recording on the calling thread while alive (the trace
  /// overhead A/B alternates recorded and unrecorded repetitions).
  class Pause {
   public:
    explicit Pause(bool active);
    ~Pause();
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    bool prev_;
  };

  /// Writes every span as one JSON line to `path`, then prints the per-name
  /// self-time summary (span time minus the time its children cover).
  static void dump(const std::string& path);
};

/// RAII span around one public call. It always measures its own elapsed
/// time (so untraced runs time the same intervals), and records a
/// SpanRecord only while tracing is on for this thread. `request` 0
/// inherits the parent's request id.
class Span {
 public:
  explicit Span(std::string_view name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double seconds() const { return seconds_since(start_); }
  double ms() const { return 1e3 * seconds(); }

 private:
  Clock::time_point start_;
  bool recording_ = false;
  SpanRecord rec_;
};

// ---------------------------------------------------------------------------
// Workloads and probes.
// ---------------------------------------------------------------------------

/// Scale of a workload run: `full` is the measured run, otherwise a short
/// probe that only supplies the per-layer metrics of layers the traced
/// primary workload bypasses.
struct Scale {
  bool full = true;
  double seconds = 10.0;
};

void run_two_level(const Options& opt, const Scale& scale, Report& out);
void run_served(const Options& opt, const Scale& scale, Report& out);
/// The two_level table's applications at their answer sizes.
gpufi::apps::HpcApp table_app(const std::string& name);
/// Isolated primitive timings (traced run only, after the workloads).
void run_probes(const Options& opt, Report& out);

}  // namespace ledger
