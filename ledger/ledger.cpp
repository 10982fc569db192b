#include "ledger.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace ledger {

void Tally::fail(const std::string& what) {
  attempted_.fetch_add(1);
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  std::cerr << "ledger: FAILED: " << what << "\n";
}

bool Tally::check(bool cond, const std::string& what) {
  if (cond)
    attempted_.fetch_add(1);
  else
    fail(what);
  return cond;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

void Counts::add(const std::string& name, std::uint64_t value) {
  rows_.emplace_back(name, std::to_string(value));
}

void Counts::add(const std::string& name, const std::string& value) {
  rows_.emplace_back(name, value);
}

void Counts::print() const {
  for (const auto& [name, value] : rows_)
    std::cout << "count " << name << " " << value << "\n";
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t counter(std::string_view name) {
  return gpufi::obs::Registry::global().counter_value(name);
}

void add_src_loc(Counts& counts) {
  namespace fs = std::filesystem;
  std::map<std::string, std::uint64_t> loc;
  for (const auto& dir : fs::directory_iterator("src")) {
    if (!dir.is_directory()) continue;
    std::uint64_t lines = 0;
    for (const auto& file : fs::directory_iterator(dir.path())) {
      if (!file.is_regular_file()) continue;
      std::ifstream in(file.path());
      std::string line;
      while (std::getline(in, line))
        if (line.find_first_not_of(" \t\r") != std::string::npos) ++lines;
    }
    loc[dir.path().filename().string()] = lines;
  }
  std::uint64_t total = 0;
  for (const auto& [module, lines] : loc) {
    counts.add("src_loc." + module, lines);
    total += lines;
  }
  counts.add("src_loc.total", total);
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace {

struct Frame {
  std::uint64_t id;
  std::uint64_t request;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_request{1};
std::atomic<std::uint32_t> g_next_thread{0};
std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mutex

thread_local std::vector<Frame> t_stack;
thread_local bool t_paused = false;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::set_enabled(bool on) { g_tracing.store(on); }
std::uint64_t Tracer::new_request() { return g_next_request.fetch_add(1); }

Tracer::Pause::Pause(bool active) : prev_(t_paused) {
  if (active) t_paused = true;
}
Tracer::Pause::~Pause() { t_paused = prev_; }

Span::Span(std::string_view name, std::uint64_t request)
    : start_(Clock::now()) {
  if (!g_tracing.load(std::memory_order_relaxed) || t_paused) return;
  recording_ = true;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1);
  rec_.parent = t_stack.empty() ? 0 : t_stack.back().id;
  rec_.request = request != 0 ? request
                              : (t_stack.empty() ? 0 : t_stack.back().request);
  rec_.thread = t_thread;
  rec_.start_ns = now_ns();
  t_stack.push_back({rec_.id, rec_.request});
}

Span::~Span() {
  if (!recording_) return;
  rec_.end_ns = now_ns();
  t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(std::move(rec_));
}

void Tracer::dump(const std::string& path) {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    spans = g_spans;
  }
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  {
    std::ofstream out(path);
    for (const auto& s : spans)
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"thread\":" << s.thread
          << ",\"start_us\":" << (s.start_ns - t0) / 1000
          << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000 << "}\n";
  }

  // Self time: a span's duration minus the union of its children's
  // intervals (clipped to the span), so concurrent children are not
  // subtracted twice.
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);
  struct Agg {
    std::uint64_t n = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const auto& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second)
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    Agg& agg = by_name[s.name];
    ++agg.n;
    agg.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    agg.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::cout << "spans " << spans.size() << " written to " << path << "\n";
  for (const auto& [name, agg] : rows) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "span %-34s n=%-6llu total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(agg.n),
                  agg.total_ms, agg.self_ms);
    std::cout << line;
  }
}

}  // namespace ledger
