#include "fabric/protocol.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
#include <utility>

namespace gpufi::fabric {

namespace {

// --- writers ---------------------------------------------------------------

void put_kv(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += '=';
  out += value;
  out += '\n';
}

void put_kv(std::string& out, std::string_view key, std::uint64_t value) {
  put_kv(out, key, std::to_string(value));
}

/// Doubles cross the wire as IEEE-754 bit patterns: text formatting (even
/// max_digits10) is a round-trip risk the byte-identity contract cannot
/// afford, and both ends are version-checked peers of the same codec.
std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

// --- readers ---------------------------------------------------------------

/// Line cursor over a payload. Every take_* advances; any malformed input
/// flips `ok` and makes the remaining takes no-ops, so decoders check once
/// at the end (or early where the control flow needs a count).
struct Cursor {
  std::string_view rest;
  bool ok = true;
  std::string error;

  void fail(std::string msg) {
    if (ok) {
      ok = false;
      error = std::move(msg);
    }
  }

  std::string_view take_line() {
    if (!ok) return {};
    const auto nl = rest.find('\n');
    if (nl == std::string_view::npos) {
      fail("truncated payload");
      return {};
    }
    const auto line = rest.substr(0, nl);
    rest.remove_prefix(nl + 1);
    return line;
  }

  /// "key=value" line with an exact key match; returns the value.
  std::string_view take_kv(std::string_view key) {
    const auto line = take_line();
    if (!ok) return {};
    if (line.size() < key.size() + 1 || line.substr(0, key.size()) != key ||
        line[key.size()] != '=') {
      fail("expected key '" + std::string(key) + "'");
      return {};
    }
    return line.substr(key.size() + 1);
  }

  std::uint64_t take_u64(std::string_view key) {
    return parse_u64(take_kv(key));
  }

  /// A 32-bit field; a wider wire value is an error, never a truncation.
  std::uint32_t take_u32(std::string_view key) {
    const std::uint64_t v = take_u64(key);
    if (v > std::numeric_limits<std::uint32_t>::max())
      fail("value out of range for key '" + std::string(key) + "'");
    return static_cast<std::uint32_t>(v);
  }

  std::uint64_t parse_u64(std::string_view s) {
    if (!ok) return 0;
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || p != s.data() + s.size()) {
      fail("bad number: '" + std::string(s) + "'");
      return 0;
    }
    return v;
  }
};

/// Space-separated field scanner for the packed per-record lines.
struct Fields {
  std::string_view rest;
  Cursor* c;

  std::uint64_t next() {
    if (!c->ok) return 0;
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    const auto sp = rest.find(' ');
    const auto tok = rest.substr(0, sp);
    rest = sp == std::string_view::npos ? std::string_view{}
                                        : rest.substr(sp + 1);
    return c->parse_u64(tok);
  }

  std::uint32_t next_u32() {
    const std::uint64_t v = next();
    if (v > std::numeric_limits<std::uint32_t>::max())
      c->fail("record field out of range");
    return static_cast<std::uint32_t>(v);
  }

  std::int32_t next_i32() {
    if (!c->ok) return 0;
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    const bool neg = !rest.empty() && rest.front() == '-';
    if (neg) rest.remove_prefix(1);
    const std::int64_t v = static_cast<std::int64_t>(next_u32());
    const std::int64_t signed_v = neg ? -v : v;
    if (signed_v < std::numeric_limits<std::int32_t>::min() ||
        signed_v > std::numeric_limits<std::int32_t>::max())
      c->fail("record field out of range");
    return static_cast<std::int32_t>(signed_v);
  }

  void done() {
    if (!c->ok) return;
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (!rest.empty()) c->fail("trailing record fields");
  }
};

template <class Enum>
Enum take_enum(Cursor& c, std::uint64_t raw, std::uint64_t n_values,
               const char* what) {
  if (raw >= n_values) c.fail(std::string("bad ") + what);
  return static_cast<Enum>(raw);
}

/// Splits "header\n<marker>\n<raw tail>" and returns the tail; the header
/// lines before the marker stay in `c`.
std::string_view split_tail(std::string_view payload, std::string_view marker,
                            Cursor& c) {
  const std::string needle = "\n" + std::string(marker) + "\n";
  const auto at = payload.find(needle);
  if (at == std::string_view::npos) {
    c.fail("missing " + std::string(marker) + " marker");
    return {};
  }
  c.rest = payload.substr(0, at + 1);  // keep the trailing '\n' for take_line
  return payload.substr(at + needle.size());
}

constexpr std::string_view kSpecMarker = "--- spec ---";
constexpr std::string_view kPayloadMarker = "--- payload ---";
constexpr std::string_view kErrorMarker = "--- error ---";

constexpr std::uint64_t kNumOutcomes = 3;   // rtlfi::Outcome
constexpr std::uint64_t kNumStages = 6;     // rtl::PipeStage
constexpr std::uint64_t kNumRoles = 2;      // rtl::FieldRole
constexpr std::uint64_t kNumOpcodes = isa::kNumOpcodes;

}  // namespace

// ---------------------------------------------------------------------------
// Control messages.
// ---------------------------------------------------------------------------

std::string encode_hello(const Hello& h) {
  std::string out;
  put_kv(out, "version", h.version);
  put_kv(out, "name", h.name);
  put_kv(out, "pid", h.pid);
  return out;
}

std::optional<Hello> decode_hello(std::string_view payload) {
  Cursor c{payload};
  Hello h;
  h.version = c.take_u32("version");
  h.name = std::string(c.take_kv("name"));
  h.pid = c.take_u64("pid");
  if (!c.ok || !c.rest.empty()) return std::nullopt;
  return h;
}

std::string encode_shard_request(const ShardRequest& r) {
  std::string out;
  put_kv(out, "job", r.job);
  put_kv(out, "shard", r.shard_index);
  put_kv(out, "n_shards", r.n_shards);
  put_kv(out, "offset", r.trial_offset);
  put_kv(out, "count", r.trial_count);
  put_kv(out, "final", r.final_payload ? 1 : 0);
  out += kSpecMarker;
  out += '\n';
  out += serve::encode_spec(r.spec);
  return out;
}

std::optional<ShardRequest> decode_shard_request(std::string_view payload,
                                                 std::string* error) {
  Cursor c{};
  const auto spec_bytes = split_tail(payload, kSpecMarker, c);
  ShardRequest r;
  r.job = c.take_u64("job");
  r.shard_index = c.take_u32("shard");
  r.n_shards = c.take_u32("n_shards");
  r.trial_offset = c.take_u64("offset");
  r.trial_count = c.take_u64("count");
  r.final_payload = c.take_u64("final") != 0;
  if (c.ok && !c.rest.empty()) c.fail("unexpected shard-request key");
  if (c.ok) {
    std::string spec_err;
    if (const auto spec = serve::decode_spec(spec_bytes, &spec_err))
      r.spec = *spec;
    else
      c.fail("bad spec: " + spec_err);
  }
  if (!c.ok) {
    if (error) *error = c.error;
    return std::nullopt;
  }
  return r;
}

std::string encode_shard_result(const ShardResultMsg& m) {
  std::string out;
  put_kv(out, "job", m.job);
  put_kv(out, "shard", m.shard_index);
  out += kPayloadMarker;
  out += '\n';
  out += m.payload;
  return out;
}

std::optional<ShardResultMsg> decode_shard_result(std::string_view payload) {
  Cursor c{};
  const auto tail = split_tail(payload, kPayloadMarker, c);
  ShardResultMsg m;
  m.job = c.take_u64("job");
  m.shard_index = c.take_u32("shard");
  if (!c.ok || !c.rest.empty()) return std::nullopt;
  m.payload = std::string(tail);
  return m;
}

std::string encode_shard_error(const ShardErrorMsg& m) {
  std::string out;
  put_kv(out, "job", m.job);
  put_kv(out, "shard", m.shard_index);
  out += kErrorMarker;
  out += '\n';
  out += m.error;
  return out;
}

std::optional<ShardErrorMsg> decode_shard_error(std::string_view payload) {
  Cursor c{};
  const auto tail = split_tail(payload, kErrorMarker, c);
  ShardErrorMsg m;
  m.job = c.take_u64("job");
  m.shard_index = c.take_u32("shard");
  if (!c.ok || !c.rest.empty()) return std::nullopt;
  m.error = std::string(tail);
  return m;
}

std::string encode_shard_progress(const ShardProgressMsg& m) {
  std::string out;
  put_kv(out, "job", m.job);
  put_kv(out, "shard", m.shard_index);
  put_kv(out, "done", m.done);
  put_kv(out, "total", m.total);
  return out;
}

std::optional<ShardProgressMsg> decode_shard_progress(
    std::string_view payload) {
  Cursor c{payload};
  ShardProgressMsg m;
  m.job = c.take_u64("job");
  m.shard_index = c.take_u32("shard");
  m.done = c.take_u64("done");
  m.total = c.take_u64("total");
  if (!c.ok || !c.rest.empty()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------------------
// RTL partial.
// ---------------------------------------------------------------------------

std::string encode_rtl_partial(const rtlfi::CampaignResult& r) {
  std::string out;
  put_kv(out, "v", 1);
  put_kv(out, "injected", r.injected);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc_single", r.sdc_single);
  put_kv(out, "sdc_multi", r.sdc_multi);
  put_kv(out, "due", r.due);
  put_kv(out, "golden_cycles", r.golden_cycles);
  put_kv(out, "converged_early", r.converged_early);
  put_kv(out, "records", r.records.size());
  for (const auto& rec : r.records) {
    out += "r=";
    out += std::to_string(static_cast<unsigned>(rec.fault.module));
    out += ' ';
    out += std::to_string(rec.fault.bit);
    out += ' ';
    out += std::to_string(rec.fault.cycle);
    out += ' ';
    out += std::to_string(static_cast<unsigned>(rec.fault.model));
    out += ' ';
    out += std::to_string(rec.fault.duration);
    out += ' ';
    out += std::to_string(rec.fault.period);
    out += ' ';
    out += std::to_string(static_cast<unsigned>(rec.role));
    out += ' ';
    out += std::to_string(static_cast<unsigned>(rec.outcome));
    out += ' ';
    out += std::to_string(static_cast<unsigned>(rec.due_reason_code));
    out += ' ';
    out += std::to_string(rec.corrupted_elements);
    out += ' ';
    out += std::to_string(rec.corrupted_threads);
    out += ' ';
    out += std::to_string(rec.site.live ? 1 : 0);
    out += ' ';
    out += std::to_string(rec.site.dyn_index);
    out += ' ';
    out += std::to_string(rec.site.pc);
    out += ' ';
    out += std::to_string(rec.site.cta);
    out += ' ';
    out += std::to_string(rec.site.warp);
    out += ' ';
    out += std::to_string(static_cast<unsigned>(rec.site.op));
    out += ' ';
    out += std::to_string(static_cast<unsigned>(rec.site.stage));
    out += ' ';
    out += std::to_string(rec.site.unit_busy ? 1 : 0);
    out += ' ';
    out += std::to_string(rec.diffs.size());
    out += '\n';
    put_kv(out, "f", rec.field);
    put_kv(out, "w", rec.due_reason);
    for (const auto& d : rec.diffs) {
      out += "d=";
      out += std::to_string(d.index);
      out += ' ';
      out += std::to_string(d.golden);
      out += ' ';
      out += std::to_string(d.faulty);
      out += ' ';
      out += std::to_string(double_bits(d.rel_error));
      out += ' ';
      out += std::to_string(d.bits_flipped);
      out += '\n';
    }
  }
  put_kv(out, "attrs", r.attribution.size());
  for (const auto& [key, counts] : r.attribution) {
    out += "a=";
    out += std::to_string(key.live ? 1 : 0);
    out += ' ';
    out += std::to_string(key.pc);
    out += ' ';
    out += std::to_string(static_cast<unsigned>(key.op));
    out += ' ';
    out += std::to_string(counts.hits);
    out += ' ';
    out += std::to_string(counts.masked);
    out += ' ';
    out += std::to_string(counts.sdc_single);
    out += ' ';
    out += std::to_string(counts.sdc_multi);
    out += ' ';
    out += std::to_string(counts.due);
    for (const auto n : counts.due_by_reason) {
      out += ' ';
      out += std::to_string(n);
    }
    out += '\n';
  }
  return out;
}

std::optional<rtlfi::CampaignResult> decode_rtl_partial(
    std::string_view payload, std::string* error) {
  Cursor c{payload};
  rtlfi::CampaignResult r;
  if (c.take_u64("v") != 1) c.fail("unknown rtl partial version");
  r.injected = c.take_u64("injected");
  r.masked = c.take_u64("masked");
  r.sdc_single = c.take_u64("sdc_single");
  r.sdc_multi = c.take_u64("sdc_multi");
  r.due = c.take_u64("due");
  r.golden_cycles = c.take_u64("golden_cycles");
  r.converged_early = c.take_u64("converged_early");
  const auto n_records = c.take_u64("records");
  for (std::uint64_t i = 0; c.ok && i < n_records; ++i) {
    rtlfi::InjectionRecord rec;
    Fields f{c.take_kv("r"), &c};
    rec.fault.module = take_enum<rtl::Module>(c, f.next(), rtl::kNumModules,
                                              "module");
    rec.fault.bit = f.next_u32();
    rec.fault.cycle = f.next();
    rec.fault.model = take_enum<rtl::FaultModel>(c, f.next(),
                                                 rtl::kNumFaultModels,
                                                 "fault model");
    rec.fault.duration = f.next();
    rec.fault.period = f.next();
    rec.role = take_enum<rtl::FieldRole>(c, f.next(), kNumRoles, "role");
    rec.outcome = take_enum<rtlfi::Outcome>(c, f.next(), kNumOutcomes,
                                            "outcome");
    rec.due_reason_code = take_enum<vocab::DueReason>(
        c, f.next(), vocab::kNumDueReasons, "due reason");
    rec.corrupted_elements = f.next_u32();
    rec.corrupted_threads = f.next_u32();
    rec.site.live = f.next() != 0;
    rec.site.dyn_index = f.next();
    rec.site.pc = f.next();
    rec.site.cta = f.next_u32();
    rec.site.warp = f.next_u32();
    rec.site.op = take_enum<isa::Opcode>(c, f.next(), kNumOpcodes, "opcode");
    rec.site.stage = take_enum<rtl::PipeStage>(c, f.next(), kNumStages,
                                               "stage");
    rec.site.unit_busy = f.next() != 0;
    const auto n_diffs = f.next();
    f.done();
    rec.field = std::string(c.take_kv("f"));
    rec.due_reason = std::string(c.take_kv("w"));
    for (std::uint64_t j = 0; c.ok && j < n_diffs; ++j) {
      rtlfi::ElementDiff d;
      Fields df{c.take_kv("d"), &c};
      d.index = df.next_u32();
      d.golden = df.next_u32();
      d.faulty = df.next_u32();
      d.rel_error = bits_double(df.next());
      d.bits_flipped = df.next_u32();
      df.done();
      rec.diffs.push_back(d);
    }
    r.records.push_back(std::move(rec));
  }
  const auto n_attrs = c.take_u64("attrs");
  for (std::uint64_t i = 0; c.ok && i < n_attrs; ++i) {
    Fields f{c.take_kv("a"), &c};
    attr::SiteKey key;
    key.live = f.next() != 0;
    key.pc = f.next();
    key.op = take_enum<isa::Opcode>(c, f.next(), kNumOpcodes, "opcode");
    attr::SiteCounts counts;
    counts.hits = f.next();
    counts.masked = f.next();
    counts.sdc_single = f.next();
    counts.sdc_multi = f.next();
    counts.due = f.next();
    for (auto& n : counts.due_by_reason) n = f.next();
    f.done();
    if (c.ok && !r.attribution.emplace(key, counts).second)
      c.fail("duplicate attribution site");
  }
  if (c.ok && !c.rest.empty()) c.fail("trailing rtl partial bytes");
  if (!c.ok) {
    if (error) *error = c.error;
    return std::nullopt;
  }
  return r;
}

// ---------------------------------------------------------------------------
// SW partial.
// ---------------------------------------------------------------------------

std::string encode_sw_partial(const swfi::Result& r) {
  std::string out;
  put_kv(out, "v", 1);
  put_kv(out, "injections", r.injections);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc", r.sdc);
  put_kv(out, "due", r.due);
  put_kv(out, "candidates", r.candidate_instructions);
  out += "pc_counts=";
  out += std::to_string(r.pc_exec_counts.size());
  for (const auto n : r.pc_exec_counts) {
    out += ' ';
    out += std::to_string(n);
  }
  out += '\n';
  put_kv(out, "sites", r.sites.size());
  for (const auto& [key, counts] : r.sites) {
    out += "s=";
    out += std::to_string(key.first);
    out += ' ';
    out += std::to_string(static_cast<unsigned>(key.second));
    out += ' ';
    out += std::to_string(counts.hits);
    out += ' ';
    out += std::to_string(counts.masked);
    out += ' ';
    out += std::to_string(counts.sdc);
    out += ' ';
    out += std::to_string(counts.due);
    out += '\n';
  }
  return out;
}

std::optional<swfi::Result> decode_sw_partial(std::string_view payload,
                                              std::string* error) {
  Cursor c{payload};
  swfi::Result r;
  if (c.take_u64("v") != 1) c.fail("unknown sw partial version");
  r.injections = c.take_u64("injections");
  r.masked = c.take_u64("masked");
  r.sdc = c.take_u64("sdc");
  r.due = c.take_u64("due");
  r.candidate_instructions = c.take_u64("candidates");
  {
    Fields f{c.take_kv("pc_counts"), &c};
    // No reserve(): the count is untrusted wire data, not a size to
    // allocate; a short list fails on its first missing field.
    const auto n = f.next();
    for (std::uint64_t i = 0; c.ok && i < n; ++i)
      r.pc_exec_counts.push_back(f.next());
    f.done();
  }
  const auto n_sites = c.take_u64("sites");
  for (std::uint64_t i = 0; c.ok && i < n_sites; ++i) {
    Fields f{c.take_kv("s"), &c};
    const auto pc = f.next_i32();
    const auto op = take_enum<isa::Opcode>(c, f.next(), kNumOpcodes, "opcode");
    swfi::SwSiteCounts counts;
    counts.hits = f.next();
    counts.masked = f.next();
    counts.sdc = f.next();
    counts.due = f.next();
    f.done();
    if (c.ok && !r.sites.emplace(std::make_pair(pc, op), counts).second)
      c.fail("duplicate sw site");
  }
  if (c.ok && !c.rest.empty()) c.fail("trailing sw partial bytes");
  if (!c.ok) {
    if (error) *error = c.error;
    return std::nullopt;
  }
  return r;
}

}  // namespace gpufi::fabric
