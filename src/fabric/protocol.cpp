#include "fabric/protocol.hpp"

#include <bit>
#include <utility>

#include "common/kv.hpp"

namespace gpufi::fabric {

using kv::put_kv;

namespace {

/// Doubles cross the wire as IEEE-754 bit patterns: text formatting (even
/// max_digits10) is a round-trip risk the byte-identity contract cannot
/// afford, and both ends are version-checked peers of the same codec.
std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Splits "header\n<marker>\n<raw tail>" and returns the tail; the header
/// lines before the marker stay in `c`.
std::string_view split_tail(std::string_view payload, std::string_view marker,
                            kv::Cursor& c) {
  std::string needle(1, '\n');
  needle.append(marker).push_back('\n');
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
  kv::Cursor c{payload};
  Hello h;
  h.version = c.take<std::uint32_t>("version");
  h.name = std::string(c.take_kv("name"));
  h.pid = c.take("pid");
  if (!c.ok || !c.rest.empty()) return std::nullopt;
  return h;
}

std::string encode_shard_request(const ShardRequest& r) {
  std::string out;
  put_kv(out, "job", r.job);
  put_kv(out, "shard", r.shard_index);
  put_kv(out, "n_shards", r.n_shards);
  put_kv(out, "offset", r.range.offset);
  put_kv(out, "count", r.range.count);
  out += kSpecMarker;
  out += '\n';
  out += serve::encode_spec(r.spec);
  return out;
}

std::optional<ShardRequest> decode_shard_request(std::string_view payload,
                                                 std::string* error) {
  kv::Cursor c{};
  const auto spec_bytes = split_tail(payload, kSpecMarker, c);
  ShardRequest r;
  r.job = c.take("job");
  r.shard_index = c.take<std::uint32_t>("shard");
  r.n_shards = c.take<std::uint32_t>("n_shards");
  r.range.offset = c.take<std::size_t>("offset");
  r.range.count = c.take<std::size_t>("count");
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
  kv::Cursor c{};
  const auto tail = split_tail(payload, kPayloadMarker, c);
  ShardResultMsg m;
  m.job = c.take("job");
  m.shard_index = c.take<std::uint32_t>("shard");
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
  kv::Cursor c{};
  const auto tail = split_tail(payload, kErrorMarker, c);
  ShardErrorMsg m;
  m.job = c.take("job");
  m.shard_index = c.take<std::uint32_t>("shard");
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
  kv::Cursor c{payload};
  ShardProgressMsg m;
  m.job = c.take("job");
  m.shard_index = c.take<std::uint32_t>("shard");
  m.done = c.take("done");
  m.total = c.take("total");
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
  kv::Cursor c{payload};
  rtlfi::CampaignResult r;
  if (c.take("v") != 1) c.fail("unknown rtl partial version");
  r.injected = c.take("injected");
  r.masked = c.take("masked");
  r.sdc_single = c.take("sdc_single");
  r.sdc_multi = c.take("sdc_multi");
  r.due = c.take("due");
  r.golden_cycles = c.take("golden_cycles");
  r.converged_early = c.take("converged_early");
  const auto n_records = c.take("records");
  for (std::uint64_t i = 0; c.ok && i < n_records; ++i) {
    rtlfi::InjectionRecord rec;
    kv::Fields f{c.take_kv("r"), &c};
    rec.fault.module = f.next_enum<rtl::Module>(rtl::kNumModules);
    rec.fault.bit = f.next<std::uint32_t>();
    rec.fault.cycle = f.next();
    rec.fault.model = f.next_enum<rtl::FaultModel>(rtl::kNumFaultModels);
    rec.fault.duration = f.next();
    rec.fault.period = f.next();
    rec.role = f.next_enum<rtl::FieldRole>(kNumRoles);
    rec.outcome = f.next_enum<rtlfi::Outcome>(kNumOutcomes);
    rec.due_reason_code = f.next_enum<vocab::DueReason>(vocab::kNumDueReasons);
    rec.corrupted_elements = f.next<std::uint32_t>();
    rec.corrupted_threads = f.next<std::uint32_t>();
    rec.site.live = f.next() != 0;
    rec.site.dyn_index = f.next();
    rec.site.pc = f.next();
    rec.site.cta = f.next<std::uint32_t>();
    rec.site.warp = f.next<std::uint32_t>();
    rec.site.op = f.next_enum<isa::Opcode>(kNumOpcodes);
    rec.site.stage = f.next_enum<rtl::PipeStage>(kNumStages);
    rec.site.unit_busy = f.next() != 0;
    const auto n_diffs = f.next();
    f.done();
    rec.field = std::string(c.take_kv("f"));
    rec.due_reason = std::string(c.take_kv("w"));
    for (std::uint64_t j = 0; c.ok && j < n_diffs; ++j) {
      rtlfi::ElementDiff d;
      kv::Fields df{c.take_kv("d"), &c};
      d.index = df.next<std::uint32_t>();
      d.golden = df.next<std::uint32_t>();
      d.faulty = df.next<std::uint32_t>();
      d.rel_error = bits_double(df.next());
      d.bits_flipped = df.next<std::uint32_t>();
      df.done();
      rec.diffs.push_back(d);
    }
    r.records.push_back(std::move(rec));
  }
  const auto n_attrs = c.take("attrs");
  for (std::uint64_t i = 0; c.ok && i < n_attrs; ++i) {
    kv::Fields f{c.take_kv("a"), &c};
    attr::SiteKey key;
    key.live = f.next() != 0;
    key.pc = f.next();
    key.op = f.next_enum<isa::Opcode>(kNumOpcodes);
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

}  // namespace gpufi::fabric
