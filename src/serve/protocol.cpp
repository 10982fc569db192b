#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "common/kv.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::serve {

using kv::put_kv;

namespace {

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32_le(const char* p) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

}  // namespace

bool frame_type_valid(std::uint8_t t) {
  const auto in = [t](FrameType lo, FrameType hi) {
    return t >= static_cast<std::uint8_t>(lo) &&
           t <= static_cast<std::uint8_t>(hi);
  };
  return in(FrameType::Submit, FrameType::Metrics) ||
         in(FrameType::Hello, FrameType::ShardProgress);
}

std::string encode_frame(const Frame& f) {
  if (f.payload.size() > kMaxFramePayload)
    throw std::length_error("frame payload exceeds kMaxFramePayload");
  std::string out;
  out.reserve(kFrameHeaderSize + f.payload.size());
  put_u32_le(out, static_cast<std::uint32_t>(f.payload.size()));
  out.push_back(static_cast<char>(f.type));
  out.append(f.payload);
  return out;
}

DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed, std::size_t max_payload) {
  if (buf.size() < kFrameHeaderSize) return DecodeStatus::NeedMore;
  const std::uint32_t len = get_u32_le(buf.data());
  if (len > max_payload) return DecodeStatus::TooLarge;
  const auto type = static_cast<std::uint8_t>(buf[4]);
  if (!frame_type_valid(type)) return DecodeStatus::BadType;
  if (buf.size() < kFrameHeaderSize + len) return DecodeStatus::NeedMore;
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buf.data() + kFrameHeaderSize, len);
  consumed = kFrameHeaderSize + len;
  return DecodeStatus::Ok;
}

bool write_frame(int fd, const Frame& f) {
  std::string wire;
  try {
    wire = encode_frame(f);
  } catch (const std::exception&) {
    return false;
  }
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

/// Reads exactly `len` bytes. 1 = ok, 0 = clean EOF at offset 0, -1 = error.
int read_exact(int fd, char* dst, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, dst + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return off == 0 ? 0 : -1;
    off += static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

ReadStatus read_frame(int fd, Frame& out, std::size_t max_payload) {
  char header[kFrameHeaderSize];
  const int h = read_exact(fd, header, sizeof header);
  if (h == 0) return ReadStatus::Eof;
  if (h < 0) return ReadStatus::Error;
  const std::uint32_t len = get_u32_le(header);
  if (len > max_payload) return ReadStatus::TooLarge;
  const auto type = static_cast<std::uint8_t>(header[4]);
  if (!frame_type_valid(type)) return ReadStatus::BadType;
  out.type = static_cast<FrameType>(type);
  out.payload.resize(len);
  if (len != 0 && read_exact(fd, out.payload.data(), len) != 1)
    return ReadStatus::Error;
  return ReadStatus::Ok;
}

// ---------------------------------------------------------------------------
// Campaign spec.
// ---------------------------------------------------------------------------

std::string_view campaign_kind_name(CampaignKind k) {
  switch (k) {
    case CampaignKind::Rtl: return "rtl";
    case CampaignKind::Tmxm: return "tmxm";
    case CampaignKind::Sw: return "sw";
    case CampaignKind::Cnn: return "cnn";
    case CampaignKind::Report: return "report";
  }
  return "?";
}

std::optional<CampaignKind> parse_campaign_kind(std::string_view s) {
  if (s == "rtl") return CampaignKind::Rtl;
  if (s == "tmxm") return CampaignKind::Tmxm;
  if (s == "sw") return CampaignKind::Sw;
  if (s == "cnn") return CampaignKind::Cnn;
  if (s == "report") return CampaignKind::Report;
  return std::nullopt;
}

std::string encode_spec(const CampaignSpec& spec) {
  std::string out;
  put_kv(out, "kind", campaign_kind_name(spec.kind));
  put_kv(out, "op", spec.op);
  put_kv(out, "module", spec.module);
  put_kv(out, "range", spec.range);
  put_kv(out, "tile", spec.tile);
  put_kv(out, "app", spec.app);
  put_kv(out, "model", spec.model);
  put_kv(out, "net", spec.net);
  put_kv(out, "fault_model", spec.fault_model);
  put_kv(out, "fault_duration", spec.fault_duration);
  put_kv(out, "burst_period", spec.burst_period);
  put_kv(out, "faults", spec.faults);
  put_kv(out, "injections", spec.injections);
  put_kv(out, "seed", spec.seed);
  put_kv(out, "jobs", spec.jobs);
  put_kv(out, "workers", spec.workers);
  put_kv(out, "db", spec.db_path);
  put_kv(out, "models", spec.models_dir);
  put_kv(out, "priority", std::to_string(spec.priority));
  put_kv(out, "deadline_ms", spec.deadline_ms);
  put_kv(out, "plan", spec.plan);
  return out;
}

std::optional<CampaignSpec> decode_spec(std::string_view payload,
                                        std::string* error) {
  CampaignSpec spec;
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const bool ok = kv::for_each_kv(
      payload, error, [&](std::string_view key, std::string_view value) {
        // Any numeric field; a value the field cannot hold is an error,
        // never a truncation.
        const auto number = [&](auto& dst) {
          return kv::parse_number(value, dst) ||
                 fail("bad number for '" + std::string(key) +
                      "': " + std::string(value));
        };
        if (key == "kind") {
          const auto k = parse_campaign_kind(value);
          if (!k) return fail("unknown kind: " + std::string(value));
          spec.kind = *k;
          return true;
        }
        if (key == "op") { spec.op = value; return true; }
        if (key == "module") { spec.module = value; return true; }
        if (key == "range") { spec.range = value; return true; }
        if (key == "tile") { spec.tile = value; return true; }
        if (key == "app") { spec.app = value; return true; }
        if (key == "model") { spec.model = value; return true; }
        if (key == "net") { spec.net = value; return true; }
        if (key == "fault_model") { spec.fault_model = value; return true; }
        if (key == "fault_duration") return number(spec.fault_duration);
        if (key == "burst_period") return number(spec.burst_period);
        if (key == "db") { spec.db_path = value; return true; }
        if (key == "models") { spec.models_dir = value; return true; }
        if (key == "faults") return number(spec.faults);
        if (key == "injections") return number(spec.injections);
        if (key == "seed") return number(spec.seed);
        if (key == "jobs") return number(spec.jobs);
        if (key == "workers") return number(spec.workers);
        if (key == "priority") return number(spec.priority);
        if (key == "deadline_ms") return number(spec.deadline_ms);
        if (key == "plan") { spec.plan = value; return true; }
        return fail("unknown spec key: " + std::string(key));
      });
  if (!ok) return std::nullopt;
  if (const auto err = validate_spec(spec)) {
    if (error) *error = *err;
    return std::nullopt;
  }
  return spec;
}

std::optional<std::string> validate_spec(const CampaignSpec& spec) {
  if (!vocab::parse_fault_model(spec.fault_model))
    return "unknown fault model: " + spec.fault_model;
  if (!spec.plan.empty()) {
    if (spec.kind != CampaignKind::Sw)
      return "plan is only valid for kind=sw";
    std::string err;
    if (!vocab::parse_plan(spec.plan, &err)) return err;
  }
  const bool report = spec.kind == CampaignKind::Report;
  switch (spec.kind) {
    case CampaignKind::Rtl:
    case CampaignKind::Report:
      if (!vocab::parse_opcode(spec.op)) return "unknown opcode: " + spec.op;
      if (!(report && spec.module == "all") &&
          !vocab::parse_module(spec.module))
        return "unknown module: " + spec.module;
      if (!vocab::parse_range(spec.range))
        return "unknown range: " + spec.range;
      // Module m's fault seed is rng_derive(seed, m), which no rtl shard
      // spec can carry, so a report runs whole in one process.
      if (report && spec.workers > 0)
        return "a report cannot fan out over the fabric: resubmit without "
               "--workers";
      break;
    case CampaignKind::Tmxm:
      if (!vocab::parse_module(spec.module))
        return "unknown site: " + spec.module;
      if (!vocab::parse_tile(spec.tile)) return "unknown tile: " + spec.tile;
      break;
    case CampaignKind::Sw:
      if (!vocab::is_known_app(spec.app)) return "unknown app: " + spec.app;
      if (!vocab::parse_sw_model(spec.model))
        return "unknown sw fault model: " + spec.model;
      break;
    case CampaignKind::Cnn:
      if (spec.net != "lenet" && spec.net != "yolo")
        return "unknown net: " + spec.net;
      if (!vocab::parse_cnn_model(spec.model))
        return "unknown cnn fault model: " + spec.model;
      break;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Progress payload.
// ---------------------------------------------------------------------------

std::string encode_progress(const exec::Progress& p) {
  std::string out;
  put_kv(out, "done", p.done);
  put_kv(out, "total", p.total);
  put_kv(out, "per_second", kv::format_double(p.per_second));
  put_kv(out, "eta_seconds", kv::format_double(p.eta_seconds));
  return out;
}

std::optional<exec::Progress> decode_progress(std::string_view payload) {
  exec::Progress p;
  const bool ok = kv::for_each_kv(
      payload, nullptr, [&](std::string_view key, std::string_view value) {
        if (key == "done") return kv::parse_number(value, p.done);
        if (key == "total") return kv::parse_number(value, p.total);
        if (key == "per_second") return kv::parse_number(value, p.per_second);
        if (key == "eta_seconds")
          return kv::parse_number(value, p.eta_seconds);
        return false;
      });
  if (!ok) return std::nullopt;
  return p;
}

// ---------------------------------------------------------------------------
// Result serializations.
// ---------------------------------------------------------------------------

std::string serialize_campaign_result(const CampaignSpec& spec,
                                      const rtlfi::CampaignResult& r) {
  std::string out;
  put_kv(out, "kind", campaign_kind_name(spec.kind));
  put_kv(out, "fault_model", spec.fault_model);
  put_kv(out, "injected", r.injected);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc_single", r.sdc_single);
  put_kv(out, "sdc_multi", r.sdc_multi);
  put_kv(out, "due", r.due);
  put_kv(out, "golden_cycles", r.golden_cycles);
  put_kv(out, "converged_early", r.converged_early);
  // Record-format version: v2 adds the per-record fault-site line and the
  // per-site attribution table (v1 payloads had neither line and no
  // record_version key).
  put_kv(out, "record_version", std::uint64_t{2});
  put_kv(out, "records", r.records.size());
  for (const auto& rec : r.records) {
    std::string line;
    line += std::to_string(static_cast<unsigned>(rec.fault.module));
    line += ' ';
    line += std::to_string(rec.fault.bit);
    line += ' ';
    line += std::to_string(rec.fault.cycle);
    line += ' ';
    line += rec.field;
    line += ' ';
    line += rec.role == rtl::FieldRole::Data ? "data" : "control";
    line += ' ';
    line += rtlfi::outcome_name(rec.outcome);
    line += ' ';
    line += std::to_string(rec.corrupted_elements);
    line += ' ';
    line += std::to_string(rec.corrupted_threads);
    line += ' ';
    line += std::to_string(rec.diffs.size());
    if (!rec.due_reason.empty()) {
      line += " # ";
      line += rec.due_reason;
    }
    put_kv(out, "record", line);
    // v2: the fault-site context joined from the golden liveness timeline.
    {
      std::string sl;
      sl += rec.site.live ? "live" : "idle";
      sl += ' ';
      sl += std::to_string(rec.site.dyn_index);
      sl += ' ';
      sl += std::to_string(rec.site.cta);
      sl += ' ';
      sl += std::to_string(rec.site.warp);
      sl += ' ';
      sl += std::to_string(rec.site.pc);
      sl += ' ';
      sl += rec.site.live ? isa::mnemonic(rec.site.op) : std::string_view("-");
      sl += ' ';
      sl += rtl::stage_name(rec.site.stage);
      sl += ' ';
      sl += rec.site.unit_busy ? '1' : '0';
      sl += ' ';
      sl += vocab::due_reason_token(rec.due_reason_code);
      put_kv(out, "site", sl);
    }
    for (const auto& d : rec.diffs) {
      std::string dl;
      dl += std::to_string(d.index);
      dl += ' ';
      dl += std::to_string(d.golden);
      dl += ' ';
      dl += std::to_string(d.faulty);
      dl += ' ';
      dl += kv::format_double(d.rel_error);
      dl += ' ';
      dl += std::to_string(d.bits_flipped);
      put_kv(out, "diff", dl);
    }
  }

  // v2: the per-site attribution table (every trial lands in exactly one
  // bucket; the hits over all lines sum to `injected`).
  put_kv(out, "attr_sites", r.attribution.size());
  for (const auto& [key, counts] : r.attribution) {
    std::string al;
    al += key.live ? "live" : "idle";
    al += ' ';
    al += std::to_string(key.pc);
    al += ' ';
    al += key.live ? isa::mnemonic(key.op) : std::string_view("-");
    al += ' ';
    al += std::to_string(counts.hits);
    al += ' ';
    al += std::to_string(counts.masked);
    al += ' ';
    al += std::to_string(counts.sdc_single);
    al += ' ';
    al += std::to_string(counts.sdc_multi);
    al += ' ';
    al += std::to_string(counts.due);
    for (std::size_t i = 0; i < counts.due_by_reason.size(); ++i) {
      if (counts.due_by_reason[i] == 0) continue;
      al += ' ';
      al += vocab::due_reason_token(static_cast<vocab::DueReason>(i));
      al += ':';
      al += std::to_string(counts.due_by_reason[i]);
    }
    put_kv(out, "attr", al);
  }

  // The campaign's distilled syndrome-database bytes: the artifact the
  // two-level hand-off consumes, pinned verbatim by the served-equals-offline
  // contract.
  syndrome::Database db;
  if (spec.kind == CampaignKind::Tmxm) {
    const auto site = vocab::parse_module(spec.module);
    if (!site) throw std::invalid_argument("bad tmxm site: " + spec.module);
    db.add_tmxm_campaign(*site, 8, 8, r);
  } else {
    const auto module = vocab::parse_module(spec.module);
    const auto op = vocab::parse_opcode(spec.op);
    const auto range = vocab::parse_range(spec.range);
    const auto model = vocab::parse_fault_model(spec.fault_model);
    if (!module || !op || !range || !model)
      throw std::invalid_argument("bad rtl spec for serialization");
    db.add_campaign(syndrome::Key{*module, *op, *range, *model}, r);
  }
  db.finalize();
  std::ostringstream dbos;
  db.save(dbos);
  out += "--- syndrome-db ---\n";
  out += dbos.str();
  return out;
}

std::string serialize_sw_result(const swfi::Result& r) {
  std::string out;
  put_kv(out, "kind", "sw");
  put_kv(out, "injections", r.injections);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc", r.sdc);
  put_kv(out, "due", r.due);
  put_kv(out, "candidates", r.candidate_instructions);
  return out;
}

std::optional<swfi::Result> decode_sw_result(std::string_view payload,
                                             std::string* error) {
  kv::Cursor c{payload};
  swfi::Result r;
  if (c.take_kv("kind") != "sw") c.fail("not a sw result");
  r.injections = c.take<std::size_t>("injections");
  r.masked = c.take<std::size_t>("masked");
  r.sdc = c.take<std::size_t>("sdc");
  r.due = c.take<std::size_t>("due");
  r.candidate_instructions = c.take("candidates");
  if (c.ok && !c.rest.empty()) c.fail("trailing sw result bytes");
  if (!c.ok) {
    if (error) *error = c.error;
    return std::nullopt;
  }
  return r;
}

std::string serialize_planned_sw_result(const swfi::PlanResult& r) {
  std::string out;
  put_kv(out, "kind", "sw-planned");
  put_kv(out, "injections", r.result.injections);
  put_kv(out, "masked", r.result.masked);
  put_kv(out, "sdc", r.result.sdc);
  put_kv(out, "due", r.result.due);
  put_kv(out, "candidates", r.result.candidate_instructions);
  put_kv(out, "adaptive", std::uint64_t{r.adaptive ? 1u : 0u});
  put_kv(out, "planned_trials", r.planned_trials);
  put_kv(out, "trials_saved", r.trials_saved);
  put_kv(out, "pvf", kv::format_double(r.pvf));
  put_kv(out, "pvf_half_width", kv::format_double(r.pvf_half_width));
  put_kv(out, "strata", r.strata.size());
  for (const auto& s : r.strata) {
    std::string sl;
    sl += isa::mnemonic(s.op);
    sl += ' ';
    sl += rtlfi::range_name(s.range);
    sl += ' ';
    sl += std::to_string(s.candidates);
    sl += ' ';
    sl += std::to_string(s.budget);
    sl += ' ';
    sl += std::to_string(s.trials);
    sl += ' ';
    sl += std::to_string(s.masked);
    sl += ' ';
    sl += std::to_string(s.sdc);
    sl += ' ';
    sl += std::to_string(s.due);
    sl += ' ';
    sl += swfi::stratum_stop_name(s.stop);
    sl += ' ';
    sl += kv::format_double(s.sdc_half_width);
    put_kv(out, "stratum", sl);
  }
  return out;
}

std::string serialize_cnn_result(const nn::CnnCampaignResult& r) {
  std::string out;
  put_kv(out, "kind", "cnn");
  put_kv(out, "injections", r.injections);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc", r.sdc);
  put_kv(out, "critical", r.critical);
  put_kv(out, "due", r.due);
  return out;
}

std::optional<nn::CnnCampaignResult> decode_cnn_result(
    std::string_view payload, std::string* error) {
  kv::Cursor c{payload};
  nn::CnnCampaignResult r;
  if (c.take_kv("kind") != "cnn") c.fail("not a cnn result");
  r.injections = c.take<std::size_t>("injections");
  r.masked = c.take<std::size_t>("masked");
  r.sdc = c.take<std::size_t>("sdc");
  r.critical = c.take<std::size_t>("critical");
  r.due = c.take<std::size_t>("due");
  if (c.ok && !c.rest.empty()) c.fail("trailing cnn result bytes");
  if (!c.ok) {
    if (error) *error = c.error;
    return std::nullopt;
  }
  return r;
}

}  // namespace gpufi::serve
