// Deterministic mutation fuzzing of every decoder on a process or file
// boundary: serve frames, specs (a report spec among them), progress and
// stats payloads, every fabric control message, the lossless rtl partial,
// the sw and cnn results (the sw and cnn shard partials), the --plan
// vocabulary, the endpoint grammar, the syndrome database and .gfnn
// network weights.
//
// Each decoder starts from one golden encoding. From one fixed seed, every
// mutant applies one or two of: a bit flip, a byte replaced from the
// grammar's alphabet, a truncation, a deleted or duplicated line, a splice
// with another decoder's encoding, or a number token replaced by -1, +1,
// 99999999999, 18446744073709551616 or nan. The invariant: the decoder
// either rejects the mutant (nullopt, or std::runtime_error for the
// database and the weights) or accepts it, and re-encoding the decoded
// value and decoding that again gives the same bytes. Nothing may crash or
// hang.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/kv.hpp"
#include "common/rng.hpp"
#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "nn/network.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "syndrome/syndrome.hpp"
#include "vocab/vocab.hpp"

using namespace gpufi;

namespace {

constexpr int kMutantsPerDecoder = 2500;

/// Decodes `bytes`; nullopt when rejected, else the re-encoded value.
using Reencode = std::function<std::optional<std::string>(std::string_view)>;

struct Codec {
  const char* name;
  std::string seed;
  Reencode reencode;
};

template <class Decode, class Encode>
Reencode via(Decode decode, Encode encode) {
  return [=](std::string_view bytes) -> std::optional<std::string> {
    const auto v = decode(bytes);
    if (!v) return std::nullopt;
    return encode(*v);
  };
}

serve::CampaignSpec full_spec() {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Sw;
  spec.op = "FFMA";
  spec.module = "sched";
  spec.range = "L";
  spec.tile = "zero";
  spec.app = "hotspot";
  spec.model = "syndrome";
  spec.net = "yolo";
  spec.fault_model = "burst";
  spec.fault_duration = 64;
  spec.burst_period = 5;
  spec.faults = 123;
  spec.injections = 45;
  spec.seed = 999;
  spec.jobs = 3;
  spec.workers = 4;
  spec.db_path = "some/dir/syn.db";
  spec.models_dir = "some/dir";
  spec.priority = -2;
  spec.deadline_ms = 1500;
  spec.plan = "target_err=0.05,min_trials=16,max_trials=90";
  return spec;
}

/// An all-module attribution report: the one spec whose module may read
/// "all".
serve::CampaignSpec report_spec() {
  serve::CampaignSpec spec;
  spec.kind = serve::CampaignKind::Report;
  spec.op = "IMAD";
  spec.module = "all";
  spec.range = "S";
  spec.faults = 60;
  spec.seed = 7;
  return spec;
}

/// A real RTL campaign small enough to fuzz quickly, keeping every record.
rtlfi::CampaignResult rtl_result() {
  const auto w = rtlfi::make_microbenchmark(isa::Opcode::FFMA,
                                            rtlfi::InputRange::Medium, 7);
  rtlfi::CampaignConfig cfg;
  cfg.module = rtl::Module::Fp32Fu;
  cfg.n_faults = 48;
  cfg.seed = 7;
  cfg.jobs = 1;
  cfg.keep_all_records = true;
  return rtlfi::run_campaign(w, cfg);
}

swfi::Result sw_result() {
  swfi::Result r;
  r.injections = 9;
  r.masked = 5;
  r.sdc = 3;
  r.due = 1;
  r.candidate_instructions = 4096;
  return r;
}

nn::CnnCampaignResult cnn_result() {
  nn::CnnCampaignResult r;
  r.injections = 12;
  r.masked = 7;
  r.sdc = 4;
  r.critical = 2;
  r.due = 1;
  return r;
}

std::string db_text() {
  rtlfi::CampaignResult r;
  std::uint32_t index = 0;
  for (const double e : {0.5, 1e-3, 2.25, 7e-6, 0.125, 3.0}) {
    rtlfi::InjectionRecord rec;
    rec.outcome = rtlfi::Outcome::Sdc;
    rec.diffs.push_back({.index = index++, .rel_error = e});
    r.records.push_back(rec);
  }
  syndrome::Database db;
  db.add_campaign({rtl::Module::Fp32Fu, isa::Opcode::FADD,
                   rtlfi::InputRange::Medium},
                  r);
  db.add_campaign({rtl::Module::IntFu, isa::Opcode::IADD,
                   rtlfi::InputRange::Large, rtl::FaultModel::StuckAt1},
                  r);
  db.add_tmxm_campaign(rtl::Module::Scheduler, 8, 8, r);
  db.add_tmxm_campaign(rtl::Module::PipelineRegs, 8, 8, r);
  db.finalize();
  std::ostringstream os;
  db.save(os);
  return os.str();
}

/// Writes `bytes` to a file unique to this process and returns its path.
std::string scratch_file(const std::string& bytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gpufi_codec_fuzz_" + std::to_string(::getpid()) + ".gfnn"))
          .string();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

/// A small network's saved bytes: a 1x6x6 input, a pooled 3x3 conv to 2
/// channels (2x2x2) and an fc to 3 outputs.
std::string gfnn_bytes() {
  nn::Network net;
  net.name = "tiny";
  net.in_h = net.in_w = 6;
  nn::ConvLayer c{1, 6, 6, 2, 3};
  c.pool = true;
  c.weights = {0.5f, -1, 2, 0.25f, 1e-3f, -7, 3, 1, 0,
               1,    2,  3, 4,     5,     6,  7, 8, 9};
  c.bias = {0.125f, -0.5f};
  net.convs.push_back(c);
  nn::FcLayer f{8, 3};
  f.relu = false;
  for (int i = 0; i < 24; ++i) f.weights.push_back(0.1f * float(i - 12));
  f.bias = {1, -1, 0.5f};
  net.fcs.push_back(f);
  const std::string path = scratch_file("");
  net.save_file(path);
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

std::string plan_text(const swfi::Plan& p) {
  std::string s = "target_err=" + kv::format_double(p.target_err) +
                  ",min_trials=" + std::to_string(p.min_trials);
  if (p.max_trials != 0) s += ",max_trials=" + std::to_string(p.max_trials);
  return s;
}

std::vector<Codec> codecs() {
  using namespace fabric;
  const auto spec = full_spec();
  std::vector<Codec> all;
  all.push_back(
      {"frame", serve::encode_frame({serve::FrameType::Submit,
                                     serve::encode_spec(spec)}),
       [](std::string_view bytes) -> std::optional<std::string> {
         serve::Frame f;
         std::size_t consumed = 0;
         if (serve::decode_frame(bytes, f, consumed) != serve::DecodeStatus::Ok)
           return std::nullopt;
         return serve::encode_frame(f);
       }});
  for (const auto& [name, s] : {std::pair{"spec", spec},
                                 std::pair{"report_spec", report_spec()}})
    all.push_back(
        {name, serve::encode_spec(s),
         via([](std::string_view b) { return serve::decode_spec(b); },
             serve::encode_spec)});
  all.push_back({"progress", serve::encode_progress({7, 1000, 123.45, 8.05}),
                 via(serve::decode_progress, serve::encode_progress)});
  serve::ServerStats stats;
  stats.accepted = 10;
  stats.completed = 6;
  stats.queue_capacity = 64;
  stats.db_cache = {5, 1};
  stats.fabric_shards_completed = 12;
  all.push_back({"stats", serve::encode_stats(stats),
                 via(serve::decode_stats, serve::encode_stats)});
  all.push_back({"hello", encode_hello({3, "rack7-gpu2", 4242}),
                 via(decode_hello, encode_hello)});
  ShardRequest req;
  req.job = 9;
  req.shard_index = 2;
  req.n_shards = 6;
  req.range = {32, 16};
  req.spec = spec;
  all.push_back(
      {"shard_request", encode_shard_request(req),
       via([](std::string_view b) { return decode_shard_request(b); },
           encode_shard_request)});
  all.push_back({"shard_result",
                 encode_shard_result({9, 2, "v=1\ninjected=16\n"}),
                 via(decode_shard_result, encode_shard_result)});
  all.push_back({"shard_error", encode_shard_error({9, 2, "multi\nline"}),
                 via(decode_shard_error, encode_shard_error)});
  all.push_back({"shard_progress", encode_shard_progress({9, 2, 12, 16}),
                 via(decode_shard_progress, encode_shard_progress)});
  all.push_back(
      {"rtl_partial", encode_rtl_partial(rtl_result()),
       via([](std::string_view b) { return decode_rtl_partial(b); },
           encode_rtl_partial)});
  all.push_back(
      {"sw_result", serve::serialize_sw_result(sw_result()),
       via([](std::string_view b) { return serve::decode_sw_result(b); },
           serve::serialize_sw_result)});
  all.push_back(
      {"cnn_result", serve::serialize_cnn_result(cnn_result()),
       via([](std::string_view b) { return serve::decode_cnn_result(b); },
           serve::serialize_cnn_result)});
  all.push_back({"plan", plan_text({0.05, 16, 90}),
                 via([](std::string_view b) { return vocab::parse_plan(b); },
                     plan_text)});
  all.push_back({"endpoint", "tcp:127.0.0.1:9000",
                 via(parse_endpoint,
                     [](const Endpoint& e) { return e.describe(); })});
  all.push_back(
      {"syndrome_db", db_text(),
       [](std::string_view bytes) -> std::optional<std::string> {
         try {
           std::istringstream is{std::string(bytes)};
           const auto db = syndrome::Database::load(is);
           std::ostringstream os;
           db.save(os);
           return os.str();
         } catch (const std::runtime_error&) {
           return std::nullopt;
         }
       }});
  all.push_back(
      {"gfnn", gfnn_bytes(),
       [](std::string_view bytes) -> std::optional<std::string> {
         const std::string path = scratch_file(std::string(bytes));
         std::optional<std::string> out;
         try {
           nn::Network::load_file(path).save_file(path);
           out = read_file(path);
         } catch (const std::runtime_error&) {
         }
         std::remove(path.c_str());
         return out;
       }});
  return all;
}

/// [begin, end) of each line, '\n' included when present.
std::vector<std::pair<std::size_t, std::size_t>> lines_of(
    const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto nl = s.find('\n', pos);
    const auto end = nl == std::string::npos ? s.size() : nl + 1;
    out.emplace_back(pos, end);
    pos = end;
  }
  return out;
}

/// Applies one mutation drawn from `rng`. `other` is a splice partner.
void mutate(std::string& s, const std::string& other, Rng& rng) {
  static constexpr std::string_view kAlphabet = "0123456789-+=\n ";
  static constexpr std::string_view kNumbers[] = {
      "-1", "+1", "99999999999", "18446744073709551616", "nan"};
  switch (rng.below(7)) {
    case 0:  // bit flip
      if (!s.empty()) s[rng.below(s.size())] ^= char(1u << rng.below(8));
      break;
    case 1:  // byte replacement
      if (!s.empty())
        s[rng.below(s.size())] = kAlphabet[rng.below(kAlphabet.size())];
      break;
    case 2:  // truncation
      s.resize(rng.below(s.size() + 1));
      break;
    case 3:  // delete a line
    case 4: {  // duplicate a line
      const auto lines = lines_of(s);
      if (lines.empty()) break;
      const auto [b, e] = lines[rng.below(lines.size())];
      if (rng.below(2) == 0)
        s.erase(b, e - b);
      else
        s.insert(b, s.substr(b, e - b));
      break;
    }
    case 5:  // splice: a prefix of s, a suffix of another encoding
      s = s.substr(0, rng.below(s.size() + 1)) +
          other.substr(rng.below(other.size() + 1));
      break;
    default: {  // replace a number token
      std::vector<std::pair<std::size_t, std::size_t>> tokens;
      for (std::size_t i = 0; i < s.size();) {
        if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[j])) ||
                s[j] == '.' || s[j] == 'e'))
          ++j;
        tokens.emplace_back(i, j - i);
        i = j;
      }
      if (tokens.empty()) break;
      const auto [at, len] = tokens[rng.below(tokens.size())];
      s.replace(at, len, kNumbers[rng.below(std::size(kNumbers))]);
      break;
    }
  }
}

TEST(CodecFuzz, EveryDecoderRejectsOrRoundTrips) {
  const auto all = codecs();
  for (const auto& codec : all) {
    SCOPED_TRACE(codec.name);
    // The golden encoding itself is a fixed point.
    const auto golden = codec.reencode(codec.seed);
    ASSERT_TRUE(golden.has_value());
    ASSERT_EQ(*golden, codec.seed);

    Rng rng(0x5eed2021);
    std::size_t accepted = 0;
    for (int i = 0; i < kMutantsPerDecoder; ++i) {
      std::string mutant = codec.seed;
      const int n_ops = 1 + static_cast<int>(rng.below(2));
      for (int k = 0; k < n_ops; ++k)
        mutate(mutant, all[rng.below(all.size())].seed, rng);
      const auto once = codec.reencode(mutant);
      if (!once) continue;
      ++accepted;
      const auto twice = codec.reencode(*once);
      ASSERT_TRUE(twice.has_value())
          << "re-encoding of an accepted mutant was rejected\nmutant:\n"
          << mutant << "\nre-encoded:\n"
          << *once;
      ASSERT_EQ(*twice, *once) << "mutant:\n" << mutant;
    }
    // Mutations must not be so destructive that nothing decodes: each
    // decoder accepts some mutants (a changed number, a benign flip).
    EXPECT_GT(accepted, 0u);
  }
}

TEST(CodecFuzz, RtlPartialSeedCarriesRecordsDiffsAndAttribution) {
  const auto r = rtl_result();
  bool diffs = false;
  for (const auto& rec : r.records) diffs = diffs || !rec.diffs.empty();
  EXPECT_FALSE(r.records.empty());
  EXPECT_TRUE(diffs);
  EXPECT_FALSE(r.attribution.empty());
}

}  // namespace
