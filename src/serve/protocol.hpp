#pragma once

// gpufi-serve wire protocol: length-prefixed frames over a Unix-domain
// stream socket.
//
// Frame layout (little-endian):
//   u32  payload length (bytes, <= kMaxFramePayload)
//   u8   frame type (FrameType)
//   ...  payload
//
// A client sends exactly one Submit (campaign spec, attribution reports
// included), Status or MetricsRequest frame per connection. The server
// answers a Submit with zero or more Progress frames followed by exactly one
// Result or Error frame, and a Status with one Stats frame; either side
// closing the connection ends the exchange (a client disconnect cancels the
// in-flight campaign).
//
// Payloads are deterministic "key=value\n" text — the Result payload of a
// served campaign is byte-identical to the offline engine's serialization of
// the same spec and seed (the contract tests/serve_test.cpp pins).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "exec/engine.hpp"
#include "isa/isa.hpp"
#include "nn/gpu_infer.hpp"
#include "rtl/state.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "swfi/planner.hpp"
#include "swfi/swfi.hpp"
#include "vocab/vocab.hpp"

namespace gpufi::serve {

/// Default Unix-domain socket path of `gpufi serve` (relative to the
/// daemon's working directory; gitignored).
inline constexpr const char* kDefaultSocketPath = "gpufi.sock";

/// Upper bound on a frame payload; longer frames are a protocol violation
/// (the stream cannot be resynchronized afterwards, so the peer closes).
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

/// Bytes of frame header (u32 length + u8 type).
inline constexpr std::size_t kFrameHeaderSize = 5;

enum class FrameType : std::uint8_t {
  Submit = 1,    ///< client -> server: campaign spec
  Status = 2,    ///< client -> server: stats request (empty payload)
  Progress = 3,  ///< server -> client: trial-loop telemetry
  Result = 4,    ///< server -> client: final campaign serialization
  Error = 5,     ///< server -> client: human-readable failure/rejection
  Stats = 6,     ///< server -> client: queue/cache/counter snapshot
  /// client -> server: metrics scrape request (empty payload); answered
  /// with one Metrics frame.
  MetricsRequest = 7,
  /// server -> client: Prometheus text exposition of the daemon's metric
  /// registry (gpufi_* counters/gauges/histograms).
  Metrics = 8,
  // Bytes 9 and 10 stay unused: a client of the retired report request
  // and reply gets a protocol error, not a misread frame. A report is a
  // Submit of kind=report.

  // --- gpufi-fabric frames (worker <-> coordinator, same framing; work
  // over the Unix transport and the TCP transport alike) -------------------
  /// worker -> coordinator: registration (version, name, pid). The
  /// coordinator validates fabric::kFabricProtocolVersion and answers with
  /// HelloAck, or an Error frame naming both versions for a mismatch.
  Hello = 11,
  /// coordinator -> worker: registration accepted.
  HelloAck = 12,
  /// coordinator -> worker: run one trial-range shard of a campaign spec.
  ShardRequest = 13,
  /// worker -> coordinator: a shard's (partial or final) result payload.
  ShardResult = 14,
  /// worker -> coordinator: the shard raised an exception (deterministic —
  /// the coordinator fails the job instead of retrying).
  ShardError = 15,
  /// worker -> coordinator: liveness beacon (empty payload). Any inbound
  /// frame refreshes the worker's liveness deadline.
  Heartbeat = 16,
  /// worker -> coordinator: trials completed so far within one shard.
  ShardProgress = 17,
};

/// True for types defined above (wire bytes outside the enum are rejected).
bool frame_type_valid(std::uint8_t t);

struct Frame {
  FrameType type = FrameType::Error;
  std::string payload;
};

// ---------------------------------------------------------------------------
// In-memory framing (unit-testable without sockets).
// ---------------------------------------------------------------------------

/// Serializes header + payload. Throws std::length_error past
/// kMaxFramePayload.
std::string encode_frame(const Frame& f);

enum class DecodeStatus : std::uint8_t {
  Ok,        ///< one frame decoded; `consumed` bytes eaten
  NeedMore,  ///< buffer holds only a truncated frame — read more bytes
  TooLarge,  ///< declared payload exceeds `max_payload`: close the stream
  BadType,   ///< unknown frame type byte: close the stream
};

/// Decodes the first frame of `buf`; on Ok fills `out` and sets `consumed`.
DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed,
                          std::size_t max_payload = kMaxFramePayload);

// ---------------------------------------------------------------------------
// Blocking socket framing.
// ---------------------------------------------------------------------------

/// Writes one frame to `fd` (handles short writes, suppresses SIGPIPE).
/// Returns false on any error — for a server that means "client is gone".
bool write_frame(int fd, const Frame& f);

enum class ReadStatus : std::uint8_t {
  Ok,
  Eof,       ///< clean close before a header byte
  Error,     ///< syscall failure or mid-frame close
  TooLarge,  ///< oversized declared payload (protocol violation)
  BadType,   ///< unknown frame type (protocol violation)
};

/// Reads exactly one frame from `fd`.
ReadStatus read_frame(int fd, Frame& out,
                      std::size_t max_payload = kMaxFramePayload);

// ---------------------------------------------------------------------------
// Campaign spec — the request payload, mirroring the CLI grids.
// ---------------------------------------------------------------------------

/// `Report` runs rtl campaigns on one module or on all six and answers with
/// their attribution report (attr::render_json) as its Result payload.
enum class CampaignKind : std::uint8_t { Rtl, Tmxm, Sw, Cnn, Report };

std::string_view campaign_kind_name(CampaignKind k);
std::optional<CampaignKind> parse_campaign_kind(std::string_view s);

/// One campaign request. String fields hold the CLI vocabulary ("FFMA",
/// "fp32", "M", ...) and are validated by resolve-time parsers below; the
/// spec round-trips losslessly through encode/decode.
struct CampaignSpec {
  CampaignKind kind = CampaignKind::Rtl;
  std::string op = "FFMA";        ///< rtl, report: instruction mnemonic
  /// rtl: module / tmxm: injection site / report: module or "all"
  std::string module = "fp32";
  std::string range = "M";        ///< rtl, report: input range S|M|L
  std::string tile = "random";    ///< tmxm: max|zero|random
  std::string app = "mxm";        ///< sw: application name
  std::string model = "bitflip";  ///< sw: fault model / cnn: fault model
  std::string net = "lenet";      ///< cnn: lenet|yolo
  /// rtl/tmxm: RTL fault model (transient|stuck0|stuck1|burst). Validated
  /// for every kind but unused by sw and cnn: the sw `sticky` model always
  /// samples the stuck-at-1 syndrome class.
  std::string fault_model = "transient";
  std::uint64_t fault_duration = 0;  ///< rtl: window cycles; 0 = permanent
  std::uint64_t burst_period = 8;    ///< rtl: burst re-flip period
  std::size_t faults = 2000;      ///< rtl/tmxm/report trials per module
  std::size_t injections = 300;   ///< sw/cnn trial count
  std::uint64_t seed = 1;
  /// Trial-loop threads per campaign. Served default is 1: the daemon's
  /// worker pool is the wide axis, one request = one core.
  unsigned jobs = 1;
  /// Fan the campaign out over the serve fabric into trial-range shards
  /// served by up to this many `gpufi worker` processes; 0 runs it inside
  /// the daemon process. The Result payload is byte-identical either way.
  /// A report must leave it 0.
  unsigned workers = 0;
  std::string db_path = "gpufi_data/syndromes.db";
  std::string models_dir = "gpufi_data";
  int priority = 0;              ///< lower value = served earlier
  std::uint64_t deadline_ms = 0;  ///< wall-clock budget; 0 = none
  /// sw: adaptive-plan vocabulary "target_err=X[,min_trials=N][,max_trials=N]"
  /// (vocab::parse_plan); empty = fixed-trial campaign. Non-empty is only
  /// valid for kind=sw.
  std::string plan;

  bool operator==(const CampaignSpec&) const = default;
};

/// Deterministic "key=value\n" serialization (every field, fixed order).
std::string encode_spec(const CampaignSpec& spec);

/// Strict parse: unknown keys, malformed numbers, or invalid enum values are
/// errors (mirrors the CLI's hard usage errors). On failure returns nullopt
/// and, when given, fills `error`.
std::optional<CampaignSpec> decode_spec(std::string_view payload,
                                        std::string* error = nullptr);

/// Validates the spec's vocabulary fields against the engine's parsers
/// (opcode, module, range, tile, app, model, net — whichever the
/// kind uses) and refuses a report with workers > 0. Returns an error
/// message, or nullopt when the spec is sound.
std::optional<std::string> validate_spec(const CampaignSpec& spec);

// ---------------------------------------------------------------------------
// Progress payload.
// ---------------------------------------------------------------------------

std::string encode_progress(const exec::Progress& p);
std::optional<exec::Progress> decode_progress(std::string_view payload);

// ---------------------------------------------------------------------------
// Result payloads — deterministic serializations the byte-identity contract
// is defined over. Floating-point values print with max_digits10 (lossless).
// ---------------------------------------------------------------------------

/// RTL / t-MxM campaign: every counter, every record (fault site, field,
/// outcome, diffs), and the syndrome-database bytes the campaign distills to
/// (add_campaign for rtl, add_tmxm_campaign for tmxm).
std::string serialize_campaign_result(const CampaignSpec& spec,
                                      const rtlfi::CampaignResult& r);

/// Software campaign counters: every field of swfi::Result, so the payload
/// is also the fabric's sw shard partial.
std::string serialize_sw_result(const swfi::Result& r);

/// Strict parse of serialize_sw_result's bytes: its keys in its order, no
/// trailing bytes. On failure returns nullopt and, when given, fills
/// `error`.
std::optional<swfi::Result> decode_sw_result(std::string_view payload,
                                             std::string* error = nullptr);

/// Planned software campaign: the fixed-campaign counters, the stratified
/// PVF with its half-width, and one line per stratum (opcode, range,
/// candidates, budget share, trials, outcomes, stop, Wilson half-width).
std::string serialize_planned_sw_result(const swfi::PlanResult& r);

/// CNN campaign counters (criticality split included): every field of
/// nn::CnnCampaignResult, so the payload is also the fabric's cnn shard
/// partial.
std::string serialize_cnn_result(const nn::CnnCampaignResult& r);

/// Strict parse of serialize_cnn_result's bytes, as decode_sw_result.
std::optional<nn::CnnCampaignResult> decode_cnn_result(
    std::string_view payload, std::string* error = nullptr);

}  // namespace gpufi::serve
