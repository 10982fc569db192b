#pragma once

// gpufi-fabric wire messages, layered on the serve frame protocol
// (serve/protocol.hpp): the coordinator and its workers exchange the
// FrameType::Hello..ShardProgress frames defined there, with the payload
// codecs living here.
//
// Two payload families:
//
//  * Control messages (Hello, ShardRequest, ...) — deterministic
//    "key=value\n" text like the rest of the serve protocol.
//
//  * Shard partials — what a worker ships back for a shard. A sw or cnn
//    shard ships the public result of its range (serve::run_spec): its
//    counters are all of swfi::Result or nn::CnnCampaignResult, so
//    serve::decode_sw_result / decode_cnn_result read it back whole and
//    the coordinator merges from it; a planned sw campaign runs as one
//    range whose public payload is forwarded as is. An rtl or tmxm shard
//    cannot: the public payload (serialize_campaign_result)
//    drops FaultSpec temporal fields and distills the syndrome DB from the
//    in-memory result. So rtl ships the LOSSLESS partial below, which
//    round-trips every field of rtlfi::CampaignResult bit for bit (doubles
//    cross the wire as u64 bit patterns). Either way the coordinator
//    reassembles the exact in-memory result run_trials would have produced
//    and THEN applies the same public serialization as the offline path.
//    Enums are encoded numerically; the Hello version handshake guarantees
//    both ends agree on the numbering.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "exec/engine.hpp"
#include "rtlfi/campaign.hpp"
#include "serve/protocol.hpp"

namespace gpufi::fabric {

/// Fabric protocol revision. Bumped whenever any fabric payload codec
/// (including the CampaignSpec encoding a ShardRequest carries), enum
/// numbering, or the shard-planning contract changes; the coordinator
/// rejects a Hello carrying any other value (see Coordinator) so a stale
/// worker binary fails fast with a clear error instead of corrupting a
/// merge. v3: a planned sw spec stops on the stratified PVF half-width, so a
/// v2 worker would answer it under the old per-stratum stop rule. v4: a sw
/// shard ships the public sw result instead of the old sw partial, which a
/// v3 worker would still send. v5: cnn campaigns shard by trial range on
/// per-trial streams and the shard request lost its `final` key, so a v4
/// worker would answer cnn under the old single stream. v6: the spec lost
/// its progress-cadence key, so a v5 coordinator's requests would not
/// decode.
inline constexpr std::uint32_t kFabricProtocolVersion = 6;

// ---------------------------------------------------------------------------
// Control messages.
// ---------------------------------------------------------------------------

/// Worker registration (FrameType::Hello payload).
struct Hello {
  std::uint32_t version = kFabricProtocolVersion;
  std::string name;  ///< display name for stats/metrics labels
  std::uint64_t pid = 0;
};

std::string encode_hello(const Hello& h);
std::optional<Hello> decode_hello(std::string_view payload);

/// One trial-range shard assignment (FrameType::ShardRequest payload).
struct ShardRequest {
  std::uint64_t job = 0;          ///< coordinator-scoped job id
  std::uint32_t shard_index = 0;  ///< merge position (chunk order)
  std::uint32_t n_shards = 1;
  exec::TrialRange range;  ///< wire keys `offset=` and `count=`
  serve::CampaignSpec spec;
};

std::string encode_shard_request(const ShardRequest& r);
std::optional<ShardRequest> decode_shard_request(std::string_view payload,
                                                 std::string* error = nullptr);

/// Shard completion (FrameType::ShardResult payload): header + raw result
/// bytes (the shard's partial).
struct ShardResultMsg {
  std::uint64_t job = 0;
  std::uint32_t shard_index = 0;
  std::string payload;
};

std::string encode_shard_result(const ShardResultMsg& m);
std::optional<ShardResultMsg> decode_shard_result(std::string_view payload);

/// Shard failure (FrameType::ShardError payload). Shards are pure
/// functions of (spec, seed, range), so a failure is deterministic and the
/// coordinator fails the job instead of retrying.
struct ShardErrorMsg {
  std::uint64_t job = 0;
  std::uint32_t shard_index = 0;
  std::string error;
};

std::string encode_shard_error(const ShardErrorMsg& m);
std::optional<ShardErrorMsg> decode_shard_error(std::string_view payload);

/// In-shard progress beacon (FrameType::ShardProgress payload).
struct ShardProgressMsg {
  std::uint64_t job = 0;
  std::uint32_t shard_index = 0;
  std::uint64_t done = 0;   ///< trials finished within this shard
  std::uint64_t total = 0;  ///< == range.count
};

std::string encode_shard_progress(const ShardProgressMsg& m);
std::optional<ShardProgressMsg> decode_shard_progress(std::string_view payload);

// ---------------------------------------------------------------------------
// Lossless rtl shard partial.
// ---------------------------------------------------------------------------

std::string encode_rtl_partial(const rtlfi::CampaignResult& r);
std::optional<rtlfi::CampaignResult> decode_rtl_partial(
    std::string_view payload, std::string* error = nullptr);

}  // namespace gpufi::fabric
