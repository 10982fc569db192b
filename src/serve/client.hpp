#pragma once

// Client side of the gpufi-serve protocol: connect, submit one campaign,
// stream progress, collect the final Result/Error frame. Used by
// `gpufi submit` / `gpufi status` and by the loopback tests.

#include <functional>
#include <optional>
#include <string>

#include "exec/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace gpufi::serve {

struct SubmitOutcome {
  bool ok = false;           ///< a Result frame arrived
  std::string error;         ///< Error-frame payload or transport failure
  std::string result;        ///< Result-frame payload (the campaign bytes)
  std::size_t progress_frames = 0;
};

/// Submits `spec` and blocks until the server answers with Result or Error
/// (invoking `on_progress`, when given, per Progress frame in between).
SubmitOutcome submit_campaign(
    const std::string& socket_path, const CampaignSpec& spec,
    const std::function<void(const exec::Progress&)>& on_progress = {});

/// Asks the daemon for its stats snapshot. Returns nullopt (filling `error`
/// when given) if the daemon is unreachable or answers garbage.
std::optional<ServerStats> query_stats(const std::string& socket_path,
                                       std::string* error = nullptr);

/// Asks the daemon for its Prometheus text exposition (a Metrics frame in
/// answer to MetricsRequest). Returns nullopt (filling `error` when given)
/// if the daemon is unreachable or answers with anything else.
std::optional<std::string> query_metrics(const std::string& socket_path,
                                         std::string* error = nullptr);

/// Submits `spec` as a report: an rtl (or report) spec with kind=report.
/// Returns the report JSON of the Result frame, or nullopt filling `error`;
/// a tmxm, sw or cnn spec is refused without contacting the daemon.
std::optional<std::string> query_report(
    const std::string& socket_path, const CampaignSpec& spec,
    const std::function<void(const exec::Progress&)>& on_progress = {},
    std::string* error = nullptr);

}  // namespace gpufi::serve
