#include "serve/client.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fabric/transport.hpp"

namespace gpufi::serve {

SubmitOutcome submit_campaign(
    const std::string& socket_path, const CampaignSpec& spec,
    const std::function<void(const exec::Progress&)>& on_progress) {
  SubmitOutcome out;
  const int fd = fabric::connect_endpoint({.path = socket_path});
  if (fd < 0) {
    out.error = "connect(" + socket_path + "): " + std::strerror(errno);
    return out;
  }
  if (!write_frame(fd, {FrameType::Submit, encode_spec(spec)})) {
    out.error = "failed to send the campaign spec";
    ::close(fd);
    return out;
  }
  for (;;) {
    Frame f;
    const ReadStatus st = read_frame(fd, f);
    if (st != ReadStatus::Ok) {
      out.error = st == ReadStatus::Eof
                      ? "server closed the connection without a result"
                      : "transport error while waiting for the result";
      break;
    }
    if (f.type == FrameType::Progress) {
      ++out.progress_frames;
      if (on_progress) {
        if (const auto p = decode_progress(f.payload)) on_progress(*p);
      }
      continue;
    }
    if (f.type == FrameType::Result) {
      out.ok = true;
      out.result = std::move(f.payload);
    } else {
      out.error = f.type == FrameType::Error
                      ? std::move(f.payload)
                      : "unexpected frame type from server";
    }
    break;
  }
  ::close(fd);
  return out;
}

std::optional<ServerStats> query_stats(const std::string& socket_path,
                                       std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<ServerStats> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  const int fd = fabric::connect_endpoint({.path = socket_path});
  if (fd < 0)
    return fail("connect(" + socket_path + "): " + std::strerror(errno));
  if (!write_frame(fd, {FrameType::Status, ""})) {
    ::close(fd);
    return fail("failed to send the status request");
  }
  Frame f;
  const ReadStatus st = read_frame(fd, f);
  ::close(fd);
  if (st != ReadStatus::Ok) return fail("no stats reply from server");
  if (f.type == FrameType::Error) return fail(std::move(f.payload));
  if (f.type != FrameType::Stats) return fail("unexpected reply frame type");
  auto stats = decode_stats(f.payload);
  if (!stats) return fail("malformed stats payload");
  return stats;
}

std::optional<std::string> query_metrics(const std::string& socket_path,
                                         std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<std::string> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  const int fd = fabric::connect_endpoint({.path = socket_path});
  if (fd < 0)
    return fail("connect(" + socket_path + "): " + std::strerror(errno));
  if (!write_frame(fd, {FrameType::MetricsRequest, ""})) {
    ::close(fd);
    return fail("failed to send the metrics request");
  }
  Frame f;
  const ReadStatus st = read_frame(fd, f);
  ::close(fd);
  if (st != ReadStatus::Ok) return fail("no metrics reply from server");
  if (f.type == FrameType::Error) return fail(std::move(f.payload));
  if (f.type != FrameType::Metrics)
    return fail("unexpected reply frame type");
  return std::move(f.payload);
}

std::optional<std::string> query_report(
    const std::string& socket_path, const CampaignSpec& spec,
    const std::function<void(const exec::Progress&)>& on_progress,
    std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<std::string> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  if (spec.kind != CampaignKind::Rtl && spec.kind != CampaignKind::Report)
    return fail("attribution reports require an rtl campaign spec");
  CampaignSpec report = spec;
  report.kind = CampaignKind::Report;
  auto outcome = submit_campaign(socket_path, report, on_progress);
  if (!outcome.ok) return fail(std::move(outcome.error));
  return std::move(outcome.result);
}

}  // namespace gpufi::serve
