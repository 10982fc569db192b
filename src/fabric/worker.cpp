#include "fabric/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace gpufi::fabric {

namespace {

void logf(const WorkerConfig& cfg, const char* fmt, ...) {
  if (cfg.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "gpufi-worker: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

}  // namespace

Worker::Worker(WorkerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.name.empty())
    cfg_.name = "worker-" + std::to_string(::getpid());
}

Worker::~Worker() { stop(); }

void Worker::start() {
  Hello hello;
  hello.version = cfg_.protocol_version;
  hello.name = cfg_.name;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  // Encoded before connecting: a name with a newline throws here.
  std::string hello_payload = encode_hello(hello);
  fd_ = connect_endpoint(cfg_.coordinator);
  if (fd_ < 0)
    throw std::runtime_error("cannot connect to coordinator at " +
                             cfg_.coordinator.describe());
  if (!serve::write_frame(
          fd_, {serve::FrameType::Hello, std::move(hello_payload)})) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("coordinator closed during handshake");
  }
  serve::Frame reply;
  if (serve::read_frame(fd_, reply) != serve::ReadStatus::Ok) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("coordinator closed during handshake");
  }
  if (reply.type == serve::FrameType::Error) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(reply.payload);
  }
  if (reply.type != serve::FrameType::HelloAck) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("unexpected handshake reply from coordinator");
  }
  logf(cfg_, "registered with %s as %s", cfg_.coordinator.describe().c_str(),
       cfg_.name.c_str());
  running_.store(true);
  connected_.store(true);
  loop_ = std::thread([this] { run_loop(); });
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

void Worker::join() {
  if (loop_.joinable()) loop_.join();
  running_.store(false);
  if (heartbeat_.joinable()) heartbeat_.join();
}

void Worker::stop() {
  running_.store(false);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (loop_.joinable()) loop_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_.store(false);
}

bool Worker::send(serve::FrameType type, std::string payload) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return serve::write_frame(fd_, {type, std::move(payload)});
}

void Worker::heartbeat_loop() {
  // Sliced sleep so stop() never waits a full heartbeat period.
  const auto slice = std::chrono::milliseconds(20);
  auto next = std::chrono::steady_clock::now();
  while (running_.load()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next) {
      if (!send(serve::FrameType::Heartbeat, {})) return;
      next = now + std::chrono::milliseconds(cfg_.heartbeat_ms);
    }
    std::this_thread::sleep_for(slice);
  }
}

std::string Worker::execute(const ShardRequest& req) {
  const serve::CampaignSpec& spec = req.spec;
  obs::Span span("fabric.shard");
  span.set("job", req.job);
  span.set("shard", static_cast<std::uint64_t>(req.shard_index));
  const exec::ProgressFn progress = [this, &req](const exec::Progress& p) {
    ShardProgressMsg m;
    m.job = req.job;
    m.shard_index = req.shard_index;
    m.done = p.done;
    m.total = p.total;
    send(serve::FrameType::ShardProgress, encode_shard_progress(m));
  };
  // A shard runs its trial range and ships the partial the coordinator
  // merges: the lossless rtl partial, or the public payload of the range
  // (sw and cnn; a planned sw campaign runs whole). caches_ is the
  // per-worker golden and DB tier.
  if (spec.kind == serve::CampaignKind::Rtl ||
      spec.kind == serve::CampaignKind::Tmxm)
    return encode_rtl_partial(
        serve::run_rtl_spec(spec, caches_, progress, nullptr, req.range));
  return serve::run_spec(spec, caches_, progress, nullptr, req.range);
}

void Worker::run_loop() {
  for (;;) {
    serve::Frame frame;
    const auto status = serve::read_frame(fd_, frame);
    if (status != serve::ReadStatus::Ok) break;
    if (frame.type != serve::FrameType::ShardRequest) continue;
    const auto req = decode_shard_request(frame.payload);
    if (!req) {
      logf(cfg_, "dropping malformed shard request");
      continue;
    }
    if (cfg_.fail_after_shards != 0 &&
        shards_done_.load() >= cfg_.fail_after_shards) {
      // Test hook: die with this shard in flight, the way a crashed
      // process would — no result, no orderly goodbye.
      logf(cfg_, "fail_after_shards hook firing");
      ::shutdown(fd_, SHUT_RDWR);
      break;
    }
    try {
      auto payload = execute(*req);
      ShardResultMsg m;
      m.job = req->job;
      m.shard_index = req->shard_index;
      m.payload = std::move(payload);
      if (!send(serve::FrameType::ShardResult, encode_shard_result(m))) break;
      shards_done_.fetch_add(1);
      obs::count("gpufi_fabric_worker_shards_total");
    } catch (const std::exception& e) {
      ShardErrorMsg m;
      m.job = req->job;
      m.shard_index = req->shard_index;
      m.error = e.what();
      if (!send(serve::FrameType::ShardError, encode_shard_error(m))) break;
    }
  }
  running_.store(false);
  connected_.store(false);
}

}  // namespace gpufi::fabric
