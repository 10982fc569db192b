#pragma once

// Bounded priority job queue for gpufi-serve.
//
// Admission control is reject-with-backpressure: push() on a full queue
// returns false immediately (the server answers the client with an Error
// frame instead of buffering unboundedly or blocking the accept loop).
// Workers pop in (priority, arrival) order; close() stops admissions while
// letting workers drain what was already accepted — the graceful-SIGTERM
// path — and drain_pending() empties the queue for a forced shutdown.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <condition_variable>
#include <utility>
#include <vector>

#include "exec/engine.hpp"
#include "serve/protocol.hpp"

namespace gpufi::serve {

/// One admitted campaign request. The job owns its connection fd (the
/// server closes it exactly once, after the final Result/Error frame).
struct Job {
  std::uint64_t id = 0;
  CampaignSpec spec;
  int fd = -1;
  /// Cooperative stop flag shared with the connection watcher: client
  /// disconnect / deadline expiry cancel the trial loop through it.
  std::shared_ptr<exec::CancelToken> cancel;
  /// Admission time — the queue-wait histogram measures from here to the
  /// moment a worker picks the job up.
  std::chrono::steady_clock::time_point enqueued_at{};
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity);

  /// Admits a job unless the queue is full or closed. Never blocks.
  bool push(Job job);

  /// Blocks for the next job in (priority, arrival) order; returns nullopt
  /// once the queue is closed AND drained — the worker-exit signal.
  std::optional<Job> pop();

  /// Stops admissions and wakes every blocked pop(); already-queued jobs
  /// are still handed out (drain semantics).
  void close();

  /// Empties the queue (for forced shutdown); the caller owns the returned
  /// jobs' fds and cancel tokens.
  std::vector<Job> drain_pending();

  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  /// Jobs bounced by admission control since construction.
  std::size_t rejected() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Ordered by (priority, arrival seq): lowest priority value first, FIFO
  /// within a priority class.
  std::map<std::pair<int, std::uint64_t>, Job> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t rejected_ = 0;
  bool closed_ = false;
};

}  // namespace gpufi::serve
