#include "common/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/kv.hpp"

namespace gpufi {

struct ThreadPool::Impl {
  // Batch state, published under `mutex` and executed lock-free: workers
  // claim task indices from `next` until it passes `batch_n`.
  std::mutex mutex;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t batch_n = 0;
  std::uint64_t generation = 0;  // bumped per batch to wake parked workers
  std::atomic<std::size_t> next{0};
  std::size_t in_flight = 0;  // workers still draining the current batch
  std::exception_ptr first_error;
  bool shutting_down = false;

  std::vector<std::thread> workers;

  void drain() {
    // Claim-and-run loop shared by pool workers and the calling thread.
    const auto* t = task;
    const std::size_t n = batch_n;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*t)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  void worker_loop() {
    // `in_flight` is pre-charged with the full worker count when a batch is
    // published, so the batch only completes once every worker has woken,
    // drained, and checked out — a late waker can never observe the pool
    // between batches with a dangling `task`.
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        start_cv.wait(lock,
                      [&] { return shutting_down || generation != seen; });
        if (shutting_down) return;
        seen = generation;
      }
      drain();
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--in_flight == 0) done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(unsigned jobs) : impl_(new Impl) {
  if (jobs == 0) jobs = default_jobs();
  impl_->workers.reserve(jobs - 1);
  for (unsigned i = 1; i < jobs; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->start_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size()) + 1;
}

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  if (impl_->workers.empty()) {
    // Single-job pool: no synchronization, plain loop on the caller.
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->task = &task;
    impl_->batch_n = n;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->first_error = nullptr;
    impl_->in_flight = impl_->workers.size();
    ++impl_->generation;
  }
  impl_->start_cv.notify_all();
  impl_->drain();  // the calling thread is a worker too
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->done_cv.wait(lock, [&] { return impl_->in_flight == 0; });
  impl_->task = nullptr;
  if (impl_->first_error) std::rethrow_exception(impl_->first_error);
}

unsigned ThreadPool::default_jobs() {
  if (const char* env = std::getenv("GPUFI_JOBS")) {
    const auto v = kv::parse_number<unsigned>(env);
    if (v && *v > 0) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace gpufi
