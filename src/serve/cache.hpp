#pragma once

// Process-wide read-only caches for gpufi-serve: parsed syndrome databases
// and golden RTL traces are expensive to (re)build, identical for every
// request with the same key, and immutable once built — so N concurrent
// campaign requests share one copy instead of recomputing N times.

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "rtlfi/campaign.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::serve {

struct CacheStats {
  std::size_t hits = 0;    ///< lookups served from an existing entry
  std::size_t misses = 0;  ///< lookups that triggered (exactly one) compute
};

/// Single-flight keyed cache: the first requester of a key computes the
/// value while every concurrent requester of the same key blocks on the same
/// future — one compute per key, ever, no matter how many threads race on a
/// cold entry. A failed compute is not poisoned into the cache: the
/// exception propagates to every waiter of that flight and the next
/// requester retries.
template <class Value>
class SharedCache {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// `cache_label` names this cache in the metrics exposition
  /// (gpufi_serve_cache_{hits,misses}_total{cache="..."}); empty = no
  /// metrics.
  explicit SharedCache(std::string cache_label = {}) {
    if (!cache_label.empty()) {
      hits_metric_ = obs::label("gpufi_serve_cache_hits_total", "cache",
                                cache_label);
      misses_metric_ = obs::label("gpufi_serve_cache_misses_total", "cache",
                                  cache_label);
    }
  }

  Ptr get_or_compute(const std::string& key,
                     const std::function<Value()>& compute) {
    std::shared_future<Ptr> flight;
    std::promise<Ptr> promise;
    bool owner = false;
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++stats_.hits;
        hit = true;
        flight = it->second;
      } else {
        ++stats_.misses;
        flight = promise.get_future().share();
        entries_.emplace(key, flight);
        owner = true;
      }
    }
    if (!hits_metric_.empty()) obs::count(hit ? hits_metric_ : misses_metric_);
    if (owner) {
      try {
        promise.set_value(std::make_shared<const Value>(compute()));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
      }
    }
    return flight.get();  // rethrows the owner's exception, if any
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_future<Ptr>> entries_;
  CacheStats stats_;
  std::string hits_metric_, misses_metric_;
};

/// The two caches a gpufi-serve process shares across requests.
class Caches {
 public:
  /// `db_build_progress` reports a cold syndrome-DB build (campaigns done);
  /// the CLI prints it, the daemon and fabric workers build silently.
  explicit Caches(exec::ProgressFn db_build_progress = {})
      : db_build_progress_(std::move(db_build_progress)),
        dbs_("db"),
        goldens_("golden") {}

  /// Syndrome database by file path: loads (or builds and saves) once via
  /// core::ensure_syndrome_database, then serves the parsed object to every
  /// request. `jobs` parallelizes a cold build only.
  std::shared_ptr<const syndrome::Database> syndrome_db(
      const std::string& path, unsigned jobs);

  /// Golden context (reference run + checkpoint ladder) by workload key —
  /// see rtlfi::prepare_golden for what the key must capture.
  std::shared_ptr<const rtlfi::GoldenContext> golden(
      const std::string& key,
      const std::function<rtlfi::GoldenContext()>& make);

  CacheStats syndrome_db_stats() const { return dbs_.stats(); }
  CacheStats golden_stats() const { return goldens_.stats(); }

 private:
  exec::ProgressFn db_build_progress_;
  SharedCache<syndrome::Database> dbs_;
  SharedCache<rtlfi::GoldenContext> goldens_;
};

}  // namespace gpufi::serve
