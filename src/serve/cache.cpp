#include "serve/cache.hpp"

#include "core/gpufi.hpp"

namespace gpufi::serve {

std::shared_ptr<const syndrome::Database> Caches::syndrome_db(
    const std::string& path, unsigned jobs) {
  return dbs_.get_or_compute(path, [&] {
    core::RtlCharacterizationConfig cfg;
    cfg.jobs = jobs;
    cfg.progress = db_build_progress_;
    return core::ensure_syndrome_database(path, cfg);
  });
}

std::shared_ptr<const rtlfi::GoldenContext> Caches::golden(
    const std::string& key,
    const std::function<rtlfi::GoldenContext()>& make) {
  return goldens_.get_or_compute(key, make);
}

}  // namespace gpufi::serve
