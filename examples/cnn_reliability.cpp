// CNN reliability study: LeNet under the three fault models of Sec. VI —
// single bit-flip, RTL relative-error syndrome, and the t-MxM tile
// corruption (the scheduler-class multi-element fault that single-thread
// models cannot represent). Reports the tolerable-vs-critical SDC split.
//
// Trained weights and the syndrome database are cached under gpufi_data/.
#include <cstdio>

#include "core/gpufi.hpp"
#include "nn/gpu_infer.hpp"

using namespace gpufi;

int main() {
  std::printf("loading syndrome database and trained LeNet...\n");
  const auto db = core::ensure_syndrome_database("gpufi_data/syndromes.db");
  const auto models = core::ensure_models("gpufi_data");
  Rng holdout(777);
  std::printf("LeNet holdout accuracy: %.1f%%  (%zu parameters)\n\n",
              100 * nn::digit_accuracy(models.lenet, holdout, 300),
              models.lenet.total_params());

  exec::EngineConfig ec;
  ec.n_trials = 120;
  ec.seed = 23;
  for (auto model : {nn::CnnFaultModel::SingleBitFlip,
                     nn::CnnFaultModel::RelativeError,
                     nn::CnnFaultModel::TiledMxM}) {
    const auto r = nn::run_cnn_campaign(
        models.lenet, nn::CnnTask::Classification, model, &db, ec);
    std::printf("%-16s: PVF %.3f, critical (misclassification) %.3f",
                std::string(cnn_fault_model_name(model)).c_str(), r.pvf(),
                r.critical_rate());
    if (r.sdc > 0)
      std::printf("  [%zu of %zu SDCs critical]",
                  static_cast<std::size_t>(r.critical), r.sdc);
    std::printf("\n");
  }

  std::printf(
      "\nThe paper's CNN finding: single-thread fault models (bit-flip,\n"
      "relative error) rarely change LeNet's decision — ReLU and max-pool\n"
      "absorb them — while the t-MxM tile corruption (the footprint of a\n"
      "real scheduler fault) corrupts a large fraction of a small layer\n"
      "and causes misclassifications. Hardening should therefore target\n"
      "the scheduler/control structures.\n");
  return 0;
}
