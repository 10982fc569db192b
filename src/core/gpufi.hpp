#pragma once

#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "nn/network.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::core {

/// Scale parameters for the RTL characterization that populates the
/// syndrome database. The paper runs 144 campaigns of >12000 faults
/// (1.7M+ injections); the defaults here are sized for a single-core
/// machine and can be raised via `paper_scale()`.
struct RtlCharacterizationConfig {
  /// Faults per micro-benchmark campaign, over all its value seeds (the
  /// first faults_per_campaign % value_seeds seeds run one more).
  std::size_t faults_per_campaign = 1500;
  std::size_t value_seeds = 2;     ///< input values averaged per range
  std::size_t tmxm_faults = 2500;  ///< per (site, tile kind)
  std::uint64_t seed = 2021;
  /// Parallelism across the characterization campaigns (0 resolves to
  /// ThreadPool::default_jobs()). Every campaign's seed is derived from
  /// (seed, campaign index), so the database is identical for every value.
  unsigned jobs = 0;
  /// Fault models characterized, one full micro-benchmark grid per model.
  /// A set: the grid walks rtl::FaultModel in enum order and takes each
  /// listed model once, so neither order nor repeats change the database
  /// bytes, and Transient (when listed) keeps the grid indices — hence the
  /// derived seeds — of the transient-only grid. Non-transient models use
  /// permanent windows (duration 0); t-MxM pattern campaigns run for
  /// Transient only.
  std::vector<rtl::FaultModel> fault_models = {rtl::FaultModel::Transient};
  /// Optional telemetry (campaigns finished, campaigns/sec, ETA).
  exec::ProgressFn progress;

  /// The paper's published campaign scale (Sec. V-B).
  static RtlCharacterizationConfig paper_scale() {
    RtlCharacterizationConfig c;
    c.faults_per_campaign = 12000;  // 3000 per value seed
    c.value_seeds = 4;
    c.tmxm_faults = 12000;
    return c;
  }
};

/// Runs the full RTL characterization: every (module, instruction, input
/// range) of Table I / Fig. 4 plus the t-MxM mini-app on scheduler and
/// pipeline, and returns the populated, power-law-fitted syndrome database
/// — the two-level framework's hand-off artifact.
syndrome::Database build_syndrome_database(
    const RtlCharacterizationConfig& cfg = {});

/// Loads the syndrome database from `path`, or builds it with `cfg` and
/// saves it there first. The expensive RTL characterization therefore runs
/// once per configuration.
syndrome::Database ensure_syndrome_database(
    const std::string& path, const RtlCharacterizationConfig& cfg = {});

/// Trained CNNs used by the paper's CNN experiments.
struct Models {
  nn::Network lenet;
  nn::Network yololite;
};

/// Loads LeNet and YoloLite from `dir`, or trains them on the synthetic
/// datasets and saves them there first. Scoring a network is the caller's
/// business (nn::digit_accuracy).
Models ensure_models(const std::string& dir, unsigned lenet_steps = 4000,
                     unsigned yolo_steps = 4000);

}  // namespace gpufi::core
