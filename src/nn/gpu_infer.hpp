#pragma once

#include <optional>
#include <vector>

#include "emu/device.hpp"
#include "exec/engine.hpp"
#include "nn/network.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::nn {

/// A t-MxM corruption to apply during inference: the RTL-characterized
/// spatial pattern + relative errors hit one 8x8 tile of one layer's output
/// matrix (Sec. IV-B: "picks a random tile during the execution of a random
/// CNN layer and modifies its output elements according to the syndrome").
struct TileFault {
  unsigned layer = 0;                 ///< GEMM index (convs then fcs)
  unsigned tile_row = 0, tile_col = 0;  ///< tile coords in the padded matrix
  syndrome::TileCorruption corruption;
  std::uint64_t sign_seed = 1;        ///< per-element corruption signs
};

/// Options for one inference run.
struct InferOptions {
  emu::InstrumentHook* hook = nullptr;      ///< software fault injector
  const TileFault* tile_fault = nullptr;    ///< t-MxM corruption
};

/// Emulator-backed CNN inference: every convolution and fully connected
/// layer lowers to im2col + the tiled 8x8 GEMM kernel executed on the SIMT
/// emulator (so NVBitFI-style injection reaches the real instruction
/// stream); im2col packing, bias/ReLU/pooling run on the host.
class GpuInference {
 public:
  explicit GpuInference(const Network& net);

  /// GEMM layer count (convs + fcs).
  unsigned gemm_layers() const;
  /// Unpadded output-matrix dimensions (M, N) of GEMM layer `i`.
  std::pair<unsigned, unsigned> layer_dims(unsigned i) const;
  /// Padded tile-grid dimensions (tiles_m, tiles_n) of GEMM layer `i`.
  std::pair<unsigned, unsigned> layer_tiles(unsigned i) const;

  /// Device words needed for the largest layer's A/B/C buffers.
  std::size_t device_words() const { return device_words_; }

  /// Runs inference on `dev`; returns the raw network output, or nullopt
  /// if a kernel trapped or hung (DUE).
  std::optional<std::vector<float>> run(emu::Device& dev,
                                        const Tensor& input,
                                        const InferOptions& opts) const;

 private:
  struct Gemm {
    unsigned m = 0, n = 0, k = 0;   ///< logical dims
    unsigned mp = 0, np = 0, kp = 0;  ///< padded to multiples of 8
    std::vector<float> a;  ///< padded weight matrix (mp x kp)
    const ConvLayer* conv = nullptr;  ///< non-null for conv layers
    const FcLayer* fc = nullptr;      ///< non-null for fc layers
  };

  const Network* net_;
  std::vector<Gemm> gemms_;
  std::size_t device_words_ = 0;
};

/// Fault model selector for CNN campaigns (the three columns of the
/// paper's CNN analysis: bit-flip, RTL relative error, t-MxM tile).
enum class CnnFaultModel : std::uint8_t {
  SingleBitFlip,
  RelativeError,
  TiledMxM,
};

std::string_view cnn_fault_model_name(CnnFaultModel m);

/// Outcome of a CNN fault-injection campaign, including the paper's
/// tolerable-vs-critical SDC split (critical = the network's top-level
/// decision changed: misclassification or misdetection).
struct CnnCampaignResult {
  std::size_t injections = 0;
  std::size_t masked = 0;
  std::size_t sdc = 0;           ///< any output mismatch
  std::size_t critical = 0;      ///< decision changed
  std::size_t due = 0;

  double pvf() const {
    return injections == 0 ? 0.0
                           : static_cast<double>(sdc) / injections;
  }
  double critical_rate() const {
    return injections == 0 ? 0.0
                           : static_cast<double>(critical) / injections;
  }

  /// Accumulates another (partial) campaign's counters.
  void merge(const CnnCampaignResult& other);
};

/// Task of the network under test (decides the criticality criterion).
enum class CnnTask : std::uint8_t { Classification, Detection };

/// Runs a CNN fault-injection campaign on a fixed deterministic input:
/// one corrupted inference per trial of `cfg` (exec::run_trials: trial i
/// draws from Rng(rng_derive(cfg.seed, i)), each chunk reuses one device),
/// classified against the golden run (SDC = raw output mismatch; critical =
/// decision change). TiledMxM samples its tile patterns from `db` and
/// throws std::invalid_argument without one; RelativeError samples its
/// syndromes from `db` when given one.
CnnCampaignResult run_cnn_campaign(const Network& net, CnnTask task,
                                   CnnFaultModel model,
                                   const syndrome::Database* db,
                                   const exec::EngineConfig& cfg);

}  // namespace gpufi::nn
