#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace gpufi::nn {

/// A convolution layer description (stride 1, valid padding) shared by the
/// host trainer and the emulator-backed inference path.
struct ConvLayer {
  unsigned in_c, in_h, in_w;
  unsigned out_c, k;  ///< square k x k kernels
  bool relu = true;
  bool pool = false;  ///< 2x2 max pooling after activation
  std::vector<float> weights;  ///< [out_c][in_c][k][k]
  std::vector<float> bias;     ///< [out_c]

  unsigned conv_h() const { return in_h - k + 1; }
  unsigned conv_w() const { return in_w - k + 1; }
  unsigned out_h() const { return pool ? conv_h() / 2 : conv_h(); }
  unsigned out_w() const { return pool ? conv_w() / 2 : conv_w(); }
  /// GEMM dimensions of the im2col formulation (Fig. layer = M x N matrix).
  unsigned gemm_m() const { return out_c; }
  unsigned gemm_k() const { return in_c * k * k; }
  unsigned gemm_n() const { return conv_h() * conv_w(); }
  std::size_t params() const { return weights.size() + bias.size(); }
};

/// A fully connected layer (treated as a 1x1 GEMM downstream).
struct FcLayer {
  unsigned in_n, out_n;
  bool relu = true;
  std::vector<float> weights;  ///< [out_n][in_n]
  std::vector<float> bias;
  std::size_t params() const { return weights.size() + bias.size(); }
};

/// A small sequential CNN: conv stack followed by an FC stack. This is all
/// the structure LeNet-5 and the scaled-down detector need.
struct Network {
  std::string name;
  unsigned in_c = 1, in_h = 28, in_w = 28;
  std::vector<ConvLayer> convs;
  std::vector<FcLayer> fcs;

  std::size_t total_params() const;
  /// Mean parameter count per layer (the paper contrasts LeNet's ~12k with
  /// YOLO's ~100k average).
  double mean_params_per_layer() const;

  void save_file(const std::string& path) const;
  static Network load_file(const std::string& path);
};

/// Host-side forward pass (the reference semantics; the emulator-backed
/// path in gpu_infer.hpp matches it within float accumulation noise).
std::vector<float> host_forward(const Network& net, const Tensor& input);

// ---------------------------------------------------------------------------
// Architectures
// ---------------------------------------------------------------------------

/// LeNet-5 for 28x28 single-channel digits (10 classes).
Network make_lenet(Rng& rng);

/// "YoloLite": a scaled-down single-shot detector for 32x32 scenes.
/// Output: a 6x6 grid of cells, each predicting [objectness, class0..2,
/// dx, dy, dw, dh] (8 channels). Its layer output matrices are much larger
/// than LeNet's, so a corrupted 8x8 GEMM tile is a small fraction of a
/// layer — the structural property behind the paper's LeNet-vs-YOLO t-MxM
/// contrast.
Network make_yololite(Rng& rng);

/// Grid geometry of the detector head.
constexpr unsigned kDetGrid = 6;
constexpr unsigned kDetClasses = 3;
constexpr unsigned kDetChannels = 4 + kDetClasses + 1;  // obj + cls + box

// ---------------------------------------------------------------------------
// Synthetic datasets (substitutes for MNIST / VOC2012; see DESIGN.md)
// ---------------------------------------------------------------------------

/// A labelled digit image.
struct DigitSample {
  Tensor image;  ///< 1x28x28, values in [0,1]
  unsigned label = 0;
};

/// Deterministic synthetic seven-segment-style digit with jitter and noise.
DigitSample make_digit(Rng& rng);

/// An axis-aligned ground-truth object.
struct DetObject {
  unsigned cls = 0;
  float cx = 0, cy = 0, bw = 0, bh = 0;  ///< normalized to [0,1]
};

/// A detection scene with 1-2 shapes (square/disc/cross = 3 classes).
struct SceneSample {
  Tensor image;  ///< 1x32x32
  std::vector<DetObject> objects;
};

SceneSample make_scene(Rng& rng);

// ---------------------------------------------------------------------------
// Training (host backprop; SGD with momentum)
// ---------------------------------------------------------------------------

/// Finite-difference gradient check of the trainer's backward pass on a
/// tiny conv+fc network with a softmax cross-entropy head. Returns the
/// maximum relative error across sampled parameters (should be < 1e-2).
double gradient_check(Rng& rng);

/// Trains LeNet on synthetic digits; returns its digit_accuracy on a
/// 500-digit holdout drawn from `rng` after training.
double train_lenet(Network& net, Rng& rng, unsigned steps = 6000);

/// Share of `n` fresh synthetic digits drawn from `rng` that `net`
/// classifies correctly on the host.
double digit_accuracy(const Network& net, Rng& rng, unsigned n);

/// Trains the detector on synthetic scenes (objectness BCE + class CE +
/// box L2 on positive cells); returns holdout detection F1.
double train_yololite(Network& net, Rng& rng, unsigned steps = 4000);

// ---------------------------------------------------------------------------
// Task-level decoding and criticality
// ---------------------------------------------------------------------------

/// Argmax class of a classifier output.
unsigned classify(const std::vector<float>& logits);

/// One decoded detection.
struct Detection {
  unsigned cls;
  float cx, cy, bw, bh;
  float score;
};

/// Decodes detector output (cells with objectness above `threshold`).
std::vector<Detection> decode_detections(const std::vector<float>& raw,
                                         float threshold = 0.5f);

/// True if two detection sets agree (same cardinality, matched classes,
/// IoU >= 0.5) — the paper's criterion for a *tolerable* SDC; disagreement
/// is a critical SDC (misdetection).
bool detections_match(const std::vector<Detection>& a,
                      const std::vector<Detection>& b);

/// Intersection-over-union of two boxes given as (cx, cy, w, h).
float iou(const Detection& a, const Detection& b);

}  // namespace gpufi::nn
