#include "nn/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace gpufi::nn {

namespace {

// Leaky rectifier (slope 0.1), as in Darknet/YOLO: avoids dead units in
// the small single-sample-SGD training regime.
constexpr float kLeak = 0.1f;
float relu(float x) { return x > 0 ? x : kLeak * x; }
float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void he_init(std::vector<float>& w, std::size_t fan_in, Rng& rng) {
  const float scale = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (auto& v : w)
    v = scale * static_cast<float>(rng.uniform(-1.0, 1.0)) * 1.73205f;
}

}  // namespace

std::size_t Network::total_params() const {
  std::size_t n = 0;
  for (const auto& c : convs) n += c.params();
  for (const auto& f : fcs) n += f.params();
  return n;
}

double Network::mean_params_per_layer() const {
  const std::size_t layers = convs.size() + fcs.size();
  return layers == 0 ? 0.0
                     : static_cast<double>(total_params()) /
                           static_cast<double>(layers);
}

// --------------------------------------------------------------- forward

namespace {

/// Convolution + bias (valid padding, stride 1).
Tensor conv_forward(const ConvLayer& l, const Tensor& in) {
  Tensor out(l.out_c, l.conv_h(), l.conv_w());
  for (unsigned oc = 0; oc < l.out_c; ++oc) {
    const float b = l.bias[oc];
    for (unsigned y = 0; y < out.h; ++y) {
      for (unsigned x = 0; x < out.w; ++x) {
        float acc = b;
        for (unsigned ic = 0; ic < l.in_c; ++ic)
          for (unsigned ky = 0; ky < l.k; ++ky)
            for (unsigned kx = 0; kx < l.k; ++kx)
              acc += l.weights[((oc * l.in_c + ic) * l.k + ky) * l.k + kx] *
                     in.at(ic, y + ky, x + kx);
        out.at(oc, y, x) = acc;
      }
    }
  }
  return out;
}

Tensor apply_relu(const Tensor& t) {
  Tensor out = t;
  for (auto& v : out.data) v = relu(v);
  return out;
}

Tensor pool2x2(const Tensor& t, std::vector<unsigned>* argmax = nullptr) {
  Tensor out(t.c, t.h / 2, t.w / 2);
  if (argmax) argmax->assign(out.size(), 0);
  std::size_t o = 0;
  for (unsigned c = 0; c < t.c; ++c)
    for (unsigned y = 0; y < out.h; ++y)
      for (unsigned x = 0; x < out.w; ++x, ++o) {
        float best = -1e30f;
        unsigned best_i = 0;
        for (unsigned dy = 0; dy < 2; ++dy)
          for (unsigned dx = 0; dx < 2; ++dx) {
            const unsigned yy = 2 * y + dy, xx = 2 * x + dx;
            const float v = t.at(c, yy, xx);
            if (v > best) {
              best = v;
              best_i = (c * t.h + yy) * t.w + xx;
            }
          }
        out.data[o] = best;
        if (argmax) (*argmax)[o] = best_i;
      }
  return out;
}

std::vector<float> fc_forward(const FcLayer& l, const std::vector<float>& in) {
  std::vector<float> out(l.out_n);
  for (unsigned o = 0; o < l.out_n; ++o) {
    float acc = l.bias[o];
    for (unsigned i = 0; i < l.in_n; ++i)
      acc += l.weights[o * l.in_n + i] * in[i];
    out[o] = l.relu ? relu(acc) : acc;
  }
  return out;
}

}  // namespace

std::vector<float> host_forward(const Network& net, const Tensor& input) {
  Tensor t = input;
  for (const auto& c : net.convs) {
    t = conv_forward(c, t);
    if (c.relu) t = apply_relu(t);
    if (c.pool) t = pool2x2(t);
  }
  std::vector<float> v = std::move(t.data);
  for (const auto& f : net.fcs) v = fc_forward(f, v);
  return v;
}

// --------------------------------------------------------- architectures

Network make_lenet(Rng& rng) {
  Network net;
  net.name = "LeNet";
  net.in_c = 1;
  net.in_h = net.in_w = 28;
  auto conv = [&](unsigned in_c, unsigned in_h, unsigned in_w, unsigned out_c,
                  unsigned k, bool pool) {
    ConvLayer l;
    l.in_c = in_c;
    l.in_h = in_h;
    l.in_w = in_w;
    l.out_c = out_c;
    l.k = k;
    l.pool = pool;
    l.weights.resize(static_cast<std::size_t>(out_c) * in_c * k * k);
    l.bias.assign(out_c, 0.0f);
    he_init(l.weights, static_cast<std::size_t>(in_c) * k * k, rng);
    return l;
  };
  auto fc = [&](unsigned in_n, unsigned out_n, bool relu_on) {
    FcLayer l;
    l.in_n = in_n;
    l.out_n = out_n;
    l.relu = relu_on;
    l.weights.resize(static_cast<std::size_t>(out_n) * in_n);
    l.bias.assign(out_n, 0.0f);
    he_init(l.weights, in_n, rng);
    return l;
  };
  net.convs.push_back(conv(1, 28, 28, 6, 5, true));    // -> 6x12x12
  net.convs.push_back(conv(6, 12, 12, 16, 5, true));   // -> 16x4x4
  net.fcs.push_back(fc(16 * 4 * 4, 120, true));
  net.fcs.push_back(fc(120, 84, true));
  net.fcs.push_back(fc(84, 10, false));
  return net;
}

Network make_yololite(Rng& rng) {
  Network net;
  net.name = "YoloLite";
  net.in_c = 1;
  net.in_h = net.in_w = 32;
  auto conv = [&](unsigned in_c, unsigned in_h, unsigned in_w, unsigned out_c,
                  unsigned k, bool pool, bool relu_on) {
    ConvLayer l;
    l.in_c = in_c;
    l.in_h = in_h;
    l.in_w = in_w;
    l.out_c = out_c;
    l.k = k;
    l.pool = pool;
    l.relu = relu_on;
    l.weights.resize(static_cast<std::size_t>(out_c) * in_c * k * k);
    l.bias.assign(out_c, 0.0f);
    he_init(l.weights, static_cast<std::size_t>(in_c) * k * k, rng);
    return l;
  };
  // 32 -> conv5 -> 28 -> pool -> 14; 14 -> conv3 -> 12 -> pool -> 6;
  // 6x6 detection head via 1x1 conv.
  net.convs.push_back(conv(1, 32, 32, 12, 5, true, true));   // -> 12x14x14
  net.convs.push_back(conv(12, 14, 14, 24, 3, true, true));  // -> 24x6x6
  net.convs.push_back(conv(24, 6, 6, kDetChannels, 1, false, false));
  // Objectness prior: start from "no object" (focal-loss-style bias init)
  // so training does not begin in a false-positive storm.
  net.convs.back().bias[0] = -2.0f;
  return net;
}

// -------------------------------------------------------------- datasets

namespace {

// Seven-segment layout: segments A..G as (x0,y0,x1,y1) line ends on a
// 10x16 glyph box.
struct Seg {
  float x0, y0, x1, y1;
};
constexpr Seg kSegs[7] = {
    {1, 1, 9, 1},    // A  top
    {9, 1, 9, 8},    // B  top-right
    {9, 8, 9, 15},   // C  bottom-right
    {1, 15, 9, 15},  // D  bottom
    {1, 8, 1, 15},   // E  bottom-left
    {1, 1, 1, 8},    // F  top-left
    {1, 8, 9, 8},    // G  middle
};
constexpr std::uint8_t kDigitSegs[10] = {
    0b0111111,  // 0: ABCDEF
    0b0000110,  // 1: BC
    0b1011011,  // 2: ABDEG
    0b1001111,  // 3: ABCDG
    0b1100110,  // 4: BCFG
    0b1101101,  // 5: ACDFG
    0b1111101,  // 6: ACDEFG
    0b0000111,  // 7: ABC
    0b1111111,  // 8
    0b1101111,  // 9
};

void draw_line(Tensor& img, float x0, float y0, float x1, float y1,
               float intensity) {
  const int steps = 24;
  for (int s = 0; s <= steps; ++s) {
    const float t = static_cast<float>(s) / steps;
    const float x = x0 + (x1 - x0) * t;
    const float y = y0 + (y1 - y0) * t;
    for (int dy = 0; dy <= 1; ++dy)
      for (int dx = 0; dx <= 1; ++dx) {
        const int xi = static_cast<int>(x) + dx;
        const int yi = static_cast<int>(y) + dy;
        if (xi >= 0 && yi >= 0 && xi < static_cast<int>(img.w) &&
            yi < static_cast<int>(img.h))
          img.at(0, yi, xi) = std::min(1.0f, img.at(0, yi, xi) + intensity);
      }
  }
}

}  // namespace

DigitSample make_digit(Rng& rng) {
  DigitSample s;
  s.label = static_cast<unsigned>(rng.below(10));
  s.image = Tensor(1, 28, 28);
  const float ox = 6.0f + static_cast<float>(rng.range(-3, 5));
  const float oy = 4.0f + static_cast<float>(rng.range(-2, 4));
  const float intensity = 0.6f + 0.4f * static_cast<float>(rng.uniform());
  const std::uint8_t segs = kDigitSegs[s.label];
  for (int i = 0; i < 7; ++i) {
    if (!(segs >> i & 1)) continue;
    const Seg& g = kSegs[i];
    draw_line(s.image, g.x0 + ox, g.y0 + oy, g.x1 + ox, g.y1 + oy,
              intensity);
  }
  for (auto& v : s.image.data)
    v = std::clamp(v + 0.05f * static_cast<float>(rng.uniform(-1.0, 1.0)),
                   0.0f, 1.0f);
  return s;
}

SceneSample make_scene(Rng& rng) {
  SceneSample s;
  s.image = Tensor(1, 32, 32);
  const unsigned n_obj = 1 + (rng.chance(0.4) ? 1 : 0);
  for (unsigned o = 0; o < n_obj; ++o) {
    DetObject obj;
    obj.cls = static_cast<unsigned>(rng.below(kDetClasses));
    const float size = 6.0f + 6.0f * static_cast<float>(rng.uniform());
    const float cx = size / 2 + (31.0f - size) * static_cast<float>(rng.uniform());
    const float cy = size / 2 + (31.0f - size) * static_cast<float>(rng.uniform());
    // Keep object centers in distinct grid cells.
    if (o == 1) {
      const auto cell = [&](const DetObject& d) {
        return static_cast<unsigned>(d.cy / 32.0f * kDetGrid) * kDetGrid +
               static_cast<unsigned>(d.cx / 32.0f * kDetGrid);
      };
      DetObject tmp = obj;
      tmp.cx = cx / 32.0f;
      tmp.cy = cy / 32.0f;
      if (cell(tmp) == cell(s.objects[0])) continue;
    }
    const float half = size / 2;
    const float intensity = 0.7f + 0.3f * static_cast<float>(rng.uniform());
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        const float dx = static_cast<float>(x) - cx;
        const float dy = static_cast<float>(y) - cy;
        bool in = false;
        switch (obj.cls) {
          case 0:  // filled square
            in = std::fabs(dx) <= half && std::fabs(dy) <= half;
            break;
          case 1:  // disc
            in = dx * dx + dy * dy <= half * half;
            break;
          case 2:  // cross
            in = (std::fabs(dx) <= half && std::fabs(dy) <= 1.5f) ||
                 (std::fabs(dy) <= half && std::fabs(dx) <= 1.5f);
            break;
        }
        if (in)
          s.image.at(0, y, x) = std::min(1.0f, s.image.at(0, y, x) + intensity);
      }
    }
    obj.cx = cx / 32.0f;
    obj.cy = cy / 32.0f;
    obj.bw = size / 32.0f;
    obj.bh = size / 32.0f;
    s.objects.push_back(obj);
  }
  for (auto& v : s.image.data)
    v = std::clamp(v + 0.04f * static_cast<float>(rng.uniform(-1.0, 1.0)),
                   0.0f, 1.0f);
  return s;
}

// -------------------------------------------------------------- training

namespace {

/// Per-layer caches and gradients for SGD-with-momentum training.
struct ConvGrad {
  std::vector<float> dw, db, vw, vb;
};
struct FcGrad {
  std::vector<float> dw, db, vw, vb;
};

struct Trainer {
  Network& net;
  std::vector<ConvGrad> cg;
  std::vector<FcGrad> fg;
  float lr = 0.01f, momentum = 0.9f;

  explicit Trainer(Network& n) : net(n) {
    for (auto& c : n.convs) {
      ConvGrad g;
      g.dw.assign(c.weights.size(), 0);
      g.db.assign(c.bias.size(), 0);
      g.vw.assign(c.weights.size(), 0);
      g.vb.assign(c.bias.size(), 0);
      cg.push_back(std::move(g));
    }
    for (auto& f : n.fcs) {
      FcGrad g;
      g.dw.assign(f.weights.size(), 0);
      g.db.assign(f.bias.size(), 0);
      g.vw.assign(f.weights.size(), 0);
      g.vb.assign(f.bias.size(), 0);
      fg.push_back(std::move(g));
    }
  }

  // Forward with caches; returns final raw output.
  struct Cache {
    std::vector<Tensor> conv_in;       // input of each conv
    std::vector<Tensor> conv_pre;      // conv+bias output (pre-activation)
    std::vector<std::vector<unsigned>> pool_idx;
    std::vector<std::vector<float>> fc_in;   // input of each fc
    std::vector<std::vector<float>> fc_pre;  // pre-activation of each fc
  };

  std::vector<float> forward(const Tensor& input, Cache& cache) {
    Tensor t = input;
    for (std::size_t i = 0; i < net.convs.size(); ++i) {
      const auto& c = net.convs[i];
      cache.conv_in.push_back(t);
      Tensor pre = conv_forward(c, t);
      cache.conv_pre.push_back(pre);
      Tensor act = c.relu ? apply_relu(pre) : pre;
      if (c.pool) {
        cache.pool_idx.emplace_back();
        t = pool2x2(act, &cache.pool_idx.back());
      } else {
        cache.pool_idx.emplace_back();
        t = act;
      }
    }
    std::vector<float> v = std::move(t.data);
    for (std::size_t i = 0; i < net.fcs.size(); ++i) {
      const auto& f = net.fcs[i];
      cache.fc_in.push_back(v);
      std::vector<float> pre(f.out_n);
      for (unsigned o = 0; o < f.out_n; ++o) {
        float acc = f.bias[o];
        for (unsigned k = 0; k < f.in_n; ++k)
          acc += f.weights[o * f.in_n + k] * v[k];
        pre[o] = acc;
      }
      cache.fc_pre.push_back(pre);
      v.resize(f.out_n);
      for (unsigned o = 0; o < f.out_n; ++o)
        v[o] = f.relu ? relu(pre[o]) : pre[o];
    }
    return v;
  }

  // Backward from d(final raw output); applies the SGD update.
  void backward(const Cache& cache, std::vector<float> dout) {
    for (std::size_t ii = net.fcs.size(); ii-- > 0;) {
      auto& f = net.fcs[ii];
      auto& g = fg[ii];
      std::fill(g.dw.begin(), g.dw.end(), 0.0f);
      std::fill(g.db.begin(), g.db.end(), 0.0f);
      std::vector<float> din(f.in_n, 0.0f);
      for (unsigned o = 0; o < f.out_n; ++o) {
        float d = dout[o];
        if (f.relu && cache.fc_pre[ii][o] <= 0) d *= kLeak;
        g.db[o] += d;
        for (unsigned k = 0; k < f.in_n; ++k) {
          g.dw[o * f.in_n + k] += d * cache.fc_in[ii][k];
          din[k] += d * f.weights[o * f.in_n + k];
        }
      }
      step(f.weights, g.dw, g.vw);
      step(net.fcs[ii].bias, g.db, g.vb);
      dout = std::move(din);
    }
    // Into the conv stack: dout is the gradient of the last conv output.
    for (std::size_t ii = net.convs.size(); ii-- > 0;) {
      const auto& c = net.convs[ii];
      auto& g = cg[ii];
      const Tensor& pre = cache.conv_pre[ii];
      // Un-pool: scatter gradients to the argmax positions.
      std::vector<float> dpre(pre.size(), 0.0f);
      if (c.pool) {
        const auto& idx = cache.pool_idx[ii];
        for (std::size_t o = 0; o < idx.size(); ++o) dpre[idx[o]] = dout[o];
      } else {
        std::copy(dout.begin(), dout.end(), dpre.begin());
      }
      if (c.relu)
        for (std::size_t i = 0; i < dpre.size(); ++i)
          if (pre.data[i] <= 0) dpre[i] *= kLeak;
      // Weight/bias/input gradients.
      std::fill(g.dw.begin(), g.dw.end(), 0.0f);
      std::fill(g.db.begin(), g.db.end(), 0.0f);
      const Tensor& in = cache.conv_in[ii];
      Tensor din(in.c, in.h, in.w);
      const unsigned oh = c.conv_h(), ow = c.conv_w();
      for (unsigned oc = 0; oc < c.out_c; ++oc) {
        for (unsigned y = 0; y < oh; ++y) {
          for (unsigned x = 0; x < ow; ++x) {
            const float d = dpre[(oc * oh + y) * ow + x];
            if (d == 0.0f) continue;
            g.db[oc] += d;
            for (unsigned ic = 0; ic < c.in_c; ++ic)
              for (unsigned ky = 0; ky < c.k; ++ky)
                for (unsigned kx = 0; kx < c.k; ++kx) {
                  const std::size_t wi =
                      ((oc * c.in_c + ic) * c.k + ky) * c.k + kx;
                  g.dw[wi] += d * in.at(ic, y + ky, x + kx);
                  din.at(ic, y + ky, x + kx) += d * c.weights[wi];
                }
          }
        }
      }
      step(net.convs[ii].weights, g.dw, g.vw);
      step(net.convs[ii].bias, g.db, g.vb);
      dout = std::move(din.data);
    }
  }

  void step(std::vector<float>& w, const std::vector<float>& dw,
            std::vector<float>& v) {
    // Direction-preserving gradient clipping (per-layer norm cap) keeps
    // single-sample SGD stable without biasing skewed gradients.
    double norm2 = 0;
    for (float g : dw) norm2 += static_cast<double>(g) * g;
    const double norm = std::sqrt(norm2);
    const float scale =
        norm > 4.0 ? static_cast<float>(4.0 / norm) : 1.0f;
    for (std::size_t i = 0; i < w.size(); ++i) {
      v[i] = momentum * v[i] - lr * scale * dw[i];
      w[i] += v[i];
    }
  }
};

std::vector<float> softmax(const std::vector<float>& z, unsigned lo,
                           unsigned n, unsigned stride = 1) {
  std::vector<float> p(n);
  float mx = -1e30f;
  for (unsigned i = 0; i < n; ++i) mx = std::max(mx, z[lo + i * stride]);
  float sum = 0;
  for (unsigned i = 0; i < n; ++i) {
    p[i] = std::exp(z[lo + i * stride] - mx);
    sum += p[i];
  }
  for (auto& x : p) x /= sum;
  return p;
}

}  // namespace

double gradient_check(Rng& rng) {
  // Tiny network: conv 2@3x3 + pool on an 8x8 input, fc to 3 classes.
  Network net;
  net.in_c = 1;
  net.in_h = net.in_w = 8;
  ConvLayer c;
  c.in_c = 1;
  c.in_h = c.in_w = 8;
  c.out_c = 2;
  c.k = 3;
  c.pool = true;
  c.weights.resize(2 * 9);
  c.bias.assign(2, 0.1f);
  he_init(c.weights, 9, rng);
  net.convs.push_back(c);
  FcLayer f;
  f.in_n = 2 * 3 * 3;
  f.out_n = 3;
  f.relu = false;
  f.weights.resize(f.out_n * f.in_n);
  f.bias.assign(3, 0.0f);
  he_init(f.weights, f.in_n, rng);
  net.fcs.push_back(f);

  Tensor input(1, 8, 8);
  for (auto& v : input.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const unsigned label = 1;

  auto loss_of = [&]() {
    const auto logits = host_forward(net, input);
    const auto p = softmax(logits, 0, 3);
    return -std::log(std::max(p[label], 1e-12f));
  };

  // Analytic gradients via one trainer step with lr 0 (no update), then a
  // manual read of the accumulated dw. Trainer applies updates, so use a
  // dedicated Trainer with lr=0 and inspect the velocity-free gradients.
  Trainer tr(net);
  tr.lr = 0.0f;
  tr.momentum = 0.0f;
  Trainer::Cache cache;
  const auto logits = tr.forward(input, cache);
  const auto p = softmax(logits, 0, 3);
  std::vector<float> dout(3);
  for (unsigned i = 0; i < 3; ++i)
    dout[i] = p[i] - (i == label ? 1.0f : 0.0f);
  tr.backward(cache, std::move(dout));

  double max_rel = 0.0;
  const double eps = 1e-3;
  auto check = [&](std::vector<float>& w, const std::vector<float>& dw,
                   std::size_t idx) {
    const float orig = w[idx];
    w[idx] = orig + static_cast<float>(eps);
    const double lp = loss_of();
    w[idx] = orig - static_cast<float>(eps);
    const double lm = loss_of();
    w[idx] = orig;
    const double fd = (lp - lm) / (2 * eps);
    const double an = dw[idx];
    const double denom = std::max({std::fabs(fd), std::fabs(an), 1e-4});
    max_rel = std::max(max_rel, std::fabs(fd - an) / denom);
  };
  for (int i = 0; i < 12; ++i)
    check(net.convs[0].weights, tr.cg[0].dw,
          rng.below(net.convs[0].weights.size()));
  check(net.convs[0].bias, tr.cg[0].db, 0);
  for (int i = 0; i < 12; ++i)
    check(net.fcs[0].weights, tr.fg[0].dw,
          rng.below(net.fcs[0].weights.size()));
  check(net.fcs[0].bias, tr.fg[0].db, 2);
  return max_rel;
}

double train_lenet(Network& net, Rng& rng, unsigned steps) {
  Trainer tr(net);
  tr.lr = 0.004f;
  for (unsigned s = 0; s < steps; ++s) {
    if (s == steps / 2 || s == steps * 3 / 4) tr.lr *= 0.3f;
    const DigitSample sample = make_digit(rng);
    Trainer::Cache cache;
    const auto logits = tr.forward(sample.image, cache);
    const auto p = softmax(logits, 0, 10);
    std::vector<float> dout(10);
    for (unsigned i = 0; i < 10; ++i)
      dout[i] = p[i] - (i == sample.label ? 1.0f : 0.0f);
    tr.backward(cache, std::move(dout));
  }
  return digit_accuracy(net, rng, 500);
}

double digit_accuracy(const Network& net, Rng& rng, unsigned n) {
  unsigned correct = 0;
  for (unsigned i = 0; i < n; ++i) {
    const DigitSample sample = make_digit(rng);
    if (classify(host_forward(net, sample.image)) == sample.label) ++correct;
  }
  return static_cast<double>(correct) / n;
}

namespace {

/// Builds the detector training target and loss gradient for one scene.
/// Raw layout: [channel][gy][gx] with kDetChannels channels.
std::vector<float> det_grad(const std::vector<float>& raw,
                            const SceneSample& scene) {
  constexpr unsigned G = kDetGrid;
  std::vector<float> dout(raw.size(), 0.0f);
  auto at = [&](unsigned ch, unsigned gy, unsigned gx) {
    return (ch * G + gy) * G + gx;
  };
  // Cell -> object assignment: every cell whose centre lies inside an
  // object's box is positive (so neighbouring cells that fire carry
  // trained box offsets too).
  std::vector<int> owner(G * G, -1);
  for (unsigned gy = 0; gy < G; ++gy) {
    for (unsigned gx = 0; gx < G; ++gx) {
      const float cx = (gx + 0.5f) / G, cy = (gy + 0.5f) / G;
      for (std::size_t o = 0; o < scene.objects.size(); ++o) {
        const auto& obj = scene.objects[o];
        if (std::fabs(cx - obj.cx) <= obj.bw / 2 &&
            std::fabs(cy - obj.cy) <= obj.bh / 2)
          owner[gy * G + gx] = static_cast<int>(o);
      }
    }
  }
  // The centre cell is always positive even for tiny objects.
  for (std::size_t o = 0; o < scene.objects.size(); ++o) {
    const auto& obj = scene.objects[o];
    const auto gx = std::min(G - 1, static_cast<unsigned>(obj.cx * G));
    const auto gy = std::min(G - 1, static_cast<unsigned>(obj.cy * G));
    owner[gy * G + gx] = static_cast<int>(o);
  }
  for (unsigned gy = 0; gy < G; ++gy) {
    for (unsigned gx = 0; gx < G; ++gx) {
      const int o = owner[gy * G + gx];
      // Objectness BCE with YOLO-style imbalance weighting (few positive
      // cells among many negatives).
      const float obj_target = o >= 0 ? 1.0f : 0.0f;
      const float obj_p = sigmoid(raw[at(0, gy, gx)]);
      const float obj_w = o >= 0 ? 4.0f : 0.5f;
      dout[at(0, gy, gx)] = obj_w * (obj_p - obj_target);
      if (o < 0) continue;
      const auto& ob = scene.objects[static_cast<std::size_t>(o)];
      // Class cross-entropy (softmax over channels 1..3).
      const auto p = softmax(raw, at(1, gy, gx), kDetClasses, G * G);
      for (unsigned c = 0; c < kDetClasses; ++c)
        dout[at(1 + c, gy, gx)] =
            2.0f * (p[c] - (c == ob.cls ? 1.0f : 0.0f));
      // Box regression: plain linear outputs with L2 loss (a squashing
      // nonlinearity here saturates early in training and never recovers).
      const float tx = ob.cx * G - gx, ty = ob.cy * G - gy;
      const float targets[4] = {tx, ty, ob.bw, ob.bh};
      for (unsigned b = 0; b < 4; ++b) {
        const unsigned ch = 1 + kDetClasses + b;
        const float v = raw[at(ch, gy, gx)];
        dout[at(ch, gy, gx)] = 1.0f * (v - targets[b]);
      }
    }
  }
  return dout;
}

}  // namespace

double train_yololite(Network& net, Rng& rng, unsigned steps) {
  Trainer tr(net);
  tr.lr = 0.002f;
  for (unsigned s = 0; s < steps; ++s) {
    if (s == steps / 2 || s == steps * 3 / 4) tr.lr *= 0.3f;
    const SceneSample scene = make_scene(rng);
    Trainer::Cache cache;
    const auto raw = tr.forward(scene.image, cache);
    tr.backward(cache, det_grad(raw, scene));
  }
  // Holdout F1.
  unsigned tp = 0, fp = 0, fn = 0;
  for (unsigned i = 0; i < 300; ++i) {
    const SceneSample scene = make_scene(rng);
    const auto dets = decode_detections(host_forward(net, scene.image));
    std::vector<bool> used(scene.objects.size(), false);
    for (const auto& d : dets) {
      bool matched = false;
      for (std::size_t o = 0; o < scene.objects.size(); ++o) {
        if (used[o] || scene.objects[o].cls != d.cls) continue;
        Detection g{scene.objects[o].cls, scene.objects[o].cx,
                    scene.objects[o].cy, scene.objects[o].bw,
                    scene.objects[o].bh, 1.0f};
        if (iou(d, g) >= 0.4f) {
          used[o] = true;
          matched = true;
          break;
        }
      }
      matched ? ++tp : ++fp;
    }
    for (bool u : used)
      if (!u) ++fn;
  }
  const double denom = 2.0 * tp + fp + fn;
  return denom == 0 ? 0.0 : 2.0 * tp / denom;
}

// ----------------------------------------------------- decoding / metrics

unsigned classify(const std::vector<float>& logits) {
  return static_cast<unsigned>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

std::vector<Detection> decode_detections(const std::vector<float>& raw,
                                         float threshold) {
  constexpr unsigned G = kDetGrid;
  std::vector<Detection> dets;
  auto at = [&](unsigned ch, unsigned gy, unsigned gx) {
    return (ch * G + gy) * G + gx;
  };
  for (unsigned gy = 0; gy < G; ++gy) {
    for (unsigned gx = 0; gx < G; ++gx) {
      const float score = sigmoid(raw[at(0, gy, gx)]);
      if (score < threshold) continue;
      Detection d;
      d.score = score;
      const auto p = softmax(raw, at(1, gy, gx), kDetClasses, G * G);
      d.cls = static_cast<unsigned>(
          std::max_element(p.begin(), p.end()) - p.begin());
      const auto box = [&](unsigned b, float lo, float hi) {
        return std::clamp(raw[at(1 + kDetClasses + b, gy, gx)], lo, hi);
      };
      d.cx = (gx + box(0, 0.0f, 1.0f)) / G;
      d.cy = (gy + box(1, 0.0f, 1.0f)) / G;
      d.bw = box(2, 0.02f, 1.0f);
      d.bh = box(3, 0.02f, 1.0f);
      dets.push_back(d);
    }
  }
  // Non-maximum suppression (as in YOLOv3): an object spanning several grid
  // cells fires neighbours; keep only the highest-scored box per cluster.
  std::sort(dets.begin(), dets.end(),
            [](const Detection& a, const Detection& b) {
              return a.score > b.score;
            });
  std::vector<Detection> kept;
  for (const auto& d : dets) {
    bool suppressed = false;
    for (const auto& k : kept)
      if (iou(d, k) > 0.45f) {
        suppressed = true;
        break;
      }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

float iou(const Detection& a, const Detection& b) {
  const float ax0 = a.cx - a.bw / 2, ax1 = a.cx + a.bw / 2;
  const float ay0 = a.cy - a.bh / 2, ay1 = a.cy + a.bh / 2;
  const float bx0 = b.cx - b.bw / 2, bx1 = b.cx + b.bw / 2;
  const float by0 = b.cy - b.bh / 2, by1 = b.cy + b.bh / 2;
  const float ix = std::max(0.0f, std::min(ax1, bx1) - std::max(ax0, bx0));
  const float iy = std::max(0.0f, std::min(ay1, by1) - std::max(ay0, by0));
  const float inter = ix * iy;
  const float uni = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) -
                    inter;
  return uni <= 0 ? 0.0f : inter / uni;
}

bool detections_match(const std::vector<Detection>& a,
                      const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  std::vector<bool> used(b.size(), false);
  for (const auto& da : a) {
    bool matched = false;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (used[i] || b[i].cls != da.cls) continue;
      if (iou(da, b[i]) >= 0.5f) {
        used[i] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

// ---------------------------------------------------------- serialization

void Network::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path);
  auto put_u32 = [&](std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), 4);
  };
  auto put_vec = [&](const std::vector<float>& v) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * 4));
  };
  os.write("GFNN", 4);
  put_u32(static_cast<std::uint32_t>(name.size()));
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  put_u32(in_c);
  put_u32(in_h);
  put_u32(in_w);
  put_u32(static_cast<std::uint32_t>(convs.size()));
  for (const auto& c : convs) {
    for (std::uint32_t v : {c.in_c, c.in_h, c.in_w, c.out_c, c.k,
                            static_cast<unsigned>(c.relu),
                            static_cast<unsigned>(c.pool)})
      put_u32(v);
    put_vec(c.weights);
    put_vec(c.bias);
  }
  put_u32(static_cast<std::uint32_t>(fcs.size()));
  for (const auto& f : fcs) {
    for (std::uint32_t v :
         {f.in_n, f.out_n, static_cast<unsigned>(f.relu)})
      put_u32(v);
    put_vec(f.weights);
    put_vec(f.bias);
  }
}

Network Network::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("cannot read " + path);
  // Every count below is checked against the bytes the file still holds
  // before anything is allocated, and every weight/bias vector against its
  // layer's declared shape: a stale or corrupted file throws, naming itself.
  std::uint64_t left = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  const auto bad = [&](const std::string& why) {
    return std::runtime_error("bad network file " + path + ": " + why);
  };
  const auto read = [&](void* dst, std::uint64_t bytes, const char* what) {
    if (bytes > left)
      throw bad(std::string(what) + " runs past the end of the file");
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    if (!is) throw bad(std::string("short read in ") + what);
    left -= bytes;
  };
  const auto get_u32 = [&](const char* what) {
    std::uint32_t v = 0;
    read(&v, 4, what);
    return v;
  };
  const auto get_vec = [&](std::uint64_t shape, const char* what) {
    const std::uint32_t n = get_u32(what);
    if (std::uint64_t{n} * 4 > left)
      throw bad(std::string(what) + " count " + std::to_string(n) +
                " exceeds the file");
    if (n != shape)
      throw bad(std::string(what) + " count " + std::to_string(n) +
                " does not match the layer shape (" + std::to_string(shape) +
                ")");
    std::vector<float> v(n);
    read(v.data(), std::uint64_t{n} * 4, what);
    return v;
  };
  // Layer sizes from 32-bit fields; saturates instead of wrapping.
  const auto product = [](std::initializer_list<std::uint32_t> dims) {
    unsigned __int128 p = 1;
    for (const std::uint32_t d : dims) {
      p *= d;
      if (p > UINT64_MAX) return UINT64_MAX;
    }
    return static_cast<std::uint64_t>(p);
  };
  char magic[4];
  read(magic, 4, "magic");
  if (std::string(magic, 4) != "GFNN") throw bad("no GFNN magic");
  Network net;
  const std::uint32_t name_len = get_u32("name length");
  if (name_len > left) throw bad("name runs past the end of the file");
  net.name.resize(name_len);
  read(net.name.data(), name_len, "name");
  net.in_c = get_u32("input shape");
  net.in_h = get_u32("input shape");
  net.in_w = get_u32("input shape");
  // Layer shapes must chain, because both forward passes index activations
  // through them: each conv takes the shape before it (the network input
  // first) with a kernel that fits it, and each fc takes the flattened size
  // before it.
  std::uint32_t ch = net.in_c, h = net.in_h, w = net.in_w;
  const auto n_convs = get_u32("conv count");
  if (n_convs > left) throw bad("conv count exceeds the file");
  for (std::uint32_t i = 0; i < n_convs; ++i) {
    ConvLayer c;
    c.in_c = get_u32("conv shape");
    c.in_h = get_u32("conv shape");
    c.in_w = get_u32("conv shape");
    c.out_c = get_u32("conv shape");
    c.k = get_u32("conv shape");
    c.relu = get_u32("conv flags") != 0;
    c.pool = get_u32("conv flags") != 0;
    const std::string layer = "conv " + std::to_string(i);
    if (c.in_c != ch || c.in_h != h || c.in_w != w)
      throw bad(layer + " does not take the shape before it");
    if (c.k == 0 || c.k > h || c.k > w)
      throw bad(layer + " kernel does not fit its input");
    c.weights = get_vec(product({c.out_c, c.in_c, c.k, c.k}), "conv weights");
    c.bias = get_vec(c.out_c, "conv bias");
    ch = c.out_c;
    h = c.out_h();
    w = c.out_w();
    net.convs.push_back(std::move(c));
  }
  std::uint64_t flat = product({ch, h, w});
  const auto n_fcs = get_u32("fc count");
  if (n_fcs > left) throw bad("fc count exceeds the file");
  for (std::uint32_t i = 0; i < n_fcs; ++i) {
    FcLayer f;
    f.in_n = get_u32("fc shape");
    f.out_n = get_u32("fc shape");
    f.relu = get_u32("fc flags") != 0;
    if (f.in_n != flat)
      throw bad("fc " + std::to_string(i) + " has " +
                std::to_string(f.in_n) + " inputs for the " +
                std::to_string(flat) + " values before it");
    f.weights = get_vec(product({f.in_n, f.out_n}), "fc weights");
    f.bias = get_vec(f.out_n, "fc bias");
    flat = f.out_n;
    net.fcs.push_back(std::move(f));
  }
  if (left != 0) throw bad(std::to_string(left) + " trailing bytes");
  return net;
}

}  // namespace gpufi::nn
