#include "src/data/synthetic.hpp"

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

#include <cmath>
#include <vector>

namespace ftpim {
namespace {

constexpr float kTwoPi = 6.28318530717958647692f;

/// Per-class generative parameters, derived deterministically from the
/// dataset seed so train and test share prototypes.
struct ClassProto {
  // Two gratings: frequency (cycles per image), orientation, per-channel amp.
  float freq[2];
  float theta[2];
  float amp[2][3];
  // Two blobs: center (fraction of image), radius, per-channel amp.
  float blob_cx[2], blob_cy[2], blob_r[2];
  float blob_amp[2][3];
  // Base color offset.
  float base[3];
};

/// Base texture shared by a group of classes. Classes are small perturbations
/// of a base, so class pairs within a group are confusable — this keeps the
/// task hard enough that accuracy-vs-fault-rate curves show the paper's
/// collapse shape instead of saturating at 100%.
ClassProto make_base_proto(std::uint64_t seed, std::int64_t base_id) {
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(base_id) + 0x5a17));
  ClassProto p{};
  for (int g = 0; g < 2; ++g) {
    p.freq[g] = rng.uniform(1.5f, 5.5f);
    p.theta[g] = rng.uniform(0.0f, kTwoPi);
    for (int c = 0; c < 3; ++c) p.amp[g][c] = rng.uniform(-0.9f, 0.9f);
  }
  for (int b = 0; b < 2; ++b) {
    p.blob_cx[b] = rng.uniform(0.2f, 0.8f);
    p.blob_cy[b] = rng.uniform(0.2f, 0.8f);
    p.blob_r[b] = rng.uniform(0.12f, 0.3f);
    for (int c = 0; c < 3; ++c) p.blob_amp[b][c] = rng.uniform(-1.2f, 1.2f);
  }
  for (int c = 0; c < 3; ++c) p.base[c] = rng.uniform(-0.3f, 0.3f);
  return p;
}

ClassProto make_proto(std::uint64_t seed, std::int64_t cls, std::int64_t num_classes) {
  // Two classes per base group -> every class has one near neighbor.
  const std::int64_t groups = (num_classes + 1) / 2;
  ClassProto p = make_base_proto(seed, cls % groups);
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(cls) + 0xc1a55));
  for (int g = 0; g < 2; ++g) {
    p.freq[g] += rng.normal(0.0f, 0.5f);
    p.theta[g] += rng.normal(0.0f, 0.25f);
    for (int c = 0; c < 3; ++c) p.amp[g][c] *= 1.0f + rng.normal(0.0f, 0.2f);
  }
  for (int b = 0; b < 2; ++b) {
    p.blob_cx[b] += rng.normal(0.0f, 0.06f);
    p.blob_cy[b] += rng.normal(0.0f, 0.06f);
    p.blob_r[b] *= 1.0f + rng.normal(0.0f, 0.15f);
    for (int c = 0; c < 3; ++c) p.blob_amp[b][c] *= 1.0f + rng.normal(0.0f, 0.2f);
  }
  return p;
}

}  // namespace

std::unique_ptr<InMemoryDataset> make_synthvision(const SynthVisionConfig& config,
                                                  std::uint64_t sample_stream) {
  FTPIM_CHECK(!(config.num_classes <= 1 || config.image_size < 4 || config.samples <= 0), "make_synthvision: invalid config");
  const std::int64_t side = config.image_size;
  auto data = std::make_unique<InMemoryDataset>(Shape{3, side, side}, config.num_classes);
  data->reserve(config.samples);

  std::vector<ClassProto> protos;
  protos.reserve(static_cast<std::size_t>(config.num_classes));
  for (std::int64_t c = 0; c < config.num_classes; ++c) {
    protos.push_back(make_proto(config.seed, c, config.num_classes));
  }

  Rng rng(derive_seed(config.seed, 0xda7a ^ sample_stream));
  const float inv_side = 1.0f / static_cast<float>(side);

  for (std::int64_t s = 0; s < config.samples; ++s) {
    const auto cls = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(config.num_classes)));
    const ClassProto& p = protos[static_cast<std::size_t>(cls)];

    // Per-sample jitter.
    float phase[2], dtheta[2], dcx[2], dcy[2];
    for (int g = 0; g < 2; ++g) {
      phase[g] = rng.uniform(0.0f, kTwoPi);
      dtheta[g] = config.jitter * rng.normal(0.0f, 0.2f);
    }
    for (int b = 0; b < 2; ++b) {
      dcx[b] = config.jitter * rng.normal(0.0f, 0.08f);
      dcy[b] = config.jitter * rng.normal(0.0f, 0.08f);
    }
    const float gain = 1.0f + 0.2f * rng.normal();

    // Per-sample constants, each computed by the same expression the pixel
    // loop used to evaluate per pixel, so every pixel is bit-identical.
    float cos_th[2], sin_th[2], omega[2], cx[2], cy[2], two_r2[2];
    for (int g = 0; g < 2; ++g) {
      const float th = p.theta[g] + dtheta[g];
      cos_th[g] = std::cos(th);
      sin_th[g] = std::sin(th);
      omega[g] = kTwoPi * p.freq[g];
    }
    for (int b = 0; b < 2; ++b) {
      cx[b] = p.blob_cx[b] + dcx[b];
      cy[b] = p.blob_cy[b] + dcy[b];
      const float r2 = p.blob_r[b] * p.blob_r[b];
      two_r2[b] = 2.0f * r2;
    }

    Tensor img(Shape{3, side, side});
    const std::int64_t plane = side * side;
    for (std::int64_t y = 0; y < side; ++y) {
      const float fy = static_cast<float>(y) * inv_side;
      for (std::int64_t x = 0; x < side; ++x) {
        const float fx = static_cast<float>(x) * inv_side;
        float px[3] = {p.base[0], p.base[1], p.base[2]};
        for (int g = 0; g < 2; ++g) {
          const float proj = fx * cos_th[g] + fy * sin_th[g];
          const float v = std::sin(omega[g] * proj + phase[g]);
          for (int c = 0; c < 3; ++c) px[c] += p.amp[g][c] * v;
        }
        for (int b = 0; b < 2; ++b) {
          const float dx = fx - cx[b];
          const float dy = fy - cy[b];
          const float v = std::exp(-(dx * dx + dy * dy) / two_r2[b]);
          for (int c = 0; c < 3; ++c) px[c] += p.blob_amp[b][c] * v;
        }
        for (int c = 0; c < 3; ++c) {
          img.data()[c * plane + y * side + x] =
              gain * px[c] + config.noise_std * rng.normal();
        }
      }
    }
    data->add(std::move(img), cls);
  }
  if (config.normalize) data->normalize_channels();
  return data;
}

}  // namespace ftpim
