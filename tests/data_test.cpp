#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/data/augment.hpp"
#include "src/data/dataloader.hpp"
#include "src/data/synthetic.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

SynthVisionConfig tiny_config() {
  SynthVisionConfig cfg;
  cfg.num_classes = 4;
  cfg.image_size = 8;
  cfg.samples = 64;
  cfg.seed = 5;
  return cfg;
}

TEST(InMemoryDataset, AddAndGet) {
  InMemoryDataset data(Shape{1, 2, 2}, 3);
  data.add(Tensor(Shape{1, 2, 2}, 1.0f), 2);
  EXPECT_EQ(data.size(), 1);
  EXPECT_EQ(data.get(0).label, 2);
  EXPECT_THROW(data.get(1), std::out_of_range);
  EXPECT_THROW(data.add(Tensor(Shape{2, 2, 2}), 0), std::invalid_argument);
  EXPECT_THROW(data.add(Tensor(Shape{1, 2, 2}), 5), std::invalid_argument);
}

TEST(InMemoryDataset, NormalizeChannels) {
  InMemoryDataset data(Shape{2, 2, 2}, 2);
  data.add(testing::random_tensor(Shape{2, 2, 2}, 1, 4.0f), 0);
  data.add(testing::random_tensor(Shape{2, 2, 2}, 2, 4.0f), 1);
  data.normalize_channels();
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t i = 0; i < 2; ++i) {
      const Sample s = data.get(i);
      for (std::int64_t p = 0; p < 4; ++p) {
        const float v = s.image.data()[c * 4 + p];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 8.0, 1.0, 1e-3);
  }
}

TEST(SynthVision, DeterministicForSeedAndStream) {
  const auto a = make_synthvision(tiny_config(), 1);
  const auto b = make_synthvision(tiny_config(), 1);
  ASSERT_EQ(a->size(), b->size());
  for (std::int64_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->get(i).label, b->get(i).label);
    EXPECT_TRUE(a->get(i).image.allclose(b->get(i).image, 0.0f, 0.0f));
  }
}

TEST(SynthVision, DifferentStreamsDiffer) {
  const auto a = make_synthvision(tiny_config(), 1);
  const auto b = make_synthvision(tiny_config(), 2);
  bool any_diff = false;
  for (std::int64_t i = 0; i < a->size() && !any_diff; ++i) {
    if (!a->get(i).image.allclose(b->get(i).image)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthVision, CoversAllClasses) {
  SynthVisionConfig cfg = tiny_config();
  cfg.samples = 400;
  const auto data = make_synthvision(cfg, 3);
  std::set<std::int64_t> seen;
  for (std::int64_t i = 0; i < data->size(); ++i) seen.insert(data->get(i).label);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SynthVision, ClassesAreStatisticallyDistinct) {
  // Per-class mean images must differ: the generator encodes the label.
  SynthVisionConfig cfg = tiny_config();
  cfg.samples = 512;
  cfg.noise_std = 0.2f;
  const auto data = make_synthvision(cfg, 4);
  std::vector<Tensor> means(4, Tensor(Shape{3, 8, 8}));
  std::vector<int> counts(4, 0);
  for (std::int64_t i = 0; i < data->size(); ++i) {
    const Sample s = data->get(i);
    for (std::int64_t j = 0; j < s.image.numel(); ++j) {
      means[static_cast<std::size_t>(s.label)][j] += s.image[j];
    }
    counts[static_cast<std::size_t>(s.label)]++;
  }
  for (int c = 0; c < 4; ++c) {
    for (std::int64_t j = 0; j < means[0].numel(); ++j) {
      means[static_cast<std::size_t>(c)][j] /= static_cast<float>(std::max(1, counts[c]));
    }
  }
  double min_dist = 1e9;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double d = 0.0;
      for (std::int64_t j = 0; j < means[0].numel(); ++j) {
        const double diff = means[a][j] - means[b][j];
        d += diff * diff;
      }
      min_dist = std::min(min_dist, std::sqrt(d));
    }
  }
  EXPECT_GT(min_dist, 0.5);
}

/// FNV-1a over every sample's pixel bytes and label, in order.
std::uint64_t synthvision_digest(const SynthVisionConfig& cfg, std::uint64_t stream) {
  const auto data = make_synthvision(cfg, stream);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* bytes, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (std::int64_t i = 0; i < data->size(); ++i) {
    const Sample s = data->get(i);
    mix(s.image.data(), static_cast<std::size_t>(s.image.numel()) * sizeof(float));
    mix(&s.label, sizeof(s.label));
  }
  return h;
}

// Every pixel of three configurations, pinned bit for bit: the generator's
// per-sample constants may be hoisted out of the pixel loop only in ways that
// keep each expression's evaluation order.
TEST(SynthVision, GoldenDigest) {
  SynthVisionConfig serve;  // the defaults: 10 classes, 16x16, normalized
  serve.samples = 96;
  SynthVisionConfig raw = tiny_config();
  raw.normalize = false;
  raw.noise_std = 0.0f;
  SynthVisionConfig wide;
  wide.num_classes = 7;
  wide.image_size = 20;
  wide.samples = 24;
  wide.jitter = 0.5f;
  wide.noise_std = 0.3f;
  EXPECT_EQ(synthvision_digest(serve, 0x5e7e), 0x440ecc082ee66545ull);
  EXPECT_EQ(synthvision_digest(raw, 3), 0xd7a2401976604500ull);
  EXPECT_EQ(synthvision_digest(wide, 11), 0xb64f8a1adc697ceaull);
}

TEST(SynthVision, ConfigValidation) {
  SynthVisionConfig cfg = tiny_config();
  cfg.num_classes = 1;
  EXPECT_THROW(make_synthvision(cfg, 1), std::invalid_argument);
}

TEST(Augment, HflipIsInvolution) {
  const Tensor img = testing::random_tensor(Shape{3, 5, 6}, 10);
  EXPECT_TRUE(hflip_image(hflip_image(img)).allclose(img, 0.0f, 0.0f));
}

TEST(Augment, HflipReversesColumns) {
  Tensor img(Shape{1, 1, 3}, std::vector<float>{1, 2, 3});
  const Tensor flipped = hflip_image(img);
  EXPECT_FLOAT_EQ(flipped[0], 3.0f);
  EXPECT_FLOAT_EQ(flipped[2], 1.0f);
}

TEST(Augment, CenterPadCropIsIdentity) {
  const Tensor img = testing::random_tensor(Shape{2, 4, 4}, 11);
  EXPECT_TRUE(pad_crop_image(img, 2, 2, 2).allclose(img, 0.0f, 0.0f));
}

TEST(Augment, CornerCropShiftsAndZeroPads) {
  Tensor img(Shape{1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  // dy=dx=0 with pad 1 shifts content down-right; top-left becomes padding.
  const Tensor out = pad_crop_image(img, 1, 0, 0);
  EXPECT_FLOAT_EQ(out.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.data()[3], 1.0f);  // original (0,0) now at (1,1)
  EXPECT_THROW(pad_crop_image(img, 1, 3, 0), std::invalid_argument);
}

TEST(Augment, DisabledIsPassThrough) {
  Rng rng(12);
  const Tensor img = testing::random_tensor(Shape{3, 4, 4}, 13);
  const AugmentConfig off{.crop_pad = 2, .hflip = true, .enabled = false};
  EXPECT_TRUE(augment_image(img, off, rng).allclose(img, 0.0f, 0.0f));
}

TEST(DataLoader, CoversAllSamplesOnce) {
  const auto data = make_synthvision(tiny_config(), 5);
  DataLoader loader(*data, 10, /*shuffle=*/true, /*seed=*/7);
  loader.start_epoch(0);
  std::int64_t seen = 0;
  for (std::int64_t b = 0; b < loader.batches_per_epoch(); ++b) seen += loader.batch(b).size();
  EXPECT_EQ(seen, data->size());
}

TEST(DataLoader, ShuffleChangesOrderAcrossEpochs) {
  const auto data = make_synthvision(tiny_config(), 6);
  DataLoader loader(*data, 64, /*shuffle=*/true, /*seed=*/8);
  loader.start_epoch(0);
  const Batch b0 = loader.batch(0);
  loader.start_epoch(1);
  const Batch b1 = loader.batch(0);
  EXPECT_NE(b0.labels, b1.labels);  // same multiset, different order (w.h.p.)
}

TEST(DataLoader, NoShuffleIsStable) {
  const auto data = make_synthvision(tiny_config(), 7);
  DataLoader loader(*data, 16, /*shuffle=*/false, /*seed=*/9);
  loader.start_epoch(0);
  const Batch a = loader.batch(1);
  loader.start_epoch(5);
  const Batch b = loader.batch(1);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_TRUE(a.images.allclose(b.images, 0.0f, 0.0f));
}

TEST(DataLoader, FullBatchMatchesDataset) {
  const auto data = make_synthvision(tiny_config(), 8);
  const Batch full = DataLoader::full_batch(*data);
  EXPECT_EQ(full.size(), data->size());
  EXPECT_EQ(full.labels[3], data->get(3).label);
}

TEST(DataLoader, PartialLastBatch) {
  const auto data = make_synthvision(tiny_config(), 9);  // 64 samples
  DataLoader loader(*data, 48, /*shuffle=*/false, /*seed=*/1);
  EXPECT_EQ(loader.batches_per_epoch(), 2);
  EXPECT_EQ(loader.batch(1).size(), 16);
  EXPECT_THROW(loader.batch(2), std::out_of_range);
}

}  // namespace
}  // namespace ftpim
