// Golden digests of the weight-space fault path.
//
// Every case hashes the faulted weights, the InjectionStats and (where the
// path produces them) the hit masks for fixed seeds, and compares against a
// digest recorded before the readout, the crossbar walk and the redundancy
// fold were consolidated into fault_injector. Any change to the RNG stream,
// the visit order or a single float of the cell-pair readout shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/models/small_cnn.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/variation.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::random_tensor;

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t digest(std::uint64_t h, const Tensor& t) {
  return fnv(h, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

template <typename Stats>
std::uint64_t digest_stats(std::uint64_t h, const Stats& s) {
  const std::int64_t v[3] = {s.cells, s.faulted_cells, s.affected_weights};
  return fnv(h, v, sizeof(v));
}

/// Digest of every parameter value of a model (crossbar weights and the
/// untouched biases/BN params, so a stray write is caught too).
std::uint64_t digest_model(std::uint64_t h, Module& model) {
  for (const Param* p : parameters_of(model)) h = digest(h, p->value);
  return h;
}

std::unique_ptr<Module> golden_model() {
  return make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 5, .seed = 21});
}

std::uint64_t rng_path_digest(int quant_levels) {
  const InjectorConfig cfg{.quant_levels = quant_levels};
  std::uint64_t h = kFnvBasis;
  // Tensor entry points: in place and copy.
  Tensor w = random_tensor(Shape{4096}, 31, 0.4f);
  Tensor mask;
  Rng rng(32);
  h = digest_stats(h, apply_stuck_at_faults(w, StuckAtFaultModel(0.05), cfg, rng, &mask));
  h = digest(digest(h, w), mask);
  const Tensor src = random_tensor(Shape{64, 48}, 33);
  Tensor dst;
  h = digest_stats(h,
                   apply_faults_to_copy(src, dst, StuckAtFaultModel(0.1, 0.4), cfg, rng, &mask));
  h = digest(digest(digest(h, src), dst), mask);
  // Model entry point: a session over every crossbar weight.
  const std::unique_ptr<Module> model = golden_model();
  FaultInjectionSession session(*model);
  for (int round = 0; round < 2; ++round) {
    h = digest_stats(h, session.inject(StuckAtFaultModel(0.08), cfg, rng));
    h = digest_model(h, *model);
    for (const Tensor& m : session.hit_masks()) h = digest(h, m);
  }
  session.restore();
  return digest_model(h, *model);
}

std::uint64_t defect_map_digest(int quant_levels) {
  const InjectorConfig cfg{.quant_levels = quant_levels};
  std::uint64_t h = kFnvBasis;
  for (const double p_sa : {0.0, 0.03, 0.3}) {
    const std::unique_ptr<Module> model = golden_model();
    const std::int64_t cells = crossbar_cell_count(*model);
    h = fnv(h, &cells, sizeof(cells));
    const DefectMap map =
        DefectMap::sample_for_device(cells, StuckAtFaultModel(p_sa), /*master_seed=*/41, 7);
    h = digest_stats(h, apply_defect_map_to_model(*model, map, cfg));
    h = digest_model(h, *model);
  }
  return h;
}

/// R-replica redundancy over every crossbar weight of a model, in
/// parameters_of order (the A4 bench's walk), plus a bare tensor.
std::uint64_t redundancy_digest(int replicas) {
  std::uint64_t h = kFnvBasis;
  Rng rng(51);
  Tensor w = random_tensor(Shape{3000}, 52, 0.3f);
  h = digest_stats(
      h, apply_faults_with_redundancy(w, StuckAtFaultModel(0.1), {.replicas = replicas}, rng));
  h = digest(h, w);
  const std::unique_ptr<Module> model = golden_model();
  for (Param* p : parameters_of(*model)) {
    if (p->kind != ParamKind::kCrossbarWeight) continue;
    h = digest_stats(h, apply_faults_with_redundancy(p->value, StuckAtFaultModel(0.2),
                                                     {.replicas = replicas}, rng));
  }
  return digest_model(h, *model);
}

std::uint64_t saf_plus_variation_digest() {
  std::uint64_t h = kFnvBasis;
  const std::unique_ptr<Module> model = golden_model();
  FaultInjectionSession session(*model);
  for (const float sigma : {0.1f, 0.3f}) {
    Rng rng(61);
    h = digest_stats(h, session.inject(StuckAtFaultModel(0.02), InjectorConfig{}, rng));
    apply_variation_to_model(*model, VariationConfig{.sigma = sigma}, rng);
    h = digest_model(h, *model);
    session.restore();
  }
  return digest_model(h, *model);
}

#define EXPECT_DIGEST(actual, expected) \
  EXPECT_EQ(actual, expected##ull) << std::hex << "actual digest 0x" << (actual)

TEST(FaultGolden, RngPathAnalog) {
  EXPECT_DIGEST(rng_path_digest(0), 0x8964d0d2212c7869);
}
TEST(FaultGolden, RngPathQuantized16) {
  EXPECT_DIGEST(rng_path_digest(16), 0x7d28827ad7561ff9);
}
TEST(FaultGolden, DefectMapAnalog) {
  EXPECT_DIGEST(defect_map_digest(0), 0x1cb906ff211315ff);
}
TEST(FaultGolden, DefectMapQuantized16) {
  EXPECT_DIGEST(defect_map_digest(16), 0x109d5278deb32117);
}
TEST(FaultGolden, RedundancyR1) {
  EXPECT_DIGEST(redundancy_digest(1), 0xc3485e8af3196363);
}
TEST(FaultGolden, RedundancyR3) {
  EXPECT_DIGEST(redundancy_digest(3), 0x67c7926befa96cd9);
}
TEST(FaultGolden, RedundancyR5) {
  EXPECT_DIGEST(redundancy_digest(5), 0x2673e322d398eb7b);
}
TEST(FaultGolden, SafPlusVariation) {
  EXPECT_DIGEST(saf_plus_variation_digest(), 0x6aa7a9446c6512b6);
}

}  // namespace
}  // namespace ftpim
