// Differential test of QuantizedCrossbarEngine against a dense plain-loop
// oracle (QinferOracle suite).
//
// The engine stores only the driven rows of each tile and computes only its
// live columns. The oracle below does neither: it models every tile as the
// full physical tile_rows x tile_cols array (dense levels and fault bytes,
// checksum digits over the whole row, a per-column ADC over all tile_cols
// bitlines) with no kernels and no packing. Over seeded random shapes and
// fault histories, the two must agree bit for bit on y, on every per-tile
// ABFT tally, on read_back and on stuck_cells, at every kernel level and
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/reram/abft.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/qinfer/adc.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "src/reram/quantizer.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
using qinfer::QuantizedCrossbarEngine;
using qinfer::QuantizedEngineConfig;
using testing::random_tensor;

/// Result of one oracle MVM: outputs plus the ABFT tallies it implies.
struct OracleRun {
  std::vector<float> y;
  std::vector<std::int64_t> mismatches;  ///< per tile, row-major [rt][ct]
  std::int64_t checks = 0;
};

/// Full-physical-tile reference model of the quantized crossbar.
class DenseOracle {
 public:
  DenseOracle(const Tensor& w, const QuantizedEngineConfig& config)
      : cfg_(config), out_(w.dim(0)), in_(w.dim(1)), w_max_(full_scale_of(w)) {
    rows_ = cfg_.tile_rows;
    cols_ = cfg_.tile_cols;
    outs_ = cols_ / 2;
    row_tiles_ = (in_ + rows_ - 1) / rows_;
    col_tiles_ = (out_ + outs_ - 1) / outs_;
    chk_ = cfg_.abft.enabled ? abft::checksum_digit_columns(cfg_.levels, cols_) : 0;
    tiles_.resize(static_cast<std::size_t>(row_tiles_ * col_tiles_));
    for (Tile& t : tiles_) {
      t.level.assign(static_cast<std::size_t>(rows_ * cols_), 0);
      t.fault.assign(t.level.size(), 0);
      t.check_level.assign(static_cast<std::size_t>(rows_ * chk_), 0);
      t.check_fault.assign(t.check_level.size(), 0);
    }
    const DifferentialMapper mapper(kDeviceRange, w_max_);
    const ConductanceQuantizer quantizer(kDeviceRange, cfg_.levels);
    for (std::int64_t o = 0; o < out_; ++o) {
      for (std::int64_t i = 0; i < in_; ++i) {
        const CellPair pair = mapper.to_cells(w.at(o, i));
        Tile& t = tile(i / rows_, o / outs_);
        const std::int64_t cell = (i % rows_) * cols_ + 2 * (o % outs_);
        t.level[static_cast<std::size_t>(cell)] =
            static_cast<std::uint8_t>(quantizer.level_index(pair.g_pos));
        t.level[static_cast<std::size_t>(cell + 1)] =
            static_cast<std::uint8_t>(quantizer.level_index(pair.g_neg));
      }
    }
    if (chk_ > 0) rebaseline();
  }

  [[nodiscard]] std::int64_t tile_count() const {
    return static_cast<std::int64_t>(tiles_.size());
  }
  [[nodiscard]] std::int64_t row_tiles() const { return row_tiles_; }
  [[nodiscard]] std::int64_t col_tiles() const { return col_tiles_; }

  void apply_device_defects(const StuckAtFaultModel& model, std::uint64_t seed,
                            std::uint64_t device) {
    Rng rng(derive_seed(seed, device + 0xcba));
    Rng rng_chk(derive_seed(seed, device + 0xabf7));
    for (Tile& t : tiles_) {
      const DefectMap map = DefectMap::sample(rows_ * cols_, model, rng);
      for (const CellFault& f : map.faults()) {
        t.fault[static_cast<std::size_t>(f.cell_index)] = static_cast<std::uint8_t>(f.type);
      }
      if (chk_ > 0) {
        const DefectMap chk_map = DefectMap::sample(rows_ * chk_, model, rng_chk);
        for (const CellFault& f : chk_map.faults()) {
          t.check_fault[static_cast<std::size_t>(f.cell_index)] =
              static_cast<std::uint8_t>(f.type);
        }
      }
    }
  }

  void apply_defect_map(const DefectMap& map) {
    for (const CellFault& f : map.faults()) {
      const std::int64_t o = (f.cell_index / 2) / in_;
      const std::int64_t i = (f.cell_index / 2) % in_;
      const std::int64_t c = 2 * (o % outs_) + f.cell_index % 2;
      tile(i / rows_, o / outs_).fault[static_cast<std::size_t>((i % rows_) * cols_ + c)] =
          static_cast<std::uint8_t>(f.type);
    }
  }

  void clear_defects() {
    for (Tile& t : tiles_) clear(t);
  }
  void scrub_tile(std::int64_t rt, std::int64_t ct) { clear(tile(rt, ct)); }

  /// Checksum digits over the whole physical row; trust only when no driven
  /// checksum cell is stuck.
  void rebaseline() {
    for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
      for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
        Tile& t = tile(rt, ct);
        for (std::int64_t r = 0; r < rows_; ++r) {
          std::int64_t s = 0;
          for (std::int64_t c = 0; c < cols_; ++c) s += eff(t.level, t.fault, r * cols_ + c);
          for (std::int64_t k = 0; k < chk_; ++k) {
            t.check_level[static_cast<std::size_t>(r * chk_ + k)] =
                static_cast<std::uint8_t>(s % cfg_.levels);
            s /= cfg_.levels;
          }
        }
        t.check_ok = true;
        for (std::int64_t r = 0; r < driven(rt); ++r) {
          for (std::int64_t k = 0; k < chk_; ++k) {
            if (t.check_fault[static_cast<std::size_t>(r * chk_ + k)] != 0) t.check_ok = false;
          }
        }
      }
    }
  }

  [[nodiscard]] std::int64_t stuck_cells() const {
    std::int64_t n = 0;
    for (const Tile& t : tiles_) {
      n += std::count_if(t.fault.begin(), t.fault.end(), [](std::uint8_t f) { return f != 0; });
    }
    return n;
  }

  /// Stuck data cells no mapped output reads: on undriven rows, or in the
  /// columns of a driven row past the tile's mapped outputs.
  [[nodiscard]] std::int64_t unmapped_stuck_cells() const {
    std::int64_t n = 0;
    for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
      for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
        const Tile& t = tile(rt, ct);
        const std::int64_t mapped_cols = 2 * std::min(outs_, out_ - ct * outs_);
        for (std::int64_t cell = 0; cell < rows_ * cols_; ++cell) {
          const bool unmapped = cell / cols_ >= driven(rt) || cell % cols_ >= mapped_cols;
          n += (unmapped && t.fault[static_cast<std::size_t>(cell)] != 0);
        }
      }
    }
    return n;
  }

  [[nodiscard]] Tensor read_back() const {
    Tensor w(Shape{out_, in_});
    const ConductanceQuantizer quantizer(kDeviceRange, cfg_.levels);
    const float g_to_w = w_max_ / kDeviceRange.span();
    for (std::int64_t o = 0; o < out_; ++o) {
      for (std::int64_t i = 0; i < in_; ++i) {
        const Tile& t = tile(i / rows_, o / outs_);
        const std::int64_t cell = (i % rows_) * cols_ + 2 * (o % outs_);
        const float g_pos = quantizer.level_value(eff(t.level, t.fault, cell));
        const float g_neg = quantizer.level_value(eff(t.level, t.fault, cell + 1));
        w.at(o, i) = (g_pos - g_neg) * g_to_w;
      }
    }
    return w;
  }

  [[nodiscard]] OracleRun mvm_batch(const float* x, std::int64_t batch) const {
    OracleRun run;
    run.y.assign(static_cast<std::size_t>(batch * out_), 0.0f);
    run.mismatches.assign(tiles_.size(), 0);
    float absmax = 0.0f;
    for (std::int64_t i = 0; i < batch * in_; ++i) absmax = std::max(absmax, std::fabs(x[i]));
    if (absmax == 0.0f) return run;
    const float inv_scale = 127.0f / absmax;
    const float dequant = (absmax / 127.0f) * (w_max_ / static_cast<float>(cfg_.levels - 1));
    std::vector<std::int32_t> code(static_cast<std::size_t>(batch * in_));
    for (std::int64_t i = 0; i < batch * in_; ++i) {
      code[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          std::clamp<long>(std::lround(x[i] * inv_scale), -127, 127));
    }
    const bool ideal = cfg_.adc.ideal();
    const std::int32_t qmax = ideal ? 0 : cfg_.adc.qmax();
    const std::int64_t phys = cols_ + chk_;  // data bitlines, then digit bitlines
    std::vector<std::int64_t> acc(static_cast<std::size_t>(batch * out_), 0);
    for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
      for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
        const Tile& t = tile(rt, ct);
        // Effective level of every physical bitline cell on the driven rows.
        std::vector<std::int64_t> g(static_cast<std::size_t>(driven(rt) * phys));
        std::vector<std::int32_t> delta(static_cast<std::size_t>(phys), 1);
        for (std::int64_t c = 0; c < phys; ++c) {
          std::int64_t bound = 0;
          for (std::int64_t r = 0; r < driven(rt); ++r) {
            const std::int64_t v = c < cols_ ? eff(t.level, t.fault, r * cols_ + c)
                                             : eff(t.check_level, t.check_fault,
                                                   r * chk_ + (c - cols_));
            g[static_cast<std::size_t>(r * phys + c)] = v;
            bound += v;
          }
          if (!ideal) {
            delta[static_cast<std::size_t>(c)] = qinfer::adc_column_delta(cfg_.adc, 127 * bound);
          }
        }
        std::int64_t tol2 = 0;
        if (!ideal) {
          for (std::int64_t c = 0; c < cols_; ++c) tol2 += delta[static_cast<std::size_t>(c)];
          std::int64_t chk_tol = 0;
          for (std::int64_t k = chk_ - 1; k >= 0; --k) {
            chk_tol = chk_tol * cfg_.levels + delta[static_cast<std::size_t>(cols_ + k)];
          }
          tol2 += chk_tol;
        }
        for (std::int64_t b = 0; b < batch; ++b) {
          std::vector<std::int32_t> d(static_cast<std::size_t>(phys));
          for (std::int64_t c = 0; c < phys; ++c) {
            std::int64_t a = 0;
            for (std::int64_t r = 0; r < driven(rt); ++r) {
              a += code[static_cast<std::size_t>(b * in_ + rt * rows_ + r)] *
                   g[static_cast<std::size_t>(r * phys + c)];
            }
            const auto a32 = static_cast<std::int32_t>(a);
            d[static_cast<std::size_t>(c)] =
                ideal ? a32 : qinfer::adc_digitize(a32, delta[static_cast<std::size_t>(c)], qmax);
          }
          for (std::int64_t lo = 0; lo < outs_ && ct * outs_ + lo < out_; ++lo) {
            acc[static_cast<std::size_t>(b * out_ + ct * outs_ + lo)] +=
                d[static_cast<std::size_t>(2 * lo)] - d[static_cast<std::size_t>(2 * lo + 1)];
          }
          if (chk_ == 0 || !t.check_ok) continue;
          std::int64_t dsum = 0;
          for (std::int64_t c = 0; c < cols_; ++c) dsum += d[static_cast<std::size_t>(c)];
          std::int64_t chk = 0;
          for (std::int64_t k = chk_ - 1; k >= 0; --k) {
            chk = chk * cfg_.levels + d[static_cast<std::size_t>(cols_ + k)];
          }
          const std::int64_t res = dsum - chk;
          bool clipped = false;
          for (std::int64_t c = 0; c < phys && !ideal; ++c) {
            const std::int64_t v = d[static_cast<std::size_t>(c)];
            clipped = clipped || (v < 0 ? -v : v) >=
                                     std::int64_t{qmax} * delta[static_cast<std::size_t>(c)];
          }
          if (2 * (res < 0 ? -res : res) <= tol2) {
            ++run.checks;
          } else if (!clipped) {
            ++run.checks;
            ++run.mismatches[static_cast<std::size_t>(rt * col_tiles_ + ct)];
          }
        }
      }
    }
    for (std::int64_t i = 0; i < batch * out_; ++i) {
      run.y[static_cast<std::size_t>(i)] =
          static_cast<float>(acc[static_cast<std::size_t>(i)]) * dequant;
    }
    return run;
  }

 private:
  struct Tile {
    std::vector<std::uint8_t> level, fault;              // [tile_rows * tile_cols]
    std::vector<std::uint8_t> check_level, check_fault;  // [tile_rows * check digits]
    bool check_ok = true;
  };

  [[nodiscard]] std::int64_t eff(const std::vector<std::uint8_t>& level,
                                 const std::vector<std::uint8_t>& fault,
                                 std::int64_t cell) const {
    const auto f = static_cast<FaultType>(fault[static_cast<std::size_t>(cell)]);
    if (f == FaultType::kStuckOff) return 0;
    if (f == FaultType::kStuckOn) return cfg_.levels - 1;
    return level[static_cast<std::size_t>(cell)];
  }
  [[nodiscard]] std::int64_t driven(std::int64_t rt) const {
    return std::min(rows_, in_ - rt * rows_);
  }
  [[nodiscard]] Tile& tile(std::int64_t rt, std::int64_t ct) {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  [[nodiscard]] const Tile& tile(std::int64_t rt, std::int64_t ct) const {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  static void clear(Tile& t) {
    std::fill(t.fault.begin(), t.fault.end(), std::uint8_t{0});
    std::fill(t.check_fault.begin(), t.check_fault.end(), std::uint8_t{0});
  }

  QuantizedEngineConfig cfg_;
  std::int64_t out_, in_;
  float w_max_;
  std::int64_t rows_ = 0, cols_ = 0, outs_ = 0, row_tiles_ = 0, col_tiles_ = 0, chk_ = 0;
  std::vector<Tile> tiles_;
};

/// Pins kernel level and worker count for a scope.
class DispatchGuard {
 public:
  DispatchGuard(KernelLevel level, int threads) {
    kernels::set_kernel_level(level);
    set_num_threads(threads);
  }
  ~DispatchGuard() {
    kernels::clear_kernel_level_override();
    set_num_threads(0);
  }
};

/// Asserts engine == oracle on one batch at every kernel level and at 1 and
/// 4 threads: memcmp-equal y, per-tile ABFT tallies, read_back and
/// stuck_cells.
void expect_matches(QuantizedCrossbarEngine& engine, const DenseOracle& oracle, const Tensor& x,
                    const char* step) {
  SCOPED_TRACE(step);
  const std::int64_t batch = x.dim(0);
  const OracleRun want = oracle.mvm_batch(x.data(), batch);
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(KernelLevel::kAvx2);
  for (const KernelLevel level : levels) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "kernel=" << kernels::kernel_level_name(level)
                                        << " threads=" << threads);
      const DispatchGuard guard(level, threads);
      std::vector<float> y(want.y.size(), -1.0f);
      engine.mvm_batch(x.data(), batch, y.data());
      ASSERT_EQ(std::memcmp(y.data(), want.y.data(), y.size() * sizeof(float)), 0);
      if (!engine.abft_enabled()) continue;
      const abft::TileFaultReport report = engine.take_abft_report();
      EXPECT_EQ(report.checks, want.checks);
      std::vector<std::int64_t> got(want.mismatches.size(), 0);
      std::int64_t total = 0;
      for (const abft::TileFaultCount& f : report.tiles) {
        got[static_cast<std::size_t>(f.row_tile * oracle.col_tiles() + f.col_tile)] =
            f.mismatches;
        total += f.mismatches;
      }
      EXPECT_EQ(got, want.mismatches);
      EXPECT_EQ(report.mismatches, total);
    }
  }
  const Tensor got = engine.read_back();
  const Tensor ref = oracle.read_back();
  ASSERT_EQ(std::memcmp(got.data(), ref.data(), static_cast<std::size_t>(got.numel()) * 4), 0);
  EXPECT_EQ(engine.stuck_cells(), oracle.stuck_cells());
}

/// A few random weight-space faults (sorted, unique cells in [0, cells)).
DefectMap random_map(std::int64_t cells, Rng& rng) {
  std::vector<CellFault> faults;
  for (std::int64_t c = 0; c < cells; ++c) {
    if (rng.uniform_int(10) == 0) {
      faults.push_back({c, rng.uniform_int(2) == 0 ? FaultType::kStuckOff : FaultType::kStuckOn});
    }
  }
  return DefectMap::from_faults(cells, std::move(faults));
}

template <typename T>
T pick(const std::vector<T>& options, Rng& rng) {
  return options[static_cast<std::size_t>(rng.uniform_int(options.size()))];
}

TEST(QinferOracle, EngineMatchesDenseTilesOverRandomShapesAndFaults) {
  Rng rng(20260);
  const auto draw = [&rng](std::int64_t n) {  // uniform in [0, n)
    return static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(n)));
  };
  std::int64_t unmapped_hits = 0;
  std::int64_t partial_tiles = 0;
  constexpr int kCases = 60;
  for (int n = 0; n < kCases; ++n) {
    QuantizedEngineConfig config;
    config.tile_cols = pick<std::int64_t>({6, 8, 128}, rng);
    config.tile_rows = pick<std::int64_t>({4, 8, 16, 128}, rng);
    config.levels = pick<int>({2, 16, 256}, rng);
    config.adc.bits = pick<int>({0, 4, 8}, rng);
    config.abft.enabled = rng.uniform_int(2) == 0;
    // Shapes that do not fill their tiles: in < tile_rows, odd in, ragged
    // last row and column tiles.
    const std::int64_t in = 1 + draw(config.tile_rows == 128 ? 150 : 3 * config.tile_rows);
    const std::int64_t out = 1 + draw(config.tile_cols == 128 ? 70 : 3 * config.tile_cols / 2);
    const std::int64_t batch = 1 + draw(6);
    partial_tiles += (in % config.tile_rows != 0);
    SCOPED_TRACE(::testing::Message()
                 << "case " << n << ": in=" << in << " out=" << out << " tile=" << config.tile_rows
                 << "x" << config.tile_cols << " levels=" << config.levels
                 << " adc_bits=" << config.adc.bits << " abft=" << config.abft.enabled);

    const Tensor w = random_tensor(Shape{out, in}, 1000 + static_cast<std::uint64_t>(n));
    const Tensor x = random_tensor(Shape{batch, in}, 2000 + static_cast<std::uint64_t>(n));
    QuantizedCrossbarEngine engine(w, config);
    DenseOracle oracle(w, config);
    ASSERT_EQ(engine.tile_count(), oracle.tile_count());
    expect_matches(engine, oracle, x, "clean");

    const StuckAtFaultModel model(0.04, 0.5);
    const auto seed = static_cast<std::uint64_t>(n);
    engine.apply_device_defects(model, seed, 3);
    oracle.apply_device_defects(model, seed, 3);
    unmapped_hits += oracle.unmapped_stuck_cells();
    expect_matches(engine, oracle, x, "device defects");

    // The same die drawn twice lands on the same cells: counts must not grow.
    engine.apply_device_defects(model, seed, 3);
    oracle.apply_device_defects(model, seed, 3);
    expect_matches(engine, oracle, x, "device defects again");

    if (config.abft.enabled) {
      engine.abft_rebaseline();
      oracle.rebaseline();
      expect_matches(engine, oracle, x, "rebaseline");
    }

    const DefectMap map = random_map(2 * out * in, rng);
    engine.apply_defect_map(map);
    oracle.apply_defect_map(map);
    expect_matches(engine, oracle, x, "defect map");

    const std::int64_t rt = draw(oracle.row_tiles());
    const std::int64_t ct = draw(oracle.col_tiles());
    engine.scrub_tile(rt, ct);
    oracle.scrub_tile(rt, ct);
    expect_matches(engine, oracle, x, "scrub");

    engine.apply_device_defects(model, seed, 4);
    oracle.apply_device_defects(model, seed, 4);
    expect_matches(engine, oracle, x, "second die layered");

    engine.clear_defects();
    oracle.clear_defects();
    expect_matches(engine, oracle, x, "cleared");
    EXPECT_EQ(engine.stuck_cells(), 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sweep must exercise what the engine does not store or compute.
  EXPECT_GT(unmapped_hits, 0);
  EXPECT_GT(partial_tiles, kCases / 2);
}

}  // namespace
}  // namespace ftpim
