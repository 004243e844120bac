// Offline per-layer probes of the serve deployment (traced run only).
//
// Everything here runs on state built from the serve phase's own config,
// outside the server, at the serve phase's thread budget:
//   nn      per-child forward time of replica 0 at batch 1 and 16, and the
//           share of the whole forward the children account for;
//   qinfer  time inside the engines' MvmHooks (a timing wrapper installed
//           through set_mvm_hook), the glue around them, the ABFT cost, and
//           deployment programming time;
//   tensor  gemm() and the int8 qgemm kernel at each conv layer's shape;
//   serve   ReplicaPool repair / refresh / scrub, the maintenance writes the
//           quantized workload interleaves with traffic.
// The float workload deploys nothing quantized, so its qinfer probes run on
// a quantized deployment of the same network built here.
#include <atomic>
#include <map>
#include <random>

#include "perfbench/src/serve_config.hpp"
#include "perfbench/src/stats.hpp"
#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/reram/qinfer/deploy.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/qgemm.hpp"

namespace perfbench {
namespace {

using namespace ftpim;
using namespace ftpim::serve;

/// Forwards to an installed MvmHook and accumulates the time spent in it.
/// Holds the wrapped hook without owning it: the deployment that installed
/// it keeps it alive, and HookTimers hands the layer back that exact hook.
class TimingHook final : public MvmHook {
 public:
  explicit TimingHook(const MvmHook* inner) : inner_(std::shared_ptr<const MvmHook>(), inner) {}

  void mvm_batch(const float* x, std::int64_t batch, float* y) const override {
    const std::int64_t t = now_ns();
    inner_->mvm_batch(x, batch, y);
    ns_.fetch_add(now_ns() - t, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t in_features() const noexcept override { return inner_->in_features(); }
  [[nodiscard]] std::int64_t out_features() const noexcept override { return inner_->out_features(); }

  [[nodiscard]] const std::shared_ptr<const MvmHook>& inner() const noexcept { return inner_; }
  [[nodiscard]] std::int64_t ns() const noexcept { return ns_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const MvmHook> inner_;
  mutable std::atomic<std::int64_t> ns_{0};
};

/// Wraps every installed hook of a model for the lifetime of this object.
class HookTimers {
 public:
  explicit HookTimers(Module& model) {
    std::vector<Module*> modules;
    model.collect_modules(modules);
    for (Module* m : modules) {
      if (auto* conv = dynamic_cast<Conv2d*>(m); conv != nullptr && conv->mvm_hook() != nullptr) {
        auto timer = std::make_shared<TimingHook>(conv->mvm_hook());
        conv->set_mvm_hook(timer);
        slots_.push_back({conv, nullptr, timer});
      } else if (auto* lin = dynamic_cast<Linear*>(m); lin != nullptr && lin->mvm_hook() != nullptr) {
        auto timer = std::make_shared<TimingHook>(lin->mvm_hook());
        lin->set_mvm_hook(timer);
        slots_.push_back({nullptr, lin, timer});
      }
    }
  }
  ~HookTimers() {
    for (const Slot& s : slots_) {
      if (s.conv != nullptr) s.conv->set_mvm_hook(s.timer->inner());
      if (s.linear != nullptr) s.linear->set_mvm_hook(s.timer->inner());
    }
  }
  HookTimers(const HookTimers&) = delete;
  HookTimers& operator=(const HookTimers&) = delete;

  [[nodiscard]] std::int64_t total_ns() const {
    std::int64_t t = 0;
    for (const Slot& s : slots_) t += s.timer->ns();
    return t;
  }

 private:
  struct Slot {
    Conv2d* conv;
    Linear* linear;
    std::shared_ptr<TimingHook> timer;
  };
  std::vector<Slot> slots_;
};

/// Calls fn until `budget_s` has passed (at least `min_reps` times) and
/// returns each call's duration in ns.
template <typename Fn>
std::vector<double> repeat_for(double budget_s, Fn&& fn, int min_reps = 5) {
  std::vector<double> ns;
  const std::int64_t start = now_ns();
  while (static_cast<int>(ns.size()) < min_reps || seconds_since(start) < budget_s) {
    const std::int64_t t = now_ns();
    fn();
    ns.push_back(static_cast<double>(now_ns() - t));
  }
  return ns;
}

struct ForwardProfile {
  double whole_ns = 0.0;                  ///< median whole forward
  double children_ns = 0.0;               ///< median sum of child forwards
  std::map<std::string, double> by_type;  ///< median per child type
  double mvm_ns = 0.0;                    ///< median time inside hooks
  double hooked_ns = 0.0;                 ///< median Conv2d + Linear child time
  double flops = 0.0;                     ///< per forward
};

/// Alternates a whole eval forward with a child-by-child one, so both see
/// the same machine state; medians over the repetitions.
ForwardProfile profile_forward(Sequential& net, const Tensor& batch, const HookTimers* hooks,
                               double budget_s) {
  const std::size_t n = net.size();
  std::vector<double> whole, children, mvm, hooked;
  std::map<std::string, std::vector<double>> by_type;
  std::vector<double> flops(n, 0.0);
  for (int warm = 0; warm < 3; ++warm) (void)net.forward(batch, false);
  const std::int64_t start = now_ns();
  while (whole.size() < 5 || seconds_since(start) < budget_s) {
    std::int64_t t = now_ns();
    (void)net.forward(batch, false);
    whole.push_back(static_cast<double>(now_ns() - t));

    const std::int64_t mvm0 = hooks != nullptr ? hooks->total_ns() : 0;
    std::map<std::string, double> rep;
    double sum = 0.0, hook_layers = 0.0;
    Tensor x = batch;
    for (std::size_t i = 0; i < n; ++i) {
      Module& child = net.child(i);
      t = now_ns();
      x = child.forward(x, false);
      const auto dt = static_cast<double>(now_ns() - t);
      rep[child.type_name()] += dt;
      sum += dt;
      if (auto* conv = dynamic_cast<Conv2d*>(&child)) {
        hook_layers += dt;
        flops[i] = 2.0 * static_cast<double>(conv->weight().value.numel()) *
                   static_cast<double>(x.numel() / conv->out_channels());
      } else if (auto* lin = dynamic_cast<Linear*>(&child)) {
        hook_layers += dt;
        flops[i] = 2.0 * static_cast<double>(lin->weight().value.numel()) *
                   static_cast<double>(x.dim(0));
      }
    }
    children.push_back(sum);
    hooked.push_back(hook_layers);
    mvm.push_back(hooks != nullptr ? static_cast<double>(hooks->total_ns() - mvm0) : 0.0);
    for (const auto& [type, dt] : rep) by_type[type].push_back(dt);
  }
  ForwardProfile p;
  p.whole_ns = median(whole);
  p.children_ns = median(children);
  p.mvm_ns = median(mvm);
  p.hooked_ns = median(hooked);
  for (auto& [type, v] : by_type) p.by_type[type] = median(v);
  for (const double f : flops) p.flops += f;
  return p;
}

Tensor input_batch(std::int64_t b, std::uint64_t seed) {
  SynthVisionConfig cfg;
  cfg.image_size = kServeImage;
  cfg.samples = b;
  const auto data = make_synthvision(cfg, seed);
  Tensor out(Shape{b, 3, kServeImage, kServeImage});
  const std::int64_t numel = 3 * kServeImage * kServeImage;
  for (std::int64_t i = 0; i < b; ++i) {
    std::copy_n(data->get(i).image.data(), numel, out.data() + i * numel);
  }
  return out;
}

constexpr const char* kServeChildTypes[] = {"Conv2d", "BatchNorm2d", "ReLU", "MaxPool2d", "Linear"};

/// Per-sample forward profile of `net` at batch 1 and 16: the nn metrics
/// when `with_nn`, the qinfer hook metrics when `hooks` time the engines.
void report_forward(Report& report, Sequential& net, const HookTimers* hooks, bool with_nn,
                    const Options& o) {
  for (const std::int64_t b : {std::int64_t{1}, kServeMaxBatch}) {
    const std::string tag = b == 1 ? "b1" : "b16";
    const ForwardProfile p =
        profile_forward(net, input_batch(b, derive_seed(o.seed, 0x9b + b)), hooks, 0.01 * o.seconds);
    const double per = 1e-3 / static_cast<double>(b);  // ns per batch -> us per sample
    if (with_nn) {
      report.metric("nn.forward_us." + tag, p.whole_ns * per, "us");
      for (const char* type : kServeChildTypes) {
        const auto it = p.by_type.find(type);
        report.metric(std::string("nn.") + type + "_us." + tag,
                      it == p.by_type.end() ? 0.0 : it->second * per, "us");
      }
      report.metric("nn.coverage." + tag, p.children_ns / p.whole_ns, "fraction");
      if (b == kServeMaxBatch) report.metric("nn.gflops.b16", p.flops / p.whole_ns, "GFLOP/s");
    }
    if (hooks != nullptr) {
      report.metric("qinfer.mvm_us." + tag, p.mvm_ns * per, "us");
      report.metric("qinfer.glue_us." + tag, self_time({p.mvm_ns}, p.hooked_ns) * per, "us");
    }
  }
}

void report_qinfer_costs(Report& report, const Module& source,
                         const qinfer::QuantizedEngineConfig& engine, const Options& o) {
  // ABFT overhead: the same network deployed with and without checksums,
  // forwards interleaved so drift hits both sides alike.
  qinfer::QuantizedEngineConfig on = engine, off = engine;
  on.abft.enabled = true;
  off.abft.enabled = false;
  const std::unique_ptr<Module> with = source.clone();
  const std::unique_ptr<Module> without = source.clone();
  const auto dep_on = qinfer::deploy_quantized(*with, on);
  const auto dep_off = qinfer::deploy_quantized(*without, off);
  const Tensor batch = input_batch(kServeMaxBatch, derive_seed(o.seed, 0xab));
  std::vector<double> t_on, t_off;
  const std::int64_t start = now_ns();
  while (t_on.size() < 5 || seconds_since(start) < 0.01 * o.seconds) {
    std::int64_t t = now_ns();
    (void)with->forward(batch, false);
    t_on.push_back(static_cast<double>(now_ns() - t));
    t = now_ns();
    (void)without->forward(batch, false);
    t_off.push_back(static_cast<double>(now_ns() - t));
  }
  report.metric("qinfer.abft_overhead", median(t_on) / median(t_off) - 1.0, "fraction");

  std::vector<double> program;
  const std::int64_t program_start = now_ns();
  while (program.size() < 5 || seconds_since(program_start) < 0.005 * o.seconds) {
    const std::unique_ptr<Module> m = source.clone();
    const std::int64_t t = now_ns();
    const auto deployment = qinfer::deploy_quantized(*m, engine);
    program.push_back(static_cast<double>(now_ns() - t));
  }
  report.metric("qinfer.program_ms", median(program) * 1e-6, "ms");
}

/// gemm() and the int8 kernel at the first two conv layers' GEMM shapes:
/// float conv lowers to M = out_c, N = pixels, K = in_c*k*k per image; the
/// quantized hook sees batch = pixels rows of K features against out_c
/// columns.
void report_tensor(Report& report, Sequential& net, const Options& o) {
  const Tensor batch = input_batch(1, derive_seed(o.seed, 0x7e));
  Tensor x = batch;
  int conv_index = 0;
  std::mt19937 gen(static_cast<std::uint32_t>(o.seed));
  for (std::size_t i = 0; i < net.size() && conv_index < 2; ++i) {
    x = net.child(i).forward(x, false);
    auto* conv = dynamic_cast<Conv2d*>(&net.child(i));
    if (conv == nullptr) continue;
    const std::string tag = "conv" + std::to_string(++conv_index);
    const std::int64_t m = conv->out_channels();
    const std::int64_t k = conv->in_channels() * conv->kernel() * conv->kernel();
    const std::int64_t pixels = x.numel() / m;
    const double ops = 2.0 * static_cast<double>(m * pixels * k);

    std::uniform_real_distribution<float> uf(-1.0f, 1.0f);
    std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * pixels)),
        c(static_cast<std::size_t>(m * pixels));
    for (float& v : a) v = uf(gen);
    for (float& v : b) v = uf(gen);
    const std::vector<double> g = repeat_for(0.005 * o.seconds, [&] {
      for (int rep = 0; rep < 16; ++rep) gemm(m, pixels, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    report.metric("tensor.gemm_gflops." + tag, 16.0 * ops / median(g), "GFLOP/s");

    const std::int64_t lda = k + (k & 1);
    std::uniform_int_distribution<int> ua(-127, 127), ul(0, 15);
    std::vector<std::int8_t> qa(static_cast<std::size_t>(pixels * lda), 0);
    for (std::int64_t r = 0; r < pixels; ++r) {
      for (std::int64_t p = 0; p < k; ++p) qa[static_cast<std::size_t>(r * lda + p)] = static_cast<std::int8_t>(ua(gen));
    }
    std::vector<std::uint8_t> levels(static_cast<std::size_t>(k * m));
    for (auto& v : levels) v = static_cast<std::uint8_t>(ul(gen));
    std::vector<std::uint8_t> packed(kernels::packed_levels_bytes(k, m));
    kernels::pack_levels(levels.data(), k, m, m, packed.data());
    std::vector<std::int32_t> qc(static_cast<std::size_t>(pixels * m));
    const kernels::QmvmKernel qk = kernels::select_qmvm_kernel(kernels::active_kernel_level());
    const std::vector<double> q = repeat_for(0.005 * o.seconds, [&] {
      for (int rep = 0; rep < 16; ++rep) qk(pixels, m, k, qa.data(), lda, packed.data(), qc.data(), m);
    });
    report.metric("tensor.qgemm_gops." + tag, 16.0 * ops / median(q), "GOP/s");
  }
}

/// ReplicaPool maintenance writes on a pool built from the serve config.
/// The float datapath has no tile scrub (it is an ABFT operation); there the
/// scrub slot times the float path's only re-programming step, a refresh.
void report_pool(Report& report, const Module& source, const ServerConfig& cfg,
                 const Options& o) {
  ReplicaPool pool(source, cfg.pool);
  const double budget = 0.005 * o.seconds;
  const std::vector<double> repair = repeat_for(budget, [&] { pool.repair(0); });
  const std::vector<double> refresh = repeat_for(budget, [&] { (void)pool.refresh(0); });
  report.metric("serve.pool.repair_ms", median(repair) * 1e-6, "ms");
  report.metric("serve.pool.refresh_ms", median(refresh) * 1e-6, "ms");
  if (!pool.abft_armed()) {
    report.metric("serve.pool.scrub_ms", median(refresh) * 1e-6, "ms");
    return;
  }
  // Land an upset on top of the persistent map, let one forward detect it,
  // then time the scrub of the flagged tiles.
  const Tensor batch = input_batch(kServeMaxBatch, derive_seed(o.seed, 0x5c));
  Rng rng(derive_seed(o.seed, 0x5c2));
  std::vector<double> scrub;
  std::int64_t tiles = 0;
  const std::int64_t start = now_ns();
  while (scrub.size() < 5 || seconds_since(start) < budget) {
    DefectMap upset = pool.defect_map(0);
    (void)upset.merge_from(DefectMap::sample(upset.cell_count(), StuckAtFaultModel(0.02), rng));
    pool.deployment(0)->apply_defect_map(upset);
    (void)pool.replica(0).forward(batch, false);
    const auto reports = pool.take_abft_reports(0);
    const std::int64_t t = now_ns();
    tiles += pool.scrub(0, reports);
    scrub.push_back(static_cast<double>(now_ns() - t));
  }
  report.metric("serve.pool.scrub_ms", median(scrub) * 1e-6, "ms");
  report.fact("serve.pool.scrubbed_tiles_per_scrub",
              static_cast<double>(tiles) / static_cast<double>(scrub.size()));
}

}  // namespace

void run_layer_probes(const Workload& w, const Options& o, Report& report) {
  const std::unique_ptr<Sequential> source = make_serve_model();
  const ServerConfig cfg = make_server_config(w);
  Workload quantized = w;
  quantized.quantized = true;
  const qinfer::QuantizedEngineConfig engine = make_server_config(quantized).pool.quantized;
  {
    ReplicaPool pool(*source, cfg.pool);
    auto& replica = dynamic_cast<Sequential&>(pool.replica(0));
    if (w.quantized) {
      const HookTimers hooks(replica);
      report_forward(report, replica, &hooks, /*with_nn=*/true, o);
    } else {
      report_forward(report, replica, nullptr, /*with_nn=*/true, o);
      const std::unique_ptr<Module> copy = source->clone();
      auto& net = dynamic_cast<Sequential&>(*copy);
      const auto deployment = qinfer::deploy_quantized(net, engine);
      const HookTimers hooks(net);
      report_forward(report, net, &hooks, /*with_nn=*/false, o);
    }
    report_tensor(report, replica, o);
  }
  report_qinfer_costs(report, *source, engine, o);
  report_pool(report, *source, cfg, o);
}

}  // namespace perfbench
