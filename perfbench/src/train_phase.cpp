// FT-training and defect-evaluation phase: the paper's offline workflow.
//
// FaultTolerantTrainer retrains ResNet-20 (width 8) on 16x16 SynthVision
// with a fresh stuck-at fault map every iteration, then
// evaluate_under_defects scores it over a fixed set of device maps at the
// same p_sa (float fold-in, or the quantized engine with ABFT checksums on
// the quantized workload).
//
// The traced run rebuilds the same loop from public pieces (Trainer +
// TrainHooks + FaultInjectionSession, and the evaluator's clone/inject/
// forward steps) with a timing wrapper around the network's children, and
// checks that its losses and accuracies equal the library's bit for bit, so
// the breakdown describes exactly the work the untraced run times.
#include <cmath>
#include <cstring>
#include <map>

#include "perfbench/src/common.hpp"
#include "perfbench/src/stats.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/qinfer/deploy.hpp"

namespace perfbench {
namespace {

using namespace ftpim;

constexpr std::int64_t kImage = 16;
constexpr std::int64_t kTrainSamples = 896;
constexpr std::int64_t kEvalSamples = 384;
constexpr int kEpochs = 2;
constexpr double kTargetPsa = 0.01;
constexpr std::uint64_t kDeviceSeed = 99;  // the fixed set of evaluated devices
constexpr double kDefectAccFloor = 0.15;   // chance is 0.1
/// Training set, data order, fault draws and device maps are fixed, not drawn
/// from --seed: a retrain this short lands anywhere between 14% and 45%
/// defect accuracy depending on the draw, and a fixed job makes
/// epoch_s, defect_eval_s and defect_acc comparable run to run.
constexpr std::uint64_t kJobSeed = 1;

/// Times every top-level child of a Sequential during forward and backward;
/// everything else delegates, so trainers, optimizers and the fault
/// injector see the wrapped network unchanged.
class TimedSequential final : public Module {
 public:
  explicit TimedSequential(Sequential& inner)
      : inner_(inner), fwd_ns_(inner.size(), 0), bwd_ns_(inner.size(), 0) {}

  Tensor forward(const Tensor& input, bool training) override {
    const std::int64_t start = now_ns();
    Tensor x = input;
    for (std::size_t i = 0; i < inner_.size(); ++i) {
      const std::int64_t t = now_ns();
      x = inner_.child(i).forward(x, training);
      fwd_ns_[i] += now_ns() - t;
    }
    forward_ns += now_ns() - start;
    return x;
  }

  Tensor backward(const Tensor& grad_output) override {
    const std::int64_t start = now_ns();
    Tensor g = grad_output;
    for (std::size_t i = inner_.size(); i-- > 0;) {
      const std::int64_t t = now_ns();
      g = inner_.child(i).backward(g);
      bwd_ns_[i] += now_ns() - t;
    }
    backward_ns += now_ns() - start;
    return g;
  }

  void collect_params(const std::string& prefix, std::vector<Param*>& out) override {
    inner_.collect_params(prefix, out);
  }
  void collect_buffers(const std::string& prefix,
                       std::vector<std::pair<std::string, Tensor*>>& out) override {
    inner_.collect_buffers(prefix, out);
  }
  void collect_modules(std::vector<Module*>& out) override { inner_.collect_modules(out); }
  [[nodiscard]] std::unique_ptr<Module> clone() const override { return inner_.clone(); }
  [[nodiscard]] std::string type_name() const override { return inner_.type_name(); }

  /// Accumulated child time by child type name: {forward, backward} ns.
  [[nodiscard]] std::map<std::string, std::pair<double, double>> by_type() const {
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < inner_.size(); ++i) {
      auto& slot = out[inner_.child(i).type_name()];
      slot.first += static_cast<double>(fwd_ns_[i]);
      slot.second += static_cast<double>(bwd_ns_[i]);
    }
    return out;
  }

  std::int64_t forward_ns = 0;
  std::int64_t backward_ns = 0;

 private:
  Sequential& inner_;
  std::vector<std::int64_t> fwd_ns_;
  std::vector<std::int64_t> bwd_ns_;
};

class TrainPhase final : public Phase {
 public:
  TrainPhase(const Workload& w, const Options& o) : w_(w), o_(o) {}

  void setup() override {
    model_ = make_resnet20(/*classes=*/10, /*base_width=*/8, /*seed=*/1);
    SynthVisionConfig cfg;
    cfg.image_size = kImage;
    cfg.samples = kTrainSamples;
    cfg.noise_std = 0.3f;
    train_ = make_synthvision(cfg, derive_seed(kJobSeed, 0x7a1));
    cfg.samples = kEvalSamples;
    eval_ = make_synthvision(cfg, derive_seed(kJobSeed, 0xe7a));
  }

  void run(Report& report) override {
    if (o_.trace) {
      run_traced(report);
      return;
    }
    // The job runs kRounds times from the same initial network, spread over
    // the phase; each metric is the median round. Both steps are
    // single-threaded and timed on the process CPU clock (see cpu_now_ns);
    // wall times are reported beside.
    std::vector<double> train_cpu, train_wall, eval_cpu, eval_wall;
    FtTrainStats stats;
    DefectEvalResult eval;
    bool repeatable = true;
    for (int round = 0; round < kRounds; ++round) {
      const std::unique_ptr<Module> model = model_->clone();
      const std::int64_t w0 = now_ns(), c0 = cpu_now_ns();
      FaultTolerantTrainer trainer(*model, *train_, ft_config());
      const FtTrainStats round_stats = trainer.run();
      train_cpu.push_back(static_cast<double>(cpu_now_ns() - c0) * 1e-9 / kEpochs);
      train_wall.push_back(seconds_since(w0) / kEpochs);

      const std::int64_t w1 = now_ns(), c1 = cpu_now_ns();
      const DefectEvalResult round_eval = evaluate_under_defects(*model, *eval_, kTargetPsa, eval_config());
      eval_cpu.push_back(static_cast<double>(cpu_now_ns() - c1) * 1e-9);
      eval_wall.push_back(seconds_since(w1));
      if (round == 0) {
        stats = round_stats;
        eval = round_eval;
      }
      repeatable = repeatable &&
                   round_stats.stage_stats.front().epoch_losses == stats.stage_stats.front().epoch_losses &&
                   round_eval.run_accs == eval.run_accs;
    }
    const std::vector<float>& losses = stats.stage_stats.front().epoch_losses;
    bool finite = losses.size() == static_cast<std::size_t>(kEpochs);
    std::string loss_list;
    for (const float l : losses) {
      finite = finite && std::isfinite(l);
      loss_list += (loss_list.empty() ? "" : " ") + std::to_string(l);
    }
    report.metric("epoch_s", median(train_cpu), "s");
    report.metric("defect_eval_s", median(eval_cpu), "s");
    report.metric("defect_acc", eval.mean_acc, "fraction");
    report.fact("train.epoch_losses", loss_list);
    report.fact("train.cpu_s_per_epoch.rounds", join(train_cpu));
    report.fact("train.wall_s_per_epoch.rounds", join(train_wall));
    report.fact("defect_eval.cpu_s.rounds", join(eval_cpu));
    report.fact("defect_eval.wall_s.rounds", join(eval_wall));
    report.fact("defect_eval.std_acc", eval.std_acc);
    if (w_.quantized) report.fact("defect_eval.detection_rate", eval.detection_rate);
    report.ops(kRounds * (kEpochs + device_maps()), finite ? 0 : 1);
    report.check("train.losses_finite", finite, "every epoch loss is finite");
    report.check("train.repeatable", repeatable,
                 "every round reproduces round 0's losses and per-map accuracies bit for bit");
    report.check("defect_acc_floor", eval.mean_acc >= kDefectAccFloor,
                 "defect_acc >= " + std::to_string(kDefectAccFloor));
  }

 private:
  /// A quantized device map costs ~5x a float one; both evaluations take a
  /// few seconds.
  [[nodiscard]] int device_maps() const { return w_.quantized ? 2 : 6; }

  [[nodiscard]] FtTrainConfig ft_config() const {
    FtTrainConfig ft;
    ft.base.epochs = kEpochs;
    ft.base.batch_size = 64;
    ft.base.seed = derive_seed(kJobSeed, 0x5eed);
    ft.scheme = FtScheme::kOneShot;
    ft.target_p_sa = kTargetPsa;
    ft.refresh = FaultRefresh::kPerIteration;
    ft.fault_seed = derive_seed(kJobSeed, 0xfa17);
    return ft;
  }

  [[nodiscard]] DefectEvalConfig eval_config() const {
    DefectEvalConfig cfg;
    cfg.num_runs = device_maps();
    cfg.seed = kDeviceSeed;
    cfg.batch_size = 256;
    if (w_.quantized) {
      cfg.engine = EvalEngine::kQuantized;
      cfg.quantized.levels = 16;
      cfg.quantized.adc.bits = 8;
      cfg.abft_detection = true;
    }
    return cfg;
  }

  void run_traced(Report& report) {
    // Reference: the library trainer on one copy of the initial network.
    const FtTrainConfig ft = ft_config();
    const std::unique_ptr<Module> reference = model_->clone();
    FaultTolerantTrainer lib(*reference, *train_, ft);
    const std::vector<float> ref_losses = lib.run().stage_stats.front().epoch_losses;

    // Traced replica of FaultTolerantTrainer's one-shot stage 0.
    TimedSequential timed(*model_);
    TrainConfig stage = ft.base;
    stage.seed = derive_seed(ft.base.seed, 0);
    Trainer trainer(timed, *train_, stage);
    FaultInjectionSession session(timed);
    const StuckAtFaultModel fault_model(ft.target_p_sa, ft.sa0_fraction);
    const std::uint64_t stage_fault_seed = derive_seed(ft.fault_seed, 0);
    std::int64_t iter_start = 0, inject_ns = 0, loader_ns = 0, step_ns = 0, total_ns = 0,
                 mark = 0, iters = 0;
    TrainHooks hooks;
    hooks.before_forward = [&](int epoch, std::int64_t it) {
      const std::int64_t t = now_ns();
      loader_ns += t - iter_start;
      Rng rng(derive_seed(stage_fault_seed,
                          (static_cast<std::uint64_t>(epoch) << 32) ^ static_cast<std::uint64_t>(it)));
      session.inject(fault_model, ft.injector, rng);
      inject_ns += now_ns() - t;
    };
    hooks.after_backward = [&](int, std::int64_t) {
      const std::int64_t t = now_ns();
      session.restore();
      mark = now_ns();
      inject_ns += mark - t;
    };
    hooks.after_step = [&](int, std::int64_t) {
      const std::int64_t t = now_ns();
      step_ns += t - mark;
      total_ns += t - iter_start;
      ++iters;
      iter_start = t;
    };
    trainer.set_hooks(hooks);
    std::vector<float> losses;
    for (int e = 0; e < ft.base.epochs; ++e) {
      iter_start = now_ns();
      losses.push_back(trainer.run_epoch(e, ft.base.epochs));
    }
    const bool same = losses.size() == ref_losses.size() &&
                      std::memcmp(losses.data(), ref_losses.data(), losses.size() * sizeof(float)) == 0;
    report.check("train.trace_matches_library", same,
                 "traced loop reproduces FaultTolerantTrainer's epoch losses bit for bit");

    const double n = static_cast<double>(std::max<std::int64_t>(1, iters));
    const double ms = 1e-6 / n;
    const std::vector<double> parts = {static_cast<double>(loader_ns), static_cast<double>(inject_ns),
                                       static_cast<double>(timed.forward_ns),
                                       static_cast<double>(timed.backward_ns),
                                       static_cast<double>(step_ns)};
    report.metric("train.loader_ms", parts[0] * ms, "ms");
    report.metric("train.inject_ms", parts[1] * ms, "ms");
    report.metric("train.forward_ms", parts[2] * ms, "ms");
    report.metric("train.backward_ms", parts[3] * ms, "ms");
    report.metric("train.step_ms", parts[4] * ms, "ms");
    report.metric("train.coverage", coverage(parts, static_cast<double>(total_ns)), "fraction");
    const auto types = timed.by_type();
    for (const char* type : kTrainChildTypes) {
      const auto it = types.find(type);
      const double f = it == types.end() ? 0.0 : it->second.first;
      const double b = it == types.end() ? 0.0 : it->second.second;
      report.metric(std::string("nn.train.fwd_ms.") + type, f * ms, "ms");
      report.metric(std::string("nn.train.bwd_ms.") + type, b * ms, "ms");
    }
    report.fact("train.traced_epoch_s", static_cast<double>(total_ns) * 1e-9 / ft.base.epochs);

    trace_defect_eval(report);
  }

  /// evaluate_under_defects' per-worker loop, with its three steps timed.
  void trace_defect_eval(Report& report) {
    const DefectEvalConfig cfg = eval_config();
    const StuckAtFaultModel fault_model(kTargetPsa, cfg.sa0_fraction);
    qinfer::QuantizedEngineConfig engine = cfg.quantized;
    if (cfg.abft_detection) engine.abft.enabled = true;
    const auto runs = static_cast<std::size_t>(cfg.num_runs);
    std::vector<double> accs(runs, 0.0), clone_ns(runs, 0.0), inject_ns(runs, 0.0),
        forward_ns(runs, 0.0);
    parallel_for_chunks(
        0, runs,
        [&](std::size_t lo, std::size_t hi) {
          std::int64_t t = now_ns();
          const std::unique_ptr<Module> local = model_->clone();
          std::unique_ptr<qinfer::QuantizedDeployment> deployment;
          std::unique_ptr<FaultInjectionSession> session;
          if (w_.quantized) {
            deployment = qinfer::deploy_quantized(*local, engine);
          } else {
            session = std::make_unique<FaultInjectionSession>(*local);
          }
          clone_ns[lo] += static_cast<double>(now_ns() - t);
          for (std::size_t run = lo; run < hi; ++run) {
            t = now_ns();
            Rng rng(derive_seed(cfg.seed, static_cast<std::uint64_t>(run)));
            if (deployment) {
              deployment->apply_defect_map(DefectMap::sample(deployment->cell_count(), fault_model, rng));
            } else {
              session->inject(fault_model, cfg.injector, rng);
            }
            const std::int64_t f = now_ns();
            accs[run] = evaluate_accuracy(*local, *eval_, cfg.batch_size);
            const std::int64_t g = now_ns();
            if (deployment) {
              (void)deployment->take_abft_reports();
              deployment->clear_defects();
            } else {
              session->restore();
            }
            inject_ns[run] += static_cast<double>((f - t) + (now_ns() - g));
            forward_ns[run] += static_cast<double>(g - f);
          }
        },
        /*min_parallel_trip=*/2);
    const double per_map = 1e-6 / static_cast<double>(runs);
    auto sum = [](const std::vector<double>& v) { double s = 0; for (double x : v) s += x; return s; };
    report.metric("core.defect_eval.clone_ms", sum(clone_ns) * per_map, "ms");
    report.metric("core.defect_eval.inject_ms", sum(inject_ns) * per_map, "ms");
    report.metric("core.defect_eval.forward_ms", sum(forward_ns) * per_map, "ms");

    const DefectEvalResult lib = evaluate_under_defects(*model_, *eval_, kTargetPsa, cfg);
    report.check("defect_eval.trace_matches_library", lib.run_accs == accs,
                 "traced Monte-Carlo loop reproduces evaluate_under_defects per device map");
    report.ops(static_cast<std::int64_t>(runs) + kEpochs, 0);
  }

  static constexpr const char* kTrainChildTypes[] = {"Conv2d",        "BatchNorm2d", "ReLU",
                                                    "ResidualBlock", "GlobalAvgPool", "Linear"};

  const Workload& w_;
  const Options& o_;
  std::unique_ptr<Sequential> model_;
  std::unique_ptr<InMemoryDataset> train_;
  std::unique_ptr<InMemoryDataset> eval_;
};

}  // namespace

std::unique_ptr<Phase> make_train_phase(const Workload& w, const Options& o) {
  return std::make_unique<TrainPhase>(w, o);
}

}  // namespace perfbench
