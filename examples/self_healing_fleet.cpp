// Self-healing fleet demo: deadlines, retry/failover, canary health checks,
// in-service defect aging, and automatic repair.
//
// Trains a SmallCNN, then serves synthetic traffic on a fleet whose ReRAM
// replicas wear out as they serve (new stuck-at faults accumulate per served
// batch). Every few batches each worker runs a known-answer canary batch
// against golden outputs from the pristine source model; when a replica's
// rolling success rate drops below the quarantine threshold it is repaired —
// re-cloned from the source with a fresh defect map — and returns to duty.
// Requests carry deadlines and a 2-attempt budget, so a batch lost to a
// failing replica fails over to a healthy one instead of surfacing an error.
#include <cstdio>
#include <future>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/serve/inference_server.hpp"
#include "src/serve/serve_error.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::serve;

  const int replicas = env_int_in("FTPIM_REPLICAS", 2, 1, 64);
  const int total_requests = env_int_in("FTPIM_REQS", 768, 1, 1 << 24);

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int_in("FTPIM_TRAIN", 1024, 1, kMaxSamples);
  const auto train = make_synthvision(data_cfg, 1);
  data_cfg.samples = env_int_in("FTPIM_TEST", 512, 1, kMaxSamples);
  const auto test = make_synthvision(data_cfg, 2);

  SmallCnnConfig model_cfg;
  model_cfg.image_size = 16;
  auto model = make_small_cnn(model_cfg);
  TrainConfig tc;
  tc.epochs = env_int_in("FTPIM_EPOCHS", 4, 1, kMaxEpochs);
  Trainer(*model, *train, tc).run();
  std::printf("factory model accuracy (no defects): %.2f%%\n",
              evaluate_accuracy(*model, *test) * 100.0);

  ServerConfig cfg;
  cfg.queue_capacity = 512;
  cfg.batching.max_batch_size = 8;
  cfg.batching.max_linger_ns = 500'000;
  cfg.pool.num_replicas = replicas;
  cfg.pool.p_sa = 0.01;  // factory defect rate at ship time
  cfg.pool.seed = 7;
  // Wear model: every 16 served batches, 1% of the surviving cells fail.
  cfg.aging.p_new_per_interval = 0.01;
  cfg.aging.interval_batches = 16;
  cfg.aging.seed = 99;
  // Health policy: canary every 8 batches, quarantine+repair below 85%.
  cfg.health.canary_every_batches = 8;
  cfg.health.canary_samples = 8;
  cfg.health.window = 32;
  cfg.health.min_samples = 8;
  cfg.health.quarantine_below = 0.85;
  cfg.health.repair_on_quarantine = true;
  // Reliability policy: 50ms deadline, one failover attempt.
  cfg.default_deadline_ns = 50'000'000;
  cfg.max_attempts = 2;
  InferenceServer server(*model, cfg);
  server.start();

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) {
    futures.push_back(server.submit(test->get(i % test->size()).image));
  }

  std::int64_t ok = 0, correct = 0;
  std::vector<std::int64_t> errors_by_kind(5, 0);
  for (int i = 0; i < total_requests; ++i) {
    try {
      const InferenceResult res = futures[static_cast<std::size_t>(i)].get();
      ++ok;
      if (res.predicted == test->get(i % test->size()).label) ++correct;
    } catch (const ServeError& e) {
      ++errors_by_kind[static_cast<std::size_t>(e.kind())];
    }
  }
  server.drain();
  server.stop();

  const ServerStats stats = server.stats();
  std::printf("\nanswered %lld/%d requests", static_cast<long long>(ok), total_requests);
  if (ok > 0) {
    std::printf(" | served accuracy %.2f%%",
                100.0 * static_cast<double>(correct) / static_cast<double>(ok));
  }
  std::printf("\n");
  for (std::size_t k = 0; k < errors_by_kind.size(); ++k) {
    if (errors_by_kind[k] > 0) {
      std::printf("  %s: %lld\n", to_string(static_cast<ServeError::Kind>(k)),
                  static_cast<long long>(errors_by_kind[k]));
    }
  }
  std::printf("%s\n%s\n", stats.summary_line().c_str(), stats.health_line().c_str());
  return 0;
}
