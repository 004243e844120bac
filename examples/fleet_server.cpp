// Edge-fleet serving demo: one FT-trainable model, N defective replicas,
// request-driven batched inference.
//
// Trains a SmallCNN, builds an InferenceServer whose ReplicaPool holds
// FTPIM_REPLICAS clones each carrying its own persistent stuck-at defect map,
// then fires synthetic traffic at it from FTPIM_CLIENTS threads. Reports the
// per-replica accuracy spread (the "device lottery" the paper's FT training
// narrows), dynamic-batching behavior, and end-to-end latency percentiles.
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/serve/inference_server.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::serve;

  const int replicas = env_int_in("FTPIM_REPLICAS", 4, 1, 64);
  const int clients = env_int_in("FTPIM_CLIENTS", 4, 1, 256);
  const int requests_per_client = env_int_in("FTPIM_REQS", 256, 1, 1 << 24);
  const double p_sa = env_double_in("FTPIM_PSA", 0.01, 0.0, 1.0);

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
  const double clean_acc = evaluate_accuracy(*model, *test);
  std::printf("factory model accuracy (no defects): %.2f%%\n", clean_acc * 100.0);

  ServerConfig cfg;
  cfg.queue_capacity = 512;
  cfg.batching.max_batch_size = 16;
  cfg.batching.max_linger_ns = 500'000;  // 0.5ms
  cfg.pool.num_replicas = replicas;
  cfg.pool.p_sa = p_sa;
  cfg.pool.seed = 31337;
  InferenceServer server(*model, cfg);

  std::printf("fleet: %d replicas at per-cell failure rate %.3f | %d clients x %d reqs | "
              "batch<=%lld linger %.1fms | threads: %d\n\n",
              replicas, p_sa, clients, requests_per_client,
              static_cast<long long>(cfg.batching.max_batch_size),
              static_cast<double>(cfg.batching.max_linger_ns) * 1e-6, num_threads());

  // Per-replica accuracy spread: each defective clone evaluated offline,
  // before traffic starts driving them.
  std::printf("per-replica accuracy (persistent defect maps):\n");
  for (int r = 0; r < server.pool().size(); ++r) {
    const double acc = evaluate_accuracy(server.pool().replica(r), *test);
    std::printf("  replica %d: %.2f%%  (cell fault rate %.4f, %lld weights hit)\n", r,
                acc * 100.0, server.pool().injection_stats(r).cell_fault_rate(),
                static_cast<long long>(server.pool().injection_stats(r).affected_weights));
  }

  server.start();
  Timer wall;
  std::vector<std::thread> client_threads;
  std::vector<std::int64_t> client_hits(static_cast<std::size_t>(clients), 0);
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      std::int64_t hits = 0;
      for (int i = 0; i < requests_per_client; ++i) {
        const std::int64_t idx = (static_cast<std::int64_t>(c) * requests_per_client + i) %
                                 test->size();
        const Sample sample = test->get(idx);
        std::future<InferenceResult> fut = server.submit(sample.image);
        const InferenceResult res = fut.get();
        if (res.predicted == sample.label) ++hits;
      }
      client_hits[static_cast<std::size_t>(c)] = hits;
    });
  }
  for (std::thread& t : client_threads) t.join();
  server.drain();
  const double secs = wall.seconds();
  server.stop();

  std::int64_t hits = 0;
  for (const std::int64_t h : client_hits) hits += h;
  const std::int64_t total = static_cast<std::int64_t>(clients) * requests_per_client;
  const ServerStats stats = server.stats();

  std::printf("\ntraffic: %lld requests in %.2fs -> %.0f req/s | served accuracy %.2f%%\n",
              static_cast<long long>(total), secs, static_cast<double>(total) / secs,
              100.0 * static_cast<double>(hits) / static_cast<double>(total));
  std::printf("server: %s\n", stats.summary_line().c_str());
  std::printf("latency: mean %.3fms | min %.3fms | max %.3fms\n",
              stats.latency.mean_ns() * 1e-6,
              static_cast<double>(stats.latency.min_ns()) * 1e-6,
              static_cast<double>(stats.latency.max_ns()) * 1e-6);
  std::printf("per-replica served:");
  for (std::size_t r = 0; r < stats.per_replica_served.size(); ++r) {
    std::printf(" r%zu=%lld", r, static_cast<long long>(stats.per_replica_served[r]));
  }
  std::printf("\n");
  return 0;
}
