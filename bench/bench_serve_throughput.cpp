// Serving-layer throughput sweep: batch size x replica count.
//
// For each grid point, an InferenceServer over an (untrained, seeded)
// SmallCNN serves FTPIM_REQS single-sample requests fired from FTPIM_CLIENTS
// client threads, and the harness reports req/s, achieved batch fill, and
// p50/p95/p99 latency. Larger max batch amortizes per-forward overhead
// (im2col + GEMM setup) so req/s should rise with batch size; replicas add
// worker-level parallelism until the host cores saturate.
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/serve/inference_server.hpp"
#include "src/tensor/kernels/dispatch.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::serve;

struct SweepPoint {
  std::int64_t batch;
  int replicas;
  double reqs_per_sec;
  double fill;
  double p50_ms, p95_ms, p99_ms;
};

SweepPoint run_point(const Module& model, const Dataset& data, std::int64_t max_batch,
                     int replicas, int clients, int total_requests,
                     ReplicaEngine engine = ReplicaEngine::kFloat, bool abft = false) {
  ServerConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.batching.max_batch_size = max_batch;
  cfg.batching.max_linger_ns = 500'000;  // 0.5ms
  cfg.pool.num_replicas = replicas;
  cfg.pool.p_sa = 0.01;
  cfg.pool.seed = 7;
  cfg.pool.engine = engine;
  cfg.pool.quantized.abft.enabled = abft;
  InferenceServer server(model, cfg);
  server.start();

  const int per_client = total_requests / clients;
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<InferenceResult>> futures;
      futures.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::int64_t idx =
            (static_cast<std::int64_t>(c) * per_client + i) % data.size();
        futures.push_back(server.submit(data.get(idx).image));
      }
      for (auto& f : futures) (void)f.get();
    });
  }
  for (std::thread& t : threads) t.join();
  server.drain();
  const double secs = wall.seconds();
  server.stop();

  const ServerStats stats = server.stats();
  SweepPoint point;
  point.batch = max_batch;
  point.replicas = replicas;
  point.reqs_per_sec = static_cast<double>(stats.served) / secs;
  point.fill = stats.mean_batch_fill();
  point.p50_ms = static_cast<double>(stats.latency.p50_ns()) * 1e-6;
  point.p95_ms = static_cast<double>(stats.latency.p95_ns()) * 1e-6;
  point.p99_ms = static_cast<double>(stats.latency.p99_ns()) * 1e-6;
  return point;
}

}  // namespace

int main() {
  const RunScale scale = run_scale();
  const int clients = env_int_in("FTPIM_CLIENTS", 4, 1, 256);
  const int total_requests =
      env_int_in("FTPIM_REQS", scale.name == "quick" ? 512 : 2048, 1, 1 << 24);

  std::printf("=== serve throughput: batch size x replica count ===\n");
  std::printf("model: SmallCNN | img: %dx%d | requests: %d | clients: %d | scale: %s | "
              "threads: %d\n\n",
              scale.image_size, scale.image_size, total_requests, clients,
              scale.name.c_str(), ftpim::num_threads());

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = scale.image_size;
  data_cfg.samples = 256;
  const auto data = make_synthvision(data_cfg, 3);

  SmallCnnConfig model_cfg;
  model_cfg.image_size = scale.image_size;
  const auto model = make_small_cnn(model_cfg);

  const std::vector<std::int64_t> batch_sizes = {1, 4, 16};
  const std::vector<int> replica_counts = {1, 2, 4};

  ftpim::bench::BenchJsonWriter json("serve_throughput");
  json.meta()
      .num("threads", ftpim::num_threads())
      .str("dispatch",
           ftpim::kernels::kernel_level_name(ftpim::kernels::active_kernel_level()))
      .num("requests", total_requests)
      .num("clients", clients)
      .str("scale", scale.name);

  std::printf("%6s %9s %10s %6s %9s %9s %9s\n", "batch", "replicas", "req/s", "fill",
              "p50(ms)", "p95(ms)", "p99(ms)");
  for (const int replicas : replica_counts) {
    for (const std::int64_t batch : batch_sizes) {
      const SweepPoint p =
          run_point(*model, *data, batch, replicas, clients, total_requests);
      std::printf("%6lld %9d %10.0f %6.2f %9.3f %9.3f %9.3f\n",
                  static_cast<long long>(p.batch), p.replicas, p.reqs_per_sec, p.fill,
                  p.p50_ms, p.p95_ms, p.p99_ms);
      json.point()
          .num("batch", static_cast<double>(p.batch))
          .num("replicas", p.replicas)
          .str("engine", "float")
          .num("reqs_per_sec", p.reqs_per_sec)
          .num("batch_fill", p.fill)
          .num("p50_ms", p.p50_ms)
          .num("p95_ms", p.p95_ms)
          .num("p99_ms", p.p99_ms);
    }
  }

  // One quantized-replica point: the same fleet served through int8 crossbar
  // engines (16 levels, 8-bit ADC) so BENCH_serve.json records the cost of
  // hardware-faithful deployment relative to the float fold-in path.
  {
    const SweepPoint p = run_point(*model, *data, /*max_batch=*/16, /*replicas=*/2, clients,
                                   total_requests, ReplicaEngine::kQuantized);
    std::printf("%6lld %9d %10.0f %6.2f %9.3f %9.3f %9.3f  (quantized)\n",
                static_cast<long long>(p.batch), p.replicas, p.reqs_per_sec, p.fill, p.p50_ms,
                p.p95_ms, p.p99_ms);
    json.point()
        .num("batch", static_cast<double>(p.batch))
        .num("replicas", p.replicas)
        .str("engine", "quantized")
        .num("reqs_per_sec", p.reqs_per_sec)
        .num("batch_fill", p.fill)
        .num("p50_ms", p.p50_ms)
        .num("p95_ms", p.p95_ms)
        .num("p99_ms", p.p99_ms);
  }

  // Same quantized fleet with ABFT checksum verification armed: the delta
  // against the point above is the serving-layer cost of online detection.
  {
    const SweepPoint p = run_point(*model, *data, /*max_batch=*/16, /*replicas=*/2, clients,
                                   total_requests, ReplicaEngine::kQuantized, /*abft=*/true);
    std::printf("%6lld %9d %10.0f %6.2f %9.3f %9.3f %9.3f  (quantized+abft)\n",
                static_cast<long long>(p.batch), p.replicas, p.reqs_per_sec, p.fill, p.p50_ms,
                p.p95_ms, p.p99_ms);
    json.point()
        .num("batch", static_cast<double>(p.batch))
        .num("replicas", p.replicas)
        .str("engine", "quantized_abft")
        .num("reqs_per_sec", p.reqs_per_sec)
        .num("batch_fill", p.fill)
        .num("p50_ms", p.p50_ms)
        .num("p95_ms", p.p95_ms)
        .num("p99_ms", p.p99_ms);
  }
  json.write(env_string("FTPIM_BENCH_JSON", "BENCH_serve.json"));
  return 0;
}
