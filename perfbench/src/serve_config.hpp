// The serve phase's model and server configuration, shared with the offline
// layer probes so both measure the same deployment.
#pragma once

#include <memory>

#include "perfbench/src/common.hpp"
#include "src/models/small_cnn.hpp"
#include "src/serve/inference_server.hpp"

namespace perfbench {

inline constexpr std::int64_t kServeImage = 16;
inline constexpr std::int64_t kServeMaxBatch = 16;

/// SmallCNN 16x16, 10 classes, fixed init seed (the served network is part
/// of the system under test, not of the workload's inputs).
inline std::unique_ptr<ftpim::Sequential> make_serve_model() {
  ftpim::SmallCnnConfig cfg;
  cfg.image_size = kServeImage;
  return ftpim::make_small_cnn(cfg);
}

/// Two replicas at p_sa 0.01, max batch 16, 0.5 ms linger, fail-fast
/// intake. The quantized workload adds 16-level cells, an 8-bit ADC, armed
/// ABFT, in-service aging, canaries, detection-driven scrubs with repair on
/// escalation, and a periodic whole-replica refresh.
inline ftpim::serve::ServerConfig make_server_config(const Workload& w) {
  using namespace ftpim::serve;
  ServerConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.overflow = OverflowPolicy::kReject;
  cfg.batching.max_batch_size = kServeMaxBatch;
  cfg.batching.max_linger_ns = 500'000;
  cfg.pool.num_replicas = 2;
  cfg.pool.p_sa = 0.01;
  cfg.pool.seed = 7;
  if (w.quantized) {
    cfg.pool.engine = ReplicaEngine::kQuantized;
    cfg.pool.quantized.levels = 16;
    cfg.pool.quantized.adc.bits = 8;
    cfg.pool.quantized.abft.enabled = true;
    cfg.aging.p_new_per_interval = 2e-4;
    cfg.aging.interval_batches = 256;
    cfg.aging.seed = 11;
    cfg.health.canary_every_batches = 32;
    cfg.health.canary_samples = 4;
    cfg.health.scrub_on_detection = true;
    cfg.health.repair_on_quarantine = true;
    cfg.health.scrub_policy = ScrubPolicy::kPeriodic;
    cfg.health.scrub_every_batches = 512;
  }
  return cfg;
}

}  // namespace perfbench
