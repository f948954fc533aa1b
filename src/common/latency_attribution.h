#ifndef RSTORE_COMMON_LATENCY_ATTRIBUTION_H_
#define RSTORE_COMMON_LATENCY_ATTRIBUTION_H_

#include <cstdint>

namespace rstore {

/// Simulated latency and where it went: a decomposition of
/// `simulated_micros` that KVStats, QueryStats, histogram exemplars and
/// flight records all carry, so every layer reports the same five numbers.
/// For stores that model latency the invariant
///   queue_wait_us + service_us + retry_penalty_us - hedge_delta_us
///     == simulated_micros
/// holds exactly (Balanced()); plain in-memory stores charge nothing, and
/// all five stay zero. Batched reads attribute the critical path: the event
/// chain of the member that determined the batch's completion time.
struct LatencyAttribution {
  /// Simulated wall-clock cost accumulated by the latency model.
  uint64_t simulated_micros = 0;
  /// Time spent queued behind earlier work at the serving node on the
  /// batch's virtual timeline (see Cluster: a sync call's private timeline
  /// only queues a batch behind its own earlier groups).
  uint64_t queue_wait_us = 0;
  /// Time the serving node (plus coordinator overhead) spent doing work.
  uint64_t service_us = 0;
  /// Backoff, failed attempts, and failover delay before the serving
  /// attempt started.
  uint64_t retry_penalty_us = 0;
  /// Micros saved because a hedged read beat the slow primary (subtracts
  /// from the sum: the primary's full service time is still attributed).
  uint64_t hedge_delta_us = 0;

  /// Whether the four parts sum to the total.
  [[nodiscard]] bool Balanced() const {
    return queue_wait_us + service_us + retry_penalty_us ==
           simulated_micros + hedge_delta_us;
  }
};

}  // namespace rstore

#endif  // RSTORE_COMMON_LATENCY_ATTRIBUTION_H_
