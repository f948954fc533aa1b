#ifndef RSTORE_KVSTORE_FAULT_INJECTOR_H_
#define RSTORE_KVSTORE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

namespace rstore {

/// Half-open interval of coordinator operation ticks during which a node is
/// crashed (rejects every request, exactly like SetNodeAlive(node, false)).
/// Ticks — one per coordinator-level operation, and one per entry of a write
/// batch — are the injector's time axis: they advance deterministically with
/// the workload, so a schedule expressed in ticks replays identically run
/// after run, which a wall-clock schedule never could.
struct CrashWindow {
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;  // exclusive

  bool Contains(uint64_t tick) const {
    return tick >= start_tick && tick < end_tick;
  }
};

/// Per-node fault behaviour. All probabilities are evaluated with a
/// deterministic hash of (seed, node, tick, attempt), never a stateful RNG,
/// so a decision depends only on its coordinates — concurrent requests
/// cannot perturb each other's fault outcomes.
struct NodeFaultProfile {
  /// Probability that one request attempt against the node fails with a
  /// transient error (the coordinator retries per its RetryPolicy).
  double transient_error_rate = 0.0;

  /// Probability that an attempt is served slowly: its modeled service time
  /// is multiplied by `slow_multiplier`. Slow attempts are what trip the
  /// latency model's hedge threshold.
  double slow_rate = 0.0;
  double slow_multiplier = 1.0;

  /// The transient/slow rates apply only from this operation tick on —
  /// earlier ticks behave fault-free. Lets a schedule spare a setup phase
  /// (e.g. a bulk load) and then fault the measured workload; crash windows
  /// carry their own tick ranges and ignore this.
  uint64_t active_from_tick = 0;

  /// Tick windows during which the node is down. Writes are hinted, reads
  /// fail over, and the node is backfilled when the window passes.
  std::vector<CrashWindow> crash_windows;

  bool any_faults() const {
    return transient_error_rate > 0.0 || slow_rate > 0.0 ||
           !crash_windows.empty();
  }
};

/// A complete, replayable fault schedule for a simulated cluster. Default
/// construction is inert: no faults, zero overhead on the request paths.
struct FaultInjectorOptions {
  /// Root of every fault decision; two clusters configured with the same
  /// seed and profiles inject byte-identical fault timelines.
  uint64_t seed = 0xFA017ull;

  /// Applied to every node without an entry in `per_node`.
  NodeFaultProfile default_profile;

  /// Node-specific overrides (replace, not merge, the default profile).
  std::map<uint32_t, NodeFaultProfile> per_node;

  bool any_faults() const {
    if (default_profile.any_faults()) return true;
    for (const auto& [node, profile] : per_node) {
      if (profile.any_faults()) return true;
    }
    return false;
  }
};

/// What the injector decided for one request attempt against one node.
enum class FaultKind {
  kOk,
  kTransientError,  // attempt fails; coordinator may retry
  kSlow,            // attempt succeeds at slow_multiplier x the modeled time
};

struct FaultDecision {
  FaultKind kind = FaultKind::kOk;
  double slow_multiplier = 1.0;
};

/// Deterministic, seeded fault source for the simulated cluster.
///
/// The coordinator draws one tick per operation (NextTick; a write batch
/// draws one per entry, as the equivalent Puts would) and evaluates
/// every per-node attempt against that tick: crash windows come from the
/// schedule, transient/slow outcomes from a counter-free hash of
/// (seed, node, tick, attempt, salt). Determinism contract: given the same
/// options and the same (node, tick, attempt, salt) coordinates, Decide
/// returns the same outcome in every process, on every thread — the chaos
/// equivalence harness depends on it.
///
/// Thread-safe: the tick counter is a single relaxed atomic; everything else
/// is immutable after construction.
class FaultInjector {
 public:
  FaultInjector(const FaultInjectorOptions& options, uint32_t num_nodes);

  /// False when the schedule contains no faults at all (the default): the
  /// cluster then skips every injection branch.
  bool enabled() const { return enabled_; }

  /// Claims the tick for one coordinator operation.
  uint64_t NextTick() {
    return ticks_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The next tick NextTick would return (monotonic observation point).
  uint64_t CurrentTick() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// True when `node` is inside one of its crash windows at `tick`.
  bool Crashed(uint32_t node, uint64_t tick) const;

  /// Outcome for attempt number `attempt` (0-based) of the operation at
  /// `tick` against `node`. `salt` decorrelates different uses within one
  /// operation (primary read vs. hedge vs. write).
  FaultDecision Decide(uint32_t node, uint64_t tick, uint32_t attempt,
                       uint32_t salt = 0) const;

  /// Deterministic uniform double in [0, 1) at the given coordinates — the
  /// primitive Decide is built from, exposed for tests and for policies that
  /// need extra deterministic randomness (backoff jitter).
  double UniformAt(uint32_t node, uint64_t tick, uint32_t attempt,
                   uint32_t salt) const;

  const NodeFaultProfile& profile(uint32_t node) const {
    return profiles_[node];
  }

  // -- Injected-fault tallies, by kind. Chaos tests reconcile these against
  //    the coordinator's KVStats: every retry/failover the cluster performs
  //    must trace back to an injected fault, so e.g. KVStats::retries can
  //    never exceed transient_errors_injected + crash_rejections_injected.
  //    All three stay zero on a fault-free schedule.

  /// Attempts Decide failed with kTransientError.
  uint64_t transient_errors_injected() const {
    return transient_injected_.load(std::memory_order_relaxed);
  }
  /// Attempts Decide served at slow_multiplier x the modeled time.
  uint64_t slow_attempts_injected() const {
    return slow_injected_.load(std::memory_order_relaxed);
  }
  /// Times Crashed() told the coordinator a node was inside a crash window
  /// (one per rejected attempt the coordinator probed).
  uint64_t crash_rejections_injected() const {
    return crash_injected_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<NodeFaultProfile> profiles_;  // resolved, one per node
  uint64_t seed_;
  bool enabled_;
  // Relaxed monotone tick dispenser; concurrent coordinator ops may claim
  // ticks in any interleaving, which the seeded hash absorbs. analyze:atomic
  std::atomic<uint64_t> ticks_{0};
  // Relaxed monotone fault tallies, bumped from the const decision paths
  // (observability only — decisions themselves stay pure functions of their
  // coordinates). analyze:atomic
  mutable std::atomic<uint64_t> transient_injected_{0};
  mutable std::atomic<uint64_t> slow_injected_{0};    // analyze:atomic
  mutable std::atomic<uint64_t> crash_injected_{0};   // analyze:atomic
};

}  // namespace rstore

#endif  // RSTORE_KVSTORE_FAULT_INJECTOR_H_
