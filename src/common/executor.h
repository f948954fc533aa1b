#ifndef RSTORE_COMMON_EXECUTOR_H_
#define RSTORE_COMMON_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"

namespace rstore {

/// Deterministic discrete-event executor: the spine of the async read path.
///
/// Tasks are scheduled at *virtual* (simulated) microsecond timestamps and
/// run in a deterministic total order — (due time, seed-perturbed tie key,
/// submission sequence) — by whichever thread calls RunUntilIdle(). The
/// virtual clock never reads wall time: it jumps to each task's due time as
/// the task is dequeued, exactly like the latency model charges simulated
/// micros with zero wall-clock sleep. Two runs with the same seed and the
/// same submission order replay the same interleaving event for event,
/// which is what lets chaos tests assert timeline equality across runs.
///
/// The seed only perturbs the order of tasks due at the *same* virtual
/// instant (seed 0 = strict FIFO among ties); it never reorders across
/// distinct timestamps. This is the "seeded scheduler": a cheap way to
/// explore different-but-reproducible interleavings of logically
/// concurrent events.
///
/// Thread safety: Post and PostAt may be called from any thread (the TSan
/// stress suite hammers this); RunUntilIdle must only run on one thread at a
/// time and must not be re-entered from a task. Tasks are always invoked
/// with the queue lock released, so they may freely post and complete
/// futures.
class Executor {
 public:
  using Task = std::function<void()>;

  explicit Executor(uint64_t seed = 0);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Schedules `task` at the current virtual time (after already-queued
  /// tasks due now).
  void Post(Task task);

  /// Schedules `task` at absolute virtual time `when_us`, clamped to the
  /// current virtual time (the past is not schedulable).
  void PostAt(uint64_t when_us, Task task);

  /// Runs queued tasks in deterministic order until the queue drains,
  /// advancing the virtual clock to each task's due time. Returns the
  /// number of tasks executed.
  size_t RunUntilIdle();

  /// Current virtual time in microseconds.
  uint64_t now_us() const;

  /// Number of tasks currently queued.
  size_t pending() const;

  uint64_t seed() const { return seed_; }

  /// Identity of this executor's virtual timeline, unique in the process
  /// and never reused: a later executor built at the same address gets a
  /// new id, so state keyed by it (Cluster's per-timeline node queues)
  /// never leaks from one timeline into another.
  uint64_t id() const { return id_; }

 private:
  /// Deterministic execution order among queued tasks.
  struct Key {
    uint64_t when_us;
    uint64_t tie;
    uint64_t seq;
    bool operator<(const Key& o) const {
      if (when_us != o.when_us) return when_us < o.when_us;
      if (tie != o.tie) return tie < o.tie;
      return seq < o.seq;
    }
  };

  const uint64_t seed_;
  const uint64_t id_;
  mutable Mutex mu_{kLockRankExecutor, "executor"};
  std::map<Key, Task> queue_ RSTORE_GUARDED_BY(mu_);
  uint64_t now_us_ RSTORE_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ RSTORE_GUARDED_BY(mu_) = 0;
  bool running_ RSTORE_GUARDED_BY(mu_) = false;
};

namespace future_internal {

/// Shared completion state behind a Future/Promise pair.
///
/// Publish protocol: the producer writes `value` and then flips `ready`
/// under `mu`; consumers read `value` only after observing `ready` under
/// `mu` (or from a continuation, which by construction runs after the
/// flip on the completing thread). The mutex therefore orders every write
/// of `value` before every read without being held across the reads
/// themselves — continuations run with no locks held so they can post
/// work, take subsystem locks, and complete other futures.
template <typename T>
struct SharedState {
  Mutex mu{kLockRankFuture, "future"};
  CondVar cv;
  bool ready RSTORE_GUARDED_BY(mu) = false;
  std::vector<std::function<void(const T&)>> callbacks RSTORE_GUARDED_BY(mu);
  // Written once before `ready` flips under mu, read only afterwards (see
  // the publish protocol above). analyze:allow-annotation-completeness
  T value{};
};

}  // namespace future_internal

template <typename T>
class Promise;

/// Single-value future. Copyable handle; all copies observe the same
/// completion. `T` must be default-constructible and copyable.
template <typename T>
class Future {
 public:
  /// An invalid (detached) future; valid() is false.
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  bool ready() const {
    RSTORE_DCHECK(valid());
    MutexLock lock(state_->mu);
    return state_->ready;
  }

  /// Blocks the calling thread until the value is available and returns a
  /// copy. Cross-thread use only: on a single-threaded executor, blocking
  /// on a future that a queued task would complete deadlocks — chain with
  /// OnReady/Then instead.
  T Get() const {
    RSTORE_DCHECK(valid());
    MutexLock lock(state_->mu);
    state_->cv.Wait(state_->mu, [this] { return state_->ready; });
    return ValueLocked();
  }

  /// Runs `fn(value)` when the future completes — inline, immediately, if
  /// it already has. `fn` always runs with no locks held.
  void OnReady(std::function<void(const T&)> fn) const {
    RSTORE_DCHECK(valid());
    {
      MutexLock lock(state_->mu);
      if (!state_->ready) {
        state_->callbacks.push_back(std::move(fn));
        return;
      }
    }
    fn(state_->value);  // ready observed under mu: publish protocol
  }

  /// Like OnReady, but `fn` receives a handle to the completed future
  /// rather than a reference to its value, so a continuation can keep the
  /// value (by keeping the handle) instead of copying it. Until completion
  /// the callback holds the future only weakly: one that never completes
  /// is still freed with its promise.
  void OnComplete(std::function<void(const Future&)> fn) const {
    std::weak_ptr<future_internal::SharedState<T>> weak = state_;
    OnReady([weak, fn = std::move(fn)](const T&) {
      // The completing promise (or this call) still holds the state.
      fn(Future(weak.lock()));
    });
  }

  /// The value of a completed future, valid while any handle to it lives.
  const T& value() const {
    RSTORE_DCHECK(ready()) << "value() of a pending future";
    return state_->value;  // ready: publish protocol in SharedState
  }

  /// Monadic map: returns a future completed with `fn(value)` once this
  /// future completes. `fn` must return a plain value, not a Future.
  template <typename F>
  auto Then(F fn) const -> Future<decltype(fn(std::declval<const T&>()))>;

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<future_internal::SharedState<T>> state)
      : state_(std::move(state)) {}

  T ValueLocked() const RSTORE_REQUIRES(state_->mu) { return state_->value; }

  std::shared_ptr<future_internal::SharedState<T>> state_;
};

/// Producer side of a Future. Set() completes the future exactly once and
/// then invokes registered continuations in registration order with no
/// locks held.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<future_internal::SharedState<T>>()) {}

  Future<T> future() const { return Future<T>(state_); }

  void Set(T value) const {
    std::vector<std::function<void(const T&)>> callbacks;
    {
      MutexLock lock(state_->mu);
      RSTORE_CHECK(!state_->ready) << "Promise::Set called twice";
      state_->value = std::move(value);
      state_->ready = true;
      callbacks.swap(state_->callbacks);
    }
    state_->cv.NotifyAll();
    // `ready` flipped under mu on this thread, so the unlocked read is
    // ordered after the write (publish protocol in SharedState).
    for (auto& cb : callbacks) cb(state_->value);
  }

 private:
  std::shared_ptr<future_internal::SharedState<T>> state_;
};

template <typename T>
template <typename F>
auto Future<T>::Then(F fn) const
    -> Future<decltype(fn(std::declval<const T&>()))> {
  using U = decltype(fn(std::declval<const T&>()));
  Promise<U> next;
  OnReady([next, fn = std::move(fn)](const T& value) { next.Set(fn(value)); });
  return next.future();
}

/// A future already carrying `value`.
template <typename T>
Future<T> MakeReadyFuture(T value) {
  Promise<T> p;
  p.Set(std::move(value));
  return p.future();
}

}  // namespace rstore

#endif  // RSTORE_COMMON_EXECUTOR_H_
