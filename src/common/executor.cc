#include "common/executor.h"

#include <algorithm>
#include <atomic>

#include "common/hash.h"

namespace rstore {
namespace {

uint64_t NextExecutorId() {
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Executor::Executor(uint64_t seed) : seed_(seed), id_(NextExecutorId()) {}

void Executor::Post(Task task) { PostAt(0, std::move(task)); }

void Executor::PostAt(uint64_t when_us, Task task) {
  MutexLock lock(mu_);
  const uint64_t seq = next_seq_++;
  // A pure function of (seed, seq): no global RNG, no wall clock.
  const uint64_t tie = seed_ == 0 ? 0 : Mix64(seed_ ^ seq);
  queue_.emplace(Key{std::max(when_us, now_us_), tie, seq}, std::move(task));
}

size_t Executor::RunUntilIdle() {
  size_t executed = 0;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      if (executed == 0) {
        RSTORE_CHECK(!running_) << "Executor::RunUntilIdle re-entered";
        running_ = true;
      }
      if (queue_.empty()) {
        running_ = false;
        return executed;
      }
      auto it = queue_.begin();
      now_us_ = std::max(now_us_, it->first.when_us);
      task = std::move(it->second);
      queue_.erase(it);
    }
    // Invoked with mu_ released: tasks may post and complete futures
    // (which runs continuations inline) without lock nesting.
    task();
    ++executed;
  }
}

uint64_t Executor::now_us() const {
  MutexLock lock(mu_);
  return now_us_;
}

size_t Executor::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace rstore
