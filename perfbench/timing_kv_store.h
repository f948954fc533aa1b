// A KVStore decorator that forwards every call to a wrapped store and
// accumulates the wall time spent inside it, per method. The traced run puts
// it between RStore and the Cluster so the simulator's own CPU can be told
// apart from the client work around it; results and KVStats are exactly the
// wrapped store's (perfbench_selftest.cc checks this).

#ifndef PERFBENCH_TIMING_KV_STORE_H_
#define PERFBENCH_TIMING_KV_STORE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "kvstore/kv_store.h"

namespace perfbench {

class TimingKVStore : public rstore::KVStore {
 public:
  enum Method {
    kCreateTable,
    kPut,
    kWriteBatch,
    kGet,
    kMultiGet,
    kMultiGetPartial,
    kMultiGetAsync,
    kDelete,
    kScan,
    kTableSize,
    kNumMethods
  };

  /// `base` is borrowed and must outlive the decorator.
  explicit TimingKVStore(rstore::KVStore* base) : base_(base) {}

  /// Wall time spent inside `method` calls, and their number. Thread-safe:
  /// the sharded ingest pipeline may write from worker threads.
  double wall_us(Method method) const {
    return static_cast<double>(wall_ns_[method].load()) / 1e3;
  }
  uint64_t calls(Method method) const { return calls_[method].load(); }
  /// Wall time inside the read methods (Get and every MultiGet form).
  double read_wall_us() const {
    return wall_us(kGet) + wall_us(kMultiGet) + wall_us(kMultiGetPartial) +
           wall_us(kMultiGetAsync);
  }

  rstore::Status CreateTable(const std::string& table) override {
    return Timed(kCreateTable, [&] { return base_->CreateTable(table); });
  }
  rstore::Status Put(const std::string& table, rstore::Slice key,
                     rstore::Slice value) override {
    return Timed(kPut, [&] { return base_->Put(table, key, value); });
  }
  rstore::Status WriteBatch(
      const std::string& table,
      const std::vector<std::pair<std::string, std::string>>& entries)
      override {
    return Timed(kWriteBatch,
                 [&] { return base_->WriteBatch(table, entries); });
  }
  rstore::Result<std::string> Get(const std::string& table,
                                  rstore::Slice key) override {
    return Timed(kGet, [&] { return base_->Get(table, key); });
  }
  using rstore::KVStore::MultiGet;
  rstore::Status MultiGet(const std::string& table,
                          const std::vector<std::string>& keys,
                          std::map<std::string, std::string>* out,
                          rstore::TraceContext* trace) override {
    return Timed(kMultiGet,
                 [&] { return base_->MultiGet(table, keys, out, trace); });
  }
  rstore::Status MultiGetPartial(const std::string& table,
                                 const std::vector<std::string>& keys,
                                 std::map<std::string, std::string>* out,
                                 std::vector<rstore::KeyReadFailure>* failures,
                                 rstore::TraceContext* trace) override {
    return Timed(kMultiGetPartial, [&] {
      return base_->MultiGetPartial(table, keys, out, failures, trace);
    });
  }
  /// Times the submission only: the wrapped store's events run later on the
  /// executor and are part of the caller's executor time.
  rstore::Future<rstore::AsyncMultiGetResult> MultiGetAsync(
      rstore::Executor* executor, const std::string& table,
      const std::vector<std::string>& keys, bool partial,
      rstore::TraceContext* trace) override {
    return Timed(kMultiGetAsync, [&] {
      return base_->MultiGetAsync(executor, table, keys, partial, trace);
    });
  }
  rstore::Status Delete(const std::string& table, rstore::Slice key) override {
    return Timed(kDelete, [&] { return base_->Delete(table, key); });
  }
  rstore::Status Scan(
      const std::string& table,
      const std::function<void(rstore::Slice key, rstore::Slice value)>& fn)
      override {
    return Timed(kScan, [&] { return base_->Scan(table, fn); });
  }
  rstore::Result<uint64_t> TableSize(const std::string& table) override {
    return Timed(kTableSize, [&] { return base_->TableSize(table); });
  }
  rstore::KVStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> Timed(Method method, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    wall_ns_[method].fetch_add(static_cast<uint64_t>(ns),
                               std::memory_order_relaxed);
    calls_[method].fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  rstore::KVStore* base_;
  std::array<std::atomic<uint64_t>, kNumMethods> wall_ns_{};
  std::array<std::atomic<uint64_t>, kNumMethods> calls_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_KV_STORE_H_
