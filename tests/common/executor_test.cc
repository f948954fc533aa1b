// Unit tests for the deterministic discrete-event executor and the
// Future/Promise substrate underneath the async read path. The properties
// asserted here — total determinism given (seed, submission order), virtual
// time that only moves forward, continuations invoked with no locks held —
// are what the equivalence and chaos suites build on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"

namespace rstore {
namespace {

TEST(ExecutorTest, SeedZeroRunsTiesInSubmissionOrder) {
  Executor executor(0);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    executor.Post([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(executor.pending(), 8u);
  EXPECT_EQ(executor.RunUntilIdle(), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(executor.pending(), 0u);
}

TEST(ExecutorTest, VirtualClockJumpsToDueTimes) {
  Executor executor;
  EXPECT_EQ(executor.now_us(), 0u);
  std::vector<uint64_t> at;
  executor.PostAt(500, [&] { at.push_back(executor.now_us()); });
  executor.PostAt(100, [&] { at.push_back(executor.now_us()); });
  executor.PostAt(executor.now_us() + 250,
                  [&] { at.push_back(executor.now_us()); });
  executor.RunUntilIdle();
  // Due-time order, not submission order; the clock lands exactly on each
  // due instant and never reads wall time.
  EXPECT_EQ(at, (std::vector<uint64_t>{100, 250, 500}));
  EXPECT_EQ(executor.now_us(), 500u);
}

TEST(ExecutorTest, ThePastIsClampedToNow) {
  Executor executor;
  executor.PostAt(1000, [] {});
  executor.RunUntilIdle();
  ASSERT_EQ(executor.now_us(), 1000u);
  uint64_t ran_at = 0;
  executor.PostAt(10, [&] { ran_at = executor.now_us(); });
  executor.RunUntilIdle();
  EXPECT_EQ(ran_at, 1000u);  // never travels backwards
}

TEST(ExecutorTest, TasksMayPostFollowOnWork) {
  Executor executor;
  std::vector<std::string> order;
  executor.PostAt(10, [&] {
    order.push_back("a@" + std::to_string(executor.now_us()));
    executor.PostAt(executor.now_us() + 5, [&] {
      order.push_back("b@" + std::to_string(executor.now_us()));
    });
    executor.Post([&] {
      order.push_back("c@" + std::to_string(executor.now_us()));
    });
  });
  EXPECT_EQ(executor.RunUntilIdle(), 3u);
  // The inline post lands at the current instant and so runs before the
  // delayed one.
  EXPECT_EQ(order, (std::vector<std::string>{"a@10", "c@10", "b@15"}));
}

TEST(ExecutorTest, SameSeedReplaysIdenticalOrder) {
  auto run = [](uint64_t seed) {
    Executor executor(seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      executor.PostAt(100, [&order, i] { order.push_back(i); });
    }
    executor.RunUntilIdle();
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(0), run(0));
}

TEST(ExecutorTest, SeedPerturbsOnlyTies) {
  // Among tasks due at the same instant, a nonzero seed shuffles the order;
  // across distinct due times, no seed ever reorders.
  auto tie_order = [](uint64_t seed) {
    Executor executor(seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      executor.PostAt(100, [&order, i] { order.push_back(i); });
    }
    executor.RunUntilIdle();
    return order;
  };
  bool shuffled = false;
  for (uint64_t seed = 1; seed <= 4 && !shuffled; ++seed) {
    shuffled = tie_order(seed) != tie_order(0);
  }
  EXPECT_TRUE(shuffled);

  for (uint64_t seed : {0ull, 1ull, 99ull}) {
    Executor executor(seed);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      executor.PostAt(100 * (8 - i), [&order, i] { order.push_back(i); });
    }
    executor.RunUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0})) << seed;
  }
}

TEST(FutureTest, MakeReadyFutureIsImmediatelyReady) {
  Future<int> f = MakeReadyFuture(42);
  ASSERT_TRUE(f.valid());
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.Get(), 42);
  int seen = 0;
  f.OnReady([&seen](const int& v) { seen = v; });  // runs inline
  EXPECT_EQ(seen, 42);
}

TEST(FutureTest, DefaultConstructedIsInvalid) {
  Future<int> f;
  EXPECT_FALSE(f.valid());
}

TEST(FutureTest, CallbacksRunAtSetInRegistrationOrder) {
  Promise<std::string> p;
  Future<std::string> f = p.future();
  EXPECT_FALSE(f.ready());
  std::vector<std::string> log;
  f.OnReady([&log](const std::string& v) { log.push_back("first:" + v); });
  f.OnReady([&log](const std::string& v) { log.push_back("second:" + v); });
  EXPECT_TRUE(log.empty());
  p.Set("x");
  EXPECT_EQ(log, (std::vector<std::string>{"first:x", "second:x"}));
  // Late registration on an already-complete future runs inline.
  f.OnReady([&log](const std::string& v) { log.push_back("late:" + v); });
  EXPECT_EQ(log.back(), "late:x");
}

TEST(FutureTest, CopiesObserveTheSameCompletion) {
  Promise<int> p;
  Future<int> a = p.future();
  Future<int> b = a;
  p.Set(7);
  EXPECT_TRUE(a.ready());
  EXPECT_TRUE(b.ready());
  EXPECT_EQ(b.Get(), 7);
}

TEST(FutureTest, ThenMapsTheValue) {
  Promise<int> p;
  Future<std::string> mapped =
      p.future().Then([](const int& v) { return std::to_string(v * 2); });
  EXPECT_FALSE(mapped.ready());
  p.Set(21);
  ASSERT_TRUE(mapped.ready());
  EXPECT_EQ(mapped.Get(), "42");
  // Chaining off a ready future completes inline.
  Future<int> len = mapped.Then(
      [](const std::string& s) { return static_cast<int>(s.size()); });
  ASSERT_TRUE(len.ready());
  EXPECT_EQ(len.Get(), 2);
}

TEST(FutureTest, OnCompleteHandleKeepsTheValueWithoutCopying) {
  Future<std::string> kept;
  const std::string* seen = nullptr;
  {
    Promise<std::string> p;
    p.future().OnComplete([&](const Future<std::string>& done) {
      kept = done;
      seen = &done.value();
    });
    p.Set(std::string(100, 'v'));
  }
  // The promise and every other handle are gone; the kept handle still
  // reads the one stored value.
  ASSERT_TRUE(kept.valid());
  EXPECT_EQ(&kept.value(), seen);
  EXPECT_EQ(kept.value(), std::string(100, 'v'));
  // On a complete future the callback runs inline.
  int calls = 0;
  kept.OnComplete([&calls](const Future<std::string>& done) {
    calls += done.value().size() == 100 ? 1 : 0;
  });
  EXPECT_EQ(calls, 1);
}

TEST(FutureTest, PendingOnCompleteDoesNotKeepItsFutureAlive) {
  // A continuation that later holds its own future must not leak the
  // future when it never completes.
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  {
    Promise<int> p;
    p.future().OnComplete(
        [token = std::move(token)](const Future<int>&) { (void)token; });
  }
  EXPECT_TRUE(watch.expired());
}

TEST(FutureTest, GetBlocksAcrossThreads) {
  Promise<int> p;
  Future<int> f = p.future();
  std::thread producer([p] { p.Set(99); });
  EXPECT_EQ(f.Get(), 99);  // blocks until the producer thread sets
  producer.join();
}

TEST(FutureTest, ContinuationsMayUseTheExecutor) {
  // Continuations run with no locks held, so they can post follow-on work —
  // the shape every async query continuation has.
  Executor executor;
  Promise<int> p;
  std::vector<int> log;
  p.future().OnReady([&](const int& v) {
    log.push_back(v);
    executor.PostAt(executor.now_us() + 10, [&log] { log.push_back(-1); });
  });
  executor.Post([p] { p.Set(5); });
  executor.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<int>{5, -1}));
  EXPECT_EQ(executor.now_us(), 10u);
}

}  // namespace
}  // namespace rstore
