// The LZ and delta encoders keep their match/anchor tables per thread and
// reuse them across calls. These tests hold every output to the one a
// fresh table produces (computed on a thread of its own, whose tables are
// new), for interleaved calls of mixed sizes on one thread, for the same
// calls on several threads at once, and across the LZ table's offset reset.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "compress/delta_codec.h"
#include "compress/lz_codec.h"
#include "workload/record_generator.h"

namespace rstore {
namespace {

/// Runs `fn` on a new thread, whose per-thread codec tables start empty.
template <typename Fn>
std::string OnFreshThread(Fn fn) {
  std::string out;
  std::thread([&out, &fn] { out = fn(); }).join();
  return out;
}

std::string Lz(const std::string& input) {
  std::string out;
  lz::Compress(Slice(input), &out);
  return out;
}

std::string Delta(const std::string& base, const std::string& target) {
  std::string out;
  delta_codec::Encode(Slice(base), Slice(target), &out);
  return out;
}

/// JSON-like text of about `bytes` bytes (exactly `bytes` when that is
/// under the generator's minimum document).
std::string Json(uint32_t bytes, uint64_t seed) {
  workload::RecordGenerator gen(bytes, seed);
  std::string doc = gen.Generate("key-" + std::to_string(seed));
  if (doc.size() > bytes) doc.resize(bytes);
  return doc;
}

/// Mixed sizes, small again after the large one, with repeats: a repeated
/// input hashes to exactly the entries its previous call left behind, so a
/// stale entry read as live would change the output.
std::vector<std::string> MixedInputs() {
  std::vector<std::string> inputs = {
      "",          Json(7, 1),     Json(256, 2),  Json(64 * 1024, 3),
      Json(7, 1),  Json(256, 2),   Json(4096, 4), std::string(300, 'z'),
      Json(256, 2)};
  return inputs;
}

struct DeltaCase {
  std::string base;
  std::string target;
};

std::vector<DeltaCase> MixedDeltaCases() {
  std::vector<DeltaCase> cases;
  workload::RecordGenerator gen(256, 9);
  for (const std::string& base : MixedInputs()) {
    cases.push_back(
        {base, base.empty() ? Json(64, 7) : gen.Mutate(base, 0.05)});
  }
  // Unrelated base and target, then a target equal to its base.
  cases.push_back({Json(1024, 5), Json(1024, 6)});
  cases.push_back({Json(1024, 5), Json(1024, 5)});
  return cases;
}

struct References {
  std::vector<std::string> lz;
  std::vector<std::string> delta;
};

References FreshTableReferences(const std::vector<std::string>& inputs,
                                const std::vector<DeltaCase>& cases) {
  References refs;
  for (const std::string& input : inputs) {
    refs.lz.push_back(OnFreshThread([&] { return Lz(input); }));
  }
  for (const DeltaCase& c : cases) {
    refs.delta.push_back(
        OnFreshThread([&] { return Delta(c.base, c.target); }));
  }
  return refs;
}

/// Encodes every input `rounds` times on the calling thread, starting at
/// `rotation`; returns the number of outputs that differ from `refs`.
int CountMismatches(const std::vector<std::string>& inputs,
                    const std::vector<DeltaCase>& cases,
                    const References& refs, size_t rotation, int rounds) {
  int mismatches = 0;
  for (int round = 0; round < rounds; ++round) {
    for (size_t k = 0; k < inputs.size(); ++k) {
      const size_t i = (k + rotation) % inputs.size();
      if (Lz(inputs[i]) != refs.lz[i]) ++mismatches;
      const size_t d = (k + rotation) % cases.size();
      if (Delta(cases[d].base, cases[d].target) != refs.delta[d]) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(CodecTableReuseTest, InterleavedMixedSizesMatchFreshTables) {
  const std::vector<std::string> inputs = MixedInputs();
  const std::vector<DeltaCase> cases = MixedDeltaCases();
  const References refs = FreshTableReferences(inputs, cases);

  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE("input " + std::to_string(i));
      const std::string compressed = Lz(inputs[i]);
      EXPECT_EQ(compressed, refs.lz[i]);
      std::string restored;
      ASSERT_TRUE(lz::Decompress(Slice(compressed), &restored).ok());
      EXPECT_EQ(restored, inputs[i]);
    }
    for (size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("delta case " + std::to_string(i));
      const std::string delta = Delta(cases[i].base, cases[i].target);
      EXPECT_EQ(delta, refs.delta[i]);
      std::string restored;
      ASSERT_TRUE(
          delta_codec::Apply(Slice(cases[i].base), Slice(delta), &restored)
              .ok());
      EXPECT_EQ(restored, cases[i].target);
    }
  }
  // Calls that alternate codecs and sizes share nothing across codecs.
  EXPECT_EQ(CountMismatches(inputs, cases, refs, 0, 2), 0);
}

TEST(CodecTableConcurrencyTest, ThreadsEncodingAtOnceMatchFreshTables) {
  const std::vector<std::string> inputs = MixedInputs();
  const std::vector<DeltaCase> cases = MixedDeltaCases();
  const References refs = FreshTableReferences(inputs, cases);

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      mismatches[t] = CountMismatches(inputs, cases, refs,
                                      static_cast<size_t>(t), 3);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(LzTableOffsetTest, OutputsSurviveTheOffsetReset) {
  const std::vector<std::string> inputs = MixedInputs();
  const std::string doc = Json(256, 2);
  const std::string ref = OnFreshThread([&] { return Lz(doc); });
  std::vector<std::string> refs;
  for (const std::string& input : inputs) {
    refs.push_back(OnFreshThread([&] { return Lz(input); }));
  }

  // One thread of its own, so the raised offset does not outlive the test.
  std::vector<std::string> got;
  std::thread([&] {
    for (const std::string& input : inputs) Lz(input);  // populate
    constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
    // Room for exactly this call: its positions end at the last value.
    lz::AdvanceTableOffsetForTesting(kMax - static_cast<uint32_t>(doc.size()));
    got.push_back(Lz(doc));
    // No room left: this call clears the table and starts over at 0.
    got.push_back(Lz(doc));
    for (const std::string& input : inputs) got.push_back(Lz(input));
  }).join();

  ASSERT_EQ(got.size(), 2 + inputs.size());
  EXPECT_EQ(got[0], ref);
  EXPECT_EQ(got[1], ref);
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(got[2 + i], refs[i]) << "input " << i;
  }
}

}  // namespace
}  // namespace rstore
