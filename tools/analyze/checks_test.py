#!/usr/bin/env python3
"""Unit tests for the analyzer's field-level checks (tools/analyze/checks.py):
a good/bad snippet pair per check, the must-hold vs may-hold divergence case,
cross-TU resolution, and every suppression escape. Snippets run through the
real pipeline (extract -> callgraph -> checks) via temp files, so these tests
cover the portable frontend's field-fact emission too. Run directly or via
ctest (`ctest -R tools.analyze_checks`); stdlib unittest only."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import callgraph  # noqa: E402
import checks  # noqa: E402
import extract  # noqa: E402


def build(*files):
    """(rel_path, text) pairs -> linked Program."""
    program = callgraph.Program()
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in files:
            path = os.path.join(tmp, rel.replace("/", "_"))
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            program.add_tu(extract.extract_file(path, rel))
    program.link()
    return program


def findings_for(check, *files):
    return [f for f in checks.run_checks(build(*files))
            if f["check"] == check]


def fn(program, name):
    """Function record by qualified-name suffix."""
    for f in program.functions:
        if f.qual == name or f.qual.endswith("::" + name):
            return f
    raise AssertionError("no function %r in %s"
                         % (name, sorted(f.qual for f in program.functions)))


def wrap(body):
    return "namespace rstore {\n%s}  // namespace rstore\n" % body


class GuardedFieldTest(unittest.TestCase):
    CHECK = checks.CHECK_GUARDED_FIELD

    def test_bad_direct_unlocked_access(self):
        text = wrap("""
class Counter {
 public:
  uint64_t Racy() { return counter_; }
 private:
  Mutex mu_;
  uint64_t counter_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        found = findings_for(self.CHECK, ("src/a.h", text))
        self.assertEqual(len(found), 1)
        self.assertIn("counter_", found[0]["message"])
        self.assertIn("mu_", found[0]["message"])

    def test_good_access_under_lock(self):
        text = wrap("""
class Counter {
 public:
  void Bump() {
    MutexLock lock(mu_);
    counter_ += 1;
  }
 private:
  Mutex mu_;
  uint64_t counter_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    DIVERGE = wrap("""
class Diverge {
 public:
  void Checked() {
    MutexLock lock(mu_);
    BumpImpl();
  }
  void Unchecked() { BumpImpl(); }
  void Reset() {
    MutexLock lock(mu_);
    ResetImpl();
  }
 private:
  void BumpImpl() { counter_ += 1; }
  void ResetImpl() { counter_ = 0; }
  Mutex mu_;
  uint64_t counter_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")

    def test_must_hold_vs_may_hold_divergence(self):
        # BumpImpl is reached both with and without mu_: may-hold (union)
        # would stay silent, must-hold (intersection) flags it — and the
        # chain names the lock-free entry path. ResetImpl, whose every
        # caller locks, stays clean even though it takes no lock itself.
        found = findings_for(self.CHECK, ("src/a.h", self.DIVERGE))
        self.assertEqual(len(found), 1)
        self.assertIn("BumpImpl", found[0]["function"])
        self.assertGreaterEqual(len(found[0]["chain"]), 2)
        self.assertTrue(any("Unchecked" in fr["function"]
                            for fr in found[0]["chain"]))

    def test_must_hold_fixpoint_values(self):
        program = build(("src/a.h", self.DIVERGE))
        self.assertEqual(fn(program, "Diverge::BumpImpl").must_hold,
                         frozenset())
        self.assertTrue(any(q.endswith("mu_") for q in
                            fn(program, "Diverge::ResetImpl").must_hold))

    def test_good_requires_annotation_counts_as_held(self):
        text = wrap("""
class Req {
 public:
  void CallerHolds() {
    MutexLock lock(mu_);
    Touch();
  }
 private:
  void Touch() RSTORE_REQUIRES(mu_) { counter_ += 1; }
  Mutex mu_;
  uint64_t counter_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_good_constructor_exempt(self):
        text = wrap("""
class Ctor {
 public:
  Ctor() { counter_ = 1; }
 private:
  Mutex mu_;
  uint64_t counter_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_allow_marker_suppresses(self):
        text = wrap("""
class Counter {
 public:
  uint64_t Racy() {
    return counter_;  // analyze:allow-guarded-field
  }
 private:
  Mutex mu_;
  uint64_t counter_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_bad_cross_tu_out_of_line_definition(self):
        header = wrap("""
class Box {
 public:
  void Set(int v);
 private:
  Mutex mu_;
  int value_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        cc = wrap("""
void Box::Set(int v) { value_ = v; }
""")
        found = findings_for(self.CHECK, ("src/box.h", header),
                             ("src/box.cc", cc))
        self.assertEqual(len(found), 1)
        self.assertEqual(found[0]["file"], "src/box.cc")


class AnnotationCompletenessTest(unittest.TestCase):
    CHECK = checks.CHECK_ANNOTATION

    def test_bad_unannotated_mutated_field(self):
        text = wrap("""
class Holder {
 public:
  void Set(int v) {
    MutexLock lock(mu_);
    value_ = v;
  }
 private:
  Mutex mu_;
  int value_ = 0;
};
""")
        found = findings_for(self.CHECK, ("src/a.h", text))
        self.assertEqual(len(found), 1)
        self.assertIn("value_", found[0]["function"])

    def test_good_guarded_field(self):
        text = wrap("""
class Holder {
 public:
  void Set(int v) {
    MutexLock lock(mu_);
    value_ = v;
  }
 private:
  Mutex mu_;
  int value_ RSTORE_GUARDED_BY(mu_) = 0;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_good_immutable_after_construction(self):
        text = wrap("""
class Holder {
 public:
  Holder() { value_ = 1; }
  int Get() const { return value_; }
 private:
  Mutex mu_;
  int value_ = 0;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_bad_unmarked_atomic(self):
        text = wrap("""
class Holder {
 public:
  void Bump() { n_.fetch_add(1); }
 private:
  Mutex mu_;
  std::atomic<int> n_{0};
};
""")
        found = findings_for(self.CHECK, ("src/a.h", text))
        self.assertEqual(len(found), 1)
        self.assertIn("n_", found[0]["function"])

    def test_good_marked_atomic(self):
        text = wrap("""
class Holder {
 public:
  void Bump() { n_.fetch_add(1); }
 private:
  Mutex mu_;
  std::atomic<int> n_{0};  // analyze:atomic
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_bad_atomic_only_class_is_tracked(self):
        # No mutex anywhere: owning an atomic is enough to demand the
        # protocol marker.
        text = wrap("""
class Tally {
 public:
  void Bump() { n_.fetch_add(1); }
 private:
  std::atomic<int> n_{0};
};
""")
        self.assertEqual(len(findings_for(self.CHECK, ("src/a.h", text))), 1)

    def test_good_out_of_line_nested_struct_is_its_own_class(self):
        # `struct Outer::Inner {` defines Inner: its fields are not the
        # shared state of the lock-owning Outer.
        h = wrap("""
class Outer {
 public:
  void Run();
 private:
  struct Inner;
  Mutex mu_;
};
""")
        cc = wrap("""
struct Outer::Inner {
  int hits = 0;
};
void Outer::Run() {
  Inner inner;
  inner.hits = 1;
}
""")
        self.assertEqual(
            findings_for(self.CHECK, ("src/o.h", h), ("src/o.cc", cc)), [])

    def test_good_untracked_class_ignored(self):
        text = wrap("""
struct Stats {
  int hits = 0;
  void Bump() { hits += 1; }
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])


class AtomicMixedAccessTest(unittest.TestCase):
    CHECK = checks.CHECK_ATOMIC_MIXED

    BAD = wrap("""
class Queue {
 public:
  void Add() {
    MutexLock lock(mu_);
    pending_.fetch_add(1);
  }
  bool Poll() { return pending_.load() != 0; }
 private:
  Mutex mu_;
  std::atomic<int> pending_{0};
};
""")

    def test_bad_locked_and_lock_free(self):
        found = findings_for(self.CHECK, ("src/a.h", self.BAD))
        self.assertEqual(len(found), 1)
        self.assertIn("pending_", found[0]["message"])
        chain_fns = [fr["function"] for fr in found[0]["chain"]]
        self.assertTrue(any("Add" in f for f in chain_fns))
        self.assertTrue(any("Poll" in f for f in chain_fns))

    def test_good_marker_documents_the_protocol(self):
        text = self.BAD.replace("std::atomic<int> pending_{0};",
                                "std::atomic<int> pending_{0};"
                                "  // analyze:atomic")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_good_always_locked(self):
        text = wrap("""
class Queue {
 public:
  void Add() {
    MutexLock lock(mu_);
    pending_.fetch_add(1);
  }
  bool Poll() {
    MutexLock lock(mu_);
    return pending_.load() != 0;
  }
 private:
  Mutex mu_;
  std::atomic<int> pending_{0};
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_good_always_lock_free(self):
        text = wrap("""
class Queue {
 public:
  void Add() { pending_.fetch_add(1); }
  bool Poll() { return pending_.load() != 0; }
 private:
  Mutex mu_;
  std::atomic<int> pending_{0};
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_bad_must_held_caller_counts_as_locked(self):
        # The locked half of the mix comes from the interprocedural
        # must-hold set, not a lock in the accessing function itself.
        text = wrap("""
class Queue {
 public:
  void Add() {
    MutexLock lock(mu_);
    AddImpl();
  }
  bool Poll() { return pending_.load() != 0; }
 private:
  void AddImpl() { pending_.fetch_add(1); }
  Mutex mu_;
  std::atomic<int> pending_{0};
};
""")
        self.assertEqual(len(findings_for(self.CHECK, ("src/a.h", text))), 1)


class CondVarWaitCaptureTest(unittest.TestCase):
    """The predicate overload `Wait(mu, pred)` through an arrow receiver:
    the extractor must capture only the mutex argument (`->` is not a
    closing angle bracket), or the legal wait-on-the-held-mutex pattern
    resolves as a foreign-lock wait."""

    CHECK = checks.CHECK_BLOCKING

    SHARED = """
struct SharedState {
  Mutex mu{kLockRankLeaf, "SharedState::mu"};
  CondVar cv;
  bool ready = false;
};
"""

    def test_split_top_commas_ignores_member_arrows(self):
        self.assertEqual(
            extract._split_top_commas(
                "state_->mu, [this] { return state_->ready; }"),
            ["state_->mu", "[this] { return state_->ready; }"])
        self.assertEqual(extract._split_top_commas("a, b<c, d>, e(f, g)"),
                         ["a", "b<c, d>", "e(f, g)"])

    def test_good_predicate_wait_on_held_mutex(self):
        text = wrap(self.SHARED + """
class FutureLike {
 public:
  void Get() {
    MutexLock lock(state_->mu);
    state_->cv.Wait(state_->mu, [this] { return state_->ready; });
  }
 private:
  SharedState* state_;
};
""")
        self.assertEqual(findings_for(self.CHECK, ("src/a.h", text)), [])

    def test_bad_predicate_wait_under_foreign_lock(self):
        text = wrap(self.SHARED + """
class FutureLike {
 public:
  void Get() {
    MutexLock stats(stats_mu_);
    MutexLock lock(state_->mu);
    state_->cv.Wait(state_->mu, [this] { return state_->ready; });
  }
 private:
  Mutex stats_mu_{kLockRankMetrics, "FutureLike::stats_mu_"};
  SharedState* state_;
};
""")
        found = findings_for(self.CHECK, ("src/a.h", text))
        self.assertEqual(len(found), 1)
        self.assertIn("stats_mu_", found[0]["message"])


class FingerprintTest(unittest.TestCase):
    def test_stable_across_runs(self):
        text = GuardedFieldTest.DIVERGE
        a = findings_for(checks.CHECK_GUARDED_FIELD, ("src/a.h", text))
        b = findings_for(checks.CHECK_GUARDED_FIELD, ("src/a.h", text))
        self.assertEqual([f["fingerprint"] for f in a],
                         [f["fingerprint"] for f in b])


if __name__ == "__main__":
    unittest.main()
