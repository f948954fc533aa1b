#!/usr/bin/env python3
"""Whole-program static analysis for RStore's concurrency discipline.

Two stages (see DESIGN.md "Static analysis"):

  1. per-TU fact extraction (the portable pure-Python parser in
     extract.py), cached in .analyze-cache/ keyed on source hash +
     extractor identity;
  2. a merged call-graph analysis running six checks:
       lock-rank-static     ranks must strictly decrease along every
                            acquisition path, including transitive ones
       blocking-under-lock  no user callback, KVStore backend call, or
                            CondVar wait on another mutex reachable while
                            any lock is held (the Scan bug class)
       sim-clock-purity     no wall clock / unseeded randomness reachable
                            from deterministic-simulation roots
       guarded-field        no access to an RSTORE_GUARDED_BY field where
                            the declared guard is not must-held on every
                            acquisition path (interprocedural, cross-TU)
       annotation-completeness
                            every mutable field of a lock-owning class is
                            guarded, an `analyze:atomic` atomic, or provably
                            immutable after construction
       atomic-mixed-access  no unmarked atomic accessed both under a lock
                            and lock-free (the alive_/hint_count_ bug class)

Usage:

  tools/analyze/run.py --all            # analyze src/ (the CI gate)
  tools/analyze/run.py src/kvstore      # analyze a subtree
  tools/analyze/run.py --self-test      # prove the checks on the bad-fixture
                                        # corpus (tools/analyze/fixtures/)
  tools/analyze/run.py --all --write-baseline   # accept current findings
  tools/analyze/run.py --all --incremental      # facts-cache hits vs
                                                # re-extracted TUs (and why)

Known findings live in tools/analyze/baseline.json with a justification
each; `// analyze:allow-<check>` on the offending line suppresses at source.
Exit status: 0 clean, 1 findings/self-test failure, 2 environment errors.
"""

import argparse
import json
import multiprocessing
import os
import re
import sys

ANALYZE_DIR = os.path.dirname(os.path.abspath(__file__))
TOOLS_DIR = os.path.dirname(ANALYZE_DIR)
REPO_ROOT = os.path.dirname(TOOLS_DIR)
for p in (ANALYZE_DIR, TOOLS_DIR):
    if p not in sys.path:
        sys.path.insert(0, p)

import callgraph
import checks as checks_mod
import compile_commands as ccdb
import extract
import facts as facts_mod

BASELINE_PATH = os.path.join(ANALYZE_DIR, "baseline.json")
FIXTURES_DIR = os.path.join(ANALYZE_DIR, "fixtures")
DEFAULT_CACHE_DIR = os.path.join(REPO_ROOT, ".analyze-cache")

# Sources the fixture corpus is analyzed against: enough for lock ranks, the
# KVStore hierarchy, and one real backend (so backend-call dispatch has
# bodies) without dragging all of src/ into the self-test.
FIXTURE_CONTEXT = ("src/common/sync.h", "src/kvstore/kv_store.h",
                   "src/kvstore/memory_store.h", "src/kvstore/memory_store.cc")

EXPECT_RE = re.compile(
    r"//\s*analyze:expect-([\w-]+)(?:\s+chain>=(\d+))?")


# -- extraction --------------------------------------------------------------

def _extract_one(job):
    """Worker: returns (path, facts, status). `status` is "hit" or a
    "miss:<why>" tag for --incremental reporting; on a broken TU the worker
    returns (path, None, "error:<message>") instead of raising, so one bad
    file cannot poison the whole pool (the parent reports it and exits 2)."""
    path, cache_dir = job
    try:
        with open(path, "rb") as f:
            source = f.read()
        key = facts_mod.facts_cache_key(
            source, extract.EXTRACTOR_NAME, extract.EXTRACTOR_VERSION)
        cache_path = (os.path.join(cache_dir, key + ".json")
                      if cache_dir else None)
        status = "miss:disabled" if not cache_dir else "miss:new"
        if cache_path and os.path.exists(cache_path):
            try:
                with open(cache_path, "r", encoding="utf-8") as f:
                    cached = json.load(f)
                if cached.get("schema") == facts_mod.SCHEMA_VERSION:
                    return path, cached, "hit"
                status = "miss:schema"
            except (OSError, ValueError):
                status = "miss:corrupt"
        tu_facts = extract.extract_file(path,
                                        os.path.relpath(path, REPO_ROOT))
        if cache_path:
            os.makedirs(cache_dir, exist_ok=True)
            tmp = cache_path + ".tmp.%d" % os.getpid()
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(tu_facts, f, sort_keys=True)
            os.replace(tmp, cache_path)
        return path, tu_facts, status
    except Exception as exc:  # noqa: BLE001 - reported by the parent
        return path, None, "error:%s: %s" % (type(exc).__name__, exc)


_MISS_WHY = {
    "miss:new": "no cache entry for this source hash",
    "miss:schema": "cache entry has a stale facts schema",
    "miss:corrupt": "cache entry unreadable",
    "miss:disabled": "cache disabled",
}


# -- source collection -------------------------------------------------------

def _walk_sources(root, exts=(".cc", ".h")):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(exts):
                out.append(os.path.join(dirpath, name))
    return out


def collect_sources(args):
    if args.self_test:
        srcs = _walk_sources(FIXTURES_DIR, exts=(".cc",))
        srcs += [os.path.join(REPO_ROOT, p) for p in FIXTURE_CONTEXT]
        return srcs, []
    if args.paths:
        srcs = []
        for p in args.paths:
            full = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
            if os.path.isdir(full):
                srcs += _walk_sources(full)
            elif os.path.isfile(full):
                srcs.append(full)
            else:
                print("run.py: no such path: %s" % p, file=sys.stderr)
                sys.exit(2)
        return sorted(set(srcs)), []
    # --all: TUs from the compilation database restricted to src/, plus all
    # headers under src/ (headers hold the inline bodies and class layouts).
    notes = []
    db = ccdb.find_database(args.build_dir)
    if db:
        srcs = ccdb.source_files(db, under="src")
        notes.append("TU list from %s" % os.path.relpath(db, REPO_ROOT))
    else:
        srcs = _walk_sources(os.path.join(REPO_ROOT, "src"), exts=(".cc",))
        notes.append("no compile_commands.json found; walked src/ instead "
                     "(configure with a preset to pin the TU list)")
    srcs += _walk_sources(os.path.join(REPO_ROOT, "src"), exts=(".h",))
    return sorted(set(srcs)), notes


# -- baseline ----------------------------------------------------------------

def load_baseline():
    if not os.path.exists(BASELINE_PATH):
        return {}
    with open(BASELINE_PATH, "r", encoding="utf-8") as f:
        data = json.load(f)
    return {e["fingerprint"]: e for e in data.get("findings", [])}


def write_baseline(findings):
    entries = [{
        "fingerprint": f["fingerprint"],
        "check": f["check"],
        "function": f["function"],
        "message": f["message"],
        "justification": "TODO: justify or fix",
    } for f in findings]
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump({"comment": "Known analyzer findings. Every entry needs a "
                              "justification; prefer fixing or a source-level "
                              "analyze:allow-<check> for intentional cases.",
                   "findings": entries}, f, indent=2, sort_keys=True)
        f.write("\n")


# -- reporting ---------------------------------------------------------------

def print_finding(fnd, stream=sys.stdout):
    print("%s: %s:%d: %s" % (fnd["check"], fnd["file"], fnd["line"],
                             fnd["message"]), file=stream)
    for frame in fnd["chain"]:
        print("    %s:%d: in %s: %s"
              % (frame["file"], frame["line"], frame["function"],
                 frame["note"]), file=stream)
    print("  fingerprint: %s" % fnd["fingerprint"], file=stream)


# -- self-test ---------------------------------------------------------------

def run_self_test(findings, fixture_paths):
    """Every `// analyze:expect-<check>` marker in the fixtures must be
    matched by a finding of that check anchored on the marker's line (or the
    line after, for markers on their own line), honoring `chain>=N`."""
    expectations = []
    for path in fixture_paths:
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f, start=1):
                for m in EXPECT_RE.finditer(line):
                    expectations.append({
                        "file": rel, "line": ln, "check": m.group(1),
                        "min_chain": int(m.group(2) or 0)})
    if not expectations:
        print("self-test: no analyze:expect-* markers found in %s"
              % FIXTURES_DIR, file=sys.stderr)
        return 1

    failures = []
    matched_fingerprints = set()
    for exp in expectations:
        hits = [f for f in findings
                if f["check"] == exp["check"] and f["file"] == exp["file"]
                and f["line"] in (exp["line"], exp["line"] + 1)
                and len(f["chain"]) >= exp["min_chain"]]
        if hits:
            matched_fingerprints.update(f["fingerprint"] for f in hits)
        else:
            failures.append(exp)

    fired = {f["check"] for f in findings}
    missing_checks = [c for c in checks_mod.ALL_CHECKS if c not in fired]

    print("self-test: %d expectation(s), %d finding(s), %d matched"
          % (len(expectations), len(findings), len(matched_fingerprints)))
    if failures:
        print("\nself-test FAILED; unmatched expectations:", file=sys.stderr)
        for exp in failures:
            want = exp["check"]
            if exp["min_chain"]:
                want += " (chain>=%d)" % exp["min_chain"]
            print("  %s:%d: expected %s" % (exp["file"], exp["line"], want),
                  file=sys.stderr)
        near = [f for f in findings
                if any(f["file"] == e["file"] for e in failures)]
        if near:
            print("\nfindings in the affected fixture(s):", file=sys.stderr)
            for f in near:
                print_finding(f, stream=sys.stderr)
        return 1
    if missing_checks:
        print("self-test FAILED; checks that never fired: %s"
              % ", ".join(missing_checks), file=sys.stderr)
        return 1
    print("self-test OK: all six checks fire on the fixture corpus")
    return 0


# -- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze (default: "
                             "--all behavior over src/)")
    parser.add_argument("--all", action="store_true",
                        help="analyze every TU under src/ from the "
                             "compilation database, plus src/ headers")
    parser.add_argument("--self-test", action="store_true",
                        help="analyze the bad-fixture corpus and assert "
                             "every expected finding fires")
    parser.add_argument("--jobs", "-j", type=int,
                        default=min(8, os.cpu_count() or 1),
                        help="parallel extraction workers (clamped to >= 1)")
    parser.add_argument("--incremental", action="store_true",
                        help="report facts-cache hits vs re-extracted TUs "
                             "(one line per cache miss, with the reason)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="facts cache directory (empty string disables)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the facts cache")
    parser.add_argument("--build-dir", default=None,
                        help="build tree whose compile_commands.json to use")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite tools/analyze/baseline.json with the "
                             "current findings")
    parser.add_argument("--report", default=None,
                        help="write a machine-readable JSON report here")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="print resolution warnings and per-TU stats")
    args = parser.parse_args()

    if args.self_test and (args.paths or args.all):
        print("run.py: --self-test cannot combine with paths/--all",
              file=sys.stderr)
        return 2

    cache_dir = "" if args.no_cache else args.cache_dir

    sources, notes = collect_sources(args)
    if args.verbose:
        for note in notes:
            print("note: %s" % note)
        print("extracting %d file(s)" % len(sources))

    jobs = [(path, cache_dir) for path in sources]
    njobs = max(1, min(args.jobs, len(jobs)))
    if njobs > 1:
        # chunksize=1 keeps the stragglers balanced; map() preserves the
        # sorted source order, so the merged program is deterministic
        # regardless of worker scheduling.
        with multiprocessing.Pool(njobs) as pool:
            results = pool.map(_extract_one, jobs, chunksize=1)
    else:
        results = [_extract_one(job) for job in jobs]

    errors = [(p, s) for p, _f, s in results if s.startswith("error:")]
    if errors:
        for path, status in errors:
            print("run.py: extraction failed: %s: %s"
                  % (os.path.relpath(path, REPO_ROOT), status[len("error:"):]),
                  file=sys.stderr)
        return 2

    if args.incremental or args.verbose:
        hits = sum(1 for _p, _f, s in results if s == "hit")
        print("facts cache: %d hit(s), %d miss(es)"
              % (hits, len(results) - hits))
    if args.incremental:
        for path, _facts, status in results:
            if status != "hit":
                print("  re-extracted %s (%s)"
                      % (os.path.relpath(path, REPO_ROOT),
                         _MISS_WHY.get(status, status)))

    program = callgraph.Program()
    for _path, tu_facts, _status in results:
        program.add_tu(tu_facts)
    program.link()
    findings = checks_mod.run_checks(program)

    if args.verbose and program.warnings:
        print("%d resolution warning(s):" % len(program.warnings))
        for w in sorted(set(program.warnings)):
            print("  warning: %s" % w)

    if args.self_test:
        fixture_paths = _walk_sources(FIXTURES_DIR, exts=(".cc",))
        return run_self_test(findings, fixture_paths)

    if args.write_baseline:
        write_baseline(findings)
        print("wrote %s (%d finding(s)); fill in the justifications"
              % (os.path.relpath(BASELINE_PATH, REPO_ROOT), len(findings)))
        return 0

    baseline = load_baseline()
    new = [f for f in findings if f["fingerprint"] not in baseline]
    known = [f for f in findings if f["fingerprint"] in baseline]
    stale = [fp for fp in baseline if fp not in
             {f["fingerprint"] for f in findings}]

    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump({"extractor": extract.EXTRACTOR_NAME,
                       "sources": len(sources),
                       "functions": len(program.functions),
                       "findings": findings,
                       "baselined": sorted(f["fingerprint"] for f in known),
                       "stale_baseline": sorted(stale),
                       "warnings": sorted(set(program.warnings))},
                      f, indent=2, sort_keys=True)
            f.write("\n")

    for fnd in new:
        print_finding(fnd)
    if known and args.verbose:
        print("%d baselined finding(s) suppressed" % len(known))
    if stale:
        print("note: %d stale baseline entr%s (fixed findings); prune %s"
              % (len(stale), "y" if len(stale) == 1 else "ies",
                 os.path.relpath(BASELINE_PATH, REPO_ROOT)))
    if new:
        print("\n%d new finding(s) across %d file(s), %d function(s) "
              "analyzed" % (len(new), len(sources), len(program.functions)))
        return 1
    print("analyze: clean (%d file(s), %d function(s), %d baselined)"
          % (len(sources), len(program.functions), len(known)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
