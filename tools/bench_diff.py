#!/usr/bin/env python3
"""Compare BENCH_*.json outputs against committed baselines.

The bench binaries emit flat metric -> value JSON (BENCH_<name>.json).
Metrics gate in three tiers:

  simulated time  names containing "micros" or ending in "_ms". Produced by
                  the deterministic latency model, so exactly reproducible
                  run-to-run and machine-to-machine. Exact gate: any change,
                  up or down, fails — it is a modeling or code-path change,
                  never noise, and is acknowledged by refreshing the
                  baseline in the same change.
  model counts    names ending in one of EXACT_COUNT_SUFFIXES: cache hit
                  rates (bench_cache_ablation), fault coverage,
                  availability, retries and hedges (bench_fault_tolerance)
                  and layout spans (bench_ingest). Counted on the same
                  deterministic model, so they gate exactly too.
  wall clock      names ending in "_real_ns" (bench_micro). Host- and
                  load-dependent, so the gate is deliberately loose
                  (--wall-threshold, default 3.0 = +300%): it only catches
                  order-of-magnitude regressions — an accidental O(n^2), a
                  lock on the hot path — never scheduler jitter.

Other metrics (wall-derived rates such as *_per_sec and speedup_*, bytes)
are reported but never gate. Wall-clock improvements and sub-threshold
drift are reported but do not fail. Metrics missing from the baseline (new
benches, new series) warn and pass, so adding coverage never blocks a PR;
refresh the baseline to start gating them.

Usage:
  tools/bench_diff.py [--wall-threshold 3.0] [--baselines bench/baselines]
                      BENCH_a.json [BENCH_b.json ...]

Exit status: 1 when any simulated-time or model-count metric changed or
any wall-clock metric regressed past its gate, else 0.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Deterministic non-time metrics that gate exactly: every bench metric with
# one of these suffixes reads the same over repeated smoke runs.
EXACT_COUNT_SUFFIXES = ("_hit_rate", "_coverage", "_availability",
                        "_total_span", "_retries", "_hedges")


def metric_tier(name):
    """"sim" or "count" (exact gates), "wall" (loose gate), or None (never
    gates)."""
    if "micros" in name or name.endswith("_ms"):
        return "sim"
    if name.endswith(EXACT_COUNT_SUFFIXES):
        return "count"
    if name.endswith("_real_ns"):
        return "wall"
    return None


def load_metrics(path):
    with open(path) as f:
        metrics = json.load(f)
    if not isinstance(metrics, dict):
        raise ValueError("%s: expected a flat JSON object" % path)
    return metrics


def compare(current_path, baseline_path, wall_threshold):
    """Returns (failures, lines) for one bench file pair: simulated-time
    and model-count metrics must equal their baseline, wall-clock ones stay
    within `wall_threshold` (relative) above it."""
    current = load_metrics(current_path)
    baseline = load_metrics(baseline_path)
    failures = 0
    lines = []
    for name in sorted(current):
        tier = metric_tier(name)
        if tier is None:
            continue
        value = float(current[name])
        if name not in baseline:
            lines.append("  NEW      %-45s %14.3f (no baseline)"
                         % (name, value))
            continue
        base = float(baseline[name])
        if base == 0.0:
            delta = 0.0 if value == 0.0 else float("inf")
        else:
            delta = (value - base) / base
        if tier in ("sim", "count"):
            tag = "ok" if value == base else "CHANGED"
            gate = "exact"
        else:
            tag = "ok"
            if delta > wall_threshold:
                tag = "REGRESSED"
            elif delta < -wall_threshold:
                tag = "improved"
            gate = "%+.0f%%" % (wall_threshold * 100.0)
        if tag in ("CHANGED", "REGRESSED"):
            failures += 1
        lines.append("  %-8s %-45s %14.3f vs %14.3f  (%+.1f%%, gate %s)"
                     % (tag, name, value, base, delta * 100.0, gate))
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_files", nargs="+",
                        help="BENCH_*.json files produced by this run")
    parser.add_argument("--wall-threshold", type=float, default=3.0,
                        help="relative gate for wall-clock *_real_ns "
                             "metrics (default 3.0 = +300%%)")
    parser.add_argument("--baselines",
                        default=os.path.join(REPO_ROOT, "bench", "baselines"),
                        help="directory of committed baseline BENCH_*.json")
    args = parser.parse_args(argv)

    total_failures = 0
    compared = 0
    for path in args.bench_files:
        name = os.path.basename(path)
        baseline_path = os.path.join(args.baselines, name)
        if not os.path.exists(baseline_path):
            print("%s: no baseline at %s — skipping (commit one to start "
                  "gating)" % (name, baseline_path))
            continue
        try:
            failures, lines = compare(path, baseline_path,
                                      args.wall_threshold)
        except (OSError, ValueError, KeyError) as e:
            print("%s: cannot compare: %s" % (name, e), file=sys.stderr)
            return 1
        compared += 1
        print("%s: %s" % (name,
                          "%d gated metric(s) failed" % failures
                          if failures else "ok"))
        for line in lines:
            print(line)
        total_failures += failures

    if not compared:
        print("bench_diff.py: nothing compared (no baselines found)",
              file=sys.stderr)
        return 0
    if total_failures:
        print("\nbench_diff.py: %d gated metric(s) failed: simulated time "
              "and model counts must match their baselines exactly, wall "
              "clock stay within %+.0f%%"
              % (total_failures, args.wall_threshold * 100),
              file=sys.stderr)
        return 1
    print("\nbench_diff.py: all gated metrics pass (simulated time and "
          "model counts exact, wall clock %+.0f%%)"
          % (args.wall_threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
