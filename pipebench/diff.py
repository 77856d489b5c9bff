#!/usr/bin/env python3
"""Compare two sets of pipeline-benchmark results, workload by metric.

    python3 pipebench/diff.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory holds the standard output of bench_pipeline runs, one file per
run (any name): a meta line naming the workload, then the JSON result as the
last line. For every workload x metric the script prints each side's median
and quartiles. End-to-end metrics are judged against their bound in
BENCHMARK.json:

  regression   the new median is worse than the base median by more than
               the bound
  unresolved   either side's quartile spread (q3 - q1) / median exceeds the
               bound, so a change of that size cannot be told from noise
               (unless every new run beats every base run)
  ok           neither

Per-layer metrics have no bound and are only reported. Runs from a degraded
environment (1-core container) are never compared with other runs.

Exit status: 0 = no regression, 1 = regression or missing metric,
2 = refused (bad input, or degraded vs non-degraded).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """Returns ({workload: {metric: [values]}}, {degraded flags})."""
    runs = {}
    degraded = set()
    files = sorted(p for p in Path(directory).iterdir() if p.is_file())
    for path in files:
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        try:
            head = json.loads(lines[0])
            result = json.loads(lines[-1])
            workload = head["workload"]
            degraded.add(bool(head["meta"]["degraded_env"]))
            metrics, correct = result["metrics"], result["correct"]
        except (IndexError, KeyError, TypeError, json.JSONDecodeError):
            raise ValueError(f"{path}: not a bench_pipeline output") from None
        if not correct:
            raise ValueError(f"{path}: run reported incorrect output")
        per_metric = runs.setdefault(workload, {})
        for name, metric in metrics.items():
            per_metric.setdefault(name, []).append(float(metric["value"]))
    if not runs:
        raise ValueError(f"{directory}: no result files")
    return runs, degraded


def summary(values):
    if len(values) < 2:
        raise ValueError("need at least two runs per workload on each side")
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return q1, med, q3, spread


def judge(base, new, better, bound):
    """Returns (status, relative change where positive = worse)."""
    _, b_med, _, b_spread = summary(base)
    _, n_med, _, n_spread = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if bound is None:
        return "", worse
    if max(b_spread, n_spread) > bound:
        beats = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
        return ("better" if beats else "unresolved"), worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=str(Path(__file__).resolve().parent.parent
                                               / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.bench).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        base, base_degraded = load_runs(args.base)
        new, new_degraded = load_runs(args.new)
    except (OSError, ValueError) as err:
        print(f"diff.py: {err}", file=sys.stderr)
        return 2
    if len(base_degraded | new_degraded) > 1:
        print("diff.py: refusing to compare degraded_env runs with "
              "non-degraded runs", file=sys.stderr)
        return 2

    regressions = 0
    unresolved = 0
    print(f"{'workload':12} {'metric':32} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'worse by':>8} status")
    for workload in sorted(set(base) | set(new)):
        present = set(base.get(workload, {})) | set(new.get(workload, {}))
        names = [n for n in metrics if n in present] + sorted(present - set(metrics))
        for name in names:
            b = base.get(workload, {}).get(name)
            n = new.get(workload, {}).get(name)
            if b is None or n is None or name not in metrics:
                print(f"{workload:12} {name:32} missing on one side or not in "
                      f"BENCHMARK.json")
                regressions += 1
                continue
            m = metrics[name]
            try:
                status, worse = judge(b, n, m["better"], m.get("bound"))
                bq = summary(b)
                nq = summary(n)
            except ValueError as err:
                print(f"diff.py: {workload} {name}: {err}", file=sys.stderr)
                return 2
            regressions += status == "REGRESSION"
            unresolved += status == "unresolved"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{workload:12} {name:32} {fmt(bq):>32} {fmt(nq):>32} "
                  f"{worse * 100:+7.1f}% {status}")
    print(f"\n{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
