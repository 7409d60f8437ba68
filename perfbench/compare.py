"""Compare a parent's benchmark results with a change's, one row per workload
and end-to-end metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are .perfbench_out/results.jsonl files written by run.py (untraced
runs are used; run the same seeds on both sides, alternating which side runs
first). Runs are paired in file order. A row's verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or the change failed
              more operations on the workload than the parent did
  better      the change wins at least 9 in 10 pairs (ties count for neither)
              and the medians differ by more than the parent's quartile
              spread
  unresolved  otherwise, when the parent's own quartile spread is wider
              than the bound, unless every change run beats every parent
              run (then: no change)
  no change   otherwise
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """workload -> metric -> values, from the untraced full-size runs; the
    key "failed" holds each run's count of failed operations."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] or rec["tiny"]:
                continue
            per = out.setdefault(rec["context"]["workload"], {})
            per.setdefault("failed", []).append(rec["failed"])
            for name, val in rec["metrics"].items():
                per.setdefault(name, []).append(val)
    return out


def quartiles(vals: list) -> tuple:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(parent: list, change: list, bound: float, lower_is_better: bool) -> tuple:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    if sign * (cm - pm) > bound * abs(pm):
        return won, "worse"
    if won >= 0.9 and sign * (pm - cm) > p3 - p1:
        return won, "better"
    if (p3 - p1) > bound * abs(pm) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        return won, "unresolved"
    return won, "no change"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<13} {'metric':<13} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'won':>5}  verdict")
    for wl in bench["workloads"]:
        name = wl["name"]
        for metric in bench["end_to_end"]:
            p = parent.get(name, {}).get(metric["name"])
            c = change.get(name, {}).get(metric["name"])
            if not p or not c:
                print(f"{name:<13} {metric['name']:<13} missing on one side")
                continue
            won, word = verdict(p, c, metric["bound"], metric["better"] == "lower")
            p_failed, c_failed = sum(parent[name]["failed"]), sum(change[name]["failed"])
            if c_failed > p_failed:
                word = f"worse: {c_failed} failed operations, parent {p_failed}"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{name:<13} {metric['name']:<13} "
                  f"{pq[1]:<10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(59)
                  + f" {cq[1]:<10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(33)
                  + f" {won:>5.0%}  {word} (n={len(p)}/{len(c)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
