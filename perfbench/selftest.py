"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints; that the
reference copy is the one the ratios are defined against; that every workload, untraced and traced, prints every named metric with its unit
and a correct result; that a deliberately corrupted answer is counted as a
failure on every workload; and that without the groupspec sources the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check_reference():
    assert run.tree_sha256(workloads.LIBS["ref"]) == run.REF_SHA256


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(x) for x in tracer.PER_LAYER]
    return bench


def run_tiny(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def check_metrics(bench: dict, workload: str, trace: int):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    names = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)


def _corrupt(op, out):
    """A plausible wrong answer for each kind of operation."""
    if isinstance(op[0], tuple):                              # a CLI call
        return dict(out, code=out["code"] ^ 1)
    kind = op[0]
    if kind == "spectrum":
        return out + [out[0] * 2 + 1]
    if kind == "graph_coset":
        return [10 ** 9 + 7] + out
    if kind == "tau":
        return dict(out, verdict="witness", triggered=[[1, 10 ** 9 + 7]])
    if kind == "admissible":
        return dict(out, extensions=dict(out["extensions"], x=[10 ** 9 + 7]))
    if kind in ("verify", "verify_tau"):
        return dict(out, verdict="FAIL")
    if kind == "witness":
        return [dict(out[0], status="mismatch")] + out[1:]
    return [[out[0][0], not out[0][1]]] + out[1:]            # gamma


def check_corruption(workload: str):
    seen = []

    def mutate(op, out):
        seen.append(op)
        return _corrupt(op, out) if len(seen) == 1 else out
    res = worker.run_pass(workload, 1, time.perf_counter(), tiny=True, mutate=mutate)
    assert res["failed"] == 1 and res["failed"] / res["ops"] > 0, res["failures"]


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_tiny("closed_forms", 0, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare)


def main() -> int:
    bench = check_benchmark_json()
    check_reference()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_metrics(bench, workload, trace)
        check_corruption(workload)
        print(f"ok {workload}", flush=True)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
