"""groupspec benchmark: runs one seeded workload for a fixed time and prints
its end-to-end metrics (or, with --trace 1, its per-layer metrics).

    python3 perfbench/run.py --workload closed_forms --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

The library in src/ is timed against a frozen copy of itself, perfbench/ref,
in lockstep: each pass starts two fresh interpreters running
perfbench/worker.py on one thread and one CPU (numpy's thread pools are held
to one), and every operation runs on one and then on the other. A shared
2-core VM can change speed by up to 1.6 times within seconds, so a time
alone does not say whether the library changed; the ratio of two times taken
at nearly the same moment does (see README.md). The *_rel metrics are such ratios, and
setup_s is a set-up ratio times the reference's set-up time (REF_SETUP_S).
The number of passes follows from --seconds and the workload alone
(pass_count). Every answer of the library is checked. A traced run pairs an
untraced with a traced worker of the library instead and reports the
difference as the tracing overhead. The last stdout line is one JSON object;
each run is also appended to .perfbench_out/results.jsonl for
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PAIRS = 5              # set-up pairs per untraced run, passes included
# Wall time of one pass of two workers in lockstep (two set-ups, the operation
# list twice, the checks) on a 2-core 2.0 GHz Xeon VM, roughly; it only turns
# --seconds into a pass count. At --seconds 24 that is 3 passes of
# closed_forms and of each oracle workload, whose median drops an unlucky
# pass, and 1 of cli_cold, whose 40 operations per side take about 25 s.
PAIR_NOMINAL_S = {"closed_forms": 7.5, "oracle_prime": 7.5, "oracle_ext": 7.5,
                  "cli_cold": 26.0}
# Set-up time of the reference copy on that VM, the median of its runs,
# rounded; setup_s is this times the measured set-up ratio of the library to
# the reference, so it follows the library and not the host's speed.
REF_SETUP_S = {"closed_forms": 0.22, "oracle_prime": 0.32, "oracle_ext": 0.38,
               "cli_cold": 0.38}
RUN_LIMIT_S = 150            # stop starting passes past this, whatever --seconds says
DEADLINE_S = 170             # the run gives up (exit code 1) past this
TAIL_LEVELS = (99.9, 99.0, 97.0, 95.0, 90.0, 75.0)

END_TO_END = (("setup_s", "s"), ("run_rel", "x"), ("cpu_rel", "x"), ("op_p50_rel", "x"),
              ("op_tail_rel", "x"), ("ok_ratio", "ratio"), ("peak_rss_mib", "MiB"))

# Hash of perfbench/ref/groupspec (tree_sha256): the reference must never change.
REF_SHA256 = "3bab376294f36dc6662ede11f52f1b165a29a608b994a7a54473540aec1ccf0e"
SRC, REF = ("src", False), ("ref", False)       # (library, traced) of a worker


class PassError(RuntimeError):
    """A worker process failed without producing a result."""


class Stopped(Exception):
    """The run went past DEADLINE_S, or was told to stop."""


class Worker:
    """A worker.py --serve process: set up when made, then runs the
    operations it is sent, one at a time."""

    def __init__(self, workload: str, seed: int, tiny: bool, lib: str, traced: bool):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--lib", lib, "--serve"]
        if tiny:
            cmd.append("--tiny")
        if traced:
            cmd += ["--trace", OUT_DIR]
        self.name = f"{workload} {lib}{' traced' if traced else ''}"
        self.err = tempfile.TemporaryFile(mode="w+", encoding="utf-8")
        self.proc = subprocess.Popen(cmd + ["--t0", repr(time.perf_counter())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True, cwd=ROOT,
                                     env=workloads.cli_env(workloads.LIBS[lib]),
                                     start_new_session=True)
        try:
            self.setup_s = json.loads(self._reply())["setup_s"]
        except BaseException:
            self.close()
            raise

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.err.seek(0)
            raise PassError(f"{self.name} worker exited {self.proc.returncode}: "
                            f"{self.err.read()[-2000:]}")
        return line

    def _send(self, cmd: str):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def op(self, k: int):
        self._send(str(k))
        self._reply()

    def finish(self) -> dict:
        self._send("end")
        res = json.loads(self._reply())
        self.close()
        return res

    def close(self):
        """Stop the process unless it already ended, with any CLI child it
        has running, and wait for it."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self.err):
            try:
                pipe.close()
            except OSError:
                pass


def lockstep(workload: str, seed: int, tiny: bool, roles: tuple, index: int,
             ops: int) -> list:
    """One pass of two workers in lockstep: they set up one after the other,
    then each operation runs on one worker and then on the other. Both see the
    host at nearly the same moment, so the ratio of their times does not
    follow the host's speed. Which worker goes first alternates from
    operation to operation (ABBA...) and from pass to pass, so that in every
    pass each goes first for half the operations. The position matters on
    small operations: the first ran its previous operation just before, and
    the second follows the same operation on the other worker; either one
    changed a small operation's time by 4% to 8%. Returns the two results,
    in roles order; ops=0 gives a set-up-only pair."""
    workers: dict = {}
    try:
        for role in (roles if index % 2 == 0 else roles[::-1]):
            workers[role] = Worker(workload, seed, tiny, *role)
        first, second = (workers[r] for r in roles)
        for k in range(ops):
            for w in ((first, second) if (k + index) % 2 == 0 else (second, first)):
                w.op(k)
        return [workers[r].finish() for r in roles]
    finally:
        for w in workers.values():
            w.close()


def pass_count(workload: str, seconds: float, tiny: bool) -> int:
    """Passes for a run of about `seconds`. The count follows from --seconds
    and each workload's nominal pass time alone, never from a measured time,
    so the parent and a change with the same settings take the same number of
    samples."""
    return 1 if tiny else max(1, int(seconds / PAIR_NOMINAL_S[workload]))


def run_passes(workload: str, seed: int, seconds: float, tiny: bool, trace: bool, ops: int):
    """Lockstep passes of the library against the reference copy (traced: of
    the library untraced against itself traced); then, untraced, set-up-only
    pairs until there are SETUP_PAIRS set-up pairs. RUN_LIMIT_S only guards
    the run's exit deadline on a very slow machine: past it no further pass
    starts."""
    roles = (SRC, (("src", True) if trace else REF))
    passes = []
    start = time.perf_counter()
    for index in range(pass_count(workload, seconds, tiny)):
        if passes and time.perf_counter() - start > RUN_LIMIT_S:
            print(f"# {workload}: stopped after {len(passes)} passes at the run's time limit")
            break
        passes.append(lockstep(workload, seed, tiny, roles, index, ops))
    setups = [(a["setup_s"], b["setup_s"]) for a, b in passes]
    while not trace and len(setups) < SETUP_PAIRS:
        a, b = lockstep(workload, seed, tiny, roles, len(setups), 0)
        setups.append((a["setup_s"], b["setup_s"]))
    return passes, setups


def percentile(sorted_vals: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_level(samples: int):
    """Highest listed percentile with at least ten samples beyond it; None
    when even p75 has fewer."""
    for level in TAIL_LEVELS:
        if samples * (100 - level) / 100 >= 10:
            return level
    return None


def end_to_end(workload: str, passes: list, setups: list) -> tuple:
    """Each *_rel metric is the library's figure divided by the reference's
    in the same pass, then the median over passes. op_p50_rel is the median
    over operations of each operation's latency ratio: the typical
    operation's, and far steadier than a ratio of two medians of mixed
    operations. op_tail_rel compares the
    mean latency of the operations at or beyond the tail percentile (the
    slowest eleven or so), which is steadier than one operation's. A
    workload with fewer than 40 operations has too few for a tail
    percentile; there op_tail_rel is run_rel, the ratio of the mean time per
    operation. setup_s is REF_SETUP_S times the median set-up ratio over
    SETUP_PAIRS pairs."""
    ops = passes[0][0]["ops"]
    level = tail_level(ops)
    attempted = sum(a["ops"] for a, _ in passes)
    failed = sum(a["failed"] for a, _ in passes)

    def rel(value):
        return statistics.median(value(a) / value(b) for a, b in passes)

    def pct(level):
        return lambda p: percentile(sorted(p["latencies"]), level)

    def tail_mean(p):
        """Mean latency of the operations at or beyond the tail percentile."""
        lat = sorted(p["latencies"])
        return statistics.fmean(lat[max(1, math.ceil(level / 100 * ops)) - 1:])

    run_rel = rel(lambda p: p["run_s"])
    metrics = {
        "setup_s": REF_SETUP_S[workload] * statistics.median(a / b for a, b in setups),
        "run_rel": run_rel, "cpu_rel": rel(lambda p: p["cpu_s"]),
        "op_p50_rel": statistics.median(
            statistics.median(x / y for x, y in zip(a["latencies"], b["latencies"]))
            for a, b in passes),
        "op_tail_rel": run_rel if level is None else rel(tail_mean),
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mib": statistics.median(a["peak_rss_mib"] for a, _ in passes),
    }
    raw = {"setup_s": statistics.median(a for a, _ in setups),
           "ref_setup_s": statistics.median(b for _, b in setups)}
    for key, value in (("run_s", lambda p: p["run_s"]), ("cpu_s", lambda p: p["cpu_s"]),
                       ("op_p50_ms", pct(50)),
                       ("op_tail_ms", pct(50) if level is None else tail_mean)):
        scale = 1000 if key.endswith("_ms") else 1
        raw[key] = scale * statistics.median(value(a) for a, _ in passes)
        raw["ref_" + key] = scale * statistics.median(value(b) for _, b in passes)
    notes = {"passes": len(passes), "setup_pairs": len(setups), "tail_percentile": level,
             "tail_ops_beyond": None if level is None else ops - math.ceil(level / 100 * ops),
             "fail_ratio": failed / attempted, "raw": raw}
    return metrics, attempted, failed, notes


def per_layer(passes: list) -> dict:
    """Layer metrics of the traced worker; trace.overhead_s is its run_s minus
    the untraced worker's in the same lockstep pass."""
    out = {}
    for name, _, _ in tracing.PER_LAYER:
        out[name] = statistics.median(t["layers"][name] for _, t in passes)
    out["trace.overhead_s"] = statistics.median(t["run_s"] - p["run_s"] for p, t in passes)
    return out


def tree_sha256(lib: str) -> str:
    """Hash of the groupspec sources under the directory lib."""
    pkg = os.path.join(lib, "groupspec")
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, pkg).encode() + b"\0" + fh.read())
    return h.hexdigest()


def context(workload: str, seed: int, ops: int, repeat_share: float) -> dict:
    head = None
    head_file = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head_file):
        with open(head_file, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", head[5:])
            if os.path.exists(ref):
                with open(ref, encoding="utf-8") as fh:
                    head = fh.read().strip()
    load = [f"{x:.2f}" for x in os.getloadavg()]
    return {"git_sha": head, "src_sha256": tree_sha256(workloads.LIBS["src"])[:16],
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "loadavg": load, "workload": workload, "seed": seed,
            "ops_per_pass": ops, "repeat_share": repeat_share}


def run_workload(workload: str, seed: int, seconds: float, tiny: bool, trace: bool) -> dict:
    ops = workloads.build_ops(workload, seed, tiny)
    ctx = context(workload, seed, len(ops), 1 - len(set(ops)) / len(ops))
    print("# context " + json.dumps(ctx), flush=True)
    passes, setups = run_passes(workload, seed, seconds, tiny, trace, len(ops))
    lib = passes[0][0]
    if trace:
        # both workers run the library, and both are checked
        attempted = sum(p["ops"] for pair in passes for p in pair)
        failed = sum(p["failed"] for pair in passes for p in pair)
        metrics, notes = None, {"passes": len(passes), "fail_ratio": failed / attempted}
    else:
        metrics, attempted, failed, notes = end_to_end(workload, passes, setups)
    print(f"# {workload}: {notes['passes']} lockstep passes x {len(ops)} ops, closed loop, "
          f"one caller; {ctx['repeat_share']:.1%} of ops repeat an earlier op; answers "
          f"checked against recorded digests: {'yes' if lib['golden_checked'] else 'no'}; "
          f"numpy loaded: {'yes' if lib['numpy_loaded'] else 'no'}")
    if metrics is not None:
        for name, unit in END_TO_END:
            print(f"{workload} {name} {metrics[name]:.6g} {unit}")
        if notes["tail_percentile"] is None:
            print(f"# {len(ops)} operations are too few for a tail percentile: "
                  f"op_tail_rel is run_rel")
        else:
            print(f"# op_tail_rel is the ratio of mean latencies at or beyond "
                  f"p{notes['tail_percentile']:g} of {len(ops)} operations "
                  f"({notes['tail_ops_beyond']} beyond it)")
        raw = notes["raw"]
        print("# measured, library / reference, medians: " + "; ".join(
            f"{key} {raw[key]:.4g} / {raw['ref_' + key]:.4g}"
            for key in ("setup_s", "run_s", "cpu_s", "op_p50_ms", "op_tail_ms")))
    print(f"# fail_ratio {notes['fail_ratio']:.6g} ({failed} of {attempted})")
    for f in (f for pair in passes for p in pair for f in p["failures"]):
        print(f"# failed: {json.dumps(f)}")
    layers = None
    if trace:
        layers = per_layer(passes)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, val in layers.items():
            print(f"{workload} {name} {val:.6g} {units[name]}")
    record = {"context": ctx, "trace": trace, "tiny": tiny, "metrics": metrics,
              "layers": layers, "attempted": attempted, "failed": failed, "notes": notes,
              "passes": [[{k: v for k, v in p.items() if k != "digests"} for p in pair]
                         for pair in passes]}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny operation lists, for the self-test")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "groupspec", "__init__.py")):
        print(f"error: no groupspec sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        metadata.version("numpy")
    except metadata.PackageNotFoundError:
        print("error: numpy is not installed", file=sys.stderr)
        return 2
    if tree_sha256(workloads.LIBS["ref"]) != REF_SHA256:
        print("error: perfbench/ref differs from the reference the ratios are defined "
              "against", file=sys.stderr)
        return 2

    def stop(signum, frame):
        raise Stopped(f"stopped by {signal.Signals(signum).name}"
                      + (f" after {DEADLINE_S} s" if signum == signal.SIGALRM else ""))
    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(DEADLINE_S * (len(workloads.WORKLOADS) if args.workload == "all" else 1))
    # Both workers of a pass, and their CLI children, run on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Byte-compile the library, the reference and the benchmark up front, so
    # that neither side compiles source while it is timed, whatever the
    # environment says about writing bytecode.
    for tree in (workloads.LIBS["src"], HERE):
        compileall.compile_dir(tree, quiet=1)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in tracing.PER_LAYER}
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, args.tiny, bool(args.trace))
        except (PassError, Stopped, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        values = rec["layers"] if args.trace else rec["metrics"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, val in values.items():
            metrics[prefix + key] = {"value": val, "unit": units[key]}
        attempted += rec["attempted"]
        failed += rec["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
