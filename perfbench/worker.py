"""One pass of one workload, in a fresh interpreter: set up, run the seeded
operation list in a closed loop, then check every answer.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T [--lib src|ref]
                                [--tiny] [--trace DIR] [--serve]

--lib picks the library: src/groupspec (the default) or the frozen reference
copy in perfbench/ref. T is the caller's time.perf_counter() just before it
started this process (the same system-wide monotonic clock on Linux), so
setup_s covers the interpreter start. Without --serve the worker runs every
operation in order and prints one JSON object. With --serve it runs the
operations its caller names on stdin (see serve), which is how run.py runs two
workers in lockstep. The reference is not checked: it is the library as it
stood when the benchmark was defined.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

sys.path.insert(1, workloads.LIBS[sys.argv[sys.argv.index("--lib") + 1]
                                  if "--lib" in sys.argv[:-1] else "src"])

import golden  # noqa: E402
import tracer as tracing  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _warm_up(workload: str):
    """One untimed call per touched module: builds the factorization sieve,
    the field tables and numpy's lazy state."""
    from groupspec import arith
    arith.factorize(2 * 3 * 5 * 7 * 1009)
    if workload == "closed_forms":
        from groupspec import coset, outer, spectra
        spectra.normalize([12, 8, 6])
        coset.tau_criterion(3, 53, 1)     # q outside every workload's draws
        outer.out_elements(1, 3, 3, 1)
        return
    import numpy as np
    from groupspec.oracle import batch, field, groups, orders, spectrum, wall, witness  # noqa: F401
    F = field.FiniteField(3, 2)
    eye = batch.identity_batch(F, 2, 2)
    batch.det_inv_batch(F, batch.mat_mul(F, eye, eye))
    orders.orders_batch(F, eye, orders.order_bound_fact(2, F.q, F.p))
    groups.sample_matrices("GL", 2, 3, 4, np.random.default_rng(0))
    wall.gamma_membership(field.FiniteField(3), np.eye(2, dtype=np.int16))


# --- cli_cold ------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_times(stderr: str):
    """(groupspec import seconds excluding numpy, numpy import seconds) from
    the -X importtime lines of one process."""
    gs = npy = 0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        cum, depth, name = int(m.group(2)), (len(m.group(3)) - 1) // 2, m.group(4)
        if depth == 0 and name.split(".")[0] == "groupspec":
            gs += cum
        elif name == "numpy":
            npy += cum
    return (gs - npy) / 1e6, npy / 1e6


def _cpu_s() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cli_layer_metrics(cli: dict, lib_dir: str) -> dict:
    """Per-call medians; interp_s is a bare interpreter start in this pass."""
    bare = []
    for _ in range(3):
        t = time.perf_counter()
        workloads.cli_call([], lib_dir, ("-c", "pass"))
        bare.append(time.perf_counter() - t)
    interp = statistics.median(bare)
    mains = [c - interp - i - n for c, i, n in zip(cli["call"], cli["import"], cli["numpy"])]
    return {"cli.interp_s": interp, "cli.import_s": statistics.median(cli["import"]),
            "cli.numpy_import_s": statistics.median(cli["numpy"]),
            "cli.main_s": statistics.median(mains), "cli.calls": len(cli["call"])}


# --- one pass --------------------------------------------------------------------


class Pass:
    """One pass of one workload: sets up when made, then op(k) runs operation
    k and finish() checks the answers.

    With spans_dir the pass is traced: layer spans and counts are recorded
    (for cli_cold, in each CLI child) and span files written there.
    """

    def __init__(self, workload: str, seed: int, t0: float, tiny: bool = False,
                 spans_dir: str | None = None, lib: str = "src"):
        self.workload, self.seed, self.tiny, self.spans_dir = workload, seed, tiny, spans_dir
        self.lib_dir = workloads.LIBS[lib]
        self.tracer = None
        if spans_dir is not None and workload != "cli_cold":
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        if workload == "cli_cold":
            workloads.cli_call(["spectrum", "PSL(2,3)"], self.lib_dir, ("-m", "groupspec.cli"))
        else:
            _warm_up(workload)
        self.run = workloads.runner(workload)
        self.ops = workloads.build_ops(workload, seed, tiny)
        self.inputs = [workloads.prepare(op) for op in self.ops]
        self.outs: dict = {}                 # k -> (answer, error)
        self.wall: dict = {}
        self.cpu: dict = {}
        self.raws: list = []
        self.cli: dict = {"import": [], "numpy": [], "call": []}
        self.setup_s = time.perf_counter() - t0

    def op(self, k: int) -> tuple:
        """Run operation k; returns its wall and CPU seconds."""
        traced = self.spans_dir is not None
        cpu0, t = _cpu_s(), time.perf_counter()
        if self.workload == "cli_cold":
            argv = self.ops[k][0]
            if traced:
                path = os.path.join(self.spans_dir, f"cli-{os.getpid()}-{k}.json")
                os.environ["PERFBENCH_TRACE_OUT"] = path
                prefix = ("-X", "importtime", os.path.join(HERE, "cli_child.py"))
            else:
                prefix = ("-m", "groupspec.cli")
            out = (workloads.cli_call(argv, self.lib_dir, prefix), None)
        else:
            try:
                out = (self.run(self.inputs[k]), None)
            except Exception as exc:          # a raising operation is a failed one
                out = (None, repr(exc))
        wall, cpu = time.perf_counter() - t, _cpu_s() - cpu0
        self.outs[k], self.wall[k], self.cpu[k] = out, wall, cpu
        if traced and self.workload == "cli_cold":
            with open(path, encoding="utf-8") as fh:
                self.raws.append(json.load(fh))
            os.remove(path)
            imp, npy = import_times(out[0]["stderr"])
            self.cli["import"].append(imp)
            self.cli["numpy"].append(npy)
            self.cli["call"].append(wall)
        return wall, cpu

    def finish(self, mutate=None, check: bool = True) -> dict:
        """The pass's result. With check, every answer is checked (mutate(op,
        answer) -> answer, when given, alters answers first; the self-test uses
        it to show that a wrong answer is caught)."""
        done = sorted(self.outs)
        who = resource.RUSAGE_CHILDREN if self.workload == "cli_cold" else resource.RUSAGE_SELF
        peak_kib = resource.getrusage(who).ru_maxrss
        layers = None
        if self.tracer is not None:
            layers = tracing.layer_metrics(self.tracer.raw())
            self.tracer.write_spans(os.path.join(
                self.spans_dir, f"{self.workload}-{self.seed}-{os.getpid()}.json"))
        elif self.spans_dir is not None and self.raws:
            layers = tracing.layer_metrics(tracing.merge_raw(self.raws))
            layers.update(cli_layer_metrics(self.cli, self.lib_dir))

        digests, failures, want = [], [], None
        if check and done:
            check_op = workloads.checker(self.workload)
            if not self.tiny:
                want = golden.load().get(self.workload, {}).get(str(self.seed))
            for k in done:
                op, (out, err) = self.ops[k], self.outs[k]
                if mutate is not None and err is None:
                    out = mutate(op, out)
                if err is None:
                    digests.append(digest(workloads.output_of(self.workload, out)))
                    try:
                        if not check_op(op, out):
                            err = "check failed"
                        elif want is not None and digests[-1] != want[k]:
                            err = "output differs from the recorded one"
                    except Exception as exc:
                        err = f"check raised {exc!r}"
                else:
                    digests.append(None)
                if err is not None:
                    failures.append({"op": list(op), "error": err})

        return {
            "workload": self.workload, "seed": self.seed, "ops": len(done),
            "setup_s": self.setup_s, "run_s": sum(self.wall.values()),
            "cpu_s": sum(self.cpu.values()),
            "latencies": [self.wall[k] for k in done], "cpu": [self.cpu[k] for k in done],
            "peak_rss_mib": peak_kib / 1024,
            "failed": len(failures), "failures": failures[:5], "digests": digests,
            "golden_checked": want is not None,
            "numpy_loaded": "numpy" in sys.modules, "layers": layers,
        }


def run_pass(workload: str, seed: int, t0: float, tiny: bool = False,
             spans_dir: str | None = None, mutate=None, lib: str = "src") -> dict:
    """Set up, run every operation in order, then check the answers."""
    p = Pass(workload, seed, t0, tiny, spans_dir, lib)
    for k in range(len(p.ops)):
        p.op(k)
    return p.finish(mutate)


def serve(p: Pass, check: bool):
    """The lockstep protocol: report set-up, then run the operations the
    caller names on stdin, one a line, answering each with its wall and CPU
    seconds; on "end" (or when stdin closes) print the result and return.
    Anything the library prints goes to stderr, so it cannot break the
    protocol."""
    out, sys.stdout = sys.stdout, sys.stderr
    out.write(json.dumps({"setup_s": p.setup_s}) + "\n")
    out.flush()
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "end":
            break
        wall, cpu = p.op(int(cmd))
        out.write(f"{wall!r} {cpu!r}\n")
        out.flush()
    out.write(json.dumps(p.finish(check=check)) + "\n")
    out.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--lib", choices=tuple(workloads.LIBS), default="src")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", default=None, help="directory for the span files")
    ap.add_argument("--serve", action="store_true")
    args = ap.parse_args(argv)
    if args.serve:
        serve(Pass(args.workload, args.seed, args.t0, args.tiny, args.trace, args.lib),
              check=args.lib == "src")
    else:
        print(json.dumps(run_pass(args.workload, args.seed, args.t0, args.tiny, args.trace,
                                  lib=args.lib)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
