"""Digests of every operation's canonical answer for the default seeds,
recorded from the library as it stood when the benchmark was defined. A later
change must reproduce them byte for byte.

    python3 perfbench/golden.py [WORKLOAD ...]   # record them again (overwrites)
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "golden.json")
DEFAULT_SEEDS = range(10)


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(names) -> int:
    import subprocess
    import workloads
    names = names or workloads.WORKLOADS
    out = {k: v for k, v in load().items() if k not in names}
    _write(out)                     # the passes below must not check old digests
    for workload in names:
        out[workload] = {}
        for seed in DEFAULT_SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--t0", str(time.perf_counter())],
                capture_output=True, text=True, check=True, env=workloads.cli_env(
                    workloads.LIBS["src"]), timeout=600)
            res = json.loads(proc.stdout.splitlines()[-1])
            if res["failed"] or None in res["digests"]:
                raise SystemExit(f"{workload} seed {seed}: {res['failures']}")
            out[workload][str(seed)] = res["digests"]
            print(workload, seed, len(res["digests"]), flush=True)
    _write(out)
    return 0


def _write(digests: dict):
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1:]))
