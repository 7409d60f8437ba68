"""The four benchmark workloads: seeded operation lists, how each operation is
run, its canonical output, and the checks that need no reference output.

Every workload is a closed loop with one caller: an operation starts only
after the previous one returned. The library sees only the generated inputs.
Nothing here imports groupspec or numpy at module level, so the closed-form
workload can run in a process that never loads numpy.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The library under test, and the frozen reference copy it is timed against:
# the directories that hold each one's groupspec package.
LIBS = {"src": os.path.join(ROOT, "src"), "ref": os.path.join(ROOT, "perfbench", "ref")}
WORKLOADS = ("closed_forms", "oracle_prime", "oracle_ext", "cli_cold")

ODD_Q = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
FIELD_Q = (9, 25, 27, 49, 81, 121, 125, 243, 343, 625, 729)

# Large-n queries, 0.07 s to 1.2 s each: the same list for every seed, so that
# the seed moves which small queries run but not how long the tail takes.
# There are more of them than the ten operations beyond op_tail_ms's
# percentile, so that percentile falls in this tail.
CLOSED_TAIL = (
    ("PSL", 39, 3, 1), ("PSL", 33, 3, -1), ("PSL", 30, 3, 1), ("PGL", 32, 3, 1),
    ("PGL", 28, 5, 1), ("Sp", 20, 3, 1), ("Sp", 17, 3, 1), ("PSp", 17, 5, 1),
    ("OmegaOdd", 21, 3, 1), ("OmegaOdd", 16, 3, 1), ("OmegaEven", 23, 5, -1),
    ("POmegaEven", 23, 3, 1),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


# ---------------------------------------------------------------------------
# closed_forms


SPECTRUM_N = {"PSL": range(2, 15), "PGL": range(2, 15), "Sp": range(1, 11),
              "PSp": range(1, 11), "OmegaOdd": range(1, 11), "OmegaEven": range(2, 11),
              "POmegaEven": range(2, 11)}


def _spread(rng: random.Random, values, count: int) -> list:
    """count draws in which every value occurs equally often (give or take
    one), in a seeded order: the seed moves which query gets which value,
    while the mix of values, and so the work, stays the same."""
    out: list = []
    while len(out) < count:
        out += rng.sample(values, len(values))
    return out[:count]


def _closed_ops(seed: int, tiny: bool) -> list:
    """Three spectrum queries for every (family, small n), five graph-coset and
    five tau queries for every n in 3..10, seven admissibility queries for
    every n in 3..8, with q spread evenly over each kind's field sizes and a
    seeded sign. Then the large-n tail. Repeated queries are only those the
    draws happen to repeat."""
    rng = _rng("closed_forms", seed)
    ops: list = []
    for fam, ns in SPECTRUM_N.items():
        signed = fam in ("PSL", "PGL", "OmegaEven", "POmegaEven")
        strata = list(ns) * 3
        for n, q in zip(strata, _spread(rng, ODD_Q[:12], len(strata))):
            ops.append(("spectrum", fam, n, q, rng.choice((1, -1)) if signed else 1))
    for kind, ns, per, qs in (("graph_coset", range(3, 11), 5, ODD_Q),
                              ("tau", range(3, 11), 5, ODD_Q),
                              ("admissible", range(3, 9), 7, ODD_Q + FIELD_Q)):
        strata = list(ns) * per
        for n, q in zip(strata, _spread(rng, qs, len(strata))):
            ops.append((kind, n, q, rng.choice((1, -1))))
    if tiny:
        ops = rng.sample(ops, 12)
    else:
        ops.extend(("spectrum",) + t for t in CLOSED_TAIL)
    rng.shuffle(ops)
    return ops


def _spectrum_fn(family: str):
    from groupspec import spectra
    if family in ("PSL", "PGL"):
        return spectra.spectrum_linear
    if family in ("Sp", "PSp", "OmegaOdd"):
        return spectra.spectrum_symplectic
    return spectra.spectrum_orthogonal_semisimple


def _closed_run(op):
    from groupspec.coset import extension_spectrum, graph_coset, is_unsupported, tau_criterion
    from groupspec.outer import admissible_generators
    from groupspec.spectra import GroupSpec
    kind = op[0]
    if kind == "spectrum":
        _, fam, n, q, eps = op
        return list(_spectrum_fn(fam)(GroupSpec.from_q(fam, n, q, eps)).generators)
    if kind == "graph_coset":
        _, n, q, _ = op
        return list(graph_coset(n, q).maximal_elements())
    if kind == "tau":
        _, n, q, eps = op
        res = tau_criterion(n, q, eps)
        return {"verdict": res.verdict, "case": res.case, "witness": res.witness,
                "triggered": [list(t) for t in res.triggered]}
    _, n, q, eps = op
    rep = admissible_generators(GroupSpec.from_q("PSL", n, q, eps))
    ext = {}
    for g in rep.generators:
        spec = extension_spectrum(g)
        ext[str(g)] = None if is_unsupported(spec) else list(spec.maximal_elements())
    return {"generators": [str(g) for g in rep.generators], "rows": list(rep.rows),
            "class_total": rep.class_total, "class_nontrivial": rep.class_nontrivial,
            "tau": rep.tau.verdict, "extensions": ext}


def group_order(family: str, n: int, q: int, eps: int) -> int:
    """Order of the group whose element orders the closed form lists (for the
    even orthogonal p'-part, of Omega)."""
    if family in ("PSL", "PGL"):
        sl = q ** (n * (n - 1) // 2) * math.prod(q ** i - eps ** i for i in range(2, n + 1))
        return sl // math.gcd(n, q - eps) if family == "PSL" else sl
    if family in ("Sp", "PSp", "OmegaOdd"):
        sp = q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))
        return sp if family == "Sp" else sp // 2
    so = q ** (n * (n - 1)) * (q ** n - eps) * math.prod(q ** (2 * i) - 1 for i in range(1, n))
    return so // 2


def _closed_check(op, out) -> bool:
    from groupspec.coset import graph_coset
    from groupspec.spectra import GroupSpec, Spectrum, spectrum_linear
    kind = op[0]
    if kind == "spectrum":
        _, fam, n, q, eps = op
        Spectrum(tuple(out))                       # raises unless a descending antichain
        order = group_order(fam, n, q, eps)
        return bool(out) and all(order % g == 0 for g in out)
    if kind == "graph_coset":
        _, n, q, _ = op
        coset = graph_coset(n, q)
        return bool(out) and all(coset.membership(v) for v in out)
    _, n, q, eps = op
    socle = spectrum_linear(GroupSpec.from_q("PSL", n, q, eps))
    if kind == "tau":
        coset = graph_coset(n, q)
        if out["verdict"] == "witness":
            # every witness lies in the coset and outside the socle
            return bool(out["triggered"]) and all(
                v in coset and v not in socle for _, v in out["triggered"])
        return out["verdict"] == "equal" and all(
            v in socle for v in coset.maximal_elements())
    # an admissible extension keeps the socle spectrum
    return all(maxima is not None and all(v in socle for v in maxima)
               for maxima in out["extensions"].values())


# ---------------------------------------------------------------------------
# oracle_prime and oracle_ext


# Every oracle operation is short (0.01 s to 0.35 s), so that run.py can
# interleave the library under test with the reference copy finely; a single
# multi-second operation would be timed at one host speed and its reference
# at another.


def _oracle_prime_ops(seed: int, tiny: bool) -> list:
    rng = _rng("oracle_prime", seed)
    samples, rounds = (256, 1) if tiny else (4096, 3)
    ops = []
    for fam, n, q in (("PSL", 4, 3), ("PGL", 4, 3), ("PSL", 5, 3), ("PGL", 5, 3),
                      ("PSL", 4, 5), ("PGL", 4, 5)):
        for _ in range(rounds):
            ops.append(("verify", fam, n, q, 1, "sample", samples, rng.randrange(2 ** 31)))
    for _ in range(rounds):
        ops.append(("verify_tau", 4, 3, "sample", samples, rng.randrange(2 ** 31)))
    # full enumerations: SL_3(3), GL_3(3), GL_2(13), SL_2(23) and the GL_3(3) tau coset
    fulls = [("PSL", 3, 3)] if tiny else [("PSL", 3, 3), ("PGL", 3, 3), ("PGL", 2, 13),
                                          ("PSL", 2, 23)]
    ops += [("verify", fam, n, q, 1, "full", 0, 0) for fam, n, q in fulls]
    ops.append(("verify_tau", 3, 3, "full", 0, 0))
    rng.shuffle(ops)
    return ops


def _oracle_ext_ops(seed: int, tiny: bool) -> list:
    rng = _rng("oracle_ext", seed)
    scale, rounds = (16, 1) if tiny else (1, 3)
    ops = []
    for fam, n, q, eps, samples in (("PSL", 3, 9, 1, 4096), ("PSL", 3, 3, -1, 2048),
                                    ("PSL", 3, 5, -1, 64), ("PSL", 4, 3, -1, 64),
                                    ("PSp", 2, 5, 1, 512), ("PSp", 3, 3, 1, 256)):
        for _ in range(rounds):
            ops.append(("verify", fam, n, q, eps, "sample", max(4, samples // scale),
                        rng.randrange(2 ** 31)))
    ops += [("witness", 3, 5), ("witness", 4, 5)]
    for _ in range(2 if tiny else 8):
        ops.append(("gamma", tuple(_gl3_mod3(rng.randrange(2 ** 31), 32))))
    rng.shuffle(ops)
    return ops


def _det3(g) -> int:
    return (g[0] * (g[4] * g[8] - g[5] * g[7]) - g[1] * (g[3] * g[8] - g[5] * g[6])
            + g[2] * (g[3] * g[7] - g[4] * g[6])) % 3


def _gamma_image(g) -> tuple:
    """g g^-T over F_3 for g in GL_3(3), both as row-major 9-tuples."""
    d = _det3(g)                                     # d^-1 = d in F_3
    cof = [g[3 * ((r + 1) % 3) + (c + 1) % 3] * g[3 * ((r + 2) % 3) + (c + 2) % 3]
           - g[3 * ((r + 1) % 3) + (c + 2) % 3] * g[3 * ((r + 2) % 3) + (c + 1) % 3]
           for r in range(3) for c in range(3)]      # g^-T = d * cof
    return tuple(sum(g[3 * i + j] * cof[3 * j + k] for j in range(3)) * d % 3
                 for i in range(3) for k in range(3))


def _gl3_mod3(seed: int, count: int) -> list:
    """count seeded matrices of GL_3(3), every other one of the form g g^-T,
    built with plain integer arithmetic rather than the oracle."""
    rng = random.Random(seed)
    out: list = []
    while len(out) < count:
        g = tuple(rng.randrange(3) for _ in range(9))
        if _det3(g):
            out.append(_gamma_image(g) if len(out) % 2 == 0 else g)
    return out


def gl3_mod3_coset_image() -> set:
    """Every g g^-T with g in GL_3(3)."""
    import itertools
    return {_gamma_image(g) for g in itertools.product(range(3), repeat=9) if _det3(g)}


def _oracle_run(op):
    from groupspec.spectra import GroupSpec
    kind = op[0]
    if kind == "verify":
        from groupspec.oracle.spectrum import verify_group
        _, fam, n, q, eps, mode, samples, seed = op
        rep = verify_group(GroupSpec.from_q(fam, n, q, eps), mode=mode,
                           **({"samples": samples, "seed": seed} if mode == "sample" else {}))
    elif kind == "verify_tau":
        from groupspec.oracle.spectrum import verify_tau_coset
        _, n, q, mode, samples, seed = op
        rep = verify_tau_coset(n, q, mode=mode,
                               **({"samples": samples, "seed": seed} if mode == "sample" else {}))
    elif kind == "witness":
        from groupspec.oracle.witness import witness_report
        return witness_report(GroupSpec.from_q("PSL", op[1], op[2]))
    else:
        from groupspec.oracle.field import FiniteField
        from groupspec.oracle.wall import gamma_membership
        _, mats, arrays = op
        F = FiniteField(3)
        return [[list(h), bool(gamma_membership(F, a))] for h, a in zip(mats, arrays)]
    rep.pop("elapsed_s", None)
    return rep


def _oracle_check(op, out, image) -> bool:
    kind = op[0]
    if kind in ("verify", "verify_tau"):
        return out["verdict"] == "PASS" and not out["violations"] and not out.get("missing")
    if kind == "witness":
        return bool(out) and all(r["status"] == "ok" and r["order"] == r["target"] for r in out)
    # Wall membership equals membership in the image of g -> g g^-T
    return len(out) == len(op[1]) and all(member == (tuple(h) in image) for h, member in out)


# ---------------------------------------------------------------------------
# cli_cold

CLI_GROUPS = ("PSL(3,3)", "PSL(3,5)", "PSL(4,3)", "PSU(3,3)", "PSU(4,3)", "PGL(3,7)",
              "PSL(3,9)", "PSL(4,5)", "Sp(4,3)", "PSp(6,5)", "OmegaOdd(7,3)",
              "Omega-(8,3)", "POmega+(8,5)")
CLI_LINEAR = ("PSL(3,3)", "PSL(3,5)", "PSL(4,3)", "PSU(3,3)", "PSU(4,3)", "PSL(3,7)",
              "PSL(4,25)", "PSU(3,9)", "PSL(5,3)", "PSL(3,343)")
CLI_COSET = (("PSL(3,3)",), ("PSL(3,5)",), ("PSL(4,3)",), ("PGL(4,3)",), ("PSL(5,3)",),
             ("PSU(3,9)", "--generator", "f"), ("PSL(4,25)", "--generator", "f t"),
             ("PSL(3,343)", "--field-k", "3"))


def _cli_ops(seed: int, tiny: bool) -> list:
    rng = _rng("cli_cold", seed)
    per = 1 if tiny else 9
    ops = [(("spectrum", g), 0) for g in _spread(rng, CLI_GROUPS, per + 1)]
    ops += [(("coset-spectrum",) + c, 0) for c in _spread(rng, CLI_COSET, per)]
    ops += [(("tau-test", g), 0) for g in _spread(rng, CLI_LINEAR, per)]
    ops += [(("admissible", g), 0) for g in _spread(rng, CLI_LINEAR, per)]
    # one fixed full enumeration: it sets the peak memory of the workload
    ops.append((("verify", "PSU(3,3)", "--mode", "full"), 0))
    g = _gl3_mod3(rng.randrange(2 ** 31), 1)[0]
    ops.append((("gamma-check", "--q", "3", ";".join(
        ",".join(map(str, g[3 * r:3 * r + 3])) for r in range(3))), 0))
    # enumerating q^(n^2) candidate matrices must stop at the bound with code 3
    ops.append((("verify", rng.choice(("PSL(4,5)", "PGL(4,7)", "PSL(5,3)")),
                 "--mode", "full"), 3))
    rng.shuffle(ops)
    return ops


def cli_env(lib: str) -> dict:
    """Environment of a worker or CLI child: groupspec imported from the
    directory lib, numpy's thread pools held to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GROUPSPEC_")}
    env["PYTHONPATH"] = lib
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cli_call(argv, lib: str, prefix=()) -> dict:
    """Run one CLI command in a fresh interpreter, with groupspec imported
    from the directory lib, and wait for it."""
    proc = subprocess.run([sys.executable, *prefix, *argv], capture_output=True,
                          env=cli_env(lib), cwd=ROOT, timeout=120)
    return {"code": proc.returncode, "stdout": proc.stdout.decode(),
            "stderr": proc.stderr.decode()}


def _cli_check(op, out) -> bool:
    argv, want = op
    if out["code"] != want:
        return False
    if want == 0:
        payload = json.loads(out["stdout"])
        return argv[0] != "verify" or payload["verdict"] == "PASS"
    return out["stdout"] == "" and "bound" in out["stderr"]


def runner(workload: str):
    """run(prepare(op)) -> answer, for the in-process workloads."""
    return {"closed_forms": _closed_run, "cli_cold": None}.get(workload, _oracle_run)


def prepare(op):
    """What run() takes for op, made before the timed loop: the op itself, or
    for a gamma op its matrices also as numpy arrays, so that only the library
    calls are timed."""
    if op[0] != "gamma":
        return op
    import numpy as np
    return op + (tuple(np.array(h, np.int16).reshape(3, 3) for h in op[1]),)


def checker(workload: str):
    """check(op, answer) -> bool. On oracle_ext this builds the reference image
    of GL_3(3), so it is called after the timed loop."""
    if workload == "closed_forms":
        return _closed_check
    if workload == "cli_cold":
        return _cli_check
    image = gl3_mod3_coset_image() if workload == "oracle_ext" else None
    return lambda op, out: _oracle_check(op, out, image)


def build_ops(workload: str, seed: int, tiny: bool = False) -> list:
    return {"closed_forms": _closed_ops, "oracle_prime": _oracle_prime_ops,
            "oracle_ext": _oracle_ext_ops, "cli_cold": _cli_ops}[workload](seed, tiny)


def output_of(workload: str, out) -> str:
    """Canonical bytes of one operation's answer, compared against the golden
    digests. For the CLI it is the exit code and stdout."""
    if workload == "cli_cold":
        return canonical([out["code"], out["stdout"]])
    return canonical(out)
