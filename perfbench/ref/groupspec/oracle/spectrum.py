"""Brute-force spectra of the matrix groups and comparison with closed forms.

order_kind selects what is measured per matrix g:

  plain            |g|
  projective       |gZ|
  tau_coset        2 |g g^-T Z|   (order of g tau in the graph coset), with g
                   restricted to the det classes mapping into tau * PSL
  tau_delta_coset  the same value, with g in the classes of tau delta * PSL

Sampling is block organized: the sample count is split into fixed blocks of
65536 draws, each fed from its own spawned SeedSequence stream, so results
are reproducible and independent of the thread count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..arith import UsageError
from ..coset import CosetSpectrum, graph_coset
from ..spectra import (GroupSpec, Spectrum, spectrum_linear,
                       spectrum_symplectic)
from .batch import det_batch
from .groups import (DEFAULT_ENUM_BOUND, enumerate_matrices, group_order,
                     make_field, sample_matrices, sampler_name)
from .orders import (order_bound_fact, orders_batch, tau_coset_orders_batch)

ORDER_KINDS = ("plain", "projective", "tau_coset", "tau_delta_coset")
BLOCK = 65536

# closed-form comparison target per (family): oracle group, order kind
VERIFY_MAP = {
    "PSL": ("SL", "projective"),
    "PGL": ("GL", "projective"),
    "PSU": ("SU", "projective"),
    "PGU": ("GU", "projective"),
    "PSp": ("Sp", "projective"),
    "Sp": ("Sp", "plain"),
}


def _values_batch(F, mats, bound, order_kind, n, q):
    if order_kind == "plain":
        return orders_batch(F, mats, bound)
    if order_kind == "projective":
        return orders_batch(F, mats, bound, projective=True)
    return tau_coset_orders_batch(F, mats, bound)


def _det_class_mask(F, mats, kind: str, n: int, q: int, order_kind: str):
    """Rows whose coset tau delta^e (P)SL or (P)SU matches the requested wing.

    For GL the determinant exponent is read off the discrete log directly;
    for GU determinants are norm-one elements Lambda^((q-1)e), so the log is
    divided down before reducing mod d = (n, q -+ 1).
    """
    d = math.gcd(n, q + 1 if kind == "GU" else q - 1)
    if order_kind == "tau_coset" and d == 1:
        return np.ones(len(mats), bool)
    det = det_batch(F, mats)
    e = F.LOG[det]
    if kind == "GU":
        e = e // (q - 1)
    want = 0 if order_kind == "tau_coset" else 1
    return (e % d) == want


def brute_spectrum(kind: str, n: int, q: int, *,
                   mode: str = "full",
                   order_kind: str = "plain",
                   samples: int = 100_000,
                   seed: int = 0,
                   enum_bound: int = DEFAULT_ENUM_BOUND,
                   threads: int = 1) -> dict:
    """Attained value set of a matrix group, by full enumeration or sampling."""
    if mode not in ("full", "sample"):
        raise UsageError("mode must be 'full' or 'sample'")
    if order_kind not in ORDER_KINDS:
        raise UsageError(f"unknown order kind {order_kind!r}")
    if order_kind.startswith("tau") and kind not in ("GL", "GU"):
        raise UsageError("tau coset orders are measured inside GL or GU")
    start = time.monotonic()
    F = make_field(kind, q)
    bound = order_bound_fact(n, F.q, F.p)
    attained: set = set()

    if mode == "full":
        F, mats = enumerate_matrices(kind, n, q, enum_bound=enum_bound, seed=seed)
        if order_kind.startswith("tau"):
            mats = mats[_det_class_mask(F, mats, kind, n, q, order_kind)]
        for lo in range(0, len(mats), BLOCK):
            vals = _values_batch(F, mats[lo:lo + BLOCK], bound, order_kind, n, q)
            attained.update(int(v) for v in np.unique(vals))
        used = len(mats)
        sampler = "enumeration"
    else:
        blocks = (samples + BLOCK - 1) // BLOCK
        streams = np.random.SeedSequence(seed).spawn(blocks)

        def run_block(i: int) -> set:
            rng = np.random.default_rng(streams[i])
            want = min(BLOCK, samples - i * BLOCK)
            out: set = set()
            got = 0
            while got < want:
                mats = sample_matrices(kind, n, q, want - got, rng, field=F)
                if order_kind.startswith("tau"):
                    mats = mats[_det_class_mask(F, mats, kind, n, q, order_kind)]
                if len(mats):
                    vals = _values_batch(F, mats, bound, order_kind, n, q)
                    out.update(int(v) for v in np.unique(vals))
                got += len(mats)
            return out

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for part in pool.map(run_block, range(blocks)):
                    attained |= part
        else:
            for i in range(blocks):
                attained |= run_block(i)
        used = samples
        sampler = sampler_name(kind, n, q)

    return {
        "group": f"{kind}_{n}({q})",
        "kind": kind, "n": n, "q": q,
        "mode": mode, "order_kind": order_kind,
        "samples": used, "seed": seed, "threads": threads,
        "sampler": sampler,
        "attained": sorted(attained),
        "elapsed_s": round(time.monotonic() - start, 3),
    }


def _closure(values) -> set:
    out: set = set()
    for v in values:
        for d in range(1, int(math.isqrt(v)) + 1):
            if v % d == 0:
                out.add(d)
                out.add(v // d)
    return out


def verify_group(spec: GroupSpec, *, mode: str = "full", samples: int = 100_000,
                 seed: int = 0, enum_bound: int = DEFAULT_ENUM_BOUND,
                 threads: int = 1, order_kind: str | None = None) -> dict:
    """Compare the closed-form spectrum of spec against the matrix oracle.

    order_kind normally comes from the family (projective orders of the
    matrix cover); passing "plain" measures raw matrix orders instead, which
    agrees only when the cover has trivial center.
    """
    if spec.family in ("PSL", "PGL"):
        fam = ("PSU" if spec.family == "PSL" else "PGU") if spec.eps == -1 else spec.family
        formula = spectrum_linear(spec)
        n, q = spec.n, spec.q               # for eps = -1, q is the hermitian base
    elif spec.family in ("Sp", "PSp"):
        fam = spec.family
        formula = spectrum_symplectic(spec)
        n, q = 2 * spec.n, spec.q
    else:
        raise UsageError(f"no matrix oracle for family {spec.family}")
    kind, default_kind = VERIFY_MAP[fam]
    order_kind = order_kind or default_kind
    if order_kind not in ("plain", "projective"):
        raise UsageError("group verification uses plain or projective orders")

    report = brute_spectrum(kind, n, q, mode=mode, order_kind=order_kind,
                            samples=samples, seed=seed,
                            enum_bound=enum_bound, threads=threads)
    attained = set(report["attained"])
    violations = sorted(v for v in attained if v not in formula)
    if mode == "full":
        missing = sorted(formula.all_values() - _closure(attained))
        verdict = "PASS" if not violations and not missing else "FAIL"
        report["missing"] = missing
    else:
        verdict = "PASS" if not violations else "FAIL"
    report["formula"] = list(formula.generators)
    report["violations"] = violations
    report["verdict"] = verdict
    report["target"] = str(spec)
    return report


def verify_tau_coset(n: int, q: int, *, mode: str = "full",
                     samples: int = 100_000, seed: int = 0,
                     enum_bound: int = DEFAULT_ENUM_BOUND,
                     threads: int = 1) -> dict:
    """Check the graph-coset spectrum formula against measured coset orders."""
    coset = graph_coset(n, q)
    report = brute_spectrum("GL", n, q, mode=mode, order_kind="tau_coset",
                            samples=samples, seed=seed,
                            enum_bound=enum_bound, threads=threads)
    attained = set(report["attained"])
    violations = sorted(v for v in attained if v not in coset)
    if mode == "full":
        missing = sorted(coset.all_values() - attained)
        verdict = "PASS" if not violations and not missing else "FAIL"
        report["missing"] = missing
    else:
        verdict = "PASS" if not violations else "FAIL"
    report["formula"] = coset.to_jsonable()
    report["violations"] = violations
    report["verdict"] = verdict
    report["target"] = f"tau coset of PSL_{n}({q})"
    return report


def tau_delta_probe(n: int, q: int, *, samples: int = 100_000, seed: int = 0,
                    threads: int = 1) -> dict:
    """Sample the other graph wing tau delta * PSL and look for orders that the
    socle does not have. PASS means such an order was found."""
    spec = GroupSpec.from_q("PSL", n, q)
    socle = spectrum_linear(spec)
    report = brute_spectrum("GL", n, q, mode="sample",
                            order_kind="tau_delta_coset",
                            samples=samples, seed=seed, threads=threads)
    new = sorted(v for v in report["attained"] if v not in socle)
    report["socle"] = list(socle.generators)
    report["new_values"] = new
    report["verdict"] = "PASS" if new else "FAIL"
    report["target"] = f"tau delta coset of PSL_{n}({q})"
    return report
