"""Brute-force spectra of the matrix groups and comparison with closed forms.

order_kind selects what is measured per matrix g:

  plain            |g|
  projective       |gZ|
  tau_coset        2 |g g^-T Z|   (order of g tau in the graph coset), with g
                   restricted to the det classes mapping into tau * PSL
  tau_delta_coset  the same value, with g in the classes of tau delta * PSL

Both modes measure a tau wing one way: the projective orders of the images
Y = g g^-T, doubled. A full enumeration measures each distinct Y once: the
images of all blocks are keyed by encode_batch and deduplicated together
(GL_3(5): 1,488,000 g, 88,506 distinct Y). Sampled draws repeat too rarely
for that to pay, so sampling measures the images of each batch as drawn.
When d = gcd(n, q -+ 1) is 1 the tau delta wing is the tau wing and no row
passes the tau delta det-class test, so both modes refuse tau_delta_coset
before enumerating or drawing anything.

Sampling is block organized: the sample count is split into fixed blocks of
65536 draws, each fed from its own spawned SeedSequence stream, so results
are reproducible and independent of the thread count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..arith import DEFAULT_ENUM_BOUND, UsageError
from ..coset import graph_coset
from ..spectra import GroupSpec, divisors, spectrum
from .batch import _require_tables, decode_batch, det_batch, encode_batch
from .groups import enumerate_matrices, make_field, sample_matrices, sampler_name
from .orders import order_bound_fact, orders_batch, tau_images

ORDER_KINDS = ("plain", "projective", "tau_coset", "tau_delta_coset")
BLOCK = 65536

# closed-form comparison target per (family, eps): oracle group, order kind
VERIFY_MAP = {
    ("PSL", 1): ("SL", "projective"),
    ("PGL", 1): ("GL", "projective"),
    ("PSL", -1): ("SU", "projective"),
    ("PGL", -1): ("GU", "projective"),
    ("PSp", 1): ("Sp", "projective"),
    ("Sp", 1): ("Sp", "plain"),
}


def _attained(F, rows, bound, order_kind: str) -> set:
    """The values rows attain: |g|, |gZ|, or for a tau wing, where rows are
    the images Y = g g^-T, the coset orders 2 |Y Z|."""
    vals = np.unique(orders_batch(F, rows, bound, projective=order_kind != "plain"))
    return {(2 if order_kind.startswith("tau") else 1) * int(v) for v in vals}


def _distinct_tau_images(F, mats, n):
    """The distinct Y = g g^-T over all of mats, computed block by block and
    deduplicated across the blocks by their encode_batch keys."""
    keys = [encode_batch(tau_images(F, mats[lo:lo + BLOCK]), F.q)
            for lo in range(0, len(mats), BLOCK)]
    return decode_batch(np.unique(np.concatenate([np.zeros(0, np.int64), *keys])), F.q, n)


def _det_class_mask(F, mats, kind: str, q: int, d: int, order_kind: str):
    """Rows whose coset tau delta^e (P)SL or (P)SU matches the requested wing.

    For GL the determinant exponent is read off the discrete log directly;
    for GU determinants are norm-one elements Lambda^((q-1)e), so the log is
    divided down before reducing mod d = (n, q -+ 1).
    """
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
    tau = order_kind.startswith("tau")
    if tau and kind not in ("GL", "GU"):
        raise UsageError("tau coset orders are measured inside GL or GU")
    d = math.gcd(n, q + 1 if kind == "GU" else q - 1)
    if order_kind == "tau_delta_coset" and d == 1:
        # no row lands in the wing: an enumeration would find it empty and
        # the draw loop would never end
        raise UsageError(f"the tau delta coset of {kind}_{n}({q}) is its tau coset: "
                         f"gcd(n, q {'+' if kind == 'GU' else '-'} 1) = 1")
    start = time.monotonic()
    F = make_field(kind, q)
    attained: set = set()

    if mode == "full":
        # the enumeration checks enum_bound before anything costs time
        F, mats = enumerate_matrices(kind, n, q, enum_bound=enum_bound)
        bound = order_bound_fact(n, F.q, F.p)
        rows = mats
        if tau:
            mats = mats[_det_class_mask(F, mats, kind, q, d, order_kind)]
            rows = _distinct_tau_images(F, mats, n)
        for lo in range(0, len(rows), BLOCK):
            attained |= _attained(F, rows[lo:lo + BLOCK], bound, order_kind)
        used = len(mats)
        sampler = "enumeration"
    else:
        # the samplers would draw with scalar arithmetic before the first
        # kernel refused the field
        _require_tables(F)
        bound = order_bound_fact(n, F.q, F.p)
        blocks = (samples + BLOCK - 1) // BLOCK
        streams = np.random.SeedSequence(seed).spawn(blocks)

        def run_block(i: int) -> set:
            rng = np.random.default_rng(streams[i])
            want = min(BLOCK, samples - i * BLOCK)
            out: set = set()
            got = 0
            while got < want:
                mats = sample_matrices(kind, n, q, want - got, rng, field=F)
                if tau:
                    mats = mats[_det_class_mask(F, mats, kind, q, d, order_kind)]
                if len(mats):
                    out |= _attained(F, tau_images(F, mats) if tau else mats,
                                     bound, order_kind)
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


def _judge(report: dict, formula, missing) -> None:
    """Add to report the attained values outside formula (violations), in
    full mode the values missing() that were never attained, and the verdict."""
    report["violations"] = sorted(v for v in report["attained"] if v not in formula)
    if report["mode"] == "full":
        report["missing"] = sorted(missing())
    failed = report["violations"] or report.get("missing")
    report["verdict"] = "FAIL" if failed else "PASS"


def verify_group(spec: GroupSpec, *, mode: str = "full", samples: int = 100_000,
                 seed: int = 0, enum_bound: int = DEFAULT_ENUM_BOUND,
                 threads: int = 1, order_kind: str | None = None) -> dict:
    """Compare the closed-form spectrum of spec against the matrix oracle.

    order_kind normally comes from the family (projective orders of the
    matrix cover); passing "plain" measures raw matrix orders instead, which
    agrees only when the cover has trivial center.
    """
    target = VERIFY_MAP.get((spec.family, spec.eps))
    if target is None:
        raise UsageError(f"no matrix oracle for family {spec.family}")
    kind, default_kind = target
    order_kind = order_kind or default_kind
    if order_kind not in ("plain", "projective"):
        raise UsageError("group verification uses plain or projective orders")
    # for eps = -1, q is the hermitian base
    report = brute_spectrum(kind, spec.dimension, spec.q, mode=mode,
                            order_kind=order_kind, samples=samples, seed=seed,
                            enum_bound=enum_bound, threads=threads)
    formula = spectrum(spec)
    _judge(report, formula, lambda: formula.all_values()
           - set().union(*map(divisors, report["attained"])))
    report["formula"] = list(formula.generators)
    report["target"] = str(spec)
    return report


def verify_tau_coset(n: int, q: int, *, mode: str = "full",
                     samples: int = 100_000, seed: int = 0,
                     enum_bound: int = DEFAULT_ENUM_BOUND,
                     threads: int = 1) -> dict:
    """Check the graph-coset spectrum formula against measured coset orders."""
    report = brute_spectrum("GL", n, q, mode=mode, order_kind="tau_coset",
                            samples=samples, seed=seed,
                            enum_bound=enum_bound, threads=threads)
    coset = graph_coset(n, q)
    _judge(report, coset, lambda: coset.all_values() - set(report["attained"]))
    report["formula"] = coset.to_jsonable()
    report["target"] = f"tau coset of PSL_{n}({q})"
    return report


def tau_delta_probe(n: int, q: int, *, samples: int = 100_000, seed: int = 0,
                    threads: int = 1) -> dict:
    """Sample the other graph wing tau delta * PSL and look for orders that the
    socle does not have. PASS means such an order was found."""
    socle = spectrum(GroupSpec.from_q("PSL", n, q))
    report = brute_spectrum("GL", n, q, mode="sample",
                            order_kind="tau_delta_coset",
                            samples=samples, seed=seed, threads=threads)
    new = sorted(v for v in report["attained"] if v not in socle)
    report["socle"] = list(socle.generators)
    report["new_values"] = new
    report["verdict"] = "PASS" if new else "FAIL"
    report["target"] = f"tau delta coset of PSL_{n}({q})"
    return report
