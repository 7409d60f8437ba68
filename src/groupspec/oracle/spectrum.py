"""Brute-force spectra of the matrix groups and comparison with closed forms.

order_kind selects what is measured per matrix g:

  plain            |g|
  projective       |gZ|
  tau_coset        2 |g g^-T Z|   (order of g tau in the graph coset), with g
                   restricted to the det classes mapping into tau * PSL
  tau_delta_coset  the same value, with g in the classes of tau delta * PSL

verify_group runs all four kinds: the refusals of oracle.verify_request
first, then the closed form, and only then brute_spectrum and the verdict.

Both modes measure a tau wing one way: the projective orders of the images
Y = g g^-T, doubled. A full enumeration measures each distinct Y once: the
images of all blocks are keyed by encode_batch and deduplicated together
(GL_3(5): 1,488,000 g, 88,506 distinct Y). Sampled draws repeat too rarely
for that to pay, so sampling measures every draw that lies in the wing. A
block refills until it holds its count of such draws (a det-class mask
keeps about 1/d of each refill) and then measures them in one tau_images
and one order pass; GL's rejection sampler hands over the determinants it
found, so a GL draw is eliminated twice, once for its determinant and once
for its inverse, and GU draws take one det_batch per refill.

Sampling is block organized: the sample count is split into fixed blocks of
65536 draws, each fed from its own spawned SeedSequence stream, so results
are reproducible and independent of the thread count.
"""

from __future__ import annotations

import numpy as np

from ..arith import DEFAULT_ENUM_BOUND
from ..coset import graph_coset
from ..spectra import GroupSpec, divisors, spectrum
from . import brute_request, verify_request
from .batch import decode_batch, det_batch, encode_batch
from .groups import (_sample_linear, enumerate_matrices, make_field, sample_matrices,
                     sampler_name)
from .orders import order_bound_fact, orders_batch, tau_images

BLOCK = 65536


def _attained(F, rows, bound, order_kind: str) -> set:
    """The values rows attain: |g|, |gZ|, or for a tau wing, where rows are
    the images Y = g g^-T, the coset orders 2 |Y Z|."""
    # not np.unique, which imports numpy.ma on numpy >= 2.3; a set also takes
    # the object orders of a bound past int64
    vals = set(orders_batch(F, rows, bound, projective=order_kind != "plain").tolist())
    return {(2 if order_kind.startswith("tau") else 1) * v for v in vals}


def _distinct_tau_images(F, mats, n):
    """The distinct Y = g g^-T over all of mats, computed block by block and
    deduplicated across the blocks by their encode_batch keys."""
    keys = [encode_batch(tau_images(F, mats[lo:lo + BLOCK]), F.q)
            for lo in range(0, len(mats), BLOCK)]
    keys = np.sort(np.concatenate([np.zeros(0, np.int64), *keys]))
    # sorted distinct keys, as np.unique gives them without loading numpy.ma
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    return decode_batch(keys[first], F.q, n)


def _det_class_mask(F, det, kind: str, q: int, d: int, order_kind: str):
    """Rows whose coset tau delta^e (P)SL or (P)SU matches the requested wing,
    read off their determinants det.

    For GL the determinant exponent is read off the discrete log directly;
    for GU determinants are norm-one elements Lambda^((q-1)e), so the log is
    divided down before reducing mod d = (n, q -+ 1).
    """
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
    d = brute_request(kind, n, q, order_kind, mode, enum_bound)
    tau = order_kind.startswith("tau")
    # every det class lies in the wing: no determinant is needed
    whole = order_kind == "tau_coset" and d == 1
    F = make_field(kind, q)
    bound = order_bound_fact(n, F.q, F.p)

    if mode == "full":
        F, mats = enumerate_matrices(kind, n, q, enum_bound=enum_bound)
        rows = mats
        if tau:
            if not whole:
                mats = mats[_det_class_mask(F, det_batch(F, mats), kind, q, d, order_kind)]
            rows = _distinct_tau_images(F, mats, n)
        attained = set().union(*(_attained(F, rows[lo:lo + BLOCK], bound, order_kind)
                                 for lo in range(0, len(rows), BLOCK)))
        used = len(mats)
        sampler = "enumeration"
    else:
        blocks = (samples + BLOCK - 1) // BLOCK
        streams = np.random.SeedSequence(seed).spawn(blocks)

        def wing(count: int, rng) -> np.ndarray:
            """The draws of one refill of count matrices that lie in the wing;
            GL's rejection sampler hands over the determinants it found."""
            if kind == "GL":
                mats, det = _sample_linear(F, n, count, rng, kind)
            else:
                mats = sample_matrices(kind, n, q, count, rng)
                det = None if whole else det_batch(F, mats)
            return mats if whole else mats[_det_class_mask(F, det, kind, q, d, order_kind)]

        def run_block(i: int) -> set:
            rng = np.random.default_rng(streams[i])
            want = min(BLOCK, samples - i * BLOCK)
            if not tau:
                return _attained(F, sample_matrices(kind, n, q, want, rng),
                                 bound, order_kind)
            # refill until want draws lie in the wing, then measure them at once
            kept: list = []
            got = 0
            while got < want:
                kept.append(wing(want - got, rng))
                got += len(kept[-1])
            return _attained(F, tau_images(F, np.concatenate(kept)), bound, order_kind)

        if threads > 1 and blocks > 1:
            # loaded here: concurrent.futures brings logging and queue with it
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=threads) as pool:
                attained = set().union(*pool.map(run_block, range(blocks)))
        else:
            attained = set().union(*map(run_block, range(blocks)))
        used = samples
        sampler = sampler_name(kind, n, q)

    return {
        "group": f"{kind}_{n}({q})",
        "kind": kind, "n": n, "q": q,
        "mode": mode, "order_kind": order_kind,
        "samples": used, "seed": seed, "threads": threads,
        "sampler": sampler,
        "attained": sorted(attained),
    }


def verify_group(spec: GroupSpec, *, mode: str | None = None, samples: int = 100_000,
                 seed: int = 0, enum_bound: int = DEFAULT_ENUM_BOUND,
                 threads: int = 1, order_kind: str | None = None) -> dict:
    """Compare a closed form for spec against the matrix oracle. order_kind
    defaults to the family's (projective orders of the matrix cover); "plain"
    agrees only when the cover has trivial center. "tau_coset" checks the
    graph coset of PSL_n(q); "tau_delta_coset" samples tau delta * PSL for
    orders the socle lacks, and there PASS means that one was found. mode
    defaults to sample for the tau delta wing and to full otherwise."""
    return _verify(spec, order_kind, mode, samples=samples, seed=seed,
                   enum_bound=enum_bound, threads=threads)


def verify_tau_coset(n: int, q: int, *, mode: str = "full",
                     samples: int = 100_000, seed: int = 0,
                     enum_bound: int = DEFAULT_ENUM_BOUND,
                     threads: int = 1) -> dict:
    """verify_group for the graph coset of PSL_n(q). It calls the runner, not
    verify_group, so a wrapper put on both names counts each verify once."""
    return _verify(GroupSpec.from_q("PSL", n, q), "tau_coset", mode, samples=samples,
                   seed=seed, enum_bound=enum_bound, threads=threads)


def _verify(spec: GroupSpec, order_kind, mode, **run) -> dict:
    kind, order_kind, mode = verify_request(spec, order_kind, mode, run["enum_bound"])
    coset = order_kind == "tau_coset"
    delta = order_kind == "tau_delta_coset"
    # module globals, so that tests can replace them. The socle's closed form
    # comes first for every order kind, so a group past its table bound is
    # refused before any matrix, whichever coset is checked.
    socle = spectrum(spec)
    formula = graph_coset(spec.n, spec.q) if coset else socle
    # for eps = -1, q is the hermitian base
    report = brute_spectrum(kind, spec.dimension, spec.q, mode=mode,
                            order_kind=order_kind, **run)
    attained = report["attained"]
    outside = sorted(v for v in attained if v not in formula)
    if delta:
        return dict(report, socle=list(formula.generators), new_values=outside,
                    verdict="PASS" if outside else "FAIL",
                    target=f"tau delta coset of PSL_{spec.n}({spec.q})")
    report["violations"] = outside
    if mode == "full":
        # a coset's values are not closed under divisors, a group's are
        reached = set(attained) if coset else set().union(*map(divisors, attained))
        report["missing"] = sorted(formula.all_values() - reached)
    report.update(verdict="FAIL" if outside or report.get("missing") else "PASS",
                  formula=formula.to_jsonable() if coset else list(formula.generators),
                  target=f"tau coset of PSL_{spec.n}({spec.q})" if coset else str(spec))
    return report
