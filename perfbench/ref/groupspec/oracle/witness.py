"""Explicit matrices attaining formula spectrum values of PSL_n(q) / PGL_n(q).

A semisimple value is hit by a block-diagonal matrix of companion blocks of
degrees n_1 >= ... >= n_s summing to n: block i is the companion matrix of
the minimal polynomial of alpha_i = Lambda^(u_i s_i) where Lambda generates
F_{q^N}^* (N = lcm of the degrees) and s_i = (q^N - 1)/(q^{n_i} - 1). The
projective order of that matrix is computed exactly from the exponents:

    |gZ| = lcm over c of (q^N - 1) / gcd(q^N - 1, c)

with c running over the pairwise differences t_i - t_j and the single
in-the-base-field constraint t_1 (q - 1); det g = 1 iff sum u_i = 0 mod q-1.
Values divisible by p get an extra Jordan block mu * J_s, s = p^(t-1) + 1.
The exponents u_i are drawn at random until the order lands on the target.

Unitary targets have no witness construction here; callers fall back to
sampling (see the completeness checks in the test suite).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ..arith import r_part
from ..coset import UNSUPPORTED
from ..spectra import GroupSpec, _partitions
from .field import FiniteField, embed_subfield
from .orders import order_bound_fact, projective_order

BIG_FIELD_LIMIT = 1 << 22
DEFAULT_TRIES = 2000


@dataclass(frozen=True)
class Witness:
    matrix: np.ndarray          # over F_q
    group_kind: str             # "SL" or "GL"
    target: int
    description: str


def _min_poly_coeffs(big: FiniteField, alpha: int, degree: int, q: int, rev: dict):
    """Minimal polynomial of alpha over F_q, coefficients as F_q encodings."""
    poly = [1]                  # little-endian, in the big field
    conj = alpha
    for _ in range(degree):
        # poly *= (z - conj)
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = big.add(nxt[i + 1], c)
            nxt[i] = big.sub(nxt[i], big.mul(c, conj))
        poly = nxt
        conj = big.pow(conj, q)
    return [rev[c] for c in poly]


def _companion(F: FiniteField, coeffs) -> np.ndarray:
    """Companion matrix of the monic poly with little-endian coeffs over F."""
    k = len(coeffs) - 1
    C = np.zeros((k, k), np.int16)
    for i in range(1, k):
        C[i, i - 1] = 1
    for i in range(k):
        C[i, k - 1] = F.neg(coeffs[i])
    return C


def _frob_orbit_size(t: int, q: int, modulus: int, cap: int) -> int:
    e, cur = 1, (t * q) % modulus
    while cur != t % modulus:
        cur = (cur * q) % modulus
        e += 1
        if e > cap:
            raise AssertionError("orbit size exceeds field degree")
    return e


def _proj_order_from_exponents(ts, q: int, modulus: int) -> int:
    cs = [ts[0] * (q - 1)]
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            cs.append(ts[i] - ts[j])
    out = 1
    for c in cs:
        out = math.lcm(out, modulus // math.gcd(modulus, c % modulus))
    return out


def _rng_for(spec: GroupSpec, target: int, seed: int) -> random.Random:
    return random.Random(f"{spec}:{target}:{seed}")


def witness_for_value(spec: GroupSpec, target: int, tries: int = DEFAULT_TRIES,
                      seed: int = 0):
    """A matrix of projective order target, or UNSUPPORTED."""
    if spec.family not in ("PSL", "PGL") or spec.eps != 1:
        return UNSUPPORTED
    if target < 1:
        return UNSUPPORTED
    n, q, p = spec.n, spec.q, spec.p
    group_kind = "SL" if spec.family == "PSL" else "GL"
    rng = _rng_for(spec, target, seed)
    small = FiniteField(p, spec.m)

    pt = r_part(target, p)
    if pt == 1:
        found = _semisimple_witness(spec, target, small, rng, tries)
    else:
        found = _unipotent_witness(spec, target, pt, small, rng, tries)
    if found is None:
        return UNSUPPORTED
    matrix, description = found
    return Witness(matrix=matrix, group_kind=group_kind,
                   target=target, description=description)


def _big_field(small: FiniteField, N: int):
    if small.q ** N > BIG_FIELD_LIMIT:
        return None
    big = FiniteField(small.p, small.m * N, tables=False)
    fwd, rev = embed_subfield(small, big)
    return big, rev


def _semisimple_witness(spec, target, small, rng, tries):
    n, q = spec.n, small.q
    fix_det = spec.family == "PSL"
    for part in _partitions(n):
        N = math.lcm(*part)
        ctx = _big_field(small, N)
        if ctx is None:
            continue
        big, rev = ctx
        modulus = q ** N - 1
        spans = [modulus // (q ** k - 1) for k in part]
        lam = big.primitive
        for _ in range(max(1, tries // 4)):
            us = [rng.randrange(q ** k - 1) for k in part]
            if fix_det:
                residue = (-sum(us[:-1])) % (q - 1)
                span = (q ** part[-1] - 1) // (q - 1)
                us[-1] = residue + (q - 1) * rng.randrange(span)
            ts = [u * s for u, s in zip(us, spans)]
            if any(_frob_orbit_size(t, q, modulus, N) != k
                   for t, k in zip(ts, part)):
                continue
            if _proj_order_from_exponents(ts, q, modulus) != target:
                continue
            blocks = [_companion(small, _min_poly_coeffs(big, big.pow(lam, t), k, q, rev))
                      for t, k in zip(ts, part)]
            return _block_diag(blocks, n), f"companion blocks {tuple(part)}"
    return None


def _unipotent_witness(spec, target, pt, small, rng, tries):
    n, q, p = spec.n, small.q, spec.p
    fix_det = spec.family == "PSL"
    t = 0
    x = pt
    while x > 1:
        x //= p
        t += 1
    s = p ** (t - 1) + 1
    if target == pt and n == s:
        J = _jordan(small, n, 1)
        return J, f"jordan block {n}"
    n1 = n - s
    if n1 < 1:
        return None
    rest = target // pt
    for part in _partitions(n1):
        N = math.lcm(*part)
        ctx = _big_field(small, N)
        if ctx is None:
            continue
        big, rev = ctx
        modulus = q ** N - 1
        spans = [modulus // (q ** k - 1) for k in part]
        unit_span = modulus // (q - 1)
        lam = big.primitive
        # zeta = lam^unit_span generates F_q^* inside the big field; using it
        # for mu keeps the exponent bookkeeping and the matrix entry in sync
        zeta = big.pow(lam, unit_span)
        for _ in range(max(1, tries // 4)):
            us = [rng.randrange(q ** k - 1) for k in part]
            ts = [u * s_ for u, s_ in zip(us, spans)]
            if any(_frob_orbit_size(ti, q, modulus, N) != k
                   for ti, k in zip(ts, part)):
                continue
            for w in range(q - 1):
                if fix_det and (w * s + sum(us)) % (q - 1) != 0:
                    continue
                tmu = w * unit_span
                ord_ss = 1
                for ti in ts:
                    c = (ti - tmu) % modulus
                    ord_ss = math.lcm(ord_ss, modulus // math.gcd(modulus, c))
                if math.lcm(pt, ord_ss) != target:
                    continue
                mu = rev[big.pow(zeta, w)]
                blocks = [_jordan(small, s, mu)]
                blocks += [_companion(small, _min_poly_coeffs(big, big.pow(lam, ti), k, q, rev))
                           for ti, k in zip(ts, part)]
                return (_block_diag(blocks, n),
                        f"jordan {s} * {mu} + companion blocks {tuple(part)}")
    return None


def _jordan(F: FiniteField, size: int, mu: int) -> np.ndarray:
    J = np.zeros((size, size), np.int16)
    for i in range(size):
        J[i, i] = mu
        if i + 1 < size:
            J[i, i + 1] = mu
    return J


def _block_diag(blocks, n: int) -> np.ndarray:
    out = np.zeros((n, n), np.int16)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def verify_witness(spec: GroupSpec, wit: Witness) -> int:
    """Honest projective order of the witness matrix, via the table oracle."""
    F = FiniteField(spec.p, spec.m)
    bound = order_bound_fact(spec.n, F.q, F.p)
    if wit.group_kind == "SL":
        from .batch import det_batch
        det = int(det_batch(F, wit.matrix[None])[0])
        if det != 1:
            raise AssertionError(f"witness determinant {det} != 1")
    return projective_order(F, wit.matrix, bound)


def witness_report(spec: GroupSpec, seed: int = 0) -> list:
    """One entry per maximal spectrum value: witness found and its true order."""
    from ..spectra import spectrum_linear
    out = []
    for g in spectrum_linear(spec).generators:
        wit = witness_for_value(spec, g, seed=seed)
        if wit is UNSUPPORTED:
            out.append({"target": g, "status": "unsupported"})
            continue
        got = verify_witness(spec, wit)
        out.append({"target": g, "status": "ok" if got == g else "mismatch",
                    "order": got, "construction": wit.description})
    return out
