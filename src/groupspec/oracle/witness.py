"""Explicit matrices attaining formula spectrum values of PSL_n(q) / PGL_n(q).

A semisimple value is hit by a block-diagonal matrix of companion blocks of
degrees n_1 >= ... >= n_s summing to n: block i is the companion matrix of
the minimal polynomial of alpha_i = Lambda^(u_i s_i) where Lambda generates
F_{q^N}^* (N = lcm of the degrees) and s_i = (q^N - 1)/(q^{n_i} - 1). The
projective order of that matrix is computed exactly from the exponents:

    |gZ| = lcm over c of (q^N - 1) / gcd(q^N - 1, c)

with c running over the pairwise differences t_i - t_j and the single
in-the-base-field constraint t_1 (q - 1); det g = 1 iff sum u_i = 0 mod q-1.
Values divisible by p (p-part p^t) get an extra Jordan block mu * J_s,
s = p^(t-1) + 1, with mu = Lambda^t_mu in F_q^*, and the companion blocks
fill the remaining n - s; the same formula with t_mu put first among the
exponents gives the order of the semisimple part (t_mu (q - 1) = 0 mod
q^N - 1). Both searches read one candidate stream (_exponents): per
partition, DRAWS random exponent vectors, kept when each block has the
degree its part asks for; the first candidate whose order lands on the
target is the witness.

Unitary targets have no witness construction here; callers fall back to
sampling (see the completeness checks in the test suite).
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..arith import Record, p_power_exponent, r_part
from ..coset import UNSUPPORTED
from ..spectra import GroupSpec, _partitions
from .field import FiniteField, embed_subfield, poly_mul
from .orders import order_bound_fact, orders_batch

BIG_FIELD_LIMIT = 1 << 22
DRAWS = 500                     # random exponent vectors per partition


class Witness(Record):
    __slots__ = ("matrix", "group_kind", "target", "description")

    def __init__(self, matrix: np.ndarray, group_kind: str, target: int, description: str):
        set_ = object.__setattr__
        set_(self, "matrix", matrix)            # over F_q
        set_(self, "group_kind", group_kind)    # "SL" or "GL"
        set_(self, "target", target)
        set_(self, "description", description)


def _min_poly_coeffs(big: FiniteField, alpha: int, degree: int, q: int, rev: dict):
    """Minimal polynomial of alpha over F_q, coefficients as F_q encodings.

    It is the product of z - alpha^(q^i), i < degree, over the big field.
    """
    poly = (1,)
    conj = alpha
    for _ in range(degree):
        poly = poly_mul(big, poly, (big.neg(conj), 1))
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


def witness_for_value(spec: GroupSpec, target: int):
    """A matrix of projective order target, or UNSUPPORTED."""
    if spec.family not in ("PSL", "PGL") or spec.eps != 1 or target < 1:
        return UNSUPPORTED
    rng = random.Random(f"{spec}:{target}:0")
    small = FiniteField(spec.p, spec.m)
    pt = r_part(target, spec.p)
    if pt == 1:
        found = _semisimple_witness(spec, target, small, rng)
    else:
        found = _unipotent_witness(spec, target, pt, small, rng)
    if found is None:
        return UNSUPPORTED
    matrix, description = found
    return Witness(matrix=matrix, group_kind="SL" if spec.family == "PSL" else "GL",
                   target=target, description=description)


def _exponents(small: FiniteField, n: int, rng: random.Random, fix_det: bool):
    """The one candidate stream of both searches: per partition of n whose
    big field F_{q^N} has at most BIG_FIELD_LIMIT elements, DRAWS random
    exponent vectors u, kept when every t_i = u_i s_i has Frobenius orbit
    size n_i (so block i has degree n_i). fix_det makes sum u_i = 0 mod q-1.
    Yields (part, big, rev, us, ts); big.q - 1 is the modulus q^N - 1."""
    q = small.q
    for part in _partitions(n):
        N = math.lcm(*part)
        if q ** N > BIG_FIELD_LIMIT:
            continue
        big = FiniteField(small.p, small.m * N, tables=False)
        rev = embed_subfield(small, big)[1]
        modulus = big.q - 1
        spans = [modulus // (q ** k - 1) for k in part]
        for _ in range(DRAWS):
            us = [rng.randrange(q ** k - 1) for k in part]
            if fix_det:
                span = (q ** part[-1] - 1) // (q - 1)
                us[-1] = (-sum(us[:-1])) % (q - 1) + (q - 1) * rng.randrange(span)
            ts = [u * s for u, s in zip(us, spans)]
            if all(_frob_orbit_size(t, q, modulus, N) == k for t, k in zip(ts, part)):
                yield part, big, rev, us, ts


def _companions(small: FiniteField, big: FiniteField, rev: dict, part, ts) -> list:
    return [_companion(small, _min_poly_coeffs(big, big.pow(big.primitive, t), k, small.q, rev))
            for t, k in zip(ts, part)]


def _semisimple_witness(spec, target, small, rng):
    for part, big, rev, us, ts in _exponents(small, spec.n, rng, spec.family == "PSL"):
        if _proj_order_from_exponents(ts, small.q, big.q - 1) == target:
            return (_block_diag(_companions(small, big, rev, part, ts), spec.n),
                    f"companion blocks {part}")
    return None


def _unipotent_witness(spec, target, pt, small, rng):
    n, q, p = spec.n, small.q, spec.p
    s = p ** (p_power_exponent(pt, p) - 1) + 1
    if target == pt and n == s:
        return _jordan(small, n, 1), f"jordan block {n}"
    if n <= s:
        return None
    fix_det = spec.family == "PSL"
    for part, big, rev, us, ts in _exponents(small, n - s, rng, False):
        modulus = big.q - 1
        unit_span = modulus // (q - 1)
        for w in range(q - 1):
            if fix_det and (w * s + sum(us)) % (q - 1) != 0:
                continue
            # mu = Lambda^t_mu, t_mu = w (q^N - 1)/(q - 1), is the w-th power
            # of the generator of F_q^* inside the big field, so the exponent
            # bookkeeping and the matrix entry stay in sync
            t_mu = w * unit_span
            if math.lcm(pt, _proj_order_from_exponents([t_mu] + ts, q, modulus)) != target:
                continue
            mu = rev[big.pow(big.primitive, t_mu)]
            blocks = [_jordan(small, s, mu)] + _companions(small, big, rev, part, ts)
            return _block_diag(blocks, n), f"jordan {s} * {mu} + companion blocks {part}"
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
    return int(orders_batch(F, wit.matrix[None], bound, projective=True)[0])


def witness_report(spec: GroupSpec) -> list:
    """One entry per maximal spectrum value: witness found and its true order."""
    from ..spectra import spectrum_linear
    out = []
    for g in spectrum_linear(spec).generators:
        wit = witness_for_value(spec, g)
        if wit is UNSUPPORTED:
            out.append({"target": g, "status": "unsupported"})
            continue
        got = verify_witness(spec, wit)
        out.append({"target": g, "status": "ok" if got == g else "mismatch",
                    "order": got, "construction": wit.description})
    return out
