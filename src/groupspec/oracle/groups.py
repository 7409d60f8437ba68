"""The classical matrix groups: orders, enumeration and uniform sampling.

GL and SL are enumerated by decoding all q^(n^2) integer keys and filtering;
GU, SU and Sp are closed under multiplication starting from a few random
elements (breadth first), with the closure size checked against the group
order formula. Samplers:

  GL  rejection on singularity (acceptance prod (1 - q^-i) > 1/4)
  SL  a GL sample with one column scaled by 1/det (a (q-1)-to-1 projection)
  GU  rows drawn in order, solving the orthogonality conditions against the
      previous rows and rejecting only on the unit-norm condition
  SU  a GU sample with one row scaled by 1/det (norm 1, so unitarity holds)
  Sp  symplectic basis completion, one hyperbolic pair at a time

Small groups are instead sampled by drawing indices into the cached
enumeration; the report strings name which path was taken.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..arith import DEFAULT_ENUM_BOUND, BoundError, UsageError, odd_prime_power
from .batch import (decode_batch, det_inv_batch, encode_batch, identity_batch,
                    mat_mul)
from .field import FiniteField

KINDS = ("GL", "SL", "GU", "SU", "Sp")

ENUM_DRAW_LIMIT = 120_000


def group_order(kind: str, n: int, q: int) -> int:
    if kind == "GL":
        return math.prod(q ** n - q ** i for i in range(n))
    if kind == "SL":
        return group_order("GL", n, q) // (q - 1)
    if kind == "GU":
        return (q ** (n * (n - 1) // 2)
                * math.prod(q ** i - (-1) ** i for i in range(1, n + 1)))
    if kind == "SU":
        return group_order("GU", n, q) // (q + 1)
    if kind == "Sp":
        if n % 2:
            raise UsageError("Sp needs even dimension")
        r = n // 2
        return q ** (r * r) * math.prod(q ** (2 * i) - 1 for i in range(1, r + 1))
    raise UsageError(f"unknown group kind {kind!r}")


def make_field(kind: str, q: int) -> FiniteField:
    """Field the matrices live over: F_q, except F_{q^2} for GU/SU."""
    p, m = odd_prime_power(q)
    return FiniteField(p, 2 * m if kind in ("GU", "SU") else m)


# --- enumeration ------------------------------------------------------------


_enum_cache: dict = {}
_enum_lock = threading.Lock()


def enumerate_matrices(kind: str, n: int, q: int,
                       enum_bound: int = DEFAULT_ENUM_BOUND,
                       seed: int = 0) -> tuple:
    """(field, stacked matrices) for the whole group. Cached per (kind, n, q)."""
    key = (kind, n, q)
    with _enum_lock:
        hit = _enum_cache.get(key)
    if hit is not None:
        return hit
    F = make_field(kind, q)
    order = group_order(kind, n, q)
    if kind in ("GL", "SL"):
        total = F.q ** (n * n)
        if total > enum_bound:
            raise BoundError(f"{F.q}^{n * n} candidate matrices exceed the bound {enum_bound}")
        mats = _enumerate_linear(F, n, kind)
    else:
        if order > enum_bound:
            raise BoundError(f"|{kind}_{n}({q})| = {order} exceeds the bound {enum_bound}")
        mats = _bfs_closure(F, kind, n, q, order, seed)
    if len(mats) != order:
        raise AssertionError(f"enumerated {len(mats)} != |{kind}| = {order}")
    with _enum_lock:
        _enum_cache[key] = (F, mats)
    return F, mats


def _enumerate_linear(F: FiniteField, n: int, kind: str) -> np.ndarray:
    total = F.q ** (n * n)
    keep = []
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        keys = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        mats = decode_batch(keys, F.q, n)
        det = det_inv_batch(F, mats, need_inv=False)[0]
        mask = det == 1 if kind == "SL" else det != 0
        keep.append(mats[mask])
    return np.concatenate(keep)


def _bfs_closure(F: FiniteField, kind: str, n: int, q: int,
                 target: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, q, KINDS.index(kind)]))
    gens = sample_matrices(kind, n, q, 3, rng, allow_enum_draw=False)
    for _ in range(8):
        mats = _close(F, gens, target)
        if mats is not None:
            return mats
        extra = sample_matrices(kind, n, q, 1, rng, allow_enum_draw=False)
        gens = np.concatenate([gens, extra])
    raise AssertionError("closure failed to reach the group order")


def _close(F: FiniteField, gens: np.ndarray, target: int):
    n = gens.shape[-1]
    eye = identity_batch(F, n, 1)
    seen = {int(encode_batch(eye, F.q)[0])}
    rows = [eye]
    frontier = eye
    count = 1
    while len(frontier):
        g = gens.shape[0]
        prods = mat_mul(F, np.repeat(frontier, g, axis=0),
                        np.tile(gens, (len(frontier), 1, 1)))
        keys = encode_batch(prods, F.q)
        fresh_idx = []
        for i, k in enumerate(keys.tolist()):
            if k not in seen:
                seen.add(k)
                fresh_idx.append(i)
        if not fresh_idx:
            break
        frontier = prods[fresh_idx]
        rows.append(frontier)
        count += len(fresh_idx)
        if count > target:
            return None          # seeds generated something bigger: caller retries
    if count != target:
        return None
    return np.concatenate(rows)


# --- sampling ---------------------------------------------------------------


def sampler_name(kind: str, n: int, q: int) -> str:
    if kind in ("GU", "SU", "Sp") and group_order(kind, n, q) <= ENUM_DRAW_LIMIT:
        return "enumeration-draw"
    return {"GL": "rejection", "SL": "rejection+column-scale",
            "GU": "row-solve", "SU": "row-solve+row-scale",
            "Sp": "basis-completion"}[kind]


def sample_matrices(kind: str, n: int, q: int, count: int, rng,
                    field: FiniteField | None = None,
                    allow_enum_draw: bool = True) -> np.ndarray:
    if kind not in KINDS:
        raise UsageError(f"unknown group kind {kind!r}")
    F = field if field is not None else make_field(kind, q)
    if kind in ("GL", "SL"):
        return _sample_linear(F, n, count, rng, kind)
    if allow_enum_draw and group_order(kind, n, q) <= ENUM_DRAW_LIMIT:
        _, mats = enumerate_matrices(kind, n, q)
        return mats[rng.integers(0, len(mats), count)]
    if kind == "Sp":
        return np.stack([_sample_sp_one(F, n, rng) for _ in range(count)])
    q0 = int(round(math.isqrt(F.q)))
    out = np.stack([_sample_gu_one(F, n, q0, rng) for _ in range(count)])
    if kind == "SU":
        det = det_inv_batch(F, out, need_inv=False)[0]
        out[:, 0, :] = F.MUL[F.INV[det][:, None], out[:, 0, :]]
    return out


def _sample_linear(F: FiniteField, n: int, count: int, rng, kind: str) -> np.ndarray:
    got, dets = [], []
    have = 0
    while have < count:
        draw = max(64, int((count - have) * 1.7) + 8)
        cand = rng.integers(0, F.q, size=(draw, n, n)).astype(np.int16)
        det, _, ok = det_inv_batch(F, cand, need_inv=False)
        got.append(cand[ok])
        dets.append(det[ok])
        have += len(got[-1])
    out = np.concatenate(got)[:count]
    if kind == "SL":
        det = np.concatenate(dets)[:count]
        out[:, :, -1] = F.MUL[F.INV[det][:, None], out[:, :, -1]]
    return out


def _nullspace(F: FiniteField, rows: list, n: int) -> list:
    """Basis of the solution space of <row, v> = 0 (plain dot, no twisting)."""
    mul, sub = F.mul, F.sub
    M = [list(r) for r in rows]
    pivots = {}
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, len(M)):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        ipv = F.inv(M[r][c])
        M[r] = [mul(ipv, x) if x else 0 for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [sub(x, mul(f, y)) if y else x for x, y in zip(M[i], M[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for c, pr in pivots.items():
            v[c] = F.neg(M[pr][fc])
        basis.append(v)
    return basis


def _random_combo(F: FiniteField, basis: list, rng) -> list:
    add, mul = F.add, F.mul
    coeffs = rng.integers(0, F.q, size=len(basis))
    v = [0] * len(basis[0])
    for c, vec in zip(coeffs.tolist(), basis):
        if c:
            v = [add(x, mul(c, y)) if y else x for x, y in zip(v, vec)]
    return v


def _sample_gu_one(F: FiniteField, n: int, q0: int, rng) -> np.ndarray:
    add, pow_ = F.add, F.pow
    rows: list = []
    for _ in range(n):
        cond = [[pow_(x, q0) for x in r] for r in rows]      # conjugate rows
        basis = _nullspace(F, cond, n)
        while True:
            v = _random_combo(F, basis, rng)
            norm = 0
            for x in v:
                if x:
                    norm = add(norm, pow_(x, q0 + 1))       # x * conj(x)
            if norm == 1:
                rows.append(v)
                break
    return np.array(rows, np.int16)


def _sample_sp_one(F: FiniteField, n: int, rng) -> np.ndarray:
    r = n // 2
    add, mul, neg = F.add, F.mul, F.neg

    def functional(u):
        # coefficient vector of w -> <u, w> = u^T J w, J = [[0, I], [-I, 0]]
        return [neg(x) for x in u[r:]] + u[:r]

    vs, ws = [], []
    conds: list = []
    for _ in range(r):
        basis = _nullspace(F, conds, n)
        while True:
            v = _random_combo(F, basis, rng)
            if any(v):
                break
        fv = functional(v)
        vals = [sum_dot(F, fv, b) for b in basis]
        j0 = next(i for i, x in enumerate(vals) if x)
        c0 = F.inv(vals[j0])
        u = _random_combo(F, basis, rng)
        s = mul(F.sub(1, sum_dot(F, fv, u)), c0)
        w = [add(x, mul(s, y)) if y else x for x, y in zip(u, basis[j0])]
        vs.append(v)
        ws.append(w)
        conds.append(fv)
        conds.append(functional(w))
    g = np.array(vs + ws, np.int16).T            # columns e_1..e_r, f_1..f_r
    return g


def sum_dot(F: FiniteField, a, b) -> int:
    add, mul = F.add, F.mul
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = add(acc, mul(x, y))
    return acc
