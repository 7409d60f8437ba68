"""The classical matrix groups: orders, enumeration and uniform sampling.

GL and SL are enumerated by decoding all q^(n^2) integer keys and filtering;
GU, SU and Sp are closed under multiplication starting from a few random
elements (breadth first), with the closure size checked against the group
order formula. Those elements come from one fixed stream per (kind, n, q),
so each group has one enumeration order, and a sampler that draws indices
into it gives the same matrices whatever was called before. The enumeration
bound is checked before the cache lookup, so a group over the bound is
refused whether or not it was enumerated before. Samplers:

  GL  rejection on singularity (acceptance prod (1 - q^-i) > 1/4)
  SL  a GL sample with one column scaled by 1/det (a (q-1)-to-1 projection)
  GU  rows drawn in order, solving the orthogonality conditions against the
      previous rows and rejecting only on the unit-norm condition
  SU  a GU sample with one row scaled by 1/det (norm 1, so unitarity holds)
  Sp  symplectic basis completion, one hyperbolic pair at a time

Both row samplers draw each candidate vector's coefficients as
rng.integers(0, q, size=k) and read them from block draws (_Coefficients),
which leave the stream exactly as one draw per candidate would. Sp redraws v
only while all its coefficients are zero, so its whole stream is parsed first
and every step then runs once for all matrices, with a batched null space.
GU redraws on the norm of v, so where one matrix's draws end depends on its
arithmetic: it stays one matrix at a time, in scalar field arithmetic.

Small groups are instead sampled by drawing indices into the cached
enumeration; the report strings name which path was taken.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..arith import DEFAULT_ENUM_BOUND, UsageError, odd_prime_power
from . import KINDS, _check_kind, check_enum_bound, group_order
from .batch import (decode_batch, det_inv_batch, encode_batch, identity_batch,
                    mat_mul, nullspace_batch)
from .field import FiniteField

ENUM_DRAW_LIMIT = 120_000


def make_field(kind: str, q: int) -> FiniteField:
    """Field the matrices live over: F_q, except F_{q^2} for GU/SU."""
    p, m = odd_prime_power(q)
    return FiniteField(p, 2 * m if kind in ("GU", "SU") else m)


# --- enumeration ------------------------------------------------------------


_enum_cache: dict = {}
_enum_lock = threading.Lock()


def enumerate_matrices(kind: str, n: int, q: int,
                       enum_bound: int = DEFAULT_ENUM_BOUND) -> tuple:
    """(field, stacked matrices) for the whole group. Cached per (kind, n, q),
    after the bound check, so a call over the bound fails cached or not."""
    order = check_enum_bound(kind, n, q, enum_bound)
    key = (kind, n, q)
    with _enum_lock:
        hit = _enum_cache.get(key)
    if hit is not None:
        return hit
    F = make_field(kind, q)
    if kind in ("GL", "SL"):
        mats = _enumerate_linear(F, n, kind)
    else:
        mats = _bfs_closure(F, kind, n, q, order)
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


def _bfs_closure(F: FiniteField, kind: str, n: int, q: int, target: int) -> np.ndarray:
    # one fixed stream per group, so every caller gets the same element order
    rng = np.random.default_rng(np.random.SeedSequence([0, n, q, KINDS.index(kind)]))
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
    _check_kind(kind, n)
    if n < 1 or count < 0:
        raise UsageError(f"cannot sample {count} matrices of size {n}")
    F = field if field is not None else make_field(kind, q)
    if count == 0:
        return np.zeros((0, n, n), np.int16)
    if kind in ("GL", "SL"):
        return _sample_linear(F, n, count, rng, kind)
    if allow_enum_draw and group_order(kind, n, q) <= ENUM_DRAW_LIMIT:
        _, mats = enumerate_matrices(kind, n, q)
        return mats[rng.integers(0, len(mats), count)]
    if kind == "Sp":
        return _sample_sp(F, n, count, rng)
    q0 = math.isqrt(F.q)
    coeffs = _Coefficients(rng, F.q)
    per_matrix = n * (n + 1) // 2
    out = np.stack([_sample_gu_one(F, n, q0, coeffs, (count - 1 - m) * per_matrix)
                    for m in range(count)])
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


class _Coefficients:
    """The coefficient vectors of the row samplers, rng.integers(0, q, size=k)
    one candidate at a time, read from a buffer of block draws.

    numpy's bounded integers take each value from one continuous stream of
    32-bit words (Lemire's method; the bit generator keeps the unused half of
    a 64-bit output for its next call), so a draw of size a + b gives the same
    values, and leaves the generator in the same state, as a draw of size a
    followed by one of size b. A refill draws what the current candidate
    still needs plus `ahead`, a lower bound the caller proves on what it reads
    after this candidate. So the generator never runs past where one draw per
    candidate would have left it, and two samplers in turn on one generator
    read what they read before.
    """

    def __init__(self, rng, q: int):
        self.rng, self.q = rng, q
        self.buf: list = []
        self.pos = 0

    def take(self, k: int, ahead: int) -> list:
        end = self.pos + k
        if end > len(self.buf):
            fresh = self.rng.integers(0, self.q, size=end - len(self.buf) + ahead)
            self.buf = self.buf[self.pos:] + fresh.tolist()
            self.pos, end = 0, k
        out = self.buf[self.pos:end]
        self.pos = end
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


def _sample_gu_one(F: FiniteField, n: int, q0: int, coeffs: _Coefficients,
                   later: int) -> np.ndarray:
    """One GU matrix; the matrices after it read at least `later` coefficients."""
    add, mul, pow_ = F.add, F.mul, F.pow
    rows: list = []
    for i in range(n):
        cond = [[pow_(x, q0) for x in r] for r in rows]      # conjugate rows
        basis = _nullspace(F, cond, n)
        # each later row reads at least one candidate, of its null dimension
        ahead = later + (n - 1 - i) * (n - i) // 2
        while True:
            v = [0] * n
            for c, vec in zip(coeffs.take(len(basis), ahead), basis):
                if c:
                    v = [add(x, mul(c, y)) if y else x for x, y in zip(v, vec)]
            norm = 0
            for x in v:
                if x:
                    norm = add(norm, pow_(x, q0 + 1))       # x * conj(x)
            if norm == 1:
                rows.append(v)
                break
    return np.array(rows, np.int16)


def _sample_sp(F: FiniteField, n: int, count: int, rng) -> np.ndarray:
    """Symplectic basis completion, each step run once for all count lanes.

    Step i completes the pairs (e_1, f_1) .. (e_i, f_i) by v and w in the null
    space of the 2i conditions <e_j, .> = <f_j, .> = 0, which has dimension
    n - 2i: v = cv . basis, redrawn while cv is zero, and u = cu . basis;
    w = u + s b_j0, where b_j0 is the first basis vector that v pairs with and
    s makes <v, w> = 1. The basis is independent, so whether v is redrawn
    depends on cv alone, and the whole stream is parsed into per-(matrix,
    step) cv and cu before any field arithmetic.
    """
    r = n // 2
    dims = [n - 2 * i for i in range(r)]
    per_matrix = 2 * sum(dims)                 # one cv and one cu per step
    coeffs = _Coefficients(rng, F.q)
    cvs: list = [[] for _ in dims]
    cus: list = [[] for _ in dims]
    for m in range(count):
        rest = (count - m) * per_matrix
        for i, d in enumerate(dims):
            rest -= 2 * d                      # read at least after this step
            while True:
                cv = coeffs.take(d, d + rest)
                if any(cv):
                    break
            cvs[i].append(cv)
            cus[i].append(coeffs.take(d, rest))

    ADD, MUL, SUB, NEG = F.ADD, F.MUL, F.SUB, F.NEG
    lanes = np.arange(count)

    def functional(x):
        # coefficient vectors of w -> <x, w> = x^T J w, J = [[0, I], [-I, 0]]
        return np.concatenate([NEG[x[:, r:]], x[:, :r]], axis=1)

    g = np.empty((count, n, n), np.int16)     # columns e_1..e_r, f_1..f_r
    conds = np.zeros((count, 0, n), np.int16)
    for i in range(r):
        basis = nullspace_batch(F, conds)
        v = mat_mul(F, np.array(cvs[i], np.int16)[:, None, :], basis)[:, 0]
        fv = functional(v)
        vals = mat_mul(F, basis, fv[:, :, None])[:, :, 0]
        j0 = np.argmax(vals != 0, axis=1)
        c0 = F.INV[vals[lanes, j0]]
        u = mat_mul(F, np.array(cus[i], np.int16)[:, None, :], basis)[:, 0]
        fu = mat_mul(F, fv[:, None, :], u[:, :, None])[:, 0, 0]
        s = MUL[SUB[1, fu], c0]
        w = ADD[u, MUL[s[:, None], basis[lanes, j0]]]
        g[:, :, i] = v
        g[:, :, r + i] = w
        conds = np.concatenate([conds, fv[:, None, :], functional(w)[:, None, :]], axis=1)
    return g
