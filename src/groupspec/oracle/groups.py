"""The classical matrix groups: orders, enumeration and uniform sampling.

Matrices live over make_field's field, F_q or F_{q^2} for GU and SU, built
once per (p, m) and process and shared by every caller.

GL and SL are enumerated in ascending order of their encode_batch keys, with
each determinant read off a cofactor table instead of an elimination. The
determinant is linear in the last row: det X = sum_c X[n-1, c] C_c(P), where
P is the first n - 1 rows and C_c(P) = (-1)^(n-1+c) det(P without column c).
The cofactors of all q^(n(n-1)) prefixes P take n det_batch calls on
(n-1) x (n-1) minors, and the product of the q^n last rows by them gives
every determinant (n = 1 has one empty prefix, whose one minor is empty
and has determinant 1). A key is P + q^(n(n-1)) (last row), so that table
read in row-major order is ascending key order. It is built in slices of
whole last rows, or of one last row's prefixes, of at most ENUM_CHUNK
candidates each. SL_2(23)
eliminates 1,058 minors where decoding and eliminating every key took
279,841 matrices; best of 5 on a 2-core VM, it took 2.8 ms against 13.1 ms,
and GL_3(5) 102 ms against 282 ms.

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
arithmetic: it stays one matrix at a time, and the reduced row echelon form
of the conditions on its next row grows by one row per step. Its field
arithmetic reads lists instead of calling the field per element: products
and sums through the field's exp, log and Zech-logarithm lists, and the
conjugate x^q0 and the norm x^(q0 + 1) through two lists of q entries built
once per sample_matrices call (q0 = sqrt q, so over F_81 conjugation is x^9,
not the Frobenius x^3). Like every other sampler it needs the field's tables.

Small groups are instead sampled by drawing indices into the cached
enumeration; the report strings name which path was taken.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from ..arith import DEFAULT_ENUM_BOUND, UsageError, odd_prime_power
from . import KINDS, _check_kind, check_enum_bound, group_order
from .batch import (_require_tables, decode_batch, det_batch, det_inv_batch,
                    encode_batch, identity_batch, mat_mul, nullspace_batch)
from .field import FiniteField, _combine

ENUM_DRAW_LIMIT = 120_000
# the most candidate matrices one slice of a GL/SL enumeration holds
ENUM_CHUNK = 1 << 16


def make_field(kind: str, q: int) -> FiniteField:
    """Field the matrices live over: F_q, except F_{q^2} for GU/SU. One
    object per (p, m) and process, so SL_3(9) and SU_3(3) share F_9."""
    p, m = odd_prime_power(q)
    return _field(p, 2 * m if kind in ("GU", "SU") else m)


_field = functools.cache(FiniteField)           # (p, m) -> the shared field


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
    """GL_n(q) or SL_n(q) in ascending key order, each determinant read off a
    cofactor table (see the module docstring)."""
    q = F.q
    prefixes = q ** (n * (n - 1))
    # keys below q^(n(n-1)) are the prefixes, with a zero last row; the keys
    # prefixes * l have a zero prefix and last row l
    P = decode_batch(np.arange(prefixes), q, n)[:, :n - 1]
    last = decode_batch(np.arange(q ** n) * prefixes, q, n)[:, n - 1]
    C = np.empty((n, prefixes), np.int16)
    for c in range(n):
        # at n = 1 the one minor is empty, with determinant 1
        minors = det_batch(F, np.delete(P, c, axis=2))
        C[c] = F.NEG[minors] if (n - 1 + c) % 2 else minors
    rows = max(1, ENUM_CHUNK // prefixes)
    width = min(prefixes, ENUM_CHUNK)
    keep = []
    for lo in range(0, len(last), rows):
        for at in range(0, prefixes, width):
            det = mat_mul(F, last[lo:lo + rows], C[:, at:at + width])
            li, pi = np.nonzero(det == 1 if kind == "SL" else det != 0)
            mats = np.empty((len(li), n, n), np.int16)
            mats[:, :n - 1] = P[at + pi]
            mats[:, n - 1] = last[lo + li]
            keep.append(mats)
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
                    allow_enum_draw: bool = True) -> np.ndarray:
    _check_kind(kind, n)
    if n < 1 or count < 0:
        raise UsageError(f"cannot sample {count} matrices of size {n}")
    F = make_field(kind, q)
    if count == 0:
        return np.zeros((0, n, n), np.int16)
    _require_tables(F)
    if kind in ("GL", "SL"):
        return _sample_linear(F, n, count, rng, kind)[0]
    if allow_enum_draw and group_order(kind, n, q) <= ENUM_DRAW_LIMIT:
        _, mats = enumerate_matrices(kind, n, q)
        return mats[rng.integers(0, len(mats), count)]
    if kind == "Sp":
        return _sample_sp(F, n, count, rng)
    q0 = math.isqrt(F.q)
    conj = [F.pow(x, q0) for x in range(F.q)]
    norm = [F.pow(x, q0 + 1) for x in range(F.q)]
    coeffs = _Coefficients(rng, F.q)
    per_matrix = n * (n + 1) // 2
    out = np.stack([_sample_gu_one(F, n, conj, norm, coeffs, (count - 1 - m) * per_matrix)
                    for m in range(count)])
    if kind == "SU":
        det = det_inv_batch(F, out, need_inv=False)[0]
        out[:, 0, :] = F.MUL[F.INV[det][:, None], out[:, 0, :]]
    return out


def _sample_linear(F: FiniteField, n: int, count: int, rng, kind: str) -> tuple:
    """(matrices, determinants) of count GL matrices drawn by rejection on a
    zero determinant, or of SL matrices, whose last column is scaled by 1/det.
    sample_matrices returns the matrices; the tau wings of brute_spectrum
    read their det classes off the determinants found here. n >= 1, count
    >= 1 and F has tables."""
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
    det = np.concatenate(dets)[:count]
    if kind == "SL":
        out[:, :, -1] = F.MUL[F.INV[det][:, None], out[:, :, -1]]
        det = np.ones_like(det)
    return out, det


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


def _extend_rref(F: FiniteField, rref: dict, row: list, n: int) -> None:
    """Extend a reduced row echelon form, held as {pivot column: row}, by one
    row in place; a row in its span leaves it as it was."""
    exp, log, neg, inv = F._exp, F._log, F._neg, F._inv
    for c, r in rref.items():
        if row[c]:
            row = _combine(F, (1, neg[row[c]]), (row, r), n)
    lead = next((c for c, x in enumerate(row) if x), None)
    if lead is None:
        return
    lp = log[inv[row[lead]]]
    row = [exp[lp + log[x]] if x else 0 for x in row]
    for c, r in list(rref.items()):
        if r[lead]:
            rref[c] = _combine(F, (1, neg[r[lead]]), (r, row), n)
    rref[lead] = row


def _null_basis(F: FiniteField, rref: dict, n: int) -> list:
    """Basis of the solution space of <row, v> = 0 over the rows of a reduced
    row echelon form: for each free column f in ascending order, e_f minus,
    at each pivot column, the entry in column f of that pivot's row. The form
    is unique, so the basis does not depend on how it was reached."""
    neg = F._neg
    basis = []
    for f in range(n):
        if f not in rref:
            v = [0] * n
            v[f] = 1
            for c, r in rref.items():
                v[c] = neg[r[f]]
            basis.append(v)
    return basis


def _nullspace(F: FiniteField, rows: list, n: int) -> list:
    """Basis of the solution space of <row, v> = 0 (plain dot, no twisting)."""
    rref: dict = {}
    for r in rows:
        _extend_rref(F, rref, list(r), n)
    return _null_basis(F, rref, n)


def _sample_gu_one(F: FiniteField, n: int, conj: list, norm: list,
                   coeffs: _Coefficients, later: int) -> np.ndarray:
    """One GU matrix; the matrices after it read at least `later` coefficients.
    Row i solves <conj(row), v> = 0 for the rows before it, whose reduced
    row echelon form grows by one row per step."""
    exp, log, zech = F._exp, F._log, F._zech
    rows: list = []
    rref: dict = {}
    for i in range(n):
        basis = _null_basis(F, rref, n)
        # each later row reads at least one candidate, of its null dimension
        ahead = later + (n - 1 - i) * (n - i) // 2
        while True:
            v = _combine(F, coeffs.take(len(basis), ahead), basis, n)
            s = 0                                    # <v, v>, summed as in _combine
            for x in v:
                if x:
                    t = norm[x]
                    if s:
                        z = zech[log[t] - log[s]]
                        t = exp[log[s] + z] if z >= 0 else 0
                    s = t
            if s == 1:
                rows.append(v)
                if i < n - 1:
                    _extend_rref(F, rref, [conj[x] for x in v], n)
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

    ADD, MUL, NEG = F.ADD, F.MUL, F.NEG
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
        s = MUL[ADD[1, NEG[fu]], c0]
        w = ADD[u, MUL[s[:, None], basis[lanes, j0]]]
        g[:, :, i] = v
        g[:, :, r + i] = w
        conds = np.concatenate([conds, fv[:, None, :], functional(w)[:, None, :]], axis=1)
    return g
