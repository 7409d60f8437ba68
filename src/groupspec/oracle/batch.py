"""Vectorized matrix arithmetic over a table-backed finite field.

Matrices are numpy int16 arrays of shape (..., n, n) whose entries are field
encodings. Prime fields take the integer path. A product is an int16 np.matmul
reduced through the field's table MOD[x] = x % p whenever n (p-1)^2 < 2^15,
so that no sum overflows; elimination keeps its matrices in int16 and reduces
through MOD whenever p^2 <= 2^15. Wider cases multiply in int64 and eliminate
in int32, reducing with % p. The width follows from n and p alone, and all of
it is exact integer arithmetic.

A product over a proper extension F_{p^m} is one integer np.matmul by
Kronecker substitution (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput., 2009). The digits of
an encoding become the digits of an integer in base B = n m (p-1)^2 + 1, which
bounds every coefficient of an inner product of polynomials, so the packed
product carries nothing between digits. Its low m digits and its high m - 1
digits each go through one table to a field element, and one ADD gather joins
them. This holds while B^m <= KRONECKER_LIMIT = 2^17: F_9 up to n = 45, F_25
up to n = 11, F_27 up to n = 4, F_49 up to n = 5, F_81 to F_169 at n = 1 only,
and no field from F_243 on. The product is int16 when its largest entry, n
times the square of the packed q - 1, is below 2^15 (F_9 up to n = 4, F_25 at
n = 1) and int32 otherwise. Every other case gathers from the MUL and ADD
tables term by term. Elimination over an extension gathers from MUL/ADD/SUB.
Determinants alone use forward elimination below each pivot; inverses use the
full Gauss-Jordan sweep. Ranks and null spaces share one reduced row echelon
sweep whose pivot columns differ from lane to lane.
"""

from __future__ import annotations

import functools

import numpy as np

from ..arith import UsageError
from .field import KRONECKER_LIMIT, NARROW, FiniteField, poly_divmod


def _require_tables(F: FiniteField):
    if not F.tables:
        raise UsageError(f"field of size {F.q} is too large for the matrix oracle")


def identity_batch(F: FiniteField, n: int, count: int) -> np.ndarray:
    out = np.zeros((count, n, n), np.int16)
    rng = np.arange(n)
    out[:, rng, rng] = 1
    return out


@functools.cache
def _kronecker(p: int, m: int, modulus: tuple, n: int):
    """Tables (K, B^m, LO, HI) for n x n products over F_{p^m} by Kronecker
    substitution, or None when B^m > KRONECKER_LIMIT. Cached per field and n:
    make_field builds a fresh field object for every call.

    K[e] is the encoding e = sum d_i p^i read in base B = n m (p-1)^2 + 1.
    A packed product P = hi B^m + lo holds the coefficients of x^0 .. x^(2m-2)
    as its base-B digits. LO[lo] is q times the encoding of the low m digits
    mod p, a row offset into the flattened ADD; HI[hi] is the encoding of the
    high m - 1 digits mod p, reduced mod the modulus.
    """
    base = n * m * (p - 1) ** 2 + 1
    split = base ** m
    if split > KRONECKER_LIMIT:
        return None

    def digits(x, radix, count):
        return [x // radix ** i % radix for i in range(count)]

    q = p ** m
    assert q * q <= NARROW                 # LO holds q times an encoding
    K = sum(d * base ** i for i, d in enumerate(digits(np.arange(q), p, m)))
    # the largest packed product: every digit of both factors p - 1
    peak = n * int(K[q - 1]) ** 2
    assert peak < 1 << 31
    dtype = np.int16 if peak < NARROW else np.int32
    lo = digits(np.arange(split), base, m)
    LO = q * sum(d % p * p ** i for i, d in enumerate(lo))
    # x^(m+t) mod the modulus, for t = 0 .. m - 2, as coefficient rows
    Fp = FiniteField(p, tables=False)
    rows = np.zeros((m - 1, m), np.int64)
    for t in range(m - 1):
        rem = poly_divmod(Fp, (0,) * (m + t) + (1,), modulus)[1]
        rows[t, :len(rem)] = rem
    hi = np.stack(digits(np.arange(base ** (m - 1)), base, m - 1), axis=1) % p
    HI = (hi @ rows % p) @ p ** np.arange(m)
    return (K.astype(dtype), dtype(split),
            LO.astype(np.int16), HI.astype(np.int16))


def mat_mul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    _require_tables(F)
    n = A.shape[-1]
    if F.m == 1:
        p = F.p
        if n * (p - 1) ** 2 < NARROW:
            return F.MOD.take(A @ B)
        prod = A.astype(np.int64) @ B.astype(np.int64)
        return (prod % p).astype(np.int16)
    kron = _kronecker(F.p, F.m, F.modulus, n)
    if kron is not None:
        K, split, LO, HI = kron
        P = K.take(A) @ K.take(B)
        hi = P // split
        P -= hi * split                    # the low m digits
        index = LO.take(P)
        index += HI.take(hi)
        return F.ADD.take(index)
    BT = np.swapaxes(B, -1, -2)
    terms = F.MUL[A[..., :, None, :], BT[..., None, :, :]]
    out = terms[..., 0]
    for k in range(1, n):
        out = F.ADD[out, terms[..., k]]
    return out


def mat_pow(F: FiniteField, A: np.ndarray, e: int) -> np.ndarray:
    """A^e by square-and-multiply; always a fresh array, never A itself."""
    if e < 0:
        raise UsageError("negative matrix power")
    if e == 0:
        if A.ndim == 3:
            return identity_batch(F, A.shape[-1], A.shape[0])
        return np.eye(A.shape[-1], dtype=np.int16)
    out = None
    base = A
    while True:
        if e & 1:
            out = base if out is None else mat_mul(F, out, base)
        e >>= 1
        if not e:
            return out.copy() if out is A else out
        base = mat_mul(F, base, base)


def transpose(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def is_identity_batch(F: FiniteField, X: np.ndarray) -> np.ndarray:
    n = X.shape[-1]
    eye = np.zeros((n, n), np.int16)
    eye[np.arange(n), np.arange(n)] = 1
    return (X == eye).all(axis=(-2, -1))


def is_scalar_batch(F: FiniteField, X: np.ndarray) -> np.ndarray:
    """Nonzero scalar matrices."""
    n = X.shape[-1]
    rng = np.arange(n)
    diag = X[..., rng, rng]
    off = X.copy()
    off[..., rng, rng] = 0
    return ((off == 0).all(axis=(-2, -1))
            & (diag == diag[..., :1]).all(axis=-1)
            & (diag[..., 0] != 0))


def _narrow(F: FiniteField) -> bool:
    """Whether elimination over F stays in int16: always through the tables of
    a proper extension, and through MOD when p^2 <= 2^15."""
    return F.m > 1 or F.p * F.p <= NARROW


def _field_ops(F: FiniteField):
    """(add, mul, msub) on arrays of encodings, msub(a, f, b) = a - f b.

    Prime fields with p^2 <= 2^15 work in int16 and reduce through MOD;
    msub adds p (p - 1) to keep its index in [0, p^2). Wider prime fields use
    int32 arithmetic mod p. Proper extensions gather from ADD/MUL/SUB."""
    if F.m == 1:
        p = F.p
        if _narrow(F):
            MOD, lift = F.MOD, p * (p - 1)
            return (lambda a, b: MOD.take(a + b), lambda a, b: MOD.take(a * b),
                    lambda a, f, b: MOD.take(a - f * b + lift))
        return (lambda a, b: (a + b) % p, lambda a, b: a * b % p,
                lambda a, f, b: (a - f * b) % p)
    return (lambda a, b: F.ADD[a, b], lambda a, b: F.MUL[a, b],
            lambda a, f, b: F.SUB[a, F.MUL[f, b]])


def det_inv_batch(F: FiniteField, A: np.ndarray, need_inv: bool = True):
    """Determinants, and inverses when need_inv, by batched elimination.

    Returns (det, inv, ok); inv is None unless need_inv. Determinants alone
    need only forward elimination below each pivot; inverses need the full
    Gauss-Jordan sweep. A zero pivot gets the first row below it with a
    nonzero entry in that column added in, which changes neither det nor
    inverse. Singular lanes get det 0 and garbage in inv; ok is the
    nonsingular mask.
    """
    _require_tables(F)
    add, mul, msub = _field_ops(F)
    M = np.array(A, np.int16 if _narrow(F) else np.int32, copy=True)
    B, n, _ = M.shape
    inv = identity_batch(F, n, B).astype(M.dtype) if need_inv else None
    det = np.ones(B, M.dtype)
    for col in range(n):
        rel = np.argmax(M[:, col:, col] != 0, axis=1)
        fix = np.flatnonzero(rel)
        if len(fix):
            src = col + rel[fix]
            M[fix, col, col:] = add(M[fix, col, col:], M[fix, src, col:])
            if need_inv:
                inv[fix, col] = add(inv[fix, col], inv[fix, src])
        pv = M[:, col, col]
        det = mul(det, pv)                   # a lane with no pivot gets det 0
        ipv = F.INV[pv]                      # INV[0] = 0 keeps dead lanes typed
        if not need_inv:
            fac = mul(M[:, col + 1:, col], ipv[:, None])
            M[:, col + 1:, col + 1:] = msub(M[:, col + 1:, col + 1:], fac[:, :, None],
                                            M[:, col:col + 1, col + 1:])
            continue
        M[:, col] = mul(ipv[:, None], M[:, col])
        inv[:, col] = mul(ipv[:, None], inv[:, col])
        fac = M[:, :, col].copy()
        fac[:, col] = 0
        M = msub(M, fac[:, :, None], M[:, col:col + 1, :])
        inv = msub(inv, fac[:, :, None], inv[:, col:col + 1, :])
    det = det.astype(np.int16, copy=False)
    return det, inv.astype(np.int16, copy=False) if need_inv else None, det != 0


def det_batch(F: FiniteField, A: np.ndarray) -> np.ndarray:
    det, _, _ = det_inv_batch(F, A, need_inv=False)
    return det


def _rref_batch(F: FiniteField, A: np.ndarray):
    """Reduced row echelon forms of a (B, k, n) batch, by Gauss-Jordan with a
    pivot-row pointer per lane, since pivot columns differ from lane to lane.

    Returns (M, pivots, rank): row j < rank[b] of lane b has its leading 1 in
    column pivots[b, j]. A lane whose pivot row is zero in the column gets
    the first row below it with a nonzero entry there added in.
    """
    _require_tables(F)
    add, mul, msub = _field_ops(F)
    M = np.array(A, np.int16 if _narrow(F) else np.int32, copy=True)
    B, k, n = M.shape
    lanes = np.arange(B)
    prow = np.zeros(B, np.intp)
    pivots = np.zeros((B, k), np.intp)
    for col in range(n):
        cand = (M[:, :, col] != 0) & (np.arange(k) >= prow[:, None])
        live = lanes[cand.any(axis=1)]
        if not len(live):
            continue
        P, pr = M[live], prow[live]
        idx = np.arange(len(live))
        src = np.argmax(cand[live], axis=1)
        lead = P[idx, pr]
        fix = np.flatnonzero(src != pr)
        lead[fix] = add(lead[fix], P[fix, src[fix]])
        lead = mul(F.INV[lead[:, col]][:, None], lead)
        P = msub(P, P[:, :, col, None], lead[:, None, :])
        P[idx, pr] = lead                    # its own row cleared itself
        M[live] = P
        pivots[live, pr] = col
        prow[live] += 1
    return M, pivots, prow


def nullspace_batch(F: FiniteField, A: np.ndarray) -> np.ndarray:
    """Bases of the null spaces {v : A v = 0} of a (B, k, n) batch whose lanes
    each have full row rank k, as a (B, n - k, n) batch.

    Row t of a lane's basis belongs to its t-th free column f, in ascending
    order: it is e_f minus, at each pivot column, the entry in column f of
    that pivot's row of the reduced row echelon form. That form is unique,
    so the basis does not depend on how the pivots were found.
    """
    M, pivots, rank = _rref_batch(F, A)
    B, k, n = M.shape
    assert (rank == k).all(), "nullspace_batch needs full row rank"
    lanes = np.arange(B)
    free = np.ones((B, n), bool)
    free[lanes[:, None], pivots] = False
    fcols = np.nonzero(free)[1].reshape(B, n - k)
    t = np.arange(n - k)
    out = np.zeros((B, n - k, n), np.int16)
    out[lanes[:, None], t, fcols] = 1
    # the RREF entries in the free columns, negated, go to the pivot columns
    out[lanes[:, None, None], t, pivots[:, :, None]] = F.NEG[
        np.take_along_axis(M, fcols[:, None, :], axis=2)]
    return out


def rank_batch(F: FiniteField, A: np.ndarray) -> np.ndarray:
    return _rref_batch(F, A)[2]


def encode_batch(X: np.ndarray, q: int) -> np.ndarray:
    """Pack matrices into int64 keys (row-major digits base q)."""
    n2 = X.shape[-1] * X.shape[-2]
    if q ** n2 > 2 ** 62:
        raise UsageError("matrices too large to pack into int64 keys")
    w = (q ** np.arange(n2, dtype=np.int64))
    flat = X.reshape(X.shape[:-2] + (n2,)).astype(np.int64)
    return flat @ w


def decode_batch(keys: np.ndarray, q: int, n: int) -> np.ndarray:
    k = np.array(keys, np.int64, copy=True)
    out = np.empty(k.shape + (n * n,), np.int16)
    for j in range(n * n):
        out[..., j] = (k % q).astype(np.int16)
        k //= q
    return out.reshape(k.shape + (n, n))
