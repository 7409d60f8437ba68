"""Vectorized matrix arithmetic over a table-backed finite field.

Matrices are numpy int16 arrays of shape (..., n, n) whose entries are field
encodings. Prime fields take the integer path. A product is an int16 np.matmul
reduced through the field's table MOD[x] = x % p whenever n (p-1)^2 < 2^15,
so that no sum overflows; elimination keeps its matrices in int16 and reduces
through MOD whenever p^2 <= 2^15. Wider cases multiply in int64 and eliminate
in int32, reducing with % p. The width follows from n and p alone, and all of
it is exact integer arithmetic. Proper extensions go through the MUL/ADD/SUB
lookup tables. Determinants alone use forward elimination below each pivot;
inverses use the full Gauss-Jordan sweep.
"""

from __future__ import annotations

import numpy as np

from ..arith import UsageError
from .field import NARROW, FiniteField


def _require_tables(F: FiniteField):
    if not F.tables:
        raise UsageError(f"field of size {F.q} is too large for the matrix oracle")


def identity_batch(F: FiniteField, n: int, count: int) -> np.ndarray:
    out = np.zeros((count, n, n), np.int16)
    rng = np.arange(n)
    out[:, rng, rng] = 1
    return out


def mat_mul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    _require_tables(F)
    if F.m == 1:
        p = F.p
        if A.shape[-1] * (p - 1) ** 2 < NARROW:
            return F.MOD.take(A @ B)
        prod = A.astype(np.int64) @ B.astype(np.int64)
        return (prod % p).astype(np.int16)
    n = A.shape[-1]
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


def rank_batch(F: FiniteField, A: np.ndarray) -> np.ndarray:
    _require_tables(F)
    M = np.array(A, np.int16, copy=True)
    B, rows, cols = M.shape
    lanes = np.arange(B)
    rank = np.zeros(B, np.int64)
    prow = np.zeros(B, np.int64)
    for col in range(cols):
        cand = (M[:, :, col] != 0) & (np.arange(rows)[None, :] >= prow[:, None])
        has = cand.any(axis=1)
        rel = np.argmax(cand, axis=1)
        sw = lanes[has]
        r0, r1 = prow[has], rel[has]
        tmp = M[sw, r1].copy()
        M[sw, r1] = M[sw, r0]
        M[sw, r0] = tmp
        pvals = M[lanes, np.minimum(prow, rows - 1), col]
        prow_row = F.MUL[F.INV[pvals][:, None], M[lanes, np.minimum(prow, rows - 1), :]]
        live = has & (prow < rows)
        M[lanes[live], prow[live], :] = prow_row[live]
        fac = M[:, :, col].copy()
        fac[lanes[live], prow[live]] = 0
        fac[~live] = 0
        M = F.SUB[M, F.MUL[fac[:, :, None], prow_row[:, None, :]]]
        rank[has] += 1
        prow[has] += 1
    return rank


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
