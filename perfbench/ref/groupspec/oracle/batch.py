"""Vectorized matrix arithmetic over a table-backed finite field.

Matrices are numpy int16 arrays of shape (..., n, n) whose entries are field
encodings. Prime fields take the fast integer path through np.matmul; proper
extensions go through the MUL/ADD lookup tables.
"""

from __future__ import annotations

import numpy as np

from ..arith import UsageError
from .field import FiniteField


def _require_tables(F: FiniteField):
    if not F.tables:
        raise UsageError(f"field of size {F.q} is too large for the matrix oracle")


def identity_batch(F: FiniteField, n: int, count: int) -> np.ndarray:
    out = np.zeros((count, n, n), np.int16)
    rng = np.arange(n)
    out[:, rng, rng] = 1
    return out


def mat_mul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if F.m == 1:
        prod = A.astype(np.int64) @ B.astype(np.int64)
        return (prod % F.p).astype(np.int16)
    _require_tables(F)
    n = A.shape[-1]
    BT = np.swapaxes(B, -1, -2)
    terms = F.MUL[A[..., :, None, :], BT[..., None, :, :]]
    out = terms[..., 0]
    for k in range(1, n):
        out = F.ADD[out, terms[..., k]]
    return out


def mat_pow(F: FiniteField, A: np.ndarray, e: int) -> np.ndarray:
    if e < 0:
        raise UsageError("negative matrix power")
    out = identity_batch(F, A.shape[-1], A.shape[0]) if A.ndim == 3 else np.eye(A.shape[-1], dtype=np.int16)
    base = A
    while e:
        if e & 1:
            out = mat_mul(F, out, base)
        if e > 1:
            base = mat_mul(F, base, base)
        e >>= 1
    return out


def transpose(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def entrywise_power(F: FiniteField, A: np.ndarray, e: int) -> np.ndarray:
    _require_tables(F)
    return F.power_table(e)[A]


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


def det_inv_batch(F: FiniteField, A: np.ndarray, need_inv: bool = True):
    """Determinants and inverses by batched Gauss-Jordan.

    Returns (det, inv, ok). Singular lanes get det 0 and garbage in inv; ok
    is the nonsingular mask.
    """
    _require_tables(F)
    M = np.array(A, np.int16, copy=True)
    B, n, _ = M.shape
    lanes = np.arange(B)
    inv = identity_batch(F, n, B) if need_inv else None
    det = np.ones(B, np.int16)
    for col in range(n):
        block = M[:, col:, col]
        nz = block != 0
        rel = np.argmax(nz, axis=1)
        has = nz[lanes, rel]
        det[~has] = 0
        piv = col + rel
        swap = has & (rel > 0)
        if swap.any():
            sw = lanes[swap]
            pr = piv[swap]
            tmp = M[sw, pr].copy()
            M[sw, pr] = M[sw, col]
            M[sw, col] = tmp
            det[sw] = F.NEG[det[sw]]
            if need_inv:
                tmp = inv[sw, pr].copy()
                inv[sw, pr] = inv[sw, col]
                inv[sw, col] = tmp
        pv = M[:, col, col]
        det = F.MUL[det, pv]
        ipv = F.INV[pv]                      # INV[0] = 0 keeps dead lanes typed
        M[:, col, :] = F.MUL[ipv[:, None], M[:, col, :]]
        if need_inv:
            inv[:, col, :] = F.MUL[ipv[:, None], inv[:, col, :]]
        fac = M[:, :, col].copy()
        fac[:, col] = 0
        M = F.SUB[M, F.MUL[fac[:, :, None], M[:, col:col + 1, :]]]
        if need_inv:
            inv = F.SUB[inv, F.MUL[fac[:, :, None], inv[:, col:col + 1, :]]]
    return det, inv, det != 0


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
