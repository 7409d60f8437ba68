"""Exact element orders of matrices over F_q, scalar and batched.

Every order divides B = p^ceil(log_p n) * lcm(q^i - 1, i <= n), so orders are
computed by peeling primes off B rather than by iterating powers: for each
prime power r^e || B the matrix T = X^(B / r^e) has order r^j with j minimal
such that T^(r^j) is trivial, and the order is the product of those r^j.
"""

from __future__ import annotations

import numpy as np

from ..arith import Factorization, factorize, lcm_list
from .batch import (det_inv_batch, is_identity_batch, is_scalar_batch,
                    mat_mul, mat_pow, transpose)
from .field import FiniteField


def order_bound(n: int, q: int, p: int) -> int:
    t = 0
    while p ** t < n:
        t += 1
    return p ** t * lcm_list([q ** i - 1 for i in range(1, n + 1)])


def order_bound_fact(n: int, q: int, p: int) -> Factorization:
    return factorize(order_bound(n, q, p))


def orders_batch(F: FiniteField, X: np.ndarray, bound: Factorization,
                 projective: bool = False) -> np.ndarray:
    """Orders of X in GL (projective=False) or PGL (projective=True)."""
    trivial = is_scalar_batch if projective else is_identity_batch
    B = bound.value
    out = np.ones(X.shape[0], np.int64)
    for r, e in bound:
        cur = mat_pow(F, X, B // r ** e)
        for _ in range(e):
            notdone = ~trivial(F, cur)
            if not notdone.any():
                break
            idx = np.nonzero(notdone)[0]
            cur[idx] = mat_pow(F, cur[idx], r)
            out[idx] *= r
        else:
            if not trivial(F, cur).all():
                raise AssertionError("order exceeds its bound")  # unreachable
    return out


def matrix_orders_batch(F, X, bound):
    return orders_batch(F, X, bound, projective=False)


def projective_orders_batch(F, X, bound):
    return orders_batch(F, X, bound, projective=True)


def matrix_order(F: FiniteField, g: np.ndarray, bound: Factorization) -> int:
    return int(orders_batch(F, g[None], bound)[0])


def projective_order(F: FiniteField, g: np.ndarray, bound: Factorization) -> int:
    return int(orders_batch(F, g[None], bound, projective=True)[0])


def tau_coset_orders_batch(F: FiniteField, X: np.ndarray,
                           bound: Factorization) -> np.ndarray:
    """Orders 2 * |g g^-T| of the graph-coset elements g tau, projectively."""
    det, inv, ok = det_inv_batch(F, X)
    if not ok.all():
        raise ValueError("tau coset orders need invertible matrices")
    Y = mat_mul(F, X, transpose(inv))
    return 2 * projective_orders_batch(F, Y, bound)


def frob_mat(F: FiniteField, g: np.ndarray, times: int = 1) -> np.ndarray:
    out = g
    for _ in range(times % F.m if F.m > 1 else 1):
        out = F.FROB[out]
    return out


def twisted_field_coset_order(F: FiniteField, g: np.ndarray, k: int,
                              bound: Factorization) -> int:
    """Order of (beta g) Z for a field automorphism beta of order k: it equals
    k * |N(g) Z| with N(g) = g^(sigma^(k-1)) ... g^sigma g, provided sigma^k
    fixes g (sigma = entrywise Frobenius x -> x^p ... applied m/k times)."""
    if F.m % k != 0:
        raise ValueError("k must divide the field degree")
    step = F.m // k
    if not np.array_equal(frob_mat(F, g, step * k), g):
        raise ValueError("matrix not fixed by sigma^k")
    N = g
    acc = g
    for _ in range(k - 1):
        acc = frob_mat(F, acc, step)
        N = mat_mul(F, acc, N)
    return k * projective_order(F, N, bound)
