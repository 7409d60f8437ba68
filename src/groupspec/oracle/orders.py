"""Exact element orders of matrices over F_q, scalar and batched.

Every order divides B = p^ceil(log_p n) * lcm(q^i - 1, i <= n), so orders are
computed from B rather than by iterating powers: for each prime power r^e || B
the matrix T = X^(B / r^e) has order r^j with j minimal such that T^(r^j) is
trivial, and the order is the product of those r^j.

The T are reached down a product tree over the prime powers of B, so that
they share their squarings. A node for a set S of primes holds
Y = X^(B / prod_S r^e); it splits S into halves L and R, where prod_L r^e and
prod_R r^e are closest in size, and hands Y^(prod_R r^e) to L and
Y^(prod_L r^e) to R. A leaf is a single T, raised to the r-th power until it
is trivial. Lanes whose Y is already trivial (the identity, or a scalar when
projective) have order coprime to S and leave the tree there.

The layout of Y follows its live lane count L alone. From LANE_MIN = 256
lanes on, Y is stacked lanes last, (n, n, L), multiplied with lane_mul and
compacted along its last axis; below LANE_MIN it is (L, n, n) and multiplied
with mat_mul. A node whose lanes fall under LANE_MIN transposes Y once, and
its subtree stays in (L, n, n), since lanes only leave. The crossover was
measured on a 2-core VM, best of 15, MOD reduction included: a product over
F_3 of 4,096 5x5 matrices took 0.23 ms lanes last against 0.77 ms with
np.matmul, while at 64 lanes lanes last lost, 0.022 ms against 0.015 ms, its
n Python-level broadcasts outweighing one np.matmul call; for n = 2 to 6 the
two meet between 128 and 256 lanes. Over whole oracle passes, 256 beat 128
and 512.
"""

from __future__ import annotations

import math

import numpy as np

from ..arith import Factorization, factorize, lcm_list
from .batch import (det_inv_batch, is_identity_batch, is_scalar_batch,
                    lane_mul, mat_mul, mat_pow, transpose)
from .field import FiniteField


# From this many live lanes on, the order tree stacks its matrices lanes last,
# (n, n, L), and multiplies with lane_mul; below it, as (L, n, n) with
# mat_mul, whose one np.matmul call beats lane_mul's n Python-level
# broadcasts on few lanes.
LANE_MIN = 256


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
    count = X.shape[0]
    out = np.ones(count, np.int64)
    if count >= LANE_MIN:
        X = np.ascontiguousarray(np.moveaxis(X, 0, -1))
    _order_tree(F, X, np.arange(count), list(bound), projective, out)
    return out


def _trivial(F, Y, count, projective):
    """Which of the count lanes of Y hold the identity, or when projective a
    nonzero scalar: Y equals Y[0, 0] E."""
    if count < LANE_MIN:
        return (is_scalar_batch if projective else is_identity_batch)(F, Y)
    n = Y.shape[0]
    flat = Y.reshape(n * n, count)
    eye = np.eye(n, dtype=np.int16).reshape(n * n, 1)
    if not projective:
        return (flat == eye).all(axis=0)
    return (flat == flat[0] * eye).all(axis=0) & (flat[0] != 0)


def _keep(Y, lanes, live):
    """Y and lanes restricted to the live lanes, in the layout of their new
    count: a lanes-last stack that falls under LANE_MIN goes back to
    (L, n, n)."""
    if len(lanes) < LANE_MIN:
        return Y[live], lanes[live]
    lanes = lanes[live]
    if len(lanes) >= LANE_MIN:
        return Y[..., live], lanes
    return np.ascontiguousarray(np.moveaxis(Y[..., live], -1, 0)), lanes


def _mul(count):
    """The product for a stack of count lanes."""
    return lane_mul if count >= LANE_MIN else mat_mul


def _order_tree(F, Y, lanes, primes, projective, out):
    """Multiply into out[lanes] the orders' parts at primes, where
    Y = X^(B / prod of r^e over primes). Lanes already trivial drop out."""
    live = ~_trivial(F, Y, len(lanes), projective)
    if not live.all():
        Y, lanes = _keep(Y, lanes, live)
    if not len(lanes):
        return
    if len(primes) > 1:
        powers = [r ** e for r, e in primes]
        total = math.prod(powers)
        half = min(range(1, len(primes)),
                   key=lambda h: abs(math.log(total / math.prod(powers[:h]) ** 2)))
        left = math.prod(powers[:half])
        mul = _mul(len(lanes))
        _order_tree(F, mat_pow(F, Y, total // left, mul), lanes, primes[:half],
                    projective, out)
        _order_tree(F, mat_pow(F, Y, left, mul), lanes, primes[half:], projective, out)
        return
    (r, e), = primes
    for _ in range(e):
        Y = mat_pow(F, Y, r, _mul(len(lanes)))
        out[lanes] *= r
        live = ~_trivial(F, Y, len(lanes), projective)
        if not live.any():
            return
        if not live.all():
            Y, lanes = _keep(Y, lanes, live)
    raise AssertionError("order exceeds its bound")  # unreachable


def tau_images(F: FiniteField, X: np.ndarray) -> np.ndarray:
    """Y = g g^-T for each g in X: the graph-coset element g tau has order
    2 |Y Z|, so g with one Y share that order."""
    det, inv, ok = det_inv_batch(F, X)
    if not ok.all():
        raise ValueError("tau coset orders need invertible matrices")
    return mat_mul(F, X, transpose(inv))


def tau_coset_orders_batch(F: FiniteField, X: np.ndarray,
                           bound: Factorization) -> np.ndarray:
    """Orders 2 * |g g^-T| of the graph-coset elements g tau, projectively."""
    return 2 * orders_batch(F, tau_images(F, X), bound, projective=True)
