"""Exact element orders of matrices over F_q, scalar and batched.

Every order divides B = p^ceil(log_p n) * lcm(q^i - 1, i <= n), so orders are
computed from B rather than by iterating powers: for each prime power r^e || B
the matrix T = X^(B / r^e) has order r^j with j minimal such that T^(r^j) is
trivial, and the order is the product of those r^j. B is factored one
cyclotomic value Phi_e(q), e <= n, at a time (order_bound_fact), never whole,
and within a budget of rho steps, FACTOR_STEPS, past which it refuses.

The T are reached down a product tree over the prime powers of B, so that
they share their squarings. A node for a set S of primes holds
Y = X^(B / prod_S r^e); it splits S into halves L and R, where prod_L r^e and
prod_R r^e are closest in size, and hands Y^(prod_R r^e) to L and
Y^(prod_L r^e) to R. Both powers come from one square-and-multiply chain of
Y (batch.mat_pows), so they share its squarings: over a GL_5(3) sample the
tree makes 38.7 products per matrix, against 53.4 with a chain for each
power. Y is dropped once they exist. A leaf is a single T, raised to the r-th
power until it is trivial. Lanes whose Y is already trivial (the identity,
or a scalar when projective) have order coprime to S and leave the tree
there.

Y is always an (L, n, n) stack, compacted with Y[live]; batch.mat_mul picks
the memory layout of each product (lanes last from LANE_MIN = 256 matrices
on), and the identity and scalar tests read Y through the (n^2, L) view that
a lanes-last product makes free. Where batch.packed_field has a packed
domain for (p, m, n) (its docstring says which it admits), orders_batch
encodes X into it once and the whole tree runs there: every product is one
integer dot and one exact reduction, and the identity and scalar tests hold
unchanged, since the packing keeps 0 and 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..arith import Factorization, FactorBudgetError, cyclotomic_values, factorize, remember
from .batch import (det_inv_batch, is_identity_batch, is_scalar_batch,
                    mat_mul, mat_pow, mat_pows, packed_field, transpose)
from .field import FiniteField


# Pollard rho steps that one order_bound_fact may take in all, a few seconds.
# PSL_74(3), the largest linear n with a closed form over F_3, takes 4,757,334
# from an empty factor memo
FACTOR_STEPS = 1 << 23


@lru_cache(maxsize=None)
def order_bound_fact(n: int, q: int, p: int) -> Factorization:
    """The factorization of the order bound B of GL_n(q), q a power of p,
    entered in the factorize memo. It is put together from the Phi_e(q),
    e <= n, each far smaller than B: q^i - 1 is the product of the Phi_e(q)
    with e | i, and a prime's exponent in the lcm is the largest of its
    exponents in those products. p divides no Phi_e(q) and keeps p^t."""
    budget, parts = [FACTOR_STEPS], []
    for e, x in enumerate(cyclotomic_values(q, n), 1):
        try:
            parts.append(dict(factorize(x, budget)))
        except FactorBudgetError:
            raise FactorBudgetError(f"the order bound of n = {n} needs Phi_{e}({q}) factored, "
                                    f"past its budget of {FACTOR_STEPS} rho steps") from None
    exps: dict = {}
    for i in range(1, n + 1):
        here: dict = {}
        for e in range(1, i + 1):
            if i % e == 0:
                for r, k in parts[e - 1].items():
                    here[r] = here.get(r, 0) + k
        for r, k in here.items():
            exps[r] = max(exps.get(r, 0), k)
    t = 0
    while p ** t < n:
        t += 1
    if t:
        exps[p] = t
    return remember(Factorization(tuple(sorted(exps.items()))))


def orders_batch(F: FiniteField, X: np.ndarray, bound: Factorization,
                 projective: bool = False) -> np.ndarray:
    """Orders of X in GL (projective=False) or PGL (projective=True). Every
    order divides the bound, so they are int64 while it is below 2^62 (the
    doubled orders of tau_coset_orders_batch fit too) and Python ints, in an
    object array, otherwise."""
    trivial = is_scalar_batch if projective else is_identity_batch
    out = np.ones(X.shape[0], np.int64 if bound.value < 2 ** 62 else object)
    packed = packed_field(F, X.shape[-1])
    if packed is not None:
        F, X = packed, packed.encode(X)
    _order_tree(F, X, np.arange(X.shape[0]), list(bound), trivial, out)
    return out


def _order_tree(F, Y, lanes, primes, trivial, out):
    """Multiply into out[lanes] the orders' parts at primes, where
    Y = X^(B / prod of r^e over primes). Lanes already trivial drop out."""
    live = ~trivial(F, Y)
    if not live.all():
        Y, lanes = Y[live], lanes[live]
    if not len(lanes):
        return
    if len(primes) > 1:
        powers = [r ** e for r, e in primes]
        total = math.prod(powers)
        # math.log takes ints of any size; a quotient past 1.8e308 would not
        # fit the float that a division makes
        half = min(range(1, len(primes)),
                   key=lambda h: abs(math.log(total) - 2 * math.log(math.prod(powers[:h]))))
        left = math.prod(powers[:half])
        # both children from one squaring chain; without Y the peak stays at
        # two stacks per level of the tree
        below = mat_pows(F, Y, (total // left, left))
        del Y
        _order_tree(F, below.pop(0), lanes, primes[:half], trivial, out)
        _order_tree(F, below.pop(), lanes, primes[half:], trivial, out)
        return
    (r, e), = primes
    for _ in range(e):
        Y = mat_pow(F, Y, r)
        out[lanes] *= r
        live = ~trivial(F, Y)
        if not live.any():
            return
        Y, lanes = Y[live], lanes[live]
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
