"""Invariant factors over F_q[z] and membership in the transpose-inverse image.

The set Gamma = {g g^-T : g in GL_n(q)} is characterized by three conditions
on h (Wall, "On the conjugacy classes in the unitary, symplectic and
orthogonal groups", J. Austral. Math. Soc., 1963): h must be conjugate to
h^-1, the even Jordan block sizes at eigenvalue 1 must occur with even
multiplicity, and the odd block sizes at eigenvalue -1 must occur with even
multiplicity. det takes square values on the tau wing of the coset and
nonsquare values on the tau-delta wing, which is what det_square_class
reports.

All three conditions are read off the invariant factors d_1 | ... | d_k of
zE - h, which determine h up to conjugacy (the rational canonical form).
A cyclic h is similar to the companion matrix of its characteristic
polynomial chi_h, so chi_h is its only nonconstant invariant factor. Over a
field with tables, invariant_factors first tries each standard basis vector
e_s as a cyclic vector: it extends an echelon form by e_s, h e_s, ...,
h^(n-1) e_s, one vector at a time, through the field's exp, log and Zech
lists (oracle.field._combine), and when all n are independent the relation
that h^n e_s satisfies is chi_h. Every other matrix takes the Smith form of
zE - h: the derogatory ones, the cyclic ones none of whose basis vectors is
cyclic (diag(a, b) with a != b), and any matrix over a field without tables.
From the invariant factors:
- the invariant factors of zE - h^-1 are the monic reciprocals
  d*(z) = z^deg d d(1/z) / d(0) of the d_i, so h ~ h^-1 exactly when every
  d_i is its own monic reciprocal;
- h has one Jordan block of size e at the eigenvalue lam for each d_i that
  (z - lam)^e exactly divides.

Polynomials are little-endian tuples of field encodings, handled by the
kit in oracle.field. Of the 256 GL_3(3) matrices of perfbench's oracle_ext
gamma ops at seed 0 (every other one an image g g^-T), 22 take the Smith
form, 12 of them derogatory.
"""

from __future__ import annotations

import numpy as np

from ..arith import UsageError
from .batch import det_inv_batch
from .field import (FiniteField, _combine, poly_add, poly_div_linear, poly_divmod,
                    poly_monic, poly_mul, poly_neg, poly_trim)


# --- invariant factors: one Krylov basis, else the Smith form over F_q[z] ---


def invariant_factors(F: FiniteField, H: np.ndarray) -> tuple:
    """Nonconstant invariant factors of zE - H, monic, in divisibility order."""
    if F.tables:
        chi = _cyclic_factor(F, H)
        if chi is not None:
            return (chi,)
    return _smith_factors(F, H)


def _cyclic_factor(F: FiniteField, H: np.ndarray):
    """chi_H, read off the first standard basis vector e_s that is cyclic for
    H, or None when no e_s is. The rows [H^k e_s | e_k], of length 2n + 1,
    are reduced in order against the rows before them, each normalized at a
    pivot among the first n columns (an echelon form), so the tag part keeps
    the combination. A row that reduces to zero in its first n columns at
    k < n means e_s is not cyclic; at k = n it always does, and its tag is
    the relation sum_k c_k H^k e_s = 0 with c_n = 1, which is chi_H."""
    n = H.shape[0]
    cols = H.T.tolist()                          # H w = sum_j w_j (column j)
    exp, log, neg, inv = F._exp, F._log, F._neg, F._inv
    width = 2 * n + 1
    for s in range(n):
        rows: list = []
        w = [0] * n
        w[s] = 1
        for k in range(n + 1):
            v = w + [0] * (n + 1)
            v[n + k] = 1
            for c, r in rows:
                if v[c]:
                    v = _combine(F, (1, neg[v[c]]), (v, r), width)
            lead = next((c for c in range(n) if v[c]), None)
            if lead is None:
                break
            lp = log[inv[v[lead]]]
            rows.append((lead, [exp[lp + log[x]] if x else 0 for x in v]))
            w = _combine(F, w, cols, n)
        if k == n:
            return tuple(v[n:])
    return None


def _smith_factors(F: FiniteField, H: np.ndarray) -> tuple:
    """invariant_factors through the Smith form of zE - H over F_q[z]."""
    n = H.shape[0]
    P = [[poly_trim((F.neg(int(H[r, c])), 1 if r == c else 0))
          for c in range(n)] for r in range(n)]

    def deg(a):
        return len(a) - 1 if a else -1

    out = []
    for t in range(n):
        while True:
            # smallest-degree nonzero pivot into (t, t)
            best = None
            for r in range(t, n):
                for c in range(t, n):
                    if P[r][c] and (best is None or deg(P[r][c]) < deg(P[best[0]][best[1]])):
                        best = (r, c)
            if best is None:
                raise AssertionError("zE - H is nonsingular, pivot must exist")
            r0, c0 = best
            if r0 != t:
                P[t], P[r0] = P[r0], P[t]
            if c0 != t:
                for row in P:
                    row[t], row[c0] = row[c0], row[t]
            piv = P[t][t]
            dirty = False
            for r in range(t + 1, n):
                if P[r][t]:
                    quo = poly_divmod(F, P[r][t], piv)[0]
                    for c in range(t, n):
                        P[r][c] = poly_add(F, P[r][c], poly_neg(F, poly_mul(F, quo, P[t][c])))
                    if P[r][t]:
                        dirty = True
            for c in range(t + 1, n):
                if P[t][c]:
                    quo = poly_divmod(F, P[t][c], piv)[0]
                    for r in range(t, n):
                        P[r][c] = poly_add(F, P[r][c], poly_neg(F, poly_mul(F, quo, P[r][t])))
                    if P[t][c]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            fix = None
            for r in range(t + 1, n):
                for c in range(t + 1, n):
                    if P[r][c] and poly_divmod(F, P[r][c], piv)[1]:
                        fix = r
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            for c in range(t, n):
                P[t][c] = poly_add(F, P[t][c], P[fix][c])
        out.append(poly_monic(F, P[t][t]))
    return tuple(f for f in out if len(f) > 1)


# --- Jordan data, H ~ H^-1 and the membership test -------------------------


def _jordan_partition(F: FiniteField, facs: tuple, lam: int) -> dict:
    """{block size: multiplicity} at lam: the power of z - lam in each factor,
    peeled off one poly_div_linear at a time. Each factor divides the
    next, so the powers never fall along facs: the walk runs from the last
    factor and stops at the first power 0."""
    out: dict = {}
    for d in reversed(facs):
        e = 0
        while True:
            quo, rem = poly_div_linear(F, d, lam)
            if rem:
                break
            d, e = quo, e + 1
        if not e:
            break
        out[e] = out.get(e, 0) + 1
    return out


def partition_at(F: FiniteField, H: np.ndarray, lam: int) -> dict:
    """Jordan partition of H at the eigenvalue lam: {block size: multiplicity}."""
    return _jordan_partition(F, invariant_factors(F, H), lam)


def _self_reciprocal(F: FiniteField, facs: tuple) -> bool:
    """Whether each invariant factor equals its monic reciprocal (H ~ H^-1)."""
    # z divides det(zE - H), hence the last invariant factor, iff H is singular
    if facs and facs[-1][0] == 0:
        raise UsageError("matrix is singular")
    return all(d == poly_monic(F, d[::-1]) for d in facs)


def wall_check(F: FiniteField, H: np.ndarray) -> dict:
    """Wall's verdicts on H, all from its invariant factors: whether H ~ H^-1
    ("conjugate_to_inverse"), the Jordan partitions {block size: multiplicity}
    at 1 and at -1 ("partition_plus", "partition_minus") and whether H lies
    in Gamma ("in_gamma"): H ~ H^-1 and both partitions pass Wall's parity
    conditions."""
    facs = invariant_factors(F, H)
    cti = _self_reciprocal(F, facs)
    plus = _jordan_partition(F, facs, 1)
    minus = _jordan_partition(F, facs, F.neg(1))
    parities = (all(mult % 2 == 0 for size, mult in plus.items() if size % 2 == 0)
                and all(mult % 2 == 0 for size, mult in minus.items() if size % 2))
    return {"conjugate_to_inverse": cti, "partition_plus": plus,
            "partition_minus": minus, "in_gamma": cti and parities}


def gamma_membership(F: FiniteField, H: np.ndarray) -> bool:
    """Whether H = g g^-T for some g in GL_n(q)."""
    return wall_check(F, H)["in_gamma"]


def det_square_class(F: FiniteField, g: np.ndarray) -> int:
    """+1 when det g is a square in F_q^*, -1 otherwise."""
    det, _, ok = det_inv_batch(F, g[None], need_inv=False)
    if not ok[0]:
        raise UsageError("matrix is singular")
    return 1 if int(F.LOG[det[0]]) % 2 == 0 else -1
