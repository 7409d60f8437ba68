"""Conjugacy invariants over F_q and membership in the transpose-inverse image.

The set Gamma = {g g^-T : g in GL_n(q)} is characterized by three conditions
on h: h must be conjugate to h^-1 (equal invariant factors of zE - h and
zE - h^-1), the even Jordan block sizes at eigenvalue 1 must occur with even
multiplicity, and the odd block sizes at eigenvalue -1 must occur with even
multiplicity. det takes square values on the tau wing of the coset and
nonsquare values on the tau-delta wing, which is what det_square_class
reports.

Polynomials are little-endian tuples of field encodings.
"""

from __future__ import annotations

import numpy as np

from ..arith import UsageError
from .batch import det_inv_batch, mat_mul, rank_batch
from .field import FiniteField


# --- polynomial arithmetic over the field encodings -------------------------


def poly_trim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(F: FiniteField, a, b) -> tuple:
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.add(x, y))
    return poly_trim(out)


def poly_neg(F: FiniteField, a) -> tuple:
    return tuple(F.neg(x) for x in a)


def poly_mul(F: FiniteField, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(out)


def poly_divmod(F: FiniteField, a, b) -> tuple:
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(a))
    db = len(b) - 1
    ilead = F.inv(b[-1])
    quo = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = F.mul(a[-1], ilead)
        shift = len(a) - 1 - db
        quo[shift] = c
        for j in range(db + 1):
            a[shift + j] = F.sub(a[shift + j], F.mul(c, b[j]))
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quo), poly_trim(a)


def poly_mod(F, a, b):
    return poly_divmod(F, a, b)[1]


def poly_monic(F: FiniteField, a) -> tuple:
    a = poly_trim(a)
    if not a or a[-1] == 1:
        return a
    inv = F.inv(a[-1])
    return tuple(F.mul(inv, x) for x in a)


def poly_gcd(F: FiniteField, a, b) -> tuple:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_eval(F: FiniteField, a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_eval_mat(F: FiniteField, a, H: np.ndarray) -> np.ndarray:
    """a(H) for a batch H of matrices, Horner."""
    squeeze = H.ndim == 2
    if squeeze:
        H = H[None]
    B, n, _ = H.shape
    acc = np.zeros((B, n, n), np.int16)
    rng = np.arange(n)
    for c in reversed(a if a else (0,)):
        acc = mat_mul(F, acc, H)
        if c:
            acc[:, rng, rng] = F.ADD[acc[:, rng, rng], np.int16(c)]
    return acc[0] if squeeze else acc


# --- characteristic polynomial ----------------------------------------------


def charpoly(F: FiniteField, H: np.ndarray) -> tuple:
    """det(zE - H), monic degree n, by subset dynamic programming."""
    n = H.shape[0]
    ent = [[poly_trim((F.neg(int(H[r, c])), 1 if r == c else 0))
            for c in range(n)] for r in range(n)]
    D = {0: (1,)}
    for mask in sorted(range(1, 1 << n), key=lambda m: m.bit_count()):
        k = mask.bit_count() - 1          # row index being expanded
        acc: tuple = ()
        pos = 0
        for t in range(n):
            if not mask >> t & 1:
                continue
            term = poly_mul(F, ent[k][t], D[mask ^ (1 << t)])
            if (k + pos) % 2:
                term = poly_neg(F, term)
            acc = poly_add(F, acc, term)
            pos += 1
        D[mask] = acc
    return D[(1 << n) - 1]


def factor_charpoly(F: FiniteField, f) -> tuple:
    """Irreducible factorization ((poly, mult), ...) for deg <= 4."""
    f = poly_monic(F, f)
    factors: dict = {}

    def add(g):
        g = poly_monic(F, g)
        factors[g] = factors.get(g, 0) + 1

    rest = f
    # strip linear factors
    changed = True
    while changed and len(rest) > 1:
        changed = False
        for x in range(F.q):
            if poly_eval(F, rest, x) == 0:
                lin = (F.neg(x), 1)
                add(lin)
                rest = poly_divmod(F, rest, lin)[0]
                changed = True
                break
    deg = len(rest) - 1
    if deg <= 0:
        pass
    elif deg in (2, 3):
        add(rest)                          # rootless of degree 2 or 3
    elif deg == 4:
        split = False
        for c0 in range(F.q):
            for c1 in range(F.q):
                gq = (c0, c1, 1)
                if poly_eval(F, gq, 0) == 0:
                    continue
                if any(poly_eval(F, gq, x) == 0 for x in range(F.q)):
                    continue
                quo, rem = poly_divmod(F, rest, gq)
                if not rem:
                    add(gq)
                    add(quo)
                    split = True
                    break
            if split:
                break
        if not split:
            add(rest)
    else:
        raise UsageError("factorization implemented for degree <= 4 only")
    return tuple(sorted(factors.items()))


# --- invariant factors (Smith form over F_q[z]) ------------------------------


def invariant_factors(F: FiniteField, H: np.ndarray) -> tuple:
    """Nonconstant invariant factors of zE - H, monic, in divisibility order."""
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


# --- Jordan data at z -+ 1 and the membership test ---------------------------


def partition_at(F: FiniteField, H: np.ndarray, lam: int) -> dict:
    """Jordan partition of H at the eigenvalue lam: {block size: multiplicity}."""
    n = H.shape[0]
    shifted = H.copy()
    rng = np.arange(n)
    shifted[rng, rng] = F.SUB[shifted[rng, rng], np.int16(lam)]
    d = [0]                               # d_j = dim ker (H - lam)^j
    power = np.eye(n, dtype=np.int16)[None]
    for _ in range(1, n + 1):
        power = mat_mul(F, power, shifted[None])
        d.append(n - int(rank_batch(F, power)[0]))
        if d[-1] == d[-2]:
            break
    while len(d) < n + 2:
        d.append(d[-1])
    out = {}
    for j in range(1, n + 1):
        mj = 2 * d[j] - d[j - 1] - d[j + 1]
        if mj:
            out[j] = mj
    return out


def conjugate_to_inverse(F: FiniteField, H: np.ndarray) -> bool:
    det, inv, ok = det_inv_batch(F, H[None])
    if not ok[0]:
        raise UsageError("matrix is singular")
    return invariant_factors(F, H) == invariant_factors(F, inv[0])


def gamma_membership(F: FiniteField, H: np.ndarray) -> bool:
    """Whether H = g g^-T for some g in GL_n(q)."""
    if not conjugate_to_inverse(F, H):
        return False
    for size, mult in partition_at(F, H, 1).items():
        if size % 2 == 0 and mult % 2 != 0:
            return False
    for size, mult in partition_at(F, H, F.neg(1)).items():
        if size % 2 != 0 and mult % 2 != 0:
            return False
    return True


def det_square_class(F: FiniteField, g: np.ndarray) -> int:
    """+1 when det g is a square in F_q^*, -1 otherwise."""
    det, _, ok = det_inv_batch(F, g[None], need_inv=False)
    if not ok[0]:
        raise UsageError("matrix is singular")
    return 1 if int(F.LOG[det[0]]) % 2 == 0 else -1


# --- complete conjugacy fingerprint (for deduplicating Wall checks) ----------


def conjugacy_fingerprints(F: FiniteField, mats: np.ndarray) -> list:
    """Fingerprint per matrix: (charpoly, ((factor, ranks of f(H)^j), ...)).

    Two matrices in GL_n(q) are conjugate iff their fingerprints agree, since
    the rank sequence of f(H)^j over the irreducible factors f of the
    characteristic polynomial pins down the rational canonical form.
    """
    B, n, _ = mats.shape
    cps = [charpoly(F, mats[i]) for i in range(B)]
    by_cp: dict = {}
    for i, cp in enumerate(cps):
        by_cp.setdefault(cp, []).append(i)
    prints: list = [None] * B
    for cp, idx in by_cp.items():
        idx_arr = np.array(idx)
        sub = mats[idx_arr]
        fact = factor_charpoly(F, cp)
        rank_data = []
        for f, mult in fact:
            fH = poly_eval_mat(F, f, sub)
            ranks = []
            power = fH
            for _ in range(mult):
                ranks.append(rank_batch(F, power))
                power = mat_mul(F, power, fH)
            rank_data.append((f, np.stack(ranks, axis=1)))
        for row, i in enumerate(idx):
            fp = tuple((f, tuple(int(x) for x in ranks[row]))
                       for f, ranks in rank_data)
            prints[i] = (cp, fp)
    return prints
