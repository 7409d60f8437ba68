"""Vectorized matrix arithmetic over a table-backed finite field.

Matrices are numpy int16 arrays of shape (..., n, n) whose entries are field
encodings; mat_mul multiplies them and picks the memory layout itself. Two
stacks of L >= LANE_MIN = 256 square matrices of one shape are multiplied
lanes last: the operands are laid out as C-contiguous (n, n, L) arrays and
the product is the sum over j of the broadcast products
A[:, j, None, :] B[None, j, :, :], n multiply-adds of contiguous lane
vectors, where np.matmul on (L, n, n) runs a generic loop per matrix. The
result is returned as the (L, n, n) view of the (n, n, L) product, so in a
chain of products (the squarings of mat_pows) only the first operand is
copied. Operands over F_{p^m} are copied too: handing their strided lanes
straight to the table gathers saved about 4% on the Kronecker path but cost
1.8x through MUL/ADD (F_81). Every other shape takes np.matmul. The two differ only in that sum:
widths, reductions and tables are shared. The crossover was measured on a
2-core VM, best of 15, MOD reduction included: a product over F_3 of 4,096
5x5 matrices took 0.23 ms lanes last against 0.77 ms with np.matmul, while
at 64 lanes lanes last lost, 0.022 ms against 0.015 ms, its n Python-level
broadcasts outweighing one np.matmul call; for n = 2 to 6 the two meet
between 128 and 256 lanes, and over whole oracle passes 256 beat 128 and 512.

Prime fields multiply integers. Entries are encodings in [0, p), so every
product of two entries and every partial sum of an inner product is an integer
of at most n (p-1)^2, in any order of summation. Below LANE_MIN matrices, from
n = FLOAT_MIN_N = 8 on and while n (p-1)^2 < FLOAT_EXACT = 2^53, np.matmul
runs in float64, the one type for which numpy calls BLAS. A float64 holds every
integer below 2^53 exactly, and BLAS forms an inner product from these
products and sums alone, so each of its roundings, fused multiply-adds
included, is exact: the result is the integer product whatever the blocking,
summation order or thread count. Every table field passes the bound: at
p = 2039 it holds for n < 2^31. The float64 product is then reduced like an
integer one. Otherwise a product is an int16 sum whenever n (p-1)^2 < 2^15,
so that no sum overflows, and an int64 sum reduced with % p beyond that.
Elimination keeps its matrices in int16 whenever p^2 <= 2^15, and works in
int32 with % p otherwise. The widths follow from n and p alone. The float64 crossover
was measured on a 2-core VM with one BLAS thread, median of 41 interleaved
runs, reduction included, over F_3, F_23 and F_2039: at n = 8 float64 was
level with the integer product at 4 matrices and 1.6-3x faster from 16 to
255, while a single matrix stayed 10-20% slower (about 1 us a product) up to
n = 12. Over the order trees of 64 to 200 sampled GL_8(3) and GL_8(23)
matrices it was 1.5-2.3x faster. Below n = 8 float64 won only from 16 to 64
matrices on.

Every int16 result over a prime field, a product or an elimination step
(add, mul and a - f b + p (p-1), whose entries are at most 2 (p-1), (p-1)^2
and p^2 - 1), and every uint8 product of the packed domain below, is reduced
by _reduce, the one reduction mod p, which knows the largest entry it can be
given and takes its limit, 2^15 or 2^8, from the dtype. From
REDUCE_MIN = 4096 entries on it divides by p with a multiply and a shift
(Granlund and Montgomery, "Division by invariant integers using
multiplication", PLDI 1994): x // p = (x m) >> s, then x - p (x // p), four
in-place ufunc calls. _barrett takes m = ceil(2^s / p) for the least shift s
that gives the right quotient for every x in [0, peak], checked one by one,
and keeps it only if peak m is below the limit, so that no intermediate
leaves the dtype; its answer is cached per (p, peak, limit). In int16 a
shift passes for products over F_3 up to n = 47, F_5 up to n = 10, F_7 up to
n = 5 and F_13 up to n = 2, and for the elimination products and msub only
over F_3, F_5, F_7, F_11, F_13 and F_19. Where none passes, and on arrays
below REDUCE_MIN entries, the result is instead gathered from a table: the
field's MOD[x] = x % p, shared by every field of that p, or a packed field's
T. On a 2-core VM, best of 15,
the gather took 99 us and the multiply-shift 33 us on 102,400 entries over
F_3 (peak 20), and 150 against 27 us over F_5; at 1,600 entries the gather
was 2.2-3.8 us against 2.9-5.3 us, and the two met near 3,200 entries, since
four ufunc calls cost about 2.5 us of fixed overhead against the gather's
0.6 us.

A product over a proper extension F_{p^m} is one integer product by
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
n = 1) and int32 otherwise. An int16 product decodes in one gather:
_kronecker tabulates D[P] = ADD[LO[P mod B^m] + HI[P div B^m]] over every
packed product P, at most 2^15 int16 entries, so the divmod and the LO, HI
and ADD gathers become D[P]; an int32 product keeps them, since its D would
be too large. Every other case gathers from the MUL and ADD
tables, one column of A against one row of B at a time. Elimination over an
extension gathers from MUL, ADD and NEG. Determinants alone use forward
elimination below each pivot; inverses use the full Gauss-Jordan sweep. Ranks and null spaces share one reduced row echelon
sweep whose pivot columns differ from lane to lane.

A chain of products can instead stay in a packed domain, which
packed_field(F, n) gives where (p, m, n) admits one, and which
orders.orders_batch encodes its stack into once. mat_mul and mat_pows take
the PackedField in place of F, and each product is one integer dot and one
exact reduction, whose result stays packed. Over F_{p^m} the domain is the
Kronecker packing K[e], where the packed product is int16 (F_9 up to n = 4,
F_25 at n = 1): one cached table T of at most 2^15 int16 entries maps each
packed product P to the packing of its element, T = K[D], so the D gather
and the next product's two K gathers of the plain path become one gather.
Over F_p it is uint8, where n (p-1)^2 < 2^8 and _barrett has constants below
2^8 (F_3 up to n = 5, with m = 11 and s = 5 from n = 2, and F_5 at n = 1): K
is the identity and a product is reduced by _reduce, whose table is
T[x] = x mod p.
K(0) = 0, K(1) = 1 and K is injective, so is_identity_batch and
is_scalar_batch read packed stacks unchanged; their identity takes the
stack's dtype, since an int16 one would promote every comparison. Every
other (p, m, n) stays plain. On a 2-core VM, best of 21, orders_batch took
3.3 ms against 8.4 ms on 4,096 SL_3(9) matrices and 6.2 ms against 7.6 ms on
4,096 GL_5(3) ones. Decoding to plain encodings after every product won
only 3% to 8%, and tables for int32 packed products (461k entries for
GU_3(5)) grew a worker's RSS by 6.5 MiB, so the domain stops at int16.

Elimination runs lanes last at every lane count: det_inv_batch copies its
input to a C-contiguous (n, n, B) array, so the pivot search, the zero-pivot
fix-up, the pivots and the row updates all work on contiguous lane vectors,
and inverses come back as the (B, n, n) view. Unlike the products it needs
no crossover. Against the (B, n, n) elimination on a 2-core VM, best of 41
interleaved runs: 2,760 5x5 determinants over F_3 took 0.63 ms against
1.41 ms, 11,232 3x3 inverses 1.85 ms against 6.05 ms, and F_9, F_25, F_191
and F_23 ran 1.7-2.4x faster; from 1 to 64 lanes the two stayed within 13%
of each other (0.06-0.26 ms a call). The reduced row echelon sweep keeps
its (B, k, n) layout.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from ..arith import UsageError
from .field import KRONECKER_LIMIT, NARROW, FiniteField, _prime_field, poly_divmod


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
    """Tables (K, B^m, LO, HI, D) for n x n products over F_{p^m} by Kronecker
    substitution, or None when B^m > KRONECKER_LIMIT. Cached per (p, m,
    modulus) and n, so every field object of one modulus shares them.

    K[e] is the encoding e = sum d_i p^i read in base B = n m (p-1)^2 + 1.
    A packed product P = hi B^m + lo holds the coefficients of x^0 .. x^(2m-2)
    as its base-B digits. LO[lo] is q times the encoding of the low m digits
    mod p, a row offset into the flattened ADD; HI[hi] is the encoding of the
    high m - 1 digits mod p, reduced mod the modulus. Where the packed
    product is int16, D[P] = ADD[LO[P mod B^m] + HI[P div B^m]] for every P
    up to the largest, peak, is the one decode table: at most 2^15 int16
    entries, made by adding the two digit rows mod p. D is None where the
    product is int32.
    """
    base = n * m * (p - 1) ** 2 + 1
    split = base ** m
    if split > KRONECKER_LIMIT:
        return None

    def digits(x, radix, count):
        """The base-radix digit rows of x, one column per digit."""
        return np.stack([x // radix ** i % radix for i in range(count)], axis=-1)

    q = p ** m
    assert q * q <= NARROW                 # LO holds q times an encoding
    K = digits(np.arange(q), p, m) @ base ** np.arange(m)
    # the largest packed product: every digit of both factors p - 1
    peak = n * int(K[q - 1]) ** 2
    assert peak < 1 << 31
    dtype = np.int16 if peak < NARROW else np.int32
    # x^(m+t) mod the modulus, for t = 0 .. m - 2, as coefficient rows
    Fp = _prime_field(p)
    rows = np.zeros((m - 1, m), np.int64)
    for t in range(m - 1):
        rem = poly_divmod(Fp, (0,) * (m + t) + (1,), modulus)[1]
        rows[t, :len(rem)] = rem
    # the field element of the low and of the high digits, as digit rows
    lo = digits(np.arange(split), base, m)
    lo %= p
    hi = digits(np.arange(base ** (m - 1)), base, m - 1) % p @ rows % p
    powers = p ** np.arange(m)
    D = None
    if dtype is np.int16:
        P = np.arange(peak + 1)
        top = P // split
        D = ((lo[P - top * split] + hi[top]) % p @ powers).astype(np.int16)
    return (K.astype(dtype), dtype(split), (q * (lo @ powers)).astype(np.int16),
            (hi @ powers).astype(np.int16), D)


# from this many matrices on, mat_mul multiplies lanes last (see above)
LANE_MIN = 256
# from this inner dimension on, prime-field products below LANE_MIN matrices
# go through float64 BLAS, exact while n (p-1)^2 < FLOAT_EXACT (see above)
FLOAT_MIN_N = 8
FLOAT_EXACT = 1 << 53
# from this many entries on, a reduction mod p multiplies and shifts
# instead of gathering from a table (see above)
REDUCE_MIN = 4096


@functools.cache
def _barrett(p: int, peak: int, limit: int = NARROW):
    """(m, s) with (x m) >> s == x // p for every x in [0, peak] and
    peak m < limit, or None when there is none: limit is 2^15 for int16
    arrays and 2^8 for the uint8 ones of a packed field. m = ceil(2^s / p),
    the least multiplier that can work for a shift s, and each s is checked
    on every x in [0, peak]."""
    if peak >= limit:                          # m >= 1 for every s
        return None
    x = np.arange(peak + 1, dtype=np.int64)
    s = 0
    while True:
        m = -(-(1 << s) // p)
        if peak * m >= limit:
            return None
        if ((x * m >> s) == x // p).all():
            return m, s
        s += 1


def _reduce(x: np.ndarray, p: int, peak: int, table: np.ndarray) -> np.ndarray:
    """x mod p for a fresh uint8 or int16 array x whose entries lie in
    [0, peak], peak below 2^8 or 2^15 by the dtype: from REDUCE_MIN entries
    on, where _barrett has constants (m, s) under that limit, in place by
    x - p ((x m) >> s), and otherwise by the gather table[x], the field's MOD
    or a packed field's T. m, s and p are Python ints, so no product widens."""
    mult = None
    if x.size >= REDUCE_MIN:
        mult = _barrett(p, peak, 1 << 8 if x.dtype == np.uint8 else NARROW)
    if mult is None:
        return table.take(x)
    m, s = mult
    t = x * m                                  # at most peak m < limit
    t >>= s                                    # x // p
    t *= p
    x -= t
    return x


@functools.cache
def _packing(p: int, m: int, modulus: tuple, n: int):
    """(K, T) for the packed products of n x n stacks over F_{p^m}, or None
    where products stay plain. K[e] is the packed encoding of e, and T[P] the
    packed element that a packed product P stands for, for every P up to the
    largest, peak. Over F_p, when peak = n (p-1)^2 < 2^8 and _barrett has
    uint8 constants for it: K is the identity in uint8 and T[x] = x mod p,
    the gather of _reduce. Over F_{p^m}, when the Kronecker product of
    _kronecker is int16: K is its packing and T = K[D], at most 2^15 int16
    entries."""
    if m == 1:
        peak = n * (p - 1) ** 2
        if _barrett(p, peak, 1 << 8) is None:
            return None
        return np.arange(p, dtype=np.uint8), (np.arange(peak + 1) % p).astype(np.uint8)
    kron = _kronecker(p, m, modulus, n)
    if kron is None or kron[4] is None:
        return None
    K, D = kron[0], kron[4]
    return K, K[D]


class PackedField:
    """F with its encodings packed for the products of n x n stacks, made by
    packed_field. encode(X) packs a stack once; mat_mul and mat_pows take
    the view in place of F, and multiply two packed stacks by one integer
    dot and one exact reduction, whose result stays packed: _reduce with T
    as its table over F_p, the gather T[P] over F_{p^m}. K(0) = 0, K(1) = 1
    and K is injective, so is_identity_batch and is_scalar_batch read packed
    stacks unchanged."""

    tables = True

    def __init__(self, F: FiniteField, K, T):
        self.p, self.m, self.q = F.p, F.m, F.q
        self.K, self.T = K, T

    def encode(self, X: np.ndarray) -> np.ndarray:
        return self.K.take(X)


def packed_field(F: FiniteField, n: int):
    """The PackedField of F for n x n products, or None where there is none.
    It admits F_p where n (p-1)^2 < 2^8 and _barrett has uint8 constants
    (F_3 up to n = 5, F_5 at n = 1), and F_{p^m} where the Kronecker product
    is int16 (F_9 up to n = 4, F_25 at n = 1); see the module docstring."""
    if not F.tables:
        return None
    found = _packing(F.p, F.m, F.modulus, n)
    return None if found is None else PackedField(F, *found)


def mat_mul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B for matrices stacked as (..., n, n), or rectangular ones; two
    stacks of LANE_MIN or more square matrices of one shape lanes last."""
    if A.ndim != 3 or A.shape != B.shape or A.shape[1] != A.shape[2] \
            or len(A) < LANE_MIN:
        return _product(F, A, B, lanes_last=False)
    # no copy for an operand that is a lanes-last product's (L, n, n) view
    At = np.ascontiguousarray(A.transpose(1, 2, 0))
    Bt = At if B is A else np.ascontiguousarray(B.transpose(1, 2, 0))
    return _product(F, At, Bt, lanes_last=True).transpose(2, 0, 1)


def _dot(A, B, lanes_last: bool, mul=operator.mul, add=operator.iadd):
    """The sum over j of mul(column j of A, row j of B), by add: an integer
    product, or one through the field tables. Lanes last, each term is a
    broadcast product of contiguous lane vectors; otherwise the terms are
    outer products of columns and rows."""
    if lanes_last:
        def term(j):
            return mul(A[:, j, None, :], B[None, j])
    else:
        def term(j):
            return mul(A[..., :, j, None], B[..., None, j, :])
    out = term(0)
    for j in range(1, A.shape[1 if lanes_last else -1]):
        out = add(out, term(j))
    return out


def _product(F: FiniteField, A: np.ndarray, B: np.ndarray, lanes_last: bool):
    _require_tables(F)
    n = A.shape[1 if lanes_last else -1]       # the inner dimension
    dot = functools.partial(_dot, lanes_last=True) if lanes_last else np.matmul
    if isinstance(F, PackedField):
        P = dot(A, B)
        return _reduce(P, F.p, len(F.T) - 1, F.T) if F.m == 1 else F.T.take(P)
    if F.m == 1:
        p = F.p
        peak = n * (p - 1) ** 2                # the largest entry of the sum
        if not lanes_last and n >= FLOAT_MIN_N and peak < FLOAT_EXACT:
            Af = A.astype(np.float64)
            P = np.matmul(Af, Af if B is A else B.astype(np.float64))
        elif peak < NARROW:
            return _reduce(dot(A, B), p, peak, F.MOD)
        else:
            P = dot(A.astype(np.int64), B.astype(np.int64))
        if peak < NARROW:
            return _reduce(P.astype(np.int16), p, peak, F.MOD)
        return (P.astype(np.int64) % p).astype(np.int16)
    kron = _kronecker(F.p, F.m, F.modulus, n)
    if kron is not None:
        K, split, LO, HI, D = kron
        P = dot(K.take(A), K.take(B))
        if D is not None:
            return D.take(P)
        hi = P // split
        P -= hi * split                    # the low m digits
        index = LO.take(P)
        index += HI.take(hi)
        return F.ADD.take(index)
    return _dot(A, B, lanes_last, lambda a, b: F.MUL[a, b], lambda a, b: F.ADD[a, b])


def mat_pows(F: FiniteField, A: np.ndarray, exps) -> list:
    """[A^e for e in exps] from one square-and-multiply chain: at bit i the
    base A^(2^i) is multiplied into the power of every exponent with bit i
    set, then squared once, so the exponents share their squarings. Each
    power is a fresh array, never A nor another power; a zeroth power is a
    (B, n, n) or single identity."""
    if any(e < 0 for e in exps):
        raise UsageError("negative matrix power")
    wanted = sorted(set(exps))
    powers = {}
    base = A
    for i in range(max(wanted).bit_length()):
        if i:
            base = mat_mul(F, base, base)
        for e in wanted:
            if e >> i & 1:
                powers[e] = mat_mul(F, powers[e], base) if e in powers else base
    out = []
    for e in exps:
        if e == 0:
            out.append(identity_batch(F, A.shape[-1], A.shape[0]) if A.ndim == 3
                       else np.eye(A.shape[-1], dtype=np.int16))
            continue
        X = powers[e]
        out.append(X.copy() if X is A or any(X is Y for Y in out) else X)
    return out


def mat_pow(F: FiniteField, A: np.ndarray, e: int) -> np.ndarray:
    """A^e; always a fresh array, never A itself."""
    return mat_pows(F, A, (e,))[0]


def transpose(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def _flat_lanes(X: np.ndarray):
    """A (B, n, n) stack as its (n^2, B) view, free for a lanes-last product,
    and the flattened identity as an (n^2, 1) column of the stack's dtype,
    so that no comparison promotes."""
    n = X.shape[-1]
    eye = np.eye(n, dtype=X.dtype).reshape(n * n, 1)
    return X.transpose(1, 2, 0).reshape(n * n, -1), eye


def is_identity_batch(F: FiniteField, X: np.ndarray) -> np.ndarray:
    flat, eye = _flat_lanes(X)
    return (flat == eye).all(axis=0)


def is_scalar_batch(F: FiniteField, X: np.ndarray) -> np.ndarray:
    """Nonzero scalar matrices: X = X[0, 0] E with X[0, 0] != 0."""
    flat, eye = _flat_lanes(X)
    return (flat == flat[0] * eye).all(axis=0) & (flat[0] != 0)


def _narrow(F: FiniteField) -> bool:
    """Whether elimination over F stays in int16: always through the tables of
    a proper extension, and through _reduce when p^2 <= 2^15."""
    return F.m > 1 or F.p * F.p <= NARROW


def _field_ops(F: FiniteField):
    """(add, mul, msub) on arrays of encodings, msub(a, f, b) = a - f b.

    Prime fields with p^2 <= 2^15 work in int16 and reduce through _reduce;
    msub adds p (p - 1) to keep its entries in [0, p^2). Wider prime fields use
    int32 arithmetic mod p. Proper extensions gather from ADD, MUL and NEG,
    which msub applies to the factor f rather than to the product."""
    if F.m == 1:
        p = F.p
        if _narrow(F):
            lift, MOD = p * (p - 1), F.MOD
            return (lambda a, b: _reduce(a + b, p, 2 * (p - 1), MOD),
                    lambda a, b: _reduce(a * b, p, (p - 1) ** 2, MOD),
                    lambda a, f, b: _reduce(a - f * b + lift, p, p * p - 1, MOD))
        return (lambda a, b: (a + b) % p, lambda a, b: a * b % p,
                lambda a, f, b: (a - f * b) % p)
    return (lambda a, b: F.ADD[a, b], lambda a, b: F.MUL[a, b],
            lambda a, f, b: F.ADD[a, F.MUL[F.NEG[f], b]])


def det_inv_batch(F: FiniteField, A: np.ndarray, need_inv: bool = True):
    """Determinants, and inverses when need_inv, by batched elimination.

    Returns (det, inv, ok); inv is None unless need_inv, and otherwise the
    (B, n, n) view of a lanes-last (n, n, B) array. Determinants alone
    need only forward elimination below each pivot; inverses need the full
    Gauss-Jordan sweep. A zero pivot gets the first row below it with a
    nonzero entry in that column added in, which changes neither det nor
    inverse. Singular lanes get det 0 and garbage in inv; ok is the
    nonsingular mask.
    """
    _require_tables(F)
    add, mul, msub = _field_ops(F)
    # an explicit copy: for B = 1 or n = 1 the transpose is already
    # C-contiguous, and the elimination below writes into M
    M = np.array(A.transpose(1, 2, 0), np.int16 if _narrow(F) else np.int32,
                 order="C", copy=True)
    n, _, B = M.shape
    inv = np.eye(n, dtype=M.dtype)[:, :, None].repeat(B, axis=2) if need_inv else None
    det = np.ones(B, M.dtype)
    for col in range(n):
        zero = np.flatnonzero(M[col, col] == 0)
        if len(zero):
            # the first nonzero entry below a zero pivot; rel = 0: none
            rel = np.argmax(M[col:, col, zero] != 0, axis=0)
            found = np.flatnonzero(rel)  # a first boolean index would add 128 KiB RSS
            fix, src = zero[found], col + rel[found]
            M[col, col:, fix] = add(M[col, col:, fix], M[src, col:, fix])
            if need_inv:
                inv[col, :, fix] = add(inv[col, :, fix], inv[src, :, fix])
        pv = M[col, col]
        det = mul(det, pv)                   # a lane with no pivot gets det 0
        ipv = F.INV[pv]                      # INV[0] = 0 keeps dead lanes typed
        # columns up to col are never read again: update only col + 1:
        if need_inv:
            M[col, col + 1:] = mul(ipv, M[col, col + 1:])
            inv[col] = mul(ipv, inv[col])
            fac = M[:, col].copy()
            fac[col] = 0
            inv = msub(inv, fac[:, None], inv[col])
            rows = slice(None)
        else:
            fac = mul(M[col + 1:, col], ipv)
            rows = slice(col + 1, None)
        M[rows, col + 1:] = msub(M[rows, col + 1:], fac[:, None], M[col, col + 1:])
    det = det.astype(np.int16, copy=False)
    if need_inv:
        inv = inv.astype(np.int16, copy=False).transpose(2, 0, 1)
    return det, inv, det != 0


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
