"""Brute-force matrix oracle: fields, batch linear algebra, orders,
enumeration, the conjugation criterion and witness construction."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from groupspec.arith import (BoundError, Factorization, UsageError, factorize, is_prime,
                            odd_prime_power)
from groupspec.coset import graph_coset
import groupspec.oracle.batch as oracle_batch
from groupspec.oracle.batch import (
    LANE_MIN,
    _kronecker,
    decode_batch,
    det_batch,
    det_inv_batch,
    encode_batch,
    identity_batch,
    is_identity_batch,
    is_scalar_batch,
    mat_mul,
    mat_pow,
    nullspace_batch,
    rank_batch,
    transpose,
)
from groupspec.oracle.field import (
    FiniteField,
    _is_irreducible,
    embed_subfield,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_trim,
)
import groupspec.oracle.groups as oracle_groups
from groupspec.oracle.groups import (
    KINDS,
    _nullspace,
    enumerate_matrices,
    group_order,
    make_field,
    sample_matrices,
    sampler_name,
)
from groupspec.oracle.orders import (
    order_bound,
    order_bound_fact,
    orders_batch,
    tau_coset_orders_batch,
)
from groupspec.oracle.spectrum import (
    BLOCK,
    brute_spectrum,
    tau_delta_probe,
    verify_group,
    verify_tau_coset,
)
from groupspec.oracle.wall import (
    _self_reciprocal,
    det_square_class,
    gamma_membership,
    invariant_factors,
    partition_at,
)
from groupspec.oracle.witness import (
    UNSUPPORTED,
    verify_witness,
    witness_for_value,
    witness_report,
)
from groupspec.spectra import GroupSpec, spectrum_linear

S = GroupSpec.from_q


# ---------------------------------------------------------------------------
# finite fields


def _mult_order(F, a):
    k, cur = 1, a
    while cur != 1:
        cur = F.mul(cur, a)
        k += 1
    return k


def test_field_tables_match_scalar_ops():
    # the polynomial kit is the reference for both the scalar ops and the
    # numpy tables of a table field: F_9, F_25, F_27, F_81, F_2 and F_8
    for p, m in ((3, 2), (5, 2), (3, 3), (3, 4), (2, 1), (2, 3)):
        _check_table_field(FiniteField(p, m), FiniteField(p, m, tables=False))


def _check_table_field(F, ref):
    p, q = F.p, F.q
    for a in range(q):
        for b in range(q):
            want = ref.add(a, b), ref.sub(a, b), ref.mul(a, b)
            assert (F.add(a, b), F.sub(a, b), F.mul(a, b)) == want
            assert (F.ADD[a, b], F.SUB[a, b], F.MUL[a, b]) == want
        assert F.neg(a) == ref.neg(a) == F.NEG[a]
        assert F.frob(a) == ref.frob(a) == F.FROB[a]
        for e in (-q, -2, -1, 0, 1, 2, p, q - 2, q - 1, q, 3 * q + 5):
            if a or e >= 0:
                assert F.pow(a, e) == ref.pow(a, e)
        if a:
            assert F.inv(a) == ref.inv(a) == F.INV[a]
    assert F.pow(0, 0) == ref.pow(0, 0) == 1
    assert F.pow(0, 7) == ref.pow(0, 7) == 0
    for field in (F, ref):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -1)


def _mobius(d):
    out, r = 1, 2
    while d > 1:
        if d % r == 0:
            d //= r
            if d % r == 0:
                return 0
            out = -out
        r += 1
    return out


@pytest.mark.parametrize("p, m", [(p, m) for p in (3, 5) for m in (1, 2, 3, 4)]
                         + [(7, m) for m in (1, 2, 3)])
def test_irreducible_count_matches_gauss(p, m):
    # monic irreducibles of degree m over F_p: (1/m) sum_{d | m} mu(d) p^(m/d)
    Fp = FiniteField(p, tables=False)
    got = sum(_is_irreducible(Fp, tail + (1,))
              for tail in itertools.product(range(p), repeat=m))
    want = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert got * m == want


def test_default_moduli_are_pinned():
    # the first irreducible in lexicographic order of (c_0, ..., c_{m-1});
    # every default primitive element, embedding and witness depends on it
    pinned = {(3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1), (5, 2): (1, 1, 1),
              (5, 4): (1, 0, 1, 1, 1), (7, 3): (1, 0, 1, 1)}
    for (p, m), f in pinned.items():
        assert FiniteField(p, m).modulus == f
        assert FiniteField(p, m, tables=False).modulus == f


def test_field_inverse_and_pow():
    F = FiniteField(3, 2)
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, 8) == 1
    assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0


def test_field_primitive_element():
    F = FiniteField(5, 2)
    orders = {_mult_order(F, a) for a in range(1, 25)}
    assert max(orders) == 24
    assert _mult_order(F, F.primitive) == 24
    assert FiniteField(2).primitive == 1


def test_field_alternate_modulus_is_isomorphic():
    # different irreducible moduli give the same multiplicative order multiset
    default = FiniteField(3, 2)
    other = FiniteField(3, 2, modulus=(2, 1, 1))
    assert default.modulus != other.modulus
    fix = sorted(_mult_order(default, a) for a in range(1, 9))
    alt = sorted(_mult_order(other, a) for a in range(1, 9))
    assert fix == alt


def test_field_rejects_bad_modulus():
    with pytest.raises(UsageError):
        FiniteField(3, 2, modulus=(1, 0, 0, 1))     # wrong degree
    with pytest.raises(UsageError):
        FiniteField(3, 2, modulus=(1, 2, 1))        # (x+1)^2 is reducible
    with pytest.raises(UsageError):
        FiniteField(4, 1)


def test_field_frobenius():
    F = FiniteField(3, 2)
    for a in range(9):
        assert F.frob(a) == F.pow(a, 3)
        assert F.frob(F.frob(a)) == a


def test_embed_subfield_is_a_homomorphism():
    small, big = FiniteField(3, 2), FiniteField(3, 4)
    fwd, rev = embed_subfield(small, big)
    for a in range(9):
        for b in range(9):
            assert fwd[small.add(a, b)] == big.add(fwd[a], fwd[b])
            assert fwd[small.mul(a, b)] == big.mul(fwd[a], fwd[b])
    assert fwd[0] == 0 and fwd[1] == 1
    assert len(set(fwd)) == 9
    assert all(rev[be] == se for se, be in enumerate(fwd))


def test_embed_prime_field_is_identity_on_constants():
    small, big = FiniteField(3, 1), FiniteField(3, 2)
    fwd, _ = embed_subfield(small, big)
    assert list(fwd) == [0, 1, 2]


# ---------------------------------------------------------------------------
# batch linear algebra


def _random_mats(F, count, n, rng):
    return np.array([[[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
                     for _ in range(count)], np.int16)


def test_mat_mul_matches_scalar_reference():
    # n (p-1)^2 < 2^15 takes the int16 kernel and wider products int64: p = 181
    # has n = 1 below the switch and n = 2 above it
    for p in (3, 5, 13, 23, 181, 191, 2039):
        F = FiniteField(p, 1)
        rng = np.random.default_rng(p)
        for n in range(1, 7):
            A = rng.integers(0, p, size=(6, n, n)).astype(np.int16)
            B = rng.integers(0, p, size=(6, n, n)).astype(np.int16)
            A[0] = B[0] = p - 1                     # the largest sums a product has
            got = mat_mul(F, A, B)
            assert got.dtype == np.int16
            assert not np.shares_memory(got, A) and not np.shares_memory(got, B)
            for k in range(6):
                for i in range(n):
                    for j in range(n):
                        assert got[k, i, j] == _scalar_dot(F, A[k, i], B[k, :, j])
    # single matrices and a broadcast of one matrix over a batch, as the
    # samplers, tau_images and mat_pow call it; F_9 and F_25 substitute
    for q in (9, 25):
        F = FiniteField(*odd_prime_power(q))
        rng = np.random.default_rng(q)
        for n in range(1, 7):
            A = rng.integers(0, q, size=(n, n)).astype(np.int16)
            B = rng.integers(0, q, size=(4, n, n)).astype(np.int16)
            A[0] = B[0, 0] = q - 1
            assert _kronecker(F.p, F.m, F.modulus, n) is not None
            single, broad = mat_mul(F, A, B[0]), mat_mul(F, A, B)
            assert single.shape == (n, n) and broad.shape == (4, n, n)
            assert single.dtype == broad.dtype == np.int16
            for k in range(4):
                want = [[_scalar_dot(F, A[i], B[k, :, j]) for j in range(n)]
                        for i in range(n)]
                assert (broad[k] == want).all()
            assert (single == broad[0]).all()


def _scalar_dot(F, row, col):
    acc = 0
    for a, b in zip(row, col):
        acc = F.add(acc, F.mul(int(a), int(b)))
    return acc


def _gather_mat_mul(F, A, B):
    """The term-by-term MUL/ADD gather that mat_mul falls back to."""
    terms = F.MUL[A[..., :, None, :], transpose(B)[..., None, :, :]]
    out = terms[..., 0]
    for k in range(1, A.shape[-1]):
        out = F.ADD[out, terms[..., k]]
    return out


def test_mat_mul_matches_gather_loop():
    # every table field with odd p, m >= 2 and q <= 729, at n <= 6; all-(q-1)
    # matrices (every digit p - 1) give the largest coefficient sums
    paths = {}
    for q in range(9, 730, 2):
        pairs = factorize(q).pairs
        if len(pairs) != 1 or pairs[0][1] < 2:
            continue
        F = FiniteField(*pairs[0])
        rng = np.random.default_rng(q)
        for n in range(1, 7):
            A = rng.integers(0, q, size=(8, n, n)).astype(np.int16)
            B = rng.integers(0, q, size=(8, n, n)).astype(np.int16)
            A[0] = B[0] = q - 1
            got = mat_mul(F, A, B)
            assert got.dtype == np.int16
            assert not np.shares_memory(got, A) and not np.shares_memory(got, B)
            assert (got == _gather_mat_mul(F, A, B)).all(), (q, n)
            kron = _kronecker(F.p, F.m, F.modulus, n)
            paths[q, n] = "gather" if kron is None else kron[0].dtype.name
    assert set(paths.values()) == {"int16", "int32", "gather"}
    # both sides of each switch
    assert (paths[9, 4], paths[9, 5]) == ("int16", "int32")
    assert paths[25, 1] == "int16"
    assert (paths[27, 4], paths[27, 5]) == ("int32", "gather")
    assert (paths[49, 5], paths[49, 6]) == ("int32", "gather")
    assert paths[81, 2] == paths[121, 2] == paths[243, 1] == "gather"


def test_lane_mul_matches_mat_mul():
    # from LANE_MIN matrices on, mat_mul multiplies lanes last; the same
    # products in chunks of 9 take np.matmul. Every path: int16 and int64
    # over F_p (n = 2 is below the switch for p = 181 and above it for
    # p = 191), the int16 and int32 Kronecker products (F_9 at n = 4 and 5,
    # F_25, F_27 at n = 4) and the MUL/ADD tables (F_27 at n = 5, F_81)
    count = LANE_MIN + 9
    for q, ns in ((3, (1, 6)), (181, (2,)), (191, (1, 2, 6)), (9, (4, 5)), (25, (3,)),
                  (27, (4, 5)), (81, (2,))):
        F = FiniteField(*odd_prime_power(q))
        rng = np.random.default_rng(q)
        for n in ns:
            A = rng.integers(0, q, size=(count, n, n)).astype(np.int16)
            B = rng.integers(0, q, size=(count, n, n)).astype(np.int16)
            A[0] = B[0] = q - 1
            got = mat_mul(F, A, B)
            assert got.dtype == np.int16 and got.shape == (count, n, n)
            assert got.transpose(1, 2, 0).flags.c_contiguous    # lanes last
            chunks = np.concatenate([mat_mul(F, A[lo:lo + 9], B[lo:lo + 9])
                                     for lo in range(0, count, 9)])
            assert (got == chunks).all(), (q, n)
            assert (mat_mul(F, A, A) == mat_mul(F, A, A.copy())).all()


def test_det_inv_batch_properties():
    F = FiniteField(3, 2)
    rng = random.Random(2)
    A = _random_mats(F, 40, 3, rng)
    det, inv, ok = det_inv_batch(F, A)
    eye = identity_batch(F, 3, int(ok.sum()))
    prod = mat_mul(F, A[ok], inv[ok])
    assert (prod == eye).all()
    assert (det[~ok] == 0).all()
    # determinant is multiplicative
    det2 = det_batch(F, mat_mul(F, A[:20], A[20:]))
    for i in range(20):
        assert det2[i] == F.mul(int(det[i]), int(det[20 + i]))


def test_rank_batch():
    F = FiniteField(3, 2)
    zero = np.zeros((1, 3, 3), np.int16)
    eye = identity_batch(F, 3, 1)
    low = np.array([[[1, 2, 0], [2, 4 % 9, 0], [0, 0, 0]]], np.int16)
    low[0, 1] = [F.mul(2, x) for x in low[0, 0]]    # row 2 = 2 * row 1
    stack = np.concatenate([zero, eye, low])
    assert rank_batch(F, stack).tolist() == [0, 3, 1]


def _pivot_columns(F, rows, n):
    # column c is a pivot when it raises the rank of the first c columns
    rank = [c - len(_nullspace(F, [r[:c] for r in rows], c)) for c in range(n + 1)]
    return tuple(c for c in range(n) if rank[c + 1] > rank[c])


@pytest.mark.parametrize("p, m", [(7, 1), (191, 1), (3, 2), (5, 2)])
def test_nullspace_batch_matches_scalar_nullspace(p, m):
    F = FiniteField(p, m)
    rng = np.random.default_rng(p * m)
    for n in range(1, 7):
        for k in range(n + 1):
            A = rng.integers(0, F.q, size=(60, k, n)).astype(np.int16)
            # zero some columns per lane, so that the pivot columns differ
            A *= rng.random((60, 1, n)) >= 0.3
            rows = [A[b].tolist() for b in range(60)]
            full = [b for b in range(60) if len(_nullspace(F, rows[b], n)) == n - k]
            got = nullspace_batch(F, A[full])
            assert got.shape == (len(full), n - k, n) and got.dtype == np.int16
            for lane, b in enumerate(full):
                assert got[lane].tolist() == _nullspace(F, rows[b], n), (n, k, b)
            if 0 < k < n:
                assert len({_pivot_columns(F, rows[b], n) for b in full}) > 1, (n, k)
    with pytest.raises(AssertionError):
        nullspace_batch(F, np.zeros((2, 1, 3), np.int16))


def test_mat_pow_matches_iterated_mul():
    F = FiniteField(3, 1)
    rng = random.Random(3)
    A = _random_mats(F, 5, 3, rng)
    cur = identity_batch(F, 3, 5)
    for e in range(6):
        assert (mat_pow(F, A, e) == cur).all()
        cur = mat_mul(F, cur, A)
    assert (mat_pow(F, A[0], 0) == np.eye(3, dtype=np.int16)).all()
    assert not np.shares_memory(mat_pow(F, A, 1), A)    # callers write into it


# 181^2 is just inside 2^15, so elimination over F_181 stays in int16; 191^2
# is just outside, so F_191 eliminates in int32
FIELDS = [(3, 1), (5, 1), (13, 1), (23, 1), (181, 1), (191, 1), (3, 2), (5, 2)]


def _leibniz_det(F, g):
    n = len(g)
    acc = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term = F.mul(term, int(g[i][perm[i]]))
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = F.sub(acc, term) if inversions % 2 else F.add(acc, term)
    return acc


@pytest.mark.parametrize("p,m", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_forward_elimination_matches_gauss_jordan(p, m, n):
    F = FiniteField(p, m)
    rng = np.random.default_rng(100 * p + 10 * m + n)
    A = rng.integers(0, F.q, size=(300, n, n)).astype(np.int16)
    A[0] = 0                                    # zero matrix
    A[1, :, 0] = 0                              # zero column
    A[2, -1] = A[2, 0]                          # repeated row
    A[3] = np.eye(n, dtype=np.int16)[::-1]      # permutation: every pivot off the diagonal
    A[4, 0, 0] = 0                              # zero leading pivot
    det, _, ok = det_inv_batch(F, A, need_inv=False)
    full, inv, ok_full = det_inv_batch(F, A)
    assert det.dtype == full.dtype == np.int16
    assert (det == full).all() and (ok == ok_full).all()
    assert not ok[:2].any() and (n == 1 or not ok[2])
    assert (mat_mul(F, A[ok], inv[ok]) == identity_batch(F, n, int(ok.sum()))).all()
    if n <= 4:
        for g, d in zip(A[:12], det[:12]):
            assert int(d) == _leibniz_det(F, g)


# det_inv_batch as it stood eliminating on (B, n, n) stacks, each row
# operation reading a lane's entries n^2 apart: the reference for the
# lanes-last elimination, with the same pivot rule.
def _det_inv_row_major(F, A, need_inv=True):
    add, mul, msub = oracle_batch._field_ops(F)
    M = np.array(A, np.int16 if oracle_batch._narrow(F) else np.int32, copy=True)
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
        det = mul(det, pv)
        ipv = F.INV[pv]
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


@pytest.mark.parametrize("p,m", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_inv_batch_matches_row_major_elimination(p, m, n):
    F = FiniteField(p, m)
    rng = np.random.default_rng(1000 * p + 10 * m + n)
    base = rng.integers(0, F.q, size=(1005, n, n)).astype(np.int16)
    base[0] = 0                                 # zero matrix
    base[1, :, 0] = 0                           # zero column
    base[2, -1] = base[2, 0]                    # repeated row
    base[3] = np.eye(n, dtype=np.int16)[::-1]   # every pivot off the diagonal
    base[4, 0, 0] = 0                           # zero leading pivot
    base[500:] *= rng.random((505, n, n)) >= 0.4    # zero pivots past the first
    for count in (1, 3, 255, 257, 1000):
        # single lanes and triples cover each planted lane
        for lo in range(0, 5 if count < 5 else 1, count):
            A = base[lo:lo + count]
            for need_inv in (False, True):
                det, inv, ok = det_inv_batch(F, A, need_inv)
                want_det, want_inv, want_ok = _det_inv_row_major(F, A, need_inv)
                assert det.dtype == np.int16 and det.shape == (count,)
                assert ok.dtype == bool and ok.shape == (count,)
                assert (det == want_det).all() and (ok == want_ok).all()
                if need_inv:
                    assert inv.dtype == np.int16 and inv.shape == (count, n, n)
                    assert (inv[ok] == want_inv[ok]).all(), (count, lo)
                else:
                    assert inv is None


@pytest.mark.parametrize("need_inv", [False, True])
def test_det_inv_batch_leaves_its_input_alone(need_inv):
    # for one lane, or n = 1, the (n, n, B) transpose of a C-contiguous stack
    # is itself C-contiguous: only an explicit copy keeps the elimination out
    # of the caller's matrices
    F = FiniteField(3)
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        pool = rng.integers(0, 3, size=(LANE_MIN + 9, n, n)).astype(np.int16)
        lanes_last = mat_mul(F, pool, pool)
        assert lanes_last.transpose(1, 2, 0).flags.c_contiguous
        for B in (1, 2, 300):
            mats = pool[:B].copy()
            mask = np.arange(len(pool)) % 2 == 0
            mask[2 * B:] = False
            for A in (mats, pool[mask], mats[0][None], lanes_last, lanes_last[:B]):
                before = A.copy()
                det_inv_batch(F, A, need_inv)
                assert (A == before).all(), (n, B, A.shape)


def test_encode_decode_round_trip():
    rng = random.Random(4)
    X = _random_mats(FiniteField(5, 1), 30, 3, rng)
    keys = encode_batch(X, 5)
    back = decode_batch(keys, 5, 3)
    assert (back == X).all()
    assert len(set(keys.tolist())) == len({x.tobytes() for x in X})


def test_is_scalar_batch():
    F = FiniteField(3, 2)
    eye = identity_batch(F, 2, 1)[0]
    two = np.array([[2, 0], [0, 2]], np.int16)
    almost = np.array([[2, 0], [0, 1]], np.int16)
    nilp = np.array([[0, 1], [0, 0]], np.int16)
    stack = np.stack([eye, two, almost, nilp])
    assert is_scalar_batch(F, stack).tolist() == [True, True, False, False]


# ---------------------------------------------------------------------------
# element orders


def _naive_orders(F, X, trivial, limit):
    out = np.zeros(len(X), np.int64)
    cur = X.copy()
    for k in range(1, limit + 1):
        out[trivial(F, cur) & (out == 0)] = k
        if out.all():
            return out
        cur = mat_mul(F, cur, X)
    raise AssertionError("naive powering did not reach every order")


def _special_mats(F, n):
    """Identity, a scalar, a unipotent Jordan block and a scalar times it."""
    eye = np.eye(n, dtype=np.int16)
    c = F.primitive
    jordan = eye.copy()
    jordan[np.arange(n - 1), np.arange(1, n)] = 1
    return np.stack([eye, c * eye, jordan,
                     np.vectorize(lambda x: F.mul(c, int(x)))(jordan).astype(np.int16)])


def _small_order_conjugates(F, n, count, rng):
    """count conjugates P D P^-1, P random in GL_n(q), of signed permutation
    matrices D (the first half) and of unipotent upper triangular D (the
    rest). Their entries lie anywhere in F_q, so products reach the widest
    sums, while their orders stay at most 12 or p^ceil(log_p n), so naive
    powering ends within a few hundred steps even over F_191."""
    P = sample_matrices("GL", n, F.q, count, rng, field=F)
    half, idx = count // 2, np.arange(n)
    D = np.zeros((count, n, n), np.int16)
    perms = rng.permuted(np.tile(idx, (half, 1)), axis=1)
    D[np.arange(half)[:, None], idx, perms] = np.where(
        rng.integers(0, 2, (half, n)) == 1, 1, F.NEG[1])
    D[half:] = np.triu(rng.integers(0, F.q, (count - half, n, n)), 1)
    D[half:, idx, idx] = 1
    return mat_mul(F, mat_mul(F, P, D), det_inv_batch(F, P)[1])


# Random elements of groups small enough that naive powering reaches every
# order, batched below LANE_MIN. Then the sweep, batched above LANE_MIN so
# that the order tree starts lanes last and falls back to (L, n, n) as lanes
# leave it: every odd prime up to 191 at every n <= 6, which covers both
# sides of the int16 switch n (p-1)^2 < 2^15 at each n (at n = 6 between
# p = 73 and p = 79); F_9, F_25 and F_27 take the Kronecker products (F_27
# from n = 5 the tables), F_81 the MUL/ADD tables.
SWEEP_PRIMES = [p for p in range(3, 192, 2) if factorize(p).pairs == ((p, 1),)]
ORDER_CASES = ([pytest.param(n, q, 40, id=f"{n}-{q}")
                for n, q in ((1, 3), (2, 5), (2, 9), (2, 13), (2, 23), (2, 25),
                             (4, 3), (3, 9), (4, 5), (5, 3))]
               + [pytest.param(n, q, LANE_MIN + 64, id=f"{n}-{q}-lanes")
                  for q in SWEEP_PRIMES + [9, 25, 27] for n in range(1, 7)]
               + [pytest.param(n, 81, LANE_MIN + 64, id=f"{n}-81-lanes") for n in (2, 3)])


@pytest.mark.parametrize("n,q,count", ORDER_CASES)
@pytest.mark.parametrize("projective", [False, True])
def test_orders_batch_against_naive_powers(n, q, count, projective):
    F = make_field("GL", q)
    bound = order_bound_fact(n, F.q, F.p)
    rng = np.random.default_rng(n * q)
    if count < LANE_MIN:
        mats = np.concatenate([_special_mats(F, n), sample_matrices("GL", n, q, count, rng)])
    else:   # scalar times Jordan block would take q (q - 1) naive steps
        mats = np.concatenate([_special_mats(F, n)[:3],
                               _small_order_conjugates(F, n, count, rng)])
    trivial = is_scalar_batch if projective else is_identity_batch
    got = orders_batch(F, mats, bound, projective=projective)
    assert (got == _naive_orders(F, mats, trivial, bound.value)).all()
    assert all(bound.value % v == 0 for v in got.tolist())
    assert got[0] == 1 and got[1] == (1 if projective else F.q - 1)


@pytest.mark.parametrize("count", [LANE_MIN - 1, LANE_MIN + 64])
def test_order_tree_layout_follows_the_lane_count(monkeypatch, count):
    # below LANE_MIN lanes the tree's products are (L, n, n) np.matmul only;
    # from LANE_MIN on they start lanes last on C-contiguous (n, n, L)
    # operands, and go back to np.matmul once lanes leave: the signed
    # permutations have orders 2^a 3^b and leave every other prime's subtree
    F = make_field("GL", 13)
    mats = _small_order_conjugates(F, 3, count, np.random.default_rng(count))
    product, seen = oracle_batch._product, {True: [], False: []}

    def spy(F, A, B, lanes_last):
        if lanes_last:
            seen[True].append(A.shape[-1])
            for X in (A, B):
                assert X.shape[:2] == (3, 3) and X.flags.c_contiguous
        else:
            seen[False].append(A.shape[0])
        return product(F, A, B, lanes_last)
    monkeypatch.setattr(oracle_batch, "_product", spy)
    bound = order_bound_fact(3, 13, 13)
    got = orders_batch(F, mats, bound, projective=True)
    assert (got == _naive_orders(F, mats, is_scalar_batch, bound.value)).all()
    assert seen[False] and max(seen[False]) < LANE_MIN
    if count < LANE_MIN:
        assert not seen[True]
    else:
        assert max(seen[True]) == count and min(seen[True]) >= LANE_MIN


def test_projective_order_divides_matrix_order():
    F = FiniteField(3, 1)
    rng = np.random.default_rng(6)
    mats = sample_matrices("GL", 3, 3, 40, rng)
    bound = order_bound_fact(3, 3, 3)
    full = orders_batch(F, mats, bound)
    proj = orders_batch(F, mats, bound, projective=True)
    assert (full % proj == 0).all()


def test_projective_order_spot_value():
    F = FiniteField(3, 1)
    h = np.array([[0, 1], [2, 0]], np.int16)    # h^2 = 2E
    bound = order_bound_fact(2, 3, 3)
    assert orders_batch(F, h[None], bound).tolist() == [4]
    assert orders_batch(F, h[None], bound, projective=True).tolist() == [2]


def test_tau_coset_orders_are_even():
    F = FiniteField(3, 1)
    rng = np.random.default_rng(7)
    mats = sample_matrices("GL", 3, 3, 30, rng)
    bound = order_bound_fact(3, 3, 3)
    orders = tau_coset_orders_batch(F, mats, bound)
    assert (orders % 2 == 0).all()


@pytest.mark.parametrize("n,q", [(8, 1021), (7, 2039)])
def test_orders_past_the_int64_range_are_exact(n, q):
    # both bounds pass 2^63, so the orders are Python ints; in int64 they
    # wrapped around to negative values, and a prime of the GL_7(2039) bound
    # past 2^63 could not be multiplied in at all
    F = make_field("GL", q)
    bound = order_bound_fact(n, q, q)
    assert bound.value >= 2 ** 63
    mats = sample_matrices("GL", n, q, 16, np.random.default_rng(n * q))
    for projective in (False, True):
        trivial = is_scalar_batch if projective else is_identity_batch
        got = orders_batch(F, mats, bound, projective=projective).tolist()
        assert max(got) >= 2 ** 63
        for X, v in zip(mats, got):
            assert v > 0 and bound.value % v == 0
            assert trivial(F, mat_pow(F, X[None], v))[0]
            for r in factorize(v).primes():
                assert not trivial(F, mat_pow(F, X[None], v // r))[0]


def test_order_tree_splits_a_bound_past_the_float_range():
    # the split score once divided the product of the primes by its left
    # part, a quotient past 1.8e308 that no float holds
    F = FiniteField(3, 1)
    X = np.diag([2, 1, 1]).astype(np.int16)[None]
    bound = Factorization(((2, 1), (10 ** 400 + 1, 1)))
    assert orders_batch(F, X, bound).tolist() == [2]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 23, 25, 27, 49, 81, 121, 125,
                               169, 191, 343, 1021, 2039])
def test_order_bound_fact_factors_the_bound(q):
    # a product equal to the bound, of primes only, is factorize(order_bound)
    # by unique factorization
    p, _ = odd_prime_power(q)
    for n in range(1, 9):
        fact = order_bound_fact.__wrapped__(n, q, p)
        assert fact.value == order_bound(n, q, p), (n, q)
        assert all(is_prime(r) for r in fact.primes()), (n, q)
        assert factorize(fact.value) is fact


# ---------------------------------------------------------------------------
# group enumeration and sampling


def test_group_order_formulas():
    assert group_order("SL", 2, 3) == 24
    assert group_order("GL", 3, 3) == 11232
    assert group_order("Sp", 4, 3) == 51840
    assert group_order("GU", 3, 3) == 24192
    assert group_order("SU", 3, 3) == 6048
    assert group_order("GL", 2, 9) == 5760


def test_enumeration_counts_and_membership():
    F, sl = enumerate_matrices("SL", 2, 3)
    assert sl.shape[0] == 24
    assert (det_batch(F, sl) == 1).all()
    F, sp = enumerate_matrices("Sp", 4, 3)
    assert sp.shape[0] == 51840


def test_enumeration_bound_error():
    with pytest.raises(BoundError):
        enumerate_matrices("GL", 4, 5, enum_bound=1000)


def test_enumeration_bound_is_checked_before_the_cache(monkeypatch):
    monkeypatch.setattr(oracle_groups, "_enum_cache", {})
    with pytest.raises(BoundError):
        enumerate_matrices("GL", 2, 3, enum_bound=10)
    assert len(enumerate_matrices("GL", 2, 3)[1]) == 48
    with pytest.raises(BoundError):
        enumerate_matrices("GL", 2, 3, enum_bound=10)


def test_enumeration_order_ignores_call_history(monkeypatch):
    # GU_3(3) is small enough to sample by drawing indices into its cached
    # enumeration; a full run with another seed must not reorder that cache
    def sampled():
        return (brute_spectrum("GU", 3, 3, mode="sample", samples=6, seed=0)["attained"],
                sample_matrices("GU", 3, 3, 2, np.random.default_rng(0)).tobytes())
    monkeypatch.setattr(oracle_groups, "_enum_cache", {})
    fresh = sampled()
    assert fresh[0] == [3, 4, 8, 12]
    monkeypatch.setattr(oracle_groups, "_enum_cache", {})
    brute_spectrum("GU", 3, 3, mode="full", seed=1)
    assert sampled() == fresh


@pytest.mark.parametrize("kind, n, q", [("GL", 3, 3), ("GL", 3, 5), ("GU", 3, 3)])
def test_tau_delta_without_a_second_wing_is_refused(monkeypatch, kind, n, q):
    # d = gcd(n, q -+ 1) = 1: no row passes the tau delta det-class test, so
    # an enumeration would find the wing empty and the draw loop would never
    # fill its block; refuse in both modes before enumerating or drawing
    import groupspec.oracle.spectrum as oracle_spectrum

    def drawn(*args, **kwargs):
        raise AssertionError("made matrices for an empty wing")
    monkeypatch.setattr(oracle_spectrum, "sample_matrices", drawn)
    monkeypatch.setattr(oracle_spectrum, "enumerate_matrices", drawn)
    for mode in ("full", "sample"):
        with pytest.raises(UsageError, match="tau delta coset"):
            brute_spectrum(kind, n, q, mode=mode, order_kind="tau_delta_coset", samples=50)
    if kind == "GL":
        with pytest.raises(UsageError, match="tau delta coset"):
            tau_delta_probe(n, q, samples=50)


def test_full_verify_checks_the_enumeration_bound_first(monkeypatch):
    # the closed forms and the order bound of n = 60 would take far longer
    # than the bound check; full mode must refuse before computing any of them
    import groupspec.oracle.spectrum as oracle_spectrum

    def computed_too_early(*args, **kwargs):
        raise AssertionError("computed before the enumeration bound was checked")
    for name in ("spectrum", "graph_coset", "order_bound_fact"):
        monkeypatch.setattr(oracle_spectrum, name, computed_too_early)
    with pytest.raises(BoundError):
        verify_group(S("PSL", 60, 3), mode="full")
    with pytest.raises(BoundError):
        verify_tau_coset(60, 3, mode="full")


def test_make_field_matches_kind():
    assert make_field("GL", 9).q == 9
    assert make_field("GU", 3).q == 9      # unitary groups live over q^2
    with pytest.raises(UsageError):
        make_field("GL", 8)


def _is_symplectic(F, mats):
    count, n = mats.shape[0], mats.shape[-1]
    r = n // 2
    J = np.zeros((count, n, n), np.int16)
    for i in range(r):
        J[:, i, r + i], J[:, r + i, i] = 1, F.neg(1)
    return (mat_mul(F, mats, mat_mul(F, J, transpose(mats))) == J).all()


def test_samplers_land_in_their_groups():
    rng = np.random.default_rng(8)
    sl = sample_matrices("SL", 3, 9, 40, rng)
    F9 = make_field("SL", 9)
    assert (det_batch(F9, sl) == 1).all()

    for n, q in ((3, 5), (4, 3)):
        gu = sample_matrices("GU", n, q, 40, rng)
        FU = make_field("GU", q)
        conj = FU.FROB[gu]                  # x -> x^q, as q is prime here
        prod = mat_mul(FU, gu, transpose(conj))
        assert (prod == identity_batch(FU, n, 40)).all()

    for n, q in ((2, 7), (4, 9), (6, 3)):
        sp = sample_matrices("Sp", n, q, 40, rng)
        assert _is_symplectic(make_field("Sp", q), sp)


# sha256 of sample_matrices(kind, n, q, 8, default_rng(20160905)).tobytes(),
# recorded before the scalar field ops moved to exp/log lists: the samplers
# must draw from the generator exactly as they did then
SAMPLER_DIGESTS = {
    ("GU", 3, 5): "d71697cfb915e2fe57d713f96c7bdec57e84c6a96c969a3dbedeef7505e89392",
    ("GU", 4, 3): "5ccb6348f221ea9fd16568c3ac0449468779fde47870813fbed22fd9b3db81a5",
    ("Sp", 4, 5): "cb978b7ce301448e99ff7e7185ab73be8490218bc920346d6adb535015e7924d",
    ("Sp", 6, 3): "6c1bf9545fa3815d5461d98cdde8e635d42f0936f3921668679adac8e9cf5071",
    ("Sp", 4, 9): "e001e057e794c8a47f2f0420494e0c681c736c89ffdeae529d4761edc7e3970b",
}


@pytest.mark.parametrize("kind, n, q", sorted(SAMPLER_DIGESTS))
def test_sampler_draws_are_pinned(kind, n, q):
    assert sampler_name(kind, n, q) != "enumeration-draw"
    out = sample_matrices(kind, n, q, 8, np.random.default_rng(20160905))
    assert out.shape == (8, n, n) and out.dtype == np.int16
    assert hashlib.sha256(out.tobytes()).hexdigest() == SAMPLER_DIGESTS[kind, n, q]


def test_sample_matrices_checks_its_arguments():
    rng = np.random.default_rng(0)
    for enum_draw in (False, True):
        with pytest.raises(UsageError, match="even dimension"):
            sample_matrices("Sp", 3, 3, 2, rng, allow_enum_draw=enum_draw)
    with pytest.raises(UsageError):
        sample_matrices("GL", 2, 3, -1, rng)
    with pytest.raises(UsageError):
        sample_matrices("O", 2, 3, 1, rng)
    # an empty batch for every kind and path, drawing nothing
    for kind in KINDS:
        for enum_draw in (False, True):
            a, b = np.random.default_rng(1), np.random.default_rng(1)
            out = sample_matrices(kind, 2, 3, 0, a, allow_enum_draw=enum_draw)
            assert out.shape == (0, 2, 2) and out.dtype == np.int16
            assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


def test_block_draws_continue_the_stream():
    # the row samplers' block draws rest on this property of numpy's bounded
    # integers: one draw of size a + b equals a draw of size a followed by
    # one of size b, and leaves the generator in the same state
    pick = random.Random(14)
    qs = [3, 5, 9, 2048, 65_537, (1 << 32) - 5] + [pick.randrange(3, (1 << 32) - 4)
                                                   for _ in range(6)]
    for q in qs:
        for _ in range(30):
            sizes = [pick.choice((0, 1, 2, 3, 7, pick.randrange(100)))
                     for _ in range(pick.randrange(1, 6))]
            seed = pick.randrange(1 << 63)
            one, many = np.random.default_rng(seed), np.random.default_rng(seed)
            whole = one.integers(0, q, size=sum(sizes)).tolist()
            parts = [x for k in sizes for x in many.integers(0, q, size=k).tolist()]
            assert whole == parts, (q, sizes)
            assert one.integers(0, q, size=3).tolist() == many.integers(0, q, size=3).tolist()


# The GU and Sp samplers as they stood with one rng.integers call per
# candidate vector: the reference for the block-drawn, batched samplers.


def _random_combo(F, basis, rng):
    add, mul = F.add, F.mul
    coeffs = rng.integers(0, F.q, size=len(basis))
    v = [0] * len(basis[0])
    for c, vec in zip(coeffs.tolist(), basis):
        if c:
            v = [add(x, mul(c, y)) if y else x for x, y in zip(v, vec)]
    return v


def _sum_dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc


def _sample_gu_one(F, n, q0, rng):
    add, pow_ = F.add, F.pow
    rows = []
    for _ in range(n):
        cond = [[pow_(x, q0) for x in r] for r in rows]
        basis = _nullspace(F, cond, n)
        while True:
            v = _random_combo(F, basis, rng)
            norm = 0
            for x in v:
                if x:
                    norm = add(norm, pow_(x, q0 + 1))
            if norm == 1:
                rows.append(v)
                break
    return np.array(rows, np.int16)


def _sample_sp_one(F, n, rng):
    r = n // 2
    add, mul, neg = F.add, F.mul, F.neg

    def functional(u):
        return [neg(x) for x in u[r:]] + u[:r]

    vs, ws = [], []
    conds = []
    for _ in range(r):
        basis = _nullspace(F, conds, n)
        while True:
            v = _random_combo(F, basis, rng)
            if any(v):
                break
        fv = functional(v)
        vals = [_sum_dot(F, fv, b) for b in basis]
        j0 = next(i for i, x in enumerate(vals) if x)
        c0 = F.inv(vals[j0])
        u = _random_combo(F, basis, rng)
        s = mul(F.sub(1, _sum_dot(F, fv, u)), c0)
        w = [add(x, mul(s, y)) if y else x for x, y in zip(u, basis[j0])]
        vs.append(v)
        ws.append(w)
        conds.append(fv)
        conds.append(functional(w))
    return np.array(vs + ws, np.int16).T


def _reference_sample(kind, n, q, count, rng):
    F = make_field(kind, q)
    if kind == "Sp":
        return np.stack([_sample_sp_one(F, n, rng) for _ in range(count)])
    out = np.stack([_sample_gu_one(F, n, math.isqrt(F.q), rng) for _ in range(count)])
    if kind == "SU":
        det = det_inv_batch(F, out, need_inv=False)[0]
        out[:, 0, :] = F.MUL[F.INV[det][:, None], out[:, 0, :]]
    return out


SWEEP = ([("Sp", n, q) for n in (2, 4, 6, 8) for q in (3, 5, 7, 9, 25, 27, 49)]
         + [(kind, n, q) for kind in ("GU", "SU") for n in (1, 2, 3, 4) for q in (3, 5, 7, 9)])


@pytest.mark.parametrize("kind, n, q", SWEEP)
def test_samplers_match_one_draw_per_candidate(kind, n, q):
    # several calls on one generator, as _bfs_closure and brute_spectrum make:
    # the same matrices, and the generator left where the old samplers left it
    pick = random.Random(f"{kind}{n},{q}")
    seed = pick.randrange(1 << 32)
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for count in (1, pick.randrange(2, 10), pick.randrange(10, 41)):
        got = sample_matrices(kind, n, q, count, new, allow_enum_draw=False)
        want = _reference_sample(kind, n, q, count, old)
        assert got.dtype == np.int16 and (got == want).all(), (kind, n, q, count)
        assert new.integers(0, 1 << 30) == old.integers(0, 1 << 30)


def test_sampler_names():
    assert sampler_name("GL", 3, 3) == "rejection"
    assert sampler_name("SL", 3, 3) == "rejection+column-scale"
    assert sampler_name("GU", 3, 3) == "enumeration-draw"
    assert sampler_name("Sp", 4, 9) == "basis-completion"


# ---------------------------------------------------------------------------
# the conjugation criterion


def _poly_at_matrix(F, a, H):
    """a(H), Horner."""
    n = H.shape[0]
    acc = np.zeros((n, n), np.int16)
    for c in reversed(a):
        acc = mat_mul(F, acc[None], H[None])[0]
        for i in range(n):
            acc[i, i] = F.add(int(acc[i, i]), c)
    return acc


def test_invariant_factors_structure():
    rng = np.random.default_rng(10)
    for q in (3, 5, 9):
        F = make_field("GL", q)
        for n in (3, 4):
            mats = sample_matrices("GL", n, q, 12, rng, field=F)
            for H in mats:
                facs = invariant_factors(F, H)
                # successive divisibility, last one annihilates H
                for a, b in zip(facs, facs[1:]):
                    assert poly_divmod(F, b, a)[1] == ()
                assert not _poly_at_matrix(F, facs[-1], H).any()
                # product = det(xE - H): monic of degree n, equal at every x in F_q
                prod = (1,)
                for f in facs:
                    prod = poly_mul(F, prod, f)
                prod = poly_trim(prod)
                assert len(prod) == n + 1 and prod[-1] == 1
                shifted = np.array([[[F.sub(x if i == j else 0, int(H[i, j]))
                                      for j in range(n)] for i in range(n)]
                                    for x in range(q)], np.int16)
                assert det_batch(F, shifted).tolist() == [poly_eval(F, prod, x)
                                                          for x in range(q)]


def test_partition_at_jordan_blocks():
    F = FiniteField(3, 1)
    H = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], np.int16)
    assert partition_at(F, H, 1) == {2: 1, 1: 1}
    assert partition_at(F, identity_batch(F, 3, 1)[0], 1) == {1: 3}
    assert partition_at(F, H, 2) == {}


def _partitions_by_kernel_ranks(F, mats, lam):
    # the definition: d_j = dim ker (H - lam)^j, m_j = 2 d_j - d_(j-1) - d_(j+1)
    B, n, _ = mats.shape
    shifted = mats.copy()
    diag = np.arange(n)
    shifted[:, diag, diag] = F.SUB[shifted[:, diag, diag], np.int16(lam)]
    d = [np.zeros(B, np.int64)]
    power = identity_batch(F, n, B)
    for _ in range(n + 1):
        power = mat_mul(F, power, shifted)
        d.append(n - rank_batch(F, power))
    return [{j: m for j in range(1, n + 1)
             if (m := int(2 * d[j][i] - d[j - 1][i] - d[j + 1][i]))}
            for i in range(B)]


def test_partition_at_matches_kernel_ranks():
    rng = np.random.default_rng(13)
    cases = [enumerate_matrices("GL", 2, 3), enumerate_matrices("GL", 2, 5)]
    for n, q, count in ((3, 3, 120), (4, 3, 40), (3, 9, 40)):
        F = make_field("GL", q)
        cases.append((F, np.concatenate([_special_mats(F, n),
                                         sample_matrices("GL", n, q, count, rng, field=F)])))
    for F, mats in cases:
        blocks = set()
        for lam in (1, F.neg(1), F.primitive):
            want = _partitions_by_kernel_ranks(F, mats, lam)
            assert [partition_at(F, H, lam) for H in mats] == want
            blocks |= {size for part in want for size in part}
        assert max(blocks) >= 2


def test_conjugate_to_inverse_is_a_class_function():
    F = FiniteField(3, 1)
    rng = np.random.default_rng(11)
    mats = sample_matrices("GL", 3, 3, 20, rng)
    conj = sample_matrices("GL", 3, 3, 20, rng)
    _, inv, _ = det_inv_batch(F, conj)
    moved = mat_mul(F, conj, mat_mul(F, mats, inv))
    for a, b in zip(mats, moved):
        assert (_self_reciprocal(F, invariant_factors(F, a))
                == _self_reciprocal(F, invariant_factors(F, b)))


def _conjugate_to_inverse_two_smith_forms(F, H):
    # the definition: zE - H and zE - H^-1 have the same invariant factors
    _, inv, ok = det_inv_batch(F, H[None])
    assert ok[0]
    return invariant_factors(F, H) == invariant_factors(F, inv[0])


def test_conjugate_to_inverse_matches_two_smith_forms():
    rng = np.random.default_rng(12)
    cases = [enumerate_matrices("GL", 2, 3), enumerate_matrices("GL", 2, 5)]
    for n, q, count in ((3, 3, 120), (4, 3, 40), (3, 9, 40)):
        F = make_field("GL", q)
        g = sample_matrices("GL", n, q, count, rng, field=F)
        # g g^-T is conjugate to its inverse: every sample case holds both answers
        _, inv, _ = det_inv_batch(F, g[: count // 4])
        cases.append((F, np.concatenate([g, mat_mul(F, g[: count // 4], transpose(inv))])))
    for F, mats in cases:
        answers = [_self_reciprocal(F, invariant_factors(F, H)) for H in mats]
        assert answers == [_conjugate_to_inverse_two_smith_forms(F, H) for H in mats]
        assert set(answers) == {True, False}


def test_conjugate_to_inverse_rejects_singular():
    for q, H in ((3, [[1, 1], [1, 1]]), (3, [[0, 1], [0, 0]]),
                 (5, [[1, 0, 0], [0, 2, 0], [0, 0, 0]]), (9, [[2, 7], [2, 7]])):
        F = make_field("GL", q)
        with pytest.raises(UsageError, match="matrix is singular"):
            _self_reciprocal(F, invariant_factors(F, np.array(H, np.int16)))
        with pytest.raises(UsageError, match="matrix is singular"):
            gamma_membership(F, np.array(H, np.int16))


def test_gamma_membership_matches_brute_force():
    # both directions over the whole of GL_2(q)
    for q in (3, 5, 7, 9):
        F, mats = enumerate_matrices("GL", 2, q)
        _, inv, _ = det_inv_batch(F, mats)
        prods = mat_mul(F, mats, transpose(inv))
        truth = set(encode_batch(prods, q).tolist())
        keys = encode_batch(mats, q)
        claimed = {int(k) for k, H in zip(keys, mats) if gamma_membership(F, H)}
        assert claimed == truth


def test_gamma_membership_is_a_class_function():
    F = FiniteField(3, 1)
    rng = np.random.default_rng(12)
    mats = sample_matrices("GL", 3, 3, 20, rng)
    conj = sample_matrices("GL", 3, 3, 20, rng)
    _, inv, _ = det_inv_batch(F, conj)
    moved = mat_mul(F, conj, mat_mul(F, mats, inv))
    for a, b in zip(mats, moved):
        assert gamma_membership(F, a) == gamma_membership(F, b)


def test_det_square_class():
    F = FiniteField(3, 1)
    eye = identity_batch(F, 2, 1)[0]
    nonsq = np.array([[2, 0], [0, 1]], np.int16)    # det 2: not a square mod 3
    assert det_square_class(F, eye) == 1
    assert det_square_class(F, nonsq) == -1


def test_invariant_factors_separate_conjugacy_classes():
    F, mats = enumerate_matrices("GL", 2, 3)
    prints = [invariant_factors(F, H) for H in mats]
    # honest conjugacy classes, by orbit under the whole group
    _, inv, _ = det_inv_batch(F, mats)
    keys = encode_batch(mats, 3)
    index = {int(k): i for i, k in enumerate(keys)}
    seen = set()
    classes = []
    for i, k in enumerate(keys.tolist()):
        if k in seen:
            continue
        orbit = set()
        for g, ginv in zip(mats, inv):
            moved = mat_mul(F, g[None], mat_mul(F, mats[i][None], ginv[None]))[0]
            orbit.add(int(encode_batch(moved[None], 3)[0]))
        seen |= orbit
        classes.append(orbit)
    assert len(classes) == 8
    for orbit in classes:
        assert len({prints[index[k]] for k in orbit}) == 1
    assert len(set(prints)) == len(classes)


# ---------------------------------------------------------------------------
# spectra by enumeration and sampling


def test_brute_spectrum_sl23_plain():
    rep = brute_spectrum("SL", 2, 3, mode="full")
    assert rep["attained"] == [1, 2, 3, 4, 6]


def test_brute_spectrum_psl25():
    rep = brute_spectrum("SL", 2, 5, mode="full", order_kind="projective")
    assert rep["attained"] == [1, 2, 3, 5]


def test_verify_group_full_small_cases():
    for fam, n, q, eps in [("PSL", 2, 5, 1), ("PSp", 2, 3, 1), ("PSL", 3, 3, -1)]:
        rep = verify_group(S(fam, n, q, eps), mode="full")
        assert rep["verdict"] == "PASS"
        assert rep["violations"] == [] and rep["missing"] == []


def test_verify_group_symplectic_matrix_orders():
    rep = verify_group(S("Sp", 2, 3), mode="full")
    assert rep["verdict"] == "PASS"
    assert rep["order_kind"] == "plain"
    assert rep["attained"][-1] == 18


def test_verify_group_order_kind_override():
    rep = verify_group(S("PGL", 2, 5), mode="sample", samples=4000, seed=0)
    assert rep["verdict"] == "PASS"
    with pytest.raises(UsageError):
        verify_group(S("PGL", 2, 5), mode="sample", samples=10, order_kind="wrong")


def test_verify_group_sample_mode():
    rep = verify_group(S("PSL", 4, 3), mode="sample", samples=20000, seed=1)
    assert rep["verdict"] == "PASS"
    assert rep["violations"] == []
    assert rep["samples"] == 20000


def test_brute_tau_coset_gl33():
    rep = brute_spectrum("GL", 3, 3, mode="full", order_kind="tau_coset")
    assert rep["attained"] == [2, 4, 6, 8, 12]
    cos = graph_coset(3, 3)
    for v in rep["attained"]:
        assert v in cos


@pytest.mark.parametrize("n,q,order_kind", [
    (2, 3, "tau_coset"), (2, 5, "tau_coset"), (3, 3, "tau_coset"),
    (2, 3, "tau_delta_coset"), (2, 5, "tau_delta_coset"),   # GL_3(3) has no tau delta wing
])
def test_brute_tau_dedup_matches_every_g(n, q, order_kind):
    # the full enumeration measures each distinct g g^-T once; the reference
    # measures every g of the wing, with no deduplication
    rep = brute_spectrum("GL", n, q, mode="full", order_kind=order_kind)
    F, mats = enumerate_matrices("GL", n, q)
    d = math.gcd(n, q - 1)
    wing = (F.LOG[det_batch(F, mats)] % d) == (0 if order_kind == "tau_coset" else 1)
    bound = order_bound_fact(n, q, F.p)
    every = tau_coset_orders_batch(F, mats[wing], bound)
    assert rep["samples"] == int(wing.sum())
    assert rep["attained"] == sorted(set(every.tolist()))


def test_tau_coset_rejects_wrong_kind():
    with pytest.raises(UsageError):
        brute_spectrum("SL", 3, 3, mode="full", order_kind="tau_coset")


def test_unitary_transfer():
    # the graph coset of the unitary group attains exactly the linear values
    lin = brute_spectrum("GL", 3, 3, mode="full", order_kind="tau_coset")
    uni = brute_spectrum("GU", 3, 3, mode="full", order_kind="tau_coset")
    assert lin["attained"] == uni["attained"]


def test_unitary_tau_wing_with_diagonal_classes():
    # GU_3(5) has d = gcd(3, 6) = 3, so the det-class filter keeps the
    # matrices whose norm-one determinant lies in the d-th powers
    rep = brute_spectrum("GU", 3, 5, mode="sample", order_kind="tau_coset",
                         samples=600, seed=1)
    assert rep["attained"] == sorted(graph_coset(3, 5).all_values()) \
        == [2, 4, 6, 8, 10, 12, 20]


def test_verify_tau_coset_full():
    rep = verify_tau_coset(3, 3, mode="full")
    assert rep["verdict"] == "PASS"
    assert rep["missing"] == [] and rep["violations"] == []


@pytest.mark.parametrize("fam, n, q, samples, threads", [
    ("PSL", 3, 3, 12000, 3),
    # more samples than one block, so that each thread runs a block of its own
    ("PSp", 2, 5, BLOCK + 257, 2),
], ids=["one-block", "two-blocks"])
def test_thread_count_does_not_change_results(fam, n, q, samples, threads):
    one = verify_group(S(fam, n, q), mode="sample", samples=samples, seed=3, threads=1)
    many = verify_group(S(fam, n, q), mode="sample", samples=samples, seed=3, threads=threads)
    assert one["attained"] == many["attained"]
    assert one["threads"] == 1 and many["threads"] == threads
    assert one["samples"] == many["samples"] == samples


def test_tau_delta_probe_reports_new_values():
    rep = tau_delta_probe(4, 3, samples=30000, seed=0)
    omega = spectrum_linear(S("PSL", 4, 3))
    for v in rep["new_values"]:
        assert not omega.contains(v)
    assert rep["verdict"] in ("PASS", "FAIL")
    assert rep["socle"] == [20, 13, 12, 9, 8]


# ---------------------------------------------------------------------------
# witnesses


@pytest.mark.parametrize("fam,n,q", [("PSL", 3, 3), ("PSL", 2, 9), ("PGL", 4, 3)])
def test_witness_every_maximal_value(fam, n, q):
    spec = S(fam, n, q)
    for target in spectrum_linear(spec).generators:
        wit = witness_for_value(spec, target)
        assert wit is not UNSUPPORTED
        assert verify_witness(spec, wit) == target


def test_witness_full_closure_psl33():
    spec = S("PSL", 3, 3)
    for target in sorted(spectrum_linear(spec).all_values()):
        wit = witness_for_value(spec, target)
        assert verify_witness(spec, wit) == target


def test_witness_is_a_frozen_record():
    wit = witness_for_value(S("PSL", 3, 3), 13)
    assert (wit.group_kind, wit.target) == ("SL", 13)
    assert repr(wit).startswith("Witness(matrix=array([[")
    assert repr(wit).endswith(f", group_kind='SL', target=13, description={wit.description!r})")
    for field in ("matrix", "target"):
        with pytest.raises(AttributeError):
            setattr(wit, field, None)
        with pytest.raises(AttributeError):
            delattr(wit, field)


def test_witness_unsupported_for_unitary():
    assert witness_for_value(S("PSL", 3, 3, -1), 7) is UNSUPPORTED


def test_witness_report_shape():
    rows = witness_report(S("PSL", 3, 3))
    assert [r["target"] for r in rows] == [13, 8, 6]
    assert all(r["status"] == "ok" for r in rows)


# sha256 over every witness_for_value(spec, g) of the maximal values g of PSL
# and PGL, n <= 4, q in {3, 5, 7, 9}: 81 witnesses, semisimple and unipotent,
# recorded while the two constructions still had separate searches; the one
# shared candidate stream must draw and build exactly the same matrices
WITNESS_DIGEST = "450f34e3c66cef80ea026a7e7f2ce1c843845511df3819c4da90ec910a8b6d10"


def test_witnesses_are_pinned():
    h = hashlib.sha256()
    count = 0
    for fam in ("PSL", "PGL"):
        for n in (2, 3, 4):
            for q in (3, 5, 7, 9):
                spec = S(fam, n, q)
                for g in spectrum_linear(spec).generators:
                    wit = witness_for_value(spec, g)
                    count += 1
                    if wit is UNSUPPORTED:
                        h.update(f"{spec}:{g}:unsupported;".encode())
                        continue
                    h.update(f"{spec}:{g}:{wit.description}:".encode())
                    h.update(wit.matrix.tobytes())
    assert count == 81
    assert h.hexdigest() == WITNESS_DIGEST


# ---------------------------------------------------------------------------
# independence checks: representation choices must not leak into results


def test_field_modulus_independence():
    # order multiset over all invertible 2x2 matrices, two different moduli
    def order_multiset(field):
        total = field.q ** 4
        mats = decode_batch(np.arange(total, dtype=np.int64), field.q, 2)
        # encoded entries are field elements in either representation
        dets = det_batch(field, mats)
        inv = mats[dets != 0]
        bound = order_bound_fact(2, field.q, field.p)
        return sorted(orders_batch(field, inv, bound).tolist())

    assert order_multiset(FiniteField(3, 2)) == order_multiset(
        FiniteField(3, 2, modulus=(2, 1, 1)))


def test_sampling_partition_independence():
    a = brute_spectrum("SL", 2, 5, mode="sample", samples=9000, seed=5, threads=1)
    b = brute_spectrum("SL", 2, 5, mode="sample", samples=9000, seed=5, threads=4)
    assert a["attained"] == b["attained"]
