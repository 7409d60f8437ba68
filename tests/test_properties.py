"""Randomized invariants over the arithmetic and container layers."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from groupspec.arith import co_pi_part, factorize, pi_part, r_part, two_part
from groupspec.coset import CosetSpectrum, Piece
from groupspec.outer import OutElement
from groupspec.spectra import Spectrum, _support, _supported, normalize

settings.register_profile("suite", deadline=None, max_examples=150)
settings.load_profile("suite")

positive = st.integers(min_value=1, max_value=10**6)
small_positive = st.integers(min_value=1, max_value=400)


def divisor_closure(values):
    out = set()
    for v in values:
        for d in range(1, v + 1):
            if v % d == 0:
                out.add(d)
    return out


# ---------------------------------------------------------------------------
# arith


@given(positive, positive)
def test_part_factors_the_argument(a, b):
    x = pi_part(a, b)
    y = co_pi_part(a, b)
    assert x * y == a
    assert math.gcd(x, y) == 1
    assert math.gcd(y, b) == 1


@given(positive)
def test_two_part_is_a_power_of_two(a):
    t = two_part(a)
    assert a % t == 0
    assert t & (t - 1) == 0
    assert (a // t) % 2 == 1


@given(positive, st.sampled_from([3, 5, 7, 11]))
def test_r_part_is_the_full_r_power(a, r):
    t = r_part(a, r)
    assert a % t == 0
    assert (a // t) % r != 0


@given(positive)
def test_factorize_round_trip(n):
    f = factorize(n)
    assert f.value == n
    for p, e in f:
        assert e >= 1 and n % p**e == 0 and n % p**(e + 1) != 0


@given(st.integers(min_value=2, max_value=100),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20))
def test_gcd_of_power_terms(q, k, l):
    # the classical identity behind every torus order computation
    assert math.gcd(q**k - 1, q**l - 1) == q**math.gcd(k, l) - 1


# ---------------------------------------------------------------------------
# spectra containers


@given(st.lists(small_positive, min_size=1, max_size=12))
def test_normalize_is_a_maximal_antichain(values):
    spec = normalize(values)
    gens = spec.generators
    assert list(gens) == sorted(gens, reverse=True)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j:
                assert b % a != 0
    # same divisor closure as the input
    assert divisor_closure(gens) == divisor_closure(values)


@given(st.lists(small_positive, min_size=1, max_size=40),
       st.lists(st.integers(min_value=2, max_value=60), max_size=8))
def test_normalize_index_matches_plain_scan(values, base):
    # exact supports over any base keep v | w => support(v) <= support(w), so
    # the index may skip only values v cannot divide
    base = tuple(base)
    supported = [_supported(v, _support(v, base)) for v in values]
    indexed = normalize(supported)
    assert indexed == normalize(values)
    assert all(type(g) is int for g in indexed.generators)


@given(st.lists(positive, max_size=40),
       st.lists(st.integers(min_value=2, max_value=60), max_size=8), st.booleans())
def test_full_check_accepts_what_normalize_builds(values, base, supported):
    # normalize builds its Spectrum without the pairwise antichain test; the
    # public constructor, which runs it, must accept every such result
    if supported:
        values = [_supported(v, _support(v, tuple(base))) for v in values]
    fast = normalize(values)
    assert Spectrum(fast.generators) == fast


@given(st.lists(small_positive, min_size=1, max_size=12))
def test_membership_matches_divisor_closure(values):
    spec = normalize(values)
    closure = divisor_closure(values)
    for probe in range(1, max(values) + 2):
        assert (probe in spec) == (probe in closure)


@given(st.lists(small_positive, min_size=1, max_size=8),
       st.lists(small_positive, min_size=1, max_size=8))
def test_union_closure(left, right):
    u = normalize(left).union(normalize(right))
    assert divisor_closure(u.generators) == divisor_closure(left + right)


@given(st.lists(small_positive, min_size=1, max_size=10),
       st.sampled_from([3, 5, 7]))
def test_coprime_restriction(values, p):
    spec = normalize(values)
    restricted = spec.restrict_coprime_to(p)
    for g in restricted.generators:
        assert g % p != 0
        assert g in spec
    for v in spec.all_values():
        if v % p != 0:
            assert v in restricted


# ---------------------------------------------------------------------------
# outer automorphism words


out_groups = st.tuples(st.sampled_from([1, -1]),
                       st.integers(min_value=3, max_value=6),
                       st.sampled_from([3, 5, 7]),
                       st.integers(min_value=1, max_value=3))


@st.composite
def out_triples(draw):
    eps, n, p, m = draw(out_groups)
    def element():
        return OutElement(eps, n, p, m,
                          draw(st.integers(min_value=0, max_value=7)),
                          draw(st.integers(min_value=0, max_value=1)),
                          draw(st.integers(min_value=0, max_value=11)))
    return element(), element(), element()


@given(out_triples())
def test_out_associativity(triple):
    x, y, z = triple
    assert (x * y) * z == x * (y * z)


@given(out_triples())
def test_out_inverse(triple):
    x, _, _ = triple
    assert (x * x.inverse()).is_identity()
    assert (x.inverse() * x).is_identity()


@given(out_triples())
def test_out_order_matches_iteration(triple):
    x, _, _ = triple
    k = x.order()
    assert x.power(k).is_identity()
    acc = x
    for j in range(1, k):
        assert not acc.is_identity()
        assert acc == x.power(j)
        acc = acc * x
    assert acc.is_identity()


# ---------------------------------------------------------------------------
# coset containers


pieces = st.builds(Piece,
                   st.integers(min_value=1, max_value=6),
                   st.lists(st.integers(min_value=1, max_value=60),
                            min_size=1, max_size=5).map(normalize),
                   st.sampled_from(["none", "p_divisible", "p_prime_only"]))


@given(st.lists(pieces, min_size=1, max_size=3), st.sampled_from([3, 5]))
def test_coset_membership_agrees_with_all_values(piece_list, p):
    cos = CosetSpectrum(tuple(piece_list), p)
    values = cos.all_values()
    bound = max(values) + 1 if values else 2
    assert values == {a for a in range(1, bound + 1) if a in cos}


@given(st.lists(pieces, min_size=1, max_size=3), st.sampled_from([3, 5]))
def test_coset_maxima_dominate_all_values(piece_list, p):
    # coset spectra are not divisor closed, but every attained value
    # divides an attained maximum and the maxima form an antichain
    cos = CosetSpectrum(tuple(piece_list), p)
    maxima = cos.maximal_elements()
    for m in maxima:
        assert m in cos
    for a in cos.all_values():
        assert any(m % a == 0 for m in maxima)
    for m in maxima:
        assert not any(other != m and other % m == 0 for other in maxima)


@given(st.lists(pieces, min_size=1, max_size=3),
       st.sampled_from([3, 5]),
       st.integers(min_value=1, max_value=4))
def test_coset_scaling(piece_list, p, k):
    cos = CosetSpectrum(tuple(piece_list), p)
    scaled = cos.scaled(k)
    for a in cos.all_values():
        assert k * a in scaled
