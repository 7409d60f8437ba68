"""Subgroup containments between the classical families, as data.

Each row of CONTAINMENTS gives a simple (or projective) group H and a group
G with H <= G, so every element order of H is one of G: omega(H) is a subset
of omega(G). Each containment says in its docstring how the centres match, so
that the projective image of the subgroup is H itself. References: Kleidman
and Liebeck, *The Subgroup Structure of the Finite Classical Groups* (1990),
and Taylor, *The Geometry of the Classical Groups* (1992). The closed forms
answer any q at once, so the rows check the linear, unitary, symplectic and
odd orthogonal tables against each other at n <= 20 over fields the matrix
oracle cannot reach, and at n <= 6 over fields far past every table: 3^40,
5^23 and the least prime above 10^29. The block-diagonal rows check one
table against itself at a, b and a + b: Sp_2a(q) x Sp_2b(q) <= Sp_2(a+b)(q),
and the same for the p'-parts of the even orthogonal groups.
"""

from __future__ import annotations

import math

import pytest

from groupspec.arith import is_prime
from groupspec.spectra import GroupSpec, spectrum

S = GroupSpec.from_q
CONTAINMENT_Q = (3, 5, 7, 9, 11, 25, 27)
LARGE_Q = (3 ** 40, 5 ** 23, 10 ** 29 + 319)


def symplectic_in_linear(n: int, q: int) -> tuple:
    """PSp_2n(q) <= PSL_2n(q). Sp_2n(q) <= SL_2n(q), and the scalars of
    SL_2n(q) that preserve the symplectic form are +-1, so Z(SL_2n(q)) meets
    Sp_2n(q) in Z(Sp_2n(q)) = <-1>, and Sp_2n(q)Z/Z = PSp_2n(q)."""
    return S("PSp", n, q), S("PSL", 2 * n, q)


def unitary_in_linear_over_q2(n: int, q: int) -> tuple:
    """PSU_n(q) <= PSL_n(q^2). SU_n(q) <= SL_n(q^2); a scalar x of
    SL_n(q^2) has x^n = 1, and it lies in SU_n(q) exactly when x^(q+1) = 1
    too, which is Z(SU_n(q)). So SU_n(q)Z/Z = PSU_n(q)."""
    return S("PSL", n, q, -1), S("PSL", n, q * q)


def linear_in_linear_over_q2(n: int, q: int) -> tuple:
    """PSL_n(q) <= PSL_n(q^2). SL_n(q) <= SL_n(q^2), and a scalar of
    SL_n(q^2) lies in SL_n(q) exactly when it lies in F_q, which is
    Z(SL_n(q)). So SL_n(q)Z/Z = PSL_n(q)."""
    return S("PSL", n, q), S("PSL", n, q * q)


def odd_orthogonal_in_linear(n: int, q: int) -> tuple:
    """Omega_2n+1(q) <= PSL_2n+1(q). Omega_2n+1(q) <= SL_2n+1(q); a scalar x
    that preserves the quadratic form has x^2 = 1, and x^(2n+1) = 1, so
    x = 1: Omega_2n+1(q) meets Z(SL_2n+1(q)) trivially and maps into
    PSL_2n+1(q) one to one. Its own centre is trivial."""
    return S("OmegaOdd", n, q), S("PSL", 2 * n + 1, q)


def linear_in_projective_general(n: int, q: int) -> tuple:
    """PSL_n(q) <= PGL_n(q). SL_n(q)Z/Z is the image of SL_n(q) in
    GL_n(q)/Z, and Z(SL_n(q)) = SL_n(q) & Z, so it is PSL_n(q)."""
    return S("PSL", n, q), S("PGL", n, q)


def unitary_in_projective_general(n: int, q: int) -> tuple:
    """PSU_n(q) <= PGU_n(q). SU_n(q)Z/Z is the image of SU_n(q) in
    GU_n(q)/Z, with Z the scalars of GU_n(q), and Z(SU_n(q)) = SU_n(q) & Z,
    so it is PSU_n(q)."""
    return S("PSL", n, q, -1), S("PGL", n, q, -1)


# (containment, least n); each is checked at least n <= n <= 20 over
# CONTAINMENT_Q, and up to n = 6 over LARGE_Q
CONTAINMENTS = (
    (symplectic_in_linear, 1),
    (unitary_in_linear_over_q2, 2),
    (linear_in_linear_over_q2, 2),
    (odd_orthogonal_in_linear, 1),
    (linear_in_projective_general, 2),
    (unitary_in_projective_general, 2),
)


def missing_orders(sub: GroupSpec, group: GroupSpec) -> list:
    """The maximal element orders of sub that are not element orders of
    group."""
    have = spectrum(group)
    return [g for g in spectrum(sub) if g not in have]


@pytest.mark.parametrize("containment,least", CONTAINMENTS,
                         ids=[row[0].__name__ for row in CONTAINMENTS])
def test_subgroup_orders_are_orders_of_the_group(containment, least):
    for n in range(least, 21):
        for q in CONTAINMENT_Q:
            sub, group = containment(n, q)
            assert missing_orders(sub, group) == [], (containment.__name__, str(sub), str(group))


@pytest.mark.parametrize("containment,least", CONTAINMENTS,
                         ids=[row[0].__name__ for row in CONTAINMENTS])
def test_subgroup_orders_are_orders_of_the_group_at_large_q(containment, least):
    for n in range(least, 7):
        for q in LARGE_Q:
            sub, group = containment(n, q)
            assert missing_orders(sub, group) == [], (containment.__name__, str(sub), str(group))


def symplectic_block_diagonal(a: int, b: int, q: int, signs: tuple) -> tuple:
    """Sp_2a(q) x Sp_2b(q) <= Sp_2(a+b)(q), block diagonally. The
    symplectic space of dimension 2(a+b) is the orthogonal sum of two
    nondegenerate subspaces of dimensions 2a and 2b, and an isometry of each
    summand, extended by the identity, is one of the whole space. (x, y) has
    order lcm(|x|, |y|), so each such lcm is an element order of
    Sp_2(a+b)(q). No centre is divided out on either side."""
    return S("Sp", a, q), S("Sp", b, q), S("Sp", a + b, q)


def orthogonal_block_diagonal(a: int, b: int, q: int, signs: tuple) -> tuple:
    """Omega^e1_2a(q) x Omega^e2_2b(q) <= Omega^(e1 e2)_2(a+b)(q), block
    diagonally, for the p'-parts. A quadratic space of dimension 2n has
    type + exactly when its discriminant is (-1)^n times a square. The
    discriminant of an orthogonal sum is the product of the summands', so
    the sum of spaces of types e1 and e2 has type e1 e2. (x, y) has
    determinant det(x) det(y) and, q being odd, spinor norm theta(x)
    theta(y), as a product of reflections of each summand is one of the
    sum. Omega is the kernel of the spinor norm on SO, so (x, y) lies in
    Omega^(e1 e2)_2(a+b)(q). Its order is lcm(|x|, |y|), prime to p when
    both are, and the p'-part of a spectrum is its set of orders prime to
    p. No centre is divided out on either side."""
    e1, e2 = signs
    return (S("OmegaEven", a, q, e1), S("OmegaEven", b, q, e2),
            S("OmegaEven", a + b, q, e1 * e2))


def missing_block_orders(left: GroupSpec, right: GroupSpec, group: GroupSpec) -> list:
    """The lcms of a maximal element order of left and one of right that
    are not element orders of group, ascending. Every order of left x right
    divides one of these lcms, so checking them checks every order."""
    have = spectrum(group)
    lcms = {math.lcm(x, y) for x in spectrum(left) for y in spectrum(right)}
    return sorted(v for v in lcms if v not in have)


# (block diagonal, least a, the sign pairs (e1, e2)); each is checked for
# least <= a <= b with a + b <= 12 over CONTAINMENT_Q and a + b <= 6 over
# LARGE_Q. The rows read the tables of one kind at a, b and a + b at once.
BLOCK_DIAGONALS = (
    (symplectic_block_diagonal, 1, ((1, 1),)),
    (orthogonal_block_diagonal, 2, ((1, 1), (1, -1), (-1, 1), (-1, -1))),
)


@pytest.mark.parametrize("block,least,signs", BLOCK_DIAGONALS,
                         ids=[row[0].__name__ for row in BLOCK_DIAGONALS])
def test_block_diagonal_orders_are_orders_of_the_group(block, least, signs):
    checks = 0
    for qs, top in ((CONTAINMENT_Q, 12), (LARGE_Q, 6)):
        for q in qs:
            for total in range(2 * least, top + 1):
                for a in range(least, total // 2 + 1):
                    for pair in signs:
                        left, right, group = block(a, total - a, q, pair)
                        assert missing_block_orders(left, right, group) == [], (
                            block.__name__, str(left), str(right), str(group))
                        checks += 1
    assert checks == {"symplectic_block_diagonal": 252 + 27,
                      "orthogonal_block_diagonal": 700 + 48}[block.__name__]


def test_a_block_diagonal_past_the_group_is_caught():
    # Sp_4(3) x Sp_4(3) is not in Sp_6(3): its elements of orders
    # lcm(8, 10) = 40, lcm(12, 10) = 60, lcm(18, 8) = 72 and lcm(18, 10) = 90
    # have none there, so a check that could not fail would pass this too
    assert missing_block_orders(S("Sp", 2, 3), S("Sp", 2, 3), S("Sp", 3, 3)) == [40, 60, 72, 90]
    assert missing_block_orders(*symplectic_block_diagonal(2, 2, 3, (1, 1))) == []


def test_the_large_prime_is_the_least_above_10_to_the_29():
    assert [k for k in range(320) if is_prime(10 ** 29 + k)] == [319]


def test_a_containment_the_wrong_way_round_is_caught():
    # PGL_4(3) is not in PSL_4(3): its elements of orders 40, 26 and 24
    # have none there, so a check that could not fail would pass this too
    assert missing_orders(S("PGL", 4, 3), S("PSL", 4, 3)) == [40, 26, 24]
    assert missing_orders(*linear_in_projective_general(4, 3)) == []
