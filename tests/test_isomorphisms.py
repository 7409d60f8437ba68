"""Exceptional isomorphisms between the classical families, as data.

Each row of ISOMORPHISMS is one isomorphism between two simple groups, and it
names its reference: Kleidman and Liebeck, *The Subgroup Structure of the
Finite Classical Groups* (1990), §2.9. Isomorphic groups have one spectrum,
so the closed forms of the two sides must agree at every odd prime power
q < 1000, and at q far past it: 3^40, 5^23 and the least prime above 10^29. That checks the linear, symplectic and orthogonal lcm tables
against each other far beyond the oracle's fields. The even orthogonal closed
form gives only the p'-part (spectrum_orthogonal_semisimple), so its rows
compare the p'-part of the other side. A side that is a pair of sides stands
for their direct product, whose element orders are the lcms of pairs.
"""

from __future__ import annotations

import math

import pytest

from groupspec.arith import UsageError, odd_prime_power
from groupspec.spectra import GroupSpec, normalize, spectrum

KL = "Kleidman-Liebeck (1990), §2.9"

# (left, right, part, reference); a side is (family, n, eps, k) for the group
# over F_{q^k}, or a pair of sides for their direct product, and part is
# "all" for the whole spectrum or "p'" for p'-parts
ISOMORPHISMS = (
    (("PSL", 2, 1, 1), ("PSL", 2, -1, 1), "all", KL + ": L_2(q) = U_2(q)"),
    (("PSL", 2, 1, 1), ("PSp", 1, 1, 1), "all", KL + ": L_2(q) = PSp_2(q)"),
    (("PSL", 2, 1, 1), ("OmegaOdd", 1, 1, 1), "all", KL + ": L_2(q) = Omega_3(q)"),
    (("PSp", 2, 1, 1), ("OmegaOdd", 2, 1, 1), "all", KL + ": PSp_4(q) = Omega_5(q)"),
    (("POmegaEven", 3, 1, 1), ("PSL", 4, 1, 1), "p'", KL + ": POmega+_6(q) = L_4(q)"),
    (("POmegaEven", 3, -1, 1), ("PSL", 4, -1, 1), "p'", KL + ": POmega-_6(q) = U_4(q)"),
    (("POmegaEven", 2, -1, 1), ("PSL", 2, 1, 2), "p'", KL + ": POmega-_4(q) = L_2(q^2)"),
    (("POmegaEven", 2, 1, 1), (("PSL", 2, 1, 1), ("PSL", 2, 1, 1)), "p'",
     KL + ": POmega+_4(q) = L_2(q) x L_2(q)"),
)


def _odd_prime_powers(top: int) -> list:
    out = []
    for q in range(3, top, 2):
        try:
            odd_prime_power(q)
        except UsageError:
            continue
        out.append(q)
    return out


ODD_Q = _odd_prime_powers(1000)
LARGE_Q = (3 ** 40, 5 ** 23, 10 ** 29 + 319)


def _spectrum(side, q: int):
    if isinstance(side[0], tuple):
        left, right = (_spectrum(s, q) for s in side)
        return normalize([math.lcm(a, b) for a in left for b in right])
    family, n, eps, k = side
    return spectrum(GroupSpec.from_q(family, n, q ** k, eps))


def _generators(side, q: int, part: str) -> tuple:
    got = _spectrum(side, q)
    return (got if part == "all" else got.restrict_coprime_to(odd_prime_power(q)[0])).generators


def test_the_sweep_takes_every_odd_prime_power_below_1000():
    # 168 primes below 1000, less 2, plus 3^2..3^6, 5^2..5^4, 7^2, 7^3,
    # 11^2, 13^2, 17^2, 19^2, 23^2, 29^2 and 31^2
    assert len(ODD_Q) == 184 and ODD_Q[:6] == [3, 5, 7, 9, 11, 13] and ODD_Q[-1] == 997


@pytest.mark.parametrize("left,right,part,reference", ISOMORPHISMS,
                         ids=[row[3].split(": ")[1] for row in ISOMORPHISMS])
def test_isomorphic_groups_have_equal_closed_forms(left, right, part, reference):
    for q in ODD_Q:
        assert _generators(left, q, part) == _generators(right, q, part), (reference, q)


@pytest.mark.parametrize("left,right,part,reference", ISOMORPHISMS,
                         ids=[row[3].split(": ")[1] for row in ISOMORPHISMS])
def test_isomorphic_groups_have_equal_closed_forms_at_large_q(left, right, part, reference):
    for q in LARGE_Q:
        assert _generators(left, q, part) == _generators(right, q, part), (reference, q)


def test_a_row_with_the_wrong_sign_disagrees_at_every_q():
    # POmega+-_6(q) against U_4(q) and L_4(q) swapped: a comparison that
    # could not fail would pass these too
    for (family, n, eps, k), right, part, _ in ISOMORPHISMS[4:6]:
        for q in ODD_Q:
            assert _generators((family, n, -eps, k), q, part) != _generators(right, q, part), q
