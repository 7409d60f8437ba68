"""Coset spectra: graph, field and graph-field wings, and the tau criterion."""

from __future__ import annotations

import math

import pytest

from groupspec.arith import UsageError, factorize
from groupspec.coset import (
    UNSUPPORTED,
    CosetSpectrum,
    Piece,
    _coset,
    extension_spectrum,
    field_coset_spectrum,
    graph_coset,
    graph_coset_pgl_even,
    is_unsupported,
    tau_criterion,
)
from groupspec.outer import out_delta, out_elements, out_phi, out_tau
from groupspec.spectra import GroupSpec, normalize, spectrum_linear, spectrum_symplectic

S = GroupSpec.from_q

SWEEP_Q = (3, 5, 7, 9, 25, 27, 49, 81, 121, 125, 243, 343, 625, 729)


# verdicts pinned after sampling the actual cosets; (case, witness) pairs are
# listed in ascending case order
TAU_TABLE = [
    (3, 5, 1, "equal", None, None),
    (3, 343, 1, "witness", 1, 28),
    (4, 3, -1, "witness", 3, 18),
    (5, 3, 1, "witness", 1, 36),
    (4, 3, 1, "witness", 3, 18),
    (4, 5, 1, "witness", 4, 26),
    (3, 3, 1, "witness", 1, 12),
    (3, 3, -1, "equal", None, None),
    (3, 9, -1, "witness", 1, 12),
    (4, 5, -1, "equal", None, None),
    (16, 3, -1, "equal", None, None),
]


@pytest.mark.parametrize("n,q,eps,verdict,case,witness", TAU_TABLE)
def test_tau_criterion_table(n, q, eps, verdict, case, witness):
    res = tau_criterion(n, q, eps)
    assert res.verdict == verdict
    assert res.case == case
    assert res.witness == witness
    assert res.tau_admissible == (verdict == "equal")


def test_tau_criterion_reports_every_case():
    res = tau_criterion(3, 343, 1)
    assert res.triggered == ((1, 28), (2, 684))
    res = tau_criterion(4, 3, -1)
    assert res.triggered == ((3, 18), (4, 10))


def test_tau_criterion_rejects_bad_input():
    with pytest.raises(UsageError):
        tau_criterion(3, 8, 1)
    with pytest.raises(UsageError):
        tau_criterion(3, 3, 0)


def test_graph_coset_even_dimension():
    cos = graph_coset(4, 3)
    assert cos.maximal_elements() == (18, 12, 10, 8)
    assert 18 in cos and 8 in cos
    assert 24 not in cos and 36 not in cos
    # values outside the socle exist exactly because the verdict is a witness
    omega = spectrum_linear(S("PSL", 4, 3))
    assert tau_criterion(4, 3, 1).witness in cos
    assert not omega.contains(18)


def test_graph_coset_odd_dimension_is_doubled_symplectic():
    cos = graph_coset(5, 3)
    assert cos.maximal_elements() == (36, 24, 20, 16)
    sp = spectrum_symplectic(S("Sp", 2, 3))
    assert cos.maximal_elements() == tuple(2 * g for g in sp.generators)


def test_graph_coset_pgl_even():
    cos = graph_coset_pgl_even(4, 3)
    psp = spectrum_symplectic(S("PSp", 2, 3))
    assert cos.to_jsonable() == [
        {"multiplier": 2, "generators": list(psp.generators), "constraint": "none"}]


def test_graph_coset_rejects_even_characteristic():
    with pytest.raises(UsageError):
        graph_coset(4, 4)


def test_field_coset_prime_cube():
    cos = field_coset_spectrum(3, 343, 1, 0, 3, "plain")
    assert cos.maximal_elements() == (57, 48, 42, 18)
    sub = spectrum_linear(S("PSL", 3, 7))
    assert cos.to_jsonable() == [
        {"multiplier": 3, "generators": list(sub.generators), "constraint": "none"}]


def test_field_coset_unsupported_twists():
    # nontrivial diagonal twist with no closed form
    assert is_unsupported(field_coset_spectrum(3, 343, 1, 1, 3, "plain"))
    # graph variant with odd k, even n, odd twist
    assert is_unsupported(field_coset_spectrum(4, 27, 1, 1, 3, "graph"))


def test_field_coset_graph_variant_even_k():
    cos = field_coset_spectrum(3, 9, 1, 0, 2, "graph")
    sub = spectrum_linear(S("PSL", 3, 3, -1))
    assert cos.to_jsonable() == [
        {"multiplier": 2, "generators": list(sub.generators), "constraint": "none"}]


def test_field_coset_unitary_graph_variant_even_k():
    # on the unitary side tau = phi^m, so for even k phi^(m/k) tau generates
    # the same cyclic subgroup as phi^(m/k) and the two cosets share their orders
    graph = field_coset_spectrum(3, 9, -1, 0, 2, "graph")
    assert graph.to_jsonable() == field_coset_spectrum(3, 9, -1, 0, 2, "plain").to_jsonable()
    assert graph.to_jsonable() == [{"multiplier": 4, "generators": [6, 4], "constraint": "none"}]
    assert field_coset_spectrum(4, 9, -1, 0, 2, "graph").maximal_elements() == (36, 24, 20, 16)
    # an odd diagonal twist of the even-n graph coset still has no closed form
    assert is_unsupported(field_coset_spectrum(4, 9, -1, 1, 2, "graph"))


def _sweep_groups():
    for n in range(3, 9):
        for q in SWEEP_Q:
            (p, m), = factorize(q).pairs
            for eps in (1, -1):
                yield n, q, eps, p, m


def test_unitary_graph_variant_equals_plain_for_even_k():
    cases = 0
    for n, q, eps, p, m in _sweep_groups():
        if eps == 1:
            continue
        for k in range(2, m + 1, 2):
            if m % k:
                continue
            for i in range(-1, math.gcd(n, q + 1) + 1):
                graph = field_coset_spectrum(n, q, -1, i, k, "graph")
                plain = field_coset_spectrum(n, q, -1, i, k, "plain")
                if is_unsupported(plain):
                    assert is_unsupported(graph)
                else:
                    assert graph.to_jsonable() == plain.to_jsonable()
                cases += 1
    assert cases == 226


def test_coset_orders_depend_only_on_the_cyclic_subgroup():
    # x L and x^j L share their orders when gcd(j, |x|) = 1
    pairs = 0
    for n, q, eps, p, m in _sweep_groups():
        for x in out_elements(eps, n, p, m):
            base = _coset(x)
            order = x.order()
            for j in range(2, order):
                if math.gcd(j, order) != 1:
                    continue
                other = _coset(x.power(j))
                if is_unsupported(base):
                    assert is_unsupported(other)
                else:
                    assert other.maximal_elements() == base.maximal_elements()
                pairs += 1
    assert pairs == 2814


def test_field_coset_rejects_bad_k():
    with pytest.raises(UsageError):
        field_coset_spectrum(3, 9, 1, 0, 3, "plain")
    with pytest.raises(UsageError):
        field_coset_spectrum(3, 9, 1, 0, 2, "twisted")


def test_extension_by_field_automorphism():
    ext = extension_spectrum(out_phi(1, 3, 7, 3))
    assert ext.maximal_elements() == (39331, 39216, 798, 342)
    # here the socle already swallows both proper-coset wings
    assert ext.maximal_elements() == spectrum_linear(S("PSL", 3, 343)).generators


def test_extension_by_tau_when_admissible():
    ext = extension_spectrum(out_tau(1, 3, 5, 1))
    omega = spectrum_linear(S("PSL", 3, 5))
    assert ext.maximal_elements() == omega.generators
    for g in ext.maximal_elements():
        assert omega.contains(g)


def test_extension_unitary_field_automorphism():
    ext = extension_spectrum(out_phi(-1, 3, 3, 2))
    assert ext.maximal_elements() == (80, 73, 30, 24)


def test_extension_by_diagonal_is_unsupported():
    assert is_unsupported(extension_spectrum(out_delta(1, 4, 3, 1)))


def test_unsupported_is_falsy_singleton():
    assert not UNSUPPORTED
    assert repr(UNSUPPORTED) == "Unsupported"
    assert UNSUPPORTED is type(UNSUPPORTED)()


# ---------------------------------------------------------------------------
# the CosetSpectrum container


def _toy():
    return CosetSpectrum(
        (Piece(2, normalize([9, 6]), "p_divisible"),
         Piece(2, normalize([5, 4]), "p_prime_only"),
         Piece(4, normalize([2]))),
        p=3)


def test_piece_membership_constraints():
    divisible = Piece(2, normalize([9, 6]), "p_divisible")
    assert divisible.membership(18, 3) and divisible.membership(6, 3)
    assert not divisible.membership(4, 3)       # 2 divides 6 but misses the p part
    coprime = Piece(2, normalize([9, 6]), "p_prime_only")
    assert coprime.membership(4, 3)
    assert not coprime.membership(18, 3)        # 9 is in the base but is a p-multiple
    cos = _toy()
    assert 18 in cos and 12 in cos and 10 in cos and 8 in cos
    assert 7 not in cos and 5 not in cos        # multiplier filters odd values


def test_coset_maximal_elements_antichain():
    gens = _toy().maximal_elements()
    assert gens == (18, 12, 10, 8)
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            assert a % b != 0 and b % a != 0


def test_coset_all_values_matches_membership():
    cos = _toy()
    values = cos.all_values()
    assert values == {a for a in range(1, 40) if a in cos}


def test_coset_scaled():
    cos = _toy().scaled(3)
    assert cos.maximal_elements() == tuple(3 * g for g in _toy().maximal_elements())


def test_piece_rejects_bad_constraint():
    with pytest.raises(UsageError):
        Piece(2, normalize([4]), "even_only")
    with pytest.raises(UsageError):
        Piece(0, normalize([4]))
