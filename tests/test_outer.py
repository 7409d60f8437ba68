"""The outer automorphism group: normal form, relations, admissibility."""

from __future__ import annotations

import random

import pytest

from groupspec.arith import UsageError
from groupspec.coset import extension_spectrum, is_unsupported
from groupspec.outer import (
    OutElement,
    _class_reps,
    _subgroup_key,
    admissible_generators,
    out_delta,
    out_elements,
    out_identity,
    out_phi,
    out_tau,
)
from groupspec.spectra import GroupSpec, spectrum_linear

S = GroupSpec.from_q


def test_presentation_relations():
    for eps, n, p, m in [(1, 3, 5, 1), (1, 4, 3, 2), (1, 6, 3, 2), (-1, 4, 3, 1), (-1, 3, 3, 2)]:
        one = out_identity(eps, n, p, m)
        phi = out_phi(eps, n, p, m)
        tau = out_tau(eps, n, p, m)
        delta = out_delta(eps, n, p, m)
        d = delta.d
        assert delta.power(d).is_identity()
        assert tau.power(2).is_identity()
        phi_order = m if eps == 1 else 2 * m
        assert phi.power(phi_order).is_identity()
        # delta conjugated by phi is delta^p, by tau is the inverse
        assert phi.inverse().mul(delta).mul(phi) == delta.power(p)
        assert tau.mul(delta).mul(tau) == delta.inverse()
        if eps == 1:
            assert phi.mul(tau) == tau.mul(phi)
        else:
            assert tau == phi.power(m)
        assert one.mul(phi) == phi


def test_normal_form_strings():
    assert str(out_identity(1, 4, 3, 2)) == "1"
    assert str(out_delta(1, 4, 3, 2)) == "d"
    assert str(out_phi(1, 4, 3, 2)) == "f"
    assert str(out_tau(1, 4, 3, 2)) == "t"
    word = out_delta(1, 4, 3, 2).mul(out_phi(1, 4, 3, 2).mul(out_tau(1, 4, 3, 2)))
    assert str(word) == "d f t"
    # on the unitary side tau is absorbed into the field part
    assert str(out_tau(-1, 3, 3, 2)) == "f^2"


def test_group_law_randomized():
    rng = random.Random(3)
    for eps, n, p, m in [(1, 4, 3, 2), (1, 6, 5, 2), (-1, 4, 3, 2), (-1, 5, 3, 3)]:
        pool = out_elements(eps, n, p, m)
        for _ in range(200):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert x.mul(y).mul(z) == x.mul(y.mul(z))
        for x in pool:
            assert x.mul(x.inverse()).is_identity()
            assert x.power(x.order()).is_identity()
            k = rng.randrange(1, 8)
            step = out_identity(eps, n, p, m)
            for _ in range(k):
                step = step.mul(x)
            assert step == x.power(k)


def test_out_elements_sizes():
    assert len(out_elements(1, 3, 5, 1)) == 2       # d = 1, so only 1 and t
    assert len(out_elements(1, 4, 3, 1)) == 4
    assert len(out_elements(1, 4, 3, 2)) == 16
    assert len(out_elements(-1, 3, 3, 1)) == 2
    for eps, n, p, m in [(1, 4, 3, 2), (-1, 4, 3, 1)]:
        pool = out_elements(eps, n, p, m)
        assert len({x.key() for x in pool}) == len(pool)


def test_mixing_groups_raises():
    with pytest.raises(UsageError):
        out_phi(1, 3, 3, 2).mul(out_phi(1, 4, 3, 2))


def _cyclic_class_reps(eps, n, p, m):
    """One generator per Out-conjugacy class of cyclic subgroups, through
    the class walk (_class_reps) that admissible_generators counts with."""
    elems = out_elements(eps, n, p, m)
    subs = {}
    for x in elems:              # key order: each subgroup keeps its least key
        subs.setdefault(_subgroup_key(x), x)
    return [subs[sub] for sub in _class_reps(subs, elems)]


def test_cyclic_subgroups_up_to_conjugacy():
    # Out is a Klein four group: the trivial one plus three cyclic subgroups
    reps = _cyclic_class_reps(1, 4, 3, 1)
    assert len(reps) == 4
    # Out = <t> alone
    reps = _cyclic_class_reps(1, 3, 5, 1)
    assert sorted(str(g) for g in reps) == ["1", "t"]


# ---------------------------------------------------------------------------
# admissibility: which cyclic extensions keep the spectrum inside the socle


ADMISSIBLE_TABLE = [
    (3, 5, 1, ["t"], ("B-psi-tau",), 2, 1),
    (3, 343, 1, ["f"], ("B-psi",), 2, 1),
    (4, 25, 1, ["f", "f t"], ("C-field", "C-field-tau"), 3, 2),
    (6, 9, 1, ["f", "f t"], ("C-field", "C-field-tau"), 3, 2),
    (4, 9, 1, [], ("A-empty",), 1, 0),
    (4, 3, -1, [], ("U-empty",), 1, 0),
    (4, 9, -1, [], ("U-empty",), 1, 0),
    (10, 3, -1, [], ("U-empty",), 1, 0),
    (4, 5, -1, ["f"], ("U-two-part",), 2, 1),
    (3, 3, -1, ["f"], ("U-two-part",), 2, 1),
    (3, 9, -1, [], (), 1, 0),
    (16, 3, -1, ["f"], ("U-psi-tau",), 2, 1),
]


@pytest.mark.parametrize("n,q,eps,gens,rows,total,nontrivial", ADMISSIBLE_TABLE)
def test_admissible_generators_table(n, q, eps, gens, rows, total, nontrivial):
    rep = admissible_generators(S("PSL", n, q, eps))
    assert [str(g) for g in rep.generators] == gens
    assert rep.rows == rows
    assert rep.class_total == total
    assert rep.class_nontrivial == nontrivial


def test_admissible_report_constants():
    rep = admissible_generators(S("PSL", 4, 25, 1))
    assert rep.d == 4 and rep.b == 2
    assert rep.tau.verdict == "witness"
    rep = admissible_generators(S("PSL", 3, 343, 1))
    assert rep.d == 3 and rep.b == 3


def test_admissible_needs_simple_linear_family():
    with pytest.raises(UsageError):
        admissible_generators(S("PGL", 4, 3, 1))
    with pytest.raises(UsageError):
        admissible_generators(S("PSL", 2, 9, 1))


def test_no_admissible_generator_powers_into_diagonal():
    # a nontrivial power lying in <delta> would force new orders into the coset
    for n, q, eps, *_ in ADMISSIBLE_TABLE:
        rep = admissible_generators(S("PSL", n, q, eps))
        for gen in rep.generators:
            for k in range(1, gen.order()):
                w = gen.power(k)
                assert not (w.a == 0 and w.c == 0 and w.i != 0)


def test_admissible_extensions_stay_inside_socle():
    for n, q, eps in [(3, 5, 1), (3, 343, 1), (4, 25, 1), (16, 3, -1)]:
        spec = S("PSL", n, q, eps)
        omega = spectrum_linear(spec)
        rep = admissible_generators(spec)
        for gen in rep.generators:
            ext = extension_spectrum(gen)
            assert not is_unsupported(ext)
            for g in ext.maximal_elements():
                assert omega.contains(g)


# The smallest socles that reach the rows nothing above reaches, and the
# half-field diagnostic. A generator with a diagonal part (d ...) has a
# coset with no closed form, so extension_spectrum gives UNSUPPORTED and
# its admissibility verdict stays unchecked.
UNREACHED_ROWS = [
    (8, 2401, 1, ["d f^2 t"], ("A-v",), 2),
    (14, 169, 1, ["d^7 f t"], ("A-vi+",), 2),
    (50, 49, 1, ["d f"], ("A-vi-",), 2),
    (12, 625, 1, ["d^3 f^2 t", "f", "f t", "f^2 t"],
     ("C-field", "C-field-tau", "C-field-tau-eta"), 6),
    (8, 289, 1, ["d f t", "f", "f t"], ("C-field", "C-field-tau", "C-kappa+"), 4),
    (8, 961, 1, ["d f", "f", "f t"], ("C-field", "C-field-tau", "C-kappa-"), 4),
    (3, 125, -1, ["f^2"], ("U-psi",), 2),
    (14, 13, 1, [], (), 1),
]


@pytest.mark.parametrize("n,q,eps,gens,rows,total", UNREACHED_ROWS)
def test_admissible_rows_at_their_smallest_socles(n, q, eps, gens, rows, total):
    spec = S("PSL", n, q, eps)
    rep = admissible_generators(spec)
    assert [str(g) for g in rep.generators] == gens
    assert rep.rows == rows
    assert (rep.class_total, rep.class_nontrivial) == (total, total - 1)
    half_field = (n, q) == (14, 13)
    assert rep.diagnostics == (
        ("half-field row skipped: (n)_2 < (p-1)_2 holds but (m)_2 != 2",)
        if half_field else ())
    omega = spectrum_linear(spec)
    for gen in rep.generators:
        ext = extension_spectrum(gen)
        assert is_unsupported(ext) == (gen.i != 0), str(gen)
        if not is_unsupported(ext):
            assert all(omega.contains(g) for g in ext.maximal_elements())
