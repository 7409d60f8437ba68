"""The outer automorphism group: normal form, relations, admissibility."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from groupspec.arith import UsageError
from groupspec import coset
from groupspec.coset import extension_spectrum, is_unsupported
from groupspec.outer import (
    OutElement,
    _class_counts,
    _class_reps,
    _conjugations,
    _key_mul,
    _key_powers,
    _law,
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


# ---------------------------------------------------------------------------
# the reports of a sweep, pinned by one digest


SWEEP_N = range(3, 17)
SWEEP_Q = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
           81, 121, 125, 243, 343, 625, 729, 3 ** 8)


def _sweep():
    for n in SWEEP_N:
        for q in SWEEP_Q:
            for eps in (1, -1):
                yield n, q, eps


def test_admissibility_reports_keep_their_digest():
    # recorded when class counting still walked OutElement objects over a
    # listing of Out; 728 socles
    h = hashlib.sha256()
    for n, q, eps in _sweep():
        rep = admissible_generators(S("PSL", n, q, eps))
        h.update(json.dumps([n, q, eps, [str(g) for g in rep.generators], list(rep.rows),
                             rep.class_total, rep.class_nontrivial]).encode())
    assert h.hexdigest() == "9b98f171e749f5b7d4cc69460c193b9d22abf7e6346f0e3a10718820461b1e11"


# ---------------------------------------------------------------------------
# the key arithmetic against a reference on OutElement objects


def _reference_mul(x, y):
    """x y by the product law written out once more and normalised by
    OutElement's constructor."""
    twist = pow(x.p, y.a, x.d) * (-1 if y.c else 1)
    return OutElement(x.eps, x.n, x.p, x.m, x.a + y.a, x.c + y.c, x.i * twist + y.i)


def _reference_class_count(gens, eps, n, p, m):
    """Out-conjugacy classes of the subgroups of the <g>, g in gens, with the
    trivial one, by the object walk admissible_generators used before it
    worked on keys: the subgroup of every power of every generator, walked
    element by element, and its conjugates by every element of Out when
    |Out| <= 128, else by phi, tau and delta, through OutElement products."""
    elems = out_elements(eps, n, p, m)
    subs = {frozenset({out_identity(eps, n, p, m).key()})}
    for g in gens:
        for e in range(1, g.order() + 1):
            x = y = g.power(e)
            sub = {x.key()}
            while not y.is_identity():
                y = y.mul(x)
                sub.add(y.key())
            subs.add(frozenset(sub))
    by = elems if len(elems) <= 128 else [f(eps, n, p, m) for f in (out_phi, out_tau, out_delta)]
    pairs = [(h.inverse(), h) for h in by]
    lookup = {x.key(): x for x in elems}
    count, seen = 0, set()
    for sub in subs:
        if sub in seen:
            continue
        count += 1
        seen.add(sub)
        frontier = [sub]
        while frontier:
            s = frontier.pop()
            for hinv, h in pairs:
                t = frozenset(hinv.mul(lookup[k]).mul(h).key() for k in s)
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return count


def _counts_agree(spec):
    rep = admissible_generators(spec)
    want = _reference_class_count(rep.generators, spec.eps, spec.n, spec.p, spec.m)
    assert (rep.class_total, rep.class_nontrivial) == (want, want - 1), str(spec)
    assert _class_counts(rep.generators, spec.eps, spec.n, spec.p, spec.m) == (want, want - 1)


def test_class_counts_match_the_object_walk_on_the_sweep():
    for n, q, eps in _sweep():
        _counts_agree(S("PSL", n, q, eps))


@pytest.mark.parametrize("n,p,m", [(12, 7, 24), (32, 17, 16), (16, 5, 16)])
def test_class_counts_match_the_object_walk_at_large_out(n, p, m):
    _counts_agree(GroupSpec("PSL", n, p, m, 1))


# every (eps, n, p, m) with |Out| <= 64 over p in {3, 5, 7}, n <= 16, m <= 8
SMALL_OUTS = [(eps, n, p, m) for eps in (1, -1) for n in range(3, 17) for p in (3, 5, 7)
              for m in range(1, 9) if 2 * m * _law(eps, n, p, m)[0] <= 64]


def test_key_product_matches_the_objects_on_every_pair():
    for eps, n, p, m in SMALL_OUTS:
        pool = out_elements(eps, n, p, m)
        law = _law(eps, n, p, m)
        for x in pool:
            for y in pool:
                xy = x.mul(y)
                assert xy == _reference_mul(x, y)
                assert xy.key() == _key_mul(law, x.key(), y.key())
    assert len(SMALL_OUTS) > 100


def test_conjugations_are_conjugation_by_phi_tau_delta():
    for eps, n, p, m in SMALL_OUTS:
        gens = [f(eps, n, p, m) for f in (out_phi, out_tau, out_delta)]
        maps = _conjugations(_law(eps, n, p, m), p)
        for x in out_elements(eps, n, p, m):
            for g, f in zip(gens, maps):
                assert f(x.key()) == g.inverse().mul(x).mul(g).key()


def test_order_inverse_and_powers_walk_the_cyclic_group():
    for eps, n, p, m in SMALL_OUTS:
        law = _law(eps, n, p, m)
        for x in out_elements(eps, n, p, m):
            powers = _key_powers(law, x.key())
            k = x.order()
            assert len(powers) == len(set(powers)) == k
            y = out_identity(eps, n, p, m)
            for key in powers:
                assert y.key() == key
                y = y.mul(x)
            assert y.is_identity()
            assert x.mul(x.inverse()).is_identity()
            assert _subgroup_key(x) == frozenset(powers)


def test_extension_spectrum_visits_each_coset_once(monkeypatch):
    visited = []
    real = coset._coset

    def spy(w):
        visited.append(w.key())
        return real(w)
    monkeypatch.setattr(coset, "_coset", spy)
    checked = 0
    for n, q, eps in [(3, 343, 1), (4, 25, 1), (16, 3, -1), (12, 625, 1), (3, 3 ** 8, 1),
                      (5, 3 ** 8, -1)]:
        spec = S("PSL", n, q, eps)
        for g in out_elements(spec.eps, n, spec.p, spec.m):
            visited.clear()
            if is_unsupported(extension_spectrum(g)):
                continue
            assert sorted(visited) == sorted(_subgroup_key(g)), str(g)
            assert len(visited) == g.order()
            checked += 1
    assert checked > 50
