"""Element-order spectra of the classical groups, closed form."""

from __future__ import annotations

import functools
import math

import pytest

from groupspec.arith import BoundError, UsageError, factorize, lcm_list, two_part
from groupspec.spectra import (
    _INDEX_FROM_N,
    _KINDS,
    _TABLE_MAX_N,
    FAMILIES,
    TABLE_LIMIT,
    GroupSpec,
    Spectrum,
    TableBoundError,
    _coprime_base,
    _lcms,
    _part_sets,
    _partitions,
    _support,
    _Supported,
    _symplectic_constants,
    _terms,
    check_2adj,
    divisors,
    normalize,
    spectrum,
    spectrum_linear,
    spectrum_linear_items,
    spectrum_orthogonal_semisimple,
    spectrum_orthogonal_semisimple_items,
    spectrum_symplectic,
    spectrum_symplectic_items,
)

S = GroupSpec.from_q


# Values pinned after cross-checking against exhaustive matrix enumeration;
# see the oracle tests for the live comparisons.
LINEAR = [
    ("PSL", 2, 5, 1, (5, 3, 2)),
    ("PGL", 2, 5, 1, (6, 5, 4)),
    ("PSL", 2, 9, 1, (5, 4, 3)),
    ("PSL", 3, 3, 1, (13, 8, 6)),
    ("PSL", 3, 5, 1, (31, 24, 20)),
    ("PSL", 4, 3, 1, (20, 13, 12, 9, 8)),
    ("PSL", 5, 3, 1, (121, 104, 80, 78, 24, 18)),
    ("PSL", 3, 3, -1, (12, 8, 7)),
    ("PSL", 4, 3, -1, (12, 9, 8, 7, 5)),
    ("PGL", 4, 3, 1, (40, 26, 24, 9)),
]

SYMPLECTIC = [
    ("Sp", 1, 3, (6, 4)),
    ("PSp", 1, 3, (3, 2)),
    ("Sp", 2, 3, (18, 12, 10, 8)),
    ("PSp", 2, 3, (12, 9, 5)),
    ("OmegaOdd", 3, 3, (20, 18, 15, 14, 13, 12, 8)),
]


@pytest.mark.parametrize("family,n,q,eps,expect", LINEAR)
def test_linear_spectra(family, n, q, eps, expect):
    assert spectrum_linear(S(family, n, q, eps)).generators == expect


@pytest.mark.parametrize("family,n,q,expect", SYMPLECTIC)
def test_symplectic_spectra(family, n, q, expect):
    assert spectrum_symplectic(S(family, n, q)).generators == expect


def test_orthogonal_semisimple_spectra():
    assert spectrum_orthogonal_semisimple(S("OmegaEven", 2, 3, -1)).generators == (5, 4)
    assert spectrum_orthogonal_semisimple(S("POmegaEven", 2, 3, 1)).generators == (2,)


def test_psl_inside_pgl():
    for n, q in [(2, 5), (3, 3), (4, 3), (3, 5)]:
        psl = spectrum_linear(S("PSL", n, q))
        pgl = spectrum_linear(S("PGL", n, q))
        for g in psl.generators:
            assert pgl.contains(g)


ITEMS_CASES = [
    (spectrum_linear_items, spectrum_linear, S("PSL", 4, 3)),
    (spectrum_linear_items, spectrum_linear, S("PGL", 9, 5, -1)),
    (spectrum_symplectic_items, spectrum_symplectic, S("Sp", 6, 3)),
    (spectrum_symplectic_items, spectrum_symplectic, S("OmegaOdd", 5, 9)),
    (spectrum_orthogonal_semisimple_items, spectrum_orthogonal_semisimple,
     S("OmegaEven", 6, 5, -1)),
    (spectrum_orthogonal_semisimple_items, spectrum_orthogonal_semisimple,
     S("POmegaEven", 7, 3, 1)),
]


def test_linear_items_cover_spectrum():
    # all three item accessors, not only the linear one
    for items_fn, spectrum_fn, spec in ITEMS_CASES:
        items = items_fn(spec)
        for values in items.values():
            assert values == sorted(set(values)), (spec, values)
        pooled = [v for values in items.values() for v in values]
        assert normalize(pooled).generators == spectrum_fn(spec).generators, spec


def test_unitary_differs_from_linear():
    assert spectrum_linear(S("PSL", 3, 3, 1)) != spectrum_linear(S("PSL", 3, 3, -1))


def test_two_adjacency_examples():
    assert check_2adj(4, 3, 1) is True
    assert check_2adj(4, 5, 1) is False
    assert check_2adj(4, 3, -1) is False
    assert check_2adj(4, 5, -1) is True


def test_two_adjacency_matches_membership():
    for n in (4, 6, 8):
        for q in (3, 5, 7, 9):
            for eps in (1, -1):
                val = q ** (n // 2) + eps ** (n // 2)
                member = spectrum_linear(S("PSL", n, q, eps)).contains(val)
                assert check_2adj(n, q, eps) == member


# ---------------------------------------------------------------------------
# the Spectrum container


def test_normalize_keeps_maximal_elements():
    sp = normalize([1, 2, 3, 4, 6, 8, 12])
    assert sp.generators == (12, 8)
    assert normalize([5]).generators == (5,)


def test_spectrum_membership_is_divisor_closed():
    sp = normalize([12, 8])
    assert all(sp.contains(a) for a in (1, 2, 3, 4, 6, 8, 12))
    assert not sp.contains(5)
    assert 6 in sp and 5 not in sp


def test_all_values_is_divisor_closure():
    sp = normalize([12, 8])
    assert sp.all_values() == {1, 2, 3, 4, 6, 8, 12}
    assert divisors(12) == {1, 2, 3, 4, 6, 12}


def test_spectrum_union_and_restrict():
    a = normalize([12, 8])
    b = normalize([9, 5])
    assert a.union(b).generators == (12, 9, 8, 5)
    assert a.restrict_coprime_to(2).generators == (3,)
    assert a.restrict_coprime_to(5).generators == (12, 8)


def test_spectrum_rejects_non_antichain():
    with pytest.raises(UsageError):
        Spectrum((12, 6))
    with pytest.raises(UsageError):
        Spectrum((6, 12))
    for gens in ((4, 0), (6, 6), (6, 0), (0,), (-3,)):
        with pytest.raises(UsageError):
            Spectrum(gens)
    assert Spectrum((12, 9, 8)).generators == (12, 9, 8)
    assert Spectrum(()).generators == ()


def test_from_antichain_checks_sign_and_order():
    for gens in ((4, 0), (6, 6), (6, 0), (0,), (-3,), (6, 12), (5, 7, 3)):
        with pytest.raises(UsageError):
            Spectrum._from_antichain(gens)
    assert Spectrum._from_antichain((12, 9, 8)) == Spectrum((12, 9, 8))
    assert Spectrum._from_antichain(()) == Spectrum(())
    # the caller's proof stands in for the pairwise test, which it skips
    assert Spectrum._from_antichain((12, 6)).generators == (12, 6)


# ---------------------------------------------------------------------------
# GroupSpec validation and naming


def test_group_spec_from_q():
    spec = S("PSL", 3, 343, 1)
    assert (spec.p, spec.m, spec.q) == (7, 3, 343)


def test_group_spec_dimension():
    assert S("PSL", 4, 3).dimension == 4
    assert S("Sp", 2, 3).dimension == 4
    assert S("OmegaOdd", 3, 3).dimension == 7
    assert S("OmegaEven", 2, 3, -1).dimension == 4


def test_group_spec_str():
    assert str(S("PSL", 3, 3, -1)) == "PSU_3(3)"
    assert str(S("PSL", 3, 3, 1)) == "PSL_3(3)"
    assert str(S("OmegaEven", 2, 3, -1)) == "Omega-_4(3)"
    assert str(S("OmegaOdd", 3, 3)) == "Omega_7(3)"
    assert str(S("Sp", 2, 3)) == "Sp_4(3)"


def test_group_spec_rejects_bad_input():
    with pytest.raises(UsageError):
        S("PSL", 3, 8, 1)            # even characteristic
    with pytest.raises(UsageError):
        S("PSL", 3, 12, 1)           # not a prime power
    with pytest.raises(UsageError):
        S("Sp", 2, 3, -1)            # family takes no sign
    with pytest.raises(UsageError):
        S("PSL", 1, 3, 1)            # rank below the supported range
    with pytest.raises(UsageError):
        S("PXL", 3, 3, 1)
    with pytest.raises(UsageError):
        GroupSpec("SL", 3, 3, 1)     # no closed form, CLI token or oracle covers SL


def test_spectrum_dispatches_every_family():
    # one closed form per family; FAMILIES has no family without one
    forms = {"PSL": spectrum_linear, "PGL": spectrum_linear,
             "Sp": spectrum_symplectic, "PSp": spectrum_symplectic,
             "OmegaOdd": spectrum_symplectic,
             "OmegaEven": spectrum_orthogonal_semisimple,
             "POmegaEven": spectrum_orthogonal_semisimple}
    assert set(forms) == set(FAMILIES)
    cases = 0
    for family, form in forms.items():
        signs = (1, -1) if family in ("PSL", "PGL", "OmegaEven", "POmegaEven") else (1,)
        low = 2 if family in ("PSL", "PGL", "OmegaEven", "POmegaEven") else 1
        for n in range(low, 7):
            for q in (3, 9):
                for eps in signs:
                    spec = S(family, n, q, eps)
                    assert spectrum(spec) == form(spec), spec
                    cases += 1
    assert cases == 4 * 5 * 2 * 2 + 3 * 6 * 2


# ---------------------------------------------------------------------------
# equivalence sweep: the lcm table against per-partition enumeration
#
# The reference below lists the construction of every spectrum_*_items kind
# partition by partition, as the closed forms were first written; the table in
# groupspec.spectra must give the same value set for every kind.


def _reference_signed_lcms(part, q, target_parity):
    """lcm values over the sign assignments to the parts of one partition.

    A part k of multiplicity c takes q^k - 1 (parity 0), q^k + 1 (parity
    c mod 2), or both when c >= 2 (parity 1 if c == 2, else either).
    target_parity, when given, constrains the number of -1 signs mod 2.
    """
    choices_per_part = []
    for k in sorted(set(part), reverse=True):
        mult = part.count(k)
        opts = [((q ** k - 1,), frozenset([0])),
                ((q ** k + 1,), frozenset([mult % 2]))]
        if mult >= 2:
            parities = frozenset([1]) if mult == 2 else frozenset([0, 1])
            opts.append(((q ** k + 1, q ** k - 1), parities))
        choices_per_part.append(opts)

    out = set()

    def walk(idx, acc_terms, acc_parities):
        if idx == len(choices_per_part):
            if target_parity is None or target_parity in acc_parities:
                out.add(lcm_list(acc_terms))
            return
        for terms, parities in choices_per_part[idx]:
            nxt = frozenset((a + b) % 2 for a in acc_parities for b in parities)
            walk(idx + 1, acc_terms + list(terms), nxt)

    walk(0, [], frozenset([0]))
    return out


def _reference_linear_items(spec):
    n, p, q, eps = spec.n, spec.p, spec.q, spec.eps
    d = math.gcd(n, q - eps) if spec.family == "PSL" else 1

    def term(k):
        return q ** k - eps ** k

    items = {k: [] for k in ("torus", "two_part_torus", "many_part_torus",
                             "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"].append(term(n) // ((q - eps) * d))
    for n1 in range(1, n // 2 + 1):
        n2 = n - n1
        div = math.gcd(n // math.gcd(n1, n2), d)
        items["two_part_torus"].append(lcm_list([term(n1), term(n2)]) // div)
    for part in _partitions(n):
        if len(part) >= 3:
            items["many_part_torus"].append(lcm_list([term(k) for k in part]))
    pt, t = 1, 1
    while pt + 2 <= n:
        n1 = n - pt - 1
        items["unipotent_torus"].append(p ** t * term(n1) // d)
        for part in _partitions(n1):
            if len(part) >= 2:
                items["unipotent_many"].append(p ** t * lcm_list([term(k) for k in part]))
        pt *= p
        t += 1
    if n - 1 == 1:
        items["unipotent"].append(p)
    else:
        e, x = 0, n - 1
        while x % p == 0:
            x //= p
            e += 1
        if x == 1 and e >= 1:
            items["unipotent"].append(p ** (e + 1))
    return items


def _reference_symplectic_items(spec):
    n, p, q = spec.n, spec.p, spec.q
    d, c = _symplectic_constants(spec)
    items = {k: [] for k in ("torus", "many_part_torus",
                             "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"] += [(q ** n - 1) // d, (q ** n + 1) // d]
    for part in _partitions(n):
        if len(part) >= 2:
            items["many_part_torus"] += _reference_signed_lcms(part, q, None)
    pt, t = 1, 1
    while n - (pt + 1) // 2 >= 1:
        n1 = n - (pt + 1) // 2
        items["unipotent_torus"] += [p ** t * (q ** n1 - 1) // c,
                                     p ** t * (q ** n1 + 1) // c]
        for part in _partitions(n1):
            if len(part) >= 2:
                items["unipotent_many"] += [p ** t * v
                                            for v in _reference_signed_lcms(part, q, None)]
        pt *= p
        t += 1
    e, x = 0, 2 * n - 1
    while x % p == 0:
        x //= p
        e += 1
    if x == 1:
        items["unipotent"].append(2 * p ** (e + 1) // d)
    return items


def _reference_orthogonal_items(spec):
    n, q, eps = spec.n, spec.q, spec.eps
    target = 0 if eps == 1 else 1
    items = {k: [] for k in ("torus", "two_part_torus", "many_part_torus")}
    if spec.family == "OmegaEven":
        items["torus"].append((q ** n - eps) // 2)
        min_parts = 2
    else:
        items["torus"].append((q ** n - eps) // math.gcd(4, q ** n - eps))
        for n1 in range(1, n):
            n2 = n - n1
            for kappa in (1, -1):
                a = q ** n1 - kappa
                b = q ** n2 - eps * kappa
                e = 2 if two_part(a) == two_part(b) else 1
                items["two_part_torus"].append(lcm_list([a, b]) // e)
        min_parts = 3
    for part in _partitions(n):
        if len(part) >= min_parts:
            items["many_part_torus"] += _reference_signed_lcms(part, q, target)
    return items


SWEEP_Q = (3, 5, 7, 9, 25)
SWEEP = {
    "PSL": (spectrum_linear_items, spectrum_linear, _reference_linear_items, 2),
    "PGL": (spectrum_linear_items, spectrum_linear, _reference_linear_items, 2),
    "Sp": (spectrum_symplectic_items, spectrum_symplectic, _reference_symplectic_items, 1),
    "PSp": (spectrum_symplectic_items, spectrum_symplectic, _reference_symplectic_items, 1),
    "OmegaOdd": (spectrum_symplectic_items, spectrum_symplectic,
                 _reference_symplectic_items, 1),
    "OmegaEven": (spectrum_orthogonal_semisimple_items, spectrum_orthogonal_semisimple,
                  _reference_orthogonal_items, 2),
    "POmegaEven": (spectrum_orthogonal_semisimple_items, spectrum_orthogonal_semisimple,
                   _reference_orthogonal_items, 2),
}


@pytest.mark.parametrize("family", list(SWEEP))
def test_lcm_table_matches_partition_enumeration(family):
    items_fn, spectrum_fn, reference_fn, min_n = SWEEP[family]
    signs = (1, -1) if family in ("PSL", "PGL", "OmegaEven", "POmegaEven") else (1,)
    for n in range(min_n, 15):
        for q in SWEEP_Q:
            for eps in signs:
                spec = S(family, n, q, eps)
                items, ref = items_fn(spec), reference_fn(spec)
                # the table drops partitions with a merged repeat, so each
                # kind makes a subset of the values, with the same maxima
                assert list(items) == list(ref), spec
                for kind in ref:
                    assert set(items[kind]) <= set(ref[kind]), (spec, kind)
                pooled = [v for values in ref.values() for v in values]
                assert spectrum_fn(spec).generators == normalize(pooled).generators, spec


# ---------------------------------------------------------------------------
# the support index of normalize against the quadratic scan
#
# From _INDEX_FROM_N on, spectrum_*_items hands normalize values that carry
# their support over a coprime base, and normalize tests each value only
# against the kept values whose support holds its own. The reference is the
# plain scan normalize ran before the index.


def _reference_normalize(values) -> tuple:
    """Maximal elements under divisibility, each value tested against every
    kept one."""
    kept = []
    for v in sorted(set(int(v) for v in values), reverse=True):
        for w in kept:
            if w % v == 0:
                break
        else:
            kept.append(v)
    return tuple(kept)


TABLE_OF = {"PSL": "linear", "PGL": "linear", "Sp": "symplectic", "PSp": "symplectic",
            "OmegaOdd": "symplectic", "OmegaEven": "orthogonal", "POmegaEven": "orthogonal"}
INDEX_Q = (3, 5, 7, 9, 25, 27)


@pytest.mark.parametrize("family", list(SWEEP))
def test_indexed_normalize_matches_quadratic_scan(family):
    items_fn, spectrum_fn, _, min_n = SWEEP[family]
    signs = (1, -1) if family in ("PSL", "PGL", "OmegaEven", "POmegaEven") else (1,)
    # n <= 20, and two steps past the table's crossover where it lies higher
    top = max(20, _INDEX_FROM_N[TABLE_OF[family]] + 2)
    indexed = set()
    for n in range(min_n, top + 1):
        for q in INDEX_Q:
            for eps in signs:
                spec = S(family, n, q, eps)
                pooled = [v for values in items_fn(spec).values() for v in values]
                indexed.add(all(type(v) is _Supported for v in pooled))
                got = spectrum_fn(spec).generators
                assert got == _reference_normalize(pooled), spec
                assert all(type(g) is int for g in got), spec
    assert indexed == {False, True}


BASE_Q = (3, 5, 7, 9, 25)


def test_coprime_base_is_pairwise_coprime_and_covers_every_term():
    for q in BASE_Q:
        p = factorize(q).pairs[0][0]
        base = _coprime_base(p, q, 40)
        assert base[0] == p
        assert all(b > 1 and b % p for b in base[1:]), q
        for i, a in enumerate(base):
            for b in base[i + 1:]:
                assert math.gcd(a, b) == 1, (q, a, b)
        # every prime of q^d - 1, d <= 40, lies in some base element
        for d in range(1, 41):
            x = q ** d - 1
            for b in base[1:]:
                g = math.gcd(x, b)
                while g > 1:
                    x //= g
                    g = math.gcd(x, g)
            assert x == 1, (q, d)


def _reference_steps(kind, q, eps, base):
    """steps(j) of the reference listings: the (term, support, flip) of each
    element of a part j of kind at q (and eps, linear)."""
    def steps(j):
        if kind == "linear":
            term = q ** j - eps ** j
            return ((term, _support(term, base), 0),)
        plus, minus = q ** j - 1, q ** j + 1
        return ((plus, _support(plus, base), 0),
                (minus, _support(minus, base), int(kind == "orthogonal")))
    return steps


# (kind, eps, cap) of every table a closed form reads: linear and unitary
# (cap 3), symplectic (cap 2, no parity), and orthogonal with parity, read
# with its classes 2 and 3 apart (POmegaEven) or together (OmegaEven, cap 2)
PART_TABLES = (("linear", 1, 3), ("linear", -1, 3), ("symplectic", 1, 2),
               ("orthogonal", 1, 3), ("orthogonal", 1, 2))


def _evaluated_table(kind, n, q, eps, base, cap):
    """cells 0..n of kind's part-set table evaluated at q and eps by _lcms,
    as value sets with the classes capped at cap, and the supports that the
    evaluation gave (None without a base)."""
    terms = _terms(kind, q, eps, n)
    term_supports = [_support(t, base) for t in terms] if base else None
    supports = {1: 0} if base else None
    memo = {0: 1}
    out = []
    for cell in _part_sets(kind, n)[:n + 1]:
        values = {}
        for (count, parity), masks in cell.items():
            values.setdefault((min(count, cap), parity), set()).update(
                _lcms(masks, terms, term_supports, supports, memo))
        out.append(values)
    return out, supports


def test_lcm_table_supports_match_gcd():
    for q in BASE_Q:
        p = factorize(q).pairs[0][0]
        for n in range(1, 15):
            base = _coprime_base(p, q, 2 * n)
            for kind, eps, cap in PART_TABLES:
                cells, supports = _evaluated_table(kind, n, q, eps, base, cap)
                for m, cell in enumerate(cells):
                    for key, vals in cell.items():
                        for v in vals:
                            assert supports[v] == _support(v, base), (q, n, m, key, v)


def _reference_distinct_table(n, cap, steps, supports):
    """The lcm table listed partition by partition: every set of pairs
    (j, f), f a flip of steps(j), whose parts j sum to at most n, each pair
    taking one of the terms of flip f. supports gets the union of the term
    supports of every value."""
    pairs = [(j, f) for j in range(1, n + 1) for f in sorted({f for _, _, f in steps(j)})]
    cells = [{} for _ in range(n + 1)]

    def walk(i, m, parts, parity, value, support):
        if i == len(pairs):
            cells[m].setdefault((min(parts, cap), parity), set()).add(value)
            supports[value] = support
            return
        walk(i + 1, m, parts, parity, value, support)
        j, f = pairs[i]
        if m + j <= n:
            for term, term_support, flip in steps(j):
                if flip == f:
                    walk(i + 1, m + j, parts + 1, parity ^ f, math.lcm(value, term),
                         support | term_support)
    walk(0, 0, 0, 0, 1, 0)
    return cells


def test_lcm_table_matches_distinct_part_enumeration():
    # the part sets take each part at most once per flip, with one of that
    # flip's elements: evaluated at q, every cell, class and support of the
    # listing above
    for q in SWEEP_Q:
        p = factorize(q).pairs[0][0]
        for n in range(1, 15):
            for base in ((), _coprime_base(p, q, 2 * n)):
                for kind, eps, cap in PART_TABLES:
                    ref_supports = {1: 0}
                    got, supports = _evaluated_table(kind, n, q, eps, base, cap)
                    want = _reference_distinct_table(
                        n, cap, _reference_steps(kind, q, eps, base), ref_supports)
                    assert got == want, (q, n, kind, eps, cap, bool(base))
                    if base:
                        assert supports == ref_supports, (q, n, kind, eps, cap)


def test_part_sets_remove_exactly_the_elements_under_every_odd_q():
    # an element removes a smaller one exactly when that one's term divides
    # its own at every q tried, for both signs eps of the linear kind; q
    # runs over SWEEP_Q and the least prime above 10^29
    qs = SWEEP_Q + (10 ** 29 + 319,)
    top = 40
    for kind, (_, parts) in _KINDS.items():
        signs = (1, -1) if kind == "linear" else (1,)
        terms = [_terms(kind, q, eps, top) for q in qs for eps in signs]
        for j in range(1, top + 1):
            for bit, removed, _ in parts(j):
                i = bit.bit_length()
                assert removed < bit, (kind, j)
                for low in range(1, i):
                    divides = all(t[i] % t[low] == 0 for t in terms)
                    assert bool(removed >> (low - 1) & 1) == divides, (kind, j, low)


def test_the_part_sets_are_filled_once_and_grown_once(monkeypatch):
    import groupspec.spectra as spectra
    fills = []

    def fill(n, cap, parts, _real=spectra._fill):
        fills.append(n)
        return _real(n, cap, parts)
    monkeypatch.setattr(spectra, "_PART_SETS", {})
    monkeypatch.setattr(spectra, "_fill", fill)
    for spec in (S("PSL", 10, 3), S("PSL", 10, 5, -1), S("PGL", 8, 7)):
        spectrum_linear_items(spec)
    assert fills == [10] and list(spectra._PART_SETS) == ["linear"]
    spectrum_linear_items(S("PSL", 12, 3))
    spectrum_linear_items(S("PGL", 9, 5))
    assert fills == [10, 12] and len(spectra._PART_SETS["linear"]) == 13
    # a grown table holds the smaller one's cells unchanged
    assert spectra._PART_SETS["linear"][:11] == spectra._fill(10, *spectra._KINDS["linear"])


def _reference_unpruned_part_sets(n, kind):
    """kind's part sets filled a multiplicity at a time, as the lcm table was
    first written: for each part j and m running downwards, every c with
    c*j <= m reads cells[m - c*j], which still holds the parts below j. The
    c copies of j take the + element, the - element (parity c mod 2 in the
    orthogonal kind), or, when c >= 2, both (parity 1 if c = 2, else
    either). A part set here is the set of the elements taken: none is
    removed, and repeats do not change an lcm."""
    cap = _KINDS[kind][0]
    cells = [{} for _ in range(n + 1)]
    cells[0][(0, 0)] = {0}
    for j in range(1, n + 1):
        for m in range(n, j - 1, -1):
            for c in range(1, m // j + 1):
                if kind == "linear":
                    choices = [(1 << (j - 1), (0,))]
                else:
                    plus, minus = 1 << (2 * j - 2), 1 << (2 * j - 1)
                    flip = kind == "orthogonal"
                    choices = [(plus, (0,)), (minus, (c % 2 if flip else 0,))]
                    if c >= 2:
                        both = ((1,) if c == 2 else (0, 1)) if flip else (0,)
                        choices.append((plus | minus, both))
                for (parts, parity), sets in cells[m - c * j].items():
                    capped = min(parts + c, cap)
                    for bits, parities in choices:
                        for extra in parities:
                            cells[m].setdefault((capped, parity ^ extra), set()).update(
                                s | bits for s in sets)
    return [{key: tuple(sets) for key, sets in cell.items()} for cell in cells]


@pytest.mark.parametrize("family", list(SWEEP))
def test_spectra_equal_normalize_of_the_unpruned_table(family, monkeypatch):
    # the items built on the part sets that take a part any number of times
    # (the multiplicity fill, all sign cases) have the same maxima as those
    # built on the table that takes it once: the merge and its boundary
    # partitions drop no maximal element
    import groupspec.spectra as spectra
    items_fn, spectrum_fn, _, min_n = SWEEP[family]
    signs = (1, -1) if family in ("PSL", "PGL", "OmegaEven", "POmegaEven") else (1,)
    specs = [S(family, n, q, eps) for n in range(min_n, 21) for q in SWEEP_Q for eps in signs]
    want = {spec: spectrum_fn(spec).generators for spec in specs}
    kind = TABLE_OF[family]
    unpruned = _reference_unpruned_part_sets(20, kind)
    read = []

    def part_sets(kind_read, n):
        assert kind_read == kind and n <= 20
        read.append(n)
        return unpruned
    monkeypatch.setattr(spectra, "_part_sets", part_sets)
    for spec in specs:
        pooled = [v for values in items_fn(spec).values() for v in values]
        assert normalize(pooled).generators == want[spec], spec
    assert len(read) == len(specs)


@pytest.mark.parametrize("family", list(SWEEP))
def test_items_carry_gcd_supports_from_the_crossover(family):
    items_fn, _, _, _ = SWEEP[family]
    n = _INDEX_FROM_N[TABLE_OF[family]]
    for q in (3, 25):
        spec = S(family, n, q, -1 if family in ("OmegaEven", "POmegaEven") else 1)
        base = _coprime_base(spec.p, q, 2 * n)
        items = items_fn(spec)
        assert any(items.values()), spec
        for kind, values in items.items():
            for v in values:
                assert type(v) is _Supported and v.support == _support(v, base), (spec, kind, v)
        below = S(family, n - 1, q, spec.eps)
        assert all(type(v) is int for values in items_fn(below).values() for v in values)


def test_spectra_go_through_the_traced_names(monkeypatch):
    # A tracer replaces normalize by a one-argument wrapper that passes on
    # list(values), and wraps each spectrum_*_items by name: the supports
    # must survive both, or a traced run would time the plain scan.
    import groupspec.spectra as spectra
    seen: dict = {"items": 0, "normalize": []}
    real_normalize = spectra.normalize

    def traced_normalize(values):
        vals = list(values)
        seen["normalize"].append(vals)
        return real_normalize(vals)
    monkeypatch.setattr(spectra, "normalize", traced_normalize)
    for name in ("spectrum_linear_items", "spectrum_symplectic_items",
                 "spectrum_orthogonal_semisimple_items"):
        def traced(spec, _real=getattr(spectra, name)):
            seen["items"] += 1
            return _real(spec)
        monkeypatch.setattr(spectra, name, traced)
    for fn, spec in ((spectra.spectrum_linear, S("PSL", _INDEX_FROM_N["linear"], 3)),
                     (spectra.spectrum_symplectic, S("Sp", _INDEX_FROM_N["symplectic"], 3)),
                     (spectra.spectrum_orthogonal_semisimple,
                      S("OmegaEven", _INDEX_FROM_N["orthogonal"], 5, -1))):
        seen["items"], seen["normalize"] = 0, []
        fn.cache_clear()
        got = fn(spec)
        fn.cache_clear()
        assert seen["items"] == 1 and len(seen["normalize"]) == 1, spec
        vals = seen["normalize"][0]
        assert vals and all(type(v) is _Supported for v in vals), spec
        assert got.generators == _reference_normalize(vals), spec


# ---------------------------------------------------------------------------
# the bound on the lcm table


def test_table_bound_admits_the_large_targets_and_refuses_beyond():
    assert len(spectrum_linear(S("PSL", 70, 3)).generators) == 13646
    assert len(spectrum_symplectic(S("Sp", 28, 3)).generators) == 3145
    for family, n in (("PSL", 200), ("Sp", 56), ("PSL", 5000), ("OmegaOdd", 300),
                      ("POmegaEven", 2500), ("PSL", 10 ** 9), ("Sp", 10 ** 9)):
        with pytest.raises(TableBoundError) as err:
            spectrum(S(family, n, 3))
        assert isinstance(err.value, BoundError)
        assert str(TABLE_LIMIT) in str(err.value), family
        assert f"lcm table of {S(family, n, 3)} passes" in str(err.value), family


def test_table_bound_reaches_the_coset_spectra():
    from groupspec.coset import field_coset_spectrum, graph_coset
    for call in (lambda: graph_coset(5000, 3), lambda: graph_coset(201, 3),
                 lambda: field_coset_spectrum(200, 9, 1, 0, 2, "plain")):
        with pytest.raises(TableBoundError):
            call()


@pytest.mark.parametrize("family", list(SWEEP))
def test_table_bound_refuses_at_once(family, monkeypatch):
    # the largest n of the family's kind answers; n + 1, 238 and 10^9 are
    # refused in-process in well under 50 ms each, before the coprime base,
    # the terms or any part set is built
    import time

    import groupspec.spectra as spectra
    built = []

    def fill(n, cap, parts):
        # empty cells: only the bound is under test here
        built.append(n)
        return [{} for _ in range(n + 1)]
    monkeypatch.setattr(spectra, "_PART_SETS", {})
    monkeypatch.setattr(spectra, "_fill", fill)
    items_fn = SWEEP[family][0]
    largest = _TABLE_MAX_N[TABLE_OF[family]]
    assert any(items_fn(S(family, largest, 3)).values()) and built == [largest]
    monkeypatch.setattr(spectra, "_coprime_base", lambda *args: built.append("base"))
    monkeypatch.setattr(spectra, "_terms", lambda *args: built.append("terms"))
    for n in (largest + 1, 238, 10 ** 9):
        spec = S(family, n, 3)
        start = time.perf_counter()
        with pytest.raises(TableBoundError):
            items_fn(spec)
        assert time.perf_counter() - start < 0.05, spec
    assert built == [largest]


@functools.lru_cache(maxsize=None)
def _values_made_over_f3(kind, cap, n):
    """The lcm values a table of values over F_3 makes over 0..n: the part
    sets' fill run on values, each step counting its new values per class
    and term, repeats across steps counted."""
    steps = _reference_steps(kind, 3, 1, ())
    cells = [{} for _ in range(n + 1)]
    cells[0][(0, 0)] = {1}
    made = 0
    for j in range(1, n + 1):
        step = steps(j)
        for flip in sorted({f for _, _, f in step}):
            terms = [term for term, _, f in step if f == flip]
            for m in range(n, j - 1, -1):
                for (parts, parity), vals in cells[m - j].items():
                    key = (min(parts + 1, cap), parity ^ flip)
                    for term in terms:
                        new = {math.lcm(v, term) for v in vals}
                        cells[m].setdefault(key, set()).update(new)
                        made += len(new)
    return made


@pytest.mark.parametrize("family", list(SWEEP))
def test_table_floor_refuses_only_tables_that_pass_the_limit(family):
    # the largest n of each kind stands for the values a table at one q may
    # make: over F_3 a table of values, with the classes the family reads,
    # makes at most TABLE_LIMIT at that n and more at n + 1. A larger n
    # makes every value a smaller one does, so every n refused passes.
    kind = TABLE_OF[family]
    cap = 2 if family == "OmegaEven" else _KINDS[kind][0]
    n = _TABLE_MAX_N[kind]
    made = [_values_made_over_f3(kind, cap, m) for m in (n, n + 1)]
    assert made[0] <= TABLE_LIMIT < made[1], made
