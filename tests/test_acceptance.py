"""Acceptance gate. One test per shipped guarantee, numbered; every check is
exact set equality or membership, no tolerances. Each test prints a single
ACCEPTANCE line with the measured runtime (run with -s to see them).
"""

from __future__ import annotations

import math
import random
import time

from groupspec.arith import factorize, r_part, two_part
from groupspec.coset import graph_coset, tau_criterion
from groupspec.oracle.batch import det_inv_batch, encode_batch, mat_mul, transpose
from groupspec.oracle.groups import enumerate_matrices
from groupspec.oracle.spectrum import brute_spectrum, verify_group
from groupspec.oracle.wall import gamma_membership
from groupspec.oracle.witness import witness_report
from groupspec.outer import admissible_generators
from groupspec.spectra import (GroupSpec, check_2adj, divisors, spectrum_linear,
                               spectrum_symplectic)


def _report(num: int, detail: str, t0: float):
    print(f"ACCEPTANCE {num:02d}: PASS - {detail} ({time.monotonic() - t0:.2f}s)")


def _closure(values) -> set:
    out: set = set()
    for v in values:
        out |= divisors(v)
    return out


def test_01_psl_3_5_graph_extension_only():
    t0 = time.monotonic()
    res = tau_criterion(3, 5, 1)
    assert res.verdict == "equal"
    assert res.tau_admissible
    rep = admissible_generators(GroupSpec.from_q("PSL", 3, 5))
    assert [str(g) for g in rep.generators] == ["t"]
    assert rep.class_nontrivial == 1
    _report(1, "PSL(3,5): tau coset adds no orders, one nontrivial class {t}", t0)


def test_02_psl_3_343_two_admissible_classes():
    t0 = time.monotonic()
    rep = admissible_generators(GroupSpec.from_q("PSL", 3, 343))
    assert rep.class_total == 2
    res = tau_criterion(3, 343, 1)
    assert res.verdict == "witness"
    assert res.case == 1
    assert res.witness == 28
    _report(2, "PSL(3,343): 2 admissible classes, tau witness 28 (case 1)", t0)


def test_03_psl_4_25_field_generators():
    t0 = time.monotonic()
    rep = admissible_generators(GroupSpec.from_q("PSL", 4, 25))
    assert rep.d == 4
    assert rep.b == 2
    assert [str(g) for g in rep.generators] == ["f", "f t"]
    _report(3, "PSL(4,25): d=4, b=2, generators {f, f t}", t0)


def test_04_unitary_exclusion_empty_generators():
    t0 = time.monotonic()
    for n, q in ((4, 3), (4, 9), (10, 3)):
        rep = admissible_generators(GroupSpec.from_q("PSL", n, q, -1))
        assert [str(g) for g in rep.generators] == []
    _report(4, "PSU(4,3), PSU(4,9), PSU(10,3): no admissible extensions", t0)


def test_05_graph_coset_matches_symplectic_double():
    t0 = time.monotonic()
    counts = []
    for q in (3, 5):
        doubled = tuple(2 * g for g in
                        spectrum_symplectic(GroupSpec.from_q("Sp", 1, q)).generators)
        assert graph_coset(3, q).maximal_elements() == doubled
        rep = brute_spectrum("GL", 3, q, mode="full", order_kind="tau_coset")
        assert _closure(rep["attained"]) == _closure(doubled)
        counts.append(f"GL_3({q}) -> 2*Sp_2({q}) gens {list(doubled)}")
    _report(5, "; ".join(counts), t0)


def test_06_wall_criterion_equals_coset_image():
    t0 = time.monotonic()
    sizes = []
    for n in (2, 3):
        F, mats = enumerate_matrices("GL", n, 3)
        _, inv, _ = det_inv_batch(F, mats)
        image = set(encode_batch(mat_mul(F, mats, transpose(inv)), F.q).tolist())
        keys = encode_batch(mats, F.q)
        accepted = {int(k) for k, h in zip(keys, mats) if gamma_membership(F, h)}
        assert image == accepted
        sizes.append(f"GL_{n}(3): {len(accepted)} of {len(mats)}")
    _report(6, "coset image == accepted set, " + ", ".join(sizes), t0)


def test_07_formula_soundness_by_sampling():
    t0 = time.monotonic()
    targets = [GroupSpec.from_q("PGL", 4, 3), GroupSpec.from_q("PSL", 4, 3),
               GroupSpec.from_q("PSL", 3, 3, -1), GroupSpec.from_q("PSL", 5, 3)]
    for spec in targets:
        rep = verify_group(spec, mode="sample", samples=100_000, seed=0)
        assert rep["verdict"] == "PASS", rep
        assert rep["violations"] == []
    _report(7, "4 groups x 100000 samples, zero violations", t0)


def test_08_every_generator_attained():
    t0 = time.monotonic()
    hits = 0
    for q in (3, 5):
        rows = witness_report(GroupSpec.from_q("PSL", 3, q))
        assert all(row["status"] == "ok" for row in rows)
        assert all(row["order"] == row["target"] for row in rows)
        hits += len(rows)
    rep = verify_group(GroupSpec.from_q("PSL", 3, 3, -1), mode="full")
    assert rep["verdict"] == "PASS"
    assert rep["missing"] == []
    _report(8, f"{hits} witnesses built, PSU(3,3) enumeration misses nothing", t0)


def test_09_tau_criterion_sweep():
    t0 = time.monotonic()
    qs = [q for q in range(3, 82, 2) if len(factorize(q).pairs) == 1]
    witnesses = equals = 0
    for n in range(3, 11):
        for q in qs:
            cos = graph_coset(n, q)
            for eps in (1, -1):
                socle = spectrum_linear(GroupSpec.from_q("PSL", n, q, eps))
                res = tau_criterion(n, q, eps)
                if res.verdict == "witness":
                    witnesses += 1
                    for _, value in res.triggered:
                        assert value not in socle
                        assert value in cos
                else:
                    equals += 1
                    for m in cos.maximal_elements():
                        assert m in socle
    assert witnesses + equals == len(qs) * 8 * 2
    _report(9, f"{witnesses} witness / {equals} equal cases, all consistent", t0)


def test_10_half_torus_membership_sweep():
    t0 = time.monotonic()
    qs = [q for q in range(3, 28, 2) if len(factorize(q).pairs) == 1]
    cases = 0
    for n in range(4, 13, 2):
        for q in qs:
            for eps in (1, -1):
                value = q ** (n // 2) + eps ** (n // 2)
                member = value in spectrum_linear(GroupSpec.from_q("PSL", n, q, eps))
                assert check_2adj(n, q, eps) == member
                cases += 1
    _report(10, f"{cases} cases: predicate matches spectrum membership", t0)


def _gcd_identity_case(rng: random.Random):
    q = rng.randrange(2, 101)
    k = rng.randrange(1, 21)
    l = rng.randrange(1, 21)
    g = math.gcd(k, l)
    assert math.gcd(q**k - 1, q**l - 1) == q**g - 1
    if two_part(k) == two_part(l):
        assert math.gcd(q**k + 1, q**l + 1) == q**g + 1
    else:
        assert math.gcd(q**k + 1, q**l + 1) == math.gcd(2, q + 1)
    if two_part(k) > two_part(l):
        assert math.gcd(q**k - 1, q**l + 1) == q**g + 1
    else:
        assert math.gcd(q**k - 1, q**l + 1) == math.gcd(2, q + 1)


def _quotient_identity_case(rng: random.Random):
    q = rng.randrange(2, 101)
    k = rng.randrange(1, 21)
    l = rng.randrange(1, 21)
    eps = rng.choice((1, -1))
    def term(i):
        return q**i - eps**i
    # gcd taken against q - eps: the quotient is congruent to +-k mod q - eps
    assert math.gcd(term(k) // (q - eps), q - eps) == math.gcd(q - eps, k)
    if math.gcd(k, l) == 1:
        big = term(k * l)                  # (q^k)^l - (eps^k)^l
        assert big % (term(l) // (q - eps)) == 0
        nn = rng.randrange(1, 41)
        small = term(l) // math.gcd(nn, q - eps)
        assert (big // math.gcd(nn, q**k - eps**k)) % small == 0


def _r_part_identity_case(rng: random.Random):
    q = rng.randrange(2, 101)
    k = rng.randrange(1, 21)
    eps = rng.choice((1, -1))
    term = q**k - eps**k
    for r in (3, 5, 7, 11, 13, 17, 19, 23):
        if (q - eps) % r == 0:
            assert r_part(term, r) == r_part(k, r) * r_part(q - eps, r)
        if term % r == 0:
            kk = k // r_part(k, r)
            assert (q**kk - eps**kk) % r == 0
    if (q - eps) % 4 == 0 and k % 2 == 1:
        assert two_part(term) == two_part(q - eps)


def test_11_gcd_identity_suites():
    t0 = time.monotonic()
    for seed, case in ((11, _gcd_identity_case),
                       (12, _quotient_identity_case),
                       (13, _r_part_identity_case)):
        rng = random.Random(seed)
        for _ in range(10_000):
            case(rng)
    _report(11, "3 suites x 10000 instances, every identity exact", t0)


def test_12_tau_delta_probe_finds_new_order():
    t0 = time.monotonic()
    rep = verify_group(GroupSpec.from_q("PSL", 4, 3), order_kind="tau_delta_coset",
                       samples=100_000, seed=0)
    assert rep["verdict"] == "PASS"
    assert rep["new_values"]
    socle = spectrum_linear(GroupSpec.from_q("PSL", 4, 3))
    for v in rep["new_values"]:
        assert v not in socle
    assert 24 in rep["new_values"]
    _report(12, f"new orders {rep['new_values']} outside PSL(4,3)", t0)
