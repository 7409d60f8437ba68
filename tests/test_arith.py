"""Number-theoretic kernel: parts, factorization, prime powers."""

from __future__ import annotations

import math
import random

import pytest

import groupspec.arith as arith
from groupspec.arith import (
    Factorization,
    UsageError,
    _iroot,
    co_pi_part,
    factorize,
    is_prime,
    lcm_list,
    load_factor_cache,
    odd_part,
    odd_prime_power,
    p_power_exponent,
    pi_part,
    r_part,
    save_factor_cache,
    two_part,
)
from groupspec.spectra import _coprime_base


def test_part_examples():
    assert pi_part(40, 6) == 8
    assert co_pi_part(40, 6) == 5
    assert pi_part(24, 10) == 8
    assert two_part(40) == 8
    assert odd_part(40) == 5
    assert r_part(40, 2) == 8
    assert r_part(40, 5) == 5
    assert r_part(40, 3) == 1


def test_part_edge_cases():
    assert pi_part(7, 1) == 1
    assert co_pi_part(7, 1) == 7
    assert pi_part(1, 12) == 1
    assert two_part(1) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_power_exponent_matches_brute_force(p):
    powers = {}
    s = 0
    while p ** s <= 3000:
        powers[p ** s] = s
        s += 1
    for x in range(3001):
        assert p_power_exponent(x, p) == powers.get(x)
    assert p_power_exponent(0, p) is None
    assert p_power_exponent(1, p) == 0


def test_part_product_invariant():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(1, 10**9)
        b = rng.randrange(1, 10**6)
        x, y = pi_part(a, b), co_pi_part(a, b)
        assert x * y == a
        assert math.gcd(y, x) == 1
        # the co-part shares no prime with b
        assert math.gcd(y, b) == 1


def test_lcm_gcd_lists():
    assert lcm_list([8, 26]) == 104
    assert lcm_list([4]) == 4
    with pytest.raises(UsageError):
        lcm_list([])


def test_is_prime_spot_values():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(97)
    assert is_prime(10**9 + 7)
    assert not is_prime(1)
    assert not is_prime(561)          # Carmichael
    assert not is_prime(341)          # 2-pseudoprime
    assert not is_prime(10**12 + 1)


@pytest.mark.parametrize("n, p", [
    # the least strong pseudoprimes to the first 12 and 13 prime bases
    (318665857834031151167461, 399165290221),
    (3317044064679887385961981, 1287836182261),
])
def test_is_prime_rejects_the_twelve_base_pseudoprimes(n, p):
    assert n % p == 0 and 1 < p < n
    assert arith._strong_probable_prime(n, arith._MR_WITNESSES)
    assert not is_prime(n)


def test_is_prime_on_large_mersenne_primes():
    assert is_prime(2**127 - 1)
    assert is_prime(2**521 - 1)
    assert not is_prime(2**523 - 1)         # no Mersenne prime between M521 and M607
    assert not is_prime((2**127 - 1) ** 2)


def test_strong_lucas_pseudoprimes_below_1e5():
    # the composites that pass the strong Lucas test alone (OEIS A217255)
    passed = [n for n in range(39, 10**5, 2)
              if all(n % r for r in arith._MR_WITNESSES)
              and arith._strong_lucas_probable_prime(n) and not is_prime(n)]
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                      40309, 58519, 75077, 97439]


def test_baillie_psw_agrees_with_twelve_bases_below_1e6():
    # is_prime runs Baillie-PSW only above the 12-base bound; below it both
    # tests are exact, so they must agree with each other and with a sieve
    limit = 10**6
    sieve = bytearray(limit)
    for p in arith._primes_below(limit):
        sieve[p] = 1
    assert tuple(n for n in range(10**5) if is_prime(n)) == arith._primes_below(10**5)
    for n in range(39, limit, 2):
        if all(n % r for r in arith._MR_WITNESSES):
            # both tests start with the strong test to base 2
            base2 = arith._strong_probable_prime(n, (2,))
            want = sieve[n] == 1
            assert (base2 and arith._strong_probable_prime(n, arith._MR_WITNESSES)) == want, n
            assert (base2 and arith._strong_lucas_probable_prime(n)) == want, n


def test_products_of_30_digit_primes_are_composite():
    rng = random.Random(20)

    def prime_near(x, step=1, also=lambda p: True):
        while not (is_prime(x) and also(x)):
            x += step
        return x

    lo = 10**29
    for _ in range(6):
        p = prime_near(rng.randrange(lo, 10 * lo) | 1, 2)
        q = prime_near(rng.randrange(lo, 10 * lo) | 1, 2)
        assert not is_prime(p * q)
        assert not is_prime(p * p)
    # p (2p - 1), the shape of both pseudoprimes above
    p = prime_near(rng.randrange(lo, 10 * lo) | 1, 2, lambda p: is_prime(2 * p - 1))
    assert not is_prime(p * (2 * p - 1))
    # a Carmichael number (6k + 1)(12k + 1)(18k + 1) past the 12-base bound
    k = prime_near(rng.randrange(10**9, 10**10), 1,
                   lambda k: all(is_prime(c * k + 1) for c in (6, 12, 18)))
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert n > arith._MR_PROVED and pow(2, n - 1, n) == 1
    assert not is_prime(n)


def test_factorize_examples():
    assert dict(factorize(80)) == {2: 4, 5: 1}
    assert dict(factorize(6560)) == {2: 5, 5: 1, 41: 1}
    assert dict(factorize(1)) == {}
    assert factorize(97).pairs == ((97, 1),)


def test_factorize_round_trip():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randrange(2, 10**12)
        fact = factorize(n)
        prod = 1
        for p, e in fact:
            assert is_prime(p)
            prod *= p**e
        assert prod == n == fact.value


@pytest.mark.parametrize("n,expect", [
    (999983 * 1000003, {999983: 1, 1000003: 1}),    # both factors above 1000
    (1000003**2, {1000003: 2}),
    (2**61 - 1, {2**61 - 1: 1}),                    # Mersenne prime
    (3**39 - 1, {2: 1, 13: 2, 313: 1, 6553: 1, 7333: 1, 797161: 1}),
    (3215031751, {151: 1, 751: 1, 28351: 1}),       # strong pseudoprime to 2, 3, 5, 7
    (561, {3: 1, 11: 1, 17: 1}),                    # Carmichael
    (41041, {7: 1, 11: 1, 13: 1, 41: 1}),           # Carmichael
])
def test_factorize_large_factors(n, expect):
    fact = factorize(n)
    assert dict(fact) == expect
    assert factorize(n) is fact


def test_factorize_spends_a_shared_budget(monkeypatch):
    # every call passed one budget spends from it, a memo hit spends nothing,
    # and the steps one factoring takes are the same run to run
    monkeypatch.setattr(arith, "_factor_cache", {})
    n = 999983 * 1000003
    budget = [10 ** 9]
    fact = factorize(n, budget)
    spent = 10 ** 9 - budget[0]
    assert dict(fact) == {999983: 1, 1000003: 1} and spent > 0
    assert factorize(n, budget) is fact and budget == [10 ** 9 - spent]
    monkeypatch.setattr(arith, "_factor_cache", {})
    assert factorize(n, [spent]) == fact
    monkeypatch.setattr(arith, "_factor_cache", {})
    with pytest.raises(arith.FactorBudgetError, match=f"{n} is not factored") as err:
        factorize(n, [spent - 1])
    assert isinstance(err.value, arith.BoundError)
    assert n not in arith._factor_cache


def test_factorization_str():
    # same shape as the cache file lines
    assert str(factorize(80)) == "2^4 5"
    assert str(factorize(97)) == "97"
    assert str(factorize(1)) == "1"


def test_factorize_rejects_nonpositive():
    with pytest.raises(UsageError):
        factorize(0)
    with pytest.raises(UsageError):
        factorize(-6)


def _primitive_primes(q: int, top: int) -> dict:
    """{e: the primes of q^e - 1 that divide no q^i - 1 with i < e}, e <= top,
    by factorizing each q^e - 1."""
    seen, out = set(), {}
    for e in range(1, top + 1):
        primes = set(factorize(q ** e - 1).primes())
        out[e] = primes - seen
        seen |= primes
    return out


def _base_by_order(q: int, top: int) -> dict:
    """{e: element} for the elements after p of spectra's coprime base, keyed
    by the order of q modulo the element."""
    p = factorize(q).primes()[0]
    base, orders = _coprime_base(p, q, top)
    by_order = {next(e for e in range(1, top + 1) if (q ** e - 1) % x == 0): x
                for x in base[1:]}
    assert base[0] == p and len(by_order) == len(base) - 1
    assert tuple(by_order) == orders
    return by_order


def test_primitive_prime_divisor_examples():
    # the coprime base holds, for each e, the part of Phi_e(q) made of
    # Zsigmondy's primitive prime divisors; 2^6 - 1 has none
    assert _coprime_base(3, 3, 4) == ((3, 2, 13, 5), (1, 3, 4))
    assert _coprime_base(2, 2, 6) == ((2, 3, 7, 5, 31), (2, 3, 4, 5))
    assert _coprime_base(5, 5, 1) == ((5, 4), (1,))


def test_primitive_prime_divisors_are_primitive():
    rng = random.Random(5)
    for _ in range(60):
        q = rng.randrange(2, 30)
        top = rng.randrange(1, 12)
        by_order = _base_by_order(q, top)
        for e, primes in _primitive_primes(q, top).items():
            x = by_order.get(e, 1)
            assert set(factorize(x).primes()) == primes, (q, e)


def test_primitive_prime_divisors_residue():
    # every prime of multiplicative order k modulo q is congruent to 1 mod k
    rng = random.Random(9)
    for _ in range(60):
        q = rng.randrange(2, 40)
        for k, x in _base_by_order(q, rng.randrange(2, 14)).items():
            if k > 1:
                assert all(r % k == 1 for r in factorize(x).primes())


def test_odd_prime_power():
    assert odd_prime_power(27) == (3, 3)
    assert odd_prime_power(343) == (7, 3)
    assert odd_prime_power(5) == (5, 1)
    for q, msg in ((8, "only odd prime powers"), (1, "only odd prime powers"),
                   (0, "only odd prime powers"), (-3, "only odd prime powers"),
                   (15, "is not a prime power")):
        with pytest.raises(UsageError, match=msg):
            odd_prime_power(q)
    # decided without factorizing: prime powers past the trial primes by
    # their integer roots, and composites of two 18-digit primes at once
    assert odd_prime_power(1009 ** 3) == (1009, 3)
    assert odd_prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    big = (10**18 + 3) * (3 * 10**18 + 37)
    for q in (big, 3 * big, (10**18 + 3) ** 2 * (3 * 10**18 + 37), 1009 * 1013):
        with pytest.raises(UsageError, match="is not a prime power"):
            odd_prime_power(q)


def test_iroot_is_the_floor_root():
    rng = random.Random(11)
    for _ in range(400):
        k = rng.randrange(1, 80)
        r = rng.randrange(1, 10 ** rng.randrange(1, 120))
        for x in (r ** k - 1, r ** k, r ** k + 1, rng.randrange(1, 10 ** 400)):
            if x >= 1:
                got = _iroot(x, k)
                assert got ** k <= x < (got + 1) ** k, (x, k)


def test_odd_prime_power_beyond_the_trial_primes():
    for p in (1009, 2**61 - 1):
        for m in (1, 2, 4, 6, 9):
            assert odd_prime_power(p ** m) == (p, m)
    for q in (1009 ** 3 * 1013, (2**61 - 1) ** 3 * 1013, 1013 ** 6 * 1009 ** 3):
        with pytest.raises(UsageError, match="is not a prime power"):
            odd_prime_power(q)


class _CountingInt(int):
    """An int that counts its floor divisions: one per Newton step."""
    steps = 0

    def __floordiv__(self, other):
        _CountingInt.steps += 1
        return int(self) // other


def test_odd_prime_power_root_search_is_short(monkeypatch):
    # a 2,000-digit q with no prime below 1000 and no exact root: one root
    # per prime k < log_1000 q, each a few Newton steps from its float
    # estimate (all 666 k and 78,383 steps when every k started at
    # 2^ceil(bits / k)); the primality test of q is stubbed out
    q = 10 ** 1999 + 1
    while any(q % p == 0 for p in range(3, 1000, 2)):
        q += 2
    ks = []

    def spy(x, k):
        ks.append(k)
        return _iroot(_CountingInt(x), k)

    monkeypatch.setattr(arith, "_iroot", spy)
    monkeypatch.setattr(arith, "is_prime", lambda n: False)
    _CountingInt.steps = 0
    with pytest.raises(UsageError, match="is not a prime power"):
        odd_prime_power(q)
    assert ks == [k for k in range(2, 667) if is_prime(k)]
    assert _CountingInt.steps <= 3 * len(ks)


def test_factor_cache_round_trip(tmp_path):
    path = tmp_path / "factors.txt"
    values = [6560, 80, 97, 2**31 - 1]
    for v in values:
        factorize(v)
    saved = save_factor_cache(str(path))
    assert saved >= len(values)
    text = path.read_text()
    assert "6560: 2^5 5 41" in text
    loaded = load_factor_cache(str(path))
    assert loaded == saved
    for v in values:
        assert factorize(v).value == v


# ---------------------------------------------------------------------------
# gcd and r-part identities for the signed terms q^k -+ 1. The acceptance
# gate reruns these at higher volume; here a smaller seeded pass guards the
# implementation directly.


def _gcd_identity_case(q: int, k: int, l: int):
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


def _quotient_identity_case(q: int, eps: int, k: int, l: int, n: int):
    def term(i):
        return q ** i - eps ** i
    # gcd taken against q - eps: the quotient is congruent to +-k mod q - eps
    # (against k instead the claim is false, e.g. q=7, eps=1, k=4)
    assert math.gcd(term(k) // (q - eps), q - eps) == math.gcd(q - eps, k)
    if math.gcd(k, l) == 1:
        lk = term(l * k)
        assert lk % term(k) == 0
        assert (lk // term(k)) % (term(l) // (q - eps)) == 0
        a = term(l) // math.gcd(n, q - eps)
        b = lk // math.gcd(n, term(k))
        assert term(l) % math.gcd(n, q - eps) == 0
        assert b % a == 0


def _r_part_identity_case(q: int, eps: int, k: int):
    term = q ** k - eps ** k
    for r in (3, 5, 7, 11, 13, 17, 19, 23):
        if (q - eps) % r == 0:
            assert r_part(term, r) == r_part(k, r) * r_part(q - eps, r)
        if term % r == 0:
            kk = k // r_part(k, r)
            assert (q ** kk - eps ** kk) % r == 0
    if (q - eps) % 4 == 0 and k % 2 == 1:
        assert two_part(term) == two_part(k) * two_part(q - eps)


def test_gcd_identities_randomized():
    rng = random.Random(25)
    for _ in range(1500):
        q = rng.randrange(2, 60)
        _gcd_identity_case(q, rng.randrange(1, 16), rng.randrange(1, 16))


def test_quotient_identities_randomized():
    rng = random.Random(26)
    for _ in range(1500):
        q = rng.randrange(2, 40)
        eps = rng.choice((1, -1))
        _quotient_identity_case(q, eps, rng.randrange(1, 10),
                                rng.randrange(1, 10), rng.randrange(1, 50))


def test_r_part_identities_randomized():
    rng = random.Random(27)
    for _ in range(1500):
        q = rng.randrange(2, 60)
        eps = rng.choice((1, -1))
        _r_part_identity_case(q, eps, rng.randrange(1, 14))
