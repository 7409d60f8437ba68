"""Exact integer helpers: gcd/lcm folds, pi-parts, factorization, primitive prime divisors.

Everything here works on unbounded Python ints. The only state is a
factorization memo that can be preloaded from / saved to a plain text cache.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass


class UsageError(ValueError):
    """Bad arguments at an API or CLI boundary."""


def lcm_list(values) -> int:
    """Least common multiple of a non-empty list of positive integers."""
    vals = list(values)
    if not vals:
        raise UsageError("lcm of empty list")
    out = 1
    for v in vals:
        if v < 1:
            raise UsageError("lcm arguments must be positive")
        out = out * v // math.gcd(out, v)
    return out


def gcd_list(values) -> int:
    vals = list(values)
    if not vals:
        raise UsageError("gcd of empty list")
    out = 0
    for v in vals:
        out = math.gcd(out, v)
    return out


def two_part(a: int) -> int:
    """(a)_2: largest power of 2 dividing a."""
    return a & -a


def odd_part(a: int) -> int:
    return a // two_part(a)


def r_part(a: int, r: int) -> int:
    """(a)_r for a single prime r."""
    out = 1
    while a % r == 0:
        a //= r
        out *= r
    return out


def pi_part(a: int, b: int) -> int:
    """(a)_b: the largest divisor of a all of whose prime divisors divide b.

    No factorization needed: repeatedly strip gcd(a, b)-parts.
    """
    if a < 1 or b < 1:
        raise UsageError("pi_part needs positive arguments")
    result = 1
    g = math.gcd(a, b)
    while g > 1:
        while a % g == 0:
            a //= g
            result *= g
        g = math.gcd(a, g)
    return result


def co_pi_part(a: int, b: int) -> int:
    """(a)_{b'} = a / (a)_b."""
    return a // pi_part(a, b)


# deterministic Miller-Rabin witness set, valid far beyond any input we see
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for r in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % r == 0:
            return n == r
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random) -> int:
    # returns a non-trivial factor of composite odd n
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


_SMALL_PRIMES = None


def _small_primes():
    global _SMALL_PRIMES
    if _SMALL_PRIMES is None:
        limit = 10 ** 6
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
        _SMALL_PRIMES = [i for i in range(limit + 1) if sieve[i]]
    return _SMALL_PRIMES


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) sorted by prime."""

    pairs: tuple

    def __post_init__(self):
        primes = [p for p, _ in self.pairs]
        if primes != sorted(set(primes)):
            raise UsageError("factorization primes must be strictly increasing")
        if any(e < 1 for _, e in self.pairs):
            raise UsageError("factorization exponents must be positive")

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p ** e
        return out

    def primes(self):
        return tuple(p for p, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __str__(self):
        if not self.pairs:
            return "1"
        return " ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.pairs)


_factor_cache: dict = {}
_factor_lock = threading.Lock()


def _factor_into(n: int, acc: dict, rng: random.Random):
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _brent_rho(n, rng)
    _factor_into(d, acc, rng)
    _factor_into(n // d, acc, rng)


def factorize(n: int) -> Factorization:
    """Complete factorization; deterministic for a given input."""
    if n < 1:
        raise UsageError("factorize needs a positive integer")
    if n == 1:
        return Factorization(())
    with _factor_lock:
        hit = _factor_cache.get(n)
    if hit is not None:
        return hit
    m = n
    acc: dict = {}
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            acc[p] = acc.get(p, 0) + 1
            m //= p
    if m > 1:
        if is_prime(m):
            acc[m] = acc.get(m, 0) + 1
        else:
            # fixed seed keeps rho deterministic run to run
            _factor_into(m, acc, random.Random(0xF1A7 ^ (m & 0xFFFF)))
    result = Factorization(tuple(sorted(acc.items())))
    with _factor_lock:
        _factor_cache[n] = result
    return result


def load_factor_cache(path: str) -> int:
    """Load "n: p1^e1 p2 ..." lines; returns the number of entries loaded."""
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            left, _, right = line.partition(":")
            n = int(left)
            pairs = []
            for tok in right.split():
                p, _, e = tok.partition("^")
                pairs.append((int(p), int(e) if e else 1))
            fact = Factorization(tuple(sorted(pairs)))
            if fact.value != n:
                raise UsageError(f"cache line does not multiply back to {n}")
            with _factor_lock:
                _factor_cache[n] = fact
            count += 1
    return count


def save_factor_cache(path: str) -> int:
    with _factor_lock:
        items = sorted(_factor_cache.items())
    with open(path, "w", encoding="utf-8") as fh:
        for n, fact in items:
            fh.write(f"{n}: {fact}\n")
    return len(items)


@dataclass(frozen=True)
class SignedBase:
    """A base q >= 2 together with a sign, standing for the sequence q^k - eps^k."""

    q: int
    eps: int = 1

    def __post_init__(self):
        if self.q < 2:
            raise UsageError("base must be at least 2")
        if self.eps not in (1, -1):
            raise UsageError("sign must be +1 or -1")

    def term(self, k: int) -> int:
        return self.q ** k - self.eps ** k


def primitive_prime_divisors(base: SignedBase, k: int) -> frozenset:
    """Primes dividing q^k - eps^k but no earlier q^i - eps^i (1 <= i < k)."""
    if k < 1:
        raise UsageError("k must be positive")
    residual = base.term(k)
    if residual == 0:
        return frozenset()
    for i in range(1, k):
        t = base.term(i)
        if t == 0:
            continue
        g = math.gcd(residual, t)
        while g > 1:
            residual //= g
            g = math.gcd(residual, g)
    if residual == 1:
        return frozenset()
    return frozenset(factorize(residual).primes())


def prime_power_decompose(x: int):
    """Return (p, t) with x = p^t, t >= 1, or None if x is not a prime power."""
    if x < 2:
        return None
    fact = factorize(x)
    if len(fact.pairs) != 1:
        return None
    return fact.pairs[0]


def is_odd_prime_power(x: int) -> bool:
    pp = prime_power_decompose(x)
    return pp is not None and pp[0] % 2 == 1
