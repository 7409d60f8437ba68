"""Exact integer helpers: gcd/lcm folds, pi-parts, factorization, and the one
check that a field size q is an odd prime power.

Everything here works on unbounded Python ints. The only state is a
factorization memo that can be preloaded from / saved to a plain text cache.
"""

from __future__ import annotations

import math
import random
import threading
from operator import attrgetter


class UsageError(ValueError):
    """Bad arguments at an API or CLI boundary."""


class Record:
    """A frozen record. Its fields are named in __slots__ and set once by the
    subclass's own __init__, which ends with self.__post_init__() where the
    record validates; equality, hash, repr and copies go by the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)  # a tuple, or one bare value

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class BoundError(RuntimeError):
    """An enumeration would exceed the configured bound."""


# default for the bound a BoundError enforces on matrix enumeration
DEFAULT_ENUM_BOUND = 30_000_000


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


def cyclotomic_values(q: int, top: int) -> list:
    """[Phi_1(q), ..., Phi_top(q)]: Phi_e(q) is q^e - 1 divided by the
    Phi_d(q) of the proper divisors d of e."""
    phi: list = []
    for e in range(1, top + 1):
        x = q ** e - 1
        for d in range(1, e // 2 + 1):
            if e % d == 0:
                x //= phi[d - 1]
        phi.append(x)
    return phi


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


def p_power_exponent(x: int, p: int):
    """s >= 0 with x = p^s, else None."""
    if x < 1:
        return None
    s = 0
    while x % p == 0:
        x //= p
        s += 1
    return s if x == 1 else None


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


# Miller-Rabin bases: the first 12 primes decide primality only for
# n < 318665857834031151167461 ~ 3.18 * 10^23, the least composite that passes
# them all (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp., 2017). Above it is_prime runs the Baillie-PSW test: a strong
# test to base 2 and a strong Lucas test with Selfridge's parameters
# (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp., 1980). No
# composite is known to pass both.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVED = 318665857834031151167461


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for r in _MR_WITNESSES:
        if n % r == 0:
            return n == r
    if n < _MR_PROVED:
        return _strong_probable_prime(n, _MR_WITNESSES)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin to every base in bases, for odd n above them."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 37 free of primes up to 37, with P = 1
    and Q = (1 - D) / 4 for the first D in 5, -7, 9, -11, ... with (D/n) = -1.
    Writing n + 1 = d 2^s, n passes if U_d = 0 or V_(d 2^r) = 0 for some
    r < s. The sequences are walked down the bits of d with U_2k = U_k V_k,
    V_2k = V_k^2 - 2 Q^k, U_(k+1) = (U_k + V_k) / 2 and V_(k+1) =
    (D U_k + V_k) / 2, the halving taken mod n."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) <= |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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


def _primes_below(limit: int) -> tuple:
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(sieve[i * i::i]))
    return tuple(i for i in range(limit) if sieve[i])


# trial division stops here; larger factors are left to Miller-Rabin and rho
_TRIAL_PRIMES = _primes_below(1000)


class Factorization(Record):
    """Prime factorization as ((prime, exponent), ...) sorted by prime."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple):
        object.__setattr__(self, "pairs", pairs)
        self.__post_init__()

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
    for p in _TRIAL_PRIMES:
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


def remember(fact: Factorization) -> Factorization:
    """Enter fact into the factorization memo under its value; return it."""
    with _factor_lock:
        _factor_cache[fact.value] = fact
    return fact


def load_factor_cache(path: str) -> int:
    """Load "n: p1^e1 p2 ..." lines; returns the number of entries loaded.

    A file that cannot be read, or a line that does not parse, names a
    non-prime factor or does not multiply back to n, raises UsageError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read factor cache {path}: {exc}")
    count = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, _, right = line.partition(":")
        try:
            n = int(left)
            pairs = []
            for tok in right.split():
                p, _, e = tok.partition("^")
                pairs.append((int(p), int(e) if e else 1))
        except ValueError:
            raise UsageError(f"cache line does not parse: {line!r}")
        for p, e in pairs:
            if not is_prime(p):
                raise UsageError(f"cache line for {n} has non-prime factor {p}")
            if e > n.bit_length():
                # p^e > n already; refuse before computing a huge power
                raise UsageError(f"cache line does not multiply back to {n}")
        fact = Factorization(tuple(sorted(pairs)))
        if fact.value != n:
            raise UsageError(f"cache line does not multiply back to {n}")
        remember(fact)
        count += 1
    return count


def save_factor_cache(path: str) -> int:
    """Write the memo in load_factor_cache's format; UsageError if it cannot."""
    with _factor_lock:
        items = sorted(_factor_cache.items())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for n, fact in items:
                fh.write(f"{n}: {fact}\n")
    except OSError as exc:
        raise UsageError(f"cannot write factor cache {path}: {exc}")
    return len(items)


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 1, by Newton's method. It starts from the float
    estimate 2^(log2(x) / k); one step from any r > 0 lands at or above the
    root (by the AM-GM inequality), and from there Newton descends to it."""
    e = math.log2(x) / k
    r = max(int(2 ** (e % 1) * (1 << 52)) << int(e) >> 52, 1)
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def odd_prime_power(q: int):
    """(p, m) with q = p^m for an odd prime p; UsageError otherwise.

    Decided without factorizing q, on which rho spends about sqrt(r) steps
    for the least prime r of q: a prime p < 1000 dividing q must be its only
    prime; otherwise every prime of q exceeds 1000, so m < log_1000 q. Then
    q = p^m exactly when taking exact k-th roots for prime k, while one
    exists, ends at a prime."""
    if q % 2 == 0 or q < 3:
        raise UsageError(f"q = {q}: only odd prime powers are covered")
    p = next((p for p in _TRIAL_PRIMES if q % p == 0), None)
    if p is not None:
        m = p_power_exponent(q, p)
        if m is not None:
            return p, m
    else:
        root, m = q, 1
        # 1000^k < q for every prime k < log_1000 q <= bit length / 9
        for k in _primes_below(q.bit_length() // 9 + 2):
            while 1000 ** k < root and (r := _iroot(root, k)) ** k == root:
                root, m = r, m * k
        if is_prime(root):
            return root, m
    raise UsageError(f"q = {q} is not a prime power")
