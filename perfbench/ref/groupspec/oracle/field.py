"""Finite fields F_{p^m} with exact integer encodings.

An element is encoded as an integer in [0, q): the value sum c_j p^j stands
for the polynomial sum c_j x^j over the modulus. Small fields additionally
build full numpy lookup tables (ADD, MUL, INV, ...) so matrix arithmetic can
be vectorized; large fields fall back to scalar polynomial arithmetic.

The default modulus is the first monic irreducible found when the non-leading
coefficients (c_0, ..., c_{m-1}) are enumerated lexicographically, so F_9 is
built over x^2 + 1. An explicit modulus can be passed for cross checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..arith import UsageError, factorize, is_prime

TABLE_LIMIT_Q = 2048


# --- dense polynomial helpers over Z/p, little-endian coefficient tuples ----


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for j in range(df + 1):
                a[shift + j] = (a[shift + j] - lead * f[j]) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = tuple(c * inv % p for c in b)
        a, b = b, _pmod(a, bm, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _ppowmod(base, e, f, p):
    result = (1,)
    cur = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, cur, p), f, p)
        cur = _pmod(_pmul(cur, cur, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f, p):
    m = len(f) - 1
    x = (0, 1)
    if _ppowmod(x, p ** m, f, p) != _pmod(x, f, p):
        return False
    for r in factorize(m).primes():
        xq = _ppowmod(x, p ** (m // r), f, p)
        diff = _ptrim([(a - b) % p for a, b in
                       itertools.zip_longest(xq, x, fillvalue=0)])
        if len(_pgcd(diff, f, p)) > 1:
            return False
    return True


def _find_modulus(p, m):
    if m == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=m):
        f = tail + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """F_q, q = p^m, with scalar ops always available and tables when small."""

    def __init__(self, p: int, m: int = 1, modulus=None, tables: bool | None = None):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        if m < 1:
            raise UsageError("m must be positive")
        self.p, self.m, self.q = p, m, p ** m
        if modulus is None:
            modulus = _find_modulus(p, m)
        else:
            modulus = _ptrim(modulus)
            if len(modulus) - 1 != m or modulus[-1] != 1:
                raise UsageError("modulus must be monic of degree m")
            if m > 1 and not _is_irreducible(modulus, p):
                raise UsageError("modulus is reducible")
        self.modulus = tuple(modulus)
        self.tables = (self.q <= TABLE_LIMIT_Q) if tables is None else tables
        self._primitive = None
        self._power_tables: dict = {}
        if self.tables:
            self._build_tables()

    # --- scalar arithmetic on encodings ---

    def digits(self, e: int):
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(e % p)
            e //= p
        return out

    def encode(self, digits) -> int:
        e = 0
        for c in reversed(list(digits)):
            e = e * self.p + int(c)
        return e

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        return self.encode((x + y) % p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.encode((-x) % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a * b) % p
        prod = _pmod(_pmul(tuple(self.digits(a)), tuple(self.digits(b)), p),
                     self.modulus, p)
        return self.encode(prod + (0,) * (self.m - len(prod)))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        out, cur = 1, a
        while e:
            if e & 1:
                out = self.mul(out, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def frob(self, a: int) -> int:
        return self.pow(a, self.p)

    @property
    def primitive(self) -> int:
        """Smallest encoding generating the multiplicative group."""
        if self._primitive is None:
            fact = factorize(self.q - 1)
            g = 2
            while g < self.q:
                if all(self.pow(g, (self.q - 1) // r) != 1 for r in fact.primes()):
                    break
                g += 1
            else:
                raise AssertionError("no primitive element")  # unreachable
            self._primitive = g
        return self._primitive

    # --- numpy lookup tables ---

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        g = self.primitive
        exp = np.empty(q - 1, np.int16)
        cur = 1
        for k in range(q - 1):
            exp[k] = cur
            cur = self.mul(cur, g)
        log = np.full(q, -1, np.int64)
        log[exp] = np.arange(q - 1)
        self.EXP, self.LOG = exp, log

        idx = (log[1:, None] + log[None, 1:]) % (q - 1)
        mul = np.zeros((q, q), np.int16)
        mul[1:, 1:] = exp[idx]
        self.MUL = mul

        if m == 1:
            grid = np.arange(q, dtype=np.int64)
            self.ADD = ((grid[:, None] + grid[None, :]) % p).astype(np.int16)
            self.NEG = ((-grid) % p).astype(np.int16)
        else:
            digs = np.empty((q, m), np.int64)
            e = np.arange(q, dtype=np.int64)
            for j in range(m):
                digs[:, j] = e % p
                e //= p
            weights = p ** np.arange(m, dtype=np.int64)
            add = np.empty((q, q), np.int16)
            step = max(1, (1 << 22) // (q * m))
            for lo in range(0, q, step):
                hi = min(q, lo + step)
                block = (digs[lo:hi, None, :] + digs[None, :, :]) % p
                add[lo:hi] = (block * weights).sum(axis=2).astype(np.int16)
            self.ADD = add
            self.NEG = (((-digs) % p) * weights).sum(axis=1).astype(np.int16)

        self.SUB = self.ADD[:, self.NEG]
        inv = np.zeros(q, np.int16)
        inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        self.INV = inv
        frob = np.zeros(q, np.int16)
        frob[1:] = exp[(log[1:] * p) % (q - 1)]
        self.FROB = frob

    def power_table(self, e: int) -> np.ndarray:
        """Entrywise x -> x^e as a length-q table."""
        if not self.tables:
            raise UsageError("power_table needs a table-backed field")
        e %= self.q - 1
        tab = self._power_tables.get(e)
        if tab is None:
            tab = np.zeros(self.q, np.int16)
            tab[1:] = self.EXP[(self.LOG[1:] * e) % (self.q - 1)]
            if e == 0:
                tab[0] = 1
            self._power_tables[e] = tab
        return tab

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"


def embed_subfield(small: FiniteField, big: FiniteField):
    """Embedding of a subfield: (fwd array, rev dict on the image).

    fwd[e] is the big-field encoding of the small-field element e; rev maps
    image encodings back. The embedding is the deterministic one through the
    first root of the small modulus among the subfield elements of big.
    """
    if small.p != big.p or big.m % small.m != 0:
        raise UsageError("not a subfield")
    if small.m == big.m or small.m == 1:
        # same field, or the prime field: constants encode identically
        fwd = list(range(small.q))
        return fwd, {e: e for e in fwd}

    # candidate roots: the elements of order dividing q_small - 1
    span = (big.q - 1) // (small.q - 1)
    lam = big.primitive
    root = None
    for k in range(small.q - 1):
        cand = big.pow(lam, k * span)
        acc = 0
        for c in reversed(small.modulus):
            acc = big.add(big.mul(acc, cand), c % big.p)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise AssertionError("no root of the subfield modulus")  # unreachable

    fwd = []
    for e in range(small.q):
        acc = 0
        for c in reversed(small.digits(e)):
            acc = big.add(big.mul(acc, root), c)
        fwd.append(acc)
    rev = {be: se for se, be in enumerate(fwd)}
    return fwd, rev
