"""Finite fields F_{p^m} with exact integer encodings.

An element is encoded as an integer in [0, q): the value sum c_j p^j stands
for the polynomial sum c_j x^j over the modulus. Small fields (q <= 2048)
additionally build read-only numpy lookup tables (MUL, ADD, NEG, INV, FROB,
LOG, and over a prime field the int16 reduction table MOD, shared by every
field of that p), one builder for every m, so matrix arithmetic can be
vectorized; oracle.groups.make_field shares one such field per (p, m). They
do their scalar arithmetic through O(q) Python lists taken from the tables:
mul, inv and pow through exp/log, and add in a proper extension through Zech
logarithms, 1 + g^k = g^Z(k) (Huber, "Some comments on Zech's logarithms",
IEEE Trans. Inf. Theory, 1990).
The GU row sampler in oracle.groups and the Krylov path of oracle.wall read
the same lists (_exp, _log, _zech, _neg, _inv) directly, without a method
call per element, through _combine for linear combinations of vectors. Only
large fields, and fields built with tables=False, multiply as polynomials,
through the kit below: poly_mul of the two digit lists over F_p, then
poly_divmod by the modulus. So does the table set-up itself, which needs mul
and pow before the tables exist. F_p is _prime_field(p), one tableless field
per p and process, which the modulus search and check and the Kronecker
tables of oracle.batch share.

This module also holds the package's one polynomial kit: poly_trim, poly_add,
poly_neg, poly_mul, poly_divmod, poly_monic, poly_div_linear, poly_gcd and
poly_powmod act on little-endian tuples of encodings over any field object
F. Over a prime field, poly_add, poly_neg, poly_mul, poly_divmod,
poly_monic and poly_div_linear work on plain ints mod p, one % per
coefficient and inverses from pow(x, -1, p); over a proper extension they
call F's methods per coefficient. poly_div_linear is the one Horner's rule:
it divides by z - lam and returns the value at lam as the remainder. The
irreducibility test runs the kit over the prime field; oracle.wall runs it
over F_q for the Smith form and the Jordan partitions, embed_subfield
evaluates with poly_div_linear, and oracle.witness runs the kit over a big
extension for minimal polynomials.

The default modulus is the first monic irreducible found when the non-leading
coefficients (c_0, ..., c_{m-1}) are enumerated lexicographically, so F_9 is
built over x^2 + 1; the search runs once per (p, m). An explicit modulus can
be passed for cross checks. The primitive element is likewise found once per
(p, m, modulus) and process, by the first field that asks, with that field's
own pow; only the integer is cached here, never a field or its tables.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..arith import UsageError, factorize, is_prime
from . import TABLE_LIMIT_Q
NARROW = 1 << 15                 # int16 sums and products below this are exact
KRONECKER_LIMIT = 1 << 17        # largest B^m of an extension-field mat_mul by
                                 # Kronecker substitution (oracle.batch)
_primitives: dict = {}           # (p, m, modulus) -> primitive element


# --- polynomials over a field F: little-endian tuples of F's encodings ------


def poly_trim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(F, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if F.m == 1:
        p = F.p
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        out = [F.add(x, y) for x, y in zip(a, b)]
    out += a[len(b):]
    return poly_trim(out)


def poly_neg(F, a) -> tuple:
    if F.m == 1:
        p = F.p
        return tuple((-x) % p for x in a)
    return tuple(F.neg(x) for x in a)


def poly_mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if F.m == 1:
        # plain integer products, reduced once per coefficient
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        p = F.p
        return poly_trim([c % p for c in out])
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(out)


def poly_divmod(F, a, b) -> tuple:
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(a))
    db = len(b) - 1
    quo = [0] * max(0, len(a) - db)
    prime = F.m == 1
    if prime:
        p = F.p
        ilead = pow(b[-1], -1, p)
    else:
        ilead = F.inv(b[-1])
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        if prime:
            c = a[-1] * ilead % p
            for j in range(db + 1):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
        else:
            c = F.mul(a[-1], ilead)
            for j in range(db + 1):
                a[shift + j] = F.sub(a[shift + j], F.mul(c, b[j]))
        quo[shift] = c
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quo), poly_trim(a)


def poly_monic(F, a) -> tuple:
    a = poly_trim(a)
    if not a or a[-1] == 1:
        return a
    if F.m == 1:
        p = F.p
        inv = pow(a[-1], -1, p)
        return tuple(inv * x % p for x in a)
    inv = F.inv(a[-1])
    return tuple(F.mul(inv, x) for x in a)


def poly_div_linear(F, d, lam: int) -> tuple:
    """(d / (z - lam), d(lam)) by Horner's rule: its values at lam, from the
    top coefficient down, are the quotient's coefficients, and the last is
    d(lam); ((), 0) for the zero polynomial."""
    acc, quo = 0, []
    if F.m == 1:
        p = F.p
        for c in reversed(d):
            acc = (acc * lam + c) % p
            quo.append(acc)
    else:
        for c in reversed(d):
            acc = F.add(F.mul(acc, lam), c)
            quo.append(acc)
    rem = quo.pop() if quo else 0
    return tuple(reversed(quo)), rem


def poly_gcd(F, a, b) -> tuple:
    """Monic gcd; () when both are zero."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    return poly_monic(F, a)


def poly_powmod(F, base, e: int, f) -> tuple:
    """base^e mod f, square and multiply."""
    result = (1,)
    cur = poly_divmod(F, base, f)[1]
    while e:
        if e & 1:
            result = poly_divmod(F, poly_mul(F, result, cur), f)[1]
        cur = poly_divmod(F, poly_mul(F, cur, cur), f)[1]
        e >>= 1
    return result


@functools.cache
def _mod_table(p):
    """MOD[x] = x % p for 0 <= x < 2^15: one int16 reduction table per p,
    which oracle.batch._reduce gathers through on small arrays and where no
    int16 multiply-shift fits."""
    mod = (np.arange(NARROW) % p).astype(np.int16)
    mod.flags.writeable = False
    return mod


# --- vectors over a table field: its exp, log and Zech lists ---------------


def _combine(F: FiniteField, cs: list, vecs: list, n: int) -> list:
    """sum_k cs[k] vecs[k] over F, read from its exp, log and Zech lists:
    x + y = g^lx (1 + g^(ly - lx)) = g^(lx + Z(ly - lx)), a negative index
    wrapping mod q - 1."""
    exp, log, zech = F._exp, F._log, F._zech
    out = [0] * n
    for c, vec in zip(cs, vecs):
        if c:
            lc = log[c]
            for j, y in enumerate(vec):
                if y:
                    t = exp[lc + log[y]]
                    x = out[j]
                    if x:
                        z = zech[log[t] - log[x]]
                        t = exp[log[x] + z] if z >= 0 else 0
                    out[j] = t
    return out


# --- the default modulus ----------------------------------------------------


def _is_irreducible(Fp, f):
    """Ben-Or's test over the prime field Fp: f of degree m is irreducible
    iff gcd(x^(p^k) - x, f) = 1 for k = 1, ..., m // 2. A factor of degree k
    shows at step k, so most reducible candidates of the search stop early."""
    x = xk = (0, 1)
    for _ in range((len(f) - 1) // 2):
        xk = poly_powmod(Fp, xk, Fp.p, f)
        if len(poly_gcd(Fp, poly_add(Fp, xk, poly_neg(Fp, x)), f)) > 1:
            return False
    return True


@functools.cache
def _find_modulus(p, m):
    if m == 1:
        return (0, 1)
    Fp = _prime_field(p)
    # the tails (c_0, ..., c_{m-1}) in order, less those with c_0 = 0: x
    # divides each of them, so the first irreducible found is the same
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        f = tail + (1,)
        if _is_irreducible(Fp, f):
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
            modulus = poly_trim(modulus)
            if len(modulus) - 1 != m or modulus[-1] != 1:
                raise UsageError("modulus must be monic of degree m")
            if m > 1 and not _is_irreducible(_prime_field(p), modulus):
                raise UsageError("modulus is reducible")
        self.modulus = tuple(modulus)
        self.tables = (self.q <= TABLE_LIMIT_Q) if tables is None else tables
        self._log = None                 # set once the tables exist
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
        log = self._log
        if log is None:
            return self.encode((x + y) % p for x, y in zip(self.digits(a), self.digits(b)))
        if not a:
            return b
        if not b:
            return a
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self._log is not None:
            return self._neg[a]
        return self.encode((-x) % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a * b) % p
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]] if a and b else 0
        # the kit's product of the digit lists over F_p, mod the modulus
        Fp = _prime_field(p)
        prod = poly_mul(Fp, self.digits(a), self.digits(b))
        return self.encode(poly_divmod(Fp, prod, self.modulus)[1])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if e < 0:
            return self.pow(self.inv(a), -e)
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
        if self._log is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def frob(self, a: int) -> int:
        if self._log is not None:
            return self._frob[a]
        return self.pow(a, self.p)

    @property
    def primitive(self) -> int:
        """Smallest encoding generating the multiplicative group."""
        key = (self.p, self.m, self.modulus)
        g = _primitives.get(key)
        if g is None:
            fact = factorize(self.q - 1)
            g = 1                        # primitive only in F_2
            while g < self.q:
                if all(self.pow(g, (self.q - 1) // r) != 1 for r in fact.primes()):
                    break
                g += 1
            else:
                raise AssertionError("no primitive element")  # unreachable
            _primitives[key] = g
        return g

    # --- numpy lookup tables ---

    def _build_tables(self):
        """One way for every m: MUL, INV and FROB from exp and log, ADD and NEG
        from digit vectors, MUL and ADD 2^18 entries at a time, so no
        temporary exceeds 2 MiB. All read-only: make_field shares F."""
        p, q = self.p, self.q
        g = self.primitive
        exp = np.empty(q - 1, np.int16)
        cur = 1
        for k in range(q - 1):
            exp[k] = cur
            cur = self.mul(cur, g)
        log = np.full(q, -1, np.int64)
        log[exp] = np.arange(q - 1)
        exp2 = np.concatenate([exp, exp])      # log a + log b needs no % (q - 1)
        # int64, as elsewhere: int16 // and % would page in numpy loops that
        # nothing else runs, about 150 KiB more peak RSS per CLI process
        enc = np.arange(q)
        digs = [enc // p ** j % p for j in range(self.m)]
        mul = np.empty((q, q), np.int16)
        add = np.empty((q, q), np.int16)
        step = max(1, (1 << 18) // q)
        for lo in range(0, q, step):
            hi = min(q, lo + step)
            # row and column 0 read exp2 at a log of -1 and are zeroed below,
            # as is entry 0 of INV and FROB
            mul[lo:hi] = exp2[log[lo:hi, None] + log]
            add[lo:hi] = sum((d[lo:hi, None] + d) % p * p ** j for j, d in enumerate(digs))
        mul[0] = mul[:, 0] = 0
        self.LOG, self.MUL, self.ADD = log, mul, add
        self.NEG = sum(-d % p * p ** j for j, d in enumerate(digs)).astype(np.int16)
        if self.m == 1:
            self.MOD = _mod_table(p)
        inv, frob = exp[-log % (q - 1)], exp[log * p % (q - 1)]
        inv[0] = frob[0] = 0
        self.INV, self.FROB = inv, frob
        for table in (log, mul, add, self.NEG, inv, frob):
            table.flags.writeable = False

        # the scalar ops read these lists; doubling exp lets mul skip the
        # reduction of log a + log b, and zech[k] = log(1 + g^k), -1 if zero
        self._exp = exp.tolist() * 2
        self._zech = log[add[1, exp]].tolist()
        self._neg = self.NEG.tolist()
        self._inv = inv.tolist()
        self._frob = frob.tolist()
        self._log = log.tolist()

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"


@functools.cache
def _prime_field(p: int) -> FiniteField:
    """F_p without tables, one per p and process: the field the kit runs
    over for the modulus search and check, tableless products and the
    Kronecker tables of oracle.batch."""
    return FiniteField(p, tables=False)


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
        if poly_div_linear(big, small.modulus, cand)[1] == 0:
            root = cand
            break
    if root is None:
        raise AssertionError("no root of the subfield modulus")  # unreachable

    fwd = [poly_div_linear(big, small.digits(e), root)[1] for e in range(small.q)]
    rev = {be: se for se, be in enumerate(fwd)}
    return fwd, rev
