"""Closed-form element-order spectra of the odd-characteristic classical groups.

A spectrum is stored by its maximal elements under divisibility (an antichain,
kept in descending order). The closed forms cover:

  spectrum_linear                  PSL_n^eps(q) and PGL_n^eps(q), eps = +1 linear, -1 unitary
  spectrum_symplectic              Sp_2n(q), PSp_2n(q), Omega_{2n+1}(q)
  spectrum_orthogonal_semisimple   p'-part of Omega_2n^eps(q) and POmega_2n^eps(q)

and spectrum(spec) picks the one that covers spec's family. q = p^m is
always odd here; even q is rejected up front (arith.odd_prime_power).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import (BoundError, Record, UsageError, cyclotomic_values, factorize, is_prime,
                    lcm_list, odd_prime_power, p_power_exponent, r_part, two_part)

# The group grammar, one row per symbol: (symbol, family, eps, a, b, least n),
# where the matrix dimension is a*n + b. Longest symbol first, so that a
# parser trying the rows in turn never stops at a prefix of a longer symbol.
SYMBOLS = (
    ("OmegaOdd", "OmegaOdd", 1, 2, 1, 1),
    ("POmega+", "POmegaEven", 1, 2, 0, 2), ("POmega-", "POmegaEven", -1, 2, 0, 2),
    ("Omega+", "OmegaEven", 1, 2, 0, 2), ("Omega-", "OmegaEven", -1, 2, 0, 2),
    ("PSL", "PSL", 1, 1, 0, 2), ("PSU", "PSL", -1, 1, 0, 2),
    ("PGL", "PGL", 1, 1, 0, 2), ("PGU", "PGL", -1, 1, 0, 2),
    ("PSp", "PSp", 1, 2, 0, 1), ("Sp", "Sp", 1, 2, 0, 1),
)
FAMILIES = tuple(dict.fromkeys(row[1] for row in SYMBOLS))
_ROWS = {(row[1], row[2]): row for row in SYMBOLS}


class GroupSpec(Record):
    """A classical group: family symbol, rank parameter n, field q = p^m, sign eps.

    n is the subscript index of the family symbol: PSL_n, Sp_2n, Omega_{2n+1},
    Omega_2n^eps. The matrix dimension a*n + b, the least n and the printed
    symbol come from the row of SYMBOLS for (family, eps).
    """

    __slots__ = ("family", "n", "p", "m", "eps")

    def __init__(self, family: str, n: int, p: int, m: int, eps: int = 1):
        set_ = object.__setattr__
        set_(self, "family", family)
        set_(self, "n", n)
        set_(self, "p", p)
        set_(self, "m", m)
        set_(self, "eps", eps)
        self.__post_init__()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.p == 2 or not is_prime(self.p):
            raise UsageError("characteristic must be an odd prime")
        if self.m < 1:
            raise UsageError("field exponent m must be positive")
        if self.eps not in (1, -1):
            raise UsageError("eps must be +1 or -1")
        if (self.family, self.eps) not in _ROWS:
            raise UsageError(f"{self.family} takes no sign")
        least = _ROWS[self.family, self.eps][5]
        if self.n < least:
            raise UsageError(f"{self.family} needs n >= {least}")

    @property
    def q(self) -> int:
        return self.p ** self.m

    @classmethod
    def from_q(cls, family: str, n: int, q: int, eps: int = 1) -> "GroupSpec":
        p, m = odd_prime_power(q)
        return cls(family, n, p, m, eps)

    @property
    def dimension(self) -> int:
        """Matrix dimension of the natural module."""
        _, _, _, a, b, _ = _ROWS[self.family, self.eps]
        return a * self.n + b

    def __str__(self):
        symbol = _ROWS[self.family, self.eps][0].removesuffix("Odd")
        return f"{symbol}_{self.dimension}({self.q})"


class Spectrum(Record):
    """Divisor-closed set of positive integers, held as its maximal elements.

    generators are strictly descending and pairwise non-dividing.
    """

    __slots__ = ("generators",)

    def __init__(self, generators: tuple):
        object.__setattr__(self, "generators", generators)
        self.__post_init__()

    def __post_init__(self):
        gens = self.generators
        _check_descending(gens)
        # for 0 < b < a, b % a == 0 is impossible: test a % b only
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                if a % b == 0:
                    raise UsageError("generators must form an antichain")

    @classmethod
    def _from_antichain(cls, gens: tuple) -> "Spectrum":
        """The Spectrum of gens, which the caller has proved pairwise
        non-dividing. Only positivity and strict descent are checked, in
        O(len); the quadratic antichain test of __post_init__ is skipped."""
        _check_descending(gens)
        out = object.__new__(cls)
        object.__setattr__(out, "generators", gens)
        return out

    def contains(self, a: int) -> bool:
        return any(g % a == 0 for g in self.generators)

    def __contains__(self, a: int) -> bool:
        return self.contains(a)

    def all_values(self) -> set:
        """Materialized divisor closure. Only sane for small generators."""
        out: set = set()
        for g in self.generators:
            out |= divisors(g)
        return out

    def union(self, other: "Spectrum") -> "Spectrum":
        return normalize(self.generators + other.generators)

    def restrict_coprime_to(self, p: int) -> "Spectrum":
        """Sub-spectrum of values coprime to p."""
        return normalize([g // r_part(g, p) for g in self.generators])

    def __iter__(self):
        return iter(self.generators)

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.generators) + "}"


def _check_descending(gens: tuple) -> None:
    if any(g < 1 for g in gens):
        raise UsageError("generators must be positive")
    if any(a <= b for a, b in zip(gens, gens[1:])):
        raise UsageError("generators must be strictly descending")


class _Supported(int):
    """A spectrum candidate that carries its support: the bitmask of the
    elements of a base (see _coprime_base) it shares a factor with.

    Compares, hashes and sorts as the plain int. int subclasses cannot take
    __slots__, so the mask sits in the instance dict.
    """


def _supported(value: int, support: int) -> _Supported:
    out = _Supported(value)
    out.support = support
    return out


def normalize(values) -> Spectrum:
    """Antichain of maximal elements of the input under divisibility.

    Scans the distinct values in descending order and keeps each one that
    divides no value kept so far. When every value carries its support (a
    _Supported), v is tested only against the kept values whose support
    holds all of v's: if v | w, each base element sharing a factor with v
    shares one with w. Plain values are tested against every kept value.
    Either way the smallest kept values are tried first, and the kept values
    form an antichain by construction, so the result skips Spectrum's
    pairwise check.
    """
    vals = sorted(set(values), reverse=True)
    if vals and vals[-1] < 1:
        raise UsageError("spectrum values must be positive")
    if vals and type(vals[0]) is _Supported and all(type(v) is _Supported for v in vals):
        return Spectrum._from_antichain(tuple(int(v) for v in _indexed_scan(vals)))
    kept = []
    for v in map(int, vals):
        # the likeliest multiples of v
        for w in reversed(kept):
            if w % v == 0:
                break
        else:
            kept.append(v)
    return Spectrum._from_antichain(tuple(kept))


def _indexed_scan(vals: list) -> list:
    """The values of vals (descending, each a _Supported) that divide no
    larger one. buckets maps each support bit i to the bitset of the indices
    in kept of the kept values that have bit i.

    Both loops start from the top bit. The high support bits stand for the
    primes of high order, which few values have, so the candidate set is
    small after the first AND and often empty before the last. The high
    candidate bits are the smallest kept values, the likeliest multiples.
    """
    kept: list = []
    buckets: dict = {}
    for v in vals:
        s = v.support
        cand = (1 << len(kept)) - 1
        while s and cand:
            i = s.bit_length() - 1
            cand &= buckets.get(i, 0)
            s ^= 1 << i
        while cand:
            i = cand.bit_length() - 1
            if kept[i] % v == 0:
                break
            cand ^= 1 << i
        else:
            bit = 1 << len(kept)
            kept.append(v)
            s = v.support
            while s:
                i = s.bit_length() - 1
                buckets[i] = buckets.get(i, 0) | bit
                s ^= 1 << i
    return kept


def _coprime_base(p: int, q: int, top: int) -> tuple:
    """p, then for each e <= top the part of Phi_e(q) prime to e, where that
    part is not 1. The elements are pairwise coprime; building them factors
    nothing.

    A prime r != p of multiplicative order e modulo q divides Phi_e(q) and
    not e, since e | r - 1; a prime of Phi_e(q) that does not divide e has
    order exactly e. So the part of Phi_e(q) prime to e holds exactly the
    primes of order e (Zsigmondy's primitive prime divisors), and every
    prime of p^t (q^j - 1) with j <= top lies in exactly one base element.
    """
    base = [p]
    for e, x in enumerate(cyclotomic_values(q, top), 1):
        g = math.gcd(x, e)
        while g > 1:
            x //= g
            g = math.gcd(x, g)
        if x > 1:
            base.append(x)
    return tuple(base)


def _support(x: int, base: tuple) -> int:
    """Bitmask of the elements of base that share a factor with x."""
    out = 0
    for i, b in enumerate(base):
        if math.gcd(x, b) > 1:
            out |= 1 << i
    return out


def divisors(n: int) -> set:
    out = {1}
    for prime, e in factorize(n):
        out = {d * prime ** k for d in out for k in range(e + 1)}
    return out


def _partitions(n: int, max_part: int | None = None):
    """Non-increasing integer partitions of n."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# The most lcm values the table of one closed form may make, repeats counted,
# before the call is refused. PSL_70(3) makes 325,462 and Sp_56(3) 45,201;
# the count doubles about every 8 added to n for PSL, every 4 for Sp.
TABLE_LIMIT = 400_000


class TableBoundError(BoundError):
    """A closed form whose lcm table would make more than TABLE_LIMIT values."""

    def __init__(self, n: int):
        super().__init__(f"the closed-form lcm table for n = {n} passes its "
                         f"bound of {TABLE_LIMIT} values")


def _check_table_size(n: int) -> None:
    """Refuse, before its base or any term is built, an n whose table must
    pass TABLE_LIMIT. Every cell holds a value after the layer j = 1, so
    each layer j >= 2 makes at least one value for each pair (m, c) with
    c*j <= m <= n: for each c, n - c*j + 1 of them. The sum stops at the
    limit, after one term for a large n."""
    floor = 0
    for j in range(2, n + 1):
        k = n // j
        floor += k * (n + 1) - j * k * (k + 1) // 2
        if floor > TABLE_LIMIT:
            raise TableBoundError(n)


def _lcm_table(n: int, cap: int, choices, supports: dict | None = None) -> list:
    """Sets of lcm values over all partitions of every m <= n, by class.

    cells[m] maps (number of parts capped at cap, parity of the -1 signs) to the
    set of lcm values over the partitions of m in that class. choices(j, c)
    lists the (term, support, parities) a part j taken c times may contribute.
    The table is filled layer by layer over the part size j; m runs
    downwards, so the cells read at m - c*j still hold the partitions into
    parts below j. Given supports, a dict from value to support that starts
    as {1: 0}, the table enters the support of every value it makes: the
    support of lcm(v, term) is the union of theirs, so no gcd is needed.
    Raises TableBoundError once the values made, counted per cell update and
    compared once per cell, pass TABLE_LIMIT.
    """
    cells: list = [{} for _ in range(n + 1)]
    cells[0][(0, 0)] = {1}
    made = 0
    for j in range(1, n + 1):
        opts = [choices(j, c) for c in range(1, n // j + 1)]
        for m in range(n, j - 1, -1):
            cell = cells[m]
            for c in range(1, m // j + 1):
                choice = opts[c - 1]
                for (parts, parity), vals in cells[m - c * j].items():
                    capped = parts + c if parts + c < cap else cap
                    for term, support, parities in choice:
                        if supports is None:
                            new = {math.lcm(v, term) for v in vals}
                        else:
                            new = {math.lcm(v, term): supports[v] | support for v in vals}
                            supports.update(new)
                        for extra in parities:
                            cell.setdefault((capped, parity ^ extra), set()).update(new)
                        made += len(new)
            if made > TABLE_LIMIT:
                raise TableBoundError(n)
    return cells


def _signed_choices(q: int, base: tuple, track_parity: bool):
    """Sign choices for a part j of multiplicity c, each term q^j - 1 or q^j + 1.

    All c signs +1 give q^j - 1 (parity 0); all -1 give q^j + 1 (parity c mod 2);
    both signs, when c >= 2, give their lcm with parity 1 if c = 2 and either
    parity otherwise. Without track_parity every choice has parity 0. The
    supports of the two terms are found once per j.
    """
    supports: dict = {}

    def choices(j: int, c: int):
        plus, minus = q ** j - 1, q ** j + 1
        if j not in supports:
            supports[j] = (_support(plus, base), _support(minus, base)) if base else (0, 0)
        sp, sm = supports[j]
        opts = [(plus, sp, (0,)), (minus, sm, (c % 2,))]
        if c >= 2:
            opts.append((math.lcm(plus, minus), sp | sm, (1,) if c == 2 else (0, 1)))
        return opts if track_parity else [(term, sup, (0,)) for term, sup, _ in opts]
    return choices


# The n from which the index of normalize saves more than the base and the
# supports cost, by table. Measured against the plain scan for q in {3, 7, 25}
# on a 2-core 2.0 GHz VM: the signed symplectic table grows fastest with n,
# the linear one slowest.
_INDEX_FROM_N = {"linear": 24, "symplectic": 13, "orthogonal": 17}


def _index_base(spec: GroupSpec, table: str) -> tuple:
    """The coprime base that indexes spec's candidates, or () below the
    table's _INDEX_FROM_N.

    Every candidate divides p^t times an lcm of terms q^j -+ 1 with j <= n,
    so its primes other than p have order at most 2n modulo q.
    """
    if spec.n < _INDEX_FROM_N[table]:
        return ()
    return _coprime_base(spec.p, spec.q, 2 * spec.n)


def _sorted_items(items: dict, base: tuple, supports: dict | None) -> dict:
    """Each kind's values as a sorted, duplicate-free list. With a base they
    are _Supported, their supports read from supports or, for the few values
    built with a division, found by gcd."""
    if not base:
        return {kind: sorted(set(vals)) for kind, vals in items.items()}
    out = {}
    for kind, vals in items.items():
        vals = sorted(set(vals))
        for v in vals:
            if v not in supports:
                supports[v] = _support(v, base)
        out[kind] = [_supported(v, supports[v]) for v in vals]
    return out


# ---------------------------------------------------------------------------
# linear and unitary groups


def spectrum_linear_items(spec: GroupSpec) -> dict:
    """Generator candidates of spectrum_linear, keyed by construction kind.

    Each kind's list is sorted and duplicate-free. The torus kinds are lcms of
    q^k - eps^k over the parts of a partition of n (one part, two parts, three
    or more); the unipotent kinds are p^t times such an lcm over a partition of
    n1 = n - p^(t-1) - 1 (one part, two or more), or a bare p-power. One lcm
    table over 0..n serves many_part_torus and every unipotent level t. From
    n = _INDEX_FROM_N on, every value carries its support (a _Supported).
    Debug/test accessor.
    """
    if spec.family not in ("PSL", "PGL"):
        raise UsageError("spectrum_linear covers PSL and PGL only")
    _check_table_size(spec.n)
    n, p, q, eps = spec.n, spec.p, spec.q, spec.eps
    d = math.gcd(n, q - eps) if spec.family == "PSL" else 1
    base = _index_base(spec, "linear")
    supports = {1: 0} if base else None

    def term(k: int) -> int:
        return q ** k - eps ** k

    # built as the table reaches part size j: a refused table pays only for
    # the part sizes it reached
    opts: dict = {}

    def choices(j: int, c: int) -> tuple:
        if j not in opts:
            opts[j] = ((term(j), _support(term(j), base), (0,)),)
        return opts[j]

    items: dict = {k: [] for k in ("torus", "two_part_torus", "many_part_torus",
                                   "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"].append(term(n) // ((q - eps) * d))
    for n1 in range(1, n // 2 + 1):
        n2 = n - n1
        div = math.gcd(n // math.gcd(n1, n2), d)
        items["two_part_torus"].append(lcm_list([term(n1), term(n2)]) // div)
    cells = _lcm_table(n, 3, choices, supports)
    items["many_part_torus"] += cells[n].get((3, 0), ())
    pt, t = 1, 1  # pt = p^(t-1)
    while pt + 2 <= n:
        n1 = n - pt - 1
        items["unipotent_torus"].append(p ** t * term(n1) // d)
        for parts in (2, 3):
            many = cells[n1].get((parts, 0), ())
            items["unipotent_many"] += [p ** t * v for v in many]
            if supports is not None:
                # bit 0 is p
                supports.update({p ** t * v: supports[v] | 1 for v in many})
        pt *= p
        t += 1
    # p^t occurs exactly when the dimension is p^(t-1) + 1
    s = p_power_exponent(n - 1, p)
    if s is not None:
        items["unipotent"].append(p ** (s + 1))
    return _sorted_items(items, base, supports)


@lru_cache(maxsize=4096)
def spectrum_linear(spec: GroupSpec) -> Spectrum:
    """Spectrum of PSL_n^eps(q) or PGL_n^eps(q)."""
    items = spectrum_linear_items(spec)
    return normalize([v for vals in items.values() for v in vals])


# ---------------------------------------------------------------------------
# symplectic and odd orthogonal groups


def _symplectic_constants(spec: GroupSpec):
    if spec.family == "Sp":
        return 1, 1
    if spec.family == "PSp":
        return 2, 1
    if spec.family == "OmegaOdd":
        return (2, 2) if spec.n >= 3 else (2, 1)
    raise UsageError("spectrum_symplectic covers Sp, PSp and OmegaOdd only")


def spectrum_symplectic_items(spec: GroupSpec) -> dict:
    """Generator candidates of spectrum_symplectic, keyed by construction kind.

    Each kind's list is sorted and duplicate-free. The torus kinds are lcms of
    q^k - 1 or q^k + 1 over the parts of a partition of n, each part taking
    either term or, when repeated, both (one part, two or more); the unipotent
    kinds are p^t times such an lcm over a partition of n1 = n - (p^(t-1) + 1)/2,
    or 2 p^t. One lcm table over 0..n serves many_part_torus and every
    unipotent level t. From n = _INDEX_FROM_N on, every value carries its
    support (a _Supported).
    """
    d, c = _symplectic_constants(spec)
    _check_table_size(spec.n)
    n, p, q = spec.n, spec.p, spec.q
    base = _index_base(spec, "symplectic")
    supports = {1: 0} if base else None

    items: dict = {k: [] for k in ("torus", "many_part_torus",
                                   "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"] += [(q ** n - 1) // d, (q ** n + 1) // d]
    cells = _lcm_table(n, 2, _signed_choices(q, base, track_parity=False), supports)
    items["many_part_torus"] += cells[n].get((2, 0), ())
    pt, t = 1, 1
    while True:
        n1 = n - (pt + 1) // 2
        if n1 < 1:
            break
        items["unipotent_torus"] += [p ** t * (q ** n1 - 1) // c,
                                     p ** t * (q ** n1 + 1) // c]
        many = cells[n1].get((2, 0), ())
        items["unipotent_many"] += [p ** t * v for v in many]
        if supports is not None:
            # bit 0 is p
            supports.update({p ** t * v: supports[v] | 1 for v in many})
        pt *= p
        t += 1
    # 2 p^t present exactly when the dimension 2n is p^(t-1) + 1
    s = p_power_exponent(2 * n - 1, p)
    if s is not None:
        items["unipotent"].append(2 * p ** (s + 1) // d)
    return _sorted_items(items, base, supports)


@lru_cache(maxsize=4096)
def spectrum_symplectic(spec: GroupSpec) -> Spectrum:
    """Spectrum of Sp_2n(q), PSp_2n(q) or Omega_{2n+1}(q)."""
    items = spectrum_symplectic_items(spec)
    return normalize([v for vals in items.values() for v in vals])


# ---------------------------------------------------------------------------
# even orthogonal groups, semisimple part


def spectrum_orthogonal_semisimple_items(spec: GroupSpec) -> dict:
    """Generator candidates of spectrum_orthogonal_semisimple, keyed by kind.

    Each kind's list is sorted and duplicate-free. many_part_torus holds the
    lcms of q^k - 1 or q^k + 1 over partitions of n into two or more parts
    (OmegaEven) or three or more (POmegaEven), each part taking either term or,
    when repeated, both, with the number of -1 signs even for eps = +1 and odd
    for eps = -1. From n = _INDEX_FROM_N on, every value carries its support
    (a _Supported).
    """
    if spec.family not in ("OmegaEven", "POmegaEven"):
        raise UsageError("spectrum_orthogonal_semisimple covers OmegaEven and POmegaEven")
    _check_table_size(spec.n)
    n, q, eps = spec.n, spec.q, spec.eps
    target = 0 if eps == 1 else 1
    base = _index_base(spec, "orthogonal")
    supports = {1: 0} if base else None

    items: dict = {k: [] for k in ("torus", "two_part_torus", "many_part_torus")}
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
    cells = _lcm_table(n, min_parts, _signed_choices(q, base, track_parity=True), supports)
    items["many_part_torus"] += cells[n].get((min_parts, target), ())
    return _sorted_items(items, base, supports)


@lru_cache(maxsize=4096)
def spectrum_orthogonal_semisimple(spec: GroupSpec) -> Spectrum:
    """p'-part of the spectrum of Omega_2n^eps(q) or POmega_2n^eps(q)."""
    items = spectrum_orthogonal_semisimple_items(spec)
    return normalize([v for vals in items.values() for v in vals])


def spectrum(spec: GroupSpec) -> Spectrum:
    """Closed-form spectrum of any GroupSpec; the p'-part for OmegaEven and
    POmegaEven."""
    # module-global lookups, so that a rebound spectrum_* is the one called
    if spec.family in ("PSL", "PGL"):
        return spectrum_linear(spec)
    if spec.family in ("Sp", "PSp", "OmegaOdd"):
        return spectrum_symplectic(spec)
    return spectrum_orthogonal_semisimple(spec)


def check_2adj(n: int, q: int, eps: int) -> bool:
    """Whether q^(n/2) + eps^(n/2) is an element order of PSL_n^eps(q), n even.

    Holds exactly when (n)_2 > (q - eps)_2.
    """
    if n < 4 or n % 2 != 0:
        raise UsageError("check_2adj needs even n >= 4")
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    return two_part(n) > two_part(q - eps)
