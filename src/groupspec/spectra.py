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
# before the call is refused. PSL_79(3) makes 390,692 and Sp_94(3) 358,817,
# the largest over F_3 that answer; the count doubles about every 8 added to
# n for PSL, a little over every 4 for Sp.
TABLE_LIMIT = 400_000


class TableBoundError(BoundError):
    """A closed form whose lcm table would make more than TABLE_LIMIT values.

    group names what the table is of. _check_table_size and _lcm_table know
    only n and raise it without one; _table raises it again with the spec.
    """

    hint = "no closed form is computed at this size, and no flag raises the bound"

    def __init__(self, group=None):
        self.group = group
        of = "" if group is None else f" of {group}"
        super().__init__(f"the closed-form lcm table{of} passes its "
                         f"bound of {TABLE_LIMIT} values")


# the least n that _check_table_size refuses
_FLOOR_REFUSES_FROM = 247


def _check_table_size(n: int) -> None:
    """Refuse, before its base or any term is built, an n whose table must
    pass TABLE_LIMIT. The floor counts distinct values, a floor to the count
    per class, that the first pass over j of _lcm_table makes at each m with
    t_j = q^j - e^j, the first term of steps(j) (e = eps, or 1 if signed).
    cells[m - j] then holds, all signs +, every partition of r = m - j into
    distinct parts below j.

    q is odd, so by Zsigmondy each i >= 3 has a prime r_i that divides t_a
    exactly when i | a: one of order i modulo e*q (for e = -1, of order 2i,
    i/2 or i modulo q). Let I = {i : lo <= i < j} with lo = max(3, j//2 + 1).
    An i in I divides neither j nor any part below j but itself, as j/2 < i,
    so r_i divides lcm(t_j, t_mu) exactly when i is a part of mu: the
    partitions mu with no part in I, and for each i in I those whose one
    part in I is i, give different values. The other parts of mu are
    distinct parts from 1..k, k = min(lo, j) - 1, whose sums are exactly
    0..w with w = k(k+1)/2. So the step (j, m) makes at least [r <= w] +
    #{i in I : r - w <= i <= r} values, and summed over m <= n the floor
    adds min(w, n - j) + 1 and, per i in I with i <= n - j,
    min(i + w, n - j) - i + 1. It refuses every n from 247, by j = 247 at
    the latest (j = 71 once n is large), so its cost does not grow with n.
    Each of these terms grows with n and n adds terms, so the floor never
    falls as n grows: no n below _FLOOR_REFUSES_FROM = 247, the first n it
    refuses, needs the loop."""
    if n < _FLOOR_REFUSES_FROM:
        return
    floor = 0
    for j in range(1, n + 1):
        top = n - j
        lo = max(3, j // 2 + 1)
        k = min(lo, j) - 1
        w = k * (k + 1) // 2
        floor += min(w, top) + 1
        for i in range(lo, min(j, top + 1)):
            floor += min(i + w, top) - i + 1
        if floor > TABLE_LIMIT:
            raise TableBoundError


def _lcm_table(n: int, cap: int, steps, supports: dict | None = None) -> list:
    """Sets of lcm values over the partitions of every m <= n that hold each
    part at most once per flip, by class.

    cells[m] maps (number of parts capped at cap, parity of the flips) to the
    set of lcm values over those partitions of m in that class. steps(j)
    lists the (term, support, flip) one copy of a part j may take, flip being
    its parity. The table is filled layer by layer over the part size j, one
    0/1 knapsack pass per flip f of steps(j): m runs downwards, so
    cells[m - j] does not yet hold the copy of j this pass adds, and that
    copy takes one of the terms of flip f. A later pass over j reads the
    copies an earlier one added, so j may occur once per flip. Given
    supports, a dict from value to support that starts as {1: 0}, the table
    enters the support of every value it makes: the support of lcm(v, term)
    is the union of theirs, so no gcd is needed. Raises TableBoundError once
    the values made, counted per class and term and compared once per cell,
    pass TABLE_LIMIT.

    Merge. When every term of steps(j) divides the flip-0 term of
    steps(2j), two copies of j with the same flip f merge into one copy of
    2j with flip 0. The lcm keeps or grows, since it divides the new term;
    the parity is kept, as f + f is even; the number of parts falls by one.
    Merging while some (j, f) repeats takes every partition of m, with one
    term per copy, to a partition in the table whose lcm it divides. A
    caller reads at m the classes of at least c parts, and a merge leaves
    them only from a partition of exactly c parts with a repeated (j, f):
    each caller proves what those boundary partitions give.
    """
    lcm = math.lcm
    cells: list = [{} for _ in range(n + 1)]
    cells[0][(0, 0)] = {1}
    made = 0
    for j in range(1, n + 1):
        step = steps(j)
        for flip in sorted({f for _, _, f in step}):
            terms = [(term, support) for term, support, f in step if f == flip]
            for m in range(n, j - 1, -1):
                cell = cells[m]
                for (parts, parity), vals in cells[m - j].items():
                    key = (parts + 1 if parts < cap else cap, parity ^ flip)
                    for term, support in terms:
                        if supports is None:
                            new = {lcm(v, term) for v in vals}
                        else:
                            new = {lcm(v, term): supports[v] | support for v in vals}
                            supports.update(new)
                        old = cell.get(key)
                        if old is None:
                            cell[key] = set(new)
                        else:
                            old.update(new)
                        made += len(new)
                if made > TABLE_LIMIT:
                    raise TableBoundError
    return cells


def _linear_steps(q: int, eps: int, base: tuple):
    """One copy of a part j takes t_j = q^j - eps^j, which divides
    t_2j = q^2j - 1, so _lcm_table's merge holds: a part is taken once."""
    def steps(j: int) -> tuple:
        term = q ** j - eps ** j
        return ((term, _support(term, base), 0),)
    return steps


def _signed_steps(q: int, base: tuple, track_parity: bool):
    """One copy of a part j takes q^j - 1, or q^j + 1, which flips the
    parity when track_parity. Both divide q^2j - 1, the flip-0 term of 2j,
    so _lcm_table's merge holds: a part j is taken once with either sign, or
    with track_parity once per sign.
    """
    def steps(j: int) -> tuple:
        plus, minus = q ** j - 1, q ** j + 1
        return ((plus, _support(plus, base), 0), (minus, _support(minus, base), int(track_parity)))
    return steps


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


def _table(spec: GroupSpec, table: str, cap: int, steps) -> tuple:
    """(base, supports, cells) of spec's lcm table: the coprime base of
    _index_base, the supports the table fills (None without a base), and
    _lcm_table over 0..spec.n with the steps steps(base). A table past its
    bound raises a TableBoundError that names spec."""
    try:
        _check_table_size(spec.n)
        base = _index_base(spec, table)
        supports = {1: 0} if base else None
        return base, supports, _lcm_table(spec.n, cap, steps(base), supports)
    except TableBoundError:
        raise TableBoundError(spec) from None


def _sorted_items(items: dict, base: tuple, supports: dict | None) -> dict:
    """Each kind's values as a sorted, duplicate-free list. With a base they
    are _Supported, their supports read from supports or, for the few values
    built outside the table, found by gcd."""
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
    t_k = q^k - eps^k over the parts of a partition of n (one part, two parts,
    three or more); the unipotent kinds are p^t times such an lcm over a
    partition of n1 = n - p^(t-1) - 1 (one part, two or more), or a bare
    p-power. One lcm table over 0..n serves many_part_torus and every
    unipotent level t. From n = _INDEX_FROM_N on, every value carries its
    support (a _Supported). Debug/test accessor.

    The table takes each part once (_linear_steps), and its merge drops no
    maximal element once the boundary partitions are added back. At n, three
    or more parts, the boundary is (a, a, n - 2a), and many_part_torus adds
    lcm(t_a, t_n-2a). At n1, two or more parts, it is (a, a) with n1 = 2a,
    and unipotent_many adds p^t t_a. Neither need divide a two-part or
    unipotent torus value, which are divided by d.
    """
    if spec.family not in ("PSL", "PGL"):
        raise UsageError("spectrum_linear covers PSL and PGL only")
    n, p, q, eps = spec.n, spec.p, spec.q, spec.eps
    base, supports, cells = _table(spec, "linear", 3, lambda base: _linear_steps(q, eps, base))
    d = math.gcd(n, q - eps) if spec.family == "PSL" else 1

    def term(k: int) -> int:
        return q ** k - eps ** k

    items: dict = {k: [] for k in ("torus", "two_part_torus", "many_part_torus",
                                   "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"].append(term(n) // ((q - eps) * d))
    for n1 in range(1, n // 2 + 1):
        n2 = n - n1
        div = math.gcd(n // math.gcd(n1, n2), d)
        items["two_part_torus"].append(lcm_list([term(n1), term(n2)]) // div)
    items["many_part_torus"] += cells[n].get((3, 0), ())
    # the boundary partitions (a, a, n - 2a) and (a, a) of the merge
    items["many_part_torus"] += [math.lcm(term(a), term(n - 2 * a))
                                 for a in range(1, (n - 1) // 2 + 1)]
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
        if n1 % 2 == 0:
            items["unipotent_many"].append(p ** t * term(n1 // 2))
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
    q^k - 1 or q^k + 1 over the parts of a partition of n (one part, two or
    more); the unipotent kinds are p^t times such an lcm over a partition of
    n1 = n - (p^(t-1) + 1)/2, or 2 p^t. One lcm table over 0..n serves
    many_part_torus and every unipotent level t. From n = _INDEX_FROM_N on,
    every value carries its support (a _Supported).

    The table takes each part once, with either sign (_signed_steps), and
    its merge drops no maximal element. Its boundary at m, two or more
    parts, is (a, a) with m = 2a and any signs, whose lcm divides
    (q^2a - 1)/2: q^a -+ 1 times the even q^a +- 1 over 2, and for mixed
    signs the lcm itself, as gcd(q^a - 1, q^a + 1) = 2. (q^2a - 1)/2 divides
    the torus value (q^n - 1)/d at m = n and p^t (q^n1 - 1)/c at m = n1, as
    d, c <= 2. So nothing is added back.
    """
    d, c = _symplectic_constants(spec)
    n, p, q = spec.n, spec.p, spec.q
    base, supports, cells = _table(spec, "symplectic", 2,
                                   lambda base: _signed_steps(q, base, track_parity=False))

    items: dict = {k: [] for k in ("torus", "many_part_torus",
                                   "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"] += [(q ** n - 1) // d, (q ** n + 1) // d]
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
    (OmegaEven) or three or more (POmegaEven), each part taking either term,
    with the number of -1 signs even for eps = +1 and odd for eps = -1. From
    n = _INDEX_FROM_N on, every value carries its support (a _Supported).

    The table takes each part once per sign (_signed_steps with parity), so
    the mixed pair (a+, a-), whose parity is odd, is kept. Its merge drops no
    maximal element once the boundary partitions are added back. OmegaEven
    reads two or more parts: the boundary is (a s, a s) at n = 2a, of even
    parity, so eps = +1, and q^a - s divides the torus value (q^n - 1)/2. So
    nothing is added. POmegaEven reads three or more: the boundary is
    (a s, a s, b s') with 2a + b = n, where s' carries the target parity,
    so its term is q^b - eps, and many_part_torus adds lcm(q^a - s,
    q^b - eps) for both s.
    """
    if spec.family not in ("OmegaEven", "POmegaEven"):
        raise UsageError("spectrum_orthogonal_semisimple covers OmegaEven and POmegaEven")
    n, q, eps = spec.n, spec.q, spec.eps
    target = 0 if eps == 1 else 1
    min_parts = 2 if spec.family == "OmegaEven" else 3
    base, supports, cells = _table(spec, "orthogonal", min_parts,
                                   lambda base: _signed_steps(q, base, track_parity=True))

    items: dict = {k: [] for k in ("torus", "two_part_torus", "many_part_torus")}
    if spec.family == "OmegaEven":
        items["torus"].append((q ** n - eps) // 2)
    else:
        items["torus"].append((q ** n - eps) // math.gcd(4, q ** n - eps))
        for n1 in range(1, n):
            n2 = n - n1
            for kappa in (1, -1):
                a = q ** n1 - kappa
                b = q ** n2 - eps * kappa
                e = 2 if two_part(a) == two_part(b) else 1
                items["two_part_torus"].append(lcm_list([a, b]) // e)
        # the boundary partitions (a s, a s, n - 2a) of the merge
        items["many_part_torus"] += [math.lcm(q ** a - s, q ** (n - 2 * a) - eps)
                                     for a in range(1, (n - 1) // 2 + 1) for s in (1, -1)]
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
