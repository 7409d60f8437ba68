"""Closed-form element-order spectra of the odd-characteristic classical groups.

A spectrum is stored by its maximal elements under divisibility (an antichain,
kept in descending order). The closed forms cover:

  spectrum_linear                  PSL_n^eps(q) and PGL_n^eps(q), eps = +1 linear, -1 unitary
  spectrum_symplectic              Sp_2n(q), PSp_2n(q), Omega_{2n+1}(q)
  spectrum_orthogonal_semisimple   p'-part of Omega_2n^eps(q) and POmega_2n^eps(q)

and spectrum(spec) picks the one that covers spec's family. q = p^m is
always odd here; even q is rejected up front (arith.odd_prime_power).

Each closed form takes lcms of q^j -+ 1 over partitions. Which partitions
give which lcm does not depend on q, so the partitions are kept once per
process in three q-free part-set tables (_fill, _part_sets): linear,
symplectic and orthogonal. A call evaluates at its q only the cells it
reads (_table, _lcms). Each kind admits n up to _TABLE_MAX_N; a larger n
raises TableBoundError before anything is built.
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


# The most lcm values a closed form's table of values at one q may make,
# repeats counted. The part-set tables below do not depend on q, so they
# cannot count q's values: the bound is set as the largest n of each kind.
TABLE_LIMIT = 400_000

# The largest n each kind admits. A table of lcm values at one q, filled as
# _fill fills part sets, makes at most TABLE_LIMIT values at this n (counted
# per class and term) and more at n + 1, at every odd prime power q < 50, for
# both signs of the linear kind and for OmegaEven's and POmegaEven's classes
# of the orthogonal one. PSL_79(3) makes 390,692 values and Sp_94(3) 358,817.
_TABLE_MAX_N = {"linear": 79, "symplectic": 47, "orthogonal": 41}


class TableBoundError(BoundError):
    """A closed form whose n passes its kind's largest n, _TABLE_MAX_N: its
    lcm table would make more than TABLE_LIMIT values.

    group names what the table is of; _table raises it with the spec.
    """

    hint = "no closed form is computed at this size, and no flag raises the bound"

    def __init__(self, group=None):
        self.group = group
        of = "" if group is None else f" of {group}"
        super().__init__(f"the closed-form lcm table{of} passes its "
                         f"bound of {TABLE_LIMIT} values")


def _linear_parts(j: int) -> tuple:
    """The one element of a part j, as (bit, removed, flip): bit j - 1 for
    t_j = q^j - eps^j, and the bits of the parts a < j with a | j, whose t_a
    divides t_j for every q and eps: with Q = eps q, t_k = eps^k (Q^k - 1)."""
    removed = 0
    for a in range(1, j):
        if j % a == 0:
            removed |= 1 << (a - 1)
    return ((1 << (j - 1), removed, 0),)


def _signed_parts(j: int, minus_flip: int) -> tuple:
    """The two elements of a part j, as (bit, removed, flip): (j, +), bit
    2j - 2, for q^j - 1 with flip 0, and (j, -), bit 2j - 1, for q^j + 1 with
    flip minus_flip. Each removes the smaller elements whose term divides its
    own for every odd q:

      (a, +) under (j, +) when a | j, as q^a - 1 divides q^j - 1;
      (a, -) under (j, +) when 2a | j, as q^a + 1 divides q^2a - 1;
      (a, -) under (j, -) when j/a is odd, as x + 1 divides x^k + 1 for odd k.

    No (a, +) lies under (j, -): q - 1 divides q^j + 1 only for q = 3.
    """
    plus = minus = 0
    for a in range(1, j):
        if j % a == 0:
            plus |= 1 << (2 * a - 2)
            if (j // a) % 2:
                minus |= 1 << (2 * a - 1)
            else:
                plus |= 1 << (2 * a - 1)
    return ((1 << (2 * j - 2), plus, 0), (1 << (2 * j - 1), minus, minus_flip))


# (cap, parts) of each kind's table: linear and unitary; symplectic and odd
# orthogonal, a part once with either sign; even orthogonal, a part once per
# sign, the - sign flipping the parity (OmegaEven reads classes 2 and 3).
_KINDS = {"linear": (3, _linear_parts),
          "symplectic": (2, lambda j: _signed_parts(j, 0)),
          "orthogonal": (3, lambda j: _signed_parts(j, 1))}


def _fill(n: int, cap: int, parts) -> list:
    """Part sets over the partitions of every m <= n that hold each part at
    most once per flip, by class.

    An element is a part with a sign (one sign in the linear kind), and its
    term is q^j - eps^j, q^j - 1 or q^j + 1. parts(j) lists the (bit,
    removed, flip) of each element of a part j: removed holds the bits of the
    smaller elements whose term divides its own for every odd q (and eps),
    and flip is its parity. A part set is a bitmask of elements: adding an
    element ORs its bit into the set and clears the bits it removes.

    cells[m] maps (number of parts capped at cap, parity of the flips) to
    the tuple of part sets of those partitions of m in that class. The table
    is filled layer by layer over the part size j, one 0/1 knapsack pass per
    flip f of parts(j): m runs downwards, so cells[m - j] does not yet hold
    the copy of j this pass adds, and that copy takes one of the elements of
    flip f. A later pass over j reads the copies an earlier one added, so j
    may occur once per flip. Cell m is finished once the passes over j = m
    are, and is stored as tuples from then on; as the passes over j > m
    never write it, a table over 0..N holds the cells of every smaller one.

    Same values. "Term divides term for every odd q" is a partial order on
    the elements: an element lies under another only if its part is no
    larger, and neither element of one part lies under the other. The fill
    adds parts in increasing j, so the part set of a partition is the set of
    maximal elements of the elements it takes, and each element it drops
    divides the term of one it keeps. So at every q the lcm of a partition's
    terms is the lcm of its part set's terms, equal part sets give equal
    lcms, and the lcms at q of a class's part sets are exactly the lcm
    values of the partitions in that class.

    Merge. Every element of a part j lies under the flip-0 element of 2j
    (q^j - eps^j, q^j - 1 and q^j + 1 divide q^2j - 1), so two copies of j
    with the same flip f merge into one copy of 2j with flip 0. The lcm
    keeps or grows, since it divides the new term; the parity is kept, as
    f + f is even; the number of parts falls by one. Merging while some
    (j, f) repeats takes every partition of m, with one element per copy, to
    a partition in the table whose lcm it divides. A caller reads at m the
    classes of at least c parts, and a merge leaves them only from a
    partition of exactly c parts with a repeated (j, f): each caller proves
    what those boundary partitions give.
    """
    cells: list = [{} for _ in range(n + 1)]
    cells[0][(0, 0)] = (0,)
    for j in range(1, n + 1):
        step = parts(j)
        for flip in sorted({f for _, _, f in step}):
            adds = [(bit, ~removed) for bit, removed, f in step if f == flip]
            for m in range(n, j - 1, -1):
                cell = cells[m]
                for (count, parity), sets in cells[m - j].items():
                    key = (count + 1 if count < cap else cap, parity ^ flip)
                    old = cell.get(key)
                    if old is None:
                        old = cell[key] = set()
                    for bit, keep in adds:
                        old.update([s & keep | bit for s in sets])
        cells[j] = {key: tuple(sets) for key, sets in cells[j].items()}
    return cells


# each kind's part-set table over 0..N, N the largest n asked so far
_PART_SETS: dict = {}


def _part_sets(kind: str, n: int) -> list:
    """kind's part-set table over 0..N for some N >= n. It is filled once
    per process, and filled again over 0..n when a larger n asks; the
    smaller table is dropped first. At most _TABLE_MAX_N[kind] is asked.
    Two threads that grow it at once may both fill; each still gets a table
    over at least its own n."""
    cells = _PART_SETS.get(kind)
    if cells is None or len(cells) <= n:
        cells = _PART_SETS[kind] = None
        cap, parts = _KINDS[kind]
        cells = _PART_SETS[kind] = _fill(n, cap, parts)
    return cells


def _terms(kind: str, q: int, eps: int, n: int) -> list:
    """terms[b + 1] is the term at q of the element at bit b of kind's part
    sets, for every part j <= n: q^j - eps^j at bit j - 1 (linear), else
    q^j - 1 at bit 2j - 2 and q^j + 1 at bit 2j - 1. terms[0] is 1."""
    if kind == "linear":
        return [1] + [q ** j - eps ** j for j in range(1, n + 1)]
    terms = [1]
    for j in range(1, n + 1):
        x = q ** j
        terms += (x - 1, x + 1)
    return terms


def _lcms(masks, terms: list, term_supports: list | None, supports: dict | None,
          memo: dict) -> list:
    """The lcm of the terms of each part set of masks. memo maps part sets to
    their lcms and starts as {0: 1}: a part set's lcm is that of the part set
    without its top bit and the top bit's term, and the cells a closed form
    reads share most of these prefixes (PSL_79(3) reads 100,900 part sets,
    41,556 distinct, with 43,466 prefixes in all). With term_supports, the
    support of each new lcm, the OR of its terms' supports, goes into
    supports, which starts as {1: 0}."""
    lcm = math.lcm
    for mask in set(masks).difference(memo):
        tops = []
        rest = mask
        v = None
        while v is None:
            top = rest.bit_length()
            tops.append(top)
            rest ^= 1 << (top - 1)
            v = memo.get(rest)
        for top in reversed(tops):
            rest |= 1 << (top - 1)
            w = lcm(v, terms[top])
            if supports is not None:
                supports[w] = supports[v] | term_supports[top]
            memo[rest] = v = w
    return list(map(memo.__getitem__, masks))


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


def _table(spec: GroupSpec, kind: str) -> tuple:
    """(base, supports, cells, lcms) of spec's closed form: the coprime base
    of _index_base, the supports that lcms fills (None without a base),
    kind's part-set table (_part_sets) and lcms(masks), the lcms at spec's q
    and eps of the part sets masks (_lcms). The terms and their supports are
    built once per call. An n past the kind's largest raises a
    TableBoundError that names spec before any of these is built."""
    if spec.n > _TABLE_MAX_N[kind]:
        raise TableBoundError(spec)
    base = _index_base(spec, kind)
    terms = _terms(kind, spec.q, spec.eps, spec.n)
    term_supports = [_support(t, base) for t in terms] if base else None
    supports = {1: 0} if base else None
    memo = {0: 1}
    cells = _part_sets(kind, spec.n)
    return base, supports, cells, lambda masks: _lcms(masks, terms, term_supports, supports, memo)


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
    p-power. The linear part-set table serves many_part_torus and every
    unipotent level t, and only the cells read, at n and at each n1, are
    evaluated at q and eps. From n = _INDEX_FROM_N on, every value carries
    its support (a _Supported). Debug/test accessor.

    The table takes each part once (_linear_parts), and its merge drops no
    maximal element once the boundary partitions are added back. At n, three
    or more parts, the boundary is (a, a, n - 2a), and many_part_torus adds
    lcm(t_a, t_n-2a). At n1, two or more parts, it is (a, a) with n1 = 2a,
    and unipotent_many adds p^t t_a. Neither need divide a two-part or
    unipotent torus value, which are divided by d.
    """
    if spec.family not in ("PSL", "PGL"):
        raise UsageError("spectrum_linear covers PSL and PGL only")
    n, p, q, eps = spec.n, spec.p, spec.q, spec.eps
    base, supports, cells, lcms = _table(spec, "linear")
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
    items["many_part_torus"] += lcms(cells[n].get((3, 0), ()))
    # the boundary partitions (a, a, n - 2a) and (a, a) of the merge
    items["many_part_torus"] += [math.lcm(term(a), term(n - 2 * a))
                                 for a in range(1, (n - 1) // 2 + 1)]
    pt, t = 1, 1  # pt = p^(t-1)
    while pt + 2 <= n:
        n1 = n - pt - 1
        items["unipotent_torus"].append(p ** t * term(n1) // d)
        many = lcms(cells[n1].get((2, 0), ()) + cells[n1].get((3, 0), ()))
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
    n1 = n - (p^(t-1) + 1)/2, or 2 p^t. The symplectic part-set table serves
    many_part_torus and every unipotent level t, and only the cells read,
    at n and at each n1, are evaluated at q. From n = _INDEX_FROM_N on,
    every value carries its support (a _Supported).

    The table takes each part once, with either sign (_signed_parts), and
    its merge drops no maximal element. Its boundary at m, two or more
    parts, is (a, a) with m = 2a and any signs, whose lcm divides
    (q^2a - 1)/2: q^a -+ 1 times the even q^a +- 1 over 2, and for mixed
    signs the lcm itself, as gcd(q^a - 1, q^a + 1) = 2. (q^2a - 1)/2 divides
    the torus value (q^n - 1)/d at m = n and p^t (q^n1 - 1)/c at m = n1, as
    d, c <= 2. So nothing is added back.
    """
    d, c = _symplectic_constants(spec)
    n, p, q = spec.n, spec.p, spec.q
    base, supports, cells, lcms = _table(spec, "symplectic")

    items: dict = {k: [] for k in ("torus", "many_part_torus",
                                   "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"] += [(q ** n - 1) // d, (q ** n + 1) // d]
    items["many_part_torus"] += lcms(cells[n].get((2, 0), ()))
    pt, t = 1, 1
    while True:
        n1 = n - (pt + 1) // 2
        if n1 < 1:
            break
        items["unipotent_torus"] += [p ** t * (q ** n1 - 1) // c,
                                     p ** t * (q ** n1 + 1) // c]
        many = lcms(cells[n1].get((2, 0), ()))
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
    with the number of -1 signs even for eps = +1 and odd for eps = -1. The
    orthogonal part-set table counts parts up to 3, so OmegaEven reads its
    classes 2 and 3 at n, and POmegaEven class 3; only those are evaluated
    at q. From n = _INDEX_FROM_N on, every value carries its support (a
    _Supported).

    The table takes each part once per sign (_signed_parts with parity), so
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
    base, supports, cells, lcms = _table(spec, "orthogonal")

    items: dict = {k: [] for k in ("torus", "two_part_torus", "many_part_torus")}
    if spec.family == "OmegaEven":
        items["torus"].append((q ** n - eps) // 2)
        items["many_part_torus"] += lcms(cells[n].get((2, target), ()))
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
    items["many_part_torus"] += lcms(cells[n].get((3, target), ()))
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
