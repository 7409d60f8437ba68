"""Closed-form element-order spectra of the odd-characteristic classical groups.

A spectrum is stored by its maximal elements under divisibility (an antichain,
kept in descending order). The closed forms cover:

  spectrum_linear                  PSL_n^eps(q) and PGL_n^eps(q), eps = +1 linear, -1 unitary
  spectrum_symplectic              Sp_2n(q), PSp_2n(q), Omega_{2n+1}(q)
  spectrum_orthogonal_semisimple   p'-part of Omega_2n^eps(q) and POmega_2n^eps(q)

q = p^m is always odd here; even q is rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import UsageError, factorize, is_prime, lcm_list, two_part

FAMILIES = (
    "PSL", "PGL", "SL",
    "Sp", "PSp", "OmegaOdd",
    "OmegaEven", "POmegaEven",
)

# families where eps distinguishes a twisted form
_EPS_FAMILIES = ("PSL", "PGL", "SL", "OmegaEven", "POmegaEven")


@dataclass(frozen=True)
class GroupSpec:
    """A classical group: family symbol, rank parameter n, field q = p^m, sign eps.

    n is the subscript index of the family symbol: PSL_n, Sp_2n, Omega_{2n+1},
    Omega_2n^eps. The matrix dimension therefore differs by family.
    """

    family: str
    n: int
    p: int
    m: int
    eps: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.p == 2 or not is_prime(self.p):
            raise UsageError("characteristic must be an odd prime")
        if self.m < 1:
            raise UsageError("field exponent m must be positive")
        if self.eps not in (1, -1):
            raise UsageError("eps must be +1 or -1")
        if self.family not in _EPS_FAMILIES and self.eps != 1:
            raise UsageError(f"{self.family} takes no sign")
        min_n = {"PSL": 2, "PGL": 2, "SL": 2, "Sp": 1, "PSp": 1,
                 "OmegaOdd": 1, "OmegaEven": 2, "POmegaEven": 2}[self.family]
        if self.n < min_n:
            raise UsageError(f"{self.family} needs n >= {min_n}")

    @property
    def q(self) -> int:
        return self.p ** self.m

    @classmethod
    def from_q(cls, family: str, n: int, q: int, eps: int = 1) -> "GroupSpec":
        fact = factorize(q)
        if len(fact.pairs) != 1:
            raise UsageError(f"q = {q} is not a prime power")
        p, m = fact.pairs[0]
        return cls(family, n, p, m, eps)

    @property
    def dimension(self) -> int:
        """Matrix dimension of the natural module."""
        if self.family in ("PSL", "PGL", "SL"):
            return self.n
        if self.family in ("Sp", "PSp", "OmegaEven", "POmegaEven"):
            return 2 * self.n
        return 2 * self.n + 1

    def __str__(self):
        if self.family in ("PSL", "PGL", "SL"):
            twist = "U" if self.eps == -1 else "L"
            return f"{self.family[:-1]}{twist}_{self.n}({self.q})"
        if self.family in ("OmegaEven", "POmegaEven"):
            sign = "+" if self.eps == 1 else "-"
            prefix = "POmega" if self.family == "POmegaEven" else "Omega"
            return f"{prefix}{sign}_{2 * self.n}({self.q})"
        if self.family == "OmegaOdd":
            return f"Omega_{2 * self.n + 1}({self.q})"
        return f"{self.family}_{2 * self.n}({self.q})"


@dataclass(frozen=True)
class Spectrum:
    """Divisor-closed set of positive integers, held as its maximal elements.

    generators are strictly descending and pairwise non-dividing.
    """

    generators: tuple

    def __post_init__(self):
        gens = self.generators
        if list(gens) != sorted(gens, reverse=True):
            raise UsageError("generators must be strictly descending")
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                if b % a == 0 or a % b == 0:
                    raise UsageError("generators must form an antichain")
        if any(g < 1 for g in gens):
            raise UsageError("generators must be positive")

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
        gens = []
        for g in self.generators:
            while g % p == 0:
                g //= p
            gens.append(g)
        return normalize(gens)

    def __iter__(self):
        return iter(self.generators)

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.generators) + "}"


def normalize(values) -> Spectrum:
    """Antichain of maximal elements of the input under divisibility."""
    vals = sorted(set(int(v) for v in values), reverse=True)
    if any(v < 1 for v in vals):
        raise UsageError("spectrum values must be positive")
    kept = []
    for v in vals:
        if not any(w % v == 0 for w in kept):
            kept.append(v)
    return Spectrum(tuple(kept))


def contains(spectrum: Spectrum, a: int) -> bool:
    return spectrum.contains(a)


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


def _signed_lcms(parts, target_parity: int | None):
    """All lcm values of {q-power +/- 1 terms} over sign assignments to parts.

    parts is a list of (term_minus, term_plus, multiplicity) per distinct part,
    where term_minus stands for sign -1 (value base^k + 1) and term_plus for
    sign +1 (value base^k - 1). target_parity, when given, constrains the
    number of -1 signs mod 2. Returns a set of lcm values.
    """
    choices_per_part = []
    for term_minus, term_plus, mult in parts:
        opts = [((term_plus,), frozenset([0]))]          # all signs +1
        opts.append(((term_minus,), frozenset([mult % 2])))  # all signs -1
        if mult >= 2:
            parities = frozenset([1]) if mult == 2 else frozenset([0, 1])
            opts.append(((term_minus, term_plus), parities))
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


def _distinct_with_mult(partition):
    seen = {}
    for part in partition:
        seen[part] = seen.get(part, 0) + 1
    return sorted(seen.items(), reverse=True)


# ---------------------------------------------------------------------------
# linear and unitary groups


def spectrum_linear_items(spec: GroupSpec) -> dict:
    """Raw generator lists, keyed by construction kind. Debug/test accessor."""
    if spec.family not in ("PSL", "PGL"):
        raise UsageError("spectrum_linear covers PSL and PGL only")
    n, p, q, eps = spec.n, spec.p, spec.q, spec.eps
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
    for part in _partitions(n):
        if len(part) >= 3:
            items["many_part_torus"].append(lcm_list([term(k) for k in part]))
    pt, t = 1, 1  # pt = p^(t-1)
    while pt + 2 <= n:
        n1 = n - pt - 1
        items["unipotent_torus"].append(p ** t * term(n1) // d)
        for part in _partitions(n1):
            if len(part) >= 2:
                items["unipotent_many"].append(p ** t * lcm_list([term(k) for k in part]))
        pt *= p
        t += 1
    # p^t occurs exactly when the dimension is p^(t-1) + 1
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
    n, p, q = spec.n, spec.p, spec.q
    d, c = _symplectic_constants(spec)

    items: dict = {k: [] for k in ("torus", "many_part_torus",
                                   "unipotent_torus", "unipotent_many", "unipotent")}
    items["torus"] += [(q ** n - 1) // d, (q ** n + 1) // d]
    for part in _partitions(n):
        if len(part) >= 2:
            dist = [(q ** k + 1, q ** k - 1, mult) for k, mult in _distinct_with_mult(part)]
            items["many_part_torus"] += sorted(_signed_lcms(dist, None))
    pt, t = 1, 1
    while True:
        n1 = n - (pt + 1) // 2
        if n1 < 1:
            break
        items["unipotent_torus"] += [p ** t * (q ** n1 - 1) // c,
                                     p ** t * (q ** n1 + 1) // c]
        for part in _partitions(n1):
            if len(part) >= 2:
                dist = [(q ** k + 1, q ** k - 1, mult) for k, mult in _distinct_with_mult(part)]
                items["unipotent_many"] += [p ** t * v for v in sorted(_signed_lcms(dist, None))]
        pt *= p
        t += 1
    # 2 p^t present exactly when the dimension 2n is p^(t-1) + 1
    e, x = 0, 2 * n - 1
    while x % p == 0:
        x //= p
        e += 1
    if x == 1:
        items["unipotent"].append(2 * p ** (e + 1) // d)
    return items


@lru_cache(maxsize=4096)
def spectrum_symplectic(spec: GroupSpec) -> Spectrum:
    """Spectrum of Sp_2n(q), PSp_2n(q) or Omega_{2n+1}(q)."""
    items = spectrum_symplectic_items(spec)
    return normalize([v for vals in items.values() for v in vals])


# ---------------------------------------------------------------------------
# even orthogonal groups, semisimple part


def spectrum_orthogonal_semisimple_items(spec: GroupSpec) -> dict:
    if spec.family not in ("OmegaEven", "POmegaEven"):
        raise UsageError("spectrum_orthogonal_semisimple covers OmegaEven and POmegaEven")
    n, q, eps = spec.n, spec.q, spec.eps
    target = 0 if eps == 1 else 1

    items: dict = {k: [] for k in ("torus", "two_part_torus", "many_part_torus")}
    if spec.family == "OmegaEven":
        items["torus"].append((q ** n - eps) // 2)
        for part in _partitions(n):
            if len(part) >= 2:
                dist = [(q ** k + 1, q ** k - 1, mult) for k, mult in _distinct_with_mult(part)]
                items["many_part_torus"] += sorted(_signed_lcms(dist, target))
    else:
        items["torus"].append((q ** n - eps) // math.gcd(4, q ** n - eps))
        for n1 in range(1, n):
            n2 = n - n1
            for kappa in (1, -1):
                a = q ** n1 - kappa
                b = q ** n2 - eps * kappa
                e = 2 if two_part(a) == two_part(b) else 1
                items["two_part_torus"].append(lcm_list([a, b]) // e)
        for part in _partitions(n):
            if len(part) >= 3:
                dist = [(q ** k + 1, q ** k - 1, mult) for k, mult in _distinct_with_mult(part)]
                items["many_part_torus"] += sorted(_signed_lcms(dist, target))
    return items


@lru_cache(maxsize=4096)
def spectrum_orthogonal_semisimple(spec: GroupSpec) -> Spectrum:
    """p'-part of the spectrum of Omega_2n^eps(q) or POmega_2n^eps(q)."""
    items = spectrum_orthogonal_semisimple_items(spec)
    return normalize([v for vals in items.values() for v in vals])


def check_2adj(n: int, q: int, eps: int) -> bool:
    """Whether q^(n/2) + eps^(n/2) is an element order of PSL_n^eps(q), n even.

    Holds exactly when (n)_2 > (q - eps)_2.
    """
    if n < 4 or n % 2 != 0:
        raise UsageError("check_2adj needs even n >= 4")
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    return two_part(n) > two_part(q - eps)
