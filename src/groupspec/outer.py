"""Outer automorphism words of PSL_n^eps(q) and admissibility of cyclic extensions.

Out = <delta> x| (<phi> x <tau>) in the linear case, with delta^phi = delta^p and
delta^tau = delta^-1; in the unitary case tau = phi^m and phi has order 2m.
Elements are kept in the normal form phi^a tau^c delta^i (c = 0 for unitary),
and all arithmetic works on their keys (a, c, i): a mod A, with A = m (linear)
or 2m (unitary), c mod 2 and i mod d = gcd(n, q - eps). Moving delta^i to the
right past phi^b tau^e turns it into delta^(i p^b (-1)^e), so the one product
law, _key_mul, is

    (a, c, i) (b, e, j) = (a + b, c + e, (-1)^e p^b i + j).

p is a unit mod d whose order divides A (p^m = eps mod d), so p^b mod d is
read off one table per socle (_law). Conjugation by the generators fixes
(a, c) and moves i alone; from the law,

    phi^-1   (a, c, i) phi   = (a, c, p i),
    tau^-1   (a, c, i) tau   = (a, c, -i),
    delta^-1 (a, c, i) delta = (a, c, i + 1 - (-1)^c p^a),

the tau image holding on the unitary side too, where tau = phi^m and
p^m = -1 mod d.

An outer element alpha (more precisely the cyclic group it generates) is called
admissible when the extension of the socle L by alpha has the same set of
element orders as L itself. admissible_generators returns the maximal
admissible cyclic subgroups by their generators, and counts the admissible
subgroups, all subgroups of those, up to Out-conjugacy. A cyclic group <g> of
order k has exactly one subgroup of each order dividing k, and <g^e> has
order k/e, so its subgroups are the <g^e> with e | k; each is every e-th entry
of the one list g^0, ..., g^(k-1). The classes are the orbits of these key
sets under the three conjugations above, which generate Out's action.
"""

from __future__ import annotations

import functools
import math

from .arith import (Record, UsageError, co_pi_part, odd_part, p_power_exponent, pi_part,
                    two_part)
from .coset import TauCriterionResult, tau_criterion
from .spectra import GroupSpec

OUT_ENUM_BOUND = 10 ** 5

_SOCLE = ("eps", "n", "p", "m")


@functools.lru_cache(maxsize=1024)
def _law(eps: int, n: int, p: int, m: int) -> tuple:
    """(d, A, twists) for Out(PSL_n^eps(p^m)): d = gcd(n, q - eps), A the
    order of phi, twists[b % len(twists)] = p^b mod d over one period of p."""
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    d = math.gcd(n, p ** m - eps)
    twists = [1 % d]
    while (t := twists[-1] * p % d) != twists[0]:
        twists.append(t)
    return d, (m if eps == 1 else 2 * m), tuple(twists)


def _key_mul(law: tuple, x: tuple, y: tuple) -> tuple:
    """The product of two keys: the group law of Out."""
    d, order, twists = law
    a, c, i = x
    b, e, j = y
    i *= twists[b % len(twists)]
    return (a + b) % order, c ^ e, (j - i if e else j + i) % d


def _key_pow(law: tuple, x: tuple, k: int) -> tuple:
    out = (0, 0, 0)
    while k:
        if k & 1:
            out = _key_mul(law, out, x)
        x = _key_mul(law, x, x)
        k >>= 1
    return out


def _key_powers(law: tuple, x: tuple) -> list:
    """x^0, x^1, ..., x^(k-1), k the order of x, by successive products."""
    out, y = [(0, 0, 0)], x
    while y != (0, 0, 0):
        out.append(y)
        y = _key_mul(law, y, x)
    return out


def _conjugations(law: tuple, p: int) -> tuple:
    """The maps x -> g^-1 x g on keys for g = phi, tau, delta."""
    d, _, twists = law
    r = len(twists)

    def by_phi(x):
        return x[0], x[1], x[2] * p % d

    def by_tau(x):
        return x[0], x[1], -x[2] % d

    def by_delta(x):
        a, c, i = x
        t = twists[a % r]
        return a, c, (i + 1 + t if c else i + 1 - t) % d

    return by_phi, by_tau, by_delta


class OutElement(Record):
    """phi^a tau^c delta^i in Out(PSL_n^eps(q)), q = p^m."""

    __slots__ = _SOCLE + ("a", "c", "i")

    def __init__(self, eps: int, n: int, p: int, m: int, a: int, c: int = 0, i: int = 0):
        d, order, _ = _law(eps, n, p, m)
        c %= 2
        if eps == -1 and c:
            a, c = a + m, 0  # tau = phi^m on the unitary side
        set_ = object.__setattr__
        set_(self, "eps", eps)
        set_(self, "n", n)
        set_(self, "p", p)
        set_(self, "m", m)
        set_(self, "a", a % order)
        set_(self, "c", c)
        set_(self, "i", i % d)

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def d(self) -> int:
        return self._law()[0]

    def _law(self) -> tuple:
        return _law(self.eps, self.n, self.p, self.m)

    def _with_key(self, key: tuple) -> "OutElement":
        """The element of this group with the normal key (a, c, i)."""
        out = object.__new__(OutElement)
        set_ = object.__setattr__
        for name in _SOCLE:
            set_(out, name, getattr(self, name))
        for name, value in zip("aci", key):
            set_(out, name, value)
        return out

    def mul(self, other: "OutElement") -> "OutElement":
        if (self.eps, self.n, self.p, self.m) != (other.eps, other.n, other.p, other.m):
            raise UsageError("elements live in different groups")
        return self._with_key(_key_mul(self._law(), self.key(), other.key()))

    def __mul__(self, other):
        return self.mul(other)

    def is_identity(self) -> bool:
        return self.a == 0 and self.c == 0 and self.i == 0

    def power(self, k: int) -> "OutElement":
        if k < 0:
            return self.inverse().power(-k)
        return self._with_key(_key_pow(self._law(), self.key(), k))

    def order(self) -> int:
        return len(_key_powers(self._law(), self.key()))

    def inverse(self) -> "OutElement":
        return self.power(self.order() - 1)

    def key(self):
        return (self.a, self.c, self.i)

    def __str__(self):
        parts = []
        if self.i:
            parts.append("d" if self.i == 1 else f"d^{self.i}")
        if self.a:
            parts.append("f" if self.a == 1 else f"f^{self.a}")
        if self.c:
            parts.append("t")
        return " ".join(parts) if parts else "1"


def out_identity(eps: int, n: int, p: int, m: int) -> OutElement:
    return OutElement(eps, n, p, m, 0, 0, 0)


def out_phi(eps: int, n: int, p: int, m: int) -> OutElement:
    return OutElement(eps, n, p, m, 1, 0, 0)


def out_tau(eps: int, n: int, p: int, m: int) -> OutElement:
    return OutElement(eps, n, p, m, 0, 1, 0)


def out_delta(eps: int, n: int, p: int, m: int) -> OutElement:
    return OutElement(eps, n, p, m, 0, 0, 1)


def out_elements(eps: int, n: int, p: int, m: int, bound: int = OUT_ENUM_BOUND) -> list:
    d, phi_order, _ = _law(eps, n, p, m)
    size = 2 * m * d
    if size > bound:
        raise UsageError(f"|Out| = {size} exceeds the enumeration bound {bound}")
    taus = (0, 1) if eps == 1 else (0,)
    return [OutElement(eps, n, p, m, a, c, i)
            for a in range(phi_order) for c in taus for i in range(d)]


def _subgroup_key(x: OutElement) -> frozenset:
    """The keys of <x>."""
    return frozenset(_key_powers(x._law(), x.key()))


def _class_reps(subs, elems) -> list:
    """The first subgroup of subs met in each Out-conjugacy class, walking
    subs by size, then by sorted keys. subs are frozensets of keys; elems are
    elements of Out, the first of which names the socle."""
    x = elems[0]
    maps = _conjugations(x._law(), x.p)
    reps, seen = [], set()
    for sub in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if sub in seen:
            continue
        reps.append(sub)
        seen.add(sub)
        frontier = [sub]
        while frontier:
            s = frontier.pop()
            for f in maps:
                t = frozenset(map(f, s))
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return reps


class AdmissibilityReport(Record):
    """generators: the maximal admissible cyclic subgroups, by generator, and
    rows the dispatch rows that produced them; class_total counts admissible
    classes with the trivial one, class_nontrivial without."""

    __slots__ = ("socle", "d", "b", "eta", "phi_hat", "psi", "tau", "generators",
                 "rows", "diagnostics", "class_total", "class_nontrivial")

    def __init__(self, socle: GroupSpec, d: int, b: int, eta: OutElement,
                 phi_hat: OutElement, psi: OutElement, tau: TauCriterionResult,
                 generators: tuple, rows: tuple, diagnostics: tuple,
                 class_total: int | None, class_nontrivial: int | None):
        # built once per call: a loop over the fields costs nothing here
        for name, value in zip(self.__slots__, (socle, d, b, eta, phi_hat, psi, tau,
                                                generators, rows, diagnostics,
                                                class_total, class_nontrivial)):
            object.__setattr__(self, name, value)


def _two_power_split(n: int, p: int) -> bool:
    """n = p^s + 2^u + 1 with s >= 0, u >= 1."""
    u = 2
    while u <= n - 2:
        if p_power_exponent(n - 1 - u, p) is not None:
            return True
        u *= 2
    return False


def _two_powers_dividing(limit: int):
    i = 1
    while i <= limit:
        yield i
        i *= 2


def admissible_generators(spec: GroupSpec,
                          bound: int = OUT_ENUM_BOUND) -> AdmissibilityReport:
    """Maximal admissible cyclic subgroups of Out(PSL_n^eps(q)), by generators."""
    if spec.family != "PSL":
        raise UsageError("admissibility is defined for the simple groups PSL/PSU")
    n, p, m, eps, q = spec.n, spec.p, spec.m, spec.eps, spec.q
    if n < 3:
        raise UsageError("admissibility needs n >= 3")
    d, phi_order, _ = _law(eps, n, p, m)
    # b: the part of the field automorphism group that acts on the diagonal
    # quotient, i.e. the pi(d)-part of gcd((q - eps)/d, m)
    b = pi_part(math.gcd((q - eps) // d, m), d)

    phi = out_phi(eps, n, p, m)
    tau = out_tau(eps, n, p, m)
    eta = out_delta(eps, n, p, m).power(odd_part(d))
    phi_hat = phi.power(phi_order // two_part(b))
    special_psi = (n == 4 and (q + eps) % 12 == 0)
    if special_psi:
        # leaves a cyclic group of order (m)_3 rather than the default odd part
        psi = phi.power((2 if eps == -1 else 1) * co_pi_part(m, 3))
    else:
        psi = phi.power(phi_order // odd_part(b))

    tau_res = tau_criterion(n, q, eps)
    gens: list = []
    rows: list = []
    diagnostics: list = []
    kappa = 1 if p % 4 == 1 else -1

    if eps == 1:
        t_exp = p_power_exponent(n - 1, p)
        if t_exp is not None and t_exp >= 1:
            # n - 1 is a positive power of p
            if n - 2 >= 2 and n - 2 == two_part(n - 2):
                rows.append("A-empty")
            else:
                half = phi.power(m // 2) if m % 2 == 0 else None
                if two_part(b) > 2:
                    gens.append(half.mul(tau).mul(eta))
                    rows.append("A-v")
                elif two_part(m) == 2 and two_part(p - kappa) > two_part(n):
                    if kappa == 1:
                        gens.append(half.mul(tau).mul(eta))
                        rows.append("A-vi+")
                    else:
                        gens.append(half.mul(eta))
                        rows.append("A-vi-")
                if two_part(n) < two_part(p - 1) and two_part(b) <= 2 and two_part(m) != 2:
                    diagnostics.append(
                        "half-field row skipped: (n)_2 < (p-1)_2 holds but (m)_2 != 2")
        elif b % 2 == 1:
            if tau_res.tau_admissible:
                gens.append(psi.mul(tau))
                rows.append("B-psi-tau")
            elif not psi.is_identity():
                gens.append(psi)
                rows.append("B-psi")
        else:
            b2 = two_part(b)
            gens.append(psi.mul(phi_hat))
            rows.append("C-field")
            for i in _two_powers_dividing(b2 // 2):
                gens.append(psi.mul(phi_hat.power(i)).mul(tau))
            rows.append("C-field-tau")
            if not _two_power_split(n, p):
                added = False
                for j in _two_powers_dividing(b2 // 4):
                    gens.append(psi.mul(phi_hat.power(2 * j)).mul(tau).mul(eta))
                    added = True
                if added:
                    rows.append("C-field-tau-eta")
                if two_part(p - kappa) > two_part(n):
                    if kappa == 1:
                        gens.append(psi.mul(phi_hat).mul(tau).mul(eta))
                        rows.append("C-kappa+")
                    else:
                        gens.append(psi.mul(phi_hat).mul(eta))
                        rows.append("C-kappa-")
    else:
        t_exp = p_power_exponent(n - 1, p)
        if t_exp is not None and t_exp >= 1:
            rows.append("U-empty")
        elif not tau_res.tau_admissible:
            if not psi.is_identity():
                gens.append(psi)
                rows.append("U-psi")
        elif two_part(n) > 2 and n >= 16:
            gens.append(psi.mul(tau))
            rows.append("U-psi-tau")
        else:
            gens.append(psi.mul(phi.power(odd_part(m))))
            rows.append("U-two-part")

    uniq = {}
    for g in gens:
        if not g.is_identity():
            uniq[g.key()] = g
    ordered = tuple(sorted(uniq.values(), key=lambda g: str(g)))

    total = nontrivial = None
    if 2 * m * d <= bound:
        total, nontrivial = _class_counts(ordered, eps, n, p, m)

    return AdmissibilityReport(
        socle=spec, d=d, b=b, eta=eta, phi_hat=phi_hat, psi=psi, tau=tau_res,
        generators=ordered, rows=tuple(rows), diagnostics=tuple(diagnostics),
        class_total=total, class_nontrivial=nontrivial)


def _class_counts(gens, eps, n, p, m):
    """Conjugacy classes of admissible subgroups: all subgroups of the maximal
    admissible cyclic groups, counted up to Out-conjugacy."""
    one = out_identity(eps, n, p, m)
    law = one._law()
    subs = {frozenset({one.key()})}
    for g in gens:
        powers = _key_powers(law, g.key())
        k = len(powers)
        subs.update(frozenset(powers[::e]) for e in range(1, k + 1) if k % e == 0)
    count = len(_class_reps(subs, (one,)))
    return count, count - 1
