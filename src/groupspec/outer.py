"""Outer automorphism words of PSL_n^eps(q) and admissibility of cyclic extensions.

Out = <delta> x| (<phi> x <tau>) in the linear case, with delta^phi = delta^p and
delta^tau = delta^-1; in the unitary case tau = phi^m and phi has order 2m.
Elements are kept in the normal form phi^a tau^c delta^i (c = 0 for unitary).

An outer element alpha (more precisely the cyclic group it generates) is called
admissible when the extension of the socle L by alpha has the same set of
element orders as L itself. admissible_generators returns the maximal
admissible cyclic subgroups by their generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import (UsageError, co_pi_part, odd_part, p_power_exponent, pi_part,
                    two_part)
from .coset import TauCriterionResult, tau_criterion
from .spectra import GroupSpec

OUT_ENUM_BOUND = 10 ** 5


@dataclass(frozen=True)
class OutElement:
    """phi^a tau^c delta^i in Out(PSL_n^eps(q)), q = p^m."""

    eps: int
    n: int
    p: int
    m: int
    a: int
    c: int = 0
    i: int = 0

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise UsageError("eps must be +1 or -1")
        phi_order = self.m if self.eps == 1 else 2 * self.m
        a, c, i = self.a, self.c % 2, self.i
        if self.eps == -1 and c:
            a, c = a + self.m, 0  # tau = phi^m on the unitary side
        object.__setattr__(self, "a", a % phi_order)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "i", i % self.d)

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def d(self) -> int:
        return math.gcd(self.n, self.q - self.eps)

    def _like(self, a, c, i) -> "OutElement":
        return OutElement(self.eps, self.n, self.p, self.m, a, c, i)

    def mul(self, other: "OutElement") -> "OutElement":
        if (self.eps, self.n, self.p, self.m) != (other.eps, other.n, other.p, other.m):
            raise UsageError("elements live in different groups")
        d = self.d
        twist = pow(self.p, other.a, d) if d > 1 else 0
        if self.eps == 1:
            sign = -1 if other.c else 1
            return self._like(self.a + other.a, self.c ^ other.c,
                              self.i * twist * sign + other.i)
        return self._like(self.a + other.a, 0, self.i * twist + other.i)

    def __mul__(self, other):
        return self.mul(other)

    def is_identity(self) -> bool:
        return self.a == 0 and self.c == 0 and self.i == 0

    def power(self, k: int) -> "OutElement":
        if k < 0:
            return self.inverse().power(-k)
        out = self._like(0, 0, 0)
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    def order(self) -> int:
        k, x = 1, self
        while not x.is_identity():
            x = x.mul(self)
            k += 1
        return k

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
    template = out_identity(eps, n, p, m)
    d = template.d
    size = 2 * m * d
    if size > bound:
        raise UsageError(f"|Out| = {size} exceeds the enumeration bound {bound}")
    phi_order = m if eps == 1 else 2 * m
    taus = (0, 1) if eps == 1 else (0,)
    return [OutElement(eps, n, p, m, a, c, i)
            for a in range(phi_order) for c in taus for i in range(d)]


def _subgroup_key(x: OutElement) -> frozenset:
    out, y = {x.key()}, x
    while not y.is_identity():
        y = y.mul(x)
        out.add(y.key())
    return frozenset(out)


def _conjugate_subgroup(sub: frozenset, g: OutElement, lookup: dict) -> frozenset:
    ginv = g.inverse()
    return frozenset((ginv.mul(lookup[k]).mul(g)).key() for k in sub)


def _orbit(sub: frozenset, gens: list, lookup: dict) -> set:
    seen = {sub}
    frontier = [sub]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = _conjugate_subgroup(s, g, lookup)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def _class_reps(subs, elems: list) -> list:
    """The first subgroup of subs met in each Out-conjugacy class, walking
    subs by size, then by sorted keys; elems is the whole of Out."""
    lookup = {x.key(): x for x in elems}
    x = elems[0]
    conj_gens = [f(x.eps, x.n, x.p, x.m) for f in (out_phi, out_tau, out_delta)]
    reps, seen = [], set()
    for sub in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if sub not in seen:
            seen |= _orbit(sub, conj_gens, lookup)
            reps.append(sub)
    return reps


@dataclass(frozen=True)
class AdmissibilityReport:
    socle: GroupSpec
    d: int
    b: int
    eta: OutElement
    phi_hat: OutElement
    psi: OutElement
    tau: TauCriterionResult
    generators: tuple          # maximal admissible cyclic subgroup generators
    rows: tuple                # which dispatch rows produced them
    diagnostics: tuple
    class_total: int | None    # admissible classes including the trivial one
    class_nontrivial: int | None


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
    d = math.gcd(n, q - eps)
    # b: the part of the field automorphism group that acts on the diagonal
    # quotient, i.e. the pi(d)-part of gcd((q - eps)/d, m)
    b = pi_part(math.gcd((q - eps) // d, m), d)

    ident = out_identity(eps, n, p, m)
    phi = out_phi(eps, n, p, m)
    tau = out_tau(eps, n, p, m)
    eta = out_delta(eps, n, p, m).power(odd_part(d))
    phi_order = m if eps == 1 else 2 * m
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
        total, nontrivial = _class_counts(ordered, eps, n, p, m, bound)

    return AdmissibilityReport(
        socle=spec, d=d, b=b, eta=eta, phi_hat=phi_hat, psi=psi, tau=tau_res,
        generators=ordered, rows=tuple(rows), diagnostics=tuple(diagnostics),
        class_total=total, class_nontrivial=nontrivial)


def _class_counts(gens, eps, n, p, m, bound):
    """Conjugacy classes of admissible subgroups: all subgroups of the maximal
    admissible cyclic groups, counted up to Out-conjugacy."""
    admissible_subs = {frozenset({out_identity(eps, n, p, m).key()})}
    for g in gens:
        order = g.order()
        for e in range(1, order + 1):
            admissible_subs.add(_subgroup_key(g.power(e)))
    count = len(_class_reps(admissible_subs, out_elements(eps, n, p, m, bound)))
    return count, count - 1
