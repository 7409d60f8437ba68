"""Spectra of outer cosets of PSL_n^eps(q) and the tau admissibility criterion.

A coset spectrum is not divisor closed, so it is kept as a list of pieces
(multiplier, base spectrum, constraint): the values of a piece are

    multiplier * x   for x in base, subject to the constraint on x,

where the constraint is "none", "p_divisible" (p | x) or "p_prime_only"
(p does not divide x). Membership and maximal elements are computed piecewise.

Every field, graph-field and extension coset goes through one dispatcher,
_coset. A coset wL and w^j L share their orders when gcd(j, |w|) = 1, and for
w = phi^a tau^c delta^i they are read off the cyclic subgroup <phi^a tau^c>:
it fixes a subfield F_q0 and has order k on F_q, and the coset orders are k
times those of PSL_n(q0) or PSU_n(q0), or, when tau survives in the k-th
power, k times those of the graph coset of PSL_n(q0). delta^i decides only
whether a closed form applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import UsageError, odd_part, odd_prime_power, p_power_exponent, two_part
from .spectra import (GroupSpec, Spectrum, normalize,
                      spectrum_linear, spectrum_orthogonal_semisimple,
                      spectrum_symplectic)

CONSTRAINTS = ("none", "p_divisible", "p_prime_only")


class _UnsupportedType:
    """Closed form not available; callers should fall back to sampling."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unsupported"

    def __bool__(self):
        return False


UNSUPPORTED = _UnsupportedType()


def is_unsupported(x) -> bool:
    return x is UNSUPPORTED


@dataclass(frozen=True)
class Piece:
    multiplier: int
    base: Spectrum
    constraint: str = "none"

    def __post_init__(self):
        if self.multiplier < 1:
            raise UsageError("piece multiplier must be positive")
        if self.constraint not in CONSTRAINTS:
            raise UsageError(f"unknown constraint {self.constraint!r}")

    def admits(self, x: int, p: int) -> bool:
        """Whether the constraint lets the base value x through."""
        if self.constraint == "p_divisible":
            return x % p == 0
        if self.constraint == "p_prime_only":
            return x % p != 0
        return True

    def membership(self, a: int, p: int) -> bool:
        if a % self.multiplier != 0:
            return False
        x = a // self.multiplier
        return self.admits(x, p) and self.base.contains(x)

    def maximal_elements(self, p: int) -> tuple:
        """Maximal attained values of this piece."""
        if self.constraint == "p_prime_only":
            kept = self.base.restrict_coprime_to(p).generators
        else:
            kept = [g for g in self.base.generators if self.admits(g, p)]
        return tuple(self.multiplier * g for g in kept)


@dataclass(frozen=True)
class CosetSpectrum:
    """Union of pieces over a fixed characteristic p."""

    pieces: tuple
    p: int

    def membership(self, a: int) -> bool:
        return any(piece.membership(a, self.p) for piece in self.pieces)

    def __contains__(self, a: int) -> bool:
        return self.membership(a)

    def maximal_elements(self) -> tuple:
        """Antichain of attained values every coset element divides."""
        cand = []
        for piece in self.pieces:
            cand.extend(piece.maximal_elements(self.p))
        return normalize(cand).generators if cand else ()

    def all_values(self) -> set:
        """Every attained value. Only sane for small bases."""
        out: set = set()
        for piece in self.pieces:
            out |= {piece.multiplier * x for x in piece.base.all_values()
                    if piece.admits(x, self.p)}
        return out

    def scaled(self, k: int) -> "CosetSpectrum":
        return CosetSpectrum(
            tuple(Piece(k * pc.multiplier, pc.base, pc.constraint) for pc in self.pieces),
            self.p)

    def to_jsonable(self) -> list:
        return [{"multiplier": pc.multiplier,
                 "generators": list(pc.base.generators),
                 "constraint": pc.constraint}
                for pc in self.pieces]


def _check_coset_args(n: int, q: int):
    p, m = odd_prime_power(q)
    if n < 3:
        raise UsageError("coset spectra need n >= 3")
    return p, m


# ---------------------------------------------------------------------------
# graph cosets


def graph_coset_psl_odd(n: int, q: int) -> CosetSpectrum:
    """Orders in the coset (transpose-inverse) * PSL_n(q), n odd.

    Also valid for PGL_n(q) and, at the same q, for the unitary forms.
    """
    p, _ = _check_coset_args(n, q)
    if n % 2 == 0:
        raise UsageError("n must be odd here")
    sp = spectrum_symplectic(GroupSpec.from_q("Sp", (n - 1) // 2, q))
    return CosetSpectrum((Piece(2, sp),), p)


def graph_coset_pgl_even(n: int, q: int) -> CosetSpectrum:
    """Orders in the coset (transpose-inverse) * PGL_n(q), n even."""
    p, _ = _check_coset_args(n, q)
    if n % 2 != 0:
        raise UsageError("n must be even here")
    sp = spectrum_symplectic(GroupSpec.from_q("PSp", n // 2, q))
    return CosetSpectrum((Piece(2, sp),), p)


def graph_coset_psl_even(n: int, q: int) -> CosetSpectrum:
    """Orders in the coset (transpose-inverse) * PSL_n(q), n even."""
    p, _ = _check_coset_args(n, q)
    if n % 2 != 0:
        raise UsageError("n must be even here")
    plus = spectrum_orthogonal_semisimple(GroupSpec.from_q("POmegaEven", n // 2, q, 1))
    minus = spectrum_orthogonal_semisimple(GroupSpec.from_q("POmegaEven", n // 2, q, -1))
    pieces = [Piece(2, plus, "p_prime_only"), Piece(2, minus, "p_prime_only")]
    if n > 4:
        mixed = spectrum_symplectic(GroupSpec.from_q("OmegaOdd", n // 2, q))
        pieces.append(Piece(2, mixed, "p_divisible"))
    else:
        # dimension 4: the p-part of the coset tops out at p(q +/- 1), with 9
        # replacing 3 in the base when p = 3
        vals = [p * (q - 1) // 2, p * (q + 1) // 2]
        if p == 3:
            vals.append(9)
        pieces.append(Piece(2, normalize(vals), "p_divisible"))
    return CosetSpectrum(tuple(pieces), p)


def graph_coset(n: int, q: int) -> CosetSpectrum:
    """Graph coset of the simple group, dispatching on the parity of n."""
    return graph_coset_psl_odd(n, q) if n % 2 else graph_coset_psl_even(n, q)


# ---------------------------------------------------------------------------
# tau criterion


@dataclass(frozen=True)
class TauCriterionResult:
    verdict: str             # "equal" or "witness"
    case: int | None
    witness: int | None
    triggered: tuple         # ((case, witness), ...) for every matching case

    @property
    def tau_admissible(self) -> bool:
        return self.verdict == "equal"


def tau_criterion(n: int, q: int, eps: int) -> TauCriterionResult:
    """Compare the spectrum of the graph extension of PSL_n^eps(q) with the socle.

    Returns "equal" when the transpose-inverse coset adds no new orders, else
    the lowest-numbered witness case with a value outside the socle spectrum.
    """
    p, _ = _check_coset_args(n, q)
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    triggered = []

    s = p_power_exponent(n - 2, p)
    if s is not None and (q + eps) % 4 == 0:
        triggered.append((1, 4 * p ** (s + 1)))
    if n >= 3 and n - 1 == two_part(n - 1) and math.gcd(n, q - eps) > 1:
        half = (n - 1) // 2
        triggered.append((2, 2 * (q ** half - eps ** half)))
    s = p_power_exponent(n - 1, p)
    if s is not None:
        triggered.append((3, 2 * p ** (s + 1)))
    if n % 2 == 0 and two_part(n) <= two_part(q - eps) and (q - eps) % 4 == 0:
        half = n // 2
        triggered.append((4, q ** half + eps ** half))
    if n % 2 == 0 and odd_part(n) > 3 and odd_part(math.gcd(n, q - eps)) > 1:
        k = two_part(n)
        rem = n // 2 - k
        val = 2 * math.lcm(q ** k - 1, q ** rem + eps ** rem)
        triggered.append((5, val))

    if not triggered:
        return TauCriterionResult("equal", None, None, ())
    case, witness = min(triggered)
    return TauCriterionResult("witness", case, witness, tuple(sorted(triggered)))


# ---------------------------------------------------------------------------
# field, graph-field and extension cosets


def _coset(w) -> CosetSpectrum:
    """Spectrum of the coset w L for an OutElement w = phi^a tau^c delta^i.

    The answer depends only on the cyclic subgroup generated by x = phi^a tau^c:
    it fixes the field of q0 = p^g, g = gcd(a, m), and has order k = m / g on
    F_q. If tau survives in x^k, the coset orders are k times those of the
    graph coset of PSL_n(q0); otherwise they are k times those of PSL_n^s(q0),
    where the sign s is eps, flipped when c = 1 (on the unitary side tau is a
    power of phi, so c = 0 there). The diagonal twist
    delta^i is absorbed exactly when gcd(n, q0 - s) | i (odd n graph cosets
    absorb every twist, even n ones the even twists). Returns UNSUPPORTED when
    no closed form applies.
    """
    n, p, eps = w.n, w.p, w.eps
    g = math.gcd(w.a, w.m)
    k, q0 = w.m // g, p ** g
    # x^k is tau^(ck) on the linear side, phi^(ak) = tau^(a/g) on the unitary side
    if (w.a // g if eps == -1 else w.c * k) % 2:
        if n % 2:
            return graph_coset_psl_odd(n, q0).scaled(k)
        return graph_coset_psl_even(n, q0).scaled(k) if w.i % 2 == 0 else UNSUPPORTED
    s = -eps if w.c else eps
    if w.i % math.gcd(n, q0 - s):
        return UNSUPPORTED
    base = spectrum_linear(GroupSpec("PSL", n, p, g, s))
    return CosetSpectrum((Piece(k, base),), p)


def field_coset_spectrum(n: int, q: int, eps: int, i: int, k: int, variant: str):
    """Spectrum of one coset of the simple group inside a field-type extension.

    The coset is beta * delta^i * L with beta the canonical power phi^(m/k) of
    the field automorphism ("plain") or its product with the graph automorphism
    ("graph"); on the unitary side tau = phi^m, so for even k the two variants
    generate the same cyclic subgroup and share their orders. Returns
    UNSUPPORTED when no closed form applies.
    """
    from .outer import OutElement  # outer imports this module

    p, m = _check_coset_args(n, q)
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    if variant not in ("plain", "graph"):
        raise UsageError("variant must be 'plain' or 'graph'")
    if k < 1 or m % k != 0:
        raise UsageError("k must divide the field exponent")
    return _coset(OutElement(eps, n, p, m, m // k, variant == "graph", i))


def extension_spectrum(generator):
    """Spectrum of the extension of the socle by a cyclic group of outer
    automorphisms, as the union of the per-coset spectra.

    generator is an OutElement carrying the socle parameters. Returns
    UNSUPPORTED as soon as one coset has no closed form.
    """
    seen = {}
    for j in range(generator.order()):
        res = _coset(generator.power(j))
        if is_unsupported(res):
            return UNSUPPORTED
        for pc in res.pieces:
            seen[(pc.multiplier, pc.base.generators, pc.constraint)] = pc
    ordered = sorted(seen.values(), key=lambda pc: (pc.multiplier, pc.constraint,
                                                    pc.base.generators), reverse=True)
    return CosetSpectrum(tuple(ordered), generator.p)
