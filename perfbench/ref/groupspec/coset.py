"""Spectra of outer cosets of PSL_n^eps(q) and the tau admissibility criterion.

A coset spectrum is not divisor closed, so it is kept as a list of pieces
(multiplier, base spectrum, constraint): the values of a piece are

    multiplier * x   for x in base, subject to the constraint on x,

where the constraint is "none", "p_divisible" (p | x) or "p_prime_only"
(p does not divide x). Membership and maximal elements are computed piecewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import UsageError, odd_part, r_part, two_part
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

    def membership(self, a: int, p: int) -> bool:
        if a % self.multiplier != 0:
            return False
        x = a // self.multiplier
        if self.constraint == "p_divisible" and x % p != 0:
            return False
        if self.constraint == "p_prime_only" and x % p == 0:
            return False
        return self.base.contains(x)

    def maximal_elements(self, p: int) -> tuple:
        """Maximal attained values of this piece."""
        gens = self.base.generators
        if self.constraint == "p_divisible":
            kept = tuple(g for g in gens if g % p == 0)
        elif self.constraint == "p_prime_only":
            kept = tuple(normalize([g // r_part(g, p) for g in gens]))
        else:
            kept = gens
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
            for x in piece.base.all_values():
                if piece.constraint == "p_divisible" and x % self.p != 0:
                    continue
                if piece.constraint == "p_prime_only" and x % self.p == 0:
                    continue
                out.add(piece.multiplier * x)
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


def _linear_spec(n: int, q: int, eps: int, family: str = "PSL") -> GroupSpec:
    return GroupSpec.from_q(family, n, q, eps)


def _check_coset_args(n: int, q: int):
    spec = GroupSpec.from_q("PSL", max(n, 2), q)  # validates q odd prime power
    if n < 3:
        raise UsageError("coset spectra need n >= 3")
    return spec.p, spec.m


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


def _p_power_plus(n: int, p: int, offset: int):
    """t >= 1 with n = p^(t-1) + offset, or None."""
    x = n - offset
    if x < 1:
        return None
    t = 1
    while x % p == 0:
        x //= p
        t += 1
    return t if x == 1 else None


def tau_criterion(n: int, q: int, eps: int) -> TauCriterionResult:
    """Compare the spectrum of the graph extension of PSL_n^eps(q) with the socle.

    Returns "equal" when the transpose-inverse coset adds no new orders, else
    the lowest-numbered witness case with a value outside the socle spectrum.
    """
    p, _ = _check_coset_args(n, q)
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    triggered = []

    t = _p_power_plus(n, p, 2)
    if t is not None and (q + eps) % 4 == 0:
        triggered.append((1, 4 * p ** t))
    if n >= 3 and n - 1 == two_part(n - 1) and math.gcd(n, q - eps) > 1:
        half = (n - 1) // 2
        triggered.append((2, 2 * (q ** half - eps ** half)))
    t = _p_power_plus(n, p, 1)
    if t is not None:
        triggered.append((3, 2 * p ** t))
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
# field and graph-field cosets


def _psl(n: int, q: int) -> Spectrum:
    return spectrum_linear(_linear_spec(n, q, 1))


def _psu(n: int, q: int) -> Spectrum:
    return spectrum_linear(_linear_spec(n, q, -1))


def _sp_coset(n: int, q0: int, k: int, p: int) -> CosetSpectrum:
    sp = spectrum_symplectic(GroupSpec.from_q("Sp", (n - 1) // 2, q0))
    return CosetSpectrum((Piece(2 * k, sp),), p)


def field_coset_spectrum(n: int, q: int, eps: int, i: int, k: int, variant: str):
    """Spectrum of one coset of the simple group inside a field-type extension.

    The coset is beta * delta^i * L with beta the canonical power of the field
    automorphism of index k ("plain") or its product with the graph
    automorphism ("graph"). Returns UNSUPPORTED when no closed form applies.
    """
    p, m = _check_coset_args(n, q)
    if eps not in (1, -1):
        raise UsageError("eps must be +1 or -1")
    if variant not in ("plain", "graph"):
        raise UsageError("variant must be 'plain' or 'graph'")
    if k < 1 or m % k != 0:
        raise UsageError("k must divide the field exponent")
    q0 = p ** (m // k)

    if eps == 1:
        if variant == "plain":
            if i % math.gcd(n, q0 - 1) == 0:
                return CosetSpectrum((Piece(k, _psl(n, q0)),), p)
            return UNSUPPORTED
        if k % 2 == 0:
            if i % math.gcd(n, q0 + 1) == 0:
                return CosetSpectrum((Piece(k, _psu(n, q0)),), p)
            return UNSUPPORTED
        if n % 2 == 1:
            return _sp_coset(n, q0, k, p)
        if i % 2 == 0:
            return graph_coset_psl_even(n, q0).scaled(k)
        return UNSUPPORTED

    # unitary socle
    if variant == "plain":
        if n % 2 == 1:
            return _sp_coset(n, q0, k, p)
        if i % 2 == 0:
            return graph_coset_psl_even(n, q0).scaled(k)
        return UNSUPPORTED
    if k % 2 == 0:
        return UNSUPPORTED
    if i % math.gcd(n, q0 + 1) == 0:
        return CosetSpectrum((Piece(k, _psu(n, q0)),), p)
    return UNSUPPORTED


def _merge_pieces(piece_lists, p: int) -> CosetSpectrum:
    seen = {}
    for pieces in piece_lists:
        for pc in pieces:
            seen[(pc.multiplier, pc.base.generators, pc.constraint)] = pc
    ordered = sorted(seen.values(), key=lambda pc: (pc.multiplier, pc.constraint,
                                                    pc.base.generators), reverse=True)
    return CosetSpectrum(tuple(ordered), p)


def extension_spectrum(generator):
    """Spectrum of the extension of the socle by a cyclic group of outer
    automorphisms, as the union of the per-coset spectra.

    generator is an OutElement carrying the socle parameters. Returns
    UNSUPPORTED as soon as one coset has no closed form.
    """
    n = generator.n
    p, m, d, eps = generator.p, generator.m, generator.d, generator.eps
    q = p ** m
    order = generator.order()
    piece_lists = []
    for j in range(order):
        w = generator.power(j)
        res = _coset_pieces(n, q, p, m, d, eps, w.a, w.c, w.i)
        if is_unsupported(res):
            return UNSUPPORTED
        piece_lists.append(res)
    return _merge_pieces(piece_lists, p)


def _coset_pieces(n, q, p, m, d, eps, a, c, i):
    """Pieces for the single coset phi^a tau^c delta^i L, or UNSUPPORTED."""
    if eps == 1:
        if a % m == 0 and c == 0:
            if i % d == 0:
                return (Piece(1, _psl(n, q)),)
            return UNSUPPORTED
        if c == 0:
            g = math.gcd(a, m)
            q0 = p ** g
            # delta part absorbs into the coset exactly when (n, q0-1) | i
            if i % math.gcd(n, q0 - 1) == 0:
                return (Piece(m // g, _psl(n, q0)),)
            return UNSUPPORTED
        g = math.gcd(a, m) if a % m else m
        q0, k = p ** g, m // g
        if k % 2 == 0:
            if i % math.gcd(n, q0 + 1) == 0:
                return (Piece(k, _psu(n, q0)),)
            return UNSUPPORTED
        if n % 2 == 1:
            return _sp_coset(n, q0, k, p).pieces
        if i % 2 == 0:
            return graph_coset_psl_even(n, q0).scaled(k).pieces
        return UNSUPPORTED

    # unitary: a runs mod 2m, tau = phi^m
    if a % (2 * m) == 0:
        if i % d == 0:
            return (Piece(1, _psu(n, q)),)
        return UNSUPPORTED
    o = 2 * m // math.gcd(a, 2 * m)
    if o % 2 == 0:
        k = o // 2
        q0 = p ** (m // k)
        if n % 2 == 1:
            return _sp_coset(n, q0, k, p).pieces
        if i % 2 == 0:
            return graph_coset_psl_even(n, q0).scaled(k).pieces
        return UNSUPPORTED
    q0 = p ** (m // o)
    if i % math.gcd(n, q0 + 1) == 0:
        return (Piece(o, _psu(n, q0)),)
    return UNSUPPORTED
