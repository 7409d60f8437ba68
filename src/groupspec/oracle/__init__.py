"""Brute-force matrix-group oracle: exact finite field tables, vectorized
matrix arithmetic, group enumeration/sampling, element orders, conjugacy
invariants and spectrum comparisons against the closed forms.

The submodules need numpy; this module holds without it the refusals made
from the arguments alone, which the CLI checks before it imports them.
"""

import math

from ..arith import BoundError, UsageError

KINDS = ("GL", "SL", "GU", "SU", "Sp")
ORDER_KINDS = ("plain", "projective", "tau_coset", "tau_delta_coset")

# closed-form comparison target per (family, eps): oracle group, order kind
VERIFY_MAP = {
    ("PSL", 1): ("SL", "projective"),
    ("PGL", 1): ("GL", "projective"),
    ("PSL", -1): ("SU", "projective"),
    ("PGL", -1): ("GU", "projective"),
    ("PSp", 1): ("Sp", "projective"),
    ("Sp", 1): ("Sp", "plain"),
}


def _check_kind(kind: str, n: int) -> None:
    if kind not in KINDS:
        raise UsageError(f"unknown group kind {kind!r}")
    if kind == "Sp" and n % 2:
        raise UsageError("Sp needs even dimension")


def group_order(kind: str, n: int, q: int) -> int:
    _check_kind(kind, n)
    if kind == "GL":
        return math.prod(q ** n - q ** i for i in range(n))
    if kind == "SL":
        return group_order("GL", n, q) // (q - 1)
    if kind == "GU":
        return (q ** (n * (n - 1) // 2)
                * math.prod(q ** i - (-1) ** i for i in range(1, n + 1)))
    if kind == "SU":
        return group_order("GU", n, q) // (q + 1)
    r = n // 2                                               # Sp
    return q ** (r * r) * math.prod(q ** (2 * i) - 1 for i in range(1, r + 1))


def check_enum_bound(kind: str, n: int, q: int, enum_bound: int) -> int:
    """|kind_n(q)|, once its enumeration (q^(n^2) candidates for GL and SL)
    is known to stay within enum_bound."""
    order = group_order(kind, n, q)
    if kind in ("GL", "SL"):
        if q ** (n * n) > enum_bound:
            raise BoundError(f"{q}^{n * n} candidate matrices exceed the bound {enum_bound}")
    elif order > enum_bound:
        raise BoundError(f"|{kind}_{n}({q})| = {order} exceeds the bound {enum_bound}")
    return order


def check_order_kind(kind: str, n: int, q: int, order_kind: str) -> int:
    """d = gcd(n, q -+ 1), once order_kind is known to be measurable in
    kind_n(q): the tau wings only in GL or GU, the tau delta wing if d > 1."""
    if order_kind not in ORDER_KINDS:
        raise UsageError(f"unknown order kind {order_kind!r}")
    if order_kind.startswith("tau") and kind not in ("GL", "GU"):
        raise UsageError("tau coset orders are measured inside GL or GU")
    d = math.gcd(n, q + 1 if kind == "GU" else q - 1)
    if order_kind == "tau_delta_coset" and d == 1:
        # no row lands in the wing: an enumeration would find it empty and
        # the draw loop would never end
        raise UsageError(f"the tau delta coset of {kind}_{n}({q}) is its tau coset: "
                         f"gcd(n, q {'+' if kind == 'GU' else '-'} 1) = 1")
    return d


def verify_target(spec, order_kind: str | None) -> tuple:
    """(group kind, order kind) that verify_group measures for spec."""
    target = VERIFY_MAP.get((spec.family, spec.eps))
    if target is None:
        raise UsageError(f"no matrix oracle for family {spec.family}")
    kind, default_kind = target
    order_kind = order_kind or default_kind
    if order_kind not in ("plain", "projective"):
        raise UsageError("group verification uses plain or projective orders")
    return kind, order_kind
