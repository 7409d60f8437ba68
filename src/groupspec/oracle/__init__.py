"""Brute-force matrix-group oracle: exact finite field tables, vectorized
matrix arithmetic, group enumeration/sampling, element orders, conjugacy
invariants and spectrum comparisons against the closed forms.

The submodules need numpy. This module holds, without it, every refusal the
arguments decide: verify_request for verify_group, brute_request for one
brute_spectrum. The CLI calls verify_request before it imports numpy.
"""

import math

from ..arith import BoundError, UsageError

KINDS = ("GL", "SL", "GU", "SU", "Sp")
ORDER_KINDS = ("plain", "projective", "tau_coset", "tau_delta_coset")
TABLE_LIMIT_Q = 2048             # the largest field given arithmetic tables

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


def require_table_field(size: int) -> None:
    """Refuse a field of more than TABLE_LIMIT_Q elements, which has no
    arithmetic tables."""
    if size > TABLE_LIMIT_Q:
        raise UsageError(f"field of size {size} is too large for the matrix oracle")


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


def brute_request(kind: str, n: int, q: int, order_kind: str, mode: str,
                  enum_bound: int) -> int:
    """d = gcd(n, q -+ 1), once brute_spectrum can measure order_kind in
    kind_n(q) in mode. Refused in this order: an unknown order kind or mode,
    a dimension below 1, a tau wing outside GL or GU, the tau delta wing
    when d = 1, a sample over a field without tables, a full enumeration
    past enum_bound."""
    if order_kind not in ORDER_KINDS:
        raise UsageError(f"unknown order kind {order_kind!r}")
    if mode not in ("full", "sample"):
        raise UsageError("mode must be 'full' or 'sample'")
    if n < 1:
        raise UsageError(f"cannot measure matrices of size {n}")
    if order_kind.startswith("tau") and kind not in ("GL", "GU"):
        raise UsageError("tau coset orders are measured inside GL or GU")
    d = math.gcd(n, q + 1 if kind == "GU" else q - 1)
    if order_kind == "tau_delta_coset" and d == 1:
        # no row lands in the wing: an enumeration would find it empty and
        # the draw loop would never end
        raise UsageError(f"the tau delta coset of {kind}_{n}({q}) is its tau coset: "
                         f"gcd(n, q {'+' if kind == 'GU' else '-'} 1) = 1")
    if mode == "full":
        check_enum_bound(kind, n, q, enum_bound)
    else:
        require_table_field(q * q if kind in ("GU", "SU") else q)
    return d


def verify_request(spec, order_kind: str | None, mode: str | None,
                   enum_bound: int) -> tuple:
    """(group kind, order kind, mode) of verify_group for spec: by default the
    family's order kind, and sampling for the tau delta wing only. Refused
    in this order: an unknown order kind, a tau wing outside PSL(n,q) (the
    wings are cosets of PSL_n(q), so PGL and PSU have none to measure), the
    tau delta wing in full mode, a family without an oracle, then what
    brute_request refuses."""
    if order_kind not in (None, *ORDER_KINDS):
        raise UsageError(f"unknown order kind {order_kind!r}")
    tau = order_kind in ("tau_coset", "tau_delta_coset")
    if tau and (spec.family != "PSL" or spec.eps != 1):
        raise UsageError("tau coset verification covers PSL(n,q) only")
    if order_kind == "tau_delta_coset" and mode == "full":
        raise UsageError("the tau delta probe is sampling-only")
    target = VERIFY_MAP.get((spec.family, spec.eps))
    if target is None:
        raise UsageError(f"no matrix oracle for family {spec.family}")
    kind = "GL" if tau else target[0]
    order_kind = order_kind or target[1]
    mode = mode or ("sample" if order_kind == "tau_delta_coset" else "full")
    brute_request(kind, spec.dimension, spec.q, order_kind, mode, enum_bound)
    return kind, order_kind, mode
