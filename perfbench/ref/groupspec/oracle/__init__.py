"""Brute-force matrix-group oracle: exact finite field tables, vectorized
matrix arithmetic, group enumeration/sampling, element orders, conjugacy
invariants and spectrum comparisons against the closed forms."""

from .field import FiniteField, embed_subfield
from .groups import BoundError

__all__ = ["FiniteField", "embed_subfield", "BoundError"]
