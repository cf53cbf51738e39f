"""Finite group rings, the Jordan circle product, and a brute-force
nilpotency oracle cross-checked against a structural classifier."""

from .groupring import GroupRing
from .groups import builtin_group
from .rings import FiniteRing, builtin_ring

__all__ = ["FiniteRing", "GroupRing", "builtin_group", "builtin_ring"]

__version__ = "0.1.0"
