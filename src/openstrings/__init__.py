"""Exact combinatorial structures for open-string invariants: a formal
power-series ring with real exponents, string data types with duality,
polytope face complexes, path index computations, and the sign calculus
tying them together."""

__version__ = "0.1.0"

__all__ = [
    "novikov",
    "strings",
    "polytopes",
    "maslov",
    "ainfty",
    "signs",
    "morse",
    "conductors",
    "cli",
]
