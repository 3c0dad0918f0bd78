"""Formal open strings: ordered tensor words of elementary generators.

An elementary string is an intersection-point generator between two
Lagrangian labels, graded by an integer index.  An open string is an ordered
(possibly empty) tensor of elementary strings together with an integer shift
class recording the action of the deck group; only the total shift matters
(words differing by shifts summing to zero are identified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "ElementaryString",
    "OpenString",
    "EMPTY",
    "dual",
    "tensor",
    "shift",
]


@dataclass(frozen=True)
class ElementaryString:
    """A single generator with transverse extremities, hence integer index."""

    id: str
    source_lagrangian: str
    target_lagrangian: str
    index: int

    def dual(self, n: int) -> "ElementaryString":
        """Source and target swap; the index reflects to n - index."""
        new_id = self.id[:-1] if self.id.endswith("*") else self.id + "*"
        return ElementaryString(new_id, self.target_lagrangian,
                                self.source_lagrangian, n - self.index)


@dataclass(frozen=True)
class OpenString:
    """An ordered word of elementary strings plus a shift class.

    cardinality = number of factors (0 for the empty string); total index
    mu = sum of factor indices + shift.
    """

    factors: Tuple[ElementaryString, ...] = ()
    shift: int = 0

    @property
    def cardinality(self) -> int:
        return len(self.factors)

    @property
    def mu(self) -> int:
        return sum(f.index for f in self.factors) + self.shift


EMPTY = OpenString()


def dual(s: OpenString, n: int) -> OpenString:
    """The dual string: factor order reversed, each factor dualized.

    On a cardinality-q word, mu(s) + mu(dual(s, n)) = n*q and the shift is
    negated.  The empty string is special: its dual keeps no factors but
    carries index n (shift -> n - shift), so dual(dual(s, n), n) = s in every
    case.
    """
    if not s.factors:
        return OpenString((), n - s.shift)
    rev = tuple(f.dual(n) for f in reversed(s.factors))
    return OpenString(rev, -s.shift)


def tensor(a: OpenString, b: OpenString) -> OpenString:
    """Concatenation; the empty string is the unit; shifts add (only the
    total shift class is stored)."""
    return OpenString(a.factors + b.factors, a.shift + b.shift)


def shift(s: OpenString, e: int, n_modulus: int = 0) -> OpenString:
    """Act by the deck group: mu increases by e.  For a positive modulus N
    the shift class is tracked mod N (so in the N = 1 quotient all shifts of
    a word are identified)."""
    total = s.shift + e
    if n_modulus > 0:
        total %= n_modulus
    return OpenString(s.factors, total)

