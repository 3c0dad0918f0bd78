"""Exact arithmetic in the universal coefficient ring of formal series t^a.

Elements are finite formal sums ``sum_a n_a * t^a`` with exact rational
exponents ``a`` and integer (or rational) coefficients ``n_a``, ordered by
strictly increasing exponent.  An optional *cutoff* marks a series as "known
below the cutoff only": all stored exponents are < cutoff and arithmetic
results carry the minimum of the operand cutoffs.  This makes the
well-ordered finiteness condition (finitely many terms below any bound)
structural instead of lazy, and keeps equality decidable.

The coefficient ring is a parameter: ``ring="Z"`` stores ints, ``ring="Q"``
stores Fractions.  Rank computations downstream use Q; unit-pivot
elimination and torsion-sensitive statements use Z.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Tuple, Union

__all__ = [
    "NovikovSeries",
    "NotAUnit",
    "ParseError",
    "add",
    "mul",
    "valuation",
    "invert",
    "parse_series",
    "format_series",
]

ExponentLike = Union[int, Fraction]
INFINITY = math.inf


class NotAUnit(ValueError):
    """Leading coefficient is not invertible in the chosen coefficient ring."""


class ParseError(ValueError):
    """Malformed series literal.  Carries 1-based ``line`` and ``column``."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _as_exponent(value: ExponentLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(
        f"exponent must be an int or Fraction, got {type(value).__name__} {value!r}")


def _check_coeff(value, ring: str):
    if isinstance(value, bool):
        raise TypeError(f"coefficient must be an int or Fraction, got bool {value!r}")
    if ring == "Z":
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise TypeError(f"ring Z requires integer coefficients, got {value!r}")
    if ring == "Q":
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"ring Q requires rational coefficients, got {value!r}")
    raise ValueError(f"unknown coefficient ring {ring!r} (expected 'Z' or 'Q')")


class NovikovSeries:
    """A finite formal series with strictly increasing rational exponents.

    Instances are immutable value objects.  ``terms`` is any iterable of
    ``(exponent, coefficient)`` pairs; like terms are merged and zero
    coefficients dropped on construction.

    The stored terms are canonical: strictly increasing ``Fraction``
    exponents, all below the cutoff, no zero coefficient, ``int``
    coefficients over Z and ``Fraction`` coefficients over Q.  This
    constructor checks its input; the ring operations keep the form and
    build their results directly (``_canonical``), without checking again.
    """

    __slots__ = ("terms", "ring", "cutoff")

    def __init__(self, terms: Iterable[Tuple[ExponentLike, object]] = (),
                 ring: str = "Z", cutoff: ExponentLike | None = None):
        if ring not in ("Z", "Q"):
            raise ValueError(f"unknown coefficient ring {ring!r} (expected 'Z' or 'Q')")
        cut = None if cutoff is None else _as_exponent(cutoff)
        merged: dict[Fraction, object] = {}
        for exp, coeff in terms:
            e = _as_exponent(exp)
            c = _check_coeff(coeff, ring)
            if e in merged:
                merged[e] = merged[e] + c
            else:
                merged[e] = c
        clean = []
        for e in sorted(merged):
            c = merged[e]
            if c == 0:
                continue
            if cut is not None and e >= cut:
                continue
            clean.append((e, c))
        object.__setattr__(self, "terms", tuple(clean))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "cutoff", cut)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("NovikovSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: str = "Z") -> "NovikovSeries":
        return cls((), ring=ring)

    @classmethod
    def one(cls, ring: str = "Z") -> "NovikovSeries":
        return cls(((0, 1),), ring=ring)

    @classmethod
    def monomial(cls, coefficient, exponent: ExponentLike = 0,
                 ring: str = "Z", cutoff: ExponentLike | None = None) -> "NovikovSeries":
        return cls(((exponent, coefficient),), ring=ring, cutoff=cutoff)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def valuation(self):
        """Least exponent with nonzero coefficient; +inf for the zero series."""
        if not self.terms:
            return INFINITY
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero series has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, exponent: ExponentLike):
        e = _as_exponent(exponent)
        for te, tc in self.terms:
            if te == e:
                return tc
        return Fraction(0) if self.ring == "Q" else 0

    def restrict(self, cutoff: ExponentLike) -> "NovikovSeries":
        """Forget everything at or above ``cutoff``."""
        cut = _as_exponent(cutoff)
        if self.cutoff is not None:
            cut = min(cut, self.cutoff)
        return NovikovSeries(self.terms, ring=self.ring, cutoff=cut)

    def to_ring(self, ring: str) -> "NovikovSeries":
        if ring == self.ring:
            return self
        return NovikovSeries(self.terms, ring=ring, cutoff=self.cutoff)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "NovikovSeries":
        if isinstance(other, NovikovSeries):
            if other.ring != self.ring:
                raise ValueError(f"mixed coefficient rings: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int) or (isinstance(other, Fraction) and self.ring == "Q"):
            return NovikovSeries.monomial(other, 0, ring=self.ring)
        return NotImplemented

    @staticmethod
    def _min_cutoff(a: "NovikovSeries", b: "NovikovSeries"):
        if a.cutoff is None:
            return b.cutoff
        if b.cutoff is None:
            return a.cutoff
        return min(a.cutoff, b.cutoff)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, eb = a[i][0], b[j][0]
            if ea < eb:
                out.append(a[i])
                i += 1
            elif eb < ea:
                out.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((ea, c))
                i += 1
                j += 1
        out += a[i:]
        out += b[j:]
        cut = self._min_cutoff(self, other)
        return _canonical(_below(out, cut), self.ring, cut)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(tuple((e, -c) for e, c in self.terms),
                          self.ring, self.cutoff)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cut = self._min_cutoff(self, other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) > 1:
            prod: dict[Fraction, object] = {}
            for e1, c1 in a:
                for e2, c2 in b:
                    e = e1 + e2
                    prod[e] = prod.get(e, 0) + c1 * c2
            terms = [t for t in sorted(prod.items(), key=itemgetter(0)) if t[1]]
        elif not a:
            terms = ()
        else:
            # a monomial: a shift of b, with no zero products (Z and Q are
            # integral domains) and no reordering
            (e0, c0), = a
            if e0:
                terms = [(e + e0, c * c0) for e, c in b]
            elif c0 == 1:
                terms = b
            else:
                terms = [(e, c * c0) for e, c in b]
        return _canonical(_below(terms, cut), self.ring, cut)

    __rmul__ = __mul__

    def scale(self, scalar) -> "NovikovSeries":
        if isinstance(scalar, (int, Fraction)) and scalar in (1, -1):
            return self if scalar == 1 else -self
        return NovikovSeries(tuple((e, c * scalar) for e, c in self.terms),
                             ring=self.ring, cutoff=self.cutoff)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return (self.terms, self.ring, self.cutoff) == (other.terms, other.ring, other.cutoff)

    def __hash__(self):
        return hash((self.terms, self.ring, self.cutoff))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        cut = "" if self.cutoff is None else f", cutoff={self.cutoff}"
        return f"NovikovSeries({format_series(self)!r}, ring={self.ring!r}{cut})"


_new = object.__new__
# the slot descriptors' own setters: NovikovSeries.__setattr__ refuses writes
_set_terms = NovikovSeries.terms.__set__
_set_ring = NovikovSeries.ring.__set__
_set_cutoff = NovikovSeries.cutoff.__set__


def _canonical(terms, ring: str, cutoff) -> NovikovSeries:
    """The series on ``terms``, which must already be canonical for ``ring``
    and ``cutoff`` (see :class:`NovikovSeries`); nothing is checked."""
    s = _new(NovikovSeries)
    _set_terms(s, tuple(terms))
    _set_ring(s, ring)
    _set_cutoff(s, cutoff)
    return s


def _below(terms, cutoff):
    """The sorted ``terms`` with exponent below ``cutoff`` (all if None)."""
    if cutoff is None or not terms or terms[-1][0] < cutoff:
        return terms
    k = 0
    while terms[k][0] < cutoff:
        k += 1
    return terms[:k]


# ---------------------------------------------------------------------------
# module-level operation names (the library API mirrors these)
# ---------------------------------------------------------------------------

def add(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Termwise sum; zero coefficients dropped; cutoff = min of cutoffs."""
    return a + b


def mul(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Cauchy product on exponents; exact on finite series, truncated at the
    minimum cutoff otherwise."""
    return a * b


def valuation(a: NovikovSeries):
    """Least exponent with nonzero coefficient; +inf for the zero series."""
    return a.valuation()


def invert(a: NovikovSeries, cutoff: ExponentLike) -> NovikovSeries:
    """Inverse of ``a`` up to the given precision.

    Returns ``b`` with ``mul(a, b) == 1`` modulo terms with exponent
    >= cutoff - valuation(a).  The leading coefficient of ``a`` must be a
    unit of the coefficient ring (+-1 over Z, any nonzero rational over Q).
    If ``a`` is known only below its cutoff C, then ``b`` is known only
    below C - 2*valuation(a), and that is the cutoff ``b`` carries.
    """
    cut = _as_exponent(cutoff)
    if a.is_zero():
        raise NotAUnit("cannot invert the zero series")
    v = a.valuation()
    lc = a.leading_coefficient()
    if a.ring == "Z":
        if lc not in (1, -1):
            raise NotAUnit(f"leading coefficient {lc} is not a unit of Z")
        lc_inv = lc  # +-1 is its own inverse
    else:
        lc_inv = Fraction(1) / Fraction(lc)

    # a = lc * t^v * (1 + r) with valuation(r) > 0; invert the unit part by
    # the geometric series, which stabilizes below any fixed precision.
    # Every term of r has a positive exponent, so a term of a power at or
    # above the target only feeds terms at or above it: drop them at once.
    target = cut - v          # product must be 1 below this exponent
    body_cut = target - v     # equivalently: b's support lives below cut - 2v
    one = NovikovSeries.one(a.ring)
    r = _canonical([(e - v, c * lc_inv) for e, c in a.terms], a.ring, None) - one
    acc = power = one
    if not r.is_zero():
        minus_r = -r
        step = r.valuation()
        k = 1
        while k * step < target:
            power = _canonical(_below((minus_r * power).terms, target),
                               a.ring, None)
            acc = acc + power
            k += 1
    # a is known below a.cutoff, so 1 + r below a.cutoff - v, and b below
    # a.cutoff - 2v
    known = None if a.cutoff is None else a.cutoff - 2 * v
    bound = body_cut if known is None else min(body_cut, known)
    return _canonical(_below([(e - v, c * lc_inv) for e, c in acc.terms], bound),
                      a.ring, known)


# ---------------------------------------------------------------------------
# literal format:  signed terms `c t^p/q` joined by + / -
# e.g.  "3t^1/2 - 2t^0 + t^7/3"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"(?P<coeff>\d+(?:/\d+)?)?t\^(?P<exp>-?\d+(?:/\d+)?)$|(?P<const>\d+(?:/\d+)?)$"
)


def format_series(a: NovikovSeries) -> str:
    """Canonical literal: increasing exponents, unit coefficients elided."""
    if not a.terms:
        return "0"
    parts = []
    for k, (e, c) in enumerate(a.terms):
        neg = c < 0
        mag = -c if neg else c
        if isinstance(mag, Fraction) and mag.denominator == 1:
            mag = mag.numerator
        exp = e.numerator if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        body = f"t^{exp}" if mag == 1 else f"{mag}t^{exp}"
        if k == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)


def parse_series(text: str, ring: str = "Z",
                 cutoff: ExponentLike | None = None) -> NovikovSeries:
    """Parse a series literal.  Whitespace-insensitive; round-trips with
    :func:`format_series`.  Raises :class:`ParseError` with a 1-based column
    on malformed input."""
    stripped = []
    col_of = []  # original column of every retained character
    for idx, ch in enumerate(text):
        if not ch.isspace():
            stripped.append(ch)
            col_of.append(idx + 1)
    if not stripped:
        raise ParseError("empty series literal", 1, 1)
    compact = "".join(stripped)
    if compact == "0":
        return NovikovSeries((), ring=ring, cutoff=cutoff)

    terms = []
    pos = 0
    first = True
    while pos < len(compact):
        sign = 1
        if compact[pos] in "+-":
            if compact[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms",
                             1, col_of[min(pos, len(col_of) - 1)])
        start = pos
        while pos < len(compact) and compact[pos] not in "+-":
            # a '-' directly after '^' belongs to a negative exponent
            pos += 1
            if pos < len(compact) and compact[pos] == "-" and compact[pos - 1] == "^":
                pos += 1
        chunk = compact[start:pos]
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ParseError(f"malformed term {chunk!r}",
                             1, col_of[min(start, len(col_of) - 1)])
        if m.group("const") is not None:
            coeff = Fraction(m.group("const"))
            exp = Fraction(0)
        else:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            exp = Fraction(m.group("exp"))
        coeff = coeff * sign
        if ring == "Z" and coeff.denominator != 1:
            raise ParseError(f"coefficient {coeff} is not an integer (ring Z)",
                             1, col_of[min(start, len(col_of) - 1)])
        terms.append((exp, int(coeff) if ring == "Z" else coeff))
        first = False
    return NovikovSeries(terms, ring=ring, cutoff=cutoff)
