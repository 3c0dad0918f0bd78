"""Exact arithmetic in the universal coefficient ring of formal series t^a.

Elements are finite formal sums ``sum_a n_a * t^a`` with exact rational
exponents ``a`` and integer (or rational) coefficients ``n_a``, ordered by
strictly increasing exponent.  An optional *cutoff* marks a series as "known
below the cutoff only": all stored exponents are < cutoff.  This makes the
well-ordered finiteness condition (finitely many terms below any bound)
structural instead of lazy, and keeps equality decidable.  A sum carries
the minimum of the operand cutoffs and a product min(C_a + v(b),
C_b + v(a)), so products of truncated series do not depend on their
grouping.  A series stores its exponents as integer numerators over their
least common denominator, so its arithmetic runs on Python ints;
:func:`invert` sums its geometric series on one table of integer
numerators, scaled by D^K, and forms one ``Fraction`` per output term.

The coefficient ring is a parameter: ``ring="Z"`` stores ints, ``ring="Q"``
stores Fractions.  Rank computations downstream use Q; unit-pivot
elimination and torsion-sensitive statements use Z.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd
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


def _rational(value, what: str) -> Fraction:
    """A JSON number or numeric string (an exponent or an action value) as
    a Fraction; a zero denominator raises ValueError naming ``what`` and
    the value."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"{what} {value!r} has a zero denominator") from None


def _check_ring(ring: str) -> None:
    if ring not in ("Z", "Q"):
        raise ValueError(f"unknown coefficient ring {ring!r} (expected 'Z' or 'Q')")


def _check_coeff(value, ring: str):
    if isinstance(value, bool):
        raise TypeError(f"coefficient must be an int or Fraction, got bool {value!r}")
    if ring == "Z":
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise TypeError(f"ring Z requires integer coefficients, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"ring Q requires rational coefficients, got {value!r}")


class NovikovSeries:
    """A finite formal series with strictly increasing rational exponents.

    Instances are immutable value objects.  ``terms`` is any iterable of
    ``(exponent, coefficient)`` pairs; like terms are merged and zero
    coefficients dropped on construction.

    The stored form is canonical.  ``den`` is the least common
    denominator of the exponents (1 for the zero series), and ``pairs``
    holds one ``(numerator, coefficient)`` pair per term, the exponent
    being ``numerator / den``: strictly increasing integer numerators,
    every exponent below the cutoff, no zero coefficient, ``int``
    coefficients over Z and ``Fraction`` coefficients over Q.  The
    ``terms`` attribute is a view derived from it, the
    ``(Fraction exponent, coefficient)`` pairs in the same order.  This
    constructor checks each term and builds the form with ``_series``, as
    :func:`parse_series` does; the other operations keep it, building
    from ``pairs`` and checking only the coefficients they make.
    """

    __slots__ = ("pairs", "den", "ring", "cutoff")

    def __init__(self, terms: Iterable[Tuple[ExponentLike, object]] = (),
                 ring: str = "Z", cutoff: ExponentLike | None = None):
        _check_ring(ring)
        cut = None if cutoff is None else _as_exponent(cutoff)
        triples = []
        for exp, coeff in terms:
            e = _as_exponent(exp)
            triples.append((e.numerator, e.denominator, _check_coeff(coeff, ring)))
        s = _series(triples, ring, cut)
        _set_pairs(self, s.pairs)
        _set_den(self, s.den)
        _set_ring(self, ring)
        _set_cutoff(self, cut)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("NovikovSeries is immutable")

    @property
    def terms(self) -> tuple:
        """The ``(exponent, coefficient)`` pairs, exponents as ``Fraction``,
        in increasing order."""
        d = self.den
        return tuple((Fraction(n, d), c) for n, c in self.pairs)

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
        return not self.pairs

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def valuation(self):
        """Least exponent with nonzero coefficient; +inf for the zero series."""
        if not self.pairs:
            return INFINITY
        return Fraction(self.pairs[0][0], self.den)

    def leading_coefficient(self):
        if not self.pairs:
            raise ValueError("zero series has no leading coefficient")
        return self.pairs[0][1]

    def coefficient(self, exponent: ExponentLike):
        e = _as_exponent(exponent)
        target = e.numerator * self.den
        for n, c in self.pairs:
            if n * e.denominator == target:
                return c
        return Fraction(0) if self.ring == "Q" else 0

    def restrict(self, cutoff: ExponentLike) -> "NovikovSeries":
        """Forget everything at or above ``cutoff``."""
        cut = _as_exponent(cutoff)
        if self.cutoff is not None:
            cut = min(cut, self.cutoff)
        return _canonical(_below(self.pairs, self.den, cut), self.den,
                          self.ring, cut)

    def to_ring(self, ring: str) -> "NovikovSeries":
        if ring == self.ring:
            return self
        _check_ring(ring)
        return _new_series([(n, _check_coeff(c, ring)) for n, c in self.pairs],
                           self.den, ring, self.cutoff)

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

    @staticmethod
    def _product_cutoff(a: "NovikovSeries", b: "NovikovSeries"):
        """min(C_a + v(b), C_b + v(a)): ``a`` known below C_a times ``b``
        of valuation v(b) is known below C_a + v(b).  A series with a
        cutoff and no term below it has valuation at least its cutoff; an
        exact zero factor makes the product exact."""
        bounds = [x.cutoff + (y.valuation() if y.cutoff is None
                              else min(y.valuation(), y.cutoff))
                  for x, y in ((a, b), (b, a)) if x.cutoff is not None]
        cut = min(bounds, default=INFINITY)
        return None if cut == INFINITY else cut

    def __add__(self, other):
        if type(other) is not NovikovSeries or other.ring != self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, den = _common(self, other)
        out = []
        i = j = 0
        cancelled = False
        while i < len(a) and j < len(b):
            na, nb = a[i][0], b[j][0]
            if na < nb:
                out.append(a[i])
                i += 1
            elif nb < na:
                out.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((na, c))
                else:
                    cancelled = True
                i += 1
                j += 1
        out += a[i:]
        out += b[j:]
        cut = self._min_cutoff(self, other)
        kept = _below(out, den, cut)
        # with every term of a and of b kept, the numerators stay coprime
        # to the lcm of their denominators
        if cancelled or len(kept) < len(out):
            return _canonical(kept, den, self.ring, cut)
        return _new_series(kept, den, self.ring, cut)

    __radd__ = __add__

    def __neg__(self):
        return _new_series(tuple((n, -c) for n, c in self.pairs), self.den,
                           self.ring, self.cutoff)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not NovikovSeries or other.ring != self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        cut = (None if self.cutoff is None and other.cutoff is None
               else self._product_cutoff(self, other))
        a, b = self, other
        if len(a.pairs) > len(b.pairs):
            a, b = b, a
        if len(a.pairs) > 1:
            pa, pb, den = _common(a, b)
            prod: dict[int, object] = {}
            for n1, c1 in pa:
                for n2, c2 in pb:
                    n = n1 + n2
                    prod[n] = prod.get(n, 0) + c1 * c2
            terms = [t for t in sorted(prod.items(), key=itemgetter(0)) if t[1]]
            return _canonical(_below(terms, den, cut), den, self.ring, cut)
        if not a.pairs:
            return _new_series((), 1, self.ring, cut)
        # a monomial: a shift of b, with no zero products (Z and Q are
        # integral domains) and no reordering.  Over coprime denominators
        # the shifted numerators stay coprime to the product denominator.
        (n0, c0), = a.pairs
        g = gcd(a.den, b.den)
        den = a.den // g * b.den
        if n0:
            k, shift = den // b.den, n0 * (den // a.den)
            terms = [(n * k + shift, c * c0) for n, c in b.pairs]
        elif c0 == 1:
            terms = b.pairs
        else:
            terms = [(n, c * c0) for n, c in b.pairs]
        kept = _below(terms, den, cut)
        if g == 1 and len(kept) == len(terms):
            return _new_series(kept, den, self.ring, cut)
        return _canonical(kept, den, self.ring, cut)

    __rmul__ = __mul__

    def scale(self, scalar) -> "NovikovSeries":
        if isinstance(scalar, (int, Fraction)) and scalar in (1, -1):
            return self if scalar == 1 else -self
        pairs = [(n, _check_coeff(c * scalar, self.ring)) for n, c in self.pairs]
        return _canonical([t for t in pairs if t[1]], self.den, self.ring,
                          self.cutoff)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return ((self.pairs, self.den, self.ring, self.cutoff)
                == (other.pairs, other.den, other.ring, other.cutoff))

    def __hash__(self):
        return hash((self.pairs, self.den, self.ring, self.cutoff))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        cut = "" if self.cutoff is None else f", cutoff={self.cutoff}"
        return f"NovikovSeries({format_series(self)!r}, ring={self.ring!r}{cut})"


_new = object.__new__
# the slot descriptors' own setters: NovikovSeries.__setattr__ refuses writes
_set_pairs = NovikovSeries.pairs.__set__
_set_den = NovikovSeries.den.__set__
_set_ring = NovikovSeries.ring.__set__
_set_cutoff = NovikovSeries.cutoff.__set__
_numerator = itemgetter(0)


def _new_series(pairs, den: int, ring: str, cutoff) -> NovikovSeries:
    """The series on ``pairs`` over ``den``, which must already be
    canonical for ``ring`` and ``cutoff`` (see :class:`NovikovSeries`);
    nothing is checked."""
    s = _new(NovikovSeries)
    _set_pairs(s, tuple(pairs))
    _set_den(s, den)
    _set_ring(s, ring)
    _set_cutoff(s, cutoff)
    return s


def _canonical(pairs, den: int, ring: str, cutoff) -> NovikovSeries:
    """The series on ``pairs`` over ``den``, canonical except that ``den``
    may be a multiple of the least common denominator; one gcd pass
    reduces it."""
    if den != 1:
        g = gcd(den, *map(_numerator, pairs))
        if g != 1:
            den //= g
            pairs = [(n // g, c) for n, c in pairs]
    return _new_series(pairs, den, ring, cutoff)


def _series(terms, ring: str, cutoff) -> NovikovSeries:
    """The canonical series on ``terms``, a list of (exponent numerator,
    exponent denominator, coefficient) triples in any order, coefficients
    in ``ring``: like terms merged, zero sums and exponents at or above
    ``cutoff`` dropped."""
    den = math.lcm(*(ed for _, ed, _ in terms))
    merged: dict[int, object] = {}
    for en, ed, coeff in terms:
        n = en * (den // ed)
        merged[n] = merged.get(n, 0) + coeff
    pairs = [t for t in sorted(merged.items(), key=itemgetter(0)) if t[1]]
    return _canonical(_below(pairs, den, cutoff), den, ring, cutoff)


def _common(a: NovikovSeries, b: NovikovSeries):
    """The pairs of ``a`` and ``b`` over the lcm of their denominators,
    and that lcm."""
    da, db = a.den, b.den
    if da == db:
        return a.pairs, b.pairs, da
    den = da // gcd(da, db) * db
    ka, kb = den // da, den // db
    return ([(n * ka, c) for n, c in a.pairs], [(n * kb, c) for n, c in b.pairs],
            den)


def _below(pairs, den: int, cutoff):
    """The sorted ``pairs`` over ``den`` with exponent below ``cutoff``
    (all if None)."""
    if cutoff is None or not pairs:
        return pairs
    bound, cd = cutoff.numerator * den, cutoff.denominator
    if pairs[-1][0] * cd < bound:
        return pairs
    k = 0
    while pairs[k][0] * cd < bound:
        k += 1
    return pairs[:k]


# ---------------------------------------------------------------------------
# module-level operation names (the library API mirrors these)
# ---------------------------------------------------------------------------

def add(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Termwise sum; zero coefficients dropped; cutoff = min of cutoffs."""
    return a + b


def mul(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Cauchy product on exponents; exact on finite series, truncated at
    min(C_a + v(b), C_b + v(a)) otherwise."""
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

    With a = lc t^v (1 + r), the geometric series sum (-r)^k runs
    fraction-free on one table of integer numerators: -r is R / D, D the
    lcm of its coefficients' denominators (1 over Z), and the k-th power
    is kept as Q_k = R Q_(k-1) / D, an exact division, from Q_0 = D^K,
    K the last power below the target.  Each output coefficient is one
    ``Fraction``, over D^K lc.
    """
    if not isinstance(a, NovikovSeries):
        raise TypeError(
            f"invert takes a NovikovSeries, got {type(a).__name__} {a!r}")
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

    target = cut - v          # product must be 1 below this exponent
    body_cut = target - v     # equivalently: b's support lives below cut - 2v
    # exponents are numerators over a.den; those below the target are
    # the ones below lim
    den, n0 = a.den, a.pairs[0][0]
    lim = -(-target.numerator * den // target.denominator)
    # -r = r_num / d; every term of r has a positive exponent, so a term
    # of a power at or above the target only feeds terms at or above it:
    # drop them at once, and stop after the last power below it (K)
    minus_r = [(n - n0, -c * lc_inv) for n, c in a.pairs[1:]]
    d = math.lcm(*(c.denominator for _, c in minus_r))
    r_num = [(n, c.numerator * (d // c.denominator)) for n, c in minus_r]
    last = max(0, (lim - 1) // r_num[0][0]) if r_num else 0
    scale = d ** last
    power = {0: scale}
    acc = dict(power)
    for _ in range(last):
        prod: dict[int, int] = {}
        for n2, c2 in power.items():
            for n1, c1 in r_num:
                n = n1 + n2
                if n >= lim:
                    break
                prod[n] = prod.get(n, 0) + c1 * c2
        power = {n: c // d for n, c in prod.items() if c}
        for n, c in power.items():
            acc[n] = acc.get(n, 0) + c
    # a is known below a.cutoff, so 1 + r below a.cutoff - v, and b below
    # a.cutoff - 2v
    known = None if a.cutoff is None else a.cutoff - 2 * v
    bound = body_cut if known is None else min(body_cut, known)
    # b = t^-v acc / (D^K lc)
    num, dnm = lc_inv.numerator, scale * lc_inv.denominator
    pairs = sorted((n - n0, c * num) for n, c in acc.items() if c)
    if a.ring == "Q":
        pairs = [(n, Fraction(c, dnm)) for n, c in pairs]
    return _canonical(_below(pairs, den, bound), den, a.ring, known)


# ---------------------------------------------------------------------------
# literal format:  signed terms `c t^p/q` joined by + / -
# e.g.  "3t^1/2 - 2t^0 + t^7/3"
# ---------------------------------------------------------------------------

# one signed term, ending where the next sign (or the text) starts; the
# numbers are digit strings, so every part is read by int()
_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?:(?:(?P<cn>\d+)(?:/(?P<cd>\d+))?)?t\^(?P<en>-?\d+)(?:/(?P<ed>\d+))?"
    r"|(?P<kn>\d+)(?:/(?P<kd>\d+))?)(?=[+-]|$)")
# what a term spans when it is malformed: up to the next sign, where a '-'
# directly after '^' belongs to a negative exponent
_CHUNK_RE = re.compile(r"(?:[^+\-^]|\^-?)*")


def _column(text: str, k: int) -> int:
    """1-based column in ``text`` of its ``k``-th non-space character
    (counted from 0), or of its last one if there are fewer."""
    seen = 0
    for idx, ch in enumerate(text):
        if not ch.isspace():
            if seen == k:
                return idx + 1
            seen += 1
            last = idx + 1
    return last


def format_series(a: NovikovSeries) -> str:
    """Canonical literal: increasing exponents, unit coefficients elided."""
    if not a.pairs:
        return "0"
    d = a.den
    parts = []
    for k, (n, c) in enumerate(a.pairs):
        neg = c < 0
        mag = -c if neg else c
        if isinstance(mag, Fraction) and mag.denominator == 1:
            mag = mag.numerator
        if d == 1:
            exp = n
        else:
            g = gcd(n, d)
            exp = n // g if g == d else f"{n // g}/{d // g}"
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
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty series literal", 1, 1)

    terms = []  # (exponent numerator, exponent denominator, coefficient)
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        start = pos + (compact[pos] in "+-")
        if m is None:
            chunk = _CHUNK_RE.match(compact, start).group()
            raise ParseError(f"malformed term {chunk!r}", 1,
                             _column(text, start))
        pos = m.end()
        cn, cd, en, ed, kn, kd = m.group("cn", "cd", "en", "ed", "kn", "kd")
        if kn is not None:
            cn, cd, en = kn, kd, 0
        cn = 1 if cn is None else int(cn)
        cd = 1 if cd is None else int(cd)
        en, ed = int(en), 1 if ed is None else int(ed)
        if not cd or not ed:
            raise ParseError(f"zero denominator in term {compact[start:pos]!r}",
                             1, _column(text, start))
        if m.group("sign") == "-":
            cn = -cn
        if ring == "Z":
            if cn % cd:
                raise ParseError(f"coefficient {Fraction(cn, cd)} is not an "
                                 "integer (ring Z)", 1, _column(text, start))
            coeff = cn // cd
        else:
            coeff = Fraction(cn, cd)
        terms.append((en, ed, coeff))
    _check_ring(ring)
    return _series(terms, ring, None if cutoff is None else _as_exponent(cutoff))
