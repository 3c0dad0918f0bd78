"""Reference implementations of ``openstrings.novikov`` operations, kept
only for the differential tests; the series type and the exceptions are
the library's own.

- ``fraction_series`` is the validating constructor from before it
  shared one integer builder with the parser: it merges like terms on
  ``Fraction`` exponents, drops zeros and sorts.  Every series below is
  built through it, so the reference does not run the library's builder.
- ``restrict`` and ``to_ring`` rebuild the ``Fraction`` terms through it,
  as the library did before they stayed on integer numerators.
- ``add``, ``mul``, ``neg`` and ``scale`` build every result through it,
  as the ring operations did before they built canonical results
  directly.  The one change is the cutoff of a product, which is the
  corrected rule min(C_a + v(b), C_b + v(a)): a series with a cutoff and
  no term below it counts as having valuation at its cutoff, and a
  product with an exact zero is exact.
- ``invert`` is the version from before the powers of its geometric
  series were truncated: every power is multiplied out in full and the
  terms at or above the target are dropped only at the end.  The one
  change is the cutoff of the result, which is the corrected rule
  ``a.cutoff - 2*valuation(a)``.  It runs on the library's operations.
- ``truncated_invert`` is the version from before the geometric series
  ran on one integer numerator table: every power is a
  ``NovikovSeries``, with ``Fraction`` coefficients over Q, cut at the
  target and canonicalized at each step.  It runs on the library's
  operations and builders.
- ``parse_series`` and ``format_series`` are the literal parser and
  printer from before series stored integer exponents: every number is
  read with ``Fraction(str)``, the series is built by ``fraction_series``,
  and the literal is printed from the ``Fraction`` terms."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from openstrings.novikov import (NotAUnit, NovikovSeries, ParseError,
                                 _as_exponent, _below, _canonical,
                                 _check_coeff, _check_ring, _new_series)


def fraction_series(terms=(), ring: str = "Z", cutoff=None) -> NovikovSeries:
    _check_ring(ring)
    cut = None if cutoff is None else _as_exponent(cutoff)
    merged = {}
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
    den = math.lcm(*(e.denominator for e, _ in clean))
    return _new_series(tuple((e.numerator * (den // e.denominator), c)
                             for e, c in clean), den, ring, cut)


def restrict(a: NovikovSeries, cutoff) -> NovikovSeries:
    cut = _as_exponent(cutoff)
    if a.cutoff is not None:
        cut = min(cut, a.cutoff)
    return fraction_series(a.terms, ring=a.ring, cutoff=cut)


def to_ring(a: NovikovSeries, ring: str) -> NovikovSeries:
    if ring == a.ring:
        return a
    return fraction_series(a.terms, ring=ring, cutoff=a.cutoff)


def add(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    return fraction_series(a.terms + b.terms, ring=a.ring,
                           cutoff=NovikovSeries._min_cutoff(a, b))


def neg(a: NovikovSeries) -> NovikovSeries:
    return fraction_series(tuple((e, -c) for e, c in a.terms), ring=a.ring,
                           cutoff=a.cutoff)


def mul(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    prod = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            prod[e] = prod.get(e, 0) + c1 * c2
    return fraction_series(prod.items(), ring=a.ring,
                           cutoff=_product_cutoff(a, b))


def _product_cutoff(a, b):
    cut = None
    for x, y in ((a, b), (b, a)):
        if x.cutoff is None:
            continue
        if y.terms:
            v = y.terms[0][0]
        elif y.cutoff is not None:
            v = y.cutoff
        else:
            return None
        cut = x.cutoff + v if cut is None else min(cut, x.cutoff + v)
    return cut


def scale(a: NovikovSeries, scalar) -> NovikovSeries:
    return fraction_series(tuple((e, c * scalar) for e, c in a.terms),
                           ring=a.ring, cutoff=a.cutoff)


def invert(a: NovikovSeries, cutoff) -> NovikovSeries:
    cut = _as_exponent(cutoff)
    if a.is_zero():
        raise NotAUnit("cannot invert the zero series")
    v = a.valuation()
    lc = a.leading_coefficient()
    if a.ring == "Z":
        if lc not in (1, -1):
            raise NotAUnit(f"leading coefficient {lc} is not a unit of Z")
        lc_inv = lc
    else:
        lc_inv = Fraction(1) / Fraction(lc)

    target = cut - v
    body_cut = target - v
    unit = fraction_series(tuple((e - v, c * lc_inv) for e, c in a.terms),
                           ring=a.ring)
    r = unit - NovikovSeries.one(a.ring)
    acc = NovikovSeries.one(a.ring)
    power = NovikovSeries.one(a.ring)
    if not r.is_zero():
        step = r.valuation()
        k = 1
        while k * step < target:
            power = fraction_series(((-r) * power).terms, ring=a.ring)
            acc = acc + power
            k += 1
    shifted = fraction_series(tuple((e - v, c * lc_inv) for e, c in acc.terms),
                              ring=a.ring)
    known = None if a.cutoff is None else a.cutoff - 2 * v
    return fraction_series(tuple(t for t in shifted.terms if t[0] < body_cut),
                           ring=a.ring, cutoff=known)


def truncated_invert(a: NovikovSeries, cutoff) -> NovikovSeries:
    cut = _as_exponent(cutoff)
    if a.is_zero():
        raise NotAUnit("cannot invert the zero series")
    v = a.valuation()
    lc = a.leading_coefficient()
    if a.ring == "Z":
        if lc not in (1, -1):
            raise NotAUnit(f"leading coefficient {lc} is not a unit of Z")
        lc_inv = lc
    else:
        lc_inv = Fraction(1) / Fraction(lc)

    target = cut - v
    body_cut = target - v
    one = NovikovSeries.one(a.ring)
    n0 = a.pairs[0][0]
    r = _canonical([(n - n0, c * lc_inv) for n, c in a.pairs], a.den,
                   a.ring, None) - one
    acc = power = one
    if not r.is_zero():
        minus_r = -r
        step = r.valuation()
        k = 1
        while k * step < target:
            p = minus_r * power
            power = _canonical(_below(p.pairs, p.den, target), p.den,
                               a.ring, None)
            acc = acc + power
            k += 1
    known = None if a.cutoff is None else a.cutoff - 2 * v
    bound = body_cut if known is None else min(body_cut, known)
    scale = a.den // acc.den
    terms = [(n * scale - n0, c * lc_inv) for n, c in acc.pairs]
    return _canonical(_below(terms, a.den, bound), a.den, a.ring, known)

_TERM_RE = re.compile(
    r"(?P<coeff>\d+(?:/\d+)?)?t\^(?P<exp>-?\d+(?:/\d+)?)$|(?P<const>\d+(?:/\d+)?)$"
)


def format_series(a: NovikovSeries) -> str:
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


def parse_series(text: str, ring: str = "Z", cutoff=None) -> NovikovSeries:
    stripped = []
    col_of = []
    for idx, ch in enumerate(text):
        if not ch.isspace():
            stripped.append(ch)
            col_of.append(idx + 1)
    if not stripped:
        raise ParseError("empty series literal", 1, 1)
    compact = "".join(stripped)
    if compact == "0":
        return fraction_series((), ring=ring, cutoff=cutoff)

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
    return fraction_series(terms, ring=ring, cutoff=cutoff)
