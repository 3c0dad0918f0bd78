"""Reference implementations of ``openstrings.novikov`` operations, kept
only for the differential tests; the series type and the exceptions are
the library's own.

- ``add``, ``mul``, ``neg`` and ``scale`` build every result through the
  validating public constructor, which merges like terms, drops zeros and
  sorts, as the ring operations did before they built canonical results
  directly.
- ``invert`` is the version from before the powers of its geometric
  series were truncated: every power is multiplied out in full and the
  terms at or above the target are dropped only at the end.  The one
  change is the cutoff of the result, which is the corrected rule
  ``a.cutoff - 2*valuation(a)``.  It runs on the library's operations."""

from __future__ import annotations

from fractions import Fraction

from openstrings.novikov import NotAUnit, NovikovSeries, _as_exponent


def add(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    return NovikovSeries(a.terms + b.terms, ring=a.ring,
                         cutoff=NovikovSeries._min_cutoff(a, b))


def neg(a: NovikovSeries) -> NovikovSeries:
    return NovikovSeries(tuple((e, -c) for e, c in a.terms), ring=a.ring,
                         cutoff=a.cutoff)


def mul(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    prod = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            prod[e] = prod.get(e, 0) + c1 * c2
    return NovikovSeries(prod.items(), ring=a.ring,
                         cutoff=NovikovSeries._min_cutoff(a, b))


def scale(a: NovikovSeries, scalar) -> NovikovSeries:
    return NovikovSeries(tuple((e, c * scalar) for e, c in a.terms),
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
    unit = NovikovSeries(tuple((e - v, c * lc_inv) for e, c in a.terms), ring=a.ring)
    r = unit - NovikovSeries.one(a.ring)
    acc = NovikovSeries.one(a.ring)
    power = NovikovSeries.one(a.ring)
    if not r.is_zero():
        step = r.valuation()
        k = 1
        while k * step < target:
            power = NovikovSeries(((-r) * power).terms, ring=a.ring)
            acc = acc + power
            k += 1
    shifted = NovikovSeries(tuple((e - v, c * lc_inv) for e, c in acc.terms),
                            ring=a.ring)
    known = None if a.cutoff is None else a.cutoff - 2 * v
    return NovikovSeries(tuple(t for t in shifted.terms if t[0] < body_cut),
                         ring=a.ring, cutoff=known)
