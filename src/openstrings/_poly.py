"""Integer polynomials {exponent: nonzero int} (zero is {}), Laurent in
``ainfty.cohomology``, ordinary in ``maslov`` and as face-counting
polynomials in ``polytopes``: Bareiss determinants,
exact division (exact in Z[t] by Gauss's lemma for primitive divisors),
sign-preserving primitive pseudo-remainders, and signs and integer
matrices at rationals by one homogeneous Horner evaluation, all without
leaving Z."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

IntPoly = Dict[int, int]


class InexactDivision(ArithmeticError):
    """A fraction-free elimination step left a nonzero remainder."""


def _exact_div(a: dict, b: dict) -> dict:
    """Quotient a / b of Laurent polynomials, by long division from the
    lowest term up; raises InexactDivision on a nonzero remainder."""
    if len(b) == 1:
        (eb, cb), = b.items()
        q = {}
        for e, c in a.items():
            q[e - eb], rem = divmod(c, cb)
            if rem:
                raise InexactDivision(f"{c} is not divisible by {cb}")
        return q
    rest = dict(a)
    low = min(b)
    lead = b[low]
    top = max(a) - max(b)
    q = {}
    while rest:
        least = min(rest)
        e = least - low
        c, rem = divmod(rest[least], lead)
        if rem or e > top:
            raise InexactDivision("Bareiss step left a remainder")
        q[e] = c
        for eb, cb in b.items():
            k = e + eb
            v = rest.get(k, 0) - c * cb
            if v:
                rest[k] = v
            else:
                rest.pop(k, None)
    return q


def _bareiss_entry(p: dict, a: dict, x: dict, y: dict, prev: dict) -> dict:
    """(p*a - x*y) / prev, the fraction-free update of one entry."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in a.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) - c1 * c2
    out = {e: c for e, c in out.items() if c}
    return _exact_div(out, prev) if out else out


def det(M: List[List[IntPoly]]) -> IntPoly:
    """Determinant by Bareiss elimination, swapping in a row with a
    nonzero entry (and flipping the sign) when a pivot vanishes."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, {0: 1}
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k]), None)
        if piv is None:
            return {}
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p = A[k][k]
        for row in A[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = _bareiss_entry(p, row[j], x, A[k][j], prev)
        prev = p
    return {e: sign * c for e, c in prev.items()}


def degree(p: IntPoly) -> int:
    return max(p, default=-1)


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def sub(p: IntPoly, q: IntPoly) -> IntPoly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def derivative(p: IntPoly) -> IntPoly:
    return {e - 1: e * c for e, c in p.items() if e}


def primitive(p: IntPoly) -> IntPoly:
    """p divided by its positive content (the gcd of its coefficients)."""
    g = math.gcd(*p.values())
    return {e: c // g for e, c in p.items()}


def neg_prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive part of -rem(|lc(b)|^(d+1) a, b), d = deg a - deg b:
    a positive multiple of -rem(a, b), so a Sturm chain built from it has
    the sign pattern of the one built over Q."""
    db = degree(b)
    lead = b[db]
    r = {e: c * abs(lead) ** max(degree(a) - db + 1, 0) for e, c in a.items()}
    while r and degree(r) >= db:
        top = degree(r)
        q = r[top] // lead
        r = sub(r, {e + top - db: q * c for e, c in b.items()})
    return {e: -c for e, c in primitive(r).items()} if r else r


def gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor by the primitive remainder sequence,
    primitive with a positive leading coefficient (zero for a = b = 0)."""
    while b:
        a, b = b, neg_prem(a, b)
    if not a:
        return a
    a = primitive(a)
    return a if a[degree(a)] > 0 else {e: -c for e, c in a.items()}


def _homogeneous(p: IntPoly, x: Fraction, deg: int) -> int:
    """b^deg p(a/b) for x = a/b with b > 0 and deg >= deg(p), by Horner's
    rule on the homogenized polynomial."""
    a, b = x.numerator, x.denominator
    acc, bpow = 0, 1
    for e in range(deg, -1, -1):
        acc = acc * a + p.get(e, 0) * bpow
        bpow *= b
    return acc


def sign_at(p: IntPoly, x: Fraction) -> int:
    """The sign of p(x) (-1, 0 or 1) at a rational x."""
    h = _homogeneous(p, x, degree(p))
    return (h > 0) - (h < 0)


def matrix_at(M: List[List[IntPoly]],
              x: Fraction) -> Tuple[List[List[int]], int]:
    """(b^D M(a/b), b^D) for x = a/b with b > 0, D the largest degree of an
    entry: an integer matrix and the positive scale it carries."""
    D = max((degree(e) for row in M for e in row), default=-1)
    return ([[_homogeneous(e, x, D) for e in row] for row in M],
            x.denominator ** max(D, 0))
