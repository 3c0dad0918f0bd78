"""Integer polynomials {exponent: nonzero int} (zero is {}), Laurent in
``ainfty.cohomology``, ordinary in ``maslov`` and as face-counting
polynomials in ``polytopes``: Bareiss determinants and ranks on
Kronecker-packed big ints, exact division (exact in Z[t] by Gauss's
lemma for primitive divisors), sign-preserving primitive
pseudo-remainders, and signs and integer matrices at rationals by one
homogeneous Horner evaluation, all without leaving Z.

Kronecker packing (``_pack_block``) shifts a matrix of Laurent
polynomials to nonnegative exponents and reads each entry as one Python
int, its value at s = 2^b.  Evaluation at 2^b is a ring map, so a
Bareiss step (p a - x y) / prev (``_packed_entry``) is one big-int
``divmod``.  Every Bareiss entry is a minor, whose coefficients are
bounded by H = prod over rows of max(1, sum of the row's |coefficients|),
and p a - x y has coefficients of at most 2 H^2; with 2^(b-1) above that,
each packed entry is read back as balanced digits in (-2^(b-1), 2^(b-1)):
its valuation is its trailing zero bits // b and its leading
coefficient its lowest digit.  The dict kernel (``_bareiss_entry``)
stays for blocks whose exponents are too sparse to pack.
"""

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


# The widest block (b times the exponent span a minor can reach) that
# ``ainfty._rank`` packs.  Blocks with sparse exponents run faster on
# dicts above about 5k to 40k bits (3 to 8 rows): packed ints grow with
# the span, and Python divides them in quadratic time.  Dense blocks pack
# faster at every width measured.
_PACK_CAP = 1 << 15


def _pack_block(rows, capped=True):
    """(packed rows, b, shift, g) for a matrix of Laurent polynomials in
    s: exponent e is packed as (e - shift) / g, shift the least exponent
    and g the gcd of the differences, so a minor of size m is
    s^(m shift) times a polynomial in s^g and valuations keep their order
    within a size.  With ``capped``, None when the packed width, b times
    the exponent span a minor can reach, exceeds ``_PACK_CAP``."""
    exps = {e for row in rows for p in row for e in p}
    low = min(exps, default=0)
    g = math.gcd(*(e - low for e in exps)) or 1
    span = sum(max((e for p in row for e in p), default=low) - low
               for row in rows) // g + 1
    h = 1
    for row in rows:
        h *= max(1, sum(abs(c) for p in row for c in p.values()))
    b = (2 * h * h).bit_length() + 1
    if capped and b * span > _PACK_CAP:
        return None
    return [[sum(c << (b * ((e - low) // g)) for e, c in p.items())
             for p in row] for row in rows], b, low, g


def _valuation(v: int, b: int) -> int:
    """The valuation of a nonzero packed entry."""
    return ((v & -v).bit_length() - 1) // b


def _lead(v: int, b: int) -> int:
    """The leading (lowest) coefficient of a nonzero packed entry."""
    d = (v >> (_valuation(v, b) * b)) & ((1 << b) - 1)
    return d - (d >> (b - 1) << b)


def _unpack(v: int, b: int) -> IntPoly:
    """The polynomial of a packed entry."""
    out = {}
    e = 0
    while v:
        d = v & ((1 << b) - 1)
        d -= d >> (b - 1) << b
        if d:
            out[e] = d
        v = (v - d) >> b
        e += 1
    return out


def _packed_entry(p: int, a: int, x: int, y: int, prev: int) -> int:
    """(p*a - x*y) / prev on packed entries."""
    q, rem = divmod(p * a - x * y, prev)
    if rem:
        raise InexactDivision("Bareiss step left a remainder")
    return q


def _bareiss_rows(rows, k: int, pc: int, prev, cols,
                  entry=_packed_entry) -> None:
    """One Bareiss step: below row k, each entry a in a column j of
    ``cols`` becomes ``entry(p, a, x, y, prev)``, (p a - x y) / prev with
    p = rows[k][pc], x the row's entry in column pc and y = rows[k][j]."""
    prow = rows[k]
    p = prow[pc]
    for row in rows[k + 1:]:
        x = row[pc]
        for j in cols:
            row[j] = entry(p, row[j], x, prow[j], prev)


def det(M: List[List[IntPoly]]) -> IntPoly:
    """Determinant by packed Bareiss elimination, swapping in a row with a
    nonzero entry (and flipping the sign) when a pivot vanishes."""
    n = len(M)
    A, b, low, g = _pack_block(M, capped=False)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k]), None)
        if piv is None:
            return {}
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        _bareiss_rows(A, k, k, prev, range(k + 1, n))
        prev = A[k][k]
    return {n * low + g * e: c for e, c in _unpack(sign * prev, b).items()}


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
