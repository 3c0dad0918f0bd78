"""Exact arithmetic the benchmark uses to build inputs and check outputs.

Nothing here imports ``openstrings``: the checks must not trust the code
under test, so series, polynomials and determinants are re-derived from
first principles with ``fractions.Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

# ---------------------------------------------------------------------------
# Novikov series as {exponent: coefficient} dicts


def series_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fraction_text(x: Fraction) -> str:
    """``3`` or ``3/4``, as the series literal writes numbers."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_series(s: dict) -> str:
    """The canonical literal: increasing exponents, unit coefficients elided."""
    parts = []
    for k, e in enumerate(sorted(e for e, c in s.items() if c)):
        c = Fraction(s[e])
        mag, exp = fraction_text(abs(c)), fraction_text(Fraction(e))
        body = f"t^{exp}" if mag == "1" else f"{mag}t^{exp}"
        if k == 0:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts) or "0"


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:t\^(-?\d+(?:/\d+)?))?$")


def parse_series(text: str) -> dict:
    """Parse a series literal into {Fraction exponent: Fraction coefficient}."""
    compact = text.replace(" ", "")
    if compact == "0":
        return {}
    chunks, start = [], 0
    for i in range(1, len(compact)):
        # a sign splits terms unless it belongs to a negative exponent
        if compact[i] in "+-" and compact[i - 1] != "^":
            chunks.append(compact[start:i])
            start = i
    chunks.append(compact[start:])
    out: dict = {}
    for chunk in chunks:
        m = _TERM.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"bad series term {chunk!r} in {text!r}")
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coeff = -coeff
        exp = Fraction(m.group(3)) if m.group(3) is not None else Fraction(0)
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# polynomials in one variable: lists of Fractions, constant term first


def pnorm(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return pnorm([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def psub(p, q):
    return padd(p, [-c for c in q])


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return pnorm(out)


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return pnorm([p[i] * i for i in range(1, len(p))])


def pdivmod(p, q):
    rem = list(pnorm(p))
    q = pnorm(q)
    quo = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q) and rem:
        f = Fraction(rem[-1]) / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = f
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
        rem = pnorm(rem)
    return pnorm(quo), rem


def pgcd(p, q):
    a, b = pnorm(p), pnorm(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return a


def squarefree(p) -> bool:
    """True when p has no repeated complex root."""
    return len(pgcd(p, pderiv(p))) <= 1


# ---------------------------------------------------------------------------
# matrices over Q


def det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return d


def poly_det(m):
    """Determinant of a matrix of polynomials, by interpolation."""
    n = len(m)
    bound = sum(max((len(e) - 1 for e in row), default=0) for row in m) if n else 0
    xs = [Fraction(k) for k in range(bound + 1)]
    ys = [det([[peval(e, x) for e in row] for row in m]) for x in xs]
    poly = []
    for i, xi in enumerate(xs):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = pmul(basis, [-xj, Fraction(1)])
                denom *= xi - xj
        poly = padd(poly, [c * ys[i] / denom for c in basis])
    return poly


# ---------------------------------------------------------------------------
# polytope counts


def kirkman_cayley(l: int):
    """Proper-face counts of the associahedron K_l by dimension.

    Faces of dimension l-2-k are the dissections of an (l+1)-gon by k
    non-crossing diagonals: comb(l-2, k) * comb(l+k, k) / (k+1) of them.
    """
    top = l - 2
    return [comb(l - 2, top - d) * comb(l + top - d, top - d) // (top - d + 1)
            for d in range(top)]


# vertices of the multiplihedra J_1 .. J_8 (OEIS A121988)
MULTIPLIHEDRON_VERTICES = {1: 1, 2: 2, 3: 6, 4: 21, 5: 80, 6: 322, 7: 1348, 8: 5814}
