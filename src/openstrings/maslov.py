"""Index computations for paths of graph Lagrangians.

A path is given in a fixed chart as a piecewise-polynomial family A(t) of
symmetric n x n matrices with rational coefficients (the path of graphs
{(x, A(t)x)}).  The index of a path relative to a constant reference B is
computed from crossings, the parameters t* with det(A(t*) - B) = 0:

* the crossing form is A'(t*) restricted to ker(A(t*) - B),
* a crossing strictly inside a piece contributes its full signature,
* a crossing at the start or end of the path contributes half,
* a crossing at a junction between pieces contributes half from each side,
  each side using its own derivative,

and the total is weighted by the global calibration constant
``CROSSING_SIGN``.  With these conventions the relative index is additive
under concatenation (the two junction halves reassemble an interior
crossing).

Crossings are handled exactly.  On each piece A(t) - B is cleared of
denominators by one positive integer; its determinant and principal
minors are taken by fraction-free Bareiss elimination over Z[t], the
kernel ``ainfty.cohomology`` uses, and roots are isolated by Sturm chains
of sign-preserving primitive remainders over Z.  Every crossing, rational
or not, is decided by one rule without leaving Q (Robbin-Salamon).  At a
root of the determinant of order m the kernel dimension k is at most m,
with equality exactly when the crossing form is nonsingular.  At a
rational start, end or junction k is the nullity of A(t0) - B; inside a
piece k = m exactly when every principal minor of A(t) - B of size
n-m+1 .. n-1 vanishes there (gcd with the root's squarefree factor, one
Sturm count).  The signature of a regular crossing form is half the jump
of the signature of A(t) - B between rational points on either side with
no other root of the determinant in between; the piece's polynomial is
evaluated past the ends of the piece, so each side of a junction uses
its own derivative.

A crossing is rejected (``DegenerateCrossing``) when det(A(t) - B)
vanishes identically on a piece, or when its crossing form is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from typing import Dict, List, Optional, Sequence, Tuple

from ._poly import (IntPoly, _exact_div, degree, derivative, det, gcd, mul,
                    neg_prem, sign_at, sub, value)

__all__ = [
    "ChartMismatch",
    "DegenerateCrossing",
    "NonTransverseEndpoints",
    "CROSSING_SIGN",
    "PathPiece",
    "LagrangianPath",
    "Crossing",
    "CrossingReport",
    "rs_index",
    "rs_index_report",
    "string_index",
    "dual_path",
    "path_from_json",
    "report_to_json",
]

CROSSING_SIGN = -1

Poly = Tuple[Fraction, ...]          # coefficients, constant term first


class ChartMismatch(ValueError):
    """Path data is not a continuous family of symmetric matrices of one size."""


class DegenerateCrossing(ValueError):
    """A crossing is not regular (or a whole piece fails to be transverse)."""


class NonTransverseEndpoints(ValueError):
    """The endpoints of the path are not transverse to each other."""


# ---------------------------------------------------------------------------
# roots of integer polynomials
# ---------------------------------------------------------------------------

def _integer_difference(matrix, B: List[List[Fraction]]) -> List[List[IntPoly]]:
    """A(t) - B times one positive integer that clears every denominator,
    so it stays symmetric with the same roots, minors and signatures."""
    scale = math.lcm(*(c.denominator for row in matrix for e in row for c in e),
                     *(b.denominator for row in B for b in row))
    return [[sub({k: int(c * scale) for k, c in enumerate(e) if c},
                 {0: int(b * scale)} if b else {})
             for e, b in zip(row, brow)] for row, brow in zip(matrix, B)]


def _linear(t0: Fraction) -> IntPoly:
    """The primitive factor b t - a of a root t0 = a/b."""
    return {k: c for k, c in ((0, -t0.numerator), (1, t0.denominator)) if c}


def _yun_squarefree(p: IntPoly) -> List[Tuple[IntPoly, int]]:
    """Squarefree decomposition of a nonzero p: list of (primitive factor,
    multiplicity)."""
    dp = derivative(p)
    u = gcd(p, dp)
    v = _exact_div(p, u)
    w = _exact_div(dp, u)
    out = []
    i = 1
    while degree(v) > 0:
        diff = sub(w, derivative(v))
        s = gcd(v, diff)
        if degree(s) > 0:
            out.append((s, i))
        v = _exact_div(v, s)
        w = _exact_div(diff, s) if diff else {}
        i += 1
    return out


def _sturm_chain(p: IntPoly) -> List[IntPoly]:
    chain = [p, derivative(p)]
    while chain[-1]:
        chain.append(neg_prem(chain[-2], chain[-1]))
    return [c for c in chain if c]


def _sign_changes(chain: List[IntPoly], x: Fraction) -> int:
    signs = [s for s in (sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_count(p: IntPoly, lo: Fraction, hi: Fraction,
                 chain: Optional[List[IntPoly]] = None) -> int:
    """Distinct roots of p in (lo, hi]; requires p(lo) != 0."""
    if sign_at(p, lo) == 0:
        raise AssertionError("sturm count with root at left endpoint")
    if chain is None:
        chain = _sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _isolate_roots(f: IntPoly, lo: Fraction, hi: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals (l, h] for the roots of squarefree f strictly
    inside (lo, hi); requires f(lo) != 0 and f(hi) != 0."""
    chain = _sturm_chain(f)

    def rec(a: Fraction, b: Fraction) -> List[Tuple[Fraction, Fraction]]:
        k = _sturm_count(f, a, b, chain)
        if k == 0:
            return []
        if k == 1:
            return [(a, b)]
        # split at the first of a + (b-a)(1/2, 1/4, 3/4, 1/8, ...) not a root
        split = next(x for x in (a + (b - a) * Fraction(j, 2 ** e)
                                 for e in count(1) for j in range(1, 2 ** e, 2))
                     if sign_at(f, x))
        return rec(a, split) + rec(split, b)

    return rec(lo, hi)


# ---------------------------------------------------------------------------
# rational-point linear algebra
# ---------------------------------------------------------------------------

def _inertia(M: List[List[Fraction]]) -> Tuple[int, int]:
    """(signature, nullity) of a symmetric rational matrix, by symmetric
    Gaussian elimination (congruence)."""
    k = len(M)
    A = [row[:] for row in M]
    sig = nullity = 0
    for i in range(k):
        if A[i][i] == 0:
            j = next((jj for jj in range(i + 1, k) if A[i][jj] != 0), None)
            if j is None:
                nullity += 1
                continue
            for s in (1, -1):
                if 2 * s * A[i][j] + A[j][j] != 0:
                    for col in range(k):
                        A[i][col] += s * A[j][col]
                    for row in range(k):
                        A[row][i] += s * A[row][j]
                    break
        d = A[i][i]
        sig += 1 if d > 0 else -1
        # congruence clearing of row/column i below the pivot
        factors = {r: A[r][i] / d for r in range(i + 1, k) if A[r][i] != 0}
        for r, f in factors.items():
            for col in range(i, k):
                A[r][col] -= f * A[i][col]
        for r in range(i + 1, k):
            A[i][r] = Fraction(0)
            A[r][i] = Fraction(0)
    return sig, nullity


# ---------------------------------------------------------------------------
# path data
# ---------------------------------------------------------------------------

def _pnorm(cs: Sequence[Fraction]) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _peval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class PathPiece:
    start: Fraction
    end: Fraction
    matrix: Tuple[Tuple[Poly, ...], ...]     # symmetric n x n, polynomial entries

    def value(self, t: Fraction) -> List[List[Fraction]]:
        return [[_peval(e, t) for e in row] for row in self.matrix]


def _as_poly(entry) -> Poly:
    return _pnorm([Fraction(c) for c in entry])


def make_piece(start, end, matrix) -> PathPiece:
    a, b = Fraction(start), Fraction(end)
    if not a < b:
        raise ValueError("piece interval must have positive length")
    rows = tuple(tuple(_as_poly(e) for e in row) for row in matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ChartMismatch("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ChartMismatch("matrix is not symmetric")
    return PathPiece(a, b, rows)


@dataclass(frozen=True)
class LagrangianPath:
    pieces: Tuple[PathPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("path needs at least one piece")
        n = self.n
        for p in self.pieces:
            if len(p.matrix) != n:
                raise ChartMismatch("pieces have different matrix sizes")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.end != right.start:
                raise ChartMismatch("pieces are not contiguous")
            if left.value(left.end) != right.value(right.start):
                raise ChartMismatch("path is discontinuous at a junction")

    @property
    def n(self) -> int:
        return len(self.pieces[0].matrix)

    @property
    def start(self) -> Fraction:
        return self.pieces[0].start

    @property
    def end(self) -> Fraction:
        return self.pieces[-1].end

    def value(self, t: Fraction) -> List[List[Fraction]]:
        for p in self.pieces:
            if p.start <= t <= p.end:
                return p.value(t)
        raise ValueError("parameter outside the path domain")


def make_path(pieces) -> LagrangianPath:
    return LagrangianPath(tuple(
        p if isinstance(p, PathPiece) else make_piece(*p) for p in pieces))


def dual_path(path: LagrangianPath) -> LagrangianPath:
    """The path t -> A(-t) on the mirrored domain."""
    flipped = []
    for p in reversed(path.pieces):
        matrix = tuple(tuple(_pnorm([c * ((-1) ** k) for k, c in enumerate(e)])
                             for e in row) for row in p.matrix)
        flipped.append(PathPiece(-p.end, -p.start, matrix))
    return LagrangianPath(tuple(flipped))


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    lower: Fraction
    upper: Fraction          # isolating interval; lower == upper when rational
    location: str            # "start" | "interior" | "junction" | "end"
    kernel_dimension: int
    parts: Tuple[Tuple[Fraction, int], ...]   # (weight, signature) per side

    @property
    def weighted(self) -> Fraction:
        return sum((w * s for w, s in self.parts), Fraction(0))


@dataclass(frozen=True)
class CrossingReport:
    n: int
    crossings: Tuple[Crossing, ...]
    total: Fraction


def _reference_matrix(reference, n: int) -> List[List[Fraction]]:
    B = [[Fraction(e) for e in row] for row in reference]
    if len(B) != n or any(len(row) != n for row in B):
        raise ChartMismatch("reference matrix size does not match the path")
    for i in range(n):
        for j in range(i + 1, n):
            if B[i][j] != B[j][i]:
                raise ChartMismatch("reference matrix is not symmetric")
    return B


def _signature_jump(P: List[List[IntPoly]], f: IntPoly, lo: Fraction,
                    hi: Fraction, sqf_chain: List[IntPoly]) -> int:
    """Signature of the crossing form at a regular crossing t*, the one
    root of the squarefree factor f in (lo, hi]: half the jump of the
    signature of P across a bracket of t* shrunk until it holds no other
    root of det P, whose squarefree part has the Sturm chain ``sqf_chain``.
    """
    sqf = sqf_chain[0]
    chain = _sturm_chain(f)
    while not (sign_at(sqf, lo) and sign_at(sqf, hi)
               and _sturm_count(sqf, lo, hi, sqf_chain) == 1):
        mid = (lo + hi) / 2
        if sign_at(f, mid) == 0:
            lo = (lo + mid) / 2
        elif _sturm_count(f, lo, mid, chain) == 1:
            hi = mid
        else:
            lo = mid
    before, after = ([[value(e, t) for e in row] for row in P]
                     for t in (lo, hi))
    return (_inertia(after)[0] - _inertia(before)[0]) // 2


def _interior_crossing(P: List[List[IntPoly]], f: IntPoly, m: int,
                       lo: Fraction, hi: Fraction,
                       sqf_chain: List[IntPoly]) -> int:
    """Signature of the crossing form at a root t* inside a piece: the
    root of the squarefree factor f isolated in (lo, hi], of order m in
    det P.

    The crossing is regular iff its kernel dimension k equals m.  A
    symmetric matrix has rank r iff some principal r x r minor is nonzero
    and no larger one is, so k = m iff every principal minor of P of size
    n-m+1 .. n-1 vanishes at t* (size n is det P itself).
    """
    n = len(P)
    if m > n:
        raise DegenerateCrossing("singular crossing form")
    if m > 1:
        g = f
        for size in range(n - m + 1, n):
            for idx in combinations(range(n), size):
                g = gcd(g, det([[P[i][j] for j in idx] for i in idx]))
        if _sturm_count(g, lo, hi) != 1:
            raise DegenerateCrossing("singular crossing form")
    return _signature_jump(P, f, lo, hi, sqf_chain)


def rs_index_report(reference, path: LagrangianPath) -> CrossingReport:
    n = path.n
    B = _reference_matrix(reference, n)

    # per-boundary-point contributions keyed by parameter value
    boundary: Dict[Fraction, List[Tuple[int, int, int]]] = {}
    crossings: List[Crossing] = []

    for p_idx, piece in enumerate(path.pieces):
        P = _integer_difference(piece.matrix, B)
        d = det(P)
        if not d:
            raise DegenerateCrossing(
                "determinant vanishes identically on a piece")
        factors = _yun_squarefree(d)
        sqf_chain = _sturm_chain(reduce(mul, (f for f, _m in factors), {0: 1}))
        for t0 in (piece.start, piece.end):
            if sign_at(d, t0) == 0:
                m = next(i for f, i in factors if sign_at(f, t0) == 0)
                if _inertia([[value(e, t0) for e in row] for row in P])[1] != m:
                    raise DegenerateCrossing("singular crossing form")
                sig = _signature_jump(P, _linear(t0), t0 - 1, t0 + 1,
                                      sqf_chain)
                boundary.setdefault(t0, []).append((p_idx, m, sig))
        for factor, mult in factors:
            f = factor
            for t0 in (piece.start, piece.end):
                if sign_at(f, t0) == 0:
                    f = _exact_div(f, _linear(t0))
            if degree(f) < 1:
                continue
            for lo, hi in _isolate_roots(f, piece.start, piece.end):
                sig = _interior_crossing(P, f, mult, lo, hi, sqf_chain)
                crossings.append(Crossing(lo, hi, "interior", mult,
                                          ((Fraction(1), sig),)))

    half = Fraction(1, 2)
    for t0, contribs in boundary.items():
        if t0 == path.start:
            (_p, k, sig), = contribs
            crossings.append(Crossing(t0, t0, "start", k, ((half, sig),)))
        elif t0 == path.end:
            (_p, k, sig), = contribs
            crossings.append(Crossing(t0, t0, "end", k, ((half, sig),)))
        else:
            # both pieces see P(t0) up to a positive scale, so both report
            # its nullity; contributions are in piece order
            (_p, k, before), (_q, _k, after) = contribs
            crossings.append(Crossing(t0, t0, "junction", k,
                                      ((half, before), (half, after))))

    crossings.sort(key=lambda c: (c.lower, c.upper))
    total = CROSSING_SIGN * sum((c.weighted for c in crossings), Fraction(0))
    return CrossingReport(n, tuple(crossings), total)


def rs_index(reference, path: LagrangianPath) -> Fraction:
    return rs_index_report(reference, path).total


def string_index(path: LagrangianPath) -> int:
    """n/2 minus the index of the path relative to its own starting point.
    Requires the endpoints to be transverse to each other."""
    return _string_index(path)


def _string_index(path: LagrangianPath,
                  start_total: Optional[Fraction] = None) -> int:
    """``string_index``, reusing ``start_total`` when the caller already
    holds the index of the path against A(start)."""
    n = path.n
    A0 = path.pieces[0].value(path.start)
    A1 = path.pieces[-1].value(path.end)
    if not det(_integer_difference([[(a,) for a in row] for row in A1], A0)):
        raise NonTransverseEndpoints(
            "endpoint Lagrangians are not transverse")
    if start_total is None:
        start_total = rs_index(A0, path)
    total = Fraction(n, 2) - start_total
    if total.denominator != 1:
        raise AssertionError("index of a transverse path must be an integer")
    return int(total)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def path_from_json(obj) -> LagrangianPath:
    pieces = []
    for p in obj["pieces"]:
        if "t0" in p:
            a, b = Fraction(str(p["t0"])), Fraction(str(p["t1"]))
        else:
            a, b = (Fraction(str(v)) for v in p["interval"])
        raw = p["A"] if "A" in p else p["matrix"]
        matrix = [[[Fraction(str(c)) for c in entry] for entry in row]
                  for row in raw]
        pieces.append(make_piece(a, b, matrix))
    return make_path(pieces)


def report_to_json(report: CrossingReport) -> dict:
    return {
        "n": report.n,
        "rs_index": str(report.total),
        "crossings": [
            {
                "interval": [str(c.lower), str(c.upper)],
                "location": c.location,
                "kernel_dimension": c.kernel_dimension,
                "parts": [[str(w), s] for w, s in c.parts],
            }
            for c in report.crossings
        ],
    }
