"""Index computations for paths of graph Lagrangians.

A path is given in a fixed chart as a piecewise-polynomial family A(t) of
symmetric n x n matrices with rational coefficients (the path of graphs
{(x, A(t)x)}).  Denominators are cleared once, by the piece builder
``make_piece`` and ``path_from_json`` share: a piece holds A(t) as
integer polynomials over the least common denominator of its
coefficients.  The index of a path relative to a constant reference
B is computed from crossings, the parameters t* with det(A(t*) - B) = 0:

* the crossing form is A'(t*) restricted to ker(A(t*) - B),
* a crossing strictly inside a piece contributes its full signature,
* a crossing at the start or end of the path contributes half,
* a crossing at a junction between pieces contributes half from each side,
  each side using its own derivative,

and the total is weighted by the global calibration constant
``CROSSING_SIGN``.  With these conventions the relative index is additive
under concatenation (the two junction halves reassemble an interior
crossing).

Crossings are handled exactly.  On each piece A(t) - B is scaled to an
integer polynomial matrix P by one positive integer; its determinant and
principal minors are taken by fraction-free Bareiss elimination over
Z[t] on Kronecker-packed big ints, the kernel ``ainfty.cohomology`` uses,
roots are isolated by Sturm chains of sign-preserving primitive
remainders over Z, and inertia is taken on integer matrices, that of
P(a/b) on b^D P(a/b) (D the largest entry degree).  Every crossing is
decided by one rule (Robbin-Salamon): at a root of det P of order m the
kernel dimension is at most m, with equality exactly when the crossing
form is nonsingular, and the signature of a regular crossing form is
half the jump of the signature of P between rational points on either
side with no other root of det P in between.

A crossing is rejected (``DegenerateCrossing``) when det(A(t) - B)
vanishes identically on a piece, or when its crossing form is singular.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from typing import Dict, List, Optional, Tuple

from ._json import _json_field, _json_int, _json_list, _json_object
from ._poly import (InexactDivision, IntPoly, _exact_div, degree, derivative,
                    det, gcd, matrix_at, mul, neg_prem, sign_at, sub)

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


class ChartMismatch(ValueError):
    """Path data is not a continuous family of symmetric matrices of one size."""


class DegenerateCrossing(ValueError):
    """A crossing is not regular (or a whole piece fails to be transverse)."""


class NonTransverseEndpoints(ValueError):
    """The endpoints of the path are not transverse to each other."""


# ---------------------------------------------------------------------------
# roots of integer polynomials
# ---------------------------------------------------------------------------

def _integer_difference(piece: "PathPiece",
                        B: List[List[Fraction]]) -> List[List[IntPoly]]:
    """L (A(t) - B) = (L/den) num - L B for the least positive L that
    clears every denominator, so it stays symmetric with the same roots,
    minors and signatures."""
    L = math.lcm(piece.den, *(b.denominator for row in B for b in row))
    s = L // piece.den
    return [[sub({k: s * c for k, c in e.items()},
                 {0: b.numerator * (L // b.denominator)} if b else {})
             for e, b in zip(row, brow)] for row, brow in zip(piece.num, B)]


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


def _sign_changes(signs: List[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_count(chain: List[IntPoly], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi] of the polynomial ``chain[0]`` whose
    Sturm chain is ``chain``; requires chain[0](lo) != 0.  Each member of
    the chain is evaluated once at each end."""
    at_lo = [sign_at(p, lo) for p in chain]
    if at_lo[0] == 0:
        raise AssertionError("sturm count with root at left endpoint")
    at_hi = [sign_at(p, hi) for p in chain]
    return _sign_changes(at_lo) - _sign_changes(at_hi)


def _isolate_roots(chain: List[IntPoly], lo: Fraction,
                   hi: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals (l, h] for the roots strictly inside (lo, hi)
    of the squarefree f = chain[0], given its Sturm chain; requires
    f(lo) != 0 and f(hi) != 0."""
    f = chain[0]

    def rec(a: Fraction, b: Fraction) -> List[Tuple[Fraction, Fraction]]:
        k = _sturm_count(chain, a, b)
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

def _inertia(M: List[List[int]]) -> Tuple[int, int]:
    """(signature, nullity) of a symmetric integer matrix, by Bareiss-style
    congruence (+-row/column j added to a zero pivot's).  Pivots are
    leading principal minors: each one's sign relative to the previous is
    that of the pivot over Q, and (d a - x y) / previous pivot is exact."""
    k = len(M)
    A = [list(row) for row in M]
    sig, nullity, prev = 0, 0, 1
    for i, pivot_row in enumerate(A):
        if pivot_row[i] == 0:
            j = next((jj for jj in range(i + 1, k) if pivot_row[jj]), None)
            if j is None:
                nullity += 1
                continue
            s = 1 if 2 * pivot_row[j] + A[j][j] else -1
            for col in range(i, k):
                pivot_row[col] += s * A[j][col]
            for row in A[i:]:
                row[i] += s * row[j]
        d = pivot_row[i]
        sig += 1 if (d > 0) == (prev > 0) else -1
        for r in range(i + 1, k):
            row, x = A[r], A[r][i]
            for c in range(r, k):
                q, rem = divmod(d * row[c] - x * pivot_row[c], prev)
                if rem:
                    raise InexactDivision(
                        f"inertia step left a remainder at pivot {i}")
                row[c] = A[c][r] = q
        prev = d
    return sig, nullity


# ---------------------------------------------------------------------------
# path data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathPiece:
    """A(t) = num(t) / den on [start, end]: a symmetric n x n matrix of
    integer polynomials over the least common denominator of A's
    coefficients."""
    start: Fraction
    end: Fraction
    num: Tuple[Tuple[IntPoly, ...], ...]
    den: int

    def value(self, t: Fraction) -> List[List[Fraction]]:
        M, scale = matrix_at(self.num, t)
        return [[Fraction(x, scale * self.den) for x in row] for row in M]


def _coefficients(entry) -> List[Tuple[int, int]]:
    if not (isinstance(entry, (list, tuple)) and all(
            isinstance(c, numbers.Real) and not isinstance(c, bool)
            for c in entry)):
        raise ChartMismatch(f"matrix entry {entry!r} is not a list of numbers")
    return [(f.numerator, f.denominator) for f in map(Fraction, entry)]


def _piece(a: Fraction, b: Fraction, matrix, coefficients) -> PathPiece:
    """The piece on [a, b] of ``matrix``, each entry read by
    ``coefficients`` into reduced (numerator, denominator) pairs."""
    if not a < b:
        raise ValueError("piece interval must have positive length")
    rows = [[coefficients(e) for e in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ChartMismatch("matrix is not square")
    den = math.lcm(*(q for row in rows for e in row for _, q in e))
    num = tuple(tuple({k: p * (den // q) for k, (p, q) in enumerate(e) if p}
                      for e in row) for row in rows)
    if any(num[i][j] != num[j][i] for i in range(n) for j in range(i)):
        raise ChartMismatch("matrix is not symmetric")
    return PathPiece(a, b, num, den)


def make_piece(start, end, matrix) -> PathPiece:
    return _piece(Fraction(start), Fraction(end), matrix, _coefficients)


@dataclass(frozen=True)
class LagrangianPath:
    pieces: Tuple[PathPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("path needs at least one piece")
        n = self.n
        for p in self.pieces:
            if len(p.num) != n:
                raise ChartMismatch("pieces have different matrix sizes")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.end != right.start:
                raise ChartMismatch("pieces are not contiguous")
            # num / (scale den) on either side, compared across
            (ml, sl), (mr, sr) = (matrix_at(left.num, left.end),
                                  matrix_at(right.num, right.start))
            kl, kr = sr * right.den, sl * left.den
            if any(x * kl != y * kr for rl, rr in zip(ml, mr)
                   for x, y in zip(rl, rr)):
                raise ChartMismatch("path is discontinuous at a junction")

    @property
    def n(self) -> int:
        return len(self.pieces[0].num)

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
    return LagrangianPath(tuple(
        PathPiece(-p.end, -p.start,
                  tuple(tuple({k: -c if k % 2 else c for k, c in e.items()}
                              for e in row) for row in p.num), p.den)
        for p in reversed(path.pieces)))


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


def _signature_jump(P: List[List[IntPoly]], chain: List[IntPoly],
                    lo: Fraction, hi: Fraction,
                    sqf_chain: List[IntPoly]) -> int:
    """Signature of the crossing form at a regular crossing t*, the one
    root in (lo, hi] of the squarefree factor f = chain[0] (``chain`` its
    Sturm chain): half the jump of the signature of P across a bracket of
    t* shrunk until it holds no other root of det P, whose squarefree part
    is sqf_chain[0].
    """
    f, sqf = chain[0], sqf_chain[0]

    def signs(first, t):
        # the Sturm count's signs at t, sqf's own (``first``) taken once
        return [first] + [sign_at(p, t) for p in sqf_chain[1:]]

    while True:
        s_lo = sign_at(sqf, lo)
        s_hi = s_lo and sign_at(sqf, hi)
        if s_hi and _sign_changes(signs(s_lo, lo)) - _sign_changes(
                signs(s_hi, hi)) == 1:
            break
        mid = (lo + hi) / 2
        if sign_at(f, mid) == 0:
            lo = (lo + mid) / 2
        elif _sturm_count(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    before, after = (_inertia(matrix_at(P, t)[0])[0] for t in (lo, hi))
    return (after - before) // 2


def _interior_crossing(P: List[List[IntPoly]], chain: List[IntPoly], m: int,
                       lo: Fraction, hi: Fraction,
                       sqf_chain: List[IntPoly]) -> int:
    """Signature of the crossing form at a root t* inside a piece: the
    root isolated in (lo, hi] of the squarefree factor f = chain[0]
    (``chain`` its Sturm chain), of order m in det P.

    The crossing is regular iff its kernel dimension k equals m.  A
    symmetric matrix has rank r iff some principal r x r minor is nonzero
    and no larger one is, so k = m iff every principal minor of P of size
    n-m+1 .. n-1 vanishes at t* (size n is det P itself).
    """
    n = len(P)
    if m > n:
        raise DegenerateCrossing("singular crossing form")
    if m > 1:
        g = chain[0]
        for size in range(n - m + 1, n):
            for idx in combinations(range(n), size):
                g = gcd(g, det([[P[i][j] for j in idx] for i in idx]))
        if _sturm_count(_sturm_chain(g), lo, hi) != 1:
            raise DegenerateCrossing("singular crossing form")
    return _signature_jump(P, chain, lo, hi, sqf_chain)


def rs_index_report(reference, path: LagrangianPath) -> CrossingReport:
    n = path.n
    B = _reference_matrix(reference, n)

    # (kernel dimension, signature) per side of each start, end and junction
    # point, in piece order; both sides of a junction see P(t0) up to scale
    boundary: Dict[Fraction, List[Tuple[int, int]]] = {}
    crossings: List[Crossing] = []

    for piece in path.pieces:
        P = _integer_difference(piece, B)
        d = det(P)
        if not d:
            raise DegenerateCrossing(
                "determinant vanishes identically on a piece")
        factors = _yun_squarefree(d)
        sqf = reduce(mul, (f for f, _m in factors), {0: 1})
        sqf_chain = _sturm_chain(sqf)
        # one pass over the factors: a factor vanishing at the start or
        # end of the piece gives that boundary crossing, of its order m,
        # and the rest of it is isolated inside the piece
        for f, m in factors:
            for t0 in (piece.start, piece.end):
                if sign_at(f, t0) == 0:
                    if _inertia(matrix_at(P, t0)[0])[1] != m:
                        raise DegenerateCrossing("singular crossing form")
                    t0_line = _linear(t0)
                    sig = _signature_jump(P, _sturm_chain(t0_line), t0 - 1,
                                          t0 + 1, sqf_chain)
                    boundary.setdefault(t0, []).append((m, sig))
                    f = _exact_div(f, t0_line)
            if degree(f) < 1:
                continue
            chain = sqf_chain if f == sqf else _sturm_chain(f)
            for lo, hi in _isolate_roots(chain, piece.start, piece.end):
                sig = _interior_crossing(P, chain, m, lo, hi, sqf_chain)
                crossings.append(Crossing(lo, hi, "interior", m,
                                          ((Fraction(1), sig),)))

    half = Fraction(1, 2)
    for t0, contribs in boundary.items():
        location = ("start" if t0 == path.start else
                    "end" if t0 == path.end else "junction")
        crossings.append(Crossing(t0, t0, location, contribs[0][0],
                                  tuple((half, sig) for _k, sig in contribs)))

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
    P = _integer_difference(path.pieces[-1], A0)
    if _inertia(matrix_at(P, path.end)[0])[1]:
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

def _rational(value, what: str) -> Fraction:
    """A JSON number or numeric string as a Fraction; a zero denominator
    raises ChartMismatch naming ``what`` and the value."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ChartMismatch(f"{what} {value!r} has a zero denominator") from None


def _pair(value, what: str) -> Tuple[int, int]:
    """A JSON coefficient as a reduced (numerator, denominator) pair: an
    int, or a string of ASCII digits ``a`` or ``a/b`` with a leading minus
    at most, is read directly; anything else through ``_rational``."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        den = den if slash else "1"
        if (num.removeprefix("-").isdigit() and den.isdigit()
                and den.strip("0")):
            p, q = int(num), int(den)
            g = math.gcd(p, q)
            return p // g, q // g
    f = _rational(value, what)
    return f.numerator, f.denominator


def _read_entry(entry):
    """A list ``path_from_json`` has read into pairs, as it is; any other
    entry is checked by ``_coefficients``."""
    return entry if isinstance(entry, list) else _coefficients(entry)


def path_from_json(obj) -> LagrangianPath:
    pieces = []
    for p in _json_list(_json_object(obj, "path"), "pieces", "path"):
        if "t0" in p:
            a = _rational(p["t0"], "t0")
            b = _rational(_json_field(p, "t1", "piece"), "t1")
        else:
            ends = _json_field(p, "interval", "piece")
            if not (isinstance(ends, list) and len(ends) == 2):
                raise ValueError(
                    f"interval must be a list of two ends, got {ends!r}")
            a, b = (_rational(v, "interval end") for v in ends)
        key = "matrix" if "matrix" in p and "A" not in p else "A"
        raw = _json_field(p, key, "piece")
        if not (isinstance(raw, list)
                and all(isinstance(row, list) for row in raw)):
            raise ValueError(f"{key} {raw!r} is not a list of matrix rows")
        # an entry that is not a list is left for _piece to reject
        matrix = [[[_pair(c, "matrix entry coefficient") for c in entry]
                   if isinstance(entry, list) else entry for entry in row]
                  for row in raw]
        pieces.append(_piece(a, b, matrix, _read_entry))
    path = make_path(pieces)
    if "n" in obj:
        n = _json_int(obj, "n", "path")
        if n != path.n:
            raise ChartMismatch(f"the path file gives n = {n!r} but its "
                                f"matrices are {path.n} x {path.n}")
    return path


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
