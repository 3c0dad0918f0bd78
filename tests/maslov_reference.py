"""The crossing-form path of ``openstrings.maslov`` as it was before its
polynomial arithmetic moved to integer polynomials and its crossings at
rational points moved to the inertia rule: tuples of ``Fraction``
coefficients, determinants by Newton interpolation, Sturm chains of monic
remainders, and at a rational start, end or junction a kernel over Q and
the crossing form built on it.  Also the symmetric Gaussian elimination
over Q that the library's fraction-free ``_inertia`` replaced.  Kept only
as a reference for the differential tests; the path data and the
exceptions are the library's own, and ``fraction_matrix`` gives the
Fraction view of a piece that this copy reads.

``fraction_path_from_json`` is ``maslov.path_from_json`` as it was before
coefficients were read into integer (numerator, denominator) pairs: every
coefficient a ``Fraction`` through ``str``, each piece built from Fraction
lists, and junctions compared on Fraction matrices.  It returns each
piece's (start, end, num, den)."""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from openstrings._json import _json_field, _json_int, _json_list, _json_object
from openstrings._poly import matrix_at
from openstrings.maslov import (
    CROSSING_SIGN,
    ChartMismatch,
    Crossing,
    CrossingReport,
    DegenerateCrossing,
    LagrangianPath,
    NonTransverseEndpoints,
    PathPiece,
    _rational,
    _reference_matrix,
)

Poly = Tuple[Fraction, ...]          # coefficients, constant term first


def fraction_matrix(piece: PathPiece) -> Tuple[Tuple[Poly, ...], ...]:
    """The piece's matrix num / den with Fraction coefficient tuples."""
    return tuple(tuple(_pnorm([Fraction(e.get(k, 0), piece.den)
                               for k in range(max(e, default=-1) + 1)])
                       for e in row) for row in piece.num)


def _pnorm(cs: Sequence[Fraction]) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pconst(c) -> Poly:
    return _pnorm([Fraction(c)])


def _padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return _pnorm([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)])


def _pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def _psub(p: Poly, q: Poly) -> Poly:
    return _padd(p, _pneg(q))


def _pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _pnorm(out)


def _pscale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def _peval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pderiv(p: Poly) -> Poly:
    return _pnorm([p[i] * i for i in range(1, len(p))])


def _pdivmod(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        f = rem[-1] / lead
        shift = len(rem) - 1 - dq
        quo[shift] = f
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
        rem.pop()
    return _pnorm(quo), _pnorm(rem)


def _pmonic(p: Poly) -> Poly:
    if not p:
        return ()
    return tuple(c / p[-1] for c in p)


def _pgcd(p: Poly, q: Poly) -> Poly:
    a, b = p, q
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _yun_squarefree(p: Poly) -> List[Tuple[Poly, int]]:
    """Squarefree decomposition: list of (monic factor, multiplicity)."""
    if len(p) <= 1:
        return []
    dp = _pderiv(p)
    u = _pgcd(p, dp)
    v = _pdivmod(p, u)[0]
    w = _pdivmod(dp, u)[0]
    out = []
    i = 1
    while len(v) > 1:
        diff = _psub(w, _pderiv(v))
        s = _pgcd(v, diff) if diff else _pmonic(v)
        if len(s) > 1:
            out.append((s, i))
        v = _pdivmod(v, s)[0]
        w = _pdivmod(diff, s)[0] if diff else ()
        if not diff:
            w = ()
        i += 1
    return out


def _sturm_chain(p: Poly) -> List[Poly]:
    chain = [p, _pderiv(p)]
    while chain[-1]:
        rem = _pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_pneg(rem))
    return [c for c in chain if c]


def _sign_changes(chain: List[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _peval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_count(p: Poly, lo: Fraction, hi: Fraction,
                 chain: Optional[List[Poly]] = None) -> int:
    """Distinct roots of p in (lo, hi]; requires p(lo) != 0."""
    if _peval(p, lo) == 0:
        raise AssertionError("sturm count with root at left endpoint")
    if chain is None:
        chain = _sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _isolate_roots(f: Poly, lo: Fraction, hi: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals (l, h] for the roots of squarefree f strictly
    inside (lo, hi); requires f(lo) != 0 and f(hi) != 0."""
    chain = _sturm_chain(f)

    def rec(a: Fraction, b: Fraction) -> List[Tuple[Fraction, Fraction]]:
        k = _sturm_count(f, a, b, chain)
        if k == 0:
            return []
        if k == 1:
            return [(a, b)]
        span = b - a
        split = None
        num, den = 1, 2
        while split is None:
            for j in range(1, den, 2):
                cand = a + span * Fraction(j, den)
                if _peval(f, cand) != 0:
                    split = cand
                    break
            den *= 2
        return rec(a, split) + rec(split, b)

    return rec(lo, hi)



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


def _kernel_q(M: List[List[Fraction]]) -> List[List[Fraction]]:
    rows = len(M)
    cols = len(M[0]) if rows else 0
    R = [row[:] for row in M]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((rr for rr in range(r, rows) if R[rr][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = 1 / R[r][c]
        R[r] = [e * inv for e in R[r]]
        for rr in range(rows):
            if rr != r and R[rr][c] != 0:
                f = R[rr][c]
                R[rr] = [e - f * R[r][j] for j, e in enumerate(R[rr])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for fc in range(cols):
        if fc in piv_cols:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for k, pc in enumerate(piv_cols):
            v[pc] = -R[k][fc]
        basis.append(v)
    return basis


def _signature_q(G: List[List[Fraction]]) -> int:
    k = len(G)
    A = [row[:] for row in G]
    sig = 0
    for i in range(k):
        if A[i][i] == 0:
            j = next((jj for jj in range(i + 1, k) if A[i][jj] != 0), None)
            if j is None:
                raise DegenerateCrossing("singular crossing form")
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
    return sig


def _rational_crossing(piece: PathPiece, B: List[List[Fraction]],
                       t0: Fraction) -> Tuple[int, int]:
    """(kernel dimension, signature of the crossing form) at a rational t0."""
    matrix = fraction_matrix(piece)
    n = len(matrix)
    M = [[_peval(matrix[i][j], t0) - B[i][j] for j in range(n)]
         for i in range(n)]
    kernel = _kernel_q(M)
    k = len(kernel)
    if k == 0:
        raise AssertionError("crossing with trivial kernel")
    Ap = [[_peval(_pderiv(matrix[i][j]), t0) for j in range(n)]
          for i in range(n)]
    G = [[sum(kernel[r][u] * Ap[u][v] * kernel[s][v]
              for u in range(n) for v in range(n))
          for s in range(k)] for r in range(k)]
    return k, _signature_q(G)


def _det_q(M: List[List[Fraction]]) -> Fraction:
    n = len(M)
    A = [row[:] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            if A[r][c] != 0:
                f = A[r][c] * inv
                for j in range(c, n):
                    A[r][j] -= f * A[c][j]
    return det


def _det_poly(M: List[List[Poly]]) -> Poly:
    n = len(M)
    if n == 0:
        return _pconst(1)
    bound = 0
    for row in M:
        degs = [len(e) - 1 for e in row if e]
        if not degs:
            return ()
        bound += max(degs)
    xs = [Fraction(k) for k in range(bound + 1)]
    ys = [_det_q([[_peval(e, x) for e in row] for row in M]) for x in xs]
    # Newton divided differences
    coef = ys[:]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly: Poly = ()
    basis: Poly = _pconst(1)
    for i, c in enumerate(coef):
        poly = _padd(poly, _pscale(basis, c))
        basis = _pmul(basis, _pnorm([-xs[i], Fraction(1)]))
    return poly


def _root_multiplicity(d: Poly, t0: Fraction) -> int:
    m = 0
    lin = _pnorm([-t0, Fraction(1)])
    while d and _peval(d, t0) == 0:
        d = _pdivmod(d, lin)[0]
        m += 1
    return m


def _interior_crossing(P: List[List[Poly]], f: Poly, m: int, lo: Fraction,
                       hi: Fraction, sqf_chain: List[Poly]) -> int:
    """Signature of the crossing form at the root t* of the squarefree
    factor f isolated in (lo, hi], where det P has a root of order m;
    ``sqf_chain`` is the Sturm chain of the squarefree part of det P.

    The kernel dimension k at t* is at most m, with equality exactly when
    the crossing form is nondegenerate (take the Schur complement onto the
    kernel).  A symmetric matrix has rank r iff some principal r x r minor
    is nonzero and no larger one is, so k = m iff every principal minor of
    P of size n-m+1 .. n-1 vanishes at t* (size n is det P itself).  At
    such a regular crossing the k small eigenvalues of P(t) change sign
    with the crossing form, so its signature is half the jump of the
    signature of P between rational points on either side of t* with no
    other root of det P between them.
    """
    n = len(P)
    if m > n:
        raise DegenerateCrossing("singular crossing form")
    if m > 1:
        g = f
        for size in range(n - m + 1, n):
            for idx in combinations(range(n), size):
                g = _pgcd(g, _det_poly([[P[i][j] for j in idx] for i in idx]))
        if _sturm_count(g, lo, hi) != 1:
            raise DegenerateCrossing("singular crossing form")
    sqf = sqf_chain[0]
    chain = _sturm_chain(f)
    while not (_peval(sqf, lo) and _peval(sqf, hi)
               and _sturm_count(sqf, lo, hi, sqf_chain) == 1):
        mid = (lo + hi) / 2
        if _peval(f, mid) == 0:
            lo = (lo + mid) / 2
        elif _sturm_count(f, lo, mid, chain) == 1:
            hi = mid
        else:
            lo = mid
    before, after = ([[_peval(e, t) for e in row] for row in P]
                     for t in (lo, hi))
    return (_signature_q(after) - _signature_q(before)) // 2


def rs_index_report(reference, path: LagrangianPath) -> CrossingReport:
    n = path.n
    B = _reference_matrix(reference, n)

    # per-boundary-point contributions keyed by parameter value
    boundary: Dict[Fraction, List[Tuple[int, int, int]]] = {}
    crossings: List[Crossing] = []

    for p_idx, piece in enumerate(path.pieces):
        matrix = fraction_matrix(piece)
        P = [[_psub(matrix[i][j], _pconst(B[i][j])) for j in range(n)]
             for i in range(n)]
        d = _det_poly(P)
        if not d:
            raise DegenerateCrossing(
                "determinant vanishes identically on a piece")
        for t0 in (piece.start, piece.end):
            if _peval(d, t0) == 0:
                m = _root_multiplicity(d, t0)
                k, sig = _rational_crossing(piece, B, t0)
                if m != k:
                    raise DegenerateCrossing(
                        f"root multiplicity {m} != kernel dimension {k} at t={t0}")
                boundary.setdefault(t0, []).append((p_idx, k, sig))
        factors = _yun_squarefree(d)
        sqf_chain = _sturm_chain(
            reduce(_pmul, (f for f, _m in factors), _pconst(1)))
        for factor, mult in factors:
            f = factor
            for t0 in (piece.start, piece.end):
                lin = _pnorm([-t0, Fraction(1)])
                if _peval(f, t0) == 0:
                    f = _pdivmod(f, lin)[0]
            if len(f) <= 1:
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
            ks = {k for _p, k, _s in contribs}
            if len(contribs) != 2 or len(ks) != 1:
                raise DegenerateCrossing(
                    f"inconsistent junction crossing at t={t0}")
            parts = tuple((half, sig) for _p, _k, sig in
                          sorted(contribs, key=lambda c: c[0]))
            crossings.append(Crossing(t0, t0, "junction", ks.pop(), parts))

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
    diff = [[A1[i][j] - A0[i][j] for j in range(n)] for i in range(n)]
    if _det_q(diff) == 0:
        raise NonTransverseEndpoints(
            "endpoint Lagrangians are not transverse")
    if start_total is None:
        start_total = rs_index(A0, path)
    total = Fraction(n, 2) - start_total
    if total.denominator != 1:
        raise AssertionError("index of a transverse path must be an integer")
    return int(total)



def _fraction_piece(a, b, matrix):
    if not a < b:
        raise ValueError("piece interval must have positive length")
    rows = []
    for row in matrix:
        out = []
        for entry in row:
            if not (isinstance(entry, (list, tuple)) and all(
                    isinstance(c, numbers.Real) and not isinstance(c, bool)
                    for c in entry)):
                raise ChartMismatch(
                    f"matrix entry {entry!r} is not a list of numbers")
            out.append([Fraction(c) for c in entry])
        rows.append(out)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ChartMismatch("matrix is not square")
    den = math.lcm(*(c.denominator for row in rows for e in row for c in e))
    num = tuple(tuple({k: c.numerator * (den // c.denominator)
                       for k, c in enumerate(e) if c} for e in row)
                for row in rows)
    if any(num[i][j] != num[j][i] for i in range(n) for j in range(i)):
        raise ChartMismatch("matrix is not symmetric")
    return a, b, num, den


def _fraction_value(piece, t):
    _, _, num, den = piece
    M, scale = matrix_at(num, t)
    return [[Fraction(x, scale * den) for x in row] for row in M]


def fraction_path_from_json(obj):
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
        matrix = [[[_rational(c, "matrix entry coefficient") for c in entry]
                   if isinstance(entry, list) else entry for entry in row]
                  for row in raw]
        pieces.append(_fraction_piece(a, b, matrix))
    if not pieces:
        raise ValueError("path needs at least one piece")
    n = len(pieces[0][2])
    if any(len(p[2]) != n for p in pieces):
        raise ChartMismatch("pieces have different matrix sizes")
    for left, right in zip(pieces, pieces[1:]):
        if left[1] != right[0]:
            raise ChartMismatch("pieces are not contiguous")
        if _fraction_value(left, left[1]) != _fraction_value(right, right[0]):
            raise ChartMismatch("path is discontinuous at a junction")
    if "n" in obj:
        k = _json_int(obj, "n", "path")
        if k != n:
            raise ChartMismatch(f"the path file gives n = {k!r} but its "
                                f"matrices are {n} x {n}")
    return tuple(pieces)
