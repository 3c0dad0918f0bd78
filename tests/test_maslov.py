"""Crossing-form indices: calibration values, Morse-graph paths, duality."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from openstrings import maslov
from openstrings._poly import InexactDivision
from openstrings.maslov import (
    ChartMismatch,
    DegenerateCrossing,
    LagrangianPath,
    NonTransverseEndpoints,
    dual_path,
    make_path,
    make_piece,
    path_from_json,
    report_to_json,
    rs_index,
    rs_index_report,
    string_index,
    _inertia,
)

import maslov_reference as ref


def line_path():
    """A single 1x1 piece sweeping through its own starting position."""
    return make_path([make_piece(-1, 1, [[(0, 1)]])])  # A(t) = t


def test_calibration_value():
    path = line_path()
    assert rs_index([[-1]], path) == Fraction(-1, 2)
    assert string_index(path) == 1


def test_calibration_report():
    path = line_path()
    rep = rs_index_report([[-1]], path)
    assert rep.total == Fraction(-1, 2)
    (c,) = rep.crossings
    assert c.location == "start"
    assert c.kernel_dimension == 1
    blob = report_to_json(rep)
    assert blob["rs_index"] == "-1/2"
    assert blob["n"] == 1
    assert blob["crossings"][0]["location"] == "start"


def _graph_path(diag):
    """A(t) = (t + 1) * diag(...) over [-1, 1]."""
    n = len(diag)
    rows = [[(d, d) if i == j else (0,) for j in range(n)]
            for i, d in enumerate(diag)]
    return make_path([make_piece(-1, 1, rows)])


def test_morse_graph_paths():
    for n in range(1, 6):
        for i_m in range(0, n + 1):
            path = _graph_path([-1] * i_m + [1] * (n - i_m))
            assert string_index(path) == n - i_m, (n, i_m)


def _random_pl_path(rng):
    """Continuous piecewise-linear symmetric path with rational breakpoints."""
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    breaks = sorted(rng.sample(range(-8, 9), k + 1))
    ts = [Fraction(b, 4) for b in breaks]

    def sym():
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)]
        return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]

    values = [sym() for _ in range(k + 1)]
    pieces = []
    for s in range(k):
        t0, t1 = ts[s], ts[s + 1]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                slope = (values[s + 1][i][j] - values[s][i][j]) / (t1 - t0)
                row.append((values[s][i][j] - t0 * slope, slope))
            rows.append(row)
        pieces.append(make_piece(t0, t1, rows))
    return n, make_path(pieces)


def test_duality_on_random_paths():
    rng = random.Random(20260816)
    done = 0
    while done < 100:
        n, path = _random_pl_path(rng)
        try:
            si = string_index(path)
            sid = string_index(dual_path(path))
        except (NonTransverseEndpoints, DegenerateCrossing):
            continue
        assert si + sid == n, (n, si, sid)
        done += 1


def test_dual_is_involution_on_values():
    rng = random.Random(7)
    for _ in range(20):
        _, path = _random_pl_path(rng)
        dd = dual_path(dual_path(path))
        for p, q in zip(path.pieces, dd.pieces):
            assert (p.start, p.end, ref.fraction_matrix(p)) == (
                q.start, q.end, ref.fraction_matrix(q))


def test_subdivision_invariance():
    # one linear piece against the same path cut in two
    rows = [[(1, 2), (0, 1)], [(0, 1), (-1, 1)]]
    whole = make_path([make_piece(0, 2, rows)])
    halves = make_path([make_piece(0, 1, rows), make_piece(1, 2, rows)])
    ref = [[5, 0], [0, 5]]
    assert rs_index(ref, whole) == rs_index(ref, halves)
    # diag(t-1, +-(t-1)): a crossing with a 2-dimensional kernel at the cut
    half = Fraction(1, 2)
    for entry, sig in (((-1, 1), 2), ((1, -1), 0)):
        whole = _diag_path([(-1, 1), entry], 0, 2)
        halves = _repiece(whole, 0, 1, 2)
        assert rs_index(_zero(2), whole) == rs_index(_zero(2), halves)
        (c,) = rs_index_report(_zero(2), halves).crossings
        assert (c.location, c.kernel_dimension, c.parts) == (
            "junction", 2, ((half, sig), (half, sig)))


def test_non_transverse_endpoints_raise():
    # start and end coincide, so no transverse string index exists
    path = make_path([make_piece(0, 1, [[(0, 1)]]),
                      make_piece(1, 2, [[(2, -1)]])])
    with pytest.raises(NonTransverseEndpoints):
        string_index(path)


def test_degenerate_crossing_raises():
    path = make_path([make_piece(0, 1, [[(3,)]])])  # constant piece
    with pytest.raises(DegenerateCrossing):
        rs_index([[3]], path)


def test_chart_mismatch():
    with pytest.raises(ChartMismatch):
        make_piece(0, 1, [[(1,), (0,)]])
    with pytest.raises(ChartMismatch):
        rs_index([[1, 0], [0, 1]], line_path())
    with pytest.raises(ChartMismatch, match="^matrix is not symmetric$"):
        make_piece(0, 1, [[(1,), (0, 1)], [(0,), (1,)]])
    square = make_piece(1, 2, [[(1,), ()], [(), (1,)]])
    with pytest.raises(ChartMismatch,
                       match="^pieces have different matrix sizes$"):
        make_path([make_piece(0, 1, [[(1,)]]), square])
    with pytest.raises(ChartMismatch,
                       match="^path is discontinuous at a junction$"):
        make_path([make_piece(0, 1, [[(1,)]]), make_piece(1, 2, [[(2,)]])])
    with pytest.raises(ChartMismatch,
                       match="^reference matrix is not symmetric$"):
        rs_index([[1, 2], [0, 1]], make_path([square]))
    for t in (Fraction(-2), Fraction(3, 2)):
        with pytest.raises(ValueError,
                           match="^parameter outside the path domain$"):
            line_path().value(t)


@pytest.mark.parametrize("entry", ["01", 1, None, (1, "2"), [True], [[1]]])
def test_entries_that_are_not_lists_of_numbers_raise(entry):
    with pytest.raises(ChartMismatch, match="is not a list of numbers"):
        make_piece(0, 1, [[entry]])


def test_equal_matrices_written_differently_give_equal_pieces():
    def piece(*entries):
        obj = {"pieces": [{"t0": "0", "t1": "1", "A": [
            [entries[0], entries[1]], [entries[1], entries[2]]]}]}
        (p,) = path_from_json(obj).pieces
        return p

    written = [piece(["1/2", "1"], ["0"], ["-3", "0", "1/3"]),
               piece(["2/4", "2/2", "0"], [], ["-6/2", "0/5", "3/9", "0"]),
               piece([0.5, 1], [0, 0], [-3, 0, "1/3"])]
    assert written[0] == written[1] == written[2]
    assert written[0].den == 6
    assert written[0].num == (({0: 3, 1: 6}, {}), ({}, {0: -18, 2: 2}))
    assert make_piece(0, 1, [[(Fraction(2, 4), 1, 0)]]) == make_piece(
        0, 1, [[[Fraction(1, 2), Fraction(3, 3)]]])
    assert make_piece(0, 1, [[()]]) == make_piece(0, 1, [[(0, 0)]])


# coefficients a reader may meet: plain ints and "a"/"a/b" strings, read
# directly, and everything else, read through Fraction(str(value))
_COEFFICIENTS = [
    0, 5, -12, 10 ** 30, "3", "-3", "+3", "007", "-0", "0/5", "6/4", "-6/4",
    "6/-4", "1/0", "0/0", "3/", "/3", "", "-", " 3", "1_000", "\u0661",
    "\u00b2", "3.5", "1e3", "-1/00", "1/007", True, None, 2.5, [1], "abc",
    "1" * 5000, "1/" + "2" * 5000]


def _reader_outcome(read, obj):
    try:
        out = read(obj)
    except (ValueError, TypeError) as err:
        return type(err).__name__, str(err)
    if isinstance(out, LagrangianPath):
        out = tuple((p.start, p.end, p.num, p.den) for p in out.pieces)
    return out


def _random_path_json(rng):
    """A path file of one to three pieces, continuous or not, with faults
    drawn independently: bad or reversed intervals, coefficients of every
    kind in ``_COEFFICIENTS``, entries that are not lists, rows of the
    wrong length, asymmetric matrices and a wrong ``n``."""
    n = rng.randint(1, 3)
    ends = sorted(rng.sample(range(-6, 7), rng.randint(2, 4)))
    at = rng.choice(("0", "1/2", "-3"))
    pieces = []
    for t0, t1 in zip(ends, ends[1:]):
        m = [[[rng.choice(("1", "-2", "1/3", 4, "6/4", "0"))
               for _ in range(rng.randint(0, 2))] for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = list(m[j][i])
            for j in range(n):
                # one value at every junction, so continuity holds
                m[i][j][:1] = [at] if rng.random() < 0.9 else ["5"]
                if m[i][j][1:]:
                    m[i][j] = [at, "0"]
        ends_json = [str(t0), str(t1)]
        if rng.random() < 0.1:
            ends_json.reverse()
        if rng.random() < 0.05:
            ends_json[0] = rng.choice(("1/0", "x", True))
        if rng.random() < 0.15:
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = rng.choice((list(m[i][j]) + [rng.choice(_COEFFICIENTS)],
                                  rng.choice(("1", 1, None, (1, 2)))))
        if rng.random() < 0.05:
            m[rng.randrange(n)].append(["1"])
        if rng.random() < 0.05 and n > 1:
            m[0][1] = [at, "7"]
        piece = ({"interval": ends_json, "matrix": m} if rng.random() < 0.5
                 else {"t0": ends_json[0], "t1": ends_json[1], "A": m})
        pieces.append(piece)
    obj = {"pieces": pieces}
    if rng.random() < 0.2:
        obj["n"] = rng.choice((n, n + 1))
    return obj


def test_pair_reader_matches_fraction_reader_on_coefficients():
    for c in _COEFFICIENTS:
        for entry in ([c], [c, "1/2"], ["1/2", c]):
            obj = {"n": 1, "pieces": [{"t0": "0", "t1": "1", "A": [[entry]]}]}
            assert _reader_outcome(path_from_json, obj) == _reader_outcome(
                ref.fraction_path_from_json, obj), c


def test_pair_reader_matches_fraction_reader_on_random_paths():
    rng = random.Random(4040)
    seen = set()
    for _ in range(600):
        obj = _random_path_json(rng)
        want = _reader_outcome(ref.fraction_path_from_json, obj)
        assert _reader_outcome(path_from_json, obj) == want, obj
        seen.add(want[1] if isinstance(want[0], str) else "path")
    assert {"path", "piece interval must have positive length",
            "matrix is not square", "matrix is not symmetric",
            "path is discontinuous at a junction"} <= seen
    assert any("is not a list of numbers" in x for x in seen)
    assert any("zero denominator" in x for x in seen)


def test_path_file_n_must_match_the_matrix_size():
    obj = {"n": 3, "pieces": [{"t0": -1, "t1": 1, "A": [[[0, 1]]]}]}
    with pytest.raises(ChartMismatch, match="n = 3 .* 1 x 1"):
        path_from_json(obj)
    assert path_from_json({**obj, "n": 1}).n == 1
    assert path_from_json({"pieces": obj["pieces"]}).n == 1


def test_path_objects_may_be_any_mapping_but_not_a_list():
    piece = {"t0": -1, "t1": 1, "A": [[[0, 1]]]}
    plain = path_from_json({"pieces": [piece]})
    assert path_from_json(MappingProxyType(
        {"pieces": [MappingProxyType(piece)]})) == plain
    with pytest.raises(ValueError, match="path must be a JSON object"):
        path_from_json([piece])
    with pytest.raises(ValueError, match=r"pieces\[0\] must be a JSON object"):
        path_from_json({"pieces": [[piece]]})


# ---------------------------------------------------------------------------
# differential test: the fraction-free inertia against the elimination over
# Q that it replaced


def _inertia_corpus(rng, count):
    """Seeded symmetric rational matrices of sizes 1-6: dense, sparse,
    with a zero diagonal (the 2 x 2 pivot step) and Q^T D Q with zeros
    in D (singular, with known inertia)."""
    for _ in range(count):
        n = rng.randint(1, 6)
        kind = rng.choice(("dense", "sparse", "zero diagonal", "congruent"))
        if kind == "congruent":
            diag = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)]
            q = _unimodular(rng, n)
            M = [[sum(q[a][i] * diag[a] * q[a][j] for a in range(n))
                  for j in range(n)] for i in range(n)]
            known = (sum((d > 0) - (d < 0) for d in diag),
                     sum(d == 0 for d in diag))
        else:
            M = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if kind == "sparse" and rng.random() < 0.6:
                        continue
                    if kind == "zero diagonal" and i == j:
                        continue
                    M[i][j] = M[j][i] = Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 4))
            known = None
        yield kind, M, known


def _cleared(M, scale=1):
    """scale * L * M for the least L clearing M's denominators."""
    L = math.lcm(*(x.denominator for row in M for x in row))
    return [[int(x * L) * scale for x in row] for row in M]


def test_inertia_matches_fraction_reference():
    rng = random.Random(20261019)
    seen = {"zero diagonal": 0, "singular": 0, "congruent": 0}
    for kind, M, known in _inertia_corpus(rng, 1500):
        expected = ref._inertia(M)
        for scale in (1, rng.randint(2, 50)):
            assert _inertia(_cleared(M, scale)) == expected, (M, scale)
        if known is not None:
            assert expected == known, M
        if kind in seen:
            seen[kind] += 1
        seen["singular"] += expected[1] > 0
    assert min(seen.values()) > 100, seen
    # the 2 x 2 step with either sign, zero and empty matrices
    for M, expected in (([[0, 1], [1, -2]], (0, 0)),
                        ([[0, 1], [1, 2]], (0, 0)), ([[0, 0], [0, 0]], (0, 2)),
                        ([[0, 0], [0, 3]], (1, 1)), ([], (0, 0))):
        assert _inertia(M) == expected == ref._inertia(
            [[Fraction(x) for x in row] for row in M])


def test_inertia_raises_on_a_remainder():
    # not symmetric, so the pivots are not minors and a step is not exact
    with pytest.raises(InexactDivision, match="at pivot 1"):
        _inertia([[-3, -3, 2], [1, -3, 0], [2, -2, 0]])


class TestJson:
    def test_schema_round_trip(self):
        obj = {"pieces": [{"t0": -1, "t1": 1, "A": [[[0, 1]]]}]}
        path = path_from_json(obj)
        assert rs_index([[-1]], path) == Fraction(-1, 2)

    def test_legacy_keys(self):
        obj = {"pieces": [
            {"interval": [-1, 1], "matrix": [[[0, 1]]]},
        ]}
        path = path_from_json(obj)
        assert string_index(path) == 1

    def test_fractional_entries(self):
        obj = {"pieces": [{"t0": "0", "t1": "1/2",
                           "A": [[["1/3", "2"]]]}]}
        path = path_from_json(obj)
        assert path.pieces[0].start == 0
        assert path.pieces[0].end == Fraction(1, 2)

    def test_report_shape(self):
        rep = rs_index_report([[-1]], line_path())
        blob = report_to_json(rep)
        assert set(blob) == {"n", "rs_index", "crossings"}
        c = blob["crossings"][0]
        assert set(c) == {"interval", "location", "kernel_dimension",
                          "parts"}


# ---------------------------------------------------------------------------
# interior crossings with a kernel of dimension > 1


def _diag_path(entries, start, end):
    n = len(entries)
    rows = [[entries[i] if i == j else (0,) for j in range(n)]
            for i in range(n)]
    return make_path([make_piece(start, end, rows)])


def _zero(n):
    return [[0] * n for _ in range(n)]


def _repiece(path, *points):
    """The polynomial of a one-piece path on the pieces between ``points``."""
    (p,) = path.pieces
    return make_path([make_piece(a, b, ref.fraction_matrix(p))
                      for a, b in zip(points, points[1:])])


DOUBLE_ROOT = _diag_path([(-2, 0, 1)] * 2, 0, 2)
SPLIT_DOUBLE_ROOT = _diag_path([(-2, 0, 1), (2, 0, -1)], 0, 2)
ORDER_ABOVE_N = _diag_path([(0, 0, 1)], -1, 1)
TANGENTIAL = _diag_path([(0, 0, 1), (2, 1)], -1, 1)
# det = -t^3 with a 1-dimensional kernel at 0: every 1 x 1 principal minor
# vanishes there, but the 2 x 2 minor on the first block does not
RANK_JUMP = make_path([make_piece(-1, 1, [[(0,), (1,), (0,)],
                                          [(1,), (0,), (0,)],
                                          [(0,), (0,), (0, 0, 0, 1)]])])


def test_double_root_with_full_kernel():
    # t^2 - 2 twice: a root of order 2 at sqrt(2) with a 2-dimensional
    # kernel and crossing form 2 sqrt(2) I
    assert report_to_json(rs_index_report(_zero(2), DOUBLE_ROOT)) == {
        "n": 2, "rs_index": "-2",
        "crossings": [{"interval": ["0", "2"], "location": "interior",
                       "kernel_dimension": 2, "parts": [["1", 2]]}]}


def test_double_root_with_split_signature():
    rep = rs_index_report(_zero(2), SPLIT_DOUBLE_ROOT)
    assert rep.total == 0
    (c,) = rep.crossings
    assert (c.location, c.kernel_dimension, c.parts) == (
        "interior", 2, ((Fraction(1), 0),))


def test_each_sturm_chain_is_built_once(monkeypatch):
    # diag(t (2t - 1)(2t - 3), (2t - 1)(t^2 - 2)) on [0, 2]: det has the
    # squarefree factors t (2t - 3)(t^2 - 2), of order 1 with a boundary
    # root at 0, and 2t - 1 of order 2
    path = _diag_path([(0, 3, -8, 4), (2, -4, -1, 2)], 0, 2)
    built = []
    real = maslov._sturm_chain
    monkeypatch.setattr(maslov, "_sturm_chain",
                        lambda p: built.append(p) or real(p))
    rep = rs_index_report(_zero(2), path)
    assert [(c.location, c.kernel_dimension) for c in rep.crossings] == [
        ("start", 1), ("interior", 2), ("interior", 1), ("interior", 1)]
    # the squarefree part; t at the boundary point; (2t - 3)(t^2 - 2), the
    # rest of the first factor; 2t - 1; and the gcd of the order-2 root
    # with the 1 x 1 minors, which is 2t - 1 again
    assert built == [{1: -6, 2: 16, 3: -5, 4: -8, 5: 4}, {1: 1},
                     {0: 6, 1: -4, 2: -3, 3: 2}, {0: -1, 1: 2},
                     {0: -1, 1: 2}]


def test_each_sturm_sign_is_taken_once(monkeypatch):
    # the path above: each Sturm count evaluates every member of the chain
    # once at each end, the left-endpoint guard included, and each bracket
    # test of a signature jump takes the squarefree part's signs at each
    # end once, its guard's included
    path = _diag_path([(0, 3, -8, 4), (2, -4, -1, 2)], 0, 2)
    calls, counts, jumps = [], [], []
    real_sign = maslov.sign_at
    real_count, real_jump = maslov._sturm_count, maslov._signature_jump

    def counted(chain, lo, hi):
        before = len(calls)
        out = real_count(chain, lo, hi)
        counts.append((len(chain), len(calls) - before))
        return out

    def jumped(P, chain, lo, hi, sqf_chain):
        before = len(calls)
        out = real_jump(P, chain, lo, hi, sqf_chain)
        jumps.append(len(calls) - before)
        return out

    monkeypatch.setattr(maslov, "sign_at",
                        lambda p, x: calls.append(1) or real_sign(p, x))
    monkeypatch.setattr(maslov, "_sturm_count", counted)
    monkeypatch.setattr(maslov, "_signature_jump", jumped)
    rep = rs_index_report(_zero(2), path)
    assert [(c.location, c.kernel_dimension) for c in rep.crossings] == [
        ("start", 1), ("interior", 2), ("interior", 1), ("interior", 1)]
    assert len(counts) == 13
    assert all(n == 2 * size for size, n in counts), counts
    # the jumps took 48, 14, 14 and 22 with the bracket test's repeats of
    # the squarefree part's signs at both ends, 187 calls in all
    assert jumps == [42, 12, 12, 20]
    assert len(calls) == 175


# each singular crossing at 0 inside the piece, at the start, at the end
# and at a junction
_SINGULAR = [("order-above-n", ORDER_ABOVE_N), ("tangential", TANGENTIAL),
             ("rank-jump", RANK_JUMP)]
_PLACES = [("", (-1, 1)), ("-start", (0, 1)), ("-end", (-1, 0)),
           ("-junction", (-1, 0, 1))]


@pytest.mark.parametrize(
    "path", [_repiece(p, *pts) for _n, p in _SINGULAR for _s, pts in _PLACES],
    ids=[n + s for n, _p in _SINGULAR for s, _pts in _PLACES])
def test_singular_crossings_raise(path):
    with pytest.raises(DegenerateCrossing, match="^singular crossing form$"):
        rs_index_report(_zero(path.n), path)


# ---------------------------------------------------------------------------
# differential test: interior crossings against the linear algebra over
# Q[x]/(g) that the inertia rule replaced, swapped in at its one call site
# in the reference copy of the Fraction polynomial path


def _pxgcd(p, q):
    """Extended gcd: returns (d, s, t) with s*p + t*q = d."""
    r0, r1 = p, q
    s0, s1 = ref._pconst(1), ()
    t0, t1 = (), ref._pconst(1)
    while r1:
        quo, rem = ref._pdivmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, ref._psub(s0, ref._pmul(quo, s1))
        t0, t1 = t1, ref._psub(t0, ref._pmul(quo, t1))
    return r0, s0, t0


class _RootCtx:
    """Arithmetic at one real root t* of a squarefree polynomial g, located
    in the isolating interval (lo, hi].  Zero tests may replace g by the
    factor still vanishing at t*; sign queries shrink the interval."""

    def __init__(self, g, lo, hi):
        self.g = ref._pmonic(g)
        self.lo = lo
        self.hi = hi

    def reduce(self, h):
        return ref._pdivmod(h, self.g)[1] if len(h) >= len(self.g) else h

    def mul(self, a, b):
        return self.reduce(ref._pmul(a, b))

    def is_zero(self, h):
        h = self.reduce(h)
        if not h:
            return True
        if len(self.g) == 1:
            return False
        c = ref._pgcd(h, self.g)
        if len(c) == 1:
            return False
        if ref._sturm_count(c, self.lo, self.hi) == 1:
            self.g = c
            return True
        self.g = ref._pdivmod(self.g, c)[0]
        return False

    def inv(self, h):
        h = self.reduce(h)
        d, s, _t = _pxgcd(h, self.g)
        if len(d) != 1:
            raise AssertionError("inverting a zero divisor without a split")
        return self.reduce(ref._pscale(s, 1 / d[0]))

    def _refine(self):
        mid = (self.lo + self.hi) / 2
        if ref._peval(self.g, mid) == 0:
            self.lo = (self.lo + mid) / 2
            return
        if ref._sturm_count(self.g, self.lo, mid) == 1:
            self.hi = mid
        else:
            self.lo = mid

    def sign_at(self, h):
        if self.is_zero(h):
            return 0
        h = self.reduce(h)
        while True:
            if (ref._peval(h, self.lo) != 0
                    and ref._sturm_count(h, self.lo, self.hi) == 0):
                return 1 if ref._peval(h, self.hi) > 0 else -1
            self._refine()


def _kernel_ctx(ctx, M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    R = [[ctx.reduce(e) for e in row] for row in M]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((rr for rr in range(r, rows)
                    if not ctx.is_zero(R[rr][c])), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = ctx.inv(R[r][c])
        R[r] = [ctx.mul(inv, e) for e in R[r]]
        for rr in range(rows):
            if rr != r and not ctx.is_zero(R[rr][c]):
                f = R[rr][c]
                R[rr] = [ref._psub(e, ctx.mul(f, R[r][j]))
                         for j, e in enumerate(R[rr])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for fc in range(cols):
        if fc in piv_cols:
            continue
        v = [()] * cols
        v[fc] = ref._pconst(1)
        for k, pc in enumerate(piv_cols):
            v[pc] = ref._pneg(R[k][fc])
        basis.append(v)
    return basis


def _signature_ctx(ctx, G):
    k = len(G)
    A = [[ctx.reduce(e) for e in row] for row in G]
    sig = 0
    for i in range(k):
        if ctx.is_zero(A[i][i]):
            j = next((jj for jj in range(i + 1, k)
                      if not ctx.is_zero(A[i][jj])), None)
            if j is None:
                raise DegenerateCrossing("singular crossing form")
            for s in (1, -1):
                cand = ref._padd(ref._padd(
                    A[i][i], ref._pscale(A[i][j], Fraction(2 * s))), A[j][j])
                if not ctx.is_zero(cand):
                    sc = ref._pconst(s)
                    for col in range(k):
                        A[i][col] = ref._padd(A[i][col], ctx.mul(sc, A[j][col]))
                    for row in range(k):
                        A[row][i] = ref._padd(A[row][i], ctx.mul(sc, A[row][j]))
                    break
        d = A[i][i]
        sg = ctx.sign_at(d)
        if sg == 0:
            raise DegenerateCrossing("singular crossing form")
        sig += sg
        dinv = ctx.inv(d)
        factors = {r: ctx.mul(A[r][i], dinv) for r in range(i + 1, k)
                   if not ctx.is_zero(A[r][i])}
        for r, f in factors.items():
            for col in range(i, k):
                A[r][col] = ref._psub(A[r][col], ctx.mul(f, A[i][col]))
        for r in range(i + 1, k):
            A[r][i] = ()
            A[i][r] = ()
    return sig


def _reference_interior(P, g, mult, lo, hi, _sqf_chain):
    """Kernel and crossing form over Q[x]/(g), then the multiplicity check
    the report used to make after it."""
    n = len(P)
    ctx = _RootCtx(g, lo, hi)
    kernel = _kernel_ctx(ctx, P)
    k = len(kernel)
    if k == 0:
        raise AssertionError("crossing with trivial kernel")
    Ap = [[ctx.reduce(ref._pderiv(e)) for e in row] for row in P]
    G = []
    for r in range(k):
        row = []
        for s in range(k):
            acc = ()
            for u in range(n):
                if not kernel[r][u]:
                    continue
                for v in range(n):
                    if not kernel[s][v] or not Ap[u][v]:
                        continue
                    acc = ref._padd(acc, ctx.mul(
                        ctx.mul(kernel[r][u], Ap[u][v]), kernel[s][v]))
            row.append(acc)
        G.append(row)
    sig = _signature_ctx(ctx, G)
    if mult != k:
        raise DegenerateCrossing(
            f"root multiplicity {mult} != kernel dimension {k}")
    return sig


def _outcome(reference, path, report=rs_index_report):
    try:
        return report_to_json(report(reference, path))
    except (DegenerateCrossing, ChartMismatch) as exc:
        return type(exc).__name__, str(exc)


def _outcomes(reference, path, monkeypatch):
    new = _outcome(reference, path)
    with monkeypatch.context() as mp:
        mp.setattr(ref, "_interior_crossing", _reference_interior)
        old = _outcome(reference, path, ref.rs_index_report)
    return new, old


# squarefree factors of diagonal entries: rational, irrational, close and
# repeated roots on [-2, 2]; a triple root at 0 and a tangency at 1/2
_ENTRY_POOL = [
    (1,), (-2,), (Fraction(1, 2), 1), (Fraction(-1, 3), -1), (-1, 1),
    (-2, 0, 1), (3, 0, -1), (-1, -1, 1), (0, 0, 0, 1),
    (Fraction(1, 4), -1, 1),                               # (t - 1/2)^2
    ref._pmul((-2, 0, 1), (Fraction(-7, 5), 1)),            # roots 1.4, 1.414..
]


def _unimodular(rng, n):
    low = [[Fraction(int(i == j)) if i <= j else Fraction(rng.randint(-1, 1))
            for j in range(n)] for i in range(n)]
    up = [[Fraction(int(i == j)) if i >= j else Fraction(rng.randint(-1, 1))
           for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _structured_path(rng):
    """Q^T D(t) Q on [-2, 2], cut at a rational point: D is diagonal with
    entries from the pool, repeated at random, or has a constant or
    polynomial hyperbolic block [[0, h], [h, 0]] in front."""
    n = rng.randint(1, 5)
    pick = [rng.choice(_ENTRY_POOL) for _ in range(rng.randint(1, n))]
    diag = [rng.choice(pick) for _ in range(n)]
    D = [[diag[i] if i == j else () for j in range(n)] for i in range(n)]
    if n >= 2 and rng.random() < 0.3:
        h = rng.choice([(1,), (-2, 0, 1), (Fraction(1, 2), 1)])
        D[0][0] = D[1][1] = ()
        D[0][1] = D[1][0] = h
    q = _unimodular(rng, n)
    rows = [[ref._pnorm([sum((Fraction(D[a][b][d]) * q[a][i] * q[b][j]
                             for a in range(n) for b in range(n)
                             if d < len(D[a][b])), Fraction(0))
                        for d in range(4)])
             for j in range(n)] for i in range(n)]
    cut = Fraction(rng.randint(-7, 7), 4)
    return make_path([make_piece(-2, cut, rows), make_piece(cut, 2, rows)])


def _random_pq_path(rng):
    """A continuous piecewise linear path, with a quadratic bump
    (t - t0)(t - t1) S on some pieces."""
    _, path = _random_pl_path(rng)
    pieces = []
    for p in path.pieces:
        if rng.random() < 0.5:
            pieces.append(p)
            continue
        bump = ref._pmul((-p.start, 1), (-p.end, 1))
        matrix = ref.fraction_matrix(p)
        n = len(matrix)
        s = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        rows = [[ref._padd(matrix[i][j],
                          ref._pscale(bump, Fraction(s[i][j] + s[j][i])))
                 for j in range(n)] for i in range(n)]
        pieces.append(make_piece(p.start, p.end, rows))
    return make_path(pieces)


def _corpus(seed, count):
    """Seeded (reference, path) pairs: structured and random paths, each
    against its start point or against a random symmetric reference."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.random()
        if kind < 0.5:
            path = _structured_path(rng)
        else:
            path = _random_pq_path(rng)
        n = path.n
        if rng.random() < 0.5:
            ref = path.value(path.start)
        elif kind < 0.5:
            ref = _zero(n)
        else:
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            ref = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        yield ref, path


@pytest.mark.parametrize("path", [
    DOUBLE_ROOT, SPLIT_DOUBLE_ROOT, ORDER_ABOVE_N, TANGENTIAL, RANK_JUMP,
    line_path()])
def test_interior_crossings_match_reference_on_fixtures(path, monkeypatch):
    new, old = _outcomes(_zero(path.n), path, monkeypatch)
    assert new == old


def test_interior_crossings_match_reference_on_random_corpus(monkeypatch):
    kinds = {"regular k > 1": 0, "rejected": 0}
    for ref, path in _corpus(20261018, 200):
        new, old = _outcomes(ref, path, monkeypatch)
        assert new == old, (ref, path)
        if isinstance(new, tuple):
            kinds["rejected"] += 1
        elif any(c["location"] == "interior" and c["kernel_dimension"] > 1
                 for c in new["crossings"]):
            kinds["regular k > 1"] += 1
    assert kinds["regular k > 1"] > 10 and kinds["rejected"] > 10, kinds


# ---------------------------------------------------------------------------
# differential test: the integer polynomial path against the Fraction
# polynomial path it replaced (interpolated determinants, monic Sturm
# chains), on reports, string indices and exceptions


def _string_outcome(index, path):
    try:
        return index(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _assert_matches_fraction_reference(reference, path):
    assert _outcome(reference, path) == _outcome(
        reference, path, ref.rs_index_report), (reference, path)
    assert _string_outcome(string_index, path) == _string_outcome(
        ref.string_index, path), path


_NAMED_PATHS = [
    DOUBLE_ROOT, SPLIT_DOUBLE_ROOT, ORDER_ABOVE_N, TANGENTIAL, RANK_JUMP,
    line_path(), _graph_path([-1, 1, 1]), _graph_path([-1, -1]),
    make_path([make_piece(0, 2, [[(1, 2), (0, 1)], [(0, 1), (-1, 1)]])]),
    make_path([make_piece(0, 1, [[(0, 1)]]), make_piece(1, 2, [[(2, -1)]])]),
    make_path([make_piece(0, 1, [[(3,)]])]),
    path_from_json({"pieces": [{"t0": "0", "t1": "1/2",
                                "A": [[["1/3", "2"]]]}]}),
]


@pytest.mark.parametrize("path", _NAMED_PATHS)
def test_integer_polynomials_match_fraction_reference_on_fixtures(path):
    n = path.n
    for reference in (_zero(n), path.value(path.start), [[5] * n] * n):
        _assert_matches_fraction_reference(reference, path)


def test_integer_polynomials_match_fraction_reference_on_random_corpus():
    for reference, path in _corpus(20261018, 200):
        _assert_matches_fraction_reference(reference, path)
