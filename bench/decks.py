"""Seeded job decks for the benchmark workloads.

A deck is a list of jobs.  Each job is one CLI request (``call`` is
``"cli"``) or one library call with no subcommand (``"homotopic_map"``,
``"invert"``), together with the outcome it must have.  Expected outcomes
come from how the input was built, never from running the code under
test: conjugating an associative datum keeps it a complex, a rank-r block
is a product of rank-r factors, a diagonal path crosses where its
diagonal does, and so on.

Decks are stratified: every seed draws the same mix of job classes and
sizes, and only the random content (signs, exponents, matrices, which
entry is mutated) changes.  That keeps the cost of a deck, and so every
end-to-end figure, steady from seed to seed.  Jobs are interleaved class
by class so that any prefix of the deck has roughly the deck's mix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import exact

WORKLOADS = ("chain", "cohomology", "maslov", "combinatorics")

# ---------------------------------------------------------------------------
# helpers


def _mono(sign: int, exp: Fraction) -> dict:
    return {Fraction(exp): sign}


def _exp(rng, lo, hi, denoms):
    return Fraction(rng.randint(lo, hi), rng.choice(denoms))


def _interleave(classes):
    """Round-robin over job classes; each class keeps its own order."""
    queues = [list(jobs) for jobs in classes]
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def _job(cls, call, argv, inp, expect):
    return {"cls": cls, "call": call, "argv": argv, "input": inp,
            "expect": expect}


# ---------------------------------------------------------------------------
# chain: all-pairs product data over labels 0..l
#
# Generator g_ij (i < j) has index j - i and the products g_ij g_jk -> g_ik.
# With all coefficients 1 this is an associative path algebra, so the
# assembled differential squares to zero; conjugating every generator by
# a unit +-t^e keeps that true and makes the coefficients real series.
# Shadow pairs add isolated generators s_ij (index j - i) and z_ij
# (index j - i - 1) that no structure tensor touches: they carry the
# homotopy tensors s_ij -> z_ij and the arity-2 continuation entries.


def _chain_gens(l, shadows):
    gens = [(f"g{i}{j}", i, j, j - i)
            for i in range(l + 1) for j in range(i + 1, l + 1)]
    for i, j in shadows:
        gens.append((f"s{i}{j}", i, j, j - i))
        gens.append((f"z{i}{j}", i, j, j - i - 1))
    return gens


def _units(rng, gens, denoms):
    return {g[0]: (rng.choice((1, -1)), _exp(rng, -3, 6, denoms)) for g in gens}


def _times(a, b):
    return (a[0] * b[0], a[1] + b[1])


def _chain_datum(l, gens, units, modulus=0, flip=None):
    tensors = []
    for i in range(l + 1):
        for j in range(i + 1, l + 1):
            for k in range(j + 1, l + 1):
                a, b, c = f"g{i}{j}", f"g{j}{k}", f"g{i}{k}"
                sign = units[a][0] * units[b][0] * units[c][0]
                exp = units[a][1] + units[b][1] - units[c][1]
                if flip == (i, j, k):
                    sign = -sign
                tensors.append({"q": 2, "inputs": [a, b], "output": c,
                                "coeff": exact.format_series(_mono(sign, exp))})
    return {"labels": l, "modulus": modulus, "ring": "Z",
            "generators": [{"id": g, "i": i, "j": j, "mu": mu}
                           for g, i, j, mu in gens],
            "tensors": tensors}


def _diag(gens, units, flip=None):
    out = []
    for g, *_ in gens:
        sign, exp = units[g]
        if g == flip:
            sign = -sign
        out.append({"inputs": [g], "output": g, "coeff": exact.format_series(_mono(sign, exp))})
    return out


def _word_count(gens, allowed=None):
    """Composable chains (words) over the given generators, by DP on labels."""
    ends: dict = {}
    for g, i, j, _mu in sorted(gens, key=lambda g: (g[1], g[2])):
        if allowed is not None and g not in allowed:
            continue
        ends[j] = ends.get(j, 0) + ends.get(i, 0) + 1
    return sum(ends.values())


def _chain_setup(rng, l, n_shadows, denoms):
    pairs = [(i, j) for i in range(l + 1) for j in range(i + 2, l + 1)]
    shadows = sorted(rng.sample(pairs, n_shadows))
    gens = _chain_gens(l, shadows)
    base = _units(rng, gens, denoms)
    conj = _units(rng, gens, denoms)
    both = {g: _times(base[g], conj[g]) for g in base}
    return shadows, gens, base, conj, both


def _product_gen(rng, l):
    i = rng.randint(0, l - 1)
    j = rng.randint(i + 1, l)
    return f"g{i}{j}"


def _chain_check(rng, l, mutant, denoms=(1, 2, 3)):
    _, gens, base, _, _ = _chain_setup(rng, l, 1, denoms)
    flip = None
    if mutant:
        i, j, k = sorted(rng.sample(range(l + 1), 3))
        flip = (i, j, k)
    inp = _chain_datum(l, gens, base, flip=flip)
    return _job(f"check.l{l}", "cli", ["ainfty", "check", "{in}"], inp,
                {"code": 1 if mutant else 0, "check": "chain_report",
                 "report": {"square_zero": not mutant,
                            "words": _word_count(gens)}})


def _chain_map(rng, l, mutant, denoms=(1, 2, 3)):
    _, gens, base, conj, both = _chain_setup(rng, l, 1, denoms)
    flip = _product_gen(rng, l) if mutant else None
    inp = {"target": _chain_datum(l, gens, base),
           "source": _chain_datum(l, gens, both),
           "map": _diag(gens, conj, flip)}
    return _job(f"map.l{l}", "cli", ["ainfty", "map", "{in}"], inp,
                {"code": 1 if mutant else 0, "check": "chain_report",
                 "report": {"chain_map": not mutant}})


def _shadow_k(rng, shadows, denoms):
    k = []
    for i, j in shadows:
        kappa = _mono(rng.choice((1, -1)), _exp(rng, 0, 4, denoms))
        if rng.random() < 0.5:
            kappa[_exp(rng, 5, 9, denoms)] = rng.choice((1, -1, 2))
        k.append({"inputs": [f"s{i}{j}"], "output": f"z{i}{j}",
                  "coeff": exact.format_series(kappa)})
    return k


def _chain_homotopy(rng, l, mutant, denoms=(1, 2, 3)):
    shadows, gens, base, conj, both = _chain_setup(rng, l, 2, denoms)
    flip = _product_gen(rng, l) if mutant else None
    inp = {"target": _chain_datum(l, gens, base),
           "source": _chain_datum(l, gens, both),
           "h0": _diag(gens, conj), "h1": _diag(gens, conj, flip),
           "k": _shadow_k(rng, shadows, denoms)}
    return _job(f"homotopy.l{l}", "cli", ["ainfty", "homotopy", "{in}"], inp,
                {"code": 1 if mutant else 0, "check": "chain_report",
                 "report": {"homotopy": not mutant}})


def _arity_two(rng, shadows, taken, count, denoms):
    """Arity-2 continuation entries g_ij g_jk -> z_ik, keys not in ``taken``."""
    keys = [((f"g{i}{j}", f"g{j}{k}"), f"z{i}{k}")
            for i, k in shadows for j in range(i + 1, k)]
    keys = [key for key in keys if key not in taken]
    out = []
    for key in rng.sample(keys, min(count, len(keys))):
        taken.add(key)
        out.append({"inputs": list(key[0]), "output": key[1],
                    "coeff": exact.format_series(_mono(rng.choice((1, -1)),
                                        _exp(rng, 0, 5, denoms)))})
    return out


def _chain_compose(rng, l, denoms=(1, 2, 3)):
    shadows, gens, base, u, bu = _chain_setup(rng, l, 3, denoms)
    v = _units(rng, gens, denoms)
    buv = {g: _times(bu[g], v[g]) for g in bu}
    taken: set = set()
    h01 = _diag(gens, u) + _arity_two(rng, shadows, taken, 2, denoms)
    h12 = _diag(gens, v) + _arity_two(rng, shadows, taken, 2, denoms)
    inp = {"c0": _chain_datum(l, gens, base), "c1": _chain_datum(l, gens, bu),
           "c2": _chain_datum(l, gens, buv), "h01": h01, "h12": h12}
    return _job(f"compose.l{l}", "cli", ["ainfty", "compose", "{in}"], inp,
                {"code": 0, "check": "chain_report",
                 "report": {"composition": True,
                            "entries": len(gens) + len(taken)}})


def _chain_augment(rng, l, mutant, push, denoms=(1, 2, 3)):
    _, gens, base, conj, both = _chain_setup(rng, l, 1, denoms)
    # values on elementary generators g_i,i+1 (index 1, never a product
    # output) make both augmentation conditions hold
    chosen = sorted(rng.sample(range(l), max(2, l - 1)))
    values = []
    for i in chosen:
        val = _mono(rng.choice((1, -1)), _exp(rng, 0, 4, denoms))
        if rng.random() < 0.5:
            val[_exp(rng, 5, 8, denoms)] = rng.choice((1, -1))
        values.append({"id": f"g{i}{i + 1}", "value": exact.format_series(val)})
    allowed = {v["id"] for v in values}
    if mutant:
        # a value on the product output g_i,i+3 breaks condition 1
        i = rng.randint(0, l - 3)
        values.append({"id": f"g{i}{i + 3}", "value": "t^0"})
    inp = {"datum": _chain_datum(l, gens, base, modulus=2),
           "augmentation": {"values": values}}
    report = {"ok": not mutant}
    if not mutant:
        report.update(condition_1=True, condition_2=True,
                      supported_words=_word_count(gens, allowed))
    if push:
        inp["source"] = _chain_datum(l, gens, both, modulus=2)
        inp["map"] = _diag(gens, conj)
        if not mutant:
            report["pushforward"] = {"condition_1": True, "condition_2": True,
                                     "factorizes": True}
    cls = f"augment{'.push' if push else ''}.l{l}"
    return _job(cls, "cli", ["ainfty", "augment", "{in}"], inp,
                {"code": 1 if mutant else 0, "check": "chain_report",
                 "report": report})


def _homotopic_map(rng, l, denoms=(1, 2, 3)):
    # h0 is a chain map and k only touches isolated generators, so the
    # solved far end equals h0: the diagonal units, entry for entry
    shadows, gens, base, conj, both = _chain_setup(rng, l, 2, denoms)
    inp = {"target": _chain_datum(l, gens, base),
           "source": _chain_datum(l, gens, both),
           "h0": _diag(gens, conj), "k": _shadow_k(rng, shadows, denoms)}
    return _job(f"homotopic_map.l{l}", "homotopic_map", [], inp,
                {"code": 0, "check": "entries", "entries": _diag(gens, conj)})


def chain_deck(rng):
    # sizes chosen by measured cost, in three bands like the cohomology deck:
    # under 45 ms, about 55-85 ms and about 135-175 ms, plus three larger
    # jobs above the 90th percentile; the first job of most kinds is a mutant
    def jobs(make, l, count, mutants=1):
        return [make(rng, l, mutant=(r < mutants)) for r in range(count)]

    def augment(l, count, push):
        return [_chain_augment(rng, l, mutant=(r == 0 and not push), push=push)
                for r in range(count)]

    small = (jobs(_chain_check, 5, 2) + jobs(_chain_check, 6, 2, 0)
             + augment(5, 2, False) + augment(6, 2, False) + augment(7, 2, False)
             + augment(5, 2, True) + [_homotopic_map(rng, 4) for _ in range(2)]
             + jobs(_chain_map, 5, 2) + jobs(_chain_homotopy, 5, 2))
    middle = (jobs(_chain_check, 7, 4) + jobs(_chain_map, 6, 4) + jobs(_chain_homotopy, 6, 4)
              + [_chain_compose(rng, 5) for _ in range(3)]
              + augment(6, 2, True) + augment(7, 3, True)
              + [_homotopic_map(rng, 5) for _ in range(3)])
    upper = (jobs(_chain_map, 7, 5) + jobs(_chain_homotopy, 7, 5) + jobs(_chain_check, 8, 3)
             + [_chain_compose(rng, 6) for _ in range(2)])
    largest = [_chain_compose(rng, 7), _chain_check(rng, 9, mutant=False),
               _chain_map(rng, 8, mutant=False)]
    return _interleave([small, middle, upper, largest])


# ---------------------------------------------------------------------------
# cohomology: l = 1 complexes with one boundary block x -> y
#
# A block of rank r has r core rows whose constant terms (the part of
# exponent 0) form a triangular matrix with nonzero diagonal on r chosen
# columns, so the core rows are independent over the series field; every
# other row is a combination of one or two core rows with monomial
# multipliers.  The rank is exactly r.  In "unit" blocks the constant
# terms are a signed partial permutation and everything else has positive
# exponent, so every pivot of the valuation-first elimination is a unit
# over Z.  In "nonunit" blocks one of those constants is 2: the pivot
# leading coefficients then multiply to +-2, so elimination over Z must
# stop at a non-unit pivot.


def _series(srng, nterms, lo, hi, denoms):
    s: dict = {}
    for _ in range(nterms):
        e = _exp(srng, lo, hi, denoms)
        s[e] = s.get(e, 0) + srng.choice((1, -1, 2, -2, 3))
    return {e: c for e, c in s.items() if c}


def _series_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _block(srng, rows, cols, rank, mode, extra, deps, denoms):
    """``extra`` off-pivot nonzeros per core row; each other row combines
    ``deps`` core rows."""
    unit = mode in ("unit", "nonunit")
    pivots = srng.sample(range(cols), rank)
    two = srng.randrange(rank) if mode == "nonunit" else None
    core = []
    for k in range(rank):
        row = [{} for _ in range(cols)]
        lead = 2 if k == two else (1 if unit else srng.choice((1, 2, 3)))
        row[pivots[k]] = {Fraction(0): lead * srng.choice((1, -1))}
        others = [j for j in range(cols) if j != pivots[k]]
        for j in srng.sample(others, min(extra, len(others))):
            entry = _series(srng, 2, 1, 4, denoms)
            if not unit and (j not in pivots or pivots.index(j) > k):
                entry = _series_add(entry, _series(srng, 1, 0, 0, (1,)))
            row[j] = _series_add(row[j], entry)
        core.append(row)
    block = list(core)
    for _ in range(rows - rank):
        row = [{} for _ in range(cols)]
        for k in srng.sample(range(rank), deps):
            mult = _mono(srng.choice((1, -1)), _exp(srng, 1 if unit else 0, 3, denoms))
            row = [_series_add(acc, exact.series_mul(mult, e))
                   for acc, e in zip(row, core[k])]
        block.append(row)
    srng.shuffle(block)
    if two is not None:
        # last in row order, so elimination reaches the non-unit pivot late
        block.remove(core[two])
        block.append(core[two])
    perm = list(range(cols))
    srng.shuffle(perm)
    return [[row[p] for p in perm] for row in block]


def _block_datum(block):
    rows, cols = len(block), len(block[0])
    gens = ([{"id": f"x{a}", "i": 0, "j": 1, "mu": 0} for a in range(rows)]
            + [{"id": f"y{b}", "i": 0, "j": 1, "mu": 1} for b in range(cols)])
    tensors = [{"q": 1, "inputs": [f"x{a}"], "output": f"y{b}",
                "coeff": exact.format_series(block[a][b])}
               for a in range(rows) for b in range(cols) if block[a][b]]
    return {"labels": 1, "modulus": 0, "ring": "Z", "generators": gens,
            "tensors": tensors}


def _hf_block(rng, template, n, mode, extra, deps, denoms, rational):
    """An n x (n + 1) block of rank n - 1 built on a fixed template.

    Elimination cost swings by orders of magnitude with the exponents,
    so the template fixes them and the seed only flips the signs of
    whole rows and columns: the same work on different inputs.
    """
    rows, cols, rank = n, n + 1, n - 1
    srng = random.Random(f"block:{template}:{n}:{mode}:{extra}:{deps}:{denoms}")
    block = _block(srng, rows, cols, rank, mode, extra, deps, denoms)
    rsign = [rng.choice((1, -1)) for _ in range(rows)]
    csign = [rng.choice((1, -1)) for _ in range(cols)]
    inp = _block_datum([[{e: c * rsign[i] * csign[j] for e, c in block[i][j].items()}
                         for j in range(cols)] for i in range(rows)])
    argv = ["floer", "hf", "{in}"] + (["--rational"] if rational else [])
    cls = f"hf.{mode}.e{extra}.n{n}.{'Q' if rational else 'Z'}"
    if mode == "nonunit":
        return _job(cls, "cli", argv, inp,
                    {"code": 2, "check": "stderr", "contains": "invalid input"})
    return _job(cls, "cli", argv, inp,
                {"code": 0, "check": "ranks",
                 "ranks": {"0": rows - rank, "1": cols - rank}})


def _morse(rng, rational):
    """Disjoint cancelling pairs, acyclic diamonds and free points.

    Only free points survive in homology; a point of Morse index i in
    dimension n sits in grading class (n - i) mod 2.
    """
    n = rng.randint(2, 4)
    points, flows = [], []
    free = {0: 0, 1: 0}

    def point(index):
        pid = f"p{len(points)}"
        points.append({"id": pid, "index": index,
                       "value": str(_exp(rng, 0, 12, (1, 2, 3)))})
        return pid

    for _ in range(rng.randint(2, 3)):
        k = rng.randint(0, n - 1)
        a, b = point(k + 1), point(k)
        flows.append({"from": a, "to": b, "count": rng.choice((1, -1))})
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(0, n - 2)
        top, b, c, bot = point(k + 2), point(k + 1), point(k + 1), point(k)
        sb, sc = rng.choice((1, -1)), rng.choice((1, -1))
        flows += [{"from": top, "to": b, "count": sb},
                  {"from": top, "to": c, "count": sc},
                  {"from": b, "to": bot, "count": sc},
                  {"from": c, "to": bot, "count": -sb}]
    for _ in range(rng.randint(1, 3)):
        index = rng.randint(0, n)
        point(index)
        free[(n - index) % 2] += 1
    classes = {(n - p["index"]) % 2 for p in points}
    ranks = {str(c): free[c] for c in sorted(classes)}
    inp = {"n": n, "points": points, "flows": flows}
    argv = ["floer", "hf", "{in}"] + (["--rational"] if rational else [])
    return _job(f"hf.morse.{'Q' if rational else 'Z'}", "cli", argv, inp,
                {"code": 0, "check": "ranks", "ranks": ranks})


def _sphere(n):
    return _job(f"sphere.n{n}", "cli", ["floer", "sphere", "--n", str(n)], None,
                {"code": 0, "check": "sphere", "n": n})


# (template, n, mode, extra nonzeros per row, rows per dependent row,
# exponent denominators), chosen by measured cost in three bands so that
# the median and the 90th percentile each fall inside a band of jobs of
# nearly equal cost: about 85-110 ms ...
COHOMOLOGY_MIDDLE = [
    (2, 5, "nonunit", 5, 2, (1, 2)), (2, 5, "q", 5, 2, (1,)), (5, 4, "q", 4, 2, (1, 2, 3)),
    (5, 8, "unit", 2, 1, (1, 2)), (3, 4, "q", 4, 2, (1, 2, 3)), (5, 5, "nonunit", 5, 2, (1, 2)),
    (0, 4, "q", 4, 2, (1, 2, 3)), (5, 10, "q", 1, 1, (1, 2)), (2, 10, "unit", 2, 1, (1, 2)),
    (2, 8, "q", 2, 1, (1, 2)),
    (5, 4, "q", 4, 2, (1, 2, 3)), (0, 4, "q", 4, 2, (1, 2, 3)), (5, 10, "q", 1, 1, (1, 2)),
    (2, 10, "unit", 2, 1, (1, 2)),
]
# ... about 330-440 ms ...
COHOMOLOGY_UPPER = [
    (3, 5, "q", 5, 2, (1, 2)), (5, 5, "unit", 5, 2, (1, 2)), (0, 6, "unit", 6, 2, (1,)),
    (1, 8, "q", 2, 1, (1, 2)), (2, 5, "q", 5, 2, (1, 2)), (5, 6, "nonunit", 6, 2, (1, 2)),
    (4, 10, "unit", 2, 1, (1, 2)), (3, 8, "q", 2, 1, (1, 2)), (2, 5, "q", 5, 2, (1, 2)),
]
# ... and under 65 ms, next to the Morse and sphere jobs.
COHOMOLOGY_SMALL = [
    (2, 10, "q", 1, 1, (1, 2)), (3, 3, "q", 3, 2, (1, 2, 3, 4, 5)), (5, 3, "q", 3, 2, (1, 2, 3)),
    (1, 5, "q", 5, 2, (1, 2)), (1, 5, "nonunit", 5, 2, (1, 2)),
]


def cohomology_deck(rng):
    def blocks(table):
        return [_hf_block(rng, t, n, mode, extra, deps, den, mode == "q")
                for t, n, mode, extra, deps, den in table]

    classes = [
        blocks(COHOMOLOGY_MIDDLE),
        blocks(COHOMOLOGY_UPPER),
        blocks(COHOMOLOGY_SMALL),
        [_morse(rng, rational=(r % 2 == 0)) for r in range(4)],
        [_sphere(n) for n in (2, 3, 5, 7)],
    ]
    return _interleave(classes)


# ---------------------------------------------------------------------------
# maslov: symmetric paths A(t), piecewise linear or quadratic
#
# A path is accepted only when every crossing is regular, which the
# generator proves on its own: det(A(t) - B) must not vanish at any
# breakpoint (apart from the start when B = A(start), where it must
# vanish to order exactly n) and must be squarefree otherwise.  Simple
# roots force one-dimensional kernels with nonzero crossing forms.


def _sym(rng, n, lo=-3, hi=3):
    m = [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
    return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]


def _breaks(rng, k):
    return [Fraction(b, 4) for b in sorted(rng.sample(range(-8, 9), k + 1))]


def _pieces_from_values(ts, values, quads=None):
    """Interpolate breakpoint values; add (t - t0)(t - t1) Q on a piece."""
    n = len(values[0])
    pieces = []
    for s in range(len(ts) - 1):
        t0, t1 = ts[s], ts[s + 1]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                slope = (values[s + 1][i][j] - values[s][i][j]) / (t1 - t0)
                poly = exact.pnorm([values[s][i][j] - t0 * slope, slope])
                if quads and quads[s]:
                    q = quads[s][i][j]
                    poly = exact.padd(poly, [t0 * t1 * q, -(t0 + t1) * q, q])
                row.append(poly)
            rows.append(row)
        pieces.append((t0, t1, rows))
    return pieces


def _regular(pieces, ref, start_ref):
    """Every crossing of the path against ``ref`` is regular (see above)."""
    n = len(ref)
    start = pieces[0][0]
    for t0, t1, rows in pieces:
        d = exact.poly_det([[exact.psub(rows[i][j], [ref[i][j]])
                             for j in range(n)] for i in range(n)])
        if not d:
            return False
        if start_ref and t0 == start:
            for _ in range(n):
                d, rem = exact.pdivmod(d, [-t0, Fraction(1)])
                if rem:
                    return False
        if exact.peval(d, t0) == 0 or exact.peval(d, t1) == 0:
            return False
        if not exact.squarefree(d):
            return False
    return True


def _dual(pieces):
    return [(-t1, -t0, [[exact.pnorm([c * (-1) ** k for k, c in enumerate(e)])
                         for e in row] for row in rows])
            for t0, t1, rows in reversed(pieces)]


def _path_json(pieces, ref=None):
    obj = {"pieces": [{"interval": [str(t0), str(t1)],
                       "matrix": [[[str(c) for c in e] or ["0"] for e in row]
                                  for row in rows]}
                      for t0, t1, rows in pieces]}
    if ref is not None:
        obj["reference"] = [[str(x) for x in row] for row in ref]
    return obj


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def _congruence(spin, m):
    """P^T m P for the signed permutation P; crossings and indices stay."""
    perm, signs = spin
    n = len(perm)
    return [[_scaled(m[perm[i]][perm[j]], signs[i] * signs[j]) for j in range(n)]
            for i in range(n)]


def _scaled(e, sign):
    return [sign * c for c in e] if isinstance(e, list) else sign * e


def _spin_pieces(spin, pieces):
    return [(t0, t1, _congruence(spin, rows)) for t0, t1, rows in pieces]


def _template(*key):
    return random.Random(":".join(map(str, ("path",) + key)))


def _general_pair(rng, template, n, k, quadratic, pair_id):
    """A path and its dual t -> A(-t), both regular with transverse ends."""
    srng = _template(template, n, k, quadratic)
    while True:
        ts = _breaks(srng, k)
        values = [_sym(srng, n) for _ in range(k + 1)]
        quads = [_sym(srng, n, -1, 1) if quadratic else None for _ in range(k)]
        pieces = _pieces_from_values(ts, values, quads)
        if (_regular(pieces, values[0], True)
                and _regular(_dual(pieces), values[-1], True)):
            break
    pieces = _spin_pieces(_signed_permutation(rng, n), pieces)
    dual = _dual(pieces)
    cls = f"path.{'pq' if quadratic else 'pl'}.n{n}"
    expect = {"code": 0, "check": "maslov_pair", "pair": pair_id, "n": n}
    return [
        _job(cls, "cli", ["maslov", "index", "{in}"], _path_json(pieces),
             dict(expect, role="primal")),
        _job(cls + ".dual", "cli", ["maslov", "index", "{in}"], _path_json(dual),
             dict(expect, role="dual")),
    ]


def _general_ref(rng, template, n, k, quadratic):
    srng = _template("ref", template, n, k, quadratic)
    while True:
        ts = _breaks(srng, k)
        values = [_sym(srng, n) for _ in range(k + 1)]
        quads = [_sym(srng, n, -1, 1) if quadratic else None for _ in range(k)]
        pieces = _pieces_from_values(ts, values, quads)
        ref = _sym(srng, n)
        if (_regular(pieces, ref, False)
                and _regular(pieces, values[0], True)):
            break
    spin = _signed_permutation(rng, n)
    pieces, ref = _spin_pieces(spin, pieces), _congruence(spin, ref)
    cls = f"path.{'pq' if quadratic else 'pl'}.ref.n{n}"
    return _job(cls, "cli", ["maslov", "index", "{in}"], _path_json(pieces, ref),
                {"code": 0, "check": "maslov_known", "n": n})


def _unimodular(rng, n):
    low = [[Fraction(int(i == j)) if i <= j else Fraction(rng.randint(-1, 1))
            for j in range(n)] for i in range(n)]
    up = [[Fraction(int(i == j)) if i >= j else Fraction(rng.randint(-1, 1))
           for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _congruent(q, diag):
    """Q^T diag(d) Q for a list of per-entry values or polynomials."""
    n = len(q)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = []
            for k in range(n):
                acc = exact.padd(acc, [c * q[k][i] * q[k][j] for c in diag[k]])
            row.append(acc)
        out.append(row)
    return out


def _diagonal_path(rng, template, n, k, with_ref):
    """Q^T D(t) Q with D diagonal and piecewise linear: crossings are the
    rational points where an entry of D meets its reference level, so the
    index is a sum of slope signs (each weighted 1/2 at the start) times
    the calibration sign -1 (the index of A(t) = t against -1 is -1/2)."""
    srng = _template("diag", template, n, k, with_ref)
    while True:
        ts = _breaks(srng, k)
        vals = [[Fraction(srng.randint(-4, 4)) for _ in range(k + 1)] for _ in range(n)]
        levels = [Fraction(2 * srng.randint(-4, 3) + 1, 2) for _ in range(n)]
        if any(v[s] == v[s + 1] for v in vals for s in range(k)):
            continue            # a flat piece could sit on its level
        if any(v[s] == v[0] for v in vals for s in range(1, k + 1)):
            continue            # no return to the start level at a breakpoint
        if with_ref and any(lv in v for lv, v in zip(levels, vals)):
            continue
        break

    def index(levels_, start_counts):
        total, times = Fraction(0), []
        for v, lv in zip(vals, levels_):
            for s in range(k):
                a, b = v[s], v[s + 1]
                slope = 1 if b > a else -1
                if s == 0 and start_counts:
                    total += Fraction(slope, 2)
                    continue
                if min(a, b) < lv < max(a, b):
                    total += slope
                    times.append(ts[s] + (lv - a) * (ts[s + 1] - ts[s]) / (b - a))
        return -total, times

    q = _unimodular(srng, n)
    per_piece = []
    for s in range(k):
        t0, t1 = ts[s], ts[s + 1]
        polys = []
        for v in vals:
            slope = (v[s + 1] - v[s]) / (t1 - t0)
            polys.append([v[s] - t0 * slope, slope])
        per_piece.append((t0, t1, _congruent(q, polys)))
    start_levels = [v[0] for v in vals]
    rs_start, times_a = index(start_levels, True)
    string_index = Fraction(n, 2) - rs_start
    if with_ref:
        rs, times_b = index(levels, False)
        ref = [[sum(levels[m] * q[m][i] * q[m][j] for m in range(n))
                for j in range(n)] for i in range(n)]
    else:
        rs, times_b, ref = rs_start, [], None
    if len(set(times_a)) != len(times_a) or len(set(times_b)) != len(times_b):
        return _diagonal_path(rng, f"{template}+", n, k, with_ref)   # keep crossings simple
    # the report lists the start crossing once, then every interior root
    crossings = len(times_b) if with_ref else 1 + len(times_a)
    spin = _signed_permutation(rng, n)
    per_piece = _spin_pieces(spin, per_piece)
    ref = None if ref is None else _congruence(spin, ref)
    return _job(f"path.rational{'.ref' if with_ref else ''}.n{n}", "cli",
                ["maslov", "index", "{in}"], _path_json(per_piece, ref),
                {"code": 0, "check": "maslov_known", "n": n,
                 "rs_index": str(rs), "string_index": int(string_index),
                 "crossings": crossings})


def _degenerate(rng, template, n):
    """Q^T D Q where one diagonal entry touches its level tangentially:
    a double root with a one-dimensional kernel, which must be rejected."""
    srng = _template("degenerate", template, n)
    ts = [Fraction(-1), Fraction(1)]
    tau = Fraction(srng.randint(-3, 3), 4)
    levels = [Fraction(2 * srng.randint(-3, 3) + 1, 2) for _ in range(n)]
    polys = [exact.padd([levels[0]], [tau * tau, -2 * tau, Fraction(1)])]
    for m in range(1, n):
        a = Fraction(srng.randint(-4, 4))
        b = a + srng.choice((-3, -2, 2, 3))
        slope = (b - a) / 2
        polys.append([a + slope, slope])
    q = _unimodular(srng, n)
    ref = [[sum(levels[m] * q[m][i] * q[m][j] for m in range(n))
            for j in range(n)] for i in range(n)]
    spin = _signed_permutation(rng, n)
    pieces = _spin_pieces(spin, [(ts[0], ts[1], _congruent(q, polys))])
    return _job(f"path.degenerate.n{n}", "cli", ["maslov", "index", "{in}"],
                _path_json(pieces, _congruence(spin, ref)),
                {"code": 2, "check": "stderr", "contains": "invalid input"})


def maslov_deck(rng):
    # templates chosen by measured cost, in three bands like the cohomology
    # deck: under 30 ms, about 35-57 ms and about 90-135 ms
    def pairs(table):
        out = []
        for t, n, quadratic in table:
            out += _general_pair(rng, t, n, 2 if quadratic else 3, quadratic,
                                 f"{'pq' if quadratic else 'pl'}{t}.{n}")
        return out

    small = (pairs([(2, 2, False), (3, 2, False), (0, 2, True), (3, 2, True)])
             + [_general_ref(rng, t, 2, 2, True) for t in (0, 1)]
             + [_diagonal_path(rng, t, 2, 3, False) for t in (0, 1)]
             + [_degenerate(rng, t, n) for t, n in ((0, 2), (1, 4), (1, 5))])
    middle = pairs([(0, 3, False), (2, 3, False), (3, 3, True), (1, 4, True), (3, 4, True)])
    middle_single = ([_general_ref(rng, t, n, 2, False)
                      for t, n in ((0, 3), (1, 3), (1, 4), (2, 4), (0, 5))]
                     + [_general_ref(rng, 2, 3, 2, True)]
                     + [_diagonal_path(rng, t, n, 3, False)
                        for t, n in ((0, 3), (2, 3), (2, 4), (0, 4))]
                     + [_diagonal_path(rng, t, 3, 3, True) for t in (0, 1, 2)])
    upper = (pairs([(1, 4, False)])
             + [_general_ref(rng, 2, 5, 2, False), _general_ref(rng, 0, 3, 2, True)]
             + [_diagonal_path(rng, t, 5, 3, False) for t in (0, 1, 2)]
             + [_diagonal_path(rng, t, 4, 3, True) for t in (1, 2)])
    return _interleave([small, middle, middle_single, upper])


# ---------------------------------------------------------------------------
# combinatorics: polytopes, series inversion and short requests


def _polytope(family, l, mode):
    flag = {"fv": [], "dd": ["--boundary-check"], "facets": ["--facet-signs"]}[mode]
    name = {"K": "assoc", "J": "multi"}[family]
    return _job(f"polytope.{mode}.{family}{l}", "cli",
                ["polytope", name, "--l", str(l)] + flag, None,
                {"code": 0, "check": "polytope", "family": family, "l": l,
                 "mode": mode})


def _invert(rng, ring, lead, v, gaps, cutoff):
    """invert(a, v + cutoff) for a = lead t^v (1 + sum +-c t^gap); the
    smallest gap sets how many powers the geometric series needs.  The
    seed picks the signs."""
    a = {Fraction(v): Fraction(lead) * rng.choice((1, -1))}
    for k, gap in enumerate(gaps):
        a[Fraction(v) + Fraction(gap)] = (1 + k % 3) * rng.choice((1, -1))
    inp = {"series": exact.format_series(a), "ring": ring, "cutoff": str(Fraction(v) + cutoff)}
    return _job(f"invert.{ring}.g{min(Fraction(g) for g in gaps)}.c{cutoff}".replace("/", "_"),
                "invert", [], inp, {"code": 0, "check": "invert"})


def _eval(rng):
    ring = rng.choice(("Z", "Q"))
    terms, merged = [], {}
    for _ in range(rng.randint(3, 7)):
        e = _exp(rng, -3, 9, (1, 2, 3, 4))
        c = Fraction(rng.randint(1, 5), 1 if ring == "Z" else rng.choice((1, 2, 3)))
        c = c if (not terms or rng.random() < 0.6) else -c
        terms.append((e, c))
        merged[e] = merged.get(e, 0) + c
    text = "".join(("" if k == 0 else (" - " if c < 0 else " + "))
                   + f"{exact.fraction_text(abs(c))}t^{exact.fraction_text(e)}"
                   for k, (e, c) in enumerate(terms))
    argv = ["novikov", "eval", text, "--ring", ring]
    if rng.random() < 0.5:
        cut = _exp(rng, 0, 8, (1, 2))
        argv += ["--cutoff", str(cut)]
        merged = {e: c for e, c in merged.items() if e < cut}
    merged = {e: c for e, c in merged.items() if c}
    val = exact.fraction_text(min(merged)) if merged else None
    return _job("novikov.eval", "cli", argv, None,
                {"code": 0, "check": "json", "value":
                 {"series": exact.format_series(merged), "valuation": val}})


def _sft(rng):
    n = rng.randint(2, 7)
    g = 0 if n == 2 else rng.randint(0, 3)
    v = rng.randint(1, 4)
    m = [rng.randint(1, 3) for _ in range(v)]
    bound = -2 * (n - 1) * sum(m) + (n - 3) * (2 - 2 * g) + 2 * v
    return _job("sft.bound", "cli",
                ["sft", "bound", "--n", str(n), "--g", str(g), "--v", str(v),
                 "--m", ",".join(map(str, m))], None,
                {"code": 0 if bound <= -2 else 1, "check": "sft", "bound": bound})


def _conductor(rng):
    def labels(prefix, count):
        return [f"{prefix}{i}" for i in range(count)]

    src, mid, dst = (labels(p, rng.randint(3, 6)) for p in "abc")
    size_h = rng.randint(1, min(len(src), len(mid)))
    h_pos = sorted(rng.sample(range(len(src)), size_h))
    h_img = sorted(rng.sample(range(len(mid)), size_h))
    size_k = rng.randint(1, min(len(mid), len(dst)))
    k_pos = sorted(rng.sample(range(len(mid)), size_k))
    k_img = sorted(rng.sample(range(len(dst)), size_k))
    overlap = len(set(h_img) & set(k_pos))
    inp = {"h": {"source": src, "target": mid, "positions": h_pos, "images": h_img},
           "k": {"source": mid, "target": dst, "positions": k_pos, "images": k_img}}
    value = {"exact": overlap <= 1, "overlap": overlap,
             "image": [mid[i] for i in h_img], "cokernel": [src[p] for p in h_pos]}
    return _job("conductor.exact", "cli", ["conductor", "exact", "{in}"], inp,
                {"code": 0 if overlap <= 1 else 1, "check": "json", "value": value})


def combinatorics_deck(rng):
    # sizes chosen by measured cost, in bands like the other decks: short
    # requests under 20 ms (a minority of real work), about 50-80 ms,
    # about 120-320 ms, about 400-430 ms, and J_7 on top
    def inv(ring, lead, v, gaps, cutoff):
        return _invert(rng, ring, lead, v, gaps, cutoff)

    small = ([_polytope("K", 8, "facets"), _polytope("K", 10, "facets"),
              _polytope("J", 6, "facets"), _polytope("J", 8, "facets"),
              _polytope("K", 6, "fv"), _polytope("J", 4, "fv"), _polytope("K", 5, "dd")]
             + [_eval(rng), _sft(rng), _conductor(rng), _eval(rng), _conductor(rng)])
    middle = ([_polytope(f, l, mode) for _ in range(2)
               for f, l, mode in (("K", 8, "fv"), ("J", 6, "fv"), ("K", 6, "dd"))]
              + [inv("Z", 1, "0", ("1/20", "2/5"), 2), inv("Z", 1, "0", ("1/8", "1/3", "5/7"), 2),
                 inv("Z", 1, "0", ("1/20", "2/5"), 2), inv("Z", 1, "0", ("1/8", "1/3", "5/7"), 2),
                 inv("Q", 2, "0", ("1/10", "2/3"), 3)])
    between = [_polytope("J", 5, "dd"), inv("Z", 1, "-1/2", ("1/12", "1/3", "5/7"), 2),
               inv("Z", 1, "1/3", ("1/10", "1/2", "4/3"), 3),
               inv("Q", "3/2", "1", ("1/12", "1/5", "3/4"), 2),
               _polytope("K", 7, "dd"), _polytope("K", 7, "dd")]
    upper = ([_polytope("K", 9, "fv") for _ in range(3)]
             + [inv("Q", 3, "1/2", ("1/15", "1/3", "3/4"), 2) for _ in range(3)])
    return _interleave([small, middle, between, upper, [_polytope("J", 7, "fv")]])


DECKS = {"chain": chain_deck, "cohomology": cohomology_deck,
         "maslov": maslov_deck, "combinatorics": combinatorics_deck}


def build(workload: str, seed: int) -> list:
    """The deck for one workload and seed; the same seed gives the same deck."""
    rng = random.Random(f"{workload}:{seed}")
    deck = DECKS[workload](rng)
    for idx, job in enumerate(deck):
        job["id"] = idx
    return deck


def canonical(deck) -> bytes:
    return json.dumps(deck, sort_keys=True, separators=(",", ":")).encode()
