"""Integer polynomials: Bareiss determinants, pseudo-remainders, gcds,
Sturm counts and signs at rational points, against Fraction arithmetic."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from openstrings._poly import (
    InexactDivision,
    _exact_div,
    _homogeneous,
    degree,
    det,
    gcd,
    matrix_at,
    mul,
    neg_prem,
    sign_at,
    sub,
)
from openstrings.maslov import _sturm_chain, _sturm_count


def _random_poly(rng, max_degree=3, span=4):
    p = {e: rng.randint(-span, span)
         for e in range(rng.randint(0, max_degree) + 1)}
    return {e: c for e, c in p.items() if c}


def _fraction_value(p, x):
    return sum((c * Fraction(x) ** e for e, c in p.items()), Fraction(0))


def _leibniz(M):
    n = len(M)
    total = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = {0: -1 if inversions % 2 else 1}
        for i in range(n):
            term = mul(term, M[i][perm[i]])
        total = sub(total, {e: -c for e, c in term.items()})
    return total


def test_det_matches_leibniz_on_matrices_that_need_row_swaps():
    rng = random.Random(61)
    swapped = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        M = [[_random_poly(rng, 2, 3) if rng.random() < 0.6 else {}
              for _ in range(n)] for _ in range(n)]
        M[0][0] = {}
        expected = _leibniz(M)
        assert det(M) == expected, M
        swapped += bool(expected)
    assert swapped > 100
    assert det([]) == {0: 1}
    # row swaps in a constant matrix: det [[0, 1], [1, 0]] = -1
    assert det([[{}, {0: 1}], [{0: 1}, {}]]) == {0: -1}


def test_sign_at_and_value_agree_with_fraction_evaluation():
    rng = random.Random(62)
    for _ in range(500):
        p = _random_poly(rng, 5, 9)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        v = _fraction_value(p, x)
        M, scale = matrix_at([[p]], x)
        assert Fraction(M[0][0], scale) == v
        assert sign_at(p, x) == (v > 0) - (v < 0), (p, x)
    assert sign_at({2: 1, 0: -2}, Fraction(7, 5)) == -1
    assert sign_at({2: 1, 0: -2}, Fraction(3, 2)) == 1


def test_matrix_at_is_the_homogeneous_value_at_one_degree():
    rng = random.Random(66)
    for _ in range(200):
        n = rng.randint(1, 3)
        M = [[_random_poly(rng, 4, 9) for _ in range(n)] for _ in range(n)]
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        D = max(degree(e) for row in M for e in row)
        got, scale = matrix_at(M, x)
        assert scale == x.denominator ** max(D, 0)
        assert [[Fraction(h, scale) for h in row] for row in got] == [
            [_fraction_value(e, x) for e in row] for row in M], (M, x)
    # a target degree above deg p multiplies by powers of the denominator
    p, x = {1: 3, 0: -1}, Fraction(-2, 5)
    assert _homogeneous(p, x, 1) == -11
    assert _homogeneous(p, x, 3) == -11 * 5 ** 2
    assert _homogeneous({}, x, 2) == 0
    assert matrix_at([[{}]], x) == ([[0]], 1)


def _fraction_rem(a, b):
    """The remainder of a by b over Q, as {exponent: Fraction}."""
    r = {e: Fraction(c) for e, c in a.items()}
    db = degree(b)
    while r and degree(r) >= db:
        top = degree(r)
        q = r[top] / b[db]
        for e, c in b.items():
            r[e + top - db] = r.get(e + top - db, 0) - q * c
        r = {e: c for e, c in r.items() if c}
    return r


def test_neg_prem_is_a_positive_multiple_of_the_negated_remainder():
    rng = random.Random(63)
    gaps = set()
    for _ in range(500):
        b = _random_poly(rng, 3, 5)
        a = _random_poly(rng, 6, 5)
        if degree(b) < 0:
            continue
        if rng.random() < 0.5:
            b = {e: -c for e, c in b.items()}
        rem = _fraction_rem(a, b)
        got = neg_prem(a, b)
        assert set(got) == set(rem), (a, b)
        ratios = {Fraction(got[e]) / -rem[e] for e in rem}
        assert len(ratios) <= 1 and all(q > 0 for q in ratios), (a, b)
        if got and b[degree(b)] < 0:
            gaps.add((degree(a) - degree(b)) % 2)
    assert gaps == {0, 1}


def _linear_product(roots, extra=()):
    p = {0: 1}
    for r in roots:
        p = mul(p, {k: c for k, c in ((0, -r.numerator), (1, r.denominator))
                    if c})
    for q in extra:
        p = mul(p, q)
    return p


# quadratics without real roots, so that the chains skip degrees
_NO_REAL_ROOTS = [{2: 1, 0: 1}, {2: 1, 1: 1, 0: 1}, {2: 3, 0: 2},
                  {2: -1, 1: 1, 0: -1}]


def test_sturm_counts_equal_the_distinct_roots_of_products():
    rng = random.Random(64)
    for _ in range(300):
        pool = [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))]
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        extra = rng.sample(_NO_REAL_ROOTS, rng.randint(0, 2))
        p = _linear_product(roots, extra)
        scale = rng.choice((1, -1, 2, -3))
        p = {e: scale * c for e, c in p.items()}
        lo, hi = sorted(Fraction(rng.randint(-30, 30), rng.choice((5, 7)))
                        for _ in range(2))
        if sign_at(p, lo) == 0 or lo == hi:
            continue
        expected = len({r for r in roots if lo < r <= hi})
        assert _sturm_count(_sturm_chain(p), lo, hi) == expected, (
            roots, extra, lo, hi)


def test_gcd_of_products_is_their_common_primitive_factor():
    rng = random.Random(65)
    for _ in range(200):
        values = rng.sample([Fraction(k, 2) for k in range(-9, 10)], 5)
        common, left, right = values[:2], values[2:3], values[3:]
        f = _linear_product(common)
        a = _linear_product(common + left, [{0: rng.choice((2, -3))}])
        b = _linear_product(common + right, rng.sample(_NO_REAL_ROOTS, 1))
        assert gcd(a, b) == f, values
        assert mul(f, _exact_div(a, f)) == a
    assert gcd({}, {}) == {}
    assert gcd({1: -4, 0: 6}, {}) == {1: 2, 0: -3}
    with pytest.raises(InexactDivision):
        _exact_div({2: 1, 0: 1}, {1: 1, 0: 1})
