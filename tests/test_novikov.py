"""Ring axioms, valuation behaviour, inversion and the literal format."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openstrings.novikov import (
    NotAUnit,
    NovikovSeries,
    ParseError,
    add,
    format_series,
    invert,
    mul,
    parse_series,
    valuation,
)

import novikov_reference as ref

_EXPONENTS = [Fraction(n, d) for d in (1, 2, 3, 4, 6) for n in range(-6, 13)]


def random_series(rng, ring="Z", max_terms=8):
    nterms = rng.randint(0, max_terms)
    exps = rng.sample(_EXPONENTS, nterms)
    terms = {}
    for e in exps:
        if ring == "Q":
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        else:
            c = rng.randint(-9, 9)
        if c:
            terms[e] = c
    return sum(
        (NovikovSeries.monomial(c, e, ring=ring) for e, c in terms.items()),
        NovikovSeries.zero(ring=ring))


def series_strategy(ring="Z"):
    coeff = st.integers(-9, 9) if ring == "Z" else st.fractions(
        min_value=-9, max_value=9, max_denominator=7)
    term = st.tuples(st.sampled_from(_EXPONENTS), coeff)
    return st.lists(term, max_size=6).map(
        lambda ts: sum((NovikovSeries.monomial(c, e, ring=ring)
                        for e, c in ts),
                       NovikovSeries.zero(ring=ring)))


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(11)
        zero = NovikovSeries.zero(ring="Z")
        one = NovikovSeries.one(ring="Z")
        for _ in range(400):
            a = random_series(rng)
            b = random_series(rng)
            c = random_series(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert a - a == zero
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * one == a
            assert a * (b + c) == a * b + a * c

    @given(series_strategy(), series_strategy())
    def test_add_commutes(self, a, b):
        assert add(a, b) == add(b, a)

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=60)
    def test_mul_distributes(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    def test_rational_ring(self):
        rng = random.Random(12)
        for _ in range(100):
            a = random_series(rng, ring="Q")
            b = random_series(rng, ring="Q")
            assert a * b == b * a
            assert (a - b) + b == a
        # an int minus a series, through __rsub__; rings do not mix
        a = parse_series("3t^1/2 - t^2", ring="Z")
        assert 5 - a == parse_series("5 - 3t^1/2 + t^2", ring="Z")
        with pytest.raises(ValueError, match="mixed coefficient rings: Z vs Q"):
            a + a.to_ring("Q")


def test_valuation_additive():
    rng = random.Random(13)
    checked = 0
    for _ in range(500):
        a = random_series(rng)
        b = random_series(rng)
        if not a or not b:
            continue
        assert valuation(a * b) == valuation(a) + valuation(b)
        checked += 1
    assert checked > 300


def test_valuation_of_sum_bound():
    rng = random.Random(14)
    for _ in range(200):
        a = random_series(rng)
        b = random_series(rng)
        s = a + b
        if a and b and s:
            assert valuation(s) >= min(valuation(a), valuation(b))


class TestInversion:
    def test_invert_by_multiplication(self):
        rng = random.Random(15)
        done = 0
        while done < 120:
            a = random_series(rng)
            if not a:
                continue
            # force a unit leading coefficient over Z
            (e0, c0) = a.terms[0]
            a = a + NovikovSeries.monomial((1 if c0 >= 0 else -1) - c0, e0,
                                           ring="Z")
            if not a or abs(a.terms[0][1]) != 1:
                continue
            cutoff = valuation(a) + 3
            inv = invert(a, cutoff)
            prod = a * inv
            one = NovikovSeries.one(ring="Z")
            defect = prod - one
            # contract: product is 1 modulo exponents >= cutoff - valuation
            window = cutoff - valuation(a)
            for exp, coeff in defect.terms:
                assert exp >= window, (format_series(a), exp)
            done += 1

    def test_invert_rational_leading(self):
        a = parse_series("2t^0 + t^1", ring="Q")
        inv = invert(a, 3)
        d = a * inv - NovikovSeries.one(ring="Q")
        assert all(e >= 3 for e, _ in d.terms)  # valuation(a) == 0 here

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            invert(parse_series("2t^0 + t^1", ring="Z"), 3)
        with pytest.raises(NotAUnit):
            invert(NovikovSeries.zero(ring="Z"), 2)

    def test_truncated_series_inverse_knows_only_below_shifted_cutoff(self):
        # a = t(1 + t) known below 3: only 1 + t is known, below 2, and
        # a^-1 = t^-1 (1 + t)^-1 only below 1
        a = parse_series("t^1 + t^2", ring="Z", cutoff=3)
        inv = invert(a, 10)
        assert inv.cutoff == 1
        assert inv == parse_series("t^-1 - t^0", ring="Z", cutoff=1)
        # a series agreeing with a below 3 has an inverse agreeing below 1
        other = invert(parse_series("t^1 + t^2 + t^3", ring="Z", cutoff=4), 10)
        assert other.restrict(inv.cutoff) == inv
        # negative valuation: a^-1 is known beyond a's own cutoff
        b = parse_series("t^-1 + t^0", ring="Z", cutoff=2)
        assert invert(b, 10) == parse_series("t^1 - t^2 + t^3", ring="Z",
                                             cutoff=4)

    @pytest.mark.parametrize("ring", ["Z", "Q"])
    def test_invert_matches_untruncated_reference(self, ring):
        rng = random.Random(17 if ring == "Z" else 18)
        cases = units = 0
        while cases < 200:
            a = random_series(rng, ring=ring, max_terms=5)
            if a and ring == "Z" and rng.random() < 0.7:
                # mostly units over Z, so most cases reach the series
                (e0, c0) = a.terms[0]
                a = a + NovikovSeries.monomial(
                    (1 if c0 >= 0 else -1) - c0, e0, ring="Z")
            if a and rng.random() < 0.5:
                a = a.restrict(valuation(a) + Fraction(rng.randint(1, 12), 4))
            v = valuation(a) if a else 0
            cutoff = v + Fraction(rng.randint(-2, 12), 4)
            try:
                want = ref.invert(a, cutoff)
            except NotAUnit as exc:
                with pytest.raises(NotAUnit) as got:
                    invert(a, cutoff)
                assert str(got.value) == str(exc)
            else:
                assert invert(a, cutoff) == want, (format_series(a), cutoff)
                units += 1
            cases += 1
        assert units >= 100

    def test_invert_truncates_the_geometric_series(self):
        # untruncated powers reach ~1000 terms here (about 3 s)
        a = parse_series("1 - t^1/20 + t^1/3 - t^5/7", ring="Z")
        start = time.perf_counter()
        inv = invert(a, 3)
        elapsed = time.perf_counter() - start
        assert len(inv.terms) == 391
        assert elapsed < 1.0, elapsed

    def test_invert_over_q_is_fraction_free_fast(self):
        # the heaviest Q shape of the combinatorics deck: 29 powers of r,
        # whose coefficient denominators multiply up at every step
        a = parse_series("3t^1/2 - t^17/30 + 2t^5/6 - 3t^5/4", ring="Q")
        cutoff = Fraction(5, 2)
        start = time.perf_counter()
        inv = invert(a, cutoff)
        elapsed = time.perf_counter() - start
        window = cutoff - valuation(a)
        assert all(e >= window for e, _ in (a * inv - 1).terms)
        assert elapsed < 0.25, elapsed

    @pytest.mark.parametrize("value", ["t^0", 1, None])
    def test_invert_takes_a_series(self, value):
        with pytest.raises(TypeError) as exc:
            invert(value, 2)
        assert str(exc.value) == (f"invert takes a NovikovSeries, got "
                                  f"{type(value).__name__} {value!r}")

    def test_invert_matches_truncated_reference(self):
        seen = assert_invert_matches_reference(0, 400)
        assert seen == _INVERT_CASES, seen


# invert against the truncated geometric series on NovikovSeries powers
# that it replaced (ref.truncated_invert)

_INVERT_CASES = {"Z", "Q", "series", "monomial", "zero", "cut", "low target",
                 "coprime", "inverse", "NotAUnit"}
_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _invert_case(rng):
    """A seeded (series, cutoff) for invert and the case labels it covers:
    negative and fractional valuations, non-unit leads over Z, the zero
    series, monomials, cutoffs on the series, targets at or below the
    valuation and, over Q, coefficients with pairwise coprime
    denominators."""
    ring = rng.choice(("Z", "Q"))
    labels = {ring}
    v = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
    kind = rng.randrange(12)
    if kind == 0:
        a = NovikovSeries.zero(ring=ring)
        labels.add("zero")
    else:
        if ring == "Z":
            lead = rng.choice((2, -3, 4) if kind == 1 else (1, -1))
        else:
            lead = Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                            rng.randint(1, 7))
        gaps = sorted({Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6, 12)))
                       for _ in range(0 if kind == 2 else rng.randint(1, 5))})
        labels.add("monomial" if not gaps else "series")
        if ring == "Q" and gaps and rng.random() < 0.3:
            dens = rng.sample(_PRIMES, len(gaps))
            labels.add("coprime")
        else:
            dens = [rng.randint(1, 7) if ring == "Q" else 1 for _ in gaps]
        terms = [(v, lead)] + [
            (v + g, Fraction(rng.choice((1, -1)) * rng.randint(1, 9), q))
            for g, q in zip(gaps, dens)]
        if ring == "Z":
            terms = [(e, int(c)) for e, c in terms]
        a = NovikovSeries(terms, ring=ring)
    if rng.random() < 0.3:
        a = a.restrict(v + Fraction(rng.randint(0, 12), 4))
        labels.add("cut")
    if rng.random() < 0.15:
        cutoff = v + Fraction(rng.randint(-8, 0), 4)
        labels.add("low target")
    else:
        cutoff = v + Fraction(rng.randint(1, 16), 4)
    return a, cutoff, labels


def _inverted(fn, a, cutoff):
    """``fn(a, cutoff)`` as (pairs, den, cutoff, coefficient types), or the
    text of the NotAUnit it raises."""
    try:
        b = fn(a, cutoff)
    except NotAUnit as exc:
        return ("NotAUnit", str(exc))
    return (b.pairs, b.den, b.ring, b.cutoff, [type(c) for _, c in b.pairs])


def assert_invert_matches_reference(seed, n):
    """Check invert against ref.truncated_invert on ``n`` seeded series:
    equal pairs, denominators, cutoffs, coefficient types and NotAUnit
    texts.  Returns the case labels drawn and the outcomes seen."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(n):
        a, cutoff, labels = _invert_case(rng)
        got = _inverted(invert, a, cutoff)
        assert got == _inverted(ref.truncated_invert, a, cutoff), (
            repr(a), cutoff)
        seen |= labels | {"NotAUnit" if got[0] == "NotAUnit" else "inverse"}
    return seen


class TestLiterals:
    def test_round_trip_random(self):
        rng = random.Random(16)
        for _ in range(300):
            a = random_series(rng)
            assert parse_series(format_series(a), ring="Z") == a
        for _ in range(100):
            a = random_series(rng, ring="Q")
            assert parse_series(format_series(a), ring="Q") == a

    def test_format_examples(self):
        a = parse_series("3t^1/2 - t^2 + 7", ring="Z")
        assert format_series(a) == "7t^0 + 3t^1/2 - t^2"
        assert format_series(NovikovSeries.zero(ring="Z")) == "0"
        assert valuation(a) == 0
        assert str(a) == "7t^0 + 3t^1/2 - t^2"
        assert repr(a) == "NovikovSeries('7t^0 + 3t^1/2 - t^2', ring='Z')"
        q = parse_series("3/2t^1/2 - t^2", ring="Q", cutoff=3)
        assert str(q) == "3/2t^1/2 - t^2"
        assert repr(q) == ("NovikovSeries('3/2t^1/2 - t^2', ring='Q', "
                           "cutoff=3)")

    def test_negative_exponents(self):
        a = parse_series("t^-2 + 1", ring="Z")
        assert valuation(a) == -2
        assert parse_series(format_series(a), ring="Z") == a

    def test_parse_error_location(self):
        with pytest.raises(ParseError) as exc:
            parse_series("t^1 + t^^2", ring="Z")
        assert exc.value.line == 1
        assert exc.value.column > 1

    def test_cutoff_truncates(self):
        a = parse_series("1 + t^1 + t^5", ring="Z", cutoff=Fraction(3))
        assert a.terms == parse_series("1 + t^1", ring="Z").terms


def test_scale_and_bool():
    a = parse_series("t^1 - t^2", ring="Z")
    assert a.scale(0) == NovikovSeries.zero(ring="Z")
    assert a.scale(-2) == parse_series("2t^2", ring="Z") - parse_series(
        "2t^1", ring="Z")
    assert bool(a)
    assert not NovikovSeries.zero(ring="Z")


def test_terms_sorted_and_leading():
    a = parse_series("t^3 + 5t^0 - 2t^1/2", ring="Z")
    exps = [e for e, _ in a.terms]
    assert exps == sorted(exps)
    assert a.terms[0] == (Fraction(0), 5)
    assert a.leading_coefficient() == 5
    # a present exponent gives its coefficient, an absent one the ring's 0
    assert [(type(c), c) for c in (a.coefficient(Fraction(1, 2)),
                                   a.coefficient(3), a.coefficient(1))] == [
        (int, -2), (int, 1), (int, 0)]
    q = a.to_ring("Q").scale(Fraction(1, 3))
    assert [(type(c), c) for c in (q.coefficient(0),
                                   q.coefficient(Fraction(1, 2)),
                                   q.coefficient(2))] == [
        (Fraction, Fraction(5, 3)), (Fraction, Fraction(-2, 3)),
        (Fraction, 0)]
    with pytest.raises(ValueError, match="zero series has no leading"):
        NovikovSeries.zero(ring="Z").leading_coefficient()
    with pytest.raises(AttributeError, match="NovikovSeries is immutable"):
        a.pairs = ()



def assert_canonical(s):
    """Strictly increasing Fraction exponents below the cutoff, no zero
    coefficient, int coefficients over Z and Fraction coefficients over Q."""
    exps = [e for e, _ in s.terms]
    assert all(type(e) is Fraction for e in exps), s.terms
    assert all(x < y for x, y in zip(exps, exps[1:])), s.terms
    coeff_type = int if s.ring == "Z" else Fraction
    assert all(type(c) is coeff_type and c != 0 for _, c in s.terms), s.terms
    assert s.cutoff is None or type(s.cutoff) is Fraction
    assert s.cutoff is None or all(e < s.cutoff for e in exps), s


def _operand(rng, ring):
    """The zero series, +-t^0, another monomial or a multi-term series,
    restricted to a cutoff half of the time."""
    kind = rng.randrange(4)
    if kind == 0:
        a = NovikovSeries.zero(ring=ring)
    elif kind == 1:
        a = NovikovSeries.monomial(rng.choice((1, -1)), 0, ring=ring)
    elif kind == 2:
        c = rng.choice((2, -3, 1, -1) if ring == "Z"
                       else (Fraction(2, 3), Fraction(-1, 2), 1, -1))
        a = NovikovSeries.monomial(c, rng.choice(_EXPONENTS), ring=ring)
    else:
        a = random_series(rng, ring=ring, max_terms=6)
    if rng.random() < 0.5:
        a = a.restrict(rng.choice(_EXPONENTS))
    return a


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_trusted_operations_match_validating_reference(ring):
    rng = random.Random(19 if ring == "Z" else 20)
    cancelled = shifts = 0
    for _ in range(1500):
        a, b = _operand(rng, ring), _operand(rng, ring)
        if rng.random() < 0.2:
            # a sum that cancels, in part or in full
            b = ref.add(ref.neg(a), b if rng.random() < 0.5
                        else NovikovSeries.zero(ring=ring))
            cancelled += 1
        shifts += len(a.terms) == 1 or len(b.terms) == 1
        for got, want in ((a + b, ref.add(a, b)),
                          (a - b, ref.add(a, ref.neg(b))),
                          (a * b, ref.mul(a, b)),
                          (b * a, ref.mul(b, a)),
                          (-a, ref.neg(a)),
                          (a.scale(-1), ref.scale(a, -1)),
                          (a.scale(1), ref.scale(a, 1)),
                          (a + 3, ref.add(a, NovikovSeries.monomial(3, ring=ring))),
                          (2 * a, ref.scale(a, 2))):
            assert got == want, (format_series(a), format_series(b))
            assert_canonical(got)
            assert_canonical(want)
    assert cancelled > 200 and shifts > 500


def test_product_cutoff_shifts_by_the_other_valuation():
    x = parse_series("t^0", ring="Z", cutoff=1)
    t3, t_3 = parse_series("t^3", ring="Z"), parse_series("t^-3", ring="Z")
    # x is known below t^1, so x * t^3 below t^4 and x * t^-3 below t^-2
    assert x * t3 == parse_series("t^3", ring="Z", cutoff=4)
    assert (x * t3) * t_3 == x * (t3 * t_3) == x
    assert x * t_3 == parse_series("t^-3", ring="Z", cutoff=-2)
    # a zero known below t^1 has valuation at least 1; an exact zero
    # makes the product exact
    zero_below_1 = parse_series("0", ring="Z", cutoff=1)
    assert zero_below_1 * zero_below_1 == parse_series("0", ring="Z", cutoff=2)
    assert (x * NovikovSeries.zero(ring="Z")).cutoff is None


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_products_of_truncated_series_do_not_depend_on_grouping(ring):
    rng = random.Random(23 if ring == "Z" else 24)
    truncated = 0
    for _ in range(800):
        a, b, c = (_operand(rng, ring) for _ in range(3))
        assert (a * b) * c == a * (b * c), tuple(map(repr, (a, b, c)))
        assert a * b == b * a
        truncated += (a * b * c).cutoff is not None
    assert truncated > 300


def test_bool_rejected_at_the_boundary():
    for ring in ("Z", "Q"):
        with pytest.raises(TypeError, match="exponent .* bool True"):
            NovikovSeries([(True, 1)], ring=ring)
        with pytest.raises(TypeError, match="coefficient .* bool True"):
            NovikovSeries([(1, True)], ring=ring)
        with pytest.raises(TypeError, match="coefficient .* bool False"):
            NovikovSeries.monomial(False, 1, ring=ring)
        with pytest.raises(TypeError, match="exponent .* bool False"):
            NovikovSeries.zero(ring=ring).restrict(False)
        with pytest.raises(TypeError, match="exponent .* bool True"):
            invert(NovikovSeries.one(ring=ring), True)


# the constructor, restrict, to_ring and scale against the Fraction-keyed
# constructor they replaced (ref.fraction_series)

_BAD_TERMS = ((True, 1), (1, True), (False, 2), (2, False), (0.5, 1),
              (1, 0.5), (1, Fraction(1, 2)), ("1", 1), (1, "2"), (None, 1),
              (1,))


def _exponent(rng):
    """An int or a Fraction exponent; Fraction(4, 2) and the like equal an
    int."""
    if rng.random() < 0.4:
        return rng.randint(-4, 6)
    return Fraction(rng.randint(-8, 12), rng.choice((1, 2, 3, 4, 6)))


def _coefficient(rng, ring):
    if ring == "Q" and rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    c = rng.randint(-5, 5)
    return Fraction(c) if rng.random() < 0.2 else c


def _term_list(rng, ring):
    """A term list with repeated exponents (written as an int or as a
    Fraction), cancelling and zero coefficients, and sometimes one invalid
    term."""
    terms = []
    for _ in range(rng.randint(0, 7)):
        if terms and rng.random() < 0.35:
            e, c = rng.choice(terms)
            if type(e) is int:
                e = Fraction(e)
            elif e.denominator == 1:
                e = int(e)
            terms.append((e, -c if rng.random() < 0.5 else
                          _coefficient(rng, ring)))
        else:
            terms.append((_exponent(rng), _coefficient(rng, ring)))
    if rng.random() < 0.2:
        terms.insert(rng.randint(0, len(terms)), rng.choice(_BAD_TERMS))
    return terms


def _built(build):
    """``build()`` as (pairs, den, ring, cutoff, coefficient types), or the
    type and message of the exception it raises."""
    try:
        s = build()
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return (s.pairs, s.den, s.ring, s.cutoff, [type(c) for _, c in s.pairs])


def test_constructor_and_unary_transforms_match_the_fraction_reference():
    rng = random.Random(25)
    seen = {"series": 0, "TypeError": 0, "ValueError": 0}
    merged = truncated = reduced = 0
    cutoffs = (None, None, 0, 2, Fraction(1, 2), Fraction(-5, 6), True, 0.5)
    for _ in range(4000):
        ring = rng.choice(("Z", "Q", "Z", "Q", "R"))
        terms, cutoff = _term_list(rng, ring), rng.choice(cutoffs)
        got = _built(lambda: NovikovSeries(terms, ring=ring, cutoff=cutoff))
        want = _built(lambda: ref.fraction_series(terms, ring=ring,
                                                  cutoff=cutoff))
        assert got == want, (terms, ring, cutoff)
        kind = got[0] if isinstance(got[0], str) else "series"
        seen[kind] += 1
        if kind != "series":
            continue
        s = NovikovSeries(terms, ring=ring, cutoff=cutoff)
        assert_canonical(s)
        exps = {Fraction(e) for e, _ in terms}
        merged += len(exps) < len(terms)
        truncated += cutoff is not None and any(e >= cutoff for e in exps)
        cut = rng.choice((0, 3, Fraction(1, 3), Fraction(-7, 4), False, 1.0))
        target = rng.choice(("Z", "Q", "R", s.ring))
        scalar = rng.choice((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(4, 2),
                             Fraction(-1), True, False, 2.0, "x"))
        for got, want in (
                (_built(lambda: s.restrict(cut)),
                 _built(lambda: ref.restrict(s, cut))),
                (_built(lambda: s.to_ring(target)),
                 _built(lambda: ref.to_ring(s, target))),
                (_built(lambda: s.scale(scalar)),
                 _built(lambda: ref.scale(s, scalar)))):
            assert got == want, (s, cut, target, scalar)
            if not isinstance(got[0], str):
                reduced += got[1] < s.den
    assert min(seen.values()) > 200, seen
    assert min(merged, truncated, reduced) > 100, (merged, truncated, reduced)


# the literal parser against the Fraction-based one it replaced

_MALFORMED = ("t^", "t^^2", "2t", "t^1/", "x", "t^1t^2", "3//4", "t^1/2/3",
              "", "t^+1", "1/2/3t^1", "tt^1", "t^1.5", "-", "2^3")


def _exponent_text(rng):
    """An exponent literal: an integer, possibly negative, or an unreduced
    fraction such as 2/4 or -3/6."""
    num = rng.randint(-9, 12)
    if rng.random() < 0.5:
        return str(num)
    return f"{num}/{rng.choice((1, 2, 3, 4, 6, 12))}"


def _coefficient_text(rng):
    """A coefficient literal: none, an integer (0 included) or a fraction
    such as 3/6."""
    kind = rng.randrange(4)
    if kind == 0:
        return ""
    if kind == 1:
        return str(rng.randint(0, 12))
    return f"{rng.randint(0, 12)}/{rng.choice((1, 2, 3, 6))}"


def _spaced(rng, text):
    """``text`` with whitespace put between some of its characters."""
    return "".join(ch + rng.choice(("", "", "", " ", "\t")) for ch in text)


def _literal(rng):
    """A literal and whether it repeats an exponent with the opposite sign
    and the same coefficient, so that the two terms cancel."""
    terms = []          # (sign, coefficient text, exponent text or None)
    cancels = False
    for _ in range(rng.randint(1, 5)):
        earlier = [t for t in terms if t[2] is not None]
        roll = rng.random()
        if roll < 0.15:
            terms.append((rng.choice("+-"), _coefficient_text(rng) or "0", None))
        elif roll < 0.35 and earlier:
            # an earlier term again, its exponent unreduced
            sign, coeff, exp = rng.choice(earlier)
            num, _, den = exp.partition("/")
            scale = rng.choice((1, 2, 3))
            terms.append(("-" if sign == "+" else "+", coeff,
                          f"{int(num) * scale}/{int(den or 1) * scale}"))
            cancels = True
        else:
            terms.append((rng.choice("+-"), _coefficient_text(rng),
                          _exponent_text(rng)))
    parts = []
    for k, (sign, coeff, exp) in enumerate(terms):
        if k == 0 and sign == "+" and rng.random() < 0.7:
            sign = ""
        parts.append(sign + (coeff if exp is None else f"{coeff}t^{exp}"))
    if rng.random() < 0.15:
        parts[rng.randrange(len(parts))] = rng.choice("+-") + rng.choice(_MALFORMED)
    if len(parts) > 1 and rng.random() < 0.05:
        parts[-1] = parts[-1].lstrip("+-")   # a missing separator
    text = " ".join(parts)
    return (_spaced(rng, text) if rng.random() < 0.5 else text), cancels


def _parsed(parse, fmt, text, ring, cutoff):
    try:
        s = parse(text, ring=ring, cutoff=cutoff)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return ("series", s, fmt(s))


def test_parser_matches_the_fraction_reference():
    rng = random.Random(21)
    seen = {"ParseError": 0, "series": 0, "TypeError": 0, "ValueError": 0}
    cancelled = truncated = 0
    for _ in range(3000):
        text, cancels = rng.choice((_literal(rng), _literal(rng),
                                    (" ", False), ("0", False), (" - 0 ", False)))
        ring = rng.choice(("Z", "Q", "Q", "Z", "R"))
        cutoff = rng.choice((None, None, 0, 2, Fraction(1, 2), Fraction(-5, 6),
                             0.5))
        got = _parsed(parse_series, format_series, text, ring, cutoff)
        want = _parsed(ref.parse_series, ref.format_series, text, ring, cutoff)
        assert got == want, (text, ring, cutoff)
        seen[got[0]] += 1
        if got[0] == "series":
            s = got[1]
            assert_canonical(s)
            assert s.den == math.lcm(*(e.denominator for e, _ in s.terms))
            assert s.pairs == tuple((e.numerator * (s.den // e.denominator), c)
                                    for e, c in s.terms)
            cancelled += cancels
            truncated += len(s.pairs) < len(parse_series(text, ring=ring).pairs)
    assert min(seen.values()) > 50, seen
    assert cancelled > 100 and truncated > 100, (cancelled, truncated)


@pytest.mark.parametrize("text,column", [
    ("t^1/0", 1), ("1/0", 1), ("t^1 + 2/0t^3", 7), ("t^1 -  t^-5/0", 8)])
def test_zero_denominator_is_a_parse_error_at_its_term(text, column):
    for ring in ("Z", "Q"):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_series(text, ring=ring)
        assert (exc.value.line, exc.value.column) == (1, column)
