"""Morse fixtures, the sphere product table, and the puncture bound."""

from __future__ import annotations

from fractions import Fraction

import pytest

from openstrings.ainfty import (
    assemble_differential,
    check_a_infinity,
    cohomology,
    euler_characteristic,
    pair_subcomplex,
    validate_axioms_A,
)
from openstrings.morse import (
    CriticalPoint,
    Flow,
    HypothesisViolated,
    MorseDatum,
    NotAComplex,
    SftIndexQuery,
    Triple,
    build_floer_complex,
    morse_datum_from_json,
    sft_index_bound,
    sft_report,
    sphere_fixture,
)
from openstrings.novikov import NovikovSeries

ONE = NovikovSeries.one(ring="Z")


def acyclic_datum() -> MorseDatum:
    """Four points on a surface whose homology cancels completely."""
    return MorseDatum(
        n=2,
        points=(
            CriticalPoint("p", 2, Fraction(3)),
            CriticalPoint("q", 1, Fraction(1)),
            CriticalPoint("r", 1, Fraction(2)),
            CriticalPoint("s", 0, Fraction(0)),
        ),
        flows=(
            Flow("p", "q", 1), Flow("p", "r", -1),
            Flow("q", "s", 1), Flow("r", "s", 1),
        ),
    )


# ---------------------------------------------------------------------------
# sphere fixtures


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_fixture_shape(n):
    d = sphere_fixture(n)
    assert d.l == 2 and d.modulus == 2
    assert len(d.generators) == 6
    assert {g.id for g in d.generators} == {
        "max.01", "min.01", "max.12", "min.12", "max.02", "min.02"}
    mus = {g.id: g.mu for g in d.generators}
    assert mus["max.01"] == 0 and mus["min.01"] == n
    assert d.metadata["intersection_index"] == 1 + (-1) ** n
    rep = check_a_infinity(d)
    assert rep["square_zero"] and rep["words"] == 10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_pair_cohomology(n):
    d = sphere_fixture(n)
    sub = pair_subcomplex(d, 0, 1)
    assert sub.l == 1 and not sub.tensors
    coh = cohomology(assemble_differential(sub), ring="Q")
    assert coh["total_rank"] == 2
    if n % 2:
        assert coh["ranks"] == {"0": 1, "1": 1}
    else:
        assert coh["ranks"] == {"0": 2}
    # actual degrees are the generator indices: bottom class and n
    assert sorted(g.mu for g in sub.generators) == [0, n]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_euler_matches_intersection_metadata(n):
    d = sphere_fixture(n)
    chi = euler_characteristic(assemble_differential(pair_subcomplex(d, 0, 1)))
    assert chi == -(1 + (-1) ** n)
    assert chi == -d.metadata["intersection_index"]


def test_sphere_full_complex(n=3):
    c = assemble_differential(sphere_fixture(n))
    assert validate_axioms_A(c)["ok"]
    assert cohomology(c, ring="Q")["total_rank"] == 6
    assert cohomology(c, ring="Z")["total_rank"] == 6


def _product_table(datum):
    table = {}
    for e in datum.tensors:
        if e.arity == 2:
            a = e.inputs[0].split(".")[0]
            b = e.inputs[1].split(".")[0]
            table[(a, b)] = (e.output.split(".")[0], e.coeff)
    return table


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_product_table(n):
    table = _product_table(sphere_fixture(n))
    assert table[("max", "max")] == ("max", ONE)
    assert table[("max", "min")] == ("min", ONE)
    assert table[("min", "max")] == ("min", ONE)
    assert ("min", "min") not in table


def test_sphere_product_is_unital_and_associative():
    table = {k: v[0] for k, v in _product_table(sphere_fixture(3)).items()}

    def mul(a, b):
        if a == "0" or b == "0":
            return "0"
        return table.get((a, b), "0")

    for x in ("max", "min"):
        assert mul("max", x) == x == mul(x, "max")
    for a in ("max", "min", "0"):
        for b in ("max", "min", "0"):
            for c in ("max", "min", "0"):
                assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_sphere_needs_dimension_two():
    with pytest.raises(ValueError):
        sphere_fixture(1)


# ---------------------------------------------------------------------------
# hand-built Morse data


def test_acyclic_fixture_cancels():
    d = build_floer_complex(acyclic_datum())
    assert d.l == 1
    assert {g.id: g.mu for g in d.generators} == {
        "p": 0, "q": 1, "r": 1, "s": 2}
    c = assemble_differential(d)
    assert check_a_infinity(d)["square_zero"]
    for ring in ("Q", "Z"):
        assert cohomology(c, ring=ring)["total_rank"] == 0
    assert d.metadata["intersection_index"] == 0
    assert euler_characteristic(c) == 0


def test_action_normalization():
    # the cheapest line costs t^0; the rest keep relative energies
    d = build_floer_complex(acyclic_datum())
    coeffs = {(e.inputs[0], e.output): e.coeff for e in d.tensors}
    assert coeffs[("p", "q")] == NovikovSeries.monomial(1, 1, ring="Z")
    assert coeffs[("p", "r")] == NovikovSeries.monomial(-1, 0, ring="Z")
    assert coeffs[("q", "s")] == NovikovSeries.monomial(1, 0, ring="Z")
    assert coeffs[("r", "s")] == NovikovSeries.monomial(1, 1, ring="Z")


def test_flows_must_square_to_zero():
    base = acyclic_datum()
    with pytest.raises(NotAComplex, match="square to zero"):
        build_floer_complex(MorseDatum(n=2, points=base.points,
                                       flows=base.flows[:3]))


def test_flow_index_drop_enforced():
    pts = (CriticalPoint("p", 2, Fraction(1)),
           CriticalPoint("s", 0, Fraction(0)))
    with pytest.raises(ValueError, match="drop the index"):
        build_floer_complex(MorseDatum(n=2, points=pts,
                                       flows=(Flow("p", "s", 1),)))


def test_point_validation():
    with pytest.raises(ValueError, match="duplicate"):
        build_floer_complex(MorseDatum(n=2, points=(
            CriticalPoint("p", 1, Fraction(0)),
            CriticalPoint("p", 2, Fraction(1)))))
    with pytest.raises(ValueError, match="out of range"):
        build_floer_complex(MorseDatum(n=1, points=(
            CriticalPoint("p", 2, Fraction(0)),)))
    with pytest.raises(ValueError, match="unknown point"):
        build_floer_complex(MorseDatum(n=2, points=(
            CriticalPoint("p", 1, Fraction(0)),),
            flows=(Flow("p", "ghost", 1),)))


def test_triple_validation():
    pts = (CriticalPoint("e", 0, Fraction(0)),)
    with pytest.raises(ValueError, match="nonnegative"):
        build_floer_complex(MorseDatum(
            n=2, points=pts,
            triples=(Triple("e", "e", "e", 1, Fraction(-1)),)))
    with pytest.raises(ValueError, match="unknown point"):
        build_floer_complex(MorseDatum(
            n=2, points=pts,
            triples=(Triple("e", "ghost", "e", 1, Fraction(0)),)))
    # zero-count triples are dropped rather than stored
    d = build_floer_complex(MorseDatum(
        n=2, points=pts, triples=(Triple("e", "e", "e", 0, Fraction(0)),)))
    assert not d.tensors and d.l == 2


# ---------------------------------------------------------------------------
# puncture index bound


def test_base_case_is_sharp():
    bound, ok = sft_index_bound(SftIndexQuery(3, 0, 1, (1,)))
    assert bound == -2 and ok


def test_report_fields():
    assert sft_report(SftIndexQuery(3, 0, 1, (1,))) == {
        "n": 3, "g": 0, "v": 1, "m": [1],
        "bound": -2, "majorant": -2, "satisfies": True,
    }


def test_bound_closed_form_and_increments():
    for n in (2, 3, 4, 5):
        for g in range(0, 3):
            if n == 2 and g:
                continue
            for v in (1, 2, 3):
                for m0 in (1, 2):
                    m = (m0,) + (1,) * (v - 1)
                    bound, ok = sft_index_bound(SftIndexQuery(n, g, v, m))
                    assert bound == (-2 * (n - 1) * sum(m)
                                     + (n - 3) * (2 - 2 * g) + 2 * v)
                    assert ok and bound <= -2
                    # one more multiplicity costs 2(n-1)
                    heavier = (m0 + 1,) + m[1:]
                    assert sft_index_bound(
                        SftIndexQuery(n, g, v, heavier))[0] == bound - 2 * (
                            n - 1)


def test_extra_puncture_never_helps():
    for n in (2, 3, 4, 5):
        bound, _ = sft_index_bound(SftIndexQuery(n, 0, 1, (1,)))
        more, _ = sft_index_bound(SftIndexQuery(n, 0, 2, (1, 1)))
        assert more - bound == 4 - 2 * n
        assert more <= bound


def test_query_validation():
    with pytest.raises(HypothesisViolated, match="genus must vanish"):
        sft_index_bound(SftIndexQuery(2, 1, 1, (1,)))
    with pytest.raises(ValueError):
        sft_index_bound(SftIndexQuery(1, 0, 1, (1,)))
    with pytest.raises(ValueError):
        sft_index_bound(SftIndexQuery(3, -1, 1, (1,)))
    with pytest.raises(ValueError):
        sft_index_bound(SftIndexQuery(3, 0, 2, (1,)))
    with pytest.raises(ValueError):
        sft_index_bound(SftIndexQuery(3, 0, 1, (0,)))


# ---------------------------------------------------------------------------
# interchange


def test_datum_from_json_round_trip():
    obj = {
        "n": 2,
        "points": [
            {"id": "p", "index": 2, "value": 3},
            {"id": "q", "index": 1, "value": 1},
            {"id": "r", "index": 1, "value": 2},
            {"id": "s", "index": 0, "value": 0},
        ],
        "flows": [
            {"from": "p", "to": "q", "count": 1},
            {"from": "p", "to": "r", "count": -1},
            {"from": "q", "to": "s", "count": 1},
            {"from": "r", "to": "s", "count": 1},
        ],
    }
    assert morse_datum_from_json(obj) == acyclic_datum()


@pytest.mark.parametrize("where,key", [
    ((), "n"), (("points", 0), "index"), (("flows", 0), "count"),
    (("triples", 0), "count")])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "1"])
def test_json_integer_fields_reject_other_numbers(where, key, value):
    obj = {
        "n": 2,
        "points": [{"id": "p", "index": 1, "value": 1},
                   {"id": "q", "index": 0, "value": 0}],
        "flows": [{"from": "p", "to": "q", "count": 1}],
        "triples": [{"a": "q", "b": "q", "out": "q", "count": 1,
                     "action": 0}],
    }
    morse_datum_from_json(obj)
    node = obj
    for step in where:
        node = node[step]
    node[key] = value
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        morse_datum_from_json(obj)


def test_json_fraction_values_and_triples():
    obj = {
        "n": 3,
        "points": [{"id": "e", "index": 0, "value": "1/2"}],
        "triples": [{"a": "e", "b": "e", "out": "e", "count": 2,
                     "action": "3/4"}],
    }
    d = morse_datum_from_json(obj)
    assert d.points[0].value == Fraction(1, 2)
    assert d.triples[0].action == Fraction(3, 4)
    built = build_floer_complex(d)
    (e,) = [t for t in built.tensors if t.arity == 2]
    assert e.coeff == NovikovSeries.monomial(2, Fraction(3, 4), ring="Z")
