"""The sign engine: assembled differentials, maps, homotopies, invariants."""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from openstrings import ainfty
from openstrings.ainfty import (
    AInftyDatum,
    Augmentation,
    DegreeViolation,
    FloerComplex,
    Generator,
    InexactDivision,
    MapDatum,
    NonUnitPivot,
    RequiresModTwoGrading,
    TensorEntry,
    assemble_continuation,
    assemble_differential,
    assemble_homotopy,
    augmentation_from_json,
    check_a_infinity,
    check_augmentation,
    check_chain_map,
    check_composition,
    check_consistency_continuation,
    check_consistency_homotopy,
    check_homotopy,
    cohomology,
    compose_continuations,
    composition_sign_identity,
    datum_from_json,
    datum_to_json,
    enumerate_words,
    euler_characteristic,
    extend_augmentation,
    homotopic_map,
    identity_continuation,
    map_from_json,
    pair_subcomplex,
    symbolic_delta_squared,
    validate_axioms_A,
    _grade,
    _mat_add,
    _mat_compose,
    _mat_is_zero,
    _word_mu,
)
from openstrings import _poly
from openstrings._poly import _exact_div, _pack_block
from openstrings.polytopes import _compositions
from openstrings.morse import (
    CriticalPoint,
    Flow,
    MorseDatum,
    Triple,
    build_floer_complex,
    sphere_fixture,
)
from openstrings.novikov import NovikovSeries, parse_series

import ainfty_reference
from conftest import (
    ONE,
    S,
    T,
    all_pairs_datum,
    conjugate_datum,
    diagonal_map,
    make_augmentation_datum,
    make_chain_datum,
    random_units,
)


def _G(word, gens):
    """Cohomological grade of a composable chain."""
    return sum(gens[x].mu for x in word) + len(word) - 1


def _gen_index(datum):
    return {g.id: g for g in datum.generators}


# ---------------------------------------------------------------------------
# the quadratic relation


def test_differential_squares_to_zero(chain_datum):
    rep = check_a_infinity(chain_datum)
    assert rep["square_zero"]
    assert rep["words"] == 59
    assert rep["nonzero_entries"] == []


def test_differential_builds_at_most_one_series_per_term(chain_datum,
                                                        monkeypatch):
    # a term's weight is stored as it is, or negated once for an odd sign;
    # no sum starts from 0 and no sign is applied by scaling with +1
    tindex = ainfty_reference._tensor_index(chain_datum.tensors)
    terms = sum(len(tindex.get(word[i:i + w], ()))
                for word in enumerate_words(chain_datum)
                for w in range(1, len(word) + 1)
                for i in range(len(word) - w + 1))
    built = []
    real = NovikovSeries.__init__
    monkeypatch.setattr(NovikovSeries, "__init__",
                        lambda self, *a, **kw: built.append(1)
                        or real(self, *a, **kw))
    c = assemble_differential(chain_datum)
    assert terms == sum(len(row) for row in c.differential.values()) == 33
    assert len(built) <= terms


def test_broken_associativity_detected(chain_datum):
    tensors = chain_datum.tensors[:-1] + (
        T(["g02", "g23"], "g03", S("-3t^2")),)
    bad = AInftyDatum(l=3, generators=chain_datum.generators,
                      tensors=tensors, modulus=0)
    assert not check_a_infinity(bad)["square_zero"]


def test_axioms_hold_on_fixture(chain_complex):
    rep = validate_axioms_A(chain_complex)
    assert rep["ok"], rep


def test_axioms_fail_on_given_words_and_differential(chain_complex):
    # a basis that drops a letter of longer words breaks A1; an entry
    # w -> w keeps the cardinality but not the index shift, which breaks A2
    c = chain_complex
    words = tuple(w for w in c.words if w != ("g12",))
    rep = validate_axioms_A(FloerComplex(c.datum, words, c.differential))
    assert (rep["a1"], rep["a2"], rep["ok"]) == (False, True, False)
    bad = {w: dict(row) for w, row in c.differential.items()}
    bad.setdefault(c.words[0], {})[c.words[0]] = ONE
    rep = validate_axioms_A(FloerComplex(c.datum, c.words, bad))
    assert (rep["a1"], rep["a2"], rep["ok"]) == (True, False, False)


def test_word_enumeration_properties(chain_datum):
    words = enumerate_words(chain_datum)
    assert len(words) == 59
    gens = _gen_index(chain_datum)
    wordset = set(words)
    for w in words:
        # composable: consecutive labels match
        for x, y in zip(w, w[1:]):
            assert gens[x].j == gens[y].i
        # substring closed
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert w[i:j] in wordset


def test_differential_filtration_and_grading(chain_complex):
    # an arity-w block replacement moves the grade by 3 - 2w, so the
    # arity-one part is the degree +1 piece and every other arity lands
    # in the same mod-two class
    gens = _gen_index(chain_complex.datum)
    arities = {e.arity for e in chain_complex.datum.tensors}
    for win, row in chain_complex.differential.items():
        for wout, coeff in row.items():
            assert coeff
            w = len(win) - len(wout) + 1
            assert w in arities
            assert _G(wout, gens) - _G(win, gens) == 3 - 2 * w


# ---------------------------------------------------------------------------
# symbolic certificates


def test_symbolic_cancellation():
    rep = symbolic_delta_squared(6, 6)
    assert rep["cancels"]
    assert rep["disjoint_pairs"] > 0
    assert rep["nested_groups"] > 0


@pytest.mark.parametrize("mutation", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_symbolic_mutations_break(mutation):
    assert not symbolic_delta_squared(6, 6, mutation=mutation)["cancels"]


def test_consistency_identities():
    cont = check_consistency_continuation(4, 4)
    homo = check_consistency_homotopy(4, 4)
    assert cont["consistent"] and cont["cases"] > 100
    assert homo["consistent"] and homo["cases"] > 100


def test_composition_sign_identity_small():
    rep = composition_sign_identity(3)
    assert rep["holds"] and rep["cases"] > 10


# ---------------------------------------------------------------------------
# continuations


def test_identity_is_identity(chain_complex):
    ident = identity_continuation(chain_complex)
    fmat = assemble_continuation(chain_complex, chain_complex, ident)
    for w in chain_complex.words:
        assert fmat.get(w, {}) == {w: ONE}
    rep = check_chain_map(chain_complex, chain_complex, ident)
    assert rep["chain_map"] and rep["dual_expansion"]


def test_diagonal_chain_map(chain_datum, conjugated_datum, chain_units):
    c = assemble_differential(chain_datum)
    cp = assemble_differential(conjugated_datum)
    assert check_a_infinity(conjugated_datum)["square_zero"]
    h = diagonal_map(chain_datum, chain_units)
    rep = check_chain_map(c, cp, h)
    assert rep["chain_map"] and rep["dual_expansion"]


def test_mutated_diagonal_rejected(chain_datum, conjugated_datum,
                                   chain_units):
    c = assemble_differential(chain_datum)
    cp = assemble_differential(conjugated_datum)
    flipped = dict(chain_units)
    flipped["g12"] = flipped["g12"].scale(-1)
    rep = check_chain_map(c, cp, diagonal_map(chain_datum, flipped))
    assert not rep["chain_map"]
    assert rep["defects"]


def test_continuation_grading_is_even(chain_datum, conjugated_datum,
                                      chain_units):
    # every splitting into r blocks of total arity q moves the grade by
    # 2(r - q): grade-preserving exactly on the diagonal part
    c = assemble_differential(chain_datum)
    cp = assemble_differential(conjugated_datum)
    gens = _gen_index(chain_datum)
    h = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),))
    fmat = assemble_continuation(c, cp, h)
    saw_shift = False
    for win, row in fmat.items():
        for wout, coeff in row.items():
            if not coeff:
                continue
            shift = _G(wout, gens) - _G(win, gens)
            assert shift == 2 * (len(wout) - len(win))
            saw_shift = saw_shift or shift != 0
    assert saw_shift


# ---------------------------------------------------------------------------
# homotopies


def test_homotopy_solver_closes_identity(chain_complex):
    k = MapDatum(k=(T(["ap"], "a"), T(["cp"], "c", S("5t^1"))))
    h0 = identity_continuation(chain_complex)
    h1 = homotopic_map(chain_complex, chain_complex, h0, k)
    rep = check_homotopy(chain_complex, chain_complex, h0, h1, k)
    assert rep["homotopy"], rep["defects"][:4]
    assert check_chain_map(chain_complex, chain_complex, h1)["chain_map"]


def test_homotopy_with_arity_two_block(chain_complex):
    k = MapDatum(k=(T(["ap"], "a"), T(["cp"], "c", S("5t^1")),
                    T(["g01", "g12"], "w02")))
    h0 = identity_continuation(chain_complex)
    h1 = homotopic_map(chain_complex, chain_complex, h0, k)
    assert check_homotopy(chain_complex, chain_complex, h0, h1, k)[
        "homotopy"]


def test_homotopy_grading_is_odd(chain_complex):
    # one homotopy block among continuation blocks: grade moves by
    # 2(r - q) - 1, hence by -1 on the block-diagonal part
    gens = _gen_index(chain_complex.datum)
    k = MapDatum(k=(T(["ap"], "a"), T(["g01", "g12"], "w02")))
    h0 = identity_continuation(chain_complex)
    h1 = homotopic_map(chain_complex, chain_complex, h0, k)
    kk = assemble_homotopy(chain_complex, chain_complex, h0, h1, k)
    assert kk
    for win, row in kk.items():
        for wout, coeff in row.items():
            if coeff:
                assert (_G(wout, gens) - _G(win, gens)
                        == 2 * (len(wout) - len(win)) - 1)


def test_mutated_homotopy_rejected(chain_complex):
    k = MapDatum(k=(T(["ap"], "a"), T(["cp"], "c", S("5t^1"))))
    h0 = identity_continuation(chain_complex)
    h1 = homotopic_map(chain_complex, chain_complex, h0, k)
    kbad = MapDatum(k=(T(["ap"], "a", S("-t^0")), T(["cp"], "c", S("5t^1"))))
    assert not check_homotopy(chain_complex, chain_complex, h0, h1, kbad)[
        "homotopy"]


def _ref_homotopic_map(c, c_prime, h0, k):
    """``homotopic_map`` as it was before each pass expanded only the rows
    it reads, on the block walk: every pass re-expands the whole homotopy
    matrix and composes it with both differentials.  The entries are
    sorted by (inputs, output), as ``homotopic_map`` returns them."""
    h0_index = ainfty_reference._tensor_index(h0.h)
    k_index = ainfty_reference._tensor_index(k.k)
    f0 = ainfty_reference._expand(c_prime, h0_index)
    h1_entries = []
    max_arity = max((len(w) for w in c_prime.words), default=0)
    for w in range(1, max_arity + 1):
        kk = ainfty_reference._expand(c_prime, h0_index, k_index,
                                      ainfty_reference._tensor_index(h1_entries))
        bracket = _mat_add(_mat_compose(kk, c.differential),
                           _mat_compose(c_prime.differential, kk))
        want = _mat_add(f0, bracket, sign=-1)
        for word in c_prime.words:
            if len(word) != w:
                continue
            for wout, coeff in want.get(word, {}).items():
                if len(wout) == 1 and coeff:
                    h1_entries.append(TensorEntry(word, wout[0], coeff))
    return MapDatum(h=tuple(sorted(h1_entries,
                                   key=lambda e: (e.inputs, e.output))))


_CHAIN_HOMOTOPIES = (
    (T(["ap"], "a"), T(["cp"], "c", S("5t^1"))),
    (T(["ap"], "a"), T(["cp"], "c", S("5t^1")), T(["g01", "g12"], "w02")),
    (T(["ap"], "a"), T(["g01", "g12"], "w02", S("-2t^1/2"))),
    # products shorten words: the pass on (g01, g12) reads the row of g02
    (T(["g02"], "z02", S("t^1")), T(["g13"], "z13", S("-t^0")),
     T(["cp"], "c", S("5t^1"))),
    (),
)


def test_homotopic_map_expands_only_the_rows_each_pass_reads(chain_complex,
                                                              monkeypatch):
    # on the word basis (a given differential), h0 is fanned in once over
    # every target word; pass w fans the homotopy in over the target words
    # of length at most w, with h1 entries of arity below w only, and
    # builds no row longer than w: 59 + (14 + 41 + 59) target words here
    c = FloerComplex(chain_complex.datum, chain_complex.words,
                     chain_complex.differential)
    calls = []
    real = ainfty._fan_in_matrix

    def spy(words, components, gens, k=None, after=None, longest=None):
        arities = [len(inputs) for parts in (after or {}).values()
                   for inputs, _ in parts]
        out = real(words, components, gens, k, after, longest)
        calls.append((k is not None, tuple(words), arities,
                      max(map(len, out), default=0)))
        return out

    monkeypatch.setattr(ainfty, "_fan_in_matrix", spy)
    k = MapDatum(k=_CHAIN_HOMOTOPIES[3])
    h1 = homotopic_map(c, c, identity_continuation(c), k)
    max_arity = max(len(w) for w in c.words)
    (is_k, words, _, _), *passes = calls
    assert not is_k and words == c.words
    assert len(passes) == max_arity == 3
    for w, (is_k, words, arities, longest_row) in enumerate(passes, 1):
        assert is_k and words == tuple(x for x in c.words if len(x) <= w)
        assert all(a < w for a in arities)
        assert longest_row <= w
    # the last pass read h1 entries of arities 1 and 2
    assert set(passes[-1][2]) == {1, 2} and h1.h
    assert [len(words) for _, words, _, _ in calls] == [59, 14, 41, 59]
    # with an arity-2 homotopy entry, h1 entries of arity 2 glue into
    # chains longer than the pass, which it does not build
    for entries in _CHAIN_HOMOTOPIES:
        calls.clear()
        homotopic_map(c, c, identity_continuation(c), MapDatum(k=entries))
        assert all(longest_row <= w
                   for w, (_, _, _, longest_row) in enumerate(calls[1:], 1))
    # the assembled complex is solved on one-output components: no fan-in
    # over words, and the same entries
    calls.clear()
    assert homotopic_map(chain_complex, chain_complex,
                         identity_continuation(c), k) == h1
    assert calls == []


def test_homotopic_map_matches_full_re_expansion(chain_datum,
                                                 conjugated_datum,
                                                 chain_units):
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    diag = diagonal_map(chain_datum, chain_units)
    found = 0
    for entries in _CHAIN_HOMOTOPIES:
        k = MapDatum(k=entries)
        for c, cp, h0 in ((c0, c0, identity_continuation(c0)), (c0, c1, diag)):
            h1 = homotopic_map(c, cp, h0, k)
            assert h1 == _ref_homotopic_map(c, cp, h0, k)
            found += len(h1.h)
    rng = random.Random(6611)
    for l in (3, 4, 5):
        for _ in range(2):
            c0, c1, _, _, _, h0, _, k = _random_case(rng, l)
            h1 = homotopic_map(c0, c1, h0, k)
            assert h1 == _ref_homotopic_map(c0, c1, h0, k)
            assert any(e.arity > 1 for e in h1.h)
    for _ in range(60):
        c = _corpus_complex(rng)
        ring, gens = c.datum.ring, c.datum.generators
        by_mu = {}
        for g in gens:
            by_mu.setdefault(g.mu, []).append(g.id)
        h0 = MapDatum(h=tuple(
            T([x], y, _corpus_weight(rng, ring)) for ids in by_mu.values()
            for x in ids for y in ids if x == y or rng.random() < 0.3))
        k = MapDatum(k=tuple(
            T([x], y, _corpus_weight(rng, ring))
            for mu, ids in by_mu.items() for x in ids
            for y in by_mu.get(mu - 1, ()) if rng.random() < 0.5))
        h1 = homotopic_map(c, c, h0, k)
        assert h1 == _ref_homotopic_map(c, c, h0, k)
        found += len(h1.h)
    assert found > 100


def test_homotopic_map_annotates_h0_and_k_once(monkeypatch):
    # pass w reads h0, k and the h1 entries of arity below w: h0 and k are
    # annotated once per call and each solved h1 entry once, so the
    # components annotated do not grow with the number of passes (l)
    real = ainfty._annotated
    sizes = []
    monkeypatch.setattr(ainfty, "_annotated", lambda table, gens: sizes.append(
        sum(map(len, table.values()))) or real(table, gens))
    rng = random.Random(3030)
    for l in (3, 5, 7):
        d = all_pairs_datum(l, [(0, 2), (l - 2, l)])
        units = random_units(rng, d)
        c, cp = assemble_differential(d), assemble_differential(
            conjugate_datum(d, units))
        h0 = diagonal_map(d, units)
        k = MapDatum(k=(T(["s02"], "z02", S("t^1")),
                        T([f"s{l - 2}{l}"], f"z{l - 2}{l}", S("-2t^0"))))
        sizes.clear()
        h1 = homotopic_map(c, cp, h0, k)
        assert sum(sizes) == len(h0.h) + len(k.k) + len(h1.h), l
        assert len(sizes) == 2 + l
        assert h1 == ainfty_reference.word_basis_homotopic_map(c, cp, h0, k)


# ---------------------------------------------------------------------------
# composition


def test_composition_functoriality(chain_datum, conjugated_datum,
                                   chain_units):
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    gens = chain_datum.generators
    h01 = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),
        T(["g12", "g23"], "z13", S("-t^1"))))
    h12 = MapDatum(h=tuple(T([g.id], g.id, ONE) for g in gens) + (
        T(["g12", "g23"], "z13", S("-2t^1")),
        T(["g01", "g12"], "z02", S("7t^0"))))
    rep = check_composition(c0, c1, c1, h01, h12)
    assert rep["composition"], rep["defects"][:4]
    composite = compose_continuations(c0, c1, c1, h01, h12)
    assert any(e.arity == 2 for e in composite.h)


def test_composition_sign_flip_detected(chain_datum, conjugated_datum,
                                        chain_units):
    # flipping the sign of one glued arity-2 entry must desynchronise
    # the assembled composite from the matrix product
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    gens = chain_datum.generators
    h01 = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),))
    h12 = MapDatum(h=tuple(T([g.id], g.id, ONE) for g in gens) + (
        T(["g12", "g23"], "z13", S("-2t^1")),))
    composite = compose_continuations(c0, c1, c1, h01, h12)
    rhs = _mat_compose(assemble_continuation(c1, c1, h12),
                       assemble_continuation(c0, c1, h01))
    lhs = assemble_continuation(c0, c1, composite)
    assert _mat_is_zero(_mat_add(lhs, rhs, sign=-1))
    mutated = tuple(
        TensorEntry(e.inputs, e.output,
                    e.coeff.scale(-1) if e.arity == 2 else e.coeff)
        for e in composite.h)
    lhs_bad = assemble_continuation(c0, c1, MapDatum(h=mutated))
    assert not _mat_is_zero(_mat_add(lhs_bad, rhs, sign=-1))


# ---------------------------------------------------------------------------
# augmentations


def test_augmentation_conditions():
    datum, aug = make_augmentation_datum()
    c = assemble_differential(datum)
    rep = check_augmentation(c, aug)
    assert rep["condition_1"] and rep["condition_2"] and rep["ok"]
    assert rep["supported_words"] == 5


def test_augmentation_pushforward():
    datum, aug = make_augmentation_datum()
    c = assemble_differential(datum)
    units = {"x": S("-t^0"), "y": S("t^1"), "z": S("-t^2"), "p": ONE}
    conj = conjugate_datum(datum, units)
    cp = assemble_differential(conj)
    h = diagonal_map(datum, units)
    assert check_chain_map(c, cp, h)["chain_map"]
    rep = check_augmentation(c, aug, push=(cp, h))
    sub = rep["pushforward"]
    assert sub["condition_1"] and sub["condition_2"] and sub["factorizes"]
    assert rep["ok"]


def test_augmentation_degree_violations():
    # both entry points reject a value off the complex or outside the
    # index-(-1) class, ahead of the ring check
    datum, _ = make_augmentation_datum()
    c = assemble_differential(datum)
    for call in (extend_augmentation, check_augmentation):
        with pytest.raises(DegreeViolation, match="generator 'x' outside "
                                                 "the index-"):
            call(c, Augmentation(values={"x": ONE}))
        with pytest.raises(ValueError,
                           match="unknown generator 'nope'") as err:
            call(c, Augmentation(values={"nope": ONE.to_ring("Q")}))
        assert not isinstance(err.value, DegreeViolation)


def test_augmentation_word_extension():
    datum, aug = make_augmentation_datum()
    c = assemble_differential(datum)
    vals = extend_augmentation(c, aug)
    assert set(vals) == {("y",), ("z",), ("p",), ("y", "p"), ("z", "p")}
    for g in ("y", "z", "p"):
        assert vals[(g,)] == aug.values[g]
    # two odd factors pick up the transposition sign
    assert vals[("y", "p")] == (aug.values["y"] * aug.values["p"]).scale(-1)
    assert vals[("z", "p")] == (aug.values["z"] * aug.values["p"]).scale(-1)


def test_augmentation_values_must_lie_in_the_datum_ring():
    datum, aug = make_augmentation_datum()
    c = assemble_differential(datum)
    over_q = Augmentation(values={**aug.values,
                                  "p": aug.values["p"].to_ring("Q")})
    for call in (extend_augmentation, check_augmentation):
        with pytest.raises(ValueError, match="generator 'p' is over Q, "
                                             "expected the datum ring Z"):
            call(c, over_q)
    # the pushforward re-extends the pushed values on the domain complex
    q_datum = AInftyDatum(
        l=datum.l, generators=datum.generators, modulus=datum.modulus,
        ring="Q", tensors=tuple(TensorEntry(e.inputs, e.output,
                                            e.coeff.to_ring("Q"))
                                for e in datum.tensors))
    push = (assemble_differential(q_datum), identity_continuation(c))
    with pytest.raises(ValueError, match="generator '[yzp]' is over Z, "
                                         "expected the datum ring Q"):
        check_augmentation(c, aug, push)


def test_broken_augmentation_reported():
    datum, _ = make_augmentation_datum()
    c = assemble_differential(datum)
    bad = Augmentation(values={"y": ONE, "z": ONE, "p": ONE})
    rep = check_augmentation(c, bad)
    assert not rep["condition_1"]
    assert not rep["ok"]
    # a given basis without the letter ("p",): the extension has no value
    # on that factor of ("y", "p") and ("z", "p"), so condition 2 fails
    datum, aug = make_augmentation_datum()
    cut = FloerComplex(datum, tuple(w for w in c.words if w != ("p",)),
                       c.differential)
    assert check_augmentation(cut, aug) == {
        "condition_1": True, "condition_2": False, "supported_words": 4,
        "ok": False}


# ---------------------------------------------------------------------------
# cohomology and Euler characteristics


def test_cohomology_field_ranks(chain_complex):
    coh = cohomology(chain_complex, ring="Q")
    assert coh["ranks"] == {"0": 2, "1": 5, "2": 5, "3": 5, "4": 3, "5": 1}
    assert coh["total_rank"] == 21
    assert coh["ring"] == "Q"


def test_cohomology_non_unit_pivot(chain_complex):
    with pytest.raises(NonUnitPivot):
        cohomology(chain_complex, ring="Z")
    with pytest.raises(ValueError, match="ring must be 'Z' or 'Q'"):
        cohomology(chain_complex, ring="R")


def test_cohomology_invariant_under_diagonal_change(
        chain_complex, conjugated_datum):
    coh = cohomology(chain_complex, ring="Q")
    coh2 = cohomology(assemble_differential(conjugated_datum), ring="Q")
    assert coh["ranks"] == coh2["ranks"]


def test_cohomology_invariant_under_triangular_change():
    # substitute z -> z + u*y, a grading-preserving unit-triangular move
    datum, _ = make_augmentation_datum()
    u = S("3t^2")
    tensors = (T(["x"], "y", S("t^0") - S("t^1") * u), T(["x"], "z", S("t^1")))
    moved = AInftyDatum(l=2, generators=datum.generators, tensors=tensors,
                        modulus=2)
    a = cohomology(assemble_differential(datum), ring="Q")
    b = cohomology(assemble_differential(moved), ring="Q")
    assert a["ranks"] == b["ranks"]


def test_euler_characteristic_requirements(chain_datum):
    datum, _ = make_augmentation_datum()
    with pytest.raises(ValueError):
        euler_characteristic(assemble_differential(datum))  # l = 2
    sub = pair_subcomplex(chain_datum, 0, 1)  # modulus 0
    with pytest.raises(RequiresModTwoGrading):
        euler_characteristic(assemble_differential(sub))


def test_euler_characteristic_value():
    datum, _ = make_augmentation_datum()
    sub = pair_subcomplex(datum, 0, 1)
    chi = euler_characteristic(assemble_differential(sub))
    # generators x (mu 0), y, z (mu 1): (-1)^1 + (-1)^2 + (-1)^2
    assert chi == 1


def test_pair_subcomplex_is_full_subcomplex(chain_datum):
    sub = pair_subcomplex(chain_datum, 0, 1)
    assert sub.l == 1
    assert {g.id for g in sub.generators} == {"g01", "a", "ap"}
    full = {(e.inputs, e.output, e.coeff) for e in chain_datum.tensors}
    assert sub.tensors
    for e in sub.tensors:
        assert e.arity == 1
        assert (e.inputs, e.output, e.coeff) in full
    assert sub.metadata["restricted_to"] == [0, 1]
    with pytest.raises(ValueError):
        pair_subcomplex(chain_datum, 2, 1)


# ---------------------------------------------------------------------------
# interchange


def test_datum_json_round_trip(chain_datum):
    blob = datum_to_json(chain_datum)
    back = datum_from_json(blob)
    assert back == chain_datum


def _int_field_datum():
    return {"labels": 2, "modulus": 2, "generators": [
        {"id": "a", "i": 0, "j": 1, "mu": 0},
        {"id": "b", "i": 1, "j": 2, "mu": 0},
        {"id": "c", "i": 0, "j": 2, "mu": 0}],
        "tensors": [{"q": 2, "inputs": ["a", "b"], "output": "c",
                     "coeff": "t^1"}]}


INT_FIELDS = [((), "labels"), ((), "modulus"), (("generators", 1), "i"),
              (("generators", 1), "j"), (("generators", 1), "mu"),
              (("tensors", 0), "q")]


def _set_field(obj, where, key, value):
    node = obj
    for step in where:
        node = node[step]
    node[key] = value


@pytest.mark.parametrize("where,key", INT_FIELDS)
@pytest.mark.parametrize("value", [True, 0.5, 2.0, "1"])
def test_datum_integer_fields_reject_other_values(where, key, value):
    # a half degree or a boolean is not read as a number; 2.0 is not
    # taken for 2
    obj = _int_field_datum()
    assert check_a_infinity(datum_from_json(obj))["square_zero"]
    _set_field(obj, where, key, value)
    with pytest.raises(ValueError,
                       match=f"^{key} must be an integer, got {value!r}$"):
        datum_from_json(obj)


def test_map_and_augmentation_loaders():
    m = map_from_json({"H": [{"inputs": ["a"], "output": "b",
                              "coeff": "t^1"}],
                       "K": [{"inputs": ["b"], "output": "a",
                              "coeff": "-t^0"}]})
    assert m.h[0].output == "b" and m.k[0].coeff == S("-t^0")
    a = augmentation_from_json({"values": [{"id": "y", "value": "2t^3"}]})
    assert a.values["y"] == S("2t^3")


def test_entry_validation():
    gens = (Generator("x", 0, 1, 0), Generator("y", 0, 1, 1))
    with pytest.raises(ValueError):
        assemble_differential(AInftyDatum(
            l=1, generators=gens,
            tensors=(T(["x"], "nope"),), modulus=0))
    with pytest.raises(ValueError):
        assemble_differential(AInftyDatum(
            l=1, generators=gens,
            tensors=(T(["x"], "y", NovikovSeries.zero("Z")),), modulus=0))
    with pytest.raises(DegreeViolation):
        assemble_differential(AInftyDatum(
            l=1, generators=gens,
            tensors=(T(["y"], "x"),), modulus=0))
    # x ends at label 1 and y starts at label 0
    with pytest.raises(ValueError, match=r"structure tensor inputs "
                                         r"\('x', 'y'\) are not composable"):
        assemble_differential(AInftyDatum(
            l=1, generators=gens,
            tensors=(T(["x", "y"], "x"),), modulus=0))


# ---------------------------------------------------------------------------
# input validation at the boundary


def test_compose_validates_both_inputs():
    # a continuation entry must keep the index (shift 1 - w = 0 at arity
    # one); x -> y raises it by one
    gens = (Generator("x", 0, 1, 0), Generator("y", 0, 1, 1))
    c = assemble_differential(AInftyDatum(l=1, generators=gens, tensors=()))
    ident = identity_continuation(c)
    bad = MapDatum(h=(T(["x"], "y"),))
    with pytest.raises(DegreeViolation, match="continuation tensor"):
        compose_continuations(c, c, c, ident, bad)
    with pytest.raises(DegreeViolation, match="continuation tensor"):
        compose_continuations(c, c, c, bad, ident)
    assert compose_continuations(c, c, c, ident, ident).h == ident.h


def test_homotopy_validates_both_continuations():
    # the frames h0 and h1 of a homotopy are continuations (shift 1 - w),
    # so x -> y is rejected on either side, even when k is empty
    gens = (Generator("x", 0, 1, 0), Generator("y", 0, 1, 1))
    c = assemble_differential(AInftyDatum(l=1, generators=gens, tensors=()))
    ident = identity_continuation(c)
    bad = MapDatum(h=(T(["x"], "y"),))
    with pytest.raises(DegreeViolation, match="continuation tensor"):
        assemble_homotopy(c, c, bad, ident, MapDatum())
    with pytest.raises(DegreeViolation, match="continuation tensor"):
        assemble_homotopy(c, c, ident, bad, MapDatum())
    assert assemble_homotopy(c, c, ident, ident, MapDatum()) == {}


def test_each_frame_is_validated_once_per_request(chain_complex, monkeypatch):
    # check_homotopy validates h0, h1 and k once each, in that order, and
    # homotopic_map validates h0 and k once, not once per arity
    seen = []
    real = ainfty._validate_entries
    monkeypatch.setattr(ainfty, "_validate_entries",
                        lambda entries, *rest: seen.append((rest[-1], entries))
                        or real(entries, *rest))
    c = chain_complex
    h0, k = identity_continuation(c), MapDatum()
    assert max(len(w) for w in c.words) > 1
    h1 = homotopic_map(c, c, h0, k)
    assert seen == [("continuation tensor", h0.h), ("homotopy tensor", k.k)]
    seen.clear()
    assert check_homotopy(c, c, h0, h1, k)["homotopy"]
    assert seen == [("continuation tensor", h0.h),
                    ("continuation tensor", h1.h), ("homotopy tensor", k.k)]


def test_tensor_weights_must_lie_in_the_datum_ring():
    # built through the API: Q weights on a datum over Z used to assemble,
    # then die inside the elimination with "mixed coefficient rings"
    gens = (Generator("x1", 0, 1, 0), Generator("x2", 0, 1, 0),
            Generator("y1", 0, 1, 1), Generator("y2", 0, 1, 1))
    q_one = NovikovSeries.one(ring="Q")
    tensors = (T(["x1"], "y1", q_one), T(["x2"], "y1", q_one),
               T(["x2"], "y2", q_one))
    datum = AInftyDatum(l=1, generators=gens, tensors=tensors, ring="Z")
    with pytest.raises(ValueError, match=r"\('x1',\)->y1 .* over Q"):
        assemble_differential(datum)
    over_q = AInftyDatum(l=1, generators=gens, tensors=tensors, ring="Q")
    assert cohomology(assemble_differential(over_q), ring="Q")[
        "total_rank"] == 0
    c = assemble_differential(AInftyDatum(l=1, generators=gens, tensors=()))
    with pytest.raises(ValueError, match="continuation tensor"):
        assemble_continuation(c, c, MapDatum(h=(T(["x1"], "x1", q_one),)))
    with pytest.raises(ValueError, match="homotopy tensor"):
        assemble_homotopy(c, c, identity_continuation(c),
                          identity_continuation(c),
                          MapDatum(k=(T(["y1"], "x1", q_one),)))


# ---------------------------------------------------------------------------
# the block-expansion kernel against the composition-by-composition
# expansion it replaced


def _ref_compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _ref_compositions(total - first):
            yield (first,) + rest


def _ref_apply_blocks(word, parts, block_entries, block_parities, gens):
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p)
    koszul = 0
    for j, parity in enumerate(block_parities):
        if parity % 2:
            koszul += sum(gens[g].mu for g in word[:offsets[j]])
    for combo in itertools.product(*block_entries):
        out = tuple(e.output for e in combo)
        coeff = combo[0].coeff
        for e in combo[1:]:
            coeff = coeff * e.coeff
        yield out, koszul % 2, coeff


def _ref_accumulate(row, key, value):
    s = row.get(key, 0) + value
    if s:
        row[key] = s
    elif key in row:
        del row[key]


def _ref_continuation(c_prime, h):
    gens_p = _gen_index(c_prime.datum)
    hindex = {}
    for e in h.h:
        hindex.setdefault(e.inputs, []).append(e)
    out = {}
    for word in c_prime.words:
        row = {}
        for parts in _ref_compositions(len(word)):
            r = len(parts)
            offsets = [0]
            for p in parts:
                offsets.append(offsets[-1] + p)
            blocks = [hindex.get(word[offsets[j]:offsets[j + 1]], ())
                      for j in range(r)]
            if any(not b for b in blocks):
                continue
            base = sum((r - j) * (parts[j - 1] - 1) for j in range(1, r + 1))
            parities = [p + 1 for p in parts]
            for oword, koszul, coeff in _ref_apply_blocks(
                    word, parts, blocks, parities, gens_p):
                exp = (base + koszul) % 2
                _ref_accumulate(row, oword, coeff.scale(-1 if exp else 1))
        if row:
            out[word] = row
    return out


def _ref_homotopy(c_prime, h0, h1, k):
    gens_p = _gen_index(c_prime.datum)
    index = {}
    for name, entries in (("h0", h0.h), ("h1", h1.h), ("k", k.k)):
        for e in entries:
            index.setdefault((name, e.inputs), []).append(e)
    out = {}
    for word in c_prime.words:
        row = {}
        for parts in _ref_compositions(len(word)):
            r = len(parts)
            offsets = [0]
            for p in parts:
                offsets.append(offsets[-1] + p)
            for i in range(1, r + 1):
                blocks = []
                for j in range(1, r + 1):
                    name = "h0" if j < i else "k" if j == i else "h1"
                    blocks.append(index.get(
                        (name, word[offsets[j - 1]:offsets[j]]), ()))
                if any(not b for b in blocks):
                    continue
                base = r + sum((r - j) * (parts[j - 1] - 1)
                               for j in range(1, r + 1))
                base += sum(parts[j - 1] - 1 for j in range(1, i))
                parities = [(p + 1 if j + 1 != i else p)
                            for j, p in enumerate(parts)]
                for oword, koszul, coeff in _ref_apply_blocks(
                        word, parts, blocks, parities, gens_p):
                    exp = (base + koszul) % 2
                    _ref_accumulate(row, oword, coeff.scale(-1 if exp else 1))
        if row:
            out[word] = row
    return out


def _ref_compose(c2, h01, h12):
    gens2 = _gen_index(c2.datum)
    h01index, h12index = {}, {}
    for e in h01.h:
        h01index.setdefault(e.inputs, []).append(e)
    for e in h12.h:
        h12index.setdefault(e.inputs, []).append(e)
    acc = {}
    for word in c2.words:
        for parts in _ref_compositions(len(word)):
            r = len(parts)
            offsets = [0]
            for p in parts:
                offsets.append(offsets[-1] + p)
            blocks = [h12index.get(word[offsets[j]:offsets[j + 1]], ())
                      for j in range(r)]
            if any(not b for b in blocks):
                continue
            base = sum((r - t) * (parts[t - 1] - 1) for t in range(1, r + 1))
            parities = [p + 1 for p in parts]
            for mid_word, koszul, coeff in _ref_apply_blocks(
                    word, parts, blocks, parities, gens2):
                for outer in h01index.get(mid_word, ()):
                    exp = (base + koszul) % 2
                    _ref_accumulate(acc, (word, outer.output),
                                    (coeff * outer.coeff).scale(-1 if exp else 1))
    return tuple(TensorEntry(w, g, c) for (w, g), c in sorted(acc.items()))


def _assert_kernel_matches(c0, c1, c2, h01, h12, h0, h1, k):
    """Continuation, homotopy and composite of the kernel equal the
    reference expansion and the block walk on the given data."""
    fmat = assemble_continuation(c0, c1, h01)
    assert fmat == _ref_continuation(c1, h01)
    assert fmat == ainfty_reference.assemble_continuation(c0, c1, h01)
    assert assemble_continuation(c1, c2, h12) == _ref_continuation(c2, h12)
    kk = assemble_homotopy(c0, c1, h0, h1, k)
    assert kk == _ref_homotopy(c1, h0, h1, k)
    assert kk == ainfty_reference.assemble_homotopy(c0, c1, h0, h1, k)
    composite = compose_continuations(c0, c1, c2, h01, h12)
    assert composite.h == _ref_compose(c2, h01, h12)
    return fmat, kk, composite


def test_kernel_matches_reference_on_fixtures(chain_datum, conjugated_datum,
                                              chain_units):
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    gens = chain_datum.generators
    h01 = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),
        T(["g12", "g23"], "z13", S("-t^1"))))
    h12 = MapDatum(h=tuple(T([g.id], g.id, ONE) for g in gens) + (
        T(["g12", "g23"], "z13", S("-2t^1")),
        T(["g01", "g12"], "z02", S("7t^0"))))
    k = MapDatum(k=(T(["ap"], "a"), T(["cp"], "c", S("5t^1")),
                    T(["g01", "g12"], "w02")))
    h0 = identity_continuation(c0)
    h1 = homotopic_map(c0, c0, h0, k)
    fmat, kk, composite = _assert_kernel_matches(
        c0, c1, c1, h01, h12, h0, h1, k)
    assert fmat and kk and composite.h
    assert assemble_homotopy(c0, c0, h0, h1, k) == _ref_homotopy(c0, h0, h1, k)


def _random_case(rng, l):
    """Three unit conjugates of one random datum and random map data.

    Generator a_ij has index f(j) - f(i) + 1, so every composable pair
    (a_ij, a_jk) may map to a_ik (continuation, shift -1) or to b_ik
    (homotopy, shift -2); b_ij has index one less than a_ij and the
    structure tensor b_ij -> a_ij."""
    f = [rng.randint(-2, 2) for _ in range(l + 1)]
    pairs = [(i, j) for i in range(l + 1) for j in range(i + 1, l + 1)]
    gens, tensors, has_b = [], [], set()
    for i, j in pairs:
        gens.append(Generator(f"a{i}{j}", i, j, f[j] - f[i] + 1))
        if rng.random() < 0.5:
            has_b.add((i, j))
            gens.append(Generator(f"b{i}{j}", i, j, f[j] - f[i]))
            tensors.append(T([f"b{i}{j}"], f"a{i}{j}", _random_unit(rng)))
    base = AInftyDatum(l=l, generators=tuple(gens), tensors=tuple(tensors))
    triples = [(i, j, k) for i, j in pairs for k in range(j + 1, l + 1)]

    def units():
        return {g.id: _random_unit(rng) for g in gens}

    def continuation():
        extra = tuple(T([f"a{i}{j}", f"a{j}{k}"], f"a{i}{k}", _random_unit(rng))
                      for i, j, k in rng.sample(triples, min(4, len(triples))))
        return MapDatum(h=diagonal_map(base, units()).h + extra)

    datums = [base] + [conjugate_datum(base, units()) for _ in range(2)]
    c0, c1, c2 = (assemble_differential(d) for d in datums)
    k = MapDatum(k=tuple(
        T([f"a{i}{j}"], f"b{i}{j}", _random_unit(rng))
        for i, j in sorted(has_b) if rng.random() < 0.5) + tuple(
        T([f"a{i}{j}", f"a{j}{k}"], f"b{i}{k}", _random_unit(rng))
        for i, j, k in triples if (i, k) in has_b and rng.random() < 0.3))
    h01, h12, h0, h1 = (continuation() for _ in range(4))
    return c0, c1, c2, h01, h12, h0, h1, k


def _random_unit(rng):
    sign = rng.choice(("", "-"))
    return S(f"{sign}{rng.choice(('', '2', '3'))}t^{rng.randint(-2, 3)}"
             f"/{rng.choice((1, 2, 3))}")


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_kernel_matches_reference_on_random_corpus(l):
    rng = random.Random(8100 + l)
    for _ in range(2):
        fmat, kk, composite = _assert_kernel_matches(*_random_case(rng, l))
        assert any(len(u) < len(w) for w, row in fmat.items() for u in row)
        assert any(e.arity > 1 for e in composite.h)


# ---------------------------------------------------------------------------
# the fan-in kernel against the block walk it replaced


def _walk_homotopy_exponent(arities, mus, p):
    """The block walk's increments summed over one homotopy term: with D
    the sum of (w-1) over the blocks already placed and m the index sum
    to a block's left, 1 + D + (w+1)m per continuation block and 1 + w*m
    for the homotopy block ``p``."""
    exp = d = pos = 0
    for j, w in enumerate(arities):
        m = sum(mus[:pos])
        exp += 1 + w * m if j == p else 1 + d + (w + 1) * m
        d += w - 1
        pos += w
    return exp % 2


def test_homotopy_parity_is_the_walk_sum():
    cases = 0
    for q in range(1, 7):
        for parts in _ref_compositions(q):
            for p in range(len(parts)):
                for mus in itertools.product((0, 1), repeat=q):
                    cases += 1
                    assert ainfty._homotopy_parity(parts, mus, p) == \
                        _walk_homotopy_exponent(parts, mus, p), (parts, p, mus)
    assert cases == sum(2 ** q * sum(len(c) for c in _ref_compositions(q))
                        for q in range(1, 7))


def _assert_fan_in_matches_walk(c, c_prime, h, h0, h1, k):
    """Continuation and homotopy matrices, chain-map and homotopy reports
    and the solved far end of a homotopy are those of the block walk;
    returns the reports and the solved map."""
    fmat = assemble_continuation(c, c_prime, h)
    walked = ainfty_reference.assemble_continuation(c, c_prime, h)
    assert fmat == walked
    assert assemble_homotopy(c, c_prime, h0, h1, k) == \
        ainfty_reference.assemble_homotopy(c, c_prime, h0, h1, k)
    chain = check_chain_map(c, c_prime, h)
    assert chain == ainfty_reference.check_chain_map(c, c_prime, h,
                                                     fmat=walked)
    solved = homotopic_map(c, c_prime, h0, k)
    assert solved == _ref_homotopic_map(c, c_prime, h0, k)
    homotopies = [check_homotopy(c, c_prime, h0, x, k) for x in (h1, solved)]
    assert homotopies == [ainfty_reference.check_homotopy(c, c_prime, h0, x, k)
                          for x in (h1, solved)]
    return chain, homotopies, solved


def test_fan_in_matches_the_walk_on_fixtures(chain_datum, conjugated_datum,
                                             chain_units):
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    diag = diagonal_map(chain_datum, chain_units)
    h = MapDatum(h=diag.h + (T(["g01", "g12"], "z02", S("t^4")),
                             T(["g12", "g23"], "z13", S("-t^1"))))
    passed = 0
    for entries in _CHAIN_HOMOTOPIES:
        k = MapDatum(k=entries)
        for c, cp, h0 in ((c0, c0, identity_continuation(c0)),
                          (c0, c1, diag)):
            _, homotopies, _ = _assert_fan_in_matches_walk(c, cp, h, h0, h0, k)
            passed += homotopies[1]["homotopy"]
    assert passed == 2 * len(_CHAIN_HOMOTOPIES)


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_fan_in_matches_the_walk_on_random_corpus(l):
    rng = random.Random(9700 + l)
    seen = {"not_chain_map": 0, "not_homotopy": 0, "cancelled": 0,
            "long_h1": 0}
    for _ in range(2):
        c0, c1, _, h01, _, h0, h1, k = _random_case(rng, l)
        datums = [c0.datum, c1.datum]
        cases = {
            "plain": (datums, h01, h0, h1, k),
            "mod2": ([replace(d, modulus=2) for d in datums], h01, h0, h1, k),
            "cutoff": ([replace(d, tensors=_cut_entries(d.tensors, rng))
                        for d in datums],
                       *(MapDatum(h=_cut_entries(x.h, rng))
                         for x in (h01, h0, h1)),
                       MapDatum(k=_cut_entries(k.k, rng))),
            "mutant": ([replace(d, tensors=_flip_one(d.tensors, rng))
                        for d in datums],
                       *(MapDatum(h=_flip_one(x.h, rng)) for x in (h01, h0, h1)),
                       MapDatum(k=_flip_one(k.k, rng))),
        }
        for ds, h, g0, g1, kk in cases.values():
            c, cp = (assemble_differential(d) for d in ds)
            chain, homotopies, solved = _assert_fan_in_matches_walk(
                c, cp, h, g0, g1, kk)
            seen["not_chain_map"] += not chain["chain_map"]
            seen["not_homotopy"] += not homotopies[0]["homotopy"]
            seen["cancelled"] += any(
                not x and x.cutoff is not None
                for row in assemble_continuation(c, cp, h).values()
                for x in row.values())
            seen["long_h1"] += any(e.arity > 1 for e in solved.h)
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the shared sign rules against the inline exponents they replaced


def _ref_split_parity(parts, mus):
    """The base + koszul exponent of ``_ref_continuation``."""
    r = len(parts)
    offsets = list(itertools.accumulate(parts, initial=0))
    base = sum((r - j) * (parts[j - 1] - 1) for j in range(1, r + 1))
    koszul = sum(sum(mus[:offsets[j]]) for j, p in enumerate(parts)
                 if (p + 1) % 2)
    return (base + koszul) % 2


def _ref_sign(coeff, exp):
    return coeff.scale(-1 if exp % 2 else 1)


def _ref_differential(d):
    """The differential with the inline exponent q*w + i*(w-1) + w*m."""
    gens = _gen_index(d)
    tindex = ainfty_reference._tensor_index(d.tensors)
    out = {}
    for word in enumerate_words(d):
        q = len(word)
        row = {}
        for w in range(1, q + 1):
            for i in range(1, q - w + 2):
                for entry in tindex.get(word[i - 1:i - 1 + w], ()):
                    exp = (q * w + i * (w - 1)
                           + w * _word_mu(word[:i - 1], gens))
                    _ref_accumulate(
                        row, word[:i - 1] + (entry.output,) + word[i - 1 + w:],
                        _ref_sign(entry.coeff, exp))
        if row:
            out[word] = row
    return out


def _ref_elementary_duals(a):
    """The one-output components of ``a``, their input words reversed."""
    eduals = {}
    for win, row in a.items():
        for wout, coeff in row.items():
            if len(wout) == 1:
                eduals.setdefault(wout[0], []).append((win[::-1], coeff))
    return eduals


def _ref_a3_report(c):
    """The A3 part of ``validate_axioms_A`` on dual words with the inline
    dual exponent (i-1)*w + (Q-i) + w*(index sum right of the slot)."""
    gens = _gen_index(c.datum)
    eduals = _ref_elementary_duals(c.differential)
    predicted = {}
    for word in c.words:
        dword = word[::-1]
        qq = len(dword)
        row = {}
        for i in range(1, qq + 1):
            suffix_mu = _word_mu(dword[i:], gens)
            for chunk, coeff in eduals.get(dword[i - 1], ()):
                w = len(chunk)
                exp = (i - 1) * w + (qq - i) + w * suffix_mu
                _ref_accumulate(row, dword[:i - 1] + chunk + dword[i:],
                                _ref_sign(coeff, exp))
        if row:
            predicted[dword] = row
    defect = _mat_add(ainfty._dual_transpose(c.differential), predicted,
                      sign=-1)
    a3 = _mat_is_zero(defect)
    return {"a3": a3, "a3_defects": [] if a3 else ainfty._entry_report(defect)}


def _ref_remh_predicted(c, c_prime, fmat):
    """The dual expansion of a continuation with the inline exponent
    sum_i i*(w_i-1) over the dual slots plus the graded factors."""
    gens_p = _gen_index(c_prime.datum)
    eduals = _ref_elementary_duals(fmat)
    predicted = {}
    for word in c.words:
        dword = word[::-1]
        qq = len(dword)
        row = {}
        for choices in itertools.product(*(eduals.get(g, ()) for g in dword)):
            chunks = [ch for ch, _ in choices]
            exp = sum(i * (len(chunks[i]) - 1) for i in range(1, qq))
            for i in range(qq):
                if (len(chunks[i]) + 1) % 2:
                    exp += sum(gens_p[g].mu
                               for ch in chunks[i + 1:] for g in ch)
            _ref_accumulate(row, tuple(g for ch in chunks for g in ch),
                            _ref_sign(reduce(mul, (cf for _, cf in choices)),
                                      exp))
        if row:
            predicted[dword] = row
    return predicted


def _ref_composition_sign_identity(q_max):
    """``composition_sign_identity`` with every partition exponent
    written out inline."""
    failures = []
    cases = 0
    for q in range(1, q_max + 1):
        for inner in (c for n in range(1, q + 1) for c in _compositions(q, n)):
            s = len(inner)
            for grouping in (c for n in range(1, s + 1)
                             for c in _compositions(s, n)):
                p = len(grouping)
                shapes = []
                pos = 0
                for size in grouping:
                    shapes.append(tuple(inner[pos:pos + size]))
                    pos += size
                glued = tuple(sum(shape) for shape in shapes)
                for mus in itertools.product((0, 1), repeat=q):
                    cases += 1
                    lhs = sum((s - t) * (inner[t - 1] - 1)
                              for t in range(1, s + 1))
                    off = 0
                    for kt in inner:
                        if (kt + 1) % 2:
                            lhs += sum(mus[:off])
                        off += kt
                    mid_mu = []
                    off = 0
                    for kt in inner:
                        mid_mu.append(sum(mus[off:off + kt]) + 1 - kt)
                        off += kt
                    lhs += sum((p - j) * (grouping[j - 1] - 1)
                               for j in range(1, p + 1))
                    off = 0
                    for rj in grouping:
                        if (rj + 1) % 2:
                            lhs += sum(mid_mu[:off])
                        off += rj
                    rhs = sum((p - j) * (glued[j - 1] - 1)
                              for j in range(1, p + 1))
                    off = 0
                    for wj in glued:
                        if (wj + 1) % 2:
                            rhs += sum(mus[:off])
                        off += wj
                    for shape in shapes:
                        rr = len(shape)
                        rhs += sum((rr - t) * (shape[t - 1] - 1)
                                   for t in range(1, rr + 1))
                    off = 0
                    for shape in shapes:
                        inner_off = 0
                        for kt in shape:
                            if (kt + 1) % 2:
                                rhs += sum(mus[off:off + inner_off])
                            inner_off += kt
                        off += sum(shape)
                    if lhs % 2 != rhs % 2:
                        failures.append({"inner": list(inner),
                                         "grouping": list(grouping),
                                         "mus": list(mus)})
    return {"q_max": q_max, "cases": cases, "holds": not failures,
            "failures": failures[:8]}


def _assert_sign_rules_match(c, c_prime, h):
    """Both differentials, their A3 reports and the dual expansion of the
    continuation ``h`` (c_prime -> c) equal the inline-exponent copies."""
    for cx in (c, c_prime):
        assert cx.differential == _ref_differential(cx.datum)
        rep = validate_axioms_A(cx)
        assert {k: rep[k] for k in ("a3", "a3_defects")} == _ref_a3_report(cx)
    fmat = assemble_continuation(c, c_prime, h)
    # the fan-in of the one-output components, read on dual words
    components = ainfty._one_output(fmat)
    predicted = {}
    terms = ainfty._fan_in(components, c_prime._gens)
    for word in c.words:
        for chain, coeff in terms(word):
            _ref_accumulate(predicted.setdefault(word[::-1], {}), chain[::-1],
                            coeff)
    predicted = {w: row for w, row in predicted.items() if row}
    assert predicted == _ref_remh_predicted(c, c_prime, fmat)
    # a dual chunk longer than one generator is spliced in somewhere
    assert any(len(u) > len(w) for w, row in predicted.items() for u in row)


def test_split_parity_matches_reference():
    for q in range(1, 7):
        for parts in _ref_compositions(q):
            for mus in itertools.product((0, 1), repeat=q):
                assert ainfty._split_parity(parts, mus) == \
                    _ref_split_parity(parts, mus), (parts, mus)


def test_sign_rules_match_inline_copies_on_fixtures(chain_datum,
                                                    conjugated_datum,
                                                    chain_units):
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    h01 = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),
        T(["g12", "g23"], "z13", S("-t^1"))))
    _assert_sign_rules_match(c0, c1, h01)
    datum, _ = make_augmentation_datum()
    c = assemble_differential(datum)
    assert c.differential == _ref_differential(datum)
    # a differential with one flipped product entry breaks A3, and both
    # reports name the same defects
    (win, wout), = [(w, u) for w, row in c0.differential.items()
                    for u in row if w == ("g01", "g12")]
    bad = {w: dict(row) for w, row in c0.differential.items()}
    bad[win][wout] = bad[win][wout].scale(-1)
    broken = FloerComplex(chain_datum, c0.words, bad)
    rep = validate_axioms_A(broken)
    assert not rep["a3"] and rep["a3_defects"]
    assert {k: rep[k] for k in ("a3", "a3_defects")} == _ref_a3_report(broken)


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_sign_rules_match_inline_copies_on_random_corpus(l):
    rng = random.Random(8100 + l)
    for _ in range(2):
        c0, c1, c2, h01, h12, _, _, _ = _random_case(rng, l)
        _assert_sign_rules_match(c0, c1, h01)
        _assert_sign_rules_match(c1, c2, h12)


def test_composition_sign_identity_matches_inline_copy():
    for q in range(1, 6):
        assert composition_sign_identity(q) == \
            _ref_composition_sign_identity(q)


# ---------------------------------------------------------------------------
# one-output components on the primal basis against the dual-word reference


def _flip_entry(a, rng, pick=lambda w, u: True):
    """A copy of the matrix ``a`` with one nonzero entry, chosen by ``rng``
    among those ``pick`` accepts, negated."""
    w, u = rng.choice([(w, u) for w, row in sorted(a.items())
                       for u in sorted(row) if row[u] and pick(w, u)])
    out = {x: dict(row) for x, row in a.items()}
    out[w][u] = out[w][u].scale(-1)
    return out


def _odd_first_block(real):
    """``_split_parity`` with a first block of odd arity flipped: one block
    of arity 1 is signed by -1, so ``ainfty._one_block`` fails on the
    entries of a diagonal map."""
    return lambda arities, mus: (real(arities, mus) + arities[0]) % 2


def _assert_one_output_checks_match(c0, c1, c2, h01, h12, rng, monkeypatch):
    """A axioms, chain-map reports and the composite equal the reference,
    also on a hand-broken differential and under a sign rule that flips a
    first block of odd arity; returns the reports and the composite."""
    reports = []
    for c in (c0, c1, c2):
        reports.append(validate_axioms_A(c))
        assert reports[-1] == ainfty_reference.validate_axioms_A(c)
    broken = FloerComplex(c0.datum, c0.words,
                          _flip_entry(c0.differential, rng))
    reports.append(validate_axioms_A(broken))
    assert not reports[-1]["a3"]
    assert reports[-1] == ainfty_reference.validate_axioms_A(broken)
    for c, cp, h in ((c0, c1, h01), (c1, c2, h12)):
        reports.append(check_chain_map(c, cp, h))
        assert reports[-1] == ainfty_reference.check_chain_map(c, cp, h)
    with monkeypatch.context() as m:
        # the continuation's one-output components are no longer its
        # entries: the certificate fails, and F no longer re-expands from
        # them, as the dual-word reference and the expanding check find
        m.setattr(ainfty, "_split_parity",
                  _odd_first_block(ainfty._split_parity))
        assert not ainfty._one_block(h01.h, c1._gens)
        reports.append(check_chain_map(c0, c1, h01))
        assert not reports[-1]["dual_expansion"]
        assert reports[-1] == ainfty_reference.check_chain_map(c0, c1, h01)
        assert reports[-1] == ainfty_reference.expanded_check_chain_map(
            c0, c1, h01)
    composite = compose_continuations(c0, c1, c2, h01, h12)
    assert composite == ainfty_reference.compose_continuations(
        c0, c1, c2, h01, h12)
    return reports, composite


def test_one_output_checks_match_reference_on_fixtures(
        chain_datum, conjugated_datum, chain_units, monkeypatch):
    c0 = assemble_differential(chain_datum)
    c1 = assemble_differential(conjugated_datum)
    h01 = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),
        T(["g12", "g23"], "z13", S("-t^1"))))
    h12 = MapDatum(h=tuple(T([g.id], g.id, ONE)
                           for g in chain_datum.generators) + (
        T(["g12", "g23"], "z13", S("-2t^1")),
        T(["g01", "g12"], "z02", S("7t^0"))))
    reports, composite = _assert_one_output_checks_match(
        c0, c1, c1, h01, h12, random.Random(5), monkeypatch)
    assert all(r["ok"] for r in reports[:3])
    assert any(e.arity > 1 for e in composite.h)
    c = assemble_differential(make_augmentation_datum()[0])
    assert validate_axioms_A(c) == ainfty_reference.validate_axioms_A(c)
    # the hand-broken complex of the inline-copy test
    bad = {w: dict(row) for w, row in c0.differential.items()}
    (wout,) = bad[("g01", "g12")]
    bad[("g01", "g12")][wout] = bad[("g01", "g12")][wout].scale(-1)
    broken = FloerComplex(chain_datum, c0.words, bad)
    assert validate_axioms_A(broken) == \
        ainfty_reference.validate_axioms_A(broken)


def _cut_entries(entries, rng):
    """``entries`` each known below its valuation plus one only, plus the
    negative of one of them: a pair that cancels to a zero series with a
    cutoff."""
    out = tuple(TensorEntry(e.inputs, e.output,
                            e.coeff.restrict(e.coeff.valuation() + 1))
                for e in entries)
    if not out:
        return out
    e = rng.choice(out)
    return out + (TensorEntry(e.inputs, e.output, e.coeff.scale(-1)),)


def _flip_one(entries, rng):
    """``entries`` with the weight of one of them negated."""
    if not entries:
        return entries
    i = rng.randrange(len(entries))
    e = entries[i]
    return (entries[:i] + (TensorEntry(e.inputs, e.output, e.coeff.scale(-1)),)
            + entries[i + 1:])


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_one_output_checks_match_reference_on_random_corpus(l, monkeypatch):
    rng = random.Random(9100 + l)
    seen = {"cancelled": 0, "not_chain_map": 0}
    for _ in range(2):
        c0, c1, c2, h01, h12, _, _, _ = _random_case(rng, l)
        datums = [c.datum for c in (c0, c1, c2)]
        cases = {
            "plain": (datums, h01, h12),
            "mod2": ([replace(d, modulus=2) for d in datums], h01, h12),
            "cutoff": ([replace(d, tensors=_cut_entries(d.tensors, rng))
                        for d in datums],
                       MapDatum(h=_cut_entries(h01.h, rng)),
                       MapDatum(h=_cut_entries(h12.h, rng))),
            "mutant": ([replace(d, tensors=_flip_one(d.tensors, rng))
                        for d in datums],
                       MapDatum(h=_flip_one(h01.h, rng)),
                       MapDatum(h=_flip_one(h12.h, rng))),
        }
        for kind, (ds, g01, g12) in cases.items():
            cs = [assemble_differential(d) for d in ds]
            reports, _ = _assert_one_output_checks_match(
                *cs, g01, g12, rng, monkeypatch)
            seen["not_chain_map"] += kind == "mutant" and not (
                reports[4]["chain_map"] and reports[5]["chain_map"])
            fmat = assemble_continuation(cs[0], cs[1], g01)
            seen["cancelled"] += any(not x and x.cutoff is not None
                                     for row in fmat.values()
                                     for x in row.values())
    assert seen["cancelled"] and seen["not_chain_map"]


def test_dual_expansion_groups_products_as_the_expansion():
    # with x known below t^1 only, (x * t^3) * t^-3 and (t^-3 * t^3) * x
    # are both t^0 known below t^1: a product of truncated series does not
    # depend on its grouping, so the dual expansion reads true whether its
    # products run left to right, as the expansion's do, or right to left,
    # as the reference's do
    gens = (Generator("x", 0, 1, 0), Generator("y", 1, 2, 0),
            Generator("z", 2, 3, 0))
    c = assemble_differential(AInftyDatum(l=3, generators=gens, tensors=()))
    h = MapDatum(h=(T(["x"], "x", ONE.restrict(1)), T(["y"], "y", S("t^3")),
                    T(["z"], "z", S("t^-3"))))
    report = check_chain_map(c, c, h)
    assert report == {"chain_map": True, "dual_expansion": True,
                      "defects": []}
    assert ainfty_reference.check_chain_map(c, c, h) == report


# ---------------------------------------------------------------------------
# fraction-free elimination against the field elimination it replaced


class _RefSeriesFraction:
    """Quotients of Novikov series, enough for exact elimination."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisionError("series fraction with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def of(cls, s):
        return cls(s, NovikovSeries.one(ring=s.ring))

    def is_zero(self):
        return not self.num

    def val(self):
        return self.num.valuation() - self.den.valuation()

    def __sub__(self, other):
        return _RefSeriesFraction(self.num * other.den - other.num * self.den,
                                  self.den * other.den)

    def __mul__(self, other):
        return _RefSeriesFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        return _RefSeriesFraction(self.num * other.den, self.den * other.num)


def _ref_leading_coeff(s):
    return s.terms[0][1] if s.terms else 0


def _ref_rank(rows, integral):
    """Rank by elimination, picking the lowest-valuation pivot first."""
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    row0 = 0
    used = [False] * ncols
    while row0 < len(rows):
        best = None
        for r in range(row0, len(rows)):
            for cidx in range(ncols):
                if used[cidx]:
                    continue
                e = rows[r][cidx]
                if e.is_zero():
                    continue
                key = (e.val(), r, cidx)
                if best is None or key < best[0]:
                    best = (key, r, cidx)
        if best is None:
            break
        _, pr, pc = best
        pivot = rows[pr][pc]
        if integral:
            lead = _ref_leading_coeff(pivot.num)
            lead_d = _ref_leading_coeff(pivot.den)
            unit = lead == lead_d or lead == -lead_d
            if not unit:
                raise NonUnitPivot(
                    "pivot with non-invertible leading coefficient; "
                    "run the elimination over rational coefficients")
        rows[row0], rows[pr] = rows[pr], rows[row0]
        for r in range(row0 + 1, len(rows)):
            e = rows[r][pc]
            if e.is_zero():
                continue
            factor = e / pivot
            for cidx in range(ncols):
                if used[cidx] or cidx == pc:
                    continue
                rows[r][cidx] = rows[r][cidx] - factor * rows[row0][cidx]
            rows[r][pc] = _RefSeriesFraction.of(
                NovikovSeries.zero(ring=pivot.num.ring))
        used[pc] = True
        rank += 1
        row0 += 1
    return rank


def _ref_cohomology(c, ring):
    """The field elimination ``cohomology`` ran before Bareiss."""
    integral = ring == "Z"
    gens = c._gens
    n = c.modulus
    classes = {}
    for word in c.words:
        g = _grade(_word_mu(word, gens) + len(word) - 1, n)
        classes.setdefault(g, []).append(word)
    for ws in classes.values():
        ws.sort(key=lambda w: (len(w), w))
    zero = NovikovSeries.zero(ring=c.datum.ring)

    def boundary_rank(g):
        src = classes.get(g, [])
        dst = classes.get(_grade(g + 1, n), [])
        if not src or not dst:
            return 0
        col = {w: idx for idx, w in enumerate(dst)}
        rows = []
        for w in src:
            row = [_RefSeriesFraction.of(zero) for _ in dst]
            for u, coeff in c.differential.get(w, {}).items():
                if u in col:
                    row[col[u]] = _RefSeriesFraction.of(coeff)
            rows.append(row)
        return _ref_rank(rows, integral)

    rank_cache = {g: boundary_rank(g) for g in sorted(classes)}
    ranks = {g: len(classes[g]) - rank_cache[g]
             - rank_cache.get(_grade(g - 1, n), 0) for g in sorted(classes)}
    return {
        "ring": ring,
        "modulus": n,
        "ranks": {str(g): r for g, r in sorted(ranks.items())},
        "total_rank": sum(ranks.values()),
        "degrees": sorted(g for g, r in ranks.items() if r > 0),
    }


def _assert_cohomology_matches(c):
    """Equal ``cohomology`` dicts, or the same exception, in both modes;
    returns the outcomes (a dict or ``NonUnitPivot``) by mode."""
    outcomes = {}
    for ring in ("Z", "Q"):
        try:
            want = _ref_cohomology(c, ring)
        except NonUnitPivot:
            with pytest.raises(NonUnitPivot):
                cohomology(c, ring=ring)
            outcomes[ring] = NonUnitPivot
        else:
            assert cohomology(c, ring=ring) == want, ring
            outcomes[ring] = want
    return outcomes


def _morse_fixture():
    """Fractional actions, a count-2 strand pair and one product."""
    pts = (CriticalPoint("p", 2, Fraction(7, 2)),
           CriticalPoint("q", 1, Fraction(1)),
           CriticalPoint("r", 1, Fraction(5, 3)),
           CriticalPoint("s", 0, Fraction(0)))
    flows = (Flow("p", "q", 2), Flow("p", "r", -2),
             Flow("q", "s", 1), Flow("r", "s", 1))
    triples = (Triple("s", "s", "s", 1, Fraction(1, 2)),)
    return build_floer_complex(MorseDatum(2, pts, flows, triples))


def test_cohomology_matches_reference_on_fixtures(chain_datum,
                                                  conjugated_datum):
    aug_datum, _ = make_augmentation_datum()
    datums = [chain_datum, conjugated_datum, aug_datum, _morse_fixture()]
    datums += [pair_subcomplex(d, 0, 1) for d in datums]
    for n in (2, 3, 4, 5):
        datums += [sphere_fixture(n), pair_subcomplex(sphere_fixture(n), 0, 1)]
    outcomes = [_assert_cohomology_matches(assemble_differential(d))
                for d in datums]
    assert {o["Z"] is NonUnitPivot for o in outcomes} == {True, False}


_CORPUS_EXPONENTS = [Fraction(e) for e in
                     ("-2", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2", "5/3")]


def _corpus_weight(rng, ring, terms=None):
    coeffs = [1, 1, 1, 2, 3] + ([Fraction(1, 2), Fraction(2, 3)]
                                if ring == "Q" else [])
    exps = rng.sample(_CORPUS_EXPONENTS,
                      terms or (2 if rng.random() < 0.15 else 1))
    return NovikovSeries([(e, rng.choice((1, -1)) * rng.choice(coeffs))
                          for e in exps], ring=ring)


def _corpus_complex(rng):
    """Random x -> y (-> z) blocks of at most 6 x 6: Z or Q weights,
    negative and mixed-denominator exponents, leading coefficients 2 and
    3, zero rows and columns, and rows that are monomial combinations of
    earlier rows.  At most three rows per block are drawn freely: the
    replaced elimination never reduces its fractions and takes seconds
    per block beyond that depth."""
    ring = rng.choice(("Z", "Q"))
    sizes = [rng.randint(1, 6) for _ in range(rng.choice((2, 3)))]
    gens = tuple(Generator(f"{'xyz'[mu]}{i}", 0, 1, mu)
                 for mu, size in enumerate(sizes) for i in range(size))
    tensors = []
    for mu in range(len(sizes) - 1):
        density = rng.choice((0.3, 0.6, 1.0))
        free = rng.randint(1, 3)
        rows = []
        for i in range(sizes[mu]):
            if free and rng.random() < 0.8:
                free -= 1
                row = {j: _corpus_weight(rng, ring)
                       for j in range(sizes[mu + 1]) if rng.random() < density}
            elif len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                u, v = (_corpus_weight(rng, ring, 1) for _ in "uv")
                row = {j: a.get(j, 0) * u + b.get(j, 0) * v
                       for j in set(a) | set(b)}
            else:
                row = {}
            row = {j: s for j, s in row.items() if s}
            rows.append(row)
            tensors += [T([f"{'xyz'[mu]}{i}"], f"{'xyz'[mu + 1]}{j}", s)
                        for j, s in sorted(row.items())]
    return assemble_differential(AInftyDatum(
        l=1, generators=gens, tensors=tuple(tensors), ring=ring))


def test_cohomology_matches_reference_on_random_corpus():
    rng = random.Random(5150)
    seen = set()
    for _ in range(200):
        c = _corpus_complex(rng)
        for ring, out in _assert_cohomology_matches(c).items():
            if out is NonUnitPivot:
                seen.add((c.datum.ring, ring, "non-unit"))
            else:
                full = all(r == 0 for r in out["ranks"].values())
                seen.add((c.datum.ring, ring, "acyclic" if full else "ranks"))
    assert seen >= {(dr, ring, "ranks") for dr in "ZQ" for ring in "ZQ"}
    assert seen >= {("Z", "Z", "non-unit"), ("Q", "Z", "non-unit")}


def test_non_unit_pivot_says_where(chain_complex):
    with pytest.raises(NonUnitPivot) as err:
        cohomology(chain_complex, ring="Z")
    assert str(err.value) == (
        "pivot with non-invertible leading coefficient; run the elimination "
        "over rational coefficients (grading class 0, step 2, source word "
        "('c',), target word ('cp',), lead(p_2) = 2, lead(p_1) = -1)")


def test_accumulated_cutoff_does_not_depend_on_summation_order():
    # an entry's cutoff is the minimum over every term summed into it; a
    # cancelled sum keeps its cutoff as a zero series, which reads as zero
    a = S("t^1 + t^4").restrict(3)
    b = S("2t^2 + t^5")
    sums = set()
    for order in itertools.permutations([a, -a, b]):
        row = {}
        for term in order:
            ainfty._acc(row, "x", term)
        sums.add(row["x"])
    assert sums == {b.restrict(3)}
    row = {}
    ainfty._acc(row, "x", a)
    ainfty._acc(row, "x", -a)
    assert row == {"x": S("0").restrict(3)}
    assert _mat_is_zero({"w": row})
    assert ainfty._entry_report({"w": row}) == []


def test_cohomology_rejects_cutoffs_before_elimination(chain_datum):
    # the cutoff entry cancels out of the differential but leaves a zero
    # series with its cutoff wherever b becomes g12, and the datum's
    # non-unit strand would stop a Z elimination
    cut = S("t^1").restrict(5)
    tensors = chain_datum.tensors + (T(["b"], "g12", cut),
                                     T(["b"], "g12", S("-t^1")))
    datum = AInftyDatum(l=3, generators=chain_datum.generators,
                        tensors=tensors)
    c = assemble_differential(datum)
    expected = {w: dict(cols) for w, cols
                in assemble_differential(chain_datum).differential.items()}
    for w in c.words:
        if "b" in w:
            i = w.index("b")
            expected.setdefault(w, {})[w[:i] + ("g12",) + w[i + 1:]] = \
                S("0").restrict(5)
    assert c.differential == expected
    for ring in ("Z", "Q"):
        with pytest.raises(ValueError, match=r"\('b',\)->g12 .*cutoff 5"):
            cohomology(c, ring=ring)


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_cohomology_rejects_cutoffs_in_a_hand_built_differential(ring):
    # no datum entry carries the cutoff, so only the differential shows it
    gens = (Generator("x", 0, 1, 0), Generator("y", 0, 1, 1))
    datum = AInftyDatum(l=1, generators=gens, tensors=(), ring=ring)
    cut = parse_series("t^1", ring=ring).restrict(3)
    c = FloerComplex(datum, (("x",), ("y",)), {("x",): {("y",): cut}})
    with pytest.raises(ValueError,
                       match=r"^differential entry \('x',\)->\('y',\) has "
                             r"cutoff 3; cohomology needs exact series$"):
        cohomology(c, ring=ring)


def test_exact_division_rejects_remainders():
    # (1 + s)(1 - s + 2s^2) = 1 + s^2 + 2s^3; a Bareiss step never
    # leaves a remainder on exact input, so one is a named error
    assert _exact_div({0: 1, 2: 1, 3: 2}, {0: 1, 1: 1}) == {0: 1, 1: -1, 2: 2}
    assert _exact_div({-1: 6, 2: -4}, {-3: 2}) == {2: 3, 5: -2}
    for a, b in (({0: 1, 1: 1}, {0: 1, 2: 1}), ({0: 3}, {0: 2}),
                 ({0: 2, 1: 3}, {0: 2, 1: 2})):
        with pytest.raises(InexactDivision):
            _exact_div(a, b)


def _two_term_block(rng, nrows, ncols):
    return [{j: NovikovSeries([(e, rng.choice((1, -1)) * Fraction(
                 rng.randint(1, 9), rng.randint(1, 3)))
                 for e in rng.sample((0, 1, 2), 2)], ring="Q")
             for j in range(ncols)} for _ in range(nrows)]


def _block_complex(rows, ncols):
    gens = tuple(Generator(f"x{i}", 0, 1, 0) for i in range(len(rows))) + \
        tuple(Generator(f"y{j}", 0, 1, 1) for j in range(ncols))
    tensors = tuple(T([f"x{i}"], f"y{j}", s) for i, row in enumerate(rows)
                    for j, s in row.items() if s)
    return assemble_differential(AInftyDatum(
        l=1, generators=gens, tensors=tensors, ring="Q"))


def _rank_at(rows, ncols, t):
    """Rank of the block evaluated at t; never above the rank over the
    series ring, since evaluating is a ring map."""
    m = [[sum((c * t ** e for e, c in row[j].terms), Fraction(0))
          if j in row else Fraction(0) for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_dense_twelve_block_reaches_full_rank_fast():
    rows = _two_term_block(random.Random(12), 12, 12)
    assert _rank_at(rows, 12, Fraction(2)) == 12
    c = _block_complex(rows, 12)
    start = time.perf_counter()
    coh = cohomology(c, ring="Q")
    elapsed = time.perf_counter() - start
    assert coh["total_rank"] == 0
    assert elapsed < 1.0, elapsed


def test_rank_deficient_ten_by_eleven_block():
    rng = random.Random(1011)
    rows = _two_term_block(rng, 9, 11)
    u, v = S("2t^1 - t^0").to_ring("Q"), S("3t^2").to_ring("Q")
    rows.append({j: rows[2][j] * u - rows[5][j] * v for j in range(11)})
    assert _rank_at(rows, 11, Fraction(2)) == 9
    coh = cohomology(_block_complex(rows, 11), ring="Q")
    assert coh["ranks"] == {"0": 1, "1": 2}


# ---------------------------------------------------------------------------
# packed elimination against the dict kernel of tests/ainfty_reference.py


def _rank_outcome(rank, block):
    """``rank`` on a copy of ``block``: the rank, or the type and text of
    the exception it raised."""
    rows, *rest = block
    try:
        return rank([list(row) for row in rows], *rest)
    except (NonUnitPivot, InexactDivision) as err:
        return type(err).__name__, str(err)


def _cohomology_blocks(c, monkeypatch):
    """The arguments of every ``_rank`` call ``cohomology`` makes on ``c``
    in both modes, up to a NonUnitPivot."""
    blocks = []
    real = ainfty._rank

    def capture(rows, *rest):
        blocks.append(([list(row) for row in rows], *rest))
        return real(rows, *rest)

    with monkeypatch.context() as m:
        m.setattr(ainfty, "_rank", capture)
        for ring in ("Z", "Q"):
            try:
                cohomology(c, ring=ring)
            except NonUnitPivot:
                pass
    return blocks


def _laurent(rng, lo=-4, hi=4):
    """A random Laurent polynomial with up to three terms, zero included,
    leading coefficients 1, 2 and 3."""
    return {e: rng.choice((1, -1)) * rng.choice((1, 1, 2, 3))
            for e in rng.sample(range(lo, hi + 1), rng.randint(0, 3))}


def _random_block(rng):
    """Rows of Laurent polynomials for ``_rank``: zero rows and columns,
    rows that are combinations of earlier rows, and row scales, so that Z
    mode meets unit and non-unit pivots."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    dead = {j for j in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [{} for _ in range(ncols)]
        elif kind < 0.3 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            u, v = _laurent(rng, -2, 2), _laurent(rng, -2, 2)
            row = [_poly.add(_poly.mul(x, u), _poly.mul(y, v))
                   for x, y in zip(a, b)]
        else:
            row = [{} if j in dead or rng.random() < 0.3 else _laurent(rng)
                   for j in range(ncols)]
        rows.append(row)
    scales = [rng.choice((1, 1, 2, 3, 6)) for _ in rows]
    src = [(f"x{i}",) for i in range(nrows)]
    dst = [(f"y{j}",) for j in range(ncols)]
    return rows, scales, rng.random() < 0.5, src, dst, rng.randint(0, 3)


def assert_packed_rank_and_det_match(seed, count):
    """``_rank`` and ``_poly.det`` against ``dict_rank`` and ``dict_det``
    on ``count`` seeded blocks and matrices; returns what was seen."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(count):
        block = _random_block(rng)
        want = _rank_outcome(ainfty_reference.dict_rank, block)
        assert _rank_outcome(ainfty._rank, block) == want, block
        assert _pack_block(block[0]) is not None
        seen.add(want if isinstance(want, tuple) else "rank")
        n = rng.randint(1, 6)
        M = [[_laurent(rng, 0 if rng.random() < 0.8 else -2, 4)
              if rng.random() < 0.7 else {} for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.5:
            M[0][0] = {}
        if n > 1 and rng.random() < 0.2:
            M[-1] = list(M[0])
        d = _poly.det(M)
        assert d == ainfty_reference.dict_det(M), M
        seen.add("det" if d else "singular")
    return {x[0] if isinstance(x, tuple) else x for x in seen}


def test_packed_rank_matches_dict_kernel_on_fixtures(
        chain_datum, conjugated_datum, monkeypatch):
    aug_datum, _ = make_augmentation_datum()
    datums = [chain_datum, conjugated_datum, aug_datum, _morse_fixture()]
    datums += [pair_subcomplex(d, 0, 1) for d in datums]
    for n in (2, 3, 4, 5):
        datums += [sphere_fixture(n), pair_subcomplex(sphere_fixture(n), 0, 1)]
    complexes = [assemble_differential(d) for d in datums]
    rng = random.Random(5151)
    complexes += [_corpus_complex(rng) for _ in range(60)]
    outcomes = set()
    for c in complexes:
        for block in _cohomology_blocks(c, monkeypatch):
            want = _rank_outcome(ainfty_reference.dict_rank, block)
            assert _rank_outcome(ainfty._rank, block) == want
            # the dict kernel in ``_rank``, for blocks too sparse to pack
            with monkeypatch.context() as m:
                m.setattr(_poly, "_PACK_CAP", 0)
                assert _rank_outcome(ainfty._rank, block) == want
            outcomes.add(type(want))
    assert outcomes == {int, tuple}


def test_packed_rank_and_det_match_dict_kernel_on_random_corpus():
    assert assert_packed_rank_and_det_match(3030, 300) == {
        "rank", "NonUnitPivot", "det", "singular"}


def test_packed_step_rejects_remainders():
    # 7 is not (p a - x y) / prev for prev = 2: the step names the remainder
    rows = [[3, 1], [2, 3]]
    with pytest.raises(InexactDivision, match="left a remainder"):
        _poly._bareiss_rows(rows, 0, 0, 2, [1])
    _poly._bareiss_rows(rows, 0, 0, 1, [1])
    assert rows == [[3, 1], [2, 7]]


def test_sparse_coprime_denominators_take_the_dict_kernel():
    # exponents 1/997, 1/991, 2/989 beside 1000: N = 997 * 991 * 989, and
    # packing would need ints of about 10^13 digits; the dict kernel takes
    # about 0.08 s
    rng = random.Random(997)
    exps = [Fraction(1, 997), Fraction(1, 991), Fraction(1000),
            Fraction(500, 3), Fraction(2, 989), Fraction(0)]
    rows = [{j: NovikovSeries([(e, rng.choice((1, -1)) * rng.randint(1, 3))
                               for e in rng.sample(exps, 2)], ring="Q")
             for j in range(7) if rng.random() < 0.8} for _ in range(6)]
    c = _block_complex(rows, 7)
    src = [(f"x{i}",) for i in range(6)]
    dst = [(f"y{j}",) for j in range(7)]
    assert _pack_block(ainfty._laurent_block(src, dst, c.differential)[0]) \
        is None
    start = time.perf_counter()
    coh = cohomology(c, ring="Q")
    elapsed = time.perf_counter() - start
    assert coh["ranks"] == {"0": 0, "1": 1}
    assert elapsed < 1.0, elapsed


def test_cohomology_on_wide_exponent_spread_is_fast():
    # a dense 9 x 9 block of ten-term entries with exponents in [0, 24]:
    # packed ints of about 30000 bits, 0.07 s; the dict kernel takes 0.5 s
    rng = random.Random(5)
    rows = [{j: NovikovSeries([(e, rng.choice((1, -1)) * rng.randint(1, 3))
                               for e in rng.sample(range(25), 10)], ring="Q")
             for j in range(9)} for _ in range(9)]
    assert _rank_at(rows, 9, Fraction(2)) == 9
    c = _block_complex(rows, 9)
    src = [(f"x{i}",) for i in range(9)]
    dst = [(f"y{j}",) for j in range(9)]
    assert _pack_block(ainfty._laurent_block(src, dst, c.differential)[0]) \
        is not None
    start = time.perf_counter()
    coh = cohomology(c, ring="Q")
    elapsed = time.perf_counter() - start
    assert coh["total_rank"] == 0
    assert elapsed < 0.3, elapsed


# ---------------------------------------------------------------------------
# checks decided on one-output defects against the word basis


_WORD_BASIS = {
    "square": (check_a_infinity,
               ainfty_reference.word_basis_check_a_infinity),
    "chain": (check_chain_map, ainfty_reference.word_basis_check_chain_map),
    "homotopy": (check_homotopy,
                 ainfty_reference.word_basis_check_homotopy),
    "compose": (check_composition,
                ainfty_reference.word_basis_check_composition),
    "solve": (homotopic_map, ainfty_reference.word_basis_homotopic_map),
}


def _outcome(fn, *args):
    """The report of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc), str(exc)


def _against_word_basis(kind, args, monkeypatch):
    """The library's outcome of a check, asserted equal to the word-basis
    oracle's, and whether the library composed matrices on the word basis."""
    check, oracle = _WORD_BASIS[kind]
    composed = []
    real = ainfty._mat_compose
    with monkeypatch.context() as m:
        m.setattr(ainfty, "_mat_compose",
                  lambda a, b: composed.append(1) or real(a, b))
        got = _outcome(check, *args)
    assert got == _outcome(oracle, *args), kind
    return got, bool(composed)


def _passed(report):
    return isinstance(report, dict) and all(
        v for k, v in report.items() if isinstance(v, bool))


def _random_datum(rng, l, modulus):
    """Random generators on the label pairs and random structure tensors
    of arities 1-4, each with an output whose index matches mod
    ``modulus``: mostly not A-infinity, often with a one-output d d that
    vanishes."""
    gens = [Generator(f"x{i}{j}{n}", i, j, rng.randint(-2, 2))
            for i in range(l + 1) for j in range(i + 1, l + 1)
            for n in range(rng.choice((0, 1, 1, 2)))]
    by_start = {}
    for g in gens:
        by_start.setdefault(g.i, []).append(g)
    tensors = []
    for _ in range(rng.randint(1, 2 * l) if gens else 0):
        chain = [rng.choice(gens)]
        for _ in range(rng.randint(0, 3)):
            if chain[-1].j not in by_start:
                break
            chain.append(rng.choice(by_start[chain[-1].j]))
        w = len(chain)
        mu = sum(g.mu for g in chain) + 2 - w
        outs = [g for g in gens if (g.i, g.j) == (chain[0].i, chain[-1].j)
                and _grade(g.mu - mu, modulus) == 0]
        if outs:
            tensors.append(T([g.id for g in chain], rng.choice(outs).id,
                             _random_unit(rng)))
    return AInftyDatum(l=l, generators=tuple(gens), tensors=tuple(tensors),
                       modulus=modulus)


def _transfer(c, h):
    """The datum on the generators of ``c`` whose differential d' makes
    the continuation ``h`` (diagonal units plus higher entries) a chain map
    into ``c``: arity by arity, the one-output part of d F - F d', with d'
    built so far, is F after d'_n, d'_n followed by the diagonal unit, on
    the word basis."""
    units = {e.inputs[0]: e.coeff for e in h.h if e.inputs == (e.output,)}
    tensors = []
    for n in range(1, c.datum.l + 1):
        cp = assemble_differential(replace(c.datum, tensors=tuple(tensors)))
        fmat = assemble_continuation(c, cp, h)
        want = _mat_add(_mat_compose(fmat, c.differential),
                        _mat_compose(cp.differential, fmat), sign=-1)
        for word in cp.words:
            for wout, coeff in want.get(word, {}).items():
                if len(word) == n and len(wout) == 1 and coeff:
                    # d' reads an arity-n entry with the sign
                    # (-1)^_delta_exp(n, n, 1) = -1
                    (exp, cf), = units[wout[0]].terms
                    inverse = NovikovSeries.monomial(-cf, -exp)
                    tensors.append(TensorEntry(word, wout[0], coeff * inverse))
    return replace(c.datum, tensors=tuple(tensors))


def _transfer_case(rng, l):
    """``_random_case`` data, with the source complex replaced by the
    transfer of the base along a continuation with entries of arities
    1-3: an A-infinity datum with tensors of arity above 2, a chain map
    into the base, a homotopy and the far end ``homotopic_map`` solves."""
    c0, _, _, _, _, h, _, k = _random_case(rng, l)
    # invertible diagonal units: signs and powers of t only
    h = MapDatum(h=tuple(
        T(e.inputs, e.output, S(f"{rng.choice(('', '-'))}t^{rng.randint(-2, 2)}"))
        if e.arity == 1 else e for e in h.h))
    gens = {g.id: g for g in c0.datum.generators}
    chains = [w for w in enumerate_words(c0.datum) if len(w) == 3]
    extra = []
    for word in rng.sample(chains, min(3, len(chains))):
        mu = sum(gens[x].mu for x in word) - 2
        outs = [g for g in c0.datum.generators if g.mu == mu
                and (g.i, g.j) == (gens[word[0]].i, gens[word[-1]].j)]
        if outs:
            extra.append(T(word, rng.choice(outs).id, _random_unit(rng)))
    h = MapDatum(h=h.h + tuple(extra))
    c1 = assemble_differential(_transfer(c0, h))
    return c0, c1, h, k, homotopic_map(c0, c1, h, k)


def _assert_checks_match(c, cp, h, k, h1, rng, monkeypatch):
    """Every check on the complexes and their mutants equals the oracle;
    returns (kind, modulus, outcome, composed on words) per check."""
    out = []

    def run(kind, *args):
        got, composed = _against_word_basis(kind, args, monkeypatch)
        out.append((kind, args[0].modulus, got, composed))

    run("square", c.datum)
    run("square", cp.datum)
    run("chain", c, cp, h)
    run("chain", c, cp, h1)
    run("homotopy", c, cp, h, h1, k)
    # sign mutants of the tensors, h and k
    bad = assemble_differential(replace(cp.datum,
                                        tensors=_flip_one(cp.datum.tensors, rng)))
    run("square", bad.datum)
    run("chain", c, bad, h)
    run("chain", c, cp, MapDatum(h=_flip_one(h.h, rng)))
    run("homotopy", c, cp, MapDatum(h=_flip_one(h.h, rng)), h1, k)
    run("homotopy", c, cp, h, MapDatum(h=_flip_one(h1.h, rng)), k)
    run("homotopy", c, cp, h, h1, MapDatum(k=_flip_one(k.k, rng)))
    # rejected input: the same exception and message
    g = rng.choice(cp.datum.generators).id
    run("square", replace(cp.datum, tensors=cp.datum.tensors + (
        T([g], "nowhere"),)))
    run("chain", c, cp, MapDatum(h=h.h + (T([g], "nowhere"),)))
    run("homotopy", c, cp, h, h1, MapDatum(k=k.k + (T([g], "nowhere"),)))
    return out


_REJECTED = {"square": "structure tensor", "chain": "continuation tensor",
             "homotopy": "homotopy tensor"}


def _expect_decided_on_tensors(results, cutoff=False):
    """Any report under an odd modulus, and a failing report with cutoffs,
    composed on words; on Z or an even modulus, a report without cutoffs,
    passing or failing, composed nothing.  Rejected input raises before
    either."""
    raised = 0
    for kind, modulus, got, composed in results:
        if isinstance(got, tuple):
            raised += 1
            assert got[1] == f"{_REJECTED[kind]} outputs unknown generator 'nowhere'"
        elif modulus % 2 or not _passed(got) and cutoff:
            assert composed, (kind, got)
        elif not cutoff:
            assert not composed, (kind, got)
    assert raised == 3



@pytest.mark.parametrize("l", [3, 4])
def test_one_output_checks_match_word_basis_on_transfers(l, monkeypatch):
    rng = random.Random(7700 + l)
    seen = {"arity3": 0, "passed": 0, "failed": 0}
    for _ in range(3):
        c0, c1, h, k, h1 = _transfer_case(rng, l)
        seen["arity3"] += any(e.arity >= 3 for e in c1.datum.tensors)
        for modulus in (0, 1, 2, 3):
            c, cp = (assemble_differential(replace(x.datum, modulus=modulus))
                     for x in (c0, c1))
            results = _assert_checks_match(c, cp, h, k, h1, rng, monkeypatch)
            _expect_decided_on_tensors(results)
            # the transfer is A-infinity, h and the solved h1 chain maps,
            # and the homotopy closes
            assert all(_passed(got) for _, _, got, _ in results[:5])
            if modulus % 2 == 0:
                assert not any(composed for _, _, _, composed in results[:5])
            seen["passed"] += sum(_passed(got) for _, _, got, _ in results)
            seen["failed"] += sum(not _passed(got) for _, _, got, _ in results)
        cut = [assemble_differential(replace(
            x.datum, tensors=_cut_entries(x.datum.tensors, rng)))
            for x in (c0, c1)]
        _expect_decided_on_tensors(_assert_checks_match(
            *cut, MapDatum(h=_cut_entries(h.h, rng)),
            MapDatum(k=_cut_entries(k.k, rng)), h1, rng, monkeypatch),
            cutoff=True)
    assert all(seen.values()), seen


@pytest.mark.parametrize("modulus", [0, 1, 2, 3])
def test_one_output_checks_match_word_basis_on_random_data(modulus,
                                                           monkeypatch):
    rng = random.Random(7800 + modulus)
    seen = {"passed": 0, "failed": 0, "homotopy": 0}
    for _ in range(25):
        d = _random_datum(rng, rng.randint(2, 4), modulus)
        units = {g.id: _random_unit(rng) for g in d.generators}
        c = assemble_differential(d)
        cp = assemble_differential(conjugate_datum(d, units))
        h = diagonal_map(d, units)
        k = MapDatum(k=tuple(
            T([x.id], y.id, _random_unit(rng)) for x in d.generators
            for y in d.generators if (x.i, x.j) == (y.i, y.j)
            and _grade(y.mu - x.mu + 1, modulus) == 0 and rng.random() < 0.4))
        h1 = homotopic_map(c, cp, h, k)
        results = _assert_checks_match(c, cp, h, k, h1, rng, monkeypatch)
        _expect_decided_on_tensors(results)
        seen["passed"] += sum(_passed(got) for _, _, got, _ in results)
        seen["failed"] += sum(not _passed(got) for _, _, got, _ in results)
        seen["homotopy"] += _passed(results[4][2]) and bool(k.k)
    assert all(seen.values()), seen


def test_one_output_checks_match_word_basis_on_fixtures(
        chain_datum, conjugated_datum, chain_units, monkeypatch):
    rng = random.Random(7900)
    diag = diagonal_map(chain_datum, chain_units)
    for entries in _CHAIN_HOMOTOPIES:
        k = MapDatum(k=entries)
        for modulus in (0, 1, 2):
            c, cp = (assemble_differential(replace(d, modulus=modulus))
                     for d in (chain_datum, conjugated_datum))
            h1 = homotopic_map(c, cp, diag, k)
            results = _assert_checks_match(c, cp, diag, k, h1, rng,
                                           monkeypatch)
            _expect_decided_on_tensors(results)
            assert all(_passed(got) for _, _, got, _ in results[:5])


def test_odd_modulus_square_is_decided_on_words():
    # x -> y and z -> w commute past each other with the sign of their
    # indices, which modulus 1 leaves undetermined: the one-output d d is
    # zero, but (x, z) -> (y, w) is reached twice with the same sign
    gens = (Generator("x", 0, 1, 0), Generator("y", 0, 1, 0),
            Generator("z", 1, 2, 0), Generator("w", 1, 2, 0))
    d = AInftyDatum(l=2, generators=gens,
                    tensors=(T(["x"], "y"), T(["z"], "w")), modulus=1)
    c = assemble_differential(d)
    one = {}
    ainfty._splice(one, ainfty._targets(c._d_parts), c._parts, c._gens,
                   ainfty._d_slot)
    assert ainfty._is_zero(one)
    report = {"square_zero": False, "words": 8, "nonzero_entries": [
        {"in": ["x", "z"], "out": ["y", "w"], "coeff": "2t^0"}]}
    assert check_a_infinity(d) == report
    assert ainfty_reference.word_basis_check_a_infinity(d) == report


def test_homotopy_between_non_chain_maps_is_decided_on_words(
        chain_datum, conjugated_datum, chain_units):
    # h1 solved from an h0 that is no chain map: the one-output component
    # of F0 - F1 - [d, K] vanishes, the defect does not
    c = assemble_differential(chain_datum)
    cp = assemble_differential(conjugated_datum)
    h0 = MapDatum(h=tuple(
        T(e.inputs, e.output, e.coeff.scale(-1)) if e.output == "g12" else e
        for e in diagonal_map(chain_datum, chain_units).h))
    assert not check_chain_map(c, cp, h0)["chain_map"]
    for entries in _CHAIN_HOMOTOPIES[:4]:
        k = MapDatum(k=entries)
        h1 = homotopic_map(c, cp, h0, k)
        kk = assemble_homotopy(c, cp, h0, h1, k)
        defect = _mat_add(
            _mat_add(assemble_continuation(c, cp, h0),
                     assemble_continuation(c, cp, h1), sign=-1),
            _mat_add(_mat_compose(kk, c.differential),
                     _mat_compose(cp.differential, kk)), sign=-1)
        outputs = {len(u) for row in defect.values() for u, x in row.items()
                   if x}
        assert outputs and 1 not in outputs
        report = check_homotopy(c, cp, h0, h1, k)
        assert not report["homotopy"]
        assert report == ainfty_reference.word_basis_check_homotopy(
            c, cp, h0, h1, k)


def test_word_count_is_the_number_of_words(chain_datum):
    rng = random.Random(8000)
    datums = [chain_datum, make_augmentation_datum()[0]] + [
        _random_datum(rng, rng.randint(1, 5), 0) for _ in range(30)]
    for d in datums:
        assert ainfty._word_count(ainfty._gen_map(d)) == len(enumerate_words(d))


def test_given_differential_is_read_on_words(chain_datum, conjugated_datum,
                                             chain_units, monkeypatch):
    # a differential passed to FloerComplex need not be the Leibniz
    # extension of the tensors, so the checks read it as it is
    rng = random.Random(8100)
    c = assemble_differential(chain_datum)
    cp = assemble_differential(conjugated_datum)
    broken = FloerComplex(chain_datum, c.words,
                          _flip_entry(c.differential, rng))
    diag = diagonal_map(chain_datum, chain_units)
    k = MapDatum(k=_CHAIN_HOMOTOPIES[0])
    for kind, args in (("chain", (broken, cp, diag)),
                       ("chain", (cp, broken, diag)),
                       ("homotopy", (broken, cp, diag, diag, k))):
        got, composed = _against_word_basis(kind, args, monkeypatch)
        assert composed and not _passed(got)


# ---------------------------------------------------------------------------
# failing reports extended from the one-output defect: the slot and frame
# sign rules certified term by term, and the reports against the word basis


def _dd_slot_failures(rule, q_max=7):
    """Nested composites of d d whose word-basis exponent differs from the
    exponent of their D1 term spliced by ``rule``: (cases, failures).

    On a word of Q factors with index parities ``mus``, an arity-w2 tensor
    in slot i2 gives a word of q1 = Q - w2 + 1 factors, and an arity-w1
    tensor in slot s of that word holds the first one's output in its slot
    j = i2 - s + 1.  Each ``_splice`` term carries its slot rule plus w
    times the index sum left of the slot; the D1 term is the outer tensor
    (signed by ``_delta_exp(w1, w1, 1)`` as a one-output component of d)
    with the inner one in slot j, spliced as an arity-L piece into slot s
    of the word of q = q1 - w1 + 1 factors."""
    cases = failures = 0
    for big in range(1, q_max + 1):
        for mus in itertools.product((0, 1), repeat=big):
            left = list(itertools.accumulate(mus, initial=0))
            for w2 in range(1, big + 1):
                q1 = big - w2 + 1
                for i2 in range(1, q1 + 1):
                    for w1 in range(1, q1 + 1):
                        for s in range(max(1, i2 - w1 + 1),
                                       min(i2, q1 - w1 + 1) + 1):
                            q, L, m = q1 - w1 + 1, w1 + w2 - 1, left[s - 1]
                            word = (ainfty._d_slot(q1, w2, i2)
                                    + w2 * left[i2 - 1]
                                    + ainfty._d_slot(q, w1, s) + w1 * m)
                            d1 = (ainfty._delta_exp(w1, w1, 1)
                                  + ainfty._d_slot(w1, w2, i2 - s + 1)
                                  + w2 * (left[i2 - 1] - m))
                            cases += 1
                            failures += (word - d1 - rule(q, L, s, m)
                                         - L * m) % 2
    return cases, failures


def test_dd_slot_is_the_sign_of_every_nested_composite(monkeypatch):
    cases, failures = _dd_slot_failures(ainfty._dd_slot)
    assert cases > 10000 and failures == 0
    for mutant in (lambda q, w, s, m: ainfty._d_slot(q, w, s),
                   lambda q, w, s, m: ainfty._d_slot(q, w, s) + q,
                   lambda q, w, s, m: ainfty._d_slot(q, w, s) + m,
                   lambda q, w, s, m: ainfty._dd_slot(q, w, s, m) + w,
                   lambda q, w, s, m: ainfty._dd_slot(q, w, s, m) + s):
        assert _dd_slot_failures(mutant)[1] > 0
    # the check splices by the rule it names: a mutant in its place
    # changes the report of a failing datum
    (d,), = itertools.islice(
        (args for kind, args in _all_pairs_mutants(4, random.Random(9300))
         if kind == "square"), 1)
    report = check_a_infinity(d)
    assert report == ainfty_reference.word_basis_check_a_infinity(d)
    with monkeypatch.context() as mp:
        mp.setattr(ainfty, "_dd_slot",
                   lambda q, w, s, m: ainfty._d_slot(q, w, s) + m)
        assert check_a_infinity(d) != report


def _defect_parity_failures(rule, n_max=6):
    """Terms of d F - F d' whose word-basis exponent differs from
    ``rule`` plus the exponent of their one-output term: (cases,
    failures), over every cut of a chain of up to ``n_max`` factors and
    every pattern of index parities ``mus`` (an even modulus fixes each
    output's parity: F's arity-b entry shifts the index by 1 - b, d's
    arity-a tensor by 2 - a).

    F then d: F's blocks give the word x, and an arity-m tensor of d in
    slot s of its image takes x's factors s .. s + m - 1.  The term's D1
    part is d's one-output component (``_delta_exp(m, m, 1)``) after the
    fan-in of those m blocks.  d' then F: an arity-a tensor of d' in slot
    t gives the chain y, and F's block p of y holds its output.  The D1
    part is that block with the tensor in its own slot, signed as
    ``_chain_defect`` splices it, and the word-basis term is subtracted."""
    split, d_slot = ainfty._split_parity, ainfty._d_slot
    cases = failures = 0
    for n in range(1, n_max + 1):
        for mus in itertools.product((0, 1), repeat=n):
            for cut in _ref_compositions(n):
                at = list(itertools.accumulate(cut, initial=0))
                outs = [sum(mus[a:b]) + 1 - (b - a)
                        for a, b in zip(at, at[1:])]
                for m in range(1, len(cut) + 1):
                    for s in range(1, len(cut) - m + 2):
                        block = cut[s - 1:s - 1 + m]
                        lo, hi = at[s - 1], at[s - 1 + m]
                        word = (split(cut, mus) + m * sum(outs[:s - 1])
                                + d_slot(len(cut) - m + 1, m, s))
                        d1 = (ainfty._delta_exp(m, m, 1)
                              + split(block, mus[lo:hi]))
                        arities = cut[:s - 1] + (hi - lo,) + cut[s - 1 + m:]
                        cases += 1
                        failures += (word - d1 - rule(arities, mus, s - 1)) % 2
            for a in range(1, n + 1):
                for t in range(1, n - a + 2):
                    ymus = (mus[:t - 1] + (sum(mus[t - 1:t - 1 + a]) + 2 - a,)
                            + mus[t - 1 + a:])
                    tensor = d_slot(n - a + 1, a, t) + a * sum(mus[:t - 1])
                    for cut in _ref_compositions(n - a + 1):
                        at = list(itertools.accumulate(cut, initial=0))
                        p = next(i for i, b in enumerate(at[1:]) if t <= b)
                        word = 1 + tensor + split(cut, ymus)
                        d1 = (1 + d_slot(cut[p], a, t - at[p])
                              + a * sum(mus[at[p]:t - 1]))
                        arities = cut[:p] + (cut[p] + a - 1,) + cut[p + 1:]
                        cases += 1
                        failures += (word - d1 - rule(arities, mus, p)) % 2
    return cases, failures


def test_defect_parity_is_the_sign_of_every_chain_map_term():
    cases, failures = _defect_parity_failures(ainfty._defect_parity)
    assert cases > 40000 and failures == 0
    hp, dp = ainfty._homotopy_parity, ainfty._defect_parity
    for mutant in (hp,
                   lambda ar, mus, p: dp(ar, mus, p) + p,
                   lambda ar, mus, p: dp(ar, mus, p) + len(ar),
                   lambda ar, mus, p: dp(ar, mus, p) + sum(mus[:sum(ar[:p])]),
                   lambda ar, mus, p: ainfty._split_parity(ar, mus)):
        assert _defect_parity_failures(mutant, n_max=4)[1] > 0


def _homotopy_rule_failures(even, pair, n_max=6):
    """Terms of D = F0 - F1 - [d, K] whose word-basis exponent differs
    from their extension's: (cases, failures), over every cut of a chain
    of up to ``n_max`` factors, every position of the k block and every
    pattern of index parities ``mus`` (an even modulus fixes each
    output's parity).  F0 - F1 is the fan-in of h0 - h1 framed by h0 and
    h1 as an even block, a telescoping sum with ``_split_parity`` on both
    sides.  A term of [d, K] (subtracted) is K then an arity-m tensor of d
    on m consecutive outputs of K, or an arity-a tensor of d' then K.
    When the tensor meets the k block the term is a D1 term (as
    ``check_homotopy`` sums it) in an ``even`` block; right of it, a term
    of the one-output defect E1 of h1 (as ``_chain_defect`` sums it,
    negated) after k, and left of it a term of E0 before k, both signed
    by ``pair``."""
    split, hp = ainfty._split_parity, ainfty._homotopy_parity
    d_slot, d_part = ainfty._d_slot, ainfty._delta_exp
    cases = failures = 0

    def check(word, rule):
        nonlocal cases, failures
        cases += 1
        failures += (word - rule) % 2

    for n in range(1, n_max + 1):
        for mus in itertools.product((0, 1), repeat=n):
            for cut in _ref_compositions(n):
                at = list(itertools.accumulate(cut, initial=0))
                for p in range(len(cut)):
                    # index parities of K's outputs: a k entry shifts by -w
                    outs = [sum(mus[a:b]) + (b - a) + (j != p)
                            for j, (a, b) in enumerate(zip(at, at[1:]))]
                    for m in range(1, len(cut) + 1):
                        for s in range(1, len(cut) - m + 2):
                            word = (1 + hp(cut, mus, p) + m * sum(outs[:s - 1])
                                    + d_slot(len(cut) - m + 1, m, s))
                            lo, hi = at[s - 1], at[s - 1 + m]
                            inner = cut[s - 1:s - 1 + m]
                            merged = cut[:s - 1] + (hi - lo,) + cut[s - 1 + m:]
                            # d's one-output part, after K's blocks
                            part = d_part(m, m, 1) + (
                                hp(inner, mus[lo:hi], p - s + 1)
                                if s - 1 <= p <= s + m - 2
                                else split(inner, mus[lo:hi]))
                            if s - 1 <= p <= s + m - 2:
                                check(word, even(merged, mus) + 1 + part)
                            elif s - 1 > p:
                                check(word, pair(merged, mus, p, s - 1)
                                      + 1 + part)
                            else:
                                check(word, pair(merged, mus, s - 1,
                                                 p - m + 1) + part)
            for a in range(1, n + 1):
                for t in range(1, n - a + 2):
                    ymus = (mus[:t - 1] + (sum(mus[t - 1:t - 1 + a]) + 2 - a,)
                            + mus[t - 1 + a:])
                    tensor = d_slot(n - a + 1, a, t) + a * sum(mus[:t - 1])
                    for cut in _ref_compositions(n - a + 1):
                        at = list(itertools.accumulate(cut, initial=0))
                        b = next(i for i, x in enumerate(at[1:]) if t <= x)
                        merged = cut[:b] + (cut[b] + a - 1,) + cut[b + 1:]
                        spliced = (d_slot(cut[b], a, t - at[b])
                                   + a * sum(mus[at[b]:t - 1]))
                        for p in range(len(cut)):
                            word = 1 + tensor + hp(cut, ymus, p)
                            if b == p:
                                check(word, even(merged, mus) + spliced)
                            elif b > p:
                                check(word, pair(merged, mus, p, b) + spliced)
                            else:
                                check(word,
                                      pair(merged, mus, b, p) + 1 + spliced)
    return cases, failures


def test_pair_parity_signs_every_two_block_homotopy_term():
    cases, failures = _homotopy_rule_failures(ainfty._split_parity,
                                              ainfty._pair_parity)
    assert cases > 150000 and failures == 0
    split, pair = ainfty._split_parity, ainfty._pair_parity
    hp = ainfty._homotopy_parity
    for even, odd in (
            (lambda ar, mus: split(ar, mus) + 1, pair),
            (lambda ar, mus: hp(ar, mus, 0), pair),
            (split, lambda ar, mus, p, q: pair(ar, mus, p, q) + 1),
            (split, lambda ar, mus, p, q: pair(ar, mus, p, q) + sum(ar[:p])),
            (split, lambda ar, mus, p, q: pair(ar, mus, p, q) + sum(ar[:q])),
            (split, lambda ar, mus, p, q: pair(ar, mus, p, q) + len(ar)),
            (split, lambda ar, mus, p, q: hp(ar, mus, q))):
        assert _homotopy_rule_failures(even, odd, n_max=4)[1] > 0


def _extended(kind, args, monkeypatch):
    """The library's outcome of a check, asserted equal to the word-basis
    oracle's; whether the library composed matrices on the word basis, and
    whether a complex it read built its differential."""
    check, oracle = _WORD_BASIS[kind]
    composed, made = [], [x for x in args if isinstance(x, FloerComplex)]
    compose, assemble = ainfty._mat_compose, ainfty.assemble_differential
    with monkeypatch.context() as m:
        m.setattr(ainfty, "_mat_compose",
                  lambda a, b: composed.append(1) or compose(a, b))
        m.setattr(ainfty, "assemble_differential",
                  lambda d: made.append(assemble(d)) or made[-1])
        got = _outcome(check, *args)
    built = any("differential" in vars(x) for x in made)
    assert got == _outcome(oracle, *args), (kind, got)
    return got, bool(composed), built


def _flip_product_unit(h, g):
    """The map ``h`` with the weight of its entries on ``g`` negated."""
    return MapDatum(h=tuple(T(e.inputs, e.output, e.coeff.scale(-1))
                            if e.output == g else e for e in h.h))


def _all_pairs_mutants(l, rng):
    """All-pairs data on labels 0..l, conjugated by random units: one
    (kind, args) per flipped product sign, checked as a datum, and per
    flipped unit of a product generator in the diagonal map, with and
    without an arity-2 entry onto a shadow generator, and as either end
    of a homotopy on the shadow generators."""
    base = all_pairs_datum(l, [(0, 2), (l - 2, l)],
                           modulus=2 * rng.randint(0, 1))
    d = conjugate_datum(base, random_units(rng, base))
    units = random_units(rng, d)
    dp = conjugate_datum(d, units)
    for e in d.tensors:
        tensors = tuple(replace(x, coeff=x.coeff.scale(-1)) if x is e else x
                        for x in d.tensors)
        yield "square", (replace(d, tensors=tensors),)
    diag = diagonal_map(d, units)
    arity2 = MapDatum(h=diag.h + (T(["g01", "g12"], "z02", S("3t^1")),))
    k = MapDatum(k=(T(["s02"], "z02", S("t^1 - 2t^6")),
                    T([f"s{l - 2}{l}"], f"z{l - 2}{l}", S("-t^2/3"))))
    for g in sorted({e.output for e in d.tensors}):
        for h in (diag, arity2):
            yield "chain", (assemble_differential(d),
                            assemble_differential(dp),
                            _flip_product_unit(h, g))
        flip = _flip_product_unit(diag, g)
        for ends in ((diag, flip), (flip, diag)):
            yield "homotopy", (assemble_differential(d),
                               assemble_differential(dp), *ends, k)


def assert_all_pairs_mutants_extend(l, seed, monkeypatch,
                                    kinds=("square", "chain", "homotopy")):
    """Every flipped product sign and every flipped product unit on
    all-pairs data at ``l`` fails with the word-basis report, on Z or
    modulus 2, without composing or building a differential; returns the
    number of reports of the given kinds."""
    count = 0
    for kind, args in _all_pairs_mutants(l, random.Random(seed)):
        if kind not in kinds:
            continue
        got, composed, built = _extended(kind, args, monkeypatch)
        assert not _passed(got) and not composed and not built, (kind, got)
        count += 1
    return count


@pytest.mark.parametrize("l", [4, 5, 6])
def test_all_pairs_mutants_extend_the_one_output_defect(l, monkeypatch):
    products = (l + 1) * l // 2 - l
    assert assert_all_pairs_mutants_extend(l, 9100 + l, monkeypatch) == (
        math.comb(l + 1, 3) + 4 * products)


def test_failing_reports_extend_the_one_output_defect(monkeypatch):
    # failing square, chain and homotopy reports on exact data over Z or
    # an even modulus extend their one-output defects over the words: the
    # oracle's report, no composite and no differential; odd moduli and
    # cutoffs compose, and rejected input raises the oracle's error
    rng = random.Random(9200)
    seen = {}

    def run(kind, args, exact=True):
        got, composed, built = _extended(kind, args, monkeypatch)
        modulus = args[0].modulus
        if isinstance(got, tuple):
            key = "raised"
        elif _passed(got):
            key = "passed"
        elif modulus % 2 or not exact:
            assert composed and built, (kind, got)
            key = "odd" if modulus % 2 else "cut"
        else:
            assert not composed and not built, (kind, got)
            key = "extended"
        seen[kind, key] = seen.get((kind, key), 0) + 1

    for modulus in (0, 1, 2, 3):
        for _ in range(20):
            d = _random_datum(rng, rng.randint(2, 5), modulus)
            run("square", (d,))
            if d.tensors:
                cut = replace(d, tensors=_cut_entries(d.tensors, rng))
                run("square", (cut,), exact=False)
    for _ in range(12):
        c0, c1, _, h01, _, h0, _, _ = _random_case(rng, rng.randint(2, 5))
        diag = MapDatum(h=tuple(e for e in h0.h if e.arity == 1))
        for modulus in (0, 1, 2, 3):
            c, cp = (replace(x.datum, modulus=modulus) for x in (c0, c1))

            def fresh():
                return assemble_differential(c), assemble_differential(cp)

            for h in (h01, MapDatum(h=_flip_one(h01.h, rng)),
                      MapDatum(h=_flip_one(diag.h, rng))):
                run("chain", (*fresh(), h))
            run("chain", (*fresh(), MapDatum(h=_cut_entries(h01.h, rng))),
                exact=False)
            run("chain", (*fresh(), MapDatum(
                h=h01.h + (T(h01.h[0].inputs, "nowhere"),))))
    for _ in range(4):
        # homotopies with entries of arities 1-2 from each a_ij and each
        # product a_ij a_jk onto b, between ends that need not be chain maps
        c0, c1, h, _, _ = _transfer_case(rng, rng.randint(3, 4))
        ids = {g.id for g in c0.datum.generators}
        k = MapDatum(k=tuple(
            T(e.inputs, "b" + e.output[1:], _random_unit(rng))
            for e in h.h if e.arity <= 2 and e.output.startswith("a")
            and "b" + e.output[1:] in ids and rng.random() < 0.7))
        for modulus in (0, 1, 2, 3):
            c, cp = (replace(x.datum, modulus=modulus) for x in (c0, c1))

            def fresh():
                return assemble_differential(c), assemble_differential(cp)

            h1 = homotopic_map(*fresh(), h, k)
            for ends in ((h, h1), (h, MapDatum(h=_flip_one(h1.h, rng))),
                         (MapDatum(h=_flip_one(h.h, rng)), h1),
                         (MapDatum(h=_flip_one(h.h, rng)),
                          MapDatum(h=_flip_one(h1.h, rng)))):
                run("homotopy", (*fresh(), *ends, k))
            run("homotopy", (*fresh(), MapDatum(h=_flip_one(h.h, rng)), h1,
                             MapDatum(k=_cut_entries(k.k, rng))), exact=False)
            run("homotopy", (*fresh(), h, h1, MapDatum(
                k=k.k + (T(k.k[0].inputs, "nowhere"),))))
    for kind, args in itertools.islice(_all_pairs_mutants(4, rng), 0, None, 3):
        run(kind, args)
    for key in itertools.product(("square", "chain", "homotopy"),
                                 ("extended", "odd", "cut", "passed")):
        assert seen.get(key), (key, seen)
    assert seen.get(("chain", "raised")) and seen.get(("homotopy", "raised"))


def test_complex_builds_words_and_differential_on_first_use(
        chain_datum, conjugated_datum, chain_units):
    def built(*cs):
        return [(name in vars(x)) for x in cs
                for name in ("words", "differential")]

    diag = diagonal_map(chain_datum, chain_units)
    ident = MapDatum(h=tuple(T([g.id], g.id) for g in chain_datum.generators))
    k = MapDatum(k=_CHAIN_HOMOTOPIES[0])
    c, cp = (assemble_differential(d) for d in (chain_datum, conjugated_datum))
    assert built(c, cp) == [False] * 4
    h1 = homotopic_map(c, c, ident, k)
    c = assemble_differential(chain_datum)
    assert check_homotopy(c, c, ident, h1, k)["homotopy"]
    assert built(c) == [False, False]
    assert check_chain_map(c, cp, diag) == {
        "chain_map": True, "dual_expansion": True, "defects": []}
    assert built(c, cp) == [False] * 4
    # a passing augmentation, also pushed forward, is read off the tensors
    datum, aug = make_augmentation_datum()
    units = {"x": S("-t^0"), "y": S("t^1"), "z": S("-t^2"), "p": ONE}
    ca, cb = (assemble_differential(d)
              for d in (datum, conjugate_datum(datum, units)))
    assert check_augmentation(ca, aug)["ok"]
    assert check_augmentation(ca, aug, (cb, diagonal_map(datum, units)))["ok"]
    assert built(ca, cb) == [False] * 4
    # a failing exact map extends its one-output defect over the target
    # words: no differential, and no words of the source
    bad = MapDatum(h=tuple(T(e.inputs, e.output, e.coeff.scale(-1))
                           if e.output == "g12" else e for e in diag.h))
    assert not check_chain_map(c, cp, bad)["chain_map"]
    assert built(c, cp) == [True, False, False, False]
    # and so does a failing exact homotopy whose far end is no chain map
    assert not check_homotopy(c, cp, diag, bad, k)["homotopy"]
    assert built(c, cp) == [True, False, False, False]
    # a failing map with a cutoff composes both differentials on the word
    # basis
    cut = MapDatum(h=bad.h[:-1] + (T(bad.h[-1].inputs, bad.h[-1].output,
                                     bad.h[-1].coeff.restrict(9)),))
    assert not check_chain_map(c, cp, cut)["chain_map"]
    assert built(c, cp) == [True] * 4
    c0, c1, c2 = (assemble_differential(d)
                  for d in (chain_datum, conjugated_datum, conjugated_datum))
    # an exact composition is decided on the certificate and builds no
    # words; with a cutoff it is built on the words of c0 and c1
    assert check_composition(c0, c1, c2, diag, ident)["composition"]
    assert built(c0, c1, c2) == [False] * 6
    assert check_composition(c0, c1, c2, cut, ident)["composition"]
    assert built(c0, c1, c2) == [True, False, True, False, False, False]
    assert c0.differential == _ref_differential(chain_datum)
    assert c0.words == enumerate_words(chain_datum)


# ---------------------------------------------------------------------------
# the prefix-extension kernel against the product kernel, and the checks
# read off the tensors against the expanding chain-map check and the
# word-basis augmentation check


def _listed(m):
    """A matrix with the insertion order of its rows and entries."""
    return [(v, list(row.items())) for v, row in m.items()]


def _assert_kernel_lists_product_terms(words, h0, h1, k, gens, longest=None):
    """Every word's continuation and homotopy terms, those of k as an even
    block and those of two special blocks (k then h0, h0 then k), and
    their matrices, equal the product kernel's, in the same order."""
    h0, h1, k = (ainfty._components(x) for x in (h0, h1, k))
    for frame, more in (((None, None), {}), ((k, h1), {}),
                        ((k, h1), {"odd": False}),
                        ((k, h1), {"then": h0, "last": h1}),
                        ((h0, h0), {"then": k, "last": h1})):
        args = (h0, gens, *frame, longest)
        terms = ainfty._fan_in(*args, **more)
        for word in words:
            assert terms(word) == list(
                ainfty_reference.product_fan_in(word, *args, **more)), word
        assert _listed(ainfty._fan_in_matrix(words, *args, **more)) == _listed(
            ainfty_reference.product_fan_in_matrix(words, *args, **more))


def test_prefix_kernel_lists_the_product_kernels_terms():
    rng = random.Random(2200)
    cancelled = 0
    for l in (3, 4, 5):
        for _ in range(2):
            c0, c1, _, h01, _, h0, h1, k = _random_case(rng, l)
            cut = [_cut_entries(x, rng) for x in (h01.h, h1.h, k.k)]
            for h, g1, kk in ((h01.h, h1.h, k.k), cut):
                for longest in (None, 1, 2, l - 1):
                    _assert_kernel_lists_product_terms(
                        c0.words, h, g1, kk, c1._gens, longest)
            # a sum cancelled to a zero series with a cutoff
            cancelled += any(
                not x and x.cutoff is not None
                for row in ainfty._fan_in_matrix(
                    c0.words, ainfty._components(cut[0]), c1._gens).values()
                for x in row.values())
    # transfers: continuation entries of arity 3 and structure tensors
    for _ in range(3):
        c0, c1, h, k, h1 = _transfer_case(rng, 4)
        _assert_kernel_lists_product_terms(c0.words, h.h, h1.h, k.k,
                                           c1._gens)
    assert cancelled


def _repeat_entry(entries, rng):
    """``entries`` with one of them split into two entries of the same
    inputs and output, of weights x (1 + t) and -x t."""
    if not entries:
        return entries
    i = rng.randrange(len(entries))
    e = entries[i]
    return (entries[:i] + (T(e.inputs, e.output, e.coeff * (ONE + S("t^1"))),
                           T(e.inputs, e.output, e.coeff * S("-t^1")))
            + entries[i + 1:])


def _chain_map_corpus(rng):
    """(label, modulus, c, c', h): random cases, transfers and all-pairs
    data, plain, with cutoffs, with repeated (inputs, output) entries,
    sign mutants and rejected input, under moduli 0-3."""
    bases = []
    for l in (3, 4):
        c0, c1, _, h01, _, _, _, _ = _random_case(rng, l)
        bases.append((c0.datum, c1.datum, h01.h))
        c0, c1, h, _, h1 = _transfer_case(rng, l)
        bases += [(c0.datum, c1.datum, h.h), (c0.datum, c1.datum, h1.h)]
    for l in (3, 4, 5):
        d = all_pairs_datum(l, shadows=[(0, 2)])
        units = random_units(rng, d)
        bases.append((d, conjugate_datum(d, units), diagonal_map(d, units).h
                      + (T(["g01", "g12"], "z02", _random_unit(rng)),)))
        bases.append((d, conjugate_datum(d, units), diagonal_map(d, units).h))
    for d, dp, h in bases:
        cases = {
            "plain": (d, dp, h),
            "cutoff map": (d, dp, _cut_entries(h, rng)),
            "cutoff tensors": (replace(d, tensors=_cut_entries(d.tensors, rng)),
                               dp, h),
            "repeated": (d, dp, _repeat_entry(_repeat_entry(h, rng), rng)),
            "doubled": (d, dp, h + h[:1]),
            "mutant map": (d, dp, _flip_one(h, rng)),
            "mutant tensors": (d, replace(dp, tensors=_flip_one(dp.tensors,
                                                                rng)), h),
            "rejected": (d, dp, h + (T([h[0].inputs[0]], "nowhere"),)),
        }
        for modulus in (0, 1, 2, 3):
            for label, (x, y, entries) in cases.items():
                yield (label, modulus, *(assemble_differential(
                    replace(z, modulus=modulus)) for z in (x, y)),
                    MapDatum(h=entries))


def test_chain_map_matches_the_expanding_check():
    rng = random.Random(2300)
    seen = {}
    for label, modulus, c, cp, h in _chain_map_corpus(rng):
        got = _outcome(check_chain_map, c, cp, h)
        built = "words" in vars(c) or "words" in vars(cp)
        assert got == _outcome(ainfty_reference.expanded_check_chain_map,
                               c, cp, h), (label, modulus)
        key = ("raised" if isinstance(got, tuple) else
               "passed" if _passed(got) else "failed")
        seen[key, label] = seen.get((key, label), 0) + 1
        if key == "passed" and modulus % 2 == 0 and "cutoff" not in label:
            # decided on the tensors: no words, no matrix
            assert not built, (label, modulus)
    for key in (("raised", "rejected"), ("failed", "mutant map"),
                ("passed", "cutoff map"), ("passed", "repeated"),
                ("passed", "doubled"), ("failed", "doubled")):
        assert seen.get(key), (key, seen)


def _augmentation_datum(rng, l, modulus):
    """An all-pairs datum with shadows, conjugated by units, plus on each
    pair (i, i+1) generators x_i of index -2 and y_i, z_i of index -1 with
    the tensors x_i -> y_i and x_i -> z_i."""
    base = all_pairs_datum(l, [(i, i + 2) for i in range(l - 1)], modulus)
    d = conjugate_datum(base, random_units(rng, base))
    gens, tensors = list(d.generators), list(d.tensors)
    for i in range(l):
        gens += [Generator(f"x{i}", i, i + 1, -2),
                 Generator(f"y{i}", i, i + 1, -1),
                 Generator(f"z{i}", i, i + 1, -1)]
        tensors += [T([f"x{i}"], f"y{i}", _random_unit(rng)),
                    T([f"x{i}"], f"z{i}", _random_unit(rng))]
    return replace(d, generators=tuple(gens), tensors=tuple(tensors))


def _augmentation_values(rng, d):
    """Random units on some g_i,i+1 in the index -1 class, and on y_i, z_i
    values that cancel through x_i: A(x_i) = 0."""
    coeff = {(e.inputs[0], e.output): e.coeff for e in d.tensors}
    gens = {g.id: g for g in d.generators}
    values = {}
    for i in range(d.l):
        g = f"g{i}{i + 1}"
        if rng.random() < 0.8 and _grade(gens[g].mu + 1, d.modulus) == 0:
            values[g] = _random_unit(rng)
        if rng.random() < 0.6:
            v = _random_unit(rng)
            values[f"y{i}"] = coeff[(f"x{i}", f"z{i}")] * v
            values[f"z{i}"] = coeff[(f"x{i}", f"y{i}")] * v.scale(-1)
    return values


def _augmentation_corpus(rng):
    """(label, modulus, datum, values, push as (domain datum, entries) or
    None): plain, zero and cut values, a value on a product output, cut
    tensors and map entries, repeated entries, pushed values that cancel,
    arity-2 entries into valued and unvalued generators, odd moduli, a
    domain of another modulus or ring, a given differential and values
    off the complex or the index -1 class."""
    for l in (3, 4):
        for modulus in (2, 0, 1, 3, 4):
            d = _augmentation_datum(rng, l, modulus)
            values = _augmentation_values(rng, d)
            units = random_units(rng, d)
            dp = conjugate_datum(d, units)
            diag = diagonal_map(d, units).h
            one = next(iter(values), None)
            arity2 = tuple(T([f"g{i}{i + 1}", f"g{i + 1}{i + 2}"], f"z{i}{i + 2}",
                             _random_unit(rng)) for i in range(l - 1))
            y0, z0 = values.get("y0"), values.get("z0")
            cancel = diag if y0 is None else tuple(
                e for e in diag if e.inputs != ("y0",)) + (
                T(["y0"], "y0", z0 * units["y0"]),
                T(["y0"], "z0", y0 * units["y0"].scale(-1)))
            vals = {
                "plain": values,
                "zero": dict(values, **{one: NovikovSeries.zero()})
                if one else values,
                "cut value": {g: v.restrict(v.valuation() + 1)
                              if g == one else v for g, v in values.items()},
                "product output": dict(values, g03=_random_unit(rng)),
            }
            for label, v in vals.items():
                for push in (None, diag):
                    yield (label, modulus, d, v, push and (dp, push))
            maps = {
                "cut map": _cut_entries(diag, rng),
                "repeated": _repeat_entry(_repeat_entry(diag, rng), rng),
                "cancel": cancel,
                "arity 2 unvalued": diag + arity2,
            }
            for label, h in maps.items():
                yield (label, modulus, d, values, (dp, h))
            # the arity-2 entries hit valued shadows z_i,i+2 (index 1)
            shadows = {e.output: _random_unit(rng) for e in arity2
                       if _grade(2, modulus) == 0}
            yield ("arity 2", modulus, d, dict(values, **shadows),
                   (dp, diag + arity2))
            yield ("cut tensors", modulus,
                   replace(d, tensors=_cut_entries(d.tensors, rng)), values,
                   None)
            yield ("domain modulus", modulus, d, values,
                   (replace(dp, modulus=modulus + 2), diag))
            yield ("domain ring", modulus, d, values,
                   (replace(dp, ring="Q", tensors=tuple(
                       T(e.inputs, e.output, e.coeff.to_ring("Q"))
                       for e in dp.tensors)), diag))
            yield ("given", modulus, d, values, None)
            yield ("unknown", modulus, d, dict(values, nowhere=ONE), None)
            yield ("off class", modulus, d, dict(values, x0=ONE), None)


def test_augmentation_matches_the_word_basis_check():
    rng = random.Random(2400)
    seen = {}
    for label, modulus, d, values, push in _augmentation_corpus(rng):
        c = assemble_differential(d)
        if label == "given":
            c = FloerComplex(d, c.words, c.differential)
        args = (c, Augmentation(values=values), push and (
            assemble_differential(push[0]), MapDatum(h=push[1])))
        got = _outcome(check_augmentation, *args)
        built = "words" in vars(c)
        assert got == _outcome(ainfty_reference.word_basis_check_augmentation,
                               *args), (label, modulus)
        key = ("raised" if isinstance(got, tuple) else
               "passed" if got["ok"] else "failed")
        seen[key, label] = seen.get((key, label), 0) + 1
        if (label in ("plain", "repeated", "cancel", "arity 2 unvalued")
                and modulus % 2 == 0 and key != "raised"):
            # read off the tensors: no words
            assert not built, (label, modulus)
        if label in ("cut value", "cut map", "given") or modulus % 2:
            assert built or key == "raised", (label, modulus)
    for key in (("passed", "plain"), ("failed", "product output"),
                ("passed", "zero"), ("failed", "zero"), ("passed", "cancel"),
                ("failed", "arity 2"), ("passed", "cut value"),
                ("raised", "domain ring"), ("raised", "domain modulus"),
                ("raised", "unknown"), ("raised", "off class")):
        assert seen.get(key), (key, seen)


def _flip_pairs(real):
    """``_augmentation_parity`` plus one on two or more factors: the
    extension no longer splits."""
    return lambda mus: (real(mus) + (len(mus) > 1)) % 2


def test_augmentation_parity_splits():
    # the split identity condition 2 reads, on every parity pattern
    cases = 0
    for q in range(1, 9):
        for mus in itertools.product((0, 1), repeat=q):
            full = ainfty._augmentation_parity(mus)
            assert full == sum((q - i) * m for i, m in enumerate(mus, 1)) % 2
            for cut in range(1, q):
                cases += 1
                assert full == (ainfty._augmentation_parity(mus[:cut])
                                + ainfty._augmentation_parity(mus[cut:])
                                + (q - cut) * sum(mus[:cut])) % 2, (mus, cut)
    assert cases == sum(2 ** q * (q - 1) for q in range(1, 9))
    assert ainfty._splits(8)


def test_augmentation_without_split_is_read_on_words(monkeypatch):
    datum, aug = make_augmentation_datum()
    monkeypatch.setattr(ainfty, "_augmentation_parity",
                        _flip_pairs(ainfty._augmentation_parity))
    assert not ainfty._splits(datum.l)
    c = assemble_differential(datum)
    report = check_augmentation(c, aug)
    assert "words" in vars(c)
    assert not report["condition_2"] and not report["ok"]


# ---------------------------------------------------------------------------
# the Leibniz kernel against the walks it replaced: the row-wise
# differential, the A3 loop, the two-path chain-map check and the unsorted
# solver of tests/ainfty_reference.py


def _several_outputs_datum():
    """The chain datum with a second output e02 on (g01, g12), listed after
    g02 but sorted before it, and a target u02 for a homotopy on e02."""
    d = make_chain_datum()
    return replace(d, generators=d.generators + (
        Generator("e02", 0, 2, 2), Generator("u02", 0, 2, 1)),
        tensors=d.tensors + (T(["g01", "g12"], "e02", S("-t^1")),))


def _leibniz_corpus(rng):
    """(label, c, c', h, k): fixtures, random cases and random data under
    moduli 0-3, with cut tensors and maps (a cancelling pair, and repeated
    cut entries), and a datum where one input chain has two outputs."""
    chain = make_chain_datum()
    units = {g.id: _random_unit(rng) for g in chain.generators}
    several = _several_outputs_datum()
    bases = [
        ("fixture", chain, conjugate_datum(chain, units),
         diagonal_map(chain, units).h + (T(["g01", "g12"], "z02", S("t^4")),),
         _CHAIN_HOMOTOPIES[1]),
        ("augmentation", make_augmentation_datum()[0],
         make_augmentation_datum()[0],
         tuple(T([g], g) for g in "xyzp"), (T(["y"], "x", S("t^1")),)),
        ("several outputs", several, several,
         tuple(T([g.id], g.id) for g in several.generators),
         (T(["g02"], "z02"), T(["e02"], "u02", S("t^2")))),
    ]
    for l in (3, 4):
        c0, c1, _, h01, _, _, _, k = _random_case(rng, l)
        bases.append(("random case", c0.datum, c1.datum, h01.h, k.k))
    for _ in range(4):
        d = _random_datum(rng, rng.randint(2, 4), 0)
        units = {g.id: _random_unit(rng) for g in d.generators}
        k = tuple(T([x.id], y.id, _random_unit(rng)) for x in d.generators
                  for y in d.generators if (x.i, x.j) == (y.i, y.j)
                  and y.mu == x.mu - 1 and rng.random() < 0.4)
        bases.append(("random datum", d, conjugate_datum(d, units),
                      diagonal_map(d, units).h, k))
    for label, d, dp, h, k in bases:
        cases = {
            "plain": (d, dp, h, k),
            "cut tensors": (replace(d, tensors=_cut_entries(d.tensors, rng)),
                            replace(dp, tensors=_cut_entries(dp.tensors, rng)),
                            h, k),
            "cut map": (d, dp, _cut_entries(h, rng), _cut_entries(k, rng)),
            "repeated cut": (d, dp, _cut_entries(_repeat_entry(h, rng), rng),
                             k),
            "mutant": (d, replace(dp, tensors=_flip_one(dp.tensors, rng)),
                       _flip_one(h, rng), k),
            "rejected": (d, dp, h + (T([h[0].inputs[0]], "nowhere"),),
                         k + (T([h[0].inputs[0]], "nowhere"),)),
        }
        for modulus in (0, 1, 2, 3):
            for kind, (x, y, hh, kk) in cases.items():
                yield ((label, kind, modulus),
                       *(assemble_differential(replace(z, modulus=modulus))
                         for z in (x, y)),
                       MapDatum(h=hh), MapDatum(k=kk))


def _by_entry(m):
    return tuple(sorted(m.h, key=lambda e: (e.inputs, e.output)))


def _assert_leibniz_matches_parent(c, cp, h, k, rng, monkeypatch):
    """The differentials, A axioms, one-output d d and chain-map defects,
    chain-map reports (also under ``_odd_first_block``) and the solved far
    end of a homotopy equal the reference's; returns the chain-map
    reports without and with the mutation, the solved map and the
    parent's unsorted one (or what each raised)."""
    ref = ainfty_reference
    for x in (c, cp):
        assert x.differential == ref.row_differential(x)
        assert validate_axioms_A(x) == ref.looped_validate_axioms_A(
            ref.walked(x)) == ref.looped_validate_axioms_A(x)
        one, old = {}, {}
        ainfty._splice(one, ainfty._targets(x._d_parts), x._parts, x._gens,
                       ainfty._d_slot)
        ref.parts_splice(old, x._d_parts, x)
        assert _listed(one) == _listed(old)
    if any(x for row in c.differential.values() for x in row.values()):
        broken = FloerComplex(c.datum, c.words,
                              _flip_entry(c.differential, rng))
        assert validate_axioms_A(broken) == \
            ref.looped_validate_axioms_A(broken)
    try:
        ainfty._validate_maps(c, cp, h)
    except ValueError:
        pass
    else:
        parts = ainfty._components(h.h)
        new = ainfty._chain_defect(c, cp, parts)
        old = {}
        ainfty._fan_out(old, c._d_parts, cp._gens, parts)
        ref.parts_splice(old, parts, cp, exp=1)
        assert _listed(new) == _listed(old)
    report = _outcome(check_chain_map, c, cp, h)
    assert report == _outcome(ref.two_path_check_chain_map, c, cp, h)
    with monkeypatch.context() as m:
        m.setattr(ainfty, "_split_parity",
                  _odd_first_block(ainfty._split_parity))
        mutated = _outcome(check_chain_map, c, cp, h)
        assert mutated == _outcome(ref.two_path_check_chain_map, c, cp, h)
    solved = _outcome(homotopic_map, c, cp, h, k)
    parent = _outcome(ref.unsorted_homotopic_map, ref.walked(c),
                      ref.walked(cp), h, k)
    if isinstance(parent, MapDatum):
        assert solved == MapDatum(h=_by_entry(parent))
    else:
        assert solved == parent
    return report, mutated, solved, parent


def test_leibniz_kernel_matches_the_parent_walks(monkeypatch):
    rng = random.Random(2500)
    seen = {}

    def count(key):
        seen[key] = seen.get(key, 0) + 1

    for (label, kind, modulus), c, cp, h, k in _leibniz_corpus(rng):
        report, mutated, solved, parent = _assert_leibniz_matches_parent(
            c, cp, h, k, rng, monkeypatch)
        if isinstance(report, tuple):
            count("raised")
            continue
        count(("passed" if report["chain_map"] else "failed", kind))
        count(("mutated dual_expansion", mutated["dual_expansion"]))
        if "cut" in kind and report["chain_map"] and modulus % 2 == 0:
            count("cut map passed")
        if parent.h != solved.h:
            count(("reordered", label))
    for key in ("raised", ("passed", "plain"), ("failed", "mutant"),
                ("passed", "cut map"), ("passed", "repeated cut"),
                ("mutated dual_expansion", False), "cut map passed",
                ("reordered", "several outputs")):
        assert seen.get(key), (key, seen)


def test_solved_entries_are_sorted_by_inputs_and_output():
    # (g01, g12) reaches g02 and e02: the solved entries on that chain come
    # out of the bracket in the differential's order, and are returned by
    # (inputs, output)
    c = assemble_differential(_several_outputs_datum())
    k = MapDatum(k=(T(["g02"], "z02"), T(["e02"], "u02", S("t^2"))))
    h1 = homotopic_map(c, c, identity_continuation(c), k)
    assert h1.h == _by_entry(h1)
    assert [e.output for e in h1.h if e.inputs == ("g01", "g12")] == [
        "u02", "z02"]
    parent = ainfty_reference.unsorted_homotopic_map(
        *(ainfty_reference.walked(c),) * 2, identity_continuation(c), k)
    assert [e.output for e in parent.h if e.inputs == ("g01", "g12")] == [
        "z02", "u02"]


def _sparse_datum(rng, labels, n):
    """``n`` random generators on ``labels`` labels."""
    gens = []
    for m in range(n):
        i = rng.randrange(labels)
        gens.append(Generator(f"x{m}", i, rng.randint(i + 1, labels),
                              rng.randint(-2, 2)))
    return AInftyDatum(l=labels, generators=tuple(gens), tensors=())


def test_words_extend_level_by_level_as_the_combinations_list_them():
    rng = random.Random(2600)
    datums = [make_chain_datum(), make_augmentation_datum()[0],
              _several_outputs_datum()]
    datums += [all_pairs_datum(l, [(0, 2), (1, 3)]) for l in (3, 5, 7)]
    datums += [_random_datum(rng, rng.randint(1, 6), 0) for _ in range(40)]
    datums += [_sparse_datum(rng, rng.randint(1, 9), rng.randint(0, 12))
               for _ in range(150)]
    for d in datums:
        assert enumerate_words(d) == \
            ainfty_reference.combinations_enumerate_words(d)
    # the cost follows the chains, not the labels: 2^201 label paths here
    d = AInftyDatum(l=200, generators=(
        Generator("b", 100, 200, 0), Generator("a", 0, 100, 1),
        Generator("c", 0, 100, 0)), tensors=())
    assert enumerate_words(d) == (("a",), ("c",), ("b",), ("a", "b"),
                                  ("c", "b"))
    # the same exceptions, from the same generator checks
    for gens in ((Generator("a", 0, 1, 0), Generator("a", 0, 1, 1)),
                 (Generator("a", 1, 1, 0),), (Generator("a", 0, 3, 0),)):
        d = AInftyDatum(l=2, generators=gens, tensors=())
        assert _outcome(enumerate_words, d) == _outcome(
            ainfty_reference.combinations_enumerate_words, d)
        assert isinstance(_outcome(enumerate_words, d), tuple)


# ---------------------------------------------------------------------------
# the composition certificate and the far end of a homotopy on one-output
# components against the word-basis oracles


_KINDS = ((1, 0), (1, 1), (0, 0), (0, 1))


def _pair_rule(table):
    """The sign rule sum_j U(b_j) + sum_{j<k} P(b_j, b_k) of
    ``_composition_certified``'s proof, b a block's arity parity and
    index-sum parity: ``table`` maps b to U(b) and (b, b') to P(b, b'),
    missing keys reading 0."""
    def rule(arities, mus):
        kinds, pos = [], 0
        for w in arities:
            kinds.append((w % 2, sum(mus[pos:pos + w]) % 2))
            pos += w
        return (sum(table.get(b, 0) for b in kinds)
                + sum(table.get((b, b2), 0) for i, b in enumerate(kinds)
                      for b2 in kinds[i + 1:])) % 2
    return rule


def _reduced_cases():
    """The cases of one and of two groups, each group one block of each
    kind counted odd (or two equal blocks), of arity 1 or 2."""
    blocks = dict(zip(_KINDS, ((1, (0,)), (1, (1,)), (2, (0, 0)),
                               (2, (0, 1)))))
    groups = [[blocks[b] for b, on in zip(_KINDS, v) if on]
              or [blocks[_KINDS[0]]] * 2
              for v in itertools.product((0, 1), repeat=4)]
    for cfg in [[g] for g in groups] + [[g, h] for g in groups
                                        for h in groups]:
        yield (tuple(w for g in cfg for w, _ in g), tuple(map(len, cfg)),
               tuple(m for g in cfg for _, ms in g for m in ms))


def _gf2_rank(rows):
    """Rank over GF(2) of 0/1 rows, by elimination on the leading bit."""
    pivots = {}
    for row in rows:
        x = int("".join(map(str, row)), 2)
        while x and x.bit_length() in pivots:
            x ^= pivots[x.bit_length()]
        if x:
            pivots[x.bit_length()] = x
    return len(pivots)


def test_listed_cases_decide_the_composition_identity():
    # the rank test of _composition_certified's proof: over the 20 basis
    # rules of the pair shape, the differences of the 272 reduced cases
    # span a space of dimension 15, and the listed cases span it too
    tables = [{b: 1} for b in _KINDS] + [{(b, b2): 1} for b in _KINDS
                                         for b2 in _KINDS]
    rules = [_pair_rule(t) for t in tables]

    def row(case):
        return [int(not ainfty._composition_holds(r, *case)) for r in rules]

    reduced = [row(case) for case in _reduced_cases()]
    listed = [row(case) for case in ainfty._composition_cases()]
    assert len(reduced) == 272 and len(listed) == 15
    assert _gf2_rank(reduced) == _gf2_rank(listed) == \
        _gf2_rank(reduced + listed) == 15
    # every case of composition_sign_identity(4) lies in that span, and
    # those at q <= 3 do not span it
    exhaustive = {3: [], 4: []}
    for q in range(1, 5):
        for inner in (c for n in range(1, q + 1) for c in _compositions(q, n)):
            for grouping in (c for n in range(1, len(inner) + 1)
                             for c in _compositions(len(inner), n)):
                for mus in itertools.product((0, 1), repeat=q):
                    for top in exhaustive:
                        if q <= top:
                            exhaustive[top].append(row((inner, grouping, mus)))
    assert _gf2_rank(exhaustive[3]) < 15
    assert _gf2_rank(exhaustive[4]) == _gf2_rank(exhaustive[4] + listed) == 15
    assert all(sum(inner) <= 4 for inner, _, _ in ainfty._composition_cases())
    # _split_parity has the pair shape: U = 0 and P(b, b') = (w - 1) +
    # (w' - 1) mu, with w, w' the arities and mu the index sum of b
    real = _pair_rule({(b, b2): (b[0] + 1 + (b2[0] + 1) * b[1]) % 2
                       for b in _KINDS for b2 in _KINDS})
    for q in range(1, 7):
        for parts in _ref_compositions(q):
            for mus in itertools.product((0, 1), repeat=q):
                assert ainfty._split_parity(parts, mus) == real(parts, mus)


def _graded_factor_dropped(arities, mus):
    """``_split_parity`` without the graded factor of even blocks."""
    r = len(arities)
    return sum((r - j) * (w - 1) for j, w in enumerate(arities, 1)) % 2


def _j_for_r_minus_j(arities, mus):
    """``_split_parity`` with j in place of r - j."""
    exp = left = pos = 0
    for j, w in enumerate(arities, 1):
        exp += j * (w - 1)
        if w % 2 == 0:
            exp += left
        left += sum(mus[pos:pos + w])
        pos += w
    return exp % 2


def test_composition_certificate_is_cheap_and_cached():
    calls = []
    real = ainfty._split_parity

    def rule(arities, mus):
        calls.append(1)
        return real(arities, mus)

    assert ainfty._composition_certified(rule)
    # three calls per case and one per group: 15 cases, 28 groups
    assert len(calls) == 3 * 15 + 28
    assert ainfty._composition_certified(rule)
    assert len(calls) == 73


_MUTANTS = {"graded factor dropped": _graded_factor_dropped,
            "j for r - j": _j_for_r_minus_j,
            "odd first block": _odd_first_block(ainfty._split_parity)}


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_split_parity_mutants_fail_the_composition_certificate(
        name, chain_datum, conjugated_datum, chain_units, monkeypatch):
    # each mutant fails the certificate (and the exhaustive identity at
    # q = 4); the check then composes on the word basis, and its report
    # is the oracle's
    rule = _MUTANTS[name]
    assert ainfty._composition_certified(ainfty._split_parity)
    assert not ainfty._composition_certified(rule)
    rng = random.Random(2950)
    c0, c1 = (assemble_differential(d)
              for d in (chain_datum, conjugated_datum))
    h01 = MapDatum(h=diagonal_map(chain_datum, chain_units).h + (
        T(["g01", "g12"], "z02", S("t^4")),))
    cases = [(c0, c1, c1, h01, identity_continuation(c1))]
    for _ in range(3):
        cases.append(_random_case(rng, rng.randint(2, 4))[:5])
    with monkeypatch.context() as m:
        m.setattr(ainfty, "_split_parity", rule)
        assert not composition_sign_identity(4)["holds"]
        for args in cases:
            got, composed = _against_word_basis("compose", args, monkeypatch)
            assert composed and isinstance(got, dict), (name, got)


def _mixed_moduli(d, units, v):
    """Complexes c0 over Z, c1 = d conjugated by ``units`` mod 2 and c2 =
    c1 conjugated by ``v``, with the index of its first generator raised
    by 2, mod 2; the diagonal maps c1 -> c0 and c2 -> c1 validate, and
    their composite breaks its index shift over Z."""
    d = replace(d, modulus=0)
    d1 = replace(conjugate_datum(d, units), modulus=2)
    first = d.generators[0]
    d2 = replace(conjugate_datum(d1, v), generators=(
        replace(first, mu=first.mu + 2),) + d.generators[1:])
    return ((assemble_differential(x) for x in (d, d1, d2)),
            diagonal_map(d, units), diagonal_map(d1, v))


def _composition_corpus(rng, l):
    """(label, kind, args) on all-pairs data at ``l`` on Z or modulus 2:
    diagonal maps, arity-2 entries and cut entries composed and solved for
    the far end of a shadow homotopy, and one mixed-moduli case of each."""
    base = all_pairs_datum(l, [(0, 2), (l - 2, l)],
                           modulus=2 * rng.randint(0, 1))
    d = conjugate_datum(base, random_units(rng, base))
    units, v = random_units(rng, d), random_units(rng, d)
    d1 = conjugate_datum(d, units)
    diag, diag12 = diagonal_map(d, units).h, diagonal_map(d1, v).h
    arity2 = diag + (T(["g01", "g12"], "z02", S("3t^1")),)
    arity2_12 = diag12 + (T([f"g{l - 2}{l - 1}", f"g{l - 1}{l}"],
                            f"z{l - 2}{l}", S("-t^2/3")),)
    cut = tuple(T(e.inputs, e.output, e.coeff.restrict(e.coeff.valuation() + 1))
                for e in diag)
    k = MapDatum(k=(T(["s02"], "z02", S("t^1 - 2t^6")),
                    T([f"s{l - 2}{l}"], f"z{l - 2}{l}", S("-t^2/3"))))

    def fresh():
        return [assemble_differential(x)
                for x in (d, d1, conjugate_datum(d1, v))]

    for label, h01, h12 in (("diagonal", diag, diag12),
                            ("arity 2", arity2, arity2_12),
                            ("cut", cut, diag12)):
        yield label, "compose", (*fresh(), MapDatum(h=h01), MapDatum(h=h12))
        yield label, "solve", (*fresh()[:2], MapDatum(h=h01), k)
    (c0, c1, c2), h01, h12 = _mixed_moduli(d, units, v)
    yield "mixed", "compose", (c0, c1, c2, h01, h12)
    yield "mixed", "solve", (c0, c2, MapDatum(h=h01.h), k)


def assert_composition_and_far_end_match(l, seed, monkeypatch):
    """``check_composition`` and ``homotopic_map`` on all-pairs data at
    ``l`` equal the word-basis oracles: exact data composes nothing, cut
    entries compose, and the mixed-moduli cases raise the oracles'
    ``DegreeViolation``; returns the number of outcomes compared."""
    count = 0
    for label, kind, args in _composition_corpus(random.Random(seed), l):
        got, composed = _against_word_basis(kind, args, monkeypatch)
        if label == "mixed":
            assert got[0] is DegreeViolation, (label, kind, got)
        else:
            assert composed == (label == "cut"), (label, kind)
            assert kind == "solve" or got["composition"], (label, got)
        count += 1
    return count


@pytest.mark.parametrize("l", [4, 5])
def test_composition_and_far_end_match_on_all_pairs(l, monkeypatch):
    assert assert_composition_and_far_end_match(l, 2900 + l, monkeypatch) == 8


def test_composition_and_far_end_match_the_word_basis(
        chain_datum, conjugated_datum, chain_units, monkeypatch):
    # reports, sorted entries and exceptions equal the word-basis oracles'
    # on the fixtures, on random cases under moduli 0-3 (arity-2 entries),
    # on cut entries, on mixed moduli and on given differentials; exact
    # data composes only under an odd intermediate modulus
    rng = random.Random(2900)
    seen = {}

    def run(label, kind, *args):
        got, composed = _against_word_basis(kind, args, monkeypatch)
        key = "raised" if isinstance(got, tuple) else composed
        seen[label, kind, key] = seen.get((label, kind, key), 0) + 1
        return composed

    diag = diagonal_map(chain_datum, chain_units)
    h01 = MapDatum(h=diag.h + (T(["g01", "g12"], "z02", S("t^4")),
                               T(["g12", "g23"], "z13", S("-t^1"))))
    h12 = MapDatum(h=tuple(T([g.id], g.id, ONE)
                           for g in chain_datum.generators) + (
        T(["g12", "g23"], "z13", S("-2t^1")),))
    for modulus in (0, 1, 2):
        c0, c1 = (assemble_differential(replace(d, modulus=modulus))
                  for d in (chain_datum, conjugated_datum))
        assert run("fixture", "compose", c0, c1, c1, h01, h12) == \
            bool(modulus % 2)
        for entries in _CHAIN_HOMOTOPIES:
            assert not run("fixture", "solve", c0, c1, diag,
                           MapDatum(k=entries))
    for _ in range(8):
        c0, c1, c2, h01, h12, h0, _, k = _random_case(rng, rng.randint(2, 5))
        assert any(e.arity == 2 for e in h01.h + h12.h)
        for moduli in ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3),
                       (0, 2, 1), (3, 0, 2)):
            def fresh():
                return [assemble_differential(replace(x.datum, modulus=m))
                        for x, m in zip((c0, c1, c2), moduli)]

            assert run("random", "compose", *fresh(), h01, h12) == \
                bool(moduli[1] % 2)
            assert not run("random", "solve", *fresh()[:2], h0, k)
            assert run("cut", "compose", *fresh(),
                       MapDatum(h=_cut_entries(h01.h, rng)), h12)
            assert run("cut", "solve", *fresh()[:2],
                       MapDatum(h=_cut_entries(h0.h, rng)), k)
        x, y, z = fresh()
        given = [FloerComplex(w.datum, w.words, w.differential)
                 for w in (x, y)]
        assert run("given", "compose", x, given[1], z, h01, h12)
        assert run("given", "solve", given[0], y, h0, k)
        assert run("given", "solve", x, given[1], h0, k)
        # a given basis without its longer words, and no differential
        short = FloerComplex(y.datum, tuple(w for w in y.words if len(w) < 2))
        assert run("given", "compose", x, short, z, h01, h12)
        assert _against_word_basis("chain", (x, short, h01), monkeypatch)[1]
        (m0, m1, m2), m01, m12 = _mixed_moduli(
            c0.datum, *(random_units(rng, c0.datum) for _ in range(2)))
        run("mixed", "compose", m0, m1, m2, m01, m12)
        run("mixed", "solve", m0, m2, m01, k)
    for key in (("random", "compose", False), ("random", "compose", True),
                ("random", "solve", False), ("cut", "compose", True),
                ("cut", "solve", True), ("given", "solve", True),
                ("mixed", "compose", "raised"), ("mixed", "solve", "raised")):
        assert seen.get(key), (key, seen)


def test_exact_composition_and_far_end_build_no_words(
        chain_datum, conjugated_datum, chain_units, monkeypatch):
    # with every word-basis builder raising, exact compositions and far
    # ends are still decided, and no complex keeps words or a differential
    rng = random.Random(2960)
    cases = []
    for modulus in (0, 2):
        c0, c1 = (replace(d, modulus=modulus)
                  for d in (chain_datum, conjugated_datum))
        h = diagonal_map(chain_datum, chain_units)
        cases.append(((c0, c1, c1), h, identity_continuation(
            assemble_differential(c1)), MapDatum(k=_CHAIN_HOMOTOPIES[3])))
    for _ in range(4):
        c0, c1, c2, h01, h12, h0, _, k = _random_case(rng, rng.randint(2, 5))
        cases.append(((c0.datum, c1.datum, c2.datum), h01, h12, k))
    for label, kind, args in _composition_corpus(rng, 4):
        if label in ("diagonal", "arity 2") and kind == "compose":
            cases.append(((*(c.datum for c in args[:3]),), *args[3:],
                          MapDatum(k=(T(["s02"], "z02", S("t^1")),))))

    def boom(*args, **kwargs):
        raise AssertionError("word basis")

    for name in ("_mat_compose", "_fan_in_matrix", "enumerate_words"):
        monkeypatch.setattr(ainfty, name, boom)
    for datums, h01, h12, k in cases:
        cs = [assemble_differential(d) for d in datums]
        assert check_composition(*cs, h01, h12)["composition"]
        assert homotopic_map(cs[0], cs[1], h01, k).h
        assert not any(name in vars(x) for x in cs
                       for name in ("words", "differential"))
