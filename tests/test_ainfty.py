"""The sign engine: assembled differentials, maps, homotopies, invariants."""

from __future__ import annotations

import itertools
import random

import pytest

from openstrings.ainfty import (
    AInftyDatum,
    Augmentation,
    DegreeViolation,
    Generator,
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
    _mat_add,
    _mat_compose,
    _mat_is_zero,
    _mat_scale,
)
from openstrings.novikov import NovikovSeries

from conftest import (
    ONE,
    S,
    T,
    conjugate_datum,
    diagonal_map,
    make_augmentation_datum,
    make_chain_datum,
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


def test_broken_associativity_detected(chain_datum):
    tensors = chain_datum.tensors[:-1] + (
        T(["g02", "g23"], "g03", S("-3t^2")),)
    bad = AInftyDatum(l=3, generators=chain_datum.generators,
                      tensors=tensors, modulus=0)
    assert not check_a_infinity(bad)["square_zero"]


def test_axioms_hold_on_fixture(chain_complex):
    rep = validate_axioms_A(chain_complex)
    assert rep["ok"], rep


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
    assert _mat_is_zero(_mat_add(lhs, _mat_scale(rhs, -1)))
    mutated = tuple(
        TensorEntry(e.inputs, e.output,
                    e.coeff.scale(-1) if e.arity == 2 else e.coeff)
        for e in composite.h)
    lhs_bad = assemble_continuation(c0, c1, MapDatum(h=mutated))
    assert not _mat_is_zero(_mat_add(lhs_bad, _mat_scale(rhs, -1)))


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
    datum, _ = make_augmentation_datum()
    c = assemble_differential(datum)
    with pytest.raises(DegreeViolation):
        check_augmentation(c, Augmentation(values={"x": ONE}))
    with pytest.raises(ValueError):
        check_augmentation(c, Augmentation(values={"nope": ONE}))


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


def test_broken_augmentation_reported():
    datum, _ = make_augmentation_datum()
    c = assemble_differential(datum)
    bad = Augmentation(values={"y": ONE, "z": ONE, "p": ONE})
    rep = check_augmentation(c, bad)
    assert not rep["condition_1"]
    assert not rep["ok"]


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
    reference expansion on the given data."""
    fmat = assemble_continuation(c0, c1, h01)
    assert fmat == _ref_continuation(c1, h01)
    assert assemble_continuation(c1, c2, h12) == _ref_continuation(c2, h12)
    kk = assemble_homotopy(c0, c1, h0, h1, k)
    assert kk == _ref_homotopy(c1, h0, h1, k)
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
