"""End-to-end acceptance: one test per advertised guarantee.

Each test prints a single pass/fail line; the three heavyweight ones
also enforce their wall-clock budget.
"""

from __future__ import annotations

import ast
import contextlib
import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import openstrings

from openstrings.ainfty import (
    MapDatum,
    TensorEntry,
    _mat_add,
    _mat_compose,
    _mat_is_zero,
    assemble_continuation,
    assemble_differential,
    check_a_infinity,
    check_chain_map,
    check_composition,
    check_consistency_continuation,
    check_consistency_homotopy,
    check_homotopy,
    cohomology,
    compose_continuations,
    composition_sign_identity,
    euler_characteristic,
    homotopic_map,
    identity_continuation,
    pair_subcomplex,
    symbolic_delta_squared,
)
from openstrings.maslov import (
    DegenerateCrossing,
    NonTransverseEndpoints,
    dual_path,
    rs_index,
    string_index,
)
from openstrings.morse import SftIndexQuery, sft_index_bound, sphere_fixture
from openstrings.novikov import (
    NovikovSeries,
    format_series,
    invert,
    mul,
    parse_series,
    valuation,
)
from openstrings.polytopes import (
    boundary_map_consistency,
    enumerate_faces,
    f_vector,
    face_dimension,
)

from conftest import CHAIN_UNITS, ONE, S, T, conjugate_datum, diagonal_map, \
    make_chain_datum
from test_maslov import _graph_path, _random_pl_path, line_path
from test_morse import acyclic_datum
from test_morse import build_floer_complex as _build
from test_polytopes import _ballot_count


@contextlib.contextmanager
def criterion(num: int, label: str, limit: float = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL "
              f"[{time.monotonic() - t0:.2f}s]")
        raise
    dt = time.monotonic() - t0
    if limit is not None:
        assert dt < limit, f"criterion {num} took {dt:.2f}s >= {limit}s"
    print(f"criterion {num} ({label}): PASS [{dt:.2f}s]")


def test_criterion_1_maslov_fixtures_and_duality():
    with criterion(1, "crossing indices", limit=10.0):
        # calibration path: A(t) = t against the reference -1
        path = line_path()
        assert rs_index([[-1]], path) == Fraction(-1, 2)
        assert string_index(path) == 1
        # graph paths of (t+1) * diag(-1 x i_M, +1 x (n - i_M))
        for n in range(1, 6):
            for i_m in range(n + 1):
                diag = [-1] * i_m + [1] * (n - i_m)
                assert string_index(_graph_path(diag)) == n - i_m, (n, i_m)
        # index duality on random transverse piecewise-linear paths
        rng = random.Random(1729)
        done = 0
        while done < 100:
            n, p = _random_pl_path(rng)
            try:
                total = string_index(p) + string_index(dual_path(p))
            except (NonTransverseEndpoints, DegenerateCrossing):
                continue
            assert total == n
            done += 1


def test_criterion_2_polytope_combinatorics():
    with criterion(2, "polytopes", limit=60.0):
        # vertex counts against an independent lattice-walk oracle
        for l, frozen in zip(range(3, 10),
                             (2, 5, 14, 42, 132, 429, 1430)):
            fv = f_vector("K", l)
            assert fv[0] == frozen, l
            assert fv[0] == _ballot_count(l - 1), l
        # Euler relation on the closed face lattice
        for l in range(2, 8):
            chi = sum((-1) ** face_dimension(f)
                      for f in enumerate_faces("K", l))
            assert chi == 1, ("K", l)
        for l in range(1, 7):
            chi = sum((-1) ** face_dimension(f)
                      for f in enumerate_faces("J", l))
            assert chi == 1, ("J", l)
        # the facet parities make the cellular boundary square to zero
        for family, lmin in (("K", 2), ("J", 1)):
            for l in range(lmin, 7):
                report = boundary_map_consistency(family, l)
                assert report["dd_zero"], (family, l,
                                           report["failures"][:3])


def test_criterion_3_symbolic_sign_certificates():
    with criterion(3, "sign engine", limit=120.0):
        full = symbolic_delta_squared(8, 8)
        assert full["cancels"], full
        killed = 0
        for mutation in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            if not symbolic_delta_squared(8, 8, mutation=mutation)["cancels"]:
                killed += 1
        assert killed == 3, f"only {killed}/3 sign mutants detected"
        cont = check_consistency_continuation(6, 6)
        assert cont["consistent"], cont
        homo = check_consistency_homotopy(6, 6)
        assert homo["consistent"], homo


def test_criterion_4_chain_maps_homotopies_composition():
    with criterion(4, "continuations"):
        datum = make_chain_datum()
        units = {k: S(v) for k, v in CHAIN_UNITS.items()}
        c = assemble_differential(datum)
        cp = assemble_differential(conjugate_datum(datum, units))

        # identity continuation assembles to the identity matrix
        ident = identity_continuation(c)
        fid = assemble_continuation(c, c, ident)
        assert all(fid.get(w, {}) == {w: ONE} for w in c.words)
        assert check_chain_map(c, c, ident)["chain_map"]

        # chain map: diagonal rescaling passes, one flipped unit fails
        h = diagonal_map(datum, units)
        assert check_chain_map(c, cp, h)["chain_map"]
        flipped = dict(units)
        flipped["g12"] = flipped["g12"].scale(-1)
        assert not check_chain_map(c, cp, diagonal_map(datum, flipped))[
            "chain_map"]

        # homotopy: the triangular solver closes the identity, and a
        # sign-mutated homotopy datum is rejected
        k = MapDatum(k=(T(["ap"], "a"), T(["cp"], "c", S("5t^1")),
                        T(["g01", "g12"], "w02")))
        h0 = identity_continuation(c)
        h1 = homotopic_map(c, c, h0, k)
        assert check_homotopy(c, c, h0, h1, k)["homotopy"]
        kbad = MapDatum(k=(T(["ap"], "a", S("-t^0")),) + k.k[1:])
        assert not check_homotopy(c, c, h0, h1, kbad)["homotopy"]

        # composition: glued tensors match the matrix product, and
        # flipping the glue sign of the arity-2 entries breaks it
        h01 = MapDatum(h=h.h + (T(["g01", "g12"], "z02", S("t^4")),
                                T(["g12", "g23"], "z13", S("-t^1"))))
        h12 = MapDatum(h=tuple(T([g.id], g.id, ONE)
                               for g in datum.generators)
                       + (T(["g12", "g23"], "z13", S("-2t^1")),))
        assert check_composition(c, cp, cp, h01, h12)["composition"]
        composite = compose_continuations(c, cp, cp, h01, h12)
        rhs = _mat_compose(assemble_continuation(cp, cp, h12),
                           assemble_continuation(c, cp, h01))
        mutated = MapDatum(h=tuple(
            TensorEntry(e.inputs, e.output,
                        e.coeff.scale(-1) if e.arity == 2 else e.coeff)
            for e in composite.h))
        defect = _mat_add(assemble_continuation(c, cp, mutated), rhs,
                          sign=-1)
        assert not _mat_is_zero(defect)

        # the underlying exponent identity on all patterns up to q = 4
        rep = composition_sign_identity(4)
        assert rep["holds"], rep


def test_criterion_5_sphere_and_acyclic_cohomology():
    with criterion(5, "floer fixtures"):
        for n in range(2, 6):
            d = sphere_fixture(n)
            assert check_a_infinity(d)["square_zero"]
            sub = pair_subcomplex(d, 0, 1)
            coh = cohomology(assemble_differential(sub), ring="Q")
            assert coh["total_rank"] == 2, n
            assert sorted(g.mu for g in sub.generators) == [0, n]
            # unit law and the full product table; (min, min) has no
            # target in its index so the product vanishes
            table = {}
            for e in d.tensors:
                if e.arity == 2:
                    key = (e.inputs[0].split(".")[0],
                           e.inputs[1].split(".")[0])
                    table[key] = (e.output.split(".")[0], e.coeff)
            assert table[("max", "max")] == ("max", ONE)
            assert table[("max", "min")] == ("min", ONE)
            assert table[("min", "max")] == ("min", ONE)
            assert ("min", "min") not in table
            chi = euler_characteristic(assemble_differential(sub))
            assert chi == -d.metadata["intersection_index"], n

        acyclic = _build(acyclic_datum())
        ac = assemble_differential(acyclic)
        for ring in ("Q", "Z"):
            assert cohomology(ac, ring=ring)["total_rank"] == 0
        assert euler_characteristic(ac) == 0
        assert acyclic.metadata["intersection_index"] == 0


def test_criterion_6_puncture_index_sweep():
    with criterion(6, "index bound"):
        checked = 0
        for n in range(2, 7):
            for g in range(0, 4):
                if n == 2 and g > 0:
                    continue
                for v in range(1, 6):
                    for m in itertools.product((1, 2, 3), repeat=v):
                        bound, ok = sft_index_bound(
                            SftIndexQuery(n, g, v, m))
                        assert ok and bound <= -2, (n, g, v, m, bound)
                        checked += 1
        assert checked > 5000
        assert sft_index_bound(SftIndexQuery(3, 0, 1, (1,))) == (-2, True)


def test_criterion_7_series_arithmetic_properties():
    with criterion(7, "series ring"):
        from test_novikov import random_series

        rng = random.Random(97)
        seen = 0
        for _ in range(340):
            ring = rng.choice(("Z", "Q"))
            a = random_series(rng, ring)
            b = random_series(rng, ring)
            c = random_series(rng, ring)
            seen += 3
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b + c) == mul(a, b) + mul(a, c)
            if a and b:
                assert valuation(mul(a, b)) == valuation(a) + valuation(b)
            for s in (a, b, c):
                assert parse_series(format_series(s), ring=ring) == s
        for _ in range(120):
            ring = rng.choice(("Z", "Q"))
            a = random_series(rng, ring)
            seen += 1
            if not a:
                continue
            (v, lead), *_ = a.terms
            if ring == "Z":
                a = a - NovikovSeries.monomial(lead, v, ring=ring) \
                    + NovikovSeries.monomial(rng.choice((-1, 1)), v,
                                             ring=ring)
            cutoff = v + rng.randint(1, 4)
            inv = invert(a, cutoff)
            defect = mul(a, inv) - ONE if ring == "Z" else (
                mul(a, inv) - NovikovSeries.one(ring="Q"))
            window = cutoff - valuation(a)
            assert all(e >= window for e, _ in defect.terms), (a, inv)
        assert seen >= 1000


def test_library_imports_only_the_standard_library():
    # "no runtime dependencies beyond the standard library", read off the
    # import statements of every module of the package
    package = Path(openstrings.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert package / "_poly.py" in modules
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert (top in sys.stdlib_module_names
                        or top == "openstrings"), (module.name, name)
