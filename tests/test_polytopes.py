"""Face enumeration, f-vectors, orientation signs and the cellular boundary."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

from openstrings import cli, polytopes
from openstrings.polytopes import (
    UnsupportedL,
    assoc_facet_parity,
    assoc_facet_sign,
    boundary_map_consistency,
    enumerate_faces,
    f_vector,
    face_dimension,
    facets_with_signs,
    multi_lower_sign,
    multi_upper_sign,
    serialize_face,
    signed_boundary,
)

from conftest import child_env
import polytopes_reference as ref


def _ballot_count(m: int) -> int:
    """Dyck paths of length 2m by lattice walk, no closed form."""
    heights = {0: 1}
    for _ in range(2 * m):
        nxt = {}
        for h, ways in heights.items():
            for dh in (1, -1):
                g = h + dh
                if g >= 0:
                    nxt[g] = nxt.get(g, 0) + ways
        heights = nxt
    return heights.get(0, 0)


VERTEX_COUNTS = {3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429, 9: 1430}


def test_vertex_counts_match_ballot_oracle():
    for l, frozen in VERTEX_COUNTS.items():
        fv = f_vector("K", l)
        assert fv[0] == frozen
        assert fv[0] == _ballot_count(l - 1)


def test_point_and_interval_cases():
    assert f_vector("K", 2) == []          # a point has no proper faces
    assert f_vector("K", 3) == [2]
    assert f_vector("K", 4) == [5, 5]      # the pentagon
    assert f_vector("K", 5) == [14, 21, 9]


def test_multiplihedron_f_vectors():
    # painted-tree counts: 2, 6, 21, 80 vertices for l = 2..5
    assert f_vector("J", 2) == [2]
    assert f_vector("J", 3) == [6, 6]
    assert f_vector("J", 4) == [21, 32, 13]
    assert f_vector("J", 5) == [80, 165, 110, 25]


@pytest.mark.parametrize("family,lmax,lmin", [("K", 7, 2), ("J", 6, 1)])
def test_euler_characteristic_is_one(family, lmax, lmin):
    for l in range(lmin, lmax + 1):
        faces = enumerate_faces(family, l)
        chi = sum((-1) ** face_dimension(f) for f in faces)
        assert chi == 1, (family, l, chi)


@pytest.mark.parametrize("family,lmin", [("K", 2), ("J", 1)])
def test_boundary_squares_to_zero(family, lmin):
    for l in range(lmin, 7):
        report = boundary_map_consistency(family, l)
        assert report["dd_zero"], (family, l, report["failures"][:3])


def test_face_serialization_unique():
    for family, l in (("K", 5), ("J", 4)):
        faces = enumerate_faces(family, l)
        labels = [serialize_face(f) for f in faces]
        assert len(labels) == len(set(labels))


def test_enumerate_by_dimension():
    faces = enumerate_faces("K", 5, dim=1)
    assert len(faces) == 21
    assert all(face_dimension(f) == 1 for f in faces)


def test_signed_boundary_antisymmetry_of_squares():
    # every codimension-2 face arises from exactly two facet chains
    for family, l in (("K", 5), ("J", 4)):
        top = enumerate_faces(family, l, dim=None)
        by_label = {serialize_face(f): f for f in top}
        total = {}
        cells = [f for f in top if face_dimension(f) == max(
            face_dimension(g) for g in top)]
        for cell in cells:
            for face, s1 in signed_boundary(cell).items():
                for sub, s2 in signed_boundary(face).items():
                    key = serialize_face(sub)
                    total[key] = total.get(key, 0) + s1 * s2
        assert all(v == 0 for v in total.values()), (family, l)


class TestSignConventions:
    def test_assoc_sign_from_parity(self):
        for l1 in range(2, 6):
            for l2 in range(2, 6):
                for i in range(1, l1 + 1):
                    p = assoc_facet_parity(l1, l2, i)
                    assert p == (l1 * l2 + i * (l2 - 1)) % 2
                    assert assoc_facet_sign(l1, l2, i) == (1 if p else -1)

    def test_multi_lower_opposite_convention(self):
        for l1 in range(2, 5):
            for l2 in range(2, 5):
                for i in range(1, l1 + 1):
                    assert multi_lower_sign(l1, l2, i) == -assoc_facet_sign(
                        l1, l2, i)

    def test_multi_upper_examples(self):
        # parity = sum (q - j)(k_j - 1) over the composition
        assert multi_upper_sign((1, 2)) == 1
        assert multi_upper_sign((2, 1)) == -1
        assert multi_upper_sign((1, 2, 1)) == -1
        assert multi_upper_sign((1, 1, 1)) == 1

    def test_facet_tables_frozen(self):
        ks = [(f.params, f.orientation_sign)
              for f in facets_with_signs("K", 5)][:5]
        assert ks == [((2, 4, 1), 1), ((2, 4, 2), -1), ((3, 3, 1), 1),
                      ((3, 3, 2), 1), ((3, 3, 3), 1)]
        js = [(f.kind, f.params, f.orientation_sign)
              for f in facets_with_signs("J", 3)]
        assert js == [
            ("multi_end", (0,), -1),
            ("multi_end", (1,), 1),
            ("multi_lower", (2, 2, 1), -1),
            ("multi_lower", (2, 2, 2), 1),
            ("multi_upper", (2, (1, 2)), 1),
            ("multi_upper", (2, (2, 1)), -1),
        ]
        # below l = 2, K has no facets and J only its two interval ends
        for l in (0, 1):
            assert facets_with_signs("K", l) == []
            assert [(f.kind, f.params, f.orientation_sign, f.face)
                    for f in facets_with_signs("J", l)] == [
                ("multi_end", (0,), -1, "[0]"), ("multi_end", (1,), 1, "[1]")]

    def test_facet_signs_match_helpers(self):
        for f in facets_with_signs("K", 6):
            l1, l2, i = f.params
            assert f.orientation_sign == assoc_facet_sign(l1, l2, i)
        for f in facets_with_signs("J", 5):
            if f.kind == "multi_lower":
                l1, l2, i = f.params
                assert f.orientation_sign == multi_lower_sign(l1, l2, i)
            elif f.kind == "multi_upper":
                _, parts = f.params
                assert f.orientation_sign == multi_upper_sign(tuple(parts))


@pytest.mark.parametrize("family,lmax", [("K", 10), ("J", 8)])
def test_counted_f_vector_matches_enumeration(family, lmax):
    for l in range(lmax + 1):
        dims = Counter(face_dimension(f) for f in enumerate_faces(family, l))
        top = max(dims)
        assert f_vector(family, l) == [dims[d] for d in range(top)], (family, l)


def _kirkman_cayley(l: int) -> list:
    """Dissections of an (l+1)-gon by k = l-2-d diagonals, d = 0 .. l-3."""
    n = l + 1
    return [comb(n - 3, k) * comb(n + k - 1, k) // (k + 1)
            for k in range(l - 2, 0, -1)]


def test_counted_f_vector_beyond_the_budget(monkeypatch):
    monkeypatch.setenv("OPENSTRINGS_MAX_L", "30")
    for l in range(2, 31):
        assert f_vector("K", l) == _kirkman_cayley(l), l
    # multiplihedron vertices (OEIS A121988)
    vertices = [2, 6, 21, 80, 322, 1348, 5814, 25674, 115566, 528528]
    assert [f_vector("J", l)[0] for l in range(2, 12)] == vertices
    for l in range(2, 21):
        fv = f_vector("J", l)
        assert len(fv) == l - 1
        # Euler: proper faces plus the top cell of dimension l-1
        chi = sum((-1) ** d * n for d, n in enumerate(fv)) + (-1) ** (l - 1)
        assert chi == 1, l


def _flip_assoc(l1, l2, i):
    return -assoc_facet_sign(l1, l2, i)


def _odd(v):
    return 1 if v % 2 else -1


def _assoc_without_i(l1, l2, i):
    return _odd(l1 * l2)


def test_boundary_check_computes_each_boundary_once(monkeypatch):
    # a split sign without its i-term fails the certificate, so the check
    # enumerates
    calls = []
    real = polytopes.signed_boundary

    def counting(face):
        calls.append(face)
        return real(face)

    monkeypatch.setattr(polytopes, "signed_boundary", counting)
    monkeypatch.setattr(polytopes, "assoc_facet_sign", _assoc_without_i)
    for family, l in (("K", 6), ("J", 5)):
        calls.clear()
        report = boundary_map_consistency(family, l)
        assert not polytopes._certified(family, l)
        assert len(calls) == report["faces"], (family, l)


def test_passing_boundary_check_enumerates_no_faces(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing check enumerated faces")

    monkeypatch.setattr(polytopes, "signed_boundary", refuse)
    monkeypatch.setattr(polytopes, "enumerate_faces", refuse)
    for family, l in (("K", 7), ("J", 5)):
        assert boundary_map_consistency(family, l)["dd_zero"]


@pytest.mark.parametrize("family, l", [("K", l) for l in range(9)]
                         + [("J", l) for l in range(7)])
def test_boundary_check_matches_reference(family, l):
    got = boundary_map_consistency(family, l)
    want = ref.boundary_map_consistency(family, l)
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def _upper_without(j0):
    def sign(parts):
        q = len(parts)
        return -_odd(sum((q - j) * (parts[j - 1] - 1)
                         for j in range(1, q + 1) if j != j0))
    return sign


_passing = polytopes._passing

# each parity rule and passing flipped, or with one term dropped
_MUTANTS = {
    "assoc-flipped": ("assoc_facet_sign", _flip_assoc),
    "assoc-no-l1l2": ("assoc_facet_sign",
                      lambda l1, l2, i: _odd(i * (l2 - 1))),
    "assoc-no-i": ("assoc_facet_sign", _assoc_without_i),
    "lower-flipped": ("multi_lower_sign",
                      lambda l1, l2, i: -multi_lower_sign(l1, l2, i)),
    "lower-no-l1l2": ("multi_lower_sign",
                      lambda l1, l2, i: -_odd(i * (l2 - 1))),
    "lower-no-i": ("multi_lower_sign", lambda l1, l2, i: -_odd(l1 * l2)),
    "upper-flipped": ("multi_upper_sign",
                      lambda parts: -multi_upper_sign(parts)),
    "upper-no-first": ("multi_upper_sign", _upper_without(1)),
    "upper-no-second": ("multi_upper_sign", _upper_without(2)),
    "passing-flipped": ("_passing", lambda e, s: _passing(e, s) ^ 1),
    "passing-none": ("_passing", lambda e, s: 0),
    "passing-no-e": ("_passing", lambda e, s: s),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_mutated_rule_reports_match_reference(monkeypatch, mutant):
    monkeypatch.setattr(polytopes, *_MUTANTS[mutant])
    broken = 0
    for family, lmax in (("K", 6), ("J", 4)):
        for l in range(lmax + 1):
            want = ref.boundary_map_consistency(family, l)
            assert boundary_map_consistency(family, l) == want, (family, l)
            if not want["dd_zero"]:
                broken += 1
                assert not polytopes._certified(family, l), (family, l)
    # every mutant but passing-flipped breaks d(d) somewhere in the sweep
    assert broken or mutant == "passing-flipped"


def test_counted_boundary_check_beyond_the_budget(monkeypatch):
    # K_l is a simple polytope of dimension n = l - 2: a face of dimension
    # d lies in exactly n - d faces of dimension d + 1, so the boundary
    # entries sum to sum_d f_d (n - d)
    monkeypatch.setenv("OPENSTRINGS_MAX_L", "14")
    for l in range(2, 15):
        report = boundary_map_consistency("K", l)
        fv = _kirkman_cayley(l)
        assert report["dd_zero"] and report["failures"] == []
        assert report["faces"] == sum(fv) + 1, l
        assert report["boundary_entries"] == sum(
            n * (l - 2 - d) for d, n in enumerate(fv)), l


@pytest.mark.parametrize("family, lmax", [("K", 8), ("J", 6)])
def test_signed_boundary_matches_reference(family, lmax):
    faces = [f for l in range(lmax + 1) for f in enumerate_faces(family, l)]
    entries = 0
    for face in faces:
        got = signed_boundary(face)
        assert got == ref.signed_boundary(face), serialize_face(face)
        entries += len(got)
    assert entries > 9000


def test_budget_errors():
    with pytest.raises(UnsupportedL):
        f_vector("K", 99)
    with pytest.raises(ValueError):
        f_vector("X", 4)
    with pytest.raises(ValueError, match="nonnegative"):
        f_vector("K", -1)


def test_facet_signs_within_the_budget(capsys):
    with pytest.raises(UnsupportedL):
        facets_with_signs("J", 9)
    with pytest.raises(ValueError, match="nonnegative"):
        facets_with_signs("J", -1)
    with pytest.raises(ValueError, match="nonnegative"):
        facets_with_signs("K", -1)
    assert cli.main(["polytope", "multi", "--l", "40", "--facet-signs"]) == 2
    assert "invalid input" in capsys.readouterr().err


def _run_capped(cap: str) -> subprocess.CompletedProcess:
    """Compute f_vector('K', 7) in a child whose environment holds only
    the budget cap, PATH, and the import path of the openstrings copy
    this process imported."""
    code = ("from openstrings import polytopes as P\n"
            "P.f_vector('K', 7)\n")
    return subprocess.run([sys.executable, "-c", code],
                          env=child_env(OPENSTRINGS_MAX_L=cap),
                          capture_output=True, text=True)


def test_budget_env_cap():
    r = _run_capped("5")
    assert r.returncode != 0
    assert "OPENSTRINGS_MAX_L" in r.stderr
    # the cap stopped the child, not a failed import
    assert "UnsupportedL" in r.stderr
    ok = _run_capped("7")
    assert ok.returncode == 0, ok.stderr


def test_budget_env_malformed(monkeypatch, capsys):
    monkeypatch.setenv("OPENSTRINGS_MAX_L", "abc")
    with pytest.raises(ValueError, match="OPENSTRINGS_MAX_L.*'abc'"):
        f_vector("K", 4)
    assert cli.main(["polytope", "assoc", "--l", "4"]) == 2
    assert "invalid input" in capsys.readouterr().err
