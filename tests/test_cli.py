"""Exit codes and byte-exact output of the command-line front end."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from openstrings import cli, maslov
from openstrings.ainfty import (
    MapDatum,
    TensorEntry,
    assemble_differential,
    datum_to_json,
    homotopic_map,
    identity_continuation,
)
from openstrings.novikov import format_series

import cli_reference
from conftest import (
    CHAIN_UNITS,
    ONE,
    S,
    child_env,
    conjugate_datum,
    make_chain_datum,
)

PASS, FAIL, BAD_INPUT = 0, 1, 2


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _entries_json(entries):
    return [{"inputs": list(e.inputs), "output": e.output,
             "coeff": format_series(e.coeff)} for e in entries]


@pytest.fixture(scope="module")
def chain_json():
    return datum_to_json(make_chain_datum())


@pytest.fixture(scope="module")
def conj_json():
    datum = make_chain_datum()
    units = {k: S(v) for k, v in CHAIN_UNITS.items()}
    return datum_to_json(conjugate_datum(datum, units))


@pytest.fixture(scope="module")
def diag_entries():
    datum = make_chain_datum()
    return [{"inputs": [g.id], "output": g.id, "coeff": CHAIN_UNITS[g.id]}
            for g in datum.generators]


@pytest.fixture(scope="module")
def ident_entries():
    datum = make_chain_datum()
    return [{"inputs": [g.id], "output": g.id, "coeff": "t^0"}
            for g in datum.generators]


MORSE_JSON = {
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

LINE_PATH_JSON = {
    "n": 1, "reference": [["-1"]],
    "pieces": [{"t0": "-1", "t1": "1", "A": [[["0", "1"]]]}],
}


# ---------------------------------------------------------------------------
# polytope


def test_polytope_f_vector_default():
    assert run("polytope", "assoc", "--l", "5") == (PASS, "[14,21,9]\n", "")
    assert run("polytope", "assoc", "--l", "5", "--text") == (
        PASS, "14 21 9\n", "")
    assert run("polytope", "multi", "--l", "3", "--f-vector") == (
        PASS, "[6,6]\n", "")


def test_polytope_faces_listing():
    code, out, err = run("polytope", "assoc", "--l", "4", "--faces")
    assert (code, err) == (PASS, "")
    assert out == (
        '[{"dim":0,"face":"(((00)0)0)"},{"dim":0,"face":"((0(00))0)"},'
        '{"dim":0,"face":"((00)(00))"},{"dim":0,"face":"(0((00)0))"},'
        '{"dim":0,"face":"(0(0(00)))"},{"dim":1,"face":"((00)00)"},'
        '{"dim":1,"face":"((000)0)"},{"dim":1,"face":"(0(00)0)"},'
        '{"dim":1,"face":"(0(000))"},{"dim":1,"face":"(00(00))"},'
        '{"dim":2,"face":"(0000)"}]\n')


def test_polytope_boundary_check():
    assert run("polytope", "assoc", "--l", "5", "--boundary-check",
               "--text") == (PASS, "dd_zero=true faces=45 "
                             "boundary_entries=93\n", "")
    code, out, _ = run("polytope", "assoc", "--l", "5", "--boundary-check")
    assert code == PASS
    assert out == ('{"boundary_entries":93,"dd_zero":true,"faces":45,'
                   '"failures":[],"l":5,"polytope":"K"}\n')


def test_polytope_facet_signs():
    code, out, _ = run("polytope", "multi", "--l", "3", "--facet-signs")
    assert code == PASS
    rows = json.loads(out)
    assert [(r["kind"], r["sign"]) for r in rows] == [
        ("multi_lower", 1), ("multi_lower", -1), ("multi_end", -1),
        ("multi_end", 1), ("multi_upper", 1), ("multi_upper", -1)]
    _, text, _ = run("polytope", "multi", "--l", "3", "--facet-signs",
                     "--text")
    assert text.splitlines()[0] == "f(0u(00)) multi_lower(2, 2, 2) +1"


def test_polytope_flag_conflicts():
    code, out, err = run("polytope", "assoc", "--l", "5", "--faces",
                         "--f-vector")
    assert code == BAD_INPUT and not out
    assert "not allowed with argument" in err
    code, _, err = run("polytope", "assoc")
    assert code == BAD_INPUT and "--l" in err
    code, _, err = run("polytope", "nope", "--l", "3")
    assert code == BAD_INPUT and "invalid choice" in err


# ---------------------------------------------------------------------------
# novikov


def test_novikov_eval():
    assert run("novikov", "eval", "3t^1/2 + 7 - t^2") == (
        PASS, '{"series":"7t^0 + 3t^1/2 - t^2","valuation":"0"}\n', "")
    assert run("novikov", "eval", "3t^1/2 + 7 - t^2", "--text") == (
        PASS, "7t^0 + 3t^1/2 - t^2\n", "")
    assert run("novikov", "eval", "t^1 - t^1") == (
        PASS, '{"series":"0","valuation":null}\n', "")


def test_novikov_ring_and_cutoff():
    assert run("novikov", "eval", "1/2t^0 - t^3", "--ring", "Q") == (
        PASS, '{"series":"1/2t^0 - t^3","valuation":"0"}\n', "")
    assert run("novikov", "eval", "t^2 + 1", "--cutoff", "2") == (
        PASS, '{"series":"t^0","valuation":"0"}\n', "")
    code, out, err = run("novikov", "eval", "1/2t^0")
    assert code == BAD_INPUT and not out
    assert err == ("parse error: coefficient 1/2 is not an integer (ring Z)"
                   " (line 1, column 1)\n")


def test_novikov_parse_error_location():
    code, out, err = run("novikov", "eval", "2 + t")
    assert code == BAD_INPUT and not out
    assert err == "parse error: malformed term 't' (line 1, column 5)\n"


@pytest.mark.parametrize("expr", ["t^1/0", "1/0"])
def test_novikov_zero_denominator_is_a_parse_error(expr):
    # a zero denominator used to raise ZeroDivisionError (exit 1)
    assert run("novikov", "eval", expr) == (BAD_INPUT, "", (
        f"parse error: zero denominator in term {expr!r} (line 1, column 1)\n"))


def test_novikov_zero_denominator_cutoff_is_invalid_input():
    assert run("novikov", "eval", "t^1", "--cutoff", "1/0") == (
        BAD_INPUT, "", "invalid input: cutoff '1/0' has a zero denominator\n")


# ---------------------------------------------------------------------------
# maslov


def test_maslov_line_fixture(tmp_path):
    path = write(tmp_path, "line.json", LINE_PATH_JSON)
    assert run("maslov", "index", path) == (PASS, (
        '{"crossings":[{"interval":["-1","-1"],"kernel_dimension":1,'
        '"location":"start","parts":[["1/2",1]]}],"n":1,"rs_index":"-1/2",'
        '"string_index":1}\n'), "")
    assert run("maslov", "index", path, "--text") == (
        PASS, "rs_index=-1/2 string_index=1 crossings=1\n", "")


def test_maslov_non_transverse_reports_null(tmp_path):
    path = write(tmp_path, "closed.json", {
        "n": 1, "reference": [["-1"]],
        "pieces": [{"t0": "-1", "t1": "1", "A": [[["0", "1"]]]},
                   {"t0": "1", "t1": "3", "A": [[["2", "-1"]]]}],
    })
    code, out, _ = run("maslov", "index", path)
    assert code == PASS
    obj = json.loads(out)
    assert obj["string_index"] is None and obj["rs_index"] == "0"
    _, text, _ = run("maslov", "index", path, "--text")
    assert text == "rs_index=0 string_index=none crossings=2\n"


def test_maslov_builds_each_report_once(tmp_path, monkeypatch):
    # without a reference the report against A(start) also gives the
    # string index; with one, the string index needs a second report
    built = []
    real = maslov.rs_index_report
    monkeypatch.setattr(maslov, "rs_index_report",
                        lambda ref, path: built.append(ref) or real(ref, path))
    no_ref = {k: v for k, v in LINE_PATH_JSON.items() if k != "reference"}
    for obj, reports in ((no_ref, 1), (LINE_PATH_JSON, 2)):
        built.clear()
        code, out, _ = run("maslov", "index", write(tmp_path, "p.json", obj))
        assert (code, json.loads(out)["string_index"]) == (PASS, 1)
        assert len(built) == reports


def test_maslov_same_reports_under_optimize(tmp_path):
    # root isolation and the crossing checks raise rather than assert: a
    # report, a report against a reference, a rejected degenerate path, a
    # non-transverse path and an interior double root agree under
    # ``python -O``
    no_ref = {k: v for k, v in LINE_PATH_JSON.items() if k != "reference"}
    degenerate = {"n": 1, "reference": [["3"]],
                  "pieces": [{"t0": "0", "t1": "1", "A": [[["3"]]]}]}
    closed = {"n": 1, "pieces": [{"t0": "-1", "t1": "1", "A": [[["0", "1"]]]},
                                 {"t0": "1", "t1": "3", "A": [[["2", "-1"]]]}]}
    double_root = {"n": 2, "reference": [["0", "0"], ["0", "0"]], "pieces": [
        {"t0": "1", "t1": "2", "A": [[["-2", "0", "1"], ["0"]],
                                     [["0"], ["-2", "0", "1"]]]}]}
    cases = [(no_ref, PASS), (LINE_PATH_JSON, PASS), (degenerate, BAD_INPUT),
             (closed, PASS), (double_root, PASS)]
    for k, (obj, code) in enumerate(cases):
        path = write(tmp_path, f"path{k}.json", obj)
        results = [
            subprocess.run([sys.executable, *flags, "-m", "openstrings.cli",
                            "maslov", "index", path], env=child_env(),
                           capture_output=True, text=True)
            for flags in ([], ["-O"])]
        plain, optimized = ((r.returncode, r.stdout, r.stderr)
                            for r in results)
        assert plain[0] == code, (obj, plain[2])
        assert optimized == plain, obj


def test_maslov_string_entry_is_invalid_input(tmp_path):
    # a string entry is not read as its characters' coefficients
    path = write(tmp_path, "p.json", {"n": 1, "pieces": [
        {"t0": "-1", "t1": "1", "A": [["01"]]}]})
    code, out, err = run("maslov", "index", path)
    assert code == BAD_INPUT and not out
    assert err == "invalid input: matrix entry '01' is not a list of numbers\n"


def test_maslov_string_reference_row_is_invalid_input(tmp_path):
    # a reference row given as a string is not read one character a row
    path = write(tmp_path, "p.json", dict(LINE_PATH_JSON, reference=["5"]))
    code, out, err = run("maslov", "index", path)
    assert code == BAD_INPUT and not out
    assert err == ("invalid input: reference ['5'] is not a list of "
                   "matrix rows\n")


@pytest.mark.parametrize("where,name", [
    (("pieces", 0, "t0"), "t0"), (("pieces", 0, "t1"), "t1"),
    (("pieces", 0, "A", 0, 0, 1), "matrix entry coefficient"),
    (("reference", 0, 0), "reference entry")],
    ids=["t0", "t1", "matrix", "reference"])
def test_maslov_zero_denominator_is_invalid_input(tmp_path, where, name):
    obj = json.loads(json.dumps(LINE_PATH_JSON))
    node = obj
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = "1/0"
    assert run("maslov", "index", write(tmp_path, "p.json", obj)) == (
        BAD_INPUT, "", f"invalid input: {name} '1/0' has a zero denominator\n")


@pytest.mark.parametrize("value", [True, 1.0, "1"],
                         ids=["true", "float", "string"])
def test_maslov_n_must_be_a_json_integer(tmp_path, value):
    # the 1 x 1 line path: n = 1 would pass
    path = write(tmp_path, "p.json", dict(LINE_PATH_JSON, n=value))
    assert run("maslov", "index", path) == (
        BAD_INPUT, "", f"invalid input: n must be an integer, got {value!r}\n")


def test_maslov_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "oops"')
    code, out, err = run("maslov", "index", str(path))
    assert code == BAD_INPUT and not out
    assert err == "parse error at line 2, column 9: Expecting ':' delimiter\n"


def test_maslov_missing_file(tmp_path):
    code, out, err = run("maslov", "index", str(tmp_path / "missing.json"))
    assert code == BAD_INPUT and not out
    assert err.startswith("cannot read input:")


# ---------------------------------------------------------------------------
# ainfty


def test_ainfty_check(tmp_path, chain_json):
    path = write(tmp_path, "chain.json", chain_json)
    assert run("ainfty", "check", path) == (
        PASS, '{"nonzero_entries":[],"square_zero":true,"words":59}\n', "")
    assert run("ainfty", "check", path, "--text") == (
        PASS, "square_zero=true words=59\n", "")


def test_ainfty_check_detects_broken_datum(tmp_path, chain_json):
    broken = json.loads(json.dumps(chain_json))
    for e in broken["tensors"]:
        if e["output"] == "g03" and e["inputs"][0] == "g02":
            e["coeff"] = "-3t^2"
    path = write(tmp_path, "broken.json", broken)
    code, out, _ = run("ainfty", "check", path)
    assert code == FAIL
    assert json.loads(out)["square_zero"] is False


def test_ainfty_string_inputs_are_invalid_input(tmp_path):
    datum = {"labels": 2, "generators": [
        {"id": "a", "i": 0, "j": 1, "mu": 0},
        {"id": "b", "i": 1, "j": 2, "mu": 0},
        {"id": "c", "i": 0, "j": 2, "mu": 0}],
        "tensors": [{"inputs": ["a", "b"], "output": "c", "coeff": "t^1"}]}
    assert run("ainfty", "check", write(tmp_path, "ok.json", datum))[0] == PASS
    # "ab" is not read as the inputs ("a", "b")
    datum["tensors"][0]["inputs"] = "ab"
    code, out, err = run("ainfty", "check", write(tmp_path, "s.json", datum))
    assert code == BAD_INPUT and not out
    assert err == ("invalid input: entry inputs 'ab' are not a list of "
                   "generator ids\n")


@pytest.mark.parametrize("command", [("ainfty", "check"), ("floer", "hf")])
@pytest.mark.parametrize("where,key", [
    ((), "labels"), ((), "modulus"), (("generators", 1), "i"),
    (("generators", 1), "j"), (("generators", 1), "mu"),
    (("tensors", 0), "q")])
@pytest.mark.parametrize("value", [True, 0.5, 2.0, "1"])
def test_datum_non_integer_field_is_invalid_input(tmp_path, command, where,
                                                  key, value):
    # "mu": 0.5 used to give square_zero true and half-integer degrees
    datum = {"labels": 2, "modulus": 2, "generators": [
        {"id": "a", "i": 0, "j": 1, "mu": 0},
        {"id": "b", "i": 1, "j": 2, "mu": 0},
        {"id": "c", "i": 0, "j": 2, "mu": 0}],
        "tensors": [{"q": 2, "inputs": ["a", "b"], "output": "c",
                     "coeff": "t^1"}]}
    assert run(*command, write(tmp_path, "ok.json", datum))[0] == PASS
    node = datum
    for step in where:
        node = node[step]
    node[key] = value
    code, out, err = run(*command, write(tmp_path, "bad.json", datum))
    assert code == BAD_INPUT and not out
    assert err == f"invalid input: {key} must be an integer, got {value!r}\n"


def _small_datum():
    return {"labels": 2, "modulus": 2, "generators": [
        {"id": "a", "i": 0, "j": 1, "mu": 0},
        {"id": "b", "i": 1, "j": 2, "mu": 0},
        {"id": "c", "i": 0, "j": 2, "mu": 0}],
        "tensors": [{"q": 2, "inputs": ["a", "b"], "output": "c",
                     "coeff": "t^1"}]}


@pytest.mark.parametrize("command", [("ainfty", "check"), ("floer", "hf")])
@pytest.mark.parametrize("where,key,value,message", [
    # ids 5 and "5" used to pass check and fail hf inside a sort
    (("generators", 0), "id", 5, "id must be a string, got 5"),
    (("tensors", 0), "inputs", [5, "b"],
     "entry inputs [5, 'b'] are not a list of generator ids"),
    # used to die with "unhashable type: 'list'"
    (("tensors", 0), "output", ["c"], "output must be a string, got ['c']"),
    # used to report "modulus":-2 for a Z-graded computation
    ((), "modulus", -2, "modulus must be >= 0, got -2"),
    (("tensors", 0), "coeff", "t^1/0", None)],
    ids=["id", "inputs", "output", "modulus", "coeff"])
def test_datum_is_checked_at_the_boundary(tmp_path, command, where, key,
                                          value, message):
    datum = _small_datum()
    assert run(*command, write(tmp_path, "ok.json", datum))[0] == PASS
    node = datum
    for step in where:
        node = node[step]
    node[key] = value
    err = (f"invalid input: {message}\n" if message else
           "parse error: zero denominator in term 't^1/0' (line 1, column 1)\n")
    assert run(*command, write(tmp_path, "bad.json", datum)) == (
        BAD_INPUT, "", err)


@pytest.mark.parametrize("command", [("ainfty", "check"), ("floer", "hf")])
def test_datum_unknown_ring_without_tensors_is_invalid_input(tmp_path,
                                                             command):
    datum = dict(_small_datum(), ring="R", tensors=[])
    assert run(*command, write(tmp_path, "r.json", datum)) == (
        BAD_INPUT, "", "invalid input: unknown coefficient ring 'R' "
        "(expected 'Z' or 'Q')\n")


def test_ainfty_map(tmp_path, chain_json, conj_json, diag_entries):
    path = write(tmp_path, "map.json", {
        "source": conj_json, "target": chain_json, "map": diag_entries})
    assert run("ainfty", "map", path) == (
        PASS, '{"chain_map":true,"defects":[],"dual_expansion":true}\n', "")
    assert run("ainfty", "map", path, "--text") == (
        PASS, "chain_map=true dual_expansion=true\n", "")
    bad = [dict(e) for e in diag_entries]
    for e in bad:
        if e["output"] == "g12":
            e["coeff"] = "-" + e["coeff"]
    badpath = write(tmp_path, "mapbad.json", {
        "source": conj_json, "target": chain_json, "map": bad})
    code, out, _ = run("ainfty", "map", badpath)
    assert code == FAIL
    assert json.loads(out)["chain_map"] is False


def test_ainfty_homotopy(tmp_path, chain_json, ident_entries):
    datum = make_chain_datum()
    c = assemble_differential(datum)
    k = MapDatum(k=(TensorEntry(("ap",), "a", ONE),))
    h1 = homotopic_map(c, c, identity_continuation(c), k)
    path = write(tmp_path, "homo.json", {
        "source": chain_json, "target": chain_json,
        "h0": ident_entries, "h1": _entries_json(h1.h),
        "k": [{"inputs": ["ap"], "output": "a", "coeff": "t^0"}]})
    assert run("ainfty", "homotopy", path) == (
        PASS, '{"defects":[],"homotopy":true}\n', "")
    badpath = write(tmp_path, "homobad.json", {
        "source": chain_json, "target": chain_json,
        "h0": ident_entries, "h1": ident_entries,
        "k": [{"inputs": ["ap"], "output": "a", "coeff": "t^0"}]})
    code, out, _ = run("ainfty", "homotopy", badpath)
    assert code == FAIL
    assert json.loads(out)["homotopy"] is False


def test_ainfty_compose(tmp_path, chain_json, conj_json, diag_entries,
                        ident_entries):
    path = write(tmp_path, "comp.json", {
        "c0": chain_json, "c1": conj_json, "c2": conj_json,
        "h01": diag_entries + [
            {"inputs": ["g01", "g12"], "output": "z02", "coeff": "t^4"}],
        "h12": ident_entries + [
            {"inputs": ["g12", "g23"], "output": "z13", "coeff": "-2t^1"}]})
    assert run("ainfty", "compose", path) == (
        PASS, '{"composition":true,"defects":[],"entries":16}\n', "")
    assert run("ainfty", "compose", path, "--text") == (
        PASS, "composition=true entries=16\n", "")


AUG_JSON = {
    "datum": {
        "labels": 2, "modulus": 2, "ring": "Z",
        "generators": [
            {"id": "x", "i": 0, "j": 1, "mu": 0},
            {"id": "y", "i": 0, "j": 1, "mu": 1},
            {"id": "z", "i": 0, "j": 1, "mu": 1},
            {"id": "p", "i": 1, "j": 2, "mu": 1},
        ],
        "tensors": [
            {"inputs": ["x"], "output": "y", "coeff": "t^0"},
            {"inputs": ["x"], "output": "z", "coeff": "t^1"},
        ],
    },
    "augmentation": {"values": [
        {"id": "y", "value": "-t^1"}, {"id": "z", "value": "t^0"},
        {"id": "p", "value": "t^0 + t^1"},
    ]},
}


def test_ainfty_augment(tmp_path):
    path = write(tmp_path, "aug.json", AUG_JSON)
    assert run("ainfty", "augment", path) == (PASS, (
        '{"condition_1":true,"condition_2":true,"ok":true,'
        '"supported_words":5}\n'), "")
    broken = json.loads(json.dumps(AUG_JSON))
    broken["augmentation"]["values"][0]["value"] = "t^0"
    badpath = write(tmp_path, "augbad.json", broken)
    code, out, _ = run("ainfty", "augment", badpath)
    assert code == FAIL
    assert json.loads(out)["condition_1"] is False


def test_augmentation_id_must_be_a_string(tmp_path):
    obj = json.loads(json.dumps(AUG_JSON))
    obj["augmentation"]["values"][0]["id"] = 5
    assert run("ainfty", "augment", write(tmp_path, "aug.json", obj)) == (
        BAD_INPUT, "", "invalid input: id must be a string, got 5\n")


@pytest.mark.parametrize("command", [("ainfty", "check"), ("floer", "hf")])
@pytest.mark.parametrize("datum,message", [
    # a non-object datum used to die with an AttributeError and exit 1
    ([1], "datum must be a JSON object, got [1]"),
    (5, "datum must be a JSON object, got 5"),
    (["points"], "datum must be a JSON object, got ['points']"),
    # used to report "string indices must be integers"
    ({"labels": 2, "generators": {"id": "x"}},
     "generators must be a list, got {'id': 'x'}"),
    ({"labels": 2, "generators": [1]},
     "generators[0] must be a JSON object, got 1"),
    (dict(_small_datum(), tensors={}), "tensors must be a list, got {}"),
    (dict(_small_datum(), tensors=[3]),
     "tensors[0] must be a JSON object, got 3")],
    ids=["list", "number", "points-list", "generators-object",
         "generator-number", "tensors-object", "tensor-number"])
def test_datum_shape_is_checked_at_the_boundary(tmp_path, command, datum,
                                                message):
    assert run(*command, write(tmp_path, "bad.json", datum)) == (
        BAD_INPUT, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("command", [("ainfty", "check"), ("floer", "hf")])
@pytest.mark.parametrize("metadata", [5, "ab", [["a", 1]]],
                         ids=["number", "string", "pairs"])
def test_datum_metadata_must_be_an_object(tmp_path, command, metadata):
    # a number used to print "'int' object is not iterable", a string a
    # dict() update-sequence error, and a list of pairs was accepted
    obj = dict(_small_datum(), metadata=metadata)
    assert run(*command, write(tmp_path, "bad.json", obj)) == (
        BAD_INPUT, "",
        f"invalid input: metadata must be a JSON object, got {metadata!r}\n")
    ok = dict(_small_datum(), metadata={"source": "hand"})
    assert run(*command, write(tmp_path, "ok.json", ok))[0] == PASS


def test_augmentation_rejects_two_values_on_one_generator(tmp_path):
    # the last of the two values used to be kept, and the check passed
    obj = json.loads(json.dumps(AUG_JSON))
    obj["augmentation"]["values"] = [{"id": "y", "value": "t^0"},
                                     {"id": "y", "value": "2t^0"}]
    assert run("ainfty", "augment", write(tmp_path, "aug.json", obj)) == (
        BAD_INPUT, "",
        "invalid input: duplicate augmentation value on generator 'y'\n")


def _identity_on(datum):
    return [{"inputs": [g["id"]], "output": g["id"], "coeff": "t^0"}
            for g in datum["generators"]]


def test_augment_pushforward_needs_both_keys(tmp_path):
    # with one of the two keys the pushforward used to be dropped silently,
    # and the check passed without it
    push = dict(AUG_JSON, source=AUG_JSON["datum"],
                map=_identity_on(AUG_JSON["datum"]))
    code, out, _ = run("ainfty", "augment", write(tmp_path, "push.json", push))
    assert code == PASS and "pushforward" in json.loads(out)
    for key, missing in (("source", "map"), ("map", "source")):
        half = {k: v for k, v in push.items() if k != missing}
        assert run("ainfty", "augment", write(tmp_path, "half.json", half)) == (
            BAD_INPUT, "", f"invalid input: bundle has no part {missing!r}\n")


@pytest.mark.parametrize("value", [5, None, ["t^1"], {"t": 1}, 1.5],
                         ids=["number", "null", "list", "object", "float"])
@pytest.mark.parametrize("action", ["check", "hf", "map", "homotopy",
                                    "compose", "augment"])
def test_series_fields_must_be_strings(tmp_path, chain_json, ident_entries,
                                       action, value):
    # a coeff or value that is no string used to die in parse_series with
    # "'int' object has no attribute 'split'" and exit 1
    entries = json.loads(json.dumps(ident_entries))
    entries[0]["coeff"] = value
    datum = _small_datum()
    datum["tensors"][0]["coeff"] = value
    bundles = {
        "check": datum, "hf": datum,
        "map": {"source": chain_json, "target": chain_json, "map": entries},
        "homotopy": {"source": chain_json, "target": chain_json,
                     "h0": ident_entries, "h1": ident_entries,
                     "k": [dict(entries[0], output="z02")]},
        "compose": {"c0": chain_json, "c1": chain_json, "c2": chain_json,
                    "h01": ident_entries, "h12": entries},
        "augment": json.loads(json.dumps(AUG_JSON)),
    }
    bundles["augment"]["augmentation"]["values"][1]["value"] = value
    command = ("floer" if action == "hf" else "ainfty", action)
    field = "value" if action == "augment" else "coeff"
    assert run(*command, write(tmp_path, "bad.json", bundles[action])) == (
        BAD_INPUT, "", f"invalid input: {field} must be a string, got {value!r}\n")


@pytest.mark.parametrize("command", [("ainfty", "check"), ("floer", "hf"),
                                     ("maslov", "index"),
                                     ("conductor", "exact")], ids=" ".join)
@pytest.mark.parametrize("text", ["[" * 200000, '{"a":' * 200000 + "1",
                                  '{"labels": 2, "generators": '
                                  + "[" * 5000 + "]" * 5000 + "}"],
                         ids=["lists", "objects", "closed"])
def test_deeply_nested_json_is_invalid_input(tmp_path, command, text):
    # json.load used to raise RecursionError out of main, which exited 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run(*command, str(path)) == (
        BAD_INPUT, "", f"invalid input: {path}: JSON nested too deeply\n")


COND_JSON = {
    "h": {"source": ["a", "b"], "target": ["x", "y", "z"],
          "positions": [0, 1], "images": [0, 1]},
    "k": {"source": ["x", "y", "z"], "target": ["u", "v"],
          "positions": [1, 2], "images": [0, 1]}}


@pytest.mark.parametrize("action,change,message", [
    # "source": 1 used to die with an AttributeError and exit 1
    ("map", {"source": 1}, "datum must be a JSON object, got 1"),
    # the entry lists used to be named H and K after the loader's keys
    ("map", {"map": 5}, "map must be a list, got 5"),
    ("map", {"map": [7]}, "map[0] must be a JSON object, got 7"),
    ("homotopy", {"k": {"inputs": ["ap"]}},
     "k must be a list, got {'inputs': ['ap']}"),
    ("augment", {"augmentation": 3},
     "augmentation must be a JSON object, got 3"),
    ("augment", {"augmentation": {"values": {"id": "y"}}},
     "values must be a list, got {'id': 'y'}"),
    ("augment", {"augmentation": {"values": ["y"]}},
     "values[0] must be a JSON object, got 'y'"),
    # a bundle that is no object used to give "list indices must be
    # integers or slices, not str" or "'int' object is not subscriptable",
    # and a missing part its bare key
    ("map", [1], "bundle must be a JSON object, got [1]"),
    ("homotopy", 5, "bundle must be a JSON object, got 5"),
    ("compose", ["c0"], "bundle must be a JSON object, got ['c0']"),
    ("augment", "datum", "bundle must be a JSON object, got 'datum'"),
    ("map", {"source": None}, "bundle has no part 'source'"),
    ("homotopy", {"h1": None}, "bundle has no part 'h1'"),
    ("compose", {"h12": None}, "bundle has no part 'h12'"),
    ("compose", {"h01": {}}, "h01 must be a list, got {}"),
    ("augment", {"datum": None}, "bundle has no part 'datum'"),
    ("exact", [1], "bundle must be a JSON object, got [1]"),
    ("exact", 5, "bundle must be a JSON object, got 5"),
    ("exact", {"k": None}, "bundle has no part 'k'"),
    ("exact", {"h": [0, 1]}, "h must be a JSON object, got [0, 1]")],
    ids=["source", "map-number", "map-entry", "k-object", "augmentation",
         "values-object", "value-string", "map-list", "homotopy-number",
         "compose-list", "augment-string", "no-source", "no-h1", "no-h12",
         "h01-object", "no-datum", "conductor-list", "conductor-number",
         "no-k", "h-list"])
def test_bundle_shape_is_checked_at_the_boundary(tmp_path, chain_json,
                                                 ident_entries, action,
                                                 change, message):
    bundles = {
        "map": {"source": chain_json, "target": chain_json,
                "map": ident_entries},
        "homotopy": {"source": chain_json, "target": chain_json,
                     "h0": ident_entries, "h1": ident_entries, "k": []},
        "compose": {"c0": chain_json, "c1": chain_json, "c2": chain_json,
                    "h01": ident_entries, "h12": ident_entries},
        "augment": AUG_JSON,
        "exact": COND_JSON,
    }
    command = ("conductor" if action == "exact" else "ainfty", action)
    bundle = bundles[action]
    assert run(*command, write(tmp_path, "ok.json", bundle))[0] == PASS
    if isinstance(change, dict):
        # a part changed to None is left out
        change = {k: v for k, v in dict(bundle, **change).items()
                  if v is not None}
    bad = write(tmp_path, "bad.json", change)
    assert run(*command, bad) == (
        BAD_INPUT, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("command,obj,message", [
    (("ainfty", "check"), {"labels": 2}, "datum has no field 'generators'"),
    (("floer", "hf"), {"labels": 2}, "datum has no field 'generators'"),
    (("maslov", "index"), {"n": 1}, "path has no field 'pieces'"),
    (("conductor", "exact"),
     dict(COND_JSON, h={k: v for k, v in COND_JSON["h"].items()
                        if k != "source"}),
     "continuation has no field 'source'")],
    ids=["ainfty-check", "floer-hf", "maslov-index", "conductor-exact"])
def test_missing_field_names_object_and_field(tmp_path, command, obj,
                                              message):
    # these used to print the bare key, e.g. "invalid input: 'generators'"
    assert run(*command, write(tmp_path, "in.json", obj)) == (
        BAD_INPUT, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("command,obj,message", [
    (("maslov", "index"), {"pieces": [{"t0": "0", "A": [[["1"]]]}]},
     "piece has no field 't1'"),
    (("maslov", "index"), {"pieces": [{"t0": "0", "t1": "1"}]},
     "piece has no field 'A'"),
    (("maslov", "index"), {"pieces": [{"A": [[["1"]]]}]},
     "piece has no field 'interval'"),
    (("maslov", "index"), {"pieces": 5}, "pieces must be a list, got 5"),
    (("maslov", "index"), {"pieces": [5]},
     "pieces[0] must be a JSON object, got 5"),
    (("maslov", "index"), [1], "path must be a JSON object, got [1]"),
    (("maslov", "index"), {"pieces": [{"interval": ["0"], "A": [[["1"]]]}]},
     "interval must be a list of two ends, got ['0']"),
    (("maslov", "index"), {"pieces": [{"t0": "0", "t1": "1", "A": 5}]},
     "A 5 is not a list of matrix rows"),
    (("maslov", "index"), {"pieces": [{"t0": "0", "t1": "1",
                                        "matrix": [5]}]},
     "matrix [5] is not a list of matrix rows"),
    # the ChartMismatch checks of make_piece, the path and the reference
    (("maslov", "index"), {"pieces": [{"t0": "0", "t1": "1",
                                        "A": [[["1"], ["0", "1"]],
                                              [["0"], ["1"]]]}]},
     "matrix is not symmetric"),
    (("maslov", "index"), {"pieces": [
        {"t0": "0", "t1": "1", "A": [[["1"]]]},
        {"t0": "1", "t1": "2", "A": [[["1"], ["0"]], [["0"], ["1"]]]}]},
     "pieces have different matrix sizes"),
    (("maslov", "index"), {"pieces": [
        {"t0": "0", "t1": "1", "A": [[["1"]]]},
        {"t0": "1", "t1": "2", "A": [[["2"]]]}]},
     "path is discontinuous at a junction"),
    (("maslov", "index"), {"pieces": [
        {"t0": "0", "t1": "1", "A": [[["1"], ["0"]], [["0"], ["1"]]]}],
        "reference": [["1", "2"], ["0", "1"]]},
     "reference matrix is not symmetric"),
    (("floer", "hf"), {"points": 5, "n": 1}, "points must be a list, got 5"),
    (("floer", "hf"), {"points": [], "n": 1, "flows": 5},
     "flows must be a list, got 5"),
    (("floer", "hf"), {"points": [], "n": 1, "triples": {}},
     "triples must be a list, got {}")],
    ids=["t1", "A", "interval", "pieces", "piece", "path", "ends", "rows",
         "matrix-rows", "asymmetric", "sizes", "discontinuous",
         "asymmetric-reference", "points", "flows", "triples"])
def test_malformed_path_and_morse_fields_are_named(tmp_path, command, obj,
                                                    message):
    # these used to print the bare key ('t1') or a Python TypeError
    # ("'int' object is not iterable")
    assert run(*command, write(tmp_path, "in.json", obj)) == (
        BAD_INPUT, "", f"invalid input: {message}\n")


# a seeded sweep over malformed inputs: whatever a file holds, every
# subcommand that reads one exits 0, 1 or 2 and raises nothing


def _sweep_bundles():
    """(command, bundle): a small valid input, on at most four labels, for
    every subcommand that reads a file."""
    chain = datum_to_json(make_chain_datum())
    ident = _identity_on(chain)
    aug = AUG_JSON["datum"]
    return [
        (("ainfty", "check"), _small_datum()),
        (("ainfty", "check"), chain),
        (("floer", "hf"), chain),
        (("floer", "hf"), MORSE_JSON),
        (("ainfty", "map"), {"source": chain, "target": chain, "map": ident}),
        (("ainfty", "homotopy"), {
            "source": chain, "target": chain, "h0": ident, "h1": ident,
            "k": [{"inputs": ["ap"], "output": "a", "coeff": "t^0"}]}),
        (("ainfty", "compose"), {"c0": chain, "c1": chain, "c2": chain,
                                 "h01": ident, "h12": ident}),
        (("ainfty", "augment"), AUG_JSON),
        (("ainfty", "augment"),
         dict(AUG_JSON, source=aug, map=_identity_on(aug))),
        (("maslov", "index"), LINE_PATH_JSON),
        (("conductor", "exact"), COND_JSON),
    ]


def _containers(obj):
    """``obj`` and every list and object inside it."""
    yield obj
    for v in (obj.values() if isinstance(obj, dict) else obj):
        if isinstance(v, (dict, list)):
            yield from _containers(v)


def _mutated(rng, obj):
    """A copy of ``obj`` with one or two mutations: a key or list element
    deleted, a value replaced by None, 5, 1.5, "", [] or {}, or a list
    element duplicated.  None multiplies a size of the input."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 2)):
        nodes = [n for n in _containers(obj) if n]
        if not nodes:
            break
        node = rng.choice(nodes)
        key = rng.choice(list(node) if isinstance(node, dict)
                         else range(len(node)))
        op = rng.randrange(3)
        if op == 0:
            del node[key]
        elif op == 1 and isinstance(node, list):
            node.insert(key, json.loads(json.dumps(node[key])))
        else:
            node[key] = rng.choice((None, 5, 1.5, "", [], {}))
    return obj


def _sweep(seed, count, folder):
    """Run ``main`` in-process on ``count`` seeded mutations of each bundle
    of ``_sweep_bundles``, written to a file in ``folder``.  Returns the
    number of runs per exit code and the runs that raised or gave another
    code.  Asserts nothing, so that a larger sweep can call it."""
    rng = random.Random(seed)
    path = os.path.join(folder, "mutated.json")
    codes, escaped = {}, []
    for command, bundle in _sweep_bundles():
        for _ in range(count):
            obj = _mutated(rng, bundle)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            try:
                code = run(*command, path)[0]
            except Exception as exc:
                escaped.append((command, obj, repr(exc)))
                continue
            codes[code] = codes.get(code, 0) + 1
            if code not in (PASS, FAIL, BAD_INPUT):
                escaped.append((command, obj, code))
    return codes, escaped


def test_malformed_inputs_exit_0_1_or_2(tmp_path):
    # a coeff or value that is no string used to escape main as an
    # AttributeError
    codes, escaped = _sweep(seed=25, count=100, folder=tmp_path)
    assert escaped == []
    assert codes[PASS] > 20 and codes[FAIL] > 5, codes


def test_ainfty_same_reports_under_optimize(tmp_path, chain_json, conj_json,
                                            diag_entries, ident_entries):
    # no check of the library may vanish under ``python -O``: passing,
    # failing and rejected bundles give the same stdout and exit code
    c = assemble_differential(make_chain_datum())
    k = [{"inputs": ["ap"], "output": "a", "coeff": "t^0"}]
    h1 = homotopic_map(c, c, identity_continuation(c),
                       MapDatum(k=(TensorEntry(("ap",), "a", ONE),)))
    broken = json.loads(json.dumps(chain_json))
    for e in broken["tensors"]:
        if e["output"] == "g03" and e["inputs"][0] == "g02":
            e["coeff"] = "-3t^2"
    bad_sign = [dict(e, coeff="-" + e["coeff"]) if e["output"] == "g12"
                else e for e in diag_entries]
    raising = [{"inputs": ["a"], "output": "ap", "coeff": "t^0"}]
    cases = [
        ("check", chain_json, PASS),
        ("check", broken, FAIL),
        ("map", {"source": conj_json, "target": chain_json,
                 "map": diag_entries}, PASS),
        ("map", {"source": conj_json, "target": chain_json,
                 "map": bad_sign}, FAIL),
        ("map", {"source": chain_json, "target": chain_json,
                 "map": raising}, BAD_INPUT),
        ("homotopy", {"source": chain_json, "target": chain_json,
                      "h0": ident_entries, "h1": _entries_json(h1.h),
                      "k": k}, PASS),
        ("homotopy", {"source": chain_json, "target": chain_json,
                      "h0": ident_entries, "h1": ident_entries, "k": k}, FAIL),
        ("compose", {"c0": chain_json, "c1": conj_json, "c2": conj_json,
                     "h01": diag_entries, "h12": ident_entries + [
                         {"inputs": ["g12", "g23"], "output": "z13",
                          "coeff": "-2t^1"}]}, PASS),
        ("compose", {"c0": chain_json, "c1": chain_json, "c2": chain_json,
                     "h01": ident_entries, "h12": raising}, BAD_INPUT),
    ]
    for n, (action, bundle, code) in enumerate(cases):
        path = write(tmp_path, f"bundle{n}.json", bundle)
        results = [
            subprocess.run([sys.executable, *flags, "-m", "openstrings.cli",
                            "ainfty", action, path], env=child_env(),
                           capture_output=True, text=True)
            for flags in ([], ["-O"])]
        plain, optimized = ((r.returncode, r.stdout) for r in results)
        assert plain[0] == code, (action, n, results[0].stderr)
        assert optimized == plain, (action, n)


# ---------------------------------------------------------------------------
# floer


def test_floer_hf_morse_input(tmp_path):
    path = write(tmp_path, "morse.json", MORSE_JSON)
    assert run("floer", "hf", path, "--rational") == (PASS, (
        '{"degrees":[],"modulus":2,"ranks":{"0":0,"1":0},"ring":"Q",'
        '"total_rank":0}\n'), "")
    assert run("floer", "hf", path) == (PASS, (
        '{"degrees":[],"modulus":2,"ranks":{"0":0,"1":0},"ring":"Z",'
        '"total_rank":0}\n'), "")
    assert run("floer", "hf", path, "--rational", "--text") == (
        PASS, "total_rank=0 ranks=0:0,1:0\n", "")


def test_floer_hf_datum_input(tmp_path, chain_json):
    path = write(tmp_path, "chain.json", chain_json)
    assert run("floer", "hf", path, "--rational") == (PASS, (
        '{"degrees":[0,1,2,3,4,5],"modulus":0,'
        '"ranks":{"0":2,"1":5,"2":5,"3":5,"4":3,"5":1},"ring":"Q",'
        '"total_rank":21}\n'), "")
    assert run("floer", "hf", path, "--rational", "--text") == (
        PASS, "total_rank=21 ranks=0:2,1:5,2:5,3:5,4:3,5:1\n", "")
    # the 2t^(1/2) strand blocks integral elimination
    code, out, err = run("floer", "hf", path)
    assert code == BAD_INPUT and not out
    assert "non-invertible leading coefficient" in err


@pytest.mark.parametrize("key,value,message", [
    ("value", "1/0", "value '1/0' has a zero denominator"),
    ("id", 5, "id must be a string, got 5")], ids=["value", "id"])
def test_floer_hf_morse_point_is_checked(tmp_path, key, value, message):
    obj = json.loads(json.dumps(MORSE_JSON))
    obj["points"][1][key] = value
    assert run("floer", "hf", write(tmp_path, "m.json", obj)) == (
        BAD_INPUT, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("where,key,value", [
    ("flows", "from", ["p"]), ("flows", "to", 1), ("triples", "a", 5),
    ("triples", "b", None), ("triples", "out", ["q"])],
    ids=["from", "to", "a", "b", "out"])
def test_floer_hf_morse_ids_are_checked(tmp_path, where, key, value):
    obj = json.loads(json.dumps(MORSE_JSON))
    obj["triples"] = [{"a": "p", "b": "q", "out": "q", "count": 1,
                       "action": 0}]
    assert run("floer", "hf", write(tmp_path, "m.json", obj))[0] == PASS
    obj[where][0][key] = value
    assert run("floer", "hf", write(tmp_path, "m.json", obj)) == (
        BAD_INPUT, "",
        f"invalid input: {key} must be a string, got {value!r}\n")


def test_floer_hf_rejects_junk(tmp_path):
    path = write(tmp_path, "junk.json", {"what": 1})
    code, _, err = run("floer", "hf", path)
    assert code == BAD_INPUT and err.startswith("invalid input:")


def test_floer_sphere():
    assert run("floer", "sphere", "--n", "3") == (PASS, (
        '{"degrees":[0,3],"n":3,"products":['
        '{"a":"max","b":"max","coefficient":"t^0","out":"max"},'
        '{"a":"max","b":"min","coefficient":"t^0","out":"min"},'
        '{"a":"min","b":"max","coefficient":"t^0","out":"min"}],'
        '"total_rank":2}\n'), "")
    assert run("floer", "sphere", "--n", "3", "--text") == (PASS, (
        "rank=2 degrees=0,3\nmax*max=max\nmax*min=min\nmin*max=min\n"
        "min*min=0\n"), "")
    code, out, _ = run("floer", "sphere", "--n", "2")
    assert code == PASS and json.loads(out)["degrees"] == [0, 2]
    code, _, err = run("floer", "sphere", "--n", "1")
    assert code == BAD_INPUT and "need n >= 2" in err


def test_floer_same_reports_under_optimize(tmp_path, chain_json):
    # the elimination checks raise rather than assert: the Q pass, the Z
    # stop at a non-unit pivot and the sphere agree under ``python -O``
    chain = write(tmp_path, "chain.json", chain_json)
    morse = write(tmp_path, "morse.json", MORSE_JSON)
    cases = [(["hf", chain, "--rational"], PASS), (["hf", chain], BAD_INPUT),
             (["hf", morse], PASS), (["sphere", "--n", "3"], PASS),
             (["sphere", "--n", "4", "--text"], PASS)]
    for argv, code in cases:
        results = [
            subprocess.run([sys.executable, *flags, "-m", "openstrings.cli",
                            "floer", *argv], env=child_env(),
                           capture_output=True, text=True)
            for flags in ([], ["-O"])]
        plain, optimized = ((r.returncode, r.stdout, r.stderr)
                            for r in results)
        assert plain[0] == code, (argv, plain[2])
        assert optimized == plain, argv


# ---------------------------------------------------------------------------
# sft


def test_sft_bound():
    assert run("sft", "bound", "--n", "3", "--g", "0", "--v", "1",
               "--m", "1") == (PASS, (
                   '{"bound":-2,"g":0,"m":[1],"majorant":-2,"n":3,'
                   '"satisfies":true,"v":1}\n'), "")
    assert run("sft", "bound", "--n", "3", "--g", "0", "--v", "1",
               "--m", "1", "--text") == (PASS, "bound=-2 satisfies=true\n",
                                         "")
    assert run("sft", "bound", "--n", "4", "--g", "2", "--v", "2",
               "--m", "3,1") == (PASS, (
                   '{"bound":-22,"g":2,"m":[3,1],"majorant":-10,"n":4,'
                   '"satisfies":true,"v":2}\n'), "")


def test_sft_bad_queries():
    code, _, err = run("sft", "bound", "--n", "3", "--g", "0", "--v", "1",
                       "--m", "x")
    assert code == BAD_INPUT and err.startswith("invalid input:")
    code, _, err = run("sft", "bound", "--n", "2", "--g", "1", "--v", "1",
                       "--m", "1")
    assert code == BAD_INPUT and "genus must vanish" in err
    # used to print int()'s "invalid literal ... with base 10: 'a'"
    for m in ("2,a", "", "1,,2"):
        assert run("sft", "bound", "--n", "3", "--g", "0", "--v", "1",
                   "--m", m) == (BAD_INPUT, "", (
                       "invalid input: m must be comma-separated integers, "
                       f"got {m!r}\n"))


# ---------------------------------------------------------------------------
# conductor


def test_conductor_exact(tmp_path):
    path = write(tmp_path, "cond.json", {
        "h": {"source": ["a", "b"], "target": ["x", "y", "z"],
              "positions": [0, 1], "images": [0, 1]},
        "k": {"source": ["x", "y", "z"], "target": ["u", "v"],
              "positions": [1, 2], "images": [0, 1]}})
    assert run("conductor", "exact", path) == (PASS, (
        '{"cokernel":["a","b"],"exact":true,"image":["x","y"],'
        '"overlap":1}\n'), "")
    assert run("conductor", "exact", path, "--text") == (
        PASS, "exact=true overlap=1\n", "")


def test_conductor_overlap_two_fails(tmp_path):
    path = write(tmp_path, "cond2.json", {
        "h": {"source": ["a", "b"], "target": ["x", "y", "z"],
              "positions": [0, 1], "images": [0, 1]},
        "k": {"source": ["x", "y", "z"], "target": ["u", "v"],
              "positions": [0, 1], "images": [0, 1]}})
    assert run("conductor", "exact", path) == (FAIL, (
        '{"cokernel":["a","b"],"exact":false,"image":["x","y"],'
        '"overlap":2}\n'), "")


def test_conductor_mismatch(tmp_path):
    path = write(tmp_path, "condbad.json", {
        "h": {"source": ["a"], "target": ["x"],
              "positions": [0], "images": [0]},
        "k": {"source": ["DIFFERENT"], "target": ["u"],
              "positions": [0], "images": [0]}})
    code, _, err = run("conductor", "exact", path)
    assert code == BAD_INPUT and "composable pair" in err


def test_conductor_string_labels_are_invalid_input(tmp_path):
    path = write(tmp_path, "conds.json", {
        "h": {"source": "abc", "target": ["x", "y", "z"],
              "positions": [0, 1], "images": [0, 1]},
        "k": {"source": ["x", "y", "z"], "target": ["u", "v"],
              "positions": [1, 2], "images": [0, 1]}})
    code, out, err = run("conductor", "exact", path)
    assert code == BAD_INPUT and not out
    assert err == ("invalid input: a conductor is a list of labels, "
                   "got 'abc'\n")


@pytest.mark.parametrize("label, shown", [
    (1, "1"), (None, "None"), (True, "True"), (["a"], "['a']")])
def test_conductor_labels_must_be_strings(tmp_path, label, shown):
    # a label is not read through str(): [1, null] and ["1", "None"] are
    # not one conductor
    path = write(tmp_path, "condl.json", {
        "h": {"source": ["a", "b"], "target": [label, "y"],
              "positions": [0, 1], "images": [0, 1]},
        "k": {"source": [str(label), "y"], "target": ["u", "v"],
              "positions": [0, 1], "images": [0, 1]}})
    code, out, err = run("conductor", "exact", path)
    assert code == BAD_INPUT and not out
    assert err == ("invalid input: a conductor label must be a string, "
                   f"got {shown}\n")


def test_conductor_fractional_position_is_invalid_input(tmp_path):
    # [0, 1.9] is not truncated to [0, 1]
    path = write(tmp_path, "condf.json", {
        "h": {"source": ["a", "b"], "target": ["x", "y", "z"],
              "positions": [0, 1.9], "images": [0, 1]},
        "k": {"source": ["x", "y", "z"], "target": ["u", "v"],
              "positions": [1, 2], "images": [0, 1]}})
    code, out, err = run("conductor", "exact", path)
    assert code == BAD_INPUT and not out
    assert err.startswith("invalid input: positions must be a list of "
                          "integers")


def test_floer_hf_fractional_count_is_invalid_input(tmp_path):
    # a count of 1.5 is not truncated to 1
    obj = json.loads(json.dumps(MORSE_JSON))
    obj["flows"][0]["count"] = 1.5
    code, out, err = run("floer", "hf", write(tmp_path, "m.json", obj))
    assert code == BAD_INPUT and not out
    assert err == "invalid input: count must be an integer, got 1.5\n"


# ---------------------------------------------------------------------------
# framework behavior


def test_top_level_usage_errors():
    code, _, err = run("nope")
    assert code == BAD_INPUT and "invalid choice" in err
    code, _, err = run()
    assert code == BAD_INPUT and "required: command" in err


_LEAVES = (
    ("polytope", "assoc", "--l", "5"),
    ("novikov", "eval", "t^1"),
    ("maslov", "index", "p.json"),
    *(("ainfty", action, "d.json")
      for action in ("check", "map", "homotopy", "compose", "augment")),
    ("floer", "hf", "d.json"),
    ("floer", "sphere", "--n", "2"),
    ("sft", "bound", "--n", "5", "--g", "3", "--v", "4", "--m", "2,1"),
    ("conductor", "exact", "c.json"),
)

_PARSER_CASES = (
    (), ("-h",), ("nope",), ("nope", "floer", "hf", "d.json"),
    *((cmd, *rest) for cmd in ("polytope", "novikov", "maslov", "ainfty",
                               "floer", "sft", "conductor")
      for rest in (("-h",), (), ("nope",))),
    *(leaf[:n] + rest for leaf in _LEAVES
      for n, rest in ((2, ("-h",)), (2, ()), (len(leaf), ()),
                      (len(leaf), ("--text",)), (len(leaf), ("--bogus",)),
                      (len(leaf), ("extra",)))),
    ("polytope", "assoc", "--l", "5", "--faces", "--f-vector"),
    ("polytope", "assoc", "--l", "5", "--facet-signs", "--boundary-check"),
    ("polytope", "nope", "--l", "3"), ("polytope", "assoc", "--l", "x"),
    ("novikov", "eval", "t^1", "--ring", "R"),
    ("floer", "sphere", "--n", "x"), ("floer", "hf", "d.json", "--rational"),
    ("sft", "bound", "--n", "x", "--g", "3", "--v", "4", "--m", "2"),
    ("--text", "floer", "hf", "d.json"), ("--l", "3", "polytope", "assoc"),
    ("-x", "maslov", "index", "p.json"), ("--", "sft", "bound"),
    ("polytope", "multi", "--l", "4", "--boundary-check"),
    ("polytope", "--faces", "assoc", "--l", "5"),
    ("novikov", "eval", "--ring", "Q", "t^1", "--cutoff", "3/2"),
    ("novikov", "eval", "t^1", "--cutoff", "--ring", "Q"),
    ("sft", "bound", "--n", "5", "--g", "3", "--v", "4", "--m", "2,1",
     "--n", "6"),
    ("polytope", "assoc", "--l", "-5"), ("polytope", "assoc", "--l=5"),
    ("novikov", "eval", ""), ("floer", "hf", "d.json", "--rat"),
)


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sorted(vars(parser.parse_args(argv)).items())
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_parser_matches_the_full_reference_parser(argv, monkeypatch):
    # the parser declares only the requested command's arguments; usage,
    # help, errors and parsed values must be those of the parser that
    # declared every command
    monkeypatch.setenv("COLUMNS", "80")
    argv = list(argv)
    assert _parse(cli.build_parser(), argv) == _parse(
        cli_reference.build_parser(), argv)


# flags and options each leaf may take besides those in _LEAVES
_EXTRAS = {
    ("polytope",): (("--faces",), ("--f-vector",), ("--facet-signs",),
                    ("--boundary-check",)),
    ("novikov", "eval"): (("--ring", "Q"), ("--cutoff", "3/2")),
    ("floer", "hf"): (("--rational",),),
}
# tokens mixed into well-formed argv: names, exact options, abbreviations,
# '=' forms, '--', help, negative numbers, empty strings, values a type or
# a choice refuses, tokens starting with '-' and digits int() accepts
_TOKENS = (
    "polytope", "ainfty", "floer", "check", "hf", "sphere", "assoc", "nope",
    "--l", "--faces", "--f-vector", "--facet-signs", "--boundary-check",
    "--ring", "--cutoff", "--rational", "--n", "--g", "--v", "--m", "--text",
    "--f", "--fac", "--bound", "--rat", "--te", "--l=5", "--ring=Q", "--n=2",
    "--text=1", "-n", "--", "-h", "--help", "-5", "-1.5", "", "5", "x", "2,1",
    "Z", "Q", "R", "t^1", "d.json", "-t", " -5", "-x y", "3", " 7 ", "\u0663")


def _well_formed(rng):
    """A leaf of _LEAVES, with or without --text and extras of the leaf,
    its options and positional in a random order."""
    leaf = rng.choice(_LEAVES)
    head = 1 if leaf[0] == "polytope" else 2
    tail, groups = list(leaf[head:]), []
    while tail:
        n = 2 if tail[0].startswith("--") else 1
        groups.append(tail[:n])
        del tail[:n]
    extras = _EXTRAS.get(leaf[:head], ())
    # at most one flag of polytope's exclusive group
    k = rng.randint(0, 1 if leaf[0] == "polytope" else len(extras))
    groups += map(list, rng.sample(extras, k))
    if rng.random() < 0.5:
        groups.append(["--text"])
    rng.shuffle(groups)
    return [*leaf[:head], *(t for g in groups for t in g)]


def _mixed(rng):
    """A well-formed argv with one to three tokens inserted, dropped,
    repeated or replaced."""
    argv = _well_formed(rng)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(argv) + 1)
        op = rng.randrange(4) if k < len(argv) else 0
        if op == 0:
            argv.insert(k, rng.choice(_TOKENS))
        elif op == 1:
            del argv[k]
        elif op == 2:
            argv[k:k] = argv[k:k + rng.randint(1, 2)]
        else:
            argv[k] = rng.choice(_TOKENS)
    return argv


def _reader_check(seed, count):
    """Run ``cli._read`` on _PARSER_CASES and ``count`` seeded argv of each
    kind.  Returns the argv on which it gives a namespace other than the
    reference parser's (the reference exiting included), and the number
    of argv of each kind it reads.  Asserts nothing, so that it checks the
    same under ``python -O``."""
    rng = random.Random(seed)
    plain = [_well_formed(rng) for _ in range(count)]
    mixed = [list(a) for a in _PARSER_CASES] + [
        _mixed(rng) for _ in range(count)]
    reference = cli_reference.build_parser()
    wrong, read = [], {"plain": 0, "mixed": 0}
    for kind, cases in (("plain", plain), ("mixed", mixed)):
        for argv in cases:
            ns = cli._read(argv)
            if ns is None:
                continue
            read[kind] += 1
            if _parse(reference, argv) != (sorted(vars(ns).items()), "", ""):
                wrong.append(argv)
    return {"wrong": wrong, "read": read, "plain": len(plain)}


def test_reader_gives_the_reference_namespace_or_declines():
    # where the command table reads argv, argparse would have read the same
    # namespace; where argparse exits, the table declines and argparse
    # writes usage, help or error as before
    result = _reader_check(seed=19, count=3000)
    assert result["wrong"] == []
    assert result["read"]["plain"] == result["plain"]
    assert result["read"]["mixed"] > 100


@pytest.mark.parametrize("argv", [
    ("polytope", "assoc", "--l", "5", "-h"),
    ("polytope", "assoc", "--", "--l", "5"),
    ("polytope", "assoc", "--l=5"), ("polytope", "assoc", "--l", "-5"),
    ("floer", "hf", "d.json", "--rat"), ("novikov", "eval", "-t^1"),
    ("novikov", "eval", "t^1", "--cutoff"),
    ("floer", "sphere", "--n", "2", "--n", "3"),
    ("floer", "hf", "d.json", "--rational", "--rational"),
    ("polytope", "assoc", "--l", "5", "--faces", "--f-vector"),
    ("maslov", "index"), ("maslov", "index", "p.json", "q.json"),
    ("floer", "sphere"), ("polytope", "assoc", "--l", "x"),
    ("novikov", "eval", "t^1", "--ring", "R"),
    ("--text", "maslov", "index", "p.json"), ("floer",), ()],
    ids=" ".join)
def test_reader_declines_what_it_leaves_to_argparse(argv):
    # argparse takes a repeated option, the last value winning; the table
    # leaves it, with every form argparse may read otherwise, to argparse
    assert cli._read(list(argv)) is None


def test_reader_is_the_same_under_optimize():
    tests = str(Path(__file__).resolve().parent)
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + tests
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import json, test_cli\n"
         "print(json.dumps(test_cli._reader_check(seed=19, count=3000)))"],
        env=env, capture_output=True, text=True, cwd=tests)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(json.dumps(
        _reader_check(seed=19, count=3000)))


def test_well_formed_requests_build_no_parser(tmp_path, monkeypatch,
                                              chain_json):
    # every leaf, with --text and its extras, is read from the command
    # table: with no ArgumentParser to be had, each request prints what it
    # prints with one
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "p.json", LINE_PATH_JSON)
    write(tmp_path, "d.json", chain_json)
    write(tmp_path, "c.json", COND_JSON)
    requests = [leaf + extra for leaf in _LEAVES
                for extra in ((), ("--text",), *(
                    e for head, es in _EXTRAS.items()
                    if leaf[:len(head)] == head for e in es))]
    expected = [run(*argv) for argv in requests]
    assert expected[0] == (PASS, "[14,21,9]\n", "")

    def refuse(self, *args, **kwargs):
        raise RuntimeError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [run(*argv) for argv in requests] == expected


def test_repeat_invocations_are_byte_identical(tmp_path, chain_json):
    path = write(tmp_path, "chain.json", chain_json)
    for argv in (("polytope", "assoc", "--l", "6"),
                 ("floer", "sphere", "--n", "4"),
                 ("ainfty", "check", path),
                 ("sft", "bound", "--n", "5", "--g", "3", "--v", "4",
                  "--m", "2,1,3,1")):
        assert run(*argv) == run(*argv)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "openstrings.cli", "polytope", "assoc",
         "--l", "5"], capture_output=True, text=True)
    assert proc.returncode == PASS
    assert proc.stdout == "[14,21,9]\n"
