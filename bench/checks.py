"""Check each job's result against what its input was built to produce.

Every check returns a list of problems; an empty list means the job's
exit status and output agree with the expected outcome recorded in the
deck.  Nothing here imports ``openstrings``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact


def _report(out):
    lines = out.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one output line, got {len(lines)}")
    return json.loads(lines[0])


def _subset(want, got, path=""):
    problems = []
    for key, val in want.items():
        if isinstance(val, dict):
            sub = got.get(key) if isinstance(got, dict) else None
            if not isinstance(sub, dict):
                problems.append(f"{path}{key} missing")
            else:
                problems += _subset(val, sub, f"{path}{key}.")
        elif not isinstance(got, dict) or got.get(key) != val:
            problems.append(f"{path}{key}={got.get(key) if isinstance(got, dict) else None!r}, "
                            f"want {val!r}")
    return problems


def chain_report(expect, out, err, state, inp):
    return _subset(expect["report"], _report(out))


def ranks(expect, out, err, state, inp):
    rep = _report(out)
    problems = _subset({"ranks": expect["ranks"]}, rep)
    if rep.get("total_rank") != sum(expect["ranks"].values()):
        problems.append(f"total_rank={rep.get('total_rank')}")
    return problems


def sphere(expect, out, err, state, inp):
    n = expect["n"]
    return _subset({"n": n, "total_rank": 2, "degrees": [0, n]}, _report(out))


def stderr(expect, out, err, state, inp):
    """A rejected input: nothing on stdout, the reason on stderr."""
    problems = ["unexpected stdout"] if out else []
    if expect["contains"] not in err:
        problems.append(f"stderr lacks {expect['contains']!r}")
    return problems


def maslov_pair(expect, out, err, state, inp):
    """string_index(p) + string_index(dual p) = n, checked on the dual."""
    rep = _report(out)
    si = rep.get("string_index")
    if rep.get("n") != expect["n"] or not isinstance(si, int):
        return [f"n={rep.get('n')} string_index={si!r}"]
    pair = state.setdefault("pairs", {}).setdefault(expect["pair"], {})
    pair[expect["role"]] = si
    if expect["role"] == "dual" and "primal" in pair:
        if pair["primal"] + si != expect["n"]:
            return [f"string indices {pair['primal']} + {si} != n={expect['n']}"]
    return []


def maslov_known(expect, out, err, state, inp):
    rep = _report(out)
    want = {"n": expect["n"]}
    for key in ("rs_index", "string_index"):
        if key in expect:
            want[key] = expect[key]
    problems = _subset(want, rep)
    if not isinstance(rep.get("string_index"), int):
        problems.append("no string index for a transverse path")
    if expect.get("crossings") is not None and len(rep.get("crossings", ())) != expect["crossings"]:
        problems.append(f"{len(rep.get('crossings', ()))} crossings, want {expect['crossings']}")
    return problems


def _facet_sign(kind, params):
    """Orientation signs from the documented parity rules."""
    if kind == "assoc":
        l1, l2, i = params
        return 1 if (l1 * l2 + i * (l2 - 1)) % 2 else -1
    if kind == "multi_lower":
        l1, l2, i = params
        return -1 if (l1 * l2 + i * (l2 - 1)) % 2 else 1
    if kind == "multi_upper":
        q, parts = params
        return -1 if sum((q - j) * (k - 1) for j, k in enumerate(parts, 1)) % 2 else 1
    if kind == "multi_end":
        return 1 if params == [1] else -1
    raise ValueError(kind)


def polytope(expect, out, err, state, inp):
    family, l, mode = expect["family"], expect["l"], expect["mode"]
    rep = _report(out)
    top = l - 2 if family == "K" else l - 1
    if mode == "fv":
        if family == "K":
            want = exact.kirkman_cayley(l)
            return [] if rep == want else [f"f-vector {rep}, want {want}"]
        problems = []
        if rep[:1] != [exact.MULTIPLIHEDRON_VERTICES[l]]:
            problems.append(f"{rep[:1]} vertices, want {exact.MULTIPLIHEDRON_VERTICES[l]}")
        euler = sum((-1) ** d * f for d, f in enumerate(rep)) + (-1) ** top
        if len(rep) != top or euler != 1:
            problems.append(f"f-vector {rep} breaks the Euler relation")
        return problems
    if mode == "dd":
        problems = _subset({"dd_zero": True, "failures": [], "l": l,
                            "polytope": family}, rep)
        if family == "K" and rep.get("faces") != sum(exact.kirkman_cayley(l)) + 1:
            problems.append(f"faces={rep.get('faces')}")
        return problems
    # K: one diagonal of the (l+1)-gon; J: lower splits plus upper compositions
    want_facets = (exact.kirkman_cayley(l)[-1] if family == "K"
                   else l * (l - 1) // 2 + 2 ** (l - 1) - 1)
    problems = [] if len(rep) == want_facets else [f"{len(rep)} facets, want {want_facets}"]
    for row in rep:
        if row["sign"] != _facet_sign(row["kind"], row["params"]):
            problems.append(f"facet {row['kind']}{row['params']} sign {row['sign']}")
    return problems


def invert(expect, out, err, state, inp):
    """a * invert(a, cutoff) agrees with 1 below cutoff - valuation(a)."""
    a = exact.parse_series(inp["series"])
    inv = exact.parse_series(out.strip())
    window = Fraction(inp["cutoff"]) - min(a)
    low = {e: c for e, c in exact.series_mul(a, inv).items() if e < window}
    return [] if low == {Fraction(0): 1} else [f"a * inverse below {window} is {low}"]


def json_value(expect, out, err, state, inp):
    rep = _report(out)
    return [] if rep == expect["value"] else [f"{rep} != {expect['value']}"]


def sft(expect, out, err, state, inp):
    return _subset({"bound": expect["bound"], "satisfies": expect["bound"] <= -2},
                   _report(out))


def entries(expect, out, err, state, inp):
    def table(rows):
        return {(tuple(r["inputs"]), r["output"]): exact.parse_series(r["coeff"])
                for r in rows}
    got, want = table(_report(out)), table(expect["entries"])
    return [] if got == want else [f"{len(got)} entries differ from the {len(want)} expected"]


CHECKS = {
    "chain_report": chain_report, "ranks": ranks, "sphere": sphere,
    "stderr": stderr, "maslov_pair": maslov_pair, "maslov_known": maslov_known,
    "polytope": polytope, "invert": invert, "json": json_value, "sft": sft,
    "entries": entries,
}


def check(job, code, out, err, state):
    """Problems with one result; ``state`` carries pair checks across jobs."""
    expect = job["expect"]
    if code != expect["code"]:
        return [f"exit {code}, want {expect['code']}: {err.strip()[-200:]}"]
    try:
        return CHECKS[expect["check"]](expect, out, err, state, job["input"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
