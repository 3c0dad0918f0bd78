"""Command-line front door for the library.

Each subcommand parses its input file(s), dispatches to the library and
prints one report.  Reports are canonical JSON by default (sorted keys,
no whitespace) so identical inputs give byte-identical output; ``--text``
switches to a short human-readable rendering.  Exit status is 0 for a
passing report, 1 for a failing report, and 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ainfty as _ai
from . import conductors as _cond
from . import maslov as _mas
from . import morse as _mor
from . import novikov as _nov
from . import polytopes as _pol
from ._json import _json_list, _json_object

PASS = 0
FAIL = 1
BAD_INPUT = 2

_FAMILY = {"assoc": "K", "multi": "J"}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj, text: str, as_text: bool) -> None:
    sys.stdout.write((text if as_text else _dump(obj)) + "\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _bool(b) -> str:
    return "true" if b else "false"


def _report_ok(report: dict) -> bool:
    """A report passes when every boolean it carries is true."""
    return all(v for v in report.values() if isinstance(v, bool))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_polytope(args) -> int:
    family = _FAMILY[args.family]
    if args.faces:
        faces = _pol.enumerate_faces(family, args.l)
        rows = sorted(
            ({"dim": _pol.face_dimension(f), "face": _pol.serialize_face(f)}
             for f in faces),
            key=lambda r: (r["dim"], r["face"]))
        text = "\n".join(f"{r['dim']} {r['face']}" for r in rows)
        _emit(rows, text, args.text)
        return PASS
    if args.facet_signs:
        rows = [
            {"face": f.face, "kind": f.kind, "params": list(f.params),
             "sign": f.orientation_sign}
            for f in _pol.facets_with_signs(family, args.l)
        ]
        rows.sort(key=lambda r: r["face"])
        text = "\n".join(
            f"{r['face']} {r['kind']}{tuple(r['params'])} {r['sign']:+d}"
            for r in rows)
        _emit(rows, text, args.text)
        return PASS
    if args.boundary_check:
        rep = _pol.boundary_map_consistency(family, args.l)
        text = (f"dd_zero={_bool(rep['dd_zero'])} faces={rep['faces']} "
                f"boundary_entries={rep['boundary_entries']}")
        _emit(rep, text, args.text)
        return PASS if rep["dd_zero"] else FAIL
    fv = _pol.f_vector(family, args.l)
    _emit(fv, " ".join(str(x) for x in fv), args.text)
    return PASS


def _cmd_novikov(args) -> int:
    cutoff = None if args.cutoff is None else _nov._rational(args.cutoff, "cutoff")
    a = _nov.parse_series(args.expr, ring=args.ring, cutoff=cutoff)
    val = str(_nov.valuation(a)) if a else None
    out = {"series": _nov.format_series(a), "valuation": val}
    _emit(out, out["series"], args.text)
    return PASS


def _cmd_maslov(args) -> int:
    obj = _load_json(args.file)
    path = _mas.path_from_json(obj)
    if "reference" in obj:
        rows = obj["reference"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise _mas.ChartMismatch(
                f"reference {rows!r} is not a list of matrix rows")
        ref = [[_mas._rational(e, "reference entry") for e in row] for row in rows]
    else:
        ref = path.pieces[0].value(path.start)
    report = _mas.rs_index_report(ref, path)
    out = _mas.report_to_json(report)
    try:
        # without a reference the report is already the one against A(start)
        out["string_index"] = (_mas.string_index(path) if "reference" in obj
                               else _mas._string_index(path, report.total))
    except _mas.NonTransverseEndpoints:
        out["string_index"] = None
    si = out["string_index"]
    text = (f"rs_index={out['rs_index']} "
            f"string_index={'none' if si is None else si} "
            f"crossings={len(out['crossings'])}")
    _emit(out, text, args.text)
    return PASS


def _part(bundle, key: str):
    """``bundle[key]``; a bundle that is no JSON object or lacks the part is
    invalid input that names it."""
    if key not in _json_object(bundle, "bundle"):
        raise ValueError(f"bundle has no part {key!r}")
    return bundle[key]


def _complex(bundle, key: str) -> "_ai.FloerComplex":
    return _ai.assemble_differential(_ai.datum_from_json(_part(bundle, key)))


def _entries(bundle, key: str, ring: str, kind: str = "H") -> "_ai.MapDatum":
    """The map whose ``kind`` entries are the bundle's list ``key``."""
    _part(bundle, key)
    return _ai.map_from_json({kind: _json_list(bundle, key, "bundle")},
                             ring=ring)


def _kv_text(report: dict) -> str:
    parts = []
    for k in sorted(report):
        v = report[k]
        if isinstance(v, bool):
            parts.append(f"{k}={_bool(v)}")
        elif isinstance(v, (int, str)):
            parts.append(f"{k}={v}")
    return " ".join(parts)


def _cmd_ainfty(args) -> int:
    obj = _load_json(args.file)
    if args.action == "check":
        report = _ai.check_a_infinity(_ai.datum_from_json(obj))
    elif args.action == "map":
        source = _complex(obj, "source")
        target = _complex(obj, "target")
        h = _entries(obj, "map", source.datum.ring)
        report = _ai.check_chain_map(target, source, h)
    elif args.action == "homotopy":
        source = _complex(obj, "source")
        target = _complex(obj, "target")
        ring = source.datum.ring
        report = _ai.check_homotopy(
            target, source, _entries(obj, "h0", ring),
            _entries(obj, "h1", ring), _entries(obj, "k", ring, kind="K"))
    elif args.action == "compose":
        c0 = _complex(obj, "c0")
        c1 = _complex(obj, "c1")
        c2 = _complex(obj, "c2")
        ring = c0.datum.ring
        report = _ai.check_composition(
            c0, c1, c2, _entries(obj, "h01", ring), _entries(obj, "h12", ring))
    else:  # augment
        c = _complex(obj, "datum")
        a = _ai.augmentation_from_json(_part(obj, "augmentation"),
                                       ring=c.datum.ring)
        push = None
        if "map" in obj or "source" in obj:
            push = (_complex(obj, "source"),
                    _entries(obj, "map", c.datum.ring))
        report = _ai.check_augmentation(c, a, push)
    _emit(report, _kv_text(report), args.text)
    return PASS if _report_ok(report) else FAIL


def _cmd_floer_hf(args) -> int:
    obj = _load_json(args.file)
    ring = "Q" if args.rational else "Z"
    if isinstance(obj, dict) and "points" in obj:
        datum = _mor.build_floer_complex(_mor.morse_datum_from_json(obj))
    else:
        datum = _ai.datum_from_json(obj)
    coh = _ai.cohomology(_ai.assemble_differential(datum), ring=ring)
    ranks = ",".join(f"{d}:{coh['ranks'][d]}" for d in sorted(coh["ranks"]))
    text = f"total_rank={coh['total_rank']} ranks={ranks}"
    _emit(coh, text, args.text)
    return PASS


def _cmd_floer_sphere(args) -> int:
    datum = _mor.sphere_fixture(args.n)
    sub = _ai.pair_subcomplex(datum, 0, 1)
    coh = _ai.cohomology(_ai.assemble_differential(sub), ring="Z")
    # the fixture has no arity-1 tensors, so generators represent classes
    degrees = sorted(g.mu for g in sub.generators)
    products = sorted(({
        "a": e.inputs[0].split(".")[0],
        "b": e.inputs[1].split(".")[0],
        "out": e.output.split(".")[0],
        "coefficient": _nov.format_series(e.coeff),
    } for e in datum.tensors if e.arity == 2), key=lambda r: (r["a"], r["b"]))
    out = {
        "n": args.n,
        "total_rank": coh["total_rank"],
        "degrees": degrees,
        "products": products,
    }
    names = sorted({r["a"] for r in products} | {r["b"] for r in products})
    lines = [f"rank={coh['total_rank']} degrees=" +
             ",".join(str(d) for d in degrees)]
    prod = {(r["a"], r["b"]): r["out"] for r in products}
    for a in names:
        for b in names:
            lines.append(f"{a}*{b}={prod.get((a, b), '0')}")
    _emit(out, "\n".join(lines), args.text)
    return PASS


def _cmd_sft(args) -> int:
    try:
        m = tuple(int(x) for x in args.m.split(","))
    except ValueError:
        raise ValueError("m must be comma-separated integers, "
                         f"got {args.m!r}") from None
    q = _mor.SftIndexQuery(n=args.n, g=args.g, v=args.v, m=m)
    rep = _mor.sft_report(q)
    text = f"bound={rep['bound']} satisfies={_bool(rep['satisfies'])}"
    _emit(rep, text, args.text)
    return PASS if rep["satisfies"] else FAIL


def _cmd_conductor(args) -> int:
    obj = _load_json(args.file)
    h = _cond.continuation_from_json(_json_object(_part(obj, "h"), "h"))
    k = _cond.continuation_from_json(_json_object(_part(obj, "k"), "k"))
    exact = _cond.is_exact(h, k)
    overlap = len(set(h.images) & set(k.positions))
    out = {
        "exact": exact,
        "overlap": overlap,
        "image": list(_cond.image(h).labels),
        "cokernel": list(_cond.cokernel(h).labels),
    }
    _emit(out, f"exact={_bool(exact)} overlap={overlap}", args.text)
    return PASS if exact else FAIL


# ---------------------------------------------------------------------------
# arguments


_TEXT = ("--text", {"action": "store_true"})
# command -> (help, leaf) for a command without actions, else
# (help, {action: (help or None, *leaf)}).  A leaf is (handler, arguments);
# an argument is (name, add_argument keywords), or (names, keywords) for a
# mutually exclusive group of flags.  Every leaf also takes ``_TEXT``.
_COMMANDS = {
    "polytope": ("face lattices and boundary signs", (_cmd_polytope, (
        ("family", {"choices": sorted(_FAMILY)}),
        ("--l", {"type": int, "required": True}),
        (("--faces", "--f-vector", "--facet-signs", "--boundary-check"),
         {"action": "store_true"})))),
    "novikov": ("formal series arithmetic", {
        "eval": ("parse and normalize a series", _cmd_novikov, (
            ("expr", {}),
            ("--ring", {"choices": ["Z", "Q"], "default": "Z"}),
            ("--cutoff", {})))}),
    "maslov": ("crossing-form path indices", {
        "index": ("index report for a path file", _cmd_maslov,
                  (("file", {}),))}),
    "ainfty": ("differential, map and homotopy checks", {
        name: (helptext, _cmd_ainfty, (("file", {}),)) for name, helptext in (
            ("check", "does the assembled differential square to zero"),
            ("map", "chain-map check for a continuation bundle"),
            ("homotopy", "homotopy identity for a five-part bundle"),
            ("compose", "functoriality of composed continuations"),
            ("augment", "augmentation conditions, optionally pushed forward"))}),
    "floer": ("cohomology of assembled complexes", {
        "hf": ("cohomology ranks from a datum file", _cmd_floer_hf, (
            ("file", {}),
            ("--rational", {"action": "store_true", "help":
                            "use field coefficients instead of integers"}))),
        "sphere": ("built-in two-point fixture", _cmd_floer_sphere, (
            ("--n", {"type": int, "required": True}),))}),
    "sft": ("transversality index bound", {
        "bound": (None, _cmd_sft, (
            *((flag, {"type": int, "required": True})
              for flag in ("--n", "--g", "--v")),
            ("--m", {"required": True, "help":
                     "comma-separated multiplicities, one per point"})))}),
    "conductor": ("exactness of continuation pairs", {
        "exact": (None, _cmd_conductor, (("file", {}),))}),
}


def _read(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, read from
    ``_COMMANDS``; None, and argparse parses, for any token starting with
    '-' other than one of the leaf's own options (help, '--',
    abbreviations, '--opt=value', negative numbers), an option value that
    is missing or starts with '-', a repeated option, two flags of one
    group, a wrong number of positionals, a missing required option, or a
    value its type or choices refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    ns = {"command": argv[0]}
    leaf, rest = _COMMANDS[argv[0]][1], argv[1:]
    if isinstance(leaf, dict):
        if not rest or rest[0] not in leaf:
            return None
        ns["action"] = rest[0]
        leaf, rest = leaf[rest[0]][1:], rest[1:]
    run, arguments = leaf
    options, positionals = {}, []
    for names, kw in (*arguments, _TEXT):
        group = names if isinstance(names, tuple) else (names,)
        for name in group:
            if name[0] != "-":
                positionals.append((name, kw))
                continue
            dest = name.lstrip("-").replace("-", "_")
            flag = kw.get("action") == "store_true"
            ns[dest] = kw.get("default", False if flag else None)
            options[name] = dest, kw, flag, group
    seen, given, values, tokens = set(), [], [], iter(rest)
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        if token not in options or token in seen:
            return None
        seen.add(token)
        dest, kw, flag, group = options[token]
        if flag:
            if len(seen.intersection(group)) > 1:
                return None
            ns[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        values.append((dest, kw, value))
    if len(given) != len(positionals) or any(
            kw.get("required") and name not in seen
            for name, (_, kw, _, _) in options.items()):
        return None
    values += ((name, kw, token)
               for (name, kw), token in zip(positionals, given))
    for dest, kw, token in values:
        try:
            value = kw.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        ns[dest] = value
    return argparse.Namespace(**ns, run=run)


def _leaf(p, run, arguments) -> None:
    for names, kw in (*arguments, _TEXT):
        if isinstance(names, tuple):
            group = p.add_mutually_exclusive_group()
            for name in names:
                group.add_argument(name, **kw)
        else:
            p.add_argument(names, **kw)
    p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    """The ``openstrings`` parser, replayed from ``_COMMANDS``.  ``main``
    builds it only for argv that ``_read`` leaves to argparse: help and
    usage errors."""
    top = argparse.ArgumentParser(
        prog="openstrings",
        description="Polytope, Novikov, Maslov and Floer-complex reports.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (helptext, leaves) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if isinstance(leaves, tuple):
            _leaf(p, *leaves)
            continue
        actions = p.add_subparsers(dest="action", required=True)
        for action, (ahelp, run, arguments) in leaves.items():
            kw = {"help": ahelp} if ahelp else {}
            _leaf(actions.add_parser(action, **kw), run, arguments)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        return args.run(args)
    except json.JSONDecodeError as e:
        sys.stderr.write(
            f"parse error at line {e.lineno}, column {e.colno}: {e.msg}\n")
        return BAD_INPUT
    except _nov.ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return BAD_INPUT
    except OSError as e:
        sys.stderr.write(f"cannot read input: {e}\n")
        return BAD_INPUT
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
