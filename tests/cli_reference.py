"""The command-line parser of ``openstrings.cli`` as it was when it declared
every subcommand, with all its arguments, on every request.  Kept only as a
reference for the tests that compare usage, help and error text, and the
namespaces ``cli`` reads from its command table; the handlers are the
library's own."""

from __future__ import annotations

import argparse

from openstrings.cli import (
    _FAMILY,
    _cmd_ainfty,
    _cmd_conductor,
    _cmd_floer_hf,
    _cmd_floer_sphere,
    _cmd_maslov,
    _cmd_novikov,
    _cmd_polytope,
    _cmd_sft,
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="openstrings",
        description="Polytope, Novikov, Maslov and Floer-complex reports.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="face lattices and boundary signs")
    p.add_argument("family", choices=sorted(_FAMILY))
    p.add_argument("--l", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--faces", action="store_true")
    mode.add_argument("--f-vector", action="store_true")
    mode.add_argument("--facet-signs", dest="facet_signs",
                      action="store_true")
    mode.add_argument("--boundary-check", dest="boundary_check",
                      action="store_true")
    p.add_argument("--text", action="store_true")
    p.set_defaults(run=_cmd_polytope)

    p = sub.add_parser("novikov", help="formal series arithmetic")
    nsub = p.add_subparsers(dest="action", required=True)
    pe = nsub.add_parser("eval", help="parse and normalize a series")
    pe.add_argument("expr")
    pe.add_argument("--ring", choices=["Z", "Q"], default="Z")
    pe.add_argument("--cutoff", default=None)
    pe.add_argument("--text", action="store_true")
    pe.set_defaults(run=_cmd_novikov)

    p = sub.add_parser("maslov", help="crossing-form path indices")
    msub = p.add_subparsers(dest="action", required=True)
    mi = msub.add_parser("index", help="index report for a path file")
    mi.add_argument("file")
    mi.add_argument("--text", action="store_true")
    mi.set_defaults(run=_cmd_maslov)

    p = sub.add_parser("ainfty", help="differential, map and homotopy checks")
    asub = p.add_subparsers(dest="action", required=True)
    for name, helptext in (
            ("check", "does the assembled differential square to zero"),
            ("map", "chain-map check for a continuation bundle"),
            ("homotopy", "homotopy identity for a five-part bundle"),
            ("compose", "functoriality of composed continuations"),
            ("augment", "augmentation conditions, optionally pushed forward")):
        ap = asub.add_parser(name, help=helptext)
        ap.add_argument("file")
        ap.add_argument("--text", action="store_true")
        ap.set_defaults(run=_cmd_ainfty, action=name)

    p = sub.add_parser("floer", help="cohomology of assembled complexes")
    fsub = p.add_subparsers(dest="action", required=True)
    fh = fsub.add_parser("hf", help="cohomology ranks from a datum file")
    fh.add_argument("file")
    fh.add_argument("--rational", action="store_true",
                    help="use field coefficients instead of integers")
    fh.add_argument("--text", action="store_true")
    fh.set_defaults(run=_cmd_floer_hf)
    fs = fsub.add_parser("sphere", help="built-in two-point fixture")
    fs.add_argument("--n", type=int, required=True)
    fs.add_argument("--text", action="store_true")
    fs.set_defaults(run=_cmd_floer_sphere)

    p = sub.add_parser("sft", help="transversality index bound")
    ssub = p.add_subparsers(dest="action", required=True)
    sb = ssub.add_parser("bound")
    sb.add_argument("--n", type=int, required=True)
    sb.add_argument("--g", type=int, required=True)
    sb.add_argument("--v", type=int, required=True)
    sb.add_argument("--m", required=True,
                    help="comma-separated multiplicities, one per point")
    sb.add_argument("--text", action="store_true")
    sb.set_defaults(run=_cmd_sft)

    p = sub.add_parser("conductor", help="exactness of continuation pairs")
    csub = p.add_subparsers(dest="action", required=True)
    ce = csub.add_parser("exact")
    ce.add_argument("file")
    ce.add_argument("--text", action="store_true")
    ce.set_defaults(run=_cmd_conductor)

    return top
