"""Concrete chain-level fixtures from finite Morse data.

A Morse datum (critical points with indices and values, signed counts
of connecting gradient lines, optional signed triple counts) turns into
a composable-string datum: indices become n - i_M, critical values
become Novikov exponents, triple counts become products.  The sphere
fixture and the puncture-index bound calculator live here too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ._json import _json_field, _json_id, _json_int, _json_list, _json_object
from .ainfty import AInftyDatum, Generator, TensorEntry
from .novikov import NovikovSeries, _rational

__all__ = [
    "NotAComplex",
    "HypothesisViolated",
    "CriticalPoint",
    "Flow",
    "Triple",
    "MorseDatum",
    "SftIndexQuery",
    "build_floer_complex",
    "sphere_fixture",
    "sft_index_bound",
    "sft_report",
    "morse_datum_from_json",
]


class NotAComplex(ValueError):
    """The supplied flow counts do not square to zero."""


class HypothesisViolated(ValueError):
    """Genus must vanish when the dimension is two."""


@dataclass(frozen=True)
class CriticalPoint:
    id: str
    index: int
    value: Fraction


@dataclass(frozen=True)
class Flow:
    src: str
    dst: str
    count: int


@dataclass(frozen=True)
class Triple:
    a: str
    b: str
    out: str
    count: int
    action: Fraction


@dataclass(frozen=True)
class MorseDatum:
    n: int
    points: Tuple[CriticalPoint, ...]
    flows: Tuple[Flow, ...] = ()
    triples: Tuple[Triple, ...] = ()


@dataclass(frozen=True)
class SftIndexQuery:
    n: int
    g: int
    v: int
    m: Tuple[int, ...]


def _point_map(d: MorseDatum) -> Dict[str, CriticalPoint]:
    out: Dict[str, CriticalPoint] = {}
    for p in d.points:
        if p.id in out:
            raise ValueError(f"duplicate critical point {p.id!r}")
        if not (0 <= p.index <= d.n):
            raise ValueError(f"critical point {p.id!r} index out of range")
        out[p.id] = p
    return out


def _check_square_zero(d: MorseDatum, pts: Mapping[str, CriticalPoint]) -> None:
    """Verify the signed flow counts form a complex over the integers."""
    outgoing: Dict[str, List[Flow]] = {}
    for f in d.flows:
        if f.src not in pts or f.dst not in pts:
            raise ValueError(f"flow {f.src}->{f.dst} references unknown point")
        if pts[f.src].index - pts[f.dst].index != 1:
            raise ValueError(
                f"flow {f.src}->{f.dst} does not drop the index by one")
        outgoing.setdefault(f.src, []).append(f)
    square: Dict[Tuple[str, str], int] = {}
    for f in d.flows:
        for f2 in outgoing.get(f.dst, ()):
            key = (f.src, f2.dst)
            square[key] = square.get(key, 0) + f.count * f2.count
    bad = {k: v for k, v in square.items() if v}
    if bad:
        raise NotAComplex(f"flow counts do not square to zero: {bad}")


def build_floer_complex(d: MorseDatum) -> AInftyDatum:
    """Translate Morse data into a string datum.

    Generators carry index n - i_M; each gradient line from x to y
    contributes count * t^(f(x) - f(y)), with the minimum action over
    all lines normalized to zero.  When triple counts are present the
    datum has three labels and every point appears once per pair, with
    the triples as the products between the (0,1) and (1,2) copies.
    """
    pts = _point_map(d)
    _check_square_zero(d, pts)
    actions = [pts[f.src].value - pts[f.dst].value for f in d.flows]
    base = min(actions) if actions else Fraction(0)
    pairs = [(0, 1)] if not d.triples else [(0, 1), (1, 2), (0, 2)]
    l = 1 if not d.triples else 2

    def gid(pid: str, pair) -> str:
        if not d.triples:
            return pid
        return f"{pid}.{pair[0]}{pair[1]}"

    gens = tuple(Generator(gid(p.id, pair), pair[0], pair[1], d.n - p.index)
                 for pair in pairs for p in d.points)
    tensors: List[TensorEntry] = []
    for pair in pairs:
        for f in d.flows:
            exp = pts[f.src].value - pts[f.dst].value - base
            coeff = NovikovSeries.monomial(f.count, exp, ring="Z")
            tensors.append(TensorEntry((gid(f.src, pair),),
                                       gid(f.dst, pair), coeff))
    for t in d.triples:
        for pid in (t.a, t.b, t.out):
            if pid not in pts:
                raise ValueError(f"triple references unknown point {pid!r}")
        if t.action < 0:
            raise ValueError("triple action must be nonnegative")
        if t.count == 0:
            continue
        coeff = NovikovSeries.monomial(t.count, t.action, ring="Z")
        tensors.append(TensorEntry(
            (gid(t.a, (0, 1)), gid(t.b, (1, 2))), gid(t.out, (0, 2)), coeff))
    intersection = sum(-1 if (d.n - p.index) % 2 else 1 for p in d.points)
    return AInftyDatum(
        l=l,
        generators=gens,
        tensors=tuple(tensors),
        modulus=2,
        metadata={"n": d.n, "intersection_index": intersection},
    )


def sphere_fixture(n: int) -> AInftyDatum:
    """Height-function model of the unit sphere with its product table.

    Two critical points per pair; the product sends (max, max) to max,
    (max, min) and (min, max) to min, and (min, min) to zero — there is
    no generator in the index needed for that product to land on.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    datum = MorseDatum(
        n=n,
        points=(CriticalPoint("max", n, Fraction(1)),
                CriticalPoint("min", 0, Fraction(0))),
        flows=(),
        triples=(
            Triple("max", "max", "max", 1, Fraction(0)),
            Triple("max", "min", "min", 1, Fraction(0)),
            Triple("min", "max", "min", 1, Fraction(0)),
        ),
    )
    return build_floer_complex(datum)


def sft_index_bound(q: SftIndexQuery) -> Tuple[int, bool]:
    """Upper bound for the expected index of a punctured curve.

    The bound is -2(n-1)·Σm_i + (n-3)(2-2g) + 2v; the theorem asserts
    it never exceeds -2 in the admissible range.
    """
    if q.n < 2:
        raise ValueError("need n >= 2")
    if q.g < 0 or q.v < 1:
        raise ValueError("need g >= 0 and v >= 1")
    if len(q.m) != q.v:
        raise ValueError("one multiplicity per puncture")
    if any(mi < 1 for mi in q.m):
        raise ValueError("multiplicities are positive")
    if q.g > 0 and q.n == 2:
        raise HypothesisViolated("genus must vanish when n = 2")
    mu_max = -2 * (q.n - 1) * sum(q.m)
    bound = mu_max + (q.n - 3) * (2 - 2 * q.g) + 2 * q.v
    return bound, bound <= -2


def sft_report(q: SftIndexQuery) -> dict:
    bound, ok = sft_index_bound(q)
    majorant = (q.n - 3) * (2 - 2 * q.g - 2 * q.v) - 2 * q.v
    return {
        "n": q.n, "g": q.g, "v": q.v, "m": list(q.m),
        "bound": bound, "majorant": majorant, "satisfies": ok,
    }


def morse_datum_from_json(obj: Mapping) -> MorseDatum:
    points = tuple(
        CriticalPoint(_json_id(p, "id", "point"),
                      _json_int(p, "index", "point"),
                      _rational(_json_field(p, "value", "point"), "value"))
        for p in _json_list(_json_object(obj, "Morse datum"), "points",
                            "Morse datum"))
    flows = tuple(Flow(_json_id(f, "from", "flow"), _json_id(f, "to", "flow"),
                       _json_int(f, "count", "flow"))
                  for f in _json_list(obj, "flows", "Morse datum", ()))
    triples = tuple(
        Triple(_json_id(t, "a", "triple"), _json_id(t, "b", "triple"),
               _json_id(t, "out", "triple"), _json_int(t, "count", "triple"),
               _rational(_json_field(t, "action", "triple"), "action"))
        for t in _json_list(obj, "triples", "Morse datum", ()))
    return MorseDatum(n=_json_int(obj, "n", "Morse datum"), points=points,
                      flows=flows, triples=triples)
