"""Ordered label tuples and the increasing partial injections between them.

A conductor here is nothing more than its combinatorial shadow: a tuple
of opaque tokens (L_0, ..., L_l).  A continuation from one conductor to
another keeps a subset of positions and sends it into the target by a
strictly increasing injection.  Composition is composition of partial
injections, restricted to the indices that survive both legs; this is
enough to state the exactness test #(image(h) ∩ domain(k)) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "OutOfRange",
    "Mismatch",
    "Conductor",
    "Continuation",
    "subconductor",
    "split",
    "is_refinement",
    "identity_continuation",
    "image",
    "cokernel",
    "compose",
    "is_exact",
    "conductor_from_json",
    "continuation_from_json",
]


class OutOfRange(ValueError):
    """A position fell outside the conductor, or selections were not increasing."""


class Mismatch(ValueError):
    """Two continuations were combined along conductors that do not agree."""


@dataclass(frozen=True)
class Conductor:
    """An ordered tuple of elementary-conductor tokens, at least one."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("a conductor carries at least one label")

    @property
    def l(self) -> int:
        return len(self.labels) - 1

    def positions(self) -> Tuple[int, ...]:
        return tuple(range(len(self.labels)))


def _check_increasing(positions, upper: int, what: str) -> Tuple[int, ...]:
    out = tuple(int(p) for p in positions)
    for p in out:
        if p < 0 or p > upper:
            raise OutOfRange(f"{what} {p} outside 0..{upper}")
    for a, b in zip(out, out[1:]):
        if b <= a:
            raise OutOfRange(f"{what}s must be strictly increasing")
    return out


def subconductor(c: Conductor, positions) -> Conductor:
    """The conductor spanned by a strictly increasing selection of positions."""
    sel = _check_increasing(positions, c.l, "position")
    if not sel:
        raise OutOfRange("a subconductor keeps at least one position")
    return Conductor(tuple(c.labels[p] for p in sel))


def split(c: Conductor, q: int) -> Tuple[Conductor, Conductor]:
    """Split into the prefix through position q and the strict suffix.

    The original conductor is then a refinement of the prefix by the
    suffix; ``q`` must leave both parts nonempty.
    """
    if q < 0 or q >= c.l:
        raise OutOfRange(f"split point {q} outside 0..{c.l - 1}")
    return (Conductor(c.labels[: q + 1]), Conductor(c.labels[q + 1 :]))


def is_refinement(whole: Conductor, head: Conductor, tail: Conductor) -> bool:
    """Whether ``whole`` refines ``head`` by appending ``tail``."""
    return whole.labels == head.labels + tail.labels


@dataclass(frozen=True)
class Continuation:
    """A strictly increasing partial injection between conductor positions.

    ``positions`` lists the retained source positions and ``images``
    their targets, aligned index by index; both runs are strictly
    increasing, which is what makes the assignment an increasing
    injection.
    """

    source: Conductor
    target: Conductor
    positions: Tuple[int, ...]
    images: Tuple[int, ...]

    def __post_init__(self):
        pos = _check_increasing(self.positions, self.source.l, "source position")
        img = _check_increasing(self.images, self.target.l, "target position")
        if len(pos) != len(img):
            raise ValueError(
                "positions and images must pair up one for one "
                f"({len(pos)} vs {len(img)})")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "images", img)

    def __call__(self, position: int) -> int:
        for p, i in zip(self.positions, self.images):
            if p == position:
                return i
        raise OutOfRange(f"position {position} is not in the domain")


def identity_continuation(c: Conductor) -> Continuation:
    return Continuation(c, c, c.positions(), c.positions())


def image(h: Continuation) -> Conductor:
    """Subconductor of the target spanned by the reached positions."""
    return subconductor(h.target, h.images)


def cokernel(h: Continuation) -> Conductor:
    """Subconductor of the source spanned by the retained positions."""
    return subconductor(h.source, h.positions)


def compose(h: Continuation, k: Continuation) -> Continuation:
    """First ``h``, then ``k``; keeps the positions surviving both legs."""
    if h.target != k.source:
        raise Mismatch("target of the first continuation differs from "
                       "source of the second")
    fwd = dict(zip(k.positions, k.images))
    pos = []
    img = []
    for p, i in zip(h.positions, h.images):
        if i in fwd:
            pos.append(p)
            img.append(fwd[i])
    return Continuation(h.source, k.target, tuple(pos), tuple(img))


def is_exact(h: Continuation, k: Continuation) -> bool:
    """Whether at most one reached position of ``h`` is retained by ``k``."""
    if h.target != k.source:
        raise Mismatch("exactness needs a composable pair")
    return len(set(h.images) & set(k.positions)) <= 1


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def conductor_from_json(obj) -> Conductor:
    """A conductor from a JSON list of labels, each a JSON string."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"a conductor is a list of labels, got {obj!r}")
    for x in obj:
        if type(x) is not str:
            raise ValueError(f"a conductor label must be a string, got {x!r}")
    return Conductor(tuple(obj))


def _json_ints(obj, key: str) -> Tuple[int, ...]:
    """``obj[key]`` if it is a list of JSON integers: no bool, no number
    int() would truncate."""
    v = obj[key]
    if not (isinstance(v, (list, tuple)) and all(type(p) is int for p in v)):
        raise ValueError(f"{key} must be a list of integers, got {v!r}")
    return tuple(v)


def continuation_from_json(obj) -> Continuation:
    """Build a continuation from ``{"source","target","positions","images"}``."""
    for key in ("source", "target", "positions", "images"):
        if key not in obj:
            raise ValueError(f"continuation has no field {key!r}")
    return Continuation(
        source=conductor_from_json(obj["source"]),
        target=conductor_from_json(obj["target"]),
        positions=_json_ints(obj, "positions"),
        images=_json_ints(obj, "images"),
    )
