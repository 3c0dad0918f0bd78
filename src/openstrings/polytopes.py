"""Face combinatorics of the associativity and map polytopes.

Faces are represented purely combinatorially:

* ``K`` (associativity polytope, dimension l-2): rooted planar trees with l
  ordered leaves and internal vertices of arity >= 2.  Encoding: a leaf is
  ``0``; an internal vertex is the tuple of its children.

* ``J`` (map polytope, dimension l-1): painted planar trees.  Encoding:
  ``("p", *children)`` for painted vertices (arity >= 2, children painted or
  front), ``("f", *children)`` for front vertices (arity >= 1, children
  unpainted subtrees or leaves; every root-leaf path crosses exactly one
  front vertex), ``("u", *children)`` for unpainted vertices (arity >= 2),
  and ``0`` for a leaf.

Dimension bookkeeping: painted/unpainted/plain vertices of arity a carry a
factor of dimension a-2; front vertices of arity a carry a factor of
dimension a-1.  A face is a product of these factors.

Orientation convention (fixed here once, everything else is relative): a
face is oriented by the product of its vertex factors in preorder
(root-first, children left to right), so its signed cellular boundary
follows the Leibniz rule over that product: the boundary of a vertex's
subtree is the moves at that vertex plus each child's boundary spliced
back in place, the child's term signed by (-1)^(dimension of the vertex
factor and of the earlier siblings' subtrees).  A move at a vertex is
signed by its facet parity rule

* plain split, sign +1 iff  l1*l2 + i*(l2-1)  is odd,
* front lower move, sign +1 iff  l1*l2 + i*(l2-1)  is even,
* front upper move, sign +1 iff  sum_j (q-j)*(k_j-1)  is even,

times the sign of the reordering the move causes: the rule orders the new
factors before all child subtrees, and in preorder each new inner factor
(split, lower) or front (upper) of dimension e sits after the subtrees now
to its left, of summed dimension s, for a factor (-1)^(e*s).
``boundary_map_consistency`` verifies d(d(face)) = 0 over the integers for
every face, which pins all three parity rules against each other.

Canonical order: faces are sorted lexicographically by their serialization
(see :func:`serialize_face`); the degenerate cases K_0/K_1 (points) and
J_0/J_1 (an interval) use explicit sentinel faces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct
from typing import Dict, Iterable, List, Optional, Tuple

from ._poly import IntPoly, add, degree, mul

__all__ = [
    "UnsupportedL",
    "FacetFactorization",
    "enumerate_faces",
    "face_dimension",
    "serialize_face",
    "f_vector",
    "facets_with_signs",
    "signed_boundary",
    "boundary_map_consistency",
    "assoc_facet_parity",
    "assoc_facet_sign",
    "multi_lower_sign",
    "multi_upper_sign",
]

_BUDGET_ENV = "OPENSTRINGS_MAX_L"
_DEFAULT_MAX = {"K": 10, "J": 8}

# interval sentinels for the degenerate J_0 = J_1 case
_INT_CELL = ("interval", "cell")
_INT_END0 = ("interval", "end0")
_INT_END1 = ("interval", "end1")


class UnsupportedL(ValueError):
    """l exceeds the configured enumeration budget."""


@dataclass(frozen=True)
class FacetFactorization:
    """A codimension-one face with its product decomposition and the sign
    comparing the induced boundary orientation with the product orientation."""

    kind: str                 # "assoc" | "multi_lower" | "multi_upper" | "multi_end"
    params: tuple
    orientation_sign: int
    face: str                 # serialized facet


# ---------------------------------------------------------------------------
# parity rules
# ---------------------------------------------------------------------------

def assoc_facet_parity(l1: int, l2: int, i: int) -> int:
    return (l1 * l2 + i * (l2 - 1)) % 2


def assoc_facet_sign(l1: int, l2: int, i: int) -> int:
    """Orientations coincide iff the parity is odd."""
    return 1 if assoc_facet_parity(l1, l2, i) == 1 else -1


def multi_lower_sign(l1: int, l2: int, i: int) -> int:
    """Orientations coincide iff the parity is even."""
    return 1 if assoc_facet_parity(l1, l2, i) == 0 else -1


def multi_upper_sign(parts: Tuple[int, ...]) -> int:
    q = len(parts)
    parity = sum((q - j) * (parts[j - 1] - 1) for j in range(1, q + 1)) % 2
    return 1 if parity == 0 else -1


# ---------------------------------------------------------------------------
# tree helpers
# ---------------------------------------------------------------------------

def _is_leaf(node) -> bool:
    return node == 0


def _kind(node) -> str:
    return node[0] if isinstance(node[0], str) else "k"


def _children(node) -> tuple:
    return node[1:] if isinstance(node[0], str) else node


def _mk(kind: str, children: Iterable) -> tuple:
    ch = tuple(children)
    return ch if kind == "k" else (kind,) + ch


def _factor_dim(node) -> int:
    ar = len(_children(node))
    return ar - 1 if _kind(node) == "f" else ar - 2


def face_dimension(face) -> int:
    """Total dimension of a face (sum of its factor dimensions)."""
    if face == _INT_CELL:
        return 1
    if face in (_INT_END0, _INT_END1):
        return 0
    if _is_leaf(face):
        return 0
    return _factor_dim(face) + sum(
        face_dimension(c) for c in _children(face) if not _is_leaf(c))


def serialize_face(face) -> str:
    """Stable string form: preorder with parentheses, leaves as 0, painted /
    front / unpainted vertices tagged p / f / u."""
    if face == _INT_CELL:
        return "[01]"
    if face == _INT_END0:
        return "[0]"
    if face == _INT_END1:
        return "[1]"
    if _is_leaf(face):
        return "0"
    body = "".join(serialize_face(c) for c in _children(face))
    k = _kind(face)
    return f"({body})" if k == "k" else f"{k}({body})"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _plain_trees(l: int, kind: str) -> tuple:
    """All planar trees with l leaves and internal arity >= 2 ('k' or 'u')."""
    if l == 1:
        return (0,)
    out = []
    for m in range(2, l + 1):
        for comp in _compositions(l, m):
            for combo in _iproduct(*(_plain_trees(k, kind) for k in comp)):
                out.append(_mk(kind, combo))
    return tuple(out)


@lru_cache(maxsize=None)
def _painted_trees(l: int) -> tuple:
    out = []
    for m in range(1, l + 1):                      # front-rooted
        for comp in _compositions(l, m):
            for combo in _iproduct(*(_plain_trees(k, "u") for k in comp)):
                out.append(("f",) + combo)
    for m in range(2, l + 1):                      # painted-rooted
        for comp in _compositions(l, m):
            for combo in _iproduct(*(_painted_trees(k) for k in comp)):
                out.append(("p",) + combo)
    return tuple(out)


def _max_l(polytope: str) -> int:
    env = os.environ.get(_BUDGET_ENV)
    if env is None:
        return _DEFAULT_MAX[polytope]
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"{_BUDGET_ENV} must be an integer, got {env!r}") from None


def _check_budget(polytope: str, l: int) -> str:
    """The family letter, after checking l against the budget (env var
    OPENSTRINGS_MAX_L overrides the default)."""
    p = polytope.upper()
    if p not in ("K", "J"):
        raise ValueError(f"unknown polytope family {polytope!r} (expected 'K' or 'J')")
    if l < 0:
        raise ValueError("l must be nonnegative")
    cap = _max_l(p)
    if l > cap:
        raise UnsupportedL(
            f"{p}_{l} exceeds the enumeration budget (max {cap}; "
            f"set {_BUDGET_ENV} to raise it)")
    return p


def enumerate_faces(polytope: str, l: int, dim: Optional[int] = None) -> list:
    """All faces (top cell included), or only those of the given dimension,
    sorted by serialization.  Raises UnsupportedL above the enumeration
    budget (env var OPENSTRINGS_MAX_L overrides the default)."""
    p = _check_budget(polytope, l)
    if p == "K":
        faces = [0] if l <= 1 else list(_plain_trees(l, "k"))
    else:
        faces = ([_INT_END0, _INT_END1, _INT_CELL] if l <= 1
                 else list(_painted_trees(l)))
    if dim is not None:
        faces = [f for f in faces if face_dimension(f) == dim]
    faces.sort(key=serialize_face)
    return faces


# ---------------------------------------------------------------------------
# counting: face polynomials, coefficient of x^d = number of faces of
# dimension d, following _plain_trees / _painted_trees term by term
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _parts_poly(family: str, l: int, m: int) -> IntPoly:
    """Sum over compositions of l into m parts of the product of the parts'
    face polynomials, by convolution over the first part."""
    if m == 1:
        return _faces_poly(family, l)
    out: IntPoly = {}
    for first in range(1, l - m + 2):
        out = add(out, mul(_faces_poly(family, first),
                           _parts_poly(family, l - first, m - 1)))
    return out


@lru_cache(maxsize=None)
def _faces_poly(family: str, l: int) -> IntPoly:
    """Face polynomial of the plain trees ('T') or painted trees ('P')
    with l leaves."""
    if family == "T" and l == 1:
        return {0: 1}
    out: IntPoly = {}
    if family == "P":
        for m in range(1, l + 1):                  # front-rooted
            out = add(out, mul({m - 1: 1}, _parts_poly("T", l, m)))
    for m in range(2, l + 1):                      # plain- or painted-rooted
        out = add(out, mul({m - 2: 1}, _parts_poly(family, l, m)))
    return out


def f_vector(polytope: str, l: int) -> List[int]:
    """Counts of proper faces by dimension 0 .. d-1, from the face
    polynomials; the budget applies as for :func:`enumerate_faces`."""
    p = _check_budget(polytope, l)
    if l <= 1:
        return [] if p == "K" else [2]
    poly = _faces_poly("T" if p == "K" else "P", l)
    return [poly[d] for d in range(degree(poly))]


# ---------------------------------------------------------------------------
# boundary moves
# ---------------------------------------------------------------------------

def _moves_at(node, dims):
    """All codimension-one degenerations of one vertex, as (new_node, sign,
    tag).  ``dims`` holds the dimension of each child's subtree.  The sign
    is the parity rule's times the Koszul sign of the reordering: each new
    factor of dimension e moves past the child subtrees now to its left,
    of summed dimension s, for (-1)^(e*s)."""
    kd = _kind(node)
    ch = _children(node)
    m = len(ch)
    left = [0]                      # left[k]: summed dimension of ch[:k]
    for d in dims:
        left.append(left[-1] + d)

    def passing(e, k):
        return -1 if e * left[k] % 2 else 1

    if kd in ("k", "p", "u") and m >= 3:
        for l1 in range(2, m):
            l2 = m + 1 - l1
            for i in range(1, l1 + 1):
                i0 = i - 1
                inner = _mk(kd, ch[i0:i0 + l2])
                yield (_mk(kd, ch[:i0] + (inner,) + ch[i0 + l2:]),
                       assoc_facet_sign(l1, l2, i) * passing(l2 - 2, i0),
                       ("split", l1, l2, i))

    if kd == "f" and m >= 2:
        for l2 in range(2, m + 1):
            l1 = m + 1 - l2
            for i in range(1, l1 + 1):
                i0 = i - 1
                inner = _mk("u", ch[i0:i0 + l2])
                yield (_mk("f", ch[:i0] + (inner,) + ch[i0 + l2:]),
                       multi_lower_sign(l1, l2, i) * passing(l2 - 2, i0),
                       ("lower", l1, l2, i))
        for q in range(2, m + 1):
            for parts in _compositions(m, q):
                sign = multi_upper_sign(parts)
                fronts = []
                start = 0
                for k in parts:
                    fronts.append(_mk("f", ch[start:start + k]))
                    sign *= passing(k - 1, start)
                    start += k
                yield _mk("p", fronts), sign, ("upper", parts)


def _boundary(node) -> Tuple[int, Dict[tuple, int]]:
    """Dimension and signed boundary of the subtree rooted at ``node``, by
    the Leibniz rule over its preorder product: the moves at this vertex,
    then each child's boundary spliced back in place, signed by the
    dimensions of this vertex's factor and of the earlier siblings."""
    if _is_leaf(node):
        return 0, {}
    kd = _kind(node)
    ch = _children(node)
    below = [_boundary(c) for c in ch]
    dims = [d for d, _ in below]
    out: Dict[tuple, int] = {}
    for new_node, sign, _tag in _moves_at(node, dims):
        out[new_node] = out.get(new_node, 0) + sign
    passed = _factor_dim(node)
    for k, (d, b) in enumerate(below):
        sign = -1 if passed % 2 else 1
        for g, c in b.items():
            new_node = _mk(kd, ch[:k] + (g,) + ch[k + 1:])
            out[new_node] = out.get(new_node, 0) + sign * c
        passed += d
    return passed, out


def signed_boundary(face) -> Dict[tuple, int]:
    """The signed cellular boundary of a face as a face -> coefficient map."""
    if face == _INT_CELL:
        return {_INT_END1: 1, _INT_END0: -1}
    if face in (_INT_END0, _INT_END1):
        return {}
    return {f: c for f, c in _boundary(face)[1].items() if c != 0}


def facets_with_signs(polytope: str, l: int) -> List[FacetFactorization]:
    """Codimension-one faces of the whole polytope with their product
    decompositions and orientation signs from the parity rules; the budget
    applies as for :func:`enumerate_faces`."""
    p = _check_budget(polytope, l)
    if l < 2:
        if p == "J":
            return [FacetFactorization("multi_end", (0,), -1, serialize_face(_INT_END0)),
                    FacetFactorization("multi_end", (1,), 1, serialize_face(_INT_END1))]
        return []
    out = []
    top = _mk("k" if p == "K" else "f", (0,) * l)
    for new_face, sign, tag in _moves_at(top, (0,) * l):
        if tag[0] == "split":
            kind, params = "assoc", tag[1:]
        elif tag[0] == "lower":
            kind, params = (("multi_end", (0,)) if tag[1] == 1
                            else ("multi_lower", tag[1:]))
        else:
            parts = tag[1]
            kind, params = (("multi_end", (1,)) if all(k == 1 for k in parts)
                            else ("multi_upper", (len(parts), parts)))
        out.append(FacetFactorization(kind, params, sign, serialize_face(new_face)))
    out.sort(key=lambda ff: (ff.kind, ff.params))
    return out


def boundary_map_consistency(polytope: str, l: int) -> dict:
    """Compute the signed boundary of every face and verify d(d(face)) = 0
    over the integers."""
    faces = enumerate_faces(polytope, l)
    p = polytope.upper()
    boundaries: Dict[object, Dict[tuple, int]] = {}

    def boundary(face):
        if face not in boundaries:
            boundaries[face] = signed_boundary(face)
        return boundaries[face]

    bad = []
    entries = 0
    for face in faces:
        square: Dict[tuple, int] = {}
        b = boundary(face)
        entries += len(b)
        for g, cg in b.items():
            for h, ch in boundary(g).items():
                square[h] = square.get(h, 0) + cg * ch
        residual = {h: c for h, c in square.items() if c != 0}
        if residual:
            bad.append((serialize_face(face),
                        {serialize_face(h): c for h, c in residual.items()}))
    return {
        "polytope": p,
        "l": l,
        "faces": len(faces),
        "boundary_entries": entries,
        "dd_zero": not bad,
        "failures": bad,
    }
