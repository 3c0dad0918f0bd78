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

Signs depend on dimensions only through parities, so the code carries
each sign as its exponent, a parity: an int read as an affine form over
GF(2), bit 0 the constant and bit i the coefficient of x_i.  A face's
parities are constants; the forms serve the certificate.

``boundary_map_consistency`` verifies d(d(face)) = 0 over the integers for
every face, which pins all three parity rules against each other, by a
certificate.  For each vertex kind and arity that occurs (``k`` of arity
2..l in K_l; ``f`` of arity 1..l, ``p`` and ``u`` of arity 2..l in J_l)
the same move and splice code squares the boundary of the corolla whose
child i is formal, of parity x_i, with one boundary term of parity
x_i + 1 that has no boundary.  The characters x -> (-1)^(a.x) are
linearly independent, so the square vanishes for every parity pattern
iff each (face, mask a) coefficient does.  Then d(d(face)) = 0 on every
face, by induction on the number of vertices: d of v(T_1..T_m) is the
moves at v, which depend only on v's kind, arity and the parities of the
T_i, plus each dT_i spliced in with a sign that depends on parities only;
putting T_i for child i and dT_i for its boundary term maps the corolla's
square onto d(d(face)), where d(dT_i) = 0 (fewer vertices) stands for the
term's empty boundary.  Faces and boundary entries are then counted on
the face polynomials: a face's boundary has one entry, +-1, per move at
each vertex, as a move changes the kind or arity of its vertex and
nothing above or beside it, and two moves at one vertex differ there or
in the block of children they regroup.  K_0, K_1, J_0, J_1 and every l
whose certificate fails are checked face by face, listing the faces whose
boundary does not square to zero.

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
# dimension d, following _plain_trees / _painted_trees term by term, with
# the number of faces and of their boundary entries (a face has one per
# move at each of its vertices)
# ---------------------------------------------------------------------------

def _times(a, b):
    """Product of two (face polynomial, faces, boundary entries) triples: a
    face of the product is a pair of faces, and its boundary entries are
    those of either factor.  A root vertex of factor dimension e with
    ``moves`` moves is the triple ({e: 1}, 1, moves)."""
    (pa, na, ea), (pb, nb, eb) = a, b
    return mul(pa, pb), na * nb, na * eb + ea * nb


def _plus(a, b):
    return add(a[0], b[0]), a[1] + b[1], a[2] + b[2]


@lru_cache(maxsize=None)
def _parts_poly(family: str, l: int, m: int) -> Tuple[IntPoly, int, int]:
    """Sum over compositions of l into m parts of the product of the parts'
    face polynomials, by convolution over the first part."""
    if m == 1:
        return _faces_poly(family, l)
    out = ({}, 0, 0)
    for first in range(1, l - m + 2):
        out = _plus(out, _times(_faces_poly(family, first),
                                _parts_poly(family, l - first, m - 1)))
    return out


@lru_cache(maxsize=None)
def _faces_poly(family: str, l: int) -> Tuple[IntPoly, int, int]:
    """Face polynomial, number of faces and boundary entries of the plain
    trees ('T') or painted trees ('P') with l leaves.  A plain or painted
    vertex of arity m has m(m-1)/2 - 1 moves (splits), a front vertex
    m(m-1)/2 lower moves plus 2^(m-1) - 1 upper ones (one per composition
    into two or more parts)."""
    if family == "T" and l == 1:
        return {0: 1}, 1, 0
    out = ({}, 0, 0)
    if family == "P":
        for m in range(1, l + 1):                  # front-rooted
            root = ({m - 1: 1}, 1, m * (m - 1) // 2 + 2 ** (m - 1) - 1)
            out = _plus(out, _times(root, _parts_poly("T", l, m)))
    for m in range(2, l + 1):                      # plain- or painted-rooted
        root = ({m - 2: 1}, 1, m * (m - 1) // 2 - 1)
        out = _plus(out, _times(root, _parts_poly(family, l, m)))
    return out


def f_vector(polytope: str, l: int) -> List[int]:
    """Counts of proper faces by dimension 0 .. d-1, from the face
    polynomials; the budget applies as for :func:`enumerate_faces`."""
    p = _check_budget(polytope, l)
    if l <= 1:
        return [] if p == "K" else [2]
    poly = _faces_poly("T" if p == "K" else "P", l)[0]
    return [poly[d] for d in range(degree(poly))]


# ---------------------------------------------------------------------------
# boundary moves
# ---------------------------------------------------------------------------

def _sign(exp) -> int:
    """The sign (-1)^exp of a constant parity."""
    return -1 if exp & 1 else 1


def _passing(e: int, s: int) -> int:
    """Exponent of the Koszul sign of moving a factor of dimension e past
    subtrees of summed dimension parity s."""
    return s if e % 2 else 0


def _moves_at(node, dims):
    """All codimension-one degenerations of one vertex, as (new_node, exp,
    tag), the face signed by (-1)^exp.  ``dims`` holds the dimension
    parity of each child's subtree.  The exponent is the parity rule's
    plus that of the Koszul sign of the reordering: each new factor of
    dimension e moves past the child subtrees now to its left, of summed
    dimension s, for (-1)^(e*s)."""
    kd = _kind(node)
    ch = _children(node)
    m = len(ch)
    left = [0]                      # left[k]: summed parity of ch[:k]
    for d in dims:
        left.append(left[-1] ^ d)

    if kd in ("k", "p", "u") and m >= 3:
        for l1 in range(2, m):
            l2 = m + 1 - l1
            for i in range(1, l1 + 1):
                i0 = i - 1
                inner = _mk(kd, ch[i0:i0 + l2])
                yield (_mk(kd, ch[:i0] + (inner,) + ch[i0 + l2:]),
                       (assoc_facet_sign(l1, l2, i) < 0)
                       ^ _passing(l2 - 2, left[i0]),
                       ("split", l1, l2, i))

    if kd == "f" and m >= 2:
        for l2 in range(2, m + 1):
            l1 = m + 1 - l2
            for i in range(1, l1 + 1):
                i0 = i - 1
                inner = _mk("u", ch[i0:i0 + l2])
                yield (_mk("f", ch[:i0] + (inner,) + ch[i0 + l2:]),
                       (multi_lower_sign(l1, l2, i) < 0)
                       ^ _passing(l2 - 2, left[i0]),
                       ("lower", l1, l2, i))
        for q in range(2, m + 1):
            for parts in _compositions(m, q):
                exp = multi_upper_sign(parts) < 0
                fronts = []
                start = 0
                for k in parts:
                    fronts.append(_mk("f", ch[start:start + k]))
                    exp ^= _passing(k - 1, left[start])
                    start += k
                yield _mk("p", fronts), exp, ("upper", parts)


def _boundary(node, atom=None):
    """Dimension parity and signed boundary, as a list of (face, exp), of
    the subtree rooted at ``node``, by the Leibniz rule over its preorder
    product: the moves at this vertex, then each child's boundary spliced
    back in place, signed by the dimensions of this vertex's factor and of
    the earlier siblings.  A node that is no tuple is a leaf, or, given
    ``atom``, a formal child of the certificate that ``atom`` reads."""
    if not isinstance(node, tuple):
        return atom(node) if atom else (0, ())
    kd = _kind(node)
    ch = _children(node)
    below = [_boundary(c, atom) for c in ch]
    out = [(new_node, exp) for new_node, exp, _tag
           in _moves_at(node, [d for d, _ in below])]
    passed = _factor_dim(node) % 2
    for k, (d, b) in enumerate(below):
        for g, e in b:
            out.append((_mk(kd, ch[:k] + (g,) + ch[k + 1:]), passed ^ e))
        passed ^= d
    return passed, out


def signed_boundary(face) -> Dict[tuple, int]:
    """The signed cellular boundary of a face as a face -> coefficient map."""
    if face == _INT_CELL:
        return {_INT_END1: 1, _INT_END0: -1}
    if face in (_INT_END0, _INT_END1):
        return {}
    out: Dict[tuple, int] = {}
    for f, exp in _boundary(face)[1]:
        out[f] = out.get(f, 0) + _sign(exp)
    return {f: c for f, c in out.items() if c != 0}


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
    for new_face, exp, tag in _moves_at(top, (0,) * l):
        if tag[0] == "split":
            kind, params = "assoc", tag[1:]
        elif tag[0] == "lower":
            kind, params = (("multi_end", (0,)) if tag[1] == 1
                            else ("multi_lower", tag[1:]))
        else:
            parts = tag[1]
            kind, params = (("multi_end", (1,)) if all(k == 1 for k in parts)
                            else ("multi_upper", (len(parts), parts)))
        out.append(FacetFactorization(kind, params, _sign(exp),
                                      serialize_face(new_face)))
    out.sort(key=lambda ff: (ff.kind, ff.params))
    return out


def _formal(node):
    """Formal child i of the certificate is the int 2i, of dimension parity
    x_i (bit i of a parity) with the one boundary term 2i+1, of parity
    x_i + 1 and without boundary."""
    x = 1 << (node >> 1)
    return (x ^ 1, ()) if node & 1 else (x, ((node | 1, 0),))


def _certified(p: str, l: int) -> bool:
    """Whether d(d(corolla)) = 0 for every vertex kind and arity of the
    faces of K_l or J_l, over formal children (see the module docstring)."""
    kinds = (("k", 2),) if p == "K" else (("f", 1), ("p", 2), ("u", 2))
    for kd, lo in kinds:
        for m in range(lo, l + 1):
            square: Dict[tuple, int] = {}
            corolla = _mk(kd, range(2, 2 * m + 1, 2))
            for g, e in _boundary(corolla, _formal)[1]:
                for h, e2 in _boundary(g, _formal)[1]:
                    key = (h, (e ^ e2) >> 1)        # the face and the mask
                    square[key] = square.get(key, 0) + _sign(e ^ e2)
            if any(square.values()):
                return False
    return True


def boundary_map_consistency(polytope: str, l: int) -> dict:
    """Verify d(d(face)) = 0 over the integers on every face: by the
    corolla certificate, with faces and boundary entries counted, or, when
    it fails, face by face (see the module docstring)."""
    p = _check_budget(polytope, l)
    bad = []
    if l >= 2 and _certified(p, l):
        _, faces, entries = _faces_poly("T" if p == "K" else "P", l)
    else:
        boundaries: Dict[object, Dict[tuple, int]] = {}

        def boundary(face):
            if face not in boundaries:
                boundaries[face] = signed_boundary(face)
            return boundaries[face]

        entries = faces = 0
        for face in enumerate_faces(p, l):
            square: Dict[tuple, int] = {}
            b = boundary(face)
            faces += 1
            entries += len(b)
            for g, cg in b.items():
                for h, ch in boundary(g).items():
                    square[h] = square.get(h, 0) + cg * ch
            residual = {h: c for h, c in square.items() if c != 0}
            if residual:
                bad.append((serialize_face(face),
                            {serialize_face(h): c
                             for h, c in residual.items()}))
    return {
        "polytope": p,
        "l": l,
        "faces": faces,
        "boundary_entries": entries,
        "dd_zero": not bad,
        "failures": bad,
    }
