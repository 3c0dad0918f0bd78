"""Two earlier forms of ``openstrings.polytopes``, kept only as references
for the differential tests.

``signed_boundary`` is the signed boundary as it was before the Leibniz
recursion: every move rebuilds the whole face by its vertex path, and the
sign of reordering the replaced factors into the new face's preorder is a
quadratic Koszul count over two factor lists, matched through per-move
path maps.  It takes the tree encoding and the parity rules from the
library and nothing of its boundary code.

``boundary_map_consistency`` is the check as it was before the corolla
certificate: it enumerates every face and squares the library's signed
boundary on it.  It looks both up on the module at call time, so a rule
patched into the library is what it checks."""

from __future__ import annotations

from openstrings import polytopes
from openstrings.polytopes import (
    _INT_CELL,
    _INT_END0,
    _INT_END1,
    _children,
    _compositions,
    _factor_dim,
    _is_leaf,
    _kind,
    _mk,
    assoc_facet_sign,
    multi_lower_sign,
    multi_upper_sign,
)


def preorder_internal(face, path=()):
    if _is_leaf(face):
        return
    yield path, face
    for idx, child in enumerate(_children(face)):
        yield from preorder_internal(child, path + (idx,))


def positive_factors(face):
    return [(p, _factor_dim(n)) for p, n in preorder_internal(face)
            if _factor_dim(n) >= 1]


def _get(face, path):
    node = face
    for idx in path:
        node = _children(node)[idx]
    return node


def _replace(face, path, new_node):
    if not path:
        return new_node
    k = _kind(face)
    ch = list(_children(face))
    ch[path[0]] = _replace(ch[path[0]], path[1:], new_node)
    return _mk(k, ch)


def _moves_at(face, vpath):
    """All codimension-one degenerations of the factor at ``vpath``, as
    (new_face, lemma_sign, lemma_factors, path_map, tag): lemma_factors
    lists the replacing factor vertices (path, dim) in the product order
    of the parity rule, and path_map rewrites the paths of untouched
    vertices below vpath."""
    node = _get(face, vpath)
    kd = _kind(node)
    ch = _children(node)
    m = len(ch)

    def remap_split(i0, l2):
        # children [i0, i0+l2) move one level down to slot i0
        def pm(path):
            if len(path) <= len(vpath) or path[:len(vpath)] != vpath:
                return path
            c = path[len(vpath)]
            rest = path[len(vpath) + 1:]
            if c < i0:
                return path
            if c < i0 + l2:
                return vpath + (i0, c - i0) + rest
            return vpath + (c - l2 + 1,) + rest
        return pm

    if kd in ("k", "p", "u") and m >= 3:
        for l1 in range(2, m):
            l2 = m + 1 - l1
            for i in range(1, l1 + 1):
                i0 = i - 1
                inner = _mk(kd, ch[i0:i0 + l2])
                outer = _mk(kd, ch[:i0] + (inner,) + ch[i0 + l2:])
                lemma = [(vpath, l1 - 2), (vpath + (i0,), l2 - 2)]
                yield (_replace(face, vpath, outer), assoc_facet_sign(l1, l2, i),
                       lemma, remap_split(i0, l2), ("split", l1, l2, i))

    if kd == "f" and m >= 2:
        for l2 in range(2, m + 1):
            l1 = m + 1 - l2
            for i in range(1, l1 + 1):
                i0 = i - 1
                inner = _mk("u", ch[i0:i0 + l2])
                outer = _mk("f", ch[:i0] + (inner,) + ch[i0 + l2:])
                lemma = [(vpath, l1 - 1), (vpath + (i0,), l2 - 2)]
                yield (_replace(face, vpath, outer), multi_lower_sign(l1, l2, i),
                       lemma, remap_split(i0, l2), ("lower", l1, l2, i))
        for q in range(2, m + 1):
            for parts in _compositions(m, q):
                starts = []
                pos = 0
                for k in parts:
                    starts.append(pos)
                    pos += k
                fronts = tuple(_mk("f", ch[starts[j]:starts[j] + parts[j]])
                               for j in range(q))
                lemma = [(vpath, q - 2)] + [
                    (vpath + (j,), parts[j] - 1) for j in range(q)]

                def pm(path, starts=starts, parts=parts):
                    if len(path) <= len(vpath) or path[:len(vpath)] != vpath:
                        return path
                    c = path[len(vpath)]
                    rest = path[len(vpath) + 1:]
                    for j in range(len(parts) - 1, -1, -1):
                        if c >= starts[j]:
                            return vpath + (j, c - starts[j]) + rest
                    raise AssertionError("unmapped child")
                yield (_replace(face, vpath, _mk("p", fronts)),
                       multi_upper_sign(parts), lemma, pm, ("upper", parts))


def _koszul_sign(order_a, order_b):
    """Sign of the graded permutation taking factor list a to factor list b
    (same keys, possibly different order); dims attached to the keys."""
    pos_b = {key: k for k, (key, _) in enumerate(order_b)}
    exponent = 0
    n = len(order_a)
    for x in range(n):
        kx, dx = order_a[x]
        for y in range(x + 1, n):
            ky, dy = order_a[y]
            if pos_b[kx] > pos_b[ky]:
                exponent += dx * dy
    return -1 if exponent % 2 else 1


def signed_boundary(face):
    if face == _INT_CELL:
        return {_INT_END1: 1, _INT_END0: -1}
    if face in (_INT_END0, _INT_END1) or _is_leaf(face):
        return {}
    out = {}
    factors = positive_factors(face)
    for idx, (vpath, _vdim) in enumerate(factors):
        prefix = sum(d for _, d in factors[:idx]) % 2
        for new_face, lemma_sign, lemma, path_map, _tag in _moves_at(face, vpath):
            prod_order = [(p, d) for p, d in factors[:idx]]
            prod_order += [(p, d) for p, d in lemma if d >= 1]
            prod_order += [(path_map(p), d) for p, d in factors[idx + 1:]]
            canon_order = positive_factors(new_face)
            sign = (-1 if prefix else 1) * lemma_sign
            sign *= _koszul_sign(prod_order, canon_order)
            out[new_face] = out.get(new_face, 0) + sign
    return {f: c for f, c in out.items() if c != 0}


def boundary_map_consistency(polytope, l):
    faces = polytopes.enumerate_faces(polytope, l)
    p = polytope.upper()
    boundaries = {}

    def boundary(face):
        if face not in boundaries:
            boundaries[face] = polytopes.signed_boundary(face)
        return boundaries[face]

    bad = []
    entries = 0
    for face in faces:
        square = {}
        b = boundary(face)
        entries += len(b)
        for g, cg in b.items():
            for h, ch in boundary(g).items():
                square[h] = square.get(h, 0) + cg * ch
        residual = {h: c for h, c in square.items() if c != 0}
        if residual:
            bad.append((polytopes.serialize_face(face),
                        {polytopes.serialize_face(h): c for h, c in residual.items()}))
    return {
        "polytope": p,
        "l": l,
        "faces": len(faces),
        "boundary_entries": entries,
        "dd_zero": not bad,
        "failures": bad,
    }
