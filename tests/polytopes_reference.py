"""``openstrings.polytopes.signed_boundary`` as it was before each factor
dimension was computed once: the positive factors of a face are listed by
a preorder generator that evaluates ``_factor_dim`` twice per vertex.
Kept only as a reference for the differential tests; the boundary moves
and the Koszul sign of the reordering are the library's own."""

from __future__ import annotations

from openstrings.polytopes import (
    _INT_CELL,
    _INT_END0,
    _INT_END1,
    _children,
    _factor_dim,
    _is_leaf,
    _koszul_sign,
    _moves_at,
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
