"""Sign certificates: the sign rules of ``ainfty`` checked as formal
identities.

``symbolic_delta_squared`` cancels the squared differential over formal
arity symbols, ``check_consistency_continuation`` and
``check_consistency_homotopy`` check the two map-level sign lemmas, and
``composition_sign_identity`` checks the exponent identity behind
composing tensor expansions.  The closed forms ``_homotopy_parity``,
``_pair_parity`` and ``_defect_parity`` state the signs ``ainfty._fan_in``
builds term by term, and tests check the fan-in against them.

The sign rules stay in the modules whose code runs them, and this module
reads exactly these names off them in code, its whole interface to both:

- ``ainfty._delta_exp``, the differential's slot exponent;
- ``ainfty._a3_left`` and ``ainfty._a3_right``, the dual slot signs of A3;
- ``ainfty._split_parity``, the block-partition exponent;
- ``ainfty._composition_holds``, whether a rule signs a grouped chain
  alike both ways;
- ``polytopes.assoc_facet_parity``, the associahedron facet signs, and
  ``polytopes._compositions``, the ordered compositions of an integer.

Each is read as a module attribute when a certificate runs, never bound
at import, so a rule patched on ``ainfty`` or ``polytopes`` is the rule
checked here.  No request path runs this module: neither ``ainfty`` nor
any module a ``cli`` handler imports imports it.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from . import ainfty, polytopes

__all__ = [
    "symbolic_delta_squared",
    "composition_sign_identity",
    "check_consistency_continuation",
    "check_consistency_homotopy",
]


# ---------------------------------------------------------------------------
# closed forms of the fan-in signs


def _homotopy_parity(arities, mus, p) -> int:
    """Exponent of a homotopy term on a chain with factor indices ``mus``
    cut into blocks of the given arities (w_1 .. w_r), block ``p`` (from 0)
    a homotopy block and the others continuation blocks:
    r + ``ainfty._split_parity`` + sum_{j<p} (w_j-1) + the index sum of the
    factors left of block ``p``."""
    width = sum(arities[:p])
    return (len(arities) + ainfty._split_parity(arities, mus) + width - p
            + sum(mus[:width])) % 2


def _pair_parity(arities, mus, p, q) -> int:
    """Exponent of a fan-in term with two odd blocks, ``p`` < ``q`` (from
    0), among blocks of the given arities on a chain with factor indices
    ``mus``: ``ainfty._split_parity`` plus, for each of the two, the sum
    of (w_j - 1) over the blocks to its left and the index sum of the
    factors to its left, the part of ``_homotopy_parity`` a placed block
    adds (its r is added twice)."""
    at = list(itertools.accumulate(arities, initial=0))
    return (ainfty._split_parity(arities, mus) + at[p] - p + sum(mus[:at[p]])
            + at[q] - q + sum(mus[:at[q]])) % 2


def _defect_parity(arities, mus, p) -> int:
    """Exponent of a term of d F - F d' on a chain with factor indices
    ``mus`` cut into blocks of the given arities, F the fan-in of a
    continuation's components and d, d' odd: block ``p`` an entry of the
    one-output component D1 (``ainfty._chain_defect``), the others
    components of F.  It is ``_homotopy_parity`` + 1: d F - F d' is an
    odd coderivation along F, as the homotopy fan-in framed by F is, and
    that fan-in signs a block on its own output by
    ``_homotopy_parity([w], ., 0)`` = 1, where the defect keeps D1 as it
    is.  So d F - F d' is the fan-in of -D1 framed by F, as
    ``ainfty.check_chain_map`` builds it.  Each term of F then d (an
    arity-m tensor on m consecutive outputs of F) and of d' then F (a
    tensor inside one block of F) is one such term, and the exponents
    agree on every cut and index pattern (an exhaustive test)."""
    return (_homotopy_parity(arities, mus, p) + 1) % 2


# ---------------------------------------------------------------------------
# symbolic certificate for the squared differential


def symbolic_delta_squared(l: int, q_max: int,
                           mutation: Tuple[int, int, int] = (1, 1, 1)) -> dict:
    """Expand the squared differential over formal arity symbols.

    Ordered composites with disjoint supports must cancel in pairs once
    the graded commutation factor (-1)^(w1*w2) is applied; nested
    composites group by (source cardinality, outer slot, composite
    arity) and, after dividing out the facet parity of the composite's
    boundary cell, must all carry one uniform group sign.  ``mutation``
    perturbs the three factors of the sign exponent q*w + i*w + i; any
    zeroed factor has to be reported as a failure.
    """
    disjoint_pairs: Dict[tuple, list] = {}
    nested_groups: Dict[tuple, list] = {}
    for q0 in range(2, q_max + 1):
        for w2 in range(1, min(l, q0) + 1):
            q1 = q0 - w2 + 1
            for i2 in range(1, q1 + 1):
                inner_exp = ainfty._delta_exp(q0, w2, i2, mutation)
                for w1 in range(1, min(l, q1) + 1):
                    for i1 in range(1, q1 - w1 + 2):
                        exp = (inner_exp
                               + ainfty._delta_exp(q1, w1, i1, mutation)) % 2
                        if i1 <= i2 <= i1 + w1 - 1:
                            j = i2 - i1 + 1
                            key = (q0, i1, w1 + w2 - 1)
                            nested_groups.setdefault(key, []).append(
                                (w1, w2, j, exp))
                        else:
                            # outer slot in source coordinates
                            orig = i1 + (w2 - 1 if i2 < i1 else 0)
                            blocks = tuple(sorted([(orig, w1), (i2, w2)]))
                            disjoint_pairs.setdefault((q0, blocks), []).append(
                                (w1, w2, exp, i2 >= i1 + w1))
    failures: List[dict] = []
    for (q0, blocks), members in sorted(disjoint_pairs.items()):
        if len(members) != 2:
            failures.append({"kind": "disjoint", "key": [q0, list(blocks)],
                             "reason": f"expected 2 composites, got {len(members)}"})
            continue
        (w1a, w2a, expa, _), (w1b, w2b, expb, _) = members
        # the two orders name the same block arities
        swap = (w1a * w2a) % 2
        if (expa + expb + swap + 1) % 2 != 0:
            failures.append({"kind": "disjoint", "key": [q0, list(blocks)],
                             "reason": "orders fail to cancel"})
    group_count = 0
    for (q0, i1, bigl), members in sorted(nested_groups.items()):
        group_count += 1
        expected = ((q0 + i1 + 1) * (bigl + 1) - 1) % 2
        want = set()
        for w1 in range(max(1, bigl + 1 - l), min(l, bigl) + 1):
            w2 = bigl + 1 - w1
            for j in range(1, w1 + 1):
                want.add((w1, w2, j))
        got = set()
        for w1, w2, j, exp in members:
            got.add((w1, w2, j))
            normalized = (exp + polytopes.assoc_facet_parity(w1, w2, j)) % 2
            if normalized != expected:
                failures.append({
                    "kind": "nested", "key": [q0, i1, bigl],
                    "member": [w1, w2, j],
                    "reason": "sign disagrees with boundary orientation",
                })
        if got != want:
            failures.append({"kind": "nested", "key": [q0, i1, bigl],
                             "reason": "member multiset incomplete"})
    return {
        "l": l,
        "q_max": q_max,
        "mutation": list(mutation),
        "disjoint_pairs": len(disjoint_pairs),
        "nested_groups": group_count,
        "cancels": not failures,
        "failures": failures[:16],
    }


def composition_sign_identity(q_max: int = 4) -> dict:
    """Exponent identity behind composing tensor expansions.

    Splitting a chain twice (inner arities grouped under outer blocks)
    must produce the same total sign whether the grouping signs are
    accumulated level by level or read off the glued partition,
    including the graded evaluation factors for every index pattern
    (``ainfty._composition_holds``).  q_max = 4 already decides every q
    (``ainfty._composition_certified``).
    """
    failures = []
    cases = 0
    for q in range(1, q_max + 1):
        for inner in (c for n in range(1, q + 1)
                      for c in polytopes._compositions(q, n)):
            s = len(inner)
            for grouping in (c for n in range(1, s + 1)
                             for c in polytopes._compositions(s, n)):
                for mus in itertools.product((0, 1), repeat=q):
                    cases += 1
                    if not ainfty._composition_holds(
                            ainfty._split_parity, inner, grouping, mus):
                        failures.append({"inner": list(inner),
                                         "grouping": list(grouping),
                                         "mus": list(mus)})
    return {"q_max": q_max, "cases": cases, "holds": not failures,
            "failures": failures[:8]}


# ---------------------------------------------------------------------------
# symbolic consistency of the dual-side axioms


def _b2_prefactor(a: int, l2: int) -> int:
    # product rule prefactor for splitting a map across a dual word (a, b)
    return (a * l2) % 2


def _c2_first(a: int, b: int, l2: int) -> int:
    return (b + (a + 1) * l2) % 2


def _c2_second(a: int, l2: int) -> int:
    return (a * (l2 + 1)) % 2


def _swap(p1: int, p2: int) -> int:
    return (p1 * p2) % 2


def _lemma_cases(q_max: int, drop_max: int, families) -> dict:
    """Run ``families(a, b, q, l1, l2)``, a list of sign checks, on every
    two-part dual word (a, b) with a + b <= ``q_max`` and every drop
    q, l1, l2 <= ``drop_max``; a case fails when any check is false."""
    failures = []
    cases = 0
    for a in range(q_max + 1):
        for b in range(q_max + 1 - a):
            for q, l1, l2 in itertools.product(range(drop_max + 1), repeat=3):
                cases += 1
                if not all(families(a, b, q, l1, l2)):
                    failures.append({"a": a, "b": b, "q": q,
                                     "l1": l1, "l2": l2})
    return {"q_max": q_max, "cases": cases, "consistent": not failures,
            "failures": failures[:8]}


def check_consistency_continuation(q_max: int = 6, drop_max: int = 6) -> dict:
    """Product rule against the Leibniz rule, dual side.

    Expands both composition orders of the differential with a
    continuation over a two-part dual word and checks that the four
    term families agree pairwise, so the chain-map property propagates
    from elementary strings to all strings.
    """
    def families(a, b, q, l1, l2):
        # differential after the continuation
        dh1 = (_b2_prefactor(a, l2) + ainfty._a3_left(b + l2)) % 2
        dh2 = (_b2_prefactor(a, l2) + ainfty._a3_right(a + l1, q)
               + _swap(q + 1, l1)) % 2
        # continuation after the differential
        hd1 = (ainfty._a3_left(b) + _b2_prefactor(a + q, l2)
               + _swap(q + 1, l2)) % 2
        hd2 = (ainfty._a3_right(a, q) + _b2_prefactor(a, l2)) % 2
        # printed forms of the two expansions
        disp_dh1 = (a * l2 + b + l2) % 2
        disp_dh2 = (a * l2 + a * (q + 1)) % 2
        disp_hd1 = (b + (a + 1) * l2) % 2
        disp_hd2 = (a * (q + 1 + l2)) % 2
        return [
            dh1 == disp_dh1, dh2 == disp_dh2,
            hd1 == disp_hd1, hd2 == disp_hd2,
            dh1 == hd1, dh2 == hd2,
        ]

    return _lemma_cases(q_max, drop_max, families)


def check_consistency_homotopy(q_max: int = 6, drop_max: int = 6) -> dict:
    """Homotopy axioms against the Leibniz rule, dual side.

    The eight term families of the two composition orders must pair up:
    equal coefficients on the families that assemble the commutator's
    elementary values, opposite uniform coefficients on the families
    that cancel through the chain-map property of the framing map.
    """
    def families(a, b, q, l1, l2):
        # differential after the homotopy
        t1 = (_c2_first(a, b, l2) + ainfty._a3_left(b + l2)) % 2
        t2 = (_c2_first(a, b, l2) + ainfty._a3_right(a + l1, q)
              + _swap(q + 1, l1 + 1)) % 2
        t3 = (_c2_second(a, l2) + ainfty._a3_left(b + l2)) % 2
        t4 = (_c2_second(a, l2) + ainfty._a3_right(a + l1, q)
              + _swap(q + 1, l1)) % 2
        # homotopy after the differential
        s1 = (ainfty._a3_left(b) + _c2_first(a + q, b, l2)
              + _swap(q + 1, l2)) % 2
        s2 = (ainfty._a3_left(b) + _c2_second(a + q, l2)
              + _swap(q + 1, l2 + 1)) % 2
        s3 = (ainfty._a3_right(a, q) + _c2_first(a, b + q, l2)) % 2
        s4 = (ainfty._a3_right(a, q) + _c2_second(a, l2)) % 2
        # printed forms
        disp_t1 = (b + (a + 1) * l2 + b + l2) % 2
        disp_t2 = (b + (a + 1) * l2 + (a + 1) * (q + 1)) % 2
        disp_t3 = (a * (l2 + 1) + b + l2) % 2
        disp_t4 = (a * (l2 + 1) + a * (q + 1)) % 2
        disp_s1 = (b + b + a * l2) % 2
        disp_s2 = (b + (a + 1) * (l2 + 1)) % 2
        disp_s3 = (a * (q + 1) + b + q + (a + 1) * l2) % 2
        disp_s4 = (a * (q + 1) + a * (l2 + 1)) % 2
        return [
            t1 == disp_t1, t2 == disp_t2, t3 == disp_t3,
            t4 == disp_t4, s1 == disp_s1, s2 == disp_s2,
            s3 == disp_s3, s4 == disp_s4,
            # commutator families assemble with the product rule coefficients
            t1 == s1, t1 == (a * l2) % 2,
            t4 == s4, t4 == (a * (q + l2)) % 2,
            # cross families cancel through the chain-map property:
            # opposite and uniform in q
            t2 == (s3 + 1) % 2,
            t2 == (b + (a + 1) * (q + l2 + 1)) % 2,
            t3 == (s2 + 1) % 2,
        ]

    return _lemma_cases(q_max, drop_max, families)
