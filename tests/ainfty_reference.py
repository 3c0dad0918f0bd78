"""Reference implementations of ``openstrings.ainfty`` checks, kept only
for the differential tests; the data model, the matrix helpers and the
sign rules are the library's own.

- ``validate_axioms_A`` reads A3 on dual words: the dual one-output
  components of the differential (``elementary_duals``) are spliced into
  every slot of each dual word, and the prediction is compared with the
  transposed differential.
- ``check_chain_map`` predicts the dual expansion of the continuation by
  multiplying its dual one-output components over every dual target
  word, and compares it with the transposed continuation matrix.  It
  multiplies the coefficients of each term right to left on the primal
  word, where the expansion multiplies left to right.  By default it
  assembles the continuation through ``ainfty.assemble_continuation``, so
  a test that patches the library's assembler patches this copy too.
- ``compose_continuations`` walks every word of the last complex: each
  word is cut into blocks of the second map's entries, and the first
  map is looked up on the word of their outputs.

These are the versions from before the one-output components were read
on the primal word basis and glued by fan-in.

- ``_expand`` is the block walk that assembled continuations and
  homotopies before they were built by fan-in over target words: it cuts
  each source word into blocks from left to right and adds the sign one
  block at a time.  ``assemble_continuation``, ``assemble_homotopy`` and
  ``check_homotopy`` are the library functions as they were on top of
  it.

The ``word_basis_*`` checks are the library's ``check_a_infinity``,
``check_chain_map`` and ``check_homotopy`` as they were before they were
decided on one-output defects, and ``check_composition`` and
``homotopic_map`` as they were before the composition was decided on a
sign certificate and the far end solved on one-output components: every
check builds its composites on the word basis.  They are the oracle for the one-output checks, and read the
complexes' words and differentials and call
``ainfty.assemble_differential`` and ``ainfty.assemble_continuation`` as
the library does, so a test that patches the library's assembler patches
these copies too.

- ``product_fan_in`` and ``product_fan_in_matrix`` are the fan-in kernel
  as it was before each word's terms extended its prefix's: every choice
  of one component per factor (``itertools.product``), its coefficients
  multiplied left to right and its sign read off the whole chain by
  ``ainfty._split_parity`` or by the closed forms
  ``signs._homotopy_parity`` and ``signs._pair_parity``, each looked up on
  its module when called (and the closed forms read
  ``ainfty._split_parity`` when they run), so a test that patches a sign
  rule patches this kernel too.  The
  ``word_basis_*`` checks fan in through it.
- ``expanded_check_chain_map`` is ``check_chain_map`` as it was before a
  passing map was decided without the continuation matrix: it expands F
  over every target word, reads its one-output components off F and
  compares their fan-in with F before deciding on the one-output defect.
- ``word_basis_check_augmentation`` is ``check_augmentation`` as it was
  before it was read off the tensors: the values are extended over every
  word, with the inline exponent sum_i (q-i) mu_i, and composed with the
  differential and with the continuation matrix.

These are the versions from before the Leibniz rule had one kernel
(``ainfty._splice``) and before words were built level by level.

- ``row_differential`` walks each source word's row by arity and slot
  through the tensors indexed by input chain (``_tensor_index``);
  ``walked`` gives a complex that differential, in its row order.
- ``looped_validate_axioms_A`` predicts A3 by its own slot loop.
- ``two_path_check_chain_map`` sums exact, ``_one_block``-certified
  entries into the one-output components and reads any other map's
  components off F, comparing their fan-in with F for
  ``dual_expansion``.
- ``unsorted_homotopic_map`` lists the solved entries in the order each
  pass reads the one-output keys.
- ``parts_splice`` is the one-output splice of the defects, the tensors
  listed anew on every call.
- ``combinations_enumerate_words`` walks every increasing label path.

These are the elimination kernels from before entries were packed into
big ints (``_poly._pack_block``): Bareiss's step on dict polynomials.

- ``dict_bareiss_entry`` is the fraction-free update of one entry.
- ``dict_rank`` is ``ainfty._rank`` on dict entries: the pivot of least
  (valuation, row, column) first, and the unit test over Z.
- ``dict_det`` is ``_poly.det`` on dict entries, swapping in a row when
  a pivot vanishes."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import add, mul

from openstrings import ainfty, signs
from openstrings._poly import _exact_div
from openstrings.ainfty import (
    Augmentation,
    MapDatum,
    NonUnitPivot,
    TensorEntry,
    _a3_left,
    _a3_right,
    _acc,
    _components,
    _delta_exp,
    _dual_transpose,
    _entry_report,
    _grade,
    _is_zero,
    _mat_add,
    _mat_compose,
    _mat_entries,
    _mat_is_zero,
    _on_tensors,
    _one_output,
    _prefix_mu,
    _signed,
    _splice,
    _split_parity,
    _targets,
    _validate_maps,
    _word_mu,
)


def _tensor_index(entries):
    """The entries listed per input chain."""
    idx = {}
    for e in entries:
        idx.setdefault(e.inputs, []).append(e)
    return idx


def product_fan_in(word, components, gens, k=None, after=None, longest=None,
                   then=None, last=None, odd=True):
    """Every way to produce ``word`` with one component per factor, as
    (glued input chain, signed coefficient product); with ``k`` and
    ``after`` the homotopy terms, by the position of the k factor, signed
    by ``_homotopy_parity`` (``_split_parity`` when not ``odd``); with
    ``then`` and ``last`` too the terms with a second special factor, by
    its position and then the k factor's, signed by ``_pair_parity``."""
    def table(t, g):
        return t.get(g, ())

    if k is None:
        slots = [(None, [table(components, g) for g in word])]
    elif then is None:
        slots = [(p, [table(components, g) for g in word[:p]]
                  + [table(k, word[p])]
                  + [table(after, g) for g in word[p + 1:]])
                 for p in range(len(word))]
    else:
        slots = [((p, q), [table(components, g) for g in word[:p]]
                  + [table(k, word[p])]
                  + [table(after, g) for g in word[p + 1:q]]
                  + [table(then, word[q])]
                  + [table(last, g) for g in word[q + 1:]])
                 for q in range(len(word)) for p in range(q)]
    for p, factors in slots:
        for choice in itertools.product(*factors):
            chain = tuple(x for inputs, _ in choice for x in inputs)
            if longest is not None and len(chain) > longest:
                continue
            arities = [len(inputs) for inputs, _ in choice]
            mus = [gens[x].mu for x in chain]
            if p is None or not odd:
                exp = ainfty._split_parity(arities, mus)
            elif then is None:
                exp = signs._homotopy_parity(arities, mus, p)
            else:
                exp = signs._pair_parity(arities, mus, *p)
            yield chain, _signed(reduce(mul, (cf for _, cf in choice)), exp)


def product_fan_in_matrix(words, components, gens, k=None, after=None,
                          longest=None, **frame):
    out = {}
    for word in words:
        for chain, coeff in product_fan_in(word, components, gens, k, after,
                                           longest, **frame):
            _acc(out.setdefault(chain, {}), word, coeff)
    return {v: row for v, row in out.items() if row}


def _dual_word(word):
    return tuple(reversed(word))


def elementary_duals(a):
    """Dual values on single generators: transposed one-output components."""
    out = {}
    for win, cols in a.items():
        for wout, coeff in cols.items():
            if len(wout) == 1:
                out.setdefault(wout[0], []).append((_dual_word(win), coeff))
    return out


def validate_axioms_A(c):
    gens = c._gens
    word_set = set(c.words)
    a1 = True
    for word in c.words:
        for lo in range(len(word)):
            for hi in range(lo + 1, len(word) + 1):
                if word[lo:hi] not in word_set:
                    a1 = False
    a2 = True
    for win, wout, coeff in _mat_entries(c.differential):
        w = len(win) - len(wout) + 1
        delta = _word_mu(wout, gens) - _word_mu(win, gens) - (2 - w)
        if _grade(delta, c.modulus) != 0:
            a2 = False
    # the elementary dual values spliced into every slot of each dual word
    # with sign (-1)^((i-1)w + Q - i) and the graded factor of the block
    # against the dual factors to its right
    eduals = elementary_duals(c.differential)
    predicted = {}
    for word in c.words:
        dword = _dual_word(word)
        prefix = _prefix_mu(dword, gens)
        row = {}
        qq = len(dword)
        for i in range(1, qq + 1):
            suffix_mu = prefix[qq] - prefix[i]
            for chunk, coeff in eduals.get(dword[i - 1], ()):
                w = len(chunk)
                exp = (_a3_right(i - 1, w - 1) + _a3_left(qq - i)
                       + w * suffix_mu)
                _acc(row, dword[:i - 1] + chunk + dword[i:],
                     _signed(coeff, exp))
        if row:
            predicted[dword] = row
    defect = _mat_add(_dual_transpose(c.differential), predicted, sign=-1)
    a3 = _mat_is_zero(defect)
    return {
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "ok": a1 and a2 and a3,
        "a3_defects": [] if a3 else _entry_report(defect),
    }


def remh_predicted(c, c_prime, fmat):
    """Dual expansion of a continuation from its one-output components.

    The coefficients of each term are multiplied along the dual word,
    right to left on the primal word."""
    gens_p = c_prime._gens
    eduals = elementary_duals(fmat)
    predicted = {}
    for word in c.words:
        dword = _dual_word(word)
        row = {}
        for choices in itertools.product(*(eduals.get(g, ()) for g in dword)):
            out = tuple(g for ch, _ in choices for g in ch)
            # the dual word reverses the blocks: read right to left, each
            # block's graded factor is against the chunks to its right
            exp = _split_parity([len(ch) for ch, _ in reversed(choices)],
                                [gens_p[g].mu for g in reversed(out)])
            _acc(row, out, _signed(reduce(mul, (cf for _, cf in choices)),
                                   exp))
        if row:
            predicted[dword] = row
    return predicted


def check_chain_map(c, c_prime, h, fmat=None):
    """``fmat`` defaults to the library's assembled continuation."""
    if fmat is None:
        fmat = ainfty.assemble_continuation(c, c_prime, h)
    lhs = _mat_compose(fmat, c.differential)
    rhs = _mat_compose(c_prime.differential, fmat)
    defect = _mat_add(lhs, rhs, sign=-1)
    ok = _mat_is_zero(defect)
    dual_defect = _mat_add(_dual_transpose(fmat),
                           remh_predicted(c, c_prime, fmat),
                           sign=-1)
    return {
        "chain_map": ok,
        "dual_expansion": _mat_is_zero(dual_defect),
        "defects": [] if ok else _entry_report(defect),
    }


def _continuation_terms(source, index):
    """(input word, output word, signed coefficient product) of the
    continuation blocks of ``index`` over every word of ``source``; an
    arity-w block adds D + (w+1)m to the exponent, D the sum of (w-1) over
    the blocks already placed and m the index sum to its left."""
    for word in source.words:
        q = len(word)
        prefix = _prefix_mu(word, source._gens)
        found = []

        def walk(pos, d, exp, out, coeff):
            if pos == q:
                found.append((out, _signed(coeff, exp)))
                return
            m = prefix[pos]
            for end in range(pos + 1, q + 1):
                w = end - pos
                for e in index.get(word[pos:end], ()):
                    walk(end, d + w - 1, exp + d + (w + 1) * m,
                         out + (e.output,),
                         e.coeff if coeff is None else coeff * e.coeff)

        walk(0, 0, 0, (), None)
        for out, coeff in found:
            yield word, out, coeff


def compose_continuations(c0, c1, c2, h01, h12):
    _validate_maps(c1, c2, h12)
    _validate_maps(c0, c1, h01)
    h01index = _tensor_index(h01.h)
    acc = {}
    for word, mid_word, coeff in _continuation_terms(c2,
                                                     _tensor_index(h12.h)):
        for outer in h01index.get(mid_word, ()):
            _acc(acc, (word, outer.output), coeff * outer.coeff)
    entries = tuple(TensorEntry(w, g, c)
                    for (w, g), c in sorted(acc.items()) if c)
    return MapDatum(h=entries)


def _expand(source, index, k_index=None, after=None, words=None):
    """Tensor-expand elementary blocks into a matrix on ``words`` (default:
    every word of ``source``).

    Each word is cut into consecutive blocks from left to right, only
    through input chains found in the tensor indices; every block applies
    one entry, and the sign is built one block at a time.  With D the sum
    of (w-1) over the blocks already placed and m the index sum of the
    factors to the block's left, an arity-w block adds to the exponent

    - D + (w+1)m for a continuation block (``index`` alone);
    - 1 + D + (w+1)m for a block of ``index`` (h0) left of the homotopy
      block, or of ``after`` (h1) right of it;
    - 1 + w*m for the single homotopy block from ``k_index``: its two D
      terms cancel mod 2.

    Summed over the blocks of a continuation these increments are
    ``_split_parity`` of the block arities (mod 2), the exponent
    ``_fan_in`` applies, built incrementally because this is the hot
    kernel.  Each term's coefficients are multiplied left to right, as in
    ``_fan_in``, and the signed products are summed into the word's row
    by ``_acc``; a word with no term has no row.
    """
    hom = int(k_index is not None)
    matrix = {}
    for word in source.words if words is None else words:
        q = len(word)
        prefix = _prefix_mu(word, source._gens)
        row = {}

        def walk(pos, d, exp, out, coeff, blocks, k_blocks):
            if pos == q:
                if k_blocks is None:
                    _acc(row, out, _signed(coeff, exp))
                return
            m = prefix[pos]
            for end in range(pos + 1, q + 1):
                block, w = word[pos:end], end - pos
                for e in blocks.get(block, ()):
                    walk(end, d + w - 1, exp + hom + d + (w + 1) * m,
                         out + (e.output,),
                         e.coeff if coeff is None else coeff * e.coeff,
                         blocks, k_blocks)
                if k_blocks is not None:
                    for e in k_blocks.get(block, ()):
                        walk(end, d + w - 1, exp + 1 + w * m,
                             out + (e.output,),
                             e.coeff if coeff is None else coeff * e.coeff,
                             after, None)

        walk(0, 0, 0, (), None, index, k_index)
        if row:
            matrix[word] = row
    return matrix


def assemble_continuation(c, c_prime, h):
    _validate_maps(c, c_prime, h)
    return _expand(c_prime, _tensor_index(h.h))


def assemble_homotopy(c, c_prime, h0, h1, k):
    _validate_maps(c, c_prime, k=k)
    _validate_maps(c, c_prime, h0, h1)
    return _expand(c_prime, _tensor_index(h0.h), _tensor_index(k.k),
                   _tensor_index(h1.h))


def check_homotopy(c, c_prime, h0, h1, k):
    _validate_maps(c, c_prime, h0, h1, k=k)
    h0_index, h1_index = _tensor_index(h0.h), _tensor_index(h1.h)
    f0 = _expand(c_prime, h0_index)
    f1 = _expand(c_prime, h1_index)
    kk = _expand(c_prime, h0_index, _tensor_index(k.k), h1_index)
    bracket = _mat_add(_mat_compose(kk, c.differential),
                       _mat_compose(c_prime.differential, kk))
    defect = _mat_add(_mat_add(f0, f1, sign=-1), bracket, sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "homotopy": ok,
        "defects": [] if ok else _entry_report(defect),
    }


def word_basis_check_a_infinity(d):
    c = ainfty.assemble_differential(d)
    dd = _mat_compose(c.differential, c.differential)
    ok = _mat_is_zero(dd)
    return {
        "square_zero": ok,
        "words": len(c.words),
        "nonzero_entries": [] if ok else _entry_report(dd),
    }


def word_basis_check_chain_map(c, c_prime, h):
    fmat = ainfty.assemble_continuation(c, c_prime, h)
    lhs = _mat_compose(fmat, c.differential)
    rhs = _mat_compose(c_prime.differential, fmat)
    defect = _mat_add(lhs, rhs, sign=-1)
    ok = _mat_is_zero(defect)
    predicted = product_fan_in_matrix(c.words, _one_output(fmat),
                                      c_prime._gens)
    return {
        "chain_map": ok,
        "dual_expansion": _mat_is_zero(_mat_add(fmat, predicted, sign=-1)),
        "defects": [] if ok else _entry_report(defect),
    }


def word_basis_check_homotopy(c, c_prime, h0, h1, k):
    _validate_maps(c, c_prime, h0, h1, k=k)
    gens = c_prime._gens
    h0_parts, h1_parts = _components(h0.h), _components(h1.h)
    f0 = product_fan_in_matrix(c.words, h0_parts, gens)
    f1 = product_fan_in_matrix(c.words, h1_parts, gens)
    kk = product_fan_in_matrix(c.words, h0_parts, gens, _components(k.k),
                               h1_parts)
    bracket = _mat_add(_mat_compose(kk, c.differential),
                       _mat_compose(c_prime.differential, kk))
    defect = _mat_add(_mat_add(f0, f1, sign=-1), bracket, sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "homotopy": ok,
        "defects": [] if ok else _entry_report(defect),
    }


def word_basis_check_composition(c0, c1, c2, h01, h12):
    composite = ainfty.compose_continuations(c0, c1, c2, h01, h12)
    lhs = ainfty.assemble_continuation(c0, c2, composite)
    f01 = ainfty.assemble_continuation(c0, c1, h01)
    f12 = ainfty.assemble_continuation(c1, c2, h12)
    rhs = _mat_compose(f12, f01)
    defect = _mat_add(lhs, rhs, sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "composition": ok,
        "entries": len(composite.h),
        "defects": [] if ok else _entry_report(defect),
    }


def word_basis_homotopic_map(c, c_prime, h0, k):
    """``unsorted_homotopic_map`` with its entries sorted by (inputs,
    output)."""
    solved = unsorted_homotopic_map(c, c_prime, h0, k)
    return MapDatum(h=tuple(sorted(solved.h,
                                   key=lambda e: (e.inputs, e.output))))


def expanded_check_chain_map(c, c_prime, h):
    _validate_maps(c, c_prime, h)
    fmat = product_fan_in_matrix(c.words, _components(h.h), c_prime._gens)
    parts = _one_output(fmat)
    expansion = _mat_add(
        fmat, product_fan_in_matrix(c.words, parts, c_prime._gens), sign=-1)
    if not expansion and _on_tensors(c, c_prime):
        # the one-output component of d F - F d'
        one = {}
        for g, comps in c._d_parts.items():
            for word, coeff in comps:
                for chain, cf in product_fan_in(word, parts, c_prime._gens):
                    _acc(one.setdefault(chain, {}), g, cf * coeff)
        _splice(one, _targets(parts), c_prime._parts, c_prime._gens,
                lambda q, w, s, m: 1 + ainfty._d_slot(q, w, s))
        if _is_zero(one):
            return {"chain_map": True, "dual_expansion": True, "defects": []}
    lhs = _mat_compose(fmat, c.differential)
    rhs = _mat_compose(c_prime.differential, fmat)
    defect = _mat_add(lhs, rhs, sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "chain_map": ok,
        "dual_expansion": _mat_is_zero(expansion),
        "defects": [] if ok else _entry_report(defect),
    }


def word_basis_extend_augmentation(c, a):
    gens = c._gens
    for gid, value in a.values.items():
        if gid not in gens:
            raise ValueError(f"augmentation value on unknown generator {gid!r}")
        if _grade(gens[gid].mu + 1, c.modulus) != 0:
            raise ainfty.DegreeViolation(
                f"augmentation value on generator {gid!r} outside the "
                "index-(-1) class")
        if value.ring != c.datum.ring:
            raise ValueError(
                f"augmentation value on generator {gid!r} is over "
                f"{value.ring}, expected the datum ring {c.datum.ring}")
    out = {}
    for word in c.words:
        q = len(word)
        vals = [a.values.get(g) for g in word]
        if any(v is None for v in vals):
            continue
        exp = sum((q - (i + 1)) * gens[word[i]].mu for i in range(q))
        coeff = _signed(reduce(mul, vals), exp)
        if coeff:
            out[word] = coeff
    return out


def _functional_pullback(vec, m):
    out = {}
    for w, cols in m.items():
        terms = [coeff * vec[u] for u, coeff in cols.items() if u in vec]
        s = reduce(add, terms) if terms else None
        if s:
            out[w] = s
    return out


def word_basis_check_augmentation(c, a, push=None):
    gens = c._gens
    vec = word_basis_extend_augmentation(c, a)
    boundary = _functional_pullback(vec, c.differential)
    cond1 = not boundary
    cond2 = True
    for word, coeff in vec.items():
        q = len(word)
        for cut in range(1, q):
            left, right = word[:cut], word[cut:]
            lv, rv = vec.get(left), vec.get(right)
            if lv is None or rv is None:
                cond2 = False
                continue
            exp = (q - cut) * _word_mu(left, gens)
            if coeff != _signed(lv * rv, exp):
                cond2 = False
    report = {"condition_1": cond1, "condition_2": cond2,
              "supported_words": len(vec)}
    if push is not None:
        domain, hdata = push
        _validate_maps(c, domain, hdata)
        fmat = product_fan_in_matrix(c.words, _components(hdata.h),
                                     domain._gens)
        pushed_vec = _functional_pullback(vec, fmat)
        elem = {w[0]: v for w, v in pushed_vec.items() if len(w) == 1}
        pushed = Augmentation(values=elem)
        re_extended = word_basis_extend_augmentation(domain, pushed)
        factorizes = re_extended == pushed_vec
        sub = word_basis_check_augmentation(domain, pushed)
        report["pushforward"] = {
            "condition_1": sub["condition_1"],
            "condition_2": sub["condition_2"],
            "factorizes": factorizes,
        }
    report["ok"] = cond1 and cond2 and (
        push is None or (report["pushforward"]["condition_1"]
                         and report["pushforward"]["condition_2"]
                         and report["pushforward"]["factorizes"]))
    return report


def row_differential(c):
    """``FloerComplex.differential`` as it was before the tensors were
    spliced into each target word: each source word's row, walked by
    arity and slot through the tensors indexed by input chain."""
    gens = c._gens
    tindex = _tensor_index(c.datum.tensors)
    arities = sorted({len(block) for block in tindex})
    matrix = {}
    for word in c.words:
        q = len(word)
        prefix = _prefix_mu(word, gens)
        row = {}
        for w in arities:
            for i in range(1, q - w + 2):
                entries = tindex.get(word[i - 1:i - 1 + w])
                if not entries:
                    continue
                exp = _delta_exp(q, w, i) + w * prefix[i - 1]
                for entry in entries:
                    out_word = (word[:i - 1] + (entry.output,)
                                + word[i - 1 + w:])
                    _acc(row, out_word, _signed(entry.coeff, exp))
        if row:
            matrix[word] = row
    return matrix


def looped_validate_axioms_A(c):
    """``validate_axioms_A`` as it was before A3 was spliced by
    ``_splice``: the one-output components looped into every slot of each
    primal word."""
    gens = c._gens
    word_set = set(c.words)
    a1 = True
    for word in c.words:
        for lo in range(len(word)):
            for hi in range(lo + 1, len(word) + 1):
                if word[lo:hi] not in word_set:
                    a1 = False
    a2 = True
    for win, wout, coeff in _mat_entries(c.differential):
        w = len(win) - len(wout) + 1
        delta = _word_mu(wout, gens) - _word_mu(win, gens) - (2 - w)
        if _grade(delta, c.modulus) != 0:
            a2 = False
    components = _one_output(c.differential)
    predicted = {}
    for word in c.words:
        qq = len(word)
        prefix = _prefix_mu(word, gens)
        for i in range(1, qq + 1):
            for chunk, coeff in components.get(word[i - 1], ()):
                w = len(chunk)
                exp = (_a3_right(qq - i, w - 1) + _a3_left(i - 1)
                       + w * prefix[i - 1])
                _acc(predicted.setdefault(word[:i - 1] + chunk + word[i:], {}),
                     word, _signed(coeff, exp))
    defect = _mat_add(c.differential, predicted, sign=-1)
    a3 = _mat_is_zero(defect)
    return {
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "ok": a1 and a2 and a3,
        "a3_defects": [] if a3 else _entry_report(_dual_transpose(defect)),
    }


def two_path_check_chain_map(c, c_prime, h):
    """``check_chain_map`` as it was before ``dual_expansion`` was read
    off ``_one_block``: exact entries certified by ``_one_block`` are
    summed into the one-output components, and any other map reads its
    components off F and compares their fan-in with F."""
    _validate_maps(c, c_prime, h)
    gens = c_prime._gens
    expands = (all(e.coeff.cutoff is None for e in h.h)
               and ainfty._one_block(h.h, gens))
    if expands:
        one = {}
        for e in h.h:
            _acc(one.setdefault(e.inputs, {}), (e.output,), e.coeff)
        if _on_tensors(c, c_prime) and _is_zero(
                ainfty._chain_defect(c, c_prime, _one_output(one))):
            return {"chain_map": True, "dual_expansion": True, "defects": []}
    fmat = ainfty._fan_in_matrix(c.words, _components(h.h), gens)
    expansion = {}
    if not expands:
        parts = _one_output(fmat)
        expansion = _mat_add(
            fmat, ainfty._fan_in_matrix(c.words, parts, gens), sign=-1)
        if (not expansion and _on_tensors(c, c_prime)
                and _is_zero(ainfty._chain_defect(c, c_prime, parts))):
            return {"chain_map": True, "dual_expansion": True, "defects": []}
    lhs = _mat_compose(fmat, c.differential)
    rhs = _mat_compose(c_prime.differential, fmat)
    defect = _mat_add(lhs, rhs, sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "chain_map": ok,
        "dual_expansion": _mat_is_zero(expansion),
        "defects": [] if ok else _entry_report(defect),
    }


def unsorted_homotopic_map(c, c_prime, h0, k):
    """``homotopic_map`` as it was before its entries were sorted: in the
    order the one-output keys of each pass are read."""
    _validate_maps(c, c_prime, h0, k=k)
    gens, d_prime = c_prime._gens, c_prime.differential
    h0_parts, k_parts = _components(h0.h), _components(k.k)
    f0 = ainfty._fan_in_matrix(c.words, h0_parts, gens)
    h1_entries = []
    max_arity = max((len(w) for w in c_prime.words), default=0)
    for w in range(1, max_arity + 1):
        layer = [word for word in c_prime.words if len(word) == w]
        kk = ainfty._fan_in_matrix([u for u in c.words if len(u) <= w],
                                   h0_parts, gens, k_parts,
                                   _components(h1_entries), longest=w)
        bracket = _mat_add(
            _mat_compose({x: kk[x] for x in layer if x in kk}, c.differential),
            _mat_compose({x: d_prime[x] for x in layer if x in d_prime}, kk))
        want = _mat_add({x: f0[x] for x in layer if x in f0}, bracket, sign=-1)
        for word in layer:
            for wout, coeff in want.get(word, {}).items():
                if len(wout) == 1 and coeff:
                    h1_entries.append(TensorEntry(word, wout[0], coeff))
    return MapDatum(h=tuple(h1_entries))


def walked(c):
    """``c`` with the differential of ``row_differential`` given, in its
    row order: the complex the reference checks read as it was."""
    return ainfty.FloerComplex(c.datum, c.words, row_differential(c))


def combinations_enumerate_words(d):
    """``enumerate_words`` as it was before the words were built level by
    level: every increasing label path of each length, and every choice
    of generators along it."""
    by_pair = {}
    for g in ainfty._gen_map(d).values():
        by_pair.setdefault((g.i, g.j), []).append(g.id)
    for ids in by_pair.values():
        ids.sort()
    words = []
    labels = range(d.l + 1)
    for q in range(1, d.l + 1):
        for path in itertools.combinations(labels, q + 1):
            pairs = [(path[k], path[k + 1]) for k in range(q)]
            if any(p not in by_pair for p in pairs):
                continue
            for choice in itertools.product(*(by_pair[p] for p in pairs)):
                words.append((path, tuple(choice)))
    words.sort(key=lambda pw: (len(pw[1]), pw[0], pw[1]))
    return tuple(w for _, w in words)


def parts_splice(out, parts, c, exp=0):
    """The one-output ``_splice`` as it was before it was the one Leibniz
    kernel: each tensor of ``c`` with output ``u[s-1]`` spliced into slot
    s of each component u -> g of ``parts``, signed by
    ``_delta_exp(q, w, s)`` + w * (index sum of u[:s-1]), the tensors
    listed anew on every call."""
    gens, tensors = c._gens, _components(c.datum.tensors)
    for g, comps in parts.items():
        for word, coeff in comps:
            prefix = _prefix_mu(word, gens)
            for s, x in enumerate(word, 1):
                for inputs, cf in tensors.get(x, ()):
                    w = len(inputs)
                    sign = (exp + _delta_exp(len(word) + w - 1, w, s)
                            + w * prefix[s - 1])
                    chain = word[:s - 1] + inputs + word[s:]
                    _acc(out.setdefault(chain, {}), g, _signed(cf * coeff, sign))


def dict_bareiss_entry(p, a, x, y, prev):
    """(p*a - x*y) / prev on dict polynomials."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in a.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) - c1 * c2
    out = {e: c for e, c in out.items() if c}
    return _exact_div(out, prev) if out else out


def dict_rank(rows, scales, integral, src, dst, g):
    """``ainfty._rank`` on dict entries, with its exceptions."""
    ncols = len(dst)
    order = list(range(len(rows)))
    used = [False] * ncols
    prev = {0: 1}
    prev_lead = Fraction(1)
    scale = 1
    for step in range(len(rows)):
        best = min(((min(e), r, j) for r in range(step, len(rows))
                    for j, e in enumerate(rows[r]) if e and not used[j]),
                   default=None)
        if best is None:
            return step
        _, pr, pc = best
        rows[step], rows[pr] = rows[pr], rows[step]
        order[step], order[pr] = order[pr], order[step]
        prow = rows[step]
        p = prow[pc]
        scale *= scales[order[step]]
        lead = Fraction(p[min(p)], scale)
        if integral and abs(lead) != abs(prev_lead):
            raise NonUnitPivot(
                "pivot with non-invertible leading coefficient; "
                "run the elimination over rational coefficients "
                f"(grading class {g}, step {step + 1}, source word "
                f"{src[order[step]]}, target word {dst[pc]}, "
                f"lead(p_{step + 1}) = {lead}, lead(p_{step}) = {prev_lead})")
        for row in rows[step + 1:]:
            x = row[pc]
            for j in range(ncols):
                if not used[j] and j != pc:
                    row[j] = dict_bareiss_entry(p, row[j], x, prow[j], prev)
            row[pc] = {}
        used[pc] = True
        prev, prev_lead = p, lead
    return len(rows)


def dict_det(M):
    """``_poly.det`` on dict entries."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, {0: 1}
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k]), None)
        if piv is None:
            return {}
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p = A[k][k]
        for row in A[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = dict_bareiss_entry(p, row[j], x, A[k][j], prev)
        prev = p
    return {e: sign * c for e, c in prev.items()}
