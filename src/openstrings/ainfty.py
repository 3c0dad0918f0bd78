"""Signed chain machinery for composable-string complexes.

Complexes are spanned by composable chains of generators with Novikov
series coefficients.  The differential is assembled from structure
tensors with explicit combinatorial signs; evaluation of a tensor block
acting inside a chain follows the graded (Koszul) rule, each block
picking up the parity of the indices to its left.  The module also
carries the symbolic side: exponent-arithmetic certificates that the
sign conventions the concrete code calls cancel as the checks assume.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ._json import _json_field, _json_id, _json_int, _json_list, _json_object
from ._poly import InexactDivision  # noqa: F401
from ._poly import (_bareiss_entry, _bareiss_rows, _lead, _pack_block,
                    _packed_entry, _valuation)
from .novikov import NovikovSeries, _check_ring, format_series, parse_series
from .polytopes import _compositions, assoc_facet_parity

__all__ = [
    "DegreeViolation",
    "NonUnitPivot",
    "RequiresModTwoGrading",
    "Generator",
    "TensorEntry",
    "AInftyDatum",
    "FloerComplex",
    "MapDatum",
    "Augmentation",
    "assemble_differential",
    "check_a_infinity",
    "symbolic_delta_squared",
    "validate_axioms_A",
    "identity_continuation",
    "assemble_continuation",
    "check_chain_map",
    "assemble_homotopy",
    "homotopic_map",
    "check_homotopy",
    "compose_continuations",
    "check_composition",
    "composition_sign_identity",
    "check_consistency_continuation",
    "check_consistency_homotopy",
    "extend_augmentation",
    "check_augmentation",
    "euler_characteristic",
    "cohomology",
    "pair_subcomplex",
    "datum_from_json",
    "datum_to_json",
    "map_from_json",
    "augmentation_from_json",
]

Word = Tuple[str, ...]
Matrix = Dict[Word, Dict[Word, NovikovSeries]]


class DegreeViolation(ValueError):
    """A structure tensor entry breaks its required index shift."""


class NonUnitPivot(ValueError):
    """Elimination over integer coefficients hit a non-invertible pivot."""


class RequiresModTwoGrading(ValueError):
    """The operation needs a complex graded modulo two."""


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class Generator:
    id: str
    i: int
    j: int
    mu: int


@dataclass(frozen=True)
class TensorEntry:
    """One sparse entry of a structure tensor or map tensor.

    ``inputs`` is the tuple of generator ids consumed (a composable
    chain), ``output`` the generator id produced, ``coeff`` the Novikov
    series weight.
    """

    inputs: Tuple[str, ...]
    output: str
    coeff: NovikovSeries

    @property
    def arity(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class AInftyDatum:
    l: int
    generators: Tuple[Generator, ...]
    tensors: Tuple[TensorEntry, ...]
    modulus: int = 0
    ring: str = "Z"
    metadata: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MapDatum:
    """Elementary tensors of a continuation (``h``) and, optionally,
    of a homotopy (``k``)."""

    h: Tuple[TensorEntry, ...] = ()
    k: Tuple[TensorEntry, ...] = ()


@dataclass(frozen=True)
class Augmentation:
    """Values on elementary generators sitting in grading class zero."""

    values: Mapping[str, NovikovSeries]


def _gen_map(d: AInftyDatum) -> Dict[str, Generator]:
    out: Dict[str, Generator] = {}
    for g in d.generators:
        if g.id in out:
            raise ValueError(f"duplicate generator id {g.id!r}")
        if not (0 <= g.i < g.j <= d.l):
            raise ValueError(f"generator {g.id!r} endpoints out of range")
        out[g.id] = g
    return out


def _grade(value: int, modulus: int) -> int:
    return value % modulus if modulus > 0 else value


def enumerate_words(d: AInftyDatum) -> Tuple[Word, ...]:
    """All composable chains, shortest first, then by label path and ids.

    Level q + 1 extends each chain of level q by the generators that start
    at its last label, so the cost follows the chains, not the labels."""
    starts: Dict[int, List[Generator]] = {}
    for g in _gen_map(d).values():
        starts.setdefault(g.i, []).append(g)
    level = [((g.i, g.j), (g.id,)) for gs in starts.values() for g in gs]
    words: List[Word] = []
    while level:
        level.sort()
        words.extend(w for _, w in level)
        level = [(path + (g.j,), w + (g.id,)) for path, w in level
                 for g in starts.get(path[-1], ())]
    return tuple(words)


def _word_count(gens: Mapping[str, Generator]) -> int:
    """``len(enumerate_words(d))`` without the words: a DP over labels,
    ``ends[j]`` counting the chains that end at label j."""
    ends: Dict[int, int] = {}
    for g in sorted(gens.values(), key=lambda g: g.j):
        ends[g.j] = ends.get(g.j, 0) + 1 + ends.get(g.i, 0)
    return sum(ends.values())


def _word_mu(word: Word, gens: Mapping[str, Generator]) -> int:
    return sum(gens[g].mu for g in word)


def _prefix_mu(word: Word, gens: Mapping[str, Generator]) -> List[int]:
    """Index sums of the first 0 .. len(word) factors of ``word``."""
    return list(itertools.accumulate((gens[g].mu for g in word), initial=0))


def _validate_entries(entries, gens, out_gens, shift, modulus, ring, what):
    """Common well-formedness + degree validation for tensor entries.

    ``shift`` is the required index change as a function of the arity;
    every weight must lie in the coefficient ring ``ring``.
    """
    for e in entries:
        if not e.inputs:
            raise ValueError(f"{what} entry with empty input chain")
        for gid in e.inputs:
            if gid not in gens:
                raise ValueError(f"{what} references unknown generator {gid!r}")
        if e.output not in out_gens:
            raise ValueError(f"{what} outputs unknown generator {e.output!r}")
        chain = [gens[g] for g in e.inputs]
        for a, b in zip(chain, chain[1:]):
            if a.j != b.i:
                raise ValueError(f"{what} inputs {e.inputs} are not composable")
        out = out_gens[e.output]
        if (out.i, out.j) != (chain[0].i, chain[-1].j):
            raise ValueError(
                f"{what} output {e.output!r} does not bridge {e.inputs}")
        if not e.coeff:
            raise ValueError(f"{what} entry {e.inputs}->{e.output} has zero weight")
        if e.coeff.ring != ring:
            raise ValueError(
                f"{what} entry {e.inputs}->{e.output} has a weight over "
                f"{e.coeff.ring}, expected the datum ring {ring}")
        w = e.arity
        delta = out.mu - sum(g.mu for g in chain) - shift(w)
        if _grade(delta, modulus) != 0:
            raise DegreeViolation(
                f"{what} entry {e.inputs}->{e.output}: index shift "
                f"{out.mu - sum(g.mu for g in chain)} != {shift(w)} (mod {modulus})")


# ---------------------------------------------------------------------------
# matrices on the chain basis


def _signed(c: NovikovSeries, exp: int) -> NovikovSeries:
    """(-1)^exp * c; an even exponent returns ``c`` itself."""
    return c.scale(-1) if exp % 2 else c


def _acc(row: dict, key, value: NovikovSeries) -> None:
    """Add ``value`` into ``row[key]``, dropping the key when the sum is zero
    and exact.  The first term for a key is stored as it is (series are
    immutable).  A cancelled sum with a cutoff stays as a zero series with
    that cutoff, so an entry's cutoff is the minimum over every term summed
    into it, whatever the order; consumers read a zero series as zero."""
    s = row[key] + value if key in row else value
    if s or s.cutoff is not None:
        row[key] = s
    elif key in row:
        del row[key]


def _mat_add(a: Matrix, b: Matrix, sign: int = 1) -> Matrix:
    """``a + b``, or ``a - b`` with ``sign=-1``: the entries of ``b`` are
    negated as they are summed."""
    exp = int(sign < 0)
    out: Matrix = {w: dict(cols) for w, cols in a.items()}
    for w, cols in b.items():
        row = out.setdefault(w, {})
        for u, c in cols.items():
            _acc(row, u, _signed(c, exp))
    return {w: cols for w, cols in out.items() if cols}


def _mat_compose(first: Matrix, second: Matrix) -> Matrix:
    """Matrix of ``second  after  first`` on the word basis."""
    out: Matrix = {}
    for w, cols in first.items():
        row: Dict[Word, NovikovSeries] = {}
        for v, c in cols.items():
            for u, c2 in second.get(v, {}).items():
                _acc(row, u, c * c2)
        if row:
            out[w] = row
    return out


def _mat_entries(a: Matrix):
    for w in sorted(a):
        for u in sorted(a[w]):
            yield w, u, a[w][u]


def _mat_is_zero(a: Matrix) -> bool:
    return not any(c for cols in a.values() for c in cols.values())


def _entry_report(a: Matrix, limit: int = 16) -> List[dict]:
    out = []
    for w, u, c in _mat_entries(a):
        if not c:
            continue
        out.append({"in": list(w), "out": list(u), "coeff": format_series(c)})
        if len(out) >= limit:
            break
    return out


# ---------------------------------------------------------------------------
# sign rules: each exponent is stated once, here, and both the assemblers
# and the symbolic certificates call it


def _delta_exp(q, w, i, mutation=(1, 1, 1)):
    """Exponent q*w + i*w + i = q*w + i*(w-1) (mod 2) of an arity-w block
    in slot i of a length-q word in the differential; ``mutation`` scales
    its three terms, for the certificate's mutation tests."""
    a, b, cc = mutation
    return (a * (q * w) + b * (i * w) + cc * i) % 2


def _d_slot(q: int, w: int, s: int, m: int = 0) -> int:
    """``_delta_exp`` of an arity-w tensor spliced into slot s of a word of
    q factors: the differential's sign on the source of q + w - 1.  The
    index sum m left of the slot enters only through ``_splice``."""
    return _delta_exp(q + w - 1, w, s)


def _dd_slot(q: int, w: int, s: int, m: int) -> int:
    """Slot exponent of an arity-w entry of d d's one-output component D1
    spliced into slot s of a word of q factors, with index sum m left of
    the slot: ``_d_slot(q, w, s)`` + q + m.  With ``_splice``'s w*m, the
    spliced D1 is d d on the word basis when d is odd.

    Proof.  A composite of d d is an arity-w2 tensor in slot i2 of a word
    of Q factors, then an arity-w1 tensor in slot s of the result.  When
    the blocks are disjoint the two orders cancel (the disjoint pairs of
    ``symbolic_delta_squared``; each graded factor moves by the parity of
    the other block's arity, since a block's output index is its inputs'
    sum plus 2 - w, which an odd d keeps mod 2).  Otherwise the inner
    block sits at j = i2 - s + 1 inside the outer one, and the composite
    is the D1 term of the outer tensor (signed by ``_delta_exp(w1, w1,
    1)`` = 1) with the inner one in its slot j (``_d_slot(w1, w2, j)``
    plus w2 times the index sum m' left of j in the block), spliced into
    slot s as an arity-L piece, L = w1 + w2 - 1, q = Q - L + 1.  Its word
    basis exponent is ``_d_slot(Q - w2 + 1, w2, i2)`` + w2 (m + m') +
    ``_d_slot(q, w1, s)`` + w1 m, and with ``_delta_exp`` = qw + i(w - 1)
    both ``_d_slot`` sums reduce to Q(w1 + w2) + s(w1 + w2) + w1 + w2
    mod 2: the word basis exponent is the D1 term's plus
    ``_d_slot(q, L, s)`` + q + m + L m.  Nested composites and D1 terms
    correspond one to one, so the extension sums the same products."""
    return _d_slot(q, w, s) + q + m


def _a3_left(b_img: int) -> int:
    """Dual Leibniz (A3) sign of ``b_img`` dual factors right of the slot."""
    return b_img % 2


def _a3_right(a_img: int, q: int) -> int:
    """Dual Leibniz (A3) sign of ``a_img`` dual factors left of a slot
    whose dual value raises the cardinality by ``q``."""
    return (a_img * (q + 1)) % 2


def _split_parity(arities, mus) -> int:
    """Exponent of cutting a chain with factor indices ``mus`` into
    consecutive blocks of the given arities (w_1 .. w_r):
    sum_j (r-j)(w_j-1), plus, for each block of even arity, the index sum
    of the factors to its left (its graded evaluation factor)."""
    r = len(arities)
    exp = left = pos = 0
    for j, w in enumerate(arities, 1):
        exp += (r - j) * (w - 1)
        if w % 2 == 0:
            exp += left
        left += sum(mus[pos:pos + w])
        pos += w
    return exp % 2


def _homotopy_parity(arities, mus, p) -> int:
    """Exponent of a homotopy term on a chain with factor indices ``mus``
    cut into blocks of the given arities (w_1 .. w_r), block ``p`` (from 0)
    a homotopy block and the others continuation blocks:
    r + ``_split_parity`` + sum_{j<p} (w_j-1) + the index sum of the
    factors left of block ``p``."""
    width = sum(arities[:p])
    return (len(arities) + _split_parity(arities, mus) + width - p
            + sum(mus[:width])) % 2


def _pair_parity(arities, mus, p, q) -> int:
    """Exponent of a fan-in term with two odd blocks, ``p`` < ``q`` (from
    0), among blocks of the given arities on a chain with factor indices
    ``mus``: ``_split_parity`` plus, for each of the two, the sum of
    (w_j - 1) over the blocks to its left and the index sum of the
    factors to its left, the part of ``_homotopy_parity`` a placed block
    adds (its r is added twice)."""
    at = list(itertools.accumulate(arities, initial=0))
    return (_split_parity(arities, mus) + at[p] - p + sum(mus[:at[p]])
            + at[q] - q + sum(mus[:at[q]])) % 2


def _defect_parity(arities, mus, p) -> int:
    """Exponent of a term of d F - F d' on a chain with factor indices
    ``mus`` cut into blocks of the given arities, F the fan-in of a
    continuation's components and d, d' odd: block ``p`` an entry of the
    one-output component D1 (``_chain_defect``), the others components of
    F.  It is ``_homotopy_parity`` + 1: d F - F d' is an odd coderivation
    along F, as the homotopy fan-in framed by F is, and that fan-in signs
    a block on its own output by ``_homotopy_parity([w], ., 0)`` = 1,
    where the defect keeps D1 as it is.  So d F - F d' is the fan-in of
    -D1 framed by F, as ``check_chain_map`` builds it.  Each term of F
    then d (an arity-m tensor on m consecutive outputs of F) and of d'
    then F (a tensor inside one block of F) is one such term, and the
    exponents agree on every cut and index pattern (an exhaustive
    test)."""
    return (_homotopy_parity(arities, mus, p) + 1) % 2


# ---------------------------------------------------------------------------
# one-output components: a continuation is the product-rule extension of
# its entries with one output generator, the differential the Leibniz one


def _components(entries: Iterable[TensorEntry]
                ) -> Dict[str, List[Tuple[Word, NovikovSeries]]]:
    """(input chain, coefficient) of each entry, listed per output
    generator."""
    out: Dict[str, List[Tuple[Word, NovikovSeries]]] = {}
    for e in entries:
        out.setdefault(e.output, []).append((e.inputs, e.coeff))
    return out


def _one_output(a: Matrix) -> Dict[str, List[Tuple[Word, NovikovSeries]]]:
    """(input word, coefficient) of each entry of ``a`` with one output
    generator, listed per output generator."""
    out: Dict[str, List[Tuple[Word, NovikovSeries]]] = {}
    for win, cols in a.items():
        for wout, coeff in cols.items():
            if len(wout) == 1:
                out.setdefault(wout[0], []).append((win, coeff))
    return out


def _annotated(table, gens):
    """(inputs, coefficient, arity odd, index sum) of each component, per
    output generator: a table as ``_fan_in`` reads it."""
    return {g: [(inputs, cf, len(inputs) % 2,
                 sum(gens[x].mu for x in inputs)) for inputs, cf in comps]
            for g, comps in table.items()}


def _fan_in(components, gens, k=None, after=None, longest=None, *,
            then=None, last=None, odd=True, annotated=False):
    """Every way to produce a word with one component per factor: returns
    ``terms(word)``, a list of (glued input chain, coefficient).

    ``components`` lists (input chain, coefficient) per output generator
    and ``gens`` holds the generators of the input chains.  A term's
    coefficient is the product of its components' coefficients, taken
    left to right, signed by ``_split_parity`` of their arities on the
    glued chain.  With ``k`` and ``after`` (a homotopy framed by two
    continuations) one factor takes a component of ``k``, the factors to
    its left components of ``components`` and those to its right
    components of ``after``, signed by ``_homotopy_parity``; terms are
    listed by the position of that factor, then as ``itertools.product``
    lists the choices.  With ``then`` and ``last`` a second such factor,
    right of the first, takes a component of ``then`` and the factors
    right of it components of ``last``, signed by ``_pair_parity``.  With
    ``odd`` false the one ``k`` block is signed as a continuation block,
    by ``_split_parity``.  A glued chain longer than ``longest`` is
    skipped.  With ``annotated`` the tables are given as ``_annotated``
    returns them.

    A word's terms extend its prefix's by the last factor's components:
    one product per term, shared by every word with that prefix, whose
    terms are kept until a word two factors longer is read.  A prefix's
    terms with fewer special blocks placed are built only where the next
    factor has a component of the next special block.  A partial term
    carries its sign exponent, its number r of blocks and the index sum M
    of its chain: appending an arity-a block to a chain of length L adds
    L - r, and M when a is even, to ``_split_parity``, which signs the
    first block itself.  Placing an odd special block adds the fixed part
    L - r + M of ``_homotopy_parity`` (its width - p and the index sum to
    its left); r is added once per special block when the term is
    read."""
    def first(parts):
        return [(inputs, cf, _split_parity((len(inputs),),
                                           [gens[x].mu for x in inputs]), 1, s)
                for inputs, cf, _, s in parts
                if longest is None or len(inputs) <= longest]

    def extend(partials, parts, placing=False):
        out = []
        for chain, coeff, exp, r, m in partials:
            n = len(chain)
            step = exp + n - r + (n - r + m if placing else 0)
            for inputs, cf, odd_block, s in parts:
                if longest is not None and n + len(inputs) > longest:
                    continue
                out.append((chain + inputs, coeff * cf,
                            step if odd_block else step + m, r + 1, m + s))
        return out

    def read(table):
        return table if annotated else _annotated(table, gens)

    regions = [read(t) for t in (components, after, last) if t is not None]
    specials = [read(t) for t in (k, then) if t is not None]
    top = len(specials)
    # the tables a word's first factor reads with no or one block placed
    starts = regions[:1] + specials[:1]
    # memo[q]: the partial terms of the words of length q built so far
    memo: Dict[int, Dict[Tuple[int, Word], list]] = {}

    def partial(word, placed=0):
        """The terms on ``word`` with the first ``placed`` special blocks
        placed."""
        level = memo.setdefault(len(word), {})
        got = level.get((placed, word))
        if got is None:
            g, prefix = word[-1], word[:-1]
            if not prefix:
                got = first(starts[placed].get(g, ()) if placed < 2 else ())
            else:
                got = extend(partial(prefix, placed),
                             regions[placed].get(g, ()))
                if placed and specials[placed - 1].get(g):
                    got += extend(partial(prefix, placed - 1),
                                  specials[placed - 1][g], placing=odd)
            level[placed, word] = got
        return got

    def terms(word):
        for q in [q for q in memo if q < len(word) - 1]:
            del memo[q]
        return [(chain, _signed(coeff, exp + r * top if odd else exp))
                for chain, coeff, exp, r, _ in partial(word, top)]

    return terms


def _fan_in_matrix(words, components, gens, k=None, after=None,
                   longest=None, **frame) -> Matrix:
    """The fan-in (``_fan_in``, with ``frame`` its keyword arguments) over
    the target ``words`` as a matrix: a term producing ``u`` from the
    chain ``v`` is summed into [v][u], and a chain with no term left has
    no row."""
    terms = _fan_in(components, gens, k, after, longest, **frame)
    out: Matrix = {}
    for word in words:
        for chain, coeff in terms(word):
            _acc(out.setdefault(chain, {}), word, coeff)
    return {v: row for v, row in out.items() if row}


def _splice(out: Matrix, targets, pieces, gens, slot_exp) -> None:
    """The Leibniz rule: sum every piece spliced into one slot of each
    target.

    A target is (word, key, coefficient or None); ``pieces`` lists
    (input chain, coefficient) per output generator and ``gens`` holds the
    generators of the words.  A piece listed under ``word[s-1]`` replaces
    that factor, and the term (the piece's coefficient, times the
    target's) is summed into [glued chain][key], signed by
    ``slot_exp(len(word), w, s, m)`` for a piece of arity w, m the index
    sum of the factors left of the slot, plus w m (the graded factor).
    Each caller passes the certified sign rule of its extension."""
    for word, key, coeff in targets:
        q, prefix = len(word), _prefix_mu(word, gens)
        for s, x in enumerate(word, 1):
            m = prefix[s - 1]
            for inputs, cf in pieces.get(x, ()):
                w = len(inputs)
                _acc(out.setdefault(word[:s - 1] + inputs + word[s:], {}), key,
                     _signed(cf if coeff is None else cf * coeff,
                             slot_exp(q, w, s, m) + w * m))


def _targets(parts):
    """Components listed per output generator as ``_splice`` targets:
    (input word, output generator, coefficient)."""
    return ((u, g, cf) for g, comps in parts.items() for u, cf in comps)


# ---------------------------------------------------------------------------
# one-output defects.  On the bar coalgebra of the words (deconcatenation,
# Koszul signs) the differential is a coderivation and a continuation F a
# coalgebra map.  A map D into that cofree conilpotent coalgebra with
# Delta D = (F0 (x) D + D (x) F1) Delta, for coalgebra maps F0 and F1, is
# zero iff its one-output component is: each entry of D is a sum of
# products of one entry of that component with components of F0 and F1
# (Keller, "Introduction to A-infinity algebras and modules", sections 3-4).
# d d (F0 = F1 = 1), d F - F d' (F0 = F1 = F) and F0 - F1 - [d, K] are
# such maps when the differentials are odd (``_on_tensors``) and, for the
# last one, F0 and F1 are chain maps (see ``check_homotopy``).  The checks
# decide on these components, summed from the tensors.  A failing check
# on exact data extends its components over the words, with no composite
# and no differential: d d is its component D1 spliced into every slot
# (``_dd_slot``), d F - F d' the fan-in of -D1 framed by F
# (``_defect_parity``), and F0 - F1 - [d, K] the fan-in of its D1 framed
# by F0 and F1 plus the two-block terms of K and the chain-map defects
# (``_pair_parity``).  ``homotopic_map`` solves its far end from the
# one-output component of F0 - [d, K], read term by term off the same
# sums under any modulus, and ``check_composition`` decides F(h12 h01) =
# F(h12) F(h01) on a certificate of its sign identity
# (``_composition_certified``); neither builds words.  The word basis and
# its composites are built for the rest: an odd modulus (for the
# composition, of the middle complex), a given basis or differential, a
# cutoff on any entry (a truncated zero is not decided by its components,
# and a sum taken in another order can keep another cutoff), and a map
# that fails ``_one_block``.


def _on_tensors(*complexes: "FloerComplex") -> bool:
    """Whether each differential is odd and the Leibniz extension of the
    datum's tensors: assembled from the datum, not given, and graded by Z
    or an even modulus.  Under an odd modulus the parity of an index, and
    with it the parity of d, is not determined."""
    return all(c.modulus % 2 == 0 and not c._given for c in complexes)


def _fan_out(out: Matrix, outer, gens, components, k=None,
             after=None, exp: int = 0) -> None:
    """Sum (-1)^exp ``outer`` after (the fan-in of ``components``, framed
    as in ``_fan_in``), on one output: the fan-in over the inputs of each
    component of ``outer`` (listed per output generator, as ``c._d_parts``
    lists d's), times its coefficient."""
    terms = _fan_in(components, gens, k, after)
    for g, comps in outer.items():
        for word, coeff in comps:
            for chain, cf in terms(word):
                _acc(out.setdefault(chain, {}), g, _signed(cf * coeff, exp))


def _is_zero(out: Matrix) -> bool:
    """No entry left: every sum cancelled exactly."""
    return not any(out.values())


def _by_output(one: Matrix, exp: int = 0):
    """A one-output component, keyed [input chain][output generator],
    listed per output generator as ``_components`` lists entries, each
    coefficient signed by (-1)^exp."""
    out: Dict[str, List[Tuple[Word, NovikovSeries]]] = {}
    for v, row in one.items():
        for g, cf in row.items():
            out.setdefault(g, []).append((v, _signed(cf, exp)))
    return out


def _chain_defect(c: "FloerComplex", c_prime: "FloerComplex", parts) -> Matrix:
    """One-output component of d F - F d', F the fan-in of ``parts``."""
    out: Matrix = {}
    _fan_out(out, c._d_parts, c_prime._gens, parts)
    _splice(out, _targets(parts), c_prime._parts, c_prime._gens,
            lambda q, w, s, m: 1 + _d_slot(q, w, s))
    return out


# ---------------------------------------------------------------------------
# the differential


class FloerComplex:
    """The composable-chain complex of a datum.

    ``words`` (the basis, ``enumerate_words``) and ``differential`` (the
    signed matrix on it, ``assemble_differential``) are computed from the
    datum on first use and kept, so a check decided on the structure
    tensors builds neither.  ``FloerComplex(datum, words, differential)``
    takes the basis and the matrix as given, unchecked; the checks read a
    given basis or differential on the word basis only.
    """

    def __init__(self, datum: AInftyDatum,
                 words: Optional[Tuple[Word, ...]] = None,
                 differential: Optional[Matrix] = None):
        self.datum = datum
        self._given = words is not None or differential is not None
        if words is not None:
            self.words = words
        if differential is not None:
            self.differential = differential

    @property
    def modulus(self) -> int:
        return self.datum.modulus

    @cached_property
    def _gens(self) -> Dict[str, Generator]:
        # assemble_differential validated the generators already
        return {g.id: g for g in self.datum.generators}

    @cached_property
    def _parts(self) -> Dict[str, List[Tuple[Word, NovikovSeries]]]:
        """The structure tensors listed per output generator."""
        return _components(self.datum.tensors)

    @cached_property
    def _d_parts(self) -> Dict[str, List[Tuple[Word, NovikovSeries]]]:
        """One-output components of the differential: an arity-m entry
        U -> g in slot 1 of U, signed by ``_delta_exp(m, m, 1)``."""
        return {g: [(u, _signed(cf, _delta_exp(len(u), len(u), 1)))
                    for u, cf in parts]
                for g, parts in self._parts.items()}

    @cached_property
    def words(self) -> Tuple[Word, ...]:
        return enumerate_words(self.datum)

    @cached_property
    def differential(self) -> Matrix:
        """The tensors spliced into every slot of each word (``_splice``),
        each word keyed by itself."""
        out: Matrix = {}
        _splice(out, ((u, u, None) for u in self.words), self._parts,
                self._gens, _d_slot)
        return {v: row for v, row in out.items() if row}


def assemble_differential(d: AInftyDatum) -> FloerComplex:
    """Validate a datum and return its complex.

    The generators and structure tensors are checked here; the words and
    the differential are built on first use.  The cardinality-q component
    acting through an arity-w tensor in slot i carries the sign
    (-1)^_delta_exp(q, w, i) = (-1)^(q*w + i*(w-1)) together with the
    graded evaluation sign of the block against the factors to its left.
    """
    gens = _gen_map(d)
    _validate_entries(d.tensors, gens, gens, lambda w: 2 - w, d.modulus,
                      d.ring, "structure tensor")
    return FloerComplex(d)


def check_a_infinity(d: AInftyDatum) -> dict:
    """Report whether the assembled differential squares to zero.

    Decided on the one-output component D1 of d d, the tensors spliced
    into the tensors, when d is odd (Z or an even modulus); a passing
    report counts its words without listing them (``_word_count``).  A
    failing one on exact tensors splices D1 into every slot of each word
    (``_dd_slot``), which is d d, and builds no differential.  An odd
    modulus, or a defect with a cutoff on any tensor, composes d with
    itself on the word basis.
    """
    c = assemble_differential(d)
    if _on_tensors(c):
        one: Matrix = {}
        _splice(one, _targets(c._d_parts), c._parts, c._gens, _d_slot)
        if _is_zero(one):
            return {"square_zero": True, "words": _word_count(c._gens),
                    "nonzero_entries": []}
    if _on_tensors(c) and _exact(d.tensors):
        dd: Matrix = {}
        _splice(dd, ((u, u, None) for u in c.words), _by_output(one),
                c._gens, _dd_slot)
    else:
        dd = _mat_compose(c.differential, c.differential)
    ok = _mat_is_zero(dd)
    return {
        "square_zero": ok,
        "words": len(c.words),
        "nonzero_entries": [] if ok else _entry_report(dd),
    }


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
                inner_exp = _delta_exp(q0, w2, i2, mutation)
                for w1 in range(1, min(l, q1) + 1):
                    for i1 in range(1, q1 - w1 + 2):
                        exp = (inner_exp + _delta_exp(q1, w1, i1, mutation)) % 2
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
            normalized = (exp + assoc_facet_parity(w1, w2, j)) % 2
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


# ---------------------------------------------------------------------------
# axioms A on an assembled complex


def _dual_transpose(a: Matrix) -> Matrix:
    """The transpose read on dual words: entry w -> u lands at u* -> w*,
    the dual word of (g_1 .. g_Q) being (g_Q* .. g_1*)."""
    out: Matrix = {}
    for win, wout, coeff in _mat_entries(a):
        out.setdefault(wout[::-1], {})[win[::-1]] = coeff
    return out


def validate_axioms_A(c: FloerComplex) -> dict:
    """Check substring closure, degree bookkeeping, and that the
    differential is the dual Leibniz expansion of its one-output
    components."""
    gens = c._gens
    word_set = set(c.words)
    # A1: every contiguous subchain of a basis word is again a basis word.
    a1 = True
    for word in c.words:
        for lo in range(len(word)):
            for hi in range(lo + 1, len(word) + 1):
                if word[lo:hi] not in word_set:
                    a1 = False
    # A2: an entry dropping cardinality by w-1 shifts the index by 2-w.
    a2 = True
    for win, wout, coeff in _mat_entries(c.differential):
        w = len(win) - len(wout) + 1
        delta = _word_mu(wout, gens) - _word_mu(win, gens) - (2 - w)
        if _grade(delta, c.modulus) != 0:
            a2 = False
    # A3: the differential is the Leibniz extension of its one-output
    # components, spliced into every slot.  In the slot with Q - i factors
    # to its right and i - 1 to its left (on the dual word (g_Q* .. g_1*):
    # to its left and right) an arity-w component carries
    # (-1)^((Q-i)w + i - 1) (``_a3_right`` and ``_a3_left``) and the graded
    # factor of the block against the factors to its left.
    predicted: Matrix = {}
    _splice(predicted, ((u, u, None) for u in c.words),
            _one_output(c.differential), gens,
            lambda q, w, s, m: _a3_right(q - s, w - 1) + _a3_left(s - 1))
    defect = _mat_add(c.differential, predicted, sign=-1)
    a3 = _mat_is_zero(defect)
    return {
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "ok": a1 and a2 and a3,
        # defects are listed on dual words, as the dual expansion reads them
        "a3_defects": [] if a3 else _entry_report(_dual_transpose(defect)),
    }


# ---------------------------------------------------------------------------
# continuations


def identity_continuation(c: FloerComplex) -> MapDatum:
    one = NovikovSeries.one(ring=c.datum.ring)
    return MapDatum(h=tuple(TensorEntry((g.id,), g.id, one)
                            for g in c.datum.generators))


def _validate_maps(c, c_prime, *hs: MapDatum, k: Optional[MapDatum] = None):
    """Validate the continuations ``hs`` CF' -> CF (index shift 1-w) in
    order, then the homotopy ``k`` (index shift -w)."""
    for h in hs:
        _validate_entries(h.h, c_prime._gens, c._gens, lambda w: 1 - w,
                          c.modulus, c.datum.ring, "continuation tensor")
    if k is not None:
        _validate_entries(k.k, c_prime._gens, c._gens, lambda w: -w,
                          c.modulus, c.datum.ring, "homotopy tensor")


def assemble_continuation(c: FloerComplex, c_prime: FloerComplex,
                          h: MapDatum) -> Matrix:
    """Tensor-expand map data into a matrix CF' -> CF: the fan-in of the
    entries over every word of CF.

    Blocks of arities (w_1 .. w_r) carry the sign (-1)^_split_parity:
    sum_j (r-j)(w_j-1) and the graded evaluation factors; an arity-w
    entry must shift the index by 1-w.
    """
    _validate_maps(c, c_prime, h)
    return _fan_in_matrix(c.words, _components(h.h), c_prime._gens)


def _exact(entries: Iterable[TensorEntry]) -> bool:
    """Whether no entry's coefficient has a cutoff."""
    return all(e.coeff.cutoff is None for e in entries)


def _one_block(entries: Iterable[TensorEntry], gens) -> bool:
    """Certificate that ``_split_parity`` signs each entry, read as the one
    block of a one-factor target word, by +1: the fan-in of the entries
    then has the entries, summed per (inputs, output), as its one-output
    components."""
    return all(_split_parity((len(e.inputs),), [gens[x].mu for x in e.inputs])
               == 0 for e in entries)


def _sorted_map(entries: Iterable[TensorEntry]) -> MapDatum:
    """The entries as a map, sorted by (inputs, output)."""
    return MapDatum(h=tuple(sorted(entries,
                                   key=lambda e: (e.inputs, e.output))))


def check_chain_map(c: FloerComplex, c_prime: FloerComplex,
                    h: MapDatum) -> dict:
    """Verify the assembled continuation intertwines the differentials.

    ``dual_expansion`` states that the continuation F is the fan-in of its
    one-output components; it is ``_one_block``.  When that certificate
    holds, F's one-output components are the entries summed per (inputs,
    output), and their fan-in is F by multilinearity: exactly, or below
    every cutoff, since truncated sums and products are sound.  With both
    differentials odd, d F - F d' is then decided on its one-output
    component: the fan-in over the inputs of each structure tensor of
    ``c``, less the tensors of ``c_prime`` spliced into the summed
    entries.  A passing map builds no words and no matrix.  A defect D1 on
    exact entries and tensors is extended over the words: d F - F d' is
    the fan-in of -D1 framed by F (``_defect_parity``), with no
    composite and no differential.  Any other defect, or a term that
    cancels to zero with a cutoff, builds F once and both composites on
    the word basis.
    """
    _validate_maps(c, c_prime, h)
    gens = c_prime._gens
    expands = _one_block(h.h, gens)
    defect = None
    if expands and _on_tensors(c, c_prime):
        one: Matrix = {}
        for e in h.h:
            _acc(one.setdefault(e.inputs, {}), (e.output,), e.coeff)
        parts = _one_output(one)
        d1 = _chain_defect(c, c_prime, parts)
        if _is_zero(d1):
            return {"chain_map": True, "dual_expansion": True, "defects": []}
        if _exact(h.h + c.datum.tensors + c_prime.datum.tensors):
            defect = _fan_in_matrix(c.words, parts, gens, _by_output(d1, 1),
                                    parts)
    if defect is None:
        fmat = _fan_in_matrix(c.words, _components(h.h), gens)
        defect = _mat_add(_mat_compose(fmat, c.differential),
                          _mat_compose(c_prime.differential, fmat), sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "chain_map": ok,
        "dual_expansion": expands,
        "defects": [] if ok else _entry_report(defect),
    }


# ---------------------------------------------------------------------------
# homotopies


def assemble_homotopy(c: FloerComplex, c_prime: FloerComplex,
                      h0: MapDatum, h1: MapDatum, k: MapDatum) -> Matrix:
    """Assemble the degree -1 operator of a homotopy.

    Terms have one arity-w block from ``k`` (index shift -w) framed by
    blocks of ``h0`` on its left and ``h1`` on its right (continuation
    entries, index shift 1-w), with sign (-1)^_homotopy_parity:
    r + sum_j (r-j)(w_j-1) + sum_{j<i} (w_j-1) on r blocks with the k
    block i-th, and the graded evaluation factors.
    """
    _validate_maps(c, c_prime, k=k)
    _validate_maps(c, c_prime, h0, h1)
    return _fan_in_matrix(c.words, _components(h0.h), c_prime._gens,
                          _components(k.k), _components(h1.h))


def homotopic_map(c: FloerComplex, c_prime: FloerComplex,
                  h0: MapDatum, k: MapDatum) -> MapDatum:
    """Solve for the map on the far end of a homotopy.

    Builds the elementary tensors of h1 so that the homotopy identity
    has a chance to hold: its arity-w entries are the one-output
    component of F0 - [d, K] on the chains of length w, which reads only
    entries of h1 of arity below w, so pass w solves arity w.  With both
    complexes assembled from their data, exact entries and tensors and
    ``_one_block`` for h0 and k, that component is summed from the
    tensors, as ``check_homotopy`` sums it: the h0 entries, less the
    homotopy fan-in (framed by h0 and the h1 entries solved so far) over
    the inputs of each structure tensor of ``c``, plus the tensors of
    ``c_prime`` spliced into the k entries.  These are the one-output
    entries of the composites by the definition of the product (K's
    one-output entries are the k entries negated), so no parity argument
    enters and any modulus is read this way; no words and no matrix are
    built.
    Otherwise pass w fans the homotopy in over the target words of length
    at most w and composes on the word basis.  The entries are returned
    sorted by (inputs, output), as ``compose_continuations`` returns its
    entries.
    """
    _validate_maps(c, c_prime, h0, k=k)
    gens = c_prime._gens
    h0_parts, k_parts = _components(h0.h), _components(k.k)
    if (c._given or c_prime._given or not _one_block(h0.h + k.k, gens)
            or not _exact(h0.h + k.k + c.datum.tensors
                          + c_prime.datum.tensors)):
        return _sorted_map(_word_basis_h1(c, c_prime, h0_parts, k_parts))
    # what no pass changes: the h0 entries less K d' on one output, the
    # tensors of c_prime spliced into the k entries
    fixed: Matrix = {}
    for e in h0.h:
        _acc(fixed.setdefault(e.inputs, {}), e.output, e.coeff)
    _splice(fixed, _targets(k_parts), c_prime._parts, gens, _d_slot)
    # h0 and k annotated once; h1 grows by each pass's entries
    h0_read, k_read = _annotated(h0_parts, gens), _annotated(k_parts, gens)
    h1_read: Dict[str, list] = {}
    h1_entries: List[TensorEntry] = []
    for w in range(1, c_prime.datum.l + 1):
        want = {v: dict(row) for v, row in fixed.items() if len(v) == w}
        terms = _fan_in(h0_read, gens, k_read, h1_read, longest=w,
                        annotated=True)
        for g, comps in c._d_parts.items():
            for word, coeff in comps:
                for chain, cf in terms(word):
                    if len(chain) == w:
                        _acc(want.setdefault(chain, {}), g,
                             _signed(cf * coeff, 1))
        solved = _by_output(want)
        for g, comps in _annotated(solved, gens).items():
            h1_read.setdefault(g, []).extend(comps)
        h1_entries += [TensorEntry(v, g, cf)
                       for g, comps in solved.items() for v, cf in comps]
    return _sorted_map(h1_entries)


def _word_basis_h1(c, c_prime, h0_parts, k_parts) -> List[TensorEntry]:
    """The entries ``homotopic_map`` solves, on the word basis.  h0 is
    fanned in once; pass w fans the homotopy in over the target words of
    length at most w only, and builds the rows of length at most w only:
    those are the rows it reads (the words of length w and the words
    their differential reaches), and they read no other target word and
    only entries of h1 of arity below w."""
    gens, d_prime = c_prime._gens, c_prime.differential
    f0 = _fan_in_matrix(c.words, h0_parts, gens)
    h1_entries: List[TensorEntry] = []
    max_arity = max((len(w) for w in c_prime.words), default=0)
    for w in range(1, max_arity + 1):
        layer = [word for word in c_prime.words if len(word) == w]
        kk = _fan_in_matrix([u for u in c.words if len(u) <= w], h0_parts,
                            gens, k_parts, _components(h1_entries), longest=w)
        bracket = _mat_add(
            _mat_compose({x: kk[x] for x in layer if x in kk}, c.differential),
            _mat_compose({x: d_prime[x] for x in layer if x in d_prime}, kk))
        want = _mat_add({x: f0[x] for x in layer if x in f0}, bracket, sign=-1)
        for word in layer:
            for wout, coeff in want.get(word, {}).items():
                if len(wout) == 1 and coeff:
                    h1_entries.append(TensorEntry(word, wout[0], coeff))
    return h1_entries


def check_homotopy(c: FloerComplex, c_prime: FloerComplex, h0: MapDatum,
                   h1: MapDatum, k: MapDatum) -> dict:
    """Verify F(h0) - F(h1) equals the graded commutator of k.

    K, the fan-in framed by h0 and h1, has Delta K = (F0 (x) K + K (x) F1)
    Delta, and so has F0 - F1.  With d and d' odd coderivations and F0, F1
    even, Koszul signs give

        Delta [d, K] = (F0 (x) [d, K] + [d, K] (x) F1) Delta
                       + ((d F0 - F0 d') (x) K - K (x) (d F1 - F1 d')) Delta,

    so D = F0 - F1 - [d, K] is of the same kind, and zero iff its
    one-output component D1 is, once F0 and F1 are chain maps.  The check
    therefore decides on tensors when both differentials are odd and the
    one-output chain-map defects E0 of h0 and E1 of h1 both vanish: D1 is
    the h0 entries, less the h1 entries, less the homotopy fan-in over the
    inputs of each structure tensor of ``c``, plus the tensors of
    ``c_prime`` spliced into the k entries (a k entry u -> g is K's entry
    at [u][(g,)] signed by ``_homotopy_parity([w], ., 0)`` = 1, and K d'
    is subtracted).  Any other report on exact entries and tensors peels
    D's first factor off the identity above: D is the fan-in of D1 framed
    by h0 and h1 as an even block (``_split_parity``), plus the fan-ins of
    k then -E1 and of E0 then k, framed by h0, h1 between and h1
    (``_pair_parity``), with no composite and no differential.  With a
    cutoff on any entry, or an odd or given differential, D is built on
    the word basis.
    """
    _validate_maps(c, c_prime, h0, h1, k=k)
    gens = c_prime._gens
    h0_parts, h1_parts = _components(h0.h), _components(h1.h)
    k_parts = _components(k.k)
    defect = None
    if _on_tensors(c, c_prime):
        e0, e1 = (_chain_defect(c, c_prime, p) for p in (h0_parts, h1_parts))
        one: Matrix = {}
        for parts, exp in ((h0_parts, 0), (h1_parts, 1)):
            for g, comps in parts.items():
                for word, coeff in comps:
                    _acc(one.setdefault(word, {}), g, _signed(coeff, exp))
        _fan_out(one, c._d_parts, gens, h0_parts, k_parts, h1_parts, exp=1)
        _splice(one, _targets(k_parts), c_prime._parts, gens, _d_slot)
        if _is_zero(e0) and _is_zero(e1) and _is_zero(one):
            return {"homotopy": True, "defects": []}
        if _exact(h0.h + h1.h + k.k + c.datum.tensors
                  + c_prime.datum.tensors):
            defect = _fan_in_matrix(c.words, h0_parts, gens, _by_output(one),
                                    h1_parts, odd=False)
            for first, between, then in (
                    (k_parts, h1_parts, _by_output(e1, 1)),
                    (_by_output(e0), h0_parts, k_parts)):
                defect = _mat_add(defect, _fan_in_matrix(
                    c.words, h0_parts, gens, first, between, then=then,
                    last=h1_parts))
    if defect is None:
        f0 = _fan_in_matrix(c.words, h0_parts, gens)
        f1 = _fan_in_matrix(c.words, h1_parts, gens)
        kk = _fan_in_matrix(c.words, h0_parts, gens, k_parts, h1_parts)
        bracket = _mat_add(_mat_compose(kk, c.differential),
                           _mat_compose(c_prime.differential, kk))
        defect = _mat_add(_mat_add(f0, f1, sign=-1), bracket, sign=-1)
    ok = _mat_is_zero(defect)
    return {
        "homotopy": ok,
        "defects": [] if ok else _entry_report(defect),
    }


# ---------------------------------------------------------------------------
# composition


def compose_continuations(c0: FloerComplex, c1: FloerComplex,
                          c2: FloerComplex, h01: MapDatum,
                          h12: MapDatum) -> MapDatum:
    """Glue elementary tensors of two continuations.

    Each entry of ``h01`` is glued onto the entries of ``h12`` by fan-in:
    one ``h12`` entry per input factor, with sign (-1)^_split_parity of
    their arities (k_1 .. k_r) on the glued chain, the exponent
    ``composition_sign_identity`` composes.
    """
    _validate_maps(c1, c2, h12)
    _validate_maps(c0, c1, h01)
    out: Matrix = {}
    _fan_out(out, _components(h01.h), c2._gens, _components(h12.h))
    return _sorted_map(TensorEntry(w, g, c) for w, row in out.items()
                       for g, c in row.items() if c)


def check_composition(c0: FloerComplex, c1: FloerComplex, c2: FloerComplex,
                      h01: MapDatum, h12: MapDatum) -> dict:
    """Verify contravariant functoriality of tensor expansion: F of the
    composite equals F(h12) then F(h01).

    Each term of F(composite) on a chain is a term of the composite of
    the matrices, the same product of coefficients, one for one: an h01
    entry per output factor, an h12 entry per factor of its inputs.  In
    F(composite) it is signed by ``_split_parity`` of the glued blocks
    (one composite entry each) plus, per composite entry, that of the h12
    blocks it glues; in the composite of the matrices, by that of the h12
    blocks on the chain plus that of the h01 blocks on the mid-level chain
    of their outputs.  ``composition_sign_identity`` is the equality of
    the two.  With exact entries and ``c1`` assembled from its datum and
    graded by Z or an even modulus (so its words are every chain and a
    mid-level index has the parity the identity gives it), the check
    decides on the certificate that the identity holds on every chain
    (``_composition_certified``) and on ``_one_block`` for h01, h12 and
    the composite, and builds no words.  Otherwise, or when the
    certificate fails, both sides are built on the word basis and
    compared.  The composite is validated against ``c0`` and ``c2``
    either way, and each input map once.
    """
    composite = compose_continuations(c0, c1, c2, h01, h12)
    _validate_maps(c0, c2, composite)
    defects: List[dict] = []
    ok = (_on_tensors(c1) and _exact(h01.h + h12.h)
          and _one_block(h01.h, c1._gens)
          and _one_block(h12.h + composite.h, c2._gens)
          and _composition_certified(_split_parity))
    if not ok:
        lhs = _fan_in_matrix(c0.words, _components(composite.h), c2._gens)
        f01 = _fan_in_matrix(c0.words, _components(h01.h), c1._gens)
        f12 = _fan_in_matrix(c1.words, _components(h12.h), c2._gens)
        defect = _mat_add(lhs, _mat_compose(f12, f01), sign=-1)
        ok = _mat_is_zero(defect)
        defects = [] if ok else _entry_report(defect)
    return {"composition": ok, "entries": len(composite.h), "defects": defects}


def _composition_holds(rule, inner, grouping, mus) -> bool:
    """Whether the sign rule ``rule`` signs a chain with factor indices
    ``mus`` cut into blocks of the ``inner`` arities, grouped by
    ``grouping``, alike both ways: the inner blocks, then the groups on the
    mid-level chain (a block's output index is its inputs' sum plus
    1 - w), or the glued groups, then each group's own blocks."""
    cuts = list(itertools.accumulate(grouping, initial=0))
    shapes = [inner[a:b] for a, b in zip(cuts, cuts[1:])]
    glued = [sum(shape) for shape in shapes]
    inner_at = list(itertools.accumulate(inner, initial=0))
    glued_at = list(itertools.accumulate(glued, initial=0))
    mid_mu = [sum(mus[a:b]) + 1 - (b - a)
              for a, b in zip(inner_at, inner_at[1:])]
    lhs = rule(inner, mus) + rule(grouping, mid_mu)
    rhs = rule(glued, mus) + sum(
        rule(shape, mus[a:b])
        for shape, a, b in zip(shapes, glued_at, glued_at[1:]))
    return lhs % 2 == rhs % 2


# fifteen cases of ``composition_sign_identity`` at q <= 4 that decide
# every q, each as inner arities/grouping/factor indices (one string, which
# compiles faster than the nested tuples)
_COMPOSITION_CASES = ("2/1/01 2/1/00 11/11/11 11/11/10 11/11/01 11/11/00 "
                      "112/21/0001 112/21/0000 211/12/0100 211/12/0101 "
                      "211/12/0000 211/12/0001 112/12/0001 121/21/0011 "
                      "121/21/0010")


def _composition_cases() -> List[Tuple[Tuple[int, ...], ...]]:
    """``_COMPOSITION_CASES`` as (inner, grouping, mus) tuples."""
    return [tuple(tuple(map(int, part)) for part in case.split("/"))
            for case in _COMPOSITION_CASES.split()]


@lru_cache(maxsize=None)
def _composition_certified(rule) -> bool:
    """Certificate that ``composition_sign_identity`` holds for the sign
    rule ``rule`` on every chain: it holds on ``_COMPOSITION_CASES``.

    Proof.  ``_split_parity`` is a sum over pairs j < k of blocks of a
    term P(b_j, b_k), b a block's kind: its arity parity and index-sum
    parity.  (r - j)(w_j - 1) is w_j - 1 once per block after j, and the
    graded factor of an even block k is mu_j (w_k - 1) once per block j
    before it.  Take any rule sum_j U(b_j) + sum_{j<k} P(b_j, b_k).  A
    case is inner blocks cut into groups; a group's glued block and its
    mid-level factor (index sum + 1 - w per inner block) have kinds fixed
    by how many of its inner blocks have each of the four kinds, mod 2.
    The U terms of the inner blocks and the pairs of inner blocks in one
    group appear on both sides and cancel, so the difference of the two
    sides is sum_J u(J) + sum_{J<J'} t(J, J'), with u and t functions of
    those count vectors.  Hence the identity holds on every case iff it
    holds on the cases of one and of two groups whose groups hold one
    block of each kind counted odd (two equal blocks when none is), of
    arity 1 or 2: 16 + 256 cases.  The difference is linear over GF(2) in
    the 20 values of U and P; as linear forms in them, the differences of
    those 272 cases span a space of dimension 15, and those of the
    fifteen listed cases span it too (a rank test).  So a rule of this
    shape that passes them passes every case, at every q.  The result is
    cached per rule."""
    return all(_composition_holds(rule, *case)
               for case in _composition_cases())


def composition_sign_identity(q_max: int = 4) -> dict:
    """Exponent identity behind composing tensor expansions.

    Splitting a chain twice (inner arities grouped under outer blocks)
    must produce the same total sign whether the grouping signs are
    accumulated level by level or read off the glued partition,
    including the graded evaluation factors for every index pattern
    (``_composition_holds``).  q_max = 4 already decides every q
    (``_composition_certified``).
    """
    failures = []
    cases = 0
    for q in range(1, q_max + 1):
        for inner in (c for n in range(1, q + 1) for c in _compositions(q, n)):
            s = len(inner)
            for grouping in (c for n in range(1, s + 1)
                             for c in _compositions(s, n)):
                for mus in itertools.product((0, 1), repeat=q):
                    cases += 1
                    if not _composition_holds(_split_parity, inner,
                                              grouping, mus):
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
        dh1 = (_b2_prefactor(a, l2) + _a3_left(b + l2)) % 2
        dh2 = (_b2_prefactor(a, l2) + _a3_right(a + l1, q)
               + _swap(q + 1, l1)) % 2
        # continuation after the differential
        hd1 = (_a3_left(b) + _b2_prefactor(a + q, l2)
               + _swap(q + 1, l2)) % 2
        hd2 = (_a3_right(a, q) + _b2_prefactor(a, l2)) % 2
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
        t1 = (_c2_first(a, b, l2) + _a3_left(b + l2)) % 2
        t2 = (_c2_first(a, b, l2) + _a3_right(a + l1, q)
              + _swap(q + 1, l1 + 1)) % 2
        t3 = (_c2_second(a, l2) + _a3_left(b + l2)) % 2
        t4 = (_c2_second(a, l2) + _a3_right(a + l1, q)
              + _swap(q + 1, l1)) % 2
        # homotopy after the differential
        s1 = (_a3_left(b) + _c2_first(a + q, b, l2)
              + _swap(q + 1, l2)) % 2
        s2 = (_a3_left(b) + _c2_second(a + q, l2)
              + _swap(q + 1, l2 + 1)) % 2
        s3 = (_a3_right(a, q) + _c2_first(a, b + q, l2)) % 2
        s4 = (_a3_right(a, q) + _c2_second(a, l2)) % 2
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


# ---------------------------------------------------------------------------
# augmentations


def _augmentation_parity(mus) -> int:
    """Exponent sum_i (q-i) mu_i of the extended augmentation on a word of
    q factors with indices ``mus`` (i from 1)."""
    q = len(mus)
    return sum((q - i) * mu for i, mu in enumerate(mus, 1)) % 2


def _check_values(c: FloerComplex, a: Augmentation) -> None:
    """Every value must sit on a generator of the complex in the
    index-(-1) class and lie in the datum's coefficient ring."""
    gens = c._gens
    for gid, value in a.values.items():
        if gid not in gens:
            raise ValueError(f"augmentation value on unknown generator {gid!r}")
        if _grade(gens[gid].mu + 1, c.modulus) != 0:
            raise DegreeViolation(
                f"augmentation value on generator {gid!r} outside the "
                "index-(-1) class")
        if value.ring != c.datum.ring:
            raise ValueError(
                f"augmentation value on generator {gid!r} is over "
                f"{value.ring}, expected the datum ring {c.datum.ring}")


def extend_augmentation(c: FloerComplex, a: Augmentation) -> Dict[Word, NovikovSeries]:
    """Extend elementary values multiplicatively over grading-zero words.

    The word value carries the sign (-1)^_augmentation_parity, that is
    (-1)^(sum_i (q-i) mu(lambda_i)).  Every value must sit on a generator
    of the complex in the index-(-1) class and lie in the datum's
    coefficient ring.
    """
    _check_values(c, a)
    gens = c._gens
    out: Dict[Word, NovikovSeries] = {}
    for word in c.words:
        vals = [a.values.get(g) for g in word]
        if any(v is None for v in vals):
            continue
        exp = _augmentation_parity([gens[g].mu for g in word])
        coeff = _signed(reduce(mul, vals), exp)
        if coeff:
            out[word] = coeff
    return out


def _functional_pullback(vec: Dict[Word, NovikovSeries], m: Matrix) -> Dict[Word, NovikovSeries]:
    """Compose a functional on output words with a matrix: (vec∘m)(w)."""
    out: Dict[Word, NovikovSeries] = {}
    for w, cols in m.items():
        terms = [coeff * vec[u] for u, coeff in cols.items() if u in vec]
        s = reduce(add, terms) if terms else None
        if s:
            out[w] = s
    return out


def _splits(q_max: int) -> bool:
    """Certificate that ``_augmentation_parity`` splits as condition 2
    reads it on words of odd-index factors, up to ``q_max`` factors: it is
    zero on one factor, and on q factors it is the sum of its values on c
    and on q - c factors, plus (q - c) c."""
    odd = [_augmentation_parity([1] * q) for q in range(max(q_max, 1) + 1)]
    return odd[1] == 0 and all(
        odd[q] == (odd[cut] + odd[q - cut] + (q - cut) * cut) % 2
        for q in range(2, q_max + 1) for cut in range(1, q))


def _valued_sums(entries: Iterable[TensorEntry],
                 eps: Mapping[str, NovikovSeries]) -> Dict[Word, NovikovSeries]:
    """sum over the entries u -> g of coeff * eps(g), per input chain u;
    a sum that cancels exactly has no key."""
    out: Dict[Word, NovikovSeries] = {}
    for e in entries:
        if e.output in eps:
            _acc(out, e.inputs, e.coeff * eps[e.output])
    return out


def _augmentation_on_tensors(c: FloerComplex, a: Augmentation,
                             push) -> Optional[dict]:
    """The report of ``check_augmentation`` read off the tensors, or None
    where it does not apply.

    It applies when the values and the structure tensors are exact and
    the modulus is 0 or even, so that every nonzero value sits on an odd
    generator.  The extension of the nonzero values eps is then nonzero
    exactly on the words of valued generators (``_word_count``).  On a
    word p u s, the differential through an entry u -> g contributes
    +-eps(p) eps(s) coeff eps(g), with a sign that does not depend on g, so
    eps d is zero iff every A(u) = sum_{u -> g} coeff eps(g) is: an A(u)
    left nonzero on a shortest u is the value of eps d on u itself.
    Condition 2 holds when ``_augmentation_parity`` splits (``_splits``).

    Pushed forward along exact entries certified by ``_one_block``, F's
    one-factor rows are the arity-1 entries, so the pushed value of g' is
    the A of the input (g',) over the entries of the map.  When that sum
    vanishes on every input of two or more factors, eps F on a word v is
    the product of the pushed values on its letters, signed by the
    extension sign of as many odd factors (an arity-1 entry keeps the
    index mod the modulus), so it factorizes; the domain is checked by
    ``check_augmentation`` itself.
    """
    gens = c._gens
    if not (_on_tensors(c) and _exact(c.datum.tensors)
            and all(v.cutoff is None for v in a.values.values())
            and _splits(c.datum.l)):
        return None
    eps = {g: v for g, v in a.values.items() if v}
    report = {"condition_1": not _valued_sums(c.datum.tensors, eps),
              "condition_2": True,
              "supported_words": _word_count({g: gens[g] for g in eps})}
    if push is not None:
        domain, hdata = push
        _validate_maps(c, domain, hdata)
        pushed = _valued_sums(hdata.h, eps)
        if not (_exact(hdata.h) and _one_block(hdata.h, domain._gens)
                and all(len(u) == 1 for u in pushed)):
            return None
        # in the order F's one-factor rows are first reached: by target
        # generator as ``enumerate_words`` lists them, then by entry
        parts = _components(hdata.h)
        rows = dict.fromkeys(
            inputs for g in sorted(gens.values(), key=lambda g: (g.i, g.j, g.id))
            for inputs, _ in parts.get(g.id, ()) if inputs in pushed)
        sub = check_augmentation(
            domain, Augmentation(values={u[0]: pushed[u] for u in rows}))
        report["pushforward"] = {"condition_1": sub["condition_1"],
                                 "condition_2": sub["condition_2"],
                                 "factorizes": True}
    return report


def check_augmentation(c: FloerComplex, a: Augmentation,
                       push: Optional[Tuple["FloerComplex", MapDatum]] = None) -> dict:
    """Verify both augmentation conditions, optionally after pushforward.

    ``push`` supplies (domain complex, map data); the extended
    augmentation is composed with the assembled continuation out of
    that complex and must again satisfy both conditions there.  The
    report is read off the tensors where ``_augmentation_on_tensors``
    applies, without words; otherwise the values are extended over the
    words and composed with the differential and the continuation.
    """
    _check_values(c, a)
    report = _augmentation_on_tensors(c, a, push)
    if report is None:
        report = _augmentation_on_words(c, a, push)
    report["ok"] = report["condition_1"] and report["condition_2"] and (
        push is None or all(report["pushforward"].values()))
    return report


def _augmentation_on_words(c: FloerComplex, a: Augmentation, push) -> dict:
    """The report of ``check_augmentation`` on the word basis."""
    gens = c._gens
    vec = extend_augmentation(c, a)
    boundary = _functional_pullback(vec, c.differential)
    cond1 = not boundary
    # condition 2 as split-consistency of the extension
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
        fmat = assemble_continuation(c, domain, hdata)
        pushed_vec = _functional_pullback(vec, fmat)
        elem = {w[0]: v for w, v in pushed_vec.items() if len(w) == 1}
        pushed = Augmentation(values=elem)
        re_extended = extend_augmentation(domain, pushed)
        factorizes = re_extended == pushed_vec
        sub = check_augmentation(domain, pushed)
        report["pushforward"] = {
            "condition_1": sub["condition_1"],
            "condition_2": sub["condition_2"],
            "factorizes": factorizes,
        }
    return report


# ---------------------------------------------------------------------------
# numerical invariants


def euler_characteristic(c: FloerComplex) -> int:
    if c.modulus != 2:
        raise RequiresModTwoGrading(
            "euler characteristic needs a mod-two grading")
    if c.datum.l != 1:
        raise ValueError("euler characteristic is defined for a single pair")
    gens = c._gens
    total = 0
    for word in c.words:
        total += -1 if (_word_mu(word, gens) + len(word)) % 2 else 1
    return total


# Boundary blocks are eliminated over Laurent polynomials {int: int} in
# s = t^(1/N), N the common denominator of the block's exponents, by
# Bareiss's fraction-free step on Kronecker-packed entries
# (``_poly._bareiss_rows``), or on dicts (``_poly._bareiss_entry``) when
# the exponents are too sparse to pack.  It keeps every entry a
# polynomial: after k pivots an entry below them is the (k+1)-minor
# through it, i.e. the field entry of plain elimination times the k-th
# pivot p_k, so valuations and pivot choices are those of elimination
# over the fraction field.


def _laurent_block(src, dst, differential):
    """The boundary block src -> dst as rows of Laurent polynomials, each
    row cleared of coefficient denominators by a positive integer scale;
    an entry with a cutoff raises ValueError."""
    col = {w: j for j, w in enumerate(dst)}
    entries = [(r, col[u], s) for r, w in enumerate(src)
               for u, s in differential.get(w, {}).items() if u in col]
    n = math.lcm(*(s.den for _, _, s in entries))
    rows = [[{} for _ in dst] for _ in src]
    scales = [1] * len(src)
    for r, j, s in entries:
        if s.cutoff is not None:
            raise ValueError(
                f"differential entry {src[r]}->{dst[j]} has cutoff "
                f"{s.cutoff}; cohomology needs exact series")
        scales[r] = math.lcm(scales[r], *(c.denominator for _, c in s.pairs))
    for r, j, s in entries:
        m, k = scales[r], n // s.den
        rows[r][j] = {num * k: int(c * m) for num, c in s.pairs}
    return rows, scales


def _rank(rows, scales, integral: bool, src, dst, g: int) -> int:
    """Rank by Bareiss elimination, picking the pivot of least
    (valuation, row position, column) first.

    With ``integral`` the field pivot p_k / p_(k-1) must have a unit
    leading coefficient: lead(p_k) = +-lead(p_(k-1)), p_0 = 1, where the
    minors p_k are taken before the row scales (so every accepted minor
    has leading coefficient +-1).  Entries are Kronecker-packed
    (``_poly._pack_block``) unless the block's exponents are too sparse,
    which changes neither the pivots nor the messages.
    """
    ncols = len(dst)
    packed = _pack_block(rows)
    if packed is None:
        val, prev, entry = min, {0: 1}, _bareiss_entry
        lead_of = lambda e: e[min(e)]  # noqa: E731
    else:
        rows, b = packed[:2]
        val, prev, entry = (lambda v: _valuation(v, b)), 1, _packed_entry
        lead_of = lambda v: _lead(v, b)  # noqa: E731
    order = list(range(len(rows)))
    used = [False] * ncols
    prev_lead = Fraction(1)
    scale = 1
    for step in range(len(rows)):
        best = min(((val(e), r, j) for r in range(step, len(rows))
                    for j, e in enumerate(rows[r]) if e and not used[j]),
                   default=None)
        if best is None:
            return step
        _, pr, pc = best
        rows[step], rows[pr] = rows[pr], rows[step]
        order[step], order[pr] = order[pr], order[step]
        p = rows[step][pc]
        scale *= scales[order[step]]
        lead = Fraction(lead_of(p), scale)
        if integral and abs(lead) != abs(prev_lead):
            raise NonUnitPivot(
                "pivot with non-invertible leading coefficient; "
                "run the elimination over rational coefficients "
                f"(grading class {g}, step {step + 1}, source word "
                f"{src[order[step]]}, target word {dst[pc]}, "
                f"lead(p_{step + 1}) = {lead}, lead(p_{step}) = {prev_lead})")
        used[pc] = True
        _bareiss_rows(rows, step, pc, prev,
                      [j for j in range(ncols) if not used[j]], entry)
        prev, prev_lead = p, lead
    return len(rows)


def cohomology(c: FloerComplex, ring: str = "Z") -> dict:
    """Free rank of the homology per grading class.

    Each boundary block is eliminated fraction-free (Bareiss) with
    valuation-minimizing pivots, which decides the ranks of elimination
    over the quotient field of the series ring; with ``ring='Z'`` any
    pivot whose leading coefficient is not a unit aborts with
    NonUnitPivot.  Series with a cutoff are rejected: exact division and
    rank are undefined on truncated series.
    """
    if ring not in ("Z", "Q"):
        raise ValueError("ring must be 'Z' or 'Q'")
    for e in c.datum.tensors:
        if e.coeff.cutoff is not None:
            raise ValueError(
                f"structure tensor entry {e.inputs}->{e.output} has a weight "
                f"with cutoff {e.coeff.cutoff}; cohomology needs exact series")
    integral = ring == "Z"
    gens = c._gens
    n = c.modulus
    classes: Dict[int, List[Word]] = {}
    for word in c.words:
        g = _grade(_word_mu(word, gens) + len(word) - 1, n)
        classes.setdefault(g, []).append(word)
    for ws in classes.values():
        ws.sort(key=lambda w: (len(w), w))

    def boundary_rank(g: int) -> int:
        src = classes.get(g, [])
        dst = classes.get(_grade(g + 1, n), [])
        if not src or not dst:
            return 0
        rows, scales = _laurent_block(src, dst, c.differential)
        return _rank(rows, scales, integral, src, dst, g)

    rank = {g: boundary_rank(g) for g in sorted(classes)}
    ranks = {g: len(classes[g]) - rank[g] - rank.get(_grade(g - 1, n), 0)
             for g in sorted(classes)}
    return {
        "ring": ring,
        "modulus": n,
        "ranks": {str(g): r for g, r in ranks.items()},
        "total_rank": sum(ranks.values()),
        "degrees": sorted(g for g, r in ranks.items() if r > 0),
    }


def pair_subcomplex(d: AInftyDatum, i: int, j: int) -> AInftyDatum:
    """Restrict to a single pair of labels; only arity-one tensors survive."""
    if not (0 <= i < j <= d.l):
        raise ValueError("invalid label pair")
    keep = {g.id: g for g in d.generators if (g.i, g.j) == (i, j)}
    gens = tuple(Generator(g.id, 0, 1, g.mu) for g in d.generators
                 if g.id in keep)
    tensors = tuple(e for e in d.tensors
                    if e.arity == 1 and e.inputs[0] in keep and e.output in keep)
    meta = dict(d.metadata)
    meta["restricted_to"] = [i, j]
    return AInftyDatum(l=1, generators=gens, tensors=tensors,
                       modulus=d.modulus, ring=d.ring, metadata=meta)


# ---------------------------------------------------------------------------
# JSON loading


def _entry_from_json(obj, ring) -> TensorEntry:
    inputs = _json_field(obj, "inputs", "entry")
    if not (isinstance(inputs, (list, tuple))
            and all(type(x) is str for x in inputs)):
        raise ValueError(f"entry inputs {inputs!r} are not a list "
                         "of generator ids")
    inputs = tuple(inputs)
    if "q" in obj and _json_int(obj, "q", "entry") != len(inputs):
        raise ValueError("entry arity disagrees with its inputs")
    return TensorEntry(inputs, _json_id(obj, "output", "entry"),
                       parse_series(_json_id(obj, "coeff", "entry"),
                                    ring=ring))


def datum_from_json(obj: Mapping) -> AInftyDatum:
    ring = _json_object(obj, "datum").get("ring", "Z")
    gens = tuple(Generator(_json_id(g, "id", "generator"),
                           _json_int(g, "i", "generator"),
                           _json_int(g, "j", "generator"),
                           _json_int(g, "mu", "generator"))
                 for g in _json_list(obj, "generators", "datum"))
    _check_ring(ring)
    tensors = tuple(_entry_from_json(e, ring)
                    for e in _json_list(obj, "tensors", "datum", ()))
    labels = _json_int(obj, "labels", "datum")
    modulus = _json_int(obj, "modulus", "datum") if "modulus" in obj else 0
    if modulus < 0:
        raise ValueError(f"modulus must be >= 0, got {modulus}")
    return AInftyDatum(
        l=labels,
        generators=gens,
        tensors=tensors,
        modulus=modulus,
        ring=ring,
        metadata=dict(_json_object(obj.get("metadata", {}), "metadata")),
    )


def datum_to_json(d: AInftyDatum) -> dict:
    return {
        "labels": d.l,
        "modulus": d.modulus,
        "ring": d.ring,
        "generators": [
            {"id": g.id, "i": g.i, "j": g.j, "mu": g.mu}
            for g in d.generators
        ],
        "tensors": [
            {"q": e.arity, "inputs": list(e.inputs), "output": e.output,
             "coeff": format_series(e.coeff)}
            for e in d.tensors
        ],
        "metadata": dict(d.metadata),
    }


def map_from_json(obj: Mapping, ring: str = "Z") -> MapDatum:
    _json_object(obj, "map")
    h = tuple(_entry_from_json(e, ring)
              for e in _json_list(obj, "H", "map", ()))
    k = tuple(_entry_from_json(e, ring)
              for e in _json_list(obj, "K", "map", ()))
    return MapDatum(h=h, k=k)


def augmentation_from_json(obj: Mapping, ring: str = "Z") -> Augmentation:
    values = _json_list(_json_object(obj, "augmentation"), "values",
                        "augmentation")
    what = "augmentation value"
    vals: Dict[str, NovikovSeries] = {}
    for v in values:
        gid = _json_id(v, "id", what)
        if gid in vals:
            raise ValueError(f"duplicate augmentation value on generator {gid!r}")
        vals[gid] = parse_series(_json_id(v, "value", what), ring=ring)
    return Augmentation(values=vals)
