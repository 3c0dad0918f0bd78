"""Words of elementary generators: duality, tensor, shifts."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from openstrings.strings import (
    EMPTY,
    ElementaryString,
    OpenString,
    dual,
    shift,
    tensor,
)

_LABELS = ["L0", "L1", "L2", "L3"]


def _random_word(rng, max_len=5):
    q = rng.randint(0, max_len)
    factors = []
    for k in range(q):
        i = rng.randint(0, len(_LABELS) - 2)
        factors.append(ElementaryString(f"x{k}", _LABELS[i], _LABELS[i + 1],
                                        rng.randint(-3, 4)))
    return OpenString(tuple(factors), rng.randint(-2, 2))


elementary = st.builds(
    ElementaryString,
    st.sampled_from(["u", "v", "w"]),
    st.sampled_from(_LABELS),
    st.sampled_from(_LABELS),
    st.integers(-4, 4),
)
words = st.builds(OpenString,
                  st.lists(elementary, max_size=4).map(tuple),
                  st.integers(-3, 3))


@given(words, st.integers(1, 5))
def test_dual_is_involution(s, n):
    assert dual(dual(s, n), n) == s


@given(words, st.integers(1, 5))
def test_dual_index_sum(s, n):
    q = s.cardinality
    if q == 0:
        # the empty word is its own special case: indices sum to n
        assert s.mu + dual(s, n).mu == n
    else:
        assert s.mu + dual(s, n).mu == n * q


def test_dual_reverses_factors():
    rng = random.Random(3)
    for _ in range(50):
        s = _random_word(rng)
        d = dual(s, 2)
        assert [f.id for f in d.factors] == [
            f.id + "*" for f in reversed(s.factors)]
        assert [f.source_lagrangian for f in d.factors] == [
            f.target_lagrangian for f in reversed(s.factors)]


def test_dual_id_star_cancels():
    e = ElementaryString("y", "A", "B", 1)
    assert e.dual(3).id == "y*"
    assert e.dual(3).dual(3).id == "y"


@given(words, words, words)
def test_tensor_associates(a, b, c):
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


@given(words)
def test_tensor_unit(a):
    assert tensor(EMPTY, a) == a
    assert tensor(a, EMPTY) == a


@given(words, words)
def test_tensor_additivity(a, b):
    t = tensor(a, b)
    assert t.cardinality == a.cardinality + b.cardinality
    assert t.mu == a.mu + b.mu


def test_shift_changes_mu():
    rng = random.Random(4)
    for _ in range(50):
        s = _random_word(rng)
        e = rng.randint(-5, 5)
        assert shift(s, e).mu == s.mu + e


def test_shift_modulus_identifies():
    s = OpenString((), 0)
    assert shift(s, 5, n_modulus=2) == shift(s, 7, n_modulus=2)
    assert shift(s, 5, n_modulus=1).shift == 0

