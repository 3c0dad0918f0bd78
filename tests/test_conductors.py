"""Label tuples and increasing partial injections between them."""

from __future__ import annotations

import itertools
import random

import pytest

from openstrings.conductors import (
    Conductor,
    Continuation,
    Mismatch,
    OutOfRange,
    cokernel,
    compose,
    conductor_from_json,
    continuation_from_json,
    identity_continuation,
    image,
    is_exact,
    is_refinement,
    split,
    subconductor,
)


def C(*labels):
    return Conductor(tuple(labels))


ABC = C("L0", "L1", "L2", "L3")


def all_continuations(src: Conductor, dst: Conductor):
    """Every increasing partial injection src -> dst, empty one included."""
    out = []
    npos = len(src.labels)
    nimg = len(dst.labels)
    for r in range(0, min(npos, nimg) + 1):
        for pos in itertools.combinations(range(npos), r):
            for img in itertools.combinations(range(nimg), r):
                out.append(Continuation(src, dst, pos, img))
    return out


# ---------------------------------------------------------------------------
# conductors


def test_conductor_shape():
    assert ABC.l == 3
    assert ABC.positions() == (0, 1, 2, 3)
    assert Conductor(["a"]).labels == ("a",)
    with pytest.raises(ValueError):
        Conductor(())


def test_subconductor_selection():
    assert subconductor(ABC, [0, 2]).labels == ("L0", "L2")
    assert subconductor(ABC, ABC.positions()) == ABC
    with pytest.raises(OutOfRange):
        subconductor(ABC, [])
    with pytest.raises(OutOfRange):
        subconductor(ABC, [2, 1])
    with pytest.raises(OutOfRange):
        subconductor(ABC, [1, 1])
    with pytest.raises(OutOfRange):
        subconductor(ABC, [4])


def test_subconductor_composes_by_indexing():
    rng = random.Random(7)
    labels = tuple(f"L{i}" for i in range(8))
    c = Conductor(labels)
    for _ in range(50):
        p = sorted(rng.sample(range(8), rng.randint(1, 8)))
        sub = subconductor(c, p)
        q = sorted(rng.sample(range(len(p)), rng.randint(1, len(p))))
        assert subconductor(sub, q) == subconductor(c, [p[i] for i in q])


def test_split_and_refinement():
    head, tail = split(ABC, 1)
    assert head.labels == ("L0", "L1") and tail.labels == ("L2", "L3")
    assert is_refinement(ABC, head, tail)
    assert not is_refinement(ABC, tail, head)
    for q in range(ABC.l):
        h, t = split(ABC, q)
        assert is_refinement(ABC, h, t)
        assert h.l + t.l == ABC.l - 1
    with pytest.raises(OutOfRange):
        split(ABC, -1)
    with pytest.raises(OutOfRange):
        split(ABC, ABC.l)


# ---------------------------------------------------------------------------
# continuations


def test_continuation_validation():
    src, dst = C("a", "b", "c"), C("x", "y")
    h = Continuation(src, dst, (0, 2), (0, 1))
    assert h(0) == 0 and h(2) == 1
    with pytest.raises(OutOfRange):
        h(1)
    with pytest.raises(OutOfRange):
        Continuation(src, dst, (2, 0), (0, 1))
    with pytest.raises(OutOfRange):
        Continuation(src, dst, (0, 1), (1, 0))
    with pytest.raises(OutOfRange):
        Continuation(src, dst, (0, 5), (0, 1))
    with pytest.raises(ValueError):
        Continuation(src, dst, (0, 1), (0,))


def test_image_and_cokernel():
    src, dst = C("a", "b", "c"), C("x", "y", "z")
    h = Continuation(src, dst, (0, 2), (1, 2))
    assert image(h) == C("y", "z")
    assert cokernel(h) == C("a", "c")
    ident = identity_continuation(src)
    assert image(ident) == src and cokernel(ident) == src


def test_compose_keeps_surviving_positions():
    c0, c1, c2 = C("a", "b", "c"), C("x", "y", "z"), C("u", "v")
    h = Continuation(c0, c1, (0, 1, 2), (0, 1, 2))
    k = Continuation(c1, c2, (1,), (0,))
    hk = compose(h, k)
    assert hk.source == c0 and hk.target == c2
    assert hk.positions == (1,) and hk.images == (0,)
    # dropping everything is legal for a composite
    k2 = Continuation(c1, c2, (), ())
    assert compose(h, k2).positions == ()
    with pytest.raises(Mismatch):
        compose(h, Continuation(c2, c0, (), ()))


def test_identity_laws():
    for size in range(1, 6):
        c = Conductor(tuple(f"L{i}" for i in range(size)))
        d = C("x", "y")
        for h in all_continuations(c, d):
            assert compose(identity_continuation(c), h) == h
            assert compose(h, identity_continuation(d)) == h


def test_associativity_exhaustive():
    c0, c1 = C("a", "b", "c"), C("x", "y")
    c2, c3 = C("p", "q", "r"), C("w",)
    count = 0
    for h in all_continuations(c0, c1):
        for k in all_continuations(c1, c2):
            for m in all_continuations(c2, c3):
                count += 1
                assert compose(compose(h, k), m) == compose(h, compose(k, m))
    assert count > 300


def test_associativity_sampled():
    rng = random.Random(11)
    sizes = (5, 4, 5, 3)
    chain = [Conductor(tuple(f"c{i}x{j}" for j in range(s)))
             for i, s in enumerate(sizes)]

    def rand_cont(src, dst):
        r = rng.randint(0, min(len(src.labels), len(dst.labels)))
        pos = tuple(sorted(rng.sample(range(len(src.labels)), r)))
        img = tuple(sorted(rng.sample(range(len(dst.labels)), r)))
        return Continuation(src, dst, pos, img)

    for _ in range(200):
        h = rand_cont(chain[0], chain[1])
        k = rand_cont(chain[1], chain[2])
        m = rand_cont(chain[2], chain[3])
        assert compose(compose(h, k), m) == compose(h, compose(k, m))


def test_exactness_counts_overlap():
    c0, c1, c2 = C("a", "b"), C("x", "y", "z"), C("u", "v")
    h = Continuation(c0, c1, (0, 1), (0, 1))
    assert not is_exact(h, Continuation(c1, c2, (0, 1), (0, 1)))  # overlap 2
    assert is_exact(h, Continuation(c1, c2, (1, 2), (0, 1)))      # overlap 1
    assert is_exact(h, Continuation(c1, c2, (2,), (0,)))          # disjoint
    with pytest.raises(Mismatch):
        is_exact(h, Continuation(c2, c1, (), ()))


def test_exact_composites_have_small_domain():
    # overlap <= 1 forces the composite to keep at most one position
    c0, c1, c2 = C("a", "b", "c"), C("x", "y", "z"), C("u", "v", "w")
    for h in all_continuations(c0, c1):
        for k in all_continuations(c1, c2):
            if is_exact(h, k):
                assert len(compose(h, k).positions) <= 1


# ---------------------------------------------------------------------------
# interchange


def test_json_loaders():
    c = conductor_from_json(["L0", "L1"])
    assert c == C("L0", "L1")
    h = continuation_from_json({
        "source": ["a", "b", "c"],
        "target": ["x", "y"],
        "positions": [0, 2],
        "images": [0, 1],
    })
    assert h.source == C("a", "b", "c") and h.target == C("x", "y")
    assert h.positions == (0, 2) and h.images == (0, 1)
    with pytest.raises(OutOfRange):
        continuation_from_json({"source": ["a"], "target": ["x"],
                                "positions": [3], "images": [0]})


@pytest.mark.parametrize("key", ["positions", "images"])
@pytest.mark.parametrize("bad", [[0, 1.9], [0, 1.0], [False, 1], ["0", 1], "01"])
def test_json_positions_are_integers(key, bad):
    obj = {"source": ["a", "b"], "target": ["x", "y"],
           "positions": [0, 1], "images": [0, 1]}
    obj[key] = bad
    with pytest.raises(ValueError, match=f"^{key} must be a list of integers"):
        continuation_from_json(obj)


@pytest.mark.parametrize("labels", ["abc", {"a": 1}, 3])
def test_json_conductor_is_a_list(labels):
    with pytest.raises(ValueError, match="a conductor is a list of labels"):
        conductor_from_json(labels)
