"""Shared fixture data: a small associative chain datum, its diagonal
conjugate, and an augmentation example reused across the suite."""

from __future__ import annotations

from pathlib import Path

import pytest

import openstrings
from openstrings.ainfty import (
    AInftyDatum,
    Augmentation,
    Generator,
    MapDatum,
    TensorEntry,
    assemble_differential,
)
from openstrings.novikov import NovikovSeries, parse_series

ONE = NovikovSeries.one(ring="Z")


def S(text):
    return parse_series(text, ring="Z")


def T(inputs, output, coeff=ONE):
    return TensorEntry(tuple(inputs), output, coeff)


def child_env(**extra) -> dict:
    """Environment for a subprocess: PATH, the import path of the
    openstrings copy this process imported, and ``extra``; nothing else
    from the caller leaks in."""
    env = {"PATH": "/usr/bin:/bin",
           "PYTHONPATH": str(Path(openstrings.__file__).resolve().parents[1])}
    env.update(extra)
    return env


def make_chain_datum() -> AInftyDatum:
    """Three composable products over four labels plus two m_1 strands.

    The coefficients are tuned so the quadratic relation holds on the
    nose; the z/w generators exist only as targets for arity-2 map and
    homotopy entries.
    """
    gens = (
        Generator("g01", 0, 1, 1), Generator("a", 0, 1, 0),
        Generator("ap", 0, 1, 1),
        Generator("g12", 1, 2, 1), Generator("b", 1, 2, 0),
        Generator("g23", 2, 3, 1), Generator("c", 2, 3, 0),
        Generator("cp", 2, 3, 1),
        Generator("g02", 0, 2, 2), Generator("g13", 1, 3, 2),
        Generator("g03", 0, 3, 3),
        Generator("z02", 0, 2, 1), Generator("z13", 1, 3, 1),
        Generator("w02", 0, 2, 0),
    )
    tensors = (
        T(["a"], "ap"),
        T(["c"], "cp", S("2t^1/2")),
        T(["g01", "g12"], "g02"),
        T(["g12", "g23"], "g13"),
        T(["g01", "g13"], "g03", S("3t^2")),
        T(["g02", "g23"], "g03", S("3t^2")),
    )
    return AInftyDatum(l=3, generators=gens, tensors=tensors, modulus=0)


# one invertible monomial per generator, mixed signs and exponents
CHAIN_UNITS = {
    "g01": "t^1", "a": "-t^0", "ap": "t^1/3", "g12": "t^0",
    "b": "-t^2", "g23": "t^1", "c": "t^0", "cp": "-t^1",
    "g02": "-t^3", "g13": "t^0", "g03": "t^1/3",
    "z02": "-t^0", "z13": "t^5", "w02": "-t^1",
}


def _unit_inverse(u: NovikovSeries) -> NovikovSeries:
    (exp, coeff), = u.terms
    return NovikovSeries.monomial(coeff, -exp, ring="Z")


def conjugate_datum(d: AInftyDatum, units) -> AInftyDatum:
    """Rescale each generator by an invertible monomial."""
    new = []
    for t in d.tensors:
        coeff = t.coeff
        for x in t.inputs:
            coeff = coeff * units[x]
        coeff = coeff * _unit_inverse(units[t.output])
        new.append(TensorEntry(t.inputs, t.output, coeff))
    return AInftyDatum(l=d.l, generators=d.generators, tensors=tuple(new),
                       modulus=d.modulus, ring=d.ring, metadata=d.metadata)


def diagonal_map(d: AInftyDatum, units) -> MapDatum:
    return MapDatum(h=tuple(T([g.id], g.id, units[g.id])
                            for g in d.generators))


def all_pairs_datum(l: int, shadows=(), modulus: int = 0) -> AInftyDatum:
    """Generators g_ij (0 <= i < j <= l) of index j - i with the products
    g_ij g_jk -> g_ik, all of weight 1: an associative path algebra, so a
    complex.  Each shadow pair (i, j) adds s_ij of index j - i and z_ij of
    index j - i - 1, which no structure tensor touches."""
    gens = [Generator(f"g{i}{j}", i, j, j - i)
            for i in range(l + 1) for j in range(i + 1, l + 1)]
    for i, j in shadows:
        gens += [Generator(f"s{i}{j}", i, j, j - i),
                 Generator(f"z{i}{j}", i, j, j - i - 1)]
    tensors = tuple(T([f"g{i}{j}", f"g{j}{k}"], f"g{i}{k}")
                    for i in range(l + 1) for j in range(i + 1, l + 1)
                    for k in range(j + 1, l + 1))
    return AInftyDatum(l=l, generators=tuple(gens), tensors=tensors,
                       modulus=modulus)


def random_units(rng, datum) -> dict:
    """One invertible monomial +-t^e per generator of ``datum``."""
    return {g.id: S(f"{rng.choice(('', '-'))}t^{rng.randint(-3, 6)}"
                    f"/{rng.choice((1, 2, 3))}")
            for g in datum.generators}


def make_augmentation_datum():
    """A two-label datum with a nontrivially cancelling augmentation."""
    gens = (
        Generator("x", 0, 1, 0), Generator("y", 0, 1, 1),
        Generator("z", 0, 1, 1), Generator("p", 1, 2, 1),
    )
    tensors = (T(["x"], "y", S("t^0")), T(["x"], "z", S("t^1")))
    datum = AInftyDatum(l=2, generators=gens, tensors=tensors, modulus=2)
    aug = Augmentation(values={"y": S("-t^1"), "z": ONE, "p": ONE + S("t^1")})
    return datum, aug


@pytest.fixture(autouse=True)
def _default_polytope_budget(monkeypatch):
    """Run every test at the documented enumeration budgets (K <= 10,
    J <= 8): the program reads OPENSTRINGS_MAX_L on each call, and
    subprocess children inherit the environment, so an exported value
    would otherwise change what the suite checks."""
    monkeypatch.delenv("OPENSTRINGS_MAX_L", raising=False)


@pytest.fixture(scope="session")
def chain_datum():
    return make_chain_datum()


@pytest.fixture(scope="session")
def chain_complex(chain_datum):
    return assemble_differential(chain_datum)


@pytest.fixture(scope="session")
def conjugated_datum(chain_datum):
    units = {k: S(v) for k, v in CHAIN_UNITS.items()}
    return conjugate_datum(chain_datum, units)


@pytest.fixture(scope="session")
def chain_units():
    return {k: S(v) for k, v in CHAIN_UNITS.items()}
