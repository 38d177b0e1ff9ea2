from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from thetastab import (
    PairObject,
    RatPoly,
    SubobjectLattice,
    build_lattice,
    hilbert_line_bundle_projective,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def coordinate_lattice(twists: dict[str, int], d: int = 1) -> SubobjectLattice:
    """Full sub-sum lattice of line-bundle summands on P^d."""
    ids = sorted(twists, key=lambda name: (-twists[name], name))
    return sum_lattice({name: hilbert_line_bundle_projective(d, twists[name]) for name in ids}, d)


def sum_lattice(summands: dict[str, RatPoly], d: int) -> SubobjectLattice:
    """Full sub-sum lattice of a direct sum with the given summand classes
    on P^d; members join summand ids in the given order, the whole sum is F."""
    polys: dict[str, RatPoly] = {"0": RatPoly.zero()}
    ids = list(summands)
    full = tuple(ids)
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            key = "F" if combo == full else "+".join(combo)
            poly = RatPoly.zero()
            for name in combo:
                poly = poly + summands[name]
            polys[key] = poly
    relations = []
    for r in range(1, len(ids)):
        for combo in itertools.combinations(ids, r):
            for bigger in itertools.combinations(ids, r + 1):
                if set(combo) < set(bigger):
                    sup = "F" if bigger == full else "+".join(bigger)
                    relations.append(("+".join(combo), sup))
    return build_lattice(d, polys, relations)


@pytest.fixture
def lat_o2_o() -> SubobjectLattice:
    return coordinate_lattice({"O2": 2, "O": 0})


@pytest.fixture
def lat_b3() -> SubobjectLattice:
    """Coordinate lattice of O(5) + O(1) + O on the projective line."""
    return coordinate_lattice({"O5": 5, "O1": 1, "O": 0})


@pytest.fixture
def pair_b3(lat_b3) -> PairObject:
    return PairObject(lattice=lat_b3, beta_image="O")


@pytest.fixture
def lat_o_o1() -> SubobjectLattice:
    return coordinate_lattice({"O": 0, "O1": 1})


@pytest.fixture
def pair_o_o1(lat_o_o1) -> PairObject:
    return PairObject(lattice=lat_o_o1, beta_image="O")


@pytest.fixture
def lat_trivial() -> SubobjectLattice:
    return build_lattice(1, {"0": RatPoly.zero(), "F": RatPoly({1: 1, 0: 1})})
