"""Brute-force ground truth.

Enumerates every chain ending at the ambient object and every strictly
increasing integer weight vector with entries bounded by W, applies the
pair constraint when one is given, and maximizes the invariant exactly.
No pruning beyond feasibility: correctness over speed.

Since nu is scale invariant, proportional weight vectors represent the same
candidate; the argmax is always reported in primitive form (weights divided
by their gcd), and ties are broken deterministically by
(shorter chain, lexicographic chain ids, lexicographic primitive weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .invariant import contributions, dot, nu_delta
from .lattice import (
    PairObject,
    SubobjectLattice,
    UnweightedFiltration,
    WeightedFiltration,
    make_filtration,
    pair_pivot_index,
    primitive_weights,
    quotient_poly,
)
from .ratpoly import GREATER, HilbertStats, NuValue, RatPoly, nu_compare


@dataclass(frozen=True)
class OracleResult:
    """best is None iff every candidate value is <= 0; value is the maximum
    found either way.  explored counts feasible nondegenerate candidates."""

    best: WeightedFiltration | None
    value: NuValue
    explored: int


def _below(lat: SubobjectLattice) -> dict[str, list[str]]:
    """Sorted nonzero members strictly below each nonzero member."""
    nonzero = lat.nonzero_ids()
    return {sup: [sub for sub in nonzero if lat.lt(sub, sup)] for sup in nonzero}


def _walk(
    lat: SubobjectLattice, children: dict[str, list[str]]
) -> list[UnweightedFiltration]:
    """Every chain top > c_1 > ... with each c_(i+1) in children[c_i], in
    lexicographic order of the id tuples (children lists are sorted).

    A depth-first walk visits the chains in that order; chains sharing a
    prefix share its graded pieces, and quotient_poly computes each
    quotient once per lattice, not once per call.
    """
    chains: list[UnweightedFiltration] = []

    def extend(prefix: tuple[str, ...], upper: tuple[HilbertStats, ...]) -> None:
        # upper holds the graded pieces above the deepest member prefix[-1]
        deepest = prefix[-1]
        gradeds = upper + (quotient_poly(lat, lat.zero_id, deepest),)
        chains.append(UnweightedFiltration(lattice=lat, chain=prefix, gradeds=gradeds))
        for sub in children[deepest]:
            extend(prefix + (sub,), upper + (quotient_poly(lat, sub, deepest),))

    extend((lat.top_id,), ())
    return chains


def enumerate_chains(lat: SubobjectLattice) -> list[UnweightedFiltration]:
    """All strictly increasing chains of nonzero members ending at top,
    in lexicographic order of their id tuples."""
    return _walk(lat, _below(lat))


def saturated_chains(lat: SubobjectLattice) -> list[UnweightedFiltration]:
    """The chains of enumerate_chains whose every step, down to the zero
    object, is a cover (no member lies strictly between its ends), in the
    same order: the walk follows covers only and keeps the chains whose
    deepest member has nothing nonzero below it."""
    below = _below(lat)
    covers = {
        sup: [sub for sub in subs if not any(lat.lt(sub, m) for m in subs)]
        for sup, subs in below.items()
    }
    return [c for c in _walk(lat, covers) if not below[c.chain[-1]]]


def iter_candidates(
    lat: SubobjectLattice,
    pair: PairObject | None = None,
    delta: RatPoly | None = None,
    bound: int = 4,
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...], NuValue]]:
    """Yield (chain ids, weights, value) over all feasible nondegenerate
    candidates, chains in canonical order, weights lexicographic."""
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    beta = pair.beta_image if pair is not None else None

    for chain in enumerate_chains(lat):
        contribs = contributions(chain, delta)
        ranks = [g.rank for g in chain.gradeds]
        pivot = pair_pivot_index(chain.chain, lat, beta) if beta is not None else None

        for weights in combinations(range(-bound, bound + 1), len(chain.chain)):
            if pivot is not None and weights[pivot] < 0:
                continue
            b = sum((r * w * w for r, w in zip(ranks, weights)), Fraction(0))
            if b == 0:  # the trivial chain with weight 0
                continue
            yield chain.chain, weights, NuValue(dot(weights, contribs), b)


def brute_force_max(
    lat: SubobjectLattice,
    pair: PairObject | None = None,
    delta: RatPoly | None = None,
    bound: int = 4,
) -> OracleResult:
    """Exact maximum of nu (or nu_delta) over bounded integer weights."""
    return argmax(lat, iter_candidates(lat, pair, delta, bound), pair, delta)


def argmax(
    lat: SubobjectLattice,
    candidates: Iterable[tuple[tuple[str, ...], tuple[int, ...], NuValue]],
    pair: PairObject | None = None,
    delta: RatPoly | None = None,
) -> OracleResult:
    """The best of a stream of iter_candidates(lat, pair, delta, W) triples,
    each scored once as it arrives."""
    best_chain: tuple[str, ...] | None = None
    best_weights: tuple[int, ...] | None = None
    best_value: NuValue | None = None
    explored = 0
    for chain, weights, value in candidates:
        explored += 1
        if best_value is None:
            verdict = GREATER
        else:
            verdict = nu_compare(value, best_value)
        if verdict == GREATER:
            best_chain, best_weights, best_value = chain, primitive_weights(weights), value
        elif verdict == 0:
            key = (len(chain), chain, primitive_weights(weights))
            if key < (len(best_chain), best_chain, best_weights):
                best_chain, best_weights, best_value = chain, key[2], value

    zero = NuValue.zero()
    if best_value is None:
        return OracleResult(best=None, value=zero, explored=0)
    if nu_compare(best_value, zero) != GREATER:
        return OracleResult(best=None, value=best_value, explored=explored)
    best = make_filtration(lat, best_chain, best_weights, pair)
    # report the value of the primitive representative (same nu_compare class)
    return OracleResult(best=best, value=nu_delta(best, delta), explored=explored)
