"""Independent reference for the brute-force oracle, kept only for tests.

scored_candidates and reference_max are the per-candidate scorer that
thetastab.oracle.brute_force_max replaced: every feasible nondegenerate
candidate gets its own numerator polynomial <w, c> (invariant.dot) and
NuValue, and the argmax compares whole NuValues with nu_compare, keeping
the same tie-break (shorter chain, lexicographic chain ids, lexicographic
primitive weights) and the same report of a nonpositive maximum.

iter_candidates, formerly thetastab.oracle.iter_candidates, is the stream
brute_force_max scores, each candidate's terms built into a NuValue.  The
stream's b is an int on the lattice's integer table, sum N_gr[d] * w^2,
the graded norm over lat.rank_scale; iter_candidates multiplies it back,
so its values are nu itself, as scored_candidates builds them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from thetastab import (
    GREATER,
    NuValue,
    OracleResult,
    RatPoly,
    contributions,
    enumerate_chains,
    make_filtration,
    nu_compare,
    nu_delta,
    primitive_weights,
)
from thetastab.invariant import dot
from thetastab.lattice import pair_pivot_index
from thetastab.oracle import iter_terms


def iter_candidates(lat, pair=None, delta=None, bound=4):
    """Yield (chain ids, weights, value) over the candidates of
    thetastab.oracle.iter_terms, in its order, each value on the graded
    ranks' scale."""
    for chain, weights, terms, b in iter_terms(lat, pair, delta, bound):
        yield chain, weights, NuValue(RatPoly(terms), b * lat.rank_scale)


def scored_candidates(lat, pair, delta, bound):
    """(chain ids, weights, NuValue) of every feasible nondegenerate
    candidate, chains in canonical order, weights lexicographic."""
    beta = pair.beta_image if pair is not None else None
    for chain in enumerate_chains(lat):
        contribs = contributions(chain, delta)
        ranks = [g.rank for g in chain.gradeds]
        pivot = pair_pivot_index(chain.chain, lat, beta) if beta is not None else None
        for weights in combinations(range(-bound, bound + 1), len(chain.chain)):
            if pivot is not None and weights[pivot] < 0:
                continue
            b = sum((r * w * w for r, w in zip(ranks, weights)), Fraction(0))
            if b == 0:
                continue
            yield chain.chain, weights, NuValue(dot(weights, contribs), b)


def reference_max(lat, pair=None, delta=None, bound=4) -> OracleResult:
    """brute_force_max by scoring each candidate as a whole NuValue."""
    best_chain = best_weights = best_value = None
    explored = 0
    for chain, weights, value in scored_candidates(lat, pair, delta, bound):
        explored += 1
        verdict = GREATER if best_value is None else nu_compare(value, best_value)
        key = (len(chain), chain, primitive_weights(weights))
        if verdict == GREATER or (
            verdict == 0 and key < (len(best_chain), best_chain, best_weights)
        ):
            best_chain, best_weights, best_value = chain, key[2], value
    if best_value is None:
        return OracleResult(best=None, value=NuValue.zero(), explored=0)
    if nu_compare(best_value, NuValue.zero()) != GREATER:
        return OracleResult(best=None, value=best_value, explored=explored)
    best = make_filtration(lat, best_chain, best_weights, pair)
    return OracleResult(best=best, value=nu_delta(best, delta), explored=explored)
