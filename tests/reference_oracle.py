"""Independent reference for the brute-force oracle, kept only for tests.

graded_steps is the kernel the searches read before they read members:
a chain's graded ranks and contributions P(gr) - rank(gr) * tau from each
step's quotient (lattice.quotient_poly), with a tau of its own,
(P(F) + delta) / rank(F).  reference_nu values a filtration on it.  The
references here and in reference_maximizer and reference_pair_canonical
read no step table, so a defect in the library's kernel does not move
them with it.  ReferenceResult is the answer the reference searches
return, a type of their own beside the library's CanonicalResult.

scored_candidates and reference_max are the per-candidate scorer that
thetastab.oracle.brute_force_max replaced: every feasible nondegenerate
candidate gets its own numerator polynomial <w, c> and NuValue, and the
argmax compares whole NuValues with nu_compare, keeping the same
tie-break (shorter chain, lexicographic chain ids, lexicographic
primitive weights) and the same report of a nonpositive maximum.

lcm_terms is the stream iter_terms yielded before it read member rows:
each chain's contributions laid out as one column per exponent e, integer
numerators over D_e, the lcm of the column's denominators.

iter_candidates, formerly thetastab.oracle.iter_candidates, is the stream
brute_force_max scores, each candidate's terms built into a NuValue.  The
stream's b is an int on the lattice's integer table, sum N_gr[d] * w^2,
the graded norm over lat.rank_scale; iter_candidates multiplies it back,
so its values are nu itself, as scored_candidates builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from thetastab import (
    GREATER,
    NuValue,
    OracleResult,
    RatPoly,
    enumerate_chains,
    make_filtration,
    nu_compare,
    primitive_weights,
)
from thetastab.lattice import UnweightedFiltration, WeightedFiltration, pair_pivot_index
from thetastab.oracle import iter_terms


@dataclass(frozen=True)
class ReferenceResult:
    """A reference search's answer: its filtration, the filtration's value,
    the exponent of n where its search stopped (None where it reads none),
    and its source, "closed-form", or "oracle" for an oracle fallback."""

    filtration: WeightedFiltration
    value: NuValue
    index: int | None = None
    source: str = "closed-form"


def iter_candidates(lat, pair=None, delta=None, bound=4):
    """Yield (chain ids, weights, value) over the candidates of
    thetastab.oracle.iter_terms, in its order, each value on the graded
    ranks' scale."""
    for chain, weights, terms, b in iter_terms(lat, pair, delta, bound):
        yield chain, weights, NuValue(RatPoly(terms), b * lat.rank_scale)


def graded_steps(lat, ids, delta=None):
    """The graded ranks of the chain's steps and their contributions
    P(gr) - rank(gr) * tau, from the quotients, deepest step last."""
    top = lat.top.stats
    tau = (top.poly if delta is None else top.poly + delta) * (1 / top.rank)
    gradeds = UnweightedFiltration(lattice=lat, chain=tuple(ids)).gradeds
    return [g.rank for g in gradeds], [g.poly - tau * g.rank for g in gradeds]


def dot(weights, contribs):
    return sum((c * w for w, c in zip(weights, contribs)), RatPoly.zero())


def reference_nu(f, delta=None) -> NuValue:
    """nu_delta of the weighted filtration f, on graded_steps."""
    ranks, contribs = graded_steps(f.lattice, f.chain, delta)
    b = sum(r * w * w for r, w in zip(ranks, f.weights))
    return NuValue(dot(f.weights, contribs), b) if b else NuValue.zero()


def lcm_terms(lat, pair=None, delta=None, bound=4):
    """iter_terms' stream, each chain's contributions read off graded_steps
    and laid out over per-column lcms."""
    beta = pair.beta_image if pair is not None else None
    for chain in enumerate_chains(lat, bound, beta):
        ids = chain.chain
        ranks, contribs = graded_steps(lat, ids, delta)
        ranks = [int(r / lat.rank_scale) for r in ranks]
        table = []  # (e, D_e the lcm of the column's denominators, its numerators over D_e)
        for e in sorted({e for c in contribs for e, _ in c.items()}, reverse=True):
            column = [c.coeff(e) for c in contribs]
            den = lcm(*(x.denominator for x in column))
            table.append((e, den, [x.numerator * (den // x.denominator) for x in column]))
        pivot = pair_pivot_index(ids, lat, beta) if beta is not None else None
        for weights in combinations(range(-bound, bound + 1), len(ids)):
            if pivot is not None and weights[pivot] < 0:
                continue
            b = sum(map(mul, ranks, (w * w for w in weights)))
            if b:
                yield ids, weights, {e: Fraction(sum(map(mul, weights, col)), den) for e, den, col in table}, b


def scored_candidates(lat, pair, delta, bound):
    """(chain ids, weights, NuValue) of every feasible nondegenerate
    candidate, chains in canonical order, weights lexicographic."""
    beta = pair.beta_image if pair is not None else None
    for chain in enumerate_chains(lat):
        ranks, contribs = graded_steps(lat, chain.chain, delta)
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
    return OracleResult(best=best, value=reference_nu(best, delta), explored=explored)
