"""Brute-force ground truth.

Enumerates every chain ending at the ambient object and every strictly
increasing integer weight vector with entries bounded by W, applies the
pair constraint when one is given, and maximizes the invariant exactly.
No pruning beyond feasibility: correctness over speed.

A search reads each chain's ranks and contributions from one step table
(see invariant) by its ids, so a step shared by many chains is computed
once, and lays the contributions out as one row per exponent of n, next
to the ranks and pivot.  A candidate's numerator coefficients and its
norm b, an int on the table's scale, are dot products of its weights with
those, and it is compared with the incumbent by ratpoly.terms_compare,
the rule nu_compare applies to NuValues.  Only the result is built as a
NuValue, from the incumbent's own terms and b by invariant.reported_nu:
no second table values it.

Since nu is scale invariant, proportional weight vectors represent the same
candidate; the argmax is always reported in primitive form (weights divided
by their gcd), and ties are broken deterministically by
(shorter chain, lexicographic chain ids, lexicographic primitive weights).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import Iterable, Iterator

from .invariant import reported_nu, step_table
from .lattice import (
    PairObject,
    SubobjectLattice,
    UnweightedFiltration,
    WeightedFiltration,
    make_filtration,
    pair_pivot_index,
    primitive_weights,
)
from .ratpoly import GREATER, LESS, NuValue, RatPoly, terms_compare


@dataclass(frozen=True)
class OracleResult:
    """best is None iff every candidate value is <= 0; value is the maximum
    found either way.  explored counts feasible nondegenerate candidates."""

    best: WeightedFiltration | None
    value: NuValue
    explored: int


def _walk(
    lat: SubobjectLattice,
    children: dict[str, list[str]],
    bound: int | None = None,
    beta: str | None = None,
) -> list[UnweightedFiltration]:
    """Every chain top > c_1 > ... with each c_(i+1) in children[c_i], in
    lexicographic order of the id tuples (children lists are sorted).

    A depth-first walk visits the chains in that order and builds each
    chain from its ids alone: no graded piece is read until a caller asks.

    With a weight bound W it walks only the chains that carry a candidate
    (strictly increasing weights in [-W, W], w_p >= 0 at beta's pivot p):
    at most 2W + 1 members, at most W past p.  No other chain's extension does.
    """
    chains: list[UnweightedFiltration] = []
    if bound is None:  # no chain is longer, nor misses more
        bound = len(children)

    def extend(prefix: tuple[str, ...], misses: int) -> None:
        chains.append(UnweightedFiltration(lattice=lat, chain=prefix))
        if len(prefix) > 2 * bound:
            return
        for sub in children[prefix[-1]]:
            missed = misses + (beta is not None and not lat.leq(beta, sub))
            if missed <= bound:
                extend(prefix + (sub,), missed)

    extend((lat.top_id,), 0)
    return chains


def enumerate_chains(
    lat: SubobjectLattice, bound: int | None = None, beta: str | None = None
) -> list[UnweightedFiltration]:
    """All strictly increasing chains of nonzero members ending at top,
    in lexicographic order of their id tuples; with a weight bound W, only
    those with a candidate of brute_force_max at W and marked image beta."""
    return _walk(lat, lat.strictly_below, bound, beta)


def saturated_chains(lat: SubobjectLattice) -> list[UnweightedFiltration]:
    """The chains of enumerate_chains whose every step, down to the zero
    object, is a cover (no member lies strictly between its ends), in the
    same order: the walk follows covers only and keeps the chains whose
    deepest member has no lower cover, so nothing nonzero below it."""
    covers = lat.covers
    return [c for c in _walk(lat, covers) if not covers[c.chain[-1]]]


def candidate_count(lat: SubobjectLattice, pair: PairObject | None = None, bound: int = 4) -> int:
    """The number of candidates brute_force_max(lat, pair, delta, bound)
    scores (its explored count, for any delta), from chain lengths and
    pivots alone: no chain is built and no candidate scored.

    A chain of length L admits the strictly increasing weight vectors in
    [-W, W]; when its pivot (the deepest member containing the marked
    image) sits at index p, the pair constraint w_p >= 0 keeps those with
    at most p negative entries, sum over i <= p of C(W, i) C(W + 1, L - i),
    which is C(2W + 1, L) without a constraint.  The top alone with weight
    0 has b = 0 and is not a candidate.
    """
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    beta = pair.beta_image if pair is not None else None
    # shapes[m]: the chains top > ... > m, counted by (length, members containing beta)
    shapes: dict[str, Counter] = {}
    rows, dim = lat.numerators, lat.dim
    for member in sorted(lat.nonzero_ids(), key=lambda m: rows[m][dim], reverse=True):
        inside = beta is not None and lat.leq(beta, member)
        shapes[member] = here = Counter()
        if member == lat.top_id:
            here[1, inside] = 1
        for sup, above in shapes.items():
            if lat.lt(member, sup):
                for (length, containing), count in above.items():
                    here[length + 1, containing + inside] += count
    total = -1
    for here in shapes.values():
        for (length, containing), count in here.items():
            pivot = containing - 1 if beta is not None else length
            total += count * sum(
                comb(bound, i) * comb(bound + 1, length - i) for i in range(min(pivot, length) + 1)
            )
    return total


def iter_terms(
    lat: SubobjectLattice,
    pair: PairObject | None = None,
    delta: RatPoly | None = None,
    bound: int = 4,
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...], dict[int, Fraction], int]]:
    """Yield (chain ids, weights, terms, b) over all feasible nondegenerate
    candidates, chains in canonical order, weights lexicographic: the value
    of a candidate is reported_nu(lat, RatPoly(terms), b), with terms[e]
    read off the chain's step contributions at exponent e (zero
    coefficients kept) and the int b off its ranks, from the step table."""
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    beta = pair.beta_image if pair is not None else None

    steps_of = step_table(lat, delta)
    for chain in enumerate_chains(lat, bound, beta):
        ids = chain.chain
        ranks, contribs = steps_of(ids)
        exponents = sorted({e for c in contribs for e, _ in c.items()}, reverse=True)
        table = [(e, [c.coeff(e) for c in contribs]) for e in exponents]
        pivot = pair_pivot_index(ids, lat, beta) if beta is not None else None

        for weights in combinations(range(-bound, bound + 1), len(ids)):
            if pivot is not None and weights[pivot] < 0:
                continue
            b = sum(map(mul, ranks, (w * w for w in weights)))
            if b == 0:  # the trivial chain with weight 0
                continue
            yield ids, weights, {e: sum(map(mul, weights, col)) for e, col in table}, b


def brute_force_max(
    lat: SubobjectLattice,
    pair: PairObject | None = None,
    delta: RatPoly | None = None,
    bound: int = 4,
) -> OracleResult:
    """Exact maximum of nu (or nu_delta) over bounded integer weights."""
    return argmax(lat, iter_terms(lat, pair, delta, bound), pair)


def argmax(
    lat: SubobjectLattice,
    candidates: Iterable[tuple[tuple[str, ...], tuple[int, ...], dict[int, Fraction], int]],
    pair: PairObject | None = None,
) -> OracleResult:
    """The best of a stream of iter_terms(lat, pair, delta, W) quadruples,
    each compared with the incumbent once as it arrives.  The one NuValue
    built is the result's, from the incumbent's own terms and b: those of
    its primitive representative (both over g, g^2 for g the gcd of its
    weights) for a positive maximum, which is nu_delta of best, and as
    scored otherwise."""
    best = best_key = None
    explored = 0
    for candidate in candidates:
        chain, weights, terms, b = candidate
        explored += 1
        verdict = GREATER if best is None else terms_compare(terms, b, best[2], best[3])
        if verdict == LESS:
            continue
        key = (len(chain), chain, primitive_weights(weights))
        if verdict == GREATER or key < best_key:
            best, best_key = candidate, key

    if best is None:
        return OracleResult(best=None, value=NuValue.zero(), explored=0)
    chain, weights, terms, b = best
    if terms_compare(terms, b, {}, 1) != GREATER:
        return OracleResult(None, reported_nu(lat, RatPoly(terms), b), explored)
    g = gcd(*weights)
    value = reported_nu(lat, RatPoly({e: t / g for e, t in terms.items()}), b // (g * g))
    return OracleResult(make_filtration(lat, chain, best_key[2], pair), value, explored)
