"""Brute-force ground truth.

Enumerates every chain ending at the ambient object and every strictly
increasing integer weight vector with entries bounded by W, applies the
pair constraint when one is given, and maximizes the invariant exactly.
No pruning beyond feasibility: correctness over speed.  The one walk,
enumerate_chains, and candidate_count skip by one rule just the chains
that carry no candidate; the searches judged here walk chains of their own.

A search reads no step table and forms no quotient.  Once per query it
lays out each member's value a(G) = P(G) - rank(G) * tau (see invariant)
as the integer row K * a(G) on the lattice's table N (see lattice),

    A_G = E * (N_F[d] * N_G - N_G[d] * N_F) - D * N_G[d] * (E * delta),

over the members' and delta's exponents, for E the lcm of delta's
denominators, D the table's and K = D * E * N_F[d].  A chain's column at
e holds its steps' A_sup[e] - A_sub[e], kept when one is nonzero, and a
candidate's coefficient there is one integer dot product of its weights
with the column, over K; its norm b, an int on the table's scale, is one
with the ranks N_sup[d] - N_sub[d].

The judge compares candidates by a rule of its own, not through
ratpoly's, and on ints: sum_e x_e n^e / sqrt(b_x) against
sum_e y_e n^e / sqrt(b_y), from the highest exponent down.  Each
coefficient is an int numerator over the query's one K, so where the
signs of two agree and are nonzero, x_e^2 * b_y is weighed against
y_e^2 * b_x as n_x^2 * b_y against n_y^2 * b_x: one K per query cancels,
so the order is exact.  The incumbent's signs and n_y^2 are formed once
each time it changes, so a candidate costs two int products at an
exponent where the signs do not decide, none where they do, and no
Fraction at all; only the result becomes a NuValue, by reported_nu.

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
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Iterator

from .invariant import reported_nu
from .lattice import (
    PairObject,
    SubobjectLattice,
    UnweightedFiltration,
    WeightedFiltration,
    make_filtration,
    pair_pivot_index,
    primitive_weights,
)
from .ratpoly import EQUAL, GREATER, LESS, NuValue, RatPoly


@dataclass(frozen=True)
class OracleResult:
    """best is None iff every candidate value is <= 0; value is the maximum
    found either way.  explored counts feasible nondegenerate candidates."""

    best: WeightedFiltration | None
    value: NuValue
    explored: int


def enumerate_chains(
    lat: SubobjectLattice, bound: int | None = None, beta: str | None = None
) -> list[UnweightedFiltration]:
    """All strictly increasing chains of nonzero members ending at top,
    in lexicographic order of their id tuples, each built from its ids
    alone.  With a weight bound W, only those with a candidate of
    brute_force_max at W and marked image beta (strictly increasing
    weights in [-W, W], w_p >= 0 at beta's pivot p): at most 2W + 1
    members, at most W outside beta's up-set.  No other chain's extension
    has one, and candidate_count counts by the same rule."""
    below = lat.strictly_below
    if bound is None:  # no chain is longer, nor misses more
        bound = len(below)
    chains: list[UnweightedFiltration] = []
    stack = [((lat.top_id,), 0)]  # depth first on an explicit stack, subs in sorted order
    while stack:
        ids, misses = stack.pop()
        chains.append(UnweightedFiltration(lattice=lat, chain=ids))
        if len(ids) > 2 * bound:
            continue
        for sub in reversed(below[ids[-1]]):
            missed = misses + (beta is not None and not lat.leq(beta, sub))
            if missed <= bound:
                stack.append((ids + (sub,), missed))
    return chains


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
    # shapes[m]: the chains top > ... > m that enumerate_chains walks, by (length,
    # members outside beta's up-set); members above m have larger ranks, so come first
    shapes: dict[str, Counter] = {}
    rows, dim = lat.numerators, lat.dim
    for member in sorted(lat.nonzero_ids(), key=lambda m: rows[m][dim], reverse=True):
        outside = beta is not None and not lat.leq(beta, member)
        shapes[member] = here = Counter()
        if member == lat.top_id:
            here[1, 0] = 1
        for sup in lat.above(member):
            for (length, missed), count in shapes[sup].items():
                if length <= 2 * bound and missed + outside <= bound:
                    here[length + 1, missed + outside] += count
    counts = sum(shapes.values(), Counter())  # each shape's vectors once
    # the rows C(W, i) and C(W + 1, j) up to the longest chain, each binomial once
    low, high = [1], [1]
    for i in range(max(length for length, _ in counts)):
        low.append(low[-1] * (bound - i) // (i + 1))
        high.append(high[-1] * (bound + 1 - i) // (i + 1))
    # a shape keeps the vectors with fewer than `negatives` negative entries: at
    # most p = length - missed - 1 with beta, any without.  Summed over the
    # shapes first, so each C(W, i), as long as W is, multiplies once
    kept = [(length, length - missed if beta is not None else length + 1, count)
            for (length, missed), count in counts.items()]
    return sum(
        low_i * sum(count * high[length - i] for length, negatives, count in kept if i < negatives)
        for i, low_i in enumerate(low)
    ) - 1


def denominator(lat: SubobjectLattice, delta: RatPoly | None = None) -> int:
    """K = D * E * N_F[d], the one denominator of a query's coefficients."""
    terms = {} if delta is None else delta._coeffs
    return lat.denominator * lcm(*(c.denominator for c in terms.values())) * lat.numerators[lat.top_id][lat.dim]


def member_rows(lat: SubobjectLattice, delta: RatPoly | None = None) -> tuple[list[int], int, dict]:
    """The members' and delta's exponents, highest first, K and each
    member's row A_G = K * a(G) over them; the zero member's is zero."""
    terms = {} if delta is None else delta._coeffs
    rows, d, top = lat.numerators, lat.dim, lat.numerators[lat.top_id]
    den = denominator(lat, delta)
    scale = den // (lat.denominator * top[d])
    exponents = sorted({e for row in rows.values() for e, n in enumerate(row) if n} | terms.keys(), reverse=True)
    twist = {e: lat.denominator * c.numerator * (scale // c.denominator) for e, c in terms.items()}
    return exponents, den, {member: [
        (scale * (top[d] * n[e] - n[d] * top[e]) if 0 <= e <= d else 0) - n[d] * twist.get(e, 0) for e in exponents
    ] for member, n in rows.items()}


def poly(terms: dict[int, int], den: int) -> RatPoly:
    """The numerator <w, c> of a candidate whose terms are over den."""
    return RatPoly({e: Fraction(n, den) for e, n in terms.items()})


def iter_terms(
    lat: SubobjectLattice,
    pair: PairObject | None = None,
    delta: RatPoly | None = None,
    bound: int = 4,
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...], dict[int, int], int]]:
    """Yield (chain ids, weights, terms, b) over all feasible nondegenerate
    candidates, chains in canonical order, weights lexicographic, each of
    value reported_nu(lat, poly(terms, K), b) for K = denominator(lat,
    delta): terms[e] an int numerator at each exponent e of the chain's
    columns (zero ones kept), b an int read off its ranks."""
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    beta = pair.beta_image if pair is not None else None

    exponents, _, rows = member_rows(lat, delta)
    nums, d = lat.numerators, lat.dim
    for chain in enumerate_chains(lat, bound, beta):
        ids = chain.chain
        steps = list(zip(ids, ids[1:] + (lat.zero_id,)))  # (sup, sub), top first
        ranks = [nums[upper][d] - nums[lower][d] for upper, lower in steps]
        entries = zip(*(map(sub, rows[upper], rows[lower]) for upper, lower in steps))
        table = [(e, column) for e, column in zip(exponents, entries) if any(column)]
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
    return argmax(lat, iter_terms(lat, pair, delta, bound), denominator(lat, delta), pair)


def argmax(
    lat: SubobjectLattice,
    candidates: Iterable[tuple[tuple[str, ...], tuple[int, ...], dict[int, int], int]],
    den: int,
    pair: PairObject | None = None,
) -> OracleResult:
    """The best of a stream of iter_terms(lat, pair, delta, W) quadruples,
    terms over den = denominator(lat, delta), each compared with the
    incumbent once as it arrives, by the rule of the module docstring.
    The one NuValue built is the result's, from the incumbent's terms and
    b: for a positive maximum its primitive representative's, over den * g
    and g^2 for g the gcd of its weights (nu_delta of best), and as scored
    otherwise."""
    best = best_key = side = their_b = None
    explored = 0
    for candidate in candidates:
        chain, weights, terms, b = candidate
        explored += 1
        verdict = GREATER if best is None else _compare(terms, b, side, their_b)
        if verdict == LESS:
            continue
        key = (len(chain), chain, primitive_weights(weights))
        if verdict == GREATER or key < best_key:
            best, best_key, side, their_b = candidate, key, _side(terms), b

    if best is None:
        return OracleResult(best=None, value=NuValue.zero(), explored=0)
    chain, weights, terms, b = best
    if _compare(terms, b, {}, 0) != GREATER:  # against the zero value
        return OracleResult(None, reported_nu(lat, poly(terms, den), b), explored)
    g = gcd(*weights)
    value = reported_nu(lat, poly(terms, den * g), b // (g * g))
    return OracleResult(make_filtration(lat, chain, best_key[2], pair), value, explored)


def _side(terms: dict[int, int]) -> dict[int, tuple[int, int]]:
    """The incumbent's side of every comparison but its b: at each
    exponent where its numerator n is nonzero, the sign of n and n^2."""
    return {e: (1 if n > 0 else -1, n * n) for e, n in terms.items() if n}


def _compare(terms: dict[int, int], b: int, side: dict[int, tuple[int, int]], their_b: int) -> int:
    """The candidate (terms, b) against the incumbent (side, their_b) by the
    module docstring's rule; against the empty side, its value's sign."""
    for e in sorted(terms.keys() | side.keys(), reverse=True):
        n = terms.get(e, 0)
        sign = (n > 0) - (n < 0)
        their_sign, their_square = side.get(e, (0, 0))  # absent, or a zero coefficient
        if sign != their_sign:
            return GREATER if sign > their_sign else LESS
        if sign:
            lhs, rhs = n * n * their_b, their_square * b
            if lhs != rhs:
                return sign if lhs > rhs else -sign
    return EQUAL
