"""Delta-stability of pairs.

A pair is an object with a marked saturated image subobject; its invariant
twists the plain one by -delta/rank(F) per unit weight, for a rational
Laurent parameter delta.

Semistability.  With beta the marked image, write

    p_delta(G) = reduced(G) + [beta <= G] * delta / rank(G),
    tau = p_delta(F) = reduced(F) + delta / rank(F).

Summation by parts over a chain F = G_0 > G_1 > ... > G_q with weights
w_0 <= ... <= w_q gives the numerator of the invariant as

    <w, c> = -delta * w_pivot
             + sum_{i >= 1} (w_i - w_{i-1}) * rank(G_i) * (p_delta(G_i) - tau).

So for delta >= 0 and a nonzero framing map (w_pivot >= 0) the pair is
semistable iff no proper member has p_delta(G) > tau: Gieseker's test on
p_delta, which is Le Potier's criterion, and plain Gieseker at delta = 0.
Otherwise such a G, or the trivial chain when delta < 0 or when delta > 0
and the framing map vanishes, destabilizes with weights in {-1, 0, 1}.

The maximizer.  nu is compared eventually, so on one chain it is maximized
lexicographically, one exponent of n at a time, highest first.  With
per-step units u (the coefficients of c at that exponent) and graded ranks
r, the coefficient <w, u> / sqrt(<w, R w>) is <w, x>_R / |w|_R for x = u / r
in the r-weighted inner product, so (Moreau) its maximum over a closed
convex cone is attained, uniquely up to scale, at the projection P(x) of x
onto the cone when P(x) != 0, and is <= 0 when P(x) = 0, since
<P(x), x>_R = |P(x)|_R^2.  On the cone {w_0 <= ... <= w_q}, P(x) is the
r-weighted isotonic regression of x, computed exactly by
pool-adjacent-violators; pooling on >= merges blocks of equal mean, so the
level sets of P(x) are the steps of the coarser chain the maximizer lives
on.  When the unconstrained fit violates the pair constraint w_pivot >= 0,
P(x) lies on the face w_pivot = 0, where the prefix is its own fit clipped
to <= 0 and the suffix its own fit clipped to >= 0.

When P(x) = 0, write w by its increments a_i = w_i - w_{i-1} >= 0 around
the pivot (index 0, unconstrained, without a framing map):

    <w, u> = S * w_pivot - sum_{1 <= i <= pivot} a_i * (u_0 + ... + u_{i-1})
             + sum_{i > pivot} a_i * (u_i + ... + u_q),   S = u_0 + ... + u_q.

Every coefficient is then <= 0 (S = 0 without a framing map), and the
zero maximum is attained on the face where each increment with a nonzero
coefficient vanishes (its step merges into the one above) and w_pivot = 0
when S < 0.  That face is again a monotone cone on a coarser chain,
pinned or not, so the next exponent runs the same projection on summed
units and ranks.  The descent stops at the first exponent e* with
P(x) != 0; when the face shrinks to {0} or the exponents run out, the
chain has no positive weighting.  The value is nu itself at the fit: the
coefficients above e* vanish on the face, so it leads there, and its
coefficient at e* is <fit, u> = <P(x), x>_R = |P(x)|_R^2 = b, the norm.  So
nu at the fit leads with sqrt(b) n^(e*).

For deg(delta) >= d the descent stops at its first step, exponent
deg(delta), where every unit is -delta_top * r_i / rank(F) and x is
constant.  For delta_top < 0 the fit is that positive constant: (top,)
with weight 1.  Without a framing map delta_top > 0 gives (top,) with
weight -1.  With one, the fit is pinned: -1 above the pivot, 0 from it
on, valued delta_top * sqrt(rank F - rank G_pivot) / rank F, so the chains
through beta win with (top, beta) and weights (-1, 0); when beta is the
top nothing is positive, which is pair_semistable's verdict.

Refining a chain enlarges its cone (the inserted steps repeat the weight
of the step they split, the pivot's included), so every chain's maximizer
is that of its saturated refinements, and pair_canonical visits saturated
chains only.  A step's contribution depends on the step and the query
alone, and saturated chains share their steps (k! chains over k * 2^(k-1)
steps on the sub-sum lattice of k summands), so pair_canonical computes
tau once and each distinct step's contribution once per query, in a table
it keeps for that call only, and each chain reads its contributions from
it.  It ranks the chains on their maximizers' values (nu is
scale-invariant, and a merged step contributes its block's sum): first on
the leading term, that is on (e*, b), and on the full value only between
chains that tie on both; it builds the winner alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import add
from typing import Sequence

from .canonical import destabilizing_member
from .errors import Semistable
from .invariant import ambient_tau, contributions, dot, nu_delta, step_contribution
from .lattice import (
    ObjectClass,
    PairObject,
    UnweightedFiltration,
    WeightedFiltration,
    make_filtration,
    pair_pivot_index,
    primitive_weights,
)
from .oracle import saturated_chains
from .ratpoly import EQUAL, GREATER, LESS, NuValue, RatPoly, eventual_compare, nu_compare


def pair_semistable(
    pair: PairObject, delta: RatPoly | None
) -> tuple[bool, ObjectClass | None]:
    """Semistability verdict for the pair at the given delta, with witness.

    Gieseker's test on the twisted reduced polynomial p_delta (see the
    module docstring): the witness is canonical.destabilizing_member's.
    delta < 0, and delta > 0 with a vanishing framing map, are unstable
    with witness None (their destabilizer is not a subobject).
    """
    lat, beta = pair.lattice, pair.beta_image
    delta = RatPoly.zero() if delta is None else delta
    sign = eventual_compare(delta, RatPoly.zero())
    if sign == LESS or (sign == GREATER and beta is None):
        return False, None
    if sign == EQUAL:
        witness = destabilizing_member(lat)
        return witness is None, witness

    # p_delta(G) = (P(G) + [beta <= G] * delta) / rank(G): over the table's
    # N_G[d], its numerator is E * N_G + [beta <= G] * D * (E * delta), with
    # D the lattice's denominator and E the lcm of delta's, on the exponents
    # from min(0, lowest of delta) to max(d, deg delta), lowest first.
    terms = delta._coeffs
    low, high = min(0, *terms), max(lat.dim, *terms)
    scale = lcm(*(c.denominator for c in terms.values()))
    twist = [int(lat.denominator * scale * terms.get(e, 0)) for e in range(low, high + 1)]
    pad_low, pad_high = (0,) * -low, (0,) * (high - lat.dim)
    numerators = {}
    for member_id, row in lat.numerators.items():
        row = pad_low + tuple(scale * v for v in row) + pad_high
        if lat.leq(beta, member_id):
            row = tuple(map(add, row, twist))
        numerators[member_id] = row
    witness = destabilizing_member(lat, numerators)
    return witness is None, witness


@dataclass(frozen=True)
class WeightMaximum:
    """Positive lexicographic maximizer of the invariant over a chain's
    closed weight cone.

    chain holds the member ids of the steps, and may be coarser than the
    queried chain (boundary maximizers merge steps); weights are exact
    rationals, unique up to positive scale; exponent is where the descent
    stopped and b = sum rank * weight^2 is the norm, which are the leading
    exponent and coefficient of value's numerator; pinned is the index of
    the step the pair constraint holds at 0, else None.  value, positive,
    is nu at those weights, every exponent included, computed on first use
    from steps (weight and contribution of each step of the descent's
    chain, a refinement of chain) and kept; being derived, steps takes no
    part in equality.
    """

    chain: tuple[str, ...]
    weights: tuple[Fraction, ...]
    exponent: int
    b: Fraction
    pinned: int | None
    steps: tuple[tuple[Fraction, RatPoly], ...] = field(repr=False, compare=False)

    @cached_property
    def value(self) -> NuValue:
        fit, contribs = zip(*self.steps)
        return NuValue(dot(fit, contribs), self.b)


def _isotonic(units: list[Fraction], ranks: list[Fraction]) -> list[Fraction]:
    """Weighted isotonic regression of units[i] / ranks[i], weights ranks[i],
    by pool-adjacent-violators pooling on >=; the fitted value per index."""
    blocks: list[tuple[Fraction, Fraction, int]] = []  # unit sum, rank sum, size
    for u, r in zip(units, ranks):
        size = 1
        while blocks and blocks[-1][0] * r >= u * blocks[-1][1]:
            pu, pr, ps = blocks.pop()
            u, r, size = u + pu, r + pr, size + ps
        blocks.append((u, r, size))
    return [u / r for u, r, size in blocks for _ in range(size)]


def _merge(values: Sequence, keep: list[int]) -> list:
    """Sums of values over the consecutive blocks beginning at keep."""
    ends = keep[1:] + [len(values)]
    return [sum(values[a + 1:b], values[a]) for a, b in zip(keep, ends)]


@dataclass(frozen=True)
class _TabledChain(UnweightedFiltration):
    """A chain of pair_canonical's walk together with its steps'
    contributions at the query's delta, read from the query's step table."""

    contribs: tuple[RatPoly, ...] = field(compare=False, repr=False)


def maximize_weights(
    chain: UnweightedFiltration,
    pair: PairObject | None,
    delta: RatPoly | None,
) -> WeightMaximum | None:
    """Exact lexicographic maximizer of the invariant over the weight cone,
    or None when no weighting is positive.

    The cone is {w_0 <= ... <= w_q}, intersected with {w_j >= 0} when the
    pair has a nonzero framing map and j is the deepest chain index whose
    member contains the marked image.  The descent of the module docstring
    runs over the exponents of the chain's contributions, highest first;
    each zero maximum merges steps (ids, contributions and ranks together).
    The contributions are the chain's own, or, for a chain of
    pair_canonical's walk, its query's.
    """
    ids = chain.chain
    contribs = chain.contribs if isinstance(chain, _TabledChain) else contributions(chain, delta)
    ranks = [g.rank for g in chain.gradeds]
    beta = pair.beta_image if pair is not None else None
    p = pair_pivot_index(ids, chain.lattice, beta) if beta is not None else None
    pinned = False
    for exponent in sorted({e for c in contribs for e, _ in c.items()}, reverse=True):
        units = [c.coeff(exponent) for c in contribs]
        fit = _isotonic(units, ranks)
        if p is not None and (pinned or fit[p] < 0):
            pinned, zero = True, Fraction(0)
            fit = (
                [min(w, zero) for w in _isotonic(units[:p], ranks[:p])]
                + [zero]
                + [max(w, zero) for w in _isotonic(units[p + 1:], ranks[p + 1:])]
            )
        if any(fit):
            keep = [i for i in range(len(fit)) if i == 0 or fit[i] != fit[i - 1]]
            return WeightMaximum(
                chain=tuple(ids[i] for i in keep),
                weights=tuple(fit[i] for i in keep),
                exponent=exponent,
                b=sum(r * w * w for w, r in zip(fit, ranks)),
                pinned=bisect_right(keep, p) - 1 if pinned else None,
                steps=tuple(zip(fit, contribs)),
            )
        # the maximum here is 0: keep the increments whose coefficient
        # (prefix sum at or above the pivot, suffix sum below it) is 0.  A
        # negative total has already pinned the pivot: w = -1 scores
        # -total > 0, so the unconstrained fit was nonzero and broke w_pivot >= 0.
        prefix = list(accumulate(units))
        keep = [0] + [
            i for i in range(1, len(units))
            if prefix[i - 1] == (0 if p is not None and i <= p else prefix[-1])
        ]
        if pinned and len(keep) == 1:  # the face is {0}
            return None
        p = None if p is None else bisect_right(keep, p) - 1
        ids, contribs, ranks = [ids[i] for i in keep], _merge(contribs, keep), _merge(ranks, keep)
    return None


@dataclass(frozen=True)
class PairCanonicalResult:
    """Canonical destabilizing filtration of an unstable pair."""

    filtration: WeightedFiltration
    value: NuValue
    source: str  # always "closed-form"


def pair_canonical(pair: PairObject, delta: RatPoly | None) -> PairCanonicalResult:
    """Canonical maximizer of the pair invariant.

    A pair that pair_semistable finds semistable raises Semistable at once:
    by the summation-by-parts identity no weighting is positive.  Otherwise
    every saturated chain's lexicographic maximizer is computed in closed
    form, on contributions computed once per distinct step (sub, sup) of
    the walk, and the candidates are ranked by their full invariant, read off
    its leading term (exponent, b) unless two chains tie on it, ties going
    to the shorter chain, then the smaller ids, then the smaller weights;
    only the winner's filtration is built.
    """
    lat = pair.lattice
    best: WeightMaximum | None = None
    best_key: tuple | None = None
    if not pair_semistable(pair, delta)[0]:
        tau = ambient_tau(lat, delta)
        table: dict[tuple[str, str], RatPoly] = {}  # (sub, sup) -> its contribution

        def contribution(step: tuple[str, str], graded) -> RatPoly:
            if step not in table:
                table[step] = step_contribution(graded, tau)
            return table[step]

        for chain in saturated_chains(lat):
            steps = zip(chain.chain[1:] + (lat.zero_id,), chain.chain)
            contribs = tuple(map(contribution, steps, chain.gradeds))
            wm = maximize_weights(_TabledChain(lat, chain.chain, chain.gradeds, contribs), pair, delta)
            if wm is None:
                continue
            if best is None:
                order = GREATER
            else:  # nu leads with sqrt(b) n^exponent: the full values only settle a tie
                lead, best_lead = (wm.exponent, wm.b), (best.exponent, best.b)
                order = (lead > best_lead) - (lead < best_lead) or nu_compare(wm.value, best.value)
            if order == LESS:
                continue
            key = (len(wm.chain), wm.chain, primitive_weights(wm.weights))
            if order == GREATER or key < best_key:
                best, best_key = wm, key
    if best is None:
        raise Semistable("no destabilizing filtration exists for this pair")
    filt = make_filtration(lat, best.chain, primitive_weights(best.weights), pair)
    return PairCanonicalResult(filtration=filt, value=nu_delta(filt, delta), source="closed-form")
