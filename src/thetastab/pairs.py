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

The walk.  maximize_weights (see invariant) maximizes nu over one chain's
weight cone, given its ids, its steps' graded ranks and contributions,
and its pivot.  Refining a chain enlarges its cone (the inserted steps
repeat the weight of the step they split, the pivot's included), so every
chain's maximizer is that of its saturated refinements, and
pair_canonical visits saturated chains only.  Saturated chains share
their steps (k! chains over k * 2^(k-1) steps on the sub-sum lattice of k
summands), so each query looks every chain's ids up in one step table
(see invariant) and hands the entries to maximize_weights with the
chain's pivot, pair_pivot_index of the marked image (None when the
framing map vanishes); the maximizer sees neither delta nor the pair.
pair_canonical ranks the chains on their maximizers' values (nu is
scale-invariant, and a merged step contributes its block's sum): first on
the leading term, that is on (e*, b), and on the full value only between
chains that tie on both; it builds the winner alone and values it on the
same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import add

from .canonical import destabilizing_member
from .errors import Semistable
from .invariant import WeightMaximum, maximize_weights, nu_on, step_table
from .lattice import (
    ObjectClass,
    PairObject,
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
    # that occur (0..d and delta's), lowest first: all rows vanish elsewhere.
    terms = delta._coeffs
    exponents = sorted({*range(lat.dim + 1), *terms})
    scale = lcm(*(c.denominator for c in terms.values()))
    twist = [int(lat.denominator * scale * terms.get(e, 0)) for e in exponents]
    numerators = {}
    twisted = {beta, *lat.above(beta)}
    for member_id, row in lat.numerators.items():
        row = tuple(scale * row[e] if 0 <= e <= lat.dim else 0 for e in exponents)
        if member_id in twisted:
            row = tuple(map(add, row, twist))
        numerators[member_id] = row
    witness = destabilizing_member(lat, numerators)
    return witness is None, witness


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
    form, on the query's step table, and the candidates are ranked by
    their full invariant, read off its leading term (exponent, b) unless
    two chains tie on it, ties going to the shorter chain, then the smaller
    ids, then the smaller weights; only the winner's filtration is built,
    and its nu_delta is read from the same table.
    """
    lat = pair.lattice
    best: WeightMaximum | None = None
    best_key: tuple | None = None
    if not pair_semistable(pair, delta)[0]:
        steps_of = step_table(lat, delta)
        beta = pair.beta_image
        for chain in saturated_chains(lat):
            ids = chain.chain
            pivot = None if beta is None else pair_pivot_index(ids, lat, beta)
            wm = maximize_weights(ids, *steps_of(ids), pivot)
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
    return PairCanonicalResult(filtration=filt, value=nu_on(steps_of, filt), source="closed-form")
