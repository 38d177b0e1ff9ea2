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
The numerators the test compares over the table's N_G[d] are
invariant.table_rows' rows twisted on beta's up-set, the rows the step
table reads, and rank(G) * (p_delta(G) - tau) = a(G) + [beta <= G] * delta
is the margin of the invariant's member value a(G): the test asks
whether some proper member's margin is eventually positive.

The walk.  maximize_weights (see invariant) maximizes nu over one chain's
weight cone, given its ids, its steps' graded ranks and contributions,
and its pivot.  Refining a chain enlarges its cone (the inserted steps
repeat the weight of the step they split, the pivot's included), so every
chain's maximizer is that of its saturated refinements, and
pair_canonical visits saturated chains only: saturated_chains walks them
here, over the lattice's covers, as id tuples (the oracle, which judges
the answer, walks chains of its own), and saturated_chain_count counts
them in one pass over the covers without walking any, so the CLI can
refuse a walk past its budget before it starts.  Saturated chains share their
steps (k! chains over k * 2^(k-1) steps on the sub-sum lattice of k
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

from typing import Iterator

from .canonical import destabilizing_member
from .errors import Semistable
from .invariant import CanonicalResult, WeightMaximum, maximize_weights, step_table, table_rows
from .lattice import ObjectClass, PairObject, SubobjectLattice, pair_pivot_index, primitive_weights
from .ratpoly import GREATER, LESS, RatPoly, eventual_compare, nu_compare


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

    # p_delta(G) = (P(G) + [beta <= G] * delta) / rank(G): over the table's
    # N_G[d] its numerator is table_rows' E * N_G, plus the twist on beta's up-set
    twisted = {beta, *lat.above(beta)} if sign == GREATER else ()
    witness = destabilizing_member(lat, table_rows(lat, delta, twisted)[3])
    return witness is None, witness


def saturated_chains(lat: SubobjectLattice) -> Iterator[tuple[str, ...]]:
    """The id tuples of the chains top > c_1 > ... whose every step, down
    to the zero object, is a cover, in lexicographic order: a depth-first
    walk over lat.covers on an explicit stack, so no chain is too deep,
    yielding each chain whose deepest member has no lower cover."""
    covers = lat.covers
    stack = [(lat.top_id,)]
    while stack:
        ids = stack.pop()
        below = covers[ids[-1]]
        if not below:
            yield ids
        stack.extend(ids + (sub,) for sub in reversed(below))


def saturated_chain_count(lat: SubobjectLattice) -> int:
    """The number of chains saturated_chains walks, in one pass over
    lat.covers in rank order, walking none: paths[m] counts the chains of
    covers from the top down to m, and a chain ends at a member with no
    lower cover, as in the walk."""
    rows, d, covers = lat.numerators, lat.dim, lat.covers
    paths = dict.fromkeys(lat.nonzero_ids(), 0)
    paths[lat.top_id] = 1
    total = 0
    for sup in sorted(paths, key=lambda m: rows[m][d], reverse=True):  # above before below
        for sub in covers[sup]:
            paths[sub] += paths[sup]
        if not covers[sup]:
            total += paths[sup]
    return total


def pair_canonical(pair: PairObject, delta: RatPoly | None) -> CanonicalResult:
    """Canonical maximizer of the pair invariant.

    A pair that pair_semistable finds semistable raises Semistable at once:
    by the summation-by-parts identity no weighting is positive.  Otherwise
    every saturated chain's lexicographic maximizer is computed in closed
    form, on the query's step table, and the candidates are ranked by
    their full invariant, read off its leading term (exponent, b) unless
    two chains tie on it, ties going to the shorter chain, then the smaller
    ids, then the smaller weights; only the winner's filtration is built,
    and its nu_delta is read from the same table (WeightMaximum.result).
    """
    lat = pair.lattice
    best: WeightMaximum | None = None
    best_key: tuple | None = None
    if not pair_semistable(pair, delta)[0]:
        steps_of = step_table(lat, delta)
        beta = pair.beta_image
        for ids in saturated_chains(lat):
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
    return best.result(lat, steps_of, pair)
