"""Semistability, Harder-Narasimhan data, and canonical destabilizations.

The greedy HN construction repeatedly picks, above the current member, the
member whose quotient maximizes (reduced polynomial, rank) lexicographically.
Like the semistability test, it compares reduced polynomials on the
lattice's integer table, never as Fractions.
A tie between incomparable members is reported as AmbiguousHN rather than
resolved silently: uniqueness of the HN filtration presumes closure under
sums, which a user lattice may lack.

The leading term filtration is the invariant's maximizer on the HN chain,
maximize_weights on the chain's step-table entries with no pivot (see
invariant).  Its descent stops at the
highest exponent of n where the graded reduced polynomials differ, the
filtration's index.  There the graded coefficients already increase
inward, so the fit is each one minus the ambient's: adjacent HN steps
with equal coefficients merge, and the weights are the primitive integers
proportional to the fit.

delete_step and convexify implement the weight-merging deletion lemma; both
live in the no-pair theory (a deletion can drive the marked image's weight
negative, which is exactly why canonical pair filtrations may be nonconvex).
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Mapping, Sequence

from .errors import AmbiguousHN, NegativeNu, ObjectSemistable, PreconditionFailed
from .invariant import CanonicalResult, maximize_weights, nu, step_table
from .lattice import (
    ObjectClass,
    SubobjectLattice,
    UnweightedFiltration,
    WeightedFiltration,
    make_chain,
    make_filtration,
    primitive_weights,
)
from .ratpoly import (
    EQUAL,
    GREATER,
    LESS,
    NuValue,
    eventual_compare,
    nu_compare,
    reduced_compare,
)


def destabilizing_member(
    lat: SubobjectLattice, numerators: Mapping[str, Sequence[int]]
) -> ObjectClass | None:
    """The proper nonzero member G whose numerator row most exceeds the
    ambient object's, each over N_G[d], a positive multiple of rank(G);
    ties broken by (rank, id), the larger winning; None when no member
    exceeds it.

    The rows are invariant.table_rows', all over one range of exponents,
    lowest first, compared by ratpoly.reduced_compare: the table's own at
    delta = 0, where the order is that of reduced polynomials, and
    pair_semistable's, twisted on the marked image's up-set, for p_delta.
    """
    table, d = lat.numerators, lat.dim
    witness: str | None = None
    # the numerator to beat: the ambient's, then the witness's
    best, best_rank = numerators[lat.top_id], table[lat.top_id][d]
    for member_id in lat.proper_nonzero_ids():
        num, rank = numerators[member_id], table[member_id][d]
        cmp = reduced_compare(num, rank, best, best_rank)
        if cmp == GREATER or (
            cmp == EQUAL and witness is not None and (rank, member_id) > (best_rank, witness)
        ):
            witness, best, best_rank = member_id, num, rank
    return None if witness is None else lat.member(witness)


def is_semistable(lat: SubobjectLattice) -> tuple[bool, ObjectClass | None]:
    """Gieseker test: no nonzero proper member may beat the ambient object's
    reduced polynomial; on failure the witness is destabilizing_member's,
    on the table's own rows (the delta = 0 rows)."""
    witness = destabilizing_member(lat, lat.numerators)
    return witness is None, witness


def hn_filtration(lat: SubobjectLattice) -> UnweightedFiltration:
    """Greedy HN construction with lexicographic (reduced, rank) selection.

    A quotient cand/current is compared through its integer numerators,
    the difference N_cand - N_current of two rows of the lattice's table,
    whose top entry is a positive multiple of its rank.

    The graded reduced polynomials of the returned chain strictly decrease
    outward, with no check needed: G_(m+1)/G_(m-1) was a candidate at the
    step that picked G_m, and it is the rank-weighted mediant of
    G_m/G_(m-1) and G_(m+1)/G_m.  Had the outer quotient not fallen
    strictly below the inner one, the mediant would have matched or beaten
    G_m/G_(m-1) with a larger rank, and G_(m+1) would have won that step.
    """
    table, d = lat.numerators, lat.dim
    picks: list[str] = []  # deepest first
    current = lat.zero_id
    while current != lat.top_id:
        below = table[current]
        best_id: str | None = None
        best: tuple[int, ...] = ()
        tied_incomparable: str | None = None
        for cand in lat.above(current):
            quotient = tuple(map(sub, table[cand], below))
            if best_id is None:
                best_id, best = cand, quotient
                continue
            cmp = reduced_compare(quotient, quotient[d], best, best[d])
            if cmp == GREATER or (cmp == EQUAL and quotient[d] > best[d]):
                best_id, best = cand, quotient
                tied_incomparable = None
            elif cmp == EQUAL and quotient[d] == best[d]:
                # comparable members cannot tie (ranks would differ)
                tied_incomparable = cand
        if tied_incomparable is not None:
            raise AmbiguousHN(
                f"incomparable members {best_id!r} and {tied_incomparable!r} tie "
                f"above {current!r}; lattice is not closed under sums"
            )
        picks.append(best_id)
        current = best_id
    return make_chain(lat, tuple(reversed(picks)))


def leading_term(hn: UnweightedFiltration) -> CanonicalResult:
    """maximize_weights on the HN chain's step-table entries, with no pivot:
    the coarser chain it lives on with its weights scaled to primitive
    integers, nu there, valued on the same table, and the exponent where
    its descent stopped (WeightMaximum.result)."""
    steps_of = step_table(hn.lattice)
    wm = maximize_weights(hn.chain, *steps_of(hn.chain), None)
    if wm is None:
        raise ObjectSemistable("trivial HN chain has no leading term filtration")
    return wm.result(hn.lattice, steps_of)


def canonical_filtration(lat: SubobjectLattice) -> WeightedFiltration:
    """Weighted leading-term filtration of an unstable object.

    On a lattice not closed under sums it can be one of two filtrations
    with equal nu: hn_filtration raises AmbiguousHN only for a tie at one
    of its own greedy steps, so when two incomparable members share one
    class and only one lies on the HN chain, this returns that one's
    filtration silently, and brute_force_max, breaking the tie on ids,
    may name the other.
    """
    return leading_term(hn_filtration(lat)).filtration


def delete_step(f: WeightedFiltration, i: int) -> WeightedFiltration:
    """Remove G_(i+1) and reweight per the deletion lemma; nu never drops.

    New weights are primitive integers proportional to the lemma's: R*w_l
    away from the merge, R_i*w_i + R_{i+1}*w_{i+1} at it, with R_i, R_{i+1}
    the merged graded ranks and R their sum (formal ranks may be rational;
    nu is scale invariant).
    """
    if not 0 <= i < len(f.weights) - 1:
        raise PreconditionFailed(f"no step pair at index {i}")
    if nu_compare(nu(f), NuValue.zero()) == LESS:
        raise PreconditionFailed("deletion lemma requires nu(f) >= 0")
    if eventual_compare(f.gradeds[i + 1].reduced, f.gradeds[i].reduced) == GREATER:
        raise PreconditionFailed(
            f"graded piece {i + 1} strictly dominates piece {i}; lemma does not apply"
        )
    r_i = f.gradeds[i].rank
    r_next = f.gradeds[i + 1].rank
    total = r_i + r_next
    chain = f.chain[: i + 1] + f.chain[i + 2:]
    merged_weight = r_i * f.weights[i] + r_next * f.weights[i + 1]
    raw: list[Fraction] = []
    for pos in range(len(chain)):
        original = pos if pos <= i else pos + 1
        raw.append(merged_weight if pos == i else total * f.weights[original])
    return make_filtration(f.lattice, chain, primitive_weights(raw))


def violating_indices(f: WeightedFiltration) -> list[int]:
    """Steps where convexity fails strictly: deeper reduced poly is smaller."""
    return [
        i
        for i in range(len(f.weights) - 1)
        if eventual_compare(f.gradeds[i + 1].reduced, f.gradeds[i].reduced) == LESS
    ]


def convexify(f: WeightedFiltration) -> WeightedFiltration:
    """Delete at the deepest violating step until convex; nu non-decreasing."""
    if nu_compare(nu(f), NuValue.zero()) == LESS:
        raise NegativeNu("convexification requires nu(f) >= 0")
    current = f
    for _ in range(len(f.weights)):
        bad = violating_indices(current)
        if not bad:
            return current
        current = delete_step(current, bad[-1])
    return current
