"""Independent reference for pair semistability, kept only for tests.

pair_semistable is the regime-by-regime verdict that
thetastab.pairs.pair_semistable replaced with one Gieseker test on the
twisted reduced polynomial: delta = 0 routed to plain Gieseker, delta < 0
always unstable, deg(delta) >= d decided by the marked image alone, and
the Le Potier loop over members for 0 < delta of degree <= d-1.
is_semistable is the Gieseker member search as it stood before that
search was shared, so the reference has no code path in common with it.
"""

from __future__ import annotations

from fractions import Fraction

from thetastab import (
    EQUAL,
    GREATER,
    LESS,
    ObjectClass,
    PairObject,
    RatPoly,
    SubobjectLattice,
    eventual_compare,
)


def is_semistable(lat: SubobjectLattice) -> tuple[bool, ObjectClass | None]:
    """Gieseker test: no nonzero proper member may beat the ambient object.

    On failure returns a witness of maximal reduced polynomial (ties broken
    by rank, then id, for determinism).
    """
    top_reduced = lat.top.stats.reduced
    witness: ObjectClass | None = None
    for member_id in lat.proper_nonzero_ids():
        member = lat.member(member_id)
        if eventual_compare(member.stats.reduced, top_reduced) != GREATER:
            continue
        if witness is None:
            witness = member
            continue
        cmp = eventual_compare(member.stats.reduced, witness.stats.reduced)
        if cmp == GREATER or (
            cmp == 0
            and (member.stats.rank, member.id) > (witness.stats.rank, witness.id)
        ):
            witness = member
    return witness is None, witness


def pair_semistable(
    pair: PairObject, delta: RatPoly | None
) -> tuple[bool, ObjectClass | None]:
    """Semistability verdict for the pair at the given delta, with witness.

    The witness, when present, is a violating subobject; regimes whose
    destabilizer is not a subobject (delta < 0, or a vanishing framing map)
    report witness None.
    """
    lat = pair.lattice
    delta = RatPoly.zero() if delta is None else delta
    sign = eventual_compare(delta, RatPoly.zero())
    if sign == EQUAL:
        return is_semistable(lat)
    if sign == LESS:
        return False, None
    if delta.degree() >= lat.dim:
        # big-degree regime: cokernel must vanish in dimension d
        if pair.beta_image == lat.top_id:
            return True, None
        witness = lat.member(pair.beta_image) if pair.beta_image is not None else None
        return False, witness

    if pair.beta_image is None:
        return False, None
    top = lat.top.stats
    threshold = top.reduced + delta * (Fraction(1) / top.rank)
    worst: ObjectClass | None = None
    worst_margin: RatPoly | None = None
    for member_id in lat.proper_nonzero_ids():
        member = lat.member(member_id)
        bound = member.stats.reduced
        if lat.leq(pair.beta_image, member_id):
            bound = bound + delta * (Fraction(1) / member.stats.rank)
        margin = bound - threshold
        if eventual_compare(margin, RatPoly.zero()) != GREATER:
            continue
        if worst is None or eventual_compare(margin, worst_margin) == GREATER or (
            margin == worst_margin
            and (member.stats.rank, member.id) > (worst.stats.rank, worst.id)
        ):
            worst, worst_margin = member, margin
    return worst is None, worst
