"""Independent reference for pair_canonical, kept only for tests.

pair_canonical and maximize_weights as they stood before pair_canonical
tabulated each step's contribution once per query: here every chain
recomputes tau and the contribution of each of its steps from its
quotients (reference_oracle.graded_steps), and the winner is valued the
same way.  The descent, the ranking on (exponent, b) with the full value
settling ties, and the tie-break on (length, ids, primitive weights) are
otherwise the same.  Its saturated chains are those of enumerate_chains
whose every step down to zero is a cover, read off lt (saturated_chains
here), so it shares no walk with pairs.saturated_chains, which it judges.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from thetastab import (
    GREATER,
    LESS,
    PairObject,
    RatPoly,
    enumerate_chains,
    make_filtration,
    nu_compare,
    pair_semistable,
    primitive_weights,
)
from thetastab.errors import Semistable
from thetastab.lattice import UnweightedFiltration, pair_pivot_index
from thetastab.pairs import WeightMaximum

from reference_oracle import ReferenceResult, graded_steps, reference_nu


def _isotonic(units: list[Fraction], ranks: list[Fraction]) -> list[Fraction]:
    blocks: list[tuple[Fraction, Fraction, int]] = []  # unit sum, rank sum, size
    for u, r in zip(units, ranks):
        size = 1
        while blocks and blocks[-1][0] * r >= u * blocks[-1][1]:
            pu, pr, ps = blocks.pop()
            u, r, size = u + pu, r + pr, size + ps
        blocks.append((u, r, size))
    return [u / r for u, r, size in blocks for _ in range(size)]


def _merge(values: Sequence, keep: list[int]) -> list:
    ends = keep[1:] + [len(values)]
    return [sum(values[a + 1:b], values[a]) for a, b in zip(keep, ends)]


def saturated_chains(lat) -> list[UnweightedFiltration]:
    """Saturated chains by their definition: the chains of enumerate_chains
    whose every step, down to the zero object, is a cover."""
    ids = lat.ids()
    below = {sup: {sub for sub in ids if lat.lt(sub, sup)} for sup in ids}
    covers = {(sub, sup) for sup in ids for sub in below[sup].difference(*map(below.get, below[sup]))}
    return [c for c in enumerate_chains(lat) if covers.issuperset(zip(c.chain[1:] + (lat.zero_id,), c.chain))]


def maximize_weights(
    chain: UnweightedFiltration,
    pair: PairObject | None,
    delta: RatPoly | None,
) -> WeightMaximum | None:
    """The lexicographic maximizer over the chain's weight cone, from the
    chain's own contributions."""
    ids = chain.chain
    ranks, contribs = graded_steps(chain.lattice, ids, delta)
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
        prefix = list(accumulate(units))
        keep = [0] + [
            i for i in range(1, len(units))
            if prefix[i - 1] == (0 if p is not None and i <= p else prefix[-1])
        ]
        if pinned and len(keep) == 1:
            return None
        p = None if p is None else bisect_right(keep, p) - 1
        ids, contribs, ranks = [ids[i] for i in keep], _merge(contribs, keep), _merge(ranks, keep)
    return None


def pair_canonical(pair: PairObject, delta: RatPoly | None) -> tuple[ReferenceResult, tuple]:
    """The canonical maximizer and the winner's tie-break key
    (length, ids, primitive weights), every chain on its own."""
    lat = pair.lattice
    best: WeightMaximum | None = None
    best_key: tuple | None = None
    if not pair_semistable(pair, delta)[0]:
        for chain in saturated_chains(lat):
            wm = maximize_weights(chain, pair, delta)
            if wm is None:
                continue
            if best is None:
                order = GREATER
            else:
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
    result = ReferenceResult(filtration=filt, value=reference_nu(filt, delta), index=best.exponent)
    return result, best_key
