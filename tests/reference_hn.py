"""Independent reference for the greedy HN filtration, kept only for tests.

hn_filtration is thetastab.canonical.hn_filtration as it stood before the
greedy step compared integer numerators: each candidate quotient gets its
HilbertStats from quotient_poly, and reduced polynomials are compared as
RatPolys by eventual_compare.  It raises AmbiguousHN on the same
lattices, with the same messages, and InvalidHN, defined here, if its
chain fails the strict decrease that the library's greedy step
guarantees without a check.
"""

from __future__ import annotations

from fractions import Fraction

from thetastab import (
    GREATER,
    RatPoly,
    SubobjectLattice,
    UnweightedFiltration,
    eventual_compare,
    make_chain,
    quotient_poly,
)
from thetastab.errors import AmbiguousHN, StabilityError


class InvalidHN(StabilityError):
    """Greedy construction produced a chain violating strict decrease."""


def hn_filtration(lat: SubobjectLattice) -> UnweightedFiltration:
    """Greedy HN construction with lexicographic (reduced, rank) selection.

    The graded reduced polynomials of the returned chain strictly decrease
    outward.
    """
    picks: list[str] = []  # deepest first
    current = lat.zero_id
    while current != lat.top_id:
        best_id: str | None = None
        best_reduced: RatPoly | None = None
        best_rank: Fraction | None = None
        tied_incomparable: str | None = None
        for cand in lat.nonzero_ids():
            if not lat.lt(current, cand):
                continue
            stats = quotient_poly(lat, current, cand)
            if best_id is None:
                best_id, best_reduced, best_rank = cand, stats.reduced, stats.rank
                tied_incomparable = None
                continue
            cmp = eventual_compare(stats.reduced, best_reduced)
            if cmp == GREATER or (cmp == 0 and stats.rank > best_rank):
                best_id, best_reduced, best_rank = cand, stats.reduced, stats.rank
                tied_incomparable = None
            elif cmp == 0 and stats.rank == best_rank:
                # comparable members cannot tie (ranks would differ)
                tied_incomparable = cand
        if tied_incomparable is not None:
            raise AmbiguousHN(
                f"incomparable members {best_id!r} and {tied_incomparable!r} tie "
                f"above {current!r}; lattice is not closed under sums"
            )
        picks.append(best_id)
        current = best_id
    chain = make_chain(lat, tuple(reversed(picks)))
    for outer, deeper in zip(chain.gradeds, chain.gradeds[1:]):
        if eventual_compare(deeper.reduced, outer.reduced) != GREATER:
            raise InvalidHN(
                "greedy chain violates strict decrease of graded reduced polynomials"
            )
    return chain
