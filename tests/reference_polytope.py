"""Polytope containment, kept only for tests.

polytope_subset, formerly thetastab.invariant.polytope_subset, is the
partial order the slope-polytope tests compare hulls by.
"""

from __future__ import annotations

from thetastab import Polytope2


def polytope_subset(p: Polytope2, q: Polytope2) -> bool:
    """True iff every vertex of p lies in q (exact halfplane tests)."""
    return all(q.contains(v) for v in p.vertices)
