"""Polytope containment, kept only for tests.

contains, formerly the method Polytope2.contains, tests a point against a
hull with exact orientation predicates; polytope_subset, formerly
thetastab.invariant.polytope_subset, is the partial order the
slope-polytope tests compare hulls by.
"""

from __future__ import annotations

from fractions import Fraction

from thetastab import Polytope2

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def contains(hull: Polytope2, point) -> bool:
    """True iff the point lies in the hull (its CCW vertices, or the
    segment or point of a degenerate hull)."""
    pt = (Fraction(point[0]), Fraction(point[1]))
    vs = hull.vertices
    if len(vs) == 1:
        return pt == vs[0]
    if len(vs) == 2:
        a, b = vs
        return _cross(a, b, pt) == 0 and min(a, b) <= pt <= max(a, b)
    return all(_cross(vs[k], vs[(k + 1) % len(vs)], pt) >= 0 for k in range(len(vs)))


def polytope_subset(p: Polytope2, q: Polytope2) -> bool:
    """True iff every vertex of p lies in q (exact halfplane tests)."""
    return all(contains(q, v) for v in p.vertices)
