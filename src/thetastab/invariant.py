"""Numerical invariants of weighted filtrations.

Everything here is read off one step helper, step_contribution(gr, tau):
the per-unit-weight contribution of a step with graded piece gr,

    c = (reduced(gr) - reduced(F)) * rank(gr) - delta * rank(gr) / rank(F)
      = P(gr) - rank(gr) * tau,   tau = reduced(F) + delta / rank(F),

with tau from ambient_tau.  contributions(chain, delta) applies it to each
step of a chain; pair_canonical applies it once per distinct step of its
walk.  The invariant of weights w is nu = <w, c> / sqrt(b) with
b = sum rank(gr_m) * w_m^2, kept exact as a NuValue; the oracle's scores
and the pair maximizer's values are read from the same c.

The weight of the determinant family at the associated graded, <w, c> at
delta = 0, is computed a second, independent way (the subobject form):
the sum over jump intervals of
(w_i - w_{i-1}) * (reduced(G_(i)) - reduced(F)) * rank(G_(i)).  The two
agree by summation by parts; the identity is exercised heavily in the
test suite.

The trivial filtration with weight zero has b = 0; its nu is defined to be
the zero NuValue by convention (semistable objects maximize at zero), while
b_norm itself reports the degeneracy.

Slope polytopes are handled with exact rational orientation predicates;
no epsilon geometry anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .errors import BadIndex, DegenerateFiltration
from .lattice import SubobjectLattice, UnweightedFiltration, WeightedFiltration
from .ratpoly import HilbertStats, NuValue, RatPoly


def ambient_tau(lat: SubobjectLattice, delta: RatPoly | None = None) -> RatPoly:
    """tau = reduced(F) + delta / rank(F), the twisted reduced polynomial of
    the ambient object."""
    top = lat.top.stats
    return top.reduced if delta is None else top.reduced + delta * (1 / top.rank)


def step_contribution(graded: HilbertStats, tau: RatPoly) -> RatPoly:
    """Per-unit-weight contribution of one step with graded piece gr:
    P(gr) - rank(gr) * tau."""
    return graded.poly - tau * graded.rank


def contributions(
    chain: UnweightedFiltration, delta: RatPoly | None = None
) -> tuple[RatPoly, ...]:
    """Per-unit-weight contribution of each step of the chain, top first:
    P(gr_m) - rank(gr_m) * tau with tau = reduced(F) + delta / rank(F)."""
    tau = ambient_tau(chain.lattice, delta)
    return tuple(step_contribution(g, tau) for g in chain.gradeds)


def dot(weights: Sequence[int | Fraction], contribs: Sequence[RatPoly]) -> RatPoly:
    """The numerator <w, c> of the invariant."""
    total = RatPoly.zero()
    for w, c in zip(weights, contribs):
        if w:
            total = total + c * w
    return total


def weight_graded(f: WeightedFiltration) -> RatPoly:
    """Determinant weight via the associated graded pieces."""
    return dot(f.weights, contributions(f))


def weight_subobject(f: WeightedFiltration) -> RatPoly:
    """Determinant weight via the subobjects of the Rees family.

    Each member G_(i), i >= 1, occupies the jump interval (w_{i-1}, w_i]
    and contributes once per integer in it.
    """
    top = f.lattice.top.stats
    total = RatPoly.zero()
    for i in range(1, len(f.chain)):
        member = f.lattice.member(f.chain[i]).stats
        gap = f.weights[i] - f.weights[i - 1]
        total = total + (member.reduced - top.reduced) * (gap * member.rank)
    return total


def b_norm(f: WeightedFiltration) -> Fraction:
    """Quadratic norm sum rank(gr) * w^2; positive unless fully trivial."""
    value = sum((g.rank * w * w for w, g in zip(f.weights, f.gradeds)), Fraction(0))
    if value == 0:
        raise DegenerateFiltration("trivial filtration with weight 0 has no norm")
    return value


def nu(f: WeightedFiltration) -> NuValue:
    """The invariant weight/sqrt(b); zero by convention when degenerate."""
    return nu_delta(f, None)


def nu_delta(f: WeightedFiltration, delta: RatPoly | None) -> NuValue:
    """The pair invariant: weight twisted by -delta/rank(F) per unit weight.

    With delta = 0 (or None) this is exactly nu(f).  Laurent terms in delta
    are allowed; the result is then a Laurent NuValue.
    """
    try:
        b = b_norm(f)
    except DegenerateFiltration:
        return NuValue.zero()
    return NuValue(dot(f.weights, contributions(f, delta)), b)


# -- exact 2D hull geometry ------------------------------------------------

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: Iterable[Point]) -> tuple[Point, ...]:
    pts = sorted(set(points))
    if len(pts) <= 1:
        return tuple(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear collapse to a segment
        return (pts[0], pts[-1])
    return tuple(hull)


@dataclass(frozen=True)
class Polytope2:
    """Canonical convex hull in Q^2: CCW from the lexicographic minimum,
    no collinear interior vertices.  Degenerate hulls keep 1 or 2 vertices.
    """

    vertices: tuple[Point, ...]

    @classmethod
    def hull(cls, points: Iterable[Point]) -> Polytope2:
        normalized = [(Fraction(x), Fraction(y)) for x, y in points]
        if not normalized:
            raise ValueError("hull of no points")
        return cls(_hull(normalized))

    def contains(self, point: Point) -> bool:
        pt = (Fraction(point[0]), Fraction(point[1]))
        vs = self.vertices
        if len(vs) == 1:
            return pt == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _cross(a, b, pt) != 0:
                return False
            return min(a, b) <= pt <= max(a, b)
        for k in range(len(vs)):
            if _cross(vs[k], vs[(k + 1) % len(vs)], pt) < 0:
                return False
        return True


def polytope(f: UnweightedFiltration, i: int) -> Polytope2:
    """Hull of the origin and (-a_i(G_(m)), rank(G_(m))) over chain members."""
    d = f.lattice.dim
    if not 0 <= i <= d - 1:
        raise BadIndex(f"slope index must satisfy 0 <= i <= {d - 1}, got {i}")
    points: list[Point] = [(Fraction(0), Fraction(0))]
    for member_id in f.chain:
        stats = f.lattice.member(member_id).stats
        points.append((-stats.poly.coeff(i) * factorial(i), stats.rank))
    return Polytope2.hull(points)


def polytope_subset(p: Polytope2, q: Polytope2) -> bool:
    """True iff every vertex of p lies in q (exact halfplane tests)."""
    return all(q.contains(v) for v in p.vertices)
