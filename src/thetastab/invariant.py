"""Numerical invariants of weighted filtrations.

Everything here is read off one step helper, step_contribution(gr, tau):
the per-unit-weight contribution of a step with graded piece gr,

    c = (reduced(gr) - reduced(F)) * rank(gr) - delta * rank(gr) / rank(F)
      = P(gr) - rank(gr) * tau,   tau = reduced(F) + delta / rank(F),

for a step (sub, sup) of a chain, with gr = sup/sub.  A query's step
table, step_table(lat, delta), makes tau once and one entry (N_gr[d], c)
per distinct step on first use; the searches read a chain's steps from it
by the chain's ids alone.  N_gr[d] = N_sup[d] - N_sub[d] is the rank of
gr on the lattice's integer table, rank(gr) / s for s = lat.rank_scale.
The invariant of weights w is nu = <w, c> / sqrt(b) with
b = sum rank(gr_m) * w_m^2, kept exact as a NuValue by nu_delta and
b_norm, on the gradeds; the oracle's scores and the maximizer's values,
read from the table, are nu * sqrt(s), in the same order.

The weight of the determinant family at the associated graded, <w, c> at
delta = 0, is computed a second, independent way (the subobject form):
the sum over jump intervals of
(w_i - w_{i-1}) * (reduced(G_(i)) - reduced(F)) * rank(G_(i)).  The two
agree by summation by parts; the identity is exercised heavily in the
test suite.

The trivial filtration with weight zero has b = 0; its nu is defined to be
the zero NuValue by convention (semistable objects maximize at zero), while
b_norm itself reports the degeneracy.

The maximizer.  maximize_weights(ids, ranks, contribs, pivot) takes the
numbers it maximizes: a chain's ids and its step-table entries, and the
pivot, the chain index of the deepest member containing a pair's marked
image (lattice.pair_pivot_index), or None without a framing map.  It
never reads a chain, delta or the pair.

nu is compared eventually, so on one chain it is maximized
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

Slope polytopes are handled with exact rational orientation predicates;
no epsilon geometry anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import factorial
from typing import Callable, Iterable, Sequence

from .errors import BadIndex, DegenerateFiltration
from .lattice import SubobjectLattice, UnweightedFiltration, WeightedFiltration, quotient_poly
from .ratpoly import HilbertStats, NuValue, RatPoly


def step_contribution(graded: HilbertStats, tau: RatPoly) -> RatPoly:
    """Per-unit-weight contribution of one step with graded piece gr:
    P(gr) - rank(gr) * tau."""
    return graded.poly - tau * graded.rank


def step_table(
    lat: SubobjectLattice, delta: RatPoly | None = None
) -> Callable[[tuple[str, ...]], tuple[tuple[int, ...], tuple[RatPoly, ...]]]:
    """The map from a chain's ids, top first, to its steps' ranks and
    contributions: tau once, and each distinct step's entry (N_gr[d],
    contribution) once, on first use, kept as long as the map is."""
    top = lat.top.stats
    tau = top.reduced if delta is None else top.reduced + delta * (1 / top.rank)
    rows, d = lat.numerators, lat.dim
    table: dict[tuple[str, str], tuple[int, RatPoly]] = {}  # (sub, sup) -> its entry

    def steps_of(ids: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[RatPoly, ...]]:
        steps = tuple(zip(ids[1:] + (lat.zero_id,), ids))
        for sub, sup in steps:
            if (sub, sup) not in table:
                graded = quotient_poly(lat, sub, sup)
                table[sub, sup] = rows[sup][d] - rows[sub][d], step_contribution(graded, tau)
        return tuple(zip(*map(table.__getitem__, steps)))

    return steps_of


def contributions(
    chain: UnweightedFiltration, delta: RatPoly | None = None
) -> tuple[RatPoly, ...]:
    """Per-unit-weight contribution of each step of the chain, top first:
    P(gr_m) - rank(gr_m) * tau, the step table applied to one chain."""
    return step_table(chain.lattice, delta)(chain.chain)[1]


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


# -- the maximizer ---------------------------------------------------------

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
    part in equality.  On a step table's ranks, weights, b and value are
    s, s and sqrt(s) times those on the graded ranks, s = lat.rank_scale.
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


def _isotonic(units: list[Fraction], ranks: Sequence[int | Fraction]) -> list[Fraction]:
    """Weighted isotonic regression of units[i] / ranks[i], weights ranks[i],
    by pool-adjacent-violators pooling on >=; the fitted value per index."""
    blocks: list[tuple[Fraction, int | Fraction, int]] = []  # unit sum, rank sum, size
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


def maximize_weights(
    ids: Sequence[str],
    ranks: Sequence[int | Fraction],
    contribs: Sequence[RatPoly],
    pivot: int | None,
) -> WeightMaximum | None:
    """Exact lexicographic maximizer of the invariant over the weight cone,
    or None when no weighting is positive.

    ids are the chain's members, top first, and ranks and contribs its
    steps' ranks, on any one positive scale, and contributions (a step
    table's entries for those ids); pivot is the chain index the pair
    constraint holds at, or None without one.  The cone is {w_0 <= ... <= w_q},
    intersected with {w_pivot >= 0}.  The descent of the module docstring
    runs over the exponents of the contributions, highest first; each zero
    maximum merges steps (ids, contributions and ranks together).
    """
    pinned = False
    for exponent in sorted({e for c in contribs for e, _ in c.items()}, reverse=True):
        units = [c.coeff(exponent) for c in contribs]
        fit = _isotonic(units, ranks)
        if pivot is not None and (pinned or fit[pivot] < 0):
            pinned, zero = True, Fraction(0)
            fit = (
                [min(w, zero) for w in _isotonic(units[:pivot], ranks[:pivot])]
                + [zero]
                + [max(w, zero) for w in _isotonic(units[pivot + 1:], ranks[pivot + 1:])]
            )
        if any(fit):
            keep = [i for i in range(len(fit)) if i == 0 or fit[i] != fit[i - 1]]
            return WeightMaximum(
                chain=tuple(ids[i] for i in keep),
                weights=tuple(fit[i] for i in keep),
                exponent=exponent,
                b=sum(r * w * w for w, r in zip(fit, ranks)),
                pinned=bisect_right(keep, pivot) - 1 if pinned else None,
                steps=tuple(zip(fit, contribs)),
            )
        # the maximum here is 0: keep the increments whose coefficient
        # (prefix sum at or above the pivot, suffix sum below it) is 0.  A
        # negative total has already pinned the pivot: w = -1 scores
        # -total > 0, so the unconstrained fit was nonzero and broke w_pivot >= 0.
        prefix = list(accumulate(units))
        keep = [0] + [
            i for i in range(1, len(units))
            if prefix[i - 1] == (0 if pivot is not None and i <= pivot else prefix[-1])
        ]
        if pinned and len(keep) == 1:  # the face is {0}
            return None
        pivot = None if pivot is None else bisect_right(keep, pivot) - 1
        ids, contribs, ranks = [ids[i] for i in keep], _merge(contribs, keep), _merge(ranks, keep)
    return None


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
