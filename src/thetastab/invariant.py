"""Numerical invariants of weighted filtrations.

Everything here is read off one value per member, a(0) = 0 and
a(G) = P(G) - rank(G) * tau for tau = reduced(F) + delta / rank(F).  P and
rank add up along a chain, so a step (sub, sup) with graded piece
gr = sup/sub contributes, per unit weight, with no quotient formed,

    c = (reduced(gr) - reduced(F)) * rank(gr) - delta * rank(gr) / rank(F)
      = P(gr) - rank(gr) * tau = a(sup) - a(sub).

delta meets the lattice's integer table N (see lattice) in one place,
table_rows(lat, delta, twisted): over the exponents 0..d and delta's, with
E the lcm of delta's denominators and D the table's, it lays out the twist
row D * E * delta and each member's row R_G = E * N_G, the twist added for
the members in twisted.  A query's step table, step_table(lat, delta),
makes each distinct step's entry once, on first use, from two such rows:
with dR = R_sup - R_sub, the rank N_sup[d] - N_sub[d] = dR[d] / E and

    c = (R_F[d] * dR - dR[d] * (R_F + twist)) / (D * E * R_F[d]),

one Fraction per nonzero coefficient.  It reads no member statistics and
does no RatPoly arithmetic; the searches read a chain's steps from it by
the chain's ids alone.  pair_semistable reads the same rows, twisted on
the marked image's up-set: its verdict is a sign test on the margins
a(G) + [beta <= G] * delta of these values.
N_gr[d] = N_sup[d] - N_sub[d] is the rank of gr on the lattice's integer
table, rank(gr) / s for s = lat.rank_scale.  The invariant of weights w is
nu = <w, c> / sqrt(b) with b = sum rank(gr_m) * w_m^2.  Every search reads
<w, c> and the int sum N_gr[d] * w_m^2 = b / s from its table, so its
scores are nu * sqrt(s), in the same order; reported_nu is the one place
that multiplies the int back by s into the exact NuValue a caller
reports, and nu_on(steps_of, f) values a filtration that way on a given
table (nu_delta on a new one).

weight_subobject computes <w, c> at delta = 0, the weight of the
determinant family at the associated graded, the subobject way: the sum
over jump intervals of (w_i - w_{i-1}) * (reduced(G_(i)) - reduced(F)) *
rank(G_(i)), equal to weight_graded's by summation by parts.

The trivial filtration with weight zero has b = 0; its nu is defined to be
the zero NuValue by convention (semistable objects maximize at zero).

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

A search's winner becomes its answer once, by WeightMaximum.result: a
CanonicalResult holding the filtration with primitive integer weights,
its nu on the table the search read, and the exponent where the descent
stopped.  canonical.leading_term and pairs.pair_canonical both answer so.

Slope polytopes are handled with exact rational orientation predicates;
no epsilon geometry anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import factorial, lcm
from operator import add, sub
from typing import Callable, ClassVar, Collection, Iterable, Sequence

from .errors import BadIndex
from .lattice import (
    PairObject,
    SubobjectLattice,
    UnweightedFiltration,
    WeightedFiltration,
    make_filtration,
    primitive_weights,
)
from .ratpoly import NuValue, RatPoly


def table_rows(
    lat: SubobjectLattice, delta: RatPoly | None = None, twisted: Collection[str] = ()
) -> tuple[list[int], int, tuple[int, ...], dict[str, tuple[int, ...]]]:
    """delta laid over the lattice's integer table: the exponents 0..d and
    delta's, lowest first; E, the lcm of delta's denominators; the twist
    row D * E * delta; and each member's row E * N_G, the twist added for
    the members in twisted.  When E = 1 and delta lies in 0..d, the
    table's own tuples are handed on, and only twisted members take new
    rows (none at delta = 0)."""
    terms = {} if delta is None else delta._coeffs
    d, scale = lat.dim, lcm(*(c.denominator for c in terms.values()))
    exponents = sorted({*range(d + 1), *terms})
    twist = tuple(int(lat.denominator * scale * terms.get(e, 0)) for e in exponents)
    rows = lat.numerators
    if scale != 1 or len(exponents) > d + 1:  # pad with delta's exponents below 0 and above d
        low, high = (0,) * exponents.index(0), (0,) * (len(exponents) - exponents.index(d) - 1)
        rows = {m: low + tuple([scale * n for n in row]) + high for m, row in rows.items()}
    if terms and twisted:
        rows = {**rows, **{m: tuple(map(add, rows[m], twist)) for m in twisted}}
    return exponents, scale, twist, rows


def step_table(
    lat: SubobjectLattice, delta: RatPoly | None = None
) -> Callable[[tuple[str, ...]], tuple[tuple[int, ...], tuple[RatPoly, ...]]]:
    """The map from a chain's ids, top first, to its steps' ranks and
    contributions: each distinct step's entry, on first use, from the two
    rows of table_rows(lat, delta) (see the module docstring)."""
    exponents, scale, twist, rows = table_rows(lat, delta)
    top, at_d = rows[lat.top_id], exponents.index(lat.dim)
    lead = top[at_d]  # R_F[d] = E * N_F[d]
    den = lat.denominator * scale * lead  # D * E * R_F[d]
    base = tuple(map(add, top, twist))
    table: dict[tuple[str, str], tuple[int, RatPoly]] = {}  # (sub, sup) -> its entry

    def steps_of(ids: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[RatPoly, ...]]:
        steps = tuple(zip(ids[1:] + (lat.zero_id,), ids))
        for lower, upper in steps:
            if (lower, upper) not in table:
                diff = tuple(map(sub, rows[upper], rows[lower]))
                rank = diff[at_d]
                coeffs = (lead * g - rank * b for g, b in zip(diff, base))
                poly = RatPoly._of({e: Fraction(c, den) for e, c in zip(exponents, coeffs) if c})
                table[lower, upper] = rank // scale, poly
        return tuple(zip(*map(table.__getitem__, steps)))

    return steps_of


def dot(weights: Sequence[int | Fraction], contribs: Sequence[RatPoly]) -> RatPoly:
    """The numerator <w, c> of the invariant."""
    total = RatPoly.zero()
    for w, c in zip(weights, contribs):
        if w:
            total = total + c * w
    return total


def weight_graded(f: WeightedFiltration) -> RatPoly:
    """Determinant weight via the associated graded pieces."""
    return dot(f.weights, step_table(f.lattice)(f.chain)[1])


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


def reported_nu(lat: SubobjectLattice, numerator: RatPoly, b: int) -> NuValue:
    """The NuValue a caller reports for a value read from a step table:
    numerator <w, c> and the int b = sum N_gr[d] * w^2, brought to the
    graded ranks' scale (b times lat.rank_scale); zero when b is 0."""
    return NuValue(numerator, b * lat.rank_scale) if b else NuValue.zero()


def nu_on(steps_of: Callable, f: WeightedFiltration) -> NuValue:
    """nu_delta of f, read from steps_of = step_table(f.lattice, delta)."""
    ranks, contribs = steps_of(f.chain)
    b = sum(r * w * w for r, w in zip(ranks, f.weights))
    return reported_nu(f.lattice, dot(f.weights, contribs), b)


def nu(f: WeightedFiltration) -> NuValue:
    """The invariant weight/sqrt(b); zero by convention when degenerate."""
    return nu_delta(f, None)


def nu_delta(f: WeightedFiltration, delta: RatPoly | None) -> NuValue:
    """The pair invariant: weight twisted by -delta/rank(F) per unit weight,
    read from a new step table.

    With delta = 0 (or None) this is exactly nu(f).  Laurent terms in delta
    are allowed; the result is then a Laurent NuValue.
    """
    return nu_on(step_table(f.lattice, delta), f)


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
    s, s and sqrt(s) times those on the graded ranks, s as in the module
    docstring.
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

    def result(
        self, lat: SubobjectLattice, steps_of: Callable, pair: PairObject | None = None
    ) -> CanonicalResult:
        """The answer a search reports for this maximizer: its filtration
        on lat with primitive integer weights (pair's constraint checked),
        valued by nu_on on steps_of, the table the search read."""
        filt = make_filtration(lat, self.chain, primitive_weights(self.weights), pair)
        return CanonicalResult(filtration=filt, value=nu_on(steps_of, filt), index=self.exponent)


@dataclass(frozen=True)
class CanonicalResult:
    """The canonical destabilizing filtration a closed-form search found:
    the winner with primitive integer weights, its nu (nu_delta for a
    pair) read from the step table the search read, and index, the
    exponent of n where the maximizer's descent stopped."""

    filtration: WeightedFiltration
    value: NuValue
    index: int
    source: ClassVar[str] = "closed-form"


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
    for exponent in sorted({e for c in contribs for e in c._coeffs}, reverse=True):
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
