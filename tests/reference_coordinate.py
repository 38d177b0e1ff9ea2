"""The canonical pair answer on a coordinate lattice, from the twists alone.

A coordinate lattice is the full sub-sum lattice of line bundles
L_i = O(a_i) on P^d, each of rank 1.  A weighted filtration by sub-sums
gives each summand the weight w_i of the deepest member holding it, and
weights w give back the chain {i : w_i >= t}, one member per distinct
weight t, so the invariant is <w, c> / sqrt(sum w_i^2) with per-summand
contributions c_i = P(L_i) - tau, tau = (sum_i P(L_i) + delta) / k.

The marked image beta is a sub-sum, the set of its summands.  The pair
constraint asks for w_p >= 0 at the pivot p, the deepest member of the
chain that contains beta.  The member at level t contains beta exactly
when t <= w_i for every i in beta, so the deepest is the one at the
largest level t <= min_{i in beta} w_i, which is that minimum itself (it
is some w_i, hence a level).  The constraint is therefore
min_{i in beta} w_i >= 0, that is w_i >= 0 for each i in beta: the cone
of allowed weights is a product of half-lines {w_i >= 0}, i in beta, and
lines, i outside it.  Without a framing map every w is allowed.

One exponent of n at a time, highest first, the best weights are the
projection of x, x_i = c_i(e), onto that cone in the rank-weighted inner
product (every rank is 1 here): a product of half-lines and lines
projects factor by factor, so each x_i with i in beta is clipped at 0 on
its own, and every other x_i is kept.  When the projection is not zero,
it is the answer.  When it is zero, every unclipped x_i is 0 and each
x_i with i in beta is <= 0, so <w, x> = sum_{i in beta, x_i < 0} x_i w_i
vanishes on the cone exactly where w_i = 0 for each clipped summand
(x_i < 0): the lower exponents maximize over that face, where a clipped
summand stays pinned at 0.  A summand of beta with x_i = 0 is not
pinned.  A marked image that is one summand is the case of one
half-line.  Nothing from thetastab is imported.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Collection


def line_bundle(d: int, a: int) -> dict[int, Fraction]:
    """binomial(n + a + d, d) = prod_{j=1..d} (n + a + j) / d!, by exponent."""
    coeffs = [1]  # lowest exponent first
    for j in range(1, d + 1):
        coeffs = [(a + j) * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    return {e: Fraction(c, factorial(d)) for e, c in enumerate(coeffs) if c}


def pair_answer(
    twists: dict[str, int], d: int, delta: dict[int, Fraction], beta: Collection[str] | None
) -> tuple[tuple[frozenset[str], ...], tuple[int, ...]] | None:
    """The canonical filtration of the pair (the sum of O(twists[i]) on P^d,
    marked image the sub-sum of the summands in beta, or None) at delta,
    as its chain of summand sets, top first, and primitive integer
    weights; None when no weighting is positive (the pair is semistable)."""
    polys = {i: line_bundle(d, a) for i, a in twists.items()}
    exponents = sorted({*delta, *(e for p in polys.values() for e in p)}, reverse=True)
    pinned: set[str] = set()
    for e in exponents:
        tau = Fraction(sum(p.get(e, 0) for p in polys.values()) + delta.get(e, 0), len(twists))
        x = {i: p.get(e, 0) - tau for i, p in polys.items()}
        for i in beta or ():
            if i in pinned or x[i] < 0:
                pinned.add(i)
                x[i] = Fraction(0)
        if any(x.values()):
            levels = sorted(set(x.values()))
            scale = lcm(*(t.denominator for t in levels))
            ints = [t.numerator * (scale // t.denominator) for t in levels]
            common = gcd(*ints)
            chain = tuple(frozenset(i for i in twists if x[i] >= t) for t in levels)
            return chain, tuple(v // common for v in ints)
    return None
