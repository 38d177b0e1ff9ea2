"""The canonical pair answer on a coordinate lattice, from the twists alone.

A coordinate lattice is the full sub-sum lattice of line bundles
L_i = O(a_i) on P^d, each of rank 1.  A weighted filtration by sub-sums
gives each summand the weight w_i of the deepest member holding it, and
weights w give back the chain {i : w_i >= t}, one member per distinct
weight t, so the invariant is <w, c> / sqrt(sum w_i^2) with per-summand
contributions c_i = P(L_i) - tau, tau = (sum_i P(L_i) + delta) / k.
Without a framing map every w is allowed; with the marked image the
summand L_b, the constraint is w_b >= 0.  One exponent of n at a time,
highest first, the best weights are the fit x_i = c_i(e), with x_b
clipped at 0 (the projection onto w_b >= 0).  A zero fit leaves the face
of weights that score 0 there: all of them, or, when x_b < 0 was
clipped, those with w_b = 0, which pins x_b at 0 for every lower exponent.

Only a marked image that is a summand, or none, is covered: a larger
sub-sum is left out.  Nothing from thetastab is imported.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm


def line_bundle(d: int, a: int) -> dict[int, Fraction]:
    """binomial(n + a + d, d) = prod_{j=1..d} (n + a + j) / d!, by exponent."""
    coeffs = [1]  # lowest exponent first
    for j in range(1, d + 1):
        coeffs = [(a + j) * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    return {e: Fraction(c, factorial(d)) for e, c in enumerate(coeffs) if c}


def pair_answer(
    twists: dict[str, int], d: int, delta: dict[int, Fraction], beta: str | None
) -> tuple[tuple[frozenset[str], ...], tuple[int, ...]] | None:
    """The canonical filtration of the pair (the sum of O(twists[i]) on P^d,
    marked image the summand beta or None) at delta, as its chain of
    summand sets, top first, and primitive integer weights; None when no
    weighting is positive (the pair is semistable)."""
    polys = {i: line_bundle(d, a) for i, a in twists.items()}
    exponents = sorted({*delta, *(e for p in polys.values() for e in p)}, reverse=True)
    pinned = False
    for e in exponents:
        tau = Fraction(sum(p.get(e, 0) for p in polys.values()) + delta.get(e, 0), len(twists))
        x = {i: p.get(e, 0) - tau for i, p in polys.items()}
        if beta is not None and (pinned or x[beta] < 0):
            pinned, x[beta] = True, Fraction(0)
        if any(x.values()):
            levels = sorted(set(x.values()))
            scale = lcm(*(t.denominator for t in levels))
            ints = [t.numerator * (scale // t.denominator) for t in levels]
            common = gcd(*ints)
            chain = tuple(frozenset(i for i in twists if x[i] >= t) for t in levels)
            return chain, tuple(v // common for v in ints)
    return None
