"""RatPoly helpers kept only for tests.

leading_coeff(p), formerly the method RatPoly.leading_coeff, is the
coefficient at p's highest exponent, 0 for the zero polynomial.
hilbert_line_bundle_projective(d, k), formerly ratpoly's, is the reference
for the integer-row version there: d RatPoly products and a scalar multiply.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from thetastab import RatPoly


def leading_coeff(p: RatPoly) -> Fraction:
    """The coefficient of p at its highest exponent; 0 when p is zero."""
    return p.coeff(p.degree()) if not p.is_zero() else Fraction(0)


def hilbert_line_bundle_projective(d: int, k: int) -> RatPoly:
    """binomial(n+k+d, d) as prod_{j=1..d} (n + k + j) / d!, in RatPoly arithmetic."""
    if d < 1:
        raise ValueError(f"projective dimension must be >= 1, got {d}")
    result = RatPoly.const(1)
    for j in range(1, d + 1):
        result = result * RatPoly({1: 1, 0: k + j})
    return result * Fraction(1, factorial(d))
