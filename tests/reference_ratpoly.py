"""RatPoly helpers kept only for tests.

leading_coeff(p), formerly the method RatPoly.leading_coeff, is the
coefficient at p's highest exponent, 0 for the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from thetastab import RatPoly


def leading_coeff(p: RatPoly) -> Fraction:
    """The coefficient of p at its highest exponent; 0 when p is zero."""
    return p.coeff(p.degree()) if not p.is_zero() else Fraction(0)
