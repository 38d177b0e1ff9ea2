"""Twist and scale: two rebuilds of a lattice that change no answer.

twisted by t: every member's P_G(n) becomes P_G(n + t), the class of G
twisted by O(t), and delta(n) becomes delta(n + t).  n -> n + t keeps the
eventual order, so every comparison the library makes comes out the same;
ranks are unchanged, and a value's L(n) becomes L(n + t) over the same b.
A Laurent delta has no twist: delta(n + t) is then no Laurent polynomial.

scaled by lam > 0: every P_G and delta are multiplied by lam.  Every rank,
contribution and norm is then multiplied by lam, so a value L / sqrt(b)
becomes lam * L / sqrt(lam * b), and no comparison moves.

Both rebuild a lattice through as_dict and build_lattice, so member ids
and the order are kept.
"""

from __future__ import annotations

from fractions import Fraction

from thetastab import NuValue, RatPoly, SubobjectLattice, build_lattice


def transform(poly: RatPoly, twist: int = 0, scale: Fraction | int = 1) -> RatPoly:
    """lam * poly(n + t), for a poly without Laurent terms unless t = 0."""
    if not twist:
        return poly * scale
    assert not poly.has_negative_exponents(), "a Laurent polynomial has no twist"
    shifted = RatPoly.zero()
    for exponent, coeff in poly.items():
        term = RatPoly.const(coeff)
        for _ in range(exponent):
            term = term * RatPoly({1: 1, 0: twist})
        shifted = shifted + term
    return shifted * scale


def transform_value(value: NuValue, twist: int = 0, scale: Fraction | int = 1) -> NuValue:
    """The value the theory predicts after the transform: lam * L(n + t)
    over lam * b."""
    return NuValue(transform(value.L, twist, scale), value.b * scale)


def rebuilt(lat: SubobjectLattice, twist: int = 0, scale: Fraction | int = 1) -> SubobjectLattice:
    """lat with every member's class transformed, rebuilt from its as_dict
    document by build_lattice."""
    doc = lat.as_dict()
    polys = {o["id"]: transform(RatPoly(o["hilbert"]), twist, scale) for o in doc["objects"]}
    return build_lattice(doc["dimension"], polys, doc["relations"])
