"""Algebraic invariants checked on randomized inputs via hypothesis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetastab import (
    EQUAL,
    GREATER,
    LESS,
    NuValue,
    RatPoly,
    eventual_compare,
    hilbert_stats,
    nu_compare,
)
from thetastab.errors import ParseError

CHECK_POINT = 10**6

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


@st.composite
def ratpolys(draw, min_exp=-3, max_exp=4):
    exponents = draw(
        st.lists(st.integers(min_exp, max_exp), min_size=0, max_size=5, unique=True)
    )
    return RatPoly({e: draw(rationals) for e in exponents})


@st.composite
def nu_values(draw):
    b = draw(st.fractions(min_value=Fraction(1, 12), max_value=Fraction(50), max_denominator=12))
    return NuValue(draw(ratpolys()), b)


class TestEventualOrder:
    @given(ratpolys(), ratpolys())
    def test_antisymmetric(self, p, q):
        assert eventual_compare(p, q) == -eventual_compare(q, p)

    @given(ratpolys(), ratpolys(), ratpolys())
    def test_transitive(self, p, q, r):
        if eventual_compare(p, q) != LESS and eventual_compare(q, r) != LESS:
            assert eventual_compare(p, r) != LESS

    @given(ratpolys(), ratpolys())
    def test_agrees_with_evaluation_far_out(self, p, q):
        verdict = eventual_compare(p, q)
        gap = p(CHECK_POINT) - q(CHECK_POINT)
        if verdict == GREATER:
            assert gap > 0
        elif verdict == LESS:
            assert gap < 0
        else:
            assert gap == 0

    @given(ratpolys(), ratpolys(), ratpolys())
    def test_translation_invariant(self, p, q, r):
        assert eventual_compare(p + r, q + r) == eventual_compare(p, q)


def _from_text(terms: dict) -> RatPoly:
    """The polynomial with these terms, each coefficient read from text."""
    return RatPoly({e: f"{c.numerator}/{c.denominator}" for e, c in terms.items()})


class TestArithmetic:
    """Sums, differences and products keep the exact coefficients they
    compute: each equals the polynomial read afresh from its terms, and
    stores only nonzero Fractions."""

    @given(ratpolys(), ratpolys(), rationals)
    def test_results_equal_the_polynomial_of_their_terms(self, p, q, t):
        exponents = {e for e, _ in p.items()} | {e for e, _ in q.items()}
        product: dict[int, Fraction] = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                product[e1 + e2] = product.get(e1 + e2, Fraction(0)) + c1 * c2
        cases = [
            (p + q, {e: p.coeff(e) + q.coeff(e) for e in exponents}),
            (p - q, {e: p.coeff(e) - q.coeff(e) for e in exponents}),
            (p - p, {}),
            (p * q, product),
            (p * t, {e: c * t for e, c in p.items()}),
            (t * p, {e: t * c for e, c in p.items()}),
        ]
        for result, terms in cases:
            assert result == _from_text(terms)
            assert all(type(c) is Fraction and c != 0 for _, c in result.items())

    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "1e3"])
    def test_constructor_keeps_the_rational_grammar(self, value):
        with pytest.raises(ParseError):
            RatPoly({0: value})
        with pytest.raises(ParseError):
            RatPoly({1: 1}) * value


class TestNuOrder:
    @given(nu_values(), nu_values())
    def test_antisymmetric(self, x, y):
        assert nu_compare(x, y) == -nu_compare(y, x)

    @given(nu_values(), nu_values(), nu_values())
    def test_transitive(self, x, y, z):
        if nu_compare(x, y) != LESS and nu_compare(y, z) != LESS:
            assert nu_compare(x, z) != LESS

    @given(nu_values())
    def test_reflexive(self, x):
        assert nu_compare(x, x) == EQUAL

    @given(nu_values(), st.fractions(min_value=Fraction(1, 6), max_value=Fraction(9), max_denominator=6))
    def test_scaling_preserves_comparisons(self, x, t):
        scaled = NuValue(x.L * t, x.b * t * t)
        assert nu_compare(x, scaled) == EQUAL

    @settings(max_examples=60)
    @given(nu_values(), nu_values())
    def test_agrees_with_floats_when_gap_is_clear(self, x, y):
        fx, fy = x.approx(CHECK_POINT), y.approx(CHECK_POINT)
        if abs(fx - fy) <= 1e-6 or abs(fx) + abs(fy) > 1e12:
            return  # too close (or too large) for float arbitration
        assert nu_compare(x, y) == (GREATER if fx > fy else LESS)


class TestHilbertStats:
    @given(
        st.integers(0, 3),
        st.fractions(min_value=Fraction(1, 6), max_value=Fraction(8), max_denominator=6),
        st.data(),
    )
    def test_rank_times_reduced_reassembles(self, d, lead, data):
        coeffs = {d: lead}
        for k in range(d):
            coeffs[k] = data.draw(rationals)
        poly = RatPoly(coeffs)
        stats = hilbert_stats(poly, d)
        assert stats.reduced * stats.rank == poly
        assert stats.rank > 0
        assert len(stats.slopes) == d
