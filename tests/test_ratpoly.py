import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from thetastab import (
    EQUAL,
    GREATER,
    LESS,
    NuValue,
    RatPoly,
    eventual_compare,
    hilbert_line_bundle_projective,
    hilbert_stats,
    nu_compare,
)
from thetastab import ratpoly
from thetastab.errors import DegreeMismatch, NonpositiveRank

import reference_ratpoly


def P(mapping):
    return RatPoly(mapping)


class TestEventualCompare:
    def test_dominated_despite_big_linear_term(self):
        assert eventual_compare(P({2: 1, 1: -100}), P({2: 1, 0: -1})) == LESS

    def test_identity(self):
        p = P({3: Fraction(2, 7), 0: -4})
        assert eventual_compare(p, p) == EQUAL

    def test_constant_gap(self):
        assert eventual_compare(P({1: 1, 0: 6}), P({1: 1, 0: 3})) == GREATER

    def test_zero_polynomial_degree_sentinel(self):
        assert RatPoly.zero().degree() < -(10**18)
        assert eventual_compare(RatPoly.zero(), P({0: Fraction(1, 10**9)})) == LESS

    def test_laurent_terms_compare_at_top_exponent(self):
        assert eventual_compare(P({-1: 100}), P({0: Fraction(1, 100)})) == LESS

    def test_no_rich_comparisons_only_eventual_compare(self):
        # RatPoly has no ordering operators; eventual_compare gives the
        # verdicts they used to give
        with pytest.raises(TypeError):
            P({0: 10**9}) < P({1: 1})
        with pytest.raises(TypeError):
            max(P({1: 1, 0: 5}), P({1: 1, 0: 7}))
        assert eventual_compare(P({1: 1}), P({0: 10**9})) == GREATER
        assert eventual_compare(P({1: 1, 0: 5}), P({1: 1, 0: 7})) == LESS


class TestHilbertStats:
    def test_rank_three(self):
        stats = hilbert_stats(P({1: 3, 0: 9}), 1)
        assert stats.rank == 3
        assert stats.reduced == P({1: 1, 0: 3})
        assert stats.reduced.coeff(0) == 3  # a_0 / a_1

    def test_already_reduced(self):
        stats = hilbert_stats(P({1: 1, 0: 1}), 1)
        assert stats.rank == 1
        assert stats.reduced == P({1: 1, 0: 1})
        assert stats.reduced.coeff(0) == 1

    def test_rank_two(self):
        stats = hilbert_stats(P({1: 2, 0: 4}), 1)
        assert stats.rank == 2
        assert stats.reduced == P({1: 1, 0: 2})
        assert stats.reduced.coeff(0) == 2

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            hilbert_stats(P({1: 1, 0: 1}), 2)

    def test_nonpositive_rank(self):
        with pytest.raises(NonpositiveRank):
            hilbert_stats(P({1: -1, 0: 1}), 1)

    def test_laurent_rejected(self):
        with pytest.raises(DegreeMismatch):
            hilbert_stats(P({1: 1, -1: 1}), 1)

    def test_reassembly(self):
        poly = P({2: Fraction(3, 2), 1: -1, 0: 5})
        stats = hilbert_stats(poly, 2)
        assert stats.reduced * stats.rank == poly

    def test_factorial_normalization_d2(self):
        # P = a2 n^2/2! + a1 n + a0 with a = (1, 5/2, 3): the twist O(1) on P^2
        stats = hilbert_stats(P({2: Fraction(1, 2), 1: Fraction(5, 2), 0: 3}), 2)
        assert stats.rank == 1
        # a_i / a_d = i! * (coefficient of n^i in the reduced polynomial)
        assert [factorial(i) * stats.reduced.coeff(i) for i in range(2)] == [3, Fraction(5, 2)]


class TestLineBundles:
    def test_p1_twist_five(self):
        assert hilbert_line_bundle_projective(1, 5) == P({1: 1, 0: 6})

    def test_p1_structure_sheaf(self):
        assert hilbert_line_bundle_projective(1, 0) == P({1: 1, 0: 1})

    def test_p2_structure_sheaf(self):
        # (n+1)(n+2)/2
        assert hilbert_line_bundle_projective(2, 0) == P(
            {2: Fraction(1, 2), 1: Fraction(3, 2), 0: 1}
        )

    def test_counts_monomials(self):
        # binomial(n+k+d, d) wherever math.comb takes n + k + d, the roots
        # (0 <= n + k + d < d) included
        for d in range(1, 13):
            for k in range(-30, 31):
                poly = hilbert_line_bundle_projective(d, k)
                for n in (5, 9, 30, 31, 47, 1000):
                    if n + k + d >= 0:
                        assert poly(n) == comb(n + k + d, d), (d, k, n)

    def test_integer_row_matches_product_form(self):
        # the clean map of d RatPoly products: no zero coefficient kept
        for d in range(1, 13):
            for k in range(-30, 31):
                poly = hilbert_line_bundle_projective(d, k)
                assert poly._coeffs == reference_ratpoly.hilbert_line_bundle_projective(d, k)._coeffs, (d, k)
                assert all(type(e) is int and type(c) is Fraction and c for e, c in poly._coeffs.items())

    def test_cancelled_coefficients_are_dropped(self):
        # (n - 1) n / 2 and n: the constant terms cancel and are not kept
        assert hilbert_line_bundle_projective(2, -2) == P({2: Fraction(1, 2), 1: Fraction(-1, 2)})
        assert hilbert_line_bundle_projective(1, -1) == P({1: 1})

    def test_rejects_dimension_below_one(self):
        for d in (0, -1):
            with pytest.raises(ValueError):
                hilbert_line_bundle_projective(d, 0)


class TestLineBundleMemo:
    """hilbert_line_bundle_projective expands each (d, k) once per process
    and shares the one immutable result; arguments are checked before the
    memo is consulted."""

    def test_cold_and_warm_results_match_the_product_form(self):
        ratpoly._line_bundle.cache_clear()
        cold = {(d, k): hilbert_line_bundle_projective(d, k) for d in range(1, 13) for k in range(-30, 31)}
        for (d, k), poly in cold.items():
            assert poly == reference_ratpoly.hilbert_line_bundle_projective(d, k), (d, k)
            assert hilbert_line_bundle_projective(d, k) is poly, (d, k)
        info = ratpoly._line_bundle.cache_info()
        assert (info.misses, info.hits, info.currsize) == (len(cold), len(cold), len(cold))

    def test_bad_arguments_raise_with_a_valid_key_cached(self):
        assert hilbert_line_bundle_projective(1, 2) == P({1: 1, 0: 3})
        for d, k in ((1, 2.0), (1.0, 2), (1, Fraction(2)), (1, "2"), (Fraction(1), 2), (None, 2)):
            with pytest.raises(TypeError):
                hilbert_line_bundle_projective(d, k)
        for d in (0, -1, False):
            hilbert_line_bundle_projective(1, 0)
            with pytest.raises(ValueError):
                hilbert_line_bundle_projective(d, 0)
        assert hilbert_line_bundle_projective(True, 2) is hilbert_line_bundle_projective(1, 2)

    def test_a_member_by_member_build_expands_each_class_once(self):
        # as perfbench's generator builds a coordinate lattice: each member's
        # polynomial is the sum of its summands' classes, one call per
        # summand it holds, so k summands make k * 2^(k-1) calls
        ratpoly._line_bundle.cache_clear()
        calls, classes = 0, set()
        for d, twists in ((1, (5, 1, 0, 1, -2, 5, 3)), (2, (0, 1, 1, -1, 2))):
            members = {}
            for r in range(1, len(twists) + 1):
                for combo in combinations(range(len(twists)), r):
                    poly = RatPoly.zero()
                    for s in combo:
                        poly = poly + hilbert_line_bundle_projective(d, twists[s])
                        calls += 1
                    members[combo] = poly
            classes |= {(d, k) for k in twists}
            for combo, poly in members.items():
                assert poly == sum((reference_ratpoly.hilbert_line_bundle_projective(d, twists[s])
                                    for s in combo), RatPoly.zero()), (d, combo)
        info = ratpoly._line_bundle.cache_info()
        assert calls == 7 * 2**6 + 5 * 2**4
        assert (info.misses, info.hits) == (len(classes), calls - len(classes)) == (9, calls - 9)


class TestNuCompare:
    def test_squared_leading_comparison(self):
        x = NuValue(P({1: 2}), Fraction(2))
        y = NuValue(P({1: 1, 0: 5}), Fraction(1))
        assert nu_compare(x, y) == GREATER  # sqrt(2) beats 1 at the top

    def test_zero_representations_agree(self):
        assert nu_compare(NuValue(RatPoly.zero(), 7), NuValue(RatPoly.zero(), 3)) == EQUAL

    def test_sign_decides(self):
        x = NuValue(P({1: -1}), Fraction(1))
        y = NuValue(P({1: 1}), Fraction(4))
        assert nu_compare(x, y) == LESS

    def test_tie_at_top_decided_below(self):
        x = NuValue(P({1: 2, 0: 2}), Fraction(4))
        y = NuValue(P({1: 1, 0: 3}), Fraction(1))
        # tops equal (2/2 = 1/1); constants: 2/2 = 1 < 3
        assert nu_compare(x, y) == LESS

    def test_scaling_invariance(self):
        x = NuValue(P({2: 3, 0: -1}), Fraction(5))
        scaled = NuValue(x.L * 7, x.b * 49)
        assert nu_compare(x, scaled) == EQUAL

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError):
            NuValue(RatPoly.zero(), 0)


class TestApprox:
    def test_float_where_one_suffices(self):
        value = NuValue(P({1: 3, 0: -1}), Fraction(2)).approx(10)
        assert type(value) is float and value == 29 / 2**0.5

    def test_decimal_beyond_float_range(self):
        # an overflowing numerator, a norm that is 0.0 as a float, and a
        # quotient that a float would round to 0
        assert NuValue(P({0: 10**400}), Fraction(4)).approx(0) == Decimal("5E+399")
        assert NuValue(P({1: 1}), Fraction(1, 10**800)).approx(10**300) == Decimal("1E+700")
        assert NuValue(P({0: Fraction(1, 10**400)}), Fraction(1)).approx(0) == Decimal("1E-400")
        assert NuValue(RatPoly.zero(), Fraction(1, 10**800)).approx(0) == 0

    @staticmethod
    def exact(value, n):
        x, b = value.L(n), value.b
        with localcontext(Emax=MAX_EMAX, Emin=MIN_EMIN, prec=60):
            return Decimal(x.numerator) / x.denominator / (Decimal(b.numerator) / b.denominator).sqrt()

    @pytest.mark.parametrize("n", (10**6, Fraction(1, 10**6), Fraction(-7, 3)))
    @pytest.mark.parametrize("coeffs", (
        {51: 3, 0: -1},                      # 51 * 6 digits: within a float's range
        {52: -2, 1: 5},                      # just beyond it at n = 10^6
        {-60: 5, -1: Fraction(-2, 3)},       # Laurent terms only
        {400: Fraction(-1, 3), 399: 7, -400: 1},
        {2000: 1, 3: -5, -2000: Fraction(-3, 7)},
        {60: 1, 0: -(10**360 - 1)},          # cancels to 1 at n = 10^6
        {60: 1, 0: -(10**360)},              # cancels to 0 at n = 10^6
    ))
    def test_matches_exact_evaluation(self, coeffs, n):
        # on both sides of the float range, to 15 significant digits
        value = NuValue(P(coeffs), Fraction(5, 3))
        approx, exact = value.approx(n), self.exact(value, n)
        with localcontext(Emax=MAX_EMAX, Emin=MIN_EMIN, prec=60):
            assert abs(Decimal(approx) - exact) <= abs(exact) * Decimal("1e-15"), (approx, exact)
        in_range = exact == 0 or sys.float_info.min < abs(exact) < sys.float_info.max
        assert (type(approx) is float) == in_range

    def test_huge_exponent_without_the_exact_power(self, monkeypatch):
        # L(10^6) has 1.8 million digits; the terms are summed in Decimal
        def fail(*args):
            raise AssertionError("exact evaluation")

        value = NuValue(P({300000: 1, -300000: 1, 0: -1}), Fraction(2))
        monkeypatch.setattr(RatPoly, "__call__", fail)
        assert f"{value.approx(10**6):.6g}" == "7.07107e+1799999"
        assert f"{value.approx(Fraction(1, 10**6)):.6g}" == "7.07107e+1799999"
