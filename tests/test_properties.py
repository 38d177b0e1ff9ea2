"""Algebraic invariants checked on randomized inputs via hypothesis."""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, seed, settings
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
from thetastab.lattice import _row_poly
from thetastab.ratpoly import as_fraction, as_integer, as_ratio

import reference_leading_term
from reference_ratpoly import leading_coeff

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


def _leading_sign(p: RatPoly) -> int:
    """Sign of the highest nonzero coefficient of p, EQUAL for zero."""
    if p.is_zero():
        return EQUAL
    return GREATER if leading_coeff(p) > 0 else LESS


class TestEventualCompareIsTheLeadingDifference:
    """eventual_compare(p, q) is the sign of the leading coefficient of
    p - q, though it never forms p - q."""

    @given(ratpolys(), ratpolys())
    def test_random_pairs(self, p, q):
        assert eventual_compare(p, q) == _leading_sign(p - q)

    @given(ratpolys(), ratpolys(min_exp=-6, max_exp=1))
    def test_shared_top_terms(self, p, r):
        # p + r agrees with p at the exponents above r's support
        assert eventual_compare(p + r, p) == _leading_sign(r)

    @given(ratpolys())
    def test_equal_inputs_and_zero(self, p):
        zero = RatPoly.zero()
        assert eventual_compare(p, RatPoly(dict(p.items()))) == EQUAL
        assert eventual_compare(p, zero) == _leading_sign(p)
        assert eventual_compare(zero, p) == -_leading_sign(p)
        assert eventual_compare(zero, zero) == EQUAL

    @given(st.lists(st.integers(-4, 5), max_size=8, unique=True), st.data())
    def test_disjoint_supports(self, exponents, data):
        split = data.draw(st.integers(0, len(exponents)))
        nonzero = rationals.filter(bool)
        p = RatPoly({e: data.draw(nonzero) for e in exponents[:split]})
        q = RatPoly({e: data.draw(nonzero) for e in exponents[split:]})
        assert eventual_compare(p, q) == _leading_sign(p - q)


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


#: A scalar as a caller may give it: an int, a Fraction or an "a/b" string.
scalars = st.one_of(
    st.integers(-20, 20),
    rationals,
    rationals.map(lambda t: f"{t.numerator}/{t.denominator}"),
)


def _assert_clean(poly: RatPoly) -> None:
    """poly's map holds int exponents and nonzero Fractions only, so it is
    the polynomial RatPoly(...) reads from its terms, hash included."""
    assert all(type(e) is int and type(c) is Fraction and c for e, c in poly._coeffs.items()), poly
    parsed = RatPoly(dict(poly.items()))
    assert poly == parsed and hash(poly) == hash(parsed), poly


class TestCleanMaps:
    """Arithmetic, HilbertStats.reduced and lattice rows wrap the maps they
    build without the constructor's checks (RatPoly._of): each result must
    still be clean, cancelling inputs included."""

    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(ratpolys(), ratpolys(), scalars)
    def test_arithmetic_results(self, p, q, t):
        for result in (
            p + q, p - q, -p, p * q, p * t, t * p, q * t,
            p - p, p + (-p), p * 0, 0 * p, p * "0/3", p + (q - p), (p + q) - q, (p - q) * (p + q),
        ):
            _assert_clean(result)
        _assert_clean(RatPoly.zero())

    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-30, 30), max_size=5), st.integers(1, 30), st.integers(1, 12))
    def test_rows_and_reduced_polynomials(self, row, top, denominator):
        # row may hold zeros, and be all zeros below a positive top entry
        _assert_clean(_row_poly(row, denominator))
        poly = _row_poly(row + [top], denominator)
        _assert_clean(poly)
        _assert_clean(hilbert_stats(poly, len(row)).reduced)


integer_ratpolys = st.dictionaries(st.integers(-3, 4), st.integers(-9, 9).map(Fraction), max_size=5).map(RatPoly)


def _termwise(p: RatPoly, q: RatPoly, sign: int) -> RatPoly:
    """p + sign * q in the constructor form: every exponent of either, its
    coefficients combined as Fractions, zeros left for RatPoly to drop."""
    return RatPoly({e: p.coeff(e) + sign * q.coeff(e) for e in {*p._coeffs, *q._coeffs}})


class TestSums:
    """RatPoly + and - take an exponent new to the left operand as the
    right one's term, combine two coefficients as ints, and hand a zero
    operand's partner back: each result is the constructor form's, clean,
    whatever cancels."""

    @seed(20261021)
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(ratpolys(), integer_ratpolys),
        st.one_of(ratpolys(), integer_ratpolys),
        st.sampled_from(["as drawn", "minus left", "left's top terms cancel"]),
    )
    def test_sums_and_differences_match_the_constructor_form(self, p, q, shape):
        if shape == "minus left":  # every term of p cancels in p + q
            q = -p
        elif shape == "left's top terms cancel":
            q = q + RatPoly({e: -c for e, c in p.items()[:2]})
        for result, sign in ((p + q, 1), (p - q, -1)):
            assert result == _termwise(p, q, sign)
            _assert_clean(result)
        assert q + p == p + q and q - p == -(p - q)
        assert p - p == p + (-p) == RatPoly.zero()

    @seed(20261022)
    @given(st.one_of(ratpolys(), integer_ratpolys))
    def test_zero_operands(self, p):
        zero = RatPoly.zero()
        assert p + zero is p and p - zero is p
        assert zero + p == p and (p.is_zero() or zero + p is p)
        assert zero - p == -p == _termwise(zero, p, -1)
        _assert_clean(zero - p)

    def test_laurent_and_mixed_denominators(self):
        p = RatPoly({-2: Fraction(1, 3), 0: Fraction(1, 2), 3: 4})
        q = RatPoly({-2: Fraction(2, 3), 0: Fraction(-1, 2), 1: Fraction(5, 6), 3: -4})
        assert p + q == RatPoly({-2: 1, 1: Fraction(5, 6)})
        assert p - q == RatPoly({-2: Fraction(-1, 3), 0: 1, 1: Fraction(-5, 6), 3: 8})
        _assert_clean(p + q)
        _assert_clean(p - q)


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
        assert stats.reduced.degree() == d
        assert stats.reduced.coeff(d) == Fraction(1, factorial(d))

    @given(
        st.integers(0, 3),
        st.fractions(min_value=Fraction(1, 6), max_value=Fraction(8), max_denominator=6),
        st.data(),
    )
    def test_slopes_from_the_definition(self, d, lead, data):
        # P(n) = sum_k a_k n^k / k!, so a_k = k! * (coefficient of n^k)
        coeffs = {k: data.draw(rationals) for k in range(d)}
        coeffs[d] = lead
        stats = hilbert_stats(RatPoly(coeffs), d)
        a = [factorial(k) * coeffs[k] for k in range(d + 1)]
        assert stats.rank == a[d]
        assert reference_leading_term.slopes(stats) == tuple(a[i] / a[d] for i in range(d))


_PARENT_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")


def _parent_as_fraction(text: str) -> Fraction:
    """as_fraction on a string as it stood when Fraction(str) did the
    reading after the grammar check."""
    if _PARENT_RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(text) from exc
    raise ParseError(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


OVER_DIGIT_LIMIT = "9" * 5000  # past CPython's default int string limit of 4300 digits


class TestRationalLiterals:
    """as_fraction accepts and rejects exactly the strings that the
    grammar check followed by Fraction(str) did, with the same values."""

    @pytest.mark.parametrize("text", [
        "", " ", "\t", "+", "-", "-0", "+0", " -0/5 ", "0/0", "1/0", "-1/0", "3/6", "-3/6",
        " 7 ", "\u20037\u2003", "1/-2", "1//2", "1/2/3", "/2", "2/", "1_0", "1.5",
        "1e3", "\u0661", "0x10", "--1", "+-1", OVER_DIGIT_LIMIT, "-" + OVER_DIGIT_LIMIT,
        "1/" + OVER_DIGIT_LIMIT, OVER_DIGIT_LIMIT + "/3",
    ])
    def test_edge_literals(self, text):
        expected = _outcome(_parent_as_fraction, text)
        got = _outcome(as_fraction, text)
        assert got == expected and type(got) is type(expected)
        if OVER_DIGIT_LIMIT in text:
            assert got is ParseError

    @given(st.text(alphabet=" \t+-/0123456789_.e\u0661", max_size=12))
    def test_fuzzed_literals(self, text):
        expected = _outcome(_parent_as_fraction, text)
        got = _outcome(as_fraction, text)
        assert got == expected and type(got) is type(expected)


_PARENT_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parent_as_integer(value, what="integer literal") -> int:
    """as_integer as it stood before plain digit strings skipped the regex."""
    if type(value) is int or isinstance(value, str) and _PARENT_INTEGER.fullmatch(value):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"bad {what} {value!r}")


def _outcome_with_message(parse, value):
    try:
        return parse(value, "exponent")
    except ParseError as exc:
        return str(exc)


class _Text(str):
    pass


class TestIntegerLiterals:
    """as_integer reads plain ASCII digit strings without the regex and
    every other value through it: the same integers and the same messages
    as the regex alone; as_ratio's digit fast path gives the same pairs."""

    @pytest.mark.parametrize("value", [
        "0", "7", "007", "12345678901234567890", "", " ", "+", "-", "-0", "+3", " 7 ",
        "\u20037", "1_0", "1.5", "1e3", "\u0661", "\u00b2", "x", "0x10", "--1",
        OVER_DIGIT_LIMIT, "-" + OVER_DIGIT_LIMIT, " " + OVER_DIGIT_LIMIT,
        _Text("12"), _Text(" 12"), _Text("\u0661"), 3, -3, 0, True, False, 1.0, None, b"1",
    ])
    def test_edge_literals(self, value):
        expected = _outcome_with_message(_parent_as_integer, value)
        got = _outcome_with_message(as_integer, value)
        assert got == expected and type(got) is type(expected)
        if isinstance(value, str) and OVER_DIGIT_LIMIT in value:
            assert got == f"bad exponent {value!r}"

    @given(st.text(alphabet=" \t+-0123456789_.e\u0661\u00b2", max_size=12))
    def test_fuzzed_literals(self, text):
        expected = _outcome_with_message(_parent_as_integer, text)
        got = _outcome_with_message(as_integer, text)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("text", ["0", "00", "7", "0012", "\u0661", OVER_DIGIT_LIMIT])
    def test_ratio_digit_strings(self, text):
        expected = _outcome(_parent_as_fraction, text)
        got = _outcome(as_ratio, text)
        if expected is ParseError:
            assert got is ParseError
        else:
            assert got == (expected.numerator, expected.denominator)
