"""The integer Gieseker kernel: each lattice's common denominator and
numerator table, ratpoly.reduced_compare, and the three verdicts built on
them (is_semistable, pair_semistable, hn_filtration), cross-checked
against the RatPoly references they replaced."""

import random
from fractions import Fraction

import pytest

from thetastab import (
    PairObject,
    RatPoly,
    build_lattice,
    eventual_compare,
    hn_filtration,
    is_semistable,
    pair_semistable,
)
from thetastab.errors import AmbiguousHN
from thetastab.ratpoly import reduced_compare

from conftest import coordinate_lattice
from randgen import (
    random_coprime_lattice,
    random_delta,
    random_graded_poly,
    random_lambda_lattice,
    random_subposet_lattice,
    restrict,
)
import reference_hn
from reference_hn import InvalidHN
import reference_lattice
import reference_semistable
from reference_ratpoly import leading_coeff

FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")


def _hn_outcome(hn, lat):
    """The chain hn builds on lat, or the type and message of its error."""
    try:
        return hn(lat).chain
    except (AmbiguousHN, InvalidHN) as exc:
        return type(exc), str(exc)


def _witness_id(verdict):
    return verdict[0], getattr(verdict[1], "id", None)


class TestTable:
    def test_numerators_are_the_polynomials_over_one_denominator(self):
        rng = random.Random(7)
        for _ in range(20):
            d = rng.choice((1, 2, 3))
            lat = random_coprime_lattice(rng, rng.randint(2, 4), d, proportional=rng.random() < 0.3)
            denominators = {c.denominator for i in lat.ids() for _, c in lat.member(i).poly.items()}
            assert all(lat.denominator % q == 0 for q in denominators)
            for i in lat.ids():
                poly = lat.member(i).poly
                assert lat.numerators[i] == tuple(lat.denominator * poly.coeff(e) for e in range(d + 1))
            assert lat.numerators[lat.zero_id] == (0,) * (d + 1)

    def test_coprime_summands_multiply_the_denominator(self):
        # summand denominators 3, 5, 7 (and d! = 1) give D = 105 exactly
        lat = random_coprime_lattice(random.Random(1), 3, 1)
        assert lat.denominator == 105

    def test_a_directly_constructed_lattice_has_the_same_table(self):
        rng = random.Random(11)
        for _ in range(10):
            lat = random_coprime_lattice(rng, rng.randint(2, 3), rng.choice((1, 2)))
            polys = {i: lat.member(i).poly for i in lat.ids()}
            relations = [(a, b) for a in lat.ids() for b in lat.ids() if lat.lt(a, b)]
            direct = reference_lattice.build_lattice(lat.dim, polys, relations)
            assert (direct.denominator, direct.numerators) == (lat.denominator, lat.numerators)


class TestReducedCompare:
    def test_agrees_with_eventual_compare_on_reduced_polynomials(self):
        # x = D * P, r = x[d]: x / r is reduced(P) / d!, so the order is the
        # reduced polynomials' order
        rng = random.Random(3)
        outcomes = set()
        for _ in range(500):
            d = rng.choice((1, 2, 3))
            p, q = random_graded_poly(rng, d), random_graded_poly(rng, d)
            if rng.random() < 0.2:
                q = p * Fraction(rng.randint(1, 5), rng.randint(1, 5))
            denominator = 1
            for _, c in p.items() + q.items():
                denominator = denominator * c.denominator
            x = tuple(int(denominator * p.coeff(e)) for e in range(d + 1))
            y = tuple(int(denominator * q.coeff(e)) for e in range(d + 1))
            expected = eventual_compare(
                p * (1 / leading_coeff(p)), q * (1 / leading_coeff(q))
            )
            assert reduced_compare(x, x[d], y, y[d]) == expected
            outcomes.add(expected)
        assert outcomes == {-1, 0, 1}

    def test_any_positive_scales(self):
        # x / rx against y / ry for tuples with a Laurent and a high exponent
        assert reduced_compare((5, 0, 1), 2, (0, 0, 1), 3) == 1  # n^2/2 > n^2/3
        assert reduced_compare((1, 0, 2), 2, (-1, 0, 3), 3) == 1  # equal tops, then 1/2 > -1/3
        assert reduced_compare((3, 6), 3, (1, 2), 1) == 0


class TestHNAgainstReference:
    """The integer greedy step builds the reference's chain, or raises its
    error with its message."""

    def test_seeded_coordinate_lattices(self):
        rng = random.Random(20261101)
        chains = 0
        for d in (1, 2, 3):
            for k in range(1, 6):
                for rep in range(3):
                    twist = rng.randint(-2, 2)
                    twists = {f"L{i}": twist if rep == 0 else rng.randint(-2, 2) for i in range(k)}
                    lat = coordinate_lattice(twists, d)
                    expected = _hn_outcome(reference_hn.hn_filtration, lat)
                    assert _hn_outcome(hn_filtration, lat) == expected, (twists, d)
                    chains += isinstance(expected, tuple) and len(expected) > 1
        assert chains > 20

    def test_subposet_arms(self):
        # not closed under sums: some greedy steps tie between incomparable
        # members, and the AmbiguousHN names the same pair
        rng = random.Random(20261102)
        seen = {"chain": 0, "AmbiguousHN": 0}
        for _ in range(200):
            d = rng.choice((1, 2, 3))
            lat = random_subposet_lattice(rng, rng.randint(2, 5), d, rng.choice((0.3, 0.6, 0.9)))
            expected = _hn_outcome(reference_hn.hn_filtration, lat)
            assert _hn_outcome(hn_filtration, lat) == expected, lat.ids()
            seen["chain" if isinstance(expected[0], str) else expected[0].__name__] += 1
        assert min(seen.values()) >= 10, seen
        # Lambda-module lattices are closed under sums and intersections:
        # no greedy step ties between incomparable members
        rng = random.Random("lambda 20261102")
        for _ in range(100):
            d = rng.choice((1, 2, 3))
            lat = random_lambda_lattice(rng, rng.randint(2, 5), d, rng.choice((0.2, 0.4, 0.6)))
            expected = _hn_outcome(reference_hn.hn_filtration, lat)
            assert _hn_outcome(hn_filtration, lat) == expected and isinstance(expected[0], str), lat.ids()

    def test_coprime_lattices(self):
        rng = random.Random(20261103)
        for trial in range(40):
            d = rng.choice((1, 2, 3))
            lat = random_coprime_lattice(rng, rng.randint(2, 4), d, proportional=trial % 5 == 0)
            if trial % 2:
                lat = restrict(rng, lat, 0.6)
            expected = _hn_outcome(reference_hn.hn_filtration, lat)
            assert _hn_outcome(hn_filtration, lat) == expected, lat.ids()


class TestSemistableOnCoprimeLattices:
    """Common denominators of several primes, rational ranks and 40-digit
    numerators: the integer verdicts match the RatPoly references."""

    @pytest.mark.parametrize("form", FORMS)
    def test_pair_semistable_against_reference(self, form):
        rng = random.Random(f"coprime {form}")
        verdicts = set()
        for trial in range(24):
            d = rng.choice((1, 2, 3))
            lat = random_coprime_lattice(rng, rng.randint(1, 4), d, proportional=trial % 3 == 0)
            if trial % 4 == 1:
                lat = restrict(rng, lat, 0.5)
            assert _witness_id(is_semistable(lat)) == _witness_id(
                reference_semistable.is_semistable(lat)
            )
            proper = list(lat.proper_nonzero_ids())
            for beta in [None, lat.top_id] + rng.sample(proper, min(len(proper), 2)):
                pair = PairObject(lattice=lat, beta_image=beta)
                delta = random_delta(rng, d, form)
                verdict = _witness_id(pair_semistable(pair, delta))
                assert verdict == _witness_id(reference_semistable.pair_semistable(pair, delta)), (
                    lat.ids(), beta, delta,
                )
                verdicts.add(verdict[0])
        assert verdicts == ({False} if form == "negative" else {True, False})

    def test_denominators_of_delta_and_lattice_combine(self):
        # delta = 1/2 on a lattice with D = 3: the twist is exact only over
        # D * E = 6; witness and verdict flip exactly at the wall
        polys = {"0": {}, "A": {1: "1/3", 0: "1/3"}, "F": {1: "2/3", 0: "1/3"}}
        lat = build_lattice(1, polys, [])
        assert lat.denominator == 3
        pair = PairObject(lattice=lat, beta_image="A")
        # p(A) = n + 1, p(F) = n + 1/2; with the image in A the twist adds
        # 3 delta to A and 3 delta / 2 to F, so delta only widens the gap
        assert pair_semistable(pair, RatPoly({0: Fraction(1, 2)}))[1].id == "A"
        top_pair = PairObject(lattice=lat, beta_image="F")
        # only F is twisted: p_delta(F) = n + 1/2 + 3 delta / 2 passes
        # p(A) = n + 1 past delta = 1/3
        for delta, stable in ((Fraction(1, 5), False), (Fraction(1, 3), True), (Fraction(2, 7), False)):
            verdict = pair_semistable(top_pair, RatPoly({0: delta}))
            assert verdict[0] is stable
            assert _witness_id(verdict) == _witness_id(
                reference_semistable.pair_semistable(top_pair, RatPoly({0: delta}))
            )
