import random
from fractions import Fraction
from math import factorial

import pytest

from thetastab import (
    GREATER,
    LESS,
    NuValue,
    RatPoly,
    build_lattice,
    canonical_filtration,
    convexify,
    delete_step,
    eventual_compare,
    hn_filtration,
    is_semistable,
    leading_term,
    make_filtration,
    nu,
    nu_compare,
)
from thetastab.errors import (
    AmbiguousHN,
    NegativeNu,
    ObjectSemistable,
    PreconditionFailed,
)
from thetastab.latfile import load_lattice

from conftest import FIXTURES, coordinate_lattice, sum_lattice
from randgen import (
    random_coprime_lattice,
    random_lambda_lattice,
    random_path_filtration,
    random_subposet_lattice,
)
import reference_leading_term
from reference_lattice import is_convex, is_trivial


def seeded_lattices(seed):
    """Coordinate lattices (k <= 5, d <= 3), sub-posets of them, coprime
    lattices and Lambda-module lattices, in that order, each tagged with
    its arm; the last from a generator of their own."""
    rng = random.Random(seed)
    for _ in range(150):
        twists = {f"L{i}": rng.randint(-2, 2) for i in range(rng.randint(1, 5))}
        yield "coordinate", coordinate_lattice(twists, rng.randint(1, 3))
    for _ in range(150):
        k, d = rng.randint(2, 5), rng.randint(1, 3)
        yield "sub-poset", random_subposet_lattice(rng, k, d, rng.choice((0.3, 0.6, 0.9)))
    for trial in range(40):
        k, d = rng.randint(2, 4), rng.randint(1, 3)
        yield "coprime", random_coprime_lattice(rng, k, d, proportional=trial % 5 == 0)
    rng = random.Random(f"lambda {seed}")
    for _ in range(100):
        k, d = rng.randint(2, 5), rng.randint(1, 3)
        yield "lambda", random_lambda_lattice(rng, k, d, rng.choice((0.2, 0.4, 0.6)))


def P(mapping):
    return RatPoly(mapping)


class TestIsSemistable:
    def test_unstable_with_witness(self, lat_o2_o):
        verdict, witness = is_semistable(lat_o2_o)
        assert not verdict and witness.id == "O2"

    def test_no_proper_subobjects(self, lat_trivial):
        assert is_semistable(lat_trivial) == (True, None)

    def test_equal_reduced_is_still_semistable(self):
        lat = coordinate_lattice({"A": 0, "B": 0})
        verdict, witness = is_semistable(lat)
        assert verdict and witness is None

    def test_witness_has_maximal_reduced_poly(self, lat_b3):
        _, witness = is_semistable(lat_b3)
        assert witness.id == "O5"


class TestHNFiltration:
    def test_b3_chain(self, lat_b3):
        hn = hn_filtration(lat_b3)
        assert hn.chain == ("F", "O5+O1", "O5")

    def test_semistable_gives_trivial_chain(self, lat_trivial):
        hn = hn_filtration(lat_trivial)
        assert is_trivial(hn)

    def test_equal_slope_summands_merge_by_rank(self):
        lat = coordinate_lattice({"A": 2, "B": 2, "C": 0})
        hn = hn_filtration(lat)
        assert hn.chain == ("F", "A+B")

    def test_ambiguous_tie_without_join(self):
        # two incomparable rank-1 members of equal maximal reduced polynomial
        lat = build_lattice(
            1,
            {
                "0": RatPoly.zero(),
                "A": P({1: 1, 0: 3}),
                "B": P({1: 1, 0: 3}),
                "F": P({1: 2, 0: 4}),
            },
        )
        with pytest.raises(AmbiguousHN):
            hn_filtration(lat)


class TestHNStrictDecrease:
    """hn_filtration has no final check: the mediant argument of its
    docstring makes every chain it returns strictly decreasing."""

    def test_graded_reduced_polynomials_strictly_decrease_outward(self):
        seen = dict.fromkeys(("coordinate", "sub-poset", "coprime", "lambda"), 0)
        for arm, lat in seeded_lattices(20261201):
            try:
                hn = hn_filtration(lat)
            except AmbiguousHN:
                continue
            for outer, deeper in zip(hn.gradeds, hn.gradeds[1:]):
                assert eventual_compare(deeper.reduced, outer.reduced) == GREATER, (arm, hn.chain)
            seen[arm] += len(hn.chain) > 1
        assert min(seen.values()) >= 10, seen


class TestLeadingTermAgainstReference:
    """leading_term, read off maximize_weights on the HN chain, against the
    slope scan it replaced: the same chain, index, weights and value (the
    reference's from nu on a table of its own), or ObjectSemistable from
    both."""

    @staticmethod
    def outcome(leading, hn):
        try:
            lterm = leading(hn)
        except ObjectSemistable as exc:
            return str(exc)
        return lterm.chain.chain, lterm.index, lterm.weights, lterm.value

    def assert_matches(self, lat):
        hn = hn_filtration(lat)
        expected = self.outcome(reference_leading_term.leading_term, hn)
        assert self.outcome(leading_term, hn) == expected, lat.ids()
        return expected

    def test_seeded_lattices(self):
        seen = {}
        for arm, lat in seeded_lattices(20261202):
            try:
                expected = self.assert_matches(lat)
            except AmbiguousHN:
                continue
            kind = "semistable" if isinstance(expected, str) else "unstable"
            seen[arm, kind] = seen.get((arm, kind), 0) + 1
        for arm in ("coordinate", "sub-poset", "coprime", "lambda"):
            assert seen.get((arm, "unstable"), 0) >= 10, seen
            assert seen.get((arm, "semistable"), 0) >= 3, seen

    def test_steps_merge_where_the_leading_coefficient_ties(self):
        # summands with two Mumford slopes and random lower terms: the HN
        # chain splits summands of one slope, the leading term merges them
        rng = random.Random(20261203)
        merged = 0
        for _ in range(40):
            d = rng.randint(1, 3)
            summands = {}
            for i in range(rng.randint(2, 4)):
                r, mu = rng.randint(1, 2), rng.randint(0, 1)
                terms = {d: Fraction(r, factorial(d)), d - 1: r * mu / Fraction(factorial(d - 1))}
                for e in range(d - 1):
                    terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                summands[f"E{i}"] = RatPoly(terms)
            lat = sum_lattice(summands, d)
            expected = self.assert_matches(lat)
            merged += not isinstance(expected, str) and len(expected[0]) < len(hn_filtration(lat).chain)
        assert merged >= 5, merged

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lattice")))
    def test_fixtures(self, name):
        self.assert_matches(load_lattice(FIXTURES / name)[0])


class TestLeadingTerm:
    def test_all_slopes_distinct(self, lat_b3):
        lterm = leading_term(hn_filtration(lat_b3))
        assert lterm.index == 0
        assert lterm.chain.chain == ("F", "O5+O1", "O5")
        assert lterm.weights == (-2, -1, 3)

    def test_two_summands(self, lat_o2_o):
        lterm = leading_term(hn_filtration(lat_o2_o))
        assert lterm.chain.chain == ("F", "O2")
        assert lterm.weights == (-1, 1)

    def test_semistable_rejected(self, lat_trivial):
        with pytest.raises(ObjectSemistable):
            leading_term(hn_filtration(lat_trivial))

    def test_equal_mumford_slope_distinct_lower_slope_d2(self):
        # two degree-2 classes with equal slope at degree 1 but different
        # constant slope: the leading index drops to 0 and no steps merge
        lat = build_lattice(
            2,
            {
                "0": RatPoly.zero(),
                "A": P({2: Fraction(1, 2), 1: 2, 0: 5}),
                "F": P({2: 1, 1: 4, 0: 8}),
            },
        )
        hn = hn_filtration(lat)
        assert hn.chain == ("F", "A")
        lterm = leading_term(hn)
        assert lterm.index == 0
        assert lterm.chain.chain == ("F", "A")
        assert lterm.weights == (-1, 1)  # constant slopes 3 and 5 around 4

    def test_weights_primitive_and_deepest_positive(self):
        rng = random.Random(23)
        from math import gcd

        built = 0
        while built < 12:
            twists = {f"L{i}": rng.randint(-2, 2) for i in range(rng.randint(2, 3))}
            if len(set(twists.values())) == 1:
                continue
            lat = coordinate_lattice(twists, rng.choice((1, 2)))
            lterm = leading_term(hn_filtration(lat))
            assert gcd(*lterm.weights) == 1
            assert lterm.weights[-1] > 0
            built += 1


class TestCanonicalFiltration:
    def test_two_summands(self, lat_o2_o):
        filt = canonical_filtration(lat_o2_o)
        assert (filt.chain, filt.weights) == (("F", "O2"), (-1, 1))
        assert nu(filt) == NuValue(P({0: 2}), Fraction(2))

    def test_b3(self, lat_b3):
        filt = canonical_filtration(lat_b3)
        assert (filt.chain, filt.weights) == (("F", "O5+O1", "O5"), (-2, -1, 3))
        assert nu(filt) == NuValue(P({0: 14}), Fraction(14))

    def test_semistable(self, lat_trivial):
        with pytest.raises(ObjectSemistable):
            canonical_filtration(lat_trivial)


@pytest.fixture
def nonconvex_three_step():
    lat = coordinate_lattice({"O2": 2, "O1": 1, "O": 0})
    return make_filtration(lat, ("F", "O2+O", "O2"), (-1, 0, 1))


class TestDeleteStep:
    def test_example_deletion(self, nonconvex_three_step):
        f = nonconvex_three_step
        assert nu(f) == NuValue(P({0: 1}), Fraction(2))
        g = delete_step(f, 0)
        assert (g.chain, g.weights) == (("F", "O2"), (-1, 2))
        assert nu(g) == NuValue(P({0: 3}), Fraction(6))
        assert nu_compare(nu(g), nu(f)) == GREATER

    def test_convex_input_has_no_valid_step(self, lat_b3):
        f = make_filtration(lat_b3, ("F", "O5+O1", "O5"), (-2, -1, 3))
        assert is_convex(f)
        for i in range(len(f.weights) - 1):
            with pytest.raises(PreconditionFailed):
                delete_step(f, i)

    def test_boundary_equal_reduced_pieces_allowed(self):
        lat = coordinate_lattice({"A": 2, "B": 2})
        f = make_filtration(lat, ("F", "A"), (0, 1))  # equal graded polys
        g = delete_step(f, 0)
        assert g.chain == ("F",)
        assert nu_compare(nu(g), nu(f)) != LESS

    def test_negative_nu_rejected(self, lat_o2_o):
        f = make_filtration(lat_o2_o, ("F", "O"), (0, 1))
        assert nu_compare(nu(f), NuValue.zero()) == LESS
        # the graded pair is nonconvex here, but nu < 0 blocks deletion
        with pytest.raises(PreconditionFailed):
            delete_step(f, 0)


class TestConvexify:
    def test_single_deletion(self, nonconvex_three_step):
        result = convexify(nonconvex_three_step)
        assert (result.chain, result.weights) == (("F", "O2"), (-1, 2))

    def test_already_convex_unchanged(self, lat_b3):
        f = make_filtration(lat_b3, ("F", "O5+O1", "O5"), (-2, -1, 3))
        assert convexify(f) is f

    def test_two_violations_monotone_log(self):
        from thetastab.canonical import violating_indices

        lat = coordinate_lattice({"O3": 3, "O2": 2, "O1": 1, "O": 0})
        # graded pieces outward-in: O(1), O, O(3), O(2): violations at 0 and 2
        f = make_filtration(lat, ("F", "O3+O2+O", "O3+O2", "O2"), (-2, -1, 0, 1))
        assert violating_indices(f) == [0, 2]
        log = [nu(f)]
        current = f
        deletions = 0
        while not is_convex(current):
            current = delete_step(current, violating_indices(current)[-1])
            log.append(nu(current))
            deletions += 1
        assert deletions == 2
        assert current.chain == ("F", "O3+O2")
        for before, after in zip(log, log[1:]):
            assert nu_compare(after, before) != LESS
        assert convexify(f).chain == current.chain
        assert convexify(f).weights == current.weights

    def test_negative_nu_rejected(self, lat_o2_o):
        f = make_filtration(lat_o2_o, ("F", "O"), (0, 1))
        with pytest.raises(NegativeNu):
            convexify(f)


class TestDeletionMonotonicityRandom:
    def test_randomized(self):
        from thetastab import eventual_compare

        rng = random.Random(101)
        checked = 0
        while checked < 150:
            f = random_path_filtration(rng, max_dim=2, max_steps=4, weight_bound=6)
            if nu_compare(nu(f), NuValue.zero()) == LESS:
                continue
            candidates = [
                i
                for i in range(len(f.weights) - 1)
                if eventual_compare(f.gradeds[i + 1].reduced, f.gradeds[i].reduced)
                != GREATER
            ]
            if not candidates:
                continue
            for i in candidates:
                g = delete_step(f, i)
                assert nu_compare(nu(g), nu(f)) != LESS
            checked += 1
