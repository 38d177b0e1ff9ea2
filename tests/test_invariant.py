import random
from fractions import Fraction

import pytest

from thetastab import (
    EQUAL,
    GREATER,
    LESS,
    NuValue,
    Polytope2,
    RatPoly,
    build_lattice,
    enumerate_chains,
    make_chain,
    make_filtration,
    nu,
    nu_compare,
    nu_delta,
    polytope,
    weight_graded,
    weight_subobject,
)
from thetastab import lattice as lattice_mod
from thetastab import ratpoly as ratpoly_mod
from thetastab.canonical import hn_filtration
from thetastab.errors import BadIndex
from thetastab.invariant import step_table

from conftest import coordinate_lattice
from randgen import random_delta, random_lambda_lattice, random_path_filtration, random_subposet_lattice
from reference_polytope import polytope_subset


def P(mapping):
    return RatPoly(mapping)


def F(x, y=1):
    return Fraction(x, y)


class TestWeightFormulas:
    def test_two_step_graded(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (-1, 1))
        assert weight_graded(filt) == P({0: 2})

    def test_trivial_is_zero(self, lat_o2_o):
        for w in (-3, 0, 7):
            filt = make_filtration(lat_o2_o, ("F",), (w,))
            assert weight_graded(filt).is_zero()
            assert weight_subobject(filt).is_zero()

    def test_nonconvex_fixture_weight(self, lat_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3))
        assert weight_graded(filt) == P({0: 10})

    def test_subobject_single_interval(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (0, 1))
        assert weight_subobject(filt) == P({0: 1})
        assert weight_graded(filt) == P({0: 1})

    def test_formulas_agree_on_fixture_chains(self, lat_b3):
        rng = random.Random(7)
        for chain in enumerate_chains(lat_b3):
            for _ in range(5):
                weights = sorted(rng.sample(range(-8, 9), len(chain.chain)))
                filt = make_filtration(lat_b3, chain.chain, weights)
                assert weight_graded(filt) == weight_subobject(filt)

    def test_formulas_agree_on_random_paths(self):
        rng = random.Random(11)
        for _ in range(200):
            filt = random_path_filtration(rng)
            assert weight_graded(filt) == weight_subobject(filt)


class TestBNorm:
    """The norm b = sum rank(gr) * w^2 of the reported nu."""

    def test_unit_ranks(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (-1, 1))
        assert nu(filt).b == 2

    def test_fixture(self, lat_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3))
        assert nu(filt).b == 10

    def test_rank_two_step(self, lat_b3):
        filt = make_filtration(lat_b3, ("F",), (5,))
        assert nu(filt).b == 3 * 25  # rank(F) = 3

    def test_degenerate(self, lat_o2_o):
        # the trivial filtration with weight 0 has b = 0: nu is the zero value
        filt = make_filtration(lat_o2_o, ("F",), (0,))
        assert nu(filt) == NuValue.zero()


class TestNu:
    def test_sqrt_two(self, lat_o2_o):
        value = nu(make_filtration(lat_o2_o, ("F", "O2"), (-1, 1)))
        assert value == NuValue(P({0: 2}), F(2))

    def test_semistable_lattice_never_positive(self, lat_trivial):
        for w in (-2, -1, 1, 2):
            value = nu(make_filtration(lat_trivial, ("F",), (w,)))
            assert nu_compare(value, NuValue.zero()) != GREATER

    def test_fixture_sqrt_ten(self, lat_b3):
        value = nu(make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3)))
        assert value == NuValue(P({0: 10}), F(10))

    def test_trivial_zero_weight_is_zero_by_convention(self, lat_o2_o):
        value = nu(make_filtration(lat_o2_o, ("F",), (0,)))
        assert nu_compare(value, NuValue.zero()) == EQUAL

    def test_scale_invariance(self, lat_b3):
        rng = random.Random(3)
        for _ in range(20):
            filt = random_path_filtration(rng, max_steps=4)
            value = nu(filt)
            for k in (2, 3, 5):
                scaled = make_filtration(
                    filt.lattice, filt.chain, [k * w for w in filt.weights]
                )
                assert nu_compare(nu(scaled), value) == EQUAL


class TestNuDelta:
    def test_zero_delta_equals_nu(self, lat_b3):
        rng = random.Random(5)
        zero = RatPoly.zero()
        for _ in range(10):
            filt = random_path_filtration(rng, max_steps=4)
            assert nu_delta(filt, zero) == nu(filt)
            assert nu_delta(filt, None) == nu(filt)

    def test_fixture_with_zero_delta(self, lat_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3))
        assert nu_delta(filt, RatPoly.zero()) == NuValue(P({0: 10}), F(10))

    def test_pair_example_direct_expansion(self, lat_o_o1, pair_o_o1):
        # chain (F, O), weights (0, 1), delta = 1:
        # only the deepest step contributes: (p_O - 1/2 - p_F) = -1
        filt = make_filtration(lat_o_o1, ("F", "O"), (0, 1), pair_o_o1)
        value = nu_delta(filt, P({0: 1}))
        assert value == NuValue(P({0: -1}), F(1))
        assert nu_compare(value, NuValue.zero()) == LESS

    def test_laurent_delta(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (-1, 1))
        value = nu_delta(filt, P({-1: 1}))
        # weight mass is 0 here ((-1) + 1 times unit ranks), so no twist
        assert value.L == P({0: 2})
        filt2 = make_filtration(lat_o2_o, ("F", "O2"), (0, 1))
        value2 = nu_delta(filt2, P({-1: 2}))
        assert value2.L == P({0: 1, -1: -1})


class TestPolytopes:
    def test_two_step_hull(self, lat_o2_o):
        chain = make_chain(lat_o2_o, ("F", "O2"))
        hull = polytope(chain, 0)
        assert set(hull.vertices) == {(0, 0), (-3, 1), (-4, 2)}

    def test_hn_hull_of_fixture(self, lat_b3):
        chain = hn_filtration(lat_b3)
        hull = polytope(chain, 0)
        assert set(hull.vertices) == {(0, 0), (-6, 1), (-8, 2), (-9, 3)}

    def test_trivial_chain_is_segment(self, lat_b3):
        chain = make_chain(lat_b3, ("F",))
        hull = polytope(chain, 0)
        assert hull.vertices == ((-9, 3), (0, 0))

    def test_bad_index(self, lat_b3):
        with pytest.raises(BadIndex):
            polytope(make_chain(lat_b3, ("F",)), 1)

    def test_reflexive_subset(self, lat_b3):
        hull = polytope(hn_filtration(lat_b3), 0)
        assert polytope_subset(hull, hull)

    def test_segment_inside_hull(self, lat_b3):
        big = polytope(hn_filtration(lat_b3), 0)
        segment = Polytope2.hull([(0, 0), (F(-9), F(3))])
        assert polytope_subset(segment, big)
        assert not polytope_subset(big, segment)

    def test_subchain_hull_contained(self, lat_b3):
        big = polytope(hn_filtration(lat_b3), 0)
        small = polytope(make_chain(lat_b3, ("F", "O5")), 0)
        assert polytope_subset(small, big)

    def test_partial_order_on_random_hulls(self):
        rng = random.Random(13)
        hulls = []
        for _ in range(12):
            points = [
                (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6)))
                for _ in range(rng.randint(1, 7))
            ]
            hulls.append(Polytope2.hull(points))
        for a in hulls:
            assert polytope_subset(a, a)
            for b in hulls:
                if polytope_subset(a, b) and polytope_subset(b, a):
                    assert set(a.vertices) == set(b.vertices)
                for c in hulls:
                    if polytope_subset(a, b) and polytope_subset(b, c):
                        assert polytope_subset(a, c)


class TestStepTableReadsTheIntegerTable:
    """step_table reads each member's integer row off the lattice's table:
    no member statistics, no reduced polynomial and no RatPoly +, - or *,
    on any lattice or form of delta, d = 2000 included."""

    FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")

    def test_no_statistics_and_no_ratpoly_arithmetic(self, monkeypatch):
        rng = random.Random(20261030)
        cases = []
        for form in self.FORMS:
            d = rng.choice((1, 2))
            for lat in (coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 4))}, d),
                        random_subposet_lattice(rng, rng.randint(2, 4), d, 0.6),
                        random_lambda_lattice(rng, rng.randint(2, 4), d, 0.3),
                        build_lattice(2000, {"0": {}, "E": {2000: 1, 0: 5}, "F": {2000: 2, 0: 1}}, [("E", "F")])):
                cases.append((lat, random_delta(rng, lat.dim, form), [c.chain for c in enumerate_chains(lat)]))

        def fail(*args):
            raise AssertionError("the step table read statistics or did RatPoly arithmetic")

        monkeypatch.setattr(lattice_mod.ObjectClass, "stats", property(fail))
        monkeypatch.setattr(ratpoly_mod.HilbertStats, "reduced", property(fail))
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(RatPoly, name, fail)
        entries = 0
        for lat, delta, chains in cases:
            steps_of = step_table(lat, delta)
            for ids in chains:
                ranks, contribs = steps_of(ids)
                assert len(ranks) == len(contribs) == len(ids)
                entries += len(ids)
        assert entries > 500, entries
