import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from thetastab import (
    EQUAL,
    GREATER,
    NuValue,
    PairObject,
    RatPoly,
    brute_force_max,
    build_lattice,
    canonical_filtration,
    enumerate_chains,
    make_chain,
    make_filtration,
    maximize_weights,
    nu,
    nu_compare,
    nu_delta,
    pair_canonical,
    pair_semistable,
    primitive_weights,
)
from thetastab import invariant, oracle, pairs
from thetastab import lattice as lattice_mod
from thetastab.errors import FlatObjective, ObjectSemistable, Semistable
from thetastab.latfile import load_lattice
from thetastab.lattice import pair_pivot_index
from thetastab.pairs import saturated_chains
from thetastab.ratpoly import LESS, eventual_compare

from conftest import FIXTURES, coordinate_lattice, sum_lattice
from randgen import random_coprime_lattice, random_delta, random_lambda_lattice, random_subposet_lattice
from reference_high_degree import pair_canonical_high_degree
from reference_maximizer import (
    all_chains_pair_canonical,
    chain_search_max,
    face_enumeration_max,
)
import reference_coordinate
import reference_pair_canonical
import reference_semistable
from reference_ratpoly import leading_coeff


def P(mapping):
    return RatPoly(mapping)


def const(x):
    return RatPoly.const(Fraction(x))


def subposet_families(seed, keep=0.6):
    """The two families of each sub-poset arm, as (name, rng, draw) with
    draw(rng, k, d) a lattice: coordinate lattices with members dropped
    (kept with probability keep), from random.Random(seed), and
    Lambda-module lattices (randgen.random_lambda_lattice), from a
    generator of their own, so the sub-poset draws stay those of seed."""
    return (
        ("sub-poset", random.Random(seed), lambda rng, k, d: random_subposet_lattice(rng, k, d, keep)),
        ("lambda", random.Random(f"lambda {seed}"), lambda rng, k, d: random_lambda_lattice(rng, k, d, 0.3)),
    )


def pivot_of(lat, ids, pair):
    """The chain index the pair constraint holds at: the deepest member
    containing the marked image, or None without a framing map."""
    beta = None if pair is None else pair.beta_image
    return None if beta is None else pair_pivot_index(ids, lat, beta)


def table_ranks(chain):
    """Each step's rank on the lattice's integer table, N_sup[d] - N_sub[d]."""
    rows, d = chain.lattice.numerators, chain.lattice.dim
    return [rows[sup][d] - rows[sub][d] for sub, sup in chain.steps]


def maximize(lat, ids, pair, delta):
    """maximize_weights on the chain's ids, its own graded ranks and
    contributions at delta, and the pair's pivot, computed as the
    references compute them."""
    ranks = tuple(g.rank for g in make_chain(lat, ids).gradeds)
    contribs = invariant.step_table(lat, delta)(ids)[1]
    return maximize_weights(ids, ranks, contribs, pivot_of(lat, ids, pair))


class TestPairSemistable:
    def test_wall_at_one(self, pair_o_o1):
        verdict, witness = pair_semistable(pair_o_o1, const(1))
        assert verdict and witness is None

    def test_below_wall(self, pair_o_o1):
        verdict, witness = pair_semistable(pair_o_o1, const(Fraction(1, 2)))
        assert not verdict and witness.id == "O1"

    def test_above_wall(self, pair_o_o1):
        verdict, witness = pair_semistable(pair_o_o1, const(2))
        assert not verdict and witness.id == "O"

    def test_delta_zero_routes_to_gieseker(self, lat_b3, pair_b3):
        verdict, witness = pair_semistable(pair_b3, RatPoly.zero())
        assert not verdict and witness.id == "O5"

    def test_delta_zero_semistable_pair(self):
        lat = coordinate_lattice({"A": 0, "B": 0})
        pair = PairObject(lattice=lat, beta_image="A")
        assert pair_semistable(pair, RatPoly.zero()) == (True, None)

    def test_negative_delta_always_unstable(self, pair_o_o1):
        assert pair_semistable(pair_o_o1, const(-1))[0] is False
        assert pair_semistable(pair_o_o1, P({1: -1}))[0] is False

    def test_zero_framing_map_unstable_for_positive_delta(self, lat_o_o1):
        pair = PairObject(lattice=lat_o_o1, beta_image=None)
        assert pair_semistable(pair, const(1))[0] is False

    def test_big_degree_depends_only_on_image(self, lat_o_o1, pair_o_o1):
        assert pair_semistable(pair_o_o1, P({1: 1}))[0] is False
        full = PairObject(lattice=lat_o_o1, beta_image="F")
        assert pair_semistable(full, P({1: 1})) == (True, None)

    def test_tiny_laurent_delta(self):
        # deg(delta) <= -1 and delta > 0: semistability needs a nonzero
        # framing, a semistable underlying object, and no proper subobject
        # of equal reduced polynomial containing the image
        lat = coordinate_lattice({"A": 0, "B": 0})
        tiny = P({-1: 1})
        full = PairObject(lattice=lat, beta_image="F")
        assert pair_semistable(full, tiny) == (True, None)
        nopair = PairObject(lattice=lat, beta_image=None)
        assert pair_semistable(nopair, tiny)[0] is False
        into_summand = PairObject(lattice=lat, beta_image="A")
        verdict, witness = pair_semistable(into_summand, tiny)
        assert not verdict and witness.id == "A"


class TestPairSemistableRows:
    """pair_semistable's twisted rows run over the exponents that occur,
    0..d and delta's own, not over every integer between them."""

    def test_rows_have_one_entry_per_exponent_that_occurs(self, monkeypatch):
        rows = []
        original = pairs.destabilizing_member

        def spy(lat, numerators=None):
            rows.extend(numerators.values())
            return original(lat, numerators)

        monkeypatch.setattr(pairs, "destabilizing_member", spy)
        lat = coordinate_lattice({"A": 0, "B": 1, "C": 3}, 2)
        pair = PairObject(lattice=lat, beta_image="A")
        for delta in (P({100000: 1}), P({100000: 1, 1: Fraction(-1, 3), -7: 2}), P({-100000: 1})):
            rows.clear()
            pair_semistable(pair, delta)
            width = lat.dim + 1 + sum(e not in range(lat.dim + 1) for e, _ in delta.items())
            assert rows and all(len(row) == width for row in rows), (delta, width)

    def test_untwisted_rows_are_the_tables_own(self, monkeypatch):
        # at delta = 0 and delta = 1 (E = 1, exponents in 0..d) no row needs
        # rescaling: each member outside beta's up-set hands on its table
        # tuple itself, and the up-set a new row only when twisted (delta = 1)
        seen = []
        original = pairs.destabilizing_member

        def spy(lat, numerators=None):
            seen.append(numerators)
            return original(lat, numerators)

        monkeypatch.setattr(pairs, "destabilizing_member", spy)
        for k, beta in ((3, "L0"), (5, "L2+L0")):
            lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)})
            up = {beta, *lat.above(beta)}
            for delta in (RatPoly.zero(), const(1)):
                seen.clear()
                pair_semistable(PairObject(lattice=lat, beta_image=beta), delta)
                (rows,) = seen
                assert rows == {m: rows[m] for m in lat.numerators}
                for member, row in rows.items():
                    shared = row is lat.numerators[member]
                    assert shared == (delta.is_zero() or member not in up), (k, delta, member)

    def test_spreading_the_exponents_changes_no_verdict(self):
        # only the order of the exponents matters: moving delta's exponents
        # above d up by 1000, and its negative ones down by 1000, leaves
        # every verdict and witness as it was
        for _, rng, draw in subposet_families(20261019, 0.7):
            for _ in range(100):
                d = rng.choice((1, 2))
                lat = draw(rng, rng.randint(2, 4), d)
                pair = PairObject(lattice=lat, beta_image=rng.choice(lat.nonzero_ids()))
                terms = {rng.randint(-3, d + 3): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)}
                spread = {e + 1000 * ((e > d) - (e < 0)): c for e, c in terms.items()}
                assert pair_semistable(pair, P(terms)) == pair_semistable(pair, P(spread)), terms


def _regime(pair, delta):
    """The branch of the regime-by-regime reference that decides the pair."""
    if delta is None or delta.is_zero():
        return "zero"
    if leading_coeff(delta) < 0:
        return "negative"
    if delta.degree() >= pair.lattice.dim:
        return "big degree"
    return "Le Potier" if pair.beta_image is not None else "zero framing"


class TestPairSemistableAgainstRegimes:
    def test_seeded_against_reference(self):
        # one Gieseker test on p_delta against the regime-by-regime
        # verdict it replaced: same verdict and witness id over coordinate
        # lattices on P^1..P^3 with 1..5 summands (every third with equal
        # twists), beta None, the top or a proper member, and every form of
        # delta; every regime meets every verdict it can give
        rng = random.Random(20261018)
        forms = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")
        seen = set()
        cases = 0
        for d in (1, 2, 3):
            for k in range(1, 6):
                for rep in range(3):
                    twist = rng.randint(-2, 2)
                    twists = {
                        f"L{i}": twist if rep == 0 else rng.randint(-2, 2) for i in range(k)
                    }
                    lat = coordinate_lattice(twists, d)
                    proper = list(lat.proper_nonzero_ids())
                    betas = [None, lat.top_id] + rng.sample(proper, min(len(proper), 3))
                    for beta in betas:
                        pair = PairObject(lattice=lat, beta_image=beta)
                        for form in forms:
                            delta = random_delta(rng, d, form)
                            verdict, witness = pair_semistable(pair, delta)
                            ref_verdict, ref_witness = reference_semistable.pair_semistable(
                                pair, delta
                            )
                            assert (verdict, getattr(witness, "id", None)) == (
                                ref_verdict, getattr(ref_witness, "id", None)
                            ), (twists, d, beta, delta)
                            seen.add((_regime(pair, delta), verdict))
                            cases += 1
        assert cases > 1000
        assert seen == {
            ("zero", True), ("zero", False), ("negative", False),
            ("big degree", True), ("big degree", False), ("zero framing", False),
            ("Le Potier", True), ("Le Potier", False),
        }, seen

    def test_seeded_subposets(self):
        # the same on coordinate lattices with members dropped, which are
        # not closed under sums: summation by parts needs none, so the
        # verdict and witness still match the reference, and an unstable
        # verdict is the oracle's, found with weights in {-1, 0, 1}; and on
        # Lambda-module lattices, which are
        forms = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")
        for family, rng, draw in subposet_families(20261104):
            seen = set()
            for trial in range(60):
                d = rng.choice((1, 2))
                lat = draw(rng, rng.randint(2, 4), d)
                pair = PairObject(lattice=lat, beta_image=rng.choice([None, *lat.nonzero_ids()]))
                delta = random_delta(rng, d, forms[trial % len(forms)])
                verdict, witness = pair_semistable(pair, delta)
                ref_verdict, ref_witness = reference_semistable.pair_semistable(pair, delta)
                assert (verdict, getattr(witness, "id", None)) == (
                    ref_verdict, getattr(ref_witness, "id", None)
                ), (lat.ids(), pair.beta_image, delta)
                assert verdict == (brute_force_max(lat, pair=pair, delta=delta, bound=1).best is None)
                seen.add((_regime(pair, delta), verdict))
            assert {("zero", True), ("zero", False), ("Le Potier", True), ("Le Potier", False)} <= seen, (family, seen)

    def test_big_degree_witness_is_the_marked_image(self, lat_b3):
        # for deg(delta) >= d every proper member containing the image
        # beats the ambient object, and the image, of least rank, wins
        for beta in ("O", "O5+O1", "O1"):
            pair = PairObject(lattice=lat_b3, beta_image=beta)
            for delta in (P({1: Fraction(1, 100)}), P({1: 1, 0: -50}), P({2: 1})):
                verdict, witness = pair_semistable(pair, delta)
                assert not verdict and witness.id == beta


class TestVerdictIsAMarginSignTest:
    """pair_semistable and the step table read the same rows
    (invariant.table_rows), and the verdict is a sign test on the step
    table's member values.  With a(G) = step_table(lat, delta)((G,))[1][0]
    and the margin m(G) = a(G) + [beta <= G] * delta = rank(G) * (p_delta(G)
    - tau), a pair is semistable exactly when no proper member's margin is
    eventually positive, and an unstable verdict's witness maximizes
    m(G) / rank(G), ties going to the larger (rank, id)."""

    FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")
    FAMILIES = ("coordinate", "sub-poset", "coprime", "lambda")

    @classmethod
    def draws(cls, seed, count):
        rng = random.Random(seed)
        _, lambda_rng, draw_lambda = subposet_families(seed)[1]
        for n in range(count):
            family, form, d = cls.FAMILIES[n // 7 % 4], cls.FORMS[n % 7], rng.choice((1, 2))
            if family == "coordinate":
                lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 4))}, d)
            elif family == "sub-poset":
                lat = random_subposet_lattice(rng, rng.randint(2, 4), d, 0.6)
            elif family == "coprime":
                lat = random_coprime_lattice(rng, rng.randint(2, 3), d)
            else:
                lat = draw_lambda(lambda_rng, rng.randint(2, 4), d)
            beta = rng.choice((None, *lat.nonzero_ids()))
            yield family, PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, form)

    def test_verdict_and_witness_from_the_margins(self):
        seen = Counter()
        zero = RatPoly.zero()
        for family, pair, delta in self.draws(13, 600):
            lat, beta = pair.lattice, pair.beta_image
            verdict, witness = pair_semistable(pair, delta)
            twist = zero if delta is None else delta
            sign = eventual_compare(twist, zero)
            if sign == LESS or (sign == GREATER and beta is None):  # the trivial chain destabilizes
                assert (verdict, witness) == (False, None), (family, beta, delta)
                seen["trivial chain"] += 1
                continue
            steps_of = invariant.step_table(lat, delta)
            up = set() if beta is None else {beta, *lat.above(beta)}
            margins = {g: steps_of((g,))[1][0] + (twist if g in up else zero) for g in lat.proper_nonzero_ids()}
            positive = [g for g, m in margins.items() if eventual_compare(m, zero) == GREATER]
            assert verdict == (not positive), (family, beta, delta, positive)
            if verdict:
                seen["semistable"] += 1
                seen["zero margin"] += any(m.is_zero() for m in margins.values())
                continue
            rank = {g: lat.numerators[g][lat.dim] for g in margins}  # positive multiples of the ranks, one scale
            best = positive[0]
            for g in positive:
                order = eventual_compare(margins[g] * rank[best], margins[best] * rank[g])
                if order == GREATER or (order == EQUAL and (rank[g], g) > (rank[best], best)):
                    best = g
            assert witness.id == best, (family, beta, delta, witness.id, best)
            seen["unstable", family] += 1
        assert seen["semistable"] and seen["zero margin"] and seen["trivial chain"], seen
        assert all(seen["unstable", family] for family in self.FAMILIES), seen


class TestPairCanonicalAsksFirst:
    @staticmethod
    def semistable_pairs():
        # the o_o1 wall at delta = 1, and built pairs: equal twists at
        # delta = 0 (Gieseker semistable), and an image equal to the top
        # with a delta large enough to lift the ambient over every member
        o_o1 = coordinate_lattice({"O": 0, "O1": 1})
        equal = coordinate_lattice({"A": 0, "B": 0, "C": 0})
        equal2 = coordinate_lattice({"A": 1, "B": 1}, 2)
        spread = coordinate_lattice({"A": 0, "B": 1})
        spread2 = coordinate_lattice({"A": 0, "B": 1, "C": 2}, 2)
        return [
            (PairObject(lattice=o_o1, beta_image="O"), const(1)),
            (PairObject(lattice=equal, beta_image=None), RatPoly.zero()),
            (PairObject(lattice=equal, beta_image="A"), None),
            (PairObject(lattice=equal, beta_image="F"), const(Fraction(1, 2))),
            (PairObject(lattice=equal, beta_image="F"), P({-1: 1})),
            (PairObject(lattice=equal2, beta_image="F"), P({1: 1, 0: -3})),
            (PairObject(lattice=spread, beta_image="F"), const(3)),
            (PairObject(lattice=spread2, beta_image="F"), P({1: 5})),
        ]

    def test_raises_semistable_without_walking_chains(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a semistable pair needs no chain and no oracle")

        for pair, delta in self.semistable_pairs():
            assert pair_semistable(pair, delta) == (True, None)
            # the path that walks every chain and ends in the oracle agrees
            with pytest.raises(Semistable):
                all_chains_pair_canonical(pair, RatPoly.zero() if delta is None else delta, 2)
        monkeypatch.setattr(oracle, "brute_force_max", fail)
        monkeypatch.setattr(pairs, "saturated_chains", fail)
        for pair, delta in self.semistable_pairs():
            with pytest.raises(Semistable, match="no destabilizing filtration exists"):
                pair_canonical(pair, delta)


class TestHighDegreeCanonical:
    """deg(delta) >= d through the one pair_canonical path, checked against
    the closed-form branch it replaced (reference_high_degree)."""

    @staticmethod
    def canonical(pair, delta):
        result = pair_canonical(pair, delta)
        assert result.source == "closed-form"
        assert result.filtration == pair_canonical_high_degree(pair, delta)
        return result

    def test_negative_delta_one_step(self, pair_o_o1):
        result = self.canonical(pair_o_o1, P({2: -1}))
        assert (result.filtration.chain, result.filtration.weights) == (("F",), (1,))
        # leading coefficient is -delta_D / sqrt(rank F): here 1/sqrt(2)
        assert result.value.L == P({2: 1}) and result.value.b == 2
        assert nu_compare(result.value, NuValue.zero()) == GREATER

    def test_positive_delta_two_step(self, lat_b3, pair_b3):
        result = self.canonical(pair_b3, P({1: 1}))
        assert (result.filtration.chain, result.filtration.weights) == (("F", "O"), (-1, 0))
        # (n/3 - 1) * sqrt(2), kept exact as L = (2/3)n - 2 over sqrt(2)
        assert result.value == NuValue(P({1: Fraction(2, 3), 0: -2}), Fraction(2))

    def test_full_image_semistable(self, lat_o_o1):
        pair = PairObject(lattice=lat_o_o1, beta_image="F")
        with pytest.raises(Semistable):
            pair_canonical_high_degree(pair, P({1: 1}))
        with pytest.raises(Semistable):
            pair_canonical(pair, P({1: 1}))

    def test_degree_too_low(self, pair_o_o1):
        # the reference covers deg(delta) >= d only; pair_canonical takes
        # every delta on the same path
        with pytest.raises(ValueError):
            pair_canonical_high_degree(pair_o_o1, const(Fraction(1, 2)))
        result = pair_canonical(pair_o_o1, const(Fraction(1, 2)))
        assert result.source == "closed-form"
        assert result.filtration.chain == ("F", "O1")

    def test_zero_framing_map(self, lat_o_o1):
        pair = PairObject(lattice=lat_o_o1, beta_image=None)
        result = self.canonical(pair, P({1: 1}))
        assert (result.filtration.chain, result.filtration.weights) == (("F",), (-1,))
        assert nu_compare(result.value, NuValue.zero()) == GREATER

    def test_seeded_against_reference(self):
        # coordinate lattices on P^1..P^3, deg(delta) in [d, d + 2] of both
        # signs, beta None, the top or a proper member: the same filtration,
        # or Semistable on both sides
        rng = random.Random(20261019)
        outcomes = {"unstable": 0, "semistable": 0}
        for d in (1, 2, 3):
            for _ in range(12):
                k = rng.randint(1, 4)
                lat = coordinate_lattice({f"L{i}": rng.randint(-2, 2) for i in range(k)}, d)
                beta = rng.choice([None, lat.top_id, *lat.proper_nonzero_ids()])
                pair = PairObject(lattice=lat, beta_image=beta)
                top = rng.randint(d, d + 2)
                terms = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in range(-1, top)}
                terms[top] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                delta = RatPoly(terms)
                try:
                    expected = pair_canonical_high_degree(pair, delta)
                except Semistable:
                    with pytest.raises(Semistable):
                        pair_canonical(pair, delta)
                    outcomes["semistable"] += 1
                    continue
                result = pair_canonical(pair, delta)
                assert result.filtration == expected, (d, beta, delta)
                assert result.value == nu_delta(expected, delta)
                outcomes["unstable"] += 1
        assert all(outcomes.values()), outcomes


def _coefficient(f, delta, exponent):
    """The n^exponent coefficient of the pair invariant, as a NuValue."""
    value = nu_delta(f, delta)
    return NuValue(RatPoly.const(value.L.coeff(exponent)), value.b)


class TestNuSlopeCoeff:
    """The degree-(d-1) coefficient of the invariant, read off nu_delta."""

    def test_matches_nu_in_degree_zero(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (-1, 1))
        assert _coefficient(filt, RatPoly.zero(), 0) == NuValue(P({0: 2}), Fraction(2))

    def test_flat_when_slopes_sit_at_twisted_ambient(self):
        # equal twists put every graded slope at the ambient slope, so the
        # coefficient vanishes for every weighting
        lat = coordinate_lattice({"A": 0, "B": 0})
        pair = PairObject(lattice=lat, beta_image="A")
        for weights in ((0, 1), (-3, 5)):
            f = make_filtration(lat, ("F", "A"), weights, pair)
            assert _coefficient(f, RatPoly.zero(), 0).L.is_zero()

    def test_fixture_top_coefficient(self, lat_b3, pair_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3), pair_b3)
        assert _coefficient(filt, RatPoly.zero(), 0) == NuValue(P({0: 10}), Fraction(10))


class TestMaximizeWeights:
    def test_pair_example_pins_image_weight(self, lat_b3, pair_b3):
        result = maximize(lat_b3, ("F", "O5+O", "O5"), pair_b3, RatPoly.zero())
        assert result.chain == ("F", "O5+O", "O5")
        assert primitive_weights(result.weights) == (-1, 0, 3)
        assert result.pinned == 1
        assert result.value == NuValue(P({0: 10}), Fraction(10))

    def test_unconstrained_beats_pair(self, lat_b3):
        result = maximize(lat_b3, ("F", "O5+O1", "O5"), None, RatPoly.zero())
        assert primitive_weights(result.weights) == (-2, -1, 3)
        # squared value 14 > squared value 10
        assert result.value == NuValue(P({0: 14}), Fraction(14))

    def test_order_violation_merges_once(self, lat_b3):
        result = maximize(lat_b3, ("F", "O5+O", "O5"), None, RatPoly.zero())
        assert result.chain == ("F", "O5")
        assert primitive_weights(result.weights) == (-1, 2)
        # value sqrt(27/2)
        assert nu_compare(result.value, NuValue(P({0: 27}), Fraction(54))) == EQUAL

    def test_flat_objective(self):
        lat = coordinate_lattice({"A": 0, "B": 0})
        assert maximize(lat, ("F", "A"), None, RatPoly.zero()) is None

    def test_trivial_chain_with_pair_negative_max(self, lat_o_o1, pair_o_o1):
        # only direction is w > 0; objective coefficient is -delta_0 < 0,
        # so no weight is positive and there is no maximizer to report
        assert maximize(lat_o_o1, ("F",), pair_o_o1, const(1)) is None


class TestMaximizerValue:
    """WeightMaximum.value is the whole invariant at the fitted weights, so
    it ranks chains exactly as the filtration it names would."""

    @staticmethod
    def cases(seed):
        # coordinate lattices at every form of delta, and equal-slope sums
        # at low-degree deltas, where the descent stops below degree d-1
        rng = random.Random(seed)
        forms = ("zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")
        for trial in range(24):
            d = rng.choice((1, 2, 3))
            lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(1, 4))}, d)
            beta = rng.choice([None, *lat.nonzero_ids()])
            yield PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, forms[trial % 6])
        yield from TestFlatRegime.cases(seed, 2)

    def test_value_is_nu_of_the_primitive_filtration(self):
        lower = chains = 0
        for pair, delta in self.cases(20261018):
            lat = pair.lattice
            for ids in saturated_chains(lat):
                wm = maximize(lat, ids, pair, delta)
                if wm is None:
                    continue
                filt = make_filtration(lat, wm.chain, primitive_weights(wm.weights), pair)
                assert nu_compare(wm.value, nu_delta(filt, delta)) == EQUAL, (ids, delta)
                assert nu_compare(wm.value, NuValue.zero()) == GREATER
                chains += 1
                lower += wm.value.L.degree() < lat.dim - 1
        assert chains >= 150 and lower >= 20, (chains, lower)

    @staticmethod
    def subposet_cases(seed):
        forms = ("zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")
        for _, rng, draw in subposet_families(seed):
            for trial in range(18):
                d = rng.choice((1, 2))
                lat = draw(rng, rng.randint(2, 4), d)
                beta = rng.choice([None, *lat.nonzero_ids()])
                yield PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, forms[trial % 6])

    def test_leading_term_is_the_norm_at_the_stopping_exponent(self):
        # the fit is the R-orthogonal projection of x = u / r onto a closed
        # convex cone, so <fit, u> = |fit|_R^2 = b: nu leads with
        # sqrt(b) n^exponent, the key pair_canonical ranks chains on
        pinned = lower = 0
        cases = [*self.cases(20261018), *self.subposet_cases(20261019)]
        for pair, delta in cases:
            lat = pair.lattice
            for ids in saturated_chains(lat):
                wm = maximize(lat, ids, pair, delta)
                if wm is None:
                    continue
                assert wm.value.L.degree() == wm.exponent, (ids, delta)
                assert leading_coeff(wm.value.L) == wm.value.b == wm.b, (ids, delta)
                pinned += wm.pinned is not None
                lower += wm.exponent < lat.dim - 1
        assert pinned and lower, (pinned, lower)

    def test_the_full_value_breaks_a_tie_on_the_leading_term(self):
        # A and B have equal ranks and n-coefficients, so (F, A) and (F, B)
        # tie on (exponent, b); B's larger constant term wins, although the
        # tie-break on ids alone would pick A
        lat = build_lattice(2, {
            "0": {}, "A": {2: 1, 1: 1, 0: -2}, "B": {2: 1, 1: 1, 0: 2}, "F": {2: Fraction(3, 2), 1: 1, 0: 2},
        })
        pair = PairObject(lattice=lat, beta_image=None)
        a, b = (maximize(lat, ("F", m), pair, RatPoly.zero()) for m in "AB")
        assert (a.exponent, a.b) == (b.exponent, b.b)
        assert nu_compare(b.value, a.value) == GREATER
        result = pair_canonical(pair, RatPoly.zero())
        assert (result.filtration.chain, result.filtration.weights) == (("F", "B"), (-2, 1))
        oracle_result = brute_force_max(lat, bound=2)
        assert (oracle_result.best, oracle_result.value) == (result.filtration, result.value)

    def test_pair_canonical_builds_only_the_winner(self, monkeypatch):
        # chains are ranked on (exponent, b); the full value (dot) is only
        # computed for the 12 of 120 chains that tie the incumbent on both,
        # and once more for the winner's nu.  The query's step table lays
        # delta over the lattice's table once (one table_rows call, from the
        # table alone: no member statistics), and makes the entry of each
        # of the 80 steps (sub, sup) of the walk once, from two of its rows,
        # not once per chain through it (600 chain-steps): no RatPoly
        # subtraction, and no quotient.  The winner is valued on the same
        # table; it is saturated here, so it adds no step
        calls = dict.fromkeys(
            ("maximize_weights", "make_filtration", "nu_on", "dot", "table_rows", "entries", "subtractions"), 0)
        stats_reads = Counter()
        requested = set()  # the steps the chains ask their query's table for
        inside = []  # nonempty while a step table answers

        def counting(module, name):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapped

        def spied_table(lat, delta):
            steps_of = real_table(lat, delta)

            def spied(ids):
                requested.update(zip(ids[1:] + (lat.zero_id,), ids))
                inside.append(ids)
                try:
                    return steps_of(ids)
                finally:
                    inside.pop()
            return spied

        def entry(cls, clean, real=RatPoly._of):  # a step's entry is the one RatPoly a table makes
            calls["entries"] += bool(inside)
            return real(clean)

        def fail(*args):
            raise AssertionError("a search forms no quotient")

        def subtraction(x, y, real=RatPoly.__sub__):
            calls["subtractions"] += 1
            return real(x, y)

        # each where it is called: table_rows by step_table in invariant,
        # so pair_semistable's own call (through pairs) is not counted
        for name in ("maximize_weights", "make_filtration", "nu_on", "dot", "table_rows"):
            module = pairs if name == "maximize_weights" else invariant
            monkeypatch.setattr(module, name, counting(module, name))
        real_table, real_stats = pairs.step_table, lattice_mod.ObjectClass.stats
        monkeypatch.setattr(pairs, "step_table", spied_table)
        monkeypatch.setattr(RatPoly, "_of", classmethod(entry))
        monkeypatch.setattr(lattice_mod, "quotient_poly", fail)
        monkeypatch.setattr(RatPoly, "__sub__", subtraction)
        monkeypatch.setattr(lattice_mod.ObjectClass, "stats", property(
            lambda member: stats_reads.update([member.id]) or real_stats.__get__(member, lattice_mod.ObjectClass)))
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(5)})
        result = pair_canonical(PairObject(lattice=lat, beta_image="L0"), const(Fraction(1, 2)))
        expected = {"maximize_weights": 120, "make_filtration": 1, "nu_on": 1, "dot": 13,
                    "table_rows": 1, "entries": 80, "subtractions": 0}
        assert calls == expected and len(requested) == 80
        assert not stats_reads
        for pair, delta in TestPairCanonicalAsksFirst.semistable_pairs():
            with pytest.raises(Semistable):
                pair_canonical(pair, delta)
        assert calls == expected
        assert result.value == nu_delta(result.filtration, const(Fraction(1, 2)))
        # one table_rows call and k * 2^(k-1) step entries (the edges of
        # the k-cube) for k! saturated chains
        for k in (3, 4):
            calls.update(dict.fromkeys(calls, 0))
            stats_reads.clear(), requested.clear()
            lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)})
            pair_canonical(PairObject(lattice=lat, beta_image="L0"), const(Fraction(1, 2)))
            assert (len(requested), calls["maximize_weights"]) == (k * 2 ** (k - 1), factorial(k))
            assert (calls["table_rows"], calls["entries"]) == (1, k * 2 ** (k - 1))
            assert not stats_reads and calls["subtractions"] == 0


class TestPairCanonicalFeedsTheMaximizer:
    """pair_canonical hands maximize_weights each chain's ids, its ranks
    and contributions, read from its per-call step table, and the chain's
    pivot: on every call the ranks must be the integers N_sup[d] -
    N_sub[d] of the lattice's table, the graded ranks over rank_scale, the
    contributions the chain's own at delta and the pivot that of the
    marked image, or None without a framing map."""

    FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")

    @classmethod
    def cases(cls, seed):
        # coordinate lattices (k <= 5), sub-posets (k <= 4) and, from a
        # generator of their own, Lambda-module lattices (k <= 4), at every
        # form of delta, with and without a marked image
        rng = random.Random(seed)
        for form, kind, framed, _ in product(cls.FORMS, ("coordinate", "sub-poset"), (True, False), range(2)):
            d = rng.choice((1, 2))
            if kind == "coordinate":
                lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 5))}, d)
            else:
                lat = random_subposet_lattice(rng, rng.randint(2, 4), d, 0.6)
            beta = rng.choice(lat.nonzero_ids()) if framed else None
            yield kind, PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, form)
        _, rng, draw = subposet_families(seed)[1]
        for form, framed in product(cls.FORMS, (True, False)):
            d = rng.choice((1, 2))
            lat = draw(rng, rng.randint(2, 4), d)
            beta = rng.choice(lat.nonzero_ids()) if framed else None
            yield "lambda", PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, form)

    def test_every_call_gets_the_chains_contributions_and_pivot(self, monkeypatch):
        calls = []
        original = pairs.maximize_weights

        def spy(ids, ranks, contribs, pivot):
            calls.append((ids, ranks, contribs, pivot))
            return original(ids, ranks, contribs, pivot)

        monkeypatch.setattr(pairs, "maximize_weights", spy)
        seen = Counter()
        for kind, pair, delta in self.cases(20261019):
            calls.clear()
            try:
                pair_canonical(pair, delta)
            except Semistable:
                seen["semistable"] += 1
                continue
            lat = pair.lattice
            for ids, ranks, contribs, pivot in calls:
                chain = make_chain(lat, ids)
                assert all(type(r) is int for r in ranks) and list(ranks) == table_ranks(chain), ids
                assert [r * lat.rank_scale for r in ranks] == [g.rank for g in chain.gradeds], ids
                assert tuple(contribs) == invariant.step_table(lat, delta)(ids)[1], (ids, delta)
                assert pivot == pivot_of(lat, ids, pair), (ids, pair.beta_image)
            seen[kind, pair.beta_image is not None] += 1
            seen["calls"] += len(calls)
        assert seen["semistable"] and seen["calls"] >= 500, seen
        assert all(seen[key] for key in product(("coordinate", "sub-poset", "lambda"), (True, False))), seen


class TestStepTableScale:
    """A step table's rank of sup/sub is the integer N_sup[d] - N_sub[d] of
    the lattice's table, the graded rank over rank_scale = d!/D.  One
    positive factor for every step of a lattice keeps the maximizer's
    chain, primitive weights, exponent and pinned step, and moves its
    weights, b and value exactly."""

    @staticmethod
    def cases(seed):
        # coordinate, sub-poset and coprime lattices, and Lambda-module
        # lattices from a generator of their own, at every form of delta,
        # with and without a marked image
        rng = random.Random(seed)
        for form, kind in product(TestPairCanonicalFeedsTheMaximizer.FORMS, ("coordinate", "sub-poset", "coprime")):
            d = rng.choice((1, 2))
            if kind == "coordinate":
                lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 4))}, d)
            elif kind == "sub-poset":
                lat = random_subposet_lattice(rng, rng.randint(2, 4), d, 0.6)
            else:
                lat = random_coprime_lattice(rng, rng.randint(2, 3), d)
            beta = rng.choice((None, *lat.nonzero_ids()))
            yield kind, PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, form)
        _, rng, draw = subposet_families(seed)[1]
        for form, _ in product(TestPairCanonicalFeedsTheMaximizer.FORMS, range(2)):
            d = rng.choice((1, 2))
            lat = draw(rng, rng.randint(2, 4), d)
            beta = rng.choice((None, *lat.nonzero_ids()))
            yield "lambda", PairObject(lattice=lat, beta_image=beta), random_delta(rng, d, form)

    def test_ranks_are_the_integer_tables(self):
        scales = set()
        for _, pair, delta in self.cases(20261020):
            lat = pair.lattice
            steps_of = invariant.step_table(lat, delta)
            for chain in enumerate_chains(lat):
                ranks, contribs = steps_of(chain.chain)
                assert all(type(r) is int for r in ranks) and list(ranks) == table_ranks(chain), chain.chain
                assert [r * lat.rank_scale for r in ranks] == [g.rank for g in chain.gradeds], chain.chain
                assert contribs == invariant.step_table(lat, delta)(chain.chain)[1], chain.chain
            scales.add(lat.rank_scale)
        assert len(scales) >= 3 and Fraction(1) in scales, scales

    def test_scaling_the_ranks_moves_only_b_and_value(self):
        rng = random.Random(20261021)
        seen = Counter()
        for kind, pair, delta in self.cases(20261021):
            lat = pair.lattice
            steps_of = invariant.step_table(lat, delta)
            for ids in saturated_chains(lat):
                ranks, contribs = steps_of(ids)
                pivot = pivot_of(lat, ids, pair)
                wm = maximize_weights(ids, ranks, contribs, pivot)
                # the graded ranks, and one random positive rational factor
                for lam in (lat.rank_scale, Fraction(rng.randint(1, 50), rng.randint(1, 50))):
                    moved = maximize_weights(ids, [r * lam for r in ranks], contribs, pivot)
                    if wm is None:
                        assert moved is None, (ids, delta)
                        continue
                    assert (moved.chain, primitive_weights(moved.weights), moved.exponent, moved.pinned) == (
                        wm.chain, primitive_weights(wm.weights), wm.exponent, wm.pinned), (ids, delta)
                    assert moved.weights == tuple(w / lam for w in wm.weights), (ids, delta)
                    assert moved.b == wm.b / lam, (ids, delta)
                    assert moved.value == NuValue(wm.value.L * (1 / lam), wm.value.b / lam), (ids, delta)
                    seen[kind] += 1
                seen["pinned"] += wm is not None and wm.pinned is not None
                seen["none"] += wm is None
        assert all(seen[key] >= 20 for key in ("coordinate", "sub-poset", "coprime", "lambda", "pinned", "none")), seen


class TestSearchesReadOnlyTheStepTable:
    """The searches look a chain's ranks and contributions up in their
    query's step table by its ids: pair_canonical walks id tuples and
    builds a filtration for its winner alone, and no chain the oracle's
    walk hands it has its steps or graded pieces read."""

    @staticmethod
    def cases():
        rng = random.Random(20261019)
        for path in sorted(FIXTURES.glob("*.lattice")):
            lat, pair = load_lattice(path)
            yield PairObject(lattice=lat, beta_image=None) if pair is None else pair, const(Fraction(1, 2))
        for k in (3, 4):
            lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)}, 2)
            for form in ("zero", "degree <= d-1", "degree d", "Laurent"):
                yield PairObject(lattice=lat, beta_image="L0"), random_delta(rng, 2, form)

    def test_pair_canonical_builds_a_filtration_for_its_winner_alone(self, monkeypatch):
        built = []
        for cls in (lattice_mod.UnweightedFiltration, lattice_mod.WeightedFiltration):
            def spy(self, *args, original=cls.__init__, **kwargs):
                original(self, *args, **kwargs)
                built.append((type(self), self.chain))

            monkeypatch.setattr(cls, "__init__", spy)
        answered = walked = 0
        for pair, delta in self.cases():
            built.clear()
            try:
                result = pair_canonical(pair, delta)
            except Semistable:
                assert built == []
                continue
            # make_filtration validates the chain (make_chain), then weights it
            winner = result.filtration.chain
            assert built == [(lattice_mod.UnweightedFiltration, winner), (lattice_mod.WeightedFiltration, winner)]
            walked += len(list(saturated_chains(pair.lattice)))
            answered += 1
        assert answered >= 8 and walked > 2 * answered, (answered, walked)

    def test_no_chain_the_oracle_walks_has_its_steps_read(self, monkeypatch):
        walked, enumerate_chains = [], oracle.enumerate_chains

        def spy(*args, **kwargs):
            chains = enumerate_chains(*args, **kwargs)
            walked.extend(chains)
            return chains

        monkeypatch.setattr(oracle, "enumerate_chains", spy)
        for pair, delta in self.cases():
            brute_force_max(pair.lattice, pair, delta, 2)
        assert walked
        for chain in walked:
            assert not {"steps", "gradeds"} & vars(chain).keys(), chain.chain


def _random_pair(rng, max_summands, with_pair=True):
    d = rng.choice((1, 2))
    k = rng.randint(2, max_summands)
    lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, d)
    beta = rng.choice(lat.nonzero_ids()) if with_pair else None
    return lat, PairObject(lattice=lat, beta_image=beta), d


class TestMaximizeWeightsAgainstFaceEnumeration:
    def test_seeded_chains(self):
        # PAVA against trying every face, over all three signs of delta:
        # where the reference's degree-(d-1) maximum is positive, the
        # descent stops at that degree (the value's leading exponent) with
        # the same n^(d-1) coefficient and norm, merged chain, exact (hence
        # primitive) weights and pinned group; where it is flat or <= 0,
        # the descent finds nothing or goes lower.  Every fourth lattice
        # has a zero framing map and every fourth no pair
        rng = random.Random(20240603)
        seen = {"flat": 0, "pinned": 0, "nonpositive": 0, "no pair": 0}
        for trial in range(40):
            lat, pair, d = _random_pair(rng, 5, with_pair=trial % 4 != 0)
            if trial % 4 == 3:
                pair = None
            chains = enumerate_chains(lat)
            for chain in rng.sample(chains, min(len(chains), 40)):
                numerator = rng.choice((0, rng.randint(-6, 6)))
                delta = RatPoly({d - 1: Fraction(numerator, rng.randint(1, 4))})
                wm = maximize(lat, chain.chain, pair, delta)
                try:
                    ref = face_enumeration_max(chain, pair, delta)
                except FlatObjective:
                    assert wm is None or wm.value.L.degree() < d - 1
                    seen["flat"] += 1
                    continue
                seen["no pair"] += pair is None or pair.beta_image is None
                if nu_compare(ref.value, NuValue.zero()) != GREATER:
                    assert wm is None or wm.value.L.degree() < d - 1
                    seen["nonpositive"] += 1
                    continue
                assert wm.value.L.degree() == d - 1
                top = NuValue(RatPoly.const(wm.value.L.coeff(d - 1)), wm.value.b)
                assert (top, wm.chain, wm.weights, wm.pinned) == (
                    ref.value, ref.chain, ref.weights, ref.pinned
                )
                seen["pinned"] += ref.pinned is not None
        assert all(seen.values()), seen


class TestBlockMaximizerAgainstPerStepReference:
    """invariant.maximize_weights, which pools each side of the pivot once
    and reads its fit off the blocks, against reference_pair_canonical's
    maximize_steps, which fits one Fraction per step with three passes:
    the same chain, weights, exponent, b and pinned step, and the same
    fitted value per step, on the same (ids, ranks, contribs, pivot)."""

    @staticmethod
    def assert_matches(ids, ranks, contribs, pivot):
        wm = maximize_weights(ids, ranks, contribs, pivot)
        ref = reference_pair_canonical.maximize_steps(ids, ranks, contribs, pivot)
        assert wm == ref, (ranks, contribs, pivot)
        if wm is not None:
            assert wm.steps == ref.steps and all(type(w) is Fraction for w in wm.weights), (ranks, contribs, pivot)
        return wm

    @staticmethod
    def synthetic(rng, n, kind, pivot):
        """Steps at the exponents 2, 1 and 0, ranks 1 to 3 (now and then
        rational), units r * v for v from a few values, so that means
        repeat.  The top exponent's units are random, or have a zero fit
        (non-increasing levels of weighted mean zero), or, around a pivot,
        a zero fit only once the pivot is pinned (prefix units >= 0, a
        pivot far below, suffix units <= 0, most of them 0, so that the
        face the descent keeps is not {0})."""
        ranks = [rng.choice((1, 2, 3)) for _ in range(n)]
        if rng.random() < 0.2:
            ranks = [Fraction(r, rng.choice((2, 3))) for r in ranks]
        values = [Fraction(v, 2) for v in range(-3, 4)]
        units = {e: [r * rng.choice(values) for r in ranks] for e in (2, 1, 0)}
        if kind == "zero fit":
            levels = sorted((rng.choice(values) for _ in ranks), reverse=True)
            mean = sum(r * v for r, v in zip(ranks, levels)) / sum(ranks)
            units[2] = [r * (v - mean) for r, v in zip(ranks, levels)]
        elif kind == "pinned zero fit":
            sizes = [abs(rng.choice(values)) if rng.random() < 0.3 else 0 for _ in ranks]
            units[2] = [r * v * (1 if i < pivot else -1) for i, (r, v) in enumerate(zip(ranks, sizes))]
            units[2][pivot] = -10 * sum(abs(u) for u in units[2]) - 1
        contribs = [RatPoly({e: units[e][i] for e in units}) for i in range(n)]
        return tuple(f"G{i}" for i in range(n)), ranks, contribs

    def test_synthetic_chains(self):
        rng = random.Random(20261105)
        seen = Counter()
        for n, _ in product(range(1, 13), range(6)):
            for pivot in sorted({None, 0, n // 2, n - 1}, key=lambda p: -1 if p is None else p):
                for kind in ("random", "zero fit", "pinned zero fit"):
                    if kind == "pinned zero fit" and pivot is None:
                        continue
                    ids, ranks, contribs = self.synthetic(rng, n, kind, pivot)
                    wm = self.assert_matches(ids, ranks, contribs, pivot)
                    means = [c.coeff(2) / r for c, r in zip(contribs, ranks)]
                    seen["equal means"] += any(a == b for a, b in zip(means, means[1:]))
                    seen["none"] += wm is None
                    if wm is not None:
                        seen["pinned"] += wm.pinned is not None
                        seen[kind, "descended"] += wm.exponent < 2
                        seen["inherited pin"] += kind == "pinned zero fit" and wm.exponent < 2 and wm.pinned is not None
        assert all(seen[key] >= 20 for key in (
            "equal means", "none", "pinned", ("zero fit", "descended"), ("pinned zero fit", "descended"), "inherited pin",
        )), seen

    def test_saturated_chains_of_the_four_families(self):
        # every saturated chain of seeded coordinate, sub-poset, coprime
        # and Lambda-module pairs, each family at every form of delta
        seen = Counter()
        for family, pair, delta in TestVerdictIsAMarginSignTest.draws(20261106, 84):
            lat = pair.lattice
            steps_of = invariant.step_table(lat, delta)
            for ids in saturated_chains(lat):
                wm = self.assert_matches(ids, *steps_of(ids), pivot_of(lat, ids, pair))
                seen[family] += 1
                seen["pinned"] += wm is not None and wm.pinned is not None
                seen["none"] += wm is None
        assert all(seen[key] >= 20 for key in (*TestVerdictIsAMarginSignTest.FAMILIES, "pinned", "none")), seen

    def test_each_step_is_pooled_once_per_chain(self, monkeypatch):
        # one k = 5 pair_canonical call at d = 1 and constant delta, where
        # every contribution lives at exponent 0, so each maximize_weights
        # call fits one exponent with three calls of the pooling helper:
        # the steps above the pivot, the steps below it, and the whole fit,
        # which continues the prefix's blocks with the pivot's step and
        # the suffix's blocks, the very tuples its pass returned.  Each
        # step is handed over once, where three per-step passes would pool
        # a pinned chain's steps twice: the whole chain, then each side
        groups = []  # per chain: its arguments, its pooling calls and its maximum

        def pool(blocks, points):
            points, start = list(points), list(blocks)
            out = real_pool(blocks, points)
            groups[-1][1].append((start, points, list(out)))
            return out

        def maximize(*args):
            groups.append([args, []])
            groups[-1].append(real_maximize(*args))
            return groups[-1][2]

        real_pool, real_maximize = invariant._pool, pairs.maximize_weights
        monkeypatch.setattr(invariant, "_pool", pool)
        monkeypatch.setattr(pairs, "maximize_weights", maximize)
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(5)})
        pair_canonical(PairObject(lattice=lat, beta_image="L2"), const(Fraction(1, 2)))
        seen = Counter()
        for (_, ranks, contribs, pivot), calls, wm in groups:
            assert all(set(c._coeffs) <= {0} for c in contribs)
            steps = [(c.coeff(0), r, 1) for c, r in zip(contribs, ranks)]
            (start, before, prefix), (start_after, after, suffix), (whole_start, whole, _) = calls
            assert start == start_after == [] and whole_start == prefix, steps
            assert (before, after, whole[0]) == (steps[:pivot], steps[pivot + 1:], steps[pivot]), steps
            assert len(whole) == 1 + len(suffix) and all(p is q for p, q in zip(whole[1:], suffix)), steps
            seen["pooled suffix block"] += any(size > 1 for _, _, size in suffix)
            seen["both sides"] += 0 < pivot < len(steps) - 1
            seen["pinned"] += wm is not None and wm.pinned is not None
        assert len(groups) == 120 and all(seen[key] for key in ("pooled suffix block", "both sides", "pinned")), seen


class TestSaturatedChains:
    @staticmethod
    def assert_matches_cover_filter(lat):
        chains = list(saturated_chains(lat))
        assert chains == [c.chain for c in reference_pair_canonical.saturated_chains(lat)]
        return chains

    @pytest.mark.parametrize("d", (1, 2))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_cover_filter_on_coordinate_lattices(self, k, d):
        # the saturated chains of the sub-sum lattice of k summands are the
        # orders in which the summands are added: k! of them
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)}, d)
        assert len(self.assert_matches_cover_filter(lat)) == factorial(k)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lattice")))
    def test_matches_cover_filter_on_fixtures(self, name):
        lat, _ = load_lattice(FIXTURES / name)
        assert self.assert_matches_cover_filter(lat)

    @pytest.mark.parametrize("k,expected", [(4, 24), (5, 120), (6, 720)])
    def test_counts_on_coordinate_lattices(self, k, expected):
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)})
        chains = list(saturated_chains(lat))
        assert len(chains) == expected
        assert all(len(ids) == k for ids in chains)

    def test_count_is_the_walks(self):
        # saturated_chain_count walks no chain, yet counts the walk's: on
        # seeded coordinate lattices (k <= 6), sub-posets, Lambda-module
        # lattices, total orders and the fixtures
        lattices = [load_lattice(path)[0] for path in sorted(FIXTURES.glob("*.lattice"))]
        rng = random.Random(20261030)
        lattices += [coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, rng.choice((1, 2)))
                     for k in range(1, 7)]
        for _, family_rng, draw in subposet_families(20261030):
            lattices += [draw(family_rng, family_rng.randint(2, 5), family_rng.choice((1, 2))) for _ in range(30)]
        for m in (2, 3, 40):
            ids = [f"G{k:02d}" for k in range(1, m)]
            lattices.append(build_lattice(1, {"0": {}, **{i: {1: k} for k, i in enumerate(ids, 1)}}, zip(ids, ids[1:])))
        counts = [pairs.saturated_chain_count(lat) for lat in lattices]
        assert counts == [len(list(saturated_chains(lat))) for lat in lattices]
        assert factorial(6) in counts and len(set(counts)) >= 10, sorted(set(counts))

    def test_pair_canonical_visits_only_saturated_chains(self, monkeypatch):
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(5)})
        pair = PairObject(lattice=lat, beta_image="L0")
        calls = []
        original = pairs.maximize_weights

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(pairs, "maximize_weights", counting)
        result = pair_canonical(pair, const(Fraction(1, 2)))
        assert result.source == "closed-form"
        assert len(calls) == 120 and len(set(calls)) == 120
        assert len(enumerate_chains(lat)) == 541

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(-1), Fraction(3)])
    def test_index_is_the_winners_exponent(self, monkeypatch, delta):
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(4)}, 2)
        pair = PairObject(lattice=lat, beta_image="L0")
        found, original = [], pairs.maximize_weights
        monkeypatch.setattr(pairs, "maximize_weights", lambda *args: found.append(original(*args)) or found[-1])
        result = pair_canonical(pair, const(delta))
        f = result.filtration
        (winner,) = {wm for wm in found if wm and (wm.chain, primitive_weights(wm.weights)) == (f.chain, f.weights)}
        assert result.index == winner.exponent and result.source == "closed-form"

    @staticmethod
    def assert_matches_all_chains_reference(cases):
        """The sources of the reference's answers over (pair, d) cases."""
        sources = set()
        for pair, d, rng in cases:
            delta = RatPoly({d - 1: Fraction(rng.randint(-2, 6), rng.randint(1, 3))})
            try:
                ref = all_chains_pair_canonical(pair, delta, 2)
            except Semistable:
                with pytest.raises(Semistable):
                    pair_canonical(pair, delta)
                sources.add("semistable")
                continue
            result = pair_canonical(pair, delta)
            sources.add(ref.source)
            order = nu_compare(result.value, ref.value)
            if ref.source == "closed-form" or order == EQUAL:
                assert (result.filtration, result.value, result.source) == (
                    ref.filtration, ref.value, "closed-form"
                )
            else:
                assert order == GREATER
        return sources

    def test_matches_all_chains_reference(self):
        # against pair_canonical over every chain with the face-enumeration
        # maximizer, which falls back to the oracle (bound 2) when no chain
        # has a positive degree-(d-1) coefficient: its closed-form answers
        # are matched exactly, and its oracle answers are never beaten
        # (and matched whenever they tie)
        rng = random.Random(7325)

        def cases():
            for _ in range(40):
                lat, pair, d = _random_pair(rng, 4, with_pair=rng.random() < 0.8)
                yield pair, d, rng

        sources = self.assert_matches_all_chains_reference(cases())
        assert sources == {"closed-form", "oracle", "semistable"}, sources

    def test_matches_all_chains_reference_on_subposets(self):
        # the same on coordinate lattices with members dropped, which are
        # not closed under sums: every chain's maximizer is still that of
        # its saturated refinements; and on Lambda-module lattices
        for family, rng, draw in subposet_families(7326):

            def cases():
                for _ in range(40):
                    d = rng.choice((1, 2))
                    lat = draw(rng, rng.randint(2, 4), d)
                    beta = rng.choice(lat.nonzero_ids()) if rng.random() < 0.8 else None
                    yield PairObject(lattice=lat, beta_image=beta), d, rng

            sources = self.assert_matches_all_chains_reference(cases())
            assert {"closed-form", "semistable"} <= sources, (family, sources)


class TestAgainstReferencePairCanonical:
    """pair_canonical, on contributions computed once per step of its walk,
    against the version that recomputed them on every chain
    (reference_pair_canonical): the same filtration, the identical (L, b)
    and the same tie-break key, or Semistable from both."""

    FORMS = (None, "zero", "negative", "constant", "high degree", "Laurent")

    @staticmethod
    def delta(rng, d, form):
        if form == "constant":
            return const(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
        if form == "high degree":
            return random_delta(rng, d, rng.choice(("degree d", "degree > d")))
        return random_delta(rng, d, form)

    @staticmethod
    def assert_matches(pair, delta, seen, form):
        try:
            ref, ref_key = reference_pair_canonical.pair_canonical(pair, delta)
        except Semistable:
            with pytest.raises(Semistable):
                pair_canonical(pair, delta)
            seen["semistable"] += 1
            return
        result = pair_canonical(pair, delta)
        f = result.filtration
        assert f == ref.filtration, (pair.beta_image, delta)
        assert nu_compare(result.value, ref.value) == EQUAL
        assert (result.value.L, result.value.b) == (ref.value.L, ref.value.b)
        assert (len(f.chain), f.chain, f.weights) == ref_key
        assert result.index == ref.index  # where the winner's descent stopped
        seen[form] += 1

    def test_seeded_coordinate_lattices(self):
        # k = 1..5 twice per form of delta, and two k = 6 lattices
        rng = random.Random(20261102)
        seen = Counter()
        shapes = [(k, form) for k in range(1, 6) for form in self.FORMS for _ in range(2)]
        shapes += [(6, rng.choice(self.FORMS)) for _ in range(2)]
        for k, form in shapes:
            d = rng.choice((1, 2, 3))
            lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, d)
            pair = PairObject(lattice=lat, beta_image=rng.choice([None, *lat.nonzero_ids()]))
            self.assert_matches(pair, self.delta(rng, d, form), seen, form)
        assert seen["semistable"] and all(seen[form] for form in self.FORMS), seen

    def test_seeded_subposets(self):
        # sub-posets, and Lambda-module lattices
        for family, rng, draw in subposet_families(20261103):
            seen = Counter()
            for k in range(2, 6):
                for form in self.FORMS:
                    for _ in range(2):
                        d = rng.choice((1, 2))
                        lat = draw(rng, k, d)
                        pair = PairObject(lattice=lat, beta_image=rng.choice([None, *lat.nonzero_ids()]))
                        self.assert_matches(pair, self.delta(rng, d, form), seen, form)
            assert seen["semistable"] and all(seen[form] for form in self.FORMS), (family, seen)


class TestAgainstCoordinateReference:
    """pair_canonical's chain and weights against reference_coordinate's
    closed form, computed from the twists alone, on coordinate pairs whose
    marked image is a sub-sum (one summand or several) or none, at every
    form of delta, or
    Semistable exactly when the reference finds no positive weighting."""

    FORMS = TestVerdictIsAMarginSignTest.FORMS

    @staticmethod
    def check(rng, k, form, seen, size=None):
        """One drawn pair against the reference: its marked image a
        summand or none, or, given size, a sub-sum of that many summands."""
        d = rng.choice((1, 2))
        twists = {f"L{i}": rng.randint(-3, 3) for i in range(k)}
        summands = rng.choice((None, *({i} for i in twists))) if size is None else set(rng.sample(sorted(twists), size))
        delta = random_delta(rng, d, form)
        expected = reference_coordinate.pair_answer(twists, d, {} if delta is None else dict(delta.items()), summands)
        lat = coordinate_lattice(twists, d)
        beta = None if summands is None else next(
            m for m in lat.nonzero_ids() if m != lat.top_id and set(m.split("+")) == summands)
        try:
            f = pair_canonical(PairObject(lattice=lat, beta_image=beta), delta).filtration
        except Semistable:
            assert expected is None, (twists, d, beta, delta)
            seen["semistable"] += 1
            return
        chain = tuple(frozenset(twists) if m == lat.top_id else frozenset(m.split("+")) for m in f.chain)
        assert (chain, f.weights) == expected, (twists, d, beta, delta)
        seen[form, beta is not None] += 1
        seen["pinned"] += beta is not None and 0 in f.weights

    def test_seeded_coordinate_pairs(self):
        # k = 2..6 three times per form, and three k = 7 pairs
        rng = random.Random(20261031)
        seen = Counter()
        for k, form, _ in product(range(2, 7), self.FORMS, range(3)):
            self.check(rng, k, form, seen)
        for _ in range(3):
            self.check(rng, 7, rng.choice(self.FORMS[3:]), seen)
        assert seen["semistable"] and seen["pinned"], seen
        assert all(seen[form, True] + seen[form, False] for form in self.FORMS), seen

    def test_seeded_pairs_marking_a_larger_sub_sum(self):
        # the marked image a sub-sum of 2..k-1 summands, k = 3..6, twice per
        # size and form: the constraint w_i >= 0 for each of its summands
        rng = random.Random(20261123)
        seen = Counter()
        for k, form, _ in product(range(3, 7), self.FORMS, range(2)):
            for size in range(2, k):
                self.check(rng, k, form, seen, size)
        answered = sum(seen[form, True] for form in self.FORMS)
        assert all(seen[form, True] for form in self.FORMS) and 0 < seen["pinned"] < answered, seen

    def test_a_k8_pair_whose_pivot_pins(self):
        # 8! = 40 320 saturated chains of 8 steps, the longest pooling
        # cascades of the suite: the marked image a summand and delta > 0,
        # so the unconstrained fit breaks w_beta >= 0 and the answer is
        # pinned at weight 0
        rng = random.Random(20261104)
        twists = {f"L{i}": rng.randint(-3, 3) for i in range(8)}
        beta = rng.choice(tuple(twists))
        delta = const(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
        expected = reference_coordinate.pair_answer(twists, 1, dict(delta.items()), {beta})
        lat = coordinate_lattice(twists, 1)
        f = pair_canonical(PairObject(lattice=lat, beta_image=beta), delta).filtration
        chain = tuple(frozenset(twists) if m == lat.top_id else frozenset(m.split("+")) for m in f.chain)
        assert (chain, f.weights) == expected, (twists, beta, delta)
        assert 0 in f.weights


class TestPairCanonical:
    def test_nonconvex_example(self, lat_b3, pair_b3):
        result = pair_canonical(pair_b3, RatPoly.zero())
        assert result.source == "closed-form"
        assert result.filtration.chain == ("F", "O5+O", "O5")
        assert result.filtration.weights == (-1, 0, 3)
        assert result.value == NuValue(P({0: 10}), Fraction(10))

    def test_agrees_with_oracle(self, lat_b3, pair_b3):
        from thetastab import brute_force_max

        result = pair_canonical(pair_b3, RatPoly.zero())
        check = brute_force_max(lat_b3, pair=pair_b3, delta=RatPoly.zero(), bound=6)
        assert check.best.chain == result.filtration.chain
        assert check.best.weights == result.filtration.weights

    def test_semistable_raises(self, pair_o_o1):
        with pytest.raises(Semistable):
            pair_canonical(pair_o_o1, const(1))

    def test_high_degree_dispatch(self, pair_o_o1):
        # deg(delta) >= d takes the same path as every other delta
        result = pair_canonical(pair_o_o1, P({1: 1}))
        assert result.source == "closed-form"
        assert result.filtration.chain == ("F", "O")
        assert result.filtration == pair_canonical_high_degree(pair_o_o1, P({1: 1}))


def _equal_slope_sum(rng, d, k):
    """Direct sum of k summands on P^d of rank 1 or 2 with one Mumford
    slope and random lower terms: the degree-(d-1) coefficient of the
    invariant vanishes on every chain when deg(delta) <= d - 2."""
    mu = Fraction(rng.randint(-2, 2))
    summands = {}
    for i in range(k):
        r = rng.randint(1, 2)
        terms = {d: Fraction(r, factorial(d)), d - 1: r * mu / factorial(d - 1)}
        for e in range(d - 1):
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        summands[f"E{i}"] = RatPoly(terms)
    return sum_lattice(summands, d)


def _low_delta(rng, d):
    """A positive delta of degree <= d - 2, Laurent terms included."""
    top = rng.randint(-2, d - 2)
    terms = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in range(top - 2, top)}
    terms[top] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return RatPoly(terms)


def _oracle_cost(lat, bound):
    """Candidates brute_force_max scores at the bound, before feasibility."""
    return sum(comb(2 * bound + 1, len(c.chain)) for c in enumerate_chains(lat))


class TestFlatRegime:
    """No chain has a positive degree-(d-1) coefficient, so the answer comes
    from lower degrees of the descent."""

    @staticmethod
    def cases(seed, per_shape):
        rng = random.Random(seed)
        for d in (2, 3):
            for k in (2, 3):
                for _ in range(per_shape):
                    lat = _equal_slope_sum(rng, d, k)
                    beta = rng.choice([None, *lat.nonzero_ids()])
                    yield PairObject(lattice=lat, beta_image=beta), _low_delta(rng, d)

    def test_matches_oracle_beyond_any_fixed_bound(self):
        # the oracle at W = max|w| has the same argmax and value wherever it
        # is affordable; where the weights exceed 6, the bound-6 oracle that
        # used to decide this regime finds a strictly smaller value
        seen = {"flat": 0, "matched": 0, "beats bound 6": 0}
        for pair, delta in self.cases(20261020, 10):
            lat = pair.lattice
            try:
                result = pair_canonical(pair, delta)
            except Semistable:
                assert pair_semistable(pair, delta)[0]
                continue
            seen["flat"] += result.value.L.degree() < lat.dim - 1
            bound = max(map(abs, result.filtration.weights))
            if _oracle_cost(lat, bound) <= 2500:
                check = brute_force_max(lat, pair=pair, delta=delta, bound=bound)
                assert check.best == result.filtration, (pair.beta_image, delta)
                assert nu_compare(check.value, result.value) == EQUAL
                seen["matched"] += 1
            if bound > 6 and _oracle_cost(lat, 6) <= 2500:
                old = brute_force_max(lat, pair=pair, delta=delta, bound=6)
                assert nu_compare(result.value, old.value) == GREATER
                seen["beats bound 6"] += 1
        assert seen["flat"] >= 35 and seen["matched"] >= 20 and seen["beats bound 6"] >= 10, seen

    def test_never_reaches_the_oracle(self, monkeypatch, pair_b3, pair_o_o1):
        def fail(*args, **kwargs):
            raise AssertionError("pair_canonical must not call the oracle")

        # iter_terms is where any brute_force_max binding does its work
        monkeypatch.setattr(oracle, "brute_force_max", fail)
        monkeypatch.setattr(oracle, "iter_terms", fail)
        assert pair_canonical(pair_b3, RatPoly.zero()).value.L.degree() == 0
        assert pair_canonical(pair_o_o1, P({1: 1})).filtration.chain == ("F", "O")
        flat = 0
        for pair, delta in self.cases(20261021, 3):
            try:
                result = pair_canonical(pair, delta)
            except Semistable:
                continue
            flat += result.value.L.degree() < pair.lattice.dim - 1
        assert flat
        for pair, delta in TestPairCanonicalAsksFirst.semistable_pairs():
            with pytest.raises(Semistable):
                pair_canonical(pair, delta)


class TestAgainstOracleOnSubposets:
    """maximize_weights and pair_canonical against the oracle on coordinate
    lattices with members dropped (not closed under sums), at small k and
    W: saturated chains still carry every chain's maximizer, so the values
    are the oracle's wherever its bound reaches the closed-form weights."""

    FORMS = ("zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")

    @classmethod
    def cases(cls, seed):
        # the sub-posets, then Lambda-module lattices
        for _, rng, draw in subposet_families(seed):
            for trial in range(36):
                d = rng.choice((1, 2))
                lat = draw(rng, rng.randint(2, 4), d)
                pair = PairObject(lattice=lat, beta_image=rng.choice([None, *lat.nonzero_ids()]))
                yield pair, random_delta(rng, d, cls.FORMS[trial % len(cls.FORMS)])

    def test_pair_canonical_matches_oracle(self):
        seen = Counter()
        for pair, delta in self.cases(20261105):
            lat = pair.lattice
            try:
                result = pair_canonical(pair, delta)
            except Semistable:
                assert brute_force_max(lat, pair=pair, delta=delta, bound=2).best is None
                seen["semistable"] += 1
                continue
            bound = max(2, *map(abs, result.filtration.weights))
            if oracle.candidate_count(lat, pair, bound) > 5000:
                continue
            check = brute_force_max(lat, pair=pair, delta=delta, bound=bound)
            assert check.best == result.filtration, (lat.ids(), pair.beta_image, delta)
            assert nu_compare(check.value, result.value) == EQUAL
            seen["matched"] += 1
        assert seen["semistable"] and seen["matched"] >= 15, seen

    def test_each_chain_matches_oracle_on_its_subchains(self):
        # the oracle's argmax over the candidates whose chain is made of a
        # saturated chain's members is that chain's maximizer, or None
        # with value <= 0 when maximize_weights finds nothing positive
        seen = Counter()
        for pair, delta in self.cases(20261106):
            lat = pair.lattice
            terms = {}
            for ids in saturated_chains(lat):
                wm = maximize(lat, ids, pair, delta)
                bound = 2 if wm is None else max(2, *map(abs, primitive_weights(wm.weights)))
                if oracle.candidate_count(lat, pair, bound) > 5000:
                    continue
                if bound not in terms:
                    terms[bound] = list(oracle.iter_terms(lat, pair, delta, bound))
                members = set(ids)
                own = (t for t in terms[bound] if members.issuperset(t[0]))
                check = oracle.argmax(lat, own, oracle.denominator(lat, delta), pair)
                if wm is None:
                    assert check.best is None, (ids, delta)
                    seen["none"] += 1
                    continue
                assert (check.best.chain, check.best.weights) == (
                    wm.chain, primitive_weights(wm.weights)
                ), (ids, delta)
                assert nu_compare(check.value, wm.value) == EQUAL
                seen["matched"] += 1
        assert seen["none"] and seen["matched"] >= 40, seen


class TestAgainstCanonicalFiltration:
    """Without a framing map and at delta = 0 the pair invariant is the
    object's, so the descent must give canonical_filtration's chain and
    weights, lower degrees included."""

    @staticmethod
    def assert_matches(lat):
        try:
            expected = canonical_filtration(lat)
        except ObjectSemistable:
            with pytest.raises(Semistable):
                pair_canonical(PairObject(lattice=lat, beta_image=None), RatPoly.zero())
            return None
        result = pair_canonical(PairObject(lattice=lat, beta_image=None), RatPoly.zero())
        assert (result.filtration.chain, result.filtration.weights) == (
            expected.chain, expected.weights
        )
        return result

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lattice")))
    def test_fixtures(self, name):
        self.assert_matches(load_lattice(FIXTURES / name)[0])

    def test_seeded_coordinate_lattices(self):
        # the paper's claim, with no weight bound: for Lambda-modules the
        # canonical filtration of the Theta-stratification, the best
        # saturated chain's maximizer, is the HN filtration's leading term
        rng = random.Random(20261204)
        unstable = 0
        for _ in range(60):
            twists = {f"L{i}": rng.randint(-2, 2) for i in range(rng.randint(1, 5))}
            lat = coordinate_lattice(twists, rng.randint(1, 3))
            result = self.assert_matches(lat)
            if result is not None:
                assert nu_compare(result.value, nu(canonical_filtration(lat))) == EQUAL
                unstable += 1
        assert unstable >= 30, unstable

    def test_seeded_equal_slope_sums(self):
        rng = random.Random(20261022)
        lower = 0
        for d in (2, 3):
            for k in (2, 3):
                for _ in range(8):
                    lat = _equal_slope_sum(rng, d, k)
                    result = self.assert_matches(lat)
                    lower += result is not None and result.value.L.degree() < d - 1
        assert lower >= 16, lower


def _walls(pair):
    """Positive values of delta's n^(d-1) coefficient at which some proper
    member's twisted slope ties the ambient's: there the degree-(d-1)
    maximum is 0, so lower terms of delta decide."""
    lat, beta, e = pair.lattice, pair.beta_image, pair.lattice.dim - 1
    top = lat.top.stats
    walls = set()
    for member_id in lat.proper_nonzero_ids():
        member = lat.member(member_id).stats
        gap = member.reduced.coeff(e) - top.reduced.coeff(e)
        slope = (1 / member.rank if lat.leq(beta, member_id) else 0) - 1 / top.rank
        if slope and -gap / slope > 0:
            walls.add(-gap / slope)
    return sorted(walls)


class TestDescentNearWalls:
    """delta on a wall of its top coefficient plus a Laurent term: the face
    of the zero maximum (merged steps, pinned pivot) decides the answer."""

    @staticmethod
    def cases(seed):
        rng = random.Random(seed)
        for _ in range(30):
            d = rng.choice((1, 2))
            lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 3))}, d)
            pair = PairObject(lattice=lat, beta_image=rng.choice(lat.nonzero_ids()))
            for wall in _walls(pair):
                for sign in (-1, 1):
                    terms = {d - 1: wall, -1: Fraction(sign * rng.randint(1, 3), rng.randint(1, 2))}
                    if d == 2 and rng.random() < 0.5:
                        terms[0] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    yield pair, RatPoly(terms)

    def test_pair_canonical_matches_oracle(self):
        seen = {"semistable": 0, "lower degree": 0}
        for pair, delta in self.cases(20261023):
            lat = pair.lattice
            try:
                result = pair_canonical(pair, delta)
            except Semistable:
                assert brute_force_max(lat, pair=pair, delta=delta, bound=3).best is None
                seen["semistable"] += 1
                continue
            seen["lower degree"] += result.value.L.degree() < lat.dim - 1
            bound = max(2, *map(abs, result.filtration.weights))
            check = brute_force_max(lat, pair=pair, delta=delta, bound=bound)
            assert check.best == result.filtration, (pair.beta_image, delta)
            assert nu_compare(check.value, result.value) == EQUAL
        assert seen["semistable"] and seen["lower degree"] >= 10, seen

    def test_each_chain_matches_bounded_search(self):
        # maximize_weights on every saturated chain against the best
        # nondecreasing integer weights of that chain
        lower = 0
        for pair, delta in self.cases(20261024):
            for ids in saturated_chains(pair.lattice):
                chain = make_chain(pair.lattice, ids)
                wm = maximize(pair.lattice, ids, pair, delta)
                if wm is None:
                    best = chain_search_max(chain, pair, delta, 3)
                    assert nu_compare(best, NuValue.zero()) != GREATER
                    continue
                filt = make_filtration(pair.lattice, wm.chain, primitive_weights(wm.weights), pair)
                bound = max(3, *map(abs, filt.weights))
                best = chain_search_max(chain, pair, delta, bound)
                assert nu_compare(nu_delta(filt, delta), best) == EQUAL, (ids, delta)
                lower += wm.value.L.degree() < pair.lattice.dim - 1
        assert lower >= 10, lower
