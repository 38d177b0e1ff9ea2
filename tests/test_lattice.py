import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import reference_lattice
import thetastab.lattice as lattice_mod
import thetastab.ratpoly as ratpoly_mod
from conftest import FIXTURES, coordinate_lattice
from randgen import random_coordinate_lattice, random_graded_poly
from thetastab import (
    PairObject,
    RatPoly,
    SubobjectLattice,
    build_lattice,
    canonical_filtration,
    enumerate_chains,
    graded_pieces,
    hilbert_stats,
    hn_filtration,
    make_filtration,
    primitive_weights,
    quotient_poly,
    validate_lattice,
)
from thetastab.errors import (
    ChainNotIncreasing,
    CycleInRelation,
    MissingTopOrZero,
    NotComparable,
    PairConstraintViolated,
    ParseError,
    QuotientNotPure,
    RankNotIncreasing,
    StabilityError,
    WeightsNotIncreasing,
)
from thetastab.cli import main
from thetastab.latfile import load_lattice
from thetastab.oracle import saturated_chains


def P(mapping):
    return RatPoly(mapping)


class TestValidateLattice:
    def test_valid_chain_lattice(self):
        lat = build_lattice(
            1,
            {
                "0": RatPoly.zero(),
                "O2": P({1: 1, 0: 3}),
                "O2+O": P({1: 2, 0: 4}),
                "F": P({1: 3, 0: 6}),
            },
            [("O2", "O2+O"), ("O2+O", "F")],
        )
        assert lat.dim == 1
        assert lat.top_id == "F"
        assert lat.zero_id == "0"
        assert lat.lt("O2", "F")  # via transitive closure

    def test_top_below_proper_member_is_a_cycle(self):
        with pytest.raises(CycleInRelation):
            build_lattice(
                1,
                {"0": RatPoly.zero(), "O2": P({1: 1, 0: 3}), "F": P({1: 2, 0: 4})},
                [("F", "O2")],
            )

    def test_cycle_between_proper_members(self):
        # equal ranks would also fail the rank check; the cycle is found first
        with pytest.raises(CycleInRelation):
            build_lattice(
                1,
                {
                    "0": RatPoly.zero(),
                    "A": P({1: 1, 0: 3}),
                    "B": P({1: 1, 0: 2}),
                    "F": P({1: 3, 0: 6}),
                },
                [("A", "B"), ("B", "A")],
            )

    @pytest.mark.parametrize(
        "hilbert",
        [
            {"1": 1.5, "0": 3},
            {"x": 1, "0": 3},
            {"1": "1e3", "0": 3},
            {"1": True, "0": 3},
            {1.0: 1, "0": 3},
            {True: 1, "0": 3},
        ],
        ids=[
            "float-coefficient",
            "exponent-x",
            "exponent-form-coefficient",
            "bool-coefficient",
            "float-exponent",
            "bool-exponent",
        ],
    )
    def test_rational_grammar(self, hilbert):
        # the grammar of lattice files holds for raw descriptions too
        raw = {
            "dimension": 1,
            "objects": [{"id": "0", "hilbert": {}}, {"id": "F", "hilbert": hilbert}],
        }
        with pytest.raises(ParseError):
            validate_lattice(raw)

    def test_rank_must_strictly_increase(self):
        with pytest.raises(RankNotIncreasing):
            build_lattice(
                1,
                {"0": RatPoly.zero(), "E": P({1: 2, 0: 3}), "F": P({1: 2, 0: 4})},
                [("E", "F")],
            )

    def test_missing_zero(self):
        with pytest.raises(MissingTopOrZero):
            build_lattice(1, {"F": P({1: 1, 0: 1})})

    def test_zero_member_only(self):
        with pytest.raises(MissingTopOrZero, match="no nonzero member"):
            build_lattice(1, {"0": RatPoly.zero()})

    def test_member_purity_checked_before_ranks(self):
        # each member is checked as its own quotient by zero before any
        # rank is read, so a dimension far above every member's degree is
        # refused at once, by the purity rule rather than by a rank
        with pytest.raises(QuotientNotPure, match="'F'/'0' must have degree exactly 1000000"):
            build_lattice(10**6, {"0": RatPoly.zero(), "F": P({1: 1})})
        with pytest.raises(QuotientNotPure, match="'E'/'0' has nonpositive leading"):
            build_lattice(1, {"0": RatPoly.zero(), "E": P({1: -1}), "F": P({1: 2})})

    def test_ambiguous_top(self):
        with pytest.raises(MissingTopOrZero):
            build_lattice(
                1,
                {"0": RatPoly.zero(), "A": P({1: 1, 0: 1}), "B": P({1: 1, 0: 2})},
            )

    def test_quotient_degree_violation(self):
        # a member of too-high degree passes the rank comparison but not purity
        with pytest.raises(QuotientNotPure):
            build_lattice(
                1,
                {"0": RatPoly.zero(), "E": P({2: 1, 1: 1}), "F": P({1: 9, 0: 1})},
                [("E", "F")],
            )

    def test_idempotent(self):
        raw = {
            "dimension": 1,
            "objects": [
                {"id": "0", "hilbert": {}},
                {"id": "E", "hilbert": {1: 1, 0: 3}},
                {"id": "F", "hilbert": {1: 2, 0: 4}},
            ],
            "relations": [["E", "F"]],
        }
        lat = validate_lattice(raw)
        again = validate_lattice(lat.as_dict())
        assert lat.structurally_equal(again)


class TestQuotientPoly:
    def test_quotient(self, lat_o2_o):
        stats = quotient_poly(lat_o2_o, "O2", "F")
        assert stats.poly == P({1: 1, 0: 1})

    def test_quotient_by_zero(self, lat_o2_o):
        stats = quotient_poly(lat_o2_o, "0", "F")
        assert stats.poly == lat_o2_o.top.poly

    def test_wrong_direction(self, lat_o2_o):
        with pytest.raises(NotComparable):
            quotient_poly(lat_o2_o, "F", "O2")


class TestMakeFiltration:
    def test_two_step(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (-1, 1))
        assert filt.weights == (-1, 1)

    def test_pair_pivot_weight_zero_is_allowed(self, lat_b3, pair_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3), pair_b3)
        assert filt.chain == ("F", "O5+O", "O5")

    def test_pair_pivot_negative_weight_rejected(self, lat_b3, pair_b3):
        with pytest.raises(PairConstraintViolated):
            make_filtration(lat_b3, ("F", "O5+O", "O5"), (-2, -1, 3), pair_b3)

    def test_chain_must_increase(self, lat_b3):
        with pytest.raises(ChainNotIncreasing):
            make_filtration(lat_b3, ("F", "O5", "O5+O"), (0, 1, 2))

    def test_chain_must_start_at_top(self, lat_b3):
        with pytest.raises(ChainNotIncreasing):
            make_filtration(lat_b3, ("O5+O", "O5"), (0, 1))

    def test_weights_must_increase(self, lat_o2_o):
        with pytest.raises(WeightsNotIncreasing):
            make_filtration(lat_o2_o, ("F", "O2"), (1, 1))


class TestGradedPieces:
    def test_two_step_pieces(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F", "O2"), (-1, 1))
        pieces = graded_pieces(filt)
        assert [(w, g.poly) for w, g in pieces] == [
            (1, P({1: 1, 0: 3})),
            (-1, P({1: 1, 0: 1})),
        ]

    def test_trivial(self, lat_o2_o):
        filt = make_filtration(lat_o2_o, ("F",), (0,))
        (piece,) = graded_pieces(filt)
        assert piece[0] == 0 and piece[1].poly == lat_o2_o.top.poly

    def test_nonconvex_example_pieces(self, lat_b3, pair_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O5"), (-1, 0, 3), pair_b3)
        pieces = graded_pieces(filt)
        assert [(w, g.poly) for w, g in pieces] == [
            (3, P({1: 1, 0: 6})),
            (0, P({1: 1, 0: 1})),
            (-1, P({1: 1, 0: 2})),
        ]

    def test_additivity(self, lat_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O1", "O1"), (-2, 0, 5))
        total = RatPoly.zero()
        ranks = Fraction(0)
        for _, g in graded_pieces(filt):
            total = total + g.poly
            ranks += g.rank
        assert total == lat_b3.top.poly
        assert ranks == lat_b3.top.stats.rank

    def test_weight_multiset_round_trip(self, lat_b3):
        filt = make_filtration(lat_b3, ("F", "O5+O", "O"), (-3, 1, 4))
        weights = sorted(w for w, _ in graded_pieces(filt))
        assert tuple(weights) == filt.weights


class TestPrimitiveWeights:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ((2, 4, 6), (1, 2, 3)),
            ((-6, 0, 9), (-2, 0, 3)),
            ((-1, 2, 3), (-1, 2, 3)),
            ((Fraction(1, 2), Fraction(-3, 4)), (2, -3)),
            ((Fraction(-2, 3), 1, Fraction(4, 3)), (-2, 3, 4)),
            ((Fraction(4), Fraction(6)), (2, 3)),
            ((-4, -2), (-2, -1)),
            ((0, 0, 0), (0, 0, 0)),
            ((Fraction(0),), (0,)),
            ((5,), (1,)),
            ((-5,), (-1,)),
            ((Fraction(7, 3),), (1,)),
        ],
    )
    def test_scales_to_coprime_integers(self, weights, expected):
        result = primitive_weights(weights)
        assert result == expected
        assert all(type(v) is int for v in result)


def _random_description(rng: random.Random):
    """A small lattice description (dim, polys, relations): zero, the sum F
    of 2-4 random summands and some of its partial sums, with a random
    subset of the inclusions declared, non-covers among them.  Now and then
    a member's rank stops growing along an inclusion, a member is made
    impure, or a random relation is declared."""
    d = rng.choice((1, 2))
    summands = [random_graded_poly(rng, d) for _ in range(rng.randint(2, 4))]
    subsets = [
        combo for size in range(1, len(summands))
        for combo in itertools.combinations(range(len(summands)), size)
    ]
    chosen = rng.sample(subsets, rng.randint(1, min(6, len(subsets))))

    def total(combo) -> RatPoly:
        poly = RatPoly.zero()
        for index in combo:
            poly = poly + summands[index]
        return poly

    polys = {"0": RatPoly.zero(), "F": total(range(len(summands)))}
    names = {combo: "+".join(f"L{i}" for i in combo) for combo in chosen}
    for combo, name in names.items():
        polys[name] = total(combo)
    relations = [
        (names[small], names[big])
        for small, big in itertools.permutations(chosen, 2)
        if set(small) < set(big) and rng.random() < 0.6
    ]
    member = rng.choice(sorted(names.values()))
    flaw = rng.randrange(5)
    if flaw == 1:  # a member reaches the rank of one above it, or one more
        sub, sup = rng.choice(relations or [(member, "F")])
        shift = polys[sup].coeff(d) - polys[sub].coeff(d) + Fraction(rng.randint(0, 1), math.factorial(d))
        polys[sub] = polys[sub] + RatPoly({d: shift})
    elif flaw == 2:  # impure: a Laurent or a too-high term
        polys[member] = polys[member] + RatPoly({rng.choice((-1, d + 1)): 1})
    elif flaw == 3:
        ids = sorted(polys)
        relations.append((rng.choice(ids), rng.choice(ids)))
    return d, polys, relations


def _outcome(build, description):
    try:
        return build(*description)
    except StabilityError as exc:
        return exc


PAIR_ERRORS = (RankNotIncreasing, QuotientNotPure)


class TestEdgeValidation:
    """Purity is checked once per member and rank growth on the generating
    edges; tests/reference_lattice.py keeps the closure-wide check."""

    def test_quotient_checks_on_the_edges_of_a_128_member_lattice(self, monkeypatch):
        checks, stats_calls, subtractions = [], [], []
        check, stats, subtract = lattice_mod._check_quotient, lattice_mod.hilbert_stats, RatPoly.__sub__

        def counting_check(quotient, sup, sub, dim):
            checks.append((sub, sup))
            return check(quotient, sup, sub, dim)

        def counting_stats(poly, d):
            stats_calls.append(poly)
            return stats(poly, d)

        def counting_sub(self, other):
            subtractions.append((self, other))
            return subtract(self, other)

        monkeypatch.setattr(lattice_mod, "_check_quotient", counting_check)
        monkeypatch.setattr(lattice_mod, "hilbert_stats", counting_stats)
        monkeypatch.setattr(RatPoly, "__sub__", counting_sub)
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(7)})
        # one check and one hilbert_stats per nonzero member, none on the
        # 441 declared covers, the 119 member -> top edges or the 2059
        # pairs of the closure
        assert len(lat.ids()) == 128 and len(checks) == 127
        assert sorted(checks) == [("0", i) for i in lat.nonzero_ids()]
        assert stats_calls == [lat.member(i).poly for i in lat.nonzero_ids()]
        assert subtractions == []

    def test_same_verdicts_as_the_closure_check(self):
        rng = random.Random(20261018)
        seen = {"accepted": 0, **{cls.__name__: 0 for cls in PAIR_ERRORS}}
        for _ in range(400):
            description = _random_description(rng)
            expected = _outcome(reference_lattice.build_lattice, description)
            got = _outcome(lattice_mod.build_lattice, description)
            if isinstance(expected, SubobjectLattice):
                assert isinstance(got, SubobjectLattice), (description, got)
                assert got.structurally_equal(expected)
                seen["accepted"] += 1
            elif isinstance(expected, PAIR_ERRORS):
                assert isinstance(got, PAIR_ERRORS), (description, expected, got)
                seen[type(expected).__name__] += 1
            else:
                assert type(got) is type(expected), (description, expected, got)
        assert min(seen.values()) >= 20, seen

    def test_only_a_non_edge_pair_fails_first(self, capsys, tmp_path):
        # A < B < C < F with ranks 2, 3, 1, 4: the closure check reports the
        # non-edge pair A < C, the edge check the edge B < C; both exit 1
        description = (
            1,
            {"0": {}, "A": {1: 2}, "B": {1: 3}, "C": {1: 1}, "F": {1: 4}},
            [("A", "B"), ("B", "C")],
        )
        with pytest.raises(RankNotIncreasing, match="'A' < 'C'"):
            reference_lattice.build_lattice(*description)
        with pytest.raises(RankNotIncreasing, match="'B' < 'C'"):
            build_lattice(*description)
        path = tmp_path / "input.lattice"
        path.write_text(json.dumps({
            "dimension": 1,
            "objects": [{"id": i, "hilbert": h} for i, h in description[1].items()],
            "relations": description[2],
        }))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: RankNotIncreasing: ")

    def test_two_failing_edges_name_the_first_in_sorted_order(self):
        # rational ranks 5/2 >= 3/2 on A < B and 2 >= 1 on C < D: whatever
        # the order of the relations or the ids' hashes, the error names
        # the edge A < B, with the two ranks as Fractions print them
        for tag in "pqrstuvwxyz":
            a, b, c, d = (f"{tag}{name}" for name in "ABCD")
            polys = {"0": {}, a: {1: "5/2"}, b: {1: "3/2"}, c: {1: "2"}, d: {1: "1"}, "F": {1: "3"}}
            for relations in ([(a, b), (c, d)], [(c, d), (a, b)]):
                with pytest.raises(RankNotIncreasing) as failure:
                    build_lattice(1, polys, relations)
                assert str(failure.value) == (
                    f"rank must grow strictly along {a!r} < {b!r}: 5/2 >= 3/2"
                )

    def test_factorial_of_the_dimension_computed_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return math.factorial(n)

        monkeypatch.setattr(ratpoly_mod, "factorial", counting)
        d = 40
        lat = build_lattice(d, {"0": {}, "A": {d: 1}, "B": {d: 1, 3: 5}, "F": {d: 2, 0: 1}})
        assert calls == []  # the ranks come from hilbert_stats' running factorial
        assert lat.member("B").stats.reduced.coeff(3) == Fraction(5, math.factorial(d))


def _k4_lattice(d):
    return coordinate_lattice({"L0": 2, "L1": 1, "L2": 1, "L3": -1}, d)


def _answers(lat, calls):
    """(chains, gradeds, weights) of each call's answer, or its error."""
    answers = {}
    for name, call in calls:
        try:
            result = call(lat)
        except StabilityError as exc:
            answers[name] = (type(exc), str(exc))
            continue
        filtrations = result if isinstance(result, list) else [result]
        answers[name] = [
            (f.chain, f.gradeds, getattr(f, "weights", None)) for f in filtrations
        ]
    return answers


class TestQuotientMemo:
    """quotient_poly keeps each quotient's statistics on the lattice."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_memo_matches_fresh_statistics(self, d):
        lat = _k4_lattice(d)
        pairs = [(a, b) for a in lat.ids() for b in lat.ids() if lat.lt(a, b)]
        assert len(pairs) == 65
        first = {}
        for sub, sup in pairs:
            first[sub, sup] = quotient_poly(lat, sub, sup)
            expected = hilbert_stats(lat.member(sup).poly - lat.member(sub).poly, d)
            assert first[sub, sup] == expected
        for sub, sup in pairs:
            assert quotient_poly(lat, sub, sup) is first[sub, sup]
        for m in lat.nonzero_ids():
            assert quotient_poly(lat, lat.zero_id, m) is lat.member(m).stats

    @pytest.mark.parametrize("d", [1, 2])
    def test_invalid_pairs_raise_cold_and_warm(self, d):
        lat = _k4_lattice(d)
        invalid = [("F", "L0"), ("L0+L1", "L0"), ("F", "0"), ("L0", "L1")]
        invalid += [(m, m) for m in lat.ids()]
        invalid += [("nowhere", "F"), ("0", "nowhere"), ("nowhere", "nowhere")]

        def assert_all_raise():
            for sub, sup in invalid:
                with pytest.raises(NotComparable):
                    quotient_poly(lat, sub, sup)

        assert_all_raise()
        for sub in lat.ids():
            for sup in lat.ids():
                if lat.lt(sub, sup):
                    quotient_poly(lat, sub, sup)
        assert_all_raise()

    def test_answers_do_not_depend_on_the_call_order(self):
        calls = [
            ("hn", hn_filtration),
            ("canonical", canonical_filtration),
            ("chains", enumerate_chains),
            ("saturated", saturated_chains),
        ]
        rng = random.Random(20261019)
        for _ in range(100):
            state = rng.getstate()
            fresh = random_coordinate_lattice(rng, max_summands=4)
            rng.setstate(state)
            warmed = random_coordinate_lattice(rng, max_summands=4)
            _answers(warmed, calls[::-1])
            expected = _answers(fresh, calls)
            assert _answers(warmed, calls) == expected
            for answer in expected.values():
                if not isinstance(answer, list):  # an error
                    continue
                for chain, gradeds, _ in answer:
                    polys = [fresh.member(i).poly for i in chain] + [RatPoly.zero()]
                    assert gradeds == tuple(
                        hilbert_stats(sup - sub, fresh.dim) for sup, sub in zip(polys, polys[1:])
                    )


K7_TWISTS = {f"L{i}": (i * 7) % 5 - 2 + i for i in range(7)}


class TestClosureAndDocument:
    def test_lt_agrees_with_the_dfs_closure_on_128_members(self, monkeypatch):
        import conftest

        descriptions = []

        def recording(*description):
            descriptions.append(description)
            return build_lattice(*description)

        monkeypatch.setattr(conftest, "build_lattice", recording)
        lat = coordinate_lattice(K7_TWISTS)
        reference = reference_lattice.build_lattice(*descriptions[0])
        ids = lat.ids()
        assert len(ids) == 128 and len(descriptions[0][2]) == 441  # the declared covers
        assert [(a, b) for a in ids for b in ids if lat.lt(a, b)] == [
            (a, b) for a in ids for b in ids if reference.lt(a, b)
        ]
        assert lat.structurally_equal(reference)

    @pytest.mark.parametrize(
        "source", ["k7", *sorted(p.name for p in FIXTURES.glob("*.lattice"))]
    )
    def test_as_dict_round_trips_through_json(self, source):
        if source == "k7":
            lat = coordinate_lattice(K7_TWISTS, 2)
        else:
            lat, _ = load_lattice(FIXTURES / source)
        again = validate_lattice(json.loads(json.dumps(lat.as_dict())))
        assert again.structurally_equal(lat)


class TestReducedOnDemand:
    """The verdicts compare integer numerators, so loading a lattice and
    testing it computes no reduced polynomial; the leading-term commands
    compute the top's alone, for the ambient tau."""

    @pytest.fixture
    def computed(self, monkeypatch):
        computed = []
        original = ratpoly_mod.HilbertStats.reduced.func

        def counting(stats):
            computed.append(stats)
            return original(stats)

        reduced = functools.cached_property(counting)
        reduced.__set_name__(ratpoly_mod.HilbertStats, "reduced")
        monkeypatch.setattr(ratpoly_mod.HilbertStats, "reduced", reduced)
        return computed

    @pytest.fixture
    def k7_file(self, tmp_path):
        path = tmp_path / "k7.lattice"
        path.write_text(json.dumps(coordinate_lattice(K7_TWISTS, 2).as_dict()))
        return path

    @pytest.mark.parametrize("command", ["check", "hn"])
    def test_verdicts_compute_no_reduced_polynomial(self, computed, k7_file, capsys, command):
        assert main([command, str(k7_file)]) == 0
        assert computed == []

    @pytest.mark.parametrize("command", ["canonical", "polytope"])
    def test_leading_term_computes_the_tops_only(self, computed, k7_file, capsys, command):
        assert main([command, str(k7_file)]) == 0
        lat, _ = load_lattice(k7_file)
        assert computed == [lat.top.stats]
