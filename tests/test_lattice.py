import collections
import functools
import hashlib
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
from randgen import (
    random_coordinate_lattice,
    random_coprime_lattice,
    random_graded_poly,
    random_lambda_lattice,
    random_subposet_lattice,
)
from reference_lattice import structurally_equal
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
from thetastab.lattice import pair_pivot_index
from thetastab.oracle import brute_force_max, candidate_count, saturated_chains


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
            {"1": "1", "0": "3", "00": "5"},
            {"1": "1", " 1": "1", "0": "3"},
        ],
        ids=[
            "float-coefficient",
            "exponent-x",
            "exponent-form-coefficient",
            "bool-coefficient",
            "float-exponent",
            "bool-exponent",
            "repeated-exponent",
            "repeated-exponent-blank",
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
        assert structurally_equal(lat, again)


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

PARSE_OUTCOMES = ("ParseError", "QuotientNotPure", "RankNotIncreasing")
BAD_COEFFICIENTS = ["1.5", "1e3", 1.5, True, "1_0", "inf", "nan", "", "1/0", "2/-3", "+-1", "\u0661", None, [1]]
BAD_EXPONENTS = ["x", "1.0", "", "1_0", 2.5, "\u0661"]


def _exponent_form(rng: random.Random, e: int):
    """e as a raw description may write it: an int, or a string with blanks
    around, a sign or leading zeros."""
    sign = "-" if e < 0 else rng.choice(("", "+"))
    return rng.choice((e, str(e), f" {e}", f"{e} ", f"{sign}0{abs(e)}"))


def _coefficient_form(rng: random.Random, c: Fraction):
    """c as a raw description may write it: an int when it is one, a
    Fraction, or a "p/q" string with a sign, blanks and a common factor."""
    forms = [c, f"{c.numerator}/{c.denominator}"]
    if c.denominator == 1:
        forms += [c.numerator, str(c.numerator)]
    k = rng.randint(1, 3)
    sign = "-" if c < 0 else rng.choice(("", "+"))
    text = f"{sign}{abs(c.numerator) * k}" + ("" if c.denominator * k == 1 else f"/{c.denominator * k}")
    forms.append(rng.choice(("", " ", "\t")) + text + rng.choice(("", " ")))
    return rng.choice(forms)


def _literal_description(rng: random.Random):
    """_random_description with its polynomials written as raw maps of
    literal forms, zero terms among them now and then; now and then a bad
    coefficient or exponent, an exponent written twice, or a member that
    is not a map."""
    d, polys, relations = _random_description(rng)
    raw = {}
    for name, poly in polys.items():
        terms = {_exponent_form(rng, e): _coefficient_form(rng, c) for e, c in poly.items()}
        if rng.random() < 0.2:
            e = rng.choice([e for e in range(-1, d + 2) if e not in poly._coeffs])
            terms[str(e)] = rng.choice((0, "0", "-0/3", Fraction(0)))
        raw[name] = terms
    member = rng.choice(sorted(raw))
    flaw = rng.randrange(8)
    if flaw == 1:
        raw[member][rng.choice(("0", "1", "2"))] = rng.choice(BAD_COEFFICIENTS)
    elif flaw == 2:
        raw[member][rng.choice(BAD_EXPONENTS)] = "1"
    elif flaw == 3 and polys[member]._coeffs:
        e = rng.choice(sorted(polys[member]._coeffs))
        raw[member][f" 0{e}" if e >= 0 else f" {e}"] = rng.choice(("1", "0", 2))
    elif flaw == 4:
        raw[member] = rng.choice((["1", "2"], "n + 1", 3, None))
    return d, raw, relations




def _order_description(rng: random.Random, kind: str):
    """(1, polys, relations) on zero and 3-6 members M0.. of ranks 1..5 at
    d = 1, written as string literals, with relations declared forward
    along a random permutation of the members, so acyclic.  By kind:
    "cycle" gives one member rank 6 and declares a cycle of 2-4 members,
    zero among them now and then, or a path of them that an implicit edge
    closes into a cycle, M.. -> zero (closed by zero -> M) or top -> M..
    (closed by M -> top), so some edge of it fails rank growth; "failing"
    gives one member rank 6 and puts it last, so no cycle forms,
    and half the time declares forward along the ranks instead, so the
    description may pass; "tie" gives 2-3 members the top rank."""
    ids = [f"M{k}" for k in range(rng.randint(3, 6))]
    rank = {i: rng.randint(1, 5) for i in ids}
    perm = rng.sample(ids, len(ids))
    if kind == "tie":
        for i in rng.sample(ids, rng.randint(2, 3)):
            rank[i] = max(rank.values())
    else:
        rank[perm[-1]] = 6
        if kind == "failing" and rng.random() < 0.5:
            perm.sort(key=rank.__getitem__)
    relations = [[a, b] for a, b in itertools.combinations(perm, 2) if rng.random() < 0.4]
    if kind == "cycle":
        closing = rng.randrange(3)
        if closing == 0:  # a declared cycle
            loop = rng.sample(ids + ["0"], rng.randint(2, 4))
            path = loop + loop[:1]
        elif closing == 1:  # closed by the implicit edge zero -> path[0]
            path = rng.sample(ids, rng.randint(1, 3)) + ["0"]
        else:  # closed by the implicit edge path[-1] -> top
            path = perm[-1:] + rng.sample(perm[:-1], rng.randint(1, 2))
        relations += [[a, b] for a, b in zip(path, path[1:])]
    rng.shuffle(relations)
    polys = {"0": {}, **{i: {"1": str(r), "0": str(rng.randint(-2, 2))} for i, r in rank.items()}}
    return 1, polys, relations


def _first_failing_edge(description) -> str:
    """The RankNotIncreasing message of a description of _order_description
    whose top is identifiable: the first generating edge in sorted order
    (declared, or member -> top) along which the rank does not grow."""
    _, polys, relations = description
    rank = {i: Fraction(p["1"]) for i, p in polys.items() if p}
    tops = [i for i in rank if rank[i] == max(rank.values())]
    if len(tops) > 1:
        tops = [i for i in tops if i not in {sub for sub, _ in relations}]
    [top] = tops
    edges = [tuple(edge) for edge in relations] + [(i, top) for i in rank if i != top]
    sub, sup = min(edge for edge in edges if edge[0] != "0" and rank[edge[0]] >= rank[edge[1]])
    return f"rank must grow strictly along {sub!r} < {sup!r}: {rank[sub]} >= {rank[sup]}"


class TestEdgeValidation:
    """Purity is checked once per member and rank growth on the generating
    edges; tests/reference_lattice.py keeps the closure-wide check."""

    def test_quotient_checks_on_the_edges_of_a_128_member_lattice(self, monkeypatch):
        stats_calls, subtractions, parsed = [], [], []
        stats, subtract, parse = lattice_mod.hilbert_stats, RatPoly.__sub__, lattice_mod._parse_terms

        def counting_stats(poly, d):
            stats_calls.append(poly)
            return stats(poly, d)

        def counting_sub(self, other):
            subtractions.append((self, other))
            return subtract(self, other)

        def counting_parse(member, value, *memos):
            parsed.append(member)
            return parse(member, value, *memos)

        monkeypatch.setattr(lattice_mod, "hilbert_stats", counting_stats)
        monkeypatch.setattr(RatPoly, "__sub__", counting_sub)
        monkeypatch.setattr(lattice_mod, "_parse_terms", counting_parse)
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(7)})
        # each member is read once, and the checks run on the integer table:
        # no quotient and no statistics on the 441 declared covers, the 119
        # member -> top edges or the 2059 pairs of the closure, and none per
        # member
        assert len(lat.ids()) == 128 and sorted(parsed) == sorted(lat.ids())
        assert stats_calls == [] and subtractions == []
        # a member's statistics are built from its row on first use, once
        for _ in range(2):
            for i in lat.nonzero_ids():
                assert lat.member(i).stats.poly == lat.member(i).poly
        assert stats_calls == [lat.member(i).poly for i in lat.nonzero_ids()]
        assert subtractions == []

    def test_same_verdicts_as_the_closure_check(self):
        # random descriptions, where the closure-wide reference may name
        # another failing pair, and descriptions of _order_description,
        # where the error and its message must match: a cycle is named
        # before any rank failure on its edges, a rank failure names the
        # first failing generating edge, and a tie at the top is broken, or
        # refused, as the reference does
        rng, order_rng = random.Random(20261018), random.Random(20261021)
        draws = [("random", _random_description(rng)) for _ in range(400)]
        draws += [(kind, _order_description(order_rng, kind)) for kind in ("cycle", "failing", "tie") * 150]
        seen = collections.Counter()
        for source, description in draws:
            expected = _outcome(reference_lattice.build_lattice, description)
            got = _outcome(lattice_mod.build_lattice, description)
            if isinstance(expected, SubobjectLattice):
                assert isinstance(got, SubobjectLattice), (description, got)
                assert structurally_equal(got, expected)
            elif isinstance(expected, PAIR_ERRORS) and source == "random":
                assert isinstance(got, PAIR_ERRORS), (description, expected, got)
            else:
                assert type(got) is type(expected), (description, expected, got)
                if source != "random":
                    rank_failure = isinstance(expected, RankNotIncreasing)
                    message = _first_failing_edge(description) if rank_failure else str(expected)
                    assert str(got) == message, description
            seen[source, type(expected).__name__] += 1
        assert seen["cycle", "CycleInRelation"] == 150, seen
        outcomes = [("random", "SubobjectLattice"), *(("random", cls.__name__) for cls in PAIR_ERRORS),
                    ("failing", "SubobjectLattice"), ("failing", "RankNotIncreasing"),
                    ("tie", "MissingTopOrZero"), ("tie", "RankNotIncreasing")]
        assert min(seen[outcome] for outcome in outcomes) >= 20, seen

    def test_same_errors_and_tables_on_literal_forms(self):
        # literals written with signs, blanks, common factors, ints and
        # Fractions, and bad ones, against the reference's Fraction parser:
        # the same error class and message (a RankNotIncreasing may name
        # another pair), or lattices with the same table and members
        rng = random.Random(20261019)
        seen = {"accepted": 0, **dict.fromkeys(PARSE_OUTCOMES, 0)}
        for _ in range(600):
            description = _literal_description(rng)
            expected = _outcome(reference_lattice.build_lattice, description)
            got = _outcome(lattice_mod.build_lattice, description)
            if isinstance(expected, SubobjectLattice):
                assert isinstance(got, SubobjectLattice), (description, got)
                assert structurally_equal(got, expected)
                assert (got.denominator, got.numerators) == (expected.denominator, expected.numerators)
                for i in expected.ids():
                    assert got.member(i).poly == expected.member(i).poly
                    assert got.member(i).rank == expected.member(i).rank
                seen["accepted"] += 1
                continue
            assert type(got) is type(expected), (description, expected, got)
            if not isinstance(expected, RankNotIncreasing):
                assert str(got) == str(expected), description
            name = type(expected).__name__
            seen[name] = seen.get(name, 0) + 1
        assert min(seen[k] for k in ("accepted", *PARSE_OUTCOMES)) >= 20, seen

    def test_repeated_exponent_is_a_parse_error(self):
        for hilbert, exponent in [
            ({"1": "1", "0": "3", "00": "5"}, 0),
            ({"1": "1", " 1": "1", "0": "3"}, 1),
            ({1: "1", "+1": "0", "0": "3"}, 1),
            ({"1": "1", "-1": "2", "-01": "2"}, -1),
        ]:
            with pytest.raises(ParseError) as failure:
                validate_lattice({
                    "dimension": 1,
                    "objects": [{"id": "0", "hilbert": {}}, {"id": "F", "hilbert": hilbert}],
                })
            assert str(failure.value) == f"member 'F' names exponent {exponent} twice"

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
        monkeypatch.setattr(lattice_mod, "factorial", counting)
        d = 40
        lat = build_lattice(d, {"0": {}, "A": {d: 1}, "B": {d: 1, 3: 5}, "F": {d: 2, 0: 1}})
        assert calls == []  # the build reads ranks off the table's top entries
        assert lat.member("B").stats.reduced.coeff(3) == Fraction(5, math.factorial(d))
        assert calls == [d]  # one factorial(d) per statistics build, none for i < d
        rank = math.factorial(d)
        assert lat.member("B").rank == rank and calls == [d]
        assert [lat.member(i).rank for i in lat.nonzero_ids()] == [rank, rank, 2 * rank]
        assert calls == [d, d, d]


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_gradeds_are_the_memos_objects_built_on_first_read(self, monkeypatch, d):
        # a chain stores its ids alone: neither make_chain nor the walks
        # compute a quotient, and the gradeds, once read, are the memo's
        lat = _k4_lattice(d)
        quotients, stats_calls = [], []
        memo, stats = lattice_mod.quotient_poly, lattice_mod.hilbert_stats

        def counting_memo(lat_, sub, sup):
            quotients.append((sub, sup))
            return memo(lat_, sub, sup)

        def counting_stats(poly, dim):
            stats_calls.append(poly)
            return stats(poly, dim)

        monkeypatch.setattr(lattice_mod, "quotient_poly", counting_memo)
        monkeypatch.setattr(lattice_mod, "hilbert_stats", counting_stats)
        chains = enumerate_chains(lat) + saturated_chains(lat)
        chains += [lattice_mod.make_chain(lat, c.chain) for c in chains]
        assert len(chains) == 2 * (75 + 24) and quotients == [] and stats_calls == []
        for chain in chains:
            ids = chain.chain
            assert chain.steps == tuple(zip(ids[1:] + ("0",), ids))
            assert quotients == [] and stats_calls == []
            gradeds = chain.gradeds
            assert quotients == list(chain.steps)
            assert all(g is memo(lat, *step) for g, step in zip(gradeds, chain.steps))
            assert chain.gradeds is gradeds  # read once, then kept
            quotients.clear(), stats_calls.clear()

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
        assert structurally_equal(lat, reference)

    @pytest.mark.parametrize(
        "source", ["k7", *sorted(p.name for p in FIXTURES.glob("*.lattice"))]
    )
    def test_as_dict_round_trips_through_json(self, source):
        if source == "k7":
            lat = coordinate_lattice(K7_TWISTS, 2)
        else:
            lat, _ = load_lattice(FIXTURES / source)
        again = validate_lattice(json.loads(json.dumps(lat.as_dict())))
        assert structurally_equal(again, lat)


def _seeded_lattices(monkeypatch):
    """(arm, lattice, description) over three arms: coordinate lattices
    with k = 1..7 summands, 200 random_subposet_lattice draws and coprime
    lattices with k = 1..5 summands; description is what build_lattice
    was given."""
    import conftest
    import randgen

    built = []

    def recording(*description):
        built.append((build_lattice(*description), description))
        return built[-1][0]

    monkeypatch.setattr(conftest, "build_lattice", recording)
    monkeypatch.setattr(randgen, "build_lattice", recording)
    rng = random.Random(20261019)
    draws = [
        ("coordinate", lambda k=k: coordinate_lattice(
            {f"L{i}": rng.randint(-3, 3) for i in range(k)}, rng.randint(1, 2)))
        for k in range(1, 8)
    ]
    draws += [
        ("subposet", lambda: random_subposet_lattice(
            rng, rng.randint(1, 5), rng.randint(1, 2), rng.random()))
    ] * 200
    draws += [
        ("coprime", functools.partial(random_coprime_lattice, rng, k, 1 + k % 2))
        for k in range(1, 6)
    ]
    lattices = []
    for arm, draw in draws:
        lat = draw()
        assert built[-1][0] is lat
        lattices.append((arm, lat, built[-1][1]))
    return lattices


def _dfs_closure(lat, description) -> set[tuple[str, str]]:
    """tests/reference_lattice.py's DFS closure of the generating edges of
    the description lat was built from."""
    _, _, relations = description
    edges = [(str(sub), str(sup)) for sub, sup in relations]
    edges += [(lat.zero_id, i) for i in lat.nonzero_ids()]
    edges += [(i, lat.top_id) for i in lat.proper_nonzero_ids()]
    return reference_lattice.dfs_closure(lat.ids(), edges)


def _covers(closure, ids) -> set[tuple[str, str]]:
    """The pairs of the closure with nothing strictly between them."""
    return {
        (sub, sup) for sub, sup in closure
        if not any((sub, m) in closure and (m, sup) in closure for m in ids)
    }


class TestMaskOrder:
    """The order queries (lt, leq, strictly_below, covers) and what is built
    on them, each against the DFS closure of tests/reference_lattice.py, on
    seeded lattices of three arms."""

    @pytest.fixture(scope="class")
    def lattices(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            lattices = _seeded_lattices(monkeypatch)
        sizes = {arm: sorted(len(lat.ids()) for a, lat, _ in lattices if a == arm) for arm, _, _ in lattices}
        assert sizes["coordinate"] == [2, 4, 8, 16, 32, 64, 128]
        assert sizes["coprime"] == [2, 4, 8, 16, 32] and len(sizes["subposet"]) == 200
        return [(arm, lat, _dfs_closure(lat, description)) for arm, lat, description in lattices]

    def test_lt_and_leq_on_every_pair_and_on_unknown_ids(self, lattices):
        for arm, lat, closure in lattices:
            ids = lat.ids()
            assert [(a, b) for a in ids for b in ids if lat.lt(a, b)] == sorted(closure), arm
            assert [(a, b) for a in ids for b in ids if lat.leq(a, b)] == sorted(
                closure | {(a, a) for a in ids}
            ), arm
            for a in (*ids, "unknown"):
                assert not lat.lt(a, "unknown") and not lat.lt("unknown", a)
                assert lat.leq(a, "unknown") == lat.leq("unknown", a) == (a == "unknown")

    def test_above_lists_what_lt_and_the_closure_put_above(self, lattices):
        lambdas = [random_lambda_lattice(random.Random(seed), 4, 1, 0.25) for seed in range(20)]
        for arm, lat, closure in [*lattices, *(("lambda", lat, None) for lat in lambdas)]:
            nonzero = lat.nonzero_ids()
            for member in lat.ids():
                expected = [sup for sup in nonzero if lat.lt(member, sup)]
                assert lat.above(member) == expected, (arm, member)
                if closure is not None:
                    assert expected == [sup for sup in nonzero if (member, sup) in closure], arm
            assert lat.above(lat.zero_id) == list(nonzero) and lat.above(lat.top_id) == []
            assert lat.above("unknown") == []

    def test_strictly_below_lists(self, lattices):
        for arm, lat, closure in lattices:
            nonzero = lat.nonzero_ids()
            assert lat.strictly_below == {
                sup: [sub for sub in nonzero if (sub, sup) in closure] for sup in nonzero
            }, arm

    def test_saturated_chains_follow_the_covers(self, lattices):
        for arm, lat, closure in lattices:
            nonzero, covers = set(lat.nonzero_ids()), _covers(closure, lat.ids())
            assert lat.covers == {
                sup: sorted(sub for sub, above in covers if above == sup and sub in nonzero)
                for sup in lat.nonzero_ids()
            }, arm
            expected, stack = [], [(lat.top_id,)]
            while stack:
                chain = stack.pop()
                if (lat.zero_id, chain[-1]) in covers:
                    expected.append(chain)
                stack.extend(chain + (sub,) for sub, sup in covers if sup == chain[-1] and sub in nonzero)
            assert [c.chain for c in saturated_chains(lat)] == sorted(expected), arm

    def test_candidate_count_is_the_explored_count(self, lattices):
        # and the bounded chain walk yields exactly the chains of the full
        # walk that carry a candidate: strictly increasing weights in
        # [-W, W], not all zero, with w_p >= 0 at beta's pivot p
        rng = random.Random(20261020)
        cases, cut = 0, 0
        for arm, lat, _ in lattices:
            if len(lat.ids()) > 16:
                continue
            for beta in (None, rng.choice(lat.nonzero_ids())):
                pair = None if beta is None else PairObject(lattice=lat, beta_image=beta)
                for bound in (1, 2):
                    explored = brute_force_max(lat, pair, None, bound).explored
                    assert candidate_count(lat, pair, bound) == explored, (arm, lat, beta, bound)
                    every = [c.chain for c in enumerate_chains(lat)]
                    carrying = [
                        chain for chain in every
                        if any(
                            any(weights) and (beta is None or weights[pair_pivot_index(chain, lat, beta)] >= 0)
                            for weights in itertools.combinations(range(-bound, bound + 1), len(chain))
                        )
                    ]
                    walked = [c.chain for c in enumerate_chains(lat, bound, beta)]
                    assert walked == carrying and len(walked) <= explored, (arm, lat, beta, bound)
                    cut += len(every) > len(walked)
                    cases += 1
        assert cases > 400 and cut > 50, (cases, cut)

    def test_as_dict_writes_the_covers_and_round_trips(self, lattices):
        for arm, lat, closure in lattices:
            doc = lat.as_dict()
            ids = lat.ids()
            assert doc["relations"] == [
                [sub, sup] for sub, sup in sorted(_covers(closure, ids)) if sub != lat.zero_id
            ], arm
            again = validate_lattice(json.loads(json.dumps(doc)))
            assert again.ids() == ids
            assert [(a, b) for a in ids for b in ids if again.lt(a, b)] == sorted(closure), arm
            assert (again.denominator, again.numerators) == (lat.denominator, lat.numerators)
            assert (again.zero_id, again.top_id) == (lat.zero_id, lat.top_id)

    def test_as_dict_relations_are_pinned(self, lattices):
        # the relations lists of every arm, byte for byte as the bitmask
        # cover rule (not below[sup] & above[sub]) wrote them before the
        # covers became a lattice query
        doc = json.dumps([lat.as_dict()["relations"] for _, lat, _ in lattices])
        assert sum(len(lat.as_dict()["relations"]) for _, lat, _ in lattices) == 2841
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "f67230fd25a5092d9aedc40ce73edc584d9a59510e804d01520774c7ab9e8812"
        )

    def test_as_dict_writes_the_441_covers_of_the_k7_lattice(self, monkeypatch):
        import conftest

        descriptions = []

        def recording(*description):
            descriptions.append(description)
            return build_lattice(*description)

        monkeypatch.setattr(conftest, "build_lattice", recording)
        relations = coordinate_lattice(K7_TWISTS, 2).as_dict()["relations"]
        # the covers between nonzero members are the sub-sums one summand
        # apart, the relations the coordinate lattice is declared with
        assert len(relations) == 441
        assert relations == sorted(list(pair) for pair in descriptions[0][2])


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


class TestLoaderWork:
    """A lattice file's distinct literals are parsed once each, into the
    integer table; member statistics are built on first use, so the
    verdicts that read the table alone (and hn, whose chain builds its
    graded pieces only when they are read) build none, and no rank needs
    a factorial."""

    @pytest.fixture
    def k7_pair_file(self, tmp_path):
        doc = coordinate_lattice(K7_TWISTS, 2).as_dict()
        doc["pair"] = {"beta_image": "L0"}
        path = tmp_path / "k7.lattice"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["hn"], ["pair-check", "--delta", "1/2"], ["sweep", "--sweep-deltas=-1,0,1/2,2"]],
        ids=["check", "hn", "pair-check", "sweep"],
    )
    def test_verdicts_parse_each_literal_once_and_build_no_member_statistics(
        self, monkeypatch, capsys, k7_pair_file, argv
    ):
        import thetastab.cli as cli_mod

        literals, stats_calls, loaded = [], [], []
        as_ratio, stats, load = lattice_mod.as_ratio, lattice_mod.hilbert_stats, cli_mod.load_lattice

        def counting_ratio(value):
            literals.append(value)
            return as_ratio(value)

        def counting_stats(poly, d):
            stats_calls.append(poly)
            return stats(poly, d)

        def recording_load(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(lattice_mod, "as_ratio", counting_ratio)
        monkeypatch.setattr(lattice_mod, "hilbert_stats", counting_stats)
        monkeypatch.setattr(cli_mod, "load_lattice", recording_load)
        assert main([argv[0], str(k7_pair_file), *argv[1:]]) == 0
        doc = json.loads(k7_pair_file.read_text())
        written = [c for entry in doc["objects"] for c in entry["hilbert"].values()]
        # one as_ratio call per distinct literal string, however often it repeats
        assert len(written) > 2 * 127 and sorted(literals) == sorted(set(written))
        [(lat, _)] = loaded
        built = [i for i in lat.ids() if {"poly", "stats"} & vars(lat.member(i)).keys()]
        # hn included: its chain's graded pieces are built only when read
        assert built == [] and stats_calls == []

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"1": True}, "bad rational literal True"),
            ({"1": 1.0}, "bad rational literal 1.0"),
            ({True: "1"}, "bad exponent True"),
            ({1.0: "1"}, "bad exponent 1.0"),
        ],
    )
    def test_memo_never_reads_a_bool_or_float_as_1(self, second, message):
        # the first member writes 1 as a string and as an int, exponent
        # and coefficient; only exact strings share a memo entry, so the
        # second member's literal, equal to 1 but no integer literal, is
        # still refused with its own message
        polys = {"0": {}, "A": {"1": "1", 0: 1}, "B": {1: 1}, "C": second}
        for build in (lattice_mod.build_lattice, reference_lattice.build_lattice):
            with pytest.raises(ParseError) as failure:
                build(1, polys)
            assert str(failure.value) == message

    @pytest.mark.parametrize(
        "spied, hilbert, message",
        [
            ("as_ratio", {"1": "1", "0": "1.5"}, "bad rational literal '1.5'"),
            ("as_integer", {"1": "1", "x": "2"}, "bad exponent 'x'"),
        ],
    )
    def test_a_repeated_bad_literal_fails_at_its_first_occurrence(
        self, monkeypatch, spied, hilbert, message
    ):
        calls, parse = [], getattr(lattice_mod, spied)

        def spy(value, *args):
            calls.append(value)
            return parse(value, *args)

        monkeypatch.setattr(lattice_mod, spied, spy)
        polys = {"0": {}, "A": hilbert, "B": dict(hilbert), "F": {"1": "2"}}
        with pytest.raises(ParseError) as failure:
            build_lattice(1, polys)
        assert str(failure.value) == message
        assert calls == ["1", message.split()[-1].strip("'")]

    def test_members_are_built_on_first_use_one_object_per_id(self, monkeypatch):
        built, make = [], lattice_mod.ObjectClass

        def counting_make(member_id, *args):
            built.append(member_id)
            return make(member_id, *args)

        monkeypatch.setattr(lattice_mod, "ObjectClass", counting_make)
        lat = coordinate_lattice({f"L{i}": i for i in range(4)})
        assert built == []
        first = {i: lat.member(i) for i in reversed(lat.ids())}
        assert built == list(reversed(lat.ids()))
        for i in lat.ids():
            assert lat.member(i) is first[i]
        assert lat.top is first[lat.top_id] and built == list(reversed(lat.ids()))
        for unknown in ("X", "", lat.top_id + " "):
            with pytest.raises(NotComparable, match="unknown lattice member"):
                lat.member(unknown)
        assert len(built) == len(lat.ids())

    def test_check_at_dimension_1e5_reads_no_rank(self, monkeypatch, capsys, tmp_path):
        d = 10**5
        hilberts = {"A": {str(d): "1", "0": "3"}, "B": {str(d): "1", "1": "-2"}}
        hilberts["F"] = {str(d): "2", "1": "-2", "0": "3"}
        path = tmp_path / "d1e5.lattice"
        path.write_text(json.dumps({
            "dimension": d,
            "objects": [{"id": "0", "hilbert": {}}]
            + [{"id": i, "hilbert": h} for i, h in hilberts.items()],
            "relations": [["A", "F"], ["B", "F"]],
        }))
        calls = []

        def refused(*args):
            calls.append(args)
            raise AssertionError("no factorial or statistics expected")

        for module in (lattice_mod, ratpoly_mod):
            monkeypatch.setattr(module, "factorial", refused)
            monkeypatch.setattr(module, "hilbert_stats", refused)
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "unstable (witness: A)\n"
        assert calls == []
