import ast
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, gcd
from pathlib import Path

import pytest

from thetastab import (
    EQUAL,
    GREATER,
    LESS,
    NuValue,
    PairObject,
    RatPoly,
    brute_force_max,
    build_lattice,
    canonical_filtration,
    enumerate_chains,
    make_chain,
    nu,
    nu_compare,
)
from thetastab import invariant, oracle
from thetastab import ratpoly as ratpoly_mod
from thetastab.invariant import reported_nu
from thetastab.lattice import primitive_weights
from thetastab import lattice as lattice_mod
from thetastab.latfile import load_lattice
from thetastab.oracle import candidate_count

from conftest import FIXTURES, coordinate_lattice
from randgen import random_coprime_lattice, random_delta, random_lambda_lattice, random_subposet_lattice
from reference_oracle import graded_steps, iter_candidates, lcm_terms, reference_max, scored_candidates
from transforms import rebuilt


def P(mapping):
    return RatPoly(mapping)


def total_order(m):
    """Zero and a total order G01 < ... < G(m-1) at d = 1, G_k of rank k."""
    ids = [f"G{k:02d}" for k in range(1, m)]
    polys = {"0": RatPoly.zero(), **{i: P({1: k}) for k, i in enumerate(ids, 1)}}
    return build_lattice(1, polys, list(zip(ids, ids[1:])))


def package_imports(path: Path) -> set[str]:
    """The thetastab modules the source file at path imports, by their
    names in the package, relative imports and any inside a function
    included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("thetastab."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else ".".join(filter(None, ("thetastab", node.module)))
            if module == "thetastab":  # from . import oracle
                found.update(a.name for a in node.names)
            elif module is not None and module.startswith("thetastab."):
                found.add(module.split(".")[1])
    return found


class TestTheJudgeStandsApart:
    """The oracle judges the searches, so none of them may read its code:
    only the command line and the package's namespace import it."""

    def test_only_the_cli_and_the_package_import_the_oracle(self):
        sources = sorted(Path(oracle.__file__).parent.glob("*.py"))
        imports = {path.stem: package_imports(path) for path in sources}
        assert {"lattice", "ratpoly", "invariant", "canonical", "pairs", "cli", "__init__"} <= imports.keys()
        assert {name for name, found in imports.items() if "oracle" in found} == {"cli", "__init__"}
        assert imports["pairs"] >= {"canonical", "invariant", "lattice", "ratpoly"}

    def test_every_import_form_is_read(self, tmp_path):
        path = tmp_path / "probe.py"
        path.write_text(
            "import thetastab.oracle\nfrom . import invariant as inv\nfrom .lattice import make_chain\n"
            "from thetastab.pairs import pair_canonical\ndef f():\n    from .canonical import nu\nimport json\n"
        )
        assert package_imports(path) == {"oracle", "invariant", "lattice", "pairs", "canonical"}


class TestTheJudgeComparesOnItsOwn:
    """The oracle decides which candidate is better with code of its own
    (finding (o) of the roadmap): it imports no comparison from ratpoly,
    a wrong nu_compare leaves its answers as they were, and its rule
    agrees with nu_compare on every two-candidate stream."""

    def test_the_oracle_names_no_comparison_of_ratpoly(self):
        # every identifier of oracle.py: imported names, names and attributes
        tree = ast.parse(Path(oracle.__file__).read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "reported_nu" in names and "RatPoly" in names
        assert not names & {"nu_compare", "terms_compare", "eventual_compare", "reduced_compare"}

    def test_a_wrong_nu_compare_changes_no_answer(self, monkeypatch):
        rng = random.Random(20261121)
        cases = []
        for k in (2, 3, 3, 4):
            lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, rng.choice((1, 2)))
            for beta in (None, rng.choice(lat.nonzero_ids())):
                pair = None if beta is None else PairObject(lattice=lat, beta_image=beta)
                delta = random_delta(rng, lat.dim, rng.choice(TestAgainstReferenceOracle.FORMS))
                cases.append((lat, pair, delta, rng.randint(2, 4 if k < 4 else 3)))
        cases.append((coordinate_lattice({"A": 0, "B": 0}), None, None, 3))  # semistable
        answers = [brute_force_max(*case) for case in cases]
        assert any(a.best is None for a in answers) and any(a.best is not None for a in answers)

        real = ratpoly_mod.nu_compare

        def reversed_rule(x, y):
            return -real(x, y)

        # every binding of the name in the package, the oracle's module included
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("thetastab") and hasattr(module, "nu_compare"):
                monkeypatch.setattr(module, "nu_compare", reversed_rule)
        one = NuValue(P({0: 1}), Fraction(1))
        assert ratpoly_mod.nu_compare(one, NuValue.zero()) == -1
        assert [brute_force_max(*case) for case in cases] == answers

    @staticmethod
    def weights(rng, chain, g):
        """Strictly increasing weights in g * [-3, 3] for chain, of gcd g."""
        while True:
            weights = sorted(rng.sample(range(-3, 4), len(chain)))
            if gcd(*weights) == 1:
                return tuple(g * w for w in weights)

    def candidate(self, rng, chains):
        """A quadruple for argmax on one of chains: random weights of gcd
        g and random terms over exponents -2..2, and b, as a candidate of
        those weights has them: terms a multiple of g, b of g^2.  The
        terms are small, zero coefficients among them, or in one draw of
        four long: numerators of 30 to 40 digits, each exponent over a
        denominator of its own."""
        chain, g = rng.choice(chains), rng.choice((1, 1, 2, 3))
        exponents = rng.sample(range(-2, 3), rng.randint(0, 3))
        if rng.random() < 0.25:
            denominators = rng.sample(range(2, 90), len(exponents))
            terms = {e: g * Fraction(rng.choice((-1, 1)) * rng.randrange(10**29, 10**40), q)
                     for e, q in zip(exponents, denominators)}
        else:
            terms = {e: g * Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for e in exponents}
        return chain, self.weights(rng, chain, g), terms, g * g * rng.randint(1, 12)

    def test_each_winner_of_two_is_nu_compares(self, lat_b3):
        rng = random.Random(20261122)
        chains = [c.chain for c in enumerate_chains(lat_b3)]
        seen = Counter()
        for _ in range(1500):
            first = self.candidate(rng, chains)
            _, _, terms, b = first
            chain = rng.choice(chains)
            kind = rng.choice(("drawn", "scaled", "padded"))
            if kind == "drawn":
                second = self.candidate(rng, chains)
            elif kind == "scaled":  # the same value: terms times h, b times h^2
                h = rng.randint(2, 3)
                second = chain, self.weights(rng, chain, 1), {e: h * c for e, c in terms.items()}, h * h * b
            else:  # the same value with one zero coefficient more, or fewer
                padded = {e: c for e, c in terms.items() if c}
                padded.setdefault(rng.randint(-2, 2), Fraction(0))
                second = chain, self.weights(rng, chain, 1), padded, b
            values = [reported_nu(lat_b3, RatPoly(terms), b) for _, _, terms, b in (first, second)]
            keys = [(len(c), c, primitive_weights(w)) for c, w, _, _ in (first, second)]
            order = nu_compare(values[1], values[0])
            won = 1 if order == GREATER or order == EQUAL and keys[1] < keys[0] else 0
            result = oracle.argmax(lat_b3, iter([first, second]))
            assert result.explored == 2
            if nu_compare(values[won], NuValue.zero()) == GREATER:
                assert (result.best.chain, result.best.weights) == keys[won][1:], (first, second)
                assert nu_compare(result.value, values[won]) == EQUAL, (first, second)
            else:
                assert result.best is None and result.value == values[won], (first, second)
            seen[kind, order] += 1
            seen["Laurent"] += any(e < 0 and c for _, _, terms, _ in (first, second) for e, c in terms.items())
            seen["zero"] += any(c == 0 for _, _, terms, _ in (first, second) for c in terms.values())
            seen["positive"] += result.best is not None
            seen["long", order] += any(abs(c.numerator) >= 10**29 for _, _, terms, _ in (first, second)
                                       for c in terms.values())
        assert seen["Laurent"] and seen["zero"] and seen["positive"], seen
        assert seen["long", EQUAL] and seen["long", LESS] and seen["long", GREATER], seen
        assert seen["scaled", EQUAL] and seen["padded", EQUAL] and seen["drawn", LESS] and seen["drawn", GREATER], seen


class TestEnumerateChains:
    def test_two_member_lattice(self, lat_o2_o):
        chains = [c.chain for c in enumerate_chains(lat_o2_o)]
        assert ("F",) in chains and ("F", "O2") in chains
        assert len(chains) == 3  # F alone plus one per proper nonzero member

    def test_boolean_cube_count(self, lat_b3):
        # chains of nonzero members ending at top in the sub-sum lattice of
        # three summands: 1 trivial + 6 length-2 + 6 length-3
        chains = enumerate_chains(lat_b3)
        assert len(chains) == 13
        assert sorted(len(c.chain) for c in chains) == [1] + [2] * 6 + [3] * 6

    def test_minimal_lattice(self, lat_trivial):
        chains = enumerate_chains(lat_trivial)
        assert [c.chain for c in chains] == [("F",)]

    @staticmethod
    def assert_matches_make_chain(lat):
        chains = enumerate_chains(lat)
        rebuilt = [make_chain(lat, c.chain) for c in chains]
        assert [c.chain for c in chains] == [r.chain for r in rebuilt]
        assert [c.gradeds for c in chains] == [r.gradeds for r in rebuilt]
        assert [c.chain for c in chains] == sorted(c.chain for c in chains)
        assert len(set(c.chain for c in chains)) == len(chains)
        return chains

    @pytest.mark.parametrize("d", (1, 2))
    @pytest.mark.parametrize("k,count", ((3, 13), (4, 75), (5, 541)))
    def test_matches_make_chain_on_coordinate_lattices(self, k, count, d):
        # the chains of the sub-sum lattice of k summands are its ordered
        # set partitions, counted by the Fubini numbers
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)}, d)
        assert len(self.assert_matches_make_chain(lat)) == count

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lattice")))
    def test_matches_make_chain_on_fixtures(self, name):
        lat, _ = load_lattice(FIXTURES / name)
        self.assert_matches_make_chain(lat)

    def test_three_member_lattice(self):
        from thetastab import build_lattice

        lat = build_lattice(
            1, {"0": RatPoly.zero(), "O2": P({1: 1, 0: 3}), "F": P({1: 2, 0: 4})}
        )
        assert [c.chain for c in enumerate_chains(lat)] == [("F",), ("F", "O2")]

    def test_canonical_order(self, lat_b3):
        chains = [c.chain for c in enumerate_chains(lat_b3)]
        assert chains == sorted(chains)


class TestBruteForce:
    def test_o2_o(self, lat_o2_o):
        result = brute_force_max(lat_o2_o, bound=4)
        assert result.best.chain == ("F", "O2")
        assert result.best.weights == (-1, 1)
        assert result.value == NuValue(P({0: 2}), Fraction(2))

    def test_pair_constrained_fixture(self, lat_b3, pair_b3):
        result = brute_force_max(lat_b3, pair=pair_b3, delta=RatPoly.zero(), bound=6)
        assert result.best.chain == ("F", "O5+O", "O5")
        assert result.best.weights == (-1, 0, 3)
        assert result.value == NuValue(P({0: 10}), Fraction(10))

    def test_semistable_reports_none(self, lat_trivial):
        result = brute_force_max(lat_trivial, delta=RatPoly.zero(), bound=3)
        assert result.best is None
        assert nu_compare(result.value, NuValue.zero()) == EQUAL

    def test_negative_delta_destabilizes_even_trivial_lattices(self, lat_trivial):
        # the scaling filtration has value -delta/sqrt(rank) > 0
        result = brute_force_max(lat_trivial, delta=P({0: -1}), bound=3)
        assert result.best is not None
        assert (result.best.chain, result.best.weights) == (("F",), (1,))
        assert result.value == NuValue(P({0: 1}), Fraction(1))

    def test_explored_counts_feasible_candidates(self, lat_trivial):
        result = brute_force_max(lat_trivial, bound=3)
        # trivial chain, single weight in -3..3 minus the degenerate zero
        assert result.explored == 6

    def test_saturation_in_bound(self, lat_b3):
        values = [brute_force_max(lat_b3, bound=w).value for w in (3, 4, 6, 8)]
        for val in values[1:]:
            assert nu_compare(val, values[0]) == EQUAL

    def test_primitive_argmax_under_scaling_room(self, lat_o2_o):
        # with bound 4 the scaled copies (-2, 2) etc. tie; the reported
        # argmax stays primitive
        result = brute_force_max(lat_o2_o, bound=4)
        assert result.best.weights == (-1, 1)

    def test_semistable_lattice_every_candidate_nonpositive(self):
        from thetastab import GREATER

        lat = coordinate_lattice({"A": 0, "B": 0})
        for _, _, value in iter_candidates(lat, bound=3):
            assert nu_compare(value, NuValue.zero()) != GREATER

    def test_doubled_weights_leave_values_unchanged(self, lat_o2_o):
        # scale invariance of nu witnessed exhaustively at small bound
        top = lat_o2_o.top.stats
        for chain, weights, value in iter_candidates(lat_o2_o, bound=2):
            from thetastab import make_filtration, nu

            doubled = make_filtration(lat_o2_o, chain, [2 * w for w in weights])
            assert nu_compare(nu(doubled), value) == EQUAL

    def test_matches_canonical_on_ladder(self):
        lat = coordinate_lattice({"A": 2, "B": 1, "C": -1})
        can = canonical_filtration(lat)
        bound = max(abs(w) for w in can.weights)
        result = brute_force_max(lat, bound=bound)
        assert result.best.chain == can.chain
        assert result.best.weights == can.weights
        assert nu_compare(result.value, nu(can)) == EQUAL


class TestIterCandidates:
    def test_pair_constraint_filters(self, lat_o_o1, pair_o_o1):
        free = list(iter_candidates(lat_o_o1, None, None, 2))
        constrained = list(iter_candidates(lat_o_o1, pair_o_o1, None, 2))
        assert len(constrained) < len(free)
        for chain, weights, _ in constrained:
            if "O" in chain:
                assert weights[chain.index("O")] >= 0

    def test_a_bound_past_the_depth_counts_every_chain(self):
        # a 2201-digit W prunes no chain of a total order of n nonzero
        # members, so every length up to n keeps its vectors: the closed
        # form above, and C(2W + 1, L) per chain without the pair
        bound = int("9" * 2201)
        for n in (23, 39):
            lat = total_order(n + 1)
            lengths = range(1, n + 1)
            framed = sum(comb(n - 1, L - 1) * (comb(2 * bound + 1, L) - comb(bound, L)) for L in lengths) - 1
            assert candidate_count(lat, PairObject(lattice=lat, beta_image="G01"), bound) == framed, n
            assert candidate_count(lat, None, bound) == sum(comb(n - 1, L - 1) * comb(2 * bound + 1, L) for L in lengths) - 1

    def test_bound_validation(self, lat_trivial):
        with pytest.raises(ValueError):
            brute_force_max(lat_trivial, bound=0)


class TestAgainstReferenceOracle:
    """brute_force_max, scoring candidates on per-chain coefficient
    tables, against the per-candidate NuValue scorer it replaced: best
    chain, weights, value and explored all equal."""

    FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")

    @staticmethod
    def parts(seed):
        """The fixture lattices, lattices drawn from random.Random(seed) and
        Lambda-module lattices, each part with a generator of its own for
        its lattices' and cases' draws: a fixture file added or removed,
        or a part added, moves no other part's lattice or case."""
        fixtures = [load_lattice(path)[0] for path in sorted(FIXTURES.glob("*.lattice"))]
        rng = random.Random(seed)
        seeded = [
            coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, rng.choice((1, 2)))
            for k in (1, 2, 3, 3, 4)
        ]
        seeded += [random_subposet_lattice(rng, k, rng.choice((1, 2)), 0.5) for k in (3, 3, 4, 4, 4)]
        lam = random.Random(f"lambda {seed}")
        lambdas = [random_lambda_lattice(lam, k, lam.choice((1, 2)), 0.3) for k in (2, 3, 3, 4, 4)]
        return {
            "fixtures": (fixtures, random.Random(seed)), "seeded": (seeded, rng), "lambda": (lambdas, lam),
        }

    def test_seeded(self):
        seen = {"forms": set(), "bounds": set(), "pair": 0, "no pair": 0, "semistable": 0}
        for lattices, rng in self.parts(20261018).values():
            for lat in lattices:
                for beta in (None, rng.choice(lat.nonzero_ids())):
                    pair = None if beta is None else PairObject(lattice=lat, beta_image=beta)
                    for form in self.FORMS:
                        delta = random_delta(rng, lat.dim, form)
                        bound = rng.randint(1, 2 if len(lat.ids()) > 8 else 4)
                        result = brute_force_max(lat, pair, delta, bound)
                        assert result == reference_max(lat, pair, delta, bound), (lat, beta, delta, bound)
                        seen["forms"].add(form)
                        seen["bounds"].add(bound)
                        seen["pair" if pair else "no pair"] += 1
                        seen["semistable"] += result.best is None
        assert seen["forms"] == set(self.FORMS) and seen["bounds"] == {1, 2, 3, 4}, seen
        assert seen["pair"] and seen["no pair"] and seen["semistable"], seen

    def test_iter_candidates_matches_reference_stream(self, lat_b3, pair_b3):
        # each coefficient is one integer dot product over its column's
        # common denominator, and the stream is still the per-candidate
        # scorer's, candidate for candidate, on every family and delta
        # form, with terms in lowest terms.  iter_terms' b is on the integer
        # table's scale, the graded norm over rank_scale (1 on lat_b3, 1/105
        # on the first coprime lattice, 2 on the doubled fixture)
        rng = random.Random(20261020)
        coprime = random_coprime_lattice(random.Random(3), 3, 1)
        assert (lat_b3.rank_scale, coprime.rank_scale) == (1, Fraction(1, 3 * 5 * 7))
        big = random_coprime_lattice(rng, 2, 2)
        families = {
            "coordinate": [lat_b3, *(coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, d)
                                     for k, d in ((2, 2), (3, 1), (3, 2)))],
            "subposet": [random_subposet_lattice(rng, k, rng.choice((1, 2)), 0.6) for k in (3, 4)],
            "coprime": [coprime, *(random_coprime_lattice(rng, k, d) for k, d in ((2, 1), (3, 2)))],
            "lambda": [random_lambda_lattice(rng, k, rng.choice((1, 2)), 0.3) for k in (3, 4)],
            "twice": [load_lattice(FIXTURES / "p2_o1_o_twice.lattice")[0]],
            "twisted": [rebuilt(big, 3)],
        }
        assert families["twice"][0].rank_scale == 2
        twisted = families["twisted"][0]
        assert max(abs(c.numerator) for m in twisted.ids() for _, c in twisted.member(m).poly.items()) > 10**39
        marked = {id(lat_b3): pair_b3.beta_image, id(coprime): "S1"}
        for family, lattices in families.items():
            for lat in lattices:
                beta = marked.get(id(lat)) or rng.choice(lat.nonzero_ids())
                bound = 3 if len(lat.ids()) <= 8 else 2
                deltas = [random_delta(rng, lat.dim, form) for form in self.FORMS]
                for delta in (P({0: Fraction(1, 2), -1: -3}), *deltas):
                    for pair in (None, PairObject(lattice=lat, beta_image=beta)):
                        stream = list(oracle.iter_terms(lat, pair, delta, bound))
                        assert stream and all(type(t) is Fraction for *_, terms, _ in stream for t in terms.values())
                        assert [(c, w, RatPoly(t), b * lat.rank_scale) for c, w, t, b in stream] == [
                            (c, w, v.L, v.b) for c, w, v in scored_candidates(lat, pair, delta, bound)
                        ], (family, lat, beta, delta)

    def test_every_norm_is_an_int_on_the_table_scale(self):
        # b = sum N_gr[d] * w^2: an int, the graded norm over rank_scale
        rng = random.Random(20261019)
        checked = 0
        for lat in (random_coprime_lattice(rng, 3, 2), random_subposet_lattice(rng, 3, 1, 0.7),
                    coordinate_lattice({"A": 0, "B": 1, "C": 3}, 2)):
            pair = PairObject(lattice=lat, beta_image=rng.choice(lat.nonzero_ids()))
            for chain, weights, _, b in oracle.iter_terms(lat, pair, random_delta(rng, lat.dim, "degree d"), 2):
                gradeds = make_chain(lat, chain).gradeds
                assert type(b) is int and b * lat.rank_scale == sum(g.rank * w * w for g, w in zip(gradeds, weights))
                checked += 1
        assert checked > 100, checked


class TestTwoKernelsOneAnswer:
    """The library reads members, the references quotients.  A step
    table's entry, (A_sup - A_sub) / K for the integer member rows
    A_G = K * a(G), a(G) = P(G) - rank(G) * tau, is the quotient's
    P(gr) - rank(gr) * tau (reference_oracle.graded_steps), and iter_terms'
    stream, read off integer member rows over one denominator, is the
    stream laid out over per-column lcms from the quotients'
    contributions, terms dicts and their keys included."""

    KINDS = ("coordinate", "sub-poset", "coprime", "lambda", "twice", "d2000")
    # random_delta's forms, and a delta past both ends of 0..d at once:
    # Laurent, of degree above d and with a term at d
    FORMS = (*TestAgainstReferenceOracle.FORMS, "both ends")

    @classmethod
    def cases(cls, seed):
        # each kind at every form of delta, with a marked image or none;
        # "twice" is p2_o1_o_twice.lattice, whose rank_scale is 2, and
        # "d2000" a two-member lattice at d = 2000, whose rows hold two
        # exponents each
        rng = random.Random(seed)
        fixed = {
            "twice": load_lattice(FIXTURES / "p2_o1_o_twice.lattice")[0],
            "d2000": build_lattice(2000, {"0": {}, "E": {2000: 1, 0: 5}, "F": {2000: 2, 0: 1}}, [("E", "F")]),
        }
        for form, kind in product(cls.FORMS, cls.KINDS):
            d = rng.choice((1, 2))
            if kind == "coordinate":
                lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 4))}, d)
            elif kind == "sub-poset":
                lat = random_subposet_lattice(rng, rng.randint(2, 4), d, 0.6)
            elif kind == "coprime":
                lat = random_coprime_lattice(rng, rng.randint(2, 3), d)
            elif kind == "lambda":
                lat = random_lambda_lattice(rng, rng.randint(2, 4), d, 0.3)
            else:
                lat = fixed[kind]
            beta = rng.choice((None, *lat.nonzero_ids()))
            pair = None if beta is None else PairObject(lattice=lat, beta_image=beta)
            if form == "both ends":
                terms = (lat.dim + rng.randint(1, 3), lat.dim, -rng.randint(1, 3))
                delta = P({e: Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)) for e in terms})
            else:
                delta = random_delta(rng, lat.dim, form)
            yield kind, lat, pair, delta

    def test_step_entries_are_the_quotients(self):
        seen, scales = dict.fromkeys(self.KINDS, 0), set()
        for kind, lat, _, delta in self.cases(20261026):
            steps_of = invariant.step_table(lat, delta)
            for chain in enumerate_chains(lat):
                ranks, contribs = steps_of(chain.chain)
                expected_ranks, expected = graded_steps(lat, chain.chain, delta)
                assert [r * lat.rank_scale for r in ranks] == expected_ranks, (kind, chain.chain)
                assert list(contribs) == expected, (kind, chain.chain, delta)
                seen[kind] += 1
            scales.add(lat.rank_scale)
        # the d = 2000 lattice has two chains, (F,) and (F, E), at each form
        assert seen.pop("d2000") == 2 * len(self.FORMS), seen
        assert all(count >= 20 for count in seen.values()) and {1, 2} <= scales, (seen, scales)

    def test_iter_terms_is_the_lcm_stream(self):
        seen = dict.fromkeys(self.KINDS, 0)
        for kind, lat, pair, delta in self.cases(20261027):
            bound = 3 if len(lat.ids()) <= 8 else 2
            stream = list(oracle.iter_terms(lat, pair, delta, bound))
            expected = list(lcm_terms(lat, pair, delta, bound))
            assert stream == expected, (kind, lat, pair, delta)
            assert [terms.keys() for *_, terms, _ in stream] == [terms.keys() for *_, terms, _ in expected]
            seen[kind] += len(stream)
        assert all(count >= 150 for count in seen.values()), seen


class TestWorkCounts:
    def test_k4_pair_explores_and_builds_few_values(self, monkeypatch):
        # the scorer compares coefficient maps; a NuValue is built only for
        # the result (and the zero it is checked against), however many of
        # the 15 378 candidates become the incumbent on the way
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(4)})
        pair = PairObject(lattice=lat, beta_image="L0")
        built = []
        real = NuValue.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(NuValue, "__post_init__", counting)
        result = brute_force_max(lat, pair=pair, delta=P({0: Fraction(1, 2)}), bound=6)
        assert result.explored == 15378
        assert result.best.chain == ("F", "L2+L3+L0", "L2+L3", "L2")
        assert len(built) <= 2, len(built)

    def test_fraction_arithmetic_does_not_grow_with_the_candidates(self, monkeypatch):
        # the member rows are integers and each coefficient is one integer
        # dot product over their common denominator, so the search does no
        # Fraction arithmetic at W = 4 or at W = 6, where every chain of the
        # k = 4 pair is walked, against 3644 and 15 378 candidates
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__truediv__"):
            def counting(self, other, real=getattr(Fraction, name)):
                calls.append(real)
                return real(self, other)

            monkeypatch.setattr(Fraction, name, counting)
        counts, explored = [], []
        for bound in (4, 6):
            lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(4)})
            pair = PairObject(lattice=lat, beta_image="L0")
            delta = P({0: Fraction(1, 2)})
            calls.clear()
            explored.append(len(list(oracle.iter_terms(lat, pair, delta, bound))))
            counts.append(len(calls))
        assert explored == [3644, 15378]
        assert counts == [0, 0], counts

    def test_a_whole_search_does_fraction_arithmetic_for_its_result_alone(self, monkeypatch):
        # argmax weighs every candidate on ints, the positivity test on
        # its result too: across one whole brute_force_max call on the k = 4
        # pair, Fraction arithmetic and rich comparisons are the result's
        # alone, t / g at its one exponent and reported_nu's NuValue (b times
        # the rank scale, and its checks), as many against 3644 candidates
        # as against 15 378
        calls = Counter()
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                     "__rpow__", "__neg__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            def counting(*args, real=getattr(Fraction, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(Fraction, name, counting)
        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(4)})
        pair, delta = PairObject(lattice=lat, beta_image="L0"), P({0: Fraction(1, 2)})
        answers, counts = [], []
        for bound in (4, 6):
            calls.clear()
            result = brute_force_max(lat, pair, delta, bound)
            counts.append(dict(calls))
            answers.append((result.explored, result.best.chain, result.best.weights, result.value))
        monkeypatch.undo()
        chain = ("F", "L2+L3+L0", "L2+L3", "L2")
        assert answers == [
            (3644, chain, (-1, 0, 1, 4), NuValue(P({0: Fraction(23, 2)}), Fraction(18))),
            (15378, chain, (-1, 0, 1, 5), NuValue(P({0: Fraction(113, 8)}), Fraction(27))),
        ]
        assert counts[0] == counts[1] and sum(counts[0].values()) <= 4, counts
        assert counts[0]["__truediv__"] == 1, counts


    @pytest.mark.parametrize(
        "lat, beta, bound, explored, steps",
        [
            (total_order(24), "G01", 2, 17525, 276),
            (coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(4)}), "L0", 6, 15378, 65),
        ],
        ids=["total-order-24", "k4-pair"],
    )
    def test_each_member_gets_one_row_per_query(self, monkeypatch, lat, beta, bound, explored, steps):
        # one integer row per member per query, laid out before the walk:
        # the walk reads more steps than there are members (276 against 24
        # on the total order, 43 473 chain-steps), and no step costs a row
        queries = []
        real = oracle.member_rows

        def counting(*args):
            exponents, den, rows = real(*args)
            queries.append(len(rows))
            return exponents, den, rows

        pair = PairObject(lattice=lat, beta_image=beta)
        walked = set()
        for chain in enumerate_chains(lat, bound, beta):
            ids = chain.chain
            walked.update(zip(ids[1:] + (lat.zero_id,), ids))
        assert len(walked) == steps > len(lat.ids())
        monkeypatch.setattr(oracle, "member_rows", counting)
        search = oracle.iter_terms(lat, pair, P({0: Fraction(1, 2)}), bound)
        assert sum(1 for _ in search) == explored and queries == [len(lat.ids())]
        result = brute_force_max(lat, pair=pair, bound=bound)
        # the result is valued on the search's own terms: no second set of
        # rows, though the k = 4 pair has a winner
        assert result.explored == explored and queries == [len(lat.ids())] * 2


    def test_rows_span_only_the_exponents_that_occur(self):
        # at d = 2000 the members have two terms each: the rows, and so
        # every chain's columns, hold those exponents and delta's alone
        lat = build_lattice(2000, {"0": {}, "E": {2000: 1, 0: 5}, "F": {2000: 2, 0: 1}}, [("E", "F")])
        pair = PairObject(lattice=lat, beta_image="E")
        cases = ((None, [2000, 0]), (P({0: Fraction(1, 2)}), [2000, 0]), (P({7: 3, -2: -1}), [2000, 7, 0, -2]))
        for delta, exponents in cases:
            assert oracle.member_rows(lat, delta)[0] == exponents
            assert list(oracle.iter_terms(lat, pair, delta, 3)) == list(lcm_terms(lat, pair, delta, 3)), delta


class TestCandidateCount:
    """candidate_count is brute_force_max's explored count, read off chain
    lengths and pivots without building a chain or scoring a candidate."""

    def test_equals_explored(self):
        cases = {}
        for part, (lattices, rng) in TestAgainstReferenceOracle.parts(20261107).items():
            cases[part] = 0
            for lat in lattices:
                for beta in ("no pair", None, rng.choice(lat.nonzero_ids())):
                    pair = None if beta == "no pair" else PairObject(lattice=lat, beta_image=beta)
                    for bound in (1, 2, 3):
                        explored = brute_force_max(lat, pair, random_delta(rng, lat.dim, "zero"), bound).explored
                        assert candidate_count(lat, pair, bound) == explored, (lat, beta, bound)
                        cases[part] += 1
        # 7 fixtures, 10 seeded and 5 Lambda-module lattices, each 3
        # framings by 3 bounds
        assert cases == {"fixtures": 63, "seeded": 90, "lambda": 45}

    def test_fixtures_stay_small_at_the_default_bound(self):
        counts = {}
        for path in sorted(FIXTURES.glob("*.lattice")):
            lat, pair = load_lattice(path)
            counts[path.name] = candidate_count(lat, pair, 6)
        assert max(counts.values()) == counts["example_nonconvex.lattice"] == 1182, counts

    def test_builds_no_chain(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("counting needs no chain")

        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(6)})
        lengths = [len(c.chain) for c in enumerate_chains(lat)]
        monkeypatch.setattr(oracle, "enumerate_chains", fail)
        monkeypatch.setattr(lattice_mod, "quotient_poly", fail)  # where a chain reads its gradeds
        assert candidate_count(lat, PairObject(lattice=lat, beta_image="L0"), 6) == 2599050
        # without a constraint each chain of length L has C(2W + 1, L), so a
        # bound no search could reach is counted as fast as a small one
        huge = 10**30
        assert candidate_count(lat, None, huge) == sum(comb(2 * huge + 1, n) for n in lengths) - 1

    def test_closed_form_on_total_orders(self):
        # with the image at the bottom of a total order of n nonzero
        # members, each chain's pivot is its deepest member: the
        # C(n - 1, L - 1) chains of L members keep every weight vector but
        # the C(W, L) negative ones, and the longest ones carrying any have
        # 2W + 1 members however deep the order is
        for n, bound in ((1, 1), (4, 1), (6, 2), (23, 3), (1100, 2)):
            lat = total_order(n + 1)
            pair = PairObject(lattice=lat, beta_image="G01")
            expected = sum(
                comb(n - 1, length - 1) * (comb(2 * bound + 1, length) - comb(bound, length))
                for length in range(1, 2 * bound + 2)
            ) - 1
            assert candidate_count(lat, pair, bound) == expected, (n, bound)
            if n <= 6:
                assert brute_force_max(lat, pair, None, bound).explored == expected, (n, bound)
        assert expected == 61_560_515_774

    def test_a_bound_past_the_depth_counts_every_chain(self):
        # a 2201-digit W prunes no chain of a total order of n nonzero
        # members, so every length up to n keeps its vectors: the closed
        # form above, and C(2W + 1, L) per chain without the pair
        bound = int("9" * 2201)
        for n in (23, 39):
            lat = total_order(n + 1)
            lengths = range(1, n + 1)
            framed = sum(comb(n - 1, L - 1) * (comb(2 * bound + 1, L) - comb(bound, L)) for L in lengths) - 1
            assert candidate_count(lat, PairObject(lattice=lat, beta_image="G01"), bound) == framed, n
            assert candidate_count(lat, None, bound) == sum(comb(n - 1, L - 1) * comb(2 * bound + 1, L) for L in lengths) - 1

    def test_bound_validation(self, lat_trivial):
        with pytest.raises(ValueError):
            candidate_count(lat_trivial, None, 0)
