"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All tolerances are exact (rational arithmetic); the only numeric threshold
is the 1-second runtime budget in criterion 1.
"""

import random
import time
from math import comb
from fractions import Fraction
from pathlib import Path

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
    delete_step,
    enumerate_chains,
    eventual_compare,
    hn_filtration,
    is_semistable,
    leading_term,
    make_chain,
    nu,
    nu_compare,
    pair_canonical,
    pair_semistable,
    polytope,
    primitive_weights,
)
from thetastab.errors import AmbiguousHN, ObjectSemistable, Semistable
from thetastab.oracle import candidate_count

from conftest import coordinate_lattice
from randgen import (
    random_coordinate_lattice,
    random_delta,
    random_lambda_lattice,
    random_path_filtration,
    random_subposet_lattice,
)
from reference_high_degree import pair_canonical_high_degree
from reference_oracle import iter_candidates
from reference_polytope import polytope_subset
from reference_ratpoly import leading_coeff


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def fixture_pairs() -> list[PairObject]:
    """22 pair configurations over small coordinate lattices."""
    configs = [
        ({"O": 0, "O1": 1}, 1, ["O", "O1", "F", None]),
        ({"O": 0, "O2": 2}, 1, ["O", "O2", "F"]),
        ({"A": 1, "B": 3}, 1, ["A", "B"]),
        ({"A": -1, "B": 1}, 1, ["A", "F"]),
        ({"A": 0, "B": 0}, 1, ["A", "F", None]),
        ({"O5": 5, "O1": 1, "O": 0}, 1, ["O", "O5", "F"]),
        ({"A": 0, "B": 1, "C": 2}, 1, ["A", "F"]),
        ({"P": 1, "Q": 0}, 2, ["P", "Q", "F"]),
    ]
    pairs = []
    for twists, d, betas in configs:
        lat = coordinate_lattice(twists, d)
        for beta in betas:
            pairs.append(PairObject(lattice=lat, beta_image=beta))
    return pairs


def test_criterion_01_nonconvex_pair_example(lat_b3, pair_b3):
    start = time.perf_counter()
    oracle = brute_force_max(lat_b3, pair=pair_b3, delta=RatPoly.zero(), bound=6)
    closed = pair_canonical(pair_b3, RatPoly.zero())
    elapsed = time.perf_counter() - start

    expected_chain = ("F", "O5+O", "O5")
    expected_weights = (-1, 0, 3)
    assert oracle.best is not None
    assert oracle.best.chain == expected_chain
    assert oracle.best.weights == expected_weights
    assert closed.source == "closed-form"
    assert closed.filtration.chain == expected_chain
    assert closed.filtration.weights == expected_weights
    # graded pieces deepest-first carry weights (3, 0, -1) on O(5), O, O(1)
    deep_first = list(zip(reversed(closed.filtration.weights),
                          reversed(closed.filtration.gradeds)))
    assert [(w, g.poly) for w, g in deep_first] == [
        (3, RatPoly({1: 1, 0: 6})),
        (0, RatPoly({1: 1, 0: 1})),
        (-1, RatPoly({1: 1, 0: 2})),
    ]
    assert oracle.value == NuValue(RatPoly({0: 10}), Fraction(10))
    assert elapsed < 1.0
    report(1, f"chain 0 < O5 < O5+O < F with weights (3, 0, -1) on the gradeds, "
              f"via oracle and closed form, in {elapsed:.3f}s")


def test_criterion_02_weight_formula_identity():
    from thetastab import weight_graded, weight_subobject

    rng = random.Random(4242)
    instances = 10_000
    for _ in range(instances):
        f = random_path_filtration(rng, max_dim=3, max_steps=5, weight_bound=10)
        assert weight_graded(f) == weight_subobject(f)
    report(2, f"graded and subobject weight formulas agree exactly on "
              f"{instances} randomized filtrations (d <= 3, length <= 5, |w| <= 10)")


def test_criterion_03_deletion_monotonicity():
    rng = random.Random(4343)
    target, checked, deletions = 1_000, 0, 0
    while checked < target:
        f = random_path_filtration(rng, max_dim=3, max_steps=5, weight_bound=10)
        if nu_compare(nu(f), NuValue.zero()) == LESS:
            continue
        candidates = [
            i
            for i in range(len(f.weights) - 1)
            if eventual_compare(f.gradeds[i + 1].reduced, f.gradeds[i].reduced) != GREATER
        ]
        if not candidates:
            continue
        for i in candidates:
            assert nu_compare(nu(delete_step(f, i)), nu(f)) != LESS
            deletions += 1
        checked += 1
    report(3, f"nu never decreased across {deletions} deletions on {checked} "
              f"randomized filtrations with nu >= 0")


def test_criterion_04_canonical_equals_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        lat = random_coordinate_lattice(rng)
        verdict, _ = is_semistable(lat)
        if verdict:
            continue
        can = canonical_filtration(lat)
        bound = max(abs(w) for w in can.weights)
        result = brute_force_max(lat, bound=bound)
        assert result.best is not None
        assert result.best.chain == can.chain
        assert result.best.weights == can.weights
        assert nu_compare(result.value, nu(can)) == EQUAL
        checked += 1

    # sub-posets are not closed under sums: the HN step may tie between
    # incomparable members (AmbiguousHN), or, where two incomparable members
    # share one class, the oracle may pick the other with the same value
    # and weights.  Lattices the oracle cannot score within the budget are
    # checked against pair_canonical's maximum over every saturated chain.
    rng = random.Random(11)
    outcomes = dict.fromkeys(("matched", "tied", "ambiguous", "semistable", "over budget"), 0)
    for _ in range(300):
        lat = random_subposet_lattice(rng, rng.randint(2, 4), rng.randint(1, 2), rng.choice((0.3, 0.6, 0.9)))
        try:
            can = canonical_filtration(lat)
        except AmbiguousHN:
            outcomes["ambiguous"] += 1
            continue
        except ObjectSemistable:
            assert is_semistable(lat)[0]
            outcomes["semistable"] += 1
            continue
        bound = max(abs(w) for w in can.weights)
        if sum(comb(2 * bound + 1, len(c.chain)) for c in enumerate_chains(lat)) <= 5000:
            result = brute_force_max(lat, bound=bound)
            best, value = result.best, result.value
        else:
            found = pair_canonical(PairObject(lattice=lat, beta_image=None), RatPoly.zero())
            best, value = found.filtration, found.value
            outcomes["over budget"] += 1
        assert nu_compare(value, nu(can)) == EQUAL
        assert best.weights == can.weights
        if best.chain == can.chain:
            outcomes["matched"] += 1
        else:
            classes = [[lat.member(m).poly for m in f.chain] for f in (best, can)]
            assert classes[0] == classes[1], (best.chain, can.chain)
            outcomes["tied"] += 1
    assert min(outcomes.values()) >= 1 and outcomes["matched"] >= 100, outcomes
    report(4, f"canonical filtration matched the oracle argmax (chain, primitive "
              f"weights, exact nu) on {checked} randomized unstable lattices; of "
              f"300 sub-posets, {outcomes['matched']} matched ("
              f"{outcomes['over budget']} against pair_canonical), "
              f"{outcomes['tied']} tied with a chain of equal classes, "
              f"{outcomes['ambiguous']} raised AmbiguousHN and "
              f"{outcomes['semistable']} were semistable")


def test_criterion_05_semistability_equivalence():
    rng = random.Random(2025)
    agreements = 0
    for _ in range(60):
        lat = random_coordinate_lattice(rng)
        verdict, _ = is_semistable(lat)
        oracle = brute_force_max(lat, bound=2)
        oracle_semistable = oracle.best is None
        assert verdict == oracle_semistable
        agreements += 1
    report(5, f"is_semistable agreed with (oracle max <= 0) on all {agreements} "
              f"randomized lattices")


def test_criterion_06_pair_criterion_equivalence(pair_o_o1):
    pairs = fixture_pairs()
    assert len(pairs) >= 20
    agreements = 0
    for pair in pairs:
        for value in (Fraction(1, 2), Fraction(1), Fraction(2)):
            delta = RatPoly.const(value)
            verdict, _ = pair_semistable(pair, delta)
            oracle = brute_force_max(pair.lattice, pair=pair, delta=delta, bound=3)
            assert verdict == (oracle.best is None), (
                pair.beta_image, value, verdict, oracle.best,
            )
            agreements += 1

    # the wall of O + O(1) with framing into O
    verdict, witness = pair_semistable(pair_o_o1, RatPoly.const(1))
    assert verdict and witness is None
    verdict, witness = pair_semistable(pair_o_o1, RatPoly.const(Fraction(1, 2)))
    assert not verdict and witness.id == "O1"
    verdict, witness = pair_semistable(pair_o_o1, RatPoly.const(2))
    assert not verdict and witness.id == "O"
    report(6, f"Le Potier criterion matched the constrained oracle on "
              f"{agreements} (pair, delta) checks; the delta = 1 wall of "
              f"O + O(1) is exact")


def _scalar_le_coeff_sqrt(c: Fraction, b: Fraction, q: Fraction, r: Fraction) -> bool:
    """Exact test of c / sqrt(b) <= q * sqrt(r) with b > 0, q, r >= 0."""
    if c <= 0:
        return True
    return c * c <= q * q * r * b


def test_criterion_07_big_degree_classification():
    pairs = fixture_pairs()
    neg_delta = RatPoly({2: -1})
    filtrations_checked = 0
    for pair in pairs:
        lat = pair.lattice
        rank_top = lat.top.stats.rank

        # delta = -n^2 (degree >= d for every fixture): always unstable,
        # destabilized by the one-step scaling filtration
        verdict, _ = pair_semistable(pair, neg_delta)
        assert verdict is False
        result = pair_canonical(pair, neg_delta)
        filt = result.filtration
        assert filt == pair_canonical_high_degree(pair, neg_delta)
        assert (filt.chain, filt.weights) == ((lat.top_id,), (1,))
        assert nu_compare(result.value, NuValue.zero()) == GREATER

        # delta = n^d: semistable iff the image fills F, and otherwise
        # destabilized by the image (or, without one, by scaling)
        pos_delta = RatPoly({lat.dim: 1})
        verdict, _ = pair_semistable(pair, pos_delta)
        assert verdict == (pair.beta_image == lat.top_id)
        if verdict:
            for canonical in (pair_canonical, pair_canonical_high_degree):
                try:
                    canonical(pair, pos_delta)
                    raise AssertionError("expected Semistable")
                except Semistable:
                    pass
        else:
            filt = pair_canonical(pair, pos_delta).filtration
            assert filt == pair_canonical_high_degree(pair, pos_delta)

        # Cauchy-Schwarz bounds on every enumerated pair-admissible filtration
        for delta in (neg_delta, pos_delta):
            degree = delta.degree()
            lead = leading_coeff(delta)
            for chain, weights, value in iter_candidates(lat, pair, delta, bound=2):
                coeff = value.L.coeff(degree)
                # universal bound |nu_D| <= |delta_D| / sqrt(rank F)
                assert coeff * coeff * rank_top <= lead * lead * value.b
                if lead > 0:
                    # refined signed bound via the weight-zero subobject
                    nonneg = [i for i, w in enumerate(weights) if w >= 0]
                    if nonneg:
                        sub = lat.member(chain[nonneg[0]]).stats.rank
                    else:
                        sub = Fraction(0)
                    quotient_rank = rank_top - sub
                    assert _scalar_le_coeff_sqrt(
                        coeff, value.b, lead / rank_top, quotient_rank
                    )
                filtrations_checked += 1
    report(7, f"big-degree classification exact on {len(pairs)} pairs; "
              f"Cauchy-Schwarz bounds held on {filtrations_checked} enumerated "
              f"filtrations with zero violations")


def _chain_is_convex(chain) -> bool:
    return all(
        eventual_compare(chain.gradeds[m + 1].reduced, chain.gradeds[m].reduced) != LESS
        for m in range(len(chain.gradeds) - 1)
    )


def test_criterion_08_polytope_containment(lat_b3, lat_o2_o):
    fixtures = [
        lat_b3,
        lat_o2_o,
        coordinate_lattice({"A": 2, "B": 1, "C": -1}),
        coordinate_lattice({"P": 1, "Q": 0}, 2),
        build_lattice(
            2,
            {
                "0": RatPoly.zero(),
                "A": RatPoly({2: Fraction(1, 2), 1: 2, 0: 5}),
                "F": RatPoly({2: 1, 1: 4, 0: 8}),
            },
        ),
    ]
    convex_checked = 0
    for lat in fixtures:
        lterm = leading_term(hn_filtration(lat))
        target = polytope(lterm.chain, lterm.index)
        for chain in enumerate_chains(lat):
            if not _chain_is_convex(chain):
                continue
            assert polytope_subset(polytope(chain, lterm.index), target)
            # containment lemma part (i): higher slopes match the ambient's,
            # that is the reduced polynomials' coefficients above the index
            top = lat.top.stats.reduced
            for member_id in chain.chain:
                reduced = lat.member(member_id).stats.reduced
                for level in range(lterm.index + 1, lat.dim):
                    assert reduced.coeff(level) == top.coeff(level)
            convex_checked += 1

    hull = polytope(hn_filtration(lat_b3), 0)
    assert set(hull.vertices) == {(0, 0), (-6, 1), (-8, 2), (-9, 3)}
    report(8, f"polytope containment held for {convex_checked} convex "
              f"filtrations across {len(fixtures)} fixture lattices; the "
              f"O(5)+O(1)+O hull is exactly {{(0,0), (-6,1), (-8,2), (-9,3)}}")


def test_criterion_09_large_scale_results_out_of_scope():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "good moduli" in readme
    report(9, "stack-level results (good moduli spaces, stratifications of the "
              "full stack) are documented as out of scope; coverage is via the "
              "invariant and oracle-equivalence suites on finite lattices")


def test_criterion_10_lambda_modules_have_one_maximizer():
    # A Lambda-module is tested on its Lambda-invariant subobjects, which
    # are closed under sums and intersections: on that lattice the HN
    # filtration is unique, so canonical_filtration and pair_canonical must
    # name the oracle's chain itself (no tie with a chain of equal classes)
    # and the oracle's maximum is attained by one (chain, primitive weights)
    rng = random.Random(23)
    seen = dict.fromkeys(("objects", "pairs", "semistable", "pair semistable", "over budget"), 0)

    def assert_unique_maximum(lat, pair, delta, found):
        bound = max(map(abs, found.weights))
        if candidate_count(lat, pair, bound) > 4000:
            seen["over budget"] += 1
            return False
        result = brute_force_max(lat, pair, delta, bound)
        assert (result.best.chain, result.best.weights) == (found.chain, found.weights)
        at_max = {
            (chain, primitive_weights(weights))
            for chain, weights, value in iter_candidates(lat, pair, delta, bound)
            if nu_compare(value, result.value) == EQUAL
        }
        assert at_max == {(found.chain, found.weights)}, at_max
        return True

    for trial in range(120):
        d = rng.choice((1, 2))
        lat = random_lambda_lattice(rng, rng.randint(2, 4), d, rng.choice((0.2, 0.4, 0.6)))
        try:
            can = canonical_filtration(lat)
        except ObjectSemistable:
            assert brute_force_max(lat, bound=2).best is None
            seen["semistable"] += 1
        else:
            seen["objects"] += assert_unique_maximum(lat, None, None, can)
        pair = PairObject(lattice=lat, beta_image=rng.choice((None, *lat.nonzero_ids())))
        delta = random_delta(rng, d, ("zero", "Laurent", "degree <= d-1")[trial % 3])
        try:
            found = pair_canonical(pair, delta).filtration
        except Semistable:
            assert brute_force_max(lat, pair, delta, 2).best is None
            seen["pair semistable"] += 1
        else:
            seen["pairs"] += assert_unique_maximum(lat, pair, delta, found)
    assert min(seen.values()) >= 1 and seen["objects"] >= 30 and seen["pairs"] >= 30, seen
    report(10, f"on Lambda-invariant lattices, canonical_filtration matched the "
               f"oracle's chain and weights on {seen['objects']} unstable objects "
               f"and pair_canonical on {seen['pairs']} unstable pairs, each maximum "
               f"attained once; {seen['semistable']} objects and "
               f"{seen['pair semistable']} pairs were semistable, "
               f"{seen['over budget']} left to the budget")
