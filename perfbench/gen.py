"""Seeded inputs for the three workloads.

Every lattice is a coordinate lattice (the full sub-sum lattice of k line
bundles on P^d), built through the public API (hilbert_line_bundle_projective
and build_lattice) or read from fixtures/ through the JSON lattice format.
Each query carries the generator-side facts the checks need: the twists
(as a reference.Coordinate), the marked image as a set of summands, and
delta as a plain polynomial.  The program under test only ever sees the
lattice, the pair and delta.

The shape of a round (how many lattices of each k and d, how many deltas
each) is fixed; the seed draws twists, marked images and deltas.  That keeps
the cost of a round nearly independent of the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from thetastab import PairObject, RatPoly, build_lattice, hilbert_line_bundle_projective
from thetastab.latfile import load_lattice

from reference import Coordinate, Poly

F = Fraction

# delta literals (as the CLI takes them) and their polynomials
DELTAS: dict[str, Poly] = {
    "0": {},
    "-1/2": {0: F(-1, 2)},
    "1/3": {0: F(1, 3)},
    "1/2": {0: F(1, 2)},
    "2/3": {0: F(2, 3)},
    "1": {0: F(1)},
    "3/2": {0: F(3, 2)},
    "2": {0: F(2)},
    "5/2": {0: F(5, 2)},
    "3": {0: F(3)},
    "4": {0: F(4)},
    "n": {1: F(1)},
    "1/2*n": {1: F(1, 2)},
    "1/2*n + 1": {1: F(1, 2), 0: F(1)},
    "2*n - 1": {1: F(2), 0: F(-1)},
    "2*n + 1": {1: F(2), 0: F(1)},
    "n^2": {2: F(1)},
    "1/2*n^2 - n": {2: F(1, 2), 1: F(-1)},
}

# deltas > 0 of degree <= d - 1 (the Le Potier regime, where the closed form runs)
LE_POTIER = {
    1: ["1/3", "1/2", "2/3", "1", "3/2", "2", "5/2", "3", "4"],
    2: ["1/2", "2", "3", "n", "1/2*n", "1/2*n + 1", "2*n - 1"],
}
# pair-check also visits delta = 0, delta < 0 and deg(delta) >= d, in this
# fixed rotation over the files
PAIR_CHECK = [
    LE_POTIER, {1: ["0"], 2: ["0"]}, LE_POTIER, {1: ["-1/2"], 2: ["-1/2"]},
    LE_POTIER, {1: ["n", "2*n + 1"], 2: ["n^2", "1/2*n^2 - n"]},
]
SWEEP_VALUES = ["0", "1/3", "1/2", "1", "3/2", "2", "3", "4"]

# fixtures/ files are coordinate lattices too: (dimension, twist of each summand)
FIXTURES = {
    "trivial.lattice": (1, {"O": 0}),
    "o2_o.lattice": (1, {"O2": 2, "O": 0}),
    "o_o1_pair.lattice": (1, {"O": 0, "O1": 1}),
    "p2_o1_o.lattice": (2, {"A1": 1, "A0": 0}),
    "example_nonconvex.lattice": (1, {"O5": 5, "O1": 1, "O": 0}),
}


@dataclass
class Query:
    """One query plus the facts its check needs."""

    kind: str
    ref: Coordinate
    beta: frozenset[str] | None = None
    argv: list[str] | None = None  # verdict_batch
    delta: str | None = None  # delta literal
    pair: PairObject | None = None
    lattice: object = None
    bound: int | None = None  # oracle_audit
    semistable: bool | None = None  # pair_closed_form

    @property
    def delta_poly(self) -> Poly | None:
        return None if self.delta is None else DELTAS[self.delta]

    @property
    def delta_ratpoly(self) -> RatPoly | None:
        return None if self.delta is None else RatPoly(self.delta_poly)


def random_twists(rng: random.Random, k: int, equal: bool = False) -> dict[str, int]:
    if equal:
        value = rng.randint(-2, 3)
        return {f"L{i}": value for i in range(k)}
    while True:
        twists = {f"L{i}": rng.randint(-2, 3) for i in range(k)}
        if len(set(twists.values())) > 1:
            return twists


def random_beta(rng: random.Random, ref: Coordinate, size: int) -> frozenset[str]:
    """A nonzero proper sub-sum of the given number of summands."""
    return frozenset(rng.sample(ref.order, size))


def coordinate_lattice(ref: Coordinate, beta: frozenset[str] | None):
    """Build the lattice through the public API; return it with its file document."""
    polys = {"0": RatPoly.zero()}
    relations = []
    for r in range(1, len(ref.order) + 1):
        for combo in itertools.combinations(ref.order, r):
            poly = RatPoly.zero()
            for s in combo:
                poly = poly + hilbert_line_bundle_projective(ref.dim, ref.twists[s])
            polys[ref.member_id(combo)] = poly
            if r < len(ref.order):
                relations += [
                    (ref.member_id(combo), ref.member_id(combo + (s,)))
                    for s in ref.order if s not in combo
                ]
    lattice = build_lattice(ref.dim, polys, relations)
    doc = {
        "dimension": ref.dim,
        "objects": [
            {"id": i, "hilbert": {str(e): str(c) for e, c in p.items()}} for i, p in polys.items()
        ],
        "relations": [list(r) for r in relations],
    }
    if beta is not None:
        doc["pair"] = {"beta_image": ref.member_id(beta)}
    return lattice, doc


def fixture(root: Path, name: str):
    """Load a fixture; check that it is the coordinate lattice FIXTURES says."""
    dim, twists = FIXTURES[name]
    ref = Coordinate(dim, twists)
    path = root / "fixtures" / name
    raw = json.loads(path.read_text())
    declared = {o["id"]: {int(e): F(c) for e, c in o["hilbert"].items()} for o in raw["objects"]}
    expected = {"0": {}}
    expected.update({ref.member_id(s): ref.poly(s) for s in ref.proper + [ref.full]})
    if declared != expected:
        raise ValueError(f"{path} is not the coordinate lattice of {twists} on P^{dim}")
    lattice, pair = load_lattice(path)
    beta = None if pair is None else ref.subset(pair.beta_image)
    return ref, beta, path, lattice, pair


# -- verdict_batch --------------------------------------------------------------

# (k, d, all twists equal); every lattice gets all six subcommands
VERDICT_SHAPES = [
    (5, 1, False), (5, 2, False), (5, 1, True),
    (6, 1, False), (6, 2, False), (6, 2, True),
    (7, 1, False), (7, 2, False),
]
PLAIN_COMMANDS = ["check", "hn", "canonical", "polytope"]


def _verdict_queries(rng, ref, beta, path, index) -> list[Query]:
    out = [Query(cmd, ref, beta, argv=[cmd, str(path)]) for cmd in PLAIN_COMMANDS]
    if beta is not None:
        delta = rng.choice(PAIR_CHECK[index % len(PAIR_CHECK)][ref.dim])
        out.append(Query("pair-check", ref, beta, argv=["pair-check", str(path), f"--delta={delta}"],
                         delta=delta))
        values = sorted(rng.sample(SWEEP_VALUES, 4), key=F)
        out.append(Query("sweep", ref, beta, argv=["sweep", str(path), "--sweep-deltas", ",".join(values)]))
    for q in out:
        q.argv += ["--format", "structured"]
    return out


def verdict_batch(seed: int, root: Path, workdir: Path) -> list[Query]:
    rng = random.Random(f"verdict_batch:{seed}")
    queries = []
    for i, (k, d, equal) in enumerate(VERDICT_SHAPES):
        ref = Coordinate(d, random_twists(rng, k, equal))
        beta = random_beta(rng, ref, 1 + i % 2)
        _, doc = coordinate_lattice(ref, beta)
        path = workdir / f"coord{i}.lattice"
        path.write_text(json.dumps(doc))
        queries += _verdict_queries(rng, ref, beta, path, i)
    for i, name in enumerate(FIXTURES, start=len(VERDICT_SHAPES)):
        ref, beta, path, _, _ = fixture(root, name)
        queries += _verdict_queries(rng, ref, beta, path, i)
    rng.shuffle(queries)
    return queries


# -- pair_closed_form -------------------------------------------------------------

# (k, d, deltas per lattice, semistable, lattices); the semistable pairs send
# pair_canonical down its oracle fallback, which is affordable only at k = 3
PAIR_SHAPES = [
    (3, 1, 4, False, 4), (3, 2, 4, False, 4),
    (3, 1, 1, True, 3),
    (4, 1, 3, False, 2), (4, 2, 3, False, 2),
    (5, 1, 2, False, 1),
]


def _pair_block(rng, k, d, count, semistable) -> list[Query]:
    if semistable:
        # the marked summand has twist t and the others t + g; at delta = g
        # every Le Potier inequality holds with equality (d = 1)
        marked, t, g = rng.randrange(k), rng.randint(-2, 1), rng.choice([1, 2])
        ref = Coordinate(d, {f"L{i}": t if i == marked else t + g for i in range(k)})
        beta, deltas = frozenset({f"L{marked}"}), [str(g)]
        if not all(ref.pair_verdict(beta, DELTAS[x])[0] for x in deltas):
            raise RuntimeError(f"{ref.twists} is not semistable at delta = {g}")
    else:
        while True:
            ref = Coordinate(d, random_twists(rng, k))
            beta = random_beta(rng, ref, 1)
            pool = LE_POTIER[d][:]
            rng.shuffle(pool)
            deltas = [x for x in pool if ref.top_unstable(beta, DELTAS[x])]
            if len(deltas) >= count:
                break
    lattice, _ = coordinate_lattice(ref, beta)
    pair = PairObject(lattice=lattice, beta_image=ref.member_id(beta))
    return [
        Query("pair", ref, beta, delta=x, pair=pair, lattice=lattice, semistable=semistable)
        for x in deltas[:count]
    ]


def pair_closed_form(seed: int, root: Path, workdir: Path) -> list[Query]:
    rng = random.Random(f"pair_closed_form:{seed}")
    blocks = [
        _pair_block(rng, k, d, count, semistable)
        for k, d, count, semistable, lattices in PAIR_SHAPES
        for _ in range(lattices)
    ]
    # consecutive queries on one lattice share its chains
    rng.shuffle(blocks)
    return [q for block in blocks for q in block]


# -- oracle_audit -----------------------------------------------------------------

# (k, d, weight bounds, with a pair); plain lattices are queried without a
# pair and delta, the others both without and with one.  55 queries a round,
# so that neither p50 nor p90 sits on the boundary between two queries.
ORACLE_SHAPES = [
    (2, 1, (4, 5, 6), True), (2, 2, (4, 5, 6), True),
    (3, 1, (4, 5, 6), True), (3, 1, (4, 5, 6), True), (3, 2, (4, 5, 6), True),
    (4, 1, (4,), False),
]


def _oracle_queries(rng, ref, beta, lattice, pair, bounds) -> list[Query]:
    out = []
    for bound in bounds:
        out.append(Query("oracle", ref, lattice=lattice, bound=bound))
        if pair is not None:
            delta = rng.choice(LE_POTIER[ref.dim])
            out.append(Query("oracle", ref, beta, delta=delta, pair=pair, lattice=lattice, bound=bound))
    return out


def oracle_audit(seed: int, root: Path, workdir: Path) -> list[Query]:
    rng = random.Random(f"oracle_audit:{seed}")
    queries = []
    for k, d, bounds, paired in ORACLE_SHAPES:
        ref = Coordinate(d, random_twists(rng, k))
        beta = random_beta(rng, ref, 1) if paired else None
        lattice, _ = coordinate_lattice(ref, beta)
        pair = PairObject(lattice=lattice, beta_image=ref.member_id(beta)) if paired else None
        queries += _oracle_queries(rng, ref, beta, lattice, pair, bounds)
    for name in FIXTURES:
        ref, beta, _, lattice, pair = fixture(root, name)
        queries += _oracle_queries(rng, ref, beta, lattice, pair, (4, 5, 6))
    rng.shuffle(queries)
    return queries


GENERATORS = {
    "verdict_batch": verdict_batch,
    "pair_closed_form": pair_closed_form,
    "oracle_audit": oracle_audit,
}
