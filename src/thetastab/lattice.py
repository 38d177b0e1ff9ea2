"""Finite subobject-lattice model.

All stability computations run inside a user-declared finite poset of
object classes.  Each member is identified with its Hilbert polynomial;
declared inclusions stand for saturated subobjects (or sub-Lambda-modules),
so along every strict inclusion the quotient polynomial must again look
pure: degree exactly d with positive leading coefficient.

Structural conventions:

* the zero object is the unique member with the zero polynomial, and the
  ambient object (top) is the unique member of maximal rank; zero sits
  below everything and every member sits below top without needing to be
  declared,
* a chain is written top-first: G_(0) = top, deeper members later, with
  strictly increasing integer weights w_0 < w_1 < ... < w_q, matching the
  Rees picture where the weights are the jump set of a Z-indexed family,
* a pair marks the saturated image of the framing map; any filtration of
  the pair must give that member a nonnegative weight (the framing factors
  through the weight-zero subobject).

Every lattice carries an integer table: one common denominator D, the lcm
of the denominators of all member coefficients, and for each member G the
integers N_G = D * P(G) over the exponents 0..d.  rank(G) = d! * N_G[d] / D
is a positive multiple of N_G[d], the same multiple for every member, so
reduced polynomials and ranks compare by integer cross-multiplication
(ratpoly.reduced_compare), and the quotient sup/sub has the numerators
N_sup - N_sub.  The table is built from the members when the lattice is
constructed, however it is constructed.

Validation checks each member as its own quotient by zero, then only rank
growth on the generating edges, the declared inclusions and the implicit
member -> top ones, by comparing the table's top entries.  Ranks add up
along a path of edges, so strict growth holds on the whole transitive
closure, and a failure names the first failing edge in sorted order.
Purity then follows for every quotient: when sub and sup are pure and
rank(sub) < rank(sup), sup - sub has no Laurent terms and n^d coefficient
(rank(sup) - rank(sub)) / d! > 0.  The closure itself is built in one pass
over a topological order of the edges (Kahn's algorithm), each member's
up-set the union of its successors' up-sets; a member the order cannot
place lies on a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    ChainNotIncreasing,
    CycleInRelation,
    MissingTopOrZero,
    NotComparable,
    PairConstraintViolated,
    ParseError,
    QuotientNotPure,
    RankNotIncreasing,
    WeightsNotIncreasing,
)
from .ratpoly import HilbertStats, RatPoly, as_integer, hilbert_stats


@dataclass(frozen=True)
class ObjectClass:
    """A formal pure object of dimension d, identified by its polynomial.

    stats is None exactly for the zero object.
    """

    id: str
    poly: RatPoly
    stats: HilbertStats | None

    @property
    def rank(self) -> Fraction:
        return self.stats.rank if self.stats is not None else Fraction(0)

    @property
    def is_zero(self) -> bool:
        return self.stats is None


def _coerce_poly(value: RatPoly | Mapping) -> RatPoly:
    """A RatPoly, or an exponent -> coefficient map with exponents as
    ratpoly.as_integer and coefficients as ratpoly.as_fraction read them;
    anything else is a ParseError."""
    if isinstance(value, RatPoly):
        return value
    if not isinstance(value, Mapping):
        raise ParseError(f"polynomial must be an exponent->coefficient map, got {value!r}")
    return RatPoly({as_integer(exp, "exponent"): coeff for exp, coeff in value.items()})


class SubobjectLattice:
    """Validated finite poset of object classes; immutable after build."""

    def __init__(self, dim, members, zero_id, top_id, closure):
        self.dim: int = dim
        self._members: dict[str, ObjectClass] = members
        self.zero_id: str = zero_id
        self.top_id: str = top_id
        self._closure: frozenset[tuple[str, str]] = closure
        self._ids = tuple(sorted(members))
        self._nonzero_ids = tuple(i for i in self._ids if i != zero_id)
        self._proper_nonzero_ids = tuple(i for i in self._nonzero_ids if i != top_id)
        # The integer table (see the module docstring); members are pure,
        # so no exponent outside 0..dim occurs.
        self.denominator: int = lcm(
            *(c.denominator for m in members.values() for c in m.poly._coeffs.values())
        )
        self.numerators: dict[str, tuple[int, ...]] = {}
        for i, m in members.items():
            row = [0] * (dim + 1)
            for e, c in m.poly._coeffs.items():
                row[e] = c.numerator * self.denominator // c.denominator
            self.numerators[i] = tuple(row)
        # quotient_poly's memo, seeded with each member over zero
        self._quotients: dict[tuple[str, str], HilbertStats] = {
            (zero_id, i): m.stats for i, m in members.items() if i != zero_id
        }

    # -- access -----------------------------------------------------------

    def member(self, member_id: str) -> ObjectClass:
        try:
            return self._members[member_id]
        except KeyError:
            raise NotComparable(f"unknown lattice member {member_id!r}") from None

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def nonzero_ids(self) -> tuple[str, ...]:
        return self._nonzero_ids

    def proper_nonzero_ids(self) -> tuple[str, ...]:
        return self._proper_nonzero_ids

    @property
    def top(self) -> ObjectClass:
        return self._members[self.top_id]

    def lt(self, sub: str, sup: str) -> bool:
        """Strict inclusion in the transitive closure."""
        return (sub, sup) in self._closure

    def leq(self, sub: str, sup: str) -> bool:
        return sub == sup or self.lt(sub, sup)

    def structurally_equal(self, other: SubobjectLattice) -> bool:
        return (
            self.dim == other.dim
            and self.zero_id == other.zero_id
            and self.top_id == other.top_id
            and self._closure == other._closure
            and {i: m.poly for i, m in self._members.items()}
            == {i: m.poly for i, m in other._members.items()}
        )

    def as_dict(self) -> dict:
        """JSON-ready description with the same semantics, for round-tripping:
        exponents and coefficients are strings, as in a lattice file."""
        return {
            "dimension": self.dim,
            "objects": [
                {"id": i, "hilbert": {str(e): str(c) for e, c in self._members[i].poly.items()}}
                for i in self.ids()
            ],
            "relations": [list(pair) for pair in sorted(self._closure)],
        }

    def __repr__(self) -> str:
        return f"SubobjectLattice(d={self.dim}, top={self.top_id!r}, members={len(self._members)})"


def _check_quotient(quotient: RatPoly, sup: str, sub: str, dim: int) -> None:
    """QuotientNotPure unless sup/sub looks pure: degree exactly dim, no
    Laurent terms and a positive leading coefficient."""
    if quotient.has_negative_exponents() or quotient.degree() != dim:
        raise QuotientNotPure(f"quotient {sup!r}/{sub!r} must have degree exactly {dim}")
    if quotient.leading_coeff() <= 0:
        raise QuotientNotPure(f"quotient {sup!r}/{sub!r} has nonpositive leading coefficient")


def build_lattice(
    dim: int,
    polys: Mapping[str, RatPoly | Mapping],
    relations: Iterable[Sequence[str]] = (),
) -> SubobjectLattice:
    """Validate a lattice description and return the closed lattice.

    relations lists declared strict inclusions (sub, super); inclusions of
    the zero object and into the ambient object are implicit.

    Each nonzero member is checked for purity once; its statistics give
    the ranks and the top.  Edges are checked for rank growth only, on the
    lattice's integer table: the quotient along a path is the sum of the
    quotients along its edges, so ranks grow on every closure pair, and a
    pure member over a pure member of smaller rank leaves a pure quotient,
    so that check could not fail.  The pair named in a RankNotIncreasing
    error is the first failing edge in sorted order.
    """
    if dim < 0:
        raise ParseError(f"dimension must be nonnegative, got {dim}")
    coerced = {str(i): _coerce_poly(p) for i, p in polys.items()}
    if not coerced:
        raise MissingTopOrZero("lattice has no members")

    zero_ids = [i for i, p in coerced.items() if p.is_zero()]
    if len(zero_ids) != 1:
        raise MissingTopOrZero(
            f"expected exactly one zero member, found {len(zero_ids)}"
        )
    zero_id = zero_ids[0]

    declared: set[tuple[str, str]] = set()
    for pair in relations:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"relation {pair!r} is not a [sub, super] pair")
        sub, sup = str(pair[0]), str(pair[1])
        if sub not in coerced or sup not in coerced:
            raise ParseError(f"relation {pair!r} references an unknown member")
        if sub == sup:
            raise CycleInRelation(f"member {sub!r} declared strictly inside itself")
        declared.add((sub, sup))

    # Each member is its own quotient by zero: check it, then read its
    # statistics, which give the ranks below.
    nonzero = sorted(i for i in coerced if i != zero_id)
    if not nonzero:
        raise MissingTopOrZero("lattice has no nonzero member")
    stats: dict[str, HilbertStats] = {}
    for i in nonzero:
        _check_quotient(coerced[i], i, zero_id, dim)
        stats[i] = hilbert_stats(coerced[i], dim)

    # The ambient object is the member of maximal rank (every proper
    # saturated subobject has strictly smaller rank); a rank tie is broken
    # against members declared inside something else.
    top_rank = max(stats[i].rank for i in nonzero)
    top_ids = [i for i in nonzero if stats[i].rank == top_rank]
    if len(top_ids) > 1:
        declared_subs = {sub for sub, _ in declared}
        top_ids = [i for i in top_ids if i not in declared_subs]
    if len(top_ids) != 1:
        raise MissingTopOrZero(
            "ambient object not identifiable: maximal rank is not unique"
        )
    top_id = top_ids[0]

    edges = set(declared)
    for i in coerced:
        if i != zero_id:
            edges.add((zero_id, i))
        if i not in (top_id, zero_id):
            edges.add((i, top_id))

    # Closure over a topological order (Kahn's algorithm): the strict up-set
    # of a member is its successors and their up-sets.
    succ: dict[str, list[str]] = {n: [] for n in coerced}
    indegree = dict.fromkeys(coerced, 0)
    for a, b in edges:
        succ[a].append(b)
        indegree[b] += 1
    order = [n for n, k in indegree.items() if k == 0]
    for node in order:  # grows while it is read
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                order.append(nxt)
    if len(order) < len(coerced):
        raise CycleInRelation("declared inclusions contain a cycle")
    above: dict[str, set[str]] = {}
    for node in reversed(order):
        above[node] = set(succ[node]).union(*(above[nxt] for nxt in succ[node]))
    closure = {(sub, sup) for sub, ups in above.items() for sup in ups}

    members = {i: ObjectClass(id=i, poly=p, stats=stats.get(i)) for i, p in coerced.items()}
    lat = SubobjectLattice(dim, members, zero_id, top_id, frozenset(closure))

    # Rank growth compares the integer table's top entries; an edge into
    # zero would have closed a cycle above.  The error names the first
    # failing edge in sorted order.
    numerators = lat.numerators
    failing = [
        (sub, sup) for sub, sup in edges
        if sub != zero_id and numerators[sub][dim] >= numerators[sup][dim]
    ]
    if failing:
        sub, sup = min(failing)
        raise RankNotIncreasing(
            f"rank must grow strictly along {sub!r} < {sup!r}: "
            f"{stats[sub].rank} >= {stats[sup].rank}"
        )
    return lat


def validate_lattice(raw: Mapping) -> SubobjectLattice:
    """Validate a raw description {dimension, objects, relations}."""
    try:
        dim = raw["dimension"]
        objects = raw["objects"]
        relations = raw.get("relations", ())
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed lattice description: {exc}") from exc
    if type(dim) is not int:
        raise ParseError(f"dimension must be a JSON integer, got {dim!r}")
    if not isinstance(objects, (list, tuple)) or not isinstance(relations, (list, tuple)):
        raise ParseError("objects and relations must be lists")
    polys: dict[str, RatPoly | Mapping] = {}
    for entry in objects:
        try:
            obj_id, hilbert = str(entry["id"]), entry["hilbert"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed object entry {entry!r}") from exc
        if obj_id in polys:
            raise ParseError(f"duplicate member id {obj_id!r}")
        polys[obj_id] = hilbert
    return build_lattice(dim, polys, relations)


@dataclass(frozen=True)
class PairObject:
    """A lattice together with the saturated image of the framing map.

    beta_image None encodes a zero framing map.
    """

    lattice: SubobjectLattice
    beta_image: str | None

    def __post_init__(self):
        if self.beta_image is not None:
            member = self.lattice.member(self.beta_image)
            if member.is_zero:
                raise ParseError("beta_image must be a nonzero member (use null for beta = 0)")


@dataclass(frozen=True)
class UnweightedFiltration:
    """Strictly increasing chain G_(q) < ... < G_(0) = top, stored top-first.

    gradeds[m] holds the statistics of G_(m)/G_(m+1), with the implicit
    G_(q+1) = 0.
    """

    lattice: SubobjectLattice = field(compare=False)
    chain: tuple[str, ...]
    gradeds: tuple[HilbertStats, ...] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.chain)

    def is_trivial(self) -> bool:
        return len(self.chain) == 1


def quotient_poly(lat: SubobjectLattice, sub: str, sup: str) -> HilbertStats:
    """Statistics of sup/sub; requires sub strictly inside sup.  Computed
    once per lattice and pair, and kept on the lattice."""
    if (sub, sup) not in lat._quotients:
        if not lat.lt(sub, sup):
            raise NotComparable(f"{sub!r} is not strictly contained in {sup!r}")
        quotient = lat.member(sup).poly - lat.member(sub).poly
        lat._quotients[sub, sup] = hilbert_stats(quotient, lat.dim)
    return lat._quotients[sub, sup]


def make_chain(lat: SubobjectLattice, ids: Sequence[str]) -> UnweightedFiltration:
    """Validate a top-first chain of nonzero members."""
    chain = tuple(str(i) for i in ids)
    if not chain:
        raise ChainNotIncreasing("chain must contain at least the ambient object")
    if chain[0] != lat.top_id:
        raise ChainNotIncreasing(
            f"chain must start at the ambient object {lat.top_id!r}, got {chain[0]!r}"
        )
    for member_id in chain:
        if lat.member(member_id).is_zero:
            raise ChainNotIncreasing("the zero object is implicit and may not appear")
    for deeper, shallower in zip(chain[1:], chain):
        if not lat.lt(deeper, shallower):
            raise ChainNotIncreasing(
                f"{deeper!r} is not strictly contained in {shallower!r}"
            )
    gradeds = tuple(
        quotient_poly(lat, sub, sup)
        for sup, sub in zip(chain, chain[1:] + (lat.zero_id,))
    )
    return UnweightedFiltration(lattice=lat, chain=chain, gradeds=gradeds)


@dataclass(frozen=True)
class WeightedFiltration(UnweightedFiltration):
    """Chain plus strictly increasing integer weights (Rees jump set), one
    per step; equality compares (chain, weights)."""

    weights: tuple[int, ...]


def pair_pivot_index(chain: Sequence[str], lat: SubobjectLattice, beta_image: str) -> int:
    """Largest chain index j with beta_image contained in G_(j)."""
    pivot = 0
    for j, member_id in enumerate(chain):
        if lat.leq(beta_image, member_id):
            pivot = j
    return pivot


def make_filtration(
    lat: SubobjectLattice,
    chain: Sequence[str],
    weights: Sequence[int],
    pair: PairObject | None = None,
) -> WeightedFiltration:
    """Validate chain, weights, and (for pairs) the image-weight constraint."""
    base = make_chain(lat, chain)
    ws = tuple(int(w) for w in weights)
    if len(ws) != len(base.chain):
        raise WeightsNotIncreasing(
            f"{len(base.chain)} chain members need {len(base.chain)} weights, got {len(ws)}"
        )
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise WeightsNotIncreasing(f"weights must be strictly increasing, got {ws}")
    if pair is not None and pair.beta_image is not None:
        if pair.lattice is not lat:
            raise ParseError("pair belongs to a different lattice")
        j = pair_pivot_index(base.chain, lat, pair.beta_image)
        if ws[j] < 0:
            raise PairConstraintViolated(
                f"image subobject sits at index {j} with weight {ws[j]} < 0"
            )
    return WeightedFiltration(lattice=lat, chain=base.chain, gradeds=base.gradeds, weights=ws)


def primitive_weights(weights: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a rational weight vector by a positive factor to coprime
    integers; the zero vector comes back unchanged."""
    scale = lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (scale // w.denominator) for w in weights]
    common = gcd(*ints)
    if common > 1:
        ints = [v // common for v in ints]
    return tuple(ints)


def graded_pieces(f: WeightedFiltration) -> list[tuple[int, HilbertStats]]:
    """(weight, graded statistics) per step, deepest step first."""
    pieces = [(w, g) for w, g in zip(f.weights, f.gradeds)]
    return pieces[::-1]
