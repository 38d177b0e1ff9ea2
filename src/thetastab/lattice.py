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
is a positive multiple of N_G[d], the same multiple rank_scale = d!/D for
every member, so reduced polynomials and ranks compare by integer
cross-multiplication (ratpoly.reduced_compare), the quotient sup/sub has
the numerators N_sup - N_sub, and a step table weighs it by the integer
N_sup[d] - N_sub[d] (see invariant).  integer_table is the one way to
form it, and a SubobjectLattice takes it as given.

build_lattice reads each member once: every exponent with
ratpoly.as_integer, then every coefficient literal with ratpoly.as_ratio
into an integer numerator and denominator, exact types first; an exponent
named twice is a ParseError.  Each load keeps two memos, exponent string
-> integer and coefficient string -> (numerator, denominator), so a
literal of type str that repeats across members ("0", "1", "-1/2") is
parsed once per load; other literals (ints, Fractions) are read each time
and never share a memo entry with a string.  Nothing is kept across
loads.  A dimension past MAX_DIMENSION is a ParseError before any of
that.  Then, in this order and on those integers: exactly one member is
zero; the declared relations name members; each nonzero member, in
sorted order, is pure as its own quotient by zero (degree exactly d, no
Laurent term, N_G[d] > 0); the table is formed; the top is the member
with the largest N_G[d] (a tie is broken against members declared inside
another); and rank grows along each generating edge, the declared
inclusions and the implicit member -> top ones.  Ranks add up along a
path of edges, so strict growth holds on the whole transitive closure,
and a failure names the first failing edge in sorted order, unless the
edges hold a cycle, which is named first.  Purity then follows for every
quotient: when sub and sup are pure and rank(sub) < rank(sup), sup - sub
has no Laurent terms and n^d coefficient (rank(sup) - rank(sub)) / d! > 0.

The order is kept as integer bitmasks, never as a set of pairs, and no
code outside SubobjectLattice reads them: callers ask in member ids.
Once rank grows along every edge, the members sorted by N_G[d] are a
topological order of the edges (a cycle would need the rank to rise all
the way around it), and member k of that order owns bit k.  Each member's
up-set mask, the members strictly above it, is the OR of its successors'
bits and up-set masks, filled in reverse order.  Only when some edge
fails rank growth is graphlib asked for a topological order, to tell a
cycle from a plain rank failure.  lt and leq read one bit, above(m)
one mask per nonzero member;
strictly_below (for each nonzero member, the sorted nonzero members
strictly below it) and covers (those of them with nothing strictly
between) are built on first use and kept.

No ObjectClass, RatPoly or HilbertStats is built while loading: member()
builds a member's ObjectClass on first use, one per id, and its polynomial
and statistics (and so the d! of its rank) are built from its row on
first use and kept on the member.  Only a chain's graded pieces form a
quotient (quotient_poly), when first read: the verdicts and searches none.
"""

from __future__ import annotations

import graphlib
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
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
from .ratpoly import HilbertStats, RatPoly, as_integer, as_ratio, hilbert_stats


@dataclass(frozen=True)
class ObjectClass:
    """A formal pure object of dimension d, identified by its Hilbert
    polynomial P = row / denominator: its row of the lattice's integer
    table, over the exponents 0..d, and the table's denominator D.

    poly and stats are built from the row on first use and kept; stats is
    None exactly for the zero object.
    """

    id: str
    row: tuple[int, ...] = field(repr=False)
    denominator: int = field(repr=False)

    @cached_property
    def poly(self) -> RatPoly:
        return _row_poly(self.row, self.denominator)

    @cached_property
    def stats(self) -> HilbertStats | None:
        return None if self.is_zero else hilbert_stats(self.poly, len(self.row) - 1)

    @property
    def rank(self) -> Fraction:
        return self.stats.rank if self.stats is not None else Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.row[-1]  # a nonzero member's top entry is positive


def _row_poly(row: Iterable[int], denominator: int) -> RatPoly:
    """The polynomial whose coefficients over the exponents 0.. are row / denominator."""
    return RatPoly._of({e: Fraction(n, denominator) for e, n in enumerate(row) if n})


#: The largest dimension build_lattice accepts: the integer table keeps
#: d + 1 entries per member, so a larger d is refused before any row.
MAX_DIMENSION = 10**6

#: A member's nonzero terms: exponent -> (numerator, positive denominator),
#: in lowest terms.
Terms = dict[int, tuple[int, int]]


def _parse_terms(
    member: str,
    value: RatPoly | Mapping,
    exponent_memo: dict[str, int],
    ratio_memo: dict[str, tuple[int, int]],
) -> Terms:
    """The terms of a RatPoly, or of an exponent -> coefficient map: its
    exponents as ratpoly.as_integer reads them, all before any coefficient,
    then its coefficients as ratpoly.as_ratio reads them.  A literal of
    type str is looked up in the memo first and added to it once read, so
    each distinct string is parsed once per memo; any other literal is
    read every time.  An exponent named twice, or a value that is neither,
    is a ParseError."""
    if type(value) is not dict:
        if isinstance(value, RatPoly):
            return {e: (c.numerator, c.denominator) for e, c in value._coeffs.items()}
        if not isinstance(value, Mapping):
            raise ParseError(f"polynomial must be an exponent->coefficient map, got {value!r}")
    exponents = []
    for exp in value:
        if type(exp) is not str:
            exponents.append(as_integer(exp, "exponent"))
            continue
        if exp not in exponent_memo:
            exponent_memo[exp] = as_integer(exp, "exponent")
        exponents.append(exponent_memo[exp])
    if len(set(exponents)) < len(exponents):
        repeated = next(e for k, e in enumerate(exponents) if e in exponents[:k])
        raise ParseError(f"member {member!r} names exponent {repeated} twice")
    terms: Terms = {}
    for exp, coeff in zip(exponents, value.values()):
        if type(coeff) is not str:
            ratio = as_ratio(coeff)
        else:
            if coeff not in ratio_memo:
                ratio_memo[coeff] = as_ratio(coeff)
            ratio = ratio_memo[coeff]
        if ratio[0]:
            terms[exp] = ratio
    return terms


def integer_table(dim: int, terms: Mapping[str, Terms]) -> tuple[int, dict[str, tuple[int, ...]]]:
    """The denominator D, the lcm of every coefficient's denominator, and
    each member's row D * P(G) over the exponents 0..dim, for members whose
    terms lie in that range."""
    denominator = lcm(*(den for member in terms.values() for _, den in member.values()))
    rows = {}
    for member_id, member in terms.items():
        row = [0] * (dim + 1)
        for e, (num, den) in member.items():
            row[e] = num * (denominator // den)
        rows[member_id] = tuple(row)
    return denominator, rows


class SubobjectLattice:
    """Validated finite poset of object classes; immutable after build.

    denominator and numerators are the integer table (see the module
    docstring), taken as given; members are built on them.  The order is
    taken as masks, private to the lattice: member order[k] owns bit k, and
    above[m] is the mask of the members strictly above m.
    """

    def __init__(self, dim, denominator, numerators, zero_id, top_id, order, above):
        self.dim: int = dim
        self.denominator: int = denominator
        self.numerators: dict[str, tuple[int, ...]] = numerators
        self._members: dict[str, ObjectClass] = {}  # built by member() on first use
        self.zero_id: str = zero_id
        self.top_id: str = top_id
        self._bits: dict[str, int] = {m: 1 << k for k, m in enumerate(order)}
        self._above: dict[str, int] = above
        self._ids = tuple(sorted(numerators))
        self._nonzero_ids = tuple(i for i in self._ids if i != zero_id)
        self._proper_nonzero_ids = tuple(i for i in self._nonzero_ids if i != top_id)

    @cached_property
    def rank_scale(self) -> Fraction:
        """d!/D, for every member and quotient: rank = rank_scale * N[d]."""
        return Fraction(factorial(self.dim), self.denominator)

    @cached_property
    def strictly_below(self) -> dict[str, list[str]]:
        """Each nonzero member's sorted list of the nonzero members strictly
        below it."""
        nonzero, above, bits = self._nonzero_ids, self._above, self._bits
        return {sup: [sub for sub in nonzero if above[sub] & bits[sup]] for sup in nonzero}

    @cached_property
    def covers(self) -> dict[str, list[str]]:
        """Each nonzero member's sorted lower covers among the nonzero
        members: the members strictly below it with nothing strictly
        between."""
        bits, above = self._bits, self._above
        covers: dict[str, list[str]] = {}
        for sup, subs in self.strictly_below.items():
            down = sum(bits[sub] for sub in subs)  # zero lies above no nonzero sub
            # sub is covered by sup when nothing strictly below sup lies above it
            covers[sup] = [sub for sub in subs if not down & above[sub]]
        return covers

    # -- access -----------------------------------------------------------

    def member(self, member_id: str) -> ObjectClass:
        """The member's ObjectClass, one object per id, built on first use."""
        member = self._members.get(member_id)
        if member is None:
            if member_id not in self.numerators:
                raise NotComparable(f"unknown lattice member {member_id!r}")
            row = self.numerators[member_id]
            member = self._members[member_id] = ObjectClass(member_id, row, self.denominator)
        return member

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def nonzero_ids(self) -> tuple[str, ...]:
        return self._nonzero_ids

    def proper_nonzero_ids(self) -> tuple[str, ...]:
        return self._proper_nonzero_ids

    @property
    def top(self) -> ObjectClass:
        return self.member(self.top_id)

    def lt(self, sub: str, sup: str) -> bool:
        """Strict inclusion in the transitive closure; False for an unknown id."""
        return self._above.get(sub, 0) & self._bits.get(sup, 0) != 0

    def leq(self, sub: str, sup: str) -> bool:
        return sub == sup or self.lt(sub, sup)

    def above(self, member: str) -> list[str]:
        """The nonzero members strictly above member, in nonzero_ids()
        order; empty for an unknown id."""
        mask, bits = self._above.get(member, 0), self._bits
        return [m for m in self._nonzero_ids if mask & bits[m]]

    def as_dict(self) -> dict:
        """JSON-ready description with the same semantics, for round-tripping:
        exponents and coefficients are strings, as in a lattice file, and
        the relations are the covers between nonzero members (inclusions of
        zero are implicit)."""
        return {
            "dimension": self.dim,
            "objects": [
                {"id": i, "hilbert": {str(e): str(c) for e, c in self.member(i).poly.items()}}
                for i in self.ids()
            ],
            "relations": sorted([sub, sup] for sup, subs in self.covers.items() for sub in subs),
        }

    def __repr__(self) -> str:
        return f"SubobjectLattice(d={self.dim}, top={self.top_id!r}, members={len(self.numerators)})"


def build_lattice(
    dim: int,
    polys: Mapping[str, RatPoly | Mapping],
    relations: Iterable[Sequence[str]] = (),
) -> SubobjectLattice:
    """Validate a lattice description and return the closed lattice.

    relations lists declared strict inclusions (sub, super); inclusions of
    the zero object and into the ambient object are implicit.

    Every check runs on the parsed integers, in the order of the module
    docstring: each nonzero member is checked for purity once, the
    integer table then gives the top, and edges are checked for rank
    growth only.  The quotient along a path is the sum of the quotients
    along its edges, so ranks grow on every closure pair, and a pure
    member over a pure member of smaller rank leaves a pure quotient, so
    that check could not fail.  The pair named in a RankNotIncreasing
    error is the first failing edge in sorted order.
    """
    if dim < 0:
        raise ParseError(f"dimension must be nonnegative, got {dim}")
    if dim > MAX_DIMENSION:
        raise ParseError(f"dimension must be at most {MAX_DIMENSION}, got {dim}")
    exponent_memo: dict[str, int] = {}
    ratio_memo: dict[str, tuple[int, int]] = {}
    parsed = {
        str(i): _parse_terms(str(i), p, exponent_memo, ratio_memo) for i, p in polys.items()
    }
    if not parsed:
        raise MissingTopOrZero("lattice has no members")

    zero_ids = [i for i, terms in parsed.items() if not terms]
    if len(zero_ids) != 1:
        raise MissingTopOrZero(
            f"expected exactly one zero member, found {len(zero_ids)}"
        )
    zero_id = zero_ids[0]

    declared: list[tuple[str, str]] = []
    for pair in relations:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"relation {pair!r} is not a [sub, super] pair")
        sub, sup = str(pair[0]), str(pair[1])
        if sub not in parsed or sup not in parsed:
            raise ParseError(f"relation {pair!r} references an unknown member")
        if sub == sup:
            raise CycleInRelation(f"member {sub!r} declared strictly inside itself")
        declared.append((sub, sup))

    # Each member is its own quotient by zero, which must look pure: degree
    # exactly dim, no Laurent terms and a positive leading coefficient.
    nonzero = sorted(i for i in parsed if i != zero_id)
    if not nonzero:
        raise MissingTopOrZero("lattice has no nonzero member")
    for i in nonzero:
        terms = parsed[i]
        if min(terms) < 0 or max(terms) != dim:
            raise QuotientNotPure(f"quotient {i!r}/{zero_id!r} must have degree exactly {dim}")
        if terms[dim][0] <= 0:
            raise QuotientNotPure(f"quotient {i!r}/{zero_id!r} has nonpositive leading coefficient")
    denominator, numerators = integer_table(dim, parsed)
    entry = {i: row[dim] for i, row in numerators.items()}  # a positive multiple of the rank

    # The ambient object is the member of maximal rank (every proper
    # saturated subobject has strictly smaller rank), read off the table's
    # top entries; a rank tie is broken against members declared inside
    # something else.
    top_entry = max(entry[i] for i in nonzero)
    top_ids = [i for i in nonzero if entry[i] == top_entry]
    if len(top_ids) > 1:
        declared_subs = {sub for sub, _ in declared}
        top_ids = [i for i in top_ids if i not in declared_subs]
    if len(top_ids) != 1:
        raise MissingTopOrZero(
            "ambient object not identifiable: maximal rank is not unique"
        )
    top_id = top_ids[0]

    # Rank growth on the generating edges: the declared inclusions and each
    # other member -> top (zero's edges cannot fail).  A failure names the
    # first failing edge in sorted order, with the two ranks d! * N[d] / D
    # (over d! when a rank has more digits than the interpreter prints),
    # unless the edges close a cycle, which is named first.
    failing = [(sub, sup) for sub, sup in declared if sub != zero_id and entry[sub] >= entry[sup]]
    failing += [(i, top_id) for i in nonzero if i != top_id and entry[i] >= top_entry]
    if failing:
        preds = {i: [zero_id] for i in nonzero}  # zero -> each nonzero member
        preds[top_id] += (i for i in nonzero if i != top_id)  # each other member -> top
        for sub, sup in declared:
            preds.setdefault(sup, []).append(sub)
        try:
            graphlib.TopologicalSorter(preds).prepare()
        except graphlib.CycleError:
            raise CycleInRelation("declared inclusions contain a cycle") from None
        sub, sup = min(failing)
        leads = [Fraction(entry[i], denominator) for i in (sub, sup)]  # rank / d!: the n^d coefficients
        try:
            ranks = " >= ".join(str(lead * factorial(dim)) for lead in leads)
        except ValueError:  # a rank over the interpreter's int-to-str limit
            ranks = " >= ".join(f"{dim}! * {lead}" for lead in leads)
        raise RankNotIncreasing(f"rank must grow strictly along {sub!r} < {sup!r}: {ranks}")

    # Every edge raises the rank, so the members sorted by rank are a
    # topological order: zero first, top last.  Each up-set mask is filled
    # in reverse order from the declared successors' bits and masks, with
    # top's bit for every member other than top.
    order = sorted(parsed, key=entry.__getitem__)
    bits = {n: 1 << k for k, n in enumerate(order)}
    succ: dict[str, list[str]] = {}
    for sub, sup in declared:
        succ.setdefault(sub, []).append(sup)
    top_bit = bits[top_id]
    above = {zero_id: (1 << len(order)) - 2, top_id: 0}
    for node in reversed(order[1:-1]):
        mask = top_bit
        for nxt in succ.get(node, ()):
            mask |= bits[nxt] | above[nxt]
        above[node] = mask
    return SubobjectLattice(dim, denominator, numerators, zero_id, top_id, order, above)


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

    It stores the member ids alone.  steps[m] is (G_(m+1), G_(m)), with the
    implicit G_(q+1) = 0, and gradeds[m] is quotient_poly's statistics of
    G_(m)/G_(m+1), each kept once read: by results, never by the searches.
    """

    lattice: SubobjectLattice = field(compare=False)
    chain: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.chain)

    @cached_property
    def steps(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.chain[1:] + (self.lattice.zero_id,), self.chain))

    @cached_property
    def gradeds(self) -> tuple[HilbertStats, ...]:
        return tuple(quotient_poly(self.lattice, sub, sup) for sub, sup in self.steps)


def quotient_poly(lat: SubobjectLattice, sub: str, sup: str) -> HilbertStats:
    """Statistics of sup/sub; requires sub strictly inside sup.  Built from
    the difference of the two rows; over zero they are the member's own."""
    if not lat.lt(sub, sup):
        raise NotComparable(f"{sub!r} is not strictly contained in {sup!r}")
    if sub == lat.zero_id:
        return lat.member(sup).stats
    rows = lat.numerators
    return hilbert_stats(_row_poly(map(operator.sub, rows[sup], rows[sub]), lat.denominator), lat.dim)


def make_chain(lat: SubobjectLattice, ids: Sequence[str]) -> UnweightedFiltration:
    """Validate a top-first chain of nonzero members; no graded piece is built."""
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
    return UnweightedFiltration(lattice=lat, chain=chain)


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
    """Validate chain, weights, and (for pairs) the image-weight constraint.
    Weights are integers, each what operator.index accepts."""
    base = make_chain(lat, chain)
    try:
        ws = tuple(map(operator.index, weights))
    except TypeError:
        raise WeightsNotIncreasing(f"weights must be integers, got {tuple(weights)}") from None
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
    return WeightedFiltration(lattice=lat, chain=base.chain, weights=ws)


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
    return list(zip(f.weights, f.gradeds))[::-1]
