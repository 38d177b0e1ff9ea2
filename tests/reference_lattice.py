"""Independent reference for lattice validation, kept only for tests.

build_lattice is thetastab.lattice.build_lattice as it stood before
validation moved to the generating edges and onto the integer table: it
parses every member into a RatPoly of Fractions (its own copies of the
literal grammar and of the purity check), and after the per-member purity
check it checks rank growth and quotient purity on every pair of the
transitive closure, in sorted order, on Fractions.  It accepts exactly
the lattices the edge-only build accepts, with the same error class and
message on every other description, except that a RankNotIncreasing
error may name another pair, the first failing closure pair rather than
the first failing edge.  It forms the integer table of the lattice it
returns with thetastab.lattice.integer_table, the one way to form it.

structurally_equal and is_trivial are helpers no code under src/ needs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from thetastab.errors import (
    CycleInRelation,
    MissingTopOrZero,
    ParseError,
    QuotientNotPure,
    RankNotIncreasing,
)
from thetastab.lattice import SubobjectLattice, UnweightedFiltration, integer_table
from thetastab.ratpoly import RatPoly, as_integer

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _as_fraction(value) -> Fraction:
    """The rational grammar as Fractions read it: a Fraction, a plain int
    (not a bool), or a "p/q" or "p" string of ASCII digits (blanks around
    allowed); anything else is a ParseError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:  # zero denominator, digit limit
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"bad rational literal {value!r}")


def _coerce_poly(member: str, value: RatPoly | Mapping) -> RatPoly:
    """A RatPoly, or an exponent -> coefficient map: every exponent read by
    ratpoly.as_integer, then a repeated one refused, then every
    coefficient read by _as_fraction; anything else is a ParseError."""
    if isinstance(value, RatPoly):
        return value
    if not isinstance(value, Mapping):
        raise ParseError(f"polynomial must be an exponent->coefficient map, got {value!r}")
    exponents = [as_integer(exp, "exponent") for exp in value]
    for k, exp in enumerate(exponents):
        if exp in exponents[:k]:
            raise ParseError(f"member {member!r} names exponent {exp} twice")
    return RatPoly({exp: _as_fraction(coeff) for exp, coeff in zip(exponents, value.values())})


def _check_quotient(quotient: RatPoly, sup: str, sub: str, dim: int) -> None:
    """QuotientNotPure unless sup/sub looks pure: degree exactly dim, no
    Laurent terms and a positive leading coefficient."""
    if quotient.has_negative_exponents() or quotient.degree() != dim:
        raise QuotientNotPure(f"quotient {sup!r}/{sub!r} must have degree exactly {dim}")
    if quotient.leading_coeff() <= 0:
        raise QuotientNotPure(f"quotient {sup!r}/{sub!r} has nonpositive leading coefficient")


def structurally_equal(lat: SubobjectLattice, other: SubobjectLattice) -> bool:
    """Same dimension, zero, top, closure and member polynomials."""
    return (
        lat.dim == other.dim
        and lat.zero_id == other.zero_id
        and lat.top_id == other.top_id
        and lat._closure == other._closure
        and {i: lat.member(i).poly for i in lat.ids()}
        == {i: other.member(i).poly for i in other.ids()}
    )


def is_trivial(f: UnweightedFiltration) -> bool:
    """The chain is the ambient object alone."""
    return len(f.chain) == 1


def build_lattice(
    dim: int,
    polys: Mapping[str, RatPoly | Mapping],
    relations: Iterable[Sequence[str]] = (),
) -> SubobjectLattice:
    """Validate a lattice description and return the closed lattice.

    relations lists declared strict inclusions (sub, super); inclusions of
    the zero object and into the ambient object are implicit.
    """
    if dim < 0:
        raise ParseError(f"dimension must be nonnegative, got {dim}")
    coerced = {str(i): _coerce_poly(str(i), p) for i, p in polys.items()}
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

    # Each member is its own quotient by zero: check it before reading
    # ranks, so the closure below need not revisit (zero, member).
    nonzero = sorted(i for i in coerced if i != zero_id)
    if not nonzero:
        raise MissingTopOrZero("lattice has no nonzero member")
    for i in nonzero:
        _check_quotient(coerced[i], i, zero_id, dim)

    # The ambient object is the member of maximal rank (every proper
    # saturated subobject has strictly smaller rank); a rank tie is broken
    # against members declared inside something else.
    ranks = {i: p.coeff(dim) * factorial(dim) for i, p in coerced.items()}
    top_rank = max(ranks[i] for i in nonzero)
    top_ids = [i for i, r in ranks.items() if r == top_rank and i != zero_id]
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

    # Transitive closure by DFS from each node; member counts are small.
    succ: dict[str, set[str]] = {n: set() for n in coerced}
    for a, b in edges:
        succ[a].add(b)
    closure: set[tuple[str, str]] = set()
    for start in coerced:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
        closure.update((start, t) for t in seen)
    if any((n, n) in closure for n in coerced):
        raise CycleInRelation("declared inclusions contain a cycle")

    for sub, sup in sorted(closure):
        if sub == zero_id:
            continue
        if ranks[sub] >= ranks[sup]:
            raise RankNotIncreasing(
                f"rank must grow strictly along {sub!r} < {sup!r}: "
                f"{ranks[sub]} >= {ranks[sup]}"
            )
        _check_quotient(coerced[sup] - coerced[sub], sup, sub, dim)

    terms = {
        i: {e: (c.numerator, c.denominator) for e, c in p.items()} for i, p in coerced.items()
    }
    denominator, numerators = integer_table(dim, terms)
    return SubobjectLattice(dim, denominator, numerators, zero_id, top_id, frozenset(closure))
