"""Independent reference for lattice validation, kept only for tests.

build_lattice is thetastab.lattice.build_lattice as it stood before
validation moved to the generating edges: after the per-member purity
check it checks rank growth and quotient purity on every pair of the
transitive closure, in sorted order.  It accepts exactly the lattices the
edge-only build accepts; on an invalid description it may name another
pair, the first failing closure pair rather than the first failing edge.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Mapping, Sequence

from thetastab.errors import CycleInRelation, MissingTopOrZero, ParseError, RankNotIncreasing
from thetastab.lattice import ObjectClass, SubobjectLattice, _check_quotient, _coerce_poly
from thetastab.ratpoly import RatPoly, hilbert_stats


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

    members = {}
    for i, p in coerced.items():
        stats = None if i == zero_id else hilbert_stats(p, dim)
        members[i] = ObjectClass(id=i, poly=p, stats=stats)
    return SubobjectLattice(dim, members, zero_id, top_id, frozenset(closure))
