"""Independent reference for the pair maximizer, kept only for tests.

face_enumeration_max is the face-enumeration maximizer that
thetastab.pairs.maximize_weights replaced.  The top-coefficient objective
<w, u> / sqrt(<w, R w>) is linear over the square root of a positive
quadratic, so its maximum over the closed weight cone is attained at a
critical point of some face or on an extreme ray.  The faces of the
monotone cone are the splits of the chain into consecutive groups; each
group's critical weight is its unit sum over its rank sum, optionally with
the pivot group pinned at 0.  All 2^(n-1) splits and every extreme ray are
tried, exactly.

all_chains_pair_canonical is pair_canonical over every chain of the
lattice, not only the saturated ones, with face_enumeration_max as the
per-chain maximizer.

chain_search_max is the full invariant's maximum over one chain's bounded
integer weight cone, by trying every nondecreasing weight vector: the
oracle's search, kept to one chain and compared on every coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from thetastab import (
    EQUAL,
    GREATER,
    NuValue,
    RatPoly,
    brute_force_max,
    enumerate_chains,
    make_filtration,
    nu_compare,
    primitive_weights,
)
from thetastab.errors import FlatObjective, Semistable
from thetastab.lattice import pair_pivot_index

from reference_oracle import ReferenceResult, dot, graded_steps, reference_nu


@dataclass(frozen=True)
class FaceMaximum:
    """The best face's merged chain, exact weights, value of the
    degree-(d-1) coefficient alone, and pinned group (or None)."""

    chain: tuple[str, ...]
    weights: tuple[Fraction, ...]
    value: NuValue
    pinned: int | None


def _partitions(n: int):
    """All splits of range(n) into consecutive groups, as start-index tuples."""
    for mask in range(1 << max(n - 1, 0)):
        starts = [0]
        for cut in range(1, n):
            if mask >> (cut - 1) & 1:
                starts.append(cut)
        yield tuple(starts)


def _group_sums(entries, starts: tuple[int, ...]) -> list[Fraction]:
    ends = list(starts[1:]) + [len(entries)]
    return [sum(entries[a:b], Fraction(0)) for a, b in zip(starts, ends)]


def _group_of(starts: tuple[int, ...], index: int) -> int:
    group = 0
    for g, s in enumerate(starts):
        if s <= index:
            group = g
    return group


def face_enumeration_max(chain, pair, delta: RatPoly) -> FaceMaximum:
    """Maximizer of the degree-(d-1) coefficient over the chain's weight
    cone, by trying every face and every extreme ray.  Unlike
    maximize_weights, which returns None for both, it reports a maximum
    <= 0 (on the best extreme ray) and raises FlatObjective when the
    objective vanishes identically."""
    lat = chain.lattice
    if delta.degree() > lat.dim - 1:
        raise ValueError(f"closed form needs deg(delta) <= {lat.dim - 1}")
    ranks, contribs = graded_steps(lat, chain.chain, delta)
    units = [c.coeff(lat.dim - 1) for c in contribs]
    if all(u == 0 for u in units):
        raise FlatObjective("top-coefficient objective vanishes on the whole cone")
    beta = pair.beta_image if pair is not None else None
    pivot = pair_pivot_index(chain.chain, lat, beta) if beta is not None else None
    n = len(chain.chain)

    best = None

    def consider(starts, values, pinned):
        nonlocal best
        if all(v == 0 for v in values):
            return
        if any(b <= a for a, b in zip(values, values[1:])):
            return
        group_u = _group_sums(units, starts)
        group_r = _group_sums(ranks, starts)
        if pivot is not None and values[_group_of(starts, pivot)] < 0:
            return
        numerator = sum((v * u for v, u in zip(values, group_u)), Fraction(0))
        norm = sum((r * v * v for v, r in zip(values, group_r)), Fraction(0))
        value = NuValue(RatPoly.const(numerator), norm)
        if best is None or nu_compare(value, best[0]) == GREATER:
            best = (value, starts, tuple(values), pinned)

    for starts in _partitions(n):
        group_u = _group_sums(units, starts)
        group_r = _group_sums(ranks, starts)
        critical = [u / r for u, r in zip(group_u, group_r)]
        consider(starts, critical, None)
        if pivot is not None:
            g_of_pivot = _group_of(starts, pivot)
            pinned_vals = list(critical)
            pinned_vals[g_of_pivot] = Fraction(0)
            consider(starts, pinned_vals, g_of_pivot)

    consider((0,), [Fraction(1)], None)
    consider((0,), [Fraction(-1)], None)
    for k in range(1, n):
        consider((0, k), [Fraction(0), Fraction(1)], None)
        consider((0, k), [Fraction(-1), Fraction(0)], None)

    value, starts, values, pinned = best
    merged = tuple(chain.chain[s] for s in starts)
    return FaceMaximum(chain=merged, weights=values, value=value, pinned=pinned)


def all_chains_pair_canonical(pair, delta: RatPoly, bound: int) -> ReferenceResult:
    """pair_canonical in the deg(delta) <= d-1 regime, over every chain."""
    lat = pair.lattice
    zero = NuValue.zero()
    best = best_key = None
    for chain in enumerate_chains(lat):
        try:
            wm = face_enumeration_max(chain, pair, delta)
        except FlatObjective:
            continue
        if nu_compare(wm.value, zero) != GREATER:
            continue
        filt = make_filtration(lat, wm.chain, primitive_weights(wm.weights), pair)
        value = reference_nu(filt, delta)
        key = (len(filt.chain), filt.chain, filt.weights)
        if (
            best is None
            or nu_compare(value, best.value) == GREATER
            or (nu_compare(value, best.value) == EQUAL and key < best_key)
        ):
            best = ReferenceResult(filtration=filt, value=value)
            best_key = key
    if best is not None:
        return best
    oracle = brute_force_max(lat, pair=pair, delta=delta, bound=bound)
    if oracle.best is None:
        raise Semistable("no destabilizing filtration exists for this pair")
    return ReferenceResult(filtration=oracle.best, value=oracle.value, source="oracle")


def chain_search_max(chain, pair, delta: RatPoly, bound: int) -> NuValue:
    """Maximum of the invariant over the chain's weights w_0 <= ... <= w_q
    in [-bound, bound] (w_pivot >= 0 with a nonzero framing map), not all
    zero."""
    ranks, contribs = graded_steps(chain.lattice, chain.chain, delta)
    beta = pair.beta_image if pair is not None else None
    pivot = pair_pivot_index(chain.chain, chain.lattice, beta) if beta is not None else None
    best = None
    for weights in combinations_with_replacement(range(-bound, bound + 1), len(ranks)):
        if (pivot is not None and weights[pivot] < 0) or not any(weights):
            continue
        norm = sum((r * w * w for w, r in zip(weights, ranks)), Fraction(0))
        value = NuValue(dot(weights, contribs), norm)
        if best is None or nu_compare(value, best) == GREATER:
            best = value
    return best
