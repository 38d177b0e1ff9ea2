"""Delta-stability of pairs.

A pair is an object with a marked saturated image subobject; its invariant
twists the plain one by -delta/rank(F) per unit weight, for a rational
Laurent parameter delta.

Regimes:

* delta = 0 routes to plain Gieseker semistability of the underlying
  lattice (weight shifting makes the pair constraint free of charge).
* delta < 0: always unstable; the scaling filtration destabilizes.
* deg(delta) >= d, delta > 0: semistable iff the marked image is the whole
  ambient object; otherwise a unique two-step destabilizer.
* deg(delta) <= d-1, delta > 0: the Le Potier-style subobject criterion,
  and the closed-form maximizer of the top (degree d-1) coefficient over
  the weight cone of a chain, found by face descent.

maximize_weights is exact: the top-coefficient objective is linear over
the square root of a positive quadratic, so its maximum over the closed
polyhedral weight cone is attained at a critical point of some face, or on
an extreme ray; all of these are enumerated with rational arithmetic.  The
returned chain may be coarser than the input chain - a boundary maximizer
merges steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canonical import is_semistable
from .errors import DegenerateFiltration, DegreeTooLow, FlatObjective, Semistable
from .invariant import b_norm, contributions, nu_delta
from .lattice import (
    ObjectClass,
    PairObject,
    UnweightedFiltration,
    WeightedFiltration,
    make_chain,
    make_filtration,
    pair_pivot_index,
    primitive_weights,
)
from .oracle import brute_force_max, enumerate_chains
from .ratpoly import EQUAL, GREATER, LESS, NuValue, RatPoly, eventual_compare, nu_compare


@dataclass(frozen=True)
class DeltaParam:
    """Stability parameter: a rational Laurent polynomial, tagged with the
    ambient dimension."""

    poly: RatPoly
    dim: int

    @classmethod
    def coerce(cls, delta: DeltaParam | RatPoly | None, dim: int) -> DeltaParam:
        if isinstance(delta, DeltaParam):
            return delta
        return cls(poly=delta if delta is not None else RatPoly.zero(), dim=dim)

    @property
    def deg(self) -> int | float:
        return self.poly.degree()

    def sign(self) -> int:
        return eventual_compare(self.poly, RatPoly.zero())


def pair_semistable(
    pair: PairObject, delta: DeltaParam | RatPoly | None
) -> tuple[bool, ObjectClass | None]:
    """Semistability verdict for the pair at the given delta, with witness.

    The witness, when present, is a violating subobject; regimes whose
    destabilizer is not a subobject (delta < 0, or a vanishing framing map)
    report witness None.
    """
    lat = pair.lattice
    dp = DeltaParam.coerce(delta, lat.dim)
    sign = dp.sign()
    if sign == EQUAL:
        return is_semistable(lat)
    if sign == LESS:
        return False, None
    if dp.deg >= lat.dim:
        # big-degree regime: cokernel must vanish in dimension d
        if pair.beta_image == lat.top_id:
            return True, None
        witness = lat.member(pair.beta_image) if pair.beta_image is not None else None
        return False, witness

    if pair.beta_image is None:
        return False, None
    top = lat.top.stats
    threshold = top.reduced + dp.poly * (Fraction(1) / top.rank)
    worst: ObjectClass | None = None
    worst_margin: RatPoly | None = None
    for member_id in lat.proper_nonzero_ids():
        member = lat.member(member_id)
        bound = member.stats.reduced
        if lat.leq(pair.beta_image, member_id):
            bound = bound + dp.poly * (Fraction(1) / member.stats.rank)
        margin = bound - threshold
        if eventual_compare(margin, RatPoly.zero()) != GREATER:
            continue
        if worst is None or eventual_compare(margin, worst_margin) == GREATER or (
            margin == worst_margin
            and (member.stats.rank, member.id) > (worst.stats.rank, worst.id)
        ):
            worst, worst_margin = member, margin
    return worst is None, worst


def pair_canonical_high_degree(
    pair: PairObject, delta: DeltaParam | RatPoly
) -> WeightedFiltration:
    """Unique (up to scale) maximizing filtration when deg(delta) >= d."""
    lat = pair.lattice
    dp = DeltaParam.coerce(delta, lat.dim)
    if dp.deg < lat.dim:
        raise DegreeTooLow(f"need deg(delta) >= {lat.dim}, got {dp.deg}")
    if dp.sign() == LESS:
        return make_filtration(lat, (lat.top_id,), (1,), pair)
    if pair.beta_image is None:
        return make_filtration(lat, (lat.top_id,), (-1,), pair)
    if pair.beta_image == lat.top_id:
        raise Semistable("image subobject fills the ambient object")
    return make_filtration(lat, (lat.top_id, pair.beta_image), (-1, 0), pair)


def _slope_units(
    chain: UnweightedFiltration | WeightedFiltration, dp: DeltaParam
) -> list[Fraction]:
    """Per-unit-weight contributions to the n^(d-1) coefficient of nu*sqrt(b)."""
    d = chain.lattice.dim
    if d < 1:
        raise ValueError("slope coefficient needs dimension >= 1")
    return [c.coeff(d - 1) for c in contributions(chain, dp.poly)]


def nu_slope_coeff(
    f: WeightedFiltration, delta: DeltaParam | RatPoly | None
) -> NuValue:
    """Exact degree-(d-1) coefficient of the pair invariant, as a scalar."""
    units = _slope_units(f, DeltaParam.coerce(delta, f.lattice.dim))
    try:
        b = b_norm(f)
    except DegenerateFiltration:
        return NuValue.zero()
    numerator = sum((w * u for w, u in zip(f.weights, units)), Fraction(0))
    return NuValue(RatPoly.const(numerator), b)


@dataclass(frozen=True)
class WeightMaximum:
    """Maximizer of the top coefficient over a chain's closed weight cone.

    chain may be coarser than the queried chain (boundary maximizers merge
    steps); weights are exact rationals, unique up to positive scale.
    """

    chain: UnweightedFiltration
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


def maximize_weights(
    chain: UnweightedFiltration,
    pair: PairObject | None,
    delta: DeltaParam | RatPoly | None,
) -> WeightMaximum:
    """Exact maximizer of the degree-(d-1) coefficient over the weight cone.

    The cone is {w_0 < ... < w_q}, intersected with {w_j >= 0} when the
    pair has a nonzero framing map and j is the deepest chain index whose
    member contains the marked image.  Raises FlatObjective when the
    objective vanishes identically (every graded slope sits at the twisted
    ambient slope).
    """
    lat = chain.lattice
    dp = DeltaParam.coerce(delta, lat.dim)
    if dp.deg > lat.dim - 1:
        raise ValueError(f"closed form needs deg(delta) <= {lat.dim - 1}")
    units = _slope_units(chain, dp)
    ranks = [g.rank for g in chain.gradeds]
    if all(u == 0 for u in units):
        raise FlatObjective("top-coefficient objective vanishes on the whole cone")
    beta = pair.beta_image if pair is not None else None
    pivot = pair_pivot_index(chain.chain, lat, beta) if beta is not None else None
    n = len(chain.chain)

    best: tuple[NuValue, tuple[int, ...], tuple[Fraction, ...], int | None] | None = None

    def consider(starts: tuple[int, ...], values: list[Fraction], pinned: int | None):
        nonlocal best
        if all(v == 0 for v in values):
            return
        if any(b <= a for a, b in zip(values, values[1:])):
            return
        group_u = _group_sums(units, starts)
        group_r = _group_sums(ranks, starts)
        if pivot is not None:
            g_of_pivot = _group_of(starts, pivot)
            if values[g_of_pivot] < 0:
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

    # extreme rays of the closed cone (a single step up at k, or down into
    # k) cover the case of a nonpositive maximum; repeated coordinates live
    # on the merged partition
    consider((0,), [Fraction(1)], None)
    consider((0,), [Fraction(-1)], None)
    for k in range(1, n):
        consider((0, k), [Fraction(0), Fraction(1)], None)
        consider((0, k), [Fraction(-1), Fraction(0)], None)

    if best is None:
        raise FlatObjective("weight cone admits no nonzero direction")
    value, starts, values, pinned = best
    merged = make_chain(lat, tuple(chain.chain[s] for s in starts))
    return WeightMaximum(chain=merged, weights=values, value=value, pinned=pinned)


def _group_sums(entries, starts: tuple[int, ...]) -> list[Fraction]:
    ends = list(starts[1:]) + [len(entries)]
    return [sum(entries[a:b], Fraction(0)) for a, b in zip(starts, ends)]


def _group_of(starts: tuple[int, ...], index: int) -> int:
    group = 0
    for g, s in enumerate(starts):
        if s <= index:
            group = g
    return group


@dataclass(frozen=True)
class PairCanonicalResult:
    """Canonical destabilizing filtration of an unstable pair."""

    filtration: WeightedFiltration
    value: NuValue
    source: str  # "closed-form", "oracle", or "high-degree"


def pair_canonical(
    pair: PairObject,
    delta: DeltaParam | RatPoly | None,
    bound: int = 6,
) -> PairCanonicalResult:
    """Canonical maximizer of the pair invariant.

    For deg(delta) >= d the unique closed-form filtration is returned.  For
    deg(delta) <= d-1, every chain's top-coefficient maximizer is computed
    in closed form and the candidates are ranked by their full invariant;
    any weighting with a smaller top coefficient is eventually dominated,
    so when some chain achieves a positive top coefficient this is the
    exact global maximizer.  When no chain does (the flat regime), the
    bounded-weight oracle decides.  Raises Semistable when nothing
    destabilizes.
    """
    lat = pair.lattice
    dp = DeltaParam.coerce(delta, lat.dim)
    if dp.deg >= lat.dim:
        filt = pair_canonical_high_degree(pair, dp)
        return PairCanonicalResult(
            filtration=filt, value=nu_delta(filt, dp.poly), source="high-degree"
        )

    zero = NuValue.zero()
    best: PairCanonicalResult | None = None
    best_key = None
    for chain in enumerate_chains(lat):
        try:
            wm = maximize_weights(chain, pair, dp)
        except FlatObjective:
            continue
        if nu_compare(wm.value, zero) != GREATER:
            continue
        weights = primitive_weights(wm.weights)
        filt = make_filtration(lat, wm.chain.chain, weights, pair)
        value = nu_delta(filt, dp.poly)
        key = (len(filt.chain), filt.chain, filt.weights)
        if (
            best is None
            or nu_compare(value, best.value) == GREATER
            or (nu_compare(value, best.value) == EQUAL and key < best_key)
        ):
            best = PairCanonicalResult(filtration=filt, value=value, source="closed-form")
            best_key = key
    if best is not None:
        return best

    oracle = brute_force_max(lat, pair=pair, delta=dp.poly, bound=bound)
    if oracle.best is None:
        raise Semistable("no destabilizing filtration exists for this pair")
    return PairCanonicalResult(
        filtration=oracle.best, value=oracle.value, source="oracle"
    )
