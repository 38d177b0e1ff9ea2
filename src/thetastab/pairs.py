"""Delta-stability of pairs.

A pair is an object with a marked saturated image subobject; its invariant
twists the plain one by -delta/rank(F) per unit weight, for a rational
Laurent parameter delta.

Semistability.  With beta the marked image, write

    p_delta(G) = reduced(G) + [beta <= G] * delta / rank(G),
    tau = p_delta(F) = reduced(F) + delta / rank(F).

Summation by parts over a chain F = G_0 > G_1 > ... > G_q with weights
w_0 <= ... <= w_q gives the numerator of the invariant as

    <w, c> = -delta * w_pivot
             + sum_{i >= 1} (w_i - w_{i-1}) * rank(G_i) * (p_delta(G_i) - tau).

So for delta >= 0 and a nonzero framing map (w_pivot >= 0) the pair is
semistable iff no proper member has p_delta(G) > tau: Gieseker's test on
p_delta, which is Le Potier's criterion, and plain Gieseker at delta = 0.
Otherwise such a G, or the trivial chain when delta < 0 or when delta > 0
and the framing map vanishes, destabilizes with weights in {-1, 0, 1}.
For deg(delta) >= d the term delta / rank(G) dominates: every proper G
containing beta beats F, so the pair is semistable iff beta is the ambient
object, and otherwise beta, of least rank among them, is the witness and
gives the unique two-step destabilizer.

The closed form.  With per-step units u and graded ranks r, the top
coefficient <w, u> / sqrt(<w, R w>) is <w, x>_R / |w|_R for x = u / r in the
r-weighted inner product, so (Moreau) its maximum over the weight cone
{w_0 <= ... <= w_q} is attained, uniquely up to scale, at the projection
P(x) of x onto the cone whenever P(x) != 0.  P(x) is the r-weighted
isotonic regression of x, computed exactly by pool-adjacent-violators;
pooling on >= merges blocks of equal mean, so the level sets of P(x) are
the steps of the coarser chain the maximizer lives on.  When the
unconstrained fit violates the pair constraint w_pivot >= 0, P(x) lies on
the face w_pivot = 0, where the prefix is its own fit clipped to <= 0 and
the suffix its own fit clipped to >= 0.  Since <P(x), x>_R = |P(x)|_R^2,
the maximum is positive exactly when P(x) != 0; a chain with P(x) = 0
(an identically flat objective among them) offers no destabilizing
weights and is skipped.  Refining a chain enlarges its cone (the
inserted steps repeat the weight of the step they split, the pivot's
included), so every chain's maximizer is that of its saturated
refinements, and pair_canonical visits saturated chains only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canonical import destabilizing_member
from .errors import DegreeTooLow, Semistable
from .invariant import contributions, nu_delta
from .lattice import (
    ObjectClass,
    PairObject,
    UnweightedFiltration,
    WeightedFiltration,
    make_filtration,
    pair_pivot_index,
    primitive_weights,
)
from .oracle import brute_force_max, saturated_chains
from .ratpoly import EQUAL, GREATER, LESS, NuValue, RatPoly, eventual_compare, nu_compare


def pair_semistable(
    pair: PairObject, delta: RatPoly | None
) -> tuple[bool, ObjectClass | None]:
    """Semistability verdict for the pair at the given delta, with witness.

    Gieseker's test on the twisted reduced polynomial p_delta (see the
    module docstring): the witness is canonical.destabilizing_member's.
    delta < 0, and delta > 0 with a vanishing framing map, are unstable
    with witness None (their destabilizer is not a subobject).
    """
    lat, beta = pair.lattice, pair.beta_image
    delta = RatPoly.zero() if delta is None else delta
    sign = eventual_compare(delta, RatPoly.zero())
    if sign == LESS or (sign == GREATER and beta is None):
        return False, None

    def twisted(member: ObjectClass) -> RatPoly:
        if beta is None or not lat.leq(beta, member.id):
            return member.stats.reduced
        return member.stats.reduced + delta * (1 / member.stats.rank)

    witness = destabilizing_member(lat, twisted)
    return witness is None, witness


def pair_canonical_high_degree(
    pair: PairObject, delta: RatPoly | None
) -> WeightedFiltration:
    """Unique (up to scale) maximizing filtration when deg(delta) >= d."""
    lat = pair.lattice
    delta = RatPoly.zero() if delta is None else delta
    if delta.degree() < lat.dim:
        raise DegreeTooLow(f"need deg(delta) >= {lat.dim}, got {delta.degree()}")
    if eventual_compare(delta, RatPoly.zero()) == LESS:
        return make_filtration(lat, (lat.top_id,), (1,), pair)
    if pair.beta_image is None:
        return make_filtration(lat, (lat.top_id,), (-1,), pair)
    if pair.beta_image == lat.top_id:
        raise Semistable("image subobject fills the ambient object")
    return make_filtration(lat, (lat.top_id, pair.beta_image), (-1, 0), pair)


def _slope_units(
    chain: UnweightedFiltration, delta: RatPoly | None
) -> list[Fraction]:
    """Per-unit-weight contributions to the n^(d-1) coefficient of nu*sqrt(b)."""
    d = chain.lattice.dim
    if d < 1:
        raise ValueError("slope coefficient needs dimension >= 1")
    return [c.coeff(d - 1) for c in contributions(chain, delta)]


def nu_slope_coeff(f: WeightedFiltration, delta: RatPoly | None) -> NuValue:
    """Exact degree-(d-1) coefficient of the pair invariant, as a scalar."""
    units = _slope_units(f, delta)
    if not any(f.weights):
        return NuValue.zero()
    return _top_value(f.weights, units, [g.rank for g in f.gradeds])


def _top_value(weights, units: list[Fraction], ranks: list[Fraction]) -> NuValue:
    """<w, u> / sqrt(<w, R w>) for weights that are not all zero."""
    numerator = sum((w * u for w, u in zip(weights, units)), Fraction(0))
    norm = sum((r * w * w for w, r in zip(weights, ranks)), Fraction(0))
    return NuValue(RatPoly.const(numerator), norm)


@dataclass(frozen=True)
class WeightMaximum:
    """Positive maximizer of the top coefficient over a chain's closed
    weight cone.

    chain holds the member ids of the steps, and may be coarser than the
    queried chain (boundary maximizers merge steps); weights are exact
    rationals, unique up to positive scale; value is positive.
    """

    chain: tuple[str, ...]
    weights: tuple[Fraction, ...]
    value: NuValue
    pinned: int | None


def _isotonic(units: list[Fraction], ranks: list[Fraction]) -> list[Fraction]:
    """Weighted isotonic regression of units[i] / ranks[i], weights ranks[i],
    by pool-adjacent-violators pooling on >=; the fitted value per index."""
    blocks: list[tuple[Fraction, Fraction, int]] = []  # unit sum, rank sum, size
    for u, r in zip(units, ranks):
        size = 1
        while blocks and blocks[-1][0] * r >= u * blocks[-1][1]:
            pu, pr, ps = blocks.pop()
            u, r, size = u + pu, r + pr, size + ps
        blocks.append((u, r, size))
    return [u / r for u, r, size in blocks for _ in range(size)]


def maximize_weights(
    chain: UnweightedFiltration,
    pair: PairObject | None,
    delta: RatPoly | None,
) -> WeightMaximum | None:
    """Exact maximizer of the degree-(d-1) coefficient over the weight cone,
    or None when the maximum is <= 0 (the projection P(x) is zero).

    The cone is {w_0 <= ... <= w_q}, intersected with {w_j >= 0} when the
    pair has a nonzero framing map and j is the deepest chain index whose
    member contains the marked image; pinned is the index of the step that
    constraint holds at 0, else None.  An objective that vanishes
    identically (every graded slope sits at the twisted ambient slope) has
    P(x) = 0, so it gives None too.
    """
    lat = chain.lattice
    if delta is not None and delta.degree() > lat.dim - 1:
        raise ValueError(f"closed form needs deg(delta) <= {lat.dim - 1}")
    units = _slope_units(chain, delta)
    ranks = [g.rank for g in chain.gradeds]
    beta = pair.beta_image if pair is not None else None
    pivot = pair_pivot_index(chain.chain, lat, beta) if beta is not None else None

    fit = _isotonic(units, ranks)
    pinned = pivot is not None and fit[pivot] < 0
    if pinned:
        zero = Fraction(0)
        fit = (
            [min(w, zero) for w in _isotonic(units[:pivot], ranks[:pivot])]
            + [zero]
            + [max(w, zero) for w in _isotonic(units[pivot + 1:], ranks[pivot + 1:])]
        )
    if not any(fit):
        return None
    starts = tuple(i for i in range(len(fit)) if i == 0 or fit[i] != fit[i - 1])
    return WeightMaximum(
        chain=tuple(chain.chain[s] for s in starts),
        weights=tuple(fit[s] for s in starts),
        value=_top_value(fit, units, ranks),
        pinned=sum(s <= pivot for s in starts) - 1 if pinned else None,
    )


@dataclass(frozen=True)
class PairCanonicalResult:
    """Canonical destabilizing filtration of an unstable pair."""

    filtration: WeightedFiltration
    value: NuValue
    source: str  # "closed-form", "oracle", or "high-degree"


def pair_canonical(
    pair: PairObject,
    delta: RatPoly | None,
    bound: int = 6,
) -> PairCanonicalResult:
    """Canonical maximizer of the pair invariant.

    For deg(delta) >= d the unique closed-form filtration is returned.  For
    deg(delta) <= d-1, a pair that pair_semistable finds semistable raises
    Semistable at once: by the summation-by-parts identity no weighting is
    positive.  Otherwise every saturated chain's top-coefficient maximizer
    is computed in closed form and the candidates are ranked by their full
    invariant; any weighting with a smaller top coefficient is eventually
    dominated, so when some chain achieves a positive top coefficient this
    is the exact global maximizer.  When no chain does (the flat regime),
    the bounded-weight oracle decides; an unstable pair has a destabilizer
    with weights in {-1, 0, 1}, so any bound >= 1 finds one.
    """
    lat = pair.lattice
    delta = RatPoly.zero() if delta is None else delta
    if delta.degree() >= lat.dim:
        filt = pair_canonical_high_degree(pair, delta)
        return PairCanonicalResult(
            filtration=filt, value=nu_delta(filt, delta), source="high-degree"
        )

    if pair_semistable(pair, delta)[0]:
        raise Semistable("no destabilizing filtration exists for this pair")
    best: PairCanonicalResult | None = None
    best_key = None
    for chain in saturated_chains(lat):
        wm = maximize_weights(chain, pair, delta)
        if wm is None:
            continue
        filt = make_filtration(lat, wm.chain, primitive_weights(wm.weights), pair)
        value = nu_delta(filt, delta)
        key = (len(filt.chain), filt.chain, filt.weights)
        order = GREATER if best is None else nu_compare(value, best.value)
        if order == GREATER or (order == EQUAL and key < best_key):
            best = PairCanonicalResult(filtration=filt, value=value, source="closed-form")
            best_key = key
    if best is not None:
        return best

    oracle = brute_force_max(lat, pair=pair, delta=delta, bound=bound)
    if oracle.best is None:
        raise Semistable("no destabilizing filtration exists for this pair")
    return PairCanonicalResult(filtration=oracle.best, value=oracle.value, source="oracle")
