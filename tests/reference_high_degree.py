"""Independent reference for the pair maximizer at deg(delta) >= d, kept
only for tests.

pair_canonical_high_degree is the closed-form branch that
thetastab.pairs.pair_canonical used to dispatch to for deg(delta) >= d,
before the lexicographic descent of maximize_weights covered every delta.
There the top coefficient of <w, c> is -delta_top * sum(r_i * w_i) / rank(F),
so the maximizer depends only on the sign of delta and on the marked image.
"""

from __future__ import annotations

from thetastab import (
    LESS,
    PairObject,
    RatPoly,
    WeightedFiltration,
    eventual_compare,
    make_filtration,
)
from thetastab.errors import Semistable


def pair_canonical_high_degree(
    pair: PairObject, delta: RatPoly | None
) -> WeightedFiltration:
    """Unique (up to scale) maximizing filtration when deg(delta) >= d."""
    lat = pair.lattice
    delta = RatPoly.zero() if delta is None else delta
    if delta.degree() < lat.dim:
        raise ValueError(f"need deg(delta) >= {lat.dim}, got {delta.degree()}")
    if eventual_compare(delta, RatPoly.zero()) == LESS:
        return make_filtration(lat, (lat.top_id,), (1,), pair)
    if pair.beta_image is None:
        return make_filtration(lat, (lat.top_id,), (-1,), pair)
    if pair.beta_image == lat.top_id:
        raise Semistable("image subobject fills the ambient object")
    return make_filtration(lat, (lat.top_id, pair.beta_image), (-1, 0), pair)
