"""Independent reference for the leading-term filtration, kept only for tests.

leading_term is thetastab.canonical.leading_term as it stood before it was
read off maximize_weights on the HN chain: a scan for the highest index
where the graded slopes differ, a merge of the HN steps where that slope
does not jump, and weights proportional to slope(graded) - slope(ambient),
valued by nu on a step table of its own.
slopes is the slope helper it read, formerly HilbertStats.slopes.
"""

from __future__ import annotations

from fractions import Fraction

from thetastab import (
    HilbertStats,
    LeadingTermData,
    UnweightedFiltration,
    make_chain,
    make_filtration,
    nu,
    primitive_weights,
)
from thetastab.errors import ObjectSemistable

from reference_hn import InvalidHN
from reference_lattice import is_trivial


def slopes(stats: HilbertStats) -> tuple[Fraction, ...]:
    """slopes[i] = a_i / a_d for 0 <= i <= d-1, with P(n) = sum_k a_k n^k / k!."""
    coeffs, out, scale = stats.poly._coeffs, [], 1  # scale = i!
    for i in range(stats.poly.degree()):  # the dimension d, P being pure of degree d
        out.append(coeffs.get(i, 0) * scale / stats.rank)
        scale *= i + 1
    return tuple(out)


def leading_term(hn: UnweightedFiltration) -> LeadingTermData:
    """Merge HN steps with equal leading slope, attach canonical weights."""
    if is_trivial(hn):
        raise ObjectSemistable("trivial HN chain has no leading term filtration")
    lat = hn.lattice
    graded_slopes = [slopes(g) for g in hn.gradeds]
    d = lat.dim
    index = None
    for i in reversed(range(d)):
        if len({s[i] for s in graded_slopes}) > 1:
            index = i
            break
    if index is None:
        # equal slope vectors mean equal reduced polynomials, which the
        # HN chain's strict decrease already excludes
        raise InvalidHN("HN graded pieces have identical slope vectors")

    # keep chain[m] iff the leading slope jumps across step m
    kept = [0]
    for m in range(1, len(hn)):
        if graded_slopes[m - 1][index] < graded_slopes[m][index]:
            kept.append(m)
    merged = make_chain(lat, tuple(hn.chain[m] for m in kept))

    top_slope = slopes(lat.top.stats)[index]
    raw = [slopes(g)[index] - top_slope for g in merged.gradeds]
    weights = primitive_weights(raw)
    value = nu(make_filtration(lat, merged.chain, weights))
    return LeadingTermData(chain=merged, index=index, weights=weights, value=value)
