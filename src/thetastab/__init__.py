"""Exact-arithmetic stability computations for filtered objects described
by Hilbert polynomials: semistability verdicts, Harder-Narasimhan and
leading-term filtrations, canonical destabilizing weights, slope polytopes,
delta-stability of pairs, and a brute-force oracle cross-checking it all.
"""

from .canonical import (
    canonical_filtration,
    convexify,
    delete_step,
    hn_filtration,
    is_semistable,
    leading_term,
)
from .invariant import (
    CanonicalResult,
    Polytope2,
    WeightMaximum,
    maximize_weights,
    nu,
    nu_delta,
    polytope,
    weight_graded,
    weight_subobject,
)
from .lattice import (
    ObjectClass,
    PairObject,
    SubobjectLattice,
    UnweightedFiltration,
    WeightedFiltration,
    build_lattice,
    graded_pieces,
    make_chain,
    make_filtration,
    primitive_weights,
    quotient_poly,
    validate_lattice,
)
from .oracle import OracleResult, brute_force_max, enumerate_chains
from .pairs import pair_canonical, pair_semistable
from .ratpoly import (
    EQUAL,
    GREATER,
    LESS,
    HilbertStats,
    NuValue,
    RatPoly,
    eventual_compare,
    hilbert_line_bundle_projective,
    hilbert_stats,
    nu_compare,
)

__version__ = "0.1.0"
