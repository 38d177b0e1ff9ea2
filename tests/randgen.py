"""Deterministic random generators for the property and acceptance suites.

Randomized lattices come in four flavors:

* path lattices: a single chain of partial sums of random positive-rank
  degree-d polynomials; the cheapest valid lattice, used wherever only one
  chain is needed (weight-formula identity, deletion monotonicity).
* coordinate lattices: full sub-sum lattices of line bundles on P^d.  These
  are closed under sums, which the leading-term theory presumes, so the
  canonical filtration provably attains the oracle maximum on them.
* sub-poset lattices: coordinate lattices with random proper members
  dropped and the order restricted to the rest.  They are in general not
  closed under sums, so they catch a shortcut that silently assumes it.
* coprime lattices: sub-sum lattices of summands whose coefficients have
  pairwise coprime denominators, rational ranks and 40-digit numerators,
  so that a lattice's common denominator is a product of several primes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from thetastab import (
    RatPoly,
    SubobjectLattice,
    WeightedFiltration,
    build_lattice,
    make_filtration,
)

from conftest import coordinate_lattice, sum_lattice


def random_graded_poly(rng: random.Random, d: int) -> RatPoly:
    """Degree-d polynomial with positive leading coefficient (a valid
    graded-piece class)."""
    coeffs = {d: Fraction(rng.randint(1, 3))}
    for k in range(d):
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if value:
            coeffs[k] = value
    return RatPoly(coeffs)


def random_path_filtration(
    rng: random.Random,
    max_dim: int = 3,
    max_steps: int = 5,
    weight_bound: int = 10,
) -> WeightedFiltration:
    """Random weighted filtration on a freshly built path lattice."""
    d = rng.randint(1, max_dim)
    steps = rng.randint(1, max_steps)
    gradeds = [random_graded_poly(rng, d) for _ in range(steps)]
    polys: dict[str, RatPoly] = {"0": RatPoly.zero()}
    total = RatPoly.zero()
    chain_ids: list[str] = []
    for i, g in enumerate(gradeds):
        total = total + g
        name = f"M{i}" if i < steps - 1 else "F"
        polys[name] = total
        chain_ids.append(name)
    relations = [(chain_ids[i], chain_ids[i + 1]) for i in range(steps - 1)]
    lat = build_lattice(d, polys, relations)
    weights = sorted(rng.sample(range(-weight_bound, weight_bound + 1), steps))
    return make_filtration(lat, tuple(reversed(chain_ids)), weights)


def random_coordinate_lattice(
    rng: random.Random, max_summands: int = 3, dims=(1, 2)
) -> SubobjectLattice:
    d = rng.choice(dims)
    count = rng.randint(2, max_summands)
    twists = {f"L{i}": rng.randint(-2, 2) for i in range(count)}
    return coordinate_lattice(twists, d)


def random_delta(rng: random.Random, d: int, form: str | None) -> RatPoly | None:
    """A delta of the given form for dimension d; positive unless negative."""
    def coeff():
        return Fraction(rng.randint(1, 6), rng.randint(1, 4))

    def lower(top):  # terms of either sign below the leading one
        return {e: coeff() * rng.choice((-1, 1)) for e in range(top - 2, top) if rng.random() < 0.5}

    if form is None:
        return None
    top = {
        "zero": None,
        "negative": rng.randint(-1, d + 1),
        "Laurent": rng.randint(-2, d - 1),
        "degree <= d-1": rng.randint(0, d - 1),
        "degree d": d,
        "degree > d": d + 1,
    }[form]
    if top is None:
        return RatPoly.zero()
    terms = lower(top)
    if form == "Laurent":
        terms[min(top, 0) - 1] = coeff() * rng.choice((-1, 1))
    terms[top] = -coeff() if form == "negative" else coeff()
    return RatPoly(terms)


def random_subposet_lattice(
    rng: random.Random, k: int, d: int, keep: float
) -> SubobjectLattice:
    """The coordinate lattice of k random twists on P^d with each proper
    nonzero member kept with probability keep; zero and top are always
    kept, and the order is the full lattice's, restricted."""
    full = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(k)}, d)
    return restrict(rng, full, keep)


def restrict(rng: random.Random, full: SubobjectLattice, keep: float) -> SubobjectLattice:
    """full with each proper nonzero member kept with probability keep and
    the order restricted to the members kept."""
    kept = [m for m in full.proper_nonzero_ids() if rng.random() < keep]
    polys = {m: full.member(m).poly for m in (full.zero_id, full.top_id, *kept)}
    relations = [(sub, sup) for sub in kept for sup in kept if full.lt(sub, sup)]
    return build_lattice(full.dim, polys, relations)


#: pairwise coprime denominators, one per summand of random_coprime_lattice
COPRIME = (3, 5, 7, 11, 13)


def random_coprime_lattice(
    rng: random.Random, k: int, d: int, proportional: bool = False
) -> SubobjectLattice:
    """The full sub-sum lattice of k <= 5 random summands of degree d whose
    coefficients have pairwise coprime denominators, 3 for the first
    summand, 5 for the second, and so on: the members' denominators are
    their products, and ranks d! * a/p are rational.  About a third of the
    lower coefficients have 40-digit numerators.  With proportional, the
    summands are rational multiples a/p of one polynomial, so every member
    has the same reduced polynomial and the lattice is semistable."""
    def numerator():
        if rng.random() < 0.3:
            return rng.choice((-1, 1)) * rng.randint(10**39, 10**40 - 1)
        return rng.randint(-9, 9)

    shape = RatPoly({d: 1, **{e: numerator() for e in range(d)}})
    summands = {}
    for i, p in enumerate(COPRIME[:k]):
        if proportional:
            summands[f"S{i}"] = shape * Fraction(rng.randint(1, 4), p)
        else:
            terms = {e: Fraction(numerator(), p) for e in range(d)}
            terms[d] = Fraction(rng.randint(1, 9), p)
            summands[f"S{i}"] = RatPoly(terms)
    return sum_lattice(summands, d)
