"""Metamorphic checks: twist and scale change no answer (see transforms).

Neither needs the oracle or the saturated-chain walk to judge an answer,
so they reach sizes both are too slow for.  On seeded coordinate,
sub-poset, coprime and Lambda lattices, at every form of delta, the
transformed lattice must give the same verdicts and witnesses, HN chain,
canonical filtration (or error class), pair_canonical chain and weights
(or error class) and W = 2 oracle argmax, with every value moved exactly
as the theory says: lam * L over lam * b when scaled, L(n + t) over b
when twisted.
"""

import random
from fractions import Fraction

import pytest

from thetastab import (
    PairObject,
    RatPoly,
    brute_force_max,
    canonical_filtration,
    hn_filtration,
    is_semistable,
    nu,
    pair_canonical,
    pair_semistable,
)
from thetastab.errors import StabilityError

from conftest import coordinate_lattice
from randgen import random_coprime_lattice, random_delta, random_lambda_lattice, random_subposet_lattice
from transforms import rebuilt, transform, transform_value

FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")


def _outcome(fn, *args):
    """fn's answer, or the class of the domain error it raises."""
    try:
        return fn(*args)
    except StabilityError as exc:
        return type(exc)


def _id(member):
    return None if member is None else member.id


def answers(lat, beta, delta):
    """What a transform must keep, and the values it moves, by name."""
    pair = PairObject(lattice=lat, beta_image=beta)
    verdict, witness = is_semistable(lat)
    pair_verdict, pair_witness = pair_semistable(pair, delta)
    hn = _outcome(hn_filtration, lat)
    canonical = _outcome(canonical_filtration, lat)
    closed = _outcome(pair_canonical, pair, delta)
    oracle = brute_force_max(lat, pair, delta, 2)
    kept = {
        "is_semistable": (verdict, _id(witness)),
        "pair_semistable": (pair_verdict, _id(pair_witness)),
        "hn_filtration": hn if isinstance(hn, type) else hn.chain,
        "canonical_filtration": canonical if isinstance(canonical, type) else (canonical.chain, canonical.weights),
        "pair_canonical": closed if isinstance(closed, type) else (closed.filtration.chain, closed.filtration.weights),
        "brute_force_max": (None if oracle.best is None else (oracle.best.chain, oracle.best.weights), oracle.explored),
    }
    values = {"brute_force_max": oracle.value}
    if not isinstance(canonical, type):
        values["canonical_filtration"] = nu(canonical)
    if not isinstance(closed, type):
        values["pair_canonical"] = closed.value
    return kept, values


def assert_transforms_keep_answers(lat, beta, delta, rng):
    """Scale by a random lam > 0, and twist by a small t and by t = 10^45
    unless delta is Laurent; each must keep every answer and move every
    value as predicted.  Returns the number of twists checked.

    10^45 lies past every crossing of two members' reduced polynomials,
    even with 40-digit coefficients, so that a comparison made at a fixed
    n instead of eventually answers differently on the twisted lattice."""
    kept, values = answers(lat, beta, delta)
    transforms = [(0, Fraction(rng.randint(1, 9), rng.randint(1, 7)))]
    if delta is None or not delta.has_negative_exponents():
        transforms += [(rng.randint(1, 3), 1), (10**45, 1)]
    for twist, scale in transforms:
        image_delta = None if delta is None else transform(delta, twist, scale)
        image_kept, image_values = answers(rebuilt(lat, twist, scale), beta, image_delta)
        assert image_kept == kept, (twist, scale, delta)
        predicted = {name: transform_value(v, twist, scale) for name, v in values.items()}
        assert image_values == predicted, (twist, scale, delta)
    return len(transforms) - 1


def _lattice(family, rng):
    d = rng.choice((1, 2))
    if family == "coordinate":
        return coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 4))}, d)
    if family == "sub-poset":
        return random_subposet_lattice(rng, rng.randint(2, 5), d, rng.uniform(0.5, 1.0))
    if family == "Lambda":
        return random_lambda_lattice(rng, rng.randint(2, 5), d, rng.uniform(0.1, 0.5))
    return random_coprime_lattice(rng, rng.randint(2, 4), d)


@pytest.mark.parametrize("family", ("coordinate", "sub-poset", "coprime", "Lambda"))
def test_twist_and_scale_change_no_answer(family):
    rng = random.Random(20261019)
    twisted = 0
    for form in FORMS:
        for _ in range(2):
            lat = _lattice(family, rng)
            beta = rng.choice((None, *lat.nonzero_ids(), *lat.nonzero_ids()))
            twisted += assert_transforms_keep_answers(lat, beta, random_delta(rng, lat.dim, form), rng)
    assert twisted >= 16


def test_twist_and_scale_together_on_the_k7_pair():
    # too large for the oracle to judge in a test: 5040 saturated chains
    lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(7)}, 2)
    delta = RatPoly({1: Fraction(1, 2), 0: Fraction(-1, 3)})
    closed = pair_canonical(PairObject(lattice=lat, beta_image="L0"), delta)
    image = rebuilt(lat, 2, Fraction(3, 5))
    moved = pair_canonical(PairObject(lattice=image, beta_image="L0"), transform(delta, 2, Fraction(3, 5)))
    assert (moved.filtration.chain, moved.filtration.weights) == (closed.filtration.chain, closed.filtration.weights)
    assert moved.value == transform_value(closed.value, 2, Fraction(3, 5))
