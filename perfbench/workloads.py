"""Running one query, and checking its answer against reference.py.

run_query returns a JSON-serializable record; the record of a query is
the same in every round of a run and in every run of one seed, which is
what the digest compares.  check_query returns None when the record is
right and a one-line reason otherwise.  The checks do not trust the code
being timed: expectations come from the generator's facts
(reference.py).  The few checks that call thetastab compare independent
paths of the library with each other: nu_delta against the reported
value, weight_graded against weight_subobject, and pair_semistable
against pair_canonical's verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import gcd

from thetastab import cli, invariant, oracle, pairs
from thetastab.errors import Semistable
from thetastab.lattice import make_filtration

from gen import Query
from reference import feasible, pjson, psign


def _nu_record(value) -> list:
    return [{str(e): str(c) for e, c in value.L.items()}, str(value.b)]


def run_query(q: Query) -> list:
    if q.kind == "pair":
        try:
            result = pairs.pair_canonical(q.pair, q.delta_ratpoly)
        except Semistable:
            return ["Semistable"]
        f = result.filtration
        return [result.source, list(f.chain), list(f.weights), *_nu_record(result.value)]
    if q.kind == "oracle":
        result = oracle.brute_force_max(q.lattice, pair=q.pair, delta=q.delta_ratpoly, bound=q.bound)
        best = result.best
        return [
            result.explored,
            None if best is None else list(best.chain),
            None if best is None else list(best.weights),
            *_nu_record(result.value),
        ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(q.argv)
    error = err.getvalue().split(":")[1].strip() if code else None
    return [code, out.getvalue(), error]


def check_query(q: Query, record: list) -> str | None:
    if q.kind == "pair":
        return _check_pair(q, record)
    if q.kind == "oracle":
        return _check_oracle(q, record)
    return _check_verdict(q, record)


# -- verdict_batch -------------------------------------------------------------------

def _expected_payload(q: Query) -> dict | None:
    """Structured output the subcommand must print; None means it must fail
    with ObjectSemistable (exit 1)."""
    ref = q.ref
    unstable = not ref.check()["semistable"]
    if q.kind == "check":
        return ref.check()
    if q.kind == "hn":
        return {"command": "hn", "chain": ref.hn_chain()}
    if q.kind == "polytope":
        return ref.polytope() if unstable else None
    if q.kind == "canonical":
        if not unstable:
            return None
        chain, weights = ref.hn_chain(), ref.leading_weights()
        L, b = ref.nu(chain, weights)
        return {"chain": chain, "weights": weights, "nu": {"L": pjson(L), "b": str(b)}}
    if q.kind == "pair-check":
        verdict, witness = ref.pair_verdict(q.beta, q.delta_poly)
        return {"command": "pair-check", "delta": q.delta, "semistable": verdict, "witness": witness}
    # sweep
    values = q.argv[q.argv.index("--sweep-deltas") + 1].split(",")
    rows, previous = [], None
    for text in values:
        value = Fraction(text)
        verdict, witness = ref.pair_verdict(q.beta, {0: value} if value else {})
        rows.append({"delta": str(value), "semistable": verdict, "witness": witness,
                     "wall": previous is not None and verdict != previous})
        previous = verdict
    return {"command": "sweep", "rows": rows}


def _check_verdict(q: Query, record: list) -> str | None:
    code, out, error = record
    expected = _expected_payload(q)
    if expected is None:
        if code == 1 and error == "ObjectSemistable":
            return None
        return f"expected ObjectSemistable, got exit {code} ({error})"
    if code != 0:
        return f"exit {code} ({error})"
    payload = json.loads(out)
    if q.kind == "canonical":
        filt = payload["filtration"]
        graded = [(g["weight"], g["rank"]) for g in filt["graded"]]
        sizes = [(w, str(len(g))) for w, g in zip(expected["weights"], q.ref.gradeds(expected["chain"]))]
        payload = {"chain": filt["chain"], "weights": filt["weights"], "nu": payload["nu"]}
        if graded != sizes:
            return f"graded pieces {graded}, expected {sizes}"
    if payload != expected:
        return f"printed {payload}, expected {expected}"
    return None


# -- pair_closed_form ------------------------------------------------------------------

def _check_pair(q: Query, record: list) -> str | None:
    verdict, _ = pairs.pair_semistable(q.pair, q.delta_ratpoly)
    if verdict != q.semistable:
        return f"pair_semistable says {verdict}, the criterion says {q.semistable}"
    if record == ["Semistable"]:
        return None if q.semistable else "raised Semistable on an unstable pair"
    if q.semistable:
        return "returned a destabilizer of a semistable pair"
    source, chain, weights, L, b = record
    if source not in ("closed-form", "oracle"):
        return f"source {source} for deg(delta) <= d - 1"
    filt = make_filtration(q.lattice, chain, weights, q.pair)  # validates order and pivot
    if _nu_record(invariant.nu_delta(filt, q.delta_ratpoly)) != [L, b]:
        return "reported value differs from nu_delta of the returned filtration"
    if invariant.weight_graded(filt) != invariant.weight_subobject(filt):
        return "weight_graded differs from weight_subobject"
    ref_L, ref_b = q.ref.nu(chain, weights, q.delta_poly)
    if [pjson(ref_L), str(ref_b)] != [L, b]:
        return f"value {L}, {b}; reference {ref_L}, {ref_b}"
    if psign(ref_L) <= 0:
        return "destabilizer with nonpositive value"
    if gcd(*weights) != 1:
        return f"weights {weights} not primitive"
    return None


# -- oracle_audit ------------------------------------------------------------------------

def _check_oracle(q: Query, record: list) -> str | None:
    explored, chain, weights, L, b = record
    expected = feasible_count(q)
    if explored != expected:
        return f"explored {explored}, feasible count {expected}"
    if chain is None:
        sign = psign({int(e): Fraction(c) for e, c in L.items()})
        return None if sign <= 0 else "no argmax reported for a positive maximum"
    if gcd(*weights) != 1 or max(abs(w) for w in weights) > q.bound:
        return f"argmax weights {weights} not primitive within W={q.bound}"
    if any(b2 <= a for a, b2 in zip(weights, weights[1:])):
        return f"argmax weights {weights} not increasing"
    if q.beta is not None:
        sets = [q.ref.subset(m) for m in chain]
        pivot = max(j for j, s in enumerate(sets) if q.beta <= s)
        if weights[pivot] < 0:
            return f"argmax weight {weights[pivot]} < 0 at the marked image"
    ref_L, ref_b = q.ref.nu(chain, weights, q.delta_poly)
    if [pjson(ref_L), str(ref_b)] != [L, b]:
        return f"value {L}, {b}; reference {ref_L}, {ref_b}"
    if psign(ref_L) <= 0:
        return "argmax with nonpositive value"
    return None


def feasible_count(q: Query) -> int:
    """Candidates the oracle must score, from chain lengths, the pivot and W."""
    beta = q.beta if q.pair is not None else None
    return sum(feasible(n, p, q.bound) for n, p in q.ref.chain_shapes(beta))
