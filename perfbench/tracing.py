"""Spans and work counts recorded from outside the program.

Tracer wraps each layer function at every name it is bound to in any
thetastab module (pairs.enumerate_chains as well as
oracle.enumerate_chains), so calls between modules are caught.  A span's
self time is its duration minus the time of the spans it encloses.  Work
counts are read off arguments and return values at the same boundaries.
Nothing under src/ is edited; uninstall() puts every binding back.
"""

from __future__ import annotations

import importlib
import sys
from inspect import signature
from math import comb
from time import perf_counter

from thetastab.errors import FlatObjective

# Each layer, with the end-to-end figure it should move and the workload
# that shows it.
LAYERS = {
    "latfile.load_lattice": "verdict_batch throughput_qps / latency_p50_ms",
    "lattice.build_lattice": "verdict_batch throughput_qps / latency_p50_ms",
    "cli.main": "verdict_batch throughput_qps / latency_p50_ms (self_s)",
    "canonical.is_semistable": "verdict_batch latency_p90_ms (k=7 files)",
    "canonical.hn_filtration": "verdict_batch latency_p90_ms (k=7 files)",
    "canonical.leading_term": "verdict_batch latency_p90_ms (k=7 files)",
    "pairs.pair_semistable": "verdict_batch latency_p90_ms (k=7 files)",
    "invariant.polytope": "verdict_batch latency_p90_ms (k=7 files)",
    "ratpoly.hilbert_stats": "verdict_batch throughput_qps",
    "ratpoly.eventual_compare": "verdict_batch throughput_qps",
    "lattice.make_chain": "pair_closed_form throughput_qps (small share of oracle_audit)",
    "oracle.enumerate_chains": "pair_closed_form throughput_qps (small share of oracle_audit)",
    "pairs.maximize_weights": "pair_closed_form latency_p50_ms / latency_p90_ms",
    "pairs.pair_canonical": "pair_closed_form latency_p50_ms / latency_p90_ms",
    "invariant.nu_delta": "pair_closed_form latency_p50_ms / latency_p90_ms",
    "oracle.brute_force_max": "oracle_audit throughput_qps (self_s)",
    "ratpoly.nu_compare": "oracle_audit throughput_qps",
}
COUNTS = {
    "oracle.chains_visited": "pair_closed_form throughput_qps: chains built by enumerate_chains",
    "oracle.candidates_scored": "oracle_audit throughput_qps: sum of explored",
    "oracle.candidates_attempted": "oracle_audit throughput_qps: sum over chains of C(2W+1, len)",
    "oracle.feasible_ratio": "oracle_audit: candidates_scored / candidates_attempted",
    "pairs.flat_chains": "pair_closed_form: chains whose objective vanishes (FlatObjective)",
    "pairs.maximal_chain_share": "pair_closed_form: share of chains visited by pair_canonical that are saturated",
    "pairs.source.closed-form": "pair_closed_form: pair_canonical answers found in closed form",
    "pairs.source.oracle": "pair_closed_form: pair_canonical answers from the oracle fallback",
    "pairs.source.high-degree": "pair_canonical answers in the deg(delta) >= d regime",
}


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, total, self
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list[float]] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        self._lengths: list[int] | None = None  # chain lengths seen by the open oracle call
        self._visited: dict[int, list] = {}  # id(lattice) -> [lattice, chain ids, visits]

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for name in LAYERS:
            module, func = name.rsplit(".", 1)
            targets[id(getattr(importlib.import_module(f"thetastab.{module}"), func))] = name
        modules = [m for key, m in list(sys.modules.items())
                   if key == "thetastab" or key.startswith("thetastab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is not None and callable(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(name, value, module.__name__))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn, binding: str):
        stat, stack = self.spans[name], self._stack
        after = {
            "oracle.enumerate_chains": self._after_enumerate,
            "pairs.pair_canonical": self._after_pair_canonical,
        }.get(name)
        is_oracle = name == "oracle.brute_force_max"
        bind = signature(fn).bind if is_oracle else None
        flat = name == "pairs.maximize_weights"

        def wrapper(*args, **kwargs):
            if is_oracle:
                self._lengths = []
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except FlatObjective:
                if flat:
                    self.counts["pairs.flat_chains"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if is_oracle:
                call = bind(*args, **kwargs)
                call.apply_defaults()
                self._after_oracle(result, call.arguments["bound"])
            elif after is not None:
                after(result, binding, args)
            return result

        return wrapper

    # -- work counts ------------------------------------------------------------

    def _after_enumerate(self, chains, binding, args) -> None:
        self.counts["oracle.chains_visited"] += len(chains)
        if self._lengths is not None:
            self._lengths += [len(c.chain) for c in chains]
        if binding == "thetastab.pairs":
            lattice = args[0]
            entry = self._visited.setdefault(id(lattice), [lattice, [c.chain for c in chains], 0])
            entry[2] += 1

    def _after_oracle(self, result, bound: int) -> None:
        self.counts["oracle.candidates_scored"] += result.explored
        self.counts["oracle.candidates_attempted"] += sum(comb(2 * bound + 1, n) for n in self._lengths)
        self._lengths = None

    def _after_pair_canonical(self, result, binding, args) -> None:
        self.counts[f"pairs.source.{result.source}"] += 1

    def report(self, rounds: int, factor: float) -> dict[str, float]:
        """Per-round figures: calls, total and self seconds (times `factor`)
        of each layer, the work counts, and the sum of all self times."""
        out = {}
        for name, (calls, total, own) in self.spans.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.s"] = total * factor / rounds
            out[f"{name}.self_s"] = own * factor / rounds
        counts = dict(self.counts)
        attempted = counts["oracle.candidates_attempted"]
        counts["oracle.feasible_ratio"] = counts["oracle.candidates_scored"] / attempted if attempted else 0.0
        visited = maximal = 0
        for lattice, chains, visits in self._visited.values():
            visited += visits * len(chains)
            maximal += visits * sum(saturated(lattice, c) for c in chains)
        counts["pairs.maximal_chain_share"] = maximal / visited if visited else 0.0
        for name, value in counts.items():
            out[name] = value if name in ("oracle.feasible_ratio", "pairs.maximal_chain_share") else value / rounds
        out["trace.self_sum_s"] = sum(own for _, _, own in self.spans.values()) * factor / rounds
        return out


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op (best of 5)."""
    def noop(*args, **kwargs):
        return None

    wrapped = Tracer()._wrap("cli.main", noop, "")
    best = {}
    for fn in (noop, wrapped) * 5:
        start = perf_counter()
        for _ in range(calls):
            fn(1, key=2)
        best[fn] = min(best.get(fn, float("inf")), perf_counter() - start)
    return (best[wrapped] - best[noop]) / calls


def saturated(lattice, chain: tuple[str, ...]) -> bool:
    """Every step of the top-first chain is a cover, down to an atom."""
    steps = list(zip(chain, chain[1:])) + [(chain[-1], lattice.zero_id)]
    return not any(
        lattice.lt(lower, m) and lattice.lt(m, upper)
        for upper, lower in steps
        for m in lattice.ids()
    )
