"""Command-line front end.

Subcommands: check, hn, canonical, nu, polytope, pair-check,
pair-canonical, sweep, oracle.  Exit status 0 on success, 1 on domain
errors (printing the owning module's error name, or IntegerTooLong for an
integer too long to print), 2 on parse errors.  pair-canonical refuses an
unstable pair on a lattice of more than CHAIN_BUDGET saturated chains
(WorkBudgetExceeded, exit 1) before walking them.  Structured output
(--format structured) is a single JSON document that is a pure function
of the input file and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache

from . import canonical as canonical_mod
from . import invariant, oracle, pairs
from .errors import ParseError, StabilityError, WorkBudgetExceeded
from .latfile import (
    format_rational,
    load_lattice,
    nu_json,
    nu_text,
    parse_delta,
)
from .lattice import PairObject, SubobjectLattice, WeightedFiltration, graded_pieces, make_chain, make_filtration
from .ratpoly import EQUAL, GREATER, RatPoly, as_fraction, as_integer, nu_compare

APPROX_POINT = 10**6  # evaluation point for CSV audit values

#: The most saturated chains pair-canonical walks for an unstable pair;
#: past it the command refuses before walking.  The sub-sum lattice of k
#: summands has k! of them: k = 8 (40 320, about 12 s) answers, k = 9
#: (362 880) is refused.
CHAIN_BUDGET = 100_000


def _filtration_json(f: WeightedFiltration) -> dict:
    return {
        "chain": list(f.chain),
        "weights": list(f.weights),
        "graded": [
            {"weight": w, "poly": str(g.poly), "rank": format_rational(g.rank)}
            for w, g in zip(f.weights, f.gradeds)
        ],
    }


def _filtration_text(f: WeightedFiltration) -> list[str]:
    lines = [f"chain (top first): {' > '.join(f.chain)}", f"weights: {list(f.weights)}"]
    for w, g in graded_pieces(f):
        lines.append(f"  graded piece at weight {w}: {g.poly} (rank {format_rational(g.rank)})")
    return lines


def _parse_chain_arg(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ParseError(f"empty chain literal {text!r}")
    return items


def _parse_weights_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(as_integer(part) for part in text.split(","))
    except ParseError as exc:
        raise ParseError(f"bad weights literal {text!r}") from exc


def _emit(payload: dict, lines: list[str], fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


# -- subcommand handlers ----------------------------------------------------
# Each returns its structured payload and its text lines; main emits one.

def _cmd_check(args) -> tuple[dict, list[str]]:
    lat, _ = load_lattice(args.input)
    verdict, witness = canonical_mod.is_semistable(lat)
    payload = {
        "command": "check",
        "semistable": verdict,
        "witness": None if witness is None else witness.id,
    }
    lines = ["semistable" if verdict else f"unstable (witness: {witness.id})"]
    return payload, lines


def _cmd_hn(args) -> tuple[dict, list[str]]:
    lat, _ = load_lattice(args.input)
    hn = canonical_mod.hn_filtration(lat)
    payload = {"command": "hn", "chain": list(hn.chain)}
    lines = [f"HN chain (top first): {' > '.join(hn.chain)}"]
    return payload, lines


def _cmd_canonical(args) -> tuple[dict, list[str]]:
    lat, _ = load_lattice(args.input)
    # the leading term is valued on the step table its maximizer read
    result = canonical_mod.leading_term(canonical_mod.hn_filtration(lat))
    payload = {
        "command": "canonical",
        "filtration": _filtration_json(result.filtration),
        "nu": nu_json(result.value),
    }
    lines = _filtration_text(result.filtration) + [f"nu: {nu_text(result.value)}"]
    return payload, lines


def _cmd_nu(args) -> tuple[dict, list[str]]:
    lat, pair = load_lattice(args.input)
    if args.chain is None or args.weights is None:
        raise ParseError("nu requires --chain and --weights")
    delta = parse_delta(args.delta) if args.delta is not None else None
    filt = make_filtration(lat, _parse_chain_arg(args.chain), _parse_weights_arg(args.weights), pair)
    value = invariant.nu_delta(filt, delta)
    payload = {"command": "nu", "nu": nu_json(value), "delta": args.delta}
    lines = [f"nu: {nu_text(value)}"]
    return payload, lines


def _cmd_polytope(args) -> tuple[dict, list[str]]:
    lat, _ = load_lattice(args.input)
    if args.chain is not None:
        chain = make_chain(lat, _parse_chain_arg(args.chain))
    else:
        chain = canonical_mod.leading_term(canonical_mod.hn_filtration(lat)).filtration
    index = lat.dim - 1 if args.index is None else as_integer(args.index, "--index value")
    hull = invariant.polytope(chain, index)
    vertices = [[format_rational(x), format_rational(y)] for x, y in hull.vertices]
    payload = {"command": "polytope", "index": index, "chain": list(chain.chain), "vertices": vertices}
    lines = [f"slope index: {index}", f"hull vertices (ccw): {vertices}"]
    return payload, lines


def _at_least(text: str, flag: str, least: int) -> int:
    value = as_integer(text, f"{flag} value")
    if value < least:
        raise ParseError(f"{flag} must be >= {least}, got {value}")
    return value


def _oracle_limits(args) -> tuple[int, int]:
    """The weight bound W >= 1 and the candidate budget >= 0."""
    return _at_least(args.bound, "--bound", 1), _at_least(args.max_candidates, "--max-candidates", 0)


def _over_budget(count: int, budget: int) -> str:
    """The count of a refusal (count > budget), of candidates or of chains,
    as text: the count itself where str prints it (at most
    sys.get_int_max_str_digits() digits), else "more than {budget}"."""
    limit = sys.get_int_max_str_digits()
    return str(count) if not limit or count < 10**limit else f"more than {budget}"


def _refusal(lat: SubobjectLattice, pair: PairObject | None, bound: int, budget: int) -> str | None:
    """The oracle's candidate count at W = bound as _over_budget words it,
    or None within the budget.  The count is at least W + p * C(W + 1, 2)
    for p proper nonzero members: the top alone carries W candidates and
    each chain (top, m) at least C(W + 1, 2).  When that has more digits
    than str prints, the count is past the budget (read under the same
    limit) and is not computed."""
    limit = sys.get_int_max_str_digits()
    least = bound + len(lat.proper_nonzero_ids()) * (bound * (bound + 1) // 2)
    if limit and least >= 10**limit:
        return f"more than {budget}"
    count = oracle.candidate_count(lat, pair, bound)
    return _over_budget(count, budget) if count > budget else None


def _require_pair(pair: PairObject | None) -> PairObject:
    if pair is None:
        raise ParseError("this command needs a lattice file with a pair section")
    return pair


def _cmd_pair_check(args) -> tuple[dict, list[str]]:
    lat, pair = load_lattice(args.input)
    delta = parse_delta(args.delta)
    verdict, witness = pairs.pair_semistable(_require_pair(pair), delta)
    payload = {
        "command": "pair-check",
        "delta": args.delta,
        "semistable": verdict,
        "witness": None if witness is None else witness.id,
    }
    lines = [
        ("semistable" if verdict else "unstable")
        + (f" (witness: {witness.id})" if witness is not None else "")
    ]
    return payload, lines


def _cmd_pair_canonical(args) -> tuple[dict, list[str]]:
    lat, pair = load_lattice(args.input)
    pair = _require_pair(pair)
    delta = parse_delta(args.delta)
    bound, budget = _oracle_limits(args)
    chains = pairs.saturated_chain_count(lat)
    if chains > CHAIN_BUDGET and not pairs.pair_semistable(pair, delta)[0]:
        raise WorkBudgetExceeded(
            f"{_over_budget(chains, CHAIN_BUDGET)} saturated chains exceed the budget of {CHAIN_BUDGET}"
        )
    result = pairs.pair_canonical(pair, delta)
    payload = {
        "command": "pair-canonical",
        "delta": args.delta,
        "source": result.source,
        "filtration": _filtration_json(result.filtration),
        "nu_delta": nu_json(result.value),
    }
    lines = _filtration_text(result.filtration) + [
        f"nu_delta: {nu_text(result.value)}",
        f"found via: {result.source}",
    ]
    refused = _refusal(lat, pair, bound, budget)
    if refused is not None:
        agrees, text = None, f"skipped ({refused} candidates > budget {budget})"
    else:
        check = oracle.brute_force_max(lat, pair=pair, delta=delta, bound=bound)
        verdict = nu_compare(check.value, result.value)
        if check.best == result.filtration and verdict == EQUAL:
            agrees, text = True, "agrees"
        elif verdict != GREATER and max(map(abs, result.filtration.weights)) > bound:
            # the oracle cannot see weights beyond its bound
            agrees, text = None, f"inconclusive (closed-form weights exceed W={bound})"
        else:
            agrees, text = False, "disagrees"
    payload["oracle_agrees"] = agrees
    lines.append(f"oracle (bound {bound}): {text}")
    return payload, lines


def _cmd_sweep(args) -> tuple[dict, list[str]]:
    lat, pair = load_lattice(args.input)
    pair = _require_pair(pair)
    if not args.sweep_deltas:
        raise ParseError("sweep requires --sweep-deltas v1,v2,...")
    values = [as_fraction(part) for part in args.sweep_deltas.split(",")]
    rows = []
    previous = None
    for val in values:
        verdict, witness = pairs.pair_semistable(pair, RatPoly.const(val))
        wall = previous is not None and verdict != previous
        rows.append(
            {
                "delta": format_rational(val),
                "semistable": verdict,
                "witness": None if witness is None else witness.id,
                "wall": wall,
            }
        )
        previous = verdict
    payload = {"command": "sweep", "rows": rows}
    lines = []
    for row in rows:
        marker = "  <-- wall" if row["wall"] else ""
        state = "semistable" if row["semistable"] else f"unstable ({row['witness']})"
        lines.append(f"delta = {row['delta']}: {state}{marker}")
    return payload, lines


def _dumped(candidates, writer, lat):
    """The oracle's candidates, each written as a CSV row on its way by, valued as reported."""
    writer.writerow(["chain", "weights", "L", "b", f"value_at_{APPROX_POINT}"])
    for chain, weights, terms, b in candidates:
        value = invariant.reported_nu(lat, RatPoly(terms), b)
        writer.writerow(["|".join(chain), "|".join(str(w) for w in weights), str(value.L),
                         format_rational(value.b), f"{value.approx(APPROX_POINT):.6g}"])
        yield chain, weights, terms, b


def _cmd_oracle(args) -> tuple[dict, list[str]]:
    lat, pair = load_lattice(args.input)
    delta = parse_delta(args.delta) if args.delta is not None else None
    bound, budget = _oracle_limits(args)
    refused = _refusal(lat, pair, bound, budget)
    if refused is not None:
        raise WorkBudgetExceeded(f"{refused} candidates at W={bound} exceed the budget of {budget}")
    candidates = oracle.iter_terms(lat, pair, delta, bound)
    if args.csv:  # opened before the search, so an unwritable path fails at once
        try:
            with open(args.csv, "w", newline="") as handle:
                result = oracle.argmax(lat, _dumped(candidates, csv.writer(handle), lat), pair)
        except OSError as exc:
            raise ParseError(f"cannot write {args.csv}: {exc}") from exc
    else:
        result = oracle.argmax(lat, candidates, pair)
    payload = {
        "command": "oracle",
        "bound": bound,
        "explored": result.explored,
        "value": nu_json(result.value),
        "best": None if result.best is None else _filtration_json(result.best),
    }
    lines = [f"candidates explored: {result.explored}"]
    if result.best is None:
        lines.append(f"semistable: max value {nu_text(result.value)}")
    else:
        lines.extend(_filtration_text(result.best))
        lines.append(f"max nu: {nu_text(result.value)}")
    if args.csv:
        lines.append(f"candidate dump written to {args.csv}")
    return payload, lines


_HANDLERS = {
    "check": _cmd_check,
    "hn": _cmd_hn,
    "canonical": _cmd_canonical,
    "nu": _cmd_nu,
    "polytope": _cmd_polytope,
    "pair-check": _cmd_pair_check,
    "pair-canonical": _cmd_pair_canonical,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (an invalid choice, an unknown
    flag, a missing subcommand or argument) raise ParseError, so they
    print one `error: ParseError: ...` line and exit 2 like every other
    malformed input; -h still prints the help and exits 0.  Subparsers are
    made of the same class."""

    def error(self, message: str):
        raise ParseError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged and fills a fresh namespace with the defaults each call."""
    parser = _Parser(
        prog="thetastab",
        description="Exact stability computations on Hilbert-polynomial lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, delta=False, bound=False, index=False,
            chain=False, weights=False, sweep=False, csv_flag=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="path to a lattice file")
        if delta:
            cmd.add_argument("--delta", default=None if name in ("nu", "oracle") else "0",
                             help="Laurent polynomial literal, e.g. '1/2', 'n', '-n^2'")
        if bound:
            cmd.add_argument("--bound", default="6", help="oracle weight bound W")
            cmd.add_argument("--max-candidates", default="100000",
                             help="most candidates the oracle may score")
        if index:
            cmd.add_argument("--index", default=None, help="slope index i")
        if chain:
            cmd.add_argument("--chain", default=None, help="comma-separated member ids, top first")
        if weights:
            cmd.add_argument("--weights", default=None, help="comma-separated integers")
        if sweep:
            cmd.add_argument("--sweep-deltas", default=None,
                             help="comma-separated constant delta values")
        if csv_flag:
            cmd.add_argument("--csv", default=None, help="dump all candidates to this CSV file")
        cmd.add_argument("--format", choices=("text", "structured"), default="text")
        return cmd

    add("check", "Gieseker semistability verdict plus witness")
    add("hn", "greedy Harder-Narasimhan chain")
    add("canonical", "weighted leading-term filtration and its nu")
    add("nu", "invariant of a user-supplied filtration", delta=True, chain=True, weights=True)
    add("polytope", "slope polytope of a chain (default: leading-term chain)",
        index=True, chain=True)
    add("pair-check", "pair semistability at a given delta", delta=True)
    add("pair-canonical", "canonical destabilizing pair filtration", delta=True, bound=True)
    add("sweep", "per-delta verdict table with wall markers", sweep=True)
    add("oracle", "brute-force maximum over bounded weights", delta=True, bound=True,
        csv_flag=True)
    return parser


def _reject_double_dash(argv: list[str]) -> None:
    """`--flag=--` gives no value: argparse hands it over as [] before
    Python 3.13 and as the string "--" from 3.13 on, so it is refused
    before parsing, on every version.  A bare `--` ends the options."""
    for token in argv:
        if token == "--":
            return
        flag, eq, value = token.partition("=")
        if flag.startswith("--") and eq and value == "--":
            raise ParseError(f"{flag} needs a value, got '--'")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _reject_double_dash(argv)
        args = build_parser().parse_args(argv)
        _emit(*_HANDLERS[args.command](args), args.format)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # results, counts and messages become text in the handlers and _emit:
        # an integer over the int-to-str limit (left as it is) is a domain error
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: IntegerTooLong: an integer to print has over {sys.get_int_max_str_digits()} "
              "digits, the interpreter's limit (PYTHONINTMAXSTRDIGITS)", file=sys.stderr)
        return 1
    return 0


def entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
