"""thetastab benchmark: three closed-loop workloads over the public API.

    python3 perfbench/run.py --workload verdict_batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it imports thetastab from src/ and reads
fixtures/.  One process, one thread, one client: each query starts after
the previous one returns.  A round is the seed's whole query list; the run
repeats rounds until --seconds have passed and then finishes the round in
progress, so every run measures whole rounds of the same mix.

Times are scaled to a reference host speed measured by a calibration
kernel run between queries (calibrate.py); the raw figures are printed
too.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
rounds with the same rounds traced (every layer function wrapped, see
tracing.py) until the untraced ones fill half of --seconds, and prints
per-round layer figures, the work counts and the tracing overhead; it also
runs the one-shot count check.

Every answer is checked against reference.py; a query that raised an
unexpected error or failed its check counts as failed.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verdict_batch", "pair_closed_form", "oracle_audit")
SETUPS = 3  # setup_s is the median of this many set-ups
MIN_QUERIES = 100  # so that p90 has ten samples beyond it


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup(workload: str, seed: int, workdir: Path):
    """Generate the inputs, write the lattice files, and warm up.  Returns the
    query list of one round."""
    import gen
    from workloads import run_query

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    queries = gen.GENERATORS[workload](seed, ROOT, workdir)
    # warm-up: one query of each kind, on its smallest lattice, avoiding the
    # semistable pairs (their oracle fallback would dominate set-up time)
    for kind in dict.fromkeys(q.kind for q in queries):
        run_query(min((q for q in queries if q.kind == kind),
                      key=lambda q: (len(q.ref.order), bool(q.semistable))))
    return queries


def measure(queries, seconds: float, rounds: int | None = None):
    """Closed loop over whole rounds.  Stops at the first round boundary
    after `seconds` of query time (and MIN_QUERIES), or after `rounds`
    rounds when given.  Returns the per-query records, the per-query
    latencies scaled to the reference host speed, the rounds run, and the
    mean scale factor.

    The calibration kernel runs between queries, every calibrate.EVERY_S of
    query time; a query's latency is scaled by the kernel samples taken
    just before and just after it."""
    from workloads import run_query

    records, latencies, slots = [], [], []
    samples = [calibrate.kernel()]
    busy = since = 0.0
    done = 0
    while True:
        if rounds is not None and done == rounds:
            break
        if rounds is None and done and busy >= seconds and len(records) >= MIN_QUERIES:
            break
        for q in queries:
            t0 = time.perf_counter()
            try:
                record = run_query(q)
            except (Exception, SystemExit) as exc:  # an unexpected error fails the query
                record = ["crash", f"{type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - t0
            records.append(record)
            latencies.append(latency)
            slots.append(len(samples) - 1)
            busy += latency
            since += latency
            if since >= calibrate.EVERY_S:
                samples.append(calibrate.kernel())
                since = 0.0
        done += 1
    samples.append(calibrate.kernel())
    scaled = [t * calibrate.scale(samples[j:j + 2]) for t, j in zip(latencies, slots)]
    return records, scaled, done, sum(scaled) / sum(latencies)


def verify(queries, records) -> tuple[int, list[str], str]:
    """Check every record; a round that differs from the first also fails.
    Returns (failed, reasons, digest of the first round)."""
    from workloads import check_query

    n = len(queries)
    first = [json.dumps(r, sort_keys=True) for r in records[:n]]
    verdicts: dict[int, str | None] = {}
    failed, reasons = 0, []
    for i, record in enumerate(records):
        j = i % n
        if i >= n and json.dumps(record, sort_keys=True) != first[j]:
            reason = "answer differs from the first round"
        elif record and record[0] == "crash":
            reason = record[1]
        else:
            if j not in verdicts:
                try:
                    verdicts[j] = check_query(queries[j], record)
                except Exception as exc:  # a malformed answer fails the query
                    verdicts[j] = f"check raised {type(exc).__name__}: {exc}"
            reason = verdicts[j]
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{queries[j].kind} {queries[j].argv or ''}: {reason}")
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    return failed, reasons, digest


def count_check(tracer) -> list[str]:
    """Reproduce the baseline work counts through the outside counters:
    75 / 541 / 4683 chains at k = 4, 5, 6 and 15 378 candidates for the
    k = 4 lattice at W = 6, delta = 1/2, beta_image = L0."""
    from fractions import Fraction

    from thetastab import PairObject, RatPoly, oracle

    import gen
    from reference import Coordinate, feasible, fubini

    problems = []
    refs, lattices = {}, {}
    for k, expected in ((4, 75), (5, 541), (6, 4683)):
        refs[k] = Coordinate(1, {f"L{i}": (i * 7) % 5 - 2 + i for i in range(k)})
        lattices[k], _ = gen.coordinate_lattice(refs[k], None)
        before = tracer.counts["oracle.chains_visited"]
        oracle.enumerate_chains(lattices[k])
        seen = tracer.counts["oracle.chains_visited"] - before
        if not seen == expected == fubini(k):
            problems.append(f"k={k}: {seen} chains visited, expected {expected}")
    pair = PairObject(lattice=lattices[4], beta_image="L0")
    before = tracer.counts["oracle.candidates_scored"]
    oracle.brute_force_max(lattices[4], pair=pair, delta=RatPoly.const(Fraction(1, 2)), bound=6)
    scored = tracer.counts["oracle.candidates_scored"] - before
    independent = sum(feasible(n, p, 6) for n, p in refs[4].chain_shapes(frozenset({"L0"})))
    if not scored == independent == 15378:
        problems.append(f"k=4, W=6: {scored} candidates scored, expected 15378 ({independent} independently)")
    return problems


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "thetastab").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: run from a checkout of thetastab; no src/thetastab or fixtures/ under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            workdir.parent.rmdir()


def run(args, workdir: Path) -> int:
    setup_times = []
    for _ in range(SETUPS if not args.trace else 1):
        before = calibrate.kernel()
        t0 = time.perf_counter()
        queries = setup(args.workload, args.seed, workdir)
        elapsed = time.perf_counter() - t0
        setup_times.append(elapsed * calibrate.scale([before, calibrate.kernel()]))
    gc.collect()

    print(f"workload {args.workload}, seed {args.seed}: {len(queries)} queries per round, "
          f"closed loop, 1 client, 1 thread")
    if not args.trace:
        records, latencies, rounds, _ = measure(queries, args.seconds)
        failed, reasons, digest = verify(queries, records)
        busy = sum(latencies)
        metrics = {
            "throughput_qps": (len(records) / busy, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (quantile(latencies, 90) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        attempted = len(records)
        print(f"rounds {rounds}, queries {attempted}, {busy:.3f} s of query time at the reference speed")
        print(f"failed {failed} of {attempted} (failed_frac {failed / attempted:.4f})")
        correct = failed == 0
    else:
        from tracing import COUNTS, LAYERS, Tracer, wrapper_cost

        # untraced and traced rounds alternate, so host drift hits both alike
        tracer = Tracer()
        records, latencies, traced, traced_latencies = [], [], [], []
        rounds, raw, traced_raw = 0, 0.0, 0.0
        while not rounds or sum(latencies) < args.seconds / 2 or len(records) < MIN_QUERIES:
            plain_records, plain_latencies, _, factor = measure(queries, 0, rounds=1)
            raw += sum(plain_latencies) / factor
            tracer.install()
            try:
                round_records, round_latencies, _, factor = measure(queries, 0, rounds=1)
            finally:
                tracer.uninstall()
            traced_raw += sum(round_latencies) / factor
            records += plain_records
            latencies += plain_latencies
            traced += round_records
            traced_latencies += round_latencies
            rounds += 1
        factor = sum(traced_latencies) / traced_raw
        figures = tracer.report(rounds, factor)
        calls = sum(tracer.spans[name][0] for name in LAYERS) / rounds
        figures["trace.wrapper_s"] = calls * wrapper_cost() * factor
        tracer.install()
        try:
            problems = count_check(tracer)
        finally:
            tracer.uninstall()
        failed, reasons, digest = verify(queries, records)
        replay_failed = sum(json.dumps(a) != json.dumps(b) for a, b in zip(records, traced))
        if replay_failed:
            reasons.append(f"{replay_failed} traced answers differ from the untraced ones")
        reasons += problems
        untraced_s, traced_s = sum(latencies) / rounds, sum(traced_latencies) / rounds
        self_s, wrapper_s = figures["trace.self_sum_s"], figures["trace.wrapper_s"]
        print(f"{rounds} rounds untraced, each followed by the same round traced; per round, at the "
              f"reference speed: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, sum of self "
              f"times {self_s:.4f} s, unattributed {traced_s - self_s:.4f} s; tracing overhead "
              f"{wrapper_s:.4f} s from {calls:.0f} wrapped calls, {traced_raw / raw - 1:+.2%} measured")
        for name, moves in {**LAYERS, **COUNTS}.items():
            print(f"  {name}: expected to move {moves}")
        metrics = {}
        for name, value in figures.items():
            unit = "count" if name.endswith(".calls") or name in COUNTS else "s"
            if name.endswith(("ratio", "share")):
                unit = "1"
            metrics[name] = (value, unit)
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.wall_s"] = (traced_s, "s")
        metrics["trace.overhead"] = (traced_raw / raw - 1, "1")
        attempted = len(records) + len(traced) + 4
        failed += replay_failed + len(problems)
        correct = failed == 0
    print(f"digest {digest}")
    for reason in reasons:
        print(f"FAILED: {reason}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
