"""The benchmark reads the library through its public API: the tracer
wraps library functions by name, and the workloads read answers and their
fields.  A rename, a deletion or a changed answer fails here, not only as
failed operations in a benchmark run; the answers of one seeded round are
also pinned by the digest perfbench/run.py prints."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# sha256 of one round's records at seed 1, as perfbench/run.py digests them
DIGESTS = {
    "pair_closed_form": "16d8fd0d2da6cf85242cabc0ae95232ebbc5670828a72881ae7818415e1bc6c0",
    "verdict_batch": "f51ff0191837eb61e0ab6a73ff7e587056efb389a656f4665b54667ccb07e260",
    "oracle_audit": "e4019c92e37366037b98894136ed1e8e4a9d1657847aa9d5c702a6ab89405832",
}


def _traced_layers() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.LAYERS)


@pytest.mark.parametrize("name", _traced_layers())
def test_traced_layer_is_a_library_callable(name):
    module, func = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"thetastab.{module}"), func, None))



@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_one_round_passes_the_benchmark_checks(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    queries = gen.GENERATORS[workload](1, PERFBENCH.parent, tmp_path)
    assert queries
    records = [workloads.run_query(q) for q in queries]
    failures = [
        (q.kind, reason)
        for q, record in zip(queries, records)
        if (reason := workloads.check_query(q, record)) is not None
    ]
    assert not failures, failures[:5]
    round_text = "\n".join(json.dumps(record, sort_keys=True) for record in records)
    assert hashlib.sha256(round_text.encode()).hexdigest() == DIGESTS[workload]
