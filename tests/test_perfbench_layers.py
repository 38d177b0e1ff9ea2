"""The benchmark reads the library through its public API: the tracer
wraps library functions by name, and the workloads read answers and their
fields.  A rename, a deletion or a changed answer fails here, not only as
failed operations in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _traced_layers() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.LAYERS)


@pytest.mark.parametrize("name", _traced_layers())
def test_traced_layer_is_a_library_callable(name):
    module, func = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"thetastab.{module}"), func, None))



@pytest.mark.parametrize("workload", ["pair_closed_form", "verdict_batch"])
def test_one_round_passes_the_benchmark_checks(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    queries = gen.GENERATORS[workload](1, PERFBENCH.parent, tmp_path)
    assert queries
    failures = [
        (q.kind, reason)
        for q in queries
        if (reason := workloads.check_query(q, workloads.run_query(q))) is not None
    ]
    assert not failures, failures[:5]
