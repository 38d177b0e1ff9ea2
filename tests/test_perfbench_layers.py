"""The benchmark's tracer wraps library functions by name; each name it
lists must resolve, so that a rename or a deletion fails here and not only
in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_layers() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.LAYERS)


@pytest.mark.parametrize("name", _traced_layers())
def test_traced_layer_is_a_library_callable(name):
    module, func = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"thetastab.{module}"), func, None))
