"""Tests that the benchmark's tracer still fits the package.

`perfbench/spans.py` rebinds, in the benchmark process only, names that
one phifem module imported from another.  A rename under `src/` would
break only a traced benchmark run, so every binding is checked here.
The file is loaded by path and never modified.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BINDINGS = _load_spans().BINDINGS


@pytest.mark.parametrize("module_name, attr",
                         [binding[:2] for binding in _BINDINGS],
                         ids=[".".join(binding[:2]) for binding in _BINDINGS])
def test_tracer_binding_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), \
        f"{module_name}.{attr} is bound by perfbench/spans.py but missing"
