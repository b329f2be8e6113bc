"""Tests that the benchmark's tracer still fits the package.

`perfbench/spans.py` rebinds, in the benchmark process only, names that
one phifem module imported from another, and reads sizes off the
results and errors of the calls it wraps.  A rename under `src/` would
break only a traced benchmark run, so every binding and every reader of
a linalg result is checked here, and a traced study must record the
facet-kernel spans.  The file is loaded by path and never modified.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from phifem import cli
from phifem.assembly import SparseSystem
from phifem.linalg import (NoConvergenceError, estimate_condition_number,
                           solve)

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS_MODULE = _load_spans()
_BINDINGS = _SPANS_MODULE.BINDINGS


def _laplacian_system(n):
    """The 1D Laplacian stencil with a unit right-hand side."""
    off = np.full(n - 1, -1.0)
    a = sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1], format="csr")
    return SparseSystem(A=a, b=np.ones(n), dofmap=None)


@pytest.mark.parametrize("module_name, attr",
                         [binding[:2] for binding in _BINDINGS],
                         ids=[".".join(binding[:2]) for binding in _BINDINGS])
def test_tracer_binding_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), \
        f"{module_name}.{attr} is bound by perfbench/spans.py but missing"


def test_condition_reader_reads_estimates_and_capped_errors():
    system = _laplacian_system(200)
    est = estimate_condition_number(system)
    sizes = _SPANS_MODULE._condition_sizes((system,), est, None)
    assert sizes == {"power_iters": sum(est.iterations)}
    assert min(est.iterations) > 0

    with pytest.raises(NoConvergenceError) as info:
        estimate_condition_number(system, tol=1e-14, max_iters=1)
    sizes = _SPANS_MODULE._condition_sizes((system,), None, info.value)
    assert sizes == {"power_iters": sum(info.value.best.iterations),
                     "failed": 1}
    assert min(info.value.best.iterations) > 0


def test_solve_reader_reads_solver_reports():
    system = _laplacian_system(50)
    report = solve(system)
    sizes = _SPANS_MODULE._solve_sizes((system,), report, None)
    assert sizes == {"method": "sparse-lu", "iters": report.iterations,
                     "residual": report.residual}


def test_tracer_sees_the_facet_kernels(monkeypatch):
    # assembly calls its facet kernels by their module-level names, so a
    # traced study records a span for each; monkeypatch restores every
    # rebound name afterwards
    for module_name, attr, _, _ in _BINDINGS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = _SPANS_MODULE.Tracer()
    tracer.install()
    tracer.run_study(0, lambda: cli.run_case(
        cli.RunConfig(case="circle", k=1, n=8, levels=1)))
    names = {span["name"] for span in tracer.spans}
    assert {"assembly.boundary", "assembly.ghost_facet"} <= names
