"""Tests that the benchmark's tracer and the README examples still fit
the package.

`perfbench/spans.py` rebinds, in the benchmark process only, names that
one phifem module imported from another, and reads sizes off the
results and errors of the calls it wraps.  A rename under `src/` would
break only a traced benchmark run, so every binding and every reader of
a linalg result is checked here, and a traced study must record the
facet-kernel spans.  The file is loaded by path and never modified.
The README's library example and command lines are run as written, so
an API edit cannot silently break them, and every exported name must
resolve, so a deletion cannot leave a stale entry that only a star
import would trip over.
A fresh interpreter that imports the command line must not load
`scipy.special`, whose import the quadrature rules no longer need.
"""
import contextlib
import importlib
import importlib.util
import io
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import phifem
from phifem import cli, linalg
from phifem.assembly import SparseSystem
from phifem.cases import get_case
from phifem.levelset import (EmptyActiveSetError, classify_domain,
                             interpolate_levelset)
from phifem.linalg import (NoConvergenceError, estimate_condition_number,
                           solve)
from phifem.mesh import build_background_mesh

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS_MODULE = _load_spans()
_BINDINGS = _SPANS_MODULE.BINDINGS
# the package's modules; `__main__` runs the command line when imported
_MODULES = [importlib.import_module(f"phifem.{info.name}")
            for info in pkgutil.iter_modules(phifem.__path__)
            if not info.name.startswith("_")]


def _laplacian_system(n):
    """The 1D Laplacian stencil with a unit right-hand side."""
    off = np.full(n - 1, -1.0)
    a = sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1], format="csr")
    return SparseSystem(A=a, b=np.ones(n), domain=None, dofmap=None)


@pytest.mark.parametrize("module_name, attr",
                         [binding[:2] for binding in _BINDINGS],
                         ids=[".".join(binding[:2]) for binding in _BINDINGS])
def test_tracer_binding_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), \
        f"{module_name}.{attr} is bound by perfbench/spans.py but missing"


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing {missing}"
    exec(f"from {module.__name__} import *", {})


def test_top_level_exports_are_public_names_of_their_modules():
    public = {(name, id(getattr(module, name)))
              for module in _MODULES for name in module.__all__}
    exports = [name for name, value in vars(phifem).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)]
    assert exports
    stale = [name for name in exports
             if (name, id(getattr(phifem, name))) not in public]
    assert not stale, f"phifem exports {stale} that no module lists"


def test_condition_reader_reads_estimates_and_capped_errors(monkeypatch):
    system = _laplacian_system(200)
    est = estimate_condition_number(system)
    sizes = _SPANS_MODULE._condition_sizes((system,), est, None)
    assert sizes == {"power_iters": sum(est.iterations)}
    assert min(est.iterations) > 0

    monkeypatch.setattr(linalg, "_LANCZOS_TOL", 1e-14)
    monkeypatch.setattr(linalg, "_LANCZOS_RESTARTS", 1)
    with pytest.raises(NoConvergenceError) as info:
        estimate_condition_number(system)
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


def test_classify_reader_reads_the_facet_set_sizes():
    # the tracer calls it with classify_domain's arguments and result
    case = get_case("circle")
    field = interpolate_levelset(
        case.phi, build_background_mesh(case.box, (10, 10)), 2)
    domain = classify_domain(field)
    sizes = _SPANS_MODULE._classify_sizes((field,), domain, None)
    assert sizes == {"cut_triangles": domain.cut_triangles.size,
                     "ghost_facets": domain.ghost_facets.size,
                     "boundary_facets": domain.boundary_facets.size}
    assert min(sizes.values()) > 0
    assert _SPANS_MODULE._classify_sizes((field,), None,
                                         EmptyActiveSetError()) == {}


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


def test_readme_library_example_prints_an_error_report():
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert re.fullmatch(r"ErrorReport\(.*\)\n", out.getvalue(), flags=re.S)


def test_readme_command_lines_run():
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block, = re.findall(r"```\n(.*?)```", section, flags=re.S)
    lines = block.splitlines()
    assert lines and all(line.startswith("phifem ") for line in lines)
    for line in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(line.split()[1:]) == 0, line
        assert out.getvalue().startswith(cli.CSV_HEADER + "\n"), line


def test_package_import_leaves_scipy_special_unloaded():
    # a fresh process, so no other test's imports count; the package is
    # found where this one was imported from
    src = str(Path(phifem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, phifem.cli; "
             "print(sorted(m for m in ('scipy.sparse.linalg', "
             "'scipy.special') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "['scipy.sparse.linalg']"
