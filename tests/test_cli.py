"""Tests for the experiment driver: configs, CSV output and exit codes.

The polynomial case is cheap and exact, so whole studies run in well
under a second while still exercising assembly, solve and the error
pipeline end to end.
"""
import collections
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phifem
from phifem import analysis, assembly, cli, fem_core, levelset, linalg
from phifem.cli import (CSV_HEADER, RunConfig, conditioning_study, run_case,
                        sigma_sweep, write_csv)
from phifem.linalg import NoConvergenceError


def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    keys = CSV_HEADER.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def test_csv_header_is_frozen():
    assert CSV_HEADER == ("h,n_cells,dofs,k,l,sigma,err_l2_rel,err_h1_rel,"
                          "eoc_l2,eoc_h1,kappa,status")


def test_config_from_dict_round_trip():
    cfg = RunConfig.from_dict({"case": "planted", "k": 2, "n": 4,
                               "levels": 2})
    assert cfg.case == "planted"
    assert cfg.k == 2
    assert cfg.l is None and cfg.levelset_degree == 2
    assert cfg.tasks == ("errors",)
    assert cfg.resolved_box() == (0.0, 0.0, 1.0, 1.0)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"case": "circle", "mesh": 5})


@pytest.mark.parametrize("data", [
    {"case": "pentagon"},
    {"k": 4},
    {"k": 1, "l": 5},
    {"sigma": -1.0},
    {"sigma": float("inf")},
    {"n": 0},
    {"levels": 0},
    {"box": (0.0, 0.0, 0.0, 1.0)},
    {"tasks": ("errors", "plotting")},
    {"sigmas": ()},
    {"sigmas": (1.0, -2.0)},
    # an integer would be opened as a file descriptor
    {"out": 1},
    # nothing to run, or a null where a value is needed
    {"tasks": []},
    {"n": None},
    {"levels": None},
    {"tasks": None},
    # a list field given a scalar or a string
    {"box": 1},
    {"tasks": 5},
    {"sigmas": 2.0},
    {"tasks": "errors"},
    # an unhashable case or task
    {"case": []},
    {"case": "circle", "tasks": [["errors"]]},
])
def test_config_rejects_bad_values(data):
    with pytest.raises(ValueError):
        RunConfig.from_dict(data)


def test_polynomial_study_is_exact_on_every_level():
    rows = run_case(RunConfig(case="planted", k=1, n=4, levels=3))
    assert len(rows) == 3
    for i, row in enumerate(rows):
        assert row["status"] == "ok"
        assert row["n_cells"] == 4 * 2 ** i
        assert row["err_l2_rel"] <= 1e-9
        assert row["err_h1_rel"] <= 1e-9
    assert rows[0]["eoc_l2"] is None and rows[0]["eoc_h1"] is None
    assert rows[1]["h"] == pytest.approx(rows[0]["h"] / 2.0, rel=1e-12)


def test_sigma_sweep_groups_rows_by_penalty():
    cfg = RunConfig(case="planted", k=1, n=4, levels=1)
    rows = sigma_sweep(cfg, [1.0, 20.0])
    assert [row["sigma"] for row in rows] == [1.0, 20.0]
    for row in rows:
        assert row["err_l2_rel"] <= 1e-9
    with pytest.raises(ValueError):
        sigma_sweep(cfg, [])


def _csv(rows):
    out = io.StringIO()
    write_csv(rows, out)
    return out.getvalue()


@pytest.mark.parametrize("cfg", [
    RunConfig(case="circle", k=1, n=8, levels=2),
    # no closed form: each row is measured against hidden levels
    RunConfig(case="rectangle", k=1, n=4, levels=1)],
    ids=["circle", "rectangle"])
def test_sigma_sweep_writes_the_bytes_of_separate_runs(cfg):
    # a sweep shares each level's geometry and sigma-free parts; sigma = 0
    # inside a mixed sweep must still solve the unpenalized system
    sigmas = [0.0, 0.1, 20.0]
    separate = "".join(_csv(run_case(replace(cfg, sigma=s)))
                       .split("\n", 1)[1] for s in sigmas)
    assert _csv(sigma_sweep(cfg, sigmas)) == CSV_HEADER + "\n" + separate


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sigma_sweep_builds_each_level_once(monkeypatch):
    classified = _count_calls(monkeypatch, cli, "classify_domain")
    penalized = _count_calls(monkeypatch, assembly, "assemble_ghost_part")
    measured = _count_calls(monkeypatch, cli, "compute_errors")
    cfg = RunConfig(case="circle", k=1, n=8, levels=2)
    rows = sigma_sweep(cfg, [0.1, 1.0, 20.0])
    assert len(rows) == 6
    assert len(classified) == 2
    assert len(penalized) == 2
    assert len(measured) == 2
    assert all(row["err_l2_rel"] is not None for row in rows)

    classified.clear()
    penalized.clear()
    rows = sigma_sweep(cfg, [0.0, 0.0])
    assert len(rows) == 4
    assert len(classified) == 2
    assert penalized == []

    # without a closed form every row is measured against a finer level,
    # in one comparison per level for every strength
    measured.clear()
    compared = _count_calls(monkeypatch, cli, "compute_errors_vs_reference")
    rows = sigma_sweep(RunConfig(case="rectangle", k=1, n=4, levels=1),
                       [0.1, 1.0, 20.0])
    assert len(rows) == 3
    assert measured == []
    assert len(compared) == 1
    assert all(row["err_l2_rel"] is not None for row in rows)


@pytest.mark.parametrize("case,levels,held", [
    ("circle", 3, 0),       # measured as soon as solved
    ("rectangle", 2, 2)],   # the two levels a finer one is compared with
    ids=["circle", "rectangle"])
def test_no_level_keeps_its_solutions_past_their_use(monkeypatch, case,
                                                     levels, held):
    alive = []          # (n, weak reference) per solution made
    seen = []           # the levels alive when each level starts
    make, build = cli.make_solution, cli.build_background_mesh

    def recorded(system, x):
        solution = make(system, x)
        alive.append((system.dofmap.mesh.n_cells[0], weakref.ref(solution)))
        return solution

    def checked(box, n_cells):
        seen.append(sorted({n for n, ref in alive if ref() is not None}))
        return build(box, n_cells)

    monkeypatch.setattr(cli, "make_solution", recorded)
    monkeypatch.setattr(cli, "build_background_mesh", checked)
    rows = sigma_sweep(RunConfig(case=case, k=1, n=4, levels=levels),
                       [1.0, 20.0])
    assert all(row["err_l2_rel"] is not None for row in rows)
    sizes = [4 * 2 ** i for i in range(len(seen))]
    assert len(seen) == levels + (2 if held else 0)
    assert seen == [sizes[max(0, i - held):i] for i in range(len(seen))]
    assert len(alive) == 2 * len(seen)
    assert all(ref() is None for _, ref in alive)


def test_conditioning_study_returns_slope():
    rows, slope = conditioning_study(RunConfig(case="planted", k=1, n=4,
                                               levels=2))
    assert all(row["kappa"] > 0 for row in rows)
    assert all(row["err_l2_rel"] is None for row in rows)
    assert slope is not None
    # kappa grows as the mesh is refined, so the log-log slope is negative
    assert slope < 0


def test_conditioning_study_factors_each_level_once(monkeypatch):
    # kappa needs one factor per level; nothing reads a solution, so a
    # solve would only factor the same system a second time
    factored = _count_calls(monkeypatch, linalg.spla, "splu")
    rows, _ = conditioning_study(RunConfig(case="circle", k=1, n=8,
                                           levels=3))
    assert all(row["kappa"] > 0 for row in rows)
    assert len(factored) == len(rows) == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_point_set_is_tabulated_once(monkeypatch, k):
    # the tables of a fixed rule are built once, however many levels and
    # chunks a study runs: each (degree, point set) at most once, values,
    # gradients and Hessians together, and as often with half the point
    # budget of a chunk.  The rectangle has no closed form, so its study
    # also runs the reference comparison, whose fine points and tables
    # come from the nested map.  Every phifem module that binds `fem_core.tabulate` is
    # patched, so a new importer cannot escape the count.
    real = fem_core.tabulate
    modules = [phifem] + [
        importlib.import_module(f"phifem.{info.name}")
        for info in pkgutil.iter_modules(phifem.__path__)
        if not info.name.startswith("_")]
    importers = [m for m in modules if getattr(m, "tabulate", None) is real]
    assert {fem_core, analysis} <= set(importers)

    def tabulations(config, budget):
        for cached in (fem_core.rule_tables, fem_core.facet_tables,
                       levelset._sign_lattice, analysis._nested_map):
            cached.cache_clear()
        seen = collections.Counter()

        def counting(degree, points):
            seen[degree, np.asarray(points).tobytes()] += 1
            return real(degree, points)

        for module in importers:
            monkeypatch.setattr(module, "tabulate", counting)
        monkeypatch.setattr(fem_core, "_POINT_BUDGET", budget)
        rows = run_case(config)
        assert all(row["status"] == "ok" for row in rows)
        assert max(seen.values()) == 1
        return sum(seen.values())

    for config in (RunConfig(case="circle", k=k, n=8, levels=3),
                   RunConfig(case="rectangle", k=k, n=4, levels=2)):
        assert tabulations(config, 4096) == tabulations(config, 2048)


def test_conditioning_without_penalty_runs_every_level():
    # the unpenalized system is the hardest one for the estimator's
    # solves, and its kappa is largest at the finest level (10,429
    # unknowns)
    rows, slope = conditioning_study(RunConfig(case="circle", k=1, n=10,
                                               levels=5, sigma=0.0))
    assert len(rows) == 5
    for row in rows:
        assert row["status"] == "ok"
        assert row["kappa"] > 0
    assert slope is not None
    assert cli.main(["conditioning", "--case", "circle", "--n", "10",
                     "--levels", "5", "--sigma", "0"]) == 0


def test_write_csv_formats_blanks_and_floats(tmp_path):
    row = {key: None for key in CSV_HEADER.split(",")}
    row.update({"h": 0.1, "n_cells": 4, "dofs": 30, "k": 1, "l": 1,
                "sigma": 20.0, "status": "ok"})
    out = tmp_path / "table.csv"
    with open(out, "w") as fh:
        write_csv([row], fh, slope=-1.5)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.1,4,30,1,1,20.0,,,,,,ok"
    assert lines[2] == ",,,,,,,,,,-1.5,slope"


def test_main_writes_csv_to_stdout(capsys):
    code = cli.main(["run", "--case", "planted", "--n", "4",
                     "--levels", "1"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_main_output_is_reproducible(tmp_path):
    # the second path holds a longer file, which the run replaces whole
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    second.write_text("stale\n" * 1000)
    args = ["run", "--case", "planted", "--n", "4", "--levels", "2"]
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("args", [
    ["run", "--case", "rectangle", "--k", "2", "--n", "20", "--levels", "2"],
    ["run", "--case", "circle", "--k", "3", "--n", "10", "--levels", "4"],
], ids=["rectangle-k2", "circle-k3"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, args):
    # The same study in fresh processes under one and two OpenBLAS
    # threads writes the same bytes: no contraction whose summation order
    # follows the thread count may reach the CSV.
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "phifem", *args,
                        "--out", str(out)], env=env, check=True,
                       capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_main_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"case": "planted", "k": 2, "n": 4,
                                    "levels": 1}))
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--config", str(cfg_file), "--k", "1",
                     "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert rows[0]["k"] == "1"


def test_main_conditioning_appends_slope_row(tmp_path):
    out = tmp_path / "kappa.csv"
    code = cli.main(["conditioning", "--case", "planted", "--n", "4",
                     "--levels", "2", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    assert rows[-1]["status"] == "slope"
    assert float(rows[-1]["kappa"]) < 0
    for row in rows[:-1]:
        assert float(row["kappa"]) > 0
        assert row["err_l2_rel"] == ""


def test_main_rejects_bad_configuration(tmp_path, capsys):
    assert cli.main(["run", "--case", "planted", "--k", "9"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"case": "planted", "unknown_key": 1}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(not_object)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    '{"box": [0, 0, Infinity, 1]}',
    '{"box": [0, 0, NaN, 1]}',
    '{"n": 4.5}',
    '{"k": 2.0}',
    '{"l": 2.0}',
    '{"sigma": true}',
    '{"levels": true}',
], ids=["box-inf", "box-nan", "n-float", "k-float", "l-float", "sigma-bool",
        "levels-bool"])
def test_main_rejects_mistyped_config_values(tmp_path, capsys, text):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    code = cli.main(["run", "--config", str(cfg_file), "--case", "planted",
                     "--out", str(tmp_path / "run.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run.csv").exists()


def test_main_reports_empty_active_set(tmp_path, capsys):
    # the study has no rows, so --out is written to neither way: a new
    # path stays absent, and an existing file keeps its bytes
    cfg_file = tmp_path / "empty.json"
    cfg_file.write_text(json.dumps({"case": "circle", "n": 4, "levels": 1,
                                    "box": [2.0, 2.0, 3.0, 3.0]}))
    old = tmp_path / "old.csv"
    old.write_bytes(b"h,n_cells\r\n0.5,4\n")
    for out in (None, tmp_path / "new.csv", old):
        argv = ["run", "--config", str(cfg_file)]
        code = cli.main(argv + ([] if out is None else ["--out", str(out)]))
        captured = capsys.readouterr()
        assert code == 2
        assert "EmptyActiveSet" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "new.csv").exists()
    assert old.read_bytes() == b"h,n_cells\r\n0.5,4\n"


@pytest.mark.parametrize("command", ["run", "sigma-sweep", "conditioning"])
def test_main_reports_a_level_too_large_to_allocate(tmp_path, capsys,
                                                    monkeypatch, command):
    # a mesh that cannot be allocated ends the study with one stderr line
    # and exit 2, the configuration-problem contract: --out is written to
    # neither way.  The mesh builder raises; nothing is allocated.
    def too_large(box, n_cells):
        raise MemoryError(f"Unable to allocate the {n_cells} mesh")

    monkeypatch.setattr(cli, "build_background_mesh", too_large)
    old = tmp_path / "old.csv"
    old.write_bytes(b"h,n_cells\r\n0.5,4\n")
    argv = [command, "--n", "100000000", "--levels", "1"]
    if command == "sigma-sweep":
        argv += ["--sigmas", "1,20"]
    for out in (None, tmp_path / "new.csv", old):
        code = cli.main(argv + ([] if out is None else ["--out", str(out)]))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: out-of-memory: Unable to allocate "
                                "the (100000000, 100000000) mesh\n")
        assert captured.out == ""
    assert not (tmp_path / "new.csv").exists()
    assert old.read_bytes() == b"h,n_cells\r\n0.5,4\n"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_main_rejects_unwritable_out_before_any_level(tmp_path, capsys,
                                                      monkeypatch, where):
    # the path is opened before the study runs, so a bad one exits 2 at
    # once instead of after the whole study
    def no_study(config):
        raise AssertionError("the study ran despite an unwritable --out")

    monkeypatch.setattr(cli, "run_case", no_study)
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" \
        else tmp_path
    code = cli.main(["run", "--case", "circle", "--k", "1", "--n", "4",
                     "--levels", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_main_sigma_sweep_requires_sigmas(capsys):
    code = cli.main(["sigma-sweep", "--case", "planted", "--n", "4",
                     "--levels", "1"])
    assert code == 2
    capsys.readouterr()


def _out_of_memory(a, **options):
    # what SuperLU raises when its factors do not fit in memory
    raise MemoryError


def test_main_flags_failed_solves(tmp_path, capsys, monkeypatch):
    def stalled_solve(system):
        raise NoConvergenceError("stalled", best=None)

    for target, name, broken, status in (
            (cli, "solve", stalled_solve, "no-convergence"),
            (linalg.spla, "splu", _out_of_memory, "out-of-memory")):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, broken)
            out = tmp_path / f"{status}.csv"
            code = cli.main(["run", "--case", "planted", "--n", "4",
                             "--levels", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert status in captured.err
        rows = _read_rows(out)
        assert rows[0]["status"] == status
        assert rows[0]["err_l2_rel"] == ""


@pytest.mark.parametrize("status", ["no-convergence", "out-of-memory"])
def test_main_flags_failed_condition_estimates(tmp_path, capsys, monkeypatch,
                                               status):
    # a capped Lanczos keeps its partial estimate in the row; factors that
    # do not fit in memory leave kappa blank
    if status == "no-convergence":
        monkeypatch.setattr(linalg, "_LANCZOS_TOL", 1e-14)
        monkeypatch.setattr(linalg, "_LANCZOS_RESTARTS", 1)
    else:
        monkeypatch.setattr(linalg.spla, "splu", _out_of_memory)
    real_estimate = cli.estimate_condition_number
    partial = []

    def recorded(system):
        try:
            return real_estimate(system)
        except NoConvergenceError as err:
            partial.append(err.best.kappa)
            raise

    monkeypatch.setattr(cli, "estimate_condition_number", recorded)
    out = tmp_path / "kappa.csv"
    code = cli.main(["conditioning", "--case", "circle", "--n", "20",
                     "--levels", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert status in captured.err
    rows = _read_rows(out)
    assert len(rows) == 1           # no slope row without a converged kappa
    assert rows[0]["status"] == status
    if status == "no-convergence":
        kappa, = partial
        assert kappa > 1.0 and rows[0]["kappa"] == repr(kappa)
    else:
        assert not partial and rows[0]["kappa"] == ""


def test_main_flags_failed_hidden_reference(tmp_path, capsys, monkeypatch):
    # the rectangle has no closed form, so its n=4 row is measured against
    # hidden levels n=8 and n=16; a stall on the n=16 reference must show
    real_solve = cli.solve
    sizes = []

    def stalled_reference(system):
        report = real_solve(system)
        sizes.append(system.n_dofs)
        if len(sizes) == 3:
            raise NoConvergenceError("stalled", best=report.x,
                                     residual=2e-11, iterations=600)
        return report

    monkeypatch.setattr(cli, "solve", stalled_reference)
    out = tmp_path / "reference.csv"
    code = cli.main(["run", "--case", "rectangle", "--n", "4", "--levels",
                     "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert sizes == sorted(sizes) and len(sizes) == 3
    assert code == 3
    assert "no-convergence" in captured.err
    rows = _read_rows(out)
    assert len(rows) == 1
    assert rows[0]["status"] == "no-convergence"
    # errors still come from the best iterate of the reference
    assert float(rows[0]["err_l2_rel"]) > 0


@pytest.mark.parametrize("command,n_sigmas", [
    (["run"], 1), (["sigma-sweep", "--sigmas", "1,20"], 2)],
    ids=["run", "sigma-sweep"])
def test_main_flags_level_with_nothing_to_compare(tmp_path, capsys, command,
                                                  n_sigmas):
    # the rectangle's n=2 level has no uncut triangle to measure against
    # its reference; n=4 and n=8 have, and must still be measured
    out = tmp_path / "rows.csv"
    code = cli.main(command + ["--case", "rectangle", "--k", "1", "--n", "2",
                               "--levels", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "no-comparison" in captured.err
    rows = _read_rows(out)
    assert len(rows) == 3 * n_sigmas
    for first, *rest in (rows[i:i + 3] for i in range(0, len(rows), 3)):
        assert first["n_cells"] == "2"
        assert first["status"] == "no-comparison"
        assert first["err_l2_rel"] == first["err_h1_rel"] == ""
        for row in rest:
            assert row["status"] == "ok"
            assert float(row["err_l2_rel"]) > 0
            assert float(row["err_h1_rel"]) > 0
        assert rest[-1]["eoc_l2"] != ""
