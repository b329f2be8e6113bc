"""Command-line experiment driver.

Subcommands
-----------
run
    Convergence study on refined meshes, errors and optionally condition
    numbers per level.
sigma-sweep
    The same study repeated for several penalty strengths.  Each level's
    mesh, level set, classification and sigma-free system parts are
    built once and shared by every strength: A = A0 + sigma G.  Its
    closed-form errors are taken once for every strength.
conditioning
    Condition number per level plus a least-squares slope of
    log(kappa) against log(h).

All commands emit one CSV with a fixed header; numbers are written with
repr so that two runs of the same configuration produce byte-identical
files.  Exit code 0 means success, 2 a configuration problem (an `--out`
path that cannot be opened included; it is opened before any level
runs), 3 at least one failed solve (failed rows still appear, flagged
in `status`: a singular matrix, no convergence, or factors that ran out
of memory) or a level with nothing to compare with its reference
(`no-comparison`: no uncut coarse triangle where the reference is
defined; its errors stay blank).
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (ErrorReport, VanishingNormError, compute_errors,
                       compute_errors_vs_reference, estimated_orders,
                       make_solution)
# assemble_system is not called here, but perfbench/spans.py wraps it
# under this module's name, so the name stays importable from it
# (tests/test_tooling.py checks every name the tracer binds)
from .assembly import assemble_parts, assemble_system  # noqa: F401
from .cases import CASES, get_case
from .fem_core import _DEGREES
from .levelset import EmptyActiveSetError, classify_domain, \
    interpolate_levelset
from .linalg import (NoConvergenceError, SingularMatrixError,
                     estimate_condition_number, solve)
from .mesh import build_background_mesh

__all__ = ["RunConfig", "run_case", "sigma_sweep", "conditioning_study",
           "write_csv", "main"]

CSV_HEADER = ("h,n_cells,dofs,k,l,sigma,err_l2_rel,err_h1_rel,"
              "eoc_l2,eoc_h1,kappa,status")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one experiment, checked when it is built
    (`dataclasses.replace` included): a bad value raises ValueError."""

    case: str = "circle"
    k: int = 1
    l: int | None = None
    sigma: float = 20.0
    n: int = 10
    levels: int = 3
    box: tuple[float, float, float, float] | None = None
    tasks: tuple[str, ...] = ("errors",)
    out: str | None = None
    sigmas: tuple[float, ...] | None = None

    @property
    def levelset_degree(self) -> int:
        return self.k if self.l is None else self.l

    def resolved_box(self) -> tuple[float, float, float, float]:
        return get_case(self.case).box if self.box is None else self.box

    def __post_init__(self) -> None:
        # a string first: a list would fail the lookups below on hashing
        if not isinstance(self.case, str) or self.case not in CASES:
            raise ValueError(
                f"unknown case {self.case!r}; choose from {sorted(CASES)}")
        # a list is a non-empty tuple here; only tasks may not be None
        for name in ("box", "tasks", "sigmas"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and value
                    or value is None and name != "tasks"):
                raise ValueError(
                    f"{name} must be a non-empty list, got {value!r}")
        # l alone may be None: it then follows k
        for name in ("k", "n", "levels") + (() if self.l is None else ("l",)):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for value in (self.sigma, *(self.sigmas or ()), *(self.box or ())):
            if not _is_number(value, numbers.Real) or not np.isfinite(value):
                raise ValueError(f"sigma values and box coordinates must be "
                                 f"finite numbers, got {value!r}")
        for name, value in (("k", self.k), ("l", self.levelset_degree)):
            if value not in _DEGREES:
                raise ValueError(f"{name} must be in {_DEGREES}, got {value}")
        for sigma in (self.sigma, *(self.sigmas or ())):
            if sigma < 0.0:
                raise ValueError(f"sigma values must be >= 0, got {sigma}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.box is not None:
            if len(self.box) != 4 or self.box[2] <= self.box[0] \
                    or self.box[3] <= self.box[1]:
                raise ValueError(f"degenerate box {self.box!r}")
        if not isinstance(self.out, (str, os.PathLike, type(None))):
            raise ValueError(f"out must be a file path, got {self.out!r}")
        bad = [task for task in self.tasks if not isinstance(task, str)
               or task not in ("errors", "conditioning")]
        if bad:
            raise ValueError(f"unknown tasks {bad}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        data = dict(data)
        for key in ("box", "tasks", "sigmas"):
            if isinstance(data.get(key), (list, tuple)):
                data[key] = tuple(data[key])
        return cls(**data)


def _is_number(value, kind) -> bool:
    """True for a number of the given `numbers` kind; a bool is none."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _attempt(call, row: dict):
    """Return `call()`; a failed linalg call sets the row's status instead.

    NoConvergenceError reads `no-convergence` and returns the error's
    `best` (its last iterate or partial estimate, possibly None);
    SingularMatrixError reads `singular` and MemoryError `out-of-memory`,
    and both return None.
    """
    try:
        return call()
    except NoConvergenceError as err:
        row["status"] = "no-convergence"
        return err.best
    except SingularMatrixError:
        row["status"] = "singular"
    except MemoryError:
        row["status"] = "out-of-memory"
    return None


def _solve_level(config: RunConfig, n: int, sigmas: list[float],
                 reported: bool):
    """Build and solve one level for every penalty strength.

    The mesh, level set, classification and sigma-free parts are built
    once; then each strength gets its system, its row, its solve (only
    when errors are asked for: nothing else reads a solution) and, on a
    reported level, its kappa, so no system outlives its own solve.  A
    failed solve keeps its best iterate, if any, and a failed estimate
    its partial kappa.  Measures no errors: returns the domain and one
    (row, solution) per strength, the solution None when there is none.
    """
    case = get_case(config.case)
    mesh = build_background_mesh(config.resolved_box(), (n, n))
    field = interpolate_levelset(case.phi, mesh, config.levelset_degree)
    domain = classify_domain(field)
    parts = assemble_parts(domain, field, case.f, config.k, sigmas,
                           outer_data=case.outer_data)
    results = []
    for j, sigma in enumerate(sigmas):
        system = parts.system(sigma)
        if j == len(sigmas) - 1:
            del parts   # free A0 and G before the last solve
        row = dict.fromkeys(CSV_HEADER.split(","))
        row.update(h=mesh.h, n_cells=n, dofs=system.n_dofs, k=config.k,
                   l=config.levelset_degree, sigma=sigma, status="ok")
        x = (_attempt(lambda: solve(system).x, row)
             if "errors" in config.tasks else None)
        if reported and "conditioning" in config.tasks:
            estimate = _attempt(lambda: estimate_condition_number(system),
                                row)
            row["kappa"] = None if estimate is None else estimate.kappa
        results.append(
            (row, None if x is None else make_solution(system, field, x)))
        del system      # the error norms need only the solution
    return domain, results


def _measure(pairs: list, errors) -> None:
    """Set the errors of every row in `pairs`, one (row, solution) per
    strength, that has a solution; the only writer of the error columns.

    `errors(solutions)` is called once, over every solution in order, and
    returns one ErrorReport per solution; nothing is called without one.
    """
    solved = [(row, s) for row, s in pairs if s is not None]
    if solved:
        reports = errors([s for _, s in solved])
        for (row, _), report in zip(solved, reports):
            row["err_l2_rel"] = report.rel_l2
            row["err_h1_rel"] = report.rel_h1_semi


def _fill_orders(rows: list[dict]) -> None:
    """Derive order columns from consecutive rows with errors present."""
    for prev, cur in zip(rows, rows[1:]):
        # _measure sets both errors of a row or neither
        if prev["err_l2_rel"] is None or cur["err_l2_rel"] is None:
            continue
        reports = [ErrorReport(h=r["h"], n_dofs=r["dofs"],
                               rel_l2=r["err_l2_rel"],
                               rel_h1_semi=r["err_h1_rel"])
                   for r in (prev, cur)]
        (cur["eoc_l2"], cur["eoc_h1"]), = estimated_orders(reports)


def _compare(coarse: list, domain, fine: list) -> None:
    """Errors of one level's rows against the same strengths two levels
    finer; `coarse` and `fine` hold one (row, solution) per strength.

    The hidden reference level's failure is its row's too.  Every
    strength whose level and reference both have a solution is measured
    by `_measure`, in one pass.  A level with nothing to compare (no
    uncut triangle where the reference is defined) keeps blank errors,
    and its rows that are still `ok` read `no-comparison`.
    """
    for (row, _), (ref_row, _) in zip(coarse, fine):
        if row["status"] == "ok":
            row["status"] = ref_row["status"]
    pairs = [(row, None if ref is None else sol)
             for (row, sol), (_, ref) in zip(coarse, fine)]
    references = [ref for (_, sol), (_, ref) in zip(coarse, fine)
                  if sol is not None and ref is not None]
    try:
        _measure(pairs, lambda solutions: compute_errors_vs_reference(
            solutions, references, domain))
    except VanishingNormError:
        for row, _ in coarse:
            if row["status"] == "ok":
                row["status"] = "no-comparison"


def _run_study(config: RunConfig, sigmas: list[float]) -> list[dict]:
    """All refinement levels for each penalty strength; rows grouped by
    sigma, in the order of `sigmas`.

    A level with a closed-form solution is measured by `_measure` as
    soon as it is solved, and its solutions are dropped before the next
    level is built.  Without a closed form, two more levels are solved,
    and each level is compared with the level two coarser as soon as it
    is solved, so at most three levels of solutions are held at a time.
    """
    case = get_case(config.case)
    compare = "errors" in config.tasks and case.u_exact is None
    rows: list[list[dict]] = [[] for _ in sigmas]
    window = collections.deque(maxlen=2)    # (results, domain) per level
    for i in range(config.levels + (2 if compare else 0)):
        reported = i < config.levels
        domain, results = _solve_level(config, config.n * 2 ** i, sigmas,
                                       reported)
        if compare:
            if len(window) == 2:
                _compare(*window[0], results)
            window.append((results, domain))
        elif "errors" in config.tasks:
            _measure(results, lambda solutions: compute_errors(
                solutions, case.u_exact, domain))
        if reported:
            # a loop over the pairs would keep the last solution alive
            for by_sigma, row in zip(rows, [row for row, _ in results]):
                by_sigma.append(row)
        del results     # only the window keeps a level's solutions
    for by_sigma in rows:
        _fill_orders(by_sigma)
    return [row for by_sigma in rows for row in by_sigma]


def run_case(config: RunConfig) -> list[dict]:
    """Convergence study for one case; one row per refinement level.

    For cases without a closed-form solution, each level is compared with
    the same discretization two levels finer; the reference levels are
    solved internally and not reported, but a failed reference solve
    sets the status of the row it feeds.
    """
    return _run_study(config, [config.sigma])


def sigma_sweep(config: RunConfig, sigmas: list[float]) -> list[dict]:
    """Repeat the study for each penalty strength; rows grouped by sigma.

    Every level is built once and solved for all strengths.
    """
    config = dataclasses.replace(config,
                                 sigmas=tuple(float(s) for s in sigmas))
    return _run_study(config, list(config.sigmas))


def conditioning_study(config: RunConfig) -> tuple[list[dict], float | None]:
    """Condition number per level and the log-log slope against h.

    Returns (rows, slope); the slope is fitted by least squares over the
    levels whose estimate converged, and is None when fewer than two did.
    """
    cfg = dataclasses.replace(config, tasks=("conditioning",))
    rows = _run_study(cfg, [cfg.sigma])
    pts = [(row["h"], row["kappa"]) for row in rows
           if row["kappa"] is not None and row["status"] == "ok"]
    slope = None
    if len(pts) >= 2:
        hs = np.log([p[0] for p in pts])
        ks = np.log([p[1] for p in pts])
        slope = float(np.polyfit(hs, ks, 1)[0])
    return rows, slope


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value)) if isinstance(value, np.integer) else str(value)


def write_csv(rows: list[dict], stream, slope: float | None = None) -> None:
    """Write rows under the fixed header; optional slope summary row."""
    stream.write(CSV_HEADER + "\n")
    keys = CSV_HEADER.split(",")
    for row in rows:
        stream.write(",".join(_fmt(row[key]) for key in keys) + "\n")
    if slope is not None:
        summary = {key: None for key in keys}
        summary["kappa"] = slope
        summary["status"] = "slope"
        stream.write(",".join(_fmt(summary[key]) for key in keys) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phifem",
        description="Fictitious-domain Poisson experiments on level-set "
                    "geometries.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "convergence study"),
            ("sigma-sweep", "study repeated over penalty strengths"),
            ("conditioning", "condition numbers per level")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--case", choices=sorted(CASES), default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="JSON file with RunConfig fields; flags override")
        if name == "sigma-sweep":
            p.add_argument("--sigmas", default=None,
                           help="comma-separated penalty strengths")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        data.update(loaded)
    for key in ("case", "k", "l", "sigma", "n", "levels", "out"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    if getattr(args, "sigmas", None) is not None:
        data["sigmas"] = [float(s) for s in args.sigmas.split(",")]
    return RunConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "sigma-sweep" and config.sigmas is None:
            raise ValueError("sigma-sweep needs --sigmas or a `sigmas` "
                             "config entry")
        # opened before any level runs, so an unwritable path costs no work
        out = (contextlib.nullcontext(sys.stdout) if config.out is None
               else open(config.out, "w", newline=""))
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    slope = None
    with out as stream:
        try:
            if args.command == "run":
                rows = run_case(config)
            elif args.command == "sigma-sweep":
                rows = sigma_sweep(config, list(config.sigmas))
            else:
                rows, slope = conditioning_study(config)
        except EmptyActiveSetError as err:
            print(f"error: EmptyActiveSet: {err}", file=sys.stderr)
            return 2
        write_csv(rows, stream, slope)

    failed = sorted({row["status"] for row in rows} - {"ok"})
    if failed:
        print(f"error: {len([r for r in rows if r['status'] != 'ok'])} "
              f"level(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
