"""Benchmark of the phifem study driver.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each pass over a workload runs in a fresh process (`worker.py`), the way
a user runs `phifem`: import, validate the RunConfigs, run the studies,
write their CSV.  Passes repeat while another one still fits in
`--seconds`.  Each worker gets one BLAS thread, so a neighbour that takes
a core of a shared box stalls no thread of ours at a barrier.  Before
anything is timed, a planted-case patch test must reproduce the exact
solution for k = 1, 2, 3; afterwards every CSV row is compared with the
rows recorded in `reference.json`.

End-to-end metrics (tracing off; medians over the passes):
  setup_s      interpreter start until phifem is imported and the
               workload's RunConfigs validate (median of >= 5 processes)
  study_s      wall time of all studies of the workload
  cpu_s        user + system CPU time of the process over the studies
  peak_rss_mb  peak resident set of the process
  failed_frac  failed studies over studies attempted; a study fails if it
               raises (or its worker dies), writes a row whose status is
               not ok, or fails the output check.  It is printed, and
               carried by `failed` and `attempted` in the JSON result
               rather than as a metric, because it is 0 on most
               workloads.

With `--trace 1` the first half of `--seconds` runs untraced passes and
the second half passes with spans recorded around every call one phifem
module makes into another (`spans.py`), and the per-layer table is
printed instead.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5
# A workload's passes stop being started, and a running worker is killed,
# this many seconds after the workload began, so a hung pass cannot push
# the run past three minutes.
WORKLOAD_DEADLINE_S = 150

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}

# Output check tolerances.  A value may differ from the recorded one by
# VALUE_RTOL of it, and an error norm by ERROR_ATOL more.  Solves stop at
# a relative residual of 1e-11, so the smallest error norms (about 1e-8,
# P3 on the finest disk level) carry an algebraic error that changes with
# the order of floating-point sums.  Across every workload and disk
# offset, one BLAS thread instead of two, and assembly with its triplets
# and ghost facets in reverse order, moved an error norm by at most
# 1e-12, or 5e-7 of its value, and kappa by 7e-13 of its value; a 1%
# change of the penalty moved every study far past these bounds.  An
# order is the log2 ratio of two errors, so its tolerance follows from
# theirs.  The conditioning slope is a least-squares fit of log(kappa),
# which kappa within VALUE_RTOL moves by less than SLOPE_ATOL.
PATCH_TOL = 1e-8
VALUE_RTOL = 1e-6
ERROR_ATOL = 1e-10
SLOPE_ATOL = 1e-5
_EXACT = ("n_cells", "dofs", "k", "l", "status")
_ORDERS = {"eoc_l2": "err_l2_rel", "eoc_h1": "err_h1_rel"}


# One thread: two BLAS threads on a 2-core box ran the workloads no
# faster, and their barriers wait on whichever core a neighbour holds.
BLAS_THREADS = 1


class WorkerFailed(Exception):
    """A worker exited non-zero, timed out or printed no result.

    `process` holds what the parent measured of the dead process: its
    wall and CPU time, and the largest peak resident set of any worker
    so far.
    """

    def __init__(self, message: str, process: dict):
        super().__init__(message)
        self.process = process


def _children_usage() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def spawn_worker(workload: str, seed: int, *extra: str,
                 timeout: float = WORKLOAD_DEADLINE_S) -> tuple[float, dict]:
    """Run worker.py once; returns (setup seconds, its JSON output)."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           *extra]
    cpu0, _ = _children_usage()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        problem = (None if proc.returncode == 0 else
                   f"exited with {proc.returncode}: "
                   f"{proc.stderr.strip()[-500:]}")
    except subprocess.TimeoutExpired:
        proc, problem = None, f"killed after {timeout:.0f} s"
    if problem is None:
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            return out["ready"] - started, out
        except (ValueError, IndexError, KeyError):
            problem = "printed no result"
    cpu1, peak_mb = _children_usage()
    raise WorkerFailed(f"worker {workload} seed {seed} {problem}",
                       {"study_s": time.monotonic() - started,
                        "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_mb})


def patch_test() -> list[str]:
    """Planted case: every degree must reproduce u = phi (1 + x + y)."""
    from phifem.cli import RunConfig, run_case

    problems = []
    for k in (1, 2, 3):
        row, = run_case(RunConfig(case="planted", k=k, n=7, levels=1))
        worst = max(row["err_l2_rel"], row["err_h1_rel"])
        if row["status"] != "ok" or not worst <= PATCH_TOL:
            problems.append(f"patch test k={k}: status {row['status']}, "
                            f"relative error {worst:.3e}")
    return problems


def _csv_rows(text: str) -> list[dict]:
    from phifem.cli import CSV_HEADER

    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    keys = CSV_HEADER.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def _tolerance(key: str, expected: float) -> float:
    atol = ERROR_ATOL if key.startswith("err_") else 0.0
    return VALUE_RTOL * abs(expected) + atol


def compare_csv(got: str, want: str) -> list[str]:
    """Differences between a study's CSV and the recorded one."""
    got_rows, want_rows = _csv_rows(got), _csv_rows(want)
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, recorded {len(want_rows)}"]
    problems = []
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        for key, expected in b.items():
            value = a[key]
            if key in _EXACT or "" in (value, expected):
                ok = value == expected
            else:
                diff = abs(float(value) - float(expected))
                if b["status"] == "slope":
                    tol = SLOPE_ATOL
                elif key in _ORDERS:
                    err = _ORDERS[key]
                    tol = sum(_tolerance(err, float(r[err])) / float(r[err])
                              for r in (want_rows[i - 1], b)) / math.log(2)
                else:
                    tol = _tolerance(key, float(expected))
                ok = diff <= tol
            if not ok:
                problems.append(f"row {i} {key}: {value!r}, recorded "
                                f"{expected!r}")
    return problems


def check_studies(workload: str, seed: int, passes: list[dict]):
    """Count failed studies and collect output-check mismatches.

    A study fails if it raises, writes a row whose status is not ok, or
    fails the output check.  Raising where the recorded run wrote rows,
    or raising another error than the recorded one, is a mismatch too.
    Returns (attempted, failed, mismatches, notes).
    """
    from workloads import offset_index

    reference = json.loads((HERE / "reference.json").read_text())
    recorded = reference[workload][str(offset_index(workload, seed))]
    attempted = failed = 0
    mismatches, notes = [], set()
    for out in passes:
        for i, (study, want) in enumerate(zip(out["studies"], recorded)):
            attempted += 1
            if study["error"] is not None:
                failed += 1
                if study["error"] == want["error"]:
                    notes.add(f"study {i} raised {study['error']}, as "
                              f"recorded")
                else:
                    mismatches.append(
                        f"study {i} raised {study['error']}; recorded: "
                        + (f"raised {want['error']}" if want["error"]
                           else "wrote its rows"))
                continue
            statuses = {row["status"] for row in _csv_rows(study["csv"])}
            bad = statuses - {"ok", "slope"}
            if want["csv"] is None:
                notes.add(f"study {i}: no recorded rows to check against "
                          f"(it raised {want['error']} when recorded)")
                diff = []
            else:
                diff = compare_csv(study["csv"], want["csv"])
            if bad or diff:
                failed += 1
            if bad:
                notes.add(f"study {i} wrote status {sorted(bad)}")
            mismatches += [f"study {i}: {d}" for d in diff]
    return attempted, failed, list(dict.fromkeys(mismatches)), sorted(notes)


def run_facts() -> dict:
    import numpy
    import scipy

    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30).stdout.split()
    except OSError:
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:
        commit = git[1]
    if commit is None:
        # not a git checkout: name the sources by their digest instead
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src" / "phifem").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        commit = "src sha256 " + digest.hexdigest()
    return {"commit": commit,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one workload run; returns metrics and check results.

    A worker that dies or hangs does not end the run: every study of its
    pass counts as failed, with the error `WorkerFailed`, and the passes
    go on.  Its figures are left out of the medians unless no worker
    lived to report; then they are what the parent measured of the dead
    processes.
    """
    from spans import LAYER_UNITS, check_nesting, layer_metrics, read_spans
    from workloads import WORKLOADS

    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    n_studies = len(WORKLOADS[workload][1])
    crashes: list[str] = []

    def run_pass(*extra: str) -> tuple[float | None, dict]:
        try:
            return spawn_worker(workload, seed, *extra,
                                timeout=deadline - time.monotonic())
        except WorkerFailed as err:
            crashes.append(str(err))
            dead = {"csv": None, "error": f"WorkerFailed: {err}",
                    "wall_s": None}
            return None, {"studies": [dead] * n_studies, "crashed": True,
                          "blas": [], **err.process}

    def repeat(run_once, budget: float) -> list:
        """Run passes while another one is expected to end in `budget`."""
        outs, start = [], time.monotonic()
        while True:
            outs.append(run_once(len(outs)))
            elapsed = time.monotonic() - start
            if (elapsed * (len(outs) + 1) / len(outs) > budget
                    or time.monotonic() > deadline):
                return outs

    started = time.monotonic()
    runs = repeat(lambda i: run_pass(), seconds / 2 if trace else seconds)
    setups = [setup for setup, _ in runs if setup is not None]
    passes = [out for _, out in runs]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        try:
            setups.append(spawn_worker(workload, seed, "--setup-only",
                                       timeout=deadline - time.monotonic())[0])
        except WorkerFailed as err:
            crashes.append(f"setup only: {err}")
            break
    timed = [p for p in passes if not p.get("crashed")] or passes
    if not setups:
        setups = [p["study_s"] for p in passes]

    result = {"workload": workload, "seed": seed, "passes": len(passes),
              "setup_samples": setups, "blas": timed[0]["blas"]}
    attempted, failed, mismatches, notes = check_studies(workload, seed,
                                                         passes)
    result["end_to_end"] = {
        "setup_s": statistics.median(setups),
        **{key: statistics.median([p[key] for p in timed])
           for key in ("study_s", "cpu_s", "peak_rss_mb")}}
    result["per_pass"] = {key: [p[key] for p in passes]
                          for key in ("study_s", "cpu_s", "peak_rss_mb")}
    if trace:
        def traced_pass(i: int) -> tuple[Path, dict]:
            path = OUT / f"trace-{workload}-seed{seed}-pass{i}.jsonl"
            path.unlink(missing_ok=True)
            return path, run_pass("--trace", str(path))[1]

        runs = repeat(traced_pass,
                      seconds - (time.monotonic() - started))
        traced = [out for _, out in runs]
        tables, problems, spans = [], [], []
        for i, (path, out) in enumerate(runs):
            if out.get("crashed"):
                continue
            spans = read_spans(path)
            walls = {j: study["wall_s"]
                     for j, study in enumerate(out["studies"])}
            problems += [f"pass {i}: {p}"
                         for p in check_nesting(spans, walls)]
            tables.append(layer_metrics(spans))
        if not tables:
            problems.append("no traced pass completed")
            tables.append(layer_metrics([]))
        more = check_studies(workload, seed, traced)
        attempted += more[0]
        failed += more[1]
        mismatches += more[2]
        layers = {}
        for name, unit in LAYER_UNITS.items():
            values = [t[name] for t in tables]
            if unit == "s":
                layers[name] = statistics.median(values)
                continue
            if unit == "count" and len(set(values)) > 1:
                problems.append(f"{name} differs between passes: {values}")
            layers[name] = values[0]
        traced_timed = [p for p in traced if not p.get("crashed")] or traced
        layers["trace.overhead_s"] = (
            statistics.median([t["study_s"] for t in traced_timed])
            - result["end_to_end"]["study_s"])
        result["per_layer"] = layers
        result["trace_problems"] = problems
        result["study_spans"] = _study_span_counts(spans)
    notes += [f"worker failed: {c}" for c in dict.fromkeys(crashes)]
    result.update(attempted=attempted, failed=failed, mismatches=mismatches,
                  notes=notes)
    return result


def _study_span_counts(spans: list[dict]) -> dict[int, dict[str, int]]:
    counts: dict[int, dict[str, int]] = {}
    for s in spans:
        per = counts.setdefault(s["study"], {})
        per[s["name"]] = per.get(s["name"], 0) + 1
    return counts


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, patch_problems: list[str]) -> bool:
    """Print one workload's results; returns whether outputs were correct."""
    from spans import LAYER_UNITS
    from workloads import WORKLOADS, disk_offset

    name = result["workload"]
    correct = not (patch_problems or result["mismatches"]
                   or result.get("trace_problems"))
    print(f"== {name}  seed {result['seed']}  offset "
          f"{disk_offset(name, result['seed'])}  passes {result['passes']}")
    print(f"   why: {WORKLOADS[name][0]}")
    for key, value in result["end_to_end"].items():
        print(f"   {key:<28} {_fmt(value):>14} {END_TO_END_UNITS[key]}")
    print(f"   {'failed_frac':<28} "
          f"{result['failed']}/{result['attempted']} studies")
    for key, value in result.get("per_layer", {}).items():
        print(f"   {key:<28} {_fmt(value):>14} {LAYER_UNITS[key]}")
    for study, counts in result.get("study_spans", {}).items():
        print(f"   spans of study {study}: "
              + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for line in (patch_problems + result["mismatches"]
                 + result.get("trace_problems", [])):
        print(f"   CHECK FAILED: {line}")
    for note in result["notes"]:
        print(f"   note: {note}")
    print(f"   output check: {'passed' if correct else 'FAILED'}")
    return correct


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "phifem" / "__init__.py").is_file():
        print(f"error: no phifem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    facts = run_facts()
    print("run facts: " + json.dumps(facts))
    patch_problems = patch_test()
    print("patch test: " + ("; ".join(patch_problems) or
                            f"k=1,2,3 reproduce u within {PATCH_TOL:g}"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        result["correct"] = report(result, patch_problems)
        results.append(result)
        with open(OUT / f"result-{name}-seed{args.seed}"
                        f"-trace{args.trace}.json", "w") as fh:
            json.dump({"facts": facts, **result}, fh, indent=1)
    print("blas: " + json.dumps(results[0]["blas"]))

    if len(results) == 1:
        result = results[0]
        if args.trace:
            from spans import LAYER_UNITS as units
            values = result["per_layer"]
        else:
            units, values = END_TO_END_UNITS, result["end_to_end"]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
