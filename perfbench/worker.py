"""One fresh process running one pass over a workload's studies.

    python3 perfbench/worker.py WORKLOAD SEED [--trace FILE] [--setup-only]

The process imports phifem from the checkout's `src/`, registers the
seeded geometry and validates the workload's RunConfigs; the moment that
is done is reported as `ready` (a `time.monotonic` reading, which the
parent compares with the moment it started the process).  It then runs
every study through its public `phifem.cli` entry point and `write_csv`,
and prints one JSON line: each study's CSV or error, the wall time of the
studies, the process's CPU time over them and its peak resident set.
A study that raises is reported and the next one still runs.
"""
from __future__ import annotations

import argparse
import ctypes
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


_BLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_")
_BLAS_CONFIG = ("openblas_get_config", "openblas_get_config64_",
                "scipy_openblas_get_config", "scipy_openblas_get_config64_")


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_facts() -> list[dict]:
    """The OpenBLAS builds loaded in this process and their thread counts."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _first_symbol(lib, _BLAS_CONFIG, ctypes.c_char_p)
        facts.append({"library": Path(path).name,
                      "threads": _first_symbol(lib, _BLAS_THREADS,
                                               ctypes.c_int),
                      "config": config.decode() if config else None})
    return facts


def _call(entry: str, config):
    from phifem import cli

    if entry == "run_case":
        return cli.run_case(config), None
    if entry == "sigma_sweep":
        return cli.sigma_sweep(config, list(config.sigmas)), None
    return cli.conditioning_study(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import phifem
    from phifem.cli import write_csv
    from workloads import study_configs

    if Path(phifem.__file__).resolve().parent != ROOT / "src" / "phifem":
        print(f"error: imported phifem from {phifem.__file__}",
              file=sys.stderr)
        return 2
    studies = study_configs(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for index, (entry, config) in enumerate(studies):
        buf = io.StringIO()
        start = time.perf_counter()

        def study():
            rows, slope = _call(entry, config)
            write_csv(rows, buf, slope)

        error = None
        try:
            if tracer is None:
                study()
            else:
                tracer.run_study(index, study)
        except Exception as err:   # counted as a failed study; go on
            error = f"{type(err).__name__}: {err}"
        results.append({"csv": None if error else buf.getvalue(),
                        "error": error,
                        "wall_s": time.perf_counter() - start})
    study_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(args.trace)
    print(json.dumps({"ready": ready, "studies": results, "study_s": study_s,
                      "cpu_s": cpu_s, "peak_rss_mb": peak_kib / 1024.0,
                      "blas": blas_facts()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
