"""The benchmark's workloads and the seeded geometry they run on.

Each workload is a list of studies, one public `phifem.cli` entry point
call each, run the way `phifem run`, `phifem sigma-sweep` and
`phifem conditioning` run them.  The disk workloads run on a translated
copy of the built-in `circle` case, registered under `DISK_CASE`; the
seed picks the translation.  Seed 0 is the built-in geometry.
"""
from __future__ import annotations

import numpy as np

DISK_CASE = "bench-disk"

#: Number of distinct disk translations.  Seed 0 is the zero shift; any
#: other seed maps to one of the other entries, so that every seed has
#: rows recorded in reference.json to check against.
N_OFFSETS = 16

# Offsets as fractions of the workload's coarsest cell.  Each component
# stays within 0.4 of a cell, so the shift is shorter than the coarsest
# cell and the disk stays clear of the box boundary at every level.
_OFFSET_TABLE = np.random.default_rng(1903_03703).uniform(
    -0.4, 0.4, size=(N_OFFSETS, 2))
_OFFSET_TABLE[0] = 0.0

_DISK_SWEEP = (1e-4, 0.1, 1.0, 10.0, 100.0)

# name -> (why, studies); a study is (entry point, RunConfig fields).
WORKLOADS: dict[str, tuple[str, list[tuple[str, dict]]]] = {
    "disk-convergence": (
        "the paper's headline disk study with P1, P2 and P3 on both sides "
        "of DENSE_LIMIT; assembly and closed-form error norms dominate",
        [("run_case", dict(case=DISK_CASE, k=1, n=10, levels=5)),
         ("run_case", dict(case=DISK_CASE, k=2, n=10, levels=4)),
         ("run_case", dict(case=DISK_CASE, k=3, n=10, levels=4))]),
    "rectangle-reference": (
        "no closed form, so two hidden reference levels up to 208k unknowns "
        "stress ILU-GMRES, volume assembly, dof maps and memory",
        [("run_case", dict(case="rectangle", k=2, n=20, levels=3))]),
    "penalty-sweep": (
        "five identical 4,169-unknown disk systems that differ only in "
        "sigma: dense LU and ghost facets, and the only shared work",
        [("sigma_sweep", dict(case=DISK_CASE, k=1, n=100, levels=1,
                              sigmas=_DISK_SWEEP))]),
    "disk-conditioning": (
        "the only workload that runs the condition estimator, on its dense "
        "and its ILU path, with and without the penalty",
        [("conditioning_study", dict(case=DISK_CASE, k=1, n=10, levels=5,
                                     sigma=20.0, tasks=("conditioning",))),
         ("conditioning_study", dict(case=DISK_CASE, k=1, n=10, levels=5,
                                     sigma=0.0, tasks=("conditioning",)))]),
}


def offset_index(workload: str, seed: int) -> int:
    """Row of the offset table a seed selects; the rectangle ignores it.

    The rectangle's box must be its exact bounding box, so it cannot move.
    """
    if seed == 0 or not uses_disk(workload):
        return 0
    return 1 + (seed - 1) % (N_OFFSETS - 1)


def uses_disk(workload: str) -> bool:
    return any(cfg["case"] == DISK_CASE for _, cfg in WORKLOADS[workload][1])


def disk_offset(workload: str, seed: int) -> tuple[float, float]:
    """Translation of the disk: a fraction of the coarsest cell (unit box)."""
    coarsest = 1.0 / min(cfg["n"] for _, cfg in WORKLOADS[workload][1])
    dx, dy = _OFFSET_TABLE[offset_index(workload, seed)] * coarsest
    return float(dx), float(dy)


def _shifted(field, dx: float, dy: float):
    from phifem.levelset import AnalyticField

    if field is None:
        return None
    gradient = None
    if field.gradient is not None:
        def gradient(x, y):
            return field.gradient(x - dx, y - dy)
    return AnalyticField(value=lambda x, y: field.value(x - dx, y - dy),
                         gradient=gradient)


def register_disk(workload: str, seed: int) -> None:
    """Register the seeded disk under DISK_CASE, built from `circle`."""
    from phifem.cases import CASES, Case

    base = CASES["circle"]
    dx, dy = disk_offset(workload, seed)
    CASES[DISK_CASE] = Case(name=DISK_CASE, box=base.box,
                            phi=_shifted(base.phi, dx, dy),
                            f=_shifted(base.f, dx, dy),
                            u_exact=_shifted(base.u_exact, dx, dy),
                            outer_data=_shifted(base.outer_data, dx, dy))


def study_configs(workload: str, seed: int):
    """Register the workload's geometry and return validated RunConfigs."""
    from phifem.cli import RunConfig

    if uses_disk(workload):
        register_disk(workload, seed)
    return [(entry, RunConfig.from_dict(dict(cfg)))
            for entry, cfg in WORKLOADS[workload][1]]

