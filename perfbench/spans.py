"""Spans around the calls one phifem module makes into another.

`Tracer.install` rebinds, in the benchmark process only, the names that
each module imported from another (`phifem.cli.solve`,
`phifem.assembly.ghost_jump_kernel`, ...) to wrappers that record a span:
name, start, end, parent span and study id, plus the sizes the wrapper
can read off the arguments and the result.  Spans stay in memory and are
written as JSON lines when the run ends; `layer_metrics` derives the
per-layer table from such a file.  Nothing under `src/` is touched.
"""
from __future__ import annotations

import functools
import importlib
import json
import time


def _mesh_sizes(args, result, err):
    return {} if err else {"triangles": result.n_triangles}


def _classify_sizes(args, result, err):
    if err:
        return {}
    return {"cut_triangles": int(result.cut_triangles.size),
            "ghost_facets": int(result.ghost_facets.size),
            "boundary_facets": int(result.boundary_facets.size)}


def _system_sizes(args, result, err):
    return {} if err else {"dofs": result.n_dofs, "nnz": int(result.A.nnz)}


def _solve_sizes(args, result, err):
    from phifem import linalg

    if err is None:
        return {"method": result.method, "iters": result.iterations,
                "residual": float(result.residual)}
    # a failed solve has no report; the size decides the path it took
    dense = args[0].n_dofs <= getattr(linalg, "DENSE_LIMIT", float("inf"))
    residual = getattr(err, "residual", None)
    return {"method": "dense-lu" if dense else "ilu-gmres", "failed": 1,
            "iters": getattr(err, "iterations", None) or 0,
            "residual": None if residual is None else float(residual)}


def _condition_sizes(args, result, err):
    from phifem.linalg import ConditionEstimate

    est = result if err is None else getattr(err, "best", None)
    iters = sum(est.iterations) if isinstance(est, ConditionEstimate) else 0
    return {"power_iters": iters, **({"failed": 1} if err else {})}


# (module, attribute, span name, sizes(args, result, error) -> dict)
BINDINGS = (
    ("phifem.cli", "build_background_mesh", "mesh.build", _mesh_sizes),
    ("phifem.levelset", "build_dof_map", "fem_core.dofmap", None),
    ("phifem.assembly", "build_dof_map", "fem_core.dofmap", None),
    ("phifem.cli", "interpolate_levelset", "levelset.interpolate", None),
    ("phifem.cli", "classify_domain", "levelset.classify", _classify_sizes),
    ("phifem.cli", "assemble_system", "assembly.volume", _system_sizes),
    ("phifem.assembly", "boundary_term_kernel", "assembly.boundary", None),
    ("phifem.assembly", "ghost_jump_kernel", "assembly.ghost_facet", None),
    ("phifem.assembly", "assemble_ghost_part", "assembly.cut_laplacian",
     None),
    ("phifem.cli", "solve", "linalg.solve", _solve_sizes),
    ("phifem.cli", "estimate_condition_number", "linalg.condition",
     _condition_sizes),
    ("phifem.cli", "compute_errors", "analysis.errors", None),
    ("phifem.cli", "compute_errors_vs_reference", "analysis.errors_ref",
     None),
    ("phifem.analysis", "locate_points", "analysis.locate", None),
)

STUDY_SPAN = "cli.study"


class Tracer:
    """Records nested spans; one study span is the root of each study."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._study: int | None = None

    def install(self) -> None:
        for module_name, attr, span_name, sizes in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attr,
                    self.wrap(span_name, getattr(module, attr), sizes))

    def wrap(self, name, fn, sizes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                end = time.perf_counter()
                self._leave(span_id, name, start, end,
                            sizes(args, None, err) if sizes else {})
                raise
            end = time.perf_counter()
            self._leave(span_id, name, start, end,
                        sizes(args, result, None) if sizes else {})
            return result
        return traced

    def run_study(self, study: int, fn):
        """Call fn() as study `study`, under a root span."""
        self._study = study
        try:
            return self.wrap(STUDY_SPAN, fn)()
        finally:
            self._study = None

    def _enter(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _leave(self, span_id, name, start, end, attrs) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": span_id, "parent": parent,
                           "study": self._study, "name": name,
                           "start": start, "end": end, **attrs})

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_nesting(spans: list[dict], walls: dict[int, float]) -> list[str]:
    """Problems with the span tree of one traced pass.

    Each study must have one root span, every child must lie inside its
    parent in the same study, and siblings must not overlap.  `walls`
    maps each study to the wall time the worker measured around it; the
    root span, whose self times and those of its descendants add up to
    its duration, must account for that time to within 5 ms + 1%.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is None:
            if s["name"] != STUDY_SPAN:
                problems.append(f"span {s['id']} {s['name']} has no study")
            continue
        parent = by_id.get(s["parent"])
        if parent is None or parent["study"] != s["study"]:
            problems.append(f"span {s['id']} has a parent outside its study")
            continue
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} {s['name']} leaves its parent")
        children.setdefault(s["parent"], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                problems.append(f"spans {a['id']} and {b['id']} overlap")
    roots: dict[int, list[dict]] = {}
    for s in spans:
        if s["name"] == STUDY_SPAN:
            roots.setdefault(s["study"], []).append(s)
    for study, wall in walls.items():
        found = roots.get(study, [])
        if len(found) != 1:
            problems.append(f"study {study} has {len(found)} root spans")
            continue
        traced = found[0]["end"] - found[0]["start"]
        if not 0.0 <= wall - traced <= 0.005 + 0.01 * wall:
            problems.append(f"study {study}: spans cover {traced:.6f} s of "
                            f"the {wall:.6f} s the worker measured")
    return problems


# per-layer metric -> unit; times are self times summed over the workload
LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.triangles": "count",
    "fem_core.dofmap_s": "s", "fem_core.dofmap_calls": "count",
    "levelset.interpolate_s": "s", "levelset.classify_s": "s",
    "levelset.cut_triangles": "count", "levelset.ghost_facets": "count",
    "levelset.boundary_facets": "count",
    "assembly.volume_s": "s", "assembly.boundary_s": "s",
    "assembly.ghost_facet_s": "s", "assembly.cut_laplacian_s": "s",
    "assembly.kernel_calls": "count", "assembly.dofs": "count",
    "assembly.nnz": "count",
    "linalg.dense_solve_s": "s", "linalg.ilu_solve_s": "s",
    "linalg.gmres_iters": "count", "linalg.solves": "count",
    "linalg.solves_failed": "count", "linalg.max_residual": "rel",
    "linalg.condition_s": "s", "linalg.power_iters": "count",
    "linalg.condition_failed": "count",
    "analysis.errors_s": "s", "analysis.errors_ref_s": "s",
    "analysis.locate_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}

# span name -> the *_s metric that takes its self time
_SELF_TIME = {
    "mesh.build": "mesh.build_s",
    "fem_core.dofmap": "fem_core.dofmap_s",
    "levelset.interpolate": "levelset.interpolate_s",
    "levelset.classify": "levelset.classify_s",
    "assembly.volume": "assembly.volume_s",
    "assembly.boundary": "assembly.boundary_s",
    "assembly.ghost_facet": "assembly.ghost_facet_s",
    "assembly.cut_laplacian": "assembly.cut_laplacian_s",
    "linalg.condition": "linalg.condition_s",
    "analysis.errors": "analysis.errors_s",
    "analysis.errors_ref": "analysis.errors_ref_s",
    "analysis.locate": "analysis.locate_s",
    STUDY_SPAN: "cli.self_s",
}

# span name -> (attribute summed, metric)
_SUMMED = (
    ("mesh.build", "triangles", "mesh.triangles"),
    ("levelset.classify", "cut_triangles", "levelset.cut_triangles"),
    ("levelset.classify", "ghost_facets", "levelset.ghost_facets"),
    ("levelset.classify", "boundary_facets", "levelset.boundary_facets"),
    ("assembly.volume", "dofs", "assembly.dofs"),
    ("assembly.volume", "nnz", "assembly.nnz"),
    ("linalg.solve", "failed", "linalg.solves_failed"),
    ("linalg.condition", "power_iters", "linalg.power_iters"),
    ("linalg.condition", "failed", "linalg.condition_failed"),
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer table of one traced pass over a workload's studies.

    `trace.overhead_s` needs an untraced run and is filled in by the
    caller.
    """
    out = {metric: 0 if unit == "count" else 0.0
           for metric, unit in LAYER_UNITS.items()}
    own = self_times(spans)
    for s in spans:
        name = s["name"]
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += own[s["id"]]
        if name == "fem_core.dofmap":
            out["fem_core.dofmap_calls"] += 1
        elif name in ("assembly.boundary", "assembly.ghost_facet"):
            out["assembly.kernel_calls"] += 1
        elif name == "linalg.solve":
            path = "ilu" if s["method"] == "ilu-gmres" else "dense"
            out[f"linalg.{path}_solve_s"] += own[s["id"]]
            out["linalg.solves"] += 1
            if s["method"] == "ilu-gmres":
                out["linalg.gmres_iters"] += s["iters"]
            if s["residual"] is not None:
                out["linalg.max_residual"] = max(out["linalg.max_residual"],
                                                 s["residual"])
        for span_name, attr, metric in _SUMMED:
            if name == span_name:
                out[metric] += s.get(attr, 0)
    return out
