"""End-to-end acceptance checks.

Each test covers one numbered item of the acceptance checklist and
prints a single PASS/FAIL line with the measured values before
asserting.  Expensive sweeps are shared through module-scoped fixtures.

Items 1, 4 and 5 contain tolerance windows that the measured behavior
of this implementation does not meet at the stated mesh sizes; those
tests fail by design and their printed lines document the numbers
actually observed.
"""
import math
import time

import numpy as np
import pytest

from phifem import cli
from phifem.assembly import assemble_ghost_part, assemble_system
from phifem.cases import get_case
from phifem.cli import RunConfig, conditioning_study, run_case, sigma_sweep
from phifem.fem_core import (QUAD_DEGREE_CAP, make_reference_element,
                             triangle_quadrature)
from phifem.levelset import classify_domain, interpolate_levelset
from phifem.linalg import estimate_condition_number, solve
from phifem.mesh import build_background_mesh


def _check(item, ok, detail):
    print(f"acceptance {item}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {item}: {detail}"


def _within_factor(value, anchor, factor):
    return max(value / anchor, anchor / value) <= factor


def _disk_config(k, **kw):
    kw.setdefault("n", 10)
    return RunConfig(case="circle", k=k, **kw)


@pytest.fixture(scope="module")
def disk_sweeps():
    start = time.perf_counter()
    rows = {k: run_case(_disk_config(k, levels=5 if k == 1 else 4))
            for k in (1, 2, 3)}
    rows["seconds"] = time.perf_counter() - start
    return rows


@pytest.fixture(scope="module")
def disk_unstabilized():
    return run_case(_disk_config(1, levels=5, sigma=0.0))


def test_01_disk_convergence_orders(disk_sweeps):
    ranges = {1: ((0.8, 1.2), (1.7, 2.3)),
              2: ((1.7, 2.3), (2.6, 3.4)),
              3: ((2.6, 3.4), (3.5, 4.5))}
    bad = []
    parts = []
    for k, ((h1_lo, h1_hi), (l2_lo, l2_hi)) in ranges.items():
        last = disk_sweeps[k][-1]
        parts.append(f"k={k}: eoc_h1={last['eoc_h1']:.3f} "
                     f"eoc_l2={last['eoc_l2']:.3f}")
        if not h1_lo <= last["eoc_h1"] <= h1_hi:
            bad.append(f"k={k} H1 order {last['eoc_h1']:.3f} outside "
                       f"[{h1_lo}, {h1_hi}]")
        if not l2_lo <= last["eoc_l2"] <= l2_hi:
            bad.append(f"k={k} L2 order {last['eoc_l2']:.3f} outside "
                       f"[{l2_lo}, {l2_hi}]")
    seconds = disk_sweeps["seconds"]
    parts.append(f"runtime={seconds:.1f}s")
    if seconds > 300.0:
        bad.append(f"runtime {seconds:.1f}s over 300s")

    # the k=1 orders two and three refinements on, for the record: the
    # L2 order falls from its pre-asymptotic peak toward 2
    fine = run_case(_disk_config(1, n=160, levels=3))
    print("acceptance 1 note: k=1 " + "; ".join(
        f"n={row['n_cells']}: eoc_h1={row['eoc_h1']:.3f} "
        f"eoc_l2={row['eoc_l2']:.3f}" for row in fine[1:]))
    _check(1, not bad, "; ".join(parts + bad))


def test_02_disk_error_anchors(disk_sweeps):
    # expected relative errors at h = sqrt(2)/40, factor-3 window
    anchors = {1: (0.04614, 0.08877), 2: (3.20e-5, 7.32e-4)}
    bad = []
    parts = []
    for k, (l2_ref, h1_ref) in anchors.items():
        row = disk_sweeps[k][2]
        assert row["n_cells"] == 40
        parts.append(f"k={k}: L2={row['err_l2_rel']:.4e} "
                     f"H1={row['err_h1_rel']:.4e}")
        if not _within_factor(row["err_l2_rel"], l2_ref, 3.0):
            bad.append(f"k={k} L2 off anchor {l2_ref}")
        if not _within_factor(row["err_h1_rel"], h1_ref, 3.0):
            bad.append(f"k={k} H1 off anchor {h1_ref}")
    _check(2, not bad, "; ".join(parts + bad))


def test_03_stabilization_necessity(disk_sweeps, disk_unstabilized):
    plain = [row["err_l2_rel"] for row in disk_unstabilized]
    stabilized = [row["err_l2_rel"] for row in disk_sweeps[1]]
    grows = any(b > a for a, b in zip(plain, plain[1:]))
    ratio = plain[-1] / stabilized[-1]
    ok = grows and ratio >= 10.0
    _check(3, ok, f"unstabilized L2 series {['%.3e' % e for e in plain]}, "
                  f"grows={grows}, finest-level ratio to sigma=20 "
                  f"{ratio:.1f}x (need >= 10)")


def test_04_conditioning_growth():
    rows20, slope20 = conditioning_study(_disk_config(1, levels=4,
                                                      sigma=20.0))
    rows0, slope0 = conditioning_study(_disk_config(1, levels=4, sigma=0.0))
    anchors = [472.7, 1113.3, 1801.4, 4840.5]
    bad = []
    kappas = [row["kappa"] for row in rows20]
    for kappa, anchor in zip(kappas, anchors):
        if not _within_factor(kappa, anchor, 3.0):
            bad.append(f"kappa {kappa:.1f} off anchor {anchor}")
    if not -2.6 <= slope20 <= -1.4:
        bad.append(f"sigma=20 slope {slope20:.3f} outside [-2.6, -1.4]")
    if not abs(slope0) >= 3.0:
        bad.append(f"sigma=0 slope magnitude {abs(slope0):.2f} below 3")
    detail = (f"sigma=20 kappas {['%.4g' % k for k in kappas]} "
              f"slope={slope20:.3f}; sigma=0 slope={slope0:.3f}")

    # the same sigma=20 record two refinements further, with the local
    # slope of each level against the one before it
    fine, _ = conditioning_study(_disk_config(1, n=160, levels=2,
                                              sigma=20.0))
    chain = [rows20[-1]] + fine
    notes = []
    for a, b in zip(chain, chain[1:]):
        local = math.log(b["kappa"] / a["kappa"]) / math.log(b["h"] / a["h"])
        notes.append(f"n={b['n_cells']}: kappa {b['kappa']:.4g}, "
                     f"local slope {local:.3f}")
    print("acceptance 4 note: " + "; ".join(notes))
    _check(4, not bad, "; ".join([detail] + bad))


def test_05_penalty_robustness():
    sweep = sigma_sweep(_disk_config(1, n=20, levels=1),
                        [0.1, 1.0, 10.0, 100.0])
    h1 = [row["err_h1_rel"] for row in sweep]
    spread = max(h1) / min(h1)
    pair = sigma_sweep(_disk_config(1, n=40, levels=1), [1e-4, 0.1])
    degradation = pair[0]["err_l2_rel"] / pair[1]["err_l2_rel"]

    # the same quantities two refinements later, for the record
    fine = sigma_sweep(_disk_config(1, n=100, levels=1),
                       [0.1, 1.0, 10.0, 100.0])
    fine_h1 = [row["err_h1_rel"] for row in fine]
    fine_pair = sigma_sweep(_disk_config(1, n=400, levels=1), [1e-4, 0.1])
    print(f"acceptance 5 note: at n=100 the H1 spread is "
          f"{max(fine_h1) / min(fine_h1):.3f}, at n=400 the L2 "
          f"degradation is "
          f"{fine_pair[0]['err_l2_rel'] / fine_pair[1]['err_l2_rel']:.1f}x")

    ok = spread <= 2.0 and degradation >= 100.0
    _check(5, ok, f"H1 spread over sigma 0.1..100 at n=20: {spread:.3f} "
                  f"(need <= 2); L2 degradation sigma=1e-4 vs 0.1 at n=40: "
                  f"{degradation:.2f}x (need >= 100)")


def test_06_property_suite(tmp_path):
    bad = []

    # polynomial solution reproduced through the full pipeline
    case = get_case("planted")
    worst = 0.0
    for k in (1, 2, 3):
        mesh = build_background_mesh(case.box, (7, 7))
        field = interpolate_levelset(case.phi, mesh, k)
        domain = classify_domain(field, mesh)
        system = assemble_system(domain, field, case.f, k, 20.0,
                                 outer_data=case.outer_data)
        nodes = system.dofmap.node_coords
        gap = np.abs(solve(system).x - (1.0 + nodes[:, 0] + nodes[:, 1]))
        worst = max(worst, float(gap.max()))
    if worst > 1e-9:
        bad.append(f"patch test error {worst:.2e}")

    # penalty matrix exactly symmetric and nonnegative; full matrix positive
    disk = get_case("circle")
    mesh = build_background_mesh(disk.box, (20, 20))
    field = interpolate_levelset(disk.phi, mesh, 1)
    domain = classify_domain(field, mesh)
    ghost = 20.0 * assemble_ghost_part(domain, field, disk.f, 1)[0]
    if (ghost != ghost.T).nnz != 0:
        bad.append("ghost matrix not exactly symmetric")
    rng = np.random.default_rng(20240910)
    scale = np.abs(ghost).max()
    quads = []
    for _ in range(1000):
        v = rng.standard_normal(ghost.shape[0])
        quads.append(v @ (ghost @ v) / (scale * (v @ v)))
    if min(quads) < -1e-10:
        bad.append(f"ghost quadratic form hits {min(quads):.2e}")
    system = assemble_system(domain, field, disk.f, 1, 20.0)
    rng = np.random.default_rng(20240911)
    if not all(v @ (system.A @ v) > 0.0 for v in
               rng.standard_normal((1000, system.n_dofs))):
        bad.append("full matrix quadratic form not positive")

    # quadrature exactness on monomials up to the cap
    for exactness in range(QUAD_DEGREE_CAP + 1):
        rule = triangle_quadrature(exactness)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for p in range(exactness + 1):
            for q in range(exactness + 1 - p):
                want = (math.factorial(p) * math.factorial(q)
                        / math.factorial(p + q + 2))
                if abs(np.sum(rule.weights * x ** p * y ** q) - want) \
                        > 1e-12 * want:
                    bad.append(f"quadrature misses x^{p} y^{q} at "
                               f"exactness {exactness}")

    # nodal bases: partition of unity and Kronecker property
    rng = np.random.default_rng(20240912)
    bary = rng.random((50, 3))
    bary /= bary.sum(axis=1, keepdims=True)
    for degree in (1, 2, 3):
        ref = make_reference_element(degree)
        values, _, _ = ref.tabulate(bary)
        if np.abs(values.sum(axis=1) - 1.0).max() > 1e-13:
            bad.append(f"partition of unity broken at degree {degree}")
        nodal, _, _ = ref.tabulate(ref.nodes_bary)
        if np.abs(nodal - np.eye(ref.n_basis)).max() > 1e-13:
            bad.append(f"Kronecker property broken at degree {degree}")

    # classification oracle on the 2x2 mesh cut near a grid line
    planted = get_case("planted")
    mesh2 = build_background_mesh(planted.box, (2, 2))
    field2 = interpolate_levelset(planted.phi, mesh2, 1)
    domain2 = classify_domain(field2, mesh2)
    if not (np.array_equal(domain2.active_triangles, np.arange(8))
            and np.array_equal(domain2.cut_triangles, [2, 3, 6, 7])):
        bad.append("classification differs from the hand oracle")

    # estimated condition number against the dense SVD
    mesh3 = build_background_mesh(disk.box, (10, 10))
    field3 = interpolate_levelset(disk.phi, mesh3, 1)
    small = assemble_system(classify_domain(field3, mesh3), field3,
                            disk.f, 1, 20.0)
    assert small.n_dofs <= 2000
    est = estimate_condition_number(small)
    dense = np.linalg.cond(small.A.toarray(), 2)
    gap = abs(est.kappa - dense) / dense
    if gap > 0.05:
        bad.append(f"condition estimate off dense SVD by {gap:.2%}")

    # repeated runs produce byte-identical tables
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--case", "circle", "--n", "10", "--levels", "2"]
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    if first.read_bytes() != second.read_bytes():
        bad.append("repeated runs differ byte for byte")

    _check(6, not bad, "; ".join(bad) if bad
           else "patch/penalty/positivity/quadrature/basis/"
                "classification/conditioning/reproducibility all hold")


def test_07_rectangle_convergence_orders():
    rows_k1 = run_case(RunConfig(case="rectangle", k=1, n=40, levels=3))
    rows_k2 = run_case(RunConfig(case="rectangle", k=2, n=40, levels=3))
    eoc_h1 = rows_k1[-1]["eoc_h1"]
    eoc_l2 = rows_k2[-1]["eoc_l2"]
    ok = 0.7 <= eoc_h1 <= 1.3 and 2.3 <= eoc_l2 <= 3.4
    _check(7, ok, f"k=1 finest-pair H1 order {eoc_h1:.3f} (need in "
                  f"[0.7, 1.3]); k=2 finest-pair L2 order {eoc_l2:.3f} "
                  f"(need in [2.3, 3.4])")
