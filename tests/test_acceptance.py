"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from screenwave import build_mesh, cantor_prefractal, make_screen
from screenwave.diagnostics import (COERCIVITY_CONSTANT_S,
                                    CONTINUITY_CONSTANT_T, cantor_descriptor,
                                    coercivity_scan_S, coercivity_scan_T,
                                    continuity_estimate, continuity_sweep_S,
                                    kernel_ft_bound_check, nullity_advisor,
                                    sharpness_S, sharpness_T)
from screenwave.operators import (assemble_hypersingular,
                                  assemble_single_layer,
                                  kernel_oracle_single_layer,
                                  maue_oracle_hypersingular)
from screenwave.sobolev import (WaveContext, discrete_dual_norm, gram,
                                rhs_functional)
from screenwave.solver import (aperture_h_data, aperture_i_data, eval_field,
                               incident_dirichlet, solve_aperture_H,
                               solve_aperture_I, solve_problem_S)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def interval():
    return make_screen(2, [(0.0, 1.0)])


def test_criterion_01_oracle_equivalence_S(interval):
    """Symbol-assembled S matrix vs kernel quadrature, N=8, k in {1,5,10}."""
    t0 = time.time()
    mesh = build_mesh(interval, 1.0 / 8.0, "P0")
    worst = 0.0
    for k in (1.0, 5.0, 10.0):
        ctx = WaveContext(k)
        sys_ = assemble_single_layer(mesh, ctx, tol=1e-10)
        oracle = kernel_oracle_single_layer(mesh, ctx)
        worst = max(worst, float(np.max(np.abs(sys_.matrix - oracle)
                                        / np.abs(oracle))))
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt <= 30.0
    report(1, ok, f"max entrywise rel diff {worst:.2e} (<= 1e-6), {dt:.1f}s")
    assert ok


def test_criterion_02_maue_identity(interval):
    """Hypersingular assembly vs surface-derivative oracle, n=2 and n=3."""
    t0 = time.time()
    worst = 0.0
    mesh2 = build_mesh(interval, 1.0 / 17.0, "P1")      # 16 hats
    square = make_screen(3, [((0.0, 0.0), (1.0, 1.0))])
    mesh3 = build_mesh(square, 0.25, "P1")              # 3x3 interior nodes
    for k in (2.0, 8.0):
        for mesh in (mesh2, mesh3):
            ctx = WaveContext(k)
            sys_ = assemble_hypersingular(mesh, ctx, tol=1e-10)
            oracle = maue_oracle_hypersingular(mesh, ctx, tol=1e-10)
            rel = float(np.max(np.abs(sys_.matrix - oracle))
                        / np.max(np.abs(sys_.matrix)))
            worst = max(worst, rel)
    dt = time.time() - t0
    ok = worst <= 1e-8 and dt <= 120.0
    report(2, ok, f"max rel diff {worst:.2e} (<= 1e-8), {dt:.1f}s")
    assert ok


def test_criterion_03_coercivity_S(interval):
    """10^3 sampled quotients >= 1/(2 sqrt 2) - 1e-3 on two screens."""
    t0 = time.time()
    cantor = cantor_prefractal(2, 3, 1.0 / 3.0)
    overall_min = np.inf
    for screen, h in ((interval, 1.0 / 64.0), (cantor, 1.0 / 54.0)):
        for k in (1.0, 10.0, 50.0):
            mesh = build_mesh(screen, h, "P0")
            res = coercivity_scan_S(mesh, WaveContext(k), sample_count=1000,
                                    seed=11, tol=1e-8)
            overall_min = min(overall_min, res.meta["min_quotient"])
    dt = time.time() - t0
    ok = overall_min >= 0.35355 - 1e-3 and dt <= 120.0
    report(3, ok, f"min quotient {overall_min:.5f} "
                  f"(floor {COERCIVITY_CONSTANT_S:.5f}), {dt:.1f}s")
    assert ok


def test_criterion_04_continuity_T(interval):
    """Discrete operator-norm surrogate <= 1/2 + 1e-6 on every tested mesh/k."""
    worst = 0.0
    for m, k in ((8, 1.0), (8, 4.0), (16, 4.0), (16, 11.0), (32, 32.0)):
        mesh = build_mesh(interval, 1.0 / m, "P1")
        sys_ = assemble_hypersingular(mesh, WaveContext(k), tol=1e-9)
        worst = max(worst, continuity_estimate(sys_))
    square = make_screen(3, [((0.0, 0.0), (1.0, 1.0))])
    mesh3 = build_mesh(square, 0.25, "P1")
    sys3 = assemble_hypersingular(mesh3, WaveContext(2.0), tol=1e-9)
    worst = max(worst, continuity_estimate(sys3))
    ok = worst <= CONTINUITY_CONSTANT_T + 1e-6
    report(4, ok, f"max surrogate {worst:.8f} (<= 0.5 + 1e-6)")
    assert ok


def test_criterion_05_continuity_shape_S(interval):
    """Surrogate norm over log(2+1/k)(1+sqrt k): max/min <= 3, k = 1..64."""
    res = continuity_sweep_S(interval, [1, 2, 4, 8, 16, 32, 64],
                             elements_per_wavelength=8.0, tol=1e-8)
    ratio = res.meta["max_over_min"]
    ok = ratio <= 3.0
    report(5, ok, f"shaped max/min {ratio:.3f} (<= 3)")
    assert ok


def test_criterion_06_sharpness_S(interval):
    """Modulated-bump quotient slope in [0.4, 0.6] with R^2 >= 0.9."""
    res = sharpness_S(interval, [4, 8, 16, 32, 64],
                      elements_per_wavelength=10.0, tol=1e-8)
    ok = res.r_squared >= 0.9 and 0.4 <= res.slope <= 0.6
    report(6, ok, f"slope {res.slope:.3f} (target 0.5), R2 {res.r_squared:.3f}")
    assert ok


def test_criterion_07_coercivity_trend_T(interval):
    """Fitted slope of min T quotient >= -0.75 with R^2 gate (2-D beta=-1/2)."""
    res = coercivity_scan_T(interval, [1, 2, 4, 8, 16, 32], sample_count=160,
                            seed=5, elements_per_wavelength=8.0, tol=1e-8)
    ok = res.verdict in ("pass", "inconclusive")
    if res.verdict == "pass":
        ok = ok and res.slope >= -0.75 and res.r_squared >= 0.9
    report(7, ok, f"slope {res.slope:.3f}, R2 {res.r_squared:.3f}, "
                  f"verdict {res.verdict}")
    assert ok


def test_criterion_08_sharpness_T(interval):
    """Fixed-density quotient in (0.1, 0.5] for k >= 16."""
    res = sharpness_T(interval, [2, 8, 16, 32, 64], tol=1e-8)
    r = res.quantities["ratio"]
    tail = r[res.parameter >= 16.0]
    ok = bool(np.all(r <= 0.5 + 1e-6) and np.all(tail > 0.1))
    report(8, ok, f"ratios {np.round(r, 4).tolist()} "
                  f"(upper 0.5, tail floor 0.1)")
    assert ok


def test_criterion_09_kernel_ft_bound():
    """Lemma-shape sup over a 20x20 (k, xi) grid stable under refinement."""
    ks = np.geomspace(0.5, 64.0, 20)
    details = []
    ok = True
    for n in (2, 3):
        res = kernel_ft_bound_check(1.0, ks, xi_count=20, n=n)
        ratio = res.meta["ratio"]
        ok = ok and 0.5 <= ratio <= 2.0
        details.append(f"n={n}: sup ratio {ratio:.3f}")
    report(9, ok, "; ".join(details) + " (within factor 2)")
    assert ok


def test_criterion_10_residual_self_convergence(interval):
    """Dirichlet residual in the fine-mesh dual norm strictly decreasing."""
    from screenwave.spectral import assemble, single_layer

    ctx = WaveContext(5.0)
    g = incident_dirichlet(ctx, [[0.0, -1.0]])
    fine = build_mesh(interval, 1.0 / 256.0, "P0")
    f_fine = rhs_functional(g, fine, ctx)
    G_fine = gram(fine, -0.5, ctx, tol=1e-9)
    res = []
    for m in (32, 64, 128):
        sol = solve_problem_S(interval, ctx, g, 1.0 / m, tol=1e-9)
        C = assemble(single_layer(ctx.k), fine, sol.density.mesh, tol=1e-9)
        r = -C @ sol.density.coefficients - f_fine
        res.append(discrete_dual_norm(r, G_fine))
    ok = res[0] > res[1] > res[2]
    report(10, ok, "residuals " + ", ".join(f"{v:.3e}" for v in res)
           + " strictly decreasing")
    assert ok


def test_criterion_11_aperture_symmetries(interval):
    """H field even / I field odd at 20 mirrored pairs, <= 1e-8 max|u|."""
    ctx = WaveContext(5.0)
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(-1.0, 2.0, 20),
                           rng.uniform(0.3, 2.0, 20)])
    mirror = pts * np.array([1.0, -1.0])
    solH = solve_aperture_H(interval, ctx, aperture_h_data(ctx, [0.6, -0.8]),
                            1.0 / 32.0)
    uH, uHm = eval_field(solH, pts), eval_field(solH, mirror)
    gapH = float(np.max(np.abs(uH - uHm)) / np.max(np.abs(uH)))
    solI = solve_aperture_I(interval, ctx, aperture_i_data(ctx, [0.6, -0.8]),
                            1.0 / 32.0)
    uI, uIm = eval_field(solI, pts), eval_field(solI, mirror)
    gapI = float(np.max(np.abs(uI + uIm)) / np.max(np.abs(uI)))
    ok = gapH <= 1e-8 and gapI <= 1e-8
    report(11, ok, f"even gap {gapH:.2e}, odd gap {gapI:.2e} (<= 1e-8)")
    assert ok


def test_criterion_12_nullity_advisor():
    """The three worked examples reproduce their stated verdicts."""
    d = cantor_descriptor(2, 1.0 / 3.0)
    v1 = nullity_advisor(d, -0.1)
    v2 = nullity_advisor(d, -1.0)
    dim = 0.8
    v3 = nullity_advisor(cantor_descriptor(2, 2.0 ** (-1.0 / dim)), -0.1)
    got = (v1.verdict, v2.verdict, v3.verdict)
    ok = got == ("null", "not-null", "undecided")
    report(12, ok, f"verdicts {got}")
    assert ok


def test_criterion_13_determinism(tmp_path):
    """Repeated seeded CLI runs produce byte-identical CSV outputs."""
    from screenwave.cli import EXIT_PASS, run

    cfg = {
        "command": "coercivity",
        "screen": {"n": 2, "boxes": [[0, 1]]},
        "k": 5.0, "h": 1.0 / 16.0,
        "operator": "S", "samples": 128, "seed": 9,
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    outs = []
    for name in ("o1", "o2"):
        assert run(str(p), out_dir=str(tmp_path / name)) == EXIT_PASS
        outs.append((tmp_path / name / "quotients.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(13, ok, f"{len(outs[0])} bytes, identical: {ok}")
    assert ok
