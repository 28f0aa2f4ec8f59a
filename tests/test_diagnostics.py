import numpy as np
import pytest
import scipy.linalg as sla

from screenwave import build_mesh, cantor_prefractal, make_screen
from screenwave.diagnostics import (COERCIVITY_CONSTANT_S,
                                    CONTINUITY_CONSTANT_T, NullityDescriptor,
                                    SweepResult, cantor_descriptor,
                                    coercivity_scan_S, coercivity_scan_T,
                                    continuity_estimate, continuity_sweep_S,
                                    kernel_ft_bound_check, loglog_fit,
                                    mesh_for_wavenumber, nullity_advisor,
                                    pointwise_bound_check,
                                    prefractal_convergence, sharpness_S,
                                    sharpness_T)
from screenwave.diagnostics import _PENCIL_THETAS, _pencil_candidates
from screenwave.operators import assemble_hypersingular, assemble_single_layer
from screenwave.sobolev import WaveContext


class TestSweepResult:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepResult(parameter=np.array([1.0, 3.0, 2.0]))

    def test_fit_needs_four_points(self):
        with pytest.raises(ValueError, match="4 points"):
            loglog_fit([1, 2, 3], [1, 2, 3])

    def test_fit_recovers_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        slope, intercept, r2 = loglog_fit(x, 3.0 * x ** -0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0)


class TestCoercivityS:
    def test_all_quotients_above_bound(self, p0_mesh8):
        res = coercivity_scan_S(p0_mesh8, WaveContext(10.0),
                                sample_count=200, seed=3)
        assert res.verdict == "pass"
        assert res.meta["min_quotient"] >= COERCIVITY_CONSTANT_S - 1e-3

    def test_scale_invariance_of_quotient(self, p0_mesh8, rng):
        sys_ = assemble_single_layer(p0_mesh8, WaveContext(10.0))
        G = sys_.gram.entries
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        q1 = abs(np.vdot(c, sys_.matrix @ c)) / np.real(np.vdot(c, G @ c))
        q2 = abs(np.vdot(2 * c, sys_.matrix @ (2 * c))) / np.real(
            np.vdot(2 * c, G @ (2 * c)))
        assert q1 == pytest.approx(q2, rel=1e-13)

    def test_seeded_reproducibility(self, p0_mesh8):
        a = coercivity_scan_S(p0_mesh8, WaveContext(5.0), 64, seed=42)
        b = coercivity_scan_S(p0_mesh8, WaveContext(5.0), 64, seed=42)
        assert np.array_equal(a.quantities["quotient"], b.quantities["quotient"])

    def test_cantor_screen(self):
        screen = cantor_prefractal(2, 2, 1 / 3)
        mesh = build_mesh(screen, 1 / 27, "P0")
        res = coercivity_scan_S(mesh, WaveContext(10.0), 128, seed=0)
        assert res.verdict == "pass"


class TestCoercivityT:
    def test_trend(self, unit_interval):
        res = coercivity_scan_T(unit_interval, [1.0, 2.0, 4.0, 8.0, 16.0],
                                sample_count=96, seed=1,
                                elements_per_wavelength=6.0, tol=1e-8)
        assert res.meta["positive"]
        assert res.verdict in ("pass", "inconclusive")
        if res.verdict == "pass":
            assert res.slope >= -0.75


class TestContinuity:
    def test_T_below_half(self, unit_interval):
        for k in (1.0, 4.0, 11.0):
            for m in (8, 16):
                mesh = build_mesh(unit_interval, 1.0 / m, "P1")
                sys_ = assemble_hypersingular(mesh, WaveContext(k))
                assert continuity_estimate(sys_) <= CONTINUITY_CONSTANT_T + 1e-6

    def test_S_monotone_under_refinement(self, unit_interval):
        vals = []
        for m in (8, 16):
            mesh = build_mesh(unit_interval, 1.0 / m, "P0")
            sys_ = assemble_single_layer(mesh, WaveContext(5.0))
            vals.append(continuity_estimate(sys_))
        assert vals[1] >= vals[0] - 1e-9   # larger subspace, larger sup

    def test_S_shape(self, unit_interval):
        res = continuity_sweep_S(unit_interval, [1, 2, 4, 8],
                                 elements_per_wavelength=6, tol=1e-8)
        assert res.verdict == "pass"
        assert res.meta["max_over_min"] <= 3.0


class TestPencil:
    """The energy-space pencil (A, G) read through GalerkinSystem.whitened."""

    @pytest.fixture(scope="class")
    def systems(self, unit_interval, unit_square):
        return [
            assemble_single_layer(build_mesh(unit_interval, 1 / 16, "P0"),
                                  WaveContext(5.0)),
            assemble_hypersingular(build_mesh(unit_square, 0.25, "P1"),
                                   WaveContext(3.0)),
        ]

    def test_continuity_is_generalized_eigenvalue(self, systems):
        for sys_ in systems:
            A, G = sys_.matrix, sys_.gram.entries
            M = A.conj().T @ np.linalg.solve(G, A)
            lam = sla.eigh(0.5 * (M + M.conj().T), G, eigvals_only=True)[-1]
            assert continuity_estimate(sys_) == pytest.approx(np.sqrt(lam),
                                                              rel=1e-10)

    def test_candidates_solve_the_pencil(self, systems):
        for sys_ in systems:
            A, G = sys_.matrix, sys_.gram.entries
            C = _pencil_candidates(sys_)
            keep = C.shape[0] // len(_PENCIL_THETAS)
            assert C.shape == (len(_PENCIL_THETAS) * keep, sys_.n_dofs)
            for i, c in enumerate(C):
                H = np.exp(1j * _PENCIL_THETAS[i // keep]) * A
                H = 0.5 * (H + H.conj().T)
                assert np.vdot(c, G @ c).real == pytest.approx(1.0, abs=1e-12)
                lam = np.vdot(c, H @ c).real
                assert np.linalg.norm(H @ c - lam * (G @ c)) \
                    <= 1e-10 * np.linalg.norm(A, 2)

    def test_one_factorization_per_system(self, p0_mesh8, monkeypatch):
        cholesky, eigh = sla.cholesky, sla.eigh
        factored, generalized = [], []

        def counting_cholesky(a, *args, **kwargs):
            factored.append(a.shape)
            return cholesky(a, *args, **kwargs)

        def standard_eigh(a, b=None, *args, **kwargs):
            generalized.append(b is not None)
            return eigh(a, b, *args, **kwargs)

        monkeypatch.setattr(sla, "cholesky", counting_cholesky)
        monkeypatch.setattr(sla, "eigh", standard_eigh)
        ctx = WaveContext(5.0)
        sys_ = assemble_single_layer(p0_mesh8, ctx)
        coercivity_scan_S(p0_mesh8, ctx, 64, seed=0, system=sys_)
        continuity_estimate(sys_)
        assert factored == [(8, 8)]
        assert generalized and not any(generalized)
        assert sys_.whitened is sys_.whitened


class TestSharpness:
    def test_S_slope_near_half(self, unit_interval):
        res = sharpness_S(unit_interval, [4.0, 8.0, 16.0, 32.0],
                          elements_per_wavelength=8, tol=1e-8)
        assert np.all(res.quantities["ratio"] > 0)
        assert res.verdict == "pass"
        assert 0.4 <= res.slope <= 0.6

    def test_T_bounded_ratio(self, unit_interval):
        res = sharpness_T(unit_interval, [2.0, 8.0, 16.0, 32.0], tol=1e-8)
        r = res.quantities["ratio"]
        assert np.all(r <= 0.5 + 1e-6)
        assert res.verdict == "pass"


class TestPointwiseBound:
    def test_ratio_drift(self, unit_interval):
        res = pointwise_bound_check(unit_interval, [1.0, 2.0, 4.0, 8.0],
                                    (0.5, 0.8), [0.0, -1.0],
                                    elements_per_wavelength=6, tol=1e-8)
        assert res.verdict == "pass"
        assert np.all(np.isfinite(res.quantities["abs_u"]))

    def test_zero_incident(self, unit_interval):
        from screenwave.solver import TraceData, eval_field, solve_problem_S

        ctx = WaveContext(2.0)
        g = TraceData("custom", "dirichlet", ctx.k,
                      sampler=lambda p: np.zeros(len(p)))
        sol = solve_problem_S(unit_interval, ctx, g, 1 / 8)
        assert abs(complex(eval_field(sol, [(0.5, 0.8)]))) == 0.0


class TestKernelFTBound:
    def test_stability_n3(self):
        res = kernel_ft_bound_check(1.0, [1.0, 4.0, 16.0], xi_count=8, n=3)
        assert res.verdict == "pass"

    def test_stability_n2(self):
        res = kernel_ft_bound_check(1.0, [1.0, 4.0, 16.0], xi_count=8, n=2)
        assert res.verdict == "pass"


class TestNullityAdvisor:
    def test_cantor_null_case(self):
        d = cantor_descriptor(2, 1 / 3)
        assert d.hausdorff_dim() == pytest.approx(np.log(2) / np.log(3))
        v = nullity_advisor(d, -0.1)
        assert v.verdict == "null"

    def test_below_delta_threshold(self):
        v = nullity_advisor(cantor_descriptor(2, 1 / 3), -1.0)
        assert v.verdict == "not-null"

    def test_boundary_case_undecided(self):
        dim = 0.8
        alpha = 2.0 ** (-1.0 / dim)
        v = nullity_advisor(cantor_descriptor(2, alpha), -0.1)
        assert v.verdict == "undecided"

    def test_not_null_above_dimension(self):
        # dust with dim 1.26 in the plane: s = -0.55 gives n + 2s = 0.9 < dim
        d = cantor_descriptor(3, 1 / 3)
        assert d.hausdorff_dim() == pytest.approx(2 * np.log(2) / np.log(3))
        v = nullity_advisor(d, -0.55)
        assert v.verdict == "not-null"

    def test_zero_measure_nonnegative(self):
        v = nullity_advisor(NullityDescriptor("hyperplane", ambient=2), 0.3)
        assert v.verdict == "null"

    def test_finite_set_threshold(self):
        v = nullity_advisor(NullityDescriptor("finite_set", ambient=2), -1.0)
        assert v.verdict == "null"

    def test_lipschitz_boundary(self):
        d = NullityDescriptor("lipschitz_boundary", ambient=2)
        assert nullity_advisor(d, -0.5).verdict == "null"
        assert nullity_advisor(d, -0.51).verdict == "not-null"

    def test_c0_boundary(self):
        d = NullityDescriptor("c0_boundary", ambient=2)
        assert nullity_advisor(d, 0.0).verdict == "null"
        assert nullity_advisor(d, -0.75).verdict == "not-null"
        assert nullity_advisor(d, -0.25).verdict == "undecided"


class TestPrefractal:
    def test_level0_matches_plain_interval(self):
        from screenwave.solver import incident_dirichlet, solve_problem_S

        ctx = WaveContext(3.0)
        res = prefractal_convergence(2, 1 / 3, [0], ctx, [0.0, -1.0],
                                     elements_per_feature=8, tol=1e-8)
        screen = make_screen(2, [(0.0, 1.0)])
        sol = solve_problem_S(screen, ctx,
                              incident_dirichlet(ctx, [[0.0, -1.0]]), 1 / 8,
                              tol=1e-8)
        elem = sol.density.mesh.h
        mass = float(np.sum(np.abs(sol.density.coefficients)) * elem)
        assert res.quantities["l1_mass"][0] == mass   # bit-for-bit

    def test_levels_recorded(self):
        ctx = WaveContext(5.0)
        res = prefractal_convergence(2, 1 / 3, [0, 1, 2], ctx, [0.0, -1.0],
                                     elements_per_feature=2, tol=1e-7)
        assert len(res.meta["consecutive_diffs"]) == 2
        assert res.verdict == "recorded"


class TestMeshForWavenumber:
    def test_resolves_k(self, unit_interval):
        mesh = mesh_for_wavenumber(unit_interval, 16.0, 8.0, "P0")
        assert mesh.h <= 2 * np.pi / (16.0 * 8.0) * 1.01

    def test_dof_cap(self, unit_interval):
        with pytest.raises(ValueError, match="cap"):
            mesh_for_wavenumber(unit_interval, 1e4, 10.0, "P0", max_dofs=100)
