import numpy as np
import pytest
from scipy.special import hankel1

from screenwave import build_mesh, make_screen, operators, solver
from screenwave.geometry import basis_value
from screenwave.operators import GalerkinSystem, assemble_single_layer
from screenwave.sobolev import Density, WaveContext, discrete_dual_norm, gram
from screenwave.solver import (NumericalError, Solution, TraceData, aperture_h_data,
                               aperture_i_data, eval_field, far_field,
                               incident_dirichlet, incident_neumann,
                               point_source_dirichlet, solve_aperture_H,
                               solve_aperture_I, solve_problem_S,
                               solve_problem_T)
from screenwave.spectral import DofFamily
from screenwave.spectral.engine import _axis_keys
from screenwave.spectral.factors import AxisFactor

# (screen, h) per ambient dimension for the loop-reference comparisons
REF_SCREENS = {
    2: (make_screen(2, [(0.0, 0.5), (0.75, 1.0)]), 1 / 16),
    3: (make_screen(3, [((0.0, 0.0), (1.0, 0.5)), ((0.0, 0.75), (0.5, 1.0))]), 1 / 8),
}
REF_POINTS = {
    2: np.array([[0.3, 0.2], [1.4, -0.5], [-0.2, 0.05], [0.6, -0.04], [3.0, 2.0]]),
    3: np.array([[0.3, 0.2, 0.2], [1.4, -0.5, -0.3], [0.6, 0.6, 0.13],
                 [0.2, 0.9, -0.7], [3.0, 2.0, 1.0]]),
}
PROBLEM_BASIS = {"S": "P0", "aperture_I": "P0", "T": "P1", "aperture_H": "P1"}
# screens with a box at an irrational offset: their dof centres are off the h/2 lattice
OFF_LATTICE = {
    2: (make_screen(2, [(0.0, 0.5), (0.5 + 0.1 * np.sqrt(2), 1.0 + 0.1 * np.sqrt(2))]),
        1 / 16),
    3: (make_screen(3, [((0.0, 0.0), (1.0, 0.5)),
                        ((0.1 * np.sqrt(2), 0.75), (0.5 + 0.1 * np.sqrt(2), 1.0))]), 1 / 8),
}


def _random_solution(n: int, problem: str, k: float = 7.0, screens=REF_SCREENS,
                     with_system: bool = False) -> Solution:
    """A random density; ``with_system`` attaches a system (identity matrix)
    on its mesh, which field evaluation may keep its field map on."""
    screen, h = screens[n]
    mesh = build_mesh(screen, h, PROBLEM_BASIS[problem])
    rng = np.random.default_rng(11)
    c = rng.standard_normal(mesh.n_dofs) + 1j * rng.standard_normal(mesh.n_dofs)
    system = None
    if with_system:
        kind = "single_layer" if PROBLEM_BASIS[problem] == "P0" else "hypersingular"
        system = GalerkinSystem(kind, np.eye(mesh.n_dofs, dtype=complex), mesh,
                                WaveContext(k), 1e-10)
    return Solution(Density(mesh, c), problem, WaveContext(k), system, None)


def _field_loop(sol: Solution, pts: np.ndarray) -> np.ndarray:
    """Per-point, per-element layer potentials with scipy's hankel1."""
    mesh, k = sol.density.mesh, sol.ctx.k
    c = sol.density.coefficients
    offs, ww = solver._element_rule(mesh, k)
    single = sol.problem in ("S", "aperture_I")
    elements = []
    for e in range(mesh.n_elements):
        y = mesh.element_center[e] - mesh.h / 2.0 + offs
        dens = sum(c[j] * basis_value(mesh, j, y) for j in range(mesh.n_dofs))
        elements.append((y, ww * dens))
    out = []
    for x in pts:
        u = 0j
        for y, wd in elements:
            r = np.sqrt(np.sum((x[:-1] - y) ** 2, axis=1) + x[-1] ** 2)
            if len(x) == 2:
                kern = (0.25j * hankel1(0, k * r) if single
                        else 0.25j * k * hankel1(1, k * r) * x[-1] / r)
            else:
                kern = (np.exp(1j * k * r) / (4 * np.pi * r) if single
                        else x[-1] * np.exp(1j * k * r) * (1 - 1j * k * r)
                        / (4 * np.pi * r ** 3))
            u += np.sum(kern * wd)
        sign = np.sign(x[-1]) if sol.problem.startswith("aperture") else 1.0
        out.append(-sign * u if single else sign * u)
    return np.array(out)


def _far_field_loop(sol: Solution, dirs: np.ndarray) -> np.ndarray:
    """Sum over dofs of the per-axis AxisFactor transforms."""
    mesh, k = sol.density.mesh, sol.ctx.k
    n = mesh.screen.dim_ambient
    kind = "box" if mesh.basis_kind == "P0" else "hat"
    xi = k * dirs[:, :-1]
    surf = 0j
    for cj, p in zip(sol.density.coefficients, mesh.dof_points):
        vals = cj
        for a in range(n - 1):
            vals = vals * AxisFactor(kind, float(p[a]), mesh.h).value(xi[:, a])
        surf = surf + vals
    surf = surf * (2 * np.pi) ** ((n - 1) / 2)
    pref = 1 / (4 * np.pi) if n == 3 else np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
    up = np.sign(dirs[:, -1])
    return {"S": -pref * surf, "aperture_I": -pref * up * surf,
            "T": -1j * k * pref * dirs[:, -1] * surf,
            "aperture_H": -1j * k * pref * dirs[:, -1] * up * surf}[sol.problem]


def _directions(n: int, m: int = 41) -> np.ndarray:
    t = np.linspace(0.05, 2 * np.pi, m)
    if n == 2:
        return np.column_stack([np.cos(t), np.sin(t)])
    z = np.linspace(-0.95, 0.95, m)
    s = np.sqrt(1 - z * z)
    return np.column_stack([s * np.cos(3 * t), s * np.sin(3 * t), z])


@pytest.fixture(scope="module")
def ctx():
    return WaveContext(5.0)


@pytest.fixture(scope="module")
def sol_S(unit_interval, ctx):
    return solve_problem_S(unit_interval, ctx,
                           incident_dirichlet(ctx, [[0.0, -1.0]]), 1 / 32)


class TestTraceData:
    def test_unit_direction_required(self, ctx):
        with pytest.raises(ValueError, match="unit"):
            TraceData("plane_wave", "dirichlet", ctx.k, directions=[[1.0, 1.0]])

    def test_aperture_needs_downward_incidence(self, ctx):
        with pytest.raises(ValueError, match="d_n < 0"):
            aperture_h_data(ctx, [0.0, 1.0])

    def test_plane_wave_samples(self, ctx):
        g = incident_dirichlet(ctx, [[0.0, -1.0]])
        vals = g.sample(np.array([[0.25], [0.5]]))
        assert np.allclose(vals, -1.0)   # e^{ik x~ . d~} with d~ = 0

    @pytest.mark.parametrize("source", [(0.3, 0.25), (2.0, -1e-3)])
    def test_point_source_2d_matches_hankel1(self, ctx, source):
        g = point_source_dirichlet(ctx, source)
        pts = np.linspace(-1.0, 3.0, 101)[:, None]
        rr = np.hypot(pts[:, 0] - source[0], source[1])
        ref = -0.25j * hankel1(0, ctx.k * rr)
        assert np.abs(g.sample(pts) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_superposition(self, ctx):
        g = TraceData("plane_wave", "dirichlet", ctx.k,
                      amplitudes=[2.0, 1.0],
                      directions=[[0.0, -1.0], [0.6, -0.8]])
        v = g.sample(np.array([[0.0]]))
        assert v[0] == pytest.approx(3.0)


class TestProblemS:
    def test_zero_data_zero_density(self, unit_interval, ctx):
        g = TraceData("custom", "dirichlet", ctx.k,
                      sampler=lambda p: np.zeros(len(p)))
        sol = solve_problem_S(unit_interval, ctx, g, 1 / 16)
        assert np.abs(sol.density.coefficients).max() < 1e-12

    def test_reflection_symmetry(self, sol_S):
        c = sol_S.density.coefficients
        assert np.abs(c - c[::-1]).max() <= 1e-10 * np.abs(c).max()

    def test_wrong_role_rejected(self, unit_interval, ctx):
        with pytest.raises(ValueError, match="Dirichlet"):
            solve_problem_S(unit_interval, ctx,
                            incident_neumann(ctx, [[0.0, -1.0]]), 1 / 8)

    def test_point_source_on_screen_rejected(self, unit_interval, ctx):
        g = point_source_dirichlet(ctx, (0.5, 0.0))
        with pytest.raises(ValueError, match="closure"):
            solve_problem_S(unit_interval, ctx, g, 1 / 8)

    def test_self_convergence(self, unit_interval, ctx):
        # H^{-1/2}_k distance between successive refinements decreases
        sols = {}
        for m in (32, 64, 128):
            sols[m] = solve_problem_S(unit_interval, ctx,
                                      incident_dirichlet(ctx, [[0.0, -1.0]]),
                                      1.0 / m)
        diffs = []
        for m in (32, 64):
            fine = sols[2 * m]
            coarse_on_fine = np.repeat(sols[m].density.coefficients, 2)
            G = fine.system.gram
            diffs.append(G.norm(fine.density.coefficients - coarse_on_fine))
        assert diffs[1] < diffs[0]


class TestProblemT:
    def test_zero_data(self, unit_interval, ctx):
        g = TraceData("custom", "neumann", ctx.k,
                      sampler=lambda p: np.zeros(len(p)))
        sol = solve_problem_T(unit_interval, ctx, g, 1 / 16)
        assert np.abs(sol.density.coefficients).max() < 1e-12

    def test_reflection_symmetry(self, unit_interval, ctx):
        sol = solve_problem_T(unit_interval, ctx,
                              incident_neumann(ctx, [[0.0, -1.0]]), 1 / 32)
        c = sol.density.coefficients
        assert np.abs(c - c[::-1]).max() <= 1e-10 * np.abs(c).max()


class TestEvalField:
    def test_zero_density_zero_field(self, unit_interval, ctx):
        g = TraceData("custom", "dirichlet", ctx.k,
                      sampler=lambda p: np.zeros(len(p)))
        sol = solve_problem_S(unit_interval, ctx, g, 1 / 16)
        u = eval_field(sol, [[0.5, 0.7], [2.0, -0.4]])
        assert np.abs(u).max() == 0.0

    def test_distance_floor(self, sol_S):
        with pytest.raises(ValueError, match="floor"):
            eval_field(sol_S, [[0.5, 0.001]])

    def test_continuity_across_plane(self, sol_S):
        # [S_k phi] = 0: single-layer fields agree across the screen plane
        up = eval_field(sol_S, [[0.5, 0.3]])
        dn = eval_field(sol_S, [[0.5, -0.3]])
        assert up == pytest.approx(dn, rel=1e-14)

    @pytest.mark.parametrize("screen", [
        make_screen(2, [(0.0, 1.0)]),
        make_screen(3, [((0.0, 0.0), (1.0, 0.5)), ((1.0, 0.0), (1.5, 0.5))]),
    ])
    def test_p1_density_at_quadrature_points(self, screen, ctx, rng):
        from screenwave.solver import _density_quad_points

        mesh = build_mesh(screen, 0.125, "P1")
        c = rng.standard_normal(mesh.n_dofs) + 1j * rng.standard_normal(mesh.n_dofs)
        sol = Solution(Density(mesh, c), "T", ctx, None, None)
        pts, vals, _ = _density_quad_points(sol)
        ref = sum(c[j] * basis_value(mesh, j, pts) for j in range(mesh.n_dofs))
        assert np.abs(vals - ref).max() <= 1e-14

    def test_dirichlet_residual_refinement(self, unit_interval, ctx):
        # trace residual of -S phi_N against g_D in the fine-mesh dual norm
        from screenwave.spectral import assemble, single_layer
        from screenwave.sobolev import rhs_functional

        fine = build_mesh(unit_interval, 1 / 256, "P0")
        g = incident_dirichlet(ctx, [[0.0, -1.0]])
        f_fine = rhs_functional(g, fine, ctx)
        G_fine = gram(fine, -0.5, ctx)
        res = []
        for m in (32, 64, 128):
            sol = solve_problem_S(unit_interval, ctx, g, 1.0 / m)
            C = assemble(single_layer(ctx.k), fine, sol.density.mesh, tol=1e-10)
            r = -C @ sol.density.coefficients - f_fine
            res.append(discrete_dual_norm(r, G_fine))
        assert res[1] < res[0] and res[2] < res[1]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("problem", ["S", "T", "aperture_H", "aperture_I"])
class TestAgainstLoops:
    def test_eval_field(self, n, problem):
        sol = _random_solution(n, problem)
        ref = _field_loop(sol, REF_POINTS[n])
        got = eval_field(sol, REF_POINTS[n])
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_far_field(self, n, problem):
        sol = _random_solution(n, problem)
        ref = _far_field_loop(sol, _directions(n))
        got = far_field(sol, _directions(n))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_blocks_under_a_small_budget(self, n, problem, monkeypatch):
        sol = _random_solution(n, problem)
        pts, dirs = REF_POINTS[n], _directions(n)
        u, ff = eval_field(sol, pts), far_field(sol, dirs)
        q = solver._density_quad_points(sol)[2].size
        # three node rows per block splits the points (and directions) only,
        # so every sum keeps its order
        monkeypatch.setattr(solver, "_TABLE_CELLS", 3 * q)
        assert np.abs(eval_field(sol, pts) - u).max() <= 1e-15 * np.abs(u).max()
        assert np.abs(far_field(sol, dirs) - ff).max() <= 1e-15 * np.abs(ff).max()
        # a third of the nodes per block reorders each sum of q terms, which
        # cancel about tenfold on these random densities
        monkeypatch.setattr(solver, "_TABLE_CELLS", q // 3)
        assert np.abs(eval_field(sol, pts) - u).max() <= 1e-14 * np.abs(u).max()

    def test_far_field_off_lattice(self, n, problem):
        sol = _random_solution(n, problem, screens=OFF_LATTICE)
        fam = DofFamily.of(sol.density.mesh)
        x = fam.centers[:, 0]
        assert _axis_keys(x, x.min(keepdims=True), fam.factor(0), fam.factor(0))[0].j is None
        ref = _far_field_loop(sol, _directions(n))
        got = far_field(sol, _directions(n))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSystemReuse:
    """Many incidences against one system: one LU factor, one field map."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("problem", ["S", "T"])
    def test_field_map_memo_is_bitwise(self, n, problem):
        sol = _random_solution(n, problem, with_system=True)
        pts = REF_POINTS[n]
        miss = eval_field(sol, pts)
        assert sol.system.point_map is not None
        hit = eval_field(sol, pts.copy())
        bare = eval_field(Solution(sol.density, problem, sol.ctx, None, None), pts)
        assert np.array_equal(miss, hit) and np.array_equal(miss, bare)
        # the map is kept per system, not per density
        sol2 = Solution(Density(sol.density.mesh, 2.0 * sol.density.coefficients),
                        problem, sol.ctx, sol.system, None)
        assert np.array_equal(eval_field(sol2, pts), 2.0 * miss)

    def test_memo_holds_one_point_set(self):
        sol = _random_solution(2, "S", with_system=True)
        a, b = REF_POINTS[2], REF_POINTS[2][:3] + 0.1
        eval_field(sol, a)
        map_a = sol.system.point_map[1]
        eval_field(sol, b)
        assert sol.system.point_map[1].shape == (3, sol.density.mesh.n_dofs)
        eval_field(sol, a)
        assert sol.system.point_map[1] is not map_a

    def test_no_memo_above_the_budget(self, monkeypatch):
        sol = _random_solution(2, "T", with_system=True)
        u = eval_field(Solution(sol.density, "T", sol.ctx, None, None), REF_POINTS[2])
        size = REF_POINTS[2].shape[0] * sol.density.mesh.n_dofs
        monkeypatch.setattr(solver, "_TABLE_CELLS", size - 1)
        got = eval_field(sol, REF_POINTS[2])
        assert sol.system.point_map is None
        assert np.abs(got - u).max() <= 1e-14 * np.abs(u).max()

    def test_one_factorization_for_three_solves(self, unit_interval, ctx, monkeypatch):
        system = assemble_single_layer(build_mesh(unit_interval, 1 / 16, "P0"), ctx)
        calls = []
        factor = operators.sla.lu_factor

        def counted(a, *args, **kw):
            calls.append(a.shape)
            return factor(a, *args, **kw)

        monkeypatch.setattr(operators.sla, "lu_factor", counted)
        reused = []
        for theta in (0.0, 0.4, -0.7):
            g = incident_dirichlet(ctx, [[np.sin(theta), -np.cos(theta)]])
            sol = solve_problem_S(unit_interval, ctx, g, 1 / 16, system=system)
            reused.append(sol.diagnostics["lu_reused"])
            assert sol.diagnostics["algebraic_residual"] <= 1e-12
        assert calls == [(16, 16)]
        assert reused == [False, True, True]

    def test_non_finite_factor_raises_on_every_solve(self, unit_interval, ctx):
        # finite entries whose elimination overflows: u22 = -1e308 - 1e308
        mesh = build_mesh(unit_interval, 1 / 3, "P1")
        A = np.array([[1.0, 1e308], [1.0, -1e308]], dtype=complex)
        system = GalerkinSystem("hypersingular", A, mesh, ctx, 1e-10)
        g = incident_neumann(ctx, [[0.0, -1.0]])
        for _ in range(2):
            with pytest.raises(NumericalError, match="singular"):
                solve_problem_T(unit_interval, ctx, g, 1 / 3, system=system)
        assert system.lu[2] is False


class TestSystemMismatch:
    """A pre-assembled system must be the one the call describes."""

    @pytest.fixture(scope="class")
    def system_S(self, unit_interval, ctx):
        return assemble_single_layer(build_mesh(unit_interval, 1 / 16, "P0"), ctx)

    def test_operator_kind(self, unit_interval, ctx, system_S):
        g = incident_neumann(ctx, [[0.0, -1.0]])
        with pytest.raises(ValueError, match=r"differs from the call in operator \("):
            solve_problem_T(unit_interval, ctx, g, 1 / 16, system=system_S)

    def test_wavenumber(self, unit_interval, system_S):
        ctx9 = WaveContext(9.0)
        g = incident_dirichlet(ctx9, [[0.0, -1.0]])
        with pytest.raises(ValueError, match=r"differs from the call in k \("):
            solve_problem_S(unit_interval, ctx9, g, 1 / 16, system=system_S)

    def test_mesh_width(self, unit_interval, ctx, system_S):
        g = incident_dirichlet(ctx, [[0.0, -1.0]])
        with pytest.raises(ValueError, match=r"differs from the call in h \("):
            solve_problem_S(unit_interval, ctx, g, 1 / 64, system=system_S)

    def test_screen(self, ctx, system_S):
        other = make_screen(2, [(0.0, 0.5), (0.75, 1.0)])
        g = incident_dirichlet(ctx, [[0.0, -1.0]])
        with pytest.raises(ValueError, match=r"differs from the call in screen \("):
            solve_problem_S(other, ctx, g, 1 / 16, system=system_S)


class TestFarField:
    def test_zero_density(self, unit_interval, ctx):
        g = TraceData("custom", "dirichlet", ctx.k,
                      sampler=lambda p: np.zeros(len(p)))
        sol = solve_problem_S(unit_interval, ctx, g, 1 / 16)
        assert np.abs(far_field(sol, [[0.0, 1.0]])).max() == 0.0

    def test_single_element_closed_form(self, ctx):
        # u_inf = -pref e^{-ik xhat.c} h sinc(k xhat_t h / 2)
        screen = make_screen(2, [(0.0, 1.0)])
        sol = solve_problem_S(screen, ctx,
                              incident_dirichlet(ctx, [[0.0, -1.0]]), 1.0,
                              system=None)
        sol.density.coefficients[:] = 1.0
        xh = np.array([0.6, 0.8])
        got = far_field(sol, [xh])[0]
        k = ctx.k
        pref = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
        xi = k * xh[0]
        expected = -pref * np.exp(-1j * xi * 0.5) * np.sinc(xi * 0.5 / np.pi)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_large_R_consistency_n3(self):
        # |u(R xhat)| R -> |u_inf| with relative gap <= 1e-3 at kR = 1e3
        screen = make_screen(3, [((0, 0), (1, 1))])
        ctx3 = WaveContext(2.0)
        sol = solve_problem_S(screen, ctx3,
                              incident_dirichlet(ctx3, [[0.0, 0.0, -1.0]]),
                              0.25)
        xh = np.array([0.0, 0.6, 0.8])
        R = 1e3 / ctx3.k
        uR = complex(eval_field(sol, [R * xh]))
        finf = complex(far_field(sol, [xh])[0])
        assert abs(abs(uR) * R - abs(finf)) <= 1e-3 * abs(finf)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("problem", ["S", "T", "aperture_H", "aperture_I"])
    def test_far_field_is_large_R_limit_of_field(self, n, problem):
        # u_inf(xhat) = lim R^{(n-1)/2} e^{-ikR} u(R xhat), in both half-spaces
        if n == 2:
            screen, h, k, R = make_screen(2, [(0.0, 1.0)]), 1 / 32, 5.0, 4000.0
            d = [0.6, -0.8]
            xhats = np.array([[0.6, 0.8], [-0.28, -0.96]])
        else:
            screen, h, k, R = make_screen(3, [((0, 0), (1, 1))]), 1 / 4, 4.0, 3000.0
            d = [0.3, 0.2, -np.sqrt(0.87)]
            xhats = np.array([[0.36, 0.48, 0.8], [-0.48, 0.6, -0.64]])
        ctx_n = WaveContext(k)
        data, solve = {
            "S": (incident_dirichlet(ctx_n, [d]), solve_problem_S),
            "T": (incident_neumann(ctx_n, [d]), solve_problem_T),
            "aperture_H": (aperture_h_data(ctx_n, d), solve_aperture_H),
            "aperture_I": (aperture_i_data(ctx_n, d), solve_aperture_I),
        }[problem]
        sol = solve(screen, ctx_n, data, h)
        ff = far_field(sol, xhats)
        uR = eval_field(sol, R * xhats) * R ** ((n - 1) / 2) * np.exp(-1j * k * R)
        assert np.all(np.abs(ff - uR) <= 1e-2 * np.abs(ff))

    def test_reciprocity_under_reflection(self, sol_S, ctx):
        # reflecting the density across the screen midpoint maps the far
        # field to e^{-ik xhat_1} u_inf(-xhat_1, xhat_2) (sampled identity)
        import copy

        refl = copy.deepcopy(sol_S)
        refl.density.coefficients = sol_S.density.coefficients[::-1].copy()
        k = ctx.k
        for x1 in (0.3, -0.55, 0.8):
            xh = np.array([x1, np.sqrt(1 - x1 * x1)])
            lhs = complex(far_field(refl, [xh])[0])
            rhs = np.exp(-1j * k * x1) * complex(
                far_field(sol_S, [np.array([-x1, xh[1]])])[0])
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_sommerfeld_decay_proxy(self, sol_S):
        xh = np.array([0.3, np.sqrt(1 - 0.09)])
        vals = []
        for R in (50.0, 100.0, 200.0, 400.0):
            u = complex(eval_field(sol_S, [R * xh]))
            vals.append(abs(u) * np.sqrt(R))
        vals = np.array(vals)
        assert vals.std() / vals.mean() < 1e-2


class TestApertures:
    def test_zero_data(self, unit_interval, ctx):
        g = TraceData("custom", "aperture_h", ctx.k,
                      sampler=lambda p: np.zeros(len(p)))
        sol = solve_aperture_H(unit_interval, ctx, g, 1 / 16)
        assert np.abs(sol.density.coefficients).max() < 1e-12

    def test_H_field_even(self, unit_interval, ctx):
        g = aperture_h_data(ctx, [0.6, -0.8])
        sol = solve_aperture_H(unit_interval, ctx, g, 1 / 32)
        pts = np.column_stack([np.linspace(-0.5, 1.5, 20), np.full(20, 0.6)])
        mirror = pts * np.array([1.0, -1.0])
        u, um = eval_field(sol, pts), eval_field(sol, mirror)
        assert np.abs(u - um).max() <= 1e-8 * np.abs(u).max()

    def test_I_field_odd(self, unit_interval, ctx):
        g = aperture_i_data(ctx, [0.6, -0.8])
        sol = solve_aperture_I(unit_interval, ctx, g, 1 / 32)
        pts = np.column_stack([np.linspace(-0.5, 1.5, 20), np.full(20, 0.6)])
        mirror = pts * np.array([1.0, -1.0])
        u, um = eval_field(sol, pts), eval_field(sol, mirror)
        assert np.abs(u + um).max() <= 1e-8 * np.abs(u).max()

    def test_H_linearity(self, unit_interval, ctx):
        g1 = aperture_h_data(ctx, [0.6, -0.8], amplitudes=[1.0])
        g2 = aperture_h_data(ctx, [0.6, -0.8], amplitudes=[2.0])
        s1 = solve_aperture_H(unit_interval, ctx, g1, 1 / 16)
        s2 = solve_aperture_H(unit_interval, ctx, g2, 1 / 16)
        assert np.allclose(2 * s1.density.coefficients,
                           s2.density.coefficients, rtol=1e-12)

    def test_aperture_screen_duality(self, unit_interval, ctx):
        # g_I = -2 u^i gives the same single-layer solution as g_D = -u^i
        sol_ap = solve_aperture_I(unit_interval, ctx,
                                  aperture_i_data(ctx, [0.0, -1.0]), 1 / 16)
        sol_sc = solve_problem_S(unit_interval, ctx,
                                 incident_dirichlet(ctx, [[0.0, -1.0]]), 1 / 16)
        assert np.allclose(sol_ap.density.coefficients,
                           sol_sc.density.coefficients, rtol=1e-12)

    def test_n3_aperture_symmetries(self, unit_square):
        ctx3 = WaveContext(4.0)
        d = [0.3, 0.2, -np.sqrt(1 - 0.09 - 0.04)]
        pts = np.array([[0.3, 0.4, 0.8], [1.2, -0.1, 0.5], [0.5, 0.5, 1.5]])
        mirror = pts * np.array([1.0, 1.0, -1.0])
        aH = solve_aperture_H(unit_square, ctx3, aperture_h_data(ctx3, d), 0.25)
        u, um = eval_field(aH, pts), eval_field(aH, mirror)
        assert np.abs(u - um).max() <= 1e-10 * np.abs(u).max()
        aI = solve_aperture_I(unit_square, ctx3, aperture_i_data(ctx3, d), 0.25)
        u, um = eval_field(aI, pts), eval_field(aI, mirror)
        assert np.abs(u + um).max() <= 1e-10 * np.abs(u).max()

    def test_plane_points_rejected(self, unit_interval, ctx):
        sol = solve_aperture_H(unit_interval, ctx,
                               aperture_h_data(ctx, [0.0, -1.0]), 1 / 16)
        with pytest.raises(ValueError, match="plane"):
            eval_field(sol, [[3.0, 0.0]])

    def test_total_field_assembly(self, unit_interval, ctx):
        # sound-soft total field is small just above the screen face far from
        # the aperture: incident + reflected cancel there and the diffracted
        # contribution decays with distance from the slit
        from screenwave.solver import aperture_total_field

        g = aperture_h_data(ctx, [0.0, -1.0])
        sol = solve_aperture_H(unit_interval, ctx, g, 1 / 32)
        delta = 0.5 / 32 + 1e-6
        near_plane = aperture_total_field(sol, [0.0, -1.0],
                                          [[8.0, delta]])
        # u^i + u^r = -2i sin(k delta) exactly; the diffracted part is small
        assert abs(near_plane + 2j * np.sin(ctx.k * delta)) < 1e-3
        # lower half-space carries only the diffracted field
        below = aperture_total_field(sol, [0.0, -1.0], [[0.5, -0.5]])
        assert below == pytest.approx(complex(eval_field(sol, [[0.5, -0.5]])))