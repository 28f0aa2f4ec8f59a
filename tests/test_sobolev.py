import numpy as np
import pytest
from scipy.integrate import quad

from scipy.special import hankel1

from screenwave import build_mesh, make_screen, sobolev
from screenwave.sobolev import (Density, WaveContext, cutoff_extension_norm,
                                discrete_dual_norm, gram, hsk_norm,
                                rhs_functional)
from screenwave.solver import (TraceData, incident_dirichlet,
                               incident_neumann, point_source_dirichlet)


def _trace_ref(g: TraceData, pts: np.ndarray) -> np.ndarray:
    """The trace of g written out, with scipy's hankel1 for 2-D sources."""
    if g.kind == "plane_wave":
        amp = g.amplitudes * (1j * g.k * g.directions[:, -1] if g.derivative else 1.0)
        return g.scale * np.exp(1j * g.k * pts @ g.directions[:, :-1].T) @ amp
    rr = np.sqrt(np.sum((pts - g.source[:-1]) ** 2, axis=1) + g.source[-1] ** 2)
    if pts.shape[1] == 1:
        return g.scale * 0.25j * hankel1(0, g.k * rr)
    return g.scale * np.exp(1j * g.k * rr) / (4 * np.pi * rr)


def _rhs_loop(g: TraceData, mesh, ctx) -> np.ndarray:
    """Per-dof, per-element sums of the trace against the basis function."""
    offs, ww = sobolev._element_quadrature(mesh, ctx.k, g.quad_scale(mesh))
    d = mesh.dim_screen
    f = np.zeros(mesh.n_dofs, dtype=complex)
    for j, node in enumerate(mesh.dof_points):
        if mesh.basis_kind == "P0":
            f[j] = np.sum(ww * _trace_ref(g, node - mesh.h / 2 + offs))
            continue
        for corner in np.ndindex(*(2,) * d):
            pts = node - mesh.h * np.asarray(corner, dtype=float) + offs
            hat = np.prod(1 - np.abs(pts - node) / mesh.h, axis=1)
            f[j] += np.sum(ww * hat * _trace_ref(g, pts))
    return f


class TestGram:
    def test_p0_l2_identity(self, p0_mesh8):
        G = gram(p0_mesh8, 0.0, WaveContext(3.0))
        assert np.allclose(G.entries, p0_mesh8.h * np.eye(8), atol=1e-11)

    def test_p1_l2_overlaps_unit_h(self):
        mesh = build_mesh(make_screen(2, [(0.0, 2.0)]), 1.0, "P1")
        G = gram(mesh, 0.0, WaveContext(1.0))
        assert G.entries[0, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_adjacent_hats(self, p1_mesh):
        G = gram(p1_mesh, 0.0, WaveContext(2.0))
        h = p1_mesh.h
        assert G.entries[0, 1] == pytest.approx(h / 6, abs=1e-12)
        assert G.entries[0, 0] == pytest.approx(2 * h / 3, abs=1e-12)

    def test_hminus_half_vs_adaptive_quadrature(self):
        """s=-1/2, single element (0,1), k=1 against scipy adaptive quadrature."""
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        G = gram(mesh, -0.5, WaveContext(1.0))

        def f(x):
            return (1 + x * x) ** -0.5 * np.sinc(x / (2 * np.pi)) ** 2 / (2 * np.pi)

        expected = 2 * (quad(f, 0, 50, limit=400)[0]
                        + quad(f, 50, np.inf, limit=800)[0])
        assert G.entries[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_out_of_range_order(self, p0_mesh8):
        with pytest.raises(ValueError, match="admissible"):
            gram(p0_mesh8, 1.0, WaveContext(1.0))

    def test_fractional_order_vs_adaptive_quadrature(self):
        # non-half-integer order exercises the fractional tail exponents
        import warnings

        from scipy.integrate import IntegrationWarning

        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        s, k = -0.3, 2.0
        G = gram(mesh, s, WaveContext(k))

        def f(x):
            return (k * k + x * x) ** s * np.sinc(x / (2 * np.pi)) ** 2 \
                / (2 * np.pi)

        with warnings.catch_warnings():
            # the infinite-range oracle converges slowly but well past 1e-9
            warnings.simplefilter("ignore", IntegrationWarning)
            expected = 2 * (quad(f, 0, 60, limit=400)[0]
                            + quad(f, 60, np.inf, limit=800)[0])
        assert G.entries[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_fractional_order_n3(self, unit_square):
        # 2-D fractional order against the tensor engine's own refinement
        mesh = build_mesh(unit_square, 0.5, "P0")
        a = gram(mesh, -0.7, WaveContext(2.0), tol=1e-8).entries
        b = gram(mesh, -0.7, WaveContext(2.0), tol=1e-11).entries
        assert np.abs(a - b).max() < 1e-8

    def test_slow_tail_order_vs_oscillatory_referee(self):
        # s = 1.2 on P1 decays only like x^{-1.6}: naive adaptive quadrature
        # fails here, so referee with split oscillatory quadrature
        import mpmath as mp

        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 0.125, "P1")
        G = gram(mesh, 1.2, WaveContext(3.0))
        got = G.entries[3, 3]

        mp.mp.dps = 25
        k, h, s, X = mp.mpf(3), mp.mpf(1) / 8, mp.mpf("1.2"), mp.mpf(5)
        pref = 16 / (2 * mp.pi * h * h)
        w = lambda x: (k * k + x * x) ** s / x ** 4
        head = mp.quad(lambda x: (k * k + x * x) ** s
                       * (h * mp.sincpi(x * h / (2 * mp.pi)) ** 2) ** 2
                       / (2 * mp.pi), [0, k, X])
        dc = pref * mp.mpf(3) / 8 * mp.quad(w, [X, mp.inf])
        c1 = -pref / 2 * mp.quadosc(lambda x: w(x) * mp.cos(x * h),
                                    [X, mp.inf], period=2 * mp.pi / h)
        c2 = pref / 8 * mp.quadosc(lambda x: w(x) * mp.cos(2 * x * h),
                                   [X, mp.inf], period=mp.pi / h)
        ref = float(2 * (head + dc + c1 + c2))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_hermitian_positive_definite(self, p1_mesh):
        G = gram(p1_mesh, 0.5, WaveContext(5.0))
        assert np.abs(G.entries - G.entries.T).max() < 1e-12
        assert np.all(np.linalg.eigvalsh(G.entries) > 0)


class TestHskNorm:
    def test_zero(self, p0_mesh8):
        d = Density(p0_mesh8, np.zeros(8))
        assert hsk_norm(d, 0.0, WaveContext(1.0)) == 0.0

    def test_single_element_sqrt_h(self, p0_mesh8):
        c = np.zeros(8)
        c[3] = 1.0
        d = Density(p0_mesh8, c)
        assert hsk_norm(d, 0.0, WaveContext(2.0)) == pytest.approx(
            np.sqrt(p0_mesh8.h), abs=1e-10)

    def test_homogeneity(self, p0_mesh8, rng):
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ctx = WaveContext(3.0)
        G = gram(p0_mesh8, -0.5, ctx)
        n1 = hsk_norm(Density(p0_mesh8, c), -0.5, ctx, G)
        n2 = hsk_norm(Density(p0_mesh8, 2 * c), -0.5, ctx, G)
        assert n2 == pytest.approx(2 * n1, rel=1e-13)

    def test_gram_of_other_mesh_rejected(self, p0_mesh8):
        # same dof count, different mesh
        other = build_mesh(make_screen(2, [(0.0, 2.0)]), 0.25, "P0")
        ctx = WaveContext(2.0)
        G = gram(other, -0.5, ctx)
        with pytest.raises(ValueError, match="different mesh"):
            hsk_norm(Density(p0_mesh8, np.ones(8)), -0.5, ctx, G)

    def test_norm_equivalence_constants(self, p0_mesh8, rng):
        # min{1,k^s} ||u||_{H^s_1} <= ||u||_{H^s_k} <= max{1,k^s} ||u||_{H^s_1}
        c = rng.standard_normal(8)
        for k, s in ((4.0, -0.5), (4.0, 0.0), (0.25, -0.5)):
            G1 = gram(p0_mesh8, s, WaveContext(1.0))
            Gk = gram(p0_mesh8, s, WaveContext(k))
            n1, nk = G1.norm(c), Gk.norm(c)
            assert min(1, k ** s) * n1 <= nk * (1 + 1e-12)
            assert nk <= max(1, k ** s) * n1 * (1 + 1e-12)

    def test_k_monotonicity(self, p1_mesh, rng):
        c = rng.standard_normal(p1_mesh.n_dofs)
        ns_pos = [gram(p1_mesh, 0.5, WaveContext(k)).norm(c) for k in (1, 2, 4)]
        ns_neg = [gram(p1_mesh, -0.5, WaveContext(k)).norm(c) for k in (1, 2, 4)]
        assert ns_pos == sorted(ns_pos)
        assert ns_neg == sorted(ns_neg, reverse=True)

    def test_embedding_chain(self, p1_mesh, rng):
        # ||u||_{-1/2} <= k^{-1/2} ||u||_0 <= k^{-1} ||u||_{1/2}
        c = rng.standard_normal(p1_mesh.n_dofs) + 1j * rng.standard_normal(
            p1_mesh.n_dofs)
        k = 7.0
        ctx = WaveContext(k)
        nm = gram(p1_mesh, -0.5, ctx).norm(c)
        n0 = gram(p1_mesh, 0.0, ctx).norm(c)
        np_ = gram(p1_mesh, 0.5, ctx).norm(c)
        assert nm <= n0 / np.sqrt(k) * (1 + 1e-10)
        assert n0 / np.sqrt(k) <= np_ / k * (1 + 1e-10)


class TestRhsFunctional:
    def test_constant_data_p0(self, p0_mesh8):
        f = rhs_functional(lambda pts: np.ones(len(pts)), p0_mesh8,
                           WaveContext(1.0))
        assert np.allclose(f, p0_mesh8.h, atol=1e-13)

    def test_full_period_zero(self):
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        k = 2 * np.pi     # k h = 2 pi over the single element
        f = rhs_functional(lambda pts: np.exp(1j * k * pts[:, 0]), mesh,
                           WaveContext(k))
        assert abs(f[0]) < 1e-12

    def test_point_source_vs_adaptive(self):
        """Point-source trace paired with the single element (0,1)."""
        from scipy.special import hankel1

        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        ctx = WaveContext(2.0)
        g = point_source_dirichlet(ctx, (0.5, 0.3))

        def integrand_re(y):
            r = np.sqrt((y - 0.5) ** 2 + 0.09)
            return (-0.25j * hankel1(0, 2.0 * r)).real

        def integrand_im(y):
            r = np.sqrt((y - 0.5) ** 2 + 0.09)
            return (-0.25j * hankel1(0, 2.0 * r)).imag

        expected = (quad(integrand_re, 0, 1, limit=200)[0]
                    + 1j * quad(integrand_im, 0, 1, limit=200)[0])
        f = rhs_functional(g, mesh, ctx)
        assert f[0] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("basis", ["P0", "P1"])
    @pytest.mark.parametrize("n, data", [(2, "plane_wave"), (2, "point_source"),
                                         (3, "plane_wave"), (3, "point_source")])
    def test_against_dof_loop(self, n, data, basis, monkeypatch):
        if n == 2:
            screen, h = make_screen(2, [(0.0, 0.5), (0.75, 1.0)]), 1 / 16
            d, src = [0.6, -0.8], (0.3, 0.02)
        else:
            screen = make_screen(3, [((0.0, 0.0), (1.0, 0.5)), ((0.0, 0.75), (0.5, 1.0))])
            h, d, src = 1 / 8, [0.3, 0.2, -np.sqrt(0.87)], (0.3, 0.6, 0.05)
        ctx = WaveContext(9.0)
        g = (point_source_dirichlet(ctx, src) if data == "point_source"
             else incident_neumann(ctx, [d]) if basis == "P1"
             else incident_dirichlet(ctx, [d]))
        mesh = build_mesh(screen, h, basis)
        ref = _rhs_loop(g, mesh, ctx)
        f = rhs_functional(g, mesh, ctx)
        assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()
        # dof blocks of a few hundred rule points: the same sums, at most
        # taken by another BLAS kernel
        monkeypatch.setattr(sobolev, "_TABLE_CELLS", 300)
        assert np.abs(rhs_functional(g, mesh, ctx) - f).max() <= 1e-15 * np.abs(f).max()

    def test_p1_hat_weighting(self, p1_mesh):
        f = rhs_functional(lambda pts: np.ones(len(pts)), p1_mesh,
                           WaveContext(1.0))
        assert np.allclose(f, p1_mesh.h, atol=1e-13)   # hat area = h


class TestDiscreteDualNorm:
    def test_riesz_identity(self, p0_mesh8, rng):
        G = gram(p0_mesh8, -0.5, WaveContext(2.0))
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = G.entries @ c
        assert discrete_dual_norm(f, G) == pytest.approx(G.norm(c), rel=1e-12)

    def test_zero(self, p0_mesh8):
        G = gram(p0_mesh8, -0.5, WaveContext(2.0))
        assert discrete_dual_norm(np.zeros(8), G) == 0.0

    def test_euclidean_with_identity(self, p0_mesh8, rng):
        from screenwave.sobolev import GramMatrix

        G = GramMatrix(0.0, 1.0, np.eye(8), p0_mesh8)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert discrete_dual_norm(f, G) == pytest.approx(np.linalg.norm(f))

    def test_cauchy_schwarz_duality(self, p0_mesh8, rng):
        G = gram(p0_mesh8, -0.5, WaveContext(2.0))
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        dn = discrete_dual_norm(f, G)
        for _ in range(20):
            c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert abs(np.vdot(c, f)) <= dn * G.norm(c) * (1 + 1e-10)


class TestCutoffExtensionNorm:
    def test_plane_wave_shape(self, unit_interval):
        # bound / (1 + sqrt(kL)) stays bounded across the dyadic sweep
        vals = []
        for k in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            v = cutoff_extension_norm("plane_wave", unit_interval,
                                      WaveContext(k), direction=(1.0, 0.0))
            vals.append(v / (1 + np.sqrt(k)))
        vals = np.array(vals)
        assert vals.max() / vals.min() < 5.0

    def test_translation_invariance(self):
        ctx = WaveContext(3.0)
        a = cutoff_extension_norm("plane_wave", make_screen(2, [(0, 1)]),
                                  ctx, direction=(1.0, 0.0))
        b = cutoff_extension_norm("plane_wave", make_screen(2, [(5, 6)]),
                                  ctx, direction=(1.0, 0.0))
        assert a == pytest.approx(b, rel=1e-9)

    def test_point_source_dominated_by_paper_shape_n3(self, unit_square):
        # the computable upper bound stays under C k^{1/2}(1+kL) with C
        # fitted at the smallest wavenumber (the bound direction is one-sided)
        L = unit_square.diameter
        ks = (1.0, 2.0, 4.0, 8.0)
        vals = [cutoff_extension_norm("fundamental_solution", unit_square,
                                      WaveContext(k), source=(0.5, 0.5, L))
                for k in ks]
        shape = [np.sqrt(k) * (1 + k * L) for k in ks]
        C = vals[0] / shape[0]
        assert all(v <= 1.5 * C * s for v, s in zip(vals, shape))
        assert vals[-1] > vals[0]     # genuine k-growth of the bound

    def test_too_close_rejected(self, unit_interval):
        with pytest.raises(ValueError, match="close"):
            cutoff_extension_norm("fundamental_solution", unit_interval,
                                  WaveContext(1.0), source=(0.5, 1e-12))
