import numpy as np
import pytest
from scipy.special import hankel1

from screenwave import build_mesh, make_screen
from screenwave.operators import (assemble_hypersingular,
                                  assemble_single_layer, export_matrix_csv,
                                  kernel_oracle_single_layer,
                                  maue_oracle_hypersingular)
from screenwave.sobolev import WaveContext


class TestSingleLayerAssembly:
    def test_requires_p0(self, p1_mesh):
        with pytest.raises(ValueError, match="P0"):
            assemble_single_layer(p1_mesh, WaveContext(1.0))

    def test_single_element_vs_kernel_oracle(self):
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        ctx = WaveContext(1.0)
        sys_ = assemble_single_layer(mesh, ctx)
        oracle = kernel_oracle_single_layer(mesh, ctx)
        assert abs(sys_.matrix[0, 0] - oracle[0, 0]) < 1e-6 * abs(oracle[0, 0])

    def test_complex_symmetric(self, p0_mesh8):
        sys_ = assemble_single_layer(p0_mesh8, WaveContext(5.0))
        assert np.abs(sys_.matrix - sys_.matrix.T).max() < 1e-12

    def test_quadratic_form_signs(self, p0_mesh8, rng):
        sys_ = assemble_single_layer(p0_mesh8, WaveContext(5.0))
        for _ in range(20):
            c = rng.standard_normal(8)
            q = sys_.quadratic_form(c)
            assert q.real >= -1e-12 and q.imag >= -1e-12

    def test_condition_number_bounded_by_theory(self, p0_mesh8):
        import scipy.linalg as sla

        from screenwave.diagnostics import (COERCIVITY_CONSTANT_S,
                                            continuity_estimate)

        sys_ = assemble_single_layer(p0_mesh8, WaveContext(5.0))
        L = sys_.gram.cholesky()
        M = sla.solve_triangular(L, sys_.matrix, lower=True)
        M = sla.solve_triangular(L, M.conj().T, lower=True).conj().T
        sv = sla.svdvals(M)
        kappa = sv[0] / sv[-1]
        bound = continuity_estimate(sys_) / COERCIVITY_CONSTANT_S
        assert kappa <= bound * (1 + 1e-9)


class TestLazyGrams:
    @pytest.fixture()
    def gram_calls(self, monkeypatch):
        import screenwave.operators as ops

        calls = []

        def counting_gram(mesh, s, ctx, tol=1e-10):
            calls.append(s)
            return real_gram(mesh, s, ctx, tol)

        real_gram = ops.gram
        monkeypatch.setattr(ops, "gram", counting_gram)
        return calls

    def test_assembly_builds_no_gram(self, gram_calls, p0_mesh8, p1_mesh):
        assemble_single_layer(p0_mesh8, WaveContext(5.0))
        assemble_hypersingular(p1_mesh, WaveContext(3.0))
        assert gram_calls == []

    def test_each_gram_built_once_on_read(self, gram_calls, p0_mesh8, p1_mesh):
        S = assemble_single_layer(p0_mesh8, WaveContext(5.0))
        assert S.gram is S.gram
        T = assemble_hypersingular(p1_mesh, WaveContext(3.0))
        assert T.gram is T.gram
        assert gram_calls == [-0.5, 0.5]


class TestHypersingularAssembly:
    def test_requires_p1(self, p0_mesh8):
        with pytest.raises(ValueError, match="P1|non-integrable"):
            assemble_hypersingular(p0_mesh8, WaveContext(1.0))

    def test_complex_symmetric(self, p1_mesh):
        sys_ = assemble_hypersingular(p1_mesh, WaveContext(3.0))
        assert np.abs(sys_.matrix - sys_.matrix.T).max() < 1e-12

    def test_quadratic_form_signs(self, p1_mesh, rng):
        sys_ = assemble_hypersingular(p1_mesh, WaveContext(3.0))
        for _ in range(20):
            c = rng.standard_normal(p1_mesh.n_dofs)
            q = sys_.quadratic_form(c)
            assert q.real <= 1e-12 and q.imag >= -1e-12

    def test_maue_identity_small(self):
        # 4 hats on (0,1), k=3 against the surface-derivative identity
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 0.2, "P1")
        ctx = WaveContext(3.0)
        sys_ = assemble_hypersingular(mesh, ctx, tol=1e-11)
        oracle = maue_oracle_hypersingular(mesh, ctx, tol=1e-11)
        rel = np.abs(sys_.matrix - oracle).max() / np.abs(sys_.matrix).max()
        assert rel < 1e-8

    def test_low_k_sign_direction(self):
        # toward k -> 0 the derivative term dominates: negative-real dominant
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 0.25, "P1")
        oracle = maue_oracle_hypersingular(mesh, WaveContext(0.05), tol=1e-9)
        c = np.ones(mesh.n_dofs)
        q = np.vdot(c, oracle @ c)
        assert q.real < 0 and abs(q.real) > abs(q.imag)

    def test_maue_per_term_consistency(self):
        # k^2 a(psi,psi) and a(psi',psi') individually match spectral values
        from screenwave.spectral import DofFamily, assemble, single_layer

        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 0.5, "P1")  # one hat
        k = 2.0
        a_h0 = assemble(single_layer(k), mesh, tol=1e-11, variant=0)
        a_h1 = assemble(single_layer(k), mesh, tol=1e-11, variant=1)
        assert abs(a_h0[0, 0] - a_h1[0, 0]) < 1e-10
        dh = DofFamily.gradient(mesh, 0)
        a_d0 = assemble(single_layer(k), dh, tol=1e-11, variant=0)
        a_d1 = assemble(single_layer(k), dh, tol=1e-11, variant=1)
        assert abs(a_d0[0, 0] - a_d1[0, 0]) < 1e-9


class TestKernelOracle:
    def test_requires_p0(self, p1_mesh):
        with pytest.raises(ValueError, match="P0"):
            kernel_oracle_single_layer(p1_mesh, WaveContext(1.0))

    def test_symmetric(self, p0_mesh8):
        oracle = kernel_oracle_single_layer(p0_mesh8, WaveContext(5.0))
        assert np.abs(oracle - oracle.T).max() == 0.0

    def test_far_pair_midpoint_expansion(self):
        # distant elements: entry = Phi(c_i, c_j) h^2 + O(h^4); check the order
        k = 1.0
        errs = []
        for h in (0.25, 0.125):
            mesh = build_mesh(make_screen(2, [(0.0, 4.0)]), h, "P0")
            oracle = kernel_oracle_single_layer(mesh, WaveContext(k))
            j = int(round(2.0 / h))          # center distance fixed at 2
            dist = abs(mesh.dof_points[j, 0] - mesh.dof_points[0, 0])
            approx = 0.25j * hankel1(0, k * dist) * h ** 2
            errs.append(abs(oracle[0, j] - approx))
        # fourth-order decay under h-halving (slack for higher terms)
        assert errs[1] < errs[0] / 10.0

    def test_n3_vs_spectral(self):
        screen = make_screen(3, [((0, 0), (1, 1))])
        mesh = build_mesh(screen, 0.5, "P0")
        ctx = WaveContext(2.0)
        sys_ = assemble_single_layer(mesh, ctx, tol=1e-9)
        oracle = kernel_oracle_single_layer(mesh, ctx)
        rel = np.abs(sys_.matrix - oracle) / np.abs(oracle)
        assert rel.max() < 1e-7

    def test_n3_off_lattice_vs_spectral(self):
        # the second rectangle sits off the h/2 lattice in x, so the x
        # offsets are keyed by value and their frequencies snapped
        s = np.sqrt(2.0) / 10
        screen = make_screen(3, [((0, 0), (0.5, 0.5)), ((0.5 + s, 0.25), (1 + s, 0.75))])
        mesh = build_mesh(screen, 0.25, "P0")
        ctx = WaveContext(2.0)
        sys_ = assemble_single_layer(mesh, ctx, tol=1e-9)
        oracle = kernel_oracle_single_layer(mesh, ctx)
        rel = np.abs(sys_.matrix - oracle) / np.abs(oracle)
        assert rel.max() < 1e-7

    def test_n3_dust_vs_spectral(self):
        # multi-box screen: element pairs with large center offsets
        from screenwave import cantor_prefractal

        screen = cantor_prefractal(3, 1, 1 / 3)
        mesh = build_mesh(screen, 1 / 3, "P0")
        ctx = WaveContext(3.0)
        sys_ = assemble_single_layer(mesh, ctx, tol=1e-9)
        oracle = kernel_oracle_single_layer(mesh, ctx)
        rel = np.abs(sys_.matrix - oracle) / np.abs(oracle)
        assert rel.max() < 1e-7

    def test_n3_dust_maue(self):
        from screenwave import cantor_prefractal

        screen = cantor_prefractal(3, 1, 1 / 3)
        mesh = build_mesh(screen, 1 / 6, "P1")   # one interior node per box
        ctx = WaveContext(4.0)
        sys_ = assemble_hypersingular(mesh, ctx, tol=1e-10)
        oracle = maue_oracle_hypersingular(mesh, ctx, tol=1e-10)
        rel = np.abs(sys_.matrix - oracle).max() / np.abs(sys_.matrix).max()
        assert rel < 1e-8


class TestCsvExport:
    def test_round_trip(self, tmp_path, p0_mesh8):
        sys_ = assemble_single_layer(p0_mesh8, WaveContext(2.0))
        path = tmp_path / "matrix.csv"
        export_matrix_csv(sys_.matrix, str(path))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "row,col,re,im"
        i, j, re, im = rows[1 + 3].split(",")   # entry (0,3)
        assert complex(float(re), float(im)) == sys_.matrix[0, 3]
