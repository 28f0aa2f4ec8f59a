import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from screenwave import build_mesh, cantor_prefractal, make_screen
from screenwave.spectral import (DofFamily, QuadratureError, SymbolQuadrature, assemble,
                                 bessel, build_quadrature, hypersingular, single_layer,
                                 symbol_Z, truncated_kernel_ft)
from screenwave.spectral import tails
from screenwave.spectral import engine
from screenwave.spectral.engine import _axis_keys
from screenwave.spectral.factors import AxisFactor, pair_terms, snap_frequencies
from screenwave.spectral.rules import gauss_legendre, gauss_panels
from screenwave.spectral.tails import expint, halfline_osc_integral

SQRT2PI = np.sqrt(2 * np.pi)
ROOT = Path(__file__).resolve().parents[1]


class TestSymbolZ:
    def test_at_origin(self):
        assert symbol_Z(0.0, 2.0) == pytest.approx(2.0)

    def test_branch_point(self):
        assert symbol_Z(3.0, 3.0) == 0.0

    def test_evanescent(self):
        assert symbol_Z(2.0, 1.0) == pytest.approx(1j * np.sqrt(3.0))

    def test_branch_invariant(self):
        xi = np.linspace(0, 10, 401)
        z = symbol_Z(xi, 3.0)
        assert np.all(z.real >= 0) and np.all(z.imag >= 0)
        both = (z.real > 0) & (z.imag > 0)
        assert not np.any(both)

    def test_planar_points(self):
        pts = np.array([[3.0, 4.0]])   # |xi| = 5
        assert symbol_Z(pts, 1.0)[0] == pytest.approx(1j * np.sqrt(24.0))


class TestBasisFT:
    def test_p0_at_zero(self):
        f = AxisFactor("box", 0.0, 1.0)
        assert f.value(0.0) == pytest.approx(1.0 / SQRT2PI)

    def test_p0_sinc_zero(self):
        f = AxisFactor("box", 0.0, 1.0)
        assert abs(f.value(2 * np.pi)) < 1e-15

    def test_p1_hat_area(self):
        f = AxisFactor("hat", 0.0, 1.0)
        assert f.value(0.0) == pytest.approx(1.0 / SQRT2PI)

    def test_conjugate_symmetry(self):
        f = AxisFactor("box", 0.37, 0.25)
        xi = np.linspace(-30, 30, 101)
        v = f.value(xi)
        assert np.allclose(v[::-1], np.conj(v), atol=1e-15)

    def test_zero_frequency_is_area(self):
        mesh = build_mesh(make_screen(3, [((0, 0), (1, 1))]), 0.25, "P0")
        (x, y), area = mesh.dof_points[0], mesh.h ** 2
        value = AxisFactor("box", x, mesh.h).value(0.0) * AxisFactor("box", y, mesh.h).value(0.0)
        assert value == pytest.approx(area / (2 * np.pi))

    def test_exp_terms_match_direct(self):
        for kind in ("box", "hat", "dhat"):
            f = AxisFactor(kind, 0.4, 0.125)
            p, terms = f.exp_terms()
            xi = np.linspace(2.0, 47.0, 23)
            recon = sum(a * np.exp(1j * w * xi) for a, w in terms) / xi ** p
            assert np.allclose(recon, f.value(xi), atol=1e-14)


class TestGaussLegendre:
    def test_cached_read_only_and_unchanged(self):
        x, w = gauss_legendre(12)
        x0, w0 = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x, x0) and np.array_equal(w, w0)
        assert gauss_legendre(12)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        nodes, weights = gauss_panels(np.array([0.0, 0.5, 2.0]), 12)
        assert nodes.flags.writeable and weights.flags.writeable
        assert np.array_equal(nodes[:12], 0.25 * x0 + 0.25)


class TestBuildQuadrature:
    def test_hypersingular_p0_rejected(self, p0_mesh8):
        with pytest.raises(ValueError, match="non-integrable"):
            build_quadrature(hypersingular(5.0), p0_mesh8)

    def test_panel_structure(self, p0_mesh8):
        quad_ = build_quadrature(single_layer(5.0), p0_mesh8, tol=1e-8)
        tags = [p.substitution for p in quad_.panels]
        assert tags == ["sin-sub", "cosh-sub", "plain"]
        assert quad_.panels[0].hi == pytest.approx(5.0)   # sin panel ends at k
        assert quad_.panels[1].lo == pytest.approx(5.0)   # cosh panel starts at k
        assert quad_.tail_bound <= 1e-8

    @pytest.mark.parametrize("symbol, mesh_name, tail_bound, nodes", [
        (single_layer(5.0), "p0_mesh8", 3.293879808069421e-13, [128, 176, 464]),
        (hypersingular(4.0), "p1_mesh", 4.019064219492307e-12, [96, 144, 496]),
    ])
    def test_plan_values_pinned(self, request, symbol, mesh_name, tail_bound, nodes):
        # X, panel node counts and the certified tail bound are exact functions
        # of (symbol, mesh, tol): any change of plan arithmetic shows here
        quad_ = build_quadrature(symbol, request.getfixturevalue(mesh_name))
        assert quad_.xi_max == 40.0
        assert [p.n_nodes for p in quad_.panels] == nodes
        assert quad_.tail_bound == tail_bound

    def test_parseval_gram(self, p0_mesh8):
        quad_ = build_quadrature(bessel(2.0, 0.0), p0_mesh8, tol=1e-10)
        g00 = quad_.matrix([0], [0])[0, 0]
        assert g00 == pytest.approx(p0_mesh8.h, abs=1e-10)

    def test_refinement_self_consistency(self, p0_mesh8):
        coarse = assemble(single_layer(5.0), p0_mesh8, tol=1e-6)
        fine = assemble(single_layer(5.0), p0_mesh8, tol=1e-12)
        assert np.abs(coarse - fine).max() < 1e-6

    def test_unreachable_tolerance_is_numerical_failure(self):
        from screenwave.spectral.tails import required_axis_Y

        q, c, wf, wg = pair_terms(AxisFactor("dhat", 0.5, 0.25),
                                  AxisFactor("dhat", 0.5, 0.25))
        with pytest.raises(QuadratureError, match="tolerance"):
            required_axis_Y(q, c, snap_frequencies(wf - wg, wf, wg)[None], other_abs=1.0,
                            budget=1e-40, has_subtracted=False)

    @pytest.mark.parametrize("a", [0.1, 5.0, 50.0, -3.0])
    def test_interval_plan_and_matrix_translation_invariant(self, a):
        # the rule resolves the offsets of a mesh, not where it sits
        kind = single_layer(10.0)
        base = build_mesh(make_screen(2, [(0.0, 1.0)]), 1 / 64, "P0")
        moved = build_mesh(make_screen(2, [(a, a + 1.0)]), 1 / 64, "P0")
        assert build_quadrature(kind, moved).w.size == build_quadrature(kind, base).w.size == 912
        assert np.array_equal(assemble(kind, moved), assemble(kind, base))

    def test_square_matrix_translation_invariant(self, unit_square):
        kind = single_layer(2.0)
        moved = make_screen(3, [((5.0, -3.0), (6.0, -2.0))])
        assert np.array_equal(assemble(kind, build_mesh(moved, 1 / 4, "P0")),
                              assemble(kind, build_mesh(unit_square, 1 / 4, "P0")))

    def test_translated_square_one_batch_of_axis_tables(self, unit_square, monkeypatch):
        """The other-axis envelope is taken at centre 0, so both axes of the
        square moved to (5, -3) read the unit square's value and share one
        batch of axis tables."""
        kind = single_layer(2.0)
        moved = make_screen(3, [((5.0, -3.0), (6.0, -2.0))])
        quad = build_quadrature(kind, build_mesh(moved, 1 / 4, "P0"))
        assert quad.other_abs[0] == quad.other_abs[1]
        unit = build_quadrature(kind, build_mesh(unit_square, 1 / 4, "P0"))
        assert quad.other_abs == unit.other_abs
        calls = []
        axis_tables = SymbolQuadrature._axis_tables

        def counted(self, axis, keys):
            calls.append(axis)
            return axis_tables(self, axis, keys)

        monkeypatch.setattr(SymbolQuadrature, "_axis_tables", counted)
        quad.matrix()
        assert calls == [0]


class TestSymbolIntegral:
    def test_parseval_unit_element(self):
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        quad_ = build_quadrature(bessel(1.0, 0.0), mesh, tol=1e-12)
        val = quad_.matrix([0], [0])[0, 0]
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_orthogonal(self, p0_mesh8):
        quad_ = build_quadrature(bessel(3.0, 0.0), p0_mesh8, tol=1e-11)
        assert abs(quad_.matrix([0], [5])[0, 0]) < 1e-11

    def test_single_layer_vs_brute_force(self):
        """Single element (0,1), k=1: independent real-line quadrature."""
        mesh = build_mesh(make_screen(2, [(0.0, 1.0)]), 1.0, "P0")
        k = 1.0

        def mod2(x):
            return np.sinc(x / (2 * np.pi)) ** 2 / (2 * np.pi)

        re = quad(lambda x: mod2(x) / np.sqrt(x * x - 1), 1, 60,
                  points=[1], limit=400)[0]
        re += quad(lambda x: mod2(x) / np.sqrt(x * x - 1), 60, np.inf,
                   limit=800)[0]
        im = quad(lambda x: mod2(x) / np.sqrt(1 - x * x), 0, 1, limit=200)[0]
        expected = re + 1j * im
        A = assemble(single_layer(k), mesh, tol=1e-10)
        assert A[0, 0] == pytest.approx(expected, abs=5e-9)

    def test_complex_symmetry(self, p0_mesh8):
        A = assemble(single_layer(4.0), p0_mesh8, tol=1e-10)
        assert np.abs(A - A.T).max() < 1e-12

    def test_entry_symmetry_under_index_swap(self, p0_mesh8):
        kind = single_layer(4.0)
        quad_ = build_quadrature(kind, p0_mesh8, tol=1e-10)
        a = quad_.matrix([1], [6])[0, 0]
        b = quad_.matrix([6], [1])[0, 0]
        assert abs(a - b) < 1e-12

    def test_sign_structure_single_layer(self, p0_mesh8, rng):
        A = assemble(single_layer(4.0), p0_mesh8, tol=1e-10)
        for _ in range(10):
            c = rng.standard_normal(p0_mesh8.n_dofs)
            q = np.vdot(c, A @ c)
            assert q.real >= -1e-12 and q.imag >= -1e-12

    def test_sign_structure_hypersingular(self, p1_mesh, rng):
        B = assemble(hypersingular(4.0), p1_mesh, tol=1e-10)
        for _ in range(10):
            c = rng.standard_normal(p1_mesh.n_dofs)
            q = np.vdot(c, B @ c)
            assert q.real <= 1e-12 and q.imag >= -1e-12

    def test_cross_family_assembly(self, p0_mesh8):
        fine = build_mesh(p0_mesh8.screen, p0_mesh8.h / 2, "P0")
        C = assemble(single_layer(3.0), fine, p0_mesh8, tol=1e-9)
        # prolongation consistency: coarse self-pairing equals summed cross rows
        A = assemble(single_layer(3.0), p0_mesh8, tol=1e-9)
        P = np.zeros((fine.n_dofs, p0_mesh8.n_dofs))
        for i in range(fine.n_dofs):
            P[i, i // 2] = 1.0
        assert np.abs(P.T @ C - A).max() < 1e-8


class TestTruncatedKernelFT:
    def test_closed_form_n3_origin(self):
        # int_0^1 e^{ir}/(4pi) dr = (e^i - 1)/(4pi i)
        val = truncated_kernel_ft(0.0, 1.0, 1.0, 0.0, n=3)
        expected = (np.exp(1j) - 1.0) / (4j * np.pi)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_conjugate_structure_n2(self):
        # cosine weight: the transform is even in xi
        a = truncated_kernel_ft(2.5, 1.0, 3.0, 0.0, n=2)
        b = truncated_kernel_ft(-2.5, 1.0, 3.0, 0.0, n=2)
        assert a == pytest.approx(b, abs=1e-13)

    def test_positive_at_center(self):
        v = truncated_kernel_ft(0.0, 1.0, 1.0, 0.0, n=2)
        assert abs(v) > 0

    def test_bound_shape_n3(self):
        # |Phi_L_hat| sqrt(k^2+xi^2) <= C (1 + sqrt(kL)) over a small grid
        L, vals = 1.0, []
        for k in (1.0, 4.0, 16.0, 64.0):
            for xi in (0.0, 0.5 * k, k, 2.0 * k):
                w = abs(truncated_kernel_ft(xi, L, k, 0.0, n=3))
                vals.append(w * np.sqrt(k * k + xi * xi) / (1 + np.sqrt(k * L)))
        vals = np.array(vals)
        assert vals.max() < 10 * vals.mean()   # a single constant fits


class TestExpint:
    def test_against_mpmath(self):
        """Both sides of the series/continued-fraction switch at |z| = 1 and of
        |z| = 8, integer orders and orders near, between and just off them."""
        import mpmath as mp

        mp.mp.dps = 30
        radii = [1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.999, 1.001, 3.0, 7.99, 8.01, 20.0, 40.0]
        m, z = [], []
        for n in range(1, 42):
            for order in (n, n + 0.5, n + 0.4, n - 0.4, n + 1e-3):
                m += [order] * len(radii)
                z += [-1j * r for r in radii]
        m, z = np.array(m), np.array(z)
        ref = np.array([complex(mp.expint(mp.mpf(a), mp.mpc(0.0, b.imag)))
                        for a, b in zip(m, z)])
        # z = -i nu X for nu of either sign; E_m(conj z) = conj E_m(z)
        got = expint(np.concatenate([m, m]), np.concatenate([z, z.conj()]))
        ref = np.concatenate([ref, ref.conj()])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_ladder_against_mpmath(self):
        """Orders m0 ... m0+24 from one start order per argument: the start
        below, inside and above the ladder, both recurrence directions and
        both sides of the series/continued-fraction switch."""
        import mpmath as mp

        mp.mp.dps = 30
        radii = np.array([1.0, 1.5, 3.0, 7.99, 8.01, 20.0, 40.0, 80.0])
        z = np.concatenate([-1j * radii, 1j * radii])
        for m0 in (3.0, 3.2, 2.6, 1.0 + 1e-3):
            got = tails._expint_ladder(np.full(z.size, m0), z, range(25))
            ref = np.array([[complex(mp.expint(mp.mpf(m0) + j, mp.mpc(0.0, b.imag)))
                             for j in range(25)] for b in z])
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_ladder_independent_of_batch_order(self, monkeypatch):
        """A permuted batch gives the same permutation of the result, bit for
        bit: on both sides of |z| = 1, for nu of either sign, at integer and
        non-integer start orders; also when the continued fractions run in
        chunks sorted by |z|."""
        rng = np.random.default_rng(5)
        radii = np.concatenate([rng.uniform(0.05, 0.999, 40), rng.uniform(1.0, 2.0, 40),
                                rng.uniform(2.0, 90.0, 80)])
        z = -1j * radii * rng.choice([-1.0, 1.0], radii.size)
        m0 = rng.choice([3.0, 1.0, 3.2, 2.6, 1.0 + 1e-3], radii.size)
        perm = rng.permutation(z.size)
        got = tails._expint_ladder(m0, z, range(9))
        assert np.array_equal(tails._expint_ladder(m0[perm], z[perm], range(9)), got[perm])
        monkeypatch.setattr(tails, "_CF_CHUNK", 16)
        assert np.array_equal(tails._expint_ladder(m0, z, range(9)), got)
        assert np.array_equal(tails._expint_ladder(m0[perm], z[perm], range(9)), got[perm])

    def test_read_rungs_equal_the_full_ladder(self):
        """Rungs 0, 2, ..., 8 of a 9-rung ladder, the series evaluated at
        those alone, are the same columns of the full ladder bit for bit."""
        rng = np.random.default_rng(6)
        radii = np.concatenate([rng.uniform(0.01, 0.999, 60), rng.uniform(1.0, 30.0, 60)])
        z = -1j * radii * rng.choice([-1.0, 1.0], radii.size)
        m0 = np.full(z.size, 3.0)
        full = tails._expint_ladder(m0, z, range(9))
        assert np.array_equal(tails._expint_ladder(m0, z, [0, 2, 4, 6, 8]), full[:, ::2])

    def test_kernels_match_reference_loops(self):
        """The blocked continued fraction and the tabled power series give,
        bit for bit, what a test after every Lentz iteration and a term-by-
        term series loop give."""
        def cf_loop(m, z, maxiter=400):
            m, z = m.astype(np.longdouble), z.astype(np.clongdouble)
            out = np.empty(z.shape, dtype=np.clongdouble)
            idx = np.arange(z.size)
            b = z + m
            c = np.full(z.shape, 1e300, dtype=np.clongdouble)
            d = 1.0 / b
            h = d
            for i in range(1, maxiter):
                a = -i * (m - 1.0 + i)
                b = b + 2.0
                d = 1.0 / (a * d + b)
                c = b + a / c
                delta = c * d
                h = h * delta
                done = np.abs(delta - 1.0) < tails._CF_EPS
                out[idx[done]] = h[done] * np.exp(-z[done])
                live = ~done
                idx, m, z, b, c, d, h = (x[live] for x in (idx, m, z, b, c, d, h))
                if not idx.size:
                    return out

        def series_loop(m, z):
            n, e, g = np.array([tails._order_terms(float(v)) for v in m]).T
            ratio = np.where(e == 0.0, np.log(z) + g,
                             np.expm1(e * (np.log(z) + g)) / np.where(e == 0.0, 1.0, e))
            term, pole, total, k = np.ones_like(z), np.zeros_like(z), np.zeros_like(z), 0
            while True:
                at_pole = k == n - 1.0
                pole = np.where(at_pole, term, pole)
                total = total + np.where(at_pole, 0.0,
                                         term / np.where(at_pole, 1.0, k + 1.0 - m))
                k += 1
                term = term * (-z / k)
                if k >= n.max() and np.max(np.abs(term)) < 1e-22:
                    return -pole * ratio - total

        rng = np.random.default_rng(11)
        m = rng.choice([1.0, 3.0, 3.2, 2.6, 1.0 + 1e-3, 7.5, 24.0], 300).astype(np.longdouble)
        z = -1j * rng.uniform(1.0, 90.0, 300) * rng.choice([-1.0, 1.0], 300)
        z = z.astype(np.clongdouble)
        assert np.array_equal(tails._expint_cf(m, z), cf_loop(m, z))
        z = (z / 90.0 * rng.uniform(0.0, 1.0, 300)).astype(np.clongdouble)
        assert np.array_equal(tails._expint_series(m, z), series_loop(m, z))

    def test_order_terms_integer_orders_exact(self):
        from scipy.special import digamma

        for n in range(1, 42):
            assert tails._order_terms(float(n)) == (float(n), 0.0, -digamma(float(n)))

    def test_order_terms_non_integer_orders(self):
        """Off the integers, (n, e, g) from the log-gamma quotient (|e| >= 1/4)
        or its series in e, as written out here."""
        from math import floor, log1p

        from scipy.special import digamma, gammaln, zeta

        def reference(m):
            n = max(1.0, floor(m + 0.5))
            e = m - n
            if abs(e) >= 0.25:
                return n, e, (gammaln(1.0 - e) - sum(log1p(e / j) for j in range(1, int(n)))) / e
            g, ek = -digamma(n), e
            for k in range(2, 30):
                g += (zeta(k, n) if k % 2 else 2.0 * zeta(k) - zeta(k, n)) * ek / k
                ek *= e
            return n, e, g

        for n in range(1, 42):
            for m in (n - 1e-3, n + 1e-3, n + 0.4):
                assert tails._order_terms(m) == reference(m)

    def test_unconverged_continued_fraction_raises(self):
        m, z = np.array([3.0, 1.5]), np.array([-1.5j, 1.5j])
        with pytest.raises(QuadratureError, match=r"continued fraction.*\|z\| = 1\.5"):
            tails._expint_cf(m, z, maxiter=20)
        assert np.all(np.isfinite(tails._expint_cf(m, z)))

    def test_unconverged_power_series_raises(self):
        m, z = np.array([3.0, 41.0]), np.array([-0.9j, 0.5j])
        with pytest.raises(QuadratureError, match=r"power series.*m = 41"):
            tails._expint_series(m, z, maxterms=20)
        with pytest.raises(QuadratureError, match=r"power series.*\|z\| = 5"):
            tails._expint_series(np.array([3.0]), np.array([5.0j]), maxterms=20)

    def test_divergent_dc_tail_raises(self):
        for m in (1.0, 0.5):
            with pytest.raises(ValueError, match="divergent"):
                halfline_osc_integral(m, 0.0, 40.0)
        with pytest.raises(ValueError, match="divergent"):
            halfline_osc_integral(np.array([3.0, 1.0]), np.array([0.5, 0.0]), 40.0)


@pytest.fixture(autouse=True)
def _no_memo_ladders():
    """Every test starts from an empty ladder memo, so that no count of
    ladder evaluations depends on the tests run before it."""
    tails._LADDERS.clear()


def _line_plan(kind, rows, cols=None, tol=1e-10):
    return SymbolQuadrature(kind, rows, rows if cols is None else cols, tol)


def _line_keys(quad):
    """The offset keys ``matrix()`` evaluates the table at."""
    (keys, _), = quad._offset_keys()
    return keys


def _per_key_tails(quad, deltas):
    """Each key's snapped pair terms, those of equal frequency merged, and
    one half-line integral per (order, term)."""
    out = []
    for d in deltas:
        f = AxisFactor(quad.rows.kinds[0], float(d), quad.rows.h[0])
        q, c, wf, wg = pair_terms(f, quad.cols.factor(0))
        merged = {}
        for ct, nu in zip(c, snap_frequencies(wf - wg, wf, wg)):
            merged[nu] = merged.get(nu, 0.0) + ct
        nu = np.array(sorted(merged))
        coef, p = np.array(quad.sigma_terms).T
        vals = halfline_osc_integral(q - p[:, None], nu, quad.xi_max)
        out.append(coef @ (vals + (-1.0) ** q * vals.conj()) @ np.array([merged[v] for v in nu]))
    return np.array(out)


def _line_mesh(h, kind):
    return DofFamily.of(build_mesh(make_screen(2, [(0.0, 1.0)]), h, kind))


def _cantor_mesh(level, h):
    return DofFamily.of(build_mesh(cantor_prefractal(2, level, 1 / 3), h, "P0"))


def _parts_mesh(parts, h):
    return DofFamily.of(build_mesh(make_screen(2, parts), h, "P0"))


_SHIFT = 0.3 + np.sqrt(2.0) / 10
_OFF_LATTICE = [(0.0, 0.3125), (_SHIFT, _SHIFT + 0.5)]     # second part off the h/2 lattice
_SPARSE = [(0.0, 1 / 16), (50.0, 50.0 + 1 / 16)]           # offsets up to 25,630 h/2
_TRANSLATED = [(0.1, 1.1)]                                  # centres off the h/2 lattice

_LINE_CASES = [
    (single_layer(16.0), ("line", 1 / 256, "P0"), None, 1e-10),
    (hypersingular(10.0), ("line", 1 / 256, "P1"), None, 1e-10),
    (bessel(10.0, -0.5), ("line", 1 / 256, "P1"), None, 1e-10),
    (bessel(10.0, 0.5), ("line", 1 / 256, "P1"), None, 1e-10),
    (single_layer(28.0), ("cantor", 4, 3.0 ** -4 / 8), None, 1e-9),
    (bessel(28.0, -0.5), ("cantor", 4, 3.0 ** -4 / 8), None, 1e-9),
    (single_layer(3.0), ("line", 1 / 16, "P0"), ("line", 1 / 8, "P0"), 1e-9),
    (hypersingular(4.0), ("line", 1 / 6, "P1"), None, 1e-10),
    (bessel(4.0, -0.5), ("line", 1 / 6, "P1"), None, 1e-10),
    (bessel(16.0, -0.5), ("line", 1 / 256, "P0"), None, 1e-10),
    (single_layer(10.0), ("parts", _OFF_LATTICE, 1 / 64), None, 1e-10),
    (single_layer(10.0), ("parts", _SPARSE, 1 / 256), None, 1e-10),
    (single_layer(10.0), ("parts", _TRANSLATED, 1 / 64), None, 1e-10),
]


def _case_plan(kind, rows, cols, tol):
    def dofs(spec):
        make = {"line": _line_mesh, "cantor": _cantor_mesh, "parts": _parts_mesh}
        return make[spec[0]](*spec[1:])

    return _line_plan(kind, dofs(rows), None if cols is None else dofs(cols), tol)


class TestLineFiniteTable:
    @pytest.mark.parametrize("kind, rows, cols, tol", _LINE_CASES)
    def test_against_direct_cosines(self, kind, rows, cols, tol):
        """The factored table against one cosine per (key, node)."""
        quad = _case_plan(kind, rows, cols, tol)
        keys = _line_keys(quad)
        f, g = quad.rows.factor(0), quad.cols.factor(0)
        xi = quad.nodes[0]
        wP = quad.w * (f.value(xi) * np.conj(g.value(xi))).real
        ref = 2.0 * np.cos(np.outer(keys.delta, xi)) @ wP
        assert np.abs(quad._finite_table([keys]) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_off_lattice_family_has_no_sine_block(self):
        quad = _case_plan(single_layer(10.0), ("parts", _OFF_LATTICE, 1 / 64), None, 1e-10)
        keys = _line_keys(quad)
        assert keys.j is None
        assert np.array_equal(keys.hi, keys.delta) and np.array_equal(keys.lo, [0.0])

    def test_sparse_lattice_tabulates_present_keys(self, monkeypatch):
        """Two parts 50 apart: the offsets span 12,816 lattice points in units
        of h (P0 offsets are even multiples of h/2), of which the block holds
        47.  Tails are asked for those only, and the finite grid keeps only
        the rows that hold one: 2 rows of 114."""
        quad = _case_plan(single_layer(10.0), ("parts", _SPARSE, 1 / 256), None, 1e-10)
        c = quad.rows.centers[:, 0]
        j = np.rint(np.abs(np.subtract.outer(c, c)) / (quad.rows.h[0] / 2)).astype(int)
        present = np.unique(j)
        keys = _line_keys(quad)
        assert np.array_equal(keys.j, present) and j.max() == 25_630
        assert (keys.hi.size, keys.lo.size) == (2, 114)
        rows_asked = []
        profile_tails = engine.profile_tails

        def counted(c_t, nu, *args):
            rows_asked.append(nu.shape[0])
            return profile_tails(c_t, nu, *args)

        monkeypatch.setattr(engine, "profile_tails", counted)
        quad.matrix()
        assert rows_asked == [present.size]


class TestOffsetKeys:
    def test_one_key_per_lattice_offset(self):
        """Cantor level 7 (h = 3^-8): rounding the offsets to 12 digits split
        the lattice offset j = 3266 (units of h/2) into two keys evaluated an
        ulp apart.  Integer keys give one key per offset, and every entry at
        one offset is the same table value: translation invariance, bit for
        bit."""
        quad = _line_plan(single_layer(20.0), _cantor_mesh(7, 3.0 ** -8), tol=1e-9)
        c = quad.rows.centers[:, 0]
        delta = np.abs(np.subtract.outer(c, c))
        j = np.rint(delta / (quad.rows.h[0] / 2)).astype(int).ravel()
        n_offsets = np.unique(j).size
        assert np.unique(np.round(delta, 12)).size == n_offsets + 1
        assert _line_keys(quad).delta.size == n_offsets
        order = np.argsort(j, kind="stable")
        js, vals = j[order], quad.matrix().ravel()[order]
        first = np.r_[True, js[1:] != js[:-1]]
        assert np.array_equal(vals, vals[first][np.cumsum(first) - 1])

    def test_translated_mesh_keys_on_lattice(self):
        """The interval [0.1, 1.1] at h = 1/64: no centre is a multiple of
        h/2, every offset is.  The lattice test reads the offsets, so the
        mesh keeps integer keys: its key set is the one of [0, 1]."""
        quad = _case_plan(single_layer(10.0), ("parts", _TRANSLATED, 1 / 64), None, 1e-10)
        keys = _line_keys(quad)
        assert keys.j is not None
        ref = _line_keys(_case_plan(single_layer(10.0), ("line", 1 / 64, "P0"), None, 1e-10))
        assert np.array_equal(keys.j, ref.j) and np.array_equal(keys.delta, ref.delta)

    @pytest.mark.parametrize("n, kind", [(2, "P0"), (2, "P1"), (3, "P0"), (3, "P1")])
    def test_family_from_mesh(self, n, kind):
        """``DofFamily.of`` and ``DofFamily.gradient``: one kind and h per
        axis and the mesh's dof points as centres."""
        screen = make_screen(2, [(0.0, 1.0)]) if n == 2 else \
            make_screen(3, [((0.0, 0.0), (1.0, 0.5))])
        mesh = build_mesh(screen, 1 / 8, kind)
        d = n - 1
        fam = DofFamily.of(mesh)
        assert fam.kinds == ("box" if kind == "P0" else "hat",) * d
        assert fam.h == (mesh.h,) * d
        assert np.array_equal(fam.centers, mesh.dof_points)
        if kind == "P0":
            with pytest.raises(ValueError, match="P1"):
                DofFamily.gradient(mesh, 0)
            return
        expected = [("dhat",)] if d == 1 else [("dhat", "hat"), ("hat", "dhat")]
        for axis, kinds in enumerate(expected):
            grad = DofFamily.gradient(mesh, axis)
            assert grad.kinds == kinds and grad.h == fam.h
            assert np.array_equal(grad.centers, mesh.dof_points)


class TestLineTailTable:
    @pytest.mark.parametrize("kind, rows, cols, tol", _LINE_CASES)
    def test_against_per_key_profiles(self, kind, rows, cols, tol):
        quad = _case_plan(kind, rows, cols, tol)
        keys = _line_keys(quad)
        scale = np.abs(quad.matrix()).max()
        assert np.abs(quad._tail_table([keys]) - _per_key_tails(quad, keys.delta)).max() \
            <= 1e-12 * scale

    def test_off_lattice_family(self):
        """One centre off the h/2 lattice sends every key through the
        subtraction path; keys at h and 2h then meet terms whose frequency
        is zero up to rounding, which must snap to the DC term.  Near order
        1 (G(1.45) on hats: m_0 = 1.1) E_m(z) ~ z^{m-1} Gamma(1-m) + 1/(m-1)
        is far from the DC value at a rounding-sized z."""
        h = 1 / 6
        centres = [h, 2 * h, 3 * h, 0.5 + 0.1 / np.pi, 5 * h]
        dofs = DofFamily(("hat",), (h,), np.array(centres)[:, None])
        for kind in (hypersingular(4.0), bessel(4.0, -0.5), bessel(4.0, 1.45)):
            quad = _line_plan(kind, dofs)
            keys = _line_keys(quad)
            scale = np.abs(quad.matrix()).max()
            assert np.abs(quad._tail_table([keys]) - _per_key_tails(quad, keys.delta)).max() \
                <= 1e-12 * scale

    def test_one_continued_fraction_per_lattice_frequency(self, monkeypatch):
        calls = []
        cf = tails._expint_cf

        def counted(m, z):
            calls.append(z.size)
            return cf(m, z)

        monkeypatch.setattr(tails, "_expint_cf", counted)
        assemble(single_layer(28.0), _cantor_mesh(4, 3.0 ** -4 / 8), tol=1e-9)
        assert 0 < sum(calls) <= 650

    def test_level8_tails_against_mpmath(self):
        """Cantor level 8: h X = 0.0025, so a P0 tail (a second difference in
        nu) amplifies an inconsistency between one key's frequencies about
        1.6e5-fold.  Reference: the same sum at dps 40 with exact
        frequencies."""
        import mpmath as mp

        mp.mp.dps = 40
        h = 3.0 ** -9
        quad = _line_plan(single_layer(20.0), _cantor_mesh(8, h), tol=1e-9)
        j = np.array([0, 310, 6312, 9890])
        keys, _ = _axis_keys(np.zeros(1), j * h, quad.rows.factor(0), quad.cols.factor(0))
        got = quad._tail_table([keys])
        scale = np.abs(quad.matrix()).max()
        terms = [(complex(a * np.conj(b)), wf, wg)
                 for a, wf in quad.rows.factor(0).exp_terms()[1]
                 for b, wg in quad.cols.factor(0).exp_terms()[1]]
        X = mp.mpf(quad.xi_max)
        for jj, value in zip(j, got):
            ref = mp.mpc(0)
            for c, wf, wg in terms:
                nu = mp.mpf(wf) - mp.mpf(int(jj)) * mp.mpf(h) - mp.mpf(wg)
                for coef, p in quad.sigma_terms:
                    m = 2 - mp.mpf(p)
                    if nu == 0:
                        v = 2 * X ** (1 - m) / (m - 1)
                    else:
                        e = mp.expint(m, mp.mpc(0, -1) * nu * X)
                        v = X ** (1 - m) * (e + mp.conj(e))
                    ref += mp.mpf(coef) * mp.mpc(c) * v
            assert abs(complex(ref) - value) <= 1e-13 * scale


class TestHistoryIndependence:
    @staticmethod
    def _counted_ladders(monkeypatch) -> list:
        rungs = []
        ladder = tails._expint_ladder

        def counted(m0, z, r):
            rungs.append(tuple(r))
            return ladder(m0, z, r)

        monkeypatch.setattr(tails, "_expint_ladder", counted)
        return rungs

    def test_memo_hit_equals_fresh_assembly(self, monkeypatch):
        """S at k=5 on the N=256 interval, fresh and after G(-1/2) and S at
        k=7 and k=13 (X = 40 throughout): the second reads S(7)'s ladder."""
        mesh = _line_mesh(1 / 256, "P0")
        fresh = assemble(single_layer(5.0), mesh)
        tails._LADDERS.clear()
        for k in (7.0, 13.0):
            assemble(bessel(k, -0.5), mesh)
            assemble(single_layer(k), mesh)
        rungs = self._counted_ladders(monkeypatch)
        assert np.array_equal(assemble(single_layer(5.0), mesh), fresh)
        assert rungs == []

    def test_hit_is_never_a_slice_of_a_longer_ladder(self):
        """Cantor level 4 at k=28 (X = 70): S reads 5 rungs of a 9-rung
        ladder and G(-1/2) 8 rungs of a 15-rung one.  The first 9 rungs of
        the longer ladder differ from the shorter ladder in the last bits of
        most rows, since the continued fractions start at orders clipped to
        the ladder; the memo keeps both, each equal to a fresh evaluation."""
        mesh = _cantor_mesh(4, 3.0 ** -4 / 8)
        assemble(bessel(28.0, -0.5), mesh, tol=1e-9)
        assemble(single_layer(28.0), mesh, tol=1e-9)
        freq, X, ladders = tails._LADDERS.held
        (m0, short), (_, long) = sorted(ladders, key=lambda key: len(key[1]))
        assert (short, long) == (tuple(range(0, 9, 2)), tuple(range(0, 15, 2)))
        assert np.array_equal(ladders[m0, short], tails._fresh_ladder(m0, freq, X, short))
        assert not np.array_equal(ladders[m0, short], ladders[m0, long][:, :len(short)])

    def test_one_ladder_per_rung_set_over_a_k_sweep(self, monkeypatch):
        mesh = _line_mesh(1 / 256, "P0")
        ks = np.linspace(4.0, 16.0, 13)
        orders = {_line_plan(single_layer(k), mesh).M for k in ks}
        rungs = self._counted_ladders(monkeypatch)
        for k in ks:
            assemble(single_layer(k), mesh)
        assert sorted(rungs) == [tuple(range(0, 2 * M + 1, 2)) for M in sorted(orders)]

    def test_new_frequencies_drop_the_old_ladders(self):
        assemble(single_layer(5.0), _line_mesh(1 / 256, "P0"))
        old = list(tails._LADDERS.held[2].values())
        assemble(single_layer(5.0), _line_mesh(1 / 128, "P0"))
        (key, ladder), = tails._LADDERS.held[2].items()
        assert key[1] == (0, 2, 4, 6) and not any(ladder is L for L in old)

    def test_new_split_radius_drops_the_old_ladders(self):
        """Cantor level 4 at k = 26 and k = 30: X = 65 and 75, so the memo
        holds the ladders of the second assembly only."""
        mesh = _cantor_mesh(4, 3.0 ** -4 / 8)
        assemble(single_layer(26.0), mesh, tol=1e-9)
        assemble(single_layer(30.0), mesh, tol=1e-9)
        _, X, ladders = tails._LADDERS.held
        assert X == 75.0 and len(ladders) == 1

    def test_no_ladder_above_the_budget(self, monkeypatch):
        mesh = _line_mesh(1 / 256, "P0")
        assemble(single_layer(5.0), mesh)
        (ladder,) = tails._LADDERS.held[2].values()
        assert not ladder.flags.writeable
        tails._LADDERS.clear()
        monkeypatch.setattr(tails, "_TABLE_CELLS", ladder.size - 1)
        A = assemble(single_layer(5.0), mesh)
        assert tails._LADDERS.held[2] == {}
        # a second ladder that would take the memo past the budget
        monkeypatch.setattr(tails, "_TABLE_CELLS", ladder.size + 1)
        assemble(single_layer(5.0), mesh)
        assemble(single_layer(13.0), mesh)
        assert [L.shape for L in tails._LADDERS.held[2].values()] == [ladder.shape]
        assert np.array_equal(assemble(single_layer(5.0), mesh), A)

    def test_cantor_assembly_bit_identical_after_other_k(self):
        # a fresh process against one that assembled another k first
        mesh = build_mesh(cantor_prefractal(2, 3, 1 / 3), 3.0 ** -3 / 8, "P0")
        assemble(single_layer(29.0), mesh, tol=1e-9)
        after = assemble(single_layer(27.0), mesh, tol=1e-9)
        code = ("import sys, numpy as np\n"
                "from screenwave import build_mesh, cantor_prefractal\n"
                "from screenwave.spectral import assemble, single_layer\n"
                "mesh = build_mesh(cantor_prefractal(2, 3, 1 / 3), 3.0 ** -3 / 8, 'P0')\n"
                "A = assemble(single_layer(27.0), mesh, tol=1e-9)\n"
                "sys.stdout.buffer.write(A.tobytes())\n")
        src = str(ROOT / "src")
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert np.array_equal(np.frombuffer(fresh, dtype=complex).reshape(after.shape),
                              after)


def test_n3_p1_off_dyadic_block(rng):
    """h = 1/6 puts hat centres off the binary lattice; equal frequencies then
    differ by rounding and must merge into the DC term for the axis tails."""
    mesh = build_mesh(make_screen(3, [((0.0, 0.0), (1.0, 1.0))]), 1.0 / 6.0, "P1")
    fam = DofFamily.of(mesh)
    rows = replace(fam, centers=fam.centers[:6])
    B = assemble(hypersingular(2.0), rows, rows, tol=1e-8)
    assert np.all(np.isfinite(B))
    assert np.abs(B - B.T).max() <= 1e-10 * np.abs(B).max()
    c = rng.standard_normal(6)
    q = np.vdot(c, B @ c)
    assert q.real <= 1e-10 and q.imag >= -1e-10


def test_n3_square_p0_h16_assembles(unit_square, rng):
    """N = 256 dofs against a plane rule of about 1.1e6 nodes: assembly
    memory is set by the offset table and its node batches, not by N x Q."""
    mesh = build_mesh(unit_square, 1.0 / 16.0, "P0")
    A = assemble(single_layer(5.0), mesh, tol=1e-10)
    assert A.shape == (256, 256)
    assert np.all(np.isfinite(A))
    assert np.array_equal(A, A.T)
    for _ in range(10):
        c = rng.standard_normal(mesh.n_dofs)
        q = np.vdot(c, A @ c)
        assert q.real >= -1e-12 and q.imag >= -1e-12


def test_family_must_have_one_kind_and_h_per_axis():
    for h, centers in [((0.25, 0.25), np.array([[0.5]])),     # one h per kind
                       ((0.25,), np.array([[0.5, 0.75]])),    # an extra centre column
                       ((0.25,), np.array([0.5])),            # not (N, d)
                       ((0.25,), np.zeros((0, 1))),           # no dof
                       ((0.25,), np.array([[1]])),            # not float
                       ((0.25,), [[0.5]]),                    # not an array
                       ((0.25,), np.array([[np.nan]])),
                       ((0.25,), np.array([[np.inf]]))]:
        with pytest.raises(ValueError):
            DofFamily(("box",), h, centers)
    box = DofFamily(("box",), (0.25,), np.array([[0.5]]))
    with pytest.raises(ValueError, match="share"):
        assemble(single_layer(2.0), box, DofFamily(("hat",), (0.25,), np.array([[0.5]])))
    with pytest.raises(TypeError, match="DofFamily"):
        assemble(single_layer(2.0), [(AxisFactor("box", 0.5, 0.25),)])


class TestPlaneGramExact:
    """n=3 Gram matrices with closed forms: the symbol (k^2 + |xi|^2)^s at
    s = 0 and s = 1 gives the mass and stiffness products of the 1-D hat
    matrices M1 = h [2/3, 1/6] and K1 = [2/h, -1/h], and h^2 I on boxes.
    Their tails run through the p = 0 and p = 2 branches of the tensor tail."""

    @staticmethod
    def _hat_1d(mesh, diag, off):
        # per axis, the 1-D entry at offset 0, h or more
        p = mesh.dof_points
        j = np.rint(np.abs(p[:, None, :] - p[None, :, :]) / mesh.h)
        return np.where(j == 0, diag, np.where(j == 1, off, 0.0)).transpose(2, 0, 1)

    @pytest.mark.parametrize("h", [1 / 4, 1 / 2])
    @pytest.mark.parametrize("s, k", [(0.0, 2.0), (1.0, 2.0), (1.0, 5.0)])
    def test_p1_gram(self, unit_square, h, s, k):
        mesh = build_mesh(unit_square, h, "P1")
        mx, my = self._hat_1d(mesh, 2 * h / 3, h / 6)
        kx, ky = self._hat_1d(mesh, 2 / h, -1 / h)
        exact = mx * my if s == 0.0 else k * k * mx * my + kx * my + mx * ky
        G = assemble(bessel(k, s), mesh)
        assert np.abs(G - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("h", [1 / 4, 1 / 2])
    def test_p0_gram(self, unit_square, h):
        mesh = build_mesh(unit_square, h, "P0")
        G = assemble(bessel(2.0, 0.0), mesh)
        assert np.abs(G - h * h * np.eye(mesh.n_dofs)).max() <= 1e-12 * h * h


def test_matrix_cases_build_families_without_plans(monkeypatch):
    """``tools/matrix_cases.py`` builds its case list through the library
    API: 33 uniquely named cases of ``DofFamily`` rows and columns with
    matching kinds, and no quadrature plan until ``dump``."""
    spec = importlib.util.spec_from_file_location("matrix_cases",
                                                  ROOT / "tools" / "matrix_cases.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def no_plan(*args, **kwargs):
        raise AssertionError("the case list built a plan")

    monkeypatch.setattr(SymbolQuadrature, "__init__", no_plan)
    cases = tool._cases()
    names = [case[0] for case in cases]
    assert len(names) == len(set(names)) == 33
    for _, _, rows, cols, _, _ in cases:
        assert isinstance(rows, DofFamily)
        assert cols is None or (isinstance(cols, DofFamily) and cols.kinds == rows.kinds)
