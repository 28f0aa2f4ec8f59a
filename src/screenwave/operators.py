"""Galerkin matrices for the single-layer and hypersingular operators.

The production path assembles every entry from the Fourier-symbol
representation.  Two independent anchors guard it:

* a spatial kernel quadrature for the single-layer operator, reduced through
  the element-pair correlation function (so the 2h-fold integrals collapse to
  one or two dimensions with explicit log/1-r treatment), and
* the flat-screen surface-derivative identity for the hypersingular operator,
  T-pairing = k^2 * S[hats] - sum_m S[d_m hats], evaluated with an
  independently parameterized symbol rule.

Oracle paths are deliberately slower and meant for small meshes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.special import hankel1, j0

from .geometry import Mesh
from .sobolev import GramMatrix, WaveContext, gram
from .spectral import DofFamily, assemble, hypersingular, single_layer
from .spectral.rules import gauss_panels, split_interval


@dataclass
class GalerkinSystem:
    """Pairing matrix with its wavenumber context and energy-space Gram.

    The LU factor, the Gram matrix, and the pencil (A, G) whitened by its
    Cholesky factor, are built on first read: a solve needs only the first,
    and every later solve against the system reuses it.  ``point_map`` is a
    memo slot of the solver: (key, map) for the last point set whose field
    map it kept, or None.
    """

    kind: str                    # "single_layer" | "hypersingular"
    matrix: np.ndarray           # complex symmetric, A[i,j] = a(phi_j, phi_i)
    mesh: Mesh
    ctx: WaveContext
    tol: float
    point_map: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @functools.cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """``scipy.linalg.lu_factor`` of the matrix, and whether every entry
        of the factor is finite (checked once, when it is formed)."""
        lu, piv = sla.lu_factor(self.matrix)
        return lu, piv, bool(np.all(np.isfinite(lu)))

    @functools.cached_property
    def gram(self) -> GramMatrix:
        """Gram matrix of the energy space of the basis: H^{-1/2}_k for the
        single-layer system, H^{+1/2}_k for the hypersingular one."""
        s = -0.5 if self.kind == "single_layer" else 0.5
        return gram(self.mesh, s, self.ctx, tol=self.tol)

    @functools.cached_property
    def whitened(self) -> np.ndarray:
        """W = L^{-1} A L^{-H} with G = L L^H: the pencil (A, G) as one matrix.

        The standard eigen- and singular values of W are the generalized ones
        of the pencil, and y -> L^{-H} y maps unit vectors to G-unit ones.
        """
        L = self.gram.cholesky()
        W = sla.solve_triangular(L, self.matrix, lower=True)
        return sla.solve_triangular(L, W.conj().T, lower=True).conj().T

    def quadratic_form(self, c: np.ndarray) -> complex:
        """a(phi_c, phi_c) with explicit conjugation of the test coefficients."""
        c = np.asarray(c, dtype=complex)
        return complex(np.vdot(c, self.matrix @ c))

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_dofs


def assemble_single_layer(mesh: Mesh, ctx: WaveContext,
                          tol: float = 1e-10) -> GalerkinSystem:
    """A_ij = (i/2) int Z^{-1} fhat_i conj(fhat_j); requires a P0 mesh."""
    if mesh.basis_kind != "P0":
        raise ValueError("single-layer systems are discretized with P0 bases")
    A = assemble(single_layer(ctx.k), mesh, tol=tol)
    return GalerkinSystem("single_layer", A, mesh, ctx, tol)


def assemble_hypersingular(mesh: Mesh, ctx: WaveContext,
                           tol: float = 1e-10) -> GalerkinSystem:
    """B_ij = (i/2) int Z fhat_i conj(fhat_j); requires a P1 mesh."""
    if mesh.basis_kind != "P1":
        raise ValueError(
            "hypersingular systems need an H~(1/2)-conforming (P1) basis; "
            "the P0 integrand has a non-integrable tail"
        )
    B = assemble(hypersingular(ctx.k), mesh, tol=tol)
    return GalerkinSystem("hypersingular", B, mesh, ctx, tol)


def maue_oracle_hypersingular(mesh: Mesh, ctx: WaveContext,
                              tol: float = 1e-10) -> np.ndarray:
    """k^2 S[hats] - sum_m S[d_m hats] on an independent symbol rule.

    The k^2 prefactor amplifies the hat-block quadrature error, so that block
    is assembled at a tolerance tightened by the same factor.
    """
    if mesh.basis_kind != "P1":
        raise ValueError("the surface-derivative identity needs a P1 mesh")
    k = ctx.k
    tol_h = max(tol / max(1.0, k * k), 1e-13)
    out = k * k * assemble(single_layer(k), mesh, tol=tol_h, variant=1)
    for axis in range(mesh.dim_screen):
        out -= assemble(single_layer(k), DofFamily.gradient(mesh, axis), tol=tol / 2.0,
                        variant=1)
    return out


# ---------------------------------------------------------------------------
# spatial kernel oracle for the single-layer operator
# ---------------------------------------------------------------------------
def _smooth_part_2d(k: float, t: np.ndarray) -> np.ndarray:
    """(i/4)H0(kt) + (1/2pi) ln(t) J0(kt): analytic in t^2."""
    return 0.25j * hankel1(0, k * t) + np.log(t) * j0(k * t) / (2.0 * np.pi)


def _interval_correlation_breaks(a1, b1, a2, b2):
    pts = {abs(a2 - b1), abs(b2 - b1), abs(a2 - a1), abs(b2 - a1), 0.0}
    return sorted(pts)


def _interval_correlation(a1, b1, a2, b2, t: np.ndarray) -> np.ndarray:
    def c(u):
        return np.maximum(0.0, np.minimum(b2, b1 + u) - np.maximum(a2, a1 + u))
    return c(t) + c(-t)


def _log_weighted(fn, lo: float, hi: float, order: int = 12) -> complex:
    """int_lo^hi ln(t) fn(t) dt with geometric grading toward lo = 0."""
    if lo > 0:
        t, w = gauss_panels(split_interval(lo, hi, (hi - lo) / 8.0), order)
        return complex(np.sum(w * np.log(t) * fn(t)))
    breaks = hi * 0.2 ** np.arange(26, -1, -1.0)
    t, w = gauss_panels(np.concatenate([[0.0], breaks]), order)
    return complex(np.sum(w * np.log(t) * fn(t)))


def kernel_oracle_single_layer(mesh: Mesh, ctx: WaveContext) -> np.ndarray:
    """Spatial double integrals of the fundamental solution over element pairs.

    n=2 entries reduce exactly to 1-D integrals of (i/4)H0(k t) against the
    piecewise-linear pair correlation; the t=0 log singularity is split off
    analytically.  n=3 entries use the 2-D correlation with polar quadrature
    around the 1/r point (modest dof counts only).
    """
    if mesh.basis_kind != "P0":
        raise ValueError("the kernel oracle covers the P0 single-layer system")
    k = ctx.k
    N = mesh.n_dofs
    out = np.empty((N, N), dtype=complex)
    if mesh.dim_screen == 1:
        half = mesh.h / 2.0
        for i in range(N):
            for j in range(i, N):
                a1, b1 = mesh.dof_points[i, 0] - half, mesh.dof_points[i, 0] + half
                a2, b2 = mesh.dof_points[j, 0] - half, mesh.dof_points[j, 0] + half
                val = _entry_kernel_1d(k, a1, b1, a2, b2)
                out[i, j] = out[j, i] = val
        return out
    for i in range(N):
        for j in range(i, N):
            delta = mesh.dof_points[j] - mesh.dof_points[i]
            val = _entry_kernel_2d(k, mesh.h, float(delta[0]), float(delta[1]))
            out[i, j] = out[j, i] = val
    return out


def _entry_kernel_1d(k, a1, b1, a2, b2) -> complex:
    breaks = _interval_correlation_breaks(a1, b1, a2, b2)
    total = 0.0j
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-15:
            continue
        mids = _interval_correlation(a1, b1, a2, b2, np.array([(lo + hi) / 2]))
        if mids[0] <= 0:
            continue
        corr = lambda t: _interval_correlation(a1, b1, a2, b2, t)
        if lo < 1e-14:
            # K = smooth - (1/2pi) ln t J0(kt)
            t, w = gauss_panels(split_interval(lo, hi, np.pi / (k + 1.0),
                                               min_panels=4), 16)
            total += np.sum(w * _smooth_part_2d(k, t) * corr(t))
            total -= _log_weighted(lambda t: j0(k * t) * corr(t), 0.0, hi) \
                / (2.0 * np.pi)
        else:
            t, w = gauss_panels(split_interval(lo, hi, np.pi / (k + 1.0),
                                               min_panels=4), 16)
            total += np.sum(w * 0.25j * hankel1(0, k * t) * corr(t))
    return complex(total)


def _entry_kernel_2d(k, h, dx, dy) -> complex:
    """Correlation-form entry for two h x h squares offset by (dx, dy)."""
    tri = lambda u, delta: np.maximum(0.0, h - np.abs(u - delta))

    lox, hix = dx - h, dx + h
    loy, hiy = dy - h, dy + h
    touches_origin = lox < 1e-14 and hix > -1e-14 and loy < 1e-14 and hiy > -1e-14

    if not touches_origin:
        # plain tensor rule with tent-kink breaks
        bx = np.unique(np.clip([lox, dx, hix], lox, hix))
        by = np.unique(np.clip([loy, dy, hiy], loy, hiy))
        xs, ws = _refined_axis(bx, k)
        ys, vs = _refined_axis(by, k)
        U, V = np.meshgrid(xs, ys, indexing="ij")
        W = np.outer(ws, vs)
        r = np.sqrt(U * U + V * V)
        val = np.sum(W * np.exp(1j * k * r) / (4.0 * np.pi * r)
                     * tri(U, dx) * tri(V, dy))
        return complex(val)

    total = 0.0j
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        A = hix if sx > 0 else -lox
        B = hiy if sy > 0 else -loy
        if A <= 1e-14 or B <= 1e-14:
            continue
        kinks_x = sorted({p * sx for p in (lox, dx, hix) if 1e-14 < p * sx <= A})
        kinks_y = sorted({p * sy for p in (loy, dy, hiy) if 1e-14 < p * sy <= B})
        total += _quadrant_polar(k, A, B, kinks_x, kinks_y,
                                 lambda u, v: tri(sx * u, dx) * tri(sy * v, dy))
    return complex(total)


def _refined_axis(breaks, k):
    xs, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-15:
            continue
        x, w = gauss_panels(split_interval(float(lo), float(hi),
                                           np.pi / (k + 1.0), min_panels=2), 12)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _quadrant_polar(k, A, B, kinks_x, kinks_y, weight) -> complex:
    """int over [0,A]x[0,B] of e^{ikr}/(4 pi r) * weight, polar around 0."""
    th_breaks = {0.0, np.pi / 2.0, np.arctan2(B, A)}
    for kx in kinks_x:
        for ky in kinks_y + [B]:
            th_breaks.add(np.arctan2(ky, kx))
    for ky in kinks_y:
        for kx in kinks_x + [A]:
            th_breaks.add(np.arctan2(ky, kx))
    th_breaks = np.array(sorted(t for t in th_breaks if -1e-14 <= t <= np.pi / 2 + 1e-14))
    total = 0.0j
    for tlo, thi in zip(th_breaks[:-1], th_breaks[1:]):
        if thi - tlo < 1e-14:
            continue
        tb = split_interval(float(tlo), float(thi), np.pi / 24.0, min_panels=2)
        th, wt = gauss_panels(tb, 10)
        for t, w in zip(th, wt):
            ct, st = np.cos(t), np.sin(t)
            rmax = min(A / max(ct, 1e-300), B / max(st, 1e-300))
            rbk = {rmax}
            for kx in kinks_x:
                if kx / max(ct, 1e-300) < rmax:
                    rbk.add(kx / ct)
            for ky in kinks_y:
                if ky / max(st, 1e-300) < rmax:
                    rbk.add(ky / st)
            rbreaks = np.array(sorted(rbk | {0.0}))
            rs, ws = [], []
            for rlo, rhi in zip(rbreaks[:-1], rbreaks[1:]):
                if rhi - rlo < 1e-15:
                    continue
                r, wr = gauss_panels(split_interval(float(rlo), float(rhi),
                                                    np.pi / (k + 1.0),
                                                    min_panels=1), 12)
                rs.append(r)
                ws.append(wr)
            r = np.concatenate(rs)
            wr = np.concatenate(ws)
            total += w * np.sum(wr * np.exp(1j * k * r) / (4.0 * np.pi)
                                * weight(r * ct, r * st))
    return complex(total)


def export_matrix_csv(matrix: np.ndarray, path: str) -> None:
    """Write (row, col, re, im) rows with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,re,im\n")
        for i, j in itertools.product(range(matrix.shape[0]), range(matrix.shape[1])):
            v = matrix[i, j]
            fh.write(f"{i},{j},{v.real:.17g},{v.imag:.17g}\n")
