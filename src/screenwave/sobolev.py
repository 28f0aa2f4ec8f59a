"""Wavenumber-dependent Sobolev norms, Gram matrices and dual surrogates.

The norm on H^s_k is the Bessel-potential weight (k^2+|xi|^2)^s applied to
the Fourier transform; for a mesh function the Gram matrix of that weight is
assembled exactly by the symbol engine, so discrete densities carry their
*true* H^s_k norms (up to quadrature tolerance).  Duality pairings are
antilinear in the second slot throughout.

H^{1/2}(Gamma) norms of non-discrete data (plane waves, point sources) are
never computed exactly; the module provides the cutoff-extension upper bound
and the discrete dual-norm lower bound, and every consumer states which
surrogate it uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .geometry import Mesh, Screen, dist_to_screen
from .spectral import assemble, bessel
from .spectral.engine import _TABLE_CELLS
from .spectral.rules import gauss_panels, split_interval


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber bundle; k > 0."""

    k: float

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError("WaveContext: k must be finite and positive")


@dataclass
class Density:
    """Coefficient vector over a mesh basis."""

    mesh: Mesh
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (self.mesh.n_dofs,):
            raise ValueError("Density: coefficient length does not match dof count")


@dataclass
class GramMatrix:
    """Hermitian positive-definite H^s_k Gram matrix of a mesh basis."""

    s: float
    k: float
    entries: np.ndarray
    mesh: Mesh
    _chol: np.ndarray | None = None

    def cholesky(self) -> np.ndarray:
        if self._chol is None:
            try:
                self._chol = sla.cholesky(self.entries, lower=True)
            except sla.LinAlgError as exc:
                raise ValueError(
                    "Gram matrix is not positive definite (assembly failure)"
                ) from exc
        return self._chol

    def norm(self, coefficients: np.ndarray) -> float:
        c = np.asarray(coefficients, dtype=complex)
        val = np.real(np.vdot(c, self.entries @ c))
        return float(np.sqrt(max(val, 0.0)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G^{-1} rhs by Cholesky with one iterative-refinement pass."""
        L = self.cholesky()

        def back(b):
            y = sla.solve_triangular(L, b, lower=True)
            return sla.solve_triangular(L.conj().T, y, lower=False)

        x = back(rhs)
        x = x + back(rhs - self.entries @ x)
        return x


def admissible_order_range(mesh: Mesh) -> tuple[float, float]:
    """Closed-below, open-above range of Gram orders for a mesh basis."""
    if mesh.basis_kind == "P0":
        hi = 0.5 if mesh.dim_screen == 1 else 1e-12
    else:
        hi = 1.5 if mesh.dim_screen == 1 else 1.0 + 1e-12
    return -2.0, hi


def gram(mesh: Mesh, s: float, ctx: WaveContext, tol: float = 1e-10) -> GramMatrix:
    """G_ij = int (k^2+|xi|^2)^s fhat_j conj(fhat_i) d xi (Hermitian, real)."""
    lo, hi = admissible_order_range(mesh)
    if not (lo <= s < hi or (s == hi and mesh.dim_screen == 2)):
        raise ValueError(
            f"gram: order s={s} outside admissible range [{lo}, {hi}) for "
            f"{mesh.basis_kind}, n={mesh.dim_screen + 1}"
        )
    # real, and exactly symmetric: entries come from one per-offset table
    entries = np.real(assemble(bessel(ctx.k, s), mesh, tol=tol)).copy()
    return GramMatrix(s=s, k=ctx.k, entries=entries, mesh=mesh)


def hsk_norm(density: Density, s: float, ctx: WaveContext,
             gram_matrix: GramMatrix | None = None, tol: float = 1e-10) -> float:
    """H^s_k norm of the extended-by-zero mesh function."""
    G = gram_matrix if gram_matrix is not None else gram(density.mesh, s, ctx, tol)
    if G.mesh is not density.mesh or G.entries.shape[0] != density.mesh.n_dofs:
        raise ValueError("hsk_norm: Gram matrix belongs to a different mesh")
    return G.norm(density.coefficients)


def discrete_dual_norm(f: np.ndarray, gram_s: GramMatrix) -> float:
    """sup over the mesh space of |<f, c>| / ||c||_G  =  sqrt(f^H G^{-1} f).

    A lower bound for the continuous dual-space norm of the functional.
    """
    f = np.asarray(f, dtype=complex)
    val = np.real(np.vdot(f, gram_s.solve(f)))
    return float(np.sqrt(max(val, 0.0)))


def _element_quadrature(mesh: Mesh, k: float, feature: float | None = None):
    """Composite tensor GL per element resolving k h and any data feature."""
    panel = np.pi / (k + 1.0)
    if feature is not None:
        panel = min(panel, feature)
    breaks = split_interval(0.0, mesh.h, panel, min_panels=1)
    x0, w0 = gauss_panels(breaks, 12)
    d = mesh.dim_screen
    if d == 1:
        return x0[:, None], w0
    ox, oy = np.meshgrid(x0, x0, indexing="ij")
    ww = np.outer(w0, w0).ravel()
    return np.column_stack([ox.ravel(), oy.ravel()]), ww


def rhs_functional(g, mesh: Mesh, ctx: WaveContext) -> np.ndarray:
    """f_j = int_Gamma g(y) conj(basis_j(y)) ds(y), per-element Gauss.

    ``g`` is any object with ``sample(points) -> values`` (TraceData) or a
    plain callable on (m, d) arrays of screen points.  A P1 dof integrates
    over the 2^d elements at its node, one corner shift each; every dof
    shares the hat values at the rule's points, so each shift is one
    ``sample`` call over a block of dofs, contracted with its weights.  Dof
    blocks keep a call under ``_TABLE_CELLS`` points.
    """
    sample = g.sample if hasattr(g, "sample") else g
    feature = g.quad_scale(mesh) if hasattr(g, "quad_scale") else None
    offs, ww = _element_quadrature(mesh, ctx.k, feature)
    d = mesh.dim_screen
    if mesh.basis_kind == "P0":
        shifts = [(np.full(d, mesh.h / 2.0), ww)]
    else:
        shifts = []
        for corner in np.ndindex(*(2,) * d):
            shift = mesh.h * np.asarray(corner, dtype=float)
            hat = np.prod(1.0 - np.abs(offs - shift) / mesh.h, axis=1)
            shifts.append((shift, ww * hat))
    f = np.zeros(mesh.n_dofs, dtype=complex)
    step = max(1, _TABLE_CELLS // ww.size)
    for s in range(0, mesh.n_dofs, step):
        nodes = mesh.dof_points[s:s + step]
        for shift, wts in shifts:
            pts = ((nodes - shift)[:, None, :] + offs).reshape(-1, d)
            f[s:s + step] += np.reshape(sample(pts), (nodes.shape[0], -1)) @ wts
    return f


# ---------------------------------------------------------------------------
# cutoff-extension upper bound for H^{1/2}_k(Gamma) norms
# ---------------------------------------------------------------------------
def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_d(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 6.0 * t * (1.0 - t), 0.0)


def cutoff_extension_norm(w_kind: str, screen: Screen, ctx: WaveContext,
                          direction=None, source=None) -> float:
    """Computable upper bound for ||w||_{H^{1/2}_k(Gamma)}.

    Builds an explicit cutoff chi_L that is 1 on a hull of the screen (minus
    a d/2 guard disk for point sources), estimates
    ||chi_L w||_{H^{1/2}_k} <= k^{-1/2} ||chi_L w||_{H^1_k}
    and evaluates the H^1_k integral by oscillation-resolving Gauss panels.

    w_kind is "plane_wave" (unit |direction| <= 1) or "fundamental_solution"
    (source off the closed screen).
    """
    k = ctx.k
    L = screen.diameter
    d = screen.dim_screen
    lo = screen.lo.min(axis=0)
    hi = screen.hi.max(axis=0)

    if w_kind == "plane_wave":
        dvec = np.zeros(screen.dim_ambient) if direction is None else np.asarray(direction, float)
        if np.linalg.norm(dvec) > 1.0 + 1e-12:
            raise ValueError("plane-wave direction must have norm <= 1")
        eps = 1.0
        dist_src = None
    elif w_kind == "fundamental_solution":
        x = np.asarray(source, dtype=float)
        dist_src = dist_to_screen(x, screen)
        if dist_src < 1e-8 * L:
            raise ValueError("point source too close to the screen closure")
        eps = min(1.0, dist_src / (2.0 * L))
    else:
        raise ValueError(f"unknown cutoff kind {w_kind!r}")

    width = L * eps
    if d == 1:
        a, b = float(lo[0]), float(hi[0])

        def chi(y):
            dist = np.maximum(np.maximum(a - y, y - b), 0.0)
            return _smoothstep(1.0 - dist / width)

        def grad_chi(y):
            dist = np.maximum(np.maximum(a - y, y - b), 0.0)
            sgn = np.where(y > b, 1.0, np.where(y < a, -1.0, 0.0))
            return (-_smoothstep_d(1.0 - dist / width) / width * sgn)[..., None]
    else:
        c = 0.5 * (lo + hi)
        R = float(np.linalg.norm(hi - c))

        def chi(y):
            r = np.linalg.norm(y - c, axis=-1)
            dist = np.maximum(r - R, 0.0)
            return _smoothstep(1.0 - dist / width)

        def grad_chi(y):
            diff = y - c
            r = np.linalg.norm(diff, axis=-1)
            dist = np.maximum(r - R, 0.0)
            fac = -_smoothstep_d(1.0 - dist / width) / width
            unit = diff / np.maximum(r, 1e-300)[..., None]
            return fac[..., None] * unit

    if w_kind == "fundamental_solution":
        xt = np.asarray(source, dtype=float)[:d]
        x_n = float(np.asarray(source, dtype=float)[d])
        guard_lo = max(dist_src - width, dist_src / 2.0)

        base_chi, base_grad = chi, grad_chi

        def chi(y):
            r = np.linalg.norm(np.atleast_2d(y) - xt, axis=-1)
            rr = np.sqrt(r * r + x_n * x_n)
            ramp = _smoothstep((rr - guard_lo) / max(dist_src - guard_lo, 1e-300))
            return base_chi(y) * ramp

        def grad_chi(y):
            y2 = np.atleast_2d(y)
            diff = y2 - xt
            r = np.linalg.norm(diff, axis=-1)
            rr = np.sqrt(r * r + x_n * x_n)
            den = max(dist_src - guard_lo, 1e-300)
            ramp = _smoothstep((rr - guard_lo) / den)
            dramp = _smoothstep_d((rr - guard_lo) / den) / den
            unit = diff / np.maximum(rr, 1e-300)[..., None]
            return (base_grad(y2) * ramp[..., None]
                    + base_chi(y2)[..., None] * dramp[..., None] * unit)

    # w and grad w on the screen plane
    if w_kind == "plane_wave":
        dt = dvec[:d]

        def w_val(y):
            return np.exp(1j * k * (np.atleast_2d(y) @ dt))

        def w_grad(y):
            v = w_val(y)
            return 1j * k * dt[None, :] * v[:, None]
    else:
        from scipy.special import hankel1

        xt = np.asarray(source, dtype=float)[:d]
        x_n = float(np.asarray(source, dtype=float)[d])

        def _r(y):
            diff = np.atleast_2d(y) - xt
            return diff, np.sqrt(np.sum(diff ** 2, axis=-1) + x_n * x_n)

        if screen.dim_ambient == 2:
            def w_val(y):
                _, rr = _r(y)
                return 0.25j * hankel1(0, k * rr)

            def w_grad(y):
                diff, rr = _r(y)
                dphi = -0.25j * k * hankel1(1, k * rr)
                return dphi[:, None] * diff / rr[:, None]
        else:
            def w_val(y):
                _, rr = _r(y)
                return np.exp(1j * k * rr) / (4.0 * np.pi * rr)

            def w_grad(y):
                diff, rr = _r(y)
                dphi = np.exp(1j * k * rr) * (1j * k * rr - 1.0) / (4.0 * np.pi * rr ** 3)
                return dphi[:, None] * diff

    # integrate |grad(chi w)|^2 + k^2 |chi w|^2 over the cutoff support
    pad = width * 1.0001
    span_lo, span_hi = lo - pad, hi + pad
    per_axis = []
    for ax in range(d):
        breaks = split_interval(float(span_lo[ax]), float(span_hi[ax]),
                                np.pi / (k + 1.0), min_panels=8)
        per_axis.append(gauss_panels(breaks, 10))
    if d == 1:
        pts = per_axis[0][0][:, None]
        wts = per_axis[0][1]
    else:
        gx, gy = per_axis
        PX, PY = np.meshgrid(gx[0], gy[0], indexing="ij")
        pts = np.column_stack([PX.ravel(), PY.ravel()])
        wts = np.outer(gx[1], gy[1]).ravel()

    cv = chi(pts if d > 1 else pts[:, 0])
    keep = cv > 0.0
    pts, wts, cv = pts[keep], wts[keep], np.atleast_1d(cv)[keep]
    wv = w_val(pts)
    gw = w_grad(pts)
    gc = np.atleast_2d(grad_chi(pts if d > 1 else pts[:, 0]))
    if gc.ndim == 3:
        gc = gc.reshape(-1, d)
    grad_total = cv[:, None] * gw + wv[:, None] * gc
    h1sq = np.sum(wts * (np.sum(np.abs(grad_total) ** 2, axis=1)
                         + k * k * np.abs(cv * wv) ** 2))
    return float(np.sqrt(h1sq / k))
