"""Screen problems (sound-soft/hard) and aperture problems, fields, far fields.

The sound-soft screen reduces to the single-layer equation -S_k phi = g_D for
the normal-derivative jump; the sound-hard screen to T_k psi = g_N for the
field jump.  Aperture problems reuse the same equations with halved data, and
their fields take the factor sign(x_n).  ``_PROBLEMS`` holds these facts, one
entry per problem, for the solve, the fields and the CLI.  A solve reads the
LU factor that its ``GalerkinSystem`` forms once, so many incidences solved
against one system factor it once.  Scattered fields are evaluated by
per-element Gauss quadrature of the layer-potential kernels: blocks of points
against blocks of elements, each one kernel array (n=2: Hankel functions from
the real-argument Bessel J and Y) contracted against the element rule's hat
weights into a (points x dofs) field map E, and u = E c.  The system keeps
the map of the last point set it was asked for, so a repeated point set costs
one product.  Far-field patterns come out in closed form through the basis
transforms: the dofs of a uniform mesh share one transform envelope, and
their phases e^{-i xi . c_j} come per axis from the offset grid of
``_axis_keys`` by angle addition, with no exponential per (direction, dof).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.special import j0, j1, y0, y1

from .geometry import Mesh, Screen, build_mesh, dist_to_screen, distances_to_screen
from .operators import (GalerkinSystem, assemble_hypersingular,
                        assemble_single_layer)
from .sobolev import Density, WaveContext, rhs_functional
from .spectral import DofFamily
from .spectral.engine import _TABLE_CELLS, _axis_keys
from .spectral.rules import gauss_legendre


class NumericalError(RuntimeError):
    """Numerical failure (singular system, quadrature breakdown)."""


def _hankel1(order: int, x: np.ndarray) -> np.ndarray:
    """H^(1)_order(x) = J_order(x) + i Y_order(x) for real x > 0, order 0 or 1.

    scipy's real-argument Bessel routines (Cephes) run about five times
    faster than its complex-argument ``hankel1`` (AMOS) and agree with it to
    rounding on real arguments.  The independent oracles
    (``kernel_oracle_single_layer``, ``maue_oracle_hypersingular``,
    ``truncated_kernel_ft``, ``cutoff_extension_norm``) deliberately keep
    ``hankel1``, so that they share no Bessel code with this path.
    """
    j, y = (j0, y0) if order == 0 else (j1, y1)
    out = np.empty(np.shape(x), dtype=complex)
    j(x, out=out.real)
    y(x, out=out.imag)
    return out


@dataclass
class TraceData:
    """Boundary data sampler on the screen plane.

    kind: "plane_wave" (superposition), "point_source", or "custom";
    role:  dirichlet | neumann | aperture_h | aperture_i.
    For plane waves ``values`` are the trace of sum a_j e^{i k x . d_j} or of
    its x_n-derivative, times ``scale``.
    """

    kind: str
    role: str
    k: float
    amplitudes: np.ndarray | None = None
    directions: np.ndarray | None = None
    source: np.ndarray | None = None
    sampler: object = None
    derivative: bool = False
    scale: complex = 1.0

    def __post_init__(self):
        if self.kind == "plane_wave":
            self.directions = np.atleast_2d(np.asarray(self.directions, float))
            norms = np.linalg.norm(self.directions, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-12):
                raise ValueError("plane-wave directions must be unit vectors")
            if self.amplitudes is None:
                self.amplitudes = np.ones(self.directions.shape[0], dtype=complex)
            self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        elif self.kind == "point_source":
            self.source = np.asarray(self.source, dtype=float)
        elif self.kind != "custom":
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.role.startswith("aperture"):
            if self.kind == "plane_wave" and np.any(self.directions[:, -1] >= 0):
                raise ValueError("aperture incidence must come from above (d_n < 0)")

    def quad_scale(self, mesh: Mesh | None = None) -> float | None:
        """Smallest length scale of the data beyond the k-oscillation."""
        if self.kind == "point_source":
            if mesh is not None:
                d = dist_to_screen(self.source, mesh.screen)
                return max(d, mesh.h / 16.0) / 2.0
            return max(abs(float(self.source[-1])), 1e-6) / 2.0
        return None

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trace values at in-plane points, shape (m, d) -> (m,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "plane_wave":
            d_t = self.directions[:, :-1]
            phases = np.exp(1j * self.k * (pts @ d_t.T))
            if self.derivative:
                amp = self.amplitudes * (1j * self.k * self.directions[:, -1])
            else:
                amp = self.amplitudes
            return self.scale * phases @ amp
        if self.kind == "point_source":
            d = pts.shape[1]
            diff = pts - self.source[:d]
            rr = np.sqrt(np.sum(diff ** 2, axis=1) + self.source[d] ** 2)
            if d == 1:
                vals = 0.25j * _hankel1(0, self.k * rr)
            else:
                vals = np.exp(1j * self.k * rr) / (4.0 * np.pi * rr)
            return self.scale * vals
        return self.scale * np.asarray(self.sampler(pts), dtype=complex)


def incident_dirichlet(ctx: WaveContext, directions, amplitudes=None) -> TraceData:
    """g_D = -u^i|_Gamma for a plane-wave superposition."""
    return TraceData("plane_wave", "dirichlet", ctx.k, amplitudes, directions,
                     scale=-1.0)


def incident_neumann(ctx: WaveContext, directions, amplitudes=None) -> TraceData:
    """g_N = -du^i/dn|_Gamma for a plane-wave superposition."""
    return TraceData("plane_wave", "neumann", ctx.k, amplitudes, directions,
                     derivative=True, scale=-1.0)


def point_source_dirichlet(ctx: WaveContext, source) -> TraceData:
    """g_D = -Phi(x_s, .)|_Gamma."""
    return TraceData("point_source", "dirichlet", ctx.k, source=source, scale=-1.0)


def aperture_h_data(ctx: WaveContext, directions, amplitudes=None) -> TraceData:
    """g_H = -2 du^i/dn|_Gamma, incidence from the upper half-space."""
    return TraceData("plane_wave", "aperture_h", ctx.k, amplitudes, directions,
                     derivative=True, scale=-2.0)


def aperture_i_data(ctx: WaveContext, directions, amplitudes=None) -> TraceData:
    """g_I = -2 u^i|_Gamma, incidence from the upper half-space."""
    return TraceData("plane_wave", "aperture_i", ctx.k, amplitudes, directions,
                     scale=-2.0)


@dataclass
class Solution:
    """Density solving one of the four problems, plus solve diagnostics."""

    density: Density
    problem: str                 # "S" | "T" | "aperture_H" | "aperture_I"
    ctx: WaveContext
    system: GalerkinSystem
    rhs: np.ndarray              # system.matrix @ coefficients = rhs
    diagnostics: dict = field(default_factory=dict)


class _Problem(NamedTuple):
    """What sets one problem apart from the other three."""

    single: bool                 # -S_k phi = g on P0, else T_k psi = g on P1
    roles: tuple                 # data roles accepted, the problem's own first
    scale: float                 # the apertures solve with half their data
    signed: bool                 # field and far field take the factor sign(x_n)
    reflection: float | None     # reflected-wave coefficient of the total field


_PROBLEMS = {
    "S": _Problem(True, ("dirichlet", "aperture_i"), 1.0, False, None),
    "T": _Problem(False, ("neumann", "aperture_h"), 1.0, False, None),
    "aperture_H": _Problem(False, ("aperture_h", "neumann"), 0.5, True, -1.0),
    "aperture_I": _Problem(True, ("aperture_i", "dirichlet"), 0.5, True, 1.0),
}


def _solve_dense(system: GalerkinSystem, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solution of A c = rhs by the system's LU factor, formed on the first
    solve, and its algebraic residual ||A c - rhs||."""
    try:
        lu, piv, finite = system.lu
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericalError(f"LU factorization failed: {exc}") from exc
    if not finite:
        raise NumericalError("singular Galerkin system: assembly defect "
                             "(coercivity guarantees invertibility)")
    c = sla.lu_solve((lu, piv), rhs, check_finite=False)
    res = np.linalg.norm(system.matrix @ c - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not np.all(np.isfinite(c)) or res > 1e-8 * scale + 1e-13:
        raise NumericalError("singular Galerkin system: assembly defect "
                             "(coercivity guarantees invertibility)")
    return c, float(res)


def _check_system(system: GalerkinSystem, spec: _Problem, screen: Screen,
                  ctx: WaveContext, h: float) -> None:
    """Refuse a pre-assembled system that is not the one the call describes."""
    kind = "single_layer" if spec.single else "hypersingular"
    own = system.mesh.screen
    wrong = [name for name, same in (
        ("operator", system.kind == kind),
        ("k", system.ctx.k == ctx.k),
        ("h", system.mesh.h == h),
        ("screen", own.dim_ambient == screen.dim_ambient
         and np.array_equal(own.lo, screen.lo) and np.array_equal(own.hi, screen.hi)),
    ) if not same]
    if wrong:
        raise ValueError(f"the system differs from the call in {', '.join(wrong)} "
                         f"(system: {system.kind}, k={system.ctx.k}, h={system.mesh.h}; "
                         f"call: {kind}, k={ctx.k}, h={h})")


def _solve(problem: str, screen: Screen, ctx: WaveContext, g: TraceData,
           h: float, tol: float, system: GalerkinSystem | None = None) -> Solution:
    """Galerkin solution of one of the four problems, by its table entry."""
    spec = _PROBLEMS[problem]
    if g.role not in spec.roles:
        raise ValueError(f"problem {problem} expects "
                         f"{'Dirichlet' if spec.single else 'Neumann'}-role data "
                         f"({' or '.join(spec.roles)}), not {g.role!r}")
    if g.kind == "point_source" and dist_to_screen(g.source, screen) <= 0.0:
        raise ValueError("point source lies on the screen closure")
    if system is None:
        assemble = assemble_single_layer if spec.single else assemble_hypersingular
        system = assemble(build_mesh(screen, h, "P0" if spec.single else "P1"), ctx, tol)
    else:
        _check_system(system, spec, screen, ctx, h)
    rhs = (-spec.scale if spec.single else spec.scale) \
        * rhs_functional(g, system.mesh, ctx)
    lu_reused = "lu" in vars(system)
    c, res = _solve_dense(system, rhs)
    return Solution(Density(system.mesh, c), problem, ctx, system, rhs,
                    {"algebraic_residual": res, "lu_reused": lu_reused})


def solve_problem_S(screen: Screen, ctx: WaveContext, g_D: TraceData,
                    h: float, tol: float = 1e-10,
                    system: GalerkinSystem | None = None) -> Solution:
    """Galerkin solution of -S_k phi = g_D; phi approximates [du/dn]."""
    return _solve("S", screen, ctx, g_D, h, tol, system)


def solve_problem_T(screen: Screen, ctx: WaveContext, g_N: TraceData,
                    h: float, tol: float = 1e-10,
                    system: GalerkinSystem | None = None) -> Solution:
    """Galerkin solution of T_k psi = g_N; psi approximates [u]."""
    return _solve("T", screen, ctx, g_N, h, tol, system)


def solve_aperture_H(screen: Screen, ctx: WaveContext, g_H: TraceData,
                     h: float, tol: float = 1e-10) -> Solution:
    """Sound-soft aperture: {u} solves T_k psi = g_H / 2."""
    return _solve("aperture_H", screen, ctx, g_H, h, tol)


def solve_aperture_I(screen: Screen, ctx: WaveContext, g_I: TraceData,
                     h: float, tol: float = 1e-10) -> Solution:
    """Sound-hard aperture: {du/dn} solves -S_k phi = g_I / 2."""
    return _solve("aperture_I", screen, ctx, g_I, h, tol)


# ---------------------------------------------------------------------------
# potentials, fields, far fields
# ---------------------------------------------------------------------------
def _element_rule(mesh: Mesh, k: float):
    n_g = int(min(24, max(8, np.ceil(k * mesh.h) + 6)))
    x0, w0 = gauss_legendre(n_g)
    x0 = 0.5 * (x0 + 1.0) * mesh.h
    w0 = 0.5 * w0 * mesh.h
    if mesh.dim_screen == 1:
        return x0[:, None], w0
    gx, gy = np.meshgrid(x0, x0, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), np.outer(w0, w0).ravel()


def _element_hats(mesh: Mesh, k: float):
    """The element rule and the basis on it: node offsets from an element's
    lower corner, their weights, the (nodes, corners) values of the 2^d
    corner hats on them (P0: one column of ones), and the (elements,
    corners) dof of each corner, -1 where a corner on a box boundary carries
    none.  A corner's dof is found by (box, node index)."""
    offs, ww = _element_rule(mesh, k)
    if mesh.basis_kind == "P0":
        return offs, ww, np.ones((ww.size, 1)), np.arange(mesh.n_elements)[:, None]
    corners = list(np.ndindex(*(2,) * mesh.dim_screen))
    hats = np.column_stack([np.prod(1.0 - np.abs(offs - np.multiply(corner, mesh.h))
                                    / mesh.h, axis=1) for corner in corners])
    lo = mesh.screen.lo
    node = np.rint((mesh.dof_points - lo[mesh.dof_box]) / mesh.h).astype(int)
    dof_at = {(b, *n): j for j, (b, n) in enumerate(zip(mesh.dof_box, node.tolist()))}
    first = np.rint((mesh.element_center - mesh.h / 2.0 - lo[mesh.element_box])
                    / mesh.h).astype(int)
    dof = np.array([[dof_at.get((b, *n), -1) for b, n in
                     zip(mesh.element_box, (first + corner).tolist())]
                    for corner in corners]).T
    return offs, ww, hats, dof


def _density_quad_points(sol: Solution):
    """All element quadrature points with density values and weights."""
    mesh = sol.density.mesh
    offs, ww, hats, dof = _element_hats(mesh, sol.ctx.k)
    c = np.append(sol.density.coefficients, 0.0)        # dof -1 reads the 0
    pts = (mesh.element_center - mesh.h / 2.0)[:, None, :] + offs[None, :, :]
    return (pts.reshape(-1, mesh.dim_screen), (c[dof] @ hats.T).ravel(),
            np.tile(ww, mesh.n_elements))


def _kernel_parts(single: bool, k: float, xt: np.ndarray, xn: np.ndarray,
                  nodes: np.ndarray):
    """The real and then the imaginary part of the layer-potential kernel
    between points (xt, xn) and screen nodes, as functions of t = kr and less
    the factors that depend on the point alone: H_0(t) and H_1(t)/t for n=2,
    e^{it}/t and e^{it}(1 - it)/t^3 for n=3, single layer (``single``) and
    double layer.  Both parts are yielded in one buffer, so that a block
    holds two real arrays of its size, three for the n=3 double layer."""
    t = np.subtract.outer(xt[:, 0], nodes[:, 0])
    t *= t
    for a in range(1, nodes.shape[1]):
        d = np.subtract.outer(xt[:, a], nodes[:, a])
        d *= d
        t += d
    t += (xn * xn)[:, None]
    np.sqrt(t, out=t)
    t *= k
    out = np.empty_like(t)
    if nodes.shape[1] == 1:
        for fn in ((j0, y0) if single else (j1, y1)):
            fn(t, out=out)
            if not single:
                out /= t
            yield out
        return
    for first, second, add in ((np.cos, np.sin, np.add), (np.sin, np.cos, np.subtract)):
        first(t, out=out)
        if not single:
            extra = second(t)
            extra *= t
            add(out, extra, out=out)
            out /= t * t
        out /= t
        yield out


def _half_space_sign(spec: _Problem, u: np.ndarray, xn: np.ndarray) -> None:
    """The sign rule of the aperture fields, applied in place: u(x) takes the
    factor sign(x_n), and u_inf(xhat) the factor sign(xhat_n)."""
    if spec.signed:
        u *= np.sign(xn)


def _field_map(single: bool, mesh: Mesh, k: float, pts: np.ndarray) -> np.ndarray:
    """The (points x dofs) map E with u = E c: the single-layer (``single``)
    or double-layer potential of each basis function at each point, before
    the half-space sign.

    Points and whole elements go in blocks of at most ``_TABLE_CELLS``
    kernel cells (one element's nodes at the least); each kernel block is
    contracted against the weighted corner hats of its elements and added
    into the columns of their corner dofs.
    """
    offs, ww, hats, dof = _element_hats(mesh, k)
    weights = ww[:, None] * hats
    origins = mesh.element_center - mesh.h / 2.0
    n_q, n_c = weights.shape
    dof = np.where(dof < 0, mesh.n_dofs, dof)           # a dump column for no dof
    xt, xn = pts[:, :-1], pts[:, -1]
    e_step = max(1, min(mesh.n_elements, _TABLE_CELLS // n_q))
    p_step = max(1, _TABLE_CELLS // (e_step * n_q))
    E = np.zeros((pts.shape[0], mesh.n_dofs + 1), dtype=complex)
    for s in range(0, pts.shape[0], p_step):
        b = slice(s, s + p_step)
        for t in range(0, mesh.n_elements, e_step):
            e = slice(t, t + e_step)
            nodes = (origins[e, None, :] + offs[None, :, :]).reshape(-1, mesh.dim_screen)
            for part, K in zip((E.real, E.imag), _kernel_parts(single, k, xt[b], xn[b], nodes)):
                K = (K.reshape(-1, n_q) @ weights).reshape(-1, nodes.shape[0] // n_q, n_c)
                for corner in range(n_c):
                    part[b, dof[e, corner]] += K[:, :, corner]
    E = E[:, :-1]
    if mesh.screen.dim_ambient == 2:
        E *= -0.25j if single else (0.25j * k * k * xn)[:, None]
    else:
        E *= -k / (4.0 * np.pi) if single else (k ** 3 / (4.0 * np.pi) * xn)[:, None]
    return E


def eval_field(sol: Solution, points) -> np.ndarray:
    """Scattered/diffracted field at points of R^n (off the screen closure).

    Problem S: u = -Scal_k phi;  problem T: u = Dcal_k psi; aperture problems
    apply the half-space signs u = -sign(x_n) Scal phi (I) and
    u = sign(x_n) Dcal psi (H).  The field is E c with the field map E of
    ``_field_map``.  A solution's system keeps the map of one point set, the
    last one whose map fits in ``_TABLE_CELLS`` cells, and reuses it while
    the points stay the same.
    """
    spec = _PROBLEMS[sol.problem]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mesh = sol.density.mesh
    screen = mesh.screen
    if pts.shape[1] != screen.dim_ambient:
        raise ValueError("evaluation points have wrong ambient dimension")
    floor = 0.5 * mesh.h
    dists = distances_to_screen(pts, screen)
    if np.any(dists < floor):
        bad = np.nonzero(dists < floor)[0]
        raise ValueError(
            f"points {bad.tolist()} closer than the 0.5 h floor to the screen")
    if spec.signed and np.any(pts[:, -1] == 0.0):
        raise ValueError("aperture fields are two-sided: evaluation points "
                         "must leave the screen plane")

    system, key = sol.system, (spec.single, sol.ctx.k, pts.shape, pts.tobytes())
    if system is not None and system.point_map is not None and system.point_map[0] == key:
        E = system.point_map[1]
    else:
        E = _field_map(spec.single, mesh, sol.ctx.k, pts)
        if system is not None and E.size <= _TABLE_CELLS:
            system.point_map = (key, E)
    u = E @ sol.density.coefficients
    _half_space_sign(spec, u, pts[:, -1])
    return u if u.shape[0] > 1 else u[0]


def _phases(xi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^{-i xi x} for every (xi, x) pair."""
    return np.exp(-1j * np.outer(xi, x))


def far_field(sol: Solution, directions) -> np.ndarray:
    """Far-field pattern u(R xhat) ~ e^{ikR} R^{-(n-1)/2} u_inf(xhat).

    Closed form through the basis transforms: the surface integrals
    int e^{-ik xhat.y} basis_j(y) ds equal (2 pi)^{(n-1)/2} fhat_j(k xhat~),
    and fhat_j(xi) = prod_a b(xi_a) e^{-i c_ja xi_a} with one envelope b for
    every dof of the mesh.  Per axis, the centres sit in cells c_0 + hi[r] +
    lo[s] of the offset grid of ``_axis_keys`` taken from the lowest centre
    c_0 (off the lattice, hi holds every distinct offset and lo = {0}), and
    their phases are e^{-i xi (c_0 + hi)} e^{-i xi lo}.  The coefficients,
    summed into the cells of the last axis, one row per cell of the other
    axis (n=2: one row), give sum_j c_j e^{-i xi_n-1 c_j,n-1} per row as
    (phases of hi) @ C times (phases of lo); n=3 multiplies each row by the
    phase of its other-axis cell.  No exponential is taken per (direction,
    dof).  Directions go in blocks of about ``_TABLE_CELLS`` cells of C.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if not np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-10):
        raise ValueError("far-field directions must be unit vectors")
    spec = _PROBLEMS[sol.problem]
    mesh = sol.density.mesh
    k = sol.ctx.k
    n = mesh.screen.dim_ambient
    c = sol.density.coefficients
    fam = DofFamily.of(mesh)
    axes = []
    for a in range(n - 1):
        x = fam.centers[:, a]
        keys, at = _axis_keys(x, x.min(keepdims=True), fam.factor(a), fam.factor(a))
        axes.append((x.min() + keys.hi, keys.lo, keys.at[at[:, 0]]))
    *other, (hi, lo, cell) = axes
    rows, row = (np.unique(other[0][2], return_inverse=True) if other
                 else (np.zeros(1, dtype=int), np.zeros(c.size, dtype=int)))
    C = np.zeros((rows.size, hi.size * lo.size), dtype=complex)
    np.add.at(C, (row, cell), c)
    C = C.reshape(rows.size, hi.size, lo.size)
    xi = k * dirs[:, :-1]
    surf = np.empty(dirs.shape[0], dtype=complex)
    step = max(1, _TABLE_CELLS // C.size)
    for s in range(0, dirs.shape[0], step):
        b = slice(s, s + step)
        sums = ((_phases(xi[b, -1], hi) @ C) * _phases(xi[b, -1], lo)).sum(axis=2)
        for hi_o, lo_o, _ in other:
            sums *= (_phases(xi[b, 0], hi_o)[:, rows // lo_o.size]
                     * _phases(xi[b, 0], lo_o)[:, rows % lo_o.size]).T
        surf[b] = sums.sum(axis=0)
    surf *= (2.0 * np.pi) ** ((n - 1) / 2.0)
    for a in range(n - 1):
        surf *= fam.factor(a).value(xi[:, a])

    pref = 1.0 / (4.0 * np.pi) if n == 3 else np.exp(1j * np.pi / 4.0) \
        / np.sqrt(8.0 * np.pi * k)
    if spec.single:
        out = -pref * surf
    else:
        out = pref * (-1j * k * dirs[:, -1]) * surf
    _half_space_sign(spec, out, dirs[:, -1])
    return out


def aperture_total_field(sol: Solution, direction, points,
                         amplitude: complex = 1.0) -> np.ndarray:
    """Total field for aperture scattering of one incident plane wave.

    Upper half-space: diffracted + incident + reflected wave, the latter with
    sign -1 for the sound-soft configuration (problem H) and +1 for the
    sound-hard one (problem I); lower half-space: diffracted field only.
    """
    c_refl = _PROBLEMS[sol.problem].reflection
    if c_refl is None:
        raise ValueError("total-field assembly applies to aperture solutions")
    d = np.asarray(direction, dtype=float)
    if d[-1] >= 0:
        raise ValueError("aperture incidence must come from above (d_n < 0)")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = sol.ctx.k
    u = np.atleast_1d(eval_field(sol, pts))
    d_refl = d.copy()
    d_refl[-1] *= -1.0
    upper = pts[:, -1] > 0
    ui = amplitude * np.exp(1j * k * (pts @ d))
    ur = c_refl * amplitude * np.exp(1j * k * (pts @ d_refl))
    total = u.astype(complex)
    total[upper] += ui[upper] + ur[upper]
    return total if total.size > 1 else total[0]
