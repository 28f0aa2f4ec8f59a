"""Symbol definitions and the Galerkin symbol-integral engine.

Everything the operator and norm modules need reduces to integrals

    I_{ij} = int_{R^{n-1}} sigma(|xi|) fhat_i(xi) conj(fhat_j(xi)) d xi

with sigma one of  i/(2Z)  (single layer),  (i/2) Z  (hypersingular) or
(k^2+|xi|^2)^s  (Bessel weight), and fhat the closed-form basis transforms.
The finite region |xi| <= X is integrated with singularity-removing radial
substitutions; everything beyond X goes through the analytic tail machinery
in :mod:`screenwave.spectral.tails`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import hankel1, j0

from ..geometry import Mesh
from .factors import AxisFactor, pair_profile
from .rules import (PanelSpec, gauss_panels, radial_rule, sigma_plain,
                    split_interval)
from .tails import (AxisTable, VGrid, build_axis_table, profile_tails,
                    required_axis_Y, symbol_series,
                    symbol_series_remainder, tensor_tail_term)


class QuadratureError(RuntimeError):
    """Quadrature non-convergence: a tolerance or oscillation cap was hit."""


@dataclass(frozen=True)
class SymbolKind:
    """Fourier symbol selector: tag in {single_layer, hypersingular, bessel}."""

    tag: str
    k: float
    s: float = 0.0

    def __post_init__(self):
        if self.tag not in ("single_layer", "hypersingular", "bessel"):
            raise ValueError(f"unknown symbol tag {self.tag!r}")
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError("wavenumber k must be positive and finite")

    @property
    def growth(self) -> float:
        """Large-|xi| growth exponent of the symbol."""
        return {"single_layer": -1.0, "hypersingular": 1.0}.get(self.tag, 2.0 * self.s)


def single_layer(k: float) -> SymbolKind:
    return SymbolKind("single_layer", k)


def hypersingular(k: float) -> SymbolKind:
    return SymbolKind("hypersingular", k)


def bessel(k: float, s: float) -> SymbolKind:
    return SymbolKind("bessel", k, s)


def symbol_Z(xi, k: float):
    """Z(xi) = sqrt(k^2-|xi|^2) continued as i sqrt(|xi|^2-k^2).

    Scalars and 1-D arrays are radial frequencies |xi|; arrays with a final
    axis of length 2 are planar points.  The value always lies in
    {nonnegative real} union {positive imaginary}.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim >= 2 and xi.shape[-1] == 2:
        r2 = np.sum(xi * xi, axis=-1)
    else:
        r2 = xi * xi
    diff = k * k - r2
    root = np.sqrt(np.abs(diff))
    return np.where(diff >= 0.0, root + 0.0j, 1j * root)[()]


def mesh_dof_factors(mesh: Mesh) -> list[tuple[AxisFactor, ...]]:
    """Per-dof tuples of 1-D Fourier factors for a mesh."""
    kind = "box" if mesh.basis_kind == "P0" else "hat"
    out = []
    for p in mesh.dof_points:
        out.append(tuple(AxisFactor(kind, float(c), mesh.h) for c in p))
    return out


def gradient_dof_factors(mesh: Mesh, axis: int) -> list[tuple[AxisFactor, ...]]:
    """Factors of the axis-derivative of each P1 hat (piecewise constant)."""
    if mesh.basis_kind != "P1":
        raise ValueError("gradient factors are defined for P1 meshes only")
    out = []
    for p in mesh.dof_points:
        fs = []
        for a, c in enumerate(p):
            fs.append(AxisFactor("dhat" if a == axis else "hat", float(c), mesh.h))
        out.append(tuple(fs))
    return out


def basis_ft(factors, xi) -> np.ndarray:
    """Evaluate a dof transform at xi (shape (..., d) or scalars for d=1)."""
    if isinstance(factors, AxisFactor):
        factors = (factors,)
    xi = np.asarray(xi, dtype=float)
    d = len(factors)
    if d == 1:
        return factors[0].value(xi)
    comps = np.moveaxis(xi, -1, 0)
    out = factors[0].value(comps[0])
    for a in range(1, d):
        out = out * factors[a].value(comps[a])
    return out


def _family_constants(dofs) -> tuple[list[int], list[float], float]:
    """Per axis, the smallest decay order p and largest amplitude sum |a_t| of
    the dofs' large-|xi| forms; and their largest frequency |w_t| over all axes.

    p and sum |a_t| depend only on the factor kind and h, so their extremes
    over all (row, col) pairs follow from one pass over each family.
    """
    per_axis = [[dof[a].exp_terms() for dof in dofs] for a in range(len(dofs[0]))]
    q = [min(p for p, _ in ax) for ax in per_axis]
    amp = [max(sum(abs(c) for c, _ in terms) for _, terms in ax) for ax in per_axis]
    omega = max(abs(w) for ax in per_axis for _, terms in ax for _, w in terms)
    return q, amp, omega


@dataclass
class _Variant:
    order: int = 16
    scale: float = 1.0
    x_fact: float = 1.0
    v_per_decade: int = 2

    @classmethod
    def get(cls, variant: int) -> "_Variant":
        if variant == 0:
            return cls()
        return cls(order=12, scale=0.71, x_fact=1.31, v_per_decade=3)


@dataclass
class SymbolQuadrature:
    """Panelized rule + certified analytic tail for one (kind, mesh) pairing."""

    kind: SymbolKind
    mesh: Mesh
    k: float
    xi_max: float
    panels: list[PanelSpec]
    n_theta: int
    tail_bound: float
    tol: float
    _dofs: list = field(repr=False, default_factory=list)
    _plan: object = field(repr=False, default=None)


class _Plan:
    """Rule, split radius X, series order and tail state for one
    (symbol, row dofs, col dofs, tol, variant).

    The only code that checks integrability, picks X and the rule, chooses
    the series order and certifies the tail bound.  ``assemble`` and
    ``build_quadrature`` build one; ``symbol_integral`` reuses its
    quadrature's.
    """

    def __init__(self, kind: SymbolKind, dofs_row, dofs_col, tol: float,
                 variant: int):
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        q_r, amp_r, om_r = _family_constants(dofs_row)
        q_c, amp_c, om_c = _family_constants(dofs_col)
        q_min = min(a + b for a, b in zip(q_r, q_c))
        if kind.growth - q_min >= -1.0:
            raise ValueError(
                f"non-integrable symbol integrand: growth {kind.growth:+g} against "
                f"basis decay {q_min} (e.g. hypersingular symbol with a P0 basis)"
            )
        var = _Variant.get(variant)
        k = kind.k
        self.kind, self.tol, self.var = kind, tol, var
        self.dim = len(q_r)
        self.omega = 2.0 * max(om_r, om_c) + 1.0
        self.X = max(2.5 * k, 40.0) * var.x_fact
        if self.dim == 1:
            self.rho, self.w, self.panels = radial_rule(
                kind, k, self.X, self.omega, order=var.order, scale=var.scale)
            self.n_theta = 0
            env = amp_r[0] * amp_c[0]

            def env_of_p(p):
                decay = q_min - p - 1.0
                if decay <= 0.05:
                    raise QuadratureError(
                        "symbol tail remainder nearly divergent against this basis")
                return env * self.X ** (p - q_min + 1) / decay
        else:
            x1, y1, w1, self.panels, self.n_theta = _disk_rule(
                kind, k, self.X, self.omega, math.sqrt(2.0) * self.omega,
                var.order, var.scale)
            x2, y2, w2 = _corner_rule(kind, k, self.X, self.omega, var.order, var.scale)
            self.xi1 = np.concatenate([x1, x2])
            self.xi2 = np.concatenate([y1, y2])
            self.w = np.concatenate([w1, w2])
            self.vgrid = VGrid.build(self.X, panels_per_decade=var.v_per_decade)
            self.has_subtracted = kind.growth > 0.0
            self._tables: dict = {}
            self._abs_est: dict = {}
            # envelope of the exterior integral <= X^p * absx * absy
            abs_prod = max(self._abs_estimate(f[0]) for f in dofs_row) * \
                max(self._abs_estimate(g[1]) for g in dofs_col)

            def env_of_p(p):
                return abs_prod * self.X ** p
        self.M, rem_bound = _choose_series_order(kind, self.X, tol / 4.0, env_of_p)
        self.sigma_terms = [(coef, p) for coef, p in symbol_series(kind, self.M)
                            if coef != 0.0]
        # n=2: the expint tails are exact.  n=3, per entry: two axis models
        # (tol/8 each, enforced inside required_axis_Y) + v-grid completions
        # (tol/8 slack)
        self.tail_bound = rem_bound if self.dim == 1 else rem_bound + tol * 0.375
        if self.tail_bound > tol:
            raise QuadratureError(
                f"requested tolerance {tol:g} unachievable "
                f"(certified bound {self.tail_bound:g})"
            )

    def _abs_estimate(self, f: AxisFactor) -> float:
        key = (f.kind, f.h)
        hit = self._abs_est.get(key)
        if hit is None:
            xi, w = gauss_panels(split_interval(0.0, 60.0 / f.h, 0.5), 8)
            hit = 2.0 * float(np.sum(w * np.abs(f.value(xi)))) + 0.1 * f.h
            self._abs_est[key] = hit
        return hit

    def axis_table(self, f: AxisFactor, g: AxisFactor, other_abs: float) -> AxisTable:
        key = (f.kind, g.kind, f.h, g.h, round(f.center - g.center, 12))
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        prof = pair_profile(f, g)
        budget = self.tol / 8.0
        Y = required_axis_Y(prof, other_abs, budget, self.has_subtracted)
        tab = build_axis_table(prof, self.X, Y, self.omega, self.vgrid,
                               order=self.var.order, scale=self.var.scale)
        self._tables[key] = tab
        return tab

    def tails(self, pairs) -> np.ndarray:
        """Part of each (row dof, col dof) entry beyond the finite rule:
        |xi| > X (n=2, all pairs in one array pass) or the exterior of the
        square max|xi_i| > X (n=3)."""
        if self.dim == 1:
            return profile_tails([pair_profile(fd[0], gd[0]) for fd, gd in pairs],
                                 self.sigma_terms, self.X)
        out = np.empty(len(pairs), dtype=complex)
        for t, (fd, gd) in enumerate(pairs):
            ax = self.axis_table(fd[0], gd[0], self._abs_estimate(fd[1]))
            ay = self.axis_table(fd[1], gd[1], self._abs_estimate(fd[0]))
            out[t] = sum(coef * tensor_tail_term(p, ax, ay, self.vgrid)
                         for coef, p in self.sigma_terms)
        return out


def _choose_series_order(kind, X, budget, env_of_p, m_cap: int = 60):
    m0 = 0
    if kind.tag == "bessel":
        m0 = max(0, int(math.ceil(kind.s + 1.0)))
    for M in range(m0, m_cap):
        coef, p = symbol_series_remainder(kind, M, X)
        bound = coef * env_of_p(p)
        if bound <= budget:
            return M, bound
    raise QuadratureError("symbol tail series cannot reach the requested tolerance")


def _add_tails(out: np.ndarray, plan: _Plan, dofs_row, dofs_col) -> None:
    """out[i, j] += tail of (row i, col j), computed once per distinct key.

    A tail depends only on each axis's factor kinds, h and centre offset.  A
    shared family keys the upper triangle and mirrors it.
    """
    same = dofs_row is dofs_col
    if same:
        i, j = np.triu_indices(len(dofs_row))
    else:
        i, j = (a.ravel() for a in np.indices((len(dofs_row), len(dofs_col))))
    codes: dict = {}
    cols = []
    for a in range(len(dofs_row[0])):
        for dofs, idx in ((dofs_row, i), (dofs_col, j)):
            kh = [codes.setdefault((dof[a].kind, dof[a].h), len(codes)) for dof in dofs]
            cols.append(np.asarray(kh)[idx])
        c_r = np.array([dof[a].center for dof in dofs_row])
        c_c = np.array([dof[a].center for dof in dofs_col])
        cols.append(np.round(c_r[i] - c_c[j], 12) + 0.0)   # + 0.0 folds -0.0 into 0.0
    _, first, inverse = np.unique(np.column_stack(cols), axis=0,
                                  return_index=True, return_inverse=True)
    tails = plan.tails([(dofs_row[i[t]], dofs_col[j[t]])
                        for t in first])[inverse.reshape(-1)]
    out[i, j] += tails
    if same:
        off = i != j
        out[j[off], i[off]] += tails[off]


def _assemble_1d(plan: _Plan, dofs_row, dofs_col) -> np.ndarray:
    rho, w = plan.rho, plan.w
    Vr = np.array([f[0].value(rho) for f in dofs_row])
    Vc = Vr if dofs_col is dofs_row else np.array([g[0].value(rho) for g in dofs_col])
    # int_0^X sigma * 2 Re(F_i conj F_j)
    A, B = Vr.real, Vr.imag
    C, D = Vc.real, Vc.imag
    out = 2.0 * ((A * w) @ C.T + (B * w) @ D.T)
    _add_tails(out, plan, dofs_row, dofs_col)
    return out


# ---------------------------------------------------------------------------
# n = 3
# ---------------------------------------------------------------------------
def _disk_rule(kind, k, X, omega, nu_rad, order, scale):
    """Flattened polar rule on the disk |xi| <= X with layered theta counts."""
    xs, ys, ws = [], [], []
    panel_specs = []
    n_theta_max = 0

    def add_region(t_breaks, rho_of_t, sigjac_of_t, tag, lo, hi):
        nonlocal n_theta_max
        x0, w0 = np.polynomial.legendre.leggauss(order)
        count = 0
        for a, b in zip(t_breaks[:-1], t_breaks[1:]):
            t = 0.5 * (b - a) * x0 + 0.5 * (a + b)
            wt = 0.5 * (b - a) * w0
            rho = rho_of_t(t)
            wsig = wt * sigjac_of_t(t) * rho          # polar Jacobian rho
            amp = float(np.max(rho)) * nu_rad
            n_th = 2 * int(math.ceil(amp + 10.0 * amp ** (1.0 / 3.0))) + 32
            n_theta_max = max(n_theta_max, n_th)
            th = 2.0 * np.pi * np.arange(n_th) / n_th
            wth = 2.0 * np.pi / n_th
            xs.append(np.outer(rho, np.cos(th)).ravel())
            ys.append(np.outer(rho, np.sin(th)).ravel())
            ws.append(np.outer(wsig * wth, np.ones(n_th)).ravel())
            count += t.size * n_th
        panel_specs.append(PanelSpec(lo, hi, tag, count))

    om = max(omega, 0.5)
    tb = split_interval(0.0, np.pi / 2.0, scale * np.pi / (om * k), min_panels=4)
    from .rules import _sigma_jac_cosh, _sigma_jac_sin
    add_region(tb, lambda t: k * np.sin(t), lambda t: _sigma_jac_sin(kind, k, t),
               "sin-sub", 0.0, k)
    t2max = np.arccosh(2.0)
    tb2 = split_interval(0.0, t2max, scale * np.pi / (om * k * np.sqrt(3.0)),
                         min_panels=4)
    add_region(tb2, lambda t: k * np.cosh(t), lambda t: _sigma_jac_cosh(kind, k, t),
               "cosh-sub", k, 2.0 * k)
    rb = split_interval(2.0 * k, X, scale * np.pi / om, min_panels=2)
    add_region(rb, lambda r: r, lambda r: sigma_plain(kind, k, r), "plain",
               2.0 * k, X)

    return (np.concatenate(xs), np.concatenate(ys), np.concatenate(ws),
            panel_specs, n_theta_max)


def _corner_rule(kind, k, X, omega, order, scale):
    """Square-minus-disk corner regions, tensor Gauss per quadrant.

    The outer variable is substituted u = X sin(phi) so the circular inner
    boundary sqrt(X^2-u^2) = X cos(phi) stays smooth up to the corner.
    """
    om = max(omega, 0.5)
    pb = split_interval(0.0, np.pi / 2.0, scale * np.pi / (om * X), min_panels=4)
    phi, wphi = gauss_panels(pb, order)
    u = X * np.sin(phi)
    wu = wphi * X * np.cos(phi)
    xs, ys, ws = [], [], []
    for ug, wug, cphi in zip(u, wu, np.cos(phi)):
        wlo = X * cphi
        if X - wlo < 1e-14 * X:
            continue
        vb = split_interval(wlo, X, scale * np.pi / om, min_panels=2)
        v, wv = gauss_panels(vb, order)
        sig = sigma_plain(kind, k, np.sqrt(ug * ug + v * v))
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            xs.append(np.full(v.size, sx * ug))
            ys.append(sy * v)
            ws.append(wug * wv * sig)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(ws)


def _assemble_2d(plan: _Plan, dofs_row, dofs_col) -> np.ndarray:
    xi1, xi2, w = plan.xi1, plan.xi2, plan.w
    fcache: dict = {}

    def fval(f: AxisFactor, axis: int):
        key = (f, axis)
        hit = fcache.get(key)
        if hit is None:
            hit = f.value(xi1 if axis == 0 else xi2)
            fcache[key] = hit
        return hit

    def values(dofs):
        V = np.empty((len(dofs), xi1.size), dtype=complex)
        for i, d in enumerate(dofs):
            V[i] = fval(d[0], 0) * fval(d[1], 1)
        return V

    Vr = values(dofs_row)
    same = dofs_row is dofs_col
    Vc = Vr if same else values(dofs_col)
    out = Vr @ (Vc.conj() * w).T
    _add_tails(out, plan, dofs_row, dofs_col)
    if same:
        out = 0.5 * (out + out.T)   # the finite part is symmetric to rounding
    return out


def _block(plan: _Plan, dofs_row, dofs_col) -> np.ndarray:
    assemble_dim = _assemble_1d if plan.dim == 1 else _assemble_2d
    return assemble_dim(plan, dofs_row, dofs_col)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------
def assemble(kind: SymbolKind, dofs_row, dofs_col=None, tol: float = 1e-10,
             variant: int = 0) -> np.ndarray:
    """Matrix of symbol integrals for two dof families (shared if col=None)."""
    if dofs_col is None:
        dofs_col = dofs_row
    return _block(_Plan(kind, dofs_row, dofs_col, tol, variant), dofs_row, dofs_col)


def build_quadrature(kind: SymbolKind, mesh: Mesh, tol: float = 1e-10,
                     variant: int = 0) -> SymbolQuadrature:
    """Validate integrability and prebuild the rule + tail plan for a mesh."""
    dofs = mesh_dof_factors(mesh)
    plan = _Plan(kind, dofs, dofs, tol, variant)
    return SymbolQuadrature(kind=kind, mesh=mesh, k=kind.k,
                            xi_max=plan.X, panels=plan.panels, n_theta=plan.n_theta,
                            tail_bound=plan.tail_bound, tol=tol, _dofs=dofs,
                            _plan=plan)


def symbol_integral(kind: SymbolKind, i: int, j: int,
                    quad: SymbolQuadrature) -> complex:
    """One entry int sigma fhat_i conj(fhat_j) using a prebuilt rule."""
    if kind != quad.kind:
        raise ValueError("symbol kind does not match the prebuilt quadrature")
    return complex(_block(quad._plan, [quad._dofs[i]], [quad._dofs[j]])[0, 0])


def assemble_mesh_matrix(kind: SymbolKind, mesh: Mesh, tol: float = 1e-10,
                         variant: int = 0) -> np.ndarray:
    return assemble(kind, mesh_dof_factors(mesh), None, tol, variant)


# ---------------------------------------------------------------------------
# truncated fundamental-solution transform (radial formulas)
# ---------------------------------------------------------------------------
def truncated_kernel_ft(xi: float, L: float, k: float, x_n: float = 0.0,
                        n: int = 3) -> complex:
    """Fourier transform (in the screen variables) of the kernel cut at radius L.

    n=3 uses the Bessel-J0 weight, n=2 the cosine weight.  The r-integral is
    done on oscillation-resolving panels, graded geometrically toward r=0 for
    the n=2 logarithmic singularity at x_n = 0.
    """
    if L <= 0:
        raise ValueError("truncated_kernel_ft: L must be positive")
    xi = abs(float(xi))
    freq = k + xi + 1.0
    n_panels = int(math.ceil(L * freq / np.pi)) + 4
    if n_panels > 2 * 10 ** 6:
        raise QuadratureError("truncated_kernel_ft: oscillation cap exceeded")
    breaks = np.linspace(0.0, L, n_panels + 1)
    if n == 2 and x_n == 0.0:
        # graded refinement toward the log singularity
        graded = breaks[1] * 4.0 ** np.arange(-20, 0.0)
        breaks = np.unique(np.concatenate([[0.0], graded, breaks[1:]]))
    r, w = gauss_panels(breaks, 16)
    rr = np.sqrt(r * r + x_n * x_n)
    if n == 3:
        vals = np.exp(1j * k * rr) / (4.0 * np.pi * np.maximum(rr, 1e-300)) \
            * j0(xi * r) * r
        if x_n == 0.0:
            vals = np.exp(1j * k * r) / (4.0 * np.pi) * j0(xi * r)
        return complex(np.sum(w * vals))
    if n == 2:
        vals = 0.25j * hankel1(0, k * rr) * np.cos(xi * r)
        return complex(math.sqrt(2.0 / np.pi) * np.sum(w * vals))
    raise ValueError("n must be 2 or 3")
