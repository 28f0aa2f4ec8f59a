"""Wavenumber-explicit verification experiments and the s-nullity advisor.

Every check states which discrete surrogate it measures and on which side of
the continuous bound that surrogate sits:

* sampled coercivity quotients |a(phi,phi)| / ||phi||^2 are *upper* bounds on
  the discrete coercivity constant, and the Gram denominators are the true
  H^{+-1/2}_k norms of the discrete functions, so a theoretical lower bound
  on the quotient must hold sample by sample;
* operator-norm surrogates through discrete dual norms are *lower* bounds of
  the continuous norms, so theoretical upper bounds must hold without slack.

Slope fits are least squares on log-log data with at least four points and
carry an R^2 >= 0.9 gate: anything below reports "inconclusive", never a
silent pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .geometry import Mesh, Screen, build_mesh, cantor_prefractal, dist_to_screen
from .operators import (GalerkinSystem, assemble_hypersingular,
                        assemble_single_layer)
from .sobolev import WaveContext, discrete_dual_norm
from .solver import eval_field, far_field, incident_dirichlet, solve_problem_S
from .spectral import truncated_kernel_ft

COERCIVITY_CONSTANT_S = 1.0 / (2.0 * math.sqrt(2.0))   # single-layer lower bound
CONTINUITY_CONSTANT_T = 0.5                             # hypersingular upper bound
R2_GATE = 0.9
SLOPE_SLACK = 0.1

# modulation directions of the structured samples, per screen dimension
_BUMP_DIRECTIONS = {
    1: np.array([[1.0], [-1.0], [0.5]]),
    2: np.array([[np.cos(t), np.sin(t)]
                 for t in np.linspace(0.0, np.pi, 4, endpoint=False)]),
}
# pencil candidates: the eigenvectors of smallest |lambda| per rotation theta
_PENCIL_THETAS = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
_PENCIL_KEEP = 4


@dataclass
class SweepResult:
    """Grid sweep with measured quantities and an optional log-log fit."""

    parameter: np.ndarray
    quantities: dict = field(default_factory=dict)
    slope: float | None = None
    intercept: float | None = None
    r_squared: float | None = None
    passes: np.ndarray | None = None
    verdict: str = "recorded"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.parameter = np.asarray(self.parameter, dtype=float)
        if self.parameter.size > 1 and not np.all(np.diff(self.parameter) > 0):
            raise ValueError("sweep grid must be strictly increasing")


def loglog_fit(x, y) -> tuple[float, float, float]:
    """Least-squares slope/intercept/R^2 of log y against log x (>= 4 points)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError("log-log fits need at least 4 points")
    lx, ly = np.log(x), np.log(y)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _fit(k_grid: np.ndarray, y, slope_ok) -> dict:
    """Log-log fit of y against k, gated by R^2, as SweepResult fields."""
    slope, intercept, r2 = loglog_fit(k_grid, y)
    verdict = "inconclusive" if r2 < R2_GATE else (
        "pass" if slope_ok(slope) else "fail")
    return {"slope": slope, "intercept": intercept, "r_squared": r2,
            "verdict": verdict}


def mesh_for_wavenumber(screen: Screen, k: float, elements_per_wavelength: float,
                        basis_kind: str, min_per_edge: int = 2,
                        max_dofs: int = 6000) -> Mesh:
    """Uniform mesh whose h resolves k while dividing every box edge."""
    edges = (screen.hi - screen.lo).ravel()
    e_min = float(edges.min())
    target = 2.0 * np.pi / (k * elements_per_wavelength)
    m = max(min_per_edge, int(np.ceil(e_min / target)))
    h = e_min / m
    mesh = build_mesh(screen, h, basis_kind)
    if mesh.n_dofs > max_dofs:
        raise ValueError(f"mesh_for_wavenumber: {mesh.n_dofs} dofs exceed the "
                         f"cap {max_dofs}")
    return mesh


def _systems(screen: Screen, k_grid: np.ndarray, elements_per_wavelength: float,
             single: bool, tol: float):
    """(k, system) per wavenumber, on a mesh resolving it: S on P0 if single,
    else T on P1."""
    kind, assemble = (("P0", assemble_single_layer) if single
                      else ("P1", assemble_hypersingular))
    for k in k_grid:
        mesh = mesh_for_wavenumber(screen, k, elements_per_wavelength, kind)
        yield k, assemble(mesh, WaveContext(float(k)), tol)


# ---------------------------------------------------------------------------
# coercivity scans
# ---------------------------------------------------------------------------
def _quotients(system: GalerkinSystem, samples: np.ndarray) -> np.ndarray:
    """|c^H A c| / c^H G c for every sample row c."""
    conj = samples.conj()
    num = np.abs(np.sum(conj * (samples @ system.matrix.T), axis=1))
    den = np.real(np.sum(conj * (samples @ system.gram.entries.T), axis=1))
    return num / den


def _bump_values(points: np.ndarray, screen: Screen) -> np.ndarray:
    lo = screen.lo.min(axis=0)
    hi = screen.hi.max(axis=0)
    t = (points - lo) / (hi - lo) * 2.0 - 1.0
    prof = np.clip(1.0 - t * t, 0.0, None) ** 3
    return np.prod(np.atleast_2d(prof), axis=1)


def _structured_samples(mesh: Mesh, k: float) -> np.ndarray:
    """Modulated-bump candidates concentrating the transform near |xi| = k."""
    pts = mesh.dof_points
    bump = _bump_values(pts, mesh.screen)
    waves = np.exp(1j * k * (pts @ _BUMP_DIRECTIONS[mesh.dim_screen].T)).T
    return np.vstack([bump, waves * bump])


def _pencil_candidates(system: GalerkinSystem) -> np.ndarray:
    """G-unit eigenvectors c of Herm(e^{i theta} A) c = lambda G c, as rows.

    Each theta is a standard eigenproblem of the whitened matrix W; its
    eigenvectors y of smallest |lambda| map back through c = L^{-H} y.
    """
    W = system.whitened
    Y = []
    for theta in _PENCIL_THETAS:
        M = np.exp(1j * theta) * W
        vals, vecs = sla.eigh(0.5 * (M + M.conj().T), driver="evd")
        Y.append(vecs[:, np.argsort(np.abs(vals))[:_PENCIL_KEEP]])
    L = system.gram.cholesky()
    return sla.solve_triangular(L.conj().T, np.hstack(Y), lower=False).T


def _samples(system: GalerkinSystem, rng: np.random.Generator,
             n_rand: int) -> np.ndarray:
    """Gaussian rows, then modulated bumps, then pencil candidates."""
    N = system.n_dofs
    gauss = np.empty((n_rand, N), dtype=complex)
    gauss.real = rng.standard_normal((n_rand, N))
    gauss.imag = rng.standard_normal((n_rand, N))
    return np.concatenate([gauss, _structured_samples(system.mesh, system.ctx.k),
                           _pencil_candidates(system)])


def coercivity_scan_S(mesh: Mesh, ctx: WaveContext, sample_count: int = 1000,
                      seed: int = 0, tol: float = 1e-9,
                      system: GalerkinSystem | None = None) -> SweepResult:
    """Sampled quotients |a(phi,phi)| / ||phi||^2_{H^{-1/2}_k}; reports min.

    Random Gaussians, modulated bumps and pencil eigenvector candidates; the
    theoretical floor is 1/(2 sqrt 2), valid for every sample.
    """
    sys_ = system if system is not None else assemble_single_layer(mesh, ctx, tol)
    n_fixed = 1 + len(_BUMP_DIRECTIONS[sys_.mesh.dim_screen]) \
        + len(_PENCIL_THETAS) * _PENCIL_KEEP
    n_rand = max(sample_count - n_fixed, 8)
    samples = _samples(sys_, np.random.default_rng(seed), n_rand)[:sample_count]
    q = _quotients(sys_, samples)
    passes = q >= COERCIVITY_CONSTANT_S - 1e-3
    return SweepResult(
        parameter=np.arange(q.size, dtype=float),
        quantities={"quotient": q},
        passes=passes,
        verdict="pass" if bool(np.all(passes)) else "fail",
        meta={"min_quotient": float(q.min()), "k": ctx.k,
              "bound": COERCIVITY_CONSTANT_S, "seed": seed},
    )


def coercivity_scan_T(screen: Screen, k_grid, sample_count: int = 200,
                      seed: int = 0, elements_per_wavelength: float = 8.0,
                      tol: float = 1e-9) -> SweepResult:
    """min quotient |b(psi,psi)| / ||psi||^2_{H^{1/2}_k} per k, with slope fit.

    The expected trend is k^{-1/2} in 2-D (k^{-2/3} in 3-D); the fitted slope
    is compared against that exponent with sampling slack.
    """
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    rng = np.random.default_rng(seed)
    n_rand = max(sample_count - 24, 8)
    mins = np.array([
        float(_quotients(sys_, _samples(sys_, rng, n_rand)).min())
        for _, sys_ in _systems(screen, k_grid, elements_per_wavelength, False, tol)])
    beta = -0.5 if screen.dim_ambient == 2 else -2.0 / 3.0
    return SweepResult(parameter=k_grid, quantities={"min_quotient": mins},
                       meta={"beta": beta, "seed": seed,
                             "positive": bool(np.all(mins > 0))},
                       **_fit(k_grid, mins, lambda s: s >= beta - 0.25))


def continuity_estimate(system: GalerkinSystem) -> float:
    """Largest generalized singular value of the pairing matrix.

    Discrete surrogate of the operator norm (a lower bound of the continuous
    one), weighted on both sides by the system's energy-space Gram:
    H^{-1/2}_k for the single-layer system, H^{+1/2}_k for the hypersingular.
    """
    return float(sla.svdvals(system.whitened)[0])


def continuity_sweep_S(screen: Screen, k_grid, elements_per_wavelength: float = 8.0,
                       tol: float = 1e-9) -> SweepResult:
    """Surrogate of ||S_k|| against the log(2+1/(kL)) (1+sqrt(kL)) shape (2-D)."""
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    L = screen.diameter
    est, shaped = [], []
    for k, sys_ in _systems(screen, k_grid, elements_per_wavelength, True, tol):
        e = continuity_estimate(sys_)
        est.append(e)
        if screen.dim_ambient == 2:
            shape = math.log(2.0 + 1.0 / (k * L)) * (1.0 + math.sqrt(k * L))
        else:
            shape = 1.0 + math.sqrt(k * L)
        shaped.append(e / shape)
    est = np.asarray(est)
    shaped = np.asarray(shaped)
    ratio = float(shaped.max() / shaped.min())
    return SweepResult(parameter=k_grid,
                       quantities={"estimate": est, "shaped": shaped},
                       verdict="pass" if ratio <= 3.0 else "fail",
                       meta={"max_over_min": ratio, "L": L})


def _dual_ratio(system: GalerkinSystem, c: np.ndarray) -> float:
    """||A c||_{G*} / ||c||_G: the discrete dual norm of the functional A c
    over the energy norm of c."""
    return discrete_dual_norm(system.matrix @ c, system.gram) / system.gram.norm(c)


def sharpness_S(screen: Screen, k_grid, elements_per_wavelength: float = 10.0,
                tol: float = 1e-9) -> SweepResult:
    """Growth of ||S_k phi|| / ||phi|| for the modulated-bump family.

    phi has P0 coefficients e^{i k d x} psi(x) with a fixed bump psi; the
    surrogate norm is the discrete dual norm of A c, a lower bound that still
    realizes the k^{1/2} growth because the pairing with phi itself does.
    """
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    ratios = []
    for k, sys_ in _systems(screen, k_grid, elements_per_wavelength, True, tol):
        pts = sys_.mesh.dof_points
        c = np.exp(1j * k * pts[:, 0]) * _bump_values(pts, screen)
        ratios.append(_dual_ratio(sys_, c))
    ratios = np.asarray(ratios)
    return SweepResult(parameter=k_grid, quantities={"ratio": ratios},
                       meta={"target_slope": 0.5},
                       **_fit(k_grid, ratios,
                              lambda s: 0.5 - SLOPE_SLACK <= s <= 0.5 + SLOPE_SLACK))


def sharpness_T(screen: Screen, k_grid, h: float | None = None,
                tol: float = 1e-9) -> SweepResult:
    """Bounded ratio ||T_k psi|| / ||psi|| for a fixed k-independent density.

    The quotient must stay below the 1/2 continuity bound and approach a
    positive constant from below as k grows.
    """
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    if h is None:
        edges = (screen.hi - screen.lo).ravel()
        h = float(edges.min()) / 8.0
    mesh = build_mesh(screen, h, "P1")
    c = _bump_values(mesh.dof_points, screen).astype(complex)
    # dual-norm surrogate of T_k psi in H^{-1/2}_k pairs against the
    # discrete H~^{1/2} space, hence the +1/2 Gram
    ratios = np.array([
        _dual_ratio(assemble_hypersingular(mesh, WaveContext(float(k)), tol), c)
        for k in k_grid])
    ok_upper = bool(np.all(ratios <= CONTINUITY_CONSTANT_T + 1e-6))
    tail = ratios[k_grid >= 16.0] if np.any(k_grid >= 16.0) else ratios[-1:]
    ok_lower = bool(np.all(tail >= 0.1))
    return SweepResult(parameter=k_grid, quantities={"ratio": ratios},
                       verdict="pass" if (ok_upper and ok_lower) else "fail",
                       meta={"upper": CONTINUITY_CONSTANT_T,
                             "asymptote": math.sqrt(3.0) / (8.0 * math.sqrt(2.0))})


# ---------------------------------------------------------------------------
# pointwise bound and kernel-transform bound
# ---------------------------------------------------------------------------
def _pointwise_shape(n: int, k: float, L: float, d: float) -> float:
    kL, kd = k * L, k * d
    if n == 3:
        return (1 + 1 / math.sqrt(kL)) * (1 + kd ** -1.5) * (1 + kL ** 2)
    return ((1 + 1 / math.sqrt(kL)) * (1 + 1 / math.sqrt(kd))
            * math.log(2 + 1 / kd) * math.sqrt(math.log(2 + kL)) * (1 + math.sqrt(kL)))


def pointwise_bound_check(screen: Screen, k_grid, x, incident_direction,
                          elements_per_wavelength: float = 8.0,
                          tol: float = 1e-9) -> SweepResult:
    """|u(x)| for the sound-soft problem against the pointwise bound shape.

    The constant is existential: it is fitted at the smallest wavenumber and
    the ratio drift across the sweep is reported.
    """
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    x = np.asarray(x, dtype=float)
    L = screen.diameter
    d = dist_to_screen(x, screen)
    vals, shapes = [], []
    for k, sys_ in _systems(screen, k_grid, elements_per_wavelength, True, tol):
        g = incident_dirichlet(sys_.ctx, [incident_direction])
        sol = solve_problem_S(screen, sys_.ctx, g, sys_.mesh.h, tol, system=sys_)
        vals.append(abs(complex(eval_field(sol, [x]))))
        shapes.append(_pointwise_shape(screen.dim_ambient, float(k), L, d))
    vals = np.asarray(vals)
    shapes = np.asarray(shapes)
    C = vals[0] / shapes[0]
    ratios = vals / (C * shapes)
    ok = bool(np.all(ratios <= 3.0)) and bool(np.all(np.isfinite(vals)))
    return SweepResult(parameter=k_grid,
                       quantities={"abs_u": vals, "shape": shapes,
                                   "ratio": ratios},
                       verdict="pass" if ok else "fail",
                       meta={"fitted_C": float(C), "d": d, "L": L})


def kernel_ft_bound_check(L: float, k_grid, xi_count: int = 20, n: int = 3,
                          x_n: float = 0.0, refine: int = 2) -> SweepResult:
    """sup over a (k, xi) grid of |Phi_L_hat| sqrt(k^2+xi^2) / shape.

    The constant is existential; the check is that the fitted sup is stable
    (within a factor 2) when the grid is refined.
    """
    k_grid = np.asarray(sorted(k_grid), dtype=float)

    def grid_sup(n_xi: int, ks: np.ndarray) -> float:
        sup = 0.0
        for k in ks:
            xis = np.linspace(0.0, 3.0 * k + 5.0, n_xi)
            for xi in xis:
                v = abs(truncated_kernel_ft(xi, L, float(k), x_n, n))
                w = v * math.sqrt(k * k + xi * xi)
                kL = k * L
                if n == 3:
                    shape = 1.0 + math.sqrt(kL)
                else:
                    shape = math.log(2.0 + 1.0 / kL) * (
                        1.0 + math.sqrt(kL)
                        + math.sqrt(k * abs(x_n)) * math.log(2.0 + kL))
                sup = max(sup, w / shape)
        return sup

    sup1 = grid_sup(xi_count, k_grid)
    ks_fine = np.unique(np.concatenate(
        [k_grid, np.sqrt(k_grid[:-1] * k_grid[1:])]))
    sup2 = grid_sup(refine * xi_count, ks_fine)
    ratio = sup2 / sup1 if sup1 > 0 else math.inf
    return SweepResult(parameter=k_grid, quantities={"sup": np.array([sup1, sup2])},
                       verdict="pass" if ratio <= 2.0 else "fail",
                       meta={"sup_coarse": sup1, "sup_fine": sup2,
                             "ratio": float(ratio)})


# ---------------------------------------------------------------------------
# s-nullity advisor
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NullityDescriptor:
    """Structured set descriptor for the nullity advisor.

    kind: "cantor_limit_set" (screen_dim_ambient n, ratio), "hyperplane",
    "finite_set", "c0_boundary", "lipschitz_boundary".  ``ambient`` is the
    dimension of the space the set lives in.
    """

    kind: str
    ambient: int
    ratio: float | None = None
    screen_n: int | None = None

    def hausdorff_dim(self) -> float | None:
        if self.kind == "cantor_limit_set":
            n = self.screen_n if self.screen_n is not None else self.ambient + 1
            return (n - 1) * math.log(2.0) / math.log(1.0 / self.ratio)
        if self.kind == "hyperplane":
            return float(self.ambient - 1)
        if self.kind == "finite_set":
            return 0.0
        return None

    def zero_measure(self) -> bool | None:
        if self.kind in ("cantor_limit_set", "hyperplane", "finite_set"):
            return True
        return None


def cantor_descriptor(n: int, ratio: float) -> NullityDescriptor:
    """Limit set of the level-j prefractal family for an n-dimensional screen."""
    return NullityDescriptor("cantor_limit_set", ambient=n - 1, ratio=ratio,
                             screen_n=n)


@dataclass(frozen=True)
class NullityVerdict:
    descriptor: NullityDescriptor
    s: float
    verdict: str          # "null" | "not-null" | "undecided"
    rule: str


def nullity_advisor(descriptor: NullityDescriptor, s: float) -> NullityVerdict:
    """Decide s-nullity from the decidable structured rules.

    Precedence: delta-function range (s < -n/2) -> not-null; nonnegative
    order with zero measure -> null; in -n/2 < s < 0 the Hausdorff-dimension
    comparison with n + 2s decides off the boundary case; boundary-regularity
    tags use their dedicated criteria.  Everything else is undecided.
    """
    n = descriptor.ambient
    if descriptor.kind in ("cantor_limit_set", "hyperplane", "finite_set"):
        if s < -n / 2.0:
            return NullityVerdict(descriptor, s, "not-null",
                                  "distributions below -n/2 charge any point")
        if descriptor.kind == "finite_set" and s == -n / 2.0:
            return NullityVerdict(descriptor, s, "null",
                                  "finite sets at the delta threshold")
        if s >= 0.0 and descriptor.zero_measure():
            return NullityVerdict(descriptor, s, "null",
                                  "zero Lebesgue measure at nonnegative order")
        dim = descriptor.hausdorff_dim()
        thresh = n + 2.0 * s
        band = 1e-12 * max(1.0, abs(thresh))
        if abs(dim - thresh) <= band:
            return NullityVerdict(descriptor, s, "undecided",
                                  "boundary case dim_H = n + 2s")
        if -n / 2.0 < s < 0.0 and dim < thresh:
            return NullityVerdict(descriptor, s, "null",
                                  "Hausdorff dimension below n + 2s")
        if -n / 2.0 <= s < 0.0 and dim > thresh:
            return NullityVerdict(descriptor, s, "not-null",
                                  "Hausdorff dimension above n + 2s (Borel)")
        return NullityVerdict(descriptor, s, "undecided",
                              "boundary case dim_H = n + 2s")
    if descriptor.kind == "c0_boundary":
        if s >= 0.0:
            return NullityVerdict(descriptor, s, "null",
                                  "continuous-graph boundary at nonnegative order")
        if s < -0.5:
            return NullityVerdict(descriptor, s, "not-null",
                                  "continuous boundaries charge below -1/2")
        return NullityVerdict(descriptor, s, "undecided",
                              "no C^0 criterion in (-1/2, 0)")
    if descriptor.kind == "lipschitz_boundary":
        if s >= -0.5:
            return NullityVerdict(descriptor, s, "null",
                                  "Lipschitz boundary criterion s >= -1/2")
        return NullityVerdict(descriptor, s, "not-null",
                              "Lipschitz boundary criterion s < -1/2")
    raise ValueError(f"unsupported descriptor kind {descriptor.kind!r}")


# ---------------------------------------------------------------------------
# prefractal families
# ---------------------------------------------------------------------------
def prefractal_convergence(n: int, ratio: float, level_grid, ctx: WaveContext,
                           incident_direction, observable: str = "far_field",
                           eval_point=None, elements_per_feature: int = 2,
                           tol: float = 1e-9) -> SweepResult:
    """Solve the sound-soft problem on each prefractal level and record
    observable differences between consecutive levels (trend reported, never
    asserted)."""
    levels = sorted(int(v) for v in level_grid)
    if n == 2:
        dirs_grid = [[math.sin(t), -math.cos(t)] for t in
                     np.linspace(-1.2, 1.2, 13)]
    else:
        dirs_grid = [[math.sin(t) * 0.6, math.cos(t) * 0.6,
                      -math.sqrt(1 - 0.36)] for t in np.linspace(0, np.pi, 9)]
    observables, masses, dof_counts = [], [], []
    for lev in levels:
        screen = cantor_prefractal(n, lev, ratio)
        width = float((screen.hi - screen.lo).min())
        h = width / elements_per_feature
        g = incident_dirichlet(ctx, [incident_direction])
        sol = solve_problem_S(screen, ctx, g, h, tol)
        dof_counts.append(sol.density.mesh.n_dofs)
        if observable == "far_field":
            ff = far_field(sol, dirs_grid)
            observables.append(ff)
        else:
            observables.append(np.atleast_1d(eval_field(sol, [eval_point])))
        elem_area = sol.density.mesh.h ** (n - 1)
        masses.append(float(np.sum(np.abs(sol.density.coefficients)) * elem_area))
    diffs = [float(np.linalg.norm(observables[i + 1] - observables[i])
                   / math.sqrt(len(observables[i])))
             for i in range(len(observables) - 1)]
    return SweepResult(parameter=np.asarray(levels, dtype=float),
                       quantities={"l1_mass": np.asarray(masses),
                                   "dofs": np.asarray(dof_counts, dtype=float)},
                       verdict="recorded",
                       meta={"consecutive_diffs": diffs,
                             "observable": observable})
