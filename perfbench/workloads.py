"""The benchmark's workloads: inputs, one operation, and its checks.

Every library call goes through the layer modules (``solver.solve_problem_S``
and so on), so that a traced run sees it.  A workload draws each operation's
input from the seeded generator it is given; the library receives only those
inputs.  Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import math

import numpy as np

from screenwave import diagnostics, geometry, operators, solver, spectral
from screenwave.sobolev import WaveContext

RECIPROCITY_RTOL = 1e-10
COERCIVITY_FLOOR = diagnostics.COERCIVITY_CONSTANT_S - 1e-3


def _circle(n: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(t), np.sin(t)])


def _sphere(n: int) -> np.ndarray:
    """Fibonacci points on the unit sphere."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _angle_dir(theta: float) -> np.ndarray:
    """Unit vector in the plane at angle theta from the downward normal."""
    return np.array([math.sin(theta), -math.cos(theta)])


class Workload:
    """One screen, mesh and operation type; subclasses fill in the details."""

    name = ""
    tol = 1e-10
    acc_limit = 1e-6
    acc_h = 0.0                  # coarsest mesh used by the accuracy check
    antithetic = True

    def __init__(self):
        self._plans: dict[float, dict] = {}

    def draw_group(self, rng) -> list[dict]:
        """Inputs of the next group of ops, from the seeded generator.

        Each band position u is uniform.  With ``antithetic`` set, ops come
        in pairs at u and 1 - u, so that every pair spans the k band and the
        median of a short run does not hinge on where its few draws fell.
        """
        u = float(rng.uniform())
        if not self.antithetic:
            return [self.draw(rng, u)]
        return [self.draw(rng, u), self.draw(rng, 1.0 - u)]

    def log_uniform_k(self, u: float) -> float:
        lo, hi = self.k_range
        return lo * (hi / lo) ** u

    def setup(self) -> None:
        """Build everything that does not depend on the seed."""
        raise NotImplementedError

    def draw(self, rng, u: float) -> dict:
        """Input of one operation at band position u."""
        raise NotImplementedError

    def warmup_input(self) -> dict:
        """Fixed input of the untimed warm-up operation."""
        raise NotImplementedError

    def op(self, x: dict):
        raise NotImplementedError

    def check(self, x: dict, out) -> tuple[list[str], dict]:
        """Output checks of one operation: (failures, recorded values)."""
        raise NotImplementedError

    def accuracy(self, k: float) -> tuple[float, bool]:
        """Production matrix against the independent oracle on a small mesh.

        P0: the spatial kernel quadrature.  Every entry must agree to 1e-6
        relative or to the requested absolute tolerance, whichever is looser,
        since tiny entries of fine prefractal meshes carry the absolute
        quadrature tolerance.  Returns (largest entrywise relative error, ok).
        """
        small = geometry.build_mesh(self.screen, self.acc_h, "P0")
        A = self.galerkin_matrix(small, k)
        ref = operators.kernel_oracle_single_layer(small, WaveContext(k))
        diff = np.abs(A - ref)
        ok = bool(np.all(diff <= self.acc_limit * np.abs(ref) + self.tol))
        return float(np.max(diff / np.abs(ref))), ok

    def symbol(self, k: float):
        """Fourier symbol of the operation's Galerkin matrix."""
        return spectral.single_layer(k)

    def plan_check(self, k: float, info: dict) -> list[str]:
        """build_quadrature for the op's symbol; its tail bound must meet tol.

        The plan depends only on (symbol, mesh, tol), so it is built once per k.
        """
        if k not in self._plans:
            quad = spectral.build_quadrature(self.symbol(k), self.mesh, self.tol)
            self._plans[k] = {"tail_bound": quad.tail_bound, "xi_max": quad.xi_max,
                              "quad_nodes": sum(p.n_nodes for p in quad.panels)}
        info.update(self._plans[k])
        if not info["tail_bound"] <= self.tol:
            return [f"tail bound {info['tail_bound']:.3g} > tol {self.tol:g}"]
        return []

    def galerkin_matrix(self, mesh, k: float) -> np.ndarray:
        """The production assembly of the op's matrix, without Gram matrices."""
        return spectral.assemble(self.symbol(k), spectral.mesh_dof_factors(mesh),
                                 tol=self.tol)


class ScreenSolve(Workload):
    """Ops that solve a screen problem for one incident plane wave."""

    def solve(self, ctx, d, system=None):
        """Sound-soft screen (problem S); the sound-hard workload overrides."""
        g = solver.incident_dirichlet(ctx, [d])
        return solver.solve_problem_S(self.screen, ctx, g, self.h, self.tol,
                                      system=system)

    def check(self, x, out):
        """Finite outputs, far-field reciprocity and the plan's tail bound."""
        sol, *fields = out
        info = {"residual": sol.diagnostics["algebraic_residual"]}
        fails = [] if all(np.all(np.isfinite(f)) for f in fields) \
            else ["non-finite field"]
        # u_inf(xhat; d) = u_inf(-d; -xhat), the second solve reusing the system
        d, xhat = x["d"], x["xhat"]
        sol2 = self.solve(sol.ctx, -xhat, system=sol.system)
        a = solver.far_field(sol, [xhat])[0]
        b = solver.far_field(sol2, [-d])[0]
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        if not rel <= RECIPROCITY_RTOL:
            fails.append(f"reciprocity defect {rel:.3g}")
        return fails + self.plan_check(x["k"], info), info


class IntervalS(ScreenSolve):
    """n=2 unit interval, P0, N=256: solve, far field, field at 12 points."""

    name = "interval-S"
    h = 1.0 / 256.0
    acc_h = 1.0 / 8.0
    k_range = (4.0, 16.0)

    def setup(self):
        self.screen = geometry.make_screen(2, [(0.0, 1.0)])
        self.mesh = geometry.build_mesh(self.screen, self.h, "P0")
        self.far_dirs = _circle(360)
        t = np.linspace(0.0, np.pi, 12)
        self.points = np.column_stack([0.5 + 1.5 * np.cos(t), 0.2 + np.sin(t)])

    def draw(self, rng, u):
        return {"k": self.log_uniform_k(u),
                "d": _angle_dir(rng.uniform(-1.3, 1.3)),
                "xhat": -_angle_dir(rng.uniform(-1.3, 1.3))}

    def warmup_input(self):
        return {"k": math.sqrt(self.k_range[0] * self.k_range[1]),
                "d": _angle_dir(0.3), "xhat": -_angle_dir(0.3)}

    def op(self, x):
        sol = self.solve(WaveContext(x["k"]), x["d"])
        return sol, solver.far_field(sol, self.far_dirs), solver.eval_field(sol, self.points)


class CantorSweep(Workload):
    """n=2 Cantor level 4, P0, N=128: assembly plus coercivity/continuity."""

    name = "cantor-sweep"
    tol = 1e-9
    h = 3.0 ** -4 / 8.0
    acc_h = 3.0 ** -4
    k_range = (26.0, 30.0)
    samples = 1000

    def setup(self):
        self.screen = geometry.cantor_prefractal(2, 4, 1.0 / 3.0)
        self.mesh = geometry.build_mesh(self.screen, self.h, "P0")

    def draw(self, rng, u):
        return {"k": self.log_uniform_k(u),
                "sample_seed": int(rng.integers(2 ** 31))}

    def warmup_input(self):
        return {"k": math.sqrt(self.k_range[0] * self.k_range[1]), "sample_seed": 0}

    def op(self, x):
        ctx = WaveContext(x["k"])
        system = operators.assemble_single_layer(self.mesh, ctx, self.tol)
        scan = diagnostics.coercivity_scan_S(self.mesh, ctx, self.samples,
                                             x["sample_seed"], self.tol, system=system)
        return scan, diagnostics.continuity_estimate(system)

    def check(self, x, out):
        scan, cont = out
        q = scan.meta["min_quotient"]
        info = {"min_quotient": q}
        fails = [] if q >= COERCIVITY_FLOOR else [f"coercivity quotient {q:.4g}"]
        if not (math.isfinite(cont) and cont > 0.0):
            fails.append(f"continuity estimate {cont!r}")
        fails += self.plan_check(x["k"], info)
        return fails, info


class DustN3(ScreenSolve):
    """n=3 Cantor dust level 2, P0, N=64: solve plus far field (2-D engine)."""

    name = "dust-n3"
    h = 1.0 / 18.0
    acc_h = 1.0 / 9.0
    k_range = (2.0, 8.0)
    antithetic = False           # op time is flat in k, and one op fills a run

    def setup(self):
        self.screen = geometry.cantor_prefractal(3, 2, 1.0 / 3.0)
        self.mesh = geometry.build_mesh(self.screen, self.h, "P0")
        self.far_dirs = _sphere(360)

    @staticmethod
    def _down(theta: float, phi: float) -> np.ndarray:
        s = math.sin(theta)
        return np.array([s * math.cos(phi), s * math.sin(phi), -math.cos(theta)])

    def draw(self, rng, u):
        lo, hi = self.k_range
        return {"k": lo + (hi - lo) * u,
                "d": self._down(rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * np.pi)),
                "xhat": -self._down(rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * np.pi))}

    def warmup_input(self):
        return {"k": 0.5 * sum(self.k_range), "d": self._down(0.3, 0.4),
                "xhat": -self._down(0.3, 0.4)}

    def op(self, x):
        sol = self.solve(WaveContext(x["k"]), x["d"])
        return sol, solver.far_field(sol, self.far_dirs)


class StripTIncidence(ScreenSolve):
    """n=2 unit interval, P1, N=255, k=10: one incidence angle per op."""

    name = "strip-T-incidence"
    h = 1.0 / 256.0
    acc_h = 1.0 / 9.0
    k = 10.0
    antithetic = False           # k is fixed; only the incidence angle varies
    acc_limit = 1e-8

    def setup(self):
        self.screen = geometry.make_screen(2, [(0.0, 1.0)])
        self.mesh = geometry.build_mesh(self.screen, self.h, "P1")
        self.system = operators.assemble_hypersingular(self.mesh, WaveContext(self.k),
                                                       self.tol)
        self.far_dirs = _circle(360)
        gx, gy = np.meshgrid(np.linspace(-0.5, 1.5, 20), np.linspace(-1.0, 1.0, 10))
        self.points = np.column_stack([gx.ravel(), gy.ravel()])

    def draw(self, rng, u):
        return {"k": self.k, "d": _angle_dir(rng.uniform(-1.3, 1.3)),
                "xhat": -_angle_dir(rng.uniform(-1.3, 1.3))}

    def warmup_input(self):
        return {"k": self.k, "d": _angle_dir(0.0), "xhat": -_angle_dir(0.0)}

    def solve(self, ctx, d, system=None):
        g = solver.incident_neumann(ctx, [d])
        return solver.solve_problem_T(self.screen, ctx, g, self.h, self.tol,
                                      system=system)

    def op(self, x):
        sol = self.solve(self.system.ctx, x["d"], system=self.system)
        return sol, solver.far_field(sol, self.far_dirs), solver.eval_field(sol, self.points)

    def symbol(self, k):
        return spectral.hypersingular(k)

    def accuracy(self, k):
        """P1: Maue surface-derivative oracle, normwise relative error."""
        small = geometry.build_mesh(self.screen, self.acc_h, "P1")
        B = self.galerkin_matrix(small, k)
        ref = operators.maue_oracle_hypersingular(small, WaveContext(k), self.tol)
        err = float(np.max(np.abs(B - ref)) / np.max(np.abs(B)))
        return err, err <= self.acc_limit


WORKLOADS = {w.name: w for w in (IntervalS, CantorSweep, DustN3, StripTIncidence)}
