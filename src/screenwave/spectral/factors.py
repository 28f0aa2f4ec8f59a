"""Closed-form Fourier transforms of the 1-D basis building blocks.

Every mesh function factors per screen axis into one of three shapes whose
transforms are exact trigonometric expressions:

* ``box``  (P0 indicator of width h at center c):
      f(xi) = h * sinc(xi h / 2) * exp(-i c xi) / sqrt(2 pi)
* ``hat``  (P1 tent of half-width h at node c):
      f(xi) = h * sinc(xi h / 2)^2 * exp(-i c xi) / sqrt(2 pi)
* ``dhat`` (x-derivative of a hat):  f(xi) = i xi * hat(xi)

For |xi| -> infinity each factor is a finite sum of complex exponentials over
a power of xi,

    f(xi) = xi^{-p} * sum_t a_t exp(i w_t xi),

which we expose exactly; products of two factors then have the same structure
and drive all analytic tail integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)
_FREQ_SNAP = 1e-12      # |nu| below this times the larger |w| is rounding


def sinc(t: np.ndarray) -> np.ndarray:
    """sin(t)/t with a series fallback below |t| = 1e-4 (avoids cancellation)."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 1e-4
    out = np.empty_like(t)
    ts = t[small]
    out[small] = 1.0 - ts * ts / 6.0 * (1.0 - ts * ts / 20.0)
    tb = t[~small]
    out[~small] = np.sin(tb) / tb
    return out


@dataclass(frozen=True)
class AxisFactor:
    """One 1-D Fourier factor of a dof basis function."""

    kind: str      # "box" | "hat" | "dhat"
    center: float
    h: float

    def value(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        a = xi * self.h / 2.0
        phase = np.exp(-1j * self.center * xi)
        if self.kind == "box":
            return self.h * sinc(a) * phase / _SQRT2PI
        if self.kind == "hat":
            return self.h * sinc(a) ** 2 * phase / _SQRT2PI
        if self.kind == "dhat":
            return 1j * xi * self.h * sinc(a) ** 2 * phase / _SQRT2PI
        raise ValueError(f"unknown factor kind {self.kind!r}")

    def exp_terms(self) -> tuple[int, list[tuple[complex, float]]]:
        """Exact large-|xi| form: power p and terms (a_t, w_t)."""
        c, h = self.center, self.h
        half = h / 2.0
        if self.kind == "box":
            # (2/sqrt(2pi)) sin(xi h/2) e^{-ic xi} / xi
            amp = 2.0 / _SQRT2PI
            return 1, [(amp / 2j, half - c), (-amp / 2j, -half - c)]
        if self.kind in ("hat", "dhat"):
            # (4/(h sqrt(2pi))) sin^2(xi h/2) e^{-ic xi} / xi^2
            amp = 4.0 / (h * _SQRT2PI)
            terms = [
                (amp * 0.5, -c),
                (-amp * 0.25, h - c),
                (-amp * 0.25, -h - c),
            ]
            if self.kind == "hat":
                return 2, terms
            return 1, [(1j * a, w) for a, w in terms]
        raise ValueError(f"unknown factor kind {self.kind!r}")


def pair_terms(f: AxisFactor, g: AxisFactor):
    """Unmerged large-|xi| terms of f(xi) * conj(g(xi)) for real xi > 0:

        xi^{-q} sum_t c_t exp(i (wf_t - wg_t) xi),

    one term per pair of a term of f (outer) and of g.  Returns (q, c, wf, wg)
    with c, wf and wg arrays over t.
    """
    pf, tf = f.exp_terms()
    pg, tg = g.exp_terms()
    af, wf = np.array([a for a, _ in tf]), np.array([w for _, w in tf])
    ag, wg = np.array([a for a, _ in tg]), np.array([w for _, w in tg])
    c = np.multiply.outer(af, np.conj(ag)).ravel()
    return pf + pg, c, np.repeat(wf, wg.size), np.tile(wg, wf.size)


def snap_frequencies(nu, wf, wg):
    """nu = wf - wg, with rounding residue set to 0.

    Equal frequencies of off-lattice centres can differ by rounding; such a
    nu is a DC term, not an oscillation of period ~1e17.  No
    integration-by-parts bound can use it, and near order 1 the half-line
    integral X^{1-m} E_m(-i nu X) at such a nu is far from the DC value.
    Works elementwise on arrays.
    """
    return np.where(np.abs(nu) <= _FREQ_SNAP * np.maximum(np.abs(wf), np.abs(wg)),
                    0.0, nu)
