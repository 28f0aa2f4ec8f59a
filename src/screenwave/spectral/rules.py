"""Panelized Gauss-Legendre rules for the radial symbol integrals.

The radial line (0, X) is covered by three kinds of panels:

* sin-sub on (0, k):    rho = k sin t, which turns d rho / |Z| into dt and
  makes every symbol integrand bounded through the branch point;
* cosh-sub on (k, 2k):  rho = k cosh t, same effect from the right;
* plain on (2k, X):     the symbol is smooth there.

Panel lengths resolve the fastest oscillation ``omega`` of the basis-product
factors (at most ~half a period per 16-point panel).  Weights returned by
``radial_rule`` already include the symbol value and the substitution
Jacobian, evaluated in the substituted variable so the branch point never
suffers cancellation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PanelSpec:
    lo: float
    hi: float
    substitution: str   # "sin-sub" | "cosh-sub" | "plain"
    n_nodes: int


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    x0, w0 = np.polynomial.legendre.leggauss(order)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def gauss_panels(breaks: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over consecutive [b_i, b_{i+1}]."""
    x0, w0 = gauss_legendre(order)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    nodes = 0.5 * (b - a) * x0[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * np.broadcast_to(w0[None, :], nodes.shape)
    return nodes.ravel(), weights.ravel()


def split_interval(lo: float, hi: float, max_len: float, min_panels: int = 1) -> np.ndarray:
    n = max(min_panels, int(np.ceil((hi - lo) / max_len)))
    return np.linspace(lo, hi, n + 1)


def _sigma_jac_sin(kind, k: float, t: np.ndarray) -> np.ndarray:
    # rho = k sin t on (0, k); d rho = k cos t dt; Z = k cos t
    if kind.tag == "single_layer":
        return np.full(t.shape, 0.5j, dtype=complex)
    if kind.tag == "hypersingular":
        return 0.5j * (k * np.cos(t)) ** 2
    rho = k * np.sin(t)
    return (k * k + rho * rho) ** kind.s * (k * np.cos(t)) + 0.0j


def _sigma_jac_cosh(kind, k: float, t: np.ndarray) -> np.ndarray:
    # rho = k cosh t on (k, 2k); d rho = k sinh t dt; Z = i k sinh t
    if kind.tag == "single_layer":
        return np.full(t.shape, 0.5, dtype=complex)
    if kind.tag == "hypersingular":
        return -0.5 * (k * np.sinh(t)) ** 2 + 0.0j
    rho = k * np.cosh(t)
    return (k * k + rho * rho) ** kind.s * (k * np.sinh(t)) + 0.0j


def sigma_plain(kind, k: float, rho: np.ndarray) -> np.ndarray:
    """Symbol value for rho well above k (>= 2k keeps this stable)."""
    if kind.tag == "single_layer":
        return 0.5 / np.sqrt(rho * rho - k * k) + 0.0j
    if kind.tag == "hypersingular":
        return -0.5 * np.sqrt(rho * rho - k * k) + 0.0j
    return (k * k + rho * rho) ** kind.s + 0.0j


def radial_rule(kind, k: float, X: float, omega: float, order: int = 16,
                scale: float = 1.0) -> tuple[np.ndarray, np.ndarray, list[PanelSpec]]:
    """Nodes rho_g and combined weights w_g * sigma * jac on (0, X).

    ``omega`` is the fastest basis-product frequency in rho; ``scale`` < 1
    refines every panel budget (used to build an independent second rule).
    """
    if X <= 2.0 * k:
        raise ValueError("radial_rule: X must exceed 2k")
    om = max(omega, 0.5)
    panels: list[PanelSpec] = []

    # (0, k): t in (0, pi/2), |d rho/dt| <= k
    tb = split_interval(0.0, np.pi / 2.0, scale * np.pi / (om * k), min_panels=4)
    t, wt = gauss_panels(tb, order)
    rho_a = k * np.sin(t)
    w_a = wt * _sigma_jac_sin(kind, k, t)
    panels.append(PanelSpec(0.0, k, "sin-sub", t.size))

    # (k, 2k): t in (0, acosh 2), |d rho/dt| <= k sinh(acosh 2) = k sqrt3
    t2max = np.arccosh(2.0)
    tb2 = split_interval(0.0, t2max, scale * np.pi / (om * k * np.sqrt(3.0)), min_panels=4)
    t2, wt2 = gauss_panels(tb2, order)
    rho_b = k * np.cosh(t2)
    w_b = wt2 * _sigma_jac_cosh(kind, k, t2)
    panels.append(PanelSpec(k, 2.0 * k, "cosh-sub", t2.size))

    # (2k, X): plain
    rb = split_interval(2.0 * k, X, scale * np.pi / om, min_panels=2)
    rho_c, wc = gauss_panels(rb, order)
    w_c = wc * sigma_plain(kind, k, rho_c)
    panels.append(PanelSpec(2.0 * k, X, "plain", rho_c.size))

    rho = np.concatenate([rho_a, rho_b, rho_c])
    w = np.concatenate([w_a, w_b, w_c])
    return rho, w, panels
