"""Analytic tails for the radial symbol integrals.

Beyond a split radius X >= 2.5k the symbols admit geometric expansions in
(k/rho)^2 with power-law terms rho^p.  Against the exact exponential form of
the basis-product factors the leftover integrals reduce to

* n=2:  integrals  int_X^inf e^{i nu xi} xi^{-m} d xi  = X^{1-m} E_m(-i nu X),
  in one array pass over every term of every table key.  The orders of
  one plan are rungs m_0 + 2j of a ladder; each distinct frequency gets them
  from one long-double evaluation: the power series below |z| = 1, at the
  read rungs only, beyond it one continued fraction at the order nearest
  |z| and the order recurrence run outward from there.  The sums over orders
  and terms stay in long double, because the P0 and P1 tails are second and
  fourth differences in nu that amplify rounding by (h X)^-2 and (h X)^-4.

  The ladder depends on the mesh's frequencies nu, on X and on the rungs,
  not on k: a k sweep on one mesh keeps X = 40 up to k = 16 and reads the
  same few ladders again and again.  ``profile_tails`` therefore keeps the
  ladders of one frequency set and one X, keyed by (m_0, rungs) and at most
  ``_TABLE_CELLS`` cells in all; a new set or X drops them.  A hit is history-
  free: it returns the array that a fresh call with that key computes, bit
  for bit, because the key is everything the ladder reads and no other
  ladder stands in for it.  The first rungs of a longer ladder are not
  those of a shorter one: its continued fractions may start at higher
  orders and its series stops later, which moves the last bits.  The n=3
  axis tables evaluate their ladders fresh; and

* n=3:  exterior-of-square integrals of |xi|^p * P(xi) for separable P,
  computed through the heat-kernel factorization
      |xi|^{-s} = (1/Gamma(s/2)) int_0^inf v^{s/2-1} e^{-|xi|^2 v} dv
  (and its once-subtracted variant for 0 < p < 2), which turns every term
  into products of 1-D Gaussian-damped axis integrals.  Those of all keys
  of one axis are cosine transforms of one rule on (0, X) and one per axis
  cutoff Y on (X, Y) against damping columns over the v grid, completed
  beyond Y by the exact DC term and the ``profile_tails`` of the others;
  the exterior integrals of all pairs of an x key and a y key are then a
  few matrix products over the v grid per series term.

All neglected pieces carry explicit envelope/IBP bounds that are accumulated
into the quadrature's certified tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import binom, digamma, erfc, gammaln, zeta

from .rules import gauss_panels

# the series loses ~e^{|z|} ulps to cancellation; 1 keeps it below 6e-16
_SERIES_RADIUS = 1.0
_CF_EPS = 8.0 * float(np.finfo(np.longdouble).eps)
_CF_CELLS = 1024     # argument-iterations per continued-fraction convergence test
_CF_CHUNK = 2048     # arguments per continued-fraction batch
_TABLE_CELLS = 1 << 17   # cells per table batch and in the ladder memo: bounds the working set


class QuadratureError(RuntimeError):
    """Quadrature non-convergence: a tolerance or oscillation cap was hit."""


def _order_terms(m: float) -> tuple[float, float, float]:
    """(n, e, g) for order m: n = max(1, round(m)), e = m - n and

        g = (log Gamma(1-e) - sum_{j<n} log1p(e/j)) / e,   -psi(n) at e = 0.

    Below |e| = 1/4, g is summed from the series in e of DLMF 5.7.3 and of
    log1p, whose coefficients are zeta(k) +- H_{n-1}^{(k)}: it keeps its
    relative accuracy as m nears an integer, where the direct quotient
    would not.
    """
    n = max(1.0, math.floor(m + 0.5))
    e = m - n
    if e == 0.0:            # the series below: every term is 0 * zeta
        return n, e, -digamma(n)
    if abs(e) >= 0.25:
        return n, e, (gammaln(1.0 - e)
                      - sum(math.log1p(e / j) for j in range(1, int(n)))) / e
    g, ek = -digamma(n), e
    for k in range(2, 30):
        g += (zeta(k, n) if k % 2 else 2.0 * zeta(k) - zeta(k, n)) * ek / k
        ek *= e
    return n, e, g


def _expint_series(m: np.ndarray, z: np.ndarray, maxterms: int = 400) -> np.ndarray:
    """E_m(z) by the DLMF 8.19.8/8.19.10 power series (good for |z| < ~1).

    With n, e and g from ``_order_terms``,

        E_m(z) = G - sum_{k >= 0, k != n-1} (-z)^k / (k! (k+1-m)),

    where G joins Gamma(1-m) z^{m-1} to the k = n-1 term, whose denominator
    -e vanishes as m nears an integer:

        G = -(-z)^{n-1}/(n-1)! * expm1(e (log z + g)) / e.

    At e = 0 the quotient is log z - psi(n), which is 8.19.8 for integer m.
    The sum runs in the precision of m and z; n, e and g are doubles, whose
    rounding is the same for every z of one order.  It stops at the first
    k >= max(n) at which every |(-z)^k / k!| < 1e-22; the terms are rows of
    one table, formed and summed in order of k by ``accumulate`` calls.
    Raises ``QuadratureError`` when that takes more than ``maxterms`` terms.
    """
    orders, inverse = np.unique(m, return_inverse=True)
    n, e, g = np.array([_order_terms(float(v)) for v in orders])[inverse.reshape(-1)].T
    logz = np.log(z)
    safe_e = np.where(e == 0.0, 1.0, e)
    ratio = np.where(e == 0.0, logz + g, np.expm1(e * (logz + g)) / safe_e)

    # rows to form: past max(n) and past where the bound |z|^k / k! on the
    # terms falls a decade below the stopping threshold
    r, n_max = float(np.abs(z).max()), n.max()
    K, bound = 1, r
    while (K < n_max or bound >= 1e-23) and K <= maxterms:
        K += 1
        bound *= r / K
    terms = np.empty((K + 1, z.size), dtype=z.dtype)     # (-z)^k / k!
    terms[0] = 1.0
    np.divide(-z, np.arange(1, K + 1)[:, None], out=terms[1:])
    np.multiply.accumulate(terms, axis=0, out=terms)
    small = np.abs(terms[1:]).max(axis=1) < 1e-22
    stops = np.flatnonzero(small & (np.arange(1, K + 1) >= n_max)) + 1
    if K > maxterms or not stops.size:
        worst = np.abs(z).argmax() if r >= 1.0 else n.argmax()
        raise QuadratureError(
            f"E_m power series: more than {maxterms} terms "
            f"(worst |z| = {float(abs(z[worst])):.6g}, m = {float(m[worst]):.6g})")
    stop = stops[0]
    k = np.arange(stop)[:, None]
    at_pole = k == n - 1.0
    parts = np.zeros((stop + 1, z.size), dtype=z.dtype)
    np.divide(terms[:stop], np.where(at_pole, 1.0, k + 1.0 - m), out=parts[1:])
    parts[1:][at_pole] = 0.0
    total = np.add.accumulate(parts, axis=0)[-1]
    pole = terms[n.astype(int) - 1, np.arange(z.size)]      # (-z)^{n-1} / (n-1)!
    return -pole * ratio - total


def _expint_cf(m: np.ndarray, z: np.ndarray, maxiter: int = 400) -> np.ndarray:
    """E_m(z) by modified Lentz continued fraction (good for |z| >= ~1).

    The fractions of up to ``_CF_CHUNK`` arguments run together in
    ``_lentz``; a larger batch is split by |z|, so that each chunk's
    arguments need about as many iterations and its tables stay small.
    e^{-z} is applied once at the end.  The iteration and its long-double
    result keep ~1e-19 relative: in double its rounding leaves ~1e-14 at
    |z| = 1, which the near-cancelling profile sums of P1 tails (fourth
    differences in nu) amplify a thousandfold.
    """
    if maxiter < 2:
        raise ValueError("_expint_cf: maxiter must be at least 2")
    m = m.astype(np.longdouble)
    z = z.astype(np.clongdouble)
    out = np.empty(z.shape, dtype=np.clongdouble)
    by_size = np.argsort(np.abs(z)) if z.size > _CF_CHUNK else np.arange(z.size)
    for s in range(0, z.size, _CF_CHUNK):
        chunk = by_size[s:s + _CF_CHUNK]
        out[chunk] = _lentz(m[chunk], z[chunk], maxiter)
    return out * np.exp(-z)


def _lentz(m: np.ndarray, z: np.ndarray, maxiter: int) -> np.ndarray:
    """e^z E_m(z) for long-double m and z by modified Lentz iteration.

    All arguments iterate together, in place, in blocks of ``_CF_CELLS`` / n
    iterations for n live arguments, clipped to 8..64, that keep each
    argument's factors delta and running products h.
    After a block, every argument whose |delta - 1| fell below ``_CF_EPS``
    takes h from the first iteration at which it did, the value a test after
    every iteration gives, and leaves the batch.  Raises ``QuadratureError``
    when an argument has not converged after ``maxiter`` - 1 iterations.
    """
    out = np.empty(z.shape, dtype=np.clongdouble)
    idx = np.arange(z.size)
    orders, of = np.unique(m - 1.0, return_inverse=True)    # few: a ladder's start orders
    b = z + m
    c = np.full(z.shape, 1e300, dtype=np.clongdouble)   # 1 / tiny
    d = 1.0 / b
    h = d
    t = np.empty(z.shape, dtype=np.clongdouble)
    # the coefficients are complex and 1 is an array: a real or a Python
    # float operand makes every call cast, with bitwise the same result
    one = np.ones((), dtype=np.clongdouble)
    # |delta - 1| >= |Re delta - 1|: the modulus is taken only where Re delta
    # lies between these bounds, which are exact in long double
    lo, hi = 1.0 - np.longdouble(_CF_EPS), 1.0 + np.longdouble(_CF_EPS)
    start = 1
    while start < maxiter:
        n = idx.size
        r = min(max(8, min(64, _CF_CELLS // n)), maxiter - start)
        its = np.arange(start, start + r, dtype=np.longdouble)[:, None]
        a = (-its * (orders + its)).astype(np.clongdouble).take(of, axis=1)
        # rows i: b_i = b_{i-1} + 2, delta_i and, after the test, h_i = h_{i-1} delta_i
        bs = np.empty((r + 1, n), dtype=np.clongdouble)
        bs[0], bs[1:] = b, 2.0
        np.add.accumulate(bs, axis=0, out=bs)
        hs = np.empty((r + 1, n), dtype=np.clongdouble)
        hs[0] = h
        for j in range(r):
            np.multiply(a[j], d, out=t)
            t += bs[j + 1]
            np.divide(one, t, out=d)
            np.divide(a[j], c, out=c)
            c += bs[j + 1]
            np.multiply(c, d, out=hs[j + 1])
        deltas = hs[1:]
        done = (deltas.real > lo) & (deltas.real < hi)
        done[done] = np.abs(deltas[done] - one) < _CF_EPS
        conv = done.any(axis=0)
        live = ~conv
        start += r
        if start == maxiter and live.any():
            worst = idx[live][np.abs(deltas[-1, live] - one).argmax()]
            raise QuadratureError(
                f"E_m continued fraction: {live.sum()} arguments unconverged after "
                f"{maxiter - 1} iterations (worst |z| = {float(abs(z[worst])):.6g}, "
                f"m = {float(m[worst]):.6g})")
        np.multiply.accumulate(hs, axis=0, out=hs)
        out[idx[conv]] = hs[done.argmax(axis=0)[conv] + 1, conv]
        if not live.any():
            return out
        h, b = hs[r, live], bs[r, live]
        idx, of, c, d = (x[live] for x in (idx, of, c, d))
        t = t[:idx.size]


def _expint_ladder(m0: np.ndarray, z: np.ndarray, rungs) -> np.ndarray:
    """E_{m0+r}(z) for r in ``rungs``: a (z.size, len(rungs)) long-double
    array for 1-D m0 and z and ascending distinct rungs r >= 0.

    Everything runs in long double.  Below |z| = 1 every rung comes from
    the power series, evaluated at the rungs alone; its top order, the
    ladder's, sets where it stops.  From there on, one continued fraction
    gives the order nearest |z| (clipped to the ladder m0 ... m0+max(rungs)),
    and the recurrence (DLMF 8.19.12)

        p E_{p+1}(z) + z E_p(z) = e^{-z}

    runs up from it while p >= |z| and down while p <= |z| through every
    order of the ladder.  In those directions each step scales the error it
    inherits by |z|/p or p/|z|, at most about 1, so the ladder keeps the
    fraction's long-double accuracy.
    """
    m0, z = m0.astype(np.longdouble), z.astype(np.clongdouble)
    rungs = np.asarray(rungs, dtype=int)
    n = int(rungs[-1]) + 1
    out = np.empty((z.size, rungs.size), dtype=np.clongdouble)
    near = np.abs(z) < _SERIES_RADIUS
    if near.any():
        orders = m0[near, None] + rungs
        zs = np.broadcast_to(z[near, None], orders.shape)
        out[near] = _expint_series(orders.ravel(), zs.ravel()).reshape(orders.shape)
    far = np.flatnonzero(~near)
    if far.size:
        start = np.clip(np.rint(np.abs(z[far]) - m0[far]), 0, n - 1).astype(int)
        # rows by start order: those that recur at order j are a prefix (up)
        # or a suffix (down), and each step is one slice
        by_start = np.argsort(start, kind="stable")
        far, start = far[by_start], start[by_start]
        z = z[far]
        p = m0[far, None] + np.arange(n)
        ez = np.exp(-z)
        E = np.empty(p.shape, dtype=np.clongdouble)
        rows = np.arange(z.size)
        E[rows, start] = _expint_cf(p[rows, start], z)
        p = p.astype(np.clongdouble)          # complex operands: no cast in every step
        split = np.searchsorted(start, np.arange(n), side="right")   # rows with start <= j
        for j in range(n - 1):
            up = slice(0, split[j])
            E[up, j + 1] = (ez[up] - z[up] * E[up, j]) / p[up, j]
        for j in range(n - 2, -1, -1):
            down = slice(split[j], None)
            E[down, j] = (ez[down] - p[down, j] * E[down, j + 1]) / z[down]
        out[far] = E[:, rungs]
    return out


def _fresh_ladder(m0, freq: np.ndarray, X: float, rungs: tuple) -> np.ndarray:
    """``_expint_ladder`` at z = -i nu X for the frequencies nu in ``freq``,
    from the one start order m0."""
    z = -1j * freq * np.longdouble(X)
    return _expint_ladder(np.full(z.size, m0), z, rungs)


class _LadderMemo:
    """The ``_fresh_ladder`` values of one argument set z = -i nu X, that is
    of one frequency array and one X, keyed by (m0, rungs).

    A call with other frequencies, compared by value, or another X drops
    every ladder first.  A ladder is kept only while the memo holds at most
    ``_TABLE_CELLS`` cells, and is read-only.  The argument set and its
    ladders are replaced as one, so a ladder is only ever stored with the
    arguments it was computed from.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.held = (None, None, {})

    def __call__(self, m0, freq: np.ndarray, X: float, rungs: tuple) -> np.ndarray:
        held, held_X, ladders = self.held
        if held_X != X or held is None or not np.array_equal(held, freq):
            ladders = {}
            self.held = (freq, X, ladders)
        E = ladders.get((m0, rungs))
        if E is None:
            E = _fresh_ladder(m0, freq, X, rungs)
            if E.size + sum(L.size for L in ladders.values()) <= _TABLE_CELLS:
                E.flags.writeable = False
                ladders[m0, rungs] = E
        return E


_LADDERS = _LadderMemo()


def expint(m, z) -> np.ndarray:
    """Generalized exponential integral E_m(z), complex z, real order m > 0.

    Array-valued over broadcast (m, z): the one-order case of
    ``_expint_ladder``, rounded to double.
    """
    m, z = np.broadcast_arrays(np.asarray(m, dtype=float),
                               np.asarray(z, dtype=complex))
    return _expint_ladder(m.ravel(), z.ravel(), [0]).reshape(z.shape).astype(complex)


def halfline_osc_integral(m, nu, X: float) -> np.ndarray:
    """int_X^inf e^{i nu xi} xi^{-m} d xi over broadcast (m, nu); m > 1 where nu == 0."""
    m, nu = np.broadcast_arrays(np.asarray(m, dtype=float),
                                np.asarray(nu, dtype=float))
    dc = nu == 0.0
    if np.any(m[dc] <= 1.0):
        raise ValueError("halfline_osc_integral: divergent DC tail (m <= 1)")
    out = np.empty(m.shape, dtype=complex)
    out[dc] = X ** (1.0 - m[dc]) / (m[dc] - 1.0)
    osc = ~dc
    out[osc] = X ** (1.0 - m[osc]) * expint(m[osc], -1j * nu[osc] * X)
    return out


def profile_tails(c, nu, q: int, series, X: float) -> np.ndarray:
    """sum_s coef_s int_{|xi| > X} |xi|^{p_s} F_k(xi) d xi for each row k of

        F_k(xi) = xi^{-q} sum_t c[k, t] e^{i nu[k, t] xi}      (xi > 0),

    with F_k(-xi) = conj(F_k(xi)).  ``nu`` is a (K, T) array and ``c``
    broadcasts against it.  ``series`` holds the (coef_s, p_s) pairs, whose
    orders m_s = q - p_s are rungs of one ladder m_0 + j.  Frequencies equal
    bit for bit share one ladder row, read from the memo ``_LADDERS``; the
    half-line sums against the series and the contraction over t run in
    long double, and each row is rounded once.
    """
    return _profile_tails(c, nu, q, series, X, _LADDERS)


def _profile_tails(c, nu, q: int, series, X: float, ladder) -> np.ndarray:
    """``profile_tails`` with the ladder rows of the distinct nonzero
    frequencies from ``ladder(m0, freq, X, rungs)``."""
    coef = np.array([a for a, _ in series], dtype=np.longdouble)
    m = q - np.array([p for _, p in series], dtype=np.longdouble)
    rungs, col = np.unique(np.rint(m - m.min()).astype(int), return_inverse=True)
    w = coef * np.longdouble(X) ** (1.0 - m)
    freq, back = np.unique(nu, return_inverse=True)
    # |xi|^p F(xi) on xi < -X is (-1)^q times the nu -> -nu integral, which
    # for real m is the complex conjugate
    sgn = 1.0 if q % 2 == 0 else -1.0
    per_freq = np.empty(freq.shape, dtype=np.clongdouble)
    dc = freq == 0.0
    if dc.any():
        if m.min() <= 1.0:
            raise ValueError("profile_tails: divergent DC tail (m <= 1)")
        per_freq[dc] = (1.0 + sgn) * np.sum(w / (m - 1.0))
    E = ladder(m.min(), freq[~dc], X, tuple(rungs.tolist()))[:, col]
    per_freq[~dc] = (E + sgn * E.conj()) @ w
    return np.sum(c * per_freq[back.reshape(nu.shape)], axis=1).astype(complex)


# ---------------------------------------------------------------------------
# symbol expansions sigma(rho) = sum coef * rho^p + remainder, rho >= X
# ---------------------------------------------------------------------------
def symbol_series(kind, M: int) -> list[tuple[float, float]]:
    """First M+1 terms (coef, p) of the large-rho expansion of the symbol."""
    k = kind.k
    terms = []
    if kind.tag == "single_layer":
        # 1/(2 sqrt(rho^2-k^2)) = (1/2) sum_m C(2m,m)/4^m k^{2m} rho^{-1-2m}
        for m in range(M + 1):
            c = binom(2 * m, m) / 4.0 ** m
            terms.append((0.5 * c * k ** (2 * m), -1.0 - 2 * m))
    elif kind.tag == "hypersingular":
        # -(1/2) sqrt(rho^2-k^2) = -(1/2) sum_m binom(1/2,m)(-1)^m k^{2m} rho^{1-2m}
        for m in range(M + 1):
            c = binom(0.5, m) * (-1.0) ** m
            terms.append((-0.5 * c * k ** (2 * m), 1.0 - 2 * m))
    else:
        for m in range(M + 1):
            c = binom(kind.s, m)
            terms.append((c * k ** (2 * m), 2.0 * kind.s - 2 * m))
    return terms


def symbol_series_remainder(kind, M: int, X: float) -> tuple[float, float]:
    """(coef, p) envelope of the neglected remainder for rho >= X."""
    k = kind.k
    r = (k / X) ** 2
    if r >= 0.5:
        raise ValueError("symbol series needs X >= sqrt(2) k")
    geo = 1.0 / (1.0 - r)
    m = M + 1
    if kind.tag == "single_layer":
        c = binom(2 * m, m) / 4.0 ** m
        return 0.5 * c * k ** (2 * m) * geo, -1.0 - 2 * m
    if kind.tag == "hypersingular":
        c = abs(binom(0.5, m))
        return 0.5 * c * k ** (2 * m) * geo * 2.0, 1.0 - 2 * m
    c = abs(binom(kind.s, m)) * (1 + m) ** 2
    return c * k ** (2 * m) * geo, 2.0 * kind.s - 2 * m


# ---------------------------------------------------------------------------
# n=3 tensor tail engine
# ---------------------------------------------------------------------------
def _gauss_tail_dc(q: int, v: np.ndarray, Y: float) -> np.ndarray:
    """g_q(v) = int_Y^inf xi^{-q} e^{-xi^2 v} d xi for even q in {0,2,4}."""
    v = np.asarray(v, dtype=float)
    vc = np.maximum(v, 1e-300)
    rY = np.sqrt(vc) * Y
    g0 = 0.5 * np.sqrt(np.pi / vc) * erfc(rY)
    if q == 0:
        return np.where(v == 0.0, np.inf, g0)
    g2 = np.exp(-vc * Y * Y) / Y - 2.0 * vc * g0
    g2 = np.where(v == 0.0, 1.0 / Y, g2)
    if q == 2:
        return g2
    if q == 4:
        g4 = np.exp(-vc * Y * Y) / (3.0 * Y ** 3) - (2.0 * vc / 3.0) * g2
        return np.where(v == 0.0, 1.0 / (3.0 * Y ** 3), g4)
    raise ValueError(f"unsupported DC tail order q={q}")


def _delta_gauss_tail_dc(q: int, v: np.ndarray, Y: float) -> np.ndarray:
    """g_q(0) - g_q(v), evaluated without cancellation."""
    v = np.asarray(v, dtype=float)
    em1 = -np.expm1(-v * Y * Y)      # 1 - e^{-Y^2 v}
    g0 = _gauss_tail_dc(0, v, Y)
    if q == 2:
        return em1 / Y + 2.0 * v * g0
    if q == 4:
        g2 = _gauss_tail_dc(2, v, Y)
        return em1 / (3.0 * Y ** 3) + (2.0 * v / 3.0) * g2
    raise ValueError(f"unsupported DC tail order q={q}")


@dataclass
class VGrid:
    """Shared log-panel grid for the heat-kernel parameter v."""

    nodes: np.ndarray
    weights: np.ndarray
    v_min: float
    v_big: float

    @classmethod
    def build(cls, X: float, panels_per_decade: int = 2, order: int = 8) -> "VGrid":
        v_min, v_big = 1e-16, 150.0 / (X * X)
        decades = math.log10(v_big / v_min)
        n_panels = max(8, int(math.ceil(decades * panels_per_decade)))
        u = np.linspace(math.log(v_min), math.log(v_big), n_panels + 1)
        un, uw = gauss_panels(u, order)
        nodes = np.exp(un)
        return cls(nodes=nodes, weights=uw * nodes, v_min=v_min, v_big=v_big)


@dataclass
class AxisTables:
    """Per key of one axis, the Gaussian-damped 1-D integrals of its profile F:
    d over (-X, X), e over |xi| > X, at v = 0 (d0, e0) and at the v-grid
    nodes ((keys, v) arrays dv, ev) with their differences value(0) - value(v)
    (ddv, dev); d2 = int_{-X}^{X} xi^2 F and m2 the exact full-line second
    moment, nan below decay order 4."""

    d0: np.ndarray
    e0: np.ndarray
    dv: np.ndarray
    ev: np.ndarray
    ddv: np.ndarray
    dev: np.ndarray
    d2: np.ndarray
    m2: np.ndarray


def _expm1_rows(v: np.ndarray, X: float) -> np.ndarray:
    """The v at which the differences value(0) - value(v) are the smaller
    part of value(0) and come from expm1; above, the values are, from exp.
    The weight of both rules sits within a few X of 0."""
    return v <= 1.0 / (X * X)


def damping_columns(xi: np.ndarray, v: np.ndarray, X: float) -> np.ndarray:
    """The (v.size + 2, xi.size) rows [1, g, xi^2], g = expm1(-v xi^2) at the
    ``_expm1_rows`` and e^{-v xi^2} at the other v, that ``axis_tables``
    reads.  ``xi`` and ``v`` ascend; rows where v xi^2 passes 38 (expm1 is
    -1) or 746 (exp is 0) at the first node are filled, not evaluated."""
    V, x2 = v.size, xi * xi
    U = np.empty((V + 2, xi.size))
    U[0], U[-1] = 1.0, x2
    g = U[1:V + 1]
    n_m = np.count_nonzero(_expm1_rows(v, X))
    n_d, n_e = np.searchsorted(v, [38.0 / x2[0], 746.0 / x2[0]])
    n_d, n_e = min(n_d, n_m), max(n_e, n_m)
    # einsum forms the outer products faster than a broadcast multiply
    np.einsum("i,j->ij", -v[:n_d], x2, out=g[:n_d])
    np.einsum("i,j->ij", -v[n_m:n_e], x2, out=g[n_m:n_e])
    np.expm1(g[:n_d], out=g[:n_d])
    np.exp(g[n_m:n_e], out=g[n_m:n_e])
    g[n_d:n_m], g[n_e:] = -1.0, 0.0
    return U


def axis_tables(q: int, c: np.ndarray, nu: np.ndarray, X: float, Y: np.ndarray,
                d: np.ndarray, e: np.ndarray, vgrid: VGrid) -> AxisTables:
    """Every key's tables from the transforms ``d`` of its rule on (0, X) and
    ``e`` on (X, Y) against the ``damping_columns`` and from its terms ``c``,
    (keys, t) frequencies ``nu`` and order q.  Beyond Y the DC term is exact
    at every v; the others are exact at v = 0 and damped by e^{-Y^2 v}."""
    v = vgrid.nodes
    m = _expm1_rows(v, X)[None]

    def fields(t):
        base, g = t[0][:, None], t[1:-1].T
        return t[0], np.where(m, base + g, g), np.where(m, -g, base - g), t[-1]

    d0, dv, ddv, d2 = fields(d)
    e0, ev, dev, e2 = fields(e)
    dc = nu == 0.0
    cdc = 2.0 * np.sum(np.where(dc, c, 0.0), axis=1).real   # the imaginary part integrates to 0
    non_dc0 = np.empty(Y.size)
    m2_tail = np.full(Y.size, np.nan)
    for y in np.unique(Y):
        at = Y == y
        non_dc0[at] = _profile_tails(np.where(dc[at], 0.0, c), nu[at], q, [(1.0, 0.0)],
                                     y, _fresh_ladder).real
        if q >= 4:
            m2_tail[at] = _profile_tails(c, nu[at], q, [(1.0, 2.0)], y, _fresh_ladder).real
    Yk = Y[:, None]
    damp = np.exp(-v * Yk * Yk)
    return AxisTables(
        d0=d0, dv=dv, ddv=ddv, d2=d2, m2=d2 + e2 + m2_tail,
        e0=e0 + cdc * _gauss_tail_dc(q, np.zeros(1), Y) + non_dc0,
        ev=ev + cdc[:, None] * _gauss_tail_dc(q, v, Yk) + non_dc0[:, None] * damp,
        dev=dev + cdc[:, None] * _delta_gauss_tail_dc(q, v, Yk)
        + non_dc0[:, None] * (1.0 - damp))


def required_axis_Y(q: int, c: np.ndarray, nu: np.ndarray, other_abs: float,
                    budget: float, has_subtracted: bool, Y_min: float = 2000.0,
                    Y_max: float = 4.0e5) -> np.ndarray:
    """Per key, a row of the (keys, t) frequencies ``nu`` of the terms ``c``
    of order q, the smallest power-of-two-scaled Y meeting the model-error
    budget.  Terms of equal frequency are merged before their amplitudes
    are summed."""
    rows = np.arange(nu.shape[0])[:, None]
    order = np.argsort(nu, axis=1, kind="stable")
    nu = nu[rows, order]
    c = np.where(nu == 0.0, 0.0, np.broadcast_to(c, nu.shape)[rows, order])
    # terms of one frequency share a run index; runs are summed in frequency order
    new = np.ones(nu.shape, dtype=bool)
    new[:, 1:] = nu[:, 1:] != nu[:, :-1]
    merged = np.zeros(nu.shape, dtype=complex)
    np.add.at(merged, (rows, np.cumsum(new, axis=1) - 1), c)
    s_nz = sum(np.abs(merged[:, t]) for t in range(nu.shape[1]))
    nu_min = np.min(np.abs(np.where(nu == 0.0, np.inf, nu)), axis=1).astype(float)
    Y = np.zeros(nu.shape[0])
    cand = Y_min
    while cand <= Y_max:
        # model-error constant: the smaller of the IBP and envelope bounds
        k_ibp = 2.0 * s_nz / (nu_min * cand ** q)
        k_env = 2.0 * s_nz / ((q - 1) * cand ** (q - 1))
        err = np.minimum(k_ibp, k_env) * other_abs * (4.0 * cand if has_subtracted else 1.0 / cand)
        Y = np.where((Y == 0.0) & (err <= budget), cand, Y)
        cand *= 2.0
    if not Y.all():
        raise QuadratureError("axis tail truncation cannot meet the requested tolerance")
    return Y


def tensor_tails(series, ax: AxisTables, ay: AxisTables, vgrid: VGrid) -> np.ndarray:
    """(x keys, y keys) table of sum_s coef_s int_{max|xi_a|>X} |xi|^{p_s} P(xi)
    d xi, P the product of an x key's and a y key's axis profiles.

    Supported exponents: p = 2 and p = 0 exactly, p in (0,2) by the
    subtracted heat-kernel identity, p < 0 by the direct one; each is a few
    (x keys, v) @ (v, y keys) products against the v-grid weights.
    """
    v, wv = vgrid.nodes, vgrid.weights
    T0 = np.outer(ax.e0, ay.e0) + np.outer(ax.e0, ay.d0) + np.outer(ax.d0, ay.e0)
    # int_ext rho^2 P = int_ext (xi1^2 + xi2^2) P via tensor moments
    m2 = (np.outer(ax.m2, ay.d0 + ay.e0) - np.outer(ax.d2, ay.d0)
          + (np.outer(ax.d0 + ax.e0, ay.m2) - np.outer(ax.d0, ay.d2)))
    exact_m2 = not np.isnan(m2).any()
    total = 0.0
    for coef, p in series:
        if p == 0.0:
            term = T0
        elif p == 2.0:       # G(1): integrable only against hats, decay order 4
            term = m2
        elif p < 0.0:
            s = -p
            wp = wv * v ** (s / 2.0 - 1.0)
            # E(v) = ex ey + ex dy + dx ey  (cancellation-free exterior integral)
            integral = (ax.ev * wp) @ (ay.ev + ay.dv).T + (ax.dv * wp) @ ay.ev.T
            # analytic completion below v_min where E ~ T0
            integral = integral + T0 * (2.0 / s) * vgrid.v_min ** (s / 2.0)
            term = integral / math.exp(gammaln(s / 2.0))
        elif 0.0 < p < 2.0:
            wp = wv * v ** (-p / 2.0 - 1.0)
            # bracket(v) = T0 - E(v) = e0x dqy + qy(v) dex + d0x dey + ey(v) ddx
            integral = (np.outer(ax.e0, (ay.ddv + ay.dev) @ wp)
                        + (ax.dev * wp) @ (ay.dv + ay.ev).T
                        + np.outer(ax.d0, ay.dev @ wp) + (ax.ddv * wp) @ ay.ev.T)
            integral = integral + T0 * (2.0 / p) * vgrid.v_big ** (-p / 2.0)
            if exact_m2:
                # small-v completion: bracket ~ v * M2_ext below v_min
                integral = integral + m2 * vgrid.v_min ** (1.0 - p / 2.0) / (1.0 - p / 2.0)
            term = -integral / math.gamma(-p / 2.0)
        else:
            raise ValueError(f"unsupported tail exponent p={p}")
        total = total + coef * term
    return total
