"""Symbol definitions and the Galerkin symbol-integral engine.

Everything the operator and norm modules need reduces to integrals

    I_{ij} = int_{R^{n-1}} sigma(|xi|) fhat_i(xi) conj(fhat_j(xi)) d xi

with sigma one of  i/(2Z)  (single layer),  (i/2) Z  (hypersingular) or
(k^2+|xi|^2)^s  (Bessel weight), and fhat the closed-form basis transforms.

A dof family, ``DofFamily``, has one factor kind and one h per axis, so
fhat_i(xi) = prod_a b_a(xi_a) e^{-i c_ia xi_a} with c_i the dof centre.
``assemble`` and ``build_quadrature`` take a family or a ``Mesh``, which
stands for ``DofFamily.of(mesh)``, and both go through one
``SymbolQuadrature``.  Row and column families share each axis's kind,
which makes P = prod_a b_a^row conj(b_a^col) real and even in every xi_a,
and an entry a function of the per-axis centre offsets alone:

    I(delta) = int sigma(|xi|) P(xi) prod_a cos(delta_a xi_a) d xi,

even in each delta_a.  ``SymbolQuadrature`` evaluates I once per distinct
|delta_a| (n=3: once per pair of distinct x and y offsets) and gathers the
matrix from that table, so a shared family is complex-symmetric by
construction.  On a lattice family (a mesh whose parts lie whole multiples
of h/2 apart, wherever it sits) the offsets are the integers j = |i_r - i_c|
in units of step = min(h)/2 and every key is evaluated at exactly j*step;
other families key the offsets rounded to ``_KEY_DIGITS`` digits.  The
finite region, |xi| <= X on the line and the square max|xi_a| <= X in the
plane, is a cosine transform of a rule with
singularity-removing radial substitutions, summed in node batches.  On the
line it is factored: with j = a*B + b and B = ceil(sqrt(J + 1)),
cos(j s xi) = cos(aBs xi) cos(bs xi) - sin(aBs xi) sin(bs xi), so every
lattice value comes from O(sqrt J) trig rows per node and one BLAS product.
Everything beyond X goes through the analytic tail machinery in
:mod:`screenwave.spectral.tails`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1, j0

from ..geometry import Mesh
from .factors import AxisFactor, pair_terms, snap_frequencies
from .rules import PanelSpec, gauss_panels, radial_rule, sigma_plain, split_interval
from .tails import (_TABLE_CELLS, AxisTables, QuadratureError, VGrid, axis_tables,
                    damping_columns, profile_tails, required_axis_Y, symbol_series,
                    symbol_series_remainder, tensor_tails)

_KEY_DIGITS = 12         # lattice tolerance 0.5e-12; off-lattice offsets equal to
                         # this many digits share one table entry


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


@dataclass(frozen=True)
class DofFamily:
    """A family of dof basis functions: one factor kind ("box", "hat" or
    "dhat") and one h per axis, and an (N, d) array of dof centres, so that
    fhat_i(xi) = prod_a b_a(xi_a) e^{-i c_ia xi_a}."""

    kinds: tuple[str, ...]
    h: tuple[float, ...]
    centers: np.ndarray

    def __post_init__(self):
        c, d = self.centers, len(self.kinds)
        if len(self.h) != d:
            raise ValueError(f"a dof family needs one h per axis: {len(self.h)} for {d} kinds")
        if not (isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 2
                and c.shape[0] >= 1 and c.shape[1] == d and np.all(np.isfinite(c))):
            raise ValueError(f"dof centres must be a finite float (N, {d}) array with "
                             f"N >= 1, not {getattr(c, 'dtype', type(c))} of shape "
                             f"{np.shape(c)}")

    @classmethod
    def of(cls, mesh: Mesh) -> "DofFamily":
        """The family of a mesh's own basis: boxes (P0) or hats (P1)."""
        d = mesh.dof_points.shape[1]
        kind = "box" if mesh.basis_kind == "P0" else "hat"
        return cls((kind,) * d, (mesh.h,) * d, np.asarray(mesh.dof_points, dtype=float))

    @classmethod
    def gradient(cls, mesh: Mesh, axis: int) -> "DofFamily":
        """The ``axis``-derivatives of the hats of a P1 mesh."""
        if mesh.basis_kind != "P1":
            raise ValueError("gradient families are defined for P1 meshes only")
        hats = cls.of(mesh)
        return cls(tuple("dhat" if a == axis else "hat" for a in range(hats.dim)), hats.h,
                   hats.centers)

    @property
    def dim(self) -> int:
        return len(self.kinds)

    def factor(self, axis: int) -> AxisFactor:
        """The 1-D factor of one axis at centre 0."""
        return AxisFactor(self.kinds[axis], 0.0, self.h[axis])


def mesh_dof_factors(mesh: Mesh) -> DofFamily:
    """``DofFamily.of(mesh)``, kept only for the accuracy check of the
    benchmark workloads in ``perfbench/workloads.py``."""
    return DofFamily.of(mesh)


@dataclass(frozen=True)
class _AxisKeys:
    """The distinct |centre offsets| ``delta`` of one axis of a matrix block,
    ascending.

    The n=2 finite table is formed on the grid of offsets hi[a] + lo[b] and
    read at the flat grid positions ``at`` of the keys.  On a lattice family
    ``j`` holds the keys as integers in units of ``step`` and delta = j*step;
    otherwise ``j`` is None.  An unfactored grid, every off-lattice one, has
    ``hi`` = ``delta`` and ``lo`` = {0}.
    """

    delta: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    at: np.ndarray
    j: np.ndarray | None = None
    step: float = 0.0


def _axis_keys(c_r: np.ndarray, c_c: np.ndarray, f: AxisFactor,
               g: AxisFactor) -> tuple[_AxisKeys, np.ndarray]:
    """Keys of the offsets between row centres ``c_r`` and column centres
    ``c_c`` of one axis with factors ``f``, ``g`` (at centre 0), and the
    (len(c_r), len(c_c)) array of each entry's key position.

    The one lattice test.  When the centres, taken from the first column
    centre so that the test does not depend on where the mesh sits, and the
    large-|xi| term frequencies of f and g lie within 0.5e-12 of multiples of
    step = min(h)/2, the offsets are the integers j = |i_r - i_c|.  That holds
    on a ``build_mesh`` mesh whose parts lie whole multiples of h/2 apart
    (one interval or a Cantor prefractal, wherever it sits) and on a block
    between two such meshes of one screen when one h is a whole multiple of
    the other.  Divided by their gcd (P0 offsets are even) and split as
    a*B + b with B = ceil(sqrt(J + 1)), the offsets fall on a grid of the
    rows a that hold one by all b, where a presence mask and a running count
    find the keys and their positions without a sort; the grid never
    outgrows B cells per key, also when the parts of a screen lie far apart.
    Other families key the offsets rounded to ``_KEY_DIGITS`` digits, each at
    the exact offset of its first occurrence.
    """
    step = 0.5 * min(f.h, g.h)
    grid = np.concatenate([c_r - c_c[0], c_c - c_c[0],
                           [w for fac in (f, g) for _, w in fac.exp_terms()[1]]])
    units = np.rint(grid / step)
    if not np.all(np.abs(grid - units * step) <= 0.5 * 10.0 ** -_KEY_DIGITS):
        delta = np.abs(np.subtract.outer(c_r, c_c)).ravel()
        _, first, inverse = np.unique(np.round(delta, _KEY_DIGITS),
                                      return_index=True, return_inverse=True)
        delta = delta[first]
        return (_AxisKeys(delta, delta, np.zeros(1), np.arange(delta.size)),
                inverse.reshape(c_r.size, c_c.size))
    i_r = units[:c_r.size].astype(np.int64)
    i_c = units[c_r.size:c_r.size + c_c.size].astype(np.int64)
    # i_c[0] = 0, so i_r and i_c are offsets or differences of two: their gcd
    # is that of all offsets
    unit = int(np.gcd.reduce(np.concatenate([i_r, i_c]))) or 1
    j = np.subtract.outer(i_r // unit, i_c // unit)
    np.abs(j, out=j)
    J = int(j.max())
    B = math.isqrt(J) + 1
    a = j // B
    used = np.zeros(J // B + 1, dtype=bool)
    used[a] = True
    rows = np.flatnonzero(used)
    # grid position j - (a - rank of row a among the used rows) * B, in place
    np.take((np.arange(used.size) + 1 - np.cumsum(used)) * B, a, out=a)
    flat = np.subtract(j, a, out=j)
    present = np.zeros(rows.size * B, dtype=bool)
    present[flat] = True
    at = np.flatnonzero(present)
    hi = rows * (B * unit)
    keys = hi[at // B] + at % B * unit
    return (_AxisKeys(keys * step, hi * step, np.arange(B) * unit * step, at, keys, step),
            (np.cumsum(present) - 1)[flat])


def _joined_keys(kx: _AxisKeys, ky: _AxisKeys) -> tuple[_AxisKeys, tuple]:
    """The union of the keys of two axes with the same factors, and where
    each axis's keys sit in it; integer keys stay when both have them."""
    delta = np.concatenate([kx.delta, ky.delta])
    _, first, inverse = np.unique(np.round(delta, _KEY_DIGITS), return_index=True,
                                  return_inverse=True)
    j = None if kx.j is None or ky.j is None else np.concatenate([kx.j, ky.j])[first]
    keys = _AxisKeys(delta[first], delta[first], np.zeros(1), np.arange(first.size),
                     j, kx.step)
    return keys, (inverse[:kx.delta.size], inverse[kx.delta.size:])


def _term_frequencies(f: AxisFactor, g: AxisFactor, keys: _AxisKeys):
    """(q, c, nu): the large-|xi| terms xi^{-q} sum_t c_t e^{i nu_t xi} of f
    at every key offset against g, with nu a (keys, t) array.

    The pair terms at offset delta have the c_t and frequencies nu_t - delta
    of offset 0.  Tails are differences in nu, so a key's frequencies must
    be consistent to far below an ulp of double.  On a lattice family
    (``_axis_keys``) nu_t = (i_t - j)*step is formed in long double: exact,
    and shared bit for bit by every key that meets it.  Otherwise nu_t comes
    from one long-double subtraction with ``snap_frequencies``.
    """
    q, c, wf, wg = pair_terms(f, g)
    if keys.j is not None:
        i_t = np.rint(wf / keys.step) - np.rint(wg / keys.step)
        return q, c, (i_t - keys.j[:, None]) * np.longdouble(keys.step)
    wf_key = wf - keys.delta[:, None].astype(np.longdouble)
    return q, c, snap_frequencies(wf_key - wg, wf_key, wg)


def _cosine_transform(xi: np.ndarray, r: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                      n_col: int, columns) -> np.ndarray:
    """sum_q cos((hi[a] + lo[b]) xi_q) r_q U[c, q] for every offset of the
    grid hi[a] + lo[b] and every row c of the (n_col, nodes) real array U,
    whose columns of the node slice s ``columns(s)`` returns; an (n_col,
    hi.size * lo.size) array, the grid flattened as ``_AxisKeys.at`` reads it.

    Node batches hold about ``_TABLE_CELLS`` cells of the product's
    operands.  With more than one lo, the angle addition formula
    [cos(hi xi), -sin(hi xi)] @ [cos(lo xi), sin(lo xi)]^T forms the grid
    from O(hi.size + lo.size) trig rows per node; a single lo is 0.
    """
    sines = lo.size > 1
    step = max(1, _TABLE_CELLS // ((1 + sines) * (hi.size + n_col * lo.size)))
    acc = 0.0
    for s in range(0, xi.size, step):
        b = slice(s, s + step)
        U, rows = columns(b), np.outer(hi, xi[b])
        if sines:
            rows = np.concatenate([np.cos(rows) * r[b], -np.sin(rows) * r[b]], axis=1)
            cols = np.outer(lo, xi[b])
            cols = np.concatenate([np.cos(cols), np.sin(cols)], axis=1)
            U = (cols * np.concatenate([U, U], axis=1)[:, None, :]).reshape(n_col * lo.size, -1)
        else:
            rows = np.cos(rows) * r[b]
        acc = acc + rows @ U.T
    return acc.reshape(hi.size, n_col, lo.size).transpose(1, 0, 2).reshape(n_col, -1)


def _family_constants(fam: DofFamily) -> tuple[list[int], list[float]]:
    """Per axis, the decay order p and amplitude sum |a_t| of the large-|xi|
    form, which depend only on kind and h."""
    q, amp = [], []
    for a in range(fam.dim):
        p, terms = fam.factor(a).exp_terms()
        q.append(p)
        amp.append(sum(abs(c) for c, _ in terms))
    return q, amp


def _largest_frequency(*fams: DofFamily) -> float:
    """The largest term frequency |w_t| = |const_t - c| over the dofs of all
    families, with centres c measured from their lowest support edge on each
    axis: the largest extent of their supports.  It depends on the offsets
    of a mesh, not on where it sits; the half-width of a factor's support
    is its largest term frequency at centre 0."""
    extent = 0.0
    for a in range(fams[0].dim):
        half = [max(abs(w) for _, w in fam.factor(a).exp_terms()[1]) for fam in fams]
        edges = [(fam.centers[:, a].min() - hw, fam.centers[:, a].max() + hw)
                 for fam, hw in zip(fams, half)]
        extent = max(extent, float(max(e[1] for e in edges) - min(e[0] for e in edges)))
    return extent


def _abs_estimate(fam: DofFamily, axis: int) -> float:
    """Envelope of int_R |f| over one axis factor of a family, for the other
    axis of an n=3 tail model.  It is taken at centre 0, where the phase is 1
    exactly: every family with the axis's kind and h reads the same value."""
    f = fam.factor(axis)
    xi, w = gauss_panels(split_interval(0.0, 60.0 / f.h, 0.5), 8)
    return 2.0 * float(np.sum(w * np.abs(f.value(xi)))) + 0.1 * f.h


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


class SymbolQuadrature:
    """Rule, split radius ``xi_max`` = X, series order and certified tail
    bound for one (symbol, row family, column family, tol, variant), and the
    offset tables its matrix entries are gathered from.

    The only code that checks integrability, picks X and the rule, chooses
    the series order and certifies the tail bound.  ``assemble`` and
    ``build_quadrature`` both go through one; one entry is
    ``matrix([i], [j])[0, 0]``.
    """

    def __init__(self, kind: SymbolKind, rows: DofFamily, cols: DofFamily, tol: float,
                 variant: int = 0):
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if rows.kinds != cols.kinds:
            raise ValueError("row and column families must share each axis's "
                             f"factor kind: {rows.kinds} against {cols.kinds}")
        q_r, amp_r = _family_constants(rows)
        q_c, amp_c = _family_constants(cols)
        q_min = min(a + b for a, b in zip(q_r, q_c))
        if kind.growth - q_min >= -1.0:
            raise ValueError(
                f"non-integrable symbol integrand: growth {kind.growth:+g} against "
                f"basis decay {q_min} (e.g. hypersingular symbol with a P0 basis)"
            )
        var = _Variant.get(variant)
        k = kind.k
        self.kind, self.tol, self.var = kind, tol, var
        self.rows, self.cols = rows, cols
        self.dim = rows.dim
        # one support edge for both families: a block between families far
        # apart still resolves their offsets
        self.omega = 2.0 * _largest_frequency(rows, cols) + 1.0
        self.xi_max = X = max(2.5 * k, 40.0) * var.x_fact
        if self.dim == 1:
            rho, self.w, self.panels = radial_rule(
                kind, k, X, self.omega, order=var.order, scale=var.scale)
            self.nodes = (rho,)
            self.n_theta = 0
            env = amp_r[0] * amp_c[0]

            def env_of_p(p):
                decay = q_min - p - 1.0
                if decay <= 0.05:
                    raise QuadratureError(
                        "symbol tail remainder nearly divergent against this basis")
                return env * X ** (p - q_min + 1) / decay
        else:
            x1, y1, w1, self.panels, self.n_theta = _disk_rule(
                kind, k, X, self.omega, math.sqrt(2.0) * self.omega,
                var.order, var.scale)
            x2, y2, w2 = _corner_rule(kind, k, X, self.omega, var.order, var.scale)
            self.nodes = (np.concatenate([x1, x2]), np.concatenate([y1, y2]))
            self.w = np.concatenate([w1, w2])
            self.vgrid = VGrid.build(X, panels_per_decade=var.v_per_decade)
            self.has_subtracted = kind.growth > 0.0
            # other-axis envelopes of the axis tail models (rows' y for x, x for y)
            self.other_abs = (_abs_estimate(rows, 1), _abs_estimate(rows, 0))
            # envelope of the exterior integral <= X^p * absx * absy
            abs_prod = self.other_abs[1] * _abs_estimate(cols, 1)

            def env_of_p(p):
                return abs_prod * X ** p
        self.M, rem_bound = _choose_series_order(kind, X, tol / 4.0, env_of_p)
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

    def matrix(self, i=slice(None), j=slice(None)) -> np.ndarray:
        """Entries between rows ``i`` and columns ``j`` of the two families,
        gathered from one table over their distinct per-axis |offsets|."""
        keys, index = zip(*self._offset_keys(i, j))
        table = self._finite_table(keys) + self._tail_table(keys)
        return table[index]

    def _offset_keys(self, i=slice(None), j=slice(None)):
        """Per axis, the ``_axis_keys`` of rows ``i`` against columns ``j``."""
        c_r, c_c = self.rows.centers[i], self.cols.centers[j]
        return [_axis_keys(c_r[:, a], c_c[:, a], self.rows.factor(a), self.cols.factor(a))
                for a in range(self.dim)]

    def _finite_table(self, keys) -> np.ndarray:
        """sum_q w_q P(xi_q) prod_a cos(delta_a xi_qa) for every combination of
        per-axis keys, in node batches of about ``_TABLE_CELLS`` table cells.

        n=2 folds the line onto the half-line rule (factor 2) and forms the
        grid hi[a] + lo[b] of ``_AxisKeys`` by ``_cosine_transform`` of P
        against the columns [Re w, Im w].  n=3 is (cos(dx xi1) w P) @
        cos(dy xi2)^T at the key offsets.
        """
        pairs = [(self.rows.factor(a), self.cols.factor(a)) for a in range(self.dim)]
        if self.dim == 1:
            (key,), ((f, g),), (xi,) = keys, pairs, self.nodes
            w = np.stack([self.w.real, self.w.imag])
            re, im = _cosine_transform(xi, (f.value(xi) * np.conj(g.value(xi))).real,
                                       key.hi, key.lo, 2, lambda b: w[:, b])
            return 2.0 * (re + 1j * im)[key.at]
        step = max(1, _TABLE_CELLS // max(key.delta.size for key in keys))
        acc = 0.0
        for s in range(0, self.w.size, step):
            b = slice(s, s + step)
            wP = self.w[b]
            cos = []
            for (f, g), xi, key in zip(pairs, self.nodes, keys):
                wP = wP * (f.value(xi[b]) * np.conj(g.value(xi[b]))).real
                cos.append(np.cos(np.outer(key.delta, xi[b])))
            lhs = np.concatenate([cos[0] * wP.real, cos[0] * wP.imag])
            acc = acc + lhs @ cos[1].T
        n_x = keys[0].delta.size
        return acc[:n_x] + 1j * acc[n_x:]

    def _tail_table(self, keys) -> np.ndarray:
        """Part of each table entry beyond the finite rule: |xi| > X (n=2), or
        the exterior of the square max|xi_a| > X (n=3) from one batch of axis
        tables per axis, shared by the two axes of a square family."""
        if self.dim == 1:
            (key,) = keys
            q, c, nu = _term_frequencies(self.rows.factor(0), self.cols.factor(0), key)
            return profile_tails(c, nu, q, self.sigma_terms, self.xi_max)
        axis_ids = [(self.rows.kinds[a], self.rows.h[a], self.cols.h[a], self.other_abs[a])
                    for a in range(2)]
        if axis_ids[0] == axis_ids[1]:
            both, (ix, iy) = _joined_keys(*keys)
            t = self._axis_tables(0, both)
            return tensor_tails(self.sigma_terms, t, t, self.vgrid)[np.ix_(ix, iy)]
        ax, ay = (self._axis_tables(a, key) for a, key in enumerate(keys))
        return tensor_tails(self.sigma_terms, ax, ay, self.vgrid)

    def _axis_tables(self, axis: int, keys: _AxisKeys) -> AxisTables:
        """The ``AxisTables`` of one axis's keys.  A key's profile is
        B(xi) e^{-i delta xi}, B = b_r conj(b_c) real, so each rule's part is
        a ``_cosine_transform`` of 2 w B: one rule on (0, X) for all keys and
        one on (X, Y) per axis cutoff Y.  Against some V + 2 columns a cosine
        row per key costs less than a factored grid's, so lo = {0}."""
        f, g = self.rows.factor(axis), self.cols.factor(axis)
        q, c, nu = _term_frequencies(f, g, keys)
        Y = required_axis_Y(q, c, nu, self.other_abs[axis], self.tol / 8.0,
                            self.has_subtracted)
        v = self.vgrid.nodes

        def transform(lo, hi, delta):
            xi, w = gauss_panels(split_interval(lo, hi, self.var.scale * np.pi
                                                / max(self.omega, 0.5), min_panels=4),
                                 self.var.order)
            return _cosine_transform(xi, 2.0 * w * (f.value(xi) * np.conj(g.value(xi))).real,
                                     delta, np.zeros(1), v.size + 2,
                                     lambda b: damping_columns(xi[b], v, self.xi_max))

        d = transform(0.0, self.xi_max, keys.delta)
        e = np.empty_like(d)
        for y in np.unique(Y):
            at = Y == y
            e[:, at] = transform(self.xi_max, y, keys.delta[at])
        return axis_tables(q, c, nu, self.xi_max, Y, d, e, self.vgrid)


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


# ---------------------------------------------------------------------------
# n = 3 rule
# ---------------------------------------------------------------------------
def _disk_rule(kind, k, X, omega, nu_rad, order, scale):
    """Flattened polar rule on the disk |xi| <= X: each ``order``-node panel
    of ``radial_rule`` with the angular count its largest radius needs."""
    rho, w, radial = radial_rule(kind, k, X, omega, order=order, scale=scale)
    xs, ys, ws, panel_specs = [], [], [], []
    n_theta_max = 0
    start = 0
    for spec in radial:
        stop = start + spec.n_nodes
        count = 0
        for r, wr in zip(rho[start:stop].reshape(-1, order),
                         w[start:stop].reshape(-1, order)):
            amp = float(np.max(r)) * nu_rad
            n_th = 2 * int(math.ceil(amp + 10.0 * amp ** (1.0 / 3.0))) + 32
            n_theta_max = max(n_theta_max, n_th)
            th = 2.0 * np.pi * np.arange(n_th) / n_th
            xs.append(np.outer(r, np.cos(th)).ravel())
            ys.append(np.outer(r, np.sin(th)).ravel())
            # polar Jacobian rho, equal angular weights
            ws.append(np.repeat(wr * r * (2.0 * np.pi / n_th), n_th))
            count += r.size * n_th
        panel_specs.append(PanelSpec(spec.lo, spec.hi, spec.substitution, count))
        start = stop
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


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------
def _family(dofs) -> DofFamily:
    if isinstance(dofs, Mesh):
        return DofFamily.of(dofs)
    if not isinstance(dofs, DofFamily):
        raise TypeError(f"expected a Mesh or a DofFamily, not {type(dofs).__name__}")
    return dofs


def assemble(kind: SymbolKind, dofs_row, dofs_col=None, tol: float = 1e-10,
             variant: int = 0) -> np.ndarray:
    """Matrix of symbol integrals between two dof families (shared if
    ``dofs_col`` is None), each a ``DofFamily`` or a ``Mesh`` for its own
    basis."""
    rows = _family(dofs_row)
    cols = rows if dofs_col is None else _family(dofs_col)
    return SymbolQuadrature(kind, rows, cols, tol, variant).matrix()


def build_quadrature(kind: SymbolKind, dofs, tol: float = 1e-10,
                     variant: int = 0) -> SymbolQuadrature:
    """Validate integrability and prebuild the rule + tail plan for one
    family, a ``DofFamily`` or a ``Mesh``, against itself."""
    fam = _family(dofs)
    return SymbolQuadrature(kind, fam, fam, tol, variant)


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
