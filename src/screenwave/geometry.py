"""Planar screens, Cantor prefractals, meshes and metric queries.

A screen is a finite union of disjoint open axis-aligned boxes living in the
hyperplane ``x_n = 0`` of R^n (n = 2 or 3), identified with boxes in R^{n-1}.
Meshes partition every box uniformly with a single global element size ``h``
and carry either piecewise-constant (P0) or continuous piecewise-linear,
vanishing-at-box-boundary (P1) degrees of freedom.  Everything is immutable
after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

MAX_PREFRACTAL_LEVEL = {2: 8, 3: 4}

# relative tolerance used for box-disjointness and divisibility checks
_GEOM_RTOL = 1e-12


@dataclass(frozen=True)
class Screen:
    """Finite union of disjoint open boxes in the plane x_n = 0.

    Attributes
    ----------
    dim_ambient : int
        Ambient space dimension n (2 or 3); the screen itself is (n-1)-D.
    lo, hi : np.ndarray, shape (n_boxes, n-1)
        Lower/upper corners of each box, in screen coordinates.
    diameter : float
        sup |x - y| over the closed union.
    """

    dim_ambient: int
    lo: np.ndarray
    hi: np.ndarray
    diameter: float = field(default=0.0)

    @property
    def n_boxes(self) -> int:
        return self.lo.shape[0]

    @property
    def dim_screen(self) -> int:
        return self.dim_ambient - 1

    def volume(self) -> float:
        """Total (n-1)-dimensional measure of the union."""
        return float(np.prod(self.hi - self.lo, axis=1).sum())

    def boxes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.lo[i].copy(), self.hi[i].copy()) for i in range(self.n_boxes)]


def _pair_diameter(lo1, hi1, lo2, hi2) -> float:
    # largest separation per axis between the two closed boxes
    d = np.maximum(hi1 - lo2, hi2 - lo1)
    return float(np.sqrt((d ** 2).sum()))


def make_screen(n: int, boxes) -> Screen:
    """Validate corner pairs and build a Screen with its diameter.

    Parameters
    ----------
    n : int
        Ambient dimension, 2 or 3.
    boxes : sequence
        For n=2 a list of ``(a, b)`` intervals; for n=3 a list of
        ``((ax, ay), (bx, by))`` rectangle corner pairs.

    Raises
    ------
    ValueError
        On empty input, degenerate boxes, malformed corners, or overlap.
    """
    if n not in (2, 3):
        raise ValueError(f"make_screen: ambient dimension must be 2 or 3, got {n}")
    boxes = list(boxes)
    if not boxes:
        raise ValueError("make_screen: box list is empty")
    d = n - 1
    lo = np.empty((len(boxes), d))
    hi = np.empty((len(boxes), d))
    for i, pair in enumerate(boxes):
        a, b = pair
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (d,) or b.shape != (d,):
            raise ValueError(f"make_screen: box {i} corners have wrong dimension for n={n}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError(f"make_screen: box {i} has non-finite corners")
        if np.any(b <= a):
            raise ValueError(f"make_screen: box {i} is degenerate (zero or negative volume)")
        lo[i], hi[i] = a, b

    scale = float(np.max(hi) - np.min(lo))
    tol = _GEOM_RTOL * max(scale, 1.0)
    for i, j in itertools.combinations(range(len(boxes)), 2):
        gap = np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j])
        if np.all(gap > tol):
            raise ValueError(f"make_screen: boxes {i} and {j} overlap")

    diam = max(
        _pair_diameter(lo[i], hi[i], lo[j], hi[j])
        for i in range(len(boxes))
        for j in range(i, len(boxes))
    )
    return Screen(dim_ambient=n, lo=lo, hi=hi, diameter=diam)


def _cantor_intervals(level: int, ratio: float) -> list[tuple[float, float]]:
    segs = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for a, b in segs:
            w = (b - a) * ratio
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        segs = nxt
    return segs


def cantor_prefractal(n: int, level: int, ratio: float = 1.0 / 3.0) -> Screen:
    """Level-``level`` Cantor prefractal screen (interval family or dust).

    n=2 gives 2^level subintervals of [0,1] of length ratio^level; n=3 gives
    the Cartesian product with 4^level squares in [0,1]^2.  The diameter is
    preserved across levels (1 for n=2, sqrt(2) for n=3).
    """
    if n not in (2, 3):
        raise ValueError(f"cantor_prefractal: ambient dimension must be 2 or 3, got {n}")
    if not (0.0 < ratio < 0.5):
        raise ValueError(f"cantor_prefractal: ratio must lie in (0, 1/2), got {ratio}")
    if level < 0 or level > MAX_PREFRACTAL_LEVEL[n]:
        raise ValueError(
            f"cantor_prefractal: level {level} outside [0, {MAX_PREFRACTAL_LEVEL[n]}] for n={n}"
        )
    segs = _cantor_intervals(level, ratio)
    if n == 2:
        return make_screen(2, segs)
    boxes = [((a1, a2), (b1, b2)) for (a1, b1) in segs for (a2, b2) in segs]
    return make_screen(3, boxes)


def distances_to_screen(points, screen: Screen) -> np.ndarray:
    """Euclidean distances from the rows of an (m, n) array of points of R^n
    to the closed screen, shape (m,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != screen.dim_ambient:
        raise ValueError(
            f"distances_to_screen: points have shape {pts.shape}, "
            f"expected (m, {screen.dim_ambient})"
        )
    xt, xn = pts[:, None, :-1], pts[:, -1:]
    d_in = np.maximum(np.maximum(screen.lo - xt, xt - screen.hi), 0.0)
    d2 = (d_in ** 2).sum(axis=2) + xn ** 2
    return np.sqrt(d2.min(axis=1))


def dist_to_screen(x, screen: Screen) -> float:
    """Euclidean distance from a point of R^n to the closed screen."""
    x = np.asarray(x, dtype=float)
    if x.shape != (screen.dim_ambient,):
        raise ValueError(
            f"dist_to_screen: point has shape {x.shape}, expected ({screen.dim_ambient},)"
        )
    return float(distances_to_screen(x[None, :], screen)[0])


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of a Screen with P0 or P1 degrees of freedom.

    ``elements`` holds one row (box index, center coordinates...) per element;
    ``dof_points`` holds the element centers (P0) or interior node positions
    (P1).  ``h`` is the single global element size; it divides every box edge
    exactly.
    """

    screen: Screen
    h: float
    basis_kind: str                     # "P0" | "P1"
    element_box: np.ndarray             # (n_elements,) int
    element_center: np.ndarray          # (n_elements, d)
    dof_box: np.ndarray                 # (N,) int
    dof_points: np.ndarray              # (N, d)

    @property
    def n_dofs(self) -> int:
        return self.dof_points.shape[0]

    @property
    def n_elements(self) -> int:
        return self.element_center.shape[0]

    @property
    def dim_screen(self) -> int:
        return self.screen.dim_screen


def _edge_counts(screen: Screen, h: float) -> np.ndarray:
    edges = screen.hi - screen.lo
    m = edges / h
    m_round = np.rint(m)
    if np.any(np.abs(m - m_round) > 1e-9 * np.maximum(m, 1.0)) or np.any(m_round < 1):
        raise ValueError(f"build_mesh: h={h} does not divide every box edge exactly")
    return m_round.astype(int)


def build_mesh(screen: Screen, h: float, basis_kind: str) -> Mesh:
    """Partition every box into h-cells and lay out P0/P1 dofs.

    P0 dofs are the elements; P1 dofs are the interior tensor-product nodes of
    each box (hat functions vanish on box boundaries), which requires at least
    two elements per box edge.
    """
    if basis_kind not in ("P0", "P1"):
        raise ValueError(f"build_mesh: basis_kind must be 'P0' or 'P1', got {basis_kind!r}")
    if h <= 0:
        raise ValueError("build_mesh: h must be positive")
    counts = _edge_counts(screen, h)
    d = screen.dim_screen

    el_box, el_center = [], []
    dof_box, dof_pts = [], []
    for b in range(screen.n_boxes):
        m = counts[b]
        axes_c = [screen.lo[b, a] + h * (np.arange(m[a]) + 0.5) for a in range(d)]
        for idx in itertools.product(*(range(int(mm)) for mm in m)):
            el_box.append(b)
            el_center.append([axes_c[a][idx[a]] for a in range(d)])
        if basis_kind == "P0":
            for idx in itertools.product(*(range(int(mm)) for mm in m)):
                dof_box.append(b)
                dof_pts.append([axes_c[a][idx[a]] for a in range(d)])
        else:
            if np.any(m < 2):
                raise ValueError(
                    f"build_mesh: P1 needs >= 2 elements per box edge, box {b} has {m}"
                )
            axes_n = [screen.lo[b, a] + h * np.arange(1, m[a]) for a in range(d)]
            for idx in itertools.product(*(range(int(mm) - 1) for mm in m)):
                dof_box.append(b)
                dof_pts.append([axes_n[a][idx[a]] for a in range(d)])

    return Mesh(
        screen=screen,
        h=h,
        basis_kind=basis_kind,
        element_box=np.asarray(el_box, dtype=int),
        element_center=np.asarray(el_center, dtype=float).reshape(-1, d),
        dof_box=np.asarray(dof_box, dtype=int),
        dof_points=np.asarray(dof_pts, dtype=float).reshape(-1, d),
    )


def basis_value(mesh: Mesh, j: int, points: np.ndarray) -> np.ndarray:
    """Evaluate basis function j at screen points, shape (m, d) -> (m,)."""
    pts = np.atleast_2d(points)
    p = mesh.dof_points[j]
    if mesh.basis_kind == "P0":
        inside = np.all(np.abs(pts - p) <= mesh.h / 2.0 + 1e-14, axis=1)
        return inside.astype(float)
    v = 1.0 - np.abs(pts - p) / mesh.h
    return np.prod(np.maximum(v, 0.0), axis=1)
