"""Dump and compare the Galerkin matrices of a fixed case list.

The case list covers the n=2 and n=3 engine paths that a change to the
symbol engine must keep: interval P0 and P1 meshes, a Cantor prefractal,
hat and derivative-of-hat families, a cross-family block, unit-square
and dust screens (among them the dust level 2 mesh of the ``dust-n3``
workload and Bessel Grams whose plane tails take the p = 2 branch), an
n=3 screen off the h/2 lattice, and four keying cases: a Cantor level
whose rounded offsets split one lattice offset in two, a family off the
h/2 lattice, a sparse lattice and an interval whose centres are off the
lattice while its offsets are on it.  Run it at two checkouts and compare:

    PYTHONPATH=src python tools/matrix_cases.py dump OUT.npz
    python tools/matrix_cases.py compare A.npz B.npz

Each checkout's dump is made with that checkout's own copy of this tool,
run from its root, since the tool builds its cases through the library API
of the checkout it runs in.  The case names and their order are what
``compare`` matches, so they stay fixed across API changes.

``dump`` stores each case's matrix and its plan values: the split radius X,
the series order M, the certified tail bound, the panel node counts and
n_theta.  ``compare`` prints max|A - B| / max|A| per case, whether the plan
values are equal (and, where not, each differing value on both sides) and
whether shared-family matrices are exactly symmetric on both sides.  It
exits with status 1 when a case differs by more than 1e-12 relative or a
plan value differs.

The plan resolves the offsets of a mesh, not where it sits, since the
quadrature measures dof centres from the lowest support edge.  Against a
checkout that measured them from 0, the interval [0.1, 1.1] therefore
reports ``plan !=``: its rule is now that of [0, 1].
"""

from __future__ import annotations

import sys

import numpy as np

REL_TOL = 1e-12
PLAN_FIELDS = ("X", "M", "tail_bound", "n_theta")     # then the panel node counts


def _cases():
    """(name, kind, row family, column family or None, tol, variant) per
    case, each family a ``DofFamily``."""
    from dataclasses import replace

    from screenwave import build_mesh, cantor_prefractal, make_screen
    from screenwave.spectral import DofFamily, bessel, hypersingular, single_layer

    def mesh(screen, h, kind):
        return DofFamily.of(build_mesh(screen, h, kind))

    line = make_screen(2, [(0.0, 1.0)])
    square = make_screen(3, [((0.0, 0.0), (1.0, 1.0))])
    p0 = mesh(line, 1 / 256, "P0")
    p1 = mesh(line, 1 / 256, "P1")
    p1_sixth = mesh(line, 1 / 6, "P1")
    cantor = mesh(cantor_prefractal(2, 4, 1 / 3), 3.0 ** -4 / 8, "P0")
    nodes16 = (np.arange(1, 16) / 16)[:, None]
    hats16 = DofFamily(("hat",), (1 / 16,), nodes16)
    dhats16 = DofFamily(("dhat",), (1 / 16,), nodes16)
    sq_p1 = build_mesh(square, 1 / 4, "P1")
    sq_hats = DofFamily.of(sq_p1)
    dust = cantor_prefractal(3, 1, 1 / 3)
    out = []

    def case(name, kind, rows, cols=None, tol=1e-10, variant=0):
        out.append((name, kind, rows, cols, tol, variant))

    for k in (4.0, 16.0):
        case(f"interval P0 N=256 k={k:g} tol 1e-10: S", single_layer(k), p0)
        case(f"interval P0 N=256 k={k:g} tol 1e-10: G(-1/2)", bessel(k, -0.5), p0)
    case("Cantor level 4 P0 N=128 k=28 tol 1e-9: S", single_layer(28.0), cantor, tol=1e-9)
    case("Cantor level 4 P0 N=128 k=28 tol 1e-9: G(-1/2)", bessel(28.0, -0.5), cantor, tol=1e-9)
    case("interval P1 N=255 k=10 tol 1e-10: T", hypersingular(10.0), p1)
    for s, label in ((-0.5, "-1/2"), (0.5, "+1/2"), (1.2, "1.2")):
        case(f"interval P1 N=255 k=10 tol 1e-10: G({label})", bessel(10.0, s), p1)
    case("interval P1 h=1/6 k=4 tol 1e-10: T", hypersingular(4.0), p1_sixth)
    case("interval P1 h=1/6 k=4 tol 1e-10: G(-1/2)", bessel(4.0, -0.5), p1_sixth)
    for variant in (0, 1):
        case(f"interval dhat family h=1/16 k=4 tol 1e-11: S, variant {variant}",
             single_layer(4.0), dhats16, tol=1e-11, variant=variant)
    case("interval hat family h=1/16 k=4 tol 1e-11: S, variant 1", single_layer(4.0), hats16,
         tol=1e-11, variant=1)
    case("interval P0 h=1/16 rows x h=1/8 cols k=3 tol 1e-9: S", single_layer(3.0),
         mesh(line, 1 / 16, "P0"), mesh(line, 1 / 8, "P0"), tol=1e-9)
    case("unit square P0 h=1/8 k=5 tol 1e-10: S", single_layer(5.0), mesh(square, 1 / 8, "P0"))
    case("unit square P1 h=1/4 (3x3) k=2 tol 1e-10: T", hypersingular(2.0), sq_hats)
    case("unit square P1 h=1/4 k=2 tol 2.5e-11: S on hats, variant 1", single_layer(2.0),
         sq_hats, tol=2.5e-11, variant=1)
    for axis, name in ((0, "x"), (1, "y")):
        case(f"unit square P1 h=1/4 k=2 tol 5e-11: S on d/d{name} hats, variant 1",
             single_layer(2.0), DofFamily.gradient(sq_p1, axis), tol=5e-11, variant=1)
    case("dust level 1 P0 h=1/6 k=3 tol 1e-9: S", single_layer(3.0), mesh(dust, 1 / 6, "P0"),
         tol=1e-9)
    case("dust level 1 P1 h=1/6 k=4 tol 1e-10: T", hypersingular(4.0), mesh(dust, 1 / 6, "P1"))
    sq_sixth = mesh(square, 1 / 6, "P1")
    case("unit square P1 h=1/6, first 6 dofs, k=2 tol 1e-8: T", hypersingular(2.0),
         replace(sq_sixth, centers=sq_sixth.centers[:6]), tol=1e-8)
    dust2 = mesh(cantor_prefractal(3, 2, 1 / 3), 1 / 18, "P0")
    case("dust level 2 P0 h=1/18 k=5 tol 1e-10: S", single_layer(5.0), dust2)
    case("dust level 2 P0 h=1/18 k=5 tol 1e-10: G(-1/2)", bessel(5.0, -0.5), dust2)
    for s, label in ((0.5, "1/2"), (1.0, "1")):
        case(f"unit square P1 h=1/4 k=2 tol 1e-10: G({label})", bessel(2.0, s), sq_hats)
    r = np.sqrt(2.0) / 10
    case("two rectangles off the h/2 lattice P0 h=1/4 k=2 tol 1e-9: S", single_layer(2.0),
         mesh(make_screen(3, [((0.0, 0.0), (0.5, 0.5)), ((0.5 + r, 0.25), (1.0 + r, 0.75))]),
              1 / 4, "P0"), tol=1e-9)
    # keying: a level whose rounded offsets split one lattice offset in two,
    # a family off the h/2 lattice, a lattice two screen parts far apart, and
    # an interval whose centres are off the lattice but whose offsets are on it
    case("Cantor level 7 P0 N=384 k=20 tol 1e-9: S", single_layer(20.0),
         mesh(cantor_prefractal(2, 7, 1 / 3), 3.0 ** -8, "P0"), tol=1e-9)
    shift = 0.3 + np.sqrt(2.0) / 10
    case("two intervals off the h/2 lattice P0 h=1/64 k=10 tol 1e-10: S", single_layer(10.0),
         mesh(make_screen(2, [(0.0, 0.3125), (shift, shift + 0.5)]), 1 / 64, "P0"))
    case("two intervals 50 apart P0 h=1/256 k=10 tol 1e-10: S", single_layer(10.0),
         mesh(make_screen(2, [(0.0, 1 / 16), (50.0, 50.0 + 1 / 16)]), 1 / 256, "P0"))
    case("interval [0.1, 1.1] P0 h=1/64 k=10 tol 1e-10: S", single_layer(10.0),
         mesh(make_screen(2, [(0.1, 1.1)]), 1 / 64, "P0"))
    return out


def dump(path: str) -> None:
    from screenwave.spectral import SymbolQuadrature

    data = {}
    names = []
    for i, (name, kind, rows, cols, tol, variant) in enumerate(_cases()):
        plan = SymbolQuadrature(kind, rows, rows if cols is None else cols, tol, variant)
        names.append(name)
        data[f"c{i}_matrix"] = plan.matrix()
        data[f"c{i}_shared"] = np.array(cols is None)
        data[f"c{i}_plan"] = np.array([plan.xi_max, plan.M, plan.tail_bound, plan.n_theta]
                                      + [p.n_nodes for p in plan.panels], dtype=float)
        print(f"{name}: N={data[f'c{i}_matrix'].shape}", flush=True)
    np.savez(path, names=np.array(names), **data)


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    if list(a["names"]) != list(b["names"]):
        print("the two files hold different case lists")
        return 1
    worst, status = 0.0, 0
    for i, name in enumerate(a["names"]):
        ma, mb = a[f"c{i}_matrix"], b[f"c{i}_matrix"]
        rel = float(np.abs(ma - mb).max() / np.abs(ma).max())
        pa, pb = a[f"c{i}_plan"], b[f"c{i}_plan"]
        plan_eq = np.array_equal(pa, pb)
        line = f"{rel:9.2e}  plan {'==' if plan_eq else '!='}"
        if not plan_eq and pa.size == pb.size:
            line += " (" + ", ".join(
                f"{PLAN_FIELDS[f] if f < len(PLAN_FIELDS) else 'panel nodes'} "
                f"{float(pa[f])!r} -> {float(pb[f])!r}" for f in np.flatnonzero(pa != pb)) + ")"
        if a[f"c{i}_shared"]:
            line += f"  symmetric {np.array_equal(ma, ma.T)}/{np.array_equal(mb, mb.T)}"
        print(f"{line}  {name}")
        worst = max(worst, rel)
        if rel > REL_TOL or not plan_eq:
            status = 1
    print(f"largest max|diff|/max|entry|: {worst:.2e}")
    return status


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
