"""Command-line entry point: JSON-configured runs, CSV emission, exit codes.

Exit-code contract: 0 all checks passed, 1 configuration/IO error, 2 checks
ran but some failed, 3 numerical failure.  Every CSV gets a side-car
``<path>.meta.json`` with the config hash and library version so seeded runs
are auditable; identical config + seed produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, solver
from .geometry import build_mesh, cantor_prefractal, make_screen
from .sobolev import WaveContext
from .solver import NumericalError
from .spectral import QuadratureError

EXIT_PASS, EXIT_CONFIG, EXIT_CHECK_FAIL, EXIT_NUMERICAL = 0, 1, 2, 3

_SCHEMA_PATH = Path(__file__).resolve().parent / "config.schema.json"


def _load_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text())


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (np.floating,)):
        return f"{float(x):.17g}"
    return str(x)


class Emitter:
    """CSV writer with config-hash side-car metadata."""

    def __init__(self, out_dir: Path, config_hash: str):
        self.out_dir = out_dir
        self.meta = {"config_sha256": config_hash, "version": __version__}
        out_dir.mkdir(parents=True, exist_ok=True)

    def emit(self, name: str, header: list[str], rows) -> Path:
        path = self.out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(self.meta, fh, sort_keys=True)
            fh.write("\n")
        return path


def _complex_cols(prefix: str) -> list[str]:
    return [f"{prefix}_re", f"{prefix}_im"]


def _screen_from_config(cfg: dict):
    section = cfg.get("screen")
    if section is None:
        raise ValueError("cli.run: config requires a screen section")
    n = section["n"]
    if "prefractal" in section:
        pf = section["prefractal"]
        return cantor_prefractal(n, pf["level"], pf.get("ratio", 1.0 / 3.0))
    if "boxes" not in section:
        raise ValueError("cli.run: screen needs 'boxes' or 'prefractal'")
    if n == 2:
        boxes = [(b[0], b[1]) for b in section["boxes"]]
    else:
        boxes = [(tuple(b[0]), tuple(b[1])) for b in section["boxes"]]
    return make_screen(n, boxes)


# plane-wave data constructor per data role, each (ctx, directions, amplitudes)
_PLANE_WAVE_DATA = {
    "dirichlet": solver.incident_dirichlet,
    "neumann": solver.incident_neumann,
    "aperture_h": solver.aperture_h_data,
    "aperture_i": solver.aperture_i_data,
}


def _incident_from_config(cfg: dict, ctx: WaveContext, role: str,
                          ambient: int = 2):
    default_dir = [0.0] * (ambient - 1) + [-1.0]
    inc = cfg.get("incident", {"kind": "plane_wave",
                               "directions": [default_dir]})
    if inc.get("kind", "plane_wave") == "plane_wave":
        return _PLANE_WAVE_DATA[role](ctx, inc["directions"], inc.get("amplitudes"))
    if role != "dirichlet":
        raise ValueError("cli.run: point sources drive Dirichlet data only")
    return solver.point_source_dirichlet(ctx, inc["source"])


def _default_eval_points(screen, count: int = 12):
    L = screen.diameter
    c = np.zeros(screen.dim_ambient)
    c[:-1] = 0.5 * (screen.lo.min(axis=0) + screen.hi.max(axis=0))
    th = np.linspace(0.15, np.pi - 0.15, count)
    pts = np.zeros((count, screen.dim_ambient))
    pts[:, 0] = c[0] + 1.5 * L * np.cos(th)
    pts[:, -1] = 1.5 * L * np.sin(th)
    return pts


def _farfield_directions(n: int, count: int):
    if n == 2:
        th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack([np.sin(th), np.cos(th)])
    th = np.linspace(0.05, np.pi - 0.05, count)
    return np.column_stack([np.sin(th), np.zeros_like(th), np.cos(th)])


# ---------------------------------------------------------------------------
# command implementations; each returns (all_passed, lines)
# ---------------------------------------------------------------------------
def _cmd_field(cfg, emit: Emitter):
    """``solve`` (problems S, T) and ``aperture`` (problems H, I)."""
    command = cfg["command"]
    prefix = "aperture_" if command == "aperture" else ""
    letters = [p.removeprefix(prefix) for p in solver._PROBLEMS
               if p.startswith("aperture_") == bool(prefix)]
    letter = cfg.get("problem", letters[0])
    if letter not in letters:
        raise ValueError(f"{command} solves problem {' or '.join(letters)}, "
                         f"not {letter}")
    problem = prefix + letter
    spec = solver._PROBLEMS[problem]
    screen = _screen_from_config(cfg)
    ctx = WaveContext(cfg["k"])
    g = _incident_from_config(cfg, ctx, spec.roles[0], screen.dim_ambient)
    sol = solver._solve(problem, screen, ctx, g, cfg["h"], cfg.get("tol", 1e-9))

    mesh = sol.density.mesh
    coord_cols = ["x"] if mesh.dim_screen == 1 else ["x", "y"]
    emit.emit("density.csv", ["dof", *coord_cols, *_complex_cols("c")],
              [(j, *mesh.dof_points[j], sol.density.coefficients[j].real,
                sol.density.coefficients[j].imag) for j in range(mesh.n_dofs)])

    pts = np.asarray(cfg.get("eval_points", _default_eval_points(screen)), float)
    u = np.atleast_1d(solver.eval_field(sol, pts))
    x_cols = [f"x{i}" for i in range(pts.shape[1])]
    if spec.signed:
        # the two-sided aperture field also goes out at the mirror points,
        # where sign(x_n) makes it odd (single layer) or even (double layer)
        mirror = pts.copy()
        mirror[:, -1] *= -1.0
        u_dn = np.atleast_1d(solver.eval_field(sol, mirror))
        emit.emit("field.csv",
                  [*x_cols, *_complex_cols("u"), *_complex_cols("u_mirror")],
                  [(*p, a.real, a.imag, b.real, b.imag)
                   for p, a, b in zip(pts, u, u_dn)])
        parity, word = (-1.0, "odd") if spec.single else (1.0, "even")
        gap = float(np.max(np.abs(u - parity * u_dn)))
        scale = float(np.max(np.abs(u)))
        ok = gap <= 1e-8 * max(scale, 1e-300)
        return ok, [f"aperture[{letter}]: {word}-reflection gap {gap:.3e} "
                    f"(scale {scale:.3e}) -> {'pass' if ok else 'FAIL'}"]

    emit.emit("field.csv", [*x_cols, *_complex_cols("u")],
              [(*p, v.real, v.imag) for p, v in zip(pts, u)])
    dirs = _farfield_directions(screen.dim_ambient, cfg.get("farfield_count", 72))
    ff = solver.far_field(sol, dirs)
    emit.emit("farfield.csv",
              [*(f"d{i}" for i in range(dirs.shape[1])), *_complex_cols("uinf")],
              [(*d, v.real, v.imag) for d, v in zip(dirs, ff)])

    res = sol.diagnostics["algebraic_residual"]
    ok = res <= 1e-8 * max(np.linalg.norm(sol.rhs), 1.0)
    return ok, [f"solve[{letter}]: N={mesh.n_dofs} algebraic residual "
                f"{res:.3e} -> {'pass' if ok else 'FAIL'}"]


def _cmd_ksweep(cfg, emit: Emitter):
    from .diagnostics import continuity_sweep_S

    screen = _screen_from_config(cfg)
    sw = continuity_sweep_S(screen, cfg["k_grid"],
                            cfg.get("elements_per_wavelength", 8.0),
                            cfg.get("tol", 1e-9))
    emit.emit("sweep.csv", ["k", "estimate", "shaped"],
              list(zip(sw.parameter, sw.quantities["estimate"],
                       sw.quantities["shaped"])))
    ok = sw.verdict == "pass"
    return ok, [f"ksweep: shaped max/min {sw.meta['max_over_min']:.3f} "
                f"-> {sw.verdict}"]


def _cmd_coercivity(cfg, emit: Emitter):
    from .diagnostics import (COERCIVITY_CONSTANT_S, coercivity_scan_S,
                              coercivity_scan_T)

    screen = _screen_from_config(cfg)
    op = cfg.get("operator", "S")
    seed = cfg.get("seed", 0)
    if op == "S":
        threshold = cfg.get("threshold", COERCIVITY_CONSTANT_S - 1e-3)
        lines, all_ok, rows = [], True, []
        mesh = build_mesh(screen, cfg["h"], "P0")
        for k in (cfg["k_grid"] if "k_grid" in cfg else [cfg["k"]]):
            res = coercivity_scan_S(mesh, WaveContext(float(k)),
                                    cfg.get("samples", 1000), seed,
                                    cfg.get("tol", 1e-9))
            mn = res.meta["min_quotient"]
            ok = mn >= threshold
            all_ok &= ok
            rows.append((k, mn, threshold, int(ok)))
            lines.append(f"coercivity[S] k={k}: min quotient {mn:.6f} >= "
                         f"{threshold:.6f} -> {'pass' if ok else 'FAIL'}")
        emit.emit("quotients.csv", ["k", "min_quotient", "threshold", "pass"],
                  rows)
        return all_ok, lines
    res = coercivity_scan_T(screen, cfg["k_grid"], cfg.get("samples", 200),
                            seed, cfg.get("elements_per_wavelength", 8.0),
                            cfg.get("tol", 1e-9))
    emit.emit("quotients.csv", ["k", "min_quotient"],
              list(zip(res.parameter, res.quantities["min_quotient"])))
    ok = res.verdict in ("pass", "inconclusive")
    return ok, [f"coercivity[T]: slope {res.slope:.3f} (R2 {res.r_squared:.3f})"
                f" -> {res.verdict}"]


def _cmd_sharpness(cfg, emit: Emitter):
    from .diagnostics import sharpness_S, sharpness_T

    screen = _screen_from_config(cfg)
    op = cfg.get("operator", "S")
    if op == "S":
        res = sharpness_S(screen, cfg["k_grid"],
                          cfg.get("elements_per_wavelength", 10.0),
                          cfg.get("tol", 1e-9))
        emit.emit("sweep.csv", ["k", "ratio"],
                  list(zip(res.parameter, res.quantities["ratio"])))
        ok = res.verdict == "pass"
        return ok, [f"sharpness[S]: slope {res.slope:.3f} "
                    f"(R2 {res.r_squared:.3f}) -> {res.verdict}"]
    res = sharpness_T(screen, cfg["k_grid"], cfg.get("h"), cfg.get("tol", 1e-9))
    emit.emit("sweep.csv", ["k", "ratio"],
              list(zip(res.parameter, res.quantities["ratio"])))
    ok = res.verdict == "pass"
    return ok, [f"sharpness[T]: ratios in "
                f"[{res.quantities['ratio'].min():.3f}, "
                f"{res.quantities['ratio'].max():.3f}] -> {res.verdict}"]


def _cmd_nullity(cfg, emit: Emitter):
    from .diagnostics import NullityDescriptor, cantor_descriptor, nullity_advisor

    section = cfg["set"]
    if section["kind"] == "cantor_limit_set":
        desc = cantor_descriptor(section.get("n", 2), section.get("ratio", 1.0 / 3.0))
    else:
        desc = NullityDescriptor(section["kind"], ambient=section.get("ambient", 1))
    orders = cfg["s_grid"] if "s_grid" in cfg else [cfg["s"]]
    rows, lines = [], []
    for s in orders:
        v = nullity_advisor(desc, float(s))
        rows.append((s, v.verdict, v.rule))
        lines.append(f"nullity s={s}: {v.verdict} ({v.rule})")
    emit.emit("verdicts.csv", ["s", "verdict", "rule"], rows)
    return True, lines


def _cmd_oracle_check(cfg, emit: Emitter):
    from .operators import (assemble_hypersingular, assemble_single_layer,
                            kernel_oracle_single_layer,
                            maue_oracle_hypersingular)

    screen = _screen_from_config(cfg)
    tol = cfg.get("tol", 1e-9)
    op = cfg.get("operator", "S")
    lines, rows, all_ok = [], [], True
    mesh = build_mesh(screen, cfg["h"], "P0" if op == "S" else "P1")
    for k in (cfg["k_grid"] if "k_grid" in cfg else [cfg["k"]]):
        ctx = WaveContext(float(k))
        if op == "S":
            sys_ = assemble_single_layer(mesh, ctx, tol)
            oracle = kernel_oracle_single_layer(mesh, ctx)
            rel = float(np.max(np.abs(sys_.matrix - oracle) / np.abs(oracle)))
            thresh = cfg.get("threshold", 1e-6)
        else:
            sys_ = assemble_hypersingular(mesh, ctx, tol)
            oracle = maue_oracle_hypersingular(mesh, ctx, tol)
            rel = float(np.max(np.abs(sys_.matrix - oracle))
                        / np.max(np.abs(sys_.matrix)))
            thresh = cfg.get("threshold", 1e-8)
        ok = rel <= thresh
        all_ok &= ok
        rows.append((k, rel, thresh, int(ok)))
        lines.append(f"oracle-check[{op}] k={k}: rel diff {rel:.3e} <= "
                     f"{thresh:g} -> {'pass' if ok else 'FAIL'}")
    emit.emit("oracle.csv", ["k", "rel_diff", "threshold", "pass"], rows)
    return all_ok, lines


def _cmd_prefractal(cfg, emit: Emitter):
    from .diagnostics import prefractal_convergence

    ctx = WaveContext(cfg["k"])
    inc = cfg.get("incident", {"directions": [[0.0, -1.0]]})
    if len(inc["directions"]) != 1 or "amplitudes" in inc:
        raise ValueError("prefractal takes one incident plane wave: give one "
                         "direction and no amplitudes")
    res = prefractal_convergence(cfg.get("screen", {"n": 2})["n"],
                                 cfg.get("ratio", 1.0 / 3.0),
                                 cfg["levels"], ctx,
                                 inc["directions"][0],
                                 tol=cfg.get("tol", 1e-8))
    diffs = res.meta["consecutive_diffs"]
    rows = [(lev, res.quantities["dofs"][i], res.quantities["l1_mass"][i],
             diffs[i] if i < len(diffs) else float("nan"))
            for i, lev in enumerate(res.parameter)]
    emit.emit("prefractal.csv", ["level", "dofs", "l1_mass", "diff_to_next"],
              rows)
    levels = [int(v) for v in res.parameter]
    return True, [f"prefractal: levels {levels} consecutive "
                  f"far-field diffs {['%.3e' % d for d in diffs]} (recorded)"]


_COMMANDS = {
    "solve": _cmd_field,
    "aperture": _cmd_field,
    "ksweep": _cmd_ksweep,
    "coercivity": _cmd_coercivity,
    "sharpness": _cmd_sharpness,
    "nullity": _cmd_nullity,
    "oracle-check": _cmd_oracle_check,
    "prefractal": _cmd_prefractal,
}


def run(config_path: str, out_dir: str | None = None,
        command: str | None = None) -> int:
    """Execute one configured pipeline; returns the exit code."""
    try:
        raw = Path(config_path).read_text()
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        import jsonschema

        jsonschema.validate(cfg, _load_schema())
    except Exception as exc:  # noqa: BLE001 - schema violations are config errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if command is not None and cfg["command"] != command:
        print(f"config error: CLI command {command!r} does not match config "
              f"command {cfg['command']!r}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(out_dir) if out_dir else Path(cfg.get("out", "."))
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    emit = Emitter(out, digest)

    try:
        ok, lines = _COMMANDS[cfg["command"]](cfg, emit)
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for line in lines:
        print(line)
    return EXIT_PASS if ok else EXIT_CHECK_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="screenwave",
        description="Helmholtz scattering by planar screens and apertures")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out, command=args.command)


if __name__ == "__main__":
    sys.exit(main())
