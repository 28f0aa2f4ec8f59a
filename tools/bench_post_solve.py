"""Time the post-solve steps of many incidences solved against one system.

A scattering study solves one Galerkin system for many incident waves and
evaluates each solution at the same points.  For the inputs of two benchmark
workloads, this tool times each step that follows the assembly:

    PYTHONPATH=src python tools/bench_post_solve.py run OUT.json
    python tools/bench_post_solve.py combine --parent P1.json P2.json ... \
        --change C1.json C2.json ... [--perfbench RUNS.jsonl] > BENCH.json

``run`` measures each case in a fresh child process, one at a time, with
BLAS on one thread as in ``perfbench/run.py``, and records per step the median, quartiles and minimum of the wall time of
``CALLS`` calls, and the largest ``tracemalloc`` peak of three calls, which
is the step's own working set; per case also ``peak_rss_mb``, the child's
resident high-water mark.  The steps:

* ``rhs``: the right-hand side of one incidence (``rhs_functional``);
* ``solve_first``: LU solve and residual check, with the system's cached
  factor dropped before each call, so that the factor is formed again;
* ``solve_repeat``: the same solve against a system already factored;
* ``eval_field_miss``: the field at the case's points, with the system's
  field map dropped before each call;
* ``eval_field_hit``: the field at the same points again;
* ``far_field``: the pattern in the case's directions.

A checkout whose systems cache neither factor nor field map does the same
work in the first and the repeat step of a pair.

``combine`` joins ``run`` files made at a parent checkout and at the change
into one record: per case and step, each side's per-run medians, their
median and the change/parent ratio.  ``--perfbench`` adds the end-to-end
results of alternating ``perfbench/run.py`` runs, one JSON object per line
with keys ``workload``, ``seed``, ``side`` ("parent" or "change"),
``wall_s`` and ``result`` (the run's last line of output): per workload
and metric, each side's values, median and quartiles, and the pairs of one
seed that the change won.  Each checkout is measured with its own source
tree on ``PYTHONPATH`` and this file.  Alternate the sides, one run at a
time: on a shared machine the speed drifts by tens of per cent over
minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

# BLAS on one thread, as in perfbench/run.py: pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

CALLS = 41
STEPS = ("rhs", "solve_first", "solve_repeat", "eval_field_miss", "eval_field_hit",
         "far_field")
# end-to-end metrics of perfbench/run.py and whether lower is better
METRICS = {"setup_s": True, "op_s_p50": True, "ops_per_min": False, "peak_rss_mb": True}


def _circle(n: int) -> np.ndarray:
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(t), np.sin(t)])


def _cases():
    """(name, problem, basis, h, k, points) per case: the meshes, wavenumber,
    far-field directions (360) and field points of the ``strip-T-incidence``
    and ``interval-S`` workloads, the latter at its warm-up k."""
    gx, gy = np.meshgrid(np.linspace(-0.5, 1.5, 20), np.linspace(-1.0, 1.0, 10))
    t = np.linspace(0.0, np.pi, 12)
    return [
        ("strip-T-incidence: interval P1 N=255 k=10, T, 200 points", "T", "P1",
         1 / 256, 10.0, np.column_stack([gx.ravel(), gy.ravel()])),
        ("interval-S: interval P0 N=256 k=8, S, 12 points", "S", "P0", 1 / 256, 8.0,
         np.column_stack([0.5 + 1.5 * np.cos(t), 0.2 + np.sin(t)])),
    ]


def _measure(index: int) -> dict:
    from screenwave import build_mesh, make_screen, operators, solver
    from screenwave.sobolev import WaveContext, rhs_functional

    name, problem, basis, h, k, points = _cases()[index]
    screen = make_screen(2, [(0.0, 1.0)])
    ctx = WaveContext(k)
    mesh = build_mesh(screen, h, basis)
    d = [np.sin(0.3), -np.cos(0.3)]
    if problem == "T":
        system = operators.assemble_hypersingular(mesh, ctx)
        g, sign = solver.incident_neumann(ctx, [d]), 1.0
        sol = solver.solve_problem_T(screen, ctx, g, h, system=system)
    else:
        system = operators.assemble_single_layer(mesh, ctx)
        g, sign = solver.incident_dirichlet(ctx, [d]), -1.0
        sol = solver.solve_problem_S(screen, ctx, g, h, system=system)
    rhs = sign * rhs_functional(g, mesh, ctx)
    dirs = _circle(360)

    def drop_factor():
        vars(system).pop("lu", None)

    def drop_map():
        system.point_map = None

    steps = {
        "rhs": (None, lambda: rhs_functional(g, mesh, ctx)),
        "solve_first": (drop_factor, lambda: solver._solve_dense(system, rhs)),
        "solve_repeat": (None, lambda: solver._solve_dense(system, rhs)),
        "eval_field_miss": (drop_map, lambda: solver.eval_field(sol, points)),
        "eval_field_hit": (None, lambda: solver.eval_field(sol, points)),
        "far_field": (None, lambda: solver.far_field(sol, dirs)),
    }
    out = {}
    for step in STEPS:
        reset, call = steps[step]
        call()                                   # warm: caches and imports
        times = []
        for _ in range(CALLS):
            if reset:
                reset()
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        peak = 0
        for _ in range(3):
            if reset:
                reset()
            tracemalloc.start()
            call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        q1, _, q3 = statistics.quantiles(times, n=4)
        out[step] = {"median_ms": statistics.median(times) * 1e3, "q1_ms": q1 * 1e3,
                     "q3_ms": q3 * 1e3, "min_ms": min(times) * 1e3, "calls": CALLS,
                     "peak_mb": peak / 2.0 ** 20}
    return {"case": name, "n_dofs": mesh.n_dofs, "points": int(points.shape[0]),
            "directions": int(dirs.shape[0]), "steps": out,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run(path: str) -> None:
    out = []
    for i in range(len(_cases())):
        child = subprocess.run([sys.executable, __file__, "case", str(i)], check=True,
                               capture_output=True, text=True)
        rec = json.loads(child.stdout)
        print(rec["case"], flush=True)
        for step, s in rec["steps"].items():
            print(f"  {step:16s} {s['median_ms']:8.3f} ms  {s['peak_mb']:6.2f} MB", flush=True)
        out.append(rec)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "processor": platform.processor()}
    with open(path, "w") as fh:
        json.dump({"environment": env, "cases": out}, fh, indent=1)


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _perfbench(path: str) -> dict:
    """Per workload and metric: both sides' values in seed order, their
    median and quartiles, and the seeds whose change run read better."""
    runs = [json.loads(line) for line in open(path) if line.strip()]
    rows = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["seed"]: r for r in runs
                          if r["workload"] == w and r["side"] == side}
                   for side in ("parent", "change")}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        row = {"seeds": seeds,
               "failed_ops": {side: [by_side[side][s]["result"]["failed"] for s in seeds]
                              for side in by_side},
               "attempted_ops": {side: [by_side[side][s]["result"]["attempted"]
                                        for s in seeds] for side in by_side},
               "correct": all(by_side[side][s]["result"]["correct"]
                              for side in by_side for s in seeds),
               "wall_s": {side: [round(by_side[side][s]["wall_s"], 1) for s in seeds]
                          for side in by_side}}
        for metric, lower in METRICS.items():
            vals = {side: [by_side[side][s]["result"]["metrics"][metric]["value"]
                           for s in seeds] for side in by_side}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            row[metric] = {side: {"values": vals[side], **_spread(vals[side])}
                           for side in vals}
            row[metric]["change_won"] = f"{wins}/{len(seeds)}"
            row[metric]["ratio"] = (row[metric]["change"]["median"]
                                    / row[metric]["parent"]["median"])
        rows[w] = row
    return rows


def combine(parent: list[str], change: list[str], perfbench: str | None = None) -> dict:
    """One record from ``run`` files made alternately at the parent and at
    the change: per case and step, each side's per-run medians and their
    median."""
    sides = {"parent": [json.load(open(p)) for p in parent],
             "change": [json.load(open(p)) for p in change]}
    rows = {}
    for i, case in enumerate(sides["change"][0]["cases"]):
        row = {}
        for step in STEPS:
            cell = {}
            for side, runs in sides.items():
                recs = [r["cases"][i] for r in runs]
                assert all(r["case"] == case["case"] for r in recs), \
                    "the files hold different cases"
                per_run = [r["steps"][step]["median_ms"] for r in recs]
                cell[side] = {"median_ms": round(statistics.median(per_run), 4),
                              "per_run_ms": [round(t, 4) for t in per_run],
                              "peak_mb": round(max(r["steps"][step]["peak_mb"]
                                                   for r in recs), 3)}
            cell["ratio"] = round(cell["change"]["median_ms"] / cell["parent"]["median_ms"], 4)
            row[step] = cell
        row["peak_rss_mb"] = {side: max(r["cases"][i]["peak_rss_mb"] for r in runs)
                              for side, runs in sides.items()}
        rows[case["case"]] = row
    rec = {"environment": sides["change"][0]["environment"], "cases": rows}
    if perfbench:
        rec["end_to_end"] = _perfbench(perfbench)
    return rec


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "case":
        json.dump(_measure(int(sys.argv[2])), sys.stdout)
    elif len(sys.argv) > 2 and sys.argv[1] == "combine":
        parser = argparse.ArgumentParser(prog="bench_post_solve.py combine")
        parser.add_argument("--parent", nargs="+", required=True)
        parser.add_argument("--change", nargs="+", required=True)
        parser.add_argument("--perfbench")
        args = parser.parse_args(sys.argv[2:])
        json.dump(combine(args.parent, args.change, args.perfbench), sys.stdout, indent=1)
        print()
    else:
        sys.exit(__doc__)
