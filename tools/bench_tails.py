"""Time the n=2 analytic tail kernel ``profile_tails`` on a fixed mesh list.

For each case below the tool builds the quadrature plan, forms the tail
terms of every offset key of the matrix once, and then times
``profile_tails`` alone on them:

    PYTHONPATH=src python tools/bench_tails.py run OUT.json
    python tools/bench_tails.py combine --parent P1.json P2.json ... \
        --change C1.json C2.json ... [--compare COMPARE.txt] > BENCH.json

``run`` measures each case in a fresh child process, one at a time, and
records per case

* the median, quartiles and minimum of the wall time of ``CALLS`` calls,
  each made with an empty ladder memo (``tails._LADDERS``), so that every
  call evaluates its E_m ladders;
* ``profile_tails_warm_s``, the median and minimum of ``CALLS`` - 1 calls
  that read the ladders the call before them left in the memo;
* ``peak_rss_mb``, the child's resident high-water mark (imports, plan and
  the timed calls), and ``call_peak_mb``, the largest ``tracemalloc`` peak
  of one call, which is the kernel's own working set;
* the continued fractions that one call evaluates, by |z| band: their
  number and the mean and largest number of modified Lentz iterations each
  needs before its own |delta - 1| < ``_CF_EPS``.  The counts are taken by
  recording the arguments the call passes to ``_expint_cf`` and rerunning
  the fraction element by element here; they depend on the arguments and
  the stopping rule, not on how the kernel batches the fractions.

``combine`` joins ``run`` files made at a parent checkout and at the change
into one record: per case, each side's per-run medians, their median and
the change/parent ratio of the cold calls, the median warm call where the
side records one, and the output of ``tools/matrix_cases.py compare``
when it is given.  Each checkout is measured with its own source tree on
``PYTHONPATH`` and its own copy of this tool; a copy from before the memo
records cold calls only.  Alternate the sides, one run at a time: on a
shared machine the speed drifts by tens of per cent over minutes.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

CALLS = 21
BANDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, np.inf)


def _cases():
    """(name, kind, family, tol) per case; the meshes of the n=2 workloads
    and the finest Cantor level of the test suite."""
    from screenwave import build_mesh, cantor_prefractal, make_screen
    from screenwave.spectral import DofFamily, bessel, hypersingular, single_layer

    line = make_screen(2, [(0.0, 1.0)])
    interval = DofFamily.of(build_mesh(line, 1 / 256, "P0"))
    cantor4 = DofFamily.of(build_mesh(cantor_prefractal(2, 4, 1 / 3), 3.0 ** -4 / 8, "P0"))
    cantor8 = DofFamily.of(build_mesh(cantor_prefractal(2, 8, 1 / 3), 3.0 ** -9, "P0"))
    strip = DofFamily.of(build_mesh(line, 1 / 256, "P1"))
    return [
        ("interval P0 N=256 k=4 tol 1e-10: S", single_layer(4.0), interval, 1e-10),
        ("interval P0 N=256 k=16 tol 1e-10: S", single_layer(16.0), interval, 1e-10),
        ("Cantor level 4 P0 N=128 k=28 tol 1e-9: S", single_layer(28.0), cantor4, 1e-9),
        ("Cantor level 4 P0 N=128 k=28 tol 1e-9: G(-1/2)", bessel(28.0, -0.5), cantor4, 1e-9),
        ("Cantor level 8 P0 h=3^-9 k=20 tol 1e-9: S", single_layer(20.0), cantor8, 1e-9),
        ("interval P1 N=255 k=10 tol 1e-10: T", hypersingular(10.0), strip, 1e-10),
    ]


def _lentz_iterations(m: np.ndarray, z: np.ndarray, eps: float, maxiter: int = 400):
    """Per element, the first iteration i of the modified Lentz fraction for
    E_m(z) at which |delta - 1| < eps (maxiter where none is)."""
    m = m.astype(np.longdouble)
    b = z.astype(np.clongdouble) + m
    c = np.full(b.shape, 1e300, dtype=np.clongdouble)
    d = 1.0 / b
    its = np.full(b.shape, maxiter)
    for i in range(1, maxiter):
        a = -i * (m - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        first = (np.abs(c * d - 1.0) < eps) & (its == maxiter)
        its[first] = i
        if (its < maxiter).all():
            break
    return its


def _measure(index: int) -> dict:
    from screenwave.spectral import SymbolQuadrature, engine, tails

    name, kind, fam, tol = _cases()[index]
    plan = SymbolQuadrature(kind, fam, fam, tol)
    (keys, _), = plan._offset_keys()
    q, c, nu = engine._term_frequencies(plan.rows.factor(0), plan.cols.factor(0), keys)
    args = (c, nu, q, plan.sigma_terms, plan.xi_max)

    def timed(cold: bool) -> list[float]:
        out = []
        for _ in range(CALLS):
            if cold:
                tails._LADDERS.clear()
            t0 = time.perf_counter()
            tails.profile_tails(*args)
            out.append(time.perf_counter() - t0)
        return out

    times = timed(cold=True)
    warm = timed(cold=False)    # the first call fills the memo, which the rest read
    call_peak = 0
    for _ in range(3):
        tails._LADDERS.clear()
        tracemalloc.start()
        tails.profile_tails(*args)
        call_peak = max(call_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    seen = []
    cf = tails._expint_cf

    def recorded(m, z, *rest, **kw):
        seen.append((np.array(m), np.array(z)))
        return cf(m, z, *rest, **kw)

    tails._expint_cf = recorded
    tails._LADDERS.clear()
    try:
        tails.profile_tails(*args)
    finally:
        tails._expint_cf = cf
    m = np.concatenate([s[0] for s in seen]) if seen else np.zeros(0)
    z = np.concatenate([s[1] for s in seen]) if seen else np.zeros(0, dtype=complex)
    its = _lentz_iterations(m, z, tails._CF_EPS)
    r = np.abs(z).astype(float)
    bands = []
    for lo, hi in zip(BANDS[:-1], BANDS[1:]):
        sel = (r >= lo) & (r < hi)
        if sel.any():
            bands.append({"abs_z": [lo, None if np.isinf(hi) else hi],
                          "fractions": int(sel.sum()),
                          "mean_iterations": round(float(its[sel].mean()), 1),
                          "max_iterations": int(its[sel].max())})

    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"case": name, "keys": int(keys.delta.size), "terms": int(nu.size),
            "X": plan.xi_max, "M": plan.M,
            "profile_tails_s": {"median": statistics.median(times), "q1": q1, "q3": q3,
                                "min": min(times), "calls": CALLS},
            "profile_tails_warm_s": {"median": statistics.median(warm[1:]),
                                     "min": min(warm[1:]), "calls": CALLS - 1},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "call_peak_mb": call_peak / 2.0 ** 20,
            "continued_fractions": {"count": int(z.size),
                                    "iterations": int(its.sum()),
                                    "max_iterations": int(its.max()) if its.size else 0,
                                    "by_abs_z": bands}}


def run(path: str) -> None:
    out = []
    for i in range(len(_cases())):
        child = subprocess.run([sys.executable, __file__, "case", str(i)], check=True,
                               capture_output=True, text=True)
        rec = json.loads(child.stdout)
        t, w = rec["profile_tails_s"], rec["profile_tails_warm_s"]
        print(f"{t['median'] * 1e3:8.2f} ms  {w['median'] * 1e3:8.3f} ms warm  "
              f"{rec['peak_rss_mb']:6.1f} MB  "
              f"{rec['continued_fractions']['count']:5d} CF  {rec['case']}", flush=True)
        out.append(rec)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "processor": platform.processor()}
    with open(path, "w") as fh:
        json.dump({"environment": env, "cases": out}, fh, indent=1)


def combine(parent: list[str], change: list[str], compare_txt: str | None = None) -> dict:
    """One record from ``run`` files made alternately at the parent and at
    the change: per case, each side's per-run medians and their median."""
    sides = {"parent": [json.load(open(p)) for p in parent],
             "change": [json.load(open(p)) for p in change]}
    rows = {}
    for i, case in enumerate(sides["change"][0]["cases"]):
        row = {}
        for side, runs in sides.items():
            recs = [r["cases"][i] for r in runs]
            assert all(r["case"] == case["case"] for r in recs), "the files hold different cases"
            per_run = [r["profile_tails_s"]["median"] * 1e3 for r in recs]
            warm = [r["profile_tails_warm_s"]["median"] * 1e3
                    for r in recs if "profile_tails_warm_s" in r]
            row[side] = {"profile_tails_ms": round(statistics.median(per_run), 3),
                         "per_run_ms": [round(t, 3) for t in per_run],
                         "warm_ms": round(statistics.median(warm), 4) if warm else None,
                         "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
                         "call_peak_mb": round(max(r["call_peak_mb"] for r in recs), 3),
                         "first_run": recs[0]}
        ms = {side: row[side]["profile_tails_ms"] for side in sides}
        row["ratio"] = round(ms["change"] / ms["parent"], 3)
        rows[case["case"]] = row
    rec = {"environment": sides["change"][0]["environment"], "cases": rows}
    if compare_txt:
        rec["matrices_vs_parent"] = open(compare_txt).read().splitlines()
    return rec


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "case":
        json.dump(_measure(int(sys.argv[2])), sys.stdout)
    elif len(sys.argv) > 2 and sys.argv[1] == "combine":
        parser = argparse.ArgumentParser(prog="bench_tails.py combine")
        parser.add_argument("--parent", nargs="+", required=True)
        parser.add_argument("--change", nargs="+", required=True)
        parser.add_argument("--compare")
        args = parser.parse_args(sys.argv[2:])
        json.dump(combine(args.parent, args.change, args.compare), sys.stdout, indent=1)
    else:
        sys.exit(__doc__)
