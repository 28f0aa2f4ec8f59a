#!/usr/bin/env python3
"""screenwave benchmark: one workload, one seed, a closed loop of operations.

    python3 perfbench/run.py --workload interval-S --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload several times, runs one untimed
warm-up operation, then runs operations one after another until the next one
would end after ``--seconds`` of timed work.  Each operation's outputs are
checked after it, outside the timed region, and the production assembly is
compared once per run against an independent oracle.  With ``--trace 0`` the
last line of standard output is the end-to-end result; with ``--trace 1``
every call into a layer module is a span and the result holds the per-layer
metrics.  A full record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy is imported.  One thread is at most nproc anywhere, and
# a neighbour on another core then cannot stretch the BLAS calls.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
FAILED_OP_S = 3600.0     # a failed op counts as slower than any limit
_T0 = time.perf_counter()


def process_age_s() -> float:
    """Seconds since this process started (interpreter start included)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


def blas_threads_in_effect() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = fn()
                break
    return out


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(np, scipy, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def jsonable(x: dict) -> dict:
    return {key: (v.tolist() if hasattr(v, "tolist") else v) for key, v in x.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_ops(wl, rng, seconds: float, tracer, label) -> tuple[list[dict], float]:
    """Closed loop: one op after another until the next group would overrun.

    Returns one record per op and the timed wall seconds.  Checks, and in a
    traced run the repeat of each new k's assembly, run outside the timing.
    """
    records, timed, repeated = [], 0.0, set()
    while True:
        group = wl.draw_group(rng)
        if records and timed + len(group) * statistics.median(
                r["op_s"] for r in records) > seconds:
            return records, timed
        for x in group:
            i = len(records)
            label("op", i, x["k"])
            book0 = tracer.bookkeeping_s if tracer else 0.0
            t0 = time.perf_counter()
            try:
                out, fails = wl.op(x), []
            except Exception as exc:  # a failed op is counted, not fatal
                out, fails = None, [f"{type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            timed += dt
            rec = {"input": jsonable(x), "op_s": dt, "info": {},
                   "trace_overhead_s": tracer.bookkeeping_s - book0 if tracer else 0.0}
            label("check", i, x["k"])
            if out is not None:
                try:
                    fails, rec["info"] = wl.check(x, out)
                except Exception as exc:  # a check that cannot run fails the op
                    fails = [f"check raised {type(exc).__name__}: {exc}"]
                del out
            if tracer is not None and x["k"] not in repeated:
                repeated.add(x["k"])
                wl.galerkin_matrix(wl.mesh, x["k"])
            rec["failures"] = fails
            records.append(rec)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "screenwave" / "__init__.py").is_file():
        print(f"error: no screenwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    from screenwave.sobolev import GramMatrix
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = process_age_s()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.watch_grams(GramMatrix)

    def label(phase, op=-1, k=0.0):
        if tracer is not None:
            tracer.phase, tracer.op, tracer.k = phase, op, k

    # set-up: repeated for a steady median, then one untimed warm-up op
    wl = workloads.WORKLOADS[args.workload]()
    warm_x = wl.warmup_input()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        label("setup", k=warm_x["k"])
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    label("warmup", k=warm_x["k"])
    t0 = time.perf_counter()
    wl.op(warm_x)
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(setup_times) + warmup_s

    records, timed = run_ops(wl, np.random.default_rng(args.seed), args.seconds,
                             tracer, label)

    k_acc = records[0]["input"]["k"]
    label("accuracy", k=k_acc)
    try:
        acc_err, acc_ok = wl.accuracy(k_acc)
    except Exception as exc:  # reported as a failed accuracy check
        acc_err, acc_ok = f"{type(exc).__name__}: {exc}", False

    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    end_to_end = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(FAILED_OP_S if r["failures"] else r["op_s"]
                                      for r in records),
        "ops_per_min": 60.0 * (attempted - failed) / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        values, wanted = tracing.layer_metrics(tracer, records), spec["per_layer"]
    else:
        values, wanted = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(np, scipy, args.seed)
    env["inputs"] = [jsonable(warm_x)] + [r["input"] for r in records]
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "setup": {"import_s": import_s, "setup_repeats_s": setup_times,
                  "warmup_s": warmup_s},
        "accuracy": {"k": k_acc, "error": acc_err, "limit": wl.acc_limit, "ok": acc_ok},
        "end_to_end": end_to_end, "failed_frac": failed / attempted,
        "metrics": metrics, "ops": records,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.json")

    print("environment:", json.dumps(env))
    print(f"{args.workload} seed={args.seed}: {attempted} ops in {timed:.2f} s timed, "
          f"failed_frac={failed / attempted:.3g} ({failed}/{attempted}), "
          f"accuracy {'ok' if acc_ok else 'FAILED'} ({acc_err} at k={k_acc:.6g})")
    for r in records:
        if r["failures"]:
            print(f"  op k={r['input']['k']:.6g} failed: {'; '.join(r['failures'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}"
              + (f" (n={attempted} ops)" if name == "op_s_p50" else ""))
    print(json.dumps({"correct": bool(acc_ok and failed == 0), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
