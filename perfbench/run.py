"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wheel-smma --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src. The
run builds the problem several times (set-up), then repeats the
workload's fixed budget until the next repetition would end after
--seconds, always at least once (twice with --trace 1). With --trace 0 it
prints the end-to-end metrics named in BENCHMARK.json, scaled to
reference machine speed (see calibrate.py); with --trace 1 it
alternates untraced and traced repetitions, prints the per-layer metrics
and writes the spans of the last traced repetition under .perfbench/.
The last line of output is one JSON object: correct, attempted, failed and
metrics. Exit code 2 means the program or the benchmark files are missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
# single-threaded BLAS and OpenMP: default threading was slower and noisier
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": _blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": _blas(scipy),
    }


def _number(x):
    return float(x) if x is not None and math.isfinite(x) else None


def write_spans(path: Path, rep) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for phase, spans in (("loop", rep.loop_spans),
                             ("verify", rep.verify_spans)):
            for s in spans:
                fh.write(json.dumps({
                    "phase": phase, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": s.self_time,
                    **s.counts}) + "\n")


def prepare() -> bool:
    """Pin threads and put ./src on the path; False if files are missing."""
    for path in (ROOT / "src" / "smma" / "__init__.py", SPEC_PATH):
        if not path.is_file():
            print(f"error: {path} is missing", file=sys.stderr)
            return False
    for var in THREAD_VARS:   # before numpy is first imported
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    import metrics
    from calibrate import Probe
    from tracer import Tracer
    from workloads import (WORKLOADS, cross_check, load_reference,
                           run_repetition, timed_build)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    wl = WORKLOADS[args.workload]
    probe = None if args.trace else Probe()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        if probe is not None:
            probe.sample()
        setup_samples.append(timed_build(wl)[1])
    reps = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        begun = time.perf_counter()
        reps.append(run_repetition(wl, args.seed,
                                   Tracer() if traced else None, probe))
        took = time.perf_counter() - begun
        if (len(reps) >= 1 + args.trace
                and time.perf_counter() - start + took > args.seconds):
            break
    cross_check(wl, args.seed, reps, load_reference())
    setup_samples += [r.setup for r in reps]

    if args.trace:
        values = metrics.per_layer(reps, loop=wl.method is not None)
        wanted = spec["per_layer"]
        last = [r for r in metrics.completed(reps) if r.traced]
        if last:
            write_spans(ROOT / ".perfbench"
                        / f"spans-{wl.name}-seed{args.seed}.jsonl", last[-1])
    else:
        values = metrics.end_to_end(reps, setup_samples, probe.speed)
        wall = metrics.end_to_end(reps, setup_samples, lambda t: 1.0)
        wanted = spec["end_to_end"]
    out = {m["name"]: {"value": _number(values.get(m["name"])),
                       "unit": m["unit"]} for m in wanted}

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failed_ops) for r in reps)
    done = metrics.completed(reps)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(reps)} repetitions")
    print("environment " + json.dumps(environment()))
    for name, m in out.items():
        print(f"{name:>22} {m['value']!r} {m['unit']}")
    for name in values.keys() - out.keys():
        print(f"{name:>22} {values[name]!r} (printed, not a bounded metric)")
    if not args.trace:
        print(f"{'speed_scale':>22} {probe.scale()!r} (run median of "
              f"{len(probe.samples)} probes)")
        print(f"{'wall times':>22} "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    print(f"{'failed_ops_frac':>22} {failed / max(attempted, 1)!r} "
          f"({failed} of {attempted} operations)")
    print(f"{'peak_rss_mb':>22} {metrics.peak_rss_mb()!r} MB")
    if done:
        print(f"{'final_rvol':>22} {done[0].final_rvol!r}")
        print(f"{'final_g_dense':>22} {done[0].dense[1]!r} "
              f"(dense smooth, steepened, nonsmooth: {list(done[0].dense)})")
    for rep in reps:
        for problem in rep.problems:
            print(f"FAILED {problem}")
    print(json.dumps({"correct": failed == 0 and bool(done),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
