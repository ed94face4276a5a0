"""Check that the layer wrappers still see the program's structure.

    python3 perfbench/selftest.py

Runs a short untraced and a short traced repetition of every workload
(seed 0) and checks that

- both produce bit-identical results, so tracing changes nothing;
- the spans per operation match today's structure: the wheel does one
  factorization and one block solve per iteration, the plate B
  factorizations, 2B solves and 3B element quadratic forms, and a plate
  verification call n1*n2 factorizations.

A count of zero means a wrapper no longer sits where the program looks
the function up. A change that alters the structure on purpose (for
example one factorization per plate design) fails here by design; the
per-layer count metrics then show the new structure. Exit code 1 on any
failure.
"""
from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import run

SHORT = {"wheel-smma": {"iterations": 3},
         "wheel-limited": {"iterations": 3, "memory_cap": 16},
         "plate-smma": {"iterations": 2},
         "plate-verify": {}}


def expected_loop(wl, batch: int) -> Counter:
    """Span counts over the whole loop of a short repetition."""
    n = wl.iterations
    per_iter = ({"assemble": 1, "solve": 1, "qforms": 1}
                if wl.problem == "wheel"
                else {"assemble": batch, "solve": 2 * batch,
                      "qforms": 3 * batch})
    want = Counter({k: v * n for k, v in per_iter.items()})
    want.update(evaluate=n, weights=n, aggregate=n, append=batch * n)
    if wl.memory_cap is not None:
        want["evict"] = sum(batch * k > wl.memory_cap
                            for k in range(1, n + 1))
    return want


def expected_verify(wl, grid, calls: int) -> Counter:
    points = 1 if wl.problem == "wheel" else grid[0] * grid[1]
    solves = 1 if wl.problem == "wheel" else 2 * points
    return Counter(dense_cc=calls, assemble=points * calls,
                   solve=solves * calls)


def check(wl, w) -> list:
    from tracer import Tracer
    reps = [w.run_repetition(wl, 0, None), w.run_repetition(wl, 0, Tracer())]
    w.cross_check(wl, 0, reps, {})
    problems = [p for rep in reps for p in rep.problems]
    traced = reps[1]
    phases = [("verify", traced.verify_spans,
               expected_verify(wl, w.PLATE_VERIFY_GRID,
                               len(traced.verifies)))]
    if wl.method is not None:
        phases.append(("loop", traced.loop_spans,
                       expected_loop(wl, w.BATCH)))
    for phase, spans, want in phases:
        got = Counter(s.name for s in spans)
        for name, n in want.items():
            if got[name] != n:
                problems.append(f"{phase}: {got[name]} {name} spans, "
                                f"expected {n}")
    return problems


def main() -> int:
    if not run.prepare():
        return 2
    import workloads as w

    failed = False
    for name, short in SHORT.items():
        wl = dataclasses.replace(w.WORKLOADS[name], **short)
        problems = check(wl, w)
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
