"""The benchmark's tracer finds every function it wraps.

`perfbench/tracer.py` replaces each `TARGETS` entry by looking it up in
its owner's own namespace; a renamed or deleted target makes every traced
benchmark run fail. This check fails first. The traced verification runs
below fail when a dense verification no longer reaches a layer the
benchmark requires of it (`workloads.VERIFY_LAYERS`), or when a layer's
work count can no longer be read (the factorization's `lu.nnz`). The
traced loops, the plate's and the wheel's (which replays its first
COLAMD order), fail when an iteration no longer reaches a layer the
benchmark requires of it (`workloads.LOOP_LAYERS`).
"""
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_tracer_target_resolves(perfbench):
    import tracer

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"


def test_traced_plate_verify_repetition(perfbench):
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS["plate-verify"]
    rep = workloads.run_repetition(wl, 3, Tracer())
    workloads.cross_check(wl, 3, [rep], workloads.load_reference())
    assert rep.attempted == 1
    assert not rep.failed_ops, rep.problems
    nnz = [s.counts["nnz"] for s in rep.verify_spans if s.name == "assemble"]
    assert len(nnz) == 1 and nnz[0] > 0


def test_traced_wheel_verification(perfbench):
    import workloads
    from tracer import Tracer, install

    from smma import benchmarks, driver

    problem = benchmarks.wheel_problem()
    tracer = Tracer()
    restore = install(tracer)
    try:
        dense = driver.dense_cc(problem.initial_design(), problem, 72)
    finally:
        restore()
    spans = tracer.take()
    assert not workloads._missing_layers(spans, workloads.VERIFY_LAYERS)
    (assemble,) = [s for s in spans if s.name == "assemble"]
    assert assemble.counts["nnz"] > 0
    solves = [s.counts["rhs"] for s in spans if s.name == "solve"]
    assert solves == [problem._rim_dofs.size]
    assert all(math.isfinite(g) for g in dense) and 0.0 <= dense[2] <= 1.0


@pytest.mark.parametrize("kind", ["plate", "wheel"])
def test_traced_loop_iterations(perfbench, kind):
    import workloads
    from tracer import Tracer, install

    from smma import benchmarks, driver

    problem = getattr(benchmarks, f"{kind}_problem")()
    cfg = driver.RunConfig(method="smma", batch_size=workloads.BATCH,
                           iterations=2, seed=3, verify_every=0)
    tracer = Tracer()
    per_iteration = []

    def take(k, rho, store, row):
        per_iteration.append(tracer.take())

    restore = install(tracer)
    try:
        driver.run_smma(problem, cfg, callback=take)
    finally:
        restore()
    assert len(per_iteration) == 2
    for spans in per_iteration:
        assert not workloads._missing_layers(spans, workloads.LOOP_LAYERS)
        records = [s.counts["records"] for s in spans if s.name == "evaluate"]
        assert records == [workloads.BATCH]
