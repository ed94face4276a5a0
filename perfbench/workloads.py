"""The four workloads: what one repetition runs, times and checks.

A repetition builds a fresh problem (timed as set-up), runs the workload's
fixed budget, and verifies the result with `dense_cc`:

- sMMA workloads run `run_smma` for a fixed number of iterations with
  verification off, then verify the final design until VERIFY_MIN_S of
  calls have been timed.
- `plate-verify` verifies one plate design drawn from the seed; the
  verification call is the whole run.

Every repetition of a run uses the same seed, so all of them must produce
bit-identical results, traced or not. See README.md for why each workload
exists and which layer it stresses.
"""
from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from smma import benchmarks, driver

from tracer import Tracer, install

BATCH = 8
PLATE_VERIFY_GRID = (5, 5)
VERIFY_DESIGN_RANGE = (0.45, 0.8)   # plate-verify densities: near the cap
REFERENCE_ROWS = 20                 # iterations compared with the reference
VERIFY_MIN_S = 1.5                  # sMMA: verify until this much is timed
RTOL, ATOL = 1e-6, 1e-9             # reference tolerance
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str                  # "wheel" or "plate"
    method: str | None = None     # None: dense verification only
    iterations: int = 0
    memory_cap: int | None = None
    # the final design moves by percents under last-bit changes, so only
    # the first REFERENCE_ROWS iterations are compared with the reference
    chaotic: bool = False

    @property
    def verify_spec(self):
        return None if self.problem == "wheel" else PLATE_VERIFY_GRID

    def build(self):
        if self.problem == "wheel":
            return benchmarks.wheel_problem()
        return benchmarks.plate_problem()


WORKLOADS = {w.name: w for w in (
    Workload("wheel-smma", "wheel", "smma", iterations=100, chaotic=True),
    Workload("wheel-limited", "wheel", "smma-limited", iterations=100,
             memory_cap=128, chaotic=True),
    Workload("plate-smma", "plate", "smma", iterations=8),
    Workload("plate-verify", "plate"),
)}

# layers every operation must reach; a layer with no span means a wrapper
# no longer sits where the program looks the function up
LOOP_LAYERS = ("evaluate", "assemble", "solve", "qforms", "interp",
               "backprop", "weights", "aggregate", "append", "subproblem")
VERIFY_LAYERS = ("dense_cc", "assemble", "solve", "interp")


class Timed(NamedTuple):
    """A measured wall time and the perf_counter interval it came from."""
    seconds: float
    start: float
    end: float


UNTIMED = Timed(math.nan, math.nan, math.nan)


@dataclass
class Repetition:
    traced: bool
    setup: Timed = UNTIMED
    run: Timed = UNTIMED
    verifies: list = field(default_factory=list)   # one per dense_cc call
    ops: list = field(default_factory=list)   # one per iteration or call
    rows: list = field(default_factory=list)    # (rvol, g_internal)
    store_sizes: list = field(default_factory=list)
    rho: np.ndarray | None = None
    final_rvol: float = math.nan
    dense: tuple | None = None
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    loop_spans: list = field(default_factory=list)
    verify_spans: list = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        """Mark operation op (an iteration number or "verify") failed."""
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {message}")


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _expected_store(wl: Workload, k: int) -> int:
    size = BATCH * k
    return size if wl.memory_cap is None else min(size, wl.memory_cap)


def _missing_layers(spans, required) -> list:
    seen = {s.name for s in spans}
    return [name for name in required if name not in seen]


def design_for_seed(problem, seed: int) -> np.ndarray:
    """plate-verify's design: independent uniform densities per element."""
    rng = np.random.default_rng(seed)
    return rng.uniform(*VERIFY_DESIGN_RANGE, problem.n_design)


def timed_build(wl: Workload):
    start = time.perf_counter()
    problem = wl.build()
    end = time.perf_counter()
    return problem, Timed(end - start, start, end)


def run_repetition(wl: Workload, seed: int, tracer: Tracer | None,
                   probe=None):
    """One repetition; exceptions become failed operations, not aborts.

    With a speed probe, the probe runs between operations; its time is
    left out of every timed interval.
    """
    rep = Repetition(traced=tracer is not None)
    problem, rep.setup = timed_build(wl)
    restore = install(tracer) if tracer is not None else None
    try:
        if wl.method is None:
            rho = design_for_seed(problem, seed)
        else:
            rho = _run_loop(wl, seed, problem, rep, tracer, probe)
        if rho is not None:
            _verify(wl, problem, rho, rep, tracer, probe)
    finally:
        if restore is not None:
            restore()
    if wl.method is None and rep.verifies:
        rep.run = rep.verifies[0]
        rep.ops = rep.verifies
    return rep


def _run_loop(wl, seed, problem, rep, tracer, probe):
    cfg = driver.RunConfig(method=wl.method, batch_size=BATCH,
                           iterations=wl.iterations, seed=seed,
                           memory_cap=wl.memory_cap, verify_every=0)
    required = LOOP_LAYERS + (("evict",) if wl.memory_cap else ())
    mark = 0   # first span of the current iteration
    probe_s = 0.0

    def check(k, rho, store, row):
        nonlocal mark, probe_s
        end = time.perf_counter()
        rep.ops.append(Timed(row.wall_ms / 1e3, end - row.wall_ms / 1e3, end))
        if probe is not None and probe.due():
            probe_s += probe.sample()
        rep.attempted += 1
        rep.rows.append((row.rvol, row.g_internal))
        rep.store_sizes.append(row.store_size)
        problems = []
        if not (_finite(row.rvol, row.pvol, row.g_internal, row.tau,
                        row.wall_ms) and np.isfinite(rho).all()):
            problems.append("non-finite logged value or design")
        if row.store_size != _expected_store(wl, k):
            problems.append(f"store size {row.store_size}")
        if tracer is not None:
            need = [n for n in required
                    if n != "evict" or BATCH * k > wl.memory_cap]
            missing = _missing_layers(tracer.spans[mark:], need)
            mark = len(tracer.spans)
            if missing:
                problems.append(f"no span for {', '.join(missing)}")
        if problems:
            rep.fail(k, "; ".join(problems))

    start = time.perf_counter()
    try:
        rho, _ = driver.run_smma(problem, cfg, callback=check)
    except Exception:
        rep.attempted += 1
        rep.fail(rep.attempted, traceback.format_exc())
        return None
    finally:
        end = time.perf_counter()
        rep.run = Timed(end - start - probe_s, start, end)
        if tracer is not None:
            rep.loop_spans = tracer.take()
    return rho


def _verify(wl, problem, rho, rep, tracer, probe):
    """Verify rho with dense_cc. After an sMMA loop the call is repeated
    until VERIFY_MIN_S have been timed, to give verify_s more samples;
    every call must return the same values."""
    first = None
    while first is None or (wl.method is not None and sum(
            t.seconds for t in rep.verifies) < VERIFY_MIN_S):
        if probe is not None:
            probe.sample()
        op = f"verify {len(rep.verifies) + 1}"
        rep.attempted += 1
        start = time.perf_counter()
        try:
            dense = driver.dense_cc(rho, problem, wl.verify_spec)
        except Exception:
            rep.fail(op, traceback.format_exc())
            return
        end = time.perf_counter()
        rep.verifies.append(Timed(end - start, start, end))
        dense = tuple(float(v) for v in dense)
        if first is None:
            first = dense
        elif dense != first:
            rep.fail(op, "differs from the first call")
    rep.rho = rho
    rep.final_rvol = problem.rvol(rho)
    rep.dense = first
    problems = []
    if not _finite(rep.final_rvol, *rep.dense):
        problems.append("non-finite final value")
    elif not 0.0 <= rep.dense[2] <= 1.0 + 1e-12:
        problems.append(f"nonsmooth probability {rep.dense[2]} outside [0, 1]")
    if tracer is not None:
        rep.verify_spans = tracer.take()
        missing = _missing_layers(rep.verify_spans, VERIFY_LAYERS)
        if missing:
            problems.append(f"no span for {', '.join(missing)}")
    if problems:
        rep.fail("verify 1", "; ".join(problems))


# -- checks across repetitions and against stored values --------------------

def reference_entry(wl: Workload, rep: Repetition) -> dict:
    """The values of one repetition that the reference file stores."""
    entry = {"rows": [list(r) for r in rep.rows[:REFERENCE_ROWS]]}
    if not wl.chaotic:
        entry["final_rvol"] = rep.final_rvol
        entry["dense"] = list(rep.dense)
    return entry


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=ATOL))


def cross_check(wl: Workload, seed: int, reps: list, reference: dict) -> None:
    """Every repetition against the first and against the stored values.

    A mismatch fails the repetition's first verification call.
    """
    first = next((r for r in reps if r.dense is not None), None)
    stored = reference.get(wl.name, {}).get(str(seed))
    for rep in reps:
        if rep.dense is None:
            continue
        problems = []
        if (rep.rows != first.rows or rep.dense != first.dense
                or not np.array_equal(rep.rho, first.rho)):
            problems.append("differs from the first repetition "
                            f"(traced={rep.traced} vs {first.traced})")
        if stored is not None:
            got = reference_entry(wl, rep)
            for key, want in stored.items():
                if not _close(got[key], want):
                    problems.append(f"{key} differs from the reference")
        if problems:
            rep.fail("verify 1", "; ".join(problems))
