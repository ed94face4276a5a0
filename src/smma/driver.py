"""The optimization loop: sMMA, limited-memory sMMA and the quadrature
baseline.

run_smma feeds an MMA step with a weighted sum of sampled chance-constraint
integrands; the methods differ only in the weights. sMMA draws a fresh
parameter batch per iteration, stores the records, and weights everything
stored by nearest-neighbor integration weights; with a memory cap it
evicts the lowest-weight records at the end of each iteration. The
mma-quadrature baseline evaluates a fixed rule (nodes, lambda) at every
iterate and weights by lambda, with no store and no random draws.

Problems are duck-typed; they provide (see benchmarks for the two built-in
ones): initial_design, free_mask, smoothing, simp, with_simp,
evaluate_records, sample_param, metric, pseudo_quadrature, baseline_nodes,
default_baseline_spec, dense_raw, rvol, pvol, rvol_gradient,
default_simp_schedule, default_verify_spec, default_pseudo_points.

Record contract: evaluate_records(rho, params) returns, per parameter, the
integrand already composed with the smoothed indicator h and its design
gradient, so the constraint estimate is the weighted sum of both.
dense_raw returns raw compliances; verification applies h itself.

RNG draw order is fixed: per iteration, batch member by batch member, one
parameter vector each (coordinates in the problem's declared order).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import csg_weights as cw
from . import mma_core as mma
from .verify import dense_cc

METHODS = ("smma", "smma-limited", "mma-quadrature")


@dataclass
class RunConfig:
    method: str = "smma"
    batch_size: int = 8
    iterations: int = 100
    seed: int = 0
    tau: float = 1.0
    tau_schedule: tuple[int, float] | None = None
    memory_cap: int | None = None
    pseudo_points: int | None = None       # None: problem default
    empirical_weights: bool = False        # skip the fixed discretization
    simp_schedule: tuple[tuple[int, float], ...] | None = None
    baseline_spec: object = None           # nodes of the quadrature baseline
    verify_every: int = 10                 # 0: never verify
    verify_spec: object = None             # dense rule; None: problem default

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch size and iterations must be positive")
        if self.memory_cap is not None and self.memory_cap < self.batch_size:
            raise ValueError("memory cap must be at least the batch size")
        if self.pseudo_points is not None and self.pseudo_points < 1:
            raise ValueError("pseudo_points must be positive")
        if self.verify_every < 0:
            raise ValueError("verify_every must be nonnegative (0: never)")
        if not self.tau > 0.0:
            raise ValueError("move limit tau must be positive")
        if self.tau_schedule is not None and not (
                self.tau_schedule[0] >= 1 and self.tau_schedule[1] > 0.0):
            raise ValueError("tau schedule needs a period of at least 1 "
                             "and a positive factor")


@dataclass
class IterationRow:
    iteration: int
    rvol: float
    pvol: float
    g_internal: float
    g_dense_smooth: float | None
    g_dense_steepened: float | None
    g_dense_nonsmooth: float | None
    tau: float
    store_size: int
    wall_ms: float


CSV_HEADER = ("iter,rvol,pvol,g_internal,g_dense_smooth,g_dense_steepened,"
              "g_dense_nonsmooth,tau,store_size,wall_ms")


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


@dataclass
class IterationLog:
    rows: list[IterationRow] = field(default_factory=list)

    def to_csv(self, path, include_timing: bool = True) -> None:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.iteration), _fmt(r.rvol), _fmt(r.pvol),
                _fmt(r.g_internal), _fmt(r.g_dense_smooth),
                _fmt(r.g_dense_steepened), _fmt(r.g_dense_nonsmooth),
                _fmt(r.tau), str(r.store_size),
                _fmt(r.wall_ms) if include_timing else ""]))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _simp_schedule(problem, cfg: RunConfig):
    schedule = cfg.simp_schedule
    if schedule is None:
        schedule = getattr(problem, "default_simp_schedule", ((1, problem.simp.s),))
    return tuple(sorted(schedule, key=lambda e: e[0]))


def _simp_at(schedule, k: int) -> float:
    s = schedule[0][1]
    for start, value in schedule:
        if k >= start:
            s = value
    return s


def _mma_step(problem, cfg: RunConfig, state, rho, free, g_val, g_grad):
    """One asymptote update + subproblem solve; returns the next design."""
    z = rho[free]
    state = mma.update_asymptotes(state, z)
    state = mma.apply_move_limits(
        state, cfg.tau_schedule, tau0=cfg.tau)
    obj = mma.build_approx(z, problem.rvol(rho), problem.rvol_gradient()[free],
                           state.lower, state.upper)
    con = mma.build_approx(z, g_val, g_grad[free], state.lower, state.upper)
    sp = mma.build_subproblem(z, state, obj, [con],
                              [problem.smoothing.p_level])
    result = mma.solve_subproblem(sp)
    rho_next = rho.copy()
    rho_next[free] = result.design
    return state, rho_next


def _verify_maybe(problem, cfg: RunConfig, rho, k: int):
    if cfg.verify_every and k % cfg.verify_every == 0:
        return dense_cc(rho, problem, cfg.verify_spec)
    return (None, None, None)


def run_smma(problem, cfg: RunConfig, callback=None):
    """Run cfg.iterations MMA steps of cfg.method from the initial design.

    Returns (final design, IterationLog). callback(iteration, design,
    store, row) runs after each iteration when given; the store is None
    for the quadrature baseline.
    """
    rho = problem.initial_design().astype(float)
    free = problem.free_mask
    state = mma.MmaState.initial(int(free.sum()), tau=cfg.tau)
    schedule = _simp_schedule(problem, cfg)
    phase = problem.with_simp(_simp_at(schedule, 1))

    store = quad = cap = None
    if cfg.method == "mma-quadrature":
        spec = cfg.baseline_spec
        if spec is None:
            spec = problem.default_baseline_spec(cfg.batch_size)
        nodes, lam = phase.baseline_nodes(spec)
    else:
        rng = np.random.default_rng(cfg.seed)
        cap = cfg.memory_cap if cfg.method == "smma-limited" else None
        store = cw.SampleStore(metric=problem.metric(), capacity=cap)
        if not cfg.empirical_weights:
            quad = problem.pseudo_quadrature(
                problem.default_pseudo_points if cfg.pseudo_points is None
                else cfg.pseudo_points)

    log = IterationLog()
    for k in range(1, cfg.iterations + 1):
        start = time.perf_counter()
        s_now = _simp_at(schedule, k)
        if s_now != phase.simp.s:
            phase = problem.with_simp(s_now)
            if store is not None:
                store.clear()   # gradients under the old exponent are stale

        if store is None:
            values, grads = phase.evaluate_records(rho, nodes)
            g_hat, dg_hat = float(lam @ values), lam @ grads
        else:
            params = [phase.sample_param(rng) for _ in range(cfg.batch_size)]
            values, grads = phase.evaluate_records(rho, np.stack(params))
            for b in range(cfg.batch_size):
                # one design array for the batch: the store keeps it once
                store.append(cw.SampleRecord(
                    design_snapshot=rho, param=params[b],
                    inner_value=float(values[b]), inner_gradient=grads[b],
                    iteration_born=k))
            if quad is None:
                alpha = cw.empirical_weights(store, rho)
            else:
                alpha = cw.pseudoexact_weights(store, rho, quad[0], quad[1])
            g_hat, dg_hat = cw.aggregate(store, alpha)

        row_stats = (phase.rvol(rho), phase.pvol(rho))
        dense = _verify_maybe(phase, cfg, rho, k)
        state, rho_new = _mma_step(phase, cfg, state, rho, free, g_hat,
                                   dg_hat)

        if cap is not None and len(store) > cap:
            cw.evict_min_weight(store, alpha, len(store) - cap)

        row = IterationRow(
            iteration=k, rvol=row_stats[0], pvol=row_stats[1],
            g_internal=g_hat, g_dense_smooth=dense[0],
            g_dense_steepened=dense[1], g_dense_nonsmooth=dense[2],
            tau=state.tau, store_size=0 if store is None else len(store),
            wall_ms=1e3 * (time.perf_counter() - start))
        log.rows.append(row)
        rho = rho_new
        if callback is not None:
            callback(k, rho, store, row)
    return rho, log
