"""The optimization loop: sMMA, limited-memory sMMA and the quadrature
baseline.

run_smma feeds an MMA step with a weighted sum of sampled chance-constraint
integrands; the methods differ only in the weights. sMMA draws a fresh
parameter batch per iteration, stores the records, and weights everything
stored by nearest-neighbor integration weights; limited-memory sMMA
evicts the lowest-weight records above its memory cap at the end of each
iteration. The mma-quadrature baseline evaluates a fixed rule (nodes,
lambda) at every iterate and weights by lambda, with no store and no
random draws.

Problems are duck-typed; they provide (see benchmarks for the two built-in
ones): initial_design, free_mask, smoothing, simp, with_simp,
evaluate_records, space, default_baseline_spec, default_verify_spec,
dense_raw, rvol, pvol, rvol_gradient, default_simp_schedule,
default_pseudo_points. space, a csg_weights.ParamSpace, gives the draws,
the distance and both rules.

Record contract: evaluate_records(rho, params) returns, per parameter, the
integrand already composed with the smoothed indicator h and its design
gradient, so the constraint estimate is the weighted sum of both.
dense_raw returns raw compliances; verification applies h itself.

A SIMP schedule holds only switches, (iteration, exponent) pairs: a run
starts at the problem's own exponent simp.s, and default_simp_schedule
holds the switches after it. A switch clears the store, whose gradients
belong to the old exponent.

RNG draw order is fixed: per iteration, one (B, m) space.sample draw, in
C order: batch member by batch member, coordinates in the space's order.

dense_cc is the dense-quadrature ground truth for any design, on the
trapezoid rule of the problem's ParamSpace: periodic, so equispaced, on
the wheel's circle, and a tensor grid on the plate's weakness box crossed
with its fixed omega rule (default_verify_spec when no rule is given).
Each problem's dense_raw factorizes the stiffness condensed onto the dofs
the rule reads, once per call (once per group of grid points on a plate
grid past 2048 kept dofs), and works in those dofs only (see mesh_fem for
the condensed system): the wheel contracts every load with the rim block
of K^-1, and the plate serves the grid by the stacked low-rank updates of
its records. What depends only on the rule and the load scale is built on
the first call with that rule and kept, so a repeated call does only the
work that depends on the design.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import csg_weights as cw
from . import mma_core as mma
from .design_field import SimpParams
from .smoothing import aggregate_cc

METHODS = ("smma", "smma-limited", "mma-quadrature")


@dataclass
class RunConfig:
    method: str = "smma"
    batch_size: int = 8
    iterations: int = 100
    seed: int = 0
    tau: float = 1.0
    tau_schedule: tuple[int, float] | None = None
    memory_cap: int | None = None          # smma-limited only, required
    pseudo_points: int | None = None       # None: problem default
    empirical_weights: bool = False        # skip the fixed discretization
    simp_schedule: tuple[tuple[int, float], ...] | None = None  # switches
    baseline_spec: object = None           # nodes of the quadrature baseline
    verify_every: int = 10                 # 0: never verify
    verify_spec: object = None             # dense rule; None: problem default

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch size and iterations must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if (self.memory_cap is None) == (self.method == "smma-limited"):
            raise ValueError("memory_cap is required by smma-limited and "
                             "applies to no other method")
        if self.memory_cap is not None and self.memory_cap < self.batch_size:
            raise ValueError("memory cap must be at least the batch size")
        if self.pseudo_points is not None and self.pseudo_points < 1:
            raise ValueError("pseudo_points must be positive")
        sampled = self.method != "mma-quadrature"
        if self.baseline_spec is not None and sampled:
            raise ValueError("a baseline rule applies only to mma-quadrature")
        if not sampled and (self.pseudo_points or self.empirical_weights):
            raise ValueError("pseudo_points and empirical_weights apply "
                             "only to the sMMA methods")
        if self.pseudo_points and self.empirical_weights:
            raise ValueError("pseudo_points has no use with empirical_weights")
        if self.verify_every < 0:
            raise ValueError("verify_every must be nonnegative (0: never)")
        if not self.tau > 0.0:
            raise ValueError("move limit tau must be positive")
        # a growing tau moves nothing further: the box is clipped to [0, 1]
        if self.tau_schedule is not None and not (
                self.tau_schedule[0] >= 1
                and 0.0 < self.tau_schedule[1] <= 1.0):
            raise ValueError("tau schedule needs a period of at least 1 "
                             "and a factor in (0, 1]")
        # below eps, z +- tau can round to z and leave the subproblem box
        # empty; tau is smallest at the last iteration
        smallest = mma.tau_for_iteration(self.tau, self.tau_schedule,
                                         self.iterations)
        if smallest < np.finfo(float).eps:
            raise ValueError(f"move limit tau falls to {smallest:g}, below "
                             f"machine epsilon, where it cannot move the "
                             f"design")
        for start, value in self.simp_schedule or ():
            if start < 1:
                raise ValueError("a SIMP switch iteration must be at least 1")
            SimpParams(s=value)   # raises below its bound on s


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


def simp_at(problem, cfg: RunConfig, k: int) -> float:
    """The exponent at iteration k: the problem's own until a switch of
    cfg.simp_schedule, or of the problem's default schedule when None."""
    s = problem.simp.s
    schedule = (problem.default_simp_schedule if cfg.simp_schedule is None
                else cfg.simp_schedule)
    for start, value in sorted(schedule, key=lambda e: e[0]):
        if k >= start:
            s = value
    return s


def _mma_step(problem, cfg: RunConfig, state, rho, free, g_val, g_grad):
    """One asymptote update + subproblem solve; returns the next design."""
    z = rho[free]
    state = mma.update_asymptotes(state, z)
    state = mma.apply_move_limits(state, cfg.tau_schedule, cfg.tau)
    obj = mma.build_approx(z, problem.rvol(rho), problem.rvol_gradient()[free],
                           state.lower, state.upper)
    con = mma.build_approx(z, g_val, g_grad[free], state.lower, state.upper)
    sp = mma.build_subproblem(z, state, obj, con, problem.smoothing.p_level)
    result = mma.solve_subproblem(sp)
    rho_next = rho.copy()
    rho_next[free] = result.design
    return state, rho_next


def dense_cc(design, problem, spec=None) -> tuple[float, float, float]:
    """(G_smooth, G_steepened, G_nonsmooth) at dense quadrature.

    spec: one point count per parameter coordinate (wheel: n, plate:
    (n1, n2)); the problem's default_verify_spec when omitted.
    Deterministic.
    """
    if spec is None:
        spec = problem.default_verify_spec
    values, weights = problem.dense_raw(design, spec)
    return aggregate_cc(values, weights, problem.smoothing)


def run_smma(problem, cfg: RunConfig, callback=None):
    """Run cfg.iterations MMA steps of cfg.method from the initial design.

    Returns (final design, IterationLog). callback(iteration, design,
    store, row) runs after each iteration when given; the store is None
    for the quadrature baseline.
    """
    rho = problem.initial_design().astype(float)
    free = problem.free_mask
    state = mma.MmaState.initial(int(free.sum()), tau=cfg.tau)
    phase = problem.with_simp(simp_at(problem, cfg, 1))

    store = quad = cap = None
    if cfg.method == "mma-quadrature":
        nodes, lam = phase.space.trapezoid_rule(
            problem.default_baseline_spec(cfg.batch_size)
            if cfg.baseline_spec is None else cfg.baseline_spec)
    else:
        rng = np.random.default_rng(cfg.seed)
        cap = cfg.memory_cap
        store = cw.SampleStore(problem.space)
        if not cfg.empirical_weights:
            quad = problem.space.pseudo_rule(
                problem.default_pseudo_points if cfg.pseudo_points is None
                else cfg.pseudo_points)

    log = IterationLog()
    for k in range(1, cfg.iterations + 1):
        start = time.perf_counter()
        s_now = simp_at(problem, cfg, k)
        if s_now != phase.simp.s:
            phase = problem.with_simp(s_now)
            if store is not None:
                store.clear()   # gradients under the old exponent are stale

        params = nodes if store is None else phase.space.sample(
            rng, cfg.batch_size)
        values, grads = phase.evaluate_records(rho, params)
        # a NaN constraint fails every comparison in the subproblem, which
        # would still return a design, and the log would read NaN
        if not (np.isfinite(values).all() and np.isfinite(grads).all()):
            raise FloatingPointError(f"iteration {k}: a record's value or "
                                     f"gradient is not finite")
        if store is None:
            g_hat, dg_hat = float(lam @ values), lam @ grads
        else:
            store.append(rho, params, values, grads, k)
            if quad is None:
                alpha = cw.empirical_weights(store, rho)
            else:
                alpha = cw.pseudoexact_weights(store, rho, quad[0], quad[1])
            g_hat, dg_hat = cw.aggregate(store, alpha)

        row_stats = (phase.rvol(rho), phase.pvol(rho))
        dense = (dense_cc(rho, phase, cfg.verify_spec)
                 if cfg.verify_every and k % cfg.verify_every == 0
                 else (None, None, None))
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
