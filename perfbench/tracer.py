"""Layer spans recorded from outside the program.

Each layer is timed by replacing a public function at the place where the
program looks it up (a module attribute or a class attribute) with a
wrapper that records a span. Nothing in `smma` changes: `install` swaps the
wrappers in and the returned `restore` swaps the originals back, so an
untraced repetition runs the unmodified code.

A span is one call: its name, start and end on `time.perf_counter`, the
index of the span that was open when it started, the time covered by its
own child spans, and the work counts read from its arguments and result.
A span's self time is its duration minus its children's time. Spans are
kept in memory; `Tracer.take` hands them over and starts a new list.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from smma import benchmarks, csg_weights, design_field, driver, mesh_fem
from smma import mma_core


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start an empty list."""
        if self._open:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, count=None):
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = open_[-1] if open_ else -1
            span = Span(name, parent)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced


# -- work counts read at the layer boundary ---------------------------------

def _columns(block) -> int:
    return 1 if block.ndim == 1 else block.shape[1]


def _assemble_counts(system, mesh, stiffness):
    # SuperLU's stored nonzeros of L and U together
    return {"nnz": int(system.lu.nnz)}


def _solve_counts(u, system, rhs):
    return {"rhs": _columns(u)}


def _qforms_counts(q, mesh, U1, U2=None):
    return {"cols": _columns(U1)}


def _evaluate_counts(result, problem, rho, params, want_grads=True):
    return {"records": len(result[0])}


def _weights_counts(alpha, store, u_current, quad_points, quad_weights):
    k = len(alpha)
    return {"pairs": len(quad_points) * k, "store": k,
            "owned": float((alpha > 0.0).sum()) / k,
            "ess": 1.0 / float(alpha @ alpha)}


def _evict_counts(store, _store, weights, n_evict):
    return {"evicted": int(n_evict)}


def _subproblem_counts(result, sp):
    return {"elastic": int(result.multiplier >= mma_core.ELASTIC_PENALTY),
            "kkt": float(result.kkt_residual)}


# (owner, attribute, span name, counter) for every wrapped call. Owners are
# where the program looks the function up: `benchmarks` imports the FEM
# functions by name, the driver reaches `csg_weights`, `mma_core` and
# `dense_cc` through its own module attributes, and the problems call
# `design_field` through the module.
TARGETS = [
    (benchmarks, "assemble_stiffness", "assemble", _assemble_counts),
    (mesh_fem.FactorizedSystem, "solve", "solve", _solve_counts),
    (benchmarks, "element_quadratic_forms", "qforms", _qforms_counts),
    (design_field, "interpolate_stiffness", "interp", None),
    (design_field, "backprop_to_design", "backprop", None),
    (benchmarks, "_backprop_batch", "backprop", None),
    (benchmarks.WheelProblem, "evaluate_records", "evaluate",
     _evaluate_counts),
    (benchmarks.PlateProblem, "evaluate_records", "evaluate",
     _evaluate_counts),
    (csg_weights, "pseudoexact_weights", "weights", _weights_counts),
    (csg_weights, "aggregate", "aggregate", None),
    (csg_weights, "aggregate_precomposed", "aggregate", None),
    (csg_weights.SampleStore, "append", "append", None),
    (csg_weights, "evict_min_weight", "evict", _evict_counts),
    (mma_core, "update_asymptotes", "subproblem", None),
    (mma_core, "apply_move_limits", "subproblem", None),
    (mma_core, "build_approx", "subproblem", None),
    (mma_core, "build_subproblem", "subproblem", None),
    (mma_core, "solve_subproblem", "subproblem", _subproblem_counts),
    (driver, "dense_cc", "dense_cc", None),
]


def install(tracer: Tracer):
    """Swap the wrappers in; returns a function that swaps them back.

    Raises KeyError, before swapping anything, when a target is gone.
    """
    originals = [owner.__dict__[attr] for owner, attr, _, _ in TARGETS]
    for (owner, attr, name, count), original in zip(TARGETS, originals):
        setattr(owner, attr, tracer.wrap(name, original, count))

    def restore():
        for (owner, attr, _, _), original in zip(TARGETS, originals):
            setattr(owner, attr, original)
    return restore
