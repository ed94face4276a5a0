"""End-to-end and per-layer metrics from a run's repetitions.

Per-layer times are self times (span time minus child span time) per
operation: per iteration on the sMMA workloads, per `dense_cc` call on
plate-verify. The verify layer is always per `dense_cc` call. Counts are
per operation too, except `factor_nnz` (per factorization), `store_size`
(after the last iteration), `owned_frac` and `ess` (means over weight
computations) and `kkt_residual_max` (largest over the loop).
"""
from __future__ import annotations

import math
import resource
import statistics
from collections import Counter, defaultdict

import numpy as np

TIMED_SPANS = ("assemble", "solve", "qforms", "interp", "backprop",
               "evaluate", "weights", "aggregate", "append", "evict",
               "subproblem")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def completed(reps) -> list:
    return [r for r in reps if r.dense is not None]


def end_to_end(reps, setup_samples, speed) -> dict:
    """End-to-end times of the untraced run.

    speed(timed) gives the factor that takes a wall time measured over
    that interval to reference speed.
    """
    done = completed(reps)

    def scaled(items):
        return [t.seconds * speed(t) for t in items]

    op_ms = [1e3 * s for s in scaled(op for r in done for op in r.ops)]
    return {
        "setup_s": _median(scaled(setup_samples)),
        "run_s": _median(scaled(r.run for r in done)),
        "iter_ms_p50": float(np.percentile(op_ms, 50)) if op_ms else math.nan,
        "iter_ms_p90": float(np.percentile(op_ms, 90)) if op_ms else math.nan,
        "verify_s": _median(scaled(t for r in done for t in r.verifies)),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rep, loop: bool) -> dict:
    """Per-layer metrics of one traced repetition."""
    if loop:
        ops, n_ops = rep.loop_spans, max(len(rep.rows), 1)
    else:
        ops, n_ops = rep.verify_spans, 1
    self_s = defaultdict(float)
    calls = Counter()
    counts = defaultdict(list)
    covered = 0.0
    for span in ops:
        self_s[span.name] += span.self_time
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[key].append(value)
        if span.parent < 0:
            covered += span.duration

    m = {f"{name}_ms": 1e3 * self_s[name] / n_ops for name in TIMED_SPANS}
    m.update(
        assemble_calls=calls["assemble"] / n_ops,
        factor_nnz=_mean(counts["nnz"]),
        solve_rhs=sum(counts["rhs"]) / n_ops,
        qforms_cols=sum(counts["cols"]) / n_ops,
        records=sum(counts["records"]) / n_ops,
        weight_pairs=sum(counts["pairs"]) / n_ops,
        store_size=rep.store_sizes[-1] if rep.store_sizes else 0,
        owned_frac=_mean(counts["owned"]),
        ess=_mean(counts["ess"]),
        evicted=sum(counts["evicted"]) / n_ops,
        elastic_engaged=sum(counts["elastic"]) / n_ops,
        kkt_residual_max=max(counts["kkt"], default=0.0),
        self_ms=1e3 * (rep.run.seconds - covered) / n_ops,
        span_coverage=covered / rep.run.seconds,
    )

    verify = rep.verify_spans
    n_calls = max(sum(s.name == "dense_cc" for s in verify), 1)
    m["dense_cc_ms"] = 1e3 * sum(s.self_time for s in verify
                                 if s.name == "dense_cc") / n_calls
    m["dense_factorizations"] = sum(s.name == "assemble"
                                    for s in verify) / n_calls
    return m


def per_layer(reps, loop: bool) -> dict:
    """Median over traced repetitions, plus the tracing overhead."""
    done = completed(reps)
    traced = [layer_metrics(r, loop) for r in done if r.traced]
    m = {key: _median(d[key] for d in traced) for key in traced[0]} \
        if traced else {}
    m["trace_overhead_s"] = (
        _median(r.run.seconds for r in done if r.traced)
        - _median(r.run.seconds for r in done if not r.traced))
    return m
