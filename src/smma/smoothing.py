"""Smoothed indicator family and chance-constraint aggregation.

The hard constraint "compliance stays below c_max with probability p" is
regularized by replacing the indicator of (0, inf) with a steepened smooth
approximation

    h(t) = (tanh(a1*t) + 1) / 2 + a2 * (t - t / (1 + exp(a3*t))),

whose second term is a smooth max(0, t) that keeps the constraint gradient
alive deep in the infeasible region.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |a3*t| beyond this, t/(1+exp(a3*t)) is replaced by its limit (0 or t).
_EXP_CUTOFF = 40.0
# |a*t| beyond this, tanh, the sigmoid and exp(-|a*t|) have reached their
# float64 limits, so a*t is clipped here rather than allowed to overflow
_SATURATION = 800.0


@dataclass(frozen=True)
class SmoothingParams:
    """Constants of the smoothed chance constraint.

    a1 and a3 carry units of 1/compliance, a2 is dimensionless.
    """

    a1: float
    a2: float
    a3: float
    c_max: float
    p_level: float

    def __post_init__(self):
        # every comparison fails on NaN, so a NaN constant is rejected
        if not (0.0 < self.a1 < np.inf and 0.0 < self.a3 < np.inf):
            raise ValueError("a1 and a3 must be positive and finite")
        if not 0.0 <= self.a2 < np.inf:
            raise ValueError("a2 must be nonnegative and finite")
        if not 0.0 < self.c_max < np.inf:
            raise ValueError("c_max must be positive and finite")
        if not 0.0 < self.p_level < 1.0:
            raise ValueError("p_level must lie in (0, 1)")


def _scaled(a, t):
    """a*t clipped to +-_SATURATION, finite for every finite t."""
    bound = _SATURATION / a
    # minimum/maximum: a third of np.clip's call overhead on short arrays
    return a * np.minimum(np.maximum(t, -bound), bound)


def _smoothmax_fraction(t, a3):
    """t / (1 + exp(a3*t)) with overflow-safe saturation branches."""
    t = np.asarray(t, dtype=float)
    x = _scaled(a3, t)
    safe = np.clip(x, -_EXP_CUTOFF, _EXP_CUTOFF)
    core = t / (1.0 + np.exp(safe))
    return np.where(x > _EXP_CUTOFF, 0.0, np.where(x < -_EXP_CUTOFF, t, core))


def _sech2(x):
    """sech(x)^2 without overflow for large |x|."""
    e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)))
    return 4.0 * e / (1.0 + e) ** 2


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    pos = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, None)))
    ex = np.exp(np.clip(x, None, 0.0))
    neg = ex / (1.0 + ex)
    return np.where(x >= 0.0, pos, neg)


def h_eval(t, params: SmoothingParams):
    """Steepened smooth indicator h(t); finite for all finite t."""
    t = np.asarray(t, dtype=float)
    base = 0.5 * (np.tanh(_scaled(params.a1, t)) + 1.0)
    steep = params.a2 * (t - _smoothmax_fraction(t, params.a3))
    out = base + steep
    return float(out) if out.ndim == 0 else out


def h_tanh(t, params: SmoothingParams):
    """Plain tanh approximation (the a2 = 0 member of the family)."""
    t = np.asarray(t, dtype=float)
    out = 0.5 * (np.tanh(_scaled(params.a1, t)) + 1.0)
    return float(out) if out.ndim == 0 else out


def h_deriv(t, params: SmoothingParams):
    """Derivative of h_eval, from the closed form."""
    t = np.asarray(t, dtype=float)
    x = _scaled(params.a3, t)
    sig = _sigmoid(x)
    smax_slope = sig + x * sig * (1.0 - sig)
    out = (0.5 * params.a1 * _sech2(_scaled(params.a1, t))
           + params.a2 * smax_slope)
    return float(out) if out.ndim == 0 else out


def indicator_eval(t):
    """Indicator of the open interval (0, inf)."""
    t = np.asarray(t, dtype=float)
    out = (t > 0.0).astype(float)
    return float(out) if out.ndim == 0 else out


def aggregate_cc(compliances, quad_weights,
                 params: SmoothingParams) -> tuple[float, float, float]:
    """(smooth, steepened, nonsmooth): the weighted chance-constraint
    value sum_i w_i * f(c_i - c_max) for f the tanh approximation h_tanh,
    the steepened h_eval and the raw indicator of (0, inf).
    """
    c = np.asarray(compliances, dtype=float)
    w = np.asarray(quad_weights, dtype=float)
    if c.shape != w.shape:
        raise ValueError("compliances and quad_weights must have equal length")
    # written so that NaN fails it
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("quadrature weights must be nonnegative and sum to 1")
    t = c - params.c_max
    return tuple(float(w @ np.atleast_1d(vals)) for vals in (
        h_tanh(t, params), h_eval(t, params), indicator_eval(t)))
