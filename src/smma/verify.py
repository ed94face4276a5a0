"""Dense-quadrature ground truth for any design.

Shares the FEM path with the optimizer; only the parameter-space quadrature
is dense. The wheel uses an equispaced (periodic trapezoid) circle rule,
the plate a tensor trapezoid grid on the weakness domain crossed with its
fixed omega rule.
"""
from __future__ import annotations

import numpy as np

from .smoothing import aggregate_cc


def dense_cc(design, problem, spec=None) -> tuple[float, float, float]:
    """(G_smooth, G_steepened, G_nonsmooth) at dense quadrature.

    spec: point count (wheel) or (n1, n2) grid (plate); the problem's
    default when omitted. Deterministic, no RNG involved.
    """
    values, weights = problem.dense_raw(design, spec)
    return (aggregate_cc(values, weights, problem.smoothing, "tanh"),
            aggregate_cc(values, weights, problem.smoothing, "steepened"),
            aggregate_cc(values, weights, problem.smoothing, "nonsmooth"))


def h1_map(design, problem, grid_spec=None):
    """Damage-position sensitivity map over the weakness domain.

    Returns (points (n,2), values (n,)) where each value is the
    omega-average of the steepened indicator for material weakened at that
    position; values <= 1/2 mean the compliance cap holds even damaged.
    """
    if not hasattr(problem, "h1_values"):
        raise ValueError("H1 maps require a problem with a weakness domain")
    n1, n2 = grid_spec if grid_spec is not None else problem.default_verify_spec
    (x0, x1), (y0, y1) = problem.xi_range
    gx = np.linspace(x0, x1, int(n1))
    gy = np.linspace(y0, y1, int(n2))
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, problem.h1_values(design, pts)


def relative_compliance(design, problem, param) -> float:
    """Compliance at one parameter realization divided by the cap.

    Values above 1 mean the cap is violated there. For the wheel the
    parameter is (omega,); for the plate it is (xi1, xi2, omega).
    """
    param = np.atleast_1d(np.asarray(param, dtype=float))
    if problem.name == "plate":
        if param.size != 3:
            raise ValueError("plate relative compliance needs (xi1, xi2, omega)")
        c = problem.angle_averaged_compliance(design, param[:2],
                                              float(param[2]))
    else:
        values, _ = problem.compliances(design, param[:1])
        c = float(values[0])
    return c / problem.smoothing.c_max


def histogram(values, bin_width: float):
    """(edges, probabilities) with bins on multiples of bin_width."""
    values = np.asarray(values, dtype=float)
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    if values.size == 0:
        return np.array([]), np.array([])
    lo = np.floor(values.min() / bin_width)
    hi = np.floor(values.max() / bin_width) + 1
    edges = np.arange(lo, hi + 1) * bin_width
    counts, edges = np.histogram(values, bins=edges)
    return edges, counts / values.size
