"""Dense-quadrature ground truth for any design: `dense_cc`.

Uses the optimizer's assembly, with one factorization per call (one per
group of grid points on a plate grid past 2048 kept dofs); only the
parameter-space quadrature is dense. It is the trapezoid rule of the
problem's ParamSpace: periodic, so equispaced, on the wheel's circle, and
a tensor grid on the plate's weakness box, crossed with the plate's fixed
omega rule. Both problems factorize the stiffness condensed onto the dofs
the rule reads (`StructuredMesh.condensed`), ordered on the mesh's
free-node graph, and work in those kept dofs only: the wheel contracts
every load with the rim block of K^-1 (see `WheelProblem.dense_raw`), and
the plate serves the grid by the stacked low-rank updates its records
use, in the loaded dofs and the dofs the weakness reaches: one block solve
and one stacked update per factorization. What depends only on the rule
and the load scale (the wheel's rim loads; the plate's views, loads and
per-point update slots) is built on the first call with that rule and
kept, so a call repeated on the same rule does only the work that depends
on the design.
"""
from __future__ import annotations

from .smoothing import aggregate_cc


def dense_cc(design, problem, spec=None) -> tuple[float, float, float]:
    """(G_smooth, G_steepened, G_nonsmooth) at dense quadrature.

    spec: one point count per parameter coordinate (wheel: n, plate:
    (n1, n2)); the problem's default when omitted. Deterministic.
    """
    values, weights = problem.dense_raw(design, spec)
    return aggregate_cc(values, weights, problem.smoothing)
