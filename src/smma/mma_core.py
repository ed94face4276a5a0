"""Moving-asymptote machinery.

Each outer iteration linearizes objective and constraint into separable
convex fractions p/(U-z) + q/(z-L) around the current design, and the
resulting box-constrained subproblem is solved exactly through its scalar
dual (one chance constraint), with per-variable primal minimizers in
closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# elastic-constraint penalty: the dual variable is capped here, which is
# equivalent to one elastic slack variable with this linear penalty
ELASTIC_PENALTY = 1e4

_INIT_FRACTION = 0.5      # first two iterations: gap = 0.5 * box range
_SHRINK = 0.7             # oscillating variables
_GROW = 1.2               # monotone variables
_GAP_MIN = 0.01           # times box range
_GAP_MAX = 10.0           # times box range
_BOUND_FRACTION = 0.1     # keep bounds 10% inside the asymptotes


@dataclass
class MmaState:
    """Asymptotes, two previous designs and the move limit.

    The design box is [0, 1].
    """

    lower: np.ndarray
    upper: np.ndarray
    z_prev1: np.ndarray | None
    z_prev2: np.ndarray | None
    tau: float
    iteration: int

    @classmethod
    def initial(cls, n: int, tau: float = 1.0) -> "MmaState":
        return cls(lower=np.zeros(n), upper=np.ones(n),
                   z_prev1=None, z_prev2=None, tau=tau, iteration=0)


def update_asymptotes(state: MmaState, z: np.ndarray) -> MmaState:
    """Advance the asymptotes for the design z.

    First two iterations place them half a box range away; afterwards the
    per-variable gap shrinks by 0.7 on oscillation, grows by 1.2 on
    monotone movement, and is clamped to [0.01, 10] box ranges.
    """
    z = np.asarray(z, dtype=float)
    if state.iteration < 2:
        lower = z - _INIT_FRACTION
        upper = z + _INIT_FRACTION
    else:
        osc = (z - state.z_prev1) * (state.z_prev1 - state.z_prev2)
        factor = np.where(osc < 0, _SHRINK, np.where(osc > 0, _GROW, 1.0))
        gap_lo = np.clip(factor * (state.z_prev1 - state.lower),
                         _GAP_MIN, _GAP_MAX)
        gap_hi = np.clip(factor * (state.upper - state.z_prev1),
                         _GAP_MIN, _GAP_MAX)
        lower = z - gap_lo
        upper = z + gap_hi
    return replace(state, lower=lower, upper=upper, z_prev2=state.z_prev1,
                   z_prev1=z.copy(), iteration=state.iteration + 1)


def tau_for_iteration(tau0: float, schedule: tuple[int, float] | None,
                      k: int) -> float:
    """Move limit at iteration k under a (period, factor) schedule."""
    if schedule is None:
        return tau0
    period, factor = schedule
    if period < 1:
        raise ValueError("schedule period must be positive")
    return tau0 * factor ** (k // period)


def apply_move_limits(state: MmaState, schedule: tuple[int, float] | None,
                      tau0: float) -> MmaState:
    """Return the state with tau set for state.iteration."""
    return replace(state, tau=tau_for_iteration(tau0, schedule,
                                                state.iteration))


@dataclass
class SeparableApprox:
    """Convex fraction approximation r + sum p/(U-z) + q/(z-L)."""

    p: np.ndarray
    q: np.ndarray
    r: float
    lower: np.ndarray
    upper: np.ndarray

    def value(self, z: np.ndarray) -> float:
        return self.r + float(np.sum(self.p / (self.upper - z)
                                     + self.q / (z - self.lower)))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return (self.p / (self.upper - z) ** 2
                - self.q / (z - self.lower) ** 2)


def build_approx(z, g_val: float, g_grad, lower, upper) -> SeparableApprox:
    """MMA coefficients: positive derivatives route to p, negative to q."""
    z = np.asarray(z, dtype=float)
    g = np.asarray(g_grad, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower >= z) or np.any(z >= upper):
        raise ValueError("asymptotes must satisfy L < z < U")
    p = np.where(g > 0, (upper - z) ** 2 * g, 0.0)
    q = np.where(g < 0, -(z - lower) ** 2 * g, 0.0)
    r = float(g_val - np.sum(p / (upper - z) + q / (z - lower)))
    return SeparableApprox(p=p, q=q, r=r, lower=lower, upper=upper)


@dataclass
class Subproblem:
    """Minimize objective subject to constraint <= limit on [lo, hi]."""

    objective: SeparableApprox
    constraint: SeparableApprox
    limit: float
    lo: np.ndarray
    hi: np.ndarray


def build_subproblem(z, state: MmaState, objective: SeparableApprox,
                     constraint: SeparableApprox,
                     limit: float) -> Subproblem:
    """Box bounds: design box, move limit, and 90%-of-asymptote clipping."""
    z = np.asarray(z, dtype=float)
    lo = np.maximum.reduce([
        np.zeros_like(z),
        z - state.tau,
        state.lower + _BOUND_FRACTION * (z - state.lower)])
    hi = np.minimum.reduce([
        np.ones_like(z),
        z + state.tau,
        state.upper - _BOUND_FRACTION * (state.upper - z)])
    if np.any(lo >= hi):
        raise ValueError("empty subproblem box")
    return Subproblem(objective=objective, constraint=constraint,
                      limit=limit, lo=lo, hi=hi)


@dataclass
class SubproblemResult:
    design: np.ndarray
    multiplier: float
    constraint_violation: float   # > 0 only when the elastic cap engaged
    kkt_residual: float


def _primal_for_multiplier(sp: Subproblem, lam: float) -> np.ndarray:
    con = sp.constraint
    P = sp.objective.p + lam * con.p
    Q = sp.objective.q + lam * con.q
    spP = np.sqrt(P)
    sqQ = np.sqrt(Q)
    denom = spP + sqQ
    L, U = sp.objective.lower, sp.objective.upper
    mid = 0.5 * (sp.lo + sp.hi)
    with np.errstate(invalid="ignore"):
        z = np.where(denom > 0, (spP * L + sqQ * U) / np.where(denom > 0,
                                                               denom, 1.0),
                     mid)
    return np.clip(z, sp.lo, sp.hi)


def solve_subproblem(sp: Subproblem) -> SubproblemResult:
    """Exact dual solve of the single-constraint MMA subproblem.

    When no multiplier below the elastic cap can restore feasibility, the
    capped solution is returned with its violation measure instead of
    raising, so a stochastic outer loop can continue.
    """
    con, limit = sp.constraint, sp.limit

    def slack(lam: float) -> float:
        return con.value(_primal_for_multiplier(sp, lam)) - limit

    if slack(0.0) <= 0.0:
        z = _primal_for_multiplier(sp, 0.0)
        return SubproblemResult(design=z, multiplier=0.0,
                                constraint_violation=0.0,
                                kkt_residual=_kkt_residual(sp, z, 0.0, limit))

    lam_lo, lam_hi = 0.0, 1.0
    while slack(lam_hi) > 0.0 and lam_hi < ELASTIC_PENALTY:
        lam_lo = lam_hi
        lam_hi = min(2.0 * lam_hi, ELASTIC_PENALTY)

    if slack(lam_hi) > 0.0:
        # infeasible even at the elastic cap
        z = _primal_for_multiplier(sp, ELASTIC_PENALTY)
        return SubproblemResult(
            design=z, multiplier=ELASTIC_PENALTY,
            constraint_violation=slack(ELASTIC_PENALTY),
            kkt_residual=_kkt_residual(sp, z, ELASTIC_PENALTY, limit,
                                       elastic=True))

    # bisect to float resolution: the dual derivative (= slack) changes
    # sign in [lam_lo, lam_hi] and evaluations are cheap
    for _ in range(120):
        lam_mid = 0.5 * (lam_lo + lam_hi)
        if lam_mid in (lam_lo, lam_hi):
            break
        if slack(lam_mid) > 0.0:
            lam_lo = lam_mid
        else:
            lam_hi = lam_mid
    lam = lam_hi   # feasible side
    z = _primal_for_multiplier(sp, lam)
    return SubproblemResult(design=z, multiplier=lam,
                            constraint_violation=0.0,
                            kkt_residual=_kkt_residual(sp, z, lam, limit))


def _kkt_residual(sp: Subproblem, z: np.ndarray, lam: float, limit: float,
                  elastic: bool = False) -> float:
    """max of primal feasibility, complementary slackness and projected
    Lagrangian stationarity."""
    con = sp.constraint
    slack = con.value(z) - limit
    primal = 0.0 if elastic else max(0.0, slack)
    comp = 0.0 if elastic else abs(lam * slack)
    grad = sp.objective.gradient(z) + lam * con.gradient(z)
    projected = z - np.clip(z - grad, sp.lo, sp.hi)
    return float(max(primal, comp, np.abs(projected).max()
                     / max(1.0, np.abs(grad).max())))
