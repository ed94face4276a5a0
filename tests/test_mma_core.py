import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smma.mma_core import (
    ELASTIC_PENALTY,
    MmaState,
    SeparableApprox,
    apply_move_limits,
    build_approx,
    build_subproblem,
    solve_subproblem,
    tau_for_iteration,
    update_asymptotes,
)


def random_state(z, tau=1.0):
    n = z.size
    st = MmaState.initial(n, tau=tau)
    st = update_asymptotes(st, z)
    return st


class TestBuildApprox:
    def test_zero_gradient_constant(self):
        z = np.array([0.5, 0.3])
        a = build_approx(z, 2.0, np.zeros(2), z - 1, z + 1)
        np.testing.assert_array_equal(a.p, 0.0)
        np.testing.assert_array_equal(a.q, 0.0)
        assert a.value(np.array([0.1, 0.9])) == pytest.approx(2.0)

    def test_single_variable_coefficients(self):
        a = build_approx(np.array([0.5]), 0.25, np.array([1.0]),
                         np.array([0.0]), np.array([1.0]))
        assert a.p[0] == pytest.approx(0.25)
        assert a.q[0] == pytest.approx(0.0)
        assert a.r == pytest.approx(-0.25)

    def test_reproduces_value_and_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = rng.integers(1, 8)
            z = rng.uniform(0.1, 0.9, n)
            L = z - rng.uniform(0.1, 2.0, n)
            U = z + rng.uniform(0.1, 2.0, n)
            val = rng.standard_normal()
            grad = rng.standard_normal(n)
            a = build_approx(z, val, grad, L, U)
            assert abs(a.value(z) - val) < 1e-10
            np.testing.assert_allclose(a.gradient(z), grad, atol=1e-10)
            assert np.all(a.p * a.q == 0.0)

    def test_convex_second_derivative(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(0.2, 0.8, 5)
        a = build_approx(z, 1.0, rng.standard_normal(5), z - 0.5, z + 0.5)
        pts = rng.uniform(z - 0.4, z + 0.4)
        second = 2 * a.p / (a.upper - pts) ** 3 + 2 * a.q / (pts - a.lower) ** 3
        assert np.all(second >= 0.0)

    def test_majorizes_tangent_plane(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(0.3, 0.7, 4)
        val, grad = 0.7, rng.standard_normal(4)
        a = build_approx(z, val, grad, z - 0.6, z + 0.6)
        for _ in range(200):
            pt = rng.uniform(z - 0.5, z + 0.5)
            assert a.value(pt) >= val + grad @ (pt - z) - 1e-9

    def test_bad_asymptotes(self):
        with pytest.raises(ValueError):
            build_approx(np.array([0.5]), 0.0, np.array([1.0]),
                         np.array([0.6]), np.array([1.0]))


class TestAsymptotes:
    def test_first_iteration_initialization(self):
        st = MmaState.initial(1)
        st = update_asymptotes(st, np.array([0.75]))
        assert st.lower[0] == pytest.approx(0.25)
        assert st.upper[0] == pytest.approx(1.25)

    def test_monotone_growth(self):
        st = MmaState.initial(1)
        zs = [0.2, 0.3, 0.4, 0.5]
        for z in zs[:3]:
            st = update_asymptotes(st, np.array([z]))
        gap_before = st.z_prev1[0] - st.lower[0]
        st = update_asymptotes(st, np.array([zs[3]]))
        assert st.z_prev1[0] - st.lower[0] == pytest.approx(1.2 * gap_before)

    def test_oscillation_shrink(self):
        st = MmaState.initial(1)
        for z in (0.5, 0.6, 0.5):
            st = update_asymptotes(st, np.array([z]))
        gap_before = st.z_prev1[0] - st.lower[0]
        st = update_asymptotes(st, np.array([0.6]))
        assert st.z_prev1[0] - st.lower[0] == pytest.approx(0.7 * gap_before)
        assert st.lower[0] < 0.6 < st.upper[0]

    def test_gap_clamps(self):
        st = MmaState.initial(1)
        z = np.array([0.5])
        for _ in range(60):   # keep shrinking via oscillation
            st = update_asymptotes(st, z)
            z = np.array([0.5 + (0.01 if z[0] == 0.5 else -0.01) + 0.0])
        assert st.z_prev1[0] - st.lower[0] >= 0.01 - 1e-12

    def test_zero_movement_keeps_gap(self):
        st = MmaState.initial(1)
        for _ in range(3):
            st = update_asymptotes(st, np.array([0.5]))
        gap = st.z_prev1[0] - st.lower[0]
        st = update_asymptotes(st, np.array([0.5]))
        assert st.z_prev1[0] - st.lower[0] == pytest.approx(gap)


class TestMoveLimits:
    def test_halving_schedule(self):
        assert tau_for_iteration(1.0, (1000, 0.5), 1000) == pytest.approx(0.5)
        assert tau_for_iteration(1.0, (1000, 0.5), 999) == pytest.approx(1.0)
        assert tau_for_iteration(1.0, (1000, 0.5), 2500) == pytest.approx(0.25)

    def test_no_schedule(self):
        assert tau_for_iteration(0.75, None, 12345) == 0.75

    def test_apply_to_state(self):
        st = MmaState.initial(3, tau=1.0)
        st = update_asymptotes(st, np.full(3, 0.5))
        assert apply_move_limits(st, None, 1.0).tau == 1.0


def one_var_subproblem(z, obj_grad, con_val, con_grad, limit, tau=1.0):
    st = random_state(np.array([z]), tau=tau)
    obj = build_approx(np.array([z]), 0.0, np.array([obj_grad]),
                       st.lower, st.upper)
    con = build_approx(np.array([z]), con_val, np.array([con_grad]),
                       st.lower, st.upper)
    return build_subproblem(np.array([z]), st, obj, con, limit)


class TestSolveSubproblem:
    def test_inactive_constraint_box_minimum(self):
        # objective increasing in z, constraint satisfied everywhere
        sp = one_var_subproblem(0.5, obj_grad=1.0, con_val=-5.0,
                                con_grad=0.1, limit=0.0)
        res = solve_subproblem(sp)
        assert res.multiplier == 0.0
        assert res.design[0] == pytest.approx(sp.lo[0])
        assert res.kkt_residual < 1e-8

    def test_active_constraint_against_grid_search(self):
        # volume-like objective decreasing in z; compliance-like constraint
        # violated at the current design and decreasing in z
        sp = one_var_subproblem(0.5, obj_grad=1.0, con_val=0.3,
                                con_grad=-2.0, limit=0.0)
        res = solve_subproblem(sp)
        grid = np.linspace(sp.lo[0], sp.hi[0], 1_000_000)
        con, obj = sp.constraint, sp.objective
        convals = con.r + con.p[0] / (con.upper[0] - grid) \
            + con.q[0] / (grid - con.lower[0])
        objv = obj.r + obj.p[0] / (obj.upper[0] - grid) \
            + obj.q[0] / (grid - obj.lower[0])
        objv[convals > 1e-12] = np.inf
        z_grid = grid[np.argmin(objv)]
        assert abs(res.design[0] - z_grid) <= grid[1] - grid[0] + 1e-9
        assert res.kkt_residual < 1e-8

    def test_move_limit_respected(self):
        rng = np.random.default_rng(3)
        n = 8
        z = rng.uniform(0.3, 0.7, n)
        st = MmaState.initial(n, tau=0.01)
        st = update_asymptotes(st, z)
        obj = build_approx(z, 0.0, rng.uniform(0.5, 1.0, n), st.lower, st.upper)
        con = build_approx(z, 0.2, rng.uniform(-1.0, -0.5, n), st.lower,
                           st.upper)
        sp = build_subproblem(z, st, obj, con, 0.0)
        res = solve_subproblem(sp)
        assert np.abs(res.design - z).max() <= 0.01 + 1e-12

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = rng.integers(1, 30)
            z = rng.uniform(0.15, 0.85, n)
            st = MmaState.initial(n, tau=float(rng.uniform(0.1, 1.0)))
            st = update_asymptotes(st, z)
            obj = build_approx(z, rng.standard_normal(),
                               rng.standard_normal(n), st.lower, st.upper)
            con = build_approx(z, rng.uniform(-0.5, 0.5),
                               rng.standard_normal(n), st.lower, st.upper)
            sp = build_subproblem(z, st, obj, con, float(rng.uniform(-0.2, 0.2)))
            res = solve_subproblem(sp)
            assert np.all(res.design >= sp.lo - 1e-15)
            assert np.all(res.design <= sp.hi + 1e-15)
            if res.constraint_violation == 0.0:
                assert res.kkt_residual < 1e-8

    def test_dual_bracket_contains_root(self):
        sp = one_var_subproblem(0.5, obj_grad=1.0, con_val=0.3,
                                con_grad=-2.0, limit=0.0)
        con = sp.constraint
        res = solve_subproblem(sp)
        assert res.multiplier > 0.0
        from smma.mma_core import _primal_for_multiplier
        lo = con.value(_primal_for_multiplier(sp, res.multiplier * 0.5)) - 0.0
        hi = con.value(_primal_for_multiplier(sp, res.multiplier * 2.0)) - 0.0
        assert lo > -1e-12 and hi < 1e-12

    def test_infeasible_reports_relaxed_solution(self):
        # constraint cannot be satisfied anywhere in the box
        sp = one_var_subproblem(0.5, obj_grad=1.0, con_val=10.0,
                                con_grad=-0.01, limit=0.0)
        res = solve_subproblem(sp)
        assert res.constraint_violation > 0.0
        assert np.isfinite(res.design).all()
        assert sp.lo[0] <= res.design[0] <= sp.hi[0]


@st.composite
def separable_subproblems(draw):
    """A subproblem of random convex separable approximations: a design z
    in the box, asymptotes between 0.01 and 2 away from it on each side,
    gradients of either sign, a move limit and a constraint limit."""
    n = draw(st.integers(1, 12))

    def vector(lo, hi):
        return np.array(draw(st.lists(
            st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)))
    z = vector(0.05, 0.95)
    state = MmaState(lower=z - vector(0.01, 2.0), upper=z + vector(0.01, 2.0),
                     z_prev1=None, z_prev2=None,
                     tau=draw(st.floats(0.01, 1.0)), iteration=1)
    obj = build_approx(z, draw(st.floats(-2.0, 2.0)), vector(-5.0, 5.0),
                       state.lower, state.upper)
    con = build_approx(z, draw(st.floats(-1.0, 1.0)), vector(-5.0, 5.0),
                       state.lower, state.upper)
    return build_subproblem(z, state, obj, con, draw(st.floats(-0.5, 0.5)))


@settings(max_examples=200, deadline=None)
@given(sp=separable_subproblems())
def test_subproblem_solution_properties(sp):
    res = solve_subproblem(sp)
    assert np.all((sp.lo <= res.design) & (res.design <= sp.hi))
    assert res.kkt_residual < 1e-8
    # feasible, unless the elastic cap engaged
    if res.constraint_violation == 0.0:
        assert sp.constraint.value(res.design) <= sp.limit
    else:
        assert res.multiplier == ELASTIC_PENALTY


class TestSubproblemBox:
    def test_bounds_inside_asymptotes(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.1, 0.9, 20)
        st = MmaState.initial(20, tau=0.8)
        st = update_asymptotes(st, z)
        obj = build_approx(z, 0.0, rng.standard_normal(20), st.lower, st.upper)
        con = build_approx(z, 0.0, rng.standard_normal(20), st.lower, st.upper)
        sp = build_subproblem(z, st, obj, con, 0.0)
        assert np.all(sp.lo < sp.hi)
        assert np.all(sp.lo > st.lower)
        assert np.all(sp.hi < st.upper)
        assert np.all(sp.lo >= 0.0) and np.all(sp.hi <= 1.0)
