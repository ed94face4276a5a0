import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smma.smoothing import (
    SmoothingParams,
    aggregate_cc,
    h_deriv,
    h_eval,
    h_tanh,
    indicator_eval,
)


def params(a1=35.0, a2=0.05, a3=5.0, c_max=1.0, p=0.05):
    return SmoothingParams(a1=a1, a2=a2, a3=a3, c_max=c_max, p_level=p)


def fd_deriv(f, t, step=1e-6):
    return (f(t + step) - f(t - step)) / (2.0 * step)


class TestHEval:
    def test_value_at_zero_is_half(self):
        assert h_eval(0.0, params()) == 0.5

    def test_vanishes_for_large_negative_argument(self):
        p = params()
        assert abs(h_eval(-1e6, p)) < 1e-9
        assert np.isfinite(h_eval(1e6, p))

    def test_overflow_safe_both_directions(self):
        p = params()
        for t in (-1e6, -1e3, 1e3, 1e6):
            assert np.isfinite(h_eval(t, p))
            assert np.isfinite(h_deriv(t, p))

    def test_smoothmax_term_local_minimum_near_minus_1_28_over_a3(self):
        # the a2-term alone admits a negative local minimum near t = -1.28/a3
        p = params(a2=1.0)
        t = np.linspace(-2.0, 0.0, 200001)
        term = t - t / (1.0 + np.exp(p.a3 * t))
        i = np.argmin(term)
        assert term[i] < 0.0
        assert abs(t[i] - (-1.28 / p.a3)) < 0.01

    def test_steepened_at_least_tanh_for_nonnegative_t(self):
        p = params()
        t = np.linspace(0.0, 50.0, 1000)
        assert np.all(h_eval(t, p) >= h_tanh(t, p) - 1e-15)

    def test_monotone_on_nonnegative_axis(self):
        p = params()
        t = np.linspace(0.0, 100.0 / p.a1, 5000)
        assert np.all(h_deriv(t, p) >= 0.0)


class TestHDeriv:
    def test_value_at_zero(self):
        p = params()
        assert abs(h_deriv(0.0, p) - (p.a1 / 2 + p.a2 / 2)) < 1e-10

    def test_limit_at_plus_infinity_is_a2(self):
        p = params()
        assert abs(h_deriv(1e4, p) - p.a2) < 1e-12

    def test_a2_zero_closed_form(self):
        p = params(a2=0.0)
        t = np.linspace(-3.0, 3.0, 101)
        expected = 0.5 * p.a1 / np.cosh(p.a1 * t) ** 2
        np.testing.assert_allclose(h_deriv(t, p), expected, rtol=1e-12)
        assert np.all(h_deriv(t, p) > 0.0)

    def test_matches_finite_differences(self):
        p = params()
        rng = np.random.default_rng(3)
        t = rng.uniform(-5.0, 5.0, size=10000)
        fd = fd_deriv(lambda s: h_eval(s, p), t)
        err = np.abs(h_deriv(t, p) - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() < 1e-7


# the tanh variant (a2 = 0) and the steepened one, with the published
# constants of both benchmarks among the draws
smoothing_params = st.builds(
    params,
    a1=st.floats(0.1, 1e3),
    a2=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    a3=st.floats(0.1, 1e3),
) | st.sampled_from([params(a1=50.0, a2=0.1), params()])
finite_t = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max])


class TestFiniteEverywhere:
    @settings(max_examples=300, deadline=None)
    @given(p=smoothing_params, t=finite_t)
    def test_h_and_its_derivative_finite(self, p, t):
        for f in (h_eval, h_tanh, h_deriv):
            assert np.isfinite(f(t, p))
            assert np.isfinite(f(np.array([t, -t, 0.0]), p)).all()


class TestIndicator:
    def test_values(self):
        assert indicator_eval(-1.0) == 0.0
        assert indicator_eval(0.0) == 0.0  # open interval
        assert indicator_eval(1.0) == 1.0


class TestAggregate:
    def test_all_at_cap_tanh_gives_half(self):
        p = params(c_max=2.0)
        c = np.full(7, 2.0)
        w = np.full(7, 1.0 / 7)
        assert aggregate_cc(c, w, p, "tanh") == pytest.approx(0.5, abs=1e-15)

    def test_all_clearly_below_cap_nonsmooth_zero(self):
        p = params()
        c = np.full(5, p.c_max - 10.0 / p.a1 - 1.0)
        w = np.full(5, 0.2)
        assert aggregate_cc(c, w, p, "nonsmooth") == 0.0

    def test_half_violating(self):
        p = params()
        c = np.array([0.5, 1.5]) * p.c_max
        w = np.array([0.5, 0.5])
        assert aggregate_cc(c, w, p, "nonsmooth") == 0.5

    def test_bad_weights_rejected(self):
        p = params()
        with pytest.raises(ValueError):
            aggregate_cc([1.0, 1.0], [0.7, 0.5], p)
        with pytest.raises(ValueError):
            aggregate_cc([1.0, 1.0], [-0.1, 1.1], p)

    def test_tanh_vs_nonsmooth_triangle_bound(self):
        p = params()
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = rng.uniform(0.0, 2.0 * p.c_max, size=20)
            w = rng.uniform(0.1, 1.0, size=20)
            w /= w.sum()
            t = c - p.c_max
            gap = np.abs(h_tanh(t, p) - indicator_eval(t)).max()
            diff = abs(aggregate_cc(c, w, p, "tanh")
                       - aggregate_cc(c, w, p, "nonsmooth"))
            assert diff <= gap + 1e-12


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(a1=0.0)
        with pytest.raises(ValueError):
            params(a3=-1.0)
        with pytest.raises(ValueError):
            params(a2=-0.01)
        with pytest.raises(ValueError):
            params(c_max=0.0)
        with pytest.raises(ValueError):
            params(p=1.0)
