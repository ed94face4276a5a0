import numpy as np
import pytest

from smma.benchmarks import plate_problem, wheel_problem
from smma.driver import dense_cc


@pytest.fixture(scope="module")
def wheel():
    return wheel_problem(n_radial=6, n_angular=16, simp_s=5.0)


@pytest.fixture(scope="module")
def plate():
    return plate_problem(nx=12, ny=6, n_omega=6)


class TestDenseCC:
    def test_quadrature_self_consistency(self, wheel):
        # once n resolves the steep h-transitions, doubling barely moves G
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.4, 0.9, wheel.mesh.n_elements)
        rho[~wheel.free_mask] = 1.0
        g1 = dense_cc(rho, wheel, 720)
        g2 = dense_cc(rho, wheel, 1440)
        assert abs(g1[0] - g2[0]) < 1e-3

    def test_deterministic(self, wheel):
        rho = wheel.initial_design()
        assert dense_cc(rho, wheel, 90) == dense_cc(rho, wheel, 90)

    def test_nonsmooth_equals_violation_fraction(self, wheel):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.3, 0.8, wheel.mesh.n_elements)
        rho[~wheel.free_mask] = 1.0
        n = 180
        _, _, g_nonsmooth = dense_cc(rho, wheel, n)
        omegas = np.linspace(0, 2 * np.pi, n, endpoint=False)
        c_max = wheel.smoothing.c_max
        count = sum(wheel.compliances(rho, [om])[0][0] / c_max > 1.0
                    for om in omegas)
        assert g_nonsmooth == pytest.approx(count / n, abs=1e-12)

    def test_steepened_vs_tanh_bounded_by_a2_term(self, wheel):
        rng = np.random.default_rng(2)
        rho = rng.uniform(0.3, 0.9, wheel.mesh.n_elements)
        rho[~wheel.free_mask] = 1.0
        values, w = wheel.dense_raw(rho, 180)
        t = values - wheel.smoothing.c_max
        g_smooth, g_steep, _ = dense_cc(rho, wheel, 180)
        bound = wheel.smoothing.a2 * float(w @ np.abs(t))
        assert abs(g_steep - g_smooth) <= bound + 1e-12

    def test_plate_grid_spec(self, plate):
        rho = plate.initial_design()
        g = dense_cc(rho, plate, (3, 3))
        assert all(np.isfinite(v) for v in g)
        # initial design is calibrated to compliance 1 < c_max = 1.5
        assert g[2] == 0.0
