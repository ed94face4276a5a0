import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smma import benchmarks
from smma import design_field as df
from smma.benchmarks import (
    angle_integrals,
    angle_reduced_compliance,
    plate_problem,
    wheel_problem,
)
from smma.mesh_fem import (
    FactorizedSystem,
    assemble_stiffness,
    build_rect_mesh,
    element_quadratic_forms,
)
from smma.smoothing import h_deriv, h_eval


@pytest.fixture(scope="module")
def wheel():
    return wheel_problem(n_radial=8, n_angular=24)


@pytest.fixture(scope="module")
def plate():
    return plate_problem(nx=16, ny=8, n_omega=8)


class TestAngleIntegrals:
    def test_closed_forms_on_quarter_interval(self):
        ix, iy, ixy, width = angle_integrals(np.pi / 4, 3 * np.pi / 4)
        assert ix == pytest.approx(np.pi / 4 - 0.5, abs=1e-14)
        assert iy == pytest.approx(np.pi / 4 + 0.5, abs=1e-14)
        assert ixy == pytest.approx(0.0, abs=1e-14)
        assert width == pytest.approx(np.pi / 2, abs=1e-14)

    def test_against_quadrature(self):
        a, b = 0.3, 2.1
        ix, iy, ixy, _ = angle_integrals(a, b)
        t = np.linspace(a, b, 200001)
        np.testing.assert_allclose(
            [ix, iy, ixy],
            [np.trapezoid(np.cos(t) ** 2, t), np.trapezoid(np.sin(t) ** 2, t),
             np.trapezoid(np.cos(t) * np.sin(t), t)], atol=1e-9)


class TestAngleReducedCompliance:
    def test_matches_dense_gauss_quadrature(self):
        rng = np.random.default_rng(0)
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        for _ in range(10):
            s = rng.uniform(0.2, 1.0, mesh.n_elements)
            system = assemble_stiffness(mesh, s)
            Fx = rng.standard_normal(mesh.n_dofs)
            Fy = rng.standard_normal(mesh.n_dofs)
            Fx[mesh.dirichlet_dofs] = 0.0
            Fy[mesh.dirichlet_dofs] = 0.0
            analytic = angle_reduced_compliance(system, Fx, Fy)

            nodes, weights = np.polynomial.legendre.leggauss(1000)
            a, b = np.pi / 4, 3 * np.pi / 4
            alphas = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = []
            for alpha in alphas:
                F = np.cos(alpha) * Fx + np.sin(alpha) * Fy
                vals.append(F @ system.solve(F))
            dense = 0.5 * (b - a) * (weights @ np.array(vals)) / (b - a)
            assert abs(analytic - dense) / abs(dense) < 1e-8

    def test_pure_y_load_specialization(self):
        rng = np.random.default_rng(1)
        mesh = build_rect_mesh(2, 2, 1.0, 1.0)
        system = assemble_stiffness(mesh, rng.uniform(0.5, 1.0, 4))
        Fy = rng.standard_normal(mesh.n_dofs)
        Fy[mesh.dirichlet_dofs] = 0.0
        got = angle_reduced_compliance(system, np.zeros(mesh.n_dofs), Fy)
        expect = (np.pi / 4 + 0.5) / (np.pi / 2) * (Fy @ system.solve(Fy))
        assert got == pytest.approx(expect, rel=1e-12)


class TestWheel:
    def test_intensity_peak_value(self, wheel):
        # at beta = omega: 1 + tanh(0.1)
        assert wheel.intensity(1.3, 1.3) == pytest.approx(1.0 + np.tanh(0.1))

    def test_intensity_vanishes_away_from_peak(self, wheel):
        assert wheel.intensity(0.0, np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_initial_compliance_calibrated_to_one(self, wheel):
        v, _ = wheel.compliances(wheel.initial_design(), [np.pi])
        assert v[0] == pytest.approx(1.0, rel=1e-9)

    def test_load_zero_at_dirichlet_dofs(self, wheel):
        F = wheel.load_block([0.7, 2.0])
        assert np.all(F[wheel.mesh.dirichlet_dofs] == 0.0)

    def test_rim_elements_not_design_variables(self, wheel):
        mask = wheel.free_mask
        assert mask.sum() == wheel.mesh.n_elements - len(wheel.mesh.fixed_density)
        rho = wheel.initial_design()
        assert np.all(rho[~mask] == 1.0)

    def test_rotational_equivariance_one_sector(self, wheel):
        # rotating the design by one sector and stepping omega accordingly
        # leaves the compliance unchanged on the symmetric polar mesh
        rng = np.random.default_rng(2)
        nr, na = wheel.mesh.shape
        dtheta = 2 * np.pi / na
        rho = rng.uniform(0.3, 0.9, wheel.mesh.n_elements)
        rho[~wheel.free_mask] = 1.0
        omega = 0.8

        # element (band, sector) -> index band*na + sector; the intensity
        # peaks where arctan2(x1, x2) = omega, so omega+dtheta pairs with a
        # design shifted one sector the matching way
        rho_grid = rho.reshape(nr, na)
        rho_rot = np.roll(rho_grid, -1, axis=1).ravel()

        c0, _ = wheel.compliances(rho, [omega])
        c1, _ = wheel.compliances(rho_rot, [omega + dtheta])
        assert abs(c1[0] - c0[0]) < 1e-8 * abs(c0[0])

    def test_dense_raw_rotation_invariant_constraint(self, wheel):
        rng = np.random.default_rng(3)
        nr, na = wheel.mesh.shape
        rho = rng.uniform(0.3, 0.9, wheel.mesh.n_elements)
        rho[~wheel.free_mask] = 1.0
        rho_rot = np.roll(rho.reshape(nr, na), -1, axis=1).ravel()
        n = 96   # multiple of the sector count
        v0, w = wheel.dense_raw(rho, n)
        v1, _ = wheel.dense_raw(rho_rot, n)
        from smma.smoothing import aggregate_cc
        g0 = aggregate_cc(v0, w, wheel.smoothing, "steepened")
        g1 = aggregate_cc(v1, w, wheel.smoothing, "steepened")
        assert abs(g0 - g1) < 1e-6

    def test_record_gradient_matches_finite_differences(self, wheel):
        # the compliance gradient; records compose it with h' (next test)
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.3, 0.8, wheel.mesh.n_elements)
        rho[~wheel.free_mask] = 1.0
        omega = np.array([2.2])
        _, grads = wheel.compliances(rho, omega, want_grads=True)
        step = 1e-6
        idx = rng.choice(np.nonzero(wheel.free_mask)[0], size=8,
                         replace=False)
        for j in idx:
            up, dn = rho.copy(), rho.copy()
            up[j] += step
            dn[j] -= step
            cu, _ = wheel.compliances(up, omega)
            cd, _ = wheel.compliances(dn, omega)
            fd = (cu[0] - cd[0]) / (2 * step)
            assert abs(grads[0][j] - fd) / max(abs(fd), 1e-10) < 1e-5

    def test_records_are_h_composed_compliances(self, wheel):
        # compliances about 0.55, 1.35, 1.85 and 15 against the cap 1.5
        omegas = np.array([0.4, 1.9, 3.3, 5.0])
        for lo, hi in ((0.7, 0.9), (0.65, 0.8), (0.6, 0.8), (0.3, 0.8)):
            rng = np.random.default_rng(6)
            r = rng.uniform(lo, hi, wheel.mesh.n_elements)
            r[~wheel.free_mask] = 1.0
            c, dc = wheel.compliances(r, omegas, want_grads=True)
            t = c - wheel.smoothing.c_max
            values, grads = wheel.evaluate_records(r, omegas)
            np.testing.assert_array_equal(values, h_eval(t, wheel.smoothing))
            np.testing.assert_array_equal(
                grads, h_deriv(t, wheel.smoothing)[:, None] * dc)
            only, none = wheel.evaluate_records(r, omegas, want_grads=False)
            np.testing.assert_array_equal(only, values)
            assert none is None


# the benchmark's wheel: 72 rim nodes, so |R| = 144 loaded dofs
DEFAULT_WHEEL = wheel_problem()


def random_wheel_design(problem, seed):
    rho = np.random.default_rng(seed).uniform(0.3, 0.9, problem.n_design)
    rho[~problem.free_mask] = 1.0
    return rho


class TestWheelDenseRaw:
    """Beyond |R| points, dense_raw contracts the rim block of K^-1; up to
    |R| it solves the loads themselves, as `compliances` does."""

    def test_rim_dofs_are_the_loaded_dofs(self):
        rim = DEFAULT_WHEEL._rim_dofs
        assert rim.size == 144
        F = DEFAULT_WHEEL.load_block(np.linspace(0.0, 6.0, 40))
        loaded = np.nonzero(np.any(F != 0.0, axis=1))[0]
        np.testing.assert_array_equal(loaded, rim)

    @pytest.mark.parametrize("n", [145, 1080, 1081])
    @pytest.mark.parametrize("design", ["initial", "random"])
    def test_rim_block_route_matches_direct(self, n, design):
        problem = DEFAULT_WHEEL
        rho = (problem.initial_design() if design == "initial"
               else random_wheel_design(problem, 31))
        values, w = problem.dense_raw(rho, n)
        pts, want_w = problem.pseudo_quadrature(n)
        want, _ = problem.compliances(rho, pts)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(w, want_w)

    @pytest.mark.parametrize("n", [72, 144])
    @pytest.mark.parametrize("design", ["initial", "random"])
    def test_direct_route_up_to_rim_size(self, n, design):
        problem = DEFAULT_WHEEL
        rho = (problem.initial_design() if design == "initial"
               else random_wheel_design(problem, 31))
        values, _ = problem.dense_raw(rho, n)
        want, _ = problem.compliances(rho, problem.pseudo_quadrature(n)[0])
        np.testing.assert_array_equal(values, want)

    @pytest.mark.parametrize("n,columns", [(1080, 144), (72, 72)])
    def test_one_assembly_and_one_solve(self, monkeypatch, n, columns):
        assembled, solved = [], []
        assemble, solve = benchmarks.assemble_stiffness, FactorizedSystem.solve

        def counting_assemble(*args, **kwargs):
            assembled.append(1)
            return assemble(*args, **kwargs)

        def counting_solve(system, rhs):
            solved.append(rhs.shape[1])
            return solve(system, rhs)

        monkeypatch.setattr(benchmarks, "assemble_stiffness",
                            counting_assemble)
        monkeypatch.setattr(FactorizedSystem, "solve", counting_solve)
        DEFAULT_WHEEL.dense_raw(DEFAULT_WHEEL.initial_design(), n)
        assert assembled == [1]
        assert solved == [columns]

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_rule_rejected(self, wheel, n):
        with pytest.raises(ValueError, match="at least 1 point"):
            wheel.dense_raw(wheel.initial_design(), n)
        with pytest.raises(ValueError, match="at least 1 point"):
            wheel.baseline_nodes(n)


class TestPlate:
    def test_weakness_center_and_support(self, plate):
        xi = np.array([1.0, 0.5])
        g = plate.weakness(xi)
        d = np.linalg.norm(plate.mesh.element_centroids - xi, axis=1)
        outside = d >= plate.bump_radius
        np.testing.assert_array_equal(g[outside], 0.0)
        # multiplier at the center of the bump is 1 - 0.99 = 0.01
        assert 0.99 * np.exp(0.0) == pytest.approx(0.99)
        near = plate.weakness(plate.mesh.element_centroids[37])
        assert near[37] == pytest.approx(0.99, abs=1e-12)

    def test_bump_compact_support_and_interior_positive(self, plate):
        om = 0.5
        t = np.array([om - plate.ell / 18, om, om + plate.ell / 18,
                      om + plate.ell / 9])
        vals = plate.bump(t, om)
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[3] == 0.0
        assert vals[1] == pytest.approx(np.exp(-0.1))

    def test_initial_compliance_calibrated_to_one(self, plate):
        xi = np.array([np.mean(plate.xi_range[0]),
                       np.mean(plate.xi_range[1])])
        om = float(np.mean(plate.omega_range))
        c = plate.angle_averaged_compliance(plate.initial_design(), xi, om)
        assert c == pytest.approx(1.0, rel=1e-9)

    def test_load_zero_at_dirichlet_and_total_force(self, plate):
        Fx, Fy = plate.load_pair(0.5)
        assert np.all(Fx[plate.mesh.dirichlet_dofs] == 0.0)
        assert np.all(Fy[plate.mesh.dirichlet_dofs] == 0.0)
        # consistent lumping: total vertical force equals the bump integral
        total = -Fy.sum()
        t = np.linspace(0.5 - plate.bump_radius, 0.5 + plate.bump_radius,
                        200001)
        bump_integral = np.trapezoid(plate.bump(t, 0.5), t)
        assert total == pytest.approx(bump_integral * plate.load_scale,
                                      rel=1e-9)

    def test_total_force_mesh_independent(self):
        # the bump resultant must not depend on where edge nodes fall
        totals = []
        for nx in (4, 7, 36):
            p = plate_problem(nx=nx, ny=2, n_omega=4)
            _, Fy = p.load_pair(0.5)
            totals.append(-Fy.sum() / p.load_scale)
        np.testing.assert_allclose(totals, totals[0], rtol=1e-9)

    def test_omega_weights_form_trapezoid(self, plate):
        w = plate.omega_weights
        assert w[0] == pytest.approx(w[-1])
        assert w[1] == pytest.approx(2 * w[0])
        assert w.sum() == pytest.approx(1.0)

    def test_record_gradient_matches_finite_differences(self):
        problem = plate_problem(nx=6, ny=3, n_omega=4)
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.3, 0.8, problem.mesh.n_elements)
        xi = np.array([0.9, 0.55])
        _, grads = problem.evaluate_records(rho, [xi])
        step = 1e-6
        for j in range(0, problem.mesh.n_elements, 3):
            up, dn = rho.copy(), rho.copy()
            up[j] += step
            dn[j] -= step
            vu, _ = problem.evaluate_records(up, [xi], want_grads=False)
            vd, _ = problem.evaluate_records(dn, [xi], want_grads=False)
            fd = (vu[0] - vd[0]) / (2 * step)
            assert abs(grads[0][j] - fd) <= 1e-4 * max(abs(fd), 1e-8) + 1e-10

    def test_weakening_flag_disables_modifier(self):
        problem = plate_problem(nx=8, ny=4, n_omega=4, weakening=False)
        np.testing.assert_array_equal(problem.weakness([1.0, 0.5]), 0.0)

    def test_dense_raw_shapes_and_weights(self, plate):
        rho = plate.initial_design()
        vals, w = plate.dense_raw(rho, (3, 3))
        assert vals.shape == w.shape == (9 * plate.n_omega,)
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("grid", [(0, 3), (3, -1)])
    def test_empty_grid_rejected(self, plate, grid):
        with pytest.raises(ValueError, match="at least 1 point"):
            plate.dense_raw(plate.initial_design(), grid)


def direct_record(plate, rho, xi):
    """Oracle: (cbar, value, gradient) from factorizing K(xi) itself and
    the three per-pair sensitivity contractions."""
    system = assemble_stiffness(plate.mesh, plate.stiffness_field(rho, xi))
    cbar, Ux, Uy = plate.angle_averaged_block(system, *plate.load_block())
    t = cbar - plate.smoothing.c_max
    value = plate.omega_weights @ h_eval(t, plate.smoothing)
    ix, iy, ixy, width = angle_integrals(*plate.angle_range)
    qxx = element_quadratic_forms(plate.mesh, Ux, Ux)
    qyy = element_quadratic_forms(plate.mesh, Uy, Uy)
    qxy = element_quadratic_forms(plate.mesh, Ux, Uy)
    dcbar_ds = -(ix * qxx + iy * qyy + 2.0 * ixy * qxy) / width
    grad_s = ((plate.omega_weights * h_deriv(t, plate.smoothing)) @ dcbar_ds
              * (1.0 - plate.weakness(xi)))
    grad = df.backprop_to_design(grad_s, rho, plate.filt, plate.simp,
                                 mesh=plate.mesh)
    return cbar, value, grad


def touched_elements(plate, rho, xi):
    s0 = df.interpolate_stiffness(rho, plate.filt, plate.simp,
                                  mesh=plate.mesh)
    return np.nonzero(plate.stiffness_field(rho, xi) != s0)[0]


def assert_records_match_direct(plate, rho, xis):
    values, grads = plate.evaluate_records(rho, xis)
    h1 = plate.h1_values(rho, xis)
    for xi, value, grad, h in zip(xis, values, grads, h1, strict=True):
        _, want_value, want_grad = direct_record(plate, rho, xi)
        assert value == pytest.approx(want_value, rel=1e-10, abs=0)
        assert h == pytest.approx(want_value, rel=1e-10, abs=0)
        scale = np.abs(want_grad).max()
        assert np.abs(grad - want_grad).max() <= 1e-10 * scale


# the benchmark's element size: a xi weakens 0-2 elements in floating point
FINE = plate_problem(nx=60, ny=30, n_omega=4)
FINE_RHO = np.random.default_rng(21).uniform(0.3, 0.9, FINE.n_design)

# a wide weakness touching a dozen elements, some of them clamped, and a
# load angle interval whose cos*sin moment (zero by default) is not
WIDE = plate_problem(nx=16, ny=8, n_omega=4)
WIDE.bump_radius = 0.3
WIDE.angle_range = (0.2, 1.3)
WIDE_RHO = np.random.default_rng(22).uniform(0.3, 0.9, WIDE.n_design)


def xi_points(plate, max_size=4):
    (x0, x1), (y0, y1) = plate.xi_range
    point = st.tuples(st.floats(x0, x1), st.floats(y0, y1))
    return st.lists(point, min_size=1, max_size=max_size).map(np.array)


class TestPlateReanalysis:
    """Every xi of a call is served by one factorization of the design;
    records, dense values and H1 values agree with factorizing K(xi)."""

    @settings(max_examples=15, deadline=None)
    @given(xis=xi_points(FINE))
    def test_records_match_direct(self, xis):
        assert_records_match_direct(FINE, FINE_RHO, xis)

    @settings(max_examples=15, deadline=None)
    @given(xis=xi_points(WIDE))
    def test_records_match_direct_wide_weakness(self, xis):
        assert_records_match_direct(WIDE, WIDE_RHO, xis)

    def test_rank_zero_xi(self, plate):
        # a mesh node 0.088 from the nearest centroids, beyond the radius
        rho = np.random.default_rng(23).uniform(0.3, 0.9, plate.n_design)
        xi = np.array([0.5, 0.5])
        assert touched_elements(plate, rho, xi).size == 0
        assert_records_match_direct(plate, rho, xi[None])

    def test_xi_on_an_element_edge(self):
        # midway between two centroids: both are touched, barely
        xi = np.array([20.0 / 30.0, 15.5 / 30.0])
        assert touched_elements(FINE, FINE_RHO, xi).size == 2
        assert_records_match_direct(FINE, FINE_RHO,
                                    np.array([xi, [0.9, 0.3], xi]))

    def test_touched_element_with_dirichlet_dofs(self):
        plate = plate_problem(nx=4, ny=2, n_omega=4)
        rho = np.random.default_rng(24).uniform(0.3, 0.9, plate.n_design)
        xi = plate.mesh.element_centroids[1]
        touched = touched_elements(plate, rho, xi)
        assert touched.tolist() == [1]
        assert np.isin(plate.mesh.edof[1], plate.mesh.dirichlet_dofs).any()
        assert_records_match_direct(plate, rho, np.array([xi, [1.0, 0.5]]))

    @pytest.mark.parametrize("problem,rho", [(FINE, FINE_RHO),
                                             (WIDE, WIDE_RHO)],
                             ids=["fine", "wide"])
    def test_dense_raw_matches_direct(self, problem, rho):
        values, weights = problem.dense_raw(rho, (4, 3))
        pts, _ = problem.baseline_nodes((4, 3))
        want = np.concatenate([direct_record(problem, rho, xi)[0]
                               for xi in pts])
        np.testing.assert_allclose(values, want, rtol=1e-10)
        assert weights.sum() == pytest.approx(1.0)
