import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smma import benchmarks, mesh_fem
from smma import design_field as df
from smma.benchmarks import (
    DEFAULT_ANGLE_RANGE,
    angle_integrals,
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


def angle_reduced_compliance(system, Fx, Fy,
                             angle_range=DEFAULT_ANGLE_RANGE):
    """Oracle: the average over load angles of F(alpha)^T K^-1 F(alpha)
    for one load pair, F(alpha) = cos(alpha) Fx + sin(alpha) Fy, from the
    closed-form trigonometric moments and two one-column solves."""
    ix, iy, ixy, width = angle_integrals(*angle_range)
    ux = system.solve(np.asarray(Fx, dtype=float))
    uy = system.solve(np.asarray(Fy, dtype=float))
    return (ix * float(Fx @ ux) + iy * float(Fy @ uy)
            + ixy * (float(Fx @ uy) + float(Fy @ ux))) / width


@pytest.fixture(scope="module")
def wheel():
    return wheel_problem(n_radial=8, n_angular=24)


@pytest.fixture(scope="module")
def plate():
    return plate_problem(nx=16, ny=8, n_omega=8)


@pytest.mark.parametrize("kind", ["wheel", "plate"])
def test_record_gradients_are_c_ordered_rows(request, kind):
    # the baseline's lam @ grads adds in an order set by the layout: both
    # problems hand the loop one C-contiguous row per record
    problem = request.getfixturevalue(kind)
    rho = problem.initial_design()
    params = problem.space.sample(np.random.default_rng(0), 3)
    values, grads = problem.evaluate_records(rho, params)
    assert values.shape == (3,) and grads.shape == (3, rho.size)
    assert grads.flags.c_contiguous


@pytest.mark.parametrize("kind", ["wheel", "plate"])
def test_empty_batch_gives_no_records(request, kind):
    problem = request.getfixturevalue(kind)
    rho = problem.initial_design()
    none = problem.space.sample(np.random.default_rng(0), 1)[:0]
    values, grads = problem.evaluate_records(rho, none)
    assert values.shape == (0,) and grads.shape == (0, rho.size)


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

    @pytest.mark.parametrize("angle_range", [DEFAULT_ANGLE_RANGE,
                                             (0.3, 2.1)],
                             ids=["default", "skew"])
    @pytest.mark.parametrize("n", [1, 5])
    def test_block_path_matches_per_column(self, plate, n, angle_range):
        # the loads the loop, verification and calibration solve: the
        # plain compliances of columns j and n + j add up to the analytic
        # one-pair average; the default range has no cos*sin moment, the
        # skew one has
        plate = copy.copy(plate)
        plate.angle_range = angle_range
        rng = np.random.default_rng(n)
        mesh = plate.mesh
        system = assemble_stiffness(mesh, rng.uniform(0.2, 1.0,
                                                      mesh.n_elements))
        FxB = rng.standard_normal((mesh.n_dofs, n))
        FyB = rng.standard_normal((mesh.n_dofs, n))
        FxB[mesh.dirichlet_dofs] = 0.0
        FyB[mesh.dirichlet_dofs] = 0.0
        G = plate.angle_loads(FxB, FyB)
        assert G.shape == (mesh.n_dofs, 2 * n)
        c = np.einsum("db,db->b", G, system.solve(G))
        cbar = c[:n] + c[n:]
        for j in range(n):
            want = angle_reduced_compliance(system, FxB[:, j], FyB[:, j],
                                            angle_range)
            assert cbar[j] == pytest.approx(want, rel=1e-12)


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
        assert mask.sum() == wheel.mesh.n_elements - wheel.mesh.solid.size
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
        _, g0, _ = aggregate_cc(v0, w, wheel.smoothing)
        _, g1, _ = aggregate_cc(v1, w, wheel.smoothing)
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


# the benchmark's wheel: 72 rim nodes, so |R| = 144 loaded dofs
DEFAULT_WHEEL = wheel_problem()


def full_rim_loads(problem, omegas):
    """Oracle: the traction at every rim angle for every omega."""
    f = problem.intensity(problem._rim_beta[:, None],
                          np.asarray(omegas)[None, :]) * problem.load_scale
    return problem._rim_op @ f


class TestWindowedRimLoads:
    """rim_loads evaluates the traction only near each omega; the result
    equals the full evaluation bit for bit."""

    @pytest.mark.parametrize("problem", [
        DEFAULT_WHEEL,
        wheel_problem(n_radial=4, n_angular=10),
        # the fewest rim edges the builder allows: a window of 3 of 8
        wheel_problem(n_radial=4, n_angular=8),
        wheel_problem(n_radial=4, n_angular=13),
    ], ids=["72", "10", "8", "13"])
    def test_matches_full_evaluation(self, problem):
        rng = np.random.default_rng(41)
        # the peaks on edge boundaries, and one ulp to either side
        na = problem.mesh.shape[1]
        peaks = np.pi / 2.0 - np.arange(na) * (2.0 * np.pi / na)
        batches = [problem.space.pseudo_rule(1080)[0][:, 0],
                   np.array([0.0, np.pi, 2.0 * np.pi - 1e-12,
                             -np.pi + 1e-9]),
                   peaks, np.nextafter(peaks, np.inf),
                   np.nextafter(peaks, -np.inf)]
        batches += [rng.uniform(0.0, 2.0 * np.pi, 8) for _ in range(40)]
        for omegas in batches:
            np.testing.assert_array_equal(problem.rim_loads(omegas),
                                          full_rim_loads(problem, omegas))

    def test_window_covers_every_nonzero_intensity(self):
        # the window half-width lies past the last angle with a nonzero
        # intensity, as the bit-identity above relies on
        d = np.linspace(0.0, np.pi, 200001)
        nonzero = DEFAULT_WHEEL.intensity(d, 0.0) != 0.0
        assert 0.19 < d[nonzero].max() < benchmarks._LOAD_WINDOW


def random_wheel_design(problem, seed):
    rho = np.random.default_rng(seed).uniform(0.3, 0.9, problem.n_design)
    rho[~problem.free_mask] = 1.0
    return rho


class TestWheelDenseRaw:
    """dense_raw contracts the rim block of K^-1, from the stiffness
    condensed onto the rim, for every rule size."""

    def test_rim_dofs_are_the_loaded_dofs(self):
        rim = DEFAULT_WHEEL._rim_dofs
        assert rim.size == 144
        F = DEFAULT_WHEEL.load_block(np.linspace(0.0, 6.0, 40))
        loaded = np.nonzero(np.any(F != 0.0, axis=1))[0]
        np.testing.assert_array_equal(loaded, rim)

    @pytest.mark.parametrize("n", [72, 144, 145, 1080, 1081])
    @pytest.mark.parametrize("design", ["initial", "random"])
    def test_rim_block_route_matches_direct(self, n, design):
        problem = DEFAULT_WHEEL
        rho = (problem.initial_design() if design == "initial"
               else random_wheel_design(problem, 31))
        values, w = problem.dense_raw(rho, n)
        pts, want_w = problem.space.pseudo_rule(n)
        want, _ = problem.compliances(rho, pts)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(w, want_w)

    @pytest.mark.parametrize("design", ["initial", "random"])
    def test_contraction_is_the_summed_product(self, design):
        # the two-operand einsum adds each column's products in row order,
        # as the sum of the full product block does
        problem = DEFAULT_WHEEL
        rho = (problem.initial_design() if design == "initial"
               else random_wheel_design(problem, 32))
        values, _ = problem.dense_raw(rho, 1080)
        FR = problem._rule_cache[1]
        system = assemble_stiffness(problem._rim_view,
                                    problem.stiffness_field(rho))
        want = np.sum(FR * system.solve(FR), axis=0)
        assert np.array_equal(values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [1080, 72])
    def test_one_assembly_and_one_solve(self, monkeypatch, n):
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
        # the rule's loads, one column per point
        assert solved == [n]

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_rule_rejected(self, wheel, n):
        with pytest.raises(ValueError, match="at least 1 point"):
            wheel.dense_raw(wheel.initial_design(), n)
        with pytest.raises(ValueError, match="at least 1 point"):
            wheel.space.trapezoid_rule(n)

    def test_fractional_rule_rejected(self, wheel):
        # int(7.9) would verify on 7 points
        with pytest.raises(ValueError, match="whole number of points"):
            wheel.dense_raw(wheel.initial_design(), 7.9)

    def test_dense_raw_rule_kept_per_spec_and_load_scale(self, monkeypatch):
        wheel = wheel_problem(n_radial=8, n_angular=24)
        rhos = [random_wheel_design(wheel, seed) for seed in (27, 28)]
        rim_loads = wheel.rim_loads
        built = []

        def counting_rim_loads(omegas):
            built.append(1)
            return rim_loads(omegas)

        monkeypatch.setattr(wheel, "rim_loads", counting_rim_loads)
        # (spec, load_scale, rim load blocks the call builds): a call with
        # the kept rule and load_scale builds none, however the counts are
        # spelled
        for k, (spec, scale, builds) in enumerate((
                (96, None, 1), (96, None, 0), (96.0, None, 0),
                ([96], None, 0), (48, None, 1), (96, None, 1),
                (96, 0.5, 1), (96, 0.5, 0), (1080, 0.5, 1), (1080, 0.5, 0))):
            want = wheel_problem(n_radial=8, n_angular=24)
            if scale is not None:
                wheel.load_scale = want.load_scale = scale
            rho = rhos[k % 2]
            del built[:]
            got = wheel.dense_raw(rho, spec)
            assert len(built) == builds
            # bit-identical to a problem that builds its rule afresh
            for g, w in zip(got, want.dense_raw(rho, spec), strict=True):
                np.testing.assert_array_equal(g, w)

    def test_simp_clone_verifies_under_its_exponent(self):
        wheel = wheel_problem(n_radial=8, n_angular=24)
        rho = random_wheel_design(wheel, 29)
        before = wheel.dense_raw(rho, 96)     # the clone shares this rule
        clone = wheel.with_simp(5.0)
        for g, w in zip(clone.dense_raw(rho, 96),
                        wheel_problem(n_radial=8, n_angular=24)
                        .with_simp(5.0).dense_raw(rho, 96), strict=True):
            np.testing.assert_array_equal(g, w)
        # a clone's new rule leaves the original's results alone
        clone.dense_raw(rho, 48)
        for g, w in zip(wheel.dense_raw(rho, 96), before, strict=True):
            np.testing.assert_array_equal(g, w)


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
        # the centres of the xi box and of the omega interval (ell = 1)
        xi, om = np.array([1.0, 0.5]), 0.5
        np.testing.assert_array_equal(plate.space.centre(), xi)
        assert plate.omega_space.centre() == pytest.approx([om], rel=1e-15)
        system = assemble_stiffness(
            plate.mesh, weakened_field(plate, plate.initial_design(), xi))
        Fx, Fy = plate.load_columns([om])
        c = angle_reduced_compliance(system, Fx[:, 0], Fy[:, 0],
                                     plate.angle_range)
        assert c == pytest.approx(1.0, rel=1e-9)

    def test_load_zero_at_dirichlet_and_total_force(self, plate):
        Fx, Fy = plate.load_columns([0.5])
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
            _, Fy = p.load_columns([0.5])
            totals.append(-Fy.sum() / p.load_scale)
        np.testing.assert_allclose(totals, totals[0], rtol=1e-9)

    @pytest.mark.parametrize("problem", [plate_problem(),
                                         plate_problem(nx=7, ny=3,
                                                       n_omega=5, ell=2.5)],
                             ids=["60x30", "7x3"])
    def test_profile_matches_panel_loop(self, problem):
        rng = np.random.default_rng(42)
        ell = problem.ell
        omegas = np.concatenate([problem.omega_nodes,
                                 rng.uniform(-0.2 * ell, 2.2 * ell, 200)])
        assert (omegas < 0.0).any() and (omegas > 2.0 * ell).any()
        # one omega at a time, and all of them in one pass
        profiles = problem._profiles(omegas)
        assert profiles.shape == (problem._top_x.size, omegas.size)
        for j, omega in enumerate(omegas):
            want = looped_profile(problem, float(omega))
            np.testing.assert_array_equal(
                problem._profiles([float(omega)])[:, 0], want)
            np.testing.assert_array_equal(profiles[:, j], want)
        # the load blocks over the omega nodes, column by column
        FxB, FyB = problem.load_columns(problem.omega_nodes)
        G = problem.load_block()
        n = problem.n_omega
        top = 2 * problem._top_nodes
        for j, omega in enumerate(problem.omega_nodes):
            want = looped_profile(problem, float(omega)) * problem.load_scale
            Fx, Fy = problem.load_columns([float(omega)])
            np.testing.assert_array_equal(FxB[:, j], Fx[:, 0])
            np.testing.assert_array_equal(FyB[:, j], Fy[:, 0])
            np.testing.assert_array_equal(FxB[top, j], want)
            np.testing.assert_array_equal(FyB[top + 1, j], -want)
            np.testing.assert_array_equal(
                G[:, [j, n + j]], problem.angle_loads(Fx, Fy))

    @pytest.mark.parametrize("ell", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_ell_rejected(self, ell):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ell must be positive"):
                plate_problem(nx=4, ny=2, n_omega=2, ell=ell)

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
            vu = problem.evaluate_records(up, [xi])[0]
            vd = problem.evaluate_records(dn, [xi])[0]
            fd = (vu[0] - vd[0]) / (2 * step)
            assert abs(grads[0][j] - fd) <= 1e-4 * max(abs(fd), 1e-8) + 1e-10

    def test_dense_raw_shapes_and_weights(self, plate):
        rho = plate.initial_design()
        vals, w = plate.dense_raw(rho, (3, 3))
        assert vals.shape == w.shape == (9 * plate.n_omega,)
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("grid", [(0, 3), (3, -1)])
    def test_empty_grid_rejected(self, plate, grid):
        with pytest.raises(ValueError, match="at least 1 point"):
            plate.dense_raw(plate.initial_design(), grid)


def looped_profile(plate, omega):
    """Oracle: the consistent top-edge profile, one panel at a time."""
    x = plate._top_x
    nodal = np.zeros(x.size)
    gp, gw = plate._gauss
    lo = max(omega - plate.bump_radius, x[0])
    hi = min(omega + plate.bump_radius, x[-1])
    if hi <= lo:
        return nodal
    u = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                        plate._bump_panels + 1)))
    cuts = lo + (hi - lo) * u
    cuts = np.unique(np.concatenate([cuts, x[(x > lo) & (x < hi)]]))
    for a, b in zip(cuts[:-1], cuts[1:]):
        e = min(int(np.searchsorted(x, 0.5 * (a + b)) - 1), x.size - 2)
        t = 0.5 * (b - a) * gp + 0.5 * (a + b)
        w = 0.5 * (b - a) * gw * plate.bump(t, omega)
        phi = (t - x[e]) / (x[e + 1] - x[e])
        nodal[e] += np.sum(w * (1.0 - phi))
        nodal[e + 1] += np.sum(w * phi)
    return nodal


def weakened_field(plate, rho, xi):
    """Oracle: the element factors of K(xi), the SIMP stiffness of rho
    times 1 - g_xi."""
    interp = df.interpolate_stiffness(rho, plate.filt, plate.simp,
                                      mesh=plate.mesh)
    return interp * (1.0 - plate.weakness(xi))


def direct_record(plate, rho, xi):
    """Oracle: (cbar, value, gradient) from factorizing K(xi) itself,
    solving the unit loads Fx and Fy of the omega nodes, and applying the
    angle moments by the formula, with the three per-pair sensitivity
    contractions."""
    system = assemble_stiffness(plate.mesh, weakened_field(plate, rho, xi))
    Fx, Fy = plate.load_columns(plate.omega_nodes)
    Ux, Uy = system.solve(Fx), system.solve(Fy)
    ix, iy, ixy, width = angle_integrals(*plate.angle_range)
    cbar = (ix * np.einsum("db,db->b", Fx, Ux)
            + iy * np.einsum("db,db->b", Fy, Uy)
            + ixy * (np.einsum("db,db->b", Fx, Uy)
                     + np.einsum("db,db->b", Fy, Ux))) / width
    t = cbar - plate.smoothing.c_max
    value = plate.omega_weights @ h_eval(t, plate.smoothing)
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
    return np.nonzero(weakened_field(plate, rho, xi) != s0)[0]


def assert_records_match_direct(plate, rho, xis):
    values, grads = plate.evaluate_records(rho, xis)
    for xi, value, grad in zip(xis, values, grads, strict=True):
        _, want_value, want_grad = direct_record(plate, rho, xi)
        assert value == pytest.approx(want_value, rel=1e-10, abs=0)
        scale = np.abs(want_grad).max()
        assert np.abs(grad - want_grad).max() <= 1e-10 * scale


def assert_gradients_match_direct(plate, rho, xis):
    """The gradients from U0 plus a rank-r correction agree with
    factorizing K(xi) to 1e-12 of the largest entry."""
    _, grads = plate.evaluate_records(rho, xis)
    for xi, grad in zip(xis, grads, strict=True):
        want = direct_record(plate, rho, xi)[2]
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()


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
    (x0, x1), (y0, y1) = plate.space.bounds
    point = st.tuples(st.floats(x0, x1), st.floats(y0, y1))
    return st.lists(point, min_size=1, max_size=max_size).map(np.array)


class TestPlateReanalysis:
    """Every xi of a call is served by one factorization of the design;
    records with and without gradients and dense values agree with
    factorizing K(xi)."""

    @settings(max_examples=15, deadline=None)
    @given(xis=xi_points(FINE))
    def test_records_match_direct(self, xis):
        assert_records_match_direct(FINE, FINE_RHO, xis)

    @settings(max_examples=15, deadline=None)
    @given(xis=xi_points(WIDE))
    def test_records_match_direct_wide_weakness(self, xis):
        assert_records_match_direct(WIDE, WIDE_RHO, xis)

    def test_one_backprop_per_batch(self, monkeypatch):
        rows = []
        backprop = df.backprop_to_design

        def counting_backprop(g, *args, **kwargs):
            rows.append(np.shape(g))
            return backprop(g, *args, **kwargs)

        xis = FINE.space.sample(np.random.default_rng(6), 3)
        want = FINE.evaluate_records(FINE_RHO, xis)
        monkeypatch.setattr(df, "backprop_to_design", counting_backprop)
        got = FINE.evaluate_records(FINE_RHO, xis)
        assert rows == [(3, FINE.mesh.n_elements)]
        assert got[1].flags.c_contiguous
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_rank_zero_xi(self, plate):
        # a mesh node 0.088 from the nearest centroids, beyond the radius
        rho = np.random.default_rng(23).uniform(0.3, 0.9, plate.n_design)
        xi = np.array([0.5, 0.5])
        assert touched_elements(plate, rho, xi).size == 0
        assert_records_match_direct(plate, rho, xi[None])
        assert_gradients_match_direct(plate, rho, xi[None])

    def test_xi_on_an_element_edge(self):
        # midway between two centroids: both are touched, barely
        xi = np.array([20.0 / 30.0, 15.5 / 30.0])
        assert touched_elements(FINE, FINE_RHO, xi).size == 2
        assert_records_match_direct(FINE, FINE_RHO,
                                    np.array([xi, [0.9, 0.3], xi]))
        assert_gradients_match_direct(FINE, FINE_RHO, xi[None])

    def test_touched_element_with_dirichlet_dofs(self):
        plate = plate_problem(nx=4, ny=2, n_omega=4)
        rho = np.random.default_rng(24).uniform(0.3, 0.9, plate.n_design)
        xi = plate.mesh.element_centroids[1]
        touched = touched_elements(plate, rho, xi)
        assert touched.tolist() == [1]
        assert np.isin(plate.mesh.edof[1], plate.mesh.dirichlet_dofs).any()
        assert_records_match_direct(plate, rho, np.array([xi, [1.0, 0.5]]))
        assert_gradients_match_direct(plate, rho, xi[None])

    @pytest.mark.parametrize("problem,rho", [(FINE, FINE_RHO),
                                             (WIDE, WIDE_RHO)],
                             ids=["fine", "wide"])
    def test_gradients_match_direct_to_1e_12(self, problem, rho):
        rng = np.random.default_rng(43)
        xis = problem.space.sample(rng, 6)
        assert_gradients_match_direct(problem, rho, xis)

    @pytest.mark.parametrize("problem,rho", [(FINE, FINE_RHO),
                                             (WIDE, WIDE_RHO)],
                             ids=["fine", "wide"])
    def test_dense_raw_matches_direct(self, problem, rho):
        values, weights = problem.dense_raw(rho, (4, 3))
        pts, _ = problem.space.trapezoid_rule((4, 3))
        want = np.concatenate([direct_record(problem, rho, xi)[0]
                               for xi in pts])
        np.testing.assert_allclose(values, want, rtol=1e-10)
        assert weights.sum() == pytest.approx(1.0)

    def test_angle_range_and_load_scale_rebuild_both_caches(self):
        # a fresh problem: the load block and the rule plan are kept per
        # problem; bump_radius, which the loads and the weakness both
        # read, rebuilds them too
        plate = plate_problem(nx=16, ny=8, n_omega=4)
        rho = np.random.default_rng(26).uniform(0.3, 0.9, plate.n_design)
        pts, _ = plate.space.trapezoid_rule((3, 2))
        G = plate.load_block()
        _, groups = plate._rule_plan((3, 2))
        assert plate.load_block() is G
        assert plate._rule_plan((3, 2))[1] is groups
        for attr, value in (("angle_range", (0.2, 1.3)),
                            ("load_scale", 2.0 * plate.load_scale),
                            ("bump_radius", 0.15)):
            setattr(plate, attr, value)
            G = plate.load_block()
            np.testing.assert_array_equal(G, plate.angle_loads(
                *plate.load_columns(plate.omega_nodes)))
            _, rebuilt = plate._rule_plan((3, 2))
            assert rebuilt is not groups
            groups = rebuilt
            for view, GK, _ in groups:
                np.testing.assert_array_equal(GK, G[view.keep])
            want = np.concatenate([direct_record(plate, rho, xi)[0]
                                   for xi in pts])
            np.testing.assert_allclose(plate.dense_raw(rho, (3, 2))[0], want,
                                       rtol=1e-10)

    @staticmethod
    def counting_changed(monkeypatch, plate):
        """The points of each call of the batched weakness kernel."""
        points = []
        changed = plate._changed

        def counted(xis):
            points.append(len(np.atleast_2d(xis)))
            return changed(xis)

        monkeypatch.setattr(plate, "_changed", counted)
        return points

    @pytest.mark.parametrize("budget", [None, 100])
    def test_dense_raw_evaluates_the_weakness_once_per_point(
            self, monkeypatch, budget):
        # a fresh problem: the rule's weakness is kept per problem
        plate = plate_problem(nx=60, ny=30, n_omega=4)
        points = self.counting_changed(monkeypatch, plate)
        if budget is not None:
            # several groups of points, one factorization each
            monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES", budget ** 2)
        plate.dense_raw(FINE_RHO, (5, 4))
        # one batched pass over the rule's 20 points
        assert points == [20]
        # a second call on the same rule evaluates none
        plate.dense_raw(FINE_RHO[::-1], (5, 4))
        assert points == [20]

    def test_dense_raw_groups_within_the_block_budget(self, monkeypatch):
        rho = np.random.default_rng(25).uniform(0.3, 0.9, FINE.n_design)
        whole, weights = FINE.dense_raw(rho, (5, 5))
        # a fresh problem groups the rule under the budget set below
        plate = plate_problem(nx=60, ny=30, n_omega=4)
        kept = []
        assemble = benchmarks.assemble_stiffness

        def counting_assemble(view, s):
            kept.append(view.keep.size)
            return assemble(view, s)

        monkeypatch.setattr(benchmarks, "assemble_stiffness",
                            counting_assemble)
        budget = 100
        monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES", budget ** 2)
        values, w = plate.dense_raw(rho, (5, 5))
        assert len(kept) >= 2 and max(kept) <= budget
        np.testing.assert_allclose(values, whole, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(w, weights)

    def test_dense_raw_rule_kept_per_spec_and_load_scale(self, monkeypatch):
        plate = plate_problem(nx=60, ny=30, n_omega=4)
        rng = np.random.default_rng(26)
        rhos = [rng.uniform(0.3, 0.9, plate.n_design) for _ in range(2)]
        evaluated = self.counting_changed(monkeypatch, plate)
        # (spec, load_scale, points whose weakness the call evaluates): a
        # call with the kept spec and load_scale evaluates none
        for k, (spec, scale, points) in enumerate((
                ((5, 5), None, 25), ((5, 5), None, 0), ((4, 3), None, 12),
                ((5, 5), None, 25), ((5, 5), 0.5, 25), ((5, 5), 0.5, 0))):
            want = plate_problem(nx=60, ny=30, n_omega=4)
            if scale is not None:
                plate.load_scale = want.load_scale = scale
            rho = rhos[k % 2]
            del evaluated[:]
            got = plate.dense_raw(rho, spec)
            assert sum(evaluated) == points
            # bit-identical to a problem that builds its rule afresh
            for g, w in zip(got, want.dense_raw(rho, spec), strict=True):
                np.testing.assert_array_equal(g, w)


def changed_per_xi(plate, xis):
    """Oracle: (touched, kept) per xi from the weakness over every element,
    one xi at a time."""
    touched, kept = [], []
    for xi in xis:
        k = 1.0 - plate.weakness(xi)
        touched.append(np.flatnonzero(k < 1.0))
        kept.append(k[touched[-1]])
    return touched, kept


def weakness_cases():
    """(name, plate, xis) for the batched weakness kernel."""
    pts, _ = DEFAULT.space.trapezoid_rule((50, 50))
    yield "default-50x50", DEFAULT, pts
    for name, plate in (("default", DEFAULT), ("wide", WIDE)):
        c = plate.mesh.element_centroids
        (x0, x1), (y0, y1) = plate.space.bounds
        corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
        # centres where the disc crosses the plate's edges and corners
        r = plate.bump_radius
        edges = np.array([[0.5 * r, 0.5], [1.0, 0.5 * r], [1.0, 1.0 - r / 3],
                          [2.0 - 0.1 * r, 0.7], [0.0, 0.0], [2.0, 1.0]])
        yield f"{name}-centroids", plate, c[::3]
        yield f"{name}-corners", plate, corners
        yield f"{name}-edges", plate, edges
        # midway between neighbouring centroids: on an element edge
        yield f"{name}-midpoints", plate, 0.5 * (c[:-1] + c[1:])[::5]


def assert_changed_per_xi(plate, xis, name=""):
    """_changed of xis holds, change by change, the elements and the bits
    of kept of changed_per_xi; xis may be one xi, or a list."""
    slots, kept = plate._changed(xis)
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    want_touched, want_kept = changed_per_xi(plate, xis)
    assert slots.dofs.shape[0] == len(xis), name
    assert kept.shape == slots.elements.shape == slots.owner.shape, name
    for p, (wt, wk) in enumerate(zip(want_touched, want_kept, strict=True)):
        mine = slots.owner == p
        np.testing.assert_array_equal(slots.elements[mine], wt, err_msg=name)
        assert kept[mine].tobytes() == wk.tobytes(), name
    return slots


class TestBatchedWeakness:
    """The plate's batched weakness kernel against the per-xi path it
    replaced, bit for bit."""

    def test_changed_matches_the_per_xi_weakness(self):
        for name, plate, xis in weakness_cases():
            slots = assert_changed_per_xi(plate, xis, name)
            assert slots.elements.size > 0, name

    def test_one_xi_and_one_list_xi(self):
        xi = DEFAULT.mesh.element_centroids[40]
        for arg in (xi, xi.tolist(), [xi.tolist()]):
            assert assert_changed_per_xi(DEFAULT, arg).elements.size > 0


# the default plate: 46 loaded dofs against 64 loads, so its block holds
# the unit columns of T and S; FINE and WIDE (4 omega nodes, 8 loads) hold
# the loads themselves
DEFAULT = plate_problem()
DEFAULT_RHO = np.random.default_rng(27).uniform(0.3, 0.9, DEFAULT.n_design)


def two_solve_kernel(plate, system, s0, xis, G):
    """Oracle: the plate kernel in its per-xi form. One block solve of the
    loads G, one of the unit columns of the union of the xi's update dofs,
    and per xi its own Woodbury update on the free dofs S of the elements
    whose factor moves: M = (I + dK Z_S)^-1 dK. Returns U0 and per xi
    (cbar, rows of S, Z, M, touched, kept)."""
    mesh = plate.mesh
    U0 = system.solve(G)
    c0 = np.einsum("db,db->b", G, U0)
    n = c0.size // 2
    parts = []
    for xi in xis:
        kept = 1.0 - plate.weakness(xi)
        touched = np.flatnonzero(kept < 1.0)
        s = s0[touched] * kept[touched]
        moved = touched[s != s0[touched]]
        edof = mesh.edof[moved]
        dofs, local = np.unique(edof, return_inverse=True)
        local = local.reshape(edof.shape)
        dK = np.zeros((dofs.size, dofs.size))
        np.add.at(dK, (local[:, :, None], local[:, None, :]),
                  (s[s != s0[touched]] - s0[moved])[:, None, None]
                  * mesh.element_matrices[moved])
        free = ~np.isin(dofs, mesh.dirichlet_dofs)
        parts.append((touched, kept[touched], dofs[free],
                      dK[np.ix_(free, free)]))
    union = np.unique(np.concatenate([d for _, _, d, _ in parts]))
    # K0^-1 at the union, from one block solve of its unit columns
    P = np.zeros((system.n_rows, union.size))
    P[system.rows(union), np.arange(union.size)] = 1.0
    Z_union = system.solve(P)
    out = []
    for touched, kept, dofs, dK in parts:
        rows = system.rows(dofs)
        Z = Z_union[:, np.searchsorted(union, dofs)]
        M = np.linalg.solve(np.eye(dofs.size) + dK @ Z[rows], dK)
        c = c0 - np.sum(U0[rows] * (M @ U0[rows]), axis=0)
        out.append((c[:n] + c[n:], rows, Z, M, touched, kept))
    return U0, out


def two_solve_records(plate, rho, xis):
    """Oracle: evaluate_records through two_solve_kernel, with one
    correction contraction per xi."""
    s0 = df.interpolate_stiffness(rho, plate.filt, plate.simp,
                                  mesh=plate.mesh)
    system = assemble_stiffness(plate._whole, s0)
    U0, parts = two_solve_kernel(plate, system, s0, xis, plate.load_block())
    q0 = element_quadratic_forms(plate.mesh, U0, U0)
    w, smoothing = plate.omega_weights, plate.smoothing
    values, grads = [], []
    for cbar, rows, Z, M, touched, kept in parts:
        t = cbar - smoothing.c_max
        values.append(w @ h_eval(t, smoothing))
        coef = np.tile(w * h_deriv(t, smoothing), 2)
        C = M @ U0[rows]
        BCt = coef[:, None] * C.T
        Y = Z @ (C @ BCt) - 2.0 * (U0 @ BCt)
        grad = -(coef @ q0
                 + element_quadratic_forms(plate.mesh, Z, Y).sum(axis=0))
        grad[touched] *= kept
        grads.append(grad)
    return np.array(values), df.backprop_to_design(
        np.stack(grads), rho, plate.filt, plate.simp, mesh=plate.mesh)


def two_solve_dense(plate, rho, spec):
    """Oracle: dense_raw's values through two_solve_kernel on the views of
    the rule's plan, one group of consecutive points per view."""
    pts, _ = plate.space.trapezoid_rule(spec)
    s0 = df.interpolate_stiffness(rho, plate.filt, plate.simp,
                                  mesh=plate.mesh)
    values, start = [], 0
    for view, GK, (slots, _) in plate._rule_plan(spec)[1]:
        stop = start + slots.dofs.shape[0]
        _, parts = two_solve_kernel(plate, assemble_stiffness(view, s0), s0,
                                    pts[start:stop], GK)
        values.extend(cbar for cbar, *_ in parts)
        start = stop
    assert start == len(pts)
    return np.concatenate(values)


def oracle_case(name):
    """(problem, rho, xis) of one case of TestStackedUpdates."""
    if name == "rank-zero":
        # a mesh node 0.088 from the nearest centroids, beyond the radius
        plate = plate_problem(nx=16, ny=8, n_omega=8)
        rho = np.random.default_rng(23).uniform(0.3, 0.9, plate.n_design)
        return plate, rho, np.array([[0.5, 0.5]])
    if name == "dirichlet":
        plate = plate_problem(nx=4, ny=2, n_omega=4)
        rho = np.random.default_rng(24).uniform(0.3, 0.9, plate.n_design)
        return plate, rho, np.array([plate.mesh.element_centroids[1],
                                     [1.0, 0.5]])
    plate, rho = {"wide": (WIDE, WIDE_RHO), "loads": (FINE, FINE_RHO),
                  "loaded-dofs": (DEFAULT, DEFAULT_RHO)}[name]
    return plate, rho, plate.space.sample(np.random.default_rng(44), 8)


def loaded_dofs(plate):
    return np.flatnonzero(np.any(plate.load_block(), axis=1))


class TestStackedUpdates:
    """The stacked kernel, one block solve and one stacked Woodbury
    update per factorization, against the per-xi two-solve kernel it
    replaced, at 1e-12."""

    @pytest.mark.parametrize("name", ["rank-zero", "dirichlet", "wide",
                                      "loads", "loaded-dofs"])
    def test_records_match_the_two_solve_kernel(self, name):
        plate, rho, xis = oracle_case(name)
        if name == "rank-zero":
            assert touched_elements(plate, rho, xis[0]).size == 0
        if name == "dirichlet":
            assert touched_elements(plate, rho, xis[0]).tolist() == [1]
            assert np.isin(plate.mesh.edof[1],
                           plate.mesh.dirichlet_dofs).any()
        if name in ("loads", "loaded-dofs"):
            # which load basis the block holds
            assert ((loaded_dofs(plate).size < 2 * plate.n_omega)
                    == (name == "loaded-dofs"))
        values, grads = plate.evaluate_records(rho, xis)
        want_values, want_grads = two_solve_records(plate, rho, xis)
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
        scale = np.abs(want_grads).max()
        assert np.abs(grads - want_grads).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["wide", "loads", "loaded-dofs"])
    def test_dense_raw_matches_the_two_solve_kernel(self, name):
        plate, rho, _ = oracle_case(name)
        values, _ = plate.dense_raw(rho, (4, 3))
        np.testing.assert_allclose(values, two_solve_dense(plate, rho, (4, 3)),
                                   rtol=1e-12, atol=0)

    @staticmethod
    def counting(monkeypatch):
        """Counters of the factorizations, block solves and element
        quadratic forms that the problems make."""
        calls = {"assemble": 0, "solve": 0, "qforms": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(benchmarks, "assemble_stiffness",
                            counted("assemble", benchmarks.assemble_stiffness))
        monkeypatch.setattr(FactorizedSystem, "solve",
                            counted("solve", FactorizedSystem.solve))
        monkeypatch.setattr(benchmarks, "element_quadratic_forms",
                            counted("qforms",
                                    benchmarks.element_quadratic_forms))
        return calls

    @pytest.mark.parametrize("name", ["rank-zero", "dirichlet", "wide",
                                      "loads", "loaded-dofs"])
    def test_records_take_one_solve_per_factorization(self, monkeypatch,
                                                      name):
        plate, rho, xis = oracle_case(name)
        calls = self.counting(monkeypatch)
        plate.evaluate_records(rho, xis)
        assert calls["assemble"] == calls["solve"] == 1
        assert calls["qforms"] <= 2

    @pytest.mark.parametrize("budget", [None, 100])
    def test_dense_raw_takes_one_solve_per_group(self, monkeypatch, budget):
        # a fresh problem groups the rule under the budget set below
        plate = plate_problem(nx=60, ny=30, n_omega=4)
        if budget is not None:
            monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES",
                                budget ** 2)
        groups = len(plate._rule_plan((5, 4))[1])
        assert (groups > 1) == (budget is not None)
        calls = self.counting(monkeypatch)
        plate.dense_raw(FINE_RHO, (5, 4))
        assert calls["assemble"] == calls["solve"] == groups
        assert calls["qforms"] == 0

    def test_chunking_a_condensed_view_moves_no_bit(self, monkeypatch):
        # a condensed update gathers its entries of S^-1 exactly, so where
        # the chunks of a view end changes no bit of dense_raw
        plate = plate_problem(nx=60, ny=30, n_omega=4)
        chunks = []
        weakened = plate._weakened_blocks

        def counted(*args):
            U0, blocks = weakened(*args)
            return U0, (chunks.append(cbar.shape[0]) or (cbar, update)
                        for cbar, update in blocks)

        monkeypatch.setattr(plate, "_weakened_blocks", counted)
        want, weights = plate.dense_raw(FINE_RHO, (5, 4))
        assert chunks == [20]
        # the plan's key holds no budget: its one view stays, and a budget
        # of a few changes' columns of that view splits its points
        ((view, _, (slots, _)),) = plate._rule_plan((5, 4))[1]
        monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES",
                            6 * slots.dofs.shape[1] * view.keep.size)
        chunks.clear()
        got, w = plate.dense_raw(FINE_RHO, (5, 4))
        assert len(chunks) >= 3 and sum(chunks) == 20
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(w, weights)


@pytest.mark.parametrize("kind,spec", [("wheel", 96), ("plate", (3, 2))])
def test_dense_raw_weights_are_the_callers(request, kind, spec):
    # both problems keep their rule's weights; a caller that writes to the
    # arrays it got changes no later call
    problem = request.getfixturevalue(kind)
    rho = problem.initial_design()
    want = [a.copy() for a in problem.dense_raw(rho, spec)]
    for _ in range(2):
        for a in problem.dense_raw(rho, spec):
            a[:] = np.nan
    for g, w in zip(problem.dense_raw(rho, spec), want, strict=True):
        np.testing.assert_array_equal(g, w)
