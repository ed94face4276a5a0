import numpy as np
import pytest

from smma.benchmarks import plate_problem, wheel_problem
from smma.design_field import SimpParams
from smma.driver import (CSV_HEADER, IterationLog, RunConfig, dense_cc,
                         run_smma, simp_at)
from smma.csg_weights import ParamSpace
from smma.smoothing import SmoothingParams, h_deriv, h_eval


class ToyProblem:
    """Analytic problem with a point-mass parameter distribution.

    Inner value c(rho, x) = c0 - w . rho + x; a record is h(c - c_max)
    with its design gradient. The volume objective is the plain mean of
    rho. Exercises the driver without any FEM.
    """

    name = "toy"
    default_simp_schedule = ((1, 1.0),)
    default_pseudo_points = 1
    default_verify_spec = 1

    def __init__(self, n=4, x0=0.0):
        self.n = n
        self.x0 = x0
        # a zero-width interval: every draw and node is the point itself
        self.space = ParamSpace(((x0, x0),), (False,))
        self.w = np.linspace(1.0, 2.0, n)
        self.c0 = 4.0
        self.simp = SimpParams(s=1.0)
        self.smoothing = SmoothingParams(a1=10.0, a2=0.05, a3=5.0,
                                         c_max=2.0, p_level=0.3)

    @property
    def free_mask(self):
        return np.ones(self.n, dtype=bool)

    def initial_design(self):
        return np.full(self.n, 0.75)

    def with_simp(self, s):
        return self

    def rvol(self, rho):
        return float(np.mean(rho))

    def pvol(self, rho):
        return float(np.mean(rho))

    def rvol_gradient(self):
        return np.full(self.n, 1.0 / self.n)

    def default_baseline_spec(self, batch_size):
        return 1

    def compliances(self, rho, params):
        return self.c0 - float(self.w @ rho) + np.atleast_2d(params)[:, 0]

    def evaluate_records(self, rho, params):
        t = self.compliances(rho, params) - self.smoothing.c_max
        return (h_eval(t, self.smoothing),
                h_deriv(t, self.smoothing)[:, None] * -self.w)

    def dense_raw(self, rho, spec):
        return self.compliances(rho, [[self.x0]]), np.array([1.0])


def tiny_wheel():
    return wheel_problem(n_radial=5, n_angular=12, simp_s=3.0)


def rows_equal(a, b, skip_timing=True):
    for ra, rb in zip(a.rows, b.rows):
        for name in ("iteration", "rvol", "pvol", "g_internal",
                     "g_dense_smooth", "g_dense_steepened",
                     "g_dense_nonsmooth", "tau", "store_size"):
            if getattr(ra, name) != getattr(rb, name):
                return False
    return len(a.rows) == len(b.rows)


class TestSmmaLoop:
    def test_smoke_and_shapes(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=2, iterations=6, seed=0,
                        verify_every=3, verify_spec=24, pseudo_points=64)
        seen = []
        rho, log = run_smma(problem, cfg,
                            callback=lambda k, r, s, row: seen.append((k, r.copy(), len(s))))
        assert len(log.rows) == 6
        assert rho.shape == (problem.mesh.n_elements,)
        for k, r, size in seen:
            assert np.all(r >= 0.0) and np.all(r <= 1.0)
            assert size == 2 * k
        verified = [r for r in log.rows if r.g_dense_steepened is not None]
        assert [r.iteration for r in verified] == [3, 6]
        assert all(r.g_dense_smooth is None for r in log.rows
                   if r.iteration % 3 != 0)

    def test_pinned_rim_stays_solid(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=2, iterations=4, seed=1,
                        verify_every=0)
        rho, _ = run_smma(problem, cfg)
        assert np.all(rho[~problem.free_mask] == 1.0)

    def test_determinism_same_seed(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=2, iterations=5, seed=3,
                        verify_every=5, verify_spec=24)
        r1, log1 = run_smma(problem, cfg)
        r2, log2 = run_smma(problem, cfg)
        assert np.array_equal(r1, r2)
        assert rows_equal(log1, log2)

    def test_seed_changes_trajectory(self):
        # needs the constraint active: at s=10 the feasible shell sits just
        # below the initial density, so samples steer from iteration 2 on
        problem = wheel_problem(n_radial=5, n_angular=12, simp_s=10.0)
        base = dict(method="smma", batch_size=4, iterations=10,
                    verify_every=0)
        r1, _ = run_smma(problem, RunConfig(seed=0, **base))
        r2, _ = run_smma(problem, RunConfig(seed=1, **base))
        assert not np.array_equal(r1, r2)

    def test_limited_memory_matches_uncapped_when_cap_large(self):
        problem = tiny_wheel()
        k, b = 5, 2
        cfg1 = RunConfig(method="smma", batch_size=b, iterations=k, seed=7,
                         verify_every=0)
        cfg2 = RunConfig(method="smma-limited", batch_size=b, iterations=k,
                         seed=7, memory_cap=k * b, verify_every=0)
        r1, log1 = run_smma(problem, cfg1)
        r2, log2 = run_smma(problem, cfg2)
        assert np.array_equal(r1, r2)
        assert rows_equal(log1, log2)

    def test_limited_memory_bound_holds(self):
        problem = tiny_wheel()
        cap = 6
        cfg = RunConfig(method="smma-limited", batch_size=2, iterations=8,
                        seed=2, memory_cap=cap, verify_every=0)
        sizes = []
        run_smma(problem, cfg,
                 callback=lambda k, r, s, row: sizes.append(len(s)))
        assert max(sizes) <= cap
        assert sizes[-1] == cap

    def test_simp_continuation_flushes_store(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=2, iterations=6, seed=4,
                        simp_schedule=((1, 3.0), (4, 5.0)), verify_every=0)
        sizes = {}
        run_smma(problem, cfg,
                 callback=lambda k, r, s, row: sizes.update({k: len(s)}))
        assert sizes[3] == 6
        assert sizes[4] == 2   # flushed at the exponent switch
        assert sizes[6] == 6

    def test_simp_schedule_starts_at_problem_exponent(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=1, iterations=3, seed=0,
                        simp_schedule=((3, 5.0),), verify_every=0)
        _, log = run_smma(problem, cfg)
        rho0 = problem.initial_design()
        assert log.rows[0].pvol == problem.pvol(rho0)
        assert log.rows[0].pvol != problem.with_simp(5.0).pvol(rho0)

    def test_simp_at_follows_the_schedule(self):
        problem = tiny_wheel()   # s = 3, default switch to 15 at 200
        cfg = RunConfig(simp_schedule=((4, 6.0), (2, 5.0)))
        assert [simp_at(problem, cfg, k) for k in range(1, 6)] == \
            [3.0, 5.0, 5.0, 6.0, 6.0]
        assert [simp_at(problem, RunConfig(), k) for k in (199, 200)] == \
            [3.0, 15.0]

    def test_tau_schedule_logged(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=1, iterations=4, seed=0,
                        tau=1.0, tau_schedule=(2, 0.5), verify_every=0)
        _, log = run_smma(problem, cfg)
        assert [r.tau for r in log.rows] == [1.0, 0.5, 0.5, 0.25]


class NanToy(ToyProblem):
    """ToyProblem whose third evaluate_records call returns a NaN value or
    gradient."""

    def __init__(self, where):
        super().__init__()
        self.where, self.calls = where, 0

    def evaluate_records(self, rho, params):
        values, grads = super().evaluate_records(rho, params)
        self.calls += 1
        if self.calls == 3:
            values, grads = (values * np.nan, grads) if self.where == "value" \
                else (values, grads * np.nan)
        return values, grads


@pytest.mark.parametrize("method", ["smma", "mma-quadrature"])
@pytest.mark.parametrize("where", ["value", "gradient"])
def test_non_finite_record_raises_naming_the_iteration(method, where):
    cfg = RunConfig(method=method, iterations=5, verify_every=0)
    rows = []
    with pytest.raises(FloatingPointError, match="iteration 3: "):
        run_smma(NanToy(where), cfg,
                 callback=lambda k, rho, store, row: rows.append(row))
    assert [row.iteration for row in rows] == [1, 2]


class TestBaselineLoop:
    def test_smoke(self):
        problem = tiny_wheel()
        cfg = RunConfig(method="mma-quadrature", batch_size=4, iterations=5,
                        seed=0, verify_every=0)
        rho, log = run_smma(problem, cfg)
        assert len(log.rows) == 5
        assert all(r.store_size == 0 for r in log.rows)

    def test_seed_irrelevant(self):
        problem = tiny_wheel()
        base = dict(method="mma-quadrature", batch_size=4, iterations=4,
                    verify_every=0)
        r1, _ = run_smma(problem, RunConfig(seed=0, **base))
        r2, _ = run_smma(problem, RunConfig(seed=99, **base))
        assert np.array_equal(r1, r2)

    def test_point_mass_equals_single_node_baseline(self):
        problem = ToyProblem()
        k = 12
        smma_cfg = RunConfig(method="smma", batch_size=1, iterations=k,
                             seed=5, verify_every=0)
        base_cfg = RunConfig(method="mma-quadrature", batch_size=1,
                             iterations=k, seed=5, verify_every=0)
        r1, log1 = run_smma(problem, smma_cfg)
        r2, log2 = run_smma(problem, base_cfg)
        assert np.array_equal(r1, r2)
        for a, b in zip(log1.rows, log2.rows):
            assert a.g_internal == b.g_internal
            assert a.rvol == b.rvol


class TestLogFormat:
    def test_csv_layout(self, tmp_path):
        problem = ToyProblem()
        cfg = RunConfig(method="smma", batch_size=1, iterations=3, seed=0,
                        verify_every=2)
        _, log = run_smma(problem, cfg)
        path = tmp_path / "log.csv"
        log.to_csv(path, include_timing=False)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[4] == "" and first[5] == "" and first[6] == ""
        assert first[9] == ""          # timing suppressed
        second = lines[2].split(",")
        assert second[4] != "" and second[5] != "" and second[6] != ""

    def test_csv_byte_identical_without_timing(self, tmp_path):
        problem = tiny_wheel()
        cfg = RunConfig(method="smma", batch_size=2, iterations=4, seed=11,
                        verify_every=2, verify_spec=24)
        _, log1 = run_smma(problem, cfg)
        _, log2 = run_smma(problem, cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        log1.to_csv(p1, include_timing=False)
        log2.to_csv(p2, include_timing=False)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            RunConfig(method="gradient-descent")

    def test_cap_below_batch(self):
        with pytest.raises(ValueError):
            RunConfig(method="smma-limited", batch_size=8, memory_cap=4)

    @pytest.mark.parametrize("bad", [
        dict(iterations=0), dict(batch_size=0), dict(tau=0.0),
        dict(tau=-1.0), dict(tau=float("nan")), dict(tau_schedule=(0, 0.5)),
        dict(tau_schedule=(2, 0.0)), dict(tau_schedule=(2, -1.0)),
        dict(pseudo_points=0), dict(pseudo_points=-5),
        dict(verify_every=-1),
        dict(simp_schedule=((3, 0.5),)), dict(simp_schedule=((-4, 5.0),)),
        dict(simp_schedule=((0, 5.0),)), dict(method="smma-limited"),
        dict(memory_cap=16), dict(method="mma-quadrature", memory_cap=16),
        # options no run of the method reads
        dict(baseline_spec=5),
        dict(method="smma-limited", memory_cap=16, baseline_spec=(5, 5)),
        dict(method="mma-quadrature", pseudo_points=8),
        dict(method="mma-quadrature", empirical_weights=True),
        dict(pseudo_points=8, empirical_weights=True),
        dict(seed=-1),
        # a move limit below machine epsilon cannot move the design
        dict(tau_schedule=(1, 0.5), iterations=80), dict(tau=1e-300),
        # a growing move limit moves nothing further once tau reaches 1,
        # and its power overflows on a long run
        dict(tau_schedule=(2, 1.5)),
        dict(tau_schedule=(1, 10.0), iterations=320),
        dict(tau_schedule=(2, float("nan"))),
    ])
    def test_rejected_values(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    @pytest.mark.parametrize("good", [
        dict(method="mma-quadrature", baseline_spec=5),
        dict(pseudo_points=8), dict(empirical_weights=True),
        dict(method="smma-limited", memory_cap=16, empirical_weights=True),
    ])
    def test_options_of_the_method_accepted(self, good):
        RunConfig(**good)

    def test_constant_schedule_accepted(self):
        cfg = RunConfig(tau=0.5, tau_schedule=(3, 1.0), iterations=320)
        assert cfg.tau_schedule == (3, 1.0)

    def test_schedule_period_one_accepted(self):
        # 40 halvings keep tau above machine epsilon (100 would not)
        cfg = RunConfig(tau_schedule=(1, 0.5), iterations=40)
        assert cfg.tau_schedule == (1, 0.5)


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

    @pytest.mark.parametrize("name", ["wheel", "plate"])
    def test_default_rule_is_the_problems(self, request, name):
        problem = request.getfixturevalue(name)
        rho = problem.initial_design()
        got = dense_cc(rho, problem)
        want = dense_cc(rho, problem, problem.default_verify_spec)
        assert np.array(got).tobytes() == np.array(want).tobytes()
