import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smma.benchmarks import WheelProblem, plate_problem
from smma.csg_weights import (
    ParamSpace,
    SampleStore,
    _owners,
    aggregate,
    empirical_weights,
    evict_min_weight,
    pseudoexact_weights,
)
from smma.smoothing import SmoothingParams, h_eval


def unit_box(dim=1):
    return ParamSpace(((0.0, 1.0),) * dim, (False,) * dim)


def circle(period=2 * np.pi):
    return ParamSpace(((0.0, period),), (True,))


def make_store(space, designs, params, values=None, grads=None):
    """Record k as a batch of its own at designs[k], born at iteration k."""
    store = SampleStore(space)
    designs = np.atleast_2d(np.asarray(designs, dtype=float))
    K = len(designs)
    params = np.asarray(params, dtype=float).reshape(K, -1)
    values = np.zeros(K) if values is None else np.asarray(values, float)
    grads = np.zeros_like(designs) if grads is None else np.asarray(grads,
                                                                    float)
    for k in range(K):
        store.append(designs[k], params[k:k + 1], values[k:k + 1],
                     grads[k:k + 1], k)
    return store


class TestJointDistance:
    """The two terms of the squared joint distance."""

    def test_identical_points(self):
        u = np.array([0.3, 0.4, 0.5])
        x = np.array([0.1, 0.9])
        assert unit_box(2).dist2(x, x) == 0.0
        store = make_store(unit_box(2), [u], [x])
        np.testing.assert_array_equal(store.design_offsets(u), [0.0])

    def test_circular_wraparound(self):
        # 0.2 the short way round, in units of the period
        d2 = circle().dist2([0.1], [2 * np.pi - 0.1])
        assert np.sqrt(d2) == pytest.approx(0.2 / (2 * np.pi), abs=1e-12)

    def test_one_design_param_alone_picks_owner(self):
        store = SampleStore(unit_box())
        store.append(np.ones(4), [[0.75], [0.25]], np.zeros(2),
                     np.zeros((2, 4)), 0)
        np.testing.assert_array_equal(store.design_offsets(np.zeros(4)),
                                      [1.0, 1.0])
        assert unit_box().dist2([0.25], [0.75]) == 0.25
        # with equal offsets, the parameter alone picks the owner
        np.testing.assert_array_equal(
            _owners(store, np.zeros(4), np.array([[0.3], [0.7]])), [1, 0])

    def test_dimension_mismatch(self):
        space = unit_box(2)
        with pytest.raises(ValueError):
            space.dist2([0.1], [0.1, 0.2])
        with pytest.raises(ValueError):
            space.dist2([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        store = make_store(space, np.zeros((1, 2)), [[0.1, 0.2]])
        for u in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="stored records' have"):
                store.design_offsets(u)


# The parameter metric that ParamSpace.dist2 replaced, kept as its oracle:
# one (period, scale) per coordinate, period None on a flat one.

def metric_dist2(coords, x1, x2):
    """The replaced metric's parameter distance: the oracle of dist2."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    diff = np.abs(x1 - x2)
    total = 0.0
    for c, (period, scale) in enumerate(coords):
        d = diff[..., c]
        if period is not None:
            # d >= 0: the way round the other side is p - r
            r = d % period
            d = np.minimum(r, period - r)
        total = total + (d / scale) ** 2
    return total


def two_remainder_dist2(coords, x1, x2):
    """The circular wrap as min(d % p, (-d) % p): the oracle of the one
    remainder wrap."""
    diff = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    total = 0.0
    for c, (period, scale) in enumerate(coords):
        d = diff[..., c]
        if period is not None:
            d = np.minimum(d % period, (-d) % period)
        total = total + (d / scale) ** 2
    return total


def space_coords(space):
    """The coordinates the replaced metric had for a space: period and
    scale equal to the width; a zero-width interval, which it rejected,
    at scale 1, as the point-mass test problem had it."""
    return tuple(((hi - lo) if wrap else None, (hi - lo) or 1.0)
                 for (lo, hi), wrap in zip(space.bounds, space.periodic))


def assert_dist2_matches_oracles(space, x1, x2):
    got = space.dist2(x1, x2)
    coords = space_coords(space)
    np.testing.assert_array_equal(got, metric_dist2(coords, x1, x2))
    np.testing.assert_array_equal(got, two_remainder_dist2(coords, x1, x2))


_periods = st.sampled_from([1.0, 2 * np.pi, 0.3, 7.0])
_coordinate = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def boxes(draw, max_coords=3):
    """A ParamSpace of flat, periodic and zero-width intervals, with a
    matching pair of point arrays inside it (or wrapped past it)."""
    n = draw(st.integers(1, max_coords))
    bounds, periodic = [], []
    for _ in range(n):
        lo = draw(_coordinate)
        kind = draw(st.sampled_from(["flat", "periodic", "point"]))
        width = 0.0 if kind == "point" else draw(_periods)
        bounds.append((lo, lo + width))
        periodic.append(kind == "periodic")
    space = ParamSpace(tuple(bounds), tuple(periodic))
    T = draw(st.integers(1, 20))
    lo, hi = np.array(space.bounds).T
    pts = []
    for _ in range(2):
        u = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n,
                                            max_size=n),
                                   min_size=T, max_size=T)))
        # periodic points may sit whole periods away from the box
        turns = np.array(draw(st.lists(st.lists(st.integers(-3, 3),
                                                min_size=n, max_size=n),
                                       min_size=T, max_size=T)))
        pts.append(lo + u * (hi - lo) + np.where(periodic, turns, 0)
                   * (hi - lo))
    return space, pts[0], pts[1]


class TestParamDist2:
    @settings(max_examples=200, deadline=None)
    @given(_periods, st.lists(st.tuples(_coordinate, _coordinate),
                              min_size=1, max_size=40))
    def test_one_remainder_wrap_equals_two(self, period, pairs):
        x1, x2 = (np.array(v)[:, None] for v in zip(*pairs))
        assert_dist2_matches_oracles(circle(period), x1, x2)

    @settings(max_examples=100, deadline=None)
    @given(_periods, st.integers(-20, 20), _coordinate)
    def test_exact_multiples_of_the_period(self, period, n, x):
        space = ParamSpace(((0.0, period), (-1.0, 1.0)), (True, False))
        x1 = np.array([[n * period, x], [x, x], [0.0, 0.0]])
        x2 = np.array([[0.0, 0.0], [x + n * period, x], [n * period, 1.0]])
        assert_dist2_matches_oracles(space, x1, x2)

    @settings(max_examples=200, deadline=None)
    @given(boxes())
    def test_drawn_boxes_match_the_metric(self, case):
        space, x1, x2 = case
        assert_dist2_matches_oracles(space, x1, x2)
        assert_dist2_matches_oracles(space, x1[:, None, :], x2[None, :, :])

    def test_zero_width_interval_adds_nothing(self):
        space = ParamSpace(((0.3, 0.3), (0.0, 2.0)), (False, False))
        np.testing.assert_array_equal(
            space.dist2([[0.3, 0.5], [0.3, 1.0]], [[0.3, 1.5], [0.3, 1.0]]),
            [0.25, 0.0])


def nearest(store, u, x) -> int:
    """The owner of the single point x."""
    return int(_owners(store, u, np.array([x], dtype=float))[0])


class TestNearestIndex:
    def test_single_record(self):
        store = make_store(unit_box(), np.zeros((1, 3)), [[0.5]])
        assert nearest(store, np.zeros(3), [0.9]) == 0

    def test_exact_hit_and_duplicate_tiebreak(self):
        designs = np.zeros((3, 2))
        store = make_store(unit_box(), designs, [[0.3], [0.7], [0.7]])
        assert nearest(store, np.zeros(2), [0.7]) == 1

    def test_empty_store(self):
        store = SampleStore(unit_box())
        with pytest.raises(ValueError):
            nearest(store, np.zeros(2), [0.1])

    def test_against_linear_scan_oracle(self):
        rng = np.random.default_rng(42)
        # widths other than 1 weigh the parameter against the design
        space = ParamSpace(((0.0, 0.8), (-0.5, 1.0)), (False, True))
        lo, hi = np.array(space.bounds).T
        designs = rng.uniform(size=(100, 4))
        params = rng.uniform(lo, hi, size=(100, 2))
        store = make_store(space, designs, params)
        coords = space_coords(space)
        for _ in range(1000):
            u = rng.uniform(size=4)
            x = rng.uniform(lo, hi)
            best, best_d = 0, np.inf
            for k in range(100):
                d = np.sqrt(np.mean((designs[k] - u) ** 2)
                            + metric_dist2(coords, x, params[k]))
                if d < best_d - 1e-15:
                    best, best_d = k, d
            assert nearest(store, u, x) == best


# weights that a comparison-based check lets through, since every
# comparison with NaN is False
NON_FINITE_WEIGHTS = [[np.nan, 1.0], [np.nan, np.nan], [1.0, np.nan],
                      [np.inf, 1.0]]


class TestPseudoexactWeights:
    def test_single_record_takes_all_mass(self):
        store = make_store(unit_box(), np.zeros((1, 2)), [[0.4]])
        pts = np.linspace(0, 1, 16)[:, None]
        alpha = pseudoexact_weights(store, np.zeros(2), pts, np.full(16, 1 / 16))
        np.testing.assert_array_equal(alpha, [1.0])

    def test_two_records_split_at_midpoint(self):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.2], [0.8]])
        pts = np.array([[0.125], [0.375], [0.625], [0.875]])
        alpha = pseudoexact_weights(store, np.zeros(2), pts, np.full(4, 0.25))
        np.testing.assert_allclose(alpha, [0.5, 0.5])

    def test_dense_oracle_1d(self):
        # quadrature assignment error is bounded by twice the covering radius
        rng = np.random.default_rng(5)
        for trial in range(5):
            K = rng.integers(2, 9)
            designs = rng.uniform(size=(K, 3))
            params = rng.uniform(size=(K, 1))
            store = make_store(unit_box(), designs, params)
            u = rng.uniform(size=3)

            T = 256
            pts = ((np.arange(T) + 0.5) / T)[:, None]
            alpha = pseudoexact_weights(store, u, pts, np.full(T, 1.0 / T))

            n_dense = 100_000
            dense = ((np.arange(n_dense) + 0.5) / n_dense)[:, None]
            exact = pseudoexact_weights(store, u, dense,
                                        np.full(n_dense, 1.0 / n_dense))
            cover = 0.5 / T
            assert np.abs(alpha - exact).max() <= 2 * cover + 1e-12

    def test_refinement_never_worsens_bound(self):
        rng = np.random.default_rng(6)
        designs = rng.uniform(size=(5, 3))
        params = rng.uniform(size=(5, 1))
        store = make_store(unit_box(), designs, params)
        u = rng.uniform(size=3)
        n_dense = 200_000
        dense = ((np.arange(n_dense) + 0.5) / n_dense)[:, None]
        exact = pseudoexact_weights(store, u, dense,
                                    np.full(n_dense, 1.0 / n_dense))
        prev_bound = np.inf
        for T in (32, 64, 128, 256):
            pts = ((np.arange(T) + 0.5) / T)[:, None]
            alpha = pseudoexact_weights(store, u, pts, np.full(T, 1.0 / T))
            bound = 2 * (0.5 / T)
            assert bound <= prev_bound
            assert np.abs(alpha - exact).max() <= bound + 1e-12
            prev_bound = bound

    def test_bad_quadrature_rejected(self):
        store = make_store(unit_box(), np.zeros((1, 2)), [[0.5]])
        with pytest.raises(ValueError):
            pseudoexact_weights(store, np.zeros(2), [[0.1], [0.2]], [0.6, 0.5])
        with pytest.raises(ValueError):
            pseudoexact_weights(SampleStore(unit_box()), np.zeros(2),
                                [[0.1]], [1.0])

    @pytest.mark.parametrize("w", NON_FINITE_WEIGHTS)
    def test_non_finite_quadrature_weights_rejected(self, w):
        store = make_store(unit_box(), np.zeros((1, 2)), [[0.5]])
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            pseudoexact_weights(store, np.zeros(2), [[0.1], [0.2]], w)

    def test_weights_valid_over_many_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            K = rng.integers(1, 7)
            dim = rng.integers(1, 4)
            designs = rng.uniform(size=(K, dim))
            params = rng.uniform(size=(K, 1))
            store = make_store(unit_box(), designs, params)
            T = rng.integers(1, 33)
            pts = rng.uniform(size=(T, 1))
            w = rng.uniform(0.1, 1.0, size=T)
            alpha = pseudoexact_weights(store, rng.uniform(size=dim), pts,
                                        w / w.sum())
            assert np.all(alpha >= 0.0)
            assert abs(alpha.sum() - 1.0) < 1e-9


class TestEmpiricalWeights:
    def test_single_record(self):
        store = make_store(unit_box(), np.zeros((1, 2)), [[0.3]])
        np.testing.assert_array_equal(empirical_weights(store, np.zeros(2)),
                                      [1.0])

    def test_two_separated_records(self):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.2], [0.8]])
        np.testing.assert_allclose(empirical_weights(store, np.zeros(2)),
                                   [0.5, 0.5])

    def test_all_identical_smallest_index_wins(self):
        store = make_store(unit_box(), np.zeros((4, 2)),
                           [[0.5], [0.5], [0.5], [0.5]])
        np.testing.assert_array_equal(empirical_weights(store, np.zeros(2)),
                                      [1.0, 0.0, 0.0, 0.0])

    def test_equals_pseudoexact_at_sample_points(self):
        rng = np.random.default_rng(8)
        designs = rng.uniform(size=(12, 5))
        params = rng.uniform(size=(12, 2))
        store = make_store(unit_box(2), designs, params)
        u = rng.uniform(size=5)
        alpha_e = empirical_weights(store, u)
        alpha_p = pseudoexact_weights(store, u, params, np.full(12, 1 / 12))
        np.testing.assert_array_equal(alpha_e, alpha_p)


class TestAggregate:
    """The estimator over records that hold h(c - c_max) and its gradient."""

    def smoothing(self):
        return SmoothingParams(a1=35.0, a2=0.05, a3=5.0, c_max=2.0,
                               p_level=0.05)

    def test_identical_records_any_weights(self):
        p = self.smoothing()
        grad = np.array([1.0, 2.0, 3.0])
        store = make_store(unit_box(), np.zeros((3, 3)),
                           [[0.1], [0.5], [0.9]],
                           values=[h_eval(0.5, p)] * 3, grads=[grad] * 3)
        for w in ([1, 0, 0], [0.2, 0.3, 0.5]):
            g, dg = aggregate(store, np.array(w, dtype=float))
            assert g == pytest.approx(h_eval(0.5, p))
            np.testing.assert_allclose(dg, grad)

    def test_analytic_integrand_matches_dense_trapezoid(self):
        # c(omega) = 2 + cos(omega), omega uniform on the circle; weights
        # from a 4096-point circle discretization (Voronoi-cell masses)
        p = self.smoothing()
        rng = np.random.default_rng(11)
        omegas = rng.uniform(0, 2 * np.pi, size=200)
        values = h_eval(2.0 + np.cos(omegas) - p.c_max, p)
        store = make_store(circle(), np.zeros((200, 2)),
                           omegas[:, None], values=values)
        T = 4096
        pts = np.linspace(0, 2 * np.pi, T, endpoint=False)[:, None]
        alpha = pseudoexact_weights(store, np.zeros(2), pts, np.full(T, 1 / T))
        g_hat, _ = aggregate(store, alpha)

        dense = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        g_ref = np.mean(h_eval(2.0 + np.cos(dense) - p.c_max, p))
        assert abs(g_hat - g_ref) < 1e-2

    def test_error_shrinks_with_sample_count(self):
        p = self.smoothing()
        dense = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        g_ref = np.mean(h_eval(2.0 + np.cos(dense) - p.c_max, p))
        T = 4096
        pts = np.linspace(0, 2 * np.pi, T, endpoint=False)[:, None]
        w = np.full(T, 1.0 / T)
        errs = []
        for n in (25, 100, 400):
            per_seed = []
            for seed in range(10):
                rng = np.random.default_rng(seed)
                om = rng.uniform(0, 2 * np.pi, size=n)
                store = make_store(circle(), np.zeros((n, 1)), om[:, None],
                                   values=h_eval(2.0 + np.cos(om) - p.c_max, p))
                alpha = pseudoexact_weights(store, np.zeros(1), pts, w)
                g_hat, _ = aggregate(store, alpha)
                per_seed.append(abs(g_hat - g_ref))
            errs.append(np.median(per_seed))
        assert errs[0] >= errs[1] >= errs[2]

    def test_precomposed_plain_average(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.2], [0.8]],
                           values=[0.3, 0.7], grads=grads)
        g, dg = aggregate(store, np.array([0.25, 0.75]))
        assert g == pytest.approx(0.25 * 0.3 + 0.75 * 0.7)
        np.testing.assert_allclose(dg, [0.25, 1.5])

    def test_bad_weights(self):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.2], [0.8]])
        with pytest.raises(ValueError):
            aggregate(store, np.array([0.7, 0.5]))
        with pytest.raises(ValueError):
            aggregate(store, np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            aggregate(store, np.array([1.0]))

    @pytest.mark.parametrize("w", NON_FINITE_WEIGHTS)
    def test_non_finite_weights_rejected(self, w):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.2], [0.8]])
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            aggregate(store, np.array(w))


class TestEviction:
    def test_removes_zero_weight_record(self):
        store = make_store(unit_box(), np.zeros((3, 2)),
                           [[0.1], [0.5], [0.9]])
        evict_min_weight(store, np.array([0.5, 0.0, 0.5]), 1)
        assert len(store) == 2
        np.testing.assert_allclose(store.params.ravel(),
                                   [0.1, 0.9])

    def test_batch_eviction_order_preserved(self):
        store = make_store(unit_box(), np.zeros((5, 2)),
                           [[0.1], [0.2], [0.3], [0.4], [0.5]])
        evict_min_weight(store, np.array([0.05, 0.4, 0.05, 0.1, 0.4]), 3)
        np.testing.assert_allclose(store.params.ravel(),
                                   [0.2, 0.5])

    def test_tie_break_smallest_index(self):
        store = make_store(unit_box(), np.zeros((3, 2)),
                           [[0.1], [0.5], [0.9]])
        evict_min_weight(store, np.array([0.25, 0.25, 0.5]), 1)
        np.testing.assert_allclose(store.params.ravel(),
                                   [0.5, 0.9])

    def test_cannot_drain_store(self):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.1], [0.9]])
        with pytest.raises(ValueError):
            evict_min_weight(store, np.array([0.5, 0.5]), 2)

    @pytest.mark.parametrize("w", NON_FINITE_WEIGHTS + [
        [0.7, 0.5], [1.5, -0.5], [1.0], [1.0, 0.0, 0.0]])
    def test_bad_weights_leave_store_unchanged(self, w):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.1], [0.9]])
        with pytest.raises(ValueError):
            evict_min_weight(store, np.array(w), 1)
        np.testing.assert_array_equal(store.params, [[0.1], [0.9]])

    def test_reweighting_after_eviction_sums_to_one(self):
        rng = np.random.default_rng(13)
        designs = rng.uniform(size=(10, 3))
        store = make_store(unit_box(), designs, rng.uniform(size=(10, 1)))
        alpha = empirical_weights(store, rng.uniform(size=3))
        evict_min_weight(store, alpha, 4)
        alpha2 = empirical_weights(store, rng.uniform(size=3))
        assert abs(alpha2.sum() - 1.0) < 1e-12


# -- the pruned owner search against the dense argmin it replaced ------------

def dense_owners(store, designs, u, points):
    """Argmin over the whole (T, K) distance table: the oracle of _owners.
    designs holds the design each record was appended at."""
    offsets = (np.sum((designs - np.asarray(u, float)) ** 2, axis=-1)
               / designs.shape[1])
    d2 = (metric_dist2(space_coords(store.space), points[:, None, :],
                       store.params[None, :, :])
          + offsets[None, :])
    return np.argmin(d2, axis=1)


def assert_owners_match(store, designs, u, points):
    points = np.asarray(points, dtype=float)
    want = dense_owners(store, designs, u, points)
    np.testing.assert_array_equal(_owners(store, u, points), want)
    w = np.full(len(points), 1.0 / len(points))
    alpha = pseudoexact_weights(store, u, points, w)
    np.testing.assert_array_equal(
        alpha, np.bincount(want, weights=w, minlength=len(store)))
    assert np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) < 1e-12
    for t in range(0, len(points), 7):
        assert nearest(store, u, points[t]) == want[t]


# dyadic grids make exact distance ties common; uniform draws do not
_dyadic = st.integers(0, 16).map(lambda i: i / 16)
_uniform = st.floats(0.0, 1.0, allow_nan=False)


# box widths; a coordinate counts in units of its width, so the width
# weighs the parameter distance against the design offsets. Powers of two
# keep dyadic distances exact.
_dyadic_widths = st.sampled_from([0.5, 1.0, 2.0])
_widths = st.sampled_from([0.3, 1.0, 1.7, 3.0])


@st.composite
def owner_cases(draw, periodic, widths, values, one_design=False):
    """Records, the design of each, a design and points with coordinates
    drawn from values, on a box [0, w) per coordinate with w drawn from
    widths."""
    n_coords = len(periodic)
    space = ParamSpace(tuple((0.0, draw(widths)) for _ in periodic),
                       periodic)
    K = draw(st.integers(1, 60))
    n = draw(st.integers(1, 3))
    # a few distinct designs shared by consecutive batches, as in a run
    n_designs = draw(st.integers(1, K))
    designs = [np.array(draw(st.lists(values, min_size=n, max_size=n)))
               for _ in range(n_designs)]
    if one_design:   # equal designs in separate batches: equal offsets
        designs = designs[:1] * n_designs
    batch = -(-K // n_designs)
    store = SampleStore(space)
    pool = draw(st.lists(st.lists(values, min_size=n_coords,
                                  max_size=n_coords), min_size=1, max_size=K))
    params = np.array([pool[draw(st.integers(0, len(pool) - 1))]  # duplicates
                       for _ in range(K)])
    for start in range(0, K, batch):
        b = len(params[start:start + batch])
        store.append(designs[start // batch], params[start:start + batch],
                     np.zeros(b), np.zeros((b, n)), start // batch)
    u = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    T = draw(st.integers(1, 80))
    points = np.array(draw(st.lists(st.lists(values, min_size=n_coords,
                                             max_size=n_coords),
                                    min_size=T, max_size=T)))
    record_designs = np.array([designs[k // batch] for k in range(K)])
    return store, record_designs, u, points


CIRCLE = (True,)
PLANE = (False, False)


class TestPrunedOwners:
    @settings(max_examples=100, deadline=None)
    @given(owner_cases(CIRCLE, _dyadic_widths, _dyadic))
    def test_circular_dyadic_ties(self, case):
        assert_owners_match(*case)

    @settings(max_examples=100, deadline=None)
    @given(owner_cases(CIRCLE, _widths, _uniform))
    def test_circular_uniform(self, case):
        assert_owners_match(*case)

    @settings(max_examples=100, deadline=None)
    @given(owner_cases(PLANE, _dyadic_widths, _dyadic))
    def test_flat_2d_dyadic_ties(self, case):
        assert_owners_match(*case)

    @settings(max_examples=100, deadline=None)
    @given(owner_cases(PLANE, _widths, _uniform))
    def test_flat_2d_uniform(self, case):
        assert_owners_match(*case)

    @settings(max_examples=100, deadline=None)
    @given(owner_cases(CIRCLE, _dyadic_widths, _dyadic, one_design=True))
    def test_all_records_at_one_design(self, case):
        assert_owners_match(*case)

    def test_equal_offsets_midpoint_goes_to_smallest_index(self):
        # records 0 and 1 have equal designs; 0.5 is exactly midway
        for params in ([[0.75], [0.25]], [[0.25], [0.75]]):
            designs = np.zeros((2, 2))
            store = make_store(unit_box(), designs, params)
            assert_owners_match(store, designs, np.zeros(2),
                                [[0.5], [0.25], [0.75]])
            assert nearest(store, np.zeros(2), [0.5]) == 0

    def test_tie_with_a_smaller_index_in_a_later_chunk(self):
        # record 0 has offset 0.25 and sits on the point; records 1..8
        # have offset 0 and sit 0.5 away, so they fill the first chunk and
        # tie at 0.25 with record 0, which opens the second chunk at offset
        # 0.25 and must still win
        designs = np.array([[0.5]] + [[0.0]] * 8)
        params = np.array([[0.5]] + [[0.0]] * 8)
        store = make_store(unit_box(), designs, params)
        assert_owners_match(store, designs, np.zeros(1),
                            [[0.5], [0.0], [0.25]])
        assert nearest(store, np.zeros(1), [0.5]) == 0

    def test_records_at_zero_and_just_below_period(self):
        period = 2 * np.pi
        eps = np.spacing(period)
        designs = np.zeros((2, 3))
        for params in ([[0.0], [period - eps]], [[period - eps], [0.0]]):
            store = make_store(circle(period), designs, params)
            pts = np.array([[0.0], [eps], [period - eps], [period - 2 * eps],
                            [np.pi], [np.pi - eps / 2], [period / 4]])
            assert_owners_match(store, designs, np.zeros(3), pts)

    def test_many_records_without_pruning(self):
        rng = np.random.default_rng(21)
        designs = np.zeros((300, 2))
        store = make_store(circle(), designs,
                           rng.uniform(0, 2 * np.pi, size=(300, 1)))
        pts = np.linspace(0, 2 * np.pi, 512, endpoint=False)[:, None]
        assert_owners_match(store, designs, np.zeros(2), pts)

    def test_non_finite_inputs_rejected(self):
        store = make_store(unit_box(), np.zeros((3, 2)),
                           [[0.1], [0.5], [0.9]])
        pts, w = np.array([[0.2], [0.6]]), np.array([0.5, 0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                pseudoexact_weights(store, np.array([0.0, bad]), pts, w)
            with pytest.raises(ValueError, match="finite"):
                pseudoexact_weights(store, np.zeros(2), [[0.2], [bad]], w)
            with pytest.raises(ValueError, match="finite"):
                nearest(store, np.zeros(2), [bad])


# -- the array-backed store ---------------------------------------------------

def assert_store_matches(store, model):
    """model: (design, param, value, gradient, born) per record."""
    assert len(store) == len(model)
    if not model:
        with pytest.raises(ValueError):
            store.values
        return
    designs, params, values, grads, born = (np.array(c) for c in zip(*model))
    # each record's design, through the offsets the owner search reads
    u = np.linspace(-1.0, 1.0, designs.shape[1])
    np.testing.assert_array_equal(
        store.design_offsets(u),
        np.sum((designs - u) ** 2, axis=-1) / designs.shape[1])
    np.testing.assert_array_equal(store.params, params)
    np.testing.assert_array_equal(store.values, values)
    np.testing.assert_array_equal(store.gradients, grads)
    np.testing.assert_array_equal(store.iteration_born, born)


_store_ops = st.lists(st.one_of(
    st.tuples(st.just("batch"), st.integers(1, 12), st.booleans()),
    st.tuples(st.just("keep"), st.lists(st.booleans(), max_size=80)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("read")),
), max_size=25)


class TestArrayStore:
    @settings(max_examples=100, deadline=None)
    @given(_store_ops, st.integers(0, 2**32 - 1))
    def test_arrays_equal_stacked_records(self, ops, seed):
        rng = np.random.default_rng(seed)
        store, model, calls, born = SampleStore(unit_box(2)), [], [], 0
        for op in ops:
            if op[0] == "batch":
                # whole=True appends the records as one batch, else one
                # single-record batch per record, each at its own design
                n_new, whole = op[1], op[2]
                sizes = [n_new] if whole else [1] * n_new
                for b in sizes:
                    born += 1
                    design = rng.uniform(size=4)
                    params = rng.uniform(size=(b, 2))
                    values = rng.standard_normal(b)
                    grads = rng.standard_normal((b, 4))
                    store.append(design, params, values, grads, born)
                    model += [(design, p, v, g, born)
                              for p, v, g in zip(params, values, grads)]
                    calls += [born] * b
            elif op[0] == "keep":
                mask = (op[1] + [True] * len(model))[:len(model)]
                kept = np.flatnonzero(mask)
                store.keep(rng.permutation(kept))
                model = [model[i] for i in kept]
                calls = [calls[i] for i in kept]
            elif op[0] == "clear":
                store.clear()
                model, calls = [], []
            assert_store_matches(store, model)
            # one design row per append call that still has a record
            assert store._n_designs == len(set(calls))

    def test_one_design_row_per_call(self):
        store = SampleStore(unit_box())
        design = np.full(3, 0.5)
        for k in range(3):
            # equal designs in separate calls are separate rows
            store.append(design, np.full((4, 1), 0.1 * k), np.zeros(4),
                         np.zeros((4, 3)), k)
            assert store._n_designs == k + 1
        assert len(store) == 12
        np.testing.assert_array_equal(store.iteration_born,
                                      np.repeat([0, 1, 2], 4))

    def test_append_copies_the_batch(self):
        store = SampleStore(unit_box(2))
        design, params = np.zeros(3), np.full((2, 2), 0.5)
        values, grads = np.ones(2), np.ones((2, 3))
        store.append(design, params, values, grads, 4)
        want = [(np.zeros(3), np.full(2, 0.5), 1.0, np.ones(3), 4)] * 2
        for a in (design, params, values, grads):
            a[...] = 7.0
        assert_store_matches(store, want)

    def test_views_are_read_only(self):
        store = make_store(unit_box(), np.zeros((2, 2)), [[0.1], [0.9]])
        for view in (store.params, store.values, store.gradients,
                     store.iteration_born):
            with pytest.raises(ValueError):
                view[0] = 1

    def test_param_length_must_match_metric(self):
        store = SampleStore(unit_box(2))
        with pytest.raises(ValueError, match=r"params of shape \(1, 1\)"):
            store.append(np.zeros(3), [[0.5]], [0.0], np.zeros((1, 3)), 0)
        with pytest.raises(ValueError, match=r"params of shape \(1, 3\)"):
            store.append(np.zeros(3), [[0.1, 0.2, 0.3]], [0.0],
                         np.zeros((1, 3)), 0)
        assert len(store) == 0

    @pytest.mark.parametrize("design,params,values,grads,message", [
        (np.zeros(3), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3)),
         "batch needs"),
        (np.zeros(3), np.zeros((2, 1)), np.zeros(2), np.zeros((2, 3)),
         "params of shape"),
        (np.zeros(3), np.zeros(2), np.zeros(2), np.zeros((2, 3)),
         "params of shape"),
        (np.zeros(3), np.zeros((3, 2)), np.zeros(2), np.zeros((2, 3)),
         "params of shape"),
        (np.zeros(3), np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 3)),
         "values of shape"),
        (np.zeros(3), np.zeros((1, 2)), 0.0, np.zeros((1, 3)),
         "values of shape"),
        (np.zeros(3), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 4)),
         "gradients of shape"),
        (np.zeros(3), np.zeros((2, 2)), np.zeros(2), np.zeros(3),
         "gradients of shape"),
        (np.zeros(4), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 4)),
         "design length 4"),
        (np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3)),
         "nonempty vector"),
    ], ids=["empty-batch", "params-columns", "params-vector", "params-rows",
            "values-matrix", "values-scalar", "gradients-columns",
            "gradients-vector", "design-length", "design-matrix"])
    def test_bad_batch_leaves_store_unchanged(self, design, params, values,
                                              grads, message):
        store = SampleStore(unit_box(2))
        store.append(np.ones(3), [[0.1, 0.2]], [1.0], np.ones((1, 3)), 0)
        with pytest.raises(ValueError, match=message):
            store.append(design, params, values, grads, 1)
        assert_store_matches(store, [(np.ones(3), [0.1, 0.2], 1.0,
                                      np.ones(3), 0)])

    def test_design_length_must_match_stored_records(self):
        store = make_store(unit_box(), np.zeros((2, 3)), [[0.1], [0.9]])
        with pytest.raises(ValueError, match="design length 4"):
            store.append(np.zeros(4), [[0.5]], [0.0], np.zeros((1, 4)), 2)
        assert len(store) == 2
        store.clear()   # an empty store takes a new design length
        store.append(np.ones(4), [[0.5]], [1.0], np.ones((1, 4)), 3)
        np.testing.assert_array_equal(store.design_offsets(np.zeros(4)),
                                      [1.0])

    def test_keep_rejects_bad_indices(self):
        store = make_store(unit_box(), np.zeros((3, 2)),
                           [[0.1], [0.5], [0.9]])
        with pytest.raises(IndexError):
            store.keep([0, 3])
        with pytest.raises(IndexError):
            store.keep([-1])
        with pytest.raises(ValueError):
            store.keep([1, 1])
        assert len(store) == 3


# The problems' hand-written parameter rules that ParamSpace replaced; the
# space must reproduce each of them bit for bit.

def xi_range(ell):
    return ((ell / 4.0, 7.0 * ell / 4.0), (ell / 8.0, 7.0 * ell / 8.0))


def omega_range(ell):
    return (ell / 5.0, 4.0 * ell / 5.0)


def wheel_sample_param(rng):
    return np.array([rng.uniform(0.0, 2.0 * np.pi)])


def plate_sample_param(rng, xi):
    return np.array([rng.uniform(*xi[0]), rng.uniform(*xi[1])])


def wheel_coords():
    return ((2.0 * np.pi, 2.0 * np.pi),)


def plate_coords(xi):
    return tuple((None, hi - lo) for lo, hi in xi)


def wheel_pseudo_quadrature(n_points):
    pts = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return pts[:, None], np.full(n_points, 1.0 / n_points)


def plate_pseudo_quadrature(xi, n):
    (x0, x1), (y0, y1) = xi
    gx = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    gy = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, np.full(n * n, 1.0 / (n * n))


def plate_trapezoid_grid(xi, n1, n2):
    (x0, x1), (y0, y1) = xi
    gx = np.linspace(x0, x1, n1)
    gy = np.linspace(y0, y1, n2)
    wx = np.ones(n1)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(n2)
    wy[0] = wy[-1] = 0.5
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    W = np.outer(wx, wy)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, (W / W.sum()).ravel()


def omega_trapezoid(omega, n_omega):
    nodes = np.linspace(*omega, n_omega)
    w = np.ones(n_omega)
    w[0] = w[-1] = 0.5
    return nodes, w / w.sum()


def assert_rules_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


ELLS = [0.3, 1.0, 2.7]
WHEEL_SPACE = WheelProblem.space


def plate_space(ell):
    return ParamSpace(xi_range(ell), (False, False))


class TestParamSpace:
    """Draws, distance, centre and rules of the wheel's circle and the
    plate's xi box equal the hand-written ones they replaced."""

    def test_plate_holds_its_xi_box(self):
        for ell in ELLS:
            plate = plate_problem(nx=4, ny=2, n_omega=2, ell=ell)
            assert plate.space == plate_space(ell)
            assert plate.omega_space.bounds == (omega_range(ell),)

    @pytest.mark.parametrize("ell", [None] + ELLS)
    def test_batch_draw_matches_scalar_draws(self, ell):
        space = WHEEL_SPACE if ell is None else plate_space(ell)
        for seed in range(30):
            for B in (1, 3, 8):
                rng, ref = (np.random.default_rng(seed) for _ in range(2))
                for _ in range(5):
                    want = np.stack([
                        wheel_sample_param(ref) if ell is None
                        else plate_sample_param(ref, xi_range(ell))
                        for _ in range(B)])
                    np.testing.assert_array_equal(space.sample(rng, B), want)
                assert rng.uniform() == ref.uniform()   # still in step

    def test_metric_matches(self):
        rng = np.random.default_rng(9)
        cases = [(WHEEL_SPACE, wheel_coords())] + [
            (plate_space(ell), plate_coords(xi_range(ell))) for ell in ELLS]
        for space, coords in cases:
            x1 = space.sample(rng, 40)
            # the points themselves, whole turns away on the circle
            turns = rng.integers(-3, 4, size=x1.shape) * space.periodic
            x2 = np.vstack([space.sample(rng, 50), x1,
                            x1 + turns * 2.0 * np.pi])
            np.testing.assert_array_equal(
                space.dist2(x1[:, None], x2[None]),
                metric_dist2(coords, x1[:, None], x2[None]))

    def test_centre_matches(self):
        np.testing.assert_array_equal(WHEEL_SPACE.centre(), [np.pi])
        for ell in ELLS:
            np.testing.assert_array_equal(
                plate_space(ell).centre(),
                [np.mean(r) for r in xi_range(ell)])
            omega = ParamSpace((omega_range(ell),), (False,))
            assert omega.centre()[0] == np.mean(omega_range(ell))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 32, 72])
    def test_pseudo_rule_matches(self, n):
        assert_rules_equal(WHEEL_SPACE.pseudo_rule(n),
                           wheel_pseudo_quadrature(n))
        for ell in ELLS:
            assert_rules_equal(plate_space(ell).pseudo_rule(n),
                               plate_pseudo_quadrature(xi_range(ell), n))

    def test_circle_rules_match_up_to_1080(self):
        for n in list(range(1, 145)) + [1024, 1080, 1081]:
            want = wheel_pseudo_quadrature(n)
            assert_rules_equal(WHEEL_SPACE.pseudo_rule(n), want)
            assert_rules_equal(WHEEL_SPACE.trapezoid_rule(n), want)
            assert_rules_equal(WHEEL_SPACE.trapezoid_rule((n,)), want)

    def test_trapezoid_rule_matches_grid(self):
        space, xi = plate_space(1.0), xi_range(1.0)
        for n1 in range(1, 51):
            for n2 in range(1, 51):
                assert_rules_equal(space.trapezoid_rule((n1, n2)),
                                   plate_trapezoid_grid(xi, n1, n2))
        for ell in (0.3, 2.7):
            assert_rules_equal(plate_space(ell).trapezoid_rule((4, 3)),
                               plate_trapezoid_grid(xi_range(ell), 4, 3))

    @pytest.mark.parametrize("ell", ELLS)
    @pytest.mark.parametrize("n_omega", [1, 2, 4, 5, 32, 33])
    def test_omega_rule_matches(self, ell, n_omega):
        plate = plate_problem(nx=4, ny=2, n_omega=n_omega, ell=ell)
        nodes, weights = omega_trapezoid(omega_range(ell), n_omega)
        np.testing.assert_array_equal(plate.omega_nodes, nodes)
        np.testing.assert_array_equal(plate.omega_weights, weights)

    def test_point_mass_interval(self):
        space = ParamSpace(((0.3, 0.3),), (False,))
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        np.testing.assert_array_equal(space.sample(rng, 5), np.full((5, 1),
                                                                    0.3))
        ref.uniform(size=5)   # one uniform per draw
        assert rng.uniform() == ref.uniform()
        assert_rules_equal(space.trapezoid_rule(1), (np.array([[0.3]]),
                                                     np.array([1.0])))
        # a zero-width interval adds nothing, in the (T, K) table shape of
        # the owner search
        d2 = space.dist2(np.full((3, 1, 1), 0.3), np.full((1, 2, 1), 0.3))
        assert d2.shape == (3, 2)
        np.testing.assert_array_equal(d2, 0.0)

    @pytest.mark.parametrize("counts", [0, -3, (0,), (2, 2)])
    def test_bad_circle_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="at least 1 point"):
            WHEEL_SPACE.trapezoid_rule(counts)
        with pytest.raises(ValueError, match="at least 1 point"):
            WHEEL_SPACE.rule_counts(counts)
        if np.ndim(counts) == 0:
            with pytest.raises(ValueError, match="at least 1 point"):
                WHEEL_SPACE.pseudo_rule(counts)

    @pytest.mark.parametrize("counts", [(0, 3), (3, -1), 3, (2, 2, 2)])
    def test_bad_grid_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="at least 1 point"):
            plate_space(1.0).trapezoid_rule(counts)
        with pytest.raises(ValueError, match="at least 1 point"):
            plate_space(1.0).rule_counts(counts)

    @pytest.mark.parametrize("space,counts", [
        (WHEEL_SPACE, 72.5), (WHEEL_SPACE, 7.9), (WHEEL_SPACE, [0.5]),
        (WHEEL_SPACE, np.nan), (WHEEL_SPACE, np.inf),
        (plate_space(1.0), (5, 4.5)), (plate_space(1.0), (np.nan, 3)),
    ], ids=["72.5", "7.9", "0.5", "nan", "inf", "grid-4.5", "grid-nan"])
    def test_fractional_counts_rejected(self, space, counts):
        # int() would truncate 72.5 to 72 and 7.9 to 7 without a word
        with pytest.raises(ValueError, match="whole number of points"):
            space.rule_counts(counts)
        with pytest.raises(ValueError, match="whole number of points"):
            space.trapezoid_rule(counts)

    @pytest.mark.parametrize("space,counts,want", [
        (WHEEL_SPACE, 7, (7,)), (WHEEL_SPACE, [7], (7,)),
        (plate_space(1.0), [5, 4], (5, 4)),
        (WHEEL_SPACE, 1080.0, (1080,)), (WHEEL_SPACE, np.int64(1080),
                                         (1080,)),
        (WHEEL_SPACE, np.array([1080.0]), (1080,)),
        (plate_space(1.0), (5.0, np.int32(4)), (5, 4)),
    ])
    def test_rule_counts_one_per_coordinate(self, space, counts, want):
        # the rule caches key on this tuple: every spelling of one rule
        # gives the same plain ints
        got = space.rule_counts(counts)
        assert got == want
        assert all(type(n) is int for n in got)
        assert space.trapezoid_rule(counts)[0].shape == (np.prod(want),
                                                         len(want))

    def test_empty_pseudo_rule_rejected(self):
        with pytest.raises(ValueError, match="at least 1 point"):
            plate_space(1.0).pseudo_rule(0)

    @pytest.mark.parametrize("bounds,periodic", [
        (((0.0, np.nan),), (False,)), (((np.nan, 1.0),), (False,)),
        (((0.0, np.inf),), (True,)), (((-np.inf, 0.0),), (False,)),
        (((1.0, 0.0),), (False,)), (((1.0, 1.0),), (True,)),
        (((0.0, 1.0),), (False, True)), ((), ()),
    ], ids=["hi-nan", "lo-nan", "hi-inf", "lo-inf", "reversed",
            "periodic-point", "flag-count", "no-coordinates"])
    def test_bad_bounds_rejected(self, bounds, periodic):
        with pytest.raises(ValueError):
            ParamSpace(bounds, periodic)
