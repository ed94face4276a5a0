import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from smma.design_field import (
    E_SOLID,
    E_VOID,
    FilterMatrix,
    SimpParams,
    backprop_to_design,
    build_filter,
    interpolate_stiffness,
    pvol,
    rvol,
    rvol_gradient,
)
from smma.mesh_fem import (
    assemble_stiffness,
    build_disc_mesh,
    build_rect_mesh,
    element_quadratic_forms,
)


RECT = build_rect_mesh(9, 5, 1.8, 1.0)
DISC = build_disc_mesh(5, 16, 0.1, 0.9)


def dense(filt):
    return filt.matrix.toarray()


class TestFilter:
    def test_zero_radius_is_identity(self):
        mesh = build_rect_mesh(4, 3, 4.0, 3.0)
        np.testing.assert_array_equal(dense(build_filter(mesh, 0.0)),
                                      np.eye(mesh.n_elements))

    def test_small_radius_is_identity(self):
        mesh = build_rect_mesh(4, 3, 4.0, 3.0)
        np.testing.assert_array_equal(dense(build_filter(mesh, 0.5)),
                                      np.eye(mesh.n_elements))

    def test_rows_sum_to_one(self):
        mesh = build_rect_mesh(7, 5, 7.0, 5.0)
        for r in (0.0, 1.2, 2.5, 10.0):
            f = build_filter(mesh, r)
            rowsums = np.asarray(f.matrix.sum(axis=1)).ravel()
            np.testing.assert_allclose(rowsums, 1.0, atol=1e-12)
            assert f.matrix.data.min() >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["rect", "disc"]),
           r_min=st.floats(0.0, 1.5))
    def test_rows_sum_to_one_for_any_radius(self, kind, r_min):
        mesh = RECT if kind == "rect" else DISC
        f = build_filter(mesh, r_min)
        rowsums = np.asarray(f.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(rowsums, 1.0, rtol=0, atol=1e-12)
        assert f.matrix.data.min() >= 0.0
        assert (f.matrix.diagonal() > 0.0).all()

    def test_huge_radius_rejected(self):
        # every row holds all 35 elements, each weighing about r_min: at
        # 1e307 their sum overflows, which raises ValueError and no
        # RuntimeWarning (the suite makes one an error)
        mesh = build_rect_mesh(7, 5, 7.0, 5.0)
        rowsums = np.asarray(build_filter(mesh, 1e306).matrix.sum(axis=1))
        np.testing.assert_allclose(rowsums, 1.0, atol=1e-12)
        with pytest.raises(ValueError, match=r"filter radius 1e\+307 is too"):
            build_filter(mesh, 1e307)

    def test_three_element_strip_hat_weights(self):
        # hat weights at spacing h with r = 1.5h: (0.5h, 1.5h, 0.5h),
        # normalized to (0.2, 0.6, 0.2)
        mesh = build_rect_mesh(3, 1, 3.0, 1.0)
        f = build_filter(mesh, 1.5)
        np.testing.assert_allclose(dense(f)[1], [0.2, 0.6, 0.2], atol=1e-12)

    def test_support_matches_radius(self):
        mesh = build_rect_mesh(5, 5, 5.0, 5.0)
        r = 2.1
        f = dense(build_filter(mesh, r))
        c = mesh.element_centroids
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
        np.testing.assert_array_equal(f > 0, d < r)


def filter_loop(mesh, r_min):
    """Reference build: one row of hat weights per element in turn."""
    n = mesh.n_elements
    tree = cKDTree(mesh.element_centroids)
    pairs = tree.query_ball_point(mesh.element_centroids, r_min)
    rows, cols, vals = [], [], []
    for i, neighbors in enumerate(pairs):
        d = np.linalg.norm(
            mesh.element_centroids[neighbors] - mesh.element_centroids[i],
            axis=1)
        w = r_min - d
        keep = w > 0.0
        rows.extend([i] * int(keep.sum()))
        cols.extend(np.asarray(neighbors)[keep].tolist())
        vals.extend(w[keep].tolist())
    M = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    rowsum = np.asarray(M.sum(axis=1)).ravel()
    alone = np.diff(M.indptr) == 1
    M.data[M.indptr[:-1][alone]] = 1.0
    rowsum[alone] = 1.0
    return (sp.diags(1.0 / rowsum) @ M).tocsr()


@pytest.mark.parametrize("mesh,spacing", [
    (build_rect_mesh(60, 30, 2.0, 1.0), 2.0 / 60),     # the default plate
    (build_disc_mesh(18, 72, 0.1, 0.95), 0.9 / 18),    # the default wheel
    (build_rect_mesh(7, 4, 2.0, 1.0), 2.0 / 7),
    (build_disc_mesh(3, 12, 0.1, 0.9), 0.8 / 3),
], ids=["plate", "wheel", "rect-7x4", "disc-3x12"])
@pytest.mark.parametrize("factor", [0.5, 1.5, 3.0])
def test_filter_matches_loop_build(mesh, spacing, factor):
    got = build_filter(mesh, factor * spacing).matrix
    want = filter_loop(mesh, factor * spacing)
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestInterpolation:
    def setup_method(self):
        self.mesh = build_rect_mesh(4, 4, 1.0, 1.0)
        self.filt = build_filter(self.mesh, 0.4)  # 1.6 element widths
        self.simp = SimpParams(s=5.0)

    def test_solid_and_void(self):
        n = self.mesh.n_elements
        args = self.filt, self.simp, self.mesh
        np.testing.assert_allclose(
            interpolate_stiffness(np.ones(n), *args), E_SOLID, atol=1e-12)
        np.testing.assert_allclose(
            interpolate_stiffness(np.zeros(n), *args), E_VOID, atol=1e-15)

    def test_midpoint_value(self):
        mesh = build_rect_mesh(1, 1, 1.0, 1.0)
        filt = build_filter(mesh, 0.0)
        # 0.5^5 * 1 + (1 - 0.5^5) * 1e-4, evaluated directly
        out = interpolate_stiffness(np.array([0.5]), filt, SimpParams(s=5.0),
                                    mesh)
        assert out[0] == pytest.approx(0.031346875, abs=1e-15)

    def test_monotone_in_each_variable(self):
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.2, 0.8, self.mesh.n_elements)
        base = interpolate_stiffness(rho, self.filt, self.simp, self.mesh)
        for j in (0, 7, 15):
            up = rho.copy()
            up[j] += 0.05
            assert np.all(interpolate_stiffness(up, self.filt, self.simp,
                                                self.mesh)
                          >= base - 1e-15)

    def test_range(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.0, 1.0, self.mesh.n_elements)
        out = interpolate_stiffness(rho, self.filt, self.simp, self.mesh)
        assert np.all(out >= E_VOID - 1e-15)
        assert np.all(out <= E_SOLID + 1e-15)

    def test_params_validation(self):
        for s in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="SIMP exponent"):
                SimpParams(s=s)


class TestVolumes:
    def setup_method(self):
        self.mesh = build_rect_mesh(5, 4, 5.0, 4.0)
        self.vols = self.mesh.element_volumes
        self.identity = build_filter(self.mesh, 0.0)

    def test_full_design(self):
        rho = np.ones(self.mesh.n_elements)
        filt = build_filter(self.mesh, 1.6)
        assert rvol(rho, filt, self.vols) == pytest.approx(1.0)
        assert pvol(rho, filt, SimpParams(s=10.0), self.vols) == pytest.approx(1.0)

    def test_uniform_075_identity_filter(self):
        rho = np.full(self.mesh.n_elements, 0.75)
        assert rvol(rho, self.identity, self.vols) == pytest.approx(0.75)
        assert pvol(rho, self.identity, SimpParams(s=10.0), self.vols) == \
            pytest.approx(0.75 ** 10)

    def test_binary_designs_coincide(self):
        rng = np.random.default_rng(3)
        rho = (rng.uniform(size=self.mesh.n_elements) > 0.5).astype(float)
        assert rvol(rho, self.identity, self.vols) == pytest.approx(
            pvol(rho, self.identity, SimpParams(s=7.0), self.vols))

    def test_pvol_below_rvol(self):
        rng = np.random.default_rng(4)
        filt = build_filter(self.mesh, 1.6)
        for _ in range(20):
            rho = rng.uniform(size=self.mesh.n_elements)
            assert pvol(rho, filt, SimpParams(s=3.0), self.vols) <= \
                rvol(rho, filt, self.vols) + 1e-12

    def test_rvol_gradient_constant_and_exact(self):
        filt = build_filter(self.mesh, 1.6)
        g = rvol_gradient(filt, self.vols)
        rng = np.random.default_rng(5)
        rho = rng.uniform(size=self.mesh.n_elements)
        step = 1e-6
        for j in (0, 9, 19):
            up, dn = rho.copy(), rho.copy()
            up[j] += step
            dn[j] -= step
            fd = (rvol(up, filt, self.vols) - rvol(dn, filt, self.vols)) / (2 * step)
            assert g[j] == pytest.approx(fd, rel=1e-6)


class TestBackprop:
    def test_zero_gradient(self):
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        filt = build_filter(mesh, 0.5)
        out = backprop_to_design(np.zeros(9), np.full(9, 0.4), filt,
                                 SimpParams(s=3.0), mesh)
        np.testing.assert_array_equal(out, 0.0)

    def test_linear_case_identity_filter(self):
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        filt = build_filter(mesh, 0.0)
        simp = SimpParams(s=1.0)
        rng = np.random.default_rng(6)
        g = rng.standard_normal(9)
        out = backprop_to_design(g, rng.uniform(size=9), filt, simp, mesh)
        np.testing.assert_allclose(out, (E_SOLID - E_VOID) * g,
                                   atol=1e-14)

    @pytest.mark.parametrize("s", [1.0, 3.0, 5.0, 10.0])
    def test_full_chain_finite_differences(self, s):
        # filter -> SIMP -> assembly -> compliance, versus central FD
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        filt = build_filter(mesh, 0.5)
        simp = SimpParams(s=s)
        rng = np.random.default_rng(int(s))
        rho = rng.uniform(0.2, 0.9, mesh.n_elements)
        f = np.zeros(mesh.n_dofs)
        top = np.nonzero(np.abs(mesh.nodes[:, 1] - 1.0) < 1e-12)[0]
        f[2 * top + 1] = -1.0

        def comp(r):
            sys = assemble_stiffness(
                mesh, interpolate_stiffness(r, filt, simp, mesh))
            return f @ sys.solve(f)

        sys = assemble_stiffness(
            mesh, interpolate_stiffness(rho, filt, simp, mesh))
        u = sys.solve(f)[:, None]
        grad = backprop_to_design(
            -element_quadratic_forms(mesh, u, u)[0], rho, filt, simp, mesh)

        step = 1e-6
        for j in range(mesh.n_elements):
            up, dn = rho.copy(), rho.copy()
            up[j] += step
            dn[j] -= step
            fd = (comp(up) - comp(dn)) / (2 * step)
            assert abs(grad[j] - fd) / max(abs(fd), 1e-10) < 1e-5

    def test_block_rows_equal_single_calls(self):
        from smma.mesh_fem import build_disc_mesh
        mesh = build_disc_mesh(4, 12, 0.1, 0.85)
        filt = build_filter(mesh, 0.3)
        simp = SimpParams(s=3.0)
        rng = np.random.default_rng(9)
        rho = rng.uniform(0.2, 0.8, mesh.n_elements)
        block = rng.standard_normal((5, mesh.n_elements))
        kept = block.copy()
        out = backprop_to_design(block, rho, filt, simp, mesh=mesh)
        assert out.shape == block.shape
        np.testing.assert_array_equal(block, kept)   # input left untouched
        for row, g in zip(out, block):
            np.testing.assert_array_equal(
                row, backprop_to_design(g, rho, filt, simp, mesh=mesh))

    def test_pinned_elements_zero_gradient_and_solid(self):
        from smma.mesh_fem import build_disc_mesh
        mesh = build_disc_mesh(4, 12, 0.1, 0.85)
        filt = build_filter(mesh, 0.3)
        simp = SimpParams(s=3.0)
        rng = np.random.default_rng(8)
        rho = rng.uniform(0.2, 0.8, mesh.n_elements)
        sf = interpolate_stiffness(rho, filt, simp, mesh=mesh)
        np.testing.assert_allclose(sf[mesh.solid], E_SOLID,
                                   atol=1e-12)
        g = rng.standard_normal(mesh.n_elements)
        out = backprop_to_design(g, rho, filt, simp, mesh=mesh)
        masked = g.copy()
        masked[mesh.solid] = 0.0
        expect = backprop_to_design(masked, rho, filt, simp, mesh=mesh)
        np.testing.assert_allclose(out, expect, atol=1e-14)
