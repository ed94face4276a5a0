import numpy as np
import pytest

from smma import mesh_fem
from smma.mesh_fem import (
    FactorizedSystem,
    assemble_stiffness,
    build_disc_mesh,
    build_rect_mesh,
    element_quadratic_forms,
    low_rank_updates,
    q4_unit_stiffness,
)


def analytic_unit_square_ke(nu):
    # closed-form plane-stress Q4 matrix for the unit square, E = 1
    k = np.array([1 / 2 - nu / 6, 1 / 8 + nu / 8, -1 / 4 - nu / 12,
                  -1 / 8 + 3 * nu / 8, -1 / 4 + nu / 12, -1 / 8 - nu / 8,
                  nu / 6, 1 / 8 - 3 * nu / 8])
    idx = np.array([
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [2, 7, 0, 5, 6, 3, 4, 1],
        [3, 6, 5, 0, 7, 2, 1, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 4, 3, 2, 1, 0, 7, 6],
        [6, 3, 4, 1, 2, 7, 0, 5],
        [7, 2, 1, 4, 3, 6, 5, 0]])
    return k[idx] / (1 - nu ** 2)


class TestRectMesh:
    def test_paper_scale_element_count(self):
        mesh = build_rect_mesh(360, 180, 2.0, 1.0)
        assert mesh.n_elements == 64800

    def test_minimal_grid(self):
        mesh = build_rect_mesh(1, 1, 1.0, 1.0, bc="bottom-clamped")
        assert mesh.n_elements == 1
        assert mesh.nodes.shape[0] == 4
        np.testing.assert_array_equal(mesh.dirichlet_dofs, [0, 1, 2, 3])

    def test_centroids_2x2(self):
        mesh = build_rect_mesh(2, 2, 2.0, 2.0)
        np.testing.assert_allclose(
            mesh.element_centroids,
            [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            build_rect_mesh(0, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_rect_mesh(3, 3, 0.0, 1.0)


class TestDiscMesh:
    def test_wheel_resolution_counts(self):
        mesh = build_disc_mesh(18, 72, 0.1, 0.95)
        assert mesh.n_elements == 18 * 72
        # oracle: count centroid radii beyond the rim radius directly
        r = np.hypot(*mesh.element_centroids.T)
        assert len(mesh.fixed_density) == int((r > 0.95).sum()) == 72
        assert all(v == 1.0 for v in mesh.fixed_density.values())

    def test_inner_ring_clamped(self):
        mesh = build_disc_mesh(6, 16, 0.1, 0.95)
        r = np.hypot(*mesh.nodes.T)
        inner = np.nonzero(np.abs(r - 0.1) < 1e-12)[0]
        expect = np.sort(np.concatenate([2 * inner, 2 * inner + 1]))
        np.testing.assert_array_equal(mesh.dirichlet_dofs, expect)

    def test_angular_wrap_around(self):
        n_ang = 16
        mesh = build_disc_mesh(4, n_ang, 0.1, 0.9)
        first = set(mesh.elements[0])           # element (band 0, sector 0)
        last = set(mesh.elements[n_ang - 1])    # element (band 0, last sector)
        assert len(first & last) == 2

    def test_bad_radii_rejected(self):
        with pytest.raises(ValueError):
            build_disc_mesh(4, 16, 0.95, 0.1)
        with pytest.raises(ValueError):
            build_disc_mesh(4, 16, 0.1, 1.5)
        with pytest.raises(ValueError):
            build_disc_mesh(4, 4, 0.1, 0.9)

    def test_band_templates_match_per_element_assembly(self):
        mesh = build_disc_mesh(3, 12, 0.1, 0.9)
        mats = mesh.template.element_matrices()
        for e in [0, 5, 17, 35]:
            direct = q4_unit_stiffness(mesh.nodes[mesh.elements[e]],
                                       mesh.template.poisson)
            np.testing.assert_allclose(mats[e], direct, atol=1e-12)

    def test_volumes_sum_to_annulus_area(self):
        mesh = build_disc_mesh(12, 96, 0.1, 0.95)
        exact = np.pi * (1.0 - 0.1 ** 2)
        # straight-edge quads underestimate the disc slightly
        assert abs(mesh.element_volumes.sum() - exact) / exact < 5e-3


class TestTemplate:
    def test_matches_analytic_unit_square(self):
        for nu in (0.2, 0.3, 0.4):
            k0 = q4_unit_stiffness(
                np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]]), nu)
            np.testing.assert_allclose(k0, analytic_unit_square_ke(nu),
                                       atol=1e-14)

    def test_symmetric_psd_three_rigid_modes(self):
        for coords in (
            np.array([[0., 0.], [2., 0.], [2., 1.], [0., 1.]]),
            np.array([[1., 0.1], [2., 0.], [2.2, 1.1], [0.9, 1.]]),
        ):
            k0 = q4_unit_stiffness(coords, 0.3)
            np.testing.assert_allclose(k0, k0.T, atol=1e-14)
            w = np.linalg.eigvalsh(k0)
            assert np.sum(np.abs(w) < 1e-10) == 3
            assert np.all(w > -1e-10)


class TestAssemble:
    def test_single_element_restriction(self):
        mesh = build_rect_mesh(1, 1, 1.0, 1.0)
        sys = assemble_stiffness(mesh, np.ones(1))
        k0 = mesh.template.element_matrices()[0]
        free = mesh.free_dofs
        local = [list(mesh.edof[0]).index(g) for g in free]
        Kinv = sys.lu.solve(np.eye(free.size))
        np.testing.assert_allclose(np.linalg.inv(Kinv),
                                   k0[np.ix_(local, local)], atol=1e-12)

    def test_linearity_in_stiffness(self):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        f = np.zeros(mesh.n_dofs)
        f[-1] = 1.0
        u1 = assemble_stiffness(mesh, np.ones(mesh.n_elements)).solve(f)
        u2 = assemble_stiffness(mesh, 1e-4 * np.ones(mesh.n_elements)).solve(f)
        np.testing.assert_allclose(u2, 1e4 * u1, rtol=1e-9)

    def test_reduced_matrix_spd_dense_oracle(self):
        rng = np.random.default_rng(0)
        mesh = build_rect_mesh(2, 2, 1.0, 1.0)
        s = rng.uniform(0.2, 1.0, mesh.n_elements)
        free = mesh.free_dofs
        mats = mesh.template.element_matrices()
        K = np.zeros((mesh.n_dofs, mesh.n_dofs))
        for e in range(mesh.n_elements):
            d = mesh.edof[e]
            K[np.ix_(d, d)] += s[e] * mats[e]
        Kred = K[np.ix_(free, free)]
        np.testing.assert_allclose(Kred, Kred.T, atol=1e-12)
        assert np.linalg.eigvalsh(Kred).min() > 0
        # factorized system reproduces the dense solve
        sys = assemble_stiffness(mesh, s)
        f = rng.standard_normal(mesh.n_dofs)
        f[mesh.dirichlet_dofs] = 0.0
        u = sys.solve(f)
        np.testing.assert_allclose(Kred @ u[free], f[free], atol=1e-11)

    def test_invalid_stiffness_rejected(self):
        mesh = build_rect_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, np.ones(3))
        bad = np.ones(mesh.n_elements)
        bad[1] = 0.0
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, bad)


class TestSolve:
    def test_zero_rhs(self):
        mesh = build_rect_mesh(2, 3, 1.0, 1.5)
        sys = assemble_stiffness(mesh, np.ones(mesh.n_elements))
        np.testing.assert_array_equal(sys.solve(np.zeros(mesh.n_dofs)), 0.0)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(7)
        mesh = build_rect_mesh(6, 4, 3.0, 2.0)
        s = rng.uniform(1e-4, 1.0, mesh.n_elements)
        sys = assemble_stiffness(mesh, s)
        f = rng.standard_normal(mesh.n_dofs)
        f[mesh.dirichlet_dofs] = 0.0
        u = sys.solve(f)
        mats = mesh.template.element_matrices()
        r = np.zeros(mesh.n_dofs)
        for e in range(mesh.n_elements):
            d = mesh.edof[e]
            r[d] += s[e] * (mats[e] @ u[d])
        free = mesh.free_dofs
        rel = np.linalg.norm(r[free] - f[free]) / np.linalg.norm(f[free])
        assert rel < 1e-10

    def test_multi_rhs_matches_column_solves(self):
        rng = np.random.default_rng(1)
        mesh = build_rect_mesh(5, 3, 2.0, 1.0)
        sys = assemble_stiffness(mesh, rng.uniform(0.3, 1.0, mesh.n_elements))
        F = rng.standard_normal((mesh.n_dofs, 64))
        F[mesh.dirichlet_dofs] = 0.0
        U = sys.solve(F)
        assert U.shape == F.shape
        for j in (0, 13, 63):
            np.testing.assert_array_equal(U[:, j], sys.solve(F[:, j]))

    def test_unit_columns_are_columns_of_the_inverse(self):
        rng = np.random.default_rng(2)
        mesh = build_rect_mesh(4, 3, 2.0, 1.5)
        sys = assemble_stiffness(mesh, rng.uniform(0.3, 1.0, mesh.n_elements))
        dofs = np.array([mesh.free_dofs[5], mesh.dirichlet_dofs[0],
                         mesh.free_dofs[0]])
        Z = sys.unit_columns(dofs)
        assert Z.shape == (mesh.n_dofs, 3)
        np.testing.assert_array_equal(Z[:, 1], 0.0)
        for j in (0, 2):
            e = np.zeros(mesh.n_dofs)
            e[dofs[j]] = 1.0
            np.testing.assert_array_equal(Z[:, j], sys.solve(e))
        # K^-1 is symmetric
        assert Z[dofs[2], 0] == pytest.approx(Z[dofs[0], 2], rel=1e-12)

    def test_rhs_length_mismatch(self):
        mesh = build_rect_mesh(2, 2, 1.0, 1.0)
        sys = assemble_stiffness(mesh, np.ones(4))
        with pytest.raises(ValueError):
            sys.solve(np.zeros(5))

    def test_polar_tangential_rim_load_solvable(self):
        mesh = build_disc_mesh(5, 16, 0.1, 0.9)
        sys = assemble_stiffness(mesh, np.ones(mesh.n_elements))
        r = np.hypot(*mesh.nodes.T)
        outer = np.nonzero(np.abs(r - 1.0) < 1e-12)[0]
        f = np.zeros(mesh.n_dofs)
        f[2 * outer] = -mesh.nodes[outer, 1]     # tangential direction
        f[2 * outer + 1] = mesh.nodes[outer, 0]
        u = sys.solve(f)
        assert np.all(np.isfinite(u))
        assert f @ u > 0


class TestCompliance:
    """The compliance F^T U and its stiffness sensitivity -u_e^T k_e u_e."""

    def test_positive_for_solved_state(self):
        rng = np.random.default_rng(5)
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        sys = assemble_stiffness(mesh, rng.uniform(0.5, 1.0, mesh.n_elements))
        f = rng.standard_normal(mesh.n_dofs)
        f[mesh.dirichlet_dofs] = 0.0
        assert f @ sys.solve(f) > 0.0


class TestComplianceGradient:
    def test_zero_state(self):
        mesh = build_rect_mesh(2, 2, 1.0, 1.0)
        np.testing.assert_array_equal(
            -element_quadratic_forms(mesh, np.zeros(mesh.n_dofs)),
            np.zeros(4))

    def test_nonpositive(self):
        rng = np.random.default_rng(2)
        mesh = build_rect_mesh(4, 3, 2.0, 1.0)
        sys = assemble_stiffness(mesh, rng.uniform(0.2, 1.0, mesh.n_elements))
        f = rng.standard_normal(mesh.n_dofs)
        f[mesh.dirichlet_dofs] = 0.0
        g = -element_quadratic_forms(mesh, sys.solve(f))
        assert np.all(g <= 1e-14)

    def test_matches_finite_differences_3x3(self):
        rng = np.random.default_rng(4)
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        s = rng.uniform(0.2, 0.9, mesh.n_elements)
        f = np.zeros(mesh.n_dofs)
        top = np.nonzero(np.abs(mesh.nodes[:, 1] - 1.0) < 1e-12)[0]
        f[2 * top + 1] = -1.0
        u = assemble_stiffness(mesh, s).solve(f)
        grad = -element_quadratic_forms(mesh, u)

        step = 1e-6
        for e in range(mesh.n_elements):
            sp = s.copy()
            sp[e] += step
            sm = s.copy()
            sm[e] -= step
            cp = f @ assemble_stiffness(mesh, sp).solve(f)
            cm = f @ assemble_stiffness(mesh, sm).solve(f)
            fd = (cp - cm) / (2 * step)
            assert abs(grad[e] - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_multi_state_quadratic_forms(self):
        rng = np.random.default_rng(9)
        mesh = build_rect_mesh(3, 2, 1.0, 1.0)
        U = rng.standard_normal((mesh.n_dofs, 5))
        block = element_quadratic_forms(mesh, U, U)
        assert block.shape == (5, mesh.n_elements)
        for j in range(5):
            np.testing.assert_allclose(
                block[j], element_quadratic_forms(mesh, U[:, j]), atol=1e-12)


def quadratic_forms_einsum(mesh, U1, U2):
    """Reference kernel: one three-operand einsum per call."""
    mats = mesh.template.element_matrices()
    e1, e2 = U1[mesh.edof], U2[mesh.edof]
    if e1.ndim == 2:
        return np.einsum("ei,eij,ej->e", e1, mats, e2)
    return np.einsum("eib,eij,ejb->be", e1, mats, e2)


class TestElementQuadraticForms:
    @pytest.mark.parametrize("mesh", [
        build_rect_mesh(7, 4, 2.0, 1.0),
        build_disc_mesh(4, 12, 0.1, 0.9),   # rotated per-band templates
    ], ids=["rect", "disc"])
    @pytest.mark.parametrize("columns", [None, 1, 5])
    def test_matches_three_operand_einsum(self, mesh, columns):
        rng = np.random.default_rng(11)
        shape = (mesh.n_dofs,) if columns is None else (mesh.n_dofs, columns)
        U1, U2 = rng.standard_normal(shape), rng.standard_normal(shape)
        got = element_quadratic_forms(mesh, U1, U2)
        want = quadratic_forms_einsum(mesh, U1, U2)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-14 * np.abs(want).max())


class TestLowRankUpdates:
    """Woodbury reanalysis against factorizing each modified design."""

    def fields(self, mesh, s0, rng, n):
        out = []
        for k in range(n):
            s = s0.copy()
            touched = rng.choice(mesh.n_elements, size=k % 4, replace=False)
            s[touched] *= rng.uniform(0.01, 3.0, touched.size)
            out.append(s)
        return out

    @pytest.mark.parametrize("mesh", [
        build_rect_mesh(5, 3, 2.0, 1.0),
        build_disc_mesh(3, 10, 0.1, 0.9),
    ], ids=["rect", "disc"])
    def test_matches_direct_solves(self, mesh):
        rng = np.random.default_rng(12)
        s0 = rng.uniform(0.2, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        F = rng.standard_normal((mesh.n_dofs, 3))
        F[mesh.dirichlet_dofs] = 0.0
        U0 = system.solve(F)
        fields = self.fields(mesh, s0, rng, 8)
        updates = list(low_rank_updates(system, mesh, s0, fields))
        assert len(updates) == len(fields)
        for s, update in zip(fields, updates):
            U = assemble_stiffness(mesh, s).solve(F)
            assert update.dofs.size <= 8 * np.count_nonzero(s != s0)
            assert not np.isin(update.dofs, mesh.dirichlet_dofs).any()
            np.testing.assert_allclose(update.solve(U0), U, rtol=0,
                                       atol=1e-10 * np.abs(U).max())
            drop = np.einsum("db,db->b", F, U0) - np.einsum("db,db->b", F, U)
            np.testing.assert_allclose(update.form_drop(U0, U0), drop,
                                       rtol=1e-10, atol=1e-12)

    def test_rank_zero_update_is_identity(self):
        mesh = build_rect_mesh(3, 2, 1.0, 1.0)
        s0 = np.linspace(0.5, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        (update,) = low_rank_updates(system, mesh, s0, [s0.copy()])
        assert update.dofs.size == 0
        U0 = np.arange(mesh.n_dofs, dtype=float)
        np.testing.assert_array_equal(update.solve(U0), U0)
        assert update.form_drop(U0, U0) == 0.0

    def test_large_calls_split_into_bounded_block_solves(self, monkeypatch):
        mesh = build_rect_mesh(6, 4, 2.0, 1.0)
        rng = np.random.default_rng(13)
        s0 = rng.uniform(0.2, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        budget = 20
        monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES",
                            budget * mesh.n_dofs)
        widths = []
        solve = system.solve
        system.solve = lambda rhs: widths.append(rhs.shape[1]) or solve(rhs)
        fields = self.fields(mesh, s0, rng, 12)
        updates = list(low_rank_updates(system, mesh, s0, fields))
        assert len(widths) > 1 and max(widths) <= budget
        f = np.zeros(mesh.n_dofs)
        f[-1] = 1.0
        u0 = solve(f)
        for s, update in zip(fields, updates, strict=True):
            u = assemble_stiffness(mesh, s).solve(f)
            np.testing.assert_allclose(update.solve(u0), u, rtol=0,
                                       atol=1e-10 * np.abs(u).max())
