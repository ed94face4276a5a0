import dataclasses
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import SuperLU, spilu, splu

from smma import driver, mesh_fem
from smma.benchmarks import plate_problem, wheel_problem
from smma.design_field import E_VOID
from smma.mesh_fem import (
    FactorizationError,
    FactorizedSystem,
    assemble_stiffness,
    build_disc_mesh,
    build_rect_mesh,
    change_slots,
    condensed_groups,
    element_quadratic_forms,
    low_rank_updates,
    q4_unit_stiffness,
)
from smma.driver import dense_cc


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
        mesh = build_rect_mesh(1, 1, 1.0, 1.0)
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
        for width, height in ((0.0, 1.0), (np.nan, 1.0), (1.0, np.nan),
                              (np.inf, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="width and height must be"):
                build_rect_mesh(3, 3, width, height)

    def test_edof_interleaves_x_and_y_per_node(self):
        # nodes 0 1 2 on the bottom row, 3 4 5 on the top
        mesh = build_rect_mesh(2, 1, 2.0, 1.0)
        np.testing.assert_array_equal(mesh.edof, [
            [0, 1, 2, 3, 8, 9, 6, 7],
            [2, 3, 4, 5, 10, 11, 8, 9]])
        np.testing.assert_array_equal(mesh.free_dofs, np.arange(6, 12))


@pytest.mark.parametrize("change,message", [
    ({"elements": np.array([[0, 1, 4, 3]])}, "out of node range"),
    ({"elements": np.array([[0, 1, 3, 3]])}, "repeated node indices"),
    ({"elements": np.array([[3, 1, 0, 3]])}, "repeated node indices"),
    ({"dirichlet_dofs": np.zeros(0, dtype=int)}, "nonempty Dirichlet set"),
], ids=["node-out-of-range", "repeated-node", "repeated-node-apart",
        "no-dirichlet"])
def test_mesh_constructor_rejects_bad_connectivity(change, message):
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(mesh, **change)


def same_bytes(a, b):
    """Equal as int64 views, so that signed zeros and NaN payloads count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def disc_matrices_einsum(mesh, poisson=0.3):
    """Reference: one q4_unit_stiffness call per band at sector 0, rotated
    into place by the 8x8 block rotation T in one three-operand einsum."""
    n_radial, n_angular = mesh.shape
    k0 = np.stack([
        q4_unit_stiffness(mesh.nodes[mesh.elements[b * n_angular]], poisson)
        for b in range(n_radial)])
    bands = np.repeat(np.arange(n_radial), n_angular)
    sectors = np.tile(np.arange(n_angular), n_radial)
    dtheta = 2.0 * np.pi / n_angular
    c, s = np.cos(sectors * dtheta), np.sin(sectors * dtheta)
    T = np.zeros((bands.size, 8, 8))
    for i in range(4):
        T[:, 2 * i, 2 * i] = c
        T[:, 2 * i, 2 * i + 1] = -s
        T[:, 2 * i + 1, 2 * i] = s
        T[:, 2 * i + 1, 2 * i + 1] = c
    return np.einsum("eij,ejk,elk->eil", T, k0[bands], T)


class TestDiscMesh:
    @pytest.mark.parametrize("shape", [(18, 72), (1, 8), (1, 9), (3, 8),
                                       (3, 9)])
    def test_element_matrices_are_the_einsum_bytes(self, shape):
        mesh = build_disc_mesh(*shape, 0.1, 0.95 if shape[0] > 1 else 0.5)
        assert mesh.element_matrices.flags.c_contiguous
        assert same_bytes(mesh.element_matrices, disc_matrices_einsum(mesh))

    def test_wheel_resolution_counts(self):
        mesh = build_disc_mesh(18, 72, 0.1, 0.95)
        assert mesh.n_elements == 18 * 72
        # oracle: count centroid radii beyond the rim radius directly
        r = np.hypot(*mesh.element_centroids.T)
        np.testing.assert_array_equal(mesh.solid, np.nonzero(r > 0.95)[0])
        assert mesh.solid.size == 72

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
        for e in [0, 5, 17, 35]:
            direct = q4_unit_stiffness(mesh.nodes[mesh.elements[e]], 0.3)
            np.testing.assert_allclose(mesh.element_matrices[e], direct,
                                       atol=1e-12)

    def test_volumes_sum_to_annulus_area(self):
        mesh = build_disc_mesh(12, 96, 0.1, 0.95)
        exact = np.pi * (1.0 - 0.1 ** 2)
        # straight-edge quads underestimate the disc slightly
        assert abs(mesh.element_volumes.sum() - exact) / exact < 5e-3


class TestTemplate:
    def test_poisson_above_half_accepted(self):
        # plane stress D is positive definite for every nu in (-1, 1)
        mesh = build_rect_mesh(2, 2, 1.0, 1.0, poisson=0.6)
        assert np.all(np.linalg.eigvalsh(mesh_fem.plane_stress_matrix(0.6))
                      > 0.0)
        assemble_stiffness(mesh, np.ones(mesh.n_elements))

    def test_matches_analytic_unit_square(self):
        for nu in (0.2, 0.3, 0.4):
            k0 = q4_unit_stiffness(
                np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]]), nu)
            np.testing.assert_allclose(k0, analytic_unit_square_ke(nu),
                                       atol=1e-14)

    def test_stack_matches_single_element_calls(self):
        rng = np.random.default_rng(29)
        square = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])
        corners = square + rng.uniform(-0.2, 0.2, (3, 5, 4, 2))
        stacked = q4_unit_stiffness(corners, 0.3)
        assert stacked.shape == (3, 5, 8, 8)
        for idx in np.ndindex(3, 5):
            assert same_bytes(stacked[idx],
                              q4_unit_stiffness(corners[idx], 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_corner_rejected(self, bad):
        # NaN fails the Jacobian check instead of giving a NaN matrix
        square = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])
        coords = square.copy()
        coords[3, 1] = bad
        with pytest.raises(ValueError, match="not strictly positive"):
            q4_unit_stiffness(coords, 0.3)
        with pytest.raises(ValueError, match="not strictly positive"):
            q4_unit_stiffness(np.stack([square, coords]), 0.3)

    def test_inverted_element_rejected(self):
        coords = np.array([[0., 0.], [0., 1.], [1., 1.], [1., 0.]])  # cw
        with pytest.raises(ValueError, match="not strictly positive"):
            q4_unit_stiffness(coords, 0.3)

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


def unit_columns(system, dofs):
    """K^-1 P, (system rows, len(dofs)), for the unit columns P of dofs,
    from one block solve; a Dirichlet dof's column is zero."""
    dofs = np.asarray(dofs, dtype=int)
    P = np.zeros((system.n_rows, dofs.size))
    P[system.rows(dofs), np.arange(dofs.size)] = 1.0
    return system.solve(P)


class TestAssemble:
    def test_single_element_restriction(self):
        mesh = build_rect_mesh(1, 1, 1.0, 1.0)
        sys = assemble_stiffness(mesh, np.ones(1))
        k0 = mesh.element_matrices[0]
        free = mesh.free_dofs
        local = [list(mesh.edof[0]).index(g) for g in free]
        Kinv = unit_columns(sys, free)[free]
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
        mats = mesh.element_matrices
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("ordered", [False, True],
                             ids=["first", "reordered"])
    def test_nonfinite_stiffness_rejected(self, value, ordered):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        if ordered:
            assemble_stiffness(mesh, np.ones(mesh.n_elements))
        assert (mesh.colamd is not None) == ordered
        bad = np.ones(mesh.n_elements)
        bad[4] = value
        with pytest.raises(ValueError, match=f"got {value} at element 4"):
            assemble_stiffness(mesh, bad)


def coo_stiffness(mesh, s):
    """Reference assembly: K by scipy's coo -> csc conversion, natural
    column order."""
    data = (mesh.element_matrices * s[:, None, None]).ravel()
    edof = mesh.edof
    rows = np.repeat(edof, 8, axis=1).ravel()
    cols = np.tile(edof, (1, 8)).ravel()
    free = mesh.free_dofs
    redidx = -np.ones(mesh.n_dofs, dtype=int)
    redidx[free] = np.arange(free.size)
    rr, cc = redidx[rows], redidx[cols]
    keep = (rr >= 0) & (cc >= 0)
    return sp.coo_matrix((data[keep], (rr[keep], cc[keep])),
                         shape=(free.size, free.size)).tocsc()


def recorded_splu(monkeypatch):
    """Swap mesh_fem.splu for a wrapper; returns its list of
    (K, permc_spec, factorization)."""
    calls = []

    def record(K, permc_spec=None, **options):
        calls.append((K, permc_spec,
                      splu(K, permc_spec=permc_spec, **options)))
        return calls[-1][2]

    monkeypatch.setattr(mesh_fem, "splu", record)
    return calls


def recorded_orders(monkeypatch, calls):
    """Swap mesh_fem.spilu, the node-graph order's symbolic pass, for a
    wrapper that appends (graph, "spilu " + permc_spec, factorization) to
    calls, the list of recorded_splu."""

    def record(A, permc_spec=None, **options):
        calls.append((A, f"spilu {permc_spec}",
                      spilu(A, permc_spec=permc_spec, **options)))
        return calls[-1][2]

    monkeypatch.setattr(mesh_fem, "spilu", record)


class TestPatternAssembly:
    """The per-mesh pattern and column order against the coo -> csc
    assembly factorized with SuperLU's own ordering."""

    @pytest.mark.parametrize("make", [
        lambda: build_rect_mesh(1, 1, 1.0, 1.0),
        lambda: build_rect_mesh(3, 2, 3.0, 2.0),
        lambda: build_rect_mesh(7, 4, 2.0, 1.0),
        lambda: build_disc_mesh(3, 12, 0.1, 0.9),
        lambda: wheel_problem().mesh,
        lambda: plate_problem().mesh,
    ], ids=["rect-1x1", "rect-3x2", "rect-7x4", "disc-3x12", "wheel",
            "plate"])
    def test_bit_identical_to_coo_assembly(self, monkeypatch, make):
        mesh = make()
        calls = recorded_splu(monkeypatch)
        rng = np.random.default_rng(3)
        F = rng.standard_normal((mesh.n_dofs, 3))
        free = mesh.free_dofs
        # uniform and two-valued designs give K many equal entries; on a
        # tie for a column's largest entry, SuperLU pivots on the diagonal,
        # which it locates through its column order
        n = mesh.n_elements
        designs = [np.ones(n), np.where(np.arange(n) % 3, 1.0, 1e-4),
                   np.ones(n)] + [rng.uniform(1e-4, 1.0, n) for _ in range(3)]
        for s in designs:
            recorded = mesh.colamd
            system = assemble_stiffness(mesh, s)
            want = coo_stiffness(mesh, s)
            U = np.zeros_like(F)
            U[free] = splu(want).solve(F[free])
            if recorded is not None:
                # the columns in the order q of the first factorization
                want = want[:, np.searchsorted(free, recorded[1])].tocsc()
            K = calls[-1][0]
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(K, name),
                                              getattr(want, name))
            np.testing.assert_array_equal(system.solve(F), U)
        assert mesh.colamd is not None

    def test_signed_zero_entries_kept(self, monkeypatch):
        # the x-y coupling at the top right node, which only element 1
        # reaches, is -0.0 in K as in the coo -> csc sum
        mesh = build_rect_mesh(2, 1, 2.0, 1.0)
        mats = mesh.element_matrices.copy()
        mats[1, 4, 5] = mats[1, 5, 4] = -0.0
        mesh = dataclasses.replace(mesh, element_matrices=mats)
        calls = recorded_splu(monkeypatch)
        s = np.array([0.5, 2.0])
        assemble_stiffness(mesh, s)
        K = calls[-1][0]
        want = coo_stiffness(mesh, s)
        assert np.sum(np.signbit(want.data) & (want.data == 0.0)) == 2
        np.testing.assert_array_equal(np.signbit(K.data),
                                      np.signbit(want.data))

    def test_one_ordering_per_mesh(self, monkeypatch):
        mesh = build_rect_mesh(7, 4, 2.0, 1.0)
        calls = recorded_splu(monkeypatch)
        rng = np.random.default_rng(4)
        for _ in range(3):
            assemble_stiffness(mesh, rng.uniform(0.1, 1.0, mesh.n_elements))
        assert [spec for _, spec, _ in calls] == ["COLAMD", "NATURAL",
                                                  "NATURAL"]

    def test_simp_clone_reuses_the_ordering(self, monkeypatch):
        problem = plate_problem(nx=12, ny=6, n_omega=4)
        view = problem._whole
        assert "pattern" in vars(view)   # built by the calibration solve
        pattern = view.pattern
        calls = recorded_splu(monkeypatch)
        clone = problem.with_simp(3.0)
        clone.evaluate_records(clone.initial_design(), [[1.0, 0.5]])
        assert [spec for _, spec, _ in calls] == ["NATURAL"]
        assert clone._whole is view and view.pattern is pattern
        # the plate never ran COLAMD, which would record its order here
        assert problem.mesh.colamd is None

    def test_plate_never_runs_colamd(self, monkeypatch):
        calls = recorded_splu(monkeypatch)
        recorded_orders(monkeypatch, calls)
        problem = plate_problem(nx=12, ny=6, n_omega=4)
        cfg = driver.RunConfig(method="smma", iterations=2, seed=0,
                               verify_every=1, verify_spec=(3, 3))
        driver.run_smma(problem, cfg)
        # the node-graph order once, from one symbolic ILU pass, then one
        # factorization per iteration and per verification, all of them
        # in that order
        assert [spec for _, spec, _ in calls] == (["spilu MMD_AT_PLUS_A"]
                                                  + ["NATURAL"] * 5)
        assert problem.mesh.colamd is None

    def test_rows_are_free_dofs_and_unknowns_follow_the_order(self):
        mesh = build_disc_mesh(3, 12, 0.1, 0.9)
        first = assemble_stiffness(mesh, np.ones(mesh.n_elements))
        later = assemble_stiffness(mesh, np.ones(mesh.n_elements))
        free = mesh.free_dofs
        for system in (first, later):
            np.testing.assert_array_equal(system.free_dofs, free)
        np.testing.assert_array_equal(first.unknowns, free)
        # stored column j of A Pc is column q[j] of A
        np.testing.assert_array_equal(later.unknowns,
                                      free[np.argsort(first.lu.perm_c)])
        assert not np.array_equal(later.unknowns, free)
        f = np.zeros(mesh.n_dofs)
        f[free[-1]] = 1.0
        np.testing.assert_array_equal(first.solve(f), later.solve(f))


def splu_node_graph_order(mesh):
    """Oracle: the node-graph order from a full splu factorization of the
    free-node graph, as the mesh computed it before its symbolic pass."""
    nodes, node_of = np.unique(mesh.free_dofs // 2, return_inverse=True)
    position = np.full(mesh.nodes.shape[0], -1)
    position[nodes] = np.arange(nodes.size)
    e = position[mesh.elements]
    rows = np.repeat(e, 4, axis=1).ravel()
    cols = np.tile(e, (1, 4)).ravel()
    both = (rows >= 0) & (cols >= 0)
    rows, cols = rows[both], cols[both]
    graph = sp.csc_matrix((np.where(rows == cols, 4.0, -1.0), (rows, cols)),
                          shape=(nodes.size, nodes.size))
    lu = splu(graph, permc_spec="MMD_AT_PLUS_A")
    return np.argsort(lu.perm_c[node_of], kind="stable")


def entry_ids_by_comparison_sort(edof, free, n_dofs):
    """Oracle: the pattern's entry ids with the column bucketing sorted on
    the full-width column indices, as before the radix sort."""
    n = free.size
    reduced = np.full(n_dofs, -1, dtype=np.intc)
    reduced[free] = np.arange(n, dtype=np.intc)
    red = reduced[edof]
    rows = np.repeat(red, 8, axis=1).ravel()
    cols = np.tile(red, (1, 8)).ravel()
    entries = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rows[entries], cols[entries]
    by_col = np.argsort(cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    raw = sp.csc_matrix((entries[by_col].astype(float), rows[by_col],
                         indptr), shape=(n, n))
    raw.sort_indices()
    return raw


# the meshes of test_filter_matches_loop_build, and a finer one of each kind
SETUP_MESHES = {
    "plate": lambda: build_rect_mesh(60, 30, 2.0, 1.0),
    "wheel": lambda: build_disc_mesh(18, 72, 0.1, 0.95),
    "rect-7x4": lambda: build_rect_mesh(7, 4, 2.0, 1.0),
    "disc-3x12": lambda: build_disc_mesh(3, 12, 0.1, 0.9),
    "rect-120x60": lambda: build_rect_mesh(120, 60, 2.0, 1.0),
    "disc-36x144": lambda: build_disc_mesh(36, 144, 0.1, 0.95),
}


class TestSetupOracles:
    """What a mesh builds once, against the slower paths it replaced."""

    @pytest.mark.parametrize("name", sorted(SETUP_MESHES))
    def test_node_order_is_the_splu_order(self, name):
        mesh = SETUP_MESHES[name]()
        np.testing.assert_array_equal(mesh.symmetric_order,
                                      splu_node_graph_order(mesh))

    @pytest.mark.parametrize("name", sorted(SETUP_MESHES))
    def test_radix_sorted_pattern_is_byte_identical(self, name):
        mesh = SETUP_MESHES[name]()
        args = mesh.edof, mesh.free_dofs, mesh.n_dofs
        got = mesh_fem._entry_ids_csc(*args)
        want = entry_ids_by_comparison_sort(*args)
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# a plate and a wheel small enough to factorize in a few ms; the plate's
# weakness changes the stiffness of an element only within about 0.005 of
# its centroid, so a rule touches elements on the benchmark's mesh only
SMALL_PLATE = plate_problem(nx=16, ny=8, n_omega=8)
SMALL_WHEEL = wheel_problem(n_radial=8, n_angular=24)
RULE_PLATE = plate_problem(nx=60, ny=30, n_omega=4)


def slots_of(mesh, element_sets):
    """The ChangeSlots of one change per set of element indices."""
    sizes = [np.size(e) for e in element_sets]
    return change_slots(mesh, np.repeat(np.arange(len(sizes)), sizes),
                        np.concatenate([np.zeros(0, int), *element_sets]),
                        len(sizes))


def condensed_keep(name):
    """(mesh, keep) for the named view of a small plate or wheel."""
    problem = SMALL_PLATE if name.startswith("rect") else SMALL_WHEEL
    mesh = problem.mesh
    free = mesh.free_dofs
    if name == "disc-rim":
        return mesh, problem._rim_dofs
    if name == "rect-rule":
        # T u S of a 5x5 rule, as the plate's dense_raw condenses it
        problem = RULE_PLATE
        mesh = problem.mesh
        loaded = np.flatnonzero(np.any(problem.load_block() != 0.0, axis=1))
        pts, _ = problem.space.trapezoid_rule((5, 5))
        reached = [np.flatnonzero(1.0 - problem.weakness(xi) < 1.0)
                   for xi in pts]
        ((_, _, view),) = condensed_groups(mesh, loaded,
                                           slots_of(mesh, reached))
        return mesh, view.keep
    if name.endswith("single"):
        return mesh, free[free.size // 3:free.size // 3 + 1]
    if name.endswith("dirichlet"):
        # the dofs of the elements that hold a clamped node
        touching = np.isin(mesh.edof, mesh.dirichlet_dofs).any(axis=1)
        return mesh, np.intersect1d(mesh.edof[touching], free)
    return mesh, free


class TestCondensed:
    """The stiffness condensed onto a set of dofs against the loop's
    factorization of the whole reduced matrix. A condensed system's loads
    and states have one row per kept dof."""

    @pytest.mark.parametrize("name", [
        "disc-rim", "disc-single", "disc-dirichlet", "disc-all",
        "rect-rule", "rect-single", "rect-dirichlet", "rect-all"])
    def test_unit_columns_match_the_loop_factorization(self, name):
        mesh, keep = condensed_keep(name)
        rng = np.random.default_rng(5)
        s = rng.uniform(0.05, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh.condensed(keep), s)
        np.testing.assert_array_equal(system.free_dofs, keep)
        np.testing.assert_array_equal(system.unknowns, keep)
        assert system.condensed and system.n_rows == keep.size
        assert system.lu.nnz > 0
        want = unit_columns(assemble_stiffness(mesh, s), keep)[keep]
        scale = np.abs(want).max()
        got = unit_columns(system, keep)
        assert got.shape == (keep.size, keep.size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
        # some of the kept dofs, in their rows of keep
        some = keep[::3]
        got = unit_columns(system, some)
        assert got.shape == (keep.size, some.size)
        np.testing.assert_allclose(got, want[:, ::3], rtol=0,
                                   atol=1e-12 * scale)
        # a load on keep, one row per kept dof: the displacements of K
        F = rng.standard_normal((keep.size, 2))
        U = system.solve(F)
        assert U.shape == F.shape
        load = np.abs(F).sum(axis=0).max()
        np.testing.assert_allclose(U, want @ F, rtol=0,
                                   atol=1e-12 * scale * load)
        u = system.solve(F[:, 0])
        assert u.shape == (keep.size,)
        np.testing.assert_allclose(u, U[:, 0], rtol=0,
                                   atol=1e-12 * scale * load)

    @staticmethod
    def assert_assembles_as_coo(mesh, pattern, s, rows, columns):
        """pattern, a permutation holding one index into the mesh's
        pattern per entry and no slots, assembles K[rows][:, columns] of
        the coo -> csc sum byte for byte."""
        assert pattern.slots is None
        assert pattern.source.shape == pattern.indices.shape
        K = mesh_fem._assembled(mesh, pattern, s)
        want = coo_stiffness(mesh, s)[rows][:, columns].tocsc()
        want.sort_indices()
        assert same_bytes(K.data, want.data)
        for attr in ("indices", "indptr"):
            np.testing.assert_array_equal(getattr(K, attr),
                                          getattr(want, attr))

    def test_pattern_is_the_symmetric_permutation(self):
        # and any other: rows and columns in independent random orders
        rng = np.random.default_rng(6)
        for mesh in (build_rect_mesh(5, 3, 2.0, 1.0),
                     build_disc_mesh(3, 12, 0.1, 0.9)):
            n = mesh.free_dofs.size
            s = rng.uniform(0.1, 1.0, mesh.n_elements)
            base = mesh.pattern
            for ordered in (False, True):
                if ordered:
                    assemble_stiffness(mesh, s)
                # COLAMD records its own layout and leaves the base alone
                assert mesh.pattern is base
                assert (mesh.colamd is not None) == ordered
                rows, columns = rng.permutation(n), rng.permutation(n)
                for r, c in ((rows, columns), (rows, rows)):
                    self.assert_assembles_as_coo(mesh, base.permuted(r, c),
                                                 s, r, c)
                    # a permutation of a permutation indexes the base too
                    r2, c2 = rng.permutation(n), rng.permutation(n)
                    self.assert_assembles_as_coo(
                        mesh, base.permuted(r, c).permuted(r2, c2), s,
                        r[r2], c[c2])
        # the wheel's COLAMD layout, its columns in the recorded order q
        mesh = wheel_problem().mesh
        pattern, unknowns = mesh.colamd
        free = mesh.free_dofs
        s = rng.uniform(0.1, 1.0, mesh.n_elements)
        self.assert_assembles_as_coo(mesh, pattern, s, np.arange(free.size),
                                     np.searchsorted(free, unknowns))

    @pytest.mark.parametrize("keep,message", [
        (lambda mesh: mesh.dirichlet_dofs[:1], "outside the free dofs"),
        (lambda mesh: mesh.free_dofs[[3, 3, 4]], "sorted and free of dup"),
        (lambda mesh: mesh.free_dofs[[4, 3]], "sorted and free of dup"),
        (lambda mesh: mesh.free_dofs[[7, 2]].astype(np.uint64),
         "sorted and free of dup"),
        (lambda mesh: np.array([mesh.n_dofs]), "outside the free dofs"),
        (lambda mesh: mesh.free_dofs[:2].astype(float), "1-D array of dof"),
        (lambda mesh: mesh.free_dofs[:4].reshape(2, 2), "1-D array of dof"),
    ], ids=["dirichlet", "duplicate", "unsorted", "unsigned-unsorted",
            "out-of-range", "float", "two-dimensional"])
    def test_bad_keep_rejected(self, keep, message):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        with pytest.raises(ValueError, match=message):
            mesh.condensed(keep(mesh))

    def test_load_of_wrong_length_rejected(self):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        keep = mesh.free_dofs[-4:]
        system = assemble_stiffness(mesh.condensed(keep),
                                    np.ones(mesh.n_elements))
        assert np.all(np.isfinite(system.solve(np.ones(keep.size))))
        # a full-length load, and one row too many or too few
        for rows in (mesh.n_dofs, keep.size + 1, keep.size - 1):
            for shape in ((rows,), (rows, 2)):
                with pytest.raises(ValueError, match="rows"):
                    system.solve(np.zeros(shape))
        for dof in (mesh.free_dofs[0], mesh.dirichlet_dofs[0], mesh.n_dofs):
            with pytest.raises(ValueError, match="kept dofs only"):
                system.rows([keep[0], dof])

    def test_pivot_off_the_diagonal_raises(self, monkeypatch):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        view = mesh.condensed(mesh.free_dofs[-2:])

        def pivoting(K, permc_spec=None, **options):
            lu = splu(K, permc_spec=permc_spec, **options)
            if permc_spec != "NATURAL":
                return lu
            return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c)

        monkeypatch.setattr(mesh_fem, "splu", pivoting)
        with pytest.raises(FactorizationError, match="diagonal"):
            assemble_stiffness(view, np.ones(mesh.n_elements))

    def test_orders_recorded_once(self, monkeypatch):
        calls = recorded_splu(monkeypatch)
        recorded_orders(monkeypatch, calls)
        specs = lambda: [spec for _, spec, _ in calls]   # noqa: E731
        wheel = wheel_problem(n_radial=6, n_angular=16)
        # the wheel's builder calibrates with one COLAMD factorization
        assert specs() == ["COLAMD"]
        del calls[:]
        plate = plate_problem(nx=12, ny=6, n_omega=4)
        # the plate's records the node-graph order from one symbolic ILU
        # pass, then calibrates with the whole system in it
        assert specs() == ["spilu MMD_AT_PLUS_A", "NATURAL"]
        built = calls[:]
        # three verifications each: one MMD pass per mesh, so the plate's
        # reuse the order its builder recorded
        mmd = ["spilu MMD_AT_PLUS_A"]
        for problem, spec, before, want in (
                (wheel, 30, [], mmd + ["NATURAL"] * 3),
                (plate, (3, 3), built, mmd + ["NATURAL"] * 4)):
            calls[:] = before
            mesh = problem.mesh
            clone = problem.with_simp(3.0)
            for verified in (problem, problem, clone):
                dense_cc(verified.initial_design(), verified, spec)
            assert specs() == want
            assert clone.mesh is mesh
            # the order comes from the free-node graph: half the rows of K
            n = mesh.free_dofs.size
            assert calls[0][0].shape == (n // 2, n // 2)
            order = mesh.symmetric_order
            assert np.array_equal(np.sort(order), np.arange(n))
            # each node's x and y dofs are adjacent, x first
            pairs = mesh.free_dofs[order].reshape(-1, 2)
            np.testing.assert_array_equal(pairs[:, 1], pairs[:, 0] + 1)
            assert np.all(pairs[:, 0] % 2 == 0)
            # every symmetric factorization took its diagonal pivots
            for _, _, lu in calls[1:]:
                identity = np.arange(lu.shape[0])
                np.testing.assert_array_equal(lu.perm_r, identity)
                np.testing.assert_array_equal(lu.perm_c, identity)


def triangular_schur_inverse(view, s):
    """Oracle: S^-1 by two dense triangular solves with the trailing
    blocks L22 and U22 of the pivot-free factorization of the view's K,
    as a condensed system formed it before it held S^-1."""
    mesh = view.mesh
    K = mesh_fem._assembled(mesh, view.pattern, s)
    lu = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    m = mesh.free_dofs.size - view.keep.size
    L, U = lu.L[m:, m:].toarray(), lu.U[m:, m:].toarray()
    y = solve_triangular(L, np.eye(view.keep.size), lower=True,
                         unit_diagonal=True, check_finite=False)
    return solve_triangular(U, y, check_finite=False)


def schur_views():
    """(name, view, s) of the default wheel's rim and the views of the
    default plate's 5 x 5 and 50 x 50 rules, at a random design."""
    rng = np.random.default_rng(31)
    wheel, plate = wheel_problem(), plate_problem()
    for name, problem, views in (
            ("wheel-rim", wheel, [wheel._rim_view]),
            ("plate-5x5", plate,
             [view for view, _, _ in plate._rule_plan((5, 5))[1]]),
            ("plate-50x50", plate,
             [view for view, _, _ in plate._rule_plan((50, 50))[1]])):
        s = problem.stiffness_field(rng.uniform(0.3, 0.9, problem.n_design))
        for k, view in enumerate(views):
            yield f"{name}-{k}", view, s


class TestSchurInverse:
    """A condensed system holds S^-1 from the Cholesky factor of its
    trailing block; the two triangular solves it replaced are the oracle."""

    def test_matches_the_triangular_solves(self):
        names = []
        for name, view, s in schur_views():
            names.append(name)
            inverse = assemble_stiffness(view, s).inverse
            want = triangular_schur_inverse(view, s)
            assert inverse.flags.c_contiguous
            np.testing.assert_array_equal(inverse, inverse.T)
            np.testing.assert_allclose(inverse, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max(),
                                       err_msg=name)
        # the 50 x 50 rule takes two views
        assert names == ["wheel-rim-0", "plate-5x5-0", "plate-50x50-0",
                         "plate-50x50-1"]

    @pytest.mark.parametrize("name", ["wheel-rim", "plate-5x5"])
    def test_keeps_its_superlu_factorization(self, name):
        # perfbench's tracer reads lu.nnz as factor_nnz
        if name == "wheel-rim":
            problem = wheel_problem()
            view = problem._rim_view
        else:
            problem = RULE_PLATE
            ((view, _, _),) = problem._rule_plan((5, 5))[1]
        rng = np.random.default_rng(32)
        s = problem.stiffness_field(rng.uniform(0.3, 0.9, problem.n_design))
        system = assemble_stiffness(view, s)
        want = splu(mesh_fem._assembled(view.mesh, view.pattern, s),
                    permc_spec="NATURAL", diag_pivot_thresh=0.0)
        assert system.condensed and isinstance(system.lu, SuperLU)
        assert system.lu.nnz == want.nnz

    @pytest.mark.parametrize("live", ["all", "some"])
    def test_solve_is_the_gathered_product(self, live):
        # the wheel's rim loads fill every kept row: the product takes S^-1
        # and the loads as they are, with the bits of the gathered product
        problem = wheel_problem()
        rng = np.random.default_rng(33)
        s = problem.stiffness_field(rng.uniform(0.3, 0.9, problem.n_design))
        system = assemble_stiffness(problem._rim_view, s)
        F = problem.rim_loads(np.linspace(0.0, 2.0 * np.pi, 40,
                                          endpoint=False))
        if live == "some":
            F[rng.permutation(F.shape[0])[:F.shape[0] // 3]] = 0.0
        rows = np.flatnonzero(np.any(F, axis=1))
        assert (rows.size == F.shape[0]) == (live == "all")
        assert same_bytes(system.solve(F),
                          system.inverse[:, rows] @ F[rows])
        # one load holds only the rim edges near its peak
        f = F[:, 7]
        rows = np.flatnonzero(f)
        assert 0 < rows.size < f.size
        assert same_bytes(system.solve(f), system.inverse[:, rows] @ f[rows])

    @pytest.mark.parametrize("pivot", [0.0, -1.0, np.nan])
    def test_trailing_pivot_not_positive_raises(self, monkeypatch, pivot):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        view = mesh.condensed(mesh.free_dofs[-2:])
        n = mesh.free_dofs.size

        def indefinite(K, permc_spec=None, **options):
            lu = splu(K, permc_spec=permc_spec, **options)
            U = lu.U.tolil()
            U[n - 1, n - 1] = pivot
            return SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c,
                                   U=U.tocsc(), nnz=lu.nnz)

        monkeypatch.setattr(mesh_fem, "splu", indefinite)
        with pytest.raises(FactorizationError, match="not positive"):
            assemble_stiffness(view, np.ones(mesh.n_elements))

    def test_failed_inversion_raises(self, monkeypatch):
        mesh = build_rect_mesh(3, 2, 3.0, 2.0)
        view = mesh.condensed(mesh.free_dofs[-2:])
        monkeypatch.setattr(mesh_fem, "dpotri",
                            lambda c, **options: (c, 2))
        with pytest.raises(FactorizationError, match="dpotri info 2"):
            assemble_stiffness(view, np.ones(mesh.n_elements))


NO_DOFS = np.zeros(0, dtype=int)


class TestWholeSystem:
    """The whole system in the symmetric order (a view condensed onto no
    dofs: the plate's builder and loop) against the COLAMD path and the
    coo -> csc assembly factorized by SuperLU, which stay the oracles."""

    @pytest.mark.parametrize("make", [
        lambda: build_rect_mesh(1, 1, 1.0, 1.0),
        lambda: build_rect_mesh(7, 4, 2.0, 1.0),
        lambda: build_disc_mesh(3, 12, 0.1, 0.9),
        lambda: SMALL_PLATE.mesh,
    ], ids=["rect-1x1", "rect-7x4", "disc-3x12", "plate-16x8"])
    def test_matches_colamd_and_coo(self, make):
        mesh = make()
        rng = np.random.default_rng(8)
        s = rng.uniform(0.05, 1.0, mesh.n_elements)
        whole = assemble_stiffness(mesh.condensed(NO_DOFS), s)
        assert not whole.condensed and whole.n_rows == mesh.n_dofs
        ordered = mesh.free_dofs[mesh.symmetric_order]
        np.testing.assert_array_equal(whole.free_dofs, ordered)
        np.testing.assert_array_equal(whole.unknowns, ordered)
        colamd = assemble_stiffness(mesh, s)
        free, fixed = mesh.free_dofs, mesh.dirichlet_dofs
        # loads at Dirichlet rows too: they are read at the free rows only
        F = rng.standard_normal((mesh.n_dofs, 3))
        want = np.zeros_like(F)
        want[free] = splu(coo_stiffness(mesh, s)).solve(F[free])
        scale = np.abs(want).max()
        got = whole.solve(F)
        np.testing.assert_array_equal(got[fixed], 0.0)
        for oracle in (want, colamd.solve(F)):
            np.testing.assert_allclose(got, oracle, rtol=0,
                                       atol=1e-12 * scale)
        np.testing.assert_allclose(whole.solve(F[:, 1]), want[:, 1],
                                   rtol=0, atol=1e-12 * scale)
        dofs = np.array([free[-1], fixed[0], free[0], free[free.size // 2]])
        Z = unit_columns(whole, dofs)
        assert Z.shape == (mesh.n_dofs, dofs.size)
        np.testing.assert_array_equal(Z[:, 1], 0.0)
        np.testing.assert_array_equal(Z[fixed], 0.0)
        P = np.zeros((mesh.n_dofs, dofs.size))
        P[dofs, np.arange(dofs.size)] = 1.0
        want = np.zeros_like(P)
        want[free] = splu(coo_stiffness(mesh, s)).solve(P[free])
        scale = np.abs(want).max()
        for oracle in (want, unit_columns(colamd, dofs)):
            np.testing.assert_allclose(Z, oracle, rtol=0, atol=1e-12 * scale)


@st.composite
def pivot_free_cases(draw):
    """A rect or disc mesh, element factors from the SIMP void stiffness
    to 1, and an empty or a nonempty random keep."""
    if draw(st.booleans()):
        mesh = build_rect_mesh(draw(st.integers(1, 8)),
                               draw(st.integers(1, 8)), 2.0, 1.0)
    else:
        mesh = build_disc_mesh(draw(st.integers(1, 4)),
                               draw(st.integers(8, 16)), 0.1, 0.9)
    n = mesh.n_elements
    s = draw(st.lists(st.floats(E_VOID, 1.0), min_size=n, max_size=n))
    keep = draw(st.just([]) | st.lists(
        st.sampled_from(mesh.free_dofs.tolist()), min_size=1, max_size=24,
        unique=True))
    return mesh, np.array(s), np.array(sorted(keep), dtype=int)


class TestPivotFree:
    """K is SPD, so its factorization needs no pivot in exact arithmetic;
    the plate's loop and every verification rely on it staying on the
    diagonal in floating point, down to the void stiffness."""

    @settings(max_examples=60, deadline=None)
    @given(case=pivot_free_cases())
    def test_stays_on_the_diagonal(self, case):
        mesh, s, keep = case
        with pytest.MonkeyPatch.context() as mp:
            calls = recorded_splu(mp)
            # raises FactorizationError on a pivot off the diagonal
            system = assemble_stiffness(mesh.condensed(keep), s)
        K, _, lu = calls[-1]
        rng = np.random.default_rng(9)
        free = mesh.free_dofs
        if keep.size == 0:
            f = rng.standard_normal(mesh.n_dofs)
            u = system.solve(f)
            residual = coo_stiffness(mesh, s) @ u[free] - f[free]
            assert (np.linalg.norm(residual)
                    <= 1e-10 * np.linalg.norm(f[free]))
            return
        # a load on keep, last in K's order: the condensed solve is the
        # trailing block of the whole factorization's solve
        b = np.zeros(free.size)
        b[-keep.size:] = rng.standard_normal(keep.size)
        x = lu.solve(b)
        assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)
        np.testing.assert_allclose(system.solve(b[-keep.size:]),
                                   x[-keep.size:], rtol=0,
                                   atol=1e-12 * np.abs(x).max())


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
        mats = mesh.element_matrices
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
        Z = unit_columns(sys, dofs)
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


class CountingLU:
    """A factorization that records the width of each block it solves."""

    def __init__(self, lu):
        self.lu, self.widths = lu, []

    def solve(self, b):
        self.widths.append(b.shape[1] if b.ndim == 2 else 1)
        return self.lu.solve(b)


class FailingLU:
    """A factorization whose solve fails at once on the calling thread, or
    on the pool's worker, while the other half takes a while; ended names
    the halves in the order they end."""

    def __init__(self, lu, on_helper):
        self.lu, self.on_helper, self.ended = lu, on_helper, []

    def solve(self, b):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper == self.on_helper:
            self.ended.append("failed")
            raise RuntimeError("solve failed")
        time.sleep(0.05)
        self.ended.append("solved")
        return self.lu.solve(b)


def one_block(system, rhs):
    """The state of rhs from one SuperLU solve of the whole block."""
    u = np.zeros_like(rhs)
    u[system.unknowns] = system.lu.solve(
        np.ascontiguousarray(rhs[system.free_dofs]))
    return u


def serial_halves(system, rhs):
    """The state of rhs from its two halves, solved one after the other
    on this thread."""
    u = np.zeros_like(rhs)
    b = np.ascontiguousarray(rhs[system.free_dofs])
    half = b.shape[1] // 2
    u[system.unknowns, :half] = system.lu.solve(b[:, :half])
    u[system.unknowns, half:] = system.lu.solve(b[:, half:])
    return u


def solve_threads():
    """The live threads of the split solve's pool."""
    return [t for t in threading.enumerate()
            if t.name.startswith("smma-solve")]


class TestSplitSolve:
    """A SuperLU block of 32 or more columns is solved as two halves, one
    on the calling thread and one on a one-worker pool."""

    @staticmethod
    def counted_solve(system, rhs):
        """The state and the widths of the SuperLU solves."""
        counted = dataclasses.replace(system, lu=CountingLU(system.lu))
        return counted.solve(rhs), sorted(counted.lu.widths)

    def assert_halves(self, system, rhs):
        m = rhs.shape[1]
        u, widths = self.counted_solve(system, rhs)
        assert widths == [m // 2, m - m // 2]
        assert u.tobytes() == serial_halves(system, rhs).tobytes()
        # the BLAS kernels SuperLU calls may round a column differently
        # with the block's width
        whole = one_block(system, rhs)
        np.testing.assert_allclose(u, whole, rtol=0,
                                   atol=1e-15 * np.abs(whole).max())

    @pytest.mark.parametrize("m", [32, 33, 47, 101])
    def test_plate_unit_blocks(self, m):
        mesh = RULE_PLATE.mesh
        s = np.random.default_rng(m).uniform(0.05, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh.condensed(NO_DOFS), s)
        dofs = np.random.default_rng(0).choice(mesh.free_dofs, m,
                                               replace=False)
        P = np.zeros((system.n_rows, m))
        P[dofs, np.arange(m)] = 1.0
        self.assert_halves(system, P)

    def test_colamd_block_scatters_to_the_unknowns(self):
        mesh = SMALL_WHEEL.mesh
        rng = np.random.default_rng(21)
        assemble_stiffness(mesh, rng.uniform(0.2, 1.0, mesh.n_elements))
        system = assemble_stiffness(mesh, rng.uniform(0.2, 1.0,
                                                      mesh.n_elements))
        assert not np.array_equal(system.unknowns, system.free_dofs)
        F = np.zeros((mesh.n_dofs, 40))
        F[mesh.free_dofs] = rng.standard_normal((mesh.free_dofs.size, 40))
        self.assert_halves(system, F)

    @pytest.mark.parametrize("m", [1, 31])
    def test_narrow_blocks_are_one_solve(self, m):
        mesh = RULE_PLATE.mesh
        system = assemble_stiffness(mesh.condensed(NO_DOFS),
                                    np.ones(mesh.n_elements))
        F = np.zeros((mesh.n_dofs, m))
        F[mesh.free_dofs[-m:], np.arange(m)] = 1.0
        for rhs in (F, F[:, 0]):
            u, widths = self.counted_solve(system, rhs)
            assert len(widths) == 1
            assert u.tobytes() == one_block(system, rhs).tobytes()

    @pytest.mark.parametrize("on_helper", [False, True])
    def test_a_failed_half_raises_after_both_end(self, on_helper):
        mesh = build_rect_mesh(6, 4, 2.0, 1.0)
        system = assemble_stiffness(mesh, np.ones(mesh.n_elements))
        failing = dataclasses.replace(system,
                                      lu=FailingLU(system.lu, on_helper))
        F = np.zeros((mesh.n_dofs, 40))
        F[mesh.free_dofs[:40], np.arange(40)] = 1.0
        with pytest.raises(RuntimeError, match="solve failed"):
            failing.solve(F)
        # the failure surfaced once the slow half had ended too
        assert failing.lu.ended == ["failed", "solved"]
        assert not solve_threads()

    def test_narrow_solves_start_no_thread(self, monkeypatch):
        # the wheel loop's 8 loads and the plate builder's calibration
        # solve in one piece; the plate loop's block splits, on one worker
        # that is joined before solve returns
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            if thread.name.startswith("smma-solve"):
                started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        widths = []
        solve = FactorizedSystem.solve

        def counted_solve(system, rhs):
            widths.append(np.shape(rhs)[1:])
            u = solve(system, rhs)
            assert not solve_threads()
            return u

        monkeypatch.setattr(FactorizedSystem, "solve", counted_solve)
        rho = SMALL_WHEEL.initial_design()
        SMALL_WHEEL.evaluate_records(
            rho, SMALL_WHEEL.space.sample(np.random.default_rng(0), 8))
        plate = plate_problem()
        assert widths and not started, widths
        plate.evaluate_records(
            plate.initial_design(),
            plate.space.sample(np.random.default_rng(0), 8))
        assert widths[-1][0] >= 32 and len(started) == 1, started


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
            -element_quadratic_forms(mesh, np.zeros((mesh.n_dofs, 1)),
                                     np.zeros((mesh.n_dofs, 1))),
            np.zeros((1, 4)))

    def test_nonpositive(self):
        rng = np.random.default_rng(2)
        mesh = build_rect_mesh(4, 3, 2.0, 1.0)
        sys = assemble_stiffness(mesh, rng.uniform(0.2, 1.0, mesh.n_elements))
        f = rng.standard_normal(mesh.n_dofs)
        f[mesh.dirichlet_dofs] = 0.0
        u = sys.solve(f)[:, None]
        g = -element_quadratic_forms(mesh, u, u)
        assert np.all(g <= 1e-14)

    def test_matches_finite_differences_3x3(self):
        rng = np.random.default_rng(4)
        mesh = build_rect_mesh(3, 3, 1.0, 1.0)
        s = rng.uniform(0.2, 0.9, mesh.n_elements)
        f = np.zeros(mesh.n_dofs)
        top = np.nonzero(np.abs(mesh.nodes[:, 1] - 1.0) < 1e-12)[0]
        f[2 * top + 1] = -1.0
        u = assemble_stiffness(mesh, s).solve(f)[:, None]
        grad = -element_quadratic_forms(mesh, u, u)[0]

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
            u = U[:, j:j + 1]
            np.testing.assert_allclose(
                block[j], element_quadratic_forms(mesh, u, u)[0], atol=1e-12)


def quadratic_forms_einsum(mesh, U1, U2):
    """Reference kernel: one three-operand einsum per call."""
    return np.einsum("eib,eij,ejb->be", U1[mesh.edof], mesh.element_matrices,
                     U2[mesh.edof])


class TestElementQuadraticForms:
    @pytest.mark.parametrize("mesh", [
        build_rect_mesh(7, 4, 2.0, 1.0),
        build_disc_mesh(4, 12, 0.1, 0.9),   # rotated per-band templates
    ], ids=["rect", "disc"])
    @pytest.mark.parametrize("columns", [1, 5])
    def test_matches_three_operand_einsum(self, mesh, columns):
        rng = np.random.default_rng(11)
        shape = (mesh.n_dofs, columns)
        U1, U2 = rng.standard_normal(shape), rng.standard_normal(shape)
        got = element_quadratic_forms(mesh, U1, U2)
        want = quadratic_forms_einsum(mesh, U1, U2)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-14 * np.abs(want).max())


class TestLowRankUpdates:
    """Woodbury reanalysis against factorizing each modified design: the
    compliance drop and the change of the element quadratic forms, both
    from the states of the unmodified design only."""

    def fields(self, mesh, s0, rng, n):
        out = []
        for k in range(n):
            s = s0.copy()
            touched = rng.choice(mesh.n_elements, size=k % 4, replace=False)
            s[touched] *= rng.uniform(0.01, 3.0, touched.size)
            out.append(s)
        return out

    @staticmethod
    def changes(s0, fields):
        """Each field as the change it makes: (elements, factors)."""
        return [(np.flatnonzero(s != s0), s[s != s0]) for s in fields]

    @staticmethod
    def updates(system, mesh, s0, changes, F):
        """(U0, slots, [LowRankUpdates, in order]) of changes."""
        slots = slots_of(mesh, [elements for elements, _ in changes])
        factors = np.concatenate([f for _, f in changes] + [np.zeros(0)])
        U0, updates = low_rank_updates(system, mesh, s0, slots, factors, F)
        return U0, slots, list(updates)

    def assert_matches_direct(self, mesh, F, U0, fields, update, w):
        """Update p of the stacked update is fields[p]."""
        drops = update.drop
        Z, Y, owner = update.form_change(U0, np.tile(w, (len(fields), 1)))
        assert Z.shape == Y.shape == (U0.shape[0], owner.size)
        corrections = element_quadratic_forms(mesh, Z, Y)
        q0 = w @ element_quadratic_forms(mesh, U0, U0)
        for p, s in enumerate(fields):
            U = assemble_stiffness(mesh, s).solve(F)
            drop = (np.einsum("db,db->b", F, U0)
                    - np.einsum("db,db->b", F, U))
            np.testing.assert_allclose(drops[p], drop, rtol=1e-10,
                                       atol=1e-12)
            # per element sum_b w_b u_b^T k_e u_b, which the correction
            # updates
            want = w @ element_quadratic_forms(mesh, U, U)
            got = q0 + corrections[owner == p].sum(axis=0)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("mesh", [
        build_rect_mesh(5, 3, 2.0, 1.0),
        build_disc_mesh(3, 10, 0.1, 0.9),
    ], ids=["rect", "disc"])
    def test_matches_direct_solves(self, mesh):
        # loads on every free dof: the block holds [F, E_S]
        rng = np.random.default_rng(12)
        s0 = rng.uniform(0.2, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        F = rng.standard_normal((mesh.n_dofs, 3))
        F[mesh.dirichlet_dofs] = 0.0
        self.assert_one_block_matches_direct(mesh, s0, system, F, rng,
                                             F.shape[1])

    @pytest.mark.parametrize("mesh", [
        build_rect_mesh(5, 3, 2.0, 1.0),
        build_disc_mesh(3, 10, 0.1, 0.9),
    ], ids=["rect", "disc"])
    def test_matches_direct_solves_on_the_loaded_dofs(self, mesh):
        # 6 loads on 3 dofs, one of them clamped: the block holds the unit
        # columns of T and S
        rng = np.random.default_rng(15)
        s0 = rng.uniform(0.2, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        F = np.zeros((mesh.n_dofs, 6))
        T = [mesh.dirichlet_dofs[0], mesh.n_dofs - 3, mesh.n_dofs - 1]
        F[T] = rng.standard_normal((3, 6))
        self.assert_one_block_matches_direct(mesh, s0, system, F, rng,
                                             len(T))

    def assert_one_block_matches_direct(self, mesh, s0, system, F, rng,
                                        basis):
        """basis: the number of the block's columns before E_S."""
        widths = []
        solve = system.solve
        system.solve = lambda rhs: widths.append(rhs.shape[1]) or solve(rhs)
        w = rng.standard_normal(F.shape[1])     # indefinite column weights
        fields = self.fields(mesh, s0, rng, 8)
        U0, slots, (update,) = self.updates(system, mesh, s0,
                                            self.changes(s0, fields), F)
        union = np.unique(slots.dofs[slots.dofs < mesh.n_dofs])
        assert widths == [basis + union.size]
        np.testing.assert_allclose(U0, solve(F), rtol=0,
                                   atol=1e-12 * np.abs(U0).max())
        assert update.C.shape[0] == len(fields)
        for s, dofs in zip(fields, slots.dofs, strict=True):
            dofs = dofs[dofs < mesh.n_dofs]
            assert dofs.size <= 8 * np.count_nonzero(s != s0)
            assert not np.isin(dofs, mesh.dirichlet_dofs).any()
        self.assert_matches_direct(mesh, F, U0, fields, update, w)

    def test_rank_zero_update_is_identity(self):
        mesh = build_rect_mesh(3, 2, 1.0, 1.0)
        s0 = np.linspace(0.5, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        F = np.arange(2.0 * mesh.n_dofs).reshape(mesh.n_dofs, 2)
        U0, slots, (update,) = self.updates(
            system, mesh, s0, self.changes(s0, [s0.copy(), s0.copy()]), F)
        assert slots.dofs.shape == (2, 0)
        np.testing.assert_array_equal(update.drop, 0.0)
        Z, Y, owner = update.form_change(U0, np.ones((2, 2)))
        assert Z.shape == Y.shape == (mesh.n_dofs, 0) and owner.size == 0

    def test_large_calls_split_into_bounded_block_solves(self, monkeypatch):
        F = np.zeros((build_rect_mesh(6, 4, 2.0, 1.0).n_dofs, 1))
        F[-1] = 1.0
        widths, updates = self.assert_split_matches_direct(monkeypatch, F, 20)
        assert 1 < len(widths) <= updates

    def test_large_calls_split_on_the_loaded_dofs(self, monkeypatch):
        # 6 loads on 3 dofs: the first block holds E_T and E_S
        F = np.zeros((build_rect_mesh(6, 4, 2.0, 1.0).n_dofs, 6))
        F[[-5, -3, -1]] = np.random.default_rng(16).standard_normal((3, 6))
        widths, updates = self.assert_split_matches_direct(monkeypatch, F, 20)
        assert 1 < len(widths) <= updates

    def test_each_stacked_update_takes_one_block_solve(self, monkeypatch):
        # a budget that one stacked update of every change would exceed:
        # each of the several updates solves its own block
        F = np.zeros((build_rect_mesh(6, 4, 2.0, 1.0).n_dofs, 3))
        F[[-5, -3, -1]] = np.random.default_rng(17).standard_normal((3, 3))
        widths, updates = self.assert_split_matches_direct(monkeypatch, F,
                                                           100)
        assert len(widths) == updates > 1

    def assert_split_matches_direct(self, monkeypatch, F, budget):
        """(block widths, number of LowRankUpdates) of 12 changes under a
        budget of that many n_dofs-long columns, within which every block
        and every stacked operand keeps."""
        mesh = build_rect_mesh(6, 4, 2.0, 1.0)
        rng = np.random.default_rng(13)
        s0 = rng.uniform(0.2, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES",
                            budget * mesh.n_dofs)
        widths = []
        solve = system.solve
        system.solve = lambda rhs: widths.append(rhs.shape[1]) or solve(rhs)
        fields = self.fields(mesh, s0, rng, 12)
        U0, _, updates = self.updates(system, mesh, s0,
                                      self.changes(s0, fields), F)
        assert max(widths) <= budget
        np.testing.assert_allclose(U0, solve(F), rtol=0,
                                   atol=1e-12 * np.abs(U0).max())
        for update in updates:
            size, s, _ = update.C.shape
            Z, Y, _ = update.form_change(U0, np.ones((size, F.shape[1])))
            # C and the M it is formed from
            assert (max(update.C.size, size * s * s, Z.size, Y.size)
                    <= budget * mesh.n_dofs)
            self.assert_matches_direct(mesh, F, U0, fields[:size], update,
                                       np.ones(F.shape[1]))
            fields = fields[size:]
        assert not fields
        return widths, len(updates)

    def test_element_at_its_factor_changes_nothing(self):
        # element 6 is listed at its factor in s0: its dofs widen the
        # change, and its zero block of dK leaves the update exact
        mesh = build_rect_mesh(5, 3, 2.0, 1.0)
        rng = np.random.default_rng(14)
        s0 = rng.uniform(0.2, 1.0, mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        elements = np.array([2, 6, 7])
        s = s0.copy()
        s[elements] *= np.array([0.5, 1.0, 2.0])
        F = np.zeros((mesh.n_dofs, 2))
        F[-4:] = np.arange(8.0).reshape(4, 2)
        U0, slots, (update,) = self.updates(system, mesh, s0,
                                            [(elements, s[elements])], F)
        np.testing.assert_array_equal(slots.dofs[0], np.setdiff1d(
            mesh.edof[elements], mesh.dirichlet_dofs))
        self.assert_matches_direct(mesh, F, U0, [s], update,
                                   rng.standard_normal(F.shape[1]))

    @pytest.mark.parametrize("elements,factors,message", [
        ([4, 2], [0.5, 0.5], "strictly increasing"),
        ([3, 3], [0.5, 0.5], "strictly increasing"),
        (np.array([4, 2], dtype=np.uint64), [0.5, 0.5], "strictly incr"),
        ([-1], [0.5], "out of range"),
        ([15], [0.5], "out of range"),
        (np.array([2 ** 64 - 1], dtype=np.uint64), [0.5], "out of range"),
        ([2, 4], [0.5], "one factor per element"),
        ([2, 4], [0.5, 0.5, 0.5], "one factor per element"),
    ], ids=["unsorted", "repeated", "unsigned-unsorted", "negative",
            "past-the-end", "unsigned-wrapped", "short-factors",
            "long-factors"])
    def test_bad_change_rejected(self, elements, factors, message):
        mesh = build_rect_mesh(5, 3, 2.0, 1.0)
        s0 = np.ones(mesh.n_elements)
        system = assemble_stiffness(mesh, s0)
        F = np.ones((mesh.n_dofs, 1))
        with pytest.raises(ValueError, match=message):
            slots = change_slots(mesh, np.zeros(len(elements), int),
                                 elements, 1)
            low_rank_updates(system, mesh, s0, slots, factors, F)

    @pytest.mark.parametrize("owner", [
        [1, 0], [-1, 0], [0, 2], [0]],
        ids=["descending", "negative", "past-the-end", "short"])
    def test_bad_owner_rejected(self, owner):
        mesh = build_rect_mesh(5, 3, 2.0, 1.0)
        with pytest.raises(ValueError, match=r"ascend within range\(2\)"):
            change_slots(mesh, owner, [2, 4], 2)

    def test_flat_changes_match_one_change_each(self):
        # change 1 holds no element: its row is all pads
        mesh = build_rect_mesh(5, 3, 2.0, 1.0)
        slots = change_slots(mesh, [0, 0, 2, 2, 2], [1, 7, 0, 4, 14], 4)
        assert slots.dofs.shape[0] == 4
        np.testing.assert_array_equal(slots.dofs[[1, 3]], mesh.n_dofs)
        for p, elements in ((0, [1, 7]), (2, [0, 4, 14])):
            alone = slots_of(mesh, [elements])
            real = slots.dofs[p] < mesh.n_dofs
            np.testing.assert_array_equal(slots.dofs[p][real],
                                          alone.dofs[0])


def condensed_groups_by_change(mesh, base, slots):
    """(lo, hi, keep) of condensed_groups, grown change by change: the
    oracle of its array passes."""
    # a pad's dof n_dofs is kept from the start, so that it is never counted
    start = np.zeros(mesh.n_dofs + 1, dtype=bool)
    start[np.append(np.intersect1d(base, mesh.free_dofs), mesh.n_dofs)] = True
    kept, lo = start.copy(), 0
    for p, dofs in enumerate(slots.dofs):
        grown = np.count_nonzero(kept) - 1 + np.count_nonzero(~kept[dofs])
        if p > lo and grown ** 2 > mesh_fem._UPDATE_BLOCK_ENTRIES:
            yield lo, p, np.flatnonzero(kept[:-1])
            kept, lo = start.copy(), p
        kept[dofs] = True
    if lo < len(slots.dofs):
        yield lo, len(slots.dofs), np.flatnonzero(kept[:-1])


class TestCondensedGroups:
    """Consecutive changes share a condensed view while it stays within
    the block budget."""

    @staticmethod
    def assert_matches_the_oracle(mesh, base, slots):
        """condensed_groups yields the oracle's ranges and keeps; returns
        the number of groups."""
        got = list(condensed_groups(mesh, base, slots))
        want = list(condensed_groups_by_change(mesh, base, slots))
        assert [(lo, hi) for lo, hi, _ in got] == [
            (lo, hi) for lo, hi, _ in want]
        for (_, _, view), (_, _, keep) in zip(got, want):
            assert view.keep.dtype == keep.dtype
            np.testing.assert_array_equal(view.keep, keep)
        return len(got)

    @pytest.mark.parametrize("spec,groups", [((5, 5), 1), ((9, 9), 1),
                                             ((50, 50), 2)])
    def test_plate_rules_match_the_per_change_loop(self, spec, groups):
        plate = RULE_PLATE
        loaded = np.flatnonzero(np.any(plate.load_block() != 0.0, axis=1))
        slots, _ = plate._changed(plate.space.trapezoid_rule(spec)[0])
        assert self.assert_matches_the_oracle(plate.mesh, loaded,
                                              slots) == groups

    def test_a_change_past_the_budget_alone_matches_the_loop(self):
        mesh = RULE_PLATE.mesh
        # the bottom 19 element rows hold more than 2048 free dofs
        big = np.arange(19 * mesh.shape[0])
        assert mesh_fem._UPDATE_BLOCK_ENTRIES < np.intersect1d(
            mesh.edof[big], mesh.free_dofs).size ** 2
        small = [np.array([1500, 1501]), np.array([1700]), np.zeros(0, int),
                 np.array([1200, 1260, 1320])]
        base = mesh.free_dofs[-40:]
        # and changes that hold no dof at all: slots of width 0
        for sets, groups in (([big, *small], 2),
                             ([*small[:2], big, *small[2:]], 3),
                             ([*small, big], 2), ([big], 1), ([big, big], 2),
                             ([small[2], small[2]], 1)):
            for b in (base, base[:0]):
                assert self.assert_matches_the_oracle(
                    mesh, b, slots_of(mesh, sets)) == groups

    def test_ranges_cover_the_changes_within_the_budget(self, monkeypatch):
        mesh = RULE_PLATE.mesh
        rng = np.random.default_rng(31)
        sets = [np.sort(rng.choice(mesh.n_elements, k, replace=False))
                for k in (3, 0, 5, 2, 4, 1, 6, 2)]
        slots = slots_of(mesh, sets)
        # base holds Dirichlet dofs too, which no view keeps
        base = np.concatenate([mesh.dirichlet_dofs[:4], mesh.free_dofs[:10]])
        budget = 60
        monkeypatch.setattr(mesh_fem, "_UPDATE_BLOCK_ENTRIES", budget ** 2)
        groups = list(condensed_groups(mesh, base, slots))
        assert len(groups) >= 2
        assert [lo for lo, _, _ in groups] == [0] + [
            hi for _, hi, _ in groups[:-1]]
        assert groups[-1][1] == len(sets)

        def keep_of(lo, hi):
            return np.intersect1d(
                np.concatenate([base, slots.dofs[lo:hi].ravel()]),
                mesh.free_dofs)

        for lo, hi, view in groups:
            np.testing.assert_array_equal(view.keep, keep_of(lo, hi))
            assert view.keep.size <= budget or hi - lo == 1
            # a group stops where the next change would pass the budget
            if hi < len(sets):
                assert keep_of(lo, hi + 1).size > budget
