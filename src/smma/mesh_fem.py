"""Structured 2D plane-stress linear elasticity.

Meshes are bilinear Q4 grids: a uniform rectangle or a polar-mapped annulus
(the wheel domain, with the region inside the clamped radius removed).
A mesh is complete when its builder returns: besides the geometry it
carries each element's unit-modulus stiffness matrix (`element_matrices`),
its global dofs (`edof`), the free dofs outside the Dirichlet set
(`free_dofs`), the `solid` elements prescribed at density 1 (the wheel's
rim; none on the rectangle), and the `pattern` of its reduced stiffness
matrix.
Assembly scales a unit-modulus element stiffness by a per-element factor,
Dirichlet dofs are eliminated, and the reduced SPD system is factorized once
per design so that many load cases can be solved against it. A change of
a few element factors, given as those elements and their new factors, is
served by the same factorization through an exact low-rank (Woodbury)
update: the changed design's compliances and element quadratic forms are
those of the factorized design plus low-rank corrections.

Everything that depends only on the mesh is done once per mesh. The
`StiffnessPattern` holds the CSC structure of the reduced matrix in
free-dof order and, for each stored entry, the element entries summed into
it, in the order in which scipy's coo -> csc conversion sums them; an
assembly only scales the element blocks and adds. This base pattern is
never rebound: every factorization order is a permutation of it,
`pattern.permuted(rows, columns)` being the pattern of K[rows][:, columns].

A mesh is factorized in one of two orders, chosen by what its caller
assembles:

- `assemble_stiffness(mesh, s)`, the wheel's builder and loop: SuperLU's
  column ordering (COLAMD, then an elimination-tree postorder) depends on
  the structure alone, so the mesh's first factorization computes its
  column order q and records on the mesh the base pattern with its
  columns permuted by q and the unknowns free_dofs[q]; every later
  factorization takes those columns as they are ("NATURAL"). The factors,
  and so every solve, are bit-identical to ordering each matrix afresh.
  (SuperLU's row pivots could part only where a column's largest entry
  ties with the entry it takes for the diagonal, which it locates through
  the column order; the tests check uniform and two-valued designs, whose
  K has many equal entries.) The rows of the reduced system stay in
  free-dof order. The wheel keeps this path because its benchmark
  reference pins the wheel's chaotic trajectory to its last bits; it is
  also the test oracle of the other path.
- `assemble_stiffness(mesh.condensed(keep), s)`, the plate's builder and
  loop (keep empty) and dense verification of both problems: K taken in
  one symmetric fill-reducing order, rows and columns alike, with the dofs
  of keep moved last, and factorized with diagonal pivots, which K, being
  SPD, allows; any other pivot raises FactorizationError. The order is
  minimum degree on the graph of the free nodes (George & Liu, "The
  evolution of the minimum degree ordering algorithm", SIAM Review 1989),
  each node expanded to its x and y dofs: the mesh computes it on first
  read, from one factorization of a node-level matrix with half the rows
  of K. On the plate it leaves fewer nonzeros in L and U than COLAMD
  (about 314k against 398k).

`FactorizedSystem.unit_columns` solves for the columns of K^-1 at a set
of dofs in one block. The low-rank updates take their Z = K^-1 P from it.

With keep empty, `CondensedMesh` is the whole system in the symmetric
order. A reader of K^-1 at a few dofs only (dense verification) condenses
onto them instead (static condensation; Guyan, "Reduction of stiffness and
mass matrices", AIAA J. 1965): the trailing block L22 U22 of the
factorization is then the Schur complement S of the other dofs, and the
rows of K^-1 at keep are those of S^-1: a dense |keep|-square solve
instead of one full-length solve per column. Its loads and states have
one row per kept dof, so no n_dofs-long block is formed.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

_GAUSS = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


class FactorizationError(RuntimeError):
    """Reduced stiffness matrix could not be factorized (singular system)."""


def plane_stress_matrix(poisson: float) -> np.ndarray:
    nu = poisson
    # D is singular at nu = +-1 and indefinite beyond; NaN fails the test
    if not -1.0 < nu < 1.0:
        raise ValueError(f"Poisson's ratio must lie in (-1, 1), got {nu}")
    return np.array([
        [1.0, nu, 0.0],
        [nu, 1.0, 0.0],
        [0.0, 0.0, (1.0 - nu) / 2.0],
    ]) / (1.0 - nu * nu)


def q4_unit_stiffness(coords: np.ndarray, poisson: float) -> np.ndarray:
    """8x8 element stiffness for unit Young's modulus, 2x2 Gauss points.

    coords: (4, 2) node coordinates, counterclockwise.
    """
    D = plane_stress_matrix(poisson)
    k = np.zeros((8, 8))
    for xi in _GAUSS:
        for eta in _GAUSS:
            dN = 0.25 * np.array([
                [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
                [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
            ])
            J = dN @ coords
            detJ = float(np.linalg.det(J))
            if detJ <= 0.0:
                raise ValueError("element Jacobian is not strictly positive")
            dNxy = np.linalg.solve(J, dN)
            B = np.zeros((3, 8))
            B[0, 0::2] = dNxy[0]
            B[1, 1::2] = dNxy[1]
            B[2, 0::2] = dNxy[1]
            B[2, 1::2] = dNxy[0]
            k += (B.T @ D @ B) * detJ
    return k


def _entry_ids_csc(edof: np.ndarray, free: np.ndarray,
                   n_dofs: int) -> sp.csc_matrix:
    """The reduced element entries as scipy's coo -> csc conversion lays
    them out just before it sums duplicates, each valued by its index into
    the flattened (n_elements, 8, 8) blocks.

    The conversion buckets the entries by column in input order, then
    sorts each column by row with csr_sort_indices. That sort is not
    stable, so it is run here on the entry ids: it compares rows only, so
    the ids land where the values would.
    """
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


@dataclass
class StiffnessPattern:
    """CSC structure of a mesh's Dirichlet-reduced stiffness matrix.

    Stored entry k of K is the sum of the element entries slots[k], read
    as indices into the flattened (n_elements, 8, 8) scaled blocks and
    added left to right; -1 pads a row. That is the order in which scipy's
    coo -> csc conversion sums duplicates, so K.data is bit-identical to
    it. On a Q4 mesh a row holds at most 4 entries (4 elements per node).
    """

    indptr: np.ndarray             # (n + 1,) int32
    indices: np.ndarray            # (nnz,) int32 rows, sorted per column
    slots: np.ndarray              # (nnz, width) element entries, -1 padded

    @classmethod
    def of(cls, edof: np.ndarray, free: np.ndarray,
           n_dofs: int) -> "StiffnessPattern":
        raw = _entry_ids_csc(edof, free, n_dofs)
        # a stored entry sums one run of equal rows within a column
        first = np.ones(raw.nnz, dtype=bool)
        first[1:] = raw.indices[1:] != raw.indices[:-1]
        first[raw.indptr[:-1][np.diff(raw.indptr) > 0]] = True
        starts = np.flatnonzero(first)
        stored = np.cumsum(first) - 1
        rank = np.arange(raw.nnz)
        rank -= starts[stored]
        slots = np.full((starts.size, rank.max() + 1), -1)
        slots[stored, rank] = raw.data
        return cls(indptr=np.searchsorted(starts, raw.indptr).astype(np.intc),
                   indices=raw.indices[starts], slots=slots)

    def permuted(self, rows: np.ndarray,
                 columns: np.ndarray) -> "StiffnessPattern":
        """The pattern of K[rows][:, columns], for permutations rows and
        columns of range(n)."""
        n = self.indptr.size - 1
        position = np.empty(n, dtype=np.intc)
        position[rows] = np.arange(n, dtype=np.intc)
        # take the stored columns in the order columns, then sort each
        # column's rows by their new position
        counts = np.diff(self.indptr)[columns]
        indptr = np.zeros_like(self.indptr)
        np.cumsum(counts, out=indptr[1:])
        take = (np.repeat(self.indptr[columns] - indptr[:-1], counts)
                + np.arange(indptr[-1]))
        ids = sp.csc_matrix((take.astype(float), position[self.indices[take]],
                             indptr), shape=(n, n))
        ids.sort_indices()
        return StiffnessPattern(indptr=indptr, indices=ids.indices,
                                slots=self.slots[ids.data.astype(np.intp)])


@dataclass
class StructuredMesh:
    """A Q4 mesh with every per-element array its readers use.

    element_matrices holds the unit-modulus 8x8 stiffness of each element
    in the global frame; edof (each element's 8 global dofs, x then y per
    node), free_dofs (the dofs outside the Dirichlet set) and the pattern
    of the reduced stiffness matrix in free-dof order are derived from the
    connectivity on construction, which also checks it. Every order a
    factorization takes is a permutation of that pattern, which is never
    rebound. The mesh's first COLAMD factorization records in colamd its
    column-permuted pattern and its unknowns (see assemble_stiffness).
    """

    kind: str                      # "rect" | "disc"
    nodes: np.ndarray              # (n_nodes, 2)
    elements: np.ndarray           # (n_elements, 4), ccw Q4 connectivity
    element_centroids: np.ndarray  # (n_elements, 2)
    element_volumes: np.ndarray    # (n_elements,)
    element_matrices: np.ndarray   # (n_elements, 8, 8)
    dirichlet_dofs: np.ndarray     # sorted unique dof indices
    solid: np.ndarray              # sorted elements prescribed at density 1
    shape: tuple[int, int]         # (nx, ny) | (n_radial, n_angular)
    geometry: dict[str, float]
    edof: np.ndarray = field(init=False, repr=False)
    free_dofs: np.ndarray = field(init=False, repr=False)
    pattern: StiffnessPattern = field(init=False, repr=False, compare=False)
    colamd: tuple[StiffnessPattern, np.ndarray] | None = field(
        init=False, default=None, repr=False, compare=False)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_dofs(self) -> int:
        return 2 * self.nodes.shape[0]

    @functools.cached_property
    def symmetric_order(self) -> np.ndarray:
        """Minimum degree on the free-node graph, each node's free dofs
        adjacent, as positions in free_dofs (see _node_graph_order)."""
        return _node_graph_order(self)

    def __post_init__(self):
        e = self.elements
        if np.any(e < 0) or np.any(e >= self.nodes.shape[0]):
            raise ValueError("element connectivity out of node range")
        if any(len(set(row)) != 4 for row in e.tolist()):
            raise ValueError("element with repeated node indices")
        if self.dirichlet_dofs.size == 0:
            raise ValueError("mesh requires a nonempty Dirichlet set")
        self.edof = (2 * e[:, :, None] + np.arange(2)).reshape(-1, 8)
        self.free_dofs = np.setdiff1d(np.arange(self.n_dofs),
                                      self.dirichlet_dofs)
        self.pattern = StiffnessPattern.of(self.edof, self.free_dofs,
                                           self.n_dofs)

    def condensed(self, keep) -> "CondensedMesh":
        """This mesh's stiffness condensed onto keep, sorted free dofs.

        An empty keep is the whole system in symmetric_order: the plate's
        factorization. COLAMD (assemble_stiffness on the mesh itself)
        serves only the wheel's builder and loop, whose benchmark
        reference pins their last bits.
        """
        keep = np.asarray(keep)
        if keep.ndim != 1 or keep.dtype.kind not in "iu":
            raise ValueError("keep must be a 1-D array of dof indices")
        # no np.diff: it wraps around on unsigned dofs
        if np.any(keep[1:] <= keep[:-1]):
            raise ValueError("keep must be sorted and free of duplicates")
        if not np.isin(keep, self.free_dofs).all():
            raise ValueError("keep holds a dof outside the free dofs")
        return CondensedMesh(self, keep)


def build_rect_mesh(nx: int, ny: int, width: float, height: float,
                    poisson: float = 0.3) -> StructuredMesh:
    """Uniform nx-by-ny Q4 grid on [0, width] x [0, height].

    Element index is ey*nx + ex (x fastest). Both dofs of every y = 0
    node are clamped. All elements share one stiffness matrix.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    # written so that NaN fails it
    if not (0.0 < width < np.inf and 0.0 < height < np.inf):
        raise ValueError(f"width and height must be positive and finite, "
                         f"got {width} and {height}")
    dx, dy = width / nx, height / ny
    xs = np.arange(nx + 1) * dx
    ys = np.arange(ny + 1) * dy
    X, Y = np.meshgrid(xs, ys)              # node index iy*(nx+1) + ix
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny))
    ex, ey = ex.ravel(), ey.ravel()         # element index ey*nx + ex
    n0 = ey * (nx + 1) + ex
    elements = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    centroids = np.column_stack([(ex + 0.5) * dx, (ey + 0.5) * dy])
    volumes = np.full(nx * ny, dx * dy)

    bottom = np.arange(nx + 1)
    dirichlet = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))

    k0 = q4_unit_stiffness(nodes[elements[0]], poisson)
    return StructuredMesh(
        kind="rect", nodes=nodes, elements=elements,
        element_centroids=centroids, element_volumes=volumes,
        element_matrices=np.broadcast_to(k0, (nx * ny, 8, 8)),
        dirichlet_dofs=dirichlet, solid=np.zeros(0, dtype=int),
        shape=(nx, ny), geometry={"width": width, "height": height})


def build_disc_mesh(n_radial: int, n_angular: int, r_inner_fixed: float,
                    r_rim: float, poisson: float = 0.3) -> StructuredMesh:
    """Polar-mapped Q4 annulus from r_inner_fixed to radius 1.

    All dofs on the innermost ring are clamped; the elements whose
    centroid radius exceeds r_rim are the mesh's `solid` set, prescribed
    at density 1 (the given rim material). Element index is
    i_band * n_angular + j_sector; sector j = n_angular - 1 wraps around
    to share nodes with sector 0. Each element's stiffness matrix is its
    band's sector-0 matrix k0 rotated into place, T k0 T^T.
    """
    if n_radial < 1:
        raise ValueError("n_radial must be at least 1")
    if n_angular < 8:
        raise ValueError("n_angular must be at least 8")
    if not 0.0 < r_inner_fixed < r_rim < 1.0:
        raise ValueError("need 0 < r_inner_fixed < r_rim < 1")

    radii = r_inner_fixed + np.arange(n_radial + 1) * (1.0 - r_inner_fixed) / n_radial
    radii[-1] = 1.0
    dtheta = 2.0 * np.pi / n_angular
    theta = np.arange(n_angular) * dtheta
    R, TH = np.meshgrid(radii, theta, indexing="ij")  # node i*n_angular + j
    nodes = np.column_stack([(R * np.cos(TH)).ravel(), (R * np.sin(TH)).ravel()])

    bands, sectors = np.meshgrid(np.arange(n_radial), np.arange(n_angular),
                                 indexing="ij")
    bands, sectors = bands.ravel(), sectors.ravel()
    jnext = (sectors + 1) % n_angular
    elements = np.column_stack([
        bands * n_angular + sectors,
        (bands + 1) * n_angular + sectors,
        (bands + 1) * n_angular + jnext,
        bands * n_angular + jnext,
    ])
    corner = nodes[elements]                 # (n_e, 4, 2)
    centroids = corner.mean(axis=1)
    x, y = corner[:, :, 0], corner[:, :, 1]
    volumes = 0.5 * np.abs(
        np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1))

    inner_nodes = np.arange(n_angular)
    dirichlet = np.sort(np.concatenate([2 * inner_nodes, 2 * inner_nodes + 1]))

    rim_radius = np.hypot(centroids[:, 0], centroids[:, 1])
    # one unit-stiffness matrix per radius band, evaluated at sector 0;
    # sector j is congruent to it under rotation by j*dtheta
    k0 = np.stack([
        q4_unit_stiffness(nodes[elements[b * n_angular]], poisson)
        for b in range(n_radial)])
    c, s = np.cos(sectors * dtheta), np.sin(sectors * dtheta)
    T = np.zeros((bands.size, 8, 8))
    for i in range(4):
        T[:, 2 * i, 2 * i] = c
        T[:, 2 * i, 2 * i + 1] = -s
        T[:, 2 * i + 1, 2 * i] = s
        T[:, 2 * i + 1, 2 * i + 1] = c
    return StructuredMesh(
        kind="disc", nodes=nodes, elements=elements,
        element_centroids=centroids, element_volumes=volumes,
        element_matrices=np.einsum("eij,ejk,elk->eil", T, k0[bands], T),
        dirichlet_dofs=dirichlet, solid=np.nonzero(rim_radius > r_rim)[0],
        shape=(n_radial, n_angular),
        geometry={"r_inner": r_inner_fixed, "r_rim": r_rim})


@dataclass
class CondensedMesh:
    """A mesh whose stiffness is read at the sorted free dofs keep only.

    assemble_stiffness(view, s) factorizes K(s) in the order of the mesh's
    symmetric_order with keep moved last, and returns the system of the
    Schur complement onto keep, whose loads and states have one row per
    kept dof (see FactorizedSystem). An empty keep returns the whole
    system in the symmetric order, with one row per dof of the mesh.
    """

    mesh: StructuredMesh
    keep: np.ndarray

    @functools.cached_property
    def pattern(self) -> StiffnessPattern:
        """The mesh's pattern permuted into that order, in rows and
        columns alike."""
        free, order = self.mesh.free_dofs, self.mesh.symmetric_order
        last = np.searchsorted(free, self.keep)
        order = np.concatenate([order[~np.isin(order, last)], last])
        return self.mesh.pattern.permuted(order, order)


@dataclass
class TrailingBlock:
    """The dense trailing block L22 U22 of a factorization without
    pivoting; it solves with the Schur complement S = L22 U22. nnz is the
    whole factorization's stored nonzeros of L and U."""

    L: np.ndarray      # unit lower triangular
    U: np.ndarray      # upper triangular
    nnz: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = solve_triangular(self.L, rhs, lower=True, unit_diagonal=True,
                             check_finite=False)
        return solve_triangular(self.U, y, check_finite=False)


@dataclass
class FactorizedSystem:
    """Direct factorization of the Dirichlet-reduced stiffness matrix.

    Loads and states have one row per dof of the mesh (n_dofs rows). Row i
    of the reduced system is the equation of dof free_dofs[i], and its
    unknown j is the displacement of dof unknowns[j]. A COLAMD system (the
    wheel's) has free_dofs in free-dof order and unknowns equal to them in
    the mesh's first factorization, and the unknowns free_dofs[q] that it
    recorded in mesh.colamd in every later one. The whole
    system in the symmetric order (a CondensedMesh with an empty keep, the
    plate's) has free_dofs = unknowns = the mesh's free dofs in
    symmetric_order.

    A condensed system (from a CondensedMesh) has free_dofs = unknowns =
    keep and lu the TrailingBlock of S. Its loads and states have one row
    per kept dof, in the order of keep: a load on keep gives the
    displacements of K at keep.
    """

    lu: object
    free_dofs: np.ndarray
    unknowns: np.ndarray
    n_dofs: int
    condensed: bool = False

    @property
    def n_rows(self) -> int:
        """The row count of this system's loads and states."""
        return self.free_dofs.size if self.condensed else self.n_dofs

    def rows(self, dofs) -> np.ndarray:
        """The rows of dofs in this system's loads and states.

        A condensed system raises ValueError on a dof outside keep.
        """
        dofs = np.asarray(dofs, dtype=int)
        if not self.condensed:
            return dofs
        keep = self.free_dofs
        rows = np.minimum(np.searchsorted(keep, dofs), keep.size - 1)
        if not np.array_equal(keep[rows], dofs):
            raise ValueError("a condensed system has rows for its kept dofs "
                             "only")
        return rows

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K U = rhs for one (n_rows,) or many (n_rows, m) loads.

        Returned displacements are zero at Dirichlet dofs.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_rows:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, the system "
                             f"{self.n_rows}")
        if self.condensed:
            return self.lu.solve(rhs)
        u = np.zeros_like(rhs)
        u[self.unknowns] = self.lu.solve(
            np.ascontiguousarray(rhs[self.free_dofs]))
        return u

    def unit_columns(self, dofs) -> np.ndarray:
        """K^-1 P, (n_rows, len(dofs)), for the unit columns P of dofs.

        One block solve; column j is the response to a unit load at
        dofs[j] (zero for a Dirichlet dof).
        """
        dofs = np.asarray(dofs, dtype=int)
        P = np.zeros((self.n_rows, dofs.size))
        P[self.rows(dofs), np.arange(dofs.size)] = 1.0
        return self.solve(P)


def assemble_stiffness(mesh: StructuredMesh | CondensedMesh,
                       stiffness_per_element) -> FactorizedSystem:
    """Assemble K = sum_e s_e * k0_e, eliminate Dirichlet dofs, factorize.

    K.data is summed through the mesh's pattern, bit-identical to a
    coo -> csc assembly. The mesh's first factorization orders the
    columns with COLAMD, and records in mesh.colamd the pattern with its
    columns in the order q that SuperLU used and the unknowns
    free_dofs[q]; later ones assemble that pattern and keep its order
    ("NATURAL"), which yields the same L, U and solves as ordering afresh.

    mesh may be a CondensedMesh, an empty keep included; see
    _factorize_condensed.
    """
    if isinstance(mesh, CondensedMesh):
        return _factorize_condensed(
            mesh, _checked_factors(mesh.mesh, stiffness_per_element))
    s = _checked_factors(mesh, stiffness_per_element)
    free = mesh.free_dofs
    if mesh.colamd is None:
        lu = _splu(_assembled(mesh, mesh.pattern, s), permc_spec="COLAMD")
        # column j of A Pc is column q[j] of A: q inverts perm_c
        q = np.argsort(lu.perm_c)
        mesh.colamd = (mesh.pattern.permuted(np.arange(free.size), q),
                       free[q])
        unknowns = free
    else:
        pattern, unknowns = mesh.colamd
        lu = _splu(_assembled(mesh, pattern, s), permc_spec="NATURAL")
    return FactorizedSystem(lu=lu, free_dofs=free, unknowns=unknowns,
                            n_dofs=mesh.n_dofs)


def _factorize_condensed(view: CondensedMesh,
                         s: np.ndarray) -> FactorizedSystem:
    """The Schur complement of K(s) onto view.keep, from one factorization;
    for an empty keep, the whole system.

    Every condensed assembly takes K in the mesh's symmetric_order, rows
    and columns alike, with keep moved last (view.pattern), and factorizes
    it as it stands with diagonal pivots. Any other pivot raises
    FactorizationError.
    """
    mesh = view.mesh
    n = mesh.free_dofs.size
    lu = _splu(_assembled(mesh, view.pattern, s), permc_spec="NATURAL",
               diag_pivot_thresh=0.0)
    identity = np.arange(n)
    if not (np.array_equal(lu.perm_r, identity)
            and np.array_equal(lu.perm_c, identity)):
        raise FactorizationError("condensed factorization left the diagonal")
    if view.keep.size == 0:
        dofs = mesh.free_dofs[mesh.symmetric_order]
        return FactorizedSystem(lu=lu, free_dofs=dofs, unknowns=dofs,
                                n_dofs=mesh.n_dofs)
    m = n - view.keep.size
    block = TrailingBlock(L=lu.L[m:, m:].toarray(), U=lu.U[m:, m:].toarray(),
                          nnz=lu.nnz)
    return FactorizedSystem(lu=block, free_dofs=view.keep,
                            unknowns=view.keep, n_dofs=mesh.n_dofs,
                            condensed=True)


def _node_graph_order(mesh: StructuredMesh) -> np.ndarray:
    """SuperLU's minimum-degree order on A^T + A of the free-node graph,
    with each node expanded to its free dofs, x before y: positions in
    mesh.free_dofs.

    Two free nodes are adjacent when an element holds both. The order
    depends on that structure only. The values make the matrix strictly
    diagonally dominant, so the factorization that computes the order
    cannot fail: each element adds 4 to a node's diagonal and -1 for each
    of at most 3 other nodes to its row.
    """
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
    lu = _splu(graph, permc_spec="MMD_AT_PLUS_A")
    # perm_c[i] is the step at which node i is eliminated
    return np.argsort(lu.perm_c[node_of], kind="stable")


def _checked_factors(mesh: StructuredMesh, stiffness_per_element):
    s = np.asarray(stiffness_per_element, dtype=float)
    if s.shape != (mesh.n_elements,):
        raise ValueError("stiffness list length must equal element count")
    # written so that NaN fails it
    bad = ~((s > 0.0) & (s < np.inf))
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(f"element stiffness factors must be positive and "
                         f"finite, got {s[e]} at element {e}")
    return s


def _assembled(mesh: StructuredMesh, pattern: StiffnessPattern,
               s: np.ndarray) -> sp.csc_matrix:
    """K(s) in the layout of pattern."""
    # the pad -0.0 adds nothing: x + (-0.0) is x, signed zeros included
    scaled = np.append((mesh.element_matrices * s[:, None, None]).ravel(),
                       -0.0)[pattern.slots]
    data = scaled[:, 0].copy()
    for k in range(1, scaled.shape[1]):
        data += scaled[:, k]
    n = pattern.indptr.size - 1
    return sp.csc_matrix((data, pattern.indices, pattern.indptr),
                         shape=(n, n))


def _splu(K: sp.csc_matrix, **options):
    try:
        return splu(K, **options)
    except RuntimeError as exc:
        raise FactorizationError(
            f"stiffness factorization failed: {exc}") from exc


# unit columns of K0^-1 solved in one block, and the dense block of a
# condensed system: at most this many float64 entries (32 MB; the solve
# holds a few copies), so that a call with many fields on a large mesh
# does not hold n_dofs columns, nor more than 2048 kept dofs, at once
_UPDATE_BLOCK_ENTRIES = 2 ** 22


def condensed_groups(mesh: StructuredMesh, base, dof_sets):
    """Split dof_sets into consecutive groups, one condensed view each.

    Yields (indices, view): the positions of a group's sets in dof_sets,
    and mesh condensed onto the free dofs among base and those sets. A
    group grows while its view keeps |keep|^2 within
    _UPDATE_BLOCK_ENTRIES; a single set may exceed it alone.
    """
    is_free = np.zeros(mesh.n_dofs, dtype=bool)
    is_free[mesh.free_dofs] = True
    start = np.zeros(mesh.n_dofs, dtype=bool)
    start[base] = True
    start &= is_free
    kept, group = start.copy(), []
    for i, dofs in enumerate(dof_sets):
        dofs = dofs[is_free[dofs]]
        grown = np.count_nonzero(kept) + np.unique(dofs[~kept[dofs]]).size
        if group and grown ** 2 > _UPDATE_BLOCK_ENTRIES:
            yield group, mesh.condensed(np.flatnonzero(kept))
            kept, group = start.copy(), []
        kept[dofs] = True
        group.append(i)
    if group:
        yield group, mesh.condensed(np.flatnonzero(kept))


@dataclass
class LowRankUpdate:
    """K = K0 + P dK P^T, served exactly by the factorization of K0.

    P holds the unit columns of the free dofs S where K differs from K0.
    By the Woodbury identity K^-1 = K0^-1 - Z M Z^T, with Z = K0^-1 P and
    M = (I + dK Z_S)^-1 dK, where Z_S = P^T Z is the S-block of K0^-1.
    An empty S is the rank-0 update K = K0. No state of K is formed:
    compliances and quadratic forms of K come from those of K0 plus
    |S|-column corrections.

    Z and the states passed in have the rows of the factorized system:
    n_dofs rows, or one per kept dof of a condensed system; rows locates
    S among them.
    """

    dofs: np.ndarray   # S: sorted free dof indices
    rows: np.ndarray   # the rows of S in Z and in the states
    Z: np.ndarray      # (system rows, |S|)
    M: np.ndarray      # (|S|, |S|)

    def form_drop(self, U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
        """F1^T K0^-1 F2 - F1^T K^-1 F2 per column, from U_i = K0^-1 F_i.

        K0 is symmetric, so Z^T F_i = P^T U_i: no state of K is needed.
        """
        return np.sum(U1[self.rows] * (self.M @ U2[self.rows]), axis=0)

    def form_change(self, U0: np.ndarray,
                    B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Z, Y), |S| columns each, from U0 = K0^-1 F and a symmetric B.

        For every symmetric k and every row subset e (an element's dofs),
        tr(k U_e B U_e^T) - tr(k U0_e B U0_e^T) = sum_j z_je^T k y_je,
        where U = K^-1 F. The states of K are U = U0 - Z C with
        C = M P^T U0, so with W = U0 B C^T and H = C B C^T the change is
        tr(k Z H Z^T) - 2 tr(k Z W^T): Y = Z H - 2 W.
        """
        C = self.M @ U0[self.rows]
        BCt = B @ C.T
        return self.Z, self.Z @ (C @ BCt) - 2.0 * (U0 @ BCt)


def _element_update(mesh: StructuredMesh, s0: np.ndarray, elements, s):
    """(S, dK_SS) for K0 with the factors at elements changed from s0 to s:
    the free dofs of the elements whose factor moves, and
    sum_e (s_e - s0_e) k_e restricted to them."""
    # signed indices, whether a list or an unsigned array came in
    elements = np.asarray(elements, dtype=np.intp)
    s = np.asarray(s, dtype=float)
    if elements.ndim != 1 or s.shape != elements.shape:
        raise ValueError("a change needs one factor per element")
    if np.any(elements[1:] <= elements[:-1]):
        raise ValueError("changed elements must be strictly increasing")
    if np.any((elements < 0) | (elements >= mesh.n_elements)):
        raise ValueError("changed element out of range")
    moved = s != s0[elements]
    touched = elements[moved]
    edof = mesh.edof[touched]
    dofs, local = np.unique(edof, return_inverse=True)
    local = local.reshape(edof.shape)
    dK = np.zeros((dofs.size, dofs.size))
    blocks = ((s[moved] - s0[touched])[:, None, None]
              * mesh.element_matrices[touched])
    np.add.at(dK, (local[:, :, None], local[:, None, :]), blocks)
    free = ~np.isin(dofs, mesh.dirichlet_dofs)
    return dofs[free], dK[np.ix_(free, free)]


def low_rank_updates(system: FactorizedSystem, mesh: StructuredMesh,
                     s0, changes):
    """Yield one LowRankUpdate per change, in order.

    system is the factorization of K(s0), whole or condensed onto a keep
    that holds every changed free dof. A change is (elements, factors):
    strictly increasing element indices and their new factors (ValueError
    otherwise); an element listed at its factor in s0 changes nothing.
    Changes of a few elements give low-rank updates; Z for the union of
    their dofs comes from one block solve of unit columns. When that block
    would exceed _UPDATE_BLOCK_ENTRIES, the changes are split into
    consecutive groups with one block solve each.
    """
    s0 = np.asarray(s0, dtype=float)
    budget = max(1, _UPDATE_BLOCK_ENTRIES // system.n_rows)
    group: list = []
    columns: set = set()
    for elements, s in changes:
        dofs, dK = _element_update(mesh, s0, elements, s)
        grown = columns.union(dofs.tolist())
        if group and len(grown) > budget:
            yield from _solve_group(system, group, columns)
            group, grown = [], set(dofs.tolist())
        group.append((dofs, dK))
        columns = grown
    yield from _solve_group(system, group, columns)


def _solve_group(system: FactorizedSystem, group, columns):
    union = np.array(sorted(columns), dtype=int)
    Z = system.unit_columns(union)
    union_rows = system.rows(union)
    for dofs, dK in group:
        at = np.searchsorted(union, dofs)
        rows = union_rows[at]
        Zs = Z[:, at]
        M = np.linalg.solve(np.eye(dofs.size) + dK @ Zs[rows], dK)
        yield LowRankUpdate(dofs=dofs, rows=rows, Z=Zs, M=M)


def element_quadratic_forms(mesh: StructuredMesh, U1: np.ndarray,
                            U2: np.ndarray) -> np.ndarray:
    """Per-element u1_e^T k0_e u2_e of each column pair of the (n_dofs, m)
    blocks U1 and U2: an (m, n_elements) array."""
    mats = mesh.element_matrices
    e1 = np.asarray(U1)[mesh.edof]
    e2 = np.asarray(U2)[mesh.edof]
    # a batched matmul, then a two-operand contraction: np.einsum runs a
    # three-operand contraction as one unoptimized loop, several times slower
    return np.einsum("eib,eib->be", e1, np.matmul(mats, e2))

