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
those of the factorized design plus low-rank corrections. A batch of
changes is served at once, as stacked arrays (`low_rank_updates`).

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
  read, from one symbolic ILU pass over a node-level matrix with half the
  rows of K. On the plate it leaves fewer nonzeros in L and U than COLAMD
  (about 314k against 398k).

The low-rank updates take their Z = K^-1 P, the columns of K^-1 at the
dofs they change, from one block solve per LowRankUpdates, the first one
with the states of their loads; on a condensed system they gather Z from
S^-1.

A wide SuperLU block (the plate loop's block of about 100 unit columns,
not the wheel loop's 8 loads, the builders' calibration solves or
verification) is solved as two halves of its columns, the second on a
one-worker thread pool (see FactorizedSystem.solve).

With keep empty, `CondensedMesh` is the whole system in the symmetric
order. A reader of K^-1 at a few dofs only (dense verification) condenses
onto them instead (static condensation; Guyan, "Reduction of stiffness and
mass matrices", AIAA J. 1965): the trailing block L22 U22 of the
factorization is then the Schur complement S of the other dofs, and the
rows of K^-1 at keep are those of S^-1. K is SPD and factorized
pivot-free in a symmetric order, so S = R^T R with R = D22^-1/2 U22, its
Cholesky factor: next to its SuperLU factorization, the system keeps
S^-1, formed once from R by LAPACK (dpotri). A load takes one product
with it, and the low-rank updates gather their unit columns from it,
instead of one full-length solve per column. Its loads and states have
one row per kept dof, so no n_dofs-long block is formed.
"""
from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotri
from scipy.sparse.linalg import SuperLU, spilu, splu

_GAUSS = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))

# A SuperLU block of at least this many columns is solved as two halves
# (see FactorizedSystem.solve).
_SPLIT_COLUMNS = 32


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

    coords: (..., 4, 2) node coordinates, counterclockwise; the result is
    (..., 8, 8). A stack of elements is evaluated at each Gauss point by
    one stacked matmul, det and solve, which give each element the bits
    of its own (4, 2) call.
    """
    coords = np.asarray(coords, dtype=float)
    stack = coords.shape[:-2]
    D = plane_stress_matrix(poisson)
    k = np.zeros(stack + (8, 8))
    for xi in _GAUSS:
        for eta in _GAUSS:
            dN = 0.25 * np.array([
                [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
                [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
            ])
            J = dN @ coords
            with np.errstate(invalid="ignore"):
                detJ = np.linalg.det(J)
            # written so that NaN (a NaN corner) fails it
            if not np.all(detJ > 0.0):
                raise ValueError("element Jacobian is not strictly positive")
            dNxy = np.linalg.solve(J, np.broadcast_to(dN, stack + (2, 4)))
            B = np.zeros(stack + (3, 8))
            B[..., 0, 0::2] = dNxy[..., 0, :]
            B[..., 1, 1::2] = dNxy[..., 1, :]
            B[..., 2, 0::2] = dNxy[..., 1, :]
            B[..., 2, 1::2] = dNxy[..., 0, :]
            k += (B.swapaxes(-1, -2) @ D @ B) * detJ[..., None, None]
    return k


def _entry_ids_csc(edof: np.ndarray, free: np.ndarray,
                   n_dofs: int) -> sp.csc_matrix:
    """The reduced element entries as scipy's coo -> csc conversion lays
    them out just before it sums duplicates, each valued by its index into
    the flattened (n_elements, 8, 8) blocks.

    The conversion buckets the entries by column in input order, then
    sorts each column by row with csr_sort_indices. That sort is not
    stable, so it is run here on the entry ids: it compares rows only, so
    the ids land where the values would. The bucketing is a stable sort by
    column, on the narrowest integer type that holds the column count:
    numpy sorts those by radix.
    """
    n = free.size
    reduced = np.full(n_dofs, -1, dtype=np.intc)
    reduced[free] = np.arange(n, dtype=np.intc)
    red = reduced[edof]
    rows = np.repeat(red, 8, axis=1).ravel()
    cols = np.tile(red, (1, 8)).ravel()
    entries = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rows[entries], cols[entries]
    by_col = np.argsort(cols.astype(np.min_scalar_type(n)), kind="stable")
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
        corners = np.sort(e, axis=1)
        if np.any(corners[:, 1:] == corners[:, :-1]):
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
    band's sector-0 matrix k0 rotated into place, T k0 T^T, where T holds
    the sector's 2x2 rotation R on its diagonal. T is never formed: each
    2x2 node block (a, b) of k0 is rotated alone,

        k[2a + i, 2b + l] = sum over (jo, ko) of
                            (R[i, jo] * k0[2a + jo, 2b + ko]) * R[l, ko],

    from its four nonzero terms, added in the order (jo, ko) = (0, 0),
    (0, 1), (1, 0), (1, 1). That is the order in which the three-operand
    np.einsum("eij,ejk,elk->eil", T, k0, T) adds them (the tests' oracle),
    so the matrices are its bits exactly, while the einsum runs all 64
    terms of each entry, 60 of them zero.
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
    # sector j is congruent to it under rotation by theta[j]
    k0 = q4_unit_stiffness(corner[::n_angular], poisson)
    # each term is a (band, a, i, b, l, sector) array, sector innermost
    blocks = k0.reshape(n_radial, 4, 1, 2, 4, 1, 2, 1)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])        # rot[i, jo, sector]
    # added in the einsum's order (see above)
    terms = (
        (rot[:, jo, None, None] * blocks[:, :, :, jo, :, :, ko]) * rot[:, ko]
        for jo, ko in ((0, 0), (0, 1), (1, 0), (1, 1)))
    k = next(terms)
    for term in terms:
        k += term
    k = np.ascontiguousarray(
        k.reshape(n_radial, 8, 8, n_angular).transpose(0, 3, 1, 2))
    return StructuredMesh(
        kind="disc", nodes=nodes, elements=elements,
        element_centroids=centroids, element_volumes=volumes,
        element_matrices=k.reshape(-1, 8, 8),
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
class FactorizedSystem:
    """Direct factorization of the Dirichlet-reduced stiffness matrix.

    lu is SuperLU's factorization. Loads and states have one row per dof
    of the mesh (n_dofs rows). Row i of the reduced system is the equation
    of dof free_dofs[i], and its unknown j is the displacement of dof
    unknowns[j]. A COLAMD system (the wheel's) has free_dofs in free-dof
    order and unknowns equal to them in the mesh's first factorization,
    and the unknowns free_dofs[q] that it recorded in mesh.colamd in every
    later one. The whole system in the symmetric order (a CondensedMesh
    with an empty keep, the plate's) has free_dofs = unknowns = the mesh's
    free dofs in symmetric_order.

    A condensed system (from a CondensedMesh with a nonempty keep) has
    free_dofs = unknowns = keep, and keeps next to lu the inverse S^-1 of
    the Schur complement onto keep, formed from the Cholesky factor of its
    trailing block (see _factorize_condensed); inverse is None on every
    other system. Its loads and states have one row per kept dof, in the
    order of keep: a load on keep gives the displacements of K at keep, by
    one product with S^-1.
    """

    lu: SuperLU
    free_dofs: np.ndarray
    unknowns: np.ndarray
    n_dofs: int
    inverse: np.ndarray | None = None  # (|keep|, |keep|) S^-1, C-ordered

    @property
    def condensed(self) -> bool:
        return self.inverse is not None

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

        Returned displacements are zero at Dirichlet dofs. A condensed
        system takes one product with S^-1.

        A SuperLU block of m >= _SPLIT_COLUMNS loads is solved as two
        halves of its columns, [0, m // 2) and [m // 2, m), each scattered
        into the result: the calling thread solves the first while a
        one-worker ThreadPoolExecutor solves the second, and the call
        returns, or raises, once both are done. scipy's SuperLU.solve
        releases the interpreter lock, so the halves run at once where two
        CPUs are free. SuperLU solves each right-hand side alone (Li, "An
        overview of SuperLU", ACM TOMS 2005), but the BLAS kernels it calls
        may round a column differently with the block's width (scipy's
        OpenBLAS on an AVX-512 Xeon does, in the last bit), so the result
        matches the one-block solve to rounding. The halves depend on m
        alone, not on the host's CPU count, so every host gets the same
        bits. Both halves call lu.solve, never this method, so that a
        wrapper of this method (the benchmark's tracer, which is not
        thread-safe) sees one call per block, from the caller's thread.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_rows:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, the system "
                             f"{self.n_rows}")
        if self.condensed:
            # one product, with the columns of S^-1 at the rows a load
            # holds; gathered only when some row is empty, since gathering
            # every row copies both operands whole
            live = np.flatnonzero(np.any(rhs.reshape(rhs.shape[0], -1),
                                         axis=1))
            if live.size == rhs.shape[0]:
                return self.inverse @ rhs
            return self.inverse[:, live] @ rhs[live]
        u = np.zeros_like(rhs)
        b = rhs[self.free_dofs]
        m = 1 if b.ndim == 1 else b.shape[1]
        if m < _SPLIT_COLUMNS:
            u[self.unknowns] = self.lu.solve(b)
            return u

        def solve_into(part):
            u[self.unknowns, part] = self.lu.solve(b[:, part])

        # leaving the block joins the worker, even when the first half
        # raised; result() raises the second half's exception
        with ThreadPoolExecutor(1, thread_name_prefix="smma-solve") as pool:
            second = pool.submit(solve_into, slice(m // 2, m))
            solve_into(slice(0, m // 2))
        second.result()
        return u


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
    FactorizationError. K is SPD, so the factorization is K = L D L^T with
    U = D L^T, and the Schur complement onto keep is S = L22 U22 = R^T R,
    R = D22^-1/2 U22: its Cholesky factor, read from U alone. The system
    keeps the factorization, and S^-1 from LAPACK dpotri; a trailing pivot
    that is not positive, or a failed inversion, raises
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
    R = lu.U[m:, m:].toarray()
    pivots = np.diagonal(R)
    # written so that NaN fails it
    if not np.all(pivots > 0.0):
        raise FactorizationError("condensed factorization has a trailing "
                                 "pivot that is not positive")
    R /= np.sqrt(pivots)[:, None]
    # R^T, Fortran-ordered, is the lower Cholesky factor of S: dpotri
    # overwrites its lower triangle with that of S^-1, and leaves the zeros
    # above it; their transpose holds S^-1 in its upper triangle
    lower, info = dpotri(R.T, lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationError(f"Schur complement inversion failed "
                                 f"(LAPACK dpotri info {info})")
    inverse = lower.T
    # mirror the upper triangle onto the zeros below it: x + 0 is x, and
    # halving the doubled diagonal is exact
    inverse += inverse.T
    inverse.flat[::inverse.shape[0] + 1] *= 0.5
    return FactorizedSystem(lu=lu, free_dofs=view.keep, unknowns=view.keep,
                            n_dofs=mesh.n_dofs, inverse=inverse)


def _node_graph_order(mesh: StructuredMesh) -> np.ndarray:
    """SuperLU's minimum-degree order on A^T + A of the free-node graph,
    with each node expanded to its free dofs, x before y: positions in
    mesh.free_dofs.

    Two free nodes are adjacent when an element holds both. The order
    depends on that structure only, so it comes from one symbolic pass: an
    incomplete factorization that drops every entry it can computes the
    same column order as splu, in about half the time. The values make the
    matrix strictly diagonally dominant, so that pass cannot fail: each
    element adds 4 to a node's diagonal and -1 for each of at most 3 other
    nodes to its row.
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
    lu = spilu(graph, permc_spec="MMD_AT_PLUS_A", drop_tol=np.inf,
               fill_factor=1)
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


# the block of one LowRankUpdates (its unit columns of K0^-1, with the
# first one's basis columns), the dense block of a condensed system, and
# each stacked operand of a LowRankUpdates and of its form_change: at most
# this many float64 entries (32 MB; the solve holds a few copies), so that
# a call with many fields on a large mesh does not hold n_dofs columns,
# nor more than 2048 kept dofs, at once
_UPDATE_BLOCK_ENTRIES = 2 ** 22


def condensed_groups(mesh: StructuredMesh, base, slots: ChangeSlots):
    """Split the changes of slots into consecutive groups, one condensed
    view each.

    Yields (lo, hi, view): the group's changes lo .. hi - 1, and mesh
    condensed onto the free dofs among base and the dofs S_p of those
    changes (slots.dofs). A group grows while its view keeps |keep|^2
    within _UPDATE_BLOCK_ENTRIES; a single change may exceed it alone.
    """
    # a pad's dof n_dofs is kept from the start, so that it is never counted
    start = np.zeros(mesh.n_dofs + 1, dtype=bool)
    start[np.append(np.intersect1d(base, mesh.free_dofs), mesh.n_dofs)] = True
    kept, lo = start.copy(), 0
    for p, dofs in enumerate(slots.dofs):
        grown = np.count_nonzero(kept) - 1 + np.count_nonzero(~kept[dofs])
        if p > lo and grown ** 2 > _UPDATE_BLOCK_ENTRIES:
            yield lo, p, mesh.condensed(np.flatnonzero(kept[:-1]))
            kept, lo = start.copy(), p
        kept[dofs] = True
    if lo < len(slots.dofs):
        yield lo, len(slots.dofs), mesh.condensed(np.flatnonzero(kept[:-1]))


@dataclass
class ChangeSlots:
    """Where P changes of element factors land in their stacked low-rank
    updates. It depends on the changed elements only (see change_slots).
    A pad is one past the end: the dof n_dofs, the slot width."""

    elements: np.ndarray   # (E,) the elements of every change in turn
    owner: np.ndarray      # (E,) the change of each element, ascending
    local: np.ndarray      # (E, 8) each element dof's slot in its change's
                           # row of dofs; a pad for a Dirichlet dof
    dofs: np.ndarray       # (P, width) each S_p, sorted, then pads


def change_slots(mesh: StructuredMesh, owner, elements, n) -> ChangeSlots:
    """The ChangeSlots of n changes, change owner[i] holding element
    elements[i]. owner ascends within range(n), and each change's elements
    strictly increase (ValueError otherwise); a change may hold none."""
    # signed indices, whether lists or unsigned arrays came in
    owner = np.asarray(owner, dtype=np.intp)
    elements = np.asarray(elements, dtype=np.intp)
    if (owner.shape != elements.shape or np.any(owner[1:] < owner[:-1])
            or owner.size and not 0 <= owner[0] <= owner[-1] < n):
        raise ValueError(f"change owners must ascend within range({n}), "
                         f"one per changed element")
    same = owner[1:] == owner[:-1]
    if np.any(elements[1:][same] <= elements[:-1][same]):
        raise ValueError("changed elements must be strictly increasing")
    if np.any((elements < 0) | (elements >= mesh.n_elements)):
        raise ValueError("changed element out of range")
    # each change's dofs, and each free one's rank among its change's
    keys, inverse = np.unique(owner[:, None] * mesh.n_dofs
                              + mesh.edof[elements], return_inverse=True)
    of, dofs = np.divmod(keys, mesh.n_dofs)
    free = ~np.isin(dofs, mesh.dirichlet_dofs)
    counts = np.bincount(of[free], minlength=n)
    width = counts.max(initial=0)
    slot = np.cumsum(free) - 1 - (np.cumsum(counts) - counts)[of]
    slot[~free] = width
    padded = np.full((n, width), mesh.n_dofs)
    padded[of[free], slot[free]] = dofs[free]
    return ChangeSlots(elements=elements, owner=owner,
                       local=slot[inverse].reshape(-1, 8), dofs=padded)


@dataclass
class LowRankUpdates:
    """K_p = K0 + P_p dK_p P_p^T for P changes, served exactly and all at
    once by the factorization of K0.

    P_p holds the unit columns of the free dofs S_p where K_p differs from
    K0. By the Woodbury identity K_p^-1 = K0^-1 - Z_p M_p Z_p^T, with
    Z_p = K0^-1 P_p and M_p = (I + dK_p P_p^T Z_p)^-1 dK_p. Each S_p is
    padded to the widest by slots with zero rows and columns in dK_p,
    P_p^T Z_p and M_p. No state of K_p is formed. Z and the states have
    the rows of the system: n_dofs, or one per kept dof of a condensed one.
    K0 is symmetric, so Z_p^T F = P_p^T U0 for U0 = K0^-1 F, and
    K_p^-1 F = U0 - Z_p C_p.
    """

    Z: np.ndarray      # (system rows, m): K0^-1 at the union of the S_p
    slots: np.ndarray  # (P, s) the columns of each S_p in Z; m pads
    C: np.ndarray      # (P, s, b): M_p P_p^T U0, zero at a pad
    drop: np.ndarray   # (P, b): F^T K0^-1 F - F^T K_p^-1 F per column of F

    def form_change(self, U0: np.ndarray, w: np.ndarray):
        """(Z, Y, owner): a column per slot of an S_p, and its p, from
        U0 = K0^-1 F and the (P, b) column weights w. For every symmetric k
        and row subset e (an element's dofs), sum_b w_pb (u_be^T k u_be -
        u0_be^T k u0_be) = sum_j z_je^T k y_je over the columns j of p,
        where U = U0 - Z_p C_p: with B = diag(w_p), W = U0 B C^T and
        H = C B C^T, Y_p = Z_p H - 2 W.
        """
        C, m = self.C, self.Z.shape[1]
        BCt = np.asarray(w, dtype=float)[:, :, None] * C.transpose(0, 2, 1)
        real = self.slots < m
        owner = np.nonzero(real)[0]
        # every Z_p H in one product: H scattered into the rows of Z's
        # columns, one column per real slot (a pad's row m is dropped)
        H = np.zeros((m + 1, owner.size))
        H[self.slots[owner], np.arange(owner.size)[:, None]] = (
            C @ BCt).transpose(0, 2, 1)[real]
        return (self.Z[:, self.slots[real]],
                self.Z @ H[:-1] - 2.0 * (U0 @ BCt.transpose(0, 2, 1)[real].T),
                owner)


def low_rank_updates(system: FactorizedSystem, mesh: StructuredMesh, s0,
                     slots: ChangeSlots, factors, F):
    """(U0, updates): the states U0 = K0^-1 F, and an iterator of
    LowRankUpdates that serves the changes in order, each some consecutive
    ones.

    system factorizes K0 = K(s0), whole or condensed onto a keep that holds
    every changed free dof; F has its rows. The changes set slots.elements
    to factors (ValueError unless one each). Each LowRankUpdates takes the
    unit columns E_S of the union S of its S_p from one block solve, and
    the first one's also gives U0: it solves [E_T, E_S], T the rows where F
    is nonzero, and forms U0 = K0^-1 E_T F_T, or solves [F, E_S] when F has
    fewer columns than T. A condensed system keeps S^-1 instead: U0 is its
    one product with F, and E_S a gather of its columns. Each takes as
    many changes as keep its block, with the first one's basis columns,
    and its stacked operands, the (Z, Y) of form_change included, within
    _UPDATE_BLOCK_ENTRIES; a single change may exceed it alone.
    """
    s0 = np.asarray(s0, dtype=float)
    factors = np.asarray(factors, dtype=float)
    if factors.shape != slots.elements.shape:
        raise ValueError("a change needs one factor per element")
    T = np.flatnonzero(np.any(F, axis=1))
    basis = min(T.size, F.shape[1])
    n, s = slots.dofs.shape
    step = max(1, (_UPDATE_BLOCK_ENTRIES // max(system.n_rows, F.shape[1])
                   - basis) // max(1, s))

    def served():
        # one chunk at least: the first one's block gives U0
        for q in range(0, max(n, 1), step):
            # the chunk's union S and its S_p as columns of S, padded with
            # S.size; its block, for the first chunk [F, E_S] or [E_T, E_S]
            d = slots.dofs[q:q + step]
            S, pos = np.unique(d, return_inverse=True)
            pos = pos.reshape(d.shape)
            S = S[S < mesh.n_dofs]
            rows = system.rows(S)
            if system.condensed:
                # S^-1 is held: the loads take one product, and E_S is a
                # gather of its columns, where a product with E_S would
                # cost as much as the dense solves S^-1 replaces
                if q == 0:
                    U0 = system.solve(F)
                    yield U0
                Z = system.inverse[:, rows]
            else:
                k = basis if q == 0 else 0
                P = np.zeros((system.n_rows, k + S.size))
                if k == F.shape[1]:
                    P[:, :k] = F
                elif k:
                    P[T, np.arange(k)] = 1.0
                P[rows, k + np.arange(S.size)] = 1.0
                W = system.solve(P)
                del P   # not held while the update is used
                if q == 0:
                    U0 = (W[:, :k] if k == F.shape[1]
                          else W[:, :k] @ F[T])
                    yield U0
                Z = W[:, k:]
            # dK of changes q .. q + len(d) - 1, their pads left zero
            e = slice(*np.searchsorted(slots.owner, [q, q + len(d)]))
            local = slots.local[e]
            pair = (local < s)[:, :, None] & (local < s)[:, None, :]
            flat = (((slots.owner[e] - q)[:, None, None] * s
                     + local[:, :, None]) * s + local[:, None, :])
            blocks = ((factors[e] - s0[slots.elements[e]])[:, None, None]
                      * mesh.element_matrices[slots.elements[e]])
            dK = np.bincount(flat[pair], blocks[pair], d.size * s
                             ).reshape(len(d), s, s)
            # K0^-1 and U0 at S, zero in the pad row (and column)
            ZS = np.zeros((S.size + 1, S.size + 1))
            ZS[:-1, :-1] = Z[rows]
            US = np.zeros((S.size + 1, U0.shape[1]))
            US[:-1] = U0[rows]
            M = np.linalg.solve(
                np.eye(s) + dK @ ZS[pos[:, :, None], pos[:, None]], dK)
            A = US[pos]
            C = M @ A
            yield LowRankUpdates(Z=Z, slots=pos, C=C,
                                 drop=np.einsum("psb,psb->pb", A, C))

    updates = served()
    return next(updates), updates


def element_quadratic_forms(mesh: StructuredMesh, U1: np.ndarray,
                            U2: np.ndarray) -> np.ndarray:
    """Per-element u1_e^T k0_e u2_e of each column pair of the (n_dofs, m)
    blocks U1 and U2: an (m, n_elements) array."""
    U1, U2 = np.asarray(U1), np.asarray(U2)
    out = np.empty((U1.shape[1], mesh.n_elements))
    # 32 columns at a time: each column's forms are the same, and the
    # (n_elements, 8, 32) temporaries stay in cache and in glibc's heap,
    # where wider ones made every plate iteration fault in fresh pages
    for j in range(0, U1.shape[1], 32):
        e1 = U1[:, j:j + 32][mesh.edof]
        # the compliance forms gather their one operand once
        e2 = e1 if U2 is U1 else U2[:, j:j + 32][mesh.edof]
        # a batched matmul, then a two-operand contraction: np.einsum runs
        # a three-operand contraction as one unoptimized loop, several
        # times slower
        out[j:j + 32] = np.einsum("eib,eib->be", e1,
                                  np.matmul(mesh.element_matrices, e2))
    return out

