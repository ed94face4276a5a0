"""Structured 2D plane-stress linear elasticity.

Meshes are bilinear Q4 grids: a uniform rectangle or a polar-mapped annulus
(the wheel domain, with the region inside the clamped radius removed).
Assembly scales a unit-modulus element stiffness by a per-element factor,
Dirichlet dofs are eliminated, and the reduced SPD system is factorized once
per design so that many load cases can be solved against it. Designs that
differ from a factorized one in a few element factors are solved against
the same factorization by an exact low-rank (Woodbury) update.

`FactorizedSystem.unit_columns` solves for the columns of K^-1 at a set
of dofs in one block. The low-rank updates take their Z = K^-1 P from it,
and the wheel's dense verification its rim block of K^-1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_GAUSS = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


class FactorizationError(RuntimeError):
    """Reduced stiffness matrix could not be factorized (singular system)."""


def plane_stress_matrix(poisson: float) -> np.ndarray:
    nu = poisson
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


@dataclass
class ElementStiffnessTemplate:
    """Unit-modulus element matrices shared across congruent elements.

    Rect meshes carry a single template; polar meshes one per radius band,
    recovered in the global frame by the rotation congruence T k0 T^T.
    """

    k0: np.ndarray              # (n_templates, 8, 8)
    template_index: np.ndarray  # (n_elements,)
    rotation: np.ndarray        # (n_elements,) angle of each element's frame
    youngs_solid: float = 1.0
    youngs_void: float = 1e-4
    poisson: float = 0.3
    _mats: np.ndarray | None = field(default=None, repr=False)

    def element_matrices(self) -> np.ndarray:
        """Global-frame (n_elements, 8, 8) stiffness matrices (cached)."""
        if self._mats is None:
            if self.k0.shape[0] == 1 and not np.any(self.rotation):
                n = self.template_index.size
                self._mats = np.broadcast_to(self.k0[0], (n, 8, 8))
            else:
                base = self.k0[self.template_index]
                c, s = np.cos(self.rotation), np.sin(self.rotation)
                T = np.zeros((self.template_index.size, 8, 8))
                for i in range(4):
                    T[:, 2 * i, 2 * i] = c
                    T[:, 2 * i, 2 * i + 1] = -s
                    T[:, 2 * i + 1, 2 * i] = s
                    T[:, 2 * i + 1, 2 * i + 1] = c
                self._mats = np.einsum("eij,ejk,elk->eil", T, base, T)
        return self._mats


@dataclass
class StructuredMesh:
    kind: str                      # "rect" | "disc"
    nodes: np.ndarray              # (n_nodes, 2)
    elements: np.ndarray           # (n_elements, 4), ccw Q4 connectivity
    element_centroids: np.ndarray  # (n_elements, 2)
    element_volumes: np.ndarray    # (n_elements,)
    dirichlet_dofs: np.ndarray     # sorted unique dof indices
    fixed_density: dict[int, float]
    template: ElementStiffnessTemplate
    shape: tuple[int, int]         # (nx, ny) | (n_radial, n_angular)
    geometry: dict[str, float]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_dofs(self) -> int:
        return 2 * self.nodes.shape[0]

    @property
    def edof(self) -> np.ndarray:
        """(n_elements, 8) global dof indices per element."""
        if not hasattr(self, "_edof"):
            e = self.elements
            self._edof = np.stack(
                [2 * e[:, 0], 2 * e[:, 0] + 1, 2 * e[:, 1], 2 * e[:, 1] + 1,
                 2 * e[:, 2], 2 * e[:, 2] + 1, 2 * e[:, 3], 2 * e[:, 3] + 1],
                axis=1)
        return self._edof

    @property
    def free_dofs(self) -> np.ndarray:
        if not hasattr(self, "_free"):
            self._free = np.setdiff1d(np.arange(self.n_dofs),
                                      self.dirichlet_dofs)
        return self._free

    @property
    def fixed_density_idx(self) -> np.ndarray:
        if not hasattr(self, "_fixed_idx"):
            self._fixed_idx = np.array(sorted(self.fixed_density), dtype=int)
        return self._fixed_idx

    @property
    def fixed_density_values(self) -> np.ndarray:
        if not hasattr(self, "_fixed_vals"):
            self._fixed_vals = np.array(
                [self.fixed_density[i] for i in self.fixed_density_idx])
        return self._fixed_vals

    def validate(self) -> None:
        e = self.elements
        if np.any(e < 0) or np.any(e >= self.nodes.shape[0]):
            raise ValueError("element connectivity out of node range")
        if any(len(set(row)) != 4 for row in e.tolist()):
            raise ValueError("element with repeated node indices")
        if self.dirichlet_dofs.size == 0:
            raise ValueError("mesh requires a nonempty Dirichlet set")


def build_rect_mesh(nx: int, ny: int, width: float, height: float,
                    bc: str = "bottom-clamped",
                    poisson: float = 0.3) -> StructuredMesh:
    """Uniform nx-by-ny Q4 grid on [0, width] x [0, height].

    Element index is ey*nx + ex (x fastest). bc = "bottom-clamped" fixes
    both dofs of every y = 0 node.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    if bc != "bottom-clamped":
        raise ValueError(f"unknown boundary spec {bc!r}")
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

    coords0 = nodes[elements[0]]
    template = ElementStiffnessTemplate(
        k0=q4_unit_stiffness(coords0, poisson)[None],
        template_index=np.zeros(nx * ny, dtype=int),
        rotation=np.zeros(nx * ny),
        poisson=poisson)
    mesh = StructuredMesh(
        kind="rect", nodes=nodes, elements=elements,
        element_centroids=centroids, element_volumes=volumes,
        dirichlet_dofs=dirichlet, fixed_density={}, template=template,
        shape=(nx, ny), geometry={"width": width, "height": height})
    mesh.validate()
    return mesh


def build_disc_mesh(n_radial: int, n_angular: int, r_inner_fixed: float,
                    r_rim: float, poisson: float = 0.3) -> StructuredMesh:
    """Polar-mapped Q4 annulus from r_inner_fixed to radius 1.

    All dofs on the innermost ring are clamped; elements whose centroid
    radius exceeds r_rim carry a prescribed density of 1 (the given rim
    material). Element index is i_band * n_angular + j_sector; sector
    j = n_angular - 1 wraps around to share nodes with sector 0.
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
    fixed = {int(e): 1.0 for e in np.nonzero(rim_radius > r_rim)[0]}

    # one unit-stiffness template per radius band, evaluated at sector 0;
    # other sectors are congruent under rotation by j*dtheta
    k0 = np.stack([
        q4_unit_stiffness(nodes[elements[b * n_angular]], poisson)
        for b in range(n_radial)])
    template = ElementStiffnessTemplate(
        k0=k0, template_index=bands, rotation=sectors * dtheta,
        poisson=poisson)
    mesh = StructuredMesh(
        kind="disc", nodes=nodes, elements=elements,
        element_centroids=centroids, element_volumes=volumes,
        dirichlet_dofs=dirichlet, fixed_density=fixed, template=template,
        shape=(n_radial, n_angular),
        geometry={"r_inner": r_inner_fixed, "r_rim": r_rim})
    mesh.validate()
    return mesh


@dataclass
class FactorizedSystem:
    """Direct factorization of the Dirichlet-reduced stiffness matrix."""

    lu: object
    free_dofs: np.ndarray
    n_dofs: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K U = rhs for one (n_dofs,) or many (n_dofs, m) loads.

        Returned displacements are zero at Dirichlet dofs.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_dofs:
            raise ValueError("rhs length does not match dof count")
        u = np.zeros_like(rhs)
        u[self.free_dofs] = self.lu.solve(np.ascontiguousarray(rhs[self.free_dofs]))
        return u

    def unit_columns(self, dofs) -> np.ndarray:
        """K^-1 P, (n_dofs, len(dofs)), for the unit columns P of dofs.

        One block solve; column j is the response to a unit load at
        dofs[j] (zero for a Dirichlet dof).
        """
        dofs = np.asarray(dofs, dtype=int)
        P = np.zeros((self.n_dofs, dofs.size))
        P[dofs, np.arange(dofs.size)] = 1.0
        return self.solve(P)


def assemble_stiffness(mesh: StructuredMesh,
                       stiffness_per_element) -> FactorizedSystem:
    """Assemble K = sum_e s_e * k0_e, eliminate Dirichlet dofs, factorize."""
    s = np.asarray(stiffness_per_element, dtype=float)
    if s.shape != (mesh.n_elements,):
        raise ValueError("stiffness list length must equal element count")
    if np.any(s <= 0.0):
        raise ValueError("element stiffness factors must be positive")

    mats = mesh.template.element_matrices()
    data = (mats * s[:, None, None]).ravel()
    edof = mesh.edof
    rows = np.repeat(edof, 8, axis=1).ravel()
    cols = np.tile(edof, (1, 8)).ravel()

    # map full dofs to reduced indices; drop rows/cols at Dirichlet dofs
    free = mesh.free_dofs
    redidx = -np.ones(mesh.n_dofs, dtype=int)
    redidx[free] = np.arange(free.size)
    rr, cc = redidx[rows], redidx[cols]
    keep = (rr >= 0) & (cc >= 0)
    K = sp.coo_matrix((data[keep], (rr[keep], cc[keep])),
                      shape=(free.size, free.size)).tocsc()
    try:
        lu = splu(K)
    except RuntimeError as exc:
        raise FactorizationError(f"stiffness factorization failed: {exc}") from exc
    return FactorizedSystem(lu=lu, free_dofs=free, n_dofs=mesh.n_dofs)


# unit columns of K0^-1 solved in one block: at most this many float64
# entries (32 MB; the solve holds a few copies), so that a call with many
# fields on a large mesh does not hold n_dofs columns at once
_UPDATE_BLOCK_ENTRIES = 2 ** 22


@dataclass
class LowRankUpdate:
    """K = K0 + P dK P^T, served exactly by the factorization of K0.

    P holds the unit columns of the free dofs S where K differs from K0.
    By the Woodbury identity K^-1 = K0^-1 - Z M Z^T, with Z = K0^-1 P and
    M = (I + dK Z_S)^-1 dK, where Z_S = P^T Z is the S-block of K0^-1.
    An empty S is the rank-0 update K = K0.
    """

    dofs: np.ndarray   # S: sorted free dof indices
    Z: np.ndarray      # (n_dofs, |S|)
    M: np.ndarray      # (|S|, |S|)

    def solve(self, U0: np.ndarray) -> np.ndarray:
        """K^-1 F from U0 = K0^-1 F, for one load or a block of them."""
        return U0 - self.Z @ (self.M @ U0[self.dofs])

    def form_drop(self, U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
        """F1^T K0^-1 F2 - F1^T K^-1 F2 per column, from U_i = K0^-1 F_i.

        K0 is symmetric, so Z^T F_i = P^T U_i: no state of K is needed.
        """
        return np.sum(U1[self.dofs] * (self.M @ U2[self.dofs]), axis=0)


def _element_update(mesh: StructuredMesh, s0: np.ndarray, s: np.ndarray):
    """(S, dK_SS) for K(s) - K(s0): the free dofs of the elements whose
    factor differs, and sum_e (s_e - s0_e) k_e restricted to them."""
    touched = np.nonzero(s != s0)[0]
    edof = mesh.edof[touched]
    dofs, local = np.unique(edof, return_inverse=True)
    local = local.reshape(edof.shape)
    dK = np.zeros((dofs.size, dofs.size))
    blocks = ((s - s0)[touched, None, None]
              * mesh.template.element_matrices()[touched])
    np.add.at(dK, (local[:, :, None], local[:, None, :]), blocks)
    free = ~np.isin(dofs, mesh.dirichlet_dofs)
    return dofs[free], dK[np.ix_(free, free)]


def low_rank_updates(system: FactorizedSystem, mesh: StructuredMesh,
                     s0, fields):
    """Yield one LowRankUpdate per stiffness field, in order.

    system is the factorization of K(s0). Fields that change only a few
    element factors give low-rank updates; Z for the union of their dofs
    comes from one block solve of unit columns. When that block would
    exceed _UPDATE_BLOCK_ENTRIES, the fields are split into consecutive
    groups with one block solve each.
    """
    s0 = np.asarray(s0, dtype=float)
    budget = max(1, _UPDATE_BLOCK_ENTRIES // mesh.n_dofs)
    group: list = []
    columns: set = set()
    for s in fields:
        dofs, dK = _element_update(mesh, s0, np.asarray(s, dtype=float))
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
    for dofs, dK in group:
        Zs = Z[:, np.searchsorted(union, dofs)]
        M = np.linalg.solve(np.eye(dofs.size) + dK @ Zs[dofs], dK)
        yield LowRankUpdate(dofs=dofs, Z=Zs, M=M)


def element_quadratic_forms(mesh: StructuredMesh, U1: np.ndarray,
                            U2: np.ndarray | None = None) -> np.ndarray:
    """Per-element u1_e^T k0_e u2_e.

    U1/U2 may be single vectors (n_dofs,) or blocks (n_dofs, m); the result
    is (n_elements,) or (m, n_elements) accordingly.
    """
    if U2 is None:
        U2 = U1
    mats = mesh.template.element_matrices()
    e1 = np.asarray(U1)[mesh.edof]
    e2 = np.asarray(U2)[mesh.edof]
    if e1.ndim == 2:
        k_e2 = np.matmul(mats, e2[:, :, None])[:, :, 0]
        return np.einsum("ei,ei->e", e1, k_e2)
    # a batched matmul, then a two-operand contraction: np.einsum runs a
    # three-operand contraction as one unoptimized loop, several times slower
    return np.einsum("eib,eib->be", e1, np.matmul(mats, e2))

