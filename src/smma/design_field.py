"""Density filtering, SIMP interpolation and volume measures.

The raw design rho is smoothed by a row-stochastic hat filter F; the
filtered field y = F rho is interpolated to an element stiffness factor
y^s * E1 + (1 - y^s) * E0. Elements with a prescribed density (the wheel
rim) are pinned after filtering: their stiffness uses the prescribed value
and they contribute nothing to the design gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .mesh_fem import StructuredMesh


@dataclass(frozen=True)
class SimpParams:
    """Penalization exponent and the two material stiffness endpoints."""

    s: float
    e_solid: float = 1.0
    e_void: float = 1e-4

    def __post_init__(self):
        if self.s < 1.0:
            raise ValueError("SIMP exponent must be >= 1")
        if not self.e_solid > self.e_void > 0.0:
            raise ValueError("need e_solid > e_void > 0")

    def with_exponent(self, s: float) -> "SimpParams":
        return SimpParams(s=s, e_solid=self.e_solid, e_void=self.e_void)


@dataclass
class FilterMatrix:
    """Row-stochastic sparse hat-weight filter over element centroids."""

    matrix: sp.csr_matrix
    r_min: float

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.matrix @ rho

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.T @ v


def build_filter(mesh: StructuredMesh, r_min: float) -> FilterMatrix:
    """Linear hat filter: w_ij = max(0, r_min - dist(i, j)), rows normalized.

    A radius below the centroid spacing (including r_min = 0) yields the
    identity matrix.
    """
    if r_min < 0:
        raise ValueError("filter radius must be nonnegative")
    n = mesh.n_elements
    if r_min == 0.0:
        return FilterMatrix(matrix=sp.identity(n, format="csr"), r_min=r_min)

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
    empty = rowsum == 0.0
    if np.any(empty):
        # isolated rows (r_min below spacing) fall back to identity
        idx = np.nonzero(empty)[0]
        M = M + sp.coo_matrix((np.ones(idx.size), (idx, idx)), shape=(n, n))
        rowsum[empty] = 1.0
    M = sp.diags(1.0 / rowsum) @ M
    return FilterMatrix(matrix=M.tocsr(), r_min=r_min)


def _pinned(y: np.ndarray, mesh: StructuredMesh | None) -> np.ndarray:
    if mesh is None or not mesh.fixed_density:
        return y
    y = y.copy()
    y[mesh.fixed_density_idx] = mesh.fixed_density_values
    return y


def interpolate_stiffness(rho: np.ndarray, filt: FilterMatrix,
                          simp: SimpParams,
                          mesh: StructuredMesh | None = None) -> np.ndarray:
    """Element stiffness factors y^s E1 + (1 - y^s) E0 from y = F rho.

    Passing the mesh pins prescribed-density elements after filtering.
    """
    y = _pinned(filt.apply(np.asarray(rho, dtype=float)), mesh)
    ys = y ** simp.s
    return ys * simp.e_solid + (1.0 - ys) * simp.e_void


def backprop_to_design(grad_wrt_stiffness: np.ndarray, rho: np.ndarray,
                       filt: FilterMatrix, simp: SimpParams,
                       mesh: StructuredMesh | None = None) -> np.ndarray:
    """Chain rule back through SIMP and the filter.

    Returns F^T (s y^(s-1) (E1 - E0) * g), with pinned elements' entries
    zeroed before the transpose (their stiffness does not depend on rho).
    g is one (n,) gradient or a (B, n) block of them, one per row.
    """
    g = np.asarray(grad_wrt_stiffness, dtype=float)
    y = filt.apply(np.asarray(rho, dtype=float))
    inner = simp.s * y ** (simp.s - 1.0) * (simp.e_solid - simp.e_void) * g
    if mesh is not None and mesh.fixed_density:
        inner[..., mesh.fixed_density_idx] = 0.0
    return filt.apply_transpose(inner.T).T


def rvol(rho: np.ndarray, filt: FilterMatrix,
         element_volumes: np.ndarray) -> float:
    """Relative volume of the filtered design, vol(F rho) / vol(D)."""
    y = filt.apply(np.asarray(rho, dtype=float))
    v = np.asarray(element_volumes, dtype=float)
    return float((y @ v) / v.sum())


def pvol(rho: np.ndarray, filt: FilterMatrix, simp: SimpParams,
         element_volumes: np.ndarray) -> float:
    """Physical relative volume vol((F rho)^s) / vol(D)."""
    y = filt.apply(np.asarray(rho, dtype=float))
    v = np.asarray(element_volumes, dtype=float)
    return float((y ** simp.s @ v) / v.sum())


def rvol_gradient(filt: FilterMatrix,
                  element_volumes: np.ndarray) -> np.ndarray:
    """Design gradient of rvol: the constant vector F^T v / vol(D)."""
    v = np.asarray(element_volumes, dtype=float)
    return filt.apply_transpose(v) / v.sum()
