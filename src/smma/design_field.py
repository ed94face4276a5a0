"""Density filtering, SIMP interpolation and volume measures.

The raw design rho is smoothed by a row-stochastic hat filter F; the
filtered field y = F rho is interpolated to an element stiffness factor
y^s * E1 + (1 - y^s) * E0. The mesh's `solid` elements (the wheel rim)
are pinned at density 1 after filtering: their stiffness is E1 and they
contribute nothing to the design gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .mesh_fem import StructuredMesh


# stiffness of solid and of void material, relative to the unit modulus
E_SOLID = 1.0
E_VOID = 1e-4


@dataclass(frozen=True)
class SimpParams:
    """Penalization exponent of the SIMP interpolation."""

    s: float

    def __post_init__(self):
        if not 1.0 <= self.s < np.inf:
            raise ValueError(f"SIMP exponent must be >= 1 and finite, "
                             f"got {self.s}")


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
    if not 0.0 <= r_min < np.inf:
        raise ValueError(f"filter radius must be nonnegative and finite, "
                         f"got {r_min}")
    n = mesh.n_elements
    if r_min == 0.0:
        return FilterMatrix(matrix=sp.identity(n, format="csr"), r_min=r_min)

    C = mesh.element_centroids
    # each pair within r_min once; its weight serves both of its entries,
    # since C[i] - C[j] is exactly -(C[j] - C[i]), and an element's weight
    # with itself is r_min
    pairs = cKDTree(C).query_pairs(r_min, output_type="ndarray")
    w = r_min - np.linalg.norm(C[pairs[:, 1]] - C[pairs[:, 0]], axis=1)
    pairs, w = pairs[w > 0.0], w[w > 0.0]
    own = np.arange(n)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], own])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], own])
    # sorted by row, then column, as a CSR matrix holds them (one key per
    # entry, sorted by radix on the narrowest type that holds it)
    key = (rows * n + cols).astype(np.min_scalar_type(n * n))
    order = np.argsort(key, kind="stable")
    vals = np.concatenate([w, w, np.full(n, r_min)])[order]
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    M = sp.csr_matrix((vals, cols[order].astype(np.intc), indptr),
                      shape=(n, n))
    rowsum = np.asarray(M.sum(axis=1)).ravel()
    # a row holding only its own element (r_min below the spacing) is an
    # identity row; its one weight, r_min, may be too small to invert
    alone = np.diff(M.indptr) == 1
    M.data[M.indptr[:-1][alone]] = 1.0
    rowsum[alone] = 1.0
    M = sp.diags(1.0 / rowsum) @ M
    return FilterMatrix(matrix=M.tocsr(), r_min=r_min)


def interpolate_stiffness(rho: np.ndarray, filt: FilterMatrix,
                          simp: SimpParams,
                          mesh: StructuredMesh) -> np.ndarray:
    """Element stiffness factors y^s E1 + (1 - y^s) E0 from y = F rho,
    with the mesh's solid elements pinned at y = 1 after filtering."""
    y = filt.apply(np.asarray(rho, dtype=float))   # a new array
    y[mesh.solid] = 1.0
    ys = y ** simp.s
    return ys * E_SOLID + (1.0 - ys) * E_VOID


def backprop_to_design(grad_wrt_stiffness: np.ndarray, rho: np.ndarray,
                       filt: FilterMatrix, simp: SimpParams,
                       mesh: StructuredMesh) -> np.ndarray:
    """Chain rule back through SIMP and the filter.

    Returns F^T (s y^(s-1) (E1 - E0) * g), with pinned elements' entries
    zeroed before the transpose (their stiffness does not depend on rho).
    g is one (n,) gradient or a (B, n) block of them, one per row; a block
    comes back C-contiguous, so that a sum over its rows (the baseline's
    lam @ grads) adds in the same order for every problem.
    """
    g = np.asarray(grad_wrt_stiffness, dtype=float)
    y = filt.apply(np.asarray(rho, dtype=float))
    inner = simp.s * y ** (simp.s - 1.0) * (E_SOLID - E_VOID) * g
    inner[..., mesh.solid] = 0.0
    return np.ascontiguousarray(filt.apply_transpose(inner.T).T)


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
