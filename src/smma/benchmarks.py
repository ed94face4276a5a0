"""The two built-in problems: a rim-loaded wheel and a clamped plate.

Wheel: annulus of radius 1, clamped at the hub, prescribed material on the
outer rim, loaded by a sharply localized normal traction whose direction
omega is uniform on the circle. Uncertainty enters the right-hand side
only, so one factorization serves a whole batch of load cases. Every load
lives on the rim dofs R, so a compliance is F_R^T (K^-1)_RR F_R: dense
verification factorizes the stiffness condensed onto R, whose system
holds (K^-1)_RR, the inverse of its Schur complement: the rule's loads
take one product with it; it builds the rim loads of its rule once per
rule and load scale.

Plate: 2l x 1l rectangle clamped at the bottom, loaded on a strip of the
top edge at a random position omega with a random inclination alpha, and
weakened in a random disc at xi. The alpha-average of the compliance is
analytic, and it lives in the loads: with F(alpha) = cos(alpha) Fx +
sin(alpha) Fy and the 2 x 2 angle moments Lambda, the average over alpha
is tr(Lambda [Fx, Fy]^T K^-1 [Fx, Fy]) / width, the sum of the plain
compliances of the two columns of [Fx, Fy] L, where L L^T = Lambda /
width, and a design gradient is a weighted sum of plain -u^T k_e u, as on
the wheel. The omega integral is a fixed trapezoid, and only xi is
sampled. The weakness changes the stiffness of only a few elements. All xi
of one call share one factorization of the unweakened design, and are
served as stacked exact rank-r updates of it, chunk by chunk, each chunk
one LowRankUpdates with one block solve (see mesh_fem for how it is
served), one stacked solve and one drop (an 8-xi batch is one chunk): a
record's compliances and gradient come from the unweakened states U0
(one 2 * n_omega-column sensitivity contraction per call) plus rank-r
corrections (at most one contraction per chunk), and no weakened state
is formed. Dense verification needs the states only at the loaded dofs
and at the dofs the weakness reaches, and factorizes the stiffness
condensed onto them. Verification builds the views, the updates' slots
and the loads of its rule once per rule, load scale, angle range and bump
radius, from one batched pass of the weakness over the rule's points; it
builds the loads at the top-node dofs only, and leaves the full-column
load block the loop keeps to the loop.

The two problems factorize differently (see mesh_fem). The plate's
builder and loop factorize the whole system as a block Cholesky over the
node lines of its mesh (mesh.lines, which the SIMP clones share), and its
verification condenses pivot-free in the mesh's node-graph order, which
the builder computes. The wheel's builder and loop assemble on the mesh
with SuperLU's COLAMD order, which its benchmark reference pins to the
last bit; only its verification is condensed.

Both builders rescale their load so the initial design's compliance at the
distribution-mean parameter equals 1, making the default cap c_max = 1.5
and the published smoothing constants directly meaningful.
"""
from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import design_field as df
from .csg_weights import ParamSpace
from .mesh_fem import (
    StructuredMesh,
    assemble_stiffness,
    build_disc_mesh,
    build_rect_mesh,
    change_slots,
    condensed_groups,
    element_quadratic_forms,
    low_rank_updates,
)
from .smoothing import SmoothingParams, h_deriv, h_eval

DEFAULT_ANGLE_RANGE = (np.pi / 4.0, 3.0 * np.pi / 4.0)
# half-width (rad) of the rim window around a wheel load direction; the
# intensity is exactly 0 beyond 0.1958 rad, so this leaves a margin
_LOAD_WINDOW = 0.25


def angle_integrals(a: float, b: float) -> tuple[float, float, float, float]:
    """(int cos^2, int sin^2, int cos*sin, length) over [a, b]."""
    ix = 0.5 * (b - a) + 0.25 * (np.sin(2 * b) - np.sin(2 * a))
    iy = 0.5 * (b - a) - 0.25 * (np.sin(2 * b) - np.sin(2 * a))
    ixy = 0.5 * (np.sin(b) ** 2 - np.sin(a) ** 2)
    return ix, iy, ixy, b - a


# perfbench/tracer.py TARGETS looks this name up; delete both together
_backprop_batch = df.backprop_to_design


class _ProblemBase:
    """Shared design-field plumbing; subclasses provide the physics."""

    name: str = ""
    initial_value: float      # design density outside the solid elements
    space: ParamSpace

    def __init__(self, mesh: StructuredMesh, filt: df.FilterMatrix,
                 simp: df.SimpParams, smoothing: SmoothingParams):
        self.mesh, self.filt = mesh, filt
        self.simp, self.smoothing = simp, smoothing
        self.load_scale = 1.0     # the builder calibrates it

    @property
    def n_design(self) -> int:
        return self.mesh.n_elements

    @property
    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.mesh.n_elements, dtype=bool)
        mask[self.mesh.solid] = False
        return mask

    def initial_design(self) -> np.ndarray:
        rho = np.full(self.mesh.n_elements, self.initial_value)
        rho[self.mesh.solid] = 1.0
        return rho

    def with_simp(self, s: float):
        """Same problem with a different SIMP exponent (shared geometry)."""
        clone = copy.copy(self)
        clone.simp = df.SimpParams(s=s)
        return clone

    def rvol(self, rho) -> float:
        return df.rvol(rho, self.filt, self.mesh.element_volumes)

    def pvol(self, rho) -> float:
        return df.pvol(rho, self.filt, self.simp, self.mesh.element_volumes)

    def rvol_gradient(self) -> np.ndarray:
        return df.rvol_gradient(self.filt, self.mesh.element_volumes)

    def stiffness_field(self, rho) -> np.ndarray:
        return df.interpolate_stiffness(rho, self.filt, self.simp,
                                        mesh=self.mesh)


class WheelProblem(_ProblemBase):
    name = "wheel"
    initial_value = 0.75
    default_simp_schedule = ((200, 15.0),)
    default_verify_spec = 1080
    default_pseudo_points = 1024
    # the load direction omega, uniform on the circle
    space = ParamSpace(((0.0, 2.0 * np.pi),), (True,))

    def __init__(self, *args):
        super().__init__(*args)
        nr, na = self.mesh.shape
        self._outer_nodes = nr * na + np.arange(na)
        self._build_rim_quadrature(na)
        self._rim_view = self.mesh.condensed(self._rim_dofs)
        self._rule_cache = (None,)    # (key, FR, weights); see dense_raw

    def _build_rim_quadrature(self, na: int) -> None:
        """Consistent rim traction: integrate f * n against the linear
        shape functions over each rim edge (composite Gauss in the angle),
        precomputed as a sparse operator so F_R(omega) = scale * (A @ f)
        on the rim dofs R, the only dofs the load reaches.

        The traction is much narrower than an edge, so sub-edge panels are
        needed; node-sampled lumping would make the resultant oscillate at
        element frequency and alias against coarse load quadratures."""
        panels, order = 6, 6
        gp, gw = np.polynomial.legendre.leggauss(order)
        dtheta = 2.0 * np.pi / na
        offs, wts = [], []
        for p in range(panels):
            a, b = p * dtheta / panels, (p + 1) * dtheta / panels
            offs.append(0.5 * (b - a) * gp + 0.5 * (a + b))
            wts.append(0.5 * (b - a) * gw)
        offs = np.concatenate(offs)          # within-edge angles
        wts = np.concatenate(wts)            # arc-length weights (r = 1)

        theta = (np.arange(na)[:, None] * dtheta + offs[None, :]).ravel()
        w = np.tile(wts, na)
        phi = np.tile(offs / dtheta, na)     # shape fn of the next node
        edge = np.repeat(np.arange(na), offs.size)
        n0 = self._outer_nodes[edge]
        n1 = self._outer_nodes[(edge + 1) % na]

        nx, ny = -np.cos(theta), -np.sin(theta)    # inner normal at r = 1
        rows = np.concatenate([2 * n0, 2 * n0 + 1, 2 * n1, 2 * n1 + 1])
        cols = np.tile(np.arange(theta.size), 4)
        vals = np.concatenate([w * (1 - phi) * nx, w * (1 - phi) * ny,
                               w * phi * nx, w * phi * ny])
        self._rim_beta = np.arctan2(np.cos(theta), np.sin(theta))
        self._rim_dofs, rim_rows = np.unique(rows, return_inverse=True)
        self._rim_op = sp.coo_matrix(
            (vals, (rim_rows, cols)),
            shape=(self._rim_dofs.size, theta.size)).tocsr()

    # -- loads ---------------------------------------------------------

    def intensity(self, beta, omega) -> np.ndarray:
        """Traction intensity around the rim for load direction omega."""
        return 1.0 + np.tanh(1e3 * (np.cos(np.asarray(beta) - omega) - 1.0)
                             + 1e-1)

    def rim_loads(self, omegas) -> np.ndarray:
        """(|R|, n) loads on the rim dofs R, one column per omega.

        The intensity is evaluated only on the rim edges within
        _LOAD_WINDOW of each omega. The samples lie edge by edge at angles
        theta, at rim angle beta = pi/2 - theta, so the traction peaks at
        theta = pi/2 - omega: the window lies in that angle's edge and the
        k edges to either side of it. 1 + tanh(...) is exactly 0 beyond
        0.1958 rad, so the result equals the full evaluation bit for bit:
        the sparse product adds the same nonzero terms in the same order,
        and a zero term leaves a sum as it is.
        """
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        beta, na = self._rim_beta, self.mesh.shape[1]
        per = beta.size // na                 # samples per edge
        k = int(np.ceil(_LOAD_WINDOW * na / (2.0 * np.pi)))
        peak = np.floor(np.mod(0.5 * np.pi - omegas, 2.0 * np.pi)
                        * (na / (2.0 * np.pi))).astype(np.intp)
        edges = np.mod(peak[:, None] + np.arange(-k, k + 1), na)
        rows = (edges[:, :, None] * per + np.arange(per)).ravel()
        cols = np.repeat(np.arange(omegas.size), (2 * k + 1) * per)
        f = self.intensity(beta[rows], omegas[cols]) * self.load_scale
        block = sp.csr_matrix((f, (rows, cols)),
                              shape=(beta.size, omegas.size))
        return (self._rim_op @ block).toarray()

    def load_block(self, omegas: np.ndarray) -> np.ndarray:
        """(n_dofs, n) loads, one column per omega."""
        F = np.zeros((self.mesh.n_dofs, np.size(omegas)))
        F[self._rim_dofs] = self.rim_loads(omegas)
        return F

    # -- evaluation ----------------------------------------------------

    def compliances(self, rho, omegas, want_grads: bool = False):
        """Compliances (and their design gradients) for a batch of omegas."""
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        system = assemble_stiffness(self.mesh, self.stiffness_field(rho))
        F = self.load_block(omegas)
        U = system.solve(F)
        values = np.einsum("db,db->b", F, U)
        if not want_grads:
            return values, None
        grads_s = -element_quadratic_forms(self.mesh, U, U)
        return values, df.backprop_to_design(
            grads_s, rho, self.filt, self.simp, mesh=self.mesh)

    def evaluate_records(self, rho, params):
        """Records for a batch of omegas: h(c - cap) and h'(c - cap) grad c."""
        c, dc = self.compliances(rho, params, want_grads=True)
        t = c - self.smoothing.c_max
        return (h_eval(t, self.smoothing),
                h_deriv(t, self.smoothing)[:, None] * dc)

    def default_baseline_spec(self, batch_size: int):
        return batch_size

    def dense_raw(self, rho, spec):
        """Raw compliances on an equispaced circle rule (periodic trapezoid).

        Costs one factorization of the stiffness condensed onto the rim
        dofs R, whose system holds G = (K^-1)_RR, and c = F_R^T G F_R for
        every point, from one product of G with the rule's loads. The rim
        loads F_R of the rule do not depend on the design: one block and
        its weights are kept and rebuilt when the rule's counts or
        load_scale change.
        """
        key = (self.space.rule_counts(spec), self.load_scale)
        if self._rule_cache[0] != key:
            pts, w = self.space.trapezoid_rule(key[0])
            self._rule_cache = (key, self.rim_loads(pts[:, 0]), w)
        _, FR, w = self._rule_cache
        system = assemble_stiffness(self._rim_view, self.stiffness_field(rho))
        return np.einsum("db,db->b", FR, system.solve(FR)), w.copy()


def wheel_problem(n_radial: int = 18, n_angular: int = 72,
                  r_inner: float = 0.1, r_rim: float = 0.95,
                  r_min: float | None = None, simp_s: float = 10.0,
                  a1: float = 50.0, a2: float = 0.1, a3: float = 5.0,
                  p_level: float = 0.025, c_max: float = 1.5,
                  poisson: float = 0.3) -> WheelProblem:
    """Wheel benchmark; traction scaled so the initial compliance is 1."""
    smoothing = SmoothingParams(a1=a1, a2=a2, a3=a3, c_max=c_max,
                                p_level=p_level)
    simp = df.SimpParams(s=simp_s)
    mesh = build_disc_mesh(n_radial, n_angular, r_inner, r_rim,
                           poisson=poisson)
    if r_min is None:
        r_min = 1.5 * (1.0 - r_inner) / n_radial
    filt = df.build_filter(mesh, r_min)
    problem = WheelProblem(mesh, filt, simp, smoothing)
    # pin the compliance scale at the mean direction of the uniform omega
    values, _ = problem.compliances(problem.initial_design(),
                                    problem.space.centre())
    problem.load_scale = 1.0 / np.sqrt(float(values[0]))
    return problem


class PlateProblem(_ProblemBase):
    """The weakened plate (see the module docstring).

    Every load comes from load_columns, the unit loads Fx and Fy of one
    omega per column, and reaches the FEM layer through angle_loads, which
    folds the angle average into 2 * n loads. load_block() is angle_loads
    of load_columns over the omega nodes. The loop, dense verification and
    the builder's calibration all take their compliances from
    _weakened_blocks. The builder and the loop factorize the whole system
    on the mesh's lines (mesh.lines, see mesh_fem.LineBlocks).
    """

    name = "plate"
    initial_value = 0.65
    default_simp_schedule = ()
    default_verify_spec = (50, 50)
    default_pseudo_points = 32

    def __init__(self, mesh: StructuredMesh, filt: df.FilterMatrix,
                 simp: df.SimpParams, smoothing: SmoothingParams,
                 ell: float = 1.0, n_omega: int = 32):
        if n_omega < 1:
            raise ValueError(f"n_omega must be at least 1, got {n_omega}")
        super().__init__(mesh, filt, simp, smoothing)
        self.ell = ell
        self.n_omega = n_omega

        # the sampled parameter: the weakness centre xi = (xi_1, xi_2)
        self.space = ParamSpace(((ell / 4.0, 7.0 * ell / 4.0),
                                 (ell / 8.0, 7.0 * ell / 8.0)),
                                (False, False))
        self.angle_range = DEFAULT_ANGLE_RANGE
        self.bump_radius = ell / 18.0

        # omega trapezoid: fixed inner rule of the constraint integral
        self.omega_space = ParamSpace(((ell / 5.0, 4.0 * ell / 5.0),),
                                      (False,))
        nodes, self.omega_weights = self.omega_space.trapezoid_rule(n_omega)
        self.omega_nodes = nodes[:, 0]

        nx, ny = mesh.shape
        self._top_nodes = ny * (nx + 1) + np.arange(nx + 1)
        self._top_x = mesh.nodes[self._top_nodes, 0]
        self._centroids = cKDTree(mesh.element_centroids)
        self._gauss = np.polynomial.legendre.leggauss(8)
        self._bump_panels = 32
        self._load_cache = (None,)    # (key, G) at omega_nodes
        self._rule_cache = (None,)    # (key, weights, groups); see _rule_plan

    # -- loads and material modifier ------------------------------------

    def bump(self, t, omega) -> np.ndarray:
        """Load intensity profile of width 2*l/18 centered at omega."""
        t = np.asarray(t, dtype=float)
        d2 = (18.0 / self.ell) ** 2 * (t - omega) ** 2
        out = np.zeros_like(t)
        inside = d2 < 1.0
        out[inside] = np.exp(-0.1 / (1.0 - d2[inside]))
        return out

    def weakness(self, xi) -> np.ndarray:
        """Stiffness reduction field g_xi at the element centroids."""
        xi = np.asarray(xi, dtype=float)
        return self._weakness_at(
            np.sum((self.mesh.element_centroids - xi) ** 2, axis=1))

    def _weakness_at(self, d2) -> np.ndarray:
        """g at the squared distances d2 from a weakness centre: the one
        weakness formula, zero from bump_radius on."""
        r2 = self.bump_radius ** 2
        out = np.zeros(d2.shape)
        inside = d2 < r2
        out[inside] = 0.99 * np.exp(-d2[inside] / (r2 * (r2 - d2[inside])))
        return out

    def _profiles(self, omegas) -> np.ndarray:
        """(top nodes, n) consistent profiles, one column per omega, in
        one pass: composite Gauss on fixed panels over the bump support,
        split at edge boundaries. Even a bump narrower than one edge
        produces its full resultant, independent of node alignment."""
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        x = self._top_x
        nodal = np.zeros((x.size, omegas.size))
        gp, gw = self._gauss
        lo = np.maximum(omegas - self.bump_radius, x[0])
        hi = np.minimum(omegas + self.bump_radius, x[-1])
        live = np.flatnonzero(hi > lo)
        lo, hi = lo[live, None], hi[live, None]
        # cosine-graded panels: the bump is infinitely flat but strongly
        # non-polynomial at its support ends, so crowd the cuts there
        u = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                            self._bump_panels + 1)))
        # each omega's cuts and the nodes inside its support, sorted and
        # free of duplicates; inf pads a row
        cuts = np.sort(np.hstack([lo + (hi - lo) * u,
                                  np.where((x > lo) & (x < hi), x, np.inf)]),
                       axis=1)
        kept = cuts < np.inf
        kept[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
        row, _ = np.nonzero(kept)
        cuts = cuts[kept]
        # a panel joins two consecutive cuts of one omega
        panel = row[1:] == row[:-1]
        a, b = cuts[:-1][panel, None], cuts[1:][panel, None]
        col = live[row[:-1][panel]]
        # every panel at once; each panel adds to its edge's nodes (e, e+1)
        # of its omega's column in panel order, as a loop over them would
        e = np.minimum(np.searchsorted(x, 0.5 * (a + b)[:, 0]) - 1,
                       x.size - 2)
        t = 0.5 * (b - a) * gp + 0.5 * (a + b)
        w = 0.5 * (b - a) * gw * self.bump(t, omegas[col, None])
        phi = (t - x[e, None]) / (x[e + 1, None] - x[e, None])
        terms = np.column_stack([np.sum(w * (1.0 - phi), axis=1),
                                 np.sum(w * phi, axis=1)])
        np.add.at(nodal, (np.column_stack([e, e + 1]).ravel(),
                          np.repeat(col, 2)), terms.ravel())
        return nodal

    def load_columns(self, omegas) -> tuple[np.ndarray, np.ndarray]:
        """(n_dofs, n) unit loads Fx and Fy, one column per omega, so that
        F(alpha) = cos(alpha) Fx + sin(alpha) Fy.

        alpha is measured from the positive x axis; alpha = pi/2 points
        straight down, so the downward sign lives in Fy.
        """
        prof = self._profiles(omegas) * self.load_scale
        Fx = np.zeros((self.mesh.n_dofs, prof.shape[1]))
        Fy = np.zeros_like(Fx)
        Fx[2 * self._top_nodes] = prof
        Fy[2 * self._top_nodes + 1] = -prof
        return Fx, Fy

    def angle_loads(self, Fx, Fy) -> np.ndarray:
        """G = [Fx, Fy] L for n load pairs: (rows, 2n), where L L^T =
        Lambda / width and Lambda holds the angle moments of angle_range.

        The average over alpha of F(alpha)^T K^-1 F(alpha) for pair j is
        tr(Lambda F_j^T K^-1 F_j) / width: the plain compliance of column
        j of G plus that of column n + j.
        """
        ix, iy, ixy, width = angle_integrals(*self.angle_range)
        L = np.linalg.cholesky(np.array([[ix, ixy], [ixy, iy]]) / width)
        return np.hstack([L[0, 0] * Fx + L[1, 0] * Fy, L[1, 1] * Fy])

    def load_block(self) -> np.ndarray:
        """angle_loads of load_columns over the omega nodes, cached per
        (load_scale, angle_range, bump_radius)."""
        key = (self.load_scale, self.angle_range, self.bump_radius)
        if self._load_cache[0] != key:
            # full columns on purpose: building the loaded rows alone gives
            # the same bytes, but its small temporaries leave glibc's mmap
            # threshold low, so the plate loop maps its 2-4 MB blocks afresh
            # every iteration (iter_ms_p50 about 20% higher, default plate)
            self._load_cache = (key, self.angle_loads(
                *self.load_columns(self.omega_nodes)))
        return self._load_cache[1]

    # -- evaluation ------------------------------------------------------

    def _changed(self, xis):
        """(slots, kept) of the (n, 2) xis: the ChangeSlots of one change
        per xi, of the elements whose stiffness xi changes, ascending, and
        the share kept = 1 - g_xi of it that xi leaves each of
        slots.elements; where g_xi is below half an ulp of 1, kept rounds
        to 1: no change.

        One pass for the whole batch: the centroid tree gives the elements
        within a slightly wider radius than bump_radius, and _weakness_at
        decides on them as weakness(xi) does, so the elements and the bits
        of kept are those of 1 - weakness(xi).
        """
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        near = cKDTree(xis).sparse_distance_matrix(
            self._centroids, self.bump_radius * (1.0 + 1e-6),
            output_type="ndarray")
        order = np.lexsort((near["j"], near["i"]))
        at, elements = near["i"][order], near["j"][order]
        kept = 1.0 - self._weakness_at(np.sum(
            (self.mesh.element_centroids[elements] - xis[at]) ** 2, axis=1))
        hit = kept < 1.0
        return (change_slots(self.mesh, at[hit], elements[hit], len(xis)),
                kept[hit])

    def _weakened_blocks(self, system, s0, changes, G):
        """(U0, blocks): the unweakened states of the loads G and an
        iterator of (cbar, updates), one per LowRankUpdates of
        low_rank_updates, in order. The plate's one compliance kernel: the
        loop, dense verification and the builder's calibration all take
        their compliances from it.

        K(xi) differs from the unweakened K0 only on the few elements the
        weakness reaches, so one factorization of K0 serves every xi
        through an exact low-rank update (see low_rank_updates): one block
        solve (on a condensed view, a gather of unit columns), one stacked
        solve and one drop per LowRankUpdates, the first block with the
        states of the loads (on a condensed view, one product with them).
        cbar holds, one row per xi of updates, the n angle-averaged
        compliances of K(xi), each the sum of the plain compliances of
        columns j and n + j (see angle_loads), and no state of K(xi) is
        formed. changes is the (slots, kept) of the batch's _changed: each
        xi's change is the factors s0 * kept at its elements.

        system is K0, the stiffness of the element factors s0 assembled on
        the mesh's lines (the whole system) or on a view condensed onto the
        loaded dofs and the dofs of every element whose stiffness a xi
        changes. G is in the rows of system: load_block() for the whole
        system, its rows at view.keep for a condensed one, whose states
        then have one row per kept dof, which is all cbar reads.
        """
        slots, kept = changes
        U0, updates = low_rank_updates(system, self.mesh, s0, slots,
                                       s0[slots.elements] * kept, G)
        c0 = np.einsum("db,db->b", G, U0)
        n = c0.size // 2

        def cbar(update):
            c = c0 - update.drop
            return c[:, :n] + c[:, n:]
        return U0, ((cbar(u), u) for u in updates)

    def evaluate_records(self, rho, params):
        """Records for a batch of xi, from one factorization of the design.

        A record is the omega-trapezoid of h(angle-averaged compliance -
        cap), with its design gradient. The gradient is
        -sum_b coef_b u_b^T k_e u_b per element, where u_b are the states
        of K(xi) for the columns of load_block() and coef = omega weight *
        h', the same on the two columns of an omega. It comes from the
        unweakened states U0: one 2 * n_omega-column contraction per call,
        plus at most one contraction of the corrections per LowRankUpdates,
        each with its own block solve (an 8- or 64-xi batch is one).
        """
        rho = np.asarray(rho, dtype=float)
        xis = np.atleast_2d(np.asarray(params, dtype=float))
        s0 = self.stiffness_field(rho)
        system = assemble_stiffness(self.mesh.lines, s0)
        slots, kept = changes = self._changed(xis)
        # the first call builds the load cache after the factorization:
        # built before it, the cache leaves glibc's heap so that every
        # later call faults in fresh pages (default plate, seed 3, 8
        # iterations: 5.4k to 5.5k minor faults an iteration against 0.9k
        # to 1.1k)
        U0, blocks = self._weakened_blocks(system, s0, changes,
                                           self.load_block())
        q0 = element_quadratic_forms(self.mesh, U0, U0)
        w, smoothing = self.omega_weights, self.smoothing
        values, grads = [], []
        for cbar, update in blocks:
            t = cbar - smoothing.c_max
            values.append(h_eval(t, smoothing) @ w)
            coef = np.tile(w * h_deriv(t, smoothing), 2)
            q = coef @ q0
            Z, Y, owner = update.form_change(U0, coef)
            if owner.size:
                np.add.at(q, owner, element_quadratic_forms(self.mesh, Z, Y))
            grads.append(-q)
        grads = np.concatenate(grads)
        grads[slots.owner, slots.elements] *= kept
        return np.concatenate(values), df.backprop_to_design(
            grads, rho, self.filt, self.simp, mesh=self.mesh)

    def default_baseline_spec(self, batch_size: int):
        return (5, 5)

    def _rule_plan(self, spec):
        """(weights, groups) of dense_raw on the xi trapezoid rule spec.

        A group is (view, GK, changes) per view of condensed_groups:
        keep = T u S, the loaded dofs T and the dofs S of every element
        whose stiffness the weakness of one of the group's points changes;
        the loads at view.keep, the rows of load_block() there; and the
        (slots, kept) of the group's points: the rule's _changed when the
        group is the whole rule, else its slice, with slots built afresh so
        that each group has its own slot width. The loads are built at the
        top-node dofs alone, the only rows load_block() fills; the load
        cache itself belongs to the loop (see evaluate_records). None of it
        depends on the design, so one plan, with the patterns its views
        build on their first assembly, is kept and rebuilt when spec,
        load_scale, angle_range or bump_radius changes. The weakness of
        every point comes from one call of _changed.
        """
        key = (self.space.rule_counts(spec), self.load_scale,
               self.angle_range, self.bump_radius)
        if self._rule_cache[0] != key:
            pts, lam = self.space.trapezoid_rule(key[0])
            # load_columns and angle_loads at the top nodes' x and y dofs
            top = (2 * self._top_nodes[:, None] + np.arange(2)).ravel()
            prof = self._profiles(self.omega_nodes) * self.load_scale
            Fx = np.zeros((top.size, prof.shape[1]))
            Fy = np.zeros_like(Fx)
            Fx[0::2] = prof
            Fy[1::2] = -prof
            G = self.angle_loads(Fx, Fy)
            rule = slots, kept = self._changed(pts)
            groups = []
            for lo, hi, view in condensed_groups(
                    self.mesh, top[np.any(G != 0.0, axis=1)], slots):
                GK = np.zeros((view.keep.size, G.shape[1]))
                at = np.isin(top, view.keep)
                GK[np.searchsorted(view.keep, top[at])] = G[at]
                if hi - lo == len(pts):
                    changes = rule
                else:
                    e = slice(*np.searchsorted(slots.owner, [lo, hi]))
                    changes = (change_slots(
                        self.mesh, slots.owner[e] - lo, slots.elements[e],
                        hi - lo), kept[e])
                groups.append((view, GK, changes))
            weights = (lam[:, None] * self.omega_weights[None, :]).ravel()
            self._rule_cache = (key, weights, groups)
        return self._rule_cache[1:]

    def dense_raw(self, rho, spec):
        """Angle-averaged compliances on a xi trapezoid grid x omega nodes.

        The grid points are served by one factorization of the design
        condensed onto keep = T u S: the loaded dofs T and the dofs S of
        every element whose stiffness the weakness of a grid point
        changes. The loads, states and low-rank updates have one row per
        kept dof, and come from the inverse of the Schur complement onto
        keep that the condensed system holds. Past 2048 kept dofs,
        consecutive groups of points get one factorization each (see
        condensed_groups). The views and the weakness of the grid are
        built once per grid (see _rule_plan).
        """
        weights, groups = self._rule_plan(spec)
        rho = np.asarray(rho, dtype=float)
        s0 = self.stiffness_field(rho)
        values = []
        for view, GK, changes in groups:
            _, blocks = self._weakened_blocks(
                assemble_stiffness(view, s0), s0, changes, GK)
            values.extend(cbar for cbar, _ in blocks)
        return np.concatenate(values).ravel(), weights.copy()


def plate_problem(nx: int = 60, ny: int = 30, ell: float = 1.0,
                  n_omega: int = 32, r_min: float | None = None,
                  simp_s: float = 5.0, a1: float = 35.0, a2: float = 0.05,
                  a3: float = 5.0, p_level: float = 0.05,
                  c_max: float = 1.5, poisson: float = 0.3) -> PlateProblem:
    """Plate benchmark; load scaled so the initial compliance is 1.

    The initial compliance is the angle average at the centres of the xi
    box and of the omega interval, from angle_loads and _weakened_blocks,
    as the loop and verification compute it. The mesh's node-graph order,
    which verification's condensed views read, is computed here too, so
    that the first verification does not pay for it.
    """
    # written so that NaN fails it
    if not 0.0 < ell < np.inf:
        raise ValueError(f"ell must be positive and finite, got {ell}")
    smoothing = SmoothingParams(a1=a1, a2=a2, a3=a3, c_max=c_max,
                                p_level=p_level)
    simp = df.SimpParams(s=simp_s)
    mesh = build_rect_mesh(nx, ny, 2.0 * ell, ell, poisson=poisson)
    if r_min is None:
        r_min = 1.5 * (2.0 * ell / nx)
    filt = df.build_filter(mesh, r_min)
    problem = PlateProblem(mesh, filt, simp, smoothing, ell=ell,
                           n_omega=n_omega)
    s0 = problem.stiffness_field(problem.initial_design())
    _, blocks = problem._weakened_blocks(
        assemble_stiffness(mesh.lines, s0), s0,
        problem._changed(problem.space.centre()),
        problem.angle_loads(*problem.load_columns(
            problem.omega_space.centre())))
    ((c0, _),) = blocks
    problem.load_scale = 1.0 / np.sqrt(float(c0[0, 0]))
    _ = mesh.symmetric_order
    return problem
