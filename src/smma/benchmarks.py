"""The two built-in problems: a rim-loaded wheel and a clamped plate.

Wheel: annulus of radius 1, clamped at the hub, prescribed material on the
outer rim, loaded by a sharply localized normal traction whose direction
omega is uniform on the circle. Uncertainty enters the right-hand side
only, so one factorization serves a whole batch of load cases. Every load
lives on the rim dofs R, so a compliance is F_R^T (K^-1)_RR F_R: dense
verification factorizes the stiffness condensed onto R, whose Schur
complement gives (K^-1)_RR from an |R|-square dense solve, and contracts
every load case with it.

Plate: 2l x 1l rectangle clamped at the bottom, loaded on a strip of the
top edge at a random position omega with a random inclination alpha, and
weakened in a random disc at xi. The alpha-average of the compliance is
analytic: each design gets one block solve of the 2 * n_omega unit loads
(an x and a y load per omega node). The omega integral is a fixed
trapezoid, and only xi is sampled. The weakness changes the stiffness of
only a few elements, and a xi reaches the FEM layer as those elements and
their weakened factors alone. All xi of one call share one factorization
of the unweakened design, each served by an exact rank-r update of it: a
record's compliances and gradient come from the unweakened states U0 (one
2 * n_omega-column sensitivity contraction per call) plus a rank-r
correction per xi, and no weakened state is formed. Dense verification
needs the states only at the loaded dofs and at the dofs the weakness
reaches, and factorizes the stiffness condensed onto them; it builds the
views and the weakness of its rule once per rule and load scale.

The two problems factorize differently (see mesh_fem). The plate's
builder, loop and verification all take K pivot-free in the mesh's
node-graph order: the builder and the loop assemble the whole system
through one view with nothing kept (mesh.condensed of no dofs), which the
SIMP clones share. The wheel's builder and loop assemble on the mesh with
SuperLU's COLAMD order, which its benchmark reference pins to the last
bit; only its verification is condensed.

Both builders rescale their load so the initial design's compliance at the
distribution-mean parameter equals 1, making the default cap c_max = 1.5
and the published smoothing constants directly meaningful.
"""
from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from . import design_field as df
from .csg_weights import ParamSpace
from .mesh_fem import (
    FactorizedSystem,
    StructuredMesh,
    assemble_stiffness,
    build_disc_mesh,
    build_rect_mesh,
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
        self._rim_order = np.argsort(self._rim_beta)
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

        The intensity is evaluated only at the rim angles within
        _LOAD_WINDOW of each omega. 1 + tanh(...) is exactly 0 beyond
        0.1958 rad, so the result equals the full evaluation bit for bit:
        the sparse product adds the same nonzero terms in the same order.
        """
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        beta = self._rim_beta
        sorted_beta = beta[self._rim_order]
        # beta lies in [-pi, pi]: search around the copies of omega in
        # [-pi, pi) and one period to either side (disjoint windows)
        centre = np.mod(omegas + np.pi, 2.0 * np.pi) - np.pi
        centres = np.concatenate([centre - 2.0 * np.pi, centre,
                                  centre + 2.0 * np.pi])
        lo = np.searchsorted(sorted_beta, centres - _LOAD_WINDOW, "left")
        hi = np.searchsorted(sorted_beta, centres + _LOAD_WINDOW, "right")
        counts = hi - lo
        cols = np.repeat(np.tile(np.arange(omegas.size), 3), counts)
        starts = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) - np.repeat(starts - lo, counts)
        rows = self._rim_order[pos]
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

    def stiffness_field(self, rho) -> np.ndarray:
        return df.interpolate_stiffness(rho, self.filt, self.simp,
                                        mesh=self.mesh)

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

    def dense_raw(self, rho, spec=None):
        """Raw compliances on an equispaced circle rule (periodic trapezoid).

        Costs one factorization of the stiffness condensed onto the rim
        dofs R, whose |R| dense unit columns are G = (K^-1)_RR, and
        c = F_R^T G F_R for every point.
        """
        pts, w = self.space.trapezoid_rule(
            self.default_verify_spec if spec is None else spec)
        # the loads first: the factorization then reuses the memory of
        # their temporaries (about 12 MB at 1080 points); in the other
        # order the allocator tends to return that memory to the system
        # after each call and fault it in again on the next
        FR = self.rim_loads(pts[:, 0])
        system = assemble_stiffness(self._rim_view, self.stiffness_field(rho))
        G = system.unit_columns(self._rim_dofs)
        return np.sum(FR * (G @ FR), axis=0), w


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

    Every load comes from load_columns: the unit loads Fx and Fy of one
    omega per column. load_block() is load_columns over the omega nodes.
    The loop, dense verification and the builder's calibration all reduce
    these loads with angle_averaged_block. The builder and the loop
    factorize through _whole, the mesh condensed onto no dofs: the whole
    system, pivot-free in the mesh's symmetric order.
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
        self._gauss = np.polynomial.legendre.leggauss(8)
        self._bump_panels = 32
        self._load_cache = (None,)    # (load_scale, Fx, Fy) at omega_nodes
        self._rule_cache = (None,)    # (key, weights, groups); see _rule_plan
        # the whole stiffness in the mesh's symmetric order
        self._whole = mesh.condensed(np.zeros(0, dtype=int))

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
        r2 = self.bump_radius ** 2
        d2 = np.sum((self.mesh.element_centroids - xi) ** 2, axis=1)
        out = np.zeros(self.mesh.n_elements)
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

    def load_block(self) -> tuple[np.ndarray, np.ndarray]:
        """load_columns over the omega nodes, cached per load_scale."""
        if self._load_cache[0] != self.load_scale:
            self._load_cache = (self.load_scale,
                                *self.load_columns(self.omega_nodes))
        return self._load_cache[1:]

    def stiffness_field(self, rho, xi) -> np.ndarray:
        interp = df.interpolate_stiffness(rho, self.filt, self.simp,
                                          mesh=self.mesh)
        return interp * (1.0 - self.weakness(xi))

    # -- evaluation ------------------------------------------------------

    def angle_averaged_block(self, system: FactorizedSystem,
                             FxB: np.ndarray, FyB: np.ndarray):
        """Per-omega angle-averaged compliances plus the solved states."""
        ix, iy, ixy, width = angle_integrals(*self.angle_range)
        U = system.solve(np.hstack([FxB, FyB]))
        Ux, Uy = U[:, :FxB.shape[1]], U[:, FxB.shape[1]:]
        cxx = np.einsum("db,db->b", FxB, Ux)
        cyy = np.einsum("db,db->b", FyB, Uy)
        cxy = np.einsum("db,db->b", FxB, Uy)
        cyx = np.einsum("db,db->b", FyB, Ux)
        cbar = (ix * cxx + iy * cyy + ixy * (cxy + cyx)) / width
        return cbar, Ux, Uy

    def _changed(self, xi):
        """(touched, kept): the elements whose stiffness xi changes, and
        the share kept = 1 - g_xi of it that xi leaves them; where g_xi is
        below half an ulp of 1, kept rounds to 1: no change."""
        kept = 1.0 - self.weakness(xi)
        touched = np.flatnonzero(kept < 1.0)
        return touched, kept[touched]

    def _weakened_blocks(self, system, s0, changed, FxB, FyB):
        """(Ux0, Uy0, blocks): the unweakened states of the unit loads and
        an iterator of (cbar, update), one per xi in turn.

        K(xi) differs from the unweakened K0 only on the few elements the
        weakness reaches, so one factorization of K0 and one block solve
        of the 2 * n_omega loads serve every xi through an exact low-rank
        update; cbar is the compliance of K(xi), and no state of K(xi) is
        formed. changed holds each xi's (touched, kept) (see _changed),
        and its change is the factors s0[touched] * kept at touched.

        system is K0, the stiffness of the element factors s0 assembled on
        the whole view self._whole or on a view condensed onto the loaded
        dofs and the dofs of every element whose stiffness a xi changes.
        FxB and FyB are the unit loads in the rows of system: load_block()
        for the whole view, its rows at view.keep for a condensed one,
        whose states then have one row per kept dof, which is all cbar
        reads.
        """
        cbar0, Ux0, Uy0 = self.angle_averaged_block(system, FxB, FyB)
        ix, iy, ixy, width = angle_integrals(*self.angle_range)

        def drop(update):
            return (ix * update.form_drop(Ux0, Ux0)
                    + iy * update.form_drop(Uy0, Uy0)
                    + ixy * (update.form_drop(Ux0, Uy0)
                             + update.form_drop(Uy0, Ux0))) / width
        updates = low_rank_updates(system, self.mesh, s0, (
            (touched, s0[touched] * kept) for touched, kept in changed))
        return Ux0, Uy0, ((cbar0 - drop(u), u) for u in updates)

    def evaluate_records(self, rho, params):
        """Records for a batch of xi, from one factorization of the design.

        A record is the omega-trapezoid of h(angle-averaged compliance -
        cap), with its design gradient. The gradient is
        -tr(k_e U B U^T) / width per element, where U = [Ux, Uy] are the
        states of K(xi) and B = Lambda diag(coef) mixes the x and y columns
        with the angle moments Lambda and weights them by coef = omega
        weight * h'. It comes from the unweakened states U0: one
        2 * n_omega-column contraction per call, plus a correction of the
        update's rank for each xi.
        """
        rho = np.asarray(rho, dtype=float)
        xis = np.atleast_2d(np.asarray(params, dtype=float))
        ix, iy, ixy, width = angle_integrals(*self.angle_range)
        s0 = df.interpolate_stiffness(rho, self.filt, self.simp,
                                      mesh=self.mesh)
        system = assemble_stiffness(self._whole, s0)
        changed = [self._changed(xi) for xi in xis]
        # the first call builds the load cache after the factorization:
        # built before it, the cache left glibc's heap so that every later
        # call faulted in fresh pages (default plate, 8 iterations: 5.0k
        # to 5.6k minor faults an iteration against 2.3k to 3.3k)
        Ux0, Uy0, blocks = self._weakened_blocks(
            system, s0, changed, *self.load_block())
        U0 = np.hstack([Ux0, Uy0])
        lam = np.kron([[ix, ixy], [ixy, iy]], np.eye(self.n_omega))
        # row b of q0 is u_b^T k_e (U0 Lambda)_b per element, so
        # coef @ q0 is tr(k_e U0 B U0^T)
        q0 = element_quadratic_forms(
            self.mesh, U0,
            np.hstack([ix * Ux0 + ixy * Uy0, iy * Uy0 + ixy * Ux0]))
        values, grads = [], []
        for (cbar, update), (touched, kept) in zip(blocks, changed):
            t = cbar - self.smoothing.c_max
            values.append(float(self.omega_weights
                                @ h_eval(t, self.smoothing)))
            coef = np.tile(self.omega_weights * h_deriv(t, self.smoothing), 2)
            q = coef @ q0
            if update.dofs.size:
                # coef is equal on the x and y column of each omega, so
                # B = Lambda diag(coef) is symmetric
                Z, Y = update.form_change(U0, lam * coef)
                q += element_quadratic_forms(self.mesh, Z, Y).sum(axis=0)
            grad_s = -q / width
            grad_s[touched] *= kept
            grads.append(grad_s)
        return np.array(values), df.backprop_to_design(
            np.stack(grads), rho, self.filt, self.simp, mesh=self.mesh)

    def default_baseline_spec(self, batch_size: int):
        return (5, 5)

    def _rule_plan(self, spec):
        """(weights, groups) of dense_raw on the xi trapezoid rule spec.

        A group is (view, FxK, FyK, changed) per view of condensed_groups:
        keep = T u S, the loaded dofs T and the dofs S of every element
        whose stiffness the weakness of one of the group's points changes;
        the unit loads at view.keep; and per point of the group its
        change, (touched, kept) from _changed. None of it
        depends on the design, so one plan, with the patterns its views
        build on their first assembly, is kept and rebuilt when spec or
        load_scale changes, as load_block is.
        """
        key = (np.atleast_1d(spec).tolist(), self.load_scale)
        if self._rule_cache[0] != key:
            pts, lam = self.space.trapezoid_rule(spec)
            FxB, FyB = self.load_block()
            loaded = np.flatnonzero(np.any(FxB != 0.0, axis=1)
                                    | np.any(FyB != 0.0, axis=1))
            changed = [self._changed(xi) for xi in pts]
            groups = [(view, FxB[view.keep], FyB[view.keep],
                       [changed[i] for i in group])
                      for group, view in condensed_groups(
                          self.mesh, loaded,
                          (self.mesh.edof[touched] for touched, _ in changed))]
            weights = (lam[:, None] * self.omega_weights[None, :]).ravel()
            self._rule_cache = (key, weights, groups)
        return self._rule_cache[1:]

    def dense_raw(self, rho, spec=None):
        """Angle-averaged compliances on a xi trapezoid grid x omega nodes.

        The grid points are served by one factorization of the design
        condensed onto keep = T u S: the loaded dofs T and the dofs S of
        every element whose stiffness the weakness of a grid point
        changes. The loads, states and low-rank updates have one row per
        kept dof. Past 2048 kept dofs, consecutive groups of points get
        one factorization each (see condensed_groups). The views and the
        weakness of the grid are built once per grid (see _rule_plan).
        """
        weights, groups = self._rule_plan(
            self.default_verify_spec if spec is None else spec)
        rho = np.asarray(rho, dtype=float)
        s0 = df.interpolate_stiffness(rho, self.filt, self.simp,
                                      mesh=self.mesh)
        values = []
        for view, FxK, FyK, changed in groups:
            _, _, blocks = self._weakened_blocks(
                assemble_stiffness(view, s0), s0, changed, FxK, FyK)
            values.extend(cbar for cbar, _ in blocks)
        return np.stack(values).ravel(), weights.copy()


def plate_problem(nx: int = 60, ny: int = 30, ell: float = 1.0,
                  n_omega: int = 32, r_min: float | None = None,
                  simp_s: float = 5.0, a1: float = 35.0, a2: float = 0.05,
                  a3: float = 5.0, p_level: float = 0.05,
                  c_max: float = 1.5, poisson: float = 0.3) -> PlateProblem:
    """Plate benchmark; load scaled so the initial compliance is 1.

    The initial compliance is the angle average at the centres of the xi
    box and of the omega interval, from load_columns and
    angle_averaged_block, as the loop and verification compute it.
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
    system = assemble_stiffness(problem._whole, problem.stiffness_field(
        problem.initial_design(), problem.space.centre()))
    c0, _, _ = problem.angle_averaged_block(
        system, *problem.load_columns(problem.omega_space.centre()))
    problem.load_scale = 1.0 / np.sqrt(float(c0[0]))
    return problem
