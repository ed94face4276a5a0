"""The two built-in problems: a rim-loaded wheel and a clamped plate.

Wheel: annulus of radius 1, clamped at the hub, prescribed material on the
outer rim, loaded by a sharply localized normal traction whose direction
omega is uniform on the circle. Uncertainty enters the right-hand side
only, so one factorization serves a whole batch of load cases. Every load
lives on the rim dofs R, so a compliance is F_R^T (K^-1)_RR F_R: dense
verification with more load cases than R has dofs solves for the |R|
columns of K^-1 at R once instead of one column per load case.

Plate: 2l x 1l rectangle clamped at the bottom, loaded on a strip of the
top edge at a random position omega with a random inclination alpha, and
weakened in a random disc at xi. The alpha-average of the compliance is
analytic (two unit solves per omega node), the omega integral is a fixed
trapezoid, and only xi is sampled. The weakness changes the stiffness of
only a few elements, so all xi of one call share one factorization of the
unweakened design, each served by an exact low-rank update of it.

Both builders rescale their load so the initial design's compliance at the
distribution-mean parameter equals 1, making the default cap c_max = 1.5
and the published smoothing constants directly meaningful.
"""
from __future__ import annotations

import copy

import numpy as np

from . import design_field as df
from .csg_weights import JointMetric, ParamCoord
from .mesh_fem import (
    FactorizedSystem,
    StructuredMesh,
    assemble_stiffness,
    build_disc_mesh,
    build_rect_mesh,
    element_quadratic_forms,
    low_rank_updates,
)
from .smoothing import SmoothingParams, h_deriv, h_eval

DEFAULT_ANGLE_RANGE = (np.pi / 4.0, 3.0 * np.pi / 4.0)


def angle_integrals(a: float, b: float) -> tuple[float, float, float, float]:
    """(int cos^2, int sin^2, int cos*sin, length) over [a, b]."""
    ix = 0.5 * (b - a) + 0.25 * (np.sin(2 * b) - np.sin(2 * a))
    iy = 0.5 * (b - a) - 0.25 * (np.sin(2 * b) - np.sin(2 * a))
    ixy = 0.5 * (np.sin(b) ** 2 - np.sin(a) ** 2)
    return ix, iy, ixy, b - a


def angle_reduced_compliance(system: FactorizedSystem, Fx: np.ndarray,
                             Fy: np.ndarray,
                             angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE,
                             ) -> float:
    """Average over load angles of F(alpha)^T K^-1 F(alpha), analytically.

    F(alpha) = cos(alpha) Fx + sin(alpha) Fy; the trigonometric moments
    over the angle interval are closed-form, so two solves suffice.
    """
    ix, iy, ixy, width = angle_integrals(*angle_range)
    ux = system.solve(np.asarray(Fx, dtype=float))
    uy = system.solve(np.asarray(Fy, dtype=float))
    return (ix * float(Fx @ ux) + iy * float(Fy @ uy)
            + ixy * (float(Fx @ uy) + float(Fy @ ux))) / width


# perfbench/tracer.py TARGETS looks this name up; delete both together
_backprop_batch = df.backprop_to_design


class _ProblemBase:
    """Shared design-field plumbing; subclasses provide the physics."""

    mesh: StructuredMesh
    filt: df.FilterMatrix
    simp: df.SimpParams
    smoothing: SmoothingParams
    name: str = ""
    initial_value: float = 0.75

    @property
    def n_design(self) -> int:
        return self.mesh.n_elements

    @property
    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.mesh.n_elements, dtype=bool)
        if self.mesh.fixed_density:
            mask[self.mesh.fixed_density_idx] = False
        return mask

    def initial_design(self) -> np.ndarray:
        rho = np.full(self.mesh.n_elements, self.initial_value)
        if self.mesh.fixed_density:
            rho[self.mesh.fixed_density_idx] = self.mesh.fixed_density_values
        return rho

    def with_simp(self, s: float):
        """Same problem with a different SIMP exponent (shared geometry)."""
        clone = copy.copy(self)
        clone.simp = self.simp.with_exponent(s)
        return clone

    def rvol(self, rho) -> float:
        return df.rvol(rho, self.filt, self.mesh.element_volumes)

    def pvol(self, rho) -> float:
        return df.pvol(rho, self.filt, self.simp, self.mesh.element_volumes)

    def rvol_gradient(self) -> np.ndarray:
        return df.rvol_gradient(self.filt, self.mesh.element_volumes)


class WheelProblem(_ProblemBase):
    name = "wheel"

    def __init__(self, mesh: StructuredMesh, filt: df.FilterMatrix,
                 simp: df.SimpParams, smoothing: SmoothingParams,
                 load_scale: float = 1.0, initial_value: float = 0.75):
        self.mesh = mesh
        self.filt = filt
        self.simp = simp
        self.smoothing = smoothing
        self.load_scale = load_scale
        self.initial_value = initial_value

        nr, na = mesh.shape
        self._outer_nodes = nr * na + np.arange(na)
        self._build_rim_quadrature(na)

        self.default_simp_schedule = ((1, simp.s), (200, 15.0))
        self.default_verify_spec = 1080
        self.default_pseudo_points = 1024

    def _build_rim_quadrature(self, na: int) -> None:
        """Consistent rim traction: integrate f * n against the linear
        shape functions over each rim edge (composite Gauss in the angle),
        precomputed as a sparse operator so F_R(omega) = scale * (A @ f)
        on the rim dofs R, the only dofs the load reaches.

        The traction is much narrower than an edge, so sub-edge panels are
        needed; node-sampled lumping would make the resultant oscillate at
        element frequency and alias against coarse load quadratures."""
        import scipy.sparse as sp
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
        """(|R|, n) loads on the rim dofs R, one column per omega."""
        f = self.intensity(self._rim_beta[:, None],
                           np.asarray(omegas)[None, :]) * self.load_scale
        return self._rim_op @ f

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

    def evaluate_records(self, rho, params, want_grads: bool = True):
        """Records for a batch of omegas: h(c - cap) and h'(c - cap) grad c."""
        c, dc = self.compliances(rho, params, want_grads=want_grads)
        t = c - self.smoothing.c_max
        values = h_eval(t, self.smoothing)
        if not want_grads:
            return values, None
        return values, h_deriv(t, self.smoothing)[:, None] * dc

    # -- parameter space -----------------------------------------------

    def sample_param(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(0.0, 2.0 * np.pi)])

    def metric(self) -> JointMetric:
        return JointMetric(
            coords=(ParamCoord("circular", period=2.0 * np.pi,
                               scale=2.0 * np.pi),),
            design_scale=1.0, param_scale=1.0)

    def pseudo_quadrature(self, n_points: int):
        if n_points < 1:
            raise ValueError(f"an equispaced circle rule needs at least 1 "
                             f"point, got {n_points}")
        pts = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        return pts[:, None], np.full(n_points, 1.0 / n_points)

    def baseline_nodes(self, spec):
        n = int(spec)
        return self.pseudo_quadrature(n)

    def default_baseline_spec(self, batch_size: int):
        return batch_size

    def dense_raw(self, rho, spec=None):
        """Raw compliances on an equispaced circle rule (periodic trapezoid).

        Costs one factorization plus min(n, |R|) solved columns. Up to |R|
        points, the loads themselves are solved, as in `compliances`.
        Beyond, the |R| unit columns at the rim dofs R are solved once,
        G = (K^-1)_RR, and c = F_R^T G F_R for every point; the switch
        point also keeps that (n_dofs, |R|) block below the direct (n_dofs,
        n) one.
        """
        n = int(spec) if spec is not None else self.default_verify_spec
        pts, w = self.pseudo_quadrature(n)
        rim = self._rim_dofs
        if n <= rim.size:
            values, _ = self.compliances(rho, pts)
            return values, w
        system = assemble_stiffness(self.mesh, self.stiffness_field(rho))
        G = system.unit_columns(rim)[rim]
        FR = self.rim_loads(pts[:, 0])
        return np.sum(FR * (G @ FR), axis=0), w


def wheel_problem(n_radial: int = 18, n_angular: int = 72,
                  r_inner: float = 0.1, r_rim: float = 0.95,
                  r_min: float | None = None, simp_s: float = 10.0,
                  a1: float = 50.0, a2: float = 0.1, a3: float = 5.0,
                  p_level: float = 0.025, c_max: float | None = None,
                  poisson: float = 0.3,
                  initial_value: float = 0.75) -> WheelProblem:
    """Wheel benchmark; traction scaled so the initial compliance is 1."""
    mesh = build_disc_mesh(n_radial, n_angular, r_inner, r_rim,
                           poisson=poisson)
    if r_min is None:
        r_min = 1.5 * (1.0 - r_inner) / n_radial
    filt = df.build_filter(mesh, r_min)
    simp = df.SimpParams(s=simp_s)
    smoothing = SmoothingParams(a1=a1, a2=a2, a3=a3, c_max=1.0,
                                p_level=p_level)
    problem = WheelProblem(mesh, filt, simp, smoothing,
                           initial_value=initial_value)
    # pin the compliance scale at the mean direction of the uniform omega
    values, _ = problem.compliances(problem.initial_design(), [np.pi])
    problem.load_scale = 1.0 / np.sqrt(float(values[0]))
    problem.smoothing = SmoothingParams(
        a1=a1, a2=a2, a3=a3, c_max=1.5 if c_max is None else c_max,
        p_level=p_level)
    return problem


class PlateProblem(_ProblemBase):
    name = "plate"

    def __init__(self, mesh: StructuredMesh, filt: df.FilterMatrix,
                 simp: df.SimpParams, smoothing: SmoothingParams,
                 ell: float = 1.0, n_omega: int = 32,
                 load_scale: float = 1.0, weakening: bool = True,
                 initial_value: float = 0.65):
        self.mesh = mesh
        self.filt = filt
        self.simp = simp
        self.smoothing = smoothing
        self.ell = ell
        self.n_omega = n_omega
        self.load_scale = load_scale
        self.weakening = weakening
        self.initial_value = initial_value

        self.omega_range = (ell / 5.0, 4.0 * ell / 5.0)
        self.xi_range = ((ell / 4.0, 7.0 * ell / 4.0),
                         (ell / 8.0, 7.0 * ell / 8.0))
        self.angle_range = DEFAULT_ANGLE_RANGE
        self.bump_radius = ell / 18.0

        # omega trapezoid: fixed inner rule of the constraint integral
        self.omega_nodes = np.linspace(*self.omega_range, n_omega)
        w = np.ones(n_omega)
        w[0] = w[-1] = 0.5
        self.omega_weights = w / w.sum()

        nx, ny = mesh.shape
        self._top_nodes = ny * (nx + 1) + np.arange(nx + 1)
        self._top_x = mesh.nodes[self._top_nodes, 0]
        self._gauss = np.polynomial.legendre.leggauss(8)
        self._bump_panels = 32

        self.default_simp_schedule = ((1, simp.s),)
        self.default_verify_spec = (50, 50)
        self.default_pseudo_points = 32

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
        if not self.weakening:
            return np.zeros(self.mesh.n_elements)
        xi = np.asarray(xi, dtype=float)
        r2 = self.bump_radius ** 2
        d2 = np.sum((self.mesh.element_centroids - xi) ** 2, axis=1)
        out = np.zeros(self.mesh.n_elements)
        inside = d2 < r2
        out[inside] = 0.99 * np.exp(-d2[inside] / (r2 * (r2 - d2[inside])))
        return out

    def _consistent_profile(self, omega: float) -> np.ndarray:
        """Nodal loads from integrating the bump against the top-edge
        shape functions: composite Gauss on fixed panels over the bump
        support, split at edge boundaries. Even a bump narrower than one
        edge produces its full resultant, independent of node alignment."""
        x = self._top_x
        nodal = np.zeros(x.size)
        gp, gw = self._gauss
        lo = max(omega - self.bump_radius, x[0])
        hi = min(omega + self.bump_radius, x[-1])
        if hi <= lo:
            return nodal
        # cosine-graded panels: the bump is infinitely flat but strongly
        # non-polynomial at its support ends, so crowd the cuts there
        u = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                            self._bump_panels + 1)))
        cuts = lo + (hi - lo) * u
        interior = x[(x > lo) & (x < hi)]
        cuts = np.unique(np.concatenate([cuts, interior]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            e = min(int(np.searchsorted(x, 0.5 * (a + b)) - 1), x.size - 2)
            t = 0.5 * (b - a) * gp + 0.5 * (a + b)
            w = 0.5 * (b - a) * gw * self.bump(t, omega)
            phi = (t - x[e]) / (x[e + 1] - x[e])
            nodal[e] += np.sum(w * (1.0 - phi))
            nodal[e + 1] += np.sum(w * phi)
        return nodal

    def load_pair(self, omega: float) -> tuple[np.ndarray, np.ndarray]:
        """Unit loads (Fx, Fy) so that F(alpha) = cos(a) Fx + sin(a) Fy.

        alpha is measured from the positive x axis; alpha = pi/2 points
        straight down, so the downward sign lives in Fy.
        """
        prof = self._consistent_profile(omega) * self.load_scale
        Fx = np.zeros(self.mesh.n_dofs)
        Fy = np.zeros(self.mesh.n_dofs)
        Fx[2 * self._top_nodes] = prof
        Fy[2 * self._top_nodes + 1] = -prof
        return Fx, Fy

    def load_block(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_dofs, n_omega) blocks of Fx and Fy over the omega nodes."""
        cache = getattr(self, "_load_cache", None)
        if cache is None or cache[0] != self.load_scale:
            fx, fy = [], []
            for om in self.omega_nodes:
                Fx, Fy = self.load_pair(float(om))
                fx.append(Fx)
                fy.append(Fy)
            cache = (self.load_scale, np.column_stack(fx), np.column_stack(fy))
            self._load_cache = cache
        return cache[1], cache[2]

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

    def _weakened_blocks(self, rho, xis, want_states: bool):
        """Yield (cbar, Ux, Uy) of the design weakened at each xi in turn.

        K(xi) differs from the unweakened K0 only on the few elements the
        weakness reaches, so one factorization of K0 and one block solve
        of the 2 * n_omega loads serve every xi through an exact low-rank
        update. The states are None unless wanted.
        """
        s0 = df.interpolate_stiffness(rho, self.filt, self.simp,
                                      mesh=self.mesh)
        system = assemble_stiffness(self.mesh, s0)
        cbar0, Ux0, Uy0 = self.angle_averaged_block(system,
                                                    *self.load_block())
        ix, iy, ixy, width = angle_integrals(*self.angle_range)
        fields = (s0 * (1.0 - self.weakness(xi)) for xi in xis)
        for update in low_rank_updates(system, self.mesh, s0, fields):
            drop = (ix * update.form_drop(Ux0, Ux0)
                    + iy * update.form_drop(Uy0, Uy0)
                    + ixy * (update.form_drop(Ux0, Uy0)
                             + update.form_drop(Uy0, Ux0))) / width
            if want_states:
                yield cbar0 - drop, update.solve(Ux0), update.solve(Uy0)
            else:
                yield cbar0 - drop, None, None

    def evaluate_records(self, rho, params, want_grads: bool = True):
        """Records for a batch of xi, from one factorization of the design.

        A record is the omega-trapezoid of h(angle-averaged compliance -
        cap), with its design gradient when wanted.
        """
        rho = np.asarray(rho, dtype=float)
        xis = np.atleast_2d(np.asarray(params, dtype=float))
        ix, iy, ixy, width = angle_integrals(*self.angle_range)
        values, grads = [], []
        blocks = self._weakened_blocks(rho, xis, want_states=want_grads)
        for xi, (cbar, Ux, Uy) in zip(xis, blocks):
            t = cbar - self.smoothing.c_max
            values.append(float(self.omega_weights
                                @ h_eval(t, self.smoothing)))
            if not want_grads:
                continue
            # sum_b coef_b (ix qxx + iy qyy + 2 ixy qxy)_b as one contraction
            # of 2 * n_omega columns; k_e is symmetric, so qyx = qxy
            coef = np.tile(self.omega_weights * h_deriv(t, self.smoothing), 2)
            q = element_quadratic_forms(
                self.mesh, np.hstack([Ux, Uy]),
                np.hstack([ix * Ux + ixy * Uy, iy * Uy + ixy * Ux]) * coef)
            grad_s = -q.sum(axis=0) / width * (1.0 - self.weakness(xi))
            grads.append(df.backprop_to_design(grad_s, rho, self.filt,
                                               self.simp, mesh=self.mesh))
        return np.array(values), (np.stack(grads) if want_grads else None)

    def angle_averaged_compliance(self, rho, xi, omega: float) -> float:
        """Single (xi, omega) angle-averaged compliance, by direct assembly."""
        system = assemble_stiffness(self.mesh, self.stiffness_field(rho, xi))
        Fx, Fy = self.load_pair(omega)
        return angle_reduced_compliance(system, Fx, Fy, self.angle_range)

    # -- parameter space -------------------------------------------------

    def sample_param(self, rng: np.random.Generator) -> np.ndarray:
        # coordinate order: xi_1 then xi_2
        return np.array([rng.uniform(*self.xi_range[0]),
                         rng.uniform(*self.xi_range[1])])

    def metric(self) -> JointMetric:
        widths = [hi - lo for lo, hi in self.xi_range]
        return JointMetric(
            coords=(ParamCoord("flat", scale=widths[0]),
                    ParamCoord("flat", scale=widths[1])),
            design_scale=1.0, param_scale=1.0)

    def pseudo_quadrature(self, n_per_axis: int):
        """Midpoint tensor grid on Xi with equal weights."""
        n = int(n_per_axis)
        (x0, x1), (y0, y1) = self.xi_range
        gx = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
        gy = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return pts, np.full(n * n, 1.0 / (n * n))

    def _trapezoid_grid(self, n1: int, n2: int):
        if min(n1, n2) < 1:
            raise ValueError(f"a xi trapezoid grid needs at least 1 point "
                             f"per axis, got {n1} x {n2}")
        (x0, x1), (y0, y1) = self.xi_range
        gx = np.linspace(x0, x1, n1)
        gy = np.linspace(y0, y1, n2)
        wx = np.ones(n1)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(n2)
        wy[0] = wy[-1] = 0.5
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        W = np.outer(wx, wy)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return pts, (W / W.sum()).ravel()

    def baseline_nodes(self, spec):
        n1, n2 = spec
        return self._trapezoid_grid(int(n1), int(n2))

    def default_baseline_spec(self, batch_size: int):
        return (5, 5)

    def dense_raw(self, rho, spec=None):
        """Angle-averaged compliances on a xi trapezoid grid x omega nodes.

        Every grid point is served by one factorization of the design.
        """
        n1, n2 = spec if spec is not None else self.default_verify_spec
        pts, lam = self._trapezoid_grid(int(n1), int(n2))
        rho = np.asarray(rho, dtype=float)
        values = np.stack([cbar for cbar, _, _ in
                           self._weakened_blocks(rho, pts, want_states=False)])
        weights = (lam[:, None] * self.omega_weights[None, :]).ravel()
        return values.ravel(), weights

    def h1_values(self, rho, xi_points) -> np.ndarray:
        """Omega-averaged steepened h per xi (the damage sensitivity map)."""
        values, _ = self.evaluate_records(rho, xi_points, want_grads=False)
        return values


def plate_problem(nx: int = 60, ny: int = 30, ell: float = 1.0,
                  n_omega: int = 32, r_min: float | None = None,
                  simp_s: float = 5.0, a1: float = 35.0, a2: float = 0.05,
                  a3: float = 5.0, p_level: float = 0.05,
                  c_max: float | None = None, poisson: float = 0.3,
                  weakening: bool = True,
                  initial_value: float = 0.65) -> PlateProblem:
    """Plate benchmark; load scaled so the initial compliance is 1."""
    mesh = build_rect_mesh(nx, ny, 2.0 * ell, ell, poisson=poisson)
    if r_min is None:
        r_min = 1.5 * (2.0 * ell / nx)
    filt = df.build_filter(mesh, r_min)
    simp = df.SimpParams(s=simp_s)
    smoothing = SmoothingParams(a1=a1, a2=a2, a3=a3, c_max=1.0,
                                p_level=p_level)
    problem = PlateProblem(mesh, filt, simp, smoothing, ell=ell,
                           n_omega=n_omega, weakening=weakening,
                           initial_value=initial_value)
    xi_mean = np.array([np.mean(problem.xi_range[0]),
                        np.mean(problem.xi_range[1])])
    omega_mean = float(np.mean(problem.omega_range))
    c0 = problem.angle_averaged_compliance(problem.initial_design(), xi_mean,
                                           omega_mean)
    problem.load_scale = 1.0 / np.sqrt(c0)
    problem.smoothing = SmoothingParams(
        a1=a1, a2=a2, a3=a3, c_max=1.5 if c_max is None else c_max,
        p_level=p_level)
    return problem
