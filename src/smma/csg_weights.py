"""Sample store and nearest-neighbor integration weights.

Each optimization step deposits one batch of (design snapshot, parameter
draw, inner value, inner gradient) records, all drawn at the step's design;
SampleStore.append copies the batch in at call time and keeps the design
once per batch. The constraint integral is then estimated by the
piecewise-constant nearest-neighbor surrogate: every point of a parameter
discretization is assigned to the closest stored record in a joint
design/parameter metric, and the record's weight is the total quadrature
mass routed to it. Weights double as importance scores for the
limited-memory eviction policy.

The squared joint distance from (u, x) to record k is q_k(x) + o_k with
q_k(x) = ParamSpace.dist2(x, x_k) >= 0 and the design offset
o_k = ||u_k - u||^2 / dim(u), which is the same for every point x. The
owner search visits the records in ascending order of o_k, in chunks of
8, 16, 32, ... records, and retires a point as soon as its best squared
distance so far is below the smallest offset of the next chunk. That
bound is exact in floating point: fl(q + o) >= o for q >= 0, so no later
record can reach the point's minimum. Distances are evaluated
only for the points still active, with the same expressions as the dense
(T, K) table, so the owners equal its argmin bit for bit. Ties go to the
smallest record index: inside a chunk the indices are sorted and the
first minimum is taken, and a later chunk replaces an owner only with a
strictly smaller distance or an equal one at a smaller index.

A problem's parameter distribution is a ParamSpace: uniform on a box of
flat or periodic intervals. The batch draws, the parameter distance, the
weights' pseudo-rule and the trapezoid rule of the baseline and of
verification all follow from the box.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ParamSpace:
    """Box of parameter coordinates carrying the uniform distribution.

    bounds holds one interval (lo, hi) per coordinate, in the order of
    every draw and rule point; periodic marks the coordinates that wrap
    around, on the circle [lo, hi). A flat interval may be a single point.
    """

    bounds: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if not self.bounds or len(self.periodic) != len(self.bounds):
            raise ValueError("need one periodic flag per coordinate")
        for (lo, hi), wrap in zip(self.bounds, self.periodic):
            # written so that NaN fails it
            if not -np.inf < lo <= hi < np.inf or (wrap and lo == hi):
                raise ValueError(f"bad coordinate interval ({lo}, {hi})")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, m) uniform draws, taken draw by draw (C order)."""
        lo, hi = np.array(self.bounds, dtype=float).T
        return rng.uniform(lo, hi, size=(size, len(self.bounds)))

    def dist2(self, x1, x2) -> np.ndarray:
        """Squared parameter distance; broadcasts over leading axes.

        Each coordinate counts in units of its width, the short way round
        on a periodic one; a zero-width interval adds nothing.
        """
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        if x1.shape[-1] != len(self.bounds) or x2.shape[-1] != len(self.bounds):
            raise ValueError("parameter dimension does not match the space")
        diff = np.abs(x1 - x2)
        total = np.zeros(diff.shape[:-1])
        for c, ((lo, hi), wrap) in enumerate(zip(self.bounds, self.periodic)):
            w = hi - lo
            if w == 0.0:
                continue
            d = diff[..., c]
            if wrap:
                # d >= 0: the way round the other side is w - r
                r = d % w
                d = np.minimum(r, w - r)
            total = total + (d / w) ** 2
        return total

    def centre(self) -> np.ndarray:
        """The midpoint of every interval."""
        return np.mean(self.bounds, axis=1)

    def pseudo_rule(self, n: int):
        """n points per coordinate with equal weights: cell midpoints on a
        flat coordinate, equispaced points on a periodic one."""
        return self._rule((n,) * len(self.bounds), midpoints=True)

    def trapezoid_rule(self, counts):
        """Tensor trapezoid rule, counts[c] points on coordinate c (an int
        when m = 1); periodic, so equal to the pseudo-rule, on a circle."""
        return self._rule(counts, midpoints=False)

    def rule_counts(self, counts) -> tuple[int, ...]:
        """counts, one per coordinate (an int when m = 1), each a whole
        number >= 1, as a tuple of ints: 1080, 1080.0 and [1080] give the
        same tuple, which the rule caches key on."""
        given = np.atleast_1d(counts)
        if not all(float(n).is_integer() for n in given):
            raise ValueError(f"a rule needs a whole number of points on "
                             f"each coordinate, got {given.tolist()}")
        counts = tuple(int(n) for n in given)
        if len(counts) != len(self.bounds) or min(counts) < 1:
            raise ValueError(f"a rule needs at least 1 point on each of "
                             f"{len(self.bounds)} coordinates, got {counts}")
        return counts

    def _rule(self, counts, midpoints: bool):
        """(points (T, m), weights (T,) summing to 1), last axis fastest."""
        counts = self.rule_counts(counts)
        axes, weights = [], []
        for (lo, hi), n, wrap in zip(self.bounds, counts, self.periodic):
            w = np.ones(n)
            if wrap:
                x = np.linspace(lo, hi, n, endpoint=False)
            elif midpoints:
                x = lo + (np.arange(n) + 0.5) * (hi - lo) / n
            else:
                x = np.linspace(lo, hi, n)
                w[0] = w[-1] = 0.5
            axes.append(x)
            weights.append(w)
        W = functools.reduce(np.multiply.outer, weights)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return pts.reshape(-1, len(axes)), (W / W.sum()).ravel()


def _reserved(a: np.ndarray, used: int, need: int) -> np.ndarray:
    """a itself when it has need rows, else a larger copy of its used rows."""
    if need <= len(a):
        return a
    grown = np.empty((max(need, 2 * len(a), 16),) + a.shape[1:], dtype=a.dtype)
    grown[:used] = a[:used]
    return grown


class SampleStore:
    """Ordered collection of samples held in growable arrays.

    Row k of params, values, gradients and iteration_born is record k.
    append takes one batch of records drawn at one design and copies it
    into the arrays at call time, so the caller may change its arrays
    afterwards; the design is stored once per call, and record k's design
    is row design_index[k] of the stored designs. Reads return read-only
    views, which keep() overwrites in place.
    """

    def __init__(self, space: ParamSpace):
        self.space = space
        self._size = 0           # records in _rows
        self._n_designs = 0      # designs in _designs
        self._allocate(0)

    def __len__(self) -> int:
        return self._size

    def append(self, design, params, values, gradients,
               iteration: int) -> None:
        """Add a batch of B >= 1 records drawn at one design.

        design (n,), params (B, m), values (B,), gradients (B, n), with m
        the space's coordinate count and n the stored records' design
        length (any n >= 1 when the store is empty); every record is born
        at iteration. A batch that does not fit raises ValueError and
        leaves the store unchanged.
        """
        design = np.asarray(design, dtype=float)
        params = np.asarray(params, dtype=float)
        values = np.asarray(values, dtype=float)
        gradients = np.asarray(gradients, dtype=float)
        if design.ndim != 1 or design.size == 0:
            raise ValueError("design must be a nonempty vector")
        width = design.shape[0]
        if self._size and width != self._designs.shape[1]:
            raise ValueError(
                f"design length {width} does not match the stored "
                f"records' {self._designs.shape[1]}")
        B = len(values) if values.ndim == 1 else 0
        if B == 0:
            raise ValueError(f"values of shape {values.shape}: a batch needs "
                             "a nonempty vector")
        for name, a, shape in (
                ("params", params, (B, len(self.space.bounds))),
                ("gradients", gradients, (B, width))):
            if a.shape != shape:
                raise ValueError(f"{name} of shape {a.shape}, expected {shape}")
        if self._designs.shape[1] != width:   # first batch, or after clear
            self._allocate(width)
        n, d = self._size, self._n_designs
        rows = self._rows = {name: _reserved(a, n, n + B)
                             for name, a in self._rows.items()}
        rows["params"][n:n + B] = params
        rows["values"][n:n + B] = values
        rows["gradients"][n:n + B] = gradients
        rows["born"][n:n + B] = iteration
        rows["design_index"][n:n + B] = d
        self._designs = _reserved(self._designs, d, d + 1)
        self._designs[d] = design
        self._size, self._n_designs = n + B, d + 1

    def clear(self) -> None:
        self._size = self._n_designs = 0

    def _allocate(self, width: int) -> None:
        self._rows = {"params": np.empty((0, len(self.space.bounds))),
                      "values": np.empty(0),
                      "gradients": np.empty((0, width)),
                      "born": np.empty(0, dtype=int),
                      "design_index": np.empty(0, dtype=int)}
        self._designs = np.empty((0, width))

    def _view(self, name: str) -> np.ndarray:
        if self._size == 0:
            raise ValueError("sample store is empty")
        view = self._rows[name][:self._size]
        view.flags.writeable = False
        return view

    @property
    def params(self) -> np.ndarray:
        return self._view("params")

    @property
    def values(self) -> np.ndarray:
        return self._view("values")

    @property
    def gradients(self) -> np.ndarray:
        return self._view("gradients")

    @property
    def iteration_born(self) -> np.ndarray:
        return self._view("born")

    def design_offsets(self, u) -> np.ndarray:
        """||design_k - u||^2 / n for every record k, n the design length.

        Each distinct design is evaluated once, with the same expression
        for every row, so every record's value equals a per-record
        evaluation.
        """
        index = self._view("design_index")
        designs = self._designs[:self._n_designs]
        n = designs.shape[1]
        u = np.asarray(u, dtype=float)
        if u.shape != (n,):
            raise ValueError(f"design of shape {u.shape}, the stored "
                             f"records' have length {n}")
        return (np.sum((designs - u) ** 2, axis=-1) / n)[index]

    def keep(self, indices: np.ndarray) -> None:
        """Retain the given record indices, preserving order, in place."""
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1:
            raise ValueError("record indices must be a vector")
        indices = np.sort(indices)
        if indices.size and (indices[0] < 0 or indices[-1] >= self._size):
            raise IndexError("record index out of range")
        if np.any(indices[1:] == indices[:-1]):
            raise ValueError("record indices must be distinct")
        rows = self._rows
        for a in rows.values():
            a[:indices.size] = a[indices]
        self._size = indices.size
        # drop the designs no kept record uses; np.unique keeps their order
        used, index = np.unique(rows["design_index"][:self._size],
                                return_inverse=True)
        rows["design_index"][:self._size] = index
        self._designs[:used.size] = self._designs[used]
        self._n_designs = used.size


_FIRST_CHUNK = 8   # records in the first chunk of the owner search


def _owners(store: SampleStore, u, points: np.ndarray) -> np.ndarray:
    """Index of the nearest record to (u, x) for each row x of points.

    Exact offset-pruned search (see the module docstring): the owners,
    ties included, equal the argmin over the dense (T, K) table
    store.space.dist2(points[:, None], params[None]) + design offsets.
    """
    if len(store) == 0:
        raise ValueError("sample store is empty")
    u = np.asarray(u, dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(points).all()):
        raise ValueError("design and parameter points must be finite")
    space = store.space
    params = store.params
    offsets = store.design_offsets(u)
    K = len(offsets)

    order = np.argsort(offsets, kind="stable")
    best = np.full(len(points), np.inf)
    owner = np.full(len(points), K)   # none yet; an inf distance still wins
    active = np.arange(len(points))
    start, size = 0, _FIRST_CHUNK
    while start < K and active.size:
        chunk = np.sort(order[start:start + size])
        d2 = (space.dist2(points[active, None, :], params[None, chunk, :])
              + offsets[chunk])
        first = np.argmin(d2, axis=1)
        value = d2[np.arange(active.size), first]
        cand = chunk[first]
        held, held_owner = best[active], owner[active]
        wins = (value < held) | ((value == held) & (cand < held_owner))
        best[active] = np.where(wins, value, held)
        owner[active] = np.where(wins, cand, held_owner)
        start += size
        size *= 2
        if start < K:
            active = active[best[active] >= offsets[order[start]]]
    return owner


def pseudoexact_weights(store: SampleStore, u_current, quad_points,
                        quad_weights) -> np.ndarray:
    """Route each quadrature point's mass to its nearest record.

    quad_points: (T, m) parameter discretization distributed according to
    the parameter measure; quad_weights: (T,) nonnegative, summing to 1.
    Raises ValueError on an empty store and on non-finite u_current or
    quadrature points.
    """
    pts = np.atleast_2d(np.asarray(quad_points, dtype=float))
    w = np.asarray(quad_weights, dtype=float)
    if w.shape != (pts.shape[0],):
        raise ValueError("quadrature weights must match point count")
    # written so that NaN fails it
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("quadrature weights must be nonnegative and sum to 1")
    owner = _owners(store, u_current, pts)
    return np.bincount(owner, weights=w, minlength=len(store))


def empirical_weights(store: SampleStore, u_current) -> np.ndarray:
    """Pseudoexact weights with the records' own parameters as points."""
    params = store.params
    T = params.shape[0]
    return pseudoexact_weights(store, u_current, params, np.full(T, 1.0 / T))


def aggregate(store: SampleStore,
              weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Estimator sum_k alpha_k (value_k, gradient_k) over the stored records.

    The records hold the integrand already composed with the smoothed
    indicator, so this is the whole estimate of the constraint and its
    design gradient.
    """
    alpha = _checked_weights(store, weights)
    return float(alpha @ store.values), alpha @ store.gradients


# perfbench/tracer.py TARGETS looks this name up; delete both together
aggregate_precomposed = aggregate


def _checked_weights(store: SampleStore, weights) -> np.ndarray:
    alpha = np.asarray(weights, dtype=float)
    if alpha.shape != (len(store),):
        raise ValueError("one weight per stored record required")
    # written so that NaN fails it
    if not (np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-9):
        raise ValueError("weights must be nonnegative and sum to 1")
    return alpha


def evict_min_weight(store: SampleStore, weights: np.ndarray,
                     n_evict: int) -> SampleStore:
    """Drop the n_evict smallest-weight records (ties: smallest index)."""
    if n_evict >= len(store):
        raise ValueError("cannot evict the entire store")
    order = np.argsort(_checked_weights(store, weights), kind="stable")
    store.keep(order[n_evict:])
    return store
