"""Machine-speed probe that scales the end-to-end times.

The 2-core machine (Intel Xeon, 2.1 GHz) that sized this benchmark shares
its cores and caches with other tenants. Its speed drifts over minutes
and swings in states of 5-30 s. In ten raw `wheel-limited` runs the
machine sped up after the third, and `iter_ms_p50`'s quartile spread
reached 28% of its median.

A fixed probe, run about every INTERVAL_S between the operations of a
run, slows down and speeds up with the program. Each end-to-end time is
reported at reference speed: wall time × REFERENCE_S / (median time of
the probes that started within WINDOW_S of the measured interval). The
probe's own time is left out of every timed operation.

The probe uses scipy and numpy directly and no code of `smma`, so a change
to the program cannot move it. It mixes what the workloads spend their
time on: a sparse LU factorization and a 32-column block solve, a
broadcast distance and argmin over a (1024, 400) block, and a loop of
small vector operations.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

INTERVAL_S = 0.5
WINDOW_S = 3.0
REFERENCE_S = 0.035   # about the median probe time on the sizing machine


class Probe:
    def __init__(self):
        n = 50   # five-point Laplacian on an n x n grid
        self.matrix = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0],
                               [-n, -1, 0, 1, n], shape=(n * n, n * n)).tocsc()
        rng = np.random.default_rng(0)
        self.rhs = rng.standard_normal((n * n, 32))
        self.points = rng.uniform(0.0, 2 * np.pi, (1024, 1))
        self.params = rng.uniform(0.0, 2 * np.pi, (1, 400))
        self.vector = rng.uniform(0.1, 0.9, 1300)
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.last = 0.0

    def due(self) -> bool:
        """True when the last probe started at least INTERVAL_S ago."""
        return time.perf_counter() - self.last >= INTERVAL_S

    def sample(self) -> float:
        """Run the probe once; returns its wall time."""
        start = self.last = time.perf_counter()
        splu(self.matrix).solve(self.rhs)
        d = np.abs(self.points - self.params)
        d = np.minimum(d % (2 * np.pi), (-d) % (2 * np.pi))
        np.argmin(d * d + self.vector[:400], axis=1)
        z = self.vector
        for _ in range(50):
            z = np.clip(np.sqrt(z * z + 0.01) - 0.05, 0.1, 0.9)
        took = time.perf_counter() - start
        self.samples.append((start, took))
        return took

    def scale(self) -> float:
        """Factor that takes the run's wall times to reference speed."""
        return REFERENCE_S / statistics.median(t for _, t in self.samples)

    def speed(self, timed) -> float:
        """Factor that takes a wall time measured over timed.start..end
        to reference speed, from the probes started near that interval."""
        near = [t for start, t in self.samples
                if timed.start - WINDOW_S <= start <= timed.end + WINDOW_S]
        return REFERENCE_S / statistics.median(near) if near else self.scale()
