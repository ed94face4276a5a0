"""Golden trajectories: short fixed-seed runs against recorded files.

Each run's timing-free log.csv and final design are compared with the
files under tests/golden/. Plate runs must match byte for byte. Wheel runs
are compared at rtol 1e-12: their trajectory is chaotic, so a reassociated
floating-point sum moves its last bits, and the difference grows with the
iteration count. The limited-memory run, which evicts from iteration 5 on,
grows it fastest (4e-16 at iteration 4, 6e-14 at 8, 1.6e-12 at 10) and is
compared at rtol 1e-11. Keep the wheel runs at 10 iterations.

Re-record (only for a change that is meant to move the trajectories):

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from smma import driver
from smma.benchmarks import plate_problem, wheel_problem

GOLDEN_DIR = Path(__file__).with_name("golden")
WHEEL_RTOL = {"wheel_smma": 1e-12, "wheel_smma-limited": 1e-11,
              "wheel_mma-quadrature": 1e-12}

_WHEEL = dict(batch_size=8, iterations=10, seed=0, verify_every=5,
              verify_spec=72)
_PLATE = dict(batch_size=8, seed=0, verify_every=1, verify_spec=(3, 3))

RUNS = {
    "wheel_smma": ("wheel", dict(_WHEEL, method="smma")),
    "wheel_smma-limited": ("wheel", dict(_WHEEL, method="smma-limited",
                                         memory_cap=32)),
    "wheel_mma-quadrature": ("wheel", dict(_WHEEL, method="mma-quadrature")),
    "plate_smma": ("plate", dict(_PLATE, method="smma", iterations=3)),
    "plate_mma-quadrature": ("plate", dict(_PLATE, method="mma-quadrature",
                                           iterations=2)),
}


@functools.lru_cache(maxsize=None)
def _problem(kind: str):
    return wheel_problem() if kind == "wheel" else plate_problem()


def _design_text(rho: np.ndarray) -> str:
    return "".join(repr(float(v)) + "\n" for v in rho)


def _run(name: str, out_dir: Path) -> None:
    """Run one golden case; write <name>.csv and <name>.design.txt."""
    kind, cfg = RUNS[name]
    rho, log = driver.run_smma(_problem(kind), driver.RunConfig(**cfg))
    log.to_csv(out_dir / f"{name}.csv", include_timing=False)
    (out_dir / f"{name}.design.txt").write_text(_design_text(rho))


def _fields(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _assert_close_text(got: str, want: str, rtol: float) -> None:
    """Same layout, equal non-float fields, floats within rtol."""
    got_rows, want_rows = _fields(got), _fields(want)
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    for g_row, w_row in zip(got_rows, want_rows):
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            assert g and w, f"{g!r} != {w!r}"
            np.testing.assert_allclose(float(g), float(w), rtol=rtol,
                                       atol=0.0)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trajectory(name, tmp_path):
    _run(name, tmp_path)
    for suffix in (".csv", ".design.txt"):
        got = (tmp_path / f"{name}{suffix}").read_text()
        want = (GOLDEN_DIR / f"{name}{suffix}").read_text()
        if RUNS[name][0] == "plate":
            assert got == want
        else:
            _assert_close_text(got, want, WHEEL_RTOL[name])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sys.argv[1:] or sorted(RUNS):
        _run(case, GOLDEN_DIR)
        print(f"recorded {case}")
