"""Command-line entry point: run, verify, render.

Configs are plain key = value text (lists are whitespace-separated; '#'
starts a comment). `run` sweeps the cartesian product of list-valued
batch / tau / seed, writing one directory per run with the iteration CSV,
the final design file, and a manifest that reproduces the run exactly.

Exit codes: 0 ok, 1 runtime failure, 2 bad config/arguments.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import plate_problem, wheel_problem
from .driver import METHODS, RunConfig, run_smma
from .verify import dense_cc

DESIGN_MAGIC = "smma-design 1"
# geometry keys of each mesh kind in a design header
DESIGN_GEOMETRY = {"rect": ("height", "width"), "disc": ("r_inner", "r_rim")}


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# config file


@dataclass
class _Entry:
    raw: str
    line: int


_COMMON_KEYS = {
    "problem", "method", "iterations", "batch", "tau", "tau_period",
    "tau_factor", "seed", "memory_cap", "pseudo_points", "empirical_weights",
    "verify_every", "c_max", "p_level", "a1", "a2", "a3", "rmin", "poisson",
    "log_timing", "simp", "simp_switch_iter", "simp_switch_value", "out",
}
_WHEEL_KEYS = {"n_radial", "n_angular", "verify_points", "baseline_nodes"}
_PLATE_KEYS = {"nx", "ny", "ell", "n_omega", "verify_grid", "baseline_grid"}


def parse_config(text: str) -> dict[str, _Entry]:
    entries: dict[str, _Entry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError("empty key or value", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        entries[key] = _Entry(raw=value, line=lineno)
    return entries


def _get(entries, key, conv, default=None, required=False):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    e = entries[key]
    try:
        return conv(e.raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", e.line) from None


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split()]


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split()]


def _pair(raw: str) -> tuple[int, int]:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two integers")
    return int(parts[0]), int(parts[1])


def _check_counts(name: str, spec, line: int | None = None) -> None:
    """A quadrature rule's point count, or each count of a grid, is >= 1."""
    if spec is not None and min(np.atleast_1d(spec)) < 1:
        raise ConfigError(f"{name} needs at least 1 point per count, "
                          f"got {spec}", line)


@dataclass
class ResolvedConfig:
    problem_name: str
    problem_kwargs: dict
    method: str
    iterations: int
    batches: list[int]
    taus: list[float]
    seeds: list[int]
    tau_schedule: tuple[int, float] | None
    memory_cap: int | None
    pseudo_points: int | None
    empirical_weights: bool
    verify_every: int
    verify_spec: object
    baseline_spec: object
    simp_schedule: tuple | None
    log_timing: bool
    out: str


def resolve_config(entries: dict[str, _Entry]) -> ResolvedConfig:
    problem_name = _get(entries, "problem", str, required=True)
    if problem_name not in ("wheel", "plate"):
        raise ConfigError(f"unknown problem {problem_name!r}",
                          entries["problem"].line)
    allowed = _COMMON_KEYS | (_WHEEL_KEYS if problem_name == "wheel"
                              else _PLATE_KEYS)
    for key, e in entries.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for problem "
                              f"{problem_name!r}", e.line)

    method = _get(entries, "method", str, default="smma")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}",
                          entries["method"].line)

    kwargs: dict = {}
    for key, conv in (("c_max", float), ("p_level", float), ("a1", float),
                      ("a2", float), ("a3", float), ("poisson", float)):
        val = _get(entries, key, conv)
        if val is not None:
            kwargs[key] = val
    rmin = _get(entries, "rmin", float)
    if rmin is not None:
        kwargs["r_min"] = rmin
    simp = _get(entries, "simp", float)
    if simp is not None:
        kwargs["simp_s"] = simp

    if problem_name == "wheel":
        for key, conv in (("n_radial", int), ("n_angular", int)):
            val = _get(entries, key, conv)
            if val is not None:
                kwargs[key] = val
        spec_keys, spec_conv = ("verify_points", "baseline_nodes"), int
    else:
        for key, conv in (("nx", int), ("ny", int), ("ell", float),
                          ("n_omega", int)):
            val = _get(entries, key, conv)
            if val is not None:
                kwargs[key] = val
        spec_keys, spec_conv = ("verify_grid", "baseline_grid"), _pair
    verify_spec, baseline_spec = (_get(entries, key, spec_conv)
                                  for key in spec_keys)
    for key, spec in zip(spec_keys, (verify_spec, baseline_spec)):
        if spec is not None:
            _check_counts(repr(key), spec, entries[key].line)

    switch_iter = _get(entries, "simp_switch_iter", int)
    switch_value = _get(entries, "simp_switch_value", float)
    simp_schedule = None
    if (switch_iter is None) != (switch_value is None):
        raise ConfigError("simp_switch_iter and simp_switch_value must be "
                          "given together")
    if switch_iter is not None:
        base_s = simp if simp is not None else (10.0 if problem_name == "wheel"
                                                else 5.0)
        simp_schedule = ((1, base_s), (switch_iter, switch_value))

    tau_period = _get(entries, "tau_period", int)
    tau_factor = _get(entries, "tau_factor", float)
    if (tau_period is None) != (tau_factor is None):
        raise ConfigError("tau_period and tau_factor must be given together")
    tau_schedule = (tau_period, tau_factor) if tau_period is not None else None

    return ResolvedConfig(
        problem_name=problem_name,
        problem_kwargs=kwargs,
        method=method,
        iterations=_get(entries, "iterations", int, default=100),
        batches=_get(entries, "batch", _int_list, default=[8]),
        taus=_get(entries, "tau", _float_list, default=[1.0]),
        seeds=_get(entries, "seed", _int_list, default=[0]),
        tau_schedule=tau_schedule,
        memory_cap=_get(entries, "memory_cap", int),
        pseudo_points=_get(entries, "pseudo_points", int),
        empirical_weights=_get(entries, "empirical_weights", _bool,
                               default=False),
        verify_every=_get(entries, "verify_every", int, default=10),
        verify_spec=verify_spec,
        baseline_spec=baseline_spec,
        simp_schedule=simp_schedule,
        log_timing=_get(entries, "log_timing", _bool, default=False),
        out=_get(entries, "out", str, default="runs"),
    )


def build_problem(rc: ResolvedConfig):
    if rc.problem_name == "wheel":
        return wheel_problem(**rc.problem_kwargs)
    return plate_problem(**rc.problem_kwargs)


# ---------------------------------------------------------------------------
# design files


def save_design(path, problem, rho: np.ndarray) -> None:
    mesh = problem.mesh
    lines = [DESIGN_MAGIC,
             f"kind {mesh.kind}",
             f"shape {mesh.shape[0]} {mesh.shape[1]}",
             f"simp {problem.simp.s!r}",
             f"rmin {problem.filt.r_min!r}"]
    for key, val in sorted(mesh.geometry.items()):
        lines.append(f"{key} {val!r}")
    lines.append(f"values {rho.size}")
    lines.extend(repr(float(v)) for v in rho)
    Path(path).write_text("\n".join(lines) + "\n")


def load_design(path) -> tuple[dict, np.ndarray]:
    """(header, values) of a file written by save_design.

    A malformed file raises ConfigError naming the file and the line: a
    blank or malformed header line, a header without one of the keys that
    save_design writes, and a truncated, unparsable or non-finite value.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != DESIGN_MAGIC:
        raise ConfigError(f"{path}: not a design file (bad magic)")

    def bad(i: int, what: str) -> ConfigError:   # i indexes lines
        return ConfigError(f"{path}:{i + 1}: {what}")

    header: dict = {}
    for i in range(1, len(lines)):
        parts = lines[i].split()
        if not parts:
            raise bad(i, "blank line in the header")
        key = parts[0]
        if key == "values":
            need = ("kind", "shape", "simp", "rmin",
                    *DESIGN_GEOMETRY.get(header.get("kind"), ()))
            missing = [k for k in need if k not in header]
            if missing:
                raise bad(i, f"no {missing[0]!r} line before the values")
            try:
                n = int(parts[1])
            except (IndexError, ValueError):
                raise bad(i, "malformed 'values' line") from None
            if n < 0 or i + n >= len(lines):
                raise bad(i, "truncated design values")
            vals = np.empty(n)
            for k in range(i + 1, i + 1 + n):
                try:
                    vals[k - i - 1] = float(lines[k])
                except ValueError:
                    raise bad(k, "design value is not a number") from None
                if not np.isfinite(vals[k - i - 1]):
                    raise bad(k, "design value is not finite")
            header["n_values"] = n
            return header, vals
        try:
            if key == "kind":
                if parts[1] not in DESIGN_GEOMETRY:
                    raise bad(i, f"unknown mesh kind {parts[1]!r}")
                header["kind"] = parts[1]
            elif key == "shape":
                header["shape"] = (int(parts[1]), int(parts[2]))
            else:
                header[key] = float(parts[1])
        except (IndexError, ValueError):
            raise bad(i, f"malformed {key!r} line") from None
    raise ConfigError(f"{path}: missing values section")


# ---------------------------------------------------------------------------
# rendering


def render_pgm(header: dict, rho: np.ndarray, size: int = 360) -> bytes:
    """Grayscale of the physical interpretation (F rho)^s; black = solid.

    Returns a binary PGM (P5) whose header gives width before height and
    whose first image row is drawn at the top. Orientation:

    - rect: image row 0 is the top of the domain (y = height) and the
      columns run in +x, one pixel per element (element ey*nx + ex, as in
      ``build_rect_mesh``).
    - disc: a ``size``-by-``size`` picture of the unit disc; row 0 is +y
      and the columns run in +x, so sector 0 starts on +x and the sectors
      run counterclockwise, as in ``build_disc_mesh``. Pixels outside the
      annulus are white.
    """
    from .design_field import build_filter
    from .mesh_fem import build_disc_mesh, build_rect_mesh

    kind = header["kind"]
    n1, n2 = header["shape"]
    if kind == "rect":
        mesh = build_rect_mesh(n1, n2, header["width"], header["height"])
    else:
        mesh = build_disc_mesh(n1, n2, header["r_inner"], header["r_rim"])
    if rho.size != mesh.n_elements:
        raise ConfigError("design length does not match mesh element count")
    filt = build_filter(mesh, header["rmin"])
    phys = filt.apply(rho) ** header["simp"]
    shade = np.floor(255.0 * (1.0 - phys) + 0.5).astype(np.uint8)

    if kind == "rect":
        nx, ny = n1, n2
        img = shade.reshape(ny, nx)[::-1, :]      # row 0 = top of the domain
    else:
        nr, na = n1, n2
        r_inner = header["r_inner"]
        px = (np.arange(size) + 0.5) / size * 2.0 - 1.0
        X, Y = np.meshgrid(px, -px)               # row 0 = top
        R = np.hypot(X, Y)
        TH = np.mod(np.arctan2(Y, X), 2.0 * np.pi)
        band = np.clip(((R - r_inner) / (1.0 - r_inner) * nr).astype(int),
                       0, nr - 1)
        sector = np.clip((TH / (2.0 * np.pi) * na).astype(int), 0, na - 1)
        img = np.full((size, size), 255, dtype=np.uint8)
        inside = (R >= r_inner) & (R <= 1.0)
        img[inside] = shade[band[inside] * na + sector[inside]]

    head = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return head + img.tobytes()


# ---------------------------------------------------------------------------
# commands


def _fmt_float(x: float) -> str:
    return repr(float(x))


def cmd_run(config_path: str, out_root: str | None) -> int:
    entries = parse_config(Path(config_path).read_text())
    rc = resolve_config(entries)
    out_base = Path(out_root) if out_root else Path(rc.out)
    runs = []
    for batch, tau, seed in product(rc.batches, rc.taus, rc.seeds):
        try:   # every run's values are checked before the first one starts
            runs.append((batch, tau, seed, RunConfig(
                method=rc.method, batch_size=batch, iterations=rc.iterations,
                seed=seed, tau=tau, tau_schedule=rc.tau_schedule,
                memory_cap=rc.memory_cap, pseudo_points=rc.pseudo_points,
                empirical_weights=rc.empirical_weights,
                simp_schedule=rc.simp_schedule,
                baseline_spec=rc.baseline_spec,
                verify_every=rc.verify_every, verify_spec=rc.verify_spec)))
        except ValueError as exc:
            raise ConfigError(f"batch {batch}, tau {tau:g}: {exc}") from None
    problem = build_problem(rc)

    for batch, tau, seed, cfg in runs:
        name = f"{rc.problem_name}_{rc.method}_b{batch}_tau{tau:g}_seed{seed}"
        run_dir = out_base / name
        run_dir.mkdir(parents=True, exist_ok=True)
        rho, log = run_smma(problem, cfg)
        log.to_csv(run_dir / "log.csv", include_timing=rc.log_timing)
        save_design(run_dir / "design.txt", problem, rho)
        _write_manifest(run_dir / "manifest.txt", rc, batch, tau, seed)
        print(f"run {name}: {rc.iterations} iterations -> {run_dir}")
    return 0


def _write_manifest(path, rc: ResolvedConfig, batch, tau, seed) -> None:
    """A single-run config that reproduces this run byte-identically."""
    lines = [f"# smma {__version__} run manifest",
             f"problem = {rc.problem_name}",
             f"method = {rc.method}",
             f"iterations = {rc.iterations}",
             f"batch = {batch}",
             f"tau = {_fmt_float(tau)}",
             f"seed = {seed}",
             f"verify_every = {rc.verify_every}",
             f"log_timing = {str(rc.log_timing).lower()}",
             f"empirical_weights = {str(rc.empirical_weights).lower()}"]
    if rc.tau_schedule is not None:
        lines.append(f"tau_period = {rc.tau_schedule[0]}")
        lines.append(f"tau_factor = {_fmt_float(rc.tau_schedule[1])}")
    if rc.memory_cap is not None:
        lines.append(f"memory_cap = {rc.memory_cap}")
    if rc.pseudo_points is not None:
        lines.append(f"pseudo_points = {rc.pseudo_points}")
    if rc.simp_schedule is not None:
        lines.append(f"simp_switch_iter = {rc.simp_schedule[1][0]}")
        lines.append(f"simp_switch_value = {_fmt_float(rc.simp_schedule[1][1])}")
    if rc.verify_spec is not None:
        if rc.problem_name == "wheel":
            lines.append(f"verify_points = {rc.verify_spec}")
        else:
            lines.append(f"verify_grid = {rc.verify_spec[0]} {rc.verify_spec[1]}")
    if rc.baseline_spec is not None:
        if rc.problem_name == "wheel":
            lines.append(f"baseline_nodes = {rc.baseline_spec}")
        else:
            lines.append(f"baseline_grid = {rc.baseline_spec[0]} {rc.baseline_spec[1]}")
    for key, val in sorted(rc.problem_kwargs.items()):
        cfg_key = {"r_min": "rmin", "simp_s": "simp"}.get(key, key)
        if isinstance(val, float):
            lines.append(f"{cfg_key} = {_fmt_float(val)}")
        else:
            lines.append(f"{cfg_key} = {val}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_verify(design_path: str, config_path: str, points: int | None,
               grid: tuple[int, int] | None, out: str | None) -> int:
    entries = parse_config(Path(config_path).read_text())
    rc = resolve_config(entries)
    # the wheel's rule is a point count, the plate's a grid
    foreign, value = (("--grid", grid) if rc.problem_name == "wheel"
                      else ("--points", points))
    if value is not None:
        raise ConfigError(f"{foreign} does not apply to the "
                          f"{rc.problem_name} problem")
    _check_counts("--points", points)
    _check_counts("--grid", grid)
    problem = build_problem(rc)
    _, rho = load_design(design_path)
    if rho.size != problem.mesh.n_elements:
        raise ConfigError(
            f"design has {rho.size} values, mesh has "
            f"{problem.mesh.n_elements} elements")
    spec = points if points is not None else (grid if grid is not None
                                              else rc.verify_spec)
    g_smooth, g_steep, g_nonsmooth = dense_cc(rho, problem, spec)
    out_path = Path(out) if out else Path(design_path).with_suffix(".verify.csv")
    out_path.write_text(
        "g_smooth,g_steepened,g_nonsmooth\n"
        f"{_fmt_float(g_smooth)},{_fmt_float(g_steep)},"
        f"{_fmt_float(g_nonsmooth)}\n")
    print(f"verified {design_path}: smooth={g_smooth:.6f} "
          f"steepened={g_steep:.6f} nonsmooth={g_nonsmooth:.6f}")
    return 0


def cmd_render(design_path: str, out: str | None, size: int) -> int:
    if size < 1:
        raise ConfigError(f"--size must be at least 1, got {size}")
    header, rho = load_design(design_path)
    data = render_pgm(header, rho, size=size)
    out_path = Path(out) if out else Path(design_path).with_suffix(".pgm")
    out_path.write_bytes(data)
    print(f"rendered {design_path} -> {out_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smma",
        description="Chance-constrained topology optimization runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the runs described by a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output root (overrides the config)")

    p_ver = sub.add_parser("verify", help="dense-quadrature check of a design")
    p_ver.add_argument("design")
    p_ver.add_argument("config")
    p_ver.add_argument("--points", type=int)
    p_ver.add_argument("--grid", type=int, nargs=2)
    p_ver.add_argument("--out")

    p_ren = sub.add_parser("render", help="grayscale PGM of a design")
    p_ren.add_argument("design")
    p_ren.add_argument("--out")
    p_ren.add_argument("--size", type=int, default=360)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "verify":
            grid = tuple(args.grid) if args.grid else None
            return cmd_verify(args.design, args.config, args.points, grid,
                              args.out)
        return cmd_render(args.design, args.out, args.size)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
