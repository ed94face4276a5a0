"""Command-line entry point: run, verify, render.

Configs are plain key = value text (lists are whitespace-separated; '#'
starts a comment). A key is the problem, a keyword of its builder, or a
driver.RunConfig field, except the CLI's own: the sweep lists batch, tau
and seed, log_timing and out. `run` sweeps the cartesian product of the
lists, writing one directory per run with the iteration CSV, the final
design file, and a manifest: the config with the run's one batch, tau and
seed in place of the lists, and without `out`, which reproduces the run
exactly. The manifest's comment lines record how the run ran: the BLAS
thread variables, and the numpy and scipy versions with the BLAS each
was built with.

Exit codes: 0 ok, 1 runtime failure, 2 bad config/arguments.

BLAS threads: scipy's OpenBLAS starts one thread per CPU unless told
otherwise, and the plate loop runs about twice as fast with one. On a
2-CPU host an iteration took 40-60 ms with OPENBLAS_NUM_THREADS=1 set
before launch, against 95-105 ms without it. So `python -m smma` and the
`smma` script (smma.__main__) set each of smma.THREAD_VARS to 1 before
numpy is imported, unless the caller has set it: a value in the caller's
environment wins. Calling main() from Python, or `python -m smma.cli`,
leaves the setting to the caller.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
import scipy

from . import THREAD_VARS, __version__
from .benchmarks import plate_problem, wheel_problem
from .driver import METHODS, RunConfig, dense_cc, run_smma, simp_at

DESIGN_MAGIC = "smma-design 1"
# geometry keys of each mesh kind in a design header
DESIGN_GEOMETRY = {"rect": ("height", "width"), "disc": ("r_inner", "r_rim")}


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# config file


@dataclass
class _Entry:
    raw: str
    line: int


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


def _schedule(raw: str) -> tuple[tuple[int, float], ...]:
    """'k x [k x ...]' as ((k, x), ...), integers k and numbers x."""
    tokens = raw.split()
    if len(tokens) % 2:
        raise ValueError("expected integer-number pairs")
    return tuple((int(k), float(x)) for k, x in zip(tokens[::2], tokens[1::2]))


def _tau_schedule(raw: str) -> tuple[int, float]:
    pairs = _schedule(raw)
    if len(pairs) != 1:
        raise ValueError("expected one integer-number pair")
    return pairs[0]


def _method(raw: str) -> str:
    if raw not in METHODS:
        raise ValueError(f"unknown method {raw!r}")
    return raw


# keys every problem's builder takes
_MODEL_KEYS = {
    "c_max": ("c_max", float), "p_level": ("p_level", float),
    "a1": ("a1", float), "a2": ("a2", float), "a3": ("a3", float),
    "rmin": ("r_min", float), "poisson": ("poisson", float),
    "simp": ("simp_s", float),
}
# problem -> (builder, config key -> (builder keyword, converter))
_PROBLEMS = {
    "wheel": (wheel_problem,
              {**_MODEL_KEYS, "n_radial": ("n_radial", int),
               "n_angular": ("n_angular", int)}),
    "plate": (plate_problem,
              {**_MODEL_KEYS, "nx": ("nx", int), "ny": ("ny", int),
               "ell": ("ell", float), "n_omega": ("n_omega", int)}),
}
# config key -> converter, for the RunConfig field of the same name; a
# rule is one point count per parameter coordinate (wheel: 1080, plate:
# 50 50), a schedule one or more (iteration, value) pairs
_RUN_KEYS = {"method": _method, "iterations": int, "memory_cap": int,
             "pseudo_points": int, "empirical_weights": _bool,
             "verify_every": int, "verify_spec": _int_list,
             "baseline_spec": _int_list, "tau_schedule": _tau_schedule,
             "simp_schedule": _schedule}
# the problem, the sweep lists, and what to do with the output
_OWN_KEYS = {"problem", "batch", "tau", "seed", "log_timing", "out"}


@dataclass
class ResolvedConfig:
    problem_name: str
    problem_kwargs: dict        # builder keyword arguments
    run_kwargs: dict            # RunConfig fields besides batch, tau, seed
    batches: list[int]
    taus: list[float]
    seeds: list[int]
    log_timing: bool
    out: str


def resolve_config(entries: dict[str, _Entry]) -> ResolvedConfig:
    problem_name = _get(entries, "problem", str, required=True)
    if problem_name not in _PROBLEMS:
        raise ConfigError(f"unknown problem {problem_name!r}",
                          entries["problem"].line)
    builder_keys = _PROBLEMS[problem_name][1]
    allowed = _OWN_KEYS | _RUN_KEYS.keys() | builder_keys.keys()
    for key, e in entries.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for problem "
                              f"{problem_name!r}", e.line)

    problem_kwargs = {kw: _get(entries, key, conv)
                      for key, (kw, conv) in builder_keys.items()
                      if key in entries}
    run = {key: _get(entries, key, conv)
           for key, conv in _RUN_KEYS.items() if key in entries}

    # an absent sweep key runs the RunConfig default
    return ResolvedConfig(
        problem_name=problem_name,
        problem_kwargs=problem_kwargs,
        run_kwargs=run,
        batches=_get(entries, "batch", _int_list,
                     default=[RunConfig.batch_size]),
        taus=_get(entries, "tau", _float_list, default=[RunConfig.tau]),
        seeds=_get(entries, "seed", _int_list, default=[RunConfig.seed]),
        log_timing=_get(entries, "log_timing", _bool, default=False),
        out=_get(entries, "out", str, default="runs"),
    )


def build_problem(rc: ResolvedConfig):
    """The configured problem; a value its builder rejects is bad input."""
    try:
        return _PROBLEMS[rc.problem_name][0](**rc.problem_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_runs(config_path):
    """(entries, resolved config, one RunConfig per sweep point, problem)
    of a config file, every value checked before any run starts."""
    entries = parse_config(Path(config_path).read_text())
    rc = resolve_config(entries)
    runs = []
    for batch, tau, seed in product(rc.batches, rc.taus, rc.seeds):
        try:
            runs.append(RunConfig(batch_size=batch, tau=tau, seed=seed,
                                  **rc.run_kwargs))
        except ValueError as exc:
            raise ConfigError(f"batch {batch}, tau {tau:g}, seed {seed}: "
                              f"{exc}") from None
    problem = build_problem(rc)
    for key in ("verify_spec", "baseline_spec"):
        try:
            if key in entries:
                problem.space.rule_counts(rc.run_kwargs[key])
        except ValueError as exc:
            raise ConfigError(f"{key!r}: {exc}", entries[key].line) from None
    return entries, rc, runs, problem


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
    blank, malformed or repeated header line, a header without one of the
    keys that save_design writes, a non-finite header number, a truncated,
    unparsable or non-finite value, or one outside the design box [0, 1],
    and a line after the values.
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
                if not 0.0 <= vals[k - i - 1] <= 1.0:
                    raise bad(k, "design value is outside [0, 1]")
            if i + n + 1 < len(lines):
                raise bad(i + n + 1, "line after the design values")
            header["n_values"] = n
            return header, vals
        if key in header:
            raise bad(i, f"repeated {key!r} line")
        try:
            if key == "kind":
                if parts[1] not in DESIGN_GEOMETRY:
                    raise bad(i, f"unknown mesh kind {parts[1]!r}")
                header["kind"] = parts[1]
            elif key == "shape":
                header["shape"] = (int(parts[1]), int(parts[2]))
            else:
                header[key] = float(parts[1])
                if not np.isfinite(header[key]):
                    raise bad(i, f"{key!r} is not finite")
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

    A header value that the mesh, filter or SIMP parameters reject, or a
    design of the wrong length, raises ValueError.
    """
    from .design_field import SimpParams, build_filter
    from .mesh_fem import build_disc_mesh, build_rect_mesh

    kind = header["kind"]
    n1, n2 = header["shape"]
    if kind == "rect":
        mesh = build_rect_mesh(n1, n2, header["width"], header["height"])
    else:
        mesh = build_disc_mesh(n1, n2, header["r_inner"], header["r_rim"])
    if rho.size != mesh.n_elements:
        raise ValueError("design length does not match mesh element count")
    filt = build_filter(mesh, header["rmin"])
    phys = filt.apply(rho) ** SimpParams(s=header["simp"]).s
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
    entries, rc, runs, problem = _load_runs(config_path)
    out_base = Path(out_root) if out_root else Path(rc.out)
    dirs = [out_base / f"{rc.problem_name}_{cfg.method}_b{cfg.batch_size}"
                       f"_tau{cfg.tau:g}_seed{cfg.seed}" for cfg in runs]
    for run_dir in dirs:
        if dirs.count(run_dir) > 1:
            raise ConfigError(f"sweep points share run directory {run_dir}")

    for run_dir, cfg in zip(dirs, runs):
        run_dir.mkdir(parents=True, exist_ok=True)
        rho, log = run_smma(problem, cfg)
        log.to_csv(run_dir / "log.csv", include_timing=rc.log_timing)
        # the design is physical under the exponent its last step used
        save_design(run_dir / "design.txt",
                    problem.with_simp(simp_at(problem, cfg, cfg.iterations)),
                    rho)
        _write_manifest(run_dir / "manifest.txt", entries, cfg)
        print(f"run {run_dir.name}: {cfg.iterations} iterations -> {run_dir}")
    return 0


def _write_manifest(path, entries: dict[str, _Entry], cfg: RunConfig) -> None:
    """The config as parsed, in file order, with this run's own batch, tau
    and seed in place of the sweep lists and without 'out': a single-run
    config that reproduces this run byte-identically."""
    own = {"batch": str(cfg.batch_size), "tau": _fmt_float(cfg.tau),
           "seed": str(cfg.seed)}
    lines = [f"# smma {__version__} run manifest", *_environment_lines()]
    for key, e in entries.items():
        if key != "out":
            lines.append(f"{key} = {own.pop(key, e.raw)}")
    lines.extend(f"{key} = {value}" for key, value in own.items())
    Path(path).write_text("\n".join(lines) + "\n")


def _environment_lines() -> list[str]:
    """Comment lines: each of THREAD_VARS as this process sees it, and the
    numpy and scipy versions with the BLAS each was built with."""
    lines = [f"# {var}={os.environ[var]}" if var in os.environ
             else f"# {var} unset" for var in THREAD_VARS]
    for module in (np, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"][
                "blas"]
            built = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):   # no such config in this version
            built = "unknown"
        lines.append(f"# {module.__name__} {module.__version__}, "
                     f"BLAS {built}")
    return lines


def cmd_verify(design_path: str, config_path: str, spec: list[int] | None,
               out: str | None) -> int:
    _, rc, runs, problem = _load_runs(config_path)
    if spec is not None:
        try:
            problem.space.rule_counts(spec)
        except ValueError as exc:
            raise ConfigError(f"--spec: {exc}") from None
    # every sweep point ends on the same exponent: the schedule and the
    # iteration count are not swept
    cfg = runs[0]
    problem = problem.with_simp(simp_at(problem, cfg, cfg.iterations))
    header, rho = load_design(design_path)
    mesh = problem.mesh
    for key, want in (("kind", mesh.kind), ("shape", tuple(mesh.shape)),
                      *((k, float(mesh.geometry[k]))
                        for k in DESIGN_GEOMETRY[mesh.kind])):
        got = header.get(key)
        if got != want:
            raise ConfigError(f"{design_path}: design {key} {got!r} does not "
                              f"match the {rc.problem_name} mesh's {want!r}")
    # the physical design is (F rho)^s, s the exponent the configured run
    # ends on: a filter radius or SIMP exponent other than the one the
    # design was saved with verifies another design
    for key, want in (("simp", problem.simp.s), ("rmin", problem.filt.r_min)):
        if header[key] != want:
            raise ConfigError(f"{design_path}: design {key} {header[key]!r} "
                              f"does not match the configured {want!r}")
    if rho.size != mesh.n_elements:
        raise ConfigError(f"design has {rho.size} values, mesh has "
                          f"{mesh.n_elements} elements")
    g_smooth, g_steep, g_nonsmooth = dense_cc(
        rho, problem, cfg.verify_spec if spec is None else spec)
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
    try:
        data = render_pgm(header, rho, size=size)
    except ValueError as exc:   # a header value the builders reject
        raise ConfigError(f"{design_path}: {exc}") from None
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
    p_ver.add_argument(
        "--spec", type=int, nargs="+", metavar="N",
        help="dense rule: one point count per parameter coordinate (wheel: "
             "N, plate: N N); default: the config's verify_spec, else the "
             "problem's own")
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
            return cmd_verify(args.design, args.config, args.spec, args.out)
        return cmd_render(args.design, args.out, args.size)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
