import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smma
from smma import cli
from smma.benchmarks import plate_problem, wheel_problem
from smma.cli import (
    _RUN_KEYS,
    ConfigError,
    build_problem,
    load_design,
    main,
    parse_config,
    render_pgm,
    resolve_config,
    save_design,
)
from smma.driver import RunConfig, dense_cc

TINY_WHEEL = """
# tiny wheel run
problem = wheel
method = smma
n_radial = 4
n_angular = 10
simp = 3
iterations = 3
batch = 2
tau = 0.5
seed = 0
verify_every = 2
verify_spec = 20
out = {out}
"""

TINY_PLATE = """
problem = plate
method = mma-quadrature
nx = 10
ny = 5
n_omega = 4
iterations = 2
baseline_spec = 2 2
verify_spec = 2 2
verify_every = 2
out = {out}
"""


def write_config(tmp_path, text, name="run.cfg", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return path


class TestConfigParsing:
    def test_parse_and_resolve(self, tmp_path):
        cfg = write_config(tmp_path, TINY_WHEEL, out=tmp_path / "o")
        rc = resolve_config(parse_config(cfg.read_text()))
        assert rc.problem_name == "wheel"
        assert rc.batches == [2] and rc.seeds == [0]
        assert rc.run_kwargs["verify_spec"] == [20]

    def test_missing_problem_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(parse_config("method = smma\n"))
        assert "problem" in str(err.value)

    def test_line_diagnostics(self):
        with pytest.raises(ConfigError) as err:
            parse_config("problem = wheel\nbogus line without equals\n")
        assert "line 2" in str(err.value)

    def test_unknown_key_reports_line(self):
        text = "problem = wheel\nnx = 4\n"
        with pytest.raises(ConfigError) as err:
            resolve_config(parse_config(text))
        assert "line 2" in str(err.value)

    def test_bad_value_reports_line(self):
        text = "problem = wheel\niterations = soon\n"
        with pytest.raises(ConfigError) as err:
            resolve_config(parse_config(text))
        assert "line 2" in str(err.value)

    def test_sweep_lists(self):
        text = "problem = wheel\nbatch = 4 8\ntau = 1 0.5\nseed = 0 1\n"
        rc = resolve_config(parse_config(text))
        assert rc.batches == [4, 8]
        assert rc.taus == [1.0, 0.5]
        assert rc.seeds == [0, 1]

    def test_schedules_and_rules(self):
        text = ("problem = plate\ntau_schedule = 5 0.5\n"
                "simp_schedule = 2 4 30 5.5\nverify_spec = 6 7\n")
        run = resolve_config(parse_config(text)).run_kwargs
        assert run == {"tau_schedule": (5, 0.5),
                       "simp_schedule": ((2, 4.0), (30, 5.5)),
                       "verify_spec": [6, 7]}

    def test_run_keys_name_run_config_fields(self):
        # a run setting has one spelling: its RunConfig field; only the
        # sweep lists (keys batch, tau, seed) are the CLI's own
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert _RUN_KEYS.keys() <= fields
        assert fields - _RUN_KEYS.keys() == {"batch_size", "tau", "seed"}

    @pytest.mark.parametrize("key", [
        "verify_points", "baseline_nodes", "verify_grid", "baseline_grid",
        "tau_period", "tau_factor", "simp_switch_iter", "simp_switch_value"])
    def test_retired_keys_unknown(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL + f"{key} = 2\n", out=out)
        assert main(["run", str(cfg)]) == 2
        assert f"line 15: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_non_finite_record_exits_1(self, tmp_path, capsys, monkeypatch):
        builder, keys = cli._PROBLEMS["wheel"]

        def nan_at_the_third_call(**kwargs):
            problem = builder(**kwargs)
            evaluate, calls = problem.evaluate_records, []

            def evaluate_records(rho, params):
                values, grads = evaluate(rho, params)
                calls.append(1)
                return (values * np.nan if len(calls) == 3 else values,
                        grads)
            problem.evaluate_records = evaluate_records
            return problem

        monkeypatch.setitem(cli._PROBLEMS, "wheel",
                            (nan_at_the_third_call, keys))
        cfg = write_config(tmp_path, TINY_WHEEL, out=tmp_path / "out")
        assert main(["run", str(cfg)]) == 1
        assert ("error: iteration 3: a record's value or gradient is not "
                "finite") in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL, out=out)
        assert main(["run", str(cfg)]) == 0
        run_dir = out / "wheel_smma_b2_tau0.5_seed0"
        assert (run_dir / "log.csv").exists()
        assert (run_dir / "design.txt").exists()
        assert (run_dir / "manifest.txt").exists()
        lines = (run_dir / "log.csv").read_text().splitlines()
        assert len(lines) == 4   # header + 3 iterations

    def test_identical_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, TINY_WHEEL, out=out1)
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        d = "wheel_smma_b2_tau0.5_seed0"
        for name in ("log.csv", "design.txt"):
            assert (out1 / d / name).read_bytes() == \
                (out2 / d / name).read_bytes()

    def test_log_timing_fills_wall_ms_column(self, tmp_path):
        for flag, timed in (("false", False), ("true", True)):
            out = tmp_path / flag
            cfg = write_config(tmp_path, TINY_WHEEL + f"log_timing = {flag}\n",
                               out=out)
            assert main(["run", str(cfg)]) == 0
            log = out / "wheel_smma_b2_tau0.5_seed0" / "log.csv"
            rows = log.read_text().splitlines()[1:]
            assert [r.rsplit(",", 1)[1] != "" for r in rows] == [timed] * 3

    def test_manifest_reproduces_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL, out=out)
        assert main(["run", str(cfg)]) == 0
        run_dir = out / "wheel_smma_b2_tau0.5_seed0"
        redo = tmp_path / "redo"
        assert main(["run", str(run_dir / "manifest.txt"),
                     "--out", str(redo)]) == 0
        redo_dir = redo / "wheel_smma_b2_tau0.5_seed0"
        assert (run_dir / "design.txt").read_bytes() == \
            (redo_dir / "design.txt").read_bytes()
        assert (run_dir / "log.csv").read_bytes() == \
            (redo_dir / "log.csv").read_bytes()

    def test_manifest_of_later_sweep_point_reproduces_run(self, tmp_path):
        out = tmp_path / "out"
        text = TINY_WHEEL.replace("tau = 0.5", "tau = 0.5 0.25\n"
                                  "tau_schedule = 2 0.5\n"
                                  "simp_schedule = 2 4") \
                         .replace("seed = 0", "seed = 0 1")
        cfg = write_config(tmp_path, text, out=out)
        assert main(["run", str(cfg)]) == 0
        d = "wheel_smma_b2_tau0.25_seed1"
        manifest = (out / d / "manifest.txt").read_text().splitlines()
        keys = [ln.split("=", 1)[0].strip() for ln in manifest[1:]]
        assert [keys.count(k) for k in ("batch", "tau", "seed", "out")] == \
            [1, 1, 1, 0]
        assert {"tau = 0.25", "seed = 1", "batch = 2"} <= set(manifest)
        redo = tmp_path / "redo"
        assert main(["run", str(out / d / "manifest.txt"),
                     "--out", str(redo)]) == 0
        assert [p.name for p in redo.iterdir()] == [d]
        for name in ("log.csv", "design.txt"):
            assert (out / d / name).read_bytes() == \
                (redo / d / name).read_bytes()

    def test_sweep_produces_product_of_runs(self, tmp_path):
        out = tmp_path / "out"
        text = TINY_WHEEL.replace("batch = 2", "batch = 1 2") \
                         .replace("tau = 0.5", "tau = 0.5 0.25") \
                         .replace("seed = 0", "seed = 0 1") \
                         .replace("iterations = 3", "iterations = 1")
        cfg = write_config(tmp_path, text, out=out)
        assert main(["run", str(cfg)]) == 0
        assert len(list(out.iterdir())) == 8

    @pytest.mark.parametrize("edit,name", [
        (("seed = 0", "seed = 1 1"), "wheel_smma_b2_tau0.5_seed1"),
        (("tau = 0.5", "tau = 0.5 0.5000001"), "wheel_smma_b2_tau0.5_seed0"),
    ], ids=["seed-repeated", "tau-equal-to-6-digits"])
    def test_sweep_points_sharing_a_directory_exit_2(self, tmp_path, capsys,
                                                     edit, name):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL.replace(*edit), out=out)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"sweep points share run directory {out / name}" in err
        assert not out.exists()   # rejected before any run starts

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(smma.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "smma.cli", "verify",
             str(tmp_path / "nothere.txt"), str(tmp_path / "nothere.cfg")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("config error:")

    @staticmethod
    def child_env(**values):
        """This process's environment without the thread variables, plus
        values, with the package on the path."""
        env = {k: v for k, v in os.environ.items()
               if k not in smma.THREAD_VARS}
        return dict(env, PYTHONPATH=str(Path(smma.__file__).parents[1]),
                    **values)

    @pytest.mark.parametrize("caller", [None, "2"],
                             ids=["default", "caller-set"])
    def test_package_entry_sets_one_thread_unless_set(self, tmp_path,
                                                      caller):
        env = self.child_env(**({} if caller is None
                                else {"OPENBLAS_NUM_THREADS": caller}))
        cfg = write_config(tmp_path, TINY_WHEEL, out=tmp_path / "out")
        done = subprocess.run([sys.executable, "-m", "smma", "run", str(cfg)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        # the manifest records the variables as the child saw them
        run_dir = tmp_path / "out" / "wheel_smma_b2_tau0.5_seed0"
        manifest = (run_dir / "manifest.txt").read_text().splitlines()
        seen = dict.fromkeys(smma.THREAD_VARS, "1")
        if caller is not None:
            seen["OPENBLAS_NUM_THREADS"] = caller
        assert manifest[1:6] == [f"# {var}={value}"
                                 for var, value in seen.items()]
        assert manifest[6].startswith(f"# numpy {np.__version__}, BLAS ")
        assert manifest[7].startswith("# scipy ")
        # its comment lines are no config: in the environment they record
        # (BLAS threads can move a last bit), it reruns to the same log
        redo = tmp_path / "redo"
        done = subprocess.run([sys.executable, "-m", "smma", "run",
                               str(run_dir / "manifest.txt"), "--out",
                               str(redo)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        for name in ("log.csv", "design.txt"):
            assert (run_dir / name).read_bytes() == \
                (redo / run_dir.name / name).read_bytes()

    def test_importing_the_package_sets_no_thread_variable(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import os, smma, smma.__main__, smma.cli; "
             "print([os.environ.get(v) for v in smma.THREAD_VARS])"],
            capture_output=True, text=True, env=self.child_env(),
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str([None] * len(smma.THREAD_VARS))

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method = smma\n")   # problem key missing
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("edit,message", [
        (("iterations = 3", "iterations = 0"), "must be positive"),
        (("batch = 2", "batch = 0"), "must be positive"),
        (("method = smma\n", "method = smma-limited\nmemory_cap = 1\n"),
         "memory cap must be at least the batch size"),
        (("tau = 0.5", "tau = -1"), "tau must be positive"),
        (("tau = 0.5", "tau = 0.5 -1"), "tau must be positive"),
        (("tau = 0.5", "tau = 0"), "tau must be positive"),
        (("tau = 0.5", "tau = 0.5\ntau_schedule = 0 0.5"), "tau schedule"),
        (("tau = 0.5", "tau = 0.5\ntau_schedule = 2 -1"), "tau schedule"),
        (("tau = 0.5", "tau = 0.5\npseudo_points = 0"),
         "pseudo_points must be positive"),
        (("tau = 0.5", "tau = 0.5\npseudo_points = -5"),
         "pseudo_points must be positive"),
        (("verify_every = 2", "verify_every = -1"),
         "verify_every must be nonnegative"),
        (("verify_spec = 20", "verify_spec = 0"),
         "line 13: 'verify_spec': a rule needs at least 1 point"),
        (("verify_spec = 20", "verify_spec = -3"),
         "line 13: 'verify_spec': a rule needs at least 1 point"),
        (("tau = 0.5", "tau = 0.5\np_level = 2"), "p_level must lie in"),
        (("n_radial = 4", "n_radial = 0"), "n_radial must be at least 1"),
        (("tau = 0.5", "tau = 0.5\nrmin = -1"),
         "filter radius must be nonnegative"),
        (("simp = 3", "simp = 0.5"), "SIMP exponent must be >= 1"),
        (("tau = 0.5", "tau = 0.5\nsimp_schedule = 2 0.5"),
         "SIMP exponent must be >= 1"),
        (("tau = 0.5", "tau = 0.5\nsimp_schedule = -4 5"),
         "SIMP switch iteration must be at least"),
        (("method = smma\n", "method = smma-limited\n"),
         "memory_cap is required by smma-limited"),
        (("tau = 0.5", "tau = 0.5\nmemory_cap = 8"),
         "memory_cap is required by smma-limited"),
        (("method = smma\n", "method = mma-quadrature\nmemory_cap = 8\n"),
         "memory_cap is required by smma-limited"),
        (("tau = 0.5", "tau = 0.5\nc_max = nan"),
         "c_max must be positive and finite"),
        (("tau = 0.5", "tau = 0.5\nc_max = inf"),
         "c_max must be positive and finite"),
        (("tau = 0.5", "tau = 0.5\na1 = nan"),
         "a1 and a3 must be positive and finite"),
        (("tau = 0.5", "tau = 0.5\na1 = inf"),
         "a1 and a3 must be positive and finite"),
        (("tau = 0.5", "tau = 0.5\na2 = nan"),
         "a2 must be nonnegative and finite"),
        (("tau = 0.5", "tau = 0.5\na2 = inf"),
         "a2 must be nonnegative and finite"),
        (("tau = 0.5", "tau = 0.5\na3 = nan"),
         "a1 and a3 must be positive and finite"),
        (("tau = 0.5", "tau = 0.5\nrmin = nan"),
         "filter radius must be nonnegative and finite"),
        (("tau = 0.5", "tau = 0.5\nrmin = inf"),
         "filter radius must be nonnegative and finite"),
        (("simp = 3", "simp = inf"), "SIMP exponent must be >= 1 and finite"),
        (("simp = 3", "simp = nan"), "SIMP exponent must be >= 1 and finite"),
        (("tau = 0.5", "tau = 0.5\npoisson = 1"),
         "Poisson's ratio must lie in (-1, 1)"),
        (("tau = 0.5", "tau = 0.5\npoisson = -1"),
         "Poisson's ratio must lie in (-1, 1)"),
        (("tau = 0.5", "tau = 0.5\npoisson = nan"),
         "Poisson's ratio must lie in (-1, 1)"),
        (("tau = 0.5", "tau = 0.5\nbaseline_spec = 5"),
         "a baseline rule applies only to mma-quadrature"),
        (("method = smma\n",
          "method = smma-limited\nmemory_cap = 8\nbaseline_spec = 5\n"),
         "a baseline rule applies only to mma-quadrature"),
        (("method = smma\n", "method = mma-quadrature\npseudo_points = 8\n"),
         "apply only to the sMMA methods"),
        (("method = smma\n",
          "method = mma-quadrature\nempirical_weights = true\n"),
         "apply only to the sMMA methods"),
        (("tau = 0.5", "tau = 0.5\npseudo_points = 8\nempirical_weights = 1"),
         "pseudo_points has no use with empirical_weights"),
        (("verify_spec = 20", "verify_spec = 20 20"),
         "line 13: 'verify_spec': a rule needs at least 1 point on each of "
         "1 coordinates, got (20, 20)"),
        (("verify_spec = 20", "verify_spec = 20.5"),
         "line 13: bad value for 'verify_spec'"),
        (("seed = 0", "seed = -1"), "seed -1: seed must be nonnegative"),
        (("seed = 0", "seed = 0 -2"), "seed -2: seed must be nonnegative"),
        (("tau = 0.5", "tau = 0.5\ntau_schedule = 2"),
         "line 11: bad value for 'tau_schedule': expected integer-number "
         "pairs"),
        (("tau = 0.5", "tau = 0.5\ntau_schedule = 2 0.5 4 0.5"),
         "line 11: bad value for 'tau_schedule': expected one integer-number "
         "pair"),
        (("tau = 0.5", "tau = 0.5\nsimp_schedule = 2 4 6"),
         "line 11: bad value for 'simp_schedule': expected integer-number "
         "pairs"),
        (("tau = 0.5", "tau = 0.5\nsimp_schedule = 2.5 4"),
         "line 11: bad value for 'simp_schedule'"),
        (("tau = 0.5", "tau = 0.5\nsimp_schedule = 2 4 3 0.5"),
         "SIMP exponent must be >= 1"),
        (("iterations = 3", "iterations = 80\ntau_schedule = 1 0.5"),
         "below machine epsilon"),
        (("tau = 0.5", "tau = 1e-300"), "below machine epsilon"),
        (("iterations = 3", "iterations = 320\ntau_schedule = 1 10"),
         "tau schedule needs a period of at least 1 and a factor in (0, 1]"),
    ], ids=["iterations-0", "batch-0", "cap-below-batch", "tau-negative",
            "tau-negative-second", "tau-zero", "tau-period-0",
            "tau-factor-negative", "pseudo-points-0",
            "pseudo-points-negative", "verify-every-negative",
            "verify-points-0", "verify-points-negative", "p-level-2",
            "n-radial-0", "rmin-negative", "simp-below-1",
            "simp-switch-value-below-1", "simp-switch-iter-negative",
            "limited-without-cap", "cap-with-smma",
            "cap-with-quadrature", "c-max-nan", "c-max-inf", "a1-nan",
            "a1-inf", "a2-nan", "a2-inf", "a3-nan", "rmin-nan", "rmin-inf",
            "simp-inf", "simp-nan", "poisson-1", "poisson-minus-1",
            "poisson-nan", "baseline-with-smma", "baseline-with-limited",
            "pseudo-points-with-quadrature", "empirical-with-quadrature",
            "pseudo-points-with-empirical", "verify-spec-two-counts",
            "verify-spec-float", "seed-negative", "seed-negative-second",
            "tau-schedule-half-pair", "tau-schedule-two-pairs",
            "simp-schedule-half-pair", "simp-schedule-float-iter",
            "simp-schedule-second-value-below-1", "tau-schedule-below-eps",
            "tau-below-eps", "tau-schedule-growing"])
    def test_bad_run_value_exit_2(self, tmp_path, capsys, edit, message):
        out = tmp_path / "out"
        text = TINY_WHEEL.replace(*edit)
        assert text != TINY_WHEEL
        cfg = write_config(tmp_path, text, out=out)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()   # rejected before any run starts

    @pytest.mark.parametrize("edit,message", [
        (("verify_spec = 2 2", "verify_spec = 0 3"),
         "line 9: 'verify_spec': a rule needs at least 1 point"),
        (("baseline_spec = 2 2", "baseline_spec = 2 -1"),
         "line 8: 'baseline_spec': a rule needs at least 1 point"),
        (("nx = 10", "nx = 0"), "nx and ny must be at least 1"),
        (("n_omega = 4", "n_omega = 0"), "n_omega must be at least 1"),
        (("nx = 10", "nx = 10\nc_max = nan"),
         "c_max must be positive and finite"),
        (("nx = 10", "nx = 10\nrmin = nan"),
         "filter radius must be nonnegative and finite"),
        (("nx = 10", "nx = 10\nrmin = 1e308"),
         "filter radius 1e+308 is too large"),
        (("nx = 10", "nx = 10\nell = nan"), "ell must be positive and finite"),
        (("nx = 10", "nx = 10\nell = inf"), "ell must be positive and finite"),
        (("nx = 10", "nx = 10\nell = 0"), "ell must be positive and finite"),
        (("method = mma-quadrature", "method = smma"),
         "a baseline rule applies only to mma-quadrature"),
        (("verify_spec = 2 2", "verify_spec = 2"),
         "line 9: 'verify_spec': a rule needs at least 1 point on each of "
         "2 coordinates, got (2,)"),
        (("baseline_spec = 2 2", "baseline_spec = 2 2 2"),
         "line 8: 'baseline_spec': a rule needs at least 1 point on each of "
         "2 coordinates, got (2, 2, 2)"),
    ], ids=["verify-grid-0", "baseline-grid-negative", "nx-0", "n-omega-0",
            "c-max-nan", "rmin-nan", "rmin-huge", "ell-nan", "ell-inf",
            "ell-0", "baseline-grid-with-smma", "verify-spec-one-count",
            "baseline-spec-three-counts"])
    def test_bad_plate_grid_exit_2(self, tmp_path, capsys, edit, message):
        out = tmp_path / "out"
        text = TINY_PLATE.replace(*edit)
        assert text != TINY_PLATE
        assert main(["run", str(write_config(tmp_path, text, out=out))]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_plate_baseline_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_PLATE, out=out)
        assert main(["run", str(cfg)]) == 0
        run_dir = out / "plate_mma-quadrature_b8_tau1_seed0"
        assert (run_dir / "log.csv").exists()


class TestDesignFiles:
    def test_round_trip_lossless(self, tmp_path):
        problem = wheel_problem(n_radial=4, n_angular=10, simp_s=3.0)
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.0, 1.0, problem.mesh.n_elements)
        path = tmp_path / "design.txt"
        save_design(path, problem, rho)
        header, loaded = load_design(path)
        np.testing.assert_array_equal(loaded, rho)
        assert header["kind"] == "disc"
        assert header["shape"] == (4, 10)
        assert header["simp"] == 3.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("not a design\n")
        with pytest.raises(ConfigError):
            load_design(path)


def saved_design_lines(tmp_path):
    """Lines of a valid 4x10 wheel design file, values all 0.5."""
    problem = wheel_problem(n_radial=4, n_angular=10, simp_s=3.0)
    path = tmp_path / "good.txt"
    save_design(path, problem, np.full(problem.mesh.n_elements, 0.5))
    return path.read_text().splitlines()


class TestBadDesignFiles:
    """Malformed design files exit 2 and name the file and the line."""

    def render_error(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["render", str(path), "--out",
                     str(tmp_path / "bad.pgm")]) == 2
        assert not (tmp_path / "bad.pgm").exists()
        return capsys.readouterr().err

    def test_blank_header_line(self, tmp_path, capsys):
        lines = saved_design_lines(tmp_path)
        lines.insert(2, "")
        err = self.render_error(tmp_path, capsys, lines)
        assert "bad.txt:3: blank line" in err

    @pytest.mark.parametrize("key", ["kind", "shape"])
    def test_missing_header_key(self, tmp_path, capsys, key):
        lines = [ln for ln in saved_design_lines(tmp_path)
                 if not ln.startswith(key + " ")]
        values_line = next(i for i, ln in enumerate(lines)
                           if ln.startswith("values ")) + 1
        err = self.render_error(tmp_path, capsys, lines)
        assert f"bad.txt:{values_line}: no {key!r} line" in err

    def test_malformed_shape_line(self, tmp_path, capsys):
        lines = saved_design_lines(tmp_path)
        lines[2] = "shape 4"
        assert "bad.txt:3: malformed 'shape' line" in self.render_error(
            tmp_path, capsys, lines)

    @pytest.mark.parametrize("line", ["simp nan", "rmin nan", "rmin inf"])
    def test_non_finite_header_number(self, tmp_path, capsys, line):
        lines = saved_design_lines(tmp_path)
        key = line.split()[0]
        i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
        lines[i] = line
        err = self.render_error(tmp_path, capsys, lines)
        assert f"bad.txt:{i + 1}: {key!r} is not finite" in err

    @pytest.mark.parametrize("line,message", [
        ("rmin -1", "filter radius must be nonnegative"),
        ("shape 0 10", "n_radial must be at least 1"),
        ("r_rim 1.5", "need 0 < r_inner_fixed < r_rim < 1"),
        ("simp 0.5", "SIMP exponent must be >= 1"),
        ("rmin 1e308", "filter radius 1e+308 is too large"),
    ], ids=["rmin-negative", "shape-0", "r-rim-1.5", "simp-0.5",
            "rmin-huge"])
    def test_out_of_range_header_number(self, tmp_path, capsys, line,
                                        message):
        lines = saved_design_lines(tmp_path)
        key = line.split()[0]
        i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
        lines[i] = line
        err = self.render_error(tmp_path, capsys, lines)
        assert f"bad.txt: {message}" in err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "half"])
    def test_bad_value(self, tmp_path, capsys, text):
        lines = saved_design_lines(tmp_path)
        lines[-3] = text
        err = self.render_error(tmp_path, capsys, lines)
        assert f"bad.txt:{len(lines) - 2}: design value is not" in err

    def test_truncated_values(self, tmp_path, capsys):
        lines = saved_design_lines(tmp_path)[:-1]
        assert "truncated design values" in self.render_error(
            tmp_path, capsys, lines)

    def test_line_after_the_values(self, tmp_path, capsys):
        # one value more than declared, then text: the first extra line
        lines = saved_design_lines(tmp_path) + ["0.7", "garbage"]
        err = self.render_error(tmp_path, capsys, lines)
        assert f"bad.txt:{len(lines) - 1}: line after the design values" in err

    def test_repeated_header_key(self, tmp_path, capsys):
        lines = saved_design_lines(tmp_path)
        i = next(i for i, ln in enumerate(lines) if ln.startswith("simp "))
        lines.insert(i + 1, "simp 4.0")
        err = self.render_error(tmp_path, capsys, lines)
        assert f"bad.txt:{i + 2}: repeated 'simp' line" in err

    def test_verify_rejects_nan_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_WHEEL, out=tmp_path / "o")
        lines = saved_design_lines(tmp_path)
        lines[-1] = "nan"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path), str(cfg), "--spec", "8",
                     "--out", str(tmp_path / "v.csv")]) == 2
        assert "design value is not finite" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("value", ["-0.5", "1.5"])
    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_value_outside_the_box_exit_2(self, tmp_path, capsys, command,
                                          value):
        # a density outside [0, 1] is no design: verify and render reject
        # it, naming the line
        text = TINY_PLATE.replace("nx = 10", "nx = 8").replace("ny = 5",
                                                              "ny = 4")
        cfg = write_config(tmp_path, text, out=tmp_path / "o")
        problem = build_problem(resolve_config(parse_config(cfg.read_text())))
        assert problem.mesh.shape == (8, 4)
        path = tmp_path / "bad.txt"
        save_design(path, problem, problem.initial_design())
        lines = path.read_text().splitlines()
        lines[-5] = value
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bad.out"
        args = ([str(path), str(cfg)] if command == "verify"
                else [str(path)])
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bad.txt:{len(lines) - 4}: design value is outside [0, 1]" \
            in err
        assert not out.exists()


class TestVerifyCommand:
    def test_verify_writes_csv_idempotently(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL, out=out)
        main(["run", str(cfg)])
        design = out / "wheel_smma_b2_tau0.5_seed0" / "design.txt"
        v1 = tmp_path / "v1.csv"
        assert main(["verify", str(design), str(cfg), "--spec", "30",
                     "--out", str(v1)]) == 0
        v2 = tmp_path / "v2.csv"
        assert main(["verify", str(design), str(cfg), "--spec", "30",
                     "--out", str(v2)]) == 0
        assert v1.read_bytes() == v2.read_bytes()
        header, row = v1.read_text().splitlines()
        assert header == "g_smooth,g_steepened,g_nonsmooth"
        assert len(row.split(",")) == 3

    @pytest.mark.parametrize("problem,flags,message", [
        ("wheel", ["--spec", "0"], "--spec: a rule needs at least 1 point"),
        ("wheel", ["--spec", "-3"], "--spec: a rule needs at least 1 point"),
        ("plate", ["--spec", "0", "3"],
         "--spec: a rule needs at least 1 point"),
        ("plate", ["--spec", "5"],
         "--spec: a rule needs at least 1 point on each of 2 coordinates, "
         "got (5,)"),
        ("wheel", ["--spec", "3", "3"],
         "--spec: a rule needs at least 1 point on each of 1 coordinates, "
         "got (3, 3)"),
    ], ids=["points-0", "points-negative", "grid-0", "points-on-plate",
            "grid-on-wheel"])
    def test_bad_rule_exit_2(self, tmp_path, capsys, problem, flags,
                             message):
        text = TINY_WHEEL if problem == "wheel" else TINY_PLATE
        cfg = write_config(tmp_path, text, out=tmp_path / "o")
        design = tmp_path / "design.txt"
        built = build_problem(resolve_config(parse_config(text)))
        save_design(design, built, built.initial_design())
        out = tmp_path / "v.csv"
        assert main(["verify", str(design), str(cfg), *flags,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_switched_run_verifies_at_its_last_exponent(self, tmp_path):
        # simp 3 switches to 4 at iteration 2, and 9 only at iteration 40
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL + "simp_schedule = 40 9 2 4\n",
                           out=out)
        assert main(["run", str(cfg)]) == 0
        design = out / "wheel_smma_b2_tau0.5_seed0" / "design.txt"
        header, rho = load_design(design)
        assert header["simp"] == 4.0
        v = tmp_path / "v.csv"
        assert main(["verify", str(design), str(cfg), "--spec", "30",
                     "--out", str(v)]) == 0
        problem = build_problem(resolve_config(parse_config(cfg.read_text())))
        want = dense_cc(rho, problem.with_simp(4.0), [30])
        assert v.read_text().splitlines()[1] == \
            ",".join(repr(float(g)) for g in want)
        # a config whose run ends on another exponent verifies another
        # design
        other = write_config(tmp_path, TINY_WHEEL, name="other.cfg", out=out)
        assert main(["verify", str(design), str(other), "--out",
                     str(tmp_path / "w.csv")]) == 2

    def test_bad_problem_value_exit_2(self, tmp_path, capsys):
        design = tmp_path / "design.txt"
        problem = wheel_problem(n_radial=4, n_angular=10, simp_s=3.0)
        save_design(design, problem, problem.initial_design())
        cfg = write_config(tmp_path, TINY_WHEEL.replace("simp = 3",
                                                        "simp = 0.5"),
                           out=tmp_path / "o")
        out = tmp_path / "v.csv"
        assert main(["verify", str(design), str(cfg), "--out",
                     str(out)]) == 2
        assert "SIMP exponent must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_design_length_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TINY_WHEEL, out=out)
        main(["run", str(cfg)])
        design = out / "wheel_smma_b2_tau0.5_seed0" / "design.txt"
        other = write_config(tmp_path, TINY_WHEEL.replace("n_radial = 4",
                                                          "n_radial = 5"),
                             name="other.cfg", out=out)
        assert main(["verify", str(design), str(other)]) == 2

    @pytest.mark.parametrize("config,design_problem,message", [
        (TINY_WHEEL, lambda: plate_problem(nx=8, ny=5, n_omega=2),
         "design kind 'rect' does not match the wheel mesh's 'disc'"),
        (TINY_WHEEL, lambda: wheel_problem(n_radial=5, n_angular=8,
                                           simp_s=3.0),
         "design shape (5, 8) does not match the wheel mesh's (4, 10)"),
        (TINY_PLATE, lambda: plate_problem(nx=10, ny=5, n_omega=4, ell=2.0),
         "design height 2.0 does not match the plate mesh's 1.0"),
    ], ids=["kind", "shape", "geometry"])
    def test_design_from_another_mesh_exit_2(self, tmp_path, capsys, config,
                                             design_problem, message):
        # the same element count as the configured mesh, so only the
        # header tells the meshes apart
        cfg = write_config(tmp_path, config, out=tmp_path / "o")
        problem = design_problem()
        assert problem.mesh.n_elements == build_problem(resolve_config(
            parse_config(config.format(out="o")))).mesh.n_elements
        design = tmp_path / "design.txt"
        save_design(design, problem, problem.initial_design())
        out = tmp_path / "v.csv"
        assert main(["verify", str(design), str(cfg), "--out",
                     str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (("simp = 3", "simp = 5"), "design simp 3.0 does not match the "
                                   "configured 5.0"),
        (("simp = 3", "simp = 3\nrmin = 0.5"),
         "design rmin 0.3375 does not match the configured 0.5"),
    ], ids=["simp", "rmin"])
    def test_design_from_another_model_exit_2(self, tmp_path, capsys, edit,
                                              message):
        # the same mesh: only the header's simp and rmin tell them apart
        design = tmp_path / "design.txt"
        problem = wheel_problem(n_radial=4, n_angular=10, simp_s=3.0)
        save_design(design, problem, problem.initial_design())
        cfg = write_config(tmp_path, TINY_WHEEL.replace(*edit),
                           out=tmp_path / "o")
        out = tmp_path / "v.csv"
        assert main(["verify", str(design), str(cfg), "--out",
                     str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRenderCommand:
    def header(self, kind="rect"):
        if kind == "rect":
            return {"kind": "rect", "shape": (2, 2), "simp": 1.0,
                    "rmin": 0.0, "width": 2.0, "height": 2.0}
        return {"kind": "disc", "shape": (3, 12), "simp": 1.0,
                "rmin": 0.0, "r_inner": 0.1, "r_rim": 0.9}

    def test_solid_is_black(self):
        data = render_pgm(self.header(), np.ones(4))
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == b"\x00\x00\x00\x00"

    def test_void_is_white(self):
        data = render_pgm(self.header(), np.zeros(4))
        assert data[-4:] == b"\xff\xff\xff\xff"

    def test_checkerboard_pattern(self):
        # element order is x-fastest from the bottom; row 0 of the image is
        # the top of the domain, so the top row is elements 2, 3 (void, solid)
        rho = np.array([1.0, 0.0, 0.0, 1.0])
        data = render_pgm(self.header(), rho)
        assert data[-4:] == b"\xff\x00\x00\xff"

        # the checkerboard is symmetric under a left-right mirror and a
        # transpose; a lone solid element on a 3x2 mesh is not. Element 0
        # (bottom-left) pins the row flip and the width-first header;
        # element 1 (bottom row, second column) pins the x-fastest order
        header = {"kind": "rect", "shape": (3, 2), "simp": 1.0,
                  "rmin": 0.0, "width": 3.0, "height": 2.0}
        head = b"P5\n3 2\n255\n"
        data = render_pgm(header, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert data.startswith(head)
        assert data[len(head):] == b"\xff\xff\xff\x00\xff\xff"
        data = render_pgm(header, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        assert data[len(head):] == b"\xff\xff\xff\xff\x00\xff"

    def test_disc_render_shape_and_background(self):
        rho = np.ones(36)
        data = render_pgm(self.header("disc"), rho, size=64)
        assert data.startswith(b"P5\n64 64\n255\n")
        img = np.frombuffer(data.split(b"\n", 3)[3], dtype=np.uint8)
        img = img.reshape(64, 64)
        assert img[0, 0] == 255          # outside the disc
        assert img[32, 52] == 0          # inside the annulus, solid

    def test_cli_render_end_to_end(self, tmp_path):
        problem = wheel_problem(n_radial=4, n_angular=10, simp_s=3.0)
        path = tmp_path / "d.txt"
        save_design(path, problem, np.ones(problem.mesh.n_elements))
        out = tmp_path / "d.pgm"
        assert main(["render", str(path), "--out", str(out),
                     "--size", "32"]) == 0
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_cli_render_size_below_one_exit_2(self, tmp_path, capsys, size):
        problem = wheel_problem(n_radial=4, n_angular=10, simp_s=3.0)
        path = tmp_path / "d.txt"
        save_design(path, problem, np.ones(problem.mesh.n_elements))
        out = tmp_path / "d.pgm"
        assert main(["render", str(path), "--out", str(out),
                     "--size", size]) == 2
        assert "--size must be at least 1" in capsys.readouterr().err
        assert not out.exists()
