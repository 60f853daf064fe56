"""Tests for the command-line driver and the experiment commands."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import dtrsm

from kaczmarz_lab import experiments, linalg, operator, spectral
from kaczmarz_lab.cli import build_parser, main
from kaczmarz_lab.errors import ConfigError, NumericalError
from kaczmarz_lab.experiments import COMMANDS, SETTINGS, ExperimentConfig, run_command


def _csv_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


SMALL = {
    "eigplot": ["--problem", "gravity", "--n", "32", "--d", "0.06"],
    "errhist": ["--problem", "gravity", "--n", "32", "--d", "0.06",
                "--sweeps", "40", "--sigma", "0.002", "--realizations", "3",
                "--methods", "standard", "symmetric", "cgls"],
    "omegasweep": ["--problem", "gravity", "--n", "32", "--d", "0.06",
                   "--omega-grid", "0.5", "1.0", "1.5"],
    "noisestats": ["--problem", "gravity", "--n", "32", "--d", "0.06",
                   "--sigma", "0.001", "--n-mc", "200", "--ks", "1", "5", "10"],
    "bounds": ["--problem", "gravity", "--n", "32", "--d", "0.06"],
    "structure": ["--problem", "gravity", "--n", "32", "--d", "0.06"],
}

EXPECTED_CSVS = {
    "eigplot": {"spectrum.csv"},
    "errhist": {"history_standard.csv", "history_symmetric.csv", "history_cgls.csv",
                "split_standard.csv", "split_symmetric.csv", "split_cgls.csv"},
    "omegasweep": {"scan.csv"},
    "noisestats": {"expectation.csv", "xi.csv", "monotonicity.csv"},
    "bounds": {"bounds.csv"},
    "structure": {"structure.csv"},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_writes_expected_files(command, tmp_path):
    out = tmp_path / "run"
    rc = main([command, *SMALL[command], "--out", str(out)])
    assert rc == 0
    outdir = out / command
    assert set(_csv_bytes(outdir)) == EXPECTED_CSVS[command]
    assert (outdir / "config.json").exists()
    assert (outdir / "summary.json").exists()
    # resolved config records the flag values used
    cfg = json.loads((outdir / "config.json").read_text())
    assert cfg["problem"] == "gravity" and cfg["n"] == 32


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_rerun_byte_identical(command, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([command, *SMALL[command], "--out", str(out)]) == 0
        outs.append(_csv_bytes(out / command))
    assert outs[0] == outs[1]
    assert all(outs[0].values())


TOMO24 = ["--problem", "paralleltomo", "--N", "24", "--n-angles", "32", "--rays", "32"]


@pytest.mark.parametrize("command, args", [
    pytest.param("omegasweep", SMALL["omegasweep"], id="omegasweep"),
    pytest.param("errhist", SMALL["errhist"], id="errhist"),
    pytest.param("eigplot", TOMO24, id="eigplot-tomo24"),
    pytest.param("noisestats", [*TOMO24, "--sigma", "5e-3", "--ks", "1", "20", "--n-mc", "20"],
                 id="noisestats-tomo24"),
])
def test_csv_independent_of_blas_threads(command, args, tmp_path, monkeypatch):
    # the thread rule of run_command must not change a byte: the same CSVs
    # under the rule (one thread on the SMALL configs, the counts untouched
    # for the tomography commands) and on the library's default of two or
    # more.  At r = 576 LAPACK's eigenvectors move with the thread count, so
    # the tomography cases check that the rule leaves their counts alone
    if max(get() for get, _ in linalg._openblas_thread_controls()) < 2:
        pytest.skip("needs an OpenBLAS with at least two threads")
    assert main([command, *args, "--out", str(tmp_path / "rule")]) == 0
    monkeypatch.setattr(experiments, "ONE_THREAD_MAX_DIM", 0)
    assert main([command, *args, "--out", str(tmp_path / "multi")]) == 0
    assert _csv_bytes(tmp_path / "multi" / command) == _csv_bytes(tmp_path / "rule" / command)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestErrhistWorkers:
    """errhist deals its methods to forked workers, one per usable CPU."""

    @staticmethod
    def _forbid_fork(monkeypatch):
        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)

    def test_outputs_same_bytes_on_1_2_3_workers(self, tmp_path, monkeypatch):
        outs = []
        for w in (1, 2, 3):
            with monkeypatch.context() as m:
                m.setattr(spectral, "_usable_cpus", lambda: w)
                if w == 1:
                    self._forbid_fork(m)
                out = tmp_path / str(w)
                assert main(["errhist", *SMALL["errhist"], "--out", str(out)]) == 0
            outdir = out / "errhist"
            # the plot lists the methods in the configured order
            outs.append({**_csv_bytes(outdir), **{name: (outdir / name).read_bytes()
                                                  for name in ("summary.json", "errhist.svg")}})
            _no_child_left()
        assert set(outs[0]) == EXPECTED_CSVS["errhist"] | {"summary.json", "errhist.svg"}
        assert outs[0] == outs[1] == outs[2]

    def test_worker_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # with two workers the symmetric sweep is dealt to the child
        parent, run = os.getpid(), experiments.run

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericalError("sweep failed in a worker")
            return run(*args, **kwargs)

        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "run", failing)
        assert main(["errhist", *SMALL["errhist"], "--out", str(tmp_path)]) == 3
        assert "sweep failed in a worker" in capsys.readouterr().err
        _no_child_left()

    def test_one_method_never_forks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 3)
        self._forbid_fork(monkeypatch)
        argv = SMALL["errhist"][:SMALL["errhist"].index("--methods")]
        assert main(["errhist", *argv, "--methods", "cgls", "--out", str(tmp_path)]) == 0
        assert set(_csv_bytes(tmp_path / "errhist")) == {"history_cgls.csv", "split_cgls.csv"}


@pytest.mark.parametrize("command, fname", [("eigplot", "spectrum.csv"), ("noisestats", "xi.csv")])
def test_modulus_is_scalar_abs(command, fname, tmp_path):
    # the CSV moduli are what scalar abs() of the complex value gives; np.abs
    # on a complex array rounds some of them differently in the last bit
    assert main([command, *SMALL[command], "--out", str(tmp_path)]) == 0
    lines = (tmp_path / command / fname).read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 32
    for row in rows:
        assert float(row["modulus"]) == abs(complex(float(row["re"]), float(row["im"])))


class TestOutputStep:
    # run_command writes config.json before the command and summary.json,
    # from the returned dict, after it
    def test_config_error_leaves_config_only(self, tmp_path):
        cfg = ExperimentConfig(problem="gravity", n=16, d=0.1)
        with pytest.raises(ConfigError, match="sigma"):
            run_command("noisestats", cfg, outdir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert json.loads((tmp_path / "config.json").read_text()) == cfg.as_dict()

    @pytest.mark.parametrize("fields, match", [
        ({"omega_grid": (1.0, 1.0), "sweeps": -3}, "sweeps must be a nonnegative integer"),
        ({"omega_grid": (1.0, 1.0)}, "omega_grid must not repeat a value"),
    ], ids=["repeat-and-negative-sweeps", "repeat"])
    def test_bad_config_writes_no_file(self, fields, match, tmp_path):
        # a library caller's config is validated as the CLI's is; the
        # repeated omega used to write two identical scan.csv rows
        cfg = ExperimentConfig(n=8, **fields)
        with pytest.raises(ConfigError, match=match):
            run_command("omegasweep", cfg, outdir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, fields", [
        ("eigplot", {}),
        ("errhist", {"sweeps": 5, "sigma": 1e-3, "realizations": 2,
                     "methods": ("standard", "cgls")}),
        ("omegasweep", {"omega_grid": (0.5, 1.0)}),
        ("noisestats", {"sigma": 1e-3, "n_mc": 10}),
        ("bounds", {"omegas_bounds": (1.0,)}),
        ("structure", {}),
    ], ids=["eigplot", "errhist", "omegasweep", "noisestats", "bounds", "structure"])
    def test_summary_file_is_the_returned_dict(self, command, fields, tmp_path):
        cfg = ExperimentConfig(problem="gravity", n=32, d=0.06, **fields)
        summary = run_command(command, cfg, outdir=tmp_path)
        assert isinstance(summary, dict) and summary
        assert json.loads((tmp_path / "summary.json").read_text()) == summary


def test_eigendecomposition_commands_use_no_numpy_lapack(tmp_path, no_numpy_lapack):
    # every dense kernel of eigplot, noisestats and bounds is scipy's, so the
    # two OpenBLAS builds never alternate inside a command
    for command, extra in (("eigplot", []), ("bounds", []),
                           ("noisestats", ["--sigma", "5e-3", "--ks", "1", "20", "--n-mc", "20"])):
        assert main([command, *TOMO24, *extra, "--out", str(tmp_path)]) == 0


def test_noisestats_one_eigendecomposition(tmp_path, monkeypatch):
    # sharp_maps' eigendecomposition is the only one: noisestats reads its
    # eigenvalues and kappa_W from there and builds no spectrum report
    shapes = []

    def counting(M):
        shapes.append(np.shape(M))
        return linalg.eig_general(M)

    for module in (operator, spectral):
        monkeypatch.setattr(module, "eig_general", counting)
    assert main(["noisestats", *SMALL["noisestats"], "--out", str(tmp_path)]) == 0
    assert shapes == [(32, 32)]


def test_commands_never_import_scipy_linalg(tmp_path, subprocess_env):
    # importing the scipy.linalg package takes about 0.3 s of each CLI
    # process; the package binds scipy's compiled BLAS and LAPACK without it.
    # The forked workers are bare os.fork children: importing
    # multiprocessing or concurrent.futures costs 17-28 ms of start-up.
    # np.unique imports numpy.ma, 10-20 ms of a noisestats process
    script = ("import json, sys\n"
              "heavy = ['scipy.linalg', 'multiprocessing', 'concurrent.futures', 'subprocess',\n"
              "         'numpy.ma']\n"
              "import kaczmarz_lab.cli as cli\n"
              "seen = [[m for m in heavy if m in sys.modules]]\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main([*argv, '--out', sys.argv[2]]) == 0\n"
              "    seen.append([m for m in heavy if m in sys.modules])\n"
              "print(json.dumps(seen))\n")
    runs = [[command, *SMALL[command]] for command in sorted(SMALL)]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                          capture_output=True, text=True, env=subprocess_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[]] * (1 + len(SMALL))


def test_L_inverse_only_through_dtrsm(tmp_path, monkeypatch):
    # every L^-1 and L^-T of the library is LFactor.solve, the one dtrsm
    # call, on the view L.T; solve_lower/solve_upper stay as test
    # references only
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_lower/solve_upper called by the library")

    callers = set()

    def tracking(*args, **kwargs):
        callers.add(sys._getframe(1).f_code)
        return dtrsm(*args, **kwargs)

    bound = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("kaczmarz_lab"):
            for fn in ("solve_lower", "solve_upper"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, forbidden)
            if getattr(module, "dtrsm", None) is dtrsm:
                bound.add(name)
                monkeypatch.setattr(module, "dtrsm", tracking)
    assert bound == {"kaczmarz_lab.operator"}
    errhist = SMALL["errhist"][:SMALL["errhist"].index("--methods")]
    runs = [[command, *SMALL[command]] for command in ("bounds", "noisestats")]
    runs.append(["errhist", *errhist, "--methods", "standard", "symmetric", "randomized"])
    for argv in runs:
        assert main([*argv, "--out", str(tmp_path)]) == 0
    p = experiments.make_problem(ExperimentConfig(problem="gravity", n=32, d=0.06))
    assert operator.convergence_conditions(p.A, 1.0)["e"]
    sm = operator.sharp_maps(p.A, operator.build_L(p.A, 1.0), linalg.svd(p.A),
                             variant="symmetric")
    assert sm.M.shape[1] == p.m
    assert operator.fixed_point(p, p.b_bar, variant="symmetric").shape == (p.n,)
    assert callers == {operator.LFactor.solve.__code__}


def test_bounds_one_gram(tmp_path, monkeypatch):
    # every omega's factor differs from L_1 only in the diagonal, so a
    # default bounds command forms A A^T once
    calls = []
    real = operator.build_L

    def counting(A, omega):
        calls.append(omega)
        return real(A, omega)

    for name, module in list(sys.modules.items()):
        if name.startswith("kaczmarz_lab") and getattr(module, "build_L", None) is real:
            monkeypatch.setattr(module, "build_L", counting)
    assert main(["bounds", *SMALL["bounds"], "--out", str(tmp_path)]) == 0
    assert calls == [1.0]


def test_bounds_one_kappa_X(tmp_path, monkeypatch):
    # kappa_X is taken at omega = 1: one eigendecomposition per command, in
    # the one bauer_fike_bound, and rho_bounds reads eigenvalues only; the
    # bf_bound column is the bound that the factor at each omega gives
    shapes = []

    def counting(M):
        shapes.append(np.shape(M))
        return linalg.eig_general(M)

    monkeypatch.setattr(spectral, "eig_general", counting)
    assert main(["bounds", *SMALL["bounds"], "--out", str(tmp_path)]) == 0
    assert shapes == [(32, 32)]
    monkeypatch.undo()
    cfg = ExperimentConfig.from_sources(overrides={"problem": "gravity", "n": 32, "d": 0.06})
    p = experiments.make_problem(cfg)
    bf = [spectral.bauer_fike_bound(p.A, operator.build_L(p.A, w)) for w in cfg.omegas_bounds]
    rows = (tmp_path / "bounds" / "bounds.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[7]) for r in rows] == bf


def test_bounds_no_eigendecomposition_for_orthogonal_rows(tmp_path, monkeypatch):
    # the first two tomography rays cross no common pixel, so a_1^T a_2 is
    # exactly 0.0 and so is bf_bound, with no eigendecomposition behind it
    shapes = []

    def counting(M):
        shapes.append(np.shape(M))
        return linalg.eig_general(M)

    monkeypatch.setattr(spectral, "eig_general", counting)
    args = ["--problem", "paralleltomo", "--N", "16", "--n-angles", "16", "--rays", "16"]
    assert main(["bounds", *args, "--out", str(tmp_path)]) == 0
    assert shapes == []
    rows = (tmp_path / "bounds" / "bounds.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[7]) for r in rows] == [0.0, 0.0, 0.0]


class TestExitCodes:
    def test_config_error_bad_omega(self, tmp_path, capsys):
        rc = main(["eigplot", "--problem", "gravity", "--omega", "2.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_bad_grid(self, tmp_path):
        rc = main(["omegasweep", "--problem", "gravity", "--n", "16",
                   "--omega-grid", "0.5", "2.5", "--out", str(tmp_path)])
        assert rc == 2

    def test_config_error_missing_file(self, tmp_path):
        rc = main(["eigplot", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_config_error_size_cap(self, tmp_path):
        rc = main(["eigplot", "--problem", "gravity", "--n", "8192",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_numerical_failure(self, tmp_path, capsys):
        # baart's restricted operator has a numerically-unit eigenvalue at
        # the default rank cut, so the fixed-point machinery refuses
        rc = main(["noisestats", "--problem", "baart", "--n", "32",
                   "--sigma", "0.001", "--n-mc", "10", "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--im-tol", "nan"), ("--zero-tol", "-1"),
                                             ("--rank-tol", "-1")])
    def test_config_error_bad_tolerance(self, flag, value, tmp_path, capsys):
        rc = main(["omegasweep", "--problem", "gravity", "--n", "16",
                   "--omega-grid", "0.5", "1.0", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_config_error_tolerance_not_a_number(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "gravity", "n": 16, "zero_tol": "abc"}))
        assert main(["eigplot", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, args", [
        ("errhist", ["--sigma", "nan"]),
        ("errhist", ["--sigma", "inf"]),
        ("noisestats", ["--sigma", "nan"]),
        ("noisestats", ["--sigma", "0.01", "--ks", "0"]),
        ("noisestats", ["--sigma", "0.01", "--ks", "-1"]),
        ("structure", ["--n", "0"]),
        ("structure", ["--problem", "paralleltomo", "--N", "0"]),
        ("structure", ["--problem", "paralleltomo", "--N", "8", "--rays", "0"]),
        ("errhist", ["--methods", "randomized", "--solver-seed", "-1"]),
        ("eigplot", {"sigma": "abc"}),
        ("structure", ["--problem", "paralleltomo", "--N", "4", "--n-angles", "2",
                       "--rays", "2", "--width", "1000"]),
        ("omegasweep", ["--omega-grid", "1.0", "1.0"]),
        ("omegasweep", {"omega_grid": [1, 1.0]}),
        ("bounds", ["--omegas-bounds", "0.5", "0.5"]),
        ("errhist", ["--methods", "standard", "standard"]),
        ("noisestats", ["--sigma", "0.01", "--ks", "5", "5"]),
        ("errhist", ["--sweeps", "0", "--methods", "cgls", "standard"]),
    ], ids=["sigma-nan", "sigma-inf", "noisestats-sigma-nan", "ks-0", "ks-negative", "n-0",
            "N-0", "rays-0", "solver-seed-negative", "sigma-string", "rays-miss-grid",
            "omega-grid-repeat", "omega-grid-repeat-int", "omegas-bounds-repeat",
            "methods-repeat", "ks-repeat", "errhist-sweeps-0"])
    def test_config_error_bad_value(self, command, args, tmp_path, capsys):
        if isinstance(args, dict):
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"problem": "gravity", "n": 16, **args}))
            args = ["--config", str(cfg_file)]
        else:
            args = ["--problem", "gravity", "--n", "16", *args]
        assert main([command, *args, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_noisestats_requires_noise(self, tmp_path):
        rc = main(["noisestats", "--problem", "gravity", "--n", "16",
                   "--sigma", "0", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("name, text", [
        ("bad.toml", "n = \n"),
        ("list.json", "[1, 2]"),
        ("string.json", '"abc"'),
        ("dir.json", None),
    ], ids=["toml-decode", "json-list", "json-string", "directory"])
    def test_config_error_bad_file(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert main(["structure", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err


class TestConfigSources:
    def test_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "gravity", "n": 16, "d": 0.1,
                                        "omega": 0.5}))
        out = tmp_path / "out"
        rc = main(["eigplot", "--config", str(cfg_file), "--omega", "1.0",
                   "--out", str(out)])
        assert rc == 0
        resolved = json.loads((out / "eigplot" / "config.json").read_text())
        assert resolved["n"] == 16          # from file
        assert resolved["omega"] == 1.0     # flag wins

    def test_toml_config(self, tmp_path):
        try:
            import tomllib  # noqa: F401
        except ImportError:
            pytest.importorskip("tomli")
        cfg_file = tmp_path / "cfg.toml"
        cfg_file.write_text('problem = "gravity"\nn = 16\nd = 0.1\n')
        rc = main(["structure", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "gravity", "bogus": 1}))
        assert main(["eigplot", "--config", str(cfg_file)]) == 2

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KACZMARZ_LAB_OUT", str(tmp_path / "envroot"))
        rc = main(["structure", "--problem", "gravity", "--n", "16", "--d", "0.1"])
        assert rc == 0
        assert (tmp_path / "envroot" / "structure" / "structure.csv").exists()

    def test_console_entry_point(self, tmp_path, subprocess_env):
        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "kaczmarz_lab.cli", *argv,
                                   "--out", str(tmp_path)],
                                  capture_output=True, text=True, env=subprocess_env)

        proc = cli("structure", "--problem", "gravity", "--n", "16", "--d", "0.1")
        assert proc.returncode == 0, proc.stderr
        # the benchmark's checker reads the printed omega0 against summary.json
        proc = cli("omegasweep", *SMALL["omegasweep"])
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "omegasweep" / "summary.json").read_text())
        assert f"omega0 = {summary['omega0']}" in proc.stdout.splitlines()
        proc = cli("noisestats", "--problem", "gravity", "--n", "16")
        assert proc.returncode == 2
        assert "config error: noisestats requires sigma > 0" in proc.stderr
        # main called in-process freezes nothing
        assert main(["structure", "--problem", "gravity", "--n", "16",
                     "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == 0

    def test_entry_freezes_before_main(self, subprocess_env):
        # python -m kaczmarz_lab.cli and the installed script both run entry()
        script = ("import gc\n"
                  "import kaczmarz_lab.cli as cli\n"
                  "cli.main = lambda: print(gc.get_freeze_count()) or 7\n"
                  "cli.entry()\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=subprocess_env)
        assert proc.returncode == 7, proc.stderr
        assert int(proc.stdout) > 1000
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        if pyproject.exists():
            assert 'kaczmarz-lab = "kaczmarz_lab.cli:entry"' in pyproject.read_text()


class TestSettings:
    # each ExperimentConfig field declares its flag, its config key and its
    # check; the parser and the config must agree on all three
    def test_one_flag_per_field(self):
        subs = next(a for a in build_parser()._actions if a.dest == "command").choices
        assert set(subs) == set(COMMANDS)
        for sub in subs.values():
            actions = [a for a in sub._actions if a.dest not in ("help", "config")]
            assert [a.dest for a in actions] == [f.name for f, _, _ in SETTINGS]
            for a, (f, kind, many) in zip(actions, SETTINGS):
                assert a.option_strings == ["--" + f.name.replace("_", "-")]
                assert a.type is kind and a.default is None
                assert a.nargs == ("+" if many else None)
                assert a.choices == f.metadata["rule"].get("choices")

    def test_config_json_resolves_to_the_same_config(self, tmp_path):
        argv = ["structure", "--problem", "paralleltomo", "--N", "8", "--n-angles", "4",
                "--rays", "8", "--methods", "symmetric", "cgls", "--ks", "2", "7",
                "--omega-grid", "0.5", "1", "--omegas-bounds", "1.5", "--width", "6",
                "--out", str(tmp_path)]
        args = vars(build_parser().parse_args(argv))
        cfg = ExperimentConfig.from_sources(
            overrides={k: v for k, v in args.items() if k not in ("command", "config")})
        assert main(argv) == 0
        written = tmp_path / "structure" / "config.json"
        text = written.read_text()
        back = ExperimentConfig.from_sources(written)
        assert back == cfg
        assert back.methods == ("symmetric", "cgls") and back.ks == (2, 7)
        assert back.omega_grid == (0.5, 1.0) and back.omegas_bounds == (1.5,)
        assert main(["structure", "--config", str(written)]) == 0
        assert written.read_text() == text

    def test_list_settings_become_tuples_of_their_type(self):
        cfg = ExperimentConfig(omega_grid=[1, 0.5], omegas_bounds=[1], ks=[3], methods=["cgls"])
        cfg.validate()
        assert cfg.omega_grid == (1.0, 0.5) and cfg.omegas_bounds == (1.0,)
        assert all(type(w) is float for w in (*cfg.omega_grid, *cfg.omegas_bounds))
        assert cfg.ks == (3,) and cfg.methods == ("cgls",)


class TestEigplot:
    def test_prints_rho_ten_digits(self, tmp_path, capsys):
        main(["eigplot", "--problem", "gravity", "--n", "32", "--d", "0.01",
              "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "rho = 0." in out
        digits = out.split("rho = ")[1].split()[0]
        assert len(digits.split(".")[1]) == 10

    def test_flags_complex_extremal_pair(self, tmp_path):
        summary = run_command(
            "eigplot",
            ExperimentConfig(problem="gravity", n=128, d=0.01, omega=1.4),
            outdir=tmp_path,
        )
        assert summary["top_is_complex"]

    def test_diagonal_problem_real_axis(self, tmp_path):
        # orthogonal rows keep the whole spectrum on the real axis
        summary = run_command(
            "eigplot",
            ExperimentConfig(problem="gravity", n=16, d=0.1, omega=0.5),
            outdir=tmp_path,
        )
        rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 16
        assert (tmp_path / "spectrum.svg").read_text().startswith("<svg")


class TestErrhist:
    def test_one_step_convergence_for_first_row_solution(self, tmp_path):
        # ground truth aligned with the first row converges in one sweep
        summary = run_command(
            "errhist",
            ExperimentConfig(problem="gravity", n=128, d=0.03,
                             xbar_mode="first-row", sweeps=1),
            outdir=tmp_path,
        )
        assert summary["methods"]["standard"]["final_error"] <= 1e-10

    def test_ct_default_order_faster_first_sweep(self, tmp_path):
        # the angle-major default ordering has more structurally orthogonal
        # leading rows (more exact zero eigenvalues), which shows up in the
        # very first sweep; both orderings converge rapidly after that
        finals = {}
        for ordering in ("default", "random"):
            summary = run_command(
                "errhist",
                ExperimentConfig(problem="paralleltomo", N=32, n_angles=32,
                                 rays=32, ordering=ordering, ordering_seed=0,
                                 sweeps=1),
                outdir=tmp_path / ordering,
            )
            finals[ordering] = summary["methods"]["standard"]["final_error"]
        assert finals["default"] < finals["random"]

    @pytest.mark.parametrize("d", [0.01, 0.02])
    def test_symmetric_faster_than_standard(self, tmp_path, d):
        # the down-up double sweep contracts faster per cycle on these
        # problems (smaller spectral radius), visible within ten sweeps
        summary = run_command(
            "errhist",
            ExperimentConfig(problem="gravity", n=128, d=d, sweeps=10,
                             methods=("standard", "symmetric")),
            outdir=tmp_path,
        )
        assert (summary["methods"]["symmetric"]["final_error"]
                < summary["methods"]["standard"]["final_error"])

    def test_split_has_all_realizations(self, tmp_path):
        run_command(
            "errhist",
            ExperimentConfig(problem="gravity", n=16, d=0.1, sweeps=10,
                             sigma=1e-3, realizations=4),
            outdir=tmp_path,
        )
        lines = (tmp_path / "split_standard.csv").read_text().strip().splitlines()
        assert lines[0] == "k,recon,iter,noise,realization"
        assert len(lines) == 1 + 4 * 11


class TestOmegasweep:
    def test_scan_csv_schema_and_omega0(self, tmp_path, capsys):
        run_command(
            "omegasweep",
            ExperimentConfig(problem="gravity", n=32, d=0.06,
                             omega_grid=tuple(np.round(np.arange(0.02, 0.2, 0.02), 3))),
            outdir=tmp_path,
        )
        lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,rho,max_im,zero_count,n_nonpos_real"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["omega0"] is not None


class TestBounds:
    def test_rows_per_omega(self, tmp_path):
        summary = run_command(
            "bounds",
            ExperimentConfig(problem="gravity", n=32, d=0.06,
                             omegas_bounds=(0.8, 1.0)),
            outdir=tmp_path,
        )
        lines = (tmp_path / "bounds.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert len(summary["rows"]) == 2
