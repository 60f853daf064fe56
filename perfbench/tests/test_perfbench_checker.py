"""The output checker accepts the program's own outputs and rejects wrong ones."""

import csv
import gzip
import json

import pytest

from kaczmarz_lab import experiments

import checker
import spec


def _run(tmp_path, command, seed=0, **cfg):
    out = tmp_path / command
    config = experiments.ExperimentConfig(noise_seed=seed, mc_seed=seed + 1,
                                          solver_seed=seed, **cfg)
    experiments.run_command(command, config, out)
    return out


@pytest.fixture
def scan(tmp_path, capsys):
    out = _run(tmp_path, "omegasweep", n=16, d=0.01, omega_grid=(0.1, 0.5, 1.0, 1.5))
    ref = checker.make_reference("omegasweep-gravity", out, seed=0)
    return out, capsys.readouterr().out, ref


@pytest.fixture
def hist(tmp_path):
    out = _run(tmp_path, "errhist", n=16, d=0.06, sweeps=8, sigma=5e-3, realizations=3,
               methods=("standard", "symmetric", "cgls"))
    return out, checker.make_reference("errhist-gravity", out, seed=0)


def _scale_cell(path, row, col, factor):
    rows = list(csv.reader(open(path, newline="")))
    j = rows[0].index(col)
    rows[row + 1][j] = repr(float(rows[row + 1][j]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_accepts_own_outputs(scan, hist):
    out, stdout, ref = scan
    assert checker.check("omegasweep-gravity", out, stdout, 0, ref) == []
    out, ref = hist
    assert checker.check("errhist-gravity", out, "", 0, ref) == []


def test_admits_last_bit_moves(scan):
    out, stdout, ref = scan
    _scale_cell(out / "scan.csv", 2, "rho", 1 + 1e-13)
    assert checker.check("omegasweep-gravity", out, stdout, 0, ref) == []


def test_rejects_one_perturbed_rho(scan):
    out, stdout, ref = scan
    _scale_cell(out / "scan.csv", 2, "rho", 1 + 1e-9)
    problems = checker.check("omegasweep-gravity", out, stdout, 0, ref)
    assert problems and "scan.csv:rho[2]" in problems[0]


def test_rejects_one_perturbed_noise_value(hist):
    out, ref = hist
    _scale_cell(out / "split_symmetric.csv", 12, "recon", 1 + 1e-7)
    problems = checker.check("errhist-gravity", out, "", 0, ref)
    assert problems and "split_symmetric.csv:recon[12]" in problems[0]


@pytest.fixture
def other_seed(tmp_path):
    return _run(tmp_path / "other", "errhist", seed=5, n=16, d=0.06, sweeps=8, sigma=5e-3,
                realizations=3, methods=("standard", "symmetric", "cgls"))


def test_other_seed_is_recomputed(hist, other_seed):
    _, ref = hist
    assert checker.check("errhist-gravity", other_seed, "", 5, ref) == []
    _scale_cell(other_seed / "split_symmetric.csv", 20, "noise", 1 + 1e-7)
    problems = checker.check("errhist-gravity", other_seed, "", 5, ref)
    assert len(problems) == 1
    assert problems[0].startswith("split_symmetric.csv:noise (recomputed)[20]")


def test_other_seed_checks_invariants(hist, other_seed):
    _, ref = hist
    # cgls is not recomputed; its noise curves obey noise <= recon + iter
    _scale_cell(other_seed / "split_cgls.csv", 8, "noise", 1e4)
    assert "triangle" in checker.check("errhist-gravity", other_seed, "", 5, ref)[0]


def test_rejects_missing_file(scan):
    out, stdout, ref = scan
    (out / "scan.svg").unlink()
    problems = checker.check("omegasweep-gravity", out, stdout, 0, ref)
    assert problems and "file set" in problems[0]


def test_rejects_wrong_integer_and_omega0(scan):
    out, stdout, ref = scan
    assert checker.check("omegasweep-gravity", out, "omega0 = 0.3\n", 0, ref)
    _scale_cell(out / "scan.csv", 0, "n_nonpos_real", 1.0 + 1e-15)
    assert checker.check("omegasweep-gravity", out, stdout, 0, ref) == []
    rows = (out / "scan.csv").read_text().splitlines()
    rows[1] = ",".join(rows[1].split(",")[:-1] + ["1"])
    (out / "scan.csv").write_text("\n".join(rows) + "\n")
    assert checker.check("omegasweep-gravity", out, stdout, 0, ref)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_stored_references_cover_both_seeds(workload):
    with gzip.open(checker.REFS / f"{workload}.json.gz", "rt") as fh:
        ref = json.load(fh)
    assert sorted(ref["seeds"]) == sorted({str(spec.DEFAULT_SEED), str(spec.HELD_OUT_SEED)})
    assert set(ref["common"]) | set(ref["seeds"][str(spec.DEFAULT_SEED)]) == \
        set(checker.COLUMNS[workload])
