"""Shim coverage and span arithmetic of the traced run."""

import pytest

import kaczmarz_lab as kl
import kaczmarz_lab.cli  # noqa: F401  (loads every module the CLI binds)
from kaczmarz_lab import experiments, noise_stats, operator, spectral

import tracing
from tracing import Span


@pytest.fixture
def tracer():
    t = tracing.Tracer("test")
    undo = tracing.install(t)
    yield t
    undo()


def test_every_binding_is_patched(tracer):
    assert tracing.unpatched() == []
    # bindings made by `from .x import y` in other modules
    for binding in (experiments.svd, operator.eig_general, spectral.eig_general,
                    spectral.build_L, spectral.restrict_to_V, noise_stats.run,
                    noise_stats.apply_Ak_sharp, kaczmarz_lab.cli.run_command):
        assert hasattr(binding, "__perfbench_original__")


def test_unpatched_reports_leftovers():
    undo = tracing.install(tracing.Tracer("test"))
    original = spectral.build_L.__perfbench_original__
    spectral.build_L = original
    try:
        assert tracing.unpatched() == ["kaczmarz_lab.spectral.build_L"]
    finally:
        undo()
    assert "kaczmarz_lab.spectral.build_L" in tracing.unpatched()


def test_undo_restores_originals():
    before = spectral.eig_general
    tracing.install(tracing.Tracer("test"))()
    assert spectral.eig_general is before


def _span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, "r", 0.0, 0.0, attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: union of children is 1..6
        _span("a.child", 2.0, 3.0, 1),
        _span("c", 9.0, 12.0, 0),     # runs past its parent: only 9..10 counts
    ]
    kids = tracing.children_of(spans)
    assert tracing.self_time(spans, kids, 0) == pytest.approx(10.0 - 5.0 - 1.0)
    assert tracing.self_time(spans, kids, 1) == pytest.approx(2.0)
    assert tracing.self_time(spans, kids, 3) == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_tree():
    spans = [
        _span("spectral.scan", 0.0, 10.0, points=2),
        _span("operator.build_L", 1.0, 2.0, 0),
        _span("operator.restrict", 2.0, 5.0, 0),
        _span("linalg.tri_solve", 3.0, 4.0, 2),
        _span("operator.build_L", 6.0, 7.0, 0),
        _span("operator.restrict", 7.0, 8.0, 0),
        _span("solvers.run", 11.0, 13.0, row_updates=100, solve_key="standard:x"),
        _span("solvers.run", 13.0, 14.0, row_updates=100, solve_key="standard:x"),
        _span("solvers.run", 14.0, 15.0, row_updates=200, solve_key="symmetric:x"),
    ]
    m = tracing.layer_metrics(spans)
    assert m["spectral.scan_self_s"] == pytest.approx(4.0)
    assert m["spectral.scan_points"] == 2
    assert m["operator.restrict_s"] == pytest.approx(4.0)
    assert m["operator.build_L_calls"] == 2
    assert m["linalg.tri_solve_calls"] == 1
    assert m["solvers.run_calls"] == 3
    assert m["solvers.useful_solve_ratio"] == pytest.approx(2 / 3)
    assert m["solvers.row_update_rate"] == pytest.approx(400 / 4.0)
    assert m["linalg.eig_calls"] == 0 and m["linalg.eig_cpu_per_wall"] == 0.0


def test_counts_on_small_commands(tracer, tmp_path):
    cfg = experiments.ExperimentConfig(n=16, d=0.01, omega_grid=(0.5, 1.0, 1.5))
    experiments.run_command("omegasweep", cfg, tmp_path / "scan")
    cfg = experiments.ExperimentConfig(n=16, d=0.06, sweeps=5, methods=("standard",),
                                       sigma=5e-3, realizations=3)
    experiments.run_command("errhist", cfg, tmp_path / "hist")
    m = tracing.layer_metrics(tracer.spans)
    assert m["operator.build_L_calls"] == 3
    assert m["spectral.scan_points"] == 3
    assert m["linalg.eig_calls"] == 0
    # one clean run, then a clean and a noisy run per realization
    assert m["solvers.run_calls"] == 7
    assert m["solvers.useful_solve_ratio"] == pytest.approx(4 / 7)
    assert m["solvers.row_updates"] == 7 * 16 * 5
    assert all(s.run_id == "test" for s in tracer.spans)


def test_public_api_still_works_when_traced(tracer):
    p = kl.gravity(16, 0.02)
    rep = kl.spectrum(kl.restrict_to_V(p.A, kl.build_L(p.A, 1.0), kl.svd(p.A)))
    assert 0.0 < rep.rho < 1.0
    assert [s.name for s in tracer.spans if s.parent is None] == [
        "problems.build", "operator.build_L", "linalg.svd", "operator.restrict",
        "spectral.spectrum",
    ]
