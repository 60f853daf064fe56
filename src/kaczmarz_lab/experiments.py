"""Experiment driver: validated configs and file-producing commands.

Each command consumes an :class:`ExperimentConfig`, writes CSV files (the
canonical artifacts) plus small SVG plots into its own output directory,
and returns a summary dict.  Every CSV goes through
:func:`~kaczmarz_lab.tables.write_table`.  :func:`run_command` owns the
rest of the directory: it writes the resolved configuration as
``config.json`` before the command runs and the returned summary as
``summary.json`` after it.  Every command is deterministic given (config,
seed): rerunning reproduces byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import noise_stats, spectral, svgplot
from .errors import ConfigError
from .linalg import _check_int, _check_real, blas_threads, svd
from .operator import build_L, restrict_to_V, sharp_maps
from .problems import (
    NoiseModel,
    TestProblem,
    add_noise,
    apply_ordering,
    baart,
    gravity,
    paralleltomo,
    random_ordering,
)
from .solvers import SweepConfig, cgls, run
from .tables import write_table

__all__ = ["ExperimentConfig", "COMMANDS", "run_command"]

OUTPUT_ROOT_ENV = "KACZMARZ_LAB_OUT"

_PROBLEMS = ("gravity", "baart", "paralleltomo")
_METHODS = ("standard", "symmetric", "randomized", "cgls")

#: Problems with max(m, n) up to this size run every command on one BLAS
#: thread; larger ones keep the library's count.  On a 2-vCPU host one
#: omega-scan step (build_L, restriction, eigvals) on gravity(n) took
#: 3.1/11.4/24.1/70.5 ms on one thread and 4.3/12.9/25.5/67.0 ms on two at
#: n = 128/256/384/512 (another run: two threads ahead from n = 384).  The
#: rule reads the size alone, never the host.
ONE_THREAD_MAX_DIM = 256


@dataclass
class ExperimentConfig:
    """Validated knobs shared by all commands; flags override file values."""

    problem: str = "gravity"
    n: int = 128                      # gravity / baart size
    d: float = 0.01                   # gravity depth
    N: int = 32                       # tomography image side
    n_angles: int = 32
    rays: int = 32
    width: float | None = None        # detector width (default: rays - 1)
    ordering: str = "default"         # default | random
    ordering_seed: int = 0
    xbar_mode: str = "default"        # default | first-row
    omega: float = 1.0
    methods: tuple = ("standard",)
    sweeps: int = 100
    solver_seed: int = 0
    sigma: float = 0.0
    noise_seed: int = 0
    realizations: int = 25
    ks: tuple = (1, 5, 20)
    omega_grid: tuple | None = None
    omegas_bounds: tuple = (0.5, 1.0, 1.5)
    rank_tol: float | None = None
    zero_tol: float = spectral.DEFAULT_ZERO_TOL
    im_tol: float = spectral.DEFAULT_IM_TOL
    n_mc: int = 10_000
    mc_seed: int = 1
    out: str | None = None

    # cubic-cost routines (dense SVD/eig) cap the problem size
    MAX_DIM = 4096

    def validate(self) -> None:
        """Type- and range-check every field; raise ConfigError on the first bad one.

        Numbers go through the library's checks (``linalg._check_int`` and
        ``_check_real``), and their ValueError is raised as ConfigError.
        """
        if self.problem not in _PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; choose from {_PROBLEMS}")
        try:
            for name, lo in (("n", 2), ("N", 2), ("n_angles", 1), ("rays", 1), ("sweeps", 0),
                             ("realizations", 1), ("n_mc", 2), ("ordering_seed", 0),
                             ("solver_seed", 0), ("noise_seed", 0), ("mc_seed", 0)):
                _check_int(name, getattr(self, name), lo)
            _check_real("d", self.d, positive=True)
            for name, optional in (("sigma", False), ("width", True), ("zero_tol", False),
                                   ("im_tol", False), ("rank_tol", True)):
                if not (optional and getattr(self, name) is None):
                    _check_real(name, getattr(self, name))
            _check_real("omega", self.omega, below=2.0)
            if not (isinstance(self.ks, tuple) and self.ks):
                raise ValueError("ks must be a nonempty list of integers >= 1")
            for k in self.ks:
                _check_int("ks values", k, 1)
            for name, optional in (("omega_grid", True), ("omegas_bounds", False)):
                grid = getattr(self, name)
                if optional and grid is None:
                    continue
                if not (isinstance(grid, tuple) and grid):
                    raise ValueError(f"{name} must be a nonempty list of values in (0, 2)")
                for w in grid:
                    _check_real(f"{name} values", w, below=2.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.problem == "baart" and (self.n < 4 or self.n % 2):
            raise ConfigError("baart needs an even n >= 4")
        if self.n > self.MAX_DIM or self.N * self.N > self.MAX_DIM:
            raise ConfigError(f"problem dimension capped at {self.MAX_DIM}")
        if self.ordering not in ("default", "random"):
            raise ConfigError("ordering must be 'default' or 'random'")
        if self.xbar_mode not in ("default", "first-row"):
            raise ConfigError("xbar_mode must be 'default' or 'first-row'")
        if not isinstance(self.methods, tuple) or not self.methods:
            raise ConfigError("methods must be a nonempty list")
        for mth in self.methods:
            if mth not in _METHODS:
                raise ConfigError(f"unknown method {mth!r}; choose from {_METHODS}")
        if self.omega_grid is not None:
            self.omega_grid = tuple(float(w) for w in self.omega_grid)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a path")

    @classmethod
    def from_sources(cls, config_path=None, overrides=None) -> "ExperimentConfig":
        """Build a config from an optional JSON/TOML file plus overrides."""
        values = {}
        if config_path is not None:
            path = Path(config_path)
            loads = json.loads
            if path.suffix == ".toml":
                try:
                    import tomllib
                except ImportError:  # python < 3.11
                    try:
                        import tomli as tomllib
                    except ImportError as exc:
                        raise ConfigError(
                            "TOML configs need Python >= 3.11 or the tomli package; "
                            "use JSON instead"
                        ) from exc
                loads = tomllib.loads
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            try:
                values = loads(text)
            except ValueError as exc:  # JSON and TOML decode errors are ValueErrors
                raise ConfigError(f"bad config file {path}: {exc}") from exc
            if not isinstance(values, dict):
                raise ConfigError(f"config file {path} must hold a table of settings")
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("methods", "ks", "omega_grid", "omegas_bounds"):
            if isinstance(values.get(key), list):
                values[key] = tuple(values[key])
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def resolved_out(self, command: str) -> Path:
        root = self.out or os.environ.get(OUTPUT_ROOT_ENV, "runs")
        return Path(root) / command

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key in ("methods", "ks", "omega_grid", "omegas_bounds"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d


def _write_rows(path: Path, columns) -> None:
    with open(path, "w") as fh:
        write_table(fh, columns)


def make_problem(cfg: ExperimentConfig) -> TestProblem:
    """Instantiate the configured problem, ordering, and ground truth."""
    if cfg.problem == "gravity":
        p = gravity(cfg.n, cfg.d)
    elif cfg.problem == "baart":
        p = baart(cfg.n)
    else:
        p = paralleltomo(cfg.N, cfg.n_angles, cfg.rays, cfg.width)
    if cfg.ordering == "random":
        p = apply_ordering(p, random_ordering(p.m, cfg.ordering_seed))
    if cfg.xbar_mode == "first-row":
        x_bar = p.A[0].copy()
        p = TestProblem(
            A=p.A, x_bar=x_bar, b_bar=p.A @ x_bar, name=p.name,
            params={**p.params, "xbar_mode": "first-row"},
        )
    return p


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _prepare(outdir: Path, cfg: ExperimentConfig) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config.json", cfg.as_dict())


def cmd_eigplot(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Spectrum of the restricted sweep operator: CSV + complex-plane SVG."""
    sv = svd(p.A, cfg.rank_tol)
    ro = restrict_to_V(p.A, build_L(p.A, cfg.omega), sv)
    rep = spectral.spectrum(ro, cfg.zero_tol)
    lam = rep.eigenvalues
    # hypot is scalar abs(); np.abs of a complex array rounds differently
    _write_rows(outdir / "spectrum.csv", {"idx": range(lam.size), "re": lam.real, "im": lam.imag,
                                          "modulus": np.hypot(lam.real, lam.imag)})
    svgplot.scatter_plot(
        outdir / "spectrum.svg",
        lam.real.tolist(),
        lam.imag.tolist(),
        title=f"{p.name}: eigenvalues of the sweep operator (omega={cfg.omega})",
        xlabel="Re",
        ylabel="Im",
        unit_circle=True,
    )
    print(f"rho = {rep.rho:.10f}")
    if not rep.top_is_real:
        print("note: extremal eigenvalue is a complex conjugate pair")
    summary = {
        "rho": rep.rho,
        "zero_count": rep.zero_count,
        "kappa_W": rep.kappa_W,
        "top_is_complex": not rep.top_is_real,
        "near_defective": rep.near_defective,
    }
    return summary


def _history_csv(outdir: Path, tag: str, hist) -> None:
    with open(outdir / f"history_{tag}.csv", "w") as fh:
        hist.write_csv(fh)


def _head(hist, k: int):
    """The first k sweeps of a history that stores its iterates."""
    return dataclasses.replace(
        hist,
        residual_norms=hist.residual_norms[: k + 1],
        iterates=hist.iterates[: k + 1],
        error_norms=None if hist.error_norms is None else hist.error_norms[: k + 1],
    )


def _errhist_method(p: TestProblem, cfg: ExperimentConfig, method: str, noisy_b, outdir: Path):
    """Solve one method on the clean and the noisy data and write its CSVs.

    The sweep variants solve all right-hand sides in one block run; CGLS
    solves them one at a time.  Returns the clean error curve and the
    method's summary record.  The iterates are dropped on return, so only
    one method's are held at a time.
    """
    ref = p.x_bar
    if method == "cgls":
        k_max = max(cfg.sweeps, 1)
        clean = cgls(p.A, p.b_bar, k_max)
        clean = dataclasses.replace(clean, error_norms=np.linalg.norm(clean.iterates - ref, axis=1))
        noisy = (cgls(p.A, b, k_max) for b in noisy_b)
    else:
        scfg = SweepConfig(
            omega=cfg.omega, variant=method, max_sweeps=cfg.sweeps,
            seed=cfg.solver_seed, store_iterates=bool(noisy_b),
        )
        clean, *noisy = run(p, np.column_stack([p.b_bar, *noisy_b]), scfg, reference=ref)
    _history_csv(outdir, method, clean)
    record = {
        "final_error": float(clean.error_norms[-1]),
        "final_residual": float(clean.residual_norms[-1]),
    }
    if noisy_b:
        mins = []
        with open(outdir / f"split_{method}.csv", "w") as fh:
            for real, hist in enumerate(noisy):
                k = min(clean.sweep_count, hist.sweep_count)
                split = noise_stats.error_split_from_histories(_head(clean, k), _head(hist, k), ref)
                split.write_csv(fh, realization=real, header=(real == 0))
                mins.append(noise_stats.semiconvergence_min(split))
        record["semiconvergence_min"] = mins
    return clean.error_norms.tolist(), record


def cmd_errhist(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Error histories for the configured methods, noise-free and noisy.

    Each noise realization is drawn once and shared by all methods.
    """
    if cfg.sigma > 0 and cfg.sweeps < 1:
        raise ConfigError("noisy error histories need at least one sweep")
    noisy_b = [
        p.b_bar + cfg.sigma * np.random.default_rng([cfg.noise_seed, real]).standard_normal(p.m)
        for real in range(cfg.realizations)
    ] if cfg.sigma > 0 else []
    summary = {"methods": {}, "problem": p.name, "m": p.m, "n": p.n}
    series = {}
    for method in cfg.methods:
        errors, summary["methods"][method] = _errhist_method(p, cfg, method, noisy_b, outdir)
        series[method] = (list(range(len(errors))), errors)
    svgplot.line_plot(
        outdir / "errhist.svg",
        series,
        title=f"{p.name}: iteration error vs sweeps",
        xlabel="sweep",
        ylabel="||x_k - x_ref||",
        logy=True,
    )
    return summary


def cmd_omegasweep(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Spectrum statistics over an omega grid; detects the all-real edge."""
    sv = svd(p.A, cfg.rank_tol)
    grid = cfg.omega_grid or tuple(np.round(np.arange(0.02, 2.0, 0.02), 10))
    scan = spectral.small_omega_scan(p.A, sv, grid, cfg.zero_tol, cfg.im_tol)
    _write_rows(outdir / "scan.csv", {
        col: [getattr(r, col) for r in scan.rows]
        for col in ("omega", "rho", "max_im", "zero_count", "n_nonpos_real")
    })
    svgplot.line_plot(
        outdir / "scan.svg",
        {
            "min |lambda|": (
                [r.omega for r in scan.rows],
                [max(r.min_abs, 1e-18) for r in scan.rows],
            ),
            "max |Im lambda|": (
                [r.omega for r in scan.rows],
                [max(r.max_im, 1e-18) for r in scan.rows],
            ),
        },
        title=f"{p.name}: spectrum statistics vs omega",
        xlabel="omega",
        ylabel="magnitude",
        logy=True,
    )
    omega0 = scan.omega0
    print(f"omega0 = {omega0}")
    summary = {
        "omega0": omega0,
        "zero_counts": {str(r.omega): r.zero_count for r in scan.rows},
    }
    return summary


def cmd_noisestats(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Expected noise-error norms, xi decomposition, and factor growth."""
    if cfg.sigma <= 0:
        raise ConfigError("noisestats requires sigma > 0")
    sv = svd(p.A, cfg.rank_tol)
    sm = sharp_maps(p.A, build_L(p.A, cfg.omega), sv)
    ks = tuple(int(k) for k in cfg.ks)

    exp = noise_stats.expected_norms(sm, cfg.sigma, ks, cfg.n_mc, cfg.mc_seed)
    with open(outdir / "expectation.csv", "w") as fh:
        exp.write_csv(fh)

    e = add_noise(np.zeros(p.m), NoiseModel(cfg.sigma, cfg.noise_seed))
    prof = noise_stats.xi_profile(sm, e, ks)
    with open(outdir / "xi.csv", "w") as fh:
        prof.write_csv(fh)

    mono = noise_stats.monotonicity_probe(sm.lam, range(1, max(ks) + 1))
    with open(outdir / "monotonicity.csv", "w") as fh:
        mono.write_csv(fh)

    svgplot.line_plot(
        outdir / "expectation.svg",
        {
            "E1": (exp.ks.tolist(), exp.e1.tolist()),
            "E2": (exp.ks.tolist(), exp.e2.tolist()),
            "MC": (exp.ks.tolist(), exp.mc.tolist()),
        },
        title=f"{p.name}: expected squared noise error (sigma={cfg.sigma})",
        xlabel="k",
        ylabel="expectation",
        logy=True,
    )
    summary = {
        "e1": exp.e1.tolist(),
        "e2": exp.e2.tolist(),
        "mc": exp.mc.tolist(),
        "e2_monotone": mono.e2_monotone,
        "kappa_W": sm.kappa_W,
    }
    return summary


def cmd_bounds(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Spectral-radius bounds table across the configured omega values."""
    sv = svd(p.A, cfg.rank_tol)
    # one A A^T: each omega's factor differs from L_1 only in the diagonal
    lf1 = build_L(p.A, 1.0)
    kappa_X = spectral.bauer_fike_kappa(p.A, lf1)  # independent of omega: once per command
    reports = []
    for omega in cfg.omegas_bounds:
        lf = lf1.with_omega(float(omega))
        reports.append(spectral.rho_bounds(p.A, sv, lf, restrict_to_V(p.A, lf, sv),
                                           kappa_X=kappa_X))
    columns = {"problem": [p.name] * len(reports), "omega": [r.omega for r in reports],
               "rho": [r.rho_actual for r in reports]}
    for col in ("norm_G", "bound_L", "bound_nu", "nu", "bf_bound", "be_bound"):
        columns[col] = [getattr(r, col) for r in reports]
    columns["assumption_met"] = [int(r.assumption_met) for r in reports]
    _write_rows(outdir / "bounds.csv", columns)
    summary = {
        "rows": [
            {"omega": r.omega, "rho": r.rho_actual, "bound_L": r.bound_L,
             "bound_nu": r.bound_nu, "norm_G": r.norm_G,
             "assumption_met": r.assumption_met}
            for r in reports
        ]
    }
    return summary


def cmd_structure(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Exact row-orthogonality structure of the configured matrix."""
    rep = spectral.structural_orthogonality(p.A)
    _write_rows(outdir / "structure.csv", {
        "problem": [p.name], "m": [p.m], "n": [p.n],
        "leading_diag_block": [rep.leading_diag_block], "orth_pairs": [rep.orth_pairs],
        "near_orth": [rep.near_orth],
    })
    summary = {
        "leading_diag_block": rep.leading_diag_block,
        "orth_pairs": rep.orth_pairs,
        "near_orth": rep.near_orth,
    }
    print(f"leading_diag_block = {rep.leading_diag_block}")
    return summary


COMMANDS = {
    "eigplot": cmd_eigplot,
    "errhist": cmd_errhist,
    "omegasweep": cmd_omegasweep,
    "noisestats": cmd_noisestats,
    "bounds": cmd_bounds,
    "structure": cmd_structure,
}


def run_command(name: str, cfg: ExperimentConfig, outdir=None) -> dict:
    """Build the configured problem, run one command on it and return its summary.

    The output directory defaults to <root>/<name>.  ``config.json`` is
    written there before the command runs, so it is left even when the
    command raises, and ``summary.json`` from the returned summary after
    it.  A problem with ``max(m, n) <= ONE_THREAD_MAX_DIM`` runs on one
    BLAS thread; a larger one keeps the counts.
    """
    if name not in COMMANDS:
        raise ConfigError(f"unknown command {name!r}")
    out = Path(outdir) if outdir is not None else cfg.resolved_out(name)
    p = make_problem(cfg)
    threads = blas_threads(1) if max(p.A.shape) <= ONE_THREAD_MAX_DIM else nullcontext()
    _prepare(out, cfg)
    with threads:
        summary = COMMANDS[name](cfg, p, out)
    _write_json(out / "summary.json", summary)
    return summary
