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

import dataclasses
import json
import os
import types
import typing
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
    _matvec,
    add_noise,
    apply_ordering,
    baart,
    gravity,
    paralleltomo,
    random_ordering,
)
from .solvers import SweepConfig, cgls, run
from .tables import write_table

__all__ = ["ExperimentConfig", "SETTINGS", "COMMANDS", "run_command"]

OUTPUT_ROOT_ENV = "KACZMARZ_LAB_OUT"

#: Problems with max(m, n) up to this size run every command on one BLAS
#: thread; larger ones keep the library's count.  On a 2-vCPU host one
#: omega-scan step (build_L, restriction, eigvals) on gravity(n) took
#: 3.1/11.4/24.1/70.5 ms on one thread and 4.3/12.9/25.5/67.0 ms on two at
#: n = 128/256/384/512 (another run: two threads ahead from n = 384).  The
#: rule reads the size alone, never the host.  The scan's own steps run on
#: one thread at every size: ``spectral.small_omega_scan`` gives each usable
#: CPU a worker process of its own.  So these timings set the rule for the
#: other commands, which run in one process.
ONE_THREAD_MAX_DIM = 256


def _setting(default, help=None, **rule):
    """An ExperimentConfig field: default, flag help and value rule.

    ``rule`` is ``lo`` for an integer, ``_check_real``'s keywords for a real
    number, or ``choices`` for a string.  A default of None makes it optional.
    """
    return dataclasses.field(default=default, metadata={"help": help, "rule": rule})


def _check_value(name: str, kind: type, rule: dict, value):
    """value as the setting holds it; ValueError unless it keeps the rule."""
    if kind is int:
        _check_int(name, value, **rule)
        return value
    if kind is float:
        return _check_real(name, value, **rule)
    choices = rule.get("choices")
    if not isinstance(value, str) or choices and value not in choices:
        want = f"one of {choices}" if choices else "a string"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    """Validated knobs shared by all commands; flags override file values.

    Each field is one setting: its config key, its flag ``--<name>`` (``_``
    as ``-``) and its check come from the field and its type.
    """

    out: str | None = _setting(None, "output root directory")
    problem: str = _setting("gravity", choices=("gravity", "baart", "paralleltomo"))
    n: int = _setting(128, "gravity/baart size", lo=2)
    d: float = _setting(0.01, "gravity depth parameter", positive=True)
    N: int = _setting(32, "tomography image side", lo=2)
    n_angles: int = _setting(32, lo=1)
    rays: int = _setting(32, "rays per angle", lo=1)
    width: float | None = _setting(None, "detector width (default rays-1)")
    ordering: str = _setting("default", choices=("default", "random"))
    ordering_seed: int = _setting(0, lo=0)
    xbar_mode: str = _setting("default", choices=("default", "first-row"))
    omega: float = _setting(1.0, below=2.0)
    sweeps: int = _setting(100, lo=0)
    methods: tuple[str, ...] = _setting(
        ("standard",), choices=("standard", "symmetric", "randomized", "cgls"))
    solver_seed: int = _setting(0, lo=0)
    sigma: float = _setting(0.0, "noise standard deviation")
    noise_seed: int = _setting(0, lo=0)
    realizations: int = _setting(25, lo=1)
    ks: tuple[int, ...] = _setting((1, 5, 20), "iteration counts to analyze", lo=1)
    omega_grid: tuple[float, ...] | None = _setting(None, below=2.0)
    omegas_bounds: tuple[float, ...] = _setting((0.5, 1.0, 1.5), below=2.0)
    rank_tol: float | None = _setting(None)
    zero_tol: float = _setting(spectral.DEFAULT_ZERO_TOL)
    im_tol: float = _setting(spectral.DEFAULT_IM_TOL)
    n_mc: int = _setting(10_000, lo=2)
    mc_seed: int = _setting(1, lo=0)

    # cubic-cost routines (dense SVD/eig) cap the problem size
    MAX_DIM = 4096

    def validate(self) -> None:
        """Check every field by its rule; raise ConfigError on the first bad one.

        Numbers go through the library's checks (``linalg._check_int`` and
        ``_check_real``), and their ValueError is raised as ConfigError.
        A list setting is a nonempty list of distinct values, held as a
        tuple; real values are held as floats.
        """
        try:
            for f, kind, many in SETTINGS:
                value, rule = getattr(self, f.name), f.metadata["rule"]
                if value is None and f.default is None:
                    continue
                if not many:
                    value = _check_value(f.name, kind, rule, value)
                elif isinstance(value, (list, tuple)) and value:
                    value = tuple(_check_value(f"{f.name} values", kind, rule, v) for v in value)
                    if len(set(value)) < len(value):
                        raise ValueError(f"{f.name} must not repeat a value, got {list(value)}")
                else:
                    raise ValueError(f"{f.name} must be a nonempty list")
                setattr(self, f.name, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.problem == "baart" and (self.n < 4 or self.n % 2):
            raise ConfigError("baart needs an even n >= 4")
        if self.n > self.MAX_DIM or self.N * self.N > self.MAX_DIM:
            raise ConfigError(f"problem dimension capped at {self.MAX_DIM}")

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
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def resolved_out(self, command: str) -> Path:
        root = self.out or os.environ.get(OUTPUT_ROOT_ENV, "runs")
        return Path(root) / command

    def as_dict(self) -> dict:
        """The fields as JSON values, each list setting as a list."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}


def _value_type(hint) -> tuple[type, bool]:
    """(value type, is a list) of a type hint: ``tuple[float, ...] | None`` gives (float, True)."""
    hint = typing.get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
    many = typing.get_origin(hint) is tuple
    return typing.get_args(hint)[0] if many else hint, many


#: (field, value type, is a list) of every setting, in flag order
SETTINGS = tuple((f, *_value_type(f.type)) for f in dataclasses.fields(ExperimentConfig))


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
            A=p.A, x_bar=x_bar, b_bar=_matvec(p.A, x_bar), name=p.name,
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
    return {
        "rho": rep.rho,
        "zero_count": rep.zero_count,
        "kappa_W": rep.kappa_W,
        "top_is_complex": not rep.top_is_real,
        "near_defective": rep.near_defective,
    }


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
        clean = cgls(p.A, p.b_bar, cfg.sweeps)
        clean = dataclasses.replace(clean, error_norms=np.linalg.norm(clean.iterates - ref, axis=1))
        noisy = (cgls(p.A, b, cfg.sweeps) for b in noisy_b)
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
    if cfg.sweeps < 1:
        raise ConfigError("errhist needs at least one sweep")
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
    return {
        "omega0": omega0,
        "zero_counts": {str(r.omega): r.zero_count for r in scan.rows},
    }


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
    return {
        "e1": exp.e1.tolist(),
        "e2": exp.e2.tolist(),
        "mc": exp.mc.tolist(),
        "e2_monotone": mono.e2_monotone,
        "kappa_W": sm.kappa_W,
    }


def cmd_bounds(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Spectral-radius bounds table across the configured omega values."""
    sv = svd(p.A, cfg.rank_tol)
    # one A A^T: each omega's factor differs from L_1 only in the diagonal
    lf1 = build_L(p.A, 1.0)
    reports = [spectral.rho_bounds(p.A, sv, lf1.with_omega(float(omega)))
               for omega in cfg.omegas_bounds]
    columns = {"problem": [p.name] * len(reports), "omega": [r.omega for r in reports],
               "rho": [r.rho_actual for r in reports]}
    for col in ("norm_G", "bound_L", "bound_nu", "nu"):
        columns[col] = [getattr(r, col) for r in reports]
    columns["bf_bound"] = [spectral.bauer_fike_bound(p.A, lf1)] * len(reports)  # omega = 1 only
    columns["be_bound"] = [r.be_bound for r in reports]
    columns["assumption_met"] = [int(r.assumption_met) for r in reports]
    _write_rows(outdir / "bounds.csv", columns)
    return {
        "rows": [
            {"omega": r.omega, "rho": r.rho_actual, "bound_L": r.bound_L,
             "bound_nu": r.bound_nu, "norm_G": r.norm_G,
             "assumption_met": r.assumption_met}
            for r in reports
        ]
    }


def cmd_structure(cfg: ExperimentConfig, p: TestProblem, outdir: Path) -> dict:
    """Exact row-orthogonality structure of the configured matrix."""
    rep = spectral.structural_orthogonality(p.A)
    _write_rows(outdir / "structure.csv", {
        "problem": [p.name], "m": [p.m], "n": [p.n],
        "leading_diag_block": [rep.leading_diag_block], "orth_pairs": [rep.orth_pairs],
        "near_orth": [rep.near_orth],
    })
    print(f"leading_diag_block = {rep.leading_diag_block}")
    return {
        "leading_diag_block": rep.leading_diag_block,
        "orth_pairs": rep.orth_pairs,
        "near_orth": rep.near_orth,
    }


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

    The config is validated first (``ExperimentConfig.validate``), so a bad
    one raises ConfigError and writes no file.  The output directory
    defaults to <root>/<name>.  ``config.json`` is written there before
    the command runs, so it is left even when the command raises, and
    ``summary.json`` from the returned summary after it.  A generator's
    ValueError is raised as ConfigError.  A problem with
    ``max(m, n) <= ONE_THREAD_MAX_DIM`` runs on one BLAS thread; a larger
    one keeps the counts.
    """
    if name not in COMMANDS:
        raise ConfigError(f"unknown command {name!r}")
    cfg.validate()
    out = Path(outdir) if outdir is not None else cfg.resolved_out(name)
    try:
        p = make_problem(cfg)
    except ValueError as exc:  # the generators' own checks, e.g. rays that miss the grid
        raise ConfigError(str(exc)) from None
    threads = blas_threads(1) if max(p.A.shape) <= ONE_THREAD_MAX_DIM else nullcontext()
    _prepare(out, cfg)
    with threads:
        summary = COMMANDS[name](cfg, p, out)
    _write_json(out / "summary.json", summary)
    return summary
