"""Command-line driver.

Subcommands: eigplot, errhist, omegasweep, noisestats, bounds, structure.
Configuration comes from an optional JSON/TOML file (--config) with flags
taking precedence; each ExperimentConfig field declares its flag.  The
output root defaults to $KACZMARZ_LAB_OUT or ./runs; each command owns one
subdirectory and writes the resolved config next to its outputs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError, NumericalError
from .experiments import COMMANDS, SETTINGS, ExperimentConfig, run_command


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON or TOML config file")
    for f, kind, many in SETTINGS:
        sub.add_argument("--" + f.name.replace("_", "-"), type=kind, nargs="+" if many else None,
                         choices=f.metadata["rule"].get("choices"), help=f.metadata["help"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczmarz-lab",
        description="Row-action solvers and spectral analysis of the sweep operator",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "eigplot": "spectrum of the restricted sweep operator",
        "errhist": "error histories (noise-free and noisy)",
        "omegasweep": "spectrum statistics over an omega grid",
        "noisestats": "expected noise-error norms and xi decomposition",
        "bounds": "spectral-radius bounds table",
        "structure": "exact row-orthogonality structure",
    }
    for name in COMMANDS:
        _add_common(subs.add_parser(name, help=descriptions[name]))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        cfg = ExperimentConfig.from_sources(args.config, overrides)
        run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    """The console entry of ``kaczmarz-lab`` and ``python -m kaczmarz_lab.cli``.

    The objects that importing numpy, scipy's LAPACK and the package left
    behind are moved to the collector's permanent generation
    (``gc.freeze``) before ``main`` runs.  So the collections at exit and in
    forked workers skip them, and a worker's pages are not copied by the
    collector touching them.  ``main`` called in-process freezes nothing.
    Exits with ``main``'s code.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
