"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root.  Run ``python3 perfbench/spec.py`` to rewrite that file after
changing anything here; ``tests/test_perfbench_spec.py`` checks that the
committed file matches.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One run measures for this many seconds (commands in flight finish).
RUN_SECONDS = 40

#: Stored-reference seeds: the default seed gives noise_seed 0, mc_seed 1
#: and solver_seed 0, the CLI defaults; the held-out seed is kept for
#: re-checking claims on a seed not used while writing them.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7


def seed_flags(seed: int) -> list[str]:
    """The CLI seed flags derived from the benchmark's seed."""
    return [
        "--noise-seed", str(seed),
        "--mc-seed", str(seed + 1),
        "--solver-seed", str(seed),
    ]


#: Every third point of the CLI's default omega grid (0.02, 0.04, ..., 1.98).
OMEGA_GRID = [f"{0.06 * k:.2f}" for k in range(1, 34)]

#: name -> (CLI arguments without seeds, why the workload is in the set)
#:
#: The sizes are cut down from the README examples (25 realizations, the
#: 99-point omega grid, a 32 x 32 tomography image with 2000 Monte Carlo
#: samples) so that one command takes 1.5-3.5 s and a run's wall_s is
#: taken over 12-25 fresh processes: on a shared 2-vCPU host the wall time
#: of one process varies by 15-25 %, and with the README sizes a 40 s run
#: held only 2-4 commands.  Each size keeps the mechanism the workload is
#: there for: duplicated clean solves, per-omega rebuilds at r = 128, and
#: the n > 512 noise-statistics path with its duplicated eigendecomposition.
#: The 24 x 24 image is seen by 32 x 32 rays (m = 1024 > n = 576); at that
#: shape E2 and kappa_W move by under 2 % between 1 and 2 BLAS threads.
WORKLOADS = {
    "errhist-gravity": (
        ["errhist", "--problem", "gravity", "--n", "128", "--d", "0.06",
         "--sigma", "5e-3", "--sweeps", "200",
         "--methods", "standard", "symmetric", "cgls", "--realizations", "2"],
        "time is in the solvers row loop (10 run calls, 6 of them distinct, "
        "no eigensolve); the other two workloads bypass solvers",
    ),
    "omegasweep-gravity": (
        ["omegasweep", "--problem", "gravity", "--n", "128", "--d", "0.01",
         "--omega-grid", *OMEGA_GRID],
        "33 small build_L + restrict + eigvals steps at r = 128, one per omega; "
        "per-omega overhead and BLAS over-threading dominate",
    ),
    "noisestats-tomo": (
        ["noisestats", "--problem", "paralleltomo", "--N", "24",
         "--n-angles", "32", "--rays", "32", "--sigma", "5e-3",
         "--ks", "1", "5", "20", "50", "--n-mc", "500"],
        "one large problem: ray tracing, an SVD, two dense eigendecompositions "
        "and closed-form noise statistics at n = 576 > 512",
    ),
}


def command_args(workload: str, seed: int) -> list[str]:
    """Full CLI argument list (after ``kaczmarz-lab``) of one workload."""
    return WORKLOADS[workload][0] + seed_flags(seed)


END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

_S, _N = "s", "count"
#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = [
    ("cli.import_s", _S, "lower"),
    ("cli.cpu_s", _S, "lower"),
    ("problems.build_s", _S, "lower"),
    ("linalg.svd_s", _S, "lower"),
    ("linalg.svd_calls", _N, "lower"),
    ("linalg.eig_s", _S, "lower"),
    ("linalg.eig_calls", _N, "lower"),
    ("linalg.eig_n3", "n3_computed", "lower"),
    ("linalg.eig_cpu_per_wall", "ratio", "higher"),
    ("linalg.tri_solve_s", _S, "lower"),
    ("linalg.tri_solve_calls", _N, "lower"),
    ("operator.build_L_s", _S, "lower"),
    ("operator.build_L_calls", _N, "lower"),
    ("operator.restrict_s", _S, "lower"),
    ("operator.restrict_calls", _N, "lower"),
    ("operator.sharp_maps_self_s", _S, "lower"),
    ("operator.apply_Ak_sharp_s", _S, "lower"),
    ("operator.apply_Ak_sharp_cols", _N, "lower"),
    ("spectral.spectrum_self_s", _S, "lower"),
    ("spectral.scan_self_s", _S, "lower"),
    ("spectral.scan_points", _N, "lower"),
    ("spectral.scan_cpu_per_wall", "ratio", "lower"),
    ("solvers.run_s", _S, "lower"),
    ("solvers.run_calls", _N, "lower"),
    ("solvers.row_updates", _N, "lower"),
    ("solvers.row_update_rate", "1/s", "higher"),
    ("solvers.useful_solve_ratio", "ratio", "higher"),
    ("solvers.cgls_s", _S, "lower"),
    ("noise_stats.error_split_self_s", _S, "lower"),
    ("noise_stats.expected_norms_self_s", _S, "lower"),
    ("noise_stats.xi_profile_s", _S, "lower"),
    ("noise_stats.mc_columns", _N, "lower"),
    ("experiments.output_s", _S, "lower"),
    ("experiments.files_written", _N, "lower"),
    ("experiments.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", _S, "lower"),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": why} for k, (_, why) in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
