"""Time a fresh interpreter's set-up for one workload, then describe the runtime.

Usage: python setup_probe.py <kaczmarz-lab arguments>

Times importing ``kaczmarz_lab.cli`` and resolving and validating the
workload's configuration (what the CLI does before any computation), then
prints one JSON line with that time and the run manifest: versions, BLAS
libraries and their effective thread counts, and the processor count.
"""

import time

_T0 = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402


def resolve_config(argv):
    from kaczmarz_lab.cli import build_parser
    from kaczmarz_lab.experiments import ExperimentConfig

    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    return ExperimentConfig.from_sources(args.config, overrides)


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"path": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    threads.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
                    break
            if "threads" in info:
                break
        libs.append(info)
    return libs


def manifest() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_libraries(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    resolve_config(sys.argv[1:])
    setup_s = time.perf_counter() - _T0
    print(json.dumps({"setup_s": setup_s, "manifest": manifest()}))
