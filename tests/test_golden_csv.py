"""The SMALL configs' CSVs against recorded sha256 digests.

A refactor is done when these CSVs stay byte-identical, or when its change
log says which bytes moved and why.  The digests in
``data/small_csv_sha256.json`` hold for the numpy and scipy versions and
the OpenBLAS builds (runtime configuration strings, which name the CPU
kernel) recorded beside them; elsewhere the test skips, since another BLAS
may round differently.  To re-record, on purpose, from the repository root:

    PYTHONPATH=src python tests/test_golden_csv.py --record
"""

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from kaczmarz_lab.cli import main
from test_cli import SMALL, _csv_bytes

DIGESTS = Path(__file__).resolve().parent / "data" / "small_csv_sha256.json"


def _environment() -> dict:
    """numpy and scipy versions and each mapped OpenBLAS's runtime config.

    Each build is labelled by the directory that holds it, which for a
    wheel's bundled OpenBLAS is the wheel's library directory
    (``numpy.libs``, ``scipy.libs``).
    """
    openblas = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # not Linux: no configs, so the test skips
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_char_p
                    openblas[Path(path).parent.name] = get().decode().strip()
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas}


def _digests(root: Path) -> dict:
    """sha256 of every CSV each SMALL command writes under ``root``."""
    out = {}
    for command, args in sorted(SMALL.items()):
        assert main([command, *args, "--out", str(root)]) == 0
        out[command] = {name: hashlib.sha256(data).hexdigest()
                        for name, data in _csv_bytes(root / command).items()}
    return out


def test_small_csvs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    here = _environment()
    if here != recorded["environment"]:
        pytest.skip(f"digests recorded with {recorded['environment']}, running with {here}")
    assert _digests(tmp_path) == recorded["sha256"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_csv.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": _environment(), "sha256": _digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
