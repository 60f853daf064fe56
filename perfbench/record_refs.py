"""Record the reference outputs that ``checker.py`` compares against.

Usage (from the repository root, on the commit whose outputs are the
reference): python3 perfbench/record_refs.py [WORKLOAD ...]

Runs each workload at the default and the held-out seed with the same
environment as the benchmark, and writes ``refs/<workload>.json.gz``.
Columns that ``checker.COLUMNS`` marks seed-independent are stored once and
must agree exactly between the two seeds.
"""

import gzip
import json
import shutil
import sys

import checker
import run
import spec


def record(workload: str) -> dict:
    work = run.WORK / f"refs-{workload}"
    ref = None
    for seed in (spec.DEFAULT_SEED, spec.HELD_OUT_SEED):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        args = spec.command_args(workload, seed) + ["--out", str(work / "out")]
        argv = [sys.executable, "-m", "kaczmarz_lab.cli", *args]
        _, _, status = run.spawn(argv, run.child_env(), work / "cmd")
        if status != 0:
            raise SystemExit(f"{workload} seed {seed} exited with {status}")
        this = checker.make_reference(workload, work / "out" / args[0], seed)
        if ref is None:
            ref = this
        elif this["common"] != ref["common"]:
            raise SystemExit(f"{workload}: a seed-independent column moved with the seed")
        else:
            ref["seeds"].update(this["seeds"])
    shutil.rmtree(work)
    return ref


if __name__ == "__main__":
    checker.REFS.mkdir(exist_ok=True)
    for name in sys.argv[1:] or spec.WORKLOADS:
        data = json.dumps(record(name), separators=(",", ":")).encode()
        with gzip.GzipFile(checker.REFS / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(data)
        print(f"recorded {name}")
