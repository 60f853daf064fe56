"""kaczmarz-lab benchmark: run workloads as fresh CLI processes and report.

Usage (from the repository root):

    python3 perfbench/run.py --workload errhist-gravity --seed 0 --seconds 40 --trace 0

Without ``--workload`` every workload runs in turn.

Load model: closed loop, one client.  The benchmark starts one
``python -m kaczmarz_lab.cli`` process at a time, waits for it, checks its
outputs against the stored references (``checker.py``) and starts the next
while the measuring window lasts.  Children run with the BLAS library's
default thread count: the OpenBLAS/OpenMP thread variables are removed from
their environment.

``--trace 0`` measures the end-to-end metrics (``spec.END_TO_END``):

* ``wall_s``: mean spawn-to-exit wall time of the command over the run
  (the median and the highest percentile with ten samples beyond it are
  printed beside it).  The mean, not the median: on a shared host the
  wall times of one command's processes fall into two clusters about
  1.4x apart, and when their shares are near one half the median of a
  run jumps from one cluster to the other while the mean moves with the
  shares;
* ``setup_s``: median over fresh interpreters of the time to import
  ``kaczmarz_lab.cli`` and resolve the workload's config (``setup_probe.py``);
* ``peak_rss_mb``: median peak resident memory of the command (``wait4``).

``--trace 1`` runs three passes: one untraced, one traced (``traced_cli.py``
records spans around calls into each module), and one traced with
``OPENBLAS_NUM_THREADS=1`` in the child only.  It reports the per-layer
metrics (``spec.PER_LAYER``) of the traced pass, the tracing overhead
(traced minus untraced wall time) and, as diagnostics, the single-thread
pass.  Spans and full results are written under ``.perfbench/``.

The seed sets the CLI's noise, Monte Carlo and solver seeds
(``spec.seed_flags``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, or one such
object per workload name when every workload ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# The output check does small dense work of its own (checker.sweep_split,
# which also imports the package's problem generators): one BLAS thread
# keeps it quick.  Children get the library default again (child_env).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.append(str(SRC))

import checker  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

#: Fresh interpreters timed per run for setup_s (after one warm-up).
SETUP_PROBES = 5
#: A child still running this long after the run began is killed and
#: counted as failed, so that a run ends within 180 s.
RUN_BUDGET_S = 170
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failing command)."""


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    status: int
    problems: list = field(default_factory=list)
    spans: dict | None = None
    outdir: Path | None = None


def child_env(blas_threads: int | None = None) -> dict:
    drop = _THREAD_VARS + ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "KACZMARZ_LAB_OUT")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass


def spawn(argv: list[str], env: dict, log_stem: Path,
          timeout: float = RUN_BUDGET_S) -> tuple[float, float, int]:
    """Run argv to completion: (wall seconds, peak RSS in MB, exit code).

    The command is started through ``launch.py`` in a session of its own,
    so a timeout or an interrupted benchmark kills both processes.
    """
    result = Path(f"{log_stem}.json")
    result.unlink(missing_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(result), "--", *argv]
    with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(launcher, env=env, cwd=ROOT, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_session, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        except BaseException:  # interrupted: leave no process behind
            _kill_session(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0 or not result.exists():
        return time.perf_counter() - t0, 0.0, proc.returncode or -1
    measured = json.loads(result.read_text())
    return measured["wall_s"], measured["peak_rss_mb"], measured["status"]


class Runner:
    """Runs and checks one workload's commands inside a private work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.args = spec.command_args(workload, seed)
        self.ref = checker.load_reference(workload)
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, argv: list[str], env: dict, log_stem: Path):
        return spawn(argv, env, log_stem, max(1.0, self.deadline - time.monotonic()))

    def probe(self, env: dict, name: str) -> dict:
        """One fresh-interpreter set-up measurement plus the run manifest."""
        log = self.work / name
        _, _, status = self.spawn([sys.executable, str(HERE / "setup_probe.py"), *self.args],
                                  env, log)
        if status != 0:
            raise HarnessError(f"set-up probe failed ({status}); see {log}.err")
        return json.loads(Path(f"{log}.out").read_text().splitlines()[-1])

    def run(self, env: dict, traced: bool = False) -> Sample:
        self.count += 1
        tag = f"{self.count:03d}"
        outroot = self.work / "out"
        shutil.rmtree(outroot, ignore_errors=True)
        cli_args = [*self.args, "--out", str(outroot)]
        spans_path = self.work / f"spans-{tag}.json"
        if traced:
            run_id = f"{self.workload}-seed{self.seed}-{tag}"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), run_id,
                    "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "kaczmarz_lab.cli", *cli_args]
        log = self.work / f"cmd-{tag}"
        wall, rss, status = self.spawn(argv, env, log)
        sample = Sample(wall, rss, status, outdir=outroot / self.args[0])
        if status != 0:
            sample.problems = [f"exit status {status}; see {log}.err"]
            return sample
        stdout = Path(f"{log}.out").read_text()
        sample.problems = checker.check(self.workload, sample.outdir, stdout, self.seed, self.ref)
        if traced:
            sample.spans = json.loads(spans_path.read_text())
            if sample.spans["unpatched"]:
                sample.problems.append(f"unpatched bindings: {sample.spans['unpatched']}")
        return sample


def upper_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    return f"p{100.0 * (n - 10) / n:.0f}", sorted(values)[n - 11]


def measure(runner: Runner, seconds: float) -> dict:
    env = child_env()
    probes = [runner.probe(env, f"probe-{i}") for i in range(SETUP_PROBES + 1)]
    setup = [p["setup_s"] for p in probes[1:]]  # the first one warms caches and bytecode
    samples = []
    t0 = time.perf_counter()
    while True:
        samples.append(runner.run(env))
        walls = [s.wall_s for s in samples]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    return {
        "manifest": probes[0]["manifest"],
        "samples": samples,
        "metrics": {
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        },
        "diagnostics": {
            "wall_s_samples": walls,
            "wall_s_median": statistics.median(walls),
            "wall_s_upper": upper_percentile(walls),
            "setup_s_samples": setup,
        },
    }


def traced_metrics(sample: Sample) -> dict:
    spans = [tracing.Span(**s) for s in sample.spans["spans"]]
    metrics = tracing.layer_metrics(spans)
    command = next(s for s in spans if s.name == "experiments.run_command")
    files = [p for p in sample.outdir.rglob("*") if p.is_file()]
    metrics.update({
        "cli.import_s": sample.spans["import_s"],
        # process CPU from interpreter start until the command begins
        "cli.cpu_s": command.cpu_start,
        "experiments.files_written": len(files),
        "experiments.bytes_written": sum(p.stat().st_size for p in files),
    })
    return metrics


def trace(runner: Runner) -> dict:
    env = child_env()
    probe = runner.probe(env, "probe-0")
    plain = runner.run(env)
    traced = runner.run(env, traced=True)
    single = runner.run(child_env(blas_threads=1), traced=True)
    samples = [plain, traced, single]
    metrics = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    diagnostics = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    if traced.spans is not None:
        metrics.update(traced_metrics(traced))
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    if single.spans is not None:
        diagnostics["single_thread"] = {
            "wall_s": single.wall_s,
            "peak_rss_mb": single.peak_rss_mb,
            **traced_metrics(single),
        }
    return {"manifest": probe["manifest"], "samples": samples,
            "metrics": metrics, "diagnostics": diagnostics}


def report(args, workload: str, result: dict) -> dict:
    samples = result["samples"]
    failed = sum(1 for s in samples if s.problems)
    names = [m["name"] for m in spec.END_TO_END] if not args.trace else \
        [name for name, _, _ in spec.PER_LAYER]
    metrics = {n: {"value": result["metrics"][n], "unit": spec.UNITS[n]} for n in names}
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, one client; {len(samples)} command runs)")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed / len(samples):>16.6g} ratio "
          f"({failed} of {len(samples)} runs)")
    upper = result["diagnostics"].get("wall_s_upper")
    if not args.trace:
        print(f"  wall_s over {len(samples)} samples: mean "
              f"{metrics['wall_s']['value']:.6g} s; median "
              f"{result['diagnostics']['wall_s_median']:.6g} s; "
              + (f"{upper[0]} {upper[1]:.6g} s" if upper else
                 "no percentile with ten samples beyond it"))
    for s in samples:
        for problem in s.problems:
            print(f"  check failed: {problem}")
    manifest = dict(result["manifest"], seed=args.seed,
                    command=["kaczmarz-lab", *spec.command_args(workload, args.seed)],
                    source=source_id())
    print("manifest " + json.dumps(manifest, sort_keys=True))
    if args.trace:
        print("diagnostics " + json.dumps(result["diagnostics"], sort_keys=True))
    full = {
        "manifest": manifest,
        "metrics": metrics,
        "failed_frac": failed / len(samples),
        "diagnostics": result["diagnostics"],
        "samples": [{"wall_s": s.wall_s, "peak_rss_mb": s.peak_rss_mb,
                     "status": s.status, "problems": s.problems} for s in samples],
    }
    out = WORK / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1, default=str) + "\n")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def source_id() -> dict:
    """The git commit when the root is a git checkout; always a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "kaczmarz_lab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "kaczmarz_lab" / "cli.py").is_file():
        print(f"no kaczmarz_lab sources under {SRC}", file=sys.stderr)
        return 2
    results = {}
    for workload in [args.workload] if args.workload else list(spec.WORKLOADS):
        work = WORK / f"{workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(workload, args.seed, work)
        try:
            result = trace(runner) if args.trace else measure(runner, args.seconds)
        except HarnessError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        results[workload] = report(args, workload, result)
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
