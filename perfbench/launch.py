"""Run one command; write its wall time, peak memory and exit code as JSON.

Usage: python launch.py RESULT_JSON -- COMMAND [ARGS...]

The benchmark starts each measured command through this small process.
Linux charges a process's peak RSS with the resident memory of the process
that forked it, so a command forked straight from the benchmark, which
holds references and numpy, would report the benchmark's memory when its
own is smaller.  Forked from here, it reports its own.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> None:
    result_path, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit("usage: launch.py RESULT_JSON -- COMMAND [ARGS...]")
    t0 = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as fh:
        json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "status": proc.returncode}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
