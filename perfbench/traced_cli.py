"""Run one kaczmarz-lab command with the tracing shims installed.

Usage: python traced_cli.py SPANS_JSON RUN_ID -- <kaczmarz-lab arguments>

Writes the spans and the package import time to SPANS_JSON when the command
ends and exits with the command's status.
"""

import dataclasses
import json
import sys
import time


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID -- ARGS...")
    t = time.perf_counter()
    import kaczmarz_lab.cli as cli

    import_s = time.perf_counter() - t
    import tracing  # after the timed import, so numpy is counted there

    tracer = tracing.Tracer(run_id)
    tracing.install(tracer)
    left = tracing.unpatched()
    try:
        status = cli.main(cli_args)
    finally:
        record = {
            "run_id": run_id,
            "import_s": import_s,
            "unpatched": left,
            "spans": [dataclasses.asdict(s) for s in tracer.spans],
        }
        with open(spans_path, "w") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
