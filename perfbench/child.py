"""Child processes of the benchmark (``PYTHONPATH`` points at ``src/``).

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
        one cold set-up in a fresh interpreter; prints its duration in
        reference seconds and in raw seconds (see ``run.timed_setup``)

    python3 perfbench/child.py cli STATE_FILE JOB -- ARGS...
        ``liecones.cli.main(ARGS)`` with the tracer installed; the tracer's
        counts, self times and spans (tagged JOB) go to STATE_FILE
"""

from __future__ import annotations

import json
import sys


def setup(workload: str, seed: str, workdir: str) -> int:
    import run
    ref, raw, _ = run.timed_setup(workload, int(seed), workdir)
    print(ref, raw)
    return 0


def cli(state_file: str, job: str, argv: list) -> int:
    import liecones.cli
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = job
    rc = 1
    try:
        rc = liecones.cli.main(argv)
    except SystemExit as exc:          # argparse errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        state = tracer.state()
        state["spans"] = [s[:5] for s in tracer.spans]
        with open(state_file, "w") as fh:
            json.dump(state, fh)
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "cli" and rest[2] == "--":
        sys.exit(cli(rest[0], rest[1], rest[3:]))
    sys.exit(f"unknown child mode {sys.argv[1:]}")
