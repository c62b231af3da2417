"""One timed repetition in a fresh interpreter.

Usage: python3 child.py ROOT WORKLOAD SEED WORKDIR SPAWN_NS TRACE

Imports fqsvt from ROOT/src, writes the workload inputs under WORKDIR, then
times one call of `fqsvt.cli.main`. SPAWN_NS is the parent's
`time.monotonic_ns()` just before it started this process; both clocks are
CLOCK_MONOTONIC, so setup time spans interpreter start-up as well. The
result goes to WORKDIR/child.json; the CLI's own output stays on stdout.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    root, workload, seed, workdir, spawn_ns, trace = sys.argv[1:7]
    sys.path.insert(0, str(Path(root) / "src"))

    import fqsvt.cli
    from inputs import cli_argv
    from tracer import Tracer

    src = (Path(root) / "src").resolve()
    if src not in Path(fqsvt.__file__).resolve().parents:
        raise SystemExit(f"fqsvt imported from {fqsvt.__file__}, not from {src}")
    workdir = Path(workdir)
    argv = cli_argv(workload, int(seed), workdir)
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    setup_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9

    start = time.perf_counter()
    rc = fqsvt.cli.main(argv)
    solve_s = time.perf_counter() - start
    sys.stdout.flush()

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
    (workdir / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
