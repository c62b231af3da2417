"""fqsvt benchmark runner.

    python3 bench/run.py --workload enumerate-L8 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one after another

Runs timed repetitions of one workload, one at a time, each in a fresh
interpreter (`child.py`) so no in-process cache survives between them, for
about `--seconds` (to the nearest whole repetition). Every repetition's
output is checked against the benchmark's own numpy oracle (`checks.py`).
With `--trace 1` the run alternates untraced and traced repetitions and
reports per-layer call counts and self times instead of the end-to-end
metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Human-readable lines before
it name every metric with its unit and sample count; the full record, with
machine details and per-repetition values, goes to
`.bench_out/results/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from inputs import WORKLOADS, project_inputs  # noqa: E402
from tracer import span_names  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# A run must end within 180 s; no repetition may be started that the time
# left cannot hold, and a repetition that overruns is killed.
RUN_LIMIT_S = 170.0
MIN_UNTRACED, MIN_TRACED = 1, 2

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

# Exact per-repetition values that must not drift between repetitions.
DETERMINISTIC_VALUES = ("degree", "queries", "trajectories", "criteria_passed")


# Layers whose self time is reported as a per-layer metric: the modules that
# every workload calls. Per-function self times, including `baselines`, which
# only the oracle battery calls, are in the results file and the printed
# breakdown; a time that reads 0 on every run of a workload is not a metric.
SELF_TIME_LAYERS = ("linalg", "chebyshev", "qsp", "blockenc", "qsvt", "feedforward", "cli")


def per_layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in span_names()}
    units.update({f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS})
    units["chebyshev.filter_builds_per_split"] = "ratio"
    units["trace.missing"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def machine_info(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_repetition(workload: str, seed: int, workdir: Path, trace: bool, timeout: float) -> dict:
    """Run one child, check its output, and return its measurements and problems."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(ROOT), workload, str(seed),
            str(workdir), str(time.monotonic_ns()), "1" if trace else "0"]
    stdout_path, stderr_path = workdir / "stdout.txt", workdir / "stderr.txt"
    rep = {"trace": trace, "problems": []}
    with stdout_path.open("w") as out, stderr_path.open("w") as err:
        try:
            proc = subprocess.run(argv, stdout=out, stderr=err, cwd=ROOT, env=env,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            rep["problems"].append(f"repetition exceeded {timeout:.0f} s and was killed")
            return rep
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        rep["problems"].append(f"child exited {proc.returncode}: {stderr.strip()[-2000:]}")
        return rep
    result = json.loads((workdir / "child.json").read_text(encoding="utf-8"))
    rep.update(result)
    if result["rc"] != 0:
        rep["problems"].append(f"fqsvt exited {result['rc']}: {stderr.strip()[-2000:]}")

    spec = WORKLOADS[workload]
    out_dir = workdir / "out"
    if spec["command"] == "verify":
        problems, values = checks.check_verify(stdout_path.read_text(encoding="utf-8"),
                                               spec["criteria"])
    elif spec["mode"] == "enumerate":
        problems, values = checks.check_enumerate(out_dir, project_inputs(workload, seed))
    else:
        problems, values = checks.check_sample(out_dir, project_inputs(workload, seed))
    rep["problems"].extend(problems)
    rep["values"] = values
    return rep


def drift(reps: list[dict], key) -> list[str]:
    """Problems for exact values that differ between repetitions."""
    seen: dict = {}
    for rep in reps:
        for name, value in key(rep).items():
            seen.setdefault(name, set()).add(value)
    return [f"nondeterminism: {name} took values {sorted(vals)} across repetitions"
            for name, vals in sorted(seen.items()) if len(vals) > 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    rundir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        untraced = sum(not r["trace"] for r in reps)
        traced = len(reps) - untraced
        elapsed = time.monotonic() - start
        enough = untraced >= MIN_UNTRACED and (not trace or traced >= MIN_TRACED)
        # Stop at the repetition boundary nearest to `seconds`, so a run lasts
        # about `seconds` whatever one repetition costs on this machine, and
        # never start a repetition that the run limit cannot hold.
        typical = statistics.median(durations) if durations else 0.0
        if enough and (elapsed + typical / 2 >= seconds
                       or elapsed + 1.5 * max(durations) > RUN_LIMIT_S):
            break
        # Traced runs repeat untraced, traced, traced, ...
        want_trace = trace and len(reps) % 3 != 0
        reps.append(run_repetition(workload, seed, rundir / f"rep{len(reps)}", want_trace,
                                   timeout=max(10.0, RUN_LIMIT_S - elapsed)))
        durations.append(time.monotonic() - start - elapsed)
        if reps[-1]["problems"] and "solve_s" not in reps[-1]:
            break
    failed = sum(bool(r["problems"]) for r in reps)
    if not failed:
        # Failed repetitions keep their inputs and outputs for inspection.
        shutil.rmtree(rundir, ignore_errors=True)

    timed = [r for r in reps if "solve_s" in r]
    untraced_reps = [r for r in timed if not r["trace"]]
    traced_reps = [r for r in timed if r["trace"]]
    run_problems = drift(timed, lambda r: {k: v for k, v in r.get("values", {}).items()
                                           if k in DETERMINISTIC_VALUES})
    run_problems += drift(traced_reps, lambda r: {f"{name}.calls": s["calls"]
                                                  for name, s in r["layers"].items()})
    result = {
        "workload": workload,
        "machine": machine_info(seed),
        "seconds": seconds,
        "trace": trace,
        "attempted": len(reps),
        "failed": failed,
        "correct": failed == 0 and not run_problems,
        "problems": run_problems + [p for r in reps for p in r["problems"]],
        "repetitions": [{k: v for k, v in r.items() if k not in ("layers", "spans")}
                        for r in reps],
    }
    if not untraced_reps or (trace and not traced_reps):
        return result

    def median(reps_, key):
        return statistics.median(key(r) for r in reps_)

    solve_s = median(untraced_reps, lambda r: r["solve_s"])
    end_to_end = {
        "setup_s": median(untraced_reps, lambda r: r["setup_s"]),
        "solve_s": solve_s,
        "peak_rss_mb": median(untraced_reps, lambda r: r["peak_rss_mb"]),
    }
    n = len(untraced_reps)
    extras = {"failed_frac": (failed / len(reps), "fraction", f"{failed} of {len(reps)} failed")}
    values = untraced_reps[0].get("values", {})
    if "trajectories" in values:
        extras["trajectories_per_s"] = (values["trajectories"] / solve_s, "1/s",
                                        f"{values['trajectories']} over the median of {n}")
    if "queries" in values:
        extras["queries"] = (values["queries"], "count", f"identical in {n} untraced")
    if "choi_distance" in values:
        extras["choi_distance"] = (values["choi_distance"], "trace-norm/n", "first repetition")
    result["samples"] = n
    result["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                            for k, v in end_to_end.items()}
    result["extras"] = {k: {"value": v, "unit": u, "samples": note}
                        for k, (v, u, note) in extras.items()}
    if trace:
        result.update(per_layer(workload, traced_reps, solve_s))
        spans_path = OUT_DIR / "results" / f"{workload}-seed{seed}.spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(traced_reps[-1]["spans"]), encoding="utf-8")
    return result


def per_layer(workload: str, traced_reps: list[dict], untraced_solve_s: float):
    """Per-layer metrics, the per-function breakdown, and the workload's stress share."""
    traced_solve_s = statistics.median(r["solve_s"] for r in traced_reps)
    functions = {}
    for name in span_names():
        self_s = statistics.median(r["layers"][name]["self_s"] for r in traced_reps)
        functions[name] = {"calls": traced_reps[0]["layers"][name]["calls"], "self_s": self_s,
                           "share": self_s / traced_solve_s}

    metrics: dict = {f"{name}.calls": f["calls"] for name, f in functions.items()}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = sum(f["self_s"] for name, f in functions.items()
                                         if name.startswith(layer + "."))
    builds = functions["chebyshev.heaviside_filter"]["calls"]
    spec = WORKLOADS[workload]
    splits = spec["bands"] - 1 if spec["command"] == "project" else 0
    metrics["chebyshev.filter_builds_per_split"] = splits / builds if builds and splits else 0.0
    metrics["trace.missing"] = len(traced_reps[0]["missing"])
    metrics["trace.overhead_s"] = traced_solve_s - untraced_solve_s

    predictions = json.loads((BENCH_DIR / "predictions.json").read_text(encoding="utf-8"))
    stress = predictions["workloads"][workload]["stress"]
    share = sum(functions[name]["share"] for name in stress["spans"])
    stress = dict(stress, share=share, met=share >= stress["min_share"],
                  missing=traced_reps[0]["missing"])
    units = per_layer_units()
    return {"per_layer": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "functions": functions, "stress": stress, "traced_solve_s": traced_solve_s,
            "traced_samples": len(traced_reps)}


def report(result: dict, seed: int) -> dict:
    """Print the human-readable lines and return the contract's result object."""
    w, m = result["workload"], result["machine"]
    print(f"# {w} seed {seed}: {result['attempted']} repetitions, {result['failed']} failed")
    print(f"#   commit {m['commit']}, {m['nproc']} x {m['cpu_model']}, Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, {m['openblas']}, threads pinned to 1")
    for problem in result["problems"]:
        print(f"#   problem: {problem}")
    if "end_to_end" not in result:
        return {}
    n = result["samples"]
    for name, m in result["end_to_end"].items():
        print(f"#   {name:<22} {m['value']:<24.6g} {m['unit']:<12} (median of {n} untraced)")
    for name, m in result["extras"].items():
        print(f"#   {name:<22} {m['value']:<24.6g} {m['unit']:<12} ({m['samples']})")
    metrics = result["end_to_end"]
    if result["trace"]:
        nt = result["traced_samples"]
        print(f"#   traced solve_s {result['traced_solve_s']:.6g} s (median of {nt} traced)")
        print(f"#   {'function':<38} {'calls':>7} {'self_s':>11} {'share':>7}")
        for name, f in result["functions"].items():
            print(f"#   {name:<38} {f['calls']:>7} {f['self_s']:>11.5f} "
                  f"{100 * f['share']:>6.1f}%")
        for name, m in result["per_layer"].items():
            print(f"#   {name:<38} {m['value']:<14.6g} {m['unit']}")
        s = result["stress"]
        print(f"#   stress: {' + '.join(s['spans'])} self time is {100 * s['share']:.1f}% of "
              f"traced solve_s (chosen for >= {100 * s['min_share']:.0f}%)")
        if s["missing"]:
            print(f"#   missing traced functions: {', '.join(s['missing'])}")
        metrics = result["per_layer"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fqsvt" / "__init__.py").is_file():
        print(f"error: fqsvt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        path = OUT_DIR / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        line = report(result, args.seed)
        if not line:
            print(f"error: {workload} produced no timed repetition", file=sys.stderr)
            ok = False
            continue
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
