"""scenopt benchmark: drives the CLI workloads and checks their outputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ./src, nothing is built.
Every invocation runs `scenopt.cli.main(argv)` in process in a fresh
interpreter (perfbench/child.py) with BLAS/OpenMP pinned to one thread.

--trace 0 measures end to end.  A run times set-up in several set-up-only
children, then runs invocations until the next one would end after S
seconds.  The first invocation of a seeded workload uses the reference
pipeline seed and its artifacts must match the recorded digests; the rest
use pipeline seeds derived from --seed.  Every invocation passes its
workload's gate or all its operations count as failed.

--trace 1 runs one seeded invocation untraced, traced (perfbench/tracer.py)
and untraced again, reports the per-layer numbers of the traced one and the
tracing overhead, and writes its spans to .perfbench_out/<workload>/spans.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a human-readable table and a
JSON detail record with the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import REFERENCE_DIGESTS, WORKLOADS, derived_seed

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

# (name, unit, better, bound) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Timed set-up-only children at each end of a run, after one untimed one;
# the speed of a shared machine drifts over seconds, so both ends are sampled.
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must exit within 180 s

THREAD_PIN = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def _invoke(env, request, deadline):
    """Run one child; returns (ready record, setup seconds, result)."""
    start = _monotonic()
    with subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True) as proc:
        try:
            out, _ = proc.communicate(json.dumps(request) + "\n",
                                      timeout=max(1.0, deadline - _monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError("a workload child ran past the run's time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or (request and len(lines) < 2):
        raise BenchError(f"workload child failed with exit code {proc.returncode}")
    ready = json.loads(lines[0])
    result = json.loads(lines[-1]) if request else None
    return ready, ready["ready"] - start, result


def _check(workload, result, reference):
    """Reasons an invocation's outputs are wrong; empty when correct."""
    bad = [c for c in result["codes"] if c != 0]
    if bad:
        return [f"CLI exit codes {bad}"]
    if None in result["payloads"]:
        return ["CLI printed no JSON result"]
    errors = workload.gate(result["payloads"], reference)
    if reference:
        observed = {name: art["sha256"]
                    for arts in result["artifacts"] for name, art in arts.items()}
        if observed != REFERENCE_DIGESTS[workload.name]:
            errors.append("artifacts differ from the recorded digests")
    return errors


def _fresh_dir(path: Path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path.relative_to(ROOT))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment(ready) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": ready["python"],
        "numpy": ready["numpy"],
        "scipy": ready["scipy"],
        "thread_pin": THREAD_PIN,
    }


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics plus a detail record."""
    env = _child_env()
    deadline = _monotonic() + RUN_LIMIT_S
    base = OUT / workload.name
    _fresh_dir(base)
    ready, _, _ = _invoke(env, None, deadline)  # fills caches, untimed
    setups = [_invoke(env, None, deadline)[1] for _ in range(SETUP_PROBES)]
    has_reference = workload.name in REFERENCE_DIGESTS
    min_runs = 2 if has_reference else 1
    runs, totals = [], []
    attempted = failed = 0
    start = _monotonic()
    while True:
        k = len(runs)
        reference = has_reference and k == 0
        cli_seed = (workload.reference_seed if reference
                    else derived_seed(workload.name, seed, k))
        argvs = workload.argvs(cli_seed, _fresh_dir(base / f"run{k}"))
        t0 = _monotonic()
        _, setup_s, result = _invoke(env, {"argvs": argvs}, deadline)
        totals.append(_monotonic() - t0)
        setups.append(setup_s)
        errors = _check(workload, result, reference)
        attempted += workload.ops
        failed += workload.ops if errors else 0
        runs.append({
            "cli_seed": cli_seed, "reference": reference,
            "wall_s": sum(result["walls"]), "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"], "errors": errors,
            "digests": {n: a["sha256"] for arts in result["artifacts"]
                        for n, a in arts.items()},
        })
        elapsed = _monotonic() - start
        if len(runs) >= min_runs and elapsed + statistics.median(totals) > seconds:
            break
    setups += [_invoke(env, None, deadline)[1] for _ in range(SETUP_PROBES)]
    walls = [r["wall_s"] for r in runs]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "ops_per_s": (workload.ops * len(runs) / sum(walls), len(walls)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        len(runs)),
    }
    detail = {"workload": workload.name, "seed": seed, "trace": 0,
              "held_out_seed": workload.held_out_seed, "runs": runs,
              "setup_samples": setups, "environment": _environment(ready)}
    return metrics, attempted, failed, detail


def traced(workload, seed):
    """Traced run: per-layer metrics of one invocation and the overhead.

    The invocation runs untraced, traced, then untraced again; the overhead
    is the traced wall time minus the mean of the two untraced ones, which
    cancels a steady drift in machine speed.
    """
    env = _child_env()
    deadline = _monotonic() + RUN_LIMIT_S
    base = OUT / workload.name
    _fresh_dir(base)
    cli_seed = derived_seed(workload.name, seed, 1)
    spans_path = base / "spans.json"
    results = []
    for step, trace in (("before", False), ("traced", True), ("after", False)):
        request = {"argvs": workload.argvs(cli_seed, _fresh_dir(base / step)),
                   "trace": trace, "spans_path": str(spans_path)}
        ready, _, result = _invoke(env, request, deadline)
        results.append(result)
    errors = [e for r in results for e in _check(workload, r, False)]
    if any(r["artifacts"] != results[0]["artifacts"] for r in results):
        errors.append("tracing changed the artifacts")
    seen = results[1]
    untraced_s = [sum(results[0]["walls"]), sum(results[2]["walls"])]
    layers = seen["layers"]
    payload = seen["payloads"][0] or {}
    trials = workload.ops if "excluded" in payload else 0
    layers["experiments.excluded_ratio"] = (
        payload["excluded"] / trials if trials else 0.0)
    layers["experiments.borderline_rate"] = max(
        0.0, payload.get("combined_half_width", 0.0)
        - payload.get("half_width_95", 0.0))
    layers["cli.artifact_bytes"] = sum(
        a["bytes"] for arts in seen["artifacts"] for a in arts.values())
    layers["trace.overhead_s"] = sum(seen["walls"]) - statistics.mean(untraced_s)
    metrics = {name: (layers[name], 1) for name, _, _ in tracer.PER_LAYER}
    attempted = len(results) * workload.ops
    failed = attempted if errors else 0
    detail = {"workload": workload.name, "seed": seed, "trace": 1,
              "cli_seed": cli_seed, "errors": errors,
              "untraced_wall_s": untraced_s,
              "traced_wall_s": sum(seen["walls"]),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "environment": _environment(ready)}
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scenopt" / "cli.py").is_file():
        print(f"no scenopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = ({name: unit for name, unit, _ in tracer.PER_LAYER} if args.trace
             else {name: unit for name, unit, _, _ in END_TO_END})
    lines, combined = [], {}
    attempted = failed = 0
    try:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                metrics, att, fail, detail = traced(workload, args.seed)
            else:
                metrics, att, fail, detail = measure(
                    workload, args.seed, args.seconds)
            attempted += att
            failed += fail
            for metric, (value, count) in metrics.items():
                lines.append(f"{name:<20} {metric:<42} {value:>14.6g} "
                             f"{units[metric]:<6} n={count}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                combined[key] = {"value": value, "unit": units[metric]}
            lines.append(f"{name:<20} operations attempted {att}, failed {fail}")
            lines.append(json.dumps({"detail": detail}))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
