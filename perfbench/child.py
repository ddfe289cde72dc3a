"""One workload invocation in a fresh interpreter.

Set-up is `import scenopt.cli` plus one tiny warm-up solve; the child then
prints one JSON line holding the CLOCK_MONOTONIC time at which it became
ready (the parent took the same clock before starting it) and the library
versions.  It then reads one JSON request from stdin:

    {"argvs": [[...], ...], "trace": bool, "spans_path": str}

runs each argv through `scenopt.cli.main` in process, timing only those
calls, and prints one JSON result line.  With "trace" set, the calls run
under the tracer and the spans are written to "spans_path".  An empty or
null request exits after set-up, which is how set-up alone is measured.
"""

import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process's address space alone; ru_maxrss can
    # carry over the parent's peak across exec.
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _artifacts(payload) -> dict:
    found = {}
    for path in (payload or {}).get("artifacts", []):
        data = Path(path).read_bytes()
        found[Path(path).name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                  "bytes": len(data)}
    return found


def main() -> int:
    import numpy
    import scipy

    import scenopt
    import scenopt.cli
    from scenopt.lp import LinearProgram, solve

    if Path(scenopt.__file__).resolve().parents[1] != ROOT / "src":
        print(f"scenopt imported from {scenopt.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    solve(LinearProgram(cost=[1.0], row_coeffs=[[-1.0]], row_rhs=[-0.5],
                        lower=[0.0], upper=[1.0]))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__}),
          flush=True)

    line = sys.stdin.readline()
    request = json.loads(line) if line.strip() else None
    if not request:
        return 0

    main_fn = scenopt.cli.main
    tracer = None
    if request.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        main_fn = tracing.install(tracer)

    walls, codes, outputs = [], [], []
    for argv in request["argvs"]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main_fn(argv)
        except Exception:  # reported as a failed operation, not a crash
            traceback.print_exc()
            code = -1
        walls.append(time.perf_counter() - start)
        codes.append(code)
        outputs.append(buf.getvalue())

    payloads = []
    for code, text in zip(codes, outputs):
        try:
            payloads.append(json.loads(text) if code == 0 else None)
        except json.JSONDecodeError:
            payloads.append(None)
    result = {
        "walls": walls,
        "codes": codes,
        "payloads": payloads,
        "artifacts": [_artifacts(p) for p in payloads],
        "peak_rss_mb": _peak_rss_mb(),
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(request["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
