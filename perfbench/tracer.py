"""Span tracer that instruments scenopt from outside the package.

`install` wraps the public callables of each layer and rebinds every name
where the package looks it up, so no hook is needed inside `scenopt`.  A
span is (name, start, end, parent index, attributes); spans stay in memory
and are written out once the traced invocation ends.  A span's self time is
its duration minus the durations of its direct children (calls nest and run
on one thread, so children never overlap).

LP solves are tagged with their role from the name of the calling engine
function, which separates stage solves from support-detection, greedy
candidate and degeneracy re-solves without touching the engine.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

# Role of an LP solve, keyed by the engine function that called it.
_ROLE_BY_CALLER = {
    "_solved_stage": "stage",
    "solve_stage": "stage",
    "_support_from_solution": "support",
    "greedy_removal": "candidate",
    "run_cascade": "degeneracy",
    "is_nondegenerate": "degeneracy",
}
ROLES = ("stage", "support", "candidate", "degeneracy")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.self_s", "s", "lower"),
    ("lp.solve.ms_p50", "ms", "lower"),
    ("lp.solve.ms_p99", "ms", "lower"),
    ("lp.solve.refined.calls", "count", "lower"),
    ("lp.solve.unrefined.calls", "count", "lower"),
    ("lp.solve.untagged.calls", "count", "lower"),
    ("lp.solve.nonoptimal", "count", "lower"),
    ("lp.solve.incl_share", "ratio", "lower"),
    ("lp.rows_per_solve", "rows", "lower"),
    ("lp.bytes_in_computed", "bytes", "lower"),
    ("engine.assemble.calls", "count", "lower"),
    ("engine.assemble.self_s", "s", "lower"),
    ("engine.assemble.rows", "rows", "lower"),
    ("engine.assemble.incl_share", "ratio", "lower"),
    ("engine.stage_solve.self_s", "s", "lower"),
    ("engine.support_solve.self_s", "s", "lower"),
    ("engine.candidate_solve.self_s", "s", "lower"),
    ("engine.degeneracy_solve.self_s", "s", "lower"),
    ("engine.solves.stage", "count", "lower"),
    ("engine.solves.support", "count", "lower"),
    ("engine.solves.candidate", "count", "lower"),
    ("engine.solves.degeneracy", "count", "lower"),
    ("engine.support.certified_ratio", "ratio", "higher"),
    ("engine.support_detect.self_s", "s", "lower"),
    ("engine.support_detect.incl_share", "ratio", "lower"),
    ("engine.run_cascade.ms_p50", "ms", "lower"),
    ("engine.run_cascade.ms_p99", "ms", "lower"),
    ("engine.run_cascade.self_s", "s", "lower"),
    ("engine.run_cascade.incl_share", "ratio", "lower"),
    ("engine.greedy_removal.self_s", "s", "lower"),
    ("engine.greedy_removal.incl_share", "ratio", "lower"),
    ("experiments.generate.calls", "count", "lower"),
    ("experiments.generate.self_s", "s", "lower"),
    ("experiments.generate.incl_share", "ratio", "lower"),
    ("experiments.estimate_violation.calls", "count", "lower"),
    ("experiments.estimate_violation.self_s", "s", "lower"),
    ("experiments.estimate_violation.incl_share", "ratio", "lower"),
    ("experiments.excluded_ratio", "ratio", "lower"),
    ("experiments.borderline_rate", "ratio", "lower"),
    ("bounds.binom_tail.calls", "count", "lower"),
    ("bounds.binom_tail.self_s", "s", "lower"),
    ("bounds.binom_tail.terms", "count", "lower"),
    ("bounds.binom_tail.incl_share", "ratio", "lower"),
    ("bounds.max_removable.self_s", "s", "lower"),
    ("bounds.invert_epsilon.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder; one per traced invocation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def wrap(self, name, fn, capture=None, tag_role=False):
        """Return fn wrapped in a span.  capture(attrs, args, kwargs,
        result) adds attributes; tag_role records the caller's LP role."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            attrs = {}
            if tag_role:
                caller = sys._getframe(1).f_code.co_name
                attrs["role"] = _ROLE_BY_CALLER.get(caller, "untagged")
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if capture is not None:
                capture(attrs, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def _capture_solve(attrs, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    attrs["rows"] = lp.n_rows
    attrs["d"] = lp.d
    attrs["refine"] = bool(args[2] if len(args) > 2 else kwargs.get("refine", True))
    attrs["optimal"] = result.is_optimal


def _capture_assemble(attrs, args, kwargs, result):
    attrs["rows"] = result[0].n_rows


def _capture_support(attrs, args, kwargs, result):
    attrs["found"] = len(result)


def _capture_counts(attrs, args, kwargs, result):
    c = result.counts
    attrs["counts"] = [c.stage_solves, c.support_solves,
                       c.candidate_solves, c.degeneracy_solves]


def _capture_tail(attrs, args, kwargs, result):
    k_max = args[1] if len(args) > 1 else kwargs["k_max"]
    eps = args[2] if len(args) > 2 else kwargs["eps"]
    # binom_tail returns before summing any term at eps 0 or 1
    attrs["terms"] = int(k_max) + 1 if 0.0 < float(eps) < 1.0 else 0


def install(tracer: Tracer):
    """Wrap each layer's public callables; returns the traced cli.main."""
    import scenopt.bounds as bounds
    import scenopt.cli as cli
    import scenopt.engine as engine
    import scenopt.experiments as experiments

    engine.solve = tracer.wrap("lp.solve", engine.solve, _capture_solve,
                               tag_role=True)
    # A private helper: should it be folded away, the support-detection
    # metrics read 0 and the rest of the trace still works.
    if hasattr(engine, "_support_from_solution"):
        engine._support_from_solution = tracer.wrap(
            "engine.support_detect", engine._support_from_solution,
            _capture_support)
    engine.ScenarioProgram.assemble = tracer.wrap(
        "engine.assemble", engine.ScenarioProgram.assemble, _capture_assemble)
    cascade = tracer.wrap("engine.run_cascade", engine.run_cascade,
                          _capture_counts)
    greedy = tracer.wrap("engine.greedy_removal", engine.greedy_removal,
                         _capture_counts)
    for module in (engine, experiments, cli):
        module.run_cascade = cascade
        module.greedy_removal = greedy
    for family in (experiments.AnalyticFamily, experiments.ResourceFamily):
        family.generate = tracer.wrap("experiments.generate", family.generate)
    experiments.estimate_violation = tracer.wrap(
        "experiments.estimate_violation", experiments.estimate_violation)
    bounds.binom_tail = tracer.wrap("bounds.binom_tail", bounds.binom_tail,
                                    _capture_tail)
    bounds.max_removable = tracer.wrap("bounds.max_removable",
                                       bounds.max_removable)
    bounds.invert_epsilon = tracer.wrap("bounds.invert_epsilon",
                                        bounds.invert_epsilon)
    return tracer.wrap("cli.main", cli.main)


def _percentile_ms(durations, q):
    """Nearest-rank percentile of durations (s), in ms; 0 when empty."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(q * len(ordered)))
    return 1e3 * ordered[rank - 1]


def layer_metrics(spans) -> dict:
    """Per-layer numbers from one traced invocation's spans.

    Counts and times are summed over the invocation; inclusive shares are
    the summed durations of a span name over the total cli.main time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        by_name.setdefault(name, []).append(
            (end - start, end - start - child_time[i], attrs))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name, role=None):
        return sum(s for _, s, a in by_name.get(name, ())
                   if role is None or a.get("role") == role)

    def incl(name):
        return sum(d for d, _, _ in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(a.get(key, 0) for _, _, a in by_name.get(name, ()))

    main_s = incl("cli.main")

    def share(name):
        return incl(name) / main_s if main_s > 0 else 0.0

    solves = by_name.get("lp.solve", [])
    counts = [0, 0, 0, 0]
    for name in ("engine.run_cascade", "engine.greedy_removal"):
        for _, _, a in by_name.get(name, ()):
            counts = [x + y for x, y in zip(counts, a["counts"])]
    support_solves = sum(1 for _, _, a in solves if a["role"] == "support")
    cascades = [d for d, _, _ in by_name.get("engine.run_cascade", ())]
    out = {
        "lp.solve.calls": len(solves),
        "lp.solve.self_s": self_s("lp.solve"),
        "lp.solve.ms_p50": _percentile_ms([d for d, _, _ in solves], 0.50),
        "lp.solve.ms_p99": _percentile_ms([d for d, _, _ in solves], 0.99),
        "lp.solve.refined.calls": sum(1 for _, _, a in solves if a["refine"]),
        "lp.solve.unrefined.calls": sum(1 for _, _, a in solves
                                        if not a["refine"]),
        "lp.solve.untagged.calls": sum(1 for _, _, a in solves
                                       if a["role"] == "untagged"),
        "lp.solve.nonoptimal": sum(1 for _, _, a in solves if not a["optimal"]),
        "lp.solve.incl_share": share("lp.solve"),
        "lp.rows_per_solve": (attr_sum("lp.solve", "rows") / len(solves)
                              if solves else 0.0),
        "lp.bytes_in_computed": sum(a["rows"] * (a["d"] + 1) * 8
                                    for _, _, a in solves),
        "engine.assemble.calls": calls("engine.assemble"),
        "engine.assemble.self_s": self_s("engine.assemble"),
        "engine.assemble.rows": attr_sum("engine.assemble", "rows"),
        "engine.assemble.incl_share": share("engine.assemble"),
    }
    for role in ROLES:
        out[f"engine.{role}_solve.self_s"] = self_s("lp.solve", role)
    for role, count in zip(ROLES, counts):
        out[f"engine.solves.{role}"] = count
    out.update({
        "engine.support.certified_ratio": (
            attr_sum("engine.support_detect", "found") / support_solves
            if support_solves else 0.0),
        "engine.support_detect.self_s": self_s("engine.support_detect"),
        "engine.support_detect.incl_share": share("engine.support_detect"),
        "engine.run_cascade.ms_p50": _percentile_ms(cascades, 0.50),
        "engine.run_cascade.ms_p99": _percentile_ms(cascades, 0.99),
        "engine.run_cascade.self_s": self_s("engine.run_cascade"),
        "engine.run_cascade.incl_share": share("engine.run_cascade"),
        "engine.greedy_removal.self_s": self_s("engine.greedy_removal"),
        "engine.greedy_removal.incl_share": share("engine.greedy_removal"),
        "experiments.generate.calls": calls("experiments.generate"),
        "experiments.generate.self_s": self_s("experiments.generate"),
        "experiments.generate.incl_share": share("experiments.generate"),
        "experiments.estimate_violation.calls":
            calls("experiments.estimate_violation"),
        "experiments.estimate_violation.self_s":
            self_s("experiments.estimate_violation"),
        "experiments.estimate_violation.incl_share":
            share("experiments.estimate_violation"),
        "bounds.binom_tail.calls": calls("bounds.binom_tail"),
        "bounds.binom_tail.self_s": self_s("bounds.binom_tail"),
        "bounds.binom_tail.terms": attr_sum("bounds.binom_tail", "terms"),
        "bounds.binom_tail.incl_share": share("bounds.binom_tail"),
        "bounds.max_removable.self_s": self_s("bounds.max_removable"),
        "bounds.invert_epsilon.self_s": self_s("bounds.invert_epsilon"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": len(spans),
    })
    return out
