"""Command-line interface.

Subcommands: bound, cascade, greedy, experiment.  Structured results go to
stdout as JSON; tabular artifacts are written as CSV files with a JSON
metadata sidecar that echoes the full configuration, seed and package
version, so any artifact can be reproduced bit for bit.

Exit codes: 0 success, 2 usage or input error (including too few scenarios
for the requested removals), 3 assumption or degeneracy failure (the
offending stage index is reported) or every Monte Carlo trial excluded,
4 solver failure (an infeasible or unbounded stage or greedy candidate LP,
a simplex stall or a singular simplex basis).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from scenopt import bounds, experiments
from scenopt.engine import (
    AssumptionViolated,
    CascadeError,
    DegeneracyDetected,
    InsufficientScenarios,
    RemovalMode,
    ScenarioProgram,
    greedy_removal,
    run_cascade,
    verify_compression,
)
from scenopt.experiments import AllTrialsExcluded, RandomSource
from scenopt.lp import (
    ACTIVE_TOL,
    FEAS_TOL,
    PIVOT_TOL,
    X_TOL,
    LpInputError,
    SimplexStallError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_SOLVER = 4

OUTDIR_ENV = "SCENOPT_OUT_DIR"


def _add_program_source_flags(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="scenario program JSON file")
    src.add_argument(
        "--generator", choices=["analytic", "resource"],
        help="draw a fresh program from a built-in family",
    )
    parser.add_argument("--m", type=int, help="scenario count for generators")
    parser.add_argument("--d", type=int, default=2, help="dimension (resource)")
    parser.add_argument("--n", type=int, default=2,
                        help="rows per scenario (resource)")
    parser.add_argument("--seed", type=int, default=0)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_program(args) -> ScenarioProgram:
    if args.input:
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise LpInputError(f"cannot read {args.input}: {exc}") from exc
        return ScenarioProgram.from_json(text)
    if args.m is None:
        raise LpInputError("--m is required with --generator")
    rng = RandomSource(seed=args.seed).generator()
    if args.generator == "analytic":
        return experiments.gen_analytic(args.m, rng)
    return experiments.gen_resource(args.d, args.n, args.m, rng)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _cmd_bound(args) -> int:
    formula = args.formula
    if formula == "analytic" and args.d != 1:
        # --invert and --max-r answer through the cascade formula, which
        # equals the analytic tail only at d = 1
        raise LpInputError(f"the analytic family is 1-D; got --d {args.d}")
    if formula == "compression":
        if args.zeta is None:
            raise LpInputError("--zeta is required for the compression formula")
        r = args.zeta - args.d
    else:
        r = args.r if args.r is not None else 0
    payload: dict = {
        "formula": formula,
        "m": args.m,
        "d": args.d,
        "r": r,
        "epsilon": args.eps,
    }
    if args.eps is not None:
        if formula == "compression":
            bv = bounds.bound_compression(args.m, args.zeta, args.eps)
        elif formula == "classical":
            bv = bounds.bound_classical(args.m, args.d, r, args.eps)
        elif formula == "analytic":
            payload["value"] = bounds.analytic_violation_cdf(args.m, r, args.eps)
            bv = None
        else:
            bv = bounds.bound_cascade(args.m, args.d, r, args.eps)
        if bv is not None:
            payload["value"] = bv.value
            payload["raw"] = bv.raw
    if args.invert is not None:
        inv = bounds.invert_epsilon(
            args.m, args.d, r, args.invert,
            formula if formula != "analytic" else "cascade",
        )
        payload["epsilon_star"] = inv.epsilon
        payload["at_lower_boundary"] = inv.at_lower_boundary
    if args.max_r:
        if args.eps is None or args.beta is None:
            raise LpInputError("--max-r needs both --eps and --beta")
        f = formula if formula != "analytic" else "cascade"
        r_max = bounds.max_removable(args.m, args.d, args.eps, args.beta, f)
        payload["max_removable"] = r_max
        # the floor that batch=True applies, without a second scan
        payload["max_removable_batched"] = r_max - r_max % args.d
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cascade / greedy
# ---------------------------------------------------------------------------


def _cmd_cascade(args) -> int:
    program = _load_program(args)
    mode = RemovalMode(args.mode)
    trace = run_cascade(program, args.ell, mode=mode)
    out = _out_dir(args)
    trace_path = out / "cascade_trace.json"
    trace_path.write_text(json.dumps(trace.to_dict(), indent=2) + "\n")
    stages_csv = experiments.rows_to_csv(
        ["k", "objective", "support", "padding", "removed", "degenerate"],
        [
            [s.k, s.objective, " ".join(map(str, sorted(s.support))),
             " ".join(map(str, sorted(s.padding))),
             " ".join(map(str, sorted(s.removed))), s.degenerate]
            for s in trace.stages
        ],
    )
    (out / "cascade_stages.csv").write_text(stages_csv)
    summary = {
        "final_objective": trace.final_objective,
        "final_x": np.asarray(trace.final_x).tolist(),
        "stages": len(trace.stages),
        "removed_total": sum(
            len(s.removed) for s in trace.stages[:-1]
        ),
        "trace_file": str(trace_path),
        "solve_counts": trace.counts.to_dict(),
    }
    if args.verify_compression:
        summary["compression_verified"] = verify_compression(
            program, args.ell, trace
        )
    _emit(summary)
    return EXIT_OK


def _cmd_greedy(args) -> int:
    program = _load_program(args)
    trace = greedy_removal(program, args.r)
    out = _out_dir(args)
    trace_path = out / "greedy_trace.json"
    trace_path.write_text(json.dumps(trace.to_dict(), indent=2) + "\n")
    steps_csv = experiments.rows_to_csv(
        ["step", "removed_label", "objective"],
        [[s.step, s.removed_label, s.objective] for s in trace.steps],
    )
    (out / "greedy_steps.csv").write_text(steps_csv)
    _emit({
        "final_objective": trace.final_objective,
        "final_x": np.asarray(trace.final_x).tolist(),
        "removed_total": len(trace.steps),
        "trace_file": str(trace_path),
        "solve_counts": trace.counts.to_dict(),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


# Each grid point is a full pipeline run; larger grids are input errors.
_MAX_GRID_POINTS = 10_000


def _parse_grid(spec: str) -> list[float]:
    """Inclusive start:step:end grid, e.g. 0.01:0.005:0.08."""
    try:
        start, step, end = parts = [float(part) for part in spec.split(":")]
    except ValueError as exc:
        raise LpInputError(f"bad grid {spec!r}, expected start:step:end") from exc
    if not (np.all(np.isfinite(parts)) and step > 0 and end >= start):
        raise LpInputError(f"bad grid {spec!r}: need finite start <= end, step > 0")
    intervals = np.round((end - start) / step)  # inf if the quotient overflows
    if intervals >= _MAX_GRID_POINTS:
        raise LpInputError(
            f"bad grid {spec!r}: more than {_MAX_GRID_POINTS} points"
        )
    return [start + i * step for i in range(int(intervals) + 1)]


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise LpInputError(
            f"experiment {args.name!r} requires --" + ", --".join(missing)
        )


def _cmd_experiment(args) -> int:
    out = _out_dir(args)
    source = RandomSource(seed=args.seed)
    name = args.name
    if name in ("analytic-tightness", "outer-mc"):
        # one outer-probability pipeline; analytic-tightness runs it on the
        # analytic family, where the bound at d = 1 is the exact outer
        # probability, and reports the two-sided verdict
        _require(args, "m", "ell", "eps")
        tightness = name == "analytic-tightness"
        family = (
            experiments.AnalyticFamily(m=args.m)
            if tightness or args.generator == "analytic"
            else experiments.ResourceFamily(d=args.d, n=args.n, m=args.m)
        )
        config = {
            "experiment": name, "m": args.m, "ell": args.ell,
            "epsilon": args.eps, "trials": args.trials, "seed": args.seed,
        }
        if not tightness:
            config.update(generator=args.generator, d=family.d,
                          n=getattr(family, "n", None), n_inner=args.n_inner)
        result = experiments.run_outer_mc(
            family, args.ell, args.eps, args.trials, source,
            n_inner=args.n_inner,
        )
        trials_csv = experiments.rows_to_csv(
            ["seed", "trial", "final_objective", "violation", "exceed",
             "excluded"],
            result.rows,
        )
        fields = {"estimate": result.point,
                  "half_width_95": result.half_width_95}
        if tightness:
            fields["analytic_value"] = result.bound_value
            verdict = "tight"
        else:
            fields["combined_half_width"] = result.combined_half_width
            fields["bound_value"] = result.bound_value
            verdict = "valid"
        summary_csv = experiments.rows_to_csv(
            [*fields, "exceed_count", "excluded_count", verdict],
            [[*fields.values(), result.exceed_count, result.excluded_count,
              int(getattr(result, verdict))]],
        )
        stem = name.replace("-", "_")
        payload = {**fields, verdict: getattr(result, verdict),
                   "excluded": result.excluded_count}
    elif name == "resource-compare":
        _require(args, "m", "eps-grid")
        grid = _parse_grid(args.eps_grid)
        config = {
            "experiment": name, "d": args.d, "n": args.n, "m": args.m,
            "beta": args.beta, "eps_grid": grid, "seed": args.seed,
        }
        sweep = experiments.run_resource_compare(
            args.d, args.n, args.m, args.beta, grid, source
        )
        trials_csv = experiments.rows_to_csv(
            ["epsilon", "r_cascade", "r_greedy", "cascade_objective",
             "greedy_objective", "improvement_pct"],
            [[p.epsilon, p.r_cascade, p.r_greedy, p.cascade_objective,
              p.greedy_objective, p.improvement_pct] for p in sweep.points],
        )
        summary_csv = experiments.rows_to_csv(
            ["full_objective", "cascade_stage_solves", "greedy_stage_solves"],
            [[sweep.full_objective, sweep.cascade_stage_solves,
              sweep.greedy_stage_solves]],
        )
        stem = "resource_compare"
        payload = {
            "points": [
                {"epsilon": p.epsilon, "r_cascade": p.r_cascade,
                 "r_greedy": p.r_greedy,
                 "improvement_pct": p.improvement_pct}
                for p in sweep.points
            ],
            "full_objective": sweep.full_objective,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise LpInputError(f"unknown experiment {name!r}")

    config["tolerances"] = {"feas": FEAS_TOL, "active": ACTIVE_TOL,
                            "x": X_TOL, "pivot": PIVOT_TOL}
    (out / f"{stem}_trials.csv").write_text(trials_csv)
    (out / f"{stem}_summary.csv").write_text(summary_csv)
    (out / f"{stem}_metadata.json").write_text(experiments.metadata_blob(config))
    payload["artifacts"] = [
        str(out / f"{stem}_trials.csv"),
        str(out / f"{stem}_summary.csv"),
        str(out / f"{stem}_metadata.json"),
    ]
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: argparse keeps no state
    between parse_args calls, and every default here is a constant."""
    parser = argparse.ArgumentParser(
        prog="scenopt",
        description="Scenario optimization with batched constraint discarding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate or invert a tail bound")
    p_bound.add_argument("--formula", required=True,
                         choices=["cascade", "classical", "compression", "analytic"])
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--d", type=int, default=1)
    p_bound.add_argument("--r", type=int)
    p_bound.add_argument("--zeta", type=int)
    p_bound.add_argument("--eps", type=float)
    p_bound.add_argument("--beta", type=float)
    p_bound.add_argument("--invert", type=float, metavar="BETA",
                         help="print the smallest eps meeting this beta")
    p_bound.add_argument("--max-r", action="store_true",
                         help="print the largest removable r at --eps/--beta")
    p_bound.set_defaults(func=_cmd_bound)

    p_cascade = sub.add_parser("cascade", help="run the removal cascade")
    _add_program_source_flags(p_cascade)
    p_cascade.add_argument("--ell", type=int, required=True)
    p_cascade.add_argument("--mode", default="regularized",
                           choices=[m.value for m in RemovalMode])
    p_cascade.add_argument("--verify-compression", action="store_true")
    p_cascade.add_argument("--out")
    p_cascade.set_defaults(func=_cmd_cascade)

    p_greedy = sub.add_parser("greedy", help="run greedy one-by-one removal")
    _add_program_source_flags(p_greedy)
    p_greedy.add_argument("--r", type=int, required=True)
    p_greedy.add_argument("--out")
    p_greedy.set_defaults(func=_cmd_greedy)

    p_exp = sub.add_parser("experiment", help="run a full experiment pipeline")
    p_exp.add_argument("name", choices=["analytic-tightness", "resource-compare",
                                        "outer-mc"])
    p_exp.add_argument("--generator", choices=["analytic", "resource"],
                       default="resource")
    p_exp.add_argument("--m", type=int)
    p_exp.add_argument("--d", type=int, default=2)
    p_exp.add_argument("--n", type=int, default=2)
    p_exp.add_argument("--ell", type=int)
    p_exp.add_argument("--eps", type=float)
    p_exp.add_argument(
        "--eps-grid",
        help=f"start:step:end, inclusive; at most {_MAX_GRID_POINTS} points",
    )
    p_exp.add_argument("--beta", type=float, default=1e-6)
    p_exp.add_argument("--trials", type=int, default=1000)
    p_exp.add_argument("--n-inner", type=int, default=10_000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LpInputError, ValueError, InsufficientScenarios) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AssumptionViolated, DegeneracyDetected, AllTrialsExcluded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (CascadeError, SimplexStallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
