"""Seeded generators, Monte Carlo estimators, and experiment pipelines.

Two scenario families are built in:

  analytic   minimize x over [0, 1] with rows x >= delta_i, delta uniform
             on [0, 1].  The violation probability of any x is exactly
             1 - x, so outer probabilities can be computed without nested
             sampling; this is the family on which the cascade bound is
             tight rather than merely valid.

  resource   maximize total production 1.x over x >= 0 subject to per
             scenario resource rows A(delta_i) x <= 1, where A entries are
             0.04 times Laplace draws with mean 1 and variance 3.

Reproducibility: every trial derives its generator from (seed, trial
index), so results are independent of execution order and identical runs
produce byte-identical CSV artifacts.

The solver-call accounting distinguishes stage-level solves from support
detection re-solves.  Under that convention a cascade with ell stages of
removal costs ell + 1 solves, while greedy removal of r scenarios from a
fully-supported d-dimensional program costs 1 + r * (d + 1): the initial
solve, then per step one re-solve for each of the d support candidates
plus the winner's confirming solve.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from scenopt import bounds
from scenopt.engine import (
    AssumptionViolated,
    CascadeError,
    CascadeTrace,
    GreedyTrace,
    RemovalMode,
    ScenarioProgram,
    greedy_removal,
    run_cascade,
)
from scenopt.lp import DEFAULT_TOL, LpTolerances

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class AllTrialsExcluded(CascadeError):
    """Every Monte Carlo trial was excluded, so nothing can be estimated."""

    def __init__(self, trials: int):
        self.trials = trials
        super().__init__(f"all {trials} trials were excluded (a support set "
                         "differed from d in fully-supported mode)")


@dataclass(frozen=True)
class RandomSource:
    """Seed plus the generator algorithm it pins down.

    The same seed yields the same sample stream on every platform; trial
    streams are derived as (seed, trial) so they are order-independent.
    """

    seed: int
    algorithm: str = "numpy-pcg64"

    def generator(self, *extra: int) -> np.random.Generator:
        if self.algorithm != "numpy-pcg64":
            raise ValueError(f"unknown generator algorithm {self.algorithm!r}")
        return np.random.default_rng((int(self.seed), *map(int, extra)))


@dataclass(frozen=True)
class ViolationEstimate:
    point: float
    n_samples: int
    half_width_95: float


@dataclass(frozen=True)
class OuterProbabilityEstimate:
    """Monte Carlo estimate of the outer probability P^m{violation > eps}."""

    epsilon: float
    trials: int
    exceed_count: int
    excluded_count: int
    point: float
    half_width_95: float
    borderline_rate: float = 0.0

    @property
    def combined_half_width(self) -> float:
        """Outer half-width widened by the rate of borderline inner calls.

        Trials whose nested violation estimate lands within its own inner
        half-width of eps can flip the exceedance indicator either way;
        counting their frequency on top of the outer half-width gives a
        conservative combined uncertainty.
        """
        return self.half_width_95 + self.borderline_rate


def _half_width(point: float, n: int) -> float:
    return _Z95 * math.sqrt(max(point * (1.0 - point), 0.0) / n)


# ---------------------------------------------------------------------------
# Scenario families.
# ---------------------------------------------------------------------------


def _program_from_blocks(cost, lower, upper, coeffs, rhs) -> ScenarioProgram:
    """Program over blocks coeffs (m, n, d) and rhs (m, n), labels 1..m."""
    m, n, d = coeffs.shape
    labels = np.arange(1, m + 1)
    return ScenarioProgram.from_rows(cost, lower, upper, labels,
                                     np.repeat(labels, n),
                                     coeffs.reshape(m * n, d), rhs.reshape(m * n))


@dataclass(frozen=True)
class AnalyticFamily:
    """1-D uniform family: min x on [0,1] with x >= delta_i."""

    m: int

    @property
    def d(self) -> int:
        return 1

    def sample_blocks(self, count: int, rng: np.random.Generator):
        deltas = rng.uniform(0.0, 1.0, count)
        coeffs = np.full((count, 1, 1), -1.0)
        rhs = -deltas.reshape(count, 1)
        return coeffs, rhs

    def generate(self, rng: np.random.Generator) -> ScenarioProgram:
        coeffs, rhs = self.sample_blocks(self.m, rng)
        return _program_from_blocks([1.0], [0.0], [1.0], coeffs, rhs)

    @staticmethod
    def exact_violation(x: np.ndarray) -> float:
        # P{delta > x} under the uniform law, clipped to [0, 1].
        return float(min(1.0, max(0.0, 1.0 - float(np.asarray(x).ravel()[0]))))


@dataclass(frozen=True)
class ResourceFamily:
    """Resource allocation family: max 1.x, x >= 0, A(delta_i) x <= 1."""

    d: int
    n: int
    m: int
    laplace_scale: float = math.sqrt(1.5)  # variance 3
    laplace_mean: float = 1.0
    entry_scale: float = 0.04

    def sample_blocks(self, count: int, rng: np.random.Generator):
        coeffs = self.entry_scale * rng.laplace(
            self.laplace_mean, self.laplace_scale, size=(count, self.n, self.d)
        )
        rhs = np.ones((count, self.n))
        return coeffs, rhs

    def generate(self, rng: np.random.Generator) -> ScenarioProgram:
        coeffs, rhs = self.sample_blocks(self.m, rng)
        return _program_from_blocks(-np.ones(self.d), np.zeros(self.d),
                                    np.full(self.d, np.inf), coeffs, rhs)

    exact_violation = None


def gen_analytic(m: int, rng: np.random.Generator) -> ScenarioProgram:
    """Fresh 1-D uniform program with labels 1..m in draw order."""
    return AnalyticFamily(m=m).generate(rng)


def gen_resource(d: int, n: int, m: int, rng: np.random.Generator) -> ScenarioProgram:
    """Fresh resource program with n Laplace rows per scenario."""
    return ResourceFamily(d=d, n=n, m=m).generate(rng)


# ---------------------------------------------------------------------------
# Violation estimation.
# ---------------------------------------------------------------------------


def estimate_violation(
    sampler: Callable[[int, np.random.Generator], tuple],
    x: Sequence[float],
    n_samples: int,
    rng: np.random.Generator,
    tol: LpTolerances = DEFAULT_TOL,
) -> ViolationEstimate:
    """Fraction of fresh scenarios whose block is violated by x.

    sampler(count, rng) must return (coeffs, rhs) with shapes
    (count, rows, d) and (count, rows); a scenario is violated when any of
    its rows exceeds its rhs by more than tol.feas.
    """
    x = np.asarray(x, dtype=float)
    coeffs, rhs = sampler(n_samples, rng)
    slack = coeffs @ x - rhs
    violated = np.any(slack > tol.feas, axis=1)
    point = float(np.mean(violated))
    return ViolationEstimate(
        point=point,
        n_samples=n_samples,
        half_width_95=_half_width(point, n_samples),
    )


# ---------------------------------------------------------------------------
# Outer-probability Monte Carlo.
# ---------------------------------------------------------------------------


def outer_probability_mc(
    family,
    ell_or_r: int,
    epsilon: float,
    trials: int,
    source: RandomSource,
    scheme: str = "cascade",
    mode: RemovalMode = RemovalMode.REGULARIZED,
    n_inner: int = 10_000,
    tol: LpTolerances = DEFAULT_TOL,
    per_trial: Optional[list] = None,
) -> OuterProbabilityEstimate:
    """Estimate P^m{ violation of the scheme's final solution > epsilon }.

    Draws a fresh m-sample per trial, runs the requested scheme (cascade
    with ell stages of removal, or greedy with r single removals), and
    measures the violation of the final solution: exactly where the family
    provides a closed form, otherwise with n_inner fresh scenarios.  Trials
    aborted by AssumptionViolated are excluded and counted; AllTrialsExcluded
    is raised when no trial is left to estimate from.  When per_trial
    is a list, one row dict per trial is appended for CSV emission.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    exceed = 0
    excluded = 0
    borderline = 0
    evaluated = 0
    for t in range(trials):
        rng = source.generator(t)
        program = family.generate(rng)
        try:
            if scheme == "cascade":
                trace = run_cascade(
                    program, ell_or_r, mode=mode, tol=tol, record_degeneracy=False
                )
                x = trace.final_x
                objective = trace.final_objective
            elif scheme == "greedy":
                gtrace = greedy_removal(program, ell_or_r, tol=tol)
                x = gtrace.final_x
                objective = gtrace.final_objective
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
        except AssumptionViolated:
            excluded += 1
            if per_trial is not None:
                per_trial.append(
                    {"seed": source.seed, "trial": t, "final_objective": "",
                     "violation": "", "exceed": "", "excluded": 1}
                )
            continue
        if family.exact_violation is not None:
            viol = family.exact_violation(x)
        else:
            est = estimate_violation(family.sample_blocks, x, n_inner, rng, tol)
            viol = est.point
            if abs(viol - epsilon) <= est.half_width_95:
                borderline += 1
        evaluated += 1
        hit = viol > epsilon
        exceed += int(hit)
        if per_trial is not None:
            per_trial.append(
                {"seed": source.seed, "trial": t, "final_objective": objective,
                 "violation": viol, "exceed": int(hit), "excluded": 0}
            )
    if evaluated == 0:
        raise AllTrialsExcluded(trials)
    point = exceed / evaluated
    return OuterProbabilityEstimate(
        epsilon=epsilon,
        trials=trials,
        exceed_count=exceed,
        excluded_count=excluded,
        point=point,
        half_width_95=_half_width(point, evaluated),
        borderline_rate=borderline / evaluated,
    )


# ---------------------------------------------------------------------------
# Cost comparisons: cascade batches vs greedy one-at-a-time.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostComparison:
    r_cascade: int
    r_greedy: int
    cascade_objective: float
    greedy_objective: float
    improvement_pct: float
    cascade_trace: CascadeTrace
    greedy_trace: GreedyTrace


def _improvement_pct(f_cascade: float, f_greedy: float) -> float:
    if f_cascade == f_greedy:
        return 0.0
    if f_greedy == 0.0:
        return math.inf if f_cascade < 0 else -math.inf
    return 100.0 * (f_cascade - f_greedy) / f_greedy


def compare_cost(
    program: ScenarioProgram,
    r: int,
    mode: RemovalMode = RemovalMode.REGULARIZED,
    tol: LpTolerances = DEFAULT_TOL,
) -> CostComparison:
    """Remove r scenarios by cascade batches and by greedy, same sample set.

    r must be a multiple of the dimension so the cascade can remove it in
    whole batches (ell = r / d stages).
    """
    d = program.d
    if r % d != 0:
        raise ValueError(f"r={r} is not a multiple of d={d}")
    trace = run_cascade(program, r // d, mode=mode, tol=tol,
                        record_degeneracy=False)
    gtrace = greedy_removal(program, r, tol=tol)
    return CostComparison(
        r_cascade=r,
        r_greedy=r,
        cascade_objective=trace.final_objective,
        greedy_objective=gtrace.final_objective,
        improvement_pct=_improvement_pct(
            trace.final_objective, gtrace.final_objective
        ),
        cascade_trace=trace,
        greedy_trace=gtrace,
    )


def solver_call_count(comparison: CostComparison) -> tuple[int, int]:
    """Stage-level solve counts (cascade, greedy) from an instrumented run.

    Cascade counts one solve per stage.  Greedy counts the initial solve,
    every candidate re-solve, and every winner re-solve; support-detection
    re-solves are tallied separately on the traces and not included here.
    """
    cascade = comparison.cascade_trace.counts.stage_solves
    greedy = (
        comparison.greedy_trace.counts.stage_solves
        + comparison.greedy_trace.counts.candidate_solves
    )
    return cascade, greedy


# ---------------------------------------------------------------------------
# Experiment pipelines (consumed by the CLI and the acceptance suite).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessResult:
    estimate: OuterProbabilityEstimate
    analytic_value: float
    tight: bool
    rows: tuple


def run_analytic_tightness(
    m: int,
    ell: int,
    epsilon: float,
    trials: int,
    source: RandomSource,
    tol: LpTolerances = DEFAULT_TOL,
) -> TightnessResult:
    """Outer probability of the 1-D cascade vs its closed form.

    The family is fully supported, so the cascade runs in fully-supported
    mode and the exact outer probability is the analytic lower binomial
    tail with r = ell (d = 1).  The tight flag records a two-sided match
    within three half-widths, not merely an upper bound.
    """
    per_trial: list = []
    est = outer_probability_mc(
        AnalyticFamily(m=m),
        ell,
        epsilon,
        trials,
        source,
        scheme="cascade",
        mode=RemovalMode.FULLY_SUPPORTED,
        tol=tol,
        per_trial=per_trial,
    )
    analytic = bounds.analytic_violation_cdf(m, ell, epsilon)
    tight = abs(est.point - analytic) <= 3.0 * est.half_width_95
    return TightnessResult(
        estimate=est,
        analytic_value=analytic,
        tight=tight,
        rows=tuple(per_trial),
    )


@dataclass(frozen=True)
class OuterMcResult:
    estimate: OuterProbabilityEstimate
    bound_value: float
    valid: bool
    rows: tuple


def run_outer_mc(
    family,
    ell: int,
    epsilon: float,
    trials: int,
    source: RandomSource,
    mode: RemovalMode = RemovalMode.REGULARIZED,
    n_inner: int = 10_000,
    tol: LpTolerances = DEFAULT_TOL,
) -> OuterMcResult:
    """Outer probability of a cascade vs the batched-removal bound."""
    per_trial: list = []
    est = outer_probability_mc(
        family, ell, epsilon, trials, source,
        scheme="cascade", mode=mode, n_inner=n_inner, tol=tol,
        per_trial=per_trial,
    )
    d = family.d
    value = bounds.bound_cascade(family.m, d, ell * d, epsilon).value
    valid = est.point <= value + 3.0 * est.combined_half_width
    return OuterMcResult(
        estimate=est, bound_value=value, valid=valid, rows=tuple(per_trial)
    )


@dataclass(frozen=True)
class SizingPoint:
    epsilon: float
    r_cascade: int
    r_greedy: int
    cascade_objective: float
    greedy_objective: float
    improvement_pct: float


@dataclass(frozen=True)
class SizingSweep:
    points: tuple[SizingPoint, ...]
    full_objective: float
    cascade_stage_solves: int
    greedy_stage_solves: int


def run_resource_compare(
    d: int,
    n: int,
    m: int,
    beta: float,
    eps_grid: Sequence[float],
    source: RandomSource,
    mode: RemovalMode = RemovalMode.REGULARIZED,
    tol: LpTolerances = DEFAULT_TOL,
) -> SizingSweep:
    """Cost of bound-sized batched removal vs bound-sized greedy removal.

    For each grid epsilon the removable count is taken from the matching
    bound (batched formula for the cascade arm, classical formula for the
    greedy arm) and floored to a whole number of d-batches, mirroring a
    scheme that can only discard batches.  One seeded scenario set serves
    the whole grid; since both schemes extend their own removal sequences
    as r grows, a single cascade run to the largest ell and a single greedy
    run to the largest r provide every grid point by prefix lookup.
    """
    program = gen_resource(d, n, m, source.generator())
    sizes = []
    for eps in eps_grid:
        r_c = bounds.max_removable(m, d, eps, beta, "cascade", batch=True)
        r_g = bounds.max_removable(m, d, eps, beta, "classical", batch=True)
        sizes.append((float(eps), r_c, r_g))
    max_ell = max((rc // d for _, rc, _ in sizes), default=0)
    max_rg = max((rg for _, _, rg in sizes), default=0)

    trace = run_cascade(program, max_ell, mode=mode, tol=tol,
                        record_degeneracy=False)
    cascade_obj = {k * d: trace.stages[k].objective for k in range(max_ell + 1)}
    if max_rg > 0:
        gtrace = greedy_removal(program, max_rg, tol=tol)
        greedy_obj = {0: trace.stages[0].objective}
        greedy_obj.update({s.step: s.objective for s in gtrace.steps})
        greedy_stage_solves = (
            gtrace.counts.stage_solves + gtrace.counts.candidate_solves
        )
    else:
        greedy_obj = {0: trace.stages[0].objective}
        greedy_stage_solves = 1

    points = []
    for eps, r_c, r_g in sizes:
        f_c = cascade_obj[r_c]
        f_g = greedy_obj[r_g]
        points.append(
            SizingPoint(
                epsilon=eps,
                r_cascade=r_c,
                r_greedy=r_g,
                cascade_objective=f_c,
                greedy_objective=f_g,
                improvement_pct=_improvement_pct(f_c, f_g),
            )
        )
    return SizingSweep(
        points=tuple(points),
        full_objective=trace.stages[0].objective,
        cascade_stage_solves=trace.counts.stage_solves,
        greedy_stage_solves=greedy_stage_solves,
    )


# ---------------------------------------------------------------------------
# CSV emission.
# ---------------------------------------------------------------------------


def rows_to_csv(header: Sequence[str], rows: Sequence) -> str:
    """Render rows (dicts or sequences) to a deterministic CSV string."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if isinstance(row, dict):
            writer.writerow([_csv_cell(row.get(col, "")) for col in header])
        else:
            writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metadata_blob(config: dict) -> str:
    """Provenance JSON embedded next to every artifact."""
    from scenopt import __version__

    payload = {"scenopt_version": __version__, "config": config}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
