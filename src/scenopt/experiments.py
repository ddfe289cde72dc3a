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

Each family fixes the removal mode of its cascades (its mode attribute):
fully supported for analytic, regularized for resource.

Two pipelines run on them.  run_outer_mc estimates a cascade's outer
probability against the batched bound T(m, ell*d + d - 1, eps); on the
analytic family (d = 1, fully supported) that bound is the exact outer
probability, so the same pipeline tests its tightness.
run_resource_compare compares bound-sized batched removal with bound-sized
greedy removal on the resource family.

Reproducibility: every trial derives its generator from (seed, trial
index), so results are independent of execution order and identical runs
produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from scenopt import bounds
from scenopt.engine import (
    AssumptionViolated,
    CascadeError,
    RemovalMode,
    ScenarioProgram,
    greedy_removal,
    run_cascade,
)
from scenopt.lp import FEAS_TOL

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class AllTrialsExcluded(CascadeError):
    """Every Monte Carlo trial was excluded, so nothing can be estimated."""

    def __init__(self, trials: int):
        self.trials = trials
        super().__init__(f"all {trials} trials were excluded (a support set "
                         "differed from d in fully-supported mode)")


@dataclass(frozen=True)
class RandomSource:
    """Seed of numpy's default generator (PCG64).

    The same seed yields the same sample stream on every platform; trial
    streams are derived as (seed, trial) so they are order-independent.
    """

    seed: int

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng((int(self.seed), *map(int, extra)))


@dataclass(frozen=True)
class ViolationEstimate:
    point: float
    n_samples: int
    half_width_95: float


def _half_width(point: float, n: int) -> float:
    return _Z95 * math.sqrt(max(point * (1.0 - point), 0.0) / n)


# ---------------------------------------------------------------------------
# Scenario families.
# ---------------------------------------------------------------------------


def _program_from_blocks(cost, lower, upper, coeffs, rhs) -> ScenarioProgram:
    """Program over blocks coeffs (m, n, d) and rhs (m, n), labels 1..m."""
    m, n, d = coeffs.shape
    labels = np.arange(1, m + 1)
    return ScenarioProgram(cost, lower, upper, labels, np.repeat(labels, n),
                           coeffs.reshape(m * n, d), rhs.reshape(m * n))


@dataclass(frozen=True)
class AnalyticFamily:
    """1-D uniform family: min x on [0,1] with x >= delta_i."""

    m: int
    d = 1
    mode = RemovalMode.FULLY_SUPPORTED

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


# Resource row entries: _ENTRY_SCALE times Laplace draws of mean 1, variance 3.
_LAPLACE_MEAN = 1.0
_LAPLACE_SCALE = math.sqrt(1.5)  # variance 2 * scale**2
_ENTRY_SCALE = 0.04


@dataclass(frozen=True)
class ResourceFamily:
    """Resource allocation family: max 1.x, x >= 0, A(delta_i) x <= 1."""

    d: int
    n: int
    m: int
    mode = RemovalMode.REGULARIZED

    def sample_blocks(self, count: int, rng: np.random.Generator):
        coeffs = _ENTRY_SCALE * rng.laplace(
            _LAPLACE_MEAN, _LAPLACE_SCALE, size=(count, self.n, self.d)
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
) -> ViolationEstimate:
    """Fraction of fresh scenarios whose block is violated by x.

    sampler(count, rng) must return (coeffs, rhs) with shapes
    (count, rows, d) and (count, rows); a scenario is violated when any of
    its rows exceeds its rhs by more than FEAS_TOL.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    x = np.asarray(x, dtype=float)
    coeffs, rhs = sampler(n_samples, rng)
    slack = (coeffs.reshape(-1, x.size) @ x).reshape(rhs.shape) - rhs
    violated = np.any(slack > FEAS_TOL, axis=1)
    point = float(np.mean(violated))
    return ViolationEstimate(
        point=point,
        n_samples=n_samples,
        half_width_95=_half_width(point, n_samples),
    )


# ---------------------------------------------------------------------------
# Experiment pipelines (consumed by the CLI and the acceptance suite).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OuterMcResult:
    """Monte Carlo estimate of the outer probability P^m{violation > eps},
    the batched-removal bound beside it, and one CSV row dict per trial.

    combined_half_width widens the outer half-width by the rate of
    borderline inner calls: trials whose nested violation estimate lands
    within its own inner half-width of eps can flip the exceedance
    indicator either way, so counting their frequency on top gives a
    conservative combined uncertainty.  valid is the one-sided check
    against the bound within three combined half-widths; tight is a
    two-sided match within three outer half-widths.
    """

    exceed_count: int
    excluded_count: int
    point: float
    half_width_95: float
    borderline_rate: float
    bound_value: float
    rows: tuple

    @property
    def combined_half_width(self) -> float:
        return self.half_width_95 + self.borderline_rate

    @property
    def valid(self) -> bool:
        return self.point <= self.bound_value + 3.0 * self.combined_half_width

    @property
    def tight(self) -> bool:
        return abs(self.point - self.bound_value) <= 3.0 * self.half_width_95


def run_outer_mc(
    family,
    ell: int,
    epsilon: float,
    trials: int,
    source: RandomSource,
    n_inner: int = 10_000,
) -> OuterMcResult:
    """Outer probability of a cascade vs the batched-removal bound.

    The bound T(m, ell*d + d - 1, eps) is checked, and the query rejected,
    before any trial runs.  Each trial draws a fresh m-sample, runs the
    cascade with ell stages of removal in the family's removal mode
    (family.mode), and measures the violation of the final solution:
    exactly where the family provides a closed form, otherwise with n_inner
    fresh scenarios.  Trials aborted by AssumptionViolated are excluded and
    counted; AllTrialsExcluded is raised when no trial is left to estimate
    from.  The analytic family, fully supported, attains the bound: at
    d = 1 it is the family's exact outer probability, so tight is the
    tightness verdict there.
    """
    d = family.d
    value = bounds.bound_cascade(family.m, d, ell * d, epsilon).value
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    exceed = excluded = borderline = 0
    rows = []
    for t in range(trials):
        rng = source.generator(t)
        program = family.generate(rng)
        try:
            trace = run_cascade(
                program, ell, mode=family.mode, record_degeneracy=False
            )
        except AssumptionViolated:
            excluded += 1
            rows.append(
                {"seed": source.seed, "trial": t, "final_objective": "",
                 "violation": "", "exceed": "", "excluded": 1}
            )
            continue
        x = trace.final_x
        if family.exact_violation is not None:
            viol = family.exact_violation(x)
        else:
            est = estimate_violation(family.sample_blocks, x, n_inner, rng)
            viol = est.point
            if abs(viol - epsilon) <= est.half_width_95:
                borderline += 1
        hit = viol > epsilon
        exceed += int(hit)
        rows.append(
            {"seed": source.seed, "trial": t,
             "final_objective": trace.final_objective,
             "violation": viol, "exceed": int(hit), "excluded": 0}
        )
    evaluated = trials - excluded
    if evaluated == 0:
        raise AllTrialsExcluded(trials)
    point = exceed / evaluated
    return OuterMcResult(
        exceed_count=exceed,
        excluded_count=excluded,
        point=point,
        half_width_95=_half_width(point, evaluated),
        borderline_rate=borderline / evaluated,
        bound_value=value,
        rows=tuple(rows),
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


def _improvement_pct(f_cascade: float, f_greedy: float) -> float:
    if f_cascade == f_greedy:
        return 0.0
    if f_greedy == 0.0:
        return math.inf if f_cascade < 0 else -math.inf
    return 100.0 * (f_cascade - f_greedy) / f_greedy


def run_resource_compare(
    d: int,
    n: int,
    m: int,
    beta: float,
    eps_grid: Sequence[float],
    source: RandomSource,
) -> SizingSweep:
    """Cost of bound-sized batched removal vs bound-sized greedy removal.

    For each grid epsilon the removable count is taken from the matching
    bound (batched formula for the cascade arm, classical formula for the
    greedy arm) and floored to a whole number of d-batches, mirroring a
    scheme that can only discard batches.  One seeded scenario set serves
    the whole grid; since both schemes extend their own removal sequences
    as r grows, a single cascade run to the largest ell and a single greedy
    run to the largest r provide every grid point by prefix lookup.  The
    solve counts are read from the traces: the cascade's stage solves, and
    greedy's stage plus candidate solves (engine.greedy_solve_count's
    convention).
    """
    program = gen_resource(d, n, m, source.generator())
    sizes = []
    for eps in eps_grid:
        r_c = bounds.max_removable(m, d, eps, beta, "cascade", batch=True)
        r_g = bounds.max_removable(m, d, eps, beta, "classical", batch=True)
        sizes.append((float(eps), r_c, r_g))
    max_ell = max((rc // d for _, rc, _ in sizes), default=0)
    max_rg = max((rg for _, _, rg in sizes), default=0)

    trace = run_cascade(program, max_ell, mode=RemovalMode.REGULARIZED,
                        record_degeneracy=False)
    cascade_obj = {k * d: trace.stages[k].objective for k in range(max_ell + 1)}
    if max_rg > 0:
        gtrace = greedy_removal(program, max_rg)
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
