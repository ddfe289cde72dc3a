"""Scenario programs and batched constraint discarding.

A scenario program is a linear objective over a box, plus one block of
affine rows per sampled scenario.  Scenarios carry distinct integer labels;
the labels induce the linear order used everywhere a deterministic choice
among scenarios is needed.

The central operation is the removal cascade: a chain of ell+1 programs in
which each stage solves on the scenarios that survive, identifies the
support scenarios of its minimizer, and discards a batch of exactly d of
them (the support set, padded with the smallest-label leftovers when the
support is thin).  The union of all per-stage batches, including the final
stage's recorded batch, forms a candidate compression set of cardinality
(ell+1)*d whose reconstruction property can be checked by re-running the
cascade on the candidate alone.

A greedy one-at-a-time removal baseline is provided for comparisons, along
with instrumentation that counts stage-level solves separately from the
support-detection and candidate re-solves.

Cascade execution is sequential by construction; independent cascades on
distinct programs may run concurrently since all inputs are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from scenopt.lp import (
    DEFAULT_TOL,
    LinearProgram,
    LpInputError,
    LpSolution,
    LpStatus,
    LpTolerances,
    solve,
)


class CascadeError(RuntimeError):
    """Base class for scheme-level failures."""


class AssumptionViolated(CascadeError):
    """A stage in fully-supported mode had a support set of the wrong size."""

    def __init__(self, stage: int, support_size: int, d: int):
        self.stage = stage
        self.support_size = support_size
        super().__init__(
            f"stage {stage}: support set has {support_size} scenarios, "
            f"expected exactly {d} in fully-supported mode"
        )


class DegeneracyDetected(CascadeError):
    """A stage produced more support scenarios than the dimension allows."""

    def __init__(self, stage: int, support_size: int, d: int):
        self.stage = stage
        super().__init__(
            f"stage {stage}: {support_size} support scenarios exceed d={d}; "
            "the instance is degenerate"
        )


class InsufficientScenarios(CascadeError):
    """Not enough scenarios remain for the requested removals."""


class StageSolveError(CascadeError):
    """A stage LP came back infeasible or unbounded."""

    def __init__(self, stage: Optional[int], status: LpStatus):
        self.stage = stage
        self.status = status
        where = "stage program" if stage is None else f"stage {stage}"
        super().__init__(f"{where} returned status {status.value}")


class RemovalMode(Enum):
    FULLY_SUPPORTED = "fully-supported"
    REGULARIZED = "regularized"


def _is_label(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_labels(values) -> np.ndarray:
    """Scenario labels as an int array; they must be distinct positive integers."""
    for v in values:
        if not _is_label(v):
            raise LpInputError(f"scenario label {v!r} is not an integer")
    labels = np.asarray(values, dtype=np.int64)
    if labels.size == 0:
        raise LpInputError("a scenario program needs at least one scenario")
    if labels.min() < 1:
        raise LpInputError(f"scenario label {labels.min()} is not positive")
    if np.unique(labels).size != labels.size:
        raise LpInputError("scenario labels must be distinct")
    return labels


@dataclass(frozen=True)
class Scenario:
    """One sampled uncertainty realization: a label plus its affine rows."""

    label: int
    coeffs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        if not _is_label(self.label):
            raise LpInputError(f"scenario label {self.label!r} is not an integer")
        coeffs = np.array(self.coeffs, dtype=float, ndmin=2)
        rhs = np.array(self.rhs, dtype=float, ndmin=1)
        if coeffs.shape[0] == 0:
            raise LpInputError(f"scenario {self.label}: block must be non-empty")
        if rhs.shape[0] != coeffs.shape[0]:
            raise LpInputError(f"scenario {self.label}: rhs length mismatch")
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(rhs))):
            raise LpInputError(f"scenario {self.label}: non-finite entries")
        coeffs.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_rows(self) -> int:
        return self.rhs.shape[0]


class ScenarioProgram:
    """Linear cost over a box, with labeled scenario constraint blocks.

    The rows of all scenarios are stored once, stacked in ascending label
    order, each scenario's rows in their given order: `coeffs` (R, d), `rhs`
    (R,) and `owners` (R,), the label of each row's scenario.  The arrays are
    read-only, and the LP over any subset of scenarios is a row selection.
    The labels' given order is kept for serialization.
    """

    def __init__(self, cost, lower, upper, scenarios: Iterable[Scenario]):
        scenarios = tuple(scenarios)
        labels = _as_labels([s.label for s in scenarios])
        d = len(np.atleast_1d(cost))
        for s in scenarios:
            if s.coeffs.shape[1] != d:
                raise LpInputError(
                    f"scenario {s.label}: rows have width {s.coeffs.shape[1]}, "
                    f"expected {d}"
                )
        self._store(
            cost, lower, upper, labels,
            owners=np.repeat(labels, [s.n_rows for s in scenarios]),
            coeffs=np.concatenate([s.coeffs for s in scenarios]),
            rhs=np.concatenate([s.rhs for s in scenarios]),
        )

    @classmethod
    def from_rows(cls, cost, lower, upper, labels, owners, coeffs, rhs
                  ) -> "ScenarioProgram":
        """Program from rows coeffs (R, d) @ x <= rhs (R,), in any order, row i
        owned by scenario owners[i]; labels gives the scenarios' order."""
        program = cls.__new__(cls)
        program._store(cost, lower, upper, _as_labels(labels), owners,
                       coeffs, rhs)
        return program

    def _store(self, cost, lower, upper, labels, owners, coeffs, rhs):
        box = LinearProgram(
            cost=cost,
            row_coeffs=np.zeros((0, len(np.atleast_1d(cost)))),
            row_rhs=np.zeros(0),
            lower=lower,
            upper=upper,
        )
        owners = np.asarray(owners)
        if not np.isin(owners, labels).all():
            raise LpInputError("some scenario rows belong to no given label")
        ordered = np.sort(labels)
        pos = np.searchsorted(ordered, owners)
        heights = np.bincount(pos, minlength=ordered.size)
        if not heights.all():
            raise LpInputError(
                f"scenario {ordered[np.argmin(heights)]}: block must be non-empty"
            )
        coeffs = np.asarray(coeffs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if coeffs.shape != (owners.size, box.d) or rhs.shape != (owners.size,):
            raise LpInputError(f"scenario rows of shapes {coeffs.shape} and "
                               f"{rhs.shape} do not match {owners.size} owners")
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(rhs))):
            raise LpInputError("scenario rows contain NaN or Inf")
        rows = np.argsort(pos, kind="stable")
        self.cost, self.lower, self.upper = box.cost, box.lower, box.upper
        self.coeffs, self.rhs, self.owners = coeffs[rows], rhs[rows], ordered[pos[rows]]
        for arr in (self.coeffs, self.rhs, self.owners):
            arr.setflags(write=False)
        self._given = labels
        self._sorted = ordered
        self._start = np.concatenate(([0], np.cumsum(heights)))
        self.labels: frozenset[int] = frozenset(labels.tolist())

    @property
    def d(self) -> int:
        return self.cost.shape[0]

    @property
    def m(self) -> int:
        return self._sorted.size

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """The scenarios in their given order, derived from the stored rows."""
        return tuple(self.scenario(lab) for lab in self._given.tolist())

    def scenario(self, label: int) -> Scenario:
        if label not in self.labels:
            raise KeyError(label)
        i = int(np.searchsorted(self._sorted, label))
        rows = slice(self._start[i], self._start[i + 1])
        return Scenario(label=int(label), coeffs=self.coeffs[rows],
                        rhs=self.rhs[rows])

    def assemble(self, labels: Iterable[int]) -> tuple[LinearProgram, np.ndarray]:
        """Build the LP enforcing the given labels; also map rows to owners.

        Rows come in ascending label order, so the LP depends only on the
        label set.
        """
        wanted = set(labels)
        missing = sorted(wanted - self.labels)
        if missing:
            raise LpInputError(f"unknown scenario labels: {missing}")
        rows = np.isin(self.owners, list(wanted))
        lp = LinearProgram(
            cost=self.cost,
            row_coeffs=self.coeffs[rows],
            row_rhs=self.rhs[rows],
            lower=self.lower,
            upper=self.upper,
        )
        return lp, self.owners[rows]

    def restrict(self, labels: Iterable[int]) -> "ScenarioProgram":
        """Program over a subset of scenarios, labels and their order preserved."""
        keep = set(labels)
        rows = np.isin(self.owners, list(keep))
        return ScenarioProgram.from_rows(
            self.cost, self.lower, self.upper,
            labels=[lab for lab in self._given.tolist() if lab in keep],
            owners=self.owners[rows],
            coeffs=self.coeffs[rows],
            rhs=self.rhs[rows],
        )

    # JSON wire format:
    # { "d": int, "cost": [..], "bounds": [[lo, hi], ..],
    #   "scenarios": [ {"label": int, "rows": [{"a": [..], "b": r}, ..]}, ..] }
    # A null bound entry means the variable is unbounded on that side.
    def to_dict(self) -> dict:
        def _b(v: float) -> Optional[float]:
            return None if not np.isfinite(v) else float(v)

        return {
            "d": self.d,
            "cost": self.cost.tolist(),
            "bounds": [[_b(lo), _b(hi)] for lo, hi in zip(self.lower, self.upper)],
            "scenarios": [
                {
                    "label": s.label,
                    "rows": [
                        {"a": a.tolist(), "b": float(b)}
                        for a, b in zip(s.coeffs, s.rhs)
                    ],
                }
                for s in self.scenarios
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioProgram":
        try:
            d = int(data["d"])
            cost = np.asarray(data["cost"], dtype=float)
            bounds = data["bounds"]
            lower = np.array(
                [-np.inf if b[0] is None else float(b[0]) for b in bounds]
            )
            upper = np.array(
                [np.inf if b[1] is None else float(b[1]) for b in bounds]
            )
            scenarios = data["scenarios"]
            labels = [s["label"] for s in scenarios]
            owners = [s["label"] for s in scenarios for _ in s["rows"]]
            coeffs = [[float(v) for v in row["a"]]
                      for s in scenarios for row in s["rows"]]
            rhs = [float(row["b"]) for s in scenarios for row in s["rows"]]
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise LpInputError(f"malformed scenario program: {exc}") from exc
        if cost.shape != (d,):
            raise LpInputError(f"declared d={d} but cost has shape {cost.shape}")
        for label, a in zip(owners, coeffs):
            if len(a) != d:
                raise LpInputError(
                    f"scenario {label}: a row has {len(a)} coefficients, expected {d}"
                )
        return cls.from_rows(cost, lower, upper, labels, owners, coeffs, rhs)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioProgram":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LpInputError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class SolveCounts:
    """Tally of LP solves by role; stage solves are the headline number."""

    stage_solves: int = 0
    support_solves: int = 0
    candidate_solves: int = 0
    degeneracy_solves: int = 0

    def to_dict(self) -> dict:
        return {
            "stage": self.stage_solves,
            "support": self.support_solves,
            "candidate": self.candidate_solves,
            "degeneracy": self.degeneracy_solves,
        }


@dataclass(frozen=True)
class StageRecord:
    k: int
    minimizer: np.ndarray
    objective: float
    support: frozenset[int]
    padding: frozenset[int]
    removed: frozenset[int]
    degenerate: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "minimizer": np.asarray(self.minimizer).tolist(),
            "objective": self.objective,
            "support": sorted(self.support),
            "padding": sorted(self.padding),
            "removed": sorted(self.removed),
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class CascadeTrace:
    mode: RemovalMode
    stages: tuple[StageRecord, ...]
    final_x: np.ndarray
    final_objective: float
    compression_candidate: frozenset[int]
    counts: SolveCounts

    @property
    def ell(self) -> int:
        return len(self.stages) - 1

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "ell": self.ell,
            "stages": [s.to_dict() for s in self.stages],
            "final_x": np.asarray(self.final_x).tolist(),
            "final_objective": self.final_objective,
            "compression_candidate": sorted(self.compression_candidate),
            "solve_counts": self.counts.to_dict(),
        }


@dataclass(frozen=True)
class GreedyStep:
    step: int
    removed_label: int
    objective: float


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]
    final_x: np.ndarray
    final_objective: float
    counts: SolveCounts

    def to_dict(self) -> dict:
        return {
            "steps": [
                {"step": s.step, "removed_label": s.removed_label,
                 "objective": s.objective}
                for s in self.steps
            ],
            "final_x": np.asarray(self.final_x).tolist(),
            "final_objective": self.final_objective,
            "solve_counts": self.counts.to_dict(),
        }


# ---------------------------------------------------------------------------
# Stage-level operations.
# ---------------------------------------------------------------------------


def solve_stage(
    program: ScenarioProgram,
    active_labels: Optional[Iterable[int]] = None,
    tol: LpTolerances = DEFAULT_TOL,
) -> LpSolution:
    """Solve the program restricted to the given labels (all by default)."""
    labels = program.labels if active_labels is None else set(active_labels)
    lp, _ = program.assemble(labels)
    return solve(lp, tol=tol)


def _solved_stage(program, labels, tol, stage=None):
    lp, owners = program.assemble(labels)
    sol = solve(lp, tol=tol)
    if not sol.is_optimal:
        raise StageSolveError(stage, sol.status)
    return lp, owners, sol


def _support_from_solution(program, labels, sol, owners, tol, counts):
    """Labels whose removal moves the minimizer by more than tol.x.

    Only scenarios owning at least one active row are tested: a scenario
    whose rows are all slack at the tie-broken minimizer cannot change it,
    because the minimizer stays feasible and lexicographic optimality is
    preserved on any enlargement of the feasible set that keeps a
    neighborhood of the optimum.
    """
    support = []
    for lab in sorted({int(owners[i]) for i in sol.active_rows}):
        lp_red, _ = program.assemble(labels - {lab})
        sol_red = solve(lp_red, tol=tol)
        counts.support_solves += 1
        if sol_red.status is LpStatus.UNBOUNDED:
            # the minimizer ceased to exist, which certainly changes it
            support.append(lab)
            continue
        if not sol_red.is_optimal:
            raise StageSolveError(None, sol_red.status)
        if np.max(np.abs(sol_red.x - sol.x)) > tol.x:
            support.append(lab)
    return frozenset(support)


def _reproduces(sol_sup: LpSolution, sol: LpSolution, tol: LpTolerances) -> bool:
    """True iff the support-only solve lands on the stage minimizer."""
    return bool(sol_sup.is_optimal
                and np.max(np.abs(sol_sup.x - sol.x)) <= tol.x)


def _stage_support(program, active_labels, tol):
    """Minimizer of the restricted program and its support scenarios."""
    labels = program.labels if active_labels is None else set(active_labels)
    _, owners, sol = _solved_stage(program, labels, tol)
    return sol, _support_from_solution(program, labels, sol, owners, tol,
                                       SolveCounts())


def support_set(
    program: ScenarioProgram,
    active_labels: Optional[Iterable[int]] = None,
    tol: LpTolerances = DEFAULT_TOL,
) -> frozenset[int]:
    """Support scenarios of the restricted program's minimizer."""
    return _stage_support(program, active_labels, tol)[1]


def is_nondegenerate(
    program: ScenarioProgram,
    active_labels: Optional[Iterable[int]] = None,
    tol: LpTolerances = DEFAULT_TOL,
) -> bool:
    """True iff enforcing only the support set reproduces the minimizer."""
    sol, support = _stage_support(program, active_labels, tol)
    lp_sup, _ = program.assemble(support)
    return _reproduces(solve(lp_sup, tol=tol), sol, tol)


def padding_set(
    available_labels: Iterable[int],
    support: Iterable[int],
    nu: int,
) -> frozenset[int]:
    """The nu smallest labels among the available non-support scenarios."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    pool = sorted(set(available_labels) - set(support))
    if len(pool) < nu:
        raise InsufficientScenarios(
            f"need {nu} padding scenarios but only {len(pool)} remain"
        )
    return frozenset(pool[:nu])


# ---------------------------------------------------------------------------
# The removal cascade.
# ---------------------------------------------------------------------------


def run_cascade(
    program: ScenarioProgram,
    ell: int,
    mode: RemovalMode = RemovalMode.REGULARIZED,
    tol: LpTolerances = DEFAULT_TOL,
    record_degeneracy: bool = True,
    _allow_exact_cover: bool = False,
) -> CascadeTrace:
    """Run the ell+1 stage removal cascade and record its full trace.

    Each stage k solves on the surviving scenarios and determines a batch
    R_k of exactly d labels: the support set alone in fully-supported mode
    (raising AssumptionViolated when its size differs from d), or the
    support set padded with the smallest-label survivors in regularized
    mode.  Batches are removed for k < ell; the final stage only records
    its batch.  Requires (ell+1)*d < m; the private flag relaxes this to
    equality for compression re-runs.
    """
    d, m = program.d, program.m
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    need = (ell + 1) * d
    if m < need or (m == need and not _allow_exact_cover):
        raise InsufficientScenarios(
            f"cascade with ell={ell} over d={d} requires more than "
            f"{need} scenarios, got {m}"
        )
    counts = SolveCounts()
    available = set(program.labels)
    stages: list[StageRecord] = []
    for k in range(ell + 1):
        lp, owners, sol = _solved_stage(program, available, tol, stage=k)
        counts.stage_solves += 1
        support = _support_from_solution(
            program, available, sol, owners, tol, counts
        )
        if len(support) > d:
            raise DegeneracyDetected(k, len(support), d)
        if mode is RemovalMode.FULLY_SUPPORTED:
            if len(support) != d:
                raise AssumptionViolated(k, len(support), d)
            padding: frozenset[int] = frozenset()
        else:
            padding = padding_set(available, support, d - len(support))
        batch = support | padding
        degenerate: Optional[bool] = None
        if record_degeneracy:
            lp_sup, _ = program.assemble(support)
            degenerate = not _reproduces(solve(lp_sup, tol=tol), sol, tol)
            counts.degeneracy_solves += 1
        stages.append(
            StageRecord(
                k=k,
                minimizer=sol.x,
                objective=sol.objective,
                support=support,
                padding=padding,
                removed=frozenset(batch),
                degenerate=degenerate,
            )
        )
        if k < ell:
            available -= batch
    compression = frozenset().union(*(s.removed for s in stages))
    last = stages[-1]
    return CascadeTrace(
        mode=mode,
        stages=tuple(stages),
        final_x=last.minimizer,
        final_objective=last.objective,
        compression_candidate=compression,
        counts=counts,
    )


def verify_compression(
    program: ScenarioProgram,
    ell: int,
    trace: CascadeTrace,
    tol: LpTolerances = DEFAULT_TOL,
) -> bool:
    """Re-run the cascade on the compression candidate alone and compare.

    Returns True iff every stage minimizer of the re-run matches the
    original within tol.x and, in regularized mode, every padding set
    matches exactly.
    """
    sub = program.restrict(trace.compression_candidate)
    retrace = run_cascade(
        sub,
        ell,
        mode=trace.mode,
        tol=tol,
        record_degeneracy=False,
        _allow_exact_cover=True,
    )
    for orig, redo in zip(trace.stages, retrace.stages):
        if np.max(np.abs(np.asarray(redo.minimizer) - np.asarray(orig.minimizer))) > tol.x:
            return False
        if trace.mode is RemovalMode.REGULARIZED and redo.padding != orig.padding:
            return False
    return True


# ---------------------------------------------------------------------------
# Greedy baseline.
# ---------------------------------------------------------------------------


def greedy_removal(
    program: ScenarioProgram,
    r: int,
    tol: LpTolerances = DEFAULT_TOL,
) -> GreedyTrace:
    """Remove r scenarios one at a time, each time the best cost improver.

    Candidates are the current support scenarios (removing anything else
    provably leaves the minimizer unchanged); ties on the re-solved
    objective break toward the smallest label.  When a stage has an empty
    support set no removal can improve the cost, and the smallest available
    label is dropped instead.
    """
    d, m = program.d, program.m
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r >= m - d:
        raise InsufficientScenarios(
            f"greedy removal of r={r} needs r < m - d = {m - d}"
        )
    counts = SolveCounts()
    available = set(program.labels)
    lp, owners, sol = _solved_stage(program, available, tol)
    counts.stage_solves += 1
    steps: list[GreedyStep] = []
    for step in range(1, r + 1):
        support = _support_from_solution(
            program, available, sol, owners, tol, counts
        )
        candidates = sorted(support) if support else sorted(available)
        best_label = None
        best_obj = np.inf
        for lab in candidates:
            lp_c, _ = program.assemble(available - {lab})
            sol_c = solve(lp_c, tol=tol, refine=False)
            counts.candidate_solves += 1
            if not sol_c.is_optimal:
                raise StageSolveError(None, sol_c.status)
            if sol_c.objective < best_obj:
                best_obj = sol_c.objective
                best_label = lab
        available.remove(best_label)
        lp, owners, sol = _solved_stage(program, available, tol)
        counts.stage_solves += 1
        steps.append(
            GreedyStep(step=step, removed_label=best_label,
                       objective=sol.objective)
        )
    return GreedyTrace(
        steps=tuple(steps),
        final_x=sol.x,
        final_objective=sol.objective,
        counts=counts,
    )


# Documented solve-count conventions for the two schemes.  The cascade
# solves one program per stage.  The greedy convention charges the initial
# solve, then per step one candidate re-solve for each of the d support
# scenarios of a fully-supported stage plus the winner's confirming
# re-solve: 1 + r * (d + 1).
def cascade_solve_count(ell: int) -> int:
    return ell + 1


def greedy_solve_count(r: int, d: int) -> int:
    return 1 + r * (d + 1)
