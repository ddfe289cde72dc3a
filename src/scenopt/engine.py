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

Each stage is solved once into one value that carries the only scan of
the constraints active at its minimizer and answers "what does the program
cost without this label" from that vertex, for support detection and for
the greedy one-at-a-time removal baseline alike.  Instrumentation counts
stage-level solves separately from the support-detection, candidate and
degeneracy solves.

Cascade execution is sequential by construction; independent cascades on
distinct programs may run concurrently since all inputs are immutable.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

import numpy as np

from scenopt.lp import (
    FEAS_TOL,
    X_TOL,
    LinearProgram,
    LpInputError,
    LpSolution,
    LpStatus,
    SimplexStallError,
    read_vertex,
    reoptimize,
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
    """A stage LP, or a support test's or greedy candidate's re-solve of it
    without one label, came back infeasible or unbounded.  `where` names the
    LP: "stage 2", "greedy step 1: stage program" (step 0 is the initial
    solve), "stage 2: the program without label 7", or "stage program"
    outside both schemes; the message also gives its row count."""

    def __init__(self, where: str, status: LpStatus, n_rows: int):
        self.where = where
        self.status = status
        self.n_rows = n_rows
        super().__init__(
            f"{where} returned status {status.value} ({n_rows} rows)")


class RemovalMode(Enum):
    FULLY_SUPPORTED = "fully-supported"
    REGULARIZED = "regularized"


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _number(value) -> float:
    """A finite JSON number (int or float, not bool or str) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LpInputError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise LpInputError(f"{value!r} is not a finite number")
    return float(value)


_MAX_LABEL = 2**63 - 1  # labels are stored as int64


def _as_labels(values) -> np.ndarray:
    """Scenario labels as an int64 array; they must be distinct integers in
    1 .. 2**63 - 1."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind in "iu"
            and np.can_cast(values.dtype, np.int64)):
        for v in values:
            if not _is_int(v):
                raise LpInputError(f"scenario label {v!r} is not an integer")
            if v < 1:
                raise LpInputError(f"scenario label {v} is not positive")
            if v > _MAX_LABEL:
                raise LpInputError(f"scenario label {v} exceeds 2**63 - 1")
    labels = np.asarray(values, dtype=np.int64)
    if labels.size == 0:
        raise LpInputError("a scenario program needs at least one scenario")
    # sorted neighbours, not np.unique, whose first call imports numpy.ma
    ordered = np.sort(labels)
    if ordered[0] < 1:
        raise LpInputError(f"scenario label {ordered[0]} is not positive")
    if (ordered[1:] == ordered[:-1]).any():
        raise LpInputError("scenario labels must be distinct")
    return labels


class ScenarioProgram:
    """Linear cost over a box, with labeled scenario constraint blocks.

    The one constructor takes the program's rows `coeffs` (R, d) @ x <= `rhs`
    (R,), in any order, row i owned by scenario `owners[i]`, and `labels`,
    the scenarios in their given order, which is kept for serialization.
    The rows are the program's one layout: stored once, stacked in
    ascending label order, each scenario's rows in their given order, with
    `owners` (R,) the label of each row's scenario.  The stack is one
    LinearProgram, built (and so validated) once when the program is;
    `cost`, `lower`, `upper`, `coeffs` and `rhs` are its read-only arrays,
    and the LP over any subset of scenarios is a row selection of it that
    is not validated again.
    """

    def __init__(self, cost, lower, upper, labels, owners, coeffs, rhs):
        labels = _as_labels(labels)
        lp = LinearProgram(cost=cost, row_coeffs=coeffs, row_rhs=rhs,
                           lower=lower, upper=upper)
        owners = np.asarray(owners)
        if owners.shape != (lp.n_rows,):
            raise LpInputError(f"{lp.n_rows} scenario rows do not match "
                               f"{owners.size} owners")
        if not np.isin(owners, labels).all():
            raise LpInputError("some scenario rows belong to no given label")
        ordered = np.sort(labels)
        pos = np.searchsorted(ordered, owners)
        heights = np.bincount(pos, minlength=ordered.size)
        if not heights.all():
            raise LpInputError(
                f"scenario {ordered[np.argmin(heights)]}: block must be non-empty"
            )
        rows = np.argsort(pos, kind="stable")
        self._lp = lp.select(rows)
        self.cost, self.lower, self.upper = lp.cost, lp.lower, lp.upper
        self.coeffs, self.rhs = self._lp.row_coeffs, self._lp.row_rhs
        self._row_pos = pos[rows]
        self.owners = ordered[self._row_pos]
        self.owners.setflags(write=False)
        self._given = labels
        self._sorted = ordered
        self.labels: frozenset[int] = frozenset(labels.tolist())

    @property
    def d(self) -> int:
        return self.cost.shape[0]

    @property
    def m(self) -> int:
        return self._sorted.size

    def _row_mask(self, wanted: set) -> np.ndarray:
        """Mask of the rows owned by wanted; unknown labels are an error."""
        missing = sorted(wanted - self.labels)
        if missing:
            raise LpInputError(f"unknown scenario labels: {missing}")
        keep = np.zeros(self._sorted.size, dtype=bool)
        keep[np.searchsorted(self._sorted, list(wanted))] = True
        return keep[self._row_pos]

    def assemble(self, labels: Iterable[int]) -> tuple[LinearProgram, np.ndarray]:
        """The LP enforcing the given labels, and the owner of each of its rows.

        The LP is a row selection of the program's validated stack, so rows
        come in ascending label order and the LP depends only on the label
        set.
        """
        rows = self._row_mask(set(labels))
        return self._lp.select(rows), self.owners[rows]

    def restrict(self, labels: Iterable[int]) -> "ScenarioProgram":
        """Program over a subset of scenarios, labels and their order preserved."""
        keep = set(labels)
        rows = self._row_mask(keep)
        return ScenarioProgram(
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

        # each scenario's block is a slice of the label-sorted rows
        coeffs, rhs = self.coeffs.tolist(), self.rhs.tolist()
        starts = np.searchsorted(self.owners, self._given).tolist()
        ends = np.searchsorted(self.owners, self._given, side="right").tolist()
        return {
            "d": self.d,
            "cost": self.cost.tolist(),
            "bounds": [[_b(lo), _b(hi)] for lo, hi in zip(self.lower, self.upper)],
            "scenarios": [
                {
                    "label": label,
                    "rows": [{"a": a, "b": b}
                             for a, b in zip(coeffs[i:j], rhs[i:j])],
                }
                for label, i, j in zip(self._given.tolist(), starts, ends)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioProgram":
        try:
            d = data["d"]
            cost = np.array([_number(v) for v in data["cost"]])
            bounds = data["bounds"]
            lower = np.array(
                [-np.inf if b[0] is None else _number(b[0]) for b in bounds]
            )
            upper = np.array(
                [np.inf if b[1] is None else _number(b[1]) for b in bounds]
            )
            scenarios = data["scenarios"]
            labels = [s["label"] for s in scenarios]
            owners = [s["label"] for s in scenarios for _ in s["rows"]]
            coeffs = [[_number(v) for v in row["a"]]
                      for s in scenarios for row in s["rows"]]
            rhs = [_number(row["b"]) for s in scenarios for row in s["rows"]]
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            raise LpInputError(f"malformed scenario program: {exc}") from exc
        if not _is_int(d):
            raise LpInputError(f"d {d!r} is not an integer")
        if cost.shape != (d,):
            raise LpInputError(f"declared d={d} but cost has shape {cost.shape}")
        for label, a in zip(owners, coeffs):
            if len(a) != d:
                raise LpInputError(
                    f"scenario {label}: a row has {len(a)} coefficients, expected {d}"
                )
        return cls(cost, lower, upper, labels, owners, coeffs, rhs)

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
    """Tally of LP solves by role; stage solves are the headline number.

    The counts are logical: one support solve per tested candidate and one
    candidate solve per greedy candidate, however many LP cores it took,
    none when lp.reoptimize answered it from the stage vertex.
    """

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


@contextmanager
def _naming_stalls(where):
    """Re-raise a SimplexStallError with `where`, the name of its LP, in front."""
    try:
        yield
    except SimplexStallError as exc:
        raise SimplexStallError(f"{where}: {exc}") from None


class _Stage(NamedTuple):
    """A solved stage: the LP over `labels`, its lex-min solution sol, and
    the LP read at sol.x by lp.read_vertex: its constraints as E' x <= q
    over the columns q prices finitely, the columns active at sol.x, and
    inv, the checked inverse of their matrix when there are exactly d of
    them (the vertex is simple, the start of lp.reoptimize), else None.
    The program's rows are E's first columns, in order
    (LinearProgram.select), and `owners` is the label of each."""

    labels: frozenset
    lp: LinearProgram
    owners: np.ndarray
    sol: LpSolution
    E: np.ndarray
    q: np.ndarray
    active: np.ndarray
    inv: Optional[np.ndarray]

    def cost_without(self, label, stop=-np.inf) -> Optional[float]:
        """lp.reoptimize from a simple vertex past the run of label's rows,
        stopped at the first vertex below stop; None when it is not simple."""
        if self.inv is None:
            return None
        run = slice(self.owners.searchsorted(label),
                    self.owners.searchsorted(label, "right"))
        return reoptimize(self.E, self.q, self.lp.cost, self.active, run,
                          self.inv, stop)


def _solved_stage(program, labels, where="stage program") -> _Stage:
    """The stage over labels, solved; a non-optimal LP raises StageSolveError."""
    labels = frozenset(labels)
    lp, _ = program.assemble(labels)
    with _naming_stalls(where):
        sol = solve(lp)
    if not sol.is_optimal:
        raise StageSolveError(where, sol.status, lp.n_rows)
    return _Stage(labels, lp, program.owners, sol, *read_vertex(lp, sol.x))


def _support_from_solution(program, stage, counts, where=None):
    """Labels whose removal moves the stage minimizer by more than X_TOL.

    Only scenarios owning at least one active row are tested: a scenario
    whose rows are all slack at the tie-broken minimizer cannot change it,
    because the minimizer stays feasible and lexicographic optimality is
    preserved on any enlargement of the feasible set that keeps a
    neighborhood of the optimum.

    A candidate is support when its reduced LP is unbounded or its optimum
    lies below sol.objective by more than margin = 2*|c|_1*X_TOL + FEAS_TOL:
    the refined minimizer x' of the reduced LP costs at most the unrefined
    optimum plus the drift its pinned cost row allows (covered by
    |c|_1*X_TOL + FEAS_TOL), and |c.(x' - x)| <= |c|_1 * max|x' - x|, so
    max|x' - x| > X_TOL.

    At a simple stage vertex stage.cost_without takes simplex steps from it
    past the candidate's rows.  Every vertex it visits satisfies the program
    without the candidate (the one it ends at is checked within FEAS_TOL),
    so that vertex's cost bounds the reduced optimum from above.  It stops
    at the first vertex that costs less than sol.objective - margin, and the
    candidate is support with no LP solved; when it reaches the reduced
    optimum inside the margin, the refined re-solve below decides at once.

    Every other candidate (no simple vertex, a step left undecided, or an
    unbounded edge, which the ratio test alone does not prove) is re-solved
    unrefined.  Inside the margin (cost ties that only move the tie-break,
    duplicated maxima, near-ties) the refined re-solve decides by
    max|x' - x| > X_TOL.  Each candidate counts as one support solve.
    """
    sol = stage.sol
    margin = 2.0 * np.abs(program.cost).sum() * X_TOL + FEAS_TOL
    rows = stage.active[stage.active < stage.owners.size]
    support = set()
    for lab in sorted(set(stage.owners[rows].tolist())):
        counts.support_solves += 1
        without = f"the program without label {lab}"
        if where:
            without = f"{where}: {without}"
        lp_red = None
        obj = stage.cost_without(lab, sol.objective - margin)
        if obj is None or obj == -np.inf:
            lp_red, _ = program.assemble(stage.labels - {lab})
            with _naming_stalls(without):
                coarse = solve(lp_red, refine=False)
            if coarse.status is LpStatus.UNBOUNDED:
                # the minimizer ceased to exist, which certainly changes it
                support.add(lab)
                continue
            if not coarse.is_optimal:
                raise StageSolveError(without, coarse.status, lp_red.n_rows)
            obj = coarse.objective
        if sol.objective - obj <= margin:
            # refining an optimal LP either succeeds or finds no lexicographic
            # minimum (unbounded), which changes the minimizer too
            if lp_red is None:
                lp_red, _ = program.assemble(stage.labels - {lab})
            with _naming_stalls(without):
                sol_red = solve(lp_red)
            if sol_red.is_optimal and np.max(np.abs(sol_red.x - sol.x)) <= X_TOL:
                continue
        support.add(lab)
    return frozenset(support)


def _reproduces(sol_sup: LpSolution, sol: LpSolution) -> bool:
    """True iff the support-only solve lands on the stage minimizer."""
    return bool(sol_sup.is_optimal
                and np.max(np.abs(sol_sup.x - sol.x)) <= X_TOL)


def support_set(
    program: ScenarioProgram,
    active_labels: Optional[Iterable[int]] = None,
) -> frozenset[int]:
    """Support scenarios of the restricted program's minimizer."""
    stage = _solved_stage(
        program, program.labels if active_labels is None else active_labels)
    return _support_from_solution(program, stage, SolveCounts())


def is_nondegenerate(
    program: ScenarioProgram,
    active_labels: Optional[Iterable[int]] = None,
) -> bool:
    """True iff enforcing only the support set reproduces the minimizer."""
    stage = _solved_stage(
        program, program.labels if active_labels is None else active_labels)
    support = _support_from_solution(program, stage, SolveCounts())
    lp_sup, _ = program.assemble(support)
    with _naming_stalls("stage program: the support-only program"):
        sol_sup = solve(lp_sup)
    return _reproduces(sol_sup, stage.sol)


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
        where = f"stage {k}"
        stage = _solved_stage(program, available, where)
        counts.stage_solves += 1
        support = _support_from_solution(program, stage, counts, where)
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
            with _naming_stalls(f"{where}: the support-only program"):
                sol_sup = solve(lp_sup)
            degenerate = not _reproduces(sol_sup, stage.sol)
            counts.degeneracy_solves += 1
        stages.append(
            StageRecord(
                k=k,
                minimizer=stage.sol.x,
                objective=stage.sol.objective,
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
) -> bool:
    """Re-run the cascade on the compression candidate alone and compare.

    Returns True iff every stage minimizer of the re-run matches the
    original within X_TOL and, in regularized mode, every padding set
    matches exactly.
    """
    sub = program.restrict(trace.compression_candidate)
    retrace = run_cascade(
        sub,
        ell,
        mode=trace.mode,
        record_degeneracy=False,
        _allow_exact_cover=True,
    )
    for orig, redo in zip(trace.stages, retrace.stages):
        if np.max(np.abs(np.asarray(redo.minimizer) - np.asarray(orig.minimizer))) > X_TOL:
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
) -> GreedyTrace:
    """Remove r scenarios one at a time, each time the best cost improver.

    Candidates are the current support scenarios (removing anything else
    provably leaves the minimizer unchanged); ties on the candidate's
    objective break toward the smallest label.  When a stage has an empty
    support set every available label is a candidate under the same rule.
    At a simple stage vertex (exactly d constraints active, their matrix
    nonsingular) _Stage.cost_without pivots from the vertex past the
    candidate's rows to the optimum of the program without it.  A candidate
    it leaves undecided (an optimum that fails its feasibility check
    included, or a vertex that is not simple), or whose program it finds
    unbounded, is solved cold and unrefined, which confirms an unbounded
    program before StageSolveError is raised.  Each candidate counts as
    one candidate solve.
    """
    d, m = program.d, program.m
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r >= m - d:
        raise InsufficientScenarios(
            f"greedy removal of r={r} needs r < m - d = {m - d}"
        )
    counts = SolveCounts()
    stage = _solved_stage(program, program.labels,
                          "greedy step 0: stage program")
    counts.stage_solves += 1
    steps: list[GreedyStep] = []
    for step in range(1, r + 1):
        where = f"greedy step {step}"
        support = _support_from_solution(program, stage, counts, where)
        candidates = sorted(support or stage.labels)
        best_label = None
        best_obj = np.inf
        for lab in candidates:
            obj = stage.cost_without(lab)
            if obj is None or obj == -np.inf:
                # undecided at the vertex, or an unbounded edge to confirm
                lp_c, _ = program.assemble(stage.labels - {lab})
                without = f"{where}: the program without label {lab}"
                with _naming_stalls(without):
                    sol_c = solve(lp_c, refine=False)
                if not sol_c.is_optimal:
                    raise StageSolveError(without, sol_c.status, lp_c.n_rows)
                obj = sol_c.objective
            counts.candidate_solves += 1
            if obj < best_obj:
                best_obj = obj
                best_label = lab
        stage = _solved_stage(program, stage.labels - {best_label},
                              f"{where}: stage program")
        counts.stage_solves += 1
        steps.append(
            GreedyStep(step=step, removed_label=best_label,
                       objective=stage.sol.objective)
        )
    return GreedyTrace(
        steps=tuple(steps),
        final_x=stage.sol.x,
        final_objective=stage.sol.objective,
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
