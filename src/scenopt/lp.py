"""Deterministic dense linear-program solver with a lexicographic tie-break.

Problems are of the form

    minimize    cost . x
    subject to  row_coeffs @ x <= row_rhs
                lower <= x <= upper

with a small number of variables (d) and possibly many rows.  The solver is
a two-phase primal simplex with Bland's anti-cycling rule, run on the dual
program so that the working basis stays d x d no matter how many rows the
primal carries.  After the cost is minimized, the minimizer is made unique by
lexicographic refinement: minimize x1 over the optimal face, then x2, and so
on.  The refined point depends only on the feasible set and the cost, so it
is invariant under row permutations.

All inputs are immutable after construction and every solve is a pure
function of its arguments; instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

_MAX_PIVOTS = 200_000


class LpInputError(ValueError):
    """Malformed problem data (bad shapes, NaN coefficients, empty box)."""


class SimplexStallError(RuntimeError):
    """Pivot limit exceeded; indicates a numerical pathology."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpTolerances:
    """Numerical tolerances shared across the package.

    feas: feasibility slack accepted on rows and bounds.
    active: activity detection, |a.x - rhs| <= active marks a row active.
    x: infinity-norm threshold under which two minimizers count as equal.
    """

    feas: float = 1e-7
    active: float = 1e-6
    x: float = 1e-6
    pivot: float = 1e-9


DEFAULT_TOL = LpTolerances()


def _as_float_vector(v, name: str) -> np.ndarray:
    # owns a fresh copy so freezing it cannot affect caller data
    arr = np.array(v, dtype=float)
    if arr.ndim != 1:
        raise LpInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LinearProgram:
    """Immutable dense LP: cost vector, inequality rows and a variable box."""

    cost: np.ndarray
    row_coeffs: np.ndarray
    row_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        cost = _as_float_vector(self.cost, "cost")
        lower = _as_float_vector(self.lower, "lower")
        upper = _as_float_vector(self.upper, "upper")
        coeffs = np.array(self.row_coeffs, dtype=float)
        rhs = _as_float_vector(self.row_rhs, "row_rhs")
        d = cost.shape[0]
        if d < 1:
            raise LpInputError("dimension must be at least 1")
        if coeffs.size == 0:
            coeffs = coeffs.reshape(0, d)
        if coeffs.ndim != 2 or coeffs.shape[1] != d:
            raise LpInputError(
                f"row_coeffs must have shape (n_rows, {d}), got {coeffs.shape}"
            )
        if rhs.shape[0] != coeffs.shape[0]:
            raise LpInputError("row_rhs length does not match row count")
        if lower.shape[0] != d or upper.shape[0] != d:
            raise LpInputError("bound vectors must have length d")
        if not np.all(np.isfinite(cost)):
            raise LpInputError("cost contains NaN or Inf")
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(rhs))):
            raise LpInputError("rows contain NaN or Inf")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise LpInputError("bounds contain NaN")
        if np.any(lower > upper):
            raise LpInputError("some lower bound exceeds its upper bound")
        for arr in (cost, coeffs, rhs, lower, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "row_coeffs", coeffs)
        object.__setattr__(self, "row_rhs", rhs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def d(self) -> int:
        return self.cost.shape[0]

    @property
    def n_rows(self) -> int:
        return self.row_rhs.shape[0]

    def with_rows(self, extra_coeffs, extra_rhs) -> "LinearProgram":
        """Copy with rows appended."""
        coeffs = np.vstack([self.row_coeffs, np.atleast_2d(extra_coeffs)])
        rhs = np.concatenate([self.row_rhs, np.atleast_1d(extra_rhs)])
        return LinearProgram(
            cost=self.cost,
            row_coeffs=coeffs,
            row_rhs=rhs,
            lower=self.lower,
            upper=self.upper,
        )


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x and active_rows are meaningful only when optimal."""

    status: LpStatus
    x: Optional[np.ndarray]
    objective: float
    active_rows: frozenset[int] = field(default_factory=frozenset)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


# ---------------------------------------------------------------------------
# Simplex kernel on standard form: min q.z  s.t.  E z = h, z >= 0.
# ---------------------------------------------------------------------------


class _KernelStatus(Enum):
    OPTIMAL = 0
    INFEASIBLE = 1
    UNBOUNDED = 2


# Consecutive degenerate pivots tolerated under Dantzig pricing before the
# kernel falls back to Bland's rule, which cannot cycle.
_STALL_LIMIT = 64


def _iterate(E, h, q, basis, n_enterable, tol):
    """Pivot in place until optimal or unbounded; returns (status, x_basic).

    basis is a list of column indices (one per row) forming a nonsingular
    square basis; only columns below n_enterable may enter.  Pricing is
    Dantzig (most negative reduced cost, lowest index on ties) and switches
    permanently to Bland's lowest-index rule after a degenerate stall, so
    termination is guaranteed while typical runs stay short.
    """
    n_rows = E.shape[0]
    use_bland = False
    stall = 0
    for _ in range(_MAX_PIVOTS):
        B = E[:, basis]
        x_b = np.linalg.solve(B, h)
        pi = np.linalg.solve(B.T, q[basis])
        reduced = q[:n_enterable] - pi @ E[:, :n_enterable]
        basic = [b for b in basis if b < n_enterable]
        if basic:
            reduced[basic] = 0.0
        eligible = np.flatnonzero(reduced < -tol)
        if eligible.size == 0:
            return _KernelStatus.OPTIMAL, x_b
        if use_bland:
            enter = int(eligible[0])
        else:
            enter = int(eligible[np.argmin(reduced[eligible])])
        direction = np.linalg.solve(B, E[:, enter])
        positive = direction > tol
        if not np.any(positive):
            return _KernelStatus.UNBOUNDED, x_b
        ratios = np.full(n_rows, np.inf)
        ratios[positive] = x_b[positive] / direction[positive]
        theta = ratios.min()
        ties = np.flatnonzero(ratios <= theta + tol * (1.0 + abs(theta)))
        # Among blocking rows, leave on the smallest variable index (Bland).
        leave_row = min(ties, key=lambda i: basis[i])
        basis[leave_row] = enter
        if theta <= tol:
            stall += 1
            if stall > _STALL_LIMIT + 2 * n_rows:
                use_bland = True
        else:
            stall = 0
    raise SimplexStallError(f"no convergence within {_MAX_PIVOTS} pivots")


def _solve_standard_form(E, h, q, tol, unit_cols=()):
    """Two-phase primal simplex. Returns (status, z, duals).

    unit_cols optionally lists (col, row, sign) triples for columns known to
    be signed unit vectors; rows they can cover start phase 2 directly, and
    artificial variables are introduced only for the remainder.
    """
    E = np.array(E, dtype=float)
    h = np.array(h, dtype=float)
    q = np.asarray(q, dtype=float)
    n_rows, n_cols = E.shape

    flip = h < 0
    E[flip] *= -1.0
    h[flip] *= -1.0

    basis: list[Optional[int]] = [None] * n_rows
    for col, row, sign in unit_cols:
        effective = -sign if flip[row] else sign
        if basis[row] is None and effective > 0:
            basis[row] = col
    uncovered = [r for r in range(n_rows) if basis[r] is None]

    if uncovered:
        art = np.zeros((n_rows, len(uncovered)))
        art[uncovered, np.arange(len(uncovered))] = 1.0
        E1 = np.hstack([E, art])
        q1 = np.zeros(n_cols + len(uncovered))
        q1[n_cols:] = 1.0
        for slot, r in enumerate(uncovered):
            basis[r] = n_cols + slot
        status, x_b = _iterate(E1, h, q1, basis, E1.shape[1], tol.pivot)
        if status is not _KernelStatus.OPTIMAL:
            raise SimplexStallError("phase 1 cannot be unbounded")
        infeas = float(
            sum(x_b[i] for i, b in enumerate(basis) if b >= n_cols)
        )
        if infeas > max(tol.feas, tol.feas * np.abs(h).max(initial=1.0)):
            return _KernelStatus.INFEASIBLE, None, None

        # Drive leftover artificials out of the basis; drop redundant rows.
        keep_rows = np.ones(n_rows, dtype=bool)
        for row_pos in range(n_rows):
            if basis[row_pos] < n_cols:
                continue
            B = E1[:, basis]
            tableau_row = np.linalg.solve(B, E)[row_pos]
            pivot_cols = [
                int(c)
                for c in np.flatnonzero(np.abs(tableau_row) > 1e-8)
                if c not in basis
            ]
            if pivot_cols:
                basis[row_pos] = pivot_cols[0]
            else:
                keep_rows[row_pos] = False
        if not np.all(keep_rows):
            E = E[keep_rows]
            h = h[keep_rows]
            flip = flip[keep_rows]
            basis = [b for b, k in zip(basis, keep_rows) if k]
            n_rows = E.shape[0]

    status, x_b = _iterate(E, h, q, basis, n_cols, tol.pivot)
    if status is _KernelStatus.UNBOUNDED:
        return _KernelStatus.UNBOUNDED, None, None
    z = np.zeros(n_cols)
    z[basis] = x_b
    duals = np.linalg.solve(E[:, basis].T, q[basis])
    # Duals are reported against the original (unflipped) row orientation; the
    # flip mask only survives for rows that were not dropped as redundant.
    duals = np.where(flip, -duals, duals)
    return _KernelStatus.OPTIMAL, z, duals


# ---------------------------------------------------------------------------
# Box-plus-rows solver via the dual program.
# ---------------------------------------------------------------------------


def _solve_core(lp: LinearProgram, tol: LpTolerances, objective: np.ndarray):
    """Minimize `objective` over lp's feasible set (no tie-break).

    The dual of  min c.x  s.t.  R x <= s, l <= x <= u  is

        min  s.y + u.v - l.w   s.t.  R'y + v - w = -c,  y, v, w >= 0

    where v_j exists only for finite u_j and w_j only for finite l_j.  The
    simplex multipliers of the dual at optimality are the primal minimizer.
    Variables unbounded on both sides are first split into nonnegative
    halves, which keeps the dual rows at full rank (every transformed
    variable contributes a signed unit column).
    """
    d = lp.d
    objective = np.asarray(objective, dtype=float)
    free = np.flatnonzero(~np.isfinite(lp.lower) & ~np.isfinite(lp.upper))
    if free.size:
        coeffs = np.hstack([lp.row_coeffs, -lp.row_coeffs[:, free]])
        cost = np.concatenate([objective, -objective[free]])
        lower = np.concatenate([lp.lower, np.zeros(free.size)])
        lower[free] = 0.0
        upper = np.concatenate([lp.upper, np.full(free.size, np.inf)])
    else:
        coeffs, cost = lp.row_coeffs, objective
        lower, upper = lp.lower, lp.upper
    dim = cost.shape[0]

    columns = [coeffs.T] if lp.n_rows else []
    costs = [lp.row_rhs] if lp.n_rows else []
    unit_cols = []
    offset = lp.n_rows
    up_idx = np.flatnonzero(np.isfinite(upper))
    lo_idx = np.flatnonzero(np.isfinite(lower))
    if up_idx.size:
        eye_up = np.zeros((dim, up_idx.size))
        eye_up[up_idx, np.arange(up_idx.size)] = 1.0
        columns.append(eye_up)
        costs.append(upper[up_idx])
        unit_cols += [(offset + i, int(j), 1) for i, j in enumerate(up_idx)]
        offset += up_idx.size
    if lo_idx.size:
        eye_lo = np.zeros((dim, lo_idx.size))
        eye_lo[lo_idx, np.arange(lo_idx.size)] = -1.0
        columns.append(eye_lo)
        costs.append(-lower[lo_idx])
        unit_cols += [(offset + i, int(j), -1) for i, j in enumerate(lo_idx)]
    if columns:
        E = np.hstack(columns)
        q = np.concatenate(costs)
    else:
        E = np.zeros((dim, 0))
        q = np.zeros(0)

    status, _, duals = _solve_standard_form(E, -cost, q, tol, unit_cols)
    if status is _KernelStatus.OPTIMAL:
        x = duals[:d].copy()
        if free.size:
            x[free] -= duals[d:]
        return LpStatus.OPTIMAL, x
    if status is _KernelStatus.UNBOUNDED:
        # Dual unbounded below means the primal feasible set is empty.
        return LpStatus.INFEASIBLE, None
    # Dual infeasible: the primal is unbounded or infeasible; an elastic
    # feasibility probe (min t with R x - t <= s, t >= 0) settles which.
    if _is_feasible_set_nonempty(lp, tol):
        return LpStatus.UNBOUNDED, None
    return LpStatus.INFEASIBLE, None


def _is_feasible_set_nonempty(lp: LinearProgram, tol: LpTolerances) -> bool:
    d = lp.d
    coeffs = np.hstack([lp.row_coeffs, -np.ones((lp.n_rows, 1))])
    probe = LinearProgram(
        cost=np.concatenate([np.zeros(d), [1.0]]),
        row_coeffs=coeffs,
        row_rhs=lp.row_rhs,
        lower=np.concatenate([lp.lower, [0.0]]),
        upper=np.concatenate([lp.upper, [np.inf]]),
    )
    status, x = _solve_core(probe, tol, probe.cost)
    if status is not LpStatus.OPTIMAL:
        raise SimplexStallError("elastic feasibility probe failed to solve")
    return x[d] <= tol.feas


def solve(
    lp: LinearProgram,
    tol: LpTolerances = DEFAULT_TOL,
    refine: bool = True,
) -> LpSolution:
    """Solve lp; when refine is set, return the lexicographic-min optimum.

    Refinement pins the achieved cost with an extra row, then minimizes each
    coordinate in turn over the shrinking optimal face.  With refinement the
    returned minimizer is unique and permutation-invariant; without it, any
    cost-optimal vertex may be returned (useful when only the objective value
    matters).
    """
    status, x = _solve_core(lp, tol, lp.cost)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, x=None, objective=np.nan)
    if refine and lp.d > 0:
        pin_coeffs = [lp.cost]
        pin_rhs = [float(lp.cost @ x)]
        for j in range(lp.d):
            face = lp.with_rows(np.array(pin_coeffs), np.array(pin_rhs))
            axis = np.zeros(lp.d)
            axis[j] = 1.0
            status_j, x_j = _solve_core(face, tol, axis)
            if status_j is LpStatus.UNBOUNDED:
                # The optimal face extends to -inf in coordinate j; no
                # lexicographic minimum exists, so uniqueness is unattainable.
                return LpSolution(status=LpStatus.UNBOUNDED, x=None, objective=np.nan)
            if status_j is not LpStatus.OPTIMAL:
                raise SimplexStallError("refinement face lost feasibility")
            x = x_j
            pin_coeffs.append(axis)
            pin_rhs.append(float(x[j]))
    x = np.asarray(x, dtype=float)
    x.setflags(write=False)
    if lp.n_rows:
        residual = lp.row_coeffs @ x - lp.row_rhs
        active = frozenset(np.flatnonzero(np.abs(residual) <= tol.active).tolist())
    else:
        active = frozenset()
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective=float(lp.cost @ x),
        active_rows=active,
    )


def check_feasible(
    lp: LinearProgram, x: Sequence[float], tol: LpTolerances = DEFAULT_TOL
) -> bool:
    """True iff x satisfies every row and bound within tol.feas."""
    x = _as_float_vector(x, "x")
    if x.shape[0] != lp.d:
        raise LpInputError(f"x has length {x.shape[0]}, expected {lp.d}")
    if np.any(x < lp.lower - tol.feas) or np.any(x > lp.upper + tol.feas):
        return False
    if lp.n_rows and np.any(lp.row_coeffs @ x > lp.row_rhs + tol.feas):
        return False
    return True
