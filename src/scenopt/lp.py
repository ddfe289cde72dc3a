"""Deterministic dense linear-program solver with a lexicographic tie-break.

Problems are of the form

    minimize    cost . x
    subject to  row_coeffs @ x <= row_rhs
                lower <= x <= upper

with a small number of variables (d) and possibly many rows.  The solver is
a two-phase primal simplex run on the dual program, so that the working
basis stays d x d no matter how many rows the primal carries.  The dual's
standard-form matrix is built once per LinearProgram, on its first solve,
with a column for every row, for every pin row refinement may add, for
every finite bound and for every phase-1 artificial; mask selections of the
LP share it.  Each LP core is one _solve_core call, which runs both phases
on that matrix as it is stored.  Cores differ only in their prices, +inf on
every column a core may not use, and in the objective each minimizes.

The basis inverse is kept in product form (Dantzig & Orchard-Hays, 1954):
each pivot updates it with one rank-1 eta step instead of solving with the
basis, it is inverted afresh every 32 eta steps, and at optimality the
duals are solved exactly from the final basis and priced once more before
they are returned; an unbounded ray seen after eta steps is checked on a
fresh inverse.  Pricing is Dantzig's most negative reduced cost and
switches for good to Bland's lowest-index rule, which cannot cycle, after
a run of degenerate pivots.

After the cost is minimized, the minimizer is made unique by lexicographic
refinement: minimize x1 over the optimal face, then x2, and so on.  The
refined point depends only on the feasible set and the cost, so it is
invariant under row permutations.  The refine loop's d extra cores run only
when the cost core's final basis does not already prove its vertex the
componentwise minimum of the feasible set, hence the lex-min: over a finite
box, with the inverse of the basis constraints' normals <= 0 entrywise.

solve returns the minimizer and its cost; which constraints are active
there is for the caller to read against ACTIVE_TOL.

reoptimize answers a related question without a cold start: from a vertex
of G x <= h and its basis of d tight rows, it takes primal simplex steps to
the optimal cost once some rows are dropped.  It is the one answer to "what
does the program cost without this scenario" at a stage vertex: run to the
optimum for greedy removal's candidates, or stopped at the first vertex
below a given cost for support detection; either end vertex is returned only
when it passes a feasibility check.

The numerical tolerances FEAS_TOL, ACTIVE_TOL, X_TOL and PIVOT_TOL are
absolute module constants, shared by the whole package.

LP data is validated once, when a LinearProgram is built; select and the
solver use its read-only arrays without checking them again.  Every solve
is a pure function of its arguments; instances, and the dual forms they
cache, can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

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


# Numerical tolerances.
FEAS_TOL = 1e-7  # feasibility slack accepted on rows and bounds
ACTIVE_TOL = 1e-6  # |a.x - rhs| <= ACTIVE_TOL marks a row active
X_TOL = 1e-6  # two minimizers this close in the infinity norm are equal
# simplex zero: reduced costs above -PIVOT_TOL count as optimal, direction
# entries below it cannot block, and ratio-test ties are broken within it
PIVOT_TOL = 1e-9


def _as_float_vector(v, name: str) -> np.ndarray:
    # owns a fresh copy so freezing it cannot affect caller data
    arr = np.array(v, dtype=float)
    if arr.ndim != 1:
        raise LpInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LinearProgram:
    """Immutable dense LP: cost vector, inequality rows and a variable box.

    Construction checks shapes, finiteness and a non-empty box, and copies
    the data into read-only float arrays that nothing checks again.
    """

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
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise LpInputError("a lower bound of +inf or an upper bound of "
                               "-inf leaves the box empty")
        self._freeze(cost, coeffs, rhs, lower, upper)

    def _freeze(self, cost, coeffs, rhs, lower, upper):
        for name, arr in zip(("cost", "row_coeffs", "row_rhs", "lower", "upper"),
                             (cost, coeffs, rhs, lower, upper)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.cost.shape[0]

    @property
    def n_rows(self) -> int:
        return self.row_rhs.shape[0]

    # A boolean-mask selection shares the dual form of the LP it selects
    # from: (the LP that owns the form, the indices of its rows kept here).
    _shares = None

    def select(self, rows) -> "LinearProgram":
        """The LP over the rows a boolean mask or index array picks, sharing
        cost and bounds; rows of a valid LP are valid, so nothing is checked.

        A mask keeps the rows in their order, so its LP also runs on this
        LP's dual form (see solve), where the columns of the rows left out
        never enter; only the kept rows are copied.  An index array may
        reorder the rows, so its LP builds a form of its own on its first
        solve.  Either way the columns a core may use keep their relative
        order, so the pivot rules, which break ties by column index, choose
        as they would on a form of the selected rows alone.
        """
        lp = object.__new__(LinearProgram)
        lp._freeze(self.cost, self.row_coeffs[rows], self.row_rhs[rows],
                   self.lower, self.upper)
        mask = np.asarray(rows)
        if mask.dtype == bool:
            owner, kept = self._shares or (self, None)
            kept = np.flatnonzero(mask) if kept is None else kept[mask]
            object.__setattr__(lp, "_shares", (owner, kept))
        return lp

    @cached_property
    def _form(self) -> "_DualForm":
        """The dual standard form of this LP and of its mask selections,
        built on first use; its pin rows are refinement's: the cost, then
        the first d - 1 axes."""
        pins = np.vstack([self.cost, np.eye(self.d)[:-1]])
        return _dual_form(self.row_coeffs, pins, self.lower, self.upper)


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x is meaningful only when optimal."""

    status: LpStatus
    x: Optional[np.ndarray]
    objective: float

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


# ---------------------------------------------------------------------------
# Simplex kernel on standard form: min q.z  s.t.  E z = h, z >= 0, from a
# basis B with B^-1 h >= 0.
# ---------------------------------------------------------------------------


# Consecutive degenerate pivots tolerated under Dantzig pricing before the
# kernel falls back to Bland's rule, which cannot cycle.
_STALL_LIMIT = 64

# Eta steps applied to the basis inverse before it is inverted afresh.
_REFACTOR_EVERY = 32


def _entering(E, pi, q, reduced, basis, use_bland):
    """The entering column at simplex multipliers pi, or None at
    optimality.  The reduced costs q - pi E are written to reduced; the
    entering column has the most negative one (Dantzig), or the lowest
    eligible index (Bland); ties go to the lowest index either way."""
    np.subtract(q, np.matmul(pi, E, out=reduced), out=reduced)
    reduced[basis] = 0.0
    enter = int((reduced < -PIVOT_TOL).argmax() if use_bland else reduced.argmin())
    return enter if reduced[enter] < -PIVOT_TOL else None


def _iterate(E, h, q, basis):
    """Pivot in place until optimal or unbounded; returns the simplex
    multipliers pi at optimality, or None when the program is unbounded.

    q prices every column of E; a column priced +inf never enters.  basis
    (an index array) holds one column per row, forming a nonsingular basis
    B = E[:, basis] with B^-1 h >= 0.  The kernel keeps B^-1 and the basic
    values x_b = B^-1 h in product form: each pivot prices with
    pi = q_B B^-1, takes the entering direction as B^-1 E[:, enter], and
    applies one rank-1 eta step to both.  B^-1 is inverted afresh on entry
    and after every _REFACTOR_EVERY eta steps.  When the eta-priced costs
    show no eligible column, pi is solved exactly from B' pi = q_B and
    priced once more; that pi is returned when nothing is eligible,
    otherwise pivoting goes on from a fresh inverse.  An entering column
    with no blocking row after eta steps is likewise priced again on a
    fresh inverse before the kernel reports unbounded.  Pricing is Dantzig
    (most negative reduced cost, lowest index on ties) and switches
    permanently to Bland's lowest-index rule after a degenerate stall, so
    termination is guaranteed while typical runs stay short.  Reduced costs
    and ratios go into buffers taken once per call, so no pivot allocates
    an array as wide as E.
    """
    n_rows = h.shape[0]
    reduced = np.empty(q.shape[0])
    ratios = np.empty(n_rows)
    use_bland = False
    stall = 0
    inv = None
    try:
        for pivots in range(_MAX_PIVOTS):
            if inv is None:
                inv = np.linalg.inv(E[:, basis])
                x_b = inv @ h
                etas = 0
            enter = _entering(E, q[basis] @ inv, q, reduced, basis, use_bland)
            if enter is None:
                pi = np.linalg.solve(E[:, basis].T, q[basis])
                enter = _entering(E, pi, q, reduced, basis, use_bland)
                if enter is None:
                    return pi
                inv = np.linalg.inv(E[:, basis])
                x_b = inv @ h
                etas = 0
            direction = inv @ E[:, enter]
            positive = direction > PIVOT_TOL
            if not positive.any():
                if etas:
                    # eta drift can fake an unbounded ray near optimality
                    inv = None
                    continue
                return None
            ratios.fill(np.inf)
            np.divide(x_b, direction, out=ratios, where=positive)
            theta = ratios.min()
            ties = (ratios <= theta + PIVOT_TOL * (1.0 + abs(theta))).nonzero()[0]
            # Among blocking rows, leave on the smallest variable index (Bland).
            leave = ties[basis[ties].argmin()]
            # eta step: the entering column takes row leave at value step
            step = ratios[leave]
            x_b -= step * direction
            x_b[leave] = step
            pivot_row = inv[leave] / direction[leave]
            inv -= direction[:, None] * pivot_row
            inv[leave] = pivot_row
            basis[leave] = enter
            etas += 1
            if etas == _REFACTOR_EVERY:
                inv = None
            if theta <= PIVOT_TOL:
                stall += 1
                if stall > _STALL_LIMIT + 2 * n_rows:
                    use_bland = True
            else:
                stall = 0
    except np.linalg.LinAlgError:
        raise SimplexStallError(f"singular basis after {pivots} pivots") from None
    raise SimplexStallError(f"no convergence within {_MAX_PIVOTS} pivots")


def _phase_one(E, h, q, basis) -> bool:
    """Minimize the sum of the artificial columns in basis (the columns from
    E.shape[1] - 2 E.shape[0] on) over those and the columns q prices
    finitely (the ones phase 2 may use); on success leave a basis of usable
    columns in place and return True, or return False when the artificials
    cannot reach zero (infeasible)."""
    n_rows = h.shape[0]
    art = E.shape[1] - 2 * n_rows
    usable = np.isfinite(q)
    q1 = np.where(usable, 0.0, np.inf)
    q1[basis[basis >= art]] = 1.0
    if _iterate(E, h, q1, basis) is None:
        raise SimplexStallError("the artificial sum cannot be unbounded")
    x_b = np.linalg.solve(E[:, basis], h)
    infeas = float(sum(x_b[i] for i, b in enumerate(basis) if b >= art))
    if infeas > max(FEAS_TOL, FEAS_TOL * np.abs(h).max(initial=1.0)):
        return False

    # Drive leftover artificials out of the basis: the one at row_pos leaves
    # on a usable column where row row_pos of B^-1 E is nonzero.  Every dual
    # row of _solve_core owns a signed unit column, so the usable columns
    # have full row rank.
    tableau_row = np.empty(q.shape[0])
    for row_pos in range(n_rows):
        if basis[row_pos] < art:
            continue
        unit = np.zeros(n_rows)
        unit[row_pos] = 1.0
        np.matmul(np.linalg.solve(E[:, basis].T, unit), E, out=tableau_row)
        pivot_cols = [
            int(c)
            for c in np.flatnonzero(usable & (np.abs(tableau_row) > 1e-8))
            if c not in basis
        ]
        if not pivot_cols:
            raise SimplexStallError(
                f"artificial variable of row {row_pos} cannot leave the "
                "basis: the equality rows are linearly dependent"
            )
        basis[row_pos] = pivot_cols[0]
    return True


# ---------------------------------------------------------------------------
# Box-plus-rows solver via the dual program.
# ---------------------------------------------------------------------------


class _DualForm(NamedTuple):
    """The dual standard form of an LP's rows, shared by all its LP cores.

    The dual of  min c.x  s.t.  R x <= s, l <= x <= u  is

        min  s.y + u.v - l.w   s.t.  R'y + v - w = -c,  y, v, w >= 0

    where v_j exists only for finite u_j and w_j only for finite l_j.
    Variables unbounded on both sides are first split into nonnegative
    halves, which keeps the dual rows at full rank (every transformed
    variable contributes a signed unit column).  E holds, in this order:
    a column per row of R; a column per pin row P (a row a core may add,
    such as refinement's pinned cost and axes); I_up and -I_lo over the
    finite bounds; and two phase-1 artificial columns per dual row r, +e_r
    and then -e_r, pair after pair in row order.  A core prices the columns
    it uses and sets +inf on the rest.
    """

    E: np.ndarray
    free: np.ndarray  # variables split into nonnegative halves
    pins: int  # first pin column; row columns come before it
    bounds: int  # first bound column; pin columns come before it
    up_idx: np.ndarray  # dual row of each I_up column
    lo_idx: np.ndarray  # dual row of each -I_lo column
    bound_price: np.ndarray  # u over I_up, then -l over -I_lo
    lower: np.ndarray
    upper: np.ndarray

    def prices(self, rows, rhs) -> np.ndarray:
        """Phase-2 prices of a core over the row columns rows (a slice or
        an index array) with right-hand sides rhs: those, the bound prices,
        and +inf on every other column."""
        q = np.full(self.E.shape[1], np.inf)
        q[rows] = rhs
        q[self.bounds:self.bounds + self.bound_price.size] = self.bound_price
        return q


def _dual_form(coeffs, pins, lower, upper) -> _DualForm:
    """The dual standard form of rows coeffs @ x <= rhs and pin rows pins
    over lower <= x <= upper, built column block by column block."""
    d = lower.shape[0]
    free = np.flatnonzero(~np.isfinite(lower) & ~np.isfinite(upper))
    lo = np.concatenate([lower, np.zeros(free.size)])
    lo[free] = 0.0
    up = np.concatenate([upper, np.full(free.size, np.inf)])
    dim = d + free.size
    up_idx = np.flatnonzero(np.isfinite(up))
    lo_idx = np.flatnonzero(np.isfinite(lo))
    # first column of the pin, bound and artificial blocks
    pins_at = coeffs.shape[0]
    bounds_at = pins_at + pins.shape[0]
    art_at = bounds_at + up_idx.size + lo_idx.size
    E = np.zeros((dim, art_at + 2 * dim))
    for start, rows in ((0, coeffs), (pins_at, pins)):
        block = slice(start, start + rows.shape[0])
        E[:d, block] = rows.T
        E[d:, block] = -rows[:, free].T
    E[up_idx, bounds_at + np.arange(up_idx.size)] = 1.0
    E[lo_idx, bounds_at + up_idx.size + np.arange(lo_idx.size)] = -1.0
    pairs = art_at + 2 * np.arange(dim)
    E[np.arange(dim), pairs] = 1.0
    E[np.arange(dim), pairs + 1] = -1.0
    E.setflags(write=False)
    return _DualForm(E, free, pins_at, bounds_at, up_idx, lo_idx,
                     np.concatenate([up[up_idx], -lo[lo_idx]]), lower, upper)


def _solve_core(form, objective, q):
    """Minimize `objective` subject to the rows and pins that q prices and
    the bounds of form (no tie-break): (status, x, basis), where basis is
    the final basis as column indices of form.E, or None with x when not
    optimal.

    The simplex multipliers of the dual at optimality are the primal
    minimizer.  The kernel's h is -c, and each dual row j starts on a unit
    column with the sign of h_j, so that the starting x_b is |h| >= 0: on
    v_j (+e_j) when h_j >= 0 and w_j (-e_j) when h_j < 0 where the bound
    has one, otherwise on a phase-1 artificial.  A stall or a singular
    basis raises SimplexStallError naming the phase, the dual rows and the
    columns the core prices.
    """
    d = objective.shape[0]
    free = form.free
    cost = np.concatenate([objective, -objective[free]]) if free.size else objective
    dim = cost.shape[0]
    h = -cost
    negative = h < 0

    up_idx, lo_idx = form.up_idx, form.lo_idx
    art = form.E.shape[1] - 2 * dim
    basis = art + 2 * np.arange(dim) + negative
    covers = ~negative[up_idx]
    basis[up_idx[covers]] = form.bounds + np.flatnonzero(covers)
    covers = negative[lo_idx]
    basis[lo_idx[covers]] = form.bounds + up_idx.size + np.flatnonzero(covers)

    phase = 1
    try:
        dual_feasible = ((basis < art).all()
                         or _phase_one(form.E, h, q, basis))
        if dual_feasible:
            phase = 2
            duals = _iterate(form.E, h, q, basis)
    except (SimplexStallError, np.linalg.LinAlgError) as exc:
        raise SimplexStallError(
            f"simplex phase {phase} (rows={dim}, "
            f"columns={np.isfinite(q).sum()}): {exc}"
        ) from None
    if not dual_feasible:
        # Dual infeasible: the primal is unbounded or infeasible; an elastic
        # feasibility probe settles which.
        if _is_feasible_set_nonempty(form, q):
            return LpStatus.UNBOUNDED, None, None
        return LpStatus.INFEASIBLE, None, None
    if duals is None:
        # Dual unbounded below means the primal feasible set is empty.
        return LpStatus.INFEASIBLE, None, None
    x = duals[:d]
    if free.size:
        x[free] -= duals[d:]
    return LpStatus.OPTIMAL, x, basis


def _is_feasible_set_nonempty(form, q) -> bool:
    """Whether some point meets the rows and pins q prices and the bounds of
    form: the elastic program min t with R x - t <= s, t >= 0, solved on a
    dual form of its own.  The rows are read back from the first d rows of
    form.E, which hold them as given, before the free split."""
    d = form.lower.shape[0]
    rows = np.flatnonzero(np.isfinite(q[:form.bounds]))
    elastic = _dual_form(
        np.hstack([form.E[:d, rows].T, -np.ones((rows.size, 1))]),
        np.zeros((0, d + 1)),
        np.append(form.lower, 0.0),
        np.append(form.upper, np.inf),
    )
    status, x, _ = _solve_core(elastic, np.append(np.zeros(d), 1.0),
                               elastic.prices(slice(0, rows.size), q[rows]))
    if status is not LpStatus.OPTIMAL:
        raise SimplexStallError("elastic feasibility probe failed to solve")
    return x[d] <= FEAS_TOL


def checked_inverse(M) -> Optional[np.ndarray]:
    """M^-1, or None when M is singular or M^-1 M is off the identity by
    more than PIVOT_TOL anywhere."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None
    if np.abs(inv @ M - np.eye(M.shape[0])).max() > PIVOT_TOL:
        return None
    return inv


def _componentwise_min(form, basis) -> bool:
    """Whether the vertex x0 of a cost core whose final basis is basis
    minimizes every coordinate at once over the feasible set: then x0 is
    the lex-min of any subset that holds it, its optimal face included.

    A cost core prices neither pin nor artificial columns, so its basis
    holds row and bound columns, and a finite box splits no free variable.
    So the columns of N = form.E[:, basis], the core's final basis matrix,
    are the normals a_i of n = d constraints a_i.x <= q_i tight at x0: the
    LP rows as given, x_j <= u_j as +e_j and -x_j <= -l_j as -e_j.  Any
    feasible x has slacks s = N'(x0 - x) >= 0, so x - x0 = -N^-T s, that is
    x_j - x0_j = -sum_i (N^-1)_ij s_i.  When N^-1 <= 0 entrywise, x >= x0:
    each -N^-1 e_j >= 0 is an optimal dual for min x_j on this basis
    (Dantzig, Orden & Wolfe, 1955).

    The sign test reads inv = checked_inverse(N), whose residual
    R = inv N - I is at most PIVOT_TOL per entry, so N^-1 = (I + R)^-1 inv
    lies within eps_j = 2 n PIVOT_TOL max_i |inv_ij| of inv in column j
    (for n PIVOT_TOL <= 1/2).  A sign that rounding got wrong thus leaves
    (N^-1)_ij <= eps_j, which lets a feasible x fall below x0_j by at most
    eps_j sum_i s_i, and over the box s_i <= |a_i|.(u - l).  The test
    passes only when that shift is at most X_TOL, the distance under which
    two minimizers are equal, for every j, so only on a finite box.
    Coordinates after the first that falls can move further only at such a
    rounding-level tie, which the refine loop, pinning each coordinate at
    its rounded minimum, settles no better.
    """
    width = form.upper - form.lower
    if not np.isfinite(width).all():
        return False
    N = form.E[:, basis]
    inv = checked_inverse(N)
    if inv is None or inv.max() > 0.0:
        return False
    # the largest eps_j, times the bound on sum_i s_i over the box
    eps = 2.0 * basis.size * PIVOT_TOL * -inv.min()
    return bool(eps * (width @ np.abs(N)).sum() <= X_TOL)


def reoptimize(G, h, cost, basis, dropped, inv, stop=-np.inf
               ) -> Optional[float]:
    """Optimal cost of  min cost.x  s.t.  G x <= h  over the rows not dropped,
    by primal simplex steps from a vertex of G x <= h (h finite).

    basis lists the d rows tight at the vertex; their matrix M must be
    nonsingular and the vertex must satisfy every row.  inv is
    checked_inverse(M), and the first step uses it.  Each step solves
    x = M^-1 h_basis and the multipliers mu = -M^-T cost, the vertex's
    optimality certificate when mu >= 0.  A dropped basis row leaves first,
    along the edge M^-1 e_k signed so that the cost does not rise; otherwise
    the most negative mu_k below -PIVOT_TOL leaves along -M^-1 e_k.  The
    ratio test over the rows not dropped picks the entering row, the lowest
    index among ties.  Viewed on the dual program this is Lemke's (1954) dual
    simplex, warm-started from the vertex's basis.

    The run ends at the first vertex whose mu >= -PIVOT_TOL with no dropped
    row in its basis, or at the first vertex a ratio test reaches below
    stop: at step theta that vertex costs cost.x - theta*|mu_k|.  The end
    vertex is checked against the rows not dropped within FEAS_TOL, since
    the ratio test lets a row of slope at most PIVOT_TOL be crossed; its
    cost is returned if it passes, else None.

    Otherwise returns -inf when an edge lowers the cost by more than
    PIVOT_TOL per unit and no row blocks it (the program is unbounded), or
    None when the step is undecided: M is singular or off its inverse by
    more than PIVOT_TOL, a cost-neutral edge of a dropped row is unblocked,
    or more than _STALL_LIMIT steps in a row are degenerate.
    """
    basis = np.array(basis, dtype=np.intp)
    stall = 0
    for steps in range(_MAX_PIVOTS):
        if steps:
            inv = checked_inverse(G[basis])
            if inv is None:
                return None
        x = inv @ h[basis]
        mu = -(cost @ inv)
        gone = np.flatnonzero(dropped[basis])
        if gone.size:
            k = gone[0]
            sign = 1.0 if mu[k] >= 0.0 else -1.0
        else:
            k = int(mu.argmin())
            if mu[k] >= -PIVOT_TOL:
                value = cost @ x
                break
            sign = -1.0
        direction = sign * inv[:, k]
        slope = G @ direction
        slope[basis] = 0.0
        slope[dropped] = 0.0
        blocking = np.flatnonzero(slope > PIVOT_TOL)
        if not blocking.size:
            return -np.inf if abs(mu[k]) > PIVOT_TOL else None
        ratios = np.maximum(h[blocking] - G[blocking] @ x, 0.0) / slope[blocking]
        theta = ratios.min()
        value = cost @ x - theta * abs(mu[k])
        if value < stop:
            x = x + theta * direction
            break
        basis[k] = blocking[ratios <= theta + PIVOT_TOL * (1.0 + theta)][0]
        stall = stall + 1 if theta <= PIVOT_TOL else 0
        if stall > _STALL_LIMIT:
            return None
    else:
        return None
    excess = G @ x - h
    return None if (excess[~dropped] > FEAS_TOL).any() else float(value)


def solve(lp: LinearProgram, refine: bool = True) -> LpSolution:
    """Solve lp; when refine is set, return the lexicographic-min optimum.

    With refinement the returned minimizer is unique and
    permutation-invariant; without it, any cost-optimal vertex may be
    returned (useful when only the objective value matters).  When the cost
    core's final basis certifies that its vertex is the componentwise
    minimum of the feasible set (_componentwise_min), that vertex is the
    lex-min and is returned as it is.  Otherwise the refine loop pins the
    achieved cost with an extra row, then minimizes each coordinate in turn
    over the shrinking optimal face, pinning each minimized coordinate in
    turn: d more LP cores.

    Every core runs on the dual form lp shares (LinearProgram.select): the
    cores differ only in their prices, where a pin row takes part once its
    right-hand side is priced, and in the objective each minimizes.
    """
    owner, rows = lp._shares or (lp, slice(0, lp.n_rows))
    form = owner._form
    q = form.prices(rows, lp.row_rhs)
    cost = lp.cost
    status, x, basis = _solve_core(form, cost, q)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, x=None, objective=np.nan)
    if refine and not _componentwise_min(form, basis):
        q[form.pins] = float(cost @ x)
        for j in range(lp.d):
            axis = np.zeros(lp.d)
            axis[j] = 1.0
            status_j, x_j, _ = _solve_core(form, axis, q)
            if status_j is LpStatus.UNBOUNDED:
                # The optimal face extends to -inf in coordinate j; no
                # lexicographic minimum exists, so uniqueness is unattainable.
                return LpSolution(status=LpStatus.UNBOUNDED, x=None, objective=np.nan)
            if status_j is not LpStatus.OPTIMAL:
                raise SimplexStallError("refinement face lost feasibility")
            x = x_j
            if j + 1 < lp.d:
                q[form.pins + 1 + j] = float(x[j])
    x.setflags(write=False)
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective=float(cost @ x))


def check_feasible(lp: LinearProgram, x: Sequence[float]) -> bool:
    """True iff x satisfies every row and bound within FEAS_TOL."""
    x = _as_float_vector(x, "x")
    if x.shape[0] != lp.d:
        raise LpInputError(f"x has length {x.shape[0]}, expected {lp.d}")
    if not np.isfinite(x).all():
        return False
    if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
        return False
    if lp.n_rows and np.any(lp.row_coeffs @ x > lp.row_rhs + FEAS_TOL):
        return False
    return True
