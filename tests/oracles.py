"""Independent oracles used across the test suite.

Everything here recomputes expected values from first principles, without
touching the code paths under test: exact rational arithmetic for the tail
bounds, exhaustive vertex enumeration for small LPs, and the definitional
remove-one-scenario loop for support sets.  The block-by-block stacking
that `ScenarioProgram.assemble` replaced is kept as the reference for the
stored row layout, the two-solve greedy loop as the reference for greedy
removal, and the per-call term list, per-r rescan, per-step bisection and
the sweep over every term from i = 0 as the references for the bound
sizing that sums only the terms that can be nonzero.  At d=1 the cascades
of both families and greedy removal have closed forms in order statistics.
"""

import math
from fractions import Fraction
from itertools import combinations, count, islice, repeat
from math import comb

import numpy as np

from scenopt.bounds import bound_cascade, bound_classical, bound_compression
from scenopt.lp import ACTIVE_TOL, X_TOL, LinearProgram, solve


def binom_tail_exact(m: int, k_max: int, eps: float) -> Fraction:
    """Sum_{i<=k_max} C(m,i) e^i (1-e)^(m-i) with e the exact binary float.

    With e = a/q, the sum is an integer over q^m: sum_i C(m,i) a^i b^(m-i)
    with b = q - a, and b^(m - k_max) factors out of every term.
    """
    a, q = Fraction(eps).as_integer_ratio()
    b = q - a
    head = sum(comb(m, i) * a**i * b ** (k_max - i) for i in range(k_max + 1))
    return Fraction(head * b ** (m - k_max), q**m)


def binom_tail_prefixes(m: int, k_max: int, eps: float) -> list[Fraction]:
    """Exact prefix sums T(m, 0..k_max, eps) in one rational sweep."""
    e = Fraction(eps)
    term = (1 - e) ** m
    prefixes = [term]
    for i in range(1, k_max + 1):
        term = term * e * (m - i + 1) / ((1 - e) * i)
        prefixes.append(prefixes[-1] + term)
    return prefixes


def classical_exact(m: int, d: int, r: int, eps: float) -> Fraction:
    return comb(r + d - 1, r) * binom_tail_exact(m, r + d - 1, eps)


def binom_tail_termwise(m: int, k_max: int, eps: float) -> float:
    """binom_tail as first written: a fresh term list per call, then fsum.

    Terms follow the multiplicative recurrence while (1-eps)^m is
    representable and are evaluated one by one in log space otherwise,
    from the exact C(m, i) up to m = 10000 while it stays below 1e300 and
    from log-gamma beyond.
    """
    if eps == 0.0:
        return 1.0
    if eps == 1.0:
        return 0.0
    log_1m = math.log1p(-eps)
    if m * log_1m > -700.0:
        return min(1.0, math.fsum(islice(_recurrence(m, eps), k_max + 1)))
    log_eps = math.log(eps)
    terms = [math.exp(log_comb + i * log_eps + (m - i) * log_1m)
             for i, log_comb in zip(range(k_max + 1), _log_combs(m))]
    return min(1.0, math.fsum(terms))


def _public_bound(formula: str, m: int, d: int, r: int, eps: float) -> float:
    if formula == "cascade":
        return bound_cascade(m, d, r, eps).value
    if formula == "classical":
        return bound_classical(m, d, r, eps).value
    return bound_compression(m, r + d, eps).value


def max_removable_rescan(m, d, eps, beta, formula="cascade", batch=False):
    """Largest r with bound(m, d, r, eps) <= beta, evaluating the public
    bound function afresh at each r = 0, 1, ... until the first failure."""
    best = 0
    r = 0
    while m > r + d and _public_bound(formula, m, d, r, eps) <= beta:
        best = r
        r += 1
    if batch:
        best -= best % d
    return best


def max_removable_sweep(m, d, eps, beta, formula="cascade", batch=False):
    """max_removable as one sweep over every term from i = 0, each prefix
    summed exactly in units of 2**-1074 and rounded once, stopping at the
    first r whose bound fails (the sizing before terms that are exactly 0.0
    were skipped).  Linear in the answer."""
    if eps == 1.0:
        terms = repeat(0.0)
    elif m * math.log1p(-eps) > -700.0:
        terms = _recurrence(m, eps)
    else:
        log_eps, log_1m = math.log(eps), math.log1p(-eps)
        terms = (math.exp(log_comb + i * log_eps + (m - i) * log_1m)
                 for i, log_comb in enumerate(_log_combs(m)))
    best = exact = 0
    for k, term in zip(range(m - 1), terms):
        num, den = term.as_integer_ratio()
        exact += num << (1075 - den.bit_length())
        r = k - d + 1
        if r < 0:
            continue
        tail = min(1.0, exact / (1 << 1074))
        if formula == "classical":
            value = min(_classical(d, r, tail), 1.0)
        else:
            value = tail
        if value > beta:
            break
        best = r
    if batch:
        best -= best % d
    return best


def _recurrence(m, eps):
    term = math.exp(m * math.log1p(-eps))
    ratio = eps / (1.0 - eps)
    yield term
    for i in count(1):
        term *= ratio * (m - i + 1) / i
        yield term


def _log_combs(m):
    """log C(m, i) for i = 0, 1, ...: of the exact integer, carried from
    C(m, 0) = 1, up to m = 10000 while it stays below 1e300, and from
    log-gamma elsewhere."""
    exact = m <= 10_000
    c = 1
    for i in count():
        if exact and c <= 1e300:
            yield math.log(c)
        else:
            yield math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
        if exact:
            c = c * (m - i) // (i + 1)


def _classical(d, r, tail):
    factor = comb(r + d - 1, r)
    if factor <= 1e300:
        return factor * tail
    if tail == 0.0:
        return 0.0
    return math.exp(math.lgamma(r + d) - math.lgamma(r + 1) - math.lgamma(d)
                    + math.log(tail))


def invert_epsilon_bisect(m, d, r, beta, formula="cascade", tol=1e-9):
    """(epsilon, at_lower_boundary): bisection in eps over the public bound
    function, evaluated from scratch at each step."""
    if _public_bound(formula, m, d, r, 0.0) <= beta:
        return 0.0, True
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _public_bound(formula, m, d, r, mid) <= beta:
            hi = mid
        else:
            lo = mid
    return hi, False


def enumerate_lp(lp: LinearProgram, feas_tol: float = 1e-9):
    """All basic feasible points of a box-plus-rows LP, by d-subsets.

    Returns (status, objective, lexicographic-minimal optimal vertex); the
    status is "infeasible" when no vertex is feasible, which for a problem
    with a bounded full box implies an empty feasible set.  Both cutoffs are
    relative: a d-subset is singular when |det| is below 1e-10 times the
    product of its row norms, and a point violates a row a.x <= b when
    a.x - b exceeds feas_tol * max(|a|, |b|).
    """
    d = lp.d
    # constraint catalog: rows a.x <= b, bounds as x_j <= u_j, -x_j <= -l_j
    normals = [lp.row_coeffs]
    offsets = [lp.row_rhs]
    eye = np.eye(d)
    finite_up = np.isfinite(lp.upper)
    finite_lo = np.isfinite(lp.lower)
    normals += [eye[finite_up], -eye[finite_lo]]
    offsets += [lp.upper[finite_up], -lp.lower[finite_lo]]
    A = np.vstack(normals)
    b = np.concatenate(offsets)
    n_con = b.shape[0]
    # unit normals make both cutoffs relative; a zero row keeps norm 1
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0.0] = 1.0
    A = A / norms[:, None]
    b = b / norms

    combos = list(combinations(range(n_con), d))
    if not combos:
        return "infeasible", None, None
    mats = A[np.array(combos)]
    rhss = b[np.array(combos)]
    dets = np.abs(np.linalg.det(mats))
    vertices = []
    for mat, rhs, det in zip(mats, rhss, dets):
        if det < 1e-10:
            continue
        x = np.linalg.solve(mat, rhs)
        if np.all(A @ x <= b + feas_tol * np.maximum(1.0, np.abs(b))):
            vertices.append(x)
    if not vertices:
        return "infeasible", None, None
    vertices = np.array(vertices)
    costs = vertices @ lp.cost
    best = costs.min()
    optimal = vertices[costs <= best + 1e-9]
    # lexicographic minimum over the optimal vertices, with light rounding
    # so that duplicated vertices from different active sets compare equal
    keys = [tuple(np.round(v, 9)) for v in optimal]
    lex = optimal[min(range(len(keys)), key=keys.__getitem__)]
    return "optimal", float(best), lex


def support_set_definitional(program, labels, tol_x: float = 1e-6):
    """Definition-based support set: re-solve with each scenario removed.

    A removal that leaves the problem without a minimizer (unbounded)
    counts as changing it.
    """
    labels = set(labels)
    lp, _ = program.assemble(labels)
    base = solve(lp)
    assert base.is_optimal
    support = set()
    for lab in sorted(labels):
        lp_red, _ = program.assemble(labels - {lab})
        red = solve(lp_red)
        if not red.is_optimal or np.max(np.abs(red.x - base.x)) > tol_x:
            support.add(lab)
    return frozenset(support)


def assemble_blocks(scenarios, labels, d: int):
    """Stack the blocks of the given labels in ascending label order.

    Returns (row_coeffs, row_rhs, owners) built from Scenario objects one
    block at a time, the construction that predates the stored row layout.
    """
    by_label = {s.label: s for s in scenarios}
    blocks = [by_label[lab] for lab in sorted(labels)]
    if not blocks:
        return np.zeros((0, d)), np.zeros(0), np.zeros(0, dtype=int)
    coeffs = np.vstack([b.coeffs for b in blocks])
    rhs = np.concatenate([b.rhs for b in blocks])
    owners = np.concatenate([np.full(b.n_rows, b.label, dtype=int) for b in blocks])
    return coeffs, rhs, owners


def greedy_two_solve(program, r: int):
    """Greedy removal with a refined re-solve per support test and a second,
    unrefined re-solve per candidate, as greedy removal was first written.

    Returns (removed labels, step objectives, final x, solve counts dict).
    """
    counts = {"stage": 0, "support": 0, "candidate": 0, "degeneracy": 0}
    available = set(program.labels)

    def stage():
        lp, owners = program.assemble(available)
        counts["stage"] += 1
        sol = solve(lp)
        tight = np.abs(lp.row_coeffs @ sol.x - lp.row_rhs) <= ACTIVE_TOL
        return sorted(set(owners[tight].tolist())), sol

    tight_labels, sol = stage()
    removed, objectives = [], []
    for _ in range(r):
        support = []
        for lab in tight_labels:
            lp_red, _ = program.assemble(available - {lab})
            red = solve(lp_red)
            counts["support"] += 1
            if not red.is_optimal or np.max(np.abs(red.x - sol.x)) > X_TOL:
                support.append(lab)
        best_label, best_obj = None, np.inf
        for lab in support or sorted(available):
            lp_c, _ = program.assemble(available - {lab})
            obj = solve(lp_c, refine=False).objective
            counts["candidate"] += 1
            if obj < best_obj:
                best_label, best_obj = lab, obj
        available.remove(best_label)
        removed.append(best_label)
        tight_labels, sol = stage()
        objectives.append(sol.objective)
    return removed, objectives, sol.x, counts


def analytic_cascade(deltas, ell: int, fully_supported: bool):
    """The removal cascade on the d=1 analytic family in closed form, with
    numpy sorting and no LP: min x on [0, 1] with x >= deltas[i], the
    scenario of label i + 1.

    Stage k's lex-min is the largest surviving draw.  Its label is the
    support when it exceeds the next surviving draw by more than X_TOL, and
    the stage removes it; so in fully-supported mode stage k's point is the
    (k+1)-th largest draw.  On a smaller gap the support is empty:
    fully-supported mode excludes the trial (None is returned), and
    regularized mode pads, removing the smallest surviving label.  Returns
    (objective, removed label) per stage; the last stage only records its
    removal.
    """
    rule = "fully-supported" if fully_supported else "regularized"
    return _d1_run(deltas, float, 1.0, ell + 1, rule)


def resource_cascade(coeffs, ell: int, fully_supported: bool):
    """The removal cascade on the d=1 resource family in closed form: max x
    with x >= 0 and coeffs[i, k] * x <= 1 for every row k of scenario i
    (label i + 1), as analytic_cascade gives it for the analytic family.

    A scenario binds with its largest coefficient v, and stage k's lex-min
    is x = 1/max over the survivors of v; with no positive v left the stage
    is unbounded.  The support rule is analytic_cascade's, on the gap in x
    that removing the binding scenario opens (unbounded counts as a gap).
    Returns (objective, removed label) per stage, objective = -x, or None
    on exclusion; a run that meets an unbounded stage ends with
    (-inf, None).
    """
    rule = "fully-supported" if fully_supported else "regularized"
    return _d1_run(np.asarray(coeffs, dtype=float).max(axis=1),
                   _resource_point, -1.0, ell + 1, rule)


def d1_greedy(keys, family: str, r: int):
    """Greedy removal of r scenarios at d=1 in closed form.  keys are the
    analytic draws (family "analytic") or the resource coefficients, one
    row per scenario (family "resource"), labels 1, 2, ... in order.

    Each step's candidates are the support (the binding scenario, on a gap
    above X_TOL) or else every survivor, and the cheapest program without
    one wins, ties to the smallest label.  So greedy removes what the
    fully-supported cascade removes while the gaps exceed X_TOL; on a
    smaller gap it still removes the binding scenario when that lowers the
    cost at all, and the smallest label only on an exact tie.  Returns
    (objective after the step, removed label) per step; a run that meets an
    unbounded candidate or stage ends with (-inf, None).
    """
    if family == "analytic":
        return _d1_run(keys, float, 1.0, r, "greedy")
    return _d1_run(np.asarray(keys, dtype=float).max(axis=1),
                   _resource_point, -1.0, r, "greedy")


def _resource_point(v):
    return 1.0 / v if v > 0.0 else np.inf


def _d1_run(keys, point, cost, steps: int, rule: str):
    """A d=1 removal run in closed form, by sorting: scenario i (label
    i + 1) binds with strength keys[i], each stage's point is point(k) for
    the largest surviving key k (inf: unbounded) and its objective is
    cost * point.  rule is "fully-supported" or "regularized" (a cascade
    stage records its own objective) or "greedy" (a step records the
    objective of the stage its removal leads to)."""
    keys = np.asarray(keys, dtype=float)
    ascending = np.argsort(keys, kind="stable")
    alive = np.ones(keys.size, dtype=bool)
    unbounded = (-np.inf, None)

    def binding():
        survivors = ascending[alive[ascending]]
        top = survivors[-1]
        return top, point(keys[top]), point(keys[survivors[-2]])

    out = []
    for _ in range(steps):
        top, x, x_without = binding()
        if x == np.inf:
            return out + [unbounded]
        support = abs(x_without - x) > X_TOL
        if rule == "greedy":
            if support and x_without == np.inf:
                return out + [unbounded]
            if support or cost * x_without < cost * x:
                removed = top
            else:
                removed = np.flatnonzero(alive)[0]
        elif support:
            removed = top
        elif rule == "fully-supported":
            return None
        else:
            removed = np.flatnonzero(alive)[0]
        alive[removed] = False
        if rule == "greedy":
            x = binding()[1]
            if x == np.inf:
                return out + [unbounded]
        out.append((float(cost * x), int(removed) + 1))
    return out
