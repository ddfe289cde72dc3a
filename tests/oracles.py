"""Independent oracles used across the test suite.

Everything here recomputes expected values from first principles, without
touching the code paths under test: exact rational arithmetic for the tail
bounds, exhaustive vertex enumeration for small LPs, and the definitional
remove-one-scenario loop for support sets.  The block-by-block stacking
that `ScenarioProgram.assemble` replaced is kept as the reference for the
stored row layout.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from scenopt.lp import LinearProgram, solve


def binom_tail_exact(m: int, k_max: int, eps: float) -> Fraction:
    """Sum_{i<=k_max} C(m,i) e^i (1-e)^(m-i) with e the exact binary float."""
    e = Fraction(eps)
    term = (1 - e) ** m
    total = term
    for i in range(1, k_max + 1):
        term = term * e * (m - i + 1) / ((1 - e) * i)
        total += term
    return total


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


def enumerate_lp(lp: LinearProgram, feas_tol: float = 1e-9):
    """All basic feasible points of a box-plus-rows LP, by d-subsets.

    Returns (status, objective, lexicographic-minimal optimal vertex); the
    status is "infeasible" when no vertex is feasible, which for a problem
    with a bounded full box implies an empty feasible set.
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
        if np.all(A @ x <= b + feas_tol):
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
