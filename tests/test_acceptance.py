"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Criterion 2 checks the raw sizing count that the exact rational oracle
certifies (17), not the published reference value of 18, which the oracle
refutes; its docstring and PASS/FAIL line carry the exact boundary numbers.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from scenopt import bounds
from scenopt.engine import (
    RemovalMode,
    cascade_solve_count,
    greedy_solve_count,
    greedy_removal,
    run_cascade,
    support_set,
    verify_compression,
)
from scenopt.experiments import (
    AnalyticFamily,
    RandomSource,
    ResourceFamily,
    gen_analytic,
    gen_resource,
    run_outer_mc,
    run_resource_compare,
)
from scenopt.lp import solve

from oracles import (
    analytic_cascade,
    binom_tail_prefixes,
    support_set_definitional,
)


def _report(criterion: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_bound_arithmetic_vs_exact_oracle():
    """All three bound formulas agree with exact rationals to 1e-12."""
    t0 = time.time()
    worst = 0.0
    count = 0
    for eps in (0.01, 0.1, 0.3, 0.7):
        for m in range(2, 201):
            prefixes = binom_tail_prefixes(m, min(m - 1, 39), eps)
            for d in range(1, 11):
                for r in range(0, 31):
                    if m <= r + d:
                        break
                    exact_tail = prefixes[r + d - 1]
                    err = abs(
                        bounds.bound_cascade(m, d, r, eps).value
                        - float(exact_tail)
                    )
                    exact_classical = min(
                        comb(r + d - 1, r) * exact_tail, Fraction(1)
                    )
                    err = max(err, abs(
                        bounds.bound_classical(m, d, r, eps).value
                        - float(exact_classical)
                    ))
                    err = max(err, abs(
                        bounds.bound_compression(m, r + d, eps).value
                        - float(exact_tail)
                    ))
                    worst = max(worst, err)
                    count += 3
    elapsed = time.time() - t0
    ok = worst <= 1e-12
    line = _report(
        1, ok,
        f"{count} values, worst abs err {worst:.3e} (<= 1e-12), {elapsed:.0f}s"
    )
    assert ok, line


def test_criterion_2_epsilon_inversion_reference_count():
    """Sizing at m=2000, d=10, eps=0.03, beta=1e-6: quoted as 18 -> 10.

    The reference workflow reports a raw maximum of 18 removable scenarios
    before batch rounding.  Exact rational arithmetic over the tail gives
    T(2000, 26, 0.03) = 4.734301e-07 <= 1e-6 but
    T(2000, 27, 0.03) = 1.100297e-06 >  1e-6,
    so r = 18 is not certified and the true maximum under the stated rule
    (largest r whose bound T(m, r+d-1, eps) meets beta) is 17; 18 is what
    the tail index r+d-2 would give.  Both 17 and 18 round down to the same
    operative batch of 10, which is what the removal scheme uses.  The
    expected raw count is derived here from the exact oracle, and the test
    asserts both it and the batched count.
    """
    m, d, eps, beta = 2000, 10, 0.03, 1e-6
    tails = binom_tail_prefixes(m, 30, eps)
    expected = max(
        r for r in range(len(tails) - d + 1) if tails[r + d - 1] <= beta
    )
    tail_at = tails[expected + d - 1]
    tail_next = tails[expected + d]
    raw = bounds.max_removable(m, d, eps, beta, "cascade")
    batched = bounds.max_removable(m, d, eps, beta, "cascade", batch=True)
    ok = raw == expected and tail_at <= beta < tail_next and batched == 10
    line = _report(
        2, ok,
        f"raw={raw} (exact arithmetic certifies {expected}: "
        f"T({m}, {expected + d - 1}, {eps}) = {float(tail_at):.6e} <= {beta:g}, "
        f"T({m}, {expected + d}, {eps}) = {float(tail_next):.6e} > {beta:g}; "
        f"published 18 refuted), batched={batched} (criterion says 10)"
    )
    assert ok, line


def test_criterion_3_tightness_of_analytic_outer_probability():
    """MC outer probability equals the closed form within 3 half-widths."""
    m, ell, eps, trials = 50, 5, 0.2, 20_000
    result = run_outer_mc(
        AnalyticFamily(m=m), ell, eps, trials, RandomSource(seed=101),
    )
    # the cascade bound at d = 1 is the family's exact outer probability
    analytic = result.bound_value
    assert analytic == bounds.analytic_violation_cdf(m, ell, eps)
    gap = abs(result.point - analytic)
    # trials aborted by a numerically collapsed support set (two uniform
    # draws within X_TOL of each other) are excluded and counted; more than
    # 1% of them would indicate a numerics problem rather than bad luck
    exclusion_rate = result.excluded_count / trials
    ok = (result.tight and gap <= 3.0 * result.half_width_95
          and exclusion_rate <= 0.01)
    line = _report(
        3, ok,
        f"mc={result.point:.5f} analytic={analytic:.5f} |gap|={gap:.5f} "
        f"3hw={3 * result.half_width_95:.5f} excluded={result.excluded_count} "
        f"({100 * exclusion_rate:.2f}%)"
    )
    assert ok, line
    # every trial against the closed-form cascade, which solves no LP: the
    # final objective bit for bit, the exceed flag and the exclusions, each
    # a trial where two of the ell + 2 largest draws lie within X_TOL
    excluded = []
    for row in result.rows:
        deltas = np.random.default_rng((101, row["trial"])).uniform(0.0, 1.0, m)
        stages = analytic_cascade(deltas, ell, fully_supported=True)
        if stages is None:
            assert row["excluded"] == 1
            excluded.append(row["trial"])
            continue
        x = stages[-1][0]
        assert row["excluded"] == 0 and row["final_objective"] == x
        assert row["exceed"] == int(1.0 - x > eps)
    assert excluded == [3671, 5767, 6996, 11444, 16240, 16291, 17247,
                        18869, 19647]


def test_criterion_4_validity_on_resource_program():
    """MC outer probability stays below the batched bound near 0.2."""
    m, d, n, ell, trials = 200, 2, 2, 2, 2000
    r = ell * d
    inv = bounds.invert_epsilon(m, d, r, 0.2)
    eps = inv.epsilon
    value = bounds.bound_cascade(m, d, r, eps).value
    assert value == pytest.approx(0.2, abs=1e-3)
    result = run_outer_mc(
        ResourceFamily(d=d, n=n, m=m), ell, eps, trials,
        RandomSource(seed=202), n_inner=10_000,
    )
    slack = value + 3.0 * result.combined_half_width - result.point
    ok = result.valid and result.excluded_count == 0
    line = _report(
        4, ok,
        f"mc={result.point:.4f} bound={value:.4f} "
        f"3chw={3 * result.combined_half_width:.4f} slack={slack:+.4f} "
        f"excluded={result.excluded_count}"
    )
    assert ok, line


def test_criterion_5_compression_reconstruction():
    """verify_compression holds on 200 nondegenerate random instances."""
    rng_seed = 0
    accepted = 0
    skipped_degenerate = 0
    failures = []
    attempt = 0
    while accepted < 200 and attempt < 400:
        attempt += 1
        src = RandomSource(seed=500 + attempt)
        if attempt % 2 == 0:
            m = 20 + (attempt % 30)
            ell = 1 + (attempt % 3)
            program = gen_analytic(m, src.generator())
            mode = RemovalMode.FULLY_SUPPORTED
        else:
            d = 2 + (attempt % 2)
            m = 30 + (attempt % 31)
            ell = 1 + (attempt % 3)
            program = gen_resource(d, 1 + (attempt % 2), m, src.generator())
            mode = RemovalMode.REGULARIZED
        trace = run_cascade(program, ell, mode=mode)
        if any(s.degenerate for s in trace.stages):
            skipped_degenerate += 1
            continue
        accepted += 1
        if not verify_compression(program, ell, trace):
            failures.append(attempt)
    ok = accepted == 200 and not failures
    line = _report(
        5, ok,
        f"{accepted} nondegenerate instances verified, "
        f"{skipped_degenerate} degenerate draws skipped, failures={failures}"
    )
    assert ok, line


def test_criterion_6_support_oracle_equivalence():
    """Shortcut support detection equals the definitional re-solve loop."""
    mismatches = []
    for trial in range(200):
        src = RandomSource(seed=900 + trial)
        if trial % 2 == 0:
            program = gen_analytic(5 + trial % 11, src.generator())
        else:
            d = 2 + trial % 2
            program = gen_resource(d, 1, max(d + 2, 6 + trial % 10),
                                   src.generator())
        fast = support_set(program)
        slow = support_set_definitional(program, program.labels)
        if fast != slow:
            mismatches.append((trial, sorted(fast), sorted(slow)))
    ok = not mismatches
    line = _report(
        6, ok, f"200 instances compared, mismatches={mismatches[:3]}"
    )
    assert ok, line


def test_criterion_7_solver_call_counts():
    """Counting conventions reproduce 11 cascade and 1101 greedy solves."""
    formula_ok = (
        cascade_solve_count(10) == 11 and greedy_solve_count(100, 10) == 1101
    )
    # instrumented cross-check on a family where every greedy step keeps a
    # full support set (d = 1), so the convention is exact
    src = RandomSource(seed=77)
    program = gen_analytic(30, src.generator())

    def logical_counts(ell, mode):
        # cascade stage solves; greedy stage plus candidate solves (r = ell)
        cascade = run_cascade(program, ell, mode=mode, record_degeneracy=False)
        greedy = greedy_removal(program, ell).counts
        return (cascade.counts.stage_solves,
                greedy.stage_solves + greedy.candidate_solves)

    cascade_calls, greedy_calls = logical_counts(5, RemovalMode.FULLY_SUPPORTED)
    instrumented_ok = (
        cascade_calls == cascade_solve_count(5)
        and greedy_calls == greedy_solve_count(5, 1)
        and logical_counts(0, RemovalMode.REGULARIZED) == (1, 1)
    )
    ok = formula_ok and instrumented_ok
    line = _report(
        7, ok,
        f"cascade(ell=10)={cascade_solve_count(10)} (want 11), "
        f"greedy(r=100,d=10)={greedy_solve_count(100, 10)} (want 1101), "
        f"instrumented d=1 r=5: cascade={cascade_calls} greedy={greedy_calls}"
    )
    assert ok, line


def test_criterion_8_improvement_sign_on_sized_removal():
    """Batched-bound sizing never loses to classical-bound sizing.

    On the seeded d=10, m=2000 instance the improvement must be
    nonnegative across eps in [0.035, 0.08] and exactly zero wherever
    neither bound certifies a whole batch after rounding (which exact
    arithmetic places at eps <= 0.02; at eps in {0.025, 0.03} the batched
    bound already certifies one batch of 10, so the improvement there is
    positive).  The reference magnitude of roughly 4% at eps = 0.08 is
    instance specific and not asserted.
    """
    grid = [round(0.01 + 0.005 * i, 3) for i in range(15)]
    sweep = run_resource_compare(
        d=10, n=2, m=2000, beta=1e-6, eps_grid=grid,
        source=RandomSource(seed=30),
    )
    sign_window = [p for p in sweep.points if 0.035 - 1e-9 <= p.epsilon <= 0.08 + 1e-9]
    sign_ok = all(p.improvement_pct >= 0.0 for p in sign_window)
    zero_points = [p for p in sweep.points
                   if p.r_cascade == 0 and p.r_greedy == 0]
    zero_ok = all(p.improvement_pct == 0.0 for p in zero_points)
    zero_eps = sorted(p.epsilon for p in zero_points)
    coverage_ok = all(e in zero_eps for e in (0.01, 0.015, 0.02))
    ok = sign_ok and zero_ok and coverage_ok and len(sign_window) == 10
    detail = ", ".join(
        f"{p.epsilon:.3f}:{p.improvement_pct:+.2f}%" for p in sweep.points
    )
    line = _report(8, ok, f"zero at {zero_eps}; improvements {detail}")
    assert ok, line


def test_criterion_9_monotonicity_properties():
    """Bound monotonicity, cascade cost decrease, greedy r=0 identity."""
    problems = []

    eps_grid = [0.02 * i for i in range(1, 50)]
    for m, d, r in [(100, 2, 4), (2000, 10, 20), (60, 3, 0)]:
        values = [bounds.bound_cascade(m, d, r, e).value for e in eps_grid]
        if not all(b <= a + 5e-16 for a, b in zip(values, values[1:])):
            problems.append(f"bound not decreasing in eps at {(m, d, r)}")
    for m, d, eps in [(100, 2, 0.2), (2000, 10, 0.05)]:
        values = [
            bounds.bound_cascade(m, d, r, eps).value
            for r in range(0, m - d, max(1, (m - d) // 40))
        ]
        if not all(a <= b + 5e-16 for a, b in zip(values, values[1:])):
            problems.append(f"bound not increasing in r at {(m, d, eps)}")

    runs = [
        (gen_analytic(40, RandomSource(seed=1).generator()),
         RemovalMode.FULLY_SUPPORTED, 4),
        (gen_resource(2, 2, 60, RandomSource(seed=2).generator()),
         RemovalMode.REGULARIZED, 3),
        (gen_resource(3, 1, 50, RandomSource(seed=3).generator()),
         RemovalMode.REGULARIZED, 2),
    ]
    for program, mode, ell in runs:
        trace = run_cascade(program, ell, mode=mode)
        objs = [s.objective for s in trace.stages]
        if not all(b <= a + 1e-9 for a, b in zip(objs, objs[1:])):
            problems.append(f"cascade objectives increased: {objs}")

    for program, _, _ in runs:
        g0 = greedy_removal(program, 0)
        full = solve(program.assemble(program.labels)[0])
        if g0.final_objective != full.objective:
            problems.append("greedy r=0 differs from full solve")

    result = run_outer_mc(
        AnalyticFamily(m=12), 1, 1.0, 25, RandomSource(seed=4),
    )
    if result.exceed_count != 0:
        problems.append("violation probability exceeded 1")

    ok = not problems
    line = _report(9, ok, "all monotonicity checks hold" if ok
                   else "; ".join(problems))
    assert ok, line
