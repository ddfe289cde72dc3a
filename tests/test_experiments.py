import numpy as np
import pytest

from scenopt import bounds
from scenopt.engine import (
    RemovalMode,
    cascade_solve_count,
    greedy_removal,
    greedy_solve_count,
    run_cascade,
)
from scenopt.experiments import (
    AllTrialsExcluded,
    AnalyticFamily,
    RandomSource,
    ResourceFamily,
    estimate_violation,
    gen_analytic,
    gen_resource,
    metadata_blob,
    rows_to_csv,
    run_outer_mc,
    run_resource_compare,
)
from scenopt.lp import solve

from oracles import assemble_blocks


class TiedMaxFamily(AnalyticFamily):
    """Analytic draws whose largest delta appears twice.

    Neither copy of the maximum is a support scenario, so every cascade in
    fully-supported mode stops at stage 0 and every trial is excluded.
    """

    def sample_blocks(self, count, rng):
        coeffs, rhs = super().sample_blocks(count, rng)
        rhs[:2] = rhs.min()
        return coeffs, rhs


class TestGenerators:
    def test_same_seed_same_program(self):
        src = RandomSource(seed=7)
        a = gen_analytic(20, src.generator())
        b = gen_analytic(20, src.generator())
        np.testing.assert_array_equal(a.rhs, b.rhs)

    def test_stream_regression_anchor(self):
        # pins the generator algorithm: a silent RNG change would move these
        rng = RandomSource(seed=0).generator()
        first = rng.uniform(0.0, 1.0, 3)
        np.testing.assert_allclose(
            first, [0.6369616873214543, 0.2697867137638703, 0.04097352393619469],
            rtol=0, atol=1e-15,
        )

    def test_analytic_minimizer_is_max(self):
        src = RandomSource(seed=3)
        prog = gen_analytic(25, src.generator())
        deltas = -prog.rhs
        sol = solve(prog.assemble(prog.labels)[0])
        assert sol.x[0] == pytest.approx(deltas.max(), abs=1e-9)

    def test_analytic_removed_scenarios_violated_downstream(self):
        # each stage's removed maximum exceeds every later minimizer
        src = RandomSource(seed=5)
        prog = gen_analytic(30, src.generator())
        trace = run_cascade(prog, 4, mode=RemovalMode.FULLY_SUPPORTED)
        for k, stage in enumerate(trace.stages[:-1]):
            removed_value = max(-prog.rhs[prog.owners == lab][0]
                                for lab in stage.removed)
            for later in trace.stages[k + 1:]:
                assert removed_value > later.minimizer[0]

    def test_resource_zero_feasible_and_monotone(self):
        src = RandomSource(seed=11)
        prog = gen_resource(2, 2, 60, src.generator())
        assert np.all(prog.rhs >= 0)
        trace = run_cascade(prog, 3, mode=RemovalMode.REGULARIZED)
        objs = [s.objective for s in trace.stages]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_resource_2000_scenario_cascade(self):
        # the large configuration: 2000 scenarios, eleven stages
        src = RandomSource(seed=30)
        prog = gen_resource(2, 2, 2000, src.generator())
        trace = run_cascade(prog, 10, mode=RemovalMode.REGULARIZED,
                            record_degeneracy=False)
        assert len(trace.stages) == 11
        objs = [s.objective for s in trace.stages]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        assert len(trace.compression_candidate) == 22
        assert trace.counts.stage_solves == 11

    def test_generate_matches_scenario_construction(self):
        # the families stack their sampled blocks directly; the program must
        # equal the block-by-block stacking of the same draws
        for family in (AnalyticFamily(m=9), ResourceFamily(d=3, n=2, m=9)):
            prog = family.generate(RandomSource(seed=47).generator())
            coeffs, rhs = family.sample_blocks(
                family.m, RandomSource(seed=47).generator())
            scenarios = [(i + 1, coeffs[i], rhs[i]) for i in range(family.m)]
            for sub in ({1, 2, 3, 4, 5, 6, 7, 8, 9}, {2, 5, 9}, set()):
                lp, owners = prog.assemble(sub)
                ref_coeffs, ref_rhs, ref_owners = assemble_blocks(
                    scenarios, sub, family.d)
                assert np.array_equal(lp.row_coeffs, ref_coeffs)
                assert np.array_equal(lp.row_rhs, ref_rhs)
                assert np.array_equal(owners, ref_owners)

    def test_resource_laplace_moments(self):
        src = RandomSource(seed=13)
        coeffs, _ = ResourceFamily(d=2, n=2, m=1).sample_blocks(
            20000, src.generator()
        )
        entries = coeffs.ravel() / 0.04
        assert np.mean(entries) == pytest.approx(1.0, abs=0.05)
        assert np.var(entries) == pytest.approx(3.0, abs=0.15)


class TestViolationEstimation:
    def test_matches_closed_form(self):
        fam = AnalyticFamily(m=50)
        src = RandomSource(seed=17)
        est = estimate_violation(fam.sample_blocks, [0.8], 100_000,
                                 src.generator())
        assert abs(est.point - 0.2) <= 3 * est.half_width_95
        assert est.half_width_95 == pytest.approx(
            1.96 * np.sqrt(est.point * (1 - est.point) / 100_000), rel=1e-3
        )

    def test_interior_point_never_violates(self):
        fam = AnalyticFamily(m=10)
        src = RandomSource(seed=19)
        est = estimate_violation(fam.sample_blocks, [1.0], 5000,
                                 src.generator())
        assert est.point == 0.0

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_needs_at_least_one_sample(self, n_samples):
        fam = AnalyticFamily(m=10)
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            estimate_violation(fam.sample_blocks, [1.0], n_samples,
                               RandomSource(seed=19).generator())

    def test_two_sample_sizes_agree_at_cascade_solution(self):
        fam = ResourceFamily(d=2, n=2, m=80)
        src = RandomSource(seed=23)
        trace = run_cascade(fam.generate(src.generator()), 2,
                            mode=RemovalMode.REGULARIZED)
        x = trace.final_x
        small = estimate_violation(fam.sample_blocks, x, 20_000,
                                   src.generator(0))
        big = estimate_violation(fam.sample_blocks, x, 200_000,
                                 src.generator(1))
        assert abs(small.point - big.point) <= 3 * (
            small.half_width_95 + big.half_width_95
        )


class TestOuterProbability:
    def test_eps_one_never_exceeded(self):
        res = run_outer_mc(
            AnalyticFamily(m=15), 2, 1.0, 50, RandomSource(seed=29),
        )
        assert res.exceed_count == 0

    def test_trial_results_order_independent(self):
        # per-trial generators derive from (seed, trial), so a rerun of any
        # single trial reproduces its result
        src = RandomSource(seed=31)
        fam = AnalyticFamily(m=20)
        rows = run_outer_mc(fam, 2, 0.2, 10, src).rows
        prog7 = fam.generate(src.generator(7))
        trace7 = run_cascade(prog7, 2, mode=RemovalMode.FULLY_SUPPORTED)
        assert rows[7]["final_objective"] == trace7.final_objective

    def test_all_trials_excluded_raises(self):
        with pytest.raises(AllTrialsExcluded, match="all 4 trials") as err:
            run_outer_mc(
                TiedMaxFamily(m=8), 1, 0.2, 4, RandomSource(seed=43),
            )
        assert err.value.trials == 4
        with pytest.raises(ValueError, match="trials must be positive"):
            run_outer_mc(TiedMaxFamily(m=8), 1, 0.2, 0, RandomSource(seed=43))


def _logical_counts(cascade_trace, greedy_trace):
    """Cascade stage solves, and greedy stage plus candidate solves."""
    gcounts = greedy_trace.counts
    return (cascade_trace.counts.stage_solves,
            gcounts.stage_solves + gcounts.candidate_solves)


class TestCostComparison:
    def test_r_zero_identity(self):
        src = RandomSource(seed=41)
        prog = gen_resource(2, 2, 30, src.generator())
        trace = run_cascade(prog, 0, record_degeneracy=False)
        gtrace = greedy_removal(prog, 0)
        assert trace.final_objective == gtrace.final_objective
        assert _logical_counts(trace, gtrace) == (1, 1)

    def test_solve_count_formulas(self):
        assert cascade_solve_count(10) == 11
        assert greedy_solve_count(100, 10) == 1101
        assert cascade_solve_count(0) == 1
        assert greedy_solve_count(0, 10) == 1

    def test_instrumented_counts_match_formulas_in_1d(self):
        src = RandomSource(seed=47)
        prog = gen_analytic(20, src.generator())
        cascade_calls, greedy_calls = _logical_counts(
            run_cascade(prog, 3, mode=RemovalMode.FULLY_SUPPORTED,
                        record_degeneracy=False),
            greedy_removal(prog, 3))
        assert cascade_calls == cascade_solve_count(3)
        assert greedy_calls == greedy_solve_count(3, 1)


class TestPipelines:
    def test_tightness_small_run(self):
        res = run_outer_mc(
            AnalyticFamily(m=50), 5, 0.2, 400, RandomSource(seed=53),
        )
        assert res.bound_value == pytest.approx(
            bounds.analytic_violation_cdf(50, 5, 0.2)
        )
        assert abs(res.point - res.bound_value) <= 4 * max(
            res.half_width_95, 1e-3
        )
        assert res.tight == (abs(res.point - res.bound_value)
                             <= 3.0 * res.half_width_95)
        assert len(res.rows) == 400

    def test_outer_mc_resource_valid(self):
        fam = ResourceFamily(d=2, n=2, m=100)
        eps = bounds.invert_epsilon(100, 2, 4, 0.2).epsilon
        res = run_outer_mc(fam, 2, eps, 60, RandomSource(seed=59),
                           n_inner=2000)
        assert res.valid
        assert res.bound_value == pytest.approx(
            bounds.bound_cascade(100, 2, 4, eps).value
        )

    def test_resource_compare_prefix_consistency(self):
        # the sweep's prefix lookups must equal a from-scratch comparison
        src = RandomSource(seed=61)
        sweep = run_resource_compare(
            d=2, n=2, m=120, beta=1e-3, eps_grid=[0.10, 0.16], source=src
        )
        point = sweep.points[1]
        prog = gen_resource(2, 2, 120, src.generator())
        if point.r_cascade > 0:
            direct = run_cascade(prog, point.r_cascade // 2,
                                 mode=RemovalMode.REGULARIZED,
                                 record_degeneracy=False)
            assert point.cascade_objective == pytest.approx(
                direct.final_objective, abs=1e-12
            )
        assert point.improvement_pct >= -1e-9 or point.r_cascade < point.r_greedy

    def test_sweep_zero_region_is_exactly_zero(self):
        src = RandomSource(seed=67)
        sweep = run_resource_compare(
            d=2, n=2, m=120, beta=1e-9, eps_grid=[0.01, 0.02], source=src
        )
        for p in sweep.points:
            if p.r_cascade == 0 and p.r_greedy == 0:
                assert p.improvement_pct == 0.0


class TestCsvEmission:
    def test_deterministic_bytes(self):
        def render(seed):
            res = run_outer_mc(
                AnalyticFamily(m=15), 2, 0.2, 10, RandomSource(seed=seed),
            )
            return rows_to_csv(
                ["seed", "trial", "final_objective", "violation", "exceed", "excluded"],
                res.rows,
            )

        assert render(71) == render(71)
        assert render(71) != render(72)

    def test_metadata_embeds_version_and_config(self):
        blob = metadata_blob({"experiment": "x", "seed": 1})
        assert '"scenopt_version"' in blob
        assert '"seed": 1' in blob
