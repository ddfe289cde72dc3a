import dataclasses
import json

import numpy as np
import pytest

from scenopt.engine import (
    AssumptionViolated,
    DegeneracyDetected,
    InsufficientScenarios,
    RemovalMode,
    Scenario,
    ScenarioProgram,
    greedy_removal,
    is_nondegenerate,
    padding_set,
    run_cascade,
    solve_stage,
    support_set,
    verify_compression,
)
from scenopt.lp import LpInputError

from oracles import assemble_blocks, support_set_definitional


def analytic_program(deltas, lower=0.0, upper=1.0):
    scenarios = tuple(
        Scenario(label=i + 1, coeffs=[[-1.0]], rhs=[-float(v)])
        for i, v in enumerate(deltas)
    )
    return ScenarioProgram(cost=[1.0], lower=[lower], upper=[upper],
                           scenarios=scenarios)


def random_analytic(rng, m):
    return analytic_program(rng.uniform(0.0, 1.0, m))


def random_resource(rng, d, n, m):
    scenarios = tuple(
        Scenario(
            label=i + 1,
            coeffs=0.04 * rng.laplace(1.0, np.sqrt(1.5), size=(n, d)),
            rhs=np.ones(n),
        )
        for i in range(m)
    )
    return ScenarioProgram(cost=-np.ones(d), lower=np.zeros(d),
                           upper=np.full(d, np.inf), scenarios=scenarios)


def floor_line_program(lines, box=20.0):
    """Minimize x2 above a set of lines x2 >= a*x1 + c, one per scenario.

    lines maps label -> (a, c); the row encoding is a*x1 - x2 <= -c.
    """
    scenarios = tuple(
        Scenario(label=lab, coeffs=[[a, -1.0]], rhs=[-c])
        for lab, (a, c) in sorted(lines.items())
    )
    return ScenarioProgram(
        cost=[0.0, 1.0], lower=[-box, -box], upper=[box, box],
        scenarios=scenarios,
    )


class TestSolveStage:
    def test_all_active_takes_max(self):
        prog = analytic_program([0.2, 0.9, 0.5])
        sol = solve_stage(prog)
        assert sol.x[0] == pytest.approx(0.9, abs=1e-9)

    def test_subset_takes_subset_max(self):
        prog = analytic_program([0.2, 0.9, 0.5])
        sol = solve_stage(prog, {1, 3})
        assert sol.x[0] == pytest.approx(0.5, abs=1e-9)

    def test_subset_monotonicity(self):
        # dropping scenarios can only improve (lower) the optimum
        rng = np.random.default_rng(3)
        for _ in range(500):
            prog = random_resource(rng, 2, 1, 12)
            labels = set(prog.labels)
            sub = set(
                rng.choice(sorted(labels), size=rng.integers(1, 12),
                           replace=False).tolist()
            )
            full = solve_stage(prog, labels)
            reduced = solve_stage(prog, sub)
            if not reduced.is_optimal:
                # unbounded after dropping rows is the extreme improvement
                continue
            assert reduced.objective <= full.objective + 1e-7

    def test_unknown_label_rejected(self):
        prog = analytic_program([0.2, 0.9])
        with pytest.raises(LpInputError):
            solve_stage(prog, {99})


class TestSupportSet:
    def test_singleton_on_distinct_values(self):
        deltas = [0.11, 0.87, 0.42, 0.05]
        prog = analytic_program(deltas)
        assert support_set(prog) == frozenset({2})

    def test_two_support_scenarios_in_2d(self):
        lines = {1: (1.0, 10.0), 2: (-1.0, 10.0), 3: (0.5, 6.0),
                 4: (-2.0, -2.0), 5: (0.2, 3.0), 6: (-0.2, 3.0)}
        prog = floor_line_program(lines)
        sup = support_set(prog)
        assert sup == frozenset({1, 2})
        sol = solve_stage(prog)
        np.testing.assert_allclose(sol.x, [0.0, 10.0], atol=1e-7)

    def test_shortcut_matches_definition(self):
        rng = np.random.default_rng(101)
        for trial in range(60):
            if trial % 2 == 0:
                prog = random_analytic(rng, int(rng.integers(4, 16)))
            else:
                prog = random_resource(rng, int(rng.integers(2, 4)), 1,
                                       int(rng.integers(6, 16)))
            fast = support_set(prog)
            slow = support_set_definitional(prog, prog.labels)
            assert fast == slow
            assert len(fast) <= prog.d


class TestNondegeneracy:
    def test_distinct_values_nondegenerate(self):
        prog = analytic_program([0.3, 0.8, 0.1])
        assert is_nondegenerate(prog)

    def test_duplicated_max_is_degenerate(self):
        # two copies of the max shadow each other: neither is support, so
        # the support-only re-solve collapses to the box and drifts
        prog = analytic_program([0.1, 0.9, 0.3, 0.9, 0.5])
        assert support_set(prog) == frozenset()
        assert not is_nondegenerate(prog)

    def test_random_ensemble_nondegenerate(self):
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(200):
            prog = random_analytic(rng, 10)
            hits += is_nondegenerate(prog)
        assert hits == 200


class TestPaddingSet:
    def test_zero_padding(self):
        assert padding_set({1, 2, 3}, {2}, 0) == frozenset()

    def test_smallest_remaining_label(self):
        assert padding_set({1, 3, 5, 7}, {5}, 1) == frozenset({1})

    def test_insufficient(self):
        with pytest.raises(InsufficientScenarios):
            padding_set({1, 2}, {1, 2}, 1)


class TestCascadeFullySupported:
    def test_1d_strips_successive_maxima(self):
        rng = np.random.default_rng(9)
        deltas = rng.uniform(0, 1, 10)
        prog = analytic_program(deltas)
        trace = run_cascade(prog, 3, mode=RemovalMode.FULLY_SUPPORTED)
        order = np.argsort(-deltas)
        assert trace.final_x[0] == pytest.approx(deltas[order[3]], abs=1e-9)
        removed = [sorted(s.removed) for s in trace.stages[:-1]]
        assert removed == [[int(i) + 1] for i in order[:3]]
        objectives = [s.objective for s in trace.stages]
        assert objectives == sorted(objectives, reverse=True)

    def test_removed_scenario_need_not_be_violated(self):
        # three nested V-shaped floors plus a slack line; the steep line of
        # the middle V is removed at stage 1 yet satisfied by the final
        # minimizer
        lines = {1: (1.0, 10.0), 2: (-1.0, 10.0), 3: (0.5, 6.0),
                 4: (-2.0, -2.0), 5: (0.2, 3.0), 6: (-0.2, 3.0),
                 7: (0.0, -15.0)}
        prog = floor_line_program(lines)
        trace = run_cascade(prog, 2, mode=RemovalMode.FULLY_SUPPORTED)
        assert sorted(trace.stages[0].removed) == [1, 2]
        assert sorted(trace.stages[1].removed) == [3, 4]
        assert sorted(trace.stages[2].removed) == [5, 6]
        np.testing.assert_allclose(trace.final_x, [0.0, 3.0], atol=1e-7)
        removed_all = set().union(*(s.removed for s in trace.stages[:-1]))
        x = trace.final_x
        satisfied = [
            lab for lab in removed_all
            if np.all(prog.scenario(lab).coeffs @ x <= prog.scenario(lab).rhs + 1e-9)
        ]
        assert 4 in satisfied

    def test_strict_cost_decrease_on_random_ensemble(self):
        rng = np.random.default_rng(13)
        ran = 0
        for _ in range(200):
            prog = random_resource(rng, 2, 1, 25)
            try:
                trace = run_cascade(prog, 2, mode=RemovalMode.FULLY_SUPPORTED)
            except AssumptionViolated:
                continue
            objs = [s.objective for s in trace.stages]
            assert all(b < a for a, b in zip(objs, objs[1:]))
            ran += 1
        assert ran > 150

    def test_assumption_violated_on_thin_support(self):
        # one horizontal floor line: the lexicographic minimizer leans on
        # the box corner, so the support set is a singleton and d = 2
        prog = floor_line_program({1: (0.0, 5.0), 2: (0.0, 2.0),
                                   3: (0.0, 0.0), 4: (0.0, -1.0),
                                   5: (0.0, -2.0), 6: (0.0, -3.0),
                                   7: (0.0, -4.0)})
        with pytest.raises(AssumptionViolated) as err:
            run_cascade(prog, 2, mode=RemovalMode.FULLY_SUPPORTED)
        assert err.value.stage == 0

    def test_duplicates_raise_in_fully_supported_mode(self):
        prog = analytic_program([0.1, 0.9, 0.3, 0.9, 0.5])
        with pytest.raises(AssumptionViolated):
            run_cascade(prog, 1, mode=RemovalMode.FULLY_SUPPORTED)


class TestCascadeRegularized:
    def test_padding_follows_label_order(self):
        # single-support stages pad with the smallest available label:
        # stage 0 removes the support scenario 4 plus label 1, stage 1
        # removes support scenario 2 plus label 3
        lines = {1: (0.0, -1.0), 2: (0.0, 2.0), 3: (0.0, 0.0),
                 4: (0.0, 5.0), 5: (0.0, -3.0), 6: (0.0, -4.0),
                 7: (0.0, -5.0)}
        prog = floor_line_program(lines, box=10.0)
        trace = run_cascade(prog, 2, mode=RemovalMode.REGULARIZED)
        assert sorted(trace.stages[0].support) == [4]
        assert sorted(trace.stages[0].padding) == [1]
        assert sorted(trace.stages[0].removed) == [1, 4]
        assert sorted(trace.stages[1].support) == [2]
        assert sorted(trace.stages[1].padding) == [3]
        assert sorted(trace.stages[1].removed) == [2, 3]
        assert sorted(trace.stages[2].support) == [5]
        assert sorted(trace.stages[2].padding) == [6]
        assert sorted(trace.compression_candidate) == [1, 2, 3, 4, 5, 6]

    def test_batch_accounting(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            prog = random_resource(rng, 3, 1, 30)
            trace = run_cascade(prog, 2, mode=RemovalMode.REGULARIZED)
            removed = [s.removed for s in trace.stages[:-1]]
            assert all(len(batch) == 3 for batch in removed)
            union = set().union(*removed)
            assert len(union) == 6  # pairwise disjoint
            assert len(trace.compression_candidate) == 9

    def test_stage_invariants(self):
        rng = np.random.default_rng(29)
        prog = random_resource(rng, 2, 2, 24)
        trace = run_cascade(prog, 3, mode=RemovalMode.REGULARIZED)
        for s in trace.stages:
            assert len(s.support) <= 2
            assert not (s.support & s.padding)
            assert s.removed == s.support | s.padding
        objs = [s.objective for s in trace.stages]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_insufficient_scenarios(self):
        prog = analytic_program([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InsufficientScenarios):
            run_cascade(prog, 3, mode=RemovalMode.REGULARIZED)

    def test_permutation_robustness(self):
        rng = np.random.default_rng(37)
        cases = [
            (random_resource(rng, 2, 1, 20), RemovalMode.REGULARIZED),
            (random_analytic(rng, 15), RemovalMode.FULLY_SUPPORTED),
        ]
        for prog, mode in cases:
            trace = run_cascade(prog, 2, mode=mode)
            shuffled = ScenarioProgram(
                cost=prog.cost, lower=prog.lower, upper=prog.upper,
                scenarios=tuple(
                    prog.scenarios[i] for i in rng.permutation(prog.m)
                ),
            )
            trace2 = run_cascade(shuffled, 2, mode=mode)
            for a, b in zip(trace.stages, trace2.stages):
                np.testing.assert_allclose(a.minimizer, b.minimizer, atol=1e-7)
                assert a.removed == b.removed


class TestVerifyCompression:
    def test_analytic_always_reconstructs(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            prog = random_analytic(rng, 12)
            trace = run_cascade(prog, 3, mode=RemovalMode.FULLY_SUPPORTED)
            assert verify_compression(prog, 3, trace)

    def test_regularized_ensemble_reconstructs(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            prog = random_resource(rng, 2, 1, 20)
            trace = run_cascade(prog, 2, mode=RemovalMode.REGULARIZED)
            assert verify_compression(prog, 2, trace)

    def test_mutated_candidate_fails(self):
        rng = np.random.default_rng(47)
        failures = 0
        for _ in range(20):
            prog = random_analytic(rng, 12)
            trace = run_cascade(prog, 3, mode=RemovalMode.FULLY_SUPPORTED)
            outside = sorted(prog.labels - trace.compression_candidate)
            member = min(trace.compression_candidate)
            mutated = dataclasses.replace(
                trace,
                compression_candidate=frozenset(
                    (trace.compression_candidate - {member}) | {outside[-1]}
                ),
            )
            failures += not verify_compression(prog, 3, mutated)
        assert failures == 20


class TestGreedy:
    def test_1d_removes_two_largest(self):
        deltas = [0.31, 0.95, 0.42, 0.88, 0.10]
        prog = analytic_program(deltas)
        trace = greedy_removal(prog, 2)
        assert [s.removed_label for s in trace.steps] == [2, 4]
        assert trace.final_objective == pytest.approx(0.42, abs=1e-9)

    def test_r_zero_is_identity(self):
        prog = analytic_program([0.3, 0.6, 0.2])
        trace = greedy_removal(prog, 0)
        full = solve_stage(prog)
        assert trace.final_objective == full.objective
        assert trace.steps == ()

    def test_objectives_non_increasing(self):
        rng = np.random.default_rng(53)
        prog = random_resource(rng, 2, 1, 20)
        trace = greedy_removal(prog, 5)
        objs = [s.objective for s in trace.steps]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_precondition(self):
        prog = analytic_program([0.1, 0.2, 0.3])
        with pytest.raises(InsufficientScenarios):
            greedy_removal(prog, 2)

    def test_greedy_matches_cascade_in_1d(self):
        # with d = 1 both schemes strip successive maxima
        rng = np.random.default_rng(59)
        prog = random_analytic(rng, 12)
        g = greedy_removal(prog, 3)
        c = run_cascade(prog, 3, mode=RemovalMode.FULLY_SUPPORTED)
        assert g.final_objective == pytest.approx(c.final_objective, abs=1e-9)


class TestSolveCounts:
    def test_cascade_counts_one_solve_per_stage(self):
        rng = np.random.default_rng(61)
        prog = random_analytic(rng, 12)
        trace = run_cascade(prog, 3, mode=RemovalMode.FULLY_SUPPORTED)
        assert trace.counts.stage_solves == 4

    def test_greedy_counts_match_convention_when_fully_supported(self):
        # analytic instances keep |support| = d = 1 at every step, so the
        # instrumented count equals the 1 + r*(d+1) convention
        rng = np.random.default_rng(67)
        prog = random_analytic(rng, 12)
        trace = greedy_removal(prog, 4)
        stagelike = trace.counts.stage_solves + trace.counts.candidate_solves
        assert stagelike == 1 + 4 * (1 + 1)


class TestSerialization:
    def test_program_json_round_trip(self):
        rng = np.random.default_rng(71)
        prog = random_resource(rng, 2, 2, 8)
        clone = ScenarioProgram.from_json(prog.to_json())
        assert clone.m == prog.m
        assert clone.labels == prog.labels
        np.testing.assert_array_equal(clone.cost, prog.cost)
        for lab in sorted(prog.labels):
            np.testing.assert_array_equal(
                clone.scenario(lab).coeffs, prog.scenario(lab).coeffs
            )

    def test_infinite_bounds_become_null(self):
        rng = np.random.default_rng(73)
        prog = random_resource(rng, 2, 1, 6)
        data = prog.to_dict()
        assert data["bounds"][0][1] is None
        clone = ScenarioProgram.from_dict(data)
        assert np.isinf(clone.upper).all()

    def test_trace_serializes_to_json(self):
        rng = np.random.default_rng(79)
        prog = random_analytic(rng, 10)
        trace = run_cascade(prog, 2, mode=RemovalMode.REGULARIZED)
        blob = json.dumps(trace.to_dict())
        parsed = json.loads(blob)
        assert parsed["ell"] == 2
        assert len(parsed["stages"]) == 3
        assert parsed["solve_counts"]["stage"] == 3

    def test_malformed_dict_rejected(self):
        with pytest.raises(LpInputError):
            ScenarioProgram.from_dict({"d": 1, "cost": [1.0]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LpInputError):
            ScenarioProgram(
                cost=[1.0], lower=[0.0], upper=[1.0],
                scenarios=(
                    Scenario(label=1, coeffs=[[-1.0]], rhs=[-0.1]),
                    Scenario(label=1, coeffs=[[-1.0]], rhs=[-0.2]),
                ),
            )


def program_dict(scenarios, d=1):
    return {"d": d, "cost": [1.0] * d, "bounds": [[0.0, 1.0]] * d,
            "scenarios": scenarios}


@pytest.mark.parametrize("scenarios, d, message", [
    ([{"label": 1.7, "rows": [{"a": [-1.0], "b": -0.1}]}], 1,
     "not an integer"),
    ([{"label": 1.2, "rows": [{"a": [-1.0], "b": -0.1}]},
      {"label": 1.7, "rows": [{"a": [-1.0], "b": -0.2}]}], 1,
     "not an integer"),
    ([{"label": -3, "rows": [{"a": [-1.0], "b": -0.1}]}], 1,
     "not positive"),
    ([{"label": 1, "rows": []}], 1, "must be non-empty"),
    ([{"label": 1, "rows": [{"a": [-1.0, 0.5], "b": -0.1},
                            {"a": [-1.0, 0.5, 2.0], "b": -0.2}]}], 2,
     "has 3 coefficients, expected 2"),
    ([{"label": 1, "rows": [{"a": ["x"], "b": -0.1}]}], 1, "malformed"),
])
def test_bad_scenario_input_rejected(scenarios, d, message):
    with pytest.raises(LpInputError, match=message):
        ScenarioProgram.from_dict(program_dict(scenarios, d))


def mixed_scenarios(rng, d, labels):
    """Scenarios of one to three rows each, in the given label order."""
    return [
        Scenario(label=lab, coeffs=rng.normal(size=(h, d)),
                 rhs=rng.normal(size=h))
        for lab, h in zip(labels, rng.integers(1, 4, len(labels)).tolist())
    ]


class TestRowLayout:
    def random_case(self, rng):
        d = int(rng.integers(1, 4))
        labels = rng.choice(np.arange(1, 100), size=int(rng.integers(1, 12)),
                            replace=False).tolist()  # unsorted
        scenarios = mixed_scenarios(rng, d, labels)
        prog = ScenarioProgram(cost=np.ones(d), lower=-np.ones(d),
                               upper=np.ones(d), scenarios=scenarios)
        return d, labels, scenarios, prog

    def test_assemble_matches_block_stacking(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            d, labels, scenarios, prog = self.random_case(rng)
            clone = ScenarioProgram.from_json(prog.to_json())
            subsets = [labels, [], [labels[0]],
                       [lab for lab in labels if rng.random() < 0.5]]
            for sub in subsets:
                coeffs, rhs, owners = assemble_blocks(scenarios, sub, d)
                for p in (prog, clone):
                    lp, got_owners = p.assemble(set(sub))
                    assert np.array_equal(lp.row_coeffs, coeffs)
                    assert np.array_equal(lp.row_rhs, rhs)
                    assert np.array_equal(got_owners, owners)

    def test_scenarios_are_derived_in_given_order(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            _, labels, scenarios, prog = self.random_case(rng)
            assert [s.label for s in prog.scenarios] == labels
            for orig, derived in zip(scenarios, prog.scenarios):
                assert np.array_equal(derived.coeffs, orig.coeffs)
                assert np.array_equal(derived.rhs, orig.rhs)
                assert not derived.coeffs.flags.writeable

    def test_json_round_trip_is_byte_identical(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            _, labels, _, prog = self.random_case(rng)
            text = prog.to_json()
            assert [s["label"] for s in json.loads(text)["scenarios"]] == labels
            assert ScenarioProgram.from_json(text).to_json() == text

    def test_restrict_matches_program_from_same_scenarios(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            _, labels, scenarios, prog = self.random_case(rng)
            keep = set(labels[: int(rng.integers(1, len(labels) + 1))])
            sub = prog.restrict(keep)
            ref = ScenarioProgram(
                cost=prog.cost, lower=prog.lower, upper=prog.upper,
                scenarios=[s for s in scenarios if s.label in keep],
            )
            assert np.array_equal(sub.coeffs, ref.coeffs)
            assert np.array_equal(sub.rhs, ref.rhs)
            assert np.array_equal(sub.owners, ref.owners)
            assert sub.to_json() == ref.to_json()
