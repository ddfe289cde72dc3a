import ast
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenopt.engine as engine
from scenopt.engine import (
    AssumptionViolated,
    DegeneracyDetected,
    InsufficientScenarios,
    RemovalMode,
    ScenarioProgram,
    greedy_removal,
    is_nondegenerate,
    padding_set,
    run_cascade,
    support_set,
    verify_compression,
)
from scenopt.experiments import ResourceFamily
import scenopt.lp as lp_module
from scenopt.lp import (
    FEAS_TOL,
    X_TOL,
    LinearProgram,
    LpInputError,
    LpStatus,
    SimplexStallError,
    solve,
)

from oracles import (
    analytic_cascade,
    assemble_blocks,
    d1_greedy,
    greedy_two_solve,
    resource_cascade,
    support_set_definitional,
)
from programs import blocks, program


def analytic_program(deltas, lower=0.0, upper=1.0):
    return program([1.0], [lower], [upper],
                   [(i + 1, [-1.0], -float(v)) for i, v in enumerate(deltas)])


def random_analytic(rng, m):
    return analytic_program(rng.uniform(0.0, 1.0, m))


def random_resource(rng, d, n, m):
    return program(
        -np.ones(d), np.zeros(d), np.full(d, np.inf),
        [(i + 1, 0.04 * rng.laplace(1.0, np.sqrt(1.5), size=(n, d)), np.ones(n))
         for i in range(m)],
    )


def floor_line_program(lines, box=20.0):
    """Minimize x2 above a set of lines x2 >= a*x1 + c, one per scenario.

    lines maps label -> (a, c); the row encoding is a*x1 - x2 <= -c.
    """
    return program([0.0, 1.0], [-box, -box], [box, box],
                   [(lab, [a, -1.0], -c) for lab, (a, c) in sorted(lines.items())])


class TestSolveStage:
    def test_all_active_takes_max(self):
        prog = analytic_program([0.2, 0.9, 0.5])
        sol = solve(prog.assemble(prog.labels)[0])
        assert sol.x[0] == pytest.approx(0.9, abs=1e-9)

    def test_subset_takes_subset_max(self):
        prog = analytic_program([0.2, 0.9, 0.5])
        sol = solve(prog.assemble({1, 3})[0])
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
            full = solve(prog.assemble(labels)[0])
            reduced = solve(prog.assemble(sub)[0])
            if not reduced.is_optimal:
                # unbounded after dropping rows is the extreme improvement
                continue
            assert reduced.objective <= full.objective + 1e-7

    def test_unknown_label_rejected(self):
        prog = analytic_program([0.2, 0.9])
        with pytest.raises(LpInputError):
            prog.assemble({99})


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
        sol = solve(prog.assemble(prog.labels)[0])
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


def count_refined_solves(monkeypatch):
    """Spy on the engine's LP solves; returns the list of refine flags."""
    flags = []
    real_solve = engine.solve

    def spy(lp, refine=True):
        flags.append(refine)
        return real_solve(lp, refine=refine)

    monkeypatch.setattr(engine, "solve", spy)
    return flags


def tie_break_program():
    # minimize x1 over [0,1]^2: scenario 1 (x2 >= 0.5) binds only x2,
    # scenario 2 (x1 >= 0.3) binds the cost, scenario 3 is slack
    return program([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [
        (1, [0.0, -1.0], -0.5),
        (2, [-1.0, 0.0], -0.3),
        (3, [0.0, -1.0], -0.2),
    ])


def reoptimized_without(prog, label, stop=-np.inf):
    """lp.reoptimize from the simple stage vertex of prog past label's rows."""
    stage = engine._solved_stage(prog, prog.labels)
    assert stage.inv is not None  # the vertex is simple
    return stage.cost_without(label, stop)


class TestSupportCertificate:
    """Support scenarios whose removal keeps the cost are found only by the
    refined re-solve that runs inside the cost-drop margin."""

    def test_tie_break_only_support(self, monkeypatch):
        prog = tie_break_program()
        flags = count_refined_solves(monkeypatch)
        sup = support_set(prog)
        # the stage solve plus one fallback, for scenario 1 only
        assert flags.count(True) == 2
        assert sup == frozenset({1, 2})
        assert sup == support_set_definitional(prog, prog.labels)

    def test_near_tied_maxima_stay_unsupported(self, monkeypatch):
        prog = analytic_program([0.3, 0.8, 0.8 + 5e-8, 0.1])
        flags = count_refined_solves(monkeypatch)
        assert support_set(prog) == frozenset()
        assert flags.count(True) == 1 + 2
        assert support_set_definitional(prog, prog.labels) == frozenset()


class TestSupportFromTheVertex:
    """Support candidates are decided at the stage vertex by lp.reoptimize,
    stopped at the first vertex whose cost drop exceeds the margin; anything
    it cannot prove goes to the re-solve."""

    def test_generic_stages_solve_no_support_lp(self, monkeypatch):
        rng = np.random.default_rng(11)
        for prog in (random_analytic(rng, 50), random_resource(rng, 2, 2, 200)):
            flags = count_refined_solves(monkeypatch)
            sup = support_set(prog)
            assert len(sup) == prog.d
            # the refined stage solve and nothing else
            assert flags == [True]

    @pytest.mark.parametrize("make, trials", [
        (lambda rng: random_analytic(rng, 50), 20),
        (lambda rng: random_resource(rng, 2, 2, 30), 20),
        (lambda rng: random_resource(rng, 10, 2, 40), 3),
    ], ids=["analytic", "resource-d2", "resource-d10"])
    def test_matches_definition(self, make, trials):
        rng = np.random.default_rng(29)
        for _ in range(trials):
            prog = make(rng)
            assert support_set(prog) == support_set_definitional(prog, prog.labels)

    def test_more_than_d_active_falls_back(self, monkeypatch):
        # duplicated maxima: two active rows in d=1
        prog = analytic_program([0.1, 0.9, 0.3, 0.9, 0.5])
        flags = count_refined_solves(monkeypatch)
        assert support_set(prog) == frozenset()
        assert flags == [True] + [False, True] * 2

    def test_zero_rate_edge_is_not_certified(self, monkeypatch):
        # crossing scenario 1's row (x2 >= 0.5) keeps the cost: reoptimize
        # reaches the optimum 0.3 without it, inside the margin, and only
        # the refined re-solve proves it support; scenario 2's edge drops
        # the cost to 0 and is decided at the vertex
        prog = tie_break_program()
        stop = 0.3 - (2.0 * X_TOL + FEAS_TOL)
        assert reoptimized_without(prog, 1, stop=stop) == pytest.approx(0.3)
        assert reoptimized_without(prog, 2, stop=stop) < stop
        flags = count_refined_solves(monkeypatch)
        assert support_set(prog) == frozenset({1, 2})
        # the stage solve and scenario 1's refined re-solve
        assert flags == [True, True]

    def test_drop_inside_margin_falls_back(self, monkeypatch):
        # one active row (the gap 1.5e-6 exceeds ACTIVE_TOL), but the drop
        # 1.5e-6 to the reduced optimum is inside the 2.1e-6 margin: the
        # refined re-solve decides, with no unrefined one before it
        prog = analytic_program([0.3, 0.8, 0.8 + 1.5e-6, 0.1])
        flags = count_refined_solves(monkeypatch)
        sup = support_set(prog)
        assert flags == [True, True]
        assert sup == frozenset({3})
        assert sup == support_set_definitional(prog, prog.labels)

    def test_shallow_blocking_row_stops_the_edge(self, monkeypatch):
        # the edge crossing scenario 1's row (x1 >= 0.5) along x2 = 0 meets
        # scenario 2's row after a drop of 2e-6, inside the 3e-6 margin;
        # the row is so shallow that the edge point at twice the margin
        # violates it by only 4e-7 < FEAS_TOL, so the ratio test must stop
        # the edge there, and the next edge reaches x1 = 0.  That needs
        # ACTIVE_TOL < FEAS_TOL, which the package's values do not give, so
        # both are set in the modules that read them: the activity scan
        # lives in lp alone.
        monkeypatch.setattr(lp_module, "ACTIVE_TOL", 1e-8)
        for module in (lp_module, engine):
            monkeypatch.setattr(module, "FEAS_TOL", 1e-6)
        prog = program([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [
            (1, [-1.0, 0.0], -0.5),
            (2, [-0.1, -1.0], -0.1 * (0.5 - 2e-6)),
        ])
        first = reoptimized_without(prog, 1, stop=0.5 - 1e-6)
        assert first == pytest.approx(0.5 - 2e-6, abs=1e-12)
        assert reoptimized_without(prog, 1, stop=0.5 - 3e-6) == (
            pytest.approx(0.0, abs=1e-12))
        flags = count_refined_solves(monkeypatch)
        assert support_set(prog) == frozenset({1})
        # the stage solve alone
        assert flags == [True]

    def test_certified_labels_carry_no_objective(self):
        prog = analytic_program([0.3, 0.8, 0.1])
        stage = engine._solved_stage(prog, prog.labels)
        counts = engine.SolveCounts()
        support = engine._support_from_solution(prog, stage, counts)
        assert type(support) is frozenset and support == {2}
        assert counts.support_solves == 1


def _outcome(prog, ell=1):
    """A cascade's trace dict, or the name of the error it raised."""
    try:
        return run_cascade(prog, ell).to_dict()
    except engine.CascadeError as exc:
        return type(exc).__name__


def _relabel_trace(trace, new_label):
    if isinstance(trace, str):
        return trace
    out = json.loads(json.dumps(trace))
    for stage in out["stages"]:
        for key in ("support", "padding", "removed"):
            stage[key] = [new_label[lab] for lab in stage[key]]
    out["compression_candidate"] = [new_label[lab]
                                    for lab in out["compression_candidate"]]
    return out


def _assert_close_trace(a, b):
    """Equal traces, floats to 1e-9 relative (a scaled row moves last bits)."""
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert _discrete(a) == _discrete(b)
    assert _floats(a) == pytest.approx(_floats(b), rel=1e-9, abs=1e-12)


def _floats(trace):
    return ([v for s in trace["stages"] for v in s["minimizer"] + [s["objective"]]]
            + trace["final_x"] + [trace["final_objective"]])


def _discrete(trace):
    return (trace["mode"], trace["ell"], trace["compression_candidate"],
            trace["solve_counts"],
            [(s["k"], s["support"], s["padding"], s["removed"], s["degenerate"])
             for s in trace["stages"]])


small_resource = st.builds(
    lambda seed, m, n: random_resource(np.random.default_rng(seed), 2, n, m),
    st.integers(0, 2**32 - 1), st.integers(7, 12), st.integers(1, 2))


class TestInvariance:
    """support_set and the cascade trace on small resource d=2 programs do
    not depend on the scenarios' given order, on a positive scaling of one
    scenario's rows or on an order-preserving relabelling; each transformed
    support set is also checked against the definitional oracle, as is the
    support set after one scenario is duplicated."""

    @settings(max_examples=25, deadline=None)
    @given(prog=small_resource, seed=st.integers(0, 2**32 - 1))
    def test_scenario_order(self, prog, seed):
        order = np.random.default_rng(seed).permutation(prog.m)
        parts = blocks(prog)
        shuffled = program(prog.cost, prog.lower, prog.upper,
                           [parts[i] for i in order])
        sup = support_set(prog)
        assert support_set(shuffled) == sup
        assert sup == support_set_definitional(shuffled, shuffled.labels)
        assert _outcome(shuffled) == _outcome(prog)

    @settings(max_examples=25, deadline=None)
    @given(prog=small_resource, pick=st.integers(0, 11),
           factor=st.floats(0.01, 100.0))
    def test_scaling_one_scenario(self, prog, pick, factor):
        label = sorted(prog.labels)[pick % prog.m]
        scaled = program(prog.cost, prog.lower, prog.upper, [
            (lab, factor * a, factor * b) if lab == label else (lab, a, b)
            for lab, a, b in blocks(prog)
        ])
        sup = support_set(prog)
        assert support_set(scaled) == sup
        assert sup == support_set_definitional(scaled, scaled.labels)
        _assert_close_trace(_outcome(scaled), _outcome(prog))

    @settings(max_examples=25, deadline=None)
    @given(prog=small_resource,
           gaps=st.lists(st.integers(1, 1000), min_size=12, max_size=12))
    def test_order_preserving_relabelling(self, prog, gaps):
        new_label = dict(zip(sorted(prog.labels),
                             np.cumsum(gaps).tolist()))
        relabelled = program(prog.cost, prog.lower, prog.upper, [
            (new_label[lab], a, b) for lab, a, b in blocks(prog)
        ])
        sup = support_set(relabelled)
        assert sup == frozenset(new_label[lab] for lab in support_set(prog))
        assert sup == support_set_definitional(relabelled, relabelled.labels)
        assert _outcome(relabelled) == _relabel_trace(_outcome(prog), new_label)

    @settings(max_examples=25, deadline=None)
    @given(prog=small_resource, pick=st.integers(0, 11))
    def test_duplicated_scenario(self, prog, pick):
        # a copy of a support scenario puts more than d active rows through
        # the vertex, so the kernel's ratio tests tie; neither copy alone is
        # support any more
        before = support_set(prog)
        candidates = sorted(before or prog.labels)
        label = candidates[pick % len(candidates)]
        copy = max(prog.labels) + 1
        rows = prog.owners == label
        duplicated = program(prog.cost, prog.lower, prog.upper, blocks(prog) + [
            (copy, prog.coeffs[rows], prog.rhs[rows])
        ])
        np.testing.assert_allclose(solve(duplicated.assemble(duplicated.labels)[0]).x,
                                   solve(prog.assemble(prog.labels)[0]).x, rtol=0.0, atol=1e-12)
        sup = support_set(duplicated)
        assert sup == support_set_definitional(duplicated, duplicated.labels)
        assert sup == before - {label}


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
            lab for lab, a, b in blocks(prog)
            if lab in removed_all and np.all(a @ x <= b + 1e-9)
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
            parts = blocks(prog)
            shuffled = program(prog.cost, prog.lower, prog.upper,
                               [parts[i] for i in rng.permutation(prog.m)])
            trace2 = run_cascade(shuffled, 2, mode=mode)
            for a, b in zip(trace.stages, trace2.stages):
                np.testing.assert_allclose(a.minimizer, b.minimizer, atol=1e-7)
                assert a.removed == b.removed


def analytic_d1_draws(m, seed, near_ties):
    """m analytic draws; with near_ties about half move to within 2 X_TOL
    of another draw, a third of those onto it exactly."""
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(0.0, 1.0, m)
    if near_ties:
        shift = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(-2.0, 2.0, m))
        nudged = np.clip(deltas[rng.integers(0, m, m)] + shift * X_TOL, 0.0, 1.0)
        deltas = np.where(rng.random(m) < 0.5, nudged, deltas)
    return deltas


class TestAnalyticClosedForm:
    """Cascades on the d=1 analytic family against oracles.analytic_cascade,
    which sorts the draws and solves no LP.  With near_ties stage gaps fall
    on both sides of X_TOL, so that exclusion and padding happen."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 40), ell=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1), near_ties=st.booleans(),
           mode=st.sampled_from(RemovalMode))
    def test_cascade_matches_the_closed_form(self, m, ell, seed, near_ties,
                                             mode):
        ell = min(ell, m - 2)  # (ell + 1) * d < m
        deltas = analytic_d1_draws(m, seed, near_ties)
        expected = analytic_cascade(
            deltas, ell, fully_supported=mode is RemovalMode.FULLY_SUPPORTED)
        prog = analytic_program(deltas)
        if expected is None:
            with pytest.raises(AssumptionViolated):
                run_cascade(prog, ell, mode=mode, record_degeneracy=False)
            return
        trace = run_cascade(prog, ell, mode=mode, record_degeneracy=False)
        assert [(s.objective, s.minimizer[0]) for s in trace.stages] == [
            (x, x) for x, _ in expected]
        assert [s.removed for s in trace.stages] == [
            frozenset({label}) for _, label in expected]


def resource_d1_draws(m, n, seed, near_ties):
    """The (m, n) row coefficients of a d=1 resource program; with
    near_ties about half the scenarios get their largest coefficient moved
    so that the point 1/max it allows lies within 2 X_TOL of another
    scenario's, a third of those onto it exactly."""
    rng = np.random.default_rng(seed)
    coeffs = ResourceFamily(d=1, n=n, m=m).sample_blocks(m, rng)[0][:, :, 0]
    if near_ties:
        anchor = coeffs.max(axis=1)[rng.integers(0, m, m)]
        shift = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(-2.0, 2.0, m))
        moved = np.flatnonzero((rng.random(m) < 0.5) & (anchor > 0.0))
        point = 1.0 / anchor[moved] + shift[moved] * X_TOL
        coeffs[moved, coeffs[moved].argmax(axis=1)] = 1.0 / point
    return coeffs


def resource_d1_program(coeffs):
    """max x, x >= 0, with coeffs[i, k] x <= 1 for label i + 1."""
    m, n = coeffs.shape
    labels = np.arange(1, m + 1)
    return ScenarioProgram([-1.0], [0.0], [np.inf], labels, np.repeat(labels, n),
                           coeffs.reshape(m * n, 1), np.ones(m * n))


def assert_closed_form(run, expected, records):
    """run() against a d=1 oracle's (objective, removed label) list, read
    off its trace by records: None expects AssumptionViolated, and a list
    ending unbounded, (-inf, None), expects StageSolveError."""
    if expected is None:
        with pytest.raises(AssumptionViolated):
            run()
    elif expected and expected[-1][1] is None:
        with pytest.raises(engine.StageSolveError):
            run()
    else:
        assert records(run()) == expected


class TestResourceClosedForm:
    """Cascades on the d=1 resource family against oracles.resource_cascade,
    which sorts each scenario's largest coefficient and solves no LP.  The
    resource LP maximizes over a box unbounded above, so the lex-min
    certificate never passes and every stage runs the refine loop, where
    every analytic stage skips it: the two families judge both paths."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 40), n=st.integers(1, 3), ell=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1), near_ties=st.booleans(),
           mode=st.sampled_from(RemovalMode))
    def test_cascade_matches_the_closed_form(self, m, n, ell, seed,
                                             near_ties, mode):
        ell = min(ell, m - 2)  # (ell + 1) * d < m
        coeffs = resource_d1_draws(m, n, seed, near_ties)
        expected = resource_cascade(
            coeffs, ell, fully_supported=mode is RemovalMode.FULLY_SUPPORTED)
        prog = resource_d1_program(coeffs)
        assert_closed_form(
            lambda: run_cascade(prog, ell, mode=mode, record_degeneracy=False),
            expected,
            lambda trace: [(s.objective, *s.removed) for s in trace.stages])

    def test_no_positive_coefficient_left_is_unbounded(self):
        # stage 1 keeps labels 2 and 3, whose rows bound nothing
        coeffs = np.array([[0.3], [-0.2], [-0.1]])
        prog = resource_d1_program(coeffs)
        expected = resource_cascade(coeffs, 1, fully_supported=True)
        assert expected == [(-1.0 / 0.3, 1), (-np.inf, None)]
        assert_closed_form(lambda: run_cascade(prog, 1), expected, None)
        expected = d1_greedy(coeffs, "resource", 1)
        assert expected == [(-np.inf, None)]
        assert_closed_form(lambda: greedy_removal(prog, 1), expected, None)


class TestGreedyClosedForm:
    """Greedy removal on both d=1 families against oracles.d1_greedy."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["analytic", "resource"]),
           m=st.integers(3, 40), r=st.integers(0, 8),
           seed=st.integers(0, 2**32 - 1), near_ties=st.booleans())
    def test_greedy_matches_the_closed_form(self, family, m, r, seed,
                                            near_ties):
        r = min(r, m - 2)  # r < m - d
        if family == "analytic":
            keys = analytic_d1_draws(m, seed, near_ties)
            prog, cascade = analytic_program(keys), analytic_cascade
        else:
            keys = resource_d1_draws(m, 2, seed, near_ties)
            prog, cascade = resource_d1_program(keys), resource_cascade
        expected = d1_greedy(keys, family, r)
        assert_closed_form(
            lambda: greedy_removal(prog, r), expected,
            lambda trace: [(s.objective, s.removed_label) for s in trace.steps])
        # while every gap exceeds X_TOL greedy removes the cascade's labels
        batches = cascade(keys, r - 1, fully_supported=True) if r else []
        if batches is not None and None not in [lab for _, lab in expected]:
            assert [lab for _, lab in expected] == [lab for _, lab in batches]


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


# one support row per stage, and two tied maxima (no simple vertex)
DISTINCT = analytic_program([0.31, 0.95, 0.42, 0.88, 0.10])
TIED = analytic_program([0.2, 0.9, 0.4, 0.9, 0.1])


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
        full = solve(prog.assemble(prog.labels)[0])
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

    def test_tied_candidates_go_to_the_smallest_label(self):
        # max x1 + x2 over x >= 0: at step 1 removing scenario 1 (x1 <= 1)
        # or scenario 2 (x2 <= 1) both reach exactly -3; label 1 wins.  At
        # step 2 removing 3 (x1 <= 2) reaches -10 through x1 + x2 <= 10.
        rows = [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([1.0, 0.0], 2.0),
                ([0.0, 1.0], 2.0), ([1.0, 1.0], 10.0)]
        prog = program([-1.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                       [(i + 1, a, b) for i, (a, b) in enumerate(rows)])
        trace = greedy_removal(prog, 2)
        assert [s.removed_label for s in trace.steps] == [1, 3]
        assert [s.objective for s in trace.steps] == [-3.0, -10.0]

    @pytest.mark.parametrize("where, run", [
        ("stage 0", lambda prog: run_cascade(prog, 1)),
        ("greedy step 1", lambda prog: greedy_removal(prog, 1)),
    ])
    def test_support_resolve_errors_name_the_stage_or_step(
            self, monkeypatch, where, run):
        # duplicated maxima leave two active rows at d = 1, so support
        # detection re-solves each candidate unrefined
        prog = analytic_program([0.2, 0.9, 0.4, 0.9, 0.1])
        real_solve = engine.solve

        def infeasible_unrefined(lp, refine=True):
            if refine:
                return real_solve(lp)
            return engine.LpSolution(status=engine.LpStatus.INFEASIBLE,
                                     x=None, objective=np.nan)

        monkeypatch.setattr(engine, "solve", infeasible_unrefined)
        with pytest.raises(engine.StageSolveError) as err:
            run(prog)
        assert str(err.value) == (f"{where}: the program without label 2 "
                                  "returned status infeasible (4 rows)")

    @pytest.mark.parametrize("where, run, refined, nth", [
        ("stage program", lambda: support_set(DISTINCT), True, 1),
        ("stage program: the support-only program",
         lambda: is_nondegenerate(DISTINCT), True, 2),
        ("stage 1", lambda: run_cascade(DISTINCT, 1), True, 3),
        ("greedy step 1: stage program",
         lambda: greedy_removal(DISTINCT, 1), True, 2),
        ("the program without label 4", lambda: support_set(TIED), False, 2),
        ("stage 0: the program without label 2",
         lambda: run_cascade(TIED, 1), False, 1),
        ("greedy step 1: the program without label 4",
         lambda: greedy_removal(TIED, 1), True, 3),
        # the first two unrefined solves are support detection's
        ("greedy step 1: the program without label 1",
         lambda: greedy_removal(TIED, 1), False, 3),
    ])
    def test_stalls_name_their_lp(self, monkeypatch, where, run, refined, nth):
        # the nth engine solve with refine == refined stalls
        real_solve = engine.solve
        seen = []

        def stall(lp, refine=True):
            seen.append(refine)
            if refine is refined and seen.count(refine) == nth:
                raise SimplexStallError("refinement face lost feasibility")
            return real_solve(lp, refine=refine)

        monkeypatch.setattr(engine, "solve", stall)
        with pytest.raises(SimplexStallError) as err:
            run()
        assert str(err.value) == f"{where}: refinement face lost feasibility"


class TestGreedyMatchesTwoSolveLoop:
    def assert_same(self, prog, r):
        trace = greedy_removal(prog, r)
        removed, objectives, final_x, counts = greedy_two_solve(prog, r)
        assert [s.removed_label for s in trace.steps] == removed
        assert [s.objective for s in trace.steps] == objectives
        np.testing.assert_array_equal(trace.final_x, final_x)
        assert trace.counts.to_dict() == counts

    def test_analytic(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            self.assert_same(random_analytic(rng, 20), 6)

    def test_analytic_with_duplicated_maxima(self):
        # empty support: every available label is a candidate
        self.assert_same(analytic_program([0.2, 0.9, 0.4, 0.9, 0.7, 0.1]), 3)

    def test_resource_d2(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            self.assert_same(random_resource(rng, 2, 2, 40), 6)

    def test_resource_d10(self):
        # candidates reoptimized from a d = 10 stage vertex rank as the
        # oracle's cold re-solves do
        rng = np.random.default_rng(97)
        self.assert_same(random_resource(rng, 10, 2, 300), 5)

    def test_candidate_optimum_past_a_flat_row(self):
        # without scenario 1 the edge down x1 crosses scenario 2's row,
        # whose slope along it (5e-10) is below PIVOT_TOL; the vertex it
        # reaches at x1 = 0 costs 3.0 but violates that row by 5e-7, so the
        # cold solve prices the candidate at its true 3.1 and scenario 3's
        # 3.05 wins
        prog = program([0.1, 1.0], [0.0, 0.0], [10.0, 10.0], [
            (1, [-1000.0, 0.0], -5000.0),
            (2, [-5e-7, 0.0], -5e-7),
            (3, [0.0, -1.0], -3.0),
            (4, [0.0, -1.0], -2.55),
        ])
        assert reoptimized_without(prog, 1) is None
        trace = greedy_removal(prog, 1)
        assert [s.removed_label for s in trace.steps] == [3]
        assert trace.steps[0].objective == pytest.approx(3.05)
        self.assert_same(prog, 1)


def sparse_resource(rng, d, n, m, density):
    """A resource program whose coefficients are zero outside a random
    pattern, so that dropping one scenario can leave a direction unbounded."""
    return program(
        -np.ones(d), np.zeros(d), np.full(d, np.inf),
        [(i + 1, 0.04 * rng.laplace(1.0, np.sqrt(1.5), size=(n, d))
          * (rng.random((n, d)) < density), np.ones(n))
         for i in range(m)],
    )


def free_and_one_sided(prog):
    """prog with x1 free and x2 reflected (x2 -> -x2), so that x2 is bounded
    above only and every other coordinate below only: the dual form splits
    x1 and holds one bound column per coordinate but x1."""
    flip = np.ones(prog.d)
    flip[1] = -1.0
    lower, upper = np.zeros(prog.d), np.full(prog.d, np.inf)
    lower[:2], upper[1] = -np.inf, 0.0
    return ScenarioProgram(prog.cost * flip, lower, upper, sorted(prog.labels),
                           prog.owners, prog.coeffs * flip, prog.rhs)


class TestReoptimize:
    @pytest.mark.parametrize("d, m, sparse_m, density, move", [
        (2, 40, 10, 0.3, None), (5, 60, 15, 0.2, None),
        (10, 150, 40, 0.1, None), (3, 40, 10, 0.3, free_and_one_sided),
    ], ids=["2-40-10-0.3", "5-60-15-0.2", "10-150-40-0.1",
            "free-and-one-sided"])
    def test_matches_unrefined_resolve(self, d, m, sparse_m, density, move):
        # every support candidate of each stage vertex: the objective
        # reached by pivoting past the candidate's rows is the unrefined
        # re-solve's, and an unbounded edge means an unbounded re-solve.
        # A run stopped at stop = stage cost - margin ends below stop
        # exactly when the full run does.
        rng = np.random.default_rng(101 + d)
        programs = [random_resource(rng, d, 2, m) for _ in range(5)]
        programs += [sparse_resource(rng, d, 2, sparse_m, density)
                     for _ in range(40)]
        if move is not None:
            programs = [move(prog) for prog in programs]
        verdicts = Counter()
        for prog in programs:
            try:
                stage = engine._solved_stage(prog, prog.labels)
            except engine.StageSolveError:
                continue  # a sparse stage may itself be unbounded
            assert stage.inv is not None
            stop = stage.sol.objective - (
                2.0 * np.abs(prog.cost).sum() * X_TOL + FEAS_TOL)
            # the program's rows are the first columns of stage.E
            rows = stage.active[stage.active < stage.owners.size]
            for lab in sorted(set(stage.owners[rows].tolist())):
                obj = stage.cost_without(lab)
                stopped = stage.cost_without(lab, stop)
                assert (stopped < stop) == (obj < stop)
                verdicts["stopped"] += stopped < stop
                cold = solve(prog.assemble(prog.labels - {lab})[0],
                             refine=False)
                if obj == -np.inf:
                    assert cold.status is LpStatus.UNBOUNDED
                    verdicts["unbounded"] += 1
                else:
                    assert cold.is_optimal
                    assert abs(obj - cold.objective) <= (
                        1e-12 * max(1.0, abs(cold.objective)))
                    # a stopped vertex is feasible without the label
                    assert stopped >= cold.objective - (
                        1e-12 * max(1.0, abs(cold.objective)))
                    verdicts["optimal"] += 1
        assert verdicts["unbounded"] >= 1 and verdicts["optimal"] >= 50
        assert verdicts["stopped"] >= 50

    def test_undecided_when_a_dropped_row_leaves_a_cost_neutral_line(self):
        # x2 is free and costs nothing: once x1 <= 1 has left the basis,
        # -x2 <= 0 cannot leave toward any row, so the cold solve decides
        prog = program([-1.0, 0.0], [0.0, -np.inf], [np.inf, np.inf], [
            (1, [1.0, 0.0], 1.5),
            (2, [[1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
        ])
        assert reoptimized_without(prog, 2) is None

    def test_stopped_vertex_past_a_flat_row_is_undecided(self):
        # without scenario 1 (x >= 5, scaled by 1000) the edge runs down to
        # x = 0.  Scenario 2's row (x >= 1, scaled by 5e-7) has slope 5e-10
        # along it, below PIVOT_TOL, so the ratio test lets the edge cross
        # it; both the full and the stopped run find the row violated at
        # x = 0 by 5e-7 > FEAS_TOL and return None
        prog = program([1.0], [0.0], [10.0],
                       [(1, [-1000.0], -5000.0), (2, [-5e-7], -5e-7)])
        assert reoptimized_without(prog, 1) is None
        assert reoptimized_without(prog, 1, stop=4.0) is None
        # support detection falls back to the re-solve, whose optimum is 1
        assert support_set(prog) == frozenset({1})
        assert solve(prog.assemble({2})[0]).objective == pytest.approx(1.0)

    def test_vertex_past_a_satisfied_flat_row_is_kept(self):
        # the same edge crosses a row of slope 5e-10 whose rhs is 0, so the
        # vertex at x = 0 satisfies it and the check keeps its cost
        prog = program([1.0], [0.0], [10.0],
                       [(1, [-1000.0], -5000.0), (2, [-5e-7], 0.0)])
        assert reoptimized_without(prog, 1) == 0.0
        assert reoptimized_without(prog, 1, stop=4.0) == 0.0
        assert solve(prog.assemble({2})[0]).objective == pytest.approx(0.0)


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
        for (_, got, _), (_, want, _) in zip(blocks(clone), blocks(prog)):
            np.testing.assert_array_equal(got, want)

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

    def test_largest_int64_label_round_trips(self):
        # the rows of label 2**63 - 1 are found without forming label + 1
        top = 2**63 - 1
        prog = program([1.0], [0.0], [1.0],
                       [(top, [-1.0], -0.4), (5, [[-1.0], [-2.0]], [-0.1, -0.3])])
        assert prog.to_dict()["scenarios"][0] == {
            "label": top, "rows": [{"a": [-1.0], "b": -0.4}]}
        clone = ScenarioProgram.from_json(prog.to_json())
        scenarios = clone.to_dict()["scenarios"]
        assert [s["label"] for s in scenarios] == [top, 5]
        assert clone.to_dict() == prog.to_dict()
        assert [row["b"] for row in scenarios[1]["rows"]] == [-0.1, -0.3]

    def test_malformed_dict_rejected(self):
        with pytest.raises(LpInputError):
            ScenarioProgram.from_dict({"d": 1, "cost": [1.0]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LpInputError, match="must be distinct"):
            ScenarioProgram.from_dict(program_dict([
                {"label": 1, "rows": [{"a": [-1.0], "b": -0.1}]},
                {"label": 1, "rows": [{"a": [-1.0], "b": -0.2}]},
            ]))


def program_dict(scenarios, d=1, **fields):
    return {"d": d, "cost": [1.0] * d, "bounds": [[0.0, 1.0]] * d,
            "scenarios": scenarios, **fields}


ONE_ROW = [{"label": 1, "rows": [{"a": [-1.0], "b": -0.1}]}]


@pytest.mark.parametrize("data, message", [
    (program_dict([{"label": 1.7, "rows": [{"a": [-1.0], "b": -0.1}]}]),
     "not an integer"),
    (program_dict([{"label": 1.2, "rows": [{"a": [-1.0], "b": -0.1}]},
                   {"label": 1.7, "rows": [{"a": [-1.0], "b": -0.2}]}]),
     "not an integer"),
    (program_dict([{"label": -3, "rows": [{"a": [-1.0], "b": -0.1}]}]),
     "not positive"),
    (program_dict([{"label": 2**70, "rows": [{"a": [-1.0], "b": -0.1}]}]),
     "scenario label 1180591620717411303424 exceeds 2\\*\\*63 - 1"),
    (program_dict([{"label": -2**70, "rows": [{"a": [-1.0], "b": -0.1}]}]),
     "scenario label -1180591620717411303424 is not positive"),
    (program_dict([{"label": 1, "rows": []}]), "must be non-empty"),
    (program_dict([{"label": 1, "rows": [{"a": [-1.0, 0.5], "b": -0.1},
                                         {"a": [-1.0, 0.5, 2.0], "b": -0.2}]}],
                  d=2),
     "has 3 coefficients, expected 2"),
    (program_dict([{"label": 1, "rows": [{"a": ["x"], "b": -0.1}]}]),
     "malformed"),
    # JSON numbers only: no strings, booleans or out-of-range integers
    (program_dict([{"label": 1, "rows": [{"a": [-1.0], "b": "-0.5"}]}]),
     "'-0.5' is not a number"),
    (program_dict([{"label": 1, "rows": [{"a": [True], "b": -0.5}]}]),
     "True is not a number"),
    (program_dict(ONE_ROW, cost=["1"]), "'1' is not a number"),
    (program_dict(ONE_ROW, bounds=[["-inf", "inf"]]),
     "'-inf' is not a number"),
    (program_dict([{"label": 1, "rows": [{"a": [-1.0], "b": 10**400}]}]),
     "too large to convert to float"),
])
def test_bad_scenario_input_rejected(data, message):
    with pytest.raises(LpInputError, match=message):
        ScenarioProgram.from_dict(data)


@pytest.mark.parametrize("d", [1.9, 1.0, True, "1"])
def test_non_integer_d_rejected(d):
    data = program_dict([{"label": 1, "rows": [{"a": [-1.0], "b": -0.1}]}])
    data["d"] = d
    with pytest.raises(LpInputError, match="not an integer"):
        ScenarioProgram.from_dict(data)


def mixed_scenarios(rng, d, labels):
    """Blocks of one to three rows each, in the given label order."""
    return [
        (lab, rng.normal(size=(h, d)), rng.normal(size=h))
        for lab, h in zip(labels, rng.integers(1, 4, len(labels)).tolist())
    ]


class TestRowLayout:
    def random_case(self, rng):
        d = int(rng.integers(1, 4))
        labels = rng.choice(np.arange(1, 100), size=int(rng.integers(1, 12)),
                            replace=False).tolist()  # unsorted
        scenarios = mixed_scenarios(rng, d, labels)
        prog = program(np.ones(d), -np.ones(d), np.ones(d), scenarios)
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
            written = prog.to_dict()["scenarios"]
            assert [s["label"] for s in written] == labels
            for (_, coeffs, rhs), derived in zip(scenarios, written):
                assert [row["a"] for row in derived["rows"]] == coeffs.tolist()
                assert [row["b"] for row in derived["rows"]] == rhs.tolist()
            assert not prog.coeffs.flags.writeable

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
            ref = program(prog.cost, prog.lower, prog.upper,
                          [s for s in scenarios if s[0] in keep])
            assert np.array_equal(sub.coeffs, ref.coeffs)
            assert np.array_equal(sub.rhs, ref.rhs)
            assert np.array_equal(sub.owners, ref.owners)
            assert sub.to_json() == ref.to_json()

    def test_restrict_rejects_unknown_labels(self):
        rng = np.random.default_rng(107)
        _, labels, _, prog = self.random_case(rng)
        with pytest.raises(LpInputError, match=r"unknown scenario labels: \[99\]"):
            prog.restrict({labels[0], 99})

    def test_assembled_rows_are_read_only_views_of_one_validation(self):
        rng = np.random.default_rng(103)
        _, labels, _, prog = self.random_case(rng)
        lp, _ = prog.assemble(set(labels[:1]))
        assert lp.cost is prog.cost and lp.lower is prog.lower
        assert not lp.row_coeffs.flags.writeable
        assert not lp.row_rhs.flags.writeable

    def test_bad_rows_rejected_when_the_program_is_built(self):
        for coeffs, rhs, message in [
            ([[np.nan]], [1.0], "NaN or Inf"),
            ([[1.0]], [np.inf], "NaN or Inf"),
            ([[1.0, 2.0]], [1.0], "shape"),
            ([[1.0], [2.0]], [1.0, 2.0], "2 scenario rows do not match 1"),
        ]:
            with pytest.raises(LpInputError, match=message):
                ScenarioProgram([1.0], [0.0], [1.0], [1], [1], coeffs, rhs)


@pytest.mark.parametrize("labels, message", [
    (np.array([1.0, 2.0]), "label np.float64\\(1.0\\) is not an integer"),
    (np.array([True, False]), "label np.True_ is not an integer"),
    (np.array([[1, 2]]), "is not an integer"),
    ([1, 2.5], "label 2.5 is not an integer"),
    (np.array([2, 0]), "label 0 is not positive"),
    (np.array([3, 3]), "must be distinct"),
    (np.array([2**63, 1], dtype=np.uint64),
     "label 9223372036854775808 exceeds 2\\*\\*63 - 1"),
])
def test_label_arrays_checked(labels, message):
    with pytest.raises(LpInputError, match=message):
        ScenarioProgram([1.0], [0.0], [1.0], labels, [1, 1],
                        [[-1.0], [-1.0]], [-0.1, -0.2])


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint32])
def test_integer_label_arrays_accepted_whole(dtype):
    prog = ScenarioProgram([1.0], [0.0], [1.0], np.array([3, 1], dtype=dtype),
                           [1, 3], [[-1.0], [-1.0]], [-0.1, -0.2])
    assert [s["label"] for s in prog.to_dict()["scenarios"]] == [3, 1]


def test_label_checks_import_no_numpy_ma():
    # np.unique's first call in a process imports numpy.ma, about 18 ms
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, numpy as np\n"
             "from scenopt.engine import run_cascade\n"
             "from scenopt.experiments import gen_resource\n"
             "run_cascade(gen_resource(3, 2, 40, np.random.default_rng(0)), 2)\n"
             "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_built_program_is_never_validated_again(monkeypatch):
    """Stage, support, candidate and degeneracy solves select rows of the
    program's validated LinearProgram; none constructs (and so re-checks)
    another one."""
    rng = np.random.default_rng(107)
    programs = [random_resource(rng, 3, 2, 40), random_analytic(rng, 20),
                floor_line_program({lab: (a, -abs(a)) for lab, a in
                                    enumerate([1.0, -1.0, 0.5, -2.0, 0.0, 3.0],
                                              start=1)})]
    calls = []
    original = LinearProgram.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(LinearProgram, "__post_init__", counting)
    for prog in programs:
        run_cascade(prog, 1, mode=RemovalMode.REGULARIZED)
        greedy_removal(prog, 2)
    assert calls == []
    analytic_program([0.3, 0.6])
    assert len(calls) == 1


def test_lp_solves_carry_their_role_tag():
    """perfbench tags each LP by the engine function that calls solve, from
    its table _ROLE_BY_CALLER, and reads refine only as a keyword: every
    solve call must sit directly in a function that table names and pass
    the LP alone by position."""
    root = Path(__file__).resolve().parents[1]
    tracer = ast.parse((root / "perfbench" / "tracer.py").read_text())
    roles = next(
        ast.literal_eval(node.value) for node in ast.walk(tracer)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_ROLE_BY_CALLER"
                for t in node.targets)
    )
    tree = ast.parse(Path(engine.__file__).read_text())
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
              ast.SetComp, ast.DictComp, ast.GeneratorExp)
    callers = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id == "solve"):
            continue
        call = parents[node]
        # solve is only ever called, never passed around or rebound
        assert isinstance(call, ast.Call) and call.func is node, node.lineno
        assert len(call.args) == 1, f"line {call.lineno}: refine by position"
        assert {k.arg for k in call.keywords} <= {"refine"}, call.lineno
        scope = parents[call]
        while not isinstance(scope, scopes):
            scope = parents[scope]
        assert isinstance(scope, ast.FunctionDef), call.lineno
        assert scope.name in roles, f"line {call.lineno}: {scope.name}"
        callers.append(scope.name)
    assert sorted(set(callers)) == ["_solved_stage", "_support_from_solution",
                                    "greedy_removal", "is_nondegenerate",
                                    "run_cascade"]
