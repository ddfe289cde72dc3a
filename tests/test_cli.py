import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenopt
from scenopt import engine, experiments
from scenopt.cli import (
    EXIT_ASSUMPTION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    OUTDIR_ENV,
    _parse_grid,
    build_parser,
    main,
)
from scenopt.lp import (
    ACTIVE_TOL,
    FEAS_TOL,
    PIVOT_TOL,
    X_TOL,
    SimplexStallError,
)

from programs import program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    return json.loads(out)


class TestBoundCommand:
    def test_max_r_sizing(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--formula", "cascade", "--m", "2000",
            "--d", "10", "--eps", "0.03", "--beta", "1e-6", "--max-r",
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert payload["max_removable"] == 17
        assert payload["max_removable_batched"] == 10

    def test_eps_zero_gives_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--formula", "cascade", "--m", "100",
            "--d", "2", "--r", "0", "--eps", "0",
        )
        assert code == EXIT_OK
        assert parse_json(out)["value"] == 1.0

    def test_classical_dominates_cascade(self, capsys):
        args = ["--m", "300", "--d", "4", "--r", "8", "--eps", "0.1"]
        _, out1, _ = run_cli(capsys, "bound", "--formula", "classical", *args)
        _, out2, _ = run_cli(capsys, "bound", "--formula", "cascade", *args)
        assert parse_json(out1)["raw"] >= parse_json(out2)["value"]

    def test_inversion(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--formula", "cascade", "--m", "200",
            "--d", "2", "--r", "4", "--invert", "0.2",
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert 0.0 < payload["epsilon_star"] < 1.0
        assert not payload["at_lower_boundary"]

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--formula", "cascade", "--m", "10",
            "--d", "10", "--r", "5", "--eps", "0.1",
        )
        assert code == EXIT_INPUT
        assert "error" in err

    @pytest.mark.parametrize("query", [
        ["--invert", "nan"],
        ["--eps", "0.1", "--beta", "nan", "--max-r"],
    ])
    def test_nan_beta_exits_2(self, capsys, query):
        code, out, err = run_cli(
            capsys, "bound", "--formula", "cascade", "--m", "10", "--d", "2",
            *query,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "beta must be positive" in err

    @pytest.mark.parametrize("query", [
        ["--r", "1", "--eps", "0.5"],
        ["--eps", "0.5", "--beta", "1e-6", "--max-r"],
        ["--r", "1", "--invert", "1e-6"],
    ])
    def test_m_beyond_double_precision_exits_2(self, capsys, query):
        code, out, err = run_cli(
            capsys, "bound", "--formula", "cascade",
            "--m", "400000000000000000000", "--d", "1", *query,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "m must be at most 2**53" in err

    @pytest.mark.parametrize("query", [
        ["--r", "500000000000000", "--eps", "0.5"],
        ["--eps", "0.5", "--beta", "1e-6", "--max-r"],
        ["--r", "500000000000000", "--invert", "1e-6"],
    ])
    def test_window_beyond_term_cap_exits_2(self, capsys, query):
        code, out, err = run_cli(
            capsys, "bound", "--formula", "cascade",
            "--m", "1000000000000000", "--d", "1", *query,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "cap of 2**22 terms" in err

    def test_analytic_is_one_dimensional(self, capsys):
        args = ["bound", "--formula", "analytic", "--m", "10", "--r", "2"]
        code, out, err = run_cli(capsys, *args, "--d", "3", "--invert", "0.1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "1-D" in err
        # at d = 1 the inversion solves the analytic tail it evaluates
        code, out, _ = run_cli(capsys, *args, "--invert", "0.1")
        assert code == EXIT_OK
        eps_star = parse_json(out)["epsilon_star"]
        assert eps_star == pytest.approx(0.4496, abs=1e-4)
        _, out, _ = run_cli(capsys, *args, "--eps", str(eps_star))
        assert parse_json(out)["value"] == pytest.approx(0.1, abs=1e-8)


def test_one_parser_serves_every_call(capsys, tmp_path):
    bound = ["bound", "--formula", "cascade", "--m", "2000", "--d", "10",
             "--eps", "0.03", "--beta", "1e-6", "--max-r"]
    code, first, _ = run_cli(capsys, *bound)
    assert code == EXIT_OK
    assert parse_json(first)["max_removable"] == 17
    code, out, _ = run_cli(
        capsys, "cascade", "--generator", "analytic", "--m", "10",
        "--ell", "3", "--seed", "5", "--out", str(tmp_path),
    )
    assert code == EXIT_OK and parse_json(out)["stages"] == 4
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--formula", "bogus", "--m", "10"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid choice" in capsys.readouterr().err
    code, again, _ = run_cli(capsys, *bound)
    assert code == EXIT_OK and again == first
    assert build_parser() is build_parser()


class TestCascadeCommand:
    def test_analytic_run_with_verification(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "cascade", "--generator", "analytic", "--m", "10",
            "--ell", "3", "--seed", "5", "--mode", "fully-supported",
            "--verify-compression", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert payload["stages"] == 4
        assert payload["removed_total"] == 3
        assert payload["compression_verified"] is True
        trace = json.loads((tmp_path / "cascade_trace.json").read_text())
        assert len(trace["stages"]) == 4
        assert (tmp_path / "cascade_stages.csv").exists()

    def test_program_file_input(self, capsys, tmp_path):
        prog = program([1.0], [0.0], [1.0], [
            (i + 1, [-1.0], -v) for i, v in enumerate([0.2, 0.8, 0.5, 0.1])
        ])
        path = tmp_path / "prog.json"
        path.write_text(prog.to_json())
        code, out, _ = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert parse_json(out)["final_objective"] == pytest.approx(0.5)

    def test_label_beyond_int64_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "d": 1, "cost": [1.0], "bounds": [[0.0, 1.0]],
            "scenarios": [
                {"label": 1180591620717411303424,
                 "rows": [{"a": [-1.0], "b": -0.3}]},
                {"label": 2, "rows": [{"a": [-1.0], "b": -0.6}]},
            ],
        }))
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "0",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err == ("error: scenario label 1180591620717411303424 "
                       "exceeds 2**63 - 1\n")

    def test_number_written_as_a_string_exits_2(self, capsys, tmp_path):
        path = tmp_path / "string.json"
        path.write_text(json.dumps({
            "d": 1, "cost": [1.0], "bounds": [[0.0, 1.0]],
            "scenarios": [{"label": 1, "rows": [{"a": [-1.0], "b": "-0.5"}]}],
        }))
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "0",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err == ("error: malformed scenario program: "
                       "'-0.5' is not a number\n")

    @pytest.mark.parametrize("bounds, value", [
        pytest.param([[float("inf"), None]], "inf", id="lower-Infinity"),
        pytest.param([[None, float("-inf")]], "-inf", id="upper--Infinity"),
        pytest.param([[0.0, float("nan")]], "nan", id="upper-NaN")])
    def test_non_finite_number_exits_2(self, capsys, tmp_path, bounds, value):
        # json reads Infinity and NaN, but only null means an unbounded side
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps({
            "d": 1, "cost": [1.0], "bounds": bounds,
            "scenarios": [{"label": 1, "rows": [{"a": [-1.0], "b": -0.5}]}],
        }))
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "0",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err == ("error: malformed scenario program: "
                       f"{value} is not a finite number\n")

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(bad), "--ell", "1",
        )
        assert code == EXIT_INPUT
        assert "error" in err

    def test_assumption_violation_exits_3(self, capsys, tmp_path):
        # duplicated maxima empty the support set in fully-supported mode
        prog = program([1.0], [0.0], [1.0], [
            (i + 1, [-1.0], -v) for i, v in enumerate([0.9, 0.9, 0.3, 0.2, 0.1])
        ])
        path = tmp_path / "dup.json"
        path.write_text(prog.to_json())
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "1",
            "--mode", "fully-supported",
        )
        assert code == EXIT_ASSUMPTION
        assert "stage 0" in err

    def test_infeasible_stage_exits_4(self, capsys, tmp_path):
        # x >= 0.5 and x <= 0.2 cannot both hold on [0, 1]
        rows = [([-1.0], -0.5), ([1.0], 0.2), ([-1.0], -0.1)]
        prog = program([1.0], [0.0], [1.0],
                       [(i + 1, a, b) for i, (a, b) in enumerate(rows)])
        path = tmp_path / "infeasible.json"
        path.write_text(prog.to_json())
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        assert err == "error: stage 0 returned status infeasible (3 rows)\n"

    def test_simplex_stall_exits_4(self, capsys, tmp_path, monkeypatch):
        def stall(*args, **kwargs):
            raise SimplexStallError("no convergence within 200000 pivots")

        monkeypatch.setattr(engine, "solve", stall)
        code, _, err = run_cli(
            capsys, "cascade", "--generator", "analytic", "--m", "10",
            "--ell", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        # the stall names the LP it came from
        assert err == "error: stage 0: no convergence within 200000 pivots\n"

    @pytest.mark.parametrize("k", [0, 1])
    def test_support_only_stall_names_the_stage(self, capsys, tmp_path,
                                                monkeypatch, k):
        # at d = 1 the support-only program is the one LP with a single row
        real_solve = engine.solve
        support_only = []

        def stall(lp, refine=True):
            if lp.n_rows == 1:
                support_only.append(lp)
                if len(support_only) == k + 1:
                    raise SimplexStallError("no convergence within 200000 pivots")
            return real_solve(lp, refine=refine)

        monkeypatch.setattr(engine, "solve", stall)
        code, _, err = run_cli(
            capsys, "cascade", "--generator", "analytic", "--m", "10",
            "--ell", "1", "--mode", "fully-supported", "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        assert err == (f"error: stage {k}: the support-only program: "
                       "no convergence within 200000 pivots\n")

    def test_singular_basis_exits_4(self, capsys, tmp_path, monkeypatch):
        # np.linalg.LinAlgError is a ValueError, which alone would exit 2
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        code, _, err = run_cli(
            capsys, "cascade", "--generator", "analytic", "--m", "10",
            "--ell", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        assert err == ("error: stage 0: simplex phase 2 (rows=1, columns=12): "
                       "singular basis after 0 pivots\n")

    @pytest.mark.parametrize("argv", [
        ["cascade", "--generator", "analytic", "--m", "10", "--ell", "1"],
        ["greedy", "--generator", "analytic", "--m", "10", "--r", "1"],
        ["experiment", "analytic-tightness", "--m", "20", "--ell", "1",
         "--eps", "0.3", "--trials", "4"],
    ], ids=lambda a: a[0])
    def test_tolerance_flags_are_not_options(self, capsys, tmp_path, argv):
        # the tolerances are constants of scenopt.lp, not user settings
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol-feas", "1e-7", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments: --tol-feas" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_inconsistent_sizing_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "cascade", "--generator", "analytic", "--m", "6",
            "--ell", "7", "--seed", "0",
        )
        assert code == EXIT_INPUT


class TestGreedyCommand:
    def test_greedy_run(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "greedy", "--generator", "resource", "--m", "30",
            "--d", "2", "--n", "2", "--r", "3", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert payload["removed_total"] == 3
        steps = (tmp_path / "greedy_steps.csv").read_text().splitlines()
        assert steps[0] == "step,removed_label,objective"
        assert len(steps) == 4

    def test_too_many_removals_exits_2(self, capsys, tmp_path):
        # r >= m - d is a sizing error in the input, like the cascade's
        code, _, err = run_cli(
            capsys, "greedy", "--generator", "resource", "--m", "10",
            "--d", "2", "--n", "2", "--r", "8", "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert "r < m - d" in err

    def test_unbounded_candidate_names_step_and_label_and_exits_4(
            self, capsys, tmp_path):
        # max x1 + x2 over x >= 0: without scenario 1's x1 <= 1 the
        # candidate LP of step 1 is unbounded
        rows = [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([0.0, 1.0], 2.0),
                ([0.0, 1.0], 3.0)]
        prog = program([-1.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                       [(i + 1, a, b) for i, (a, b) in enumerate(rows)])
        path = tmp_path / "unbounded_candidate.json"
        path.write_text(prog.to_json())
        code, _, err = run_cli(
            capsys, "greedy", "--input", str(path), "--r", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        assert err == ("error: greedy step 1: the program without label 1 "
                       "returned status unbounded (3 rows)\n")

    def test_unbounded_stage_names_greedy_step_and_exits_4(
            self, capsys, tmp_path):
        # max x1 with x2 free: greedy removes scenario 2, whose rows are
        # x1 <= 1 and x2 >= 0, and the refined stage of step 1 then has
        # no lexicographic minimum in x2
        scenarios = [([[1.0, 0.0]], [1.5]),
                     ([[1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
                     ([[1.0, 0.0]], [3.0]), ([[1.0, 0.0]], [4.0])]
        prog = program([-1.0, 0.0], [0.0, -np.inf], [np.inf, np.inf],
                       [(i + 1, a, b) for i, (a, b) in enumerate(scenarios)])
        path = tmp_path / "unbounded_stage.json"
        path.write_text(prog.to_json())
        code, _, err = run_cli(
            capsys, "greedy", "--input", str(path), "--r", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        assert err == ("error: greedy step 1: stage program returned status "
                       "unbounded (3 rows)\n")


    def test_stall_names_its_lp_and_exits_4(self, capsys, tmp_path,
                                             monkeypatch):
        # the second refined solve is the stage program of greedy step 1
        real_solve = engine.solve
        refined = []

        def stall_second_refined(lp, refine=True):
            refined.extend([None] * refine)
            if len(refined) == 2 and refine:
                raise SimplexStallError("refinement face lost feasibility")
            return real_solve(lp, refine=refine)

        monkeypatch.setattr(engine, "solve", stall_second_refined)
        code, _, err = run_cli(
            capsys, "greedy", "--generator", "analytic", "--m", "10",
            "--r", "2", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_SOLVER
        assert err == ("error: greedy step 1: stage program: refinement face "
                       "lost feasibility\n")


class TestExperimentCommand:
    def test_analytic_tightness_artifacts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "experiment", "analytic-tightness", "--m", "30",
            "--ell", "2", "--eps", "0.2", "--trials", "50", "--seed", "3",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert set(payload) >= {"estimate", "analytic_value", "tight"}
        meta = json.loads(
            (tmp_path / "analytic_tightness_metadata.json").read_text()
        )
        assert meta["config"]["seed"] == 3
        assert meta["config"]["trials"] == 50
        trials = (tmp_path / "analytic_tightness_trials.csv").read_text()
        assert trials.count("\n") == 51  # header + one row per trial

    def test_outer_mc_runs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "experiment", "outer-mc", "--generator", "resource",
            "--m", "60", "--d", "2", "--n", "2", "--ell", "2",
            "--eps", "0.12", "--trials", "20", "--n-inner", "500",
            "--seed", "4", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert "bound_value" in payload and "valid" in payload

    def test_resource_compare_grid(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "experiment", "resource-compare", "--d", "2", "--n", "2",
            "--m", "80", "--beta", "1e-3",
            "--eps-grid", "0.08:0.04:0.16", "--seed", "2",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = parse_json(out)
        assert [p["epsilon"] for p in payload["points"]] == pytest.approx(
            [0.08, 0.12, 0.16]
        )
        trials = (tmp_path / "resource_compare_trials.csv").read_text()
        assert trials.splitlines()[0].startswith("epsilon,r_cascade")

    @pytest.mark.parametrize("grid", ["0.01:0.005:inf", "nan:0.01:0.05",
                                      "0.01:inf:0.05"])
    def test_non_finite_grid_exits_2(self, capsys, tmp_path, grid):
        code, _, err = run_cli(
            capsys, "experiment", "resource-compare", "--d", "2", "--n", "2",
            "--m", "80", "--beta", "1e-3", "--eps-grid", grid,
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err.startswith("error: bad grid")

    @pytest.mark.parametrize("grid", ["0:1e-6:1", "0:1e-12:1"])
    def test_oversized_grid_exits_2(self, capsys, tmp_path, grid):
        # 1,000,001 and about 10^12 pipeline runs: rejected before any runs
        code, _, err = run_cli(
            capsys, "experiment", "resource-compare", "--d", "2", "--n", "2",
            "--m", "80", "--beta", "1e-3", "--eps-grid", grid,
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err.startswith("error: bad grid")
        assert "more than 10000 points" in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "1.5", "-0.1"])
    @pytest.mark.parametrize("argv", [
        ["analytic-tightness", "--m", "50", "--ell", "5"],
        ["outer-mc", "--m", "60", "--d", "2", "--n", "2", "--ell", "2"],
    ], ids=["analytic-tightness", "outer-mc"])
    def test_bad_eps_exits_2_before_any_trial(self, capsys, tmp_path,
                                              monkeypatch, argv, eps):
        def no_trials(self, rng):
            raise AssertionError("a trial ran before --eps was checked")

        for family in (experiments.AnalyticFamily, experiments.ResourceFamily):
            monkeypatch.setattr(family, "generate", no_trials)
        code, _, err = run_cli(
            capsys, "experiment", *argv, "--eps", eps, "--trials", "3000",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err.startswith("error: epsilon must lie in [0, 1]")

    def test_bad_ell_exits_2_before_any_trial(self, capsys, tmp_path,
                                              monkeypatch):
        # the bound T(m, ell*d + d - 1, eps) needs m > ell + 1 at d = 1
        def no_trials(self, rng):
            raise AssertionError("a trial ran before --ell was checked")

        monkeypatch.setattr(experiments.AnalyticFamily, "generate", no_trials)
        code, _, err = run_cli(
            capsys, "experiment", "analytic-tightness", "--m", "20",
            "--ell", "19", "--eps", "0.2", "--trials", "3000",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert "m must exceed r + d" in err

    @pytest.mark.parametrize("argv", [
        ["analytic-tightness", "--m", "20", "--ell", "1", "--eps", "0.3",
         "--trials", "4"],
        ["outer-mc", "--generator", "resource", "--m", "30", "--d", "2",
         "--n", "2", "--ell", "1", "--eps", "0.2", "--trials", "2",
         "--n-inner", "20"],
        ["resource-compare", "--d", "2", "--n", "2", "--m", "40",
         "--beta", "1e-3", "--eps-grid", "0.2:0.1:0.3"],
    ], ids=lambda a: a[0])
    def test_metadata_records_the_lp_tolerances(self, capsys, tmp_path, argv):
        code, _, _ = run_cli(capsys, "experiment", *argv, "--seed", "0",
                             "--out", str(tmp_path))
        assert code == EXIT_OK
        stem = argv[0].replace("-", "_")
        meta = json.loads((tmp_path / f"{stem}_metadata.json").read_text())
        assert meta["config"]["tolerances"] == {
            "feas": FEAS_TOL, "active": ACTIVE_TOL, "x": X_TOL,
            "pivot": PIVOT_TOL,
        }
        assert meta["config"]["tolerances"] == {
            "feas": 1e-7, "active": 1e-6, "x": 1e-6, "pivot": 1e-9,
        }

    def test_zero_inner_samples_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "experiment", "outer-mc", "--generator", "resource",
            "--m", "60", "--d", "2", "--n", "2", "--ell", "2",
            "--eps", "0.12", "--trials", "2", "--n-inner", "0",
            "--seed", "4", "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert err.startswith("error: n_samples must be at least 1")

    def test_all_trials_excluded_exits_3(self, capsys, tmp_path, monkeypatch):
        def excluded(*args, **kwargs):
            raise experiments.AllTrialsExcluded(10)

        monkeypatch.setattr(experiments, "outer_probability_mc", excluded)
        code, _, err = run_cli(
            capsys, "experiment", "analytic-tightness", "--m", "20",
            "--ell", "1", "--eps", "0.3", "--trials", "10",
            "--out", str(tmp_path),
        )
        assert code == EXIT_ASSUMPTION
        assert "all 10 trials" in err

    def test_outdir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
        code, _, _ = run_cli(
            capsys, "experiment", "analytic-tightness", "--m", "20",
            "--ell", "1", "--eps", "0.3", "--trials", "10", "--seed", "0",
        )
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "analytic_tightness_trials.csv").exists()

    def test_determinism_across_runs(self, capsys, tmp_path):
        outs = []
        for sub in ("a", "b"):
            run_cli(
                capsys, "experiment", "analytic-tightness", "--m", "25",
                "--ell", "2", "--eps", "0.25", "--trials", "30",
                "--seed", "9", "--out", str(tmp_path / sub),
            )
            outs.append(
                (tmp_path / sub / "analytic_tightness_trials.csv").read_bytes()
            )
        assert outs[0] == outs[1]


# sha256 of each artifact of three small experiment runs, recorded before
# LP validation moved into LinearProgram construction.  Like perfbench's
# reference digests they are pinned to this numpy and BLAS build: another
# build may round a last bit differently and move them.
GOLDEN_RUNS = {
    ("analytic-tightness", "--m", "30", "--ell", "2", "--eps", "0.2",
     "--trials", "60", "--seed", "3"): {
        "analytic_tightness_trials.csv":
            "4997c5d4bcc8663e02eb8ef7922d020e5ca0468bdcbf409f508eda1496b272d0",
        "analytic_tightness_summary.csv":
            "0b54edd8ca85b2eb05d38b4821487522e8c3cd7567ca5dccdd6307e0bd6d18b9",
        "analytic_tightness_metadata.json":
            "adced8d9a0de2b68272b3d2b1c41dd72bb5ec8611366ba39d4f818b750c4e40c",
    },
    ("outer-mc", "--generator", "resource", "--m", "60", "--d", "2",
     "--n", "2", "--ell", "2", "--eps", "0.12", "--trials", "20",
     "--n-inner", "500", "--seed", "4"): {
        "outer_mc_trials.csv":
            "68b7ef37ce105247fa6418a730068a4372b68912a7a7452cfc4759e87d188e5b",
        "outer_mc_summary.csv":
            "1c4ea35a51b1c13edce24f00947b08bd38bff088eec31942d3f278e883dd3104",
        "outer_mc_metadata.json":
            "68cdc16690a80fe39677e9fe45487609f40516984bd36873b22c5c609876bef4",
    },
    ("resource-compare", "--d", "3", "--n", "2", "--m", "150",
     "--beta", "1e-3", "--eps-grid", "0.06:0.04:0.14", "--seed", "2"): {
        "resource_compare_trials.csv":
            "fb9a98f6c4f111a75332970e15e96972cf13f35023d1d22c9fce56b88e4d2f9e",
        "resource_compare_summary.csv":
            "d1fd4d741fe413ea09cb7b958e09bacec34520c8b716c2c3d142fbba673d831d",
        "resource_compare_metadata.json":
            "87d5692d50844bfcdff8f533d7f42d209ec29db2f722b7a0c954e1f1f6b97843",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_RUNS), ids=lambda a: a[0])
def test_artifacts_match_golden_digests(capsys, tmp_path, argv):
    """Each small experiment writes byte-identical artifacts (a few seconds
    in all), so the fast suite checks bit-identity of stage points, support
    sets, greedy objectives and the CSV/JSON rendering, not only perfbench."""
    code, _, _ = run_cli(capsys, "experiment", *argv, "--out", str(tmp_path))
    assert code == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_RUNS[argv]}
    assert digests == GOLDEN_RUNS[argv]


# sha256 of each artifact of a d = 10 greedy and a d = 10 cascade run,
# recorded when support detection still had its own edge test and greedy
# reused its objectives: they pin greedy's choice among reoptimized
# candidates and the cascade's degeneracy column.
GOLDEN_TRACES = {
    ("greedy", "--generator", "resource", "--d", "10", "--n", "2",
     "--m", "300", "--r", "8", "--seed", "5"): {
        "greedy_steps.csv":
            "029cf93b6d42cff3981a96c061060c3df914598cf254f8ac5a956fe0f00f8739",
        "greedy_trace.json":
            "3334feea325f4ec6b44504f64784f9a4a53c4cce3ff6b875d7d8283794422cfc",
    },
    ("cascade", "--generator", "resource", "--d", "10", "--n", "2",
     "--m", "300", "--ell", "3", "--seed", "5"): {
        "cascade_stages.csv":
            "3281263b9eb694f7c0109a6de47cfb2a68a33c17053e293ed883fb5479d23287",
        "cascade_trace.json":
            "1c80ea382dd7b1f95b77d958f5c4e0bcb822c80d9c4b3379754ed5f4d4a96e7c",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_TRACES), ids=lambda a: a[0])
def test_traces_match_golden_digests(capsys, tmp_path, argv):
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_TRACES[argv]}
    assert digests == GOLDEN_TRACES[argv]


def test_import_loads_no_scipy():
    # start-up cost: the package's only dependency is numpy
    src = str(Path(scenopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, scenopt.cli; "
             "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


class TestGridParsing:
    def test_inclusive_endpoints(self):
        assert _parse_grid("0.01:0.005:0.08")[-1] == pytest.approx(0.08)
        assert len(_parse_grid("0.01:0.005:0.08")) == 15

    def test_single_point(self):
        assert _parse_grid("0.5:1:0.5") == [0.5]

    def test_rejects_garbage(self):
        from scenopt.lp import LpInputError

        with pytest.raises(LpInputError):
            _parse_grid("1:2")
        with pytest.raises(LpInputError):
            _parse_grid("0.1:-0.01:0.2")
        for spec in ("0.01:0.005:inf", "-inf:0.1:0.2", "0.1:nan:0.2"):
            with pytest.raises(LpInputError, match="finite"):
                _parse_grid(spec)

    def test_point_cap(self):
        from scenopt.lp import LpInputError

        assert len(_parse_grid("0:1:9999")) == 10000
        for spec in ("0:1:10000", "0:1e-320:1"):
            with pytest.raises(LpInputError, match="more than 10000 points"):
                _parse_grid(spec)
