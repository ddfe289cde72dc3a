import json

import pytest

from scenopt import experiments
from scenopt.cli import (
    EXIT_ASSUMPTION,
    EXIT_INPUT,
    EXIT_OK,
    OUTDIR_ENV,
    _parse_grid,
    main,
)
from scenopt.engine import Scenario, ScenarioProgram


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
        prog = ScenarioProgram(
            cost=[1.0], lower=[0.0], upper=[1.0],
            scenarios=tuple(
                Scenario(label=i + 1, coeffs=[[-1.0]], rhs=[-v])
                for i, v in enumerate([0.2, 0.8, 0.5, 0.1])
            ),
        )
        path = tmp_path / "prog.json"
        path.write_text(prog.to_json())
        code, out, _ = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert parse_json(out)["final_objective"] == pytest.approx(0.5)

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
        prog = ScenarioProgram(
            cost=[1.0], lower=[0.0], upper=[1.0],
            scenarios=tuple(
                Scenario(label=i + 1, coeffs=[[-1.0]], rhs=[-v])
                for i, v in enumerate([0.9, 0.9, 0.3, 0.2, 0.1])
            ),
        )
        path = tmp_path / "dup.json"
        path.write_text(prog.to_json())
        code, _, err = run_cli(
            capsys, "cascade", "--input", str(path), "--ell", "1",
            "--mode", "fully-supported",
        )
        assert code == EXIT_ASSUMPTION
        assert "stage 0" in err

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
