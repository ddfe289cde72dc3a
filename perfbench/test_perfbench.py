"""Self-test of the benchmark: metric names, gates and the no-program case.

    python3 -m pytest perfbench -q

Runs each workload once at minimal length (about two minutes in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END
from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_minimal_run_passes_its_gate(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    done = _bench("--workload", "outer-mc", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in PER_LAYER}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.solves.support"] == metrics["lp.solve.calls"] - \
        metrics["engine.solves.stage"]
    assert metrics["lp.solve.untagged.calls"] == 0


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["engine.run_cascade", 1.0, 7.0, 0,
         {"counts": [2, 3, 0, 0]}],
        ["lp.solve", 2.0, 4.0, 1,
         {"role": "stage", "rows": 5, "d": 1, "refine": True,
          "optimal": True}],
        ["engine.support_detect", 4.0, 6.5, 1, {"found": 1}],
        ["lp.solve", 4.5, 5.5, 3,
         {"role": "support", "rows": 4, "d": 1, "refine": True,
          "optimal": True}],
    ]
    metrics = layer_metrics(spans)
    assert metrics["cli.main.self_s"] == pytest.approx(4.0)
    assert metrics["engine.run_cascade.self_s"] == pytest.approx(1.5)
    assert metrics["engine.support_detect.self_s"] == pytest.approx(1.5)
    assert metrics["engine.stage_solve.self_s"] == pytest.approx(2.0)
    assert metrics["engine.support_solve.self_s"] == pytest.approx(1.0)
    assert metrics["engine.support.certified_ratio"] == 1.0
    assert metrics["engine.solves.support"] == 3
    assert metrics["lp.bytes_in_computed"] == (5 + 4) * 2 * 8
    assert metrics["lp.solve.incl_share"] == pytest.approx(0.3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "bound-sizing", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
