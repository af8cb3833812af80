"""Self-test of the benchmark: a tiny pass of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no result fails at this commit, that the traced and untraced runs agree, and
that a wrong pinned digest is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _tiny(workload: str, trace: bool, pins: dict | None = None) -> bench.RunReport:
    return bench.run(
        workload, 1234, 0.0, trace, started=time.perf_counter(), tiny=True, pins=pins or {}
    )


def test_workloads_match_the_spec() -> None:
    assert set(WORKLOADS) == set(bench.WORKLOADS)
    assert set(bench.load_pins()) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_fails_nothing(workload: str) -> None:
    untraced = _tiny(workload, trace=False)
    traced = _tiny(workload, trace=True)
    for report, spec_key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert report.failed == 0, report.problems
        assert report.correct and report.attempted > 0
        emitted = {name: unit for name, (_, unit) in report.metrics.items()}
        assert emitted == {metric["name"]: metric["unit"] for metric in SPEC[spec_key]}
    for name, (value, _) in untraced.metrics.items():
        assert value > 0, name
    assert untraced.combined_digest == traced.combined_digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_digest_is_checked(workload: str) -> None:
    digest = _tiny(workload, trace=False).combined_digest
    matching = _tiny(workload, trace=False, pins={workload: {"1234": digest}})
    assert matching.failed == 0
    wrong = _tiny(workload, trace=False, pins={workload: {"1234": "0" * 64}})
    assert not wrong.correct
    assert wrong.failed == wrong.attempted > 0


def test_invariants_catch_a_broken_result() -> None:
    result = bench.RunResult(
        workload="w", machine="m", style="s", committed_instructions=10, execution_time_ps=1
    )
    assert bench.invariant_violations(result, window=10) == []
    result.loads = 1
    result.sync_penalties = 1
    assert len(bench.invariant_violations(result, window=11)) == 3


def test_command_line_prints_the_result_last() -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-resume", "--tiny"]
        + ["--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_simulator(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-cold", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
