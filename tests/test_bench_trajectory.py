"""The benchmark-trajectory summariser (tools/bench_trajectory.py)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _result(op_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 24, "failed": failed,
            "metrics": {"op_p50_s": {"value": op_s, "unit": "s"}}}


def test_summary_medians_quartiles_and_counts():
    results = [_result(v) for v in (0.5, 0.1, 0.3, 0.2)] + [_result(0.5, failed=1)]
    summary = bench_trajectory.summarise(results)
    op = summary["metrics"]["op_p50_s"]
    assert (op["q1"], op["median"], op["q3"]) == pytest.approx((0.2, 0.3, 0.5))
    assert op["unit"] == "s" and op["values"] == [0.5, 0.1, 0.3, 0.2, 0.5]
    assert summary["runs"] == 5 and summary["correct"] is True
    assert summary["failed"] == [0, 0, 0, 0, 1]


def test_one_incorrect_run_marks_the_workload():
    results = [_result(0.1)] * 4 + [_result(0.1, correct=False)]
    assert bench_trajectory.summarise(results)["correct"] is False


@pytest.mark.parametrize("argv", [["nolabel"], ["x=/nonexistent"]])
def test_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit):
        bench_trajectory.parse_args(argv)
