"""The benchmark-trajectory summariser (tools/bench_trajectory.py)."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _result(op_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 24, "failed": failed, "wall_s": 20.5,
            "metrics": {"op_p50_s": {"value": op_s, "unit": "s"}}}


def test_summary_medians_quartiles_and_counts():
    results = [_result(v) for v in (0.5, 0.1, 0.3, 0.2)] + [_result(0.5, failed=1)]
    summary = bench_trajectory.summarise(results)
    op = summary["metrics"]["op_p50_s"]
    assert (op["q1"], op["median"], op["q3"]) == pytest.approx((0.2, 0.3, 0.5))
    assert op["unit"] == "s" and op["values"] == [0.5, 0.1, 0.3, 0.2, 0.5]
    assert summary["runs"] == 5 and summary["correct"] is True
    assert summary["failed"] == [0, 0, 0, 0, 1]
    assert summary["wall_s"] == [20.5] * 5


def test_one_incorrect_run_marks_the_workload():
    results = [_result(0.1)] * 4 + [_result(0.1, correct=False)]
    assert bench_trajectory.summarise(results)["correct"] is False


@pytest.mark.parametrize("argv", [["nolabel"], ["x=/nonexistent"]])
def test_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit):
        bench_trajectory.parse_args(argv)


# A stand-in for perfbench/run.py: logs which checkout ran which seed, prints
# perfbench's env line and one result line, and exits with the given status.
# op_p50_s is seed / 10 unless the checkout is given its ten values; each run
# fails 1 of its 4 operations unless the checkout is given another count.
_STUB = """\
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
values = {values}
with open({log!r}, "a") as fh:
    fh.write(f"{{os.path.basename(os.getcwd())}} {{seed}}\\n")
if {code} == 3:
    sys.exit(3)
print("env " + json.dumps({{"python": "3", "workload": "w", "seed": seed}}))
print(json.dumps({{"correct": {correct}, "attempted": 4, "failed": {failed},
                  "metrics": {{"op_p50_s": {{"value": seed / 10 if values is None
                                           else values[seed - 1], "unit": "s"}}}}}}))
"""


def _run_main(tmp_path, monkeypatch, correct=True, code=0, labels=("a", "b"), values=None,
              failed=None):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}], "run_seconds": 1,
        "end_to_end": [{"name": "op_p50_s", "better": "lower", "bound": 0.25}]}))
    log = tmp_path / "order.log"
    for label in labels:
        (tmp_path / label / "perfbench").mkdir(parents=True)
        stub = _STUB.format(log=str(log), code=code, correct=correct,
                            values=(values or {}).get(label), failed=(failed or {}).get(label, 1))
        (tmp_path / label / "perfbench" / "run.py").write_text(stub)
    monkeypatch.setattr(bench_trajectory, "ROOT", str(tmp_path))
    status = bench_trajectory.main([f"{label}={tmp_path / label}" for label in labels])
    return status, [line.split() for line in log.read_text().splitlines()]


def test_main_alternates_runs_and_writes_one_file_per_checkout(tmp_path, monkeypatch):
    status, runs = _run_main(tmp_path, monkeypatch)
    assert status == 0
    # Seed by seed, both checkouts run, and the one that runs first alternates.
    assert [seed for _, seed in runs] == [str(s) for s in range(1, 11) for _ in range(2)]
    assert [label for label, _ in runs[::2]] == ["a", "b"] * 5
    assert [label for label, _ in runs[1::2]] == ["b", "a"] * 5
    for label, other in (("a", "b"), ("b", "a")):
        doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert doc["schema"] == "lagspec.bench_trajectory/1" and doc["label"] == label
        assert doc["interleaved_with"] == [other]
        assert doc["seeds"] == list(range(1, 11)) and doc["seconds"] == 1
        assert doc["env"] == {"python": "3"}
        summary = doc["workloads"]["w"]
        assert summary["runs"] == 10 and summary["correct"] is True
        assert summary["attempted"] == [4] * 10 and summary["failed"] == [1] * 10
        assert len(summary["wall_s"]) == 10 and all(0 < s < 60 for s in summary["wall_s"])
        op = summary["metrics"]["op_p50_s"]
        assert op["values"] == [seed / 10 for seed in range(1, 11)]
        assert op["median"] == pytest.approx(0.55)


def test_two_labels_print_quartiles_and_pair_wins(tmp_path, monkeypatch, capsys):
    a = [0.1 * seed for seed in range(1, 11)]
    # Lower is better: b wins seeds 1-3, loses 4-5 and ties the rest.
    b = [v - 0.05 for v in a[:3]] + [v + 0.05 for v in a[3:5]] + a[5:]
    status, _ = _run_main(tmp_path, monkeypatch, values={"a": a, "b": b},
                          failed={"a": 1, "b": 2})
    assert status == 0
    counts, line = capsys.readouterr().out.splitlines()[-2:]
    assert counts == "w failed/attempted operations: a 10/40, b 20/40"
    qa = statistics.quantiles(a, n=4, method="inclusive")
    qb = statistics.quantiles(b, n=4, method="inclusive")
    # Both sides' IQR/median (about 0.8) exceed the bound, and the runs overlap.
    assert line == (
        f"w op_p50_s (lower is better, bound 0.25): "
        f"a {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] IQR/median {(qa[2] - qa[0]) / qa[1]:.3g}, "
        f"b {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] IQR/median {(qb[2] - qb[0]) / qb[1]:.3g}; "
        f"pairs won of 10: a 2, b 3; unresolved: IQR/median above the bound")

    def last_line(first, second):
        summaries = tuple(bench_trajectory.summarise([_result(v) for v in values])
                          for values in (first, second))
        metrics = {"op_p50_s": {"better": "lower", "bound": 0.25}}
        return bench_trajectory.compare("w", ("a", "b"), summaries, metrics)[-1]

    tight = [1.0 + 0.01 * seed for seed in range(10)]
    assert "unresolved" not in last_line(tight, [v + 0.05 for v in tight])
    # One wide side is enough to leave the comparison unresolved ...
    assert last_line(tight, [v + 0.05 for v in a]).endswith("; unresolved: IQR/median above "
                                                            "the bound")
    # ... unless every run of one side beats every run of the other.
    assert "unresolved" not in last_line(a, [v + 1.0 for v in a])


def test_one_label_prints_no_comparison(tmp_path, monkeypatch, capsys):
    status, _ = _run_main(tmp_path, monkeypatch, labels=("a",))
    assert status == 0
    assert "pairs won" not in capsys.readouterr().out


def test_an_incorrect_run_exits_one(tmp_path, monkeypatch):
    status, _ = _run_main(tmp_path, monkeypatch, correct=False, labels=("a",))
    assert status == 1
    doc = json.loads((tmp_path / "BENCH_a.json").read_text())
    assert doc["workloads"]["w"]["correct"] is False


def test_a_run_that_cannot_complete_exits_two(tmp_path, monkeypatch, capsys):
    status, runs = _run_main(tmp_path, monkeypatch, code=3, labels=("a",))
    assert status == 2 and runs == [["a", "1"]]
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("BENCH_*.json"))
