"""Tests of the benchmark's own code: statistics, accounting, oracles, schemas.

They run in a second or two and start no workload; the package is imported
from ``src`` next to this directory.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gauge  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from harness import CRASH, OK, TYPED, WRONG  # noqa: E402


# ---------------------------------------------------------------------------
# the tail rule


def test_tail_needs_ten_beyond_and_to_lie_above_the_median():
    assert harness.tail(range(20)) is None
    value, pct, n = harness.tail(range(21))
    assert (value, n) == (10, 21)
    assert pct == pytest.approx(100 * 11 / 21)


def test_tail_is_eleventh_largest():
    vals = list(np.random.default_rng(0).permutation(100))
    value, pct, n = harness.tail(vals)
    assert value == 89 and pct == 90.0 and n == 100
    assert sum(v > value for v in vals) == harness.TAIL_BEYOND


def test_timing_reports_tail_only_when_defined():
    assert "tail" not in harness.timing([1.0, 2.0, 3.0])
    t = harness.timing([float(i) for i in range(40)])
    assert t["median"] == 19.5 and t["n"] == 40 and t["tail"] == 29.0 and t["tail_pct"] == 75.0


def test_quartile_spread_matches_statistics_quantiles():
    assert harness.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_cycle_count_depends_on_the_arguments_only():
    assert workloads.cycle_count(20, 1.8) == 11
    assert workloads.cycle_count(20, 12.0) == 2
    assert workloads.cycle_count(20, 7.0, minimum=3) == 3
    assert workloads.cycle_count(0, 1.0, minimum=3) == 3


class _Clock:
    """Reference samples whose times are set by the test."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_gauge_scales_by_the_reference_groups_around_an_operation(monkeypatch):
    monkeypatch.setattr(gauge, "REFERENCE_EVERY_S", 0.0)  # a group after every operation
    monkeypatch.setattr(gauge, "REFERENCE_SHARE", 0.0)  # of one sample each
    g = gauge.Gauge(_Clock([1.0, 2.0, 4.0, 8.0]), 0.5, lambda: 3.0, 1)
    first = g.token()  # group 0
    g.between(0.5)  # set-up sample, group 1
    second = g.token()
    g.between(0.75)  # group 2
    third = g.token()
    g.finish()  # closing group 3
    assert (first, second, third) == (1, 2, 3) and g.groups == [[1.0], [2.0], [4.0], [8.0]]
    r = 0.5
    assert g.scaled(3.0, first) == pytest.approx(3.0 * r / 1.5)
    assert g.scaled(3.0, third) == pytest.approx(3.0 * r / 6.0)
    assert g.setup_times() == [pytest.approx(3.0 * r / 1.5)]


def test_a_group_covers_its_share_of_the_time_since_the_last(monkeypatch):
    monkeypatch.setattr(gauge, "REFERENCE_EVERY_S", 0.0)
    monkeypatch.setattr(gauge, "REFERENCE_SHARE", 1.0)
    g = gauge.Gauge(lambda: 0.01, 0.5)
    g.token()
    time.sleep(0.05)
    g.between(1.0)
    assert len(g.groups) == 2 and 5 <= len(g.groups[1]) <= 7
    assert g.scaled(1.0, 1) == pytest.approx(0.5 / 0.01)


def test_a_short_operation_shares_its_reference_group():
    # the first group wants REFERENCE_SHARE * REFERENCE_EVERY_S <= 1 s: one sample
    g = gauge.Gauge(_Clock([1.0, 3.0]))
    first = g.token()
    g.between(0.5)  # not due: REFERENCE_EVERY_S has not passed
    second = g.token()
    g.finish()
    assert first == second == 1 and g.groups == [[1.0], [3.0]]


def test_host_slowdown_cancels_but_a_program_slowdown_shows():
    def scaled_op(host, program):
        g = gauge.Gauge(_Clock([host] * 10))
        tok = g.token()
        g.finish()
        return g.scaled(host * program, tok)

    assert scaled_op(1.5, 1.0) == pytest.approx(scaled_op(1.0, 1.0))
    assert scaled_op(1.5, 1.2) == pytest.approx(1.2 * scaled_op(1.0, 1.0))


def test_setup_samples_follow_the_planned_work():
    g = gauge.Gauge(lambda: 0.001, 1.0, lambda: 0.5, 4)
    taken = []
    for step in range(1, 9):
        g.token()
        g.between(step / 8)
        taken.append(len(g.setup_samples))
    assert taken == [1, 1, 2, 2, 3, 3, 4, 4]
    g.finish()
    # each set-up sample is followed at once by a reference group
    assert [t for _, t in g.setup_samples] == [1, 2, 3, 4] and len(g.groups) == 6


def test_a_disabled_gauge_samples_nothing_and_scales_nothing():
    g = gauge.Gauge(None, 1.0, lambda: 1 / 0, 5)
    tok = g.token()
    g.between(1.0)
    g.finish()
    assert g.groups == [] and g.setup_samples == [] and g.scaled(2.5, tok) == 2.5


# ---------------------------------------------------------------------------
# failure and attempt accounting


def test_tally_counts_every_kind_against_attempts():
    t = harness.Tally()
    for kind in (OK, OK, OK, TYPED, CRASH, WRONG):
        t.record(kind, "x")
    assert (t.attempted, t.failed) == (6, 3)
    assert t.failed_frac == pytest.approx(0.5)
    assert len(t.notes) == 3
    with pytest.raises(ValueError):
        t.record("lost")


@pytest.mark.parametrize("kinds, typed_ok, correct", [
    ((OK, TYPED), True, True),
    ((OK, TYPED), False, False),
    ((OK, CRASH), True, False),
    ((OK, WRONG), True, False),
    ((OK,), False, True),
])
def test_tally_correctness(kinds, typed_ok, correct):
    t = harness.Tally()
    for kind in kinds:
        t.record(kind, typed_ok=typed_ok)
    assert t.correct is correct


def test_typed_errors_are_accepted_per_record_not_per_tally():
    t = harness.Tally()
    t.record(TYPED, typed_ok=True)
    assert t.correct
    t.record(TYPED)
    assert not t.correct and t.failed == 2


@pytest.mark.parametrize("code, stderr, kind", [
    (0, "", OK),
    (1, "", WRONG),
    (2, "error: beta must be positive\n", TYPED),
    (2, "Traceback (most recent call last):\n  ...\nKeyError: 'x'\n", CRASH),
    (0, "Traceback (most recent call last):\n", CRASH),
    (-9, "", CRASH),
    (3, "", CRASH),
])
def test_classify_exit(code, stderr, kind):
    assert harness.classify_exit(code, stderr) == kind


def _tiny_measure_draws(monkeypatch, typed_slice):
    """measure_draws on small slices with every draw of ``typed_slice`` failing typed."""
    from lagspec import NumericalError

    slices = tuple(workloads.Slice(sl.name, 12 + 4 * i, 2.0, (12.0 + 4 * i) ** 2)
                   for i, sl in enumerate(workloads.SLICES))
    monkeypatch.setattr(workloads, "SLICES", slices)
    real_draw = workloads.draw

    def fail():
        raise NumericalError("weights must be strictly positive")

    def draw(tracer, params, seed, trace_id):
        if trace_id.startswith(typed_slice + ":"):
            return workloads._attempt(fail)
        return real_draw(tracer, params, seed, trace_id)

    monkeypatch.setattr(workloads, "draw", draw)
    ctx = workloads.Context(root=ROOT, seed=3, seconds=0.0, tracer=harness.NullTracer(),
                            scratch="", env={}, gauge=gauge.Gauge())
    tally = harness.Tally()
    outcome = workloads.measure_draws(ctx, tally)
    return tally, outcome


def test_typed_draw_errors_pass_only_on_the_small_beta_slice(monkeypatch):
    tally, outcome = _tiny_measure_draws(monkeypatch, "small-beta")
    assert tally.correct and tally.counts[TYPED] == 2
    assert tally.attempted == 2 * 4 + 2  # two rounds of four draws and one inversion
    rates = {n: v for n, v, _, _ in outcome.named}
    assert rates["draws_per_s.small-beta"] == 0.0 and rates["draws_per_s.n2000"] > 0


def test_a_typed_error_on_an_n1000_draw_makes_the_run_incorrect(monkeypatch):
    tally, outcome = _tiny_measure_draws(monkeypatch, "n1000")
    assert not tally.correct and tally.counts[TYPED] == 2
    assert harness.result_line(tally, {"x": (1.0, "s")}).startswith('{"correct": false')


# ---------------------------------------------------------------------------
# result line and BENCHMARK.json schema


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result_problems(payload: dict, names) -> list:
    """Schema problems of a parsed result line against the expected metric names."""
    problems = []
    if set(payload) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(payload)}"]
    if not isinstance(payload["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(payload[key], int) or isinstance(payload[key], bool):
            problems.append(f"{key} is not an int")
    if isinstance(payload["attempted"], int) and payload["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = payload["metrics"]
    if set(metrics) != set(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} malformed: {m}")
    return problems


def test_result_line_schema():
    t = harness.Tally()
    t.record(OK)
    t.record(TYPED)
    line = harness.result_line(t, {"a_s": (1.5, "s"), "b": (2, "count")})
    payload = json.loads(line)
    assert _result_problems(payload, ["a_s", "b"]) == []
    assert payload["attempted"] == 2 and payload["failed"] == 1
    assert payload["correct"] is False
    assert _result_problems(payload, ["a_s"]) != []
    del payload["failed"]
    assert _result_problems(payload, ["a_s", "b"]) != []


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert bench["command"][1] == "perfbench/run.py"
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    all_names = names + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) for n in all_names)
    metric_names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(metric_names) == len(set(metric_names))
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert len(json.dumps(bench)) < 64 * 1024


def test_metric_names_match_the_code():
    import run

    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.metric_units()


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# trace output


def _fake_trace():
    tracer = harness.Tracer()
    for _, span, attrs, _, _ in layers.TIMINGS:
        with tracer.span(span, trace_id="t", **attrs):
            pass
    with pytest.raises(ValueError):
        with tracer.span("ensembles.sample_spectral_measure", trace_id="draw:0", n=400):
            with tracer.span("ensembles.rescale", n=400):
                pass
            with tracer.span("spectral.eigen_spectral", n=400):
                raise ValueError("weights must be strictly positive")
    return tracer


def test_spans_record_parent_trace_id_and_failure():
    tracer = harness.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer", trace_id="rep:3"):
            with tracer.span("inner", k=3):
                pass
            raise RuntimeError("boom")
    outer, inner = tracer.spans
    assert inner[1] == outer[0] and inner[2] == "rep:3" and inner[7] == {"k": 3}
    assert outer[6] is True and inner[6] is False
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]
    assert tracer.select("inner", k=3) == [inner] and tracer.select("inner", k=4) == []


def test_per_layer_metrics_cover_every_name(tmp_path):
    tracer = _fake_trace()
    derived = {name: 1.0 for name, _ in layers.DERIVED}
    metrics = layers.per_layer_metrics(tracer, derived)
    assert list(metrics) == list(layers.metric_units())
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
    assert metrics["spectral.eigen_spectral.failed"][0] == 1
    assert metrics["ensembles.sample_spectral_measure.failed"][0] == 1
    path = tmp_path / "trace.json"
    tracer.dump(str(path), {"schema": "perfbench.trace/1"})
    payload = json.loads(path.read_text())
    assert payload["schema"] == "perfbench.trace/1"
    assert len(payload["spans"]) == len(tracer.spans)
    assert all(len(s) == len(payload["span_fields"]) for s in payload["spans"])


def test_parse_importtime_with_and_without_a_scipy_integrate_line():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       1000 |     scipy.integrate._quadrature",
        "import time:        50 |        500 |       scipy.integrate._odepack",
        "import time:        10 |        200 |     scipy.integrate.dop",
        "import time:        10 |       5000 | lagspec.cli",
    ]
    assert layers.parse_importtime("\n".join(lines)) == (0.005, 0.0012)
    lines.insert(4, "import time:        20 |       1300 |   scipy.integrate")
    assert layers.parse_importtime("\n".join(lines)) == (0.005, 0.0013)
    assert layers.parse_importtime(lines[-1]) == (0.005, 0.0)


# ---------------------------------------------------------------------------
# generated inputs and oracles


def test_derive_matches_the_package_seed_derivation():
    from lagspec import derive_seed

    for master, i in ((7, 0), (7, 99), (2 ** 63, 5)):
        assert harness.derive(master, i) == derive_seed(master, i)
    sl = workloads.SLICES[-1]
    assert sl.name == "small-beta"
    # the small-beta slice replays the same draws whatever the workload seed
    assert workloads.slice_seed(7, sl, 3) == workloads.slice_seed(123, sl, 3) == derive_seed(7, 3)
    n200 = workloads.SLICES[0]
    assert workloads.slice_seed(7, n200, 3) != workloads.slice_seed(123, n200, 3)


def test_inputs_depend_only_on_the_seed():
    assert workloads.mc_specs(5) == workloads.mc_specs(5)
    assert workloads.mc_specs(5) != workloads.mc_specs(6)
    a = [c[1] for c in workloads.cli_short_commands(5)]
    assert a == [c[1] for c in workloads.cli_short_commands(5)]


def test_closed_forms_agree_with_the_package():
    from lagspec import NuVariant, f_outlier, mdp_rate_series, mp_moments, nu_moments

    assert np.allclose(oracles.narayana_mp_moments(6, 0.5), mp_moments(6, 0.5), rtol=1e-10)
    assert oracles.nu_moments(9, 1.0, True) == list(nu_moments(9, 1.0, NuVariant.SHIFTED))
    assert oracles.nu_moments(9, 2.0, False) == list(nu_moments(9, 2.0, NuVariant.STANDARD))
    assert oracles.f_outlier(3.0) == pytest.approx(f_outlier(3.0), abs=1e-14)
    m = [0.1, 1.2, 0.9, 2.0, 5.5]
    assert oracles.mdp_rate(m, 1.0, 5) == pytest.approx(
        mdp_rate_series(np.array(m), 1.0, NuVariant.STANDARD, 5), rel=1e-12)
    assert oracles.mdp_rate([0.0, 0.0, 1.0, 0.0, 5.0], 1.0, 5) == 0.0


def test_report_oracle_rejects_a_wrong_mean_and_a_failed_verdict():
    header = ("statistic,n,beta,gamma,zeta_or_xi,replicates,predicted_mean,sample_mean,"
              "se_mean,z_score,predicted_var,sample_var,verdict")
    row = "x^3,2000,2,4000000,1,10000,1,1.0304274560896720,0.02,1.3,5,4.9517641286480076,{}"
    good = f"{header}\n{row.format('pass')}\n"
    assert oracles.check_report(good, 1.030427456089672, 4.9517641286480076) == ""
    assert "sample_mean" in oracles.check_report(good, 1.0304274561, 4.9517641286480076)
    assert "verdict" in oracles.check_report(f"{header}\n{row.format('fail')}\n", 1.03, 4.95)


def test_cli_oracles_reject_wrong_values():
    assert workloads._check_outlier(f"quantity,value\nf_outlier,{oracles.f_outlier(3.0)!r}\n",
                                    {}) == ""
    assert workloads._check_outlier("quantity,value\nf_outlier,1.5\n", {}) != ""
    assert workloads._check_mdp("quantity,value\nmdp_rate,0\n", {}) == ""
    assert workloads._check_mdp("quantity,value\nmdp_rate,0.25\n", {}) != ""
    assert workloads._check_identities("check,result\na,pass\nb,fail\n", {}) != ""
    rows = "".join(f"{k},{v!r}\n" for k, v in enumerate(oracles.nu_moments(9, 1.0, True), 1))
    assert workloads._check_nu_hat("k,value\n" + rows, {}) == ""
    assert workloads._check_nu_hat("k,value\n" + rows.replace("-1.0", "-2.0", 1), {}) != ""


def test_draw_and_inversion_oracles_on_one_small_draw():
    from lagspec import EnsembleParams

    params = EnsembleParams(30, 2.0, 900.0)
    mu, secs, kind, note = workloads.draw(harness.NullTracer(), params, 11, "t")
    assert kind == OK and secs > 0 and note == ""
    coeffs = workloads.drawn_coefficients(params, 11)
    assert workloads.check_draw(mu, coeffs) == ""
    rec, _, kind, _ = workloads.invert(harness.NullTracer(), mu, "t")
    assert kind == OK and workloads.check_inversion(rec, coeffs) == ""
    rec.diag[3] += 1e-6
    assert workloads.check_inversion(rec, coeffs) != ""
    mu.weights[0] *= 1.001
    assert workloads.check_draw(mu, coeffs) != ""


def test_small_beta_draw_failure_is_typed():
    from lagspec import EnsembleParams

    sl = workloads.SLICES[-1]
    params = EnsembleParams(sl.n, sl.beta, sl.gamma)
    kinds = [workloads.draw(harness.NullTracer(), params, workloads.slice_seed(7, sl, i), "")[2]
             for i in range(3)]
    assert set(kinds) <= {OK, TYPED}
