"""The traced run's layer probe and the per-layer metrics read from its spans.

The probe calls each module's public functions from outside, each call in
its own span, at fixed sizes and with the README parameters, so that every
traced run reports every layer whatever its workload. The workload's own
traced operations add to the same spans: call and failure counts cover
both, and a timing takes the median over every span of its name and size.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

import numpy as np

import harness
import workloads

US, MS = 1e6, 1e3

# (metric, span name, span attributes, scale, unit): the median duration of
# the matching spans, in the metric's unit.
TIMINGS = (
    ("ensembles.make_rng_us", "ensembles.make_rng", {}, US, "us"),
    ("ensembles.sample_tridiagonal_us", "ensembles.sample_tridiagonal", {"n": 2000}, US, "us"),
    ("ensembles.rescale_us", "ensembles.rescale", {"n": 2000}, US, "us"),
    ("spectral.moments_via_operator_k3_us", "spectral.moments_via_operator", {"k": 3}, US, "us"),
    ("spectral.moments_via_operator_k20_us", "spectral.moments_via_operator", {"k": 20}, US, "us"),
    ("spectral.eigen_spectral_n200_ms", "spectral.eigen_spectral", {"n": 200}, MS, "ms"),
    ("spectral.eigen_spectral_n1000_ms", "spectral.eigen_spectral", {"n": 1000}, MS, "ms"),
    ("spectral.eigen_spectral_n2000_ms", "spectral.eigen_spectral", {"n": 2000}, MS, "ms"),
    ("spectral.measure_to_coefficients_n1000_ms", "spectral.measure_to_coefficients",
     {"n": 1000}, MS, "ms"),
    ("moments.mp_moments_ms", "moments.mp_moments", {}, MS, "ms"),
    ("moments.nu_moments_us", "moments.nu_moments", {}, US, "us"),
    ("moments.d_matrix_us", "moments.d_matrix", {}, US, "us"),
    ("moments.predicted_clt_us", "moments.predicted_clt", {}, US, "us"),
    ("rates.ldp_rate_ms", "rates.ldp_rate", {}, MS, "ms"),
    ("rates.mdp_rate_series_us", "rates.mdp_rate_series", {}, US, "us"),
    ("cli.parse_us", "cli.parse", {}, US, "us"),
    ("cli.emit_report_us", "cli.emit_report", {}, US, "us"),
)

# Spans whose call and failure counts are reported as <span>.calls/.failed.
COUNTED = (
    "import.lagspec_cli",
    "ensembles.make_rng",
    "ensembles.sample_tridiagonal",
    "ensembles.rescale",
    "ensembles.sample_spectral_measure",
    "spectral.moments_via_operator",
    "spectral.eigen_spectral",
    "spectral.measure_to_coefficients",
    "moments.mp_moments",
    "moments.nu_moments",
    "moments.d_matrix",
    "moments.predicted_clt",
    "rates.ldp_rate",
    "rates.mdp_rate_series",
    "experiments.replicate",
    "experiments.run_clt",
    "cli.parse",
    "cli.emit_report",
    "cli.invocation",
)

DERIVED = (
    ("import.lagspec_cli_s", "s"),
    ("import.scipy_integrate_s", "s"),
    ("experiments.run_clt_self_us", "us"),
    ("trace.replicate_overhead_pct", "%"),
    ("trace.draw_overhead_pct", "%"),
)


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {name: unit for name, unit in DERIVED}
    units.update({name: unit for name, _, _, _, unit in TIMINGS})
    for span in COUNTED:
        units[f"{span}.calls"] = "count"
        units[f"{span}.failed"] = "count"
    return units


# ---------------------------------------------------------------------------
# import times


def parse_importtime(stderr: str) -> tuple:
    """Cumulative seconds of ``lagspec.cli`` and of ``scipy.integrate``.

    scipy imports its subpackages lazily, so ``scipy.integrate`` may have no
    line of its own; its cost is then the sum of its shallowest submodule
    lines. Absent from the import path, it costs 0.
    """
    cli_us = None
    integrate = []  # (depth, cumulative us)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        module = name.strip()
        depth = len(name) - len(name.lstrip())
        cumulative = int(parts[1])
        if module == "lagspec.cli":
            cli_us = cumulative
        if module == "scipy.integrate" or module.startswith("scipy.integrate."):
            integrate.append((depth, cumulative))
    if cli_us is None:
        raise ValueError("no import-time line for lagspec.cli")
    top = min((d for d, _ in integrate), default=None)
    integrate_us = sum(c for d, c in integrate if d == top)
    return cli_us / US, integrate_us / US


def import_times(ctx, runs: int = 3) -> tuple:
    cli_s, integrate_s = [], []
    argv = [sys.executable, "-X", "importtime", "-c", "import lagspec.cli"]
    for i in range(runs):
        with ctx.tracer.span("import.lagspec_cli", trace_id=f"importtime:{i}"):
            res = harness.run_proc(argv, ctx.root, ctx.env, ctx.scratch)
            if res.returncode != 0:
                raise RuntimeError(f"import of lagspec.cli failed:\n{res.stderr[-2000:]}")
        a, b = parse_importtime(res.stderr)
        cli_s.append(a)
        integrate_s.append(b)
    return harness.median(cli_s), harness.median(integrate_s)


# ---------------------------------------------------------------------------
# the probe


def _repeat(tracer, name: str, count: int, fn, **attrs):
    for i in range(count):
        with tracer.span(name, trace_id=f"probe:{name}:{i}", **attrs):
            fn()


def _draws(tracer, tally, params, seeds, tag):
    """Probe draws through the workload's draw path; returns the good measures."""
    good = []
    for i, seed in enumerate(seeds):
        mu, _, kind, note = workloads.draw(tracer, params, seed, f"probe:{tag}:{i}")
        tally.record(kind, note)
        if mu is not None:
            good.append(mu)
    return good


def _overhead_pct(run, pairs: int = 5) -> float:
    """Tracing overhead of ``run``: median traced/untraced time ratio, in percent.

    Untraced and traced calls alternate so that a change of machine speed
    hits both alike; the traced calls record into a throwaway tracer.
    """
    ratios = []
    for _ in range(pairs):
        times = []
        for t in (harness.NullTracer(), harness.Tracer()):
            t0 = time.perf_counter()
            run(t)
            times.append(time.perf_counter() - t0)
        ratios.append(times[1] / times[0])
    return 100.0 * (harness.median(ratios) - 1.0)


def probe(ctx, tally: harness.Tally) -> dict:
    """Run every layer once over; returns the derived (non-span) metrics."""
    from lagspec import (AcPlusAtoms, EnsembleParams, ExperimentConfig, NuVariant,
                         PowerLawGamma, cli, d_matrix, make_rng, mdp_rate_series,
                         moments_via_operator, mp_moments, nu_moments, predicted_clt, rescale,
                         run_clt, sample_laguerre_tridiagonal)
    from lagspec.rates import ldp_rate

    tracer = ctx.tracer
    seed = harness.derive(ctx.seed, 2_000_000)
    derived = {}
    derived["import.lagspec_cli_s"], derived["import.scipy_integrate_s"] = import_times(ctx)

    # The README clt pipeline in alternating blocks: the replica, traced (the
    # stage times), then run_clt on the same replicates. run_clt's time per
    # replicate beyond the library stages is the harness's own overhead;
    # adjacent blocks keep a drifting machine speed out of the difference.
    block = 200
    config = ExperimentConfig(n=2000, beta=2.0, gamma_rule=PowerLawGamma(2.0, 1.0),
                              replicates=block, master_seed=seed >> 33,
                              statistic=np.array([0.0, 0.0, 0.0, 1.0]))
    self_us = []
    for b in range(5):
        spec = workloads.ExperimentSpec(f"probe-clt-{b}", "clt", 2000, 2.0, 2000.0 ** 2, block,
                                        config.master_seed, 3, ())
        first = len(tracer.spans)
        workloads.replicate(spec, tracer)
        own = {s[0] for s in tracer.spans[first:] if s[3] == "experiments.replicate"}
        stage_s = sum(s[5] - s[4] for s in tracer.spans[first:] if s[1] in own)
        with tracer.span("experiments.run_clt", trace_id=f"probe:run_clt:{b}"):
            t0 = time.perf_counter()
            report = run_clt(config)
            run_clt_s = time.perf_counter() - t0
        self_us.append((run_clt_s - stage_s) / block * US)
    derived["experiments.run_clt_self_us"] = harness.median(self_us)
    derived["trace.replicate_overhead_pct"] = _overhead_pct(
        lambda t: workloads.replicate(spec, t))

    # Moments at k = 20 on one drawn coefficient set at n = 2000.
    p2000 = EnsembleParams(2000, 2.0, 2000.0 ** 2)
    c2000 = rescale(sample_laguerre_tridiagonal(make_rng(seed), p2000), p2000)
    _repeat(tracer, "spectral.moments_via_operator", 200,
            lambda: moments_via_operator(c2000, 20), k=20)

    # Draws at the three sizes; at n = 200 also the overhead.
    p200 = EnsembleParams(200, 2.0, 200.0 ** 2)
    seeds200 = [harness.derive(seed, i) for i in range(30)]
    _draws(tracer, tally, p200, seeds200, "n200")
    derived["trace.draw_overhead_pct"] = _overhead_pct(
        lambda t: _draws(t, harness.Tally(), p200, seeds200[:10], "n200"))
    p1000 = EnsembleParams(1000, 2.0, 1000.0 ** 2)
    mus = _draws(tracer, tally, p1000, [harness.derive(seed, 100 + i) for i in range(3)], "n1000")
    _draws(tracer, tally, p2000, [harness.derive(seed, 200 + i) for i in range(3)], "n2000")
    for i, mu in enumerate(mus):
        _, _, kind, note = workloads.invert(tracer, mu, f"probe:inversion:{i}")
        tally.record(kind, note)

    # Reference moments and rates with the README parameters.
    _repeat(tracer, "moments.mp_moments", 10, lambda: mp_moments(6, 0.5))
    _repeat(tracer, "moments.nu_moments", 200, lambda: nu_moments(9, 1.0, NuVariant.SHIFTED))
    _repeat(tracer, "moments.d_matrix", 200, lambda: d_matrix(12))
    x3 = np.array([0.0, 0.0, 0.0, 1.0])
    _repeat(tracer, "moments.predicted_clt", 200, lambda: predicted_clt(x3, 1.0))
    bulk = AcPlusAtoms(lambda x: 0.9 * np.sqrt(4.0 - np.asarray(x) ** 2) / (2.0 * np.pi),
                       [(3.0, 0.1)])
    _repeat(tracer, "rates.ldp_rate", 10, lambda: ldp_rate(bulk))
    m = np.array([0.0, 0.0, 1.0, 0.0, 5.0])
    _repeat(tracer, "rates.mdp_rate_series", 200,
            lambda: mdp_rate_series(m, 1.0, NuVariant.STANDARD, 5))

    # CLI front end in-process: argument parsing and report emission.
    argv = list(workloads.mc_specs(ctx.seed)[0].argv)
    _repeat(tracer, "cli.parse", 50, lambda: cli.build_parser().parse_args(argv))

    def emit():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.emit_report(report, "csv")

    _repeat(tracer, "cli.emit_report", 200, emit)
    return derived


def per_layer_metrics(tracer, derived: dict) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    units = metric_units()
    out = {name: (derived[name], units[name]) for name, _ in DERIVED}
    for name, span, attrs, scale, unit in TIMINGS:
        durations = [s[5] - s[4] for s in tracer.select(span, **attrs) if not s[6]]
        if not durations:
            raise RuntimeError(f"no successful {span} spans with {attrs} for {name}")
        out[name] = (harness.median(durations) * scale, unit)
    for span in COUNTED:
        spans = tracer.select(span)
        out[f"{span}.calls"] = (len(spans), "count")
        out[f"{span}.failed"] = (sum(1 for s in spans if s[6]), "count")
    return out
