"""The three workloads: mc-moments, measure-draws and cli-short.

Each is a closed loop with one client: the next operation starts when the
previous one has finished. Operations repeat in whole cycles (rounds,
passes); how many is fixed by ``--seconds`` alone (``cycle_count``), so two
runs with the same seed attempt the same operations, and at least two
cycles run, so that every CLI command runs twice with identical arguments.
Between operations the gauge takes its reference and set-up samples
(``gauge.py``); every reported time is a wall time scaled to the reference
host speed, with the raw wall time printed beside it. Every input is
generated from the workload seed; the program sees only the generated
command lines and parameters.

Each workload returns its end-to-end metrics under the names shared by all
workloads (``work_per_s``, ``op_p50_s``, ``peak_rss_mb``) and, for the
report, the same numbers under the names of the metric they stand for on
this workload (``replicates_per_s``, ``draws_per_s``, ``cmd_p50_s`` ...).
"""

from __future__ import annotations

import hashlib
import math
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import harness
import oracles
from gauge import Gauge
from harness import CRASH, OK, TYPED, WRONG

# Nominal length of one cycle of each workload, in seconds at the reference
# host speed (measured on a 2-core x86-64 VM): a run of --seconds S does
# S // cycle of them, at least the workload's minimum.
MC_CYCLE_S = 12.0  # clt + mdp + mp-sanity at n = 2000
DRAW_ROUND_S = 1.8  # one draw of each slice and one inversion
CLI_PASS_S = 7.0  # the eight short commands


@dataclass
class Context:
    root: str
    seed: int
    seconds: float
    tracer: object
    scratch: str
    env: dict
    gauge: Gauge


@dataclass
class Outcome:
    """What a workload measured: shared end-to-end metrics plus named detail."""

    e2e: dict  # name -> (value, unit)
    named: list  # (name, value, unit, note)
    detail: dict = field(default_factory=dict)


def cycle_count(seconds: float, cycle_s: float, minimum: int = 2) -> int:
    """Cycles in a run: as many of nominal length ``cycle_s`` as fit in ``seconds``.

    It depends on the arguments alone, never on how fast the host is today,
    so the attempted operations, and so the failed ones, repeat exactly.
    """
    return max(minimum, int(seconds // cycle_s))


def _cli(ctx: Context, args, cmd: str, trace_id: str, progress: float):
    """One CLI invocation: ``(ProcResult, gauge token)``."""
    argv = [sys.executable, "-m", "lagspec.cli"] + list(args)
    token = ctx.gauge.token()
    with ctx.tracer.span("cli.invocation", trace_id=trace_id, cmd=cmd):
        res = harness.run_proc(argv, ctx.root, ctx.env, ctx.scratch)
    ctx.gauge.between(progress)
    return res, token


def _small_seed(seed: int, index: int) -> int:
    """A 31-bit seed for a generated command line."""
    return harness.derive(seed, index) >> 33


def _timing_rows(prefix: str, walls: dict) -> list:
    rows = []
    for name, vals in walls.items():
        if not vals:
            continue
        t = harness.timing(vals)
        note = f"median of n={t['n']}"
        if "tail" in t:
            note += f"; p{t['tail_pct']:.1f} = {t['tail']:.6g} s"
        rows.append((f"{prefix}{name}", t["median"], "s", note))
    return rows


def _raw_row(name: str, walls: list) -> tuple:
    return (f"{name}.raw_wall", harness.median(walls), "s",
            f"unscaled wall time, median of n={len(walls)}")


def _fingerprints(outputs: dict) -> dict:
    """sha256 of each command's first stdout, and whether every rerun matched."""
    return {name: {"sha256": hashlib.sha256(outs[0].encode()).hexdigest(),
                   "runs": len(outs), "identical": len(set(outs)) == 1}
            for name, outs in outputs.items() if outs}


def _check_rerun(outputs: list, stdout: str, name: str) -> str:
    """Reason a rerun disagrees with the first run of the same command, else ''."""
    if outputs and stdout != outputs[0]:
        return f"{name}: stdout differs from the first identical invocation"
    return ""


# ---------------------------------------------------------------------------
# mc-moments


@dataclass(frozen=True)
class ExperimentSpec:
    """One README experiment command and what its replica must compute."""

    name: str
    kind: str  # clt | mdp | mp
    n: int
    beta: float
    gamma: float
    replicates: int
    seed: int
    order: int
    argv: tuple


def mc_specs(seed: int) -> list:
    s = [_small_seed(seed, i) for i in range(3)]
    common = ("--n", "2000", "--beta", "2")
    return [
        ExperimentSpec("clt", "clt", 2000, 2.0, 2000.0 ** 2, 10_000, s[0], 3,
                       ("clt",) + common + ("--gamma-rule", "pow:2:1", "--poly", "x^3",
                                            "--replicates", "10000", "--seed", str(s[0]))),
        ExperimentSpec("mdp", "mdp", 2000, 2.0, 2000.0 ** 2, 10_000, s[1], 3,
                       ("mdp",) + common + ("--gamma-rule", "pow:2:1", "--b-n", "50", "--k", "3",
                                            "--replicates", "10000", "--seed", str(s[1]))),
        ExperimentSpec("mp-sanity", "mp", 2000, 2.0, 2000 * 1.0 / 0.5, 2000, s[2], 2,
                       ("mp-sanity",) + common + ("--tau", "0.5", "--k", "2",
                                                  "--replicates", "2000", "--seed", str(s[2]))),
    ]


def replicate(spec: ExperimentSpec, tracer) -> np.ndarray:
    """The experiment's replicate statistics, rebuilt from the library stages.

    Calls make_rng / sample_laguerre_tridiagonal / rescale /
    moments_via_operator per replicate, with the statistic written out from
    its definition: sqrt(n beta') (int x^3 dmu_n - int x^3 dmu_sc) for clt,
    sqrt(n beta'/b_n) (m_3 - m_3^sc) with b_n = 50 for mdp, and m_2 of the
    matrix divided by 2 gamma for mp-sanity.
    """
    from lagspec import (EnsembleParams, JacobiCoefficients, RescalingMode, derive_seed,
                         make_rng, moments_via_operator, rescale, sample_laguerre_tridiagonal)

    mode = RescalingMode.NONE if spec.kind == "mp" else RescalingMode.STANDARD
    params = EnsembleParams(spec.n, spec.beta, spec.gamma, mode)
    msc = oracles.catalan_moments(spec.order)
    if spec.kind == "clt":
        factor = np.sqrt(spec.n * spec.beta / 2.0)
        poly_tail = np.array([0.0, 0.0, 1.0])
    elif spec.kind == "mdp":
        factor = float(np.sqrt(spec.n * (spec.beta / 2.0) / 50.0))
    else:
        scale = 1.0 / (2.0 * params.gamma)
    out = np.empty(spec.replicates)
    span = tracer.span
    for i in range(spec.replicates):
        with span("experiments.replicate", trace_id=f"{spec.name}:{i}"):
            with span("ensembles.make_rng"):
                rng = make_rng(derive_seed(spec.seed, i))
            with span("ensembles.sample_tridiagonal", n=spec.n):
                raw = sample_laguerre_tridiagonal(rng, params)
            if spec.kind == "mp":
                coeffs = JacobiCoefficients(raw.diag * scale, raw.offdiag * scale)
            else:
                with span("ensembles.rescale", n=spec.n):
                    coeffs = rescale(raw, params)
            with span("spectral.moments_via_operator", k=spec.order):
                m = moments_via_operator(coeffs, spec.order)
        if spec.kind == "clt":
            out[i] = float(factor * np.dot(poly_tail, m - msc))
        elif spec.kind == "mdp":
            out[i] = factor * (float(m[spec.order - 1]) - float(msc[spec.order - 1]))
        else:
            out[i] = float(m[spec.order - 1])
    return out


def mc_moments(ctx: Context, tally: harness.Tally) -> Outcome:
    specs = mc_specs(ctx.seed)
    n_cycles = cycle_count(ctx.seconds, MC_CYCLE_S)
    total = n_cycles * len(specs)
    runs = []  # (spec, ProcResult, gauge token)
    for cycle in range(n_cycles):
        for spec in specs:
            res, token = _cli(ctx, spec.argv, spec.name, f"{spec.name}:{cycle}",
                              (len(runs) + 1) / total)
            runs.append((spec, res, token))
    ctx.gauge.finish()

    replica = {}
    for spec in specs:
        samples = replicate(spec, ctx.tracer)
        replica[spec.name] = (float(np.mean(samples)), float(np.var(samples, ddof=1)))

    outputs = {s.name: [] for s in specs}
    walls = {s.name: [] for s in specs}
    raw = {s.name: [] for s in specs}
    done_reps = 0
    for spec, res, token in runs:
        walls[spec.name].append(ctx.gauge.scaled(res.wall_s, token))
        raw[spec.name].append(res.wall_s)
        kind = harness.classify_exit(res.returncode, res.stderr)
        reason = res.stderr.strip()[-200:]
        if kind == OK:
            try:
                reason = oracles.check_report(res.stdout, *replica[spec.name])
            except (ValueError, KeyError) as exc:
                reason = f"unparseable report: {exc}"
            reason = reason or _check_rerun(outputs[spec.name], res.stdout, spec.name)
            kind = WRONG if reason else OK
        elif kind == WRONG:
            reason = "verdict failed (exit 1)"
        tally.record(kind, f"{spec.name}: {reason}")
        if kind == OK:
            done_reps += spec.replicates
        outputs[spec.name].append(res.stdout)

    total_wall = sum(sum(v) for v in walls.values())
    reps_per_s = done_reps / total_wall
    verdict = harness.timing(walls["clt"])
    # clt and mdp are both README verdicts over 10^4 replicates at n = 2000;
    # pooling them doubles the samples behind the shared op_p50_s.
    verdicts = harness.timing(walls["clt"] + walls["mdp"])
    rss = max(res.peak_rss_mb for _, res, _ in runs)
    named = [
        ("replicates_per_s", reps_per_s, "1/s",
         f"{done_reps} replicates over {total_wall:.3f} s of {len(runs)} invocations"),
        ("time_to_verdict_s", verdict["median"], "s", f"median of n={verdict['n']} clt runs"),
        ("verdict_10k_p50_s", verdicts["median"], "s",
         f"median of n={verdicts['n']} clt and mdp runs"),
        _raw_row("verdict_10k_p50_s", raw["clt"] + raw["mdp"]),
    ] + _timing_rows("wall_s.", walls) + [
        ("failed_frac", tally.failed_frac, "1", f"{tally.failed}/{tally.attempted}"),
        ("peak_rss_mb", rss, "MB", "largest CLI process"),
    ]
    return Outcome(
        e2e={"work_per_s": (reps_per_s, "1/s"), "op_p50_s": (verdicts["median"], "s"),
             "peak_rss_mb": (rss, "MB")},
        named=named,
        detail={"cycles": n_cycles, "fingerprints": _fingerprints(outputs),
                "raw_wall_s": raw, "scaled_wall_s": walls,
                "replica": {k: {"sample_mean": m, "sample_var": v}
                            for k, (m, v) in replica.items()}},
    )


# ---------------------------------------------------------------------------
# measure-draws


@dataclass(frozen=True)
class Slice:
    name: str
    n: int
    beta: float
    gamma: float


# beta = 2, gamma = n^2 at three sizes, plus the small-beta slice on which
# dense-eigh weights underflow today (a documented, typed failure). A round
# draws once from each slice: the parameter mix gives the sizes no weights,
# so none are made up, and draws_per_s is four draws over the time of one
# draw of each. The per-slice rates are reported beside it.
SLICES = (
    Slice("n200", 200, 2.0, 200.0 ** 2),
    Slice("n1000", 1000, 2.0, 1000.0 ** 2),
    Slice("n2000", 2000, 2.0, 2000.0 ** 2),
    Slice("small-beta", 400, 0.2, 400.0 ** 3),
)
# Only here may a valid draw end in a documented error and the run still be
# correct; a typed error anywhere else breaks the oracle.
TYPED_OK_SLICE = "small-beta"
# The small-beta slice replays the draws behind the known failure count,
# derive_seed(7, i) (34 of the first 100 fail), whatever the workload seed:
# its failures measure the defect, and repeat exactly from run to run.
SMALL_BETA_MASTER = 7


def slice_seed(seed: int, sl: Slice, index: int) -> int:
    """Draw seed ``index`` of a slice; the small-beta slice ignores ``seed``."""
    if sl.name == "small-beta":
        return harness.derive(SMALL_BETA_MASTER, index)
    return harness.derive(harness.derive(seed, 1_000_000 + SLICES.index(sl)), index)


def _attempt(fn):
    """Call ``fn``, timed: ``(result or None, seconds, kind, note)``."""
    from lagspec import NumericalError

    t0 = time.perf_counter()
    try:
        out = fn()
    except (ValueError, NumericalError) as exc:
        return None, time.perf_counter() - t0, TYPED, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # an undocumented error is a crash: counted, the run goes on
        return None, time.perf_counter() - t0, CRASH, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, OK, ""


def draw(tracer, params, seed: int, trace_id: str):
    """One spectral-measure draw: ``(measure or None, seconds, kind, note)``.

    Untraced it is one library call, ``sample_spectral_measure``; traced it
    is the same composition stage by stage, each stage in its own span.
    """
    from lagspec import (eigen_spectral, make_rng, rescale, sample_laguerre_tridiagonal,
                         sample_spectral_measure)

    def traced():
        with tracer.span("ensembles.sample_spectral_measure", trace_id=trace_id, n=params.n):
            with tracer.span("ensembles.make_rng"):
                rng = make_rng(seed)
            with tracer.span("ensembles.sample_tridiagonal", n=params.n):
                raw = sample_laguerre_tridiagonal(rng, params)
            with tracer.span("ensembles.rescale", n=params.n):
                coeffs = rescale(raw, params)
            with tracer.span("spectral.eigen_spectral", n=params.n):
                return eigen_spectral(coeffs)

    if tracer.enabled:
        return _attempt(traced)
    return _attempt(lambda: sample_spectral_measure(make_rng(seed), params))


def drawn_coefficients(params, seed: int):
    """The rescaled coefficients a draw with ``seed`` is built from."""
    from lagspec import make_rng, rescale, sample_laguerre_tridiagonal

    return rescale(sample_laguerre_tridiagonal(make_rng(seed), params), params)


def check_draw(mu, coeffs) -> str:
    from lagspec import moments_of_measure, moments_via_operator

    if oracles.moments_agree(moments_of_measure(mu, 8), moments_via_operator(coeffs, 8)):
        return ""
    return "measure moments disagree with operator moments"


def invert(tracer, mu, trace_id: str):
    """Full-order Stieltjes inversion: ``(coefficients or None, seconds, kind, note)``."""
    from lagspec import measure_to_coefficients

    def run():
        with tracer.span("spectral.measure_to_coefficients", trace_id=trace_id, n=mu.n):
            return measure_to_coefficients(mu, mu.n)

    return _attempt(run)


def check_inversion(rec, coeffs) -> str:
    k = rec.n
    err = max(np.max(np.abs(rec.diag - coeffs.diag[:k]), initial=0.0),
              np.max(np.abs(rec.offdiag - coeffs.offdiag[:k - 1]), initial=0.0))
    if err <= oracles.INVERSION_ATOL:
        return ""
    return f"round-trip coefficient error {err:.3g}"


def measure_draws(ctx: Context, tally: harness.Tally) -> Outcome:
    from lagspec import EnsembleParams

    params = {sl.name: EnsembleParams(sl.n, sl.beta, sl.gamma) for sl in SLICES}
    draw_s = {sl.name: [] for sl in SLICES}
    raw_draw_s = {sl.name: [] for sl in SLICES}
    good = {sl.name: 0 for sl in SLICES}
    failures = {sl.name: {TYPED: 0, CRASH: 0, WRONG: 0} for sl in SLICES}
    inv_s = []  # (wall seconds, gauge token)
    inverted_ok = 0
    rounds = cycle_count(ctx.seconds, DRAW_ROUND_S)
    for i in range(rounds):
        for j, sl in enumerate(SLICES):
            progress = (i + (j + 1) / len(SLICES)) / rounds
            seed = slice_seed(ctx.seed, sl, i)
            tid = f"{sl.name}:{i}"
            token = ctx.gauge.token()
            mu, secs, kind, note = draw(ctx.tracer, params[sl.name], seed, tid)
            draw_s[sl.name].append((secs, token))
            if kind == OK:
                coeffs = drawn_coefficients(params[sl.name], seed)
                note = check_draw(mu, coeffs)
                kind = WRONG if note else OK
            tally.record(kind, f"{tid}: {note}", typed_ok=sl.name == TYPED_OK_SLICE)
            ctx.gauge.between(progress)
            if kind != OK:
                failures[sl.name][kind] += 1
                continue
            good[sl.name] += 1
            if sl.name == "n1000":
                token = ctx.gauge.token()
                rec, secs, kind, note = invert(ctx.tracer, mu, tid)
                inv_s.append((secs, token))
                if kind == OK:
                    note = check_inversion(rec, coeffs)
                    kind = WRONG if note else OK
                tally.record(kind, f"inversion {tid}: {note}")
                inverted_ok += kind == OK
                ctx.gauge.between(progress)
    ctx.gauge.finish()
    for name, timed in draw_s.items():
        raw_draw_s[name] = [w for w, _ in timed]
        draw_s[name] = [ctx.gauge.scaled(w, t) for w, t in timed]
    raw_inv_s = [w for w, _ in inv_s]
    inv_s = [ctx.gauge.scaled(w, t) for w, t in inv_s]

    drawn_ok = sum(good.values())
    total_draw = sum(sum(v) for v in draw_s.values())
    draws_per_s = drawn_ok / total_draw
    # Every n=1000 draw failing leaves no inversion to time; such a failure
    # has already made the run incorrect, the zeros only keep it printable.
    inversions_per_s = inverted_ok / sum(inv_s) if inv_s else 0.0
    inv = harness.timing(inv_s) if inv_s else {"median": 0.0, "n": 0}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempts = {k: len(v) for k, v in draw_s.items()}
    named = [
        ("draws_per_s", draws_per_s, "1/s",
         f"{drawn_ok} good draws over {total_draw:.3f} s of {sum(attempts.values())} attempts"),
    ] + [
        (f"draws_per_s.{name}", good[name] / sum(draw_s[name]), "1/s",
         f"{good[name]} good of {attempts[name]} attempts")
        for name in draw_s
    ] + [
        ("inversions_per_s", inversions_per_s, "1/s",
         f"{inverted_ok} good inversions over {sum(inv_s):.3f} s"),
        ("inversion_p50_s", inv["median"], "s", f"median of n={inv['n']}"),
    ] + ([_raw_row("inversion_p50_s", raw_inv_s)] if raw_inv_s else []) + [
        _raw_row(f"draw_s.{name}", walls) for name, walls in raw_draw_s.items()
    ] + _timing_rows("draw_s.", draw_s) + [
        ("failed_frac", tally.failed_frac, "1", f"{tally.failed}/{tally.attempted}"),
    ] + [
        (f"failed_frac.{name}", sum(f.values()) / attempts[name], "1",
         f"typed {f[TYPED]}, crash {f[CRASH]}, wrong {f[WRONG]} of {attempts[name]}")
        for name, f in failures.items()
    ] + [("peak_rss_mb", rss, "MB", "benchmark process, draws run in-process")]
    return Outcome(
        e2e={"work_per_s": (draws_per_s, "1/s"), "op_p50_s": (inv["median"], "s"),
             "peak_rss_mb": (rss, "MB")},
        named=named,
        detail={"rounds": rounds, "failures": failures},
    )


# ---------------------------------------------------------------------------
# cli-short


def _check_identities(out: str, _pass: dict) -> str:
    rows = oracles.parse_csv(out)
    bad = [r["check"] for r in rows if r["result"] != "pass"]
    return f"identities failed: {bad}" if bad or not rows else ""


def _check_mp(out: str, _pass: dict) -> str:
    got = [float(r["value"]) for r in oracles.parse_csv(out)]
    want = oracles.narayana_mp_moments(6, 0.5)
    ok = len(got) == 6 and all(oracles.close(g, w, oracles.MP_RTOL) for g, w in zip(got, want))
    return "" if ok else f"mp moments {got} != Narayana {want}"


def _check_nu_hat(out: str, _pass: dict) -> str:
    got = [float(r["value"]) for r in oracles.parse_csv(out)]
    want = oracles.nu_moments(9, 1.0, shifted=True)
    return "" if got == want else f"nu-hat moments {got} != {want}"


def _check_outlier(out: str, _pass: dict) -> str:
    got = oracles.quantities(out)
    want = oracles.f_outlier(3.0)
    ok = set(got) == {"f_outlier"} and abs(got["f_outlier"] - want) <= oracles.RATE_ATOL
    return "" if ok else f"f_outlier {got} != {want!r}"


def _check_ldp(out: str, _pass: dict) -> str:
    # Bulk 0.9 x semicircle: KL(sc | 0.9 sc) = -log 0.9; one outlier at 3.
    want = {"kl_term": -math.log(0.9), "outlier_term": oracles.f_outlier(3.0)}
    want["ldp_rate"] = want["kl_term"] + want["outlier_term"]
    got = oracles.quantities(out)
    ok = set(got) == set(want) and all(abs(got[k] - want[k]) <= oracles.RATE_ATOL for k in want)
    return "" if ok else f"ldp quantities {got} != {want}"


def _check_mdp(out: str, _pass: dict) -> str:
    got = oracles.quantities(out)
    want = oracles.mdp_rate([0.0, 0.0, 1.0, 0.0, 5.0], 1.0, 5)
    ok = set(got) == {"mdp_rate"} and abs(got["mdp_rate"] - want) <= oracles.RATE_ATOL
    return "" if ok else f"mdp_rate {got} != {want!r}"


def _check_measure(out: str, _pass: dict) -> str:
    rows = oracles.parse_csv(out)
    atoms = np.array([float(r["atom"]) for r in rows])
    weights = np.array([float(r["weight"]) for r in rows])
    if len(rows) != 50:
        return f"expected 50 atoms, got {len(rows)}"
    if not (np.all(np.diff(atoms) > 0) and np.all(weights > 0)
            and abs(weights.sum() - 1.0) <= 1e-10):
        return "measure is not increasing atoms with positive weights summing to 1"
    return ""


def _check_coeffs(out: str, this_pass: dict) -> str:
    """Raw coefficients, rescaled here, must carry the sampled measure's moments."""
    rows = oracles.parse_csv(out)
    diag = np.array([float(r["diag"]) for r in rows])
    off = np.array([float(r["offdiag"]) for r in rows[:-1]])
    if len(rows) != 50 or rows[-1]["offdiag"] != "" or not np.all(off > 0):
        return "coefficients malformed"
    measure = this_pass.get("sample-measure")
    if measure is None:
        return ""
    mrows = oracles.parse_csv(measure)
    atoms = np.array([float(r["atom"]) for r in mrows])
    weights = np.array([float(r["weight"]) for r in mrows])
    gamma, n, beta = 5000.0, 50, 2.0
    denom = np.sqrt(2.0 * gamma * n * beta)
    want = oracles.tridiagonal_moments((diag - 2.0 * gamma) / denom, off / denom, 8)
    got = oracles.measure_moments(atoms, weights, 8)
    return "" if oracles.moments_agree(got, want) else "measure moments disagree with coefficients"


def cli_short_commands(seed: int) -> list:
    """(name, argv, oracle) for one pass of the short README commands."""
    s = str(_small_seed(seed, 0))
    sample = ("sample", "--n", "50", "--beta", "2", "--gamma", "5000", "--seed", s)
    return [
        ("identities", ("identities", "--order", "12"), _check_identities),
        ("moments-mp", ("moments", "--measure", "mp", "--order", "6", "--tau", "0.5"), _check_mp),
        ("moments-nu-hat", ("moments", "--measure", "nu-hat", "--order", "9", "--xi", "1"),
         _check_nu_hat),
        ("rate-outlier", ("rate", "--outlier", "3.0"), _check_outlier),
        ("rate-ldp", ("rate", "--semicircle-atoms", "3:0.1"), _check_ldp),
        ("rate-mdp", ("rate", "--mdp-moments", "0,0,1,0,5", "--xi", "1", "--trunc", "5"),
         _check_mdp),
        ("sample-measure", sample, _check_measure),
        ("sample-coeffs", sample + ("--what", "coeffs", "--mode", "none"), _check_coeffs),
    ]


def cli_short(ctx: Context, tally: harness.Tally) -> Outcome:
    commands = cli_short_commands(ctx.seed)
    outputs = {name: [] for name, _, _ in commands}
    runs = []  # (name, ProcResult, gauge token)
    # Three passes of eight commands give 24 samples, enough for a tail
    # percentile above the median.
    passes = cycle_count(ctx.seconds, CLI_PASS_S, minimum=3)
    total = passes * len(commands)
    for index in range(passes):
        this_pass = {}
        for name, argv, oracle in commands:
            res, token = _cli(ctx, argv, name, f"{name}:{index}", (len(runs) + 1) / total)
            runs.append((name, res, token))
            kind = harness.classify_exit(res.returncode, res.stderr)
            note = res.stderr.strip()[-200:]
            if kind == OK:
                try:
                    note = oracle(res.stdout, this_pass)
                except (ValueError, KeyError) as exc:
                    note = f"unparseable output: {exc}"
                note = note or _check_rerun(outputs[name], res.stdout, name)
                kind = WRONG if note else OK
                this_pass[name] = res.stdout
            tally.record(kind, f"{name}: {note}")
            outputs[name].append(res.stdout)
    ctx.gauge.finish()

    walls = {name: [] for name, _, _ in commands}
    for name, res, token in runs:
        walls[name].append(ctx.gauge.scaled(res.wall_s, token))
    all_walls = [w for vals in walls.values() for w in vals]
    rss = max(res.peak_rss_mb for _, res, _ in runs)
    t = harness.timing(all_walls)
    tail_note = (f"p{t['tail_pct']:.1f} of n={t['n']}, {harness.TAIL_BEYOND} beyond"
                 if "tail" in t else f"n={t['n']} is too few for a tail")
    named = [
        ("cmd_p50_s", t["median"], "s", f"median of n={t['n']} invocations"),
        ("cmd_tail_s", t.get("tail", float("nan")), "s", tail_note),
        _raw_row("cmd_p50_s", [res.wall_s for _, res, _ in runs]),
        ("commands_per_s", len(all_walls) / sum(all_walls), "1/s", f"{passes} passes"),
    ] + _timing_rows("wall_s.", walls) + [
        ("failed_frac", tally.failed_frac, "1", f"{tally.failed}/{tally.attempted}"),
        ("peak_rss_mb", rss, "MB", "largest CLI process"),
    ]
    return Outcome(
        e2e={"work_per_s": (len(all_walls) / sum(all_walls), "1/s"),
             "op_p50_s": (t["median"], "s"), "peak_rss_mb": (rss, "MB")},
        named=named,
        detail={"passes": passes, "fingerprints": _fingerprints(outputs)},
    )


WORKLOADS = {
    "mc-moments": mc_moments,
    "measure-draws": measure_draws,
    "cli-short": cli_short,
}
