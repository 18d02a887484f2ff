"""Command-line front end: parse, dispatch, emit.

Subcommands: sample, moments, rate, clt, mdp, mp-sanity, identities.
Data (CSV / JSON / histogram text) goes to stdout or --out; diagnostics go
to stderr. Exit status 0 on success, 1 only for statistical-verdict
failures, 2 for usage, parameter, and I/O errors. Identical invocations
(seed included) produce byte-identical output.

An optional flat key-value config file (JSON object, keys matching flag
names) can set any flag: an explicit flag beats the config file, which
beats the built-in default. Seeds are always explicit, never ambient.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .ensembles import EnsembleParams, RescalingMode, make_rng, rescale, sample_laguerre_tridiagonal
from .errors import NumericalError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    LinearGamma,
    PowerLawGamma,
    run_clt,
    run_mdp_centering,
    run_mp_sanity,
)
from .moments import (
    NuVariant,
    arcsine_moments,
    d_matrix,
    dw_vector,
    mp_moments,
    nu_moments,
    nu_moments_by_quadrature,
    semicircle_moments,
    semicircle_orthonormal_poly,
)
from .rates import AcPlusAtoms, f_outlier, kl_semicircle, ldp_rate, mdp_rate_series
from .spectral import eigen_spectral

REPORT_COLUMNS = [
    "statistic", "n", "beta", "gamma", "zeta_or_xi", "replicates",
    "predicted_mean", "sample_mean", "se_mean", "z_score",
    "predicted_var", "sample_var", "verdict",
]

_NU_QUAD_TOL = 1e-8


def _fmt(value) -> str:
    """Render a cell: reals at 17 significant digits, ints and strings as-is."""
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# polynomial flag parsing


_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|(x)|(\^)|(\+)|(-)|(\*))")


def parse_poly(text: str) -> np.ndarray:
    """Parse a monomial-sum polynomial like ``x^3`` or ``1+2x-0.5x^2``.

    Returns coefficients low to high. Recursive descent over the grammar
    poly := [sign] term { (+|-) term }, term := number ['*']['x'['^'int]]
    | 'x'['^'int].
    """
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"could not parse polynomial {text!r} at position {pos}")
        pos = match.end()
        groups = match.groups()
        if groups[0] is not None:
            tokens.append(("num", float(groups[0])))
        elif groups[1] is not None:
            tokens.append(("x", None))
        elif groups[2] is not None:
            tokens.append(("^", None))
        elif groups[3] is not None:
            tokens.append(("+", None))
        elif groups[4] is not None:
            tokens.append(("-", None))
        else:
            tokens.append(("*", None))

    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take(kind):
        nonlocal idx
        if peek() != kind:
            raise ValueError(f"could not parse polynomial {text!r}: expected {kind}")
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_term():
        coeff = 1.0
        power = 0
        saw_number = False
        if peek() == "num":
            coeff = take("num")[1]
            saw_number = True
            if peek() == "*":
                take("*")
                if peek() != "x":
                    raise ValueError(f"could not parse polynomial {text!r}: dangling '*'")
        if peek() == "x":
            take("x")
            power = 1
            if peek() == "^":
                take("^")
                exponent = take("num")[1]
                if exponent != int(exponent) or exponent < 0:
                    raise ValueError(
                        f"could not parse polynomial {text!r}: exponent must be "
                        "a nonnegative integer"
                    )
                power = int(exponent)
        elif not saw_number:
            raise ValueError(f"could not parse polynomial {text!r}: expected a term")
        return power, coeff

    terms = {}
    sign = 1.0
    if peek() in ("+", "-"):
        sign = -1.0 if take(peek())[0] == "-" else 1.0
    power, coeff = parse_term()
    terms[power] = terms.get(power, 0.0) + sign * coeff
    while peek() is not None:
        op = take(peek())[0]
        if op not in ("+", "-"):
            raise ValueError(f"could not parse polynomial {text!r}: expected + or -")
        power, coeff = parse_term()
        terms[power] = terms.get(power, 0.0) + (coeff if op == "+" else -coeff)

    degree = max(terms)
    out = np.zeros(degree + 1)
    for power, coeff in terms.items():
        out[power] = coeff
    return out


def parse_gamma_rule(text: str):
    """Parse ``pow:<a>:<c>`` or ``lin:<tau>``."""
    parts = text.split(":")
    if parts[0] == "pow" and len(parts) == 3:
        return PowerLawGamma(float(parts[1]), float(parts[2]))
    if parts[0] == "lin" and len(parts) == 2:
        return LinearGamma(float(parts[1]))
    raise ValueError(f"gamma rule must be 'pow:<a>:<c>' or 'lin:<tau>', got {text!r}")


def _parse_mode(text: str) -> RescalingMode:
    try:
        return RescalingMode(text)
    except ValueError:
        raise ValueError(f"mode must be standard, shifted, or none, got {text!r}") from None


def _parse_variant(text: str) -> NuVariant:
    try:
        return NuVariant(text)
    except ValueError:
        raise ValueError(f"variant must be standard or shifted, got {text!r}") from None


# ---------------------------------------------------------------------------
# emission


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def report_csv(report: ExperimentReport) -> str:
    values = [
        report.statistic, report.n, report.beta, report.gamma,
        report.zeta_or_xi, report.replicates, report.predicted_mean,
        report.sample_mean, report.standard_error_mean, report.z_score,
        report.predicted_variance, report.sample_variance, report.verdict,
    ]
    return ",".join(REPORT_COLUMNS) + "\n" + ",".join(_fmt(v) for v in values) + "\n"


def report_json(report: ExperimentReport) -> str:
    payload = {
        "statistic": report.statistic,
        "n": report.n,
        "beta": report.beta,
        "gamma": report.gamma,
        "zeta_or_xi": report.zeta_or_xi,
        "replicates": report.replicates,
        "predicted_mean": report.predicted_mean,
        "sample_mean": report.sample_mean,
        "se_mean": report.standard_error_mean,
        "z_score": report.z_score,
        "predicted_var": report.predicted_variance,
        "sample_var": report.sample_variance,
        "verdict": report.verdict,
    }
    return json.dumps(payload) + "\n"


def emit_report(report: ExperimentReport, fmt: str = "csv", out: str | None = None) -> None:
    """Write the 13-column report as CSV or JSON to a path or stdout."""
    if fmt == "csv":
        _write_text(report_csv(report), out)
    elif fmt == "json":
        _write_text(report_json(report), out)
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")


def emit_histogram(samples: np.ndarray, bins: int, out: str | None = None) -> None:
    """Equal-width histogram as two-column text (bin_center, count)."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if samples.size == 0:
        raise ValueError("no samples to bin")
    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        lines = [f"{lo:.17g} {samples.size}"]
    else:
        counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
        centers = (edges[:-1] + edges[1:]) / 2.0
        lines = [f"{c:.17g} {int(k)}" for c, k in zip(centers, counts)]
    _write_text("\n".join(lines) + "\n", out)


def _emit_rows(rows, header, fmt, out):
    if fmt == "csv":
        text = ",".join(header) + "\n"
        text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
        _write_text(text, out)
    elif fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _write_text(json.dumps(payload) + "\n", out)
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_sample(args) -> int:
    _require(args, ["n", "beta", "gamma", "seed"])
    params = EnsembleParams(args.n, args.beta, args.gamma, _parse_mode(args.mode))
    rng = make_rng(args.seed)
    coeffs = rescale(sample_laguerre_tridiagonal(rng, params), params)
    if args.what == "coeffs":
        rows = [
            (k + 1, coeffs.diag[k], coeffs.offdiag[k] if k < coeffs.n - 1 else "")
            for k in range(coeffs.n)
        ]
        _emit_rows(rows, ["index", "diag", "offdiag"], args.format, args.out)
    elif args.what == "measure":
        measure = eigen_spectral(coeffs)
        rows = list(zip(measure.atoms.tolist(), measure.weights.tolist()))
        _emit_rows(rows, ["atom", "weight"], args.format, args.out)
    else:
        raise ValueError(f"--what must be measure or coeffs, got {args.what!r}")
    return 0


def _cmd_moments(args) -> int:
    _require(args, ["measure", "order"])
    name = args.measure
    if name == "semicircle":
        values = semicircle_moments(args.order).astype(np.float64)
    elif name == "arcsine":
        values = arcsine_moments(args.order).astype(np.float64)
    elif name == "mp":
        if args.tau is None:
            raise ValueError("--tau is required for Marchenko-Pastur moments")
        values = mp_moments(args.order, args.tau)
    elif name in ("nu", "nu-hat"):
        variant = NuVariant.STANDARD if name == "nu" else NuVariant.SHIFTED
        values = nu_moments(args.order, args.xi, variant)
    else:
        raise ValueError(f"unknown measure {name!r}")
    rows = [(k + 1, float(values[k])) for k in range(len(values))]
    _emit_rows(rows, ["k", "value"], args.format, args.out)
    return 0


def _parse_atoms(text: str):
    atoms = []
    if text.strip():
        for chunk in text.split(","):
            loc, _, mass = chunk.partition(":")
            if not mass:
                raise ValueError(f"atom spec must be loc:mass, got {chunk!r}")
            atoms.append((float(loc), float(mass)))
    return atoms


def _cmd_rate(args) -> int:
    chosen = [
        args.outlier is not None,
        args.semicircle_atoms is not None,
        args.mdp_moments is not None,
    ]
    if sum(chosen) != 1:
        raise ValueError(
            "pick exactly one of --outlier, --semicircle-atoms, --mdp-moments"
        )
    rows = []
    if args.outlier is not None:
        rows.append(("f_outlier", f_outlier(args.outlier)))
    elif args.semicircle_atoms is not None:
        atoms = _parse_atoms(args.semicircle_atoms)
        bulk_mass = 1.0 - sum(mass for _, mass in atoms)
        if bulk_mass <= 0:
            raise ValueError("atom masses must leave positive bulk mass")
        mu = AcPlusAtoms(
            lambda x: bulk_mass * np.sqrt(4.0 - np.asarray(x) ** 2) / (2.0 * np.pi),
            atoms,
        )
        rows.append(("kl_term", kl_semicircle(mu)))
        rows.append(("outlier_term", sum(f_outlier(loc) for loc, _ in atoms)))
        rows.append(("ldp_rate", ldp_rate(mu)))
    else:
        m = np.array([float(v) for v in args.mdp_moments.split(",")])
        trunc = args.trunc if args.trunc is not None else min(15, m.size)
        rows.append(
            ("mdp_rate",
             mdp_rate_series(m, args.xi, _parse_variant(args.variant), trunc))
        )
    _emit_rows(rows, ["quantity", "value"], args.format, args.out)
    return 0


def _experiment_config(args, statistic) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n,
        beta=args.beta,
        gamma_rule=parse_gamma_rule(args.gamma_rule),
        replicates=args.replicates,
        master_seed=args.seed,
        statistic=statistic,
        b_n=getattr(args, "b_n", None),
        mode=_parse_mode(args.mode),
    )


def _finish_experiment(args, report: ExperimentReport) -> int:
    emit_report(report, args.format, args.out)
    if args.hist_out is not None:
        emit_histogram(report.samples, args.hist_bins, args.hist_out)
    return 0 if report.verdict else 1


def _cmd_clt(args) -> int:
    _require(args, ["n", "beta", "gamma_rule", "poly", "replicates", "seed"])
    config = _experiment_config(args, parse_poly(args.poly))
    report = run_clt(config, keep_samples=args.hist_out is not None)
    return _finish_experiment(args, report)


def _cmd_mdp(args) -> int:
    _require(args, ["n", "beta", "gamma_rule", "b_n", "k", "replicates", "seed"])
    config = _experiment_config(args, int(args.k))
    report = run_mdp_centering(config, keep_samples=args.hist_out is not None)
    return _finish_experiment(args, report)


def _cmd_mp_sanity(args) -> int:
    _require(args, ["n", "beta", "tau", "k", "replicates", "seed"])
    config = ExperimentConfig(
        n=args.n,
        beta=args.beta,
        gamma_rule=LinearGamma(args.tau),
        replicates=args.replicates,
        master_seed=args.seed,
        statistic=int(args.k),
        mode=RescalingMode.NONE,
    )
    report = run_mp_sanity(config, keep_samples=args.hist_out is not None)
    return _finish_experiment(args, report)


def _identity_checks(order: int):
    """The exact and quadrature cross-identities, as (name, passed) pairs."""
    if order > 20:
        raise ValueError("identities --order is capped at 20 (64-bit products)")
    checks = []

    d = d_matrix(order)
    msc = semicircle_moments(2 * order)
    cov = np.empty((order, order), dtype=np.int64)
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            cov[i - 1, j - 1] = msc[i + j - 1] - msc[i - 1] * msc[j - 1]
    checks.append((f"ddt_covariance_order{order}", bool(np.array_equal(d @ d.T, cov))))

    for variant, tag in ((NuVariant.STANDARD, "nu"), (NuVariant.SHIFTED, "nu_hat")):
        d15 = d_matrix(15).astype(np.float64)
        w = dw_vector(15, 1.0, variant)
        ok = bool(np.array_equal(d15 @ w, nu_moments(15, 1.0, variant)))
        checks.append((f"dw_telescoping_{tag}_order15", ok))

    k20 = 20
    d20 = d_matrix(k20)
    inv = np.zeros((k20, k20), dtype=np.int64)
    for j in range(k20):
        col = np.zeros(k20, dtype=np.int64)
        col[j] = 1
        for i in range(k20):
            col[i] -= d20[i, :i] @ col[:i]
        inv[:, j] = col
    rows_ok = True
    for i in range(1, k20 + 1):
        coeffs = semicircle_orthonormal_poly(i)
        padded = np.zeros(k20, dtype=np.int64)
        padded[: i] = coeffs[1:]
        rows_ok = rows_ok and bool(np.array_equal(inv[i - 1], padded))
    checks.append(("dinv_rows_polynomials_order20", rows_ok))

    for variant, tag in ((NuVariant.STANDARD, "nu"), (NuVariant.SHIFTED, "nu_hat")):
        closed = nu_moments(15, 1.0, variant)
        quad = nu_moments_by_quadrature(15, 1.0, variant)
        checks.append(
            (f"nu_moment_quadrature_{tag}_order15",
             bool(np.max(np.abs(closed - quad)) <= _NU_QUAD_TOL))
        )
    return checks


def _cmd_identities(args) -> int:
    checks = _identity_checks(args.order)
    _emit_rows(checks, ["check", "result"], args.format, args.out)
    return 0 if all(ok for _, ok in checks) else 1


# ---------------------------------------------------------------------------
# parser assembly and config-file merging


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"missing required option {flag}")


def _add(sub, dests, converters, *names, default=None, **kwargs):
    # argparse sees no defaults, so after parsing None means "not given";
    # _merge_config fills config values and then the defaults kept in
    # ``dests`` into the gaps: flag beats config file beats default.
    conv = kwargs.get("type")
    action = sub.add_argument(*names, **kwargs)
    dests[action.dest] = default
    if conv is not None:
        converters[action.dest] = conv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagspec",
        description="Laguerre beta-ensemble spectral measures: sampling, "
        "rate functions, and Monte Carlo limit-theorem checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def new_command(name, run, help_text):
        sub = subs.add_parser(name, help=help_text)
        dests: dict = {}
        converters: dict = {}
        _add(sub, dests, converters, "--config", type=str, default=None,
             help="flat JSON config file; flags win")
        _add(sub, dests, converters, "--format", type=str, default="csv",
             choices=("csv", "json"))
        _add(sub, dests, converters, "--out", type=str, default=None,
             help="output path (default: stdout)")
        sub.set_defaults(_run=run, _dests=dests, _converters=converters)
        return sub, dests, converters

    sub, dests, conv = new_command("sample", _cmd_sample,
                                   "draw one rescaled tridiagonal model")
    _add(sub, dests, conv, "--n", type=int)
    _add(sub, dests, conv, "--beta", type=float)
    _add(sub, dests, conv, "--gamma", type=float)
    _add(sub, dests, conv, "--seed", type=int)
    _add(sub, dests, conv, "--mode", type=str, default="standard")
    _add(sub, dests, conv, "--what", type=str, default="measure",
         choices=("measure", "coeffs"))

    sub, dests, conv = new_command("moments", _cmd_moments,
                                   "reference moment sequences")
    _add(sub, dests, conv, "--measure", type=str,
         choices=("semicircle", "arcsine", "mp", "nu", "nu-hat"))
    _add(sub, dests, conv, "--order", type=int)
    _add(sub, dests, conv, "--tau", type=float, default=None)
    _add(sub, dests, conv, "--xi", type=float, default=1.0)

    sub, dests, conv = new_command("rate", _cmd_rate, "evaluate rate functions")
    _add(sub, dests, conv, "--outlier", type=float, default=None)
    _add(sub, dests, conv, "--semicircle-atoms", type=str, default=None,
         help="loc:mass[,loc:mass...] on a rescaled semicircle bulk")
    _add(sub, dests, conv, "--mdp-moments", type=str, default=None,
         help="comma-separated moment sequence")
    _add(sub, dests, conv, "--xi", type=float, default=0.0)
    _add(sub, dests, conv, "--variant", type=str, default="standard")
    _add(sub, dests, conv, "--trunc", type=int, default=None)

    def experiment_flags(sub, dests, conv, with_rule=True):
        _add(sub, dests, conv, "--n", type=int)
        _add(sub, dests, conv, "--beta", type=float)
        if with_rule:
            _add(sub, dests, conv, "--gamma-rule", type=str,
                 help="pow:<a>:<c> or lin:<tau>")
        _add(sub, dests, conv, "--replicates", type=int)
        _add(sub, dests, conv, "--seed", type=int)
        _add(sub, dests, conv, "--workers", type=int, default=1,
             help="accepted for compatibility and ignored with a warning; "
             "replicates run in one thread")
        _add(sub, dests, conv, "--hist-bins", type=int, default=20)
        _add(sub, dests, conv, "--hist-out", type=str, default=None)

    sub, dests, conv = new_command("clt", _cmd_clt,
                                   "central-limit check for a polynomial statistic")
    experiment_flags(sub, dests, conv)
    _add(sub, dests, conv, "--poly", type=str, help="e.g. x^3 or 1+2x-0.5x^2")
    _add(sub, dests, conv, "--mode", type=str, default="standard")

    sub, dests, conv = new_command("mdp", _cmd_mdp,
                                   "moderate-deviation centering check")
    experiment_flags(sub, dests, conv)
    _add(sub, dests, conv, "--b-n", type=float)
    _add(sub, dests, conv, "--k", type=int)
    _add(sub, dests, conv, "--mode", type=str, default="standard")

    sub, dests, conv = new_command("mp-sanity", _cmd_mp_sanity,
                                   "Marchenko-Pastur law-of-large-numbers check")
    experiment_flags(sub, dests, conv, with_rule=False)
    _add(sub, dests, conv, "--tau", type=float)
    _add(sub, dests, conv, "--k", type=int)

    sub, dests, conv = new_command("identities", _cmd_identities,
                                   "exact combinatorial identity checks")
    _add(sub, dests, conv, "--order", type=int, default=12)

    return parser


def _merge_config(args) -> None:
    """Fill unset options from the config file, then from the defaults."""
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    for key, value in data.items():
        dest = str(key).replace("-", "_")
        if dest not in args._dests or dest in ("config",):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            conv = args._converters.get(dest)
            if conv is not None and isinstance(value, str):
                value = conv(value)
            elif conv in (int, float) and isinstance(value, (int, float)):
                if conv is int and isinstance(value, float) and not value.is_integer():
                    raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
                value = conv(value)
            setattr(args, dest, value)
    if getattr(args, "workers", None) is not None:
        print("warning: --workers has no effect; replicates run in one thread",
              file=sys.stderr)
    for dest, default in args._dests.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return int(code) if isinstance(code, int) else 2
    try:
        _merge_config(args)
        return args._run(args)
    except (ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
