"""Command-line front end: parse, dispatch, emit.

Subcommands: sample, moments, rate, clt, mdp, mp-sanity, identities.
Data (CSV / JSON / histogram text) goes to stdout or --out; diagnostics go
to stderr. Exit status 0 on success, 1 only for statistical-verdict
failures, 2 for usage, parameter, and I/O errors. Identical invocations
(seed included) produce byte-identical output.

An optional flat key-value config file (JSON object, keys matching flag
names exactly) can set any flag. Each entry becomes one ``--key=value``
token placed ahead of the command-line flags, so argparse checks it like
any flag and the last value given wins: an explicit flag beats the config
file, which beats the built-in default. Every usage error prints one
``error:`` line. Seeds are always explicit, never ambient.

Start-up pays only for the command being run: each command body imports
the lagspec modules it uses, and ``main`` builds the flags of the invoked
subcommand alone. Importing this module loads no numpy, and neither do
the reference commands ``moments``, ``identities`` and ``rate``: they read
the exact sequences and quadrature rules that ``lagspec.moments`` computes
in Python ints and floats. ``sample`` draws the library's model bit for
bit on Python floats (``lagspec.scalar``) at every size, so ``--what
coeffs`` never loads numpy either. Up to 64 rows it diagonalizes the model
by the implicit QL method of ``lagspec.scalar``, whose measure agrees with
``eigen_spectral``'s to rounding and is checked by ``SpectralMeasure``'s
own check; a measure above 64 rows and the experiment commands import
numpy in their bodies. None of the short commands imports ``dataclasses``
(nor ``inspect`` with it), and only the experiment commands load the
polynomial and gamma-rule parsers and the regex, in ``lagspec.experiments``.

The ``lagspec`` script and ``python -m lagspec.cli`` run :func:`script`,
which freezes the garbage collector once ``main`` returns, so that the
interpreter's collections at exit skip every object; ``main`` itself
leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import NumericalError, _fsum, _integer

if TYPE_CHECKING:
    import numpy as np

    from .experiments import ExperimentConfig, ExperimentReport

# (column, ExperimentReport attribute), in report order.
REPORT_FIELDS = (
    ("statistic", "statistic"), ("n", "n"), ("beta", "beta"), ("gamma", "gamma"),
    ("zeta_or_xi", "zeta_or_xi"), ("replicates", "replicates"),
    ("predicted_mean", "predicted_mean"), ("sample_mean", "sample_mean"),
    ("se_mean", "standard_error_mean"), ("z_score", "z_score"),
    ("predicted_var", "predicted_variance"), ("sample_var", "sample_variance"),
    ("verdict", "verdict"),
)
REPORT_COLUMNS = [column for column, _ in REPORT_FIELDS]

_HIST_BINS = 20


def _fmt(value) -> str:
    """Render a cell: reals at 17 significant digits, None empty, ints and strings as-is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# emission


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _csv(header, rows) -> str:
    text = ",".join(header) + "\n"
    return text + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _json(value) -> str:
    """JSON text of ``value`` (a dict or a list of dicts), with null for a NaN or infinite float.

    Bare NaN and Infinity tokens are not JSON (RFC 8259).
    """
    import json

    def cells(row: dict) -> dict:
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in row.items()}

    value = cells(value) if isinstance(value, dict) else [cells(row) for row in value]
    return json.dumps(value, allow_nan=False) + "\n"


def _report_text(report: ExperimentReport, fmt: str) -> str:
    row = [getattr(report, attr) for _, attr in REPORT_FIELDS]
    if fmt == "csv":
        return _csv(REPORT_COLUMNS, [row])
    if fmt == "json":
        return _json(dict(zip(REPORT_COLUMNS, row)))
    raise ValueError(f"format must be csv or json, got {fmt!r}")


def emit_report(report: ExperimentReport, fmt: str = "csv", out: str | None = None) -> None:
    """Write the 13-column report as CSV or JSON to a path or stdout."""
    _write_text(_report_text(report, fmt), out)


def _histogram_text(samples: np.ndarray) -> str:
    """_HIST_BINS equal-width bins of a nonempty sample as two-column text (bin_center, count)."""
    import numpy as np

    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        lines = [f"{lo:.17g} {samples.size}"]
    else:
        counts, edges = np.histogram(samples, bins=_HIST_BINS, range=(lo, hi))
        centers = (edges[:-1] + edges[1:]) / 2.0
        lines = [f"{c:.17g} {int(k)}" for c, k in zip(centers, counts)]
    return "\n".join(lines) + "\n"


def _emit_rows(rows, header, fmt, out):
    if fmt == "csv":
        _write_text(_csv(header, rows), out)
    else:
        _write_text(_json([dict(zip(header, row)) for row in rows]), out)


# ---------------------------------------------------------------------------
# subcommand bodies


def _unused(args, dests, when: str) -> None:
    """Reject the first flag of ``dests`` that was given: it has no effect ``when``."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} has no effect {when}")


def _cmd_sample(args) -> int:
    from .scalar import _SCALAR_ROWS, EnsembleParams, RescalingMode, _rescaled_model, derive_seed

    params = EnsembleParams(args.n, args.beta, args.gamma, RescalingMode(args.mode))
    # The key sample_laguerre_tridiagonal takes from make_rng(seed): its first raw output.
    diag, offdiag = _rescaled_model(derive_seed(args.seed, 0), params)
    if args.what == "coeffs":
        rows = [(k + 1, value, offdiag[k] if k < len(offdiag) else None)
                for k, value in enumerate(diag)]
        _emit_rows(rows, ["index", "diag", "offdiag"], args.format, args.out)
        return 0
    if params.n <= _SCALAR_ROWS:
        from .scalar import _ql_spectrum

        atoms, weights = _ql_spectrum(diag, offdiag)
    else:
        from .spectral import JacobiCoefficients, eigen_spectral

        measure = eigen_spectral(JacobiCoefficients(diag, offdiag))
        atoms, weights = measure.atoms.tolist(), measure.weights.tolist()
    _emit_rows(list(zip(atoms, weights)), ["atom", "weight"], args.format, args.out)
    return 0


def _cmd_moments(args) -> int:
    from .moments import NuVariant, _arcsine, _mp, _nu, _semicircle

    name = args.measure
    if name != "mp":
        _unused(args, ("tau",), f"with --measure {name}")
    if name not in ("nu", "nu-hat"):
        _unused(args, ("xi",), f"with --measure {name}")
    if name == "semicircle":
        values = _semicircle(args.order)
    elif name == "arcsine":
        values = _arcsine(args.order)
    elif name == "mp":
        if args.tau is None:
            raise ValueError("--tau is required for Marchenko-Pastur moments")
        values = _mp(args.order, args.tau)
    else:
        variant = NuVariant.STANDARD if name == "nu" else NuVariant.SHIFTED
        values = _nu(args.order, 1.0 if args.xi is None else args.xi, variant)
    rows = [(k, float(value)) for k, value in enumerate(values, 1)]
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
    from .moments import NuVariant
    from .rates import AcPlusAtoms, _ldp_terms, f_outlier, mdp_rate_series

    if args.mdp_moments is None:
        _unused(args, ("xi", "variant", "trunc"), "without --mdp-moments")
    rows = []
    if args.outlier is not None:
        rows.append(("f_outlier", f_outlier(args.outlier)))
    elif args.semicircle_atoms is not None:
        atoms = _parse_atoms(args.semicircle_atoms)
        bulk_mass = 1.0 - _fsum([mass for _, mass in atoms])
        if bulk_mass <= 0:
            raise ValueError("atom masses must leave positive bulk mass")
        mu = AcPlusAtoms(
            lambda x: bulk_mass * math.sqrt(4.0 - x * x) / (2.0 * math.pi),
            atoms,
        )
        kl, outliers, rate = _ldp_terms(mu)
        rows += [("kl_term", kl), ("outlier_term", outliers), ("ldp_rate", rate)]
    else:
        m = [float(v) for v in args.mdp_moments.split(",")]
        trunc = args.trunc if args.trunc is not None else min(15, len(m))
        rows.append(
            ("mdp_rate",
             mdp_rate_series(m, args.xi or 0.0, NuVariant(args.variant or "standard"), trunc))
        )
    _emit_rows(rows, ["quantity", "value"], args.format, args.out)
    return 0


def _experiment_config(args, statistic, gamma_rule, mode: str) -> ExperimentConfig:
    """The run's configuration; ``--hist-out`` is checked first, before any replicate."""
    from .experiments import ExperimentConfig
    from .scalar import RescalingMode

    if (args.hist_out is not None and args.out is not None
            and os.path.realpath(args.out) == os.path.realpath(args.hist_out)):
        raise ValueError("--hist-out and --out name the same file")
    return ExperimentConfig(
        n=args.n,
        beta=args.beta,
        gamma_rule=gamma_rule,
        replicates=args.replicates,
        master_seed=args.seed,
        statistic=statistic,
        b_n=getattr(args, "b_n", None),
        mode=RescalingMode(mode),
    )


def _finish_experiment(args, report: ExperimentReport) -> int:
    # A run that fails to write one output leaves neither: the histogram
    # file is written before the report reaches stdout, and removed again
    # if the report cannot be written.
    text = _report_text(report, args.format)
    if args.hist_out is None:
        _write_text(text, args.out)
    else:
        _write_text(_histogram_text(report.samples), args.hist_out)
        try:
            _write_text(text, args.out)
        except OSError:
            os.remove(args.hist_out)
            raise
    return 0 if report.verdict else 1


def _cmd_clt(args) -> int:
    from .experiments import parse_gamma_rule, parse_poly, run_clt

    config = _experiment_config(args, parse_poly(args.poly),
                                parse_gamma_rule(args.gamma_rule), args.mode)
    return _finish_experiment(args, run_clt(config))


def _cmd_mdp(args) -> int:
    import numpy as np

    from .experiments import MAX_POLY_DEGREE, parse_gamma_rule, run_clt

    _integer(args.k, "moment index", 1, MAX_POLY_DEGREE)
    config = _experiment_config(args, np.eye(args.k + 1)[args.k],
                                parse_gamma_rule(args.gamma_rule), args.mode)
    report = run_clt(config)
    report.statistic = f"m{args.k}"
    return _finish_experiment(args, report)


def _cmd_mp_sanity(args) -> int:
    from .experiments import LinearGamma, run_mp_sanity

    config = _experiment_config(args, args.k, LinearGamma(args.tau), "none")
    return _finish_experiment(args, run_mp_sanity(config))


def _cmd_identities(args) -> int:
    from .moments import _identity_checks

    checks = _identity_checks(args.order)
    _emit_rows(checks, ["check", "result"], args.format, args.out)
    return 0 if all(ok for _, ok in checks) else 1


# ---------------------------------------------------------------------------
# parser assembly and config-file tokens


def _one_line(message: str) -> str:
    """``message`` with line breaks and other unprintable characters escaped."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)


class _Parser(argparse.ArgumentParser):
    """Raise usage errors as ValueError, so main reports them like any other.

    A subcommand parser made with ``add_flags`` builds its flags on its
    first parse, or at an explicit ``add_flags()`` call. argparse parses
    only the subcommand it dispatches to, so a run builds no other
    command's flags.
    """

    def __init__(self, *args, add_flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def error(self, message):
        raise ValueError(message)

    def add_flags(self) -> None:
        if self._add_flags is not None:
            add, self._add_flags = self._add_flags, None
            self.add_argument("--config", help="flat JSON config file; flags win")
            self.add_argument("--format", default="csv", choices=("csv", "json"))
            self.add_argument("--out", help="output path (default: stdout)")
            add(self)

    def parse_known_args(self, args=None, namespace=None):
        self.add_flags()
        return super().parse_known_args(args, namespace)


def _rescaling_modes() -> list:
    from .scalar import RescalingMode

    return [mode.value for mode in RescalingMode]


# The centered modes: clt and mdp statistics are read from centered windows.
_CENTERINGS = ("standard", "shifted")


def _sample_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--gamma", type=float, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--mode", default="standard", choices=_rescaling_modes())
    sub.add_argument("--what", default="measure", choices=("measure", "coeffs"))


def _moments_flags(sub) -> None:
    sub.add_argument("--measure", required=True,
                     choices=("semicircle", "arcsine", "mp", "nu", "nu-hat"))
    sub.add_argument("--order", type=int, required=True)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--xi", type=float)


def _rate_flags(sub) -> None:
    from .moments import NuVariant

    selector = sub.add_mutually_exclusive_group(required=True)
    selector.add_argument("--outlier", type=float)
    selector.add_argument("--semicircle-atoms",
                          help="loc:mass[,loc:mass...] on a rescaled semicircle bulk; "
                          "a list that starts with '-' needs the = form: "
                          "--semicircle-atoms=-3:0.05,3:0.05")
    selector.add_argument("--mdp-moments",
                          help="comma-separated moment sequence; a list that starts "
                          "with '-' needs the = form: --mdp-moments=-1,0,1")
    sub.add_argument("--xi", type=float)
    sub.add_argument("--variant", choices=[variant.value for variant in NuVariant])
    sub.add_argument("--trunc", type=int)


def _experiment_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--replicates", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--hist-out")


def _clt_flags(sub) -> None:
    _experiment_flags(sub)
    sub.add_argument("--gamma-rule", required=True, help="pow:<a>:<c> or lin:<tau>")
    sub.add_argument("--poly", required=True, help="e.g. x^3 or 1+2x-0.5x^2")
    sub.add_argument("--mode", default="standard", choices=_CENTERINGS)


def _mdp_flags(sub) -> None:
    _experiment_flags(sub)
    sub.add_argument("--gamma-rule", required=True, help="pow:<a>:<c> or lin:<tau>")
    sub.add_argument("--b-n", type=float, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--mode", default="standard", choices=_CENTERINGS)


def _mp_sanity_flags(sub) -> None:
    _experiment_flags(sub)
    sub.add_argument("--tau", type=float, required=True)
    sub.add_argument("--k", type=int, required=True)


def _identities_flags(sub) -> None:
    sub.add_argument("--order", type=int, default=12)


# name -> (help, body, flags), in --help order.
_COMMANDS = {
    "sample": ("draw one rescaled tridiagonal model", _cmd_sample, _sample_flags),
    "moments": ("reference moment sequences", _cmd_moments, _moments_flags),
    "rate": ("evaluate rate functions", _cmd_rate, _rate_flags),
    "clt": ("central-limit check for a polynomial statistic", _cmd_clt, _clt_flags),
    "mdp": ("moderate-deviation centering check", _cmd_mdp, _mdp_flags),
    "mp-sanity": ("Marchenko-Pastur law-of-large-numbers check", _cmd_mp_sanity,
                  _mp_sanity_flags),
    "identities": ("exact combinatorial identity checks", _cmd_identities, _identities_flags),
}


def build_parser() -> argparse.ArgumentParser:
    """The lagspec parser; a subcommand's flags are added when it parses (see ``_Parser``)."""
    parser = _Parser(
        prog="lagspec",
        description="Laguerre beta-ensemble spectral measures: sampling, "
        "rate functions, and Monte Carlo limit-theorem checks.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, add_flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False, add_flags=add_flags)
        sub.set_defaults(_run=run)
    return parser


def _config_tokens(argv) -> list:
    """The --config file's entries as ``--key=value`` tokens, in file order.

    The ``--key=value`` form keeps a value such as ``-x`` from reading as a
    flag. An integral JSON float is written as an int, so an integer flag
    takes ``2.0``; float flags read ``2`` as the same number.
    """
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    import json

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or any(isinstance(v, (dict, list)) for v in data.values()):
        raise ValueError("config file must hold a flat JSON object")
    if "config" in data:
        raise ValueError("a config file cannot name another config file")
    tokens = []
    for key, value in data.items():
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        tokens.append(f"--{key}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # Config tokens go right after the subcommand, ahead of the user's
        # flags: argparse keeps the last value, so a flag beats the file.
        args = build_parser().parse_args(argv[:1] + _config_tokens(argv) + argv[1:])
        return args._run(args)
    except SystemExit:  # --help printed its text
        return 0
    except (ValueError, NumericalError) as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {_one_line(str(exc))}", file=sys.stderr)
        return 2


def script() -> None:
    """The ``lagspec`` command and ``python -m lagspec.cli``: ``main`` on ``sys.argv``, then exit.

    Before exiting it freezes the garbage collector (``gc.freeze``): the
    collections the interpreter runs at exit then skip every object, which
    in a short command is a sizeable share of its run. atexit handlers and
    the flush of stdout and stderr still run. ``main`` itself never
    freezes, since tests and library callers run it in their own process.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    script()
