"""CLI parsing, emission formats, exit codes, and byte-level determinism."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagspec
from lagspec import cli, experiments, moments
from lagspec.experiments import ExperimentReport, LinearGamma, PowerLawGamma


_SPACE = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _rendered_polys(draw):
    """A polynomial's text, terms in any order and spacing, and its coefficients.

    The coefficients are summed power by power in term order, as the
    parser sums them.
    """
    parts, terms = [], {}
    for i in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        power = draw(st.integers(0, 20))
        coeff = draw(st.none() | st.floats(0.0, 1e6))
        monomials = {0: ["x^0"], 1: ["x", "x^1"]}.get(power, [f"x^{power}"])
        if power == 0 and coeff is not None:
            monomials = monomials + [""]
        monomial = draw(st.sampled_from(monomials))
        tokens = [sign]
        if coeff is not None:
            tokens.append(repr(coeff))
            if monomial:
                tokens.append(draw(st.sampled_from(["", "*"])))
        tokens.extend(monomial.partition("^"))
        parts.extend(token + draw(_SPACE) for token in tokens if token)
        value = 1.0 if coeff is None else coeff
        terms[power] = terms.get(power, 0.0) + (-value if sign == "-" else value)
    expected = np.zeros(max(terms) + 1)
    for power, value in terms.items():
        expected[power] = value
    return draw(_SPACE) + "".join(parts), expected


class TestPolyParser:
    @settings(max_examples=100, deadline=None)
    @given(case=_rendered_polys())
    def test_rendered_terms_parse_to_their_summed_coefficients(self, case):
        text, expected = case
        np.testing.assert_array_equal(cli.parse_poly(text), expected)

    def test_monomial(self):
        np.testing.assert_array_equal(cli.parse_poly("x^3"), [0, 0, 0, 1])

    def test_mixed(self):
        np.testing.assert_array_equal(cli.parse_poly("1+2x-0.5x^2"), [1, 2, -0.5])

    def test_leading_sign_and_star(self):
        np.testing.assert_array_equal(cli.parse_poly("-x"), [0, -1])
        np.testing.assert_array_equal(cli.parse_poly("2*x^2"), [0, 0, 2])

    def test_whitespace_and_scientific(self):
        np.testing.assert_array_equal(cli.parse_poly(" 1e-1 + x "), [0.1, 1])

    def test_repeated_powers_accumulate(self):
        np.testing.assert_array_equal(cli.parse_poly("x+x"), [0, 2])

    @pytest.mark.parametrize("bad", ["", "x^", "x^-2", "2**x", "x^1.5", "y", "1+",
                                     "\u0663x", "x^\u0663", "x\u00a0+ 1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            cli.parse_poly(bad)

    def test_degree_cap_is_accepted(self):
        assert cli.parse_poly("x^20").size == 21

    @pytest.mark.parametrize("bad, message", [
        ("x^21", "degree 21, above the cap 20"),
        ("x^999999999999", "degree 1e+12, above the cap 20"),
        ("x^1e400", "degree inf, above the cap 20"),
        ("1e400x", "coefficient that is not finite"),
        ("1e308x+1e308x", "coefficient that is not finite"),
    ])
    def test_rejects_degree_and_nonfinite_before_allocating(self, bad, message, monkeypatch):
        def no_array(*args, **kwargs):
            raise AssertionError("array built")

        monkeypatch.setattr(cli.np, "zeros", no_array)
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.parse_poly(bad)


class TestGammaRuleParser:
    def test_power(self):
        assert cli.parse_gamma_rule("pow:2:1") == PowerLawGamma(2.0, 1.0)

    def test_linear(self):
        assert cli.parse_gamma_rule("lin:0.5") == LinearGamma(0.5)

    @pytest.mark.parametrize("bad", ["pow:2", "lin:0.5:1", "exp:2:1", "pow:a:b"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cli.parse_gamma_rule(bad)


def _report(verdict=True):
    return ExperimentReport(
        statistic="x^2", n=100, beta=2.0, gamma=1e6, zeta_or_xi=0.1,
        replicates=100, predicted_mean=0.0, predicted_variance=1.0,
        sample_mean=0.01, sample_variance=0.99, standard_error_mean=0.0995,
        z_score=0.1005, verdict=verdict, wall_time_s=0.5,
    )


class TestEmission:
    def test_csv_columns(self, tmp_path):
        path = tmp_path / "r.csv"
        cli.emit_report(_report(), "csv", str(path))
        header, row = path.read_text().strip().split("\n")
        assert header.split(",") == cli.REPORT_COLUMNS
        assert len(row.split(",")) == 13
        assert row.split(",")[-1] == "pass"

    def test_seventeen_digit_rendering(self):
        text = cli._report_text(_report(), "csv")
        assert "0.099500000000000005" in text or "0.0995" in text
        assert f"{1/3:.17g}" == "0.33333333333333331"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_json_writes_null_for_nonfinite_floats(self, value):
        report = _report()
        report.z_score = value
        report.predicted_variance = value
        text = cli._report_text(report, "json")
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["z_score"] is None and data["predicted_var"] is None
        assert data["sample_mean"] == report.sample_mean
        assert cli._report_text(report, "csv").split("\n")[1].split(",")[9] == cli._fmt(value)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        report = _report()
        cli.emit_report(report, "json", str(path))
        data = json.loads(path.read_text())
        assert data["statistic"] == report.statistic
        assert data["sample_mean"] == report.sample_mean
        assert data["predicted_var"] == report.predicted_variance
        assert data["verdict"] is True
        assert list(data) == cli.REPORT_COLUMNS

    def test_emit_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.emit_report(_report(), "csv", str(a))
        cli.emit_report(_report(), "csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_constant_samples(self):
        lines = cli._histogram_text(np.full(7, 3.5)).strip().split("\n")
        assert lines == ["3.5 7"]

    def test_histogram_counts(self):
        # 20 bins of width 0.05 on [0, 1]; the maximum falls in the last bin.
        text = cli._histogram_text(np.array([0.0, 0.01, 0.1, 0.9, 1.0]))
        rows = [line.split() for line in text.strip().split("\n")]
        assert [float(r[0]) for r in rows] == pytest.approx(np.arange(20) * 0.05 + 0.025)
        counts = [int(r[1]) for r in rows]
        assert counts[0] == 2 and counts[2] == 1 and counts[18] == 1 and counts[19] == 1
        assert sum(counts) == 5


# The README's command-line examples, as tools/readme_digests.py reads them.
README_COMMANDS = {
    "identities": ["identities", "--order", "12"],
    "sample": ["sample", "--n", "50", "--beta", "2", "--gamma", "5000", "--seed", "7"],
    "sample-coeffs": ["sample", "--n", "50", "--beta", "2", "--gamma", "5000", "--seed", "7",
                      "--what", "coeffs", "--mode", "none"],
    "moments-mp": ["moments", "--measure", "mp", "--order", "6", "--tau", "0.5"],
    "moments-nu-hat": ["moments", "--measure", "nu-hat", "--order", "9", "--xi", "1"],
    "rate-outlier": ["rate", "--outlier", "3.0"],
    "rate-ldp": ["rate", "--semicircle-atoms", "3:0.1"],
    "rate-mdp": ["rate", "--mdp-moments", "0,0,1,0,5", "--xi", "1", "--trunc", "5"],
    "clt": ["clt", "--n", "2000", "--beta", "2", "--gamma-rule", "pow:2:1", "--poly", "x^3",
            "--replicates", "10000", "--seed", "7"],
    "mdp": ["mdp", "--n", "2000", "--beta", "2", "--gamma-rule", "pow:2:1", "--b-n", "50",
            "--k", "3", "--replicates", "10000", "--seed", "7"],
    "mp-sanity": ["mp-sanity", "--n", "2000", "--beta", "2", "--tau", "0.5", "--k", "2",
                  "--replicates", "2000", "--seed", "7"],
    "clt-hist": ["clt", "--n", "500", "--beta", "2", "--gamma-rule", "pow:3:1", "--poly", "x^2",
                 "--replicates", "10000", "--seed", "7", "--hist-out", "hist.txt"],
}


def test_readme_commands_are_the_readmes():
    path = Path(__file__).resolve().parents[1] / "tools" / "readme_digests.py"
    spec = importlib.util.spec_from_file_location("readme_digests", path)
    readme_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(readme_digests)
    readme = (path.parents[1] / "README.md").read_text()
    assert list(README_COMMANDS.values()) == readme_digests.readme_commands(readme)


CLT_ARGS = ["clt", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1",
            "--poly", "x^2", "--replicates", "150", "--seed", "7"]


MDP_ARGS = ["mdp", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1", "--b-n", "50",
            "--k", "3", "--replicates", "150", "--seed", "7"]
MP_SANITY_ARGS = ["mp-sanity", "--n", "120", "--beta", "2", "--tau", "0.5", "--k", "2",
                  "--replicates", "150", "--seed", "7"]

# Flags that the rest of their command line leaves without effect: the
# command line, the flag, a value, and the error's closing words.
INEFFECTIVE_FLAGS = {
    "moments-xi-semicircle": (["moments", "--measure", "semicircle", "--order", "4"],
                              "xi", "2", "with --measure semicircle"),
    "moments-xi-arcsine": (["moments", "--measure", "arcsine", "--order", "4"],
                           "xi", "2", "with --measure arcsine"),
    "moments-xi-mp": (["moments", "--measure", "mp", "--order", "4", "--tau", "0.5"],
                      "xi", "1", "with --measure mp"),
    "moments-tau-semicircle": (["moments", "--measure", "semicircle", "--order", "4"],
                               "tau", "0.5", "with --measure semicircle"),
    "moments-tau-arcsine": (["moments", "--measure", "arcsine", "--order", "4"],
                            "tau", "0.5", "with --measure arcsine"),
    "moments-tau-nu": (["moments", "--measure", "nu", "--order", "4"],
                       "tau", "0.5", "with --measure nu"),
    "moments-tau-nu-hat": (["moments", "--measure", "nu-hat", "--order", "4", "--xi", "1"],
                           "tau", "0.5", "with --measure nu-hat"),
    "rate-xi-outlier": (["rate", "--outlier", "3"], "xi", "1", "without --mdp-moments"),
    "rate-variant-outlier": (["rate", "--outlier", "3"], "variant", "shifted",
                             "without --mdp-moments"),
    "rate-trunc-atoms": (["rate", "--semicircle-atoms", "3:0.1"], "trunc", "5",
                         "without --mdp-moments"),
    "rate-xi-atoms": (["rate", "--semicircle-atoms", "3:0.1"], "xi", "0",
                      "without --mdp-moments"),
}


def _forbid_runs(monkeypatch):
    """Make every experiment runner fail, to show that a check comes before any replicate."""
    def no_run(*args, **kwargs):
        raise AssertionError("replicates ran")

    for runner in ("run_clt", "run_mp_sanity"):
        monkeypatch.setattr(experiments, runner, no_run)


def _json_value(text):
    """A flag's text as the JSON value a config file would hold."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _take_files(directory):
    """Read and remove every file in ``directory`` except the config."""
    files = {}
    for path in directory.iterdir():
        if path.name != "c.json":
            files[path.name] = path.read_bytes()
            path.unlink()
    return files


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["sample", "--frobnicate", "1"],
        ["dance"],
        ["clt", "--n", "100"],
        ["identities", "--ord", "5"],
        CLT_ARGS + ["--workers", "1"],
        ["sample", "--n", "4", "--beta", "2", "--gamma", "20", "--seed", "3",
         "--mode", "sideways"],
        ["rate", "--mdp-moments", "1,2", "--variant", "other"],
        ["clt", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1", "--poly", "\u0663x",
         "--replicates", "150", "--seed", "7"],
        CLT_ARGS + ["--mode", "none"],
        MDP_ARGS + ["--mode", "none"],
    ], ids=["unknown-flag", "unknown-command", "missing-required", "abbreviation",
            "workers", "mode-choice", "variant-choice", "non-ascii-poly-digit",
            "clt-mode-none", "mdp-mode-none"])
    def test_usage_error_is_one_line(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["clt", "mdp"])
    def test_help_offers_only_the_centered_modes(self, command, capsys):
        # Both statistics are read from centered windows, so mode none is no choice.
        assert cli.main([command, "--help"]) == 0
        assert "--mode {standard,shifted}" in capsys.readouterr().out

    def test_invalid_n_is_usage_error(self, capsys):
        code = cli.main(["sample", "--n", "-5", "--beta", "2", "--gamma", "10",
                         "--seed", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["sample", "--frobnicate", "1"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["dance"]) == 2

    def test_missing_required(self, capsys):
        assert cli.main(["clt", "--n", "100"]) == 2

    def test_mp_moments_need_tau(self, capsys):
        assert cli.main(["moments", "--measure", "mp", "--order", "3"]) == 2

    def test_verdict_failure_is_exit_one(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(experiments, "run_clt", lambda *a, **k: _report(verdict=False))
        code = cli.main(["clt", "--n", "100", "--beta", "2", "--gamma-rule",
                         "pow:2:1", "--poly", "x^2", "--replicates", "100",
                         "--seed", "1", "--out", str(tmp_path / "r.csv")])
        assert code == 1

    def test_failed_replicate_is_usage_error(self, capsys):
        # beta = 0.001 at n = 3: replicate 0's trailing chi-square draw
        # underflows to 0, leaving a zero off-diagonal entry.
        code = cli.main(["clt", "--n", "3", "--beta", "0.001", "--gamma-rule",
                         "pow:2:1", "--poly", "x^2", "--replicates", "100",
                         "--seed", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: replicate 0 failed: off-diagonal entries must be strictly positive\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["mdp", "--n", "2000", "--beta", "2", "--gamma-rule", "pow:2:1", "--b-n", "inf",
          "--k", "3", "--replicates", "100", "--seed", "7"], "b_n must be positive and finite"),
        (["rate", "--outlier", "nan"], "|x| must be finite and >= 2"),
        (["rate", "--outlier", "inf"], "|x| must be finite and >= 2"),
        (["rate", "--outlier=-inf"], "|x| must be finite and >= 2"),
        (["rate", "--semicircle-atoms", "nan:0.1"], "atom location must be finite"),
        (["rate", "--semicircle-atoms", "3:0.1,4"], "atom spec must be loc:mass, got '4'"),
        (["rate", "--semicircle-atoms", "3:0.6,-3:0.4"],
         "atom masses must leave positive bulk mass"),
        (["rate", "--mdp-moments", "0,0,nan", "--xi", "1", "--trunc", "3"],
         "moments must be finite"),
        (["rate", "--mdp-moments", "0,0,1", "--xi", "inf", "--trunc", "3"],
         "xi must be finite and >= 0"),
        (["moments", "--measure", "nu-hat", "--order", "9", "--xi", "nan"],
         "xi must be finite and >= 0"),
        (CLT_ARGS + ["--poly", "x^999999999999"], "above the cap 20"),
        (CLT_ARGS + ["--poly", "1e400x"], "not finite"),
        (["moments", "--measure", "mp", "--order", "600", "--tau", "0.5"],
         "order 600 above the 64-bit-exact cap 40"),
        (["clt", "--n", "2000", "--beta", "2", "--gamma-rule", "pow:400:1", "--poly", "x^2",
          "--replicates", "100", "--seed", "1"], "gamma rule pow:400:1 overflows a float"),
    ], ids=["b-n-inf", "outlier-nan", "outlier-inf", "outlier-minus-inf", "atom-nan",
            "atom-no-colon", "atom-no-bulk", "mdp-moment-nan", "xi-inf", "nu-hat-xi-nan", "poly-degree", "poly-coefficient",
            "mp-order", "gamma-overflow"])
    def test_nonfinite_parameter_is_one_error_line(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["clt", "--n", "20", "--beta", "1e-300", "--gamma-rule", "pow:2:1e-300", "--poly", "x^2",
         "--replicates", "100", "--seed", "1"],
        ["mdp", "--n", "20", "--beta", "1e-300", "--gamma-rule", "pow:2:1e-300", "--b-n", "50",
         "--k", "2", "--replicates", "100", "--seed", "1"],
    ], ids=["clt", "mdp"])
    def test_underflowed_centering_is_one_error_line_and_no_warning(self, argv, capsys):
        # sqrt(2 gamma n beta) underflows to 0, so the centering divides by
        # zero; the replicate is refused without a numpy warning ahead of it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: replicate 0 failed: coefficients must be finite\n"

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--n", "20", "--beta", "2", "--gamma", "1e307", "--seed", "1"],
         "gamma = 1e+307 is too large at n = 20, beta = 2.0: the centering scale "
         "2*gamma*n*beta overflows a float"),
        (["clt", "--n", "20", "--beta", "2", "--gamma-rule", "pow:2:2.5e304", "--poly", "x^2",
          "--replicates", "100", "--seed", "1"],
         "gamma = 1e+307 is too large at n = 20, beta = 2.0: the centering scale "
         "2*gamma*n*beta overflows a float"),
        (["mdp", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1", "--b-n", "1e-320",
          "--k", "3", "--replicates", "150", "--seed", "7"],
         "x^3 at b_n = 1e-320: sqrt(n beta'/b_n), xi_n or the predicted variance is not "
         "finite"),
    ], ids=["sample-gamma", "clt-gamma", "mdp-subnormal-b-n"])
    def test_overflowing_scale_is_one_error_line_and_no_warning(self, argv, message,
                                                                monkeypatch, capsys):
        # Refused as a parameter error before any draw, not blamed on replicate 0
        # or reported as a failed verdict.
        monkeypatch.setattr(experiments, "_run", lambda *a, **k: pytest.fail("replicates ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unallocatable_replicate_count_is_one_error_line(self, monkeypatch, capsys):
        # 10^12 replicates need 7.28 TiB for their statistics. The allocation
        # is made to fail here, whatever this host's memory would allow.
        empty = np.empty

        def failing(shape, *args, **kwargs):
            if np.prod(shape) >= 10**12:
                raise MemoryError("Unable to allocate 7.28 TiB")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing)
        argv = ["clt", "--n", "20", "--beta", "2", "--gamma-rule", "pow:2:1", "--poly", "x^2",
                "--replicates", "1000000000000", "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 1000000000000 replicates need 8e+12 bytes for their "
                                "statistics, more than can be allocated\n")

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("argv", [CLT_ARGS, MDP_ARGS, MP_SANITY_ARGS],
                             ids=["clt", "mdp", "mp-sanity"])
    def test_hist_bins_is_a_usage_error(self, argv, form, tmp_path, monkeypatch, capsys):
        # The histogram always has 20 bins; the flag that once set them is gone.
        hist_path = tmp_path / "h.txt"
        if form == "flag":
            argv = argv + ["--hist-bins", "20", "--hist-out", str(hist_path)]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"hist-bins": 20,
                                                         "hist-out": str(hist_path)}))
            argv = argv + ["--config", str(tmp_path / "c.json")]
        _forbid_runs(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: --hist-bins")
        assert captured.err.count("\n") == 1
        assert not hist_path.exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("argv", [CLT_ARGS, MDP_ARGS, MP_SANITY_ARGS],
                             ids=["clt", "mdp", "mp-sanity"])
    def test_hist_out_naming_the_out_file_is_one_error_line(self, argv, form, tmp_path,
                                                            monkeypatch, capsys):
        # Two spellings of one file, which would end up holding only the report.
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "same.txt")
        if form == "flag":
            argv = argv + ["--hist-out", "same.txt", "--out", out]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"hist-out": "same.txt", "out": out}))
            argv = argv + ["--config", "c.json"]
        _forbid_runs(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --hist-out and --out name the same file\n"
        assert not (tmp_path / "same.txt").exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(INEFFECTIVE_FLAGS))
    def test_ineffective_flag_is_one_error_line(self, case, form, tmp_path, monkeypatch,
                                                capsys):
        argv, key, value, when = INEFFECTIVE_FLAGS[case]
        if form == "flag":
            argv = argv + [f"--{key}", value]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({key: _json_value(value)}))
            argv = argv + ["--config", str(config)]
        _forbid_runs(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --{key} has no effect {when}\n"

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("k", ["0", "21", "40"])
    def test_mdp_moment_above_cap_is_one_error_line(self, k, form, tmp_path, monkeypatch,
                                                    capsys):
        # Rejected before any replicate, naming the moment index and its cap:
        # the predicted variance reads the semicircle's m_2k, exact up to order 40.
        argv = MDP_ARGS[: MDP_ARGS.index("--k")] + MDP_ARGS[MDP_ARGS.index("--k") + 2:]
        if form == "flag":
            argv = argv + ["--k", k]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"k": int(k)}))
            argv = argv + ["--config", str(tmp_path / "c.json")]
        _forbid_runs(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: moment index must be in 1..20, got {k}\n"

    def test_mdp_moment_at_cap_runs(self, capsys):
        assert cli.main(MDP_ARGS + ["--k", "20"]) in (0, 1)
        header, row = capsys.readouterr().out.splitlines()
        assert header.startswith("statistic,") and row.startswith("m20,120,")

    def test_unwritable_path(self, capsys):
        code = cli.main(["identities", "--order", "5",
                         "--out", "/nonexistent-dir/x.csv"])
        assert code == 2


class TestIdentitiesCommand:
    def test_all_pass(self, capsys):
        assert cli.main(["identities", "--order", "12"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "check,result"
        assert len(out) == 7
        assert all(line.endswith(",pass") for line in out[1:])

    def test_order_cap(self, capsys):
        assert cli.main(["identities", "--order", "25"]) == 2

    def test_inverse_rows_check_catches_one_wrong_coefficient(self, monkeypatch):
        exact = moments.semicircle_orthonormal_poly

        def perturbed(k):
            coeffs = exact(k).copy()
            if k == 7:
                coeffs[3] += 1
            return coeffs

        monkeypatch.setattr(moments, "semicircle_orthonormal_poly", perturbed)
        checks = dict(cli._identity_checks(12))
        assert checks["dinv_rows_polynomials_order20"] is False
        assert checks["ddt_covariance_order12"] is True


class TestSampleCommand:
    def test_measure_output(self, capsys):
        assert cli.main(["sample", "--n", "4", "--beta", "2", "--gamma", "20",
                         "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "atom,weight"
        assert len(lines) == 5
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(sum(weights) - 1.0) < 1e-10

    def test_coeffs_output(self, capsys):
        assert cli.main(["sample", "--n", "3", "--beta", "2", "--gamma", "20",
                         "--seed", "3", "--what", "coeffs", "--mode", "none"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,diag,offdiag"
        assert lines[-1].endswith(",")  # no offdiag on the last row

    def test_coeffs_json_has_null_last_offdiag(self, capsys):
        assert cli.main(["sample", "--n", "3", "--beta", "2", "--gamma", "20",
                         "--seed", "3", "--what", "coeffs", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [type(row["offdiag"]) for row in rows] == [float, float, type(None)]

    def test_overflowing_draw_is_one_error_line_and_no_warning(self, capsys):
        # gamma is accepted, but z_1 z_2 overflows at this seed; the finite
        # check refuses the model without a numpy warning ahead of it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sample", "--n", "20", "--beta", "2", "--gamma", "2.2e306",
                             "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficients must be finite\n"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main(["sample", "--n", "6", "--beta", "2", "--gamma", "30",
                             "--seed", "9", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMomentsCommand:
    def test_nu_hat(self, capsys):
        assert cli.main(["moments", "--measure", "nu-hat", "--order", "5",
                         "--xi", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [-1.0, 0.0, -2.0, 0.0, -5.0]

    def test_arcsine_is_the_library_sequence(self, capsys):
        assert cli.main(["moments", "--measure", "arcsine", "--order", "8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == moments.arcsine_moments(8).tolist() == [0, 2, 0, 6, 0, 20, 0, 70]

    def test_semicircle_json(self, capsys):
        assert cli.main(["moments", "--measure", "semicircle", "--order", "4",
                         "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["value"] for row in data] == [0.0, 1.0, 0.0, 2.0]


class TestRateCommand:
    def test_outlier(self, capsys):
        assert cli.main(["rate", "--outlier", "3"]) == 0
        out = capsys.readouterr().out
        assert "f_outlier,1.4292546660112708" in out

    def test_ldp_with_atoms(self, capsys):
        assert cli.main(["rate", "--semicircle-atoms", "3:0.1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["ldp_rate"]) == pytest.approx(
            float(values["kl_term"]) + float(values["outlier_term"])
        )

    def test_mdp_series(self, capsys):
        assert cli.main(["rate", "--mdp-moments", "0,0,1,0,5", "--xi", "1",
                         "--trunc", "5"]) == 0
        out = capsys.readouterr().out
        assert "mdp_rate,0\n" in out

    def test_exactly_one_selector(self, capsys):
        assert cli.main(["rate", "--outlier", "3", "--mdp-moments", "1,2"]) == 2

    @pytest.mark.parametrize("flags, config", [
        ([], None),
        (["--outlier", "3", "--semicircle-atoms", "3:0.1"], None),
        (["--outlier", "3"], {"mdp-moments": "0,0,1"}),
        ([], {"semicircle-atoms": "3:0.1", "mdp-moments": "0,0,1"}),
    ], ids=["none", "two-flags", "flag-and-config", "two-in-config"])
    def test_selector_count_is_one_error_line(self, flags, config, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            flags = flags + ["--config", str(path)]
        assert cli.main(["rate"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_selector_flag_beats_same_selector_in_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"outlier": 5}))
        assert cli.main(["rate", "--config", str(path), "--outlier", "3"]) == 0
        assert capsys.readouterr().out == "quantity,value\nf_outlier,1.4292546660112708\n"

    @pytest.mark.parametrize("flags, value", [
        (["--outlier", "1e200"], "f_outlier,inf"),
        (["--semicircle-atoms", "1e200:0.1"], "ldp_rate,inf"),
    ])
    def test_far_outlier_is_inf(self, flags, value, capsys):
        assert cli.main(["rate"] + flags) == 0
        assert value in capsys.readouterr().out.split("\n")


class TestCltCommand:
    def test_run_imports_no_scipy(self):
        # The experiment commands need numpy alone; importing scipy.linalg
        # would cost about 0.3 s of start-up.
        code = ("import sys, lagspec.cli; "
                f"lagspec.cli.main({CLT_ARGS!r}); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)")
        env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout.startswith("statistic,")
        assert result.stderr == "[]\n"

    def test_runs_and_emits(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(CLT_ARGS + ["--out", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header.split(",") == cli.REPORT_COLUMNS

    def test_byte_identical_reruns(self, tmp_path):
        paths = []
        for tag in "abc":
            path = tmp_path / f"{tag}.csv"
            assert cli.main(CLT_ARGS + ["--out", str(path)]) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_histogram_emission(self, tmp_path):
        report_path = tmp_path / "r.csv"
        hist_path = tmp_path / "h.txt"
        assert cli.main(CLT_ARGS + ["--out", str(report_path),
                                     "--hist-out", str(hist_path)]) == 0
        lines = hist_path.read_text().strip().split("\n")
        assert len(lines) == 20
        assert sum(int(line.split()[1]) for line in lines) == 150

    @pytest.mark.parametrize("argv", [
        CLT_ARGS,
        ["mdp", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1", "--b-n", "50",
         "--k", "3", "--replicates", "150", "--seed", "7"],
        ["mp-sanity", "--n", "120", "--beta", "2", "--tau", "0.5", "--k", "2",
         "--replicates", "150", "--seed", "7"],
    ], ids=["clt", "mdp", "mp-sanity"])
    @pytest.mark.parametrize("unwritable", ["--hist-out", "--out"])
    def test_unwritable_output_leaves_no_other_output(self, argv, unwritable, tmp_path,
                                                      capsys):
        paths = {"--hist-out": tmp_path / "h.txt", "--out": None}
        paths[unwritable] = tmp_path / "missing-dir" / "x.txt"
        flags = [t for flag, path in paths.items() if path for t in (flag, str(path))]
        assert cli.main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("io error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    BASE = {"n": 120, "beta": 2, "gamma-rule": "pow:3:1", "poly": "x^2",
            "replicates": 150, "seed": 7}

    @pytest.mark.parametrize("name", sorted(README_COMMANDS))
    def test_readme_command_same_bytes_from_config(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        command, *flags = README_COMMANDS[name]
        assert cli.main([command] + flags) == 0
        flagged = capsys.readouterr()
        flagged_files = _take_files(tmp_path)
        config = {flag[2:]: _json_value(value) for flag, value in zip(flags[::2], flags[1::2])}
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert cli.main([command, "--config", "c.json"]) == 0
        assert capsys.readouterr() == flagged
        assert _take_files(tmp_path) == flagged_files

    @pytest.mark.parametrize("key,value", [
        ("gamma-rule", 2), ("n", True), ("n", None), ("n", ""), ("beta", [2]),
        ("seed", {"a": 1}), ("mode", "-x"), ("mode", "none"), ("workers", 1), ("repl", 150),
        ("gamma_rule", "pow:3:1"), ("config", "c.json"),
    ])
    def test_bad_value_is_one_error_line(self, key, value, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(self.BASE, **{key: value})))
        assert cli.main(["clt", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(config=st.dictionaries(
        st.sampled_from(["order", "format", "xi", "help", "config", "ord"])
        | st.text(max_size=6).filter(lambda key: key != "out"),
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
        | st.lists(st.integers(), max_size=2),
        max_size=3,
    ))
    # A control character in a key once split the error over two lines.
    @example(config={"\n": None})
    def test_any_flat_config_runs_or_is_one_error_line(self, config, tmp_path_factory):
        path = tmp_path_factory.mktemp("config") / "c.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["identities", "--config", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("key,value", [("poly", 3), ("poly", "-x^2"), ("out", 7)])
    def test_value_behaves_like_flag(self, key, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(self.BASE))
        assert cli.main(["clt", "--config", "c.json", f"--{key}={value}"]) == 0
        flagged = capsys.readouterr()
        flagged_files = _take_files(tmp_path)
        config.write_text(json.dumps(dict(self.BASE, **{key: value})))
        assert cli.main(["clt", "--config", "c.json"]) == 0
        assert capsys.readouterr() == flagged
        assert _take_files(tmp_path) == flagged_files

    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "n": 100, "beta": 2.0, "gamma-rule": "pow:3:1", "poly": "x^2",
            "replicates": 400, "seed": 5,
        }))
        out = tmp_path / "r.csv"
        assert cli.main(["clt", "--config", str(config), "--n", "140",
                         "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1]
        assert row.split(",")[1] == "140"  # flag overrode config

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"frobnicate": 1}))
        assert cli.main(["identities", "--config", str(config)]) == 2

    def test_config_alone_suffices(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "n": 5, "beta": 2.0, "gamma": 25.0, "seed": 4,
        }))
        out = tmp_path / "s.csv"
        assert cli.main(["sample", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text().startswith("atom,weight")

    def test_config_sets_flags_that_have_defaults(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"format": "json", "order": 4}))
        assert cli.main(["moments", "--measure", "semicircle", "--config", str(config)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["value"] for row in data] == [0.0, 1.0, 0.0, 2.0]

    def test_non_integral_seed_rejected(self, tmp_path, capsys):
        # A JSON float for an integer flag is an error, not truncated to 1.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 1.5}))
        assert cli.main(["clt", "--n", "20", "--beta", "2", "--gamma-rule", "pow:2:1",
                         "--poly", "x^2", "--replicates", "100",
                         "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "seed" in captured.err

    def test_flag_beats_config_beats_default(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"format": "json", "xi": 2.0}))
        assert cli.main(["moments", "--measure", "nu", "--order", "3", "--format", "csv",
                         "--config", str(config)]) == 0
        assert capsys.readouterr().out == "k,value\n1,0\n2,0\n3,2\n"
        assert cli.main(["moments", "--measure", "nu", "--order", "3"]) == 0
        assert capsys.readouterr().out == "k,value\n1,0\n2,0\n3,1\n"


class TestMpSanityCommand:
    def test_json_report_parses_with_nan_prediction_variance(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["mp-sanity", "--n", "200", "--beta", "2", "--tau", "1",
                         "--k", "1", "--replicates", "100", "--seed", "3",
                         "--format", "json", "--out", str(out)])
        assert code in (0, 1)
        # The NaN prediction is JSON null; a bare NaN token is not JSON.
        data = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert data["predicted_mean"] == pytest.approx(1.0, abs=1e-9)
        assert data["predicted_var"] is None

    def test_histogram_emission(self, tmp_path):
        hist_path = tmp_path / "h.txt"
        code = cli.main(["mp-sanity", "--n", "200", "--beta", "2", "--tau", "0.5",
                         "--k", "2", "--replicates", "120", "--seed", "3",
                         "--out", str(tmp_path / "r.csv"), "--hist-out", str(hist_path)])
        assert code in (0, 1)
        lines = hist_path.read_text().strip().split("\n")
        assert len(lines) == 20
        assert sum(int(line.split()[1]) for line in lines) == 120


def _modules_loaded(argv) -> list:
    """lagspec modules, json, numpy.random and scipy modules in ``sys.modules``
    after ``import lagspec.cli`` and, unless ``argv`` is None, ``main(argv)``,
    in a fresh interpreter."""
    code = ("import contextlib, io, sys\n"
            "import lagspec.cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert lagspec.cli.main(argv) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('lagspec', 'scipy', 'json') or m == 'numpy.random')))")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    return out.split()


class TestStartupImports:
    """Each command loads the lagspec modules it runs and no others."""

    def test_import_loads_errors_only(self):
        assert _modules_loaded(None) == ["lagspec", "lagspec.cli", "lagspec.errors"]

    @pytest.mark.parametrize("name", ["identities", "moments-mp", "moments-nu-hat"])
    def test_reference_commands_load_moments_only(self, name):
        assert _modules_loaded(README_COMMANDS[name]) == [
            "lagspec", "lagspec.cli", "lagspec.errors", "lagspec.moments"]

    @pytest.mark.parametrize("name", ["rate-outlier", "rate-ldp", "rate-mdp"])
    def test_rate_loads_no_sampler(self, name):
        loaded = _modules_loaded(README_COMMANDS[name])
        assert "lagspec.rates" in loaded
        assert not {"lagspec.ensembles", "lagspec.experiments", "lagspec.spectral"} & set(loaded)

    @pytest.mark.parametrize("name", ["sample", "sample-coeffs"])
    def test_readme_sample_loads_no_scipy(self, name):
        loaded = _modules_loaded(README_COMMANDS[name])
        assert "lagspec.spectral" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_readme_clt_loads_no_rates_and_no_scipy(self):
        loaded = _modules_loaded(README_COMMANDS["clt"])
        assert "lagspec.experiments" in loaded
        assert "lagspec.rates" not in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("name", ["clt", "mdp", "mp-sanity"])
    def test_readme_experiments_load_no_numpy_random(self, name):
        # The replicates' draws are computed from their seeds alone.
        assert "numpy.random" not in _modules_loaded(README_COMMANDS[name])


SUBCOMMANDS = ["sample", "moments", "rate", "clt", "mdp", "mp-sanity", "identities"]


def _subcommands(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(parser) -> list:
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
            for a in parser._actions]


def _full_parser(build_parser=cli.build_parser):
    """The lagspec parser with every subcommand's flags built up front."""
    parser = build_parser()
    for sub in _subcommands(parser).values():
        sub.add_flags()
    return parser


class TestParserParity:
    """main's parser, which builds the invoked command's flags only, reads
    every command line like the full parser."""

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_command_flags_equal_full_parser(self, name):
        full = _subcommands(_full_parser())
        lazy = cli.build_parser()
        with contextlib.suppress(ValueError):  # a missing required flag
            lazy.parse_known_args([name])
        built = {n: sub for n, sub in _subcommands(lazy).items() if len(sub._actions) > 1}
        assert list(built) == [name]
        assert _flags(built[name]) == _flags(full[name])

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], [], ["dance"], ["--frobnicate"], ["-x", "clt", "--n", "5"],
        ["clt", "--rep", "5"], ["identities", "--ord", "3"], ["clt"],
        ["moments", "--measure", "x"], ["rate", "--variant", "other"],
    ] + [[name, "--help"] for name in SUBCOMMANDS])
    def test_same_bytes_and_exit_code_as_full_parser(self, argv, monkeypatch, capsys):
        got = (cli.main(argv), *capsys.readouterr())
        monkeypatch.setattr(cli, "build_parser", _full_parser)
        want = (cli.main(argv), *capsys.readouterr())
        assert got == want
