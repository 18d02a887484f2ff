"""CLI parsing, emission formats, exit codes, and byte-level determinism."""

import json

import numpy as np
import pytest

from lagspec import cli
from lagspec.experiments import ExperimentReport, LinearGamma, PowerLawGamma


class TestPolyParser:
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

    @pytest.mark.parametrize("bad", ["", "x^", "x^-2", "2**x", "x^1.5", "y", "1+"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
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
        z_score=0.1005, verdict=verdict, verdict_rule="rule", wall_time_s=0.5,
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
        text = cli.report_csv(_report())
        assert "0.099500000000000005" in text or "0.0995" in text
        assert f"{1/3:.17g}" == "0.33333333333333331"

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

    def test_histogram_constant_samples(self, tmp_path):
        path = tmp_path / "h.txt"
        cli.emit_histogram(np.full(7, 3.5), 10, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines == ["3.5 7"]

    def test_histogram_single_bin(self, tmp_path):
        path = tmp_path / "h.txt"
        cli.emit_histogram(np.array([0.0, 1.0, 2.0]), 1, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines == ["1 3"]

    def test_histogram_counts(self, tmp_path):
        path = tmp_path / "h.txt"
        cli.emit_histogram(np.array([0.0, 0.1, 0.9, 1.0]), 2, str(path))
        rows = [line.split() for line in path.read_text().strip().split("\n")]
        assert [int(r[1]) for r in rows] == [2, 2]

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            cli.emit_histogram(np.array([1.0]), 0)


class TestExitCodes:
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
        monkeypatch.setattr(cli, "run_clt", lambda *a, **k: _report(verdict=False))
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


class TestCltCommand:
    ARGS = ["clt", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1",
            "--poly", "x^2", "--replicates", "150", "--seed", "7"]

    def test_runs_and_emits(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(self.ARGS + ["--out", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header.split(",") == cli.REPORT_COLUMNS

    def test_byte_identical_across_worker_counts(self, tmp_path):
        paths = []
        for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
            path = tmp_path / f"{tag}.csv"
            assert cli.main(self.ARGS + ["--workers", workers, "--out", str(path)]) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_histogram_emission(self, tmp_path):
        report_path = tmp_path / "r.csv"
        hist_path = tmp_path / "h.txt"
        assert cli.main(self.ARGS + ["--out", str(report_path), "--hist-bins", "8",
                                     "--hist-out", str(hist_path)]) == 0
        lines = hist_path.read_text().strip().split("\n")
        assert len(lines) == 8
        assert sum(int(line.split()[1]) for line in lines) == 150


class TestWorkersFlag:
    WARNING = "warning: --workers has no effect; replicates run in one thread\n"
    COMMANDS = {
        "clt": ["clt", "--n", "120", "--beta", "2", "--gamma-rule", "pow:3:1",
                "--poly", "x^2", "--replicates", "150", "--seed", "7"],
        "mdp": ["mdp", "--n", "200", "--beta", "2", "--gamma-rule", "pow:2:1",
                "--b-n", "50", "--k", "3", "--replicates", "300", "--seed", "7"],
        "mp-sanity": ["mp-sanity", "--n", "200", "--beta", "2", "--tau", "0.5",
                      "--k", "2", "--replicates", "100", "--seed", "7"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_warns_once_and_output_unchanged(self, command, source, tmp_path, capsys):
        args = self.COMMANDS[command]
        assert cli.main(args) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        if source == "flag":
            extra = ["--workers", "4"]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"workers": 4}))
            extra = ["--config", str(config)]
        assert cli.main(args + extra) == 0
        warned = capsys.readouterr()
        assert warned.out == plain.out
        assert warned.err == self.WARNING


class TestConfigFile:
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
        data = json.loads(out.read_text())
        assert data["predicted_mean"] == pytest.approx(1.0, abs=1e-9)
        assert np.isnan(data["predicted_var"])

    def test_histogram_emission(self, tmp_path):
        hist_path = tmp_path / "h.txt"
        code = cli.main(["mp-sanity", "--n", "200", "--beta", "2", "--tau", "0.5",
                         "--k", "2", "--replicates", "120", "--seed", "3",
                         "--out", str(tmp_path / "r.csv"), "--hist-bins", "6",
                         "--hist-out", str(hist_path)])
        assert code in (0, 1)
        lines = hist_path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert sum(int(line.split()[1]) for line in lines) == 120
