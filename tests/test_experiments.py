"""Monte Carlo harness: predictions, determinism, verdicts at desk scale."""

import warnings

import numpy as np
import pytest
from scipy import stats

from lagspec.ensembles import (
    _BLOCK,
    RescalingMode,
    derive_seed,
    make_rng,
    rescale,
    sample_laguerre_tridiagonal,
)
from lagspec.errors import NumericalError
from lagspec.experiments import (
    ExperimentConfig,
    LinearGamma,
    PowerLawGamma,
    format_poly,
    predicted_clt,
    run_clt,
    run_mp_sanity,
)
from lagspec.moments import NuVariant, nu_moments, semicircle_moments
from lagspec.spectral import JacobiCoefficients, moments_via_operator

X2 = np.array([0.0, 0.0, 1.0])
X3 = np.array([0.0, 0.0, 0.0, 1.0])
X5 = np.array([0.5, -1.0, 0.25, 2.0, -0.75, 1.5])


def monomial(k):
    """Coefficients of x^k, low to high."""
    return np.eye(k + 1)[k]


def clt_config(**kw):
    base = dict(
        n=300, beta=2.0, gamma_rule=PowerLawGamma(3.0), replicates=400,
        master_seed=101, statistic=X2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestGammaRules:
    def test_power_law_requires_superlinear(self):
        with pytest.raises(ValueError):
            PowerLawGamma(1.0)
        assert PowerLawGamma(2.0, 3.0).gamma_at(10, 1.0) == 300.0

    @pytest.mark.parametrize("coefficient", [0.0, -1.0, np.nan])
    def test_power_law_coefficient_must_be_positive(self, coefficient):
        with pytest.raises(ValueError, match="^coefficient must be positive, got "):
            PowerLawGamma(2.0, coefficient)

    def test_power_law_past_the_float_range_is_a_value_error(self):
        config = clt_config(n=2000, gamma_rule=PowerLawGamma(400.0))
        with pytest.raises(ValueError, match=r"^gamma rule pow:400:1 overflows a float at "
                                             r"n = 2000$"):
            config.ensemble_params()

    def test_linear_range(self):
        with pytest.raises(ValueError):
            LinearGamma(0.0)
        with pytest.raises(ValueError):
            LinearGamma(1.2)
        assert LinearGamma(0.5).gamma_at(100, 1.0) == 200.0


class TestExperimentConfig:
    @pytest.mark.parametrize("seed", [1.5, 101.0, np.float64(7.0)])
    def test_non_integer_master_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            clt_config(master_seed=seed)

    @pytest.mark.parametrize("replicates", [150.0, 150.5, np.float64(150.0), "150"],
                             ids=["float", "fraction", "numpy-float", "str"])
    def test_non_integer_replicates_rejected(self, replicates):
        with pytest.raises(ValueError, match="replicates must be an integer"):
            clt_config(replicates=replicates)

    @pytest.mark.parametrize("replicates", [0, -5])
    def test_replicates_below_one_rejected(self, replicates):
        with pytest.raises(ValueError, match=rf"^replicates must be >= 1, got {replicates}$"):
            clt_config(replicates=replicates)

    @pytest.mark.parametrize("b_n", [np.inf, np.nan, 0.0, -1.0])
    def test_non_finite_or_nonpositive_b_n_rejected(self, b_n):
        with pytest.raises(ValueError, match="b_n must be positive and finite"):
            clt_config(b_n=b_n)

    @pytest.mark.parametrize("seed", [np.int64(101), np.uint64(101)])
    def test_numpy_integer_master_seed_accepted(self, seed):
        config = clt_config(master_seed=seed, statistic=X3, replicates=100)
        reference = run_clt(clt_config(statistic=X3, replicates=100))
        assert np.array_equal(run_clt(config).samples, reference.samples)


class TestPredictedClt:
    def test_x_squared(self):
        for zeta in (0.0, 0.5, 2.0):
            mean, var = predicted_clt(X2, zeta)
            assert mean == 0.0 and var == 1.0

    def test_x_cubed_standard(self):
        mean, var = predicted_clt(X3, 1.0)
        assert mean == 1.0 and var == 5.0

    def test_x_cubed_shifted(self):
        mean, var = predicted_clt(X3, 1.0, NuVariant.SHIFTED)
        assert mean == -2.0 and var == 5.0

    def test_constant(self):
        mean, var = predicted_clt(np.array([3.0]), 1.0)
        assert mean == 0.0 and var == 0.0

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            predicted_clt(np.zeros(22), 0.0)

    def test_negative_zeta_rejected(self):
        with pytest.raises(ValueError, match=r"^zeta must be >= 0, got -0.5$"):
            predicted_clt(X2, -0.5)

    def test_variance_equals_covariance_quadratic_form(self):
        # The limit variance is also alpha^T (D D^T) alpha over the
        # nonconstant coefficients; integer inputs make the match exact.
        from lagspec.moments import d_matrix

        rng = np.random.default_rng(19)
        for _ in range(5):
            degree = int(rng.integers(1, 9))
            alpha = rng.integers(-3, 4, size=degree).astype(np.int64)
            poly = np.zeros(degree + 1)
            poly[0] = float(rng.integers(-3, 4))
            poly[1:] = alpha
            _, var = predicted_clt(poly, 0.0)
            d = d_matrix(degree)
            quad_form = int(alpha @ (d @ d.T) @ alpha)
            assert var == float(quad_form)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_shifted_minus_standard_is_exact(self, k):
        # Difference of predicted means is m_k(shifted) - m_k(standard),
        # an integer multiple of zeta; exact in floating point.
        zeta = 2.0
        poly = np.zeros(k + 1)
        poly[k] = 1.0
        mean_std, _ = predicted_clt(poly, zeta)
        mean_sh, _ = predicted_clt(poly, zeta, NuVariant.SHIFTED)
        expected = nu_moments(k, zeta, NuVariant.SHIFTED)[k - 1] - nu_moments(k, zeta)[k - 1]
        assert mean_sh - mean_std == expected


def reference_samples(config, order, statistic, count=None):
    """Replicate statistics rebuilt one replicate at a time from the public stages.

    Each replicate draws the full model; uncentered (Marchenko-Pastur) runs
    divide it by 2*gamma as run_mp_sanity documents.
    """
    params = config.ensemble_params()
    out = []
    for i in range(config.replicates if count is None else count):
        raw = sample_laguerre_tridiagonal(make_rng(derive_seed(config.master_seed, i)), params)
        if params.mode is RescalingMode.NONE:
            scale = 1.0 / (2.0 * params.gamma)
            coeffs = JacobiCoefficients(raw.diag * scale, raw.offdiag * scale)
        else:
            coeffs = rescale(raw, params)
        out.append(statistic(moments_via_operator(coeffs, order)))
    return np.array(out)


def clt_reference(config, count=None):
    poly = np.asarray(config.statistic, dtype=np.float64)
    degree = poly.size - 1
    scale = np.sqrt(config.n * config.beta / 2.0)
    msc = semicircle_moments(degree).astype(np.float64)
    return reference_samples(
        config, degree, lambda m: float(scale * np.dot(poly[1:], m - msc)), count
    )


def mdp_reference(config):
    k = config.statistic.size - 1
    prefactor = float(np.sqrt(config.n * config.beta / 2.0 / config.b_n))
    m_sc_k = float(semicircle_moments(k)[k - 1])
    return reference_samples(config, k, lambda m: prefactor * (float(m[k - 1]) - m_sc_k))


def moment_reference(config):
    k = config.statistic
    return reference_samples(config, k, lambda m: float(m[k - 1]))


ORACLE_CASES = {
    "clt-x3": (run_clt, clt_reference, clt_config(statistic=X3, replicates=200)),
    "clt-degree5-shifted": (run_clt, clt_reference, clt_config(
        n=200, gamma_rule=PowerLawGamma(2.0), statistic=X5, replicates=200,
        mode=RescalingMode.SHIFTED)),
    "mdp-k3": (run_clt, mdp_reference, ExperimentConfig(
        n=300, beta=2.0, gamma_rule=PowerLawGamma(2.0), replicates=200, master_seed=5,
        statistic=X3, b_n=20.0)),
    "mp-sanity-k2": (run_mp_sanity, moment_reference, ExperimentConfig(
        n=300, beta=2.0, gamma_rule=LinearGamma(0.5), replicates=200, master_seed=9,
        statistic=2, mode=RescalingMode.NONE)),
    "clt-mixed-quadratic": (run_clt, clt_reference, clt_config(
        statistic=np.array([1.0, 2.0, -0.5]), replicates=200)),
    # 17 coefficients: long enough for BLAS's vectorized dot kernel.
    "clt-degree17": (run_clt, clt_reference, clt_config(
        n=100, statistic=np.linspace(-1.0, 1.0, 18), replicates=150)),
    "clt-degree20": (run_clt, clt_reference, clt_config(
        n=100, statistic=np.cos(np.arange(21.0)), replicates=150)),
    "clt-n3-degree5-window-clipped": (run_clt, clt_reference, clt_config(
        n=3, gamma_rule=PowerLawGamma(2.0), statistic=X5, replicates=150)),
    "clt-partial-last-block": (run_clt, clt_reference, clt_config(
        n=20, replicates=_BLOCK + 77, master_seed=3)),
}


class TestReplicateDriver:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_samples_match_per_replicate_reference(self, case):
        # The driver draws only the window the moments read and reduces a
        # block of replicates at a time; the samples must still equal the
        # full per-replicate pipeline bit for bit.
        run, reference, config = ORACLE_CASES[case]
        report = run(config)
        assert np.array_equal(report.samples, reference(config))

    def test_same_config_twice(self):
        config = clt_config(statistic=X3, replicates=150)
        first = run_clt(config)
        second = run_clt(config)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_failure_reports_index(self):
        # beta = 0.02 at n = 3: a trailing chi-square draw occasionally
        # underflows to 0, and the first replicate where that happens (3843
        # at this seed) lies past the first block of replicates.
        config = clt_config(n=3, beta=0.02, gamma_rule=PowerLawGamma(2.0),
                            replicates=4500, master_seed=33)
        params = config.ensemble_params()
        first_bad = None
        for i in range(config.replicates):
            try:
                sample_laguerre_tridiagonal(make_rng(derive_seed(config.master_seed, i)), params)
            except ValueError:
                first_bad = i
                break
        assert first_bad is not None and first_bad > _BLOCK
        with pytest.raises(NumericalError, match=f"^replicate {first_bad} failed: off-diagonal"):
            run_clt(config)

    def test_small_beta_reads_only_the_window(self):
        # At beta = 0.01, n = 50 replicate 14 of the full model has an
        # off-diagonal entry that underflows to 0 outside the leading window.
        # m_1 and m_2 read only that window, so the run completes.
        config = clt_config(n=50, beta=0.01, gamma_rule=PowerLawGamma(2.0),
                            replicates=1000, master_seed=42)
        with pytest.raises(ValueError, match="strictly positive"):
            clt_reference(config, count=15)
        report = run_clt(config)
        assert report.samples.shape == (1000,)
        assert np.array_equal(report.samples[:14], clt_reference(config, count=14))


class TestRunClt:
    def test_small_scale_passes(self):
        report = run_clt(clt_config())
        assert report.verdict
        assert abs(report.sample_mean) < 4 * report.standard_error_mean
        assert 0.85 <= report.sample_variance / report.predicted_variance <= 1.15

    def test_report_internal_consistency(self):
        report = run_clt(clt_config(replicates=250))
        assert report.standard_error_mean == pytest.approx(
            np.sqrt(report.sample_variance / report.replicates)
        )
        assert report.replicates == 250
        assert report.statistic == "x^2"
        assert report.zeta_or_xi == pytest.approx(300 * 1.0 / np.sqrt(300.0**3))

    def test_requires_replication(self):
        with pytest.raises(ValueError, match="100"):
            run_clt(clt_config(replicates=50))

    def test_requires_centering_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_clt(clt_config(mode=RescalingMode.NONE))

    def test_shifted_mode_shifts_the_mean(self):
        # gamma = n^2 puts zeta_n = 1: standard mean 1, shifted mean -2.
        config = clt_config(
            n=400, gamma_rule=PowerLawGamma(2.0), statistic=X3, replicates=1500,
            master_seed=7,
        )
        std = run_clt(config)
        sh = run_clt(clt_config(
            n=400, gamma_rule=PowerLawGamma(2.0), statistic=X3, replicates=1500,
            master_seed=7, mode=RescalingMode.SHIFTED,
        ))
        assert std.predicted_mean == 1.0 and sh.predicted_mean == -2.0
        assert std.verdict and sh.verdict

    def test_report_carries_samples(self):
        report = run_clt(clt_config(replicates=120))
        assert report.samples.shape == (120,)
        assert report.sample_mean == pytest.approx(report.samples.mean())

    @pytest.mark.parametrize(
        "mode,expected",
        [(RescalingMode.STANDARD, 0.0), (RescalingMode.SHIFTED, -1.0)],
    )
    def test_first_moment_statistic_centering(self, mode, expected):
        # For p = x the statistic is exactly centered: zero under the
        # standard rescaling, minus zeta_n under the shifted one (the
        # extra n*beta pulled off the diagonal).
        config = clt_config(
            n=400, gamma_rule=PowerLawGamma(2.0), statistic=np.array([0.0, 1.0]),
            replicates=1500, master_seed=55, mode=mode,
        )
        report = run_clt(config)
        assert report.zeta_or_xi == pytest.approx(1.0)
        assert report.predicted_mean == expected
        assert report.predicted_variance == 1.0
        assert report.verdict

    def test_speed_b_n_rescales_the_clt(self):
        # sqrt(b_n) divides the statistic and its predicted mean alike, so
        # the z-score is the CLT's; the predicted variance divides by b_n.
        config = dict(gamma_rule=PowerLawGamma(2.0), statistic=X3, replicates=200)
        clt = run_clt(clt_config(**config))
        for b_n in (7.0, 50.0):
            mdp = run_clt(clt_config(b_n=b_n, **config))
            assert mdp.z_score == pytest.approx(clt.z_score, rel=0, abs=1e-12)
            assert mdp.predicted_mean == pytest.approx(clt.predicted_mean / np.sqrt(b_n),
                                                       rel=1e-15)
            assert mdp.predicted_variance == clt.predicted_variance / b_n
            assert mdp.zeta_or_xi == pytest.approx(clt.zeta_or_xi / np.sqrt(b_n), rel=1e-15)

    def test_samples_look_gaussian(self):
        # zeta ~ 0 regime: chi-square goodness of fit against N(0, 1).
        config = clt_config(n=500, replicates=10_000, master_seed=31)
        report = run_clt(config)
        counts, edges = np.histogram(report.samples, bins=20)
        probs = stats.norm.cdf(edges[1:]) - stats.norm.cdf(edges[:-1])
        expected = probs * report.samples.size
        mask = expected > 1.0
        chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        p_value = stats.chi2.sf(chi2, mask.sum() - 1)
        assert p_value > 0.001


class TestRunMdpCentering:
    """The moderate-deviation centering: run_clt on x^k at speed b_n."""

    def test_odd_moment_centering(self):
        config = ExperimentConfig(
            n=500, beta=2.0, gamma_rule=PowerLawGamma(2.0), replicates=2000,
            master_seed=5, statistic=X3, b_n=20.0,
        )
        report = run_clt(config)
        xi_n = 500.0 / np.sqrt(20.0 * 500.0**2)
        assert report.predicted_mean == pytest.approx(xi_n)
        assert report.verdict

    @pytest.mark.parametrize("k", [2, 4])
    def test_even_moment_predicts_zero(self, k):
        config = ExperimentConfig(
            n=400, beta=2.0, gamma_rule=PowerLawGamma(2.0), replicates=1500,
            master_seed=6, statistic=monomial(k), b_n=20.0,
        )
        report = run_clt(config)
        assert report.predicted_mean == 0.0
        assert report.verdict

    def test_xi_zero_regime(self):
        config = ExperimentConfig(
            n=200, beta=2.0, gamma_rule=PowerLawGamma(4.0), replicates=1000,
            master_seed=8, statistic=X3, b_n=15.0,
        )
        report = run_clt(config)
        xi_n = 200.0 / np.sqrt(15.0 * 200.0**4)
        assert report.predicted_mean == pytest.approx(xi_n)
        assert report.predicted_mean < 0.002
        assert abs(report.sample_mean) < 4 * report.standard_error_mean + 0.002

    @pytest.mark.parametrize("statistic, b_n, label", [
        (X3, 1e-320, r"x\^3 at b_n = 1e-320"),
        (X3, 5e-324, r"x\^3 at b_n = 5e-324"),
        (1e200 * X2, None, r"1e\+200x\^2 at b_n = 1.0"),
    ], ids=["subnormal-b-n", "smallest-b-n", "huge-coefficient"])
    def test_overflowing_scale_refused_before_any_replicate(self, statistic, b_n, label,
                                                            monkeypatch):
        # sqrt(n beta'/b_n) and the predicted variance / b_n overflow; so does
        # the predicted variance of a polynomial with a huge coefficient.
        monkeypatch.setattr("lagspec.experiments._run",
                            lambda *a, **kw: pytest.fail("replicates ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{label}: sqrt\(n beta'/b_n\), xi_n or "
                                                 "the predicted variance is not finite$"):
                run_clt(clt_config(statistic=statistic, b_n=b_n))

    @pytest.mark.parametrize("k", [21, 40])
    def test_moment_cap(self, k, monkeypatch):
        # The predicted variance reads the semicircle's m_2k, exact up to order 40,
        # so x^k above the cap is refused before any replicate runs.
        monkeypatch.setattr("lagspec.experiments._run",
                            lambda *a, **kw: pytest.fail("replicates ran"))
        with pytest.raises(ValueError, match=rf"^polynomial degree {k} above cap 20$"):
            run_clt(clt_config(statistic=monomial(k), b_n=20.0))


class TestRunMpSanity:
    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_first_moment_is_one(self, tau):
        config = ExperimentConfig(
            n=400, beta=2.0, gamma_rule=LinearGamma(tau), replicates=300,
            master_seed=9, statistic=1, mode=RescalingMode.NONE,
        )
        report = run_mp_sanity(config)
        assert report.verdict
        assert abs(report.sample_mean - 1.0) < 0.05

    def test_second_moment_tau_one(self):
        config = ExperimentConfig(
            n=400, beta=2.0, gamma_rule=LinearGamma(1.0), replicates=300,
            master_seed=10, statistic=2, mode=RescalingMode.NONE,
        )
        report = run_mp_sanity(config)
        assert report.verdict and report.predicted_mean == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 5])
    def test_moment_index_outside_one_to_four_rejected(self, k, monkeypatch):
        monkeypatch.setattr("lagspec.experiments._run",
                            lambda *a, **kw: pytest.fail("replicates ran"))
        config = clt_config(statistic=k, gamma_rule=LinearGamma(0.5), mode=RescalingMode.NONE)
        with pytest.raises(ValueError, match=rf"^moment index must be in 1..4, got {k}$"):
            run_mp_sanity(config)

    def test_requires_linear_rule(self):
        config = clt_config(statistic=1, mode=RescalingMode.NONE)
        with pytest.raises(ValueError, match="linear"):
            run_mp_sanity(config)

    def test_refuses_b_n(self):
        config = ExperimentConfig(
            n=100, beta=2.0, gamma_rule=LinearGamma(1.0), replicates=100,
            master_seed=1, statistic=1, mode=RescalingMode.NONE, b_n=20.0,
        )
        with pytest.raises(ValueError, match="^MP sanity takes no speed b_n$"):
            run_mp_sanity(config)

    def test_requires_uncentered(self):
        config = ExperimentConfig(
            n=100, beta=2.0, gamma_rule=LinearGamma(1.0), replicates=100,
            master_seed=1, statistic=1,
        )
        with pytest.raises(ValueError, match="uncentered"):
            run_mp_sanity(config)


class TestBadStatistic:
    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError, match="no coefficients"):
            run_clt(clt_config(statistic=np.array([])))

    @pytest.mark.parametrize("statistic", [3, np.array([[0.0, 0.0], [0.0, 1.0]])],
                             ids=["moment-index", "2-d"])
    def test_non_1d_polynomial_rejected(self, statistic):
        # Neither runs as a polynomial: 3 would be the constant 3, and the
        # 2-D array would be flattened into x^3.
        with pytest.raises(ValueError, match=r"1-D coefficient array.*x\^k"):
            run_clt(clt_config(statistic=statistic))

    @pytest.mark.parametrize("run, config", [
        (run_mp_sanity, clt_config(statistic=1.5, gamma_rule=LinearGamma(0.5),
                                   mode=RescalingMode.NONE)),
    ], ids=["mp-sanity"])
    def test_non_integral_moment_index_rejected(self, run, config):
        with pytest.raises(ValueError, match="statistic must be an integer"):
            run(config)


class TestFormatPoly:
    def test_cases(self):
        assert format_poly(X3) == "x^3"
        assert format_poly(np.array([1.0, 2.0, -0.5])) == "1 + 2x - 0.5x^2"
        assert format_poly(np.array([0.0])) == "0"
        assert format_poly(np.array([0.0, -1.0])) == "-x"
