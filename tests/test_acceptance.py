"""Acceptance suite: one test per criterion, each printing a PASS line.

The asymptotic statements are checked at desk scale: exact integer
identities at zero tolerance, oracle equivalences at stated tolerances,
rate-function minima, and seeded Monte Carlo runs against the limit
predictions with 4-standard-error mean bands and 15 percent variance
bands. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from lagspec import cli
from lagspec.ensembles import RescalingMode
from lagspec.experiments import (
    ExperimentConfig,
    LinearGamma,
    PowerLawGamma,
    run_clt,
    run_mp_sanity,
)
from lagspec.moments import (
    NuVariant,
    d_matrix,
    dw_vector,
    mp_moments,
    _nu_by_quadrature,
    nu_moments,
    semicircle_moments,
    semicircle_orthonormal_poly,
)
from lagspec.rates import AcPlusAtoms, f_outlier, ldp_rate, mdp_rate_density, mdp_rate_series
from lagspec.spectral import (
    JacobiCoefficients,
    eigen_spectral,
    measure_to_coefficients,
    moments_of_measure,
    moments_via_operator,
)

X2 = np.array([0.0, 0.0, 1.0])
X3 = np.array([0.0, 0.0, 0.0, 1.0])


def _passed(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_exact_identities():
    start = time.perf_counter()

    order = 12
    d = d_matrix(order)
    msc = semicircle_moments(2 * order)
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            lhs = int((d @ d.T)[i - 1, j - 1])
            assert lhs == int(msc[i + j - 1]) - int(msc[i - 1]) * int(msc[j - 1])

    for xi in (1, 2):
        for variant in NuVariant:
            d15 = d_matrix(15)
            w = (xi * dw_vector(15, 1.0, variant)).astype(np.int64)
            lhs = d15 @ w
            rhs = nu_moments(15, float(xi), variant)
            assert np.array_equal(lhs.astype(np.float64), rhs)

    k20 = 20
    d20 = d_matrix(k20)
    for i in range(1, k20 + 1):
        unit = np.zeros(k20, dtype=np.int64)
        unit[i - 1] = 1
        # Row i of the inverse holds the i-th polynomial's coefficients
        # minus the constant term: D^T row_i = e_i, all in integers.
        coeffs = semicircle_orthonormal_poly(i)
        padded = np.zeros(k20, dtype=np.int64)
        padded[:i] = coeffs[1:]
        assert np.array_equal(d20.T @ padded, unit), f"row {i}"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"1 (exact identities, {elapsed:.3f}s)")


def test_criterion_2_oracle_equivalences():
    start = time.perf_counter()

    for x in np.linspace(2.0, 10.0, 17):
        ref, _ = quad(lambda y: math.sqrt(y * y - 4.0), 2.0, x, epsabs=1e-13)
        assert abs(f_outlier(x) - ref) <= 1e-10

    for variant in NuVariant:
        for xi in (1.0, 0.7):
            closed = nu_moments(15, xi, variant)
            quadrature = np.array(_nu_by_quadrature(15, xi, variant))
            assert np.max(np.abs(closed - quadrature)) <= 1e-8

    rng = np.random.default_rng(41)
    for variant in NuVariant:
        xi = 0.8
        # O(1)-scale candidate: perturb the minimizer by D delta so the two
        # routes meet the stated absolute tolerance; raw random moments
        # inflate the rate to ~1e4 where 1e-10 is below double resolution.
        delta = rng.uniform(-1, 1, 15)
        m = d_matrix(15) @ (dw_vector(15, xi, variant) + delta)
        norm_form = 0.5 * float(np.sum(np.linalg.solve(
            d_matrix(15).astype(float), m - d_matrix(15) @ dw_vector(15, xi, variant)
        ) ** 2))
        assert abs(mdp_rate_series(m, xi, variant, 15) - norm_form) <= 1e-10
        raw = rng.uniform(-1, 1, 15)
        raw_norm = 0.5 * float(np.sum(np.linalg.solve(
            d_matrix(15).astype(float), raw - d_matrix(15) @ dw_vector(15, xi, variant)
        ) ** 2))
        got = mdp_rate_series(raw, xi, variant, 15)
        assert abs(got - raw_norm) <= 1e-10 * max(1.0, raw_norm)

    msc = semicircle_moments(24).astype(float)
    a = rng.normal(size=8)
    gcoef = np.zeros(9)
    for j in range(1, 9):
        pj = semicircle_orthonormal_poly(j).astype(float)
        gcoef[: pj.size] += a[j - 1] * pj
    m = np.array(
        [gcoef[0] * msc[k - 1] + np.dot(gcoef[1:], msc[k : k + 8]) for k in range(1, 16)]
    )
    series = mdp_rate_series(m, 0.0, NuVariant.STANDARD, 15)
    dens = mdp_rate_density(
        lambda x: np.polynomial.polynomial.polyval(np.asarray(x), gcoef), 0.0
    )
    assert abs(series - dens) <= 1e-8

    coeffs = JacobiCoefficients(rng.uniform(-1, 1, 30), rng.uniform(0.5, 1.5, 29))
    back = measure_to_coefficients(eigen_spectral(coeffs), 30)
    assert np.max(np.abs(back.diag - coeffs.diag)) <= 1e-8
    assert np.max(np.abs(back.offdiag - coeffs.offdiag)) <= 1e-8

    big = JacobiCoefficients(rng.uniform(-1, 1, 100), rng.uniform(0.5, 1.5, 99))
    np.testing.assert_allclose(
        moments_via_operator(big, 20),
        moments_of_measure(eigen_spectral(big), 20),
        rtol=1e-10, atol=1e-10,
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(f"2 (oracle equivalences, {elapsed:.3f}s)")


def test_criterion_3_rate_minima():
    start = time.perf_counter()

    semicircle = AcPlusAtoms(lambda x: np.sqrt(4.0 - np.asarray(x) ** 2) / (2.0 * np.pi))
    assert ldp_rate(semicircle) <= 1e-8

    for xi in (0.0, 0.5, 1.0, 3.0):
        for variant in NuVariant:
            assert mdp_rate_series(nu_moments(15, xi, variant), xi, variant, 15) == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"3 (rate minima, {elapsed:.3f}s)")


def test_criterion_4_clt_zeta_zero():
    config = ExperimentConfig(
        n=2000, beta=2.0, gamma_rule=PowerLawGamma(3.0), replicates=10_000,
        master_seed=240001, statistic=X2,
    )
    report = run_clt(config)
    assert report.predicted_mean == 0.0 and report.predicted_variance == 1.0
    assert abs(report.sample_mean) < 4.0 * report.standard_error_mean
    assert 0.85 <= report.sample_variance <= 1.15
    assert report.verdict
    _passed(
        f"4 (CLT zeta~0: mean {report.sample_mean:+.4f}, var {report.sample_variance:.4f})"
    )


def test_criterion_5_clt_zeta_one():
    base = dict(
        n=2000, beta=2.0, gamma_rule=PowerLawGamma(2.0), replicates=10_000,
        statistic=X3,
    )
    report = run_clt(ExperimentConfig(master_seed=240002, **base))
    assert report.predicted_mean == 1.0 and report.predicted_variance == 5.0
    assert abs(report.sample_mean - 1.0) < 4.0 * report.standard_error_mean
    assert 0.85 <= report.sample_variance / 5.0 <= 1.15
    assert report.verdict

    shifted = run_clt(
        ExperimentConfig(master_seed=240003, mode=RescalingMode.SHIFTED, **base)
    )
    assert shifted.predicted_mean == -2.0
    assert abs(shifted.sample_mean + 2.0) < 4.0 * shifted.standard_error_mean
    assert shifted.verdict
    _passed(
        f"5 (CLT zeta=1: standard mean {report.sample_mean:.4f}, "
        f"shifted mean {shifted.sample_mean:.4f})"
    )


def test_criterion_6_mdp_centering():
    base = dict(
        n=2000, beta=2.0, gamma_rule=PowerLawGamma(2.0), replicates=10_000, b_n=50.0,
    )
    odd = run_clt(ExperimentConfig(master_seed=240004, statistic=X3, **base))
    xi_n = 2000.0 / math.sqrt(50.0 * 2000.0**2)
    assert odd.predicted_mean == pytest.approx(xi_n)
    assert abs(odd.sample_mean - xi_n) < 4.0 * odd.standard_error_mean
    assert odd.verdict

    even = run_clt(ExperimentConfig(master_seed=240005, statistic=X2, **base))
    assert even.predicted_mean == 0.0
    assert abs(even.sample_mean) < 4.0 * even.standard_error_mean
    assert even.verdict
    _passed(
        f"6 (MDP centering: m3 {odd.sample_mean:.4f} vs {xi_n:.4f}, "
        f"m2 {even.sample_mean:+.5f})"
    )


def test_criterion_7_marchenko_pastur():
    for tau in (1.0, 0.5):
        predictions = mp_moments(4, tau)
        for k in (1, 2, 3, 4):
            config = ExperimentConfig(
                n=2000, beta=2.0, gamma_rule=LinearGamma(tau), replicates=2000,
                master_seed=240010 + k, statistic=k, mode=RescalingMode.NONE,
            )
            report = run_mp_sanity(config)
            rel = abs(report.sample_mean / predictions[k - 1] - 1.0)
            assert rel <= 0.05, (tau, k, rel)
            assert report.verdict
    _passed("7 (Marchenko-Pastur sanity)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    args = ["clt", "--n", "100", "--beta", "2", "--gamma-rule", "pow:3:1",
            "--poly", "x^2", "--replicates", "200", "--seed", "42"]
    # At 200 replicates the variance band is about one standard error wide,
    # so the verdict may go either way; what must not change is the exit
    # code and the bytes.
    runs = []
    for tag in "abcd":
        path = tmp_path / f"{tag}.csv"
        code = cli.main(args + ["--out", str(path)])
        runs.append((code, path.read_bytes()))
    assert runs[0][0] in (0, 1) and runs[0][1]
    assert all(run == runs[0] for run in runs[1:])
    _passed("8 (byte-identical CSV across reruns)")
