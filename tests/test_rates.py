"""Rate functions: outlier cost, KL term, and the two MDP rate forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lagspec import moments, rates
from lagspec.errors import NumericalError
from lagspec.moments import (
    NuVariant,
    nu_moments,
    semicircle_moments,
    semicircle_orthonormal_poly,
)
from lagspec.rates import (
    AcPlusAtoms,
    f_outlier,
    kl_semicircle,
    ldp_rate,
    mdp_rate_density,
    mdp_rate_series,
)

SC = lambda x: np.sqrt(4.0 - np.asarray(x) ** 2) / (2.0 * np.pi)


class TestOutlierCost:
    def test_zero_at_edge(self):
        assert f_outlier(2.0) == 0.0
        assert f_outlier(-2.0) == 0.0

    def test_even_in_x(self):
        for x in np.linspace(2.0, 10.0, 9):
            assert f_outlier(-x) == f_outlier(x)

    def test_inside_bulk_rejected(self):
        with pytest.raises(ValueError):
            f_outlier(1.5)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            f_outlier(x)

    def test_closed_form_against_quadrature(self):
        for x in np.linspace(2.0, 10.0, 21):
            ref, _ = quad(lambda y: np.sqrt(y * y - 4.0), 2.0, x, epsabs=1e-13)
            assert abs(f_outlier(x) - ref) <= 1e-10

    @pytest.mark.parametrize("x", [1.3e154, 1.35e154, 1.5e154, 1.8e154, 1.89e154])
    def test_finite_where_the_square_overflows(self, x):
        # F(x) = x^2/2 - 1 - 2 log x + O(x^-2), so F(x) / (x^2/2) is 1 to
        # double precision here, on both sides of where x*x overflows.
        assert math.isfinite(f_outlier(x))
        assert f_outlier(x) / x / (x / 2.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("x", [1.9e154, 1e200, 1.7e308])
    def test_inf_where_the_value_overflows(self, x):
        assert f_outlier(x) == math.inf and f_outlier(-x) == math.inf

    def test_value_at_three(self):
        ref, _ = quad(lambda y: np.sqrt(y * y - 4.0), 2.0, 3.0, epsabs=1e-13)
        assert f_outlier(3.0) == pytest.approx(ref, abs=1e-10)
        assert f_outlier(3.0) == pytest.approx(1.4292546660112708, abs=1e-12)


class TestKLSemicircle:
    def test_zero_at_semicircle(self):
        assert kl_semicircle(AcPlusAtoms(SC)) == 0.0

    def test_arcsine_bulk(self):
        # K(sc | arc) = 1 - log 2: the log-ratio is log((4 - x^2)/2), and
        # integral of cos(2 theta) log(sin theta) over (0, pi) is -pi/2.
        arc = lambda x: 1.0 / (np.pi * np.sqrt(4.0 - np.asarray(x) ** 2))
        val = kl_semicircle(AcPlusAtoms(arc))
        ref, _ = quad(
            lambda x: math.log((4 - x * x) / 2.0) * math.sqrt(4 - x * x) / (2 * math.pi),
            -2, 2, epsabs=1e-13, limit=400,
        )
        assert val == pytest.approx(ref, abs=1e-8)
        assert val == pytest.approx(1.0 - math.log(2.0), abs=1e-8)

    def test_vanishing_support_is_infinite(self):
        half = AcPlusAtoms(lambda x: np.where(np.asarray(x) < 0, 2.0 * SC(x), 0.0))
        assert kl_semicircle(half) == math.inf

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AcPlusAtoms(lambda x: -SC(x) + 0.0 * np.asarray(x))


class TestCandidateMeasure:
    def test_atom_inside_bulk_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            AcPlusAtoms(lambda x: 0.9 * SC(x), [(1.0, 0.1)])

    def test_zero_mass_atom_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            AcPlusAtoms(lambda x: SC(x), [(3.0, 0.0)])

    def test_nonfinite_atom_location_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AcPlusAtoms(lambda x: 0.9 * SC(x), [(np.nan, 0.1)])

    def test_total_mass_checked(self):
        with pytest.raises(ValueError, match="total mass"):
            AcPlusAtoms(lambda x: 0.5 * SC(x))

    def test_atom_exactly_at_edge_allowed(self):
        mu = AcPlusAtoms(lambda x: 0.9 * SC(x), [(2.0, 0.1)])
        # F(2) = 0, so only the bulk KL term remains.
        assert ldp_rate(mu) == pytest.approx(kl_semicircle(mu), abs=1e-14)


class TestLdpRate:
    def test_zero_at_semicircle(self):
        assert ldp_rate(AcPlusAtoms(SC)) == 0.0

    def test_bulk_plus_outlier(self):
        mu = AcPlusAtoms(lambda x: 0.9 * SC(x), [(3.0, 0.1)])
        expected = math.log(1.0 / 0.9) + f_outlier(3.0)
        assert ldp_rate(mu) == pytest.approx(expected, abs=1e-8)

    def test_far_outlier_costs_inf_not_nan(self):
        mu = AcPlusAtoms(lambda x: 0.9 * SC(x), [(1e200, 0.1)])
        assert ldp_rate(mu) == math.inf

    def test_bulk_that_loses_support_costs_inf(self):
        # The bulk vanishes on (0, 2): the KL term is infinite, whatever the atom costs.
        half = lambda x: np.where(np.asarray(x) < 0, 1.8 * SC(x), 0.0)
        assert ldp_rate(AcPlusAtoms(half, [(3.0, 0.1)])) == math.inf

    def test_positive_off_minimum(self):
        arc = lambda x: 1.0 / (np.pi * np.sqrt(4.0 - np.asarray(x) ** 2))
        assert ldp_rate(AcPlusAtoms(arc)) > 0.1

    @pytest.mark.parametrize("scalar_only", [False, True], ids=["vectorized", "scalar"])
    def test_density_evaluated_once_per_node(self, scalar_only):
        points = []

        def density(x):
            if scalar_only and np.ndim(x):
                return 0.0  # wrong shape: evaluated again point by point
            points.append(np.size(x))
            return 0.9 * SC(x)

        rate = ldp_rate(AcPlusAtoms(density, [(3.0, 0.1)]))
        assert sum(points) == 4096
        assert rate == ldp_rate(AcPlusAtoms(lambda x: 0.9 * SC(x), [(3.0, 0.1)]))

    def test_candidate_is_frozen(self):
        mu = AcPlusAtoms(SC)
        with pytest.raises(AttributeError):
            mu.bulk_density = lambda x: 0.5 * SC(x)
        with pytest.raises(ValueError, match="read-only"):
            mu._bulk_values[0] = 0.0


class TestMdpRateSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_moments_rejected(self, bad):
        with pytest.raises(ValueError, match="moments must be finite"):
            mdp_rate_series(np.array([0.0, 0.0, bad]), 1.0, k_trunc=3)

    @pytest.mark.parametrize("variant", list(NuVariant))
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0, 3.0])
    def test_exact_zero_at_minimizer(self, xi, variant):
        assert mdp_rate_series(nu_moments(15, xi, variant), xi, variant, 15) == 0.0

    def test_p1_perturbation_costs_one_half(self):
        # Moments of x * mu_sc: shift the semicircle sequence by one order.
        msc = semicircle_moments(16).astype(float)
        assert mdp_rate_series(msc[1:16], 0.0, NuVariant.STANDARD, 15) == pytest.approx(0.5)

    @pytest.mark.parametrize("variant", list(NuVariant))
    def test_matches_handrolled_projection_sum(self, variant):
        rng = np.random.default_rng(23)
        m = rng.uniform(-1, 1, 15)
        xi = 0.8
        diff = m - nu_moments(15, xi, variant)
        total = 0.0
        for k in range(1, 16):
            coeffs = semicircle_orthonormal_poly(k).astype(float)
            total += float(np.dot(coeffs[1:], diff[: k])) ** 2
        assert mdp_rate_series(m, xi, variant, 15) == pytest.approx(0.5 * total, rel=1e-12)

    def test_truncation_validation(self):
        with pytest.raises(ValueError, match="truncation"):
            mdp_rate_series(np.zeros(5), 0.0, NuVariant.STANDARD, 10)

    @pytest.mark.parametrize("k_trunc", [0, -2])
    def test_truncation_below_one_rejected(self, k_trunc):
        with pytest.raises(ValueError, match=rf"^k_trunc must be >= 1, got {k_trunc}$"):
            mdp_rate_series(np.zeros(5), 0.0, NuVariant.STANDARD, k_trunc)

    def test_disagreeing_forms_raise(self, monkeypatch):
        # Shift the norm form's D^-1 so that the two routes part by far more than 1e-10.
        monkeypatch.setattr(rates, "d_inverse_apply",
                            lambda order, v: moments.d_inverse_apply(order, v) + 1e-3)
        with pytest.raises(NumericalError, match="^series and norm forms of the MDP rate "
                                                 "disagree: "):
            mdp_rate_series(nu_moments(15, 1.0), 1.0)


class TestMdpRateDensity:
    def test_zero_at_exact_ratio_standard(self):
        ratio = lambda x: 1.0 * np.asarray(x) * (np.asarray(x) ** 2 - 3.0) / (
            4.0 - np.asarray(x) ** 2
        )
        assert mdp_rate_density(ratio, 1.0, NuVariant.STANDARD) == 0.0

    def test_zero_at_exact_ratio_shifted(self):
        assert mdp_rate_density(lambda x: -2.0 * np.asarray(x), 2.0, NuVariant.SHIFTED) == 0.0

    def test_p2_costs_one_half(self):
        p2 = semicircle_orthonormal_poly(2).astype(float)
        g = lambda x: np.polynomial.polynomial.polyval(np.asarray(x), p2)
        assert mdp_rate_density(g, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_series_on_polynomial_densities(self):
        rng = np.random.default_rng(31)
        msc = semicircle_moments(24).astype(float)
        for _ in range(3):
            a = rng.normal(size=8)
            gcoef = np.zeros(9)
            for j in range(1, 9):
                pj = semicircle_orthonormal_poly(j).astype(float)
                gcoef[: pj.size] += a[j - 1] * pj
            g = lambda x: np.polynomial.polynomial.polyval(np.asarray(x), gcoef)
            m = np.empty(15)
            for k in range(1, 16):
                m[k - 1] = gcoef[0] * msc[k - 1] + np.dot(gcoef[1:], msc[k : k + 8])
            series = mdp_rate_series(m, 0.0, NuVariant.STANDARD, 15)
            dens = mdp_rate_density(g, 0.0)
            assert abs(series - dens) <= 1e-8
            assert series == pytest.approx(0.5 * np.sum(a**2), rel=1e-10)

    def test_nonfinite_candidate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mdp_rate_density(lambda x: np.full_like(np.asarray(x), np.nan), 0.0)
