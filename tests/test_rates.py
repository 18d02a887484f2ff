"""Rate functions: outlier cost, KL term, and the two MDP rate forms."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    def test_repeated_atom_location_rejected(self):
        # One atom of mass 0.2 at 3 costs F(3) once; two listings would charge it twice.
        one = ldp_rate(AcPlusAtoms(lambda x: 0.8 * SC(x), [(3.0, 0.2)]))
        assert one == pytest.approx(math.log(1.0 / 0.8) + f_outlier(3.0), abs=1e-8)
        with pytest.raises(ValueError, match="^atom location 3.0 is listed twice; "):
            AcPlusAtoms(lambda x: 0.8 * SC(x), [(3.0, 0.1), (3, 0.1)])

    def test_atom_exactly_at_edge_allowed(self):
        mu = AcPlusAtoms(lambda x: 0.9 * SC(x), [(2.0, 0.1)])
        # F(2) = 0, so only the bulk KL term remains.
        assert ldp_rate(mu) == pytest.approx(kl_semicircle(mu), abs=1e-14)


def nine_tenths_semicircle(x):
    """A bulk of mass 0.9; defined at module level, so that pickle can name it."""
    return 0.9 * math.sqrt(4.0 - x * x) / (2.0 * math.pi)


class TestCandidateValue:
    """AcPlusAtoms behaves as a frozen dataclass of ``bulk_density`` and ``atoms``."""

    def test_constructor_signature(self):
        p = inspect.Parameter
        assert [(q.name, q.kind) for q in inspect.signature(AcPlusAtoms).parameters.values()] == [
            ("bulk_density", p.POSITIONAL_OR_KEYWORD), ("atoms", p.POSITIONAL_OR_KEYWORD)]
        assert AcPlusAtoms(SC).atoms == ()
        mu = AcPlusAtoms(atoms=[[3, 0.1]], bulk_density=nine_tenths_semicircle)
        assert (mu.bulk_density, mu.atoms) == (nine_tenths_semicircle, ((3.0, 0.1),))

    @pytest.mark.parametrize("name", ["bulk_density", "atoms", "_bulk_values", "other"])
    def test_assignment_and_deletion_raise(self, name):
        mu = AcPlusAtoms(nine_tenths_semicircle, [(3.0, 0.1)])
        before = dict(vars(mu))
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(mu, name, ())
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(mu, name)
        assert vars(mu) == before

    def test_equality_and_hash_are_over_density_and_atoms(self):
        mu = AcPlusAtoms(nine_tenths_semicircle, [(3.0, 0.1)])
        assert mu == AcPlusAtoms(nine_tenths_semicircle, ((3, 0.1),))
        assert hash(mu) == hash((nine_tenths_semicircle, ((3.0, 0.1),)))
        assert mu != AcPlusAtoms(nine_tenths_semicircle, [(-3.0, 0.1)])
        assert mu != AcPlusAtoms(lambda x: nine_tenths_semicircle(x), [(3.0, 0.1)])
        assert mu != (nine_tenths_semicircle, ((3.0, 0.1),))

    def test_repr(self):
        assert repr(AcPlusAtoms(nine_tenths_semicircle, [(3.0, 0.1)])) == (
            f"AcPlusAtoms(bulk_density={nine_tenths_semicircle!r}, atoms=((3.0, 0.1),))")

    def test_pickle_and_copy(self):
        mu = AcPlusAtoms(nine_tenths_semicircle, [(3.0, 0.1)])
        twins = [copy.copy(mu), copy.deepcopy(mu)] + [
            pickle.loads(pickle.dumps(mu, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is AcPlusAtoms
            assert twin == mu
            assert vars(twin) == vars(mu)
            assert ldp_rate(twin) == ldp_rate(mu)
            with pytest.raises(AttributeError):
                twin.atoms = ()


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

    def test_outlier_costs_past_the_float_range_sum_to_inf(self):
        # Each cost is finite (about 1.1e308); their sum is not.
        mu = AcPlusAtoms(lambda x: 0.9 * SC(x), [(1.5e154, 0.05), (-1.5e154, 0.05)])
        assert math.isfinite(f_outlier(1.5e154))
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
                return 0.0  # an array gets a wrong answer; the density only ever gets floats
            points.append(np.size(x))
            return 0.9 * SC(x)

        rate = ldp_rate(AcPlusAtoms(density, [(3.0, 0.1)]))
        assert sum(points) == 4096
        assert rate == ldp_rate(AcPlusAtoms(lambda x: 0.9 * SC(x), [(3.0, 0.1)]))

    def test_outlier_costs_are_summed_correctly_rounded(self, monkeypatch):
        # The built-in sum reads 0.6000000000000001 up to Python 3.11 and 0.6
        # from 3.12 on; the correctly rounded 0.6 is the same on every version.
        monkeypatch.setattr(rates, "f_outlier", {3.0: 0.1, 4.0: 0.2, 5.0: 0.3}.__getitem__)
        mu = AcPlusAtoms(lambda x: 0.4 * SC(x), [(3.0, 0.1), (4.0, 0.2), (5.0, 0.3)])
        assert rates._ldp_terms(mu)[1] == 0.6

    def test_candidate_is_frozen(self):
        mu = AcPlusAtoms(SC)
        with pytest.raises(AttributeError):
            mu.bulk_density = lambda x: 0.5 * SC(x)
        with pytest.raises(TypeError):
            mu._bulk_values[0] = 0.0

    def test_density_is_called_on_python_floats(self):
        seen = set()

        def density(x):
            seen.add(type(x))
            return 0.9 * math.sqrt(4.0 - x * x) / (2.0 * math.pi)

        assert ldp_rate(AcPlusAtoms(density, [(3.0, 0.1)])) > 0.0
        assert seen == {float}

    def test_mass_past_the_float_range_is_a_mass_error(self):
        with pytest.raises(ValueError, match="^total mass must be 1 within 1e-08, "
                                             "quadrature gives inf$"):
            AcPlusAtoms(lambda x: 1e308)


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

    @pytest.mark.parametrize("variant", list(NuVariant))
    def test_overflowing_rate_is_inf_without_warning(self, variant):
        # Finite moments whose projections square past the largest float.
        assert mdp_rate_series(np.array([1e308, 1e308]), 0.0, variant, 2) == math.inf

    def test_projection_meeting_inf_minus_inf_is_inf(self):
        # p_5 = 3x - 4x^3 + x^5 reads 3 m_1 - 4 m_3 + m_5: inf - inf in a
        # projection, while m_1 = 1e308 alone squares past the float range.
        m = np.array([1e308, 0.0, 1e308, 0.0, 0.0])
        for variant in NuVariant:
            assert mdp_rate_series(m, 0.0, variant, 5) == math.inf

    def test_nan_form_raises(self, monkeypatch):
        # The series form reads inf here; a norm form that is not a number disagrees.
        m = np.array([1e308, 0.0, 1e308, 0.0, 0.0])
        monkeypatch.setattr(rates, "_norm_form", lambda m, xi, variant: math.nan)
        with pytest.raises(NumericalError, match="^series and norm forms of the MDP rate "
                                                 "disagree: inf vs nan$"):
            mdp_rate_series(m, 0.0, NuVariant.STANDARD, 5)

    def test_disagreeing_forms_raise(self, monkeypatch):
        # Shift the norm form so that the two routes part by far more than 1e-10.
        norm_form = rates._norm_form
        monkeypatch.setattr(rates, "_norm_form",
                            lambda m, xi, variant: norm_form(m, xi, variant) + 1e-3)
        with pytest.raises(NumericalError, match="^series and norm forms of the MDP rate "
                                                 "disagree: "):
            mdp_rate_series(nu_moments(15, 1.0), 1.0)

    # Bits of the MDP rate's left-to-right dot products on fixed inputs, one
    # of them with a negative zero, so that a change of summation order shows.
    _PINNED_M = [-0.0] + [math.sin(1.7 * k) * 3.0 ** (k / 4) for k in range(2, 16)]

    @pytest.mark.parametrize("variant, k_trunc, xi, series, norm", [
        (NuVariant.STANDARD, 15, 0.3, "0x1.b6f478b76e769p+23", "0x1.b6f478b76e7a0p+23"),
        (NuVariant.SHIFTED, 15, 0.3, "0x1.b6ee6693858b6p+23", "0x1.b6ee669385886p+23"),
        (NuVariant.STANDARD, 7, 1.1, "0x1.28951418fba3dp+10", "0x1.28951418fba3cp+10"),
        (NuVariant.SHIFTED, 4, 0.0, "0x1.917f04c64c2b4p+2", "0x1.917f04c64c2b4p+2"),
    ])
    def test_dot_product_bits_are_pinned(self, variant, k_trunc, xi, series, norm):
        m = self._PINNED_M[:k_trunc]
        assert mdp_rate_series(m, xi, variant, k_trunc).hex() == series
        assert rates._norm_form(m, xi, variant).hex() == norm

    @settings(max_examples=300, deadline=None)
    @given(m=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
           xi=st.floats(0.0, 10.0), variant=st.sampled_from(list(NuVariant)),
           data=st.data())
    def test_matches_the_numpy_formula(self, m, xi, variant, data):
        # The formula as numpy evaluated it: BLAS dot products for the
        # projections, each squared and summed in order.
        k_trunc = data.draw(st.integers(1, len(m)))
        diff = np.array(m[:k_trunc]) - nu_moments(k_trunc, xi, variant)
        want = 0.0
        for k in range(1, k_trunc + 1):
            coeffs = semicircle_orthonormal_poly(k).astype(np.float64)
            want += float(np.dot(coeffs[1:], diff[:k])) ** 2
        want *= 0.5
        got = mdp_rate_series(m, xi, variant, k_trunc)
        assert abs(got - want) <= 1e-12 * want
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

    @pytest.mark.parametrize("xi", [float("nan"), float("inf"), -1.0])
    def test_xi_checked_as_by_the_series(self, xi):
        bound = ">= 0" if math.isfinite(xi) else "a finite number"
        message = rf"^xi must be {bound}, got {xi!r}$"
        with pytest.raises(ValueError, match=message):
            mdp_rate_series([0.0, 1.0, 0.0], xi, NuVariant.STANDARD, 3)
        with pytest.raises(ValueError, match=message):
            mdp_rate_density(lambda x: 1.0, xi)
