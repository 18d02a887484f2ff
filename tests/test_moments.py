"""Reference moments, signed measures, the D matrix, and their identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from lagspec import moments
from lagspec.moments import (
    NuVariant,
    arcsine_moments,
    d_inverse_apply,
    d_matrix,
    dw_vector,
    mp_moments,
    nu_density,
    nu_moments,
    semicircle_moments,
    semicircle_orthonormal_poly,
)


class TestSemicircleMoments:
    def test_known_values(self):
        m = semicircle_moments(20)
        assert not np.any(m[0::2])  # odd orders vanish
        assert m[1] == 1 and m[3] == 2 and m[5] == 5
        assert m[19] == 16796  # Catalan(10)

    def test_quadrature_oracle(self):
        m = semicircle_moments(20)
        for k in range(1, 9):
            ref, _ = quad(lambda x: x**k * np.sqrt(4 - x * x) / (2 * np.pi), -2, 2,
                          epsabs=1e-12)
            assert abs(m[k - 1] - ref) < 1e-10
        # Same integral after x = 2 sin(t), which removes the edge square
        # root and keeps the quadrature clean up to order 20. Odd orders
        # vanish by symmetry and are asserted exactly above.
        for k in range(2, 21, 2):
            ref, _ = quad(
                lambda t: (2 * np.sin(t)) ** k * (2 / np.pi) * np.cos(t) ** 2,
                -np.pi / 2, np.pi / 2, epsabs=1e-12, epsrel=1e-10,
            )
            assert abs(m[k - 1] - ref) < 1e-10 * max(1.0, abs(ref))

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            semicircle_moments(41)

    @pytest.mark.parametrize("order, message", [
        pytest.param(0, "order must be >= 1, got 0", id="0"),
        pytest.param(2.5, "order must be an integer, got 2.5", id="2.5"),
        pytest.param(6.0, "order must be an integer, got 6.0", id="6.0"),
        pytest.param("3", "order must be an integer, got '3'", id="3"),
    ])
    def test_order_must_be_a_positive_integer(self, order, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            semicircle_moments(order)

    def test_numpy_integer_order_accepted(self):
        np.testing.assert_array_equal(semicircle_moments(np.int64(6)), [0, 1, 0, 2, 0, 5])


@pytest.mark.parametrize("rule", [moments._chebyshev_lebesgue, moments._semicircle_gauss])
def test_quadrature_rule_needs_a_node(rule):
    with pytest.raises(ValueError, match="^n_nodes must be >= 1, got 0$"):
        rule(0)


def test_chebyshev_rule_integrates_weighted_polynomials_exactly():
    # sum_j w_j x_j^k / sqrt(4 - x_j^2) is the integral of x^k / sqrt(4 - x^2)
    # over (-2, 2), pi times the arcsine moment, for every k < 2N.
    arcsine = [1] + moments._arcsine(moments.EXACT_ORDER_CAP)
    for n_nodes in (1, 2, 7, 64, 4096):
        x, w = moments._chebyshev_lebesgue(n_nodes)
        for k in range(min(2 * n_nodes, moments.EXACT_ORDER_CAP + 1)):
            got = math.fsum(wj * xj**k / math.sqrt(4.0 - xj * xj) for xj, wj in zip(x, w))
            assert abs(got / math.pi - arcsine[k]) <= 1e-13 * 2.0**k, (n_nodes, k)


def test_nu_quadrature_is_the_exact_sum_of_its_terms():
    # Each moment is xi times the correctly rounded sum of the xi = 1 terms,
    # so no term overflows at the largest xi, and order 40 is summed exactly.
    x, w = moments._chebyshev_lebesgue(64)
    for variant in NuVariant:
        weighted = [wj * moments._nu_density_at(xj, 1.0, variant) for xj, wj in zip(x, w)]
        sums, power = [], [1.0] * 64
        for _ in range(40):
            power = [p * xj for p, xj in zip(power, x)]
            sums.append(float(sum(Fraction(f * p) for f, p in zip(weighted, power))))
        for xi in (0.0, 1.0, 0.7, 1e308):
            assert moments._nu_by_quadrature(40, xi, variant) == [xi * s for s in sums]


class TestArcsineMoments:
    def test_values(self):
        m = arcsine_moments(6)
        assert m[0] == 0 and m[2] == 0 and m[4] == 0
        assert m[1] == 2 and m[3] == 6 and m[5] == 20


class TestMarchenkoPastur:
    def test_mean_is_one_for_all_tau(self):
        for tau in (1.0, 0.5, 0.25):
            assert mp_moments(1, tau)[0] == pytest.approx(1.0, abs=1e-9)

    def test_tau_one_second_moment(self):
        assert mp_moments(2, 1.0)[1] == pytest.approx(2.0, abs=1e-9)

    def test_total_mass(self):
        for tau in (1.0, 0.5):
            lo = (1 - np.sqrt(tau)) ** 2
            hi = (1 + np.sqrt(tau)) ** 2
            mass, _ = quad(
                lambda x: np.sqrt((hi - x) * (x - lo)) / (2 * np.pi * tau * x), lo, hi,
                epsabs=1e-12,
            )
            assert abs(mass - 1.0) < 1e-10

    def test_known_polynomial_values(self):
        # m2 = 1 + tau, m3 = 1 + 3 tau + tau^2, m4 = 1 + 6 tau + 6 tau^2 + tau^3
        tau = 0.5
        m = mp_moments(4, tau)
        assert m.tolist() == [1.0, 1.5, 2.75, 5.625]  # exact in binary at tau = 1/2

    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
    def test_closed_form_matches_quadrature(self, tau):
        # Independent oracle: integrate x^k against the density directly.
        lo = (1 - np.sqrt(tau)) ** 2
        hi = (1 + np.sqrt(tau)) ** 2
        m = mp_moments(8, tau)
        for k in range(1, 9):
            ref, _ = quad(
                lambda x: x**k * np.sqrt((hi - x) * (x - lo)) / (2 * np.pi * tau * x),
                lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            assert m[k - 1] == pytest.approx(ref, rel=1e-10)

    def test_order_capped_like_every_reference_sequence(self):
        assert mp_moments(40, 0.5).size == 40
        for order in (41, 600):
            with pytest.raises(ValueError, match="above the 64-bit-exact cap 40"):
                mp_moments(order, 0.5)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            mp_moments(3, 0.0)
        with pytest.raises(ValueError):
            mp_moments(3, 1.5)

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.25])
    def test_matches_limit_jacobi_operator(self, tau):
        # The law is the spectral measure of the operator with d1 = 1,
        # d_k = 1 + tau, c_k = sqrt(tau); finite truncation is exact for
        # moments whose reach stays inside the window.
        from lagspec.spectral import JacobiCoefficients, moments_via_operator

        n = 30
        diag = np.full(n, 1.0 + tau)
        diag[0] = 1.0
        coeffs = JacobiCoefficients(diag, np.full(n - 1, np.sqrt(tau)))
        np.testing.assert_allclose(
            moments_via_operator(coeffs, 8), mp_moments(8, tau), atol=1e-9
        )


class TestNuMoments:
    def test_standard_values(self):
        m = nu_moments(7, 1.0)
        np.testing.assert_array_equal(m, [0, 0, 1, 0, 5, 0, 21])

    def test_shifted_values(self):
        m = nu_moments(5, 1.0, NuVariant.SHIFTED)
        # m1 = -xi comes straight from the density (and from the arcsine
        # relation m1 = (xi/2)(m4_arc - 4 m2_arc) = -xi).
        np.testing.assert_array_equal(m, [-1, 0, -2, 0, -5])

    def test_xi_zero(self):
        assert not np.any(nu_moments(10, 0.0))
        assert not np.any(nu_moments(10, 0.0, NuVariant.SHIFTED))

    def test_scales_linearly_in_xi(self):
        np.testing.assert_array_equal(nu_moments(9, 3.0), 3.0 * nu_moments(9, 1.0))

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -1.0])
    def test_xi_must_be_finite_and_nonnegative(self, xi):
        message = f"{'>= 0' if np.isfinite(xi) else 'a finite number'}, got {xi!r}"
        for call in (nu_moments, dw_vector):
            with pytest.raises(ValueError, match=f"^xi must be {message}$"):
                call(5, xi)
        with pytest.raises(ValueError, match=f"^xi must be {message}$"):
            nu_density(0.5, xi)


class TestNuDensity:
    def test_odd_function_vanishes_at_zero(self):
        assert nu_density(0.0, 1.0) == 0.0
        assert nu_density(0.0, 1.0, NuVariant.SHIFTED) == 0.0

    def test_standard_value_at_one(self):
        assert nu_density(1.0, 1.0) == pytest.approx(-1.0 / (np.pi * np.sqrt(3)), rel=1e-12)

    def test_standard_singularity(self):
        with pytest.raises(ValueError, match="singularity"):
            nu_density(2.0, 1.0)

    def test_outside_support(self):
        assert nu_density(2.5, 1.0) == 0.0
        assert nu_density(-3.0, 1.0, NuVariant.SHIFTED) == 0.0

    def test_shifted_endpoint(self):
        assert nu_density(2.0, 1.0, NuVariant.SHIFTED) == 0.0

    @pytest.mark.parametrize("variant", list(NuVariant))
    @pytest.mark.parametrize("xi", [0.4, 1.0])
    def test_quadrature_reproduces_moments(self, variant, xi):
        closed = nu_moments(15, xi, variant)
        quadrature = np.array(moments._nu_by_quadrature(15, xi, variant))
        np.testing.assert_allclose(quadrature, closed, atol=1e-8)

    @pytest.mark.parametrize("variant", list(NuVariant))
    @pytest.mark.parametrize("xi", [0.0, 0.4, 1.0])
    def test_quadrature_is_the_vectorized_numpy_sum(self, variant, xi):
        # The twin is xi times the correctly rounded sum of numpy's vectorized
        # terms at xi = 1, summed here exactly as Fractions.
        x, w = map(np.array, moments._chebyshev_lebesgue(64))
        dens = nu_density(x, 1.0, variant)
        want, power = [], np.ones_like(x)
        for _ in range(15):
            power = power * x
            want.append(xi * float(sum(map(Fraction, (w * dens * power).tolist()))))
        got = np.array(moments._nu_by_quadrature(15, xi, variant))
        assert got.tobytes() == np.array(want).tobytes()

    def test_arcsine_relation(self):
        # m_k(nu_xi) = (xi/2)(m_{k+3}(arc) - 3 m_{k+1}(arc))
        arc = arcsine_moments(18).astype(float)
        xi = 0.7
        closed = nu_moments(15, xi)
        derived = 0.5 * xi * (arc[3:18] - 3.0 * arc[1:16])
        np.testing.assert_array_equal(closed, derived)


class TestDMatrix:
    def test_order_one(self):
        np.testing.assert_array_equal(d_matrix(1), [[1]])

    def test_order_three(self):
        np.testing.assert_array_equal(
            d_matrix(3), [[1, 0, 0], [0, 1, 0], [2, 0, 1]]
        )

    def test_unit_diagonal(self):
        assert np.all(np.diag(d_matrix(20)) == 1)

    def test_covariance_identity_exact(self):
        order = 12
        d = d_matrix(order)
        msc = semicircle_moments(2 * order)
        cov = np.empty((order, order), dtype=np.int64)
        for i in range(1, order + 1):
            for j in range(1, order + 1):
                cov[i - 1, j - 1] = msc[i + j - 1] - msc[i - 1] * msc[j - 1]
        np.testing.assert_array_equal(d @ d.T, cov)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="cap"):
            d_matrix(41)


class TestDInverse:
    def test_zero_maps_to_zero(self):
        assert not np.any(d_inverse_apply(5, np.zeros(5)))

    def test_basis_vector_gives_inverse_column(self):
        # Column 1 of the order-3 inverse is (1, 0, -2).
        np.testing.assert_array_equal(
            d_inverse_apply(3, np.array([1.0, 0.0, 0.0])), [1.0, 0.0, -2.0]
        )

    def test_solves_the_system(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=20)
        x = d_inverse_apply(20, v)
        np.testing.assert_allclose(d_matrix(20) @ x, v, atol=1e-12)

    def test_rows_are_polynomial_coefficients(self):
        order = 20
        d = d_matrix(order)
        inv = np.zeros((order, order), dtype=np.int64)
        for j in range(order):
            col = np.zeros(order, dtype=np.int64)
            col[j] = 1
            for i in range(order):
                col[i] -= d[i, :i] @ col[:i]
            inv[:, j] = col
        for i in range(1, order + 1):
            coeffs = semicircle_orthonormal_poly(i)
            padded = np.zeros(order, dtype=np.int64)
            padded[:i] = coeffs[1:]
            np.testing.assert_array_equal(inv[i - 1], padded)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            d_inverse_apply(4, np.zeros(3))

    def test_forward_substitution_bits_are_pinned(self):
        # Each row's products summed left to right; a change of order shows in the bits.
        v = [-0.0] + [math.sin(1.7 * k) * 3.0 ** (k / 4) for k in range(2, 16)]
        assert [x.hex() for x in d_inverse_apply(15, np.array(v)).tolist()] == [
            "-0x0.0p+0", "-0x1.c53b99d8befbcp-2", "-0x1.0e219f90d5515p+1",
            "0x1.67b3ab52c4044p+1", "0x1.7303c238b896dp+3", "-0x1.b6874e5a26a38p+3",
            "-0x1.61f9687186734p+5", "0x1.decd4eaeb094fp+5", "0x1.25dbb62b73334p+7",
            "-0x1.e9da39989c0cap+7", "-0x1.c4a2eebbda795p+8", "0x1.df2c55ca203c7p+9",
            "0x1.487cb33d70cc3p+10", "-0x1.c506f2fd9c9a1p+11", "-0x1.bd59fb46ad0dfp+11",
        ]
        assert [x.hex() for x in d_inverse_apply(3, np.array([-0.0, -0.0, 1.5])).tolist()] == [
            "-0x0.0p+0", "-0x0.0p+0", "0x1.8000000000000p+0"]


class TestOrthonormalPolynomials:
    def test_hand_values(self):
        np.testing.assert_array_equal(semicircle_orthonormal_poly(0), [1])
        np.testing.assert_array_equal(semicircle_orthonormal_poly(1), [0, 1])
        np.testing.assert_array_equal(semicircle_orthonormal_poly(2), [-1, 0, 1])
        np.testing.assert_array_equal(semicircle_orthonormal_poly(3), [0, -2, 0, 1])

    @pytest.mark.parametrize("k, message", [
        (-1, "k must be >= 0, got -1"),
        (2.5, "k must be an integer, got 2.5"),
        (41, "k 41 above the 64-bit-exact cap 40"),
    ])
    def test_degree_out_of_range(self, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            semicircle_orthonormal_poly(k)

    def test_orthonormality_by_quadrature(self):
        x, w = map(np.array, moments._semicircle_gauss(64))
        values = [
            np.polynomial.polynomial.polyval(x, semicircle_orthonormal_poly(k).astype(float))
            for k in range(13)
        ]
        for i in range(13):
            for j in range(13):
                inner = np.sum(w * values[i] * values[j])
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10


class TestDwVector:
    def test_standard_example(self):
        np.testing.assert_array_equal(dw_vector(5, 2.0), [0, 0, 2, 0, 2])

    def test_shifted_example(self):
        np.testing.assert_array_equal(
            dw_vector(5, 2.0, NuVariant.SHIFTED), [-2, 0, 0, 0, 0]
        )

    @pytest.mark.parametrize("variant", list(NuVariant))
    @pytest.mark.parametrize("xi", [1.0, 2.0])
    def test_telescoping_identity_exact(self, variant, xi):
        d = d_matrix(15).astype(np.float64)
        w = dw_vector(15, xi, variant)
        np.testing.assert_array_equal(d @ w, nu_moments(15, xi, variant))
