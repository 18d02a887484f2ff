"""Jacobi matrices, spectral measures, and the two-way mapping between them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import lagspec
from lagspec.errors import NumericalError
from lagspec.spectral import (
    JacobiCoefficients,
    SpectralMeasure,
    eigen_spectral,
    free_jacobi,
    measure_to_coefficients,
    moments_of_measure,
    moments_via_operator,
)


def random_jacobi(seed, n):
    rng = np.random.default_rng(seed)
    return JacobiCoefficients(rng.uniform(-1, 1, n), rng.uniform(0.5, 1.5, n - 1))


class TestValidation:
    def test_offdiag_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            JacobiCoefficients([0.0, 0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            JacobiCoefficients([0.0, 0.0], [1.0, 1.0])

    def test_atoms_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectralMeasure([1.0, 0.0], [0.5, 0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpectralMeasure([0.0, 1.0], [0.5, 0.6])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SpectralMeasure([0.0, 1.0], [1.0, 0.0])


class TestEigenSpectral:
    def test_single_atom(self):
        mu = eigen_spectral(JacobiCoefficients([2.5], []))
        assert mu.atoms[0] == 2.5 and mu.weights[0] == 1.0

    def test_free_jacobi_n3(self):
        mu = eigen_spectral(free_jacobi(3))
        np.testing.assert_allclose(mu.atoms, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(mu.weights, [0.25, 0.5, 0.25], atol=1e-14)

    def test_free_jacobi_chebyshev_eigenpairs(self):
        n = 10
        mu = eigen_spectral(free_jacobi(n))
        j = np.arange(n, 0, -1)
        np.testing.assert_allclose(mu.atoms, 2 * np.cos(j * np.pi / (n + 1)), atol=1e-10)
        np.testing.assert_allclose(
            mu.weights, (2.0 / (n + 1)) * np.sin(j * np.pi / (n + 1)) ** 2, atol=1e-10
        )

    def test_weights_sum(self):
        mu = eigen_spectral(random_jacobi(5, 120))
        assert abs(mu.weights.sum() - 1.0) <= 1e-12


class TestMoments:
    def test_free_jacobi_catalan_moments(self):
        # <e1, J^k e1> counts Dyck paths once n > k/2, so the semicircle
        # moments come out exactly.
        m = moments_via_operator(free_jacobi(40), 10)
        catalan = {2: 1, 4: 2, 6: 5, 8: 14, 10: 42}
        for k in range(1, 11):
            expected = catalan.get(k, 0)
            assert abs(m[k - 1] - expected) < 1e-12

    def test_free_jacobi_moments_match_quadrature(self):
        m = moments_via_operator(free_jacobi(12), 8)
        for k in range(1, 9):
            ref, _ = quad(lambda x: x**k * np.sqrt(4 - x * x) / (2 * np.pi), -2, 2,
                          epsabs=1e-12)
            assert abs(m[k - 1] - ref) < 1e-10

    def test_single_atom_powers(self):
        mu = SpectralMeasure([2.0], [1.0])
        np.testing.assert_allclose(moments_of_measure(mu, 3), [2.0, 4.0, 8.0])

    def test_symmetric_two_atoms(self):
        mu = SpectralMeasure([-1.0, 1.0], [0.5, 0.5])
        np.testing.assert_allclose(moments_of_measure(mu, 6), [0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("seed,n", [(1, 20), (2, 50), (3, 100)])
    def test_operator_equals_measure_route(self, seed, n):
        coeffs = random_jacobi(seed, n)
        a = moments_via_operator(coeffs, 20)
        b = moments_of_measure(eigen_spectral(coeffs), 20)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


class TestSzegoMap:
    def test_single_atom(self):
        coeffs = measure_to_coefficients(SpectralMeasure([1.7], [1.0]), 1)
        assert coeffs.diag[0] == pytest.approx(1.7)
        assert coeffs.offdiag.size == 0

    def test_symmetric_two_atom_measure(self):
        coeffs = measure_to_coefficients(SpectralMeasure([-1.0, 1.0], [0.5, 0.5]), 2)
        np.testing.assert_allclose(coeffs.diag, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(coeffs.offdiag, [1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundtrip(self, seed):
        coeffs = random_jacobi(seed, 30)
        back = measure_to_coefficients(eigen_spectral(coeffs), 30)
        np.testing.assert_allclose(back.diag, coeffs.diag, atol=1e-8)
        np.testing.assert_allclose(back.offdiag, coeffs.offdiag, atol=1e-8)

    def test_order_exceeding_atoms(self):
        with pytest.raises(ValueError, match="exceeds"):
            measure_to_coefficients(SpectralMeasure([0.0, 1.0], [0.5, 0.5]), 3)

    def test_breakdown_on_coincident_atoms(self):
        # A gap below resolution is accepted by the measure but breaks the
        # third recursion step.
        mu = SpectralMeasure([0.0, 1e-13, 1.0], [0.3, 0.3, 0.4])
        with pytest.raises(NumericalError, match="broke down"):
            measure_to_coefficients(mu, 3)


class TestFreeJacobi:
    def test_small_cases(self):
        one = free_jacobi(1)
        assert one.diag.tolist() == [0.0] and one.offdiag.size == 0
        three = free_jacobi(3)
        assert three.diag.tolist() == [0, 0, 0]
        assert three.offdiag.tolist() == [1, 1]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            free_jacobi(0)


def test_cli_import_loads_no_scipy_subpackage():
    # The measure path imports LAPACK on first use; start-up pays for numpy only.
    code = ("import sys, lagspec.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
