"""Kernel-level checks: the two eigensolvers behind eigen_spectral (numpy's dense
eigh up to size 128, scipy's tridiagonal eigh above) and the windowed moment
recursion, against closed forms and each other."""

import numpy as np
import pytest
import scipy.linalg

from lagspec.ensembles import EnsembleParams, make_rng, rescale, sample_laguerre_tridiagonal
from lagspec.errors import NumericalError
from lagspec.spectral import JacobiCoefficients, eigen_spectral, moments_via_operator


def dense(diag, offdiag):
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


def dense_firstrow_eigh(diag, offdiag):
    """Oracle: dense LAPACK eigh, first row of the eigenvectors squared."""
    vals, vecs = np.linalg.eigh(dense(diag, offdiag))
    return vals, vecs[0] ** 2


def tridiagonal_firstrow_eigh(diag, offdiag):
    """Oracle: LAPACK's tridiagonal eigh (dstevd), first row squared."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, offdiag)
    return vals, vecs[0] ** 2


# Each size is checked against both solvers, so each is checked against the
# one eigen_spectral does not use for it.
ORACLES = (dense_firstrow_eigh, tridiagonal_firstrow_eigh)


def eigen_firstrow(diag, offdiag):
    mu = eigen_spectral(JacobiCoefficients(diag, offdiag))
    return mu.atoms, mu.weights


class TestQLAlgorithm:
    """The eigensolver against closed forms and the dense oracle."""

    def test_free_jacobi_n3_closed_form(self):
        lam, w = eigen_firstrow(np.zeros(3), np.ones(2))
        np.testing.assert_allclose(lam, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-14)

    def test_free_jacobi_general_n_closed_form(self):
        n = 10
        lam, w = eigen_firstrow(np.zeros(n), np.ones(n - 1))
        j = np.arange(n, 0, -1)
        np.testing.assert_allclose(lam, 2 * np.cos(j * np.pi / (n + 1)), atol=1e-10)
        np.testing.assert_allclose(
            w, (2.0 / (n + 1)) * np.sin(j * np.pi / (n + 1)) ** 2, atol=1e-10
        )

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_matches_dense_eigh(self, n):
        rng = np.random.default_rng(n)
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(0.5, 1.5, n - 1)
        lam, w = eigen_firstrow(diag, off)
        for oracle in ORACLES:
            lam_ref, w_ref = oracle(diag, off)
            np.testing.assert_allclose(lam, lam_ref, atol=1e-12)
            np.testing.assert_allclose(w, w_ref, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 50, 128, 129, 200])
    def test_model_draws_match_both_solvers(self, n):
        # Rescaled Laguerre draws, the matrices the sampler diagonalizes. The
        # uniform matrices above, seeded by n, have first-row weights that
        # underflow to 0 at n = 128, 129 and 200, which eigen_spectral rejects
        # (test_underflowed_weight_raises_value_error).
        params = EnsembleParams(n=n, beta=2.0, gamma=float(n * n))
        coeffs = rescale(sample_laguerre_tridiagonal(make_rng(n), params), params)
        mu = eigen_spectral(coeffs)
        for oracle in ORACLES:
            lam_ref, w_ref = oracle(coeffs.diag, coeffs.offdiag)
            np.testing.assert_allclose(mu.atoms, lam_ref, atol=1e-12)
            np.testing.assert_allclose(mu.weights, w_ref, atol=1e-12)


class TestActiveBackend:
    """eigen_spectral as the package calls it: edge cases and failures."""

    def test_single_entry(self):
        lam, w = eigen_firstrow(np.array([3.5]), np.array([]))
        assert lam[0] == 3.5 and w[0] == 1.0

    def test_matches_dense_eigh(self):
        rng = np.random.default_rng(7)
        diag = rng.uniform(-1, 1, 80)
        off = rng.uniform(0.5, 1.5, 79)
        lam, w = eigen_firstrow(diag, off)
        for oracle in ORACLES:
            lam_ref, w_ref = oracle(diag, off)
            np.testing.assert_allclose(lam, lam_ref, atol=1e-11)
            np.testing.assert_allclose(w, w_ref, atol=1e-11)

    @pytest.mark.parametrize(
        "seed,n,diag_normal", [(150, 150, False), (8, 200, True)], ids=["150", "200"]
    )
    def test_underflowed_weight_raises_value_error(self, seed, n, diag_normal):
        # Some first-row weights lie below the double range and come out as
        # exact zeros, from dense LAPACK as well; a measure with a zero
        # weight is rejected.
        rng = np.random.default_rng(seed)
        if diag_normal:
            diag, off = rng.normal(size=n), rng.uniform(0.2, 2, n - 1)
        else:
            diag, off = rng.uniform(-1, 1, n), rng.uniform(0.5, 1.5, n - 1)
        _, w_ref = dense_firstrow_eigh(diag, off)
        assert np.any(w_ref == 0.0)
        assert abs(w_ref.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError, match="strictly positive"):
            eigen_firstrow(diag, off)

    @pytest.mark.parametrize("n, module, solver", [
        (3, np.linalg, "eigh"),
        (129, scipy.linalg, "eigh_tridiagonal"),
    ], ids=["3", "129"])
    def test_solver_failure_raises(self, n, module, solver, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(module, solver, fail)
        with pytest.raises(NumericalError, match=f"size {n}"):
            eigen_firstrow(np.zeros(n), np.ones(n - 1))


class TestTridiagMoments:
    def test_against_dense_matrix_powers(self):
        rng = np.random.default_rng(12)
        n, order = 12, 10
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(0.5, 1.5, n - 1)
        a = dense(diag, off)
        expected = [np.linalg.matrix_power(a, k)[0, 0] for k in range(1, order + 1)]
        got = moments_via_operator(JacobiCoefficients(diag, off), order)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_window_equals_full_matrix(self):
        # Entries beyond the reachable window must not matter.
        rng = np.random.default_rng(13)
        diag = rng.uniform(-1, 1, 2000)
        off = rng.uniform(0.5, 1.5, 1999)
        order = 6
        full = moments_via_operator(JacobiCoefficients(diag, off), order)
        head = moments_via_operator(JacobiCoefficients(diag[: order + 1], off[:order]), order)
        np.testing.assert_array_equal(full, head)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            moments_via_operator(JacobiCoefficients(np.zeros(3), np.ones(2)), 0)
