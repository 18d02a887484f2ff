"""Jacobi matrices, spectral measures, and the two-way mapping between them.

eigen_spectral's two eigensolvers (numpy's dense eigh up to 128 rows,
scipy's tridiagonal eigh above) are checked against closed forms and
against each other.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import lagspec
from lagspec import spectral
from lagspec.ensembles import EnsembleParams, make_rng, rescale, sample_laguerre_tridiagonal
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


def laguerre_jacobi(seed, n, beta=2.0, gamma_power=2):
    """A rescaled Laguerre draw at gamma = n^gamma_power."""
    params = EnsembleParams(n, beta, float(n) ** gamma_power)
    return rescale(sample_laguerre_tridiagonal(make_rng(seed), params), params)


def stieltjes_reference(measure, order):
    """The Stieltjes procedure with full reorthogonalization, an independent oracle.

    Recurses on the orthonormal polynomial values at the atoms, projecting
    each new one against all earlier ones in the w-weighted inner product.
    """
    lam = measure.atoms
    w = measure.weights
    scale = max(1.0, float(np.max(np.abs(lam))))
    basis = np.empty((order, lam.size))
    diag = np.empty(order)
    off = np.empty(order - 1)
    p_prev = np.zeros_like(lam)
    p_cur = np.ones_like(lam)
    c_prev = 0.0
    for k in range(order):
        basis[k] = p_cur
        a = float(np.sum(w * lam * p_cur * p_cur))
        diag[k] = a
        if k == order - 1:
            break
        r = (lam - a) * p_cur - c_prev * p_prev
        proj = basis[: k + 1] @ (w * r)
        r = r - proj @ basis[: k + 1]
        norm2 = float(np.sum(w * r * r))
        if not np.isfinite(norm2) or norm2 <= (1e-12 * scale) ** 2:
            raise NumericalError(
                f"Stieltjes recursion broke down at step {k + 1}: squared norm {norm2!r}"
            )
        c = float(np.sqrt(norm2))
        off[k] = c
        p_prev = p_cur
        p_cur = r / c
        c_prev = c
    return JacobiCoefficients(diag, off)


class TestValidation:
    def test_offdiag_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            JacobiCoefficients([0.0, 0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            JacobiCoefficients([0.0, 0.0], [1.0, 1.0])

    def test_empty_diag(self):
        with pytest.raises(ValueError, match="^diag must be a nonempty 1-D array$"):
            JacobiCoefficients([], [])

    @pytest.mark.parametrize("atoms, weights, message", [
        ([0.0, 1.0], [1.0], "atoms and weights must be 1-D arrays of equal length"),
        ([], [], "measure must have at least one atom"),
        ([0.0, np.inf], [0.5, 0.5], "atoms must be finite"),
    ], ids=["unequal-lengths", "no-atoms", "infinite-atom"])
    def test_measure_rejected(self, atoms, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpectralMeasure(atoms, weights)

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

    @pytest.mark.parametrize("seed, n, atol", [(2, 2, 1e-12), (5, 5, 1e-12), (30, 30, 1e-12),
                                               (7, 80, 1e-11)], ids=["2", "5", "30", "80"])
    def test_matches_dense_eigh(self, seed, n, atol):
        rng = np.random.default_rng(seed)
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(0.5, 1.5, n - 1)
        lam, w = eigen_firstrow(diag, off)
        for oracle in ORACLES:
            lam_ref, w_ref = oracle(diag, off)
            np.testing.assert_allclose(lam, lam_ref, atol=atol)
            np.testing.assert_allclose(w, w_ref, atol=atol)

    @pytest.mark.parametrize("n", [1, 2, 50, 128, 129, 200])
    def test_model_draws_match_both_solvers(self, n):
        # Rescaled Laguerre draws, the matrices the sampler diagonalizes. The
        # uniform matrices of test_matches_dense_eigh, seeded by n, have
        # first-row weights that underflow to 0 at n = 128, 129 and 200,
        # which eigen_spectral rejects (test_underflowed_weight_raises_value_error).
        params = EnsembleParams(n=n, beta=2.0, gamma=float(n * n))
        coeffs = rescale(sample_laguerre_tridiagonal(make_rng(n), params), params)
        mu = eigen_spectral(coeffs)
        for oracle in ORACLES:
            lam_ref, w_ref = oracle(coeffs.diag, coeffs.offdiag)
            np.testing.assert_allclose(mu.atoms, lam_ref, atol=1e-12)
            np.testing.assert_allclose(mu.weights, w_ref, atol=1e-12)

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

    def test_order_below_one(self):
        mu = SpectralMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="^order must be >= 1, got 0$"):
            measure_to_coefficients(mu, 0)
        with pytest.raises(ValueError, match="^moment order must be >= 1, got 0$"):
            moments_of_measure(mu, 0)

    def test_breakdown_on_coincident_atoms(self):
        # A gap below resolution is accepted by the measure but collapses
        # the second off-diagonal, where the Stieltjes recursion breaks too.
        mu = SpectralMeasure([0.0, 1e-13, 1.0], [0.3, 0.3, 0.4])
        with pytest.raises(NumericalError, match="broke down at step 2"):
            measure_to_coefficients(mu, 3)
        with pytest.raises(NumericalError, match="broke down at step 2"):
            stieltjes_reference(mu, 3)

    def test_breakdown_on_coincident_atoms_after_band_merges(self):
        # Three clusters of 50 atoms, each narrower than 1e-13: the measure
        # is three atoms to working precision, and the band merges collapse
        # the third off-diagonal as the Stieltjes recursion does.
        atoms = np.concatenate([c + 1e-15 * np.arange(50) for c in (0.0, 1.0, 2.0)])
        mu = SpectralMeasure(atoms, np.full(150, 1.0 / 150))
        with pytest.raises(NumericalError, match="broke down at step 3"):
            measure_to_coefficients(mu, 150)
        with pytest.raises(NumericalError, match="broke down at step 3"):
            stieltjes_reference(mu, 150)
        # An order that stops short of the collapse is still answered.
        measure_to_coefficients(mu, 3)

    # 300 atoms take two levels of band merges over 128-atom blocks; the
    # orders cover the leading block and the coefficients past it.
    @pytest.mark.parametrize("order", [5, 50, 129, 300])
    def test_matches_stieltjes_reference(self, order):
        mu = eigen_spectral(laguerre_jacobi(41, 300))
        got = measure_to_coefficients(mu, order)
        ref = stieltjes_reference(mu, order)
        np.testing.assert_allclose(got.diag, ref.diag, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.offdiag, ref.offdiag, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed,n,beta,gamma_power", [
        # The benchmark's slice and inversion oracle: n = 1000, atol 1e-9.
        pytest.param(42, 1000, 2.0, 2, id="benchmark-size"),
        # Weights down to 4e-19: taking the atoms in their given order
        # instead of heaviest first loses this round trip to 2.6e-8.
        pytest.param(1, 400, 0.5, 3, id="tiny-weights"),
        # The largest dense block, and one, two and four levels of band
        # merges, the last with halves of unequal size.
        pytest.param(3, 128, 2.0, 2, id="one-block"),
        pytest.param(3, 129, 2.0, 2, id="one-merge"),
        pytest.param(3, 257, 2.0, 2, id="two-merges"),
        pytest.param(3, 1201, 2.0, 2, id="odd-size"),
    ])
    def test_laguerre_roundtrip(self, seed, n, beta, gamma_power):
        coeffs = laguerre_jacobi(seed, n, beta, gamma_power)
        back = measure_to_coefficients(eigen_spectral(coeffs), n)
        np.testing.assert_allclose(back.diag, coeffs.diag, rtol=0, atol=1e-9)
        np.testing.assert_allclose(back.offdiag, coeffs.offdiag, rtol=0, atol=1e-9)

    def test_input_measure_unchanged(self):
        mu = eigen_spectral(random_jacobi(7, 40))
        atoms, weights = mu.atoms.copy(), mu.weights.copy()
        measure_to_coefficients(mu, 40)
        np.testing.assert_array_equal(mu.atoms, atoms)
        np.testing.assert_array_equal(mu.weights, weights)

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg.lapack

        def failing(a, **kwargs):
            return a, np.zeros(a.shape[0]), np.zeros(a.shape[0] - 1), None, -1

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", failing)
        with pytest.raises(NumericalError, match="LAPACK info -1"):
            measure_to_coefficients(SpectralMeasure([0.0, 1.0], [0.5, 0.5]), 2)

    def test_band_reduction_failure_raises(self, monkeypatch):
        def failing(*args):
            args[-1].value = -5  # LAPACK's info argument

        monkeypatch.setattr(spectral, "_dsbtrd", lambda: failing)
        mu = eigen_spectral(laguerre_jacobi(4, 200))
        with pytest.raises(NumericalError, match="band tridiagonalization failed: LAPACK info -5"):
            measure_to_coefficients(mu, 200)

    def test_unexpected_band_routine_signature_refused(self, monkeypatch):
        from scipy.linalg import cython_lapack

        capsules = cython_lapack.__pyx_capi__
        monkeypatch.setitem(capsules, "dsbtrd", capsules["dsytrd"])
        spectral._dsbtrd.cache_clear()
        with pytest.raises(ImportError, match="unexpected signature"):
            spectral._dsbtrd()

    @pytest.mark.parametrize("n", [1, 2, 60, 128])
    def test_small_measures_use_one_dense_reduction(self, n, monkeypatch):
        # Up to 128 atoms the result is bit for bit one dsytrd of the
        # bordered matrix, heaviest atoms first, and no band merge runs.
        from scipy.linalg.lapack import dsytrd, dsytrd_lwork

        def no_merge(*args):
            raise AssertionError("band merge ran")

        monkeypatch.setattr(spectral, "_band_merge", no_merge)
        rng = np.random.default_rng(n)
        weights = rng.exponential(size=n) ** 4
        mu = SpectralMeasure(np.sort(rng.normal(size=n)), weights / weights.sum())
        got = measure_to_coefficients(mu, n)
        heavy_first = np.argsort(-mu.weights, kind="stable")
        bordered = np.zeros((n + 1, n + 1))
        bordered[1:, 0] = np.sqrt(mu.weights[heavy_first])
        bordered[1:, 1:] = np.diag(mu.atoms[heavy_first])
        lwork, _ = dsytrd_lwork(n + 1, lower=1)
        _, d, e, _, _ = dsytrd(bordered, lower=1, lwork=int(lwork))
        np.testing.assert_array_equal(got.diag, d[1:])
        np.testing.assert_array_equal(got.offdiag, np.abs(e[1:]))

    def test_memory_stays_far_below_a_dense_matrix(self):
        # One dense (n+1)^2 matrix at n = 2000 is 32 MB. The split keeps
        # 129x129 dense blocks (0.13 MB) and 3-row band arrays (48 kB), and
        # peaks near 0.3 MB; 2 MB leaves room for LAPACK's workspace choice
        # and stays 16 times below a dense matrix.
        n = 2000
        mu = eigen_spectral(laguerre_jacobi(6, n))
        measure_to_coefficients(mu, n)  # LAPACK resolved and imported outside the trace
        tracemalloc.start()
        try:
            measure_to_coefficients(mu, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
    # The measure path imports LAPACK on first use, scipy.linalg.cython_lapack
    # included; start-up pays for numpy only, and does not even load the sampler.
    code = ("import sys, lagspec.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg', "
            "'scipy.linalg.cython_lapack') if m in sys.modules), "
            "'lagspec.ensembles' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[] False"
