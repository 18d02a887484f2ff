"""Jacobi matrices, spectral measures, and the two-way mapping between them.

eigen_spectral's two solvers (numpy's dense eigh up to 25 rows, the
bidiagonal SVD above, its two halves on two threads from
spectral._SPLIT_ROWS rows) are checked against closed forms and against
two oracles, numpy's dense eigh and scipy's tridiagonal eigh (dstevd), both
of which form every eigenvector. Measures are checked against their
operator-side moments where atoms with an underflowed weight are dropped.
"""

import ctypes
import math
import operator
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import lagspec
from lagspec import cli, moments, spectral
from lagspec.ensembles import (EnsembleParams, RescalingMode, derive_seed, make_rng, rescale,
                               replicate_windows, sample_laguerre_tridiagonal)
from lagspec.errors import NumericalError
from lagspec.experiments import (ExperimentConfig, LinearGamma, PowerLawGamma, predicted_clt,
                                 run_mp_sanity)
from lagspec.moments import (NuVariant, dw_vector, mp_moments, nu_density, nu_moments,
                             semicircle_moments, semicircle_orthonormal_poly)
from lagspec.rates import AcPlusAtoms, f_outlier, mdp_rate_density, mdp_rate_series
from lagspec.spectral import (
    JacobiCoefficients,
    SpectralMeasure,
    eigen_spectral,
    free_jacobi,
    measure_to_coefficients,
    moments_of_measure,
    moments_via_operator,
)


# The head of every eigensolver failure's message.
EIGENSOLVER_FAILED = "tridiagonal eigensolver failed for matrix"


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
    """Oracle: scipy's tridiagonal eigh (dstevd), first row squared."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, offdiag)
    return vals, vecs[0] ** 2


# Each size is checked against both, neither of which eigen_spectral uses
# above 25 rows.
ORACLES = (dense_firstrow_eigh, tridiagonal_firstrow_eigh)


def eigen_firstrow(diag, offdiag):
    mu = eigen_spectral(JacobiCoefficients(diag, offdiag))
    return mu.atoms, mu.weights


def replace_routine(monkeypatch, routine, fake):
    """Make the resolved LAPACK call ``fake`` for ``routine``.

    ``fake`` receives the arguments as ctypes passes them, LAPACK's info
    last: an array as its address (see :func:`doubles`).
    """
    routines, integer = spectral._lapack()
    monkeypatch.setattr(spectral, "_lapack", lambda: ({**routines, routine: fake}, integer))


def doubles(address, size):
    """The ``size`` doubles at ``address``, as LAPACK receives a double array."""
    return np.ctypeslib.as_array(ctypes.cast(address, ctypes.POINTER(ctypes.c_double)), (size,))


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
        # 10 rows take the dense path, 129 and 200 the bidiagonal SVD.
        for n in (10, 129, 200):
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

    @pytest.mark.parametrize("n, beta, gamma_power, seed", [
        *(pytest.param(n, 2.0, 2, n, id=str(n))
          for n in (1, 2, 25, 26, 50, 64, 65, 128, 129, 200, 1000, 2000)),
        # The first of the benchmark's small-beta draws, derive_seed(7, i),
        # where no weight underflows, in any of the three solvers.
        pytest.param(400, 0.2, 3, derive_seed(7, 5), id="small-beta"),
    ])
    def test_model_draws_match_both_solvers(self, n, beta, gamma_power, seed):
        # Rescaled Laguerre draws, the matrices the sampler diagonalizes. The
        # uniform matrices of test_matches_dense_eigh, seeded by n, have
        # first-row weights that underflow to 0 at n = 128, 129 and 200
        # (test_underflowed_weights_are_dropped).
        coeffs = laguerre_jacobi(seed, n, beta, gamma_power)
        mu = eigen_spectral(coeffs)
        for oracle in ORACLES:
            lam_ref, w_ref = oracle(coeffs.diag, coeffs.offdiag)
            np.testing.assert_allclose(mu.atoms, lam_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mu.weights, w_ref, rtol=0, atol=1e-12)

    def test_large_roundtrip(self):
        # The first-row weights are accurate enough for the inverse map to
        # give the coefficients back far inside its own 1e-9 check
        # (test_laguerre_roundtrip), at 3e-13.
        coeffs = laguerre_jacobi(42, 1000)
        back = measure_to_coefficients(eigen_spectral(coeffs), 1000)
        np.testing.assert_allclose(back.diag, coeffs.diag, rtol=0, atol=1e-11)
        np.testing.assert_allclose(back.offdiag, coeffs.offdiag, rtol=0, atol=1e-11)

    def test_memory_stays_far_below_the_eigenvectors(self):
        # dstevd's eigenvector matrix and workspace at n = 2000 traced
        # 61 MB; dlasda without singular vectors needs a few n-by-levels
        # arrays and its workspace, near 0.6 MB.
        coeffs = laguerre_jacobi(6, 2000)
        eigen_spectral(coeffs)  # LAPACK resolved and imported outside the trace
        tracemalloc.start()
        try:
            eigen_spectral(coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 * 2**20

    # dlasda halves the bidiagonal until the blocks have at most 25 rows, so
    # its tree gains a level at every 26 * 2^k rows, and two of its arrays
    # are sized by that count of levels, also without singular vectors:
    # k = 3..6 on either side.
    # The split into two halves (spectral._SPLIT_ROWS rows and up) agrees
    # with the oracle to the same 1e-12 where the lower half's tree is one
    # level shallower than inside the whole one, at 26 * 2^k rows.
    @pytest.mark.parametrize("n", [129, 207, 208, 209, 415, 416, 417,
                                   831, 832, 833, 1663, 1664, 1665, 3327, 3328, 3329])
    def test_svd_sizes_print_nothing(self, n, capfd):
        # LAPACK reports an illegal argument only by printing it.
        coeffs = laguerre_jacobi(n, n)
        mu = eigen_spectral(coeffs)
        lam_ref, w_ref = tridiagonal_firstrow_eigh(coeffs.diag, coeffs.offdiag)
        np.testing.assert_allclose(mu.atoms, lam_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu.weights, w_ref, rtol=0, atol=1e-12)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "seed,n,diag_normal",
        [(150, 150, False), (8, 200, True), (600, spectral._SPLIT_ROWS, False)],
        ids=["150", "200", "split"],
    )
    def test_underflowed_weights_are_dropped(self, seed, n, diag_normal):
        # Some first-row weights lie below the double range and come out as
        # exact zeros, from dense LAPACK as well; their atoms are dropped,
        # and what is left is the same measure to working precision.
        rng = np.random.default_rng(seed)
        if diag_normal:
            diag, off = rng.normal(size=n), rng.uniform(0.2, 2, n - 1)
        else:
            diag, off = rng.uniform(-1, 1, n), rng.uniform(0.5, 1.5, n - 1)
        _, w_ref = dense_firstrow_eigh(diag, off)
        assert np.any(w_ref == 0.0)
        coeffs = JacobiCoefficients(diag, off)
        mu = eigen_spectral(coeffs)
        assert mu.n < n
        assert abs(mu.weights.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(moments_of_measure(mu, 10), moments_via_operator(coeffs, 10),
                                   rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n, reason", [(3, "no convergence"), (25, "no convergence"),
                                           (26, "LAPACK dlasda info 1"),
                                           (129, "LAPACK dlasda info 1")],
                             ids=["3", "25", "26", "129"])
    def test_solver_failure_raises(self, n, reason, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        def info_one(*args):
            args[-1].value = 1  # LAPACK's info: a singular value did not converge

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        replace_routine(monkeypatch, "dlasda", info_one)
        with pytest.raises(NumericalError, match=f"^{EIGENSOLVER_FAILED} of size {n}: {reason}$"):
            eigen_firstrow(np.zeros(n), np.ones(n - 1))

    @pytest.mark.parametrize("fill, norm", [(None, "0.0"), (np.nan, "nan")],
                             ids=["nothing", "nan"])
    def test_unwritten_first_row_raises(self, fill, norm, monkeypatch):
        # The first row of V is read from dlasda's workspace, which LAPACK
        # does not document as an output; one that is not a finite unit
        # vector is refused, here from a dlasda that reports success and
        # writes nothing, or NaN, to its workspace.
        def fake_dlasda(*args):
            if fill is not None:
                doubles(args[-3], 6 * 129 + 26**2)[:] = fill  # WORK
            args[-1].value = 0

        replace_routine(monkeypatch, "dlasda", fake_dlasda)
        with pytest.raises(NumericalError, match=f"^{EIGENSOLVER_FAILED} of size 129: LAPACK "
                           f"dlasda left a first row of V with squared norm {norm}$"):
            eigen_firstrow(np.zeros(129), np.ones(128))

    @pytest.mark.parametrize("n", [spectral._SPLIT_ROWS, 1000, 2000, 2001])
    def test_split_equals_one_dlasda_call(self, n, monkeypatch):
        # dlasda's top node done by hand (two halves, one dlasd6) gives its
        # bits, where both halves' trees are as deep as inside the whole.
        assert n >= spectral._SPLIT_ROWS
        coeffs = laguerre_jacobi(n, n)
        split = eigen_spectral(coeffs)
        monkeypatch.setattr(spectral, "_SPLIT_ROWS", n + 1)
        whole = eigen_spectral(coeffs)
        np.testing.assert_array_equal(split.atoms, whole.atoms)
        np.testing.assert_array_equal(split.weights, whole.weights)

    def test_threaded_halves_equal_the_halves_run_inline(self, monkeypatch):
        # The two halves share no array, so the thread changes no bit.
        draws = [laguerre_jacobi(seed, spectral._SPLIT_ROWS + 23 * seed) for seed in range(20)]
        threaded = [eigen_spectral(coeffs) for coeffs in draws]
        started = []

        class InlineThread:
            """threading.Thread's stand-in: the target runs at start()."""

            def __init__(self, target):
                self.target = target

            def start(self):
                started.append(self)
                self.target()

            def join(self):
                pass

        monkeypatch.setattr(spectral, "threading", types.SimpleNamespace(Thread=InlineThread))
        inline = [eigen_spectral(coeffs) for coeffs in draws]
        assert len(started) == 20
        for a, b in zip(threaded, inline):
            np.testing.assert_array_equal(a.atoms, b.atoms)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_concurrent_callers_each_get_their_own_measure(self):
        # Four callers on a 2-core host, each splitting its own matrices
        # over two threads, with thread switches forced often: every
        # measure is the one a lone call gives.
        draws = [laguerre_jacobi(seed, spectral._SPLIT_ROWS + seed) for seed in range(8)]
        alone = [eigen_spectral(coeffs) for coeffs in draws]
        got = [None] * len(draws)

        def caller(k):
            for i in range(k, len(draws), 4):
                got[i] = eigen_spectral(draws[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        for a, b in zip(got, alone):
            np.testing.assert_array_equal(a.atoms, b.atoms)
            np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("routine, sqre", [("dlasda", 1), ("dlasda", 0), ("dlasd6", 0)],
                             ids=["upper-half", "lower-half", "merge"])
    def test_split_failure_raises_on_the_calling_thread(self, routine, sqre, monkeypatch):
        # The upper half (sqre = 1) is solved on a second thread, the lower
        # half (sqre = 0) and their merge on the calling one. A nonzero info
        # from any of them is the eigensolver's failure, with the usual
        # wording, and the second thread has ended.
        real = spectral._lapack()[0][routine]

        def info_one(*args):
            if args[3].value != sqre:  # SQRE, the fourth argument of both routines
                return real(*args)
            args[-1].value = 1

        replace_routine(monkeypatch, routine, info_one)
        threads = threading.active_count()
        n = spectral._SPLIT_ROWS
        with pytest.raises(NumericalError,
                           match=f"^{EIGENSOLVER_FAILED} of size {n}: LAPACK {routine} info 1$"):
            eigen_spectral(laguerre_jacobi(n, n))
        assert threading.active_count() == threads

    def test_factorization_failure_raises(self, monkeypatch):
        def info_three(*args):
            args[-1].value = 3  # LAPACK's info: the third pivot is not positive

        replace_routine(monkeypatch, "dpttrf", info_three)
        with pytest.raises(NumericalError,
                           match=f"^{EIGENSOLVER_FAILED} of size 129: LAPACK dpttrf info 3$"):
            eigen_firstrow(np.zeros(129), np.ones(128))


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

    # 300 atoms take three levels of band merges over leaves of 37 and 38
    # atoms; the orders run from inside the leading leaf to all the atoms.
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
        # The largest leaf and one merge of two leaves; then two, two,
        # three and five levels of band merges, the last with halves of
        # unequal size.
        pytest.param(3, spectral._LEAF_ATOMS, 2.0, 2, id="one-leaf"),
        pytest.param(3, spectral._LEAF_ATOMS + 1, 2.0, 2, id="one-leaf-merge"),
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
        # Two atoms are one leaf: dsbtrd of its bordered band is the only call.
        def failing(*args):
            args[-1].value = -1  # LAPACK's info argument

        replace_routine(monkeypatch, "dsbtrd", failing)
        with pytest.raises(NumericalError, match="^LAPACK dsbtrd info -1$"):
            measure_to_coefficients(SpectralMeasure([0.0, 1.0], [0.5, 0.5]), 2)

    def test_band_reduction_failure_raises(self, monkeypatch):
        def failing(*args):
            args[-1].value = -5  # LAPACK's info argument

        mu = eigen_spectral(laguerre_jacobi(4, 200))
        replace_routine(monkeypatch, "dsbtrd", failing)
        with pytest.raises(NumericalError, match="^LAPACK dsbtrd info -5$"):
            measure_to_coefficients(mu, 200)

    @pytest.mark.parametrize("routine", sorted(spectral._LAPACK_ARGS))
    def test_unexpected_band_routine_signature_refused(self, routine, monkeypatch):
        # Every routine taken from scipy's Cython table is checked against
        # its argument kinds, here on dsytrd's capsule in its place.
        from scipy.linalg import cython_lapack

        capsules = cython_lapack.__pyx_capi__
        monkeypatch.setitem(capsules, routine, capsules["dsytrd"])
        with pytest.raises(ImportError, match=f"LAPACK {routine} has an unexpected signature"):
            spectral._scipy_lapack()

    @pytest.mark.parametrize("n", [1, 2, 30, spectral._LEAF_ATOMS])
    def test_small_measures_use_one_band_reduction(self, n, monkeypatch):
        # Up to _LEAF_ATOMS atoms the result is bit for bit one dsbtrd of
        # the bordered matrix in band storage, heaviest atoms first, and no
        # band merge runs. The dsbtrd called here is the resolved one:
        # numpy's and scipy's builds of LAPACK may round differently.
        def no_merge(*args):
            raise AssertionError("band merge ran")

        monkeypatch.setattr(spectral, "_band_merge", no_merge)
        rng = np.random.default_rng(n)
        weights = rng.exponential(size=n) ** 4
        mu = SpectralMeasure(np.sort(rng.normal(size=n)), weights / weights.sum())
        got = measure_to_coefficients(mu, n)
        heavy_first = np.argsort(-mu.weights, kind="stable")
        # Lower band storage, band[i - j, j] = A[i, j], half-bandwidth n.
        band = np.zeros((n + 1, n + 1), order="F")
        band[0, 1:] = mu.atoms[heavy_first]
        band[1:, 0] = np.sqrt(mu.weights[heavy_first])
        d, e = np.empty(n + 1), np.empty(n)
        spectral._run_lapack("dsbtrd", b"N", b"L", n + 1, n, band, n + 1, d, e, np.empty(1), 1,
                             np.empty(n + 1))
        np.testing.assert_array_equal(got.diag, d[1:])
        np.testing.assert_array_equal(got.offdiag, np.abs(e[1:]))

    def test_memory_stays_far_below_a_dense_matrix(self):
        # One dense (n+1)^2 matrix at n = 2000 is 32 MB. The split keeps
        # leaf bands of at most 57x57 (26 kB) and 3-row merge bands (48 kB),
        # and peaks near 0.3 MB; 2 MB stays 16 times below a dense matrix.
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


TWO_ATOMS = SpectralMeasure([0.0, 1.0], [0.5, 0.5])
THREE_ROWS = EnsembleParams(3, 2.0, 10.0)


def same_repr(a, b):
    return repr(a) == repr(b)


def config_with(replicates=100, statistic=1, mode=RescalingMode.NONE, b_n=None):
    return ExperimentConfig(n=3, beta=2.0, gamma_rule=LinearGamma(0.5), replicates=replicates,
                            master_seed=1, statistic=statistic, b_n=b_n, mode=mode)


@pytest.mark.parametrize("call, name, same", [
    pytest.param(lambda k: measure_to_coefficients(TWO_ATOMS, k), "order", same_repr,
                 id="measure_to_coefficients"),
    pytest.param(lambda k: moments_via_operator(free_jacobi(3), k), "moment order", same_repr,
                 id="moments_via_operator"),
    pytest.param(lambda k: moments_of_measure(TWO_ATOMS, k), "moment order", same_repr,
                 id="moments_of_measure"),
    pytest.param(free_jacobi, "n", same_repr, id="free_jacobi"),
    pytest.param(lambda k: mdp_rate_series([0, 1, 0], 0.0, NuVariant.STANDARD, k), "k_trunc",
                 same_repr, id="mdp_rate_series"),
    pytest.param(semicircle_moments, "order", same_repr, id="semicircle_moments"),
    pytest.param(semicircle_orthonormal_poly, "k", same_repr, id="semicircle_orthonormal_poly"),
    # EnsembleParams and ExperimentConfig store the integer as the caller gave it.
    pytest.param(lambda n: EnsembleParams(n, 2.0, 10.0), "n", operator.eq, id="EnsembleParams"),
    pytest.param(lambda i: derive_seed(1, i), "index", same_repr, id="derive_seed"),
    pytest.param(lambda r: list(replicate_windows(1, r, THREE_ROWS, 2)), "replicates",
                 same_repr, id="replicate_windows-replicates"),
    pytest.param(lambda w: list(replicate_windows(1, 2, THREE_ROWS, w)), "window",
                 same_repr, id="replicate_windows-window"),
    pytest.param(config_with, "replicates", operator.eq, id="ExperimentConfig"),
    pytest.param(moments._chebyshev_lebesgue, "n_nodes", same_repr, id="_chebyshev_lebesgue"),
    pytest.param(moments._semicircle_gauss, "n_nodes", same_repr, id="_semicircle_gauss"),
])
def test_non_integer_orders_are_refused(call, name, same):
    # A float is refused with a ValueError, and a numpy integer counts as the
    # int it equals.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 2\.0$"):
        call(2.0)
    assert same(call(np.int64(2)), call(2))


@pytest.mark.parametrize("call, value, message", [
    pytest.param(lambda k: measure_to_coefficients(TWO_ATOMS, k), 0,
                 "order must be >= 1, got 0", id="measure_to_coefficients"),
    pytest.param(lambda k: moments_via_operator(free_jacobi(3), k), 0,
                 "moment order must be >= 1, got 0", id="moments_via_operator"),
    pytest.param(lambda k: moments_of_measure(TWO_ATOMS, k), 0,
                 "moment order must be >= 1, got 0", id="moments_of_measure"),
    pytest.param(free_jacobi, 0, "n must be >= 1, got 0", id="free_jacobi"),
    pytest.param(lambda k: mdp_rate_series([0, 1, 0], 0.0, NuVariant.STANDARD, k), 0,
                 "k_trunc must be >= 1, got 0", id="mdp_rate_series"),
    pytest.param(semicircle_moments, 0, "order must be >= 1, got 0", id="semicircle_moments"),
    pytest.param(semicircle_orthonormal_poly, -1, "k must be >= 0, got -1",
                 id="semicircle_orthonormal_poly"),
    pytest.param(lambda n: EnsembleParams(n, 2.0, 10.0), np.int64(0), "n must be >= 1, got 0",
                 id="EnsembleParams"),
    pytest.param(lambda i: derive_seed(1, i), -1, "index must be >= 0, got -1",
                 id="derive_seed"),
    pytest.param(lambda r: list(replicate_windows(1, r, THREE_ROWS, 2)), -1,
                 "replicates must be >= 0, got -1", id="replicate_windows-replicates"),
    pytest.param(lambda w: list(replicate_windows(1, 2, THREE_ROWS, w)), 0,
                 "window must be in 1..3, got 0", id="replicate_windows-window-low"),
    pytest.param(lambda w: list(replicate_windows(1, 2, THREE_ROWS, w)), 4,
                 "window must be in 1..3, got 4", id="replicate_windows-window-high"),
    pytest.param(config_with, 0, "replicates must be >= 1, got 0", id="ExperimentConfig"),
    pytest.param(lambda k: run_mp_sanity(config_with(statistic=k)), 0,
                 "moment index must be in 1..4, got 0", id="run_mp_sanity-low"),
    pytest.param(lambda k: run_mp_sanity(config_with(statistic=k)), 5,
                 "moment index must be in 1..4, got 5", id="run_mp_sanity-high"),
    pytest.param(moments._chebyshev_lebesgue, 0, "n_nodes must be >= 1, got 0",
                 id="_chebyshev_lebesgue"),
    pytest.param(moments._semicircle_gauss, 0, "n_nodes must be >= 1, got 0",
                 id="_semicircle_gauss"),
    pytest.param(lambda k: cli._cmd_mdp(types.SimpleNamespace(k=k)), 0,
                 "moment index must be in 1..20, got 0", id="cli-mdp-low"),
    pytest.param(lambda k: cli._cmd_mdp(types.SimpleNamespace(k=k)), 21,
                 "moment index must be in 1..20, got 21", id="cli-mdp-high"),
])
def test_out_of_range_integers_are_refused(call, value, message):
    # One wording for every bound: >= low, or in low..high where there is a high.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def bulk(x):
    """A semicircle bulk of mass 0.9, leaving 0.1 to one atom."""
    return 0.9 * math.sqrt(4.0 - x * x) / (2.0 * math.pi)


# (id, the call with the real under test, its name, a value out of range, the refusal).
REAL_SITES = [
    ("EnsembleParams-beta", lambda v: EnsembleParams(5, v, 10.0), "beta", 0,
     "beta must be > 0, got 0"),
    ("EnsembleParams-gamma", lambda v: EnsembleParams(5, 2.0, v), "gamma", 4.0,
     "gamma must exceed (n-1)*beta/2 = 4.0, got 4.0"),
    ("PowerLawGamma-exponent", PowerLawGamma, "power-law exponent", 1.0,
     "power-law exponent must be > 1, got 1.0"),
    ("PowerLawGamma-coefficient", lambda v: PowerLawGamma(2.0, v), "coefficient", -1.0,
     "coefficient must be > 0, got -1.0"),
    ("LinearGamma", LinearGamma, "tau", 1.5, "tau must be in (0, 1], got 1.5"),
    ("mp_moments", lambda v: mp_moments(3, v), "tau", 0.0, "tau must be in (0, 1], got 0.0"),
    ("ExperimentConfig-b_n", lambda v: config_with(b_n=v), "b_n", 0.0,
     "b_n must be > 0, got 0.0"),
    ("predicted_clt", lambda v: predicted_clt(np.array([0.0, 1.0]), v), "zeta", -0.5,
     "zeta must be >= 0, got -0.5"),
    ("f_outlier", f_outlier, "x", -1.5, "|x| must be >= 2, got 1.5"),
    ("AcPlusAtoms-location", lambda v: AcPlusAtoms(bulk, [(v, 0.1)]), "atom location", 1.0,
     "atom at 1.0 lies inside [-2, 2]; outliers only"),
    ("AcPlusAtoms-mass", lambda v: AcPlusAtoms(bulk, [(3.0, v)]), "atom mass", -0.1,
     "atom mass must be > 0, got -0.1"),
    ("nu_moments", lambda v: nu_moments(5, v), "xi", -1.0, "xi must be >= 0, got -1.0"),
    ("dw_vector", lambda v: dw_vector(5, v), "xi", -1.0, "xi must be >= 0, got -1.0"),
    ("nu_density", lambda v: nu_density(0.5, v), "xi", -1.0, "xi must be >= 0, got -1.0"),
    ("_nu_by_quadrature", lambda v: moments._nu_by_quadrature(5, v), "xi", -1.0,
     "xi must be >= 0, got -1.0"),
    ("mdp_rate_series", lambda v: mdp_rate_series([0.0] * 5, v, NuVariant.STANDARD, 5), "xi",
     -1.0, "xi must be >= 0, got -1.0"),
    ("mdp_rate_density", lambda v: mdp_rate_density(lambda x: 0.0, v), "xi", -1.0,
     "xi must be >= 0, got -1.0"),
]
REAL_IDS = [site[0] for site in REAL_SITES]


# A str is refused, not parsed; b_n takes None, for the CLT.
@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{site}-{value!r}")
    for site, call, name, *_ in REAL_SITES for value in ["2", None, math.nan, math.inf, -math.inf]
    if not (name == "b_n" and value is None)])
def test_non_finite_reals_are_refused(call, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a finite number')}, "
                                         f"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("call, value, message", [site[1:2] + site[3:] for site in REAL_SITES],
                         ids=REAL_IDS)
def test_out_of_range_reals_are_refused(call, value, message):
    # One wording per bound (> low, >= low, in (low, high]); gamma's bound and an
    # atom inside the bulk keep the messages that give their reasons.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@settings(max_examples=25, deadline=None)
@given(value=st.one_of(st.floats(), st.none(), st.text(max_size=4)))
@pytest.mark.parametrize("call", [site[1] for site in REAL_SITES], ids=REAL_IDS)
def test_a_real_site_returns_or_raises_value_error(call, value):
    # Never a TypeError from a comparison or from float() on what it cannot read.
    try:
        call(value)
    except ValueError:
        pass


# Each call passes a member's value (a str) where an enum member belongs. Read
# as a member, the str is neither: a test for STANDARD picks the shifted
# numbers, a test for SHIFTED the standard ones, and the MDP rate's two forms
# disagree. ExperimentConfig refuses it before a runner reads it.
@pytest.mark.parametrize("call, name, kind", [
    (lambda v: nu_moments(5, 1.0, v), "variant", NuVariant),
    (lambda v: dw_vector(5, 1.0, v), "variant", NuVariant),
    (lambda v: nu_density(0.5, 1.0, v), "variant", NuVariant),
    (lambda v: moments._nu_by_quadrature(5, 1.0, v), "variant", NuVariant),
    (lambda v: predicted_clt(np.array([0.0, 1.0]), 1.0, v), "variant", NuVariant),
    (lambda v: mdp_rate_series([0.0, 0.0, 1.0, 0.0, 5.0], 1.0, v, 5), "variant", NuVariant),
    (lambda v: mdp_rate_density(lambda x: 0.0, 1.0, v), "variant", NuVariant),
    (lambda v: config_with(mode=v), "mode", RescalingMode),
], ids=["nu_moments", "dw_vector", "nu_density", "_nu_by_quadrature", "predicted_clt",
        "mdp_rate_series", "mdp_rate_density", "ExperimentConfig"])
@pytest.mark.parametrize("value", ["standard", "shifted"])
def test_choices_are_members_not_their_values(call, name, kind, value):
    with pytest.raises(ValueError, match=f"^{name} must be a {kind.__name__}, got '{value}'$"):
        call(value)


def test_run_mp_sanity_refuses_a_mode_string():
    # Its own check would read "none" as a centering: "MP sanity runs on the uncentered matrix".
    with pytest.raises(ValueError, match="^mode must be a RescalingMode, got 'none'$"):
        run_mp_sanity(config_with(mode="none"))


def test_cli_import_loads_no_scipy_subpackage():
    # The measure path resolves LAPACK on first use; start-up pays for numpy
    # only, and does not even load the sampler.
    code = ("import sys, lagspec.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg', "
            "'scipy.linalg.cython_lapack') if m in sys.modules), "
            "'lagspec.ensembles' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[] False"


def fake_library(config, routines=tuple(spectral._LAPACK_ARGS)):
    """A library reporting ``config`` that exports scipy_<routine>_64_ for ``routines``."""
    symbols = {f"scipy_{routine}_64_": object() for routine in routines}
    return types.SimpleNamespace(scipy_openblas_get_config64_=lambda: config, **symbols)


def numpy_route() -> bool:
    """Whether LAPACK comes from the library numpy.linalg is linked against."""
    return spectral._lapack()[1] is ctypes.c_int64


class TestLapackRoutes:
    @pytest.mark.parametrize("library", [
        pytest.param(object(), id="no-openblas"),
        pytest.param(fake_library(b"OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell"), id="lp64"),
        pytest.param(fake_library(b"OpenBLAS 0.3.31 USE64BITINT", ["dpttrf", "dsbtrd"]),
                     id="no-dlasda"),
    ])
    def test_other_libraries_select_scipy(self, library):
        # Only an ILP64 scipy-openblas exporting all three routines is used;
        # anything else gets scipy's Cython table, with C ints.
        routines, integer = spectral._resolve_lapack(library)
        assert integer is ctypes.c_int
        assert sorted(routines) == sorted(spectral._LAPACK_ARGS)

    def test_numpy_openblas_selected_where_numpy_bundles_it(self):
        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__)
        if not hasattr(library, "scipy_openblas_get_config64_"):
            pytest.skip("numpy is not linked against scipy-openblas")
        config = library.scipy_openblas_get_config64_
        config.restype = ctypes.c_char_p
        assert numpy_route() == (b"USE64BITINT" in config().split())

    # Tolerances, not bit equality: numpy's and scipy's wheels may bundle
    # different OpenBLAS versions.
    # 129 rows take one dlasda call, 1000 the two halves and dlasd6.
    @pytest.mark.parametrize("n", [129, 1000])
    def test_routes_agree_on_draws(self, n, monkeypatch):
        assert (n >= spectral._SPLIT_ROWS) == (n == 1000)
        coeffs = laguerre_jacobi(n, n)
        mu = eigen_spectral(coeffs)
        scipy_lapack = spectral._scipy_lapack()
        monkeypatch.setattr(spectral, "_lapack", lambda: scipy_lapack)
        ref = eigen_spectral(coeffs)
        np.testing.assert_allclose(mu.atoms, ref.atoms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu.weights, ref.weights, rtol=0, atol=1e-12)

    def test_routes_agree_on_inversion(self, monkeypatch):
        mu = eigen_spectral(laguerre_jacobi(42, 1000))
        got = measure_to_coefficients(mu, mu.n)
        scipy_lapack = spectral._scipy_lapack()
        monkeypatch.setattr(spectral, "_lapack", lambda: scipy_lapack)
        ref = measure_to_coefficients(mu, mu.n)
        np.testing.assert_allclose(got.diag, ref.diag, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.offdiag, ref.offdiag, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("band, refused", [
        (np.zeros((3, 6)), r"float64 of shape \(3, 6\), Fortran-contiguous: False"),
        (np.zeros((3, 6), dtype=np.float32, order="F"),
         r"float32 of shape \(3, 6\), Fortran-contiguous: True"),
    ], ids=["c-order", "float32"])
    def test_double_array_refused_before_lapack_runs(self, band, refused, monkeypatch):
        # Arrays reach LAPACK as bare addresses, so their layout is checked
        # first: a C-order or float32 band would be read as other numbers.
        calls = []
        replace_routine(monkeypatch, "dsbtrd", lambda *args: calls.append(args))
        with pytest.raises(TypeError, match="^LAPACK dsbtrd takes float64 Fortran-contiguous "
                           f"arrays, got {refused}$"):
            spectral._run_lapack("dsbtrd", b"N", b"L", 6, 2, band, 3, np.empty(6), np.empty(5),
                                 np.empty(1), 1, np.empty(6))
        assert calls == []

    def test_numpy_route_loads_no_scipy(self):
        # The smallest and the largest benchmark size of the SVD path and a
        # full-order inversion at n = 1000, in a fresh process.
        if not numpy_route():
            pytest.skip("LAPACK comes from scipy here")
        code = ("import sys\n"
                "from lagspec.ensembles import EnsembleParams, make_rng, sample_spectral_measure\n"
                "from lagspec.spectral import measure_to_coefficients\n"
                "for n in (129, 2000, 1000):\n"
                "    mu = sample_spectral_measure(make_rng(n), EnsembleParams(n, 2.0, n ** 2))\n"
                "measure_to_coefficients(mu, mu.n)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "[]"
