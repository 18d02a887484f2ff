"""The model on Python floats: its draws, its QL spectrum and its measure check.

The scalar draws are checked bit for bit against the vectorized sampler
they restate, on both sides of the 64-row cut, and the QL eigensolver
against two oracles that form every eigenvector: numpy's dense eigh and
scipy's tridiagonal eigh (dstevd). Its measure check is checked against
``SpectralMeasure``'s.
"""

import copy
import decimal
import inspect
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lagspec
from lagspec import scalar
from lagspec.ensembles import (EnsembleParams, RescalingMode, _center, _window, derive_seed,
                               make_rng, rescale, sample_laguerre_tridiagonal)
from lagspec.errors import NumericalError
from lagspec.spectral import (JacobiCoefficients, eigen_spectral, moments_of_measure,
                              moments_via_operator)


def oracles(diag, offdiag):
    """(eigenvalues, squared first eigenvector row) from dense eigh and from dstevd."""
    dense = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    vals, vecs = np.linalg.eigh(dense)
    out = [(vals, vecs[0] ** 2)]
    if len(diag) > 1:
        vals, vecs = scipy.linalg.eigh_tridiagonal(diag, offdiag)
        out.append((vals, vecs[0] ** 2))
    return out


def valid_draw(params, master):
    """The first rescaled draw derive_seed(master, i), i = 0, 1, ..., that is Jacobi data."""
    for i in range(1000):
        try:
            return scalar._rescaled_model(derive_seed(master, i), params)
        except ValueError:
            pass
    raise AssertionError("no valid draw")


class TestDraws:
    # Any n up to 400, well past the cut of 64 rows (lagspec sample draws
    # here at every size), beta in [0.01, 8] (shapes below 1 take the U4
    # boost), gamma from just above (n-1)beta/2 up to the bound where
    # 2 gamma n beta overflows, every mode, any key. In principle an
    # acceptance decision within about 1e-10 of its boundary, where numpy's
    # log and math.log round apart, could still differ; none has been seen.
    # The first example drew a different z_23 while 1 - W + ln W was taken
    # through log at every W; the second is a full n = 2000 draw.
    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(1, 400),
        beta=st.floats(0.01, 8.0),
        log_extra=st.floats(-2.0, 308.0),
        mode=st.sampled_from(list(RescalingMode)),
        key=st.integers(0, 2**64 - 1),
    )
    @example(n=12, beta=1.0, log_extra=29.4375, mode=RescalingMode.STANDARD, key=3580)
    @example(n=2000, beta=2.0, log_extra=4.0, mode=RescalingMode.SHIFTED, key=7)
    def test_scalar_draws_are_the_vectorized_rows(self, n, beta, log_extra, mode, key):
        gamma = (n - 1) * beta / 2.0 + 10.0**log_extra
        try:
            params = EnsembleParams(n, beta, gamma, mode)
        except ValueError:
            assume(False)
        diag, offdiag = scalar._draw(key, params)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ref_diag, ref_offdiag = (row[0] for row in _window([key], params, n))
            assert np.array_equal(diag, ref_diag, equal_nan=True)
            assert np.array_equal(offdiag, ref_offdiag, equal_nan=True)
            if mode is not RescalingMode.NONE:
                ref_diag, ref_offdiag = _center(ref_diag, ref_offdiag, params)
        # The CLI's rescaled lists, or its error, against the library's.
        try:
            got = scalar._rescaled_model(key, params)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                JacobiCoefficients(ref_diag, ref_offdiag)
        else:
            assert got == (ref_diag.tolist(), ref_offdiag.tolist())

    def test_large_gamma_draws_are_the_vectorized_rows(self):
        # gamma = 1e20 .. 1e40, where W lies within a few ulps of 1 and d
        # magnifies the last bit of ln W a billionfold and more: with ln W
        # from each side's log, 2 of these 84 draws differed.
        for e in range(20, 41):
            for key in range(4):
                params = EnsembleParams(64, 2.0, 10.0**e)
                diag, offdiag = _window([key], params, 64)
                assert scalar._draw(key, params) == (diag[0].tolist(), offdiag[0].tolist())

    @pytest.mark.parametrize("n", [1, 2, 64, 65])
    def test_library_draw_is_the_vectorized_row_on_both_sides_of_the_cut(self, n):
        params = EnsembleParams(n, 0.5, 3.0 * n)
        coeffs = sample_laguerre_tridiagonal(make_rng(11), params)
        diag, offdiag = _window([derive_seed(11, 0)], params, n)
        assert np.array_equal(coeffs.diag, diag[0])
        assert np.array_equal(coeffs.offdiag, offdiag[0])

    def test_zero_shape_draws_zero(self):
        # beta' = 2.5e-324 rounds to 0, so every even chi-square has shape 0;
        # numpy's U4^(1/0) = U4^inf makes those draws 0, and so does _gamma.
        params = EnsembleParams(3, 5e-324, 1.0)
        diag, offdiag = scalar._draw(5, params)
        with np.errstate(divide="ignore"):
            ref_diag, ref_offdiag = _window([5], params, 3)
        assert offdiag == [0.0, 0.0] == ref_offdiag[0].tolist()
        assert diag == ref_diag[0].tolist()
        with pytest.raises(ValueError, match="^off-diagonal entries must be strictly positive$"):
            scalar._rescaled_model(5, params)

    def test_zero_centering_scale_is_not_finite(self, monkeypatch):
        # sqrt(2 gamma n beta) underflows to 0: numpy's division gives inf or
        # NaN, so a valid raw draw is refused as not finite after centering.
        params = EnsembleParams(2, 1e-300, 1e-300)
        assert scalar._centering(params)[1] == 0.0
        monkeypatch.setattr(scalar, "_draw", lambda key, params: ([1.0, 2.0], [0.5]))
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            scalar._rescaled_model(3, params)
        with np.errstate(divide="ignore"), pytest.raises(ValueError,
                                                         match="^coefficients must be finite$"):
            rescale(JacobiCoefficients([1.0, 2.0], [0.5]), params)


def exact_log_excess(w: float) -> float:
    """1 - w + ln w to 60 digits, rounded to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        v = decimal.Decimal(w)
        return float(1 - v + v.ln())


class TestLogSeries:
    # From d = 2^30 on, an accepted normal keeps |W - 1| below 3.8e-4.
    @settings(deadline=None, max_examples=300)
    @given(t=st.floats(-3.8e-4, 3.8e-4))
    def test_accurate_to_double_precision(self, t):
        w = 1.0 + t
        exact = exact_log_excess(w)
        assert abs(scalar._log_series(w - 1.0) - exact) <= 1e-15 * abs(exact)

    def test_array_gives_the_floats_bits(self):
        t = np.random.default_rng(1).uniform(-3.8e-4, 3.8e-4, 10_000)
        assert scalar._log_series(t).tolist() == [scalar._log_series(v) for v in t.tolist()]

    def test_bound_on_w(self):
        # The largest |cX| at d = 2^30: |X| <= 2 sqrt(-ln 2^-53).
        cx = 2.0 * math.sqrt(53.0 * math.log(2.0)) / math.sqrt(9.0 * scalar._SERIES_D)
        assert max(abs((1.0 + cx) ** 3 - 1.0), abs((1.0 - cx) ** 3 - 1.0)) < 3.8e-4


class TestQlSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 50, 64])
    def test_matches_both_oracles(self, n):
        params = EnsembleParams(n, 2.0, float(n) ** 2)
        diag, offdiag = scalar._rescaled_model(derive_seed(n, 0), params)
        atoms, weights = scalar._ql_spectrum(diag, offdiag)
        assert len(atoms) == n
        for lam, w in oracles(diag, offdiag):
            np.testing.assert_allclose(atoms, lam, rtol=0, atol=1e-13)
            np.testing.assert_allclose(weights, w, rtol=0, atol=1e-13)

    def test_single_row(self):
        assert scalar._ql_spectrum([-2.5], []) == ([-2.5], [1.0])

    def test_free_jacobi_closed_form(self):
        n = 64
        atoms, weights = scalar._ql_spectrum([0.0] * n, [1.0] * (n - 1))
        j = np.arange(n, 0, -1)
        np.testing.assert_allclose(atoms, 2 * np.cos(j * np.pi / (n + 1)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights, (2.0 / (n + 1)) * np.sin(j * np.pi / (n + 1)) ** 2,
                                   rtol=0, atol=1e-15)

    def test_small_beta_drops_only_weights_below_the_double_range(self):
        # beta = 0.01: the off-diagonals are tiny, most first-row weights lie
        # far below 1e-12 and some below the double range. Those come out as
        # exact zeros and their atoms are dropped; every kept atom is an
        # oracle eigenvalue with the oracle's weight, and the moments hold.
        params = EnsembleParams(64, 0.01, 64.0**2)
        diag, offdiag = valid_draw(params, 3)
        atoms, weights = scalar._ql_spectrum(diag, offdiag)
        assert len(atoms) < 64
        assert abs(math.fsum(weights) - 1.0) < 1e-12
        for lam, w in oracles(diag, offdiag):
            nearest = np.abs(np.subtract.outer(atoms, lam)).argmin(axis=1)
            np.testing.assert_allclose(atoms, lam[nearest], rtol=0, atol=1e-13)
            np.testing.assert_allclose(weights, w[nearest], rtol=0, atol=1e-13)
            dropped = np.setdiff1d(np.arange(64), nearest)
            assert np.all(w[dropped] < 1e-13)
        coeffs = JacobiCoefficients(diag, offdiag)
        np.testing.assert_allclose(moments_of_measure(lagspec.SpectralMeasure(atoms, weights), 8),
                                   moments_via_operator(coeffs, 8), rtol=1e-12, atol=1e-12)

    def test_result_does_not_depend_on_the_magnitude(self):
        # J is scaled by a power of two before the QL, so 2^1017 J, with
        # entries near 1e306, gives exactly the atoms of J times 2^1017 and
        # the same weights: nothing overflows.
        params = EnsembleParams(64, 2.0, 64.0**2)
        diag, offdiag = scalar._rescaled_model(derive_seed(8, 0), params)
        atoms, weights = scalar._ql_spectrum(diag, offdiag)
        big = scalar._ql_spectrum([math.ldexp(v, 1017) for v in diag],
                                  [math.ldexp(v, 1017) for v in offdiag])
        assert max(map(abs, big[0])) > 1e305
        assert big == ([math.ldexp(v, 1017) for v in atoms], weights)

    def test_unscaled_model_near_the_gamma_bound(self):
        # --mode none with 2 gamma n beta just below the float range. The
        # diagonal entries round to one float near 1.3e306 (their chi-square
        # fluctuations lie below its spacing) and the off-diagonals near
        # 1e154 are negligible beside them: numerically J is that float
        # times the identity, and the measure is one atom of weight 1, as
        # from dense eigh.
        params = EnsembleParams(64, 2.0, 1.7e308 / (2.0 * 64 * 2.0), RescalingMode.NONE)
        diag, offdiag = valid_draw(params, 4)
        atoms, weights = scalar._ql_spectrum(diag, offdiag)
        assert (atoms, weights) == ([diag[0]], [1.0])
        for lam, _ in oracles(np.array(diag), np.array(offdiag)):
            np.testing.assert_allclose(lam, diag[0], rtol=1e-15, atol=0)

    def test_underflowed_rotation_splits_the_block(self, monkeypatch):
        # Valid Jacobi data on which one rotation's math.hypot returns 0:
        # the QL splits the block there and still finds eigen_spectral's two
        # atoms exactly, and its weights to rounding.
        diag = [0.5243466703109485, 1e-178, -0.19542775330335038, 0.0, 0.0, 0.0,
                -0.026500043078224067, 0.0, 1e-170]
        offdiag = [0.8100594214291802, 2.1347088327510224e-239, 1.1174636390777169e-41,
                   2.382170741028597e-224, 2.3898774113518076e-216, 0.3162239979332532,
                   3.359060784827383e-102, 0.5276088092937392]
        hypot, zeros = math.hypot, []

        def counting_hypot(*args):
            r = hypot(*args)
            zeros.append(r == 0.0)
            return r

        monkeypatch.setattr(math, "hypot", counting_hypot)
        atoms, weights = scalar._ql_spectrum(diag, offdiag)
        monkeypatch.undo()
        assert sum(zeros) == 1
        mu = eigen_spectral(JacobiCoefficients(diag, offdiag))
        assert atoms == mu.atoms.tolist()
        np.testing.assert_allclose(weights, mu.weights, rtol=0, atol=1.2e-16)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(scalar, "_QL_ITERATIONS", 2)
        with pytest.raises(NumericalError, match="^tridiagonal eigensolver failed for matrix "
                           "of size 40: an eigenvalue did not converge in 2 QL iterations$"):
            scalar._ql_spectrum([0.0] * 40, [1.0] * 39)

    def test_coincident_eigenvalues_are_refused(self):
        # --mode none at gamma = 1e31: the off-diagonals are a few ulps of the
        # diagonal entries near 2e31, so eigenvalues round onto one float.
        params = EnsembleParams(50, 2.0, 1e31, RescalingMode.NONE)
        with pytest.raises(ValueError, match="^atoms must be strictly increasing$"):
            scalar._ql_spectrum(*scalar._rescaled_model(derive_seed(0, 0), params))


class TestJacobiCheck:
    @pytest.mark.parametrize("diag, offdiag, message", [
        ([0.0, math.inf, 1.0], [1.0, 1.0], scalar._NOT_FINITE),
        ([0.0, math.nan, 1.0], [1.0, 1.0], scalar._NOT_FINITE),
        ([0.0, 1.0, 2.0], [1.0, math.nan], scalar._NOT_FINITE),
        ([0.0, 1.0, 2.0], [1.0, 0.0], scalar._NOT_POSITIVE),
        ([0.0, 1.0, 2.0], [-1.0, 1.0], scalar._NOT_POSITIVE),
    ], ids=["diag-inf", "diag-nan", "offdiag-nan", "offdiag-zero", "offdiag-negative"])
    def test_refuses_what_jacobi_coefficients_refuses(self, diag, offdiag, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JacobiCoefficients(np.array(diag), np.array(offdiag))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scalar._check(diag, offdiag)


class TestMeasureCheck:
    @pytest.mark.parametrize("atoms, weights", [
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, math.nan], [0.5, 0.5]),
        ([1.0, 1.0], [0.5, 0.5]),
        ([1.0, 0.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.5, 0.4]),
        ([0.0, 1.0], [0.5, 0.5 + 2e-10]),
    ])
    def test_refuses_what_spectral_measure_refuses(self, atoms, weights):
        with pytest.raises(ValueError) as exc:
            lagspec.SpectralMeasure(atoms, weights)
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc.value))}$"):
            scalar._check_measure(atoms, weights)

    def test_accepts_a_measure(self):
        atoms, weights = [-1.0, 0.0, 1.0], [0.25, 0.5, 0.25 + 5e-11]
        lagspec.SpectralMeasure(atoms, weights)
        scalar._check_measure(atoms, weights)


def weights_near_the_tolerance(seed: int, n: int = 139) -> list:
    """n seeded uniforms scaled to sum to 1 + 1e-10, which rounding puts on either side."""
    rng = random.Random(seed)
    raw = [rng.random() for _ in range(n)]
    total = math.fsum(raw)
    return [x / total * (1.0 + scalar._WEIGHT_SUM_TOL) for x in raw]


def verdict(check, atoms, weights):
    """The message of the ValueError ``check(atoms, weights)`` raises, or None."""
    try:
        check(atoms, weights)
    except ValueError as exc:
        return str(exc)
    return None


class TestMeasureVerdicts:
    # Seed 23: numpy's pairwise total is 1 + 0.99999786e-10 and fsum's
    # 1 + 1.00000008e-10; seed 708 the other way round.
    @pytest.mark.parametrize("seed", [23, 708])
    def test_same_verdict_where_pairwise_and_fsum_totals_part(self, seed):
        weights = weights_near_the_tolerance(seed)
        tol = scalar._WEIGHT_SUM_TOL
        fsum_refuses = abs(math.fsum(weights) - 1.0) > tol
        assert (abs(float(np.sum(weights)) - 1.0) > tol) != fsum_refuses
        atoms = [float(i) for i in range(len(weights))]
        got = verdict(lagspec.SpectralMeasure, atoms, weights)
        assert got == verdict(scalar._check_measure, atoms, weights)
        assert (got is not None) == fsum_refuses

    def test_total_past_the_double_range_is_refused(self):
        for check in (lagspec.SpectralMeasure, scalar._check_measure):
            with pytest.raises(ValueError, match="^weights must sum to 1 within 1e-10, got inf$"):
                check([0.0, 1.0], [1e308, 1e308])


class TestEnsembleParamsValue:
    """EnsembleParams behaves as a frozen dataclass of its four fields."""

    def test_constructor_signature(self):
        p = inspect.Parameter
        assert [(q.name, q.kind, q.default)
                for q in inspect.signature(EnsembleParams).parameters.values()] == [
            ("n", p.POSITIONAL_OR_KEYWORD, p.empty),
            ("beta", p.POSITIONAL_OR_KEYWORD, p.empty),
            ("gamma", p.POSITIONAL_OR_KEYWORD, p.empty),
            ("mode", p.POSITIONAL_OR_KEYWORD, RescalingMode.STANDARD)]
        params = EnsembleParams(gamma=10.0, beta=2.0, n=3)
        assert (params.n, params.beta, params.gamma, params.mode) == (
            3, 2.0, 10.0, RescalingMode.STANDARD)

    @pytest.mark.parametrize("name", ["n", "beta", "gamma", "mode", "beta_prime", "other"])
    def test_assignment_and_deletion_raise(self, name):
        params = EnsembleParams(3, 2.0, 10.0)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(params, name, 4)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(params, name)
        assert params == EnsembleParams(3, 2.0, 10.0)
        assert not hasattr(params, "other")

    def test_non_integer_size_rejected(self):
        with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
            EnsembleParams(2.5, 2.0, 10.0)

    def test_equality_and_hash_are_over_the_fields(self):
        params = EnsembleParams(3, 2.0, 10.0)
        assert params == EnsembleParams(3, 2.0, 10.0, RescalingMode.STANDARD)
        assert hash(params) == hash((3, 2.0, 10.0, RescalingMode.STANDARD))
        assert len({params, EnsembleParams(3, 2.0, 10.0)}) == 1
        for other in (EnsembleParams(4, 2.0, 10.0), EnsembleParams(3, 1.0, 10.0),
                      EnsembleParams(3, 2.0, 11.0), EnsembleParams(3, 2.0, 10.0,
                                                                   RescalingMode.NONE)):
            assert params != other
        assert params != (3, 2.0, 10.0, RescalingMode.STANDARD)

    def test_repr(self):
        assert repr(EnsembleParams(3, 2.0, 10.0, RescalingMode.SHIFTED)) == (
            "EnsembleParams(n=3, beta=2.0, gamma=10.0, "
            "mode=<RescalingMode.SHIFTED: 'shifted'>)")

    def test_pickle_and_copy(self):
        params = EnsembleParams(np.int64(3), 2.0, 10.0, RescalingMode.SHIFTED)
        twins = [copy.copy(params), copy.deepcopy(params)] + [
            pickle.loads(pickle.dumps(params, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is EnsembleParams
            assert twin == params
            assert vars(twin) == vars(params)
            with pytest.raises(AttributeError):
                twin.n = 4


def test_import_loads_no_numpy():
    code = ("import sys, lagspec.scalar\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('lagspec', 'numpy')))")
    env = {**os.environ, "PYTHONPATH": str(Path(lagspec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["['lagspec',", "'lagspec.errors',", "'lagspec.scalar']"]
