"""Sampler marginals, rescalings, and seed discipline.

Monte Carlo checks run on fixed seeds with tolerance bands several standard
errors wide, so they are deterministic in practice while still testing the
distributional content.
"""

import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lagspec import ensembles
from lagspec.ensembles import (
    _BLOCK,
    EnsembleParams,
    RescalingMode,
    _center,
    _replicate_keys,
    _standard_gamma,
    _window,
    derive_seed,
    make_rng,
    replicate_windows,
    rescale,
    sample_laguerre_tridiagonal,
    sample_spectral_measure,
)
from lagspec.scalar import _SERIES_D, _log_series
from lagspec.spectral import (JacobiCoefficients, _window_moments, moments_of_measure,
                              moments_via_operator)


class TestParams:
    def test_gamma_constraint(self):
        EnsembleParams(5, 2.0, 4.001)
        with pytest.raises(ValueError, match="gamma"):
            EnsembleParams(5, 2.0, 4.0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            EnsembleParams(0, 2.0, 10.0)
        with pytest.raises(ValueError):
            EnsembleParams(-5, 2.0, 10.0)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            EnsembleParams(3, 0.0, 10.0)

    def test_beta_prime(self):
        assert EnsembleParams(3, 2.0, 10.0).beta_prime == 1.0

    def test_mode_must_be_a_rescaling_mode(self):
        with pytest.raises(ValueError, match="^mode must be a RescalingMode, got 'standard'$"):
            EnsembleParams(3, 2.0, 10.0, "standard")

    @pytest.mark.parametrize("n, beta, gamma", [
        (20, 2.0, 1e307), (20, 2.0, np.float64(2.3e306)), (1, 1e300, 1e10),
    ])
    def test_overflowing_centering_scale_rejected(self, n, beta, gamma):
        # 2*gamma*n*beta, which _center takes the square root of, overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"gamma = {gamma!r} is too large at n = {n}, beta = {beta!r}: the "
                    "centering scale 2*gamma*n*beta overflows a float") + "$"):
                EnsembleParams(n, beta, gamma)

    def test_largest_centering_scale_accepted(self):
        EnsembleParams(20, 2.0, 2.2e306)


class TestSeeds:
    def test_derive_is_deterministic_and_spread(self):
        seeds = {derive_seed(12345, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(12345, 7) == derive_seed(12345, 7)
        assert derive_seed(12345, 7) != derive_seed(12346, 7)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(-2**70, 2**70), start=st.integers(0, 2**40),
           count=st.integers(1, 50))
    def test_python_ints_match_the_vectorized_finalizer(self, seed, start, count):
        # derive_seed runs splitmix64 on Python ints; _replicate_keys runs
        # _finalize on uint64 arrays. Key i is derive_seed(derive_seed(seed, i), 0).
        rows = range(start, start + count)
        keys = _replicate_keys(seed, rows).tolist()
        assert keys == [derive_seed(derive_seed(seed, i), 0) for i in rows]
        x = np.array([(seed + (start + 1) * ensembles._GOLDEN) & ensembles._MASK64],
                     dtype=np.uint64)
        assert derive_seed(seed, start) == int(ensembles._finalize(x)[0])

    def test_same_seed_same_stream(self):
        a = make_rng(99).gamma(2.0, 2.0, size=10)
        b = make_rng(99).gamma(2.0, 2.0, size=10)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "4"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="integer"):
            derive_seed(seed, 0)
        with pytest.raises(ValueError, match="integer"):
            make_rng(seed)

    def test_numpy_integer_seeds_accepted(self):
        assert derive_seed(np.int64(-3), np.int32(2)) == derive_seed(-3, 2)
        assert derive_seed(np.uint64(2**64 - 1), 0) == derive_seed(2**64 - 1, 0)
        np.testing.assert_array_equal(make_rng(np.uint64(5)).random(3), make_rng(5).random(3))


def single_key(master, i):
    """The key sample_laguerre_tridiagonal takes from replicate i's own generator."""
    return make_rng(derive_seed(master, i)).bit_generator.random_raw()


def per_replicate_draws(master, block, shapes):
    """Chi-squares at ``shapes`` from each replicate's own generator's key, one row each."""
    return np.array([2.0 * _standard_gamma([single_key(master, i)], shapes)[0] for i in block])


def per_replicate_window(master, block, params, window):
    """The leading window of each replicate's single draw, one row per replicate.

    Replicate i is ``sample_laguerre_tridiagonal(make_rng(derive_seed(master, i)), params)``.
    """
    models = [sample_laguerre_tridiagonal(make_rng(derive_seed(master, i)), params) for i in block]
    return (np.array([m.diag[:window] for m in models]),
            np.array([m.offdiag[: window - 1] for m in models]).reshape(len(block), window - 1))


def assert_block_matches(master, block, params, window):
    diag, offdiag = _window(_replicate_keys(master, block), params, window)
    ref_diag, ref_offdiag = per_replicate_window(master, block, params, window)
    assert np.array_equal(diag, ref_diag) and np.array_equal(offdiag, ref_offdiag)


def reference_gamma(key, j, a):
    """_standard_gamma's entry j for one key, written out in scalar Python.

    Returns the value and the branch each attempt took. It keeps both
    squeezes on purpose: Leva's quadratic bounds around the normal's exact
    test and Marsaglia & Tsang's U3 < 1 - 0.0331 X^4 ahead of theirs. The
    sampler runs the exact tests alone, so agreeing with this reference bit
    for bit shows that the squeezes decide nothing differently. The a < 1
    factor is the C library's ``pow``, and from d = 2^30 on 1 - W + ln W
    is ``scalar._log_series``, as the sampler takes them.
    """
    stream = derive_seed(key, j)
    d = a + 2.0 / 3.0 if a < 1.0 else a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    path = []
    for t in itertools.count():
        u1, u2, u3, u4 = (((derive_seed(stream, 4 * t + i) >> 11) + 1) * 2.0**-53 for i in range(4))
        v = 1.7156 * (u2 - 0.5)
        x, y = u1 - 0.449871, abs(v) + 0.386595
        q = x * x + y * (0.19600 * y - 0.25472 * x)
        if q > 0.27846:
            path.append("normal rejected")
            continue
        if q >= 0.27597:
            if v * v > -4.0 * u1 * u1 * math.log(u1):
                path.append("normal rejected by its log test")
                continue
            path.append("normal accepted by its log test")
        x = v / u1
        w = 1.0 + c * x
        if w <= 0.0:
            path.append("1 + cX <= 0")
            continue
        w = w * w * w
        xx = x * x
        if u3 < 1.0 - 0.0331 * xx * xx:
            path.append("squeeze accepts")
        elif math.log(u3) < 0.5 * xx + d * (_log_series(w - 1.0) if d >= _SERIES_D
                                            else 1.0 - w + math.log(w)):
            path.append("log test accepts")
        else:
            path.append("log test rejects")
            continue
        value = d * w * math.pow(u4, 1.0 / a) if a < 1.0 else d * w
        return value, path


def first_entry_through(branch, shape, seed):
    """A key whose entry 0 at ``shape`` takes ``branch`` in its first attempt, and that entry."""
    for key in make_rng(seed).bit_generator.random_raw(100_000).tolist():
        value, path = reference_gamma(key, 0, shape)
        if branch in path[:1]:
            return key, value, path
    raise AssertionError(f"no key takes {branch!r}")


# The README clt and mdp window (n = 2000, beta = 2, gamma = n^2, moments
# up to 3): the gamma shapes dof / 2 of z_1 .. z_7, dof = 2 gamma - beta'(k-1)
# for odd k and beta'(2n - k) for even k.
README_CLT_MDP_SHAPES = np.array([4e6, 1999.0, 4e6 - 1.0, 1998.0, 4e6 - 2.0, 1997.0, 4e6 - 3.0])
# Shapes on both sides of 1, where the sampler switches branch, and far out.
MIXED_SHAPES = np.array([0.05, 0.4, 0.999, 1.0, 1.5, 7.0, 1e3, 4e6])


class TestBlockSeeding:
    def test_make_rng_is_pcg64(self):
        assert type(make_rng(1).bit_generator) is np.random.PCG64

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_state_step_matches_pcg64(self, seed):
        # PCG64's own step takes make_rng's state to (0, derive_seed(seed, 0))
        # as (high, low) words; the increment is numpy's for PCG64(seed).
        bit_generator = make_rng(seed).bit_generator
        bit_generator.random_raw()
        state = bit_generator.state["state"]
        assert state["state"] == derive_seed(seed, 0)
        assert state["inc"] == np.random.PCG64(seed).state["state"]["inc"]

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**64 + 5])
    def test_first_output_matches_pcg64(self, seed):
        assert make_rng(seed).bit_generator.random_raw() == derive_seed(seed, 0)

    @pytest.mark.parametrize("master", [0, 1, -1, 2**64 - 1, 2**64 + 5, -(2**70)])
    def test_block_matches_per_replicate_generators(self, master):
        # 6 masters x 256 replicates: a beta = 2 window, and a beta = 0.1
        # model, whose shapes below 1 take the other gamma branch, in its
        # leading window and in full.
        block = range(0, 256)
        assert_block_matches(master, block, EnsembleParams(40, 2.0, 1600.0), 4)
        assert_block_matches(master, block, EnsembleParams(40, 0.1, 3.0), 4)
        assert_block_matches(master, block, EnsembleParams(40, 0.1, 3.0), 40)

    @settings(deadline=None, max_examples=60)
    @given(
        master=st.integers(-(2**70), 2**70),
        start=st.integers(0, 10**6),
        length=st.integers(1, 20),
        cut=st.integers(0, 20),
        beta=st.floats(0.05, 8.0),
        n=st.integers(1, 60),
        extra=st.floats(0.01, 1e4),
    )
    def test_block_property(self, master, start, length, cut, beta, n, extra):
        # Every window, against the full single draws; the block's keys are
        # also computed in two parts, as for a partial last block.
        params = EnsembleParams(n, beta, (n - 1) * beta / 2.0 + extra)
        block = range(start, start + length)
        head, tail = block[: min(cut, length)], block[min(cut, length):]
        keys = _replicate_keys(master, block)
        parts = [_replicate_keys(master, part) for part in (head, tail) if len(part)]
        assert np.array_equal(np.concatenate(parts), keys)
        ref_diag, ref_offdiag = per_replicate_window(master, block, params, n)
        for window in range(1, n + 1):
            diag, offdiag = _window(keys, params, window)
            assert np.array_equal(diag, ref_diag[:, :window])
            assert np.array_equal(offdiag, ref_offdiag[:, : window - 1])

    def test_readme_windows_match_per_replicate_generators(self):
        # 10^5 rows at the README seed, as replicate_windows yields them:
        # 60,000 centered clt/mdp windows and 40,000 scaled mp-sanity ones.
        # Every key is taken from the row's own generator; the first rows
        # are also checked against the full n = 2000 single draw.
        for params, scale, window, rows in (
            (EnsembleParams(2000, 2.0, 2000.0**2), None, 4, 60_000),
            (EnsembleParams(2000, 2.0, 4000.0, RescalingMode.NONE), 1.0 / 8000.0, 3, 40_000),
        ):
            keys = np.array([single_key(7, i) for i in range(rows)], dtype=np.uint64)
            diag, offdiag = _window(keys, params, window)
            if scale is None:
                diag, offdiag = _center(diag, offdiag, params)
            else:
                diag, offdiag = diag * scale, offdiag * scale
            for block, block_diag, block_offdiag in replicate_windows(7, rows, params, window,
                                                                      scale):
                assert np.array_equal(block_diag, diag[block.start : block.stop])
                assert np.array_equal(block_offdiag, offdiag[block.start : block.stop])
            assert block.stop == rows
            assert_block_matches(7, range(0, 50), params, window)

    # Marsaglia & Tsang's branches, each taken by a first attempt: the value
    # comes from that attempt, or for a rejection from a later one.
    def test_squeeze_accepts(self):
        key, value, path = first_entry_through("squeeze accepts", 1.5, 21)
        assert path == ["squeeze accepts"]
        assert _standard_gamma([key], [1.5])[0, 0] == value

    def test_squeeze_rejects_log_accepts(self):
        key, value, path = first_entry_through("log test accepts", 1.5, 22)
        assert path == ["log test accepts"]
        assert _standard_gamma([key], [1.5])[0, 0] == value

    def test_log_rejects(self):
        key, value, path = first_entry_through("log test rejects", 1.5, 23)
        assert len(path) > 1
        assert _standard_gamma([key], [1.5])[0, 0] == value

    def test_nonpositive_v_draws_a_new_normal(self):
        # 1 + cX <= 0 needs X <= -1/c, likelier at a small shape.
        key, value, path = first_entry_through("1 + cX <= 0", 0.05, 24)
        assert len(path) > 1
        assert _standard_gamma([key], [0.05])[0, 0] == value

    @pytest.mark.parametrize(
        "shapes",
        [[1.0 + 2.0**-52, 1.0000001, 1.5], [1.0], [0.999, 0.5], [3.0, 1.0, 2.5, 0.3, 1e6],
         [1e12, 1.01, 7.5]],
        ids=["just-above-1", "exactly-1", "below-1", "mixed", "large-and-small"],
    )
    def test_shapes_around_one(self, shapes):
        shapes = np.array(shapes)
        block = range(100, 400)
        z = 2.0 * _standard_gamma(_replicate_keys(3, block), shapes)
        assert np.array_equal(z, per_replicate_draws(3, block, shapes))


class TestReplicateWindows:
    @settings(deadline=None, max_examples=40)
    @given(
        master=st.integers(-(2**70), 2**70),
        replicates=st.integers(1, 12),
        block=st.integers(1, 5),
        beta=st.floats(0.05, 8.0),
        n=st.integers(1, 60),
        extra=st.floats(0.01, 1e4),
        centering=st.sampled_from(["standard", "shifted", "scale"]),
    )
    def test_rows_are_the_single_draws_windows(self, master, replicates, block, beta, n, extra,
                                               centering):
        # Every window of every replicate, centered or scaled, against the
        # single draw. Blocks of 1-5 rows give partial last blocks, and
        # beta < 2 or a small extra gives shapes below 1.
        gamma = (n - 1) * beta / 2.0 + extra
        scale = 1.0 / (2.0 * gamma) if centering == "scale" else None
        mode = RescalingMode.NONE if scale else RescalingMode(centering)
        params = EnsembleParams(n, beta, gamma, mode)
        singles = [sample_laguerre_tridiagonal(make_rng(derive_seed(master, i)), params)
                   for i in range(replicates)]
        if scale is None:
            singles = [rescale(coeffs, params) for coeffs in singles]
        else:
            singles = [JacobiCoefficients(c.diag * scale, c.offdiag * scale) for c in singles]
        ref_diag = np.array([c.diag for c in singles])
        ref_offdiag = np.array([c.offdiag for c in singles]).reshape(replicates, n - 1)
        expected_rows = [range(a, min(a + block, replicates)) for a in range(0, replicates, block)]
        with mock.patch.object(ensembles, "_BLOCK", block):
            for window in range(1, n + 1):
                seen = []
                for rows, diag, offdiag in replicate_windows(master, replicates, params, window,
                                                             scale):
                    seen.append(rows)
                    assert np.array_equal(diag, ref_diag[rows.start : rows.stop, :window])
                    assert np.array_equal(offdiag,
                                          ref_offdiag[rows.start : rows.stop, : window - 1])
                assert seen == expected_rows

    def test_full_windows_come_one_bounded_block_at_a_time(self, monkeypatch):
        # window = n over 2 _BLOCK + 1 replicates: three blocks, each drawn
        # only when it is asked for, none with more than _BLOCK rows.
        drawn = []
        build = ensembles._window
        monkeypatch.setattr(ensembles, "_window",
                            lambda keys, *args: drawn.append(len(keys)) or build(keys, *args))
        windows = replicate_windows(5, 2 * _BLOCK + 1, EnsembleParams(3, 2.0, 30.0), 3)
        first = next(windows)
        assert drawn == [_BLOCK]
        blocks = [first, *windows]
        assert drawn == [_BLOCK, _BLOCK, 1]
        assert [(rows, diag.shape, offdiag.shape) for rows, diag, offdiag in blocks] == [
            (range(0, _BLOCK), (_BLOCK, 3), (_BLOCK, 2)),
            (range(_BLOCK, 2 * _BLOCK), (_BLOCK, 3), (_BLOCK, 2)),
            (range(2 * _BLOCK, 2 * _BLOCK + 1), (1, 3), (1, 2)),
        ]

    @pytest.mark.parametrize("window", [0, 4, 2.0])
    def test_window_outside_the_model_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            next(replicate_windows(1, 10, EnsembleParams(3, 2.0, 30.0), window))

    def test_negative_replicate_count_rejected_and_zero_is_empty(self):
        params = EnsembleParams(3, 2.0, 30.0)
        with pytest.raises(ValueError, match=r"^replicates must be >= 0, got -3$"):
            list(replicate_windows(7, -3, params, 2))
        assert list(replicate_windows(7, 0, params, 2)) == []


class TestFiniteNMeanOfM2:
    """The exact mean of m_2 = d_1^2 + c_1^2 at finite n, off beta = 2.

    With z_1 ~ chi^2(2 gamma) and z_2 ~ chi^2(beta'(2n - 2)): E[m_2] =
    1 + (1/beta' - 1)/n under the standard centering, plus n beta'/gamma
    under the shifted one, and 1 + (1 + beta'(n - 1))/gamma for the
    uncentered matrix divided by 2 gamma. A wrong degree of freedom of z_1
    or z_2 moves the mean by tens of standard errors.
    """

    @pytest.mark.parametrize("centering", ["standard", "shifted", "scale"])
    @pytest.mark.parametrize("n", [10, 200])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
    def test_mean_within_four_standard_errors(self, beta, n, centering):
        gamma, beta_prime, replicates = float(n * n), beta / 2.0, 50_000
        if centering == "scale":
            params, scale = EnsembleParams(n, beta, gamma, RescalingMode.NONE), 1.0 / (2.0 * gamma)
            exact = 1.0 + (1.0 + beta_prime * (n - 1)) / gamma
        else:
            params, scale = EnsembleParams(n, beta, gamma, RescalingMode(centering)), None
            exact = 1.0 + (1.0 / beta_prime - 1.0) / n
            if centering == "shifted":
                exact += n * beta_prime / gamma
        m2 = np.concatenate([_window_moments(diag, offdiag, 2)[:, 1] for _, diag, offdiag
                             in replicate_windows(5, replicates, params, 2, scale)])
        se = m2.std(ddof=1) / math.sqrt(replicates)
        assert abs(m2.mean() - exact) < 4.0 * se


class TestStandardGamma:
    def test_matches_scalar_reference(self):
        keys = make_rng(3).bit_generator.random_raw(2000)
        z = _standard_gamma(keys, MIXED_SHAPES)
        ref = [[reference_gamma(int(k), j, a) for j, a in enumerate(MIXED_SHAPES)] for k in keys]
        assert np.array_equal(z, [[value for value, _ in row] for row in ref])
        branches = {branch for row in ref for _, path in row for branch in path}
        assert branches == {
            "normal rejected", "normal rejected by its log test", "normal accepted by its log test",
            "1 + cX <= 0", "squeeze accepts", "log test accepts", "log test rejects",
        }

    def test_rows_and_columns_are_independent(self):
        # A row depends on its key alone, and an entry on the shapes before it
        # not at all: reversed keys, uneven chunks and a shorter shape list
        # give the same entries.
        keys = make_rng(4).bit_generator.random_raw(20_000)
        shapes = np.concatenate((README_CLT_MDP_SHAPES, MIXED_SHAPES))
        z = _standard_gamma(keys, shapes)
        assert np.array_equal(_standard_gamma(keys[::-1], shapes)[::-1], z)
        cuts = ((0, 1), (1, 4096), (4096, 20_000))
        chunks = [_standard_gamma(keys[a:b], shapes) for a, b in cuts]
        assert np.array_equal(np.concatenate(chunks), z)
        assert np.array_equal(_standard_gamma(keys, shapes[:3]), z[:, :3])

    @pytest.mark.parametrize("shape", [0.05, 0.4, 1.0, 1.5, 7.0, 1e3, 4e6])
    def test_gamma_law(self, shape):
        # 2 * 10^5 draws per shape, each shape with keys of its own.
        keys = make_rng(int(shape * 100)).bit_generator.random_raw(200_000)
        draws = _standard_gamma(keys, [shape])[:, 0]
        assert stats.kstest(draws, stats.gamma(shape).cdf).pvalue > 0.001


class TestChiSquared:
    """The model's chi-squares: twice the shared gamma sampler's draws at shape dof / 2."""

    def test_draws_positive(self):
        keys = make_rng(1).bit_generator.random_raw(1000)
        assert np.all(2.0 * _standard_gamma(keys, [0.3 / 2.0]) > 0)

    def test_mean_dof_two(self):
        keys = make_rng(2).bit_generator.random_raw(1_000_000)
        draws = 2.0 * _standard_gamma(keys, [2.0 / 2.0])
        assert abs(draws.mean() - 2.0) < 0.01

    def test_noninteger_dof_mean_and_variance(self):
        keys = make_rng(3).bit_generator.random_raw(1_000_000)
        draws = 2.0 * _standard_gamma(keys, [7.5 / 2.0])
        assert abs(draws.mean() - 7.5) < 0.02
        assert abs(draws.var(ddof=1) - 15.0) < 0.2


def sampled_models(seed, params, draws):
    """Diagonals and off-diagonals of ``draws`` successive models from one seed.

    Each call of :func:`sample_laguerre_tridiagonal` takes the generator's
    next raw output as its key, so row i, drawn from key i, is the i-th
    call on the same generator. The first 1000 rows are checked against
    those calls.
    """
    keys = make_rng(seed).bit_generator.random_raw(draws)
    diag, offdiag = _window(keys, params, params.n)
    rng = make_rng(seed)
    for row in range(1000):
        coeffs = sample_laguerre_tridiagonal(rng, params)
        np.testing.assert_array_equal(coeffs.diag, diag[row])
        np.testing.assert_array_equal(coeffs.offdiag, offdiag[row])
    return diag, offdiag


class TestLaguerreSampler:
    def test_one_by_one_is_chi_squared(self):
        gamma = 10.0
        params = EnsembleParams(1, 2.0, gamma)
        draws = sampled_models(7, params, 100_000)[0][:, 0]
        assert abs(draws.mean() - 2 * gamma) < 0.01 * 2 * gamma

    def test_trace_mean(self):
        # Diagonal collects z1 + (z2 + z3): dofs 2*gamma, beta'(2n-2),
        # 2*gamma - 2*beta' sum to 40 at n=2, beta=2, gamma=10.
        params = EnsembleParams(2, 2.0, 10.0)
        traces = sampled_models(8, params, 100_000)[0].sum(axis=1)
        assert abs(traces.mean() - 40.0) < 0.01 * 40.0

    def test_offdiag_strictly_positive(self):
        params = EnsembleParams(50, 1.7, 100.0)
        rng = make_rng(9)
        for _ in range(50):
            coeffs = sample_laguerre_tridiagonal(rng, params)
            assert np.all(coeffs.offdiag > 0)

    def test_largest_gamma_draw_is_finite_without_warning(self):
        # Accepted: 2 gamma n beta is finite. z_1 z_2, about 2 gamma z_2, is
        # not, but the off-diagonal sqrt(z_1) sqrt(z_2) is.
        params = EnsembleParams(20, 2.0, 2.2e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = sample_laguerre_tridiagonal(make_rng(1), params)
        assert np.all(np.isfinite(coeffs.diag)) and np.all(np.isfinite(coeffs.offdiag))

    def test_bit_identical_for_same_seed(self):
        params = EnsembleParams(40, 2.0, 500.0)
        a = sample_laguerre_tridiagonal(make_rng(10), params)
        b = sample_laguerre_tridiagonal(make_rng(10), params)
        np.testing.assert_array_equal(a.diag, b.diag)
        np.testing.assert_array_equal(a.offdiag, b.offdiag)

    def test_eigenvalue_density_against_rejection_sampler(self):
        # n = 2, beta = 2, gamma = 3: joint density is proportional to
        # (l1 - l2)^2 * l1 * l2 * exp(-(l1 + l2)/2). A Gamma(2, 2) pair
        # proposal leaves the bounded ratio (l1 - l2)^2 on a box.
        draws = 100_000
        box = 30.0
        rng = np.random.default_rng(20240214)
        accepted = []
        total = 0
        while total < draws:
            lam = rng.gamma(2.0, 2.0, size=(400_000, 2))
            u = rng.uniform(size=lam.shape[0])
            keep = (lam < box).all(axis=1) & (u * box**2 < (lam[:, 0] - lam[:, 1]) ** 2)
            accepted.append(lam[keep])
            total += int(keep.sum())
        oracle = np.sort(np.vstack(accepted)[:draws], axis=1)

        params = EnsembleParams(2, 2.0, 3.0, RescalingMode.NONE)
        diag, offdiag = sampled_models(11, params, draws)
        d1, d2 = diag[:, 0], diag[:, 1]
        c1 = offdiag[:, 0]
        half_gap = np.sqrt((d1 - d2) ** 2 + 4 * c1 * c1) / 2.0
        mid = (d1 + d2) / 2.0
        lo = mid - half_gap
        hi = mid + half_gap

        grid = np.linspace(0.5, 25.0, 20)
        worst = 0.0
        for a in grid:
            model_lo = lo <= a
            oracle_lo = oracle[:, 0] <= a
            for b in grid:
                f_model = np.mean(model_lo & (hi <= b))
                f_oracle = np.mean(oracle_lo & (oracle[:, 1] <= b))
                worst = max(worst, abs(f_model - f_oracle))
        assert worst < 0.02


class TestRescale:
    def test_none_is_identity(self):
        params = EnsembleParams(3, 2.0, 10.0, RescalingMode.NONE)
        coeffs = JacobiCoefficients([1.0, 2.0, 3.0], [1.0, 1.0])
        assert rescale(coeffs, params) is coeffs

    def test_exact_centering(self):
        gamma = 10.0
        params = EnsembleParams(3, 2.0, gamma)
        coeffs = JacobiCoefficients([2 * gamma] * 3, [1.0, 2.0])
        scaled = rescale(coeffs, params)
        assert np.all(scaled.diag == 0.0)

    def test_standard_vs_shifted_offset(self):
        n, beta, gamma = 6, 2.0, 30.0
        rng = make_rng(12)
        coeffs = sample_laguerre_tridiagonal(rng, EnsembleParams(n, beta, gamma))
        std = rescale(coeffs, EnsembleParams(n, beta, gamma, RescalingMode.STANDARD))
        sh = rescale(coeffs, EnsembleParams(n, beta, gamma, RescalingMode.SHIFTED))
        offset = np.sqrt(n * beta / (2 * gamma))
        np.testing.assert_allclose(std.diag - sh.diag, offset, atol=1e-14)
        np.testing.assert_array_equal(std.offdiag, sh.offdiag)

    def test_shape_mismatch(self):
        params = EnsembleParams(4, 2.0, 20.0)
        with pytest.raises(ValueError, match="match"):
            rescale(JacobiCoefficients([0.0, 0.0], [1.0]), params)


class TestSpectralMeasureSampler:
    def test_unit_total_weight_every_draw(self):
        params = EnsembleParams(8, 2.0, 100.0)
        rng = make_rng(13)
        for _ in range(100):
            mu = sample_spectral_measure(rng, params)
            assert abs(mu.weights.sum() - 1.0) <= 1e-10

    def test_first_moment_is_top_corner_entry(self):
        params = EnsembleParams(12, 2.0, 200.0)
        mu = sample_spectral_measure(make_rng(14), params)
        coeffs = rescale(sample_laguerre_tridiagonal(make_rng(14), params), params)
        assert abs(moments_of_measure(mu, 1)[0] - coeffs.diag[0]) <= 1e-10

    def test_small_beta_draws_give_measures(self):
        # The benchmark's small-beta replays, derive_seed(7, i) at n = 400,
        # beta = 0.2, gamma = n^3: first-row weights underflow to 0 in about
        # half of them, and a draw was once rejected for it. The atoms of
        # those weights are dropped, and every measure keeps the moments.
        params = EnsembleParams(400, 0.2, 400.0 ** 3)
        dropped = 0
        for i in range(100):
            seed = derive_seed(7, i)
            mu = sample_spectral_measure(make_rng(seed), params)
            coeffs = rescale(sample_laguerre_tridiagonal(make_rng(seed), params), params)
            np.testing.assert_allclose(moments_of_measure(mu, 8), moments_via_operator(coeffs, 8),
                                       rtol=1e-10, atol=1e-10)
            dropped += mu.n < params.n
        assert dropped > 0

    def test_single_site_measure(self):
        mu = sample_spectral_measure(make_rng(15), EnsembleParams(1, 2.0, 5.0))
        assert mu.n == 1 and mu.weights[0] == 1.0

    def test_weights_are_dirichlet(self):
        # Per-coordinate two-sample KS between spectral weights (attached
        # to ordered atoms; exchangeability keeps each marginal intact)
        # and direct Dirichlet draws.
        n, draws = 5, 10_000
        params = EnsembleParams(n, 2.0, 50.0)
        rng = make_rng(16)
        weights = np.empty((draws, n))
        for i in range(draws):
            weights[i] = sample_spectral_measure(rng, params).weights
        direct = make_rng(17).dirichlet(np.ones(n), size=draws)
        for j in range(n):
            ks = stats.ks_2samp(weights[:, j], direct[:, j]).statistic
            assert ks < 0.02
