"""Sampler marginals, rescalings, and seed discipline.

Monte Carlo checks run on fixed seeds with tolerance bands several standard
errors wide, so they are deterministic in practice while still testing the
distributional content.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lagspec.ensembles import (
    EnsembleParams,
    RescalingMode,
    _assemble,
    _chi_squared_shapes,
    _pcg64_states,
    _replicate_draws,
    derive_seed,
    make_rng,
    rescale,
    sample_chi_squared,
    sample_dirichlet,
    sample_laguerre_tridiagonal,
    sample_spectral_measure,
)
from lagspec.spectral import JacobiCoefficients, moments_of_measure


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


class TestSeeds:
    def test_derive_is_deterministic_and_spread(self):
        seeds = {derive_seed(12345, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(12345, 7) == derive_seed(12345, 7)
        assert derive_seed(12345, 7) != derive_seed(12346, 7)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

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


def per_replicate_draws(master, block, shapes):
    """The reference for _replicate_draws: one seeded generator per replicate."""
    return np.array([make_rng(derive_seed(master, i)).gamma(shapes, 2.0) for i in block])


class TestBlockSeeding:
    def test_make_rng_is_pcg64(self):
        assert type(make_rng(1).bit_generator) is np.random.PCG64

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_state_step_matches_pcg64(self, seed):
        # The whole state dict, buffered-uint32 fields included.
        assert next(_pcg64_states(np.array([seed], dtype=np.uint64))) == np.random.PCG64(seed).state

    @pytest.mark.parametrize("master", [0, 1, -1, 2**64 - 1, 2**64 + 5, -(2**70)])
    def test_block_matches_per_replicate_generators(self, master):
        # 6 masters x 512 derived seeds; shapes of a beta = 2 window and of a
        # beta = 0.1 one, whose shapes below 1 take another gamma branch.
        block = range(0, 512)
        for params in (EnsembleParams(2000, 2.0, 2000.0**2), EnsembleParams(40, 0.1, 3.0)):
            shapes = _chi_squared_shapes(params, 4)
            assert np.array_equal(
                _replicate_draws(master, block, shapes), per_replicate_draws(master, block, shapes)
            )

    @settings(deadline=None)
    @given(
        master=st.integers(-(2**70), 2**70),
        start=st.integers(0, 10**6),
        length=st.integers(1, 50),
        beta=st.floats(0.01, 8.0),
        n=st.integers(1, 30),
        extra=st.floats(0.01, 1e4),
    )
    def test_block_property(self, master, start, length, beta, n, extra):
        params = EnsembleParams(n, beta, (n - 1) * beta / 2.0 + extra)
        shapes = _chi_squared_shapes(params, n)
        block = range(start, start + length)
        assert np.array_equal(
            _replicate_draws(master, block, shapes), per_replicate_draws(master, block, shapes)
        )


class TestChiSquared:
    def test_positive_dof_required(self):
        with pytest.raises(ValueError):
            sample_chi_squared(make_rng(0), 0.0)
        with pytest.raises(ValueError):
            sample_chi_squared(make_rng(0), -1.0)

    def test_draws_positive(self):
        rng = make_rng(1)
        assert all(sample_chi_squared(rng, 0.3) > 0 for _ in range(1000))

    def test_mean_dof_two(self):
        # One draw per call is the contract; the bulk statistics use the
        # identical underlying stream transformation in vector form.
        rng = make_rng(2)
        draws = rng.gamma(2.0 / 2.0, 2.0, size=1_000_000)
        assert abs(draws.mean() - 2.0) < 0.01

    def test_noninteger_dof_mean_and_variance(self):
        rng = make_rng(3)
        draws = rng.gamma(7.5 / 2.0, 2.0, size=1_000_000)
        assert abs(draws.mean() - 7.5) < 0.02
        assert abs(draws.var(ddof=1) - 15.0) < 0.2


class TestDirichlet:
    def test_one_point_simplex(self):
        np.testing.assert_array_equal(sample_dirichlet(make_rng(0), 1, 1.0), [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_dirichlet(make_rng(0), 0, 1.0)
        with pytest.raises(ValueError):
            sample_dirichlet(make_rng(0), 3, 0.0)

    def test_normalization(self):
        rng = make_rng(4)
        for _ in range(100):
            w = sample_dirichlet(rng, 6, 0.7)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_symmetric_mean(self):
        rng = make_rng(5)
        first = np.array([sample_dirichlet(rng, 4, 1.0)[0] for _ in range(100_000)])
        assert abs(first.mean() - 0.25) < 0.005

    def test_uniform_marginal_for_two_cells(self):
        rng = make_rng(6)
        first = np.array([sample_dirichlet(rng, 2, 1.0)[0] for _ in range(100_000)])
        ks = stats.kstest(first, "uniform").statistic
        assert ks < 0.01


def sampled_models(seed, params, draws):
    """Diagonals and off-diagonals of ``draws`` successive models from one seed.

    One gamma call draws them all: the generator draws in order, so row i
    is the i-th call of :func:`sample_laguerre_tridiagonal` on the same
    generator. The first 1000 rows are checked against those calls.
    """
    shapes = _chi_squared_shapes(params, params.n)
    z = make_rng(seed).gamma(np.broadcast_to(shapes, (draws, shapes.size)), 2.0)
    diag, offdiag = _assemble(z)
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
        dir_rng = make_rng(17)
        direct = np.empty((draws, n))
        for i in range(draws):
            direct[i] = sample_dirichlet(dir_rng, n, 1.0)
        for j in range(n):
            ks = stats.ks_2samp(weights[:, j], direct[:, j]).statistic
            assert ks < 0.02
