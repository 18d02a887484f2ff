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

from lagspec import ensembles
from lagspec.ensembles import (
    EnsembleParams,
    RescalingMode,
    _assemble,
    _chi_squared_shapes,
    _fast_gamma,
    _pcg64_seed,
    _replicate_draws,
    _state_before,
    _state_dicts,
    _ziggurat,
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


# Shapes of the README experiment windows: clt and mdp (n = 2000, beta = 2,
# gamma = n^2, moments up to 3) share one; mp-sanity (gamma = 4000, moments
# up to 2) has the other.
README_CLT_MDP_SHAPES = _chi_squared_shapes(EnsembleParams(2000, 2.0, 2000.0**2), 4)
README_MP_SANITY_SHAPES = _chi_squared_shapes(EnsembleParams(2000, 2.0, 4000.0), 3)


def raw_output(layer, rabs, negative=False):
    """The raw PCG64 output that numpy's ziggurat reads as (layer, sign, magnitude)."""
    return layer | int(negative) << 8 | rabs << 9


def raw_uniform(u):
    """The raw PCG64 output whose next_double is ``u`` rounded down to a multiple of 2**-53."""
    return int(u * 2.0**53) << 11


def numpy_gamma(shape, first, second):
    """numpy's standard gamma from a state whose next outputs are first, second.

    Also returns whether numpy took exactly those two outputs.
    """
    bitgen = np.random.PCG64(0)
    bitgen.state = _state_before(first, second)
    value = np.random.Generator(bitgen).standard_gamma(shape)
    after_two = _state_before(first, second)["state"]
    for _ in range(2):
        after_two["state"] = (after_two["state"] * ensembles._PCG64_MULT
                              + after_two["inc"]) & ensembles._MASK128
    return value, bitgen.state["state"]["state"] == after_two["state"]


def fast_gamma(shape, first, second):
    """_fast_gamma from numpy_gamma's state: (value, whether the fast path decided it)."""
    state = _state_before(first, second)["state"]
    words = [state["state"] >> 64, state["state"] & ensembles._MASK64,
             state["inc"] >> 64, state["inc"] & ensembles._MASK64]
    seeded = np.array(words, dtype=np.uint64)[:, None]
    draws, fast = _fast_gamma(seeded, np.array([shape]), _ziggurat())
    return draws[0, 0], bool(fast[0])


def count_redrawn(monkeypatch):
    """The list of states that _replicate_draws hands to numpy's per-row generator."""
    _ziggurat()  # the tables' self-check sets generator states too
    redrawn = []
    state_dicts = ensembles._state_dicts

    def counting(*words):
        for state in state_dicts(*words):
            redrawn.append(state)
            yield state

    monkeypatch.setattr(ensembles, "_state_dicts", counting)
    return redrawn


def wedge_tie(layer, rabs):
    """The uniform at which layer's wedge test at this magnitude ties, by the derived fi."""
    wi, fi = _ziggurat().wi, _ziggurat().fi
    x = rabs * wi[layer]
    return (np.exp(-0.5 * x * x) - fi[layer]) / (fi[layer - 1] - fi[layer])


def takes_rectangle(bitgen, layer, rabs):
    """Whether numpy's normal for this raw output takes one output (layer's rectangle)."""
    raw = raw_output(layer, rabs)
    bitgen.state = _state_before(raw)
    np.random.Generator(bitgen).standard_normal()
    return bitgen.state["state"]["state"] == raw


class TestBlockSeeding:
    def test_make_rng_is_pcg64(self):
        assert type(make_rng(1).bit_generator) is np.random.PCG64

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_state_step_matches_pcg64(self, seed):
        # The whole state dict, buffered-uint32 fields included.
        state = _state_dicts(*_pcg64_seed(np.array([seed], dtype=np.uint64)))
        assert next(state) == np.random.PCG64(seed).state

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


    def test_readme_windows_match_per_replicate_generators(self):
        # 10^5 rows: 60,000 of the clt/mdp window and 40,000 of the mp-sanity
        # window, both at the README seed.
        for shapes, rows in ((README_CLT_MDP_SHAPES, 60_000), (README_MP_SANITY_SHAPES, 40_000)):
            block = range(0, rows)
            assert np.array_equal(
                _replicate_draws(7, block, shapes), per_replicate_draws(7, block, shapes)
            )

    @pytest.mark.parametrize(
        "shapes",
        [[1.0 + 2.0**-52, 1.0000001, 1.5], [1.0], [0.999, 0.5], [3.0, 1.0, 2.5, 0.3, 1e6],
         [1e12, 1.01, 7.5]],
        ids=["just-above-1", "exactly-1", "below-1", "mixed", "large-and-small"],
    )
    def test_shapes_around_one(self, shapes):
        shapes = np.array(shapes)
        block = range(100, 2100)
        assert np.array_equal(
            _replicate_draws(3, block, shapes), per_replicate_draws(3, block, shapes)
        )

    def test_pinned_fallback_rows(self, monkeypatch):
        # Rows 0..1023 of the README clt window: 2 leave the vectorized
        # draws. If the fast path were silently off, all 1024 would be
        # redrawn; with wedges left to numpy, about 100.
        redrawn = count_redrawn(monkeypatch)
        block = range(0, 1024)
        z = _replicate_draws(7, block, README_CLT_MDP_SHAPES)
        assert len(redrawn) == 2
        assert np.array_equal(z, per_replicate_draws(7, block, README_CLT_MDP_SHAPES))

    def test_shapes_at_most_one_fall_back(self, monkeypatch):
        # A shape of 1 or less takes another numpy branch: every row is redrawn.
        redrawn = count_redrawn(monkeypatch)
        shapes = np.array([3.0, 1.0, 2.5])
        block = range(0, 50)
        z = _replicate_draws(5, block, shapes)
        assert len(redrawn) == 50
        assert np.array_equal(z, per_replicate_draws(5, block, shapes))

    # Layer 255's rectangle reaches past 3, so X = magnitude * wi[255] there
    # is a normal that takes the rectangle. At shape 5 and X ~ 1.5 the
    # squeeze bound 1 - 0.0331 X^4 is about 0.83 and the log test accepts
    # U up to about exp(-0.003).

    def test_squeeze_accepts(self):
        wi = _ziggurat()[0]
        first = raw_output(255, int(0.5 / wi[255]))
        value, fast = fast_gamma(5.0, first, raw_uniform(0.5))
        assert fast and (value, True) == numpy_gamma(5.0, first, raw_uniform(0.5))

    def test_squeeze_rejects_log_accepts(self):
        wi = _ziggurat()[0]
        rabs = int(1.5 / wi[255])
        assert 0.9 > 1.0 - 0.0331 * (rabs * wi[255]) ** 4
        value, fast = fast_gamma(5.0, raw_output(255, rabs), raw_uniform(0.9))
        assert fast and (value, True) == numpy_gamma(5.0, raw_output(255, rabs), raw_uniform(0.9))

    def test_log_rejects(self):
        # U = 0.999 fails the log test: numpy starts over with X from the
        # third raw output, and the fast path follows it.
        wi = _ziggurat()[0]
        first = raw_output(255, int(1.5 / wi[255]))
        value, took_two = numpy_gamma(5.0, first, raw_uniform(0.999))
        assert not took_two
        assert fast_gamma(5.0, first, raw_uniform(0.999)) == (value, True)

    def test_log_near_tie_is_left_to_numpy(self):
        wi = _ziggurat()[0]
        shape, first = 5.0, raw_output(255, int(1.5 / wi[255]))
        x = float(int(1.5 / wi[255]) * wi[255])
        b = shape - 1.0 / 3.0
        v = (1.0 + x / np.sqrt(9.0 * b)) ** 3
        tie = np.exp(0.5 * x * x + b * (1.0 - v + np.log(v)))
        for u in (tie * (1 - 1e-12), tie, tie * (1 + 1e-12)):
            assert not fast_gamma(shape, first, raw_uniform(u))[1]

    def test_nonpositive_v_draws_a_new_normal(self):
        # X ~ -3.2 gives 1 + c X < 0 at shape 1.01. numpy reads its next X
        # from the second output (layer 0, magnitude 0: X = 0, so V = 1) and
        # U from the third, which passes the squeeze test: the draw is b.
        wi = _ziggurat()[0]
        first, second = raw_output(255, int(3.2 / wi[255]), negative=True), raw_uniform(0.5)
        value, took_two = numpy_gamma(1.01, first, second)
        assert not took_two and value == 1.01 - 1.0 / 3.0
        assert fast_gamma(1.01, first, second) == (value, True)

    @pytest.mark.parametrize(
        "layer, rabs",
        [(0, 2**52 - 1), (1, 1), (1, 12345), (100, None), (2, None)],
        ids=["layer0-tail", "layer1-small", "layer1", "slow-layer100", "slow-layer2"],
    )
    def test_ziggurat_slow_paths_are_left_to_numpy(self, layer, rabs):
        # The layer-0 tail, and the magnitudes between ki and kw, where the
        # rectangle bound is known only to within 2^20 (layer 1's lie below
        # 2^20; for the others, ki itself).
        tables = _ziggurat()
        rabs = int(tables.ki[layer]) if rabs is None else rabs
        assert tables.ki[layer] <= rabs < tables.kw[layer]
        assert not fast_gamma(5.0, raw_output(layer, rabs), raw_uniform(0.5))[1]

    @pytest.mark.parametrize("layer", [1, 2, 100, 255])
    def test_wedge_accept_matches_numpy(self, layer):
        # Half way across the wedge, U' = 0.01 passes the wedge test: numpy
        # keeps X and takes U from the third output.
        rabs = (int(_ziggurat().kw[layer]) + 2**52) // 2
        assert wedge_tie(layer, rabs) > 0.02
        first, second = raw_output(layer, rabs), raw_uniform(0.01)
        value, took_two = numpy_gamma(5.0, first, second)
        assert not took_two
        assert fast_gamma(5.0, first, second) == (value, True)

    @pytest.mark.parametrize("layer", [1, 2, 100, 255])
    def test_wedge_reject_draws_a_new_normal(self, layer):
        # At the layer's outer edge U' = 0.99 fails the wedge test: numpy
        # starts over with X from the third output.
        assert wedge_tie(layer, 2**52 - 1) < 0.01
        first, second = raw_output(layer, 2**52 - 1, negative=True), raw_uniform(0.99)
        value, took_two = numpy_gamma(5.0, first, second)
        assert not took_two
        assert fast_gamma(5.0, first, second) == (value, True)

    @pytest.mark.parametrize("layer", [1, 100, 255])
    def test_wedge_near_tie_is_left_to_numpy(self, layer):
        # fi is derived from wi, not read from numpy: within the margin of a
        # tie the fast path does not decide; just outside it, it does, as
        # numpy does.
        rabs = (int(_ziggurat().kw[layer]) + 2**52) // 2
        tie, first = wedge_tie(layer, rabs), raw_output(layer, rabs)
        for u in (tie * (1 - 1e-12), tie, tie * (1 + 1e-12)):
            assert not fast_gamma(5.0, first, raw_uniform(u))[1]
        for u in (tie * (1 - 1e-6), tie * (1 + 1e-6)):
            value, _ = numpy_gamma(5.0, first, raw_uniform(u))
            assert fast_gamma(5.0, first, raw_uniform(u)) == (value, True)

    def test_rectangle_bounds_against_bisection(self):
        # numpy's bound for each layer: the least magnitude whose normal takes
        # more than one raw output. Ours must not exceed it, by at most the
        # 2^20 margin plus rounding.
        wi, ki, kw = _ziggurat()[:3]
        bitgen = np.random.PCG64(0)
        for layer in range(256):
            lo, hi = 0, 2**52  # takes_rectangle(lo) or lo == 0; not takes_rectangle(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if takes_rectangle(bitgen, layer, mid) else (lo, mid)
            bound = hi if takes_rectangle(bitgen, layer, lo) else 0
            if layer == 1:
                assert bound == ki[1] == 0
            else:
                assert bound - 2**21 <= int(ki[layer]) <= bound, layer
            if layer != 0:  # kw: where the wedge starts, past numpy's bound
                assert bound <= int(kw[layer]) <= bound + 2**21, layer

    @pytest.mark.parametrize("layer", [0, 1, 2, 128, 255])
    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_corrupted_width_never_changes_bits(self, monkeypatch, layer, direction):
        widths = ensembles._ziggurat_widths

        def corrupted():
            wi = widths()
            wi[layer] = np.nextafter(wi[layer], direction)
            return wi

        monkeypatch.setattr(ensembles, "_ziggurat_widths", corrupted)
        _ziggurat.cache_clear()
        try:
            if layer == 1:  # layer 1 has no rectangle: its width refuses the wedges
                assert (_ziggurat().kw == 2**52).all()
            else:
                assert _ziggurat() is None
            block = range(0, 300)
            assert np.array_equal(
                _replicate_draws(11, block, README_CLT_MDP_SHAPES),
                per_replicate_draws(11, block, README_CLT_MDP_SHAPES),
            )
        finally:
            _ziggurat.cache_clear()

    @pytest.mark.parametrize("layer", [0, 1, 128, 254, 255])
    @pytest.mark.parametrize("direction", [-1.0, 1.0])
    @pytest.mark.parametrize("error", ["ulp", "1e-6"])
    def test_corrupted_height_never_changes_bits(self, monkeypatch, layer, direction, error):
        # One ulp of fi lies well inside the wedge test's margin and the
        # wedges stay on; a relative 1e-6 lies outside it, and the margin
        # edge probes refuse the wedges.
        heights = ensembles._ziggurat_heights

        def corrupted(wi):
            fi = heights(wi)
            if error == "ulp":
                fi[layer] = np.nextafter(fi[layer], direction * np.inf)
            else:
                fi[layer] *= 1.0 + direction * 1e-6
            return fi

        monkeypatch.setattr(ensembles, "_ziggurat_heights", corrupted)
        _ziggurat.cache_clear()
        try:
            wedges_on = (_ziggurat().kw[1:] < 2**52).all()
            assert wedges_on == (error == "ulp")
            block = range(0, 300)
            assert np.array_equal(
                _replicate_draws(11, block, README_CLT_MDP_SHAPES),
                per_replicate_draws(11, block, README_CLT_MDP_SHAPES),
            )
        finally:
            _ziggurat.cache_clear()

    def test_tables_are_read_only(self):
        for table in _ziggurat():
            with pytest.raises(ValueError):
                table[3] = 0


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
