"""Sampling the tridiagonal Laguerre beta-ensemble and its rescalings.

The n x n tridiagonal model is assembled from independent chi-square draws
z_1, ..., z_{2n-1}: the diagonal is d_k = z_{2k-1} + z_{2k-2} (with z_0 = 0)
and the off-diagonal is c_k = sqrt(z_{2k-1}) sqrt(z_{2k}). The degrees of
freedom are 2*gamma - beta'(k-1) for odd k and beta'(2n-k) for even k, with
beta' = beta/2. Eigenvalue centerings divide out sqrt(2*gamma*n*beta) after
subtracting 2*gamma (standard) or 2*gamma + n*beta (shifted).

Every draw is a pure function of a 64-bit key: :func:`_window` builds the
leading rows of the model from one :func:`_standard_gamma` call, the only
gamma sampler here, for a whole array of keys. A single draw takes one raw
output of a numpy PCG64 Generator as its key, and the first raw output of
``make_rng(seed)`` is ``derive_seed(seed, 0)``, so identical seeds give
bit-identical output on one host. :func:`derive_seed` gives replicate i of
a seeded Monte Carlo run its own child seed: replicate i is
``sample_laguerre_tridiagonal(make_rng(derive_seed(master, i)), params)``,
whose key is ``derive_seed(derive_seed(master, i), 0)``.
:func:`replicate_windows` computes the keys of a block of replicates at
once, with no Generator, and yields their leading windows, equal to the
single draws' bit for bit, one block at a time. The gamma draws are
Marsaglia & Tsang's method on Kinderman & Monahan's normal, each stage
decided by its exact test alone.

:class:`EnsembleParams`, :class:`RescalingMode` and :func:`derive_seed`
live in the numpy-free :mod:`lagspec.scalar` and are re-exported here;
that module also evaluates the gamma draws one entry at a time, for
``lagspec sample`` at every size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, _integer
from .scalar import (_BOX_V, _GOLDEN, _MASK64, _SERIES_D, _SPLITMIX_A, _SPLITMIX_B,
                     EnsembleParams, RescalingMode, _centering, _log_series, derive_seed)
from .spectral import JacobiCoefficients, SpectralMeasure, _first_fault, eigen_spectral

__all__ = [
    "EnsembleParams",
    "RescalingMode",
    "derive_seed",
    "make_rng",
    "replicate_windows",
    "rescale",
    "sample_laguerre_tridiagonal",
    "sample_spectral_measure",
]

_U64 = np.uint64

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) and its
# inverse modulo 2**128, which make_rng steps back by.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)

# k golden for k = 1..4, the offsets of an attempt's raw words (see _standard_gamma).
_STEPS = np.arange(1, 5, dtype=np.uint64)[:, None] * _U64(_GOLDEN)

# Replicates per vectorized block: large enough to spread numpy's per-call
# overhead thin, small enough that peak memory beyond the sample vector does
# not grow with the replicate count. No draw depends on it. README clt,
# 10^4 replicates, on a 2-core x86-64 VM (in process, median of 15, sizes
# alternating): blocks of 1024, 2048, 3584 and 4096 draw in 14.8, 14.3,
# 13.3 and 13.3 ms (README mp-sanity, 2000 replicates: 2.5, 2.1, 2.2 and
# 2.2 ms); the whole clt process peaks at 31.0, 32.8, 34.5 and 35.1 MB RSS.
_BLOCK = 2048


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for an integer seed, taken modulo 2**64.

    Its first raw output is ``derive_seed(seed, 0)``, the key a single draw
    takes from it. PCG64 steps its 128-bit state s to s*MULT + inc and then
    outputs XSL-RR of it, which is the low word when the high word is 0; so
    the state is set to (key - inc)*MULT^-1 modulo 2**128, with the
    increment numpy's seeding of ``PCG64(seed)`` gives.
    """
    seed = _integer(seed, "seed")
    bit_generator = np.random.PCG64(seed & _MASK64)
    state = bit_generator.state
    lcg = state["state"]
    lcg["state"] = (derive_seed(seed, 0) - lcg["inc"]) * _PCG64_MULT_INV % (1 << 128)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on uint64: derive_seed(m, i) is that of m + (i+1) golden."""
    x ^= x >> _U64(30)
    x *= _U64(_SPLITMIX_A)
    x ^= x >> _U64(27)
    x *= _U64(_SPLITMIX_B)
    x ^= x >> _U64(31)
    return x


def _uniform(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words as uniforms in (0, 1]: their top 53 bits plus one, times 2**-53."""
    u = (raw >> _U64(11)).astype(np.float64)
    u += 1.0
    u *= 2.0**-53
    return u


def _standard_gamma(keys, shapes) -> np.ndarray:
    """Gamma(``shapes``, scale 1) draws, one row per 64-bit key.

    Draw j of key K reads its own counter stream raw_k =
    derive_seed(derive_seed(K, j), k), so every entry is independent of
    every other, of the number of keys and of the shapes after it. Attempt
    t reads raw_4t .. raw_4t+3 as uniforms U1 .. U4 in (0, 1]. A normal X
    = V / U1, V = 1.7156 (U2 - 1/2), comes from Kinderman & Monahan's ratio
    of uniforms (ACM TOMS 3, 1977), accepted iff V^2 <= -4 U1^2 ln U1.
    Marsaglia & Tsang's method (ACM TOMS 26, 2000) then takes d = a - 1/3
    (a + 2/3 for a shape a < 1), c = 1/sqrt(9d), W = (1 + cX)^3, and
    accepts iff 1 + cX > 0 and ln U3 < X^2/2 + d (1 - W + ln W), where
    1 - W + ln W is summed from its series in W - 1 once d >= 2^30
    (``scalar._log_series``). The draw is d W, times U4^(1/a) when a < 1;
    a rejection moves on to attempt t + 1. Each test runs over all pending
    entries, one attempt per round; no squeeze skips it. Values use only +
    - * / sqrt (and C's ``pow``, through ``math.pow``, for a < 1); ``ln``
    only decides acceptance, so a host whose ``log`` differs in the last
    bit can flip only a decision within about 1e-10 of its boundary.
    ``scalar._gamma`` evaluates one entry with the same operations in the
    same order.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    shapes = np.asarray(shapes, dtype=np.float64)
    small = shapes < 1.0
    d_col = np.where(small, shapes + 2.0 / 3.0, shapes - 1.0 / 3.0)
    series = d_col >= _SERIES_D
    c_col = 1.0 / np.sqrt(9.0 * d_col)
    # Stream j's raw_k is the finalizer of S_j + (k + 1) golden; each pending
    # entry keeps base = S_j + 4t golden, so its attempt reads base + golden ..
    # base + 4 golden.
    steps = np.arange(1, shapes.size + 1, dtype=np.uint64) * _U64(_GOLDEN)
    base = _finalize(keys[:, None] + steps).ravel()
    col = np.tile(np.arange(shapes.size), keys.size)
    out = np.empty(base.size)
    todo = np.arange(base.size)
    while todo.size:
        u1, u2, u3 = _uniform(_finalize(base + _STEPS[:3]))
        v = _BOX_V * (u2 - 0.5)
        accept = v * v <= -4.0 * u1 * u1 * np.log(u1)
        x = v / u1
        d = d_col[col]
        w = 1.0 + c_col[col] * x
        accept &= w > 0.0
        w = w * w * w
        # ln W is nan or -inf where W <= 0, entries already rejected.
        with np.errstate(invalid="ignore", divide="ignore"):
            excess = 1.0 - w + np.log(w)
            if series.any():
                near = np.flatnonzero(accept & series[col])
                excess[near] = _log_series(w[near] - 1.0)
            accept &= np.log(u3) < 0.5 * (x * x) + d * excess
        value = d * w
        if small.any():
            boost = np.flatnonzero(accept & small[col])
            u4 = _uniform(_finalize(base[boost] + _STEPS[3]))
            # math.pow one entry at a time, as scalar._gamma takes it: numpy's
            # power rounds differently in the last bit for some entries.
            value[boost] *= [math.pow(u, e) for u, e in
                             zip(u4.tolist(), (1.0 / shapes[col[boost]]).tolist())]
        out[todo[accept]] = value[accept]
        keep = ~accept
        todo, col = todo[keep], col[keep]
        base = base[keep] + _STEPS[3]
    return out.reshape(keys.size, shapes.size)


def _center(
    diag: np.ndarray, offdiag: np.ndarray, params: EnsembleParams
) -> tuple[np.ndarray, np.ndarray]:
    """The standard or shifted centering of ``params.mode``, along the last axis."""
    shift, scale = _centering(params)
    return (diag - shift) / scale, offdiag / scale


def _window(keys, params: EnsembleParams, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw diagonals and off-diagonals of the leading w = ``window`` rows, one row per key.

    Row r holds the model drawn from key r: its chi-squares z_1 .. z_{2w-1},
    with the degrees of freedom of the module docstring, are twice one
    :func:`_standard_gamma` row. Each draw reads its own stream, so a
    window's draws are the leading draws of the full matrix.
    """
    k = np.arange(1, 2 * window, dtype=np.float64)
    dofs = np.where(
        k % 2 == 1,
        2.0 * params.gamma - params.beta_prime * (k - 1.0),
        params.beta_prime * (2.0 * params.n - k),
    )
    z = _standard_gamma(keys, dofs / 2.0)
    z *= 2.0
    odd, even = z[:, 0::2], z[:, 1::2]  # z_1, z_3, ..., z_{2w-1} and z_2, ..., z_{2w-2}
    diag = odd.copy()
    diag[:, 1:] += even
    # sqrt(z_odd) sqrt(z_even): the product z_odd z_even overflows for large gamma.
    return diag, np.sqrt(odd[:, :-1]) * np.sqrt(even)


def _replicate_keys(master_seed: int, rows: range) -> np.ndarray:
    """Keys of the replicates ``rows``: the first raw outputs of their ``make_rng`` generators.

    Replicate i's generator is ``make_rng(derive_seed(master_seed, i))``,
    whose first output is derive_seed(derive_seed(master_seed, i), 0).
    """
    master = _U64(_integer(master_seed, "seed") & _MASK64)
    index = np.arange(rows.start + 1, rows.stop + 1, dtype=np.uint64)
    return _finalize(_finalize(master + index * _U64(_GOLDEN)) + _U64(_GOLDEN))


def replicate_windows(master_seed: int, replicates: int, params: EnsembleParams,
                      window: int, scale: float | None = None):
    """Yield the leading windows of replicates 0 .. ``replicates`` - 1, a block at a time.

    Each item is ``(rows, diag, offdiag)``: a range of at most ``_BLOCK``
    replicate indices, and one row per index holding the leading
    ``window`` rows of ``sample_laguerre_tridiagonal(make_rng(derive_seed(
    master_seed, i)), params)``, bit for bit. Only their 2 ``window`` - 1
    leading chi-squares are drawn. The rows are centered by
    ``params.mode``, or multiplied by ``scale`` when one is given. Raises
    NumericalError naming the first replicate whose window is not valid
    Jacobi data.
    """
    replicates, window = _integer(replicates, "replicates"), _integer(window, "window")
    if replicates < 0:
        raise ValueError(f"replicates must be >= 0, got {replicates}")
    if not 1 <= window <= params.n:
        raise ValueError(f"window must be in 1..{params.n}, got {window}")
    for first in range(0, replicates, _BLOCK):
        rows = range(first, min(first + _BLOCK, replicates))
        # Rows that overflow or divide by zero are left to _first_fault.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            diag, offdiag = _window(_replicate_keys(master_seed, rows), params, window)
            if scale is not None:
                diag, offdiag = diag * scale, offdiag * scale
            elif params.mode is not RescalingMode.NONE:
                diag, offdiag = _center(diag, offdiag, params)
        fault = _first_fault(diag, offdiag)
        if fault is not None:
            raise NumericalError(f"replicate {first + fault[0]} failed: {fault[1]}")
        yield rows, diag, offdiag


def sample_laguerre_tridiagonal(
    rng: np.random.Generator, params: EnsembleParams
) -> JacobiCoefficients:
    """Raw (unscaled) tridiagonal coefficients of the Laguerre model.

    Takes one raw 64-bit output of ``rng`` as the key of the 2n - 1
    chi-squares: the model is the leading row of :func:`_window` for that
    key.
    """
    # An overflowed or NaN entry is left to JacobiCoefficients' finite check.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diag, offdiag = _window([rng.bit_generator.random_raw()], params, params.n)
    return JacobiCoefficients(diag[0], offdiag[0])


def rescale(coeffs: JacobiCoefficients, params: EnsembleParams) -> JacobiCoefficients:
    """Apply the eigenvalue centering of ``params.mode`` to raw coefficients.

    Centering the eigenvalues by a constant and dividing by
    sqrt(2*gamma*n*beta) acts entrywise on the tridiagonal data: the
    constant leaves the off-diagonal untouched.
    """
    if coeffs.n != params.n:
        raise ValueError(
            f"coefficient size {coeffs.n} does not match params.n = {params.n}"
        )
    if params.mode is RescalingMode.NONE:
        return coeffs
    return JacobiCoefficients(*_center(coeffs.diag, coeffs.offdiag, params))


def sample_spectral_measure(
    rng: np.random.Generator, params: EnsembleParams
) -> SpectralMeasure:
    """One draw of the weighted spectral measure of the rescaled model.

    Composition of :func:`sample_laguerre_tridiagonal`, :func:`rescale`, and
    :func:`eigen_spectral`. The atoms carry the (rescaled) eigenvalue law
    and the weights are Dirichlet(beta') distributed, independent of the
    atoms. At small beta some weights fall below the double range; their
    atoms are dropped, so the measure may have fewer than ``params.n``
    atoms (about half of the draws at n = 400, beta = 0.2, gamma = n^3).
    Up to 64 rows the eigensolve is numpy's dense ``eigh``; above, it is the
    bidiagonal SVD of :func:`eigen_spectral` and dominates the cost of a
    draw.
    """
    return eigen_spectral(rescale(sample_laguerre_tridiagonal(rng, params), params))
