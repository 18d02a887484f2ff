"""Sampling the tridiagonal Laguerre beta-ensemble and its rescalings.

The n x n tridiagonal model is assembled from independent chi-square draws
z_1, ..., z_{2n-1}: the diagonal is d_k = z_{2k-1} + z_{2k-2} (with z_0 = 0)
and the off-diagonal is c_k = sqrt(z_{2k-1} z_{2k}). The degrees of freedom
are 2*gamma - beta'(k-1) for odd k and beta'(2n-k) for even k, with
beta' = beta/2. Eigenvalue centerings divide out sqrt(2*gamma*n*beta) after
subtracting 2*gamma (standard) or 2*gamma + n*beta (shifted).

Every draw is a pure function of a 64-bit key: :func:`_window` builds the
leading rows of the model from one :func:`_standard_gamma` call, the only
gamma sampler here, for a whole array of keys. A single draw takes one raw
output of a numpy PCG64 Generator as its key, so identical seeds give
bit-identical output on one host. :func:`derive_seed` gives replicate i of
a seeded Monte Carlo run its own child seed: replicate i is
``sample_laguerre_tridiagonal(make_rng(derive_seed(master, i)), params)``.
:func:`replicate_windows` computes the keys of a block of replicates at
once and yields their leading windows, equal to the single draws' bit for
bit, one block at a time. The gamma draws are Marsaglia & Tsang's method on
Kinderman & Monahan's normal, each stage decided by its exact test alone.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
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

_MASK64 = (1 << 64) - 1

# splitmix64 (derive_seed): the golden-gamma step and the finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_SPLITMIX_A = 0xBF58476D1CE4E5B9
_SPLITMIX_B = 0x94D049BB133111EB

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier,
# as in numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# PCG64's multiplier as uint64 words: high word, low word, and the low
# word's 32-bit limbs (see _lcg_step).
_U64 = np.uint64
_LOW32, _HALF = _U64(0xFFFFFFFF), _U64(32)
_MULT_HI, _MULT_LO = _U64(_PCG64_MULT >> 64), _U64(_PCG64_MULT & _MASK64)
_MULT_LO0, _MULT_LO1 = _U64(_PCG64_MULT & 0xFFFFFFFF), _U64((_PCG64_MULT >> 32) & 0xFFFFFFFF)

# The width of the ratio-of-uniforms box for V (see _standard_gamma), Leva's
# 1.7156 just above 2 sqrt(2/e); and k golden for k = 1..4, the offsets of
# an attempt's raw words.
_BOX_V = 1.7156
_STEPS = np.arange(1, 5, dtype=np.uint64)[:, None] * _U64(_GOLDEN)

# Replicates per vectorized block: large enough to spread numpy's per-call
# overhead thin, small enough that peak memory beyond the sample vector does
# not grow with the replicate count. No draw depends on it. README clt,
# 10^4 replicates, on a 2-core x86-64 VM (in process, median of 15, sizes
# alternating): blocks of 1024, 2048, 3584 and 4096 draw in 14.8, 14.3,
# 13.3 and 13.3 ms (README mp-sanity, 2000 replicates: 2.5, 2.1, 2.2 and
# 2.2 ms); the whole clt process peaks at 31.0, 32.8, 34.5 and 35.1 MB RSS.
_BLOCK = 2048


class RescalingMode(enum.Enum):
    """Eigenvalue centering: by 2*gamma, by 2*gamma + n*beta, or none."""

    STANDARD = "standard"
    SHIFTED = "shifted"
    NONE = "none"


@dataclass(frozen=True)
class EnsembleParams:
    """Size n, inverse temperature beta, parameter gamma, and centering mode.

    gamma must exceed (n-1)*beta/2, otherwise the eigenvalue density (and
    every chi-square degree of freedom in the tridiagonal model) would be
    ill-defined; violations are rejected here rather than clamped. A gamma
    whose centering scale 2*gamma*n*beta overflows a float is rejected too.
    """

    n: int
    beta: float
    gamma: float
    mode: RescalingMode = RescalingMode.STANDARD

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (self.beta > 0) or not np.isfinite(self.beta):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not np.isfinite(self.gamma) or not (self.gamma > (self.n - 1) * self.beta / 2.0):
            raise ValueError(
                f"gamma must exceed (n-1)*beta/2 = {(self.n - 1) * self.beta / 2.0}, "
                f"got {self.gamma!r}"
            )
        # The centering scale of _center, as Python floats: no numpy overflow warning.
        if not math.isfinite(2.0 * float(self.gamma) * int(self.n) * float(self.beta)):
            raise ValueError(
                f"gamma = {self.gamma!r} is too large at n = {self.n}, beta = {self.beta!r}: "
                "the centering scale 2*gamma*n*beta overflows a float"
            )
        if not isinstance(self.mode, RescalingMode):
            raise ValueError(f"mode must be a RescalingMode, got {self.mode!r}")

    @property
    def beta_prime(self) -> float:
        return self.beta / 2.0


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a float or other non-integer is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit child seed for replicate ``index``.

    A splitmix64 finalizer applied to master_seed + (index+1)*golden-gamma;
    distinct indices give decorrelated streams, and the map is a pure
    function of its integer arguments (Python or numpy integers; a float
    raises ValueError), so replication stays reproducible.
    """
    index = _integer(index, "index")
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    x = (_integer(master_seed, "seed") + (index + 1) * _GOLDEN) & _MASK64
    return int(_finalize(np.array([x], dtype=np.uint64))[0])


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for an integer seed, taken modulo 2**64."""
    return np.random.Generator(np.random.PCG64(_integer(seed, "seed") & _MASK64))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a_hi, a_lo) + (b_hi, b_lo) modulo 2**128, over uint64 word arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state step, state * MULT + inc modulo 2**128, over uint64 word arrays.

    The high word of lo * MULT_lo is summed from 32-bit limbs, whose
    products and partial sums fit in 64 bits (Hacker's Delight's mulhu);
    every other product is taken modulo 2**64.
    """
    lo0, lo1 = lo & _LOW32, lo >> _HALF
    t = lo1 * _MULT_LO0 + ((lo0 * _MULT_LO0) >> _HALF)
    w = lo0 * _MULT_LO1 + (t & _LOW32)
    carry = lo1 * _MULT_LO1 + (t >> _HALF) + (w >> _HALF)
    return _add128(carry + lo * _MULT_HI + hi * _MULT_LO, lo * _MULT_LO, inc_hi, inc_lo)


def _pcg64_seed(seeds: np.ndarray) -> np.ndarray:
    """``PCG64(seed)``'s state high, state low, inc high and inc low words, a column per seed.

    numpy's SeedSequence hashes the seed's 32-bit words, low first, into a
    pool of 4 words and mixes the pool; a 64-bit seed is 2 words here,
    zero-padded to 4, which hashes as numpy's 1-word form does for seeds
    below 2**32. ``generate_state(4, uint64)`` hashes the pool out to 8
    words, paired little-endian into (initstate high, low, initseq high,
    low). Both steps run over the whole array, as 32-bit arithmetic done in
    uint64 and masked (no product of two 32-bit words overflows 64 bits).
    PCG64 then seeds its 128-bit LCG: inc = 2*initseq + 1 and state =
    (inc + initstate)*MULT + inc, also over the whole array.
    """
    u64 = np.uint64
    low32 = u64(0xFFFFFFFF)

    def hasher(const: int, mult: int):
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal const
            value = value ^ u64(const)
            const = (const * mult) & 0xFFFFFFFF
            value = (value * u64(const)) & low32
            return value ^ (value >> u64(16))

        return hashmix

    mix_in = hasher(_SS_INIT_A, _SS_MULT_A)
    zero = np.zeros_like(seeds)
    pool = [mix_in(w) for w in (seeds & low32, seeds >> u64(32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (u64(_SS_MIX_L) * pool[dst] - u64(_SS_MIX_R) * mix_in(pool[src])) & low32
                pool[dst] = mixed ^ (mixed >> u64(16))
    mix_out = hasher(_SS_INIT_B, _SS_MULT_B)
    s_hi, s_lo, q_hi, q_lo = [
        mix_out(pool[2 * k % 4]) | (mix_out(pool[(2 * k + 1) % 4]) << u64(32)) for k in range(4)
    ]
    inc_hi = (q_hi << u64(1)) | (q_lo >> u64(63))
    inc_lo = (q_lo << u64(1)) | u64(1)
    state = _lcg_step(*_add128(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo)
    return np.stack((*state, inc_hi, inc_lo))


def _output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's raw 64-bit output of the states (hi, lo), which it has just stepped to.

    XSL-RR: the two state words xored, rotated right by the top 6 bits of
    the high word. The left shift is taken modulo 64, so that no shift
    reaches 64 when the rotation is 0.
    """
    x, rot = hi ^ lo, hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


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
    accepts iff 1 + cX > 0 and ln U3 < X^2/2 + d (1 - W + ln W). The draw
    is d W, times U4^(1/a) when a < 1; a rejection moves on to attempt t +
    1. Each test runs over all pending entries, one attempt per round; no
    squeeze skips it. Values use only + - * / sqrt (and pow for a < 1);
    ``ln`` only decides acceptance, so a host whose ``log`` differs in the
    last bit can flip only a decision within an ulp of its boundary.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    shapes = np.asarray(shapes, dtype=np.float64)
    small = shapes < 1.0
    d_col = np.where(small, shapes + 2.0 / 3.0, shapes - 1.0 / 3.0)
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
            accept &= np.log(u3) < 0.5 * (x * x) + d * (1.0 - w + np.log(w))
        value = d * w
        if small.any():
            boost = np.flatnonzero(accept & small[col])
            u4 = _uniform(_finalize(base[boost] + _STEPS[3]))
            value[boost] *= u4 ** (1.0 / shapes[col[boost]])
        out[todo[accept]] = value[accept]
        keep = ~accept
        todo, col = todo[keep], col[keep]
        base = base[keep] + _STEPS[3]
    return out.reshape(keys.size, shapes.size)


def _center(
    diag: np.ndarray, offdiag: np.ndarray, params: EnsembleParams
) -> tuple[np.ndarray, np.ndarray]:
    """The standard or shifted centering of ``params.mode``, along the last axis."""
    denom = np.sqrt(2.0 * params.gamma * params.n * params.beta)
    shift = 2.0 * params.gamma
    if params.mode is RescalingMode.SHIFTED:
        shift += params.n * params.beta
    return (diag - shift) / denom, offdiag / denom


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
    return diag, np.sqrt(odd[:, :-1] * even)


def _replicate_keys(master_seed: int, rows: range) -> np.ndarray:
    """Keys of the replicates ``rows``: the first raw outputs of their ``make_rng`` generators.

    Replicate i's generator is ``make_rng(derive_seed(master_seed, i))``;
    the seeds, PCG64 states and outputs are computed for all rows at once.
    """
    master = _U64(_integer(master_seed, "seed") & _MASK64)
    index = np.arange(rows.start + 1, rows.stop + 1, dtype=np.uint64)
    return _output(*_lcg_step(*_pcg64_seed(_finalize(master + index * _U64(_GOLDEN)))))


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
    chi-squares (see :func:`_window`).
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
    atoms.
    """
    return eigen_spectral(rescale(sample_laguerre_tridiagonal(rng, params), params))
