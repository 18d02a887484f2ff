"""Sampling the tridiagonal Laguerre beta-ensemble and its rescalings.

The n x n tridiagonal model is assembled from independent chi-square draws
z_1, ..., z_{2n-1}: the diagonal is d_k = z_{2k-1} + z_{2k-2} (with z_0 = 0)
and the off-diagonal is c_k = sqrt(z_{2k-1} z_{2k}). The degrees of freedom
are 2*gamma - beta'(k-1) for odd k and beta'(2n-k) for even k, with
beta' = beta/2. Eigenvalue centerings divide out sqrt(2*gamma*n*beta) after
subtracting 2*gamma (standard) or 2*gamma + n*beta (shifted).

Randomness flows through numpy Generators on the PCG64 bit generator. Every
sampler is a pure function of (generator, parameters): identical seeds give
bit-identical output. :func:`derive_seed` gives replicate i of a seeded
Monte Carlo run its own child seed. The experiments draw a block of
replicates at once: the block's seeds are derived and hashed in one
vectorized pass and every replicate draws through one reused generator,
with the same bits as ``make_rng(derive_seed(master, i))`` per replicate.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .spectral import JacobiCoefficients, SpectralMeasure, eigen_spectral

__all__ = [
    "EnsembleParams",
    "RescalingMode",
    "derive_seed",
    "make_rng",
    "rescale",
    "sample_chi_squared",
    "sample_dirichlet",
    "sample_laguerre_tridiagonal",
    "sample_spectral_measure",
]

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

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
    ill-defined; violations are rejected here rather than clamped.
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
    x ^= x >> 30
    x = (x * _SPLITMIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _SPLITMIX_B) & _MASK64
    x ^= x >> 31
    return x


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for an integer seed, taken modulo 2**64."""
    return np.random.Generator(np.random.PCG64(_integer(seed, "seed") & _MASK64))


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    """Yield ``PCG64(seed).state`` for each uint64 seed, without a SeedSequence per seed.

    numpy's SeedSequence hashes the seed's 32-bit words, low first, into a
    pool of 4 words and mixes the pool; a 64-bit seed is 2 words here,
    zero-padded to 4, which hashes as numpy's 1-word form does for seeds
    below 2**32. ``generate_state(4, uint64)`` hashes the pool out to 8
    words, paired little-endian into (initstate high, low, initseq high,
    low). Both steps run over the whole array, as 32-bit arithmetic done in
    uint64 and masked (no product of two 32-bit words overflows 64 bits).
    PCG64 then seeds its 128-bit LCG per seed: inc = 2*initseq + 1 and
    state = (inc + initstate)*MULT + inc.
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
    words = np.empty((seeds.size, 4), dtype=u64)
    for k in range(4):
        words[:, k] = mix_out(pool[2 * k % 4]) | (mix_out(pool[(2 * k + 1) % 4]) << u64(32))
    del pool  # free the hashing arrays; rows are drawn while this generator waits
    for row in words:
        s_hi, s_lo, q_hi, q_lo = row.tolist()
        inc = (((q_hi << 64 | q_lo) << 1) | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _replicate_draws(master_seed: int, block: range, shapes: np.ndarray) -> np.ndarray:
    """Gamma(``shapes``, scale 2) draws for the replicate indices ``block``, one row each.

    Row r equals ``make_rng(derive_seed(master_seed, block[r])).gamma(shapes,
    2.0)`` bit for bit, at a fraction of its numpy call overhead: the child
    seeds come from :func:`derive_seed`'s splitmix64 in wrapping uint64
    arithmetic over the whole block, their PCG64 states from
    :func:`_pcg64_states`, and every row draws through one reused
    generator with ``standard_gamma``, doubled at the end. The doubling is
    exact, since numpy's gamma is scale * standard_gamma.
    """
    u64 = np.uint64
    x = np.arange(block.start + 1, block.stop + 1, block.step, dtype=u64)
    x *= u64(_GOLDEN)
    x += u64(_integer(master_seed, "seed") & _MASK64)
    x ^= x >> u64(30)
    x *= u64(_SPLITMIX_A)
    x ^= x >> u64(27)
    x *= u64(_SPLITMIX_B)
    x ^= x >> u64(31)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    z = np.empty((len(block), shapes.size))
    for row, state in enumerate(_pcg64_states(x)):
        bitgen.state = state
        gen.standard_gamma(shapes, out=z[row])
    z *= 2.0
    return z


def sample_chi_squared(rng: np.random.Generator, dof: float) -> float:
    """One chi-square draw with ``dof`` (possibly noninteger) degrees of freedom.

    Sampled as Gamma(dof/2, scale=2); the generator's gamma sampler is the
    standard squeeze-based rejection scheme, which covers noninteger shape.
    """
    if not (dof > 0):
        raise ValueError(f"degrees of freedom must be positive, got {dof!r}")
    return float(rng.gamma(dof / 2.0, 2.0))


def sample_dirichlet(rng: np.random.Generator, n: int, beta_prime: float) -> np.ndarray:
    """Symmetric Dirichlet weights on the n-simplex with parameter beta_prime.

    Implemented as normalized independent Gamma(beta_prime, 1) draws.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (beta_prime > 0):
        raise ValueError(f"beta_prime must be positive, got {beta_prime!r}")
    g = rng.gamma(beta_prime, 1.0, size=int(n))
    total = g.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("Dirichlet gamma draws underflowed to zero")
    return g / total


def _chi_squared_shapes(params: EnsembleParams, window: int) -> np.ndarray:
    """Gamma shapes (dof / 2) of z_1, ..., z_{2w-1}, w = ``window``, in model order.

    These are the draws behind the leading w x w block of the model; the
    generator draws in order, so they are also the leading draws of the
    full matrix.
    """
    k = np.arange(1, 2 * window, dtype=np.float64)
    dofs = np.where(
        k % 2 == 1,
        2.0 * params.gamma - params.beta_prime * (k - 1.0),
        params.beta_prime * (2.0 * params.n - k),
    )
    return dofs / 2.0


def _assemble(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal from chi-square draws along the last axis."""
    odd = z[..., 0::2]  # z_1, z_3, ..., z_{2w-1}
    even = z[..., 1::2]  # z_2, z_4, ..., z_{2w-2}
    diag = odd.copy()
    diag[..., 1:] += even
    return diag, np.sqrt(odd[..., :-1] * even)


def _center(
    diag: np.ndarray, offdiag: np.ndarray, params: EnsembleParams
) -> tuple[np.ndarray, np.ndarray]:
    """The standard or shifted centering of ``params.mode``, along the last axis."""
    denom = np.sqrt(2.0 * params.gamma * params.n * params.beta)
    shift = 2.0 * params.gamma
    if params.mode is RescalingMode.SHIFTED:
        shift += params.n * params.beta
    return (diag - shift) / denom, offdiag / denom


def sample_laguerre_tridiagonal(
    rng: np.random.Generator, params: EnsembleParams
) -> JacobiCoefficients:
    """Raw (unscaled) tridiagonal coefficients of the Laguerre model."""
    z = rng.gamma(_chi_squared_shapes(params, params.n), 2.0)
    return JacobiCoefficients(*_assemble(z))


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
