"""Sampling the tridiagonal Laguerre beta-ensemble and its rescalings.

The n x n tridiagonal model is assembled from independent chi-square draws
z_1, ..., z_{2n-1}: the diagonal is d_k = z_{2k-1} + z_{2k-2} (with z_0 = 0)
and the off-diagonal is c_k = sqrt(z_{2k-1} z_{2k}). The degrees of freedom
are 2*gamma - beta'(k-1) for odd k and beta'(2n-k) for even k, with
beta' = beta/2. Eigenvalue centerings divide out sqrt(2*gamma*n*beta) after
subtracting 2*gamma (standard) or 2*gamma + n*beta (shifted).

Randomness flows through numpy Generators. Every sampler is a pure function
of (generator, parameters): identical seeds give bit-identical output, and
:func:`derive_seed` produces independent child streams for parallel
replication.
"""

from __future__ import annotations

import enum
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


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit child seed for replicate ``index``.

    A splitmix64 finalizer applied to master_seed + (index+1)*golden-gamma;
    distinct indices give decorrelated streams, and the map is a pure
    function so parallel replication stays reproducible.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    x = (int(master_seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed."""
    return np.random.default_rng(int(seed) & _MASK64)


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
