"""Seeded Monte Carlo harness for the limit-theorem checks.

Each experiment draws the tridiagonal model per replicate (with a seed
derived from the master seed and the replicate index), evaluates a scalar
statistic, and compares the sample mean and variance against the theory.
Statistics are polynomial moments of the spectral measure; they are
computed through the operator identity m_k = <e1, J^k e1> on the rescaled
coefficients, which is the same random variable the eigendecomposition
route produces, at a fraction of the cost.

m_1..m_k read only the leading (k+1) x (k+1) window of the model, so a
replicate draws only the chi-squares behind that window. Replicates run a
block at a time: the block's child seeds and generator states are computed
in one vectorized pass, every replicate draws through one reused
generator, and the block is then assembled, centered and pushed through
the moment recursion at once. Every reported number is the same as drawing
each replicate from its own ``make_rng(derive_seed(master_seed, i))`` and
reducing it on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .ensembles import (
    EnsembleParams,
    RescalingMode,
    _assemble,
    _center,
    _chi_squared_shapes,
    _integer,
    _replicate_draws,
)
from .errors import NumericalError
from .moments import (
    NuVariant,
    integrate_poly_against_moments,
    mp_moments,
    nu_moments,
    semicircle_moments,
)
from .spectral import _first_fault, _window_moments

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "LinearGamma",
    "PowerLawGamma",
    "format_poly",
    "predicted_clt",
    "run_clt",
    "run_mdp_centering",
    "run_moment_convergence",
    "run_mp_sanity",
]

MEAN_BAND_SIGMAS = 4.0
VARIANCE_BAND = (0.85, 1.15)
MP_RELATIVE_TOL = 0.05
MAX_CONVERGENCE_MOMENT = 8
MAX_POLY_DEGREE = 20

# Replicates per vectorized block: large enough to spread numpy's per-call
# overhead thin, small enough that peak memory beyond the sample vector does
# not grow with the replicate count (README clt, 10^4 replicates: peak RSS
# 38.0 MB as one block, 35.7 MB in blocks of 1024).
_BLOCK = 1024


@dataclass(frozen=True)
class PowerLawGamma:
    """gamma_n = coefficient * n^exponent with exponent > 1 (superlinear)."""

    exponent: float
    coefficient: float = 1.0

    def __post_init__(self):
        if not (self.exponent > 1.0):
            raise ValueError(
                f"power-law exponent must exceed 1, got {self.exponent!r}"
            )
        if not (self.coefficient > 0.0):
            raise ValueError(f"coefficient must be positive, got {self.coefficient!r}")

    def gamma_at(self, n: int, beta_prime: float) -> float:
        return self.coefficient * float(n) ** self.exponent


@dataclass(frozen=True)
class LinearGamma:
    """gamma_n = n * beta' / tau with 0 < tau <= 1 (the linear regime)."""

    tau: float

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {self.tau!r}")

    def gamma_at(self, n: int, beta_prime: float) -> float:
        return n * beta_prime / self.tau


GammaRule = Union[PowerLawGamma, LinearGamma]


@dataclass
class ExperimentConfig:
    """Everything a run needs: model knobs, statistic, replication, seed."""

    n: int
    beta: float
    gamma_rule: GammaRule
    replicates: int
    master_seed: int
    statistic: Union[np.ndarray, int]
    b_n: float | None = None
    mode: RescalingMode = RescalingMode.STANDARD

    def __post_init__(self):
        _integer(self.master_seed, "master_seed")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.b_n is not None and not (self.b_n > 0):
            raise ValueError(f"b_n must be positive, got {self.b_n!r}")

    def ensemble_params(self) -> EnsembleParams:
        gamma = self.gamma_rule.gamma_at(self.n, self.beta / 2.0)
        return EnsembleParams(self.n, self.beta, gamma, self.mode)


@dataclass
class ExperimentReport:
    """Monte Carlo summary with predictions, sample statistics, and verdict.

    standard_error_mean is sqrt(sample_variance / replicates); the verdict
    rule applied is recorded verbatim in ``verdict_rule``.
    """

    statistic: str
    n: int
    beta: float
    gamma: float
    zeta_or_xi: float
    replicates: int
    predicted_mean: float
    predicted_variance: float
    sample_mean: float
    sample_variance: float
    standard_error_mean: float
    z_score: float
    verdict: bool
    verdict_rule: str
    wall_time_s: float
    samples: np.ndarray | None = field(default=None, repr=False)


def format_poly(coeffs: np.ndarray) -> str:
    """Canonical display form of monomial coefficients, low to high."""
    coeffs = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        mag = abs(c)
        if j == 0:
            body = f"{mag:g}"
        else:
            x = "x" if j == 1 else f"x^{j}"
            body = x if mag == 1.0 else f"{mag:g}{x}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def predicted_clt(
    poly: np.ndarray, zeta: float, variant: NuVariant = NuVariant.STANDARD
) -> tuple[float, float]:
    """Limit mean and variance of the centered linear statistic of ``poly``.

    Mean: integral of p against the corrective signed measure with
    parameter zeta (zero total mass). Variance: the semicircle variance of
    p, i.e. the integral of (p - mean_sc(p))^2 against the semicircle law.
    Both via exact reference moments; degree capped at 20 to stay inside
    the exact-moment range.
    """
    poly = np.asarray(poly, dtype=np.float64).reshape(-1)
    degree = poly.size - 1
    if degree > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree {degree} above cap {MAX_POLY_DEGREE}")
    if zeta < 0:
        raise ValueError(f"zeta must be >= 0, got {zeta!r}")
    order = max(1, 2 * degree)
    msc = semicircle_moments(order).astype(np.float64)
    mean = integrate_poly_against_moments(poly, nu_moments(order, zeta, variant), 0.0)
    p_squared = np.convolve(poly, poly)
    second = integrate_poly_against_moments(p_squared, msc, 1.0)
    first = integrate_poly_against_moments(poly, msc, 1.0)
    return mean, second - first * first


def _summaries(samples: np.ndarray) -> tuple[float, float, float]:
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1)) if samples.size > 1 else 0.0
    se = float(np.sqrt(var / samples.size))
    return mean, var, se


def _z_score(mean: float, predicted: float, se: float) -> float:
    if se > 0.0:
        return (mean - predicted) / se
    return 0.0 if mean == predicted else float(np.sign(mean - predicted)) * np.inf


def _require_verdict_grade(config: ExperimentConfig) -> None:
    if config.replicates < 100:
        raise ValueError(
            f"statistical verdicts need >= 100 replicates, got {config.replicates}"
        )


def _nu_variant(mode: RescalingMode) -> NuVariant:
    if mode is RescalingMode.SHIFTED:
        return NuVariant.SHIFTED
    return NuVariant.STANDARD


def _run(
    config: ExperimentConfig,
    params: EnsembleParams,
    *,
    label: str,
    zeta_or_xi: float,
    predicted_mean: float,
    predicted_variance: float,
    order: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    verdict: Callable[[float, float, float], bool],
    rule: str,
    keep_samples: bool,
    scale: float | None = None,
) -> ExperimentReport:
    """Draw every replicate, evaluate its statistic, summarize and judge.

    Replicate i reads the leading w x w window of the model, w = min(order
    + 1, n), with the draws of make_rng(derive_seed(master_seed, i)); only
    its first 2w - 1 chi-squares are drawn, which are exactly the leading
    draws of the full matrix. Each block of replicates is seeded in one
    vectorized pass and drawn through one reused generator
    (ensembles._replicate_draws). The window is centered by ``params.mode``,
    or multiplied by ``scale`` when one is given, and ``statistic`` maps
    the moments m_1..m_order (one row per replicate) to one value per
    replicate. ``verdict`` receives the sample mean, variance and
    standard error. Raises NumericalError naming the first replicate whose
    window is not valid Jacobi data.
    """
    start = time.perf_counter()
    shapes = _chi_squared_shapes(params, min(order + 1, params.n))
    samples = np.empty(config.replicates)
    for first in range(0, config.replicates, _BLOCK):
        block = range(first, min(first + _BLOCK, config.replicates))
        diag, offdiag = _assemble(_replicate_draws(config.master_seed, block, shapes))
        if scale is None:
            diag, offdiag = _center(diag, offdiag, params)
        else:
            diag, offdiag = diag * scale, offdiag * scale
        fault = _first_fault(diag, offdiag)
        if fault is not None:
            raise NumericalError(f"replicate {first + fault[0]} failed: {fault[1]}")
        samples[block.start : block.stop] = statistic(_window_moments(diag, offdiag, order))
    elapsed = time.perf_counter() - start

    mean, var, se = _summaries(samples)
    return ExperimentReport(
        statistic=label,
        n=config.n,
        beta=config.beta,
        gamma=params.gamma,
        zeta_or_xi=float(zeta_or_xi),
        replicates=config.replicates,
        predicted_mean=predicted_mean,
        predicted_variance=predicted_variance,
        sample_mean=mean,
        sample_variance=var,
        standard_error_mean=se,
        z_score=_z_score(mean, predicted_mean, se),
        verdict=bool(verdict(mean, var, se)),
        verdict_rule=rule,
        wall_time_s=elapsed,
        samples=samples if keep_samples else None,
    )


def run_clt(config: ExperimentConfig, keep_samples: bool = False) -> ExperimentReport:
    """Central-limit check for sqrt(n beta') (int p dmu_n - int p dmu_sc).

    The predicted mean uses the corrective measure at the finite-n value
    zeta_n = n beta' / sqrt(gamma_n) (shifted variant in shifted mode);
    the predicted variance is the semicircle variance of p. Verdict: mean
    within 4 standard errors and variance ratio within [0.85, 1.15].
    """
    _require_verdict_grade(config)
    if config.mode is RescalingMode.NONE:
        raise ValueError("CLT experiments need a centering mode")
    poly = np.asarray(config.statistic, dtype=np.float64).reshape(-1)
    params = config.ensemble_params()
    zeta_n = config.n * params.beta_prime / np.sqrt(params.gamma)
    predicted_mean, predicted_var = predicted_clt(poly, zeta_n, _nu_variant(config.mode))

    degree = poly.size - 1
    prefactor = np.sqrt(config.n * config.beta / 2.0)
    tail = poly[1:]
    msc = semicircle_moments(max(degree, 1)).astype(np.float64)

    def statistic(m: np.ndarray) -> np.ndarray:
        if degree < 1:  # a constant polynomial's statistic is identically 0
            return np.zeros(len(m))
        # One np.dot per replicate: a batched product may sum in another
        # order and change the last bits of the seeded reports.
        return prefactor * np.array([np.dot(tail, row) for row in m - msc])

    def verdict(mean: float, var: float, se: float) -> bool:
        if predicted_var > 0.0:
            ratio = var / predicted_var
            return (
                abs(mean - predicted_mean) < MEAN_BAND_SIGMAS * se
                and VARIANCE_BAND[0] <= ratio <= VARIANCE_BAND[1]
            )
        return mean == predicted_mean and var == 0.0

    rule = (
        f"abs(sample_mean - predicted_mean) < {MEAN_BAND_SIGMAS:g}*se_mean and "
        f"{VARIANCE_BAND[0]:g} <= sample_var/predicted_var <= {VARIANCE_BAND[1]:g}"
    )
    return _run(
        config, params, label=format_poly(poly), zeta_or_xi=zeta_n,
        predicted_mean=predicted_mean, predicted_variance=predicted_var,
        order=max(degree, 1), statistic=statistic, verdict=verdict, rule=rule,
        keep_samples=keep_samples,
    )


def run_moment_convergence(
    config: ExperimentConfig, keep_samples: bool = False
) -> ExperimentReport:
    """Plain convergence of m_k(mu_n) to the semicircle moment.

    Verdict: the replicate average lies within 4 standard errors plus a
    3/sqrt(n) finite-size bias allowance of the limit. Moment index capped
    at 8; higher moments are too noisy at desk-scale replication.
    """
    _require_verdict_grade(config)
    if config.mode is RescalingMode.NONE:
        raise ValueError("moment convergence needs a centering mode")
    k = int(config.statistic)
    if not (1 <= k <= MAX_CONVERGENCE_MOMENT):
        raise ValueError(f"moment index must be in 1..{MAX_CONVERGENCE_MOMENT}, got {k}")
    params = config.ensemble_params()
    zeta_n = config.n * params.beta_prime / np.sqrt(params.gamma)
    predicted_mean = float(semicircle_moments(k)[k - 1])
    msc = semicircle_moments(2 * k).astype(np.float64)
    sigma2 = float(msc[2 * k - 1] - msc[k - 1] ** 2)
    allowance = 3.0 / np.sqrt(config.n)
    return _run(
        config, params, label=f"m{k}", zeta_or_xi=zeta_n,
        predicted_mean=predicted_mean,
        predicted_variance=sigma2 / (config.n * params.beta_prime),
        order=k, statistic=lambda m: m[:, k - 1],
        verdict=lambda mean, var, se: (
            abs(mean - predicted_mean) < MEAN_BAND_SIGMAS * se + allowance
        ),
        rule=f"abs(sample_mean - predicted_mean) < {MEAN_BAND_SIGMAS:g}*se_mean + 3/sqrt(n)",
        keep_samples=keep_samples,
    )


def run_mdp_centering(
    config: ExperimentConfig, keep_samples: bool = False
) -> ExperimentReport:
    """Location of the moderate-deviation minimizer, never tail probabilities.

    Averages m_k of nu_n = sqrt(n beta'/b_n)(mu_n - mu_sc) and compares to
    the corrective-measure moment at xi_n = n beta'/sqrt(b_n gamma_n).
    Verdict is the 4-standard-error mean test; even k predict exactly 0.
    """
    _require_verdict_grade(config)
    if config.b_n is None:
        raise ValueError("MDP centering needs b_n")
    if config.mode is RescalingMode.NONE:
        raise ValueError("MDP centering needs a centering mode")
    k = int(config.statistic)
    if k < 1:
        raise ValueError(f"moment index must be >= 1, got {k}")
    params = config.ensemble_params()
    xi_n = config.n * params.beta_prime / np.sqrt(config.b_n * params.gamma)
    predicted_mean = float(nu_moments(k, xi_n, _nu_variant(config.mode))[k - 1])
    msc = semicircle_moments(2 * k).astype(np.float64)
    sigma2 = float(msc[2 * k - 1] - msc[k - 1] ** 2)
    prefactor = float(np.sqrt(config.n * params.beta_prime / config.b_n))
    return _run(
        config, params, label=f"m{k}", zeta_or_xi=xi_n,
        predicted_mean=predicted_mean, predicted_variance=sigma2 / config.b_n,
        order=k, statistic=lambda m: prefactor * (m[:, k - 1] - msc[k - 1]),
        verdict=lambda mean, var, se: abs(mean - predicted_mean) < MEAN_BAND_SIGMAS * se,
        rule=f"abs(sample_mean - predicted_mean) < {MEAN_BAND_SIGMAS:g}*se_mean",
        keep_samples=keep_samples,
    )


def run_mp_sanity(config: ExperimentConfig, keep_samples: bool = False) -> ExperimentReport:
    """Law-of-large-numbers check against the Marchenko-Pastur moments.

    Needs the linear gamma rule and no centering; the sampled matrix is
    divided by 2*gamma_n, the normalization under which the spectral
    measure converges to MP(tau). Verdict: replicate-average moment within
    5 percent relative of the closed-form moment, k <= 4.
    """
    _require_verdict_grade(config)
    if not isinstance(config.gamma_rule, LinearGamma):
        raise ValueError("MP sanity needs the linear gamma rule")
    if config.mode is not RescalingMode.NONE:
        raise ValueError("MP sanity runs on the uncentered matrix")
    k = int(config.statistic)
    if not (1 <= k <= 4):
        raise ValueError(f"moment index must be in 1..4, got {k}")
    tau = config.gamma_rule.tau
    params = config.ensemble_params()
    predicted_mean = float(mp_moments(k, tau)[k - 1])
    return _run(
        config, params, label=f"m{k}", zeta_or_xi=tau,
        predicted_mean=predicted_mean, predicted_variance=float("nan"),
        order=k, statistic=lambda m: m[:, k - 1],
        verdict=lambda mean, var, se: abs(mean / predicted_mean - 1.0) <= MP_RELATIVE_TOL,
        rule=f"abs(sample_mean/predicted_mean - 1) <= {MP_RELATIVE_TOL:g}",
        keep_samples=keep_samples, scale=1.0 / (2.0 * params.gamma),
    )
