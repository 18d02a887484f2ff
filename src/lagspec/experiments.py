"""Seeded Monte Carlo harness for the limit-theorem checks.

One runner per theorem: run_clt and run_mp_sanity. run_clt at speed b_n
(None for the CLT) is also the moderate-deviation check, centered at
xi_n = zeta_n / sqrt(b_n). An m_k check is run_clt with the statistic x^k,
whose predicted mean carries the corrective shift at the finite-n zeta_n.
Each runner evaluates a scalar statistic per replicate and compares the
sample mean and variance against the theory. Statistics are polynomial
moments of the spectral measure, computed through the operator identity
m_k = <e1, J^k e1> on the rescaled coefficients: the same random variable
the eigendecomposition route produces, at a fraction of the cost.

m_1..m_k read only the leading (k+1) x (k+1) window of the model, so a
replicate draws only the chi-squares behind that window. The draws come
from ensembles.replicate_windows, a block of replicates' centered windows
at a time; each block is pushed through the moment recursion at once and
reduced to one statistic per replicate. Every reported number is the same
as drawing replicate i with ``sample_laguerre_tridiagonal(make_rng(
derive_seed(master_seed, i)), params)`` and reducing it on its own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .ensembles import EnsembleParams, RescalingMode, _integer, replicate_windows
from .moments import (
    EXACT_ORDER_CAP,
    NuVariant,
    integrate_poly_against_moments,
    mp_moments,
    nu_moments,
    semicircle_moments,
)
from .spectral import _window_moments

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "LinearGamma",
    "PowerLawGamma",
    "format_poly",
    "parse_gamma_rule",
    "parse_poly",
    "predicted_clt",
    "run_clt",
    "run_mp_sanity",
]

MEAN_BAND_SIGMAS = 4.0
VARIANCE_BAND = (0.85, 1.15)
MP_RELATIVE_TOL = 0.05
# Each predicted variance reads the semicircle moment of order 2k.
MAX_POLY_DEGREE = EXACT_ORDER_CAP // 2


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
        try:
            return self.coefficient * float(n) ** self.exponent
        except OverflowError:
            raise ValueError(f"gamma rule pow:{self.exponent:g}:{self.coefficient:g} "
                             f"overflows a float at n = {n}") from None


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


def parse_gamma_rule(text: str) -> GammaRule:
    """Parse ``pow:<a>:<c>`` or ``lin:<tau>``."""
    parts = text.split(":")
    if parts[0] == "pow" and len(parts) == 3:
        return PowerLawGamma(float(parts[1]), float(parts[2]))
    if parts[0] == "lin" and len(parts) == 2:
        return LinearGamma(float(parts[1]))
    raise ValueError(f"gamma rule must be 'pow:<a>:<c>' or 'lin:<tau>', got {text!r}")


@dataclass
class ExperimentConfig:
    """Everything a run needs: model knobs, statistic, replication, seed.

    ``b_n`` is run_clt's speed, None for 1 (the CLT); run_mp_sanity refuses one.
    """

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
        _integer(self.replicates, "replicates", 1)
        if self.b_n is not None and not (0.0 < self.b_n < np.inf):
            raise ValueError(f"b_n must be positive and finite, got {self.b_n!r}")

    def ensemble_params(self) -> EnsembleParams:
        gamma = self.gamma_rule.gamma_at(self.n, self.beta / 2.0)
        return EnsembleParams(self.n, self.beta, gamma, self.mode)


@dataclass
class ExperimentReport:
    """Monte Carlo summary with predictions, sample statistics, and verdict.

    standard_error_mean is sqrt(sample_variance / replicates); each
    runner's docstring states its verdict rule. The runners keep each
    replicate's statistic in ``samples``.
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
    samples: np.ndarray | None = field(default=None, repr=False)


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# One term: [sign] [number ['*']] ['x' ['^' number]], with whitespace around any part.
# ASCII only: in a str pattern \d and \s would match every Unicode digit and space.
_TERM = re.compile(
    rf"\s*([+-]?)\s*(?:({_NUMBER})\s*(\*?))?\s*(?:(x)\s*(?:\^\s*({_NUMBER}))?)?\s*", re.ASCII)


def parse_poly(text: str) -> np.ndarray:
    """Parse a monomial-sum polynomial like ``x^3`` or ``1+2x-0.5x^2``.

    Returns coefficients low to high. Terms are read left to right; every
    term after the first needs a sign, and repeated powers add up. A power
    above MAX_POLY_DEGREE or one that is not an integer is rejected as its
    term is read, and a coefficient that is not finite once the terms are
    summed; all of these before any array is built.
    """
    terms = {}
    pos = 0
    while pos < len(text) or not terms:
        match = _TERM.match(text, pos)
        sign, number, star, x, exponent = match.groups()
        if (terms and not sign) or (number is None and x is None) or (star and x is None):
            raise ValueError(f"could not parse polynomial {text!r} at position {pos}")
        power = 0 if x is None else 1
        if exponent is not None:
            exponent = float(exponent)
            if exponent > MAX_POLY_DEGREE:
                raise ValueError(
                    f"polynomial {text!r} has degree {exponent:g}, "
                    f"above the cap {MAX_POLY_DEGREE}"
                )
            if exponent != int(exponent):
                raise ValueError(
                    f"could not parse polynomial {text!r}: exponent must be "
                    "a nonnegative integer"
                )
            power = int(exponent)
        coeff = 1.0 if number is None else float(number)
        terms[power] = terms.get(power, 0.0) + (-coeff if sign == "-" else coeff)
        pos = match.end()
    if not all(math.isfinite(coeff) for coeff in terms.values()):
        raise ValueError(f"polynomial {text!r} has a coefficient that is not finite")
    out = np.zeros(max(terms) + 1)
    for power, coeff in terms.items():
        out[power] = coeff
    return out


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
    Both via exact reference moments; degree capped at MAX_POLY_DEGREE to
    stay inside the exact-moment range. ``poly`` is a 1-D coefficient array.
    """
    poly = np.asarray(poly, dtype=np.float64)
    if poly.ndim != 1:
        raise ValueError(f"polynomial must be a 1-D coefficient array, low to high (x^k is "
                         f"k zeros, then 1), got shape {poly.shape}")
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


def _check_runnable(config: ExperimentConfig, name: str, *, centered: bool) -> None:
    """Refuse too few replicates for a verdict, or a centering mode that ``centered`` rules out."""
    if config.replicates < 100:
        raise ValueError(f"statistical verdicts need >= 100 replicates, got {config.replicates}")
    if (config.mode is not RescalingMode.NONE) != centered:
        raise ValueError(f"{name} needs a centering mode" if centered
                         else f"{name} runs on the uncentered matrix")


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
    scale: float | None = None,
) -> ExperimentReport:
    """Draw every replicate, evaluate its statistic, summarize and judge.

    Replicate i reads the leading w x w window of the model, w = min(order
    + 1, n), of sample_laguerre_tridiagonal(make_rng(derive_seed(master_seed,
    i)), params), as ensembles.replicate_windows yields it: centered by
    ``params.mode``, or multiplied by ``scale`` when one is given.
    ``statistic`` maps the moments m_1..m_order (one row per replicate) to
    one value per replicate. ``verdict`` receives the sample mean, variance
    and standard error. Raises ValueError when the replicates' statistics
    cannot be held in memory, and NumericalError naming the first replicate
    whose window is not valid Jacobi data.
    """
    try:
        samples = np.empty(config.replicates)
    except MemoryError:
        raise ValueError(
            f"{config.replicates} replicates need {config.replicates * 8:.3g} bytes "
            "for their statistics, more than can be allocated"
        ) from None
    window = min(order + 1, params.n)
    for rows, diag, offdiag in replicate_windows(
        config.master_seed, config.replicates, params, window, scale
    ):
        samples[rows.start : rows.stop] = statistic(_window_moments(diag, offdiag, order))

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
        samples=samples,
    )


def run_clt(config: ExperimentConfig) -> ExperimentReport:
    """Central-limit or moderate-deviation check for a polynomial statistic.

    At speed b = ``config.b_n`` (None for 1, the CLT) the statistic is
    sqrt(n beta' / b) (int p dmu_n - int p dmu_sc). The predicted mean uses
    the corrective measure (shifted variant in shifted mode) at n beta' /
    sqrt(b gamma_n): the finite-n zeta_n when b = 1, and xi_n = zeta_n /
    sqrt(b_n) otherwise. The predicted variance is the semicircle variance
    of p divided by b. Verdict: mean within 4 standard errors and variance
    ratio within [0.85, 1.15]. A run whose sqrt(n beta' / b), xi_n or
    predicted variance is not finite (a subnormal b_n, or a huge
    coefficient) is refused with a ValueError before any replicate.
    """
    _check_runnable(config, "CLT experiments", centered=True)
    poly = np.asarray(config.statistic, dtype=np.float64)
    params = config.ensemble_params()
    speed = 1.0 if config.b_n is None else config.b_n
    predicted_var = np.inf  # until predicted_clt runs on a finite xi_n
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        zeta_n = config.n * params.beta_prime / np.sqrt(speed * params.gamma)
        prefactor = np.sqrt(config.n * params.beta_prime / speed)
        if np.isfinite(zeta_n):
            predicted_mean, predicted_var = predicted_clt(poly, zeta_n,
                                                          NuVariant(config.mode.value))
            predicted_var /= speed
    if not (np.isfinite(zeta_n) and np.isfinite(prefactor) and np.isfinite(predicted_var)):
        raise ValueError(f"{format_poly(poly)} at b_n = {speed!r}: sqrt(n beta'/b_n), xi_n "
                         "or the predicted variance is not finite")

    degree = poly.size - 1
    tail = poly[1:]
    msc = semicircle_moments(max(degree, 1)).astype(np.float64)

    def statistic(m: np.ndarray) -> np.ndarray:
        if degree < 1:  # a constant polynomial's statistic is identically 0
            return np.zeros(len(m))
        # vecdot's loop makes one BLAS ddot per replicate, as np.dot does; a
        # matrix product may sum in another order and change the last bits
        # of the reports.
        return prefactor * np.vecdot(m - msc, tail)

    def verdict(mean: float, var: float, se: float) -> bool:
        if predicted_var > 0.0:
            ratio = var / predicted_var
            return (
                abs(mean - predicted_mean) < MEAN_BAND_SIGMAS * se
                and VARIANCE_BAND[0] <= ratio <= VARIANCE_BAND[1]
            )
        return mean == predicted_mean and var == 0.0

    return _run(
        config, params, label=format_poly(poly), zeta_or_xi=zeta_n,
        predicted_mean=predicted_mean, predicted_variance=predicted_var,
        order=max(degree, 1), statistic=statistic, verdict=verdict,
    )


def run_mp_sanity(config: ExperimentConfig) -> ExperimentReport:
    """Law-of-large-numbers check against the Marchenko-Pastur moments.

    Needs the linear gamma rule, no centering and no b_n; the sampled
    matrix is divided by 2*gamma_n, the normalization under which the
    spectral measure converges to MP(tau). Verdict: replicate-average
    moment within 5 percent relative of the closed-form moment, k <= 4.
    """
    _check_runnable(config, "MP sanity", centered=False)
    if config.b_n is not None:
        raise ValueError("MP sanity takes no speed b_n")
    if not isinstance(config.gamma_rule, LinearGamma):
        raise ValueError("MP sanity needs the linear gamma rule")
    k = _integer(_integer(config.statistic, "statistic"), "moment index", 1, 4)
    tau = config.gamma_rule.tau
    params = config.ensemble_params()
    predicted_mean = float(mp_moments(k, tau)[k - 1])
    return _run(
        config, params, label=f"m{k}", zeta_or_xi=tau,
        predicted_mean=predicted_mean, predicted_variance=float("nan"),
        order=k, statistic=lambda m: m[:, k - 1],
        verdict=lambda mean, var, se: abs(mean / predicted_mean - 1.0) <= MP_RELATIVE_TOL,
        scale=1.0 / (2.0 * params.gamma),
    )
