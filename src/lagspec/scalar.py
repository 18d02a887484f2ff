"""The Laguerre model on Python numbers: parameters, seeds, small draws and their spectra.

This module loads neither numpy nor ``dataclasses``, which would load
``inspect`` too and slow the start-up of ``lagspec sample``. It holds the
ensemble's parameters (:class:`EnsembleParams`, a plain frozen class, and
:class:`RescalingMode`), the seed map :func:`derive_seed`, the checks of
Jacobi data and of spectral measures with their messages, and the two
stages of a ``lagspec sample`` draw:

- :func:`_draw`, the chi-squares of :mod:`lagspec.ensembles`' gamma sampler
  evaluated one entry at a time by :func:`_gamma`. It reads the same
  counter streams and runs the same operations in the same order as the
  vectorized ``_standard_gamma``, so it gives the same model bit for bit;
  only an acceptance decision within about 1e-10 of its boundary, where
  ``math.log`` and numpy's ``log`` round apart, could differ.
- :func:`_ql_spectrum`, the spectral measure of a model of at most
  ``_SCALAR_ROWS`` = 64 rows (eigenvalues, and the squared first
  components of the eigenvectors, after Golub & Welsch, Math. Comp. 23,
  1969) by the implicit QL method with Wilkinson's shift. It applies each
  rotation to the first row of the eigenvector matrix alone.

``lagspec sample`` draws through :func:`_rescaled_model` at every size and
diagonalizes with :func:`_ql_spectrum` up to 64 rows, never importing
numpy there; a larger measure comes from :func:`lagspec.spectral.eigen_spectral`.
:func:`_check_measure` is :class:`lagspec.spectral.SpectralMeasure`'s
check itself. The library draws with the vectorized sampler and
diagonalizes with numpy's LAPACK (see :mod:`lagspec.spectral`).
"""

from __future__ import annotations

import enum
import math
import operator

from .errors import NumericalError, _choice, _Frozen, _fsum, _integer, _real

__all__ = ["EnsembleParams", "RescalingMode", "derive_seed"]

# ``lagspec sample`` diagonalizes models of at most this many rows here,
# larger ones through numpy; the QL's cost grows as n^2 and stays below
# that of importing numpy up to this size.
_SCALAR_ROWS = 64

_MASK64 = (1 << 64) - 1

# splitmix64 (derive_seed): the golden-gamma step and the finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_SPLITMIX_A = 0xBF58476D1CE4E5B9
_SPLITMIX_B = 0x94D049BB133111EB

# The width of the ratio-of-uniforms box for V (see _gamma), Leva's 1.7156
# just above 2 sqrt(2/e).
_BOX_V = 1.7156

# Marsaglia & Tsang's test reads d (1 - W + ln W). ``log`` puts an error of
# up to an ulp of ln W into it, which d (up to about 1e308) magnifies, and
# numpy's ``log`` and the C library's round apart on some W; so from
# d = 2^30 on, 1 - W + ln W is the series in t = W - 1 through t^6
# (_log_series). There an accepted normal has |X| <= 2 sqrt(53 ln 2) < 12.2,
# so |t| < 3.8e-4, where those terms give it to double precision; below,
# the error that d magnifies stays under about 1e-10.
_SERIES_D = 2.0**30
_LOG_SERIES = (-1 / 2, 1 / 3, -1 / 4, 1 / 5, -1 / 6)  # coefficients of t^2 .. t^6

# QL iterations allowed per eigenvalue before NumericalError, as in EISPACK's imtql2.
_QL_ITERATIONS = 30

# The messages of JacobiCoefficients and of the eigensolvers, shared with them.
_NOT_FINITE = "coefficients must be finite"
_NOT_POSITIVE = "off-diagonal entries must be strictly positive"
_EIGENSOLVER_FAILED = "tridiagonal eigensolver failed for matrix of size {n}: {reason}"
_WEIGHT_SUM_TOL = 1e-10


class RescalingMode(enum.Enum):
    """Eigenvalue centering: by 2*gamma, by 2*gamma + n*beta, or none."""

    STANDARD = "standard"
    SHIFTED = "shifted"
    NONE = "none"


class EnsembleParams(_Frozen):
    """Size n, inverse temperature beta, parameter gamma, and centering mode.

    gamma must exceed (n-1)*beta/2, otherwise the eigenvalue density (and
    every chi-square degree of freedom in the tridiagonal model) would be
    ill-defined; violations are rejected here rather than clamped. A gamma
    whose centering scale 2*gamma*n*beta overflows a float is rejected too.
    n may be any integer type, numpy's included; beta and gamma become floats.

    Instances are frozen values over the four fields (see ``errors._Frozen``).
    """

    _FIELDS = ("n", "beta", "gamma", "mode")

    def __init__(self, n: int, beta: float, gamma: float,
                 mode: RescalingMode = RescalingMode.STANDARD):
        rows = _integer(n, "n", 1)
        b, g = _real(beta, "beta", 0), _real(gamma, "gamma")
        if not g > (rows - 1) * b / 2.0:
            raise ValueError(f"gamma must exceed (n-1)*beta/2 = {(rows - 1) * b / 2.0}, "
                             f"got {gamma!r}")
        if not math.isfinite(2.0 * g * rows * b):
            raise ValueError(f"gamma = {gamma!r} is too large at n = {n}, beta = {beta!r}: "
                             "the centering scale 2*gamma*n*beta overflows a float")
        vars(self).update(n=n, beta=b, gamma=g, mode=_choice(mode, RescalingMode, "mode"))

    @property
    def beta_prime(self) -> float:
        return self.beta / 2.0


def _splitmix(x: int) -> int:
    """splitmix64's finalizer of x modulo 2**64, each product taken modulo 2**64."""
    x &= _MASK64
    x ^= x >> 30
    x = x * _SPLITMIX_A & _MASK64
    x ^= x >> 27
    x = x * _SPLITMIX_B & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit child seed for replicate ``index``.

    A splitmix64 finalizer applied to master_seed + (index+1)*golden-gamma;
    distinct indices give decorrelated streams, and the map is a pure
    function of its integer arguments (Python or numpy integers; a float
    raises ValueError), so replication stays reproducible.
    """
    index = _integer(index, "index", 0)
    return _splitmix(_integer(master_seed, "seed") + (index + 1) * _GOLDEN)


def _uniform(x: int) -> float:
    """The raw word splitmix64(x) as a uniform in (0, 1]: its top 53 bits plus one, times 2**-53."""
    return ((_splitmix(x) >> 11) + 1.0) * 2.0**-53


def _log_series(t):
    """1 - w + ln w at w = 1 + t, by its series; ``t`` a float or a numpy array, |t| < 3.8e-4."""
    acc = _LOG_SERIES[-1]
    for coeff in _LOG_SERIES[-2::-1]:
        acc = acc * t + coeff
    return acc * (t * t)


def _gamma(key: int, j: int, shape: float) -> float:
    """Entry j of ``ensembles._standard_gamma``'s row for ``key``, at ``shape``.

    Stream j starts at S = derive_seed(key, j), and attempt t reads U1 ..
    U4 from derive_seed(S, 4t) .. derive_seed(S, 4t + 3). The tests and the
    value are ``_standard_gamma``'s, written for one entry; a word that a
    rejected attempt does not need is not computed.
    """
    small = shape < 1.0
    d = shape + 2.0 / 3.0 if small else shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    # numpy's 1/0 is inf, and U4^inf is 0 (or 1 for U4 = 1): a shape that
    # underflowed to 0 draws 0.
    power = (1.0 / shape if shape else math.inf) if small else None
    series = d >= _SERIES_D
    base = _splitmix(key + (j + 1) * _GOLDEN)
    while True:
        u1 = _uniform(base + _GOLDEN)
        v = _BOX_V * (_uniform(base + 2 * _GOLDEN) - 0.5)
        if v * v <= -4.0 * u1 * u1 * math.log(u1):
            x = v / u1
            w = 1.0 + c * x
            if w > 0.0:
                w = w * w * w
                # A cube that underflows to 0 is rejected, as numpy's log(0) = -inf rejects it.
                if w > 0.0 and (math.log(_uniform(base + 3 * _GOLDEN))
                                < 0.5 * (x * x) + d * (_log_series(w - 1.0) if series
                                                       else 1.0 - w + math.log(w))):
                    value = d * w
                    if small:
                        value *= math.pow(_uniform(base + 4 * _GOLDEN), power)
                    return value
        base += 4 * _GOLDEN


def _draw(key: int, params: EnsembleParams) -> tuple[list, list]:
    """Raw diagonal and off-diagonal of the model drawn from ``key``, as lists.

    The chi-squares z_1 .. z_{2n-1} are twice :func:`_gamma`'s draws at
    half their degrees of freedom; the entries are formed as
    ``ensembles._window`` forms them.
    """
    key, n, gamma, bp = int(key), int(params.n), params.gamma, params.beta_prime
    z = []
    for k in range(1, 2 * n):
        dof = 2.0 * gamma - bp * (k - 1.0) if k % 2 else bp * (2.0 * n - k)
        z.append(2.0 * _gamma(key, k - 1, dof / 2.0))
    odd, even = z[0::2], z[1::2]
    diag = odd[:1] + [a + b for a, b in zip(odd[1:], even)]
    return diag, [math.sqrt(a) * math.sqrt(b) for a, b in zip(odd, even)]


def _centering(params: EnsembleParams) -> tuple[float, float]:
    """Shift and scale of the standard or shifted centering: 2*gamma (+ n*beta), sqrt(2*gamma*n*beta)."""
    shift = 2.0 * params.gamma
    if params.mode is RescalingMode.SHIFTED:
        shift += params.n * params.beta
    return shift, math.sqrt(2.0 * params.gamma * params.n * params.beta)


def _check(diag: list, offdiag: list) -> None:
    """Raise ValueError, as ``JacobiCoefficients`` does, unless the lists are Jacobi data."""
    if not all(map(math.isfinite, diag)) or not all(map(math.isfinite, offdiag)):
        raise ValueError(_NOT_FINITE)
    if not all(c > 0.0 for c in offdiag):
        raise ValueError(_NOT_POSITIVE)


def _check_measure(atoms: list, weights: list) -> None:
    """Raise ValueError unless the lists, of equal length, are a spectral measure.

    This is ``SpectralMeasure``'s check: at least one atom, the atoms
    finite and strictly increasing (the eigensolvers :func:`_merge`
    eigenvalues that round to one float), the weights strictly positive
    and summing to 1 within ``_WEIGHT_SUM_TOL``. The sum is
    ``errors._fsum``'s: that is ``math.fsum``'s, correctly rounded.
    """
    if not atoms:
        raise ValueError("measure must have at least one atom")
    if not all(map(math.isfinite, atoms)):
        raise ValueError("atoms must be finite")
    if not all(map(operator.lt, atoms, atoms[1:])):
        raise ValueError("atoms must be strictly increasing")
    if not all(w > 0.0 for w in weights):
        raise ValueError("weights must be strictly positive")
    total = _fsum(weights)  # inf where finite positive weights overflow the double range
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")


def _merge(pairs) -> tuple[list, list]:
    """Ascending (atom, weight) pairs as lists: drop weight 0, merge equal atoms, summing weights."""
    merged = {}
    for atom, weight in pairs:
        if weight > 0.0:
            merged[atom] = merged.get(atom, 0.0) + weight
    return list(merged), list(merged.values())


def _rescaled_model(key: int, params: EnsembleParams) -> tuple[list, list]:
    """``rescale(sample_laguerre_tridiagonal(...), params)`` for the key, as two lists.

    The raw and the centered coefficients are checked as the library checks
    them, with the same errors.
    """
    diag, offdiag = _draw(key, params)
    _check(diag, offdiag)
    if params.mode is RescalingMode.NONE:
        return diag, offdiag
    shift, scale = _centering(params)
    if scale == 0.0:
        # numpy's x / 0 is inf or nan.
        raise ValueError(_NOT_FINITE)
    diag = [(d - shift) / scale for d in diag]
    offdiag = [c / scale for c in offdiag]
    _check(diag, offdiag)
    return diag, offdiag


def _ql_spectrum(diag: list, offdiag: list) -> tuple[list, list]:
    """Ascending eigenvalues and squared first eigenvector components of J.

    ``diag`` and ``offdiag`` are finite Jacobi data. J is scaled by 2^-k,
    so that every entry is below 1 in magnitude, and reduced by EISPACK's
    implicit QL (imtql2) with Wilkinson's shift, splitting where an
    off-diagonal entry is negligible beside its two diagonal neighbours.
    Each rotation updates the first row of the eigenvector matrix only.
    Eigenvalues of weight 0 are dropped and equal ones merged (:func:`_merge`). Raises
    NumericalError if an eigenvalue takes more than 30 iterations, and
    ValueError where ``SpectralMeasure`` would refuse the result (see
    :func:`_check_measure`).
    """
    n = len(diag)
    k = math.frexp(max(max(map(abs, diag)), max(offdiag, default=0.0)))[1]
    d = [math.ldexp(v, -k) for v in diag]
    e = [math.ldexp(v, -k) for v in offdiag] + [0.0]
    z = [1.0] + [0.0] * (n - 1)
    for lo in range(n):
        for iteration in range(_QL_ITERATIONS + 1):
            m = lo
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == lo:
                break
            if iteration == _QL_ITERATIONS:
                raise NumericalError(_EIGENSOLVER_FAILED.format(n=n, reason=(
                    f"an eigenvalue did not converge in {_QL_ITERATIONS} QL iterations")))
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # The rotation underflowed: the block has split at i.
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
    atoms, weights = _merge(sorted((math.ldexp(lam, k), x * x) for lam, x in zip(d, z)))
    _check_measure(atoms, weights)
    return atoms, weights
