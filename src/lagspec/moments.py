"""Reference moments, the corrective signed measures, and the D matrix.

Moment sequences are plain 1-D arrays indexed from order 1: entry ``i``
holds m_{i+1}. Total mass (m_0) is never stored, which keeps zero-mass
signed measures and probability measures from being conflated; a reader
that needs it supplies it (the semicircle covariance puts m_0 = 1).

Everything combinatorial here (Catalan/central-binomial moments, the
lower-triangular D matrix, the orthonormal-polynomial coefficients of the
semicircle law) is exact in 64-bit integers up to order 40; beyond that the
exact-identity guarantees would silently degrade, so higher orders are
rejected.

Importing this module loads no numpy. Everything is computed in Python
ints and floats by private helpers that return lists, and dot products by
``_dot``; the public functions hand exact sequences, D and the forward
substitution by D back as numpy arrays, importing numpy when called. The
quadrature rules and the quadrature twin of the nu moments are list
helpers only. The ``moments`` command, the ``identities`` command's checks
(:func:`_identity_checks`) and the rate functions read the lists, so they
run without numpy.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING

from .errors import _choice, _integer, _real

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NuVariant",
    "arcsine_moments",
    "d_inverse_apply",
    "d_matrix",
    "dw_vector",
    "mp_moments",
    "nu_density",
    "nu_moments",
    "semicircle_moments",
    "semicircle_orthonormal_poly",
]

# Largest order with exact 64-bit integer binomials for every identity here.
EXACT_ORDER_CAP = 40

# Chebyshev nodes of the quadrature twin of the nu moments, and its
# tolerance against the closed form in _identity_checks.
_NU_QUADRATURE_NODES = 64
_NU_QUAD_TOL = 1e-8


class NuVariant(enum.Enum):
    """Which corrective signed measure: the standard or the shifted one."""

    STANDARD = "standard"
    SHIFTED = "shifted"


def _check_order(order: int) -> int:
    """``order`` as an int; ValueError unless 1 <= order <= EXACT_ORDER_CAP."""
    value = _integer(order, "order", 1)
    if value > EXACT_ORDER_CAP:
        raise ValueError(
            f"order {order} above the 64-bit-exact cap {EXACT_ORDER_CAP}; "
            "exact integer identities would overflow"
        )
    return value


def _check_nu(xi, variant) -> float:
    _choice(variant, NuVariant, "variant")
    return _real(xi, "xi", 0, strict=False)


def _binom(n: int, k: int) -> int:
    # math.comb with the C(n, -1) = 0 convention used by the D matrix.
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _dot(a, b):
    """Sum of paired products, left to right from the int 0: exact for ints.

    Not the built-in ``sum``, which compensates float sums from Python 3.12 on.
    """
    acc = 0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _semicircle(order: int) -> list:
    """m_1..m_order of the semicircle law as ints (see semicircle_moments)."""
    order = _check_order(order)
    return [0 if k % 2 else _binom(k, k // 2) // (k // 2 + 1) for k in range(1, order + 1)]


def semicircle_moments(order: int) -> np.ndarray:
    """m_1..m_order of the semicircle law: zero odd, Catalan even."""
    import numpy as np

    return np.array(_semicircle(order), dtype=np.int64)


def _semicircle_cov(d: int) -> list:
    """The semicircle covariance of x^i and x^j, i, j = 1..d, as ints: m_{i+j} - m_i m_j."""
    m = [1] + _semicircle(max(2 * d, 1))
    return [[m[i + j] - m[i] * m[j] for j in range(1, d + 1)] for i in range(1, d + 1)]


def _arcsine(order: int) -> list:
    """m_1..m_order of the arcsine law as ints (see arcsine_moments)."""
    order = _check_order(order)
    return [0 if k % 2 else _binom(k, k // 2) for k in range(1, order + 1)]


def arcsine_moments(order: int) -> np.ndarray:
    """m_1..m_order of the arcsine law on [-2, 2]: zero odd, C(2k, k) even."""
    import numpy as np

    return np.array(_arcsine(order), dtype=np.int64)


def _mp(order: int, tau: float) -> list:
    """m_1..m_order of the Marchenko-Pastur law as floats (see mp_moments)."""
    tau = _real(tau, "tau", 0, 1)
    order = _check_order(order)
    out = []
    for k in range(1, order + 1):
        value = 0.0
        for j in range(k, 0, -1):
            value = value * tau + math.comb(k, j) * math.comb(k, j - 1) // k
        out.append(value)
    return out


def mp_moments(order: int, tau: float) -> np.ndarray:
    """m_1..m_order of the Marchenko-Pastur law with ratio tau.

    The law has density sqrt((tau_plus - x)(x - tau_minus)) / (2 pi tau x)
    on [tau_minus, tau_plus] with tau_pm = (1 +- sqrt(tau))^2. Its moments
    are the Narayana polynomials
    m_k = sum_{j=1..k} C(k, j) C(k, j-1) / k * tau^(j-1), whose integer
    coefficients are exact; the sum is evaluated by Horner's rule.
    """
    import numpy as np

    return np.array(_mp(order, tau), dtype=np.float64)


def _nu(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> list:
    """Moments of the corrective signed measure as floats (see nu_moments)."""
    order = _check_order(order)
    xi = _check_nu(xi, variant)
    out = [0.0] * order
    for k in range(1, order + 1, 2):
        coeff = _binom(k, (k - 3) // 2)
        if variant is NuVariant.SHIFTED:
            coeff -= _binom(k, (k - 1) // 2)
        out[k - 1] = float(xi * coeff)
    return out


def nu_moments(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> np.ndarray:
    """Moments of the corrective signed measure with parameter xi >= 0.

    Standard: m_k = xi * C(k, (k-3)/2) for odd k, zero for even k; the
    C(k, -1) = 0 convention makes m_1 vanish. Shifted:
    m_k = xi * [C(k, (k-3)/2) - C(k, (k-1)/2)] for odd k, which gives
    m_1 = -xi (the first moment the extra n*beta centering removes), as
    the density and the telescoping D-matrix identity both require.
    """
    import numpy as np

    return np.array(_nu(order, xi, variant), dtype=np.float64)


def _nu_density_at(x: float, xi: float, variant: NuVariant) -> float:
    """nu_density at one point inside its support."""
    if variant is NuVariant.STANDARD:
        return (xi / (2.0 * math.pi)) * x * (x * x - 3.0) / math.sqrt(4.0 - x * x)
    return -(xi / (2.0 * math.pi)) * x * math.sqrt(4.0 - x * x)


def nu_density(x, xi: float, variant: NuVariant = NuVariant.STANDARD):
    """Signed Lebesgue density of the corrective measure at ``x``.

    Standard: (xi / 2 pi) x (x^2 - 3) / sqrt(4 - x^2) on (-2, 2); the
    endpoints are poles and raise. Shifted: -(xi / 2 pi) x sqrt(4 - x^2)
    on [-2, 2]. Both vanish outside [-2, 2].
    """
    import numpy as np

    xi = _check_nu(xi, variant)
    arr = np.asarray(x, dtype=np.float64)
    if variant is NuVariant.STANDARD:
        if np.any(np.abs(arr) == 2.0):
            raise ValueError("density has a singularity at |x| = 2; "
                             "use endpoint-avoiding nodes")
        inside = np.abs(arr) < 2.0
    else:
        inside = np.abs(arr) <= 2.0
    out = np.zeros_like(arr)
    out[inside] = [_nu_density_at(v, xi, variant) for v in arr[inside].tolist()]
    return out if out.ndim else float(out)


@functools.cache
def _chebyshev_lebesgue(n_nodes: int) -> tuple:
    """Nodes and weights (two tuples) integrating dx on (-2, 2) through a 1/sqrt(4-x^2) lens.

    First-kind Chebyshev nodes x_j = 2 cos((2j-1) pi / 2N), weights
    (pi/N) sqrt(4 - x_j^2): exact for p(x) / sqrt(4 - x^2) with p of degree
    < 2N; the nodes avoid the endpoints, absorbing inverse-square-root
    singularities there. Built once per node count, as tuples that no caller can change.
    """
    n_nodes = _integer(n_nodes, "n_nodes", 1)
    x = tuple(2.0 * math.cos((2 * j - 1) * math.pi / (2 * n_nodes))
              for j in range(1, n_nodes + 1))
    return x, tuple((math.pi / n_nodes) * math.sqrt(4.0 - v * v) for v in x)


def _semicircle_gauss(n_nodes: int) -> tuple:
    """Gauss nodes and weights for integration against the semicircle law.

    Second-kind Chebyshev rule, as two lists of floats:
    x_j = 2 cos(j pi / (N+1)), weights (2/(N+1)) sin^2(j pi/(N+1)); exact
    for polynomials of degree < 2N.
    """
    n_nodes = _integer(n_nodes, "n_nodes", 1)
    theta = [j * math.pi / (n_nodes + 1) for j in range(1, n_nodes + 1)]
    sines = [math.sin(t) for t in theta]
    return [2.0 * math.cos(t) for t in theta], [(2.0 / (n_nodes + 1)) * (s * s) for s in sines]


def _nu_by_quadrature(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> list:
    """Quadrature twin of :func:`nu_moments`: integrate x^k against the density.

    The endpoint-avoiding Chebyshev rule on 64 nodes (exact to degree 127
    against 1/sqrt(4 - x^2)) integrates the standard variant's poles at +-2
    as written. Each moment is xi times the correctly rounded sum
    (``math.fsum``) of the rule's terms at xi = 1.
    """
    order = _check_order(order)
    xi = _check_nu(xi, variant)
    x, w = _chebyshev_lebesgue(_NU_QUADRATURE_NODES)
    # The density is linear in xi: the terms are those of xi = 1, so no
    # term overflows, and each correctly rounded sum is scaled by xi.
    weighted = [wj * _nu_density_at(xj, 1.0, variant) for xj, wj in zip(x, w)]
    power = [1.0] * len(x)
    out = []
    for _ in range(order):
        power = [p * xj for p, xj in zip(power, x)]
        out.append(xi * math.fsum([f * p for f, p in zip(weighted, power)]))
    return out


def _d_rows(order: int) -> list:
    """The rows of d_matrix(order) as lists of ints."""
    order = _check_order(order)
    return [
        [_binom(i, (i - j) // 2) - _binom(i, (i - j) // 2 - 1) if j <= i and (i + j) % 2 == 0
         else 0 for j in range(1, order + 1)]
        for i in range(1, order + 1)
    ]


def d_matrix(order: int) -> np.ndarray:
    """Lower-triangular integer matrix D with unit diagonal.

    D[i, j] = C(i, (i-j)/2) - C(i, (i-j)/2 - 1) for i >= j with i + j even
    (1-based), zero otherwise. This is the Jacobian of the
    coefficients-to-moments map at the free Jacobi point; its inverse rows
    carry orthonormal-polynomial coefficients.
    """
    import numpy as np

    return np.array(_d_rows(order), dtype=np.int64)


def _d_inverse(order: int, v: list) -> list:
    """d_inverse_apply on a list of floats; each row's products are summed by _dot."""
    order = _check_order(order)
    if len(v) != order:
        raise ValueError(f"vector length {len(v)} does not match order {order}")
    x = []
    for row, vi in zip(_d_rows(order), v):
        x.append(vi - _dot(row, x))
    return x


def d_inverse_apply(order: int, v: np.ndarray) -> np.ndarray:
    """Solve D_order x = v by forward substitution (unit lower triangular)."""
    import numpy as np

    v = np.asarray(v, dtype=np.float64).reshape(-1)
    return np.array(_d_inverse(order, v.tolist()), dtype=np.float64)


def _orthonormal_poly(k: int) -> list:
    """semicircle_orthonormal_poly(k) as a list of ints."""
    degree = _integer(k, "k", 0)
    if degree > EXACT_ORDER_CAP:
        raise ValueError(f"k {k} above the 64-bit-exact cap {EXACT_ORDER_CAP}")
    prev, cur = [], [1]
    for _ in range(degree):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def semicircle_orthonormal_poly(k: int) -> np.ndarray:
    """Monomial coefficients (low to high) of the k-th orthonormal polynomial.

    p_0 = 1, p_1 = x, p_{k+1} = x p_k - p_{k-1}: the recursion of the free
    Jacobi matrix, i.e. Chebyshev-U at x/2. Integer coefficients, exact up
    to the order cap.
    """
    import numpy as np

    return np.array(_orthonormal_poly(k), dtype=np.int64)


def _dw(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> list:
    """dw_vector as a list of floats."""
    order = _check_order(order)
    xi = _check_nu(xi, variant)
    if variant is NuVariant.STANDARD:
        return [xi if k >= 3 and k % 2 else 0.0 for k in range(1, order + 1)]
    return [-xi] + [0.0] * (order - 1)


def dw_vector(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> np.ndarray:
    """The weight vector w with D w = nu-moments.

    Standard: (0, 0, xi, 0, xi, 0, xi, ...). Shifted: (-xi, 0, 0, ...).
    """
    import numpy as np

    return np.array(_dw(order, xi, variant), dtype=np.float64)


def _identity_checks(order: int) -> list:
    """The exact and quadrature cross-identities, as (name, passed) pairs.

    The exact checks run on Python ints, so no product can wrap.
    """
    if order > EXACT_ORDER_CAP // 2:
        raise ValueError(f"identities --order is capped at {EXACT_ORDER_CAP // 2}: the "
                         "covariance check reads semicircle moments up to order 2*order, "
                         f"capped at {EXACT_ORDER_CAP}")
    checks = []

    d = _d_rows(order)
    ddt = [[_dot(row_i, row_j) for row_j in d] for row_i in d]
    checks.append((f"ddt_covariance_order{order}", ddt == _semicircle_cov(order)))

    d15 = _d_rows(15)
    for variant, tag in ((NuVariant.STANDARD, "nu"), (NuVariant.SHIFTED, "nu_hat")):
        w = _dw(15, 1.0, variant)
        ok = [_dot(row, w) for row in d15] == _nu(15, 1.0, variant)
        checks.append((f"dw_telescoping_{tag}_order15", ok))

    # Row i of P holds p_i's coefficients of x^1..x^i. D is unit lower
    # triangular, so the exact integer product P D = I holds iff P = D^-1.
    p = [_orthonormal_poly(i)[1:] + [0] * (20 - i) for i in range(1, 21)]
    d20_columns = list(zip(*_d_rows(20)))
    pd = [[_dot(row, column) for column in d20_columns] for row in p]
    checks.append(("dinv_rows_polynomials_order20",
                   pd == [[int(i == j) for j in range(20)] for i in range(20)]))

    for variant, tag in ((NuVariant.STANDARD, "nu"), (NuVariant.SHIFTED, "nu_hat")):
        ok = all(abs(closed - quad) <= _NU_QUAD_TOL for closed, quad in
                 zip(_nu(15, 1.0, variant), _nu_by_quadrature(15, 1.0, variant)))
        checks.append((f"nu_moment_quadrature_{tag}_order15", ok))
    return checks
