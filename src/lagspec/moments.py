"""Reference moments, the corrective signed measures, and the D matrix.

Moment sequences are plain 1-D arrays indexed from order 1: entry ``i``
holds m_{i+1}. Total mass (m_0) is never stored; integration sites take it
as an explicit argument, which keeps zero-mass signed measures and
probability measures from being conflated.

Everything combinatorial here (Catalan/central-binomial moments, the
lower-triangular D matrix, the orthonormal-polynomial coefficients of the
semicircle law) is exact in 64-bit integers up to order 40; beyond that the
exact-identity guarantees would silently degrade, so higher orders are
rejected.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "NuVariant",
    "EXACT_ORDER_CAP",
    "arcsine_moments",
    "chebyshev_lebesgue_rule",
    "d_inverse_apply",
    "d_matrix",
    "dw_vector",
    "integrate_poly_against_moments",
    "mp_moments",
    "nu_density",
    "nu_moments",
    "nu_moments_by_quadrature",
    "semicircle_density",
    "semicircle_moments",
    "semicircle_orthonormal_poly",
    "semicircle_rule",
]

# Largest order with exact 64-bit integer binomials for every identity here.
EXACT_ORDER_CAP = 40

# Chebyshev nodes of the quadrature twin of the nu moments.
_NU_QUADRATURE_NODES = 64


class NuVariant(enum.Enum):
    """Which corrective signed measure: the standard or the shifted one."""

    STANDARD = "standard"
    SHIFTED = "shifted"


def _check_order(order: int) -> int:
    """``order`` as an int; ValueError unless 1 <= order <= EXACT_ORDER_CAP."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if order > EXACT_ORDER_CAP:
        raise ValueError(
            f"order {order} above the 64-bit-exact cap {EXACT_ORDER_CAP}; "
            "exact integer identities would overflow"
        )
    return int(order)


def _check_xi(xi: float) -> None:
    if not (0.0 <= xi < np.inf):
        raise ValueError(f"xi must be finite and >= 0, got {xi!r}")


def _binom(n: int, k: int) -> int:
    # math.comb with the C(n, -1) = 0 convention used by the D matrix.
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def semicircle_density(x):
    """Density sqrt(4 - x^2) / (2 pi) on [-2, 2], zero outside."""
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) <= 2.0
    out = np.zeros_like(x)
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / (2.0 * np.pi)
    return out if out.ndim else float(out)


def semicircle_moments(order: int) -> np.ndarray:
    """m_1..m_order of the semicircle law: zero odd, Catalan even."""
    order = _check_order(order)
    out = np.zeros(order, dtype=np.int64)
    for k in range(2, order + 1, 2):
        half = k // 2
        out[k - 1] = _binom(k, half) // (half + 1)
    return out


def arcsine_moments(order: int) -> np.ndarray:
    """m_1..m_order of the arcsine law on [-2, 2]: zero odd, C(2k, k) even."""
    order = _check_order(order)
    out = np.zeros(order, dtype=np.int64)
    for k in range(2, order + 1, 2):
        out[k - 1] = _binom(k, k // 2)
    return out


def mp_moments(order: int, tau: float) -> np.ndarray:
    """m_1..m_order of the Marchenko-Pastur law with ratio tau.

    The law has density sqrt((tau_plus - x)(x - tau_minus)) / (2 pi tau x)
    on [tau_minus, tau_plus] with tau_pm = (1 +- sqrt(tau))^2. Its moments
    are the Narayana polynomials
    m_k = sum_{j=1..k} C(k, j) C(k, j-1) / k * tau^(j-1), whose integer
    coefficients are exact; the sum is evaluated by Horner's rule.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    order = _check_order(order)
    out = np.empty(order)
    for k in range(1, order + 1):
        value = 0.0
        for j in range(k, 0, -1):
            value = value * tau + math.comb(k, j) * math.comb(k, j - 1) // k
        out[k - 1] = value
    return out


def nu_moments(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> np.ndarray:
    """Moments of the corrective signed measure with parameter xi >= 0.

    Standard: m_k = xi * C(k, (k-3)/2) for odd k, zero for even k; the
    C(k, -1) = 0 convention makes m_1 vanish. Shifted:
    m_k = xi * [C(k, (k-3)/2) - C(k, (k-1)/2)] for odd k, which gives
    m_1 = -xi (the first moment the extra n*beta centering removes), as
    the density and the telescoping D-matrix identity both require.
    """
    order = _check_order(order)
    _check_xi(xi)
    out = np.zeros(order)
    for k in range(1, order + 1, 2):
        coeff = _binom(k, (k - 3) // 2)
        if variant is NuVariant.SHIFTED:
            coeff -= _binom(k, (k - 1) // 2)
        out[k - 1] = xi * coeff
    return out


def nu_density(x, xi: float, variant: NuVariant = NuVariant.STANDARD):
    """Signed Lebesgue density of the corrective measure at ``x``.

    Standard: (xi / 2 pi) x (x^2 - 3) / sqrt(4 - x^2) on (-2, 2); the
    endpoints are poles and raise. Shifted: -(xi / 2 pi) x sqrt(4 - x^2)
    on [-2, 2]. Both vanish outside [-2, 2].
    """
    _check_xi(xi)
    arr = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(arr)
    if variant is NuVariant.STANDARD:
        if np.any(np.abs(arr) == 2.0):
            raise ValueError("density has a singularity at |x| = 2; "
                             "use endpoint-avoiding nodes")
        inside = np.abs(arr) < 2.0
        xi_in = arr[inside]
        out[inside] = (xi / (2.0 * np.pi)) * xi_in * (xi_in**2 - 3.0) / np.sqrt(4.0 - xi_in**2)
    else:
        inside = np.abs(arr) <= 2.0
        xi_in = arr[inside]
        out[inside] = -(xi / (2.0 * np.pi)) * xi_in * np.sqrt(4.0 - xi_in**2)
    return out if out.ndim else float(out)


def chebyshev_lebesgue_rule(n_nodes: int):
    """Nodes and weights integrating dx on (-2, 2) through a 1/sqrt(4-x^2) lens.

    First-kind Chebyshev nodes x_j = 2 cos((2j-1) pi / 2N) with weights
    (pi/N) sqrt(4 - x_j^2): exact for p(x) / sqrt(4 - x^2) with p of degree
    < 2N, and the nodes avoid the endpoints, absorbing inverse-square-root
    singularities there.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    j = np.arange(1, n_nodes + 1)
    theta = (2 * j - 1) * np.pi / (2 * n_nodes)
    x = 2.0 * np.cos(theta)
    w = (np.pi / n_nodes) * np.sqrt(4.0 - x**2)
    return x, w


def semicircle_rule(n_nodes: int):
    """Gauss nodes and weights for integration against the semicircle law.

    Second-kind Chebyshev rule: x_j = 2 cos(j pi / (N+1)), weights
    (2/(N+1)) sin^2(j pi/(N+1)); exact for polynomials of degree < 2N.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    j = np.arange(1, n_nodes + 1)
    theta = j * np.pi / (n_nodes + 1)
    return 2.0 * np.cos(theta), (2.0 / (n_nodes + 1)) * np.sin(theta) ** 2


def nu_moments_by_quadrature(
    order: int, xi: float, variant: NuVariant = NuVariant.STANDARD
) -> np.ndarray:
    """Quadrature twin of :func:`nu_moments`: integrate x^k against the density.

    Uses the endpoint-avoiding Chebyshev rule, so the standard variant's
    poles at +-2 are integrable as written.
    """
    order = _check_order(order)
    x, w = chebyshev_lebesgue_rule(_NU_QUADRATURE_NODES)
    dens = nu_density(x, xi, variant)
    out = np.empty(order)
    power = np.ones_like(x)
    for k in range(order):
        power = power * x
        out[k] = np.sum(w * dens * power)
    return out


def d_matrix(order: int) -> np.ndarray:
    """Lower-triangular integer matrix D with unit diagonal.

    D[i, j] = C(i, (i-j)/2) - C(i, (i-j)/2 - 1) for i >= j with i + j even
    (1-based), zero otherwise. This is the Jacobian of the
    coefficients-to-moments map at the free Jacobi point; its inverse rows
    carry orthonormal-polynomial coefficients.
    """
    order = _check_order(order)
    out = np.zeros((order, order), dtype=np.int64)
    for i in range(1, order + 1):
        for j in range(1, i + 1):
            if (i + j) % 2 == 0:
                half = (i - j) // 2
                out[i - 1, j - 1] = _binom(i, half) - _binom(i, half - 1)
    return out


def d_inverse_apply(order: int, v: np.ndarray) -> np.ndarray:
    """Solve D_order x = v by forward substitution (unit lower triangular)."""
    order = _check_order(order)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != order:
        raise ValueError(f"vector length {v.size} does not match order {order}")
    d = d_matrix(order).astype(np.float64)
    x = v.copy()
    for i in range(1, order):
        x[i] -= d[i, :i] @ x[:i]
    return x


def semicircle_orthonormal_poly(k: int) -> np.ndarray:
    """Monomial coefficients (low to high) of the k-th orthonormal polynomial.

    p_0 = 1, p_1 = x, p_{k+1} = x p_k - p_{k-1}: the recursion of the free
    Jacobi matrix, i.e. Chebyshev-U at x/2. Integer coefficients, exact up
    to the order cap.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if k > EXACT_ORDER_CAP:
        raise ValueError(f"k {k} above the 64-bit-exact cap {EXACT_ORDER_CAP}")
    prev = np.array([1], dtype=np.int64)
    if k == 0:
        return prev
    cur = np.array([0, 1], dtype=np.int64)
    for _ in range(k - 1):
        nxt = np.zeros(cur.size + 1, dtype=np.int64)
        nxt[1:] = cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return cur


def integrate_poly_against_moments(
    poly: np.ndarray, moments: np.ndarray, total_mass: float
) -> float:
    """Integral of a polynomial against a measure known by its moments.

    ``poly`` holds monomial coefficients c_0..c_d (low to high); the result
    is c_0 * total_mass + sum_{j>=1} c_j m_j. The caller must state the
    total mass explicitly (0 for the zero-mass signed measures, 1 for
    probability measures).
    """
    poly = np.asarray(poly, dtype=np.float64).reshape(-1)
    moments = np.asarray(moments, dtype=np.float64).reshape(-1)
    degree = poly.size - 1
    if degree > moments.size:
        raise ValueError(
            f"polynomial degree {degree} exceeds available moments {moments.size}"
        )
    out = poly[0] * float(total_mass)
    if degree >= 1:
        out += float(np.dot(poly[1:], moments[:degree]))
    return out


def dw_vector(order: int, xi: float, variant: NuVariant = NuVariant.STANDARD) -> np.ndarray:
    """The weight vector w with D w = nu-moments.

    Standard: (0, 0, xi, 0, xi, 0, xi, ...). Shifted: (-xi, 0, 0, ...).
    """
    order = _check_order(order)
    _check_xi(xi)
    out = np.zeros(order)
    if variant is NuVariant.STANDARD:
        out[2::2] = xi
    else:
        out[0] = -xi
    return out
