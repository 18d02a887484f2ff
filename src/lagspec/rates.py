"""Large- and moderate-deviation rate functions for spectral measures.

The large-deviation rate of a candidate measure splits into a
Kullback-Leibler term of the semicircle law against the bulk plus an
outlier cost F summed over atoms outside [-2, 2]. The moderate-deviation
rate of a truncated moment sequence is half the squared l2 norm of the
orthonormal-polynomial projections of mu_m - nu_xi, computed both through
the polynomials and through the inverse D matrix and cross-checked, with a
quadrature form available for absolutely continuous candidates.

Candidate measures are restricted to an absolutely continuous bulk on
[-2, 2] plus finitely many atoms; anything else is not representable here
and would have infinite rate anyway.

This module loads neither numpy nor ``dataclasses``, which would load
``inspect`` too and slow the start-up of ``lagspec rate``:
:class:`AcPlusAtoms` is a plain frozen class. The rates run on Python
floats, the exact integer sequences and the list quadrature rules of
:mod:`lagspec.moments`;
quadrature sums are ``math.fsum``'s correctly rounded ones, and the MDP
rate's dot products are ``moments._dot``'s, summed left to right.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import NumericalError, _Frozen, _fsum, _integer
from .moments import (
    NuVariant,
    _check_xi,
    _chebyshev_lebesgue,
    _d_inverse,
    _d_rows,
    _dot,
    _dw,
    _nu,
    _orthonormal_poly,
    _semicircle_gauss,
)

__all__ = [
    "AcPlusAtoms",
    "f_outlier",
    "kl_semicircle",
    "ldp_rate",
    "mdp_rate_density",
    "mdp_rate_series",
]

# Quadrature nodes: Chebyshev nodes for the bulk mass and the KL term, and
# the semicircle's Gauss rule for the MDP rate's density form.
_BULK_NODES = 4096
_MDP_DENSITY_NODES = 256

# Bulk density below this at any quadrature node makes the KL term +inf;
# a hard floor keeps the infinity flag deterministic.
_KL_DENSITY_FLOOR = 1e-300

_MASS_TOL = 1e-8


class AcPlusAtoms(_Frozen):
    """A bulk density on (-2, 2) plus finitely many outlying atoms.

    ``bulk_density`` maps a point of (-2, 2), a Python float, to the
    Lebesgue density of the measure there. It is called on one float at a
    time, so a numpy ufunc expression works, but a density that needs array
    methods does not. Atoms are (location, mass) pairs with |location| >= 2
    and positive mass, one per location; atoms strictly inside the bulk are
    rejected rather than folded in, and a location listed twice is rejected
    rather than charged twice by :func:`ldp_rate`. Total mass (bulk by
    quadrature, plus atoms) must be 1 within 1e-8. The density is evaluated
    once per quadrature node, and :func:`kl_semicircle` reads those values;
    they are kept in a tuple and the instance is frozen, so that they stay
    the density's.

    Instances are frozen values over ``bulk_density`` and ``atoms`` (see
    ``errors._Frozen``); pickle and copy keep the density values too.
    """

    _FIELDS = ("bulk_density", "atoms")

    def __init__(self, bulk_density: Callable, atoms: Sequence = ()):
        atoms = tuple((float(loc), float(mass)) for loc, mass in atoms)
        for i, (loc, mass) in enumerate(atoms):
            if abs(loc) < 2.0:
                raise ValueError(
                    f"atom at {loc} lies inside [-2, 2]; outliers only"
                )
            if not math.isfinite(loc):
                raise ValueError(f"atom location must be finite, got {loc!r}")
            if not (mass > 0.0):
                raise ValueError(f"atom mass must be positive, got {mass!r}")
            if any(loc == other for other, _ in atoms[:i]):
                raise ValueError(f"atom location {loc!r} is listed twice; "
                                 "give one atom per location")
        x, w = _chebyshev_lebesgue(_BULK_NODES)
        vals = tuple(float(bulk_density(xj)) for xj in x)
        if not all(0.0 <= v < math.inf for v in vals):
            raise ValueError("bulk density must be finite and nonnegative")
        total = _fsum([wj * v for wj, v in zip(w, vals)]
                                 + [mass for _, mass in atoms])
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(
                f"total mass must be 1 within {_MASS_TOL}, quadrature gives {total!r}"
            )
        # _bulk_values: bulk_density on the _BULK_NODES Chebyshev nodes, checked.
        vars(self).update(bulk_density=bulk_density, atoms=atoms, _bulk_values=vals)


def f_outlier(x: float) -> float:
    """Outlier cost F(x) = integral of sqrt(y^2 - 4) from 2 to |x|.

    Closed form |x| sqrt(x^2 - 4)/2 - 2 log((|x| + sqrt(x^2 - 4))/2),
    defined for |x| >= 2 and zero at the edge. Where x^2 overflows, F is
    x^2/2 - 2 log|x| to double precision (inf once x^2/2 overflows too).
    """
    a = abs(float(x))
    if not (2.0 <= a < math.inf):
        raise ValueError(f"|x| must be finite and >= 2, got {x!r}")
    if a * a == math.inf:
        return a * (a / 2.0) - 2.0 * math.log(a)
    root = math.sqrt(a * a - 4.0)
    return a * root / 2.0 - 2.0 * math.log((a + root) / 2.0)


def kl_semicircle(mu: AcPlusAtoms) -> float:
    """Relative entropy of the semicircle law against the bulk of ``mu``.

    Evaluates the integral of log(f_sc / f_mu) f_sc over (-2, 2) on
    endpoint-avoiding Chebyshev nodes, with the density values ``mu`` took
    and checked there. Returns +inf as soon as the bulk density falls below
    a hard floor at any node (support deficiency).
    """
    f_mu = mu._bulk_values
    if any(v < _KL_DENSITY_FLOOR for v in f_mu):
        return math.inf
    x, w = _chebyshev_lebesgue(_BULK_NODES)
    terms = []
    for xj, wj, fj in zip(x, w, f_mu):
        f_sc = math.sqrt(4.0 - xj * xj) / (2.0 * math.pi)
        terms.append(wj * math.log(f_sc / fj) * f_sc)
    return math.fsum(terms)


def _ldp_terms(mu: AcPlusAtoms) -> tuple[float, float, float]:
    """The KL term, the summed outlier costs of the atoms, and ldp_rate(mu)."""
    kl = kl_semicircle(mu)
    outliers = _fsum([f_outlier(loc) for loc, _ in mu.atoms])
    return kl, outliers, math.inf if math.isinf(kl) else kl + outliers


def ldp_rate(mu: AcPlusAtoms) -> float:
    """Large-deviation rate: KL term plus outlier costs of the atoms.

    Zero exactly at the semicircle law; infinite when the bulk loses
    support.
    """
    return _ldp_terms(mu)[2]


_FORM_AGREEMENT_TOL = 1e-10


def _series_form(diff: list) -> float:
    """Half the summed squared projections of ``diff`` on p_1 .. p_len(diff).

    A projection that is not finite met an overflow (inf - inf or 0 * inf
    among its terms), which needs a moment difference near the float
    range; then the true rate is too large for a float, and so is the form.
    """
    proj = [_dot(_orthonormal_poly(k)[1:], diff) for k in range(1, len(diff) + 1)]
    total = _dot(proj, proj)
    return 0.5 * total if math.isfinite(total) else math.inf


def _norm_form(m: list, xi: float, variant: NuVariant) -> float:
    """Half the squared norm of D^{-1}(m - D w), +inf when it overflows (see _series_form)."""
    order = len(m)
    # Literal matrix form: D w telescopes to the nu moments, but computing
    # it as a product keeps the two routes independent.
    w = _dw(order, xi, variant)
    resid = [mi - _dot(row, w) for mi, row in zip(m, _d_rows(order))]
    x = _d_inverse(order, resid)
    total = _dot(x, x)
    return 0.5 * total if math.isfinite(total) else math.inf


def mdp_rate_series(
    m: Sequence[float],
    xi: float,
    variant: NuVariant = NuVariant.STANDARD,
    k_trunc: int = 15,
) -> float:
    """Moderate-deviation rate of a truncated moment sequence.

    ``m`` is the 1-D sequence m_1, m_2, ... (a 1-D numpy array works).
    Half the sum over k = 1..k_trunc of the squared integrals of the k-th
    semicircle-orthonormal polynomial against mu_m - nu_xi (zero-mass
    signed measures, so the k = 0 term vanishes identically). The same
    number is recomputed as half the squared norm of D^{-1}(m - D w) and
    the two forms must agree to 1e-10, else a NumericalError is raised.
    Where finite moments give a rate too large for a float, both forms read
    inf and so does the result; a form that is not a number, or inf against
    a finite form, is a NumericalError too.
    """
    m = [float(v) for v in m]
    if not all(math.isfinite(v) for v in m):
        raise ValueError("moments must be finite")
    _integer(k_trunc, "k_trunc", 1)
    if len(m) < k_trunc:
        raise ValueError(
            f"truncation {k_trunc} exceeds moment sequence length {len(m)}"
        )
    m = m[:k_trunc]
    series = _series_form([mk - nk for mk, nk in zip(m, _nu(k_trunc, xi, variant))])
    norm_form = _norm_form(m, xi, variant)

    # Equal covers two overflowed forms; NaN, or inf against a finite value, disagrees.
    agree = series == norm_form or (
        math.isfinite(series) and math.isfinite(norm_form)
        and abs(series - norm_form) <= _FORM_AGREEMENT_TOL * max(1.0, series, norm_form)
    )
    if not agree:
        raise NumericalError(
            f"series and norm forms of the MDP rate disagree: "
            f"{series!r} vs {norm_form!r}"
        )
    return series


def mdp_rate_density(
    g: Callable,
    xi: float,
    variant: NuVariant = NuVariant.STANDARD,
) -> float:
    """Quadrature form of the moderate-deviation rate.

    ``g`` is the candidate density d(mu_m)/d(mu_sc) on (-2, 2), called on
    one Python float at a time as ``bulk_density`` is; the rate is half the
    integral of (g - d(nu_xi)/d(mu_sc))^2 against the semicircle law,
    evaluated on its Gauss rule. With xi > 0 the reference ratio has
    nonintegrable poles at +-2, so unless g matches it there the value
    grows without bound in the node count (the true rate is infinite outside
    L^2(mu_sc) perturbations); polynomial candidates with xi = 0 are exact.
    """
    _check_xi(xi)
    x, w = _semicircle_gauss(_MDP_DENSITY_NODES)
    g_vals = [float(g(xj)) for xj in x]
    if not all(math.isfinite(v) for v in g_vals):
        raise ValueError("candidate density returned non-finite values")
    terms = []
    for xj, wj, gj in zip(x, w, g_vals):
        if variant is NuVariant.STANDARD:
            ratio = xi * xj * (xj * xj - 3.0) / (4.0 - xj * xj)
        else:
            ratio = -xi * xj
        terms.append(wj * ((gj - ratio) * (gj - ratio)))
    return 0.5 * _fsum(terms)
