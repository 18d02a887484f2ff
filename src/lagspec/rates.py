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

Importing this module loads no numpy, and :func:`f_outlier` runs without
it; the other rates import numpy when called. Their pairwise sums, vector
logarithms and BLAS dot products are numpy's, and Python arithmetic would
not repeat them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import NumericalError
from .moments import (
    NuVariant,
    chebyshev_lebesgue_rule,
    d_inverse_apply,
    d_matrix,
    dw_vector,
    integrate_poly_against_moments,
    nu_moments,
    semicircle_density,
    semicircle_orthonormal_poly,
    semicircle_rule,
)

if TYPE_CHECKING:
    import numpy as np

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


def _eval_density(density: Callable, x: np.ndarray) -> np.ndarray:
    import numpy as np

    vals = np.asarray(density(x), dtype=np.float64)
    if vals.shape != x.shape:
        vals = np.array([float(density(float(xx))) for xx in x])
    return vals


@dataclass(frozen=True)
class AcPlusAtoms:
    """A bulk density on (-2, 2) plus finitely many outlying atoms.

    ``bulk_density`` maps points of (-2, 2) to the Lebesgue density of the
    measure there (vectorized or scalar callables both work). Atoms are
    (location, mass) pairs with |location| >= 2 and positive mass, one per
    location; atoms strictly inside the bulk are rejected rather than folded
    in, and a location listed twice is rejected rather than charged twice by
    :func:`ldp_rate`. Total mass (bulk by quadrature, plus atoms) must be 1
    within 1e-8. The density is
    evaluated once, on the quadrature nodes, and :func:`kl_semicircle` reads
    those values; the instance is frozen so that they stay the density's.
    """

    bulk_density: Callable
    atoms: Sequence = field(default_factory=tuple)
    # bulk_density on the _BULK_NODES Chebyshev nodes: checked, read-only.
    _bulk_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import numpy as np

        atoms = tuple((float(loc), float(mass)) for loc, mass in self.atoms)
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
        object.__setattr__(self, "atoms", atoms)
        x, w = chebyshev_lebesgue_rule(_BULK_NODES)
        # A copy: marking it read-only must not touch an array the density keeps.
        vals = _eval_density(self.bulk_density, x).copy()
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("bulk density must be finite and nonnegative")
        vals.flags.writeable = False
        object.__setattr__(self, "_bulk_values", vals)
        total = float(np.sum(w * vals)) + sum(mass for _, mass in atoms)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(
                f"total mass must be 1 within {_MASS_TOL}, quadrature gives {total!r}"
            )


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
    import numpy as np

    x, w = chebyshev_lebesgue_rule(_BULK_NODES)
    f_mu = mu._bulk_values
    if np.any(f_mu < _KL_DENSITY_FLOOR):
        return math.inf
    f_sc = semicircle_density(x)
    return float(np.sum(w * np.log(f_sc / f_mu) * f_sc))


def ldp_rate(mu: AcPlusAtoms) -> float:
    """Large-deviation rate: KL term plus outlier costs of the atoms.

    Zero exactly at the semicircle law; infinite when the bulk loses
    support.
    """
    kl = kl_semicircle(mu)
    if math.isinf(kl):
        return math.inf
    return kl + sum(f_outlier(loc) for loc, _ in mu.atoms)


_FORM_AGREEMENT_TOL = 1e-10


def mdp_rate_series(
    m: np.ndarray,
    xi: float,
    variant: NuVariant = NuVariant.STANDARD,
    k_trunc: int = 15,
) -> float:
    """Moderate-deviation rate of a truncated moment sequence.

    Half the sum over k = 1..k_trunc of the squared integrals of the k-th
    semicircle-orthonormal polynomial against mu_m - nu_xi (zero-mass
    signed measures, so the k = 0 term vanishes identically). The same
    number is recomputed as half the squared norm of D^{-1}(m - D w) and
    the two forms must agree to 1e-10, else a NumericalError is raised.
    Where finite moments give a rate too large for a float, both forms read
    inf and so does the result, with no warning; a form that is not a
    number is a NumericalError too.
    """
    import numpy as np

    m = np.asarray(m, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(m)):
        raise ValueError("moments must be finite")
    if k_trunc < 1:
        raise ValueError(f"k_trunc must be >= 1, got {k_trunc}")
    if m.size < k_trunc:
        raise ValueError(
            f"truncation {k_trunc} exceeds moment sequence length {m.size}"
        )
    diff = m[:k_trunc] - nu_moments(k_trunc, xi, variant)

    # Finite moments can still overflow a projection or its square (inf),
    # and inf - inf in a projection is NaN; the checks below read both.
    with np.errstate(over="ignore", invalid="ignore"):
        series = 0.0
        for k in range(1, k_trunc + 1):
            p_k = semicircle_orthonormal_poly(k)
            series += integrate_poly_against_moments(p_k, diff, 0.0) ** 2
        series *= 0.5

        # Literal matrix form: D w telescopes to the nu moments, but computing
        # it as a product keeps the two routes independent.
        resid = m[:k_trunc] - d_matrix(k_trunc).astype(np.float64) @ dw_vector(
            k_trunc, xi, variant
        )
        norm_form = 0.5 * float(np.sum(d_inverse_apply(k_trunc, resid) ** 2))

    # Equal covers two overflowed forms; NaN, or inf against a finite value, disagrees.
    agree = series == norm_form or (
        math.isfinite(series) and math.isfinite(norm_form)
        and abs(series - norm_form) <= _FORM_AGREEMENT_TOL * max(1.0, series, norm_form)
    )
    if not agree:
        raise NumericalError(
            f"series and norm forms of the MDP rate disagree: "
            f"{float(series)!r} vs {norm_form!r}"
        )
    return series


def mdp_rate_density(
    g: Callable,
    xi: float,
    variant: NuVariant = NuVariant.STANDARD,
) -> float:
    """Quadrature form of the moderate-deviation rate.

    ``g`` is the candidate density d(mu_m)/d(mu_sc) on (-2, 2); the rate is
    half the integral of (g - d(nu_xi)/d(mu_sc))^2 against the semicircle
    law, evaluated on its Gauss rule. With xi > 0 the reference ratio has
    nonintegrable poles at +-2, so unless g matches it there the value
    grows without bound in the node count (the true rate is infinite outside
    L^2(mu_sc) perturbations); polynomial candidates with xi = 0 are exact.
    """
    import numpy as np

    x, w = semicircle_rule(_MDP_DENSITY_NODES)
    g_vals = _eval_density(g, x)
    if not np.all(np.isfinite(g_vals)):
        raise ValueError("candidate density returned non-finite values")
    if variant is NuVariant.STANDARD:
        ratio = xi * x * (x**2 - 3.0) / (4.0 - x**2)
    else:
        ratio = -xi * x
    return 0.5 * float(np.sum(w * (g_vals - ratio) ** 2))
