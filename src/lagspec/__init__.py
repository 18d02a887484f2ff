"""Laguerre beta-ensemble spectral measures.

Samplers for the tridiagonal model and its eigenvalue rescalings, finite
Jacobi / spectral-measure machinery, exact reference moments and the D
matrix, large- and moderate-deviation rate functions, and a seeded Monte
Carlo harness that checks the limit theorems at desk scale.
"""

from .ensembles import (
    EnsembleParams,
    RescalingMode,
    derive_seed,
    make_rng,
    rescale,
    sample_chi_squared,
    sample_dirichlet,
    sample_laguerre_tridiagonal,
    sample_spectral_measure,
)
from .errors import NumericalError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    LinearGamma,
    PowerLawGamma,
    predicted_clt,
    run_clt,
    run_mdp_centering,
    run_moment_convergence,
    run_mp_sanity,
)
from .moments import (
    NuVariant,
    arcsine_moments,
    d_inverse_apply,
    d_matrix,
    dw_vector,
    integrate_poly_against_moments,
    mp_moments,
    nu_density,
    nu_moments,
    semicircle_moments,
    semicircle_orthonormal_poly,
)
from .rates import AcPlusAtoms, f_outlier, kl_semicircle, ldp_rate, mdp_rate_density, mdp_rate_series
from .spectral import (
    JacobiCoefficients,
    SpectralMeasure,
    eigen_spectral,
    free_jacobi,
    measure_to_coefficients,
    moments_of_measure,
    moments_via_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AcPlusAtoms",
    "EnsembleParams",
    "ExperimentConfig",
    "ExperimentReport",
    "JacobiCoefficients",
    "LinearGamma",
    "NuVariant",
    "NumericalError",
    "PowerLawGamma",
    "RescalingMode",
    "SpectralMeasure",
    "arcsine_moments",
    "d_inverse_apply",
    "d_matrix",
    "derive_seed",
    "dw_vector",
    "eigen_spectral",
    "f_outlier",
    "free_jacobi",
    "integrate_poly_against_moments",
    "kl_semicircle",
    "ldp_rate",
    "make_rng",
    "mdp_rate_density",
    "mdp_rate_series",
    "measure_to_coefficients",
    "moments_of_measure",
    "moments_via_operator",
    "mp_moments",
    "nu_density",
    "nu_moments",
    "predicted_clt",
    "rescale",
    "run_clt",
    "run_mdp_centering",
    "run_moment_convergence",
    "run_mp_sanity",
    "sample_chi_squared",
    "sample_dirichlet",
    "sample_laguerre_tridiagonal",
    "sample_spectral_measure",
    "semicircle_moments",
    "semicircle_orthonormal_poly",
]
