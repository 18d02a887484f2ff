"""Laguerre beta-ensemble spectral measures.

Samplers for the tridiagonal model and its eigenvalue rescalings, finite
Jacobi / spectral-measure machinery, exact reference moments and the D
matrix, large- and moderate-deviation rate functions, and a seeded Monte
Carlo harness that checks the limit theorems at desk scale.

``import lagspec`` imports no submodule: each public name is imported from
its defining module on first access (PEP 562), so a program pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule.
_EXPORTS = {
    "EnsembleParams": "scalar",
    "RescalingMode": "scalar",
    "derive_seed": "scalar",
    "make_rng": "ensembles",
    "replicate_windows": "ensembles",
    "rescale": "ensembles",
    "sample_laguerre_tridiagonal": "ensembles",
    "sample_spectral_measure": "ensembles",
    "NumericalError": "errors",
    "ExperimentConfig": "experiments",
    "ExperimentReport": "experiments",
    "LinearGamma": "experiments",
    "PowerLawGamma": "experiments",
    "format_poly": "experiments",
    "parse_gamma_rule": "experiments",
    "parse_poly": "experiments",
    "predicted_clt": "experiments",
    "run_clt": "experiments",
    "run_mp_sanity": "experiments",
    "NuVariant": "moments",
    "arcsine_moments": "moments",
    "d_inverse_apply": "moments",
    "d_matrix": "moments",
    "dw_vector": "moments",
    "mp_moments": "moments",
    "nu_density": "moments",
    "nu_moments": "moments",
    "semicircle_moments": "moments",
    "semicircle_orthonormal_poly": "moments",
    "AcPlusAtoms": "rates",
    "f_outlier": "rates",
    "kl_semicircle": "rates",
    "ldp_rate": "rates",
    "mdp_rate_density": "rates",
    "mdp_rate_series": "rates",
    "JacobiCoefficients": "spectral",
    "SpectralMeasure": "spectral",
    "eigen_spectral": "spectral",
    "free_jacobi": "spectral",
    "measure_to_coefficients": "spectral",
    "moments_of_measure": "spectral",
    "moments_via_operator": "spectral",
}

# Submodules resolve on attribute access too, as when every one was imported here.
_SUBMODULES = frozenset(("ensembles", "errors", "experiments", "moments", "rates", "scalar",
                         "spectral"))

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
