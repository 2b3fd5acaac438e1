"""Certified one-dimensional fractional Laplacian toolkit.

The package evaluates the operator

    (-Delta)^s u (x) = integral_0^inf [2 u(x) - u(x+y) - u(x-y)] / y^(1+2s) dy

for 0 < s < 1 (no normalizing constant), provides exact building blocks
(r x + t)_+^s annihilated by the operator, and assembles them into
certified C^2 approximations of arbitrary smooth targets on [-1, 1].
Everything is deterministic: no randomness, reproducible artifacts.
"""

from .approximate import (ApproxReport, BuildInfo, ChebPoly, Target,
                          approximate, build_sharmonic, cheb_fit,
                          default_nodes, target_from_spec)
from .blocks import (SHBlock, SHCombo, combo_derivative, combo_eval,
                     combo_from_json, combo_to_json, match_polynomial)
from .demos import (HarnackWitness, LogisticWitness, harnack_counterexample,
                    logistic_resource_plan, mean_value_table)
from .errors import (ApproximationError, ConfigError, DomainError,
                     EvaluationError, SharmonicError)
from .exact import canonical_constant, combo_residual
from .fraclap import (FracLapDetail, FracParams, QuadConfig, frac_laplacian,
                      frac_laplacian_detailed, frac_laplacian_pv,
                      mean_value_ball, mean_value_sphere)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport", "ApproximationError", "BuildInfo", "ChebPoly",
    "ConfigError", "DomainError", "EvaluationError",
    "FracLapDetail", "FracParams",
    "HarnackWitness", "LogisticWitness",
    "QuadConfig", "SHBlock", "SHCombo", "SharmonicError", "Target",
    "approximate", "build_sharmonic", "canonical_constant",
    "cheb_fit", "combo_derivative", "combo_eval",
    "combo_from_json", "combo_residual", "combo_to_json",
    "default_nodes", "frac_laplacian", "frac_laplacian_detailed",
    "frac_laplacian_pv", "harnack_counterexample", "logistic_resource_plan",
    "match_polynomial", "mean_value_ball", "mean_value_sphere",
    "mean_value_table", "target_from_spec",
    "__version__",
]
