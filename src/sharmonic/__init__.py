"""Certified one-dimensional fractional Laplacian toolkit.

The package evaluates the operator

    (-Delta)^s u (x) = integral_0^inf [2 u(x) - u(x+y) - u(x-y)] / y^(1+2s) dy

for 0 < s < 1 (no normalizing constant), provides exact building blocks
(r x + t)_+^s annihilated by the operator, and assembles them into
certified C^2 approximations of arbitrary smooth targets on [-1, 1].
Everything is deterministic: no randomness, reproducible artifacts.
"""

from .approximate import (ApproxReport, BuildInfo, ChebPoly, GroupInfo,
                          Target, approximate, build_sharmonic, cheb_fit,
                          default_nodes, interior_points, target_from_spec)
from .blocks import (MatchInfo, SHBlock, SHCombo, TaylorSeries,
                     block_derivative_at_zero, block_eval, combo_add,
                     combo_derivative, combo_eval, combo_from_json,
                     combo_scale, combo_to_json, readback_derivatives,
                     rescale_for_defect, solve_derivative_match)
from .demos import (HarnackWitness, LogisticWitness, OffsetCombo,
                    harnack_counterexample, logistic_resource_plan,
                    mean_value_table)
from .errors import (ApproximationError, ConditioningError, ConfigError,
                     DomainError, EvaluationError, SharmonicError)
from .exact import (canonical_constant, canonical_constant_closed_form,
                    combo_residual, power_block_reference)
from .fraclap import (FracLapDetail, FracParams, GridFunction, QuadConfig,
                      frac_laplacian, frac_laplacian_detailed,
                      frac_laplacian_pv, mean_value_ball, mean_value_sphere)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport", "ApproximationError", "BuildInfo", "ChebPoly",
    "ConditioningError", "ConfigError", "DomainError", "EvaluationError",
    "FracLapDetail", "FracParams", "GridFunction", "GroupInfo",
    "HarnackWitness", "LogisticWitness", "MatchInfo", "OffsetCombo",
    "QuadConfig", "SHBlock", "SHCombo", "SharmonicError", "Target",
    "TaylorSeries", "approximate", "block_derivative_at_zero", "block_eval",
    "build_sharmonic", "canonical_constant", "canonical_constant_closed_form",
    "cheb_fit", "combo_add", "combo_derivative", "combo_eval",
    "combo_from_json", "combo_residual", "combo_scale", "combo_to_json",
    "default_nodes", "frac_laplacian", "frac_laplacian_detailed",
    "frac_laplacian_pv", "harnack_counterexample", "interior_points",
    "logistic_resource_plan", "mean_value_ball", "mean_value_sphere",
    "mean_value_table", "power_block_reference", "readback_derivatives",
    "rescale_for_defect", "solve_derivative_match", "target_from_spec",
    "__version__",
]
