"""Worst-case tolerance allocation with low-rank separated surrogates.

Pipeline: size a sampling domain from the performance constraint, sample the
system, fit a separated Legendre surrogate by alternating least squares, and
traverse the level-set manifold G(tau) = q_allow to the measure-optimal
tolerance vector.

The names below are exported lazily: ``import tolalloc`` loads no submodule,
and the first use of a name imports the module that defines it.
"""

import importlib

_EXPORTS = {
    "boxmax": ("AnalyticWorstCase", "BoxMaxResult", "SurrogateWorstCase", "ToleranceBox",
               "box_maximize", "grad_G"),
    "domain": ("BoundingBox", "ConstraintError", "axis_threshold", "size_bounding_box"),
    "evaluator": ("EvaluatorError", "ExternalEvaluator", "MaxComposite", "TabulatedEvaluator",
                  "builtin_catalog", "draw_samples", "make_builtin"),
    "manifold": ("AllocationResult", "DegenerateNormalError", "InitializationError",
                 "RetractionError", "TangentFrame", "TraversalTrace", "build_projection",
                 "conjugate_gradient", "gradient_ascent", "initial_guess", "line_search",
                 "retract"),
    "measures": ("MinusOneNorm", "MuNorm", "OneNorm", "ReciprocalPowerCost",
                 "mu_norm_from_model"),
    "metrics": ("AllocationErrorReport", "ErrorReport", "allocation_errors", "surrogate_errors"),
    "surrogate": ("FitConfig", "FitError", "FitReport", "Interval", "SampleSet",
                  "SeparatedModel", "als_fit"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that exports ``name`` on its first use (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)

