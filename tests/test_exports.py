"""The package's lazily exported names."""

import importlib

import pytest

import tolalloc

EXPORTS = {
    "boxmax": {"AnalyticWorstCase", "BoxMaxResult", "SurrogateWorstCase", "ToleranceBox",
               "box_maximize", "grad_G"},
    "domain": {"BoundingBox", "ConstraintError", "axis_threshold", "size_bounding_box"},
    "evaluator": {"EvaluatorError", "ExternalEvaluator", "MaxComposite", "TabulatedEvaluator",
                  "builtin_catalog", "draw_samples", "make_builtin"},
    "manifold": {"AllocationResult", "DegenerateNormalError", "InitializationError",
                 "RetractionError", "TangentFrame", "TraversalTrace", "build_projection",
                 "conjugate_gradient", "gradient_ascent", "initial_guess", "line_search",
                 "retract"},
    "measures": {"MinusOneNorm", "MuNorm", "OneNorm", "ReciprocalPowerCost",
                 "mu_norm_from_model"},
    "metrics": {"AllocationErrorReport", "ErrorReport", "allocation_errors", "surrogate_errors"},
    "surrogate": {"FitConfig", "FitError", "FitReport", "Interval", "SampleSet",
                  "SeparatedModel", "als_fit"},
}


def test_all_lists_the_exported_classes_and_functions_sorted():
    assert tolalloc.__all__ == sorted(set().union(*EXPORTS.values()))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_the_object_its_module_defines(module):
    source = importlib.import_module(f"tolalloc.{module}")
    for name in EXPORTS[module]:
        assert getattr(tolalloc, name) is getattr(source, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        tolalloc.nonexistent


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tolalloc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tolalloc.__all__)
    assert namespace["als_fit"] is tolalloc.surrogate.als_fit
