"""Worst-case tolerance allocation with low-rank separated surrogates.

Pipeline: size a sampling domain from the performance constraint, sample the
system, fit a separated Legendre surrogate by alternating least squares, and
traverse the level-set manifold G(tau) = q_allow to the measure-optimal
tolerance vector.
"""

from .boxmax import (
    AnalyticWorstCase,
    BoxMaxResult,
    SurrogateWorstCase,
    ToleranceBox,
    box_maximize,
    grad_G,
)
from .domain import (
    BoundingBox,
    ConstraintError,
    axis_threshold,
    size_bounding_box,
)
from .evaluator import (
    EvaluatorError,
    ExternalEvaluator,
    MaxComposite,
    TabulatedEvaluator,
    builtin_catalog,
    draw_samples,
    make_builtin,
)
from .manifold import (
    AllocationResult,
    DegenerateNormalError,
    InitializationError,
    RetractionError,
    TangentFrame,
    TraversalTrace,
    build_projection,
    conjugate_gradient,
    gradient_ascent,
    initial_guess,
    line_search,
    retract,
)
from .measures import (
    MinusOneNorm,
    MuNorm,
    OneNorm,
    ReciprocalPowerCost,
    mu_norm_from_model,
)
from .metrics import AllocationErrorReport, ErrorReport, allocation_errors, surrogate_errors
from .surrogate import (
    FitConfig,
    FitError,
    FitReport,
    Interval,
    MissingFieldError,
    SampleSet,
    SeparatedModel,
    als_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
