"""Exact and simulated analysis of two randomized parking-function models.

Both models start from the classic parking rule (n cars, n spots, blocked
cars search forward) and randomize what a blocked car does: under the
random-direction rule it searches forward with probability p and backward
otherwise; under the random k-Naples rule it backs up k spots with
probability p before searching forward. Everything observable at desk scale
is computed exactly: per-tuple probabilities are integer-coefficient
polynomials in p, expected counts are Fractions, and the exhaustive census
machinery cross-checks the counting recursions tuple by tuple.
"""

__version__ = "0.1.0"

from .census import (
    CheckResult,
    DistributionTable,
    StaircaseShape,
    VerificationReport,
    compare_naples_semantics,
    full_census,
    is_staircase,
    iter_staircase_shapes,
    shape_of,
    staircase_choice_count,
    tuple_for_numerator,
    tuple_for_odd_numerator,
    verify_direction_total,
    verify_monotonicity,
    verify_odd_census,
    verify_odd_parity,
    verify_sandwich,
)
from .circular import (
    EmptySpotDistribution,
    circular_park,
    empty_spot_distribution,
    shift_preferences,
    verify_circular,
)
from .core import (
    NaplesSemantics,
    ParkingResult,
    RandomModel,
    park_forward,
    park_naples_det,
    park_with_choices,
    parks_under_choices,
)
from .exact import (
    Poly,
    parking_choice_count,
    prob_of_model,
    prob_of_model_at,
    prob_random_direction,
    prob_random_naples,
)
from .montecarlo import McEstimate, estimate_expected_total, estimate_prob
from .recursions import (
    expected_random_direction,
    expected_random_naples,
    naples_count,
    parking_count,
)

__all__ = [
    "__version__",
    "CheckResult",
    "DistributionTable",
    "EmptySpotDistribution",
    "McEstimate",
    "NaplesSemantics",
    "ParkingResult",
    "Poly",
    "RandomModel",
    "StaircaseShape",
    "VerificationReport",
    "circular_park",
    "compare_naples_semantics",
    "empty_spot_distribution",
    "estimate_expected_total",
    "estimate_prob",
    "expected_random_direction",
    "expected_random_naples",
    "full_census",
    "is_staircase",
    "iter_staircase_shapes",
    "naples_count",
    "park_forward",
    "park_naples_det",
    "park_with_choices",
    "parking_choice_count",
    "parking_count",
    "parks_under_choices",
    "prob_of_model",
    "prob_of_model_at",
    "prob_random_direction",
    "prob_random_naples",
    "shape_of",
    "shift_preferences",
    "staircase_choice_count",
    "tuple_for_numerator",
    "tuple_for_odd_numerator",
    "verify_circular",
    "verify_direction_total",
    "verify_monotonicity",
    "verify_odd_census",
    "verify_odd_parity",
    "verify_sandwich",
]
