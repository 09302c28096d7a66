"""Exact and simulated analysis of two randomized parking-function models.

Both models start from the classic parking rule (n cars, n spots, blocked
cars search forward) and randomize what a blocked car does: under the
random-direction rule it searches forward with probability p and backward
otherwise; under the random k-Naples rule it backs up k spots with
probability p before searching forward. Everything observable at desk scale
is computed exactly: per-tuple probabilities are integer-coefficient
polynomials in p, expected counts are Fractions, and the exhaustive census
machinery cross-checks the counting recursions tuple by tuple.

Each export is loaded from its defining module on first use (PEP 562), so
`import parkmodel` compiles no submodule and a command pays only for the
modules it calls. `parkmodel.X` and `from parkmodel import X` return the
defining module's object.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the submodule that defines it.
_EXPORTS = {
    "CheckResult": "census",
    "DistributionTable": "census",
    "EmptySpotDistribution": "circular",
    "McEstimate": "montecarlo",
    "NaplesSemantics": "core",
    "ParkingResult": "core",
    "Poly": "exact",
    "RandomModel": "core",
    "StaircaseShape": "census",
    "VerificationReport": "census",
    "circular_park": "circular",
    "compare_naples_semantics": "census",
    "empty_spot_distribution": "circular",
    "estimate_expected_total": "montecarlo",
    "estimate_prob": "montecarlo",
    "expected_random_direction": "recursions",
    "expected_random_naples": "recursions",
    "full_census": "census",
    "is_staircase": "census",
    "iter_staircase_shapes": "census",
    "naples_count": "recursions",
    "park_forward": "core",
    "park_naples_det": "core",
    "park_with_choices": "core",
    "parking_choice_count": "exact",
    "parking_count": "recursions",
    "parks_under_choices": "core",
    "prob_of_model": "exact",
    "prob_of_model_at": "exact",
    "prob_random_direction": "exact",
    "prob_random_naples": "exact",
    "shape_of": "census",
    "shift_preferences": "circular",
    "staircase_choice_count": "census",
    "tuple_for_numerator": "census",
    "tuple_for_odd_numerator": "census",
    "verify_circular": "circular",
    "verify_direction_total": "census",
    "verify_monotonicity": "census",
    "verify_odd_census": "census",
    "verify_odd_parity": "census",
    "verify_sandwich": "census",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
