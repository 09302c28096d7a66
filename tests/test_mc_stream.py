"""Pinned seeded Monte Carlo stream: exact McEstimate values for a fixed grid.

The values in mc_seeded_stream.json were recorded from the per-trial Python
replay (one scalar walk, now core._park, per trial). Draws, chunking and
thresholds fix every estimate, so any replay kernel must reproduce them bit
for bit. The grid covers fixed tuples of 3 to 70 cars (66 and 70 are wider
than one uint64 of choice bits), runs that cross a chunk boundary (40,000
trials or samples), and multi-trial tuples, whose per-tuple float sums
depend on summation order. Cases that carry stats pin the path too: fixed
tuples at trial counts too small to pay for their automaton, totals at
n = 15 and 17 (whose all-spot automaton is never built), and totals past
CHUNK_TRIALS trials per sample, which are drawn in pieces; their stats
(path, RNG chunks, rows walked, widest layer) must match as well.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from parkmodel import (
    McEstimate,
    NaplesSemantics,
    RandomModel,
    estimate_expected_total,
    estimate_prob,
)

DATA = json.loads((Path(__file__).with_name("mc_seeded_stream.json")).read_text())
SEED = DATA["seed"]


def _case_id(case: dict) -> str:
    keys = ("n", "model", "k", "semantics", "p", "trials_per_tuple")
    parts = [str(case[key]) for key in keys if key in case]
    if "stats" in case:
        rows = case["trials"] if "trials" in case else case["tuple_samples"]
        parts += [case["stats"]["path"], str(rows)]
    return "-".join(parts).replace("/", "_")


def _check(est: McEstimate, case: dict, trials: int) -> None:
    assert est == McEstimate(case["mean"], case["stderr"], trials, SEED)
    if "stats" in case:
        assert est.stats == case["stats"]


@pytest.mark.parametrize("case", DATA["estimate_prob"], ids=_case_id)
def test_estimate_prob_stream(case):
    est = estimate_prob(
        DATA["tuples"][str(case["n"])],
        RandomModel(case["model"]),
        case["k"],
        NaplesSemantics(case["semantics"]),
        p=Fraction(case["p"]),
        trials=case["trials"],
        seed=SEED,
    )
    _check(est, case, case["trials"])


@pytest.mark.parametrize("case", DATA["estimate_expected_total"], ids=_case_id)
def test_estimate_expected_total_stream(case):
    est = estimate_expected_total(
        case["n"],
        RandomModel(case["model"]),
        case["k"],
        NaplesSemantics(case["semantics"]),
        p=Fraction(case["p"]),
        tuple_samples=case["tuple_samples"],
        trials_per_tuple=case["trials_per_tuple"],
        seed=SEED,
    )
    _check(est, case, case["tuple_samples"])
