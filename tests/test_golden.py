"""Golden CLI corpus: each pinned invocation prints exactly its stored stdout.

golden/index.json maps a case name to its arguments and exit code, and
golden/<name>.out holds the stdout. Both are written by regen_golden.py;
a change that regenerates a file changes the CLI contract.
"""

import json
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

from parkmodel.cli import main

GOLDEN = Path(__file__).with_name("golden")
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_output_is_byte_identical(name):
    case = INDEX[name]
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == case["exit_code"]
    assert result.stdout_bytes == (GOLDEN / f"{name}.out").read_bytes()


def test_mc_totals_split_between_automaton_and_replay():
    # At 1,000 samples the cell budget is 1000 * n, and the all-spot
    # automaton of n cars holds sum over d < n of (C(n, d) + 1) * 2n cells:
    # 4,208 <= 8,000 at n = 8, but 9,360 > 9,000 at n = 9.
    totals = [
        name for name, case in INDEX.items()
        if case["args"][:2] == ["mc", "--n"] and "--format" in case["args"]
        and case["args"][case["args"].index("--format") + 1] == "json"
    ]
    assert len(totals) == 39
    for name in totals:
        n = int(INDEX[name]["args"][2])
        stats = json.loads((GOLDEN / f"{name}.out").read_text())["meta"]["stats"]
        if n <= 8:
            assert stats["path"] == "automaton", name
            assert stats["states_peak"] == comb(n, n // 2), name
        else:
            assert stats == {
                "path": "replay", "rng_chunks": 1, "rows_walked": 1000, "states_peak": 0
            }, name
