"""Golden CLI corpus: each pinned invocation prints exactly its stored stdout.

golden/index.json maps a case name to its arguments and exit code,
golden/<name>.out holds the stdout and golden/<name>.err the stderr (no
file: none). All are written by regen_golden.py; a change that regenerates
a file changes the CLI contract. Click 8.2 and later keep stderr apart
from stdout in CliRunner, and the pinned usage errors are in its wording.
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
    err = GOLDEN / f"{name}.err"
    assert result.stderr_bytes == (err.read_bytes() if err.exists() else b"")


def test_mc_totals_split_between_automaton_and_replay():
    # The cell budget is n times the rows of one chunk, at most 2^16 rows,
    # and the all-spot automaton of n cars holds sum over d < n of
    # (C(n, d) + 1) * 2n cells: at 1,000 samples, 4,208 <= 8,000 at n = 8,
    # but 9,360 > 9,000 at n = 9.
    totals = [
        name for name, case in INDEX.items()
        if case["args"][:2] == ["mc", "--n"] and "--format" in case["args"]
        and case["args"][case["args"].index("--format") + 1] == "json"
    ]
    assert len(totals) == 42
    for name in totals:
        args = INDEX[name]["args"]
        n = int(args[2])
        rows = int(args[args.index("--tuple-samples") + 1])
        if "--trials-per-tuple" in args:
            rows *= int(args[args.index("--trials-per-tuple") + 1])
        stats = json.loads((GOLDEN / f"{name}.out").read_text())["meta"]["stats"]
        if (2**n - 1 + n) * 2 * n <= min(rows, 1 << 16) * n:
            assert stats["path"] == "automaton", name
            assert stats["states_peak"] == comb(n, n // 2), name
        else:
            assert stats == {
                "path": "replay", "rng_chunks": 1, "rows_walked": rows, "states_peak": 0
            }, name
