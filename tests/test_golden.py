"""Golden CLI corpus: each pinned invocation prints exactly its stored stdout.

golden/index.json maps a case name to its arguments and exit code, and
golden/<name>.out holds the stdout. Both are written by regen_golden.py;
a change that regenerates a file changes the CLI contract.
"""

import json
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
