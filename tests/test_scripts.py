"""Smoke test: the scripts in scripts/ run at their defaults and exit 0.

Both call the public walkers and the census, so a change to either that
breaks a script shows up here. Each run takes well under a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import parkmodel

SCRIPTS = Path(__file__).parents[1] / "scripts"


# The first line each script prints at its defaults.
HEADERS = {
    "reproduce_tables.py": "Expected parking-function counts for n = 1..8",
    "naples_semantics_experiment.py": (
        "Deterministic counts (every blocked car backs up) vs the recursion"
    ),
}


@pytest.mark.parametrize("script", sorted(HEADERS))
def test_script_runs_at_defaults(script):
    env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == HEADERS[script]
