"""Regenerate the golden CLI corpus in tests/golden/.

Each case runs one `parkmodel` invocation in-process through click's
CliRunner and stores its exact stdout as golden/<name>.out; index.json maps
every name to its arguments and exit code. test_golden.py replays the index
and compares bytes, so any change to a pinned output shows up as a diff of
these files.

    PYTHONPATH=src python tests/regen_golden.py

To pin more invocations, add them to CASES and rerun. A change that
regenerates an existing file changes the CLI contract and must say why.
"""

import json
from pathlib import Path

from click.testing import CliRunner

from parkmodel.cli import main

GOLDEN = Path(__file__).with_name("golden")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for n in range(2, 9):
        for fmt in ("text", "json", "csv"):
            cases[f"verify-odd-census-n{n}-{fmt}"] = [
                "verify", "--check", "odd-census", "--n", str(n), "--format", fmt,
            ]
    for k, semantics in ((1, "jump"), (2, "jump"), (2, "firstfit")):
        for n in range(1, 8):
            cases[f"census-n{n}-k{k}-{semantics}-json"] = [
                "census", "--n", str(n), "--k", str(k),
                "--semantics", semantics, "--format", "json",
            ]
    rules = {
        "k1-jump": ["--model", "naples", "--k", "1", "--semantics", "jump"],
        "k2-firstfit": ["--model", "naples", "--k", "2", "--semantics", "firstfit"],
        "direction": ["--model", "direction"],
    }
    # At 1,000 samples the automaton budget is 1000 * n cells: n <= 8 walks
    # the all-spot automaton and n = 9 replays (test_golden checks the split).
    for name, rule in rules.items():
        for n in range(1, 10):
            cases[f"mc-n{n}-{name}-json"] = [
                "mc", "--n", str(n), *rule, "--tuple-samples", "1000",
                "--seed", "3", "--format", "json",
            ]
        if name != "k2-firstfit":
            for n in (4, 8, 9):
                for p in ("0", "1"):
                    cases[f"mc-n{n}-{name}-p{p}-json"] = [
                        "mc", "--n", str(n), *rule, "--p", p,
                        "--tuple-samples", "1000", "--seed", "3", "--format", "json",
                    ]
    alphas = {
        "222-naples": ["--alpha", "2,2,2", "--model", "naples"],
        "33312-direction": ["--alpha", "3,3,3,1,2", "--model", "direction", "--p", "1/3"],
    }
    for name, args in alphas.items():
        for fmt in ("text", "json", "csv"):
            cases[f"mc-alpha-{name}-{fmt}"] = [
                "mc", *args, "--trials", "1000", "--seed", "3", "--format", fmt,
            ]
    return cases


CASES = _cases()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    runner = CliRunner()
    index = {}
    for name, args in CASES.items():
        result = runner.invoke(main, args)
        (GOLDEN / f"{name}.out").write_bytes(result.stdout_bytes)
        index[name] = {"args": args, "exit_code": result.exit_code}
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in index.items()]
    (GOLDEN / "index.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    regenerate()
