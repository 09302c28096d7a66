"""Regenerate the golden CLI corpus in tests/golden/.

Each case runs one `parkmodel` invocation in-process through click's
CliRunner and stores its exact stdout as golden/<name>.out, and its stderr,
when there is any, as golden/<name>.err; index.json maps every name to its
arguments and exit code. test_golden.py replays the index and compares
bytes, so any change to a pinned output shows up as a diff of these files.

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
    for n in (2, 5, 9, 40):
        for fmt in ("text", "json", "csv"):
            cases[f"verify-odd-parity-n{n}-{fmt}"] = [
                "verify", "--check", "odd-parity", "--n", str(n), "--format", fmt,
            ]
    for k, semantics in ((1, "jump"), (2, "jump"), (2, "firstfit")):
        for n in range(1, 8):
            cases[f"census-n{n}-k{k}-{semantics}-json"] = [
                "census", "--n", str(n), "--k", str(k),
                "--semantics", semantics, "--format", "json",
            ]
    # Every n <= 9 runs without a flag.
    cases["census-n8-text"] = ["census", "--n", "8"]
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
    fmts = ("text", "json", "csv")
    probs = {
        "222-naples-k1": ["--alpha", "2,2,2", "--model", "naples", "--k", "1"],
        "3113-direction": ["--alpha", "3,1,1,3", "--model", "direction"],
        "14443-naples-k2-jump": [
            "--alpha", "1,4,4,4,3", "--model", "naples", "--k", "2",
            "--semantics", "jump",
        ],
        "14443-naples-k2-firstfit": [
            "--alpha", "1,4,4,4,3", "--model", "naples", "--k", "2",
            "--semantics", "firstfit",
        ],
    }
    for name, args in probs.items():
        for p, suffix in ((None, "poly"), ("1/3", "p1-3")):
            extra = [] if p is None else ["--p", p]
            for fmt in fmts:
                cases[f"prob-{name}-{suffix}-{fmt}"] = [
                    "prob", *args, *extra, "--format", fmt,
                ]
    for k in (1, 2):
        for fmt in fmts:
            cases[f"table-n6-k{k}-{fmt}"] = [
                "table", "--n-max", "6", "--k", str(k), "--format", fmt,
            ]
    for k, semantics in ((1, "jump"), (2, "jump"), (2, "firstfit")):
        for n in range(1, 7):
            for fmt in ("text", "csv"):
                cases[f"census-n{n}-k{k}-{semantics}-{fmt}"] = [
                    "census", "--n", str(n), "--k", str(k),
                    "--semantics", semantics, "--format", fmt,
                ]
    checks = {
        "monotonicity-n4": ["--check", "monotonicity", "--n", "4"],
        "monotonicity-n12": ["--check", "monotonicity", "--n", "12"],
        "sandwich-n6": ["--check", "sandwich", "--n", "6"],
        **{
            f"theorem2-n{n}": ["--check", "theorem2", "--n", str(n)]
            for n in range(1, 6)
        },
        **{
            f"circular-shift-n{n}": ["--check", "circular-shift", "--n", str(n)]
            for n in range(1, 5)
        },
    }
    for name, args in checks.items():
        for fmt in fmts:
            cases[f"verify-{name}-{fmt}"] = ["verify", *args, "--format", fmt]
    for name, args in {"t3": ["--t", "3"], "a6": ["--a", "6"]}.items():
        for fmt in fmts:
            cases[f"construct-n5-{name}-{fmt}"] = [
                "construct", "--n", "5", *args, "--format", fmt,
            ]
    for fmt in fmts:
        cases[f"mc-n4-k1-jump-tpt4-{fmt}"] = [
            "mc", "--n", "4", *rules["k1-jump"], "--tuple-samples", "1000",
            "--trials-per-tuple", "4", "--seed", "3", "--format", fmt,
        ]
    # One sample of several trials: the stderr of a single observation is 0.
    cases["mc-n3-k1-jump-one-sample-json"] = [
        "mc", "--n", "3", *rules["k1-jump"], "--tuple-samples", "1",
        "--trials-per-tuple", "4", "--seed", "3", "--format", "json",
    ]
    for name, args in alphas.items():
        for p in ("0", "1"):
            cases[f"mc-alpha-{name}-p{p}-json"] = [
                "mc", *args, "--p", p, "--trials", "1000", "--seed", "3",
                "--format", "json",
            ]
    # Exit 2: malformed flags, refused by click before any command runs.
    cases.update({
        "prob-p-zero-denominator-exit2": [
            "prob", "--alpha", "2,2", "--model", "naples", "--p", "1/0",
        ],
        "prob-p-not-rational-exit2": [
            "prob", "--alpha", "2,2", "--model", "naples", "--p", "abc",
        ],
        "prob-p-decimal-exit2": [
            "prob", "--alpha", "2,2", "--model", "naples", "--p", "0.5",
        ],
        "prob-alpha-not-integers-exit2": ["prob", "--alpha", "1,x", "--model", "naples"],
        "prob-no-model-exit2": ["prob", "--alpha", "1,1"],
        "mc-alpha-and-n-exit2": ["mc", "--alpha", "1,1", "--n", "2", "--model", "naples"],
        "mc-n-with-trials-exit2": [
            "mc", "--n", "3", "--model", "naples", "--trials", "5",
        ],
        "construct-neither-exit2": ["construct", "--n", "3"],
    })
    # Exit 1: well-formed flags the library refuses.
    cases.update({
        "prob-alpha-out-of-range-exit1": [
            "prob", "--alpha", "4,1,1", "--model", "naples",
        ],
        "prob-direction-negative-k-exit1": [
            "prob", "--alpha", "1,1", "--model", "direction", "--k", "-1",
        ],
        "table-n0-exit1": ["table", "--n-max", "0"],
        "verify-theorem2-n8-exit1": ["verify", "--check", "theorem2", "--n", "8"],
        "verify-odd-census-n1-exit1": ["verify", "--check", "odd-census", "--n", "1"],
        "verify-odd-parity-n101-exit1": ["verify", "--check", "odd-parity", "--n", "101"],
        "mc-p-above-one-exit1": ["mc", "--n", "3", "--model", "naples", "--p", "3/2"],
        "construct-t-out-of-range-exit1": ["construct", "--n", "3", "--t", "9"],
        # A decimal past the float range is a domain error, not a traceback.
        "table-n144-text-overflow-exit1": ["table", "--n-max", "144"],
        "mc-n144-naples-overflow-exit1": [
            "mc", "--n", "144", "--model", "naples", "--tuple-samples", "10",
        ],
        "prob-p-1e200-overflow-exit1": [
            "prob", "--alpha", "2,2,2", "--model", "naples", "--p", "1" + "0" * 200,
        ],
    })
    # k = 2 with no --semantics reads the default Naples reading, so a change
    # of that default shows up as a diff of these files.
    k2 = ["--model", "naples", "--k", "2"]
    for fmt in ("text", "json"):
        cases[f"prob-14443-naples-k2-default-{fmt}"] = [
            "prob", "--alpha", "1,4,4,4,3", *k2, "--format", fmt,
        ]
    cases["census-n5-k2-default-json"] = [
        "census", "--n", "5", "--k", "2", "--format", "json",
    ]
    cases["mc-n5-k2-default-json"] = [
        "mc", "--n", "5", *k2, "--tuple-samples", "1000", "--seed", "3",
        "--format", "json",
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
        if result.stderr_bytes:
            (GOLDEN / f"{name}.err").write_bytes(result.stderr_bytes)
        index[name] = {"args": args, "exit_code": result.exit_code}
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in index.items()]
    (GOLDEN / "index.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    regenerate()
