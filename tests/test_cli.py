"""Command-line contract: formats, flag handling, and exit codes."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper

import parkmodel
from parkmodel.census import CheckResult, VerificationReport
from parkmodel.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


class TestProb:
    def test_polynomial_text(self, runner):
        result = runner.invoke(
            main, ["prob", "--alpha", "2,2,2", "--model", "naples"]
        )
        assert result.exit_code == 0
        assert "P(parks) = 2*p - p^2" in result.output

    def test_polynomial_json(self, runner):
        result = runner.invoke(
            main,
            ["prob", "--alpha", "2,2,2", "--model", "naples", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rows"] == [{"coeffs": [0, 2, -1]}]
        assert payload["meta"]["parameters"]["alpha"] == [2, 2, 2]
        assert payload["meta"]["parameters"]["p"] is None

    def test_polynomial_csv(self, runner):
        result = runner.invoke(
            main,
            ["prob", "--alpha", "2,2", "--model", "direction", "--format", "csv"],
        )
        assert result.exit_code == 0
        assert result.output == "degree,coefficient\n0,1\n1,-1\n"

    def test_evaluated_value(self, runner):
        result = runner.invoke(
            main,
            ["prob", "--alpha", "2,2,2", "--model", "naples", "--p", "1/2"],
        )
        assert result.exit_code == 0
        assert "3/4" in result.output
        assert "0.75" in result.output

    def test_evaluated_value_json(self, runner):
        result = runner.invoke(
            main,
            [
                "prob",
                "--alpha",
                "2,2,2",
                "--model",
                "naples",
                "--p",
                "1/2",
                "--format",
                "json",
            ],
        )
        payload = json.loads(result.output)
        assert payload["rows"] == [{"value": "3/4", "decimal": 0.75}]
        assert payload["meta"]["parameters"]["p"] == "1/2"

    def test_semantics_flag_reaches_the_library(self, runner):
        jump = runner.invoke(
            main,
            ["prob", "--alpha", "3,3,3", "--model", "naples", "--k", "2",
             "--semantics", "jump", "--format", "json"],
        )
        firstfit = runner.invoke(
            main,
            ["prob", "--alpha", "3,3,3", "--model", "naples", "--k", "2",
             "--semantics", "firstfit", "--format", "json"],
        )
        assert jump.exit_code == firstfit.exit_code == 0
        assert json.loads(jump.output)["rows"] == json.loads(firstfit.output)["rows"]

    def test_decimal_p_is_a_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["prob", "--alpha", "2,2", "--model", "naples", "--p", "0.5"],
        )
        assert result.exit_code == 2
        assert "exact rational" in result.output

    def test_domain_error_exits_one(self, runner):
        result = runner.invoke(
            main, ["prob", "--alpha", "1,2,9", "--model", "naples"]
        )
        assert result.exit_code == 1
        result = runner.invoke(
            main, ["prob", "--alpha", "2,2", "--model", "naples", "--k", "-1"]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("p", [[], ["--p", "1/2"]])
    def test_bad_k_exits_one_under_direction_too(self, runner, p):
        result = runner.invoke(
            main, ["prob", "--alpha", "1,1,2", "--model", "direction", "--k", "-1", *p]
        )
        assert result.exit_code == 1
        assert "backward allowance k must be >= 0, got -1" in result.output

    def test_malformed_alpha_exits_two(self, runner):
        result = runner.invoke(
            main, ["prob", "--alpha", "one,two", "--model", "naples"]
        )
        assert result.exit_code == 2

    def test_missing_model_exits_two(self, runner):
        result = runner.invoke(main, ["prob", "--alpha", "1,1"])
        assert result.exit_code == 2


class TestTable:
    def test_csv_columns(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "4", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == (
            "n,parking,expected,midpoint,naples\n"
            "1,1,1/1,1/1,1\n"
            "2,3,7/2,7/2,4\n"
            "3,16,20/1,20/1,24\n"
            "4,125,653/4,164/1,203\n"
        )

    def test_json_rows(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "5", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["meta"]["parameters"]["p"] == "1/2"
        assert payload["rows"][4] == {
            "n": 5,
            "parking": 1296,
            "expected": "6977/4",
            "midpoint": "3521/2",
            "naples": 2225,
        }

    def test_p_one_matches_naples_column(self, runner):
        result = runner.invoke(
            main, ["table", "--n-max", "4", "--p", "1", "--format", "json"]
        )
        for row in json.loads(result.output)["rows"]:
            assert row["expected"] == f"{row['naples']}/1"

    def test_p_one_json_after_int_counts(self, runner):
        result = runner.invoke(
            main, ["table", "--n-max", "3", "--p", "1", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        assert [row["naples"] for row in json.loads(result.output)["rows"]] == [1, 4, 24]

    def test_text_has_header(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "2"])
        assert result.exit_code == 0
        assert "expected" in result.output.splitlines()[0]

    def test_bad_n_max(self, runner):
        assert runner.invoke(main, ["table", "--n-max", "0"]).exit_code == 1


class TestCensus:
    def test_three_car_csv(self, runner):
        result = runner.invoke(main, ["census", "--n", "3", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == (
            "numerator,denominator,count\n"
            "0,4,3\n"
            "1,4,1\n"
            "2,4,6\n"
            "3,4,1\n"
            "4,4,16\n"
        )

    def test_text_summary_line(self, runner):
        result = runner.invoke(main, ["census", "--n", "2"])
        assert result.exit_code == 0
        assert "total 4  expectation 7/2" in result.output

    def test_json_shape(self, runner):
        result = runner.invoke(main, ["census", "--n", "2", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["rows"] == [
            {"numerator": 0, "denominator": 2, "count": 0},
            {"numerator": 1, "denominator": 2, "count": 1},
            {"numerator": 2, "denominator": 2, "count": 3},
        ]

    def test_large_sweep_is_gated(self, runner):
        gated = runner.invoke(main, ["census", "--n", "8"])
        assert gated.exit_code == 1
        assert "--allow-large" in gated.output
        assert (
            runner.invoke(
                main, ["census", "--n", "10", "--allow-large"]
            ).exit_code
            == 1
        )

    def test_threads_env_default_matches_explicit_flag(self, runner):
        direct = runner.invoke(
            main, ["census", "--n", "4", "--threads", "1", "--format", "csv"]
        )
        via_env = runner.invoke(
            main,
            ["census", "--n", "4", "--format", "csv"],
            env={"PARKMODEL_THREADS": "2"},
        )
        assert via_env.exit_code == 0
        assert via_env.output == direct.output

    def test_bad_thread_count(self, runner):
        result = runner.invoke(main, ["census", "--n", "3", "--threads", "0"])
        assert result.exit_code == 1


class TestVerify:
    @pytest.mark.parametrize(
        "check,n",
        [
            ("sandwich", "6"),
            ("monotonicity", "3"),
            ("odd-census", "4"),
            ("theorem2", "3"),
            ("circular-shift", "2"),
        ],
    )
    def test_all_checks_pass(self, runner, check, n):
        result = runner.invoke(main, ["verify", "--check", check, "--n", n])
        assert result.exit_code == 0
        assert "[PASS]" in result.output
        assert "PASSED" in result.output
        assert "[FAIL]" not in result.output

    def test_json_payload(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--check", "odd-census", "--n", "4", "--format", "json"],
        )
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert all(row["passed"] for row in payload["rows"])
        assert set(payload["findings"]) == {"1", "3", "5", "7"}
        assert all(len(v) == 4 for v in payload["findings"].values())

    def test_findings_absent_when_verifier_has_none(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--check", "monotonicity", "--n", "3", "--format", "json"],
        )
        assert "findings" not in json.loads(result.output)

    def test_failure_exits_one(self, runner, monkeypatch):
        report = VerificationReport(
            "sandwich", (CheckResult("forced", False, "injected failure"),)
        )
        monkeypatch.setattr(
            "parkmodel.cli.verify_sandwich", lambda n: report
        )
        result = runner.invoke(main, ["verify", "--check", "sandwich", "--n", "4"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output
        assert "FAILED" in result.output

    def test_unknown_check_exits_two(self, runner):
        result = runner.invoke(main, ["verify", "--check", "bogus", "--n", "3"])
        assert result.exit_code == 2

    def test_out_of_range_n_exits_one(self, runner):
        result = runner.invoke(
            main, ["verify", "--check", "odd-census", "--n", "12"]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("n,samples", [("6", "-3"), ("6", "0"), ("3", "0")])
    def test_nonpositive_samples_exit_one(self, runner, n, samples):
        result = runner.invoke(
            main,
            ["verify", "--check", "monotonicity", "--n", n, "--samples", samples],
        )
        assert result.exit_code == 1
        assert "PASSED" not in result.output

    def test_negative_seed_exits_one(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--check", "monotonicity", "--n", "6", "--samples", "50",
             "--seed", "-5"],
        )
        assert result.exit_code == 1
        assert "PASSED" not in result.output


class TestMc:
    def test_fixed_tuple_text(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--alpha", "3,1,2", "--model", "naples", "--trials", "200",
             "--seed", "5"],
        )
        assert result.exit_code == 0
        assert result.output == "mean = 1.0\nstderr = 0.0\ntrials = 200, seed = 5\n"

    @pytest.mark.parametrize(
        "args,stats",
        [
            (["--alpha", "2,2,2", "--trials", "40000"],
             {"path": "automaton", "rng_chunks": 2, "rows_walked": 40000,
              "states_peak": 2}),
            (["--alpha", ",".join(["1"] * 18), "--trials", "300"],
             {"path": "automaton", "rng_chunks": 1, "rows_walked": 300,
              "states_peak": 1}),
            (["--n", "3", "--tuple-samples", "500", "--trials-per-tuple", "2"],
             {"path": "automaton", "rng_chunks": 1, "rows_walked": 1000,
              "states_peak": 3}),
            # 50 rows x 24 cars touch fewer cells than the first two layers
            # of the all-spot automaton hold, so the chunk is replayed.
            (["--n", "24", "--tuple-samples", "50"],
             {"path": "replay", "rng_chunks": 1, "rows_walked": 50,
              "states_peak": 0}),
        ],
    )
    def test_json_meta_reports_run_stats(self, runner, args, stats):
        result = runner.invoke(
            main, ["mc", *args, "--model", "naples", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["meta"]["stats"] == stats

    def test_fixed_tuple_json(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--alpha", "3,1,2", "--model", "direction", "--trials",
             "200", "--seed", "5", "--format", "json"],
        )
        payload = json.loads(result.output)
        assert payload["rows"] == [
            {"mean": 1.0, "stderr": 0.0, "trials": 200, "seed": 5}
        ]
        assert payload["meta"]["parameters"]["p"] == "1/2"

    def test_sampled_total_scales_by_tuple_space(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--n", "2", "--model", "naples", "--tuple-samples", "400",
             "--seed", "1", "--format", "json"],
        )
        row = json.loads(result.output)["rows"][0]
        assert row["total_estimate"] == pytest.approx(row["mean"] * 4)
        assert row["trials"] == 400

    def test_csv_format(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--alpha", "1,2", "--model", "naples", "--trials", "100",
             "--seed", "0", "--format", "csv"],
        )
        assert result.output.splitlines()[0] == "mean,stderr,trials,seed"
        assert result.output.splitlines()[1] == "1.0,0.0,100,0"

    def test_alpha_and_n_are_mutually_exclusive(self, runner):
        both = runner.invoke(
            main,
            ["mc", "--alpha", "1,1", "--n", "2", "--model", "naples"],
        )
        neither = runner.invoke(main, ["mc", "--model", "naples"])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_decimal_p_exits_two(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--alpha", "1,1", "--model", "naples", "--p", "0.3"],
        )
        assert result.exit_code == 2

    def test_threads_is_not_an_mc_option(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--alpha", "1,1", "--model", "naples", "--threads", "2"],
        )
        assert result.exit_code == 2


class TestConstruct:
    def test_odd_inverse_text_is_bare_tuple(self, runner):
        result = runner.invoke(main, ["construct", "--n", "6", "--t", "4"])
        assert result.exit_code == 0
        assert result.output == "4,4,4,4,3,2\n"

    def test_zero_witness(self, runner):
        result = runner.invoke(main, ["construct", "--n", "6", "--a", "0"])
        assert result.output == "6,6,6,6,6,6\n"

    def test_json_payload(self, runner):
        result = runner.invoke(
            main, ["construct", "--n", "6", "--t", "4", "--format", "json"]
        )
        payload = json.loads(result.output)
        assert payload["rows"] == [
            {"alpha": [4, 4, 4, 4, 3, 2], "numerator": 7, "denominator": 32}
        ]

    def test_csv_quotes_the_tuple(self, runner):
        result = runner.invoke(
            main, ["construct", "--n", "6", "--t", "4", "--format", "csv"]
        )
        assert result.output == (
            'alpha,numerator,denominator\n"4,4,4,4,3,2",7,32\n'
        )

    def test_t_and_a_are_mutually_exclusive(self, runner):
        both = runner.invoke(
            main, ["construct", "--n", "6", "--t", "1", "--a", "2"]
        )
        neither = runner.invoke(main, ["construct", "--n", "6"])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_large_n_for_either_flag(self, runner):
        n = 1000
        odd = runner.invoke(main, ["construct", "--n", n, "--t", 1])
        assert odd.exit_code == 0
        assert odd.output == ",".join(map(str, [n, *range(n, 1, -1)])) + "\n"
        even = runner.invoke(main, ["construct", "--n", n, "--a", 1 << 998])
        assert even.exit_code == 0
        assert even.output == ",".join(map(str, [*range(1, 999), n, n])) + "\n"

    def test_domain_errors_exit_one(self, runner):
        assert (
            runner.invoke(main, ["construct", "--n", "2", "--a", "0"]).exit_code
            == 1
        )
        assert (
            runner.invoke(main, ["construct", "--n", "6", "--t", "0"]).exit_code
            == 1
        )


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "parkmodel" in result.output


def test_repeated_invocations_free_their_streams(runner):
    """In-process calls must not pile up one cached stdout wrapper each."""

    def live_wrappers():
        gc.collect()
        return sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())

    before = live_wrappers()
    for _ in range(200):
        result = runner.invoke(main, ["prob", "--alpha", "1,2", "--model", "naples"])
        assert result.exit_code == 0
    assert live_wrappers() - before < 10


@pytest.mark.parametrize("module", ["parkmodel", "parkmodel.cli"])
def test_python_dash_m_runs_the_cli(runner, module):
    args = ["census", "--n", "4", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == runner.invoke(main, args).output


_FRESH_CLI = """
import contextlib, io, json, sys
import parkmodel
seen = {"click_after_package": "click" in sys.modules}
import parkmodel.cli
seen["heavy_after_cli"] = sorted({"numpy", "multiprocessing"} & set(sys.modules))
for args in json.loads(sys.argv[1]):
    parkmodel.cli.main(args, standalone_mode=False)
seen["numpy_after_exact"] = "numpy" in sys.modules
seen["outputs"] = []
for args in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        parkmodel.cli.main(args, standalone_mode=False)
    seen["outputs"].append(out.getvalue())
print(json.dumps(seen))
"""


def test_numpy_loads_only_for_array_subcommands(runner):
    """Importing the CLI loads neither numpy nor multiprocessing; the exact
    subcommands never load numpy, and the array subcommands print the same
    bytes in an interpreter that loads numpy on first use."""
    exact = [
        ["prob", "--alpha", "2,2,2", "--model", "naples"],
        ["construct", "--n", "22", "--t", "1048575"],
        ["verify", "--check", "theorem2", "--n", "5"],
    ]
    arrays = [
        ["census", "--n", "4", "--format", "json"],
        ["mc", "--alpha", "1,1,2", "--model", "naples", "--trials", "100",
         "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps(exact), json.dumps(arrays)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["click_after_package"] is False
    assert seen["heavy_after_cli"] == []
    assert seen["numpy_after_exact"] is False
    assert seen["outputs"] == [runner.invoke(main, args).output for args in arrays]
