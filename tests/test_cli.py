"""Command-line contract: formats, flag handling, and exit codes."""

import gc
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper

import parkmodel
from parkmodel.census import CheckResult, VerificationReport
from parkmodel.cli import main
from parkmodel.recursions import expected_random_naples


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

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_value_past_the_float_range_exits_one(self, runner, fmt):
        result = runner.invoke(
            main,
            ["prob", "--alpha", "2,2,2", "--model", "naples", "--p", "1" + "0" * 200,
             "--format", fmt],
        )
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "Error: P(parks) is too large for a float decimal\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_value_past_the_int_digit_limit(self, runner, fmt):
        # 3^9099 has 4,342 digits, past the interpreter's default limit on
        # str(int), and the value is formatted before any line is printed.
        limit = sys.get_int_max_str_digits()
        result = runner.invoke(
            main,
            ["prob", "--alpha", ",".join(["1"] * 9100), "--model", "direction",
             "--p", "1/3", "--format", fmt],
        )
        assert result.exit_code == 0, result.output
        assert sys.get_int_max_str_digits() == limit
        if fmt == "text":
            value = result.output.splitlines()[1].split(" = ")[1].split(" ")[0]
        elif fmt == "json":
            value = json.loads(result.output)["rows"][0]["value"]
        else:
            value = result.output.splitlines()[1].split(",")[0]
        numerator, denominator = value.split("/")
        assert numerator == "1"
        assert int(Decimal(denominator)) == 3**9099

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

    def test_exact_formats_pass_the_float_range(self, runner):
        # The n = 144 expectation is past the float range, so only the text
        # lines need a float; json and csv carry exact strings at any n.
        payload = json.loads(
            runner.invoke(main, ["table", "--n-max", "144", "--format", "json"]).output
        )
        top = payload["rows"][-1]
        assert top["n"] == 144 and top["parking"] == 145**143
        assert Fraction(top["expected"]) == expected_random_naples(144, 1, Fraction(1, 2))
        csv = runner.invoke(main, ["table", "--n-max", "144", "--format", "csv"])
        assert csv.exit_code == 0
        assert csv.output.splitlines()[-1].split(",")[2] == top["expected"]

    def test_values_past_a_lowered_int_digit_limit(self, runner):
        # 640 is the lowest limit the interpreter allows on str(int); at
        # n = 260 the expected count's numerator has 666 digits.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = runner.invoke(main, ["table", "--n-max", "260", "--format", "json"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0, result.output
        top = json.loads(result.output)["rows"][-1]
        assert top["n"] == 260
        assert len(top["expected"].split("/")[0]) == 666
        assert Fraction(top["expected"]) == expected_random_naples(260, 1, Fraction(1, 2))

    def test_text_fits_a_float_up_to_n_143(self, runner):
        result = runner.invoke(main, ["table", "--n-max", "143"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 144
        result = runner.invoke(main, ["table", "--n-max", "144"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "n=144" in result.stderr and "Traceback" not in result.stderr


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

    def test_nine_cars_need_no_flag(self, runner):
        result = runner.invoke(main, ["census", "--n", "9", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "256,256,100000000"

    def test_ten_cars_are_refused_even_with_allow_large(self, runner):
        result = runner.invoke(main, ["census", "--n", "10", "--allow-large"])
        assert result.exit_code == 1
        assert "the supported maximum is 9" in result.output

    def test_ignored_flags_change_nothing(self, runner):
        plain = runner.invoke(main, ["census", "--n", "5", "--format", "json"])
        flagged = runner.invoke(
            main,
            ["census", "--n", "5", "--allow-large", "--threads", "2",
             "--format", "json"],
        )
        assert flagged.exit_code == plain.exit_code == 0
        assert flagged.output == plain.output

    def test_threads_env_is_not_read(self, runner):
        args = ["census", "--n", "4", "--format", "json"]
        via_env = runner.invoke(main, args, env={"PARKMODEL_THREADS": "0"})
        assert via_env.exit_code == 0
        assert via_env.output == runner.invoke(main, args).output

    def test_bad_thread_count(self, runner):
        result = runner.invoke(main, ["census", "--n", "3", "--threads", "0"])
        assert result.exit_code == 1
        assert "threads must be >= 1, got 0" in result.output


class TestVerify:
    @pytest.mark.parametrize(
        "check,n",
        [
            ("sandwich", "6"),
            ("monotonicity", "3"),
            ("odd-census", "4"),
            ("odd-parity", "6"),
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
            "parkmodel.census.verify_sandwich", lambda n: report
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
            main, ["verify", "--check", "odd-census", "--n", "17"]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "check, what, hi",
        [("theorem2", "direction-total", 7), ("circular-shift", "circular", 4)],
    )
    def test_nonpositive_n_gets_the_sweep_range(self, runner, check, what, hi):
        result = runner.invoke(main, ["verify", "--check", check, "--n", "0"])
        assert result.exit_code == 1
        assert result.stderr == f"Error: the {what} sweep supports 1 <= n <= {hi}, got 0\n"

    @pytest.mark.parametrize("flag", [["--samples", "10"], ["--seed", "1"]])
    def test_removed_sampling_flags_exit_two(self, runner, flag):
        result = runner.invoke(
            main, ["verify", "--check", "monotonicity", "--n", "4", *flag]
        )
        assert result.exit_code == 2
        assert "No such option" in result.stderr

    @pytest.mark.parametrize("n", ["1", "13"])
    def test_monotonicity_n_outside_the_sweep_exits_one(self, runner, n):
        result = runner.invoke(main, ["verify", "--check", "monotonicity", "--n", n])
        assert result.exit_code == 1
        assert result.stderr == (
            f"Error: the monotonicity sweep supports 2 <= n <= 12, got {n}\n"
        )


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

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_total_past_the_float_range_exits_one(self, runner, fmt):
        # 144^144 overflows a float; 143^143 does not.
        args = ["mc", "--model", "naples", "--tuple-samples", "10", "--format", fmt]
        assert runner.invoke(main, [*args, "--n", "143"]).exit_code == 0
        result = runner.invoke(main, [*args, "--n", "144"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == (
            "Error: the expected-total estimate at n=144 is too large for a float decimal\n"
        )

    def test_total_past_the_float_range_simulates_nothing(self, runner, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a total that cannot be printed")

        monkeypatch.setattr("parkmodel.montecarlo.estimate_expected_total", refuse)
        result = runner.invoke(main, ["mc", "--n", "144", "--model", "naples"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == (
            "Error: the expected-total estimate at n=144 is too large for a float decimal\n"
        )

    def test_huge_n_is_refused_without_building_its_power(self):
        # 10^7 ** 10^7 alone takes minutes to build; the refusal must not.
        env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "parkmodel", "mc", "--n", "10000000",
             "--model", "naples"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "Error: the expected-total estimate at n=10000000 is too large for a "
            "float decimal\n"
        )

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

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["--n", "3", "--trials", "7"], "--trials"),
            (["--alpha", "1,1", "--tuple-samples", "4"], "--tuple-samples"),
            (["--alpha", "1,1", "--trials-per-tuple", "2"], "--trials-per-tuple"),
        ],
    )
    def test_other_modes_count_exits_two(self, runner, args, flag):
        result = runner.invoke(main, ["mc", *args, "--model", "naples"])
        assert result.exit_code == 2
        assert f"{flag} does not apply with" in result.output

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_denominator_past_the_int_digit_limit(self, runner, fmt):
        # 2^14285 has 4,301 digits, one past the interpreter's default limit
        # on str(int); Decimal reads them back without that limit.
        limit = sys.get_int_max_str_digits()
        result = runner.invoke(
            main, ["construct", "--n", "14286", "--t", "1", "--format", fmt]
        )
        assert result.exit_code == 0, result.output
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            row = json.loads(result.output, parse_int=str)["rows"][0]
            numerator, denominator = row["numerator"], row["denominator"]
        else:
            numerator, denominator = result.output.splitlines()[1].split(",")[-2:]
        assert numerator == "1"
        assert len(denominator) == 4301
        assert int(Decimal(denominator)) == 1 << 14285

    def test_flags_keep_the_int_digit_limit(self, runner):
        p = "1/" + "7" * 4301
        result = runner.invoke(
            main, ["prob", "--alpha", "1", "--model", "naples", "--p", p]
        )
        assert result.exit_code == 2
        assert "Exceeds the limit" in result.output

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
def loaded():
    return sorted(m for m in sys.modules if m.startswith("parkmodel") or m == "numpy")
import parkmodel
seen = {"click_after_package": "click" in sys.modules, "after_package": loaded()}
import parkmodel.cli
seen["heavy_after_cli"] = sorted({"numpy", "multiprocessing"} & set(sys.modules))
seen["after_cli"] = loaded()
seen["after_exact"] = []
for args in json.loads(sys.argv[1]):
    parkmodel.cli.main(args, standalone_mode=False)
    seen["after_exact"].append(loaded())
seen["outputs"] = []
for args in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        parkmodel.cli.main(args, standalone_mode=False)
    seen["outputs"].append(out.getvalue())
print(json.dumps(seen))
"""


def test_numpy_loads_only_for_array_subcommands(runner):
    """Importing the package loads no submodule, and the CLI only core, with
    neither numpy nor multiprocessing; each exact subcommand loads only the
    modules it calls and never numpy, and the array subcommands print the
    same bytes in an interpreter that loads numpy on first use."""
    exact = [  # each command, then the parkmodel modules it must not load
        (["prob", "--alpha", "2,2,2", "--model", "naples"],
         {"census", "montecarlo", "circular"}),
        (["table", "--n-max", "8"], {"census", "montecarlo", "circular"}),
        (["construct", "--n", "22", "--t", "1048575"], {"montecarlo", "circular"}),
        (["verify", "--check", "odd-census", "--n", "7"], {"montecarlo", "circular"}),
        (["verify", "--check", "theorem2", "--n", "5"], {"montecarlo", "circular"}),
        (["verify", "--check", "odd-parity", "--n", "20"], {"montecarlo", "circular"}),
    ]
    arrays = [
        ["census", "--n", "4", "--format", "json"],
        ["mc", "--alpha", "1,1,2", "--model", "naples", "--trials", "100",
         "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps([args for args, _ in exact]),
         json.dumps(arrays)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["click_after_package"] is False
    assert seen["after_package"] == ["parkmodel"]
    assert seen["heavy_after_cli"] == []
    assert seen["after_cli"] == ["parkmodel", "parkmodel.cli", "parkmodel.core"]
    for (args, absent), after in zip(exact, seen["after_exact"]):
        assert "numpy" not in after, args
        assert {f"parkmodel.{m}" for m in absent}.isdisjoint(after), (args, after)
    assert after == ["parkmodel", "parkmodel.census", "parkmodel.cli", "parkmodel.core",
                     "parkmodel.exact", "parkmodel.recursions"]
    assert seen["outputs"] == [runner.invoke(main, args).output for args in arrays]
