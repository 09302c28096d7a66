"""Command-line surface over the exact and simulated parking machinery.

Six subcommands: prob (one tuple's exact parking probability), table (the
expected-count columns for n = 1..n_max), census (the full probability
histogram at p = 1/2), verify (report-producing property checks, exit 1 on
failure), mc (seeded simulation), and construct (tuples hitting a requested
probability). Every subcommand takes --format text|json|csv; rationals
serialize as "numerator/denominator" strings and polynomials as ascending
coefficient arrays. Exit codes: 0 success, 1 domain or verification
failure, 2 malformed flags.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from fractions import Fraction

import click

from . import __version__
from .census import (
    full_census,
    tuple_for_numerator,
    tuple_for_odd_numerator,
    verify_direction_total,
    verify_monotonicity,
    verify_odd_census,
    verify_sandwich,
)
from .circular import verify_circular
from .core import DEFAULT_SEMANTICS, NaplesSemantics, RandomModel
from .exact import prob_of_model, prob_of_model_at
from .montecarlo import estimate_expected_total, estimate_prob
from .recursions import expected_random_naples, naples_count, parking_count


class RationalType(click.ParamType):
    """Exact rational flag: an integer or "a/b". Decimals are rejected."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        text = str(value).strip()
        if "." in text:
            self.fail(
                f"{text!r} looks like a decimal; write an exact rational such as 1/2",
                param,
                ctx,
            )
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            self.fail(f"{text!r} is not a rational number: {exc}", param, ctx)


class AlphaType(click.ParamType):
    """Comma-separated preference tuple, e.g. 1,2,2,1."""

    name = "alpha"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            return tuple(int(part) for part in str(value).split(","))
        except ValueError:
            self.fail(
                f"{value!r} is not a comma-separated integer tuple", param, ctx
            )


RATIONAL = RationalType()
ALPHA = AlphaType()

def _domain_errors(f):
    """Map library input errors to exit code 1, leaving flag errors at 2."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (ValueError, TypeError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _echo(text: str, nl: bool = True) -> None:
    # Without a file, click caches a wrapper per sys.stdout it sees, and the
    # cache never frees the fresh stdout each in-process invocation installs.
    click.echo(text, file=sys.stdout, nl=nl)


def _emit(fmt: str, meta: dict, header: list, rows: list, text_lines: list,
          json_rows: list | None = None, **extra) -> None:
    """Print rows in fmt; JSON prints json_rows when given, then the extra keys."""
    if fmt == "json":
        payload = {"meta": meta, "rows": rows if json_rows is None else json_rows}
        _echo(json.dumps({**payload, **extra}, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[col] for col in header])
        _echo(buf.getvalue(), nl=False)
    else:
        for line in text_lines:
            _echo(line)


def _meta(seed=None, **parameters) -> dict:
    return {"version": __version__, "parameters": parameters, "seed": seed}


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
    help="Output format.",
)
model_option = click.option(
    "--model",
    type=click.Choice([m.value for m in RandomModel]),
    required=True,
    help="Which randomized rule a blocked car follows.",
)
semantics_option = click.option(
    "--semantics",
    type=click.Choice([s.value for s in NaplesSemantics]),
    default=DEFAULT_SEMANTICS.value,
    show_default=True,
    help="Backward reading for k >= 2.",
)


@click.group()
@click.version_option(version=__version__, prog_name="parkmodel")
def main():
    """Exact and simulated analysis of two randomized parking models."""


@main.command()
@click.option("--alpha", type=ALPHA, required=True, help="Preference tuple, e.g. 2,2,2.")
@model_option
@click.option("--k", type=int, default=1, show_default=True, help="Backward allowance (naples).")
@semantics_option
@click.option("--p", type=RATIONAL, default=None, help="Evaluate at this exact rational.")
@format_option
@_domain_errors
def prob(alpha, model, k, semantics, p, fmt):
    """Exact parking probability of one tuple, as a polynomial or a rational."""
    alpha_text = ",".join(str(a) for a in alpha)
    meta = _meta(alpha=list(alpha), model=model, k=k, semantics=semantics,
                 p=_frac(p) if p is not None else None)
    if p is None:
        poly = prob_of_model(alpha, model, k=k, semantics=semantics)
        coeffs = list(poly.coeffs)
        _emit(
            fmt,
            meta,
            ["degree", "coefficient"],
            [{"degree": d, "coefficient": c} for d, c in enumerate(coeffs)],
            [f"alpha = ({alpha_text})", f"P(parks) = {poly}"],
            json_rows=[{"coeffs": coeffs}],
        )
    else:
        value = prob_of_model_at(alpha, model, p, k=k, semantics=semantics)
        row = {"value": _frac(value), "decimal": float(value)}
        _emit(
            fmt,
            meta,
            ["value", "decimal"],
            [row],
            [
                f"alpha = ({alpha_text})",
                f"P(parks at p={_frac(p)}) = {_frac(value)} ({float(value)})",
            ],
        )


@main.command()
@click.option("--n-max", type=int, required=True, help="Largest car count to tabulate.")
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--p", type=RATIONAL, default=Fraction(1, 2), show_default="1/2")
@format_option
@_domain_errors
def table(n_max, k, p, fmt):
    """Expected-count columns per n: classic, random-naples, midpoint, naples."""
    if n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {n_max}")
    rows = []
    text = [f"{'n':>3} {'parking':>12} {'expected':>18} {'midpoint':>18} {'naples':>12}"]
    for n in range(1, n_max + 1):
        classic = parking_count(n)
        expected = expected_random_naples(n, k, p)
        naples = naples_count(n, k)
        midpoint = Fraction(classic + naples, 2)
        rows.append(
            {
                "n": n,
                "parking": classic,
                "expected": _frac(expected),
                "midpoint": _frac(midpoint),
                "naples": naples,
            }
        )
        text.append(
            f"{n:>3} {classic:>12} {str(float(expected)):>18} "
            f"{str(float(midpoint)):>18} {naples:>12}"
        )
    meta = _meta(n_max=n_max, k=k, p=_frac(p))
    _emit(fmt, meta, ["n", "parking", "expected", "midpoint", "naples"], rows, text)


@main.command()
@click.option("--n", type=int, required=True, help="Car count; tuples swept: n^n.")
@click.option("--k", type=int, default=1, show_default=True)
@semantics_option
@click.option(
    "--threads",
    type=int,
    default=1,
    show_default=True,
    envvar="PARKMODEL_THREADS",
    help="Worker processes; the result is identical for any value.",
)
@click.option(
    "--allow-large", is_flag=True, help="Permit the n = 8 and n = 9 sweeps."
)
@format_option
@_domain_errors
def census(n, k, semantics, threads, allow_large, fmt):
    """Histogram of parking probabilities at p = 1/2 over all n^n tuples."""
    result = full_census(
        n, k=k, semantics=semantics, threads=threads, allow_large=allow_large
    )
    rows = [
        {"numerator": a, "denominator": result.denominator, "count": c}
        for a, c in result.items()
    ]
    text = [f"{'numerator':>10} {'denominator':>12} {'count':>12}"]
    for row in rows:
        text.append(
            f"{row['numerator']:>10} {row['denominator']:>12} {row['count']:>12}"
        )
    text.append(f"total {result.total()}  expectation {_frac(result.expectation())}")
    meta = _meta(n=n, k=k, semantics=semantics, threads=threads)
    _emit(fmt, meta, ["numerator", "denominator", "count"], rows, text)


@main.command()
@click.option(
    "--check",
    type=click.Choice(
        ["monotonicity", "odd-census", "sandwich", "theorem2", "circular-shift"]
    ),
    required=True,
    help="Which property to verify.",
)
@click.option("--n", type=int, required=True, help="Size parameter for the check.")
@click.option("--samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@format_option
@click.pass_context
@_domain_errors
def verify(ctx, check, n, samples, seed, fmt):
    """Run one machine-checkable property; exit 1 if it fails."""
    if check == "monotonicity":
        report = verify_monotonicity(n, samples=samples, seed=seed)
    elif check == "odd-census":
        report = verify_odd_census(n)
    elif check == "sandwich":
        report = verify_sandwich(n)
    elif check == "theorem2":
        report = verify_direction_total(n)
    else:
        report = verify_circular(n)
    rows = [
        {"label": c.label, "passed": c.passed, "detail": c.detail}
        for c in report.checks
    ]
    text = [
        f"[{'PASS' if c.passed else 'FAIL'}] {c.label}: {c.detail}"
        for c in report.checks
    ]
    text.append(f"{report.name}: {'PASSED' if report.passed else 'FAILED'}")
    meta = _meta(seed=seed, check=check, n=n, samples=samples)
    extra = {"passed": report.passed}
    if report.findings is not None:
        extra["findings"] = {str(k): v for k, v in report.findings.items()}
    _emit(fmt, meta, ["label", "passed", "detail"], rows, text, **extra)
    if not report.passed:
        ctx.exit(1)


@main.command()
@click.option("--alpha", type=ALPHA, default=None, help="Fixed tuple to simulate.")
@click.option("--n", type=int, default=None, help="Sample tuples of this length instead.")
@model_option
@click.option("--k", type=int, default=1, show_default=True)
@semantics_option
@click.option("--p", type=RATIONAL, default=Fraction(1, 2), show_default="1/2")
@click.option("--trials", type=int, default=100_000, show_default=True,
              help="Simulation runs (fixed-tuple mode).")
@click.option("--tuple-samples", type=int, default=100_000, show_default=True,
              help="Sampled tuples (expected-total mode).")
@click.option("--trials-per-tuple", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@format_option
@_domain_errors
def mc(alpha, n, model, k, semantics, p, trials, tuple_samples, trials_per_tuple,
       seed, fmt):
    """Seeded simulation: one tuple's probability, or the expected total."""
    if (alpha is None) == (n is None):
        raise click.UsageError("pass exactly one of --alpha or --n")
    rule = {"model": model, "k": k, "semantics": semantics}
    if alpha is not None:
        est = estimate_prob(alpha, **rule, p=p, trials=trials, seed=seed)
        meta = _meta(seed=seed, alpha=list(alpha), **rule, p=_frac(p), trials=trials)
        totals = {}
        text = [
            f"mean = {est.mean}",
            f"stderr = {est.stderr}",
            f"trials = {est.trials}, seed = {est.seed}",
        ]
    else:
        est = estimate_expected_total(n, **rule, p=p, tuple_samples=tuple_samples,
                                      trials_per_tuple=trials_per_tuple, seed=seed)
        meta = _meta(seed=seed, n=n, **rule, p=_frac(p), tuple_samples=tuple_samples,
                     trials_per_tuple=trials_per_tuple)
        scale = n**n
        totals = {"total_estimate": est.mean * scale,
                  "total_stderr": est.stderr * scale}
        text = [
            f"mean parking probability = {est.mean}",
            f"stderr = {est.stderr}",
            f"expected-total estimate = {est.mean * scale} "
            f"(stderr {est.stderr * scale})",
            f"tuple samples = {est.trials}, seed = {est.seed}",
        ]
    meta["stats"] = est.stats
    row = {"mean": est.mean, "stderr": est.stderr, "trials": est.trials,
           "seed": est.seed, **totals}
    _emit(fmt, meta, list(row), [row], text)


@main.command()
@click.option("--n", type=int, required=True, help="Tuple length.")
@click.option("--t", type=int, default=None,
              help="Build the unique tuple with probability (2t-1)/2^(n-1).")
@click.option("--a", type=int, default=None,
              help="Build some tuple with probability a/2^(n-1).")
@format_option
@_domain_errors
def construct(n, t, a, fmt):
    """Constructive inverses: a tuple hitting a requested probability."""
    if (t is None) == (a is None):
        raise click.UsageError("pass exactly one of --t or --a")
    if t is not None:
        alpha = tuple_for_odd_numerator(n, t)
        numerator = 2 * t - 1
    else:
        alpha = tuple_for_numerator(n, a)
        numerator = a
    alpha_text = ",".join(str(x) for x in alpha)
    row = {
        "alpha": alpha_text,
        "numerator": numerator,
        "denominator": 1 << (n - 1),
    }
    _emit(
        fmt,
        _meta(n=n, t=t, a=a),
        ["alpha", "numerator", "denominator"],
        [row],
        [alpha_text],
        json_rows=[{**row, "alpha": list(alpha)}],
    )


if __name__ == "__main__":
    main(prog_name="parkmodel")
