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

import contextlib
import csv
import functools
import importlib
import io
import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import __version__
from .core import DEFAULT_SEMANTICS, NaplesSemantics, RandomModel, _check_int


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


@contextlib.contextmanager
def _all_int_digits():
    """Lift the interpreter's limit on the digits str(int) prints, then restore it.

    The limit guards parsing of untrusted input, so the flag types, which
    click runs before the command body, keep it; the ints a command formats
    are the program's own, such as construct's denominator 2^(n-1), over
    4,300 digits from n = 14,286 on. Interpreters without the limit are left
    alone.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _domain_errors(f):
    """Run a command body with every int printable (_all_int_digits), and map
    library input errors to exit code 1, leaving flag errors at 2."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            with _all_int_digits():
                return f(*args, **kwargs)
        except (ValueError, TypeError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _decimal(what: str, value, scale: int = 1) -> float:
    """float(value) * scale, or a domain error where a float overflows."""
    try:
        return float(value) * scale
    except OverflowError:
        raise _too_large(what) from None


def _too_large(what: str) -> ValueError:
    return ValueError(f"{what} is too large for a float decimal")


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
    from .exact import prob_of_model, prob_of_model_at

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
        row = {"value": _frac(value), "decimal": _decimal("P(parks)", value)}
        _emit(
            fmt,
            meta,
            ["value", "decimal"],
            [row],
            [
                f"alpha = ({alpha_text})",
                f"P(parks at p={_frac(p)}) = {_frac(value)} ({row['decimal']})",
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
    from .recursions import expected_random_naples, naples_count, parking_count

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
        # json and csv print exact strings, so only text needs the floats.
        if fmt == "text":
            at = f"at n={n} (exact in --format json or csv)"
            text.append(
                f"{n:>3} {classic:>12} "
                f"{str(_decimal(f'the expected count {at}', expected)):>18} "
                f"{str(_decimal(f'the midpoint {at}', midpoint)):>18} {naples:>12}"
            )
    meta = _meta(n_max=n_max, k=k, p=_frac(p))
    _emit(fmt, meta, ["n", "parking", "expected", "midpoint", "naples"], rows, text)


@main.command()
@click.option("--n", type=int, required=True, help="Car count, at most 9; tuples swept: n^n.")
@click.option("--k", type=int, default=1, show_default=True)
@semantics_option
@click.option("--threads", type=int, default=1, hidden=True,
              help="Ignored, as the census runs in one process (the JSON meta "
              "says threads 1); still accepted (>= 1) for scripts that pass it.")
@click.option("--allow-large", is_flag=True, hidden=True, expose_value=False,
              help="Ignored, as every n up to 9 runs without it; still accepted "
              "for scripts that pass it.")
@format_option
@_domain_errors
def census(n, k, semantics, threads, fmt):
    """Histogram of parking probabilities at p = 1/2 over all n^n tuples."""
    from .census import full_census

    _check_int(threads, "threads", 1)
    result = full_census(n, k=k, semantics=semantics)
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
    meta = _meta(n=n, k=k, semantics=semantics, threads=1)
    _emit(fmt, meta, ["numerator", "denominator", "count"], rows, text)


# Each check's module and verifier, imported and looked up when it runs.
_VERIFIERS = {
    "monotonicity": ("census", "verify_monotonicity"),
    "odd-census": ("census", "verify_odd_census"),
    "odd-parity": ("census", "verify_odd_parity"),
    "sandwich": ("census", "verify_sandwich"),
    "theorem2": ("census", "verify_direction_total"),
    "circular-shift": ("circular", "verify_circular"),
}


@main.command()
@click.option(
    "--check",
    type=click.Choice(list(_VERIFIERS)),
    required=True,
    help="Which property to verify.",
)
@click.option("--n", type=int, required=True, help="Size parameter for the check.")
@format_option
@click.pass_context
@_domain_errors
def verify(ctx, check, n, fmt):
    """Run one machine-checkable property; exit 1 if it fails."""
    module, name = _VERIFIERS[check]
    report = getattr(importlib.import_module(f".{module}", __package__), name)(n)
    rows = [
        {"label": c.label, "passed": c.passed, "detail": c.detail}
        for c in report.checks
    ]
    text = [
        f"[{'PASS' if c.passed else 'FAIL'}] {c.label}: {c.detail}"
        for c in report.checks
    ]
    text.append(f"{report.name}: {'PASSED' if report.passed else 'FAILED'}")
    meta = _meta(check=check, n=n)
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
@click.pass_context
@_domain_errors
def mc(ctx, alpha, n, model, k, semantics, p, trials, tuple_samples, trials_per_tuple,
       seed, fmt):
    """Seeded simulation: one tuple's probability, or the expected total."""
    from .montecarlo import estimate_expected_total, estimate_prob

    if (alpha is None) == (n is None):
        raise click.UsageError("pass exactly one of --alpha or --n")
    # The other mode's counts would be ignored, so refuse them when typed.
    if alpha is None:
        mode, others = "--n", ["trials"]
    else:
        mode, others = "--alpha", ["tuple_samples", "trials_per_tuple"]
    for name in others:
        if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE:
            flag = "--" + name.replace("_", "-")
            raise click.UsageError(f"{flag} does not apply with {mode}")
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
        # Refuse an n**n past the float range before simulating anything,
        # and before building n**n where n^n >= 2^((bitlen(n) - 1) n) > 2^1024
        # already: that power alone takes minutes at n = 10^7.
        what = f"the expected-total estimate at n={n}"
        if (n.bit_length() - 1) * n > 1024:
            raise _too_large(what)
        scale = _decimal(what, 1, n**n)
        est = estimate_expected_total(n, **rule, p=p, tuple_samples=tuple_samples,
                                      trials_per_tuple=trials_per_tuple, seed=seed)
        meta = _meta(seed=seed, n=n, **rule, p=_frac(p), tuple_samples=tuple_samples,
                     trials_per_tuple=trials_per_tuple)
        totals = {"total_estimate": est.mean * scale, "total_stderr": est.stderr * scale}
        text = [
            f"mean parking probability = {est.mean}",
            f"stderr = {est.stderr}",
            f"expected-total estimate = {totals['total_estimate']} "
            f"(stderr {totals['total_stderr']})",
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
    from .census import tuple_for_numerator, tuple_for_odd_numerator

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
