"""The three workloads: seeded operations, each with its own output check.

Every operation enters parkmodel through a public entry point: a CLI
subcommand run in-process with ``--format json``, or a library call where no
subcommand exists. An operation's ``run`` is the timed part; its ``check``
runs afterwards, untimed, and decides whether the output was right. Exact
reference values are computed once per run, outside every timed region.

``metric`` names the operation-level figure the run time feeds (see
``run.OP_SECONDS``). ``known_defect`` marks an operation that is expected
to fail on the current code; its failures are still counted in ``failed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from random import Random
from typing import Callable

from click.testing import CliRunner

import parkmodel as pm
import parkmodel.cli
from parkmodel import NaplesSemantics, RandomModel

HALF = Fraction(1, 2)
SEMANTICS = {"jump": NaplesSemantics.JUMP_BACK_THEN_FORWARD,
             "firstfit": NaplesSemantics.FIRST_FIT_BACKWARD}
MODELS = {"direction": RandomModel.DIRECTION, "naples": RandomModel.NAPLES}

# (model, k, semantics) combinations for the exact prob stream.
PROB_MODES = [("direction", 1, "jump"), ("naples", 1, "jump"),
              ("naples", 2, "jump"), ("naples", 2, "firstfit")]

REPLAY_TAIL = 6

PACK_OVERFLOW = (
    "estimate_prob packs choice bits into uint64, which overflows above 64 cars "
    "(mean 0.0 where the exact value is 1); left unfixed on purpose"
)


@dataclass
class Op:
    label: str
    metric: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_defect: str = ""


@dataclass
class Workload:
    passes: list[Op]  # repeated every pass; the workload's wall_s covers these
    once: list[Op] = field(default_factory=list)  # traced run only, before the passes


# Operation sizes; "smoke" shrinks everything so the benchmark's own smoke
# test finishes in seconds.
SIZES = {
    "full": dict(census_big=8, census=7, odd=7, theorem2=7, semantics=(6, 2),
                 construct_n=21, construct_t_max=1 << 12, construct_k=8,
                 prob_typical=400, prob_heavy=range(10, 20), prob_dir_heavy=(16, 18),
                 circular=4, lookup_trials=1_000_000, replay_lengths=(18, 24, 30),
                 replay_trials=30_000, total_n=10, total_samples=100_000,
                 overflow_trials=5_000),
    "smoke": dict(census_big=5, census=4, odd=4, theorem2=4, semantics=(4, 2),
                  construct_n=8, construct_t_max=1 << 6, construct_k=4,
                  prob_typical=20, prob_heavy=range(6, 9), prob_dir_heavy=(8,),
                  circular=3, lookup_trials=20_000, replay_lengths=(18,),
                  replay_trials=500, total_n=6, total_samples=2_000,
                  overflow_trials=200),
}


class Cli:
    """Runs parkmodel subcommands in-process and returns their JSON output.

    A run that exits non-zero or prints no JSON returns the exit code, which
    every check rejects.
    """

    def __init__(self, tracer):
        self.runner = CliRunner()
        self.tracer = tracer

    def __call__(self, *args):
        with self.tracer.span("cli.invoke"):
            res = self.runner.invoke(
                parkmodel.cli.main, [*map(str, args), "--format", "json"]
            )
        if res.exit_code != 0:
            return res.exit_code
        return json.loads(res.stdout)


def _is_json(out) -> bool:
    return isinstance(out, dict)


def _verify_passed(out) -> bool:
    return _is_json(out) and out["passed"] is True and all(r["passed"] for r in out["rows"])


def _histogram(out) -> dict[int, int]:
    return {r["numerator"]: r["count"] for r in out["rows"]}


def _census_ok(out, n: int, k: int, semantics: str) -> bool:
    """Total is n^n; where the recursion counts the rule, so is the expectation."""
    if not _is_json(out):
        return False
    hist = _histogram(out)
    if sum(hist.values()) != n**n:
        return False
    if k == 1 or semantics == "firstfit":
        den = out["rows"][0]["denominator"]
        got = Fraction(sum(a * c for a, c in hist.items()), den)
        return got == pm.expected_random_naples(n, k, HALF)
    return True


def _first_free(occ: int, spot: int, n: int) -> int:
    while spot <= n and occ >> (spot - 1) & 1:
        spot += 1
    return spot if spot <= n else 0


def naples_choice_count(prefs) -> int:
    """Choice vectors out of 2^(n-1) that park prefs under the k=1 Naples rule.

    An occupancy-mask DP written here, independent of the library: a car
    whose spot is free leaves its bit unconsulted (both values park it the
    same way), a blocked car branches forward from a+1 or back to a-1 and
    then forward. Car 1 has no bit.
    """
    n = len(prefs)
    states = {0: 1}
    for i, a in enumerate(prefs):
        new: dict[int, int] = {}
        for occ, w in states.items():
            if not occ >> (a - 1) & 1:
                moves = [(a, 2 * w if i else w)]
            else:
                moves = [(_first_free(occ, a + 1, n), w),
                         (_first_free(occ, max(a - 1, 1), n), w)]
            for s, weight in moves:
                if s:
                    key = occ | 1 << (s - 1)
                    new[key] = new.get(key, 0) + weight
        states = new
    return sum(states.values())


def _is_staircase(a) -> bool:
    return (len(a) >= 2 and a[0] == a[1] and a[-1] == 2
            and all(y in (x, x - 1) for x, y in zip(a[1:], a[2:])))


def _sweep(rng: Random, cli: Cli, z: dict) -> Workload:
    big, n, shared = z["census_big"], z["census"], {}

    def census_big_ok(out):
        shared["hist"] = _histogram(out) if _is_json(out) else None
        return _census_ok(out, big, 1, "jump")

    def pool_ok(out):
        return (_census_ok(out, big, 1, "jump")
                and shared.get("hist") is not None and _histogram(out) == shared["hist"])

    passes = [
        *[Op(f"census n={n} k={k} {sem}", "census7_s",
             lambda k=k, sem=sem: cli("census", "--n", n, "--k", k, "--semantics", sem),
             lambda out, k=k, sem=sem: _census_ok(out, n, k, sem))
          for k, sem in ((1, "jump"), (2, "jump"), (2, "firstfit"))],
        Op(f"verify odd-census n={z['odd']}", "odd_census_s",
           lambda: cli("verify", "--check", "odd-census", "--n", z["odd"]), _verify_passed),
    ]
    rng.shuffle(passes)
    # The n=8 sweeps take seconds each, too long to repeat every pass, so they
    # run in the traced run only; the 2-process histogram must equal the
    # 1-process one.
    once = [
        Op(f"census n={big}", "census8_s",
           lambda: cli("census", "--n", big, "--allow-large"), census_big_ok),
        Op(f"census n={big} threads=2", "census8_pool_s",
           lambda: cli("census", "--n", big, "--allow-large", "--threads", 2), pool_ok),
    ]
    return Workload(passes, once)


def _prob_op(alpha, model, k, semantics) -> Op:
    m, sem = MODELS[model], SEMANTICS[semantics]

    def check(poly) -> bool:
        c = poly.coeffs
        p0, p1 = (c[0] if c else 0), sum(c)
        forward = int(pm.park_forward(alpha).parked_all)
        if model == "direction":
            backward = pm.park_with_choices(alpha, 0, m).parked_all
            ends = (int(backward), forward)
        else:
            ends = (forward, int(pm.park_naples_det(alpha, k, sem).parked_all))
        return (p0, p1) == ends and poly.degree <= len(alpha) - 1

    return Op(f"prob {model} k={k} {semantics} {alpha}", "prob",
              lambda: pm.prob_of_model(alpha, m, k=k, semantics=sem), check)


def _exact(rng: Random, cli: Cli, z: dict) -> Workload:
    once = [Op(f"verify theorem2 n={z['theorem2']}", "theorem2_s",
               lambda: cli("verify", "--check", "theorem2", "--n", z["theorem2"]),
               _verify_passed)]

    sn, sk = z["semantics"]

    def semantics_ok(report) -> bool:
        rec = str(pm.expected_random_naples(sn, sk, HALF))
        return report.passed and report.findings["recursion"] == rec == report.findings["firstfit"]

    ops = [Op(f"compare_naples_semantics({sn}, {sk})", "semantics_s",
              lambda: pm.compare_naples_semantics(sn, sk), semantics_ok)]

    # One t from each of construct_k equal strata, so the summed cost (which
    # grows with t) barely moves between seeds.
    cn, width = z["construct_n"], z["construct_t_max"] // z["construct_k"]
    for j in range(z["construct_k"]):
        t = rng.randint(j * width + 1, (j + 1) * width)

        def construct_ok(out, t=t) -> bool:
            if not _is_json(out):
                return False
            row = out["rows"][0]
            alpha = tuple(row["alpha"])
            return (row["numerator"] == 2 * t - 1 and row["denominator"] == 1 << (cn - 1)
                    and len(alpha) == cn and _is_staircase(alpha)
                    and naples_choice_count(alpha) == 2 * t - 1)

        ops.append(Op(f"construct n={cn} t={t}", "construct_s",
                      lambda t=t: cli("construct", "--n", cn, "--t", t), construct_ok))

    # Typical uniform tuples set the median; runs of equal preferences, whose
    # choice trees grow as 2^(length-1), make the tail. The heavy shapes are
    # fixed so the stream's cost does not depend on the seed: for (1,...,1)
    # the Naples walk is the same for every k and semantics.
    stream = []
    for _ in range(z["prob_typical"]):
        n = rng.randint(4, 12)
        alpha = tuple(rng.randint(1, n) for _ in range(n))
        stream.append(_prob_op(alpha, *rng.choice(PROB_MODES)))
    for length in z["prob_heavy"]:
        _, k, sem = rng.choice(PROB_MODES[1:])
        stream.append(_prob_op((1,) * length, "naples", k, sem))
    for length in z["prob_dir_heavy"]:
        stream.append(_prob_op((length // 2,) * length, "direction", 1, "jump"))
    ops += stream

    ops.append(Op(f"verify circular-shift n={z['circular']}", "circular_s",
                  lambda: cli("verify", "--check", "circular-shift", "--n", z["circular"]),
                  _verify_passed))
    rng.shuffle(ops)
    return Workload(ops, once)


@cache
def _exact_prob(alpha, model, k, semantics, p) -> Fraction:
    return pm.prob_of_model(alpha, MODELS[model], k=k,
                            semantics=SEMANTICS[semantics]).evaluate(p)


def _within(out, exact: Fraction, samples: int) -> bool:
    """The estimate lies within 5 standard errors of the exact value.

    The larger of the reported and the exact-value standard error is used,
    so an estimate of exactly 0 or 1 is judged against the true spread.
    """
    if not _is_json(out):
        return False
    row = out["rows"][0]
    e = float(exact)
    err = max(row["stderr"], (e * (1 - e) / samples) ** 0.5)
    return abs(row["mean"] - e) <= 5 * err


def _mc_alpha_op(cli, seed, alpha, model, p, trials, metric, known_defect="") -> Op:
    def check(out) -> bool:
        return _within(out, _exact_prob(alpha, model, 1, "jump", p), trials)

    return Op(f"mc {model} p={p} trials={trials} n={len(alpha)}", metric,
              lambda: cli("mc", "--alpha", ",".join(map(str, alpha)), "--model", model,
                          "--p", f"{p.numerator}/{p.denominator}", "--trials", trials,
                          "--seed", seed),
              check, known_defect)


def mc_alpha_inputs(seed: int, z: dict) -> list[tuple]:
    """(alpha, model, p, trials, metric, known_defect) of each fixed-tuple mc op.

    Up to 16 choice bits, every vector is replayed once into a table and
    trials become table reads (the 12-car tuple, 11 bits); above that every
    trial is a fresh walk. A replay trial stops at the first car that fails,
    so the replay tuples send all but their last REPLAY_TAIL cars to distinct
    spots: conflicts, and so failures, come only at the end, and the cost of
    a trial barely depends on the seed. The 70-car tuple is above 64 cars.
    """
    rng = Random(seed)
    inputs = [(tuple(rng.randint(1, 12) for _ in range(12)), rng.choice(list(MODELS)),
               HALF, z["lookup_trials"], "mc_lookup_s", "")]
    for length in z["replay_lengths"]:
        head = rng.sample(range(1, length + 1), length - REPLAY_TAIL)
        tail = [rng.randint(1, length) for _ in range(REPLAY_TAIL)]
        inputs.append((tuple(head + tail), rng.choice(list(MODELS)), HALF,
                       z["replay_trials"], "mc_replay_s", ""))
    inputs.append(((1,) * 70, "direction", Fraction(1), z["overflow_trials"],
                   "mc_replay_s", PACK_OVERFLOW))
    return inputs


def _mc(rng: Random, cli: Cli, z: dict, seed: int) -> Workload:
    ops = [_mc_alpha_op(cli, seed, *spec) for spec in mc_alpha_inputs(seed, z)]
    n, samples = z["total_n"], z["total_samples"]
    for model in MODELS:
        expected = (Fraction(pm.expected_random_direction(n)) if model == "direction"
                    else pm.expected_random_naples(n, 1, HALF))
        ops.append(Op(f"mc {model} n={n} tuple-samples={samples}", "mc_total_s",
                      lambda model=model: cli("mc", "--n", n, "--model", model,
                                              "--tuple-samples", samples, "--seed", seed),
                      lambda out, e=expected / n**n: _within(out, e, samples)))
    rng.shuffle(ops)
    return Workload(ops)


def build(workload: str, seed: int, tracer, smoke: bool = False) -> Workload:
    rng = Random(seed)
    cli = Cli(tracer)
    z = SIZES["smoke" if smoke else "full"]
    if workload == "sweep":
        return _sweep(rng, cli, z)
    if workload == "exact":
        return _exact(rng, cli, z)
    return _mc(rng, cli, z, seed)

