"""parkmodel benchmark: run one workload for one seed and print one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; parkmodel is imported from its
``src`` directory and nowhere else. Workloads (single-process closed loops;
see ops.py and BENCHMARK.json for why each exists):

  sweep  exhaustive census sweeps through the occupancy DP
  exact  per-tuple polynomials through the choice-tree walk, the staircase
         scan and the ring sweep
  mc     seeded Philox simulation, table-lookup and per-trial replay paths

With ``--trace 0`` the run repeats the workload's operations in passes
until ``--seconds`` is used up and reports the end-to-end metrics:
``wall_s`` (each operation's fastest pass, summed over the operations),
``setup_s`` (median time for a fresh interpreter to import parkmodel and
parkmodel.cli) and ``peak_rss_mb`` (larger of own and children's peak RSS). With ``--trace 1`` it makes a warm-up pass, one untraced
pass that also runs the long once-per-run operations, then the same pass
with every public parkmodel function wrapped in a span recorder, and
reports the per-layer metrics; the spans go to ``.perfbench/``.

Every operation's output is checked. The last stdout line is the JSON
result; ``failed`` counts operations whose check failed, and ``correct`` is
false when any failure is not a documented known defect (see ops.Op).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "exact", "mc")
SETUP_REPS = 7
PROBE_CALLS = 20_000

CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import parkmodel, parkmodel.cli; print('ready', flush=True)"
)

# Operation-level times from the traced run's untraced pass, summed per pass.
OP_SECONDS = ("census8_s", "census7_s", "odd_census_s", "theorem2_s", "semantics_s",
              "construct_s", "mc_lookup_s", "mc_replay_s", "mc_total_s")
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 97.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny operation sizes, for the benchmark's own smoke test")
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg": loadavg,
    }


def setup_once() -> float:
    """Seconds from spawning an interpreter until parkmodel.cli is imported."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", CHILD, str(SRC)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed with code {proc.returncode}")
    return seconds


class Tally:
    """Operations attempted and failed; each failing label is reported once."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.reported: set[str] = set()

    def record(self, op, ok: bool, why: str) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not op.known_defect:
            self.unexpected += 1
        if op.label not in self.reported:
            self.reported.add(op.label)
            note = f" (known defect: {op.known_defect})" if op.known_defect else ""
            print(f"FAILED {op.label}: {why}{note}", file=sys.stderr)


def execute(op, tally: Tally, tracer=None) -> float:
    """Run one operation (timed), then check its output (untimed)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation is counted, never fatal
        out, why = None, f"raised {exc!r}"
    else:
        why = "output check failed"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    ok = False
    if out is not None:
        try:
            ok = bool(op.check(out))
        except Exception as exc:  # a malformed output fails its check
            why = f"check raised {exc!r}"
    tally.record(op, ok, why)
    return seconds


def run_pass(ops, tally: Tally, tracer=None) -> list[float]:
    """Seconds of each operation, in order."""
    return [execute(op, tally, tracer) for op in ops]


def by_metric(ops, seconds: list[float]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for op, s in zip(ops, seconds):
        out.setdefault(op.metric, []).append(s)
    return out


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def measured_run(workload, tally: Tally, seconds: float) -> dict:
    """Passes until the time is up, one set-up interpreter before each pass.

    On a shared machine other tenants slow each CPU down by up to 2x, for
    seconds to minutes at a time and independently per CPU (measured on a
    shared 2-vCPU virtual machine). So the passes rotate over the CPUs it may use,
    each operation is timed on every pass and its fastest pass counts (best
    of N, as timeit does); ``wall_s`` sums those. Set-up samples are spread
    over the run for the same reason.
    """
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    passes, setups, last = [], [], 0.0
    try:
        while not passes or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            if len(setups) < SETUP_REPS:
                setups.append(setup_once())
            passes.append(run_pass(workload.passes, tally))
            last = time.perf_counter() - t0
            print(f"pass {len(passes)}: {sum(passes[-1]):.4f} s of operations",
                  file=sys.stderr)
    finally:
        os.sched_setaffinity(0, cpus)
    while len(setups) < SETUP_REPS:
        setups.append(setup_once())
    wall = sum(min(column) for column in zip(*passes))
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); nearest-rank percentiles.
    """
    xs = sorted(samples)
    for q in TAIL_LADDER:
        idx = max(0, math.ceil(len(xs) * q / 100) - 1)
        beyond = len(xs) - 1 - idx
        if beyond >= 10:
            return xs[idx], q, beyond
    return xs[-1], 100.0, 0


def probe_replay_us(inputs, seed: int) -> float:
    """Mean microseconds per parks_under_choices call on mc-shaped inputs."""
    import parkmodel as pm
    from ops import MODELS

    rng = Random(seed)
    calls = [(alpha, rng.getrandbits(len(alpha) - 1), MODELS[model])
             for _ in range(PROBE_CALLS // len(inputs))
             for alpha, model, *_ in inputs]
    t0 = time.perf_counter()
    for alpha, beta, model in calls:
        pm.parks_under_choices(alpha, beta, model)
    return (time.perf_counter() - t0) / len(calls) * 1e6


def probe_draw_s(inputs, seed: int) -> float:
    """Seconds to draw the mc ops' branch bits with Philox, chunk by chunk.

    Same chunking and keying as parkmodel.montecarlo, so this is the RNG
    floor under the fixed-tuple mc operations.
    """
    import numpy as np

    chunk = 1 << 15
    t0 = time.perf_counter()
    for alpha, _model, _p, trials, *_ in inputs:
        done = index = 0
        while done < trials:
            rows = min(chunk, trials - done)
            ss = np.random.SeedSequence(entropy=(seed, index))
            np.random.Generator(np.random.Philox(ss)).integers(
                0, 1 << 64, size=(rows, len(alpha) - 1), dtype=np.uint64)
            done += rows
            index += 1
    return time.perf_counter() - t0


def traced_run(args, workload, tally: Tally, tracer, env: dict) -> dict:
    from ops import SIZES, mc_alpha_inputs

    run_pass(workload.passes, tally)  # warm-up, so the overhead below is not a cold start
    ops = workload.once + workload.passes
    untraced = run_pass(ops, tally)
    tracer.install()
    try:
        traced = run_pass(ops, tally, tracer)
    finally:
        tracer.uninstall()
    overhead = sum(traced) - sum(untraced)
    untraced = by_metric(ops, untraced)
    inputs = mc_alpha_inputs(args.seed, SIZES["smoke" if args.smoke else "full"])
    replay_us = probe_replay_us(inputs, args.seed)
    draw_s = probe_draw_s(inputs, args.seed)

    summary = tracer.summary()
    names, modules, counts = summary["names"], summary["modules"], tracer.counts

    def dur(*qualnames):
        return sum(names.get(q, {}).get("dur", 0.0) for q in qualnames)

    census_s = dur("census.full_census", "census.verify_odd_census")
    mc_s = dur("montecarlo.estimate_prob", "montecarlo.estimate_expected_total")
    tuples, trials = counts.get("census.tuples", 0), counts.get("montecarlo.trials", 0)
    prob = untraced.get("prob", [])
    p_tail, p_pct, p_beyond = tail(prob) if prob else (0.0, 0.0, 0)
    big, pool = sum(untraced.get("census8_s", [])), sum(untraced.get("census8_pool_s", []))

    m = {
        "cli.calls": (modules["cli"]["calls"], "count"),
        "cli.self_s": (modules["cli"]["s"], "s"),
        "census.tuples": (tuples, "count"),
        "census.tuples_per_s": (tuples / census_s if census_s else 0.0, "1/s"),
        "census.pool_speedup": (big / pool if pool else 0.0, "ratio"),
        "census.verify_direction_total.s": (dur("census.verify_direction_total"), "s"),
        "census.compare_naples_semantics.s": (dur("census.compare_naples_semantics"), "s"),
        "census.tuple_for_odd_numerator.self_s": (
            names.get("census.tuple_for_odd_numerator", {}).get("self", 0.0), "s"),
    }
    for mod in ("exact", "recursions", "circular"):
        m[f"{mod}.calls"] = (modules[mod]["calls"], "count")
        m[f"{mod}.s"] = (modules[mod]["s"], "s")
    m.update({
        "core.replay_us": (replay_us, "us"),
        "montecarlo.trials": (trials, "count"),
        "montecarlo.trials_per_s": (trials / mc_s if mc_s else 0.0, "1/s"),
        "montecarlo.rng_bytes": (counts.get("montecarlo.rng_bytes", 0), "bytes"),
        "montecarlo.draw_s": (draw_s, "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    for name in OP_SECONDS:
        m[name] = (sum(untraced.get(name, [])), "s")
    m.update({
        "prob_p50_ms": (statistics.median(prob) * 1e3 if prob else 0.0, "ms"),
        "prob_tail_ms": (p_tail * 1e3, "ms"),
        "prob_tail_pct": (p_pct, "%"),
        "prob_tail_beyond": (p_beyond, "count"),
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
    })
    tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}.npz",
                 {"env": env, "counts": counts, "summary": summary})
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parkmodel" / "__init__.py").is_file():
        print(f"no parkmodel sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import parkmodel

    if Path(parkmodel.__file__).resolve().parent != (SRC / "parkmodel").resolve():
        print(f"parkmodel was imported from {parkmodel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from ops import build
    from spans import Tracer

    env = environment(args)
    print(json.dumps({"env": env}), flush=True)
    tally, tracer = Tally(), Tracer()
    workload = build(args.workload, args.seed, tracer, args.smoke)
    if args.trace:
        metrics = traced_run(args, workload, tally, tracer, env)
    else:
        metrics = measured_run(workload, tally, args.seconds)
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
