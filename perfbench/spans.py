"""Span recorder for the traced benchmark run.

Every public function of the parkmodel modules is wrapped in every namespace
that bound it (``parkmodel.full_census``, ``parkmodel.cli.full_census``,
``parkmodel.census.parking_choice_count`` and so on), so calls between
modules are seen too. While the tracer is active each call appends one span
(name, start, end, parent) to flat in-memory arrays; nothing is written
until the run ends. Per-module self time is derived from the spans
afterwards. A generator function's span covers only its creation, not the
iteration.

Only public module-level functions are wrapped: the kernels behind them
(``_census_kernel``, ``_success_branch_counts``, ``_parks``) stay inside the
span of the public function that called them. The CLI layer has no public
functions of its own (its commands are click objects), so the benchmark
opens a ``cli.invoke`` span around each in-process command instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "census", "exact", "recursions", "circular", "core", "montecarlo")


def _census_tuples(counts, bound):
    n = bound.arguments["n"]
    counts["census.tuples"] = counts.get("census.tuples", 0) + n**n


def _mc_prob(counts, bound):
    n, trials = len(bound.arguments["prefs"]), bound.arguments["trials"]
    counts["montecarlo.trials"] = counts.get("montecarlo.trials", 0) + trials
    counts["montecarlo.rng_bytes"] = (
        counts.get("montecarlo.rng_bytes", 0) + 8 * trials * (n - 1)
    )


def _mc_total(counts, bound):
    a = bound.arguments
    n, rows, per = a["n"], a["tuple_samples"], a["trials_per_tuple"]
    counts["montecarlo.trials"] = counts.get("montecarlo.trials", 0) + rows * per
    counts["montecarlo.rng_bytes"] = (
        counts.get("montecarlo.rng_bytes", 0) + 8 * rows * (n + per * (n - 1))
    )


# Work counters taken at the wrapper of the call that does the work.
# rng_bytes is computed from the call's arguments: one uint64 per branch draw
# and, for sampled tuples, one per preference.
HOOKS = {
    "census.full_census": _census_tuples,
    "census.verify_odd_census": _census_tuples,
    "montecarlo.estimate_prob": _mc_prob,
    "montecarlo.estimate_expected_total": _mc_total,
}


class Tracer:
    """Collects spans while ``active``; inert until ``install`` is called."""

    def __init__(self):
        self.active = False
        self.counts: dict[str, int] = {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; a no-op while inactive."""
        if not self.active:
            yield
            return
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        hook = HOOKS.get(qualname)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound)
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def install(self) -> None:
        """Rebind every public parkmodel function to a recording wrapper."""
        package = importlib.import_module("parkmodel")
        modules = [importlib.import_module(f"parkmodel.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._undo):
            setattr(ns, attr, obj)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-name and per-module call counts and times derived from the spans.

        ``dur`` is the summed duration of a name's spans (nested spans of the
        same name count twice, which never happens for the names read here).
        ``self`` is the time a span spends in its own module: its duration
        minus the part covered by descendants in other modules. A module's
        time is the self time of its outermost spans.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = (np.frombuffer(self.end, dtype=np.float64) - start).tolist()
        parent = self.parent.tolist()
        name = self.name.tolist()
        module_of = [n.split(".", 1)[0] for n in self.names]
        mod = [module_of[i] for i in name]
        foreign = [0.0] * len(dur)
        for i in range(len(dur) - 1, -1, -1):  # children come after parents
            p = parent[i]
            if p >= 0:
                foreign[p] += dur[i] if mod[i] != mod[p] else foreign[i]
        names = {n: {"calls": 0, "dur": 0.0, "self": 0.0} for n in self.names}
        modules = {m: {"calls": 0, "s": 0.0} for m in MODULES}
        for i, d in enumerate(dur):
            entry = names[self.names[name[i]]]
            entry["calls"] += 1
            entry["dur"] += d
            entry["self"] += d - foreign[i]
            m = modules[mod[i]]
            m["calls"] += 1
            p = parent[i]
            if p < 0 or mod[p] != mod[i]:
                m["s"] += d - foreign[i]
        return {"names": names, "modules": modules}

    def write(self, path, meta: dict) -> None:
        """Write every span, the name table and ``meta`` to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            names=np.array(self.names, dtype=str),
            meta=np.array(json.dumps(meta)),
        )
