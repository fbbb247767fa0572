"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public entry points of each bbmlab module from
outside (module attributes, the by-name bindings other modules hold, and two
methods), so the program itself carries no tracing code.  Each call becomes a
span (id, parent id, name, start, end, thread id); spans stay in memory and
are written out once, when the run ends.  Counters (steps, particles, draws,
bytes) are taken at the same boundaries from the call's arguments and result.

Parent links follow a context variable.  The harness runs its cells in
ThreadPoolExecutor workers, which do not inherit context variables, so a span
opened in a thread that has no open span is linked to the span registered as
the pool parent: the open `harness.run_experiment` span.

Self time is a span's duration minus the union of its children's intervals,
so children that overlap in time (pool cells) are not subtracted twice.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.pool_parent: int | None = None
        # next() on itertools.count and list.append are atomic under the GIL;
        # Counter updates are read-modify-write and take the lock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open = contextvars.ContextVar("open_span", default=None)
        self._main_thread = threading.get_ident()

    def current(self):
        """Id of the innermost open span of this thread, if any."""
        parent = self._open.get()
        if parent is None and threading.get_ident() != self._main_thread:
            parent = self.pool_parent
        return parent

    def call(self, name, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        sid = next(self._ids)
        parent = self.current()
        token = self._open.set(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._open.reset(token)
            self.spans.append(Span(sid, parent, name, start, end, threading.get_ident()))

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def dump(self, path, origin):
        """Write spans (times relative to `origin`) and counters as JSON."""
        rows = [[s.id, s.parent, s.name, round(s.start - origin, 9),
                 round(s.end - origin, 9), s.thread] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": list(Span._fields), "spans": rows,
                       "counts": dict(self.counts)}, fh)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals,
    each clipped to the parent's own interval."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - union_length([(a, b) for a, b in clipped if b > a])
    return out


# ---------------------------------------------------------------------------
# instrumentation of bbmlab
# ---------------------------------------------------------------------------

MC_SCHEME = {"mc.estimate_total_mass": "forward", "mc.alpha2_exponent_fit": "forward",
             "mc.estimate_gtilde": "bridge", "mc.bridge_barrier_mc": "bridge"}


def _columns(s, t, step):
    return max(2, math.ceil((t - s) / step))


def mc_path_columns(name, a):
    """Path columns marched by one estimator call (n_samples x columns),
    from its bound arguments `a`; 0 where the estimator returns early."""
    if name == "mc.alpha2_exponent_fit":
        if a["beta"] == 0.0:
            return 0
        return a["n_samples"] * sum(
            _columns(s, a["t"], min(a["step"], min(1.0, s) / 10.0)) for s in a["s_list"])
    if name != "mc.bridge_barrier_mc" and (a["params"].beta == 0.0 or a["t"] == a["s"]):
        return 0
    return a["n_samples"] * _columns(a["s"], a["t"], a["step"])


def wrap(rec: Recorder, fn, name, on_result=None, on_call=None, pool_parent=False):
    """Return fn wrapped in a span named `name`.

    on_result(result) and on_call(bound arguments, result) take the counters
    of one call.  With pool_parent, spans that pool threads open while this
    call runs are linked to its span.
    """
    target = fn
    if pool_parent:
        def target(*args, **kwargs):
            outer, rec.pool_parent = rec.pool_parent, rec.current()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.pool_parent = outer
    sig = inspect.signature(fn) if on_call else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, target, args, kwargs)
        if on_result:
            on_result(result)
        if on_call:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            on_call(bound.arguments, result)
        return result

    return wrapper


def instrument(rec: Recorder, bb: dict):
    """Wrap, for the rest of the process, the entry points of every layer of
    the bbmlab modules in `bb` (keyed by module name)."""
    spectral, pde, mc, sim, rng, model, operations, harness = (
        bb[k] for k in ("spectral", "pde", "mc", "sim", "rng", "model",
                        "operations", "harness"))

    def patch(owner, attr, name, **hooks):
        wrapper = wrap(rec, getattr(owner, attr), name, **hooks)
        setattr(owner, attr, wrapper)
        return wrapper

    def count_levels(a, system):
        # Richardson grids h, h/2, ..., down to the returned system's final h
        rec.count("spectral.grid_levels", round(math.log2(a["h"] / system.h)) + 1)

    def mc_counter(name):
        def count(a, _):
            cols = mc_path_columns(name, a)
            rec.count("mc.path_columns", cols)
            rec.count(f"mc.{MC_SCHEME[name]}.columns", cols)
        return count

    def count_population(result):
        rec.count("sim.particles", result[0].size)
        rec.count("sim.truncated", int(result[0].truncated))

    patch(spectral, "solve_spectrum", "spectral.solve_spectrum", on_call=count_levels)
    patch(pde, "solve_pde", "pde.solve_pde",
          on_result=lambda f: rec.count("pde.steps", int(f.diagnostics["steps"])))
    for attr in ("galerkin_matrices", "evolve_coefficients", "cross_validate_galerkin"):
        patch(pde, attr, f"pde.{attr}")
    for name in MC_SCHEME:
        patch(mc, name.split(".")[1], name, on_call=mc_counter(name))
    patch(sim, "run_continuous", "sim.run_continuous", on_result=count_population)
    patch(sim, "run_discrete", "sim.run_discrete",
          on_result=lambda r: rec.count("sim.lattice_particles", r[0].size))
    for attr in ("many_to_one_check", "many_to_two_check", "run_coupled"):
        patch(sim, attr, f"sim.{attr}")
    patch(sim.Population, "export_snapshots_csv", "sim.export_snapshots_csv")
    patch(rng.CounterRNG, "uniform", "rng.uniform",
          on_result=lambda u: rec.count("rng.draws", int(u.size)))
    # by-name imports (`from .model import branching_rate`) point at the
    # wrapper as well, so calls through them get spans and parents
    sim.child_id = patch(rng, "child_id", "rng.child_id")
    sim.branching_rate = patch(
        model, "branching_rate", "model.branching_rate",
        on_result=lambda b: rec.count("model.branching_rate.points",
                                      int(getattr(b, "size", 1))))
    patch(harness, "run_experiment", "harness.run_experiment", pool_parent=True)
    patch(harness, "report", "harness.report")

    for key, op in operations.REGISTRY.items():
        operations.REGISTRY[key] = dataclasses.replace(op, run=wrap(
            rec, op.run, "operations.run", on_result=lambda files: rec.count(
                "operations.bytes_written", sum(os.path.getsize(f) for f in files))))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIMED = ("spectral.solve_spectrum", "pde.solve_pde", "pde.galerkin_matrices",
              "pde.evolve_coefficients", "pde.cross_validate_galerkin", *MC_SCHEME,
              "sim.run_continuous", "sim.many_to_one_check", "sim.many_to_two_check",
              "sim.run_coupled", "sim.run_discrete", "sim.export_snapshots_csv",
              "rng.uniform", "model.branching_rate", "harness.run_experiment",
              "harness.report")
CALL_COUNTED = ("spectral.solve_spectrum", "pde.solve_pde", "sim.run_continuous",
                "rng.uniform", "rng.child_id", "model.branching_rate")

PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in CALL_COUNTED},
    **{f"{n}.self_s": "s" for n in SELF_TIMED},
    "spectral.grid_levels": "count",
    "spectral.s_per_level": "s",
    "pde.steps": "count",
    "pde.steps_per_s": "1/s",
    "mc.path_columns": "count",
    "mc.forward.columns_per_s": "1/s",
    "mc.bridge.columns_per_s": "1/s",
    "sim.replicates_per_s": "1/s",
    "sim.particles": "count",
    "sim.particles_per_s": "1/s",
    "sim.truncated": "count",
    "sim.untruncated_ratio": "ratio",
    "sim.lattice_particles_per_s": "1/s",
    "rng.draws": "count",
    "rng.draws_per_call": "count",
    "rng.draws_per_s": "1/s",
    "model.branching_rate.points_per_call": "count",
    "harness.cells": "count",
    "operations.run.busy_s": "s",
    "harness.cell_wait_s": "s",
    "harness.parallelism": "ratio",
    "operations.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric except trace.overhead_s, which needs the
    untraced run.  A layer that is idle on a workload reads 0."""
    selfs = self_times(rec.spans)
    calls, self_s, incl = Counter(), Counter(), Counter()
    for s in rec.spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.id]
        incl[s.name] += s.end - s.start
    c = rec.counts
    runs = {s.id: s for s in rec.spans if s.name == "harness.run_experiment"}
    cells = [s for s in rec.spans if s.name == "operations.run" and s.parent in runs]
    run_wall = sum(s.end - s.start for s in runs.values())
    busy = sum(s.end - s.start for s in cells)

    def scheme_time(scheme):
        return sum(incl[n] for n, sch in MC_SCHEME.items() if sch == scheme)

    m = {f"{n}.self_s": self_s[n] for n in SELF_TIMED}
    m.update({f"{n}.calls": calls[n] for n in CALL_COUNTED})
    m.update({
        "spectral.grid_levels": c["spectral.grid_levels"],
        "spectral.s_per_level": _ratio(incl["spectral.solve_spectrum"],
                                       c["spectral.grid_levels"]),
        "pde.steps": c["pde.steps"],
        "pde.steps_per_s": _ratio(c["pde.steps"], incl["pde.solve_pde"]),
        "mc.path_columns": c["mc.path_columns"],
        "mc.forward.columns_per_s": _ratio(c["mc.forward.columns"], scheme_time("forward")),
        "mc.bridge.columns_per_s": _ratio(c["mc.bridge.columns"], scheme_time("bridge")),
        "sim.replicates_per_s": _ratio(calls["sim.run_continuous"],
                                       incl["sim.run_continuous"]),
        "sim.particles": c["sim.particles"],
        "sim.particles_per_s": _ratio(c["sim.particles"], incl["sim.run_continuous"]),
        "sim.truncated": c["sim.truncated"],
        "sim.untruncated_ratio": _ratio(calls["sim.run_continuous"] - c["sim.truncated"],
                                        calls["sim.run_continuous"]),
        "sim.lattice_particles_per_s": _ratio(c["sim.lattice_particles"],
                                              incl["sim.run_discrete"]),
        "rng.draws": c["rng.draws"],
        "rng.draws_per_call": _ratio(c["rng.draws"], calls["rng.uniform"]),
        "rng.draws_per_s": _ratio(c["rng.draws"], incl["rng.uniform"]),
        "model.branching_rate.points_per_call": _ratio(c["model.branching_rate.points"],
                                                       calls["model.branching_rate"]),
        "harness.cells": len(cells),
        "operations.run.busy_s": busy,
        "harness.cell_wait_s": sum(s.start - runs[s.parent].start for s in cells),
        "harness.parallelism": _ratio(busy, run_wall),
        "operations.bytes_written": c["operations.bytes_written"],
    })
    return m
