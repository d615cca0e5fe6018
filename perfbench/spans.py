"""Span recorder and layer hooks for the traced benchmark run.

Layers are timed from outside the program: each hook replaces a public
function on the module where its caller looks it up (``qlbm.solver`` and
``qlbm.resources`` bind their imports at import time, ``qlbm.statevector``
reads ``qlbm._kernels.apply_*`` at call time) and restores it afterwards.
A hook whose target no longer exists is reported as absent.

A span records layer, start, end, parent, job and thread. Spans opened on a
thread with no open span (the solver's pool workers) hang off the job's root
span. Self time is a span's duration minus the part of it its children
cover, so the self times of one job sum to its root span when nothing
overlaps; on the frugal pool the two workers' spans overlap in wall time.
Generator hooks record one span whose ``busy`` time sums the ``next`` calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

KERNEL_LAYERS = {"apply_1q": "kernels.1q", "apply_mcx": "kernels.mcx", "apply_diag": "kernels.diag", "apply_phase": "kernels.phase"}

# (module, attribute, layer, wrapper kind)
HOOKS = [
    ("qlbm.solver", "build_advection_diffusion_circuit", "circuits.build", "build"),
    ("qlbm.solver", "build_single_cavity_circuit", "circuits.build", "build"),
    ("qlbm.solver", "build_stream_function_circuit", "circuits.build", "build"),
    ("qlbm.solver", "build_vorticity_circuit", "circuits.build", "build"),
    ("qlbm.solver", "encoding_vector", "statevector.encode", "plain"),
    ("qlbm.solver", "amplitude_encode", "statevector.encode", "plain"),
    ("qlbm.solver", "apply_circuit", "statevector.apply", "apply"),
    ("qlbm.solver", "postselect_many", "statevector.postselect", "plain"),
    ("qlbm.solver", "decode_field", "solver.decode", "plain"),
    ("qlbm.solver", "apply_cavity_boundaries", "lattice.walls", "plain"),
    ("qlbm.solver", "velocity_from_stream_function", "lattice.walls", "plain"),
    ("qlbm.solver", "_sf_job", "solver", "task"),
    ("qlbm.solver", "_vorticity_job", "solver", "task"),
    *(("qlbm._kernels", attr, layer, "plain") for attr, layer in KERNEL_LAYERS.items()),
    ("qlbm.resources", "solve_cavity_classical", "lattice.classical", "plain"),
    ("qlbm.resources", "velocity_from_stream_function", "lattice.classical", "plain"),
    ("qlbm.resources", "build_single_cavity_circuit", "circuits.build", "build"),
    ("qlbm.resources", "build_stream_function_circuit", "circuits.build", "build"),
    ("qlbm.resources", "build_vorticity_circuit", "circuits.build", "build"),
    ("qlbm.resources", "count_resources", "resources.count", "plain"),
    ("qlbm.resources", "iter_lowered", "circuits.lower", "generator"),
]


class Span(NamedTuple):
    id: int
    layer: str
    start: float
    end: float
    parent: int | None
    job: int | None
    thread: int
    busy: float | None  # generator spans: summed time inside next()


class Recorder:
    """Spans and counters, kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job: int | None = None
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, layer: str, sid: int, parent: int | None, start: float) -> float:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, layer, start, end, parent, self._job, threading.get_ident(), None))
        return end - start

    def count(self, key: str, value: float) -> None:
        with self._lock:  # pool workers add to the same job's counters
            self.counts[self._job][key] += value

    @contextmanager
    def job(self, job_id: int, layer: str):
        """Root span of one job; every span opened inside belongs to it."""
        self._job = job_id
        sid, parent, start = self.begin()
        self._root = sid
        try:
            yield
        finally:
            self.end(layer, sid, parent, start)
            self._root = None
            self._job = None

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job, seconds of self time by layer."""
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            kids = children[span.id]
            own = span.busy if span.busy is not None else span.end - span.start
            covered = _union_length([(k.start, k.end) for k in kids if k.busy is None], span.start, span.end)
            covered += sum(k.busy for k in kids if k.busy is not None)
            out[span.job][span.layer] += own - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _plain(rec: Recorder, layer: str, fn):
    calls = layer + ".calls"

    def wrapper(*args, **kwargs):
        sid, parent, start = rec.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(layer, sid, parent, start)
            rec.count(calls, 1)

    return wrapper


def _build(rec: Recorder, layer: str, fn):
    def wrapper(*args, **kwargs):
        sid, parent, start = rec.begin()
        try:
            circ = fn(*args, **kwargs)
        finally:
            rec.end(layer, sid, parent, start)
        rec.count("circuits.build.calls", 1)
        rec.count("circuits.build.gates", len(circ.gates))
        rec.count("circuits.build.encode_gates", sum(stop - lo for name, lo, stop in circ.sections if name == "encode"))
        return circ

    return wrapper


def _apply(rec: Recorder, layer: str, fn):
    def wrapper(state, ops, *args, **kwargs):
        sid, parent, start = rec.begin()
        try:
            return fn(state, ops, *args, **kwargs)
        finally:
            wall = rec.end(layer, sid, parent, start)
            gates = len(ops)
            rec.count("statevector.apply.gates", gates)
            rec.count("statevector.apply.wall_s", wall)
            # computed, not measured: each gate reads and writes every amplitude
            rec.count("statevector.apply.bytes_computed", gates * (1 << state.n_qubits) * 16 * 2)

    return wrapper


def _task(rec: Recorder, layer: str, fn):
    def wrapper(*args, **kwargs):
        cpu0 = time.thread_time()
        sid, parent, start = rec.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(layer, sid, parent, start)
            rec.count("solver.pool.cpu_s", time.thread_time() - cpu0)

    return wrapper


_DONE = object()


def _generator(rec: Recorder, layer: str, fn):
    """One span for a whole generator; ``busy`` sums the time inside next().

    Nothing inside the hooked generators is itself hooked, so no span is
    pushed per item: that keeps the per-item cost to two clock reads.
    """
    def wrapper(*args, **kwargs):
        stack = rec._stack()
        parent = stack[-1] if stack else rec._root
        sid = next(rec._ids)
        clock = time.perf_counter
        busy = 0.0
        items = 0
        first = clock()
        it = fn(*args, **kwargs)
        try:
            while True:
                t = clock()
                item = next(it, _DONE)
                busy += clock() - t
                if item is _DONE:
                    return
                items += 1
                yield item
        finally:
            rec.spans.append(Span(sid, layer, first, clock(), parent, rec._job, threading.get_ident(), busy))
            rec.count(layer + ".gates", items)

    return wrapper


WRAPPERS = {"plain": _plain, "build": _build, "apply": _apply, "task": _task, "generator": _generator}


def install(rec: Recorder, hooks=HOOKS) -> tuple[list, list[str]]:
    """Wrap every hook target that exists; returns (restore list, absent targets)."""
    restore, absent = [], []
    for module_name, attr, layer, kind in hooks:
        try:
            module = importlib.import_module(module_name)
            target = getattr(module, attr)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, WRAPPERS[kind](rec, layer, target))
        restore.append((module, attr, target))
    return restore, absent


def uninstall(restore: list) -> None:
    for module, attr, target in reversed(restore):
        setattr(module, attr, target)


def absent_layers(absent: list[str], hooks=HOOKS) -> set[str]:
    """Layers none of whose hook targets exist.

    Pool tasks count as the "solver.pool" layer here: their spans add to the
    solver's own time, whose root span always exists.
    """
    by_layer = defaultdict(set)
    for module_name, attr, layer, kind in hooks:
        by_layer["solver.pool" if kind == "task" else layer].add(f"{module_name}.{attr}")
    return {layer for layer, targets in by_layer.items() if targets <= set(absent)}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# layers whose self time is reported as "<layer>.s" ("solver" and "resources"
# are the job's own code: the root span plus pool-task bodies)
TIMED_LAYERS = {
    "circuits.build": "circuits.build.s",
    "statevector.encode": "statevector.encode.s",
    "statevector.apply": "statevector.apply.s",
    **{layer: layer + ".s" for layer in KERNEL_LAYERS.values()},
    "statevector.postselect": "statevector.postselect.s",
    "solver.decode": "solver.decode.s",
    "lattice.walls": "lattice.walls.s",
    "solver": "solver.self.s",
    "lattice.classical": "lattice.classical.s",
    "circuits.lower": "circuits.lower.s",
    "resources.count": "resources.count.s",
    "resources": "resources.self.s",
}

# per-job counters that must repeat exactly for one seed
COUNTED = [
    "circuits.build.calls",
    "circuits.build.gates",
    "circuits.build.encode_gates",
    "statevector.apply.gates",
    "statevector.apply.bytes_computed",
    *(layer + ".calls" for layer in KERNEL_LAYERS.values()),
    "circuits.lower.gates",
]


def layer_metrics(rec: Recorder, traced: list[tuple[int, float]], count_jobs: list[int],
                  untraced_walls: list[float], success_probs: list[float],
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of the traced jobs.

    Times are mean seconds per traced job. Counts are medians over
    ``count_jobs``, a fixed prefix of the traced jobs, so they repeat exactly
    for one seed whatever the run length.
    """
    selfs = rec.self_times()
    ids = [job for job, _ in traced]
    walls = [wall for _, wall in traced]
    n = len(ids)
    out: dict[str, float] = {}
    for layer, name in TIMED_LAYERS.items():
        out[name] = sum(selfs[job].get(layer, 0.0) for job in ids) / n
    for key in COUNTED:
        out[key] = statistics.median(rec.counts[job].get(key, 0.0) for job in count_jobs)
    built = out["circuits.build.gates"]
    out["circuits.build.useful_ratio"] = out["statevector.apply.gates"] / built if built else 0.0
    apply_wall = sum(rec.counts[job].get("statevector.apply.wall_s", 0.0) for job in ids)
    apply_gates = sum(rec.counts[job].get("statevector.apply.gates", 0.0) for job in ids)
    out["statevector.apply.gates_per_s"] = apply_gates / apply_wall if apply_wall else 0.0
    cpu = sum(rec.counts[job].get("solver.pool.cpu_s", 0.0) for job in ids)
    out["solver.pool.cpu_ratio"] = cpu / sum(walls)
    out["solver.success_prob.p50"] = statistics.median(success_probs) if success_probs else 0.0
    out["trace.job_s.p50"] = statistics.median(walls)
    out["trace.untraced_job_s.p50"] = statistics.median(untraced_walls)
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.closure_ratio"] = sum(sum(selfs[job].values()) for job in ids) / sum(walls)
    out["trace.jobs"] = n
    out["trace.count_jobs"] = len(count_jobs)
    return out
