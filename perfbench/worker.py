"""One workload in one fresh process: import, cold job, timed closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``setup_s`` covers importing ``qlbm`` (from this checkout's ``src``) plus the
first, cold job, which is checked but kept out of the job samples; the
reference loop is timed right after it (``setup_ref_s``). The
closed loop then runs one job at a time until ``--seconds`` of wall time have
passed (and at least ``MIN_JOBS`` jobs). With ``--trace 1`` the loop
alternates untraced and traced jobs, so the tracing overhead is measured on
the same inputs stream. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_JOBS = 3  # timed jobs (and traced jobs) per run, whatever --seconds says
COUNT_JOBS = 3  # traced jobs whose exact counts are reported


def import_program():
    """Import qlbm from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qlbm

    if Path(qlbm.__file__).resolve().parent != src / "qlbm":
        raise ImportError(f"qlbm imported from {qlbm.__file__}, not from {src}")
    return qlbm


def run_job(workload, inputs: dict):
    """(wall seconds, output, error text); errors end the job, not the run."""
    start = time.perf_counter()
    try:
        out = workload.run(inputs)
        error = None
    except Exception:  # a failing job is counted, and the loop goes on
        out = None
        error = traceback.format_exc(limit=4)
    return time.perf_counter() - start, out, error


def verdict(workload, inputs: dict, out, error) -> str | None:
    return error if error is not None else workload.check(inputs, out)


class ReferenceLoop:
    """Fixed work timed between jobs: the machine's current speed.

    On a shared host the speed of one core drifts by 15-20 % over seconds
    to minutes, in wall and thread CPU time alike, and moves every job of a
    run together. A job's time divided by the mean of the reference timings
    just before and just after it ("ref" units) cancels most of that drift.
    The loop mixes interpreter work
    with numpy mask-and-gather passes over a 16-qubit amplitude vector, the
    two kinds of work a job does.
    """

    def __init__(self):
        import numpy as np

        self.amps = np.ones(1 << 16, dtype=np.complex128)
        self.index = np.arange(1 << 16)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for bit in range(20):
            self.amps[self.index[(self.index >> (bit % 16)) & 1 == 0]] *= 1.0
        return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, trace: bool, min_jobs: int = MIN_JOBS) -> dict:
    """The closed loop; job 0 (the cold job) has already run."""
    import spans

    rec = spans.Recorder() if trace else None
    reference = ReferenceLoop()
    walls, refs, traced, untraced, failures, probs = [], [], [], [], [], []
    work = 0
    absent: list[str] = []
    deadline = time.perf_counter() + seconds
    job = 1
    while (time.perf_counter() < deadline or len(walls) < min_jobs
           or (trace and min(len(traced), len(untraced)) < min_jobs)):
        inputs = workload.make_inputs(seed, job)
        refs.append(reference())
        traced_now = trace and job % 2 == 1
        if traced_now:
            restore, absent = spans.install(rec)
            try:
                with rec.job(job, workload.root_layer):
                    wall, out, error = run_job(workload, inputs)
            finally:
                spans.uninstall(restore)
            traced.append((job, wall))
        else:
            wall, out, error = run_job(workload, inputs)
            untraced.append(wall)
        walls.append(wall)
        problem = verdict(workload, inputs, out, error)
        if problem is None:
            work += workload.work(inputs)
            if traced_now and len(probs) < COUNT_JOBS:
                prob = workload.success_prob(out)
                if prob is not None:
                    probs.append(prob)
        else:
            failures.append({"job": job, "error": problem})
        job += 1
    refs.append(reference())  # each job sits between two reference timings
    result = {
        "walls": walls,
        "refs": refs,
        "attempted": len(walls),
        "failures": failures,
        "work": work,
        "work_unit": workload.work_unit,
    }
    if trace:
        count_jobs = [j for j, _ in traced[:COUNT_JOBS]]
        # overhead on ref-scaled times, so drift between jobs does not read as cost
        rel = [w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:])]
        overhead = statistics.median(rel[0::2]) / statistics.median(rel[1::2]) - 1.0
        result["layers"] = spans.layer_metrics(rec, traced, count_jobs, untraced, probs, overhead)
        result["absent"] = sorted(spans.absent_layers(absent))
        result["absent_targets"] = absent
        result["recorder"] = rec
    return result


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qlbm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(qlbm, workload, seed: int, scale: str) -> dict:
    import numpy as np

    state_bytes = (1 << workload.state_qubits) * 16 if workload.state_qubits else 0
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "state_qubits": workload.state_qubits,
        "state_bytes": state_bytes,
        "kernel_backend": qlbm._kernels.active_backend(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "scale": scale,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file for the traced run's spans (JSON lines)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    qlbm = import_program()
    import workloads

    workload = workloads.build(args.scale)[args.workload]
    inputs = workload.make_inputs(args.seed, 0)
    wall, out, error = run_job(workload, inputs)
    setup_s = time.perf_counter() - t0
    problem = verdict(workload, inputs, out, error)
    reference = ReferenceLoop()
    setup_ref_s = sorted(reference() for _ in range(3))[1]
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "cold_job_s": wall, "attempted": 1, "failures": []}
    if problem is not None:
        result["failures"].append({"job": 0, "error": problem})
    if not args.setup_only:
        timed = measure(workload, args.seed, args.seconds, bool(args.trace))
        recorder = timed.pop("recorder", None)
        if recorder is not None and args.spans_out:
            recorder.write(args.spans_out)
        result["attempted"] += timed.pop("attempted")
        result["failures"] += timed.pop("failures")
        result.update(timed)
        result["env"] = environment(qlbm, workload, args.seed, args.scale)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
