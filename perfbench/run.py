"""qlbm benchmark: four closed-loop workloads, checked against the oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in fresh processes of
``perfbench/worker.py``, one client, one job at a time: a job is one full
public-API call, and every output is checked outside the timer (a failed job
counts in ``failed_ratio``; the run goes on). ``--trace 0`` prints the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` prints the
per-layer table from wrapped layer functions, with the tracing overhead.
``setup_s`` is the median over five fresh processes of importing ``qlbm``
plus the first, cold job, each scaled to a core on which the reference loop
takes ``REF_NOMINAL_S`` (``setup_wall_s`` is the unscaled median). The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Results and spans are also written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ["advdiff-d2q5-64", "cavity-single-32", "cavity-frugal-32", "resources-16"]
TAIL_BEYOND = 10  # jobs slower than the reported tail
SETUP_RUNS = 5  # fresh processes whose median set-up time is setup_s
# setup_s is scaled to a core on which the reference loop takes this long
REF_NOMINAL_S = 0.02
BUDGET_S = 170.0  # wall-clock budget of one workload's processes


class BenchmarkError(Exception):
    pass


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest job with TAIL_BEYOND jobs beyond it.

    With fewer than 2 * TAIL_BEYOND jobs no percentile above the median has
    that many jobs beyond it, and the median is reported (percentile 50).
    """
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(walls), 50.0
    rank = n - TAIL_BEYOND
    return sorted(walls)[rank - 1], 100.0 * rank / n


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    main = _worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))]
                   + (["--spans-out", str(spans_out)] if trace else []), deadline)
    # set-up is measured in the main run and, untraced, in extra fresh processes
    probes = [] if trace else [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
    runs = [main] + probes
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    walls = main["walls"]
    refs = main["refs"]
    rel = [w / ((before + after) / 2) for w, before, after in zip(walls, refs, refs[1:])]
    tail_s, tail_pct = tail(walls)
    timed_s = sum(walls)
    setup_walls = [r["setup_s"] for r in runs]
    setups = [r["setup_s"] * REF_NOMINAL_S / r["setup_ref_s"] for r in runs]
    result = {
        "workload": name,
        "trace": int(trace),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "jobs": len(walls),
        "timed_s": timed_s,
        "walls": walls,
        "refs": refs,
        "tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "setup_wall_samples_s": setup_walls,
        "env": main["env"],
        "e2e": {
            "job_ref.p50": statistics.median(rel),
            "job_ref.tail": tail(rel)[0],
            "work_per_ref": main["work"] / sum(rel),
            "job_s.p50": statistics.median(walls),
            "job_s.tail": tail_s,
            "work_per_s": main["work"] / timed_s,
            "ref_s.p50": statistics.median(main["refs"]),
            "setup_s": statistics.median(setups),
            "setup_wall_s": statistics.median(setup_walls),
            "peak_rss_mb": main["peak_rss_mb"],
            "failed_ratio": len(failures) / attempted,
        },
        "work_unit": main["work_unit"],
    }
    if trace:
        result["layers"] = main["layers"]
        result["absent"] = main["absent"]
        result["absent_targets"] = main["absent_targets"]
        result["spans_file"] = str(spans_out.relative_to(ROOT))
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# wall-clock metrics printed beside the gated ones of BENCHMARK.json
WALL_UNITS = {"job_s.p50": "s", "job_s.tail": "s", "work_per_s": "1/s", "setup_wall_s": "s",
              "ref_s.p50": "s", "failed_ratio": "ratio"}


def print_e2e(res: dict, spec: dict) -> None:
    e2e = res["e2e"]
    units = {**WALL_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"]}}
    tail_note = f"p{res['tail_percentile']:.1f} of {res['jobs']} timed jobs" + (
        f", {TAIL_BEYOND} beyond it" if res["jobs"] >= 2 * TAIL_BEYOND
        else f"; under {2 * TAIL_BEYOND} jobs, so the median")
    notes = {
        "job_s.tail": tail_note,
        "job_ref.tail": tail_note,
        "job_ref.p50": "job time / reference loop timed around it",
        "ref_s.p50": "reference loop, median over the run",
        "setup_s": f"median of {SETUP_RUNS} processes, at a {1e3 * REF_NOMINAL_S:g} ms reference loop",
        "setup_wall_s": "median of " + ", ".join(f"{s:.3f}" for s in res["setup_wall_samples_s"]),
        "failed_ratio": f"{res['failed']} of {res['attempted']} jobs",
    }
    for name, unit in units.items():
        label = res["work_unit"] + "_per_s" if name == "work_per_s" else name
        print(f"  {label:<22} {_fmt(e2e[name]):>14} {unit:<6} {notes.get(name, '')}")


def print_layers(res: dict, spec: dict) -> None:
    layers = res["layers"]
    job = layers["trace.job_s.p50"]
    for metric in spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        absent = any(name.startswith(layer + ".") for layer in res["absent"])
        share = f"{100 * layers[name] / job:5.1f}% of traced job" if unit == "s" and name != "trace.job_s.p50" else ""
        value = "absent" if absent else _fmt(layers[name])
        print(f"  {name:<34} {value:>14} {unit:<6} {share}")
    print(f"  {'trace.untraced_job_s.p50':<34} {_fmt(layers['trace.untraced_job_s.p50']):>14} s")
    print(f"  {'trace.closure_ratio':<34} {_fmt(layers['trace.closure_ratio']):>14} ratio  "
          "summed self times / traced job time (above 1 where pool workers overlap)")
    print(f"  traced jobs: {layers['trace.jobs']}, alternating with untraced ones; times are means per "
          f"traced job; counts are medians of the first {layers['trace.count_jobs']}; "
          f"spans in {res['spans_file']}")
    if res["absent_targets"]:
        print("  absent hook targets: " + ", ".join(res["absent_targets"]))


def _mib(size: int | None) -> str:
    return "unknown" if size is None else f"{size / 2**20:g} MiB"


def print_env(res: dict) -> None:
    env = res["env"]
    state = "no statevector"
    if env["state_bytes"]:
        state = f"{env['state_qubits']} qubits = {_mib(env['state_bytes'])}"
        if env["l2_bytes"] and env["state_bytes"] <= env["l2_bytes"]:
            state += " (fits in L2: no bandwidth claim)"
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"L2 {_mib(env['l2_bytes'])}, L3 {_mib(env['l3_bytes'])}, state {state}, "
          f"kernels {env['kernel_backend']}, commit {env['commit']}, "
          f"src {env['source_digest']}, seed {env['seed']}, scale {env['scale']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every lattice, for the smoke tests")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if not (ROOT / "src" / "qlbm" / "__init__.py").is_file():
        print(f"no qlbm sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"

    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res in results:
        print(f"workload {res['workload']}  seed {args.seed}  trace {args.trace}  "
              f"{res['jobs']} timed jobs  failed {res['failed']}/{res['attempted']} attempted")
        if args.trace:
            print_layers(res, spec)
        else:
            print_e2e(res, spec)
        print_env(res)
        for failure in res["failures"][:3]:
            print(f"  FAILED job {failure['job']}: {failure['error'].strip().splitlines()[-1]}")
        values = res["layers"] if args.trace else res["e2e"]
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for metric in spec[section]:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        tag = f"{res['workload']}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{tag}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
