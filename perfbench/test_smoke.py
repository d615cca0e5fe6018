"""Smoke tests of the benchmark itself, at tiny lattice sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import worker

qlbm = worker.import_program()
import workloads  # noqa: E402  (needs qlbm on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = workloads.build("tiny")


def _run(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--scale", "tiny", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_all():
    proc = _run("--workload", "all", "--seconds", "0.3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _workload_blocks(stdout):
    blocks, current = {}, None
    for line in stdout.splitlines()[:-1]:
        if line.startswith("workload "):
            current = line.split()[1]
            blocks[current] = []
        elif current:
            blocks[current].append(line.split())
    return blocks


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS == list(TINY)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = _run("--workload", "all", "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 4 * 3
    blocks = _workload_blocks(proc.stdout)
    assert list(blocks) == run.WORKLOADS
    gated = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    for name, rows in blocks.items():
        printed = {row[0]: row[2] for row in rows if len(row) >= 3}
        rate = "lowered_gates_per_s" if name == "resources-16" else "site_steps_per_s"
        wall = [("job_s.p50", "s"), ("job_s.tail", "s"), (rate, "1/s"), ("failed_ratio", "ratio")]
        for metric, unit in gated + wall:
            assert printed.get(metric) == unit, (name, metric)
        for metric, unit in gated:
            entry = final["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0, (name, metric)


def test_every_per_layer_metric_is_printed_with_its_unit(traced_all):
    blocks = _workload_blocks(traced_all)
    for name, rows in blocks.items():
        printed = {row[0]: row[2] for row in rows if len(row) >= 3}
        for metric in SPEC["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], (name, metric["name"])
        assert "trace.closure_ratio" in printed


def test_exact_counts_repeat_for_one_seed(traced_all):
    again = _run("--workload", "all", "--seconds", "0.3", "--trace", "1")
    assert again.returncode == 0, again.stderr
    first = json.loads(traced_all.splitlines()[-1])["metrics"]
    second = json.loads(again.stdout.splitlines()[-1])["metrics"]
    exact = ["circuits.build.gates", "statevector.apply.gates", "circuits.lower.gates", "solver.success_prob.p50"]
    for name in run.WORKLOADS:
        for metric in exact:
            key = f"{name}/{metric}"
            assert first[key]["value"] == second[key]["value"], key
    assert first["resources-16/circuits.lower.gates"]["value"] == 15557
    assert first["advdiff-d2q5-64/statevector.apply.gates"]["value"] > 0


def _corrupt_advdiff(result):
    result.fields[-1] *= 1.0 + 1e-6
    return result


def _corrupt_cavity(result):
    result.omega[-1, 3, 3] += 1e-3
    return result


def _corrupt_resources(report):
    report.reports["single"].cnot += 1
    return report


@pytest.mark.parametrize("name, module, attr, corrupt", [
    ("advdiff-d2q5-64", qlbm.solver, "run_advection_diffusion", _corrupt_advdiff),
    ("cavity-frugal-32", qlbm.solver, "run_cavity", _corrupt_cavity),
    ("resources-16", qlbm.resources, "compare_single_vs_frugal", _corrupt_resources),
])
def test_a_corrupted_output_counts_as_failed(monkeypatch, name, module, attr, corrupt):
    honest = getattr(module, attr)
    calls = []

    def corrupted(*args, **kwargs):
        calls.append(1)
        out = honest(*args, **kwargs)
        return corrupt(out) if len(calls) % 2 else out  # every other job

    monkeypatch.setattr(module, attr, corrupted)
    result = worker.measure(TINY[name], seed=5, seconds=0.0, trace=False, min_jobs=4)
    assert result["attempted"] == 4
    assert [f["job"] for f in result["failures"]] == [1, 3]


def test_a_job_that_raises_is_counted_and_the_loop_goes_on(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(qlbm.solver, "run_cavity", broken)
    result = worker.measure(TINY["cavity-single-32"], seed=5, seconds=0.0, trace=False, min_jobs=3)
    assert result["attempted"] == 3 and len(result["failures"]) == 3
    assert "RuntimeError: boom" in result["failures"][0]["error"]


def test_self_times_close_to_the_job_time_and_hooks_are_restored():
    before = qlbm.solver.apply_circuit
    result = worker.measure(TINY["advdiff-d2q5-64"], seed=5, seconds=0.0, trace=True, min_jobs=3)
    layers = result["layers"]
    assert layers["trace.closure_ratio"] == pytest.approx(1.0, abs=0.02)
    assert layers["circuits.build.s"] > 0 and layers["statevector.apply.gates"] > 0
    assert result["absent"] == []
    assert qlbm.solver.apply_circuit is before


def test_a_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(qlbm._kernels, "apply_phase")  # no tiny pipeline calls it
    result = worker.measure(TINY["advdiff-d2q5-64"], seed=5, seconds=0.0, trace=True, min_jobs=3)
    assert result["absent"] == ["kernels.phase"]
    assert result["absent_targets"] == ["qlbm._kernels.apply_phase"]
    assert result["failures"] == []


def test_overlapping_children_are_covered_once():
    assert spans._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 5.5) == pytest.approx(3.5)


def test_tail_is_the_job_with_ten_beyond_it():
    walls = [float(i) for i in range(1, 41)]
    assert run.tail(walls) == (30.0, 75.0)
    assert run.tail(walls[:19]) == (10.0, 50.0)


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "resources-16", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
