"""The four benchmark workloads: seeded inputs, one public-API job, a check.

Every job is one full call into the public API (``qlbm.solver.run_*`` or
``qlbm.resources.compare_single_vs_frugal``), looked up on its module at call
time so the tracer's wrappers and a test's patches are seen. Inputs for job
``j`` of seed ``s`` depend on ``(s, j)`` only, so two runs with one seed feed
the program the same arrays whatever their job counts. Checks run outside
the timer and compare against the classical oracle or frozen exact counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qlbm import circuits, lattice, resources, solver

# same floor as qlbm.solver.relative_error, re-implemented so the gate does
# not depend on the code it checks
_ERROR_FLOOR = 1e-9
ADVDIFF_TOL = 1e-8  # tolerance of `qlbm verify` for transport
CAVITY_TOL = 1e-6  # tolerance of `qlbm verify` for the cavity

# Exact lowered counts (cnot, single_qubit, depth) per variant of
# compare_single_vs_frugal(extent), frozen from the seed implementation.
FROZEN_RESOURCE_COUNTS = {
    16: {
        "single": (35414, 58561, 66536),
        "stream-function": (8486, 12367, 16217),
        "vorticity": (8478, 12358, 16225),
        "stream-function-nb": (8230, 12109, 15736),
        "vorticity-nb": (8222, 12100, 15744),
    },
    4: {
        "single": (3142, 5489, 5860),
        "stream-function": (678, 1079, 1272),
        "vorticity": (670, 1070, 1273),
        "stream-function-nb": (662, 1061, 1247),
        "vorticity-nb": (654, 1052, 1248),
    },
}

# lattice extent per workload: "full" is what the benchmark measures,
# "tiny" is for the benchmark's own smoke tests
SIZES = {
    "full": {"advdiff": 64, "cavity": 32, "resources": 16},
    "tiny": {"advdiff": 8, "cavity": 8, "resources": 4},
}
ADVDIFF_STEPS = 2  # >1 so a per-run build cache can pay off
CAVITY_STEPS = 4  # step 1 starts from rest and skips both circuits


@dataclass(frozen=True)
class Workload:
    name: str
    root_layer: str  # span name of the job itself: "solver" or "resources"
    work_unit: str  # what work_per_s counts for this workload
    state_qubits: int  # widest statevector the job simulates (0: none)
    make_inputs: Callable[[int, int], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], str | None]  # None when the output is right
    work: Callable[[dict], int]
    success_prob: Callable[[object], float | None]


def _rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, job])


def max_relative_error(result, reference) -> float:
    result = np.asarray(result, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if result.shape != reference.shape:
        return math.inf
    err = np.abs(result - reference) / np.maximum(np.abs(reference), _ERROR_FLOOR)
    return float(np.nan_to_num(err, nan=math.inf).max())


def _records_success_prob(result) -> float:
    """Product of every post-selection probability the run recorded."""
    prob = 1.0
    for record in result.records:
        for p in record.select_probs.values():
            prob *= p
    return prob


# ---------------------------------------------------------------------------
# advection-diffusion, D2Q5
# ---------------------------------------------------------------------------


def _advdiff_inputs(extent: int):
    def make(seed: int, job: int) -> dict:
        rng = _rng(seed, job)
        field = np.full((extent, extent), 0.1)
        y, x = np.mgrid[0:extent, 0:extent]
        for _ in range(3):
            cy, cx = rng.uniform(0, extent, size=2)
            amp = rng.uniform(0.05, 0.3)
            width = rng.uniform(1.0, max(1.5, extent / 8))
            dy = np.minimum(np.abs(y - cy), extent - np.abs(y - cy))
            dx = np.minimum(np.abs(x - cx), extent - np.abs(x - cx))
            field += amp * np.exp(-(dx**2 + dy**2) / (2 * width**2))
        speed = rng.uniform(0.0, 0.2)
        angle = rng.uniform(0.0, 2 * math.pi)
        velocity = (speed * math.cos(angle), speed * math.sin(angle))
        return {"field": field, "velocity": velocity, "steps": ADVDIFF_STEPS}

    return make


def _advdiff_run(inputs: dict):
    return solver.run_advection_diffusion(
        lattice.D2Q5, inputs["field"], inputs["velocity"], inputs["steps"]
    )


def _advdiff_check(inputs: dict, result) -> str | None:
    reference = np.asarray(inputs["field"], dtype=float)
    if len(result.fields) != inputs["steps"] + 1:
        return f"expected {inputs['steps'] + 1} fields, got {len(result.fields)}"
    for step in range(1, inputs["steps"] + 1):
        reference = lattice.step_advection_diffusion(lattice.D2Q5, reference, inputs["velocity"])
        err = max_relative_error(result.fields[step], reference)
        if not err <= ADVDIFF_TOL:
            return f"step {step}: max relative error {err:.3e} > {ADVDIFF_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# lid-driven cavity, single and frugal
# ---------------------------------------------------------------------------


def _cavity_inputs(extent: int):
    def make(seed: int, job: int) -> dict:
        lid = float(_rng(seed, job).uniform(0.5, 1.0))
        return {"spec": lattice.CavitySpec(n=extent, lid_velocity=lid, steps=CAVITY_STEPS)}

    return make


def _cavity_run(variant: str):
    def run(inputs: dict):
        return solver.run_cavity(inputs["spec"], variant=variant)

    return run


def _cavity_check(inputs: dict, result) -> str | None:
    classical = lattice.solve_cavity_classical(inputs["spec"])
    for name in ("psi", "omega"):
        err = max_relative_error(getattr(result, name), getattr(classical, name))
        if not err <= CAVITY_TOL:
            return f"{name}: max relative error {err:.3e} > {CAVITY_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# resource comparison
# ---------------------------------------------------------------------------


def _resources_run(inputs: dict):
    return resources.compare_single_vs_frugal(inputs["extent"])


def _resources_check(inputs: dict, report) -> str | None:
    frozen = FROZEN_RESOURCE_COUNTS[inputs["extent"]]
    got = {name: (r.cnot, r.single_qubit, r.depth) for name, r in report.reports.items()}
    if got != frozen:
        return f"counts {got} differ from the frozen {frozen}"
    # acceptance criterion 7: the frugal pair beats the combined circuit
    if not (report.frugal_nb_cnot < report.single_cnot and report.concurrent_depth_nb < report.single_depth):
        return "frugal pair does not beat the single circuit on CNOTs and depth"
    if not (report.cnot_reduction >= 0.20 and report.depth_reduction >= 0.20):
        return f"reductions {report.cnot_reduction:.3f} / {report.depth_reduction:.3f} below 20%"
    return None


def _lowered_gates(inputs: dict) -> int:
    return sum(cnot + single for cnot, single, _ in FROZEN_RESOURCE_COUNTS[inputs["extent"]].values())


def _site_steps(extent: int, steps: int):
    def work(inputs: dict) -> int:
        return extent * extent * steps

    return work


def _qubits(extent: int, cavity: bool) -> int:
    return circuits.RegisterLayout.for_scheme(
        lattice.D2Q5, extent, source=cavity, boundary=cavity
    ).qubit_count


def build(scale: str = "full") -> dict[str, Workload]:
    """Workloads by name at one scale ("full" or "tiny")."""
    n_adv, n_cav, n_res = (SIZES[scale][k] for k in ("advdiff", "cavity", "resources"))
    workloads = [
        Workload(
            "advdiff-d2q5-64", "solver", "site_steps", _qubits(n_adv, False),
            _advdiff_inputs(n_adv), _advdiff_run, _advdiff_check,
            _site_steps(n_adv, ADVDIFF_STEPS), _records_success_prob,
        ),
        Workload(
            "cavity-single-32", "solver", "site_steps", _qubits(n_cav, True),
            _cavity_inputs(n_cav), _cavity_run("single"), _cavity_check,
            _site_steps(n_cav, CAVITY_STEPS), _records_success_prob,
        ),
        Workload(
            "cavity-frugal-32", "solver", "site_steps", _qubits(n_cav, True),
            _cavity_inputs(n_cav), _cavity_run("frugal"), _cavity_check,
            _site_steps(n_cav, CAVITY_STEPS), _records_success_prob,
        ),
        Workload(
            "resources-16", "resources", "lowered_gates", 0,
            lambda seed, job: {"extent": n_res}, _resources_run, _resources_check,
            _lowered_gates, lambda report: None,
        ),
    ]
    return {w.name: w for w in workloads}
