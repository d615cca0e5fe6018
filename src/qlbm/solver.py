"""End-to-end drivers: run the gate-level pipeline and decode fields.

Every circuit runs from |0...0>, a :class:`~qlbm.statevector.ZeroState`
with no amplitude allocated, and its first gate, the encode PREP, loads the
job's fields. On the statevector backend every job runs on one path,
``_run_job``, which selects every register but the sites while the gates
run. The simulator runs the circuit the resource estimator counts; the
PREP loads the amplitude layout, where the estimator counts the
rotation network, and each block encoding (the collision and the wall
projector, one ``BLOCK`` gate each) multiplies the amplitudes by its
coefficients, where the estimator counts the Hadamards and the diagonal it
lowers to. A qubit is in the state only between its first gate and its
last: the PREP's unit vector is the job's first array, and each selected
qubit leaves right after the last gate that targets it (each link qubit
after its merge Hadamard, a source flag after the PREP when no later gate
targets it). The collision ancilla and the wall flag never enter: each
holds 0 until its BLOCK, which is its only gate, and is selected onto 0
right after it. So the job returns the site amplitudes alone and the
caller decodes the field from them. Every gate of such a job keeps real
amplitudes real (a PREP, MCX, H, or a BLOCK selected at once), so its plan
runs it on float64 amplitudes; the sampling backend's unselected BLOCKs
keep its plan complex.

Every run at one shape repeats the same gate structure; only the loaded
fields and the collisions' coefficients change. So each job shape
(transport: scheme, extent and backend; cavity: variant and extent) is set
up once per process and kept in a small fixed-size ``functools.lru_cache``:
its circuit(s) are built at rest and planned with
:func:`~qlbm.statevector.plan_circuit` (advection one plan, the cavity one
per job), and the set-up keeps only the layout, the plan and the tail, the
field-independent gates each job replays as built (source-fold, the
stream-function collision, streaming, macro, boundary): no PREP and no
array of the state's size. A job builds only its fresh gates, a PREP of
its fields and the collision its velocity sets (one per transport run, one
per vorticity job), and replays the cached plan on them and the tail with
:func:`~qlbm.statevector.apply_circuit`. This pays where one process runs
many jobs of one shape; the first run at a shape also builds and plans.
A job whose inputs are all exactly zero (``np.any`` is false) is
idle: it runs nothing and records ``zero_input``. Magnitude plays
no part, as the PREP scales by the peak. The sampling backend of
:func:`run_advection_diffusion` runs the same gates without selecting,
samples the whole state, and records as ``select_probs`` the measured
shares of shots that hold each selected value.

The cavity driver runs the stream-function job and then the vorticity job,
both from the previous step's fields, exactly like the classical reference.
Both variants run the same job path, ``_cavity_job``; they differ only in
the jobs it is given, one per circuit of the frugal pair or one per sector
pass of the single combined gate list. Each job is described once per shape
by its layout, its plan, the built gates it replays, the source-flag sector
it selects and whether its decode is folded. On hardware the two
frugal circuits run concurrently; the resource estimator counts that as
``concurrent_depth``, and the simulator runs them in turn.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .circuits import (
    GateOp,
    RegisterLayout,
    build_advection_collision_ops,
    build_advection_diffusion_circuit,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
    build_vorticity_collision_ops,
    encoding_vector,
)
from .errors import ConfigurationError, EncodingError, SimulationError
from .lattice import (
    CavitySpec,
    D1Q3,
    D2Q5,
    LatticeScheme,
    apply_cavity_boundaries,
    require_count,
    step_advection_diffusion,
    velocity_from_stream_function,
)
from .statevector import (
    CircuitPlan,
    QuantumState,
    ZeroState,
    apply_circuit,
    fidelity_from_histogram,
    plan_circuit,
    require_seed,
    require_shots,
    sample,
)

__all__ = [
    "StepRecord",
    "AdvectionResult",
    "CavityRunResult",
    "FidelityResult",
    "decode_field",
    "run_advection_diffusion",
    "run_cavity",
    "fidelity_sweep",
    "relative_error",
]

# error denominators are floored so near-zero sites compare absolutely
ERROR_FLOOR = 1e-9

# job shapes whose set-up each process keeps, per kind of run
_SETUPS = 8


def relative_error(result, reference) -> np.ndarray:
    """Elementwise |result - reference| / max(|reference|, ERROR_FLOOR)."""
    result = np.asarray(result, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.abs(result - reference) / np.maximum(np.abs(reference), ERROR_FLOOR)


@dataclass
class StepRecord:
    """Diagnostics for one circuit execution.

    ``select_probs`` maps each selected qubit to the conditional probability
    of its selection, given the ones before it, in selection order; the
    per-qubit values depend on that order, their product does not. On the
    sampling backend they are measured: shares of the shots drawn.
    """

    step: int
    job: str
    select_probs: dict = dataclass_field(default_factory=dict)
    norm_factor: float = 0.0
    zero_input: bool = False

    @property
    def success_prob(self) -> float:
        """Probability that every selection succeeds (1.0 when nothing was selected)."""
        return math.prod(self.select_probs.values())


class _RunTotals:
    """Run-level selection totals of a result over its ``records``."""

    @property
    def success_prob(self) -> float:
        """Probability that every selection of the run succeeds: the product over its records.

        On the sampling backend each step contributes the share of its shots
        that landed in the site sector.
        """
        return math.prod(r.success_prob for r in self.records)

    @property
    def shot_multiplier(self) -> float:
        """Factor by which selection multiplies the run's shot cost: the sum of 1 / success_prob over the records that ran.

        Each job is prepared afresh from a classical readout of the one
        before it, so the shot costs of a run's jobs add; an idle record runs
        nothing and costs none. It is inf when a job that ran cannot succeed.
        """
        return sum(1.0 / p if p > 0 else math.inf
                   for p in (r.success_prob for r in self.records if not r.zero_input))


@dataclass
class AdvectionResult(_RunTotals):
    scheme: str
    fields: np.ndarray  # (steps+1,) + field shape
    records: list

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


@dataclass
class CavityRunResult(_RunTotals):
    variant: str
    psi: np.ndarray  # (steps+1, n, n)
    omega: np.ndarray
    records: list


def _decode_factor(layout: RegisterLayout, folded: bool) -> float:
    return float(np.sqrt(2.0) ** (layout.n_d + (1 if folded else 0)))


def decode_field(state: QuantumState, layout: RegisterLayout, *, folded: bool = False) -> np.ndarray:
    """Read the updated field out of a selected state.

    Every register but the sites must already be selected away, which leaves
    the site amplitudes first. Returns the flat real field over the sites.
    """
    return state.amplitudes[: layout.n_sites].real * state.norm_factor * _decode_factor(layout, folded)


def _selection(layout: RegisterLayout, s_value: int = 0) -> dict[int, int]:
    """Qubit -> value of every register but the sites: ancilla, links and wall flag 0, source flag ``s_value``."""
    select = {q: 0 for q in layout.a + layout.d + layout.b}
    if layout.n_s:
        select[layout.s[0]] = s_value
    return select


def _measured_selection(counts: np.ndarray, select: dict[int, int]) -> dict[int, float]:
    """Measured ``select_probs`` of a histogram's ``counts``, per selected qubit in sorted order.

    Each is the share of the shots matching every earlier selected value that
    also hold the qubit's own (0.0 when none matched), so their product is
    the share of all shots that hold every selected value.
    """
    probs, matched = {}, int(counts.sum())
    for dropped, q in enumerate(sorted(select)):
        # each earlier qubit lies below q and is gone, so q sits at bit q - dropped
        counts = counts.reshape(-1, 2, 1 << (q - dropped))[:, select[q], :]
        kept = int(counts.sum())
        probs[q] = kept / matched if matched else 0.0
        matched = kept
    return probs


def _prep(layout: RegisterLayout, scheme: LatticeScheme, field, source=None) -> GateOp:
    """The encode PREP of one job's fields."""
    return GateOp("PREP", layout.encoded_qubits, params=encoding_vector(layout, scheme, field, source=source))


def _job_plan(ops, layout: RegisterLayout, s_value: int = 0) -> CircuitPlan:
    """Plan of a job running ``ops`` from |0> that selects every register but the sites as they finish."""
    return plan_circuit(ZeroState(layout.qubit_count), ops, _selection(layout, s_value))


def _run_job(plan: CircuitPlan, ops, step: int, job: str) -> tuple[QuantumState, StepRecord]:
    """Replay ``plan``, a :func:`_job_plan`, on ``ops``, a PREP first.

    The returned state holds the site amplitudes only.
    """
    state, probs = apply_circuit(plan, ops)
    return state, StepRecord(step, job, probs, state.norm_factor)


def _idle(step: int, job: str) -> StepRecord:
    """Record of a job whose inputs are all zero: nothing was run."""
    return StepRecord(step, job, {}, 0.0, zero_input=True)


class _Job(NamedTuple):
    """One kind of job, set up once per shape.

    Its layout, the plan of the gates it runs, the gates it replays as built
    after its fresh ones, the source-flag sector it selects, and whether its
    decode is folded.
    """

    layout: RegisterLayout
    plan: CircuitPlan
    tail: tuple
    sector: int = 0
    folded: bool = False


@functools.lru_cache(maxsize=_SETUPS)
def _transport(scheme: LatticeScheme, extent: int, backend: str) -> _Job:
    """The set-up of ``scheme`` transport at ``extent`` on ``backend``, built and planned once from the field at rest.

    On the statevector backend the plan selects every register but the
    sites as they finish; on the sampling backend it selects nothing. The
    collision at rest has the structure of every velocity's.
    """
    rest = np.zeros((extent,) * scheme.dimension)
    circ = build_advection_diffusion_circuit(scheme, extent, rest, np.zeros(scheme.dimension))
    layout = circ.layout
    select = _selection(layout) if backend == "statevector" else None
    plan = plan_circuit(ZeroState(layout.qubit_count), circ.gates, select)
    return _Job(layout, plan, tuple(circ.section_ops(["streaming", "macro"])))


def run_advection_diffusion(
    scheme: LatticeScheme,
    field0,
    velocity,
    steps: int,
    *,
    backend: str = "statevector",
    shots: int = 1 << 14,
    seed: int = 0,
) -> AdvectionResult:
    """Advected-scalar transport on the gate-level pipeline.

    backend "statevector" decodes exact amplitudes; "sampling" reconstructs
    each step's field from measured counts (shot noise then propagates into
    subsequent steps, since every step re-encodes the previous output).
    Counts carry no sign, so the sampling backend rejects negative fields.
    """
    if backend not in ("statevector", "sampling"):
        raise ConfigurationError(f"unknown backend {backend!r}")
    require_count(steps, "steps")
    if not np.all(np.isfinite(np.asarray(velocity, dtype=float))):
        raise ConfigurationError(f"velocity must be finite, got {velocity}")
    field = np.asarray(field0, dtype=float)
    if field.ndim != scheme.dimension or len(set(field.shape)) != 1:
        raise ConfigurationError(f"field shape {field.shape} does not fit {scheme.name}")
    extent = field.shape[0]
    if backend == "sampling":
        require_shots(shots)
        require_seed(seed)
        if np.any(field < 0):
            raise EncodingError("the sampling backend cannot recover negative field values")
    setup = _transport(scheme, extent, backend)
    layout = setup.layout
    collision = build_advection_collision_ops(layout, scheme, velocity)
    fields = [field.copy()]
    records: list[StepRecord] = []
    for step in range(1, steps + 1):
        if not np.any(field):
            records.append(_idle(step, "advection"))
            fields.append(field.copy())
            continue
        ops = [_prep(layout, scheme, field), *collision, *setup.tail]
        if backend == "statevector":
            state, record = _run_job(setup.plan, ops, step, "advection")
            flat = decode_field(state, layout)
        else:
            state = apply_circuit(setup.plan, ops)
            hist = sample(state, shots, seed + 7919 * step)
            flat = np.sqrt(hist.frequencies()[: layout.n_sites]) * state.norm_factor * _decode_factor(layout, False)
            record = StepRecord(step, "advection", _measured_selection(hist.counts, _selection(layout)), state.norm_factor)
        field = flat.reshape(field.shape)
        if not np.all(np.isfinite(field)):
            raise SimulationError("advection run diverged", step=step)
        fields.append(field.copy())
        records.append(record)
    return AdvectionResult(scheme.name, np.stack(fields), records)


# ---------------------------------------------------------------------------
# lid-driven cavity
# ---------------------------------------------------------------------------


# the sections of the combined gate list each sector pass replays as built,
# after its fresh PREP (and, in the vorticity pass, its fresh collision)
_SINGLE_SF_TAIL = ["source-fold", "collision-stream-function", "streaming-stream-function", "macro", "boundary"]
_SINGLE_W_TAIL = ["streaming-vorticity", "macro", "boundary"]


@functools.lru_cache(maxsize=_SETUPS)
def _cavity_jobs(variant: str, n: int) -> tuple[_Job, _Job]:
    """The (stream-function, vorticity) jobs of ``variant`` at extent ``n``, built and planned once from the fields at rest.

    Each job runs the encode and the other sections it rebuilds fresh (the
    vorticity collision), then its tail; the rest collision has the structure
    of every step's, so one plan serves every step.
    """
    rest, still = np.zeros((n, n)), np.zeros((2, n, n))
    if variant == "frugal":
        sf_circ = build_stream_function_circuit(D2Q5, n, rest, rest)
        w_circ = build_vorticity_circuit(D2Q5, n, rest, still)
        jobs = [
            (sf_circ, [], ["source-fold", "collision", "streaming", "macro", "boundary"], 0, True),
            (w_circ, ["collision"], ["streaming", "macro", "boundary"], 0, False),
        ]
    else:
        circ = build_single_cavity_circuit(D2Q5, n, rest, rest, rest, still)
        jobs = [(circ, [], _SINGLE_SF_TAIL, 0, True), (circ, ["collision-vorticity"], _SINGLE_W_TAIL, 1, False)]
    return tuple(
        _Job(circ.layout, _job_plan(circ.section_ops(["encode", *fresh, *tail]), circ.layout, sector),
                   tuple(circ.section_ops(tail)), sector, folded)
        for circ, fresh, tail, sector, folded in jobs
    )


def _cavity_job(job: _Job, step: int, name: str, field, source=None, velocity=None):
    """Run one cavity job on the previous step's fields and decode its new field.

    A fresh PREP loads ``field`` into the job's sector (and ``source`` into
    sector 1); given ``velocity``, a fresh vorticity collision follows it; the
    built tail runs as it is.
    """
    layout = job.layout
    if job.sector:
        field, source = np.zeros_like(field), field
    prep = _prep(layout, D2Q5, field, source)
    if not np.any(prep.params):
        return np.zeros(field.shape), _idle(step, name)
    collision = () if velocity is None else build_vorticity_collision_ops(layout, D2Q5, velocity)
    state, record = _run_job(job.plan, [prep, *collision, *job.tail], step, name)
    return decode_field(state, layout, folded=job.folded).reshape(field.shape), record


def run_cavity(spec: CavitySpec, *, variant: str = "frugal") -> CavityRunResult:
    """Lid-driven cavity on the gate pipeline ("frugal" pair or "single" list).

    Each step runs the stream-function job, then the vorticity job: on the
    frugal variant each on its own circuit, on the single variant each as a
    sector pass of the combined gate list. Both decode, then impose the wall
    values classically.
    """
    if variant not in ("frugal", "single"):
        raise ConfigurationError(f"unknown cavity variant {variant!r}")
    sf_job, w_job = _cavity_jobs(variant, spec.n)
    psi, omega = np.zeros((spec.n, spec.n)), np.zeros((spec.n, spec.n))
    psi_hist, omega_hist = [psi], [omega]
    records: list[StepRecord] = []
    for step in range(1, spec.steps + 1):
        velocity = np.stack(velocity_from_stream_function(psi))
        psi_new, rec_sf = _cavity_job(sf_job, step, "stream-function", psi, D2Q5.diffusion * omega)
        omega_new, rec_w = _cavity_job(w_job, step, "vorticity", omega, velocity=velocity)
        records += [rec_sf, rec_w]
        psi, omega = apply_cavity_boundaries(psi_new, omega_new, spec)
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(omega))):
            raise SimulationError("cavity run diverged", step=step)
        psi_hist.append(psi)
        omega_hist.append(omega)
    return CavityRunResult(variant, np.stack(psi_hist), np.stack(omega_hist), records)


# ---------------------------------------------------------------------------
# sampling fidelity sweep
# ---------------------------------------------------------------------------


@dataclass
class FidelityResult:
    shots: list
    mean_infidelity: list
    slope: float
    rows: list  # (shots, trial, fidelity)


def reference_sweep_state(extent: int = 32, steps: int = 50) -> QuantumState:
    """Post-selected pipeline state used as the sampling target.

    Three-link transport of the localized-bump initial condition, advanced
    classically to the final step and then through the circuit once, so the
    returned state is the exact post-selection target of that last step. It
    holds the site qubits only.
    """
    field = np.full(extent, 0.1)
    field[10] = 0.2
    velocity = (0.2,)
    for _ in range(steps - 1):
        field = step_advection_diffusion(D1Q3, field, velocity)
    setup = _transport(D1Q3, extent, "statevector")
    collision = build_advection_collision_ops(setup.layout, D1Q3, velocity)
    state, _ = _run_job(setup.plan, [_prep(setup.layout, D1Q3, field), *collision, *setup.tail], steps, "advection")
    return state


def fidelity_sweep(shots_list, trials: int, seed: int, state: QuantumState | None = None) -> FidelityResult:
    """Mean reconstruction infidelity per shot count, with a log-log slope fit."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials!r}")
    for shots in shots_list:
        require_shots(shots, "each shot count")
    require_seed(seed)
    if len(set(shots_list)) < 2:
        raise ConfigurationError(f"a slope needs at least two distinct shot counts, got {list(shots_list)}")
    state = state or reference_sweep_state()
    rows = []
    means = []
    for i, shots in enumerate(shots_list):
        vals = []
        for t in range(trials):
            hist = sample(state, int(shots), seed + 7919 * i + 104729 * t)
            f = fidelity_from_histogram(state, hist)
            rows.append((int(shots), t, f))
            vals.append(1.0 - f)
        means.append(float(np.mean(vals)))
    log_s = np.log(np.asarray(shots_list, dtype=float))
    log_m = np.log(np.maximum(means, 1e-300))
    slope = float(np.polyfit(log_s, log_m, 1)[0])
    return FidelityResult(list(int(s) for s in shots_list), means, -slope, rows)
