"""End-to-end drivers: run the gate-level pipeline and decode fields.

Every circuit runs from |0...0>, a :class:`~qlbm.statevector.ZeroState`
with no amplitude allocated, and its first gate, the encode PREP, loads the
job's fields. The simulator runs the circuit the resource estimator counts;
the PREP loads the amplitude layout, where the estimator counts the
rotation network, and each block encoding (the collision and the wall
projector, one ``BLOCK`` gate each) multiplies the amplitudes by its
coefficients, where the estimator counts the Hadamards and the diagonal it
lowers to.

Every run at one shape repeats the same gate structure; only the loaded
fields and the collisions' coefficients change. So one function,
``_setup``, sets up every kind of job once per process from a circuit
built at rest: it plans the encode, the sections the job builds fresh and
the rest, its tail, and keeps a ``_Job`` of the scheme, layout, plan and
tail's built gates, the source-flag sector the job selects and whether its
decode is folded; no PREP, and no writable array but the plan's two work
arrays and the views bound on them. The jobs of a shape (transport:
scheme, extent and backend; cavity: variant and extent) sit in a small
fixed-size ``functools.lru_cache``; this pays where one process runs many
jobs of one shape, and the plan's lock keeps two threads' replays of one
job apart.

One function, ``_run_job``, runs every statevector job: a PREP of its
fields (the single circuit's vorticity pass loads its field into sector 1)
and the collision its velocity sets (one per transport run, one per
vorticity job), then the tail, on the cached plan with
:func:`~qlbm.statevector.apply_circuit`, and it decodes the new field. The
PREP and the vorticity collision take their qubits from the layout and are
made with :class:`~qlbm.circuits.GateOp`'s parameter checks only. A run
decodes each step's field once, into its row of the run's ``(steps+1, ...)``
history, which the result holds as it is. The
plan selects every register but the sites while the gates run: each
selected qubit leaves right after the last gate that targets it, and the
collision ancilla and wall flag, which hold 0 until their one BLOCK, never
enter. So the job ends on the site amplitudes alone, and as each of its
gates keeps real amplitudes real (PREP, SHIFT, H, or a BLOCK selected at
once), it runs on float64. A job whose load is all exactly zero (``any()``
of its fields is false) is idle: it builds and runs nothing and records
``zero_input``. Any other load is scaled by its peak, which must be a
normal float, else :class:`~qlbm.errors.EncodingError`. The sampling
backend of :func:`run_advection_diffusion` is the only other place a
circuit runs: its complex plan selects nothing, it samples the whole state
and records as ``select_probs`` the measured shares of shots that hold
each selected value.

The cavity driver runs the stream-function job and then the vorticity job,
both from the previous step's fields, exactly like the classical reference;
it computes the velocity only for a live vorticity job, and imposes the
walls in place on the new rows.
Its variants differ only in their jobs: one per circuit of the frugal pair,
or one per sector pass of the single combined gate list. On hardware the
two frugal circuits run concurrently; the resource estimator counts that
as ``concurrent_depth``, and the simulator runs them in turn.
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
    _layout_gate,
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
    _impose_cavity_walls,
    _real_array,
    require_count,
    require_power_of_two,
    require_scheme,
    step_advection_diffusion,
    velocity_from_stream_function,
)
from .statevector import (
    CircuitPlan,
    QuantumState,
    ZeroState,
    _require_state,
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
    """Elementwise |result - reference| / max(|reference|, ERROR_FLOOR), of two arrays of one shape.

    Arrays of different shapes are a :class:`ConfigurationError`, not broadcast.
    """
    result = _real_array(result, "result")
    reference = _real_array(reference, "reference")
    if result.shape != reference.shape:
        raise ConfigurationError(f"result shape {result.shape} != reference shape {reference.shape}")
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


def decode_field(state: QuantumState, layout: RegisterLayout, *, folded: bool = False, out=None) -> np.ndarray:
    """Read the updated field out of a selected state.

    Every register but the sites must already be selected away, which leaves
    the site amplitudes first. Returns the flat real field over the sites,
    written into ``out``, a flat float64 array of one entry per site, when
    one is given. A ``state`` that is not a :class:`QuantumState` or a
    ``layout`` that is not a :class:`RegisterLayout` is a
    :class:`ConfigurationError`.
    """
    _require_state(state, "state")
    if not isinstance(layout, RegisterLayout):
        raise ConfigurationError(f"layout must be a RegisterLayout, got {type(layout).__name__}")
    field = np.multiply(state.amplitudes[: layout.n_sites].real, state.norm_factor, out=out)
    field *= _decode_factor(layout, folded)
    return field


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


def _idle(step: int, job: str) -> StepRecord:
    """Record of a job whose inputs are all zero: nothing was run."""
    return StepRecord(step, job, {}, 0.0, zero_input=True)


class _Job(NamedTuple):
    """One kind of job, set up once per shape.

    Its scheme and layout, the plan of the gates it runs, the gates it
    replays as built after its fresh ones, its PREP's targets, the
    source-flag sector it selects, and whether its decode is folded.
    """

    scheme: LatticeScheme
    layout: RegisterLayout
    plan: CircuitPlan
    tail: tuple
    encoded: tuple
    sector: int = 0
    folded: bool = False


def _setup(scheme: LatticeScheme, circ, fresh, tail, sector: int = 0, folded: bool = False, *,
           select: bool = True) -> _Job:
    """The job running ``circ``'s encode, its ``fresh`` sections and then its ``tail``, planned once.

    ``circ`` is built at rest; its fresh sections have the structure of
    every step's. The plan selects every register but the sites (the source
    flag onto ``sector``) as they finish, or nothing unless ``select``.
    """
    layout = circ.layout
    selection = _selection(layout, sector) if select else None
    plan = plan_circuit(ZeroState(layout.qubit_count), circ.section_ops(["encode", *fresh, *tail]), selection)
    return _Job(scheme, layout, plan, tuple(circ.section_ops(tail)), layout.encoded_qubits, sector, folded)


def _prep(job: _Job, field, source=None) -> GateOp:
    """The encode PREP of one job's fields, on the targets its layout gave at set-up."""
    return _layout_gate("PREP", job.encoded, (), (), encoding_vector(job.layout, job.scheme, field, source=source))


def _run_job(job: _Job, step: int, name: str, field, source=None, *, collision=(), velocity=None, out=None):
    """Run one statevector job on the previous step's fields: (new field, record, site state).

    A fresh PREP loads ``field`` (and ``source``) into the job's sector; the
    ``collision`` gates, or the vorticity collision ``velocity`` sets, built
    only once the load is known not to be all zero, follow it, then the
    tail. The new field is written into ``out``, a C-contiguous float64
    array of the field's shape (a new one if None), which is returned. An
    all-zero load builds and runs nothing, not even its PREP: its new field
    is the field it loaded, and it has no state.
    """
    if out is None:
        out = np.empty(field.shape)
    if job.sector:
        field, source = np.zeros_like(field), field
    # the PREP replicates the fields over the links, so it is all zero exactly when they are
    if not (field.any() or source is not None and source.any()):
        out[...] = field
        return out, _idle(step, name), None
    prep = _prep(job, field, source)
    if velocity is not None:
        collision = build_vorticity_collision_ops(job.layout, job.scheme, velocity)
    state, probs = apply_circuit(job.plan, [prep, *collision, *job.tail])
    decode_field(state, job.layout, folded=job.folded, out=out.reshape(-1))
    return out, StepRecord(step, name, probs, state.norm_factor), state


@functools.lru_cache(maxsize=_SETUPS)
def _transport(scheme: LatticeScheme, extent: int, backend: str) -> _Job:
    """The job of ``scheme`` transport at ``extent`` on ``backend``, set up from the field at rest.

    On the sampling backend its plan selects nothing.
    """
    rest = np.zeros((extent,) * scheme.dimension)
    circ = build_advection_diffusion_circuit(scheme, extent, rest, np.zeros(scheme.dimension))
    return _setup(scheme, circ, ["collision"], ["streaming", "macro"], select=backend == "statevector")


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
    A ``scheme`` that is not a :class:`~qlbm.lattice.LatticeScheme` is a
    :class:`ConfigurationError`.
    """
    require_scheme(scheme)
    if backend not in ("statevector", "sampling"):
        raise ConfigurationError(f"unknown backend {backend!r}")
    require_count(steps, "steps")
    if not np.isfinite(_real_array(velocity, "velocity")).all():
        raise ConfigurationError(f"velocity must be finite, got {velocity}")
    field = _real_array(field0, "field0")
    if field.ndim != scheme.dimension or len(set(field.shape)) != 1:
        raise ConfigurationError(f"field shape {field.shape} does not fit {scheme.name}")
    extent = field.shape[0]
    if backend == "sampling":
        require_shots(shots)
        require_seed(seed)
        if (field < 0).any():
            raise EncodingError("the sampling backend cannot recover negative field values")
    job = _transport(scheme, extent, backend)
    layout = job.layout
    collision = build_advection_collision_ops(layout, scheme, velocity)
    # each step's field is written once, into its row
    fields = np.empty((steps + 1, *field.shape))
    fields[0] = field
    records: list[StepRecord] = []
    for step in range(1, steps + 1):
        field, row = fields[step - 1], fields[step]
        if backend == "statevector":
            _, record, _ = _run_job(job, step, "advection", field, collision=collision, out=row)
        elif not field.any():
            row[...] = field
            record = _idle(step, "advection")
        else:
            state = apply_circuit(job.plan, [_prep(job, field), *collision, *job.tail])
            hist = sample(state, shots, seed + 7919 * step)
            flat = np.sqrt(hist.frequencies()[: layout.n_sites], out=row.reshape(-1))
            flat *= state.norm_factor
            flat *= _decode_factor(layout, False)
            record = StepRecord(step, "advection", _measured_selection(hist.counts, _selection(layout)), state.norm_factor)
        if not np.isfinite(row).all():
            raise SimulationError("advection run diverged", step=step)
        records.append(record)
    return AdvectionResult(scheme.name, fields, records)


# ---------------------------------------------------------------------------
# lid-driven cavity
# ---------------------------------------------------------------------------


# the sections of the combined gate list each sector pass replays as built,
# after its fresh PREP (and, in the vorticity pass, its fresh collision)
_SINGLE_SF_TAIL = ["source-fold", "collision-stream-function", "streaming-stream-function", "macro", "boundary"]
_SINGLE_W_TAIL = ["streaming-vorticity", "macro", "boundary"]


@functools.lru_cache(maxsize=_SETUPS)
def _cavity_jobs(variant: str, n: int) -> tuple[_Job, _Job]:
    """The (stream-function, vorticity) jobs of ``variant`` at extent ``n``, set up from the fields at rest.

    Only the vorticity job builds a section fresh, its collision.
    """
    rest, still = np.zeros((n, n)), np.zeros((2, n, n))
    if variant == "frugal":
        sf_circ = build_stream_function_circuit(D2Q5, n, rest, rest)
        w_circ = build_vorticity_circuit(D2Q5, n, rest, still)
        return (_setup(D2Q5, sf_circ, [], ["source-fold", "collision", "streaming", "macro", "boundary"], folded=True),
                _setup(D2Q5, w_circ, ["collision"], ["streaming", "macro", "boundary"]))
    circ = build_single_cavity_circuit(D2Q5, n, rest, rest, rest, still)
    return (_setup(D2Q5, circ, [], _SINGLE_SF_TAIL, folded=True),
            _setup(D2Q5, circ, ["collision-vorticity"], _SINGLE_W_TAIL, sector=1))


def run_cavity(spec: CavitySpec, *, variant: str = "frugal") -> CavityRunResult:
    """Lid-driven cavity on the gate pipeline ("frugal" pair or "single" list).

    Each step runs the stream-function job, then the vorticity job: on the
    frugal variant each on its own circuit, on the single variant each as a
    sector pass of the combined gate list. The velocity is computed only
    when the vorticity job is live, its field not all zero. Both jobs decode
    into the step's rows of the ``psi`` and ``omega`` histories, where the
    wall values are then imposed classically, in place.
    """
    if not isinstance(spec, CavitySpec):
        raise ConfigurationError(f"spec must be a CavitySpec, got {type(spec).__name__}")
    if variant not in ("frugal", "single"):
        raise ConfigurationError(f"unknown cavity variant {variant!r}")
    sf_job, w_job = _cavity_jobs(variant, spec.n)
    # each step's fields are decoded into their rows and get their walls there
    shape = (spec.steps + 1, spec.n, spec.n)
    psi_hist, omega_hist = np.empty(shape), np.empty(shape)
    psi_hist[0] = omega_hist[0] = 0.0
    records: list[StepRecord] = []
    for step in range(1, spec.steps + 1):
        psi, omega, psi_new, omega_new = psi_hist[step - 1], omega_hist[step - 1], psi_hist[step], omega_hist[step]
        # the vorticity job is idle while omega is all zero, and then needs no velocity
        velocity = velocity_from_stream_function(psi) if omega.any() else None
        _, rec_sf, _ = _run_job(sf_job, step, "stream-function", psi, D2Q5.diffusion * omega, out=psi_new)
        _, rec_w, _ = _run_job(w_job, step, "vorticity", omega, velocity=velocity, out=omega_new)
        records += [rec_sf, rec_w]
        _impose_cavity_walls(psi_new, omega_new, spec.lid_velocity)
        if not (np.isfinite(psi_new).all() and np.isfinite(omega_new).all()):
            raise SimulationError("cavity run diverged", step=step)
    return CavityRunResult(variant, psi_hist, omega_hist, records)


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
    holds the site qubits only. The bump sits at site 10, so ``extent`` is a
    power of two >= 16; ``steps`` is at least 1. Anything else is a
    :class:`ConfigurationError`.
    """
    require_power_of_two(extent)
    if extent < 16:
        raise ConfigurationError(f"extent must be at least 16 to hold the bump at site 10, got {extent!r}")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ConfigurationError(f"steps must be an integer >= 1, got {steps!r}")
    field = np.full(extent, 0.1)
    field[10] = 0.2
    velocity = (0.2,)
    for _ in range(steps - 1):
        field = step_advection_diffusion(D1Q3, field, velocity)
    job = _transport(D1Q3, extent, "statevector")
    collision = build_advection_collision_ops(job.layout, D1Q3, velocity)
    _, _, state = _run_job(job, steps, "advection", field, collision=collision)
    return state


def fidelity_sweep(shots_list, trials: int, seed: int, state: QuantumState | None = None) -> FidelityResult:
    """Mean reconstruction infidelity per shot count, with a log-log slope fit."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials!r}")
    try:
        counts = iter(shots_list)
    except TypeError:
        raise ConfigurationError(f"shots_list must be an iterable of shot counts, got {type(shots_list).__name__}") from None
    shots_list = [require_shots(shots, "each shot count") for shots in counts]  # read once
    require_seed(seed)
    if len(set(shots_list)) < 2:
        raise ConfigurationError(f"a slope needs at least two distinct shot counts, got {shots_list}")
    if state is None:
        state = reference_sweep_state()
    _require_state(state, "state")
    rows = []
    means = []
    for i, shots in enumerate(shots_list):
        vals = []
        for t in range(trials):
            hist = sample(state, shots, seed + 7919 * i + 104729 * t)
            f = fidelity_from_histogram(state, hist)
            rows.append((shots, t, f))
            vals.append(1.0 - f)
        means.append(float(np.mean(vals)))
    log_s = np.log(np.asarray(shots_list, dtype=float))
    log_m = np.log(np.maximum(means, 1e-300))
    slope = float(np.polyfit(log_s, log_m, 1)[0])
    return FidelityResult(shots_list, means, -slope, rows)
