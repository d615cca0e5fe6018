"""End-to-end drivers: run the gate-level pipeline and decode fields.

Each transport step loads the amplitude layout directly, applies the
collision / streaming / macro (and boundary) sections, selects the
ancilla/link/flag registers, and decodes the updated field. Circuits are
built without their encode section: the rotation-network state prep is
counted by the resource estimator, and loading the amplitudes is equivalent.
Advection with a uniform velocity has a step body that depends on neither
the field nor the step, so it is built once per run; the cavity circuits
carry the current velocity field and are built every step.

The cavity driver runs the stream-function job and then the vorticity job,
both from the previous step's fields, exactly like the classical reference.
On hardware the two frugal circuits run concurrently; the resource estimator
counts that as ``concurrent_depth``, and the simulator runs them in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .circuits import (
    CircuitIR,
    RegisterLayout,
    build_advection_diffusion_circuit,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
    encoding_vector,
)
from .errors import ConfigurationError, EncodingError, SimulationError
from .lattice import (
    CavitySpec,
    D1Q3,
    D2Q5,
    FlowParams,
    LatticeScheme,
    apply_cavity_boundaries,
    step_advection_diffusion,
    velocity_from_stream_function,
)
from .statevector import (
    QuantumState,
    amplitude_encode,
    apply_circuit,
    fidelity_from_histogram,
    postselect_many,
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


def relative_error(result, reference, floor: float = ERROR_FLOOR) -> np.ndarray:
    """Elementwise |result - reference| / max(|reference|, floor)."""
    result = np.asarray(result, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.abs(result - reference) / np.maximum(np.abs(reference), floor)


@dataclass
class StepRecord:
    """Diagnostics for one circuit execution."""

    step: int
    job: str
    select_probs: dict = dataclass_field(default_factory=dict)
    norm_factor: float = 0.0
    zero_input: bool = False


@dataclass
class AdvectionResult:
    scheme: str
    fields: np.ndarray  # (steps+1,) + field shape
    records: list

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


@dataclass
class CavityRunResult:
    variant: str
    psi: np.ndarray  # (steps+1, n, n)
    omega: np.ndarray
    records: list


def _decode_factor(layout: RegisterLayout, folded: bool) -> float:
    return float(np.sqrt(2.0) ** (layout.n_d + (1 if folded else 0)))


def decode_field(state: QuantumState, layout: RegisterLayout, *, folded: bool = False, sector: dict | None = None) -> np.ndarray:
    """Read the updated field out of a fully selected state.

    All non-site registers must already be selected; ``sector`` names any
    register bits that were selected to 1 (their basis offset). Returns the
    flat real field over the sites.
    """
    base = 0
    for qubit, bit in (sector or {}).items():
        base |= bit << qubit
    block = state.amplitudes[base : base + layout.n_sites]
    return block.real * state.norm_factor * _decode_factor(layout, folded)


def _selection_plan(layout: RegisterLayout, s_value: int | None = None) -> dict[int, int]:
    plan = {q: 0 for q in layout.a + layout.d + layout.b}
    if layout.n_s:
        plan[layout.s[0]] = 0 if s_value is None else s_value
    return plan


def _run_sections(circ: CircuitIR, state: QuantumState, names) -> QuantumState:
    return apply_circuit(state, circ.section_ops(names))


def _field_shape(scheme: LatticeScheme, extent: int) -> tuple[int, ...]:
    return (extent,) * scheme.dimension


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
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    field = np.asarray(field0, dtype=float)
    extent = field.shape[0]
    if field.shape != _field_shape(scheme, extent):
        raise ConfigurationError(f"field shape {field.shape} does not fit {scheme.name}")
    if backend == "sampling" and np.any(field < 0):
        raise EncodingError("the sampling backend cannot recover negative field values")
    circ = build_advection_diffusion_circuit(scheme, extent, field, velocity, encode=False)
    layout = circ.layout
    body = circ.section_ops(["collision", "streaming", "macro"])
    fields = [field.copy()]
    records: list[StepRecord] = []
    for step in range(1, steps + 1):
        if not np.any(field):
            records.append(StepRecord(step, "advection", {}, 0.0, zero_input=True))
            fields.append(field.copy())
            continue
        vec = encoding_vector(layout, scheme, field)
        state = amplitude_encode(vec, layout.qubit_count)
        nf0 = state.norm_factor
        apply_circuit(state, body)
        if backend == "statevector":
            state, probs = postselect_many(state, _selection_plan(layout))
            flat = decode_field(state, layout, folded=False)
            record = StepRecord(step, "advection", probs, state.norm_factor)
        else:
            hist = sample(state, shots, seed + 7919 * step)
            freq = hist.frequencies()[: layout.n_sites]
            flat = np.sqrt(freq) * nf0 * _decode_factor(layout, False)
            record = StepRecord(step, "advection", {}, nf0)
        field = flat.reshape(field.shape)
        if not np.all(np.isfinite(field)):
            raise SimulationError("advection run diverged", step=step)
        fields.append(field.copy())
        records.append(record)
    return AdvectionResult(scheme.name, np.stack(fields), records)


# ---------------------------------------------------------------------------
# lid-driven cavity
# ---------------------------------------------------------------------------


def _sf_job(extent, psi, scaled_source, step) -> tuple[np.ndarray, StepRecord]:
    vec_norm = np.linalg.norm(psi) + np.linalg.norm(scaled_source)
    if vec_norm == 0.0:
        return np.zeros((extent, extent)), StepRecord(step, "stream-function", {}, 0.0, True)
    circ = build_stream_function_circuit(D2Q5, extent, psi, scaled_source, encode=False)
    layout = circ.layout
    state = amplitude_encode(encoding_vector(layout, D2Q5, psi, source=scaled_source), layout.qubit_count)
    _run_sections(circ, state, ["source-fold", "collision", "streaming", "macro", "boundary"])
    state, probs = postselect_many(state, _selection_plan(layout, s_value=0))
    flat = decode_field(state, layout, folded=True)
    return flat.reshape(extent, extent), StepRecord(step, "stream-function", probs, state.norm_factor)


def _vorticity_job(extent, omega, velocity_fields, step) -> tuple[np.ndarray, StepRecord]:
    if not np.any(omega):
        return np.zeros((extent, extent)), StepRecord(step, "vorticity", {}, 0.0, True)
    circ = build_vorticity_circuit(D2Q5, extent, omega, velocity_fields, encode=False)
    layout = circ.layout
    state = amplitude_encode(encoding_vector(layout, D2Q5, omega), layout.qubit_count)
    _run_sections(circ, state, ["collision", "streaming", "macro", "boundary"])
    state, probs = postselect_many(state, _selection_plan(layout))
    flat = decode_field(state, layout, folded=False)
    return flat.reshape(extent, extent), StepRecord(step, "vorticity", probs, state.norm_factor)


_SINGLE_SF_SPANS = ["source-fold", "collision-stream-function", "streaming-stream-function", "macro", "boundary"]
_SINGLE_W_SPANS = ["collision-vorticity", "streaming-vorticity", "macro", "boundary"]


def _single_step(extent, psi, omega, scaled_source, velocity_fields, step):
    """Both cavity updates from the combined gate list, one sector pass each."""
    if not (np.any(psi) or np.any(scaled_source) or np.any(omega)):
        zeros = np.zeros((extent, extent))
        return zeros, zeros.copy(), [
            StepRecord(step, "stream-function", {}, 0.0, True),
            StepRecord(step, "vorticity", {}, 0.0, True),
        ]
    circ = build_single_cavity_circuit(D2Q5, extent, psi, scaled_source, omega, velocity_fields, encode=False)
    layout = circ.layout
    records = []

    if np.linalg.norm(psi) + np.linalg.norm(scaled_source) == 0.0:
        psi_new = np.zeros((extent, extent))
        records.append(StepRecord(step, "stream-function", {}, 0.0, True))
    else:
        vec = encoding_vector(layout, D2Q5, psi, source=scaled_source)
        state = amplitude_encode(vec, layout.qubit_count)
        _run_sections(circ, state, _SINGLE_SF_SPANS)
        state, probs = postselect_many(state, _selection_plan(layout, s_value=0))
        psi_new = decode_field(state, layout, folded=True).reshape(extent, extent)
        records.append(StepRecord(step, "stream-function", probs, state.norm_factor))

    if not np.any(omega):
        omega_new = np.zeros((extent, extent))
        records.append(StepRecord(step, "vorticity", {}, 0.0, True))
    else:
        vec = encoding_vector(layout, D2Q5, np.zeros((extent, extent)), source=omega)
        state = amplitude_encode(vec, layout.qubit_count)
        _run_sections(circ, state, _SINGLE_W_SPANS)
        state, probs = postselect_many(state, _selection_plan(layout, s_value=1))
        omega_new = decode_field(
            state, layout, folded=False, sector={layout.s[0]: 1}
        ).reshape(extent, extent)
        records.append(StepRecord(step, "vorticity", probs, state.norm_factor))

    return psi_new, omega_new, records


def run_cavity(spec: CavitySpec, params: FlowParams | None = None, *, variant: str = "frugal") -> CavityRunResult:
    """Lid-driven cavity on the gate pipeline ("frugal" pair or "single" list).

    The frugal variant runs two separate circuits per step, one after the
    other; the single variant executes sector passes of the combined gate
    list. Both decode, then impose the wall values classically.
    """
    if variant not in ("frugal", "single"):
        raise ConfigurationError(f"unknown cavity variant {variant!r}")
    params = params or FlowParams(lid_velocity=spec.lid_velocity)
    n = spec.n
    scale = params.dt * params.diffusion(D2Q5)
    psi = np.zeros((n, n))
    omega = np.zeros((n, n))
    psi_hist, omega_hist = [psi], [omega]
    records: list[StepRecord] = []
    for step in range(1, spec.steps + 1):
        u, v = velocity_from_stream_function(psi, spec.delta)
        vel = np.stack([u, v])
        if variant == "frugal":
            psi_new, rec_sf = _sf_job(n, psi, scale * omega, step)
            omega_new, rec_w = _vorticity_job(n, omega, vel, step)
            records += [rec_sf, rec_w]
        else:
            psi_new, omega_new, recs = _single_step(n, psi, omega, scale * omega, vel, step)
            records += recs
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
    returned state is the exact post-selection target of that last step.
    """
    field = np.full(extent, 0.1)
    field[10] = 0.2
    velocity = (0.2,)
    for _ in range(steps - 1):
        field = step_advection_diffusion(D1Q3, field, velocity)
    circ = build_advection_diffusion_circuit(D1Q3, extent, field, velocity, encode=False)
    layout = circ.layout
    state = amplitude_encode(encoding_vector(layout, D1Q3, field), layout.qubit_count)
    _run_sections(circ, state, ["collision", "streaming", "macro"])
    state, _ = postselect_many(state, _selection_plan(layout))
    return state


def fidelity_sweep(shots_list, trials: int, seed: int, state: QuantumState | None = None) -> FidelityResult:
    """Mean reconstruction infidelity per shot count, with a log-log slope fit."""
    if trials < 1:
        raise ConfigurationError("need at least one trial")
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
