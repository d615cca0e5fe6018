"""Statevector simulation: encoding, gate application, selection, sampling.

Amplitudes are kept unit-normalized; the physical scale of the encoded field
travels separately in ``norm_factor``. Post-selecting a register multiplies
the norm factor by sqrt(p) and renormalizes, so decoded field values are
invariant under where in the pipeline the selection happens.

Gate application dispatches to the strided-view kernels in :mod:`qlbm._kernels`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import _kernels
from .circuits import _control_mask_val, gate_matrix_1q
from .errors import ConfigurationError, EncodingError, PostSelectionError

__all__ = [
    "QuantumState",
    "SampleHistogram",
    "amplitude_encode",
    "apply_circuit",
    "postselect",
    "postselect_many",
    "sample",
    "state_fidelity",
    "fidelity_from_histogram",
    "save_state_qstv",
    "load_state_qstv",
    "save_histogram_csv",
    "load_histogram_csv",
]

_MIN_SELECT_PROBABILITY = 1e-14


@dataclass
class QuantumState:
    """n-qubit amplitude vector plus the magnitude it was normalized away from."""

    n_qubits: int
    amplitudes: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ConfigurationError(
                f"amplitude vector of length {self.amplitudes.size} does not fit {self.n_qubits} qubits"
            )

    @classmethod
    def zero(cls, n_qubits: int) -> "QuantumState":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy(), self.norm_factor)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def amplitude_encode(values, n_qubits: int) -> QuantumState:
    """Load a real vector into amplitudes, zero-padded up to 2^n_qubits."""
    v = np.asarray(values, dtype=float).ravel()
    size = 1 << n_qubits
    if v.size > size:
        raise EncodingError(f"{v.size} values do not fit in {n_qubits} qubits")
    if not np.all(np.isfinite(v)):
        raise EncodingError("cannot amplitude-encode a field with non-finite values")
    peak = float(np.abs(v).max()) if v.size else 0.0
    if peak == 0.0:
        raise EncodingError("cannot amplitude-encode an all-zero field")
    # normalize against the peak first so squaring cannot under/overflow
    unit = v / peak
    unit_norm = float(np.linalg.norm(unit))
    amps = np.zeros(size, dtype=np.complex128)
    amps[: v.size] = unit / unit_norm
    return QuantumState(n_qubits, amps, peak * unit_norm)


def apply_circuit(state: QuantumState, ops) -> QuantumState:
    """Apply a gate sequence in place (returns the same state for chaining)."""
    amps = state.amplitudes
    for op in ops:
        cmask, cval = _control_mask_val(op)
        kind = op.kind
        if kind == "MCX":
            _kernels.apply_mcx(amps, 1 << op.targets[0], cmask, cval)
        elif kind == "PHASE":
            _kernels.apply_phase(amps, 1 << op.targets[0], cmask, cval, complex(np.exp(1j * op.params[0])))
        elif kind == "DIAG":
            qpos = np.array(op.targets, dtype=np.int64)
            phases = np.exp(1j * np.asarray(op.params, dtype=float))
            _kernels.apply_diag(amps, qpos, phases, cmask, cval)
        elif kind == "GPHASE":
            if op.controls:
                raise ConfigurationError("controlled global phase is not supported")
            amps *= np.exp(1j * op.params[0])
        else:
            u = gate_matrix_1q(op)
            _kernels.apply_1q(
                amps, 1 << op.targets[0], cmask, cval,
                complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]),
            )
    return state


def postselect(state: QuantumState, qubit: int, value: int) -> tuple[QuantumState, float]:
    """Project one qubit onto |value> and renormalize.

    Returns the projected state and the selection probability. The norm
    factor absorbs sqrt(p), keeping decoded magnitudes unchanged.
    """
    if value not in (0, 1):
        raise ConfigurationError("selection value must be 0 or 1")
    if not 0 <= qubit < state.n_qubits:
        raise ConfigurationError(f"qubit {qubit} is outside a {state.n_qubits}-qubit state")
    amps = state.amplitudes
    shape = (amps.size >> (qubit + 1), 2, 1 << qubit)
    kept = amps.reshape(shape)[:, value, :]
    p = float(np.sum(np.abs(kept) ** 2))
    if p < _MIN_SELECT_PROBABILITY:
        raise PostSelectionError(
            f"selecting qubit {qubit} = {value} has probability {p:.3e}"
        )
    new = np.zeros_like(amps)
    new.reshape(shape)[:, value, :] = kept / np.sqrt(p)
    return QuantumState(state.n_qubits, new, state.norm_factor * np.sqrt(p)), p


def postselect_many(state: QuantumState, plan: dict[int, int]) -> tuple[QuantumState, dict[int, float]]:
    """Select several qubits in sequence; returns per-qubit probabilities."""
    probs = {}
    for qubit in sorted(plan):
        state, p = postselect(state, qubit, plan[qubit])
        probs[qubit] = p
    return state, probs


@dataclass
class SampleHistogram:
    """Measured counts over computational basis states."""

    n_qubits: int
    shots: int
    counts: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (1 << self.n_qubits,):
            raise ConfigurationError("counts length must be 2^n_qubits")

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def sample(state: QuantumState, shots: int, seed: int) -> SampleHistogram:
    """Draw measurement counts with a counter-based generator (reproducible)."""
    if shots < 1:
        raise ConfigurationError("shots must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    p = state.probabilities()
    p = p / p.sum()
    counts = rng.multinomial(shots, p)
    return SampleHistogram(state.n_qubits, shots, counts)


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 on the normalized amplitude vectors."""
    if a.n_qubits != b.n_qubits:
        raise ConfigurationError("states live on different qubit counts")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def fidelity_from_histogram(ideal: QuantumState, hist: SampleHistogram) -> float:
    """Fidelity against the state reconstructed as sqrt(count/shots).

    Counts carry no phase, so the reconstruction is meaningful for target
    states with nonnegative real amplitudes (every decode target here);
    the overlap uses |amplitude| accordingly.
    """
    if ideal.n_qubits != hist.n_qubits:
        raise ConfigurationError("histogram does not match the state size")
    est = np.sqrt(hist.frequencies())
    return float(np.sum(np.abs(ideal.amplitudes) * est) ** 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_QSTV_MAGIC = b"QSTV"


def save_state_qstv(path, state: QuantumState) -> None:
    """Binary state dump: magic, u32 qubit count, f64 norm factor, re/im pairs."""
    with open(path, "wb") as fh:
        fh.write(_QSTV_MAGIC)
        fh.write(struct.pack("<I", state.n_qubits))
        fh.write(struct.pack("<d", state.norm_factor))
        inter = np.empty(2 * state.amplitudes.size)
        inter[0::2] = state.amplitudes.real
        inter[1::2] = state.amplitudes.imag
        fh.write(inter.astype("<f8").tobytes())


def load_state_qstv(path) -> QuantumState:
    with open(path, "rb") as fh:
        if fh.read(4) != _QSTV_MAGIC:
            raise ConfigurationError("not a statevector file (bad magic)")
        (n_qubits,) = struct.unpack("<I", fh.read(4))
        (norm_factor,) = struct.unpack("<d", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != 2 << n_qubits:
        raise ConfigurationError("statevector payload has the wrong length")
    amps = data[0::2] + 1j * data[1::2]
    return QuantumState(n_qubits, amps, norm_factor)


def save_histogram_csv(path, hist: SampleHistogram) -> None:
    """Nonzero counts as CSV: basis index, bitstring (msb first), count."""
    with open(path, "w", newline="") as fh:
        fh.write("basis_index,bitstring,count\n")
        for i in np.flatnonzero(hist.counts):
            bits = format(i, f"0{hist.n_qubits}b")
            fh.write(f"{i},{bits},{hist.counts[i]}\n")


def load_histogram_csv(path) -> SampleHistogram:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "basis_index,bitstring,count":
            raise ConfigurationError(f"bad histogram header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ConfigurationError("histogram file has no counts")
    n_qubits = len(rows[0][1])
    counts = np.zeros(1 << n_qubits, dtype=np.int64)
    for idx_s, bits, count_s in rows:
        i = int(idx_s)
        if int(bits, 2) != i:
            raise ConfigurationError(f"bitstring {bits} does not match index {i}")
        counts[i] = int(count_s)
    return SampleHistogram(n_qubits, int(counts.sum()), counts)
