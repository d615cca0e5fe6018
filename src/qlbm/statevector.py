"""Statevector simulation: gate application, selection, sampling.

Amplitudes are kept unit-normalized; the physical scale of the encoded field
travels separately in ``norm_factor``. Post-selecting a register multiplies
the norm factor by sqrt(p) and renormalizes, so decoded field values are
invariant under where in the pipeline the selection happens.

Every circuit starts from |0...0>, a :class:`ZeroState`, and its amplitudes
enter one way: a ``PREP`` gate writes its unit vector onto qubits that are
still outside the amplitude array. Gate application dispatches to the
strided-view kernels in :mod:`qlbm._kernels`. A qubit is in the array only
between its first gate and its last, so :func:`apply_circuit` allocates
nothing of the state's size: each qubit enters the array at the first gate
that needs it there. Given a selection plan, it selects each planned qubit
in the same gate loop, right after the last gate that targets it, and drops
it from the state, so every later gate runs on half as many amplitudes. An
uncontrolled single-qubit gate on an entering qubit is one write of the two
new halves, and one followed by a selection is one contraction (gate
fusion, Häner & Steiger, arXiv:1704.01127).
:func:`postselect` and :func:`postselect_many` select a finished state and
keep its size; they are the reference the in-loop selection is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import _kernels
from .circuits import gate_matrix_1q, unit_amplitudes
from .errors import ConfigurationError, PostSelectionError
from .lattice import require_count

__all__ = [
    "MAX_SHOTS",
    "QuantumState",
    "ZeroState",
    "SampleHistogram",
    "apply_circuit",
    "postselect",
    "postselect_many",
    "sample",
    "fidelity_from_histogram",
]

_MIN_SELECT_PROBABILITY = 1e-14

_KET0 = np.array([1.0, 0.0])  # a qubit entering in |0>

# numpy's multinomial draws take the shot count as a C long
MAX_SHOTS = (1 << 63) - 1


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

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class ZeroState:
    """|0...0> on ``n_qubits`` qubits, held as the count alone: the start of every circuit."""

    n_qubits: int

    def __post_init__(self):
        require_count(self.n_qubits, "n_qubits")


def apply_circuit(start: ZeroState, ops, select: dict[int, int] | None = None):
    """Run a gate sequence from |0...0>; with ``select``, post-select while the gates run.

    A PREP writes its vector, normalized by
    :func:`~qlbm.circuits.unit_amplitudes`, onto its targets and multiplies
    the norm factor by the norm it was scaled from. Its targets must still
    be outside the amplitude array, so in |0>: a PREP onto a qubit that an
    earlier gate made enter raises :class:`ConfigurationError`.

    Each qubit is either in the amplitude array or known to hold a value.
    Every qubit starts out known to hold 0, and enters the array at its
    sorted bit position at the first gate that needs it there. A PREP's
    unit vector goes straight into place; onto an empty array it is the new
    array. An uncontrolled single-qubit gate U on an entering qubit writes
    the two new halves ``U[0, 0] * a`` and ``U[1, 0] * a`` at once. A
    diagonal gate lets no qubit enter: on a qubit that holds 0 it applies
    its phases at that qubit's 0. A control on a known qubit is dropped when
    the value matches, and the gate is skipped when it does not. A qubit
    that no gate made enter and no selection planned enters in |0> at the
    end, so the returned state holds every qubit not selected.

    ``select`` maps qubit -> value (0 or 1). Each planned qubit is projected
    onto its value and leaves the state right after the last gate that
    targets it, or at the start when no gate does; the amplitude array
    halves and the qubit is known to hold its value from then on. Dropping
    a later control on it is exact, because the projector commutes with a
    gate that only controls on the qubit. When that last gate is an
    uncontrolled single-qubit gate U, gate and selection are one contraction
    of the two halves, ``U[v, 0] * a0 + U[v, 1] * a1``. A qubit that never
    entered holds 0 for certain, so selecting 0 has probability 1. Every
    selection raises :class:`PostSelectionError` below
    ``_MIN_SELECT_PROBABILITY``.

    Without ``select``, returns the new state over every qubit. With it,
    returns ``(selected, probs)``: the state over the kept qubits (in their
    original order, so bit k is the k-th lowest kept qubit) and the
    conditional probability of each selection, in selection order.
    """
    n_qubits = start.n_qubits
    plan = {} if select is None else _checked_plan(select, n_qubits)
    ops = list(ops)
    last = dict.fromkeys(plan, -1)
    for i, op in enumerate(ops):
        if op.qubits and max(op.qubits) >= n_qubits:
            raise ConfigurationError(f"{op.kind} on qubit {max(op.qubits)} is outside a {n_qubits}-qubit state")
        for q in op.targets:
            if q in last:
                last[q] = i
    due: dict[int, list[int]] = {}
    for q in sorted(plan):
        due.setdefault(last[q], []).append(q)

    amps, norm = np.ones(1, dtype=np.complex128), 1.0
    known = dict.fromkeys(range(n_qubits), 0)  # qubit -> value, for qubits outside amps
    bit_of: dict[int, int] = {}  # qubit -> bit, for qubits in amps
    probs: dict[int, float] = {}

    def renumber(qubits):
        nonlocal bit_of
        bit_of = {q: b for b, q in enumerate(sorted(qubits))}

    def enter(targets, unit=_KET0):
        nonlocal amps
        amps = _product(unit, targets, amps, sorted(bit_of))
        for q in targets:
            del known[q]
        renumber([*bit_of, *targets])

    def drop(q, row=None):
        nonlocal amps, norm
        if q in known:  # never entered, so it holds 0
            if plan[q] != known[q]:
                raise PostSelectionError(f"selecting qubit {q} = {plan[q]} has probability 0")
            probs[q] = 1.0
            return
        amps, p = _drop_bit(amps, bit_of[q], plan[q], q, row)
        norm *= np.sqrt(p)
        probs[q] = p
        known[q] = plan[q]
        renumber(k for k in bit_of if k != q)

    def masks(live):
        cmask = cval = 0
        for q, v in live:
            cmask |= 1 << bit_of[q]
            cval |= v << bit_of[q]
        return cmask, cval

    for q in due.get(-1, ()):
        drop(q)
    for i, op in enumerate(ops):
        kind = op.kind
        if kind == "GPHASE" and op.controls:
            raise ConfigurationError("controlled global phase is not supported")
        chosen = due.get(i, ())
        live = []  # controls on qubits in amps
        for q, v in zip(op.controls, op.control_values):
            if q in bit_of:
                live.append((q, v))
            elif v != known[q]:
                break  # the control holds the other value: the gate acts as identity
        else:
            # a target outside amps has not entered yet and holds 0, because
            # a qubit is dropped only after the last gate that targets it
            entering = [q for q in op.targets if q in known]
            if kind == "PREP":
                for q in op.targets:
                    if q in bit_of:
                        raise ConfigurationError(f"PREP onto qubit {q} after a gate on it: a PREP loads only qubits still in |0>")
                unit, scale = unit_amplitudes(op.params)
                enter(op.targets, unit)
                norm *= scale
            elif kind == "PHASE" and entering:
                pass  # diag(1, e^{i theta}) on a qubit that holds 0
            elif kind == "DIAG":
                targets, phases = _fix_known(op.targets, op.params, known)
                qpos = np.array([bit_of[q] for q in targets], dtype=np.int64)
                _kernels.apply_diag(amps, qpos, np.exp(1j * phases), *masks(live))
            elif entering and not live and kind != "MCX":
                enter(op.targets, gate_matrix_1q(op)[:, 0])  # U|0> in one write
            else:
                for q in entering:
                    enter((q,))
                cmask, cval = masks(live)
                if kind == "MCX":
                    _kernels.apply_mcx(amps, 1 << bit_of[op.targets[0]], cmask, cval)
                elif kind == "PHASE":
                    _kernels.apply_phase(amps, 1 << bit_of[op.targets[0]], cmask, cval, complex(np.exp(1j * op.params[0])))
                elif kind == "GPHASE":
                    amps *= np.exp(1j * op.params[0])
                else:
                    u = gate_matrix_1q(op)
                    if chosen and not cmask:
                        (q,) = chosen
                        drop(q, u[plan[q]])
                        continue
                    _kernels.apply_1q(
                        amps, 1 << bit_of[op.targets[0]], cmask, cval,
                        complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]),
                    )
        for q in chosen:
            drop(q)
    for q in sorted(known.keys() - plan.keys()):
        enter((q,))
    if select is None:
        return QuantumState(n_qubits, amps, norm)
    return QuantumState(len(bit_of), amps, norm), probs


def _checked_plan(select, n_qubits: int) -> dict[int, int]:
    for qubit, value in select.items():
        if not 0 <= qubit < n_qubits:
            raise ConfigurationError(f"selected qubit {qubit} is outside a {n_qubits}-qubit state")
        if value not in (0, 1):
            raise ConfigurationError(f"selection value for qubit {qubit} must be 0 or 1, got {value!r}")
    return dict(select)


def _product(unit: np.ndarray, targets, amps: np.ndarray, qubits) -> np.ndarray:
    """The product of ``unit`` on ``targets`` and ``amps`` on ``qubits``, one new array.

    Index bit j of ``unit`` is ``targets[j]``; bit k of ``amps`` is
    ``qubits[k]``, which are ascending. Bit k of the result is the k-th
    lowest of all the qubits. When every target lies above every qubit and
    the targets ascend, the outer product is already in that order and is
    written once: the unit vector onto an empty array, or a column ``U|0>``
    for a qubit entering above the others (the mirror of :func:`_drop_bit`'s
    ``row``).
    """
    axes = [*targets[::-1], *qubits[::-1]]  # the qubit on each axis of the outer product
    prod = np.multiply.outer(unit.reshape((2,) * len(targets)), amps.reshape((2,) * len(qubits)))
    order = sorted(range(len(axes)), key=axes.__getitem__, reverse=True)
    return np.ascontiguousarray(prod.transpose(order)).reshape(-1)


def _fix_known(targets, phases: np.ndarray, known: dict[int, int]) -> tuple[list[int], np.ndarray]:
    """A diagonal's targets in the array and its phases with every known target fixed at its value."""
    # axis j of the (2,) * m view carries targets[m - 1 - j]
    index = tuple(known.get(q, slice(None)) for q in reversed(targets))
    return [q for q in targets if q not in known], phases.reshape((2,) * len(targets))[index].reshape(-1)


def _drop_bit(amps: np.ndarray, bit: int, value: int, qubit: int, row=None) -> tuple[np.ndarray, float]:
    """Half of ``amps`` where ``bit`` equals ``value``, renormalized, and its probability.

    With ``row``, row ``value`` of a single-qubit gate on ``bit``, the gate
    is applied to that half only: the new half is the row times the two old
    halves. The result is a new contiguous array without ``bit``; ``amps``
    is left scrambled.
    """
    halves = amps.reshape(-1, 2, 1 << bit)
    if row is None:
        kept = halves[:, value, :].copy()
    else:
        # ``amps`` is discarded, so the second term is scaled in place: one
        # new half-size array instead of three, each of which page-faults in
        kept = np.multiply(halves[:, 0, :], complex(row[0]))
        other = halves[:, 1, :]
        other *= complex(row[1])
        kept += other
    kept = kept.reshape(-1)
    p = float(np.vdot(kept, kept).real)
    if p < _MIN_SELECT_PROBABILITY:
        raise PostSelectionError(f"selecting qubit {qubit} = {value} has probability {p:.3e}")
    kept *= 1.0 / np.sqrt(p)  # a complex array divides far slower than it multiplies
    return kept, p


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
    if not 1 <= shots <= MAX_SHOTS:
        raise ConfigurationError(f"shots must lie in [1, 2**63 - 1], got {shots}")
    rng = np.random.Generator(np.random.Philox(seed))
    p = state.probabilities()
    p = p / p.sum()
    counts = rng.multinomial(shots, p)
    return SampleHistogram(state.n_qubits, shots, counts)


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
