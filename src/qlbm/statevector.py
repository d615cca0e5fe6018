"""Statevector simulation: gate application, selection, sampling.

Amplitudes are kept unit-normalized; the physical scale of the encoded field
travels separately in ``norm_factor``. Post-selecting a register multiplies
the norm factor by sqrt(p) and renormalizes, so decoded field values are
invariant under where in the pipeline the selection happens.

Every circuit starts from |0...0>, a :class:`ZeroState`, and its amplitudes
enter one way: a ``PREP`` gate writes its unit vector onto qubits that are
still outside the amplitude array. A qubit is in the array only between its
first gate and its last, so a run allocates nothing of the state's size:
each qubit enters the array at the first gate that needs it there. Given a
selection, each selected qubit is projected right after the last gate that
targets it and dropped from the state, so every later gate runs on half as
many amplitudes. An uncontrolled single-qubit gate followed by a selection
is one contraction (gate fusion, Häner & Steiger, arXiv:1704.01127). A
``BLOCK`` whose flag still holds 0 and is selected right after it never
lets the flag in: what survives the selection is the value amplitudes times
k, so the gate and its selection are one multiplication, in place.

Which qubits are in the array at each gate, and at which bits, follows from
the gate structure and the selection alone. So a circuit runs in two parts:
:func:`plan_circuit` walks the gates once and resolves all of it into a
:class:`CircuitPlan`, a flat tuple of steps with the view indices of the
strided-view kernels in :mod:`qlbm._kernels` and nothing of any gate's
parameters; :func:`apply_circuit` replays the plan on gates of the same
structure and reads every parameter from the gates it runs: it loads each
PREP's vector, fits each BLOCK's coefficients to their views, and computes
each single-qubit matrix and phase. A solver plans each job shape once per
process and replays the plan per job, which pays where one process runs
many jobs of one shape.

The amplitude array's dtype is structure too, fixed by the plan: float64
when every gate keeps real amplitudes real, else complex128. Every solver
job on the selecting backend is real, so its loads, kernels, drops and
norms move half the bytes; a :class:`QuantumState` is complex128,
converted once at the end, on the kept qubits only.
:func:`postselect` and :func:`postselect_many` select a finished state and
keep its size; they are the reference the in-loop selection is tested against.
"""

from __future__ import annotations

import numbers
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
    "CircuitPlan",
    "SampleHistogram",
    "plan_circuit",
    "apply_circuit",
    "postselect",
    "postselect_many",
    "require_shots",
    "require_seed",
    "sample",
    "fidelity_from_histogram",
]

_MIN_SELECT_PROBABILITY = 1e-14

_KET0 = np.array([1.0, 0.0])  # a qubit entering in |0>

# gate kinds that keep real amplitudes real (a BLOCK unless it is a "block" step)
_REAL_KINDS = frozenset({"PREP", "MCX", "H", "X", "RY", "BLOCK"})

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


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """The gate loop of one circuit structure and selection, resolved by :func:`plan_circuit`.

    ``structure`` holds ``(kind, targets, controls, control_values)`` of each
    gate the plan was made from; :func:`apply_circuit` replays ``steps`` on
    gates of that structure. Each step is ``(tag, gate index, args)`` with
    every decision of the loop taken: where qubits enter and leave the
    amplitude array, which gates are skipped, and each kernel's view shape
    and indices. A plan holds structure only: no amplitudes, and no gate's
    parameters nor anything computed from them. So a BLOCK step holds how to
    fit its gate's per-basis-state coefficients to its view, and a
    single-qubit step holds no matrix.
    ``n_qubits`` is the state's qubit count and ``kept`` the count left
    after the selection, if ``selecting``. ``dtype`` is the amplitude
    array's, float64 or complex128, decided like the steps from structure
    alone, so replaying the plan on other parameters never changes it.
    """

    n_qubits: int
    structure: tuple
    steps: tuple
    kept: int
    selecting: bool
    dtype: np.dtype


def plan_circuit(start: ZeroState, ops, select: dict[int, int] | None = None) -> CircuitPlan:
    """Resolve the gate loop of ``ops`` from |0...0> once, with or without a selection.

    Each qubit is either in the amplitude array or known to hold a value.
    Every qubit starts out known to hold 0, and enters the array at its
    sorted bit position at the first gate that needs it there. A PREP's
    unit vector goes straight into place; onto an empty array it is the new
    array. Its targets must still be outside the array, so in |0>: a PREP
    onto a qubit that an earlier gate made enter raises
    :class:`ConfigurationError`. Any other qubit enters in |0>, but none
    that a PHASE or BLOCK is diagonal on: on a qubit that holds 0 either
    applies its phase or coefficients at that qubit's 0. Unless the
    selection below applies, a BLOCK's flag enters in |0> if it holds 0, and
    ``[[k, i s], [i s, k]]`` runs on the flag's two halves. A control on a known qubit is dropped when the value
    matches, and the gate is skipped when it does not. A qubit that no gate
    made enter and no selection planned enters in |0> at the end, so the
    returned state holds every qubit not selected.

    ``select`` maps qubit -> value (the integer 0 or 1). Each selected qubit
    is projected onto its value and leaves the state right after the last
    gate that targets it, or at the start when no gate does; the amplitude
    array halves and the qubit is known to hold its value from then on.
    Dropping a later control on it is exact, because the projector commutes
    with a gate that only controls on the qubit. When that last gate is an
    uncontrolled single-qubit gate U, gate and selection are one contraction
    of the two halves, ``U[v, 0] * a0 + U[v, 1] * a1``. When that last gate
    is a BLOCK whose flag holds 0, and the flag is selected onto 0 before
    any other qubit the BLOCK targets, the flag never enters: gate and
    selection multiply the controlled view by k, in place, and renormalize.
    A qubit that never entered holds 0 for certain: selecting 0 has
    probability 1, and selecting 1 raises :class:`PostSelectionError` here.

    All of that follows from the gate structure and the selection alone,
    and the plan holds nothing else. So does the array's dtype: float64
    when every gate is a PREP, MCX, H, X, RY or BLOCK and no BLOCK runs on
    its flag's two halves, where its ``i s`` enters; else complex128.
    """
    n_qubits = start.n_qubits
    wanted = {} if select is None else _checked_selection(select, n_qubits)
    ops = list(ops)
    last = dict.fromkeys(wanted, -1)
    for i, op in enumerate(ops):
        if max(op.qubits) >= n_qubits:
            raise ConfigurationError(f"{op.kind} on qubit {max(op.qubits)} is outside a {n_qubits}-qubit state")
        for q in op.targets:
            if q in last:
                last[q] = i
    due: dict[int, list[int]] = {}
    for q in sorted(wanted):
        due.setdefault(last[q], []).append(q)

    known = dict.fromkeys(range(n_qubits), 0)  # qubit -> value, for qubits outside the array
    bits: list[int] = []  # the qubits in the array, ascending: qubit bits[k] is bit k
    bit_of: dict[int, int] = {}  # the same, as qubit -> bit
    steps: list[tuple] = []

    def renumber(qubits):
        nonlocal bit_of
        bits[:] = sorted(qubits)
        bit_of = dict(zip(bits, range(len(bits))))

    def enter(tag, i, targets):
        # axes of the outer product unit x amps, sorted to descending qubits
        axes = [*targets[::-1], *reversed(bits)]
        order = tuple(sorted(range(len(axes)), key=axes.__getitem__, reverse=True))
        steps.append((tag, i, ((2,) * len(targets), (2,) * len(bits), order)))
        for q in targets:
            del known[q]
        renumber([*bits, *targets])

    def drop(q, i=None):
        # i: a single-qubit gate applied in the same contraction
        value = wanted[q]
        if q in known:  # never entered, so it holds 0
            if value != known[q]:
                raise PostSelectionError(f"selecting qubit {q} = {value} has probability 0")
            steps.append(("known", None, (q,)))
            return
        steps.append(("drop", i, (q, bit_of[q], value)))
        known[q] = value
        renumber(k for k in bits if k != q)

    def view(targets, controls):
        # the controlled view's index, and the fit to that view of values with
        # one entry per basis state of ``targets``: axis j of their (2,) * m
        # reshape carries targets[m - 1 - j], and a known target is fixed at its value
        fix = tuple(known.get(q, slice(None)) for q in reversed(targets))
        qpos = [bit_of[q] for q in targets if q in bit_of]
        index, order, shape = _kernels.diag_layout(len(bits), qpos, [(bit_of[q], v) for q, v in controls])
        return index, ((2,) * len(targets), fix, (2,) * len(qpos), order, shape)

    for q in due.get(-1, ()):
        drop(q)
    for i, op in enumerate(ops):
        kind = op.kind
        chosen = due.get(i, ())
        live = []  # controls on qubits in the array
        for q, v in zip(op.controls, op.control_values):
            if q in bit_of:
                live.append((q, v))
            elif v != known[q]:
                break  # the control holds the other value: the gate acts as identity
        else:
            # a target outside the array has not entered yet and holds 0,
            # because a qubit is dropped only after the last gate that targets it
            entering = [q for q in op.targets if q in known]
            if kind == "PREP":
                for q in op.targets:
                    if q in bit_of:
                        raise ConfigurationError(f"PREP onto qubit {q} after a gate on it: a PREP loads only qubits still in |0>")
                enter("load", i, op.targets)
            elif kind == "PHASE" and entering:
                pass  # diag(1, e^{i theta}) on a qubit that holds 0
            elif kind == "BLOCK":
                *values, flag = op.targets
                if flag in known and chosen and chosen[0] == flag and wanted[flag] == 0:
                    # the flag holds 0 and leaves at once: the gate and its selection scale by k
                    index, fit = view(values, live)
                    steps.append(("select", i, ((2,) * len(bits), index, fit, flag)))
                    chosen = chosen[1:]
                else:
                    if flag in known:
                        enter("enter", None, (flag,))
                    i0, fit = view(values, [*live, (flag, 0)])
                    i1, _ = view(values, [*live, (flag, 1)])
                    steps.append(("block", i, ((2,) * len(bits), i0, i1, fit)))
            else:
                for q in entering:
                    enter("enter", None, (q,))
                n = len(bits)
                i0, i1 = _kernels.halves(n, bit_of[op.targets[0]], [(bit_of[q], v) for q, v in live])
                if kind == "MCX":
                    steps.append(("mcx", i, ((2,) * n, i0, i1)))
                elif kind == "PHASE":
                    steps.append(("phase", i, ((2,) * n, i1)))
                elif chosen and not live:
                    (q,) = chosen
                    drop(q, i)
                    continue
                else:
                    steps.append(("1q", i, ((2,) * n, i0, i1)))
        for q in chosen:
            drop(q)
    for q in sorted(known.keys() - wanted.keys()):
        enter("enter", None, (q,))
    real = all(op.kind in _REAL_KINDS for op in ops) and not any(tag == "block" for tag, _, _ in steps)
    dtype = np.dtype(np.float64 if real else np.complex128)
    return CircuitPlan(n_qubits, _structure(ops), tuple(steps), len(bits), select is not None, dtype)


def apply_circuit(plan: CircuitPlan, ops):
    """Run ``ops`` from |0...0> as ``plan`` resolved them; with a selection, post-select while they run.

    ``ops`` must have the structure the plan was made from, else
    :class:`ConfigurationError`; their parameters may differ. A PREP
    writes its vector, normalized by :func:`~qlbm.circuits.unit_amplitudes`,
    and multiplies the norm factor by the norm it was scaled from. A BLOCK's
    coefficients are fitted to their views from the gate's own parameters,
    such as those of a BLOCK rebuilt per job, and each single-qubit gate's
    matrix or phase is computed from its own angle. Each selection raises
    :class:`PostSelectionError` below ``_MIN_SELECT_PROBABILITY``. The
    array runs at the plan's dtype; on a real plan every single-qubit
    matrix and fused drop row is real and runs as its real part.

    Without a selection, returns the new state over every qubit. With one,
    returns ``(selected, probs)``: the state over the kept qubits (in their
    original order, so bit k is the k-th lowest kept qubit) and the
    conditional probability of each selection, in selection order.
    """
    ops = list(ops)
    if _structure(ops) != plan.structure:
        raise ConfigurationError("the gates do not have the structure the plan was made for")
    real = plan.dtype == np.float64
    amps, norm, probs = np.ones(1, dtype=plan.dtype), 1.0, {}
    for tag, i, args in plan.steps:
        if tag == "mcx":
            _kernels.apply_mcx(amps, *args)
        elif tag == "select":
            shape, index, fit, q = args
            _kernels.apply_diag(amps, shape, index, _fitted(ops[i].params, *fit))
            p = _normalize(amps, q, 0)
            norm *= np.sqrt(p)
            probs[q] = p
        elif tag == "block":
            shape, i0, i1, fit = args
            k = _fitted(ops[i].params, *fit)
            _kernels.apply_block(amps, shape, i0, i1, k, 1j * np.sqrt(1.0 - k * k))
        elif tag == "drop":
            q, bit, value = args
            row = None if i is None else _matrix_1q(ops[i], real)[value]
            amps, p = _drop_bit(amps, bit, value, q, row)
            norm *= np.sqrt(p)
            probs[q] = p
        elif tag == "enter":
            amps = _product(_KET0, amps, *args)
        elif tag == "load":
            unit, scale = unit_amplitudes(ops[i].params)
            amps = _product(unit, amps, *args)
            norm *= scale
        elif tag == "known":
            probs[args[0]] = 1.0
        elif tag == "1q":
            _kernels.apply_1q(amps, *args, *_matrix_1q(ops[i], real).ravel())
        else:  # "phase"
            _kernels.apply_phase(amps, *args, np.exp(1j * ops[i].params[0]))
    if not plan.selecting:
        return QuantumState(plan.n_qubits, amps, norm)
    return QuantumState(plan.kept, amps, norm), probs


def _structure(ops) -> tuple:
    return tuple((op.kind, op.targets, op.controls, op.control_values) for op in ops)


def _checked_selection(select, n_qubits: int) -> dict[int, int]:
    checked = {}
    for qubit, value in select.items():
        if isinstance(qubit, bool) or not (isinstance(qubit, numbers.Integral) and 0 <= qubit < n_qubits):
            raise ConfigurationError(f"selected qubit {qubit!r} is not a qubit of a {n_qubits}-qubit state")
        checked[int(qubit)] = _bit(value, f"selection value for qubit {qubit}")
    return checked


def _bit(value, name: str) -> int:
    """``value`` as the int 0 or 1 (numpy integers count, bools do not), or :class:`ConfigurationError` naming it as ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise ConfigurationError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _matrix_1q(op, real: bool) -> np.ndarray:
    """A single-qubit gate's matrix, as its real part on a real plan (every 1q gate there is real)."""
    matrix = gate_matrix_1q(op)
    return matrix.real if real else matrix


def _fitted(values: np.ndarray, dshape, fix, mshape, order, shape) -> np.ndarray:
    """Per-basis-state ``values`` of a gate's targets with its known targets fixed, fitted to its view.

    The other arguments are a plan's ``fit``: the values' (2,) * m shape,
    the index fixing each known target, the shape left, and the axis order
    and broadcast shape of :func:`~qlbm._kernels.diag_layout`.
    """
    return values.reshape(dshape)[fix].reshape(mshape).transpose(order).reshape(shape)


def _product(unit: np.ndarray, amps: np.ndarray, ushape, ashape, order) -> np.ndarray:
    """The product of ``unit`` on the entering qubits and ``amps``, one new array.

    ``order`` sorts the axes of the outer product to descending qubits, so
    bit k of the result is the k-th lowest of all the qubits. When every
    entering qubit lies above every qubit in ``amps`` and they ascend, the
    outer product is already in that order and is written once: the unit
    vector onto an empty array, or |0> for a qubit entering above the others.
    """
    prod = np.multiply.outer(unit.reshape(ushape), amps.reshape(ashape))
    return np.ascontiguousarray(prod.transpose(order)).reshape(-1)


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
        kept = np.multiply(halves[:, 0, :], row[0])
        other = halves[:, 1, :]
        other *= row[1]
        kept += other
    kept = kept.reshape(-1)
    return kept, _normalize(kept, qubit, value)


def _normalize(amps: np.ndarray, qubit: int, value: int) -> float:
    """Scale ``amps``, what is left of a selection of ``qubit`` = ``value``, to unit norm; return its probability."""
    # a BLAS dot of the plan's dtype: ddot on a real plan, zdotc on a complex
    # one, which sum in different orders, so p differs between them in its last bits
    p = float(np.vdot(amps, amps).real)
    if p < _MIN_SELECT_PROBABILITY:
        raise PostSelectionError(f"selecting qubit {qubit} = {value} has probability {p:.3e}")
    amps *= 1.0 / np.sqrt(p)  # an array divides slower than it multiplies
    return p


def postselect(state: QuantumState, qubit: int, value: int) -> tuple[QuantumState, float]:
    """Project one qubit onto |value> and renormalize.

    Returns the projected state and the selection probability. The norm
    factor absorbs sqrt(p), keeping decoded magnitudes unchanged.
    """
    value = _bit(value, "selection value")
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


def require_shots(shots, name: str = "shots") -> int:
    """``shots`` as an int in [1, ``MAX_SHOTS``] (numpy integers count, bools do not).

    Anything else raises :class:`ConfigurationError` naming it as ``name``.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or not 1 <= shots <= MAX_SHOTS:
        raise ConfigurationError(f"{name} must be an integer in [1, 2**63 - 1], got {shots!r}")
    return int(shots)


def require_seed(seed) -> int:
    """``seed`` as an int >= 0 (numpy integers count, bools do not), else :class:`ConfigurationError`."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def sample(state: QuantumState, shots: int, seed: int) -> SampleHistogram:
    """Draw measurement counts with a counter-based generator (reproducible)."""
    shots, seed = require_shots(shots), require_seed(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    p = state.probabilities()
    total = p.sum()
    if not (np.isfinite(total) and total > 0):
        raise ConfigurationError(f"cannot sample a state whose probabilities sum to {float(total)!r}: it needs finite amplitudes, not all zero")
    p = p / total
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
