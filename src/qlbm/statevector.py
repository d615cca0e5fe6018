"""Statevector simulation: gate application, selection, sampling.

A returned state's amplitudes are unit-normalized; the physical scale of
the encoded field travels separately in ``norm_factor``, so decoded field
values are invariant under where in the pipeline a selection happens. While
a circuit runs, no selection rescales the amplitudes: each one's probability
is the kept part's sum of squares over the running total, which it then
becomes, and the amplitudes are divided by the total's square root once, at
the end, where the norm factor takes it up.

Every circuit starts from |0...0>, a :class:`ZeroState`, and its amplitudes
enter one way: a ``PREP`` gate writes its vector, divided by its peak
magnitude, onto qubits that are still outside the amplitude array. A qubit
is in the array only between its first gate and its last, so no array of
the state's size is needed: each qubit enters the array at the first gate
that needs it there. A PREP onto the empty array, its qubits in ascending
order as every solver's encode is, makes its vector the state, so the load
writes the state once (and casts it once on a complex plan). Given
a selection, each selected qubit is projected right after the last gate
that targets it and dropped from the state, so every later gate runs on
half as many amplitudes. An uncontrolled single-qubit gate followed by a selection
is one contraction (gate fusion, Häner & Steiger, arXiv:1704.01127). A
``BLOCK`` whose flag still holds 0 and is selected right after it never
lets the flag in: what survives the selection is the value amplitudes times
k, so the gate and its selection are one multiplication, in place. A
``SHIFT`` adds +/-1 to a register of consecutive qubits where its controls
hold; in the array those are consecutive bits, one axis of 2**w points, and
the gate is one rotation of that axis of the controlled view, where its
lowering runs a cascade of multi-controlled X gates.

Which qubits are in the array at each gate, and at which bits, follows from
the gate structure and the selection alone, and so do the sizes of the
arrays a run keeps. So a circuit runs in two parts: :func:`plan_circuit`
walks the gates once and resolves all of it into a :class:`CircuitPlan`, a
flat tuple of steps with the view indices of the strided-view kernels in
:mod:`qlbm._kernels` and nothing of any gate's parameters. It then sizes
two work arrays, each to the largest array a run keeps in it and starting
on a cache line, and binds each step's views onto them: the array a load
or a drop writes, the halves or controlled view a kernel writes and the
scratch it keeps old values in.
:func:`apply_circuit` replays the bound steps on gates of the same
structure, each step a few ufunc calls on its views with no reshape or
index, and reads every parameter from the gates it runs: it loads each
PREP's vector, fits each BLOCK's coefficients to their views, and computes
each single-qubit matrix and phase. A warm replay allocates no array of the
state's size; it returns a new array, never a work array, and the replays
of one plan take turns on its lock, as a solver keeps its plans for the
whole process. A solver plans each job shape once per process and replays
the plan per job, which pays where one process runs many jobs of one shape.

The amplitude array's dtype is structure too, fixed by the plan: float64
when every gate keeps real amplitudes real, else complex128. Every solver
job on the selecting backend is real, so its loads, kernels, drops and
sums of squares move half the bytes; a :class:`QuantumState` is complex128,
converted once at the end, on the kept qubits only, and its amplitudes
must be finite.

Every sum of squares of a replay, the load's and each selection's, is
:func:`~qlbm.circuits._sum_squares`: one dot per row of at most 8192
amplitudes on the calling thread, the rows added left to right. No row
reaches OpenBLAS's 10,000-entry cutoff for a threaded dot, whose split sum
changes its last bits with the thread count and wakes a second thread, so
a replay's result depends on the BLAS build but not on its thread count.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import _kernels
from .circuits import _peak_scaled, _sum_squares, gate_matrix_1q
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
    "require_shots",
    "require_seed",
    "sample",
    "fidelity_from_histogram",
]

_MIN_SELECT_PROBABILITY = 1e-14

# a replay's running sum of squares below this is scaled out of its amplitudes
# into the norm factor: one selection, of probability at least
# _MIN_SELECT_PROBABILITY (about 2**-47), then leaves it above 2**-547, far from
# the subnormals below 2**-1022
_TOTAL_FLOOR = 2.0**-500

_CACHE_LINE = 64  # bytes; every work array starts on one

_KET0 = np.array([1.0, 0.0])  # a qubit entering in |0>
_KET0.flags.writeable = False  # plans hold views of it

# gate kinds that keep real amplitudes real (a BLOCK unless it is a "block" step)
_REAL_KINDS = frozenset({"PREP", "MCX", "SHIFT", "H", "X", "RY", "BLOCK"})

# numpy's multinomial draws take the shot count as a C long
MAX_SHOTS = (1 << 63) - 1


@dataclass
class QuantumState:
    """n-qubit amplitude vector plus the magnitude it was normalized away from."""

    n_qubits: int
    amplitudes: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self):
        require_count(self.n_qubits, "n_qubits")
        try:
            self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        except (TypeError, ValueError):
            raise ConfigurationError(f"amplitudes must be complex numbers, got {type(self.amplitudes).__name__}") from None
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ConfigurationError(
                f"amplitude vector of length {self.amplitudes.size} does not fit {self.n_qubits} qubits"
            )
        amps = self.amplitudes
        # a complex amplitude is finite exactly when both its parts are
        if not np.isfinite(amps.view(np.float64) if amps.flags.c_contiguous else amps).all():
            raise ConfigurationError("amplitudes must be finite, got a NaN or infinity")

    def probabilities(self) -> np.ndarray:
        """The measurement distribution: each |amplitude|^2 over their sum.

        The magnitudes are divided by their peak before they are squared, so
        no square overflows. A state with no finite nonzero peak, all zero or
        holding a NaN or infinity written into it, is a :class:`ConfigurationError`.
        """
        magnitudes = np.abs(self.amplitudes)
        peak = float(magnitudes.max())
        if not (math.isfinite(peak) and peak > 0):
            raise ConfigurationError(f"cannot sample a state whose peak amplitude magnitude is {peak!r}: it needs finite amplitudes, not all zero")
        p = np.square(magnitudes / peak)
        return p / p.sum()


@dataclass(frozen=True)
class ZeroState:
    """|0...0> on ``n_qubits`` qubits, held as the count alone: the start of every circuit."""

    n_qubits: int

    def __post_init__(self):
        require_count(self.n_qubits, "n_qubits")


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """The gate loop of one circuit structure and selection, resolved by :func:`plan_circuit`, and the arrays it runs on.

    ``structure`` holds ``(kind, targets, controls, control_values)`` of each
    gate the plan was made from; :func:`apply_circuit` replays the plan on
    gates of that structure. ``steps`` is the loop with every decision
    taken, one ``(tag, gate index, args)`` per step: where qubits enter and
    leave the amplitude array, which gates are skipped, and each kernel's
    view shape and indices. It holds tuples of tags, qubits, shapes and
    indices alone, so a BLOCK step holds how to fit its gate's
    per-basis-state coefficients to its view, and a single-qubit step holds
    no matrix. ``n_qubits`` is the state's qubit count and ``kept`` the
    count left after the selection, if ``selecting``. ``dtype`` is the
    amplitude array's, float64 or complex128, decided like the steps from
    structure alone, so replaying the plan on other parameters never changes it.

    Besides structure a plan holds scratch: ``work``, two arrays each sized
    to the largest array a replay keeps in it, and ``bound``, the steps as
    the replay runs them, ``(tag, gate index, amps, views)``: ``amps`` is
    the flat live array the step leaves, and ``views`` are the views of
    the work arrays it reads and writes, bound once here. A step that
    changes the array (a load, a qubit entering in |0>, a drop) writes the
    other work array, so the two alternate. A plan never holds a gate's
    parameters nor anything computed from them, only what follows from
    gate kinds: a drop fused with an H or an X holds its row. A replay
    writes the work arrays, so the replays of one plan, which the solvers
    keep for the whole process, take turns on ``lock``.
    """

    n_qubits: int
    structure: tuple
    steps: tuple
    kept: int
    selecting: bool
    dtype: np.dtype
    work: tuple = dataclass_field(repr=False)
    bound: tuple = dataclass_field(repr=False)
    lock: threading.Lock = dataclass_field(default_factory=threading.Lock, repr=False)


def plan_circuit(start: ZeroState, ops, select: dict[int, int] | None = None) -> CircuitPlan:
    """Resolve the gate loop of ``ops`` from |0...0> once, with or without a selection.

    Each qubit is either in the amplitude array or known to hold a value.
    Every qubit starts out known to hold 0, and enters the array at its
    sorted bit position at the first gate that needs it there. A PREP's
    vector goes straight into place; onto the empty array, its targets
    ascending, it is the new array itself, and its step holds no product
    layout. Its targets must still be outside the array, so in |0>: a PREP
    onto a qubit that an earlier gate made enter raises
    :class:`ConfigurationError`. Any other qubit enters in |0>, but none
    that a PHASE or BLOCK is diagonal on: on a qubit that holds 0 either
    applies its phase or coefficients at that qubit's 0. A SHIFT's
    register qubits enter first, so its register is consecutive bits; its
    step holds the view shape with the register as one axis, the controlled
    view's index and the register's axis in it, its bound step the views of
    both directions, and the replay picks one by the gate's sign. Unless the
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
    selection multiply the controlled view by k, in place.
    A qubit that never entered holds 0 for certain: selecting 0 has
    probability 1, and selecting 1 raises :class:`PostSelectionError` here.

    All of that follows from the gate structure and the selection alone,
    and the plan holds nothing else. So does the array's dtype: float64
    when every gate is a PREP, MCX, SHIFT, H, X, RY or BLOCK and no BLOCK
    runs on its flag's two halves, where its ``i s`` enters; else complex128.
    Last, the plan sizes its two work arrays and binds every step's views
    onto them (:class:`CircuitPlan`'s ``work`` and ``bound``).

    ``start`` that is not a :class:`ZeroState`, ``select`` that is not a
    mapping, or ``ops`` that is not an iterable of
    :class:`~qlbm.circuits.GateOp` is a :class:`ConfigurationError`.
    """
    if not isinstance(start, ZeroState):
        raise ConfigurationError(f"start must be a ZeroState, got {type(start).__name__}")
    n_qubits = start.n_qubits
    if select is not None and not isinstance(select, Mapping):
        raise ConfigurationError(f"select must be a mapping of qubit -> value, got {type(select).__name__}")
    wanted = {} if select is None else _checked_selection(select, n_qubits)
    ops = _gate_list(ops)
    structure = _structure(ops)
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
        if tag == "load" and not bits and order == tuple(range(len(axes))):
            steps.append((tag, i, None))  # the unit vector is the state, in order
        else:
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
            elif kind == "SHIFT":
                for q in entering:
                    enter("enter", None, (q,))
                # the register is consecutive qubits, all in the array: consecutive bits
                layout = _kernels.shift_layout(len(bits), bit_of[op.targets[0]], len(op.targets),
                                               [(bit_of[q], v) for q, v in live])
                steps.append(("shift", i, layout))
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
    work, bound = _bind(steps, ops, dtype)
    return CircuitPlan(n_qubits, structure, tuple(steps), len(bits), select is not None, dtype, work, bound)


def _grown(tag: str, i, args, ops, n: int) -> int:
    """The array's qubit count after step ``(tag, i, args)``, given ``n`` before it."""
    if tag == "load":
        return n + len(ops[i].targets)
    if tag == "enter":
        return n + 1
    return n - 1 if tag == "drop" else n


def _scratch(tag: str, args) -> int:
    """Amplitudes of the idle work array that step ``(tag, _, args)`` uses as scratch."""
    if tag not in ("1q", "mcx", "block", "shift"):
        return 0
    # a shift's controlled view, or the target=0 half of a gate's
    shape, index = args[:2]
    size = math.prod(s for s, x in zip(shape, index) if not isinstance(x, int))
    return 2 * size if tag in ("1q", "block") else size


def _aligned_empty(size: int, dtype) -> np.ndarray:
    """``np.empty(size, dtype)`` starting on a 64-byte cache line.

    Where the heap puts a work array below a page's size shifts with every
    allocation before it, and a kernel on views that straddle cache lines
    runs up to an eighth slower; aligned, a plan's speed does not depend on
    what ran before it.
    """
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _CACHE_LINE, np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    return raw[start : start + nbytes].view(dtype)


def _bind(steps, ops, dtype) -> tuple[tuple, tuple]:
    """The two work arrays of ``steps`` and the steps bound on them, ``(tag, i, amps, views)``.

    The live array starts as the one amplitude of the empty array, at the
    head of work array 0; each load, entry and drop writes its result at the
    head of the other work array, and the scratch a kernel needs comes from
    the head of the one the live array is not in.
    """
    need, cur, n = [1, 0], 0, 0  # amplitudes per work array; the live array's array and qubit count
    for tag, i, args in steps:
        grown = _grown(tag, i, args, ops, n)
        if grown != n:
            n, cur = grown, cur ^ 1
            need[cur] = max(need[cur], 1 << n)
        else:
            need[cur ^ 1] = max(need[cur ^ 1], _scratch(tag, args))
    work = tuple(_aligned_empty(size, dtype) for size in need)
    real = dtype == np.float64
    bound, cur, n = [], 0, 0
    for tag, i, args in steps:
        amps, idle = work[cur][: 1 << n], work[cur ^ 1]
        grown = _grown(tag, i, args, ops, n)
        if grown != n:
            new = idle[: 1 << grown]
            if tag == "drop":
                q, bit, value = args
                half = amps.reshape(-1, 2, 1 << bit)
                # a drop fused with a gate of no parameter holds that gate's row
                row = None if i is None or ops[i].params else _matrix_1q(ops[i], real)[value]
                views = (half[:, 0, :], half[:, 1, :], new.reshape(-1, 1 << bit), q, value, row)
            elif args is not None:
                # the entering qubits' unit vector times the array, written
                # through the transpose that sorts their outer product's axes;
                # an entry holds |0>'s, a load the shape its vector takes
                ushape, ashape, order = args
                into = new.reshape((2,) * grown).transpose(sorted(range(grown), key=order.__getitem__))
                unit = ushape + (1,) * n
                source = amps.reshape((1,) * len(ushape) + ashape)
                views = (_KET0.reshape(unit) if tag == "enter" else unit, source, into)
            else:
                views = ()  # a load onto the empty array writes ``new`` itself
            amps, cur, n = new, cur ^ 1, grown
        elif tag == "known":
            views = args
        elif tag == "shift":
            shape, index, axis = args
            view = amps.reshape(shape)[index]
            rotated = idle[: view.size].reshape(view.shape)
            views = (view, rotated, *_kernels.shift_views(view, rotated, axis))
        elif tag == "select":
            shape, index, fit, q = args
            views = (amps.reshape(shape)[index], fit, q)
        elif tag == "phase":
            shape, i1 = args
            views = (amps.reshape(shape)[i1],)
        else:  # "1q", "mcx", "block": the halves of the controlled view, and scratch of their shape
            view = amps.reshape(args[0])
            v0, v1 = view[args[1]], view[args[2]]
            h = v0.size
            a = idle[:h].reshape(v0.shape)
            views = (v0, v1, a) if tag == "mcx" else (v0, v1, a, idle[h : 2 * h].reshape(v0.shape), *args[3:])
        bound.append((tag, i, amps, views))
    return work, tuple(bound)


def apply_circuit(plan: CircuitPlan, ops):
    """Run ``ops`` from |0...0> as ``plan`` resolved them; with a selection, post-select while they run.

    ``ops`` must have the structure the plan was made from, else
    :class:`ConfigurationError`; their parameters may differ. A BLOCK's
    coefficients are fitted to their views from the gate's own parameters,
    such as those of a BLOCK rebuilt per job, each single-qubit gate's
    matrix or phase is computed from its own angle, and each SHIFT's
    direction is its own step's. The array runs at the plan's dtype; on a
    real plan every single-qubit matrix and fused drop row is real and runs
    as its real part.

    The amplitudes run unscaled with their running sum of squares, the
    total, and are divided by its square root once, at the end, or where
    it falls below ``_TOTAL_FLOOR``. A PREP writes its vector divided by
    its peak magnitude (:func:`~qlbm.circuits._peak_scaled`), and the norm
    factor takes the peak; onto the empty array the vector replaces the one
    amplitude left, whose magnitude, the square root of the total, the norm
    factor takes too. Each selection raises :class:`PostSelectionError`
    below ``_MIN_SELECT_PROBABILITY``.

    The replay writes the plan's work arrays through the views bound on
    them, holding the plan's lock, so replays of one plan from several
    threads run one at a time. The scale at the end writes a new array, so
    the returned amplitudes never alias a work array, and a later replay
    leaves them as they are.

    Without a selection, returns the new state over every qubit. With one,
    returns ``(selected, probs)``: the state over the kept qubits (in their
    original order, so bit k is the k-th lowest kept qubit) and the
    conditional probability of each selection, in selection order.
    ``plan`` that is not a :class:`CircuitPlan` or ``ops`` that is not an
    iterable of :class:`~qlbm.circuits.GateOp` is a :class:`ConfigurationError`.
    """
    if not isinstance(plan, CircuitPlan):
        raise ConfigurationError(f"plan must be a CircuitPlan, got {type(plan).__name__}")
    ops = _gate_list(ops)
    if _structure(ops) != plan.structure:
        raise ConfigurationError("the gates do not have the structure the plan was made for")
    real = plan.dtype == np.float64
    with plan.lock:
        # ``amps`` is unscaled, ``total`` its sum of squares and ``norm`` times
        # sqrt(total) the norm factor; they are rescaled once, at the end. The sums
        # are ddot on a real plan and zdotc on a complex one, which sum each row in
        # different orders, so a probability differs between them in its last bits
        amps, norm, total, probs = plan.work[0][:1], 1.0, 1.0, {}
        amps[0] = 1.0  # the empty array's one amplitude; each step rebinds ``amps`` to the array it leaves
        for tag, i, amps, views in plan.bound:
            if tag == "mcx":
                _kernels.apply_mcx(*views)
            elif tag == "shift":
                view, rotated, plus, minus = views
                _kernels.apply_shift(view, rotated, *(plus if ops[i].params[0] > 0 else minus))
            elif tag == "select":
                sub, fit, q = views
                _kernels.apply_diag(sub, _fitted(ops[i].params, *fit))
                probs[q], total, norm = _selected(amps, total, norm, q, 0)
            elif tag == "block":
                v0, v1, a, b, fit = views
                k = _fitted(ops[i].params, *fit)
                _kernels.apply_block(v0, v1, a, b, k, 1j * np.sqrt(1.0 - k * k))
            elif tag == "drop":
                h0, h1, kept, q, value, row = views
                if row is None and i is not None:
                    row = _matrix_1q(ops[i], real)[value]
                _drop_bit(h0, h1, kept, value, row)
                probs[q], total, norm = _selected(amps, total, norm, q, value)
            elif tag == "enter":
                ket, source, into = views
                np.multiply(ket, source, out=into)
            elif tag == "load":
                if not views:
                    # the vector replaces the one amplitude left, of magnitude sqrt(total)
                    unit, peak, sum_squares = _peak_scaled(ops[i].params, amps if real else None)
                    if not real:
                        amps[...] = unit
                    norm *= math.sqrt(total) * peak
                    total = sum_squares
                else:
                    ushape, source, into = views
                    unit, peak, sum_squares = _peak_scaled(ops[i].params)
                    np.multiply(unit.reshape(ushape), source, out=into)
                    norm *= peak
                    total *= sum_squares
            elif tag == "known":
                probs[views[0]] = 1.0
            elif tag == "1q":
                _kernels.apply_1q(*views, *_matrix_1q(ops[i], real).ravel())
            else:  # "phase"
                _kernels.apply_phase(*views, np.exp(1j * ops[i].params[0]))
        scale = math.sqrt(total)
        # a new array, so the state never aliases a work array; an array divides
        # slower than it multiplies. A real plan writes the real part of the zeroed
        # array, which is the cast without a mixed-dtype loop
        state = np.zeros(amps.size, np.complex128)
        np.multiply(amps, 1.0 / scale, out=state.real if real else state)
    norm *= scale
    if not plan.selecting:
        return QuantumState(plan.n_qubits, state, norm)
    return QuantumState(plan.kept, state, norm), probs


def _gate_list(ops) -> list:
    """``ops`` as a list, or :class:`ConfigurationError` if it is not iterable."""
    try:
        return list(ops)
    except TypeError:
        raise ConfigurationError(f"ops must be an iterable of GateOp, got {type(ops).__name__}") from None


def _structure(ops: list) -> tuple:
    """Each gate's ``(kind, targets, controls, control_values)``, or :class:`ConfigurationError` on an entry that is not a GateOp."""
    try:
        return tuple(op._key for op in ops)
    except AttributeError:
        raise ConfigurationError("ops must hold only GateOp entries") from None


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


def _drop_bit(h0: np.ndarray, h1: np.ndarray, kept: np.ndarray, value: int, row=None) -> None:
    """Write into ``kept`` the half ``h0`` or ``h1`` of an array where a bit equals ``value``, unscaled.

    ``h0`` and ``h1`` are the bit's two halves, views of shape ``kept``'s.
    With ``row``, row ``value`` of a single-qubit gate on the bit, the gate
    is applied to that half only: the new half is the row times the two old
    halves, or the row's one entry times their sum when both entries are
    equal, as in every H. The old array is left scrambled.
    """
    if row is None:
        kept[...] = h1 if value else h0
    elif row[0] == row[1]:
        np.add(h0, h1, out=kept)
        kept *= row[0]
    else:
        # the old array is discarded, so the second term is scaled in place
        np.multiply(h0, row[0], out=kept)
        h1 *= row[1]
        kept += h1


def _selected(amps: np.ndarray, total: float, norm: float, qubit: int, value: int) -> tuple[float, float, float]:
    """A selection of ``qubit`` = ``value`` that left ``amps`` out of an array of sum of squares ``total``.

    Returns its probability, the kept sum of squares over ``total``, and the
    replay's new total and norm; :class:`PostSelectionError` below
    ``_MIN_SELECT_PROBABILITY``. A total below ``_TOTAL_FLOOR`` is scaled
    out of ``amps``, in place, into the norm, so a long chain of unlikely
    selections cannot underflow.
    """
    kept = _sum_squares(amps)
    p = kept / total
    if p < _MIN_SELECT_PROBABILITY:
        raise PostSelectionError(f"selecting qubit {qubit} = {value} has probability {p:.3e}")
    if kept < _TOTAL_FLOOR:
        scale = math.sqrt(kept)
        amps *= 1.0 / scale
        return p, 1.0, norm * scale
    return p, kept, norm


@dataclass
class SampleHistogram:
    """Measured counts over computational basis states: nonnegative, one per state, summing to ``shots``.

    Anything else is a :class:`ConfigurationError`.
    """

    n_qubits: int
    shots: int
    counts: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        require_count(self.n_qubits, "n_qubits")
        self.shots = require_shots(self.shots)
        try:
            self.counts = np.asarray(self.counts, dtype=np.int64)
        except (TypeError, ValueError):
            raise ConfigurationError(f"counts must be integers, got {type(self.counts).__name__}") from None
        if self.counts.shape != (1 << self.n_qubits,):
            raise ConfigurationError("counts length must be 2^n_qubits")
        if (self.counts < 0).any():
            raise ConfigurationError("counts must be nonnegative")
        if int(self.counts.sum()) != self.shots:
            raise ConfigurationError(f"counts sum to {int(self.counts.sum())}, not to the {self.shots} shots")

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


def _require_state(state, name: str) -> None:
    """Reject anything but a :class:`QuantumState` with a :class:`ConfigurationError` naming it as ``name``."""
    if not isinstance(state, QuantumState):
        raise ConfigurationError(f"{name} must be a QuantumState, got {type(state).__name__}")


def sample(state: QuantumState, shots: int, seed: int) -> SampleHistogram:
    """Draw measurement counts with a counter-based generator (reproducible); ``state`` must be a :class:`QuantumState`."""
    _require_state(state, "state")
    shots, seed = require_shots(shots), require_seed(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(shots, state.probabilities())
    return SampleHistogram(state.n_qubits, shots, counts)


def fidelity_from_histogram(ideal: QuantumState, hist: SampleHistogram) -> float:
    """Fidelity against the state reconstructed as sqrt(count/shots).

    Counts carry no phase, so the reconstruction is meaningful for target
    states with nonnegative real amplitudes (every decode target here);
    the overlap uses |amplitude| accordingly. ``ideal`` must be a
    :class:`QuantumState` and ``hist`` a :class:`SampleHistogram`, else
    :class:`ConfigurationError`.
    """
    _require_state(ideal, "ideal")
    if not isinstance(hist, SampleHistogram):
        raise ConfigurationError(f"hist must be a SampleHistogram, got {type(hist).__name__}")
    if ideal.n_qubits != hist.n_qubits:
        raise ConfigurationError("histogram does not match the state size")
    est = np.sqrt(hist.frequencies())
    return float(np.sum(np.abs(ideal.amplitudes) * est) ** 2)
