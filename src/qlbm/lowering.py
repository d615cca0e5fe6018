"""Lowering of the circuit IR to single-qubit gates plus CNOT.

:func:`lower_circuit` rewrites every gate of a
:class:`~qlbm.circuits.CircuitIR` into single-qubit gates plus CNOT with
exact unitary equality, which is what the resource estimator counts. A
``PREP`` expands into the Möttönen rotation network
(arXiv:quant-ph/0407010) of its unit vector, :func:`unit_amplitudes`. A
``BLOCK`` expands into Hadamards on its flag around a diagonal of
+/- arccos(k). A ``SHIFT`` expands into the ripple cascade of
multi-controlled X gates. This module imports from :mod:`qlbm.circuits`,
never the reverse; the simulator and the solvers run the builders' gates
as they are and do not import it.

Each gate's lowering is described once, by :func:`slot_programs`: one
cached slot program of ``(target slot, control slot)`` rows per gate shape.
A single-qubit row holds its ``(kind, params)`` or is left open; the gate
being lowered fills its open rows with its own angles. There is

- one program per multi-controlled gate shape: the core, which the
  square-root recursion assembles from small singly-controlled programs
  and the smaller core, run between two runs of the X gates on the
  0-polarity controls;
- one per ``PREP`` qubit count, because the rotation network's structure
  depends only on that count;
- one per ``BLOCK`` flag slot and set of RZ stages of its diagonal: a
  gray-code ladder per stage, between two H rows on the flag. The stages
  are all or none: one on the flag's slot and one on each control's where
  some coefficient k is not 1, else none, which one comparison tells;
- one per ``SHIFT`` register width, control polarities and step: the
  ripple cascade, one multi-controlled X program per register bit.

:func:`lower_op` replays the program onto a gate's qubits and fills the
open rows. The estimator reads no row and computes no angle: it applies
each gate's cached longest-path transfer as max-plus terms
(:meth:`SlotProgram.terms`), chained from the terms of the programs its
program is built from. Every transfer of the builders' gates has max-plus
rank one, so it is one term, applied in time linear in the gate's slots.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .circuits import _X_MAT, CircuitIR, GateOp, _lowered_gate, _peak_scaled, _require_circuit, gate_matrix_1q
from .errors import ConfigurationError
from .lattice import _real_array

__all__ = [
    "SlotProgram",
    "slot_programs",
    "lower_op",
    "iter_lowered",
    "lower_circuit",
    "unit_amplitudes",
]


def unit_amplitudes(values) -> tuple[np.ndarray, float]:
    """``values`` scaled to unit norm, as a new float64 array, and the norm it was scaled from.

    This is :func:`~qlbm.circuits._peak_scaled` divided by its norm, the
    rule of every lowered load: a PREP lowers to the rotations of this unit
    vector. The replay keeps the peak-scaled vector and divides by the norm
    once, at the end of the circuit. A complex ``values``, or one numpy
    cannot read as floats, is a :class:`ConfigurationError` naming it.
    """
    unit, peak, sum_squares = _peak_scaled(_real_array(values, "values"))
    unit_norm = math.sqrt(sum_squares)
    unit /= unit_norm
    return unit, peak * unit_norm


# A gate's lowering is written once, as the cached slot program of
# :func:`slot_programs`. A program is a list of rows ``(target slot, control
# slot)`` on relative qubit slots. A row with a control is a CNOT on control
# value 1; every other row is a single-qubit gate, whose ``(kind, params)``
# the program holds, or leaves open as ``None`` when the kind and angle
# depend on the gate being lowered. :func:`lower_op` replays a gate's
# program on its qubits and fills the open rows from :func:`_own_gates`.
# The resource counter reads no row and computes no angle: it applies each
# gate's longest-path transfer, a max-plus matrix over the slots
# (Baccelli, Cohen, Olsder & Quadrat, Synchronization and Linearity, 1992),
# held as its max-plus terms and cached per weights. Depth weighs every row
# 1; runtime weighs a row by its duration, as an exact integer, so the
# runtime is the exact longest duration path, rounded once. A program made
# of smaller ones keeps them as its parts, and its terms are their product,
# exact on ints; a program written row by row, a few rows long, chains one
# term per row. Its rows are built from its parts' when first read, which
# only the lowering does.
#
# There is one program per gate shape:
#
# - an MCX or controlled single-qubit gate (a controlled X is the MCX it
#   equals): the all-ones-controls core of
#   (kind, number of controls, params), with the controls on slots 0..m-1
#   and the target on slot m. Its parts are the recursion's singly-controlled
#   chunks, each a program of its own rows, and its inner MCX, the smaller
#   cached core, whose slots are already the right ones. Where a control has
#   polarity 0, the gate's program is the core between two runs of a program
#   of X gates on those controls' slots;
# - a uniformly-controlled rotation: one gray-code ladder per control count
#   (:func:`_ladder_program`), every rotation open, whose transfer is one
#   term in closed form. A PREP's parts are one ladder per target;
# - an uncontrolled single-qubit gate: one open row;
# - a BLOCK: between two H rows on the flag, the ladder of each RZ stage
#   (:func:`_block_stages`): the flag's and each control's where some k is
#   not 1, else none;
# - a SHIFT of (register width, control polarities, step): the ripple
#   cascade, whose parts are the MCX programs of its register bits, widest
#   first, each on the lower register bits and the gate's controls.


def _sqrt_2x2(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary via eigendecomposition."""
    w, p = np.linalg.eig(u)
    return p @ np.diag(np.sqrt(w.astype(complex))) @ np.linalg.inv(p)


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with U = e^{i alpha} RZ(beta) RY(gamma) RZ(delta)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = 0.5 * math.atan2(det.imag, det.real)
    su = u * np.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) < 1e-14:
        half_sum = 0.0
        half_diff = math.atan2(su[1, 0].imag, su[1, 0].real)
    elif abs(su[1, 0]) < 1e-14:
        half_sum = -math.atan2(su[0, 0].imag, su[0, 0].real)
        half_diff = 0.0
    else:
        half_sum = -math.atan2(su[0, 0].imag, su[0, 0].real)
        half_diff = math.atan2(su[1, 0].imag, su[1, 0].real)
    beta = half_sum + half_diff
    delta = half_sum - half_diff
    return alpha, beta, gamma, delta


def _controlled_1q(u: np.ndarray, control: int, target: int) -> SlotProgram:
    """A singly-controlled 2x2 unitary with two CNOTs (ABC decomposition), as a program of its own rows.

    A rotation whose angle is zero is left out.
    """
    alpha, beta, gamma, delta = _zyz_angles(u)
    pairs, gates = [], []
    for kind, slot, angle in (
        ("RZ", target, (delta - beta) / 2.0), ("MCX", control, None), ("RZ", target, -(delta + beta) / 2.0),
        ("RY", target, -gamma / 2.0), ("MCX", control, None), ("RY", target, gamma / 2.0),
        ("RZ", target, beta), ("PHASE", control, alpha),
    ):
        if kind == "MCX":
            pairs.append((target, slot))
        elif angle:
            pairs.append((slot, -1))
            gates.append((kind, (angle,)))
    return SlotProgram(pairs, gates)


_TOFFOLI_T = math.pi / 4.0

# canonical doubly-controlled X on slots (0, 1 -> 2): six CNOTs plus a T layer
_TOFFOLI_ROWS = (
    ("H", 2, -1, ()),
    ("MCX", 2, 1, ()),
    ("PHASE", 2, -1, (-_TOFFOLI_T,)),
    ("MCX", 2, 0, ()),
    ("PHASE", 2, -1, (_TOFFOLI_T,)),
    ("MCX", 2, 1, ()),
    ("PHASE", 2, -1, (-_TOFFOLI_T,)),
    ("MCX", 2, 0, ()),
    ("PHASE", 2, -1, (_TOFFOLI_T,)),
    ("PHASE", 1, -1, (_TOFFOLI_T,)),
    ("H", 2, -1, ()),
    ("MCX", 1, 0, ()),
    ("PHASE", 0, -1, (_TOFFOLI_T,)),
    ("PHASE", 1, -1, (-_TOFFOLI_T,)),
    ("MCX", 1, 0, ()),
)


def _block_rotates(op: GateOp) -> bool:
    """Whether a BLOCK has RZ stages: whether some k, clipped to [-1, 1] as the gate was made, is below 1."""
    return op.params.min() < 1.0


def _block_stages(op: GateOp) -> list[np.ndarray]:
    """The angle vectors of a BLOCK's RZ stages, in the order of its :func:`_block_program` ladders.

    The lowering runs the diagonal of +arccos(k) on flag 0 and -arccos(k)
    on flag 1, where the controls meet their polarities, between Hadamards
    on the flag, which cancel where the diagonal is idle. Split by its top
    qubit, a diagonal is the RZ on that qubit by the difference of its
    halves, uniformly controlled by the qubits below, and the diagonal of
    their mean. The level of control i, with c controls above the flag,
    finds the block's phases, negated for polarity 0, where the controls
    below meet theirs, and zero elsewhere, and passes half of them down. So
    control i's stage holds them divided by 2^(c-1-i), and the flag's is
    -2 arccos(k) / 2^c. The flag's mean is exactly 0: the value slots have
    no stage and there is no global phase. The stages are none where every
    k is 1 (:func:`_block_rotates`), else these 1 + c; arccos of the float
    below 1 is 1.5e-8, so no halving underflows.
    """
    if not _block_rotates(op):
        return []
    theta = np.arccos(op.params)
    scale = 1 << len(op.controls)
    phases = np.concatenate([theta, -theta])
    stages = [-2.0 * theta / scale]
    match = 0  # the branch where the controls below i meet their polarities
    for i, polarity in enumerate(op.control_values):
        scale >>= 1
        stage = np.zeros(phases.size << i)
        stage[match * phases.size : (match + 1) * phases.size] = (phases if polarity else -phases) / scale
        stages.append(stage)
        match |= polarity << i
    return stages


def _fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform, natural (Hadamard) ordering."""
    a = np.array(values, dtype=float)
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        x = a[:, 0, :].copy()
        y = a[:, 1, :].copy()
        a[:, 0, :] = x + y
        a[:, 1, :] = x - y
        a = a.reshape(n)
        h <<= 1
    return a


def _ladder_angles(angles: np.ndarray) -> list[float]:
    """Rotation angle of each rung of :func:`_ladder_program`, in rung order.

    ``angles[b]`` is the rotation on control branch b, whose bit i is the
    value of control slot i; rung r rotates by the transformed angle of gray
    code r.
    """
    rung = np.arange(angles.size)
    return (_fwht(angles) / angles.size)[rung ^ (rung >> 1)].tolist()


# a program's transfer as max-plus terms: each ``(outs, a, ins, b)`` sets slot
# outs[i] to a[i] + the largest before[ins[j]] + b[j]
Terms = tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


class SlotProgram:
    """One cached piece of a lowering: ``(target slot, control slot)`` per row.

    The control slot is -1 for a single-qubit row; any other row is a CNOT.
    ``gates`` holds the ``(kind, params)`` of each single-qubit row in order,
    or ``None`` for a row whose kind and angle come from the gate being
    lowered. ``cnot`` and ``single_qubit`` count the rows. A program is
    written row by row, or is the gray-code ladder on slot ``ladder``, or is
    made of smaller ones, its ``parts``: ``(program, slots)`` pairs whose
    rows, run in order with slot i on ``slots[i]`` (``None``: on slot i),
    are its rows. The rows and gates of the last two are built when first
    read; the counter never reads them, only :meth:`terms`.
    """

    def __init__(self, rows=None, gates=(), *, parts=(), ladder: int | None = None):
        self.parts: tuple[tuple[SlotProgram, tuple[int, ...] | None], ...] = tuple(parts)
        self.ladder = ladder
        self._terms: dict[tuple[int, int], Terms] = {}
        if rows is not None:
            self.rows, self.gates = _shared(rows), tuple(gates)
            self.cnot, self.single_qubit = len(self.rows) - len(self.gates), len(self.gates)
        elif ladder:
            self.cnot = self.single_qubit = 1 << ladder
        else:
            self.cnot = sum(program.cnot for program, _ in self.parts)
            self.single_qubit = sum(program.single_qubit for program, _ in self.parts)

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, int], ...]:
        if self.ladder:
            k, last = self.ladder, (1 << self.ladder) - 1
            flips = (((r + 1) & -(r + 1)).bit_length() - 1 for r in range(last))
            return _shared(pair for flip in (*flips, k - 1) for pair in ((k, -1), (k, flip)))
        return _shared(pair if slots is None else (slots[pair[0]], slots[pair[1]] if pair[1] >= 0 else -1)
                       for program, slots in self.parts for pair in program.rows)

    @functools.cached_property
    def gates(self) -> tuple[tuple[str, tuple] | None, ...]:
        if self.ladder:
            return (None,) * self.single_qubit
        return tuple(gate for program, _ in self.parts for gate in program.gates)

    def terms(self, w1: int, wx: int) -> Terms:
        """The max-plus transfer of the rows when a single-qubit row weighs w1 and a CNOT wx.

        ``W_ij`` is the heaviest path through the rows from slot j's input to
        slot i's output, so after the program slot i holds the largest
        ``before[j] + W_ij``; a slot the rows leave untouched keeps its value.
        With weights (1, 1) that is the depth; with gate durations, the
        runtime. Where ``W_ij = a_i + b_j`` holds exactly over every touched
        pair of slots, which every gate program of the builders meets, it is
        one term ``(outs, a, ins, b)``: the heaviest ``before[j] + b_j`` over
        ``ins``, plus ``a_i`` on each slot of ``outs``. Else it is one term
        per output slot, its sources and weights as they are. Every term
        reads the values from before the program. A ladder has a closed
        form; a program with parts chains theirs, and a program written row
        by row, which is a few rows, chains one term per row. Cached per
        weights.
        """
        found = self._terms.get((w1, wx))
        if found is None:
            if self.ladder:
                found = _ladder_terms(self.ladder, w1, wx)
            else:
                paths: dict[int, dict[int, int]] = {}
                if self.parts:
                    for program, slots in self.parts:
                        _chain(program.terms(w1, wx), slots, paths)
                else:
                    for t, c in self.rows:
                        _chain((((t,), (w1,), (t,), (0,)),) if c < 0 else (((t, c), (wx, wx), (t, c), (0, 0)),),
                               None, paths)
                found = _factored(paths)
            self._terms[w1, wx] = found
        return found


def _factored(paths: dict[int, dict[int, int]]) -> Terms:
    """``paths`` (slot -> {source slot: heaviest path}) as one term if it has max-plus rank one, else one per slot."""
    rows = [(i, tuple(sorted(p)), p) for i, p in sorted(paths.items())]
    if not rows:
        return ()
    _, ins, first = rows[0]
    if all(sources == ins for _, sources, _ in rows):
        b = tuple(first[j] for j in ins)
        a = tuple(p[ins[0]] - b[0] for _, _, p in rows)
        if all(p[j] == shift + w for (_, _, p), shift in zip(rows, a) for j, w in zip(ins, b)):
            return ((tuple(i for i, _, _ in rows), a, ins, b),)
    return tuple(((i,), (0,), sources, tuple(p[j] for j in sources)) for i, sources, p in rows)


def _shared(pairs) -> tuple[tuple[int, int], ...]:
    """The slot pairs as a tuple, equal pairs sharing one tuple."""
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    return tuple(shared.setdefault(pair, pair) for pair in pairs)


def _chain(terms: Terms, slots, paths: dict) -> None:
    """Extend ``paths`` (slot -> {source slot: heaviest path}) through a program's terms.

    The program's slot i stands for slot ``slots[i]`` of ``paths``. A term's
    ``b`` may be negative, so a source is absent until first reached.
    """
    done = {}
    for outs, a, ins, b in terms:
        peak: dict[int, int] = {}
        for j, w in zip(ins, b):
            if slots is not None:
                j = slots[j]
            for source, v in paths.get(j, {j: 0}).items():
                v += w
                if source not in peak or v > peak[source]:
                    peak[source] = v
        for i, shift in zip(outs, a):
            done[i if slots is None else slots[i]] = {source: v + shift for source, v in peak.items()}
    paths.update(done)


def _ladder_terms(k: int, w1: int, wx: int) -> Terms:
    """The transfer of :func:`_ladder_program` (k >= 1) in closed form: one term over slots 0..k.

    Every row acts on the target slot k, so the heaviest path from any slot
    follows the target's chain from where it joins it. After rung r's CNOT
    the target's path from itself weighs (r + 1)(w1 + wx), and from control
    c, which first fires at rung 2^c - 1, wx + (r - 2^c + 1)(w1 + wx). A
    control's output is the target's chain at the control's last rung
    r_c = 2^k - 2^c - 1 (the wrap-round rung 2^k - 1 for c = k - 1); the
    target's is the chain at the last rung. Every control has fired by then.
    So ``a_i = (r_i + 1)(w1 + wx)``, ``b_c = wx - 2^c (w1 + wx)`` and
    ``b_k = 0``.
    """
    rung = w1 + wx
    last = (1 << k) - 1
    ends = (*(last - (1 << c) for c in range(k - 1)), last, last)
    every = tuple(range(k + 1))
    return ((every, tuple((r + 1) * rung for r in ends), every, (*(wx - (rung << c) for c in range(k)), 0)),)


_ONE_ROW = SlotProgram(((0, -1),), (None,))


def _multi_controlled(u: np.ndarray, m: int, target: int, parts: list) -> None:
    """Append C^m(U) on all-ones controls 0..m-1 (m >= 1) to a program's parts: the ancilla-free square-root recursion."""
    if m == 1:
        parts.append((_controlled_1q(u, 0, target), None))
        return
    v = _sqrt_2x2(u)
    mcx = _core_program("MCX", m - 1, ())  # C^{m-1}(X) from slots 0..m-2 onto slot m-1
    for w in (v, v.conj().T):
        parts += ((_controlled_1q(w, m - 1, target), None), (mcx, None))
    _multi_controlled(v, m - 1, target, parts)


@functools.lru_cache(maxsize=128)
def _core_program(kind: str, m: int, params: tuple) -> SlotProgram:
    """The all-ones-controls core of one gate shape: controls on slots 0..m-1, the target on slot m.

    Params that compare equal share one program.
    """
    if kind == "MCX" and m == 2:
        rows = _TOFFOLI_ROWS
        return SlotProgram(((t, c) for _, t, c, _ in rows), ((k, p) for k, _, c, p in rows if c < 0))
    if kind == "MCX" and m == 0:
        return SlotProgram([(0, -1)], [("X", ())])
    if kind == "MCX" and m == 1:
        return SlotProgram([(1, 0)])
    if kind == "RZ" and m == 1:
        # two-CNOT special case: half rotations cancel on the idle branch
        (theta,) = params
        return SlotProgram([(1, -1), (1, 0), (1, -1), (1, 0)], [("RZ", (theta / 2.0,)), ("RZ", (-theta / 2.0,))])
    u = _X_MAT if kind == "MCX" else gate_matrix_1q(GateOp(kind, (m,), params=params))
    parts: list = []
    _multi_controlled(u, m, m, parts)
    return SlotProgram(parts=parts)


@functools.lru_cache(maxsize=None)
def _ladder_program(k: int) -> SlotProgram:
    """Uniformly-controlled rotation on slot k, controlled by slots 0..k-1.

    The gray-code ladder: rung r rotates slot k, then flips it on the control
    whose bit changes between gray codes r and r + 1; the last rung wraps
    round on the top control. 2^k open rotations and 2^k CNOTs; with no
    control it is the bare rotation.
    """
    return SlotProgram(ladder=k) if k else _ONE_ROW


@functools.lru_cache(maxsize=None)
def _prep_program(m: int) -> SlotProgram:
    """The Möttönen rotation network of a PREP on slots 0..m-1.

    One ladder per slot j, top slot first: the RY on slot j controlled by
    the slots above it.
    """
    return SlotProgram(parts=[(_ladder_program(m - 1 - j), (*range(j + 1, m), j)) for j in range(m - 1, -1, -1)])


@functools.lru_cache(maxsize=128)
def _controlled_program(kind: str, m: int, params: tuple, control_values: tuple[int, ...]) -> SlotProgram:
    """A controlled gate's lowering: its core between two runs of the X on each 0-polarity control's slot.

    The bare core where every control has polarity 1. Params that compare
    equal share one program, as in :func:`_core_program`.
    """
    core = _core_program(kind, m, params)
    flipped = [i for i, v in enumerate(control_values) if not v]
    if not flipped:
        return core
    flips = SlotProgram(((i, -1) for i in flipped), [("X", ())] * len(flipped))
    return SlotProgram(parts=[(flips, None), (core, None), (flips, None)])


@functools.lru_cache(maxsize=128)
def _block_program(flag: int, stages: tuple[int, ...]) -> SlotProgram:
    """A BLOCK's lowering: the ladder of each RZ stage ``k`` in ``stages``, between two H on the flag slot."""
    hadamard = SlotProgram(((flag, -1),), [("H", ())])
    return SlotProgram(parts=[(hadamard, None), *((_ladder_program(k), None) for k in stages), (hadamard, None)])


@functools.lru_cache(maxsize=128)
def _shift_program(width: int, control_values: tuple[int, ...], step: int) -> SlotProgram:
    """A SHIFT's lowering on slots 0..width-1 (its register) and the control slots above: the ripple cascade.

    The incrementer flips register bit j when every bit below it is 1,
    widest j first, and ends with a bare flip of bit 0; the decrementer
    runs the same ladder on bits below at 0. The gate's controls join
    every flip.
    """
    pol = 1 if step == 1 else 0
    controls = tuple(range(width, width + len(control_values)))
    return SlotProgram(parts=[
        (_controlled_program("MCX", j + len(controls), (), (pol,) * j + control_values), (*range(j), *controls, j))
        for j in range(width - 1, -1, -1)
    ])


def slot_programs(op: GateOp) -> tuple[SlotProgram, tuple[int, ...]]:
    """One gate's lowering, as the slot program that describes it.

    Returns the cached slot program whose rows are the lowering, and the
    qubit each slot stands for. Its ``cnot`` and ``single_qubit`` are the
    lowered gate's counts. No angle is computed: a BLOCK's RZ stages are all
    or none (:func:`_block_stages`), so its program needs only
    :func:`_block_rotates`.
    """
    kind = op.kind
    if kind == "PREP":
        return _prep_program(len(op.targets)), op.targets
    if kind == "BLOCK":
        flag = len(op.targets) - 1
        stages = tuple(range(flag, flag + len(op.controls) + 1)) if _block_rotates(op) else ()
        return _block_program(flag, stages), op.qubits
    if kind == "SHIFT":
        return _shift_program(len(op.targets), op.control_values, op.params[0]), op.qubits
    if not op.controls and kind != "MCX":
        return _ONE_ROW, op.targets
    # a controlled X is the MCX it equals
    kind = "MCX" if kind == "X" else kind
    return _controlled_program(kind, len(op.controls), op.params, op.control_values), op.controls + op.targets


def _own_gates(op: GateOp) -> list[tuple[str, tuple]]:
    """The ``(kind, params)`` of a gate's open rows, in the order of its :func:`slot_programs` rows."""
    kind = op.kind
    if kind == "PREP":
        # signs enter only at the leaf stage (j = 0), whose angles use the
        # signed pair values; every higher stage rotates by branch norms
        v = unit_amplitudes(op.params)[0]
        m = len(op.targets)
        gates = []
        for j in range(m - 1, -1, -1):
            halves = v.reshape(1 << (m - 1 - j), 2, 1 << j)
            if j == 0:
                lo, hi = halves[:, 0, 0], halves[:, 1, 0]
            else:
                lo = np.linalg.norm(halves[:, 0, :], axis=1)
                hi = np.linalg.norm(halves[:, 1, :], axis=1)
            gates += (("RY", (angle,)) for angle in _ladder_angles(2.0 * np.arctan2(hi, lo)))
        return gates
    if kind == "BLOCK":
        return [("RZ", (angle,)) for stage in _block_stages(op) for angle in _ladder_angles(stage)]
    if not op.controls and kind not in ("MCX", "SHIFT"):
        return [(kind, op.params)]
    return []


def lower_op(op: GateOp) -> list[GateOp]:
    """Rewrite one gate into the single-qubit + CNOT basis, exactly.

    The gate's slot program runs on its qubits, its open rows filled from
    the gate's own angles. A PREP becomes the rotation network that prepares
    its unit vector from |0> on its targets; on a target register in |0> the
    two agree. An ``op`` that is not a :class:`~qlbm.circuits.GateOp` is a
    :class:`ConfigurationError`.
    """
    if not isinstance(op, GateOp):
        raise ConfigurationError(f"op must be a GateOp, got {op!r}")
    program, qubits = slot_programs(op)
    own = iter(_own_gates(op))
    gates = iter(program.gates)
    ops = []
    for t, c in program.rows:
        if c >= 0:
            ops.append(_lowered_gate("MCX", (qubits[t],), (qubits[c],), (1,), ()))
        else:
            kind, params = next(gates) or next(own)
            ops.append(_lowered_gate(kind, (qubits[t],), (), (), params))
    return ops


def iter_lowered(circ: CircuitIR) -> Iterator[tuple[str, GateOp]]:
    """(section, basis op) pairs of the lowered circuit, in gate order; ``circ`` must be a :class:`~qlbm.circuits.CircuitIR`."""
    _require_circuit(circ)
    return ((section, low) for section, start, stop in circ.sections
            for op in circ.gates[start:stop] for low in lower_op(op))


def lower_circuit(circ: CircuitIR) -> CircuitIR:
    """Materialized lowering, one section per run of same-named sections that lowers to any gate."""
    lowered = iter_lowered(circ)  # which checks circ
    out = CircuitIR(circ.layout)
    for section, pairs in itertools.groupby(lowered, key=lambda pair: pair[0]):
        out.add_section(section, [op for _, op in pairs])
    return out
