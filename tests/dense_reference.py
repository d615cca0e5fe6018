"""The independent references the simulator is checked against.

:func:`apply_ops_numpy` applies gates by fancy indexing on the whole
amplitude array, deliberately separate from the strided-view kernels of
``qlbm._kernels``, so the two implementations check each other;
:func:`circuit_unitary` is its dense unitary. :func:`postselect` and
:func:`postselect_many` select a finished state and keep its size, the
reference the in-loop selection of ``apply_circuit`` is checked against.
No program code uses them.
"""

from typing import Iterable

import numpy as np

from qlbm.circuits import GateOp, gate_matrix_1q
from qlbm.errors import ConfigurationError, PostSelectionError
from qlbm.lowering import lower_op
from qlbm.statevector import _MIN_SELECT_PROBABILITY, QuantumState


def _control_mask_val(op: GateOp) -> tuple[int, int]:
    mask = 0
    val = 0
    for q, v in zip(op.controls, op.control_values):
        mask |= 1 << q
        val |= v << q
    return mask, val


def apply_ops_numpy(array: np.ndarray, ops: Iterable[GateOp], n_qubits: int) -> np.ndarray:
    """Apply gates to an amplitude array (first axis = 2^n basis index).

    A PREP runs as its rotation network (``lower_op``), a BLOCK by its
    definition, a 2x2 matrix on its flag per value index, a SHIFT as
    arithmetic on the basis index.
    """
    arr = np.asarray(array, dtype=complex).copy()
    if arr.shape[0] != 1 << n_qubits:
        raise ConfigurationError("array leading axis must be 2^n_qubits")
    idx = np.arange(1 << n_qubits)
    for op in ops:
        if op.kind == "PREP":
            arr = apply_ops_numpy(arr, lower_op(op), n_qubits)
            continue
        cmask, cval = _control_mask_val(op)
        if op.kind == "SHIFT":
            # where the controls hold, the register field moves to field + step mod 2^w
            low, size = op.targets[0], 1 << len(op.targets)
            field = (idx >> low) & (size - 1)
            moved = idx ^ ((field ^ ((field + op.params[0]) % size)) << low)
            dest = np.where((idx & cmask) == cval, moved, idx)
            shifted = np.empty_like(arr)
            shifted[dest] = arr
            arr = shifted
            continue
        if op.kind == "MCX":
            t = op.targets[0]
            sel = ((idx & cmask) == cval) & (((idx >> t) & 1) == 0)
            lo = idx[sel]
            hi = lo | (1 << t)
            arr[lo], arr[hi] = arr[hi], arr[lo]  # fancy indexing copies
            continue
        t = op.targets[-1]  # the target, or a BLOCK's flag
        sel = ((idx & cmask) == cval) & (((idx >> t) & 1) == 0)
        lo = idx[sel]
        hi = lo | (1 << t)
        if op.kind == "BLOCK":
            # by its definition: on value index j, [[k, i s], [i s, k]] on the flag, s = sqrt(1 - k[j]^2)
            j = np.zeros_like(lo)
            for pos, q in enumerate(op.targets[:-1]):
                j |= ((lo >> q) & 1) << pos
            k = op.params[j].reshape((-1,) + (1,) * (arr.ndim - 1))
            s = 1j * np.sqrt(1.0 - k * k)
            u = np.array([[k, s], [s, k]])
        else:
            u = gate_matrix_1q(op)
        a_lo = arr[lo]
        a_hi = arr[hi]
        arr[lo] = u[0, 0] * a_lo + u[0, 1] * a_hi
        arr[hi] = u[1, 0] * a_lo + u[1, 1] * a_hi
    return arr


def circuit_unitary(ops: Iterable[GateOp], n_qubits: int) -> np.ndarray:
    """Dense unitary of a gate list (small circuits only)."""
    if n_qubits > 10:
        raise ConfigurationError("dense unitary extraction is capped at 10 qubits")
    return apply_ops_numpy(np.eye(1 << n_qubits, dtype=complex), ops, n_qubits)


def postselect(state: QuantumState, qubit: int, value: int) -> tuple[QuantumState, float]:
    """Project one qubit onto |value> and renormalize.

    Returns the projected state and the selection probability. The norm
    factor absorbs sqrt(p), keeping decoded magnitudes unchanged. Below the
    simulator's smallest selection probability it raises
    :class:`PostSelectionError`, as ``apply_circuit`` must.
    """
    amps = state.amplitudes
    shape = (amps.size >> (qubit + 1), 2, 1 << qubit)
    kept = amps.reshape(shape)[:, value, :]
    p = float(np.sum(np.abs(kept) ** 2))
    if p < _MIN_SELECT_PROBABILITY:
        raise PostSelectionError(f"selecting qubit {qubit} = {value} has probability {p:.3e}")
    new = np.zeros_like(amps)
    new.reshape(shape)[:, value, :] = kept / np.sqrt(p)
    return QuantumState(state.n_qubits, new, state.norm_factor * np.sqrt(p)), p


def postselect_many(state: QuantumState, plan: dict[int, int]) -> tuple[QuantumState, dict[int, float]]:
    """Select several qubits in ascending order; returns per-qubit probabilities."""
    probs = {}
    for qubit in sorted(plan):
        state, p = postselect(state, qubit, plan[qubit])
        probs[qubit] = p
    return state, probs
