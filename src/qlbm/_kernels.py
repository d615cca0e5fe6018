"""Statevector kernels on strided views of the amplitude array.

The amplitudes (complex128, length 2**n) are viewed as ``amps.reshape((2,) * n)``,
so qubit ``q`` is axis ``n - 1 - q``. Fixing each control axis to its control
value with an integer index leaves a view of the controlled subspace; fixing
the target axis to 0 or 1 as well gives the two halves a gate mixes. Every
kernel writes through those views, in place, without index arrays (the
bit-axis layout of standard statevector simulators, Häner & Steiger,
arXiv:1704.01127).

Control conditions arrive as a bit mask plus expected value, so any mix of
0/1-polarity controls is one argument pair.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel path (there is one: strided numpy views)."""
    return "numpy"


def _controlled(amps, c_mask, c_val):
    """(2,)*n view of ``amps`` and the per-axis index fixing every control."""
    n = amps.size.bit_length() - 1
    idx = [(c_val >> q) & 1 if (c_mask >> q) & 1 else slice(None) for q in range(n - 1, -1, -1)]
    return amps.reshape((2,) * n), idx


def _halves(amps, t_mask, c_mask, c_val):
    """Writable views of the controlled target=0 and target=1 amplitudes.

    The trailing Ellipsis keeps the result a view even when the target and
    controls fix every axis (plain integer indexing would return a scalar).
    """
    view, idx = _controlled(amps, c_mask, c_val)
    axis = len(idx) - t_mask.bit_length()
    idx[axis] = 0
    v0 = view[(*idx, ...)]
    idx[axis] = 1
    return v0, view[(*idx, ...)]


def apply_1q(amps, t_mask, c_mask, c_val, u00, u01, u10, u11):
    v0, v1 = _halves(amps, t_mask, c_mask, c_val)
    a0 = v0.copy()
    v0[...] = u00 * a0 + u01 * v1
    v1[...] = u10 * a0 + u11 * v1


def apply_mcx(amps, t_mask, c_mask, c_val):
    v0, v1 = _halves(amps, t_mask, c_mask, c_val)
    a0 = v0.copy()
    v0[...] = v1
    v1[...] = a0


def apply_phase(amps, t_mask, c_mask, c_val, phase):
    _, v1 = _halves(amps, t_mask, c_mask, c_val)
    v1 *= phase


def apply_diag(amps, qpos, phases, c_mask, c_val):
    """Multiply amplitude i by phases[k], where bit b of k is bit qpos[b] of i."""
    view, idx = _controlled(amps, c_mask, c_val)
    sub = view[(*idx, ...)]
    qpos = [int(q) for q in qpos]
    m = len(qpos)
    # axis j of phases.reshape((2,)*m) carries qubit qpos[m-1-j]; order the
    # axes by descending qubit like the view, then give every other free
    # qubit a broadcast axis of length 1
    order = sorted(range(m), key=lambda j: qpos[m - 1 - j], reverse=True)
    free = [len(idx) - 1 - a for a, i in enumerate(idx) if isinstance(i, slice)]
    sub *= phases.reshape((2,) * m).transpose(order).reshape([2 if q in qpos else 1 for q in free])
