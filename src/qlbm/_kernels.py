"""Statevector kernels on strided views of the amplitude array.

The amplitudes (length 2**n; float64 or complex128, fixed per circuit plan)
are viewed as ``amps.reshape((2,) * n)``, so qubit ``q`` is axis
``n - 1 - q``. Fixing each control axis to its control value with an
integer index leaves a view of the controlled subspace; fixing the target
axis to 0 or 1 as well gives the two halves a gate mixes. Every
kernel writes through those views, in place, without index arrays (the
bit-axis layout of standard statevector simulators, Häner & Steiger,
arXiv:1704.01127).

The indices depend only on the gate's bits, so they are built once, when a
circuit is planned (:func:`halves`, :func:`diag_layout`,
:func:`shift_layout`), and the plan binds the views they select onto its
work arrays once too. So each kernel takes bound views, not the amplitude
array: the halves or controlled view it writes, and scratch views of the
plan's idle work array where it must keep old values, which it fills with
``out=`` or a slice assignment instead of a copy. Controls arrive as
(bit, value) pairs, so any mix of 0/1-polarity controls is one argument.
A BLOCK's two halves are those of its flag within the controlled view:
:func:`diag_layout` with the flag as one more control. A SHIFT's register
is consecutive bits, so :func:`shift_layout` views them as one axis of
2**w points and :func:`apply_shift` rotates it by one, in either direction,
through a scratch of the controlled view's shape (:func:`shift_views`).
The kernels take either dtype: a real plan passes real matrices and
factors, and only runs kernels whose result stays real. Each product keeps
the operand order of the kernels it replaced (a matrix entry or ``s``
first), so every amplitude is computed by the same operations as before.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel path (there is one: strided numpy views)."""
    return "numpy"


def _controlled(n, controls):
    """Per-axis index of the (2,)*n view fixing every control, given as (bit, value) pairs."""
    idx = [slice(None)] * n
    for bit, value in controls:
        idx[n - 1 - bit] = value
    return idx


def halves(n, target, controls):
    """Indices of the controlled target=0 and target=1 halves of the (2,)*n view.

    ``target`` is the target's bit. The trailing Ellipsis keeps the result
    a view even when the target and controls fix every axis (plain integer
    indexing would return a scalar).
    """
    idx = _controlled(n, controls)
    idx[n - 1 - target] = 0
    i0 = (*idx, ...)
    idx[n - 1 - target] = 1
    return i0, (*idx, ...)


def diag_layout(n, qpos, controls):
    """Index of the controlled view, and the axis order and shape that fit a BLOCK's coefficients to it.

    Coefficient k belongs where bit b of k is bit ``qpos[b]`` of the
    amplitude index. Axis j of ``values.reshape((2,) * m)`` carries bit
    ``qpos[m - 1 - j]``; ``order`` sorts the axes by descending bit like the
    view, and ``shape`` gives every other free bit a broadcast axis of length 1.
    """
    idx = _controlled(n, controls)
    m = len(qpos)
    order = tuple(sorted(range(m), key=lambda j: qpos[m - 1 - j], reverse=True))
    free = [n - 1 - a for a, i in enumerate(idx) if isinstance(i, slice)]
    return (*idx, ...), order, tuple(2 if q in qpos else 1 for q in free)


def shift_layout(n, low, width, controls):
    """View shape of a register on bits ``low``..``low + width - 1`` as one axis, its controlled view's index, and that axis within it.

    The shape is ``(2,) * (n - low - width) + (2**width,) + (2,) * low``.
    The index fixes every control axis to its value; in the controlled
    view it selects, the register is axis ``axis``, of ``2**width`` points.
    """
    hi = n - low - width
    idx = [slice(None)] * (hi + 1 + low)
    for bit, value in controls:  # a control lies above the register or below it
        idx[n - 1 - bit if bit > low else hi + low - bit] = value
    axis = sum(isinstance(i, slice) for i in idx[:hi])
    return (2,) * hi + (1 << width,) + (2,) * low, (*idx, ...), axis


def shift_views(view, rotated, axis):
    """The +1 and -1 shifts' ``(edge_from, body_from, edge_to, body_to)`` for :func:`apply_shift`.

    ``view`` is a controlled view, ``rotated`` a scratch array of its shape
    and ``axis`` the register's axis in both. +1 moves the body
    0..2**w-2 up one point and wraps the top point round to 0, -1 the
    reverse; the ``_from`` views are of ``view``, the ``_to`` views of ``rotated``.
    """
    top = view.shape[axis] - 1
    lead = (slice(None),) * axis

    def at(a, point):
        return a[(*lead, point, ...)]

    plus = (at(view, top), at(view, slice(0, top)), at(rotated, 0), at(rotated, slice(1, None)))
    minus = (at(view, 0), at(view, slice(1, None)), at(rotated, top), at(rotated, slice(0, top)))
    return plus, minus


def apply_shift(view, rotated, edge_from, body_from, edge_to, body_to):
    """Rotate the register axis of the controlled ``view`` by one point, through ``rotated``: the edge wraps round, the body moves.

    The body is not moved within ``view``: an overlapping copy makes numpy
    allocate a temporary of its size.
    """
    body_to[...] = body_from
    edge_to[...] = edge_from
    view[...] = rotated


def apply_1q(v0, v1, a, b, u00, u01, u10, u11):
    """``[[u00, u01], [u10, u11]]`` on the halves ``v0`` and ``v1``; ``a`` and ``b`` are scratch of their shape."""
    np.multiply(u10, v0, out=a)
    np.multiply(u00, v0, out=v0)
    np.multiply(u01, v1, out=b)
    v0 += b
    np.multiply(u11, v1, out=v1)
    v1 += a


def apply_mcx(v0, v1, a):
    """Swap the halves ``v0`` and ``v1`` through the scratch ``a``."""
    a[...] = v0
    v0[...] = v1
    v1[...] = a


def apply_phase(v1, phase):
    """Multiply the controlled target=1 half ``v1`` by ``phase``."""
    v1 *= phase


def apply_diag(sub, factor):
    """Multiply the controlled view ``sub`` by ``factor``, shaped by :func:`diag_layout` to broadcast over it.

    ``factor`` is the coefficients of a BLOCK selected on its flag.
    """
    sub *= factor


def apply_block(v0, v1, a, b, k, s):
    """Per basis state, ``[[k, s], [s, k]]`` on the halves ``v0`` and ``v1``, ``k`` and ``s`` shaped by :func:`diag_layout` to broadcast over them.

    ``a`` and ``b`` are scratch of the halves' shape.
    """
    np.multiply(s, v0, out=a)
    np.multiply(s, v1, out=b)
    v0 *= k
    v0 += b
    v1 *= k
    v1 += a
