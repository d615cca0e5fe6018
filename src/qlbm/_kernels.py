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
circuit is planned (:func:`halves`, :func:`diag_layout`), and each kernel
call takes the view shape and indices ready-made. Controls arrive as
(bit, value) pairs, so any mix of 0/1-polarity controls is one argument.
A BLOCK's two halves are those of its flag within the controlled view:
:func:`diag_layout` with the flag as one more control. A SHIFT's register
is consecutive bits, so :func:`shift_layout` views them as one axis of
2**w points and :func:`apply_shift` rotates it by one, in either direction,
with one slice assignment. The kernels take either dtype: a real plan
passes real matrices and factors, and only runs kernels whose result stays
real.
"""


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
    """View shape of a register on bits ``low``..``low + width - 1`` as one axis, and the indices of its +1 and -1 shifts.

    The shape is ``(2,) * (n - low - width) + (2**width,) + (2,) * low``.
    Each shift's indices are ``(edge_from, edge_to, body_from, body_to)``
    for :func:`apply_shift`, every control axis fixed to its value: +1
    moves the body 0..2**w-2 up one point and wraps the top point round to
    0, -1 the reverse.
    """
    hi, top = n - low - width, (1 << width) - 1
    idx = [slice(None)] * (hi + 1 + low)
    for bit, value in controls:  # a control lies above the register or below it
        idx[n - 1 - bit if bit > low else hi + low - bit] = value

    def at(point):
        idx[hi] = point
        return (*idx, ...)

    plus = (at(top), at(0), at(slice(0, top)), at(slice(1, None)))
    minus = (at(0), at(top), at(slice(1, None)), at(slice(0, top)))
    return (2,) * hi + (1 << width,) + (2,) * low, plus, minus


def apply_shift(amps, shape, edge_from, edge_to, body_from, body_to):
    """Rotate the register axis of the controlled view by one point: the edge wraps round, the body moves."""
    view = amps.reshape(shape)
    edge = view[edge_from].copy()
    view[body_to] = view[body_from]  # numpy copies an overlapping source first
    view[edge_to] = edge


def apply_1q(amps, shape, i0, i1, u00, u01, u10, u11):
    view = amps.reshape(shape)
    v0, v1 = view[i0], view[i1]
    a0 = v0.copy()
    v0[...] = u00 * a0 + u01 * v1
    v1[...] = u10 * a0 + u11 * v1


def apply_mcx(amps, shape, i0, i1):
    view = amps.reshape(shape)
    v0, v1 = view[i0], view[i1]
    a0 = v0.copy()
    v0[...] = v1
    v1[...] = a0


def apply_phase(amps, shape, i1, phase):
    v1 = amps.reshape(shape)[i1]
    v1 *= phase


def apply_diag(amps, shape, index, factor):
    """Multiply the controlled view by ``factor``, shaped by :func:`diag_layout` to broadcast over it.

    ``factor`` is the coefficients of a BLOCK selected on its flag.
    """
    sub = amps.reshape(shape)[index]
    sub *= factor


def apply_block(amps, shape, i0, i1, k, s):
    """Per basis state, ``[[k, s], [s, k]]`` on the two halves, ``k`` and ``s`` shaped by :func:`diag_layout` to broadcast over them."""
    view = amps.reshape(shape)
    v0, v1 = view[i0], view[i1]
    a0 = v0.copy()
    v0 *= k
    v0 += s * v1
    v1 *= k
    v1 += s * a0
