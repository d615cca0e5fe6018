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
:func:`diag_layout` with the flag as one more control. The kernels take
either dtype: a real plan passes real matrices and factors, and only runs
kernels whose result stays real.
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
    """Index of the controlled view, and the axis order and shape that fit a diagonal's phases to it.

    Phase k of the diagonal belongs where bit b of k is bit ``qpos[b]`` of
    the amplitude index. Axis j of ``phases.reshape((2,) * m)`` carries bit
    ``qpos[m - 1 - j]``; ``order`` sorts the axes by descending bit like the
    view, and ``shape`` gives every other free bit a broadcast axis of length 1.
    """
    idx = _controlled(n, controls)
    m = len(qpos)
    order = tuple(sorted(range(m), key=lambda j: qpos[m - 1 - j], reverse=True))
    free = [n - 1 - a for a, i in enumerate(idx) if isinstance(i, slice)]
    return (*idx, ...), order, tuple(2 if q in qpos else 1 for q in free)


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

    ``factor`` is a DIAG's phasors, or the coefficients of a BLOCK selected
    on its flag.
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
