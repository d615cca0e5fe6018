"""Gate-level circuit construction for the lattice Boltzmann pipeline.

The circuit intermediate representation is a flat list of :class:`GateOp`
records over a :class:`RegisterLayout`, grouped into named sections
(encode / collision / streaming / macro / boundary). Builders emit a
high-level vocabulary (``PREP``, ``BLOCK``, ``SHIFT`` and Hadamards), which
the simulator runs as it is and :mod:`qlbm.lowering` rewrites into
single-qubit gates plus CNOT for the resource estimator to count.
Every whole-pipeline builder's encode section is one ``PREP`` gate that
holds the amplitude layout to load; the simulator applies it by loading.
The collision and the wall projector are each one ``BLOCK`` gate that holds
its coefficients k. Where its flag is selected right after it, the
simulator multiplies the amplitudes by k. Streaming is one ``SHIFT`` per
link and moving axis: a controlled cyclic +/-1 of an axis register. The
simulator rotates the controlled view once.

Qubit order is little-endian: basis index bit k is qubit k. The site
register for axis 0 occupies the lowest qubits, then axis 1, then the link
register d, then the optional source flag s and wall flag b, with the
collision ancilla a on top.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Iterator

import numpy as np

from .errors import CoefficientRangeError, ConfigurationError, EncodingError
from .lattice import (
    LatticeScheme,
    _coefficients_into,
    _real_array,
    collision_coefficients,
    require_power_of_two,
    require_scheme,
)

__all__ = [
    "GateOp",
    "RegisterLayout",
    "CircuitIR",
    "gate_matrix_1q",
    "build_streaming_ops",
    "build_collision_ops",
    "build_advection_collision_ops",
    "build_vorticity_collision_ops",
    "build_macro_ops",
    "build_boundary_ops",
    "encoding_vector",
    "build_advection_diffusion_circuit",
    "build_vorticity_circuit",
    "build_stream_function_circuit",
    "build_single_cavity_circuit",
]

# (target count, parameter count) per kind; PREP takes any number of targets
# and one parameter per basis state of them, BLOCK at least two and one per
# basis state of its targets but the last, SHIFT any number and its step
_GATE_SHAPES = {
    "H": (1, 0), "X": (1, 0), "MCX": (1, 0),
    "RY": (1, 1), "RZ": (1, 1), "PHASE": (1, 1),
}
_ARRAY_KINDS = frozenset({"PREP", "BLOCK"})  # params held as a read-only float64 array
GATE_KINDS = frozenset(_GATE_SHAPES) | _ARRAY_KINDS | {"SHIFT"}
_BITS = frozenset((0, 1))

# tolerance for collision coefficients that poke past |k| = 1 by float slop
_COEFF_SLACK = 1e-9

_TINY = float(np.finfo(float).tiny)  # the smallest normal float; a load's peak must reach it


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubits, control qubits with polarities, params.

    Controls apply to every kind but PREP. ``control_values`` holds the
    required bit (0 or 1) per control qubit. Parameters are angles except
    for PREP, BLOCK and SHIFT. SHIFT adds its step, the int +1 or -1, to
    the register its targets hold, modulo its size: the targets are
    consecutive ascending qubits, targets[0] least significant, and the
    parameter is ``(step,)``. PREP loads a real vector onto targets that
    are all |0>, scaled to unit norm; its parameter is that vector, one
    entry per basis state of the targets (targets[0] least significant).
    BLOCK is a block encoding: its targets are one or more
    value qubits and then a flag, and its parameter ``k`` holds one
    coefficient per basis state of the value qubits. On value index j it
    applies ``[[k, i s], [i s, k]]`` to the flag, with
    ``s = sqrt(1 - k[j]^2)``, which is H on the flag, the diagonal of phases
    ``+arccos(k)`` (flag 0) and ``-arccos(k)`` (flag 1), and H again;
    selecting flag 0 afterwards leaves the value amplitudes scaled by k.
    Each k must lie in [-1, 1], up to a float slop that is clipped away,
    else :class:`CoefficientRangeError`. Every other parameter but a PREP's
    must be finite. PREP and BLOCK hold theirs as a read-only float64
    array: one that is already read-only and owns its memory, such as
    :func:`encoding_vector` returns, cannot change under the gate and is kept
    as it is; anything else, a tuple included, is copied. Every other kind
    holds its parameters as a tuple of floats (SHIFT: of its int step), so a
    list or an array of them makes the same gate as the tuple; a bare number,
    a string or an entry that is not a real number is a
    :class:`ConfigurationError`. Likewise ``targets``, ``controls`` and
    ``control_values`` are held as tuples of ints, so a list or an array of
    integers makes the same gate as the tuple; anything else, a bool entry
    included, is a :class:`ConfigurationError`.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    params: tuple[float, ...] | np.ndarray = ()
    # the structure a plan compares, computed once: kind, targets, controls, control values
    _key: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, targets, controls, control_values = self.kind, self.targets, self.controls, self.control_values
        if not _int_tuples(targets, controls, control_values):
            targets = _index_tuple(kind, "targets", targets)
            controls = _index_tuple(kind, "controls", controls)
            control_values = _index_tuple(kind, "control_values", control_values)
            object.__setattr__(self, "targets", targets)
            object.__setattr__(self, "controls", controls)
            object.__setattr__(self, "control_values", control_values)
        shape = _GATE_SHAPES.get(kind)
        if shape is None:
            if kind not in GATE_KINDS:
                raise ConfigurationError(f"unknown gate kind {kind!r}")
            if not targets:
                raise ConfigurationError(f"{kind} needs at least one target")
            if kind == "BLOCK" and len(targets) == 1:
                raise ConfigurationError("BLOCK needs at least one value qubit besides its flag")
            shape = (len(targets), 1 if kind == "SHIFT" else 1 << (len(targets) - (kind == "BLOCK")))
        if kind in _ARRAY_KINDS:
            if kind == "PREP" and controls:
                raise ConfigurationError("PREP takes no controls")
            object.__setattr__(self, "params", _array_params(kind, targets, self.params))
        else:
            if type(self.params) is not tuple or not all(isinstance(p, float) for p in self.params):
                object.__setattr__(self, "params", _real_tuple(kind, self.params))
            if len(targets) != shape[0] or len(self.params) != shape[1]:
                raise _shape_error(kind, shape, targets, self.params)
            if kind == "SHIFT":
                (step,) = self.params
                if isinstance(step, bool) or not isinstance(step, numbers.Integral) or step not in (1, -1):
                    raise ConfigurationError(f"SHIFT step must be the integer +1 or -1, got {step!r}")
                object.__setattr__(self, "params", (int(step),))
            elif not all(map(math.isfinite, self.params)):
                raise ConfigurationError(f"{kind} parameters must be finite, got a NaN or infinity")
        if len(controls) != len(control_values):
            raise ConfigurationError("controls and control_values must pair up")
        if not _BITS.issuperset(control_values):
            raise ConfigurationError("control values must be 0 or 1")
        seen = {*targets, *controls}
        if len(seen) != len(targets) + len(controls):
            raise ConfigurationError(f"overlapping target/control qubits in {kind}")
        if seen and min(seen) < 0:
            raise ConfigurationError(f"negative qubit index in {kind}")
        if kind == "SHIFT" and targets != tuple(range(targets[0], targets[0] + len(targets))):
            raise ConfigurationError(f"SHIFT register {targets} is not consecutive ascending qubits")
        object.__setattr__(self, "_key", (kind, targets, controls, control_values))

    def __eq__(self, other):
        if not isinstance(other, GateOp):
            return NotImplemented
        if self._key != other._key:
            return False
        if self.kind in _ARRAY_KINDS:
            return np.array_equal(self.params, other.params)
        return self.params == other.params

    def __hash__(self):
        # an array has no hash, so PREP and BLOCK leave it out; equal gates still hash equal
        return hash(self._key + (None if self.kind in _ARRAY_KINDS else self.params,))

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


def _int_tuples(*fields) -> bool:
    """Whether every field is a tuple of ints, the form a builder passes: the fast path of :class:`GateOp`'s conversion."""
    for values in fields:
        if type(values) is not tuple:
            return False
        for v in values:
            if type(v) is not int:
                return False
    return True


def _index_tuple(kind: str, name: str, values) -> tuple[int, ...]:
    """A gate's ``targets``, ``controls`` or ``control_values`` as a tuple of ints, from any sequence of integers.

    A numpy integer counts; a bool, a bare number, a string or an entry that
    is not an integer is a :class:`ConfigurationError` naming ``name``.
    """
    try:
        items = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:  # a bare number, or a 0-d array
        items = None
    if items is None or not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in items):
        raise ConfigurationError(f"{kind} {name} must be a sequence of integers, got {values!r}")
    return tuple(map(int, items))


def _real_tuple(kind: str, params) -> tuple:
    """A non-array gate's ``params`` as a tuple of floats, or for SHIFT of its entries as given."""
    try:
        values = None if isinstance(params, (str, bytes)) else tuple(params)
    except TypeError:  # a bare number, or a 0-d array
        values = None
    if values is None or not all(isinstance(p, numbers.Real) for p in values):
        raise ConfigurationError(f"{kind} parameters must be a sequence of real numbers, got {params!r}")
    # SHIFT's step is checked as it was given, so a float or a bool is refused there
    return values if kind == "SHIFT" else tuple(map(float, values))


def _shape_error(kind: str, shape: tuple[int, int], targets: tuple, params) -> ConfigurationError:
    return ConfigurationError(
        f"{kind} takes {shape[0]} target(s) and {shape[1]} parameter(s), got {len(targets)} and {len(params)}"
    )


def _array_params(kind: str, targets: tuple, params) -> np.ndarray:
    """A PREP's or BLOCK's ``params`` on ``targets`` as the read-only float64 vector the gate holds.

    The parameter checks of these kinds, in one place: a read-only float64
    array that owns its memory is kept as it is and anything else is
    copied, a complex value is refused, the vector must be flat and hold
    one entry per basis state of the targets (a BLOCK's but its flag), and
    a BLOCK's coefficients are held to [-1, 1]: past the slack, or NaN, is
    a :class:`CoefficientRangeError`, and within it they are clipped into
    a new array.
    """
    vector = params
    if not (isinstance(vector, np.ndarray) and vector.dtype == np.float64
            and vector.base is None and not vector.flags.writeable):
        if np.iscomplexobj(vector):
            raise ConfigurationError(f"{kind} params must be real, got a complex vector")
        vector = np.array(vector, dtype=np.float64)
        vector.flags.writeable = False
    if vector.ndim != 1:
        raise ConfigurationError(f"{kind} takes a flat vector, got shape {vector.shape}")
    size = 1 << (len(targets) - (kind == "BLOCK"))
    if len(vector) != size:
        raise _shape_error(kind, (len(targets), size), targets, vector)
    if kind == "PREP":
        return vector  # its values are checked where it is loaded or lowered, by _peak_scaled, as an EncodingError
    # the peak magnitude without an |k| temporary; NaN propagates through max and
    # min, and compares false both ways, so it is rejected too, and so is an infinity
    worst = max(float(vector.max()), -float(vector.min()))
    if not worst <= 1.0 + _COEFF_SLACK:
        raise CoefficientRangeError(f"collision coefficients must lie in [-1, 1]; max |k| = {worst:.6g}")
    if worst > 1.0:
        vector = np.clip(vector, -1.0, 1.0)
        vector.flags.writeable = False
    return vector

def _lowered_gate(kind: str, targets: tuple, controls: tuple, control_values: tuple, params: tuple) -> GateOp:
    """A basis gate of a lowering, made without :class:`GateOp`'s checks.

    Its fields are a cached slot program's slots on the qubits of a gate
    that passed them, and angles that are a tuple of floats, so each check
    would pass and convert nothing.
    """
    gate = object.__new__(GateOp)
    gate.__dict__.update(kind=kind, targets=targets, controls=controls, control_values=control_values, params=params,
                         _key=(kind, targets, controls, control_values))
    return gate


def _layout_gate(kind: str, targets: tuple, controls: tuple, control_values: tuple, params) -> GateOp:
    """A PREP or BLOCK on a :class:`RegisterLayout`'s qubits, made with :class:`GateOp`'s parameter checks only.

    Its targets, controls and control values are tuples of a layout's
    distinct registers and polarities 1, so each structural check would
    pass; its parameters go through :func:`_array_params`, as in
    :class:`GateOp`.
    """
    return _lowered_gate(kind, targets, controls, control_values, _array_params(kind, targets, params))


_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X_MAT.flags.writeable = _H_MAT.flags.writeable = False


def gate_matrix_1q(op: GateOp) -> np.ndarray:
    """2x2 matrix of a single-qubit gate kind; H's and X's are shared read-only constants."""
    k = op.kind
    if k == "H":
        return _H_MAT
    if k == "X":
        return _X_MAT
    if k == "RY":
        (theta,) = op.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k == "RZ":
        (theta,) = op.params
        return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])
    if k == "PHASE":
        (theta,) = op.params
        return np.array([[1, 0], [0, np.exp(1j * theta)]])
    raise ConfigurationError(f"{k} has no 2x2 matrix")


# ---------------------------------------------------------------------------
# register layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit bookkeeping: axis registers, link register, flags, ancilla.

    Register order from least significant qubit up: r0, r1, d, s, b, a.
    The total count is 1 (ancilla) + link qubits + dimension * site qubits,
    plus one each for the optional source and wall flags.
    """

    n_r0: int
    n_r1: int = 0
    n_d: int = 0
    n_s: int = 0
    n_b: int = 0
    n_a: int = 1

    @classmethod
    def for_scheme(cls, scheme: LatticeScheme, extent: int, *, source: bool = False, boundary: bool = False):
        require_scheme(scheme)
        require_power_of_two(extent)
        m = int(extent).bit_length() - 1  # a numpy integer has no bit_length
        return cls(
            n_r0=m,
            n_r1=m if scheme.dimension == 2 else 0,
            n_d=scheme.n_link_qubits,
            n_s=1 if source else 0,
            n_b=1 if boundary else 0,
        )

    @property
    def qubit_count(self) -> int:
        return self.n_r0 + self.n_r1 + self.n_d + self.n_s + self.n_b + self.n_a

    @property
    def n_sites(self) -> int:
        return 1 << (self.n_r0 + self.n_r1)

    @property
    def r0(self) -> tuple[int, ...]:
        return tuple(range(self.n_r0))

    @property
    def r1(self) -> tuple[int, ...]:
        return tuple(range(self.n_r0, self.n_r0 + self.n_r1))

    @property
    def d(self) -> tuple[int, ...]:
        o = self.n_r0 + self.n_r1
        return tuple(range(o, o + self.n_d))

    @property
    def s(self) -> tuple[int, ...]:
        o = self.n_r0 + self.n_r1 + self.n_d
        return tuple(range(o, o + self.n_s))

    @property
    def b(self) -> tuple[int, ...]:
        o = self.n_r0 + self.n_r1 + self.n_d + self.n_s
        return tuple(range(o, o + self.n_b))

    @property
    def a(self) -> tuple[int, ...]:
        o = self.n_r0 + self.n_r1 + self.n_d + self.n_s + self.n_b
        return tuple(range(o, o + self.n_a))

    @property
    def site_qubits(self) -> tuple[int, ...]:
        return self.r0 + self.r1

    @property
    def axis_registers(self) -> tuple[tuple[int, ...], ...]:
        return (self.r0, self.r1) if self.n_r1 else (self.r0,)

    @property
    def encoded_qubits(self) -> tuple[int, ...]:
        """Targets of the encode section's PREP: sites, links and source flag."""
        return self.site_qubits + self.d + self.s


# ---------------------------------------------------------------------------
# circuit container
# ---------------------------------------------------------------------------


class CircuitIR:
    """Ordered gate list over a layout, with named (possibly repeated) sections.

    ``sections`` holds the ``(name, start, stop)`` span of each
    :meth:`add_section` call: contiguous from gate 0, covering every gate once.
    """

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self.gates: list[GateOp] = []
        self.sections: list[tuple[str, int, int]] = []

    @property
    def n_qubits(self) -> int:
        return self.layout.qubit_count

    def add_section(self, name: str, ops: Iterable[GateOp]) -> None:
        """Append ``ops`` as section ``name``; ``ops`` must be an iterable of :class:`GateOp` on this circuit's qubits."""
        try:
            ops = list(ops)
        except TypeError:
            raise ConfigurationError(f"ops must be an iterable of GateOp, got {type(ops).__name__}") from None
        top = -1  # the highest qubit the section touches
        for op in ops:
            if not isinstance(op, GateOp):
                raise ConfigurationError(f"section {name!r} holds an entry that is not a GateOp")
            top = max(top, *op.targets, *op.controls)
        if top >= self.n_qubits:
            raise ConfigurationError(
                f"section {name!r} touches qubit {top} of a {self.n_qubits}-qubit circuit"
            )
        start = len(self.gates)
        self.gates.extend(ops)
        self.sections.append((name, start, len(self.gates)))

    def iter_section(self, name: str) -> Iterator[GateOp]:
        found = False
        for sec, start, stop in self.sections:
            if sec == name:
                found = True
                yield from self.gates[start:stop]
        if not found:
            raise ConfigurationError(f"circuit has no section {name!r}")

    def section_ops(self, names: Iterable[str]) -> list[GateOp]:
        out: list[GateOp] = []
        for name in names:
            out.extend(self.iter_section(name))
        return out


def _require_circuit(circ) -> None:
    """Reject a ``circ`` that is not a :class:`CircuitIR` with a :class:`ConfigurationError` naming it."""
    if not isinstance(circ, CircuitIR):
        raise ConfigurationError(f"circ must be a CircuitIR, got {circ!r}")


# ---------------------------------------------------------------------------
# amplitude normalization
# ---------------------------------------------------------------------------


# entries per row of a reduction: the largest power of two at or below
# OpenBLAS's cutoff of 10,000 entries for a threaded dot, so no row wakes a thread
_SUM_ROW = 8192


def _sum_squares(a: np.ndarray) -> float:
    """Sum of |a_i|^2 over a flat float64 or complex128 array, one dot per row of 8192 entries.

    Each row of at most ``_SUM_ROW`` entries is one dot on the calling
    thread, and the rows add left to right, so the result does not depend on
    the BLAS thread count. At ``_SUM_ROW`` entries or fewer it is the single
    dot ``np.vdot(a, a).real``, bit for bit.
    """
    if a.size <= _SUM_ROW:
        return float(np.vecdot(a, a).real)
    rows = a[: a.size - a.size % _SUM_ROW].reshape(-1, _SUM_ROW)
    total = 0.0
    for row in np.vecdot(rows, rows).real.tolist():
        total += row
    tail = a[rows.size:]  # fewer than _SUM_ROW entries, maybe none
    return total + float(np.vecdot(tail, tail).real)


def _peak_scaled(values, out=None) -> tuple[np.ndarray, float, float]:
    """``values`` divided by their peak magnitude, as a new flat float64 array or into ``out``; the peak; the array's sum of squares.

    Dividing by the peak first means squaring cannot under- or overflow.
    This is the one scaling rule of every load, PREP applied and PREP
    lowered. A peak below the smallest normal float is an
    :class:`EncodingError`: a subnormal holds fewer significant bits, so
    such a field cannot be carried at float64 precision. So is a norm past
    the largest float, which no decode could scale back.
    """
    v = np.asarray(values, dtype=float).ravel()
    # the peak is NaN or infinite exactly when some value is: max and min propagate a NaN
    peak = max(float(v.max()), -float(v.min())) if v.size else 0.0
    if not math.isfinite(peak):
        raise EncodingError("cannot amplitude-encode a field with non-finite values")
    if peak == 0.0:
        raise EncodingError("cannot amplitude-encode an all-zero field")
    if peak < _TINY:
        raise EncodingError(f"cannot amplitude-encode a field whose peak magnitude {peak!r} is subnormal")
    scaled = np.divide(v, peak, out=out)
    sum_squares = _sum_squares(scaled)
    if not math.isfinite(peak * math.sqrt(sum_squares)):
        raise EncodingError(f"cannot amplitude-encode a field whose norm overflows; its peak magnitude is {peak!r}")
    return scaled, peak, sum_squares


# ---------------------------------------------------------------------------
# pipeline blocks
# ---------------------------------------------------------------------------


def build_streaming_ops(layout: RegisterLayout, scheme: LatticeScheme, controls=(), control_values=()) -> list[GateOp]:
    """Link-conditioned streaming: shift each axis register by the link vector.

    One SHIFT per link and moving axis, controlled on the link register
    holding that link's binary code (and on any extra controls supplied).
    """
    ops: list[GateOp] = []
    d = layout.d
    for code, link in enumerate(scheme.links):
        code_vals = tuple((code >> i) & 1 for i in range(len(d)))
        base_c = d + tuple(controls)
        base_v = code_vals + tuple(control_values)
        for axis, comp in enumerate(link):
            if comp == 0:
                continue
            ops.append(GateOp("SHIFT", layout.axis_registers[axis], base_c, base_v, (comp,)))
    return ops


def build_collision_ops(layout: RegisterLayout, k_flat, value_qubits: tuple[int, ...], controls=(), control_values=()) -> list[GateOp]:
    """Block-encoded collision: scale basis state j of value_qubits by k_flat[j].

    One BLOCK on the value qubits and the ancilla: selecting ancilla 0
    afterwards leaves exactly the diagonal of coefficients. It lowers to
    Hadamards on the ancilla around a joint diagonal of phases
    +/- arccos(k). Coefficients must lie in [-1, 1].
    """
    k_flat = np.asarray(k_flat, dtype=float)
    if k_flat.ndim != 1:  # a flat array is passed on as it is, so a read-only one it owns is not copied
        k_flat = k_flat.ravel()
    if k_flat.size != 1 << len(value_qubits):
        raise ConfigurationError(
            f"got {k_flat.size} coefficients for {len(value_qubits)} qubits"
        )
    (anc,) = layout.a
    return [GateOp("BLOCK", tuple(value_qubits) + (anc,), tuple(controls), tuple(control_values), k_flat)]


def build_macro_ops(layout: RegisterLayout) -> list[GateOp]:
    """Link-register Hadamards; selecting d = 0 afterwards sums the links."""
    return [GateOp("H", (q,)) for q in layout.d]


def build_boundary_ops(layout: RegisterLayout, wall_mask) -> list[GateOp]:
    """Block-encoded wall projector: zero every site where wall_mask is true.

    One BLOCK on the sites and the wall flag, like the collision block, with
    coefficient 0 on wall sites and 1 on interior sites. Lowered, the two
    flag branches carry phases +/- pi/2 on wall sites (averaging to zero)
    and 0 on interior sites (averaging to one).
    """
    if not layout.n_b:
        raise ConfigurationError("layout has no wall flag qubit")
    mask = np.asarray(wall_mask, dtype=bool).ravel()
    if mask.size != layout.n_sites:
        raise ConfigurationError(f"wall mask covers {mask.size} sites, expected {layout.n_sites}")
    k = np.where(mask, 0.0, 1.0)
    k.flags.writeable = False  # the gate keeps it without a copy
    return [GateOp("BLOCK", layout.site_qubits + layout.b, params=k)]


def cavity_wall_mask(extent: int) -> np.ndarray:
    mask = np.zeros((extent, extent), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask.ravel()


# ---------------------------------------------------------------------------
# whole-pipeline circuits
# ---------------------------------------------------------------------------


def encoding_vector(layout: RegisterLayout, scheme: LatticeScheme, field, source=None) -> np.ndarray:
    """Unnormalized amplitude layout for the encode stage, as a read-only array.

    The field is replicated across the link codes actually used by the scheme
    (codes past n_links stay zero). With a source field present the source
    flag splits the space: s = 0 carries the field, s = 1 carries the
    source, both replicated the same way. Being read-only, it becomes a
    PREP's parameter without a copy. ``field`` and ``source`` each hold one
    real value per site, else :class:`ConfigurationError` naming it, and so
    is a ``scheme`` that is not a :class:`~qlbm.lattice.LatticeScheme`.
    """
    require_scheme(scheme)
    n_sites = layout.n_sites
    field = _site_values(field, "field", n_sites)
    if source is not None:
        if not layout.n_s:
            raise ConfigurationError("layout has no source flag but a source was given")
        source = _site_values(source, "source", n_sites)
    v = np.zeros(n_sites << (layout.n_d + layout.n_s))
    used = v.reshape(1 << layout.n_s, 1 << layout.n_d, n_sites)[:, : scheme.n_links]  # one (n_links, n_sites) view per sector
    used[0] = field
    if source is not None:
        used[1] = source
    v.flags.writeable = False
    return v


def _site_values(values, name: str, n_sites: int) -> np.ndarray:
    """``values`` as a flat float array of one real value per site, else :class:`ConfigurationError` naming it."""
    flat = _real_array(values, name).ravel()
    if flat.size != n_sites:
        raise ConfigurationError(f"{name} has {flat.size} sites, layout expects {n_sites}")
    return flat


def _collision_k_uniform(scheme: LatticeScheme, velocity, n_codes: int) -> np.ndarray:
    k = collision_coefficients(scheme, velocity, ()).ravel()
    out = np.ones(n_codes)
    out[: scheme.n_links] = k
    return out


def build_advection_collision_ops(layout: RegisterLayout, scheme: LatticeScheme, velocity) -> list[GateOp]:
    """Collision of an advected-scalar step at one ``velocity`` for every site.

    The only section of a transport step besides the encode that depends on
    its inputs: link code j is scaled by its equilibrium coefficient k_j,
    unused codes by 1.
    """
    return build_collision_ops(layout, _collision_k_uniform(scheme, velocity, 1 << layout.n_d), layout.d)


def build_vorticity_collision_ops(layout: RegisterLayout, scheme: LatticeScheme, velocity_fields) -> list[GateOp]:
    """Site-wise collision of the vorticity update, from the velocity at each site.

    The only section of a cavity step besides the encode that depends on the
    fields. On a layout with a source flag (the combined circuit) it runs
    controlled on s = 1, the vorticity sector. ``velocity_fields`` holds one
    real component field per axis, of the sites' ``(y, x)`` shape, else
    :class:`ConfigurationError`.
    """
    velocity = _real_array(velocity_fields, "velocity_fields")
    shape = tuple(1 << len(r) for r in reversed(layout.axis_registers))  # the sites' (y, x) axes
    if velocity.shape != (scheme.dimension, *shape) or scheme.n_links > 1 << layout.n_d:
        raise ConfigurationError(
            f"velocity_fields shape {velocity.shape} does not fit {scheme.name} on {layout.n_sites} sites"
            f" and {layout.n_d} link qubits; expected {(scheme.dimension, *shape)}"
        )
    used = scheme.n_links * layout.n_sites
    k_flat = np.empty(layout.n_sites << layout.n_d)
    k_flat[used:] = 1.0  # unused link codes keep their amplitudes
    # the used codes' coefficients, written straight into their head of k_flat
    _coefficients_into(scheme, velocity, shape, k_flat[:used].reshape((scheme.n_links, *shape)))
    k_flat.flags.writeable = False  # the BLOCK keeps it without a copy
    targets = layout.site_qubits + layout.d + layout.a
    return [_layout_gate("BLOCK", targets, layout.s, (1,) * layout.n_s, k_flat)]


def _encode(layout: RegisterLayout, vector) -> list[GateOp]:
    return [_layout_gate("PREP", layout.encoded_qubits, (), (), vector)]


def build_advection_diffusion_circuit(scheme: LatticeScheme, extent: int, field, velocity) -> CircuitIR:
    """One advected-scalar step: encode, collide, stream, merge links."""
    layout = RegisterLayout.for_scheme(scheme, extent)
    circ = CircuitIR(layout)
    circ.add_section("encode", _encode(layout, encoding_vector(layout, scheme, field)))
    circ.add_section("collision", build_advection_collision_ops(layout, scheme, velocity))
    circ.add_section("streaming", build_streaming_ops(layout, scheme))
    circ.add_section("macro", build_macro_ops(layout))
    return circ


def build_vorticity_circuit(scheme: LatticeScheme, extent: int, omega, velocity_fields, *, boundary: bool = True) -> CircuitIR:
    """One vorticity transport step with site-dependent collision coefficients."""
    layout = RegisterLayout.for_scheme(scheme, extent, boundary=boundary)
    circ = CircuitIR(layout)
    circ.add_section("encode", _encode(layout, encoding_vector(layout, scheme, omega)))
    circ.add_section("collision", build_vorticity_collision_ops(layout, scheme, velocity_fields))
    circ.add_section("streaming", build_streaming_ops(layout, scheme))
    circ.add_section("macro", build_macro_ops(layout))
    if boundary:
        circ.add_section("boundary", build_boundary_ops(layout, cavity_wall_mask(extent)))
    return circ


def build_stream_function_circuit(scheme: LatticeScheme, extent: int, psi, scaled_source, *, boundary: bool = True) -> CircuitIR:
    """One relaxation sweep of the stream-function field with a folded source.

    The source flag is prepared alongside the field (s = 0 holds psi, s = 1
    holds the pre-scaled source) and a single Hadamard on s folds the two
    into their half-sum before the weights-only collision and streaming.
    """
    layout = RegisterLayout.for_scheme(scheme, extent, source=True, boundary=boundary)
    circ = CircuitIR(layout)
    circ.add_section("encode", _encode(layout, encoding_vector(layout, scheme, psi, source=scaled_source)))
    circ.add_section("source-fold", [GateOp("H", (layout.s[0],))])
    k = _collision_k_uniform(scheme, np.zeros(scheme.dimension), 1 << layout.n_d)
    circ.add_section("collision", build_collision_ops(layout, k, layout.d))
    circ.add_section("streaming", build_streaming_ops(layout, scheme))
    circ.add_section("macro", build_macro_ops(layout))
    if boundary:
        circ.add_section("boundary", build_boundary_ops(layout, cavity_wall_mask(extent)))
    return circ


def build_single_cavity_circuit(scheme: LatticeScheme, extent: int, psi, scaled_source, omega, velocity_fields) -> CircuitIR:
    """Combined cavity step: both field updates in one gate list.

    The stream-function stages run controlled on source flag 0 and the
    vorticity stages controlled on source flag 1, sharing one link-merge and
    one wall-projector section. The encode section holds the joint
    stream-function input; a vorticity pass puts its own PREP of the s = 1
    sector in front of its own spans.
    """
    layout = RegisterLayout.for_scheme(scheme, extent, source=True, boundary=True)
    circ = CircuitIR(layout)
    s = layout.s[0]
    circ.add_section("encode", _encode(layout, encoding_vector(layout, scheme, psi, source=scaled_source)))
    circ.add_section("source-fold", [GateOp("H", (s,))])
    k_sf = _collision_k_uniform(scheme, np.zeros(scheme.dimension), 1 << layout.n_d)
    circ.add_section(
        "collision-stream-function",
        build_collision_ops(layout, k_sf, layout.d, controls=(s,), control_values=(0,)),
    )
    circ.add_section(
        "streaming-stream-function",
        build_streaming_ops(layout, scheme, controls=(s,), control_values=(0,)),
    )
    circ.add_section("collision-vorticity", build_vorticity_collision_ops(layout, scheme, velocity_fields))
    circ.add_section(
        "streaming-vorticity",
        build_streaming_ops(layout, scheme, controls=(s,), control_values=(1,)),
    )
    circ.add_section("macro", build_macro_ops(layout))
    circ.add_section("boundary", build_boundary_ops(layout, cavity_wall_mask(extent)))
    return circ

