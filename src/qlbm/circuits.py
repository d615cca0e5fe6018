"""Gate-level circuit construction for the lattice Boltzmann pipeline.

The circuit intermediate representation is a flat list of :class:`GateOp`
records over a :class:`RegisterLayout`, grouped into named sections
(encode / collision / streaming / macro / boundary). Builders emit a
high-level vocabulary (``PREP``, ``BLOCK``, ``SHIFT`` and Hadamards);
:func:`lower_circuit` rewrites everything into single-qubit gates plus CNOT
with exact unitary equality, which is what the resource estimator counts.
Every whole-pipeline builder's encode section is one ``PREP`` gate that
holds the amplitude layout to load. The simulator applies it by loading;
lowering expands it into the Möttönen rotation network
(arXiv:quant-ph/0407010). The collision and the wall projector are each one
``BLOCK`` gate that holds its coefficients k. Where its flag is selected
right after it, the simulator multiplies the amplitudes by k; lowering
expands it into Hadamards on the flag around a diagonal of +/- arccos(k).
Streaming is one ``SHIFT`` per link and moving axis: a controlled cyclic
+/-1 of an axis register. The simulator rotates the controlled view once;
lowering expands it into the ripple cascade of multi-controlled X gates.

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

Qubit order is little-endian: basis index bit k is qubit k. The site
register for axis 0 occupies the lowest qubits, then axis 1, then the link
register d, then the optional source flag s and wall flag b, with the
collision ancilla a on top.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Iterator

import numpy as np

from .errors import CoefficientRangeError, ConfigurationError, EncodingError
from .lattice import LatticeScheme, _coefficients_into, _real_array, collision_coefficients, require_power_of_two

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
    "lower_op",
    "SlotProgram",
    "slot_programs",
    "lower_circuit",
    "iter_lowered",
    "apply_ops_numpy",
    "circuit_unitary",
    "unit_amplitudes",
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
    are all |0>, normalized by :func:`unit_amplitudes`; its parameter is that
    vector, one entry per basis state of the targets (targets[0] least
    significant). BLOCK is a block encoding: its targets are one or more
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
    :class:`ConfigurationError`.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    params: tuple[float, ...] | np.ndarray = ()
    # the structure a plan compares, computed once: kind, targets, controls, control values
    _key: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, targets, controls = self.kind, self.targets, self.controls
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
        if len(controls) != len(self.control_values):
            raise ConfigurationError("controls and control_values must pair up")
        if not _BITS.issuperset(self.control_values):
            raise ConfigurationError("control values must be 0 or 1")
        for q in (*targets, *controls):
            if type(q) is not int and (isinstance(q, bool) or not isinstance(q, numbers.Integral)):
                raise ConfigurationError(f"qubit index {q!r} in {kind} is not an integer")
        seen = {*targets, *controls}
        if len(seen) != len(targets) + len(controls):
            raise ConfigurationError(f"overlapping target/control qubits in {kind}")
        if seen and min(seen) < 0:
            raise ConfigurationError(f"negative qubit index in {kind}")
        if kind == "SHIFT" and targets != tuple(range(targets[0], targets[0] + len(targets))):
            raise ConfigurationError(f"SHIFT register {targets} is not consecutive ascending qubits")
        object.__setattr__(self, "_key", (kind, targets, controls, self.control_values))

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
        ops = list(ops)
        top = max((max(op.targets + op.controls, default=-1) for op in ops), default=-1)
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


def unit_amplitudes(values) -> tuple[np.ndarray, float]:
    """``values`` scaled to unit norm, as a new float64 array, and the norm it was scaled from.

    This is :func:`_peak_scaled` divided by its norm, the rule of every
    lowered load: a PREP lowers to the rotations of this unit vector. The
    replay keeps the peak-scaled vector and divides by the norm once, at
    the end of the circuit.
    """
    unit, peak, sum_squares = _peak_scaled(values)
    unit_norm = math.sqrt(sum_squares)
    unit /= unit_norm
    return unit, peak * unit_norm


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
    real value per site, else :class:`ConfigurationError` naming it.
    """
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


# ---------------------------------------------------------------------------
# lowering to single-qubit + CNOT
# ---------------------------------------------------------------------------
#
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

_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X_MAT.flags.writeable = _H_MAT.flags.writeable = False


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
    two agree.
    """
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


def iter_lowered(circ: CircuitIR) -> Iterator[tuple[str, GateOp]]:
    """(section, basis op) pairs of the lowered circuit, in gate order."""
    for section, start, stop in circ.sections:
        for op in circ.gates[start:stop]:
            for low in lower_op(op):
                yield section, low


def lower_circuit(circ: CircuitIR) -> CircuitIR:
    """Materialized lowering, one section per run of same-named sections that lowers to any gate."""
    out = CircuitIR(circ.layout)
    for section, pairs in itertools.groupby(iter_lowered(circ), key=lambda pair: pair[0]):
        out.add_section(section, [op for _, op in pairs])
    return out


# ---------------------------------------------------------------------------
# dense reference application (independent of the fast kernels)
# ---------------------------------------------------------------------------


def _control_mask_val(op: GateOp) -> tuple[int, int]:
    mask = 0
    val = 0
    for q, v in zip(op.controls, op.control_values):
        mask |= 1 << q
        val |= v << q
    return mask, val


def apply_ops_numpy(array: np.ndarray, ops: Iterable[GateOp], n_qubits: int) -> np.ndarray:
    """Apply gates to an amplitude array (first axis = 2^n basis index).

    Vectorized fancy-indexing reference path, deliberately separate from the
    compiled kernels so the two implementations can check each other. A PREP
    runs as its rotation network (:func:`lower_op`), a BLOCK by its
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
