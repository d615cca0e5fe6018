"""Gate-level circuit construction for the lattice Boltzmann pipeline.

The circuit intermediate representation is a flat list of :class:`GateOp`
records over a :class:`RegisterLayout`, grouped into named sections
(encode / collision / streaming / macro / boundary). Builders emit a
high-level vocabulary (state preparation, block encodings, multi-controlled
X); :func:`lower_circuit` rewrites everything into single-qubit gates plus
CNOT with exact unitary equality, which is what the resource estimator
counts. Every whole-pipeline builder's encode section is one ``PREP`` gate
that holds the amplitude layout to load. The simulator applies it by
loading; lowering expands it into the Möttönen rotation network
(arXiv:quant-ph/0407010). The collision and the wall projector are each one
``BLOCK`` gate that holds its coefficients k. Where its flag is selected
right after it, the simulator multiplies the amplitudes by k; lowering
expands it into Hadamards on the flag around a diagonal of +/- arccos(k).

Each gate's lowering is described once, by :func:`slot_programs`: cached
slot programs of ``(target slot, control slot)`` rows, one per gate shape.
A single-qubit row holds its ``(kind, params)`` or is left open; the gate
being lowered fills its open rows with its own angles. There is

- one program per multi-controlled core, which the square-root recursion
  writes row by row, run between two runs of the program of X gates on the
  0-polarity controls;
- one per ``PREP`` qubit count, because the rotation network's structure
  depends only on that count;
- one gray-code ladder per RZ stage of a diagonal. The level walk of
  :func:`_diag_stages` tells which stages are present;
- one H row per ``BLOCK`` flag slot, run before and after the programs of
  the BLOCK's diagonal.

:func:`lower_op` replays the programs onto a gate's qubits and fills the
open rows; the estimator replays the same programs and computes no angle.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CoefficientRangeError, ConfigurationError, EncodingError
from .lattice import LatticeScheme, collision_coefficients, require_power_of_two

__all__ = [
    "GateOp",
    "RegisterLayout",
    "CircuitIR",
    "gate_matrix_1q",
    "build_shift_ops",
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
# basis state of its targets but the last
_GATE_SHAPES = {
    "H": (1, 0), "X": (1, 0), "MCX": (1, 0),
    "RY": (1, 1), "RZ": (1, 1), "PHASE": (1, 1),
}
_ARRAY_KINDS = frozenset({"PREP", "BLOCK"})  # params held as a read-only float64 array
GATE_KINDS = frozenset(_GATE_SHAPES) | _ARRAY_KINDS
_BITS = frozenset((0, 1))

# tolerance for collision coefficients that poke past |k| = 1 by float slop
_COEFF_SLACK = 1e-9


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubits, control qubits with polarities, params.

    Controls apply to every kind but PREP. ``control_values`` holds the
    required bit (0 or 1) per control qubit. Parameters are angles except
    for PREP and BLOCK. PREP loads a real vector onto targets that are all
    |0>, normalized by :func:`unit_amplitudes`; its parameter is that
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
    as it is; anything else, a tuple included, is copied.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    params: tuple[float, ...] | np.ndarray = ()

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
            shape = (len(targets), 1 << (len(targets) - (kind == "BLOCK")))
        if kind in _ARRAY_KINDS:
            if kind == "PREP" and controls:
                raise ConfigurationError("PREP takes no controls")
            vector = self.params
            if not (isinstance(vector, np.ndarray) and vector.dtype == np.float64
                    and vector.base is None and not vector.flags.writeable):
                vector = np.array(vector, dtype=np.float64)
                vector.flags.writeable = False
            if vector.ndim != 1:
                raise ConfigurationError(f"{kind} takes a flat vector, got shape {vector.shape}")
            object.__setattr__(self, "params", vector)
        if len(targets) != shape[0] or len(self.params) != shape[1]:
            raise ConfigurationError(
                f"{kind} takes {shape[0]} target(s) and {shape[1]} parameter(s), "
                f"got {len(targets)} and {len(self.params)}"
            )
        # a PREP's vector is checked where it is loaded, by unit_amplitudes, as an EncodingError
        if not (kind in _ARRAY_KINDS or all(map(math.isfinite, self.params))):
            raise ConfigurationError(f"{kind} parameters must be finite, got a NaN or infinity")
        if kind == "BLOCK":
            _check_coefficients(self)  # its range check rejects a NaN or infinity too
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

    def _key(self) -> tuple:
        return (self.kind, self.targets, self.controls, self.control_values)

    def __eq__(self, other):
        if not isinstance(other, GateOp):
            return NotImplemented
        if self._key() != other._key():
            return False
        if self.kind in _ARRAY_KINDS:
            return np.array_equal(self.params, other.params)
        return self.params == other.params

    def __hash__(self):
        # an array has no hash, so PREP and BLOCK leave it out; equal gates still hash equal
        return hash(self._key() + (None if self.kind in _ARRAY_KINDS else self.params,))

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


def _check_coefficients(op: GateOp) -> None:
    """Hold a BLOCK's coefficients to [-1, 1]: raise past the slack, clip within it."""
    # written so that NaN, which compares false both ways, is rejected too
    worst = float(np.abs(op.params).max())
    if not worst <= 1.0 + _COEFF_SLACK:
        raise CoefficientRangeError(f"collision coefficients must lie in [-1, 1]; max |k| = {worst:.6g}")
    if worst > 1.0:
        k = np.clip(op.params, -1.0, 1.0)
        k.flags.writeable = False
        object.__setattr__(op, "params", k)


def gate_matrix_1q(op: GateOp) -> np.ndarray:
    """2x2 matrix of a single-qubit gate kind."""
    k = op.kind
    if k == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if k == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
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
        m = extent.bit_length() - 1
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


def unit_amplitudes(values) -> tuple[np.ndarray, float]:
    """``values`` scaled to unit norm, and the norm it was scaled from.

    The vector is divided by its peak magnitude before the norm is taken,
    so squaring cannot under- or overflow. This is the one normalization
    rule of every load: PREP applied and PREP lowered.
    """
    v = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise EncodingError("cannot amplitude-encode a field with non-finite values")
    peak = float(np.abs(v).max()) if v.size else 0.0
    if peak == 0.0:
        raise EncodingError("cannot amplitude-encode an all-zero field")
    unit = v / peak
    unit_norm = float(np.linalg.norm(unit))
    unit /= unit_norm
    return unit, peak * unit_norm


# ---------------------------------------------------------------------------
# pipeline blocks
# ---------------------------------------------------------------------------


def build_shift_ops(register: tuple[int, ...], step: int, controls=(), control_values=()) -> list[GateOp]:
    """Cyclic +1 (step=+1) or -1 (step=-1) shifter on a binary site register.

    The incrementer is the ripple cascade: flip each qubit controlled on all
    lower ones, widest first, ending with a bare flip of the lowest qubit.
    The decrementer is the same ladder with inverted control polarity.
    """
    if step not in (+1, -1):
        raise ConfigurationError("shift step must be +1 or -1")
    pol = 1 if step == +1 else 0
    controls = tuple(controls)
    control_values = tuple(control_values)
    ops = []
    m = len(register)
    for j in range(m - 1, 0, -1):
        ops.append(
            GateOp(
                "MCX",
                (register[j],),
                tuple(register[:j]) + controls,
                (pol,) * j + control_values,
            )
        )
    ops.append(GateOp("MCX", (register[0],), controls, control_values))
    return ops


def build_streaming_ops(layout: RegisterLayout, scheme: LatticeScheme, controls=(), control_values=()) -> list[GateOp]:
    """Link-conditioned streaming: shift each axis register by the link vector.

    Every shifter gate is additionally controlled on the link register holding
    that link's binary code (and on any extra controls supplied).
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
            ops.extend(build_shift_ops(layout.axis_registers[axis], comp, base_c, base_v))
    return ops


def build_collision_ops(layout: RegisterLayout, k_flat, value_qubits: tuple[int, ...], controls=(), control_values=()) -> list[GateOp]:
    """Block-encoded collision: scale basis state j of value_qubits by k_flat[j].

    One BLOCK on the value qubits and the ancilla: selecting ancilla 0
    afterwards leaves exactly the diagonal of coefficients. It lowers to
    Hadamards on the ancilla around a joint diagonal of phases
    +/- arccos(k). Coefficients must lie in [-1, 1].
    """
    k_flat = np.asarray(k_flat, dtype=float).ravel()
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
    PREP's parameter without a copy.
    """
    field = np.asarray(field, dtype=float).ravel()
    if field.size != layout.n_sites:
        raise ConfigurationError(f"field has {field.size} sites, layout expects {layout.n_sites}")
    n_sites = layout.n_sites
    codes = 1 << layout.n_d
    sectors = 1 << layout.n_s
    if source is not None and not layout.n_s:
        raise ConfigurationError("layout has no source flag but a source was given")
    v = np.zeros(n_sites * codes * sectors)
    for code in range(scheme.n_links):
        v[code * n_sites : (code + 1) * n_sites] = field
    if source is not None:
        source = np.asarray(source, dtype=float).ravel()
        off = n_sites * codes
        for code in range(scheme.n_links):
            v[off + code * n_sites : off + (code + 1) * n_sites] = source
    v.flags.writeable = False
    return v


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
    controlled on s = 1, the vorticity sector.
    """
    velocity_fields = np.asarray(velocity_fields, dtype=float)
    k = collision_coefficients(scheme, velocity_fields, velocity_fields[0].shape)
    n_sites = layout.n_sites
    k_flat = np.ones(n_sites << layout.n_d)
    for code in range(scheme.n_links):
        k_flat[code * n_sites : (code + 1) * n_sites] = k[code].ravel()
    return build_collision_ops(layout, k_flat, layout.site_qubits + layout.d, layout.s, (1,) * layout.n_s)


def _encode(layout: RegisterLayout, vector) -> list[GateOp]:
    return [GateOp("PREP", layout.encoded_qubits, params=vector)]


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
# A gate's lowering is written once, as the cached slot programs of
# :func:`slot_programs`. A program is a list of rows ``(target slot, control
# slot)`` on relative qubit slots. A row with a control is a CNOT on control
# value 1; every other row is a single-qubit gate, whose ``(kind, params)``
# the program holds, or leaves open as ``None`` when the kind and angle
# depend on the gate being lowered. :func:`lower_op` replays a gate's
# programs on its qubits and fills the open rows from :func:`_own_gates`;
# the resource counter replays the same programs and never computes an angle.
#
# There is one program per gate shape:
#
# - an MCX or controlled single-qubit gate: the all-ones-controls core of
#   (kind, number of controls, params), with the controls on slots 0..m-1
#   and the target on slot m. The recursion appends its rows to the core's
#   program as it goes, and its inner MCX is the smaller cached core, whose
#   slots are already the right ones. The X gates on 0-polarity controls are
#   a program of their own, run before the core and again after it;
# - a uniformly-controlled rotation: one gray-code ladder per control count
#   (:func:`_ladder_program`), every rotation open. A PREP chains one ladder
#   per target;
# - an uncontrolled single-qubit gate: one open row;
# - a BLOCK: between two H rows on the flag, the ladder of each RZ stage
#   that the level walk of its diagonal finds present.


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


def _controlled_1q(u: np.ndarray, control: int, target: int, pairs: list, gates: list) -> None:
    """Append a singly-controlled 2x2 unitary with two CNOTs (ABC decomposition) to a program's rows.

    A rotation whose angle is zero is left out.
    """
    alpha, beta, gamma, delta = _zyz_angles(u)
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


def _diagonal(op: GateOp) -> tuple[tuple[int, ...], np.ndarray]:
    """The qubits and phases of a BLOCK's diagonal, its controls folded into the diagonal.

    A BLOCK's lowering runs the diagonal of phases +arccos(k) on flag 0 and
    -arccos(k) on flag 1 between Hadamards on the flag, which need no
    control, as they cancel where the diagonal is idle.
    """
    theta = np.arccos(op.params)
    phases = np.concatenate([theta, -theta])
    if not op.controls:
        return op.targets, phases
    nc = len(op.controls)
    match = sum(v << i for i, v in enumerate(op.control_values))
    merged = np.zeros(phases.size << nc)
    merged[match * phases.size : (match + 1) * phases.size] = phases
    return op.targets + op.controls, merged


def _diag_stages(phases: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Level walk of a BLOCK's diagonal: its present RZ stages.

    Each level splits the phases into halves by their top index bit k. The
    mean of the halves passes down to the next level; their difference is
    the angle vector of the multiplexed RZ stage on slot k, which the lower
    slots control. A stage is present where the difference is not all zero.
    Stages come as ``(k, difference)`` pairs in lowering order, smallest k
    first. The walk stops at slot 0, a value qubit below the flag, whose two
    phases the flag's level has averaged to exactly 0 (each +arccos(k) with
    its -arccos(k)): the lowering has no global phase and no PHASE.
    """
    stages = []
    while phases.size > 2:
        half = phases.size >> 1
        low, high = phases[:half], phases[half:]
        diff = high - low
        if np.any(diff):
            stages.append((half.bit_length() - 1, diff))
        phases = (low + high) / 2.0
    stages.reverse()
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


class SlotProgram(NamedTuple):
    """One cached piece of a lowering: ``(target slot, control slot)`` per row.

    The control slot is -1 for a single-qubit row; any other row is a CNOT.
    ``gates`` holds the ``(kind, params)`` of each single-qubit row in order,
    or ``None`` for a row whose kind and angle come from the gate being
    lowered. ``cnot`` and ``single_qubit`` count the rows.
    """

    rows: tuple[tuple[int, int], ...]
    cnot: int
    single_qubit: int
    gates: tuple[tuple[str, tuple] | None, ...]


def _slot_program(pairs, gates) -> SlotProgram:
    """The program of these slot pairs and single-qubit gates, equal pairs sharing one tuple."""
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    pairs = tuple(shared.setdefault(pair, pair) for pair in pairs)
    gates = tuple(gates)
    return SlotProgram(pairs, len(pairs) - len(gates), len(gates), gates)


_ONE_ROW = SlotProgram(((0, -1),), 0, 1, (None,))


def _multi_controlled(u: np.ndarray, m: int, target: int, pairs: list, gates: list) -> None:
    """Append C^m(U) on all-ones controls 0..m-1 (m >= 1) to a program's rows: the ancilla-free square-root recursion."""
    if m == 1:
        _controlled_1q(u, 0, target, pairs, gates)
        return
    v = _sqrt_2x2(u)
    mcx = _core_program("MCX", m - 1, ())  # C^{m-1}(X) from slots 0..m-2 onto slot m-1
    for w in (v, v.conj().T):
        _controlled_1q(w, m - 1, target, pairs, gates)
        pairs += mcx.rows
        gates += mcx.gates
    _multi_controlled(v, m - 1, target, pairs, gates)


@functools.lru_cache(maxsize=128)
def _core_program(kind: str, m: int, params: tuple) -> SlotProgram:
    """The all-ones-controls core of one gate shape: controls on slots 0..m-1, the target on slot m.

    Params that compare equal share one program.
    """
    if kind == "MCX" and m == 2:
        rows = _TOFFOLI_ROWS
        return _slot_program(((t, c) for _, t, c, _ in rows), ((k, p) for k, _, c, p in rows if c < 0))
    pairs: list[tuple[int, int]] = []
    gates: list[tuple[str, tuple]] = []
    if kind == "MCX" and m == 0:
        pairs, gates = [(0, -1)], [("X", ())]
    elif kind == "MCX" and m == 1:
        pairs = [(1, 0)]
    elif kind == "RZ" and m == 1:
        # two-CNOT special case: half rotations cancel on the idle branch
        (theta,) = params
        pairs = [(1, -1), (1, 0), (1, -1), (1, 0)]
        gates = [("RZ", (theta / 2.0,)), ("RZ", (-theta / 2.0,))]
    else:
        u = _X_MAT if kind == "MCX" else gate_matrix_1q(GateOp(kind, (m,), params=params))
        _multi_controlled(u, m, m, pairs, gates)
    return _slot_program(pairs, gates)


@functools.lru_cache(maxsize=None)
def _ladder_program(k: int) -> SlotProgram:
    """Uniformly-controlled rotation on slot k, controlled by slots 0..k-1.

    The gray-code ladder: rung r rotates slot k, then flips it on the control
    whose bit changes between gray codes r and r + 1; the last rung wraps
    round on the top control. 2^k open rotations and 2^k CNOTs; with no
    control it is the bare rotation.
    """
    if k == 0:
        return _ONE_ROW
    last = (1 << k) - 1
    pairs = []
    for r in range(last + 1):
        flip = k - 1 if r == last else ((r + 1) & -(r + 1)).bit_length() - 1
        pairs += ((k, -1), (k, flip))
    return _slot_program(pairs, (None,) * (last + 1))


@functools.lru_cache(maxsize=None)
def _prep_program(m: int) -> SlotProgram:
    """The Möttönen rotation network of a PREP on slots 0..m-1.

    One ladder per slot j, top slot first: the RY on slot j controlled by
    the slots above it.
    """
    pairs: list[tuple[int, int]] = []
    for j in range(m - 1, -1, -1):
        slot = (*range(j + 1, m), j)
        pairs += ((slot[t], slot[c] if c >= 0 else -1) for t, c in _ladder_program(m - 1 - j).rows)
    return _slot_program(pairs, (None,) * ((1 << m) - 1))


@functools.lru_cache(maxsize=None)
def _hadamard_program(slot: int) -> SlotProgram:
    """The H on a BLOCK's flag, the last of its targets, that runs before and after its diagonal."""
    return _slot_program(((slot, -1),), [("H", ())])


@functools.lru_cache(maxsize=None)
def _flip_program(control_values: tuple[int, ...]) -> SlotProgram:
    """The X on each 0-polarity control's slot that wraps a controlled core."""
    flipped = [i for i, v in enumerate(control_values) if not v]
    return _slot_program(((i, -1) for i in flipped), [("X", ())] * len(flipped))


def slot_programs(op: GateOp) -> tuple[Sequence[SlotProgram], tuple[int, ...]]:
    """One gate's lowering, as the slot programs that describe it.

    Returns the slot programs whose rows, run in order, are the lowering,
    and the qubit each slot stands for. A multi-controlled core runs between
    two runs of the program of X gates on its 0-polarity controls. Every
    program is cached per gate shape, and a BLOCK's stages come from the
    level walk of its diagonal, so no angle is computed.
    """
    kind = op.kind
    if kind == "PREP":
        return (_prep_program(len(op.targets)),), op.targets
    if kind == "BLOCK":
        qubits, phases = _diagonal(op)
        flag = _hadamard_program(len(op.targets) - 1)
        return [flag, *(_ladder_program(k) for k, _ in _diag_stages(phases)), flag], qubits
    if not op.controls and kind != "MCX":
        return (_ONE_ROW,), op.targets
    flips = _flip_program(op.control_values)
    return (flips, _core_program(kind, len(op.controls), op.params), flips), op.controls + op.targets


def _own_gates(op: GateOp) -> list[tuple[str, tuple]]:
    """The ``(kind, params)`` of a gate's open rows, in the order :func:`slot_programs` runs them."""
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
        return [("RZ", (angle,)) for _, diff in _diag_stages(_diagonal(op)[1]) for angle in _ladder_angles(diff)]
    if not op.controls and kind != "MCX":
        return [(kind, op.params)]
    return []


def lower_op(op: GateOp) -> list[GateOp]:
    """Rewrite one gate into the single-qubit + CNOT basis, exactly.

    The gate's slot programs run on its qubits, their open rows filled from
    the gate's own angles. A PREP becomes the rotation network that prepares
    its unit vector from |0> on its targets; on a target register in |0> the
    two agree.
    """
    programs, qubits = slot_programs(op)
    own = iter(_own_gates(op))
    ops = []
    for program in programs:
        gates = iter(program.gates)
        for t, c in program.rows:
            if c >= 0:
                ops.append(GateOp("MCX", (qubits[t],), (qubits[c],), (1,)))
            else:
                kind, params = next(gates) or next(own)
                ops.append(GateOp(kind, (qubits[t],), params=params))
    return ops


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
    runs as its rotation network (:func:`lower_op`), a BLOCK as its
    Hadamards around its diagonal.
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
        if op.kind == "BLOCK":
            flag = [GateOp("H", op.targets[-1:])]  # around its diagonal
            arr = apply_ops_numpy(arr, flag, n_qubits)
            qubits, phases = _diagonal(op)
            sub = np.zeros_like(idx)
            for pos, q in enumerate(qubits):
                sub |= ((idx >> q) & 1) << pos
            arr *= np.exp(1j * phases[sub]).reshape((-1,) + (1,) * (arr.ndim - 1))
            arr = apply_ops_numpy(arr, flag, n_qubits)
            continue
        if op.kind == "MCX":
            t = op.targets[0]
            sel = ((idx & cmask) == cval) & (((idx >> t) & 1) == 0)
            lo = idx[sel]
            hi = lo | (1 << t)
            arr[lo], arr[hi] = arr[hi], arr[lo]  # fancy indexing copies
            continue
        u = gate_matrix_1q(op)
        t = op.targets[0]
        sel = ((idx & cmask) == cval) & (((idx >> t) & 1) == 0)
        lo = idx[sel]
        hi = lo | (1 << t)
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
