"""Gate-level circuit construction for the lattice Boltzmann pipeline.

The circuit intermediate representation is a flat list of :class:`GateOp`
records over a :class:`RegisterLayout`, grouped into named sections
(encode / collision / streaming / macro / boundary). Builders emit a
high-level vocabulary (joint diagonals, multi-controlled X, state
preparation rotations); :func:`lower_circuit` rewrites everything into
single-qubit gates plus CNOT with exact unitary equality, which is what the
resource estimator counts. The whole-pipeline builders take ``encode``: the
resource estimator counts the rotation-network encode section, while the
simulator loads the amplitudes directly and builds without it (the field
arguments are then unread and the other sections are unchanged).

Qubit order is little-endian: basis index bit k is qubit k. The site
register for axis 0 occupies the lowest qubits, then axis 1, then the link
register d, then the optional source flag s and wall flag b, with the
collision ancilla a on top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CoefficientRangeError, ConfigurationError
from .lattice import LatticeScheme, collision_coefficients

__all__ = [
    "GateOp",
    "RegisterLayout",
    "CircuitIR",
    "gate_matrix_1q",
    "build_state_prep",
    "build_shift_ops",
    "build_streaming_ops",
    "build_collision_ops",
    "build_macro_ops",
    "build_boundary_ops",
    "encoding_vector",
    "build_advection_diffusion_circuit",
    "build_vorticity_circuit",
    "build_stream_function_circuit",
    "build_single_cavity_circuit",
    "lower_op",
    "lowered_rows",
    "lower_circuit",
    "iter_lowered",
    "apply_ops_numpy",
    "circuit_unitary",
    "circuit_to_text",
    "circuit_from_text",
]

# (target count, parameter count) per kind; DIAG takes any number of targets
# and one phase per basis state of them
_GATE_SHAPES = {
    "H": (1, 0), "X": (1, 0), "MCX": (1, 0),
    "RY": (1, 1), "RZ": (1, 1), "PHASE": (1, 1), "U1Q": (1, 8),
    "GPHASE": (0, 1),
}
GATE_KINDS = frozenset(_GATE_SHAPES) | {"DIAG"}
_BITS = frozenset((0, 1))

# tolerance for collision coefficients that poke past |k| = 1 by float slop
_COEFF_SLACK = 1e-9


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubits, control qubits with polarities, params.

    Controls apply to every kind. ``control_values`` holds the required bit
    (0 or 1) per control qubit. Parameters are angles except for U1Q, which
    carries its 2x2 matrix as (re, im) pairs in row-major order. DIAG carries
    one phase per basis state of its targets (targets[0] least significant).
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self):
        kind, targets, controls = self.kind, self.targets, self.controls
        shape = _GATE_SHAPES.get(kind)
        if shape is None:
            if kind != "DIAG":
                raise ConfigurationError(f"unknown gate kind {kind!r}")
            if not targets:
                raise ConfigurationError("DIAG needs at least one target")
            shape = (len(targets), 1 << len(targets))
        if len(targets) != shape[0] or len(self.params) != shape[1]:
            raise ConfigurationError(
                f"{kind} takes {shape[0]} target(s) and {shape[1]} parameter(s), "
                f"got {len(targets)} and {len(self.params)}"
            )
        if len(controls) != len(self.control_values):
            raise ConfigurationError("controls and control_values must pair up")
        if not _BITS.issuperset(self.control_values):
            raise ConfigurationError("control values must be 0 or 1")
        seen = {*targets, *controls}
        if len(seen) != len(targets) + len(controls):
            raise ConfigurationError(f"overlapping target/control qubits in {kind}")
        if seen and min(seen) < 0:
            raise ConfigurationError(f"negative qubit index in {kind}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


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
    if k == "U1Q":
        p = op.params
        return np.array(
            [[p[0] + 1j * p[1], p[2] + 1j * p[3]], [p[4] + 1j * p[5], p[6] + 1j * p[7]]]
        )
    raise ConfigurationError(f"{k} has no 2x2 matrix")


def _u1q(target: int, mat: np.ndarray, controls=(), control_values=()) -> GateOp:
    p = []
    for r in range(2):
        for c in range(2):
            p += [float(mat[r, c].real), float(mat[r, c].imag)]
    return GateOp("U1Q", (target,), tuple(controls), tuple(control_values), tuple(p))


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
        if extent < 2 or extent & (extent - 1):
            raise ConfigurationError(f"extent {extent} is not a power of two >= 2")
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


# ---------------------------------------------------------------------------
# circuit container
# ---------------------------------------------------------------------------


class CircuitIR:
    """Ordered gate list over a layout, with named (possibly repeated) sections."""

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

    def section_names(self) -> list[str]:
        return [name for name, _, _ in self.sections]

    def section_runs(self) -> Iterator[tuple[str, int, int]]:
        """(name, start, stop) runs covering every gate once, in gate order.

        Gates outside every section run under ``""``. Sections are expected
        in order and disjoint, as :meth:`add_section` makes them; where a
        listed span reaches back over gates already covered, those gates keep
        their earlier name.
        """
        pos = 0
        for name, start, stop in self.sections:
            if start > pos:
                yield "", pos, start
                pos = start
            if stop > pos:
                yield name, pos, stop
                pos = stop
        if pos < len(self.gates):
            yield "", pos, len(self.gates)

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
# state preparation (multiplexed RY tree over real, signed vectors)
# ---------------------------------------------------------------------------


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


def _gray_ladder(k: int) -> Iterator[tuple[int, int]]:
    """(angle index, control position) per rung of the k-control gray-code ladder.

    Rung i rotates by the transformed angle of gray code i, then flips the
    target on the control whose bit changes between gray codes i and i + 1
    (the last rung wraps round on the top control).
    """
    last = (1 << k) - 1
    for i in range(last + 1):
        flip = k - 1 if i == last else ((i + 1) & -(i + 1)).bit_length() - 1
        yield i ^ (i >> 1), flip


def _multiplexed_rotation(kind: str, target: int, controls: tuple[int, ...], angles) -> list[GateOp]:
    """Uniformly-controlled RY/RZ: rotation angle angles[b] on control branch b.

    Gray-code ladder: alternating single-qubit rotations on the target and
    CNOTs whose controls walk the gray sequence, 2^k rotations + 2^k CNOTs.
    Branch b's bit i is the value of controls[i].
    """
    angles = np.asarray(angles, dtype=float)
    k = len(controls)
    if angles.shape != (1 << k,):
        raise ConfigurationError(f"need {1 << k} angles for {k} controls, got {angles.shape}")
    if k == 0:
        return [GateOp(kind, (target,), params=(float(angles[0]),))]
    transformed = (_fwht(angles) / (1 << k)).tolist()
    ops: list[GateOp] = []
    for gray, flip in _gray_ladder(k):
        ops.append(GateOp(kind, (target,), params=(transformed[gray],)))
        ops.append(GateOp("MCX", (target,), (controls[flip],), (1,)))
    return ops


def build_state_prep(vector, qubits: tuple[int, ...]) -> list[GateOp]:
    """Rotation network preparing a real unit vector from the all-zeros state.

    One multiplexed-RY stage per qubit, root (most significant) first. Signs
    enter only at the leaf stage, whose angles use the signed pair values;
    every higher stage rotates by branch norms.
    """
    v = np.asarray(vector, dtype=float)
    m = len(qubits)
    if v.shape != (1 << m,):
        raise ConfigurationError(f"vector length {v.shape} does not fit {m} qubits")
    if not np.isclose(np.linalg.norm(v), 1.0, atol=1e-12):
        raise ConfigurationError("state prep expects a normalized vector")
    ops: list[GateOp] = []
    for j in range(m - 1, -1, -1):
        blocks = 1 << (m - 1 - j)
        half = 1 << j
        halves = v.reshape(blocks, 2, half)
        if j == 0:
            lo, hi = halves[:, 0, 0], halves[:, 1, 0]  # signed leaf pairs
        else:
            lo = np.linalg.norm(halves[:, 0, :], axis=1)
            hi = np.linalg.norm(halves[:, 1, :], axis=1)
        angles = 2.0 * np.arctan2(hi, lo)
        ops.extend(_multiplexed_rotation("RY", qubits[j], tuple(qubits[j + 1 :]), angles))
    return ops


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


def _coefficient_angles(k_flat: np.ndarray) -> np.ndarray:
    bad = np.abs(k_flat) > 1.0 + _COEFF_SLACK
    if np.any(bad):
        worst = float(np.max(np.abs(k_flat)))
        raise CoefficientRangeError(
            f"collision coefficients must lie in [-1, 1]; max |k| = {worst:.6g}"
        )
    return np.arccos(np.clip(k_flat, -1.0, 1.0))


def build_collision_ops(layout: RegisterLayout, k_flat, value_qubits: tuple[int, ...], controls=(), control_values=()) -> list[GateOp]:
    """Block-encoded collision: scale basis state j of value_qubits by k_flat[j].

    Hadamards sandwich a joint diagonal paired with the ancilla carrying
    phases +/- arccos(k); selecting ancilla 0 afterwards leaves exactly the
    diagonal of coefficients. Coefficients must lie in [-1, 1].
    """
    k_flat = np.asarray(k_flat, dtype=float).ravel()
    if k_flat.size != 1 << len(value_qubits):
        raise ConfigurationError(
            f"got {k_flat.size} coefficients for {len(value_qubits)} qubits"
        )
    theta = _coefficient_angles(k_flat)
    (anc,) = layout.a
    phases = np.concatenate([theta, -theta])
    return [
        GateOp("H", (anc,)),
        GateOp(
            "DIAG",
            tuple(value_qubits) + (anc,),
            tuple(controls),
            tuple(control_values),
            tuple(float(t) for t in phases),
        ),
        GateOp("H", (anc,)),
    ]


def build_macro_ops(layout: RegisterLayout) -> list[GateOp]:
    """Link-register Hadamards; selecting d = 0 afterwards sums the links."""
    return [GateOp("H", (q,)) for q in layout.d]


def build_boundary_ops(layout: RegisterLayout, wall_mask) -> list[GateOp]:
    """Block-encoded wall projector: zero every site where wall_mask is true.

    Same sandwich construction as the collision block but over the wall flag:
    the two branches carry phases +/- pi/2 on wall sites (averaging to zero)
    and 0 on interior sites (averaging to one).
    """
    if not layout.n_b:
        raise ConfigurationError("layout has no wall flag qubit")
    mask = np.asarray(wall_mask, dtype=bool).ravel()
    if mask.size != layout.n_sites:
        raise ConfigurationError(f"wall mask covers {mask.size} sites, expected {layout.n_sites}")
    (bq,) = layout.b
    half = np.where(mask, math.pi / 2.0, 0.0)
    phases = np.concatenate([half, -half])
    return [
        GateOp("H", (bq,)),
        GateOp("DIAG", layout.site_qubits + (bq,), params=tuple(float(t) for t in phases)),
        GateOp("H", (bq,)),
    ]


def cavity_wall_mask(extent: int) -> np.ndarray:
    mask = np.zeros((extent, extent), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask.ravel()


# ---------------------------------------------------------------------------
# whole-pipeline circuits
# ---------------------------------------------------------------------------


def encoding_vector(layout: RegisterLayout, scheme: LatticeScheme, field, source=None, source_scale: float = 1.0) -> np.ndarray:
    """Unnormalized amplitude layout for the encode stage.

    The field is replicated across the link codes actually used by the scheme
    (codes past n_links stay zero). With a source field present the source
    flag splits the space: s = 0 carries the field, s = 1 carries
    source_scale * source, both replicated the same way.
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
        source = np.asarray(source, dtype=float).ravel() * source_scale
        off = n_sites * codes
        for code in range(scheme.n_links):
            v[off + code * n_sites : off + (code + 1) * n_sites] = source
    return v


def _prep_section(layout: RegisterLayout, vector: np.ndarray) -> list[GateOp]:
    qubits = layout.site_qubits + layout.d + layout.s
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        raise ConfigurationError("cannot prepare the zero vector")
    return build_state_prep(vector / norm, qubits)


def _collision_k_uniform(scheme: LatticeScheme, velocity, n_codes: int) -> np.ndarray:
    k = collision_coefficients(scheme, velocity, ()).ravel()
    out = np.ones(n_codes)
    out[: scheme.n_links] = k
    return out


def _collision_k_sitewise(scheme: LatticeScheme, velocity_fields, n_codes: int, n_sites: int) -> np.ndarray:
    shape = np.asarray(velocity_fields)[0].shape
    k = collision_coefficients(scheme, np.asarray(velocity_fields, dtype=float), shape)
    out = np.ones(n_codes * n_sites)
    for code in range(scheme.n_links):
        out[code * n_sites : (code + 1) * n_sites] = k[code].ravel()
    return out


def build_advection_diffusion_circuit(scheme: LatticeScheme, extent: int, field, velocity, *, encode: bool = True) -> CircuitIR:
    """One advected-scalar step: encode, collide, stream, merge links."""
    layout = RegisterLayout.for_scheme(scheme, extent)
    circ = CircuitIR(layout)
    if encode:
        circ.add_section("encode", _prep_section(layout, encoding_vector(layout, scheme, field)))
    k = _collision_k_uniform(scheme, velocity, 1 << layout.n_d)
    circ.add_section("collision", build_collision_ops(layout, k, layout.d))
    circ.add_section("streaming", build_streaming_ops(layout, scheme))
    circ.add_section("macro", build_macro_ops(layout))
    return circ


def build_vorticity_circuit(scheme: LatticeScheme, extent: int, omega, velocity_fields, *, boundary: bool = True, encode: bool = True) -> CircuitIR:
    """One vorticity transport step with site-dependent collision coefficients."""
    layout = RegisterLayout.for_scheme(scheme, extent, boundary=boundary)
    circ = CircuitIR(layout)
    if encode:
        circ.add_section("encode", _prep_section(layout, encoding_vector(layout, scheme, omega)))
    k = _collision_k_sitewise(scheme, velocity_fields, 1 << layout.n_d, layout.n_sites)
    circ.add_section(
        "collision", build_collision_ops(layout, k, layout.site_qubits + layout.d)
    )
    circ.add_section("streaming", build_streaming_ops(layout, scheme))
    circ.add_section("macro", build_macro_ops(layout))
    if boundary:
        circ.add_section("boundary", build_boundary_ops(layout, cavity_wall_mask(extent)))
    return circ


def build_stream_function_circuit(scheme: LatticeScheme, extent: int, psi, scaled_source, *, boundary: bool = True, encode: bool = True) -> CircuitIR:
    """One relaxation sweep of the stream-function field with a folded source.

    The source flag is prepared alongside the field (s = 0 holds psi, s = 1
    holds the pre-scaled source) and a single Hadamard on s folds the two
    into their half-sum before the weights-only collision and streaming.
    """
    layout = RegisterLayout.for_scheme(scheme, extent, source=True, boundary=boundary)
    circ = CircuitIR(layout)
    if encode:
        vec = encoding_vector(layout, scheme, psi, source=scaled_source)
        circ.add_section("encode", _prep_section(layout, vec))
    circ.add_section("source-fold", [GateOp("H", (layout.s[0],))])
    k = _collision_k_uniform(scheme, np.zeros(scheme.dimension), 1 << layout.n_d)
    circ.add_section("collision", build_collision_ops(layout, k, layout.d))
    circ.add_section("streaming", build_streaming_ops(layout, scheme))
    circ.add_section("macro", build_macro_ops(layout))
    if boundary:
        circ.add_section("boundary", build_boundary_ops(layout, cavity_wall_mask(extent)))
    return circ


def build_single_cavity_circuit(scheme: LatticeScheme, extent: int, psi, scaled_source, omega, velocity_fields, *, encode: bool = True) -> CircuitIR:
    """Combined cavity step: both field updates in one gate list.

    The stream-function stages run controlled on source flag 0 and the
    vorticity stages controlled on source flag 1, sharing one link-merge and
    one wall-projector section. The encode section holds the joint
    stream-function input; a vorticity pass re-prepares the s = 1 sector and
    executes only its own spans.
    """
    layout = RegisterLayout.for_scheme(scheme, extent, source=True, boundary=True)
    circ = CircuitIR(layout)
    s = layout.s[0]
    if encode:
        vec = encoding_vector(layout, scheme, psi, source=scaled_source)
        circ.add_section("encode", _prep_section(layout, vec))
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
    k_w = _collision_k_sitewise(scheme, velocity_fields, 1 << layout.n_d, layout.n_sites)
    circ.add_section(
        "collision-vorticity",
        build_collision_ops(
            layout, k_w, layout.site_qubits + layout.d, controls=(s,), control_values=(1,)
        ),
    )
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
# A lowering is a sequence of basis rows ``(kind, target, control, params)``
# on relative qubit slots: ``control`` is -1 for a single-qubit gate,
# ``target`` is -1 for the global phase, and every controlled row is a CNOT on
# control value 1. :func:`lowered_rows` pairs the rows with the qubit each slot
# stands for; :func:`lower_op` and :func:`iter_lowered` emit gates from them
# and the resource counter walks them as they are.
#
# MCX and controlled single-qubit gates lower through one template per shape
# (kind, number of controls, params): the all-ones-controls core, with the
# controls on slots 0..m-1 and the target on slot m, expanded once and shared
# by every gate of that shape. Zero-polarity controls are wrapped in X when
# the template is emitted. Diagonals depend on their phases and are expanded
# per gate.


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


def _controlled_1q_exact(u: np.ndarray, control: int, target: int) -> list[GateOp]:
    """Singly-controlled 2x2 unitary with two CNOTs (ABC decomposition)."""
    alpha, beta, gamma, delta = _zyz_angles(u)
    ops: list[GateOp] = []
    c_angle = (delta - beta) / 2.0
    if c_angle:
        ops.append(GateOp("RZ", (target,), params=(c_angle,)))
    ops.append(GateOp("MCX", (target,), (control,), (1,)))
    b_rz = -(delta + beta) / 2.0
    if b_rz:
        ops.append(GateOp("RZ", (target,), params=(b_rz,)))
    if gamma:
        ops.append(GateOp("RY", (target,), params=(-gamma / 2.0,)))
    ops.append(GateOp("MCX", (target,), (control,), (1,)))
    if gamma:
        ops.append(GateOp("RY", (target,), params=(gamma / 2.0,)))
    if beta:
        ops.append(GateOp("RZ", (target,), params=(beta,)))
    if alpha:
        ops.append(GateOp("PHASE", (control,), params=(alpha,)))
    return ops


_TOFFOLI_T = math.pi / 4.0


def _toffoli_ops(c0: int, c1: int, target: int) -> list[GateOp]:
    """Canonical doubly-controlled X: six CNOTs plus T-layer single qubit gates."""
    t, tdg = (_TOFFOLI_T,), (-_TOFFOLI_T,)
    return [
        GateOp("H", (target,)),
        GateOp("MCX", (target,), (c1,), (1,)),
        GateOp("PHASE", (target,), params=tdg),
        GateOp("MCX", (target,), (c0,), (1,)),
        GateOp("PHASE", (target,), params=t),
        GateOp("MCX", (target,), (c1,), (1,)),
        GateOp("PHASE", (target,), params=tdg),
        GateOp("MCX", (target,), (c0,), (1,)),
        GateOp("PHASE", (target,), params=t),
        GateOp("PHASE", (c1,), params=t),
        GateOp("H", (target,)),
        GateOp("MCX", (c1,), (c0,), (1,)),
        GateOp("PHASE", (c0,), params=t),
        GateOp("PHASE", (c1,), params=tdg),
        GateOp("MCX", (c1,), (c0,), (1,)),
    ]


_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)


def _multi_controlled_unitary(u: np.ndarray, controls: tuple[int, ...], target: int) -> list[GateOp]:
    """C^m(U) on all-ones controls, ancilla-free square-root recursion."""
    m = len(controls)
    if m == 0:
        return [_u1q(target, u)]
    if m == 1:
        return _controlled_1q_exact(u, controls[0], target)
    v = _sqrt_2x2(u)
    vdg = v.conj().T
    rest, last = controls[:-1], controls[-1]
    ops: list[GateOp] = []
    ops += _controlled_1q_exact(v, last, target)
    ops += _multi_controlled_x(rest, last)
    ops += _controlled_1q_exact(vdg, last, target)
    ops += _multi_controlled_x(rest, last)
    ops += _multi_controlled_unitary(v, rest, target)
    return ops


def _multi_controlled_x(controls: tuple[int, ...], target: int) -> list[GateOp]:
    return _emit(_core_template("MCX", len(controls), ()), controls + (target,))


def _core_ops(kind: str, m: int, params: tuple) -> list[GateOp]:
    """Lowered all-ones-controls core on slots: controls 0..m-1, target m."""
    slots = tuple(range(m))
    if kind == "MCX":
        if m == 0:
            return [GateOp("X", (0,))]
        if m == 1:
            return [GateOp("MCX", (1,), (0,), (1,))]
        if m == 2:
            return _toffoli_ops(0, 1, 2)
        return _multi_controlled_unitary(_X_MAT, slots, m)
    if m == 1 and kind == "RZ":
        # two-CNOT special case: half rotations cancel on the idle branch
        (theta,) = params
        return [
            GateOp("RZ", (1,), params=(theta / 2.0,)),
            GateOp("MCX", (1,), (0,), (1,)),
            GateOp("RZ", (1,), params=(-theta / 2.0,)),
            GateOp("MCX", (1,), (0,), (1,)),
        ]
    return _multi_controlled_unitary(gate_matrix_1q(GateOp(kind, (m,), params=params)), slots, m)


@functools.lru_cache(maxsize=128)
def _core_template(kind: str, m: int, params: tuple) -> tuple[tuple, ...]:
    """Basis rows of the core of one gate shape (params that compare equal share one)."""
    return tuple(
        (op.kind, op.targets[0], op.controls[0] if op.controls else -1, op.params)
        for op in _core_ops(kind, m, params)
    )


def _emit(rows, qubits: tuple[int, ...]) -> list[GateOp]:
    """Gates of basis rows with slot s placed on qubits[s]."""
    ops = []
    for kind, t, c, params in rows:
        if c >= 0:
            ops.append(GateOp(kind, (qubits[t],), (qubits[c],), (1,), params))
        elif t >= 0:
            ops.append(GateOp(kind, (qubits[t],), params=params))
        else:
            ops.append(GateOp(kind, (), params=params))
    return ops


def _merged_diag_phases(op: GateOp) -> tuple[tuple[int, ...], np.ndarray]:
    """Fold a diagonal's controls into the diagonal itself."""
    phases = np.asarray(op.params, dtype=float)
    targets = op.targets
    if not op.controls:
        return targets, phases
    nc = len(op.controls)
    match = sum(v << i for i, v in enumerate(op.control_values))
    merged = np.zeros(phases.size << nc)
    merged[match * phases.size : (match + 1) * phases.size] = phases
    return targets + op.controls, merged


def _diag_rows(phases: np.ndarray) -> list[tuple]:
    """Exact diagonal phase gate as multiplexed RZ stages plus a global phase.

    Slot j is bit j of the phase index; the top slot is the target of the
    last stage, which the lower slots control.
    """
    if phases.size == 2:
        rows = []
        if phases[0]:
            rows.append(("GPHASE", -1, -1, (float(phases[0]),)))
        delta = float(phases[1] - phases[0])
        if delta:
            rows.append(("PHASE", 0, -1, (delta,)))
        return rows
    half = phases.size >> 1
    low, high = phases[:half], phases[half:]
    rows = _diag_rows((low + high) / 2.0)
    diff = high - low
    if np.any(diff):
        k = half.bit_length() - 1
        transformed = (_fwht(diff) / half).tolist()
        for gray, flip in _gray_ladder(k):
            rows.append(("RZ", k, -1, (transformed[gray],)))
            rows.append(("MCX", k, flip, ()))
    return rows


def lowered_rows(op: GateOp) -> tuple[Sequence[tuple], tuple[int, ...]]:
    """Basis rows of one gate's exact lowering, and the qubit each slot stands for."""
    kind = op.kind
    if kind == "GPHASE":
        if op.controls:
            raise ConfigurationError("controlled global phase is not supported")
        return (("GPHASE", -1, -1, op.params),), ()
    if kind == "DIAG":
        qubits, phases = _merged_diag_phases(op)
        return _diag_rows(phases), qubits
    if not op.controls and kind != "MCX":
        return ((kind, 0, -1, op.params),), op.targets
    rows = _core_template(kind, len(op.controls), op.params)
    if 0 in op.control_values:
        wrap = tuple(("X", i, -1, ()) for i, v in enumerate(op.control_values) if not v)
        rows = wrap + rows + wrap
    return rows, op.controls + op.targets


def lower_op(op: GateOp) -> list[GateOp]:
    """Rewrite one gate into the single-qubit + CNOT basis, exactly."""
    return _emit(*lowered_rows(op))


def iter_lowered(circ: CircuitIR) -> Iterator[tuple[str, GateOp]]:
    """(section, basis op) pairs of the lowered circuit, in gate order."""
    for section, start, stop in circ.section_runs():
        for op in circ.gates[start:stop]:
            for low in lower_op(op):
                yield section, low


def lower_circuit(circ: CircuitIR) -> CircuitIR:
    """Materialized lowering with section spans remapped onto the new indices."""
    out = CircuitIR(circ.layout)
    current = None
    start = 0
    for section, op in iter_lowered(circ):
        if section != current:
            if current is not None and len(out.gates) > start:
                out.sections.append((current, start, len(out.gates)))
            current = section
            start = len(out.gates)
        out.gates.append(op)
    if current is not None and len(out.gates) > start:
        out.sections.append((current, start, len(out.gates)))
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
    compiled kernels so the two implementations can check each other.
    """
    arr = np.asarray(array, dtype=complex).copy()
    if arr.shape[0] != 1 << n_qubits:
        raise ConfigurationError("array leading axis must be 2^n_qubits")
    idx = np.arange(1 << n_qubits)
    for op in ops:
        cmask, cval = _control_mask_val(op)
        if op.kind == "GPHASE":
            (theta,) = op.params
            sel = (idx & cmask) == cval
            arr[sel] *= np.exp(1j * theta)
            continue
        if op.kind == "DIAG":
            qubits, phases = _merged_diag_phases(op)
            sub = np.zeros_like(idx)
            for pos, q in enumerate(qubits):
                sub |= ((idx >> q) & 1) << pos
            arr *= np.exp(1j * phases[sub]).reshape((-1,) + (1,) * (arr.ndim - 1))
            continue
        if op.kind == "MCX":
            t = op.targets[0]
            sel = ((idx & cmask) == cval) & (((idx >> t) & 1) == 0)
            lo = idx[sel]
            hi = lo | (1 << t)
            arr[lo], arr[hi] = arr[hi].copy(), arr[lo].copy()
            continue
        u = gate_matrix_1q(op)
        t = op.targets[0]
        sel = ((idx & cmask) == cval) & (((idx >> t) & 1) == 0)
        lo = idx[sel]
        hi = lo | (1 << t)
        a_lo = arr[lo].copy()
        a_hi = arr[hi].copy()
        arr[lo] = u[0, 0] * a_lo + u[0, 1] * a_hi
        arr[hi] = u[1, 0] * a_lo + u[1, 1] * a_hi
    return arr


def circuit_unitary(ops: Iterable[GateOp], n_qubits: int) -> np.ndarray:
    """Dense unitary of a gate list (small circuits only)."""
    if n_qubits > 10:
        raise ConfigurationError("dense unitary extraction is capped at 10 qubits")
    return apply_ops_numpy(np.eye(1 << n_qubits, dtype=complex), ops, n_qubits)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

_IR_HEADER = "qlbm-circuit v1"


def circuit_to_text(circ: CircuitIR) -> str:
    lay = circ.layout
    lines = [
        _IR_HEADER,
        f"registers r0={lay.n_r0} r1={lay.n_r1} d={lay.n_d} s={lay.n_s} b={lay.n_b} a={lay.n_a}",
    ]
    for name, start, stop in circ.sections:
        lines.append(f"section {name} {start} {stop}")
    for op in circ.gates:
        targets = ",".join(str(t) for t in op.targets) if op.targets else "-"
        line = f"{op.kind} {targets}"
        if op.controls:
            line += " @ " + ",".join(f"{q}={v}" for q, v in zip(op.controls, op.control_values))
        if op.params:
            line += " : " + ",".join(repr(p) for p in op.params)
        lines.append(line)
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> CircuitIR:
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _IR_HEADER:
        raise ConfigurationError("not a circuit file (bad header)")
    if len(lines) < 2 or not lines[1].startswith("registers "):
        raise ConfigurationError("missing registers line")
    counts = {}
    for tok in lines[1].split()[1:]:
        name, _, num = tok.partition("=")
        counts[name] = int(num)
    try:
        layout = RegisterLayout(
            n_r0=counts["r0"], n_r1=counts["r1"], n_d=counts["d"],
            n_s=counts["s"], n_b=counts["b"], n_a=counts["a"],
        )
    except KeyError as missing:
        raise ConfigurationError(f"registers line lacks {missing}") from None
    circ = CircuitIR(layout)
    for line in lines[2:]:
        if line.startswith("section "):
            _, name, start, stop = line.split()
            circ.sections.append((name, int(start), int(stop)))
            continue
        head, _, params_part = line.partition(" : ")
        head, _, ctrl_part = head.partition(" @ ")
        pieces = head.split()
        if len(pieces) != 2:
            raise ConfigurationError(f"malformed gate line: {line!r}")
        kind, targets_csv = pieces
        targets = () if targets_csv == "-" else tuple(int(t) for t in targets_csv.split(","))
        controls: tuple[int, ...] = ()
        values: tuple[int, ...] = ()
        if ctrl_part:
            pairs = [tok.partition("=") for tok in ctrl_part.split(",")]
            controls = tuple(int(p[0]) for p in pairs)
            values = tuple(int(p[2]) for p in pairs)
        params = tuple(float(p) for p in params_part.split(",")) if params_part else ()
        circ.gates.append(GateOp(kind, targets, controls, values, params))
    for name, start, stop in circ.sections:
        if not (0 <= start <= stop <= len(circ.gates)):
            raise ConfigurationError(f"section {name!r} span out of range")
    return circ
