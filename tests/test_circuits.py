"""Circuit construction and lowering.

Verification runs on three mutually checking paths: a dense matrix builder
written here from the gate definitions, the fancy-indexing
``dense_reference.apply_ops_numpy``, and (at solver level) the strided-view
kernels. Lowered gate
lists must match their parents as unitaries, and the standard decompositions
must land on their known CNOT counts.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbm.circuits import (
    CircuitIR,
    GateOp,
    RegisterLayout,
    build_advection_diffusion_circuit,
    build_boundary_ops,
    build_collision_ops,
    build_macro_ops,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_streaming_ops,
    build_vorticity_circuit,
    build_vorticity_collision_ops,
    cavity_wall_mask,
    encoding_vector,
    gate_matrix_1q,
    _sum_squares,
)
from qlbm.errors import CoefficientRangeError, ConfigurationError, EncodingError
from qlbm.lattice import D1Q2, D1Q3, D2Q5, stream_periodic
from qlbm.lowering import iter_lowered, lower_circuit, lower_op, slot_programs, unit_amplitudes, _controlled_1q
from qlbm.resources import count_resources

from dense_reference import apply_ops_numpy, circuit_unitary
from prepared_state import developed_cavity_circuits, random_load, run_from_zero

# ---------------------------------------------------------------------------
# dense reference, independent of the module's application paths
# ---------------------------------------------------------------------------


def _ket0(n_qubits: int) -> np.ndarray:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def _dense_op(op: GateOp, n_qubits: int) -> np.ndarray:
    """Matrix of one gate, built directly from the definition."""
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    if op.kind == "BLOCK":
        *values, flag = op.targets
        for i in range(dim):
            if not all(((i >> q) & 1) == v for q, v in zip(op.controls, op.control_values)):
                mat[i, i] = 1.0
                continue
            k = op.params[sum(((i >> q) & 1) << pos for pos, q in enumerate(values))]
            s = 1j * math.sqrt(1.0 - k * k)
            mat[i, i] = k
            mat[i ^ (1 << flag), i] = s
        return mat
    u = np.array([[0, 1], [1, 0]], dtype=complex) if op.kind == "MCX" else gate_matrix_1q(op)
    t = op.targets[0]
    for i in range(dim):
        if not all(((i >> q) & 1) == v for q, v in zip(op.controls, op.control_values)):
            mat[i, i] = 1.0
            continue
        bit = (i >> t) & 1
        mat[i | (1 << t), i] += u[1, bit]
        mat[i & ~(1 << t), i] += u[0, bit]
    return mat


def _dense_circuit(ops, n_qubits: int) -> np.ndarray:
    mat = np.eye(1 << n_qubits, dtype=complex)
    for op in ops:
        mat = _dense_op(op, n_qubits) @ mat
    return mat


def _cnot_count(ops) -> int:
    return sum(1 for op in ops if op.kind == "MCX")


def _assert_unitary_equal(ops_a, ops_b, n_qubits, atol=1e-10):
    ua = circuit_unitary(ops_a, n_qubits)
    ub = circuit_unitary(ops_b, n_qubits)
    np.testing.assert_allclose(ua, ub, atol=atol)


# ---------------------------------------------------------------------------
# gate container and layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, targets, params", [
    ("CZ", (0,), ()),
    ("DIAG", (0, 1), (0.1, 0.2, 0.3, 0.4)),  # no builder emits a diagonal of its own
    ("GPHASE", (), (0.3,)),  # nor a global phase, nor does any lowering
])
def test_gate_op_rejects_unknown_kind(kind, targets, params):
    with pytest.raises(ConfigurationError, match="unknown gate kind"):
        GateOp(kind, targets, params=params)


def test_gate_op_rejects_unpaired_controls():
    with pytest.raises(ConfigurationError, match="pair up"):
        GateOp("X", (0,), controls=(1, 2), control_values=(1,))


def test_gate_op_rejects_bad_control_values():
    with pytest.raises(ConfigurationError, match="0 or 1"):
        GateOp("X", (0,), controls=(1,), control_values=(2,))


def test_gate_op_rejects_overlapping_qubits():
    with pytest.raises(ConfigurationError, match="overlapping"):
        GateOp("X", (0,), controls=(0,), control_values=(1,))


@pytest.mark.parametrize("kind, targets, params", [
    ("MCX", (0, 1), ()),           # would lower, run and count as targets[0] only
    ("H", (0, 1), ()),
    ("X", (), ()),
    ("RY", (0,), ()),
    ("RZ", (0,), (0.1, 0.2)),
    ("MCX", (0,), (0.5,)),
    ("BLOCK", (0, 1), (0.1, 0.2, 0.3, 0.4)),  # one coefficient per value index: two here
    ("PREP", (0, 1), (0.1, 0.2, 0.3)),
])
def test_gate_op_rejects_wrong_target_or_parameter_count(kind, targets, params):
    with pytest.raises(ConfigurationError):
        GateOp(kind, targets, params=params)


@pytest.mark.parametrize("kind, targets, params", [
    ("RY", (0,), (math.nan,)),
    ("RZ", (0,), (-math.inf,)),
    ("PHASE", (0,), (math.inf,)),
])
def test_gate_op_rejects_non_finite_parameters(kind, targets, params):
    # a PREP's vector is checked when it is loaded or lowered, as an EncodingError
    with pytest.raises(ConfigurationError, match="finite"):
        GateOp(kind, targets, params=params)


@pytest.mark.parametrize("params", [[0.5], np.array([0.5]), (np.float64(0.5),)], ids=["list", "ndarray", "numpy-entry"])
def test_gate_op_holds_a_sequence_of_angles_as_a_tuple_of_floats(params):
    op = GateOp("RY", (0,), (1,), (1,), params)
    tuple_form = GateOp("RY", (0,), (1,), (1,), (0.5,))
    assert op.params == (0.5,) and type(op.params) is tuple and isinstance(op.params[0], float)
    assert op == tuple_form and hash(op) == hash(tuple_form)
    assert lower_op(op) == lower_op(tuple_form)  # the controlled program's cache takes it as a key


@pytest.mark.parametrize("params", [0.5, np.float64(0.5), np.array(0.5), "5", b"5", ("0.5",), [[0.5]], [1j], [None]],
                         ids=["float", "numpy-scalar", "0-d-array", "str", "bytes", "str-entry", "nested", "complex",
                              "none"])
def test_gate_op_rejects_parameters_that_are_not_a_sequence_of_reals(params):
    with pytest.raises(ConfigurationError, match="sequence of real numbers"):
        GateOp("RY", (0,), params=params)


@pytest.mark.parametrize("kind, targets, params", [
    ("PREP", (0, 1), [0.5, 0.5, 0.5, 0.5j]),
    ("PREP", (0,), np.array([1.0, 1.0], dtype=complex)),
    ("BLOCK", (0, 1), [0.5, 1j]),
    ("BLOCK", (0, 1), np.array([0.5, 0.5], dtype=complex)),
])
def test_a_complex_prep_or_block_vector_is_refused_not_cast(kind, targets, params):
    with pytest.raises(ConfigurationError, match=f"{kind} params must be real"):
        GateOp(kind, targets, params=params)


@pytest.mark.parametrize("targets, controls, match", [
    ((-1,), (), "negative"),
    ((0,), (-2,), "negative"),
    ((np.int64(-1),), (), "negative"),  # a numpy integer passes the integer check
    ((1.5,), (), "integer"),
    ((True,), (), "integer"),
    ((0,), (True,), "integer"),
    (("1",), (), "integer"),
], ids=["targets0-controls0", "targets1-controls1", "numpy-target", "float-target", "bool-target", "bool-control",
        "str-target"])
def test_gate_op_rejects_negative_qubits(targets, controls, match):
    with pytest.raises(ConfigurationError, match=match):
        GateOp("MCX", targets, controls, (1,) * len(controls))


@pytest.mark.parametrize("args", [
    (("X", [0], [1], [1]), ("X", (0,), (1,), (1,))),
    (("H", [0]), ("H", (0,))),
    (("RY", np.array([2]), np.array([0, 1]), [np.int64(1), 0], (0.5,)), ("RY", (2,), (0, 1), (1, 0), (0.5,))),
    (("SHIFT", range(2), [2], [0], (1,)), ("SHIFT", (0, 1), (2,), (0,), (1,))),
], ids=["controlled-x", "hadamard", "numpy-qubits", "range-shift"])
def test_a_gate_given_integer_sequences_is_the_gate_given_tuples(args):
    given, tuple_form = GateOp(*args[0]), GateOp(*args[1])
    for name in ("targets", "controls", "control_values"):
        value = getattr(given, name)
        assert type(value) is tuple and all(type(q) is int for q in value)
    assert given == tuple_form and hash(given) == hash(tuple_form) and given.qubits == tuple_form.qubits
    n = max(given.qubits) + 1
    prep = GateOp("PREP", tuple(range(n)), params=np.arange(1.0, (1 << n) + 1))
    np.testing.assert_array_equal(run_from_zero(n, [prep, given]).amplitudes, run_from_zero(n, [prep, tuple_form]).amplitudes)
    assert lower_op(given) == lower_op(tuple_form)


@pytest.mark.parametrize("targets, controls, control_values, name", [
    (0, (), (), "targets"),
    ("0", (), (), "targets"),
    ((0,), 1, (1,), "controls"),
    ((0,), (1,), 1, "control_values"),
    ((0,), (1,), (True,), "control_values"),
    ((0,), (1,), [1.0], "control_values"),
    (None, (), (), "targets"),
], ids=["bare-target", "str-target", "bare-control", "bare-value", "bool-value", "float-value", "none-targets"])
def test_a_gate_refuses_qubits_that_are_not_a_sequence_of_integers(targets, controls, control_values, name):
    with pytest.raises(ConfigurationError, match=f"X {name} must be a sequence of integers"):
        GateOp("X", targets, controls, control_values)


def test_add_section_refuses_an_entry_that_is_not_a_gate():
    circ = CircuitIR(RegisterLayout(n_r0=2, n_a=0))
    with pytest.raises(ConfigurationError, match="section 'x' holds an entry that is not a GateOp"):
        circ.add_section("x", [1])
    with pytest.raises(ConfigurationError, match="ops must be an iterable of GateOp, got NoneType"):
        circ.add_section("x", None)
    assert circ.gates == [] and circ.sections == []


def test_the_lowering_refuses_what_is_not_a_gate_or_a_circuit():
    with pytest.raises(ConfigurationError, match="op must be a GateOp, got None"):
        lower_op(None)
    with pytest.raises(ConfigurationError, match="circ must be a CircuitIR, got None"):
        iter_lowered(None)
    with pytest.raises(ConfigurationError, match="circ must be a CircuitIR, got None"):
        lower_circuit(None)


@pytest.mark.parametrize("values, match", [
    (np.array([1.0, 1j]), "values must be real, got a complex value"),
    ("ab", "values must be real numbers, got str"),
], ids=["complex", "str"])
def test_unit_amplitudes_refuses_values_that_are_not_real(values, match):
    with pytest.raises(ConfigurationError, match=match):
        unit_amplitudes(values)


def test_the_builders_refuse_a_scheme_that_is_not_a_lattice_scheme():
    with pytest.raises(ConfigurationError, match="scheme must be a LatticeScheme, got None"):
        build_advection_diffusion_circuit(None, 4, np.ones(4), (0.1,))
    layout = RegisterLayout.for_scheme(D1Q3, 4)
    with pytest.raises(ConfigurationError, match="scheme must be a LatticeScheme, got None"):
        encoding_vector(layout, None, np.ones(4))


def test_add_section_rejects_qubit_outside_the_layout():
    circ = CircuitIR(RegisterLayout(n_r0=2, n_a=0))
    with pytest.raises(ConfigurationError, match="qubit 2 of a 2-qubit"):
        circ.add_section("body", [GateOp("H", (0,)), GateOp("MCX", (0,), (2,), (1,))])
    assert circ.gates == [] and circ.sections == []
    circ.add_section("body", [GateOp("MCX", (1,), (0,), (1,))])
    assert circ.sections == [("body", 0, 1)]


@pytest.mark.parametrize(
    "scheme,extent,source,boundary,expected",
    [
        (D1Q2, 16, False, False, 6),   # 1a + 1d + 4 sites
        (D1Q3, 32, False, False, 8),   # 1a + 2d + 5 sites
        (D2Q5, 8, False, False, 10),   # 1a + 3d + 2*3 sites
        (D2Q5, 8, True, True, 12),     # + source flag + wall flag
        (D2Q5, 8, False, True, 11),
    ],
    ids=["d1q2-16", "d1q3-32", "d2q5-8", "d2q5-8-sb", "d2q5-8-b"],
)
def test_layout_qubit_count(scheme, extent, source, boundary, expected):
    layout = RegisterLayout.for_scheme(scheme, extent, source=source, boundary=boundary)
    assert layout.qubit_count == expected


def test_layout_registers_are_contiguous():
    layout = RegisterLayout.for_scheme(D2Q5, 8, source=True, boundary=True)
    flat = layout.r0 + layout.r1 + layout.d + layout.s + layout.b + layout.a
    assert flat == tuple(range(layout.qubit_count))


def test_layout_rejects_bad_extent():
    with pytest.raises(ConfigurationError, match="power of two"):
        RegisterLayout.for_scheme(D1Q2, 12)


# ---------------------------------------------------------------------------
# shift and streaming permutations
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 4), step=st.sampled_from([+1, -1]))
def test_shift_is_a_cyclic_permutation(m, step):
    ops = [GateOp("SHIFT", tuple(range(m)), params=(step,))]
    u = circuit_unitary(ops, m)
    # column x should be the basis vector x + step (mod 2^m)
    expected = np.zeros_like(u)
    for x in range(1 << m):
        expected[(x + step) % (1 << m), x] = 1.0
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_shift_controls_gate_the_whole_ladder():
    # With a 0-valued control the register must not move.
    ops = [GateOp("SHIFT", (0, 1), (2,), (1,), (+1,))]
    u = circuit_unitary(ops, 3)
    np.testing.assert_allclose(u[:4, :4], np.eye(4), atol=1e-12)


def test_shift_rejects_bad_step():
    with pytest.raises(ConfigurationError, match="step"):
        GateOp("SHIFT", (0, 1), params=(2,))


@pytest.mark.parametrize("step", [True, False, 0, 1.0, -1.5, math.nan])
def test_shift_rejects_a_step_that_is_not_the_integer_plus_or_minus_one(step):
    with pytest.raises(ConfigurationError, match="step"):
        GateOp("SHIFT", (0, 1), params=(step,))


@pytest.mark.parametrize("register", [(0, 2), (1, 0), (2, 1, 0), (3, 4, 6)])
def test_shift_rejects_a_register_that_is_not_consecutive_ascending_qubits(register):
    with pytest.raises(ConfigurationError, match="consecutive"):
        GateOp("SHIFT", register, params=(1,))


def test_shift_keeps_its_step_as_an_int():
    op = GateOp("SHIFT", (2, 3), params=(np.int64(-1),))
    assert op.params == (-1,) and type(op.params[0]) is int
    assert op == GateOp("SHIFT", (2, 3), params=(-1,)) != GateOp("SHIFT", (2, 3), params=(1,))


def _shift_cases():
    """SHIFTs of register widths 1-6, both steps, and 0-3 controls of mixed polarity, on w + c qubits."""
    for width in range(1, 7):
        for step in (1, -1):
            for n_controls in range(4):
                # the register in the middle: controls below it and above it
                low = n_controls // 2
                controls = (*range(low), *range(low + width, width + n_controls))
                values = tuple((i + width) % 2 for i in range(n_controls))
                yield GateOp("SHIFT", tuple(range(low, low + width)), controls, values, (step,))


def _cascade(op):
    """The ripple cascade a SHIFT lowers to, as MCX gates: bit j flips when the bits below hold the step's polarity, widest j first."""
    pol = 1 if op.params[0] == 1 else 0
    reg = op.targets
    return [GateOp("MCX", (reg[j],), reg[:j] + op.controls, (pol,) * j + op.control_values)
            for j in range(len(reg) - 1, -1, -1)]


@pytest.mark.parametrize("op", list(_shift_cases()), ids=str)
def test_a_shift_applied_by_index_arithmetic_is_its_lowered_cascade(op):
    n = len(op.qubits)
    identity = np.eye(1 << n, dtype=complex)
    shifted = apply_ops_numpy(identity, [op], n)
    np.testing.assert_array_equal(shifted, apply_ops_numpy(identity, _cascade(op), n))
    lowered = lower_op(op)
    assert lowered == [low for mcx in _cascade(op) for low in lower_op(mcx)]
    # past 7 qubits the lowered cascade runs thousands of gates on 2^n x 2^n
    # unitaries, seconds each; the MCX lowerings are checked densely on their own
    if n <= 7:
        np.testing.assert_allclose(apply_ops_numpy(identity, lowered, n), shifted, rtol=0, atol=1e-9)


@pytest.mark.parametrize("scheme,extent", [(D1Q2, 8), (D1Q3, 8), (D2Q5, 4)], ids=lambda p: getattr(p, "name", p))
def test_streaming_matches_classical_streaming(scheme, extent):
    layout = RegisterLayout.for_scheme(scheme, extent)
    rng = np.random.default_rng(1)
    shape = (extent,) * scheme.dimension
    pops = rng.standard_normal((scheme.n_links,) + shape)

    vec = np.zeros(1 << layout.qubit_count, dtype=complex)
    n_sites = layout.n_sites
    for code in range(scheme.n_links):
        vec[code * n_sites : (code + 1) * n_sites] = pops[code].ravel()

    out = apply_ops_numpy(vec, build_streaming_ops(layout, scheme), layout.qubit_count)
    expected = stream_periodic(scheme, pops)
    for code in range(scheme.n_links):
        np.testing.assert_allclose(
            out[code * n_sites : (code + 1) * n_sites].real,
            expected[code].ravel(),
            atol=1e-12,
        )
    # codes past the link count and the ancilla half must be untouched
    np.testing.assert_allclose(out[scheme.n_links * n_sites :], vec[scheme.n_links * n_sites :], atol=1e-14)


def test_macro_ops_sum_links():
    # After link-register Hadamards the d = 0 block holds the link sum / sqrt(2^d).
    layout = RegisterLayout.for_scheme(D1Q2, 4)
    rng = np.random.default_rng(2)
    pops = rng.standard_normal((2, 4))
    vec = np.zeros(1 << layout.qubit_count, dtype=complex)
    vec[:4] = pops[0]
    vec[4:8] = pops[1]
    out = apply_ops_numpy(vec, build_macro_ops(layout), layout.qubit_count)
    np.testing.assert_allclose(out[:4].real * np.sqrt(2.0), pops.sum(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# coefficient and wall block encodings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_collision_block_applies_exact_diagonal(seed):
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(n_r0=2, n_d=1)  # 2 value qubits via r0 + d
    value_qubits = layout.r0 + layout.d
    k = rng.uniform(-1.0, 1.0, 8)
    ops = build_collision_ops(layout, k, value_qubits)
    assert [(op.kind, op.targets) for op in ops] == [("BLOCK", value_qubits + layout.a)]
    vec = rng.standard_normal(1 << layout.qubit_count).astype(complex)
    vec[8:] = 0.0  # ancilla 0 block only
    out = apply_ops_numpy(vec, ops, layout.qubit_count)
    np.testing.assert_allclose(out[:8], k * vec[:8], atol=1e-12)


def test_collision_block_rejects_out_of_range_coefficients():
    layout = RegisterLayout(n_r0=1, n_d=1)
    with pytest.raises(CoefficientRangeError, match="max \\|k\\|"):
        build_collision_ops(layout, [0.5, 1.5, 0.0, 0.0], layout.r0 + layout.d)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_collision_block_rejects_non_finite_coefficients(bad):
    layout = RegisterLayout(n_r0=1, n_d=1)
    with pytest.raises(CoefficientRangeError, match="max \\|k\\|"):
        build_collision_ops(layout, [0.5, bad, 0.0, 0.0], layout.r0 + layout.d)


def test_a_flat_read_only_coefficient_array_the_caller_owns_is_kept_by_the_block():
    layout = RegisterLayout(n_r0=1, n_d=1)
    k = np.array([0.5, -0.25, 1.0, 0.0])
    k.flags.writeable = False
    (block,) = build_collision_ops(layout, k, layout.r0 + layout.d)
    assert block.params is k


def test_collision_block_rejects_wrong_coefficient_count():
    layout = RegisterLayout(n_r0=1, n_d=1)
    with pytest.raises(ConfigurationError, match="coefficients"):
        build_collision_ops(layout, [0.5, 0.5], layout.r0 + layout.d)


def test_boundary_block_zeroes_walls_keeps_interior():
    extent = 4
    layout = RegisterLayout.for_scheme(D2Q5, extent, boundary=True)
    rng = np.random.default_rng(4)
    field = rng.standard_normal(16)
    vec = np.zeros(1 << layout.qubit_count, dtype=complex)
    vec[:16] = field
    out = apply_ops_numpy(vec, build_boundary_ops(layout, cavity_wall_mask(extent)), layout.qubit_count)
    mask = cavity_wall_mask(extent)
    np.testing.assert_allclose(out[:16][mask], 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:16][~mask], field[~mask], atol=1e-12)


def test_boundary_block_needs_wall_flag():
    layout = RegisterLayout.for_scheme(D2Q5, 4)
    with pytest.raises(ConfigurationError, match="wall flag"):
        build_boundary_ops(layout, cavity_wall_mask(4))


@pytest.mark.parametrize("params, error, match", [
    ([0.5, 1.5], CoefficientRangeError, "max \\|k\\|"),
    ([-1.0 - 1e-6, 0.0], CoefficientRangeError, "max \\|k\\|"),
    ([math.nan, 0.0], CoefficientRangeError, "max \\|k\\|"),
    ([0.0, -math.inf], CoefficientRangeError, "max \\|k\\|"),
    ([0.5, 0.5, 0.5, 0.5], ConfigurationError, "parameter"),
    ([0.5], ConfigurationError, "parameter"),
    (np.ones((2, 1)), ConfigurationError, "flat vector"),
], ids=["above-one", "below-minus-one", "nan", "infinite", "too-many", "too-few", "not-flat"])
def test_block_gate_rejects_bad_coefficients(params, error, match):
    with pytest.raises(error, match=match):
        GateOp("BLOCK", (0, 1), params=params)


def test_block_gate_clips_coefficients_within_the_slack():
    op = GateOp("BLOCK", (0, 1), params=[1.0 + 1e-12, -1.0 - 1e-12])
    np.testing.assert_array_equal(op.params, [1.0, -1.0])
    assert not op.params.flags.writeable
    kept = np.array([0.25, -1.0])
    kept.flags.writeable = False
    assert GateOp("BLOCK", (0, 1), params=kept).params is kept  # in range: kept as it is


@pytest.mark.parametrize("controls, values", [((), ()), ((1,), (1,)), ((1,), (0,)), ((4, 1), (0, 1))],
                         ids=["uncontrolled", "control-1", "control-0", "mixed-controls"])
def test_block_matches_its_lowering_and_the_dense_reference(controls, values):
    rng = np.random.default_rng(len(controls) + 7 * sum(values))
    k = rng.uniform(-1.0, 1.0, 4)
    k[0] = 0.0  # a wall site of the projector
    op = GateOp("BLOCK", (2, 0, 3), controls, values, params=k)  # value qubits 2, 0; flag 3
    dense = _dense_op(op, 5)
    np.testing.assert_allclose(dense @ dense.conj().T, np.eye(32), atol=1e-12)
    np.testing.assert_allclose(circuit_unitary([op], 5), dense, rtol=0, atol=1e-12)
    lowered = lower_op(op)
    assert lowered[0] == lowered[-1] == GateOp("H", (3,))
    np.testing.assert_allclose(circuit_unitary(lowered, 5), dense, rtol=0, atol=1e-10)
    load, amps = random_load(5, len(controls) + 7 * sum(values))
    out = run_from_zero(5, load + [op]).amplitudes
    np.testing.assert_allclose(out, dense @ amps, rtol=0, atol=1e-12)


def test_cavity_wall_mask_counts():
    mask = cavity_wall_mask(8)
    assert mask.sum() == 4 * 8 - 4


# ---------------------------------------------------------------------------
# state preparation and encoding
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
        lambda v: sum(x * x for x in v) > 1e-4
    )
)
def test_state_prep_reaches_signed_target(values):
    v = np.asarray(values) / np.linalg.norm(values)
    ops = lower_op(GateOp("PREP", (0, 1, 2), params=v))
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    out = apply_ops_numpy(state, ops, 3)
    np.testing.assert_allclose(out.real, v, atol=1e-10)
    np.testing.assert_allclose(out.imag, 0.0, atol=1e-12)


def _prep_case(m, seed):
    """(n, targets, ops before the PREP, the PREP): random signed vector on
    m scattered targets of an (m + 2)-qubit state whose other qubits are in
    superposition."""
    rng = np.random.default_rng(seed)
    n = m + 2
    order = rng.permutation(n).tolist()
    targets, others = tuple(order[:m]), order[m:]
    before = [GateOp("RY", (others[0],), params=(float(rng.uniform(0.3, 2.8)),)),
              GateOp("H", (others[1],), (others[0],), (1,))]
    prep = GateOp("PREP", targets, params=rng.standard_normal(1 << m) * 10.0 ** rng.integers(-3, 4))
    return n, targets, before, prep


def _dense_load(amps, targets, vector):
    """Rest of the state (targets at 0) times the unit vector, index by index."""
    unit = vector / np.linalg.norm(vector)
    mask = sum(1 << q for q in targets)
    out = np.zeros_like(amps)
    for i in range(amps.size):
        sub = sum(((i >> q) & 1) << pos for pos, q in enumerate(targets))
        out[i] = amps[i & ~mask] * unit[sub]
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_prep_load_ladder_and_lowering_agree_with_the_dense_reference(m):
    n, targets, before, prep = _prep_case(m, seed=40 + m)
    zero = _ket0(n)
    prepared = apply_ops_numpy(zero, before, n)
    assert np.abs(prepared).max() < 1.0  # a non-target qubit is in superposition
    expected = _dense_load(prepared, targets, prep.params)
    loaded = run_from_zero(n, before + [prep])
    ladder = apply_ops_numpy(zero, before + [prep], n)
    lowered = run_from_zero(n, before + lower_op(prep))
    for got in (loaded.amplitudes, ladder, lowered.amplitudes):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert loaded.norm_factor == unit_amplitudes(prep.params)[1]
    assert lowered.norm_factor == 1.0  # rotations carry no norm


def test_prep_on_every_qubit_loads_the_vector_in_target_order():
    state = run_from_zero(2, [GateOp("PREP", (1, 0), params=(1.0, -2.0, 3.0, 4.0))])
    np.testing.assert_allclose(state.amplitudes, np.array([1.0, 3.0, -2.0, 4.0]) / math.sqrt(30.0), rtol=0, atol=1e-15)
    assert state.norm_factor == pytest.approx(math.sqrt(30.0), rel=1e-15)


@pytest.mark.parametrize("m", [1, 4])
def test_prep_load_selects_like_the_reference(m):
    n, targets, before, prep = _prep_case(m, seed=60 + m)
    plan = {q: 0 for q in range(n) if q not in targets}
    plan[targets[-1]] = 1
    selected, probs = run_from_zero(n, before + [prep], select=plan)
    full = _dense_load(apply_ops_numpy(_ket0(n), before, n), targets, prep.params)
    keep = [i for i in range(1 << n) if all(((i >> q) & 1) == v for q, v in plan.items())]
    expected = full[keep] / np.linalg.norm(full[keep])
    np.testing.assert_allclose(selected.amplitudes, expected, rtol=0, atol=1e-12)
    assert math.prod(probs.values()) == pytest.approx(np.vdot(full[keep], full[keep]).real, rel=1e-12)


@pytest.mark.parametrize("select", [None, {2: 0}])
def test_prep_rejects_a_target_that_is_not_zero(select):
    ops = [GateOp("RY", (1,), params=(1e-5,)), GateOp("PREP", (0, 1), params=(1.0, 2.0, 3.0, 4.0))]
    with pytest.raises(ConfigurationError, match=r"qubit 1 .*\|0>"):
        run_from_zero(3, ops, select=select)
    # the rule is structural: gates that return a target to |0> still put it in the array
    with pytest.raises(ConfigurationError, match=r"qubit 0 .*\|0>"):
        run_from_zero(3, [GateOp("X", (0,)), GateOp("X", (0,)), ops[1]], select=select)
    # a qubit outside the targets may hold anything
    ops[0] = GateOp("H", (2,))
    run_from_zero(3, ops, select=select)


# the last vector is finite, but its norm overflows
@pytest.mark.parametrize("bad", [np.zeros(4), np.array([1.0, np.nan, 0.0, 0.0]), np.array([np.inf, 0, 0, 0]),
                                 np.full(4, 1e308)])
def test_prep_of_a_zero_or_non_finite_vector_raises_when_run_or_lowered(bad):
    prep = GateOp("PREP", (0, 1), params=bad)
    with pytest.raises(EncodingError):
        run_from_zero(2, [prep])
    with pytest.raises(EncodingError):
        lower_op(prep)


_SUBNORMAL = np.finfo(float).smallest_subnormal


@pytest.mark.parametrize("peak", [_SUBNORMAL, 1e-318, np.nextafter(np.finfo(float).tiny, 0.0)])
def test_a_load_whose_peak_is_subnormal_is_rejected_when_run_or_lowered(peak):
    prep = GateOp("PREP", (0, 1), params=(0.0, -peak, peak / 2, 0.0))
    with pytest.raises(EncodingError, match="subnormal"):
        unit_amplitudes(prep.params)
    with pytest.raises(EncodingError, match="subnormal"):
        run_from_zero(2, [prep])
    with pytest.raises(EncodingError, match="subnormal"):
        lower_op(prep)


def test_a_load_whose_norm_is_just_below_the_largest_float_is_kept():
    unit, scale = unit_amplitudes(np.full(4, 8e307))
    assert scale == pytest.approx(1.6e308, rel=1e-15)
    np.testing.assert_array_equal(unit, np.full(4, 0.5))


def test_a_load_whose_peak_is_the_smallest_normal_float_is_kept():
    tiny = np.finfo(float).tiny
    unit, scale = unit_amplitudes((0.0, -tiny, _SUBNORMAL))
    assert scale == pytest.approx(tiny, rel=1e-15)
    assert unit[1] == -1.0


_ROW = 8192  # entries per dot of _sum_squares


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 17).map(lambda k: 1 << k), st.integers(1, 5 * _ROW)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_sum_squares_is_one_dot_per_8192_entries_added_left_to_right(size, is_complex, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size)
    if is_complex:
        a = a + 1j * rng.standard_normal(size)
    got = _sum_squares(a)
    if size <= _ROW:
        assert got == np.vdot(a, a).real  # the single dot it replaces, bit for bit
    else:
        want = 0.0
        for start in range(0, size, _ROW):
            chunk = a[start:start + _ROW]
            want += np.vdot(chunk, chunk).real
        assert got == want


def test_the_h_and_x_matrices_are_shared_read_only_constants():
    for kind in ("H", "X"):
        matrix = gate_matrix_1q(GateOp(kind, (0,)))
        assert matrix is gate_matrix_1q(GateOp(kind, (3,)))
        assert not matrix.flags.writeable
    np.testing.assert_array_equal(gate_matrix_1q(GateOp("H", (0,))), np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def _rotation_network(targets):
    """(target, control or None) per row of the Möttönen network, from its definition.

    Target j, top first, gets a uniformly-controlled RY from the targets
    above it: 2^k RY rungs, each followed by a CNOT from the control whose
    bit differs between gray codes r and r + 1 (mod 2^k).
    """
    rows = []
    for j in range(len(targets) - 1, -1, -1):
        controls = targets[j + 1 :]
        k = len(controls)
        rows.append((targets[j], None))
        if k == 0:
            continue
        for r in range(1 << k):
            nxt = (r + 1) % (1 << k)
            changed = (r ^ (r >> 1)) ^ (nxt ^ (nxt >> 1))
            rows.append((targets[j], controls[changed.bit_length() - 1]))
            if nxt:
                rows.append((targets[j], None))
    return rows


@pytest.mark.parametrize("m", range(1, 17))
def test_prep_template_has_the_rows_of_the_state_prep_network(m):
    rng = np.random.default_rng(m)
    targets = tuple(int(q) for q in rng.permutation(m + 1)[:m])
    prep = GateOp("PREP", targets, params=rng.standard_normal(1 << m))
    program, qubits = slot_programs(prep)
    assert qubits == targets
    assert [(qubits[t], qubits[c] if c >= 0 else None) for t, c in program.rows] == _rotation_network(targets)
    assert (program.cnot, program.single_qubit) == ((1 << m) - 2, (1 << m) - 1)
    assert set(program.gates) == {None}  # structure only: every angle comes from the vector


def test_prep_gates_compare_by_value_and_hold_a_read_only_copy():
    vector = np.array([0.5, -1.0, 0.25, 2.0])
    a = GateOp("PREP", (0, 1), params=vector)
    b = GateOp("PREP", (0, 1), params=tuple(vector))
    assert a == b and hash(a) == hash(b)
    assert a != GateOp("PREP", (0, 1), params=vector[::-1])
    assert a != GateOp("PREP", (1, 0), params=vector)
    assert [a] == [b] and a in {b}
    vector[0] = 9.0  # the gate keeps its own copy
    assert a.params[0] == 0.5 and a.params.dtype == np.float64
    with pytest.raises(ValueError):
        a.params[0] = 1.0
    # a read-only vector that owns its memory is kept as it is; a read-only view is copied
    layout = RegisterLayout.for_scheme(D1Q3, 4)
    frozen = encoding_vector(layout, D1Q3, np.arange(4.0))
    assert GateOp("PREP", layout.encoded_qubits, params=frozen).params is frozen
    view = np.arange(8.0)[:4]
    view.flags.writeable = False
    assert GateOp("PREP", (0, 1), params=view).params is not view


def test_block_gates_hold_read_only_coefficients_and_compare_by_value():
    k = np.array([0.1, -0.2, 0.3, 0.4])
    a = GateOp("BLOCK", (0, 1, 2), params=k)
    b = GateOp("BLOCK", (0, 1, 2), params=tuple(k))
    assert a == b and hash(a) == hash(b) and a in {b}
    assert a != GateOp("BLOCK", (0, 1, 2), params=k[::-1])
    assert a != GateOp("BLOCK", (0, 1, 2), (3,), (1,), params=k)
    k[0] = 0.9  # a writable caller array is copied
    assert a.params[0] == 0.1 and a.params.dtype == np.float64
    with pytest.raises(ValueError):
        a.params[0] = 1.0
    # the builders emit one BLOCK each, holding read-only coefficients that own their memory
    layout = RegisterLayout.for_scheme(D1Q3, 4, boundary=True)
    for (block,) in (build_collision_ops(layout, np.full(4, 0.5), layout.d),
                     build_boundary_ops(layout, [True, False, False, True])):
        assert block.kind == "BLOCK" and not block.params.flags.writeable and block.params.base is None


@pytest.mark.parametrize("targets, params, match", [
    ((0, 1, 2), np.ones((4, 1)), "flat vector"),
    ((0, 1, 2), np.ones((2, 2)), "flat vector"),
    ((0, 1, 2), np.ones(3), "parameter"),
    ((0, 1, 2), np.ones(8), "parameter"),
    # a flag alone: its lowering would need a global phase and a PHASE on the flag
    ((0,), np.ones(1), "value qubit"),
    ((), np.ones(1), "at least one target"),
])
def test_block_rejects_malformed_gates(targets, params, match):
    with pytest.raises(ConfigurationError, match=match):
        GateOp("BLOCK", targets, params=params)


@pytest.mark.parametrize("kwargs, match", [
    ({"targets": (0, 1), "params": np.ones(3)}, "parameter"),
    ({"targets": (), "params": np.ones(1)}, "at least one target"),
    ({"targets": (0,), "params": np.ones((2, 1))}, "flat vector"),
    ({"targets": (0,), "params": np.ones(2), "controls": (1,), "control_values": (1,)}, "no controls"),
])
def test_prep_rejects_malformed_gates(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        GateOp("PREP", **kwargs)


def test_encoding_vector_replicates_field_over_links():
    layout = RegisterLayout.for_scheme(D1Q3, 4)
    field = np.array([1.0, 2.0, 3.0, 4.0])
    vec = encoding_vector(layout, D1Q3, field)
    for code in range(3):
        np.testing.assert_array_equal(vec[4 * code : 4 * (code + 1)], field)
    np.testing.assert_array_equal(vec[12:16], 0.0)  # unused fourth code


def test_encoding_vector_source_sector():
    layout = RegisterLayout.for_scheme(D2Q5, 4, source=True)
    field = np.arange(16.0)
    source = np.ones(16)
    vec = encoding_vector(layout, D2Q5, field, source=0.25 * source)
    block = 16 * 8  # sites * codes
    np.testing.assert_array_equal(vec[:16], field)
    np.testing.assert_array_equal(vec[block : block + 16], 0.25 * source)


def test_encoding_vector_rejects_source_without_flag():
    layout = RegisterLayout.for_scheme(D2Q5, 4)
    with pytest.raises(ConfigurationError, match="source"):
        encoding_vector(layout, D2Q5, np.zeros(16), source=np.ones(16))


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


def test_apply_ops_numpy_matches_dense_reference():
    rng = np.random.default_rng(8)
    ops = [
        GateOp("H", (0,)),
        GateOp("RY", (1,), controls=(0,), control_values=(1,), params=(0.7,)),
        GateOp("BLOCK", (0, 2), controls=(1,), control_values=(0,), params=rng.uniform(-1, 1, 2)),
        GateOp("MCX", (2,), (0, 1), (1, 0)),
        GateOp("PHASE", (2,), params=(0.3,)),
    ]
    np.testing.assert_allclose(circuit_unitary(ops, 3), _dense_circuit(ops, 3), atol=1e-12)


def test_toffoli_lowering_is_exact_with_six_cnots():
    op = GateOp("MCX", (2,), (0, 1), (1, 1))
    low = lower_op(op)
    assert _cnot_count(low) == 6
    np.testing.assert_allclose(circuit_unitary(low, 3), _dense_op(op, 3), atol=1e-12)


def test_controlled_rz_lowering_is_exact_with_two_cnots():
    op = GateOp("RZ", (1,), controls=(0,), control_values=(1,), params=(0.9,))
    low = lower_op(op)
    assert _cnot_count(low) == 2
    np.testing.assert_allclose(circuit_unitary(low, 2), _dense_op(op, 2), atol=1e-12)


@pytest.mark.parametrize("m,cnots", [(3, 24), (4, 76), (5, 232)])
def test_multi_controlled_x_lowering_counts_and_unitaries(m, cnots):
    op = GateOp("MCX", (m,), tuple(range(m)), (1,) * m)
    low = lower_op(op)
    assert _cnot_count(low) == cnots
    np.testing.assert_allclose(circuit_unitary(low, m + 1), _dense_op(op, m + 1), atol=1e-9)


def test_zero_polarity_controls_are_wrapped_in_x():
    op = GateOp("MCX", (2,), (0, 1), (0, 1))
    low = lower_op(op)
    assert low[0] == GateOp("X", (0,))
    assert low[-1] == GateOp("X", (0,))
    np.testing.assert_allclose(circuit_unitary(low, 3), _dense_op(op, 3), atol=1e-12)


def test_controlled_1q_lowering_random_unitary():
    # no gate kind carries an arbitrary 2x2 unitary, so the ABC rows are checked directly
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    program = _controlled_1q(q, 1, 0)
    gates = iter(program.gates)
    ops = []
    for t, c in program.rows:
        if c >= 0:
            ops.append(GateOp("MCX", (t,), (c,), (1,)))
        else:
            kind, params = next(gates)
            ops.append(GateOp(kind, (t,), params=params))
    expected = np.eye(4, dtype=complex)
    expected[np.ix_([2, 3], [2, 3])] = q  # control qubit 1 set: basis states 2 and 3
    np.testing.assert_allclose(circuit_unitary(ops, 2), expected, atol=1e-12)


def test_block_lowering_is_exact_with_expected_cnots():
    # the flag's level averages each +arccos(k) with its -arccos(k) to 0, so
    # only the flag's RZ stage (slot 2: 4 CNOTs, 4 RZ) sits between the two H
    rng = np.random.default_rng(13)
    op = GateOp("BLOCK", (0, 1, 2), params=rng.uniform(-1, 1, 4))
    low = lower_op(op)
    assert (_cnot_count(low), len(low) - _cnot_count(low)) == (4, 4 + 2)
    np.testing.assert_allclose(circuit_unitary(low, 3), _dense_op(op, 3), atol=1e-12)


def test_controlled_block_merges_controls_into_larger_diag():
    # qubits 0, 3, 1, 2 on slots 0-3: the RZ stages of the flag (slot 1) and
    # of both controls (slots 2, 3) cost 2 + 4 + 8 CNOTs and as many RZ
    rng = np.random.default_rng(14)
    op = GateOp("BLOCK", (0, 3), controls=(1, 2), control_values=(1, 0), params=rng.uniform(-1, 1, 2))
    low = lower_op(op)
    assert all(o.kind in ("H", "RZ") or (o.kind == "MCX" and len(o.controls) == 1) for o in low)
    assert (_cnot_count(low), len(low) - _cnot_count(low)) == (14, 14 + 2)
    np.testing.assert_allclose(circuit_unitary(low, 4), _dense_op(op, 4), atol=1e-12)


def test_multi_controlled_ry_lowering():
    op = GateOp("RY", (3,), controls=(0, 1, 2), control_values=(1, 1, 1), params=(1.1,))
    np.testing.assert_allclose(circuit_unitary(lower_op(op), 4), _dense_op(op, 4), atol=1e-10)


def test_lower_circuit_produces_only_basis_gates():
    field = np.full(8, 0.1)
    field[2] = 0.4
    circ = build_advection_diffusion_circuit(D1Q3, 8, field, (0.2,))
    low = lower_circuit(circ)
    for op in low.gates:
        if op.kind == "MCX":
            assert len(op.controls) == 1 and op.control_values == (1,)
        else:
            assert op.kind in ("H", "X", "RY", "RZ", "PHASE")
            assert not op.controls


def test_lower_circuit_preserves_the_unitary():
    field = np.full(4, 0.25)
    field[1] = 0.55
    circ = build_advection_diffusion_circuit(D1Q2, 4, field, (0.3,))  # 4 qubits
    _assert_unitary_equal(circ.gates, lower_circuit(circ).gates, circ.n_qubits, atol=1e-9)


def test_iter_lowered_agrees_with_materialized_lowering():
    field = np.full(8, 0.2)
    field[5] = 0.3
    circ = build_advection_diffusion_circuit(D1Q3, 8, field, (0.1,))
    streamed = list(iter_lowered(circ))
    low = lower_circuit(circ)
    assert [op for _, op in streamed] == low.gates
    # section labels must cover the same spans
    labels = []
    for name, start, stop in low.sections:
        labels.extend([name] * (stop - start))
    assert [sec for sec, _ in streamed] == labels


def test_lowered_sections_keep_order_and_names():
    field = np.full(4, 0.5)
    circ = build_advection_diffusion_circuit(D1Q2, 4, field, (0.0,))
    assert [name for name, _, _ in circ.sections] == ["encode", "collision", "streaming", "macro"]
    low = lower_circuit(circ)
    assert [name for name, _, _ in low.sections] == ["encode", "collision", "streaming", "macro"]


def _is_basis(op: GateOp) -> bool:
    if op.controls:
        return op.kind == "MCX" and len(op.controls) == 1 and op.control_values == (1,)
    return op.kind in ("H", "X", "RY", "RZ", "PHASE")


def _naive_lowered(circ: CircuitIR) -> list:
    """(section, gate) stream by stack expansion of lower_op, one gate at a time."""
    names = {i: name for name, start, stop in circ.sections for i in range(start, stop)}
    out = []
    for i, op in enumerate(circ.gates):
        stack = [op]
        while stack:
            item = stack.pop()
            if _is_basis(item):
                out.append((names.get(i, ""), item))
            else:
                stack.extend(reversed(lower_op(item)))
    return out


def _exact(stream) -> list:
    # repr keeps apart floats that == merges (0.0 and -0.0)
    return [
        (sec, op.kind, op.targets, op.controls, op.control_values, tuple(map(repr, op.params)))
        for sec, op in stream
    ]


def _builders_at_extent_four(four=4):
    rng = np.random.default_rng(31)
    psi, omega = rng.uniform(-1, 1, (2, 4, 4))
    vel = rng.uniform(-0.2, 0.2, (2, 4, 4))
    return {
        "advection": build_advection_diffusion_circuit(D2Q5, four, rng.random((4, 4)) + 0.1, (0.1, -0.05)),
        "vorticity": build_vorticity_circuit(D2Q5, four, omega, vel),
        "stream-function": build_stream_function_circuit(D2Q5, four, psi, 0.1 * omega),
        "stream-function-nb": build_stream_function_circuit(D2Q5, four, psi, 0.1 * omega, boundary=False),
        "single": build_single_cavity_circuit(D2Q5, four, psi, 0.1 * omega, omega, vel),
    }


def test_every_builder_takes_a_numpy_integer_extent():
    built = _builders_at_extent_four()
    for name, circ in _builders_at_extent_four(np.int64(4)).items():
        assert (circ.layout, circ.sections, circ.gates) == (built[name].layout, built[name].sections, built[name].gates)
        assert type(circ.layout.n_r0) is int, name


@pytest.mark.parametrize("extent", [2, 4, 8])
def test_every_gate_a_builder_emits_passes_the_public_constructor(extent):
    # the PREP and the vorticity BLOCK skip GateOp's structural checks; each is
    # rebuilt here through them, and must come out the same gate
    rng = np.random.default_rng(extent)
    psi, omega = rng.uniform(-1, 1, (2, extent, extent))
    vel = rng.uniform(-0.2, 0.2, (2, extent, extent))
    circuits = [
        build_advection_diffusion_circuit(D1Q2, extent, rng.random(extent) + 0.1, (0.1,)),
        build_advection_diffusion_circuit(D1Q3, extent, rng.random(extent) + 0.1, (-0.1,)),
        build_advection_diffusion_circuit(D2Q5, extent, rng.random((extent, extent)) + 0.1, (0.1, -0.05)),
        build_vorticity_circuit(D2Q5, extent, omega, vel),
        build_vorticity_circuit(D2Q5, extent, omega, vel, boundary=False),
        build_stream_function_circuit(D2Q5, extent, psi, 0.1 * omega),
        build_stream_function_circuit(D2Q5, extent, psi, 0.1 * omega, boundary=False),
        build_single_cavity_circuit(D2Q5, extent, psi, 0.1 * omega, omega, vel),
    ]
    kinds = set()
    for circ in circuits:
        for gate in circ.gates:
            public = GateOp(gate.kind, gate.targets, gate.controls, gate.control_values, gate.params)
            assert public == gate and public._key == gate._key
            kinds.add(gate.kind)
    assert {"PREP", "BLOCK"} <= kinds


@pytest.mark.parametrize("field, source, match", [
    (np.ones(16), np.ones(4), "source has 4 sites"),
    (np.ones(9), None, "field has 9 sites"),
    (np.ones(16) + 0j, None, "field must be real"),
    (np.ones(16), np.full(16, 1j), "source must be real"),
    ("psi", None, "field must be real"),
], ids=["short-source", "short-field", "complex-field", "complex-source", "str-field"])
def test_encoding_vector_refuses_a_field_or_source_it_cannot_lay_out(field, source, match):
    layout = RegisterLayout.for_scheme(D2Q5, 4, source=True)
    # the test session turns warnings into errors, so a ComplexWarning cast would fail here too
    with pytest.raises(ConfigurationError, match=match):
        encoding_vector(layout, D2Q5, field, source=source)


@pytest.mark.parametrize("velocity, match", [
    (np.zeros((2, 3, 3)), "velocity_fields shape \\(2, 3, 3\\)"),
    (np.zeros((2, 16)), "velocity_fields shape \\(2, 16\\)"),
    (np.zeros(2), "velocity_fields shape \\(2,\\)"),
    ("fast", "velocity_fields must be real"),
    (np.full((2, 4, 4), 0.1j), "velocity_fields must be real"),
], ids=["3x3", "flat", "constant", "str", "complex"])
def test_the_vorticity_collision_refuses_a_velocity_that_does_not_fit_its_sites(velocity, match):
    layout = RegisterLayout.for_scheme(D2Q5, 4, boundary=True)
    with pytest.raises(ConfigurationError, match=match):
        build_vorticity_collision_ops(layout, D2Q5, velocity)


@pytest.mark.parametrize("name", ["advection", "vorticity", "stream-function", "stream-function-nb", "single"])
def test_iter_lowered_equals_naive_expansion_for_every_builder(name):
    circ = _builders_at_extent_four()[name]
    assert _exact(iter_lowered(circ)) == _exact(_naive_lowered(circ))


@pytest.mark.parametrize("name", ["advection", "vorticity", "stream-function", "stream-function-nb", "single"])
def test_sections_cover_every_gate_once_and_count_like_the_naive_expansion(name):
    circ = _builders_at_extent_four()[name]
    low = lower_circuit(circ)
    for c in (circ, low):
        stops = [0] + [stop for _, _, stop in c.sections]
        assert [start for _, start, _ in c.sections] == stops[:-1]
        assert stops[-1] == len(c.gates)
    tally = {}
    for sec, op in _naive_lowered(circ):
        cnot, single = tally.get(sec, (0, 0))
        tally[sec] = (cnot + 1, single) if op.controls else (cnot, single + 1)
    for rep in (count_resources(circ, name), count_resources(low, name)):
        assert {sec: (t.cnot, t.single_qubit) for sec, t in rep.sections.items()} == tally
    assert count_resources(low, name).depth == count_resources(circ, name).depth


def _mixed_controlled_gates():
    rng = np.random.default_rng(32)
    ops = []
    for m in range(7):
        controls = tuple(rng.permutation(7)[:m].tolist())
        target = next(t for t in range(7) if t not in controls)
        values = tuple(rng.integers(0, 2, m).tolist())
        ops.append(GateOp("MCX", (target,), controls, values))
        ops.append(GateOp("RY", (target,), controls, values, (float(rng.uniform(-3, 3)),)))
        ops.append(GateOp("H", (target,), controls, values))
    return ops


def test_iter_lowered_equals_naive_expansion_for_mixed_polarity_controls():
    circ = CircuitIR(RegisterLayout(n_r0=7, n_a=0))
    circ.add_section("body", _mixed_controlled_gates())
    stream = list(iter_lowered(circ))
    assert _exact(stream) == _exact(_naive_lowered(circ))
    assert all(_is_basis(op) for _, op in stream)


@pytest.mark.parametrize("index", range(12))  # 0-3 controls of MCX, RY and H
def test_templated_lowering_of_mixed_polarity_controls_is_exact(index):
    op = _mixed_controlled_gates()[index]
    lowered = lower_op(op)
    again = lower_op(op)  # served from the template made by the first call
    assert _exact(("", o) for o in lowered) == _exact(("", o) for o in again)
    np.testing.assert_allclose(circuit_unitary(lowered, 7), _dense_op(op, 7), atol=1e-10)


def _lowering_digest(circ: CircuitIR) -> str:
    """sha256 of the lowered gates, every parameter by its float bits."""
    h = hashlib.sha256()
    for op in lower_circuit(circ).gates:
        row = (op.kind, [int(q) for q in op.targets], [int(q) for q in op.controls],
               [int(v) for v in op.control_values], [float(p).hex() for p in op.params])
        h.update(repr(row).encode())
    return h.hexdigest()


# recorded from the earlier, separately written lowering: any change to a
# lowered gate, or to one bit of an angle, fails here
_FROZEN_LOWERING = {
    "single": "3293544c19c298e95349fdab7ceeb2989e51efbbce00875282230601047bb67f",
    "stream-function": "964bb48253e6c70ebbee69faf5dd3c157e380d8ffd9443662397cab98350a002",
    "vorticity": "0c30adc6bc30704e39dfcb1c6b64405b3aaa0a8dcc8eca946314a6da345b4d4d",
    "stream-function-nb": "cfcbabbf1d7bc8b3cb618da13f2c6154a40cf25036adf3061d1d47f3fea9e7f0",
    "vorticity-nb": "d3bf0b6b52565f59e7128e93f645449c592bbbb3fccee3d0eac8fe9452b5a802",
    "advection-d2q5": "f8f6c9578dda382d621e35debe405deab90fcf6caf3d70b059ccb31424e4044a",
}


def test_lowering_matches_the_frozen_gates_bit_for_bit():
    # every PREP, BLOCK, MCX and H the builders emit, angles to the last bit
    circuits = developed_cavity_circuits(2)
    circuits["advection-d2q5"] = build_advection_diffusion_circuit(D2Q5, 4, np.arange(1.0, 17.0) / 16.0, (0.1, -0.05))
    assert {name: _lowering_digest(circ) for name, circ in circuits.items()} == _FROZEN_LOWERING


# ---------------------------------------------------------------------------
# whole-pipeline builders at their smallest extent
# ---------------------------------------------------------------------------


def _pipeline_inputs():
    rng = np.random.default_rng(11)
    field = 0.1 + 0.3 * rng.random((2, 2))
    source = 0.05 * rng.standard_normal((2, 2))
    velocity_fields = 0.1 * rng.uniform(-1.0, 1.0, (2, 2, 2))
    return field, source, velocity_fields


_PIPELINE_BUILDERS = {
    "advection": lambda f, s, vel, **kw: build_advection_diffusion_circuit(D2Q5, 2, f, (0.1, -0.05), **kw),
    "stream-function": lambda f, s, vel, **kw: build_stream_function_circuit(D2Q5, 2, f, s, **kw),
    "vorticity": lambda f, s, vel, **kw: build_vorticity_circuit(D2Q5, 2, f, vel, **kw),
    "single": lambda f, s, vel, **kw: build_single_cavity_circuit(D2Q5, 2, f, s, f, vel, **kw),
}


@pytest.mark.parametrize("name", sorted(_PIPELINE_BUILDERS))
def test_builder_without_encode_drops_only_the_encode_span(name):
    # the encode section is exactly one PREP at index 0; the body follows it
    circ = _PIPELINE_BUILDERS[name](*_pipeline_inputs())
    assert circ.sections[0] == ("encode", 0, 1)
    (prep,) = circ.iter_section("encode")
    assert prep.kind == "PREP" and prep.targets == circ.layout.encoded_qubits
    assert all(sec != "encode" and lo >= 1 for sec, lo, _ in circ.sections[1:])
    body = circ.section_ops([name for name, _, _ in circ.sections[1:]])
    assert body == circ.gates[1:] and all(op.kind != "PREP" for op in body)


@pytest.mark.parametrize("name", sorted(_PIPELINE_BUILDERS))
def test_simulator_runs_lowered_pipeline_like_the_reference(name):
    circ = _PIPELINE_BUILDERS[name](*_pipeline_inputs())
    n = circ.n_qubits
    assert n <= 8
    lowered = lower_circuit(circ)
    # the body on random amplitudes
    load, amps = random_load(n, 3)
    body = circ.gates[1:]
    low_body = lowered.section_ops([name for name, _, _ in lowered.sections[1:]])
    reference = apply_ops_numpy(amps, body, n)
    direct = run_from_zero(n, load + body).amplitudes
    low = run_from_zero(n, load + low_body).amplitudes
    np.testing.assert_allclose(direct, reference, rtol=0, atol=1e-10)
    np.testing.assert_allclose(low, reference, rtol=0, atol=1e-10)
    # the whole circuit, PREP first, from |0>
    reference = apply_ops_numpy(_ket0(n), circ.gates, n)
    direct = run_from_zero(n, circ.gates).amplitudes
    low = run_from_zero(n, lowered.gates).amplitudes
    np.testing.assert_allclose(direct, reference, rtol=0, atol=1e-10)
    np.testing.assert_allclose(low, reference, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def test_iter_section_rejects_unknown_name():
    circ = CircuitIR(RegisterLayout(n_r0=1))
    circ.add_section("encode", [GateOp("H", (0,))])
    with pytest.raises(ConfigurationError, match="no section"):
        list(circ.iter_section("macro"))


def test_section_ops_concatenates_repeats():
    circ = CircuitIR(RegisterLayout(n_r0=2))
    circ.add_section("stage", [GateOp("H", (0,))])
    circ.add_section("other", [GateOp("X", (1,))])
    circ.add_section("stage", [GateOp("H", (1,))])
    ops = circ.section_ops(["stage"])
    assert ops == [GateOp("H", (0,)), GateOp("H", (1,))]
