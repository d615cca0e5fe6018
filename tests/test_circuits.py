"""Circuit construction and lowering.

Verification runs on three mutually checking paths: a dense matrix builder
written here from the gate definitions, the module's fancy-indexing
``apply_ops_numpy``, and (at solver level) the compiled kernels. Lowered gate
lists must match their parents as unitaries, and the standard decompositions
must land on their known CNOT counts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbm.circuits import (
    CircuitIR,
    GateOp,
    RegisterLayout,
    apply_ops_numpy,
    build_advection_diffusion_circuit,
    build_boundary_ops,
    build_collision_ops,
    build_macro_ops,
    build_shift_ops,
    build_single_cavity_circuit,
    build_state_prep,
    build_stream_function_circuit,
    build_streaming_ops,
    build_vorticity_circuit,
    cavity_wall_mask,
    circuit_from_text,
    circuit_to_text,
    circuit_unitary,
    encoding_vector,
    gate_matrix_1q,
    iter_lowered,
    lower_circuit,
    lower_op,
)
from qlbm.errors import CoefficientRangeError, ConfigurationError
from qlbm.lattice import D1Q2, D1Q3, D2Q5, stream_periodic
from qlbm.statevector import QuantumState, apply_circuit

# ---------------------------------------------------------------------------
# dense reference, independent of the module's application paths
# ---------------------------------------------------------------------------


def _dense_op(op: GateOp, n_qubits: int) -> np.ndarray:
    """Matrix of one gate, built directly from the definition."""
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    if op.kind == "DIAG":
        phases = np.asarray(op.params)
        for i in range(dim):
            if all(((i >> q) & 1) == v for q, v in zip(op.controls, op.control_values)):
                sub = 0
                for pos, q in enumerate(op.targets):
                    sub |= ((i >> q) & 1) << pos
                mat[i, i] = np.exp(1j * phases[sub])
            else:
                mat[i, i] = 1.0
        return mat
    if op.kind == "GPHASE":
        return np.exp(1j * op.params[0]) * np.eye(dim)
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


def test_gate_op_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown gate kind"):
        GateOp("CZ", (0,))


def test_gate_op_rejects_unpaired_controls():
    with pytest.raises(ConfigurationError, match="pair up"):
        GateOp("X", (0,), controls=(1, 2), control_values=(1,))


def test_gate_op_rejects_bad_control_values():
    with pytest.raises(ConfigurationError, match="0 or 1"):
        GateOp("X", (0,), controls=(1,), control_values=(2,))


def test_gate_op_rejects_overlapping_qubits():
    with pytest.raises(ConfigurationError, match="overlapping"):
        GateOp("X", (0,), controls=(0,), control_values=(1,))


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
    ops = build_shift_ops(tuple(range(m)), step)
    u = circuit_unitary(ops, m)
    # column x should be the basis vector x + step (mod 2^m)
    expected = np.zeros_like(u)
    for x in range(1 << m):
        expected[(x + step) % (1 << m), x] = 1.0
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_shift_controls_gate_the_whole_ladder():
    # With a 0-valued control the register must not move.
    ops = build_shift_ops((0, 1), +1, controls=(2,), control_values=(1,))
    u = circuit_unitary(ops, 3)
    np.testing.assert_allclose(u[:4, :4], np.eye(4), atol=1e-12)


def test_shift_rejects_bad_step():
    with pytest.raises(ConfigurationError, match="step"):
        build_shift_ops((0, 1), 2)


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
    vec = rng.standard_normal(1 << layout.qubit_count).astype(complex)
    vec[8:] = 0.0  # ancilla 0 block only
    out = apply_ops_numpy(vec, ops, layout.qubit_count)
    np.testing.assert_allclose(out[:8], k * vec[:8], atol=1e-12)


def test_collision_block_rejects_out_of_range_coefficients():
    layout = RegisterLayout(n_r0=1, n_d=1)
    with pytest.raises(CoefficientRangeError, match="max \\|k\\|"):
        build_collision_ops(layout, [0.5, 1.5, 0.0, 0.0], layout.r0 + layout.d)


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
    ops = build_state_prep(v, (0, 1, 2))
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    out = apply_ops_numpy(state, ops, 3)
    np.testing.assert_allclose(out.real, v, atol=1e-10)
    np.testing.assert_allclose(out.imag, 0.0, atol=1e-12)


def test_state_prep_rejects_unnormalized_vector():
    with pytest.raises(ConfigurationError, match="normalized"):
        build_state_prep(np.ones(4), (0, 1))


def test_state_prep_rejects_wrong_length():
    with pytest.raises(ConfigurationError, match="does not fit"):
        build_state_prep(np.ones(3) / np.sqrt(3), (0, 1))


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
    vec = encoding_vector(layout, D2Q5, field, source=source, source_scale=0.25)
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
        GateOp("DIAG", (0, 2), controls=(1,), control_values=(0,), params=tuple(rng.uniform(-2, 2, 4))),
        GateOp("MCX", (2,), (0, 1), (1, 0)),
        GateOp("PHASE", (2,), params=(0.3,)),
        GateOp("GPHASE", (), params=(0.11,)),
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
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    p = []
    for r in range(2):
        for c in range(2):
            p += [float(q[r, c].real), float(q[r, c].imag)]
    op = GateOp("U1Q", (0,), controls=(1,), control_values=(1,), params=tuple(p))
    np.testing.assert_allclose(circuit_unitary(lower_op(op), 2), _dense_op(op, 2), atol=1e-12)


def test_diag_lowering_is_exact_with_expected_cnots():
    rng = np.random.default_rng(13)
    op = GateOp("DIAG", (0, 1, 2), params=tuple(rng.uniform(-3, 3, 8)))
    low = lower_op(op)
    assert _cnot_count(low) == 2**3 - 2
    np.testing.assert_allclose(circuit_unitary(low, 3), _dense_op(op, 3), atol=1e-12)


def test_controlled_diag_merges_controls_into_larger_diag():
    rng = np.random.default_rng(14)
    op = GateOp("DIAG", (0,), controls=(1, 2), control_values=(1, 0), params=tuple(rng.uniform(-1, 1, 2)))
    low = lower_op(op)
    assert all(o.kind in ("RZ", "GPHASE", "PHASE") or (o.kind == "MCX" and len(o.controls) == 1) for o in low)
    np.testing.assert_allclose(circuit_unitary(low, 3), _dense_op(op, 3), atol=1e-12)


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
            assert op.kind in ("H", "X", "RY", "RZ", "PHASE", "U1Q", "GPHASE")
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
    assert circ.section_names() == ["encode", "collision", "streaming", "macro"]
    low = lower_circuit(circ)
    assert low.section_names() == ["encode", "collision", "streaming", "macro"]


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
    build = _PIPELINE_BUILDERS[name]
    full = build(*_pipeline_inputs(), encode=True)
    bare = build(*_pipeline_inputs(), encode=False)
    (enc_start, enc_stop), = [(lo, hi) for sec, lo, hi in full.sections if sec == "encode"]
    assert enc_start == 0 and enc_stop > 0
    assert bare.layout == full.layout
    assert bare.gates == full.gates[enc_stop:]
    assert bare.sections == [(sec, lo - enc_stop, hi - enc_stop) for sec, lo, hi in full.sections if sec != "encode"]


@pytest.mark.parametrize("name", sorted(_PIPELINE_BUILDERS))
def test_simulator_runs_lowered_pipeline_like_the_reference(name):
    circ = _PIPELINE_BUILDERS[name](*_pipeline_inputs(), encode=True)
    n = circ.n_qubits
    assert n <= 8
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    reference = apply_ops_numpy(amps, circ.gates, n)
    direct = apply_circuit(QuantumState(n, amps.copy()), circ.gates).amplitudes
    lowered = apply_circuit(QuantumState(n, amps.copy()), lower_circuit(circ).gates).amplitudes
    np.testing.assert_allclose(direct, reference, rtol=0, atol=1e-10)
    np.testing.assert_allclose(lowered, reference, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# text round trip
# ---------------------------------------------------------------------------


def test_circuit_text_round_trip_is_exact():
    field = np.full(8, 0.11)
    field[3] = 0.37
    circ = build_advection_diffusion_circuit(D1Q3, 8, field, (0.2,))
    clone = circuit_from_text(circuit_to_text(circ))
    assert clone.gates == circ.gates
    assert clone.sections == circ.sections
    assert clone.layout == circ.layout


def test_circuit_text_rejects_bad_header():
    with pytest.raises(ConfigurationError, match="header"):
        circuit_from_text("something else\nregisters r0=1 r1=0 d=0 s=0 b=0 a=1\n")


def test_circuit_text_rejects_malformed_gate_line():
    text = "qlbm-circuit v1\nregisters r0=1 r1=0 d=0 s=0 b=0 a=1\nH\n"
    with pytest.raises(ConfigurationError, match="malformed"):
        circuit_from_text(text)


def test_circuit_text_rejects_out_of_range_section():
    text = "qlbm-circuit v1\nregisters r0=1 r1=0 d=0 s=0 b=0 a=1\nsection foo 0 5\nH 0\n"
    with pytest.raises(ConfigurationError, match="span"):
        circuit_from_text(text)


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
