"""Resource counting: hand-checked small circuits, generator consistency, and
the combined-versus-pair cavity comparison numbers."""

import csv
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import qlbm.resources
from qlbm.circuits import (
    GATE_KINDS,
    CircuitIR,
    GateOp,
    RegisterLayout,
    build_advection_diffusion_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
)
from qlbm.errors import ConfigurationError
from qlbm.lattice import D1Q3, D2Q5
from qlbm.lowering import (
    SlotProgram,
    _block_program,
    _controlled_program,
    _core_program,
    _ladder_program,
    _prep_program,
    _shift_program,
    iter_lowered,
    lower_circuit,
    lower_op,
    slot_programs,
)
from qlbm.resources import (
    GateDurationTable,
    build_comparison_circuits,
    compare_single_vs_frugal,
    count_resources,
    scaling_sweep,
    write_comparison_csv,
    write_comparison_json,
)
from qlbm.solver import _selection
from qlbm.statevector import ZeroState, apply_circuit, plan_circuit

from dense_reference import circuit_unitary
from prepared_state import developed_cavity_circuits

_1Q = GateDurationTable().single_qubit
_CX = GateDurationTable().cnot
# single-qubit rows dearer than CNOTs, so the longest runtime path is not the longest depth path
_SLOW_1Q = GateDurationTable(single_qubit=_CX, cnot=_1Q)
_TABLES = (GateDurationTable(), _SLOW_1Q)
_DATA = Path(__file__).parent / "data"


def _tiny_circuit(ops, n_qubits=3):
    circ = CircuitIR(RegisterLayout(n_r0=n_qubits, n_a=0))
    circ.add_section("body", ops)
    return circ


def _comparison_and_boundary_free_circuits(extent):
    """The three circuits a comparison counts, and the boundary-free pair built at rest like them."""
    rest, still = np.zeros((extent, extent)), np.zeros((2, extent, extent))
    return build_comparison_circuits(extent) | {
        "stream-function-nb": build_stream_function_circuit(D2Q5, extent, rest, rest, boundary=False),
        "vorticity-nb": build_vorticity_circuit(D2Q5, extent, rest, still, boundary=False),
    }


def test_duration_defaults():
    table = GateDurationTable()
    assert table.single_qubit == 3.5e-8
    assert table.cnot == 5.3e-7


@pytest.mark.parametrize("field", ["single_qubit", "cnot"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, -1e-12, "a", None, True, 1j])
def test_duration_table_rejects_what_is_not_a_finite_real_at_least_zero(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        GateDurationTable(**{field: bad})


def test_duration_table_keeps_each_duration_as_a_float():
    table = GateDurationTable(np.float32(0.5), 0)
    assert (table.single_qubit, table.cnot) == (0.5, 0.0)
    assert type(table.single_qubit) is float and type(table.cnot) is float


@pytest.mark.parametrize("table", [*_TABLES, GateDurationTable(0, 0), GateDurationTable(0.75, 3)])
def test_integer_weights_are_the_durations_over_one_power_of_two(table):
    w1, wx, scale = table.integer_weights()
    assert Fraction(w1, scale) == Fraction(table.single_qubit)
    assert Fraction(wx, scale) == Fraction(table.cnot)
    assert scale & (scale - 1) == 0


@pytest.mark.parametrize("bad", [(1e-8, 1e-7), {"single_qubit": 1e-8, "cnot": 1e-7}, 0])
def test_a_duration_table_that_is_not_one_is_rejected_before_anything_is_built(bad, monkeypatch):
    monkeypatch.setattr("qlbm.resources.build_comparison_circuits", lambda extent: pytest.fail("built"))
    with pytest.raises(ConfigurationError, match="GateDurationTable"):
        count_resources(_tiny_circuit([GateOp("H", (0,))]), "bad", bad)
    with pytest.raises(ConfigurationError, match="GateDurationTable"):
        compare_single_vs_frugal(2, bad)
    with pytest.raises(ConfigurationError, match="GateDurationTable"):
        scaling_sweep([2, 4], bad)


@pytest.mark.parametrize("circ", [None, "circuit", [GateOp("H", (0,))]], ids=["none", "string", "gate-list"])
def test_counting_what_is_not_a_circuit_is_a_configuration_error_naming_it(circ):
    with pytest.raises(ConfigurationError, match="circ must be a CircuitIR"):
        count_resources(circ, "x")


@pytest.mark.parametrize("table", [GateDurationTable(5e-324, 1e308), GateDurationTable(0, 1e308)])
def test_a_runtime_too_large_for_a_float_is_a_configuration_error_naming_the_durations(table):
    # the exact runtime is an int over a power of two; past the largest float it cannot be rounded to one
    names = re.escape(f"single_qubit={table.single_qubit!r} and cnot={table.cnot!r}")
    with pytest.raises(ConfigurationError, match=names):
        count_resources(_tiny_circuit([GateOp("MCX", (1,), (0,), (1,)), GateOp("MCX", (0,), (1,), (1,))]), "big", table)
    with pytest.raises(ConfigurationError, match=names):
        compare_single_vs_frugal(2, table)


def test_count_serial_chain_by_hand():
    circ = _tiny_circuit([
        GateOp("H", (0,)),
        GateOp("MCX", (1,), (0,), (1,)),
        GateOp("H", (1,)),
    ])
    rep = count_resources(circ, "chain")
    assert rep.cnot == 1
    assert rep.single_qubit == 2
    assert rep.total == 3
    assert rep.depth == 3
    assert rep.runtime_seconds == pytest.approx(2 * _1Q + _CX)


def test_count_parallel_gates_share_a_layer():
    circ = _tiny_circuit([
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        GateOp("MCX", (1,), (0,), (1,)),
    ])
    rep = count_resources(circ, "parallel")
    assert rep.depth == 2
    assert rep.runtime_seconds == pytest.approx(_1Q + _CX)


def test_count_gives_a_section_without_gates_no_tally():
    base = _tiny_circuit([GateOp("H", (0,))])
    with_empty = _tiny_circuit([GateOp("H", (0,))])
    with_empty.add_section("empty", [])
    a = count_resources(base, "a")
    b = count_resources(with_empty, "b")
    assert (a.cnot, a.single_qubit, a.depth) == (b.cnot, b.single_qubit, b.depth)
    assert list(b.sections) == ["body"]


def test_count_lowers_toffoli_to_known_split():
    circ = _tiny_circuit([GateOp("MCX", (2,), (0, 1), (1, 1))])
    rep = count_resources(circ, "toffoli")
    assert rep.cnot == 6
    assert rep.single_qubit == 9


def test_section_tallies_sum_to_totals():
    field = np.full(8, 0.1)
    field[4] = 0.3
    circ = build_advection_diffusion_circuit(D1Q3, 8, field, (0.2,))
    rep = count_resources(circ, "advdiff")
    assert set(rep.sections) == {"encode", "collision", "streaming", "macro"}
    assert sum(t.cnot for t in rep.sections.values()) == rep.cnot
    assert sum(t.single_qubit for t in rep.sections.values()) == rep.single_qubit


def test_streamed_counts_match_materialized_lowering():
    field = np.full(8, 0.1)
    field[2] = 0.5
    circ = build_advection_diffusion_circuit(D1Q3, 8, field, (0.1,))
    rep = count_resources(circ, "advdiff")

    low = lower_circuit(circ)
    assert rep.cnot == sum(1 for op in low.gates if op.kind == "MCX")
    assert rep.single_qubit == sum(1 for op in low.gates if op.kind != "MCX")

    # independent depth recomputation over the materialized list
    layers = np.zeros(circ.n_qubits, dtype=int)
    for op in low.gates:
        layer = max(layers[q] for q in op.qubits) + 1
        for q in op.qubits:
            layers[q] = layer
    assert rep.depth == layers.max()

    # the generator yields the same ops in the same order
    assert [op for _, op in iter_lowered(circ)] == low.gates


def _recount(circ: CircuitIR, durations: GateDurationTable) -> tuple[int, int, int, float]:
    """(cnot, single_qubit, depth, runtime) over the materialized lowering, runtime summed exactly."""
    t1q, tcx = Fraction(durations.single_qubit), Fraction(durations.cnot)
    layers = [0] * circ.n_qubits
    ready = [Fraction(0)] * circ.n_qubits
    cnot = single = 0
    for op in lower_circuit(circ).gates:
        if op.kind == "MCX":
            cnot += 1
        else:
            single += 1
        layer = max(layers[q] for q in op.qubits) + 1
        done = max(ready[q] for q in op.qubits) + (tcx if op.kind == "MCX" else t1q)
        for q in op.qubits:
            layers[q], ready[q] = layer, done
    return cnot, single, max(layers), float(max(ready))


def _counted(circ: CircuitIR, durations: GateDurationTable) -> tuple[int, int, int, float]:
    rep = count_resources(circ, "counted", durations)
    return rep.cnot, rep.single_qubit, rep.depth, rep.runtime_seconds


# random floats never make a BLOCK's RZ stages vanish; coefficients of 1
# everywhere do, and these include the wall projector's
_FEW_COEFFICIENTS = st.sampled_from([0.0, 1.0, -1.0])


@st.composite
def _controlled_gates(draw, max_controls=7):
    n = draw(st.integers(2, 8))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        qubits = draw(st.permutations(range(n)))
        if kind == "PREP":
            targets = tuple(qubits[: draw(st.integers(1, min(4, n)))])
            size = 1 << len(targets)
            # a vector the oracle can lower: its peak is a normal float
            vector = draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size)
                          .filter(lambda v: max(map(abs, v)) >= np.finfo(float).tiny))
            ops.append(GateOp("PREP", targets, params=vector))
            continue
        if kind == "SHIFT":  # a register of consecutive qubits, controls among the rest
            width = draw(st.integers(1, min(4, n)))
            low = draw(st.integers(0, n - width))
            register = tuple(range(low, low + width))
            others = [q for q in qubits if q not in register]
            m = draw(st.integers(0, min(len(others), max_controls + 1 - width)))
            values = tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
            ops.append(GateOp("SHIFT", register, tuple(others[:m]), values, (draw(st.sampled_from([1, -1])),)))
            continue
        n_targets = draw(st.integers(2, min(3, n))) if kind == "BLOCK" else 1
        m = draw(st.integers(0, min(n - n_targets, max_controls)))
        targets = tuple(qubits[:n_targets])
        controls = tuple(qubits[n_targets : n_targets + m])
        values = tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        n_params = {"MCX": 0, "H": 0, "X": 0, "BLOCK": 1 << (n_targets - 1)}.get(kind, 1)
        if kind == "BLOCK":
            values_of = _FEW_COEFFICIENTS if draw(st.booleans()) else st.floats(-1, 1)
        else:
            values_of = st.floats(-3, 3)
        params = tuple(draw(st.lists(values_of, min_size=n_params, max_size=n_params)))
        ops.append(GateOp(kind, targets, controls, values, params))
    return n, ops


@settings(max_examples=60, deadline=None)
@given(_controlled_gates())
def test_counts_match_the_materialized_lowering_on_random_controlled_gates(case):
    n, ops = case
    circ = _tiny_circuit(ops, n_qubits=n)
    for table in _TABLES:
        assert _counted(circ, table) == _recount(circ, table)


@settings(max_examples=60, deadline=None)
@given(_controlled_gates())
def test_slot_programs_run_the_rows_of_the_lowering(case):
    # slot for slot, the rows counted are the lowered gates
    _, ops = case
    for op in ops:
        program, qubits = slot_programs(op)
        counted = [(qubits[t], qubits[c] if c >= 0 else None) for t, c in program.rows]
        lowered = lower_op(op)
        assert counted == [(low.targets[0], low.controls[0] if low.controls else None) for low in lowered]
        assert program.cnot == sum(1 for low in lowered if low.controls)
        assert program.single_qubit == sum(1 for low in lowered if not low.controls)


@settings(max_examples=40, deadline=None)
@given(_controlled_gates())
def test_each_lowered_gate_is_the_checked_gate_of_its_fields(case):
    # the lowering makes its basis gates without GateOp's checks; each is the one the checks would make
    _, ops = case
    for op in ops:
        for low in lower_op(op):
            checked = GateOp(low.kind, low.targets, low.controls, low.control_values, low.params)
            assert vars(low) == vars(checked)
            assert low == checked and hash(low) == hash(checked)
            assert type(low.params) is tuple and all(type(p) is float for p in low.params)


def _walked_paths(program, w1, wx):
    """A program's longest paths, one walk of its rows per source slot.

    Per slot i its rows touch, ascending: ``(i, (slot j, ...), (W_ij, ...))``,
    each slot j that reaches it ascending, ``W_ij`` the heaviest path from
    j's input to i's output.
    """
    rows = program.rows
    slots = sorted({s for row in rows for s in row if s >= 0})
    paths = {i: {} for i in slots}
    for j in slots:
        reach = [None] * (slots[-1] + 1)  # heaviest path from j's input to each slot it has reached
        reach[j] = 0
        for t, c in rows:
            if c < 0:
                if reach[t] is not None:
                    reach[t] += w1
            else:
                u, v = reach[t], reach[c]
                if u is None or (v is not None and v > u):
                    u = v
                if u is not None:
                    reach[t] = reach[c] = u + wx
        for i in slots:
            if reach[i] is not None:
                paths[i][j] = reach[i]
    return tuple((i, tuple(sources), tuple(sources.values())) for i, sources in paths.items())


def _expanded(terms):
    """Terms as the longest paths of :func:`_walked_paths`: each output slot with its sources and weights."""
    return tuple(sorted((i, ins, tuple(shift + w for w in b)) for outs, a, ins, b in terms for i, shift in zip(outs, a)))


# depth, and the two duration tables, whose critical paths differ
_WEIGHTS = ((1, 1), *(table.integer_weights()[:2] for table in _TABLES))


def _assert_terms_are_walked(programs):
    for program in programs:
        for w1, wx in _WEIGHTS:
            assert _expanded(program.terms(w1, wx)) == _walked_paths(program, w1, wx)


def _gate_programs(ops):
    """Each gate's program and the programs it is made of, once each."""
    programs = {}
    for op in ops:
        program = slot_programs(op)[0]
        for p in (program, *(part for part, _ in program.parts)):
            programs[id(p)] = p
    return programs.values()


@settings(max_examples=40, deadline=None)
@given(_controlled_gates())
def test_terms_of_the_drawn_programs_match_a_walk_per_source(case):
    _, ops = case
    _assert_terms_are_walked(_gate_programs(ops))


def test_terms_of_the_comparison_programs_match_a_walk_per_source():
    ops = [op for circ in build_comparison_circuits(4).values() for op in circ.gates]
    _assert_terms_are_walked(_gate_programs(ops))


def _through_paths(paths, before):
    after = list(before)
    for i, sources, weights in paths:
        after[i] = max(before[j] + w for j, w in zip(sources, weights))
    return after


def _through_terms(terms, before):
    after = list(before)
    for outs, a, ins, b in terms:
        peak = max(before[j] + w for j, w in zip(ins, b))
        for i, shift in zip(outs, a):
            after[i] = peak + shift
    return after


def _assert_terms_apply_the_walked_paths(programs, rng):
    for program in programs:
        for w1, wx in _WEIGHTS:
            paths, terms = _walked_paths(program, w1, wx), program.terms(w1, wx)
            assert program.terms(w1, wx) is terms  # cached
            size = 1 + max(i for i, _, _ in paths)
            for before in rng.integers(0, 10 * (w1 + wx) + 10, size=(3, size)).tolist():
                assert _through_terms(terms, before) == _through_paths(paths, before)


@settings(max_examples=40, deadline=None)
@given(_controlled_gates())
def test_the_terms_of_the_drawn_programs_apply_their_walked_paths(case):
    _, ops = case
    _assert_terms_apply_the_walked_paths(_gate_programs(ops), np.random.default_rng(len(ops)))


@pytest.mark.parametrize("extent", [2, 4, 8, 16, 32])
def test_the_terms_of_the_comparison_programs_apply_their_walked_paths(extent):
    ops = [op for circ in _comparison_and_boundary_free_circuits(extent).values() for op in circ.gates]
    _assert_terms_apply_the_walked_paths(_gate_programs(ops), np.random.default_rng(extent))


@pytest.mark.parametrize("extent", [2, 4, 8, 16])
def test_every_gate_of_the_comparison_factors_into_one_term(extent):
    # what keeps the count linear in each gate's slots: every transfer has max-plus rank one
    for circ in _comparison_and_boundary_free_circuits(extent).values():
        for op in circ.gates:
            program = slot_programs(op)[0]
            for w1, wx in _WEIGHTS:
                assert len(program.terms(w1, wx)) == 1, (op.kind, w1, wx)


@pytest.mark.parametrize("rows", [((1, 0), (2, 1)), ((2, 1), (1, 0))], ids=["sources-grow", "sources-shrink"])
def test_terms_of_a_transfer_that_does_not_factor_match_a_walk_per_source(rows):
    # the first output slot has fewer sources than a later one, or more
    program = SlotProgram(rows)
    assert all(len(program.terms(w1, wx)) > 1 for w1, wx in _WEIGHTS)
    _assert_terms_are_walked([program])


def test_a_transfer_that_does_not_factor_is_counted_one_term_per_output(monkeypatch):
    # rows on two disjoint slots: slot 0 is reached from itself only, slot 1 from itself only
    program = SlotProgram(((0, -1), (1, -1), (1, -1)), [("H", ()), ("X", ()), ("H", ())])
    assert program.terms(2, 5) == (((0,), (0,), (0,), (2,)), ((1,), (0,), (1,), (4,)))
    marker = GateOp("MCX", (2,), (0,), (1,))
    real = slot_programs

    def stand_in(op):
        return (program, (0, 2)) if op is marker else real(op)

    monkeypatch.setattr("qlbm.lowering.slot_programs", stand_in)  # what lower_op replays
    monkeypatch.setattr("qlbm.resources.slot_programs", stand_in)  # what the counter applies
    circ = _tiny_circuit([GateOp("H", (1,)), GateOp("MCX", (2,), (1,), (1,)), GateOp("X", (0,)), marker,
                          GateOp("MCX", (0,), (2,), (1,))])
    assert [(op.targets, op.controls) for op in lower_circuit(circ).gates[-4:-1]] == [((0,), ()), ((2,), ()), ((2,), ())]
    for table in _TABLES:
        assert _counted(circ, table) == _recount(circ, table)


_STAGE_COEFFICIENTS = [1.0, -1.0, 0.0, float(np.nextafter(1.0, 0.0)), 1.0 + 5e-10]


@st.composite
def _blocks(draw, max_qubits):
    n_values = draw(st.integers(1, min(6, max_qubits - 1)))
    m = draw(st.integers(0, min(4, max_qubits - 1 - n_values)))
    qubits = draw(st.permutations(range(n_values + 1 + m)))
    size = 1 << n_values
    coefficient = draw(st.sampled_from([
        st.sampled_from([1.0, 1.0 + 5e-10]),  # every k 1 after clipping: no stage
        st.sampled_from(_STAGE_COEFFICIENTS),
        st.one_of(st.sampled_from(_STAGE_COEFFICIENTS), st.floats(-1, 1)),
    ]))
    k = draw(st.lists(coefficient, min_size=size, max_size=size))
    values = tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    return GateOp("BLOCK", tuple(qubits[: n_values + 1]), tuple(qubits[n_values + 1 :]), values, k)


@pytest.mark.parametrize("k", range(11))
def test_the_ladder_closed_form_matches_its_walk(k):
    program = _ladder_program(k)
    assert program.ladder == (k or None)
    assert all(len(program.terms(w1, wx)) == 1 for w1, wx in _WEIGHTS)  # a closed form over every slot
    _assert_terms_are_walked([program])
    assert program.terms(1, 1) is program.terms(1, 1)  # cached


def test_terms_build_no_rows_of_a_ladder_or_of_a_program_of_parts():
    # only the lowering reads those rows, so counting never builds them
    ladder = SlotProgram(ladder=3)
    composed = SlotProgram(parts=[(ladder, (1, 2, 3, 0)), (SlotProgram(parts=[(ladder, None)]), None)])
    terms = composed.terms(2, 5)
    assert "rows" not in vars(ladder) and "rows" not in vars(composed)
    assert _expanded(terms) == _walked_paths(composed, 2, 5)
    assert (composed.cnot, composed.single_qubit) == (16, 16)
    assert (sum(c >= 0 for _, c in composed.rows), len(composed.gates)) == (16, 16)


def test_counting_the_comparison_circuits_builds_no_rows_of_a_gate_program():
    # a fresh cache, so no earlier lowering has built the rows of a program the count meets
    for cache in (_core_program, _controlled_program, _block_program, _ladder_program, _prep_program, _shift_program):
        cache.cache_clear()
    circuits = _comparison_and_boundary_free_circuits(8)
    for circ in circuits.values():
        count_resources(circ, "count")
    composed = {id(p): p for circ in circuits.values() for op in circ.gates
                for p in [slot_programs(op)[0]] if p.parts or p.ladder}
    assert composed
    assert any(op.kind == "SHIFT" for circ in circuits.values() for op in circ.gates)
    assert not [p for p in composed.values() if "rows" in vars(p) or "gates" in vars(p)]


def _renamed(ops, qubits):
    """``ops`` with qubit ``qubits[i]`` renamed i."""
    slot = {q: i for i, q in enumerate(qubits)}.__getitem__
    return [GateOp(op.kind, tuple(map(slot, op.targets)), tuple(map(slot, op.controls)), op.control_values, op.params)
            for op in ops]


def _assert_lowering_matches_the_dense_unitary(op):
    # the lowering touches only the gate's own qubits, so both unitaries are
    # compared on those alone: the same check as on every qubit of the case,
    # whose unitaries are these two times the identity on the other qubits
    low = lower_op(op)
    assert {q for gate in low for q in gate.qubits} <= set(op.qubits)
    k = len(op.qubits)
    np.testing.assert_allclose(circuit_unitary(_renamed(low, op.qubits), k), circuit_unitary(_renamed([op], op.qubits), k),
                               rtol=0, atol=1e-9)


# the builders emit at most 6 controls at the paper's extent 8; the 7 of
# extent 16 cost seconds each on a dense 8-qubit unitary, so a fixed case
# checks them below, once per run
@settings(max_examples=40, deadline=None)
@given(_controlled_gates(max_controls=6))
def test_lowering_matches_the_dense_unitary_of_each_gate(case):
    # counts and lowering share one description, so only the dense reference keeps it honest
    _, ops = case
    for op in ops:
        if op.kind != "PREP":  # a PREP is a load from |0>, not a unitary
            _assert_lowering_matches_the_dense_unitary(op)


# a BLOCK is counted and lowered with the same all-or-none stages, so its
# angles are what the dense reference checks; at most 8 qubits, as past
# that each dense unitary costs seconds and circuit_unitary takes at most 10
@settings(max_examples=40, deadline=None)
@given(_blocks(max_qubits=8))
def test_lowering_matches_the_dense_unitary_of_each_block(op):
    _assert_lowering_matches_the_dense_unitary(op)


def test_lowering_matches_the_dense_unitary_of_a_seven_control_mcx():
    op = GateOp("MCX", (3,), (5, 0, 7, 1, 6, 2, 4), (1, 0, 1, 1, 0, 0, 1))
    assert sum(1 for gate in lower_op(op) if gate.controls) == 2104
    _assert_lowering_matches_the_dense_unitary(op)


@pytest.mark.parametrize("values", [(0,), (1,), (1, 0), (0, 1), (0, 1, 0), (1, 0, 1)])
def test_a_controlled_x_lowers_and_counts_as_the_mcx_it_is(values):
    controls = tuple(range(1, len(values) + 1))
    x, mcx = GateOp("X", (0,), controls, values), GateOp("MCX", (0,), controls, values)
    assert lower_op(x) == lower_op(mcx)
    for table in _TABLES:
        assert _counted(_tiny_circuit([x], len(values) + 1), table) == _counted(_tiny_circuit([mcx], len(values) + 1), table)
    for op in (x, mcx):
        _assert_lowering_matches_the_dense_unitary(op)
    # one control: one CNOT; two: the six-CNOT Toffoli; three: the recursion over it
    assert count_resources(_tiny_circuit([x], len(values) + 1), "x").cnot == {1: 1, 2: 6, 3: 24}[len(values)]


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_random_controlled_gates_draw_every_gate_kind(kind):
    # a new gate kind must reach the counting and lowering properties above
    find(_controlled_gates(), lambda case: any(op.kind == kind for op in case[1]),
         settings=settings(max_examples=1000, database=None, phases=[Phase.generate]))


@pytest.mark.parametrize("m", range(8))
def test_counts_match_the_materialized_lowering_on_mcx_of_mixed_polarity(m):
    controls = tuple(range(1, m + 1))
    for values in {tuple((i + shift) % 2 for i in range(m)) for shift in (0, 1)} | {(1,) * m}:
        circ = _tiny_circuit([GateOp("H", (m,)), GateOp("MCX", (0,), controls, values)], n_qubits=m + 1)
        for table in _TABLES:
            assert _counted(circ, table) == _recount(circ, table)


# a BLOCK lowers to H on its flag, the RZ stages of its diagonal's level
# walk, and H again; a stage on slot j costs 2^j CNOTs and 2^j RZ. The
# flag's level averages each +arccos(k) with its -arccos(k) to 0, so no
# value slot below it has a stage; the flag's slot and each control's slot
# have one unless every k is 1 (every phase 0)
@pytest.mark.parametrize("targets, controls, values, k, cnot, single", [
    ((0, 1, 2), (), (), [1.0] * 4, 0, 2),  # no stage: the two H alone
    ((0, 1, 2), (3,), (0,), [1.0] * 4, 0, 2),
    ((0, 1, 2), (), (), [0.1, -0.7, 0.1, -0.7], 4, 4 + 2),  # the flag's stage on slot 2
    ((0, 1, 2), (), (), [0.0, 1.0, 1.0, 0.0], 4, 4 + 2),  # a wall projector's coefficients
    ((2, 0, 3), (1,), (1,), [0.1, -0.7, 0.4, 0.9], 4 + 8, 4 + 8 + 2),  # and the control's on slot 3
    ((1, 2), (), (), [0.3, 0.3], 2, 2 + 2),  # one value qubit: no PHASE on its slot 0
])
def test_counts_match_the_materialized_lowering_on_blocks_with_vanishing_levels(
        targets, controls, values, k, cnot, single):
    circ = _tiny_circuit([GateOp("H", (targets[0],)), GateOp("BLOCK", targets, controls, values, k)], n_qubits=4)
    rep = count_resources(circ, "block")
    assert (rep.cnot, rep.single_qubit - 1) == (cnot, single)
    for table in _TABLES:
        assert _counted(circ, table) == _recount(circ, table)


# ---------------------------------------------------------------------------
# cavity comparison
# ---------------------------------------------------------------------------


def test_a_mutated_comparison_report_leaves_the_next_one_alone():
    expected = compare_single_vs_frugal(4).to_dict()
    comp = compare_single_vs_frugal(4)
    comp.reports["single"].cnot = -1
    comp.reports["vorticity"].sections["collision"].cnot = -1
    comp.reports.pop("stream-function-nb")
    assert compare_single_vs_frugal(4).to_dict() == expected


# sha256 of each ``to_dict()`` as sorted-key JSON, recorded before the fields
# were cached and each gate's lowering became one composed program
_COMPARISON_SHA256 = {
    2: "ea6553b8e9cb45a95c219d053931cc033198231d83927328791525073e445b33",
    4: "98cc0ed6d9598b6e38a9aac5817a04ca599968307d1e4edce0726806dd748cfd",
    8: "d6317b63bfb1a305b7dabb7a39fd84fad410a8d977dbc12c55ba88489116c679",
    16: "662a6d560e3705ee8b580c1d560cbeb649c4d0d0d3d8cf4011f1e9254be7077f",
    32: "36a3462e9718bd6e898411ed1d3aa992285dba18c38a8d6423c04edf331cc6f4",
    64: "4e8f9092fb1107106fa0f580e6aa0f86eb415b09ebb87be76601f96759fee479",
    128: "f98870f2ae94ffee983e3b082620d531e81bef157ba2b127a894b4340c3f6223",
}


@pytest.mark.parametrize("extent", sorted(_COMPARISON_SHA256))
def test_comparison_reports_match_the_recorded_ones(extent):
    text = json.dumps(compare_single_vs_frugal(extent).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _COMPARISON_SHA256[extent]


def test_comparison_circuit_variants_and_widths():
    assert list(build_comparison_circuits(8)) == ["single", "stream-function", "vorticity"]
    widths = {"single": 12, "stream-function": 12, "vorticity": 11, "stream-function-nb": 11, "vorticity-nb": 10}
    assert {name: circ.n_qubits for name, circ in _comparison_and_boundary_free_circuits(8).items()} == widths
    assert {name: rep.qubit_count for name, rep in compare_single_vs_frugal(8).reports.items()} == widths


@pytest.mark.parametrize("table", _TABLES, ids=["default", "slow-1q"])
@pytest.mark.parametrize("extent", [2, 4, 8, 16, 32])
def test_each_boundary_free_report_is_the_count_of_the_circuit_built_without_walls(extent, table):
    comp = compare_single_vs_frugal(extent, table)
    assert list(comp.reports) == ["single", "stream-function", "vorticity", "stream-function-nb", "vorticity-nb"]
    circuits = _comparison_and_boundary_free_circuits(extent)
    for name, rep in comp.reports.items():
        assert rep.to_dict() == count_resources(circuits[name], f"{name}@{extent}", table).to_dict(), name
    tallies = [tally for rep in comp.reports.values() for tally in rep.sections.values()]
    assert len({id(tally) for tally in tallies}) == len(tallies)  # mutating one report leaves the others alone


@pytest.mark.parametrize("table", _TABLES, ids=["default", "slow-1q"])
@pytest.mark.parametrize("extent", [2, 4, 8, 16])
def test_each_comparison_report_is_the_count_of_the_circuit_built_from_a_developed_flow(extent, table):
    # the counts are structural: the circuits built at rest count as those that load a developed flow
    reports = compare_single_vs_frugal(extent, table).reports
    circuits = developed_cavity_circuits(extent)
    assert list(reports) == list(circuits)
    for name, rep in reports.items():
        assert rep.to_dict() == count_resources(circuits[name], f"{name}@{extent}", table).to_dict(), name


def test_a_comparison_runs_no_classical_solver(monkeypatch):
    monkeypatch.setattr("qlbm.lattice.solve_cavity_classical", lambda spec: pytest.fail("solved"))
    assert not hasattr(qlbm.resources, "solve_cavity_classical")
    frozen = (_DATA / "comparison_extent8.json").read_text()
    assert json.dumps(compare_single_vs_frugal(8).to_dict(), indent=1) + "\n" == frozen


@pytest.mark.parametrize("control", [False, True], ids=["target", "control"])
def test_a_gate_on_the_wall_flag_before_the_boundary_section_is_rejected(control):
    layout = RegisterLayout(n_r0=2, n_b=1)
    (b,) = layout.b
    on_b = GateOp("MCX", (0,), (b,), (1,)) if control else GateOp("H", (b,))
    circ = CircuitIR(layout)
    circ.add_section("macro", [GateOp("H", (0,)), on_b])
    circ.add_section("boundary", [GateOp("MCX", layout.a, (b,), (1,))])
    with pytest.raises(ConfigurationError, match="wall flag"):
        qlbm.resources._count(circ, "walls", GateDurationTable(), "no-walls")
    assert count_resources(circ, "walls").cnot == 1 + control  # a plain count takes the gate


def test_a_gate_on_the_wall_flag_in_the_boundary_section_is_counted_only_with_the_walls():
    layout = RegisterLayout(n_r0=2, n_b=1)
    circ = CircuitIR(layout)
    circ.add_section("macro", [GateOp("H", (0,))])
    circ.add_section("boundary", [GateOp("MCX", layout.a, layout.b, (1,)), GateOp("H", layout.b)])
    circ.add_section("macro", [GateOp("H", (1,))])  # after the first boundary span: cut off as well
    walls, no_walls = qlbm.resources._count(circ, "walls", GateDurationTable(), "no-walls")
    assert (walls.qubit_count, walls.cnot, walls.single_qubit, walls.depth) == (4, 1, 3, 2)
    assert (no_walls.qubit_count, no_walls.cnot, no_walls.single_qubit, no_walls.depth) == (3, 0, 1, 1)
    assert no_walls.label == "no-walls" and list(no_walls.sections) == ["macro"]


def test_a_comparison_whose_pair_touches_the_wall_flag_early_is_rejected(monkeypatch):
    built = build_comparison_circuits(2)
    early = CircuitIR(built["vorticity"].layout)
    early.add_section("encode", [GateOp("MCX", (0,), early.layout.b, (1,))])
    early.add_section("boundary", [])
    monkeypatch.setattr("qlbm.resources.build_comparison_circuits", lambda extent: {**built, "vorticity": early})
    with pytest.raises(ConfigurationError, match="wall flag"):
        compare_single_vs_frugal(2)


def test_a_comparison_builds_the_three_counted_circuits_once_each(monkeypatch):
    calls = []
    for name in ("build_single_cavity_circuit", "build_stream_function_circuit", "build_vorticity_circuit"):
        real = getattr(qlbm.resources, name)
        monkeypatch.setattr(qlbm.resources, name,
                            lambda *args, _real=real, _name=name, **kwargs: calls.append(_name) or _real(*args, **kwargs))
    compare_single_vs_frugal(4)
    assert sorted(calls) == ["build_single_cavity_circuit", "build_stream_function_circuit", "build_vorticity_circuit"]


def test_comparison_at_extent_eight_frozen_numbers():
    comp = compare_single_vs_frugal(8)
    assert comp.single_cnot == 10710
    assert comp.single_depth == 20078
    assert comp.frugal_nb_cnot == 4708
    assert comp.concurrent_depth_nb == 4500
    assert comp.cnot_gap == 6002
    assert comp.depth_gap == 15578
    assert comp.cnot_reduction == pytest.approx(0.560, abs=0.001)
    assert comp.depth_reduction == pytest.approx(0.776, abs=0.001)


def test_comparison_at_extent_eight_matches_the_frozen_report():
    # every count, depth, runtime and section tally, with section order
    frozen = (_DATA / "comparison_extent8.json").read_text()
    assert json.dumps(compare_single_vs_frugal(8).to_dict(), indent=1) + "\n" == frozen


def test_comparison_csv_matches_the_frozen_bytes(tmp_path):
    path = tmp_path / "resources.csv"
    write_comparison_csv(path, scaling_sweep([2, 4, 8]))
    assert path.read_bytes() == (_DATA / "comparison_extents_2_4_8.csv").read_bytes()


def test_comparison_at_extent_64_matches_the_parent():
    # the extent-64 encode PREP spans 16 qubits and streaming has 9-control
    # MCX gates, past the frozen extents <= 8; each runtime is the exact
    # longest duration path, rounded once
    got = {
        name: (r.cnot, r.single_qubit, r.depth, r.runtime_seconds)
        for name, r in compare_single_vs_frugal(64).reports.items()
    }
    assert got == {
        "single": (394998, 604865, 750292, 0.203780695),
        "stream-function": (107446, 142471, 208093, 0.05743296),
        "vorticity": (107438, 142462, 208125, 0.057440055000000004),
        "stream-function-nb": (103350, 138373, 200028, 0.05515435),
        "vorticity-nb": (103342, 138364, 200060, 0.055161445),
    }


def test_the_counted_circuits_run_like_the_built_ones_at_the_headline_size():
    # the lowered gates are what the counts describe; through the simulator,
    # with the solver's selection, they must give the built circuits' amplitudes
    for name, circ in developed_cavity_circuits(8).items():
        lowered = lower_circuit(circ).gates
        for sector in (0, 1) if circ.layout.n_s else (0,):
            select = _selection(circ.layout, sector)
            runs = [apply_circuit(plan_circuit(ZeroState(circ.n_qubits), ops, select), ops)
                    for ops in (circ.gates, lowered)]
            (built, built_probs), (low, low_probs) = runs
            # selected in another order, so each conditional probability differs, but not their product
            assert set(low_probs) == set(built_probs), (name, sector)
            assert math.prod(low_probs.values()) == pytest.approx(math.prod(built_probs.values()), rel=1e-12)
            np.testing.assert_allclose(low.amplitudes, built.amplitudes, rtol=0, atol=1e-12, err_msg=f"{name}, s = {sector}")
            # a lowered PREP prepares the unit vector; the built one also carries the norm it was scaled from
            prep_norm = np.linalg.norm(circ.gates[0].params)
            assert built.norm_factor / low.norm_factor == pytest.approx(prep_norm, rel=1e-12), (name, sector)


def test_a_comparison_at_a_numpy_integer_extent_is_the_one_at_the_int():
    comp = compare_single_vs_frugal(np.int64(8))
    assert type(comp.extent) is int
    assert json.dumps(comp.to_dict()) == json.dumps(compare_single_vs_frugal(8).to_dict())


def test_a_sweep_over_numpy_integer_extents_is_the_one_over_ints(tmp_path):
    sweep = scaling_sweep([np.int64(2), np.int64(4)])
    assert [type(comp.extent) for comp in sweep] == [int, int]
    write_comparison_json(tmp_path / "numpy.json", sweep)
    write_comparison_json(tmp_path / "int.json", scaling_sweep([2, 4]))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()


def test_comparison_runtime_tracks_depth_direction():
    comp = compare_single_vs_frugal(4)
    pair_runtime = max(
        comp.reports["stream-function-nb"].runtime_seconds,
        comp.reports["vorticity-nb"].runtime_seconds,
    )
    assert pair_runtime < comp.reports["single"].runtime_seconds


def test_scaling_sweep_gaps_grow():
    sweep = scaling_sweep([2, 4, 8])
    cnot_gaps = [c.cnot_gap for c in sweep]
    depth_gaps = [c.depth_gap for c in sweep]
    assert cnot_gaps == sorted(cnot_gaps) and len(set(cnot_gaps)) == 3
    assert depth_gaps == sorted(depth_gaps) and len(set(depth_gaps)) == 3


@pytest.mark.parametrize("extents", [(x for x in (2, 4)), (2, 4), np.array([2, 4])], ids=["generator", "tuple", "array"])
def test_a_sweep_reads_its_extents_once(extents):
    assert [comp.extent for comp in scaling_sweep(extents)] == [2, 4]


def test_scaling_sweep_rejects_bad_extent():
    with pytest.raises(ConfigurationError, match="power of two"):
        scaling_sweep([2, 6])


def test_comparison_csv_schema(tmp_path):
    sweep = scaling_sweep([2, 4])
    path = tmp_path / "resources.csv"
    write_comparison_csv(path, sweep)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "extent", "variant", "section", "qubits", "cnot", "single_qubit",
        "total", "depth", "runtime_seconds",
    ]
    all_rows = [r for r in rows[1:] if r[2] == "all"]
    assert len(all_rows) == 10  # 5 variants x 2 extents
    for r in all_rows:
        assert int(r[4]) + int(r[5]) == int(r[6])
        float(r[8])  # runtime parses
    section_rows = [r for r in rows[1:] if r[2] != "all"]
    assert {r[2] for r in section_rows} >= {"encode", "macro", "boundary"}


def test_comparison_json_schema(tmp_path):
    sweep = scaling_sweep([2])
    path = tmp_path / "resources.json"
    write_comparison_json(path, sweep)
    payload = json.loads(path.read_text())
    (comp,) = payload["comparisons"]
    assert comp["extent"] == 2
    assert comp["single_cnot"] == comp["variants"]["single"]["cnot"]
    assert comp["cnot_gap"] == comp["single_cnot"] - comp["frugal_nb_cnot"]
    assert "sections" in comp["variants"]["vorticity"]


def test_a_scaling_sweep_refuses_extents_that_are_not_iterable():
    with pytest.raises(ConfigurationError, match="extents must be an iterable of lattice extents, got NoneType"):
        scaling_sweep(None)
