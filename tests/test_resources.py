"""Resource counting: hand-checked small circuits, generator consistency, and
the combined-versus-pair cavity comparison numbers."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from qlbm.circuits import (
    GATE_KINDS,
    CircuitIR,
    GateOp,
    RegisterLayout,
    build_advection_diffusion_circuit,
    circuit_unitary,
    iter_lowered,
    lower_circuit,
    lower_op,
    slot_programs,
)
from qlbm.errors import ConfigurationError
from qlbm.lattice import D1Q3
from qlbm.resources import (
    GateDurationTable,
    build_comparison_circuits,
    compare_single_vs_frugal,
    count_resources,
    representative_cavity_fields,
    scaling_sweep,
    write_comparison_csv,
    write_comparison_json,
)
from qlbm.solver import _selection
from qlbm.statevector import ZeroState, apply_circuit, plan_circuit

_1Q = GateDurationTable().single_qubit
_CX = GateDurationTable().cnot
_DATA = Path(__file__).parent / "data"


def _tiny_circuit(ops, n_qubits=3):
    circ = CircuitIR(RegisterLayout(n_r0=n_qubits, n_a=0))
    circ.add_section("body", ops)
    return circ


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


def _recount(circ: CircuitIR) -> tuple[int, int, int, float]:
    """(cnot, single_qubit, depth, runtime) over the materialized lowering."""
    layers = [0] * circ.n_qubits
    ready = [0.0] * circ.n_qubits
    cnot = single = 0
    for op in lower_circuit(circ).gates:
        if op.kind == "MCX":
            cnot += 1
        else:
            single += 1
        layer = max(layers[q] for q in op.qubits) + 1
        done = max(ready[q] for q in op.qubits) + (_CX if op.kind == "MCX" else _1Q)
        for q in op.qubits:
            layers[q], ready[q] = layer, done
    return cnot, single, max(layers), max(ready)


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
            vector = draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size).filter(any))
            ops.append(GateOp("PREP", targets, params=vector))
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
    rep = count_resources(circ, "random")
    assert (rep.cnot, rep.single_qubit, rep.depth, rep.runtime_seconds) == _recount(circ)


@settings(max_examples=60, deadline=None)
@given(_controlled_gates())
def test_slot_programs_run_the_rows_of_the_lowering(case):
    # slot for slot, the rows counted are the lowered gates
    _, ops = case
    for op in ops:
        programs, qubits = slot_programs(op)
        counted = [(qubits[t], qubits[c] if c >= 0 else None) for program in programs for t, c in program.rows]
        lowered = lower_op(op)
        assert counted == [(low.targets[0], low.controls[0] if low.controls else None) for low in lowered]
        assert sum(program.cnot for program in programs) == sum(1 for low in lowered if low.controls)
        assert sum(program.single_qubit for program in programs) == sum(1 for low in lowered if not low.controls)


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


def test_lowering_matches_the_dense_unitary_of_a_seven_control_mcx():
    op = GateOp("MCX", (3,), (5, 0, 7, 1, 6, 2, 4), (1, 0, 1, 1, 0, 0, 1))
    assert sum(1 for gate in lower_op(op) if gate.controls) == 2104
    _assert_lowering_matches_the_dense_unitary(op)


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
        rep = count_resources(circ, "mcx")
        assert (rep.cnot, rep.single_qubit, rep.depth, rep.runtime_seconds) == _recount(circ)


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
    assert (rep.cnot, rep.single_qubit, rep.depth, rep.runtime_seconds) == _recount(circ)


# ---------------------------------------------------------------------------
# cavity comparison
# ---------------------------------------------------------------------------


def test_representative_fields_shapes():
    psi, omega, vel = representative_cavity_fields(8, steps=20)
    assert psi.shape == (8, 8)
    assert omega.shape == (8, 8)
    assert vel.shape == (2, 8, 8)
    assert psi.min() < 0.0  # developed flow, not a zero placeholder


def test_comparison_circuit_variants_and_widths():
    circuits = build_comparison_circuits(8)
    assert set(circuits) == {
        "single", "stream-function", "vorticity", "stream-function-nb", "vorticity-nb",
    }
    assert circuits["single"].n_qubits == 12
    assert circuits["stream-function"].n_qubits == 12
    assert circuits["vorticity"].n_qubits == 11
    assert circuits["stream-function-nb"].n_qubits == 11
    assert circuits["vorticity-nb"].n_qubits == 10


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
    # MCX gates, past the frozen extents <= 8; runtimes are exact
    got = {
        name: (r.cnot, r.single_qubit, r.depth, r.runtime_seconds)
        for name, r in compare_single_vs_frugal(64).reports.items()
    }
    assert got == {
        "single": (394998, 604865, 750292, 0.20378069500049462),
        "stream-function": (107446, 142471, 208093, 0.05743295999999515),
        "vorticity": (107438, 142462, 208125, 0.05744005499999518),
        "stream-function-nb": (103350, 138373, 200028, 0.05515434999999119),
        "vorticity-nb": (103342, 138364, 200060, 0.055161444999991226),
    }


def test_the_counted_circuits_run_like_the_built_ones_at_the_headline_size():
    # the lowered gates are what the counts describe; through the simulator,
    # with the solver's selection, they must give the built circuits' amplitudes
    for name, circ in build_comparison_circuits(8).items():
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
