"""Each strided-view kernel must agree with its twin in the independent dense
reference, ``circuits.apply_ops_numpy`` applied to the equivalent GateOp.

MCX is a permutation, so it must match exactly; the others to rounding.
``apply_circuit`` runs from a ``ZeroState``, where each qubit enters the
array at its first gate; a random complex state is loaded by a PREP and
per-qubit RZ and PHASE gates in front of the gates. With a selection it
must agree with the reference run in full followed by ``postselect`` in the
order the selection was carried out, also when one ``plan_circuit`` plan is
replayed on fresh parameters.
The random circuits draw every gate kind. A BLOCK runs on its two halves
when its flag is in the array or stays unselected; on a flag that holds 0
and is selected right after it, it scales the value amplitudes by k.
Circuits of the real gates alone, BLOCKs selected at once among them, run
on float64 amplitudes and are checked the same way. After selections of
small probability the comparisons allow the rounding that such a
selection amplifies in both runs, a bound derived in ``_selection_bounds``.
"""

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import qlbm.circuits
import qlbm.statevector
from qlbm import _kernels
from qlbm.circuits import GATE_KINDS, GateOp, apply_ops_numpy, gate_matrix_1q, unit_amplitudes
from qlbm.errors import PostSelectionError
from qlbm.statevector import QuantumState, ZeroState, apply_circuit, plan_circuit, postselect

from prepared_state import random_load, run_from_zero


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return (amps / np.linalg.norm(amps)).astype(np.complex128)


def _apply_kernel(amps, op):
    """Call the kernel for ``op`` directly, with view indices built from its controls."""
    n = amps.size.bit_length() - 1
    shape = (2,) * n
    controls = list(zip(op.controls, op.control_values))
    if op.kind == "BLOCK":
        *values, flag = op.targets
        i0, order, fit = _kernels.diag_layout(n, values, controls + [(flag, 0)])
        i1, _, _ = _kernels.diag_layout(n, values, controls + [(flag, 1)])
        k = op.params.reshape((2,) * len(values)).transpose(order).reshape(fit)
        _kernels.apply_block(amps, shape, i0, i1, k, 1j * np.sqrt(1.0 - k * k))
        return
    i0, i1 = _kernels.halves(n, op.targets[0], controls)
    if op.kind == "MCX":
        _kernels.apply_mcx(amps, shape, i0, i1)
    elif op.kind == "PHASE":
        _kernels.apply_phase(amps, shape, i1, complex(np.exp(1j * op.params[0])))
    else:
        u = gate_matrix_1q(op)
        _kernels.apply_1q(amps, shape, i0, i1, *(complex(x) for x in u.ravel()))


def _check_against_reference(op, n_qubits, seed, atol=1e-12):
    state = _random_state(n_qubits, seed)
    out = state.copy()
    _apply_kernel(out, op)
    ref = apply_ops_numpy(state, [op], n_qubits)
    if op.kind == "MCX":
        np.testing.assert_array_equal(out, ref)
    else:
        np.testing.assert_allclose(out, ref, rtol=0, atol=atol)


@pytest.mark.parametrize("seed", range(4))
def test_apply_1q_twins_agree(seed):
    op = GateOp("RY", (2,), (0, 5), (0, 1), params=(2 * (0.3 + seed),))
    _check_against_reference(op, 6, seed, atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_apply_mcx_twins_agree(seed):
    _check_against_reference(GateOp("MCX", (4,), (0, 1, 3), (1, 0, 1)), 6, seed)


@pytest.mark.parametrize("seed", range(4))
def test_apply_phase_twins_agree(seed):
    _check_against_reference(GateOp("PHASE", (3,), (0, 2), (0, 1), params=(0.7,)), 6, seed, atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_apply_diag_twins_a_block_on_a_flag_that_holds_0_projected_onto_0(seed):
    # the kernel of a BLOCK selected at once: on a flag that holds 0, the
    # flag-0 half the BLOCK leaves is the value amplitudes times k
    n, values, flag = 7, (1, 3, 6), 5
    k = np.random.default_rng(100 + seed).uniform(-1.0, 1.0, 8)
    op = GateOp("BLOCK", values + (flag,), (4,), (1,), params=k)
    state = _random_state(n, seed)
    held = ((np.arange(1 << n) >> flag) & 1) == 0
    state[~held] = 0.0
    out = state.copy()
    index, order, fit = _kernels.diag_layout(n, list(values), [(4, 1), (flag, 0)])
    _kernels.apply_diag(out, (2,) * n, index, k.reshape((2,) * len(values)).transpose(order).reshape(fit))
    ref = apply_ops_numpy(state, [op], n)
    ref[~held] = 0.0
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)


def _op_of_kind(kind, targets, controls=(), control_values=()):
    if kind == "BLOCK":  # value qubits targets[:-1], flag targets[-1]; a wall site (k = 0) among them
        return GateOp("BLOCK", targets, controls, control_values, params=np.linspace(0.0, -0.9, 1 << (len(targets) - 1)))
    params = {"PHASE": (1.1,), "RY": (0.9,)}
    return GateOp(kind, targets[:1], controls, control_values, params=params.get(kind, ()))


@pytest.mark.parametrize("kind", ["RY", "MCX", "PHASE", "BLOCK"])
def test_kernel_on_gate_covering_every_qubit(kind):
    # target plus controls fix every axis: the sub-views are 0-d and must
    # still be written through, not returned as detached scalars
    targets = (2, 0) if kind == "BLOCK" else (1,)
    controls = (1,) if kind == "BLOCK" else (2, 0)
    _check_against_reference(_op_of_kind(kind, targets, controls, (1,) * len(controls)), 3, 11)
    _check_against_reference(_op_of_kind(kind, targets, controls, (0,) * len(controls)), 3, 12)


@pytest.mark.parametrize("kind", ["H", "MCX", "PHASE"])
def test_kernel_on_one_qubit(kind):
    _check_against_reference(_op_of_kind(kind, (0,)), 1, 5)


@pytest.mark.parametrize("kind", ["X", "MCX", "PHASE", "BLOCK"])
def test_kernel_with_zero_polarity_controls(kind):
    _check_against_reference(_op_of_kind(kind, (1, 4), (5, 0, 2), (0, 0, 0)), 6, 21)
    _check_against_reference(_op_of_kind(kind, (3, 1), (0, 4), (0, 1)), 6, 22)


def test_block_with_unsorted_qubits_and_one_control_like_the_cavity():
    # the single cavity circuit's vorticity collision: 13 value qubits and
    # the ancilla flag of 16 qubits, under one control; value qubits unsorted
    order = np.random.default_rng(3).permutation([q for q in range(16) if q not in (6, 11, 15)])
    k = np.random.default_rng(4).uniform(-1.0, 1.0, 1 << 13)
    op = GateOp("BLOCK", (*(int(q) for q in order), 15), (11,), (0,), params=k)
    _check_against_reference(op, 16, 8)


def test_control_mask_excludes_unmatched_indices():
    # With a control on bit 1 being 1, amplitudes with that bit clear
    # must be untouched, bitwise.
    state = _random_state(4, 99)
    out = state.copy()
    _kernels.apply_phase(out, (2,) * 4, _kernels.halves(4, 0, [(1, 1)])[1], 1j)
    idx = np.arange(16)
    untouched = (idx & 0b10) == 0
    np.testing.assert_array_equal(out[untouched], state[untouched])


def test_mcx_is_self_inverse():
    state = _random_state(5, 7)
    out = state.copy()
    halves = _kernels.halves(5, 1, [(2, 1), (4, 1)])
    _kernels.apply_mcx(out, (2,) * 5, *halves)
    _kernels.apply_mcx(out, (2,) * 5, *halves)
    np.testing.assert_array_equal(out, state)


def test_active_backend_reports_a_known_name():
    assert _kernels.active_backend() == "numpy"


_angle = st.floats(-np.pi, np.pi, allow_nan=False)
# BLOCK coefficients away from 0 and +/-1, where the reference's H, diagonal, H
# rounds relative to k and to sqrt(1 - k^2) alike, so a selection of small
# probability cannot amplify its rounding past the tolerances below
_coefficient = st.floats(0.05, 0.95) | st.floats(-0.95, -0.05)


@st.composite
def _gate_ops(draw, n_qubits):
    # a BLOCK needs a value qubit besides its flag
    kind = draw(st.sampled_from(sorted(GATE_KINDS - {"PREP"} - ({"BLOCK"} if n_qubits == 1 else set()))))
    qubits = draw(st.permutations(range(n_qubits)))
    n_targets = draw(st.integers(2, n_qubits)) if kind == "BLOCK" else 1
    n_controls = draw(st.integers(0, n_qubits - n_targets))
    targets = tuple(qubits[:n_targets])
    controls = tuple(qubits[n_targets : n_targets + n_controls])
    values = tuple(draw(st.lists(st.integers(0, 1), min_size=n_controls, max_size=n_controls)))
    if kind == "BLOCK":
        params = draw(st.lists(_coefficient, min_size=1 << (n_targets - 1), max_size=1 << (n_targets - 1)))
    elif kind in ("RY", "RZ", "PHASE"):
        params = [draw(_angle)]
    else:
        params = []
    return GateOp(kind, targets, controls, values, params=tuple(params))


@st.composite
def _circuits(draw, max_qubits=6):
    n_qubits = draw(st.integers(1, max_qubits))
    return n_qubits, draw(st.lists(_gate_ops(n_qubits), max_size=12))


@settings(max_examples=150, deadline=None)
@given(_circuits(), st.integers(0, 2**16))
def test_apply_circuit_matches_reference_on_random_gates(circuit, seed):
    n_qubits, ops = circuit
    load, state = random_load(n_qubits, seed)
    out = run_from_zero(n_qubits, load + ops).amplitudes
    np.testing.assert_allclose(out, apply_ops_numpy(state, ops, n_qubits), rtol=0, atol=1e-12)


@st.composite
def _selected_circuits(draw):
    """Random circuit plus a plan over a random subset of its qubits.

    Controls of either polarity land on planned qubits, and with at most 12
    gates on up to 7 qubits many planned qubits are never targeted.
    """
    n_qubits, ops = draw(_circuits(max_qubits=7))
    planned = draw(st.lists(st.integers(0, n_qubits - 1), unique=True, max_size=n_qubits))
    return n_qubits, ops, {q: draw(st.integers(0, 1)) for q in planned}


def _kept(n_qubits, plan):
    """Mask of the basis states that hold every planned value."""
    idx = np.arange(1 << n_qubits)
    kept = np.ones(idx.size, dtype=bool)
    for q, v in plan.items():
        kept &= ((idx >> q) & 1) == v
    return kept


def _new_payload(ops, rng):
    """``ops`` with fresh parameters: new BLOCK coefficients and RY / RZ / PHASE angles, the rest as they are."""
    fresh = []
    for op in ops:
        if op.kind == "BLOCK":
            k = rng.uniform(0.05, 0.95, len(op.params)) * rng.choice([-1.0, 1.0], len(op.params))
            op = GateOp(op.kind, op.targets, op.controls, op.control_values, params=k)
        elif op.kind in ("RY", "RZ", "PHASE"):
            op = GateOp(op.kind, op.targets, op.controls, op.control_values,
                        params=tuple(rng.uniform(-np.pi, np.pi, len(op.params))))
        fresh.append(op)
    return fresh


@settings(max_examples=200, deadline=None)
@given(_selected_circuits(), st.integers(0, 2**16))
def test_selecting_apply_matches_reference_then_postselect(circuit, seed):
    # one plan, replayed on the gates it was made from and then on two fresh
    # payloads of the same structure: loaded state, coefficients and angles
    n_qubits, ops, plan = circuit
    rng = np.random.default_rng(seed)
    runs = [(*random_load(n_qubits, seed, 1.7), ops)]
    runs += [(*random_load(n_qubits, seed + k, 1.7), _new_payload(ops, rng)) for k in (1, 2)]
    circuit_plan = plan_circuit(ZeroState(n_qubits), runs[0][0] + ops, plan)
    for load, amps, body in runs:
        out, probs = apply_circuit(circuit_plan, load + body)
        ref = QuantumState(n_qubits, apply_ops_numpy(amps, body, n_qubits), 1.7)
        assert sorted(probs) == sorted(plan)
        for q, p in probs.items():
            ref, p_ref = postselect(ref, q, plan[q])
            assert abs(p - p_ref) <= 1e-12
        assert out.n_qubits == n_qubits - len(plan)
        np.testing.assert_allclose(out.amplitudes, ref.amplitudes[_kept(n_qubits, plan)], rtol=0, atol=1e-12)
        assert abs(out.norm_factor - ref.norm_factor) <= 1e-12


@st.composite
def _circuits_from_zero(draw):
    """A circuit for |0...0> that opens with a PREP onto a random subset of the qubits, and a plan.

    Every other qubit first appears where the random gates put it: as the
    target of a single-qubit gate with or without controls or of an MCX,
    inside a BLOCK, as a control of either polarity, or never. The plan spans
    a random subset, never-targeted qubits on value 0 and on value 1 among them.
    """
    n_qubits, ops = draw(_circuits(max_qubits=7))
    loaded = draw(st.permutations(range(n_qubits)))[: draw(st.integers(1, n_qubits))]
    vector = draw(st.lists(st.floats(-1.0, 1.0), min_size=1 << len(loaded), max_size=1 << len(loaded))
                  .filter(lambda v: any(v)))
    ops.insert(0, GateOp("PREP", tuple(loaded), params=vector))
    planned = draw(st.lists(st.integers(0, n_qubits - 1), unique=True, max_size=n_qubits))
    return n_qubits, ops, {q: draw(st.integers(0, 1)) for q in planned}


def _selection_bounds(n_steps, probs):
    """How far two float64 runs of one circuit from one unit vector may differ after selections.

    Returns the bound on each amplitude and the bound on each conditional
    probability of ``probs``, the selections' probabilities in the order
    they were made; ``n_steps`` counts the gates and the selections. Each
    bound is at least the 1e-12 these comparisons always had.

    The derivation: each gate of either run, the simulator's kernel or the
    dense reference's, rounds its result to within c u |x| in 2-norm, with
    u = eps / 2 and |x| the norm of the state it acts on; c = 32 covers the
    largest, the reference's BLOCK (two Hadamards around e^{i arccos k},
    arccos's own rounding included). A selection projects exactly, and its
    renormalization and probability round within a few u. Left
    unnormalized, the state only shrinks, so the selected vector v, of
    squared norm P = the product of the selections' probabilities, is off
    by at most gamma = 32 u n_steps in either run. Normalizing divides by
    sqrt(P), |v' / |v'| - v / |v|| <= 2 |v' - v| / |v|, so each run is
    within 2 gamma / sqrt(P) of the exact result and the two are within
    4 gamma / sqrt(P). A conditional probability is the squared norm of a
    projection of the state normalized after the selections before it,
    of probability P_before, and
    ||Pa|^2 - |Pb|^2| <= (|Pa| + |Pb|) |a - b| <= 2 |a - b|: two runs'
    differ by at most 8 gamma / sqrt(P_before). A selection of small
    probability thus amplifies the rounding of the gates before it, in
    both runs alike; where P is not small both bounds are below 1e-12.
    """
    gamma = 16 * np.finfo(float).eps * n_steps
    before, p_bounds = 1.0, []
    for p in probs:
        p_bounds.append(max(1e-12, 8 * gamma / np.sqrt(before)))
        before *= p
    return max(1e-12, 4 * gamma / np.sqrt(before)), p_bounds


def _check_from_zero(n_qubits, ops, plan):
    """Run ``ops``, a PREP and then other gates, from |0...0> with and without ``plan`` against the reference.

    The reference writes the PREP's unit vector in index by index, not
    through its rotation network, whose rounding a selection of small
    probability would amplify (a load of a vector with entries 1e-8 and
    5.3e-7 onto the selected branch does); then it runs the other gates on
    the whole array and post-selects in the order the simulator selects.
    Returns the plan of the selecting run, or None when a selection raises.
    """
    unit, scale = unit_amplitudes(ops[0].params)
    loaded = np.zeros(1 << n_qubits, dtype=complex)
    for sub, value in enumerate(unit):
        loaded[sum(((sub >> j) & 1) << q for j, q in enumerate(ops[0].targets))] = value
    full = apply_ops_numpy(loaded, ops[1:], n_qubits)

    out = run_from_zero(n_qubits, ops)
    assert out.n_qubits == n_qubits
    np.testing.assert_allclose(out.amplitudes, full, rtol=0, atol=1e-12)
    assert abs(out.norm_factor - scale) <= 1e-12 * scale

    # selection order: after the last gate that targets the qubit, at the start when none does
    last = {q: max((i for i, op in enumerate(ops) if q in op.targets), default=-1) for q in plan}
    ref, ref_probs = QuantumState(n_qubits, full, scale), {}
    for q in sorted(plan, key=lambda q: (last[q], q)):
        try:  # the reference raises below _MIN_SELECT_PROBABILITY, as apply_circuit must
            ref, ref_probs[q] = postselect(ref, q, plan[q])
        except PostSelectionError:
            with pytest.raises(PostSelectionError):
                run_from_zero(n_qubits, ops, select=plan)
            return None
    circuit_plan = plan_circuit(ZeroState(n_qubits), ops, plan)
    selected, probs = apply_circuit(circuit_plan, ops)
    assert list(probs) == list(ref_probs)
    atol, p_atols = _selection_bounds(len(ops) + len(plan), ref_probs.values())
    for (q, p), p_atol in zip(probs.items(), p_atols):
        assert abs(p - ref_probs[q]) <= p_atol
    assert selected.n_qubits == n_qubits - len(plan)
    np.testing.assert_allclose(selected.amplitudes, ref.amplitudes[_kept(n_qubits, plan)], rtol=0, atol=atol)
    assert abs(selected.norm_factor - ref.norm_factor) <= 1e-12 * scale
    return circuit_plan


@settings(max_examples=300, deadline=None)
@given(_circuits_from_zero())
def test_apply_from_zero_state_matches_reference_on_the_zero_array(circuit):
    _check_from_zero(*circuit)


@st.composite
def _real_circuits_from_zero(draw):
    """A circuit for |0...0> of gates that keep its amplitudes real, and a selection.

    A PREP onto a random subset of the qubits, then H, X, RY and MCX with
    controls of either polarity, and BLOCKs whose flag is selected onto 0
    right after them. The flags are the lowest qubits, one per BLOCK: no
    other gate targets a flag, though any may control on it, so each holds
    0 until its BLOCK and is the first qubit selected there. The other
    qubits are loaded, targeted, controlled or never touched, and the
    selection spans a random subset of them on either value.
    """
    n_qubits = draw(st.integers(1, 7))
    flags = range(draw(st.integers(0, min(2, n_qubits - 1))))
    others = list(range(len(flags), n_qubits))
    loaded = draw(st.permutations(others))[: draw(st.integers(1, len(others)))]
    vector = draw(st.lists(st.floats(-1.0, 1.0), min_size=1 << len(loaded), max_size=1 << len(loaded))
                  .filter(lambda v: any(v)))

    def controls(free):
        chosen = draw(st.lists(st.sampled_from(free), unique=True, max_size=len(free))) if free else []
        return tuple(chosen), tuple(draw(st.lists(st.integers(0, 1), min_size=len(chosen), max_size=len(chosen))))

    ops = []
    for _ in range(draw(st.integers(0, 10))):
        kind, target = draw(st.sampled_from(("H", "X", "RY", "MCX"))), draw(st.sampled_from(others))
        params = (draw(_angle),) if kind == "RY" else ()
        ops.append(GateOp(kind, (target,), *controls([q for q in range(n_qubits) if q != target]), params=params))
    for flag in flags:
        values = tuple(draw(st.permutations(others))[: draw(st.integers(1, len(others)))])
        k = draw(st.lists(_coefficient, min_size=1 << len(values), max_size=1 << len(values)))
        free = [q for q in range(n_qubits) if q != flag and q not in values]
        ops.insert(draw(st.integers(0, len(ops))), GateOp("BLOCK", values + (flag,), *controls(free), params=k))
    ops.insert(0, GateOp("PREP", tuple(loaded), params=vector))
    planned = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    return n_qubits, ops, {**dict.fromkeys(flags, 0), **{q: draw(st.integers(0, 1)) for q in planned}}


@settings(max_examples=200, deadline=None)
@given(_real_circuits_from_zero())
def test_apply_of_a_real_circuit_matches_reference_on_float64_amplitudes(circuit):
    circuit_plan = _check_from_zero(*circuit)
    if circuit_plan is not None:
        assert circuit_plan.dtype == np.float64


@st.composite
def _blocks_on_a_flag_at_zero(draw):
    """A PREP onto every qubit but a flag, one BLOCK into that flag, and a selection of flag 0.

    The BLOCK's value qubits, at least one, and controls (of either
    polarity) are random subsets of the loaded qubits; its coefficients include the wall
    projector's 0 and 1. The selection may hold other qubits too.
    """
    n_qubits = draw(st.integers(2, 6))
    qubits = draw(st.permutations(range(n_qubits)))
    flag, loaded = qubits[0], tuple(qubits[1:])
    n_values = draw(st.integers(1, len(loaded)))
    n_controls = draw(st.integers(0, len(loaded) - n_values))
    values, controls = loaded[:n_values], loaded[n_values : n_values + n_controls]
    polarity = tuple(draw(st.lists(st.integers(0, 1), min_size=n_controls, max_size=n_controls)))
    k = draw(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, 1.0, -1.0]), min_size=1 << n_values, max_size=1 << n_values))
    others = draw(st.lists(st.sampled_from(loaded), unique=True))
    select = {flag: 0, **{q: draw(st.integers(0, 1)) for q in others}}
    return n_qubits, values, flag, controls, polarity, k, select


@settings(max_examples=150, deadline=None)
@given(_blocks_on_a_flag_at_zero(), st.integers(0, 2**16))
def test_selected_block_on_a_flag_at_zero_scales_by_its_coefficients(case, seed):
    n_qubits, values, flag, controls, polarity, k, select = case
    rng = np.random.default_rng(seed)
    loaded = tuple(q for q in range(n_qubits) if q != flag)
    vector = rng.standard_normal(1 << len(loaded))
    block = GateOp("BLOCK", values + (flag,), controls, polarity, params=k)
    ops = [GateOp("PREP", loaded, params=vector), block]
    plan = plan_circuit(ZeroState(n_qubits), ops, select)
    # a control selected to the other value skips the gate; else the flag
    # is selected right after it, at once unless a value qubit below it goes first
    skipped = any(select.get(q, v) != v for q, v in zip(controls, polarity))
    fast = all(q > flag for q in select if q in values)
    tags = [tag for tag, _, _ in plan.steps if tag in ("select", "block")]
    assert tags == ([] if skipped else ["select"] if fast else ["block"])

    # the definition: where the controls hold, the flag-0 amplitude becomes
    # k times the loaded one and the flag-1 amplitude i sqrt(1 - k^2) times it
    idx = np.arange(1 << n_qubits)

    def index_of(qubits, at):
        return sum((((at >> q) & 1) << j for j, q in enumerate(qubits)), np.zeros_like(at))

    unit = unit_amplitudes(vector)[0]
    held = ((idx >> flag) & 1) == 0
    full = np.where(held, unit[index_of(loaded, idx)], 0.0).astype(complex)
    on = idx[held & np.all([((idx >> q) & 1) == v for q, v in zip(controls, polarity)], axis=0)]
    coefficients = np.asarray(k)[index_of(values, on)]
    full[on | (1 << flag)] = 1j * np.sqrt(1.0 - coefficients**2) * full[on]
    full[on] *= coefficients
    # selection order: after the last gate that targets the qubit, the BLOCK (1) or the PREP (0)
    ref, ref_probs = QuantumState(n_qubits, full), {}
    try:
        for q in sorted(select, key=lambda q: (q in values or q == flag, q)):
            ref, ref_probs[q] = postselect(ref, q, select[q])
    except PostSelectionError:
        with pytest.raises(PostSelectionError):
            apply_circuit(plan, ops)
        return
    selected, probs = apply_circuit(plan, ops)
    assert list(probs) == list(ref_probs)
    for q, p in probs.items():
        assert abs(p - ref_probs[q]) <= 1e-12
    np.testing.assert_allclose(selected.amplitudes, ref.amplitudes[_kept(n_qubits, select)], rtol=0, atol=1e-12)


def test_selected_block_on_a_flag_at_zero_runs_no_phases_and_no_drop(monkeypatch):
    # the gate and its selection are one multiplication by k: no arccos or
    # exponential of a phase, and no halving of the array for the flag
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    k = np.array([0.5, -0.25, 1.0, 0.0])
    ops = [GateOp("PREP", (0, 1, 2), params=np.arange(1.0, 9.0)), GateOp("BLOCK", (0, 2, 3), (1,), (0,), params=k)]
    with monkeypatch.context() as patch:
        for module, name in ((qlbm.statevector, "_drop_bit"), (qlbm.circuits, "_diagonal"),
                             (np, "exp"), (np, "arccos")):
            patch.setattr(module, name, refuse)
        selected, probs = run_from_zero(4, ops, select={3: 0})
    expected = np.arange(1.0, 9.0) / np.linalg.norm(np.arange(1.0, 9.0))
    expected[[0, 1, 4, 5]] *= k  # bit 1 clear: the control holds; value index = bit 0 + 2 * bit 2
    np.testing.assert_allclose(selected.amplitudes, expected / np.linalg.norm(expected), rtol=0, atol=1e-15)
    assert list(probs) == [3] and abs(probs[3] - np.vdot(expected, expected)) <= 1e-15


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_random_circuits_draw_every_gate_kind(kind):
    # a new gate kind must reach the apply-versus-reference properties above
    find(_circuits_from_zero(), lambda case: any(op.kind == kind for op in case[1]),
         settings=settings(max_examples=1000, database=None, phases=[Phase.generate]))


@pytest.mark.parametrize("tag", ["1q", "mcx", "select", "drop", "known"])
def test_random_real_circuits_reach_every_step_of_a_real_plan(tag):
    # a fused drop is a Hadamard or RY right before its selection
    def reaches(case):
        n_qubits, ops, plan = case
        try:
            steps = plan_circuit(ZeroState(n_qubits), ops, plan).steps
        except PostSelectionError:  # a qubit that holds 0 selected onto 1
            return False
        return any(t == tag and (t != "drop" or i is not None) for t, i, _ in steps)

    find(_real_circuits_from_zero(), reaches,
         settings=settings(max_examples=1000, database=None, phases=[Phase.generate]))
