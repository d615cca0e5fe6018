"""Statevector mechanics: loading, selection accounting, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbm.circuits import GATE_KINDS, GateOp
from qlbm.errors import ConfigurationError, PostSelectionError
import qlbm
import qlbm.solver
from qlbm.lattice import D1Q2, D1Q3, D2Q5, CavitySpec
from qlbm.statevector import (
    MAX_SHOTS,
    QuantumState,
    SampleHistogram,
    ZeroState,
    apply_circuit,
    fidelity_from_histogram,
    plan_circuit,
    postselect,
    postselect_many,
    sample,
)

from prepared_state import run_from_zero


def _basis_zero(n_qubits):
    amps = np.zeros(1 << n_qubits)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return QuantumState(n_qubits, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# encoding and norm-factor accounting
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8).filter(lambda v: any(x != 0.0 for x in v)))
def test_encode_decode_round_trip(values):
    vector = np.pad(values, (0, 8 - len(values)))
    state = run_from_zero(3, [GateOp("PREP", (0, 1, 2), params=vector)])
    decoded = state.amplitudes[: len(values)].real * state.norm_factor
    np.testing.assert_allclose(decoded, values, atol=1e-12)


def test_zero_state_is_basis_zero():
    state = run_from_zero(3, [])
    assert state.amplitudes[0] == 1.0
    assert np.all(state.amplitudes[1:] == 0.0)


def test_state_rejects_wrong_length():
    with pytest.raises(ConfigurationError, match="does not fit"):
        QuantumState(2, np.zeros(5))


def test_postselect_probability_and_projection():
    # qubit 0 of |+> x |0>: p(0) = 1/2 and the survivor is |00>.
    amps = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
    state, p = postselect(QuantumState(2, amps), 0, 0)
    assert p == pytest.approx(0.5)
    np.testing.assert_allclose(state.amplitudes, [1.0, 0.0, 0.0, 0.0])
    assert state.norm_factor == pytest.approx(np.sqrt(0.5))


def test_postselect_keeps_decoded_magnitudes():
    # Selecting must not change value = amplitude * norm_factor on survivors.
    state = _random_state(4, 21)
    state.norm_factor = 2.5
    before = state.amplitudes.copy() * state.norm_factor
    after, p = postselect(state, 2, 1)
    idx = np.arange(16)
    survivors = ((idx >> 2) & 1) == 1
    np.testing.assert_allclose(
        after.amplitudes[survivors] * after.norm_factor, before[survivors], atol=1e-12
    )
    assert np.all(after.amplitudes[~survivors] == 0.0)


def test_postselect_rejects_impossible_branch():
    with pytest.raises(PostSelectionError, match="probability"):
        postselect(_basis_zero(2), 0, 1)


@pytest.mark.parametrize("qubit", [-1, 2, 5])
def test_postselect_rejects_qubit_outside_state(qubit):
    with pytest.raises(ConfigurationError, match="outside"):
        postselect(_basis_zero(2), qubit, 0)


def test_postselect_many_composes():
    state = _random_state(4, 3)
    joint, probs = postselect_many(state, {0: 1, 3: 0})
    serial, p0 = postselect(state, 0, 1)
    serial, p3 = postselect(serial, 3, 0)
    np.testing.assert_allclose(joint.amplitudes, serial.amplitudes, atol=1e-14)
    assert probs == {0: p0, 3: p3}


def test_apply_circuit_hadamard_chain():
    state = run_from_zero(2, [GateOp("H", (0,)), GateOp("H", (1,))])
    np.testing.assert_allclose(state.amplitudes, np.full(4, 0.5), atol=1e-15)


def test_apply_circuit_respects_control_polarity():
    # X on qubit 1 controlled on qubit 0 being 0: |00> -> |10>.
    state = run_from_zero(2, [GateOp("X", (1,), controls=(0,), control_values=(0,))])
    np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_selecting_apply_drops_an_h_layer_into_a_block_sum():
    # H on every qubit, then qubits 1 and 2 selected to 0: each fused H and
    # selection halves the state, leaving qubit 0 in |+> with p = 1/2 twice
    ops = [GateOp("H", (q,)) for q in range(3)]
    out, probs = run_from_zero(3, ops, select={2: 0, 1: 0})
    assert out.n_qubits == 1
    np.testing.assert_allclose(out.amplitudes, [2**-0.5, 2**-0.5], atol=1e-15)
    assert list(probs) == [1, 2]  # selection order: qubit 1's last gate comes first
    np.testing.assert_allclose(list(probs.values()), [0.5, 0.5], atol=1e-15)
    assert out.norm_factor == pytest.approx(0.5)


def test_selecting_apply_follows_the_selected_value_of_a_dropped_control():
    # qubit 1 is never targeted, so it is selected at the start; the X
    # controlled on it being 1 is skipped, the one controlled on it being 0 runs
    ops = [GateOp("X", (0,), (1,), (1,)), GateOp("RY", (0,), (1,), (0,), params=(np.pi / 2,))]
    out, probs = run_from_zero(2, ops, select={1: 0})
    assert probs == {1: 1.0}
    np.testing.assert_allclose(out.amplitudes, [2**-0.5, 2**-0.5], atol=1e-15)


@pytest.mark.parametrize("kind", ["X", "MCX"])
def test_selecting_apply_raises_at_a_selection_mid_circuit(kind):
    # the flip is qubit 1's last targeting gate (X is fused with the
    # selection, MCX is applied by its kernel first); gates follow it
    ops = [GateOp(kind, (1,)), GateOp("H", (0,), (1,), (0,)), GateOp("H", (0,))]
    with pytest.raises(PostSelectionError, match="qubit 1 = 0"):
        run_from_zero(2, ops, select={1: 0})


@pytest.mark.parametrize("op", [GateOp("H", (3,)), GateOp("H", (0,), (5,), (1,))], ids=["target", "control"])
@pytest.mark.parametrize("plan", [None, {0: 0}])
def test_apply_rejects_a_gate_outside_the_state(op, plan):
    with pytest.raises(ConfigurationError, match="outside a 2-qubit state"):
        run_from_zero(2, [op], select=plan)


@pytest.mark.parametrize("plan", [{2: 0}, {-1: 0}, {0: 2}, {1: -1}])
def test_selecting_apply_rejects_a_bad_plan(plan):
    with pytest.raises(ConfigurationError, match="select"):
        run_from_zero(2, [GateOp("H", (0,))], select=plan)


@pytest.mark.parametrize("value", [1.0, 0.5, "1", None, 2, -1, True, False])
def test_plan_rejects_a_selection_value_that_is_not_the_integer_0_or_1(value):
    with pytest.raises(ConfigurationError, match="qubit 0 must be 0 or 1"):
        plan_circuit(ZeroState(2), [GateOp("H", (0,))], {0: value})


@pytest.mark.parametrize("qubit", [1.0, "1", None, True])
def test_plan_rejects_a_selected_qubit_that_is_not_an_integer(qubit):
    with pytest.raises(ConfigurationError, match="selected qubit"):
        plan_circuit(ZeroState(2), [GateOp("H", (1,))], {qubit: 0})


@pytest.mark.parametrize("value", [1, np.int64(1)], ids=["int", "numpy"])
def test_plan_takes_an_integral_selection_value_as_an_int(value):
    ops = [GateOp("H", (0,)), GateOp("H", (1,))]
    state, probs = run_from_zero(2, ops, select={np.int64(1): value})
    assert probs == {1: pytest.approx(0.5)} and type(next(iter(probs))) is int
    np.testing.assert_allclose(state.amplitudes, [2**-0.5, 2**-0.5], atol=1e-15)


def test_the_top_level_names_alone_run_a_selecting_circuit():
    ops = [qlbm.GateOp("H", (0,)), qlbm.GateOp("X", (1,), (0,), (1,))]
    state, probs = qlbm.apply_circuit(qlbm.plan_circuit(qlbm.ZeroState(2), ops, {1: 1}), ops)
    assert isinstance(state, qlbm.QuantumState) and state.n_qubits == 1
    np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-15)
    assert probs == {1: pytest.approx(0.5)}


# ---------------------------------------------------------------------------
# one plan, replayed
# ---------------------------------------------------------------------------


def _block_case(k, angle, select):
    """Hadamards, then a BLOCK on a never-entered and an entered value qubit, under a controlling qubit, and an RY."""
    ops = [
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        GateOp("BLOCK", (2, 0, 3), (1,), (1,), params=k),
        GateOp("RY", (0,), params=(angle,)),
        GateOp("H", (1,)),
    ]
    return ops, plan_circuit(ZeroState(4), ops, select)


@pytest.mark.parametrize("select", [None, {1: 0, 2: 0}], ids=["full", "selected"])
def test_a_plan_replayed_on_other_parameters_matches_a_fresh_plan(select):
    # run on gates B of the same structure, the plan of gates A must give
    # what B's own plan gives: B's matrices and coefficients, not A's
    rng = np.random.default_rng(8)
    ops_a, plan_a = _block_case(rng.uniform(-1, 1, 4), 0.4, select)
    ops_b, plan_b = _block_case(rng.uniform(-1, 1, 4), 1.3, select)

    def run(plan, ops):
        out = apply_circuit(plan, ops)
        return (out, {}) if select is None else out

    (a, _), (b, b_probs) = run(plan_a, ops_a), run(plan_a, ops_b)
    fresh, fresh_probs = run(plan_b, ops_b)
    np.testing.assert_array_equal(b.amplitudes, fresh.amplitudes)
    assert b_probs == fresh_probs and b.norm_factor == fresh.norm_factor
    assert not np.allclose(a.amplitudes, b.amplitudes)


def _every_kind(rng):
    """Gates of every kind with parameters drawn from ``rng``: each call has the same structure."""
    return [
        GateOp("PREP", (0, 1), params=rng.uniform(0.5, 2.0, 4)),
        GateOp("H", (2,)),
        GateOp("PHASE", (2,), params=(rng.uniform(-3, 3),)),
        GateOp("RY", (3,), params=(rng.uniform(-3, 3),)),
        GateOp("RZ", (0,), (2,), (1,), (rng.uniform(-3, 3),)),
        GateOp("X", (1,)),
        GateOp("MCX", (3,), (0, 1), (1, 0)),
        GateOp("BLOCK", (0, 4), params=rng.uniform(-1, 1, 2)),  # flag selected at once: a scaling by k
        GateOp("BLOCK", (1, 5), (2,), (0,), rng.uniform(-1, 1, 2)),  # flag kept: runs on its two halves
        GateOp("H", (3,)),  # selected right after: one contraction with its selection
    ]


def _nodes(value):
    """``value`` and, if it is a tuple, everything nested in it."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)


def test_a_plan_holds_no_prep_vector():
    # nor any other gate's parameters, nor a matrix or phase computed from
    # them: every step is tuples of tags, qubits, bits, shapes, axis orders
    # and view indices
    rng = np.random.default_rng(21)
    ops = _every_kind(rng)
    assert {op.kind for op in ops} == GATE_KINDS
    select = {3: 0, 4: 0}
    plan = plan_circuit(ZeroState(6), ops, select)
    assert {tag for tag, _, _ in plan.steps} >= {"load", "1q", "phase", "mcx", "select", "block", "drop"}
    nodes = list(_nodes(plan.steps))
    assert not any(node is op.params for node in nodes for op in ops if len(op.params))  # () is one object
    assert {type(node) for node in nodes} <= {tuple, str, int, slice, type(None), type(Ellipsis)}
    # gates of the same structure with other parameters run through the same plan
    other = _every_kind(rng)
    (got, got_probs), (fresh, fresh_probs) = apply_circuit(plan, other), run_from_zero(6, other, select)
    np.testing.assert_array_equal(got.amplitudes, fresh.amplitudes)
    assert got_probs == fresh_probs and got.norm_factor == fresh.norm_factor


@pytest.mark.parametrize("ops", [
    [GateOp("X", (0,)), GateOp("H", (1,), (0,), (1,))],
    [GateOp("H", (1,)), GateOp("H", (1,), (0,), (1,))],
    [GateOp("H", (0,)), GateOp("H", (1,), (0,), (0,))],
    [GateOp("H", (0,)), GateOp("H", (1,))],
    [GateOp("H", (0,))],
    [GateOp("H", (0,)), GateOp("H", (1,), (0,), (1,)), GateOp("H", (0,))],
], ids=["kind", "target", "control-value", "controls", "shorter", "longer"])
def test_apply_rejects_gates_of_another_structure_than_the_plan(ops):
    plan = plan_circuit(ZeroState(2), [GateOp("H", (0,)), GateOp("H", (1,), (0,), (1,))])
    with pytest.raises(ConfigurationError, match="structure"):
        apply_circuit(plan, ops)


# ---------------------------------------------------------------------------
# the amplitude dtype: float64 where every gate keeps the amplitudes real
# ---------------------------------------------------------------------------


def _real_case(rng):
    """A PREP, real single-qubit gates, an MCX of mixed polarity and a BLOCK selected at once: a real plan."""
    return [
        GateOp("PREP", (0, 1, 2), params=rng.uniform(-1.0, 1.0, 8)),
        GateOp("H", (0,)),
        GateOp("RY", (1,), (2,), (0,), (rng.uniform(-3, 3),)),
        GateOp("X", (3,), (0,), (1,)),
        GateOp("MCX", (2,), (0, 3), (1, 0)),
        GateOp("BLOCK", (1, 2, 4), (0,), (1,), rng.uniform(-0.9, 0.9, 4)),
        GateOp("H", (1,)),
    ]


_REAL_SELECT = {4: 0, 1: 0}

# each one more gate turns a real plan complex: a BLOCK on a flag that is not
# selected at once runs as [[k, i s], [i s, k]] on the flag's two halves
_COMPLEX_GATES = {
    "RZ": GateOp("RZ", (2,), params=(0.5,)),
    "RZ-controlled": GateOp("RZ", (3,), (0,), (0,), (0.4,)),
    "PHASE": GateOp("PHASE", (0,), (3,), (1,), (0.6,)),
    "BLOCK-unselected": GateOp("BLOCK", (0, 5), params=(0.3, -0.8)),
}


@pytest.mark.parametrize("select", [_REAL_SELECT, None], ids=["selected", "full"])
def test_a_plan_is_real_only_when_every_gate_keeps_the_amplitudes_real(select):
    ops = _real_case(np.random.default_rng(31))
    plan = plan_circuit(ZeroState(6), ops, select)
    # without its selection the BLOCK runs on its flag's two halves
    assert plan.dtype == (np.float64 if select else np.complex128)
    for name, gate in _COMPLEX_GATES.items():
        for at in (1, len(ops)):
            assert plan_circuit(ZeroState(6), ops[:at] + [gate] + ops[at:], select).dtype == np.complex128, (name, at)
    # a BLOCK skipped on a control that holds the other value runs nothing
    skipped = GateOp("BLOCK", (0, 6), (5,), (1,), (0.3, -0.8))
    assert plan_circuit(ZeroState(7), ops + [skipped], select).dtype == plan.dtype


@pytest.mark.parametrize("select", [_REAL_SELECT, None], ids=["selected", "full"])
@pytest.mark.parametrize("extra", [None, *_COMPLEX_GATES], ids=str)
def test_a_plan_keeps_its_dtype_on_other_parameters_and_returns_complex128(extra, select):
    rngs = np.random.default_rng(32), np.random.default_rng(33)
    runs = [_real_case(rng) + ([] if extra is None else [_COMPLEX_GATES[extra]]) for rng in rngs]
    plan = plan_circuit(ZeroState(6), runs[0], select)
    dtype = plan.dtype
    for ops in runs:
        assert plan_circuit(ZeroState(6), ops, select).dtype == dtype
        out = apply_circuit(plan, ops)
        state = out if select is None else out[0]
        assert plan.dtype == dtype and state.amplitudes.dtype == np.complex128
        assert state.amplitudes.size == 1 << (6 - len(select or ()))
        fresh = run_from_zero(6, ops, select)
        np.testing.assert_array_equal(state.amplitudes, (fresh if select is None else fresh[0]).amplitudes)


def _kernel_dtypes(monkeypatch, run):
    """The dtypes of the arrays every MCX kernel call of ``run()`` saw."""
    seen = set()
    mcx = qlbm._kernels.apply_mcx

    def spy(amps, *args):
        seen.add(amps.dtype)
        mcx(amps, *args)

    monkeypatch.setattr(qlbm._kernels, "apply_mcx", spy)
    run()
    return seen


@pytest.mark.parametrize("scheme", [D1Q2, D1Q3, D2Q5], ids=lambda s: s.name)
@pytest.mark.parametrize("backend", ["statevector", "sampling"])
def test_transport_runs_real_on_the_statevector_backend_and_complex_when_sampling(monkeypatch, scheme, backend):
    # the sampling backend keeps its BLOCKs unselected, so their i s stays in the state
    real = backend == "statevector"
    assert qlbm.solver._transport(scheme, 4, backend).plan.dtype == (np.float64 if real else np.complex128)
    field = np.full((4,) * scheme.dimension, 0.1)
    field[(1,) * scheme.dimension] = 0.3
    velocity = (0.1,) * scheme.dimension
    run = lambda: qlbm.solver.run_advection_diffusion(scheme, field, velocity, 2, backend=backend, shots=64)
    assert _kernel_dtypes(monkeypatch, run) == {np.dtype(np.float64 if real else np.complex128)}


@pytest.mark.parametrize("variant", ["frugal", "single"])
def test_both_cavity_jobs_run_real(monkeypatch, variant):
    assert [job.plan.dtype for job in qlbm.solver._cavity_jobs(variant, 4)] == [np.float64] * 2
    run = lambda: qlbm.solver.run_cavity(CavitySpec(n=4, lid_velocity=0.7, steps=2), variant=variant)
    assert _kernel_dtypes(monkeypatch, run) == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# sampling and fidelity
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    state = _random_state(5, 8)
    h1 = sample(state, 4096, seed=42)
    h2 = sample(state, 4096, seed=42)
    h3 = sample(state, 4096, seed=43)
    np.testing.assert_array_equal(h1.counts, h2.counts)
    assert not np.array_equal(h1.counts, h3.counts)
    assert h1.counts.sum() == 4096


def test_sample_rejects_nonpositive_shots():
    with pytest.raises(ConfigurationError, match="shots"):
        sample(_basis_zero(2), 0, seed=1)


@pytest.mark.parametrize("shots", [2.9, 2.0, np.float64(3.0), "10", None, -1, True], ids=repr)
def test_sample_requires_an_integral_shot_count(shots):
    with pytest.raises(ConfigurationError, match="shots must be an integer"):
        sample(QuantumState(1, [0.6, 0.8]), shots, 0)


@pytest.mark.parametrize("amplitudes", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]], ids=["zero", "nan", "inf"])
def test_sample_rejects_a_state_with_no_finite_probabilities(amplitudes):
    # rejected before the division that would warn and hand numpy NaN probabilities
    with pytest.raises(ConfigurationError, match="cannot sample"):
        sample(QuantumState(1, amplitudes), 10, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "3", None, True], ids=repr)
def test_sample_requires_a_seed_that_is_an_integer_at_least_0(seed):
    with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
        sample(QuantumState(1, [0.6, 0.8]), 10, seed)


def test_sample_takes_a_numpy_integer_seed_like_an_int():
    state = QuantumState(1, [0.6, 0.8])
    np.testing.assert_array_equal(sample(state, 64, np.int64(5)).counts, sample(state, 64, 5).counts)


def test_sample_takes_a_numpy_integer_shot_count_as_an_int():
    hist = sample(QuantumState(1, [0.6, 0.8]), np.int64(3), 0)
    assert type(hist.shots) is int and hist.counts.sum() == 3
    assert hist.frequencies().sum() == pytest.approx(1.0)


def test_sample_takes_up_to_the_largest_multinomial_count():
    hist = sample(_basis_zero(1), MAX_SHOTS, seed=1)
    assert hist.counts.tolist() == [MAX_SHOTS, 0]
    with pytest.raises(ConfigurationError, match="shots"):
        sample(_basis_zero(1), MAX_SHOTS + 1, seed=1)


def test_fidelity_from_exact_histogram_is_one():
    # Counts exactly proportional to probabilities reconstruct the state
    # (nonnegative real amplitudes), so fidelity is 1.
    values = np.array([1.0, 2.0, 2.0, 4.0])
    state = run_from_zero(2, [GateOp("PREP", (0, 1), params=values)])
    counts = (state.probabilities() * 100).round().astype(np.int64)
    hist = SampleHistogram(2, int(counts.sum()), counts)
    assert fidelity_from_histogram(state, hist) == pytest.approx(1.0, abs=1e-12)


def test_infidelity_shrinks_with_shots():
    state = _random_state(6, 17)
    small = np.mean(
        [1 - fidelity_from_histogram(state, sample(state, 256, seed=s)) for s in range(8)]
    )
    large = np.mean(
        [1 - fidelity_from_histogram(state, sample(state, 65536, seed=s)) for s in range(8)]
    )
    assert large < small / 50  # 256x the shots, ~1/shots scaling

