"""Gate-level transport drivers against the classical reference, step by step."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qlbm.solver
import qlbm.statevector
from qlbm import _kernels
from qlbm.circuits import (
    GateOp,
    RegisterLayout,
    apply_ops_numpy,
    build_advection_collision_ops,
    build_advection_diffusion_circuit,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
    build_vorticity_collision_ops,
    encoding_vector,
    unit_amplitudes,
)
from qlbm.errors import CoefficientRangeError, ConfigurationError, EncodingError
from qlbm.lattice import (
    D1Q2,
    D1Q3,
    D2Q5,
    CavitySpec,
    solve_cavity_classical,
    step_advection_diffusion,
    velocity_from_stream_function,
)
from qlbm.solver import (
    ERROR_FLOOR,
    CavityRunResult,
    StepRecord,
    decode_field,
    fidelity_sweep,
    reference_sweep_state,
    relative_error,
    run_advection_diffusion,
    run_cavity,
)
from qlbm.statevector import QuantumState, postselect_many


_DATA = Path(__file__).parent / "data"


def _impulse_field(scheme, extent):
    field = np.full((extent,) * scheme.dimension, 0.1)
    field[(extent // 2,) * scheme.dimension] = 0.3
    return field


# ---------------------------------------------------------------------------
# advected scalar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme,extent,velocity",
    [(D1Q2, 8, (0.2,)), (D1Q3, 8, (0.2,)), (D2Q5, 4, (0.15, -0.1))],
    ids=["d1q2", "d1q3", "d2q5"],
)
def test_advection_tracks_classical_every_step(scheme, extent, velocity):
    field0 = _impulse_field(scheme, extent)
    steps = 10
    result = run_advection_diffusion(scheme, field0, velocity, steps)
    reference = field0.copy()
    for t in range(1, steps + 1):
        reference = step_advection_diffusion(scheme, reference, velocity)
        assert relative_error(result.fields[t], reference).max() < 1e-10


def test_advection_conserves_mass():
    field0 = _impulse_field(D1Q3, 16)
    result = run_advection_diffusion(D1Q3, field0, (0.2,), 20)
    sums = result.fields.sum(axis=1)
    np.testing.assert_allclose(sums, sums[0], rtol=1e-12)


def test_advection_zero_field_short_circuits():
    result = run_advection_diffusion(D1Q2, np.zeros(8), (0.1,), 3)
    assert np.all(result.fields == 0.0)
    assert all(r.zero_input for r in result.records)


def test_advection_records_selection_probabilities():
    result = run_advection_diffusion(D1Q2, _impulse_field(D1Q2, 8), (0.0,), 2)
    for rec in result.records:
        assert rec.job == "advection"
        assert rec.norm_factor > 0.0
        assert rec.select_probs
        for p in rec.select_probs.values():
            assert 0.0 < p <= 1.0
        assert rec.success_prob == math.prod(rec.select_probs.values())


def test_advection_rejects_unknown_backend():
    with pytest.raises(ConfigurationError, match="backend"):
        run_advection_diffusion(D1Q2, np.ones(8), (0.0,), 1, backend="tensor")


@pytest.mark.parametrize("scheme, field", [(D2Q5, np.ones(8)), (D2Q5, np.ones((4, 8))), (D1Q2, 0.5), (D2Q5, 0.5)],
                         ids=["1d-for-d2q5", "not-square", "0d-for-d1q2", "0d-for-d2q5"])
def test_advection_rejects_mismatched_field_shape(scheme, field):
    with pytest.raises(ConfigurationError, match="does not fit"):
        run_advection_diffusion(scheme, field, (0.0,) * scheme.dimension, 1)


def test_advection_rejects_negative_steps():
    with pytest.raises(ConfigurationError, match="steps"):
        run_advection_diffusion(D1Q2, np.ones(8), (0.0,), -1)


@pytest.mark.parametrize("backend", ["statevector", "sampling"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_advection_rejects_non_finite_velocity(bad, backend):
    with pytest.raises(ConfigurationError, match="velocity must be finite"):
        run_advection_diffusion(D2Q5, _impulse_field(D2Q5, 4), (0.1, bad), 1, backend=backend)


@pytest.mark.parametrize("variant", ["frugal", "single"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cavity_rejects_non_finite_lid_velocity(bad, variant):
    with pytest.raises(ConfigurationError, match="finite"):
        run_cavity(CavitySpec(n=4, lid_velocity=bad, steps=2), variant=variant)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_advection_rejects_non_finite_field(bad):
    field0 = _impulse_field(D1Q3, 8)
    field0[2] = bad
    with pytest.raises(EncodingError, match="non-finite"):
        run_advection_diffusion(D1Q3, field0, (0.2,), 2)


def test_sampling_backend_rejects_negative_field():
    field0 = _impulse_field(D1Q2, 8)
    field0[1] = -0.05
    with pytest.raises(EncodingError, match="negative"):
        run_advection_diffusion(D1Q2, field0, (0.1,), 1, backend="sampling")


def test_sampling_backend_approximates_statevector():
    field0 = _impulse_field(D1Q2, 8)
    exact = run_advection_diffusion(D1Q2, field0, (0.1,), 2)
    sampled = run_advection_diffusion(
        D1Q2, field0, (0.1,), 2, backend="sampling", shots=1 << 16, seed=5
    )
    assert relative_error(sampled.final, exact.final).max() < 0.05


def test_sampling_backend_records_the_measured_share_in_the_site_sector(monkeypatch):
    hists = []

    def spy(*args, _sample=qlbm.solver.sample, **kwargs):
        hists.append(_sample(*args, **kwargs))
        return hists[-1]

    monkeypatch.setattr(qlbm.solver, "sample", spy)
    shots = 1 << 12
    result = run_advection_diffusion(D2Q5, _impulse_field(D2Q5, 4), (0.1, 0.1), 3, backend="sampling", shots=shots, seed=4)
    layout = RegisterLayout.for_scheme(D2Q5, 4)
    n_sites, select = layout.n_sites, qlbm.solver._selection(layout)
    assert len(hists) == len(result.records) == 3
    for record, hist in zip(result.records, hists):
        assert list(record.select_probs) == sorted(select)
        share = hist.counts[:n_sites].sum() / shots
        assert 0 < share < 1
        assert abs(record.success_prob - share) <= 1e-12
    assert abs(result.success_prob - math.prod(h.counts[:n_sites].sum() / shots for h in hists)) <= 1e-12


def test_sampling_backend_selection_agrees_with_the_statevector_backend():
    field0 = _impulse_field(D2Q5, 8)
    exact = run_advection_diffusion(D2Q5, field0, (0.1, 0.1), 1).success_prob
    shots = 1 << 20
    sampled = run_advection_diffusion(D2Q5, field0, (0.1, 0.1), 1, backend="sampling", shots=shots, seed=6).success_prob
    assert abs(sampled - exact) <= 5 * math.sqrt(exact * (1 - exact) / shots)


def test_measured_selection_of_a_histogram_with_no_match_reads_zero():
    counts = np.array([0, 5, 0, 3])  # qubit 0 always 1
    assert qlbm.solver._measured_selection(counts, {0: 0, 1: 1}) == {0: 0.0, 1: 0.0}
    assert qlbm.solver._measured_selection(counts, {0: 1, 1: 1}) == {0: 1.0, 1: 3 / 8}


def test_sampling_backend_is_seed_deterministic():
    field0 = _impulse_field(D1Q2, 8)
    a = run_advection_diffusion(D1Q2, field0, (0.1,), 2, backend="sampling", seed=9)
    b = run_advection_diffusion(D1Q2, field0, (0.1,), 2, backend="sampling", seed=9)
    c = run_advection_diffusion(D1Q2, field0, (0.1,), 2, backend="sampling", seed=10)
    np.testing.assert_array_equal(a.final, b.final)
    assert not np.array_equal(a.final, c.final)


# ---------------------------------------------------------------------------
# decoding and error helpers
# ---------------------------------------------------------------------------


def test_decode_factor_accounts_for_link_merge():
    # Merging d link qubits dilutes the kept block by sqrt(2)^d; folding the
    # source flag adds one more sqrt(2).
    layout = RegisterLayout(n_r0=2, n_d=2)
    amps = np.zeros(1 << layout.qubit_count, dtype=complex)
    amps[:4] = 0.5
    state = QuantumState(layout.qubit_count, amps, norm_factor=3.0)
    np.testing.assert_allclose(decode_field(state, layout), 0.5 * 3.0 * 2.0)

    layout_s = RegisterLayout(n_r0=2, n_d=1, n_s=1)
    amps = np.zeros(1 << layout_s.qubit_count, dtype=complex)
    amps[:4] = 0.5
    state = QuantumState(layout_s.qubit_count, amps, norm_factor=1.0)
    np.testing.assert_allclose(
        decode_field(state, layout_s, folded=True), 0.5 * np.sqrt(2.0) ** 2
    )


def test_decode_field_reads_a_site_only_state():
    # every other register selected away, as the solver's jobs return it
    layout = RegisterLayout(n_r0=1, n_s=1)
    state = QuantumState(len(layout.site_qubits), np.array([0.6, 0.8]), norm_factor=2.0)
    np.testing.assert_allclose(decode_field(state, layout), [1.2, 1.6])


def test_relative_error_floors_small_references():
    err = relative_error([1e-12, 2.0], [0.0, 1.0])
    np.testing.assert_allclose(err, [1e-12 / ERROR_FLOOR, 1.0])


# ---------------------------------------------------------------------------
# lid-driven cavity
# ---------------------------------------------------------------------------


def test_cavity_frugal_matches_classical():
    spec = CavitySpec(n=8, steps=12)
    quantum = run_cavity(spec, variant="frugal")
    classical = solve_cavity_classical(spec)
    assert relative_error(quantum.psi[-1], classical.psi[-1]).max() < 1e-9
    assert relative_error(quantum.omega[-1], classical.omega[-1]).max() < 1e-9


def test_cavity_single_matches_frugal():
    spec = CavitySpec(n=8, steps=8)
    frugal = run_cavity(spec, variant="frugal")
    single = run_cavity(spec, variant="single")
    np.testing.assert_allclose(single.psi, frugal.psi, atol=1e-12)
    np.testing.assert_allclose(single.omega, frugal.omega, atol=1e-12)


def _cavity_outputs(result) -> dict:
    """Fields and per-record selection numbers of a cavity run, as plain JSON values."""
    return {
        "psi": result.psi.tolist(),
        "omega": result.omega.tolist(),
        "records": [
            {
                "step": r.step,
                "job": r.job,
                "zero_input": r.zero_input,
                "norm_factor": float(r.norm_factor),
                "select_probs": [[q, float(p)] for q, p in r.select_probs.items()],
            }
            for r in result.records
        ],
    }


@pytest.mark.parametrize("variant", ["frugal", "single"])
def test_cavity_outputs_match_the_frozen_run(variant):
    # tests/data/cavity_outputs_extent8.json holds {variant: _cavity_outputs(run)}
    # written by json.dump(..., indent=1); JSON keeps each float's repr, so the
    # comparison is exact, select_probs order included
    frozen = json.loads((_DATA / "cavity_outputs_extent8.json").read_text())[variant]
    result = run_cavity(CavitySpec(n=8, lid_velocity=0.7, steps=5), variant=variant)
    assert _cavity_outputs(result) == frozen


def test_cavity_rejects_unknown_variant():
    with pytest.raises(ConfigurationError, match="variant"):
        run_cavity(CavitySpec(n=8, steps=1), variant="both")


def test_cavity_rejects_negative_steps():
    # the spec itself refuses, so the classical reference cannot take it either
    with pytest.raises(ConfigurationError, match="steps"):
        run_cavity(CavitySpec(n=8, steps=-1))


def test_cavity_at_rest_short_circuits():
    result = run_cavity(CavitySpec(n=8, lid_velocity=0.0, steps=4))
    assert np.all(result.psi == 0.0)
    assert np.all(result.omega == 0.0)
    assert all(r.zero_input for r in result.records)


@pytest.mark.parametrize("variant", ["frugal", "single"])
def test_cavity_with_a_tiny_lid_velocity_matches_classical(variant):
    # squared norms of these fields underflow to zero; encoding scales by the peak
    spec = CavitySpec(n=8, lid_velocity=1e-170, steps=4)
    result = run_cavity(spec, variant=variant)
    classical = solve_cavity_classical(spec)
    assert not any(r.zero_input for r in result.records if r.job == "stream-function" and r.step > 1)
    peak = np.abs(classical.psi).max()
    assert peak > 0.0
    assert np.abs(result.psi - classical.psi).max() / peak <= 1e-12


def test_cavity_records_both_jobs_every_step():
    result = run_cavity(CavitySpec(n=8, steps=5))
    assert len(result.records) == 10
    jobs = [r.job for r in result.records]
    assert jobs.count("stream-function") == 5
    assert jobs.count("vorticity") == 5
    # after the first step both fields are live, so selections are recorded
    for rec in result.records[2:]:
        assert not rec.zero_input
        assert rec.select_probs


@pytest.mark.parametrize("run", [
    lambda: run_advection_diffusion(D2Q5, _impulse_field(D2Q5, 8), (0.15, -0.1), 3),
    lambda: run_cavity(CavitySpec(n=8, steps=4), variant="frugal"),
    lambda: run_cavity(CavitySpec(n=8, steps=4), variant="single"),
], ids=["advection", "frugal", "single"])
def test_run_success_probability_is_the_product_over_its_records(run):
    # each job is prepared afresh, so the shot multiplier adds up the jobs'
    # own 1 / success_prob, and an idle job costs no shots
    result = run()
    p = math.prod(p for record in result.records for p in record.select_probs.values())
    assert p < 1.0
    assert abs(result.success_prob - p) <= 1e-12 * p
    ran = [record for record in result.records if not record.zero_input]
    shots = sum(1.0 / math.prod(record.select_probs.values()) for record in ran)
    assert ran and len(ran) < shots
    assert abs(result.shot_multiplier - shots) <= 1e-12 * shots


def test_shot_multiplier_is_infinite_when_a_run_cannot_succeed():
    field = np.zeros((2, 4, 4))
    result = CavityRunResult("frugal", field, field, [StepRecord(1, "vorticity", {0: 0.5}), StepRecord(2, "vorticity", {0: 0.0})])
    assert result.success_prob == 0.0
    assert result.shot_multiplier == math.inf


@pytest.mark.parametrize("variant", ["frugal", "single"])
def test_cavity_jobs_hold_only_the_qubits_their_gates_need(monkeypatch, variant):
    # at extent 32 a job's PREP fills 2^14 of the 2^16 amplitudes of its qubits;
    # the collision ancilla and the wall flag never enter, so streaming runs
    # on the sites and links alone
    sizes = []
    for name in ("apply_1q", "apply_mcx", "apply_diag", "apply_phase"):
        def spy(amps, *args, _name=name, _fn=getattr(_kernels, name)):
            sizes.append((_name, amps.size))
            return _fn(amps, *args)

        monkeypatch.setattr(_kernels, name, spy)

    def spy_drop(amps, *args, _fn=qlbm.statevector._drop_bit):
        sizes.append(("drop", amps.size))
        return _fn(amps, *args)

    monkeypatch.setattr(qlbm.statevector, "_drop_bit", spy_drop)
    result = run_cavity(CavitySpec(32, 0.8, 2), variant=variant)
    assert sum(not r.zero_input for r in result.records) == 2
    layout = RegisterLayout.for_scheme(D2Q5, 32, source=True, boundary=True)
    assert {size for name, size in sizes if name == "apply_mcx"} == {layout.n_sites << layout.n_d}
    assert max(size for _, size in sizes) == 1 << 14


# ---------------------------------------------------------------------------
# circuit builds
# ---------------------------------------------------------------------------


def _spy_on_builders(monkeypatch):
    """(builder name, circuit) per circuit the solver builds, in call order."""
    built = []
    for name in (
        "build_advection_diffusion_circuit",
        "build_single_cavity_circuit",
        "build_stream_function_circuit",
        "build_vorticity_circuit",
    ):
        def spy(*args, _name=name, _build=getattr(qlbm.solver, name), **kwargs):
            circ = _build(*args, **kwargs)
            built.append((_name, circ))
            return circ

        monkeypatch.setattr(qlbm.solver, name, spy)
    return built


def _spy_on_apply(monkeypatch):
    applied = []

    def spy(state, ops, *args, _apply=qlbm.solver.apply_circuit, **kwargs):
        applied.append(list(ops))
        return _apply(state, ops, *args, **kwargs)

    monkeypatch.setattr(qlbm.solver, "apply_circuit", spy)
    return applied


def _spy_on(monkeypatch, name):
    """The return value of every call the solver makes to ``name``, in call order."""
    returned = []

    def spy(*args, _fn=getattr(qlbm.solver, name), **kwargs):
        out = _fn(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(qlbm.solver, name, spy)
    return returned


def _clear_setups():
    qlbm.solver._transport.cache_clear()
    qlbm.solver._cavity_jobs.cache_clear()


def test_advection_sets_up_once_per_shape_and_builds_only_its_fresh_gates(monkeypatch):
    # the first run at a shape builds the circuit at rest and plans it once; a
    # second run at that shape builds and plans nothing. Every step runs a fresh
    # PREP, the run's own collision and then the cached tail, never a built PREP
    _clear_setups()
    built = _spy_on_builders(monkeypatch)
    planned = _spy_on(monkeypatch, "plan_circuit")
    collisions = _spy_on(monkeypatch, "build_advection_collision_ops")
    applied = _spy_on_apply(monkeypatch)
    runs = [((0.15, -0.1), _impulse_field(D2Q5, 4)), ((-0.05, 0.2), 0.5 * _impulse_field(D2Q5, 4) + 0.1)]
    results = []
    for velocity, field in runs:
        results.append(run_advection_diffusion(D2Q5, field, velocity, 5))
        ((_, circ),) = built
        assert len(planned) == 1
    assert not np.any(circ.gates[0].params)  # the PREP at rest, dropped after planning
    setup = qlbm.solver._transport(D2Q5, 4, "statevector")
    assert setup.plan is planned[0]
    tail = circ.section_ops(["streaming", "macro"])
    assert len(setup.tail) == len(tail) and all(a is b for a, b in zip(setup.tail, tail))
    assert len(collisions) == len(runs) and len(applied) == 5 * len(runs)
    for run, ((velocity, _), result, collision) in enumerate(zip(runs, results, collisions)):
        assert collision == build_advection_collision_ops(circ.layout, D2Q5, velocity)
        for step, ops in enumerate(applied[5 * run : 5 * (run + 1)]):
            prep, block, *rest = ops
            assert prep.kind == "PREP" and prep is not circ.gates[0]
            np.testing.assert_array_equal(prep.params, encoding_vector(circ.layout, D2Q5, result.fields[step]))
            assert [block] == collision and block is collision[0]
            assert len(rest) == len(setup.tail) and all(a is b for a, b in zip(rest, setup.tail))


# per variant and job: the builder, the PREP's fields from the previous step's
# (psi, omega, scale), whether a collision is built per job, and the sections
# of the built circuit that follow
_CAVITY_JOBS = {
    "frugal": {
        "stream-function": ("build_stream_function_circuit", lambda psi, omega, scale: (psi, scale * omega), False,
                            ["source-fold", "collision", "streaming", "macro", "boundary"]),
        "vorticity": ("build_vorticity_circuit", lambda psi, omega, scale: (omega, None), True,
                      ["streaming", "macro", "boundary"]),
    },
    "single": {
        "stream-function": ("build_single_cavity_circuit", lambda psi, omega, scale: (psi, scale * omega), False,
                            ["source-fold", "collision-stream-function", "streaming-stream-function", "macro", "boundary"]),
        "vorticity": ("build_single_cavity_circuit", lambda psi, omega, scale: (np.zeros_like(omega), omega), True,
                      ["streaming-vorticity", "macro", "boundary"]),
    },
}


@pytest.mark.parametrize("variant", ["frugal", "single"])
def test_cavity_sets_up_once_per_shape_and_rebuilds_only_the_field_sections(monkeypatch, variant):
    # the first run at a shape runs each builder once and plans each job once; a
    # second run at that shape builds and plans nothing. Every live job is a
    # fresh PREP of the previous step's fields, a fresh vorticity collision in
    # the vorticity job, and then the cached tail, the built circuit's own gates
    _clear_setups()
    built = _spy_on_builders(monkeypatch)
    planned = _spy_on(monkeypatch, "plan_circuit")
    collisions = _spy_on(monkeypatch, "build_vorticity_collision_ops")
    applied = _spy_on_apply(monkeypatch)
    specs = [CavitySpec(n=4, lid_velocity=0.7, steps=4), CavitySpec(n=4, lid_velocity=0.4, steps=3)]
    scale = D2Q5.diffusion
    jobs = _CAVITY_JOBS[variant]
    results = []
    for spec in specs:
        results.append(run_cavity(spec, variant=variant))
        assert len(built) == len({name for name, *_ in jobs.values()}) and len(planned) == 2
    circuits = dict(built)
    assert len(circuits) == len(built)
    setups = dict(zip(("stream-function", "vorticity"), qlbm.solver._cavity_jobs(variant, 4)))
    assert [job.plan for job in setups.values()] == planned
    live = [r for result in results for r in result.records if not r.zero_input]
    assert len(live) == len(applied) == sum(2 * (spec.steps - 1) for spec in specs)
    runs = [result for result in results for r in result.records if not r.zero_input]
    fresh = iter(collisions)
    for record, result, ops in zip(live, runs, applied):
        builder, fields, collides, tail = jobs[record.job]
        circ, setup = circuits[builder], setups[record.job]
        expected = circ.section_ops(tail)
        assert len(setup.tail) == len(expected) and all(a is b for a, b in zip(setup.tail, expected))
        psi, omega = result.psi[record.step - 1], result.omega[record.step - 1]
        field, source = fields(psi, omega, scale)
        prep, *rest = ops
        assert prep.kind == "PREP" and prep is not circ.gates[0]
        np.testing.assert_array_equal(prep.params, encoding_vector(circ.layout, D2Q5, field, source=source))
        if collides:
            collision, rest = rest[:1], rest[1:]  # one BLOCK
            assert all(a is b for a, b in zip(collision, next(fresh)))
            velocity = np.stack(velocity_from_stream_function(psi))
            assert collision == build_vorticity_collision_ops(circ.layout, D2Q5, velocity)
        assert len(rest) == len(setup.tail) and all(a is b for a, b in zip(rest, setup.tail))
    assert next(fresh, None) is None


# ---------------------------------------------------------------------------
# the per-shape set-up cache
# ---------------------------------------------------------------------------


_RUNS = {
    "statevector": lambda k: run_advection_diffusion(D2Q5, (1 + k) * _impulse_field(D2Q5, 4), (0.15, -0.1 * k), 3),
    "sampling": lambda k: run_advection_diffusion(D1Q3, (1 + k) * _impulse_field(D1Q3, 8), (0.2 - 0.1 * k,), 3,
                                                  backend="sampling", shots=512, seed=k),
    "frugal": lambda k: run_cavity(CavitySpec(n=4, lid_velocity=0.7 - 0.2 * k, steps=4), variant="frugal"),
    "single": lambda k: run_cavity(CavitySpec(n=4, lid_velocity=0.7 - 0.2 * k, steps=4), variant="single"),
}


def _assert_same_run(a, b):
    assert type(a) is type(b) and a.records == b.records
    for name in ("fields", "psi", "omega"):
        if hasattr(a, name):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("case", sorted(_RUNS))
def test_a_run_on_a_cached_set_up_is_bit_identical_to_one_after_a_cache_clear(case):
    run = _RUNS[case]
    _clear_setups()
    fresh = run(0)
    run(1)  # other inputs at the same shape
    _assert_same_run(run(0), fresh)


def test_shapes_never_share_a_set_up():
    _clear_setups()
    transport = {}
    for scheme, extents in ((D1Q2, (4, 8)), (D1Q3, (4, 8)), (D2Q5, (2, 4))):
        for extent in extents:
            for backend in ("statevector", "sampling"):
                setup = qlbm.solver._transport(scheme, extent, backend)
                assert setup.layout == RegisterLayout.for_scheme(scheme, extent)
                assert setup.plan.n_qubits == setup.layout.qubit_count
                assert setup.plan.selecting == (backend == "statevector")
                transport[scheme.name, extent, backend] = setup
    assert len({id(s) for s in transport.values()}) == len({id(s.plan) for s in transport.values()}) == len(transport)
    info = qlbm.solver._transport.cache_info()
    assert info.maxsize == qlbm.solver._SETUPS and info.misses == len(transport)
    cavity = {}
    for variant in ("frugal", "single"):
        for extent in (4, 8):
            jobs = qlbm.solver._cavity_jobs(variant, extent)
            layout = RegisterLayout.for_scheme(D2Q5, extent, source=variant == "single", boundary=True)
            assert jobs[1].layout == layout
            cavity[variant, extent] = jobs
    plans = {id(job.plan) for jobs in cavity.values() for job in jobs}
    assert len({id(jobs) for jobs in cavity.values()}) == len(cavity) and len(plans) == 2 * len(cavity)
    assert qlbm.solver._cavity_jobs.cache_info().maxsize == qlbm.solver._SETUPS


def _held(obj):
    """``obj`` and everything it holds, through tuples, lists and dataclasses."""
    yield obj
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _held(getattr(obj, f.name))


@pytest.mark.parametrize("setup", [
    lambda: qlbm.solver._transport(D2Q5, 8, "statevector"),
    lambda: qlbm.solver._transport(D1Q3, 8, "sampling"),
    lambda: qlbm.solver._cavity_jobs("frugal", 8),
    lambda: qlbm.solver._cavity_jobs("single", 8),
], ids=["statevector", "sampling", "frugal", "single"])
def test_a_cached_set_up_holds_no_prep_and_no_writable_array(setup):
    setup = setup()
    held = list(_held(setup))
    (n_sites,) = {item.n_sites for item in held if isinstance(item, RegisterLayout)}
    gates = [item for item in held if isinstance(item, GateOp)]
    assert gates and all(gate.kind != "PREP" for gate in gates)
    arrays = [item for item in held if isinstance(item, np.ndarray)]
    assert all(not a.flags.writeable for a in arrays)
    # the largest is the wall projector's one coefficient per site
    assert all(a.size <= n_sites for a in arrays)


def test_a_run_that_raises_leaves_the_cache_usable():
    _clear_setups()
    field = _impulse_field(D1Q3, 8)
    fresh = run_advection_diffusion(D1Q3, field, (0.2,), 3)
    with pytest.raises(CoefficientRangeError):
        run_advection_diffusion(D1Q3, field, (5.0,), 3)  # too fast for the collision's |k| <= 1
    _assert_same_run(run_advection_diffusion(D1Q3, field, (0.2,), 3), fresh)
    spec = CavitySpec(n=4, lid_velocity=0.7, steps=3)
    fresh = run_cavity(spec)
    with pytest.raises(CoefficientRangeError):
        run_cavity(CavitySpec(n=4, lid_velocity=50.0, steps=3))  # its step-2 vorticity collision
    _assert_same_run(run_cavity(spec), fresh)


# ---------------------------------------------------------------------------
# selecting while the gates run, against a full-state run selected at the end
# ---------------------------------------------------------------------------


def _cavity_inputs(extent, seed):
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-1.0, 1.0, (extent, extent))
    omega = rng.uniform(-1.0, 1.0, (extent, extent))
    velocity = rng.uniform(-0.1, 0.1, (2, extent, extent))
    return psi, 0.05 * omega, omega, velocity


def _builder_jobs():
    """(name, ops, layout, vec, s_value, folded) for every builder and pass; ops[0] is the PREP of vec."""
    for scheme, extent, velocity in [(D1Q2, 8, (0.2,)), (D1Q3, 8, (-0.15,)), (D2Q5, 4, (0.15, -0.1))]:
        field = _impulse_field(scheme, extent)
        circ = build_advection_diffusion_circuit(scheme, extent, field, velocity)
        yield scheme.name, circ.gates, circ.layout, encoding_vector(circ.layout, scheme, field), 0, False
    psi, source, omega, velocity = _cavity_inputs(4, 1)
    circ = build_stream_function_circuit(D2Q5, 4, psi, source)
    yield "stream-function", circ.gates, circ.layout, encoding_vector(circ.layout, D2Q5, psi, source=source), 0, True
    circ = build_vorticity_circuit(D2Q5, 4, omega, velocity)
    yield "vorticity", circ.gates, circ.layout, encoding_vector(circ.layout, D2Q5, omega), 0, False
    circ = build_single_cavity_circuit(D2Q5, 4, psi, source, omega, velocity)
    layout = circ.layout
    yield ("single-stream-function", circ.section_ops(["encode", *qlbm.solver._SINGLE_SF_TAIL]), layout,
           encoding_vector(layout, D2Q5, psi, source=source), 0, True)
    vec = encoding_vector(layout, D2Q5, np.zeros((4, 4)), source=omega)
    yield ("single-vorticity", [GateOp("PREP", layout.encoded_qubits, params=vec), *circ.section_ops(["collision-vorticity", *qlbm.solver._SINGLE_W_TAIL])],
           layout, vec, 1, False)


@pytest.mark.parametrize("job", list(_builder_jobs()), ids=lambda job: job[0])
def test_job_selecting_as_it_runs_matches_full_state_then_postselect_many(job):
    name, ops, layout, vec, s_value, folded = job
    assert ops[0] == GateOp("PREP", layout.encoded_qubits, params=vec)
    state, record = qlbm.solver._run_job(qlbm.solver._job_plan(ops, layout, s_value), ops, 1, name)
    assert state.n_qubits == len(layout.site_qubits)
    assert state.amplitudes.size == layout.n_sites

    plan = qlbm.solver._selection(layout, s_value)
    # the reference loads the vector itself, not through the PREP under test
    unit, scale = unit_amplitudes(vec)
    amps = np.zeros(1 << layout.qubit_count, dtype=complex)
    amps[: unit.size] = unit
    full = QuantumState(layout.qubit_count, apply_ops_numpy(amps, ops[1:], layout.qubit_count), scale)
    full, probs = postselect_many(full, plan)
    base = sum(v << q for q, v in plan.items())
    sites = QuantumState(state.n_qubits, full.amplitudes[base : base + layout.n_sites], full.norm_factor)
    expected = decode_field(sites, layout, folded=folded)
    got = decode_field(state, layout, folded=folded)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    assert abs(record.success_prob - math.prod(probs.values())) <= 1e-12 * math.prod(probs.values())


# the names the benchmark's tracer wraps on qlbm.solver, which every job must
# call through the module so that no traced layer reads as absent
_JOB_PATH = ("apply_circuit", "decode_field")


@pytest.mark.parametrize("case", ["statevector", "sampling", "frugal", "single"])
def test_every_job_calls_the_traced_names_once(monkeypatch, case):
    # and the first run at a shape plans once per kind of job: advection one
    # circuit, the frugal cavity two circuits, the single cavity two sector
    # passes; a second run at that shape plans nothing
    _clear_setups()
    calls = dict.fromkeys((*_JOB_PATH, "plan_circuit"), 0)
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(qlbm.solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(qlbm.solver, name, spy)
    steps = 3
    for plans in (2 if case in ("frugal", "single") else 1, 0):
        if case in ("statevector", "sampling"):
            result = run_advection_diffusion(D2Q5, _impulse_field(D2Q5, 4), (0.1, 0.1), steps, backend=case, shots=256)
        else:
            result = run_cavity(CavitySpec(n=4, steps=steps), variant=case)
        live = sum(not r.zero_input for r in result.records)
        assert live > 0
        selected = 0 if case == "sampling" else live
        assert calls == {"apply_circuit": live, "decode_field": selected, "plan_circuit": plans}
        calls.update(dict.fromkeys(calls, 0))


# ---------------------------------------------------------------------------
# sampling fidelity sweep
# ---------------------------------------------------------------------------


def test_reference_sweep_state_support_and_norm():
    state = reference_sweep_state(extent=32, steps=50)
    nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-14)
    assert nonzero.size == 32
    assert nonzero.max() < 32  # all within the site block
    np.testing.assert_allclose(np.linalg.norm(state.amplitudes), 1.0, atol=1e-12)


def test_fidelity_sweep_slope_and_rows():
    state = reference_sweep_state(extent=16, steps=10)
    shots = [1 << 8, 1 << 10, 1 << 12]
    result = fidelity_sweep(shots, trials=4, seed=1, state=state)
    assert len(result.rows) == 12
    assert result.shots == shots
    assert all(m > 0 for m in result.mean_infidelity)
    # infidelity must fall roughly like 1/shots
    assert 0.7 < result.slope < 1.3


def test_fidelity_sweep_rejects_zero_trials():
    with pytest.raises(ConfigurationError, match="trial"):
        fidelity_sweep([128], trials=0, seed=0)


@pytest.mark.parametrize("shots, trials", [
    ([100, 1000], 1.5),
    ([100, 1000], 1.0),
    ([100.7, 1000], 1),
    ([100, 1000.0], 1),
    ([0, 1000], 1),
    ([100, 1 << 63], 1),
    ([100, 1000], True),
    ([True, 1000], 1),
], ids=["fractional-trials", "float-trials", "fractional-shots", "float-shots", "zero-shots", "too-many-shots",
        "bool-trials", "bool-shots"])
def test_fidelity_sweep_requires_integral_counts(shots, trials):
    with pytest.raises(ConfigurationError, match="trial|shot"):
        fidelity_sweep(shots, trials, seed=0, state=QuantumState(1, [0.6, 0.8]))


def test_fidelity_sweep_rejects_a_state_it_cannot_sample():
    with pytest.raises(ConfigurationError, match="cannot sample"):
        fidelity_sweep([64, 256], 1, seed=0, state=QuantumState(1, [0.0, 0.0]))


def test_fidelity_sweep_takes_numpy_integer_counts():
    result = fidelity_sweep(list(np.array([64, 256])), np.int64(2), seed=0, state=QuantumState(1, [0.6, 0.8]))
    assert result.shots == [64, 256] and len(result.rows) == 4


@pytest.mark.parametrize("shots", [2.5, 0, np.float64(4.0)], ids=repr)
def test_sampling_backend_requires_an_integral_shot_count(shots):
    with pytest.raises(ConfigurationError, match="shots"):
        run_advection_diffusion(D2Q5, _impulse_field(D2Q5, 4), (0.1, 0.1), 1, backend="sampling", shots=shots)


@pytest.mark.parametrize("shots", [[], [1024], [1024, 1024]], ids=["none", "one", "repeated"])
def test_fidelity_sweep_needs_two_distinct_shot_counts(shots):
    with pytest.raises(ConfigurationError, match="two distinct shot counts"):
        fidelity_sweep(shots, trials=1, seed=0)


@pytest.mark.parametrize("seed", [-1, -8000, 2.5, True], ids=repr)
def test_sampling_runs_reject_a_bad_seed_before_anything_runs(monkeypatch, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    for name in ("apply_circuit", "sample", "_transport", "reference_sweep_state"):
        monkeypatch.setattr(qlbm.solver, name, refuse)
    with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
        run_advection_diffusion(D1Q2, _impulse_field(D1Q2, 8), (0.1,), 1, backend="sampling", seed=seed)
    with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
        fidelity_sweep([64, 256], 1, seed=seed)


def test_fidelity_sweep_is_seed_deterministic():
    state = reference_sweep_state(extent=16, steps=5)
    a = fidelity_sweep([256, 512], trials=2, seed=3, state=state)
    b = fidelity_sweep([256, 512], trials=2, seed=3, state=state)
    assert a.rows == b.rows
    assert a.slope == b.slope
