"""End-to-end acceptance gate.

Each test covers one headline capability at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s`` or in the captured output
of a failing run). Budgets are wall-clock guards so the whole gate stays
runnable on a laptop.
"""

import time

import numpy as np

from qlbm.circuits import (
    GateOp,
    RegisterLayout,
    build_advection_diffusion_circuit,
    build_boundary_ops,
    build_collision_ops,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
    cavity_wall_mask,
)
from qlbm.lattice import (
    D1Q2,
    D1Q3,
    D2Q5,
    CavitySpec,
    solve_cavity_classical,
    step_advection_diffusion,
    velocity_from_stream_function,
)
from qlbm.lowering import lower_circuit, lower_op
from qlbm.resources import compare_single_vs_frugal, scaling_sweep
from qlbm.solver import (
    fidelity_sweep,
    relative_error,
    run_advection_diffusion,
    run_cavity,
)

from dense_reference import apply_ops_numpy, circuit_unitary


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _impulse(shape, background, site, value):
    field = np.full(shape, background)
    field[site] = value
    return field


def test_criterion_1_transport_matches_classical_oracle():
    t0 = time.perf_counter()
    worst = 0.0

    for scheme in (D1Q2, D1Q3):
        field = _impulse((32,), 0.1, 10, 0.2)
        result = run_advection_diffusion(scheme, field, (0.2,), 50)
        reference = field.copy()
        for t in range(1, 51):
            reference = step_advection_diffusion(scheme, reference, (0.2,))
            worst = max(worst, float(relative_error(result.fields[t], reference).max()))

    field = _impulse((8, 8), 0.1, (4, 4), 0.3)
    result = run_advection_diffusion(D2Q5, field, (0.2, 0.2), 20)
    reference = field.copy()
    for t in range(1, 21):
        reference = step_advection_diffusion(D2Q5, reference, (0.2, 0.2))
        worst = max(worst, float(relative_error(result.fields[t], reference).max()))

    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion-1 transport oracle equivalence",
        worst <= 1e-8 and elapsed < 30.0,
        f"max relative error {worst:.2e} (tol 1e-08), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_checkerboarding_depends_on_rest_link():
    impulse = np.zeros(32)
    impulse[10] = 1.0

    two_link = run_advection_diffusion(D1Q2, impulse, (0.0,), 50)
    three_link = run_advection_diffusion(D1Q3, impulse, (0.0,), 50)

    # Two links: mass hops parity every step, zeros are exact (bitwise).
    odd = np.arange(32) % 2 == 1
    two_ok = (
        np.all(two_link.fields[2][odd] == 0.0)
        and np.all(two_link.fields[2][~odd][np.abs(np.arange(0, 32, 2) - 10) <= 2] > 0)
        and np.all(two_link.fields[50][odd] == 0.0)
        and np.all(two_link.fields[50][~odd] > 0.0)
    )
    # A rest link kills the artifact: both parities fill in.
    dist = np.minimum(np.abs(np.arange(32) - 10), 32 - np.abs(np.arange(32) - 10))
    three_ok = np.all(three_link.fields[2][dist <= 2] > 0.0) and np.all(
        three_link.fields[50] > 0.0
    )
    _verdict(
        "criterion-2 checkerboarding",
        bool(two_ok and three_ok),
        "two-link run alternates with exact zeros; rest-link run fills both parities",
    )


def test_criterion_3_sampling_infidelity_scales_inversely_with_shots():
    t0 = time.perf_counter()
    shots = [1 << e for e in range(10, 19)]
    result = fidelity_sweep(shots, trials=5, seed=0)
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion-3 fidelity-shots scaling",
        0.85 <= result.slope <= 1.15 and elapsed < 120.0,
        f"log-log slope {result.slope:.3f} (window [0.85, 1.15]), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_4_cavity_verification():
    t0 = time.perf_counter()
    spec = CavitySpec(n=8, lid_velocity=1.0, steps=80)
    classical = solve_cavity_classical(spec)
    frugal = run_cavity(spec, variant="frugal")
    single = run_cavity(spec, variant="single")

    err_classical = max(
        float(relative_error(frugal.psi[-1], classical.psi[-1]).max()),
        float(relative_error(frugal.omega[-1], classical.omega[-1]).max()),
    )
    err_variants = max(
        float(relative_error(single.psi[-1], frugal.psi[-1]).max()),
        float(relative_error(single.omega[-1], frugal.omega[-1]).max()),
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion-4 cavity verification",
        err_classical <= 1e-6 and err_variants <= 1e-6 and elapsed < 300.0,
        f"vs classical {err_classical:.2e}, single vs pair {err_variants:.2e} "
        f"(tol 1e-06), {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_block_encodings_apply_their_operators():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_k = 0.0
    for trial in range(100):
        n_value = int(rng.integers(1, 4))  # coefficient vectors of length 2, 4, 8
        layout = RegisterLayout(n_r0=n_value)
        k = rng.uniform(-1.0, 1.0, 1 << n_value)
        ops = build_collision_ops(layout, k, layout.r0)
        assert [op.kind for op in ops] == ["BLOCK"]
        vec = np.zeros(1 << layout.qubit_count, dtype=complex)
        block = 1 << n_value
        vec[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
        vec /= np.linalg.norm(vec)
        out = apply_ops_numpy(vec, ops, layout.qubit_count)
        worst_k = max(worst_k, float(np.abs(out[:block] - k * vec[:block]).max()))

    worst_wall = 0.0
    worst_interior = 0.0
    for extent in (2, 4, 8):
        layout = RegisterLayout.for_scheme(D2Q5, extent, boundary=True)
        mask = cavity_wall_mask(extent)
        field = rng.standard_normal(layout.n_sites)
        vec = np.zeros(1 << layout.qubit_count, dtype=complex)
        vec[: layout.n_sites] = field
        vec /= np.linalg.norm(vec)
        ops = build_boundary_ops(layout, mask)
        assert [op.kind for op in ops] == ["BLOCK"]
        out = apply_ops_numpy(vec, ops, layout.qubit_count)
        sites = out[: layout.n_sites]
        worst_wall = max(worst_wall, float(np.abs(sites[mask]).max()))
        keep = vec[: layout.n_sites][~mask]
        if keep.size:  # a 2x2 lattice is all wall
            worst_interior = max(worst_interior, float(np.abs(sites[~mask] - keep).max()))

    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion-5 coefficient and wall block encodings",
        worst_k <= 1e-10 and worst_wall <= 1e-12 and worst_interior <= 1e-12 and elapsed < 30.0,
        f"diag error {worst_k:.2e} (tol 1e-10), wall residue {worst_wall:.2e}, "
        f"interior drift {worst_interior:.2e} (tol 1e-12), {elapsed:.1f}s (budget 30s)",
    )


def _phase_aligned_error(u: np.ndarray, v: np.ndarray) -> float:
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = u[idx] / v[idx]
    return float(np.abs(u - v * phase).max())


def test_criterion_6_lowering_preserves_unitaries():
    rng = np.random.default_rng(1)
    cases = []

    # named identities with pinned CNOT counts
    toffoli = GateOp("MCX", (2,), (0, 1), (1, 1))
    low = lower_op(toffoli)
    cases.append(("toffoli", [toffoli], low, 3, 6))
    crz = GateOp("RZ", (1,), controls=(0,), control_values=(1,), params=(0.77,))
    low = lower_op(crz)
    cases.append(("controlled-rz", [crz], low, 2, 2))

    for m in (3, 4, 5):
        op = GateOp("MCX", (m,), tuple(range(m)), (1,) * m)
        cases.append((f"mcx-{m}", [op], lower_op(op), m + 1, None))
    block = GateOp("BLOCK", (0, 1, 2), (3,), (1,), params=rng.uniform(-1, 1, 4))
    cases.append(("controlled-block-3q", [block], lower_op(block), 4, None))

    # whole pipelines
    field = np.full(8, 0.1)
    field[3] = 0.4
    adv = build_advection_diffusion_circuit(D1Q3, 8, field, (0.2,))
    cases.append(("advdiff-pipeline", adv.gates, lower_circuit(adv).gates, adv.n_qubits, None))

    spec = CavitySpec(n=2, lid_velocity=1.0, steps=1)
    hist = solve_cavity_classical(spec)
    psi, omega = hist.psi[-1], hist.omega[-1]
    u, v = velocity_from_stream_function(psi)
    scale = D2Q5.diffusion
    sf = build_stream_function_circuit(D2Q5, 2, psi, scale * omega)
    cases.append(("stream-function-pipeline", sf.gates, lower_circuit(sf).gates, sf.n_qubits, None))
    vort = build_vorticity_circuit(D2Q5, 2, omega, np.stack([u, v]))
    cases.append(("vorticity-pipeline", vort.gates, lower_circuit(vort).gates, vort.n_qubits, None))
    combined = build_single_cavity_circuit(D2Q5, 2, psi, scale * omega, omega, np.stack([u, v]))
    cases.append(("combined-pipeline", combined.gates, lower_circuit(combined).gates, combined.n_qubits, None))

    worst = 0.0
    for name, original, lowered, n_qubits, cnots in cases:
        assert n_qubits <= 10
        if cnots is not None:
            found = sum(1 for op in lowered if op.kind == "MCX")
            assert found == cnots, f"{name}: {found} CNOTs, expected {cnots}"
        err = _phase_aligned_error(
            circuit_unitary(lowered, n_qubits), circuit_unitary(original, n_qubits)
        )
        worst = max(worst, err)

    _verdict(
        "criterion-6 lowering soundness",
        worst <= 1e-8,
        f"max unitary deviation {worst:.2e} over {len(cases)} circuits (tol 1e-08), "
        "including the 6-CNOT doubly-controlled X and 2-CNOT controlled-RZ forms",
    )


def test_criterion_7_combined_vs_pair_resource_ordering():
    t0 = time.perf_counter()
    sweep = scaling_sweep([2, 4, 8, 16, 32])
    big = compare_single_vs_frugal(64)
    at16 = sweep[3]

    gaps = [c.cnot_gap for c in sweep]
    ordered = all(a <= b for a, b in zip(gaps, gaps[1:]))
    reductions_ok = (
        at16.cnot_reduction >= 0.20
        and at16.depth_reduction >= 0.20
        and big.cnot_reduction >= 0.20
        and big.depth_reduction >= 0.20
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion-7 resource-reduction ordering",
        ordered and reductions_ok and elapsed < 120.0,
        f"16^2: {100 * at16.cnot_reduction:.1f}% CNOT / {100 * at16.depth_reduction:.1f}% depth; "
        f"64^2: {100 * big.cnot_reduction:.1f}% CNOT / {100 * big.depth_reduction:.1f}% depth "
        f"(floor 20%); CNOT gaps {gaps} non-decreasing; {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_8_qubit_counts_scale_logarithmically():
    checked = 0
    for scheme in (D1Q2, D1Q3, D2Q5):
        for extent in (4, 8, 16, 32):
            for source in (False, True):
                for boundary in (False, True):
                    layout = RegisterLayout.for_scheme(
                        scheme, extent, source=source, boundary=boundary
                    )
                    expected = (
                        1
                        + scheme.n_link_qubits
                        + scheme.dimension * extent.bit_length() - scheme.dimension
                        + int(source)
                        + int(boundary)
                    )
                    assert layout.qubit_count == expected, (scheme.name, extent, source, boundary)
                    checked += 1

    # the built circuits use exactly the formula widths
    field = np.full(16, 0.1)
    assert build_advection_diffusion_circuit(D1Q2, 16, field, (0.1,)).n_qubits == 1 + 1 + 4
    spec = CavitySpec(n=8, steps=2)
    hist = solve_cavity_classical(spec)
    psi, omega = hist.psi[-1], hist.omega[-1]
    u, v = velocity_from_stream_function(psi)
    scale = D2Q5.diffusion
    assert build_stream_function_circuit(D2Q5, 8, psi, scale * omega).n_qubits == 1 + 3 + 6 + 1 + 1
    assert build_vorticity_circuit(D2Q5, 8, omega, np.stack([u, v])).n_qubits == 1 + 3 + 6 + 1

    _verdict(
        "criterion-8 qubit-scaling formula",
        True,
        f"1 + link + dimension*site (+source, +wall) qubits exact on {checked} layouts "
        "and the three pipeline builders",
    )


def test_criterion_9_mass_conservation_through_the_pipeline():
    field = _impulse((32,), 0.1, 10, 0.2)
    result_1d = run_advection_diffusion(D1Q3, field, (0.2,), 50)
    drift_1d = float(np.abs(result_1d.fields.sum(axis=1) - field.sum()).max())

    field2 = _impulse((8, 8), 0.1, (4, 4), 0.3)
    result_2d = run_advection_diffusion(D2Q5, field2, (0.2, 0.2), 20)
    drift_2d = float(np.abs(result_2d.fields.sum(axis=(1, 2)) - field2.sum()).max())

    ok = drift_1d <= 1e-8 and drift_2d <= 1e-8
    _verdict(
        "criterion-9 mass conservation",
        ok,
        f"max drift {max(drift_1d, drift_2d):.2e} over 50-step and 20-step runs (tol 1e-08)",
    )
