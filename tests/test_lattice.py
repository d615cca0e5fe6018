"""Tests for the classical lattice core: schemes, steps, cavity flow, file formats.

The Poisson relaxation is checked against a dense direct solve of the 5-point
system it is supposed to converge to, built here from scratch so the two
implementations share no code.
"""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qlbm.errors import ConfigurationError
from qlbm.solver import run_advection_diffusion
from qlbm.statevector import ZeroState
from qlbm.lattice import (
    D1Q2,
    D1Q3,
    D2Q5,
    CavitySpec,
    LatticeScheme,
    apply_cavity_boundaries,
    cavity_step_classical,
    collision_coefficients,
    equilibrium_distribution,
    load_field_csv,
    load_field_qlbf,
    macro_moment,
    require_power_of_two,
    save_field_csv,
    save_field_qlbf,
    scheme_by_name,
    solve_cavity_classical,
    step_advection_diffusion,
    step_poisson,
    stream_periodic,
    velocity_from_stream_function,
)

# ---------------------------------------------------------------------------
# scheme definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", [D1Q2, D1Q3, D2Q5], ids=lambda s: s.name)
def test_scheme_weights_sum_to_one(scheme):
    assert sum(scheme.weights) == 1


@pytest.mark.parametrize("scheme", [D1Q2, D1Q3, D2Q5], ids=lambda s: s.name)
def test_scheme_first_moment_vanishes(scheme):
    e = scheme.link_array
    w = scheme.weight_array
    np.testing.assert_allclose(w @ e, 0.0, atol=0)


def test_sound_speeds():
    assert float(D1Q2.sound_speed_sq) == 1.0
    assert float(D1Q3.sound_speed_sq) == pytest.approx(1.0 / 3.0)
    assert float(D2Q5.sound_speed_sq) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("links, weights", [
    # unequal axes: sum w e_x e_x = 1/2, sum w e_y e_y = 1/6
    (((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), (Fraction(1, 3), Fraction(1, 4), Fraction(1, 4), Fraction(1, 12), Fraction(1, 12))),
    # equal axes but a cross term: sum w e_x e_y = 1
    (((1, 1), (-1, -1)), (Fraction(1, 2), Fraction(1, 2))),
], ids=["axes", "cross"])
def test_scheme_rejects_an_anisotropic_second_moment(links, weights):
    with pytest.raises(ConfigurationError, match="isotropic"):
        LatticeScheme("D2Qx", 2, links, weights)


@pytest.mark.parametrize("scheme", [D1Q2, D1Q3, D2Q5], ids=lambda s: s.name)
def test_scheme_arrays_are_built_once_and_read_only(scheme):
    for name in ("weight_array", "link_array"):
        array = getattr(scheme, name)
        assert getattr(scheme, name) is array
        with pytest.raises(ValueError):
            array[0] = 0
    assert scheme.sound_speed_sq is scheme.sound_speed_sq


def test_link_qubit_counts():
    assert D1Q2.n_link_qubits == 1
    assert D1Q3.n_link_qubits == 2
    assert D2Q5.n_link_qubits == 3


def test_scheme_by_name_is_case_insensitive():
    assert scheme_by_name("d2q5") is D2Q5
    assert scheme_by_name("D1Q3") is D1Q3


def test_scheme_by_name_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown lattice scheme"):
        scheme_by_name("d3q19")


@pytest.mark.parametrize("name", [3, None, b"d2q5"])
def test_scheme_by_name_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(ConfigurationError, match="unknown lattice scheme"):
        scheme_by_name(name)


def test_flow_params_defaults():
    # the full-replacement regime's D = c_s^2 / 2, per scheme
    assert D1Q2.diffusion == pytest.approx(0.5)
    assert D1Q3.diffusion == pytest.approx(1.0 / 6.0)
    assert D2Q5.diffusion == pytest.approx(1.0 / 6.0)


def test_require_power_of_two_reports_the_name_it_is_given():
    require_power_of_two(2, 4, 64)
    with pytest.raises(ConfigurationError, match=r"^extent 12 is not a power of two >= 2$"):
        require_power_of_two(4, 12)
    with pytest.raises(ConfigurationError, match=r"^--extent 1 is not a power of two >= 2$"):
        require_power_of_two(1, name="--extent")


_INTEGER_INPUTS = {
    "require_power_of_two": require_power_of_two,
    "CavitySpec.n": lambda v: CavitySpec(v, 0.8, 2),
    "CavitySpec.steps": lambda v: CavitySpec(8, 0.8, v),
    "run_advection_diffusion.steps": lambda v: run_advection_diffusion(D1Q3, np.ones(8), (0.1,), v),
    "ZeroState": ZeroState,
}


@pytest.mark.parametrize("name", sorted(_INTEGER_INPUTS))
@pytest.mark.parametrize("value", [8.0, 2.5, "8", True])
def test_non_integer_extents_and_counts_are_rejected(name, value):
    with pytest.raises(ConfigurationError, match=r"power of two|integer"):
        _INTEGER_INPUTS[name](value)
    _INTEGER_INPUTS[name](np.int64(8))  # numpy integers are integers


def test_zero_state_rejects_a_negative_qubit_count():
    with pytest.raises(ConfigurationError, match="n_qubits"):
        ZeroState(-1)


def test_cavity_reynolds_number():
    assert CavitySpec(8, 1.0).reynolds == 42.0


# ---------------------------------------------------------------------------
# collide and stream building blocks
# ---------------------------------------------------------------------------


def test_collision_coefficients_at_rest_equal_weights():
    k = collision_coefficients(D2Q5, (0.0, 0.0), (4, 4))
    for a in range(D2Q5.n_links):
        np.testing.assert_allclose(k[a], float(D2Q5.weights[a]))


def test_collision_coefficients_d1q2_advection():
    # k = w (1 + e u / cs^2) with w = 1/2, cs^2 = 1
    k = collision_coefficients(D1Q2, (0.3,), (4,))
    np.testing.assert_allclose(k[0], 0.5 * 1.3)
    np.testing.assert_allclose(k[1], 0.5 * 0.7)


def test_collision_coefficients_accept_per_site_velocity():
    u = np.linspace(-0.2, 0.2, 8).reshape(1, 8)
    k = collision_coefficients(D1Q3, u, (8,))
    np.testing.assert_allclose(k[1] - k[2], 2 * (1.0 / 6.0) * u[0] / (1.0 / 3.0))


def test_collision_coefficients_reject_wrong_velocity_shape():
    with pytest.raises(ConfigurationError, match="velocity shape"):
        collision_coefficients(D2Q5, (0.1,), (4, 4))


def test_equilibrium_zeroth_moment_recovers_field():
    rng = np.random.default_rng(3)
    field = rng.random((8, 8))
    f = equilibrium_distribution(D2Q5, field, (0.1, -0.05))
    np.testing.assert_allclose(macro_moment(f), field, rtol=1e-14)


def test_equilibrium_rejects_wrong_dimension():
    with pytest.raises(ConfigurationError, match="axes"):
        equilibrium_distribution(D2Q5, np.zeros(8), (0.0, 0.0))


def test_stream_periodic_moves_along_links_1d():
    f = np.zeros((2, 8))
    f[0, 3] = 1.0  # link +1
    f[1, 3] = 2.0  # link -1
    out = stream_periodic(D1Q2, f)
    assert out[0, 4] == 1.0
    assert out[1, 2] == 2.0


def test_stream_periodic_moves_along_links_2d():
    f = np.zeros((5, 4, 4))
    f[1, 2, 1] = 1.0  # link (+1, 0): site (x=1, y=2) -> (x=2, y=2)
    f[2, 2, 1] = 2.0  # link (0, +1): -> (x=1, y=3)
    out = stream_periodic(D2Q5, f)
    assert out[1, 2, 2] == 1.0
    assert out[2, 3, 1] == 2.0


def test_stream_periodic_wraps():
    f = np.zeros((2, 4))
    f[0, 3] = 1.0
    assert stream_periodic(D1Q2, f)[0, 0] == 1.0


def test_stream_periodic_rejects_bad_link_axis():
    with pytest.raises(ConfigurationError, match="link count"):
        stream_periodic(D1Q2, np.zeros((3, 8)))


@pytest.mark.parametrize("shape", [(2, 8, 8), (3, 4, 4), (5, 8), (5, 2, 2, 2)])
def test_stream_periodic_rejects_site_axes_other_than_the_scheme_dimension(shape):
    scheme = {2: D1Q2, 3: D1Q3, 5: D2Q5}[shape[0]]
    with pytest.raises(ConfigurationError, match="site axes"):
        stream_periodic(scheme, np.zeros(shape))


def _rolled(scheme, populations):
    """Reference streaming: one ``np.roll`` per link."""
    out = np.empty_like(populations)
    for a, e in enumerate(scheme.links):
        if scheme.dimension == 1:
            out[a] = np.roll(populations[a], e[0])
        else:
            out[a] = np.roll(populations[a], (e[1], e[0]), axis=(0, 1))
    return out


@pytest.mark.parametrize("extent", [2, 3, 4, 5, 8, 16, 32])
@pytest.mark.parametrize("scheme", [D1Q2, D1Q3, D2Q5], ids=lambda s: s.name)
def test_stream_periodic_equals_a_roll_per_link(scheme, extent):
    rng = np.random.default_rng(extent)
    populations = rng.standard_normal((scheme.n_links,) + (extent,) * scheme.dimension)
    populations[populations < -1.0] = -0.0  # signed zeros must land where the roll puts them
    assert stream_periodic(scheme, populations).tobytes() == _rolled(scheme, populations).tobytes()


def test_step_rejects_non_power_of_two_extent():
    with pytest.raises(ConfigurationError, match="power of two"):
        step_advection_diffusion(D1Q2, np.zeros(12), (0.1,))


@settings(max_examples=25, deadline=None)
@given(
    field=hnp.arrays(np.float64, (16,), elements=st.floats(0.0, 1.0)),
    c=st.floats(-1.0, 1.0),
)
def test_advection_diffusion_conserves_mass(field, c):
    out = step_advection_diffusion(D1Q3, field, (c,))
    assert np.sum(out) == pytest.approx(np.sum(field), abs=1e-12)


def test_pure_advection_limit_d1q2():
    # At u = c = 1 every site's mass moves one site to the right.
    field = np.arange(8, dtype=float)
    out = step_advection_diffusion(D1Q2, field, (1.0,))
    np.testing.assert_allclose(out, np.roll(field, 1), atol=1e-14)


def test_diffusive_variance_growth_d2q5():
    # A resting impulse spreads with var(t) = 2 D t per axis, D = 1/6.
    n = 32
    field = np.zeros((n, n))
    field[n // 2, n // 2] = 1.0
    x = np.arange(n, dtype=float)
    for step in range(1, 6):
        field = step_advection_diffusion(D2Q5, field, (0.0, 0.0))
        mass = field.sum()
        mx = (field.sum(axis=0) @ x) / mass
        var_x = (field.sum(axis=0) @ (x - mx) ** 2) / mass
        assert var_x == pytest.approx(2.0 * (1.0 / 6.0) * step, rel=1e-12)


def test_checkerboard_parity_d1q2():
    # D1Q2 moves all mass off-site every step: an impulse only ever occupies
    # sites of the start parity on even steps. The zeros are exact.
    field = np.zeros(32)
    field[10] = 1.0
    for _ in range(2):
        field = step_advection_diffusion(D1Q2, field, (0.0,))
    assert np.all(field[1::2] == 0.0)
    assert field.sum() == pytest.approx(1.0)


def test_propagation_cone_d1q3():
    # With a rest link the impulse fills its cone: after t steps every site
    # within periodic distance t is populated and everything outside is zero.
    n = 32
    field = np.zeros(n)
    field[10] = 1.0
    t = 5
    for _ in range(t):
        field = step_advection_diffusion(D1Q3, field, (0.0,))
    dist = np.minimum(np.abs(np.arange(n) - 10), n - np.abs(np.arange(n) - 10))
    assert np.all(field[dist <= t] > 0.0)
    assert np.all(field[dist > t] == 0.0)


# ---------------------------------------------------------------------------
# Poisson relaxation against a dense direct solve
# ---------------------------------------------------------------------------


def _link_averaged_source(source):
    avg = source / 3.0
    for ex, ey in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        avg += np.roll(source, (ey, ex), axis=(0, 1)) / 6.0
    return avg


def _dense_poisson_solve(source):
    """Directly solve the 5-point system grad^2 psi = link-average(source)
    with psi = 0 on the walls. Independent of the module under test."""
    n = source.shape[0]
    sites = [(y, x) for y in range(1, n - 1) for x in range(1, n - 1)]
    index = {site: i for i, site in enumerate(sites)}
    m = len(sites)
    a = np.zeros((m, m))
    b = _link_averaged_source(source)[1:-1, 1:-1].ravel()
    for (y, x), i in index.items():
        a[i, i] = -4.0
        for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if (yy, xx) in index:
                a[i, index[(yy, xx)]] = 1.0
    psi = np.zeros((n, n))
    psi[1:-1, 1:-1] = np.linalg.solve(a, b).reshape(n - 2, n - 2)
    return psi


def test_poisson_relaxation_converges_to_dense_solution():
    rng = np.random.default_rng(0)
    source = rng.standard_normal((8, 8))
    expected = _dense_poisson_solve(source)
    psi = np.zeros((8, 8))
    for _ in range(600):
        psi = step_poisson(D2Q5, psi, source)
        psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    np.testing.assert_allclose(psi, expected, atol=1e-9)


@pytest.mark.parametrize("extent", [2, 8, 32])
def test_poisson_sweep_streams_the_equilibrium_at_rest(extent):
    rng = np.random.default_rng(extent)
    psi, source = rng.standard_normal((2, extent, extent))
    folded = psi + -D2Q5.diffusion * source
    g = equilibrium_distribution(D2Q5, folded, (0.0, 0.0))
    assert step_poisson(D2Q5, psi, source).tobytes() == macro_moment(_rolled(D2Q5, g)).tobytes()


def test_poisson_rejects_mismatched_shapes():
    with pytest.raises(ConfigurationError, match="shape"):
        step_poisson(D2Q5, np.zeros((4, 4)), np.zeros((8, 8)))


# ---------------------------------------------------------------------------
# stream function, boundaries, cavity flow
# ---------------------------------------------------------------------------


def test_velocity_from_stream_function_linear_field_is_exact():
    # psi = x*y gives u = dpsi/dy = x, v = -dpsi/dx = -y, exact at second order.
    n = 8
    y, x = np.mgrid[0:n, 0:n].astype(float)
    u, v = velocity_from_stream_function(x * y)
    np.testing.assert_allclose(u, x, atol=1e-12)
    np.testing.assert_allclose(v, -y, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (3, 3), (4, 7), (8, 8), (16, 16), (32, 32)])
def test_velocity_equals_one_gradient_call_per_axis(shape):
    rng = np.random.default_rng(shape[1])
    psi = rng.standard_normal(shape)
    order = 2 if min(shape) >= 3 else 1
    u, v = velocity_from_stream_function(psi)
    assert u.tobytes() == np.gradient(psi, axis=0, edge_order=order).tobytes()
    assert v.tobytes() == (-np.gradient(psi, axis=1, edge_order=order)).tobytes()


@pytest.mark.parametrize("shape", [(2, 5), (4, 7)])
def test_velocity_from_stream_function_returns_one_array_whose_rows_are_u_and_v(shape):
    velocity = velocity_from_stream_function(np.random.default_rng(7).standard_normal(shape))
    assert isinstance(velocity, np.ndarray) and velocity.shape == (2, *shape) and velocity.flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 64), st.integers(3, 64), st.integers(0, 2**32 - 1))
def test_the_sliced_stencil_is_np_gradient_bit_for_bit(rows, cols, seed):
    rng = np.random.default_rng(seed)
    # zeros of both signs among the values, so a sign of zero shows too
    psi = rng.standard_normal((rows, cols)) * rng.integers(-1, 2, (rows, cols))
    u, v = velocity_from_stream_function(psi)
    assert u.tobytes() == np.gradient(psi, axis=0, edge_order=2).tobytes()
    assert v.tobytes() == (-np.gradient(psi, axis=1, edge_order=2)).tobytes()


@pytest.mark.parametrize("psi", [np.ones(8), np.ones((2, 4, 4)), np.float64(1.0), np.ones((1, 4)), np.ones((4, 0))],
                         ids=["1-d", "3-d", "0-d", "one-row", "empty"])
def test_velocity_from_stream_function_needs_a_2d_field(psi):
    with pytest.raises(ConfigurationError, match="2-D"):
        velocity_from_stream_function(psi)


@pytest.mark.parametrize("psi, source, name", [(np.ones((4, 4)) + 0j, np.ones((4, 4)), "psi"),
                                                (np.ones((4, 4)), np.full((4, 4), 1j), "source")])
def test_the_poisson_sweep_refuses_complex_inputs(psi, source, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be real"):
        step_poisson(D2Q5, psi, source)


def test_cavity_boundaries_zero_stream_function_walls():
    rng = np.random.default_rng(5)
    spec = CavitySpec(n=8)
    psi, omega = apply_cavity_boundaries(rng.random((8, 8)), rng.random((8, 8)), spec)
    assert np.all(psi[0, :] == 0.0)
    assert np.all(psi[-1, :] == 0.0)
    assert np.all(psi[:, 0] == 0.0)
    assert np.all(psi[:, -1] == 0.0)


def test_cavity_boundaries_wall_vorticity_formula():
    rng = np.random.default_rng(6)
    spec = CavitySpec(n=8, lid_velocity=1.0)
    psi_in = rng.random((8, 8))
    _, omega = apply_cavity_boundaries(psi_in, np.zeros((8, 8)), spec)
    psi = psi_in.copy()
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    np.testing.assert_allclose(omega[0, 1:-1], -2.0 * psi[1, 1:-1])
    np.testing.assert_allclose(omega[1:-1, 0], -2.0 * psi[1:-1, 1])
    np.testing.assert_allclose(omega[1:-1, -1], -2.0 * psi[1:-1, -2])
    np.testing.assert_allclose(omega[-1, :], -2.0 * (psi[-2, :] + 1.0))


def test_cavity_boundaries_lid_row_wins_corners():
    spec = CavitySpec(n=4, lid_velocity=1.0)
    _, omega = apply_cavity_boundaries(np.zeros((4, 4)), np.zeros((4, 4)), spec)
    # All psi are zero, so side walls give 0 but the lid row gives -2 U,
    # including at its two corners.
    np.testing.assert_allclose(omega[-1, :], -2.0)
    np.testing.assert_allclose(omega[0, :], 0.0)


def test_cavity_boundaries_return_new_arrays_and_leave_their_inputs_as_they_were():
    rng = np.random.default_rng(7)
    psi, omega = rng.random((8, 8)), rng.random((8, 8))
    saved = psi.copy(), omega.copy()
    walled = apply_cavity_boundaries(psi, omega, CavitySpec(n=8, lid_velocity=0.5))
    np.testing.assert_array_equal(psi, saved[0])
    np.testing.assert_array_equal(omega, saved[1])
    assert not any(np.shares_memory(out, given) for out in walled for given in (psi, omega, *saved))
    assert not np.shares_memory(*walled)


@pytest.mark.parametrize("psi, omega, name", [(np.ones((4, 4)), np.full((4, 4), 1j), "omega"),
                                               (np.ones((4, 4)) + 0j, np.ones((4, 4)), "psi"),
                                               (np.ones((4, 4)), "wall", "omega")])
def test_cavity_boundaries_refuse_a_complex_or_unreadable_field(psi, omega, name):
    # the test session turns warnings into errors, so a ComplexWarning cast would fail here too
    with pytest.raises(ConfigurationError, match=f"{name} must be real"):
        apply_cavity_boundaries(psi, omega, CavitySpec(n=4))


@pytest.mark.parametrize("n", [-4, 0, 1, 3, 6, 12])
def test_cavity_spec_rejects_extent_not_a_power_of_two(n):
    with pytest.raises(ConfigurationError, match="power of two"):
        CavitySpec(n=n, steps=1)


@pytest.mark.parametrize("field", ["lid_velocity"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cavity_spec_rejects_non_finite_values(field, bad):
    with pytest.raises(ConfigurationError, match="finite"):
        CavitySpec(n=4, steps=1, **{field: bad})


@pytest.mark.parametrize("bad", ["1", True, None, 1j])
def test_cavity_spec_rejects_a_lid_velocity_that_is_not_a_real_number(bad):
    with pytest.raises(ConfigurationError, match="lid_velocity must be a finite real number"):
        CavitySpec(n=4, steps=1, lid_velocity=bad)


def test_cavity_at_rest_stays_at_rest():
    hist = solve_cavity_classical(CavitySpec(n=8, lid_velocity=0.0, steps=10))
    assert np.all(hist.psi == 0.0)
    assert np.all(hist.omega == 0.0)


def test_cavity_primary_vortex():
    hist = solve_cavity_classical(CavitySpec(n=8, steps=80))
    psi = hist.psi[-1]
    # Clockwise circulation: psi is non-positive with a single interior
    # minimum pulled toward the lid.
    assert psi.max() == pytest.approx(0.0, abs=1e-12)
    j, i = np.unravel_index(np.argmin(psi), psi.shape)
    assert 1 <= i <= 6 and 4 <= j <= 6
    assert psi.min() == pytest.approx(-0.645571, abs=1e-4)
    # The vortex core spins clockwise (negative vorticity).
    assert hist.omega[-1][j, i] < 0.0


def test_cavity_collision_coefficients_stay_subunit():
    # The derived link coefficients must stay inside [-1, 1] for the whole run
    # or the coefficient block encoding breaks down.
    spec = CavitySpec(n=8, steps=80)
    hist = solve_cavity_classical(spec)
    worst = 0.0
    for t in range(spec.steps):
        u, v = velocity_from_stream_function(hist.psi[t])
        k = collision_coefficients(D2Q5, np.stack([u, v]), (8, 8))
        worst = max(worst, np.abs(k).max())
    assert worst < 1.0


def test_cavity_step_matches_manual_composition():
    rng = np.random.default_rng(9)
    spec = CavitySpec(n=8)
    psi = rng.random((8, 8)) * 0.1
    omega = rng.random((8, 8)) * 0.1
    psi2, omega2 = cavity_step_classical(psi, omega, spec)

    u, v = velocity_from_stream_function(psi)
    k = collision_coefficients(D2Q5, np.stack([u, v]), (8, 8))
    omega_raw = macro_moment(stream_periodic(D2Q5, k * omega[None, ...]))
    psi_raw = step_poisson(D2Q5, psi, -omega)
    psi_ref, omega_ref = apply_cavity_boundaries(psi_raw, omega_raw, spec)
    np.testing.assert_allclose(psi2, psi_ref, atol=1e-14)
    np.testing.assert_allclose(omega2, omega_ref, atol=1e-14)


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------


def test_field_csv_round_trip_1d(tmp_path):
    field = np.linspace(-1.0, 1.0, 16) ** 3
    path = tmp_path / "field.csv"
    save_field_csv(path, field)
    np.testing.assert_array_equal(load_field_csv(path), field)


def test_field_csv_round_trip_2d(tmp_path):
    rng = np.random.default_rng(11)
    field = rng.standard_normal((4, 8))
    path = tmp_path / "field.csv"
    save_field_csv(path, field)
    np.testing.assert_array_equal(load_field_csv(path), field)


def test_field_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1.0\n")
    with pytest.raises(ConfigurationError, match="header"):
        load_field_csv(path)


@pytest.mark.parametrize("rows,match", [
    ("0,0,1.0\n1,0,2.0\n0,1,3.0\n", "each of its 2x2 sites"),
    ("0,0,1.0\n1,0,2.0\n0,0,3.0\n", "listed twice"),
    ("", "no sites"),
    ("0,0\n", "expected x,y,value"),
    ("-1,0,1.0\n0,0,2.0\n", "sites once"),
], ids=["missing", "duplicate", "header-only", "malformed", "negative"])
def test_field_csv_rejects_missing_duplicate_or_malformed_sites(tmp_path, rows, match):
    path = tmp_path / "field.csv"
    path.write_text("x,y,value\n" + rows)
    with pytest.raises(ConfigurationError, match=match):
        load_field_csv(path)


def test_field_binary_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    field = rng.standard_normal((8, 8))
    path = tmp_path / "field.qlbf"
    save_field_qlbf(path, field)
    np.testing.assert_array_equal(load_field_qlbf(path), field)


def test_field_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.qlbf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError, match="magic"):
        load_field_qlbf(path)


def test_field_binary_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.qlbf"
    save_field_qlbf(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigurationError, match="payload"):
        load_field_qlbf(path)


@pytest.mark.parametrize("header", [b"", b"\x02\x00", struct.pack("<I", 2), struct.pack("<I", 2) + b"\x04",
                                    struct.pack("<I", 2**32 - 1)],
                         ids=["no-rank", "short-rank", "no-dims", "short-dim", "rank-past-the-file"])
def test_field_binary_rejects_a_header_cut_short(tmp_path, header):
    path = tmp_path / "cut.qlbf"
    path.write_bytes(b"QLBF" + header)
    with pytest.raises(ConfigurationError, match="header cut short"):
        load_field_qlbf(path)


def test_field_binary_counts_the_promised_values_exactly(tmp_path):
    # three dims of 2^32 - 1 promise (2^32 - 1)^3 values, past what int64 holds
    path = tmp_path / "huge.qlbf"
    path.write_bytes(b"QLBF" + struct.pack("<4I", 3, *(3 * [2**32 - 1])) + bytes(8))
    with pytest.raises(ConfigurationError, match=f"header promises {(2**32 - 1) ** 3} values"):
        load_field_qlbf(path)


def test_field_binary_rejects_a_payload_of_part_values(tmp_path):
    path = tmp_path / "part.qlbf"
    save_field_qlbf(path, np.ones(4))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ConfigurationError, match="payload has 29 bytes"):
        load_field_qlbf(path)
