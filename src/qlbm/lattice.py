"""Classical lattice Boltzmann core: schemes, collide-stream steps, cavity flow.

Everything here is plain numpy and serves as the reference ("oracle") the
quantum statevector pipeline is verified against. Fields are numpy arrays:
1-D fields have shape ``(n,)``; 2-D fields have shape ``(n, n)`` indexed
``[j, i]`` = (y, x), so the flattened site index is ``x + n*y``. Link
distributions carry a leading link axis: ``(n_links,) + field.shape``.

The solvers run in the full-replacement regime (relaxation ratio 1): each step
replaces every link population with its equilibrium value, streams, and sums.
So the diffusion constant is a property of the scheme alone,
``LatticeScheme.diffusion`` = c_s^2 / 2, and a cavity is set up by its
:class:`CavitySpec` alone, which also gives its Reynolds number.
"""

from __future__ import annotations

import itertools
import math
import numbers
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, SimulationError

__all__ = [
    "LatticeScheme",
    "CavitySpec",
    "CavityHistory",
    "D1Q2",
    "D1Q3",
    "D2Q5",
    "scheme_by_name",
    "require_count",
    "require_power_of_two",
    "require_scheme",
    "collision_coefficients",
    "equilibrium_distribution",
    "stream_periodic",
    "macro_moment",
    "step_advection_diffusion",
    "step_poisson",
    "velocity_from_stream_function",
    "apply_cavity_boundaries",
    "cavity_step_classical",
    "solve_cavity_classical",
    "save_field_csv",
    "load_field_csv",
    "save_field_qlbf",
    "load_field_qlbf",
]


@dataclass(frozen=True)
class LatticeScheme:
    """A DnQm lattice: link vectors, weights, and squared sound speed.

    Weights are kept as exact rationals so the defining identities
    (sum of weights = 1, zero first moment, isotropic second moment) hold
    without float slop, and are checked exactly; ``weight_array`` is the
    float view used in compute. Derived values are computed once per scheme,
    and the arrays among them are read-only.
    """

    name: str
    dimension: int
    links: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.links) != len(self.weights):
            raise ConfigurationError("links and weights must pair up")
        if sum(self.weights) != 1:
            raise ConfigurationError(f"{self.name}: weights must sum to 1 exactly")
        for d in range(self.dimension):
            if sum(w * e[d] for w, e in zip(self.weights, self.links)) != 0:
                raise ConfigurationError(f"{self.name}: first moment must vanish")
        cs2 = self.sound_speed_sq
        for i in range(self.dimension):
            for j in range(self.dimension):
                if sum(w * e[i] * e[j] for w, e in zip(self.weights, self.links)) != (cs2 if i == j else 0):
                    raise ConfigurationError(
                        f"{self.name}: second moment must be isotropic, sum_a w_a e_a e_a = c_s^2 I"
                    )

    @property
    def n_links(self) -> int:
        return len(self.links)

    @cached_property
    def sound_speed_sq(self) -> Fraction:
        # from axis 0; __post_init__ checks that every axis agrees
        return sum(w * e[0] * e[0] for w, e in zip(self.weights, self.links))

    @cached_property
    def diffusion(self) -> float:
        """Diffusion constant of the full-replacement regime: D = c_s^2 (tau - dt/2) at tau = dt = 1."""
        return float(self.sound_speed_sq) / 2

    @cached_property
    def weight_array(self) -> np.ndarray:
        return _read_only(np.array([float(w) for w in self.weights]))

    @cached_property
    def link_array(self) -> np.ndarray:
        return _read_only(np.array(self.links, dtype=np.int64))

    @cached_property
    def _link_floats(self) -> np.ndarray:
        # the link table and c_s^2 as the collision coefficients compute with them
        return _read_only(self.link_array.astype(float))

    @cached_property
    def _sound_speed_sq_float(self) -> float:
        return float(self.sound_speed_sq)

    @cached_property
    def n_link_qubits(self) -> int:
        return int(np.ceil(np.log2(self.n_links)))

    @cached_property
    def _stream_blocks(self) -> dict[tuple[int, ...], tuple[tuple[tuple, tuple], ...]]:
        # stream_periodic's blocks per site shape, found without hashing the links and weights
        return {}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


D1Q2 = LatticeScheme(
    name="D1Q2",
    dimension=1,
    links=((1,), (-1,)),
    weights=(Fraction(1, 2), Fraction(1, 2)),
)

D1Q3 = LatticeScheme(
    name="D1Q3",
    dimension=1,
    links=((0,), (1,), (-1,)),
    weights=(Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)),
)

D2Q5 = LatticeScheme(
    name="D2Q5",
    dimension=2,
    links=((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)),
    weights=(Fraction(2, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
)

_SCHEMES = {s.name.lower(): s for s in (D1Q2, D1Q3, D2Q5)}


def scheme_by_name(name: str) -> LatticeScheme:
    scheme = _SCHEMES.get(name.lower()) if isinstance(name, str) else None
    if scheme is None:
        raise ConfigurationError(f"unknown lattice scheme {name!r}; choose from {sorted(_SCHEMES)}")
    return scheme


@dataclass(frozen=True)
class CavitySpec:
    """Lid-driven cavity setup: n x n grid, top row sliding with lid_velocity.

    Everything runs in lattice units: the grid spacing and the time step are 1.
    """

    n: int
    lid_velocity: float = 1.0
    steps: int = 80

    def __post_init__(self):
        require_count(self.steps, "steps")
        lid = self.lid_velocity
        if isinstance(lid, bool) or not isinstance(lid, numbers.Real) or not math.isfinite(lid):
            raise ConfigurationError(f"lid_velocity must be a finite real number, got {lid!r}")
        require_power_of_two(self.n)

    @property
    def reynolds(self) -> float:
        """Effective Reynolds number: lid velocity times the n - 1 spacings, over D2Q5's diffusion."""
        return self.lid_velocity * (self.n - 1) / D2Q5.diffusion


@dataclass
class CavityHistory:
    """Per-step (psi, omega) trajectories; index 0 is the initial state."""

    psi: np.ndarray  # (steps+1, n, n)
    omega: np.ndarray  # (steps+1, n, n)


def require_count(value: int, name: str) -> None:
    """Reject ``value`` unless it is an integer >= 0 (numpy integers count, bools do not), reporting it as ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigurationError(f"{name} must be an integer >= 0, got {value!r}")


def require_power_of_two(*extents: int, name: str = "extent") -> None:
    """Reject any extent that is not an integer power of two >= 2 (a bool is not), reporting it as ``name``."""
    for n in extents:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2 or n & (n - 1):
            raise ConfigurationError(f"{name} {n!r} is not a power of two >= 2")


def require_scheme(scheme) -> None:
    """Reject a ``scheme`` that is not a :class:`LatticeScheme` with a :class:`ConfigurationError` naming it."""
    if not isinstance(scheme, LatticeScheme):
        raise ConfigurationError(f"scheme must be a LatticeScheme, got {scheme!r}")


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, not copied if it is one; a complex value is refused, not cast to its real part.

    The one input rule of the classical and the gate path for a field or a
    velocity: a complex value, or one numpy cannot read as floats, is a
    :class:`ConfigurationError` naming it as ``name``.
    """
    if np.iscomplexobj(value):
        raise ConfigurationError(f"{name} must be real, got a complex value")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be real numbers, got {type(value).__name__}") from None


def _broadcast_velocity(scheme: LatticeScheme, velocity, shape):
    """Return velocity as an array of shape (dimension,) + shape."""
    v = _real_array(velocity, "velocity")
    if v.shape == (scheme.dimension,):
        return np.broadcast_to(v.reshape((scheme.dimension,) + (1,) * len(shape)), (scheme.dimension,) + tuple(shape))
    if v.shape == (scheme.dimension,) + tuple(shape):
        return v
    raise ConfigurationError(
        f"velocity shape {v.shape} does not match dimension {scheme.dimension} and field shape {tuple(shape)}"
    )


def collision_coefficients(scheme: LatticeScheme, velocity, shape) -> np.ndarray:
    """Per-link equilibrium coefficients k_a = w_a (1 + e_a . u / c_s^2).

    ``velocity`` is either a constant vector (length = dimension) or per-site
    component fields of shape (dimension,) + shape. Returns shape
    (n_links,) + shape.
    """
    return _coefficients_into(scheme, velocity, shape, None)


def _coefficients_into(scheme: LatticeScheme, velocity, shape, out) -> np.ndarray:
    """:func:`collision_coefficients`, written into ``out`` of shape (n_links,) + shape (a new array if None)."""
    u = _broadcast_velocity(scheme, velocity, shape)
    # e . u in einsum's own loop, not a BLAS call; the shipped schemes' link
    # components are 0 or +/-1 on at most two axes, so each product is exact
    # and the sum rounds once, as in any order of summation
    k = np.einsum("ad,d...->a...", scheme._link_floats, u, out=out)  # (n_links,) + shape
    k /= scheme._sound_speed_sq_float
    k += 1.0
    k *= scheme.weight_array.reshape((scheme.n_links,) + (1,) * len(shape))
    return k


def equilibrium_distribution(scheme: LatticeScheme, field: np.ndarray, velocity) -> np.ndarray:
    """Equilibrium link populations f_a = w_a phi (1 + e_a . u / c_s^2)."""
    field = _real_array(field, "field")
    if field.ndim != scheme.dimension:
        raise ConfigurationError(
            f"field has {field.ndim} axes but {scheme.name} is {scheme.dimension}-dimensional"
        )
    k = collision_coefficients(scheme, velocity, field.shape)
    return k * field[None, ...]


def _wrap_halves(shift: int, n: int) -> list[tuple[slice, slice]]:
    """(destination, source) slices of a periodic shift by ``shift`` along an axis of n points."""
    k = shift % n
    if not k:
        return [(slice(None), slice(None))]
    return [(slice(k, None), slice(None, n - k)), (slice(None, k), slice(n - k, None))]


def stream_periodic(scheme: LatticeScheme, populations: np.ndarray) -> np.ndarray:
    """Shift each link population by its link vector (periodic wrap).

    populations[a] moves by e_a: the value at site r lands on r + e_a. For the
    [j, i] = (y, x) layout this is a roll by (e_y, e_x) on axes (0, 1), done
    as one slice copy per wrapped block.
    """
    populations = np.asarray(populations)
    if populations.shape[0] != scheme.n_links:
        raise ConfigurationError("populations leading axis must equal the link count")
    if populations.ndim != 1 + scheme.dimension:
        raise ConfigurationError(
            f"populations need one link axis and {scheme.dimension} site axes, got shape {populations.shape}"
        )
    sites = populations.shape[1:]
    blocks = scheme._stream_blocks.get(sites)
    if blocks is None:
        blocks = scheme._stream_blocks[sites] = _wrapped_blocks(scheme.links, sites)
    out = np.empty_like(populations)
    for dst, src in blocks:
        out[dst] = populations[src]
    return out


def _wrapped_blocks(links: tuple[tuple[int, ...], ...], sites: tuple[int, ...]) -> tuple[tuple[tuple, tuple], ...]:
    """(destination, source) index of each wrapped block that :func:`stream_periodic` copies."""
    blocks = []
    for a, e in enumerate(links):
        # the site axes run (y, x): a link's components in reverse
        axes = [_wrap_halves(shift, n) for shift, n in zip(e[::-1], sites)]
        for halves in itertools.product(*axes):
            dst, src = zip(*halves)
            blocks.append(((a, *dst), (a, *src)))
    return tuple(blocks)


def macro_moment(populations: np.ndarray) -> np.ndarray:
    """Zeroth moment: sum over the link axis."""
    return np.asarray(populations).sum(axis=0)


def step_advection_diffusion(scheme, field, velocity) -> np.ndarray:
    """One full-replacement collide-and-stream step of the advected scalar."""
    field = _real_array(field, "field")
    require_power_of_two(*field.shape)
    f = equilibrium_distribution(scheme, field, velocity)
    return macro_moment(stream_periodic(scheme, f))


def step_poisson(scheme, psi, source) -> np.ndarray:
    """One relaxation sweep of the lattice Poisson iteration for grad^2 psi = source.

    The source is folded into the link populations before streaming,
    g_a = w_a (psi + gamma*source) with gamma = -D (dt = 1), so the fixed point of
    the iteration solves the 5-point system grad^2 psi = link-average(source).
    Callers re-impose Dirichlet values between sweeps.
    """
    psi = _real_array(psi, "psi")
    source = _real_array(source, "source")
    if psi.shape != source.shape:
        raise ConfigurationError(f"psi shape {psi.shape} != source shape {source.shape}")
    require_power_of_two(*psi.shape)
    gamma = -scheme.diffusion
    # the equilibrium at rest: its coefficients are the weights themselves
    g = scheme.weight_array.reshape((scheme.n_links,) + (1,) * psi.ndim) * (psi + gamma * source)
    return macro_moment(stream_periodic(scheme, g))


def velocity_from_stream_function(psi: np.ndarray):
    """(u, v) = (dpsi/dy, -dpsi/dx) on the unit grid, second-order, one-sided at the edges, as the rows of one (2, ny, nx) array.

    ``psi`` is a 2-D field of at least 2 points per axis, else
    :class:`ConfigurationError`. Grids too small for the second-order edge
    stencil (under 3 points per axis) drop to first order; a 2 x 2 cavity
    is all walls regardless.
    """
    psi = _real_array(psi, "psi")
    if psi.ndim != 2 or min(psi.shape) < 2:
        raise ConfigurationError(f"psi must be a 2-D field of at least 2 x 2 points, got shape {psi.shape}")
    velocity = np.empty((2, *psi.shape))
    if min(psi.shape) < 3:
        velocity[:] = np.gradient(psi, axis=(0, 1), edge_order=1)
    else:
        _second_order_derivative(psi, velocity[0])
        _second_order_derivative(psi.T, velocity[1].T)
    np.negative(velocity[1], out=velocity[1])
    return velocity


def _second_order_derivative(f: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` d f / d(axis 0) on the unit grid, as ``np.gradient(f, axis=0, edge_order=2)`` computes it, bit for bit.

    Central differences inside, the one-sided three-point stencils on the
    two edge rows; at least 3 rows.
    """
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0
    out[0] = -1.5 * f[0] + 2.0 * f[1] + -0.5 * f[2]
    out[-1] = 0.5 * f[-3] + -2.0 * f[-2] + 1.5 * f[-1]


def apply_cavity_boundaries(psi, omega, spec: CavitySpec):
    """Impose cavity walls on freshly updated (psi, omega) fields, as new arrays.

    psi is zeroed on all four walls. Wall vorticity comes from the second-order
    Taylor expansion about each wall with the no-slip/lid tangential velocity:
    omega_wall = -2 (psi_first_interior + U_wall) on the unit grid, U_wall being
    lid_velocity on the top row and 0 elsewhere. The top row is written last so
    lid-row corners take the lid value. The inputs are left as they are; a
    complex field is a :class:`ConfigurationError`.
    """
    n = spec.n
    psi2 = _real_array(psi, "psi").copy()
    omega2 = _real_array(omega, "omega").copy()
    if psi2.shape != (n, n) or omega2.shape != (n, n):
        raise ConfigurationError(f"cavity fields must be {n}x{n}")
    _impose_cavity_walls(psi2, omega2, spec.lid_velocity)
    return psi2, omega2


def _impose_cavity_walls(psi: np.ndarray, omega: np.ndarray, u_lid: float) -> None:
    """:func:`apply_cavity_boundaries`, written in place into two n x n float arrays."""
    psi[0, :] = 0.0
    psi[-1, :] = 0.0
    psi[:, 0] = 0.0
    psi[:, -1] = 0.0

    omega[0, :] = -2.0 * psi[1, :]
    omega[:, 0] = -2.0 * psi[:, 1]
    omega[:, -1] = -2.0 * psi[:, -2]
    omega[-1, :] = -2.0 * (psi[-2, :] + u_lid)


def cavity_step_classical(psi, omega, spec: CavitySpec):
    """One coupled cavity step from (psi_t, omega_t) to (psi_{t+1}, omega_{t+1}).

    Both field updates are computed from the previous step's fields (Jacobi
    style, mirroring the two concurrent circuits), then walls are imposed:

    - vorticity: advection-diffusion with velocities derived from psi_t,
    - stream function: one Poisson relaxation sweep with source -omega_t.
    """
    omega_next = step_advection_diffusion(D2Q5, omega, velocity_from_stream_function(psi))
    psi_next = step_poisson(D2Q5, psi, -omega)
    return apply_cavity_boundaries(psi_next, omega_next, spec)


def solve_cavity_classical(spec: CavitySpec) -> CavityHistory:
    """Run the classical lid-driven cavity for spec.steps steps from rest."""
    psi = np.zeros((spec.n, spec.n))
    omega = np.zeros((spec.n, spec.n))
    psi_hist = [psi]
    omega_hist = [omega]
    for step in range(1, spec.steps + 1):
        psi, omega = cavity_step_classical(psi, omega, spec)
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(omega))):
            raise SimulationError("cavity run diverged", step=step)
        psi_hist.append(psi)
        omega_hist.append(omega)
    return CavityHistory(psi=np.stack(psi_hist), omega=np.stack(omega_hist))


# ---------------------------------------------------------------------------
# field serialization
# ---------------------------------------------------------------------------

_QLBF_MAGIC = b"QLBF"


def save_field_csv(path, field) -> None:
    """Write a scalar field as CSV with header x,y,value (y = 0 for 1-D fields)."""
    field = np.asarray(field, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\n")
        if field.ndim == 1:
            for x, val in enumerate(field):
                fh.write(f"{x},0,{float(val)!r}\n")
        elif field.ndim == 2:
            for y in range(field.shape[0]):
                for x in range(field.shape[1]):
                    fh.write(f"{x},{y},{float(field[y, x])!r}\n")
        else:
            raise ConfigurationError("only 1-D and 2-D fields are serializable")


def load_field_csv(path) -> np.ndarray:
    """Read a field written by :func:`save_field_csv`; every site must appear once."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "x,y,value":
            raise ConfigurationError(f"bad field CSV header: {header!r}")
        values: dict[tuple[int, int], float] = {}
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                x_s, y_s, v_s = line.split(",")
                site, value = (int(x_s), int(y_s)), float(v_s)
            except ValueError:
                raise ConfigurationError(f"{path}:{lineno}: expected x,y,value, got {line!r}") from None
            if site in values:
                raise ConfigurationError(f"{path}:{lineno}: site {site} is listed twice")
            values[site] = value
    if not values:
        raise ConfigurationError(f"field CSV {path} has no sites")
    nx = max(x for x, _ in values) + 1
    ny = max(y for _, y in values) + 1
    if min(min(site) for site in values) < 0 or len(values) != nx * ny:
        raise ConfigurationError(f"field CSV {path} does not list each of its {nx}x{ny} sites once")
    out = np.empty((ny, nx))
    for (x, y), v in values.items():
        out[y, x] = v
    return out[0] if ny == 1 else out


def save_field_qlbf(path, field) -> None:
    """Binary field dump: magic 'QLBF', u32 rank, u32 dims, f64 row-major, LE."""
    field = np.asarray(field, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_QLBF_MAGIC)
        fh.write(struct.pack("<I", field.ndim))
        for n in field.shape:
            fh.write(struct.pack("<I", n))
        fh.write(field.tobytes(order="C"))


def _read_u32(fh) -> int:
    # one at a time, so a rank the file cannot hold fails at its first short read
    raw = fh.read(4)
    if len(raw) != 4:
        raise ConfigurationError(f"header cut short: {len(raw)} of 4 bytes left")
    return struct.unpack("<I", raw)[0]


def load_field_qlbf(path) -> np.ndarray:
    """Read a field :func:`save_field_qlbf` wrote; a malformed file raises ConfigurationError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _QLBF_MAGIC:
            raise ConfigurationError(f"bad magic {magic!r}, expected {_QLBF_MAGIC!r}")
        rank = _read_u32(fh)
        shape = tuple(_read_u32(fh) for _ in range(rank))
        payload = fh.read()
    expected = math.prod(shape)
    if len(payload) != 8 * expected:
        raise ConfigurationError(f"payload has {len(payload)} bytes, header promises {expected} values of 8")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
