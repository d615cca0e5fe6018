"""Classical lattice Boltzmann core: schemes, collide-stream steps, cavity flow.

Everything here is plain numpy and serves as the reference ("oracle") the
quantum statevector pipeline is verified against. Fields are numpy arrays:
1-D fields have shape ``(n,)``; 2-D fields have shape ``(n, n)`` indexed
``[j, i]`` = (y, x), so the flattened site index is ``x + n*y``. Link
distributions carry a leading link axis: ``(n_links,) + field.shape``.

The solvers run in the full-replacement regime (relaxation ratio 1): each step
replaces every link population with its equilibrium value, streams, and sums.
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
    "FlowParams",
    "CavitySpec",
    "CavityHistory",
    "D1Q2",
    "D1Q3",
    "D2Q5",
    "scheme_by_name",
    "require_count",
    "require_power_of_two",
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
    def weight_array(self) -> np.ndarray:
        return _read_only(np.array([float(w) for w in self.weights]))

    @cached_property
    def link_array(self) -> np.ndarray:
        return _read_only(np.array(self.links, dtype=np.int64))

    @cached_property
    def n_link_qubits(self) -> int:
        return int(np.ceil(np.log2(self.n_links)))


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
    try:
        return _SCHEMES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown lattice scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from None


@dataclass(frozen=True)
class FlowParams:
    """Relaxation and flow parameters shared by the solvers.

    The solvers support only the full-replacement regime, relaxation ratio
    dt/tau = 1. The diffusion constant is derived per scheme:
    D = c_s^2 (tau - dt/2).
    """

    tau: float = 1.0
    dt: float = 1.0
    lid_velocity: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.tau, self.dt)):
            raise ConfigurationError(f"tau and dt must be finite and positive, got {self.tau} and {self.dt}")
        if abs(self.dt / self.tau - 1.0) > 1e-12:
            raise ConfigurationError("only the full-replacement regime (dt/tau = 1) is supported")

    def diffusion(self, scheme: LatticeScheme) -> float:
        return float(scheme.sound_speed_sq) * (self.tau - self.dt / 2.0)

    def reynolds(self, extent: int) -> float:
        """Effective Reynolds number of a lid-driven cavity of the given extent."""
        return self.lid_velocity * (extent - 1) / self.diffusion(D2Q5)


@dataclass(frozen=True)
class CavitySpec:
    """Lid-driven cavity setup: n x n grid, top row sliding with lid_velocity."""

    n: int
    lid_velocity: float = 1.0
    steps: int = 80
    delta: float = 1.0

    def __post_init__(self):
        require_count(self.steps, "steps")
        if not (math.isfinite(self.lid_velocity) and math.isfinite(self.delta)):
            raise ConfigurationError(
                f"lid velocity and grid spacing must be finite, got {self.lid_velocity} and {self.delta}"
            )
        if not self.delta > 0:
            raise ConfigurationError(f"grid spacing must be positive, got {self.delta}")
        require_power_of_two(self.n)


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


def _broadcast_velocity(scheme: LatticeScheme, velocity, shape):
    """Return velocity as an array of shape (dimension,) + shape."""
    v = np.asarray(velocity, dtype=float)
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
    u = _broadcast_velocity(scheme, velocity, shape)
    cs2 = float(scheme.sound_speed_sq)
    w = scheme.weight_array
    e = scheme.link_array  # (n_links, dimension)
    edotu = np.tensordot(e.astype(float), u, axes=([1], [0]))  # (n_links,) + shape
    return w.reshape((scheme.n_links,) + (1,) * len(shape)) * (1.0 + edotu / cs2)


def equilibrium_distribution(scheme: LatticeScheme, field: np.ndarray, velocity) -> np.ndarray:
    """Equilibrium link populations f_a = w_a phi (1 + e_a . u / c_s^2)."""
    field = np.asarray(field, dtype=float)
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
    out = np.empty_like(populations)
    for a, e in enumerate(scheme.links):
        # the site axes run (y, x): a link's components in reverse
        axes = [_wrap_halves(shift, n) for shift, n in zip(e[::-1], populations.shape[1:])]
        for blocks in itertools.product(*axes):
            dst, src = zip(*blocks)
            out[(a, *dst)] = populations[(a, *src)]
    return out


def macro_moment(populations: np.ndarray) -> np.ndarray:
    """Zeroth moment: sum over the link axis."""
    return np.asarray(populations).sum(axis=0)


def step_advection_diffusion(scheme, field, velocity) -> np.ndarray:
    """One full-replacement collide-and-stream step of the advected scalar."""
    field = np.asarray(field, dtype=float)
    require_power_of_two(*field.shape)
    f = equilibrium_distribution(scheme, field, velocity)
    return macro_moment(stream_periodic(scheme, f))


def step_poisson(scheme, psi, source, params: FlowParams | None = None) -> np.ndarray:
    """One relaxation sweep of the lattice Poisson iteration for grad^2 psi = source.

    The source is folded into the link populations before streaming,
    g_a = w_a (psi + gamma*source) with gamma = -dt*D, so the fixed point of
    the iteration solves the 5-point system grad^2 psi = link-average(source).
    Callers re-impose Dirichlet values between sweeps.
    """
    params = params or FlowParams()
    psi = np.asarray(psi, dtype=float)
    source = np.asarray(source, dtype=float)
    if psi.shape != source.shape:
        raise ConfigurationError(f"psi shape {psi.shape} != source shape {source.shape}")
    require_power_of_two(*psi.shape)
    gamma = -params.dt * params.diffusion(scheme)
    # the equilibrium at rest: its coefficients are the weights themselves
    g = scheme.weight_array.reshape((scheme.n_links,) + (1,) * psi.ndim) * (psi + gamma * source)
    return macro_moment(stream_periodic(scheme, g))


def velocity_from_stream_function(psi: np.ndarray, delta: float = 1.0):
    """(u, v) = (dpsi/dy, -dpsi/dx), second-order, one-sided at the edges.

    Grids too small for the second-order edge stencil (under 3 points per
    axis) drop to first order; a 2 x 2 cavity is all walls regardless.
    """
    psi = np.asarray(psi, dtype=float)
    order = 2 if min(psi.shape) >= 3 else 1
    u, dpsi_dx = np.gradient(psi, delta, axis=(0, 1), edge_order=order)
    return u, -dpsi_dx


def apply_cavity_boundaries(psi, omega, spec: CavitySpec):
    """Impose cavity walls on freshly updated (psi, omega) fields.

    psi is zeroed on all four walls. Wall vorticity comes from the second-order
    Taylor expansion about each wall with the no-slip/lid tangential velocity:
    omega_wall = -2 (psi_first_interior/delta^2 + U_wall/delta), U_wall being
    lid_velocity on the top row and 0 elsewhere. The top row is written last so
    lid-row corners take the lid value.
    """
    n = spec.n
    d = spec.delta
    u_lid = spec.lid_velocity
    psi2 = np.asarray(psi, dtype=float).copy()
    omega2 = np.asarray(omega, dtype=float).copy()
    if psi2.shape != (n, n) or omega2.shape != (n, n):
        raise ConfigurationError(f"cavity fields must be {n}x{n}")

    psi2[0, :] = 0.0
    psi2[-1, :] = 0.0
    psi2[:, 0] = 0.0
    psi2[:, -1] = 0.0

    omega2[0, :] = -2.0 * psi2[1, :] / d**2
    omega2[:, 0] = -2.0 * psi2[:, 1] / d**2
    omega2[:, -1] = -2.0 * psi2[:, -2] / d**2
    omega2[-1, :] = -2.0 * (psi2[-2, :] / d**2 + u_lid / d)
    return psi2, omega2


def cavity_step_classical(psi, omega, spec: CavitySpec, params: FlowParams):
    """One coupled cavity step from (psi_t, omega_t) to (psi_{t+1}, omega_{t+1}).

    Both field updates are computed from the previous step's fields (Jacobi
    style, mirroring the two concurrent circuits), then walls are imposed:

    - vorticity: advection-diffusion with velocities derived from psi_t,
    - stream function: one Poisson relaxation sweep with source -omega_t.
    """
    u, v = velocity_from_stream_function(psi, spec.delta)
    k = collision_coefficients(D2Q5, np.stack([u, v]), psi.shape)
    f_streamed = stream_periodic(D2Q5, k * omega[None, ...])
    omega_next = macro_moment(f_streamed)
    psi_next = step_poisson(D2Q5, psi, -omega, params)
    return apply_cavity_boundaries(psi_next, omega_next, spec)


def solve_cavity_classical(spec: CavitySpec, params: FlowParams | None = None) -> CavityHistory:
    """Run the classical lid-driven cavity for spec.steps steps from rest."""
    params = params or FlowParams(lid_velocity=spec.lid_velocity)
    psi = np.zeros((spec.n, spec.n))
    omega = np.zeros((spec.n, spec.n))
    psi_hist = [psi]
    omega_hist = [omega]
    for step in range(1, spec.steps + 1):
        psi, omega = cavity_step_classical(psi, omega, spec, params)
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


def load_field_qlbf(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _QLBF_MAGIC:
            raise ConfigurationError(f"bad magic {magic!r}, expected {_QLBF_MAGIC!r}")
        (rank,) = struct.unpack("<I", fh.read(4))
        shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(rank))
        data = np.frombuffer(fh.read(), dtype="<f8")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ConfigurationError(f"payload has {data.size} values, header promises {expected}")
    return data.reshape(shape).copy()
