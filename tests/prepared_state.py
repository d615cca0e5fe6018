"""Gates that load a random state from |0...0>, for tests that run gates on it.

``apply_circuit`` starts every circuit from |0...0>, so a test that runs
gates on a random complex state puts the gates of :func:`random_load` in
front of them and checks the result against ``apply_ops_numpy`` run on the
state they load. :func:`run_from_zero` plans a gate list and replays it
once, the one-off form of the solver's plan-per-run, replay-per-job.
:func:`developed_cavity_circuits` builds the counted cavity circuits from a
developed flow, so their loads can be lowered and run.
"""

import functools

import numpy as np

from qlbm.circuits import (
    CircuitIR,
    GateOp,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
)
from qlbm.lattice import D2Q5, CavitySpec, solve_cavity_classical, velocity_from_stream_function
from qlbm.lowering import unit_amplitudes
from qlbm.statevector import ZeroState, apply_circuit, plan_circuit

from dense_reference import apply_ops_numpy


def random_load(n_qubits: int, seed: int, norm: float = 1.0) -> tuple[list[GateOp], np.ndarray]:
    """Gates that load a random complex unit vector from |0...0>, and that vector.

    A PREP of ``norm`` times a random real unit vector onto every qubit,
    then an RZ and a PHASE of seeded angles on each qubit: together they
    give each qubit's two values a phase of their own. From |0...0> the
    gates give the returned vector and norm factor ``norm``, to rounding.
    The vector is the PREP's unit vector written in index by index, with
    the RZ and PHASE gates run by ``apply_ops_numpy``: the reference's start
    state, free of the rounding of the PREP's rotation network, which a
    selection of small probability would amplify.
    """
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(1 << n_qubits)
    vector /= np.linalg.norm(vector)
    ops = [GateOp("PREP", tuple(range(n_qubits)), params=norm * vector)]
    phases = []
    for q in range(n_qubits):
        phases.append(GateOp("RZ", (q,), params=(rng.uniform(-np.pi, np.pi),)))
        phases.append(GateOp("PHASE", (q,), params=(rng.uniform(-np.pi, np.pi),)))
    return ops + phases, apply_ops_numpy(unit_amplitudes(ops[0].params)[0], phases, n_qubits)


def run_from_zero(n_qubits: int, ops, select=None):
    """``apply_circuit(plan_circuit(ZeroState(n_qubits), ops, select), ops)``."""
    ops = list(ops)
    return apply_circuit(plan_circuit(ZeroState(n_qubits), ops, select), ops)


@functools.lru_cache(maxsize=None)
def _developed_fields(extent: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    history = solve_cavity_classical(CavitySpec(n=extent, lid_velocity=1.0, steps=80))
    psi, omega = history.psi[-1], history.omega[-1]
    return psi, omega, velocity_from_stream_function(psi)


def developed_cavity_circuits(extent: int) -> dict[str, CircuitIR]:
    """The comparison's five circuits at ``extent``, built from the cavity flow after 80 classical steps.

    ``single``, the with-boundary pair and the boundary-free pair
    (``stream-function-nb``, ``vorticity-nb``). Their counts are those of
    the circuits the comparison builds at rest, whose loads are all zero;
    these load a developed flow, so they can be lowered and run. The
    fields are solved once per extent.
    """
    psi, omega, vel = _developed_fields(extent)
    source = D2Q5.diffusion * omega
    return {
        "single": build_single_cavity_circuit(D2Q5, extent, psi, source, omega, vel),
        "stream-function": build_stream_function_circuit(D2Q5, extent, psi, source),
        "vorticity": build_vorticity_circuit(D2Q5, extent, omega, vel),
        "stream-function-nb": build_stream_function_circuit(D2Q5, extent, psi, source, boundary=False),
        "vorticity-nb": build_vorticity_circuit(D2Q5, extent, omega, vel, boundary=False),
    }
