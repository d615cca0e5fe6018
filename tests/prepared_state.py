"""Gates that load a random state from |0...0>, for tests that run gates on it.

``apply_circuit`` starts every circuit from |0...0>, so a test that runs
gates on a random complex state puts the gates of :func:`random_load` in
front of them and checks the result against ``apply_ops_numpy`` run on the
state they load. :func:`run_from_zero` plans a gate list and replays it
once, the one-off form of the solver's plan-per-run, replay-per-job.
"""

import numpy as np

from qlbm.circuits import GateOp, apply_ops_numpy, unit_amplitudes
from qlbm.statevector import ZeroState, apply_circuit, plan_circuit


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
