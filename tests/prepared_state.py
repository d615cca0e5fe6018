"""Gates that load a given state from |0...0>, for tests that run gates on it.

``apply_circuit`` starts every circuit from |0...0>, so a test that runs
gates on a prepared state ``amps`` puts :func:`load_ops` in front of them
and checks the result against ``apply_ops_numpy`` on ``amps``.
:func:`run_from_zero` plans a gate list and replays it once, the one-off
form of the solver's plan-per-run, replay-per-job.
"""

import numpy as np

from qlbm.circuits import GateOp
from qlbm.statevector import ZeroState, apply_circuit, plan_circuit


def load_ops(amps, norm: float = 1.0) -> list[GateOp]:
    """A PREP of ``norm * |amps|`` onto every qubit, then a DIAG of the phases when ``amps`` is complex.

    From |0...0> they give the unit vector ``amps`` (to rounding) with norm
    factor ``norm`` times the norm of ``amps``.
    """
    amps = np.asarray(amps)
    qubits = tuple(range(amps.size.bit_length() - 1))
    ops = [GateOp("PREP", qubits, params=norm * np.abs(amps))]
    if np.iscomplexobj(amps):
        ops.append(GateOp("DIAG", qubits, params=np.angle(amps)))
    return ops


def run_from_zero(n_qubits: int, ops, select=None):
    """``apply_circuit(plan_circuit(ZeroState(n_qubits), ops, select), ops)``."""
    ops = list(ops)
    return apply_circuit(plan_circuit(ZeroState(n_qubits), ops, select), ops)
