"""Gate counting, depth, and runtime estimates for the lowered circuits.

The counter never builds the lowered gate list. It reads the one
description of each gate's lowering that :func:`qlbm.circuits.lower_op`
also replays: the cached slot programs of
:func:`qlbm.circuits.slot_programs`, ``(target slot, control slot)`` rows
with their CNOT and single-qubit counts, and the qubit each slot stands
for. A program is cached per gate shape; the single-qubit rows whose
angles depend on the gate are left open, and the counter never fills them.
A multi-controlled gate's core program is written row by row by the
square-root recursion, and runs between two runs of the program of X gates
on its 0-polarity controls. Each encode section's one ``PREP`` gate has one
program per qubit count, its rotation network. A ``BLOCK``'s level walk
tells which multiplexed-RZ stages of its diagonal are present, and each
present stage replays one cached gray-code ladder.

A gate's programs run on local copies of its qubits' layer counts and
ready times, which are written back once the gate is done. So the 64 x 64
combined circuit, about a million gates after lowering, is counted on
Python ints and floats. Depth is the length of the longest per-qubit
dependency chain. Runtime replaces unit layers with per-gate durations on
the same chains, adding them in the order of the lowered gates. Section
tallies follow the circuit's section spans.

The headline comparison pits the combined cavity gate list against the pair
of per-field circuits run concurrently: total CNOTs against summed CNOTs,
sequential depth against the deeper of the two.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .circuits import (
    CircuitIR,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
    iter_lowered,  # noqa: F401  (perfbench/spans.py hooks qlbm.resources.iter_lowered)
    slot_programs,
)
from .errors import ConfigurationError
from .lattice import (
    CavitySpec,
    D2Q5,
    require_power_of_two,
    solve_cavity_classical,
    velocity_from_stream_function,
)

__all__ = [
    "GateDurationTable",
    "ResourceReport",
    "ComparisonReport",
    "count_resources",
    "representative_cavity_fields",
    "build_comparison_circuits",
    "compare_single_vs_frugal",
    "scaling_sweep",
    "write_comparison_csv",
    "write_comparison_json",
]


@dataclass(frozen=True)
class GateDurationTable:
    """Wall-clock cost per gate used for the runtime estimate (seconds).

    Each duration is a finite real number >= 0, kept as a ``float``.
    """

    single_qubit: float = 3.5e-8
    cnot: float = 5.3e-7

    def __post_init__(self):
        for name in ("single_qubit", "cnot"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (0 <= value < math.inf):
                raise ConfigurationError(f"{name} duration must be a finite real number >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))


@dataclass
class SectionTally:
    cnot: int = 0
    single_qubit: int = 0

    @property
    def total(self) -> int:
        return self.cnot + self.single_qubit


@dataclass
class ResourceReport:
    """Lowered-basis resource totals for one circuit."""

    label: str
    qubit_count: int
    cnot: int
    single_qubit: int
    depth: int
    runtime_seconds: float
    sections: dict = dataclass_field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.cnot + self.single_qubit

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "qubits": self.qubit_count,
            "cnot": self.cnot,
            "single_qubit": self.single_qubit,
            "total": self.total,
            "depth": self.depth,
            "runtime_seconds": self.runtime_seconds,
            "sections": {
                name: {"cnot": t.cnot, "single_qubit": t.single_qubit, "total": t.total}
                for name, t in self.sections.items()
            },
        }


def _replay(rows, layers: list, ready: list, t1q: float, tcx: float) -> None:
    """Advance each slot's layer and ready time through the rows of a slot program."""
    for t, c in rows:
        if c < 0:
            layers[t] += 1
            ready[t] += t1q
        else:
            lt, lc = layers[t], layers[c]
            if lc > lt:
                lt = lc
            layers[t] = layers[c] = lt + 1
            rt, rc = ready[t], ready[c]
            if rc > rt:
                rt = rc
            ready[t] = ready[c] = rt + tcx


def count_resources(circ: CircuitIR, label: str, durations: GateDurationTable | None = None) -> ResourceReport:
    """Count the lowered circuit without materializing it."""
    durations = durations or GateDurationTable()
    t1q, tcx = durations.single_qubit, durations.cnot
    n = circ.n_qubits
    last_layer = [0] * n
    ready_at = [0.0] * n
    sections: dict[str, SectionTally] = {}
    for section, start, stop in circ.sections:
        cnot = single = 0
        for op in circ.gates[start:stop]:
            programs, qubits = slot_programs(op)
            layers = [last_layer[q] for q in qubits]
            ready = [ready_at[q] for q in qubits]
            for program in programs:
                _replay(program.rows, layers, ready, t1q, tcx)
                cnot += program.cnot
                single += program.single_qubit
            for q, layer, done in zip(qubits, layers, ready):
                last_layer[q] = layer
                ready_at[q] = done
        if cnot or single:
            tally = sections.setdefault(section, SectionTally())
            tally.cnot += cnot
            tally.single_qubit += single
    return ResourceReport(
        label=label,
        qubit_count=n,
        cnot=sum(t.cnot for t in sections.values()),
        single_qubit=sum(t.single_qubit for t in sections.values()),
        depth=max(last_layer, default=0),
        runtime_seconds=max(ready_at, default=0.0),
        sections=sections,
    )


# ---------------------------------------------------------------------------
# single-versus-pair cavity comparison
# ---------------------------------------------------------------------------


def representative_cavity_fields(extent: int, steps: int = 80):
    """Developed cavity fields used to parameterize the counted circuits.

    The gate counts depend only on register spans, but building from real
    evolved fields keeps every collision section honest and gives every
    encode PREP a vector the simulator could load (no degenerate zero
    vectors except where physics makes them so).
    """
    spec = CavitySpec(n=extent, lid_velocity=1.0, steps=steps)
    hist = solve_cavity_classical(spec)
    psi, omega = hist.psi[-1], hist.omega[-1]
    u, v = velocity_from_stream_function(psi)
    return psi, omega, np.stack([u, v])


def build_comparison_circuits(extent: int) -> dict[str, CircuitIR]:
    """The five counted variants at one lattice extent."""
    psi, omega, vel = representative_cavity_fields(extent)
    source = D2Q5.diffusion * omega
    return {
        "single": build_single_cavity_circuit(D2Q5, extent, psi, source, omega, vel),
        "stream-function": build_stream_function_circuit(D2Q5, extent, psi, source),
        "vorticity": build_vorticity_circuit(D2Q5, extent, omega, vel),
        "stream-function-nb": build_stream_function_circuit(D2Q5, extent, psi, source, boundary=False),
        "vorticity-nb": build_vorticity_circuit(D2Q5, extent, omega, vel, boundary=False),
    }


@dataclass
class ComparisonReport:
    """Resource comparison at one extent: combined list vs concurrent pair.

    The headline reduction figures use the boundary-free pair (walls are
    imposed classically after decoding in the pair pipeline), itemized
    alongside the with-boundary variants.
    """

    extent: int
    reports: dict

    @property
    def single_cnot(self) -> int:
        return self.reports["single"].cnot

    @property
    def single_depth(self) -> int:
        return self.reports["single"].depth

    @property
    def frugal_cnot(self) -> int:
        return self.reports["stream-function"].cnot + self.reports["vorticity"].cnot

    @property
    def frugal_nb_cnot(self) -> int:
        return self.reports["stream-function-nb"].cnot + self.reports["vorticity-nb"].cnot

    @property
    def concurrent_depth(self) -> int:
        return max(self.reports["stream-function"].depth, self.reports["vorticity"].depth)

    @property
    def concurrent_depth_nb(self) -> int:
        return max(self.reports["stream-function-nb"].depth, self.reports["vorticity-nb"].depth)

    @property
    def cnot_reduction(self) -> float:
        return 1.0 - self.frugal_nb_cnot / self.single_cnot

    @property
    def depth_reduction(self) -> float:
        return 1.0 - self.concurrent_depth_nb / self.single_depth

    @property
    def cnot_gap(self) -> int:
        return self.single_cnot - self.frugal_nb_cnot

    @property
    def depth_gap(self) -> int:
        return self.single_depth - self.concurrent_depth_nb

    def to_dict(self) -> dict:
        return {
            "extent": self.extent,
            "single_cnot": self.single_cnot,
            "single_depth": self.single_depth,
            "frugal_cnot": self.frugal_cnot,
            "frugal_nb_cnot": self.frugal_nb_cnot,
            "concurrent_depth": self.concurrent_depth,
            "concurrent_depth_nb": self.concurrent_depth_nb,
            "cnot_reduction": self.cnot_reduction,
            "depth_reduction": self.depth_reduction,
            "cnot_gap": self.cnot_gap,
            "depth_gap": self.depth_gap,
            "variants": {name: rep.to_dict() for name, rep in self.reports.items()},
        }


def compare_single_vs_frugal(extent: int, durations: GateDurationTable | None = None) -> ComparisonReport:
    circuits = build_comparison_circuits(extent)
    reports = {
        name: count_resources(circ, f"{name}@{extent}", durations)
        for name, circ in circuits.items()
    }
    return ComparisonReport(extent=extent, reports=reports)


def scaling_sweep(extents, durations: GateDurationTable | None = None) -> list[ComparisonReport]:
    require_power_of_two(*extents)
    return [compare_single_vs_frugal(e, durations) for e in extents]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_CSV_COLUMNS = [
    "extent", "variant", "section", "qubits", "cnot", "single_qubit", "total",
    "depth", "runtime_seconds",
]


def write_comparison_csv(path, comparisons: list[ComparisonReport]) -> None:
    """Per-variant totals plus per-section itemization, one extent per block."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for comp in comparisons:
            for name, rep in comp.reports.items():
                writer.writerow([
                    comp.extent, name, "all", rep.qubit_count, rep.cnot,
                    rep.single_qubit, rep.total, rep.depth, repr(rep.runtime_seconds),
                ])
                for section, tally in rep.sections.items():
                    writer.writerow([
                        comp.extent, name, section, rep.qubit_count, tally.cnot,
                        tally.single_qubit, tally.total, "", "",
                    ])


def write_comparison_json(path, comparisons: list[ComparisonReport]) -> None:
    payload = {"comparisons": [comp.to_dict() for comp in comparisons]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
