"""Gate counting, depth, and runtime estimates for the lowered circuits.

The counter never builds the lowered gate list. It reads the one
description of each gate's lowering that :func:`qlbm.lowering.lower_op`
also replays: the cached slot program of :func:`qlbm.lowering.slot_programs`,
with its CNOT and single-qubit counts, and the qubit each slot stands for.
A program is cached per gate shape; the single-qubit rows whose angles
depend on the gate are left open, and the counter never fills them.

Depth and runtime are longest paths through the lowered circuit, a
dependency graph whose nodes are its gates. Each program carries its
longest-path transfer as max-plus terms
(:meth:`qlbm.lowering.SlotProgram.terms`): ``W_ij``, the heaviest path
from input slot j to output slot i through its rows, is ``a_i + b_j``.
The counter applies one cached transfer per gate to the per-qubit values,
and walks no row: the heaviest ``v_j + b_j``, plus ``a_i`` on each
output. Each gate of the builders has one term, so this takes time linear
in the gate's slots. Depth weighs each gate as 1. Runtime weighs a gate by
its duration, both durations taken as exact integers over their common
power-of-two denominator, so the runtime is the exact longest duration
path, rounded once to a float; one too large for a float is a
:class:`ConfigurationError`. A program's terms are chained from those of
the smaller programs it is built from, so even the first count stays
cheap. Counts and section tallies are sums of the programs' counts over
the circuit's section spans.

The headline comparison pits the combined cavity gate list against the pair
of per-field circuits run concurrently: total CNOTs against summed CNOTs,
sequential depth against the deeper of the two. It builds three circuits,
the combined one and the with-boundary pair, and walks each once. Every
count is structural, so it builds them at rest, from zero fields, and
runs no classical solver: the counted ``PREP``s load nothing. The
boundary-free pair it reports is not built: each is its with-boundary
circuit without the last section, ``boundary``, and without the wall flag,
which no earlier gate may touch, so its report is the running count taken
just before that section.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .circuits import (
    CircuitIR,
    _require_circuit,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
)
from .errors import ConfigurationError
from .lattice import D2Q5, require_power_of_two
from .lowering import (
    iter_lowered,  # noqa: F401  (perfbench/spans.py hooks qlbm.resources.iter_lowered)
    slot_programs,
)

__all__ = [
    "GateDurationTable",
    "ResourceReport",
    "ComparisonReport",
    "count_resources",
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

    def integer_weights(self) -> tuple[int, int, int]:
        """``(single_qubit, cnot, scale)``: the durations times ``scale`` as exact ints.

        A float is a dyadic rational, so its ``Fraction`` is exact, and the
        common denominator of the two is a power of two.
        """
        single, cnot = Fraction(self.single_qubit), Fraction(self.cnot)
        scale = math.lcm(single.denominator, cnot.denominator)
        return int(single * scale), int(cnot * scale), scale


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


def _duration_table(durations) -> GateDurationTable:
    """``durations``, or the default table for ``None``; anything else is a configuration error."""
    if durations is None:
        return GateDurationTable()
    if not isinstance(durations, GateDurationTable):
        raise ConfigurationError(f"durations must be a GateDurationTable or None, got {durations!r}")
    return durations


def count_resources(circ: CircuitIR, label: str, durations: GateDurationTable | None = None) -> ResourceReport:
    """Count the lowered circuit without materializing it; a ``circ`` that is no :class:`CircuitIR` is a :class:`ConfigurationError`."""
    _require_circuit(circ)
    return _count(circ, label, _duration_table(durations))[0]


def _count(circ: CircuitIR, label: str, durations: GateDurationTable,
           wall_free_label: str | None = None) -> tuple[ResourceReport, ResourceReport | None]:
    """``circ``'s report, and with a ``wall_free_label`` that of the circuit without its walls.

    The second report is the running count just before the first
    ``boundary`` section (after the last gate, if there is none), over the
    qubits but the wall flag b, whose values are still 0 there. A gate
    before that cut that touches b is a :class:`ConfigurationError`.
    """
    w1, wx, scale = durations.integer_weights()
    n = circ.n_qubits
    last_layer = [0] * n
    ready_at = [0] * n
    sections: dict[str, SectionTally] = {}

    def report(name: str, qubit_count: int) -> ResourceReport:
        tallies = {section: SectionTally(t.cnot, t.single_qubit) for section, t in sections.items()}  # shared by no other report
        try:
            runtime = max(ready_at, default=0) / scale
        except OverflowError:
            raise ConfigurationError(
                f"the runtime of {name} with durations single_qubit={durations.single_qubit!r} "
                f"and cnot={durations.cnot!r} is too large for a float"
            ) from None
        return ResourceReport(
            label=name,
            qubit_count=qubit_count,
            cnot=sum(t.cnot for t in tallies.values()),
            single_qubit=sum(t.single_qubit for t in tallies.values()),
            depth=max(last_layer, default=0),
            runtime_seconds=runtime,
            sections=tallies,
        )

    def walk(spans, wall: frozenset) -> None:
        for section, start, stop in spans:
            cnot = single = 0
            for op in circ.gates[start:stop]:
                if wall and not wall.isdisjoint(op.qubits):
                    raise ConfigurationError(
                        f"{op.kind} in section {section!r} touches the wall flag before the boundary section"
                    )
                program, qubits = slot_programs(op)
                for values, terms in ((last_layer, program.terms(1, 1)), (ready_at, program.terms(w1, wx))):
                    peaks = [max([values[qubits[j]] + w for j, w in zip(ins, b)]) for _, _, ins, b in terms]
                    for (outs, a, _, _), peak in zip(terms, peaks):
                        for i, w in zip(outs, a):
                            values[qubits[i]] = peak + w
                cnot += program.cnot
                single += program.single_qubit
            if cnot or single:
                tally = sections.setdefault(section, SectionTally())
                tally.cnot += cnot
                tally.single_qubit += single

    cut = next((i for i, span in enumerate(circ.sections) if span[0] == "boundary"), len(circ.sections))
    wall = frozenset(circ.layout.b if wall_free_label is not None else ())
    walk(circ.sections[:cut], wall)
    wall_free = None if wall_free_label is None else report(wall_free_label, n - circ.layout.n_b)
    walk(circ.sections[cut:], frozenset())
    return report(label, n), wall_free


# ---------------------------------------------------------------------------
# single-versus-pair cavity comparison
# ---------------------------------------------------------------------------


def build_comparison_circuits(extent: int) -> dict[str, CircuitIR]:
    """The three counted circuits at one lattice extent, built at rest: the combined one and the with-boundary pair.

    Psi, omega and the source are zero, and so is the velocity: the
    circuits the solver builds and plans. Every count is structural. A
    ``PREP``'s program depends only on its qubit count, so the counted
    ``PREP``s load nothing (an all-zero load, which cannot be lowered or
    run). A ``BLOCK``'s depends only on whether some k is not 1, and every
    ``BLOCK`` here has such a k whatever the fields: the collision's rest
    link weight, the wall projector's 0 on the walls. The boundary-free
    pair is not built: its reports are read off the pair's count
    (:func:`compare_single_vs_frugal`).
    """
    rest, still = np.zeros((extent, extent)), np.zeros((2, extent, extent))
    return {
        "single": build_single_cavity_circuit(D2Q5, extent, rest, rest, rest, still),
        "stream-function": build_stream_function_circuit(D2Q5, extent, rest, rest),
        "vorticity": build_vorticity_circuit(D2Q5, extent, rest, still),
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
    """Count the combined cavity circuit against the per-field pair at one extent.

    Reports five variants: ``single``, ``stream-function``, ``vorticity``,
    and the boundary-free pair ``stream-function-nb`` and ``vorticity-nb``.
    Only the first three are built and each is counted once. A pair
    circuit built with ``boundary=False`` is the with-boundary one without
    its last section, ``boundary``, and without the wall flag b, which no
    gate before that section touches. So each ``-nb`` report is the
    running count of its with-boundary circuit just before ``boundary``
    (with a :class:`ConfigurationError` if a gate there touches b), over
    one qubit fewer.
    """
    durations = _duration_table(durations)
    require_power_of_two(extent)
    extent = int(extent)  # a numpy integer would not serialize in to_dict()
    circuits = build_comparison_circuits(extent)
    reports = {"single": count_resources(circuits.pop("single"), f"single@{extent}", durations)}
    wall_free = {}
    for name, circ in circuits.items():
        reports[name], wall_free[f"{name}-nb"] = _count(circ, f"{name}@{extent}", durations, f"{name}-nb@{extent}")
    return ComparisonReport(extent=extent, reports=reports | wall_free)


def scaling_sweep(extents, durations: GateDurationTable | None = None) -> list[ComparisonReport]:
    """:func:`compare_single_vs_frugal` at each of ``extents``, an iterable of powers of two, else :class:`ConfigurationError`."""
    durations = _duration_table(durations)
    try:
        extents = list(extents)  # read once, so an iterator is not spent by the check
    except TypeError:
        raise ConfigurationError(f"extents must be an iterable of lattice extents, got {type(extents).__name__}") from None
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
