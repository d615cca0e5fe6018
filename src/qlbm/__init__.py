"""Lattice Boltzmann transport on quantum circuits.

Classical collide-and-stream reference solvers, a statevector simulator for
the equivalent gate-level pipeline (advected scalars and the lid-driven
cavity in a stream-function / vorticity split), and a resource estimator
comparing the combined cavity circuit against the concurrent per-field pair.
"""

from .circuits import (
    CircuitIR,
    GateOp,
    RegisterLayout,
    build_advection_diffusion_circuit,
    build_single_cavity_circuit,
    build_stream_function_circuit,
    build_vorticity_circuit,
)
from .errors import (
    CoefficientRangeError,
    ConfigurationError,
    EncodingError,
    PostSelectionError,
    QLBMError,
    SimulationError,
)
from .lattice import (
    D1Q2,
    D1Q3,
    D2Q5,
    CavitySpec,
    LatticeScheme,
    load_field_csv,
    load_field_qlbf,
    save_field_csv,
    save_field_qlbf,
    scheme_by_name,
    solve_cavity_classical,
    step_advection_diffusion,
    step_poisson,
    velocity_from_stream_function,
)
from .lowering import lower_circuit
from .resources import (
    ComparisonReport,
    GateDurationTable,
    ResourceReport,
    compare_single_vs_frugal,
    count_resources,
    scaling_sweep,
)
from .solver import (
    AdvectionResult,
    CavityRunResult,
    FidelityResult,
    fidelity_sweep,
    relative_error,
    run_advection_diffusion,
    run_cavity,
)
from .statevector import (
    QuantumState,
    SampleHistogram,
    ZeroState,
    apply_circuit,
    fidelity_from_histogram,
    plan_circuit,
    sample,
)

__version__ = "0.1.0"
