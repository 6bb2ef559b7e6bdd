"""Two capacitively coupled charge qubits: models, pulse compiler, experiments.

The package is organised as a small stack:

* :mod:`capqubit.linalg` — Hermitian eigensolver, unitary propagator
  exponential, and a phase-insensitive distance between matrices.
* :mod:`capqubit.hamiltonian` — 4x4 Hamiltonian builders for the coupled
  two-qubit device plus the effective single-qubit level shifts.
* :mod:`capqubit.evolution` — piecewise-constant pulse schedules and two
  independent integrators (exact eigendecomposition and RK4).
* :mod:`capqubit.pulsecompiler` — gate specifications, virtual-z phase
  accounting, pulse synthesis for rotations and phase blocks, and the CNOT
  sequence.
* :mod:`capqubit.experiments` — canned device sweeps of the CNOT response.
* :mod:`capqubit.checks` — the invariants and their tolerances, each stated
  once; ``capqubit verify`` and the acceptance tests both use them.
* :mod:`capqubit.cli` — command-line front end (``capqubit``).

Basis ordering everywhere is |11>, |10>, |01>, |00> (first label = qubit 1),
with sigma_z eigenvalue +1 on the excited state.  hbar = 1; energies are in
units of the reference drive amplitude.
"""

from .linalg import distance_up_to_global_phase, eigh, expm_unitary, wrap_angle
from .hamiltonian import (
    DeviceParams,
    QubitParams,
    build_capacitive,
    build_capacitive_pauli_form,
    build_dipole,
    effective_levels,
)
from .evolution import (
    EvolutionResult,
    PulseSegment,
    Schedule,
    propagate,
    propagate_rk4,
    segment_hamiltonian,
)
from .pulsecompiler import (
    CompilationError,
    CompiledGate,
    GateSpec,
    PhaseLedger,
    compile_cnot,
    compile_phase_block,
    compile_schedule,
    compile_x_rotation,
    compile_z_rotation,
    ideal_composition,
    ideal_gate,
    ideal_product,
    verify_schedule,
)
from .experiments import (
    SweepConfig,
    SweepRow,
    cnot_response,
    levels_table,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "distance_up_to_global_phase",
    "eigh",
    "expm_unitary",
    "wrap_angle",
    # hamiltonian
    "DeviceParams",
    "QubitParams",
    "build_capacitive",
    "build_capacitive_pauli_form",
    "build_dipole",
    "effective_levels",
    # evolution
    "EvolutionResult",
    "PulseSegment",
    "Schedule",
    "propagate",
    "propagate_rk4",
    "segment_hamiltonian",
    # pulse compiler
    "CompilationError",
    "CompiledGate",
    "GateSpec",
    "PhaseLedger",
    "compile_cnot",
    "compile_phase_block",
    "compile_schedule",
    "compile_x_rotation",
    "compile_z_rotation",
    "ideal_composition",
    "ideal_gate",
    "ideal_product",
    "verify_schedule",
    # experiments
    "SweepConfig",
    "SweepRow",
    "cnot_response",
    "levels_table",
    "run_sweep",
]
