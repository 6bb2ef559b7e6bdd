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

from . import evolution, experiments, hamiltonian, linalg, pulsecompiler
from .linalg import *
from .hamiltonian import *
from .evolution import *
from .pulsecompiler import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *linalg.__all__,
    *hamiltonian.__all__,
    *evolution.__all__,
    *pulsecompiler.__all__,
    *experiments.__all__,
]
