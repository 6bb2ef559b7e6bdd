"""Hamiltonians for a pair of coupled charge qubits.

Basis convention (fixed for the whole package): the four-dimensional product
basis is ordered

    (|1>|1>, |1>|0>, |0>|1>, |0>|0>)

with sigma_z |1> = +|1>, i.e. |1> = (1, 0)^T, so index 0 is the doubly
excited state.  hbar = 1; energies are expressed in units of the reference
drive strength ``a_ref`` and times in 1/``a_ref``.

Single-qubit blocks are H_i = [[Delta_i, a_i], [a_i, -Delta_i]].  Two
interaction models are provided:

* capacitive: the coupling charges only the doubly excited state, adding
  Delta_12 to the (|1>|1>, |1>|1>) entry.  Equivalently (exactly), the sum
  of six Pauli terms built by ``build_capacitive_pauli_form`` -- the
  interaction contributes (Delta_12/4) (1 + sigma_z^1 + sigma_z^2 +
  sigma_z^1 sigma_z^2), an Ising zz coupling plus level shifts.
* dipole: a flip-flop-free dipolar pattern where the diagonal coupling
  contribution is +omega_12 on the aligned states (|1>|1>, |0>|0>) and
  -omega_12 on the anti-aligned ones.

The two capacitive constructions are kept bit-for-bit identical by
accumulating each matrix entry with ``math.fsum`` over its exact summands:
both routes then produce the correctly rounded value of the same real
number, so equality is exact rather than within roundoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _require_finite

__all__ = [
    "QubitParams",
    "DeviceParams",
    "build_capacitive",
    "build_capacitive_pauli_form",
    "build_dipole",
    "effective_levels",
]

# sigma_z eigenvalue of qubit 1 / qubit 2 in each basis state, in the fixed
# ordering above; the package's only copy of this sign pattern.
_Z1 = (1.0, 1.0, -1.0, -1.0)
_Z2 = (1.0, -1.0, 1.0, -1.0)


def _require_qubit(qubit):
    if qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")


@dataclass(frozen=True)
class QubitParams:
    """Static parameters of one qubit: energy level and drive strength.

    ``delta`` is the level splitting (Delta_i); ``a`` is the Rabi drive
    strength (a_i), nonnegative by convention (its sign can be absorbed into
    the drive phase).  In dipole mode the same fields hold omega_i and
    Omega_i.
    """

    delta: float
    a: float

    def __post_init__(self):
        _require_finite("delta", self.delta)
        _require_finite("a", self.a)
        if self.a < 0.0:
            raise ValueError(f"drive strength a must be >= 0, got {self.a}")


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of the two-qubit device.

    ``delta12`` is the capacitive coupling energy (or omega_12 in dipole
    mode).  All energies are in units of the reference drive strength
    ``a_ref`` and times in 1/``a_ref``; the unit is a convention, not a
    field, since nothing computed depends on it.
    """

    q1: QubitParams
    q2: QubitParams
    delta12: float

    def __post_init__(self):
        _require_finite("delta12", self.delta12)


def _place_drives(h, a1, a2):
    """Scatter the drive terms: a1 couples states whose qubit-1 value flips
    (index pairs (0,2) and (1,3)); a2 flips qubit 2 (pairs (0,1), (2,3))."""
    for i, j in ((0, 2), (1, 3)):
        h[i, j] = a1
        h[j, i] = a1
    for i, j in ((0, 1), (2, 3)):
        h[i, j] = a2
        h[j, i] = a2


def build_capacitive(d: DeviceParams):
    """4x4 Hamiltonian H_1 x I + I x H_2 + diag(Delta_12, 0, 0, 0).

    The capacitive interaction energy appears only when both qubits are
    excited.  Diagonal entries are accumulated with ``math.fsum`` (see the
    module docstring).
    """
    h = np.zeros((4, 4), dtype=complex)
    d1, d2 = d.q1.delta, d.q2.delta
    h[0, 0] = math.fsum((d1, d2, d.delta12))
    h[1, 1] = math.fsum((d1, -d2))
    h[2, 2] = math.fsum((-d1, d2))
    h[3, 3] = math.fsum((-d1, -d2))
    _place_drives(h, d.q1.a, d.q2.a)
    return h


def build_capacitive_pauli_form(d: DeviceParams):
    """The same capacitive Hamiltonian assembled as a sum of six Pauli terms:

        (D/4) I + a1 sigma_x^1 + a2 sigma_x^2
        + (Delta_1 + D/4) sigma_z^1 + (Delta_2 + D/4) sigma_z^2
        + (D/4) sigma_z^1 sigma_z^2,          D = Delta_12.

    Each diagonal entry collects one summand per z-type term and is reduced
    with ``math.fsum``, which makes the result exactly equal (not merely
    close) to ``build_capacitive``.
    """
    quarter = d.delta12 / 4.0
    d1, d2 = d.q1.delta, d.q2.delta
    h = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        z1, z2 = _Z1[k], _Z2[k]
        h[k, k] = math.fsum(
            (
                quarter,  # identity term
                z1 * d1,
                z1 * quarter,  # sigma_z^1 with its coupling shift
                z2 * d2,
                z2 * quarter,  # sigma_z^2 with its coupling shift
                z1 * z2 * quarter,  # Ising zz term
            )
        )
    _place_drives(h, d.q1.a, d.q2.a)
    return h


def build_dipole(d: DeviceParams):
    """4x4 dipole-model Hamiltonian: single-qubit blocks plus a diagonal
    coupling whose sign follows dipole alignment, +omega_12 on (|1>|1>,
    |0>|0>) and -omega_12 on (|1>|0>, |0>|1>)."""
    h = np.zeros((4, 4), dtype=complex)
    w1, w2, w12 = d.q1.delta, d.q2.delta, d.delta12
    h[0, 0] = math.fsum((w1, w2, w12))
    h[1, 1] = math.fsum((w1, -w2, -w12))
    h[2, 2] = math.fsum((-w1, w2, -w12))
    h[3, 3] = math.fsum((-w1, -w2, w12))
    _place_drives(h, d.q1.a, d.q2.a)
    return h


def effective_levels(d: DeviceParams, qubit, neighbor_excited):
    """Effective level splitting of one qubit, conditioned on its neighbor.

    With drives off, the capacitive model leaves each qubit a two-level
    system whose splitting is shifted by the coupling:

        E = Delta_q + Delta_12/4 + s * Delta_12/4,

    s = +1 when the neighbor is excited, -1 when it is in the ground state.
    The excited/ground difference is therefore Delta_12/2.
    """
    _require_qubit(qubit)
    delta = d.q1.delta if qubit == 1 else d.q2.delta
    quarter = d.delta12 / 4.0
    sign = 1.0 if neighbor_excited else -1.0
    return math.fsum((delta, quarter, sign * quarter))
