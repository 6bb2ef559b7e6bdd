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

Both models share one stacked core, ``_hamiltonians``: it takes one model's
coupling row for the whole stack, the (n, 5) controls of n segments
(duration, delta1, delta2, a1, a2; the duration unused) and the coupling
Delta_12, one for all or one per segment (a stack may mix devices), and
returns the (n, 4, 4) stack in one numpy pass.  Each diagonal entry is the
correctly rounded sum of its three terms +-delta1, +-delta2 and c_k
Delta_12, the model's coupling coefficient c_k on entry k read from the
table ``_COUPLING``:

* an entry whose coefficient is non-zero is ``math.fsum`` of its three
  terms, row by row;
* every other entry is the numpy sum of its two level terms, which rounds
  correctly, plus 0.0, so that an exact zero is +0.0 as fsum gives it;
* when an entry leaves the float range (numpy reports the overflow, or
  fsum raises), every row is summed again, entry by entry, by the scalar
  ``_entry``, which keeps fsum's value or raises a ValueError naming the
  first entry that overflows in the first row that has one.

So every matrix is bit for bit the one a row-by-row fsum gives.  One rule
names a failure: the stacked path detects it, and one walk names the first
segment in time order that fails when rebuilt and checked alone.
``build_capacitive``, ``build_dipole`` and ``evolution.segment_hamiltonian``
are stacks of one; every value was validated when its object was built, so
the core validates none.  ``build_capacitive_pauli_form`` assembles the
capacitive matrix independently, as six Pauli terms with ``math.fsum`` on
each entry, which makes it equal to ``build_capacitive`` exactly rather than
within roundoff.
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

# Each model's coupling coefficient on the diagonal (|1>|1>, |1>|0>, |0>|1>,
# |0>|0>): the charge on |1>|1> alone, or the dipolar sigma_z^1 sigma_z^2.
_COUPLING = {"capacitive": np.array((1.0, 0.0, 0.0, 0.0)),
             "dipole": np.multiply(_Z1, _Z2)}
# Both sign patterns as a (2, 4, 1) array, to scale a row of delta1s and
# one of delta2s into each diagonal entry's level terms.
_Z = np.array((_Z1, _Z2))[:, :, None]
# Where each 4x4 entry is read from a row (0, H11, H22, H33, H44, a1, a2): a1
# couples states whose qubit-1 value flips (index pairs (0,2) and (1,3)), a2
# those whose qubit-2 value flips ((0,1), (2,3)).
_LAYOUT = np.array(((1, 6, 5, 0), (6, 2, 0, 5), (5, 0, 3, 6), (0, 5, 6, 4)))


def _require_qubit(qubit):
    # an integer 1 or 2 only: True == 1 and 1.0 == 1, but neither names a qubit
    if isinstance(qubit, bool) or not isinstance(qubit, (int, np.integer)) or qubit not in (1, 2):
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
        for name in ("q1", "q2"):
            if not isinstance(getattr(self, name), QubitParams):
                raise ValueError(f"{name} must be a QubitParams, got {getattr(self, name)!r}")
        _require_finite("delta12", self.delta12)


def _entry(k, terms):
    """Diagonal entry (k, k): the correctly rounded sum of its exact terms, or
    a ValueError naming the entry when that sum leaves the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ValueError(
            f"Hamiltonian entry ({k + 1},{k + 1}) overflows: the sum of {terms} "
            f"is not a finite float"
        ) from None


def _coupling(model):
    """The model's row of ``_COUPLING``, or a ValueError naming the models."""
    try:
        return _COUPLING[model]
    except (KeyError, TypeError):  # an unhashable name is no model either
        raise ValueError(f"model must be one of {tuple(_COUPLING)}, got {model!r}") from None


@np.errstate(over="raise")
def _hamiltonians(coupling, controls, d12):
    """The (n, 4, 4) Hamiltonians of n rows of validated controls, as the
    module docstring states.  ``coupling`` is one model's row for every
    segment; ``d12`` is one coupling or one per segment.  The first row that
    cannot be built raises its entry's ValueError."""
    n = len(controls)
    terms = np.empty((3, 4, n))  # entry k's terms: z1_k delta1, z2_k delta2, c_k delta12
    np.multiply(_Z, controls.T[1:3, None], out=terms[:2])
    np.multiply(coupling[:, None], d12, out=terms[2])
    # each row (0, H11, H22, H33, H44, a1, a2), read into the 4x4 by _LAYOUT
    cols = np.zeros((n, 7), dtype=complex)
    real = cols.real
    real[:, 5:] = controls[:, 3:]
    diag = real[:, 1:5].T
    try:
        # 0.0 + z1_k delta1 + z2_k delta2 in any order: the two-term sum, and
        # +0.0 where it is an exact zero, as fsum gives
        np.add.reduce(terms[:2], axis=0, initial=0.0, out=diag)
        for k, c in enumerate(coupling.tolist()):
            if c:
                diag[k] = list(map(math.fsum, zip(*terms[:, k].tolist())))
    except (FloatingPointError, OverflowError):
        # an entry left the float range: every row is summed again by _entry,
        # which keeps fsum's value or names the first entry that overflows
        for j, row in enumerate(terms.transpose(2, 1, 0).tolist()):
            diag[:, j] = [_entry(k, tuple(t)) for k, t in enumerate(row)]
    return cols.take(_LAYOUT, axis=1)


def _device_hamiltonian(model, d: DeviceParams):
    """The model's Hamiltonian of a device's own levels and drives: a stack of one."""
    controls = np.array(((0.0, d.q1.delta, d.q2.delta, d.q1.a, d.q2.a),))
    return _hamiltonians(_COUPLING[model], controls, d.delta12)[0]


def build_capacitive(d: DeviceParams):
    """4x4 Hamiltonian H_1 x I + I x H_2 + diag(Delta_12, 0, 0, 0).

    The capacitive interaction energy appears only when both qubits are
    excited.  A stack of one for the core (see the module docstring); an
    entry whose sum overflows is a ValueError naming it.
    """
    return _device_hamiltonian("capacitive", d)


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
    cols = np.zeros(7)  # (0, H11, H22, H33, H44, a1, a2), read by _LAYOUT
    cols[5:] = d.q1.a, d.q2.a
    for k in range(4):
        z1, z2 = _Z1[k], _Z2[k]
        cols[1 + k] = _entry(
            k,
            (
                quarter,  # identity term
                z1 * d1,
                z1 * quarter,  # sigma_z^1 with its coupling shift
                z2 * d2,
                z2 * quarter,  # sigma_z^2 with its coupling shift
                z1 * z2 * quarter,  # Ising zz term
            ),
        )
    return cols[_LAYOUT].astype(complex)


def build_dipole(d: DeviceParams):
    """4x4 dipole-model Hamiltonian: single-qubit blocks plus a diagonal
    coupling whose sign follows dipole alignment, +omega_12 on (|1>|1>,
    |0>|0>) and -omega_12 on (|1>|0>, |0>|1>)."""
    return _device_hamiltonian("dipole", d)


def effective_levels(d: DeviceParams, qubit, neighbor_excited):
    """Effective level splitting of one qubit, conditioned on its neighbor.

    With drives off, the capacitive model leaves each qubit a two-level
    system whose splitting is shifted by the coupling:

        E = Delta_q + Delta_12/4 + s * Delta_12/4,

    s = +1 when the neighbor is excited, -1 when it is in the ground state.
    The excited/ground difference is therefore Delta_12/2.
    """
    _require_qubit(qubit)
    if not isinstance(neighbor_excited, (bool, np.bool_)):
        raise ValueError(f"neighbor_excited must be True or False, got {neighbor_excited!r}")
    delta = d.q1.delta if qubit == 1 else d.q2.delta
    quarter = d.delta12 / 4.0
    sign = 1.0 if neighbor_excited else -1.0
    return math.fsum((delta, quarter, sign * quarter))
