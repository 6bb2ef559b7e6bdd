"""Piecewise-constant time evolution of the two-qubit state.

A ``Schedule`` is an ordered list of ``PulseSegment`` settings applied to a
fixed device; within a segment the Hamiltonian is constant, so the exact
propagator is a product of matrix exponentials (``propagate``), all of a
schedule's computed by one stacked ``expm_unitary`` call.  An
independent Runge-Kutta integrator of i d psi/dt = H psi (``propagate_rk4``)
applies each segment's fixed RK4 step matrix n - 1 times by repeated
squaring; it exists only to cross-check the exact route and shares no code
path with ``expm_unitary`` beyond the Hamiltonian builders.

The capacitive coupling is a device constant: it appears in every segment's
Hamiltonian and is deliberately NOT a per-segment control.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    DeviceParams,
    QubitParams,
    build_capacitive,
    build_dipole,
)
from .linalg import _require_finite, expm_unitary

__all__ = [
    "PulseSegment",
    "Schedule",
    "EvolutionResult",
    "segment_hamiltonian",
    "propagate",
    "propagate_rk4",
]

_MODELS = ("capacitive", "dipole")


@dataclass(frozen=True)
class PulseSegment:
    """One constant control setting held for a positive duration.

    ``delta1``/``delta2`` are the instantaneous level settings, ``a1``/``a2``
    the instantaneous drive strengths; ``label`` is purely diagnostic.
    Durations are in units of 1/a_ref.
    """

    duration: float
    delta1: float
    delta2: float
    a1: float
    a2: float
    label: str = ""

    def __post_init__(self):
        _require_finite("duration", self.duration)
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        for name in ("delta1", "delta2", "a1", "a2"):
            _require_finite(name, getattr(self, name))
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise ValueError(
                f"drive strengths must be >= 0, got a1={self.a1}, a2={self.a2}"
            )


@dataclass(frozen=True)
class Schedule:
    """An ordered, non-empty pulse program for one device."""

    segments: tuple
    device: DeviceParams
    model: str = "capacitive"

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("schedule must contain at least one segment")
        for seg in self.segments:
            if not isinstance(seg, PulseSegment):
                raise ValueError(f"schedule entries must be PulseSegment, got {seg!r}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")

    @property
    def total_duration(self):
        return math.fsum(seg.duration for seg in self.segments)


@dataclass(frozen=True)
class EvolutionResult:
    """Final state, total propagator and the accumulated norm drift
    | ||psi_f|| - 1 | (the exact evolver is unitary, so drift is roundoff)."""

    final_state: np.ndarray
    total_propagator: np.ndarray
    norm_drift: float


def segment_hamiltonian(seg: PulseSegment, device: DeviceParams, model="capacitive"):
    """Instantaneous 4x4 Hamiltonian of one segment: the segment supplies the
    qubit controls, the device supplies the fixed coupling."""
    instant = DeviceParams(
        q1=QubitParams(delta=seg.delta1, a=seg.a1),
        q2=QubitParams(delta=seg.delta2, a=seg.a2),
        delta12=device.delta12,
    )
    if model == "capacitive":
        return build_capacitive(instant)
    if model == "dipole":
        return build_dipole(instant)
    raise ValueError(f"model must be one of {_MODELS}, got {model!r}")


def _check_initial_state(psi0):
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"initial state must be a length-4 vector, got shape {psi.shape}")
    # A NaN norm would pass the normalization test below.
    if not np.isfinite(psi).all():
        i = int(np.flatnonzero(~np.isfinite(psi))[0])
        raise ValueError(f"initial state entry {i + 1} is not finite: {psi[i]}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state must be normalized, got norm {norm!r}")
    return psi


def propagate(schedule: Schedule, psi0):
    """Exact evolution: U_k = exp(-i H_k t_k) for every segment from one
    stacked ``expm_unitary`` call (one LAPACK eigendecomposition per
    schedule), then multiplied in time order.

    Segments act in list order (first element first in time), so the total
    propagator is U_n ... U_2 U_1.
    """
    psi = _check_initial_state(psi0)
    segs = schedule.segments
    hs = np.array([segment_hamiltonian(seg, schedule.device, schedule.model) for seg in segs])
    u_total = np.eye(4, dtype=complex)
    for u in expm_unitary(hs, np.array([seg.duration for seg in segs])):
        u_total = u @ u_total
    final = u_total @ psi
    drift = abs(float(np.linalg.norm(final)) - 1.0)
    return EvolutionResult(final_state=final, total_propagator=u_total, norm_drift=drift)


def _rk4_step_matrix(m, h):
    """One classical Runge-Kutta step for psi' = M psi as a matrix.

    With M constant over the step, the four stage slopes are themselves
    linear in psi, so the entire update psi <- psi + (h/6)(k1+2k2+2k3+k4)
    collapses to a fixed matrix applied per step.
    """
    eye = np.eye(m.shape[0], dtype=complex)
    k1 = m
    k2 = m @ (eye + (h / 2.0) * k1)
    k3 = m @ (eye + (h / 2.0) * k2)
    k4 = m @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_rk4(schedule: Schedule, psi0, dt):
    """Fixed-step RK4 integration of the Schrodinger equation: within each
    segment the one RK4 step matrix is raised to the power n - 1 by repeated
    squaring, never via ``expm_unitary``; one partial step then ends it.

    Args:
        schedule: pulse program (same semantics as ``propagate``).
        psi0: normalized initial state.
        dt: step size; must not exceed one tenth of the shortest segment so
            every segment is resolved.

    Returns:
        The final state vector.  No renormalization is applied -- the norm
        drift is the integrator's own error signal.
    """
    psi = _check_initial_state(psi0)
    _require_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    shortest = min(seg.duration for seg in schedule.segments)
    if dt > shortest / 10.0:
        raise ValueError(
            f"dt={dt} too coarse: must be <= shortest segment / 10 = {shortest / 10.0}"
        )
    for seg in schedule.segments:
        m = -1j * segment_hamiltonian(seg, schedule.device, schedule.model)
        n_steps = max(1, math.ceil(seg.duration / dt - 1e-12))
        psi = np.linalg.matrix_power(_rk4_step_matrix(m, dt), n_steps - 1) @ psi
        last = seg.duration - (n_steps - 1) * dt
        psi = _rk4_step_matrix(m, last) @ psi
    return psi
