"""Piecewise-constant time evolution of the two-qubit state.

A ``Schedule`` is an ordered list of ``PulseSegment`` settings applied to a
fixed device; within a segment the Hamiltonian is constant, so the exact
propagator is a product of matrix exponentials.  ``propagate_many`` stacks
the segments of any number of schedules and runs the stack in chunks of
whole schedules: one ``expm_unitary`` call per chunk, then the products of
schedules with the same segment count as stacked matrix products;
``propagate`` is that call on one schedule, so there is one exact path.  An
independent Runge-Kutta integrator of i d psi/dt = H psi (``propagate_rk4``)
builds every segment's fixed RK4 step matrices in one stacked call, squares
the stack of full steps once per bit of the largest step count, and applies
to the state each segment's powers for its n - 1 full steps, then its
partial step; it refuses a step outside RK4's stability interval.  It exists
only to cross-check the exact route and shares no code path with
``expm_unitary`` beyond the Hamiltonian core.

The capacitive coupling is a device constant: it appears in every segment's
Hamiltonian and is deliberately NOT a per-segment control.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import DeviceParams, _coupling, _hamiltonian
from .linalg import _require_finite, expm_unitary

__all__ = [
    "PulseSegment",
    "Schedule",
    "EvolutionResult",
    "segment_hamiltonian",
    "propagate",
    "propagate_many",
    "propagate_rk4",
]

# RK4's stability interval on the imaginary axis is |h lambda| <= 2 sqrt(2).
_RK4_STABLE = 2.0 * math.sqrt(2.0)
_EYE = np.eye(4, dtype=complex)
INITIAL_STATE = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # |1>|1>, both qubits excited
# propagate_many runs its stack this many segments at a time.  Over the
# 8004 segments of a gated 2000-point sweep, time per segment falls from
# about 10 us at 16 and 6.4 us at 64 to a flat 5.9-6.9 us from 128 up to
# one unchunked stack, while the tracemalloc peak grows from 2.2 MB at 512
# to 14.3 MB unchunked.
_CHUNK = 512


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
        if not isinstance(self.device, DeviceParams):
            raise ValueError(f"device must be a DeviceParams, got {self.device!r}")
        _coupling(self.model)

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
    qubit controls, the device supplies the fixed coupling.  Both were
    validated when they were built, so their numbers go straight to the
    Hamiltonian core, which names an unknown model."""
    return _hamiltonian(model, seg.delta1, seg.delta2, seg.a1, seg.a2, device.delta12)


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


def _segment_error(k, s, j, exc):
    return ValueError(f"stack index {k} (schedule {s}, segment {j}): {exc}")


def _propagate_chunk(schedules, k0, s0, psi):
    """``propagate_many``'s results for whole schedules whose segments are
    the stack entries k0, k0 + 1, ..., the first of them schedule s0."""
    hs, durations = [], []
    for s, sched in enumerate(schedules):
        for j, seg in enumerate(sched.segments):
            try:
                hs.append(segment_hamiltonian(seg, sched.device, sched.model))
            except ValueError as exc:
                raise _segment_error(k0 + len(hs), s0 + s, j, exc) from None
            durations.append(seg.duration)
    try:
        us = expm_unitary(np.array(hs), np.array(durations))
    except ValueError:
        # each stacked unitary is its lone call's, so the first segment whose
        # lone call fails is the one to name
        k = 0
        for s, sched in enumerate(schedules):
            for j, seg in enumerate(sched.segments):
                try:
                    expm_unitary(hs[k], seg.duration)
                except ValueError as exc:
                    raise _segment_error(k0 + k, s0 + s, j, exc) from None
                k += 1
        raise
    if len(schedules) == 1:
        # a lone schedule multiplies its 4x4 unitaries in turn, which costs
        # less than the bookkeeping of a stack of one
        factors = iter(us)
        u = next(factors) @ _EYE
        for factor in factors:
            u = factor @ u
        totals, finals = (u,), (u @ psi,)
    else:
        totals, k = [], 0
        for n, run in itertools.groupby(len(sched.segments) for sched in schedules):
            # a run of m schedules of n segments each multiplies as one stack
            m = len(tuple(run))
            factors = us[k:k + m * n].reshape(m, n, 4, 4).swapaxes(0, 1)
            u = factors[0] @ _EYE
            for factor in factors[1:]:
                u = factor @ u
            totals.append(u)
            k += m * n
        totals = np.concatenate(totals)
        finals = totals @ psi
    return [EvolutionResult(final_state=final, total_propagator=u_total,
                            norm_drift=abs(float(np.linalg.norm(final)) - 1.0))
            for final, u_total in zip(finals, totals)]


def propagate_many(schedules, psi0):
    """Exact evolution of several schedules from one initial state, one
    ``EvolutionResult`` per schedule, in order.

    The segments of all the schedules, each with its own device and model,
    form one stack in order.  It runs in chunks of whole schedules, at most
    ``_CHUNK`` segments each unless one schedule is longer, so its memory is
    bounded by a chunk.  A chunk builds the Hamiltonians of its segments,
    then one ``expm_unitary`` call (one LAPACK eigendecomposition) gives
    every U_k = exp(-i H_k t_k).  Segments act in list order (first element
    first in time), so a schedule's total propagator is U_n ... U_2 U_1 I.
    Each run of consecutive schedules with the same segment count forms
    these products as one stack of matrix products, and a chunk's final
    states come from one stacked product with psi0.  Every result is bit for
    bit what the schedule gives alone.  Every entry is checked to be a
    Schedule before any chunk runs.  A segment whose Hamiltonian cannot be
    built, or whose unitary cannot be formed, is named by its index in the
    whole stack and in its schedule; chunks run in stack order, and each
    builds all its Hamiltonians before it exponentiates them.
    """
    psi = _check_initial_state(psi0)
    schedules = tuple(schedules)
    for s, sched in enumerate(schedules):
        if not isinstance(sched, Schedule):
            raise ValueError(f"schedule {s} must be a Schedule, got {sched!r}")
    results = []
    s = k = 0  # the chunk's first schedule and its first stack index
    while s < len(schedules):
        stop, size = s + 1, len(schedules[s].segments)
        while stop < len(schedules) and size + len(schedules[stop].segments) <= _CHUNK:
            size += len(schedules[stop].segments)
            stop += 1
        results += _propagate_chunk(schedules[s:stop], k, s, psi)
        s, k = stop, k + size
    return results


def propagate(schedule: Schedule, psi0):
    """Exact evolution of one schedule: ``propagate_many`` on it alone."""
    return propagate_many((schedule,), psi0)[0]


def _rk4_step_matrix(m, h):
    """One classical Runge-Kutta step for psi' = M psi as a matrix.

    With M constant over the step, the four stage slopes are themselves
    linear in psi, so the entire update psi <- psi + (h/6)(k1+2k2+2k3+k4)
    collapses to a fixed matrix applied per step.  ``m`` is a (..., 4, 4)
    stack and ``h`` a scalar or one step per matrix; each stacked result is
    bit for bit its lone call's.
    """
    h = np.asarray(h, dtype=float)[..., None, None]
    k1 = m
    k2 = m @ (_EYE + (h / 2.0) * k1)
    k3 = m @ (_EYE + (h / 2.0) * k2)
    k4 = m @ (_EYE + h * k3)
    return _EYE + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_rk4(schedule: Schedule, psi0, dt):
    """Fixed-step RK4 integration of the Schrodinger equation, never via
    ``expm_unitary``: each segment is n - 1 full steps of its RK4 step
    matrix S, then one partial step.  The full and partial step matrices of
    every segment come from one stacked ``_rk4_step_matrix`` call, and one
    chain of stacked squarings gives S^(2^k) for every segment at once; the
    state then takes, segment by segment in time order, the power of each
    set bit of that segment's n - 1 and its partial step.

    Args:
        schedule: pulse program (same semantics as ``propagate``).
        psi0: normalized initial state.
        dt: step size; must not exceed one tenth of the shortest segment so
            every segment is resolved, and must keep every segment stable:
            dt times the largest row sum of |H_k| is at most 2 sqrt(2).  The
            row sum bounds H_k's spectral radius, and 2 sqrt(2) is where
            RK4's stability interval on the imaginary axis ends; past it
            the state grows without bound.  Segments are checked in time
            order, each before the next one's Hamiltonian is built.

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
    hs, counts, lasts = [], [], []
    for j, seg in enumerate(schedule.segments):
        try:
            h = segment_hamiltonian(seg, schedule.device, schedule.model)
        except ValueError as exc:
            raise ValueError(f"segment {j}: {exc}") from None
        with np.errstate(over="ignore"):
            reach = dt * np.abs(h).sum(axis=1).max()
        if not reach <= _RK4_STABLE:
            raise ValueError(
                f"segment {j}: dt={dt} is unstable: dt * max row sum |H| = {reach:.3e} "
                f"exceeds RK4's limit 2*sqrt(2)"
            )
        count = max(1, math.ceil(seg.duration / dt - 1e-12)) - 1  # full steps
        hs.append(h)
        counts.append(count)
        lasts.append(seg.duration - count * dt)
    n = len(hs)
    m = -1j * np.array(hs)
    steps = _rk4_step_matrix(np.concatenate((m, m)), [dt] * n + lasts)
    full, partial = steps[:n], steps[n:]
    # powers[k][j] is segment j's full step matrix to the power 2^k
    powers = [full]
    for _ in range(max(counts).bit_length() - 1):
        powers.append(powers[-1] @ powers[-1])
    for j, count in enumerate(counts):
        for k in range(count.bit_length()):
            if count >> k & 1:
                psi = powers[k][j] @ psi
        psi = partial[j] @ psi
    return psi
