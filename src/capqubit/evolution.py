"""Piecewise-constant time evolution of the two-qubit state.

A ``Schedule`` is a pulse program for a fixed device.  It holds its segments'
controls as one float array of shape (n, 5), a row per segment in time
order: duration, delta1, delta2, a1, a2.  The labels sit beside it, and
``schedule.segments`` gives the rows back as ``PulseSegment``s.  Within a
segment the Hamiltonian is constant, so the exact propagator is a product of
matrix exponentials.  ``propagate_many`` runs the schedules in chunks of
whole schedules: a chunk concatenates its schedules' arrays, builds all its
Hamiltonians in one call of the stacked core (``hamiltonian._hamiltonians``),
exponentiates them in one ``expm_unitary`` call, and forms the products of
schedules with the same segment count as stacked matrix products;
``propagate`` is that call on one schedule, so there is one exact path.  An
independent Runge-Kutta integrator of i d psi/dt = H psi (``propagate_rk4``)
builds a schedule's Hamiltonians in one core call, checks every segment's
step against RK4's stability interval in one vector operation, builds every
segment's fixed RK4 step matrices in one stacked call, squares the stack of
full steps once per bit of the largest step count, and applies to the state
each segment's powers for its n - 1 full steps, then its partial step.  It
exists only to cross-check the exact route and shares no code path with
``expm_unitary`` beyond the Hamiltonian core.

One rule names a failure: the stacked path detects it, and one walk names
the first segment in time order that fails when rebuilt and checked alone.

Every schedule is capacitive: its coupling is a device constant in every
segment's Hamiltonian, one coupling row for all, and NOT a per-segment control.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import _COUPLING, DeviceParams, _coupling, _hamiltonians
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
_CAPACITIVE = _COUPLING["capacitive"]


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
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a str, got {self.label!r}")


def _segment_row(duration, delta1, delta2, a1, a2, label):
    """A segment's controls and label as a row for ``Schedule._of_rows``,
    checked once by ``PulseSegment``'s rules: a float control that breaks
    one fails the chained test, and building the segment then raises that
    rule's named error."""
    if not (0.0 < duration < math.inf and -math.inf < delta1 < math.inf
            and -math.inf < delta2 < math.inf and 0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf):
        PulseSegment(duration, delta1, delta2, a1, a2, label)
    return (duration, delta1, delta2, a1, a2), label


@dataclass(frozen=True, init=False, eq=False)
class Schedule:
    """An ordered, non-empty pulse program for one device.

    ``controls`` is a read-only float array of shape (n, 5), one row per
    segment in time order: duration, delta1, delta2, a1, a2.  ``labels``
    holds the segments' labels in the same order.  A schedule is built from
    ``PulseSegment``s, each checked when it was made; ``segments`` gives
    them back, with every field a plain float of the same bits.
    """

    controls: np.ndarray
    labels: tuple
    device: DeviceParams
    model = "capacitive"  # not a field: the bench's traced replay reads it

    def __init__(self, segments, device):
        try:
            segments = tuple(segments)
        except TypeError:
            raise ValueError(
                f"segments must be an iterable of PulseSegments, got {segments!r}") from None
        for seg in segments:
            if not isinstance(seg, PulseSegment):
                raise ValueError(f"schedule entries must be PulseSegment, got {seg!r}")
        self._hold([((seg.duration, seg.delta1, seg.delta2, seg.a1, seg.a2), seg.label)
                    for seg in segments], device)

    @classmethod
    def _of_rows(cls, rows, device):
        """The schedule of ``_segment_row`` rows, which were checked when made."""
        schedule = object.__new__(cls)
        schedule._hold(rows, device)
        return schedule

    def _hold(self, rows, device):
        if not rows:
            raise ValueError("schedule must contain at least one segment")
        if not isinstance(device, DeviceParams):
            raise ValueError(f"device must be a DeviceParams, got {device!r}")
        controls, labels = zip(*rows)
        controls = np.array(controls, dtype=float)
        controls.flags.writeable = False
        for name, value in (("controls", controls), ("labels", labels),
                            ("device", device)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return ((self.labels, self.device) == (other.labels, other.device)
                and np.array_equal(self.controls, other.controls))

    def __hash__(self):
        return hash((self.labels, self.device))

    @property
    def segments(self):
        return tuple(PulseSegment(*row, label)
                     for row, label in zip(self.controls.tolist(), self.labels))

    @property
    def total_duration(self):
        return math.fsum(self.controls[:, 0].tolist())


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
    stacked Hamiltonian core as a stack of one; an unknown model is named."""
    controls = np.array(((seg.duration, seg.delta1, seg.delta2, seg.a1, seg.a2),))
    return _hamiltonians(_coupling(model), controls, device.delta12)[0]


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


def _first_failure(schedules, check):
    """The first segment of ``schedules`` in time order that fails alone, as
    (schedule, segment, stack position, error), or None if none does.  Each
    segment is rebuilt alone by the stacked core, and ``check`` takes its
    Hamiltonian and duration."""
    segments = ((s, j, sched.device.delta12, row) for s, sched in enumerate(schedules)
                for j, row in enumerate(sched.controls[:, None]))
    for k, (s, j, d12, row) in enumerate(segments):
        try:
            check(_hamiltonians(_CAPACITIVE, row, d12)[0], row[0, 0])
        except ValueError as exc:
            return s, j, k, exc
    return None


def _propagate_chunk(schedules, k0, s0, psi):
    """``propagate_many``'s results for whole schedules whose segments are
    the stack entries k0, k0 + 1, ..., the first of them schedule s0."""
    counts = [len(sched.controls) for sched in schedules]
    if len(schedules) == 1:
        (sched,) = schedules
        controls, d12 = sched.controls, sched.device.delta12
    else:
        controls = np.concatenate([sched.controls for sched in schedules])
        d12 = np.repeat([sched.device.delta12 for sched in schedules], counts)
    try:
        us = expm_unitary(_hamiltonians(_CAPACITIVE, controls, d12), controls[:, 0])
    except ValueError:
        failure = _first_failure(schedules, expm_unitary)
        if failure is None:
            raise
        s, j, k, exc = failure
        raise ValueError(f"stack index {k0 + k} (schedule {s0 + s}, segment {j}): {exc}") from None
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
        for n, run in itertools.groupby(counts):
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

    The segments of all the schedules, each with its own device, form one
    stack in order.  It runs in chunks of whole schedules, at most
    ``_CHUNK`` segments each unless one schedule is longer, so its memory is
    bounded by a chunk.  A chunk concatenates its schedules' control arrays
    and builds all their Hamiltonians in one call of the stacked core, then
    one ``expm_unitary`` call (one LAPACK eigendecomposition) gives every
    U_k = exp(-i H_k t_k).  Segments act in list order (first element
    first in time), so a schedule's total propagator is U_n ... U_2 U_1 I.
    Each run of consecutive schedules with the same segment count forms
    these products as one stack of matrix products, and a chunk's final
    states come from one stacked product with psi0.  Every result is bit for
    bit what the schedule gives alone.  Every entry is checked to be a
    Schedule before any chunk runs.  One rule names a failure: the stacked
    path detects it, and one walk names the first segment in time order that
    fails when rebuilt and checked alone (by ``expm_unitary``), by its index
    in the whole stack and in its schedule.
    """
    psi = _check_initial_state(psi0)
    schedules = tuple(schedules)
    for s, sched in enumerate(schedules):
        if not isinstance(sched, Schedule):
            raise ValueError(f"schedule {s} must be a Schedule, got {sched!r}")
    results = []
    s = k = 0  # the chunk's first schedule and its first stack index
    while s < len(schedules):
        stop, size = s + 1, len(schedules[s].controls)
        while stop < len(schedules) and size + len(schedules[stop].controls) <= _CHUNK:
            size += len(schedules[stop].controls)
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


def _require_rk4_stable(hs, dt):
    """A ValueError unless dt keeps RK4 stable on every Hamiltonian of ``hs``."""
    with np.errstate(over="ignore"):
        reach = (dt * np.abs(hs).sum(axis=-1).max(axis=-1)).max()
    if not reach <= _RK4_STABLE:
        raise ValueError(f"dt={dt} is unstable: dt * max row sum |H| = {reach:.3e} "
                         f"exceeds RK4's limit 2*sqrt(2)")


def propagate_rk4(schedule: Schedule, psi0, dt):
    """Fixed-step RK4 integration of the Schrodinger equation, never via
    ``expm_unitary``: each segment is n - 1 full steps of its RK4 step
    matrix S, then one partial step.  The schedule's Hamiltonians come from
    one call of the stacked core, and one vector operation checks every
    segment's step for stability.  The full and partial step matrices of
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
            the state grows without bound.  One rule names a failure:
            the stacked path detects it, and one walk names the first
            segment in time order that fails when rebuilt and checked alone
            (by the stability test).

    Returns:
        The final state vector.  No renormalization is applied -- the norm
        drift is the integrator's own error signal.
    """
    psi = _check_initial_state(psi0)
    if not isinstance(schedule, Schedule):
        raise ValueError(f"schedule must be a Schedule, got {schedule!r}")
    _require_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    durations = schedule.controls[:, 0].tolist()
    shortest = min(durations)
    if dt > shortest / 10.0:
        raise ValueError(
            f"dt={dt} too coarse: must be <= shortest segment / 10 = {shortest / 10.0}"
        )
    try:
        hs = _hamiltonians(_CAPACITIVE, schedule.controls, schedule.device.delta12)
        _require_rk4_stable(hs, dt)
    except ValueError:
        _, j, _, exc = _first_failure((schedule,), lambda h, _: _require_rk4_stable(h, dt))
        raise ValueError(f"segment {j}: {exc}") from None
    counts = [max(1, math.ceil(duration / dt - 1e-12)) - 1 for duration in durations]  # full steps
    lasts = [duration - count * dt for duration, count in zip(durations, counts)]
    n = len(hs)
    m = -1j * hs
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
