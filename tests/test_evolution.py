"""Tests for piecewise-constant evolution: exact propagator and RK4 check."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capqubit.evolution
import capqubit.linalg
from capqubit import checks
from capqubit.evolution import (
    PulseSegment,
    Schedule,
    _rk4_step_matrix,
    propagate,
    propagate_many,
    propagate_rk4,
    segment_hamiltonian,
)
from capqubit.hamiltonian import (
    DeviceParams,
    QubitParams,
    build_capacitive,
    build_dipole,
)
from capqubit.linalg import expm_unitary

STATE_TOL = 1e-12
UNITARITY_TOL = 1e-12
COMPOSITION_TOL = 1e-10
SCALING_TOL = 1e-10
RK4_RABI_TOL = 1e-8
SQUARING_TOL = 1e-12

KET_11 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def device(d12=0.0):
    return DeviceParams(
        q1=QubitParams(delta=0.0, a=0.0),
        q2=QubitParams(delta=0.0, a=0.0),
        delta12=d12,
    )


def random_schedule(rng, device_d12, max_segments=5):
    n = int(rng.integers(1, max_segments + 1))
    segs = []
    for _ in range(n):
        segs.append(
            PulseSegment(
                duration=float(rng.uniform(0.1, 3.0)),
                delta1=float(rng.uniform(-2.0, 2.0)),
                delta2=float(rng.uniform(-2.0, 2.0)),
                a1=float(rng.uniform(0.0, 2.0)),
                a2=float(rng.uniform(0.0, 2.0)),
            )
        )
    return Schedule(segments=tuple(segs), device=device(d12=device_d12))


def random_state(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return psi / np.linalg.norm(psi)


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(duration=0.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    with pytest.raises(ValueError):
        PulseSegment(duration=-1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    with pytest.raises(ValueError):
        PulseSegment(duration=1.0, delta1=float("nan"), delta2=0.0, a1=0.0, a2=0.0)
    with pytest.raises(ValueError):
        PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=-0.5, a2=0.0)


def test_segment_label_must_be_a_str():
    with pytest.raises(ValueError, match="^label must be a str, got 5$"):
        PulseSegment(1, 0, 0, 1, 0, label=5)


def test_schedule_segments_must_be_an_iterable():
    # a bare number used to escape as "TypeError: 'int' object is not iterable"
    with pytest.raises(ValueError, match="^segments must be an iterable of PulseSegments, got 5$"):
        Schedule(5, device())


def test_schedule_holds_its_controls_as_one_read_only_array():
    segs = (PulseSegment(0.5, -0.0, 1.25, 0.0, 2.0, "first"), PulseSegment(3, 1, -2, 1, 0))
    sched = Schedule(segs, device(0.1))
    assert sched.controls.dtype == float and sched.controls.shape == (2, 5)
    assert sched.controls.tolist() == [[0.5, -0.0, 1.25, 0.0, 2.0], [3.0, 1.0, -2.0, 1.0, 0.0]]
    assert math.copysign(1.0, sched.controls[0, 1]) == -1.0
    assert sched.labels == ("first", "")
    with pytest.raises(ValueError, match="read-only"):
        sched.controls[0, 0] = 1.0
    # the segments come back with the same bits, every field a plain float
    assert sched.segments == segs
    assert all(type(getattr(seg, name)) is float for seg in sched.segments
               for name in ("duration", "delta1", "delta2", "a1", "a2"))
    assert sched == Schedule(sched.segments, device(0.1))
    assert sched != Schedule(sched.segments, device(0.2))
    assert sched != Schedule((segs[0], PulseSegment(3, 1, -2, 1, 0, "second")), device(0.1))
    assert hash(sched) == hash(Schedule(sched.segments, device(0.1)))


@pytest.mark.parametrize("controls", [
    (0.0, 0.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0, 0.0),
    (1.0, math.nan, 0.0, 0.0, 0.0), (1.0, 0.0, -math.inf, 0.0, 0.0),
    (1.0, 0.0, 0.0, -0.5, 0.0), (1.0, 0.0, 0.0, 0.0, -1e-300), (1.0, 0.0, 0.0, math.nan, -1.0),
])
def test_a_compiled_row_is_checked_with_the_segments_message(controls):
    # a compiled segment is a row of the schedule's array, not a PulseSegment;
    # a row that breaks a segment's rule raises that rule's message
    with pytest.raises(ValueError) as expected:
        PulseSegment(*controls, "x")
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        capqubit.evolution._segment_row(*controls, "x")


def test_schedule_validation():
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    with pytest.raises(ValueError, match="^schedule must contain at least one segment$"):
        Schedule(segments=(), device=device())
    with pytest.raises(ValueError):
        Schedule(segments=("not a segment",), device=device())
    with pytest.raises(ValueError, match="^device must be a DeviceParams, got 'dev'$"):
        Schedule(segments=(seg,), device="dev")
    sched = Schedule(segments=(seg, seg), device=device())
    assert sched.total_duration == 2.0
    # every schedule is capacitive: it takes no model, and reads as one
    with pytest.raises(TypeError):
        Schedule((seg,), device(), model="dipole")
    assert Schedule.model == sched.model == "capacitive"


def test_segment_hamiltonian_dispatch():
    seg = PulseSegment(duration=1.0, delta1=0.4, delta2=-0.3, a1=0.2, a2=0.9)
    dev = device(d12=0.15)
    instant = DeviceParams(
        q1=QubitParams(delta=0.4, a=0.2),
        q2=QubitParams(delta=-0.3, a=0.9),
        delta12=0.15,
    )
    assert np.array_equal(
        segment_hamiltonian(seg, dev, "capacitive"), build_capacitive(instant)
    )
    assert np.array_equal(
        segment_hamiltonian(seg, dev, "dipole"), build_dipole(instant)
    )
    with pytest.raises(ValueError, match=re.escape(
            "model must be one of ('capacitive', 'dipole'), got 'xy'")):
        segment_hamiltonian(seg, dev, "xy")


def test_propagate_identity_for_zero_hamiltonian():
    seg = PulseSegment(duration=2.5, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    result = propagate(Schedule(segments=(seg,), device=device()), KET_11)
    assert np.array_equal(result.final_state, KET_11)
    assert np.allclose(result.total_propagator, np.eye(4), atol=1e-14)
    assert result.norm_drift <= 1e-15


def test_propagate_resonant_rabi_on_target():
    # |1>|1> driven on qubit 2 at a2 = 1 for t: cos(t)|1>|1> - i sin(t)|1>|0>
    t = math.pi / 4.0
    seg = PulseSegment(duration=t, delta1=0.0, delta2=0.0, a1=0.0, a2=1.0)
    result = propagate(Schedule(segments=(seg,), device=device()), KET_11)
    expected = np.array([math.cos(t), -1j * math.sin(t), 0.0, 0.0])
    assert np.max(np.abs(result.final_state - expected)) <= STATE_TOL


def test_propagate_half_rabi_flip():
    # a full pi pulse moves |1>|1> to -i |1>|0>
    seg = PulseSegment(duration=math.pi / 2.0, delta1=0.0, delta2=0.0, a1=0.0, a2=1.0)
    result = propagate(Schedule(segments=(seg,), device=device()), KET_11)
    expected = np.array([0.0, -1j, 0.0, 0.0])
    assert np.max(np.abs(result.final_state - expected)) <= STATE_TOL


def test_propagate_unitarity_and_norm_drift():
    rng = np.random.default_rng(101)
    for _ in range(50):
        sched = random_schedule(rng, device_d12=float(rng.uniform(-0.5, 0.5)))
        result = propagate(sched, random_state(rng))
        u = result.total_propagator
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= UNITARITY_TOL
        assert result.norm_drift <= UNITARITY_TOL


def test_propagate_composition():
    # Running two programs back to back equals the product of their
    # propagators (last segment leftmost).
    rng = np.random.default_rng(103)
    for _ in range(30):
        d12 = float(rng.uniform(-0.5, 0.5))
        s1 = random_schedule(rng, d12)
        s2 = random_schedule(rng, d12)
        joint = Schedule(segments=s1.segments + s2.segments, device=s1.device)
        u1 = propagate(s1, KET_11).total_propagator
        u2 = propagate(s2, KET_11).total_propagator
        u12 = propagate(joint, KET_11).total_propagator
        assert np.linalg.norm(u12 - u2 @ u1) <= COMPOSITION_TOL


def test_propagate_time_scaling_invariance():
    # H -> H/c with durations -> c*t leaves every propagator invariant.
    rng = np.random.default_rng(107)
    for _ in range(30):
        c = float(rng.uniform(0.2, 5.0))
        d12 = float(rng.uniform(-0.5, 0.5))
        sched = random_schedule(rng, d12)
        scaled_segs = tuple(
            PulseSegment(
                duration=seg.duration * c,
                delta1=seg.delta1 / c,
                delta2=seg.delta2 / c,
                a1=seg.a1 / c,
                a2=seg.a2 / c,
            )
            for seg in sched.segments
        )
        scaled = Schedule(segments=scaled_segs, device=device(d12=d12 / c))
        u = propagate(sched, KET_11).total_propagator
        u_scaled = propagate(scaled, KET_11).total_propagator
        assert np.linalg.norm(u - u_scaled) <= SCALING_TOL


def reference_propagate(schedule, psi0):
    """Reference: one expm_unitary call per segment, multiplied in time order."""
    u_total = np.eye(4, dtype=complex)
    for seg in schedule.segments:
        h = segment_hamiltonian(seg, schedule.device)
        u_total = expm_unitary(h, seg.duration) @ u_total
    return u_total @ np.asarray(psi0, dtype=complex), u_total


def random_segments(rng, count):
    return tuple(
        PulseSegment(duration=float(rng.uniform(0.01, 20.0)),
                     delta1=float(rng.uniform(-5.0, 5.0)), delta2=float(rng.uniform(-5.0, 5.0)),
                     a1=float(rng.uniform(0.0, 2.0)), a2=float(rng.uniform(0.0, 2.0)))
        for _ in range(count))


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8),
       sign=st.sampled_from([1.0, -1.0]))
def test_propagate_equals_the_per_segment_loop_bit_for_bit(seed, count, sign):
    # numpy draws from a hypothesis seed, so values fill their ranges rather
    # than crowding the ends; |Delta_12| is log-uniform in [1e-3, 0.5]
    rng = np.random.default_rng(seed)
    segs = random_segments(rng, count)
    d12 = sign * 10.0 ** float(rng.uniform(-3.0, math.log10(0.5)))
    sched = Schedule(segments=segs, device=device(d12=d12))
    psi0 = random_state(rng)
    final, u_total = reference_propagate(sched, psi0)
    result = propagate(sched, psi0)
    assert result.total_propagator.tobytes() == u_total.tobytes()
    assert result.final_state.tobytes() == final.tobytes()


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(1, 8), min_size=1, max_size=6))
def test_propagate_many_equals_the_per_segment_loop_per_schedule(seed, counts):
    # each schedule draws its own coupling sign and |Delta_12|
    # (log-uniform in [1e-3, 0.5]), so one stack mixes devices
    rng = np.random.default_rng(seed)
    schedules = [
        Schedule(segments=random_segments(rng, count),
                 device=device(d12=float(rng.choice([1.0, -1.0]))
                               * 10.0 ** float(rng.uniform(-3.0, math.log10(0.5)))))
        for count in counts]
    psi0 = random_state(rng)
    results = propagate_many(schedules, psi0)
    assert len(results) == len(schedules)
    for sched, result in zip(schedules, results):
        final, u_total = reference_propagate(sched, psi0)
        assert result.total_propagator.tobytes() == u_total.tobytes()
        assert result.final_state.tobytes() == final.tobytes()
        assert result.norm_drift == abs(float(np.linalg.norm(final)) - 1.0)


def test_propagate_many_makes_one_eigendecomposition_for_all_schedules(eigh_calls):
    rng = np.random.default_rng(5)
    schedules = [Schedule(segments=random_segments(rng, count), device=device(d12=0.1))
                 for count in (3, 1, 5)]
    propagate_many(schedules, KET_11)
    assert eigh_calls == [(9, 4, 4)]


def test_propagate_many_builds_once_per_chunk(monkeypatch, hamiltonian_builds):
    # the chunks of test_propagate_many_runs_whole_schedules_in_chunks: each
    # builds all its Hamiltonians in one call of the stacked core
    rng = np.random.default_rng(17)
    counts = (3, 1, 5, 2, 7, 4, 4, 1, 1, 2)
    schedules = [Schedule(segments=random_segments(rng, count), device=device(d12=0.1))
                 for count in counts]
    propagate_many(schedules, KET_11)
    assert hamiltonian_builds == [(sum(counts), 5)]
    hamiltonian_builds.clear()
    monkeypatch.setattr(capqubit.evolution, "_CHUNK", 5)
    propagate_many(schedules, KET_11)
    assert hamiltonian_builds == [(n, 5) for n in (4, 5, 2, 7, 4, 5, 3)]


def test_rk4_builds_once_per_call(hamiltonian_builds):
    rng = np.random.default_rng(19)
    sched = Schedule(segments=random_segments(rng, 6), device=device(d12=0.1))
    propagate_rk4(sched, KET_11, 1e-3)
    assert hamiltonian_builds == [(6, 5)]


def test_rk4_rejects_a_non_schedule_naming_it():
    # a string used to escape as "AttributeError: 'str' object has no
    # attribute 'segments'"
    with pytest.raises(ValueError, match="^schedule must be a Schedule, got 'x'$"):
        propagate_rk4("x", KET_11, 0.01)


def test_propagate_many_rejects_a_non_schedule_naming_it():
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    sched = Schedule(segments=(seg,), device=device())
    with pytest.raises(ValueError, match="schedule 1 must be a Schedule, got 'x'"):
        propagate_many([sched, "x"], KET_11)
    assert propagate_many([], KET_11) == []


OVERFLOWING = PulseSegment(duration=1.0, delta1=1e308, delta2=1e308, a1=0.0, a2=0.0)
ENTRY_OVERFLOWS = r"Hamiltonian entry \(1,1\) overflows"


def test_overflowing_hamiltonian_entry_is_named_by_both_propagators():
    # math.fsum used to escape as a bare OverflowError.  delta2 = -1e308
    # overflows delta1 - delta2 on entry (2,2): two level terms alone, with
    # the capacitive coupling's zero
    calm = PulseSegment(duration=1.0, delta1=0.1, delta2=0.2, a1=0.3, a2=0.4)
    calm_sched = Schedule(segments=(calm,), device=device(0.1))
    for delta2, entry in (
            (1e308, r"\(1,1\) overflows: the sum of \(1e\+308, 1e\+308, 0\.1\)"),
            (-1e308, r"\(2,2\) overflows: the sum of \(1e\+308, 1e\+308, 0\.0\)")):
        overflowing = PulseSegment(duration=1.0, delta1=1e308, delta2=delta2, a1=0.0, a2=0.0)
        sched = Schedule(segments=(calm, overflowing, overflowing), device=device(0.1))
        message = "Hamiltonian entry " + entry + " is not a finite float$"
        with pytest.raises(ValueError, match=r"^stack index 2 \(schedule 1, segment 1\): "
                                             + message):
            propagate_many([calm_sched, sched], KET_11)
        with pytest.raises(ValueError, match=r"^stack index 1 \(schedule 0, segment 1\): "
                                             + message):
            propagate(sched, KET_11)
        with pytest.raises(ValueError, match="^segment 1: " + message):
            propagate_rk4(sched, KET_11, dt=0.01)


def test_propagate_of_a_level_near_the_float_limit_stays_unitary():
    # the Hermitian part that eigh once formed for LAPACK overflowed to NaN here
    seg = PulseSegment(duration=1.0, delta1=1e308, delta2=0.0, a1=0.0, a2=0.0)
    result = propagate(Schedule(segments=(seg,), device=device()), KET_11)
    assert np.isfinite(result.total_propagator).all()
    assert result.norm_drift <= STATE_TOL


def test_propagate_rejects_a_phase_that_overflows():
    # exp(-i lambda t) of an infinite lambda * t used to fill the state with
    # NaN; the error then named the segment by its stack index alone
    calm = PulseSegment(duration=1.0, delta1=0.1, delta2=0.2, a1=0.3, a2=0.4)
    seg = PulseSegment(duration=1e10, delta1=1e300, delta2=0.0, a1=0.0, a2=0.0)
    sched = Schedule(segments=(calm, seg), device=device())
    phase = (r"matrix has eigenvalue -?1\.000e\+300, whose phase lambda \* t .* "
             r"is not a finite float")
    with pytest.raises(ValueError, match=r"^stack index 3 \(schedule 1, segment 1\): " + phase):
        propagate_many([Schedule(segments=(calm, calm), device=device()), sched], KET_11)
    with pytest.raises(ValueError, match=r"^stack index 1 \(schedule 0, segment 1\): " + phase):
        propagate(sched, KET_11)
    with pytest.raises(ValueError, match="unstable"):
        propagate_rk4(Schedule(segments=(seg,), device=device()), KET_11, dt=1e9)


def test_propagate_many_runs_whole_schedules_in_chunks(monkeypatch, eigh_calls):
    # with a chunk of 5 segments, the schedules of 3 + 1, 5, 2, 7 (longer
    # than a chunk), 4, 4 + 1 and 1 + 2 segments make one chunk each, never
    # splitting a schedule, and every result is the unchunked one bit for bit
    rng = np.random.default_rng(17)
    counts = (3, 1, 5, 2, 7, 4, 4, 1, 1, 2)
    schedules = [Schedule(segments=random_segments(rng, count),
                          device=device(d12=float(rng.uniform(-0.5, 0.5))))
                 for count in counts]
    psi0 = random_state(rng)
    whole = propagate_many(schedules, psi0)
    assert eigh_calls == [(sum(counts), 4, 4)]
    eigh_calls.clear()
    monkeypatch.setattr(capqubit.evolution, "_CHUNK", 5)
    chunked = propagate_many(schedules, psi0)
    assert [shape[0] for shape in eigh_calls] == [4, 5, 2, 7, 4, 5, 3]
    for a, b in zip(chunked, whole, strict=True):
        assert a.total_propagator.tobytes() == b.total_propagator.tobytes()
        assert a.final_state.tobytes() == b.final_state.tobytes()
        assert a.norm_drift == b.norm_drift


def test_propagate_many_names_a_failing_segment_by_its_global_index_across_chunks(
        monkeypatch):
    # schedules of 2 segments in chunks of 3: the failing segment sits in
    # the third chunk, and is named by its index in the whole stack
    monkeypatch.setattr(capqubit.evolution, "_CHUNK", 3)
    calm = PulseSegment(duration=1.0, delta1=0.1, delta2=0.2, a1=0.3, a2=0.4)
    huge_phase = PulseSegment(duration=1e10, delta1=1e300, delta2=0.0, a1=0.0, a2=0.0)
    pair = Schedule(segments=(calm, calm), device=device())
    for bad, message in ((huge_phase, r"matrix has eigenvalue -?1\.000e\+300"),
                         (OVERFLOWING, ENTRY_OVERFLOWS)):
        failing = Schedule(segments=(calm, bad), device=device(0.1))
        with pytest.raises(ValueError, match=r"^stack index 5 \(schedule 2, segment 1\): "
                                             + message):
            propagate_many([pair, pair, failing, pair], KET_11)


@pytest.mark.parametrize("chunk", [1, 512])
def test_both_propagators_name_the_first_failing_segment_in_time_order(monkeypatch, chunk):
    # a phase that overflows, then an entry that overflows: a failed build
    # used to win over an earlier failed exponential in the same chunk, so
    # the segment named depended on the chunk size
    monkeypatch.setattr(capqubit.evolution, "_CHUNK", chunk)
    huge_phase = PulseSegment(duration=1e10, delta1=1e300, delta2=0.0, a1=0.0, a2=0.0)
    first = r"^stack index 0 \(schedule 0, segment 0\): matrix has eigenvalue -?1\.000e\+300"
    with pytest.raises(ValueError, match=first):
        propagate_many([Schedule(segments=(huge_phase,), device=device(0.1)),
                        Schedule(segments=(OVERFLOWING,), device=device(0.1))], KET_11)
    sched = Schedule(segments=(huge_phase, OVERFLOWING), device=device(0.1))
    with pytest.raises(ValueError, match=first):
        propagate(sched, KET_11)
    with pytest.raises(ValueError, match=r"^segment 0: dt=0\.01 is unstable"):
        propagate_rk4(sched, KET_11, dt=0.01)


def test_propagate_many_memory_is_bounded_by_its_chunk():
    # eight chunks of 4-segment schedules: above what the results retain,
    # the peak stays within 4 kB per segment of one chunk (about 1.6 kB is
    # used), where one stack of all eight chunks took about 1.6 kB per
    # segment of all of them
    rng = np.random.default_rng(19)
    count = 2 * capqubit.evolution._CHUNK
    schedules = [Schedule(segments=random_segments(rng, 4), device=device(d12=0.1))
                 for _ in range(count)]
    tracemalloc.start()
    try:
        results = propagate_many(schedules, KET_11)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == count
    assert peak - retained < 4096 * capqubit.evolution._CHUNK


@pytest.mark.parametrize("count", [1, 2, 4, 8])
def test_propagate_makes_one_eigendecomposition_per_schedule(eigh_calls, count):
    rng = np.random.default_rng(count)
    segs = [PulseSegment(float(rng.uniform(0.1, 2.0)), 0.3, -0.2, 0.5, 1.0)
            for _ in range(count)]
    propagate(Schedule(segments=segs, device=device(d12=0.1)), KET_11)
    assert eigh_calls == [(count, 4, 4)]


def test_propagate_rejects_unnormalized_state():
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    sched = Schedule(segments=(seg,), device=device())
    with pytest.raises(ValueError) as err:
        propagate(sched, np.array([1.0, 1.0, 0.0, 0.0]))
    assert "norm" in str(err.value)
    with pytest.raises(ValueError):
        propagate(sched, np.zeros(3))


@pytest.mark.parametrize("evolve", [propagate, lambda s, psi: propagate_rk4(s, psi, 0.01)],
                         ids=["propagate", "propagate_rk4"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "imag-nan"])
def test_non_finite_initial_state_is_rejected_naming_its_entry(evolve, bad):
    # a NaN norm fails no inequality, so the normalization test alone
    # would let this state through and print NaN amplitudes
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    sched = Schedule(segments=(seg,), device=device())
    with pytest.raises(ValueError, match="initial state entry 2 is not finite"):
        evolve(sched, np.array([1.0, bad, 0.0, 0.0]))


def test_rk4_zero_hamiltonian_is_exact():
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    sched = Schedule(segments=(seg,), device=device())
    psi = propagate_rk4(sched, KET_11, dt=0.01)
    assert np.array_equal(psi, KET_11)


def test_rk4_rabi_accuracy():
    t = math.pi / 4.0
    seg = PulseSegment(duration=t, delta1=0.0, delta2=0.0, a1=0.0, a2=1.0)
    sched = Schedule(segments=(seg,), device=device())
    psi = propagate_rk4(sched, KET_11, dt=t / 1e4)
    expected = np.array([math.cos(t), -1j * math.sin(t), 0.0, 0.0])
    assert np.max(np.abs(psi - expected)) <= RK4_RABI_TOL


def test_rk4_matches_exact_on_random_schedules():
    # Dual-route check: the diagonalization evolver and the integrator share
    # no code path past the Hamiltonian builder.
    rng = np.random.default_rng(109)
    cases = []
    for _ in range(5):
        sched = random_schedule(rng, device_d12=float(rng.uniform(-0.5, 0.5)))
        cases.append((sched, random_state(rng)))
    assert checks.rk4_state_error(cases) <= checks.RK4_TOL


def test_rk4_state_error_makes_one_eigendecomposition_for_all_cases(eigh_calls):
    # the exact side is one propagate_many call, and its total propagators
    # applied to each case's state give propagate's final states bit for bit,
    # so the check reads the same float as a per-case loop
    rng = np.random.default_rng(111)
    cases = [(random_schedule(rng, device_d12=float(rng.uniform(-0.5, 0.5))),
              random_state(rng)) for _ in range(4)]
    worst = checks.rk4_state_error(cases)
    assert eigh_calls == [(sum(len(s.segments) for s, _ in cases), 4, 4)]
    assert worst == max(
        float(np.linalg.norm(propagate(s, psi0).final_state - propagate_rk4(
            s, psi0, s.total_duration / checks.RK4_STEPS))) for s, psi0 in cases)
    assert checks.rk4_state_error([]) == 0.0


def stepwise_rk4(schedule, psi0, dt):
    """Reference: the same RK4 step matrix applied one step at a time."""
    psi = np.asarray(psi0, dtype=complex)
    for seg in schedule.segments:
        m = -1j * segment_hamiltonian(seg, schedule.device)
        n_steps = max(1, math.ceil(seg.duration / dt - 1e-12))
        step = _rk4_step_matrix(m, dt)
        for _ in range(n_steps - 1):
            psi = step @ psi
        psi = _rk4_step_matrix(m, seg.duration - (n_steps - 1) * dt) @ psi
    return psi


def test_rk4_squaring_is_the_stepwise_integrator():
    # Repeated squaring and stepping round each of their ~1e3 4x4 products
    # differently, so they part by about 1e3 * eps ~ 1e-13 (2.6e-14 measured
    # over 20 draws).  A changed step matrix or step count moves the state by
    # O(dt ||H||) ~ 1e-2 instead, far above the tolerance.
    rng = np.random.default_rng(110)
    for _ in range(5):
        sched = random_schedule(rng, device_d12=float(rng.uniform(-0.5, 0.5)))
        psi0 = random_state(rng)
        dt = sched.total_duration / 1e3
        assert np.max(np.abs(propagate_rk4(sched, psi0, dt)
                             - stepwise_rk4(sched, psi0, dt))) <= SQUARING_TOL


@pytest.mark.parametrize("durations", [(0.1, 3.0), (3.0, 0.1), (0.1, 3.0, 1.27, 0.55)])
def test_rk4_segments_of_different_step_counts_are_the_stepwise_integrator(durations):
    # at dt = 0.01 the segments take 10, 300, 127 and 55 steps, so their
    # exponents n - 1 have different bit lengths and set bits: a power table
    # indexed by the wrong segment or cut at the first segment's bit length
    # moves the state by O(1)
    rng = np.random.default_rng(112)
    segs = tuple(PulseSegment(duration=t, delta1=float(rng.uniform(-2.0, 2.0)),
                              delta2=float(rng.uniform(-2.0, 2.0)),
                              a1=float(rng.uniform(0.0, 2.0)), a2=float(rng.uniform(0.0, 2.0)))
                 for t in durations)
    sched = Schedule(segments=segs, device=device(d12=0.3))
    psi0 = random_state(rng)
    assert np.max(np.abs(propagate_rk4(sched, psi0, 0.01)
                         - stepwise_rk4(sched, psi0, 0.01))) <= SQUARING_TOL


def test_rk4_builds_every_step_matrix_in_one_stacked_call(monkeypatch):
    # each segment's full step dt and its partial last step, 2N matrices
    calls = []
    step_matrix = capqubit.evolution._rk4_step_matrix

    def recorded(m, h):
        calls.append((np.shape(m), np.shape(h)))
        return step_matrix(m, h)

    monkeypatch.setattr(capqubit.evolution, "_rk4_step_matrix", recorded)
    rng = np.random.default_rng(113)
    sched = random_schedule(rng, device_d12=0.2)
    propagate_rk4(sched, KET_11, sched.total_duration / 1e3)
    n = len(sched.segments)
    assert calls == [((2 * n, 4, 4), (2 * n,))]


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 10))
def test_stacked_rk4_step_matrix_equals_per_matrix_calls_bit_for_bit(seed, count):
    # one step per matrix, and one step shared by the stack
    rng = np.random.default_rng(seed)
    ms = np.array([-1j * segment_hamiltonian(seg, device(float(rng.uniform(-0.5, 0.5))))
                   for seg in random_segments(rng, count)]) * 10.0 ** rng.uniform(-3.0, 3.0)
    hs = rng.uniform(0.0, 1e-2, count)
    stacked = _rk4_step_matrix(ms, hs)
    shared = _rk4_step_matrix(ms, float(hs[0]))
    for k in range(count):
        assert stacked[k].tobytes() == _rk4_step_matrix(ms[k], float(hs[k])).tobytes()
        assert shared[k].tobytes() == _rk4_step_matrix(ms[k], float(hs[0])).tobytes()


def test_rk4_never_calls_expm_unitary(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("expm_unitary called")

    monkeypatch.setattr(capqubit.evolution, "expm_unitary", forbidden)
    monkeypatch.setattr(capqubit.linalg, "expm_unitary", forbidden)
    t = math.pi / 4.0
    sched = Schedule(segments=(PulseSegment(t, 0.0, 0.0, 0.0, 1.0),), device=device())
    with pytest.raises(AssertionError, match="expm_unitary called"):
        propagate(sched, KET_11)
    psi = propagate_rk4(sched, KET_11, dt=t / 1e4)
    expected = np.array([math.cos(t), -1j * math.sin(t), 0.0, 0.0])
    assert np.max(np.abs(psi - expected)) <= RK4_RABI_TOL


@pytest.mark.parametrize("d1, dt", [(1e200, 0.01), (2.5, 0.9)])
def test_rk4_refuses_an_unstable_step_naming_the_segment(d1, dt):
    # delta1 = 1e200 used to return a NaN state after overflow warnings.  At
    # d1 = 2.5 the second segment's largest row sum of |H| is 3.6, so dt = 0.9
    # gives 3.24 > 2 sqrt(2), while the first segment's 1.1 gives 0.99
    calm = PulseSegment(duration=10.0, delta1=0.0, delta2=0.0, a1=0.0, a2=1.0)
    wild = PulseSegment(duration=10.0, delta1=d1, delta2=0.0, a1=0.0, a2=1.0)
    sched = Schedule(segments=(calm, wild), device=device(0.1))
    with pytest.raises(ValueError, match=r"segment 1: dt=.* is unstable: dt \* max row sum"
                                         r" \|H\| = .* exceeds RK4's limit 2\*sqrt\(2\)"):
        propagate_rk4(sched, KET_11, dt=dt)


def test_rk4_refuses_an_unstable_segment_before_building_the_next():
    # segment 1's Hamiltonian cannot be built, but segment 0 is checked
    # first: its largest row sum of |H| is 3.6, so dt = 0.9 gives 3.24
    wild = PulseSegment(duration=10.0, delta1=2.5, delta2=0.0, a1=0.0, a2=1.0)
    overflowing = PulseSegment(duration=10.0, delta1=1e308, delta2=1e308, a1=0.0, a2=0.0)
    sched = Schedule(segments=(wild, overflowing), device=device(0.1))
    with pytest.raises(ValueError, match=r"^segment 0: dt=0\.9 is unstable"):
        propagate_rk4(sched, KET_11, dt=0.9)
    with pytest.raises(ValueError, match="segment 1: " + ENTRY_OVERFLOWS):
        propagate_rk4(sched, KET_11, dt=0.01)


def test_rk4_names_an_unbuildable_segment_before_a_later_unstable_one():
    # the mirror case: segment 0's Hamiltonian cannot be built and segment 1
    # is unstable at dt = 0.9, so the error names segment 0's entry
    wild = PulseSegment(duration=10.0, delta1=2.5, delta2=0.0, a1=0.0, a2=1.0)
    overflowing = PulseSegment(duration=10.0, delta1=1e308, delta2=1e308, a1=0.0, a2=0.0)
    sched = Schedule(segments=(overflowing, wild), device=device(0.1))
    with pytest.raises(ValueError, match="^segment 0: " + ENTRY_OVERFLOWS):
        propagate_rk4(sched, KET_11, dt=0.9)


def test_rk4_accepts_the_step_at_its_stability_limit():
    # a lone a2 drive: every row sum of |H| is a2, and at dt * a2 = 2 sqrt(2)
    # (rounded down) the RK4 step's amplification is 1, not above it
    dt = 0.25
    a2 = np.nextafter(2.0 * math.sqrt(2.0) / dt, 0.0)
    seg = PulseSegment(duration=10.0 * dt, delta1=0.0, delta2=0.0, a1=0.0, a2=float(a2))
    psi = propagate_rk4(Schedule(segments=(seg,), device=device()), KET_11, dt=dt)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_rk4_accepts_the_corner_of_criterion_3s_family():
    # the random schedules of criterion 3 and of the benchmark's RK4
    # cross-check have at most 5 segments of duration <= 3 with |delta_i| <= 2,
    # a_i <= 2 and |Delta_12| <= 0.5, stepped at dt = T / 1e5: every row sum
    # of |H| is at most 2 + 2 + 0.5 + 2 + 2 = 8.5 and dt at most 1.5e-4, so dt
    # times the row sum stays below 1.3e-3, far inside 2 sqrt(2).  This
    # schedule sits on that corner.  (Their gated CNOTs, and verify's, reach
    # 1.3e-3 at ratio 0.05; criterion 3 runs those itself.)
    seg = PulseSegment(duration=3.0, delta1=2.0, delta2=2.0, a1=2.0, a2=2.0)
    sched = Schedule(segments=(seg,) * 5, device=device(0.5))
    psi = propagate_rk4(sched, KET_11, sched.total_duration / checks.RK4_STEPS)
    assert np.linalg.norm(psi - propagate(sched, KET_11).final_state) <= checks.RK4_TOL


def test_rk4_rejects_bad_steps():
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=1.0)
    sched = Schedule(segments=(seg,), device=device())
    with pytest.raises(ValueError):
        propagate_rk4(sched, KET_11, dt=0.0)
    with pytest.raises(ValueError):
        propagate_rk4(sched, KET_11, dt=-0.1)
    with pytest.raises(ValueError) as err:
        propagate_rk4(sched, KET_11, dt=0.5)
    message = str(err.value)
    assert "0.5" in message and "0.1" in message
