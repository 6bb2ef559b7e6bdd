"""Tests for the pulse-schedule compiler: rotations, phase blocks, the CNOT
sequence, ledger bookkeeping and schedule-level composition."""

import dataclasses
import math

import numpy as np
import pytest

from capqubit import checks
from capqubit.evolution import PulseSegment, Schedule, propagate
from capqubit.hamiltonian import DeviceParams, QubitParams
from capqubit.linalg import distance_up_to_global_phase, wrap_angle
from capqubit.pulsecompiler import (
    CompilationError,
    CompiledGate,
    GateSpec,
    PhaseLedger,
    compile_cnot,
    compile_cnot_gates,
    compile_phase_block,
    compile_schedule,
    compile_x_rotation,
    compile_y_rotation,
    compile_z_rotation,
    ideal_composition,
    ideal_gate,
    ledger_discharge_unitary,
    verify_schedule,
)

HALF_PI = math.pi / 2.0
EXACT_TOL = 1e-12  # constructions that are exact up to roundoff
# Physical distance of one gated gate per unit |ratio|, reached by an x pulse
# of nearly 2 pi: the coupling cannot be gated off while a pulse runs.
GATED_GATE_DISTANCE_PER_RATIO = math.pi / math.sqrt(2.0)
KET_11 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def device(d12, a=1.0, d1=0.0, d2=0.0):
    return DeviceParams(
        q1=QubitParams(delta=d1, a=a),
        q2=QubitParams(delta=d2, a=a),
        delta12=d12,
    )


def propagated(segments, dev):
    return propagate(
        Schedule(segments=tuple(segments), device=dev), KET_11
    ).total_propagator


def requested_product(specs):
    """Ideal target of a gate list: later gates act on the left."""
    u = np.eye(4, dtype=complex)
    for spec in specs:
        u = ideal_gate(spec) @ u
    return u


# ---------------------------------------------------------------------------
# GateSpec and ideal gates
# ---------------------------------------------------------------------------

def test_gatespec_validation():
    with pytest.raises(ValueError):
        GateSpec("hadamard", 1, 0.5)
    with pytest.raises(ValueError):
        GateSpec("rx", None, 0.5)
    with pytest.raises(ValueError):
        GateSpec("rx", 3, 0.5)
    with pytest.raises(ValueError):
        GateSpec("rx", 1, float("nan"))
    with pytest.raises(ValueError):
        GateSpec("zz", 1, 0.5)
    with pytest.raises(ValueError):
        GateSpec("cnot", 1)
    with pytest.raises(ValueError):
        GateSpec("cnot", None, 0.3)
    assert GateSpec("RX", 1, 0.5).kind == "rx"  # kind is case-folded


def test_ideal_gate_zero_angle_is_identity():
    for kind in ("rx", "ry", "rz"):
        assert np.array_equal(ideal_gate(GateSpec(kind, 1, 0.0)), np.eye(4))
    assert np.array_equal(ideal_gate(GateSpec("zz", None, 0.0)), np.eye(4))


def test_ideal_cnot_permutes_target_on_excited_control():
    # basis order |1>|1>, |1>|0>, |0>|1>, |0>|0>: CNOT swaps the first two
    cnot = ideal_gate(GateSpec("cnot"))
    expected = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(cnot, expected)


def test_ideal_zz_diagonal():
    theta = 0.8
    u = ideal_gate(GateSpec("zz", None, theta))
    q = np.exp(-1j * theta / 2.0)
    expected = np.diag([q, q.conjugate(), q.conjugate(), q])
    assert np.max(np.abs(u - expected)) <= 1e-15


def test_ideal_rotation_embedding():
    # rx on qubit 1 acts as the 2x2 rotation tensored with identity
    theta = 0.7
    r = math.cos(theta / 2.0) * I2 - 1j * math.sin(theta / 2.0) * SX
    assert np.max(np.abs(ideal_gate(GateSpec("rx", 1, theta)) - np.kron(r, I2))) <= 1e-15
    assert np.max(np.abs(ideal_gate(GateSpec("rx", 2, theta)) - np.kron(I2, r))) <= 1e-15


def test_euler_identity_for_x_from_yz():
    # R_y(pi/2) R_z(pi/2) R_y(-pi/2) = R_x(pi/2) on the same qubit
    u = (
        ideal_gate(GateSpec("ry", 2, HALF_PI))
        @ ideal_gate(GateSpec("rz", 2, HALF_PI))
        @ ideal_gate(GateSpec("ry", 2, -HALF_PI))
    )
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI))) <= EXACT_TOL


# ---------------------------------------------------------------------------
# PhaseLedger
# ---------------------------------------------------------------------------

def test_ledger_request_arithmetic():
    led = PhaseLedger().request_z(1, 0.3)
    assert led.pending_z1 == -0.3
    assert led.pending_z2 == 0.0
    led = led.request_z(1, -0.1).request_z(2, 0.5)
    assert led.pending_z1 == pytest.approx(-0.2, abs=1e-16)
    assert led.pending_z2 == -0.5


def test_ledger_wrapped_pending_combines_content_and_surplus():
    led = PhaseLedger(pending_z1=HALF_PI, surplus_z1=HALF_PI)
    assert led.wrapped_pending(1) == pytest.approx(math.pi, abs=1e-15)
    led = PhaseLedger(pending_z2=5.0 * math.pi)
    assert led.wrapped_pending(2) == pytest.approx(math.pi, abs=1e-12)


def test_ledger_neutrality_is_per_stream():
    assert PhaseLedger().is_phase_neutral
    assert PhaseLedger(pending_z1=2.0 * math.pi).is_phase_neutral
    # content and surplus cancelling in the sum is NOT neutrality: each
    # stream must be a 2 pi multiple on its own
    mixed = PhaseLedger(pending_z1=math.pi, surplus_z1=math.pi)
    assert mixed.wrapped_pending(1) == 0.0
    assert not mixed.is_phase_neutral
    assert not PhaseLedger(pending_zz=0.5).is_phase_neutral


def test_ledger_is_immutable():
    led = PhaseLedger()
    with pytest.raises(dataclasses.FrozenInstanceError):
        led.pending_z1 = 1.0


def test_ledger_rejects_bad_values():
    with pytest.raises(ValueError):
        PhaseLedger(pending_z1=float("nan"))
    with pytest.raises(ValueError):
        PhaseLedger().request_z(3, 0.1)


def test_discharge_unitary_covers_content_only():
    led = PhaseLedger(pending_z1=-0.4, surplus_z1=0.9, pending_zz=0.3)
    u = ledger_discharge_unitary(led)
    # equals R_z(0.4) on qubit 1: surplus and zz streams are compensation,
    # not gate content, and stay out of the ideal layer
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rz", 1, 0.4))) <= EXACT_TOL


# ---------------------------------------------------------------------------
# x rotations
# ---------------------------------------------------------------------------

def test_x_rotation_gated_duration_and_exactness():
    g = compile_x_rotation(2, HALF_PI, device(0.0), "gated")
    assert len(g.segments) == 1
    seg = g.segments[0]
    assert seg.duration == math.pi / 4.0
    assert seg.a2 == 1.0 and seg.a1 == 0.0
    assert seg.delta1 == 0.0 and seg.delta2 == 0.0
    u = propagated(g.segments, device(0.0))
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI))) <= EXACT_TOL


def test_x_rotation_negative_angle_wraps_duration():
    g = compile_x_rotation(2, -HALF_PI, device(0.0), "gated")
    assert g.segments[0].duration == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)
    g = compile_x_rotation(1, 2.0 * math.pi, device(0.0), "gated")
    assert g.segments[0].duration == pytest.approx(math.pi, abs=1e-15)


def test_x_rotation_zero_angle_is_free():
    led = PhaseLedger(pending_z1=0.2)
    g = compile_x_rotation(1, 0.0, device(0.1), "gated", led)
    assert g.segments == ()
    assert g.ledger_after == led
    assert np.array_equal(g.intended_unitary, np.eye(4))


def test_x_rotation_coupling_error_is_first_order():
    # with the coupling on, a bare pulse picks up O(Delta12 * t) phase error
    g = compile_x_rotation(2, HALF_PI, device(0.01), "gated")
    u = propagated(g.segments, device(0.01))
    d = distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI)))
    assert 1e-3 < d < 5e-2


def test_x_rotation_books_coupling_surplus_gated():
    d12 = 0.08
    g = compile_x_rotation(2, HALF_PI, device(d12), "gated")
    t = g.segments[0].duration
    surplus = d12 * t / 2.0
    led = g.ledger_after
    assert led.surplus_z1 == surplus
    assert led.surplus_z2 == surplus
    assert led.pending_zz == surplus
    assert led.pending_z1 == 0.0 and led.pending_z2 == 0.0  # no gate content


def test_x_rotation_always_on_parks_spectator():
    g = compile_x_rotation(2, HALF_PI, device(0.05), "always_on")
    seg = g.segments[0]
    assert seg.a1 == 1.0 and seg.a2 == 1.0  # spectator drive stays on
    assert seg.delta2 == 0.0  # driven qubit resonant
    assert abs(seg.delta1) >= 10.0  # parked far off resonance
    # full-cycle parking nulls the spectator's surplus; only the driven
    # qubit books coupling phase
    assert g.ledger_after.surplus_z1 == 0.0
    assert g.ledger_after.surplus_z2 != 0.0


def test_x_rotation_always_on_exact_at_zero_coupling():
    g = compile_x_rotation(2, HALF_PI, device(0.0), "always_on")
    u = propagated(g.segments, device(0.0))
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI))) <= EXACT_TOL


def test_x_rotation_always_on_accuracy_with_coupling():
    g = compile_x_rotation(2, HALF_PI, device(0.05), "always_on")
    u = propagated(g.segments, device(0.05))
    d = distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI)))
    assert d < 0.1


def test_x_rotation_errors():
    with pytest.raises(CompilationError):
        compile_x_rotation(1, 2.0 * math.pi + 0.1, device(0.0), "gated")
    with pytest.raises(CompilationError):
        compile_x_rotation(1, -2.0 * math.pi, device(0.0), "gated")
    with pytest.raises(CompilationError):
        compile_x_rotation(1, HALF_PI, device(0.0, a=0.0), "gated")
    with pytest.raises(ValueError):
        compile_x_rotation(1, HALF_PI, device(0.0), "pulsed")


def test_always_on_x_rotation_too_short_to_park_raises_compilation_error():
    # A pulse of 5e-161 would need a spectator detuning of ~6e160, whose
    # square overflows: a named CompilationError, not a non-finite segment.
    with pytest.raises(CompilationError, match="too short to park"):
        compile_x_rotation(1, 1e-160, device(0.5), "always_on")
    assert compile_x_rotation(1, 1e-150, device(0.5), "always_on").segments


# ---------------------------------------------------------------------------
# y and z rotations
# ---------------------------------------------------------------------------

def test_y_rotation_settles_its_bracket_before_the_pulse():
    # The leading virtual-z bracket must act before the drive: a settle
    # block delivers it, then the x pulse runs.  The trailing bracket stays
    # pending; a closing block delivers it, and the whole is physically R_y
    # to within one gated gate's coupling error, on both coupling signs.
    ry = ideal_gate(GateSpec("ry", 2, HALF_PI))
    for d12 in (0.05, -0.05):
        dev = device(d12)
        g = compile_y_rotation(2, HALF_PI, dev, "gated")
        block, pulse = g.segments
        assert block.a1 == block.a2 == 0.0
        assert pulse.a2 > 0.0 and pulse.label.startswith("rx(q2,")
        assert g.ledger_after.pending_z2 == -HALF_PI
        owed = ledger_discharge_unitary(g.ledger_after)
        assert distance_up_to_global_phase(owed @ g.intended_unitary, ry) <= checks.COMPOSITION_TOL
        closing = compile_phase_block(0.0, 0.0, 0.0, dev, "gated", g.ledger_after)
        u = propagated(g.segments + closing.segments, dev)
        assert distance_up_to_global_phase(u, ry) <= GATED_GATE_DISTANCE_PER_RATIO * abs(d12)


def test_y_rotation_bracket_composition_oracle():
    # the virtual-z decomposition R_z(pi/2) U_x R_z(-pi/2) = R_y at zero
    # coupling, where U_x is the x-rotation core evolved exactly
    for theta in (HALF_PI, -1.1, 2.8):
        g = compile_x_rotation(2, theta, device(0.0), "gated")
        core = propagated(g.segments, device(0.0))
        u = (
            ideal_gate(GateSpec("rz", 2, HALF_PI))
            @ core
            @ ideal_gate(GateSpec("rz", 2, -HALF_PI))
        )
        assert distance_up_to_global_phase(u, ideal_gate(GateSpec("ry", 2, theta))) <= EXACT_TOL


def test_z_rotation_is_virtual():
    g = compile_z_rotation(1, 0.8)
    assert g.segments == ()
    assert np.array_equal(g.intended_unitary, np.eye(4))
    assert g.ledger_after.pending_z1 == -0.8
    with pytest.raises(ValueError):
        compile_z_rotation(3, 0.1)


@pytest.mark.parametrize(
    "spec",
    [
        GateSpec("rz", 1, 0.8),
        GateSpec("rx", 2, HALF_PI),
        GateSpec("ry", 1, -1.1),
        GateSpec("zz", None, 0.6),
    ],
)
def test_per_gate_discharge_reproduces_ideal(spec):
    # Compiling one gate from a fresh ledger, then discharging what it left
    # pending, must reproduce the requested ideal exactly -- at any coupling.
    dev = device(0.05)
    if spec.kind == "rz":
        g = compile_z_rotation(spec.qubit, spec.angle)
    elif spec.kind == "rx":
        g = compile_x_rotation(spec.qubit, spec.angle, dev, "gated")
    elif spec.kind == "ry":
        g = compile_y_rotation(spec.qubit, spec.angle, dev, "gated")
    else:
        g = compile_phase_block(0.0, 0.0, spec.angle, dev, "gated")
    u = ledger_discharge_unitary(g.ledger_after) @ g.intended_unitary
    assert distance_up_to_global_phase(u, ideal_gate(spec)) <= checks.COMPOSITION_TOL


# ---------------------------------------------------------------------------
# phase blocks
# ---------------------------------------------------------------------------

def test_phase_block_worked_example():
    # block(-pi/2, +pi/2, +pi/2) at Delta12 = 0.25, empty ledger, gated:
    # zz remainder pi/2 fixes t = 2 (pi/2) / 0.25 = 4 pi, and the detunings
    # solve theta_i = (2 Delta_i + Delta12/2) t exactly.
    dev = device(0.25)
    g = compile_phase_block(-HALF_PI, HALF_PI, HALF_PI, dev, "gated")
    assert len(g.segments) == 1
    seg = g.segments[0]
    assert seg.duration == 4.0 * math.pi
    assert seg.a1 == 0.0 and seg.a2 == 0.0
    assert seg.delta1 == -0.125
    assert seg.delta2 == 0.0
    u = propagated(g.segments, dev)
    # drives are off, so the propagator is diagonal with these exact phases
    assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0.0
    expected = np.array([-HALF_PI, HALF_PI, -HALF_PI, -HALF_PI])
    assert np.max(np.abs(np.angle(np.diag(u)) - expected)) <= EXACT_TOL


def test_phase_block_matches_ideal_triple():
    # spec invariant: the delivered block equals R_z1 R_z2 U_zz up to a
    # global phase, to roundoff
    rng = np.random.default_rng(211)
    for _ in range(25):
        th1, th2, thzz = rng.uniform(-math.pi, math.pi, 3)
        d12 = float(rng.choice([0.25, -0.1, 0.04]))
        dev = device(d12)
        g = compile_phase_block(th1, th2, thzz, dev, "gated")
        u = propagated(g.segments, dev)
        ideal = (
            ideal_gate(GateSpec("rz", 1, th1))
            @ ideal_gate(GateSpec("rz", 2, th2))
            @ ideal_gate(GateSpec("zz", None, thzz))
        )
        assert distance_up_to_global_phase(u, ideal) <= EXACT_TOL
        assert g.ledger_after.is_phase_neutral


def test_phase_block_absorbs_pending_phase():
    # a block delivers requested angles MINUS what the ledger already owes
    dev = device(0.25)
    led = PhaseLedger().request_z(1, 0.9)  # owes R_z(0.9) on qubit 1
    g = compile_phase_block(0.0, 0.0, HALF_PI, dev, "gated", led)
    u = propagated(g.segments, dev)
    ideal = ideal_gate(GateSpec("rz", 1, 0.9)) @ ideal_gate(GateSpec("zz", None, HALF_PI))
    assert distance_up_to_global_phase(u, ideal) <= EXACT_TOL
    assert g.ledger_after.is_phase_neutral


def test_phase_block_pure_z_promotes_full_cycle():
    # zero zz remainder is promoted to a full 2 pi coupling cycle so the
    # segment keeps a positive duration
    dev = device(0.25)
    g = compile_phase_block(HALF_PI, 0.0, 0.0, dev, "gated")
    assert g.segments[0].duration == 16.0 * math.pi
    u = propagated(g.segments, dev)
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rz", 1, HALF_PI))) <= EXACT_TOL


def test_phase_block_trivial_when_nothing_requested():
    g = compile_phase_block(0.0, 0.0, 0.0, device(0.25), "gated")
    assert g.segments == ()
    assert np.array_equal(g.intended_unitary, np.eye(4))


def test_phase_block_negative_coupling():
    dev = device(-0.2)
    g = compile_phase_block(0.3, -0.7, 1.1, dev, "gated")
    u = propagated(g.segments, dev)
    ideal = (
        ideal_gate(GateSpec("rz", 1, 0.3))
        @ ideal_gate(GateSpec("rz", 2, -0.7))
        @ ideal_gate(GateSpec("zz", None, 1.1))
    )
    assert distance_up_to_global_phase(u, ideal) <= EXACT_TOL


def test_phase_block_requires_coupling():
    with pytest.raises(CompilationError) as err:
        compile_phase_block(0.0, 0.0, HALF_PI, device(0.0), "gated")
    assert "coupling" in str(err.value)


def test_phase_block_always_on_structure():
    # with drives always on the block parks both qubits far off resonance;
    # flips are capped, and the control-excited branch phase (the one the
    # CNOT sequence uses) is delivered to the solver's accuracy
    dev = device(0.05)
    g = compile_phase_block(-HALF_PI, HALF_PI, HALF_PI, dev, "always_on")
    seg = g.segments[0]
    assert seg.a1 == 1.0 and seg.a2 == 1.0
    assert abs(seg.delta1) >= 10.0 and abs(seg.delta2) >= 10.0
    u = propagated(g.segments, dev)
    off = u - np.diag(np.diag(u))
    assert np.max(np.abs(off)) <= 0.05
    ideal = (
        ideal_gate(GateSpec("rz", 1, -HALF_PI))
        @ ideal_gate(GateSpec("rz", 2, HALF_PI))
        @ ideal_gate(GateSpec("zz", None, HALF_PI))
    )
    rel_phys = np.angle(u[0, 0] * np.conj(u[1, 1]))
    rel_ideal = np.angle(ideal[0, 0] * np.conj(ideal[1, 1]))
    assert abs(wrap_angle(rel_phys - rel_ideal)) <= 5e-3


# ---------------------------------------------------------------------------
# CNOT sequence
# ---------------------------------------------------------------------------

def test_cnot_gates_structure():
    gates = compile_cnot_gates(device(0.1), "gated")
    assert len(gates) == 4
    for g in gates:
        assert isinstance(g, CompiledGate)
        assert len(g.segments) == 1
    # x(-pi/2), block, x(+pi/2), block with the documented durations
    assert gates[0].segments[0].duration == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)
    assert gates[2].segments[0].duration == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert gates[1].segments[0].a1 == 0.0 and gates[1].segments[0].a2 == 0.0
    assert gates[3].ledger_after.is_phase_neutral


def test_cnot_ideal_composition():
    for d12 in (0.001, 0.05, 0.3):
        gates = compile_cnot_gates(device(d12), "gated")
        u = ideal_composition(gates)
        assert distance_up_to_global_phase(u, ideal_gate(GateSpec("cnot"))) <= checks.COMPOSITION_TOL


def test_cnot_errors():
    with pytest.raises(CompilationError):
        compile_cnot_gates(device(0.0), "gated")
    with pytest.raises(CompilationError):
        compile_cnot_gates(device(0.1, a=0.0), "gated")


def test_cnot_verify_weak_coupling():
    dev = device(1e-3)
    schedule = compile_cnot(dev, "gated")
    report = verify_schedule(schedule, ideal_gate(GateSpec("cnot")), tol=0.01)
    assert report["pass"]
    assert 1e-4 < report["distance"] < 5e-3
    # the sequence realizes CNOT up to the documented pi/4 global phase
    assert report["phase_offset"] == pytest.approx(math.pi / 4.0, abs=1e-5)


def test_cnot_verify_against_wrong_target():
    dev = device(1e-3)
    schedule = compile_cnot(dev, "gated")
    report = verify_schedule(schedule, np.eye(4), tol=0.01)
    assert not report["pass"]
    assert report["distance"] > 1.9  # CNOT vs identity is distance 2


def test_cnot_distance_shrinks_with_coupling():
    cnot = ideal_gate(GateSpec("cnot"))
    distances = []
    for ratio in (0.1, 0.03, 0.01, 0.003, 0.001):
        schedule = compile_cnot(device(ratio), "gated")
        distances.append(verify_schedule(schedule, cnot, tol=1.0)["distance"])
    assert distances[0] < 0.2
    assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))


def test_cnot_always_on_compiles_and_tracks_target_component():
    # always-on mode still flips the target on the excited-control branch
    dev = device(0.01)
    schedule = compile_cnot(dev, "always_on")
    result = propagate(schedule, KET_11)
    assert abs(result.final_state[1]) >= 0.99


def test_verify_schedule_input_checks():
    schedule = compile_cnot(device(0.01), "gated")
    with pytest.raises(ValueError):
        verify_schedule(schedule, np.eye(3), tol=0.1)
    with pytest.raises(ValueError):
        verify_schedule(schedule, 2.0 * np.eye(4), tol=0.1)
    with pytest.raises(ValueError):
        verify_schedule(schedule, np.eye(4), tol=float("nan"))


def test_verify_schedule_zero_hamiltonian_identity():
    seg = PulseSegment(duration=1.0, delta1=0.0, delta2=0.0, a1=0.0, a2=0.0)
    schedule = Schedule(segments=(seg,), device=device(0.0))
    report = verify_schedule(schedule, np.eye(4), tol=1e-12)
    assert report["pass"]
    assert report["distance"] <= 1e-14
    assert report["phase_offset"] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# schedule-level composition
# ---------------------------------------------------------------------------

def test_schedule_single_rz_delivers_physically():
    dev = device(0.05)
    schedule, compiled = compile_schedule([GateSpec("rz", 1, 0.8)], dev, "gated")
    # the rz itself is virtual; a closing block materializes it
    assert len(compiled) == 2
    assert compiled[0].segments == ()
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rz", 1, 0.8))) <= EXACT_TOL


def test_schedule_single_zz_delivers_physically():
    dev = device(0.05)
    schedule, _ = compile_schedule([GateSpec("zz", None, 0.9)], dev, "gated")
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("zz", None, 0.9))) <= EXACT_TOL


def test_schedule_ry_converges_to_ideal_at_vanishing_coupling():
    # the leading bracket settles in its own block, so the physical program
    # approaches the pure rotation as the coupling (and with it the block
    # error) vanishes
    dev = device(1e-11)
    schedule, _ = compile_schedule([GateSpec("ry", 2, HALF_PI)], dev, "gated")
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("ry", 2, HALF_PI))) <= 1e-10


def test_schedule_ry_inverse_pair_cancels():
    dev = device(1e-11)
    specs = [GateSpec("ry", 2, 0.7), GateSpec("ry", 2, -0.7)]
    schedule, _ = compile_schedule(specs, dev, "gated")
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, np.eye(4)) <= 1e-10


def test_schedule_inserts_discharge_before_drive():
    dev = device(0.05)
    _, compiled = compile_schedule(
        [GateSpec("rz", 1, 0.8), GateSpec("rx", 2, HALF_PI)], dev, "gated"
    )
    # rz (virtual), inserted settle block, the x pulse, closing block
    assert len(compiled) == 4
    assert compiled[0].segments == ()
    assert compiled[1].segments[0].a1 == 0.0 and compiled[1].segments[0].a2 == 0.0
    assert compiled[2].segments[0].a2 == 1.0


def test_schedule_neutral_ledger_adds_no_blocks():
    # +theta then -theta wipes the ledger bitwise, so compiling the pair
    # before a pulse leaves the exact same segment list as the pulse alone
    dev = device(0.05)
    specs = [GateSpec("rz", 1, 0.8), GateSpec("rz", 1, -0.8), GateSpec("rx", 2, HALF_PI)]
    with_pair, _ = compile_schedule(specs, dev, "gated")
    bare, _ = compile_schedule([GateSpec("rx", 2, HALF_PI)], dev, "gated")
    assert with_pair.segments == bare.segments


def test_schedule_ideal_composition_matches_request():
    # the composed intended unitaries of a compiled schedule equal the
    # product of the requested ideals -- at any coupling, to roundoff
    rng = np.random.default_rng(227)
    kinds = ("rx", "ry", "rz", "zz", "cnot")
    for _ in range(20):
        specs = []
        for _ in range(int(rng.integers(1, 6))):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            if kind == "cnot":
                specs.append(GateSpec("cnot"))
            elif kind == "zz":
                specs.append(GateSpec("zz", None, float(rng.uniform(-3.0, 3.0))))
            else:
                specs.append(
                    GateSpec(kind, int(rng.integers(1, 3)), float(rng.uniform(-3.0, 3.0)))
                )
        d12 = float(rng.uniform(0.005, 0.3))
        _, compiled = compile_schedule(specs, device(d12), "gated")
        u = ideal_composition(compiled)
        assert distance_up_to_global_phase(u, requested_product(specs)) <= EXACT_TOL


def test_schedule_physical_accuracy_weak_coupling():
    # at weak coupling the physical propagator tracks the requested product
    specs = [GateSpec("rx", 2, HALF_PI), GateSpec("rz", 1, 0.4), GateSpec("cnot")]
    dev = device(1e-3)
    schedule, _ = compile_schedule(specs, dev, "gated")
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, requested_product(specs)) <= 0.02


def test_schedule_rejects_bad_input():
    with pytest.raises(CompilationError):
        compile_schedule([], device(0.1), "gated")
    with pytest.raises(ValueError):
        compile_schedule(["cnot"], device(0.1), "gated")
    with pytest.raises(CompilationError):
        compile_schedule([GateSpec("rz", 1, 0.1), GateSpec("rz", 1, -0.1)], device(0.1), "gated")
