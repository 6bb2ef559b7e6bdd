"""Tests for the pulse-schedule compiler: rotations, phase blocks, the CNOT
sequence, ledger bookkeeping and schedule-level composition."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capqubit import checks, pulsecompiler
from capqubit.cli import _parse_gates
from capqubit.evolution import PulseSegment, Schedule, propagate
from capqubit.experiments import _sweep_device
from capqubit.hamiltonian import DeviceParams, QubitParams
from capqubit.linalg import distance_up_to_global_phase, expm_unitary, wrap_angle
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
    compile_z_rotation,
    ideal_composition,
    ideal_gate,
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


def reference_rotation_2x2(kind, angle):
    """R_n(angle) written out per kind as a 2x2 matrix, independent of the
    compiler's Pauli-string table."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * angle / 2.0), 0.0], [0.0, np.exp(1j * angle / 2.0)]])


def reference_ideal_gate(kind, qubit, angle):
    """A rotation embedded with kron, or the zz diagonal written out."""
    if kind == "zz":
        lo, hi = np.exp(-1j * angle / 2.0), np.exp(1j * angle / 2.0)
        return np.diag([lo, hi, hi, lo])
    r = reference_rotation_2x2(kind, angle)
    return np.kron(r, I2) if qubit == 1 else np.kron(I2, r)


def reference_block_unitary(theta_z1, theta_z2, theta_zz):
    """A phase block's unitary as the product of its three gates."""
    return (reference_ideal_gate("rz", 1, theta_z1) @ reference_ideal_gate("rz", 2, theta_z2)
            @ reference_ideal_gate("zz", None, theta_zz))


_gate_angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, exclude_min=True)


@settings(max_examples=300)
@given(kind_qubit=st.sampled_from([(k, q) for k in ("rx", "ry", "rz") for q in (1, 2)]
                                  + [("zz", None)]),
       angle=_gate_angles, block=st.tuples(_gate_angles, _gate_angles, _gate_angles))
def test_ideal_rotation_embedding(kind_qubit, angle, block):
    # every rotation and every phase block matches its 2x2-and-kron reference
    kind, qubit = kind_qubit
    u = ideal_gate(GateSpec(kind, qubit, angle))
    assert np.max(np.abs(u - reference_ideal_gate(kind, qubit, angle))) <= 1e-15
    u = pulsecompiler._block_unitary(*block)
    assert np.max(np.abs(u - reference_block_unitary(*block))) <= 1e-15


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


def test_ledger_neutrality_is_per_stream():
    assert PhaseLedger().is_phase_neutral
    assert PhaseLedger(pending_z1=2.0 * math.pi).is_phase_neutral
    # content and surplus cancelling in the sum is NOT neutrality: each
    # stream must be a 2 pi multiple on its own
    mixed = PhaseLedger(pending_z1=math.pi, surplus_z1=math.pi)
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


def test_closing_block_intends_content_only():
    led = PhaseLedger(pending_z1=-0.4, surplus_z1=0.9, pending_zz=0.3)
    g = compile_phase_block(0.0, 0.0, 0.0, device(0.05), "gated", led)
    # the block cancels all three streams physically, but it intends only
    # R_z(0.4) on qubit 1: surplus and zz streams are compensation, not gate
    # content, and stay out of the ideal layer
    assert g.segments
    assert distance_up_to_global_phase(
        g.intended_unitary, ideal_gate(GateSpec("rz", 1, 0.4))) <= EXACT_TOL


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
    # ry expands to rz(-pi/2), rx, rz(+pi/2).  The leading virtual-z bracket
    # must act before the drive: a settle block delivers it, then the x pulse
    # runs.  The trailing bracket stays pending; a closing block delivers it,
    # and the whole is physically R_y to within one gated gate's coupling
    # error, on both coupling signs.
    spec = GateSpec("ry", 2, HALF_PI)
    for d12 in (0.05, -0.05):
        dev = device(d12)
        schedule, compiled = compile_schedule([spec], dev, "gated")
        block, pulse, closing = schedule.segments
        assert block.a1 == block.a2 == 0.0
        assert pulse.a2 > 0.0 and pulse.label.startswith("rx(q2,")
        assert closing.a1 == closing.a2 == 0.0
        assert compiled[-2].ledger_after.pending_z2 == -HALF_PI
        assert checks.composition_error([spec], compiled) <= checks.COMPOSITION_TOL
        u = propagate(schedule, KET_11).total_propagator
        assert distance_up_to_global_phase(u, ideal_gate(spec)) <= GATED_GATE_DISTANCE_PER_RATIO * abs(d12)


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
    # pending in the closing block, must reproduce the requested ideal
    # exactly -- at any coupling.
    _, compiled = compile_schedule([spec], device(0.05), "gated")
    assert checks.composition_error([spec], compiled) <= checks.COMPOSITION_TOL


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


def test_phase_block_tiny_zz_remainder_takes_the_full_cycle():
    # a remainder below the roundoff floor is delivered like a zero one;
    # delivered on its own it would need t = 8.8e-184 and delta1 ~ 6e182
    dev = device(0.5)
    specs = [GateSpec("rz", 1, 1.0), GateSpec("zz", None, 2.2e-184)]
    schedule, _ = compile_schedule(specs, dev, "gated")
    (block,) = schedule.segments
    assert block.duration == 8.0 * math.pi
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, checks.ideal_product(specs)) <= EXACT_TOL


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
    for bad in (float("nan"), float("inf")):
        target = np.eye(4, dtype=complex)
        target[1, 2] = bad
        with pytest.raises(ValueError, match=r"target entry \(2,3\) is not finite"):
            verify_schedule(schedule, target, tol=0.1)


def test_compiled_gate_rejects_a_non_unitary_intended_unitary():
    for scale in (2.0, 1e200):
        with pytest.raises(ValueError, match="intended unitary fails unitarity"):
            CompiledGate((), scale * np.eye(4), PhaseLedger())
    with pytest.raises(ValueError, match=r"intended unitary entry \(1,1\) is not finite"):
        CompiledGate((), np.full((4, 4), np.nan), PhaseLedger())


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
        assert distance_up_to_global_phase(u, checks.ideal_product(specs)) <= EXACT_TOL


def test_schedule_physical_accuracy_weak_coupling():
    # at weak coupling the physical propagator tracks the requested product
    specs = [GateSpec("rx", 2, HALF_PI), GateSpec("rz", 1, 0.4), GateSpec("cnot")]
    dev = device(1e-3)
    schedule, _ = compile_schedule(specs, dev, "gated")
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, checks.ideal_product(specs)) <= 0.02


def test_schedule_rejects_bad_input():
    with pytest.raises(CompilationError):
        compile_schedule([], device(0.1), "gated")
    with pytest.raises(ValueError):
        compile_schedule(["cnot"], device(0.1), "gated")
    with pytest.raises(CompilationError):
        compile_schedule([GateSpec("rz", 1, 0.1), GateSpec("rz", 1, -0.1)], device(0.1), "gated")


# ---------------------------------------------------------------------------
# always-on parking physics
# ---------------------------------------------------------------------------
# A parked qubit evolves under D sigma_z + a sigma_x for a time t.  The draws
# span a in [0.1, 10], t in [0.1, 1e3] and D / a in [3, 1e3], log-uniform.

def parking_draws(seed, n=2000):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 10.0, n)
    t = 10.0 ** rng.uniform(-1.0, 3.0, n)
    d = a * 10.0 ** rng.uniform(math.log10(3.0), 3.0, n)
    return zip(a.tolist(), t.tolist(), d.tolist())


def test_unwrapped_phase_is_the_parked_z_angle():
    # F(D) mod 2 pi is the physical z angle -2 arg U_00 of the exact
    # two-level propagator (measured to 4.5e-16 relative to 1 + F)
    for a, t, d in parking_draws(241):
        f = pulsecompiler._phase_unwrapped(d, a, t)
        u = expm_unitary(np.array([[d, a], [a, -d]]), t)
        assert abs(wrap_angle(f + 2.0 * np.angle(u[0, 0]))) <= 1e-14 * (1.0 + f)


def test_unwrapped_phase_increases_where_the_bisection_runs():
    # dF/dD has the sign of D^2 Omega t + a^2 sin(Omega t) cos(Omega t), so F
    # strictly increases wherever D^2 Omega t >= a^2 / 2.  That covers every
    # D from the floor 10 a up once a t >= 5e-4; nearer D = 0, F falls
    # wherever tan(Omega t) < 0.
    rng = np.random.default_rng(251)
    for a, t in zip(rng.uniform(0.1, 10.0, 50), 10.0 ** rng.uniform(-1.0, 3.0, 50)):
        d = a * np.geomspace(1e-3, 1e3, 4000)
        d = d[d * d * np.hypot(d, a) * t >= a * a / 2.0]
        f = [pulsecompiler._phase_unwrapped(x, a, t) for x in d]
        assert np.all(np.diff(f) > 0.0)


def test_leakage_at_a_root_follows_from_its_angle():
    # every D is a root of F(D) = beta + 2 pi m for beta = F(D) mod 2 pi, and
    # there the flip probability is q / (1 + q) with q = (a sin(beta/2) / D)^2,
    # so the leak cap admits exactly |D| >= a |sin(beta/2)| sqrt(1/cap - 1)
    # (measured to a relative 2.7e-8)
    for a, t, d in parking_draws(257):
        beta = wrap_angle(pulsecompiler._phase_unwrapped(d, a, t))
        q = (a * math.sin(beta / 2.0) / d) ** 2
        assert abs(pulsecompiler._leakage(d, a, t) - q / (1.0 + q)) <= 1e-6 * q / (1.0 + q)


# ---------------------------------------------------------------------------
# always-on parking choices, pinned bit for bit
# ---------------------------------------------------------------------------
# Each segment is "duration delta1 delta2 a1 a2 label", floats as float.hex.
# The CNOTs are the sweep device's at ratios around the sweep, the recorded
# amplitude dip (0.0944975...) and a negative coupling; the list is the
# README's simulate example at d12 = 0.01 with a1 = 0.5.  Any change in which
# parking root, branch or candidate wins shows as a changed digit here.

PINNED_CNOTS = {
    0.001: (
        '0x1.2d97c7f3321d2p+1 0x1.53d2701743216p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.88679112ac741p+11 0x1.6713caa710a06p+4 0x1.f9b5dec85c0cdp+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.7ea806255aca1p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.8899d50954fc7p+11 0x1.6b496d367ca16p+4 0x1.f9b6a4bc64e77p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(0,1.571,1.571)',
    ),
    0.01: (
        '0x1.2d97c7f3321d2p+1 0x1.53c0017fb5d18p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.37cd960d6dcf7p+8 -0x1.b1bb91e9de853p+4 0x1.f99efa2fad143p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.7e95978dcd7a3p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.395fb5c2b2124p+8 0x1.884d04a52cae6p+4 0x1.f9a6d78f75557p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(0,1.571,1.571)',
    ),
    0.0944975075979777: (
        '0x1.2d97c7f3321d2p+1 0x1.5312f4783800fp+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.ee398b7de0312p+4 0x1.8764748f07252p+4 0x1.f6942d6595fb8p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.7de88a864fa9ap+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.03adc369122f2p+5 0x1.0d41f054fb49ep+5 -0x1.fa1ed8c62b1d2p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(0,1.571,1.571)',
    ),
    0.2336: (
        '0x1.2d97c7f3321d2p+1 0x1.51f612b3babbcp+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.62f4f9a61e0cap+3 0x1.05cb70420001ep+5 -0x1.e92442b302ef1p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.7ccba8c1d2647p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.9538f04ea666dp+3 0x1.a3d2ce34e5afdp+4 0x1.f7dcd165b6741p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(0,1.571,1.571)',
    ),
    0.5: (
        '0x1.2d97c7f3321d2p+1 0x1.7aaa126f15284p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.f6a7a2955385ep+1 0x1.e133333333333p+4 0x1.a619dd5223550p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.7aaa126f15284p+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.5fdbbe9bba775p+2 0x1.6bb6db6db6db7p+4 0x1.ed7513ae055a2p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(0,1.571,1.571)',
    ),
    -0.05: (
        '0x1.2d97c7f3321d2p+1 0x1.543ae2c763e5fp+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.74475ad031dc0p+7 -0x1.73fc53d2336a6p+4 0x1.f943f8d414242p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.7f1078d57b8eap+3 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.776b9a3aba619p+7 -0x1.b8d670aecef15p+4 0x1.fa1f9f9522708p+4 0x1.0000000000000p+0 0x1.0000000000000p+0 block(0,1.571,1.571)',
    ),
}
PINNED_LIST = {
    'gated': (
        '0x1.3a28c59d5433bp+10 -0x1.47ae147ae147bp-9 -0x1.999999999999ap-9 0x0.0p+0 0x0.0p+0 block(0,0,0)',
        '0x1.921fb54442d18p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.39f681a6abab5p+10 -0x1.47e28aa58b208p-9 -0x1.ebd3cff850b0cp-10 0x0.0p+0 0x0.0p+0 block(0,0,0)',
        '0x1.2d97c7f3321d2p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.37cd960d6dcf7p+8 -0x1.4a27fad76014ap-8 0x0.0p+0 0x0.0p+0 0x0.0p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.395fb5c2b2124p+8 -0x1.4880522014881p-9 0x0.0p+0 0x0.0p+0 0x0.0p+0 block(0,1.571,1.571)',
        '0x1.3a28c59d5433bp+10 -0x1.999999999999ap-9 -0x1.47ae147ae147bp-9 0x0.0p+0 0x0.0p+0 block(0,0,0)',
        '0x1.657184ae74487p+2 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0 rx(q1,-0.698132)',
        '0x1.38c35418a5bf6p+10 -0x1.c3ce77cdb15c4p-10 -0x1.4924924924925p-9 0x0.0p+0 0x0.0p+0 block(0,0,0)',
        '0x1.199999999999ap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,1.1)',
        '0x1.3a05926a21008p+10 -0x1.47d2cf9e39b2ep-9 -0x1.47d2cf9e39b2ep-9 0x0.0p+0 0x0.0p+0 block(0,0,0)',
    ),
    'always_on': (
        '0x1.3a28c59d5433bp+10 0x1.4028f5c28f5c2p+2 0x1.6583210bbb665p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,0,0)',
        '0x1.921fb54442d18p-1 0x1.fed6ca1d5c95cp+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.39f681a6abab5p+10 0x1.400a45a31a819p+2 0x1.641d16b7c9437p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,0,0)',
        '0x1.2d97c7f3321d2p+1 0x1.53ab869e6e236p+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.37cd960d6dcf7p+8 -0x1.cb48b63476c0cp+3 0x1.f99efa2fad143p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.fed6ca1d5c95cp+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.395fb5c2b2124p+8 0x1.83c50615188f9p+3 0x1.f9a6d78f75557p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,1.571,1.571)',
        '0x1.3a28c59d5433bp+10 -0x1.445c28f5c28f6p+2 0x1.419cdbdb15ae5p+3 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,0,0)',
        '0x1.657184ae74487p+2 0x0.0p+0 0x1.546b6d0fae128p+3 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q1,-0.698132)',
        '0x1.38c35418a5bf6p+10 0x1.44b179f3f0dbdp+2 0x1.419c080c9a05fp+3 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,0,0)',
        '0x1.199999999999ap-1 0x1.6c00fed4687c1p+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,1.1)',
        '0x1.3a05926a21008p+10 0x1.4023e357e8c3bp+2 0x1.41acad1c15dffp+3 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,0,0)',
    ),
}


def hex_segments(schedule):
    return tuple(
        " ".join([getattr(s, f).hex() for f in ("duration", "delta1", "delta2", "a1", "a2")]
                 + [s.label])
        for s in schedule.segments
    )


@pytest.mark.parametrize("ratio", sorted(PINNED_CNOTS))
def test_always_on_cnot_segments_are_pinned(ratio):
    schedule = compile_cnot(_sweep_device(ratio), "always_on")
    assert hex_segments(schedule) == PINNED_CNOTS[ratio]


@pytest.mark.parametrize("mode", sorted(PINNED_LIST))
def test_simulate_example_segments_are_pinned(mode):
    dev = DeviceParams(QubitParams(0.0, 0.5), QubitParams(0.0, 1.0), 0.01)
    specs = _parse_gates("ry2:90deg, cnot, ry1:-40deg, rz1:0.4, rx2:1.1")
    schedule, _ = compile_schedule(specs, dev, mode)
    assert hex_segments(schedule) == PINNED_LIST[mode]


def test_exact_parking_search_fails_fast_when_no_branch_is_admissible():
    # at ratio 1e-5 the block lasts t ~ 3e5, so the branches step Omega by
    # pi/t ~ 1e-5 and the searched ones all stay under the leakage radius
    start = time.perf_counter()
    with pytest.raises(CompilationError, match="no exact parking detuning"):
        compile_cnot(_sweep_device(1e-5), "always_on")
    assert time.perf_counter() - start < 1.0


def test_qubit_1_parking_search_fails_within_its_candidate_cap(monkeypatch):
    # with a1 = 1e5 every candidate up to the cap flips qubit 1 past _FLIP_CAP
    monkeypatch.setattr(pulsecompiler, "_K_MAX", 1000)
    dev = DeviceParams(QubitParams(0.0, 1e5), QubitParams(0.0, 1.0), 0.5)
    with pytest.raises(CompilationError, match="no admissible always-on parking for qubit 1"):
        compile_phase_block(0.3, 0.2, HALF_PI, dev, "always_on")


def test_qubit_1_parking_search_fails_fast_at_its_real_cap():
    # the same search at the real _K_MAX screens all 2e6 candidates (0.2 s
    # measured; the scalar walk took 4 s)
    dev = DeviceParams(QubitParams(0.0, 1e5), QubitParams(0.0, 1.0), 0.5)
    start = time.perf_counter()
    with pytest.raises(CompilationError, match="no admissible always-on parking for qubit 1"):
        compile_phase_block(0.3, 0.2, HALF_PI, dev, "always_on")
    assert time.perf_counter() - start < 1.0


def test_always_on_cnot_compiles_fast_at_weak_coupling():
    # at ratio 1e-3 the qubit-1 search screens about 3e4 candidates per block:
    # 8 ms measured, against 133-144 ms for a scalar walk over them
    times = []
    for _ in range(5):
        start = time.perf_counter()
        compile_cnot(_sweep_device(1e-3), "always_on")
        times.append(time.perf_counter() - start)
    assert sorted(times)[2] < 0.040


# ---------------------------------------------------------------------------
# the screened parking searches against the scalar walks they replace
# ---------------------------------------------------------------------------

def reference_exact_detuning(beta, a, t, shift):
    """Reference: qubit 2's search as a scalar walk that bisects every branch."""
    floor_abs = pulsecompiler._PARKING_FLOOR * a
    om_req = a * abs(math.sin(beta / 2.0)) / math.sqrt(pulsecompiler._LEAK_CAP)
    d_req = math.sqrt(max(om_req * om_req - a * a, 0.0)) * 0.999
    start = max(floor_abs + abs(shift) + 0.05 * a, d_req)
    f_start = pulsecompiler._phase_unwrapped(start, a, t)
    for i in range(pulsecompiler._MAX_PHASE_BRANCHES):
        for sign in (1.0, -1.0):
            y = sign * beta + 2.0 * math.pi * (
                math.ceil((f_start - sign * beta) / (2.0 * math.pi)) + i)
            om_lo = max((y - math.pi) / (2.0 * t), a)
            om_hi = (y + math.pi) / (2.0 * t)
            lo = max(start, math.sqrt(om_lo - a) * math.sqrt(om_lo + a))
            hi = math.sqrt(om_hi - a) * math.sqrt(om_hi + a)
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if pulsecompiler._phase_unwrapped(mid, a, t) < y:
                    lo = mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
            delta = sign * root - shift
            if (abs(delta) >= floor_abs
                    and pulsecompiler._leakage(sign * root, a, t) <= pulsecompiler._LEAK_CAP):
                return delta
    raise CompilationError(
        f"no exact parking detuning found (target angle {beta:.4f} rad, "
        f"duration {t:.4f}, floor {floor_abs:.4f}, leak cap {pulsecompiler._LEAK_CAP:g})"
    )


def reference_control_parking(theta, a, t, d12, delta2, sep):
    """Reference: qubit 1's search as a scalar walk over every candidate k."""
    shift = d12 / 4.0
    floor_abs = pulsecompiler._PARKING_FLOOR * a
    cap = pulsecompiler._FLIP_CAP
    k_up = math.ceil(((floor_abs + shift) * 2.0 * t - theta) / (2.0 * math.pi))
    k_down = math.floor(((-floor_abs + shift) * 2.0 * t - theta) / (2.0 * math.pi))
    for i in range(pulsecompiler._K_MAX):
        for k in (k_up + i, k_down - i):
            delta = (theta + 2.0 * math.pi * k) / (2.0 * t) - shift
            if (abs(delta) >= floor_abs
                    and pulsecompiler._leakage(delta, a, t) <= cap
                    and pulsecompiler._leakage(delta + d12 / 2.0, a, t) <= cap
                    and abs(delta - delta2) >= sep and abs(delta + delta2) >= sep):
                return delta
    raise CompilationError(
        f"no admissible always-on parking for qubit 1 within "
        f"k <= {pulsecompiler._K_MAX} (theta {theta:.4f} rad, duration {t:.4f}, "
        f"floor {floor_abs:.4f})"
    )


def search_outcome(search, *args):
    """The detuning a search returns, as float.hex, or its error message."""
    try:
        return search(*args).hex()
    except CompilationError as err:
        return str(err)


_angles = st.floats(-math.pi, math.pi, exclude_min=True)
_drives = st.floats(0.05, 20.0)


@settings(max_examples=100)
@given(theta=_angles, beta=_angles, a1=_drives, a2=_drives,
       d12=st.builds(lambda r, sign: sign * r, st.floats(1e-3, 0.5), st.sampled_from([1.0, -1.0])),
       remainder=st.floats(pulsecompiler._ZZ_ROUNDOFF, 2.0 * math.pi))
def test_parking_searches_pick_the_scalar_walks_float(theta, beta, a1, a2, d12, remainder):
    # a block of zz remainder r lasts t = 2 r / |Delta_12|; qubit 2 is solved
    # on the qubit-1-excited branch, and qubit 1 keeps clear of its pick
    t = 2.0 * remainder / abs(d12)
    q2 = search_outcome(pulsecompiler._exact_detuning, beta, a2, t, d12 / 2.0)
    assert q2 == search_outcome(reference_exact_detuning, beta, a2, t, d12 / 2.0)
    delta2 = float.fromhex(q2) if q2.startswith(("0x", "-0x")) else 0.0
    args = (theta, a1, t, d12, delta2, pulsecompiler._SEPARATION_MIN * max(a1, a2))
    assert (search_outcome(pulsecompiler._control_parking, *args)
            == search_outcome(reference_control_parking, *args))
