"""Tests for the pulse-schedule compiler: rotations, phase blocks, the CNOT
sequence, ledger bookkeeping and schedule-level composition."""

import math
import re
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
    compile_cnot,
    compile_schedule,
    ideal_composition,
    ideal_gate,
    ideal_product,
    verify_schedule,
    _compile_phase_block,
    _compile_x_rotation,
    _compiled_gate,
    _is_phase_neutral,
)

HALF_PI = math.pi / 2.0
EXACT_TOL = 1e-12  # constructions that are exact up to roundoff
# Physical distance of one gated gate per unit |ratio|, reached by an x pulse
# of nearly 2 pi: the coupling cannot be gated off while a pulse runs.
GATED_GATE_DISTANCE_PER_RATIO = math.pi / math.sqrt(2.0)
KET_11 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def outside_domain(field, value):
    """The compile domain's refusal of one device field, as a regex."""
    return re.escape(f"{field} = {value!r} is outside the compile domain [1e-150, 1e+150] "
                     f"of a nonzero drive or |delta12|") + "$"


def device(d12, a=1.0, d1=0.0, d2=0.0):
    return DeviceParams(
        q1=QubitParams(delta=d1, a=a),
        q2=QubitParams(delta=d2, a=a),
        delta12=d12,
    )


def streams(**values):
    """A phase ledger with every stream zero but the ones given."""
    return {**dict.fromkeys(pulsecompiler._STREAMS, 0.0), **values}


def owing(z1=0.0, z2=0.0):
    """A fresh ledger owing virtual R_z(z1) on qubit 1 and R_z(z2) on qubit 2,
    booked as compile_schedule books an rz: the only way z angles reach a
    phase block."""
    return streams(pending_z1=0.0 - z1, pending_z2=0.0 - z2)


def x_rotation(*args):
    """The x-pulse step as the CompiledGate that compile_schedule makes of it."""
    return _compiled_gate(_compile_x_rotation(*args))


def phase_block(*args):
    """The phase-block step as the CompiledGate that compile_schedule makes of it."""
    return _compiled_gate(_compile_phase_block(*args))


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
    for kind, qubit in (("rx", 1), ("zz", None)):
        with pytest.raises(ValueError, match="angle must be a finite real number, got True"):
            GateSpec(kind, qubit, True)
    with pytest.raises(ValueError):
        GateSpec("zz", 1, 0.5)
    with pytest.raises(ValueError):
        GateSpec("cnot", 1)
    with pytest.raises(ValueError):
        GateSpec("cnot", None, 0.3)
    assert GateSpec("RX", 1, 0.5).kind == "rx"  # kind is case-folded
    # a qubit is an integer 1 or 2; True == 1 and 1.0 == 1, but neither names
    # a qubit (it would label a pulse rx(qTrue,0.5))
    for qubit in (True, 1.0, np.float64(2.0), np.bool_(True), "2"):
        for kind in ("rx", "ry", "rz"):
            with pytest.raises(ValueError, match=re.escape(f"qubit must be 1 or 2, got {qubit!r}")):
                GateSpec(kind, qubit, 0.5)
    _, compiled = compile_schedule([GateSpec("rx", np.int64(2), 0.5)], device(0.05), "gated")
    assert compiled[0].segments[0].label == "rx(q2,0.5)"


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
    # every rotation and every phase block's content matches its
    # 2x2-and-kron reference
    kind, qubit = kind_qubit
    u = ideal_gate(GateSpec(kind, qubit, angle))
    assert np.max(np.abs(u - reference_ideal_gate(kind, qubit, angle))) <= 1e-15
    z1, z2, zz = block
    u = ideal_product([GateSpec("rz", 1, z1), GateSpec("rz", 2, z2), GateSpec("zz", None, zz)])
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
# the phase ledger
# ---------------------------------------------------------------------------

def test_ledger_request_arithmetic():
    # each rz subtracts its angle from its qubit's pending stream, and the
    # closing block delivers the balance as content
    dev = device(0.05)
    _, (_, closing) = compile_schedule([GateSpec("rz", 1, 0.3)], dev, "gated")
    assert closing.content[:2] == (GateSpec("rz", 1, wrap_angle(0.3)), GateSpec("rz", 2, 0.0))
    specs = [GateSpec("rz", 1, 0.3), GateSpec("rz", 1, -0.1), GateSpec("rz", 2, 0.5)]
    _, compiled = compile_schedule(specs, dev, "gated")
    assert [g.segments for g in compiled[:3]] == [(), (), ()]
    z1, z2, _ = compiled[3].content
    assert z1.angle == wrap_angle(-(0.0 - 0.3 - -0.1))  # 0.2 up to roundoff
    assert z2.angle == 0.5


def test_ledger_neutrality_is_per_stream():
    assert _is_phase_neutral(streams())
    assert _is_phase_neutral(streams(pending_z1=2.0 * math.pi))
    # content and surplus cancelling in the sum is NOT neutrality: each
    # stream must be a 2 pi multiple on its own
    assert not _is_phase_neutral(streams(pending_z1=math.pi, surplus_z1=math.pi))
    for name in pulsecompiler._STREAMS:
        assert not _is_phase_neutral(streams(**{name: 0.5}))


def test_empty_block_leaves_the_ledger_as_it_is():
    # zz(0) on a ledger owing 6 pi emits nothing and must not zero the
    # stream: the rz(0.3) that follows is booked on -6 pi, not on 0, and the
    # settle block's detuning shows the difference in its last bit
    dev = device(0.05)
    specs = [GateSpec("rz", 1, 6.0 * math.pi), GateSpec("zz", None, 0.0),
             GateSpec("rz", 1, 0.3), GateSpec("rx", 2, HALF_PI)]
    schedule, compiled = compile_schedule(specs, dev, "gated")
    assert [len(g.segments) for g in compiled] == [0, 0, 0, 1, 1, 1]
    assert schedule.segments[0].label == "block(0.3,0,0)"
    assert schedule.segments[0].delta1.hex() == "-0x1.860b04b552c4ap-7"
    led = owing(6.0 * math.pi)
    assert phase_block(0.0, dev, "gated", led).segments == ()
    assert led == owing(6.0 * math.pi)


def test_closing_block_intends_content_only():
    led = streams(pending_z1=-0.4, surplus_z1=0.9, pending_zz=0.3)
    g = phase_block(0.0, device(0.05), "gated", led)
    # the block cancels all three streams physically, but it delivers only
    # R_z(0.4) on qubit 1 as content: surplus and zz streams are
    # compensation, not gate content, and stay out of the ideal layer
    assert g.segments
    assert g.content == (GateSpec("rz", 1, wrap_angle(0.4)), GateSpec("rz", 2, 0.0),
                         GateSpec("zz", None, 0.0))
    assert g.segments[0].label == "block(0.4,0,0)"
    assert distance_up_to_global_phase(
        ideal_composition([g]), ideal_gate(GateSpec("rz", 1, 0.4))) <= EXACT_TOL
    assert led == streams()  # every stream delivered


# ---------------------------------------------------------------------------
# x rotations
# ---------------------------------------------------------------------------

def test_x_rotation_gated_duration_and_exactness():
    g = x_rotation(2, HALF_PI, device(0.0), "gated", owing())
    assert len(g.segments) == 1
    seg = g.segments[0]
    assert seg.duration == math.pi / 4.0
    assert seg.a2 == 1.0 and seg.a1 == 0.0
    assert seg.delta1 == 0.0 and seg.delta2 == 0.0
    u = propagated(g.segments, device(0.0))
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI))) <= EXACT_TOL


def test_x_rotation_negative_angle_wraps_duration():
    g = x_rotation(2, -HALF_PI, device(0.0), "gated", owing())
    assert g.segments[0].duration == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)
    g = x_rotation(1, 2.0 * math.pi, device(0.0), "gated", owing())
    assert g.segments[0].duration == pytest.approx(math.pi, abs=1e-15)


def test_x_rotation_zero_angle_is_free():
    led = streams(pending_z1=0.2)
    g = x_rotation(1, 0.0, device(0.1), "gated", led)
    assert g.segments == ()
    assert led == streams(pending_z1=0.2)
    assert g.content == (GateSpec("rx", 1, 0.0),)


def test_x_rotation_coupling_error_is_first_order():
    # with the coupling on, a bare pulse picks up O(Delta12 * t) phase error
    g = x_rotation(2, HALF_PI, device(0.01), "gated", owing())
    u = propagated(g.segments, device(0.01))
    d = distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI)))
    assert 1e-3 < d < 5e-2


def test_x_rotation_books_coupling_surplus_gated():
    d12 = 0.08
    led = streams(pending_z1=0.3, surplus_z1=0.1)
    g = x_rotation(2, HALF_PI, device(d12), "gated", led)
    t = g.segments[0].duration
    surplus = d12 * t / 2.0
    # an idle spectator books the surplus too; gate content is left alone
    assert led == streams(pending_z1=0.3, surplus_z1=0.1 + surplus, surplus_z2=surplus,
                          pending_zz=surplus)


def test_x_rotation_always_on_parks_spectator():
    led = owing()
    g = x_rotation(2, HALF_PI, device(0.05), "always_on", led)
    seg = g.segments[0]
    assert seg.a1 == 1.0 and seg.a2 == 1.0  # spectator drive stays on
    assert seg.delta2 == 0.0  # driven qubit resonant
    assert abs(seg.delta1) >= 10.0  # parked far off resonance
    # full-cycle parking nulls the spectator's surplus; only the driven
    # qubit books coupling phase
    surplus = 0.05 * seg.duration / 2.0
    assert led == streams(surplus_z2=surplus, pending_zz=surplus)


def test_x_rotation_always_on_exact_at_zero_coupling():
    g = x_rotation(2, HALF_PI, device(0.0), "always_on", owing())
    u = propagated(g.segments, device(0.0))
    assert distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI))) <= EXACT_TOL


def test_x_rotation_always_on_accuracy_with_coupling():
    g = x_rotation(2, HALF_PI, device(0.05), "always_on", owing())
    u = propagated(g.segments, device(0.05))
    d = distance_up_to_global_phase(u, ideal_gate(GateSpec("rx", 2, HALF_PI)))
    assert d < 0.1


def test_x_rotation_errors():
    with pytest.raises(CompilationError):
        x_rotation(1, 2.0 * math.pi + 0.1, device(0.0), "gated", owing())
    with pytest.raises(CompilationError):
        x_rotation(1, -2.0 * math.pi, device(0.0), "gated", owing())
    with pytest.raises(CompilationError):
        x_rotation(1, HALF_PI, device(0.0, a=0.0), "gated", owing())


def test_always_on_x_rotation_too_short_to_park_raises_compilation_error():
    # A pulse of 5e-161 would need a spectator detuning of ~6e160, whose
    # square overflows: a named CompilationError, not a non-finite segment.
    with pytest.raises(CompilationError, match="too short to park"):
        x_rotation(1, 1e-160, device(0.5), "always_on", owing())
    assert x_rotation(1, 1e-150, device(0.5), "always_on", owing()).segments


def test_always_on_x_rotation_too_long_to_park_raises_compilation_error():
    # With a2 = 1e-308 an x pulse on qubit 2 would last 5e307, and the
    # spectator's cycle count Omega t / pi overflowed: the compile domain now
    # refuses the drive by name before any step runs.
    dev = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 1e-308), 0.5)
    with pytest.raises(CompilationError, match=outside_domain("a2", 1e-308)):
        compile_schedule([GateSpec("rx", 2, 1.0)], dev, "always_on")


@pytest.mark.parametrize("mode", ["gated", "always_on"])
@pytest.mark.parametrize("a2, duration", [(1.78e-314, "inf"), (1e308, "0")])
def test_x_rotation_without_a_finite_positive_duration_names_the_drive(mode, a2, duration):
    # an x pulse on qubit 2 lasts theta / (2 a), which is inf for a
    # subnormal drive and 0 once 2 a overflows: the segment check refused
    # the gated row as a bare ValueError, and always-on parking named only
    # the infinite duration or divided by the zero one
    dev = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, a2), 0.5)
    with pytest.raises(CompilationError, match=re.escape(
            f"qubit 2's drive a = {a2:.3g} gives its x pulse no finite positive duration "
            f"(theta / (2 a) = {duration})")):
        x_rotation(2, 1.0, dev, mode, owing())


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
        assert compiled[-1].content[:2] == (GateSpec("rz", 1, 0.0), GateSpec("rz", 2, HALF_PI))
        assert checks.composition_error([spec], compiled) <= checks.COMPOSITION_TOL
        u = propagate(schedule, KET_11).total_propagator
        assert distance_up_to_global_phase(u, ideal_gate(spec)) <= GATED_GATE_DISTANCE_PER_RATIO * abs(d12)


def test_y_rotation_bracket_composition_oracle():
    # the virtual-z decomposition R_z(pi/2) U_x R_z(-pi/2) = R_y at zero
    # coupling, where U_x is the x-rotation core evolved exactly
    for theta in (HALF_PI, -1.1, 2.8):
        g = x_rotation(2, theta, device(0.0), "gated", owing())
        core = propagated(g.segments, device(0.0))
        u = (
            ideal_gate(GateSpec("rz", 2, HALF_PI))
            @ core
            @ ideal_gate(GateSpec("rz", 2, -HALF_PI))
        )
        assert distance_up_to_global_phase(u, ideal_gate(GateSpec("ry", 2, theta))) <= EXACT_TOL


def test_z_rotation_is_virtual():
    # an rz emits nothing and delivers nothing: it is a ledger request, and
    # the closing block delivers it
    _, (rz, block) = compile_schedule([GateSpec("rz", 1, 0.8)], device(0.05), "gated")
    assert rz.segments == ()
    assert rz.content == ()
    assert block.content[0] == GateSpec("rz", 1, wrap_angle(0.8))
    assert block.segments[0].label == "block(0.8,0,0)"


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
    # a zz(pi/2) block owing R_z(-pi/2) and R_z(+pi/2) at Delta12 = 0.25,
    # gated, labelled block(-pi/2, +pi/2, +pi/2): zz remainder pi/2 fixes
    # t = 2 (pi/2) / 0.25 = 4 pi, and the detunings solve
    # theta_i = (2 Delta_i + Delta12/2) t exactly.
    dev = device(0.25)
    g = phase_block(HALF_PI, dev, "gated", owing(-HALF_PI, HALF_PI))
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
        led = owing(th1, th2)
        g = phase_block(thzz, dev, "gated", led)
        u = propagated(g.segments, dev)
        ideal = (
            ideal_gate(GateSpec("rz", 1, th1))
            @ ideal_gate(GateSpec("rz", 2, th2))
            @ ideal_gate(GateSpec("zz", None, thzz))
        )
        assert distance_up_to_global_phase(u, ideal) <= EXACT_TOL
        assert led == streams()


def test_phase_block_absorbs_pending_phase():
    # a block delivers its zz angle and what the ledger owes
    dev = device(0.25)
    led = owing(0.9)  # owes R_z(0.9) on qubit 1
    g = phase_block(HALF_PI, dev, "gated", led)
    u = propagated(g.segments, dev)
    ideal = ideal_gate(GateSpec("rz", 1, 0.9)) @ ideal_gate(GateSpec("zz", None, HALF_PI))
    assert distance_up_to_global_phase(u, ideal) <= EXACT_TOL
    assert led == streams()


def test_phase_block_pure_z_promotes_full_cycle():
    # zero zz remainder is promoted to a full 2 pi coupling cycle so the
    # segment keeps a positive duration
    dev = device(0.25)
    g = phase_block(0.0, dev, "gated", owing(HALF_PI, 0.0))
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
    assert distance_up_to_global_phase(u, ideal_product(specs)) <= EXACT_TOL


def test_phase_block_trivial_when_nothing_requested():
    led = owing()
    g = phase_block(0.0, device(0.25), "gated", led)
    assert g.segments == ()
    assert np.array_equal(ideal_composition([g]), np.eye(4))
    assert led == streams()


def test_phase_block_negative_coupling():
    dev = device(-0.2)
    g = phase_block(1.1, dev, "gated", owing(0.3, -0.7))
    u = propagated(g.segments, dev)
    ideal = (
        ideal_gate(GateSpec("rz", 1, 0.3))
        @ ideal_gate(GateSpec("rz", 2, -0.7))
        @ ideal_gate(GateSpec("zz", None, 1.1))
    )
    assert distance_up_to_global_phase(u, ideal) <= EXACT_TOL


def test_phase_block_requires_coupling():
    with pytest.raises(CompilationError) as err:
        phase_block(HALF_PI, device(0.0), "gated", owing())
    assert "coupling" in str(err.value)


def test_phase_block_always_on_structure():
    # with drives always on the block parks both qubits far off resonance;
    # flips are capped, and the control-excited branch phase (the one the
    # CNOT sequence uses) is delivered to the solver's accuracy
    dev = device(0.05)
    g = phase_block(HALF_PI, dev, "always_on", owing(-HALF_PI, HALF_PI))
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
    # the CNOT compiles as its seven-gate list: x(-pi/2), two virtual z's, a
    # zz block, x(+pi/2), a virtual z, a zz block; no settle or closing block
    _, gates = compile_schedule([GateSpec("cnot")], device(0.1), "gated")
    assert len(gates) == 7
    assert [len(g.segments) for g in gates] == [1, 0, 0, 1, 1, 0, 1]
    x1, _, _, block1, x2, _, block2 = gates
    # the documented durations, and each block's delivered content
    assert x1.segments[0].duration == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)
    assert x2.segments[0].duration == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert block1.segments[0].a1 == 0.0 and block1.segments[0].a2 == 0.0
    assert block1.content == (GateSpec("rz", 1, -HALF_PI), GateSpec("rz", 2, HALF_PI),
                              GateSpec("zz", None, HALF_PI))
    assert block2.content == (GateSpec("rz", 1, 0.0), GateSpec("rz", 2, HALF_PI),
                              GateSpec("zz", None, HALF_PI))
    assert [s.label for s in (block1.segments + block2.segments)] == [
        "block(-1.571,1.571,1.571)", "block(0,1.571,1.571)"]


def reference_cnot_pieces(device: DeviceParams, mode):
    """Reference: the CNOT compiled by hand as four pieces, x(-pi/2) on the
    target, block(-pi/2, pi/2, pi/2), x(+pi/2), block(0, pi/2, pi/2), with
    its own coupling and drive guards; each block's z angles are requested
    on the ledger the pieces thread, ahead of the block."""
    pulsecompiler._require_mode(mode)
    if device.delta12 == 0.0:
        raise CompilationError("CNOT requires a nonzero coupling delta12")
    if device.q1.a <= 0.0 or device.q2.a <= 0.0:
        raise CompilationError(
            f"CNOT requires both drives > 0, got a1={device.q1.a}, a2={device.q2.a}"
        )
    led = streams()
    g1 = x_rotation(2, -HALF_PI, device, mode, led)
    led["pending_z1"] -= -HALF_PI
    led["pending_z2"] -= HALF_PI
    g2 = phase_block(HALF_PI, device, mode, led)
    g3 = x_rotation(2, HALF_PI, device, mode, led)
    led["pending_z2"] -= HALF_PI
    g4 = phase_block(HALF_PI, device, mode, led)
    return (g1, g2, g3, g4)


def segments_or_error(compile_gates, dev):
    """The compiled gates' segments as float.hex lines, or the
    CompilationError message."""
    try:
        gates = compile_gates()
    except CompilationError as err:
        return str(err)
    return hex_segments(Schedule(tuple(s for g in gates for s in g.segments), dev))


@settings(max_examples=100)
@given(a1=st.floats(0.05, 20.0), a2=st.floats(0.05, 20.0),
       ratio=st.builds(lambda e, sign: sign * 10.0 ** e,
                       st.floats(-3.0, math.log10(0.5)), st.sampled_from([1.0, -1.0])),
       mode=st.sampled_from(["gated", "always_on"]))
def test_cnot_gate_list_is_the_four_hand_compiled_pieces(a1, a2, ratio, mode):
    # compiling the CNOT's gate list emits the hand-compiled pieces' segments
    # bit for bit, labels included, or fails with the same message
    dev = DeviceParams(QubitParams(0.0, a1), QubitParams(0.0, a2), ratio)
    listed = segments_or_error(lambda: compile_schedule([GateSpec("cnot")], dev, mode)[1], dev)
    assert listed == segments_or_error(lambda: reference_cnot_pieces(dev, mode), dev)


def schedule_or_error(compile_one):
    """The compiled schedule's segments as float.hex lines, or the
    CompilationError message."""
    try:
        return hex_segments(compile_one())
    except CompilationError as err:
        return str(err)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["gated", "always_on"]),
       sign=st.sampled_from([1.0, -1.0]))
def test_compile_cnot_is_compile_schedule_of_one_cnot(seed, mode, sign):
    # seeded devices: levels in [-2, 2], drives log-uniform in [0.1, 10] and
    # |Delta_12| log-uniform in [1e-3, 0.5]; the schedule is the same to the
    # last bit, labels included, or the compile fails with the same message
    rng = np.random.default_rng(seed)
    q1, q2 = (QubitParams(float(rng.uniform(-2.0, 2.0)), 10.0 ** float(rng.uniform(-1.0, 1.0)))
              for _ in range(2))
    dev = DeviceParams(q1, q2, sign * 10.0 ** float(rng.uniform(-3.0, math.log10(0.5))))
    assert schedule_or_error(lambda: compile_cnot(dev, mode)) == schedule_or_error(
        lambda: compile_schedule((GateSpec("cnot"),), dev, mode)[0])


@pytest.fixture
def gate_objects_built(monkeypatch):
    """Count every GateSpec, CompiledGate and PulseSegment built while a test
    runs."""
    built = {"GateSpec": 0, "CompiledGate": 0, "PulseSegment": 0}
    for cls in (GateSpec, CompiledGate, PulseSegment):
        check = cls.__post_init__

        def counting(self, check=check, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


@pytest.mark.parametrize("mode", ["gated", "always_on"])
def test_compile_cnot_builds_no_gate_content(gate_objects_built, hamiltonian_builds, mode):
    # compile_cnot hands its rows to the Schedule's array: no segment object,
    # and no Hamiltonian either
    compile_cnot(device(0.05), mode)
    assert gate_objects_built == {"GateSpec": 0, "CompiledGate": 0, "PulseSegment": 0}
    assert hamiltonian_builds == []
    # compile_schedule builds the content it returns for one cnot: 8
    # GateSpecs (one per x pulse, three per block) in 7 CompiledGates,
    # besides the request itself, and the CompiledGates hold the 4 segments
    compile_schedule((GateSpec("cnot"),), device(0.05), mode)
    assert gate_objects_built == {"GateSpec": 1 + 8, "CompiledGate": 7, "PulseSegment": 4}


def test_gated_cnot_wraps_only_its_two_blocks_angles(monkeypatch):
    # each of the two phase blocks wraps its content z1, z2 and its physical
    # th1, th2; every neutrality check meets a ledger of exact zeros, which
    # needs no wrap
    calls = []
    wrap = pulsecompiler.wrap_angle
    monkeypatch.setattr(pulsecompiler, "wrap_angle", lambda x: calls.append(x) or wrap(x))
    compile_cnot(device(0.05), "gated")
    assert len(calls) == 2 * 4


def test_compiling_builds_no_matrix(monkeypatch):
    # gate content stays GateSpecs until ideal_composition asks for the
    # matrix: compiling a mixed list calls ideal_gate nowhere
    def no_matrix(spec):
        raise AssertionError(f"compiling built the matrix of {spec}")

    specs = [GateSpec("ry", 2, 0.7), GateSpec("cnot"), GateSpec("rz", 1, -0.4),
             GateSpec("zz", None, 1.2), GateSpec("rx", 1, -2.0), GateSpec("cnot")]
    monkeypatch.setattr(pulsecompiler, "ideal_gate", no_matrix)
    compiled = {mode: compile_schedule(specs, device(0.05), mode)[1]
                for mode in ("gated", "always_on")}
    monkeypatch.undo()
    for gates in compiled.values():
        assert checks.composition_error(specs, gates) <= checks.COMPOSITION_TOL


def test_cnot_ideal_composition():
    cnot = [GateSpec("cnot")]
    for mode in ("gated", "always_on"):
        for d12 in (0.001, 0.05, 0.3, -0.05):
            _, gates = compile_schedule(cnot, device(d12), mode)
            assert checks.composition_error(cnot, gates) <= checks.COMPOSITION_TOL


def test_cnot_errors():
    # no coupling or no target drive: the primitive that fails names why
    no_target_drive = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 0.0), 0.1)
    for mode in ("gated", "always_on"):
        with pytest.raises(CompilationError,
                           match=r"^coupling absent \(delta12 = 0\); zz angle unreachable$"):
            compile_cnot(device(0.0), mode)
        with pytest.raises(CompilationError,
                           match=r"^qubit 2 has no drive \(a = 0\); x rotation unreachable$"):
            compile_cnot(no_target_drive, mode)


@pytest.mark.parametrize("mode", ["gated", "always_on"])
def test_cnot_with_an_undriven_control_compiles(mode):
    # the control is never pulsed, so a1 = 0 is no obstacle: the CNOT
    # compiles in both modes and flips the target on the excited control
    dev = DeviceParams(QubitParams(0.0, 0.0), QubitParams(0.0, 1.0), 1e-3)
    schedule, gates = compile_schedule([GateSpec("cnot")], dev, mode)
    assert all(seg.a1 == 0.0 for seg in schedule.segments)
    assert checks.composition_error([GateSpec("cnot")], gates) <= checks.COMPOSITION_TOL
    assert abs(propagate(schedule, KET_11).final_state[1]) >= 0.99


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


def test_verify_schedule_rejects_a_negative_tolerance():
    # no distance is below a negative tol, so such a check could never pass
    schedule = compile_cnot(device(0.01), "gated")
    with pytest.raises(ValueError, match="tol must be >= 0, got -1.0"):
        verify_schedule(schedule, np.eye(4), tol=-1.0)
    assert not verify_schedule(schedule, np.eye(4), tol=0.0)["pass"]


def test_ideal_gates_name_a_request_that_is_not_a_gatespec():
    # named as compile_schedule names it, not failing on a missing .kind
    for call in (lambda: ideal_gate("cnot"), lambda: ideal_product(["cnot"])):
        with pytest.raises(ValueError, match="expected GateSpec, got 'cnot'"):
            call()


def test_compiled_gate_rejects_content_that_is_not_gatespecs():
    # content is a tuple of GateSpecs; a matrix or a string is named
    for bad in (np.eye(4), "rx(q1,0.5)", (np.eye(4),), (GateSpec("rz", 1, 0.5), "zz")):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            CompiledGate((), bad)
    assert CompiledGate((), (GateSpec("rz", 1, 0.5),)).content


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
    # the composed gate content of a compiled schedule equals the product
    # of the requested ideals -- at any coupling, to roundoff
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
        assert distance_up_to_global_phase(u, ideal_product(specs)) <= EXACT_TOL


def test_schedule_physical_accuracy_weak_coupling():
    # at weak coupling the physical propagator tracks the requested product
    specs = [GateSpec("rx", 2, HALF_PI), GateSpec("rz", 1, 0.4), GateSpec("cnot")]
    dev = device(1e-3)
    schedule, _ = compile_schedule(specs, dev, "gated")
    u = propagate(schedule, KET_11).total_propagator
    assert distance_up_to_global_phase(u, ideal_product(specs)) <= 0.02


def test_schedule_rejects_bad_input():
    with pytest.raises(CompilationError):
        compile_schedule([], device(0.1), "gated")
    with pytest.raises(ValueError):
        compile_schedule(["cnot"], device(0.1), "gated")
    with pytest.raises(CompilationError):
        compile_schedule([GateSpec("rz", 1, 0.1), GateSpec("rz", 1, -0.1)], device(0.1), "gated")


def test_schedule_checks_its_mode_first():
    # an unknown mode is named even for a list that emits no segment
    with pytest.raises(ValueError, match="mode must be one of"):
        compile_schedule([GateSpec("rz", 1, 0.0)], device(0.1), "bogus")


@pytest.mark.parametrize("mode, qubit", [
    pytest.param("gated", 1, id="gated"), pytest.param("always_on", 1, id="always_on"),
    pytest.param("gated", 2, id="gated-qubit2"), pytest.param("always_on", 2, id="always_on-qubit2"),
])
def test_overflowing_ledger_is_a_compilation_error_naming_its_stream(mode, qubit):
    # each request is finite; their sum is not, and the closing block says so
    with pytest.raises(CompilationError,
                       match=f"^phase ledger overflows: pending_z{qubit} = -inf$"):
        compile_schedule([GateSpec("rz", qubit, 1e308)] * 2, device(0.1), mode)


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
# Each segment is "duration delta1 delta2 a1 a2 label", floats as float.hex;
# a block's label shows the z and zz angles it delivers, virtual z's included.
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
        '0x1.3a28c59d5433bp+10 -0x1.47ae147ae147bp-9 -0x1.999999999999ap-9 0x0.0p+0 0x0.0p+0 block(0,-1.571,0)',
        '0x1.921fb54442d18p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.39f681a6abab5p+10 -0x1.47e28aa58b208p-9 -0x1.ebd3cff850b0cp-10 0x0.0p+0 0x0.0p+0 block(0,1.571,0)',
        '0x1.2d97c7f3321d2p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.37cd960d6dcf7p+8 -0x1.4a27fad76014ap-8 0x0.0p+0 0x0.0p+0 0x0.0p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.395fb5c2b2124p+8 -0x1.4880522014881p-9 0x0.0p+0 0x0.0p+0 0x0.0p+0 block(0,1.571,1.571)',
        '0x1.3a28c59d5433bp+10 -0x1.999999999999ap-9 -0x1.47ae147ae147bp-9 0x0.0p+0 0x0.0p+0 block(-1.571,0,0)',
        '0x1.657184ae74487p+2 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0 rx(q1,-0.698132)',
        '0x1.38c35418a5bf6p+10 -0x1.c3ce77cdb15c4p-10 -0x1.4924924924925p-9 0x0.0p+0 0x0.0p+0 block(1.971,0,0)',
        '0x1.199999999999ap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 rx(q2,1.1)',
        '0x1.3a05926a21008p+10 -0x1.47d2cf9e39b2ep-9 -0x1.47d2cf9e39b2ep-9 0x0.0p+0 0x0.0p+0 block(0,0,0)',
    ),
    'always_on': (
        '0x1.3a28c59d5433bp+10 0x1.4028f5c28f5c2p+2 0x1.6583210bbb665p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,-1.571,0)',
        '0x1.921fb54442d18p-1 0x1.fed6ca1d5c95cp+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.39f681a6abab5p+10 0x1.400a45a31a819p+2 0x1.641d16b7c9437p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,1.571,0)',
        '0x1.2d97c7f3321d2p+1 0x1.53ab869e6e236p+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,-1.5708)',
        '0x1.37cd960d6dcf7p+8 -0x1.cb48b63476c0cp+3 0x1.f99efa2fad143p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(-1.571,1.571,1.571)',
        '0x1.921fb54442d18p-1 0x1.fed6ca1d5c95cp+2 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q2,1.5708)',
        '0x1.395fb5c2b2124p+8 0x1.83c50615188f9p+3 0x1.f9a6d78f75557p+4 0x1.0000000000000p-1 0x1.0000000000000p+0 block(0,1.571,1.571)',
        '0x1.3a28c59d5433bp+10 -0x1.445c28f5c28f6p+2 0x1.419cdbdb15ae5p+3 0x1.0000000000000p-1 0x1.0000000000000p+0 block(-1.571,0,0)',
        '0x1.657184ae74487p+2 0x0.0p+0 0x1.546b6d0fae128p+3 0x1.0000000000000p-1 0x1.0000000000000p+0 rx(q1,-0.698132)',
        '0x1.38c35418a5bf6p+10 0x1.44b179f3f0dbdp+2 0x1.419c080c9a05fp+3 0x1.0000000000000p-1 0x1.0000000000000p+0 block(1.971,0,0)',
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


def test_exact_parking_search_names_an_overflowing_phase():
    # at |Delta_12| = 1e-307 a zz(1) block lasts 2e307, where qubit 2's parked
    # phase 2 Omega t used to overflow (a2 = 0.7 overflows Omega t itself); the
    # block is refused before either search runs, naming qubit 2, solved first
    for a2 in (0.5, 0.7):
        dev = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, a2), 1e-307)
        with pytest.raises(CompilationError,
                           match="^always-on parking of qubit 2 rests on roundoff: its drive "
                                 f"{a2:g} times the block duration 2e\\+307 passes 4.14e\\+10"):
            phase_block(1.0, dev, "always_on", owing())


@pytest.mark.parametrize("d12,reason", [
    (1e-200, "always-on parking of qubit 1 rests on roundoff"),
    (1e-11, "always-on parking of qubit 1 rests on roundoff"),
    (1e-10, "no admissible always-on parking for qubit 1"),
])
def test_always_on_block_past_the_roundoff_limit_is_refused_fast(d12, reason):
    # a zz(1) block lasts t = 2 / |Delta_12|.  Past a t = 4.14e10 one
    # detuning step moves qubit 1's Omega t mod pi by less than its rounding,
    # so no bound of the walk can skip and its flip test reads roundoff (its
    # 1e6 single-row steps took 18 s at 1e-200): the block is refused by name.
    # Just inside the limit the walk runs, and fails on its k cap.
    dev = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 0.0), d12)
    start = time.perf_counter()
    with pytest.raises(CompilationError, match=f"^{reason}"):
        phase_block(1.0, dev, "always_on", owing())
    assert time.perf_counter() - start < 1.0


def test_qubit_1_walk_ends_a_side_whose_detunings_overflow():
    # at |Delta_12| = 1e308 a zz(1) block would last 2e-308, so one row moves
    # delta by pi / t ~ 1.6e308 and each side overflowed within a row or two;
    # the compile domain now refuses the coupling before the walk runs
    dev = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 0.0), 1e308)
    with pytest.raises(CompilationError, match=outside_domain("delta12", 1e308)):
        compile_schedule([GateSpec("zz", None, 1.0)], dev, "always_on")


@pytest.mark.parametrize("dev", [
    DeviceParams(QubitParams(1.1643009485390392, 1.5228165267791054e-138),
                 QubitParams(0.0, 4.645745237228978e-222), -2.171503134035294e-143),
    DeviceParams(QubitParams(0.6232800326044425, 3.378713996181449e-153),
                 QubitParams(-0.42992323504253216, 9.350466679916689e-124), 6.220331511603383e-122),
    DeviceParams(QubitParams(-0.44454650469412105, 6.170920694072832e-216),
                 QubitParams(-1.4653327816644373, 7.473511962583361e-305), -5.695449402628399e-215),
    DeviceParams(QubitParams(0.5284808457545496, 1.3807560560918847e-115),
                 QubitParams(-0.7959040760775378, 8.453214957340904e+217), -1.316e-320),
])
def test_tiny_drives_compile_or_are_refused_by_name(dev):
    # the qubit-1 walk's bounds divided by a^2 and Omega^3 products, which
    # underflow to 0 for tiny drives: a bare ZeroDivisionError escaped.  In
    # the last device a tiny spectator drive over a very short pulse made
    # the cycle count Omega t / pi underflow to 0, and parking on 0 cycles
    # escaped as a bare "math domain error"
    try:
        propagate(compile_cnot(dev, "always_on"), KET_11)
    except CompilationError:
        pass


def test_devices_across_the_float_range_compile_or_are_refused_by_name():
    # drives and |Delta_12| log-uniform over the float range, both signs:
    # a compile fails only as a CompilationError, and propagate only as a
    # ValueError naming its segment.  Before the walk's bounds divided as
    # ratios, 4 of these 1000 draws escaped as a bare ZeroDivisionError;
    # before a full cycle counted at least once and an x pulse of infinite
    # duration was refused, compiles escaped as "math domain error" or as
    # a segment row's "duration must be a finite real number, got inf".
    # Since the compile domain, a device with a nonzero drive or coupling
    # outside [1e-150, 1e150] is refused by name before any step runs; the
    # gate-list family below finds the escapes that CNOTs alone missed.
    rng = np.random.default_rng(8)
    for _ in range(1000):
        a1, a2, d12 = 10.0 ** rng.uniform(-320.0, 308.0, 3)
        d1, d2 = rng.uniform(-2.0, 2.0, 2)
        sign = float(rng.choice([1.0, -1.0]))
        dev = DeviceParams(QubitParams(float(d1), float(a1)),
                           QubitParams(float(d2), float(a2)), sign * float(d12))
        for mode in ("gated", "always_on"):
            try:
                schedule = compile_cnot(dev, mode)
            except CompilationError:
                continue
            try:
                propagate(schedule, KET_11)
            except ValueError as exc:
                assert re.match(r"stack index \d+ \(schedule 0, segment \d+\): ", str(exc)), exc


def random_gate(rng):
    """One rx/ry/rz/zz/cnot request with an angle pi U(-1, 1) 10^U(-12, 0)."""
    kind = ("rx", "ry", "rz", "zz", "cnot")[int(rng.integers(5))]
    angle = float(math.pi * rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, 0.0))
    qubit = int(rng.integers(1, 3))
    if kind == "cnot":
        return GateSpec("cnot")
    return GateSpec(kind, None if kind == "zz" else qubit, angle)


def test_gate_lists_across_the_float_range_compile_or_are_refused_by_name():
    # the family above on lists of 1-4 random requests: tiny zz remainders,
    # rz owed into a block and x pulses on either qubit reach derived
    # quantities that a CNOT never does.  Before the compile domain, this
    # seed escaped as a gated block's "delta1 must be a finite real number,
    # got inf" and as an always-on "math domain error"
    rng = np.random.default_rng(52)
    for _ in range(1000):
        a1, a2, d12 = 10.0 ** rng.uniform(-320.0, 308.0, 3)
        d1, d2 = rng.uniform(-2.0, 2.0, 2)
        sign = float(rng.choice([1.0, -1.0]))
        dev = DeviceParams(QubitParams(float(d1), float(a1)),
                           QubitParams(float(d2), float(a2)), sign * float(d12))
        gates = [random_gate(rng) for _ in range(int(rng.integers(1, 5)))]
        for mode in ("gated", "always_on"):
            try:
                schedule, _ = compile_schedule(gates, dev, mode)
            except CompilationError:
                continue
            try:
                propagate(schedule, KET_11)
            except ValueError as exc:
                assert re.match(r"stack index \d+ \(schedule 0, segment \d+\): ", str(exc)), exc


@pytest.mark.parametrize("mode", ["gated", "always_on"])
def test_a_coupling_past_the_compile_domain_is_refused_by_name(mode):
    # a zz(1e-11) block at Delta_12 = 1e308 lasts 2e-319: its gated detunings
    # overflowed into a segment row's bare ValueError, and qubit 2's bisection
    # bracket into "math domain error"
    dev = DeviceParams(QubitParams(0, 1), QubitParams(0, 1), 1e308)
    with pytest.raises(CompilationError, match=outside_domain("delta12", 1e308)):
        compile_schedule([GateSpec("rz", 1, 1.0), GateSpec("zz", None, 1e-11)], dev, mode)


DOMAIN_GATES = [GateSpec("rx", 1, 1.0), GateSpec("rx", 2, 1.0), GateSpec("rz", 1, 0.5),
                GateSpec("zz", None, 1.0)]


def edge_device(field, value):
    fields = {"a1": 1.0, "a2": 1.0, "delta12": 0.5, field: value}
    return DeviceParams(QubitParams(0.0, fields["a1"]), QubitParams(0.0, fields["a2"]),
                        fields["delta12"])


@pytest.mark.parametrize("field, edge, outward", [
    ("a1", 1e-150, 0.0), ("a1", 1e150, math.inf), ("a2", 1e-150, 0.0), ("a2", 1e150, math.inf),
    ("delta12", 1e-150, 0.0), ("delta12", 1e150, math.inf),
    ("delta12", -1e-150, 0.0), ("delta12", -1e150, -math.inf),
])
def test_compile_domain_holds_both_edges(field, edge, outward):
    # on the edge the compile gets past the domain check: gated mode
    # compiles, and always-on mode compiles or fails for its own reason
    # (parking on roundoff, here); one float further out it is refused
    assert compile_schedule(DOMAIN_GATES, edge_device(field, edge), "gated")[0].controls.size
    try:
        compile_schedule(DOMAIN_GATES, edge_device(field, edge), "always_on")
    except CompilationError as exc:
        assert "compile domain" not in str(exc)
    beyond = float(np.nextafter(edge, outward))
    for mode in ("gated", "always_on"):
        with pytest.raises(CompilationError, match=outside_domain(field, beyond)):
            compile_schedule(DOMAIN_GATES, edge_device(field, beyond), mode)


@pytest.mark.parametrize("mode", ["gated", "always_on"])
def test_zero_drive_and_zero_coupling_keep_their_own_refusals(mode):
    # zero is inside the compile domain: each meets its step's refusal
    with pytest.raises(CompilationError, match="^qubit 2 has no drive"):
        compile_schedule(DOMAIN_GATES, edge_device("a2", 0.0), mode)
    with pytest.raises(CompilationError, match="^coupling absent"):
        compile_schedule(DOMAIN_GATES, edge_device("delta12", 0.0), mode)


def test_qubit_1_parking_search_fails_within_its_candidate_cap(monkeypatch):
    # with a1 = 1e5 every candidate up to the cap flips qubit 1 past _FLIP_CAP
    monkeypatch.setattr(pulsecompiler, "_K_MAX", 1000)
    dev = DeviceParams(QubitParams(0.0, 1e5), QubitParams(0.0, 1.0), 0.5)
    with pytest.raises(CompilationError, match="no admissible always-on parking for qubit 1"):
        phase_block(HALF_PI, dev, "always_on", owing(0.3, 0.2))


def test_qubit_1_parking_search_fails_fast_at_its_real_cap():
    # the same search at the real _K_MAX: at the floor, the bound on both
    # flip caps skips every row on each side, so it fails in 0.12-0.28 ms
    # (measured); screening all 2e6 candidates from the floor took 0.13-0.19
    # s, the walk over every candidate 4 s
    dev = DeviceParams(QubitParams(0.0, 1e5), QubitParams(0.0, 1.0), 0.5)
    start = time.perf_counter()
    with pytest.raises(CompilationError, match="no admissible always-on parking for qubit 1"):
        phase_block(HALF_PI, dev, "always_on", owing(0.3, 0.2))
    assert time.perf_counter() - start < 1.0


def test_qubit_1_parking_search_fails_fast_from_a_low_start():
    # at |Delta_12| = 1e-5 the flip caps refuse no row near the floor, and
    # none of the rows up to _K_MAX is as far as sep = 100 from qubit 2's
    # detuning: the band skips them all from row 0, in 0.04-0.06 ms
    # (measured), where screening them in numpy took 0.18-0.23 s
    t = 4.0 * math.pi / 1e-5
    start = time.perf_counter()
    with pytest.raises(CompilationError, match="no admissible always-on parking for qubit 1"):
        pulsecompiler._control_parking(0.3, 1.0, t, 1e-5, 0.0, 100.0)
    assert time.perf_counter() - start < 1.0


def test_always_on_cnot_compiles_fast_at_weak_coupling():
    # at ratio 1e-3 the qubit-1 walk judges 35 failing rows over both
    # blocks and skips the other 5e4 below its picks: the whole CNOT compiles
    # in 0.73-0.79 ms (measured), against 0.9-1.2 ms screening in numpy from
    # a proven start row and 133-144 ms for a walk over every candidate
    times = []
    for _ in range(5):
        start = time.perf_counter()
        compile_cnot(_sweep_device(1e-3), "always_on")
        times.append(time.perf_counter() - start)
    assert sorted(times)[2] < 0.040


def test_qubit_1_walk_judges_few_rows_at_weak_coupling(monkeypatch):
    # each failing row the walk judges asks _control_rows_refused how many
    # rows after it to skip: over the CNOT's two blocks at ratio 1e-3 it
    # judges 35 (measured) and skips the other 5e4 below its picks
    judged = []
    rows_refused = pulsecompiler._control_rows_refused

    def recorded(*args):
        judged.append(rows_refused(*args))
        return judged[-1]

    monkeypatch.setattr(pulsecompiler, "_control_rows_refused", recorded)
    compile_cnot(_sweep_device(1e-3), "always_on")
    assert len(judged) <= 60 and sum(judged) > 10**4


# ---------------------------------------------------------------------------
# the skipping parking searches against the scalar walks over every candidate
# ---------------------------------------------------------------------------

def reference_exact_detuning(beta, a, t, shift):
    """Reference: qubit 2's search as a scalar walk that bisects every branch."""
    floor_abs = pulsecompiler._PARKING_FLOOR * a
    om_req = a * abs(math.sin(beta / 2.0)) / math.sqrt(pulsecompiler._FLIP_CAP)
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
                    and pulsecompiler._leakage(sign * root, a, t) <= pulsecompiler._FLIP_CAP):
                return delta
    raise CompilationError(
        f"no exact parking detuning found (target angle {beta:.4f} rad, "
        f"duration {t:.4f}, floor {floor_abs:.4f}, leak cap {pulsecompiler._FLIP_CAP:g})"
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


def test_qubit_1_walk_skips_only_rows_that_fail():
    # the three bounds in _control_parking's docstring, row by row: over
    # seeded draws from the property domain below, with delta2 in qubit 1's
    # own range so that the band lies in the walk's path, each row the walk
    # judges on either side skips only rows that fail the flip caps, widened
    # by _SCREEN_SLACK, or the separation (the floor refuses only more),
    # checked in numpy for up to 3000 rows per side and draw
    rng = np.random.default_rng(20261019)
    cap = pulsecompiler._FLIP_CAP * (1.0 + pulsecompiler._SCREEN_SLACK)

    def flips(d, a, t):
        om = np.hypot(d, a)
        return (a / om) ** 2 * np.sin(om * t) ** 2 <= cap

    skipped = checked = 0
    for _ in range(500):
        theta, a, a2, remainder, far, wide = (float(x) for x in rng.uniform(
            (-math.pi, 0.05, 0.05, pulsecompiler._ZZ_ROUNDOFF, 15.0, 0.0),
            (math.pi, 20.0, 20.0, 2.0 * math.pi, 40.0, 10.0)))
        d12 = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(0.5)))
        t = 2.0 * remainder / abs(d12)
        delta2, sep = float(rng.choice([1.0, -1.0])) * far * a, wide * max(a, a2)
        shift, floor_abs = d12 / 4.0, pulsecompiler._PARKING_FLOOR * a
        first = {1: math.ceil(((floor_abs + shift) * 2.0 * t - theta) / (2.0 * math.pi)),
                 -1: math.floor(((-floor_abs + shift) * 2.0 * t - theta) / (2.0 * math.pi))}

        def row(side, i):  # a row's detuning, as _control_parking builds it
            return (theta + 2.0 * math.pi * (first[side] + side * i)) / (2.0 * t) - shift

        def passes(d):
            return (flips(d, a, t) & flips(d + d12 / 2.0, a, t)
                    & (np.abs(d - delta2) >= sep) & (np.abs(d + delta2) >= sep))

        for side in (1, -1):
            i, budget = 0, 3000
            while i < pulsecompiler._K_MAX and budget > 0:
                n = pulsecompiler._control_rows_refused(row(side, i), side, a, t, d12, delta2, sep)
                d = row(side, np.arange(i + 1, i + 1 + min(n, budget), dtype=float))
                assert not passes(d).any(), (theta, a, t, d12, delta2, sep, side, i)
                skipped, checked, budget = skipped + n, checked + d.size, budget - d.size - 1
                i += 1 + n
                if passes(row(side, i)):
                    break  # the walk's pick, or as good as
    # 1.6e6 of the 2.3e7 rows skipped are checked
    assert checked > 10**6 and skipped > 10**7


def test_qubit_1_walk_toward_zero_skips_only_rows_that_fail():
    # with |Delta_12| / 2 above the floor 10 a, the branch D_2 = delta +
    # Delta_12 / 2 of the rows past the floor moves toward 0 as the walk moves
    # out (the up side for Delta_12 < 0, the down side for Delta_12 > 0),
    # where neither its chord bound nor its Omega_min holds.  A zz remainder
    # r gives a block t = 2 r / |Delta_12|, which puts fewer than r / pi rows
    # there, so r is drawn log-uniform in [2 pi, 1000] to reach the walk's
    # longer skips.  Over seeded draws with a1 in [0.005, 0.02] and |Delta_12|
    # in [0.3, 0.5], both signs, each row a side's walk judges skips only
    # rows that fail the scalar test, and the search picks the reference
    # walk's float or raises its error
    rng = np.random.default_rng(20261020)
    cap = pulsecompiler._FLIP_CAP

    def passes(d, a, t, d12, delta2, sep):
        ok = (np.abs(d) >= pulsecompiler._PARKING_FLOOR * a)
        ok &= (np.abs(d - delta2) >= sep) & (np.abs(d + delta2) >= sep)
        for branch in (d, d + d12 / 2.0):
            om = np.hypot(branch, a)
            ok &= (a / om) ** 2 * np.sin(om * t) ** 2 <= cap
        return ok

    inward = 0
    for _ in range(200):
        theta, a, a2, far, wide = (float(x) for x in rng.uniform(
            (-math.pi, 0.005, 0.005, 15.0, 0.0), (math.pi, 0.02, 0.02, 40.0, 10.0)))
        d12 = float(rng.choice([1.0, -1.0]) * rng.uniform(0.3, 0.5))
        t = 2.0 * 10.0 ** float(rng.uniform(math.log10(2.0 * math.pi), 3.0)) / abs(d12)
        delta2, sep = float(rng.choice([1.0, -1.0])) * far * a, wide * max(a, a2)
        args = (theta, a, t, d12, delta2, sep)
        assert (search_outcome(pulsecompiler._control_parking, *args)
                == search_outcome(reference_control_parking, *args)), args
        shift, floor_abs = d12 / 4.0, pulsecompiler._PARKING_FLOOR * a
        first = {1: math.ceil(((floor_abs + shift) * 2.0 * t - theta) / (2.0 * math.pi)),
                 -1: math.floor(((-floor_abs + shift) * 2.0 * t - theta) / (2.0 * math.pi))}

        def row(side, i):  # a row's detuning, as _control_parking builds it
            return (theta + 2.0 * math.pi * (first[side] + side * i)) / (2.0 * t) - shift

        for side in (1, -1):
            i = 0
            while i < 3000 and not passes(row(side, i), *args[1:]):
                inward += side * (row(side, i) + d12 / 2.0) < 0.0
                n = pulsecompiler._control_rows_refused(row(side, i), side, *args[1:])
                skipped = row(side, np.arange(i + 1, i + 1 + min(n, 3000), dtype=float))
                assert not passes(skipped, *args[1:]).any(), (args, side, i)
                i += 1 + n
    assert inward > 500  # failing rows judged on a branch that moves toward 0


def test_qubit_1_phase_drift_bound_takes_the_drive_on_a_branch_moving_toward_zero():
    # row 14 of the up side at Delta_12 = -0.4, a = 0.01, t = 2e4 (a block
    # of zz remainder 4000), theta = 2: D_2 = -0.0978 moves toward 0, where
    # Omega_2 and the per-row motion of phi grow as the walk goes on, so phi's
    # drift is bounded with Omega_min = a and the both-caps bound skips no
    # row.  Omega_min taken from this row (0.098) would let it skip 10: the
    # dropped last row absorbs that over every draw of the test above, so
    # only this row-level check sees it
    a, t, d12, theta = 0.01, 2e4, -0.4, 2.0
    k = math.ceil(((pulsecompiler._PARKING_FLOOR * a + d12 / 4.0) * 2.0 * t - theta)
                  / (2.0 * math.pi)) + 14
    delta = (theta + 2.0 * math.pi * k) / (2.0 * t) - d12 / 4.0
    assert -0.098 < delta + d12 / 2.0 < -0.097
    assert pulsecompiler._control_rows_refused(delta, 1, a, t, d12, 0.0, 0.0) == 0


def search_outcome(search, *args):
    """The detuning a search returns, as float.hex, or its error message."""
    try:
        return search(*args).hex()
    except CompilationError as err:
        return str(err)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_parking_searches_pick_the_scalar_walks_float(seed):
    # theta and beta uniform in (-pi, pi], a1 and a2 in [0.05, 20], the zz
    # remainder r in [_ZZ_ROUNDOFF, 2 pi], |Delta_12| log-uniform in
    # [1e-3, 0.5] with both signs: numpy draws from a hypothesis seed, since
    # hypothesis's floats put about half the examples on a range's end
    rng = np.random.default_rng(seed)
    theta, beta = (-float(x) for x in rng.uniform(-math.pi, math.pi, 2))
    a1, a2, remainder = (float(x) for x in rng.uniform(
        (0.05, 0.05, pulsecompiler._ZZ_ROUNDOFF), (20.0, 20.0, 2.0 * math.pi)))
    d12 = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(0.5)))
    # a block of zz remainder r lasts t = 2 r / |Delta_12|; qubit 2 is solved
    # on the qubit-1-excited branch, and qubit 1 keeps clear of its pick
    t = 2.0 * remainder / abs(d12)
    q2 = search_outcome(pulsecompiler._exact_detuning, beta, a2, t, d12 / 2.0)
    assert q2 == search_outcome(reference_exact_detuning, beta, a2, t, d12 / 2.0)
    delta2 = float.fromhex(q2) if q2.startswith(("0x", "-0x")) else 0.0
    args = (theta, a1, t, d12, delta2, pulsecompiler._SEPARATION_MIN * max(a1, a2))
    assert (search_outcome(pulsecompiler._control_parking, *args)
            == search_outcome(reference_control_parking, *args))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_qubit_1_search_picks_the_scalar_walks_float_past_the_band(seed):
    # delta2 inside qubit 1's own range (15 a1 to 40 a1, either sign) and
    # sep up to 10 max(a1, a2), so that the band around +-delta2 often lies
    # between the floor and the pick, where qubit 2's own solve rarely puts
    # it (the band moved the pick in 113 of 400 seeds); |Delta_12|
    # log-uniform in [1e-2, 0.5] keeps the reference walk short
    rng = np.random.default_rng(seed)
    theta = -float(rng.uniform(-math.pi, math.pi))
    a1, a2, remainder, far, wide = (float(x) for x in rng.uniform(
        (0.05, 0.05, pulsecompiler._ZZ_ROUNDOFF, 15.0, 0.0),
        (20.0, 20.0, 2.0 * math.pi, 40.0, 10.0)))
    d12 = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-2.0, math.log10(0.5)))
    delta2 = float(rng.choice([1.0, -1.0])) * far * a1
    t = 2.0 * remainder / abs(d12)
    args = (theta, a1, t, d12, delta2, wide * max(a1, a2))
    assert (search_outcome(pulsecompiler._control_parking, *args)
            == search_outcome(reference_control_parking, *args))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_qubit_2_search_picks_the_scalar_walks_float_at_weak_coupling(seed):
    # |Delta_12| log-uniform in [1e-5, 1e-3], drawn by numpy because
    # hypothesis's floats crowd the ends of a range.  A block is then long,
    # so its branches step Omega finely: the walk skips hundreds of them, and
    # most solves run out of branches and must fail with the reference's
    # message.
    rng = np.random.default_rng(seed)
    beta, a2, remainder = (float(x) for x in rng.uniform(
        (-math.pi, 0.05, pulsecompiler._ZZ_ROUNDOFF), (math.pi, 20.0, 2.0 * math.pi)))
    d12 = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-5.0, -3.0))
    t = 2.0 * remainder / abs(d12)
    assert (search_outcome(pulsecompiler._exact_detuning, beta, a2, t, d12 / 2.0)
            == search_outcome(reference_exact_detuning, beta, a2, t, d12 / 2.0))
