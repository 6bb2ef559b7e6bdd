"""Properties of compiled gate lists over random lists, couplings of both
signs and both drive modes."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from capqubit import checks
from capqubit.hamiltonian import DeviceParams, QubitParams
from capqubit.linalg import wrap_angle
from capqubit.pulsecompiler import (
    _FLIP_CAP,
    CompilationError,
    GateSpec,
    compile_schedule,
    ideal_product,
    verify_schedule,
)

# The compiler admits a parking detuning right at its cap, and this test
# recomputes the flip probability from the stored detuning plus the branch
# shift, which may differ from the compiler's value by an ulp.  The cap binds
# only while Omega < a / sqrt(cap), about 32 a; there an ulp of the detuning
# times t <= 4 pi / 1e-3 moves Omega t by under 5e-11, and sin^2 by under
# 3e-10 relative.
CAP_SLACK = 1e-9
# A rotation spectator sits on a full generalized-Rabi cycle, Omega t = m pi,
# so its flip probability is zero up to roundoff in Omega t, about
# (a t eps)^2 < 1e-30 for t <= pi / a.
SPECTATOR_FLIP_MAX = 1e-20

_angles = st.floats(-math.pi, math.pi, exclude_min=True)
_gates = st.one_of(
    st.builds(GateSpec, st.sampled_from(["rx", "ry", "rz"]), st.sampled_from([1, 2]), _angles),
    st.builds(lambda angle: GateSpec("zz", angle=angle), _angles),
    st.just(GateSpec("cnot")),
)
_gate_lists = st.lists(_gates, min_size=1, max_size=5)
_ratios = st.builds(lambda r, sign: sign * r, st.floats(1e-3, 0.5), st.sampled_from([1.0, -1.0]))


def _device(ratio):
    return DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 1.0), ratio)


def _flip(detuning, a, t):
    """Flip probability of a driven qubit at effective detuning D after t:
    (a/Omega)^2 sin^2(Omega t), Omega = sqrt(D^2 + a^2)."""
    omega = math.hypot(detuning, a)
    return (a / omega) ** 2 * math.sin(omega * t) ** 2


@settings(max_examples=100)
@given(gates=_gate_lists, ratio=_ratios)
def test_gated_gate_lists(gates, ratio):
    try:
        schedule, compiled = compile_schedule(gates, _device(ratio), "gated")
    except CompilationError:
        # only a list of virtual content netting to no rotation emits nothing
        assert checks.composition_error(gates, ()) <= checks.COMPOSITION_TOL
        return
    assert checks.composition_error(gates, compiled) <= checks.COMPOSITION_TOL
    # the closing block settles the coupling surplus of the last drive, which
    # composition_error cannot see: a drive ends the schedule only if what it
    # booked wraps to zero
    last = schedule.segments[-1]
    assert last.label.startswith("block(") or wrap_angle(ratio * last.duration / 2.0) == 0.0
    report = verify_schedule(schedule, ideal_product(gates), 1.0)
    assert report["distance"] <= checks.GATE_LIST_DISTANCE_PER_RATIO * abs(ratio)


@settings(max_examples=100)
@given(gates=_gate_lists, ratio=_ratios)
def test_always_on_gate_lists_compose(gates, ratio):
    # a parking search may fail, but only with a CompilationError
    try:
        schedule, compiled = compile_schedule(gates, _device(ratio), "always_on")
    except CompilationError:
        return
    assert checks.composition_error(gates, compiled) <= checks.COMPOSITION_TOL
    for seg in schedule.segments:
        t = seg.duration
        if seg.label.startswith("block"):
            # qubit 1 on both neighbour branches, qubit 2 where qubit 1 is excited
            for d1 in (seg.delta1, seg.delta1 + ratio / 2.0):
                assert _flip(d1, seg.a1, t) <= _FLIP_CAP * (1.0 + CAP_SLACK)
            assert _flip(seg.delta2 + ratio / 2.0, seg.a2, t) <= _FLIP_CAP * (1.0 + CAP_SLACK)
        else:  # an x pulse; the other qubit is its parked spectator
            d, a = (seg.delta2, seg.a2) if seg.label.startswith("rx(q1") else (seg.delta1, seg.a1)
            assert _flip(d + ratio / 4.0, a, t) <= SPECTATOR_FLIP_MAX
