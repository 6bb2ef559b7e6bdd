"""Properties of compiled gate lists over random lists, couplings of both
signs and both drive modes."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from capqubit import checks
from capqubit.hamiltonian import DeviceParams, QubitParams
from capqubit.pulsecompiler import CompilationError, GateSpec, compile_schedule, verify_schedule

# Gated physical distance of a gate list per unit |ratio|.  One gate costs at
# most pi/sqrt(2) |ratio| (an x pulse of nearly 2 pi; a CNOT's two pulses
# cost 1.7 |ratio|), phase blocks are exact, and distances of a product add
# at most linearly; the same bound as the gate-list benchmark workload.
GATE_LIST_DISTANCE_PER_RATIO = 14.0

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
    assert compiled[-1].ledger_after.is_phase_neutral
    report = verify_schedule(schedule, checks.ideal_product(gates), 1.0)
    assert report["distance"] <= GATE_LIST_DISTANCE_PER_RATIO * abs(ratio)


@settings(max_examples=20)
@given(gates=_gate_lists, ratio=_ratios)
def test_always_on_gate_lists_compose(gates, ratio):
    # a parking search may fail, but only with a CompilationError
    try:
        _, compiled = compile_schedule(gates, _device(ratio), "always_on")
    except CompilationError:
        return
    assert checks.composition_error(gates, compiled) <= checks.COMPOSITION_TOL
