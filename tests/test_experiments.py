"""Tests for the coupling-sweep experiment layer."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capqubit.cli import main
from capqubit.experiments import (
    SweepConfig,
    SweepRow,
    cnot_response,
    run_sweep,
)
from capqubit.hamiltonian import DeviceParams, QubitParams, effective_levels
from capqubit.linalg import wrap_angle
from capqubit.pulsecompiler import CompilationError


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.0, ratio_max=0.1, points=5)
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.2, ratio_max=0.1, points=5)
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.01, ratio_max=0.1, points=1)
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.01, ratio_max=0.1, points=10**5)
    for points in (2.7, "7"):
        with pytest.raises(ValueError, match=f"points must be an integer, got {points!r}"):
            SweepConfig(ratio_min=0.01, ratio_max=0.1, points=points)
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5, spacing="sqrt")
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5, modes=("pulsed",))
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5, modes=())
    with pytest.raises(ValueError):
        SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5, baseline_ratio=-1.0)


def test_sweep_config_rejects_a_string_of_modes():
    # a bare string used to be read one character at a time, naming mode 'g'
    with pytest.raises(ValueError,
                       match="modes must be a sequence of modes, got the string 'gated'"):
        SweepConfig(0.01, 0.1, 5, modes="gated")


def test_sweep_config_names_modes_it_cannot_read():
    # each mode is checked before deduplication hashes it
    with pytest.raises(ValueError, match="modes must be a sequence of modes, got None"):
        SweepConfig(0.01, 0.1, 5, modes=None)
    with pytest.raises(ValueError, match=re.escape("mode must be one of ('gated', 'always_on'), "
                                                   "got ['gated']")):
        SweepConfig(0.01, 0.1, 5, modes=[["gated"]])


def test_sweep_config_deduplicates_modes():
    cfg = SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5,
                      modes=("gated", "gated", "always_on"))
    assert cfg.modes == ("gated", "always_on")


def test_sweep_config_grids():
    cfg = SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5, spacing="log")
    grid = cfg.grid()
    assert grid[0] == pytest.approx(0.01, rel=1e-12)
    assert grid[-1] == pytest.approx(0.1, rel=1e-12)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)  # geometric
    lin = SweepConfig(ratio_min=0.1, ratio_max=0.5, points=5, spacing="linear").grid()
    assert np.allclose(np.diff(lin), 0.1, atol=1e-12)


def test_cnot_response_validation():
    with pytest.raises(ValueError):
        cnot_response(0.0, "gated")
    with pytest.raises(ValueError):
        cnot_response(-0.1, "gated")


@pytest.mark.parametrize("mode", ["gated", "always_on"])
def test_cnot_response_fields_consistent(mode):
    row = cnot_response(0.05, mode)
    assert isinstance(row, SweepRow)
    assert row.mode == mode
    assert row.ratio == 0.05
    assert 0.0 <= row.amplitude <= 1.0 + 1e-12
    assert abs(row.leakage - (1.0 - row.amplitude**2)) <= 1e-15
    assert -math.pi < row.phase <= math.pi
    assert row.phase_deviation == 0.0  # baseline-free by construction
    assert row.gate_distance >= 0.0


def test_cnot_response_weak_coupling_point():
    # the headline operating point: coupling 1% of the drive
    row = cnot_response(0.01, "gated")
    assert row.amplitude >= 0.999
    assert 0.01 < row.gate_distance < 0.02
    assert row.leakage <= 2e-3


def test_cnot_response_is_deterministic():
    a = cnot_response(0.037, "gated")
    b = cnot_response(0.037, "gated")
    assert a == b  # bit-identical fields, not just close


def test_gate_distance_grows_with_coupling():
    ratios = [0.01, 0.05, 0.1, 0.2, 0.3]
    distances = [cnot_response(r, "gated").gate_distance for r in ratios]
    assert all(d2 > d1 for d1, d2 in zip(distances, distances[1:]))


def test_always_on_deviates_more_than_gated():
    baseline = {m: cnot_response(1e-3, m) for m in ("gated", "always_on")}
    for ratio in (0.02, 0.05, 0.1):
        devs = {}
        for mode in ("gated", "always_on"):
            row = cnot_response(ratio, mode)
            devs[mode] = abs(row.phase - baseline[mode].phase)
        assert devs["always_on"] >= devs["gated"]


def test_run_sweep_rows_and_ordering():
    cfg = SweepConfig(ratio_min=0.01, ratio_max=0.1, points=4,
                      modes=("gated", "always_on"))
    rows = run_sweep(cfg)
    assert len(rows) == 8
    keys = [(r.mode, r.ratio) for r in rows]
    assert keys == sorted(keys)
    assert {r.mode for r in rows} == {"gated", "always_on"}


def test_run_sweep_baseline_coincident_deviation_is_zero():
    # when the grid starts at the baseline ratio, that row's deviation
    # wraps to exactly zero
    cfg = SweepConfig(ratio_min=1e-3, ratio_max=0.1, points=3, modes=("gated",))
    rows = run_sweep(cfg)
    assert rows[0].ratio == pytest.approx(1e-3, rel=1e-12)
    assert rows[0].phase_deviation == 0.0


def test_run_sweep_deviation_matches_baseline_difference():
    from capqubit.linalg import wrap_angle

    cfg = SweepConfig(ratio_min=0.02, ratio_max=0.08, points=3, modes=("gated",))
    rows = run_sweep(cfg)
    baseline = cnot_response(cfg.baseline_ratio, "gated")
    for row in rows:
        bare = cnot_response(row.ratio, "gated")
        assert row.phase_deviation == wrap_angle(bare.phase - baseline.phase)


def test_run_sweep_is_deterministic():
    cfg = SweepConfig(ratio_min=0.01, ratio_max=0.1, points=3,
                      modes=("always_on", "gated"))
    assert run_sweep(cfg) == run_sweep(cfg)


def reference_run_sweep(cfg):
    """Reference: one cnot_response per point, baseline first in each mode."""
    rows = []
    for mode in sorted(cfg.modes):
        baseline = cnot_response(cfg.baseline_ratio, mode)
        for ratio in cfg.grid():
            row = cnot_response(float(ratio), mode)
            rows.append(replace(row, phase_deviation=wrap_angle(row.phase - baseline.phase)))
    return rows


def row_bits(rows):
    return [(r.mode, *(float(v).hex() for v in (r.ratio, r.amplitude, r.phase,
                                                 r.phase_deviation, r.gate_distance,
                                                 r.leakage)))
            for r in rows]


@settings(max_examples=30)
@given(ends=st.lists(st.floats(-3.0, math.log10(0.5)), min_size=2, max_size=2, unique=True),
       points=st.integers(2, 6), spacing=st.sampled_from(["log", "linear"]),
       baseline=st.floats(-3.0, math.log10(0.5)),
       modes=st.sampled_from([("gated",), ("always_on",), ("always_on", "gated")]))
def test_run_sweep_rows_are_the_point_by_point_loop_bit_for_bit(ends, points, spacing,
                                                                baseline, modes):
    # log10 of every ratio in [-3, log10(0.5)], where both modes compile
    lo, hi = sorted(ends)
    assume(10.0**lo < 10.0**hi)
    cfg = SweepConfig(10.0**lo, 10.0**hi, points, spacing=spacing, modes=modes,
                      baseline_ratio=10.0**baseline)
    assert row_bits(run_sweep(cfg)) == row_bits(reference_run_sweep(cfg))


@pytest.mark.parametrize("modes", [("gated",), ("always_on",), ("gated", "always_on")])
def test_run_sweep_makes_one_eigendecomposition_per_mode(eigh_calls, modes):
    run_sweep(SweepConfig(ratio_min=0.01, ratio_max=0.1, points=5, modes=modes))
    assert len(eigh_calls) == len(modes)


@pytest.mark.parametrize("cfg", [
    # the baseline (1e-3) and 1e-4 compile; 1e-5, the grid's first point, fails
    SweepConfig(1e-5, 1e-3, 3, modes=("always_on",)),
    # the failing baseline comes before the failing grid point 5e-5
    SweepConfig(5e-5, 1e-3, 3, modes=("always_on",), baseline_ratio=1e-5),
    # every grid point fails; the first in ascending order is named
    SweepConfig(1e-5, 7e-5, 3, modes=("always_on",)),
], ids=["grid", "baseline", "ascending"])
def test_run_sweep_raises_the_first_compile_error_of_the_point_by_point_loop(cfg):
    with pytest.raises(CompilationError, match=r"^ratio 1e-05, mode always_on: "
                                               r"no exact parking detuning"):
        run_sweep(cfg)



def test_levels_table_example(capsys):
    # the levels table is the `levels` command's output: one row per qubit and
    # neighbour state, each energy the float effective_levels returns
    dev = DeviceParams(
        q1=QubitParams(delta=1.0, a=0.0),
        q2=QubitParams(delta=2.0, a=0.0),
        delta12=0.4,
    )
    assert main(["levels", "--d1", "1", "--d2", "2", "--d12", "0.4", "--precision", "17"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["qubit", "neighbor", "E"]
    table = [(int(q), state, float(e)) for q, state, e in map(str.split, lines)]
    assert table == [
        (1, "excited", pytest.approx(1.2, abs=1e-15)),
        (1, "ground", pytest.approx(1.0, abs=1e-15)),
        (2, "excited", pytest.approx(2.2, abs=1e-15)),
        (2, "ground", pytest.approx(2.0, abs=1e-15)),
    ]
    assert [e for _, _, e in table] == [effective_levels(dev, q, excited)
                                        for q in (1, 2) for excited in (True, False)]
