"""Acceptance gate: the nine end-to-end claims this package is built to.

Each test states one claim with its tolerance pinned; `pytest -v` gives the
one-line pass/fail verdict per criterion.  Criteria 1-4 and 9 measure with
the functions of `capqubit.checks` and compare against its tolerances, the
ones `capqubit verify` uses, on draws of their own.  The amplitude/phase
thresholds in criteria 5 and 6 are the calibrated constants of
`capqubit.checks`, recorded with the build, not free parameters.
"""

import time

import numpy as np
import pytest

from capqubit import checks
from capqubit.cli import main
from capqubit.evolution import PulseSegment, Schedule
from capqubit.experiments import (INITIAL_STATE, SweepConfig, _sweep_device, cnot_response,
                                  run_sweep)
from capqubit.hamiltonian import DeviceParams, QubitParams
from capqubit.pulsecompiler import GateSpec, compile_cnot, compile_schedule


@pytest.fixture(scope="module")
def sweep_results():
    """The canonical 50-point sweep over both modes, run once and timed."""
    cfg = SweepConfig(
        ratio_min=1e-3,
        ratio_max=0.5,
        points=50,
        spacing="log",
        modes=("gated", "always_on"),
        baseline_ratio=1e-3,
    )
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_hamiltonian_identity():
    # tensor-product and Pauli-form builders agree elementwise to the
    # builder-identity tolerance over 1e4 uniform draws in [-5, 5]; wall
    # clock under 1 s
    rng = np.random.default_rng(20250801)
    start = time.perf_counter()
    worst, _ = checks.builder_identity_error(
        DeviceParams(QubitParams(d1, abs(a1)), QubitParams(d2, abs(a2)), d12)
        for d1, d2, a1, a2, d12 in (rng.uniform(-5.0, 5.0, 5) for _ in range(10**4)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max elementwise diff {worst:.3e} in {elapsed:.2f}s")
    assert worst <= checks.BUILDER_IDENTITY_TOL
    assert elapsed < 1.0


def test_criterion_2_effective_levels_exact():
    # with drives off, conditional splittings from the Hamiltonian diagonal
    # reproduce effective_levels exactly over 1e3 draws (dyadic inputs, so
    # the algebra is exact in floating point)
    rng = np.random.default_rng(20250802)
    dyadic = (tuple(float(rng.integers(-320, 321)) / 64.0 for _ in range(3))
              for _ in range(10**3))
    worst = checks.effective_levels_error(
        DeviceParams(QubitParams(d1, 0.0), QubitParams(d2, 0.0), d12) for d1, d2, d12 in dyadic)
    print(f"criterion 2: max level mismatch {worst:.3e}")
    assert worst <= checks.LEVELS_TOL


def test_criterion_3_exact_vs_rk4():
    # the diagonalization evolver and fixed-step RK4 (dt = T/1e5) agree to
    # the RK4 state tolerance on 100 random schedules and on the compiled
    # CNOT at coupling ratios 0.05 and 0.1; under 5 s total, against
    # 0.03-0.04 s (measured) with one stacked squaring chain per schedule,
    # 0.09 s squaring each segment apart and 16-25 s for a step-by-step RK4
    # loop
    rng = np.random.default_rng(20250803)

    def draw():
        n = int(rng.integers(1, 6))
        segs = tuple(
            PulseSegment(duration=float(rng.uniform(0.1, 3.0)),
                         delta1=float(rng.uniform(-2.0, 2.0)),
                         delta2=float(rng.uniform(-2.0, 2.0)),
                         a1=float(rng.uniform(0.0, 2.0)), a2=float(rng.uniform(0.0, 2.0)))
            for _ in range(n)
        )
        sched = Schedule(segments=segs, device=_sweep_device(float(rng.uniform(-0.5, 0.5))))
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return sched, psi / np.linalg.norm(psi)

    start = time.perf_counter()
    worst_random = checks.rk4_state_error(draw() for _ in range(100))
    worst_cnot = checks.rk4_state_error(
        (compile_cnot(_sweep_device(ratio), "gated"), INITIAL_STATE) for ratio in (0.05, 0.1)
    )
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3: state error {worst_random:.3e} (random), "
        f"{worst_cnot:.3e} (CNOT) in {elapsed:.1f}s"
    )
    assert worst_random <= checks.RK4_TOL
    assert worst_cnot <= checks.RK4_TOL
    assert elapsed < 5.0


def test_criterion_4_ideal_composition_is_cnot():
    # the compiled sequence's gate content composes to CNOT within the
    # composition tolerance (global phase factored out); under 1 s
    start = time.perf_counter()
    cnot = [GateSpec("cnot")]
    worst = max(checks.composition_error(cnot, compile_schedule(cnot, _sweep_device(ratio), "gated")[1])
                for ratio in (0.05, 0.1))
    elapsed = time.perf_counter() - start
    print(f"criterion 4: composition distance {worst:.3e} in {elapsed:.2f}s")
    assert worst <= checks.COMPOSITION_TOL
    assert elapsed < 1.0


def test_criterion_5_gated_fidelity_and_phase(sweep_results):
    # gated mode from |1>|1>: target-component amplitude >= GATED_AMP_MIN_WEAK
    # at ratio 0.01 and >= GATED_AMP_MIN on every grid ratio <= 0.1; phase
    # deviation from the 1e-3 baseline <= GATED_PHASE_DEV_MAX rad for ratios
    # <= 0.1; the 50-point sweep finishes inside 60 s.
    rows, elapsed = sweep_results
    spot = cnot_response(0.01, "gated")
    gated = [r for r in rows if r.mode == "gated" and r.ratio <= 0.1]
    min_amp = min(r.amplitude for r in gated)
    max_dev = max(abs(r.phase_deviation) for r in gated)
    print(
        f"criterion 5: amp(0.01) {spot.amplitude:.6f}, grid min amp {min_amp:.6f}, "
        f"max |phase dev| {max_dev:.6f} rad, sweep {elapsed:.2f}s"
    )
    assert spot.amplitude >= checks.GATED_AMP_MIN_WEAK
    assert min_amp >= checks.GATED_AMP_MIN
    assert max_dev <= checks.GATED_PHASE_DEV_MAX
    assert elapsed < 60.0


def test_criterion_6_always_on_deviates_more(sweep_results):
    # for every grid ratio in [0.01, 0.3] the always-on phase deviation is
    # at least the gated one, and for ratios <= 0.1 each mode stays inside
    # its amplitude floor, GATED_AMP_MIN and ALWAYS_ON_AMP_MIN
    rows, _ = sweep_results
    gated = {r.ratio: r for r in rows if r.mode == "gated"}
    always = {r.ratio: r for r in rows if r.mode == "always_on"}
    assert gated.keys() == always.keys()
    compared = 0
    for ratio in gated:
        if 0.01 <= ratio <= 0.3:
            assert abs(always[ratio].phase_deviation) >= abs(gated[ratio].phase_deviation)
            compared += 1
    gated_floor, always_floor = (min(r.amplitude for r in by_ratio.values() if r.ratio <= 0.1)
                                 for by_ratio in (gated, always))
    print(f"criterion 6: ordering held at {compared} ratios, min amp "
          f"{gated_floor:.6f} (gated), {always_floor:.6f} (always-on)")
    assert compared >= 10
    assert gated_floor >= checks.GATED_AMP_MIN
    assert always_floor >= checks.ALWAYS_ON_AMP_MIN


def test_criterion_7_distance_grows_tenfold():
    # the gated gate distance at ratio 0.5 exceeds ten times its value at
    # ratio 0.01
    d_small = cnot_response(0.01, "gated").gate_distance
    d_large = cnot_response(0.5, "gated").gate_distance
    print(f"criterion 7: distance {d_small:.6f} -> {d_large:.6f} "
          f"(factor {d_large / d_small:.1f})")
    assert d_large >= 10.0 * d_small


def test_criterion_8_sweep_is_reproducible(tmp_path):
    # two consecutive CLI sweep runs produce byte-identical CSV files
    args = [
        "sweep", "--min", "0.001", "--max", "0.5", "--points", "50",
        "--mode", "both",
    ]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    b1, b2 = first.read_bytes(), second.read_bytes()
    print(f"criterion 8: {len(b1)} bytes, identical = {b1 == b2}")
    assert b1 == b2
    assert len(b1.split(b"\n")) == 102  # header + 100 rows + trailing newline


def test_criterion_9_capacitive_is_dipole_plus_shifts():
    # the paper's headline identity: the capacitive coupling at Delta12 is
    # the dipole-dipole one at Delta12/4 plus single-qubit shifts and a
    # constant, to the dipole-equivalence tolerance over 1e4 couplings in
    # [-5, 5]
    rng = np.random.default_rng(20250809)
    worst = checks.dipole_equivalence_error(rng.uniform(-5.0, 5.0, 10**4))
    print(f"criterion 9: max entry of capacitive - dipole - shifts {worst:.3e}")
    assert worst <= checks.DIPOLE_EQUIVALENCE_TOL
