"""Coupling-strength sweep experiments on the compiled CNOT.

The central numerical experiment: apply the compiled CNOT to the doubly
excited initial state psi_i = (1, 0, 0, 0) and record how faithfully the
population transfers to |1>|0> as the coupling-to-drive ratio Delta_12 / a
grows, in both drive modes.  In the weak-coupling regime the amplitude of
the |1>|0> component should stay near 1 and its phase near the small-
coupling limit; the always-on mode should show larger phase deviations than
the gated mode.

Phases are reported as deviations from each mode's own small-coupling
baseline (default ratio 1e-3) because the absolute phase is convention
dependent; the absolute phase is carried alongside so the convention is
auditable.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import DeviceParams, QubitParams, effective_levels
from .evolution import propagate
from .linalg import _require_finite, distance_up_to_global_phase, wrap_angle
from .pulsecompiler import (
    CompilationError,
    GateSpec,
    _require_mode,
    compile_cnot,
    ideal_gate,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "cnot_response",
    "run_sweep",
    "levels_table",
    "INITIAL_STATE",
]

INITIAL_STATE = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
_CNOT = ideal_gate(GateSpec("cnot"))
_SPACINGS = ("log", "linear")
_MAX_POINTS = 10**4


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition for a coupling sweep."""

    ratio_min: float
    ratio_max: float
    points: int
    spacing: str = "log"
    modes: tuple = ("gated",)
    baseline_ratio: float = 1e-3

    def __post_init__(self):
        _require_finite("ratio_min", self.ratio_min)
        _require_finite("ratio_max", self.ratio_max)
        _require_finite("baseline_ratio", self.baseline_ratio)
        if self.ratio_min <= 0.0 or self.baseline_ratio <= 0.0:
            raise ValueError("ratios must be > 0")
        if self.ratio_min >= self.ratio_max:
            raise ValueError(
                f"ratio_min must be < ratio_max, got {self.ratio_min} >= {self.ratio_max}"
            )
        try:
            points = operator.index(self.points)
        except TypeError:
            raise ValueError(f"points must be an integer, got {self.points!r}") from None
        if not (2 <= points <= _MAX_POINTS):
            raise ValueError(f"points must be in [2, {_MAX_POINTS}], got {points}")
        object.__setattr__(self, "points", points)
        if self.spacing not in _SPACINGS:
            raise ValueError(f"spacing must be one of {_SPACINGS}, got {self.spacing!r}")
        modes = tuple(dict.fromkeys(self.modes))
        if not modes:
            raise ValueError("at least one mode is required")
        for mode in modes:
            _require_mode(mode)
        object.__setattr__(self, "modes", modes)

    def grid(self):
        """The ratio grid, ascending."""
        if self.spacing == "log":
            return np.logspace(
                math.log10(self.ratio_min), math.log10(self.ratio_max), self.points
            )
        return np.linspace(self.ratio_min, self.ratio_max, self.points)


@dataclass(frozen=True)
class SweepRow:
    """One sweep record: the |1>|0> component's amplitude and phase, the
    phase deviation from the mode baseline, and gate-level diagnostics."""

    ratio: float
    mode: str
    amplitude: float
    phase: float
    phase_deviation: float
    gate_distance: float
    leakage: float


def _sweep_device(ratio):
    """The experiment's device: unit drives, idle levels, coupling = ratio."""
    return DeviceParams(
        q1=QubitParams(delta=0.0, a=1.0),
        q2=QubitParams(delta=0.0, a=1.0),
        delta12=ratio,
    )


def cnot_response(ratio, mode):
    """Compile and run the CNOT at one coupling ratio.

    Returns a SweepRow with baseline-free fields (phase_deviation is 0.0
    here; ``run_sweep`` fills it in against the configured baseline).
    """
    _require_finite("ratio", ratio)
    if ratio <= 0.0:
        raise ValueError(f"ratio must be > 0, got {ratio}")
    try:
        schedule = compile_cnot(_sweep_device(ratio), mode)
    except CompilationError as exc:
        raise CompilationError(f"ratio {ratio:g}, mode {mode}: {exc}") from exc
    result = propagate(schedule, INITIAL_STATE)
    component = result.final_state[1]  # the |1>|0> slot
    amplitude = abs(component)
    phase = wrap_angle(math.atan2(component.imag, component.real))
    return SweepRow(
        ratio=float(ratio),
        mode=mode,
        amplitude=float(amplitude),
        phase=float(phase),
        phase_deviation=0.0,
        gate_distance=distance_up_to_global_phase(result.total_propagator, _CNOT),
        leakage=float(1.0 - amplitude**2),
    )


def run_sweep(cfg: SweepConfig):
    """Evaluate cnot_response over the grid for each requested mode.

    Rows are ordered by (mode, ratio ascending); phase deviations are taken
    against the same mode's run at cfg.baseline_ratio and wrapped.  The
    function is pure: identical configs give bit-identical rows.
    """
    grid = cfg.grid()
    rows = []
    for mode in sorted(cfg.modes):
        baseline = cnot_response(cfg.baseline_ratio, mode)
        for ratio in grid:
            row = cnot_response(float(ratio), mode)
            rows.append(
                replace(row, phase_deviation=wrap_angle(row.phase - baseline.phase))
            )
    return rows


def levels_table(device: DeviceParams):
    """Effective level splittings of both qubits for both neighbor states.

    Returns four (qubit, neighbor_state, energy) tuples with neighbor_state
    in {"excited", "ground"}.
    """
    table = []
    for qubit in (1, 2):
        for neighbor_state, excited in (("excited", True), ("ground", False)):
            table.append(
                (qubit, neighbor_state, effective_levels(device, qubit, excited))
            )
    return table
