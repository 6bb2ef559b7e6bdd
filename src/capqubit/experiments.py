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

``cnot_response`` runs one point; ``run_sweep`` compiles every point of a
mode first and then propagates them all in one ``propagate_many`` call.
Both compile and read rows through the same two helpers, so a sweep row is
bit for bit the single point's.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .hamiltonian import DeviceParams, QubitParams
from .evolution import INITIAL_STATE, propagate, propagate_many
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
]

_CNOT = ideal_gate(GateSpec("cnot"))
_SPACINGS = ("log", "linear")
_MAX_POINTS = 10**4
_SWEEP_QUBIT = QubitParams(delta=0.0, a=1.0)


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
        if isinstance(self.modes, str):
            raise ValueError(f"modes must be a sequence of modes, got the string {self.modes!r}")
        try:
            modes = tuple(self.modes)
        except TypeError:
            raise ValueError(f"modes must be a sequence of modes, got {self.modes!r}") from None
        for mode in modes:  # before deduplicating, which hashes each mode
            _require_mode(mode)
        modes = tuple(dict.fromkeys(modes))
        if not modes:
            raise ValueError("at least one mode is required")
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
    return DeviceParams(q1=_SWEEP_QUBIT, q2=_SWEEP_QUBIT, delta12=ratio)


def _compile(ratio, mode):
    """The CNOT schedule at one coupling ratio; a compile failure names the
    ratio and mode."""
    try:
        return compile_cnot(_sweep_device(ratio), mode)
    except CompilationError as exc:
        raise CompilationError(f"ratio {ratio:g}, mode {mode}: {exc}") from exc


def _row(ratio, mode, result, baseline_phase=None):
    """The SweepRow of one CNOT run: its phase deviation is taken against
    baseline_phase, or is 0.0 without one."""
    component = result.final_state[1]  # the |1>|0> slot
    amplitude = abs(component)
    phase = wrap_angle(math.atan2(component.imag, component.real))
    return SweepRow(
        ratio=float(ratio),
        mode=mode,
        amplitude=float(amplitude),
        phase=float(phase),
        phase_deviation=(0.0 if baseline_phase is None
                         else wrap_angle(phase - baseline_phase)),
        gate_distance=distance_up_to_global_phase(result.total_propagator, _CNOT),
        leakage=float(1.0 - amplitude**2),
    )


def cnot_response(ratio, mode):
    """Compile and run the CNOT at one coupling ratio.

    Returns a SweepRow with baseline-free fields (phase_deviation is 0.0
    here; ``run_sweep`` fills it in against the configured baseline).
    """
    _require_finite("ratio", ratio)
    if ratio <= 0.0:
        raise ValueError(f"ratio must be > 0, got {ratio}")
    return _row(ratio, mode, propagate(_compile(ratio, mode), INITIAL_STATE))


def run_sweep(cfg: SweepConfig):
    """Evaluate the CNOT response over the grid for each requested mode.

    Rows are ordered by (mode, ratio ascending); phase deviations are taken
    against the same mode's run at cfg.baseline_ratio and wrapped.  Each
    row is bit for bit ``cnot_response`` at its ratio.  The function is
    pure: identical configs give bit-identical rows.

    Per mode, the baseline and then the grid are compiled in that order, so
    the first compile failure is the first one a point-by-point loop would
    meet; then one ``propagate_many`` call runs every schedule, in chunks of
    whole schedules (one LAPACK eigendecomposition per chunk).  A gated
    point has 4 segments, so the largest grid (``_MAX_POINTS``) stacks 4e4;
    a gated CLI ``sweep`` of that size peaks at about 50 MB resident, where
    one unchunked stack took about 129 MB (x86-64 Linux, Python 3.11, numpy
    2.4).
    """
    ratios = [cfg.baseline_ratio, *map(float, cfg.grid())]
    rows = []
    for mode in sorted(cfg.modes):
        schedules = [_compile(ratio, mode) for ratio in ratios]
        baseline, *results = propagate_many(schedules, INITIAL_STATE)
        baseline_phase = _row(cfg.baseline_ratio, mode, baseline).phase
        rows += [_row(ratio, mode, result, baseline_phase)
                 for ratio, result in zip(ratios[1:], results)]
    return rows

