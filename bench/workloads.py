"""Workload definitions: seeded input generators, ops and output checks.

Each workload is a closed loop with one client.  ``inputs(name, seed)``
yields an endless, seed-determined stream of op inputs; the program only
ever sees those generated inputs.  ``run_op`` performs one op through the
public capqubit API with tracing off, ``run_traced_op`` performs the same
calls one at a time inside spans, and ``check`` validates an op's output
against the tolerances stated below (each stated once, at the acceptance
value where one exists).
"""

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from capqubit import (
    DeviceParams,
    GateSpec,
    PulseSegment,
    QubitParams,
    Schedule,
    SweepConfig,
    SweepRow,
    compile_cnot,
    compile_schedule,
    distance_up_to_global_phase,
    eigh,
    expm_unitary,
    ideal_composition,
    ideal_gate,
    propagate,
    propagate_rk4,
    run_sweep,
    segment_hamiltonian,
    verify_schedule,
    wrap_angle,
)
from capqubit.cli import CSV_HEADER, emit_csv
from capqubit.experiments import INITIAL_STATE

WORKLOADS = ("sweep_gated", "sweep_always_on", "gate_lists", "crosscheck_rk4")

# --- Tolerances -------------------------------------------------------------
# Acceptance criterion 5 (gated sweep rows).
GATED_AMP_MIN = 0.99            # amplitude for ratio <= 0.1
GATED_AMP_MIN_WEAK = 0.999      # amplitude for ratio <= 0.01
GATED_PHASE_DEV_MAX = 0.02      # |phase deviation| in rad for ratio <= 0.1
# Gated CNOT gate distance per unit ratio; measured 1.62-1.67 over [1e-3, 0.5].
GATED_DISTANCE_PER_RATIO = 2.0
# Acceptance criterion 6 (amplitude floor, always-on rows with ratio <= 0.1).
ALWAYS_ON_AMP_MIN = 0.99
# Acceptance criterion 4: ideal composition vs the requested product.
COMPOSITION_TOL = 1e-10
# Gated gate lists: verify_schedule distance per unit |ratio|.  One gate
# costs at most pi/sqrt(2) * |ratio| (an x pulse of nearly 2 pi; a CNOT's two
# pulses cost 1.7 |ratio|), distances of a product add at most linearly, and
# a list has at most 6 gates.
GATE_LIST_DISTANCE_PER_RATIO = 14.0
# Acceptance criterion 3: exact vs RK4 state error at dt = T/1e5.
RK4_STATE_TOL = 1e-6

# --- Input distributions (fixed; never re-drawn to avoid an input) ----------
RATIO_MIN, RATIO_MAX = 1e-3, 0.5
SWEEP_POINTS = 50
SWEEP_ENDPOINT_JITTER_DECADES = 0.1
GATE_KINDS = ("rx", "ry", "rz", "zz", "cnot")
GATE_COUNT = (2, 6)
# Gate lists draw log|ratio|, gate count, gate kind and angle stratified.
# Within one mode, every RATIO_STRATA consecutive lists visit each
# equal-width stratum of log|ratio| once, every 5 lists each gate count
# once, every 5 gates each kind once and every ANGLE_STRATA gates each angle
# stratum once.  The marginals stay as stated; the run-to-run spread of a
# heavy-tailed cost shrinks.
RATIO_STRATA = 32
ANGLE_STRATA = 8
CNOT_EVERY = 4                  # crosscheck: every 4th schedule is a CNOT
CNOT_RATIO = (0.05, 0.1)
RK4_STEPS = 1e5


def sweep_device(ratio):
    """The experiment's device: unit drives, idle levels, coupling = ratio."""
    return DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 1.0), ratio)


def ratio_decade(ratio):
    """Name of the decade holding |ratio|: r1e-3, r1e-2 or r1e-1."""
    r = abs(ratio)
    if r < 1e-2:
        return "r1e-3"
    if r < 1e-1:
        return "r1e-2"
    return "r1e-1"


@dataclass(frozen=True)
class GateList:
    gates: tuple
    ratio: float
    mode: str


@dataclass(frozen=True)
class RandomSchedule:
    schedule: Schedule
    psi0: np.ndarray


@dataclass(frozen=True)
class CnotSchedule:
    ratio: float


# --- Input generators ---------------------------------------------------------

def _sweep_inputs(rng, mode):
    lo_log, hi_log = math.log10(RATIO_MIN), math.log10(RATIO_MAX)
    while True:
        lo = 10.0 ** (lo_log + rng.uniform(0.0, SWEEP_ENDPOINT_JITTER_DECADES))
        hi = 10.0 ** (hi_log - rng.uniform(0.0, SWEEP_ENDPOINT_JITTER_DECADES))
        yield SweepConfig(lo, hi, SWEEP_POINTS, spacing="log", modes=(mode,),
                          baseline_ratio=RATIO_MIN)


def _strata(rng, n):
    """Endless stratum indices: every n consecutive draws visit 0..n-1 once."""
    while True:
        yield from rng.permutation(n).tolist()


def _gate_list_inputs(rng):
    lo_log, hi_log = math.log10(RATIO_MIN), math.log10(RATIO_MAX)
    modes = ("gated", "always_on")
    strata = {(mode, what): _strata(rng, n) for mode in modes for what, n in (
        ("ratio", RATIO_STRATA), ("count", GATE_COUNT[1] - GATE_COUNT[0] + 1),
        ("kind", len(GATE_KINDS)), ("angle", ANGLE_STRATA))}
    while True:
        pair = []
        for mode in modes:
            u = (next(strata[mode, "ratio"]) + rng.uniform()) / RATIO_STRATA
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            ratio = sign * 10.0 ** (lo_log + u * (hi_log - lo_log))
            gates = []
            for _ in range(GATE_COUNT[0] + next(strata[mode, "count"])):
                kind = GATE_KINDS[next(strata[mode, "kind"])]
                # (-pi, pi]
                angle = math.pi - 2.0 * math.pi * (
                    next(strata[mode, "angle"]) + rng.uniform()) / ANGLE_STRATA
                if kind == "cnot":
                    gates.append(GateSpec("cnot"))
                elif kind == "zz":
                    gates.append(GateSpec("zz", angle=angle))
                else:
                    gates.append(GateSpec(kind, int(rng.integers(1, 3)), angle))
            pair.append(GateList(tuple(gates), ratio, mode))
        yield tuple(pair)


def _crosscheck_inputs(rng):
    i = 0
    while True:
        i += 1
        if i % CNOT_EVERY == 0:
            yield CnotSchedule(float(rng.uniform(*CNOT_RATIO)))
            continue
        # Acceptance criterion 3's random family.
        n = int(rng.integers(1, 6))
        segs = tuple(
            PulseSegment(
                duration=float(rng.uniform(0.1, 3.0)),
                delta1=float(rng.uniform(-2.0, 2.0)),
                delta2=float(rng.uniform(-2.0, 2.0)),
                a1=float(rng.uniform(0.0, 2.0)),
                a2=float(rng.uniform(0.0, 2.0)),
            )
            for _ in range(n)
        )
        device = sweep_device(float(rng.uniform(-0.5, 0.5)))
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yield RandomSchedule(Schedule(segs, device), psi / np.linalg.norm(psi))


def inputs(name, seed):
    """Endless stream of op inputs for a workload; same seed, same stream."""
    rng = np.random.default_rng(seed)
    if name == "sweep_gated":
        return _sweep_inputs(rng, "gated")
    if name == "sweep_always_on":
        return _sweep_inputs(rng, "always_on")
    if name == "gate_lists":
        return _gate_list_inputs(rng)
    if name == "crosscheck_rk4":
        return _crosscheck_inputs(rng)
    raise ValueError(f"unknown workload {name!r} (choose from {WORKLOADS})")


# --- Ops, untraced --------------------------------------------------------------

def _target(gates):
    target = np.eye(4, dtype=complex)
    for spec in gates:
        target = ideal_gate(spec) @ target
    return target


def _rk4_dt(schedule):
    return schedule.total_duration / RK4_STEPS


def _sweep_op(cfg):
    rows = run_sweep(cfg)
    buf = io.StringIO()
    emit_csv(rows, buf)
    return rows, buf.getvalue()


def _gate_list_op(pair):
    out = []
    for item in pair:
        schedule, compiled = compile_schedule(item.gates, sweep_device(item.ratio),
                                              item.mode)
        state = propagate(schedule, INITIAL_STATE)
        target = _target(item.gates)
        report = verify_schedule(schedule, target, 1.0)
        out.append((compiled, state, target, report))
    return out


def _crosscheck_op(inp):
    if isinstance(inp, CnotSchedule):
        schedule, psi0 = compile_cnot(sweep_device(inp.ratio), "gated"), INITIAL_STATE
    else:
        schedule, psi0 = inp.schedule, inp.psi0
    exact = propagate(schedule, psi0).final_state
    return exact, propagate_rk4(schedule, psi0, _rk4_dt(schedule))


def run_op(name, inp):
    """One op with tracing off: only the program's public calls."""
    if name in ("sweep_gated", "sweep_always_on"):
        return _sweep_op(inp)
    if name == "gate_lists":
        return _gate_list_op(inp)
    return _crosscheck_op(inp)


# --- Ops, traced ------------------------------------------------------------------

def _traced_propagate(tr, schedule, psi0):
    with tr.span("evolution.propagate", segments=len(schedule.segments)) as sp:
        result = propagate(schedule, psi0)
    tr.propagates.append((sp["id"], schedule))
    return result


def _traced_compile(tr, ratio, mode, fn, *args):
    with tr.span("pulsecompiler.compile", mode=mode, decade=ratio_decade(ratio)) as sp:
        out = fn(*args)
    schedule = out[0] if isinstance(out, tuple) else out
    sp["segments"] = len(schedule.segments)
    sp["T"] = schedule.total_duration
    return out


def _traced_response(tr, ratio, mode, cnot):
    """The calls cnot_response makes, one at a time, each in a span."""
    schedule = _traced_compile(tr, ratio, mode, compile_cnot, sweep_device(ratio), mode)
    result = _traced_propagate(tr, schedule, INITIAL_STATE)
    with tr.span("linalg.distance"):
        distance = distance_up_to_global_phase(result.total_propagator, cnot)
    component = result.final_state[1]
    amplitude = abs(component)
    return SweepRow(
        ratio=float(ratio),
        mode=mode,
        amplitude=float(amplitude),
        phase=float(wrap_angle(math.atan2(component.imag, component.real))),
        phase_deviation=0.0,
        gate_distance=distance,
        leakage=float(1.0 - amplitude**2),
    )


def _traced_sweep_op(tr, cfg):
    cnot = ideal_gate(GateSpec("cnot"))
    with tr.span("experiments.run_sweep"):
        rows = []
        for mode in sorted(cfg.modes):
            baseline = _traced_response(tr, cfg.baseline_ratio, mode, cnot)
            for ratio in cfg.grid():
                row = _traced_response(tr, float(ratio), mode, cnot)
                rows.append(replace(
                    row, phase_deviation=wrap_angle(row.phase - baseline.phase)))
    buf = io.StringIO()
    with tr.span("cli.emit_csv") as sp:
        emit_csv(rows, buf)
    text = buf.getvalue()
    sp["bytes"] = len(text)
    return rows, text


def _traced_gate_list_op(tr, pair):
    out = []
    for item in pair:
        schedule, compiled = _traced_compile(
            tr, item.ratio, item.mode, compile_schedule, item.gates,
            sweep_device(item.ratio), item.mode)
        state = _traced_propagate(tr, schedule, INITIAL_STATE)
        target = _target(item.gates)
        with tr.span("pulsecompiler.verify", segments=len(schedule.segments)):
            report = verify_schedule(schedule, target, 1.0)
        tr.distances.append((state.total_propagator, target))
        out.append((compiled, state, target, report))
    return out


def _traced_crosscheck_op(tr, inp):
    if isinstance(inp, CnotSchedule):
        schedule = _traced_compile(tr, inp.ratio, "gated", compile_cnot,
                                   sweep_device(inp.ratio), "gated")
        psi0 = INITIAL_STATE
    else:
        schedule, psi0 = inp.schedule, inp.psi0
    exact = _traced_propagate(tr, schedule, psi0).final_state
    return exact, _traced_rk4(tr, schedule, psi0)


def _traced_rk4(tr, schedule, psi0):
    dt = _rk4_dt(schedule)
    steps = sum(max(1, math.ceil(seg.duration / dt - 1e-12)) for seg in schedule.segments)
    with tr.span("evolution.rk4", steps=steps):
        return propagate_rk4(schedule, psi0, dt)


def run_traced_op(name, tr, inp):
    """One op as the same public calls, each inside a span of ``tr``."""
    if name in ("sweep_gated", "sweep_always_on"):
        return _traced_sweep_op(tr, inp)
    if name == "gate_lists":
        return _traced_gate_list_op(tr, inp)
    return _traced_crosscheck_op(tr, inp)


def replay(tr, op_index):
    """After a traced op, re-run lower layers on that op's data, outside the
    op's timed interval: the Hamiltonian build, expm_unitary and eigh of
    every segment of one of the op's propagate calls (taken in rotation),
    and the distance of each gate list's propagator to its target."""
    if tr.propagates:
        parent, schedule = tr.propagates[op_index % len(tr.propagates)]
        for seg in schedule.segments:
            with tr.span("hamiltonian.build", parent=parent, replay=True):
                h = segment_hamiltonian(seg, schedule.device, schedule.model)
            with tr.span("linalg.expm", parent=parent, replay=True):
                expm_unitary(h, seg.duration)
            with tr.span("linalg.eigh", parent=parent, replay=True):
                eigh(h)
    for a, b in tr.distances:
        with tr.span("linalg.distance", replay=True):
            distance_up_to_global_phase(a, b)
    tr.propagates.clear()
    tr.distances.clear()


# Fixed inputs for calibration, one coupling ratio per decade.
CALIBRATION_RATIOS = {"r1e-3": 10.0**-2.5, "r1e-2": 10.0**-1.5, "r1e-1": 10.0**-0.5}


def calibrate(tr):
    """Call once, on fixed inputs, each layer that the traced ops never
    reached, so that every per-call metric is a measurement on every
    workload.  The tracer marks these spans; they take no part in shares."""
    seen = {(r["name"], r.get("mode"), r.get("decade")) for r in tr.spans}
    names = {name for name, _mode, _decade in seen}
    modes = {mode for name, mode, _decade in seen if name == "pulsecompiler.compile"}
    cnot = ideal_gate(GateSpec("cnot"))
    ratio = CALIBRATION_RATIOS["r1e-2"]
    schedule = compile_cnot(sweep_device(ratio), "gated")
    tr.calibrating = True
    if "gated" not in modes:
        _traced_compile(tr, ratio, "gated", compile_cnot, sweep_device(ratio), "gated")
    for decade, r in CALIBRATION_RATIOS.items():
        if ("pulsecompiler.compile", "always_on", decade) not in seen:
            _traced_compile(tr, r, "always_on", compile_cnot, sweep_device(r), "always_on")
    if "evolution.rk4" not in names:
        _traced_rk4(tr, schedule, INITIAL_STATE)
    if "pulsecompiler.verify" not in names:
        with tr.span("pulsecompiler.verify", segments=len(schedule.segments)):
            verify_schedule(schedule, cnot, 1.0)
    if "linalg.distance" not in names:
        u = propagate(schedule, INITIAL_STATE).total_propagator
        with tr.span("linalg.distance"):
            distance_up_to_global_phase(u, cnot)
    if "experiments.run_sweep" not in names:
        _traced_sweep_op(tr, SweepConfig(CALIBRATION_RATIOS["r1e-3"],
                                          CALIBRATION_RATIOS["r1e-1"], 2))
    tr.calibrating = False


# --- Output checks ------------------------------------------------------------------

def _finite_rows(rows):
    return all(
        math.isfinite(v)
        for r in rows
        for v in (r.ratio, r.amplitude, r.phase, r.phase_deviation,
                  r.gate_distance, r.leakage)
    )


def check_sweep(cfg, rows, csv_text):
    """Return None if the sweep output is acceptable, else the reason."""
    if len(rows) != cfg.points or not _finite_rows(rows):
        return f"expected {cfg.points} finite rows, got {len(rows)}"
    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER or len(lines) != cfg.points + 2 or lines[-1]:
        return "CSV is not a header plus one line per row"
    for r in rows:
        if r.mode == "gated":
            if r.ratio <= 0.1 and r.amplitude < GATED_AMP_MIN:
                return f"gated amplitude {r.amplitude:.6f} < {GATED_AMP_MIN} at ratio {r.ratio:g}"
            if r.ratio <= 0.01 and r.amplitude < GATED_AMP_MIN_WEAK:
                return (f"gated amplitude {r.amplitude:.6f} < {GATED_AMP_MIN_WEAK} "
                        f"at ratio {r.ratio:g}")
            if r.ratio <= 0.1 and abs(r.phase_deviation) > GATED_PHASE_DEV_MAX:
                return (f"gated phase deviation {r.phase_deviation:.4f} rad at "
                        f"ratio {r.ratio:g}")
            if r.gate_distance > GATED_DISTANCE_PER_RATIO * r.ratio:
                return f"gated gate distance {r.gate_distance:.4g} at ratio {r.ratio:g}"
        elif r.ratio <= 0.1 and r.amplitude < ALWAYS_ON_AMP_MIN:
            return f"always-on amplitude {r.amplitude:.6f} at ratio {r.ratio:g}"
    return None


def check_gate_lists(pair, results):
    for item, (compiled, _state, target, report) in zip(pair, results):
        comp = distance_up_to_global_phase(ideal_composition(compiled), target)
        if not comp <= COMPOSITION_TOL:
            return f"{item.mode} ideal composition off by {comp:.3e}"
        if item.mode == "gated":
            bound = GATE_LIST_DISTANCE_PER_RATIO * abs(item.ratio)
            if not report["distance"] <= bound:
                return (f"gated distance {report['distance']:.4g} > {bound:.4g} "
                        f"at ratio {item.ratio:g}")
    return None


def check_crosscheck(exact, approx):
    err = float(np.linalg.norm(exact - approx))
    if not err <= RK4_STATE_TOL:
        return f"RK4 state error {err:.3e} > {RK4_STATE_TOL:g}"
    return None


def check(name, inp, out):
    """None when the op output passes its checks, else the failure reason."""
    if name in ("sweep_gated", "sweep_always_on"):
        return check_sweep(inp, *out)
    if name == "gate_lists":
        return check_gate_lists(inp, out)
    return check_crosscheck(*out)
