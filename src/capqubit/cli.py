"""Command-line front end.

Commands:

* ``levels --d1 --d2 --d12``: effective level table for both qubits.
* ``cnot --ratio --mode``: compile and run one CNOT, report the response.
* ``sweep --min --max --points [--log|--linear] --mode [--out]``: coupling
  sweep, emitted as deterministic CSV.
* ``simulate --config <file>``: compile an explicit gate list from a config
  file, run it, and report the final state plus a verification summary.
* ``verify``: run the built-in invariant suite.

Every command accepts ``--config <file>`` with flat ``key = value`` lines
(``#`` starts a comment); command-line flags override file values, and a
key the command does not read is a usage error.  Exit
status is 0 on success, 1 on runtime or verification failure, 2 on usage
errors.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    DeviceParams,
    QubitParams,
    build_capacitive,
    build_capacitive_pauli_form,
    effective_levels,
)
from .evolution import propagate, propagate_rk4
from .linalg import distance_up_to_global_phase, eigh
from .pulsecompiler import (
    MODES,
    GateSpec,
    compile_cnot,
    compile_cnot_gates,
    compile_phase_block,
    compile_schedule,
    ideal_composition,
    ideal_gate,
    verify_schedule,
)
from .experiments import (
    INITIAL_STATE,
    SweepConfig,
    _sweep_device,
    cnot_response,
    levels_table,
    run_sweep,
)

__all__ = ["RunConfig", "parse_args", "emit_csv", "run_verify", "main"]

CSV_HEADER = "ratio,mode,amplitude,phase_rad,phase_deviation_rad,gate_distance,leakage"

_DEFAULT_PRECISION = 12
_PRECISION_RANGE = (6, 17)
# Config-file keys each command reads; any other key is a usage error.
_CONFIG_KEYS = {
    "levels": {"d1", "d2", "d12"},
    "cnot": {"ratio", "mode"},
    "sweep": {"min", "max", "sweep_min", "sweep_max", "points", "spacing",
              "mode", "out", "baseline_ratio"},
    "simulate": {"d12", "a1", "a2", "mode", "gates", "psi0", "tol"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: one command plus its validated settings."""

    command: str
    precision: int = _DEFAULT_PRECISION
    # levels: d1, d2, d12; simulate: d12, a1, a2
    d1: float = None
    d2: float = None
    d12: float = None
    a1: float = None
    a2: float = None
    # cnot / sweep
    ratio: float = None
    mode: str = None
    modes: tuple = None
    sweep_min: float = None
    sweep_max: float = None
    points: int = None
    spacing: str = None
    out: str = None
    baseline_ratio: float = None
    # simulate
    gates: tuple = None
    psi0: tuple = None
    tol: float = None


def _fmt(value, precision):
    return f"{value:.{precision}g}"


def _normalize_mode(value, allow_both=False):
    mode = str(value).strip().lower().replace("-", "_")
    if allow_both and mode == "both":
        return ("always_on", "gated")
    if mode in MODES:
        return mode
    choices = "gated, always-on" + (", both" if allow_both else "")
    raise ValueError(f"invalid mode {value!r} (choose from {choices})")


def _parse_gate_token(token):
    """One gate from the config gate list.

    Accepted forms: ``cnot``; ``zz:<angle>``; ``rx1:<angle>``, ``ry2:<angle>``,
    ``rz1:<angle>`` etc.  Angles are radians unless suffixed with ``deg``.
    """
    text = token.strip().lower()
    if text == "cnot":
        return GateSpec("cnot")
    head, sep, angle_text = text.partition(":")
    head = head.strip()
    if head == "zz":
        kind, qubit = "zz", None
    elif len(head) == 3 and head[:2] in ("rx", "ry", "rz") and head[2] in "12":
        kind, qubit = head[:2], int(head[2])
    else:
        raise ValueError(f"unknown gate {token!r} (examples: rx2:90deg, zz:1.5708, cnot)")
    if not sep or not angle_text.strip():
        raise ValueError(f"gate {token!r} needs an angle, e.g. {head}:90deg")
    angle_text = angle_text.strip()
    try:
        if angle_text.endswith("deg"):
            angle = math.radians(float(angle_text[:-3]))
        else:
            angle = float(angle_text)
    except ValueError:
        raise ValueError(f"gate {token!r}: malformed angle {angle_text!r}") from None
    if kind == "zz":
        return GateSpec("zz", angle=angle)
    return GateSpec(kind, qubit=qubit, angle=angle)


def _parse_gates(text):
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("gate list is empty")
    return tuple(_parse_gate_token(tok) for tok in tokens)


def _parse_state(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"psi0 needs 4 comma-separated components, got {len(parts)}")
    try:
        return tuple(complex(p) for p in parts)
    except ValueError:
        raise ValueError(f"psi0: malformed component in {text!r}") from None


def _load_config_file(path):
    """Flat `key = value` file; `#` starts a comment; keys lowercased."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key] = value
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="capqubit",
        description="Simulate and compile pulse schedules for two capacitively "
        "coupled charge qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key = value settings file")
        sp.add_argument("--precision", type=int, default=None,
                        help="significant digits for printed numbers (6-17, default 12)")

    sp = sub.add_parser("levels", help="effective level table")
    sp.add_argument("--d1", type=float, default=None)
    sp.add_argument("--d2", type=float, default=None)
    sp.add_argument("--d12", type=float, default=None)
    add_common(sp)

    sp = sub.add_parser("cnot", help="single CNOT response")
    sp.add_argument("--ratio", type=float, default=None)
    sp.add_argument("--mode", default=None, help="gated | always-on")
    add_common(sp)

    sp = sub.add_parser("sweep", help="coupling sweep, CSV output")
    sp.add_argument("--min", type=float, default=None, dest="sweep_min")
    sp.add_argument("--max", type=float, default=None, dest="sweep_max")
    sp.add_argument("--points", type=int, default=None)
    spacing = sp.add_mutually_exclusive_group()
    spacing.add_argument("--log", dest="spacing", action="store_const", const="log")
    spacing.add_argument("--linear", dest="spacing", action="store_const", const="linear")
    sp.add_argument("--mode", default=None, help="gated | always-on | both")
    sp.add_argument("--out", default=None, help="CSV destination (default stdout)")
    sp.add_argument("--baseline-ratio", type=float, default=None, dest="baseline_ratio")
    add_common(sp)

    sp = sub.add_parser("simulate", help="run an explicit gate list from a config file")
    add_common(sp)

    sp = sub.add_parser("verify", help="run the built-in invariant suite")

    return parser


def parse_args(argv):
    """Parse argv into a RunConfig; usage problems exit with status 2."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    file_values = {}
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            file_values = _load_config_file(config_path)
        except ValueError as exc:
            parser.error(str(exc))
        allowed = _CONFIG_KEYS[ns.command] | {"precision"}
        unknown = sorted(set(file_values) - allowed)
        if unknown:
            parser.error(f"{ns.command}: unknown config key '{unknown[0]}' "
                         f"(accepted: {', '.join(sorted(allowed))})")

    def pick(key, cast, default=None, required=False):
        cli_value = getattr(ns, key, None)
        if cli_value is not None:
            return cli_value
        if key in file_values:
            try:
                return cast(file_values[key])
            except ValueError as exc:
                parser.error(f"config key {key}: {exc}")
        if required:
            parser.error(f"{ns.command}: missing required setting '{key}' "
                         f"(flag or config key)")
        return default

    precision = pick("precision", int, default=_DEFAULT_PRECISION)
    lo, hi = _PRECISION_RANGE
    if not (lo <= precision <= hi):
        parser.error(f"precision must be in [{lo}, {hi}], got {precision}")

    if ns.command == "levels":
        return RunConfig(
            command="levels",
            precision=precision,
            d1=pick("d1", float, required=True),
            d2=pick("d2", float, required=True),
            d12=pick("d12", float, required=True),
        )

    if ns.command == "cnot":
        ratio = pick("ratio", float, required=True)
        if ratio <= 0.0:
            parser.error(f"--ratio must be > 0, got {ratio}")
        try:
            mode = _normalize_mode(pick("mode", str, default="gated"))
        except ValueError as exc:
            parser.error(str(exc))
        return RunConfig(command="cnot", precision=precision, ratio=ratio, mode=mode)

    if ns.command == "sweep":
        sweep_min = ns.sweep_min
        if sweep_min is None:
            sweep_min = pick("min", float, required=False)
        if sweep_min is None:
            sweep_min = pick("sweep_min", float, required=True)
        sweep_max = ns.sweep_max
        if sweep_max is None:
            sweep_max = pick("max", float, required=False)
        if sweep_max is None:
            sweep_max = pick("sweep_max", float, required=True)
        points = pick("points", int, default=50)
        spacing = pick("spacing", str, default="log")
        baseline = pick("baseline_ratio", float, default=1e-3)
        out = pick("out", str, default=None)
        try:
            modes = _normalize_mode(pick("mode", str, default="gated"), allow_both=True)
        except ValueError as exc:
            parser.error(str(exc))
        if isinstance(modes, str):
            modes = (modes,)
        try:
            sweep_cfg = SweepConfig(sweep_min, sweep_max, points,
                                    spacing=spacing, modes=modes,
                                    baseline_ratio=baseline)
        except ValueError as exc:
            parser.error(f"sweep: {exc}")
        return RunConfig(
            command="sweep",
            precision=precision,
            sweep_min=sweep_cfg.ratio_min,
            sweep_max=sweep_cfg.ratio_max,
            points=sweep_cfg.points,
            spacing=sweep_cfg.spacing,
            modes=sweep_cfg.modes,
            baseline_ratio=sweep_cfg.baseline_ratio,
            out=out,
        )

    if ns.command == "simulate":
        if not config_path:
            parser.error("simulate requires --config <file>")
        try:
            gates = _parse_gates(pick("gates", str, required=True))
            psi0 = _parse_state(pick("psi0", str, default="1,0,0,0"))
            mode = _normalize_mode(pick("mode", str, default="gated"))
        except ValueError as exc:
            parser.error(str(exc))
        tol = pick("tol", float, default=0.01)
        if tol <= 0.0:
            parser.error(f"tol must be > 0, got {tol}")
        return RunConfig(
            command="simulate",
            precision=precision,
            d12=pick("d12", float, required=True),
            a1=pick("a1", float, default=1.0),
            a2=pick("a2", float, default=1.0),
            mode=mode,
            gates=gates,
            psi0=psi0,
            tol=tol,
        )

    return RunConfig(command="verify")


def emit_csv(rows, destination, precision=_DEFAULT_PRECISION):
    """Serialize sweep rows as CSV, sorted by (mode, ratio).

    ``destination`` is a path or a writable stream.  Output uses '.' decimal
    separator, `\\n` line endings and the configured significant digits, so
    identical rows always give identical bytes.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("emit_csv requires at least one row")
    lo, hi = _PRECISION_RANGE
    if not (lo <= int(precision) <= hi):
        raise ValueError(f"precision must be in [{lo}, {hi}], got {precision}")
    ordered = sorted(rows, key=lambda r: (r.mode, r.ratio))
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(",".join((
            _fmt(r.ratio, precision),
            r.mode,
            _fmt(r.amplitude, precision),
            _fmt(r.phase, precision),
            _fmt(r.phase_deviation, precision),
            _fmt(r.gate_distance, precision),
            _fmt(r.leakage, precision),
        )))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {destination}: {exc}") from exc


# ---------------------------------------------------------------------------
# verify: the built-in invariant suite
# ---------------------------------------------------------------------------

def run_verify(stream=None):
    """Run the cross-module invariant checks; print a pass/fail table.

    Returns 0 iff every check passes; on failure the first failing check is
    named in the summary line.
    """
    out = stream if stream is not None else sys.stdout
    failures = []

    def report(name, ok, detail=""):
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  [{detail}]"
        print(line, file=out)
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(20250814)

    # Hamiltonian identity: the two capacitive constructions must agree
    # entry for entry.
    worst = 0.0
    worst_entry = (0, 0)
    for _ in range(2000):
        d1, d2, d12 = rng.uniform(-5.0, 5.0, 3)
        a1, a2 = rng.uniform(0.0, 5.0, 2)
        dev = DeviceParams(QubitParams(d1, a1), QubitParams(d2, a2), d12)
        diff = np.abs(build_capacitive(dev) - build_capacitive_pauli_form(dev))
        idx = np.unravel_index(np.argmax(diff), diff.shape)
        if diff[idx] > worst:
            worst, worst_entry = float(diff[idx]), idx
    report(
        "hamiltonian identity, tensor vs pauli form (2000 draws)",
        worst <= 1e-15,
        f"max diff {worst:.2e} at entry ({worst_entry[0] + 1},{worst_entry[1] + 1})",
    )

    # Effective levels vs diagonal differences (dyadic draws keep all
    # arithmetic exact).
    levels_ok = True
    for _ in range(500):
        d1, d2, d12 = rng.integers(-320, 321, 3) / 64.0
        dev = DeviceParams(QubitParams(d1, 0.0), QubitParams(d2, 0.0), d12)
        h = build_capacitive(dev)
        pairs = (
            ((h[0, 0] - h[2, 2]).real / 2.0, effective_levels(dev, 1, True)),
            ((h[1, 1] - h[3, 3]).real / 2.0, effective_levels(dev, 1, False)),
            ((h[0, 0] - h[1, 1]).real / 2.0, effective_levels(dev, 2, True)),
            ((h[2, 2] - h[3, 3]).real / 2.0, effective_levels(dev, 2, False)),
        )
        if any(a != b for a, b in pairs):
            levels_ok = False
            break
    report("effective levels match diagonal differences (500 dyadic draws)", levels_ok)

    # Eigensolver: orthonormal vectors, faithful reconstruction.
    worst_orth = 0.0
    worst_recon = 0.0
    eye = np.eye(4)
    for _ in range(200):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (m + m.conj().T) / 2.0
        w, v = eigh(h)
        worst_orth = max(worst_orth, float(np.linalg.norm(v.conj().T @ v - eye)))
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm((v * w) @ v.conj().T - h) / (1.0 + np.linalg.norm(h))),
        )
    report(
        "eigensolver orthonormality and reconstruction (200 draws)",
        worst_orth <= 1e-12 and worst_recon <= 1e-12,
        f"orth {worst_orth:.2e}, recon {worst_recon:.2e}",
    )

    # Propagator unitarity and norm conservation on random schedules.
    from .evolution import PulseSegment, Schedule  # local to keep import list short

    worst_unit = 0.0
    worst_drift = 0.0
    for _ in range(30):
        dev = DeviceParams(
            QubitParams(rng.uniform(-2, 2), rng.uniform(0, 2)),
            QubitParams(rng.uniform(-2, 2), rng.uniform(0, 2)),
            rng.uniform(-2, 2),
        )
        segs = tuple(
            PulseSegment(
                duration=rng.uniform(0.1, 2.0),
                delta1=rng.uniform(-2, 2),
                delta2=rng.uniform(-2, 2),
                a1=rng.uniform(0, 2),
                a2=rng.uniform(0, 2),
            )
            for _ in range(rng.integers(1, 5))
        )
        res = propagate(Schedule(segs, dev), INITIAL_STATE)
        u = res.total_propagator
        worst_unit = max(worst_unit, float(np.linalg.norm(u.conj().T @ u - eye)))
        worst_drift = max(worst_drift, res.norm_drift)
    report(
        "propagator unitarity and norm conservation (30 random schedules)",
        worst_unit <= 1e-9 and worst_drift <= 1e-9,
        f"unitarity {worst_unit:.2e}, drift {worst_drift:.2e}",
    )

    # Ideal CNOT composition: the compiled sequence's intended unitaries
    # must multiply to the CNOT matrix up to a global phase.
    gates = compile_cnot_gates(_sweep_device(0.05), "gated")
    cnot = ideal_gate(GateSpec("cnot"))
    comp_dist = distance_up_to_global_phase(ideal_composition(gates), cnot)
    report("ideal CNOT composition", comp_dist <= 1e-10, f"distance {comp_dist:.2e}")

    # Phase-block convention: the worked block example must land the
    # documented diagonal phases exactly.
    block_dev = DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 1.0), 0.25)
    block = compile_phase_block(-math.pi / 2, math.pi / 2, math.pi / 2,
                                block_dev, "gated")
    sched = Schedule(block.segments, block_dev)
    u = propagate(sched, INITIAL_STATE).total_propagator
    expected = np.array([-math.pi / 2, math.pi / 2, -math.pi / 2, -math.pi / 2])
    phases = np.angle(np.diag(u))
    off_mass = float(np.linalg.norm(u - np.diag(np.diag(u))))
    phase_err = float(np.max(np.abs(phases - expected)))
    report(
        "phase block diagonal phases",
        off_mass <= 1e-12 and phase_err <= 1e-12,
        f"off-diagonal {off_mass:.2e}, phase err {phase_err:.2e}",
    )

    # Integrator cross-check: exact evolver vs RK4 on the CNOT schedule.
    schedule = compile_cnot(_sweep_device(0.05), "gated")
    dt = schedule.total_duration / 1e5
    exact = propagate(schedule, INITIAL_STATE).final_state
    approx = propagate_rk4(schedule, INITIAL_STATE, dt)
    rk4_err = float(np.linalg.norm(exact - approx))
    report(
        "integrator cross-check, CNOT at coupling 0.05 (dt = T/1e5)",
        rk4_err <= 1e-6,
        f"state error {rk4_err:.2e}",
    )

    if failures:
        print(f"\nFAILED: {failures[0]}", file=out)
        return 1
    print("\nall checks passed", file=out)
    return 0


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_levels(cfg: RunConfig):
    device = DeviceParams(
        QubitParams(cfg.d1, 0.0), QubitParams(cfg.d2, 0.0), cfg.d12
    )
    print("qubit  neighbor  E")
    for qubit, neighbor_state, energy in levels_table(device):
        print(f"{qubit:>5}  {neighbor_state:>8}  {_fmt(energy, cfg.precision)}")
    return 0


def _cmd_cnot(cfg: RunConfig):
    row = cnot_response(cfg.ratio, cfg.mode)
    for name, value in (
        ("ratio", row.ratio),
        ("mode", row.mode),
        ("amplitude", row.amplitude),
        ("phase_rad", row.phase),
        ("gate_distance", row.gate_distance),
        ("leakage", row.leakage),
    ):
        if isinstance(value, str):
            print(f"{name} = {value}")
        else:
            print(f"{name} = {_fmt(value, cfg.precision)}")
    return 0


def _cmd_sweep(cfg: RunConfig):
    sweep_cfg = SweepConfig(
        cfg.sweep_min,
        cfg.sweep_max,
        cfg.points,
        spacing=cfg.spacing,
        modes=cfg.modes,
        baseline_ratio=cfg.baseline_ratio,
    )
    rows = run_sweep(sweep_cfg)
    emit_csv(rows, cfg.out if cfg.out else sys.stdout, cfg.precision)
    return 0


def _cmd_simulate(cfg: RunConfig):
    # Idle levels stay at zero: the compiler sets every segment's detunings.
    device = DeviceParams(
        QubitParams(0.0, cfg.a1), QubitParams(0.0, cfg.a2), cfg.d12
    )
    schedule, _compiled = compile_schedule(cfg.gates, device, cfg.mode)
    psi0 = np.array(cfg.psi0, dtype=complex)
    result = propagate(schedule, psi0)

    target = np.eye(4, dtype=complex)
    for spec in cfg.gates:
        target = ideal_gate(spec) @ target
    report = verify_schedule(schedule, target, cfg.tol)

    p = cfg.precision
    print(f"segments = {len(schedule.segments)}")
    print(f"total_duration = {_fmt(schedule.total_duration, p)}")
    print("  #  duration        delta1          delta2          a1       a2     label")
    for i, seg in enumerate(schedule.segments, 1):
        print(
            f"{i:>3}  {_fmt(seg.duration, 8):<14}  {_fmt(seg.delta1, 8):<14}  "
            f"{_fmt(seg.delta2, 8):<14}  {_fmt(seg.a1, 6):<7}  {_fmt(seg.a2, 6):<7}  "
            f"{seg.label}"
        )
    print("final state (basis |11>, |10>, |01>, |00>):")
    for name, amp in zip(("|11>", "|10>", "|01>", "|00>"), result.final_state):
        print(
            f"  {name}: amplitude {_fmt(abs(amp), p)}, "
            f"phase {_fmt(math.atan2(amp.imag, amp.real), p)}"
        )
    print(f"norm_drift = {_fmt(result.norm_drift, p)}")
    print(f"verify: distance = {_fmt(report['distance'], p)}, "
          f"phase_offset = {_fmt(report['phase_offset'], p)}, "
          f"pass = {report['pass']} (tol {_fmt(cfg.tol, p)})")
    return 0 if report["pass"] else 1


def main(argv=None):
    cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
    handlers = {
        "levels": _cmd_levels,
        "cnot": _cmd_cnot,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "verify": lambda _cfg: run_verify(),
    }
    try:
        return handlers[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
