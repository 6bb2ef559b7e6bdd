"""Command-line front end.

Commands:

* ``levels --d1 --d2 --d12``: effective level table for both qubits.
* ``cnot --ratio --mode``: compile and run one CNOT, report the response.
* ``sweep --min --max --points [--log|--linear] --mode [--out]``: coupling
  sweep, emitted as deterministic CSV.
* ``simulate --config <file>``: compile an explicit gate list from a config
  file, run it, and report the final state plus a verification summary.
* ``verify``: run the invariant suite of :mod:`capqubit.checks`.

Every command accepts ``--config <file>`` with flat ``key = value`` lines
(``#`` starts a comment), one key per setting, named after its flag
(``--baseline-ratio`` is ``baseline_ratio``, ``--log``/``--linear`` are
``spacing``); flags override file values.  An unknown key, a repeated key, a
missing setting and an invalid value are usage errors.  Exit status is 0 on
success, 1 on runtime or verification failure, 2 on usage errors.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .checks import run_verify
from .evolution import _check_initial_state, propagate
from .hamiltonian import DeviceParams, QubitParams
from .pulsecompiler import MODES, GateSpec, _verify_propagator, compile_schedule, ideal_product
from .experiments import SweepConfig, cnot_response, levels_table, run_sweep

__all__ = ["RunConfig", "parse_args", "emit_csv", "main"]

CSV_HEADER = "ratio,mode,amplitude,phase_rad,phase_deviation_rad,gate_distance,leakage"

_DEFAULT_PRECISION = 12
_PRECISION_RANGE = (6, 17)
# Config-file keys each command reads; any other key is a usage error.
_CONFIG_KEYS = {
    "levels": {"d1", "d2", "d12"},
    "cnot": {"ratio", "mode"},
    "sweep": {"min", "max", "points", "spacing", "mode", "out", "baseline_ratio"},
    "simulate": {"d12", "a1", "a2", "mode", "gates", "psi0", "tol"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: one command plus the objects it runs."""

    command: str
    precision: int = _DEFAULT_PRECISION
    device: DeviceParams = None  # levels, simulate
    ratio: float = None  # cnot
    mode: str = None  # cnot, simulate
    sweep: SweepConfig = None
    out: str = None  # sweep
    # simulate
    gates: tuple = None
    psi0: tuple = None
    tol: float = None


def _check_precision(precision):
    lo, hi = _PRECISION_RANGE
    if not (lo <= int(precision) <= hi):
        raise ValueError(f"precision must be in [{lo}, {hi}], got {precision}")


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
    try:
        psi0 = tuple(complex(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"psi0: malformed component in {text!r}") from None
    _check_initial_state(psi0)
    return psi0


def _load_config_file(path):
    """Flat `key = value` file; `#` starts a comment; keys lowercased and
    each given at most once."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key '{key}' repeats line {first_line[key]}")
        values[key], first_line[key] = value, lineno
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
    sp.add_argument("--min", type=float, default=None)
    sp.add_argument("--max", type=float, default=None)
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
    """Parse argv into a RunConfig holding the validated objects each command
    runs; usage problems, invalid values included, exit with status 2."""
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
                raise ValueError(f"config key {key}: {exc}") from None
        if required:
            raise ValueError(f"missing required setting '{key}' (flag or config key)")
        return default

    try:
        precision = pick("precision", int, default=_DEFAULT_PRECISION)
        _check_precision(precision)

        if ns.command == "levels":
            device = DeviceParams(
                QubitParams(pick("d1", float, required=True), 0.0),
                QubitParams(pick("d2", float, required=True), 0.0),
                pick("d12", float, required=True),
            )
            return RunConfig(command="levels", precision=precision, device=device)

        if ns.command == "cnot":
            ratio = pick("ratio", float, required=True)
            if not 0.0 < ratio < math.inf:
                raise ValueError(f"ratio must be finite and > 0, got {ratio}")
            mode = _normalize_mode(pick("mode", str, default="gated"))
            return RunConfig(command="cnot", precision=precision, ratio=ratio, mode=mode)

        if ns.command == "sweep":
            modes = _normalize_mode(pick("mode", str, default="gated"), allow_both=True)
            if isinstance(modes, str):
                modes = (modes,)
            sweep = SweepConfig(
                pick("min", float, required=True),
                pick("max", float, required=True),
                pick("points", int, default=50),
                spacing=pick("spacing", str, default="log"),
                modes=modes,
                baseline_ratio=pick("baseline_ratio", float, default=1e-3),
            )
            return RunConfig(command="sweep", precision=precision, sweep=sweep,
                             out=pick("out", str))

        if ns.command == "simulate":
            if not config_path:
                raise ValueError("requires --config <file>")
            gates = _parse_gates(pick("gates", str, required=True))
            psi0 = _parse_state(pick("psi0", str, default="1,0,0,0"))
            mode = _normalize_mode(pick("mode", str, default="gated"))
            tol = pick("tol", float, default=0.01)
            if not 0.0 < tol < math.inf:
                raise ValueError(f"tol must be finite and > 0, got {tol}")
            # Idle levels stay at zero: the compiler sets every segment's detunings.
            device = DeviceParams(
                QubitParams(0.0, pick("a1", float, default=1.0)),
                QubitParams(0.0, pick("a2", float, default=1.0)),
                pick("d12", float, required=True),
            )
            return RunConfig(command="simulate", precision=precision, device=device,
                             mode=mode, gates=gates, psi0=psi0, tol=tol)
    except ValueError as exc:
        parser.error(f"{ns.command}: {exc}")

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
    _check_precision(precision)
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
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_levels(cfg: RunConfig):
    print("qubit  neighbor  E")
    for qubit, neighbor_state, energy in levels_table(cfg.device):
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
    emit_csv(run_sweep(cfg.sweep), cfg.out or sys.stdout, cfg.precision)
    return 0


def _cmd_simulate(cfg: RunConfig):
    schedule, _compiled = compile_schedule(cfg.gates, cfg.device, cfg.mode)
    psi0 = np.array(cfg.psi0, dtype=complex)
    result = propagate(schedule, psi0)
    # the propagator does not depend on psi0, so the one run serves the check
    report = _verify_propagator(result.total_propagator, ideal_product(cfg.gates), cfg.tol)

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
