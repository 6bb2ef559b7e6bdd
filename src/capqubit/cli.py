"""Command-line front end.

Commands:

* ``levels --d1 --d2 --d12``: effective level table for both qubits.
* ``cnot --ratio --mode``: compile and run one CNOT, report the response.
* ``sweep --mode --min --max --points --spacing --out``: coupling sweep,
  emitted as deterministic CSV.
* ``simulate --gates --psi0 --mode --tol --a1 --a2 --d12``: compile an
  explicit gate list, run it, and report the final state plus a
  verification summary.
* ``verify``: run the invariant suite of :mod:`capqubit.checks`.

Each command is declared once, in ``_COMMANDS``: its help, its settings,
the objects it builds from several of them, and its handler, which reads
its settings by name.
One setting is one flag and one config key: its name is the key and, with
``-`` for ``_``, the flag.  Every command but ``verify`` takes
``--precision`` and a ``--config <file>`` of flat ``key = value`` lines
(``#`` starts a comment); flags override file values.  An unknown key, a
repeated key, a missing setting and an invalid value are usage errors.
Exit status is 0 on success, 1 on runtime or verification failure, 2 on
usage errors.
"""

import argparse
import math
import operator
import sys
import types

import numpy as np

from .checks import run_verify
from .evolution import _check_initial_state, propagate
from .hamiltonian import DeviceParams, QubitParams, effective_levels
from .pulsecompiler import MODES, GateSpec, _verify_propagator, compile_schedule, ideal_product
from .experiments import SweepConfig, cnot_response, run_sweep

__all__ = ["parse_args", "emit_csv", "main"]

# The sweep CSV's columns in order, each with the SweepRow field it prints.
_CSV_COLUMNS = (("ratio", "ratio"), ("mode", "mode"), ("amplitude", "amplitude"),
                ("phase_rad", "phase"), ("phase_deviation_rad", "phase_deviation"),
                ("gate_distance", "gate_distance"), ("leakage", "leakage"))
CSV_HEADER = ",".join(column for column, _field in _CSV_COLUMNS)

_DEFAULT_PRECISION = 12
_PRECISION_RANGE = (6, 17)
_REQUIRED = object()  # the default of a setting that must be given


def _check_precision(precision):
    lo, hi = _PRECISION_RANGE
    try:
        value = operator.index(precision)
    except TypeError:
        value = None
    if value is None or not lo <= value <= hi:
        raise ValueError(f"precision must be in [{lo}, {hi}], got {precision!r}")
    return value


def _fmt(value, precision):
    return f"{value:.{precision}g}"


def _normalize_mode(value, allow_both=False):
    """One mode; with ``allow_both``, a tuple of modes, ``both`` included."""
    mode = str(value).strip().lower().replace("-", "_")
    if allow_both and mode == "both":
        return ("always_on", "gated")
    if mode in MODES:
        return (mode,) if allow_both else mode
    choices = "gated, always-on" + (", both" if allow_both else "")
    raise ValueError(f"invalid mode {value!r} (choose from {choices})")


def _finite_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _check_out(out):
    if out is not None and not out.strip():
        raise ValueError(f"out must name a file (omit it for stdout), got {out!r}")
    return out


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
    for command, (text, settings, _build, _run) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name, cast, _default, _check, help_text in settings:
            sp.add_argument("--" + name.replace("_", "-"), type=cast, help=help_text)
        if settings:
            sp.add_argument("--config", help="key = value settings file")
    return parser


def parse_args(argv):
    """Parse argv into a namespace holding the command, each of its validated
    settings under its own name, and the objects its row builds from them;
    usage problems, invalid values included, exit with status 2."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    _text, settings, build, _run = _COMMANDS[ns.command]
    file_values = {}
    if getattr(ns, "config", None):
        try:
            file_values = _load_config_file(ns.config)
        except ValueError as exc:
            parser.error(str(exc))
        allowed = sorted(name for name, *_ in settings)
        unknown = sorted(set(file_values) - set(allowed))
        if unknown:
            parser.error(f"{ns.command}: unknown config key '{unknown[0]}' "
                         f"(accepted: {', '.join(allowed)})")

    def resolve(name, cast, default, check, _help):
        value = getattr(ns, name)
        if value is None and name in file_values:
            try:
                value = cast(file_values[name])
            except ValueError as exc:
                raise ValueError(f"config key {name}: {exc}") from None
        if value is None:
            if default is _REQUIRED:
                raise ValueError(f"missing required setting '{name}' (flag or config key)")
            value = default
        return value if check is None else check(value)

    try:
        v = {setting[0]: resolve(*setting) for setting in settings}
        return types.SimpleNamespace(command=ns.command, **v, **build(v))
    except ValueError as exc:
        parser.error(f"{ns.command}: {exc}")


def emit_csv(rows, destination, precision=_DEFAULT_PRECISION):
    """Serialize sweep rows as CSV, sorted by (mode, ratio).

    ``destination`` is a path or a writable stream.  Output uses '.' decimal
    separator, `\\n` line endings and the configured significant digits, so
    identical rows always give identical bytes.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("emit_csv requires at least one row")
    precision = _check_precision(precision)
    ordered = sorted(rows, key=lambda r: (r.mode, r.ratio))
    row_format = ",".join("{}" if field == "mode" else f"{{:.{precision}g}}"
                          for _column, field in _CSV_COLUMNS)
    fields = operator.attrgetter(*(field for _column, field in _CSV_COLUMNS))
    lines = [CSV_HEADER] + [row_format.format(*fields(r)) for r in ordered]
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

def _cmd_levels(cfg):
    print("qubit  neighbor  E")
    for qubit in (1, 2):
        for neighbor_state, excited in (("excited", True), ("ground", False)):
            energy = effective_levels(cfg.device, qubit, excited)
            print(f"{qubit:>5}  {neighbor_state:>8}  {_fmt(energy, cfg.precision)}")
    return 0


def _cmd_cnot(cfg):
    row = cnot_response(cfg.ratio, cfg.mode)
    for column, field in _CSV_COLUMNS:
        if column == "phase_deviation_rad":  # no baseline for a single run
            continue
        value = getattr(row, field)
        print(f"{column} = {value if isinstance(value, str) else _fmt(value, cfg.precision)}")
    return 0


def _cmd_sweep(cfg):
    emit_csv(run_sweep(cfg.sweep), cfg.out or sys.stdout, cfg.precision)
    return 0


def _cmd_simulate(cfg):
    schedule, _compiled = compile_schedule(cfg.gates, cfg.device, cfg.mode)
    psi0 = np.array(cfg.psi0, dtype=complex)
    result = propagate(schedule, psi0)
    # the propagator does not depend on psi0, so the one run serves the check
    report = _verify_propagator(result.total_propagator, ideal_product(cfg.gates), cfg.tol)

    p = cfg.precision
    print(f"segments = {len(schedule.controls)}")
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


# Each command as (help, settings, build, run).  settings are (name, cast,
# default, check, help) in the order parse_args resolves them, so the first
# bad setting in this order is the one reported; cast reads a flag's or a
# config value's text, and check, if any, validates the value from any
# source, default included, and returns what the command uses.  build makes
# the objects that need several settings, and run is the handler; parse_args
# hands it every setting and built object by name.  A command with no
# settings takes no --config.
_PRECISION = ("precision", int, _DEFAULT_PRECISION, _check_precision,
              "significant digits for printed numbers (6-17, default 12)")
_COMMANDS = {
    "levels": ("effective level table", (
        _PRECISION,
        ("d1", float, _REQUIRED, lambda d1: QubitParams(d1, 0.0), None),
        ("d2", float, _REQUIRED, lambda d2: QubitParams(d2, 0.0), None),
        ("d12", float, _REQUIRED, None, None),
    ), lambda v: {"device": DeviceParams(v["d1"], v["d2"], v["d12"])}, _cmd_levels),
    "cnot": ("single CNOT response", (
        _PRECISION,
        ("ratio", float, _REQUIRED, lambda ratio: _finite_positive("ratio", ratio), None),
        ("mode", str, "gated", _normalize_mode, "gated | always-on"),
    ), lambda v: {}, _cmd_cnot),
    "sweep": ("coupling sweep, CSV output", (
        _PRECISION,
        ("mode", str, "gated", lambda mode: _normalize_mode(mode, allow_both=True),
         "gated | always-on | both"),
        ("min", float, _REQUIRED, None, None),
        ("max", float, _REQUIRED, None, None),
        ("points", int, 50, None, None),
        ("spacing", str, "log", None, "log | linear"),
        ("out", str, None, _check_out, "CSV destination (default stdout)"),
        ("baseline_ratio", float, 1e-3, None, None),
    ), lambda v: {"sweep": SweepConfig(v["min"], v["max"], v["points"], spacing=v["spacing"],
                                       modes=v["mode"], baseline_ratio=v["baseline_ratio"])},
        _cmd_sweep),
    # idle levels stay at zero, since the compiler sets every segment's detunings
    "simulate": ("run an explicit gate list", (
        _PRECISION,
        ("gates", str, _REQUIRED, _parse_gates, "e.g. 'ry2:90deg, cnot'"),
        ("psi0", str, "1,0,0,0", _parse_state, None),
        ("mode", str, "gated", _normalize_mode, "gated | always-on"),
        ("tol", float, 0.01, lambda tol: _finite_positive("tol", tol), None),
        ("a1", float, 1.0, lambda a1: QubitParams(0.0, a1), None),
        ("a2", float, 1.0, lambda a2: QubitParams(0.0, a2), None),
        ("d12", float, _REQUIRED, None, None),
    ), lambda v: {"device": DeviceParams(v["a1"], v["a2"], v["d12"])}, _cmd_simulate),
    "verify": ("run the built-in invariant suite", (), lambda v: {},
               lambda _cfg: run_verify()),
}


def main(argv=None):
    cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[cfg.command][3](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
