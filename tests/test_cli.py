"""Tests for the command-line interface: parsing, CSV output, verify suite."""

import io
import math
from pathlib import Path

import pytest

from capqubit import checks
from capqubit.checks import run_verify
from capqubit.cli import (
    CSV_HEADER,
    emit_csv,
    main,
    parse_args,
    _parse_gate_token,
    _parse_gates,
    _parse_state,
)
from capqubit.experiments import SweepRow
from capqubit.hamiltonian import DeviceParams, QubitParams
from capqubit.pulsecompiler import GateSpec


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_block(section, lang):
    """The first ```lang block under the README heading ``## section``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {section}\n", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_parse_levels_flags():
    cfg = parse_args(["levels", "--d1", "1", "--d2", "2", "--d12", "0.4"])
    assert cfg.command == "levels"
    assert cfg.device == DeviceParams(QubitParams(1.0, 0.0), QubitParams(2.0, 0.0), 0.4)
    assert cfg.precision == 12


def test_parse_levels_missing_setting_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--d1", "1", "--d2", "2"])
    assert err.value.code == 2


def test_parse_no_command_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args([])
    assert err.value.code == 2


def test_parse_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--d1", "1", "--d2", "2", "--d12", "1", "--frob", "3"])
    assert err.value.code == 2


def test_config_file_fills_missing_settings(tmp_path):
    path = write_config(tmp_path, "d1 = 1.5\nd2 = -0.5\nd12 = 0.2  # coupling\n")
    cfg = parse_args(["levels", "--config", path])
    assert cfg.device == DeviceParams(QubitParams(1.5, 0.0), QubitParams(-0.5, 0.0), 0.2)


def test_cli_flag_overrides_config(tmp_path):
    path = write_config(tmp_path, "d1 = 1.5\nd2 = -0.5\nd12 = 0.2\n")
    cfg = parse_args(["levels", "--config", path, "--d12", "0.9"])
    assert cfg.device.delta12 == 0.9


def test_missing_config_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--config", str(tmp_path / "absent.cfg")])
    assert err.value.code == 2


def test_malformed_config_line_exits_2(tmp_path):
    path = write_config(tmp_path, "d1 = 1.5\nnonsense line\n")
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--config", path])
    assert err.value.code == 2


@pytest.mark.parametrize("precision", ["5", "18"])
def test_precision_out_of_range_exits_2(precision):
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--d1", "0", "--d2", "0", "--d12", "1",
                    "--precision", precision])
    assert err.value.code == 2


def test_precision_bounds_accepted():
    for precision in ("6", "17"):
        cfg = parse_args(["levels", "--d1", "0", "--d2", "0", "--d12", "1",
                          "--precision", precision])
        assert cfg.precision == int(precision)


def test_parse_cnot_normalizes_mode():
    cfg = parse_args(["cnot", "--ratio", "0.01", "--mode", "Always-On"])
    assert cfg.mode == "always_on"
    with pytest.raises(SystemExit):
        parse_args(["cnot", "--ratio", "0.01", "--mode", "pulsed"])
    with pytest.raises(SystemExit):
        parse_args(["cnot", "--ratio", "-0.1"])


def test_parse_sweep_defaults_and_both_modes():
    cfg = parse_args(["sweep", "--min", "0.01", "--max", "0.1", "--mode", "both"])
    assert cfg.command == "sweep"
    assert cfg.sweep.points == 50
    assert cfg.sweep.spacing == "log"
    assert set(cfg.sweep.modes) == {"gated", "always_on"}
    assert cfg.sweep.baseline_ratio == 1e-3


def test_parse_sweep_rejects_bad_range():
    with pytest.raises(SystemExit) as err:
        parse_args(["sweep", "--min", "0.2", "--max", "0.1"])
    assert err.value.code == 2


def test_parse_sweep_cli_range_beats_config(tmp_path):
    path = write_config(tmp_path, "min = 0.05\nmax = 0.5\npoints = 7\n")
    cfg = parse_args(["sweep", "--config", path, "--min", "0.02"])
    assert cfg.sweep.ratio_min == 0.02
    assert cfg.sweep.ratio_max == 0.5
    assert cfg.sweep.points == 7


def test_parse_sweep_spacing_flags_conflict():
    with pytest.raises(SystemExit) as err:
        parse_args(["sweep", "--min", "0.01", "--max", "0.1", "--log", "--linear"])
    assert err.value.code == 2


def test_parse_simulate_requires_config():
    with pytest.raises(SystemExit) as err:
        parse_args(["simulate"])
    assert err.value.code == 2


def test_parse_simulate_full_config(tmp_path):
    path = write_config(
        tmp_path,
        "d12 = 0.001\ngates = rx2:90deg, cnot\npsi0 = 0,1,0,0\ntol = 0.02\n",
    )
    cfg = parse_args(["simulate", "--config", path])
    # drives default to 1, idle levels are zero
    assert cfg.device == DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 1.0), 0.001)
    assert cfg.gates == (GateSpec("rx", 2, math.radians(90.0)), GateSpec("cnot"))
    assert cfg.psi0 == (0j, 1 + 0j, 0j, 0j)
    assert cfg.tol == 0.02


# ---------------------------------------------------------------------------
# gate-token and state parsing
# ---------------------------------------------------------------------------

def test_gate_tokens():
    assert _parse_gate_token("cnot") == GateSpec("cnot")
    assert _parse_gate_token("zz:0.5") == GateSpec("zz", angle=0.5)
    g = _parse_gate_token("rx1:90deg")
    assert g.kind == "rx" and g.qubit == 1
    assert g.angle == pytest.approx(math.pi / 2.0, abs=1e-15)
    g = _parse_gate_token(" RY2:-1.5708 ")
    assert g.kind == "ry" and g.qubit == 2 and g.angle == -1.5708


@pytest.mark.parametrize(
    "token", ["rx3:1", "rx1", "rx1:", "rx1:abc", "hadamard:1", "zz", "cnot:1"]
)
def test_bad_gate_tokens(token):
    with pytest.raises(ValueError):
        _parse_gate_token(token)


def test_parse_gates_list():
    gates = _parse_gates("rz1:0.3, cnot, zz:1.0")
    assert [g.kind for g in gates] == ["rz", "cnot", "zz"]
    with pytest.raises(ValueError):
        _parse_gates("  ,  ")


def test_parse_state():
    assert _parse_state("1,0,0,0") == (1 + 0j, 0j, 0j, 0j)
    psi = _parse_state("0.6, 0.8j, 0, 0")
    assert psi[1] == 0.8j
    with pytest.raises(ValueError):
        _parse_state("1,0,0")
    with pytest.raises(ValueError):
        _parse_state("1,0,0,zebra")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def make_row(ratio, mode="gated"):
    return SweepRow(
        ratio=ratio,
        mode=mode,
        amplitude=0.999,
        phase=-1.234567890123,
        phase_deviation=0.0,
        gate_distance=ratio * 1.67,
        leakage=1.0 - 0.999**2,
    )


def test_emit_csv_header_and_sorting():
    rows = [make_row(0.1), make_row(0.01), make_row(0.05, mode="always_on")]
    buf = io.StringIO()
    emit_csv(rows, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "ratio,mode,amplitude,phase_rad,phase_deviation_rad,gate_distance,leakage"
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 5
    # always_on sorts before gated; ratios ascending within a mode
    assert lines[1].split(",")[1] == "always_on"
    assert [float(l.split(",")[0]) for l in lines[2:4]] == [0.01, 0.1]


def test_emit_csv_is_deterministic():
    rows = [make_row(0.1), make_row(0.01)]
    a, b = io.StringIO(), io.StringIO()
    emit_csv(rows, a)
    emit_csv(list(reversed(rows)), b)
    assert a.getvalue() == b.getvalue()


def test_emit_csv_round_trips_values():
    row = make_row(0.0123456789)
    buf = io.StringIO()
    emit_csv([row], buf, precision=17)
    fields = buf.getvalue().split("\n")[1].split(",")
    assert float(fields[0]) == row.ratio
    assert float(fields[3]) == row.phase
    assert float(fields[6]) == row.leakage


def test_emit_csv_writes_file(tmp_path):
    out = tmp_path / "sweep.csv"
    emit_csv([make_row(0.05)], str(out))
    text = out.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")


def test_emit_csv_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())
    with pytest.raises(ValueError):
        emit_csv([make_row(0.1)], io.StringIO(), precision=3)
    with pytest.raises(OSError):
        emit_csv([make_row(0.1)], str(tmp_path / "no_dir" / "x.csv"))


# ---------------------------------------------------------------------------
# verify suite and command dispatch
# ---------------------------------------------------------------------------

def test_run_verify_passes():
    buf = io.StringIO()
    assert run_verify(buf) == 0
    text = buf.getvalue()
    assert text.count("PASS") == 8
    assert "FAIL" not in text.replace("PASS", "")
    assert "all checks passed" in text


def test_run_verify_reports_a_failing_check(monkeypatch, capsys):
    # a Pauli-form builder off by 1e-14 in entry (2,3) must fail the
    # identity check, name the entry and return 1, also through main
    exact = checks.build_capacitive_pauli_form

    def perturbed(dev):
        h = exact(dev)
        h[1, 2] += 1e-14
        return h

    monkeypatch.setattr(checks, "build_capacitive_pauli_form", perturbed)
    buf = io.StringIO()
    assert run_verify(buf) == 1
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("FAIL  hamiltonian identity")
    assert "at entry (2,3)" in lines[0]
    assert lines[-1].startswith("FAILED: hamiltonian identity")
    assert main(["verify"]) == 1
    assert "FAILED: hamiltonian identity" in capsys.readouterr().out


def test_main_levels(capsys):
    assert main(["levels", "--d1", "1", "--d2", "2", "--d12", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "1.2" in out and "2.2" in out


def test_main_cnot(capsys):
    assert main(["cnot", "--ratio", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "amplitude" in out and "gate_distance" in out


def test_main_sweep_writes_identical_files(tmp_path):
    args = ["sweep", "--min", "0.01", "--max", "0.05", "--points", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.decode("ascii").split("\n")[0] == CSV_HEADER
    assert len(b1.decode().strip().split("\n")) == 4  # header + 3 rows


def test_main_sweep_stdout(capsys):
    assert main(["sweep", "--min", "0.01", "--max", "0.05", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)


def test_main_sweep_unwritable_path_returns_1(tmp_path, capsys):
    code = main(["sweep", "--min", "0.01", "--max", "0.05", "--points", "2",
                 "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_simulate_passing(tmp_path, capsys):
    path = write_config(tmp_path, "d12 = 0.001\ngates = cnot\ntol = 0.01\n")
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "pass = True" in out
    assert "segments = 4" in out


def test_main_simulate_failing_tolerance(tmp_path, capsys):
    path = write_config(tmp_path, "d12 = 0.3\ngates = cnot\ntol = 0.001\n")
    assert main(["simulate", "--config", path]) == 1
    assert "pass = False" in capsys.readouterr().out


def test_main_simulate_compile_failure_returns_1(tmp_path, capsys):
    path = write_config(tmp_path, "d12 = 0.1\na1 = 0\ngates = rx1:90deg\n")
    assert main(["simulate", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config keys: only the keys a command reads are accepted
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "command,text",
    [
        ("levels", "d1 = 1\nd2 = 2\nd12 = 0.4\n"),
        ("cnot", "ratio = 0.01\n"),
        ("sweep", "min = 0.01\nmax = 0.05\n"),
        ("simulate", "d12 = 0.001\ngates = cnot\n"),
    ],
)
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, command, text):
    path = write_config(tmp_path, text + "bogus_key = 7\n")
    with pytest.raises(SystemExit) as err:
        parse_args([command, "--config", path])
    assert err.value.code == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["d1", "d2"])
def test_simulate_rejects_idle_detuning_keys(tmp_path, capsys, key):
    # The compiler sets every segment's detunings itself, so idle detunings
    # in a simulate config would be silently ignored.
    path = write_config(tmp_path, f"d12 = 0.001\ngates = cnot\n{key} = 3\n")
    with pytest.raises(SystemExit) as err:
        parse_args(["simulate", "--config", path])
    assert err.value.code == 2
    assert key in capsys.readouterr().err


def test_config_key_of_another_command_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "d1 = 1\nd2 = 2\nd12 = 0.4\nratio = 0.1\n")
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--config", path])
    assert err.value.code == 2
    assert "ratio" in capsys.readouterr().err


def test_sweep_min_is_an_unknown_key(tmp_path, capsys):
    # the range keys are spelled like their flags, `min` and `max`, only
    path = write_config(tmp_path, "sweep_min = 0.02\nmax = 0.5\n")
    with pytest.raises(SystemExit) as err:
        parse_args(["sweep", "--config", path])
    assert err.value.code == 2
    assert "unknown config key 'sweep_min'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,text,reason",
    [
        (["levels", "--d1", "1", "--d2", "2", "--d12", "nan"], None,
         "delta12 must be a finite real number"),
        (["simulate"], "d12 = 0.001\ngates = cnot\na1 = -1\n",
         "drive strength a must be >= 0"),
        (["cnot", "--ratio", "inf"], None, "ratio must be finite and > 0"),
        (["simulate"], "d12 = 0.001\ngates = cnot\ntol = nan\n",
         "tol must be finite and > 0"),
    ],
    ids=["levels-d12-nan", "simulate-a1-negative", "cnot-ratio-inf", "simulate-tol-nan"],
)
def test_invalid_setting_exits_2_with_its_reason(tmp_path, capsys, argv, text, reason):
    # values the domain objects reject are usage errors, not runtime failures
    if text is not None:
        argv = argv + ["--config", write_config(tmp_path, text)]
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2
    assert reason in capsys.readouterr().err


def test_readme_command_line_examples_parse(tmp_path):
    # a documented flag or config key that stops parsing fails here
    config = write_config(tmp_path, readme_block("Command line", "ini"))
    lines = [line.split("#", 1)[0].split()
             for line in readme_block("Command line", "sh").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["capqubit"]]
    assert len(commands) == 5
    for argv in commands:
        argv = [config if word == "run.cfg" else word for word in argv]
        assert parse_args(argv).command == argv[0]
