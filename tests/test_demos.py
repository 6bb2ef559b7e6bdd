"""Smoke tests for the demos: each main() runs and prints a passing verdict."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, capsys, *args):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(*args)
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "name,args,verdicts",
    [
        ("level_structure", (), [
            "max elementwise difference: 0.000e+00  (the two pictures are identical)",
            "  qubit 1: neighbor excited +1.2000, neighbor ground +1.0000, shift +0.2000",
            "  qubit 2: neighbor excited +2.2000, neighbor ground +2.0000, shift +0.2000",
        ]),
        ("cnot_pulse_sequence", (), ["within tolerance 0.05: True"]),
        ("coupling_sweep", (["coupling_sweep.py"],),
         ["always-on deviation >= gated deviation on [0.01, 0.3]: True"]),
    ],
)
def test_demo_prints_its_verdict(capsys, name, args, verdicts):
    lines = run_demo(name, capsys, *args)
    for verdict in verdicts:
        assert verdict in lines
