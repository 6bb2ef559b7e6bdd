"""Tests of the benchmark itself: seeded inputs, the tail rank rule, and that
each output check rejects a perturbed output.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import worker
import workloads as W
from capqubit import CompilationError, GateSpec, ideal_gate


def describe(inp):
    """A plain, comparable description of one op input."""
    if isinstance(inp, W.SweepConfig):
        return ("sweep", inp.ratio_min, inp.ratio_max, inp.points, inp.modes)
    if isinstance(inp, W.CnotSchedule):
        return ("cnot", inp.ratio)
    if isinstance(inp, W.RandomSchedule):
        return ("random", inp.schedule.segments, inp.schedule.device.delta12,
                tuple(inp.psi0.tolist()))
    return tuple((g.ratio, g.mode, g.gates) for g in inp)


def take(name, seed, n):
    return [describe(x) for x in itertools.islice(W.inputs(name, seed), n)]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_inputs_other_seed_different(name):
    first = take(name, 7, 8)
    assert first == take(name, 7, 8)
    assert first != take(name, 8, 8)


def test_gate_list_draws_cover_every_ratio_stratum():
    lo, hi = math.log10(W.RATIO_MIN), math.log10(W.RATIO_MAX)
    pairs = itertools.islice(W.inputs("gate_lists", 3), W.RATIO_STRATA)
    for mode_lists in zip(*pairs):
        strata = {int((math.log10(abs(g.ratio)) - lo) / (hi - lo) * W.RATIO_STRATA)
                  for g in mode_lists}
        assert strata == set(range(W.RATIO_STRATA))


@pytest.mark.parametrize("n", [11, 12, 57, 400])
def test_tail_rank_is_highest_rank_with_ten_beyond(n):
    index, pct = worker.tail_rank(n)
    assert n - 1 - index == worker.TAIL_BEYOND
    # the nearest-rank percentile pct picks the same sample
    assert math.ceil(pct * n / 100.0 - 1e-9) == index + 1


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_rank_without_enough_samples_is_the_largest(n):
    assert worker.tail_rank(n) == (n - 1, 100.0)


@pytest.fixture(scope="module")
def gated_sweep():
    cfg = next(W.inputs("sweep_gated", 1))
    return cfg, *W.run_op("sweep_gated", cfg)


def _perturb_row(rows, pick, **changes):
    i = next(i for i, r in enumerate(rows) if pick(r))
    return rows[:i] + [replace(rows[i], **changes)] + rows[i + 1:]


def test_gated_sweep_check_accepts_real_output(gated_sweep):
    assert W.check_sweep(*gated_sweep) is None


@pytest.mark.parametrize("perturb", [
    lambda rows: _perturb_row(rows, lambda r: 0.01 < r.ratio <= 0.1, amplitude=0.985),
    lambda rows: _perturb_row(rows, lambda r: r.ratio <= 0.01, amplitude=0.9985),
    lambda rows: _perturb_row(rows, lambda r: r.ratio <= 0.1, phase_deviation=0.025),
    lambda rows: _perturb_row(rows, lambda r: r is rows[-1],
                              gate_distance=2.5 * rows[-1].ratio),
    lambda rows: _perturb_row(rows, lambda r: True, leakage=float("nan")),
])
def test_gated_sweep_check_rejects_perturbed_rows(gated_sweep, perturb):
    cfg, rows, text = gated_sweep
    assert W.check_sweep(cfg, perturb(rows), text) is not None


def test_sweep_check_rejects_truncated_csv(gated_sweep):
    cfg, rows, text = gated_sweep
    truncated = "\n".join(text.split("\n")[:-2]) + "\n"
    assert W.check_sweep(cfg, rows, truncated) is not None


def test_always_on_sweep_check_rejects_low_amplitude():
    cfg = next(W.inputs("sweep_always_on", 1))
    rows, text = W.run_op("sweep_always_on", cfg)
    assert W.check_sweep(cfg, rows, text) is None
    bad = _perturb_row(rows, lambda r: r.ratio <= 0.1, amplitude=0.985)
    assert W.check_sweep(cfg, bad, text) is not None


@pytest.fixture(scope="module")
def gate_pair():
    pair = next(W.inputs("gate_lists", 1))
    return pair, W.run_op("gate_lists", pair)


def test_gate_list_check_accepts_real_output(gate_pair):
    assert W.check_gate_lists(*gate_pair) is None


def test_gate_list_check_rejects_wrong_composition(gate_pair):
    pair, results = gate_pair
    compiled, state, target, report = results[1]
    tilted = ideal_gate(GateSpec("rz", 1, 1e-8)) @ target
    bad = [results[0], (compiled, state, tilted, report)]
    assert W.check_gate_lists(pair, bad) is not None


def test_gate_list_check_rejects_large_gated_distance(gate_pair):
    pair, results = gate_pair
    compiled, state, target, report = results[0]
    far = dict(report, distance=1.01 * W.GATE_LIST_DISTANCE_PER_RATIO * abs(pair[0].ratio))
    assert W.check_gate_lists(pair, [(compiled, state, target, far), results[1]]) is not None


def test_compilation_error_counts_as_failed(monkeypatch):
    def fail(_name, _inp):
        raise CompilationError("no admissible parking")
    monkeypatch.setattr(W, "run_op", fail)
    latencies, failures = worker.timed_loop("gate_lists", W.inputs("gate_lists", 1), 0.01)
    assert len(failures) == len(latencies) >= 1
    assert failures[0].startswith("CompilationError")


def test_crosscheck_check_uses_criterion_3_tolerance():
    exact = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for scale, ok in ((0.5, True), (2.0, False)):
        approx = exact.copy()
        approx[1] += scale * W.RK4_STATE_TOL
        assert (W.check_crosscheck(exact, approx) is None) == ok


def test_crosscheck_check_accepts_real_output():
    stream = W.inputs("crosscheck_rk4", 1)
    for inp in itertools.islice(stream, W.CNOT_EVERY):  # includes one CNOT
        assert W.check("crosscheck_rk4", inp, W.run_op("crosscheck_rk4", inp)) is None


REFERENCE = Path(worker.REFERENCE_CSV).read_text("ascii")


def _edit_cell(text, row, col, fn):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_canonical_deviation_admits_roundoff_and_wrapped_phases():
    roundoff = _edit_cell(REFERENCE, 5, 2, lambda v: repr(float(v) + 1.1e-10))
    assert max(worker.csv_deviation(roundoff, REFERENCE).values()) <= worker.CANONICAL_ABS_TOL
    flipped = _edit_cell(REFERENCE, 5, 3, lambda v: repr(float(v) - 2.0 * math.pi))
    assert max(worker.csv_deviation(flipped, REFERENCE).values()) < 1e-12


def test_canonical_deviation_rejects_physics_sized_change():
    moved = _edit_cell(REFERENCE, 60, 5, lambda v: repr(float(v) + 1e-6))
    assert max(worker.csv_deviation(moved, REFERENCE).values()) > worker.CANONICAL_ABS_TOL
    renamed = _edit_cell(REFERENCE, 60, 1, lambda v: "gated" if v != "gated" else "always_on")
    with pytest.raises(ValueError):
        worker.csv_deviation(renamed, REFERENCE)
