"""Tests for the two-qubit Hamiltonian builders and effective levels."""

import math

import numpy as np
import pytest

from capqubit import checks
from capqubit.hamiltonian import (
    DeviceParams,
    QubitParams,
    build_capacitive,
    build_capacitive_pauli_form,
    build_dipole,
    effective_levels,
)

HERMITICITY_TOL = 0.0  # builders place conjugate pairs from the same scalar
SHIFT_TOL = 1e-13

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def device(d1=0.0, d2=0.0, a1=0.0, a2=0.0, d12=0.0):
    return DeviceParams(
        q1=QubitParams(delta=d1, a=a1),
        q2=QubitParams(delta=d2, a=a2),
        delta12=d12,
    )


def dyadic(rng, lo=-320, hi=321):
    """Random dyadic rational k/64 — exactly representable, so algebraic
    identities that hold in exact arithmetic hold bitwise."""
    return float(rng.integers(lo, hi)) / 64.0


def test_qubit_params_validation():
    with pytest.raises(ValueError):
        QubitParams(delta=float("nan"), a=0.0)
    with pytest.raises(ValueError):
        QubitParams(delta=0.0, a=-1.0)
    with pytest.raises(ValueError):
        QubitParams(delta=0.0, a=float("inf"))


def test_device_params_validation():
    with pytest.raises(ValueError):
        device(d12=float("nan"))


def test_capacitive_coupling_only():
    d12 = 0.37
    h = build_capacitive(device(d12=d12))
    assert np.array_equal(h, np.diag([d12, 0.0, 0.0, 0.0]).astype(complex))


def test_capacitive_detunings_only():
    h = build_capacitive(device(d1=1.0, d2=2.0))
    assert np.array_equal(h, np.diag([3.0, -1.0, 1.0, -3.0]).astype(complex))


def test_capacitive_detunings_plus_coupling():
    h = build_capacitive(device(d1=1.0, d2=2.0, d12=0.4))
    assert np.array_equal(h, np.diag([3.4, -1.0, 1.0, -3.0]).astype(complex))


def test_capacitive_drive_placement():
    # Distinct strengths pin each drive to its qubit: a1 flips qubit 1
    # (entries (1,3) and (2,4) in 1-based labels), a2 flips qubit 2
    # ((1,2) and (3,4)); nothing couples |1>|1> to |0>|0> directly.
    h = build_capacitive(device(a1=0.3, a2=0.7))
    assert h[0, 2] == 0.3 and h[2, 0] == 0.3
    assert h[1, 3] == 0.3 and h[3, 1] == 0.3
    assert h[0, 1] == 0.7 and h[1, 0] == 0.7
    assert h[2, 3] == 0.7 and h[3, 2] == 0.7
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0
    assert np.array_equal(h, np.kron(0.3 * SX, I2) + np.kron(I2, 0.7 * SX))


def test_capacitive_matches_kron_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d1, d2, a1, a2, d12 = rng.uniform(-5.0, 5.0, 5)
        a1, a2 = abs(a1), abs(a2)
        h = build_capacitive(device(d1, d2, a1, a2, d12))
        oracle = (
            np.kron(np.array([[d1, a1], [a1, -d1]]), I2)
            + np.kron(I2, np.array([[d2, a2], [a2, -d2]]))
            + np.diag([d12, 0.0, 0.0, 0.0])
        )
        # the oracle rounds (d1+d2)+d12 pairwise while the builder sums the
        # addends exactly, so agreement is to one ulp, not bitwise
        assert np.max(np.abs(h - oracle)) <= 5e-15
        assert np.max(np.abs(h - h.conj().T)) <= HERMITICITY_TOL


def test_capacitive_equals_pauli_form_bitwise():
    # Both builders accumulate the same atomic addends with exact summation,
    # so the matrices agree bit for bit, not merely to rounding.
    rng = np.random.default_rng(11)
    for _ in range(500):
        d1, d2, a1, a2, d12 = (rng.uniform(-5.0, 5.0) for _ in range(5))
        dev = device(d1, d2, abs(a1), abs(a2), d12)
        assert np.array_equal(build_capacitive(dev), build_capacitive_pauli_form(dev))


def test_pauli_form_coupling_only():
    h = build_capacitive_pauli_form(device(d12=4.0))
    assert np.array_equal(h, np.diag([4.0, 0.0, 0.0, 0.0]).astype(complex))


def test_pauli_form_matches_operator_algebra():
    # Independent oracle: assemble Delta12/4 (sz sz + sz 1 + 1 sz + 1 1)
    # + detuning and drive terms literally from Kronecker products.
    rng = np.random.default_rng(23)
    for _ in range(100):
        d1, d2, a1, a2, d12 = rng.uniform(-5.0, 5.0, 5)
        a1, a2 = abs(a1), abs(a2)
        dev = device(d1, d2, a1, a2, d12)
        quarter = d12 / 4.0
        oracle = (
            d1 * np.kron(SZ, I2)
            + d2 * np.kron(I2, SZ)
            + a1 * np.kron(SX, I2)
            + a2 * np.kron(I2, SX)
            + quarter * (np.kron(SZ, SZ) + np.kron(SZ, I2) + np.kron(I2, SZ) + np.eye(4))
        )
        assert np.max(np.abs(build_capacitive_pauli_form(dev) - oracle)) <= 1e-14


def test_dipole_coupling_only():
    w = 0.9
    h = build_dipole(device(d12=w))
    assert np.array_equal(h, np.diag([w, -w, -w, w]).astype(complex))
    # the coupling term alone is w * sz sz: doubly degenerate +/- w
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-w, -w, w, w], atol=1e-14)


def test_dipole_matches_operator_algebra():
    rng = np.random.default_rng(31)
    for _ in range(100):
        w1, w2, o1, o2, w12 = rng.uniform(-5.0, 5.0, 5)
        o1, o2 = abs(o1), abs(o2)
        dev = device(w1, w2, o1, o2, w12)
        oracle = (
            w1 * np.kron(SZ, I2)
            + w2 * np.kron(I2, SZ)
            + o1 * np.kron(SX, I2)
            + o2 * np.kron(I2, SX)
            + w12 * np.kron(SZ, SZ)
        )
        h = build_dipole(dev)
        assert np.max(np.abs(h - oracle)) <= 1e-14
        assert np.max(np.abs(h - h.conj().T)) <= HERMITICITY_TOL


def test_dipole_and_capacitive_differ_by_diagonal_shift():
    # The capacitive coupling is the dipole sz-sz form at strength
    # Delta12/4 plus single-qubit shifts plus an identity offset.
    rng = np.random.default_rng(37)
    worst = checks.dipole_equivalence_error(rng.uniform(-5.0, 5.0, 100))
    assert worst <= checks.DIPOLE_EQUIVALENCE_TOL


def test_effective_levels_example():
    dev = device(d1=1.0, d2=2.0, d12=0.4)
    assert effective_levels(dev, 1, True) == pytest.approx(1.2, abs=1e-15)
    assert effective_levels(dev, 1, False) == pytest.approx(1.0, abs=1e-15)
    assert effective_levels(dev, 2, True) == pytest.approx(2.2, abs=1e-15)
    assert effective_levels(dev, 2, False) == pytest.approx(2.0, abs=1e-15)


def test_effective_levels_splitting_is_half_coupling():
    rng = np.random.default_rng(41)
    for _ in range(300):
        d1, d2, d12 = (dyadic(rng) for _ in range(3))
        dev = device(d1=d1, d2=d2, d12=d12)
        for qubit in (1, 2):
            split = effective_levels(dev, qubit, True) - effective_levels(dev, qubit, False)
            assert split == d12 / 2.0


def test_effective_levels_match_hamiltonian_diagonal():
    # With drives off the capacitive Hamiltonian is diagonal; conditional
    # splittings read straight off diagonal differences.  Dyadic inputs make
    # the agreement exact.
    rng = np.random.default_rng(43)
    for _ in range(300):
        d1, d2, d12 = (dyadic(rng) for _ in range(3))
        dev = device(d1=d1, d2=d2, d12=d12)
        h = np.real(np.diag(build_capacitive(dev)))
        # qubit 1 transitions: neighbor (qubit 2) excited |x1>|1>, ground |x1>|0>
        assert (h[0] - h[2]) / 2.0 == effective_levels(dev, 1, True)
        assert (h[1] - h[3]) / 2.0 == effective_levels(dev, 1, False)
        # qubit 2 transitions
        assert (h[0] - h[1]) / 2.0 == effective_levels(dev, 2, True)
        assert (h[2] - h[3]) / 2.0 == effective_levels(dev, 2, False)


def test_effective_levels_rejects_bad_qubit():
    with pytest.raises(ValueError):
        effective_levels(device(), 3, True)


def test_spectrum_shift_under_identity_offset():
    # Adding c*I moves every eigenvalue by c and nothing else.
    rng = np.random.default_rng(47)
    for _ in range(50):
        d1, d2, a1, a2, d12 = rng.uniform(-3.0, 3.0, 5)
        c = rng.uniform(-2.0, 2.0)
        h = build_capacitive(device(d1, d2, abs(a1), abs(a2), d12))
        w0 = np.linalg.eigvalsh(h)
        w1 = np.linalg.eigvalsh(h + c * np.eye(4))
        assert np.max(np.abs(w1 - (w0 + c))) <= SHIFT_TOL
