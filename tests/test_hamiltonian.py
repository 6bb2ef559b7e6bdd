"""Tests for the two-qubit Hamiltonian builders and effective levels."""

import math
import re

import numpy as np
import pytest

from capqubit import checks
from capqubit.evolution import INITIAL_STATE, PulseSegment, Schedule, propagate, segment_hamiltonian
from capqubit.hamiltonian import (
    _COUPLING,
    DeviceParams,
    QubitParams,
    _hamiltonians,
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
    # bool is an int, but True is no level or drive
    with pytest.raises(ValueError, match="delta must be a finite real number, got True"):
        QubitParams(True, 1.0)
    with pytest.raises(ValueError, match="a must be a finite real number, got True"):
        QubitParams(0.0, True)


def test_device_params_validation():
    with pytest.raises(ValueError):
        device(d12=float("nan"))
    # a wrong part used to fail later, as an AttributeError in the compiler
    with pytest.raises(ValueError, match="^q1 must be a QubitParams, got 1.0$"):
        DeviceParams(1.0, 2.0, 0.1)
    with pytest.raises(ValueError, match="^q2 must be a QubitParams, got None$"):
        DeviceParams(QubitParams(0.0, 1.0), None, 0.1)


@pytest.mark.parametrize("build", [build_capacitive, build_capacitive_pauli_form, build_dipole])
@pytest.mark.parametrize("d1, d2, entry", [(1e308, 1e308, 1), (1e308, -1e308, 2),
                                           (-1e308, 1e308, 2)])
def test_overflowing_entry_is_a_value_error_naming_it(build, d1, d2, entry):
    # math.fsum used to escape as a bare OverflowError
    with pytest.raises(ValueError, match=rf"Hamiltonian entry \({entry},{entry}\) overflows"):
        build(device(d1=d1, d2=d2, d12=0.5))


def scalar_hamiltonian(model, d1, d2, a1, a2, d12):
    """The row-by-row reference: each diagonal entry is math.fsum of its three
    terms +-delta1, +-delta2 and c_k delta12, and each drive sits in its two
    conjugate places.  An entry whose sum overflows raises fsum's
    OverflowError."""
    h = np.zeros((4, 4), dtype=complex)
    for k, (z1, z2, c) in enumerate(zip((1.0, 1.0, -1.0, -1.0), (1.0, -1.0, 1.0, -1.0),
                                        _COUPLING[model].tolist())):
        h[k, k] = math.fsum((z1 * d1, z2 * d2, c * d12))
    for i, j in ((0, 2), (1, 3)):
        h[i, j] = h[j, i] = a1
    for i, j in ((0, 1), (2, 3)):
        h[i, j] = h[j, i] = a2
    return h


def stacked_or_error(model, rows):
    """The stacked core on rows (delta1, delta2, a1, a2, delta12) of one
    model, as int64 views per row, or the message of its error."""
    controls = np.array([(1.0, d1, d2, a1, a2) for d1, d2, a1, a2, _ in rows])
    d12 = np.array([row[4] for row in rows])
    try:
        return [h.view(np.int64).tolist() for h in _hamiltonians(_COUPLING[model], controls, d12)]
    except ValueError as exc:
        return str(exc)


def scalar_or_error(model, rows):
    """The scalar reference on the same rows: the first row whose fsum
    overflows is named with the entry that overflows first."""
    out = []
    for j, (d1, d2, a1, a2, d12) in enumerate(rows):
        try:
            out.append(scalar_hamiltonian(model, d1, d2, a1, a2, d12).view(np.int64).tolist())
        except OverflowError:
            terms = [(z1 * d1, z2 * d2, c * d12) for z1, z2, c in zip(
                (1.0, 1.0, -1.0, -1.0), (1.0, -1.0, 1.0, -1.0), _COUPLING[model].tolist())]
            k = next(k for k, t in enumerate(terms) if not _fsum_is_finite(t))
            return j, (f"Hamiltonian entry ({k + 1},{k + 1}) overflows: the sum of "
                       f"{terms[k]} is not a finite float")
    return out


def _fsum_is_finite(terms):
    try:
        return math.isfinite(math.fsum(terms))
    except OverflowError:
        return False


def seeded_rows(rng, count):
    """Rows (delta1, delta2, a1, a2, delta12) with magnitudes e^-30 to e^30
    and random signs; a quarter of them nearly cancel on one diagonal entry
    (delta2 within a few ulps of what zeroes it)."""
    def magnitude():
        return float(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-30.0, 30.0)))

    rows = []
    for i in range(count):
        d1, d2, d12 = magnitude(), magnitude(), magnitude()
        if i % 4 == 0:
            z1, z2, c = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0),
                         (-1.0, -1.0, 1.0))[int(rng.integers(4))]
            d2 = -z2 * (z1 * d1 + c * d12)
            d2 = float(np.nextafter(d2, math.copysign(math.inf, rng.uniform(-1.0, 1.0))))
        rows.append((d1, d2, abs(magnitude()), abs(magnitude()), d12))
    return rows


@pytest.mark.parametrize("model", ["capacitive", "dipole"])
def test_stacked_core_is_the_scalar_fsum_core_bit_for_bit(model):
    # 4000 seeded rows in one stack and in stacks of one agree with the
    # scalar reference to the last bit of every entry
    rng = np.random.default_rng(20261020)
    rows = seeded_rows(rng, 4000)
    reference = scalar_or_error(model, rows)
    assert stacked_or_error(model, rows) == reference
    for j in range(0, 4000, 97):
        assert stacked_or_error(model, rows[j:j + 1]) == [reference[j]]


@pytest.mark.parametrize("model", ["capacitive", "dipole"])
def test_stacked_core_gives_fsums_signed_zeros(model):
    # every sign of zero in delta1, delta2 and Delta_12, alone and beside
    # non-zero values: an exact zero entry is +0.0 as fsum gives it, where
    # -0.0 - 0.0 in numpy is -0.0
    values = (0.0, -0.0)
    rows = [(d1, d2, 0.0, 0.0, d12) for d1 in values for d2 in values for d12 in values]
    rows += [(d1, d2, 0.5, 0.25, d12) for d1 in (0.0, -0.0, 1.5) for d2 in (-0.0, -1.5)
             for d12 in (-0.0, 0.75)]
    reference = scalar_or_error(model, rows)
    assert stacked_or_error(model, rows) == reference
    zero = np.array(0.0).view(np.int64)
    h = _hamiltonians(_COUPLING[model], np.array([(1.0, -0.0, -0.0, 0.0, 0.0)]), -0.0)
    assert (h.view(np.int64) == zero).all()


@pytest.mark.parametrize("model", ["capacitive", "dipole"])
@pytest.mark.parametrize("d1, d2, d12, row", [
    (1e308, 1e308, -1e308, 1),   # fsum's own intermediate overflow
    (1e308, -1e308, 1e308, 1),   # 1e308 on the first entry, an overflow on the second
    (1e308, 1e308, 0.5, 1),      # a three-term entry overflows
    (1e308, -1e308, 0.5, 1),     # a two-term entry overflows in the capacitive model
    (-8e307, -9e307, 5e306, 2),  # sums within a few percent of the float limit
])
def test_stacked_core_overflows_where_fsum_does(model, d1, d2, d12, row):
    # a calm row, the row under test, then a row that overflows: the stack
    # raises the scalar entry's message for the first row that overflows,
    # and propagating the rows as one schedule, on that row's coupling,
    # names that row's segment with the same message
    rows = [(0.1, 0.2, 0.3, 0.4, 0.05), (d1, d2, 0.3, 0.4, d12), (1e308, 1e308, 0.0, 0.0, 1.0)]
    first, message = scalar_or_error(model, rows)
    assert first == row
    assert stacked_or_error(model, rows) == message
    if model == "capacitive":
        schedule = Schedule([PulseSegment(1.0, *r[:4]) for r in rows], device(d12=rows[row][4]))
        with pytest.raises(ValueError, match=f"segment {row}\\): {re.escape(message)}$"):
            propagate(schedule, INITIAL_STATE)


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


def test_every_builder_returns_an_exactly_hermitian_matrix():
    # eigh hands LAPACK the array itself, which reads one triangle; every
    # matrix the package builds has both triangles equal bit for bit
    rng = np.random.default_rng(53)
    for _ in range(2000):
        d1, d2, d12 = rng.uniform(-5.0, 5.0, 3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        a1, a2 = rng.uniform(0.0, 5.0, 2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
        dev = device(d1, d2, a1, a2, d12)
        seg = PulseSegment(duration=1.0, delta1=d1, delta2=d2, a1=a1, a2=a2)
        for h in (build_capacitive(dev), build_capacitive_pauli_form(dev), build_dipole(dev),
                  segment_hamiltonian(seg, dev, "capacitive"),
                  segment_hamiltonian(seg, dev, "dipole")):
            assert np.array_equal(h, h.conj().T)


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
    # a qubit is an integer 1 or 2, numpy's included; a bool or a float
    # equal to one is not
    for qubit in (3, True, 1.0, np.float64(2.0), np.bool_(True), "1", None):
        with pytest.raises(ValueError, match=re.escape(f"qubit must be 1 or 2, got {qubit!r}")):
            effective_levels(device(), qubit, True)
    dev = device(d1=1.0, d2=2.0, d12=0.4)
    assert effective_levels(dev, np.int64(2), True) == effective_levels(dev, 2, True)


def test_effective_levels_rejects_a_neighbor_state_that_is_not_a_bool():
    # any truthy object used to count as an excited neighbor
    dev = device(d12=0.01)
    for state in ("no", 1, 0, None):
        with pytest.raises(ValueError, match=re.escape(
                f"neighbor_excited must be True or False, got {state!r}")):
            effective_levels(dev, 1, state)
    assert effective_levels(dev, 1, np.bool_(False)) == effective_levels(dev, 1, False) == 0.0


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
