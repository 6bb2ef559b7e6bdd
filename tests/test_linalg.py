"""Tests for the dense Hermitian linear-algebra primitives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capqubit.linalg import (
    distance_up_to_global_phase,
    eigh,
    expm_unitary,
    wrap_angle,
)

RECON_TOL = 1e-12
ORTH_TOL = 1e-12
GROUP_TOL = 1e-10
PHASE_TOL = 1e-12


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def random_unitary(rng, n):
    _, v = eigh(random_hermitian(rng, n))
    return v


@pytest.mark.parametrize(
    "x,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3.0 * math.pi, math.pi),
        (2.0 * math.pi, 0.0),
        (-1.5 * math.pi, 0.5 * math.pi),
    ],
)
def test_wrap_angle_examples(x, expected):
    assert wrap_angle(x) == pytest.approx(expected, abs=1e-15)


def test_wrap_angle_range_and_periodicity():
    rng = np.random.default_rng(42)
    for _ in range(500):
        x = rng.uniform(-50.0, 50.0)
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        k = rng.integers(-5, 6)
        assert wrap_angle(x + 2.0 * math.pi * k) == pytest.approx(w, abs=1e-11)


def test_wrap_angle_zero_is_positive_zero():
    assert math.copysign(1.0, wrap_angle(0.0)) == 1.0
    assert math.copysign(1.0, wrap_angle(-0.0)) == 1.0


def test_eigh_diagonal_matrix_sorted():
    w, v = eigh(np.diag([3.0, 1.0, -1.0, -2.0]))
    assert np.allclose(w, [-2.0, -1.0, 1.0, 3.0], atol=1e-14)
    # eigenvectors are identity columns reordered by the sort
    assert np.allclose(np.abs(v), np.eye(4)[:, ::-1], atol=1e-14)


def test_eigh_pauli_x():
    w, v = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= ORTH_TOL


def test_eigh_complex_offdiagonal():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    w, v = eigh(h)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert np.linalg.norm((v * w) @ v.conj().T - h) <= RECON_TOL


@pytest.mark.parametrize("n", [2, 4])
def test_eigh_random_reconstruction(n):
    rng = np.random.default_rng(314)
    for _ in range(300):
        h = random_hermitian(rng, n)
        w, v = eigh(h)
        scale = 1.0 + np.linalg.norm(h)
        assert np.all(np.diff(w) >= -1e-13)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= ORTH_TOL
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= RECON_TOL * scale


def test_eigh_matches_reference_eigenvalues():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        h = random_hermitian(rng, 4) * rng.uniform(0.1, 20.0)
        w, _ = eigh(h)
        ref = np.linalg.eigvalsh(h)
        assert np.allclose(w, ref, atol=1e-11 * (1.0 + np.linalg.norm(h)))


def test_eigh_strong_diagonal_dominance():
    # Large detuning-dominated matrices (tiny off-diagonal relative to the
    # diagonal split) are the workhorse case for parked qubits.
    rng = np.random.default_rng(99)
    for _ in range(100):
        d = rng.uniform(-200.0, 200.0, 4)
        h = np.diag(d).astype(complex)
        h[0, 1] = h[1, 0] = 1.0
        h[2, 3] = h[3, 2] = 1.0
        h[0, 2] = h[2, 0] = rng.uniform(0.0, 2.0)
        w, v = eigh(h)
        scale = 1.0 + np.linalg.norm(h)
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= RECON_TOL * scale
        assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-10 * scale)


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


def test_eigh_rejects_non_hermitian_naming_entries():
    h = np.eye(4, dtype=complex)
    h[1, 2] = 0.5  # (2,3) in 1-based labeling, mirror left at 0
    with pytest.raises(ValueError) as err:
        eigh(h)
    message = str(err.value)
    assert "(2,3)" in message and "(3,2)" in message


def test_eigh_rejects_non_hermitian_matrix_whose_norm_overflows():
    # the tolerance scales with the largest entry, which cannot overflow;
    # the Frobenius norm of this matrix does, and an inf tolerance passes all
    with pytest.raises(ValueError, match=r"\(1,2\) and \(2,1\) differ by 1\.000e\+190"):
        eigh([[1e200, 1e190], [0.0, 1e200]])


def test_expm_zero_hamiltonian_is_identity():
    u = expm_unitary(np.zeros((4, 4)), 7.3)
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_expm_diagonal_case():
    d = 1.7
    t = 0.9
    u = expm_unitary(np.diag([d, 0.0, 0.0, 0.0]), t)
    expected = np.diag([np.exp(-1j * d * t), 1.0, 1.0, 1.0])
    assert np.allclose(u, expected, atol=1e-14)


def test_expm_sigma_x_quarter_period():
    a = 0.8
    sx = np.array([[0.0, a], [a, 0.0]])
    u = expm_unitary(sx, math.pi / (2.0 * a))
    assert np.allclose(u, -1j * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-13)


def test_expm_closed_form_rotation():
    a = 1.3
    theta = 0.6
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = expm_unitary(a * sx, theta / a)
    expected = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * sx
    assert np.allclose(u, expected, atol=1e-13)


def test_expm_group_property_and_unitarity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(rng, 4)
        t1, t2 = rng.uniform(0.0, 3.0, 2)
        u1 = expm_unitary(h, t1)
        u2 = expm_unitary(h, t2)
        u12 = expm_unitary(h, t1 + t2)
        assert np.linalg.norm(u2 @ u1 - u12) <= GROUP_TOL
        assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) <= GROUP_TOL
        assert abs(abs(np.linalg.det(u1)) - 1.0) <= GROUP_TOL


def test_expm_rejects_negative_and_bad_durations():
    h = np.eye(2)
    with pytest.raises(ValueError):
        expm_unitary(h, -0.1)
    with pytest.raises(ValueError):
        expm_unitary(h, float("nan"))
    with pytest.raises(ValueError):
        expm_unitary(h, float("inf"))


def test_distance_identical_is_zero():
    rng = np.random.default_rng(12)
    u = random_unitary(rng, 4)
    assert distance_up_to_global_phase(u, u) <= 1e-14


def test_distance_global_phase_invariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = random_unitary(rng, 4)
        phi = rng.uniform(-math.pi, math.pi)
        assert distance_up_to_global_phase(a, np.exp(1j * phi) * a) <= PHASE_TOL
        b = random_unitary(rng, 4)
        d0 = distance_up_to_global_phase(a, b)
        d1 = distance_up_to_global_phase(a, np.exp(1j * phi) * b)
        assert abs(d0 - d1) <= PHASE_TOL


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_unitary(rng, 4)
        b = random_unitary(rng, 4)
        c = random_unitary(rng, 4)
        dab = distance_up_to_global_phase(a, b)
        dba = distance_up_to_global_phase(b, a)
        assert abs(dab - dba) <= PHASE_TOL
        assert dab <= distance_up_to_global_phase(a, c) + distance_up_to_global_phase(c, b) + 1e-12


def test_distance_orthogonal_example():
    # tr((sigma_x (x) I)^dagger I) = 0, so the distance is sqrt(8)
    sx_i = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    d = distance_up_to_global_phase(np.eye(4), sx_i)
    assert d == pytest.approx(math.sqrt(8.0), abs=1e-12)


def test_distance_cnot_vs_identity_is_two():
    cnot = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert distance_up_to_global_phase(cnot, np.eye(4)) == pytest.approx(2.0, abs=1e-12)


def test_distance_resolves_tiny_differences():
    # The stable evaluation must not have the ~1e-7 cancellation floor of the
    # expanded closed form.
    rng = np.random.default_rng(15)
    u = random_unitary(rng, 4)
    eps = 1e-11
    perturbed = u + eps * random_unitary(rng, 4)
    d = distance_up_to_global_phase(u, perturbed)
    assert d <= 10.0 * eps


def test_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        distance_up_to_global_phase(np.eye(2), np.eye(4))


# ---------------------------------------------------------------------------
# non-finite input and degenerate spectra
# ---------------------------------------------------------------------------

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_eigh_and_expm_reject_non_finite_entries(bad, where):
    h = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    if where == "diagonal":
        h[1, 1] = bad
    else:
        h[0, 2] = h[2, 0] = bad
    with pytest.raises(ValueError, match="not finite"):
        eigh(h)
    with pytest.raises(ValueError, match="not finite"):
        expm_unitary(h, 0.5)


def _haar_unitary(seed, n=4):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# Four eigenvalues drawn from at most three distinct values, so every
# spectrum has a repeated eigenvalue; `rotate` False keeps the matrix
# diagonal, the shape of a gated phase block.
_spectra = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=3
).flatmap(
    lambda values: st.lists(st.sampled_from(values), min_size=4, max_size=4)
)


@settings(max_examples=150)
@given(
    w=_spectra,
    seed=st.integers(0, 2**32 - 1),
    rotate=st.booleans(),
    times=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
)
@example(w=[0.0, 0.0, 0.0, 0.0], seed=0, rotate=True, times=(1.0, 2.0))
@example(w=[0.3, 0.0, 0.0, 0.0], seed=0, rotate=False, times=(1.0, 2.0))
def test_eigh_degenerate_spectra(w, seed, rotate, times):
    v0 = _haar_unitary(seed) if rotate else np.eye(4, dtype=complex)
    h = (v0 * np.asarray(w)) @ v0.conj().T
    h = (h + h.conj().T) / 2.0
    scale = 1.0 + np.linalg.norm(h)
    vals, v = eigh(h)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.allclose(vals, np.sort(w), atol=1e-12 * scale)
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= ORTH_TOL
    assert np.linalg.norm((v * vals) @ v.conj().T - h) <= RECON_TOL * scale
    t1, t2 = times
    u12 = expm_unitary(h, t1 + t2)
    assert np.linalg.norm(expm_unitary(h, t2) @ expm_unitary(h, t1) - u12) <= GROUP_TOL
    assert not np.any(np.isnan(u12))
