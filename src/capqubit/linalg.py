"""Dense Hermitian linear algebra for small (2x2 / 4x4) problems.

Everything downstream -- propagators, gate distances, verification -- is
built on three primitives:

* ``eigh``: eigendecomposition of a Hermitian matrix by LAPACK
  (``np.linalg.eigh``) behind validation: square, finite, and Hermitian to
  a relative 1e-12.  Eigenvalues ascend; eigenvectors are orthonormal.
* ``expm_unitary``: the unitary exp(-i H t) assembled from the
  eigendecomposition, V diag(e^{-i lambda t}) V^dagger.
* ``distance_up_to_global_phase``: Frobenius distance between two matrices
  minimized over a global phase, min_phi || A - e^{i phi} B ||_F.

Angles are radians, hbar = 1 throughout.
"""

import math

import numpy as np

__all__ = [
    "eigh",
    "expm_unitary",
    "distance_up_to_global_phase",
    "wrap_angle",
]

# Relative tolerance for accepting a matrix as Hermitian.
_HERMITIAN_RTOL = 1e-12


def wrap_angle(x):
    """Reduce an angle in radians to the half-open interval (-pi, pi]."""
    # The trailing + 0.0 turns -0.0 into +0.0 so wrapped zeros print as "0".
    return -((-x + math.pi) % (2.0 * math.pi) - math.pi) + 0.0


def _require_finite(name, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _require_square(m):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def _require_hermitian(m):
    """Raise ValueError naming the worst entry pair if m is not Hermitian."""
    dev = np.abs(m - m.conj().T)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[i, j] > _HERMITIAN_RTOL * (1.0 + np.linalg.norm(m)):
        raise ValueError(
            f"matrix is not Hermitian: entries ({i + 1},{j + 1}) and "
            f"({j + 1},{i + 1}) differ by {dev[i, j]:.3e}"
        )


def eigh(matrix):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Args:
        matrix: square Hermitian array-like with finite entries (validated;
            the offending entry, or worst entry pair, is named in the error).

    Returns:
        (eigenvalues, eigenvectors): eigenvalues ascending as a real 1-D
        array; eigenvectors as a unitary matrix whose k-th column belongs to
        the k-th eigenvalue.
    """
    m = np.asarray(matrix, dtype=complex)
    _require_square(m)
    # LAPACK returns NaN eigenvalues for non-finite input instead of failing.
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"matrix entry ({i + 1},{j + 1}) is not finite: {m[i, j]}")
    _require_hermitian(m)
    # LAPACK reads only one triangle, so hand it the Hermitian part.
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def expm_unitary(hamiltonian, t):
    """Unitary propagator exp(-i H t) of a Hermitian H for duration t >= 0.

    Computed spectrally: V diag(e^{-i lambda t}) V^dagger from ``eigh``.
    Negative durations are rejected -- schedules only move forward in time.
    """
    _require_finite("duration", t)
    if t < 0.0:
        raise ValueError(f"duration must be nonnegative, got {t}")
    w, v = eigh(hamiltonian)
    phases = np.exp(-1j * w * t)
    return (v * phases) @ v.conj().T


def distance_up_to_global_phase(a, b):
    """Frobenius distance between matrices minimized over a global phase.

    Returns min over phi of ||A - e^{i phi} B||_F.  The minimizing phase is
    phi* = arg tr(B^dagger A); the difference is evaluated entrywise at that
    phase rather than through the expanded form
    sqrt(||A||^2 + ||B||^2 - 2 |tr(B^dagger A)|), whose cancellation noise
    floor (~1e-7 for 4x4 unitaries) would mask genuinely tiny distances.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.sum(b.conj() * a)
    if overlap == 0.0:
        # Orthogonal case: the phase is irrelevant and the expanded form is
        # exact (nothing cancels).
        return math.sqrt(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2))
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(a - phase * b))
