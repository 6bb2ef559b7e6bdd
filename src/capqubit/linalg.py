"""Dense Hermitian linear algebra for small (2x2 / 4x4) problems.

Everything downstream -- propagators, gate distances, verification -- is
built on three primitives:

* ``eigh``: eigendecomposition of a Hermitian matrix, or of a stack of them
  in one call, by LAPACK (``np.linalg.eigh``) behind validation: square,
  finite, and each matrix Hermitian to 1e-12 of its own largest entry.
  LAPACK gets the validated array itself and reads its lower triangle.
  Eigenvalues ascend and are finite; eigenvectors are orthonormal.
* ``expm_unitary``: the unitary exp(-i H t) assembled from the
  eigendecomposition, V diag(e^{-i lambda t}) V^dagger, for one matrix or a
  stack with one duration each.
* ``distance_up_to_global_phase``: Frobenius distance between two matrices
  minimized over a global phase, min_phi || A - e^{i phi} B ||_F.

A stack is an array of shape (..., n, n); its matrices are computed
independently, so each comes out bit for bit as from a call on it alone.
An error about a stack names the offending matrix by its index, as in
``matrix (2,) is not Hermitian``; an error about a lone matrix names none.
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

# Tolerance for accepting a matrix as Hermitian, relative to its largest
# entry (a norm would overflow to inf on huge entries and accept anything).
_HERMITIAN_RTOL = 1e-12


def wrap_angle(x):
    """Reduce an angle in radians to the half-open interval (-pi, pi]."""
    # The trailing + 0.0 turns -0.0 into +0.0 so wrapped zeros print as "0".
    return -((-x + math.pi) % (2.0 * math.pi) - math.pi) + 0.0


def _require_finite(name, value):
    # bool is an int, but True is no number
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _at(index):
    """How an error names matrix ``index`` of a stack: " (k,)", or "" for a
    lone matrix, whose index is ()."""
    return f" {tuple(int(k) for k in index)}" if len(index) else ""


def _require_square(m):
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def _require_finite_entries(name, m):
    # LAPACK and norms pass NaN along instead of failing, and nan > tol is False.
    if not np.isfinite(m).all():
        first = np.argwhere(~np.isfinite(m))[0]
        entry = ",".join(str(k + 1) for k in first[-2:])
        raise ValueError(f"{name}{_at(first[:-2])} entry ({entry}) is not finite: "
                         f"{m[tuple(first)]}")


def _require_unitary(name, u, tol):
    """Raise ValueError if the square u has a non-finite entry or
    ||u^dagger u - I||_F > tol."""
    _require_finite_entries(name, u)
    # Huge entries overflow u^dagger u to inf and nan; "not <=" fails both.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not dev <= tol:
        raise ValueError(f"{name} fails unitarity by {dev:.3e}")


def _require_hermitian(m):
    """Raise ValueError naming the worst entry pair of the first matrix that
    is not Hermitian to _HERMITIAN_RTOL of its own largest entry (a stack-wide
    scale or argmax would let a small bad matrix hide behind a large one)."""
    dev = np.abs(m - m.conj().swapaxes(-1, -2))
    bad = dev.max(axis=(-2, -1)) > _HERMITIAN_RTOL * (1.0 + np.abs(m).max(axis=(-2, -1)))
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        i, j = np.unravel_index(np.argmax(dev[k]), m.shape[-2:])
        raise ValueError(
            f"matrix{_at(k)} is not Hermitian: entries ({i + 1},{j + 1}) and "
            f"({j + 1},{i + 1}) differ by {dev[k][i, j]:.3e}"
        )


def _require_durations(t, shape):
    """Return t, one finite real duration >= 0 for every matrix or an array of
    them of the stack's leading ``shape``, ready to scale the eigenvalues;
    never broadcast."""
    ts = np.asarray(t)
    if ts.shape not in ((), shape):
        raise ValueError(f"expected one duration per matrix, shape {shape}, "
                         f"got shape {ts.shape}")
    if ts.dtype.kind not in "iuf":
        raise ValueError(f"durations must be real numbers, got dtype {ts.dtype}")
    good = np.isfinite(ts) & (ts >= 0.0)
    if not good.all():
        k = tuple(np.argwhere(~good)[0])
        raise ValueError(f"duration{_at(k)} must be finite and nonnegative, got {ts[k]}")
    return ts[..., None]


def eigh(matrix):
    """Eigendecomposition of a Hermitian matrix, or of a stack of them, by
    LAPACK (``np.linalg.eigh``) in one call.

    Args:
        matrix: array-like of shape (n, n), or (..., n, n) for a stack, with
            finite entries, each matrix Hermitian (validated; the error names
            the offending entry, or worst entry pair, and for a stack the
            index of its matrix).  LAPACK gets the array itself and reads
            only its lower triangle, so a matrix Hermitian only to within the
            tolerance decomposes as that triangle, not as both averaged.

    Returns:
        (eigenvalues, eigenvectors): eigenvalues ascending as a real array of
        shape (..., n); eigenvectors as unitary matrices of shape (..., n, n)
        whose k-th column belongs to the k-th eigenvalue.  An eigenvalue
        that is not a finite float is a ValueError naming its matrix.
    """
    m = np.asarray(matrix, dtype=complex)
    _require_square(m)
    _require_finite_entries("matrix", m)
    _require_hermitian(m)
    w, v = np.linalg.eigh(m)
    # LAPACK rescales its result, which can overflow for finite entries
    if not np.isfinite(w).all():
        first = np.argwhere(~np.isfinite(w))[0]
        raise ValueError(f"matrix{_at(first[:-1])} has eigenvalue {w[tuple(first)]}, "
                         f"which is not a finite float")
    return w, v


def expm_unitary(hamiltonian, t):
    """Unitary propagator exp(-i H t) of a Hermitian H for duration t >= 0.

    Computed spectrally: V diag(e^{-i lambda t}) V^dagger from ``eigh``.
    ``hamiltonian`` may be a stack of shape (..., n, n); ``t`` is then one
    duration for all of them or an array of shape (...), one per matrix, and
    the result is the stack of propagators.  Negative durations are rejected
    -- schedules only move forward in time -- and a duration array is named
    by the index of its bad entry.  A phase lambda * t that is not a finite
    float is a ValueError naming its matrix.
    """
    t = _require_durations(t, np.shape(hamiltonian)[:-2])
    w, v = eigh(hamiltonian)
    with np.errstate(over="ignore"):
        exponent = -1j * w * t
    finite = np.isfinite(exponent)
    if not finite.all():
        first = np.argwhere(~finite)[0]
        lam, dur = w[tuple(first)], np.broadcast_to(t, w.shape)[tuple(first)]
        raise ValueError(f"matrix{_at(first[:-1])} has eigenvalue {lam:.3e}, whose phase "
                         f"lambda * t over duration {dur:.3e} is not a finite float")
    return (v * np.exp(exponent)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def distance_up_to_global_phase(a, b):
    """Frobenius distance between matrices minimized over a global phase.

    Returns min over phi of ||A - e^{i phi} B||_F.  The minimizing phase is
    phi* = arg tr(B^dagger A); the difference is evaluated entrywise at that
    phase rather than through the expanded form
    sqrt(||A||^2 + ||B||^2 - 2 |tr(B^dagger A)|), whose cancellation noise
    floor (~1e-7 for 4x4 unitaries) would mask genuinely tiny distances.
    An entry that is not finite is a ValueError naming it, and so is an
    overlap |tr(B^dagger A)| or a distance that leaves the float range.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # Finite entries can still overflow these sums, so the results are
    # checked.  A non-finite entry always makes the overlap non-finite, so
    # the entries are checked, and the first bad one named, only then.
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = np.sum(b.conj() * a)
        magnitude = abs(overlap)
        if not math.isfinite(magnitude):
            _require_finite_entries("matrix a", a)
            _require_finite_entries("matrix b", b)
            raise ValueError(f"overlap |tr(B^dagger A)| = {magnitude} is not a finite float")
        if overlap == 0.0:
            # Orthogonal case: the phase is irrelevant and the expanded form
            # is exact (nothing cancels).
            distance = math.sqrt(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2))
        else:
            distance = float(np.linalg.norm(a - (overlap / magnitude) * b))
    if not math.isfinite(distance):
        raise ValueError(f"distance {distance} is not a finite float")
    return distance
