"""Dense Hermitian eigensolver seam and small matrix helpers.

Every density-matrix eigenproblem in the package (PSD validation,
entropies, Werner fits, concurrence, PPT and rotational-invariance
checks) goes through :func:`jacobi_eigh` or :func:`eigvalsh_jacobi`.
Both are backed by LAPACK (``numpy.linalg.eigh``) applied to the
Hermitian part of the input, after the input checks below; the matrices
are small (density matrices up to 256 x 256).  The names are historical:
the cyclic Jacobi iteration they once ran now lives in the test suite as
the reference the LAPACK route is pinned to.  Bulk spectra of larger
reshaped state tensors go through dedicated Schmidt-decomposition paths
elsewhere.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, LAPACK-backed.

    The input must be square and Hermitian to a skew norm of 1e-10
    relative to its Frobenius norm; the decomposition is that of its
    Hermitian part ``(a + a^H) / 2``.  A zero matrix returns the identity
    as its eigenvectors.

    Parameters
    ----------
    a : (n, n) array_like, Hermitian up to round-off.

    Returns
    -------
    w : (n,) float64, eigenvalues ascending.
    v : (n, n) complex128, unitary with ``a @ v[:, k] == w[k] * v[:, k]``.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 1:
        return np.array([m[0, 0].real]), np.eye(1, dtype=np.complex128)

    scale = np.linalg.norm(m)
    if scale == 0.0:
        return np.zeros(n), np.eye(n, dtype=np.complex128)
    skew = np.linalg.norm(m - m.conj().T)
    if skew > 1e-10 * max(1.0, scale):
        raise ValueError(f"matrix is not Hermitian (skew norm {skew:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, v


def eigvalsh_jacobi(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending; the same values as :func:`jacobi_eigh`."""
    w, _ = jacobi_eigh(a)
    return w


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value.

    Hermitian and anti-Hermitian inputs take the eigenvalue fast path
    (anti-Hermitian ``a`` via the Hermitian matrix ``1j * a``); anything
    else goes through the Gram matrix.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    herm_err = np.max(np.abs(m - m.conj().T))
    anti_err = np.max(np.abs(m + m.conj().T))
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(m))))
    if herm_err <= tiny:
        return float(np.max(np.abs(eigvalsh_jacobi(m))))
    if anti_err <= tiny:
        return float(np.max(np.abs(eigvalsh_jacobi(1j * m))))
    w = eigvalsh_jacobi(m.conj().T @ m)
    return float(math.sqrt(max(0.0, float(w[-1]))))


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Small negative eigenvalues from rounding are clipped to zero.
    """
    w, v = jacobi_eigh(np.asarray(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
