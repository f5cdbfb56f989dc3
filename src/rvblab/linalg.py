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

Each public call checks its input once and then hands it to
:func:`_eigh`, the one LAPACK step, which checks nothing again.
:func:`jacobi_eigh` checks for finite entries, a square shape and a
Hermitian input, a 1 x 1 input included: its imaginary part is its skew.
:func:`operator_norm` checks for finite entries and picks its route (the
matrix when it is Hermitian to 1e-12 of its peak entry, ``1j`` times it
when it is anti-Hermitian to the same tolerance, or else its Gram matrix,
formed at peak 1 when the entries are so large or so small that their
products would overflow or underflow).

:func:`jacobi_eigh` (and so :func:`eigvalsh_jacobi`), :func:`operator_norm`
and :func:`matrix_sqrt_psd` share one memo.  The pair pipeline asks the
same small eigenproblems many times over: every cross pair of the gas,
and every pair in one distance class of a symmetric lattice, has the same
two-site density matrix.  The key is the function plus the shape and
the ``complex128`` bytes of an input with at most 16 entries (up to
4 x 4: one or two qubits); larger inputs are computed on every call.  The
memo is a ``functools.lru_cache`` of 4,096 entries, at most about 1 kB
each.  The input checks run on a miss only, and an input that raises is
never stored, so it raises on every call.  A hit returns the very arrays
the miss computed, so its bits are the miss's bits.  Every returned array
is read-only, memoised or not.  :func:`operator_norm` solves its own
eigenproblems without the memo: its own entry already covers them.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# inputs with at most 16 entries (up to 4 x 4: one or two qubits) are memoised
_MEMO_MAX_ENTRIES = 16
_MEMO_SIZE = 4096
# operator_norm scales a Gram route input whose peak lies outside
# [1 / _GRAM_MAX_PEAK, _GRAM_MAX_PEAK]: inside it the Gram entries, sums of
# up to 2**20 products, neither overflow nor underflow
_GRAM_MAX_PEAK = 2.0**500


def _frozen(out):
    """``out`` with every array in it made read-only."""
    for part in out if isinstance(out, tuple) else (out,):
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
    return out


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo(compute: Callable, shape: tuple[int, ...], data: bytes):
    return _frozen(compute(np.frombuffer(data, dtype=np.complex128).reshape(shape)))


def _memoised(compute: Callable) -> Callable:
    """Serve ``compute`` on the ``complex128`` input, from the memo when small.

    ``compute`` stays reachable, unmemoised, as ``__wrapped__``.
    """

    @functools.wraps(compute)
    def seam(a: np.ndarray):
        m = np.asarray(a, dtype=np.complex128)
        if m.size <= _MEMO_MAX_ENTRIES:
            return _memo(compute, m.shape, m.tobytes())
        return _frozen(compute(m))

    return seam


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, bit for bit, without the wrapper's dispatch."""
    flat = x.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one LAPACK step: the eigendecomposition of ``(a + a^H) / 2``.

    ``a`` is a square matrix with finite entries that its caller has
    already found Hermitian; nothing is checked again here.  A 1 x 1
    input returns its real part and a zero matrix returns the identity
    as its eigenvectors, without LAPACK.
    """
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=np.complex128)
    if not np.count_nonzero(a):
        return np.zeros(n), np.eye(n, dtype=np.complex128)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w, v


@_memoised
def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, LAPACK-backed.

    The input must have finite entries and be square and Hermitian to a
    skew norm of 1e-10 relative to its Frobenius norm; the decomposition
    is that of its Hermitian part ``(a + a^H) / 2``.  A zero matrix
    returns the identity as its eigenvectors.

    Parameters
    ----------
    a : (n, n) array_like, Hermitian up to round-off.

    Returns
    -------
    w : (n,) float64, eigenvalues ascending, read-only.
    v : (n, n) complex128, unitary with ``a @ v[:, k] == w[k] * v[:, k]``,
        read-only.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    peak = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValueError("matrix has NaN or infinite entries")
    # a 1 x 1 input is checked too: its imaginary part is its skew
    if peak > 0.0:
        unit = a / peak  # whose squares, unlike those of a, cannot overflow
        skew = _frobenius(unit - unit.conj().T)
        # skew > 1e-10 * max(1 / peak, |unit|), with |unit| taken only when needed
        if skew > 1e-10 * (1.0 / peak) and skew > 1e-10 * _frobenius(unit):
            raise ValueError(f"matrix is not Hermitian (skew norm {skew * peak:.3e})")
    return _eigh(a)


def eigvalsh_jacobi(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending; the same read-only array as :func:`jacobi_eigh`."""
    w, _ = jacobi_eigh(a)
    return w


@_memoised
def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix.

    Hermitian and anti-Hermitian inputs take the eigenvalue fast path
    (anti-Hermitian ``a`` via the Hermitian matrix ``1j * a``); anything
    else, rectangular inputs included, goes through the smaller Gram
    matrix.  An empty matrix has norm 0.
    """
    if a.size == 0:
        return 0.0
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    peak = float(np.abs(a).max())
    if not math.isfinite(peak):
        raise ValueError("matrix has NaN or infinite entries")
    # these eigenproblems are never asked again, so they skip the memo
    if a.shape[0] == a.shape[1]:
        # relative to the peak: an absolute floor would call any tiny matrix Hermitian
        tiny = 1e-12 * peak
        if np.abs(a - a.conj().T).max() <= tiny:
            return float(np.abs(_eigh(a)[0]).max())
        # most inputs are Hermitian, so this residual waits for that test to fail
        if np.abs(a + a.conj().T).max() <= tiny:
            return float(np.abs(_eigh(1j * a)[0]).max())
    # a Gram matrix of entries past about 1e150 overflows and one of entries
    # below about 1e-150 underflows, so such inputs are divided by their
    # peak first, as jacobi_eigh's check does, and the root multiplied back;
    # every other input keeps its bits
    scale = peak if peak > _GRAM_MAX_PEAK or 0.0 < peak < 1.0 / _GRAM_MAX_PEAK else 1.0
    unit = a / scale
    gram = unit.conj().T @ unit if a.shape[0] >= a.shape[1] else unit @ unit.conj().T
    w, _ = _eigh(gram)
    return float(math.sqrt(max(0.0, float(w[-1])))) * scale


@_memoised
def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Small negative eigenvalues from rounding are clipped to zero.  The
    root is read-only.
    """
    w, v = jacobi_eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
