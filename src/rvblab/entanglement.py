"""Two-qubit entanglement measures and Werner-parameter extraction.

Every two-site reduction of a singlet superposition is rotationally
invariant and therefore a Werner state

    rho_W(p) = p |s><s| + (1 - p) I/4,      p in [-1/3, 1],

entangled exactly when p > 1/3.  The parameter is recovered from the
singlet fidelity F = <s|rho|s> as p = (4F - 1)/3, which is basis- and
orientation-independent because the singlet projector is invariant under
swapping the two qubits.

Concurrence follows the standard two-qubit construction: with
rho_tilde = (sigma_y x sigma_y) rho* (sigma_y x sigma_y), the decreasing
square roots lambda_1..4 of the eigenvalues of rho rho_tilde give
C = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).  The lambdas are
computed through the Hermitian matrix sqrt(rho) rho_tilde sqrt(rho),
which has the same spectrum as rho rho_tilde but keeps the eigenproblem
Hermitian and stable.  Tangle is C**2; entanglement of formation is the
binary entropy h((1 + sqrt(1 - C**2))/2) in ebits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lattice import site_indices
from .linalg import eigvalsh_jacobi, matrix_sqrt_psd, operator_norm
from .states import (
    SINGLET_VEC,
    DensityMatrix,
    StateVector,
    purity,
    reduced_density_matrix,
)

P_MIN = -1.0 / 3.0
P_MAX = 1.0
_P_SLACK = 1e-10

_Y_KRON_Y = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)
# the two terms of rho_W(p), built once
_SINGLET_PROJECTOR = np.outer(SINGLET_VEC, SINGLET_VEC)
_IDENTITY = np.eye(4)


def _check_p(p: float) -> float:
    if not P_MIN - _P_SLACK <= p <= P_MAX + _P_SLACK:
        raise ValueError(f"Werner parameter {p} outside [{P_MIN}, {P_MAX}]")
    return float(min(max(p, P_MIN), P_MAX))


def _check_two_qubit(dm: DensityMatrix) -> None:
    if dm.matrix.shape != (4, 4):
        raise ValueError(f"expected a two-qubit density matrix, got shape {dm.matrix.shape}")


def _werner_matrix(p: float) -> np.ndarray:
    """rho_W(p) as a real (4, 4) array, for a ``p`` already checked."""
    return p * _SINGLET_PROJECTOR + (1.0 - p) * _IDENTITY / 4.0


def werner_state(p: float) -> DensityMatrix:
    """rho_W(p) on sites (0, 1)."""
    mat = _werner_matrix(_check_p(p))
    return DensityMatrix(sites=(0, 1), matrix=mat.astype(np.complex128))


@dataclass(frozen=True)
class WernerFit:
    """Extracted Werner parameter with the distance to the exact form.

    ``residual`` is the operator norm of ``rho - rho_W(p)``; a residual
    above tolerance flags a non-Werner input rather than raising.
    """

    pair: tuple[int, int]
    p: float
    residual: float


def extract_werner_p(dm: DensityMatrix) -> WernerFit:
    """Fit rho to the Werner form via singlet fidelity."""
    _check_two_qubit(dm)
    dm.validate()
    fidelity = float(np.real(SINGLET_VEC @ dm.matrix @ SINGLET_VEC))
    p = (4.0 * fidelity - 1.0) / 3.0
    # a real rho_W subtracts from the imaginary parts the same zeros as a complex one
    residual = operator_norm(dm.matrix - _werner_matrix(_check_p(p)))
    return WernerFit(pair=(dm.sites[0], dm.sites[1]), p=p, residual=residual)


def werner_purity(p: float) -> float:
    """tr(rho_W(p)^2) = (3 p^2 + 1)/4."""
    p = _check_p(p)
    return (3.0 * p * p + 1.0) / 4.0


# ----------------------------------------------------------------------
# concurrence, tangle, EoF


def concurrence_two_qubit(dm: DensityMatrix) -> float:
    _check_two_qubit(dm)
    dm.validate()
    rho = dm.matrix
    rho_tilde = _Y_KRON_Y @ rho.conj() @ _Y_KRON_Y
    root = matrix_sqrt_psd(rho)
    core = root @ rho_tilde @ root
    w = eigvalsh_jacobi(core)
    lam = np.sqrt(np.clip(w, 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def tangle_two_qubit(dm: DensityMatrix) -> float:
    """Squared concurrence of a two-qubit state."""
    c = concurrence_two_qubit(dm)
    return c * c


def tangle_werner(p: float) -> float:
    """Closed form for Werner states: 0 below p = 1/3, else ((3p-1)/2)^2."""
    p = _check_p(p)
    if p <= 1.0 / 3.0:
        return 0.0
    return ((3.0 * p - 1.0) / 2.0) ** 2


def binary_entropy_bits(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def eof_from_concurrence(c: float) -> float:
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(c, 1.0)
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    return binary_entropy_bits(x)


def eof_two_qubit(dm: DensityMatrix) -> float:
    """Entanglement of formation in ebits."""
    return eof_from_concurrence(concurrence_two_qubit(dm))


def is_separable_werner(p: float) -> bool:
    """Separability of rho_W(p): exactly p <= 1/3."""
    p = _check_p(p)
    return p <= 1.0 / 3.0


def partial_transpose_two_qubit(dm: DensityMatrix) -> np.ndarray:
    """Transpose on the second qubit; PSD iff the state is separable."""
    _check_two_qubit(dm)
    blocks = dm.matrix.reshape(2, 2, 2, 2)
    # reduced qubit 1 is the high bit of the index
    return np.transpose(blocks, (2, 1, 0, 3)).reshape(4, 4)


def ppt_min_eigenvalue(dm: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose (separability witness)."""
    pt = partial_transpose_two_qubit(dm)
    return float(eigvalsh_jacobi(pt)[0])


# ----------------------------------------------------------------------
# monogamy


def monogamy_sum(
    state: StateVector, anchor: int, partners: Iterable[int]
) -> tuple[float, float]:
    """(sum of pairwise tangles, anchor's aggregate tangle).

    The aggregate tangle of the anchor with everything else is the
    linearized entropy 2 (1 - tr rho_a^2) of its single-site reduction,
    valid because the global state is pure.  Monogamy asserts
    sum <= aggregate.
    """
    partners = sorted(set(site_indices(partners)))
    (anchor,) = site_indices((anchor,))
    if anchor in partners:
        raise ValueError(f"anchor {anchor} cannot be its own partner")
    if not partners:
        raise ValueError("at least one partner required")
    total = 0.0
    for other in partners:
        pair = tuple(sorted((anchor, other)))
        total += tangle_two_qubit(reduced_density_matrix(state, pair))
    rho_anchor = reduced_density_matrix(state, (anchor,))
    aggregate = 2.0 * (1.0 - purity(rho_anchor))
    return total, aggregate


@dataclass(frozen=True)
class MeasureRecord:
    """All pairwise measures for one site pair, as reported by scans."""

    pair: tuple[int, int]
    p: float
    residual: float
    tangle: float
    concurrence: float
    eof_ebits: float
    separable: bool


def measure_pair(state: StateVector, pair: Sequence[int]) -> MeasureRecord:
    """Werner fit plus entanglement measures for one pair of sites."""
    sites = tuple(sorted(site_indices(pair)))
    dm = reduced_density_matrix(state, sites)
    fit = extract_werner_p(dm)
    c = concurrence_two_qubit(dm)
    return MeasureRecord(
        pair=sites,
        p=fit.p,
        residual=fit.residual,
        tangle=c * c,
        concurrence=c,
        eof_ebits=eof_from_concurrence(c),
        separable=is_separable_werner(fit.p),
    )
