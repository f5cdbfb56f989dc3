"""Exact state vectors and reduced density matrices for covering ensembles.

Basis and sign conventions, fixed once here and relied on everywhere:

* Basis index ``b`` encodes the spin of site ``k`` in bit ``k`` of ``b``
  (bit value 0 means spin up, 1 means spin down).
* A dimer on the ordered pair (A-site ``a``, B-site ``b``) carries the
  singlet ``(|up_a down_b> - |down_a up_b>) / sqrt(2)``: amplitude
  ``+1/sqrt(2)`` when the A member is up.  With pairs ordered A-first all
  covering-product amplitudes are real, so state vectors are float64.
* A reduced density matrix over ``sites = (s_0 < s_1 < ...)`` indexes its
  rows by ``r = sum_t bit(s_t) * 2**t``: qubit ``t`` of the reduced space
  is lattice site ``s_t``.

Assembly sums covering products with their weights and normalizes once at
the end; the pre-normalization norm is preserved on the result.  The sum
is a fixed-order deterministic reduction, so identical ensembles yield
bit-identical state vectors.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .coverings import CoveringEnsemble, DimerCovering
from .errors import CapExceeded
from .linalg import eigvalsh_jacobi, operator_norm

ASSEMBLY_MAX_QUBITS = 16
RDM_MAX_SITES = 8

SQRT_HALF = 1.0 / np.sqrt(2.0)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

# two-qubit singlet in the reduced-index convention (qubit 0 = first site)
SINGLET_VEC = np.array([0.0, -SQRT_HALF, SQRT_HALF, 0.0])


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on ``n_qubits`` sites.

    ``norm`` records the length of the raw weighted covering sum before
    normalization (``sqrt(3)`` for two equal-weight coverings overlapping
    at 1/2, for example); it is 1.0 for states built directly.
    """

    n_qubits: int
    amplitudes: np.ndarray
    norm: float = 1.0

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.n_qubits}, "
                f"got shape {self.amplitudes.shape}"
            )
        nrm = float(np.linalg.norm(self.amplitudes))
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state vector must be normalized; |psi| = {nrm}")


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix over an ascending tuple of lattice sites."""

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 2 ** len(self.sites)
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {len(self.sites)} sites"
            )
        if list(self.sites) != sorted(set(self.sites)):
            raise ValueError("sites must be strictly ascending")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def validate(
        self,
        hermiticity_tol: float = 1e-12,
        trace_tol: float = 1e-12,
        psd_tol: float = 1e-10,
    ) -> None:
        """Raise ValueError unless Hermitian, unit-trace, and PSD within tolerance."""
        m = self.matrix
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > hermiticity_tol:
            raise ValueError(f"matrix is not Hermitian; deviation {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace is {tr}, expected 1")
        w_min = float(eigvalsh_jacobi((m + m.conj().T) / 2.0)[0])
        if w_min < -psd_tol:
            raise ValueError(f"matrix has negative eigenvalue {w_min:.3e}")


# ----------------------------------------------------------------------
# assembly


def _covering_columns(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin patterns (2**n_pairs, n_pairs) and their singlet amplitudes.

    Row ``u`` sets pattern bit ``k`` to 1 when the A member of pair ``k``
    is down; the amplitude is ``(-1)**popcount(u) * 2**(-n_pairs/2)``.
    """
    u = np.arange(2**n_pairs, dtype=np.int64)
    bits = (u[:, None] >> np.arange(n_pairs, dtype=np.int64)) & 1
    signs = 1.0 - 2.0 * (np.sum(bits, axis=1) & 1)
    return bits, signs * SQRT_HALF**n_pairs


def _covering_nonzeros(
    covering: DimerCovering, bits: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(basis indices, amplitudes) of one covering's 2**N nonzero entries."""
    pow_a = np.asarray(covering.a_sites, dtype=np.int64)
    pow_b = np.asarray(covering.b_partners, dtype=np.int64)
    idx = bits @ (1 << pow_a) + (1 - bits) @ (1 << pow_b)
    return idx, amps


def singlet_product(covering: DimerCovering) -> StateVector:
    """Tensor product of singlets for one covering, as a full state vector."""
    n_qubits = 2 * covering.n_pairs
    if n_qubits > ASSEMBLY_MAX_QUBITS:
        raise CapExceeded(
            f"state assembly capped at {ASSEMBLY_MAX_QUBITS} qubits; "
            f"covering spans {n_qubits}"
        )
    top = max(max(covering.a_sites), max(covering.b_partners))
    if top >= n_qubits:
        raise ValueError(f"site index {top} exceeds qubit count {n_qubits}")
    bits, amps = _covering_columns(covering.n_pairs)
    idx, vals = _covering_nonzeros(covering, bits, amps)
    psi = np.zeros(2**n_qubits)
    psi[idx] = vals
    return StateVector(n_qubits=n_qubits, amplitudes=psi, norm=1.0)


def assemble(
    ensemble: CoveringEnsemble, max_qubits: int = ASSEMBLY_MAX_QUBITS
) -> StateVector:
    """Weighted superposition of an ensemble's covering products.

    Deterministic: coverings are accumulated in ensemble order.  Raises
    :class:`CapExceeded` above ``max_qubits`` sites and ValueError when
    the weighted sum cancels to zero norm.
    """
    n_qubits = ensemble.lattice.site_count
    if n_qubits > max_qubits:
        raise CapExceeded(
            f"state assembly capped at {max_qubits} qubits; lattice has {n_qubits}"
        )
    n_pairs = ensemble.lattice.sublattice_size
    bits, amps = _covering_columns(n_pairs)
    psi = np.zeros(2**n_qubits)
    for covering in ensemble.coverings:
        idx, vals = _covering_nonzeros(covering, bits, amps)
        np.add.at(psi, idx, covering.weight * vals)
    # fixed-order reduction: a BLAS norm sums in an order that follows the
    # BLAS thread count, which would leak into the report bytes
    nrm = float(np.sqrt(np.sum(psi * psi)))
    weight_scale = float(np.sum(np.abs(ensemble.weights)))
    if nrm <= 1e-12 * max(1.0, weight_scale):
        raise ValueError("ensemble sum cancels to the zero vector")
    return StateVector(n_qubits=n_qubits, amplitudes=psi / nrm, norm=nrm)


def inner(left: StateVector, right: StateVector) -> float:
    """Inner product of two real state vectors on the same sites."""
    if left.n_qubits != right.n_qubits:
        raise ValueError("states live on different qubit counts")
    return float(np.dot(left.amplitudes, right.amplitudes))


# ----------------------------------------------------------------------
# reductions


def reduced_density_matrix(
    state: StateVector, sites: Sequence[int], max_sites: int = RDM_MAX_SITES
) -> DensityMatrix:
    """Trace out everything but ``sites`` (strictly ascending).

    Cost is one reshape/transpose of the state tensor plus a Gram product,
    ``O(2**n * 2**len(sites))``.
    """
    sites = tuple(int(s) for s in sites)
    n = state.n_qubits
    if list(sites) != sorted(set(sites)):
        raise ValueError("sites must be strictly ascending and distinct")
    if any(not 0 <= s < n for s in sites):
        raise ValueError(f"sites {sites} out of range for {n} qubits")
    if len(sites) > max_sites:
        raise CapExceeded(
            f"reduced density matrices capped at {max_sites} sites; "
            f"requested {len(sites)}"
        )
    # tensor axis j holds site n-1-j; kept axes ordered so reduced qubit t
    # (bit t of the row index) is sites[t]
    tensor = state.amplitudes.reshape((2,) * n)
    kept_axes = [n - 1 - s for s in reversed(sites)]
    rest = [ax for ax in range(n) if ax not in set(kept_axes)]
    block = np.transpose(tensor, kept_axes + rest).reshape(2 ** len(sites), -1)
    rho = (block @ block.conj().T).astype(np.complex128)
    return DensityMatrix(sites=sites, matrix=rho)


def partial_trace(dm: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace a density matrix down to the site subset ``keep``."""
    keep = tuple(int(s) for s in keep)
    if not all(s in dm.sites for s in keep):
        raise ValueError(f"keep sites {keep} not a subset of {dm.sites}")
    if list(keep) != sorted(set(keep)):
        raise ValueError("keep sites must be strictly ascending and distinct")
    m = dm.n_sites
    positions = [dm.sites.index(s) for s in keep]
    tensor = dm.matrix.reshape((2,) * (2 * m))
    # row axis for reduced qubit t is m-1-t; column axes are offset by m
    keep_set = set(positions)
    out_row = [m - 1 - t for t in reversed(positions)]
    out_col = [2 * m - 1 - t for t in reversed(positions)]
    traced = [t for t in range(m) if t not in keep_set]
    tr_row = [m - 1 - t for t in traced]
    tr_col = [2 * m - 1 - t for t in traced]
    k = len(keep)
    perm = out_row + out_col + tr_row + tr_col
    moved = np.transpose(tensor, perm).reshape(2**k, 2**k, 2 ** len(traced), 2 ** len(traced))
    rho = np.einsum("ijkk->ij", moved)
    return DensityMatrix(sites=keep, matrix=rho)


def purity(dm: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 1/dim for maximally mixed."""
    return float(np.real(np.einsum("ij,ji->", dm.matrix, dm.matrix)))


def entropy_bits(dm: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0."""
    w = eigvalsh_jacobi((dm.matrix + dm.matrix.conj().T) / 2.0)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _site_operator(op: np.ndarray, target: int, n_sites: int) -> np.ndarray:
    factors = [op if t == target else np.eye(2) for t in range(n_sites - 1, -1, -1)]
    return reduce(np.kron, factors)


def check_rotational_invariance(dm: DensityMatrix) -> float:
    """Largest commutator norm with the three total-spin generators.

    Returns ``max_alpha || [rho, sum_t sigma_alpha^(t)] ||``; a singlet
    superposition reduces to an SU(2)-invariant matrix, so the value is
    zero up to rounding.
    """
    m = dm.n_sites
    worst = 0.0
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        total = sum(_site_operator(pauli, t, m) for t in range(m))
        comm = dm.matrix @ total - total @ dm.matrix
        worst = max(worst, operator_norm(comm))
    return worst


# ----------------------------------------------------------------------
# serialization

_BIN_MAGIC = b"RVBS"


def state_to_bytes(state: StateVector) -> bytes:
    header = _BIN_MAGIC + struct.pack("<Id", state.n_qubits, state.norm)
    return header + state.amplitudes.astype("<f8").tobytes()


def state_from_bytes(blob: bytes) -> StateVector:
    if blob[:4] != _BIN_MAGIC:
        raise ValueError("not a state-vector blob")
    if len(blob) < 16:
        raise ValueError(f"truncated state-vector blob: {len(blob)} bytes, header needs 16")
    n, norm = struct.unpack("<Id", blob[4:16])
    amps = np.frombuffer(blob[16:], dtype="<f8").astype(np.float64)
    # bound n before 2**n: a corrupt header may claim up to 2**32 - 1 qubits
    if n >= 64 or amps.size != 2**n:
        raise ValueError(f"expected 2**{n} amplitudes, found {amps.size}")
    return StateVector(n_qubits=n, amplitudes=amps, norm=norm)


def save_state(state: StateVector, path: str | Path) -> None:
    Path(path).write_bytes(state_to_bytes(state))


def load_state(path: str | Path) -> StateVector:
    return state_from_bytes(Path(path).read_bytes())


def state_to_json(state: StateVector) -> str:
    doc = {
        "schema": 1,
        "n_qubits": state.n_qubits,
        "norm": state.norm,
        "amplitudes": state.amplitudes.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def state_from_json(text: str) -> StateVector:
    doc = json.loads(text)
    return StateVector(
        n_qubits=int(doc["n_qubits"]),
        amplitudes=np.asarray(doc["amplitudes"], dtype=np.float64),
        norm=float(doc.get("norm", 1.0)),
    )


def density_matrix_to_json(dm: DensityMatrix) -> str:
    pairs = [[[float(z.real), float(z.imag)] for z in row] for row in dm.matrix]
    return json.dumps({"schema": 1, "sites": list(dm.sites), "matrix": pairs}, sort_keys=True)


def density_matrix_from_json(text: str) -> DensityMatrix:
    doc = json.loads(text)
    raw = doc["matrix"]
    mat = np.array([[complex(re, im) for re, im in row] for row in raw])
    return DensityMatrix(sites=tuple(doc["sites"]), matrix=mat)
