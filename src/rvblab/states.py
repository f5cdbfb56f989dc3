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
the end, in place; the pre-normalization norm is preserved on the result.
One index kernel serves both :func:`singlet_product` and :func:`assemble`:
for a slice of ``ASSEMBLY_CHUNK`` rows of the ensemble's partner table it
builds every covering's basis indices at once, one row per spin pattern,
and one ``np.add.at`` scatters the chunk's weighted amplitudes
pattern-major and covering-minor.  The A sites are the same in every
covering, so a basis index fixes the pattern of its A spins: every term
that lands on an amplitude comes from one row, and within a row the
coverings run in ensemble order.  Each amplitude thus sums its terms in
ensemble order, a fixed-order deterministic reduction, so identical
ensembles yield bit-identical state vectors.

On N pairs (2N sites), :func:`assemble` scatters only the 2**(N-1)
patterns in which the last pair's A site is up, and fills the other half
from the global spin flip.  Flipping every spin sends basis index ``x`` to
``2**(2N) - 1 - x`` and each covering's term to ``(-1)**N`` times itself:
the same coverings reach both indices, in the same order, with terms that
are exact copies or exact negations.  Rounding is symmetric under
negation, so the flipped amplitude is exactly ``(-1)**N`` times the
scattered one, for any weights.  A chunk holds two (2**(N-1), chunk)
temporaries, 128 kB each at N = 8; nothing is kept across chunks but the
state and, while the chunk weights repeat, the block of terms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .coverings import CoveringEnsemble, DimerCovering, _sha256_hex
from .errors import CapExceeded
from .lattice import site_indices
from .linalg import eigvalsh_jacobi, operator_norm

ASSEMBLY_MAX_QUBITS = 16
# coverings per scatter call: at 8 pairs, 128 kB of indices and 128 kB of
# terms, for half the spin patterns.  1,024 per call saved about 20 ms on
# the gas at N = 8 but left the open 4x4 run's peak RSS 0.4 MB higher: the
# allocator keeps the freed temporaries.
ASSEMBLY_CHUNK = 128
RDM_MAX_SITES = 8

SQRT_HALF = 1.0 / np.sqrt(2.0)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

# two-qubit singlet in the reduced-index convention (qubit 0 = first site)
SINGLET_VEC = np.array([0.0, -SQRT_HALF, SQRT_HALF, 0.0])


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on ``n_qubits`` sites, with real amplitudes.

    ``norm`` records the length of the raw weighted covering sum before
    normalization (``sqrt(3)`` for two equal-weight coverings overlapping
    at 1/2, for example); it is 1.0 for states built directly.
    ``amplitude_norm`` is |psi| of the stored amplitudes, checked to be 1
    within 1e-10 on construction.  It is summed in a fixed order (see
    :func:`_fixed_order_norm`), so its bits do not follow the BLAS thread
    count.
    ``_site_generators`` lists candidate site symmetries (see
    :meth:`LatticeSpec.symmetry_generators`); :func:`assemble` passes its
    lattice's, and the support keeps only those the amplitudes obey.
    Two states are equal when qubit count, norm and amplitude bytes are.

    ``amplitudes`` is a read-only view: the sector support and the memo
    of 1- and 2-site reduced density matrices are derived from it once
    and kept on the state.  A float64 array passed in is not copied: the
    state aliases it, so the caller must not write to it afterwards.
    """

    n_qubits: int
    amplitudes: np.ndarray
    norm: float = 1.0
    _site_generators: tuple[tuple[int, ...], ...] = field(
        default=(), repr=False, compare=False, kw_only=True
    )
    amplitude_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes)
        # inner products and Gram blocks never conjugate
        if np.iscomplexobj(amps):
            raise ValueError(f"state amplitudes must be real, got dtype {amps.dtype}")
        amps = np.asarray(amps, dtype=np.float64).view()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.n_qubits}, "
                f"got shape {amps.shape}"
            )
        nrm = _fixed_order_norm(amps)
        # both written so that NaN fails too
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"state vector must be normalized; |psi| = {nrm}")
        object.__setattr__(self, "amplitude_norm", nrm)
        if not 0.0 < self.norm < float("inf"):
            raise ValueError(f"state norm must be finite and positive, got {self.norm}")

    def __eq__(self, other: object) -> bool:
        # the generated __eq__ would ask an ndarray comparison for one bool
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.n_qubits, self.norm) == (other.n_qubits, other.norm) and (
            self.amplitudes.tobytes() == other.amplitudes.tobytes()
        )

    @cached_property
    def _support(self) -> "_SectorSupport | None":
        # built on first use and kept: the amplitudes are read-only
        return _sector_support(self)

    @cached_property
    def _rdm_memo(self) -> "dict[tuple[int, ...], DensityMatrix]":
        # reduced_density_matrix's 1- and 2-site results, by checked sites
        return {}


@dataclass(frozen=True)
class _SectorSupport:
    """Nonzero entries of a state lying in one S^z sector.

    Every nonzero basis index has exactly ``down`` spins down.  ``bits``
    is float64 of shape (nonzeros, n_qubits); column ``s`` holds bit ``s``
    of each index, so a product with a weight vector recodes the indices.
    It is stored column by column (Fortran order), so ``bits.T`` is
    C-contiguous for products with many weight vectors at once.
    ``flip`` is the sign ``f`` when flipping every spin maps the state to
    ``f`` times itself, exactly, and None otherwise.  Every singlet
    superposition has ``flip == (-1)**(n_qubits // 2)``.

    ``orbit_bits`` holds one row per element g of the state's verified
    site-symmetry group, with ``2**g(s)`` in column ``s`` (the identity
    first), so a subset's image masks are one gather and a row sum.  It is
    read-only, and None when no candidate generator maps the state to plus
    or minus itself.  ``reps`` and ``spectra`` are memos of ``multipartite``.
    """

    bits: np.ndarray
    amplitudes: np.ndarray
    down: int
    flip: int | None
    orbit_bits: np.ndarray | None

    @cached_property
    def reps(self) -> np.ndarray | None:
        # the orbit representative of each subset bitmask, or 0 (no proper
        # nonempty subset's mask) until one is entered; an entry never goes
        # stale.  The narrowest unsigned type: 128 KB at 16 sites.  None
        # with no group, where each subset is its own representative
        if self.orbit_bits is None:
            return None
        top = (1 << self.bits.shape[1]) - 1
        return np.zeros(top + 1, dtype=np.min_scalar_type(top))

    @cached_property
    def spectra(self) -> dict[int, tuple[np.ndarray, tuple[float, float, bool]]]:
        # by representative, its Schmidt spectrum and its (purity, entropy,
        # entangled), for one subset size at a time
        return {}


def _sector_support(state: StateVector) -> _SectorSupport | None:
    """The state's nonzero support, or None when it spans several sectors."""
    idx = np.flatnonzero(state.amplitudes)
    n = state.n_qubits
    # bits one column at a time: no (nonzeros, n_qubits) int64 temporary,
    # and no bit matrix at all for a state that spans several sectors
    down = np.zeros(idx.size, dtype=np.int64)
    for s in range(n):
        down += (idx >> s) & 1
    if down.min() != down.max():
        return None
    bits = np.empty((idx.size, n), order="F")
    for s in range(n):
        bits[:, s] = (idx >> s) & 1
    psi = state.amplitudes
    amps = psi[idx]
    # a site permutation g sends index i to sum_s bit_s(i) 2**g(s)
    kept = [
        g
        for g in state._site_generators
        if _symmetry_sign(psi, amps, (bits @ np.exp2(g)).astype(np.int64)) is not None
    ]
    return _SectorSupport(
        bits=bits,
        amplitudes=amps,
        down=int(down[0]),
        flip=_symmetry_sign(psi, amps, (2**n - 1) - idx),
        orbit_bits=_orbit_bits(kept, n) if kept else None,
    )


def _symmetry_sign(psi: np.ndarray, amps: np.ndarray, image: np.ndarray) -> int | None:
    """Sign ``f`` with ``psi[image] == f * amps`` exactly, or None.

    ``amps`` holds the state's nonzero amplitudes and ``image[p]`` is where
    a basis permutation sends the index of ``amps[p]``.  The check has no
    tolerance.  Every image lands on a nonzero amplitude when it passes,
    so the permutation maps the support onto itself and the zeros onto
    zeros: the state is ``f`` times itself under it.  The spin flip sends
    ``i`` to ``2**n - 1 - i``.
    """
    moved = psi[image]
    if np.array_equal(moved, amps):
        return 1
    np.negative(moved, out=moved)
    if np.array_equal(moved, amps):
        return -1
    return None


def _orbit_bits(generators: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """``2**g(s)`` for every g of the group the generators close into.

    Composes generators breadth-first from the identity, so the rows come
    in a fixed order.  The kept generators are exact symmetries, and so is
    every product of them.
    """
    identity = tuple(range(n))
    group = {identity: None}
    frontier = [identity]
    while frontier:
        grown = []
        for g in frontier:
            for h in generators:
                hg = tuple(h[s] for s in g)
                if hg not in group:
                    group[hg] = None
                    grown.append(hg)
        frontier = grown
    out = np.left_shift(1, np.array(list(group), dtype=np.int64))
    out.setflags(write=False)
    return out


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

    def validate(self) -> None:
        """Raise ValueError unless finite, Hermitian and unit-trace to 1e-12 and PSD to 1e-10."""
        m = self.matrix
        if not np.isfinite(m).all():
            raise ValueError("matrix has NaN or infinite entries")
        # each test is written so that a NaN fails it
        herm = float(np.abs(m - m.conj().T).max())
        if not herm <= 1e-12:
            raise ValueError(f"matrix is not Hermitian; deviation {herm:.3e}")
        tr = complex(m.trace())
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"trace is {tr}, expected 1")
        w_min = float(eigvalsh_jacobi(m)[0])
        if not w_min >= -1e-10:
            raise ValueError(f"matrix has negative eigenvalue {w_min:.3e}")


# ----------------------------------------------------------------------
# assembly


def _pattern_amplitudes(n_pairs: int) -> np.ndarray:
    """Singlet-product amplitude of each of the 2**n_pairs spin patterns.

    Pattern ``u`` sets bit ``k`` when the A member of pair ``k`` is down;
    its amplitude is ``(-1)**popcount(u) * 2**(-n_pairs/2)``.
    """
    u = np.arange(2**n_pairs, dtype=np.int64)
    bits = (u[:, None] >> np.arange(n_pairs, dtype=np.int64)) & 1
    signs = 1.0 - 2.0 * (np.sum(bits, axis=1) & 1)
    return signs * SQRT_HALF**n_pairs


def _chunk_indices(a_sites: np.ndarray, b_partners: np.ndarray) -> np.ndarray:
    """Basis indices of a chunk of coverings' nonzero entries, pattern-major.

    ``a_sites`` is the (n_pairs,) A sites shared by the chunk and
    ``b_partners`` a (chunk, n_pairs) slice of the partner table, of any
    integer dtype: the shifts are formed in int64, since ``1 << b`` wraps
    to 0 in uint8.
    Entry ``[u, c]`` is
    ``sum_k 2**b_k + bit_k(u) * (2**a_k - 2**b_k)`` over covering ``c``'s
    pairs: pattern ``u`` in the order of :func:`_pattern_amplitudes`.
    Built by doubling whole contiguous rows, so rows ``[2**k, 2**(k+1))``
    are rows ``[0, 2**k)`` plus pair ``k``'s term.
    """
    n_chunk, n_pairs = b_partners.shape
    pow_b = np.left_shift(1, b_partners, dtype=np.int64)
    step = np.ascontiguousarray((np.left_shift(1, a_sites, dtype=np.int64) - pow_b).T)
    idx = np.empty((2**n_pairs, n_chunk), dtype=np.int64)
    np.sum(pow_b, axis=1, out=idx[0])
    for k in range(n_pairs):
        width = 1 << k
        np.add(idx[:width], step[k], out=idx[width : 2 * width])
    return idx


def singlet_product(covering: DimerCovering) -> StateVector:
    """Tensor product of singlets for one covering, as a full state vector."""
    n_qubits = 2 * covering.n_pairs
    if n_qubits > ASSEMBLY_MAX_QUBITS:
        raise CapExceeded(
            f"state assembly capped at {ASSEMBLY_MAX_QUBITS} qubits; "
            f"covering spans {n_qubits}"
        )
    sites = (*covering.a_sites, *covering.b_partners)
    if min(sites) < 0 or max(sites) >= n_qubits:
        raise ValueError(f"site indices {sites} out of range for {n_qubits} qubits")
    # a one-row chunk of the assembly kernel
    idx = _chunk_indices(np.array(covering.a_sites), np.array([covering.b_partners]))
    psi = np.zeros(2**n_qubits)
    psi[idx[:, 0]] = _pattern_amplitudes(covering.n_pairs)
    return StateVector(n_qubits=n_qubits, amplitudes=psi, norm=1.0)


def _fixed_order_norm(psi: np.ndarray) -> float:
    """``float(np.sqrt(np.sum(psi * psi)))``, bit for bit, without its 2**n square.

    A BLAS norm sums in an order that follows the BLAS thread count, which
    would leak into the report bytes.  NumPy sums a contiguous float64
    array pairwise, splitting it in halves at a multiple of 8; this walks
    the same split down to blocks of at most 8,192 entries and squares and
    sums each block in one reused buffer, so every partial sum is NumPy's.
    """
    block = np.empty(min(psi.size, 8192))

    def pairwise(lo: int, hi: int) -> float:
        if hi - lo <= block.size:
            square = block[: hi - lo]
            np.multiply(psi[lo:hi], psi[lo:hi], out=square)
            return square.sum()
        half = (hi - lo) // 2
        half -= half % 8
        return pairwise(lo, lo + half) + pairwise(lo + half, hi)

    return float(np.sqrt(pairwise(0, psi.size)))


def assemble(ensemble: CoveringEnsemble) -> StateVector:
    """Weighted superposition of an ensemble's covering products.

    Deterministic: coverings are scattered ``ASSEMBLY_CHUNK`` at a time,
    pattern-major and covering-minor; an amplitude's terms all share its
    A-spin pattern, so it receives them in ensemble order.  Only the
    patterns with the last pair's A site up are scattered; the other half
    of the state is ``(-1)**N`` times the reversed first half, which is
    exactly what scattering it would give (see the module docstring).
    Raises :class:`CapExceeded` above ``ASSEMBLY_MAX_QUBITS`` sites and
    ValueError when the weighted sum cancels to zero norm.
    """
    n_qubits = ensemble.lattice.site_count
    if n_qubits > ASSEMBLY_MAX_QUBITS:
        raise CapExceeded(
            f"state assembly capped at {ASSEMBLY_MAX_QUBITS} qubits; lattice has {n_qubits}"
        )
    n_pairs = ensemble.lattice.sublattice_size
    # the patterns with the last pair's A site up: the first half of rows
    amps = _pattern_amplitudes(n_pairs)[: 2 ** (n_pairs - 1)]
    a_sites = np.array(ensemble.lattice.a_sites(), dtype=np.int64)
    weights = ensemble.weights
    psi = np.zeros(2**n_qubits)
    terms = kept = None
    for start in range(0, len(ensemble), ASSEMBLY_CHUNK):
        stop = start + ASSEMBLY_CHUNK
        partners = ensemble.partners[start:stop]
        idx = _chunk_indices(a_sites[:-1], partners[:, :-1])
        idx += np.left_shift(1, partners[:, -1], dtype=np.int64)
        # the terms depend on the weights' bits alone, so a chunk whose
        # weights repeat the last chunk's reuses its block
        chunk_weights = weights[start:stop]
        weight_bits = chunk_weights.view(np.uint64)
        if kept is None or not np.array_equal(weight_bits, kept):
            terms = (amps[:, None] * chunk_weights).ravel()
            kept = weight_bits
        # an amplitude's terms all lie in its pattern's row, one per
        # covering, and ufunc.at adds in order, so each amplitude sums its
        # terms in ensemble order
        np.add.at(psi, idx.ravel(), terms)
        del idx  # not alive next to the next chunk's
    del terms
    # the spin flip sends index x to 2**n - 1 - x and each term to
    # (-1)**n_pairs times itself, in the same order: the other half is the
    # reversed first half, exactly.  Written as 0.0 + v or 0.0 - v into
    # that half's zeros, not as -v: an amplitude that cancels to +0.0 must
    # stay +0.0, as scattering gives
    halves = psi.reshape(-1, 2, 1 << int(a_sites[-1]))
    mirror = np.subtract if n_pairs % 2 else np.add
    mirror(halves[:, 1], halves[::-1, 0, ::-1], out=halves[:, 1])
    nrm = _fixed_order_norm(psi)
    weight_scale = float(np.sum(np.abs(weights)))
    if nrm <= 1e-12 * max(1.0, weight_scale):
        raise ValueError("ensemble sum cancels to the zero vector")
    psi /= nrm  # the same bits as psi / nrm
    return StateVector(
        n_qubits=n_qubits,
        amplitudes=psi,
        norm=nrm,
        _site_generators=ensemble.lattice.symmetry_generators(),
    )


def inner(left: StateVector, right: StateVector) -> float:
    """Inner product of two real state vectors on the same sites."""
    if left.n_qubits != right.n_qubits:
        raise ValueError("states live on different qubit counts")
    return float(np.dot(left.amplitudes, right.amplitudes))


# ----------------------------------------------------------------------
# reductions


def _check_sites(state: StateVector, sites: Sequence[int]) -> tuple[int, ...]:
    """``sites`` as ints; ValueError unless integers, strictly ascending and in range."""
    # a tuple of plain ints (the subset scans' own) is already what
    # site_indices returns; bools and NumPy ints still go through it
    if type(sites) is not tuple or not all(type(s) is int for s in sites):
        sites = site_indices(sites)
    if sites:
        # one pairwise pass; once ascending, the ends bound the range
        last = sites[0]
        for s in sites[1:]:
            if s <= last:
                raise ValueError("sites must be strictly ascending and distinct")
            last = s
        if sites[0] < 0 or last >= state.n_qubits:
            raise ValueError(f"sites {sites} out of range for {state.n_qubits} qubits")
    return sites


def _subset_block(state: StateVector, sites: tuple[int, ...]) -> np.ndarray:
    """(2**len(sites), rest) amplitude block; rows follow the reduced-index convention.

    ``sites`` must already have passed :func:`_check_sites`.
    """
    n = state.n_qubits
    # tensor axis j holds site n-1-j; kept axes ordered so reduced qubit t
    # (bit t of the row index) is sites[t]
    tensor = state.amplitudes.reshape((2,) * n)
    kept_axes = [n - 1 - s for s in reversed(sites)]
    kept = set(kept_axes)
    rest = [ax for ax in range(n) if ax not in kept]
    return np.transpose(tensor, kept_axes + rest).reshape(2 ** len(sites), -1)


def reduced_density_matrix(state: StateVector, sites: Sequence[int]) -> DensityMatrix:
    """Trace out everything but ``sites`` (strictly ascending).

    Cost is one reshape/transpose of the state tensor plus a Gram product,
    ``O(2**n * 2**len(sites))``, on the first call for a set of sites.
    Results on 1 and 2 sites are memoised on the state, at most
    ``n(n+1)/2`` matrices of at most 4x4, so a repeat call returns the
    same read-only :class:`DensityMatrix`; larger reductions are rebuilt
    on every call.  The sites are checked on every call, and
    :class:`CapExceeded` is raised above ``RDM_MAX_SITES`` sites.
    """
    sites = _check_sites(state, sites)
    if len(sites) > RDM_MAX_SITES:
        raise CapExceeded(
            f"reduced density matrices capped at {RDM_MAX_SITES} sites; "
            f"requested {len(sites)}"
        )
    memo = state._rdm_memo
    dm = memo.get(sites)
    if dm is None:
        block = _subset_block(state, sites)
        rho = (block @ block.conj().T).astype(np.complex128)
        dm = DensityMatrix(sites=sites, matrix=rho)
        # 1 and 2 sites only: n(n+1)/2 matrices of at most 4x4, about 35 kB
        # at 16 sites.  One entry serves every later caller, so none may write it
        if len(sites) <= 2:
            rho.setflags(write=False)
            memo[sites] = dm
    return dm


def partial_trace(dm: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace a density matrix down to the site subset ``keep``."""
    keep = site_indices(keep)
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
    w = eigvalsh_jacobi(dm.matrix)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _site_operator(op: np.ndarray, target: int, n_sites: int) -> np.ndarray:
    factors = [op if t == target else np.eye(2) for t in range(n_sites - 1, -1, -1)]
    return reduce(np.kron, factors)


@lru_cache(maxsize=RDM_MAX_SITES)
def _spin_generators(n_sites: int) -> tuple[np.ndarray, ...]:
    """The three total-spin generators ``sum_t sigma_alpha^(t)``, read-only.

    Shared by every call on ``n_sites`` sites, so no caller may write them.
    """
    out = []
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        total = np.asarray(sum(_site_operator(pauli, t, n_sites) for t in range(n_sites)))
        total.setflags(write=False)
        out.append(total)
    return tuple(out)


def check_rotational_invariance(dm: DensityMatrix) -> float:
    """Largest commutator norm with the three total-spin generators.

    Returns ``max_alpha || [rho, sum_t sigma_alpha^(t)] ||``; a singlet
    superposition reduces to an SU(2)-invariant matrix, so the value is
    zero up to rounding.
    """
    worst = 0.0
    for total in _spin_generators(dm.n_sites):
        comm = dm.matrix @ total - total @ dm.matrix
        worst = max(worst, operator_norm(comm))
    return worst


# ----------------------------------------------------------------------
# serialization

_BIN_MAGIC = b"RVBS"


def state_to_bytes(state: StateVector) -> bytes:
    return _state_header(state) + state.amplitudes.astype("<f8").tobytes()


def state_sha256(state: StateVector) -> str:
    """Hex sha256 of ``state_to_bytes(state)``, hashed from the amplitudes in place.

    Through :func:`coverings._sha256_hex`, given the exact size, 16 + 8 * 2**n
    bytes: at most 0.52 MB under the 16-qubit cap, so a run that has not
    loaded OpenSSL hashes it with CPython's built-in SHA-256.
    """
    amplitudes = state.amplitudes.astype("<f8", copy=False)
    return _sha256_hex((_state_header(state), amplitudes), 16 + amplitudes.nbytes)


def _state_header(state: StateVector) -> bytes:
    """The first 16 bytes of :func:`state_to_bytes`: magic, qubit count and norm."""
    return _BIN_MAGIC + struct.pack("<Id", state.n_qubits, state.norm)


def state_from_bytes(blob: bytes) -> StateVector:
    if blob[:4] != _BIN_MAGIC:
        raise ValueError("not a state-vector blob")
    if len(blob) < 16:
        raise ValueError(f"truncated state-vector blob: {len(blob)} bytes, header needs 16")
    n, norm = struct.unpack("<Id", blob[4:16])
    # bound n before 2**n: a corrupt header may claim up to 2**32 - 1 qubits
    if n >= 64:
        raise ValueError(f"state-vector blob claims {n} qubits, more than 63")
    if len(blob) - 16 != 8 * 2**n:
        raise ValueError(f"expected {8 * 2**n} amplitude bytes, found {len(blob) - 16}")
    amps = np.frombuffer(blob[16:], dtype="<f8").astype(np.float64)
    return StateVector(n_qubits=n, amplitudes=amps, norm=norm)


def save_state(state: StateVector, path: str | Path) -> None:
    Path(path).write_bytes(state_to_bytes(state))


def load_state(path: str | Path) -> StateVector:
    return state_from_bytes(Path(path).read_bytes())
