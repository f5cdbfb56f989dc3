"""Bipartition mixedness audits and genuine multipartite entanglement.

For a pure global state, a subset is entangled with the rest exactly when
its reduced state is mixed, so subset purity/entropy scans certify
entanglement structure directly.  Spectra are computed on the Schmidt
route: arrange the amplitudes as a matrix whose rows are the subset's
spin configurations and whose columns are the rest's, then take the Gram
matrix of the smaller side.

Every state assembled from singlet coverings lies in one S^z sector: each
nonzero basis state has the same number D of down spins.  The matrix then
splits into one block per subset magnetisation d, of shape
C(k, d) x C(n - k, D - d), and only the nonzero support is scattered into
those blocks.  The support is found once per state and kept on it.  A
state with no single sector (only hand-built states lack one) takes the
dense route: one transpose of the full amplitude tensor.  The tests pin
the block route to the dense one and to the density-matrix module, which
covers the same quantities one subset at a time.

Every singlet superposition is also symmetric under flipping all spins:
the flip maps it to (-1)**(n/2) times itself.  The flip takes subset
magnetisation d to k - d and the rest's D - d to D - (k - d), so block
k - d is block d with its rows and columns permuted and a common sign,
and the two have one spectrum.  Whether a state is flip-symmetric is
decided once, exactly, when its support is built: the reversed support
must be the complemented one and the reversed amplitudes must equal the
amplitudes times +1 or -1 with no tolerance.  A symmetric state
diagonalises only the blocks with 2 d <= k and counts each one below the
middle twice; any other state diagonalises every block.

An assembled grid state also carries its lattice's symmetry generators
(reflections, the transpose of a square grid, translations of a periodic
one).  The support keeps a generator only when it maps the state to +1 or
-1 times itself, with the same exact test as the flip, and closes the kept
ones into a group: 8 elements on the open 4x4, 128 on the periodic 4x4.
A symmetry permutes the sites and leaves every reduced spectrum fixed, so
``subset_spectrum`` maps a subset to its orbit representative, the image
with the smallest bitmask ``min_g sum_s 2**g(s)``, and returns that
subset's spectrum.  The result depends on the state and the subset alone.
The audits and the certificate each keep a memo from representative to
spectrum for the length of one scan, so they compute one spectrum per
orbit: 920 instead of 6,884 on the open 4x4 audit, 102 on the periodic
one.  The gas, hand-built states and loaded states carry no generators
and take the routes above unchanged.

Genuine multipartite entanglement of a pure state means every nontrivial
bipartition is entangled; the certificate scans all 2**(n-1) - 1 cuts
(subsets containing site 0, so each unordered cut appears once).  Its
``min_cut`` is the first cut of minimal entropy in enumeration order, and
exactly so: members of one orbit tie bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .states import StateVector, _check_sites, _SectorSupport, _subset_block

ENTANGLED_PURITY_TOL = 1e-9
CERTIFICATE_MAX_QUBITS = 12
AUDIT_MAX_SUBSETS = 20_000


@dataclass(frozen=True)
class BipartitionVerdict:
    """Mixedness of one subset against the rest of a pure state."""

    subset: tuple[int, ...]
    purity: float
    entropy_bits: float
    entangled: bool


@dataclass(frozen=True)
class AuditResult:
    """Verdicts for every subset of an exhaustive audit."""

    verdicts: tuple[BipartitionVerdict, ...]

    @property
    def all_entangled(self) -> bool:
        return all(v.entangled for v in self.verdicts)


# (state, representative bitmask -> spectrum) of the scan in progress; set
# only while an audit or the certificate runs, so a bare subset_spectrum
# call computes its representative directly
_SCAN_MEMO: ContextVar[tuple[StateVector, dict[int, np.ndarray]] | None] = ContextVar(
    "_SCAN_MEMO", default=None
)


@contextmanager
def _orbit_memo(state: StateVector) -> Iterator[None]:
    """One representative-to-spectrum memo for a scan of ``state``, dropped on exit."""
    token = _SCAN_MEMO.set((state, {}))
    try:
        yield
    finally:
        _SCAN_MEMO.reset(token)


def subset_spectrum(state: StateVector, subset: Sequence[int]) -> np.ndarray:
    """Descending Schmidt spectrum (reduced eigenvalues) of a site subset.

    The subset must be strictly ascending, proper and nonempty; it is
    checked before any block is built.  The result has length
    ``min(2**k, 2**(n-k))``.  A state with a verified symmetry group
    returns the spectrum of the subset's orbit representative, so every
    member of an orbit gets the same bits.
    """
    sites = _check_sites(state, subset)
    n = state.n_qubits
    if not 0 < len(sites) < n:
        raise ValueError("subset must be a proper nonempty subset")
    support = state._support
    if support is None:
        return _dense_spectrum(state, sites)
    if support.orbit_bits is None:
        return _sector_spectrum(support, n, sites)
    # the representative is the image with the smallest bitmask
    rep = int(support.orbit_bits[:, list(sites)].sum(axis=1).min())
    scan = _SCAN_MEMO.get()
    memo = scan[1] if scan is not None and scan[0] is state else {}
    if rep not in memo:
        rep_sites = tuple(s for s in range(n) if rep >> s & 1)
        memo[rep] = _sector_spectrum(support, n, rep_sites)
    # one memo entry serves the whole orbit, so no caller may write it
    return memo[rep].copy()


def _dense_spectrum(state: StateVector, sites: tuple[int, ...]) -> np.ndarray:
    block = _subset_block(state, sites)
    if block.shape[0] <= block.shape[1]:
        gram = block @ block.T
    else:
        gram = block.T @ block
    w = np.linalg.eigvalsh(gram)
    return np.clip(w, 0.0, None)[::-1]


@lru_cache(maxsize=None)
def _code_tables(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Popcount and rank of every code below ``2**width``.

    A code's rank counts the smaller codes with the same popcount, so it
    is the same at every width and one table serves rows and columns.
    """
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(width):
        popcount = np.concatenate([popcount, popcount + 1])
    rank = np.empty(popcount.size, dtype=np.int32)
    for d in range(width + 1):
        members = popcount == d
        rank[members] = np.arange(np.count_nonzero(members), dtype=np.int32)
    # cached and shared by every caller
    popcount.setflags(write=False)
    rank.setflags(write=False)
    return popcount, rank


@lru_cache(maxsize=None)
def _sector_layout(n: int, k: int, down: int) -> tuple[tuple, np.ndarray, int]:
    """Sector blocks of a k-site subset in one flat buffer.

    Block d holds the rows with d subset spins down and the columns with
    ``down - d`` rest spins down, row-major at its own start.  Returns the
    nonempty blocks as (d, start, rows, cols), each row code's offset into
    the buffer, and the buffer size.
    """
    popcount, rank = _code_tables(n - 1)
    shapes = [
        (math.comb(k, d), math.comb(n - k, down - d) if d <= down else 0)
        for d in range(k + 1)
    ]
    starts = np.cumsum([0] + [r * c for r, c in shapes])
    n_cols = np.array([c for _, c in shapes], dtype=np.int64)
    d = popcount[: 2**k].astype(np.int64)
    row_offset = starts[d] + rank[: 2**k] * n_cols[d]
    row_offset.setflags(write=False)
    blocks = tuple(
        (d, int(start), r, c)
        for d, ((r, c), start) in enumerate(zip(shapes, starts))
        if r * c
    )
    return blocks, row_offset, int(starts[-1])


def _sector_spectrum(
    support: _SectorSupport, n: int, sites: tuple[int, ...]
) -> np.ndarray:
    """Schmidt spectrum from one Gram block per subset magnetisation.

    For a flip-symmetric support, block ``k - d`` is block d with rows and
    columns permuted and every entry times the flip sign, so only blocks
    with ``2 d <= k`` are diagonalised and each spectrum below the middle
    is counted twice.
    """
    k = len(sites)
    # weight 2**t on subset site t and 2**(k + j) on rest site j: one product
    # gives each nonzero entry its row code (low k bits) and column code
    chosen = set(sites)
    order = list(sites) + [s for s in range(n) if s not in chosen]
    weights = np.empty(n)
    weights[order] = np.exp2(np.arange(n))
    code = (support.bits @ weights).astype(np.int64)
    blocks, row_offset, size = _sector_layout(n, k, support.down)
    rank = _code_tables(n - 1)[1]
    flat = np.zeros(size)
    flat[row_offset[code & ((1 << k) - 1)] + rank[code >> k]] = support.amplitudes
    mirrored = support.flip is not None
    pieces = []
    for d, start, r, c in blocks:
        if mirrored and 2 * d > k:
            continue
        block = flat[start : start + r * c].reshape(r, c)
        gram = block @ block.T if r <= c else block.T @ block
        # a 1x1 Gram matrix is its own eigenvalue
        w = gram.ravel() if gram.size == 1 else np.linalg.eigvalsh(gram)
        pieces.append(w)
        if mirrored and 2 * d < k:
            pieces.append(w)
    w = np.sort(np.clip(np.concatenate(pieces), 0.0, None))[::-1]
    spectrum = np.zeros(min(2**k, 2 ** (n - k)))
    spectrum[: w.size] = w
    return spectrum


def bipartition_verdict(state: StateVector, subset: Sequence[int]) -> BipartitionVerdict:
    w = subset_spectrum(state, subset)
    pur = float(np.sum(w * w))
    positive = w[w > 0.0]
    ent = float(-np.sum(positive * np.log2(positive)))
    return BipartitionVerdict(
        subset=tuple(int(s) for s in subset),
        purity=pur,
        entropy_bits=ent,
        entangled=pur < 1.0 - ENTANGLED_PURITY_TOL,
    )


def _audit(state: StateVector, sizes: Sequence[int]) -> AuditResult:
    """Verdicts for every subset of ``sizes``; checks the cap before any spectrum."""
    n = state.n_qubits
    total = sum(math.comb(n, k) for k in sizes)
    if total > AUDIT_MAX_SUBSETS:
        raise CapExceeded(
            f"subset audit capped at {AUDIT_MAX_SUBSETS} subsets; requested {total}"
        )
    subsets = (s for k in sizes for s in combinations(range(n), k))
    with _orbit_memo(state):
        return AuditResult(verdicts=tuple(bipartition_verdict(state, s) for s in subsets))


def odd_subset_audit(state: StateVector, max_size: int = 5) -> AuditResult:
    """Verdicts for every odd-size proper subset up to ``max_size``.

    Odd subsets of a singlet superposition are always mixed (a dimer
    must cross the cut), so every verdict should come back entangled.
    Raises :class:`CapExceeded` above ``AUDIT_MAX_SUBSETS`` subsets.
    """
    return _audit(state, range(1, min(max_size, state.n_qubits - 1) + 1, 2))


def even_subset_audit(state: StateVector, max_size: int = 4) -> AuditResult:
    """Verdicts for every even-size proper subset up to ``max_size``; same cap."""
    sizes = range(2, min(max_size, state.n_qubits - 1) + 1, 2)
    if not sizes:
        raise ValueError("no even proper subset sizes available")
    return _audit(state, sizes)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the exhaustive bipartition scan of a pure state."""

    genuine: bool
    n_cuts: int
    min_entropy_bits: float
    min_cut: tuple[int, ...]


def genuine_multipartite_certificate(state: StateVector) -> CertificateReport:
    """Exhaustive check that every bipartition of a pure state is entangled.

    Scans the 2**(n-1) - 1 cuts whose subset contains site 0, one spectrum
    per symmetry orbit, and reports the first cut of minimal entropy in
    enumeration order.  Raises :class:`CapExceeded` above 12 qubits (2047
    cuts).
    """
    n = state.n_qubits
    if n > CERTIFICATE_MAX_QUBITS:
        raise CapExceeded(
            f"certificate capped at {CERTIFICATE_MAX_QUBITS} qubits; state has {n}"
        )
    if n < 2:
        raise ValueError("certificate needs at least two sites")
    best_entropy = math.inf
    best_cut: tuple[int, ...] = ()
    genuine = True
    n_cuts = 0
    with _orbit_memo(state):
        for k in range(1, n):
            for rest in combinations(range(1, n), k - 1):
                subset = (0,) + rest
                n_cuts += 1
                verdict = bipartition_verdict(state, subset)
                if verdict.entropy_bits < best_entropy:
                    best_entropy = verdict.entropy_bits
                    best_cut = subset
                if not verdict.entangled:
                    genuine = False
    return CertificateReport(
        genuine=genuine,
        n_cuts=n_cuts,
        min_entropy_bits=float(best_entropy),
        min_cut=best_cut,
    )
