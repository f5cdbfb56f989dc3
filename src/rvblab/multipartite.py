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

One kernel computes the block spectra of a batch of k-site subsets at
once.  A slot table per (n, k, D, flip) maps each recoded basis index
(subset bits low, rest bits high) straight to its place in a flat buffer
of the kept blocks, and sends every entry of a skipped block to one dump
slot.  Per chunk of subsets, one matrix product recodes the support for
all of them, and each subset then costs one gather from the table and
one scatter into its zero-filled buffer.  Each kept block takes one
stacked Gram product and one stacked ``eigvalsh`` over the chunk.  A bare
``subset_spectrum`` call is a batch of one.  The tests pin the kernel bit
for bit to the one-subset kernel it replaced, at several chunk sizes.

An assembled grid state also carries its lattice's symmetry generators
(reflections, the transpose of a square grid, translations of a periodic
one).  The support keeps a generator only when it maps the state to +1 or
-1 times itself, with the same exact test as the flip, and closes the kept
ones into a group: 8 elements on the open 4x4, 128 on the periodic 4x4.
A symmetry permutes the sites and leaves every reduced spectrum fixed, so
``subset_spectrum`` maps a subset to its orbit representative, the image
with the smallest bitmask ``min_g sum_s 2**g(s)``, and returns that
subset's spectrum.  The result depends on the state and the subset alone.

The spectra are memoised on the state's support, like the support itself
and the reduced density matrices.  The memo maps each representative to
one entry: its spectrum and its purity, entropy and entangled flag.  It
holds one subset size at a time: a call or a batch of another size
empties it first.  A table indexed by subset bitmask holds each subset's
representative once an array pass has mapped it; an entry never goes
stale.  What stays on a state is thus one size's entries and the table,
128 KB at 16 sites.  The 4x4 audits compute one spectrum per orbit: 920
instead of 6,884 on the open 4x4, 102 on the periodic one.  One listing,
``_subsets``, gives every subset of a size as one array of site indices
in the narrowest type, in lexicographic order.  The audits read all of
its rows and the certificate the first ``comb(n - 1, k - 1)``.  Each
caller maps its rows to their representatives in one array pass (a
running minimum over the group's rows), and enters every new
representative in one kernel batch, whose spectra take one
``_mixedness`` call (purity, entropy and the entangled flag per row,
with the bits of a one-spectrum call).  The distinct representatives
come from a sort, and each subset's purity, entropy and flag are
gathered into three arrays from one value per representative, so no
Python object is kept per subset.  An audit returns an ``AuditResult``:
each size's site array and the three arrays, all read-only, with
``len``, ``all_entangled`` and value equality.  Its ``verdicts`` view
builds one ``BipartitionVerdict`` per subset on demand, with the arrays'
bits.  The audits send each subset through ``subset_spectrum`` once
more, in order, one row of the site array at a time, as perfbench
counts them; the call reads the memo.  A bare ``bipartition_verdict``
takes ``_mixedness`` of its one spectrum, which has the entry's bits.  A
bare call of a size the table has not mapped takes the same array pass
on its one row.  The gas, hand-built states and loaded states carry no
generators: each subset is its own representative, and they keep no
table.  A state with no single sector keeps no memo: its spectra, one
per subset, are stacked per size and take one ``_mixedness`` call.

Genuine multipartite entanglement of a pure state means every nontrivial
bipartition is entangled; the certificate scans all 2**(n-1) - 1 cuts.
Its cuts of size k are the first ``comb(n - 1, k - 1)`` rows of the
listing: exactly the subsets that hold site 0, so each unordered cut
appears once.  Per size it gathers every cut's entropy and flag into
arrays as the audits do: ``genuine`` is every flag, ``n_cuts`` the cut
count, and ``min_cut`` the first cut of minimal entropy in enumeration
order (the first ``argmin`` of a size, replaced only by a strictly
smaller one of a later size), and exactly so: members of one orbit tie
bit for bit.  Only a state with no single sector computes a spectrum
per cut.  The tests pin the certificate bit for bit to the walk over one
cut at a time that it replaced.
replaced.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .states import StateVector, _check_sites, _SectorSupport, _subset_block

ENTANGLED_PURITY_TOL = 1e-9
CERTIFICATE_MAX_QUBITS = 12
AUDIT_MAX_SUBSETS = 20_000


@dataclass(frozen=True, slots=True)
class BipartitionVerdict:
    """Mixedness of one subset against the rest of a pure state."""

    subset: tuple[int, ...]
    purity: float
    entropy_bits: float
    entangled: bool


@dataclass(frozen=True, eq=False)
class AuditResult:
    """Every subset of an exhaustive audit and its mixedness, in read-only arrays.

    ``sites`` holds one array per subset size, one row per subset in
    lexicographic order, in the narrowest type (see :func:`_subsets`).
    ``purity``, ``entropy_bits`` and ``entangled`` hold one entry per
    subset, size after size in the same order.  Two results are equal
    when all their arrays are equal.  :attr:`verdicts` builds one
    :class:`BipartitionVerdict` per subset on demand.
    """

    sites: tuple[np.ndarray, ...]
    purity: np.ndarray
    entropy_bits: np.ndarray
    entangled: np.ndarray

    def __post_init__(self) -> None:
        for array in self._arrays():
            array.setflags(write=False)

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (*self.sites, self.purity, self.entropy_bits, self.entangled)

    def __len__(self) -> int:
        return self.purity.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditResult):
            return NotImplemented
        mine, theirs = self._arrays(), other._arrays()
        return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))

    @property
    def all_entangled(self) -> bool:
        return bool(self.entangled.all())

    @property
    def verdicts(self) -> tuple[BipartitionVerdict, ...]:
        """One verdict per subset, in order, with the arrays' bits."""
        subsets = chain.from_iterable(map(tuple, sites.tolist()) for sites in self.sites)
        columns = (self.purity.tolist(), self.entropy_bits.tolist(), self.entangled.tolist())
        return tuple(map(BipartitionVerdict, subsets, *columns))


def _map_representatives(support: _SectorSupport, sites: np.ndarray) -> np.ndarray:
    """Orbit representatives of the subsets in the rows of ``sites``, entered in the table.

    One pass over arrays: the image bitmasks under each group element are
    one gather and a row sum, and a running ``np.minimum`` keeps the
    smallest, so no (group, subsets, k) array is formed.  A support with
    no verified group keeps no table: each subset is its own
    representative.  Returns the representatives in row order.
    """
    masks = np.left_shift(1, sites, dtype=np.int64).sum(axis=1)
    if support.reps is None:
        return masks
    rep = masks.copy()
    # row 0 is the identity, whose images are the masks themselves
    for row in support.orbit_bits[1:]:
        np.minimum(rep, row[sites].sum(axis=1), out=rep)
    support.reps[masks] = rep
    return rep


def _memo_spectra(
    support: _SectorSupport, n: int, reps: list[int], k: int
) -> dict[int, tuple[np.ndarray, tuple[float, float, bool]]]:
    """The support's memo, holding an entry for every one of the k-site ``reps``.

    ``reps`` are distinct and ascending.  An entry is a representative's
    spectrum and its purity, entropy and entangled flag.  The memo keeps
    one subset size: a request of another size empties it first.  The
    missing representatives go to the kernel in one batch, whose spectra
    take one :func:`_mixedness` call, and are entered only once the whole
    batch has returned.
    """
    memo = support.spectra
    if memo and next(iter(memo)).bit_count() != k:
        memo.clear()
    new = [rep for rep in reps if rep not in memo]
    if new:
        spectra = _sector_spectra(support, n, new, k)
        stats = zip(*(column.tolist() for column in _mixedness(spectra)))
        memo.update(zip(new, zip(spectra, stats)))
    return memo


def subset_spectrum(state: StateVector, subset: Sequence[int]) -> np.ndarray:
    """Descending Schmidt spectrum (reduced eigenvalues) of a site subset.

    The subset must be strictly ascending, proper and nonempty; it is
    checked before any block is built.  The result has length
    ``min(2**k, 2**(n-k))``.  A state with a verified symmetry group
    returns the spectrum of the subset's orbit representative, so every
    member of an orbit gets the same bits.  A state with a sector support
    keeps the spectra of the last subset size asked for, and each call
    returns a fresh copy.
    """
    sites = _check_sites(state, subset)
    n = state.n_qubits
    k = len(sites)
    if not 0 < k < n:
        raise ValueError("subset must be a proper nonempty subset")
    support = state._support
    if support is None:
        return _dense_spectrum(state, sites)
    rep = _bitmask(sites)
    if support.reps is not None:
        # the table's entry, or for a size it has not mapped a one-row pass
        rep = support.reps.item(rep) or _map_representatives(support, np.array([sites])).item()
    memo = support.spectra
    if rep not in memo:
        _memo_spectra(support, n, [rep], k)
    # one memo entry serves the whole orbit, so no caller may write it
    return memo[rep][0].copy()


def _bitmask(sites: tuple[int, ...]) -> int:
    mask = 0
    for s in sites:
        mask |= 1 << s
    return mask


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
def _sector_layout(
    n: int, k: int, down: int, mirrored: bool
) -> tuple[tuple, np.ndarray, int]:
    """Kept sector blocks of a k-site subset in one flat buffer.

    Block d holds the rows with d subset spins down and the columns with
    ``down - d`` rest spins down, row-major at its own start.  A mirrored
    (flip-symmetric) layout keeps only the blocks with ``2 d <= k``.
    Returns the kept nonempty blocks as (d, start, rows, cols), each row
    code's offset into the buffer, and the buffer size: the kept blocks
    and one dump slot after them, where every skipped row's entries land.
    """
    popcount, rank = _code_tables(n - 1)
    skipped = [mirrored and 2 * d > k for d in range(k + 1)]
    # a skipped block takes no room in the buffer
    shapes = [
        (math.comb(k, d), 0 if skip or d > down else math.comb(n - k, down - d))
        for d, skip in enumerate(skipped)
    ]
    starts = np.cumsum([0] + [r * c for r, c in shapes])
    dump = int(starts[-1])
    n_cols = np.array([c for _, c in shapes], dtype=np.int64)
    d = popcount[: 2**k].astype(np.int64)
    row_offset = np.where(np.array(skipped)[d], dump, starts[d] + rank[: 2**k] * n_cols[d])
    row_offset.setflags(write=False)
    blocks = tuple(
        (d, int(start), r, c)
        for d, ((r, c), start) in enumerate(zip(shapes, starts))
        if r * c
    )
    return blocks, row_offset, dump + 1


@lru_cache(maxsize=1)
def _slot_table(n: int, k: int, down: int, mirrored: bool) -> np.ndarray:
    """Buffer slot of every recoded index: row code in the low k bits, column above.

    One outer add of the column ranks and the row offsets, in the narrowest
    unsigned type that holds every sum (uint16 up to 16 sites), with no
    ``2**n`` int64 temporary.  A row at the dump slot (a skipped block's)
    sends all its columns there.  Only indices in the state's sector are
    ever read.  An audit or a certificate asks for one size at a time, so
    one cached table serves all of that size.
    """
    _, row_offset, size = _sector_layout(n, k, down, mirrored)
    cols = _code_tables(n - 1)[1][: 2 ** (n - k)]
    table = np.empty((cols.size, row_offset.size), np.min_scalar_type(size + cols.size))
    np.add(cols[:, None], row_offset, out=table, casting="unsafe")
    table[:, row_offset == size - 1] = size - 1
    table = table.ravel()
    table.setflags(write=False)
    return table


# bytes of the float64 scatter buffer of one chunk of subsets
_CHUNK_BYTES = 1 << 18


def _recode(bits: np.ndarray, masks: np.ndarray, k: int) -> np.ndarray:
    """Each support index recoded for each k-site subset of ``masks``, one row per subset.

    ``bits`` is the support's ``bits.T``.  A subset weights its sites
    ``2**t`` (its t-th site) and the rest ``2**(k + j)`` (the j-th other
    site), so one product of the weights with the bits puts the subset's
    bits low and the rest's above them.  The weights take the bits' dtype,
    which holds every recoded index exactly.
    """
    sites = np.arange(bits.shape[0])
    member = (masks[:, None] >> sites) & 1
    # subset sites below each site; every other site below it is a rest site
    below = np.cumsum(member, axis=1) - member
    weights = np.exp2(np.where(member == 1, below, k + sites - below), dtype=bits.dtype)
    return (weights @ bits).astype(np.intp)


def _sector_spectra(
    support: _SectorSupport, n: int, masks: Sequence[int] | np.ndarray, k: int
) -> np.ndarray:
    """Schmidt spectra of the k-site subsets with bitmasks ``masks``, one row each.

    The subsets go in chunks whose block buffers fill ``_CHUNK_BYTES``.
    One :func:`_recode` product recodes every nonzero entry for every
    subset of a chunk.  Each subset then takes one gather from the slot
    table and one scatter into its zero-filled buffer, and each kept
    block one stacked Gram product and one stacked ``eigvalsh`` over the
    chunk.  No result depends on the chunking.  For a flip-symmetric
    support, block ``k - d`` is block d with rows and columns permuted and
    every entry times the flip sign, so only blocks with ``2 d <= k`` are
    kept and each spectrum below the middle is counted twice.  Rows are
    sorted descending and padded with zeros to ``min(2**k, 2**(n - k))``.
    """
    mirrored = support.flip is not None
    blocks, _, size = _sector_layout(n, k, support.down, mirrored)
    table = _slot_table(n, k, support.down, mirrored)
    masks = np.asarray(masks, dtype=np.int64)
    bits = support.bits.T  # C-contiguous
    out = np.zeros((masks.size, min(2**k, 2 ** (n - k))))
    step = max(1, _CHUNK_BYTES // (8 * size))
    for lo in range(0, masks.size, step):
        slots = table[_recode(bits, masks[lo : lo + step], k)].astype(np.intp)
        m = slots.shape[0]
        flat = np.zeros((m, size))
        for row, slot in zip(flat, slots):
            row[slot] = support.amplitudes
        pieces = []
        for d, start, r, c in blocks:
            block = flat[:, start : start + r * c].reshape(m, r, c)
            if r <= c:
                gram = block @ block.transpose(0, 2, 1)
            else:
                gram = block.transpose(0, 2, 1) @ block
            # a 1x1 Gram matrix is its own eigenvalue
            w = gram.reshape(m, 1) if gram.shape[1] == 1 else np.linalg.eigvalsh(gram)
            pieces.append(w)
            if mirrored and 2 * d < k:
                pieces.append(w)
        w = np.sort(np.clip(np.concatenate(pieces, axis=1), 0.0, None), axis=1)
        out[lo : lo + m, : w.shape[1]] = w[:, ::-1]
    return out


def bipartition_verdict(state: StateVector, subset: Sequence[int]) -> BipartitionVerdict:
    w = subset_spectrum(state, subset)
    (purity,), (entropy,), (entangled,) = (column.tolist() for column in _mixedness(w[None]))
    return BipartitionVerdict(tuple(int(s) for s in subset), purity, entropy, entangled)


def _mixedness(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Purity, entropy in bits and the entangled flag of each row of a stack of spectra.

    Each row is a reduced spectrum as :func:`subset_spectrum` returns it:
    descending, with its zeros last, so its positive eigenvalues are a
    prefix.  Purity is the row sum of ``w * w``.  The rows are grouped by
    their count c of positive eigenvalues, and each group sums
    ``-x log2 x`` over its first c columns, so every sum has the length
    and pairwise split of a one-row call and each row gets the bits of
    one.
    """
    purity = (w * w).sum(axis=1)
    positive = np.count_nonzero(w > 0.0, axis=1)
    entropy = np.empty(purity.shape)
    # np.bincount, not np.unique: see _subset_stats
    for count in np.flatnonzero(np.bincount(positive)):
        rows = positive == count
        x = w[rows, :count]
        entropy[rows] = -(x * np.log2(x)).sum(axis=1)
    return purity, entropy, purity < 1.0 - ENTANGLED_PURITY_TOL


def _subsets(n: int, k: int) -> np.ndarray:
    """Every k-site subset of n sites, one row each, in lexicographic order.

    Sites are in the narrowest type, ``np.min_scalar_type(n - 1)``.  The
    first ``comb(n - 1, k - 1)`` rows are the subsets that hold site 0.
    """
    flat = chain.from_iterable(combinations(range(n), k))
    return np.fromiter(flat, np.min_scalar_type(n - 1), count=math.comb(n, k) * k).reshape(-1, k)


def _subset_stats(
    state: StateVector, sites: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Purity, entropy and the entangled flag of the subsets in the rows of ``sites``.

    Three arrays, one entry per row.  On the sector route the subsets map
    to their representatives in one array pass, the missing ones enter the
    memo in one batch, and each array is gathered from one value per
    distinct representative, so no per-subset object is made.  A state
    with no sector support sends each subset through
    :func:`subset_spectrum` and takes one :func:`_mixedness` call on the
    stacked spectra.
    """
    support = state._support
    if support is None:
        return _mixedness(np.array([subset_spectrum(state, s) for s in sites]))
    reps = _map_representatives(support, sites)
    # a sort, not np.unique: NumPy 2's first np.unique call in a process (a
    # C++ hash table) raised the open 4x4 run's peak memory by about 0.4 MB
    ordered = np.sort(reps)
    distinct = ordered[np.diff(ordered, prepend=-1) != 0]
    keys = distinct.tolist()
    memo = _memo_spectra(support, state.n_qubits, keys, sites.shape[1])
    entry = np.searchsorted(distinct, reps)
    columns = zip(*(memo[rep][1] for rep in keys))
    return tuple(np.array(column)[entry] for column in columns)


def _audit(state: StateVector, sizes: Sequence[int]) -> AuditResult:
    """Every subset of ``sizes`` and its mixedness; checks the cap before any spectrum.

    Every subset reaches :func:`subset_spectrum` exactly once, in order,
    on either route: perfbench counts those calls as
    ``multipartite.subsets``.  On the sector route the call reads the
    memo that :func:`_subset_stats` filled, one row of the size's site
    array at a time.
    """
    n = state.n_qubits
    total = sum(math.comb(n, k) for k in sizes)
    if total > AUDIT_MAX_SUBSETS:
        raise CapExceeded(
            f"subset audit capped at {AUDIT_MAX_SUBSETS} subsets; requested {total}"
        )
    sector = state._support is not None
    sites = tuple(_subsets(n, k) for k in sizes)
    stats = []
    for subsets in sites:
        stats.append(_subset_stats(state, subsets))
        if sector:
            for row in subsets:
                subset_spectrum(state, tuple(row.tolist()))
    purity, entropy, entangled = (np.concatenate(column) for column in zip(*stats))
    return AuditResult(sites, purity, entropy, entangled)


def _audit_sizes(state: StateVector, first: int, max_size: int) -> range:
    """Subset sizes ``first, first + 2, ...`` up to ``max_size``, all proper."""
    try:
        if isinstance(max_size, bool):  # operator.index(True) is 1
            raise TypeError
        max_size = operator.index(max_size)
    except TypeError:
        raise ValueError(f"max_size must be an integer, got {max_size!r}") from None
    sizes = range(first, min(max_size, state.n_qubits - 1) + 1, 2)
    if not sizes:
        parity = "odd" if first % 2 else "even"
        raise ValueError(f"no {parity} proper subset sizes available")
    return sizes


def odd_subset_audit(state: StateVector, max_size: int = 5) -> AuditResult:
    """Every odd-size proper subset up to ``max_size`` and its mixedness.

    Odd subsets of a singlet superposition are always mixed (a dimer
    must cross the cut), so every subset should come back entangled.
    Raises :class:`CapExceeded` above ``AUDIT_MAX_SUBSETS`` subsets and
    ValueError when no odd proper size is at most ``max_size``.
    """
    return _audit(state, _audit_sizes(state, 1, max_size))


def even_subset_audit(state: StateVector, max_size: int = 4) -> AuditResult:
    """Every even-size proper subset up to ``max_size`` and its mixedness; same cap."""
    return _audit(state, _audit_sizes(state, 2, max_size))


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
    for k in range(1, n):
        # the rows that hold site 0, so each unordered cut appears once
        cuts = _subsets(n, k)[: math.comb(n - 1, k - 1)]
        n_cuts += len(cuts)
        _, entropy, entangled = _subset_stats(state, cuts)
        genuine = genuine and bool(entangled.all())
        # the first minimum of the size, and strictly less across sizes:
        # the first of tied minima stays
        first = int(entropy.argmin())
        if entropy[first] < best_entropy:
            best_entropy, best_cut = entropy.item(first), tuple(cuts[first].tolist())
    return CertificateReport(
        genuine=genuine,
        n_cuts=n_cuts,
        min_entropy_bits=best_entropy,
        min_cut=best_cut,
    )
