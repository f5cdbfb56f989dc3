"""Dimer coverings (perfect matchings) and weighted ensembles of them.

A covering pairs every A-sublattice site with exactly one B-sublattice
site.  Canonical storage is the A-indexed permutation form: ``a_sites``
ascending with ``b_partners[k]`` matched to ``a_sites[k]``.  Pairs are
always ordered A-first; that orientation fixes the sign convention of the
singlet product built from a covering, so it is enforced rather than
silently normalized.

An ensemble stores its coverings in this form as one partner table, read
by validation, serialization, assembly and the loop sums alike;
:class:`DimerCovering` objects are built from it only on request.  The gas
table and the JSON text are built in array operations as well, with no
Python object per covering.  The gas table is written in place into the
one array the ensemble keeps, and the constructor's check and the JSON
text run ``_ROW_BLOCK`` rows at a time, so no pass holds a second
table-sized temporary: :func:`ensemble_sha256` hashes the text block by
block without ever holding all of it.

The table is the one way in: ``CoveringEnsemble(lattice, variant,
partners, weights)`` checks it in array operations.  Every table is kept
in one dtype, the narrowest that holds every site index,
``np.min_scalar_type(lattice.site_count - 1)``: uint8 up to 256 sites,
uint16 up to 65,536.  A C-contiguous table in that dtype and float64
weights are not copied, so the ensemble aliases the caller's arrays and
marks them read-only; any other integer table is range-checked in its own
dtype, so that no entry outside the sites wraps into range, and then
converted once.  The enumerators write that dtype directly.  Code that
reads the table widens what it touches before shifting or subtracting:
``1 << b`` and ``b - a`` wrap silently in uint8.  The enumerators and
:func:`ensemble_from_json` build tables; pair lists,
such as the ``pairs`` of ``DimerCovering`` objects, go through
:func:`custom_ensemble`, which checks each covering as
:meth:`DimerCovering.from_pairs` does before the table is built.

Two enumerations are provided: the gas (every A-B pairing of a complete
bipartite lattice, ``N!`` coverings) and the liquid (nearest-neighbor
pairings of a grid).  Both are deterministic: repeated calls yield the
same coverings in the same order.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .lattice import (
    Kind, LatticeSpec, Sublattice, lattice_from_config, lattice_to_config, site_indices,
)

# N! coverings: the default cap keeps gas enumeration under ~10^5 states.
GAS_MAX_N = 8
# Coverings x pairs held by one liquid enumeration (the 8x8 grid would
# need 12,988,816 x 32).
LIQUID_MAX_STORED_PAIRS = 1_000_000
# partner-table rows per block of the constructor's check and of the JSON
# text: at N = 8 a block sorts 128 kB and writes about 400 kB of text
_ROW_BLOCK = 4096
# Digests of payloads up to this many bytes use CPython's built-in SHA-256
# unless OpenSSL is already loaded.  Import plus hash in a fresh CPython
# 3.11 process on x86-64 Linux: the built-in module imports in 0.2-0.3 ms
# and hashes 264 MB/s; hashlib imports in 2.7-4.4 ms, maps 3.5 MB more and
# hashes 1.46 GB/s.  The two break even near 0.85 MB; at 1 MiB the
# built-in route is 0.75 ms slower and still 3.5 MB smaller.
_BUILTIN_SHA256_MAX = 2**20
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
_SITES_NOT_DISTINCT = "covering sites must be distinct: each site lies in one pair"


def _site_dtype(lattice: LatticeSpec) -> np.dtype:
    """The partner-table dtype of ``lattice``: the narrowest that holds every site index."""
    return np.min_scalar_type(lattice.site_count - 1)


class Variant(enum.Enum):
    GAS = "gas"
    LIQUID = "liquid"
    CUSTOM = "custom"


@dataclass(frozen=True)
class DimerCovering:
    """One perfect matching, stored as an A-indexed permutation."""

    a_sites: tuple[int, ...]
    b_partners: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.a_sites) != len(self.b_partners):
            raise ValueError("a_sites and b_partners must have equal length")
        if not self.a_sites:
            raise ValueError("covering must contain at least one pair")
        # a matching pairs 2n different sites; with them distinct, an
        # ascending a_sites is strictly ascending
        if len({*self.a_sites, *self.b_partners}) != 2 * len(self.a_sites):
            raise ValueError(_SITES_NOT_DISTINCT)
        if list(self.a_sites) != sorted(self.a_sites):
            raise ValueError("a_sites must be strictly ascending")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.a_sites, self.b_partners))

    @property
    def n_pairs(self) -> int:
        return len(self.a_sites)

    @classmethod
    def from_pairs(
        cls,
        lattice: LatticeSpec,
        pairs: Iterable[tuple[int, int]],
        weight: float = 1.0,
    ) -> "DimerCovering":
        """Validate ``pairs`` against ``lattice`` and canonicalize ordering.

        Every pair must be (A-site, B-site); pass pairs A-first, since the
        reversed orientation denotes a different (sign-flipped) state.
        """
        try:
            plist = [(a, b) for a, b in pairs]
        except (TypeError, ValueError):  # not an iterable of 2-item pairs
            raise ValueError(f"covering {pairs!r} is not a list of (A, B) pairs") from None
        plist = [site_indices(pair) for pair in plist]
        seen: set[int] = set()
        for a, b in plist:
            if lattice.sublattice_of(a) is not Sublattice.A:
                raise ValueError(f"pair ({a}, {b}) is not ordered A-first")
            if lattice.sublattice_of(b) is not Sublattice.B:
                raise ValueError(f"pair ({a}, {b}) does not end on sublattice B")
            for s in (a, b):
                if s in seen:
                    raise ValueError(f"site {s} appears in more than one pair")
                seen.add(s)
        if len(seen) != lattice.site_count:
            missing = sorted(set(range(lattice.site_count)) - seen)
            raise ValueError(f"not a perfect matching; uncovered sites {missing}")
        plist.sort()
        return cls(
            a_sites=tuple(a for a, _ in plist),
            b_partners=tuple(b for _, b in plist),
            weight=float(weight),
        )


@dataclass(frozen=True, eq=False)
class CoveringEnsemble:
    """A lattice plus a weighted, ordered table of its coverings.

    Read-only ``partners[k, i]`` is covering ``k``'s partner of the
    lattice's ``i``-th A site and ``weights[k]`` its weight; the variant
    may be given as its value string.  The constructor checks the table in
    array operations: integer entries, one column per A site, at least one
    row, one finite weight per row, each row a permutation of the B sites,
    equal weights for the gas and the liquid, and nearest-neighbor pairs
    for the liquid.  Each fault raises a one-line ``ValueError``.
    :attr:`coverings` rebuilds the rows as :class:`DimerCovering` objects
    on demand; code that holds such objects goes through
    :func:`custom_ensemble`, which checks them as ``from_pairs`` does.

    The table is kept in :func:`_site_dtype` (uint8 up to 256 sites).  A
    C-contiguous table in that dtype and a float64 weight array are not
    copied: the ensemble aliases them and marks them read-only, so the
    caller must not write to them through any other view afterwards.  Any
    other integer table is checked in its own dtype to hold only site
    indices, so that no entry wraps into range, and then converted once.
    Widen the table's entries before shifting or subtracting them.
    """

    lattice: LatticeSpec
    variant: Variant
    partners: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        lattice = self.lattice
        variant = Variant(self.variant)
        partners = np.asarray(self.partners)
        weights = np.asarray(self.weights, dtype=np.float64)
        width = lattice.sublattice_size
        if not np.issubdtype(partners.dtype, np.integer):
            raise ValueError(f"partner table must hold integers, got dtype {partners.dtype}")
        if partners.ndim != 2 or partners.shape[1] != width:
            raise ValueError(
                f"partner table must have shape (coverings, {width}), one column per A site; "
                f"got {partners.shape}"
            )
        if not len(partners):
            raise ValueError("ensemble must contain at least one covering")
        if weights.shape != (len(partners),):
            raise ValueError(
                f"one weight per covering required; got {len(partners)} coverings "
                f"and {weights.size} weights"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("covering weights must be finite")
        dtype = _site_dtype(lattice)
        # an entry outside the sites fails in the input's own dtype, before
        # the conversion could wrap it onto a site
        if partners.dtype != dtype and (partners.min() < 0 or partners.max() >= lattice.site_count):
            raise ValueError(_SITES_NOT_DISTINCT)
        partners = np.ascontiguousarray(partners, dtype=dtype)
        # every covering holds every A site, so a repeated site or an A site
        # among the partners leaves a row that is not a permutation of B
        if not _rows_permute(partners, lattice.b_sites()):
            raise ValueError(_SITES_NOT_DISTINCT)
        if variant in (Variant.GAS, Variant.LIQUID) and np.any(weights != weights[0]):
            raise ValueError(f"{variant.value} ensembles carry equal weights")
        if variant is Variant.LIQUID:
            n = lattice.site_count
            a_sites = np.array(lattice.a_sites())
            bonds = [i * n + j for i, j in lattice.nn_bonds()]
            far = ~np.isin(np.minimum(a_sites, partners) * n + np.maximum(a_sites, partners), bonds)
            if far.any():
                k, i = np.argwhere(far)[0]
                raise ValueError(
                    f"liquid covering contains non-nearest-neighbor pair "
                    f"({a_sites[i]}, {partners[k, i]})"
                )
        partners.setflags(write=False)
        weights.setflags(write=False)
        for name, value in (("variant", variant), ("partners", partners), ("weights", weights)):
            object.__setattr__(self, name, value)

    @cached_property
    def coverings(self) -> tuple[DimerCovering, ...]:
        """The table as :class:`DimerCovering` objects, built on first use."""
        a = self.lattice.a_sites()
        return tuple(
            DimerCovering(a_sites=a, b_partners=tuple(row), weight=w)
            for row, w in zip(self.partners.tolist(), self.weights.tolist())
        )

    @cached_property
    def _memo(self) -> dict[str, np.ndarray]:
        # read-only arrays other modules derive from the table once and keep:
        # the table never changes after construction
        return {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoveringEnsemble):
            return NotImplemented
        return (self.lattice, self.variant) == (other.lattice, other.variant) and all(
            map(np.array_equal, (self.partners, self.weights), (other.partners, other.weights))
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.variant, self.partners.tobytes()))

    def __len__(self) -> int:
        return len(self.partners)

    @property
    def has_equal_weights(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))


def _rows_permute(partners: np.ndarray, b_sites: Sequence[int]) -> bool:
    """Whether every row of ``partners`` is a permutation of the ascending ``b_sites``.

    The rows are sorted ``_ROW_BLOCK`` at a time in one reused buffer, so
    no sorted copy of the whole table is made, and widened to at least
    int32 first: NumPy sorts int32 rows about twice as fast as uint8 ones.
    A sorted block passes when each column's least and greatest entries
    are both that column's B site.  The buffer is column-major, so each of
    those reductions runs over contiguous memory; comparing the rows entry
    by entry would instead broadcast ``b_sites`` along the short rows,
    which NumPy buffers in about 32 kB.
    """
    want = list(b_sites)
    wide = np.promote_types(partners.dtype, np.int32)
    buffer = np.empty((partners.shape[1], min(len(partners), _ROW_BLOCK)), dtype=wide).T
    for block in _row_blocks(partners):
        rows = buffer[: len(block)]
        rows[...] = block
        rows.sort(axis=1)
        if rows.min(axis=0).tolist() != want or rows.max(axis=0).tolist() != want:
            return False
    return True


def enumerate_gas(lattice: LatticeSpec) -> CoveringEnsemble:
    """All ``N!`` equal-weight pairings of a complete bipartite lattice.

    Coverings are emitted in lexicographic order of the partner
    permutation, the order of ``itertools.permutations(lattice.b_sites())``;
    the partner table is built in array operations, not one tuple per
    covering, and in the one array the ensemble keeps.  Raises
    :class:`CapExceeded` when ``N > GAS_MAX_N``.
    """
    if lattice.kind is not Kind.COMPLETE_BIPARTITE:
        raise ValueError("gas enumeration is defined on complete bipartite lattices")
    n = lattice.n_per_sublattice
    if n > GAS_MAX_N:
        raise CapExceeded(f"gas enumeration capped at N={GAS_MAX_N}; requested N={n}")
    table = _permutation_table(n, _site_dtype(lattice))
    table += n  # the B sites are n .. 2n - 1
    return CoveringEnsemble(lattice, Variant.GAS, table, np.ones(len(table)))


def _permutation_table(m: int, dtype: np.dtype) -> np.ndarray:
    """Every permutation of ``range(m)`` as one ``(m!, m)`` ``dtype`` table, in lexicographic order.

    The table of size ``k`` is ``k`` blocks of the table of size ``k - 1``:
    block ``v`` leads with ``v`` and moves every entry ``>= v`` up by one,
    a map that keeps each block in lexicographic order.  Every size is
    built in place: the size-``k`` table fills the first ``k!`` rows of the
    last ``k`` columns, and its blocks are written from the last back to
    the first, so the size-``k - 1`` table in the first ``(k - 1)!`` rows
    is read by every block before block 0 overwrites it.
    """
    table = np.empty((math.factorial(m), m), dtype=dtype)
    table[:1, m - 1 :] = 0
    rows = 1  # (k - 1)!
    for k in range(2, m + 1):
        col = m - k
        prev = table[:rows, col + 1 :]
        for v in range(k - 1, -1, -1):
            block = table[v * rows : (v + 1) * rows]
            block[:, col] = v
            np.add(prev, prev >= v, out=block[:, col + 1 :])
        rows *= k
    return table


def enumerate_liquid(lattice: LatticeSpec) -> CoveringEnsemble:
    """All equal-weight nearest-neighbor coverings of a square grid.

    Backtracks over the lowest-index unmatched site with an explicit
    stack; output order is deterministic (lexicographic in the sequence of
    matched bonds).  Raises :class:`CapExceeded` once the coverings found
    hold more than ``LIQUID_MAX_STORED_PAIRS`` pairs, and before any search
    when the smallest possible covering set would: one covering on a 1xL
    chain, at least two on any grid with two or more rows and columns.
    """
    if lattice.kind is not Kind.SQUARE_GRID:
        raise ValueError("liquid enumeration is defined on square grids")
    n = lattice.site_count
    # with even rows (even cols likewise) and two or more columns, stacked
    # vertical dimers are one covering; turning one 2x2 square of them
    # horizontal gives a second
    min_pairs = (1 if min(lattice.rows, lattice.cols) == 1 else 2) * (n // 2)
    if min_pairs > LIQUID_MAX_STORED_PAIRS:
        raise CapExceeded(
            f"liquid enumeration capped at {LIQUID_MAX_STORED_PAIRS} stored pairs "
            f"(coverings x pairs); the {lattice.rows}x{lattice.cols} grid needs "
            f"at least {min_pairs}"
        )
    max_coverings = LIQUID_MAX_STORED_PAIRS // (n // 2)
    adj = [lattice.neighbors(s) for s in range(n)]
    a_sites = lattice.a_sites()
    matched = [False] * n
    mate = [0] * n
    bond_stack: list[tuple[int, int]] = []
    found: list[list[int]] = []  # one partner-table row per covering

    def lowest_unmatched(start: int) -> int | None:
        return next((s for s in range(start, n) if not matched[s]), None)

    # one frame per matched bond: the site and its untried neighbors;
    # every site below a frame's site is matched while the frame is live
    matched[0] = True
    frames: list[tuple[int, Iterator[int]]] = [(0, iter(adj[0]))]
    while frames:
        site, options = frames[-1]
        t = next((t for t in options if not matched[t]), None)
        if t is None:
            frames.pop()
            matched[site] = False
            if frames:
                matched[bond_stack.pop()[1]] = False
            continue
        matched[t] = True
        mate[site], mate[t] = t, site
        bond_stack.append((site, t))
        nxt = lowest_unmatched(site + 1)
        if nxt is not None:
            matched[nxt] = True
            frames.append((nxt, iter(adj[nxt])))
            continue
        if len(found) == max_coverings:
            raise CapExceeded(
                f"liquid enumeration capped at {LIQUID_MAX_STORED_PAIRS} stored pairs "
                f"(coverings x pairs); {lattice.rows}x{lattice.cols} grid has more "
                f"than {max_coverings} coverings of {n // 2} pairs"
            )
        found.append([mate[a] for a in a_sites])
        bond_stack.pop()
        matched[t] = False
    if not found:
        raise ValueError("lattice admits no nearest-neighbor perfect matching")
    table = np.array(found, dtype=_site_dtype(lattice))
    return CoveringEnsemble(lattice, Variant.LIQUID, table, np.ones(len(table)))


def custom_ensemble(
    lattice: LatticeSpec,
    pair_lists: Sequence[Iterable[tuple[int, int]]],
    weights: Sequence[float] | None = None,
) -> CoveringEnsemble:
    """Ensemble from explicit coverings; weights default to 1."""
    weights = [1.0] * len(pair_lists) if weights is None else weights
    return _ensemble_from_pairs(lattice, Variant.CUSTOM, pair_lists, weights)


def _ensemble_from_pairs(
    lattice: LatticeSpec,
    variant: Variant,
    pair_lists: Sequence[Iterable[tuple[int, int]]],
    weights: Sequence[float],
) -> CoveringEnsemble:
    """Ensemble from A-first pair lists, checked as :meth:`DimerCovering.from_pairs` checks.

    The lists are read as one integer array; a boolean among the sites,
    which the array would read as 0 or 1, is refused before the array is
    used, and so is a weight that is not a number, a boolean included.  A
    list passes when its first sites are the lattice's A sites and its
    second sites its B sites, each once, which is exactly what
    ``from_pairs`` accepts.  The first list that fails, or every list when
    they do not stack into one (coverings, pairs, 2) integer array, goes
    through ``from_pairs``, which names the fault.  The constructor checks
    the counts and the weights' values.
    """
    not_numbers = [w for w in weights if isinstance(w, bool) or not isinstance(w, numbers.Real)]
    if not_numbers:
        raise ValueError(f"covering weight {not_numbers[0]!r} is not a number")
    n = lattice.sublattice_size
    try:
        pairs = np.array(pair_lists)
    except ValueError:  # ragged
        pairs = None
    if (
        pairs is not None
        and np.issubdtype(pairs.dtype, np.integer)
        and pairs.shape == (len(pair_lists), n, 2)
    ):
        site_types = {type(s) for covering in pair_lists for pair in covering for s in pair}
        if bool in site_types or np.bool_ in site_types:
            raise ValueError("covering sites must be integers, got a boolean")
        pairs = np.take_along_axis(pairs, np.argsort(pairs[:, :, :1], axis=1), axis=1)
        passed = np.all(pairs[:, :, 0] == lattice.a_sites(), axis=1) & np.all(
            np.sort(pairs[:, :, 1], axis=1) == lattice.b_sites(), axis=1
        )
        for k in np.flatnonzero(~passed)[:1]:
            DimerCovering.from_pairs(lattice, pair_lists[k])  # raises
        partners = pairs[:, :, 1]
    else:
        partners = np.array(
            [DimerCovering.from_pairs(lattice, pairs).b_partners for pairs in pair_lists],
            dtype=np.int64,
        ).reshape(-1, n)
    try:
        values = np.array([float(w) for w in weights])
    except OverflowError:  # an int past the float range
        raise ValueError("covering weights must be finite") from None
    return CoveringEnsemble(lattice, variant, partners, values)


# ----------------------------------------------------------------------
# serialization: integers for pairs are exact, weights are decimal floats

def ensemble_to_json(ensemble: CoveringEnsemble) -> str:
    """The ensemble as the text of ``json.dumps(doc, sort_keys=True)``.

    ``doc`` holds schema 1, the lattice config, the variant, every covering
    as a list of ``[A site, B site]`` pairs and the weights.  The coverings
    and the weights are written in array operations, with no Python object
    per covering; the text is the same, byte for byte, as that of
    ``json.dumps`` on the nested lists.
    """
    return b"".join(_json_blocks(ensemble)).decode("ascii")


def ensemble_sha256(ensemble: CoveringEnsemble) -> str:
    """Hex sha256 of the UTF-8 text of :func:`ensemble_to_json`.

    The text is hashed as it is written, ``_ROW_BLOCK`` rows at a time, so
    the whole text is never held.  Its size is bounded from the partner
    table first, to pick the implementation in :func:`_sha256_hex`: each
    pair writes at most ``[a, b], `` with each site in no more digits than
    the site count has, each covering adds ``[``, ``], `` and a weight's
    ``repr`` of at most 24 characters with its ``", "``, and the rest of
    the text stays under 512 bytes.
    """
    rows, pairs = ensemble.partners.shape
    size = rows * (pairs * (2 * len(str(ensemble.lattice.site_count)) + 6) + 30) + 512
    return _sha256_hex(_json_blocks(ensemble), size)


def _sha256_hex(blocks: Iterable[bytes | bytearray | np.ndarray], size: int) -> str:
    """Hex sha256 of ``blocks`` joined, each hashed as it comes.

    The one route of both report digests, this and
    :func:`states.state_sha256`; ``size`` bounds the payload's bytes.  Up
    to ``_BUILTIN_SHA256_MAX`` bytes, while OpenSSL's ``_hashlib`` is not
    loaded, the digest comes from CPython's built-in module (``_sha256``
    before Python 3.12, ``_sha2`` from 3.12 on), which maps no libcrypto.
    A larger payload, a process that has loaded OpenSSL already, or a
    build without the built-in module takes ``hashlib``, imported here and
    not at module level, so a run whose digests are all small, or that
    takes none, leaves libcrypto unmapped.  The digest is the same either
    way.
    """
    builtin = size <= _BUILTIN_SHA256_MAX and "_hashlib" not in sys.modules
    try:
        digest = __import__(_BUILTIN_SHA256 if builtin else "hashlib").sha256()
    except ImportError:  # a build without the built-in module
        import hashlib

        digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    return digest.hexdigest()


def _json_blocks(ensemble: CoveringEnsemble) -> Iterator[bytes | bytearray]:
    """The text of :func:`ensemble_to_json` as ASCII bytes, in row blocks."""
    doc = {
        "schema": 1,
        "lattice": lattice_to_config(ensemble.lattice),
        "variant": ensemble.variant.value,
    }
    # "coverings" sorts before the other keys and "weights" after them
    yield b'{"coverings": ['
    yield from _joined(_coverings_texts(ensemble))
    yield b"], " + json.dumps(doc, sort_keys=True)[1:-1].encode() + b', "weights": ['
    yield from _joined(map(_weights_text, _row_blocks(ensemble.weights)))
    yield b"]}"


def _row_blocks(array: np.ndarray) -> Iterator[np.ndarray]:
    for start in range(0, len(array), _ROW_BLOCK):
        yield array[start : start + _ROW_BLOCK]


def _joined(texts: Iterable[bytearray]) -> Iterator[bytes | bytearray]:
    """``texts`` with ``", "`` between each and the next."""
    for i, text in enumerate(texts):
        if i:
            yield b", "
        yield text


def _coverings_texts(ensemble: CoveringEnsemble) -> Iterator[bytearray]:
    """Each row block's coverings as ``[[a, b], ...]``, joined by ``", "``.

    Each pair is one record of three byte strings: the text up to its B
    site, the B site's digits gathered from a per-site table, and the text
    after it.  NumPy pads each to its field's width with NUL bytes, which
    :func:`_unpadded` drops.  The records are written straight into the
    buffer that is filtered, so each block's text is copied once.
    """
    a_sites = ensemble.lattice.a_sites()
    last = len(a_sites) - 1
    before = np.array([f"{', ' if i else '['}[{a}, " for i, a in enumerate(a_sites)], dtype=bytes)
    digits = np.array([str(s) for s in range(ensemble.lattice.site_count)], dtype=bytes)
    after = np.array(["]"] * last + ["]], "], dtype=bytes)
    fields = np.dtype([("before", before.dtype), ("b", digits.dtype), ("after", after.dtype)])
    for partners in _row_blocks(ensemble.partners):
        text = bytearray(partners.size * fields.itemsize)
        records = np.frombuffer(text, dtype=fields).reshape(partners.shape)
        records["before"] = before
        # NumPy gathers with intp indices faster than with narrow ones
        records["b"] = digits[partners.astype(np.intp)]
        records["after"] = after
        yield _unpadded(text)


def _weights_text(weights: np.ndarray) -> bytearray:
    """Every weight's ``repr`` joined by ``", "``, one ``repr`` per distinct weight.

    Weights are keyed by their float64 bits, not their values, so that
    ``-0.0`` keeps its own text instead of merging into ``0.0``.
    """
    bits, which = np.unique(weights.view(np.uint64), return_inverse=True)
    texts = np.array([f"{w!r}, " for w in bits.view(np.float64).tolist()], dtype=bytes)
    return _unpadded(bytearray(texts[which]))


def _unpadded(text: bytearray) -> bytearray:
    """``text`` with its NUL padding and its final ``", "`` dropped."""
    text = text.translate(None, b"\0")
    del text[-2:]
    return text


def ensemble_from_json(text: str) -> CoveringEnsemble:
    """The ensemble whose text :func:`ensemble_to_json` writes.

    The document must be a schema 1 object holding a lattice config object,
    a variant, and lists of coverings and weights; the coverings and
    weights are then checked as :func:`custom_ensemble` checks them.  Every
    fault raises a one-line ``ValueError``.
    """
    doc = json.loads(text)
    keys = ("schema", "lattice", "variant", "coverings", "weights")
    if not (isinstance(doc, dict) and all(key in doc for key in keys)):
        raise ValueError(f"ensemble document must be an object with keys {', '.join(keys)}")
    if type(doc["schema"]) is not int or doc["schema"] != 1:
        raise ValueError(f"unsupported ensemble schema {doc['schema']!r}; expected 1")
    if not isinstance(doc["lattice"], dict):
        raise ValueError(f"ensemble lattice must be a config object, got {doc['lattice']!r}")
    if not (isinstance(doc["coverings"], list) and isinstance(doc["weights"], list)):
        raise ValueError("ensemble coverings and weights must be lists")
    lattice = lattice_from_config(doc["lattice"])
    return _ensemble_from_pairs(lattice, Variant(doc["variant"]), doc["coverings"], doc["weights"])
