"""Dimer coverings (perfect matchings) and weighted ensembles of them.

A covering pairs every A-sublattice site with exactly one B-sublattice
site.  Canonical storage is the A-indexed permutation form: ``a_sites``
ascending with ``b_partners[k]`` matched to ``a_sites[k]``.  Pairs are
always ordered A-first; that orientation fixes the sign convention of the
singlet product built from a covering, so it is enforced rather than
silently normalized.

Two enumerations are provided: the gas (every A-B pairing of a complete
bipartite lattice, ``N!`` coverings) and the liquid (nearest-neighbor
pairings of a grid).  Both are deterministic: repeated calls yield the
same coverings in the same order.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from itertools import chain, permutations
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .lattice import Kind, LatticeSpec, Sublattice, lattice_from_config, lattice_to_config

# N! coverings: the default cap keeps gas enumeration under ~10^5 states.
GAS_MAX_N = 8
# Coverings x pairs held by one liquid enumeration (the 8x8 grid would
# need 12,988,816 x 32).
LIQUID_MAX_STORED_PAIRS = 1_000_000


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
            raise ValueError("covering sites must be distinct: each site lies in one pair")
        if list(self.a_sites) != sorted(self.a_sites):
            raise ValueError("a_sites must be strictly ascending")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.a_sites, self.b_partners))

    @property
    def n_pairs(self) -> int:
        return len(self.a_sites)

    def partner_array(self, n_sites: int) -> np.ndarray:
        """site -> matched partner, as an int array of length ``n_sites``."""
        out = np.full(n_sites, -1, dtype=np.int64)
        for a, b in zip(self.a_sites, self.b_partners):
            out[a] = b
            out[b] = a
        return out

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
        plist = [(int(a), int(b)) for a, b in pairs]
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


@dataclass(frozen=True)
class CoveringEnsemble:
    """A lattice plus a weighted, ordered list of its coverings."""

    lattice: LatticeSpec
    coverings: tuple[DimerCovering, ...]
    variant: Variant

    def __post_init__(self) -> None:
        if not self.coverings:
            raise ValueError("ensemble must contain at least one covering")
        n = self.coverings[0].n_pairs
        if any(c.n_pairs != n for c in self.coverings):
            raise ValueError("coverings must all cover the same lattice")
        if n != self.lattice.sublattice_size:
            raise ValueError(
                f"covering n_pairs {n} differs from the lattice's sublattice "
                f"size {self.lattice.sublattice_size}"
            )
        self._check_sites_on_lattice()
        if self.variant in (Variant.GAS, Variant.LIQUID):
            w0 = self.coverings[0].weight
            if any(c.weight != w0 for c in self.coverings):
                raise ValueError(f"{self.variant.value} ensembles carry equal weights")
        if self.variant is Variant.LIQUID:
            for c in self.coverings:
                for a, b in c.pairs:
                    if b not in self.lattice.neighbors(a):
                        raise ValueError(
                            f"liquid covering contains non-nearest-neighbor pair ({a}, {b})"
                        )

    def _check_sites_on_lattice(self) -> None:
        """ValueError unless every covering site lies in ``[0, site_count)``.

        One C-level pass over all sites instead of a Python loop per
        covering (the gas has 40,320); A-site tuples shared by many
        coverings are checked once.
        """
        on_lattice = frozenset(range(self.lattice.site_count))
        a_tuples = set(map(attrgetter("a_sites"), self.coverings))
        b_tuples = map(attrgetter("b_partners"), self.coverings)
        if on_lattice.issuperset(chain.from_iterable(chain(a_tuples, b_tuples))):
            return
        bad = next(
            s
            for c in self.coverings
            for s in (*c.a_sites, *c.b_partners)
            if s not in on_lattice
        )
        raise ValueError(f"covering site {bad} out of range [0, {self.lattice.site_count})")

    def __len__(self) -> int:
        return len(self.coverings)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.coverings], dtype=np.float64)

    @property
    def has_equal_weights(self) -> bool:
        w = self.weights
        return bool(np.all(w == w[0]))


def enumerate_gas(lattice: LatticeSpec) -> CoveringEnsemble:
    """All ``N!`` equal-weight pairings of a complete bipartite lattice.

    Coverings are emitted in lexicographic order of the partner
    permutation.  Raises :class:`CapExceeded` when ``N > GAS_MAX_N``.
    """
    if lattice.kind is not Kind.COMPLETE_BIPARTITE:
        raise ValueError("gas enumeration is defined on complete bipartite lattices")
    n = lattice.n_per_sublattice
    if n > GAS_MAX_N:
        raise CapExceeded(f"gas enumeration capped at N={GAS_MAX_N}; requested N={n}")
    a = lattice.a_sites()
    covs = tuple(
        DimerCovering(a_sites=a, b_partners=perm)
        for perm in permutations(lattice.b_sites())
    )
    return CoveringEnsemble(lattice=lattice, coverings=covs, variant=Variant.GAS)


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
    is_a = [lattice.sublattice_of(s) is Sublattice.A for s in range(n)]
    matched = [False] * n
    bond_stack: list[tuple[int, int]] = []
    found: list[DimerCovering] = []

    def lowest_unmatched(start: int) -> int | None:
        return next((s for s in range(start, n) if not matched[s]), None)

    def covering(bonds: list[tuple[int, int]]) -> DimerCovering:
        # nearest-neighbor bonds join A to B, so orienting them A-first and
        # sorting gives what from_pairs would, without re-validating
        pairs = sorted((s, t) if is_a[s] else (t, s) for s, t in bonds)
        return DimerCovering(
            a_sites=tuple(a for a, _ in pairs), b_partners=tuple(b for _, b in pairs)
        )

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
        found.append(covering(bond_stack))
        bond_stack.pop()
        matched[t] = False
    if not found:
        raise ValueError("lattice admits no nearest-neighbor perfect matching")
    return CoveringEnsemble(lattice=lattice, coverings=tuple(found), variant=Variant.LIQUID)


def custom_ensemble(
    lattice: LatticeSpec,
    pair_lists: Sequence[Iterable[tuple[int, int]]],
    weights: Sequence[float] | None = None,
) -> CoveringEnsemble:
    """Ensemble from explicit coverings; weights default to 1."""
    if weights is None:
        weights = [1.0] * len(pair_lists)
    if len(weights) != len(pair_lists):
        raise ValueError("one weight per covering required")
    covs = tuple(
        DimerCovering.from_pairs(lattice, pairs, weight=w)
        for pairs, w in zip(pair_lists, weights)
    )
    return CoveringEnsemble(lattice=lattice, coverings=covs, variant=Variant.CUSTOM)


# ----------------------------------------------------------------------
# serialization: integers for pairs are exact, weights are decimal floats

def ensemble_to_json(ensemble: CoveringEnsemble) -> str:
    doc = {
        "schema": 1,
        "lattice": lattice_to_config(ensemble.lattice),
        "variant": ensemble.variant.value,
        # JSON writes tuples as arrays: the same text as nested lists
        "coverings": [c.pairs for c in ensemble.coverings],
        "weights": [c.weight for c in ensemble.coverings],
    }
    return json.dumps(doc, sort_keys=True)


def ensemble_from_json(text: str) -> CoveringEnsemble:
    doc = json.loads(text)
    lattice = lattice_from_config(doc["lattice"])
    variant = Variant(doc["variant"])
    covs = tuple(
        DimerCovering.from_pairs(lattice, [tuple(p) for p in pairs], weight=w)
        for pairs, w in zip(doc["coverings"], doc["weights"])
    )
    return CoveringEnsemble(lattice=lattice, coverings=covs, variant=variant)
