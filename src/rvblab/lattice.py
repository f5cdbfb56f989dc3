"""Lattice geometries: square grids and complete bipartite graphs.

Sites are plain integers in ``[0, site_count)``.  Square grids are indexed
row-major (``index = row * cols + col``) and split into sublattices by the
checkerboard rule ``(row + col) % 2 == 0 -> A``; complete bipartite
lattices put the first ``n_per_sublattice`` indices in sublattice A and
the rest in B.

A ``LatticeSpec`` is an immutable shape, shared freely, and one bond
graph built from it on first use: the A/B split, the bonds, the
neighbour lists and the site symmetries (a grid's reflections, transpose
and translations; the gas has none).  Each kind has one private builder,
the only code that knows its geometry; every query reads the graph.
Distances are hop counts, from a table that breadth-first search fills
on first use in O(sites x bonds).  Construction checks the shape in O(1)
and the enumeration caps read only the shape, so an oversized lattice
is refused before any graph is built.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple


def site_indices(sites: Iterable[object]) -> tuple[int, ...]:
    """``sites`` as ints; ValueError unless each is an integer (NumPy's included).

    Booleans are refused too: ``operator.index(True)`` is 1, but a flag is
    not a site.
    """
    sites = tuple(sites)
    try:
        if bool in map(type, sites):
            raise TypeError
        return tuple(map(operator.index, sites))
    except TypeError:
        raise ValueError(f"sites must be integers, got {sites}") from None


def _size(name: str, value: object) -> int:
    try:
        return site_indices((value,))[0]
    except ValueError:
        raise ValueError(f"lattice {name} must be an integer, got {value!r}") from None


class Kind(enum.Enum):
    SQUARE_GRID = "square-grid"
    COMPLETE_BIPARTITE = "complete-bipartite"


class Boundary(enum.Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class Sublattice(enum.Enum):
    A = "A"
    B = "B"


class _Graph(NamedTuple):
    sublattice: tuple[Sublattice, ...]  # of each site
    bonds: tuple[tuple[int, int], ...]  # (i, j) with i < j, ascending
    neighbors: tuple[tuple[int, ...], ...]  # of each site, ascending
    generators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LatticeSpec:
    """Immutable description of a bipartite lattice: a shape and its lazy bond graph.

    Use :meth:`square_grid` or :meth:`complete_bipartite`; fields that do not
    apply must keep their defaults.  Construction and the enumeration caps read
    the shape; the graph and its hop table (BFS, O(sites x bonds)) come on first use.
    """

    kind: Kind
    rows: int = 0
    cols: int = 0
    n_per_sublattice: int = 0
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self) -> None:
        # accept enum value strings so "periodic" cannot silently mean open
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        for name in ("rows", "cols", "n_per_sublattice"):
            object.__setattr__(self, name, _size(name, getattr(self, name)))
        if self.kind is Kind.SQUARE_GRID:
            unused: tuple[str, ...] = ("n_per_sublattice",)
            if self.rows < 1 or self.cols < 1:
                raise ValueError("grid dimensions must be at least 1x1")
            if (self.rows * self.cols) % 2:
                raise ValueError(
                    "site count must be even for equal sublattices; "
                    f"got {self.rows}x{self.cols}"
                )
            # wrap in a dimension of odd size > 1 joins same-color sites
            odd = any(d > 1 and d % 2 for d in (self.rows, self.cols))
            if odd and self.boundary is Boundary.PERIODIC:
                raise ValueError(
                    f"periodic boundaries need even rows and cols; got {self.rows}x{self.cols}"
                )
        else:
            unused = ("rows", "cols", "boundary")
            if self.n_per_sublattice < 1:
                raise ValueError("complete bipartite lattice needs n >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in unused and value != f.default:
                raise ValueError(f"a {self.kind.value} lattice takes no {f.name}; got {value!r}")

    @classmethod
    def square_grid(
        cls, rows: int, cols: int, boundary: Boundary = Boundary.OPEN
    ) -> "LatticeSpec":
        return cls(kind=Kind.SQUARE_GRID, rows=rows, cols=cols, boundary=boundary)

    @classmethod
    def complete_bipartite(cls, n: int) -> "LatticeSpec":
        return cls(kind=Kind.COMPLETE_BIPARTITE, n_per_sublattice=n)

    # ------------------------------------------------------------------
    # the shape

    @property
    def site_count(self) -> int:
        if self.kind is Kind.SQUARE_GRID:
            return self.rows * self.cols
        return 2 * self.n_per_sublattice

    @property
    def sublattice_size(self) -> int:
        """Number of sites in each sublattice (half the site count)."""
        return self.site_count // 2

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.site_count:
            raise ValueError(f"site {site} out of range [0, {self.site_count})")

    def coords(self, site: int) -> tuple[int, int]:
        """(row, col) of a grid site."""
        if self.kind is not Kind.SQUARE_GRID:
            raise ValueError("coords are defined for square grids only")
        self._check_site(site)
        return divmod(site, self.cols)

    def index(self, row: int, col: int) -> int:
        if self.kind is not Kind.SQUARE_GRID:
            raise ValueError("index is defined for square grids only")
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coords ({row}, {col}) out of range")
        return row * self.cols + col

    # ------------------------------------------------------------------
    # the bond graph

    @cached_property
    def _graph(self) -> _Graph:
        in_a, bonds, generators = _BUILDERS[self.kind](self)
        sites = range(self.site_count)
        adjacent: list[list[int]] = [[] for _ in sites]
        for i, j in bonds:
            adjacent[i].append(j)
            adjacent[j].append(i)
        sublattice = tuple(Sublattice.A if s in in_a else Sublattice.B for s in sites)
        neighbors = tuple(tuple(sorted(adj)) for adj in adjacent)
        return _Graph(sublattice, tuple(sorted(bonds)), neighbors, generators)

    @cached_property
    def _hops(self) -> tuple[tuple[int, ...], ...]:
        """Hop counts between every two sites, by breadth-first search from each."""
        table = []
        for source in range(self.site_count):
            hops, order = [-1] * self.site_count, [source]
            hops[source] = 0
            for s in order:  # appending while iterating walks breadth-first
                for t in self._graph.neighbors[s]:
                    if hops[t] < 0:
                        hops[t] = hops[s] + 1
                        order.append(t)
            table.append(tuple(hops))
        return tuple(table)

    def sublattice_of(self, site: int) -> Sublattice:
        self._check_site(site)
        return self._graph.sublattice[site]

    def a_sites(self) -> tuple[int, ...]:
        return tuple(s for s, x in enumerate(self._graph.sublattice) if x is Sublattice.A)

    def b_sites(self) -> tuple[int, ...]:
        return tuple(s for s, x in enumerate(self._graph.sublattice) if x is Sublattice.B)

    def neighbors(self, site: int) -> tuple[int, ...]:
        """Nearest neighbors of ``site``, ascending, self-loops dropped."""
        self._check_site(site)
        return self._graph.neighbors[site]

    def nn_bonds(self) -> tuple[tuple[int, int], ...]:
        """All nearest-neighbor bonds as (i, j) with i < j, ascending."""
        return self._graph.bonds

    def distance(self, i: int, j: int) -> int:
        """Graph distance between two sites: the fewest bonds joining them."""
        self._check_site(i)
        self._check_site(j)
        return self._hops[i][j]

    def equidistant_class(self, site: int, r: int) -> tuple[int, ...]:
        """Opposite-sublattice sites at graph distance ``r``, ascending."""
        if r <= 0:
            raise ValueError("distance r must be positive")
        own, sublattice = self.sublattice_of(site), self._graph.sublattice
        hops = self._hops[site]
        return tuple(t for t, d in enumerate(hops) if d == r and sublattice[t] is not own)

    def equidistant_count(self, site: int, r: int) -> int:
        """Number of opposite-sublattice sites at graph distance ``r``."""
        return len(self.equidistant_class(site, r))

    def max_distance(self) -> int:
        """Largest pairwise graph distance on this lattice."""
        return max(map(max, self._hops))

    def symmetry_generators(self) -> tuple[tuple[int, ...], ...]:
        """Site permutations that generate a symmetry group of the lattice.

        Entry ``s`` of a permutation is the image of site ``s``; each maps
        bonds to bonds, so it maps the covering set onto itself.  A grid
        has its row and column reflections, its transpose when square and
        its two unit translations when periodic, identities and repeats
        dropped; the gas has none.
        """
        return self._graph.generators


def _grid_graph(lattice: LatticeSpec):
    """A/B split, bonds and generators of a square grid."""
    rows, cols = lattice.rows, lattice.cols
    wrap = lattice.boundary is Boundary.PERIODIC
    sites = range(rows * cols)
    bonds = set()
    for s in sites:
        row, col = divmod(s, cols)
        for r, c in ((row + 1, col), (row, col + 1)):
            t = r % rows * cols + c % cols
            # a periodic dimension of size 1 or 2 loops back or repeats a bond
            if (wrap or (r < rows and c < cols)) and t != s:
                bonds.add((min(s, t), max(s, t)))
    maps = [lambda r, c: (rows - 1 - r, c), lambda r, c: (r, cols - 1 - c)]
    if rows == cols:
        maps.append(lambda r, c: (c, r))
    if wrap:
        maps += [lambda r, c: ((r + 1) % rows, c), lambda r, c: (r, (c + 1) % cols)]
    perms = (tuple(lattice.index(*f(*divmod(s, cols))) for s in sites) for f in maps)
    generators = tuple(p for p in dict.fromkeys(perms) if p != tuple(sites))
    return {s for s in sites if sum(divmod(s, cols)) % 2 == 0}, bonds, generators


def _gas_graph(lattice: LatticeSpec):
    """A/B split, bonds and generators of K_{N,N}: every A site bonds to every B site."""
    n = lattice.n_per_sublattice
    return range(n), [(a, b) for a in range(n) for b in range(n, 2 * n)], ()


_BUILDERS = {Kind.SQUARE_GRID: _grid_graph, Kind.COMPLETE_BIPARTITE: _gas_graph}


def interior_nn_bond(lattice: LatticeSpec) -> tuple[int, int]:
    """Pick a deterministic nearest-neighbor bond, as interior as possible.

    Bonds are ranked by the smaller coordination number of their two
    endpoints (higher is better), then lexicographically.  On an open 4x4
    grid this selects ((1,1), (1,2)); on periodic grids every bond ties
    and the lexicographically first wins.  On a complete bipartite
    lattice every bond ties too, so the gas gets ``(0, n)``: site 0 and
    the first site of sublattice B.
    """

    def rank(bond: tuple[int, int]) -> tuple[int, int, int, int]:
        degs = sorted(len(lattice.neighbors(s)) for s in bond)
        return (-degs[0], -degs[1], bond[0], bond[1])

    return min(lattice.nn_bonds(), key=rank)


def _config_size(cfg: Mapping[str, object], key: str) -> int:
    value = cfg[key]
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"lattice {key} must be an integer, got {value!r}")


def lattice_from_config(cfg: Mapping[str, object]) -> LatticeSpec:
    """Build a LatticeSpec from a flat mapping of config keys.

    Reads what :func:`lattice_to_config` writes: ``kind`` (or the CLI's
    ``lattice``), then ``rows``, ``cols`` and ``boundary`` (default open)
    for a grid or ``n`` for a complete bipartite lattice; keys that are
    not lattice keys are ignored and ``None`` means absent.  Lattice keys
    of the other kind are refused.  Sizes may be ints or decimal strings.
    Every bad input raises a one-line ``ValueError``.
    """
    kind = cfg.get("kind", cfg.get("lattice"))
    if kind is None:
        raise ValueError("missing lattice kind")
    try:
        kind = Kind(kind)
    except ValueError:
        raise ValueError(f"unknown lattice kind {kind!r}") from None
    for key in ("n",) if kind is Kind.SQUARE_GRID else ("rows", "cols", "boundary"):
        if cfg.get(key) is not None:
            raise ValueError(f"a {kind.value} lattice takes no {key}; got {cfg[key]!r}")
    if kind is Kind.SQUARE_GRID:
        if cfg.get("rows") is None or cfg.get("cols") is None:
            raise ValueError("square-grid lattice needs rows and cols")
        boundary = cfg.get("boundary")
        return LatticeSpec.square_grid(
            _config_size(cfg, "rows"),
            _config_size(cfg, "cols"),
            boundary=Boundary.OPEN if boundary is None else boundary,
        )
    if cfg.get("n") is None:
        raise ValueError("complete-bipartite lattice needs n")
    return LatticeSpec.complete_bipartite(_config_size(cfg, "n"))


def lattice_to_config(lattice: LatticeSpec) -> dict[str, object]:
    """Inverse of :func:`lattice_from_config`; JSON-friendly dict."""
    if lattice.kind is Kind.SQUARE_GRID:
        return {
            "kind": lattice.kind.value,
            "rows": lattice.rows,
            "cols": lattice.cols,
            "boundary": lattice.boundary.value,
        }
    return {"kind": lattice.kind.value, "n": lattice.n_per_sublattice}
