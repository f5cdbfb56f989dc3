"""Lattice geometries: square grids and complete bipartite graphs.

Sites are plain integers in ``[0, site_count)``.  Square grids are indexed
row-major (``index = row * cols + col``) and split into sublattices by the
checkerboard rule ``(row + col) % 2 == 0 -> A``; complete bipartite
lattices put the first ``n_per_sublattice`` indices in sublattice A and
the rest in B.  Distances are graph distances: Manhattan on grids (with
minimum-image wrap when periodic), and 1 or 2 hops on complete bipartite
graphs.  Grids also name the generators of their reflection, transpose
and translation symmetries; the gas names none.

``LatticeSpec`` is immutable and every query is a pure function of it, so
instances can be shared freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping


class Kind(enum.Enum):
    SQUARE_GRID = "square-grid"
    COMPLETE_BIPARTITE = "complete-bipartite"


class Boundary(enum.Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class Sublattice(enum.Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class LatticeSpec:
    """Immutable description of a bipartite lattice.

    Use :meth:`square_grid` or :meth:`complete_bipartite` instead of the
    raw constructor; they fill in the fields that do not apply.
    """

    kind: Kind
    rows: int = 0
    cols: int = 0
    n_per_sublattice: int = 0
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self) -> None:
        # accept enum value strings so "periodic" cannot silently mean open
        if not isinstance(self.kind, Kind):
            object.__setattr__(self, "kind", Kind(self.kind))
        if not isinstance(self.boundary, Boundary):
            object.__setattr__(self, "boundary", Boundary(self.boundary))
        if self.kind is Kind.SQUARE_GRID:
            if self.rows < 1 or self.cols < 1:
                raise ValueError("grid dimensions must be at least 1x1")
            if (self.rows * self.cols) % 2:
                raise ValueError(
                    "site count must be even for equal sublattices; "
                    f"got {self.rows}x{self.cols}"
                )
            if self.boundary is Boundary.PERIODIC:
                # wrap in a dimension of odd size > 1 joins same-color sites
                for d in (self.rows, self.cols):
                    if d > 1 and d % 2:
                        raise ValueError(
                            "periodic boundaries need even rows and cols; "
                            f"got {self.rows}x{self.cols}"
                        )
        elif self.kind is Kind.COMPLETE_BIPARTITE:
            if self.n_per_sublattice < 1:
                raise ValueError("complete bipartite lattice needs n >= 1")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @classmethod
    def square_grid(
        cls, rows: int, cols: int, boundary: Boundary = Boundary.OPEN
    ) -> "LatticeSpec":
        return cls(kind=Kind.SQUARE_GRID, rows=rows, cols=cols, boundary=boundary)

    @classmethod
    def complete_bipartite(cls, n: int) -> "LatticeSpec":
        return cls(kind=Kind.COMPLETE_BIPARTITE, n_per_sublattice=n)

    # ------------------------------------------------------------------
    # basic queries

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

    def sublattice_of(self, site: int) -> Sublattice:
        self._check_site(site)
        if self.kind is Kind.SQUARE_GRID:
            row, col = divmod(site, self.cols)
            return Sublattice.A if (row + col) % 2 == 0 else Sublattice.B
        return Sublattice.A if site < self.n_per_sublattice else Sublattice.B

    def a_sites(self) -> tuple[int, ...]:
        return tuple(
            s for s in range(self.site_count) if self.sublattice_of(s) is Sublattice.A
        )

    def b_sites(self) -> tuple[int, ...]:
        return tuple(
            s for s in range(self.site_count) if self.sublattice_of(s) is Sublattice.B
        )

    # ------------------------------------------------------------------
    # adjacency and distance

    def neighbors(self, site: int) -> tuple[int, ...]:
        """Nearest neighbors of ``site``, ascending, self-loops dropped."""
        self._check_site(site)
        if self.kind is Kind.COMPLETE_BIPARTITE:
            n = self.n_per_sublattice
            return tuple(range(n, 2 * n)) if site < n else tuple(range(n))
        row, col = divmod(site, self.cols)
        out: set[int] = set()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if self.boundary is Boundary.PERIODIC:
                r %= self.rows
                c %= self.cols
            elif not (0 <= r < self.rows and 0 <= c < self.cols):
                continue
            idx = r * self.cols + c
            if idx != site:
                out.add(idx)
        return tuple(sorted(out))

    def nn_bonds(self) -> tuple[tuple[int, int], ...]:
        """All nearest-neighbor bonds as (i, j) with i < j, ascending."""
        bonds = set()
        for s in range(self.site_count):
            for t in self.neighbors(s):
                bonds.add((min(s, t), max(s, t)))
        return tuple(sorted(bonds))

    def distance(self, i: int, j: int) -> int:
        """Graph distance between two sites."""
        self._check_site(i)
        self._check_site(j)
        if self.kind is Kind.COMPLETE_BIPARTITE:
            if i == j:
                return 0
            return 1 if self.sublattice_of(i) is not self.sublattice_of(j) else 2
        ri, ci = divmod(i, self.cols)
        rj, cj = divmod(j, self.cols)
        dr = abs(ri - rj)
        dc = abs(ci - cj)
        if self.boundary is Boundary.PERIODIC:
            dr = min(dr, self.rows - dr)
            dc = min(dc, self.cols - dc)
        return dr + dc

    def equidistant_class(self, site: int, r: int) -> tuple[int, ...]:
        """Opposite-sublattice sites at graph distance ``r``, ascending."""
        if r <= 0:
            raise ValueError("distance r must be positive")
        own = self.sublattice_of(site)
        return tuple(
            t
            for t in range(self.site_count)
            if t != site and self.sublattice_of(t) is not own and self.distance(site, t) == r
        )

    def equidistant_count(self, site: int, r: int) -> int:
        """Number of opposite-sublattice sites at graph distance ``r``."""
        return len(self.equidistant_class(site, r))

    def max_distance(self) -> int:
        """Largest pairwise graph distance on this lattice."""
        if self.kind is Kind.COMPLETE_BIPARTITE:
            return 1 if self.n_per_sublattice == 1 else 2
        if self.boundary is Boundary.PERIODIC:
            return self.rows // 2 + self.cols // 2
        return (self.rows - 1) + (self.cols - 1)

    def symmetry_generators(self) -> tuple[tuple[int, ...], ...]:
        """Site permutations that generate a symmetry group of the grid.

        Entry ``s`` of a permutation is the image of site ``s``.  The
        generators are the row reflection, the column reflection, the
        transpose when rows = cols and the two unit translations when
        periodic, with identities and repeats dropped.  Each one maps
        bonds to bonds, so it maps the covering set onto itself.  The gas
        gets none.
        """
        if self.kind is not Kind.SQUARE_GRID:
            return ()
        rows, cols = self.rows, self.cols
        maps = [lambda r, c: (rows - 1 - r, c), lambda r, c: (r, cols - 1 - c)]
        if rows == cols:
            maps.append(lambda r, c: (c, r))
        if self.boundary is Boundary.PERIODIC:
            maps += [lambda r, c: ((r + 1) % rows, c), lambda r, c: (r, (c + 1) % cols)]
        identity = tuple(range(self.site_count))
        perms = (
            tuple(self.index(*f(*divmod(s, cols))) for s in identity) for f in maps
        )
        return tuple(p for p in dict.fromkeys(perms) if p != identity)


def interior_nn_bond(lattice: LatticeSpec) -> tuple[int, int]:
    """Pick a deterministic nearest-neighbor bond, as interior as possible.

    Bonds are ranked by the smaller coordination number of their two
    endpoints (higher is better), then lexicographically.  On an open 4x4
    grid this selects ((1,1), (1,2)); on periodic grids every bond ties
    and the lexicographically first wins.  On a complete bipartite
    lattice every bond ties too, so the gas gets ``(0, n)``: site 0 and
    the first site of sublattice B.
    """
    bonds = lattice.nn_bonds()
    if not bonds:
        raise ValueError("lattice has no nearest-neighbor bonds")

    def rank(bond: tuple[int, int]) -> tuple[int, int, int, int]:
        degs = sorted(len(lattice.neighbors(s)) for s in bond)
        return (-degs[0], -degs[1], bond[0], bond[1])

    return min(bonds, key=rank)


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
    for a grid or ``n`` for a complete bipartite lattice; other keys are
    ignored and ``None`` means absent.  Sizes may be ints or decimal
    strings.  Every bad input raises a one-line ``ValueError``.
    """
    kind = cfg.get("kind", cfg.get("lattice"))
    if kind == Kind.SQUARE_GRID.value:
        if cfg.get("rows") is None or cfg.get("cols") is None:
            raise ValueError("square-grid lattice needs rows and cols")
        boundary = cfg.get("boundary")
        return LatticeSpec.square_grid(
            _config_size(cfg, "rows"),
            _config_size(cfg, "cols"),
            boundary=Boundary.OPEN if boundary is None else boundary,
        )
    if kind == Kind.COMPLETE_BIPARTITE.value:
        if cfg.get("n") is None:
            raise ValueError("complete-bipartite lattice needs n")
        return LatticeSpec.complete_bipartite(_config_size(cfg, "n"))
    if kind is None:
        raise ValueError("missing lattice kind")
    raise ValueError(f"unknown lattice kind {kind!r}")


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
