import numpy as np
import pytest

from conftest import bfs_distances
from rvblab import Boundary, Kind, LatticeSpec, Sublattice, interior_nn_bond
from rvblab.lattice import lattice_from_config, lattice_to_config


class TestConstruction:
    def test_square_grid_fields(self, grid23):
        assert grid23.kind is Kind.SQUARE_GRID
        assert grid23.site_count == 6
        assert grid23.sublattice_size == 3

    def test_complete_bipartite_fields(self):
        lat = LatticeSpec.complete_bipartite(4)
        assert lat.kind is Kind.COMPLETE_BIPARTITE
        assert lat.site_count == 8
        assert lat.sublattice_size == 4

    @pytest.mark.parametrize("rows,cols", [(3, 3), (1, 3), (3, 5)])
    def test_odd_site_count_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            LatticeSpec.square_grid(rows, cols)

    @pytest.mark.parametrize("rows,cols", [(2, 3), (2, 5), (3, 4)])
    def test_periodic_needs_even_dims(self, rows, cols):
        with pytest.raises(ValueError):
            LatticeSpec.square_grid(rows, cols, boundary="periodic")

    def test_periodic_ring_allowed(self):
        # a single periodic row wraps into a ring; size-1 dimensions are inert
        lat = LatticeSpec.square_grid(1, 4, boundary="periodic")
        assert len(lat.neighbors(0)) == 2

    def test_periodic_even_dims_ok(self):
        lat = LatticeSpec.square_grid(2, 4, boundary="periodic")
        assert lat.boundary is Boundary.PERIODIC

    def test_zero_sublattice_rejected(self):
        with pytest.raises(ValueError):
            LatticeSpec.complete_bipartite(0)


class TestIndexing:
    def test_coords_index_roundtrip(self, grid44):
        for site in range(grid44.site_count):
            assert grid44.index(*grid44.coords(site)) == site

    def test_row_major_order(self, grid23):
        assert grid23.coords(0) == (0, 0)
        assert grid23.coords(2) == (0, 2)
        assert grid23.coords(3) == (1, 0)

    def test_sublattice_checkerboard(self, grid44):
        for site in range(16):
            row, col = grid44.coords(site)
            expected = Sublattice.A if (row + col) % 2 == 0 else Sublattice.B
            assert grid44.sublattice_of(site) is expected

    def test_bipartite_split(self):
        lat = LatticeSpec.complete_bipartite(3)
        assert lat.a_sites() == (0, 1, 2)
        assert lat.b_sites() == (3, 4, 5)

    def test_sublattice_lists_partition(self, grid44):
        sites = sorted(grid44.a_sites() + grid44.b_sites())
        assert sites == list(range(16))
        assert len(grid44.a_sites()) == len(grid44.b_sites())


class TestNeighbors:
    def test_open_corner_degree(self, grid44):
        assert len(grid44.neighbors(0)) == 2

    def test_open_interior_degree(self, grid44):
        assert len(grid44.neighbors(5)) == 4

    def test_periodic_uniform_degree(self, grid44_periodic):
        for site in range(16):
            assert len(grid44_periodic.neighbors(site)) == 4

    def test_periodic_two_wide_dedup(self):
        # wrap-around neighbors that coincide must not be double counted
        lat = LatticeSpec.square_grid(2, 4, boundary="periodic")
        assert len(lat.neighbors(0)) == 3

    def test_neighbors_symmetric(self, grid44_periodic):
        for site in range(16):
            for other in grid44_periodic.neighbors(site):
                assert site in grid44_periodic.neighbors(other)

    def test_complete_bipartite_neighbors(self):
        lat = LatticeSpec.complete_bipartite(3)
        assert lat.neighbors(0) == (3, 4, 5)
        assert lat.neighbors(4) == (0, 1, 2)

    def test_nn_bonds_count_open(self, grid44):
        # 4x4 open grid: 2 * 4 * 3 horizontal + vertical edges
        assert len(grid44.nn_bonds()) == 24

    def test_nn_bonds_count_periodic(self, grid44_periodic):
        assert len(grid44_periodic.nn_bonds()) == 32

    def test_nn_bonds_cross_sublattice(self, grid44):
        for i, j in grid44.nn_bonds():
            assert i < j
            assert grid44.sublattice_of(i) is not grid44.sublattice_of(j)


class TestDistance:
    def test_manhattan_open(self, grid44):
        assert grid44.distance(0, 15) == 6
        assert grid44.distance(0, 3) == 3

    def test_min_image_periodic(self, grid44_periodic):
        assert grid44_periodic.distance(0, 3) == 1
        assert grid44_periodic.distance(0, 15) == 2

    def test_distance_matches_graph_distance(self, grid44, grid44_periodic):
        # Manhattan (and its min-image form) equals hop count on grids
        for lat in (grid44, grid44_periodic):
            for start in range(lat.site_count):
                hops = bfs_distances(lat, start)
                for site, d in hops.items():
                    assert lat.distance(start, site) == d

    def test_complete_bipartite_distance(self):
        lat = LatticeSpec.complete_bipartite(3)
        assert lat.distance(0, 0) == 0
        assert lat.distance(0, 4) == 1
        assert lat.distance(0, 2) == 2

    def test_equidistant_count_matches_bfs(self, grid44, grid44_periodic):
        for lat in (grid44, grid44_periodic):
            for anchor in range(lat.site_count):
                hops = bfs_distances(lat, anchor)
                for r in range(1, lat.max_distance() + 1):
                    expected = sum(
                        1
                        for site, d in hops.items()
                        if d == r
                        and lat.sublattice_of(site) is not lat.sublattice_of(anchor)
                    )
                    assert lat.equidistant_count(anchor, r) == expected

    def test_equidistant_zero_for_even_r(self, grid44):
        # opposite-sublattice sites sit at odd Manhattan distance only
        for r in (2, 4, 6):
            assert grid44.equidistant_count(5, r) == 0

    def test_equidistant_counts_sum_to_sublattice(self, grid44):
        total = sum(
            grid44.equidistant_count(5, r) for r in range(1, grid44.max_distance() + 1)
        )
        assert total == grid44.sublattice_size

    def test_max_distance(self, grid44, grid44_periodic):
        assert grid44.max_distance() == 6
        assert grid44_periodic.max_distance() == 4


class TestInteriorBond:
    def test_open_44_prefers_center(self, grid44):
        bond = interior_nn_bond(grid44)
        assert bond == (5, 6)

    def test_bond_is_nn(self, grid23, grid44, grid44_periodic):
        for lat in (grid23, grid44, grid44_periodic):
            bond = interior_nn_bond(lat)
            assert bond in lat.nn_bonds()

    def test_deterministic(self, grid44):
        assert interior_nn_bond(grid44) == interior_nn_bond(grid44)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gas_bond_is_first_cross_pair(self, n):
        # the CLI and the bounds anchor the gas at site 0 through this bond
        assert interior_nn_bond(LatticeSpec.complete_bipartite(n)) == (0, n)


class TestConfigRoundtrip:
    def test_square_grid_roundtrip(self, grid44_periodic):
        doc = lattice_to_config(grid44_periodic)
        assert lattice_from_config(doc) == grid44_periodic

    def test_complete_bipartite_roundtrip(self):
        lat = LatticeSpec.complete_bipartite(5)
        assert lattice_from_config(lattice_to_config(lat)) == lat

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lattice_from_config({"kind": "triangular", "rows": 2, "cols": 2})

    def test_cli_keys_and_decimal_strings(self, grid44_periodic):
        # the CLI passes its whole namespace: "lattice" for the kind, None
        # for every flag not given, sizes as ints or strings
        doc = {"lattice": "square-grid", "rows": "4", "cols": 4, "boundary": "periodic",
               "n": None, "variant": None}
        assert lattice_from_config(doc) == grid44_periodic
        doc = {"lattice": "square-grid", "rows": 2, "cols": "3", "boundary": None}
        assert lattice_from_config(doc) == LatticeSpec.square_grid(2, 3)
        doc = {"lattice": "complete-bipartite", "n": "3", "rows": None}
        assert lattice_from_config(doc) == LatticeSpec.complete_bipartite(3)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"kind": "grid", "rows": 2, "cols": 2}, "unknown lattice kind 'grid'"),
            ({"kind": "square", "rows": 2, "cols": 2}, "unknown lattice kind 'square'"),
            ({"kind": "Square-Grid", "rows": 2, "cols": 2}, "unknown lattice kind"),
            ({"kind": "complete", "n": 2}, "unknown lattice kind 'complete'"),
            ({"kind": "bipartite", "n": 2}, "unknown lattice kind 'bipartite'"),
            ({"kind": "complete-bipartite", "n_per_sublattice": 2}, "needs n"),
            ({"rows": 2, "cols": 2}, "missing lattice kind"),
            ({"kind": "square-grid", "cols": 2}, "square-grid lattice needs rows and cols"),
            ({"kind": "square-grid", "rows": None, "cols": 2}, "needs rows and cols"),
            ({"kind": "square-grid", "rows": 2.9, "cols": 2}, "rows must be an integer"),
            ({"kind": "square-grid", "rows": 2, "cols": "2.0"}, "cols must be an integer"),
            ({"kind": "square-grid", "rows": 2, "cols": 2, "boundary": "Open"}, "Boundary"),
            ({"kind": "square-grid", "rows": 2, "cols": 2, "boundary": ""}, "Boundary"),
            ({"kind": "complete-bipartite", "n": True}, "n must be an integer"),
            ({"kind": "complete-bipartite", "n": "abc"}, "n must be an integer"),
            ({"kind": "complete-bipartite", "n": 0}, "n >= 1"),
        ],
    )
    def test_bad_documents_rejected_in_one_line(self, doc, message):
        with pytest.raises(ValueError, match=message) as info:
            lattice_from_config(doc)
        assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "lat",
    [
        LatticeSpec.square_grid(4, 4),
        LatticeSpec.square_grid(4, 4, boundary="periodic"),
        LatticeSpec.complete_bipartite(4),
    ],
    ids=["open44", "periodic44", "gas4"],
)
def test_equidistant_class_matches_brute_force(lat):
    for anchor in range(lat.site_count):
        own = lat.sublattice_of(anchor)
        for r in range(1, lat.max_distance() + 2):
            brute = [
                t
                for t in range(lat.site_count)
                if t != anchor and lat.sublattice_of(t) is not own and lat.distance(anchor, t) == r
            ]
            assert lat.equidistant_class(anchor, r) == tuple(brute)
            assert lat.equidistant_count(anchor, r) == len(brute)


def test_equidistant_count_plain_values(grid44):
    # central-ish site 5 at (1,1): four nearest neighbors, and the rest of
    # the opposite sublattice sits at Manhattan distance 3 on the open grid
    assert grid44.equidistant_count(5, 1) == 4
    assert grid44.equidistant_count(5, 3) == 4
    assert grid44.equidistant_count(5, 5) == 0
    counts = [grid44.equidistant_count(5, r) for r in (1, 3, 5)]
    assert sum(counts) == grid44.sublattice_size
    assert np.count_nonzero(counts) == 2
