import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PROPERTY_SETTINGS,
    bfs_distances,
    closed_form_a_sites,
    closed_form_distance,
    closed_form_generators,
    closed_form_max_distance,
    closed_form_neighbors,
)
from rvblab import (
    Boundary, CapExceeded, Kind, LatticeSpec, Sublattice, enumerate_gas, enumerate_liquid,
    interior_nn_bond,
)
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


class TestConstructorInput:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "square-grid", "rows": 4, "cols": 4, "n_per_sublattice": 3},
             "^a square-grid lattice takes no n_per_sublattice; got 3$"),
            ({"kind": "complete-bipartite", "n_per_sublattice": 2, "boundary": "periodic"},
             "^a complete-bipartite lattice takes no boundary; got <Boundary.PERIODIC"),
            ({"kind": "complete-bipartite", "n_per_sublattice": 2, "rows": 3},
             "^a complete-bipartite lattice takes no rows; got 3$"),
            ({"kind": "complete-bipartite", "n_per_sublattice": 2.5},
             "^lattice n_per_sublattice must be an integer, got 2.5$"),
            ({"kind": "square-grid", "rows": 2.0, "cols": 2},
             "^lattice rows must be an integer, got 2.0$"),
            ({"kind": "square-grid", "rows": True, "cols": 2},
             "^lattice rows must be an integer, got True$"),
            ({"kind": "square-grid", "rows": "2", "cols": 2},
             "^lattice rows must be an integer, got '2'$"),
            ({"kind": "square-grid", "rows": 2, "cols": None},
             "^lattice cols must be an integer, got None$"),
            ({"kind": "triangular", "rows": 2, "cols": 2}, "is not a valid Kind$"),
        ],
    )
    def test_bad_fields_rejected_in_one_line(self, fields, message):
        with pytest.raises(ValueError, match=message):
            LatticeSpec(**fields)

    def test_numpy_sizes_become_ints(self):
        lat = LatticeSpec.square_grid(np.int64(2), np.int32(4))
        assert lat == LatticeSpec.square_grid(2, 4)
        assert type(lat.rows) is int and type(lat.cols) is int
        assert type(LatticeSpec.complete_bipartite(np.uint8(3)).n_per_sublattice) is int

    @staticmethod
    @st.composite
    def _fields(draw):
        """Constructor fields, each valid for the kind or, one time in four, anything."""
        kind = draw(st.sampled_from(list(Kind)))
        grid = kind is Kind.SQUARE_GRID
        valid = {
            "rows": st.integers(1, 6) if grid else st.just(0),
            "cols": st.integers(1, 6) if grid else st.just(0),
            "n_per_sublattice": st.just(0) if grid else st.integers(1, 10**40),
            "boundary": st.sampled_from(list(Boundary)) if grid else st.just(Boundary.OPEN),
        }
        anything = st.one_of(
            st.integers(-1, 10**40),
            st.sampled_from([True, False, 2.0, 2.5, "2", None, np.int64(4), *Boundary]),
        )
        fields = {"kind": draw(st.sampled_from([kind, kind.value]))}
        for name, strategy in valid.items():
            fields[name] = draw(anything if draw(st.integers(0, 3)) == 0 else strategy)
        return fields

    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(fields=_fields())
    def test_config_roundtrip_of_every_lattice_that_constructs(self, fields):
        try:
            lat = LatticeSpec(**fields)
        except ValueError:
            return
        assert lattice_from_config(lattice_to_config(lat)) == lat
        # constructing is O(1): nothing above built the graph
        assert "_graph" not in vars(lat)


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
            # a lattice key of the other kind is refused, not dropped
            ({"kind": "square-grid", "rows": 2, "cols": 2, "n": 5},
             "^a square-grid lattice takes no n; got 5$"),
            ({"lattice": "square-grid", "rows": 2, "cols": 2, "n": "5"}, "takes no n; got '5'$"),
            ({"kind": "complete-bipartite", "n": 2, "rows": 3},
             "^a complete-bipartite lattice takes no rows; got 3$"),
            ({"kind": "complete-bipartite", "n": 2, "cols": 0}, "takes no cols; got 0$"),
            ({"kind": "complete-bipartite", "n": 2, "boundary": "periodic"},
             "^a complete-bipartite lattice takes no boundary; got 'periodic'$"),
            ({"kind": "complete-bipartite", "n": 2, "boundary": "open"}, "takes no boundary"),
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


class TestSymmetryGenerators:
    @pytest.mark.parametrize(
        "lat, count",
        [
            (LatticeSpec.square_grid(4, 4), 3),  # two reflections and the transpose
            (LatticeSpec.square_grid(4, 4, boundary="periodic"), 5),  # and two translations
            (LatticeSpec.square_grid(2, 4), 2),
            (LatticeSpec.square_grid(3, 4), 2),
            (LatticeSpec.square_grid(1, 6), 1),  # the row reflection is the identity
            (LatticeSpec.square_grid(2, 4, boundary="periodic"), 3),  # row shift = row reflection
        ],
        ids=["open44", "periodic44", "open24", "open34", "open16", "periodic24"],
    )
    def test_generators_are_lattice_automorphisms(self, lat, count):
        gens = lat.symmetry_generators()
        assert len(gens) == count
        assert len(set(gens)) == count
        n = lat.site_count
        bonds = set(lat.nn_bonds())
        for g in gens:
            assert sorted(g) == list(range(n))
            assert g != tuple(range(n))
            assert {tuple(sorted((g[i], g[j]))) for i, j in bonds} == bonds
            # every site changes sublattice, or none does
            assert len({lat.sublattice_of(s) is lat.sublattice_of(g[s]) for s in range(n)}) == 1

    def test_open_44_generators(self, grid44):
        row_reflection, col_reflection, transpose = grid44.symmetry_generators()
        assert row_reflection[grid44.index(0, 1)] == grid44.index(3, 1)
        assert col_reflection[grid44.index(0, 1)] == grid44.index(0, 2)
        assert transpose[grid44.index(0, 1)] == grid44.index(1, 0)

    def test_periodic_translations(self, grid44_periodic):
        *_, down, right = grid44_periodic.symmetry_generators()
        assert down[grid44_periodic.index(3, 2)] == grid44_periodic.index(0, 2)
        assert right[grid44_periodic.index(2, 3)] == grid44_periodic.index(2, 0)

    def test_gas_has_none(self):
        assert LatticeSpec.complete_bipartite(4).symmetry_generators() == ()


def _legal_lattices():
    grids = []
    for rows in range(1, 7):
        for cols in range(1, 7):
            for boundary in Boundary:
                try:
                    grids.append(LatticeSpec.square_grid(rows, cols, boundary))
                except ValueError:
                    pass
    return grids + [LatticeSpec.complete_bipartite(n) for n in range(1, 9)]


def _lattice_id(lat):
    if lat.kind is Kind.COMPLETE_BIPARTITE:
        return f"gas-{lat.n_per_sublattice}"
    return f"{lat.boundary.value}-{lat.rows}x{lat.cols}"


@pytest.mark.parametrize("lat", _legal_lattices(), ids=_lattice_id)
def test_bond_graph_matches_the_closed_forms(lat):
    # every legal grid up to 6x6 under both boundaries, and the gas to N = 8
    sites = range(lat.site_count)
    a_sites = closed_form_a_sites(lat)
    assert lat.a_sites() == a_sites
    assert lat.b_sites() == tuple(s for s in sites if s not in a_sites)
    assert [lat.sublattice_of(s) is Sublattice.A for s in sites] == [s in a_sites for s in sites]
    neighbors = [closed_form_neighbors(lat, s) for s in sites]
    assert [lat.neighbors(s) for s in sites] == neighbors
    assert lat.nn_bonds() == tuple((s, t) for s in sites for t in neighbors[s] if s < t)
    assert [[lat.distance(i, j) for j in sites] for i in sites] == [
        [closed_form_distance(lat, i, j) for j in sites] for i in sites
    ]
    assert lat.max_distance() == closed_form_max_distance(lat)
    assert lat.symmetry_generators() == closed_form_generators(lat)


def test_graph_queries_check_the_site(grid44):
    for query in (grid44.neighbors, grid44.sublattice_of, lambda s: grid44.distance(0, s)):
        with pytest.raises(ValueError, match=r"^site 16 out of range \[0, 16\)$"):
            query(16)


def test_the_caps_read_only_the_shape():
    # a graph built before the cap would take O(sites) time and memory
    gas = LatticeSpec.complete_bipartite(10**30)
    with pytest.raises(CapExceeded, match="capped at N=8"):
        enumerate_gas(gas)
    ladder = LatticeSpec.square_grid(2, 10**30)
    with pytest.raises(CapExceeded, match="stored pairs"):
        enumerate_liquid(ladder)
    assert "_graph" not in vars(gas) and "_graph" not in vars(ladder)
    assert gas.site_count == 2 * 10**30 and ladder.sublattice_size == 10**30
