import numpy as np
import pytest

from conftest import (
    _loop_labels_oracle,
    covering_orbits_oracle,
    loop_formula_scan_oracle,
    partner_matrix_oracle,
)
from rvblab import (
    CapExceeded,
    LatticeSpec,
    assemble,
    custom_ensemble,
    ensemble_from_json,
    ensemble_to_json,
    enumerate_gas,
    enumerate_liquid,
    extract_werner_p,
    inner,
    loop_formula_p,
    loop_formula_scan,
    reduced_density_matrix,
    same_sublattice_scan,
    singlet_product,
)
from rvblab import loopgas
from rvblab.loopgas import (
    MAX_GRAPH_PAIRS,
    _covering_orbits,
    _kept_generators,
    _partner_matrix,
    _row_loops,
)


def _loop_sizes(labels):
    """Site count of each loop, from one row of ``_row_loops`` labels."""
    return sorted(np.bincount(labels)[np.unique(labels)].tolist())


class TestTransitionGraph:
    """The loop labels of ``_row_loops`` on the transition graphs of covering pairs."""

    def test_identical_coverings_all_degenerate(self, liquid44):
        labels, counts = _row_loops(_partner_matrix(liquid44), 0)
        assert counts[0] == 8
        assert _loop_sizes(labels[0]) == [2] * 8

    def test_plaquette_flip_single_loop(self, grid44):
        # two coverings differing by one flipped plaquette share all other dimers
        liquid = enumerate_liquid(grid44)
        base = liquid.coverings[0]
        flipped = None
        for l, other in enumerate(liquid.coverings[1:], start=1):
            diff = [p for p in other.pairs if p not in base.pairs]
            if len(diff) == 2:
                flipped = l
                break
        assert flipped is not None
        labels, counts = _row_loops(_partner_matrix(liquid), 0)
        assert counts[flipped] == 7
        assert _loop_sizes(labels[flipped]) == [2] * 6 + [4]

    def test_loops_partition_sites(self, liquid23):
        # each site carries the smallest site of its loop, and the loops are
        # the ones the site-by-site walk finds
        partners = _partner_matrix(liquid23)
        for k in range(len(liquid23)):
            labels, counts = _row_loops(partners, k)
            for l, row in enumerate(labels):
                walk, walk_count = _loop_labels_oracle(partners[k], partners[l])
                assert counts[l] == walk_count
                assert np.array_equal(row[:, None] == row, walk[:, None] == walk)
                for site, label in enumerate(row):
                    assert label == min(np.flatnonzero(row == label)), (k, l, site)

    def test_loops_have_even_length(self, liquid24):
        partners = _partner_matrix(liquid24)
        for k in range(len(liquid24)):
            labels, _ = _row_loops(partners, k)
            for row in labels:
                sizes = _loop_sizes(row)
                assert all(size % 2 == 0 and size >= 2 for size in sizes)
                assert sum(sizes) == 8

    def test_overlap_counts_loops(self, liquid23):
        # |<c_k|c_l>| = 2^(L - N) with L loops over N pairs
        states = [singlet_product(c) for c in liquid23.coverings]
        n_pairs = 3
        partners = _partner_matrix(liquid23)
        for i in range(len(liquid23)):
            _, counts = _row_loops(partners, i)
            for j, count in enumerate(counts):
                expected = 2.0 ** (int(count) - n_pairs)
                got = inner(states[i], states[j])
                assert got == pytest.approx(expected, abs=1e-13)
                assert got > 0


class TestLoopFormula:
    @pytest.mark.parametrize("fixture", ["liquid22", "liquid23", "liquid44"])
    def test_matches_state_vector_route(self, fixture, request):
        ensemble = request.getfixturevalue(fixture)
        state = assemble(ensemble)
        p_matrix = loop_formula_scan(ensemble)
        n = ensemble.lattice.site_count
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                dm = reduced_density_matrix(state, (i, j))
                worst = max(worst, abs(p_matrix[i, j] - extract_werner_p(dm).p))
        assert worst < 1e-12

    def test_matches_on_gas(self, gas2, gas_state2):
        p_matrix = loop_formula_scan(gas2)
        dm = reduced_density_matrix(gas_state2, (0, 2))
        assert p_matrix[0, 2] == pytest.approx(extract_werner_p(dm).p, abs=1e-13)

    def test_single_covering_pure_dimers(self, grid22):
        liquid = enumerate_liquid(grid22)
        single = custom_ensemble(grid22, [liquid.coverings[0].pairs])
        p_matrix = loop_formula_scan(single)
        for a, b in liquid.coverings[0].pairs:
            assert p_matrix[a, b] == pytest.approx(1.0, abs=1e-14)

    def test_matrix_symmetric_zero_diagonal(self, liquid23):
        p_matrix = loop_formula_scan(liquid23)
        assert np.array_equal(p_matrix, p_matrix.T)
        assert np.all(np.diag(p_matrix) == 0.0)

    def test_pointwise_matches_scan(self, liquid23):
        p_matrix = loop_formula_scan(liquid23)
        assert loop_formula_p(liquid23, 1, 4) == pytest.approx(p_matrix[1, 4], abs=1e-14)
        assert loop_formula_p(liquid23, 0, 2) == pytest.approx(p_matrix[0, 2], abs=1e-14)

    def test_oversized_ensemble_raises(self, liquid44, monkeypatch):
        # past the ordered-pair cap the pointwise route raises like the scan
        monkeypatch.setattr(loopgas, "MAX_GRAPH_PAIRS", 10)
        with pytest.raises(CapExceeded, match="capped at 10 ordered covering pairs"):
            loop_formula_p(liquid44, 5, 6)

    def test_weights_stay_finite_past_1023_loops(self):
        # 2**1024 overflows a float; the scan scales every weight by 2**-pairs
        lattice = LatticeSpec.square_grid(1, 2048)
        single = custom_ensemble(lattice, [[(s, s + 1) for s in range(0, 2048, 2)]])
        p_matrix = loop_formula_scan(single)
        assert p_matrix[0, 1] == 1.0 and p_matrix[2046, 2047] == 1.0
        assert p_matrix[1, 2] == 0.0

    def test_same_site_rejected(self, liquid23):
        with pytest.raises(ValueError):
            loop_formula_p(liquid23, 2, 2)

    def test_zero_weight_rejected(self, grid24):
        # every amplitude is 0, so there is no state and no Werner parameter
        pairs = [c.pairs for c in enumerate_liquid(grid24).coverings]
        ens = custom_ensemble(grid24, pairs, weights=[0.0] * len(pairs))
        with pytest.raises(ValueError, match="nonzero covering weight"):
            loop_formula_scan(ens)
        with pytest.raises(ValueError, match="nonzero covering weight"):
            loop_formula_p(ens, 0, 1)

    def test_unequal_weights_rejected(self, grid22):
        covs = enumerate_liquid(grid22).coverings
        ens = custom_ensemble(grid22, [c.pairs for c in covs], weights=(1.0, 0.5))
        with pytest.raises(ValueError):
            loop_formula_scan(ens)

    def test_ordered_pair_weight_counts_graphs(self, liquid23):
        # sum of 2^L over ordered pairs equals the covering-sum normalizer:
        # each distinct graph with n nondegenerate loops appears 2^n times
        total = 0
        n_pairs = 3
        partners = _partner_matrix(liquid23)
        for k in range(len(liquid23)):
            _, counts = _row_loops(partners, k)
            total += sum(2 ** int(count) for count in counts)
        state_norm_sq = 0.0
        states = [singlet_product(c) for c in liquid23.coverings]
        for sk in states:
            for sl in states:
                state_norm_sq += inner(sk, sl)
        assert total / 2.0**n_pairs == pytest.approx(state_norm_sq, abs=1e-10)


class TestPinnedToLoopWalkOracle:
    """The row kernel against the per-pair loop walk it replaced."""

    @pytest.mark.parametrize(
        "lattice",
        [
            LatticeSpec.square_grid(4, 4),
            LatticeSpec.square_grid(4, 4, boundary="periodic"),
            LatticeSpec.square_grid(2, 6),
            LatticeSpec.square_grid(4, 6),
            LatticeSpec.square_grid(6, 2, boundary="periodic"),
            LatticeSpec.square_grid(2, 8),
        ],
        ids=["open-4x4", "periodic-4x4", "open-2x6", "open-4x6", "periodic-6x2", "open-2x8"],
    )
    def test_scan_bytes_on_liquids(self, lattice):
        liquid = enumerate_liquid(lattice)
        got = loop_formula_scan(liquid)
        assert got.tobytes() == loop_formula_scan_oracle(liquid).tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_scan_bytes_on_gas(self, n):
        gas = enumerate_gas(LatticeSpec.complete_bipartite(n))
        got = loop_formula_scan(gas)
        assert got.tobytes() == loop_formula_scan_oracle(gas).tobytes()

    @pytest.mark.parametrize("fixture", ["liquid23", "liquid44"])
    def test_pointwise_exact_on_every_pair(self, fixture, request):
        ensemble = request.getfixturevalue(fixture)
        expected = loop_formula_scan_oracle(ensemble)
        n = ensemble.lattice.site_count
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert loop_formula_p(ensemble, i, j) == expected[i, j], (i, j)


def _periodic44():
    # a fresh ensemble each time: a session fixture may carry a memoised scan
    return enumerate_liquid(LatticeSpec.square_grid(4, 4, boundary="periodic"))


def _count_row_loops(monkeypatch):
    calls = []
    row_loops = loopgas._row_loops

    def counted(partners, k):
        calls.append(k)
        return row_loops(partners, k)

    monkeypatch.setattr(loopgas, "_row_loops", counted)
    return calls


class TestScanMemo:
    """One scan per ensemble; every call checks first and gets its own copy."""

    def test_every_caller_shares_one_scan(self, monkeypatch):
        liquid = _periodic44()
        calls = _count_row_loops(monkeypatch)
        p_matrix = loop_formula_scan(liquid)
        same = same_sublattice_scan(liquid)
        n = liquid.lattice.site_count
        pointwise = {
            (i, j): loop_formula_p(liquid, i, j) for i in range(n) for j in range(n) if i != j
        }
        # one labelled row per covering orbit, 13 on the periodic 4x4
        assert len(pointwise) == 240 and len(calls) == 13
        assert all(p == p_matrix[pair] for pair, p in pointwise.items())
        assert all(p == p_matrix[pair] for pair, p in same)

    def test_repeat_calls_return_distinct_writeable_copies(self):
        liquid = _periodic44()
        first = loop_formula_scan(liquid)
        again = loop_formula_scan(liquid)
        assert again is not first and not np.shares_memory(first, again)
        assert first.flags.writeable and again.flags.writeable
        assert again.tobytes() == first.tobytes()
        expected = first.tobytes()
        first[:] = 7.0
        again[0, 1] = -7.0
        assert loop_formula_scan(liquid).tobytes() == expected
        assert loop_formula_p(liquid, 0, 1) != -7.0

    def test_rebuilt_ensemble_gives_the_same_bytes(self):
        liquid = _periodic44()
        rebuilt = ensemble_from_json(ensemble_to_json(liquid))
        assert rebuilt is not liquid and rebuilt == liquid
        assert loop_formula_scan(rebuilt).tobytes() == loop_formula_scan(liquid).tobytes()
        assert loop_formula_scan(liquid).tobytes() == loop_formula_scan_oracle(liquid).tobytes()

    def test_lowered_cap_after_a_scan_still_applies(self, liquid44, monkeypatch):
        loop_formula_scan(liquid44)
        monkeypatch.setattr(loopgas, "MAX_GRAPH_PAIRS", 10)
        with pytest.raises(CapExceeded, match="capped at 10"):
            loop_formula_scan(liquid44)
        with pytest.raises(CapExceeded):
            same_sublattice_scan(liquid44)
        with pytest.raises(CapExceeded, match="capped at 10"):
            loop_formula_p(liquid44, 5, 6)

    def test_a_scan_that_raises_keeps_nothing(self, monkeypatch):
        liquid = _periodic44()
        monkeypatch.setattr(loopgas, "MAX_GRAPH_PAIRS", 10)
        with pytest.raises(CapExceeded):
            loop_formula_scan(liquid)
        monkeypatch.undo()
        calls = _count_row_loops(monkeypatch)
        loop_formula_scan(liquid)
        assert len(calls) == 13


def _orbit_rows(ensemble):
    """Each orbit of ``_covering_orbits`` as the partner rows its maps reach."""
    partners = _partner_matrix(ensemble)
    out = []
    for r, maps in _covering_orbits(ensemble.lattice, partners):
        images = []
        for g in maps:
            image = np.empty_like(partners[r])
            image[g] = g[partners[r]]
            images.append(tuple(image.tolist()))
        out.append(images)
    return out


class TestCoveringOrbits:
    """Orbit rows against the whole symmetry group applied to every covering."""

    @pytest.mark.parametrize(
        "rows, cols, boundary, expected",
        [
            (4, 4, "periodic", 13),
            (4, 4, "open", 9),
            (4, 6, "open", 98),
            (2, 6, "open", 9),
            (2, 8, "open", 21),
            (6, 2, "periodic", 6),
        ],
    )
    def test_orbits_match_brute_force(self, rows, cols, boundary, expected):
        liquid = enumerate_liquid(LatticeSpec.square_grid(rows, cols, boundary=boundary))
        kept, orbits = covering_orbits_oracle(liquid)
        got = _orbit_rows(liquid)
        assert len(got) == len(orbits) == expected
        # every covering once, each orbit reached by maps that send r to a
        # different member
        assert sum(map(len, got)) == len(liquid)
        assert {frozenset(images) for images in got} == orbits
        assert all(len(set(images)) == len(images) for images in got)
        partners = _partner_matrix(liquid)
        assert [g.tolist() for g, _ in _kept_generators(liquid.lattice, partners)] == [
            list(g) for g in kept
        ]

    @staticmethod
    def _open44_variant(which):
        lattice = LatticeSpec.square_grid(4, 4)
        pairs = [c.pairs for c in enumerate_liquid(lattice).coverings]
        # covering 2 is fixed by the column reflection alone
        if which == "one-removed":
            pairs = pairs[:2] + pairs[3:]
        elif which == "one-twice":
            pairs = pairs + pairs[2:3]
        else:
            pairs = pairs[2:3]
        return custom_ensemble(lattice, pairs)

    @pytest.mark.parametrize("which", ["one-removed", "one-twice", "single"])
    def test_generators_that_break_the_ensemble_are_dropped(self, which):
        ens = self._open44_variant(which)
        candidates = ens.lattice.symmetry_generators()
        kept, _ = covering_orbits_oracle(ens)
        got = [tuple(g.tolist()) for g, _ in _kept_generators(ens.lattice, _partner_matrix(ens))]
        assert got == kept
        assert 0 < len(kept) < len(candidates)
        assert loop_formula_scan(ens).tobytes() == loop_formula_scan_oracle(ens).tobytes()

    def test_trivial_group_gives_one_orbit_per_covering(self, gas3):
        orbits = _covering_orbits(gas3.lattice, _partner_matrix(gas3))
        assert [r for r, _ in orbits] == list(range(len(gas3)))
        assert all(len(maps) == 1 for _, maps in orbits)


class TestSameSublatticeScan:
    def test_all_nonpositive_liquid(self, liquid44):
        rows = same_sublattice_scan(liquid44)
        assert rows
        for (i, j), p in rows:
            assert p <= 1e-12, (i, j, p)

    def test_all_nonpositive_gas(self, gas3):
        for (_, _), p in same_sublattice_scan(gas3):
            assert p == pytest.approx(-1.0 / 3.0, abs=1e-13)

    def test_covers_every_same_sublattice_pair(self, grid23, liquid23):
        rows = same_sublattice_scan(liquid23)
        expected = {
            (i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if grid23.sublattice_of(i) is grid23.sublattice_of(j)
        }
        assert {pair for pair, _ in rows} == expected


def test_cap_constant_reasonable():
    assert MAX_GRAPH_PAIRS >= 36 * 36  # full scan of the 4x4 liquid stays direct


class TestPartnerMatrix:
    """One scatter of the partner table equals one ``partner_array`` per covering."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gas(self, n):
        ens = enumerate_gas(LatticeSpec.complete_bipartite(n))
        got = _partner_matrix(ens)
        assert got.dtype == np.int64
        assert np.array_equal(got, partner_matrix_oracle(ens))

    @pytest.mark.parametrize(
        "rows, cols, boundary",
        [(r, c, b) for r, c in ((4, 4), (2, 6), (4, 6)) for b in ("open", "periodic")],
    )
    def test_liquid(self, rows, cols, boundary):
        ens = enumerate_liquid(LatticeSpec.square_grid(rows, cols, boundary=boundary))
        got = _partner_matrix(ens)
        assert got.dtype == np.int64
        assert np.array_equal(got, partner_matrix_oracle(ens))
