import hashlib
import json
import re
import sys
from functools import partial

import numpy as np
import pytest

import rvblab.coverings as coverings_mod

from conftest import (
    biadjacency,
    brute_force_matchings,
    ensemble_json_oracle,
    gas_coverings_oracle,
    gas_partners_oracle,
    liquid_coverings_oracle,
    partner_array,
    ryser_permanent,
    traced_peak,
)
from rvblab import (
    CapExceeded,
    CoveringEnsemble,
    DimerCovering,
    LatticeSpec,
    Variant,
    assemble,
    custom_ensemble,
    ensemble_from_json,
    ensemble_sha256,
    ensemble_to_json,
    enumerate_gas,
    enumerate_liquid,
)
from rvblab.cli import main
from rvblab.lattice import lattice_to_config

# the open and periodic 4x4, 2x6 and 4x6
ORACLE_GRIDS = [(r, c, b) for r, c in ((4, 4), (2, 6), (4, 6)) for b in ("open", "periodic")]
ORACLE_GRID_IDS = [f"{b}{r}x{c}" for r, c, b in ORACLE_GRIDS]
CUSTOM_WEIGHTS = (0.5, 2.0, -1.0, 2**-40)


def custom_weighted():
    """The first four 2x4 liquid coverings with unequal, signed weights."""
    lattice = LatticeSpec.square_grid(2, 4)
    pairs = [c.pairs for c in enumerate_liquid(lattice).coverings[:4]]
    return custom_ensemble(lattice, pairs, weights=CUSTOM_WEIGHTS)


class TestDimerCovering:
    def test_pairs_property(self):
        cov = DimerCovering(a_sites=(0, 2), b_partners=(1, 3))
        assert cov.pairs == ((0, 1), (2, 3))

    def test_partner_array_involution(self):
        cov = DimerCovering(a_sites=(0, 2), b_partners=(3, 1))
        arr = partner_array(cov, 4)
        assert np.array_equal(arr[arr], np.arange(4))

    def test_a_sites_must_ascend(self):
        with pytest.raises(ValueError):
            DimerCovering(a_sites=(2, 0), b_partners=(1, 3))

    def test_partners_must_be_distinct(self):
        with pytest.raises(ValueError):
            DimerCovering(a_sites=(0, 2), b_partners=(1, 1))

    def test_a_sites_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            DimerCovering(a_sites=(0, 0), b_partners=(1, 2))

    def test_site_on_both_sides_rejected(self):
        for a_sites, b_partners in [((0, 1), (1, 2)), ((0, 2), (3, 0)), ((0,), (0,))]:
            with pytest.raises(ValueError, match="distinct"):
                DimerCovering(a_sites=a_sites, b_partners=b_partners)

    def test_from_pairs_orientation_enforced(self, grid22):
        with pytest.raises(ValueError, match="A-first"):
            DimerCovering.from_pairs(grid22, ((1, 0), (2, 3)))

    def test_from_pairs_accepts_any_pair_order(self, grid22):
        cov = DimerCovering.from_pairs(grid22, ((3, 2), (0, 1)))
        assert cov.a_sites == (0, 3)


class TestLiquidEnumeration:
    @pytest.mark.parametrize(
        "rows,cols,expected",
        [(2, 2, 2), (2, 3, 3), (2, 4, 5), (4, 4, 36), (4, 6, 281)],
    )
    def test_open_grid_counts(self, rows, cols, expected):
        lat = LatticeSpec.square_grid(rows, cols)
        assert len(enumerate_liquid(lat)) == expected

    def test_periodic_44_count(self, grid44_periodic):
        assert len(enumerate_liquid(grid44_periodic)) == 272

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (2, 4), (4, 4)])
    def test_counts_match_permanent(self, rows, cols):
        lat = LatticeSpec.square_grid(rows, cols)
        expected = ryser_permanent(biadjacency(lat, nn_only=True))
        assert len(enumerate_liquid(lat)) == expected

    def test_periodic_count_matches_permanent(self, grid44_periodic):
        expected = ryser_permanent(biadjacency(grid44_periodic, nn_only=True))
        assert len(enumerate_liquid(grid44_periodic)) == expected

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (2, 4)])
    def test_matches_brute_force_sets(self, rows, cols):
        lat = LatticeSpec.square_grid(rows, cols)
        got = {cov.pairs for cov in enumerate_liquid(lat).coverings}
        expected = {tuple(sorted(m)) for m in brute_force_matchings(lat, nn_only=True)}
        assert got == expected

    def test_all_bonds_are_nn(self, liquid44, grid44):
        bonds = set(grid44.nn_bonds())
        for cov in liquid44.coverings:
            for a, b in cov.pairs:
                assert tuple(sorted((a, b))) in bonds

    def test_equal_weights(self, liquid44):
        assert liquid44.has_equal_weights
        assert np.allclose(liquid44.weights, 1.0)

    def test_deterministic_order(self, grid24):
        first = enumerate_liquid(grid24)
        second = enumerate_liquid(grid24)
        assert [c.pairs for c in first.coverings] == [c.pairs for c in second.coverings]

    def test_gas_lattice_rejected(self):
        with pytest.raises(ValueError):
            enumerate_liquid(LatticeSpec.complete_bipartite(2))

    @pytest.mark.parametrize(
        "boundary,digest",
        [
            ("open", "498f94a2d649b7705d438655569cae3b69eca7dd363e15f15fd958cac4f5232c"),
            ("periodic", "f9340c685b91a4ee12b7c4b87587bb84ad1123f4bea47eac6973083625e2dd7a"),
        ],
    )
    def test_44_order_pinned(self, boundary, digest):
        # ensemble_sha256 pins the covering order that every report follows
        liquid = enumerate_liquid(LatticeSpec.square_grid(4, 4, boundary=boundary))
        assert hashlib.sha256(ensemble_to_json(liquid).encode()).hexdigest() == digest

    def test_long_chain_does_not_recurse(self):
        # one stack frame per dimer would pass Python's recursion limit
        liquid = enumerate_liquid(LatticeSpec.square_grid(1, 3000))
        assert len(liquid) == 1
        assert liquid.coverings[0].pairs == tuple((s, s + 1) for s in range(0, 3000, 2))

    def test_stored_pair_cap(self, monkeypatch, grid44):
        # 36 coverings x 8 pairs: exactly at the cap passes, one pair less raises
        monkeypatch.setattr(coverings_mod, "LIQUID_MAX_STORED_PAIRS", 36 * 8)
        assert len(enumerate_liquid(grid44)) == 36
        monkeypatch.setattr(coverings_mod, "LIQUID_MAX_STORED_PAIRS", 36 * 8 - 1)
        with pytest.raises(CapExceeded, match="stored pairs"):
            enumerate_liquid(grid44)

    def test_one_covering_over_cap_rejected_before_search(self, monkeypatch, grid44):
        # 8 pairs per covering against a cap of 7: no adjacency list is built
        def no_neighbors(self, site):
            raise AssertionError("neighbors listed before the cap check")

        monkeypatch.setattr(coverings_mod, "LIQUID_MAX_STORED_PAIRS", 7)
        monkeypatch.setattr(LatticeSpec, "neighbors", no_neighbors)
        with pytest.raises(CapExceeded, match="stored pairs"):
            enumerate_liquid(grid44)

    def test_two_coverings_over_cap_rejected_before_search(self, monkeypatch, grid44):
        # one covering of 8 pairs sits exactly at a cap of 8, but a 4x4 grid
        # has a second one, so no adjacency list is built
        def no_neighbors(self, site):
            raise AssertionError("neighbors listed before the cap check")

        monkeypatch.setattr(coverings_mod, "LIQUID_MAX_STORED_PAIRS", 8)
        monkeypatch.setattr(LatticeSpec, "neighbors", no_neighbors)
        with pytest.raises(CapExceeded, match="needs at least 16"):
            enumerate_liquid(grid44)

    @pytest.mark.parametrize("rows,cols", [(1, 16), (16, 1)])
    def test_chain_with_one_covering_at_cap_passes(self, monkeypatch, rows, cols):
        # a 1xL chain has exactly one covering, so its bound stays n // 2
        monkeypatch.setattr(coverings_mod, "LIQUID_MAX_STORED_PAIRS", 8)
        assert len(enumerate_liquid(LatticeSpec.square_grid(rows, cols))) == 1
        monkeypatch.setattr(coverings_mod, "LIQUID_MAX_STORED_PAIRS", 7)
        with pytest.raises(CapExceeded, match="needs at least 8"):
            enumerate_liquid(LatticeSpec.square_grid(rows, cols))


class TestGasEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6), (4, 24), (6, 720)])
    def test_factorial_counts(self, n, expected):
        lat = LatticeSpec.complete_bipartite(n)
        assert len(enumerate_gas(lat)) == expected

    def test_count_matches_permanent(self):
        lat = LatticeSpec.complete_bipartite(5)
        expected = ryser_permanent(biadjacency(lat, nn_only=False))
        assert len(enumerate_gas(lat)) == expected

    def test_matches_brute_force_sets(self):
        lat = LatticeSpec.complete_bipartite(3)
        got = {cov.pairs for cov in enumerate_gas(lat).coverings}
        expected = {tuple(sorted(m)) for m in brute_force_matchings(lat, nn_only=False)}
        assert got == expected

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            enumerate_gas(LatticeSpec.complete_bipartite(9))

    def test_grid_lattice_rejected(self, grid22):
        with pytest.raises(ValueError):
            enumerate_gas(grid22)

    def test_liquid_subset_of_gas_on_grid(self, grid24):
        # every NN matching is in particular a matching
        liquid = {c.pairs for c in enumerate_liquid(grid24).coverings}
        gas_like = {tuple(sorted(m)) for m in brute_force_matchings(grid24, nn_only=False)}
        assert liquid <= gas_like
        assert len(liquid) < len(gas_like)


def ensemble_of(lattice, coverings, variant):
    """``coverings`` as a ``variant`` ensemble, through the pair-list routes.

    A custom ensemble goes through :func:`custom_ensemble`; the gas and the
    liquid, which it cannot make, through an :func:`ensemble_from_json` document.
    """
    pairs = [c.pairs for c in coverings]
    weights = [c.weight for c in coverings]
    if variant is Variant.CUSTOM:
        return custom_ensemble(lattice, pairs, weights)
    doc = {
        "schema": 1,
        "lattice": lattice_to_config(lattice),
        "variant": variant.value,
        "coverings": pairs,
        "weights": weights,
    }
    return ensemble_from_json(json.dumps(doc))


class TestEnsembleValidation:
    def test_liquid_variant_rejects_long_bond(self, grid24):
        # valid matching, but (0, 6) spans distance 3: no liquid contains it
        bad = DimerCovering.from_pairs(grid24, ((0, 6), (2, 1), (5, 4), (7, 3)))
        with pytest.raises(ValueError, match=r"non-nearest-neighbor pair \(0, 6\)"):
            ensemble_of(grid24, (bad,), Variant.LIQUID)

    def test_gas_variant_requires_equal_weights(self):
        lat = LatticeSpec.complete_bipartite(2)
        covs = (
            DimerCovering(a_sites=(0, 1), b_partners=(2, 3), weight=1.0),
            DimerCovering(a_sites=(0, 1), b_partners=(3, 2), weight=2.0),
        )
        with pytest.raises(ValueError, match="^gas ensembles carry equal weights$"):
            ensemble_of(lat, covs, Variant.GAS)

    def test_custom_allows_weights(self, grid22):
        covs = enumerate_liquid(grid22).coverings
        ens = custom_ensemble(grid22, [c.pairs for c in covs], weights=(1.0, 0.25))
        assert ens.variant is Variant.CUSTOM
        assert not ens.has_equal_weights

    @pytest.mark.parametrize(
        "weight", [np.inf, -np.inf, np.nan, 10**400], ids=["inf", "-inf", "nan", "int-past-float"]
    )
    def test_non_finite_weights_rejected(self, grid24, weight):
        # an equal-weight ensemble of infinite weights is no state
        pairs = [c.pairs for c in enumerate_liquid(grid24).coverings]
        with pytest.raises(ValueError, match="^covering weights must be finite$"):
            custom_ensemble(grid24, pairs, weights=[weight] * len(pairs))

    @pytest.mark.parametrize(
        "weight",
        [True, np.True_, False, "1.0", None],
        ids=["true", "np-true", "false", "text", "none"],
    )
    def test_weights_must_be_numbers(self, grid22, weight):
        # float(True) is 1.0, but a flag is no weight, as it is no site
        pairs = [c.pairs for c in enumerate_liquid(grid22).coverings]
        with pytest.raises(ValueError, match=f"^covering weight {weight!r} is not a number$"):
            custom_ensemble(grid22, pairs, weights=[1.0, weight])

    @pytest.mark.parametrize(
        "weight, message",
        [
            (float("nan"), "covering weights must be finite"),
            (np.inf, "covering weights must be finite"),
            (10**400, "covering weights must be finite"),
            ("1", "covering weight '1' is not a number"),
            (True, "covering weight True is not a number"),
            (np.True_, f"covering weight {np.True_!r} is not a number"),
            (None, "covering weight None is not a number"),
        ],
        ids=["nan", "inf", "int-past-float", "text", "true", "np-true", "none"],
    )
    def test_one_weight_check_for_pairs_and_ensembles(self, grid24, weight, message):
        pairs = ((0, 1), (2, 3), (5, 4), (7, 6))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DimerCovering.from_pairs(grid24, pairs, weight=weight)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            custom_ensemble(grid24, [pairs], weights=[weight])

    @pytest.mark.parametrize("weight", [2, 2.0, np.float32(2.0), np.int64(2), np.float64(2.0)])
    def test_real_weights_are_floats(self, grid24, weight):
        pairs = ((0, 1), (2, 3), (5, 4), (7, 6))
        covering = DimerCovering.from_pairs(grid24, pairs, weight=weight)
        assert type(covering.weight) is float and covering.weight == 2.0
        assert custom_ensemble(grid24, [pairs], weights=[weight]).weights.tolist() == [2.0]

    def test_empty_ensemble_rejected(self, grid22):
        with pytest.raises(ValueError, match="^ensemble must contain at least one covering$"):
            ensemble_of(grid22, (), Variant.LIQUID)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize(
        "n, covering, message",
        [
            # site -1 would shift to bit 0 and build a state of no matching
            (1, DimerCovering(a_sites=(-1,), b_partners=(1,)), "site -1 out of range"),
            (1, DimerCovering(a_sites=(0,), b_partners=(5,)), "site 5 out of range"),
            # one pair on a four-site lattice once failed inside NumPy
            (
                2,
                DimerCovering(a_sites=(0,), b_partners=(2,)),
                r"not a perfect matching; uncovered sites \[1, 3\]",
            ),
        ],
        ids=["negative", "past-the-end", "one-pair"],
    )
    def test_coverings_checked_against_the_lattice(self, n, covering, message, variant):
        lat = LatticeSpec.complete_bipartite(n)
        with pytest.raises(ValueError, match=message) as info:
            ensemble_of(lat, (covering,), variant)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_b_first_covering_rejected(self, variant):
        # accepted once, and assembled to the sign-flipped singlet
        lat = LatticeSpec.complete_bipartite(1)
        cov = DimerCovering(a_sites=(1,), b_partners=(0,))
        with pytest.raises(ValueError, match=r"^pair \(1, 0\) is not ordered A-first$"):
            ensemble_of(lat, (cov,), variant)
        with pytest.raises(ValueError, match=r"^pair \(1, 0\) is not ordered A-first$"):
            DimerCovering.from_pairs(lat, cov.pairs)

    def test_b_first_liquid_covering_rejected(self, grid22):
        # both bonds are nearest-neighbour, but 1 and 2 are B sites
        cov = DimerCovering(a_sites=(1, 2), b_partners=(0, 3))
        with pytest.raises(ValueError, match=r"^pair \(1, 0\) is not ordered A-first$"):
            ensemble_of(grid22, (cov,), Variant.LIQUID)

    @pytest.mark.parametrize(
        "table", [[[2, 2]], [[0, 3]], [[2, 3], [3, 3]]], ids=["repeat", "a_site", "second_row"]
    )
    def test_table_rows_must_permute_b(self, table):
        lat = LatticeSpec.complete_bipartite(2)
        with pytest.raises(ValueError, match="distinct"):
            CoveringEnsemble(lat, Variant.GAS, np.array(table), np.ones(len(table)))

    def test_table_liquid_bonds_checked(self, grid24):
        # partners of the A sites 0, 2, 5, 7: a permutation of B, but 2 and 4
        # are two columns apart
        table = np.array([[1, 4, 6, 3]])
        with pytest.raises(ValueError, match=r"non-nearest-neighbor pair \(2, 4\)"):
            CoveringEnsemble(grid24, Variant.LIQUID, table, np.ones(1))

    def test_bad_site_found_past_good_coverings(self):
        lat = LatticeSpec.complete_bipartite(2)
        good = enumerate_gas(lat).coverings
        bad = DimerCovering(a_sites=(0, 1), b_partners=(2, 4))
        with pytest.raises(ValueError, match=r"site 4 out of range \[0, 4\)"):
            ensemble_of(lat, good + (bad,), Variant.GAS)


def site_dtype(lattice):
    """The canonical partner-table dtype: the narrowest that holds every site index."""
    return np.min_scalar_type(lattice.site_count - 1)


WIDTH_MESSAGE = r"partner table must have shape \(coverings, 2\), one column per A site; got "
WEIGHTS_MESSAGE = "one weight per covering required; "


class TestConstructor:
    """``CoveringEnsemble(lattice, variant, partners, weights)`` checks its table."""

    @pytest.mark.parametrize(
        "partners, weights, message",
        [
            ([2, 3], [1.0], WIDTH_MESSAGE + r"\(2,\)"),
            ([[2, 3, 3]], [1.0], WIDTH_MESSAGE + r"\(1, 3\)"),
            (np.zeros((0, 2), dtype=np.int64), [], "ensemble must contain at least one covering"),
            ([[2, 3], [3, 2]], [1.0], WEIGHTS_MESSAGE + "got 2 coverings and 1 weights"),
            ([[2, 3]], [[1.0]], WEIGHTS_MESSAGE + "got 1 coverings and 1 weights"),
            ([[2.0, 3.0]], [1.0], "partner table must hold integers, got dtype float64"),
            ([[True, False]], [1.0], "partner table must hold integers, got dtype bool"),
        ],
        ids=["1-d", "width", "empty", "weight-count", "2-d-weights", "float", "bool"],
    )
    def test_bad_table_raises_one_line(self, partners, weights, message):
        lat = LatticeSpec.complete_bipartite(2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            CoveringEnsemble(lat, Variant.CUSTOM, np.array(partners), weights)

    def test_liquid_table_runs_the_bond_check(self, grid24):
        # the variant as its value string still selects the liquid's checks
        table = np.array([[1, 4, 6, 3]])
        with pytest.raises(ValueError, match=r"non-nearest-neighbor pair \(2, 4\)"):
            CoveringEnsemble(grid24, "liquid", table, np.ones(1))

    def test_unknown_variant_rejected(self, grid22):
        with pytest.raises(ValueError, match="^'bogus' is not a valid Variant$"):
            CoveringEnsemble(grid22, "bogus", enumerate_liquid(grid22).partners, np.ones(2))

    def test_variant_string_is_coerced(self, liquid24):
        ens = CoveringEnsemble(liquid24.lattice, "liquid", liquid24.partners, liquid24.weights)
        assert ens.variant is Variant.LIQUID
        assert ens == liquid24
        assert ensemble_to_json(ens) == ensemble_to_json(liquid24)

    def test_table_is_aliased_and_frozen(self, grid22):
        # a C-contiguous table in the canonical dtype is aliased and frozen
        table = np.array([[1, 2], [2, 1]], dtype=site_dtype(grid22))
        weights = np.array([1.0, -2.0])
        ens = CoveringEnsemble(grid22, Variant.CUSTOM, table, weights)
        assert ens.partners is table and ens.weights is weights
        for array in (table, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # any other integer table is checked, then converted once, and the
        # caller's array left writable
        for other in (
            np.array([[1, 2], [2, 1]], dtype=np.int32),
            np.array([[1, 2], [2, 1]], dtype=np.int64),
            np.array([[1, 2], [2, 1]], dtype=np.uint64),
            np.asfortranarray(np.array([[1, 2], [2, 1]], dtype=site_dtype(grid22))),
        ):
            ens = CoveringEnsemble(grid22, Variant.CUSTOM, other, [1.0, -2.0])
            assert ens.partners.dtype == site_dtype(grid22) and other.flags.writeable
            assert ens.partners.flags.c_contiguous and not np.shares_memory(ens.partners, other)
            assert np.array_equal(ens.partners, other)


class TestSerialization:
    def test_roundtrip_liquid(self, liquid23):
        doc = ensemble_to_json(liquid23)
        back = ensemble_from_json(doc)
        assert back.lattice == liquid23.lattice
        assert back.variant is liquid23.variant
        assert [c.pairs for c in back.coverings] == [c.pairs for c in liquid23.coverings]

    def test_roundtrip_weights(self, grid22):
        covs = enumerate_liquid(grid22).coverings
        ens = custom_ensemble(grid22, [c.pairs for c in covs], weights=(0.5, 2.0))
        back = ensemble_from_json(ensemble_to_json(ens))
        assert np.array_equal(back.weights, ens.weights)

    def test_lattice_without_rows_rejected(self, liquid23):
        doc = json.loads(ensemble_to_json(liquid23))
        del doc["lattice"]["rows"]
        with pytest.raises(ValueError, match="needs rows and cols") as info:
            ensemble_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("key,value", [("n", 3), ("rows", 2), ("boundary", "open")])
    def test_lattice_key_of_the_other_kind_rejected(self, liquid23, gas3, key, value):
        doc = json.loads(ensemble_to_json(liquid23 if key == "n" else gas3))
        doc["lattice"][key] = value
        with pytest.raises(ValueError, match=f"lattice takes no {key}; got ") as info:
            ensemble_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "key,value", [("rows", 2.9), ("cols", "3.0"), ("n", True), ("n", 3.0)]
    )
    def test_lattice_non_integral_size_rejected(self, liquid23, gas3, key, value):
        # int() would truncate 2.9 to a 2x3 grid and read true as N = 1
        doc = json.loads(ensemble_to_json(gas3 if key == "n" else liquid23))
        doc["lattice"][key] = value
        with pytest.raises(ValueError, match=f"lattice {key} must be an integer") as info:
            ensemble_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "make",
        [partial(enumerate_gas, LatticeSpec.complete_bipartite(8)), custom_weighted],
        ids=["gas8", "custom_weighted"],
    )
    def test_roundtrip_keeps_table_weights_and_text(self, make):
        ens = make()
        text = ensemble_to_json(ens)
        back = ensemble_from_json(text)
        assert back.partners.dtype == ens.partners.dtype
        assert back.partners.shape == ens.partners.shape
        assert back.partners.tobytes() == ens.partners.tobytes()
        assert back.weights.tobytes() == ens.weights.tobytes()
        assert ensemble_to_json(back) == text
        assert back == ens

    def test_weight_count_must_match_coverings(self, liquid24):
        doc = json.loads(ensemble_to_json(liquid24))
        doc["weights"] = doc["weights"][:2]
        with pytest.raises(
            ValueError, match=r"^one weight per covering required; got 5 coverings and 2 weights$"
        ):
            ensemble_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {}, "ensemble document must be an object with keys"),
            (
                lambda doc: {k: v for k, v in doc.items() if k != "coverings"},
                "ensemble document must be an object with keys",
            ),
            (
                lambda doc: {k: v for k, v in doc.items() if k != "weights"},
                "ensemble document must be an object with keys",
            ),
            (lambda doc: [], "ensemble document must be an object with keys"),
            (lambda doc: {**doc, "lattice": [1]}, r"ensemble lattice must be a config object"),
            (lambda doc: {**doc, "coverings": 5}, "ensemble coverings and weights must be lists"),
            (lambda doc: {**doc, "schema": 7}, r"unsupported ensemble schema 7; expected 1"),
            (lambda doc: {**doc, "schema": True}, r"unsupported ensemble schema True; expected 1"),
            (lambda doc: {**doc, "weights": [True, True]}, "covering weight True is not a number"),
            (
                lambda doc: {**doc, "coverings": [5, 5]},
                r"covering 5 is not a list of \(A, B\) pairs",
            ),
            (
                lambda doc: {**doc, "coverings": [[[0, 1, 2]]] * 2},
                r"covering \[\[0, 1, 2\]\] is not a list of \(A, B\) pairs",
            ),
        ],
        ids=[
            "empty", "no-coverings", "no-weights", "list", "lattice-list", "coverings-int",
            "schema-7", "schema-true", "boolean-weights", "covering-int", "triple",
        ],
    )
    def test_malformed_document_raises_one_line(self, liquid22, edit, message):
        doc = edit(json.loads(ensemble_to_json(liquid22)))
        with pytest.raises(ValueError, match=f"^{message}") as info:
            ensemble_from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    # faults put into the 2x4 liquid's coverings by index; A = 0, 2, 5, 7
    @pytest.mark.parametrize(
        "faults, message",
        [
            ({3: [[1, 0], [2, 3], [5, 4], [7, 6]]}, r"pair \(1, 0\) is not ordered A-first"),
            ({3: [[0, 1], [2, 5], [5, 4], [7, 6]]}, r"pair \(2, 5\) does not end on sublattice B"),
            ({3: [[0, 1], [2, 1], [5, 4], [7, 6]]}, r"site 1 appears in more than one pair"),
            (
                {3: [[0, 1], [2, 3], [5, 4]]},
                r"not a perfect matching; uncovered sites \[6, 7\]",
            ),
            # the first faulty covering is named, whether or not the
            # coverings stack into one array
            (
                {1: [[0, 1], [2, 5], [5, 4], [7, 6]], 3: [[1, 0], [2, 3], [5, 4], [7, 6]]},
                r"pair \(2, 5\) does not end on sublattice B",
            ),
            (
                {1: [[1, 0], [2, 3], [5, 4], [7, 6]], 3: [[0, 1], [2, 3], [5, 4]]},
                r"pair \(1, 0\) is not ordered A-first",
            ),
        ],
        ids=["a-first", "ends-on-b", "repeated", "uncovered", "first-stacked", "first-ragged"],
    )
    def test_loader_names_the_first_bad_covering(self, liquid24, faults, message):
        doc = json.loads(ensemble_to_json(liquid24))
        for k, pairs in faults.items():
            doc["coverings"][k] = pairs
        with pytest.raises(ValueError, match=f"^{message}$"):
            ensemble_from_json(json.dumps(doc))

    def test_json_stable_bytes(self, gas3):
        assert ensemble_to_json(gas3) == ensemble_to_json(gas3)

    @pytest.mark.parametrize(
        "make",
        [partial(enumerate_gas, LatticeSpec.complete_bipartite(n)) for n in range(1, 9)]
        + [
            partial(enumerate_liquid, LatticeSpec.square_grid(4, 4, boundary=b))
            for b in ("open", "periodic")
        ]
        + [custom_weighted],
        ids=[f"gas{n}" for n in range(1, 9)] + ["open44", "periodic44", "custom_weighted"],
    )
    def test_json_text_equals_the_nested_list_document(self, make):
        # ensemble_sha256 digests this text; it was written from nested lists
        ens = make()
        nested = {
            "schema": 1,
            "lattice": lattice_to_config(ens.lattice),
            "variant": ens.variant.value,
            "coverings": [[list(p) for p in c.pairs] for c in ens.coverings],
            "weights": [c.weight for c in ens.coverings],
        }
        assert ensemble_to_json(ens) == json.dumps(nested, sort_keys=True)


# open 1x8, 2x2, 4x4 and 2x14 (two-digit sites), periodic 4x2, 2x6 and 4x4
JSON_GRIDS = [
    (1, 8, "open"), (2, 2, "open"), (4, 4, "open"), (2, 14, "open"),
    (4, 2, "periodic"), (2, 6, "periodic"), (4, 4, "periodic"),
]
# weights whose texts are short, tiny, repeating and large, and two that a
# table keyed by value would merge: -0.0 and 0.0 compare equal
ODD_WEIGHTS = (0.1, 1e-300, 1 / 3, -2.5e10, -0.0, 0.0)


def reversed_custom():
    """The gas N = 3 coverings in reverse order, each given in reversed pair order."""
    lattice = LatticeSpec.complete_bipartite(3)
    pairs = [c.pairs[::-1] for c in reversed(enumerate_gas(lattice).coverings)]
    return custom_ensemble(lattice, pairs, weights=ODD_WEIGHTS)


class TestJsonWriter:
    """The array writer is pinned with ``==`` to the ``%`` writer it replaced."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gas_text_equals_the_format_route(self, n):
        ens = enumerate_gas(LatticeSpec.complete_bipartite(n))
        assert ensemble_to_json(ens) == ensemble_json_oracle(ens)

    @pytest.mark.parametrize(
        "rows, cols, boundary", JSON_GRIDS, ids=[f"{b}{r}x{c}" for r, c, b in JSON_GRIDS]
    )
    def test_liquid_text_equals_the_format_route(self, rows, cols, boundary):
        ens = enumerate_liquid(LatticeSpec.square_grid(rows, cols, boundary=boundary))
        assert ensemble_to_json(ens) == ensemble_json_oracle(ens)

    def test_custom_text_equals_the_format_route(self):
        ens = reversed_custom()
        # the rows run against the gas order, so no row is where the gas puts it
        gas = enumerate_gas(ens.lattice).partners
        assert np.array_equal(ens.partners, gas[::-1])
        text = ensemble_to_json(ens)
        assert text == ensemble_json_oracle(ens)
        assert text.endswith(
            '"weights": [0.1, 1e-300, 0.3333333333333333, -25000000000.0, -0.0, 0.0]}'
        )

    def test_custom_round_trip(self):
        ens = reversed_custom()
        back = ensemble_from_json(ensemble_to_json(ens))
        assert back == ens
        assert back.variant is Variant.CUSTOM
        assert back.weights.tobytes() == ens.weights.tobytes()
        assert np.signbit(back.weights).tolist() == [False, False, False, True, True, False]


class TestPartnerTable:
    """The table is the ensemble's data; the object routes it replaced are
    kept in ``conftest`` and pinned here with ``==``."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gas_coverings_equal_the_object_route(self, n):
        lattice = LatticeSpec.complete_bipartite(n)
        assert enumerate_gas(lattice).coverings == gas_coverings_oracle(lattice)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gas_table_equals_the_permutations_route(self, n):
        lattice = LatticeSpec.complete_bipartite(n)
        partners = enumerate_gas(lattice).partners
        assert partners.dtype == site_dtype(lattice)
        assert np.array_equal(partners, gas_partners_oracle(lattice))

    @pytest.mark.parametrize("rows, cols, boundary", ORACLE_GRIDS, ids=ORACLE_GRID_IDS)
    def test_liquid_coverings_equal_the_object_route(self, rows, cols, boundary):
        lattice = LatticeSpec.square_grid(rows, cols, boundary=boundary)
        assert enumerate_liquid(lattice).coverings == liquid_coverings_oracle(lattice)

    def test_layout(self, gas3, liquid23):
        for ens in (gas3, liquid23):
            assert ens.partners.dtype == site_dtype(ens.lattice)
            assert ens.partners.shape == (len(ens), ens.lattice.sublattice_size)
            assert not ens.partners.flags.writeable
            assert not ens.weights.flags.writeable
            for row, cov in zip(ens.partners.tolist(), ens.coverings):
                assert cov.a_sites == ens.lattice.a_sites()
                assert tuple(row) == cov.b_partners

    def test_objects_and_table_give_equal_ensembles(self, gas3):
        rebuilt = ensemble_of(gas3.lattice, gas3.coverings, Variant.GAS)
        assert rebuilt == gas3
        assert hash(rebuilt) == hash(gas3)
        assert rebuilt.partners.tobytes() == gas3.partners.tobytes()
        table = CoveringEnsemble(gas3.lattice, Variant.GAS, gas3.partners.copy(), gas3.weights)
        assert table == gas3
        assert hash(table) == hash(gas3)
        custom = ensemble_of(gas3.lattice, gas3.coverings, Variant.CUSTOM)
        assert custom != gas3

    def test_gas_run_builds_no_covering_object(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a DimerCovering was built")

        monkeypatch.setattr(DimerCovering, "__post_init__", refuse)
        args = ["--lattice", "complete-bipartite", "--n", "4"]
        tasks = ["--tasks", "enumerate", "assemble", "werner-scan"]
        assert main([*args, *tasks, "--out", str(tmp_path / "out")]) == 0


def text_sha256(ensemble):
    """The digest the streamed one replaced: sha256 of the whole JSON text."""
    return hashlib.sha256(ensemble_to_json(ensemble).encode()).hexdigest()


def gas_rows(n, count, weights=None):
    """The first ``count`` gas-N coverings as a custom table, weights 1 by default."""
    gas = enumerate_gas(LatticeSpec.complete_bipartite(n))
    weights = np.ones(count) if weights is None else np.array(weights, dtype=np.float64)
    return CoveringEnsemble(gas.lattice, Variant.CUSTOM, gas.partners[:count], weights)


DISTINCT_MESSAGE = "^covering sites must be distinct: each site lies in one pair$"


class TestEnsembleDigest:
    """``ensemble_sha256`` hashes the JSON text block by block; it is pinned
    with ``==`` to the sha256 of the whole text."""

    @pytest.mark.parametrize(
        "make",
        [partial(enumerate_gas, LatticeSpec.complete_bipartite(n)) for n in range(1, 9)]
        + [
            partial(enumerate_liquid, LatticeSpec.square_grid(r, c, boundary=b))
            for r, c, b in ((4, 4, "open"), (4, 4, "periodic"), (2, 6, "open"))
        ]
        + [custom_weighted, reversed_custom],
        ids=[f"gas{n}" for n in range(1, 9)]
        + ["open44", "periodic44", "open26", "custom_weighted", "reversed_custom"],
    )
    def test_equals_the_text_digest(self, make):
        ens = make()
        assert ensemble_sha256(ens) == text_sha256(ens)

    @pytest.mark.parametrize(
        "weights",
        [
            (-0.0, 0.0, -0.0, 1.0, -0.0, 0.0),
            (5e-324, -5e-324, 5e-324, 1.0, 2.0, 5e-324),
            (1e308, -1e308, 1e308, 1.0, 1e308, 1e-308),
            (0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
        ],
        ids=["signed_zeros", "subnormal", "huge", "repeated"],
    )
    def test_custom_weights(self, weights):
        ens = gas_rows(3, 6, weights)
        assert ensemble_sha256(ens) == text_sha256(ens)
        assert ensemble_to_json(ens) == ensemble_json_oracle(ens)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_block_boundaries(self, monkeypatch, blocks, offset):
        monkeypatch.setattr(coverings_mod, "_ROW_BLOCK", 5)
        count = 5 * blocks + offset
        rng = np.random.default_rng(count)
        ens = gas_rows(4, count, rng.normal(size=count))
        assert ensemble_to_json(ens) == ensemble_json_oracle(ens)
        assert ensemble_sha256(ens) == text_sha256(ens)

    def test_enumerate_task_reports_it(self, tmp_path):
        lattice = LatticeSpec.complete_bipartite(5)
        args = ["--lattice", "complete-bipartite", "--n", "5", "--tasks", "enumerate"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        reported = report["tasks"][0]["data"]["ensemble_sha256"]
        assert reported == text_sha256(enumerate_gas(lattice))


def payload_blocks(data, form):
    """``data`` as the blocks ``_sha256_hex`` takes: whole, or an 8-byte
    aligned float64 array behind a short prefix, as a state is hashed."""
    if form == "bytes":
        return (data,)
    if form == "bytearray":
        return (bytearray(data),)
    head = 8 + len(data) % 8
    return (data[:head], np.frombuffer(data[head:], dtype=np.float64))


class TestDigestRoute:
    """``_sha256_hex`` takes CPython's built-in SHA-256 up to the crossover
    while OpenSSL is not loaded, and ``hashlib`` otherwise; the digest is
    ``hashlib``'s either way.  pytest has loaded ``hashlib``, so the tests
    of the built-in route hide ``_hashlib``."""

    @pytest.fixture
    def hashlib_calls(self, monkeypatch):
        calls = []
        real = hashlib.sha256

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hashlib, "sha256", spy)
        return calls

    @pytest.mark.parametrize("form", ["bytes", "bytearray", "float64"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("openssl", ["hidden", "loaded", "no_builtin"])
    def test_equals_hashlib_around_the_crossover(
        self, monkeypatch, hashlib_calls, openssl, offset, form
    ):
        size = coverings_mod._BUILTIN_SHA256_MAX + offset
        data = np.random.default_rng(size).bytes(size)
        want = hashlib.sha256(data).hexdigest()
        hashlib_calls.clear()
        if openssl != "loaded":
            monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        if openssl == "no_builtin":
            monkeypatch.setitem(sys.modules, "_sha256", None)
            monkeypatch.setitem(sys.modules, "_sha2", None)
        assert coverings_mod._sha256_hex(payload_blocks(data, form), size) == want
        builtin = openssl == "hidden" and offset <= 0
        assert len(hashlib_calls) == (0 if builtin else 1)

    @pytest.mark.parametrize(
        "make",
        [partial(enumerate_gas, LatticeSpec.complete_bipartite(n)) for n in (1, 3, 8)]
        + [
            partial(enumerate_liquid, LatticeSpec.square_grid(1, 300)),
            partial(gas_rows, 3, 6, (-1e-308, 1e308, -5e-324, 0.1, -0.0, 1 / 3)),
        ],
        ids=["gas1", "gas3", "gas8", "chain300", "long_weights"],
    )
    def test_ensemble_size_bounds_the_text(self, monkeypatch, make):
        ens = make()
        sizes = []
        real = coverings_mod._sha256_hex

        def spy(blocks, size):
            sizes.append(size)
            return real(blocks, size)

        monkeypatch.setattr(coverings_mod, "_sha256_hex", spy)
        assert ensemble_sha256(ens) == text_sha256(ens)
        assert len(ensemble_to_json(ens)) <= sizes[0]


class TestRowBlockCheck:
    """The constructor sorts the table ``_ROW_BLOCK`` rows at a time."""

    @pytest.mark.parametrize("row", [0, 4, 5, 12, 19, 20, 23])
    @pytest.mark.parametrize("fault", ["repeat", "a_site"])
    def test_bad_row_found_in_any_block(self, monkeypatch, row, fault):
        # 24 rows in blocks of 5: the first, three middle ones and a short last
        monkeypatch.setattr(coverings_mod, "_ROW_BLOCK", 5)
        ens = enumerate_gas(LatticeSpec.complete_bipartite(4))
        table = ens.partners.copy()
        table[row, 1] = table[row, 0] if fault == "repeat" else 0
        with pytest.raises(ValueError, match=DISTINCT_MESSAGE):
            CoveringEnsemble(ens.lattice, Variant.CUSTOM, table, np.ones(len(table)))

    @pytest.mark.parametrize("block", [5, 24])
    def test_table_of_exactly_whole_blocks_passes(self, monkeypatch, block):
        monkeypatch.setattr(coverings_mod, "_ROW_BLOCK", block)
        ens = gas_rows(4, block)
        assert len(ens) == block
        assert np.array_equal(ens.partners, enumerate_gas(ens.lattice).partners[:block])


# a row of partners on the 16-site K_{8,8} with its first entry, the B site
# 8, replaced; an entry of 264 or 2**40 + 8 would wrap onto 8 in uint8
def gas8_row(first, dtype=np.int64):
    return np.array([[first, *range(9, 16)]], dtype=dtype)


class TestSiteDtype:
    """Every table is kept in ``np.min_scalar_type(site_count - 1)``; no
    entry outside the sites is wrapped into range on the way there."""

    @pytest.mark.parametrize(
        "table",
        [
            gas8_row(300),
            gas8_row(-1),
            gas8_row(2**40),
            gas8_row(264),
            gas8_row(2**40 + 8),
            gas8_row(2**63, np.uint64),
            gas8_row(2**64 - 256 + 8, np.uint64),
            gas8_row(-248, np.int16),
        ],
        ids=[
            "300", "-1", "2**40", "264", "2**40+8", "uint64-2**63", "uint64-wraps", "int16-wraps",
        ],
    )
    def test_out_of_range_entry_never_wraps(self, table):
        lattice = LatticeSpec.complete_bipartite(8)
        for variant in (Variant.GAS, Variant.CUSTOM):
            with pytest.raises(ValueError, match=DISTINCT_MESSAGE):
                CoveringEnsemble(lattice, variant, table, np.ones(1))

    def test_uint16_entry_never_wraps(self):
        # the one 1x300 covering with its first partner moved past 2**16
        chain = enumerate_liquid(LatticeSpec.square_grid(1, 300))
        table = chain.partners.astype(np.int64)
        table[0, 0] += 2**16
        with pytest.raises(ValueError, match=DISTINCT_MESSAGE):
            CoveringEnsemble(chain.lattice, Variant.CUSTOM, table, np.ones(1))

    @pytest.mark.parametrize("site", [300, -1, 2**40, 264, 2**63])
    def test_pair_lists_keep_their_messages(self, gas3, site):
        lattice = LatticeSpec.complete_bipartite(8)
        pairs = [[0, site], *([a, a + 8] for a in range(1, 8))]
        message = rf"^site {site} out of range \[0, 16\)$"
        with pytest.raises(ValueError, match=message):
            custom_ensemble(lattice, [pairs])
        doc = json.loads(ensemble_to_json(gas3))
        doc.update(lattice=lattice_to_config(lattice), coverings=[pairs], weights=[1.0])
        with pytest.raises(ValueError, match=message):
            ensemble_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "make",
        [partial(enumerate_gas, LatticeSpec.complete_bipartite(n)) for n in range(1, 9)]
        + [
            partial(enumerate_liquid, LatticeSpec.square_grid(r, c, boundary=b))
            for r, c, b in ((4, 4, "open"), (4, 4, "periodic"), (2, 6, "open"), (1, 300, "open"))
        ]
        + [lambda: ensemble_from_json(ensemble_to_json(custom_weighted())), custom_weighted],
        ids=[f"gas{n}" for n in range(1, 9)] + ["open44", "periodic44", "open26", "chain300"]
        + ["json", "custom"],
    )
    def test_every_built_ensemble_is_canonical_and_frozen(self, make):
        ens = make()
        assert ens.partners.dtype == np.min_scalar_type(ens.lattice.site_count - 1)
        assert ens.partners.flags.c_contiguous
        assert not ens.partners.flags.writeable and not ens.weights.flags.writeable

    @pytest.mark.parametrize(
        "make, dtype, digest",
        [
            (
                partial(enumerate_liquid, LatticeSpec.square_grid(1, 300)),
                np.uint16,
                "87906a2e6128c37306d019da4d51f7418c980151e3d4529a6b95e3aeb228b1b7",
            ),
            (
                partial(enumerate_gas, LatticeSpec.complete_bipartite(8)),
                np.uint8,
                "4006ec8e34c4e667a0ba5129c4f2be14889d74e0f82a88ff2d2e2deff195a931",
            ),
        ],
        ids=["chain300-uint16", "gas8-uint8"],
    )
    def test_digest_across_the_dtype_boundary(self, make, dtype, digest):
        # the digests of the int64 tables these replaced
        ens = make()
        assert ens.partners.dtype == dtype
        assert ensemble_sha256(ens) == digest


class TestAllocationGuards:
    """Peaks traced by ``tracemalloc``, which counts NumPy buffers: unlike
    the resident set, they do not move with the allocator."""

    def test_gas8_table_is_built_in_place(self):
        lattice = LatticeSpec.complete_bipartite(8)
        enumerate_gas(lattice)  # builds the lattice's lazy tables
        ens, peak = traced_peak(enumerate_gas, lattice)
        # 40,320 coverings x 8 partners, one byte each: every site is below 16
        assert ens.partners.nbytes == 322_560
        kept = ens.partners.nbytes + ens.weights.nbytes
        assert peak < 1.25 * kept, (peak, kept)

    def test_gas8_assembly_peak(self):
        ens = enumerate_gas(LatticeSpec.complete_bipartite(8))
        assemble(ens)  # builds the lattice's lazy tables
        state, peak = traced_peak(assemble, ens)
        # scattering all 2**8 patterns peaked at 1,314,448 bytes (1.254 MiB,
        # 2.51 times the state's 524,288): the state, the norm's square and
        # the last chunk's indices.  The half-pattern route peaked at
        # 1,052,920; the norm summed in 8,192-entry blocks, without a
        # 2**16 square, peaks at 921,888
        assert state.amplitudes.nbytes == 524_288
        assert peak <= 921_888, peak

    def test_gas8_digest_holds_no_whole_text(self):
        ens = enumerate_gas(LatticeSpec.complete_bipartite(8))
        ensemble_sha256(ens)
        digest, peak = traced_peak(ensemble_sha256, ens)
        assert peak < 2 * 2**20, peak
        assert digest == text_sha256(ens)
