import math

import numpy as np
import pytest

from rvblab import (
    BoundKind,
    Kind,
    LatticeSpec,
    assemble,
    bound_table,
    compare,
    enumerate_gas,
    enumerate_liquid,
    equidistant_class_min_p,
    extract_werner_p,
    gas_monogamy_bound,
    interior_nn_bond,
    monogamy_bound,
    reduced_density_matrix,
    telecloning_bound,
)
from rvblab import bounds


class TestFormulas:
    def test_monogamy_anchors(self):
        assert monogamy_bound(4) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert monogamy_bound(1) == 1.0
        assert monogamy_bound(9) == pytest.approx(1.0 / 3.0 + 2.0 / 9.0, abs=1e-15)

    def test_telecloning_anchors(self):
        assert telecloning_bound(4) == 0.5
        assert telecloning_bound(1) == 1.0
        assert telecloning_bound(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert telecloning_bound(6) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_gas_anchors(self):
        assert gas_monogamy_bound(8) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert gas_monogamy_bound(32) == pytest.approx(0.5, abs=1e-15)
        # small N would exceed 1, so the bound caps at the Werner maximum
        assert gas_monogamy_bound(2) == 1.0

    def test_all_capped_at_one(self):
        assert monogamy_bound(1) <= 1.0
        assert telecloning_bound(1) <= 1.0
        assert gas_monogamy_bound(1) == 1.0

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 10, 100, 10_000])
    def test_telecloning_below_monogamy(self, r):
        assert telecloning_bound(r) <= monogamy_bound(r) + 1e-15

    def test_monotone_decreasing_to_one_third(self):
        rs = np.arange(1, 2000)
        mono = np.array([monogamy_bound(int(r)) for r in rs])
        tele = np.array([telecloning_bound(int(r)) for r in rs])
        assert np.all(np.diff(mono) <= 0)
        assert np.all(np.diff(tele) <= 0)
        assert mono[-1] > 1.0 / 3.0
        assert tele[-1] > 1.0 / 3.0
        # both tails approach the separability threshold from above
        assert monogamy_bound(10**8) == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert telecloning_bound(10**8) == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_closed_forms(self):
        for r in (2, 3, 7, 50):
            assert monogamy_bound(r) == pytest.approx(
                1.0 / 3.0 + 2.0 / (3.0 * math.sqrt(r)), abs=1e-15
            )
            assert telecloning_bound(r) == pytest.approx(
                1.0 / 3.0 + 2.0 / (3.0 * r), abs=1e-15
            )
        for n in (16, 50):
            assert gas_monogamy_bound(n) == pytest.approx(
                1.0 / 3.0 + 2.0 * math.sqrt(2.0) / (3.0 * math.sqrt(n)), abs=1e-15
            )

    @pytest.mark.parametrize("fn", [monogamy_bound, telecloning_bound, gas_monogamy_bound])
    def test_rejects_nonpositive(self, fn):
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(ValueError):
            fn(-3)



# the scalar closed forms as the math module evaluates them, one count at a time
_CLOSED_FORMS = {
    monogamy_bound: lambda r: min(1.0, 1.0 / 3.0 + 2.0 / (3.0 * math.sqrt(r))),
    telecloning_bound: lambda m: min(1.0, 1.0 / 3.0 + 2.0 / (3.0 * m)),
    gas_monogamy_bound: lambda n: min(
        1.0, 1.0 / 3.0 + 2.0 * math.sqrt(2.0) / (3.0 * math.sqrt(n))
    ),
}


class TestArrayCounts:
    """An integer array of counts gives the scalar calls' bits, entry by entry."""

    @pytest.mark.parametrize("fn", list(_CLOSED_FORMS), ids=lambda fn: fn.__name__)
    def test_array_equals_the_scalar_calls(self, fn):
        counts = np.arange(1, 10_001)
        got = fn(counts)
        assert got.dtype == np.float64 and got.shape == counts.shape
        scalar = [fn(int(r)) for r in counts]
        assert all(type(x) is float for x in scalar)
        assert got.tobytes() == np.array(scalar).tobytes()
        assert scalar == [_CLOSED_FORMS[fn](int(r)) for r in counts]

    @pytest.mark.parametrize("fn", list(_CLOSED_FORMS), ids=lambda fn: fn.__name__)
    def test_numpy_scalar_gives_a_python_float(self, fn):
        for count in (np.int64(4), np.int8(4), np.uint16(4)):
            assert type(fn(count)) is float
            assert fn(count) == fn(4)
        # an unsigned or narrow integer array is a count array too
        got = fn(np.array([1, 4, 9], dtype=np.uint8))
        assert got.tobytes() == np.array([fn(1), fn(4), fn(9)]).tobytes()

    @pytest.mark.parametrize(
        "fn, noun",
        [(monogamy_bound, "partner"), (telecloning_bound, "receiver"), (gas_monogamy_bound, "pair")],
    )
    def test_array_with_an_entry_below_one_raises(self, fn, noun):
        with pytest.raises(ValueError, match=f"^{noun} count must be at least 1, got 0$"):
            fn(np.array([3, 0, -2]))
        with pytest.raises(ValueError, match=f"^{noun} count must be at least 1, got -3$"):
            fn(-3)


class TestCountInput:
    """Only integers and integer arrays are counts; anything else is one ValueError."""

    @pytest.mark.parametrize(
        "fn, noun",
        [(monogamy_bound, "partner"), (telecloning_bound, "receiver"), (gas_monogamy_bound, "pair")],
    )
    @pytest.mark.parametrize(
        "count",
        [float("nan"), True, np.True_, 2.5, 4.0, float("inf"), np.float64(4.0), "4", None, [4]],
        ids=["nan", "bool", "numpy-bool", "2.5", "4.0", "inf", "numpy-float", "str", "None", "list"],
    )
    def test_non_integer_count_raises(self, fn, noun, count):
        with pytest.raises(ValueError, match=f"^{noun} count must be an integer, got .*$") as info:
            fn(count)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("fn", list(_CLOSED_FORMS), ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize(
        "counts, dtype",
        [(np.array([4.0, 9.0]), "float64"), (np.array([True, True]), "bool"),
         (np.arange(1.0, 3001.0), "float64"), (np.array(["4"]), "<U1")],
        ids=["float", "bool", "long-float", "str"],
    )
    def test_array_of_another_dtype_raises(self, fn, counts, dtype):
        with pytest.raises(ValueError, match=f"counts must have an integer dtype, got {dtype}$"):
            fn(counts)


class TestGasSaturation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_measured_p_saturates_telecloning(self, n):
        state = assemble(enumerate_gas(LatticeSpec.complete_bipartite(n)))
        dm = reduced_density_matrix(state, (0, n))
        p = extract_werner_p(dm).p
        assert p == pytest.approx((n + 2) / (3.0 * n), abs=1e-12)
        assert p == pytest.approx(telecloning_bound(n), abs=1e-12)

    def test_gas_bound_never_violated(self):
        for n in (2, 3, 4, 5):
            state = assemble(enumerate_gas(LatticeSpec.complete_bipartite(n)))
            dm = reduced_density_matrix(state, (0, n))
            assert extract_werner_p(dm).p <= gas_monogamy_bound(n) + 1e-12


class TestClassMin:
    def test_symmetric_class_uniform(self, gas_state3):
        lat = LatticeSpec.complete_bipartite(3)
        p_min = equidistant_class_min_p(gas_state3, lat, 0, 1)
        dm = reduced_density_matrix(gas_state3, (0, 3))
        assert p_min == pytest.approx(extract_werner_p(dm).p, abs=1e-13)

    def test_min_at_most_each_member(self, state44, grid44):
        anchor, _ = interior_nn_bond(grid44)
        p_min = equidistant_class_min_p(state44, grid44, anchor, 1)
        for nb in grid44.neighbors(anchor):
            pair = tuple(sorted((anchor, nb)))
            dm = reduced_density_matrix(state44, pair)
            assert p_min <= extract_werner_p(dm).p + 1e-13

    def test_empty_class_returns_none(self, state44, grid44):
        # even distances hold only same-sublattice sites, so the class is empty
        assert equidistant_class_min_p(state44, grid44, 5, 2) is None


DISTANCE_CLASS_LATTICES = {
    "open-4x4": LatticeSpec.square_grid(4, 4),
    "periodic-4x4": LatticeSpec.square_grid(4, 4, boundary="periodic"),
    "periodic-2x6": LatticeSpec.square_grid(2, 6, boundary="periodic"),
    **{f"gas-{n}": LatticeSpec.complete_bipartite(n) for n in range(3, 7)},
}


class TestDistanceClasses:
    """``distance_classes`` is the per-r walk that ``compare`` and the CLI's
    distance profile each once made on their own."""

    @pytest.mark.parametrize("name", list(DISTANCE_CLASS_LATTICES))
    def test_equals_the_explicit_walk(self, monkeypatch, name):
        lattice = DISTANCE_CLASS_LATTICES[name]
        gas = lattice.kind is Kind.COMPLETE_BIPARTITE
        state = assemble((enumerate_gas if gas else enumerate_liquid)(lattice))
        anchor, _ = interior_nn_bond(lattice)
        walk = []
        for r in range(1, lattice.max_distance() + 1, 2):
            count = lattice.equidistant_count(anchor, r)
            if count:
                walk.append((r, count, equidistant_class_min_p(state, lattice, anchor, r)))
        # one class-minimum call per nonempty class, in order of r
        calls = []

        def counted(state_, lattice_, anchor_, r):
            calls.append((anchor_, r))
            return equidistant_class_min_p(state_, lattice_, anchor_, r)

        monkeypatch.setattr(bounds, "equidistant_class_min_p", counted)
        assert bounds.distance_classes(state, lattice) == walk
        assert calls == [(anchor, r) for r, _, _ in walk]
        # the gas has one class, all N partners; a grid has several
        sizes = [count for _, count, _ in walk]
        if gas:
            assert sizes == [lattice.n_per_sublattice]
        else:
            assert len(sizes) > 1


class TestSiteCountCheck:
    """A lattice that does not fit the state is refused by every bound route."""

    def test_every_route_refuses_a_lattice_of_another_size(self, state44):
        small = LatticeSpec.square_grid(2, 4)
        message = "^state and lattice disagree on site count$"
        with pytest.raises(ValueError, match=message):
            equidistant_class_min_p(state44, small, 0, 1)
        with pytest.raises(ValueError, match=message):
            bounds.distance_classes(state44, small)
        with pytest.raises(ValueError, match=message):
            compare(state44, small)

    def test_gas_lattice_of_another_size(self, gas_state3):
        with pytest.raises(ValueError, match="^state and lattice disagree on site count$"):
            bounds.distance_classes(gas_state3, LatticeSpec.complete_bipartite(2))


class TestCompare:
    def test_gas_reports_satisfied(self, gas_state3):
        lat = LatticeSpec.complete_bipartite(3)
        reports = compare(gas_state3, lat)
        kinds = {rep.bound_kind for rep in reports}
        assert BoundKind.GAS_MONOGAMY in kinds
        assert BoundKind.GAS_TELECLONING in kinds
        for rep in reports:
            assert rep.satisfied
            assert rep.slack is not None and rep.slack >= -1e-9

    def test_liquid_reports_satisfied(self, state23, grid23):
        for rep in compare(state23, grid23):
            assert rep.satisfied

    def test_liquid_44_reports_satisfied(self, state44, grid44):
        reports = compare(state44, grid44)
        assert any(rep.bound_kind is BoundKind.MONOGAMY_NN for rep in reports)
        assert any(rep.bound_kind is BoundKind.TELECLONING_NN for rep in reports)
        assert any(rep.bound_kind is BoundKind.MONOGAMY_EQUIDISTANT for rep in reports)
        for rep in reports:
            assert rep.satisfied, rep

    def test_gas_saturation_shows_near_zero_slack(self, gas_state3):
        lat = LatticeSpec.complete_bipartite(3)
        reports = compare(gas_state3, lat)
        tele = next(r for r in reports if r.bound_kind is BoundKind.GAS_TELECLONING)
        assert tele.slack == pytest.approx(0.0, abs=1e-12)


class TestBoundTable:
    def test_rows_per_parameter(self):
        rows = bound_table([1, 4, 9])
        assert len(rows) == 6
        for rep in rows:
            assert rep.measured_p is None
            assert rep.slack is None
            assert rep.satisfied  # vacuously true without a measurement

    def test_values_match_formulas(self):
        rows = bound_table([4])
        by_kind = {rep.bound_kind: rep.bound_value for rep in rows}
        assert by_kind[BoundKind.MONOGAMY_EQUIDISTANT] == pytest.approx(2.0 / 3.0)
        assert by_kind[BoundKind.TELECLONING_EQUIDISTANT] == 0.5
