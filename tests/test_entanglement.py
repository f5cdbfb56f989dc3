import math

import numpy as np
import pytest

from conftest import (
    binary_entropy_oracle,
    concurrence_oracle,
    entropy_bits_oracle,
    werner_p_from_correlator,
)
from rvblab import (
    DensityMatrix,
    StateVector,
    concurrence_two_qubit,
    eof_from_concurrence,
    eof_two_qubit,
    extract_werner_p,
    is_separable_werner,
    measure_pair,
    monogamy_sum,
    ppt_min_eigenvalue,
    reduced_density_matrix,
    tangle_two_qubit,
    tangle_werner,
    werner_purity,
    werner_state,
)
from rvblab.entanglement import binary_entropy_bits
from rvblab.states import SINGLET_VEC

P_GRID = [-1.0 / 3.0, -0.2, 0.0, 1.0 / 3.0, 0.4, 0.5, 0.75, 1.0]


def random_product_pair_state(seed):
    """|a> x |b> on two qubits: separable by construction."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return np.outer(psi, psi.conj())


class TestWernerState:
    @pytest.mark.parametrize("p", P_GRID)
    def test_valid_density_matrix(self, p):
        werner_state(p).validate()

    def test_p_one_is_singlet_projector(self):
        rho = werner_state(1.0).matrix
        assert np.max(np.abs(rho - np.outer(SINGLET_VEC, SINGLET_VEC))) < 1e-14

    def test_p_zero_is_maximally_mixed(self):
        assert np.max(np.abs(werner_state(0.0).matrix - np.eye(4) / 4.0)) < 1e-15

    def test_out_of_range_rejected(self):
        for p in (-0.5, 1.1):
            with pytest.raises(ValueError):
                werner_state(p)

    @pytest.mark.parametrize("p", P_GRID)
    def test_purity_closed_form(self, p):
        rho = werner_state(p).matrix
        direct = float(np.trace(rho @ rho).real)
        assert werner_purity(p) == pytest.approx(direct, abs=1e-14)


class TestExtractWernerP:
    @pytest.mark.parametrize("p", P_GRID)
    def test_roundtrip(self, p):
        fit = extract_werner_p(werner_state(p))
        assert fit.p == pytest.approx(p, abs=1e-14)
        assert fit.residual < 1e-13

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_correlator_oracle(self, p):
        rho = werner_state(p)
        assert extract_werner_p(rho).p == pytest.approx(
            werner_p_from_correlator(rho.matrix), abs=1e-13
        )

    def test_residual_flags_non_werner(self):
        up = np.zeros((4, 4), dtype=complex)
        up[0, 0] = 1.0
        fit = extract_werner_p(DensityMatrix(sites=(0, 1), matrix=up))
        assert fit.residual > 0.1

    def test_rvb_pair_rdm_is_werner(self, state44):
        dm = reduced_density_matrix(state44, (5, 6))
        fit = extract_werner_p(dm)
        assert fit.residual < 1e-12
        assert fit.p == pytest.approx(werner_p_from_correlator(dm.matrix), abs=1e-12)


class TestConcurrenceAndTangle:
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_nonhermitian_oracle(self, p):
        rho = werner_state(p)
        assert concurrence_two_qubit(rho) == pytest.approx(
            concurrence_oracle(rho.matrix), abs=1e-10
        )

    @pytest.mark.parametrize("p", P_GRID)
    def test_tangle_matches_closed_form(self, p):
        assert tangle_two_qubit(werner_state(p)) == pytest.approx(
            tangle_werner(p), abs=1e-12
        )

    def test_tangle_werner_anchors(self):
        assert tangle_werner(1.0) == pytest.approx(1.0, abs=1e-15)
        assert tangle_werner(1.0 / 3.0) == 0.0
        assert tangle_werner(0.0) == 0.0
        assert tangle_werner(0.5) == pytest.approx(0.0625, abs=1e-15)

    def test_singlet_concurrence_one(self):
        dm = DensityMatrix(sites=(0, 1), matrix=np.outer(SINGLET_VEC, SINGLET_VEC))
        assert concurrence_two_qubit(dm) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_product_states_have_zero_concurrence(self, seed):
        rho = DensityMatrix(sites=(0, 1), matrix=random_product_pair_state(seed))
        assert concurrence_two_qubit(rho) < 1e-7
        assert ppt_min_eigenvalue(rho) > -1e-10

    def test_tangle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tangle_werner(1.5)


WERNER_FUNCTIONS = [werner_state, werner_purity, tangle_werner, is_separable_werner]


class TestWernerParameterType:
    @pytest.mark.parametrize("fn", WERNER_FUNCTIONS)
    # float(True) is 1.0: a flag would silently give the p = 1 projector
    @pytest.mark.parametrize("p", [True, False, np.True_, "0.5", None, 0.5j, [0.5]])
    def test_non_real_is_one_line(self, fn, p):
        with pytest.raises(ValueError, match=r"^Werner parameter must be a real number, got .+$"):
            fn(p)

    @pytest.mark.parametrize("fn", WERNER_FUNCTIONS)
    @pytest.mark.parametrize("p", [np.float64(0.5), np.float32(0.5), np.int64(1), 1])
    def test_numpy_and_int_reals_are_accepted(self, fn, p):
        got, want = fn(p), fn(float(p))
        if fn is werner_state:
            got, want = got.matrix, want.matrix
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fn", WERNER_FUNCTIONS)
    def test_nan_is_out_of_range(self, fn):
        with pytest.raises(ValueError, match=r"^Werner parameter nan outside "):
            fn(float("nan"))


class TestSeparability:
    @pytest.mark.parametrize("p", P_GRID)
    def test_threshold_matches_ppt(self, p):
        # positivity under partial transposition decides two-qubit separability
        rho = werner_state(p)
        ppt_separable = ppt_min_eigenvalue(rho) >= -1e-12
        assert is_separable_werner(p) == ppt_separable

    @pytest.mark.parametrize("p", P_GRID)
    def test_threshold_matches_concurrence(self, p):
        assert is_separable_werner(p) == (concurrence_two_qubit(werner_state(p)) < 1e-10)

    def test_boundary_value(self):
        assert is_separable_werner(1.0 / 3.0)
        assert not is_separable_werner(1.0 / 3.0 + 1e-9)


class TestEntropyAndEof:
    def test_binary_entropy_anchors(self):
        assert binary_entropy_bits(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy_bits(0.0) == 0.0
        assert binary_entropy_bits(1.0) == 0.0

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.25, 0.5, 0.9])
    def test_binary_entropy_matches_oracle(self, x):
        assert binary_entropy_bits(x) == pytest.approx(binary_entropy_oracle(x), abs=1e-14)

    def test_eof_extremes(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_eof_monotone_in_concurrence(self):
        grid = np.linspace(0.0, 1.0, 21)
        vals = [eof_from_concurrence(c) for c in grid]
        assert np.all(np.diff(vals) >= 0)

    def test_eof_werner_half_closed_form(self):
        # C = (3p - 1) / 2 = 1/4 at p = 1/2; both entropy terms contribute
        x = (1.0 + math.sqrt(1.0 - 0.25**2)) / 2.0
        expected = binary_entropy_oracle(x)
        assert eof_two_qubit(werner_state(0.5)) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.11761887377091781, abs=1e-14)

    def test_eof_pure_state_equals_rdm_entropy(self):
        # for pure two-qubit states EoF is the one-site entanglement entropy
        rng = np.random.default_rng(17)
        for _ in range(5):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            rho = DensityMatrix(sites=(0, 1), matrix=np.outer(psi, psi.conj()))
            rho_a = np.einsum("ijkj->ik", rho.matrix.reshape(2, 2, 2, 2))
            # the matrix-sqrt route loses half the digits on rank-1 states
            assert eof_two_qubit(rho) == pytest.approx(
                entropy_bits_oracle(rho_a), abs=1e-6
            )

    def test_eof_separable_werner_zero(self):
        assert eof_two_qubit(werner_state(0.2)) == 0.0


class TestMonogamy:
    def test_singlet_saturates(self):
        state = StateVector(n_qubits=2, amplitudes=SINGLET_VEC.copy())
        total, aggregate = monogamy_sum(state, 0, [1])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert aggregate == pytest.approx(1.0, abs=1e-12)

    def test_gas_two_pairs(self, gas_state2):
        total, aggregate = monogamy_sum(gas_state2, 0, [1, 2, 3])
        assert total == pytest.approx(0.5, abs=1e-12)
        assert aggregate == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_aggregate(self, state23):
        for anchor in range(6):
            partners = [s for s in range(6) if s != anchor]
            total, aggregate = monogamy_sum(state23, anchor, partners)
            assert total <= aggregate + 1e-12

    def test_anchor_cannot_be_partner(self, state23):
        with pytest.raises(ValueError):
            monogamy_sum(state23, 0, [0, 1])

    def test_empty_partners_rejected(self, state23):
        with pytest.raises(ValueError):
            monogamy_sum(state23, 0, [])


class TestMeasurePair:
    def test_record_consistency(self, state23):
        rec = measure_pair(state23, (1, 4))
        assert rec.pair == (1, 4)
        assert rec.tangle == pytest.approx(rec.concurrence**2, abs=1e-13)
        assert rec.separable == (rec.p <= 1.0 / 3.0 + 1e-12)
        assert rec.eof_ebits == pytest.approx(eof_from_concurrence(rec.concurrence), abs=1e-13)

    def test_same_sublattice_pair_separable(self, state23):
        rec = measure_pair(state23, (0, 2))
        assert rec.p < 0.0
        assert rec.separable
        assert rec.tangle == 0.0

    def test_bad_pair_rejected(self, state23):
        with pytest.raises(ValueError):
            measure_pair(state23, (3, 3))
