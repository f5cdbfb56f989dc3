import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PROPERTY_SETTINGS,
    entropy_bits_oracle,
    equal_weight_ensembles,
    purity_entropy_oracle,
    subset_spectrum_oracle,
)
from rvblab import multipartite, states
from rvblab import (
    CapExceeded,
    DimerCovering,
    LatticeSpec,
    StateVector,
    assemble,
    bipartition_verdict,
    custom_ensemble,
    enumerate_gas,
    enumerate_liquid,
    even_subset_audit,
    genuine_multipartite_certificate,
    odd_subset_audit,
    reduced_density_matrix,
    singlet_product,
    subset_spectrum,
)


@pytest.fixture(scope="module")
def gas_state4():
    return assemble(enumerate_gas(LatticeSpec.complete_bipartite(4)))


@pytest.fixture(scope="module")
def state26():
    return assemble(enumerate_liquid(LatticeSpec.square_grid(2, 6)))


@pytest.fixture(scope="module")
def disjoint_singlets():
    # |s>_01 x |s>_23: entangled within pairs, product across the (01)|(23) cut
    cov = DimerCovering(a_sites=(0, 2), b_partners=(1, 3))
    return singlet_product(cov)


class TestSubsetSpectrum:
    def test_probability_vector(self, state23):
        spec = subset_spectrum(state23, (0, 2, 4))
        assert spec.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec >= 0.0)
        assert np.all(np.diff(spec) <= 0)

    def test_matches_dense_rdm_spectrum(self, state23):
        for subset in [(0,), (1, 3), (0, 2, 4), (1, 2, 3, 5)]:
            spec = subset_spectrum(state23, subset)
            dm = reduced_density_matrix(state23, subset)
            dense = np.sort(np.linalg.eigvalsh(dm.matrix))[::-1]
            k = min(len(spec), len(dense))
            assert np.max(np.abs(spec[:k] - dense[:k])) < 1e-12

    def test_complement_has_same_entropy(self, state23):
        # Schmidt symmetry of pure states
        subset = (0, 3, 4)
        complement = tuple(s for s in range(6) if s not in subset)
        s1 = subset_spectrum(state23, subset)
        s2 = subset_spectrum(state23, complement)
        e1 = entropy_bits_oracle(np.diag(s1))
        e2 = entropy_bits_oracle(np.diag(s2))
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_full_set_rejected(self, state22):
        with pytest.raises(ValueError):
            subset_spectrum(state22, (0, 1, 2, 3))

    def test_unsorted_rejected(self, state22):
        with pytest.raises(ValueError):
            subset_spectrum(state22, (2, 0))


def _ghz(n):
    amps = np.zeros(2**n)
    amps[0] = amps[-1] = math.sqrt(0.5)
    return StateVector(n_qubits=n, amplitudes=amps)


def _random_state(n, seed):
    amps = np.random.default_rng(seed).standard_normal(2**n)
    return StateVector(n_qubits=n, amplitudes=amps / np.linalg.norm(amps))


def _proper_subsets(n):
    return [s for k in range(1, n) for s in itertools.combinations(range(n), k)]


def _assert_matches_oracle(state, subset, spectrum, verdict=None):
    ref = subset_spectrum_oracle(state, subset)
    assert spectrum.shape == ref.shape, subset
    assert np.max(np.abs(spectrum - ref)) <= 1e-12, subset
    if verdict is not None:
        purity, entropy = purity_entropy_oracle(ref)
        assert abs(verdict.purity - purity) <= 1e-12, subset
        assert abs(verdict.entropy_bits - entropy) <= 1e-12, subset


class TestSectorBlocks:
    """The sector-block route, pinned to the dense Gram route it replaced."""

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_every_audit_subset_of_the_44_grids(self, boundary, monkeypatch):
        lattice = LatticeSpec.square_grid(4, 4, boundary=boundary)
        state = assemble(enumerate_liquid(lattice))
        assert state._support.flip == 1  # the mirrored-block route
        seen = {}

        def recording(st_, subset):
            seen[tuple(subset)] = spectrum = subset_spectrum(st_, subset)
            return spectrum

        # the audits reach subset_spectrum through the module global
        monkeypatch.setattr(multipartite, "subset_spectrum", recording)
        verdicts = (
            odd_subset_audit(state, max_size=5).verdicts
            + even_subset_audit(state, max_size=4).verdicts
        )
        assert len(verdicts) == len(seen) == 6884
        for v in verdicts:
            _assert_matches_oracle(state, v.subset, seen[v.subset], v)

    # a singlet superposition flips to (-1)**(n/2) times itself
    FLIP_SIGNS = {"state23": -1, "gas_state3": -1, "state24": 1, "gas_state4": 1, "state26": 1}

    @pytest.mark.parametrize("fixture", list(FLIP_SIGNS))
    def test_every_subset_of_small_states(self, fixture, request):
        state = request.getfixturevalue(fixture)
        assert state._support.flip == self.FLIP_SIGNS[fixture]
        for subset in _proper_subsets(state.n_qubits):
            spectrum = subset_spectrum(state, subset)
            _assert_matches_oracle(state, subset, spectrum, bipartition_verdict(state, subset))

    def test_w_state_is_one_sector(self):
        amps = np.zeros(8)
        amps[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
        state = StateVector(n_qubits=3, amplitudes=amps)
        assert state._support.down == 1
        for subset in _proper_subsets(3):
            _assert_matches_oracle(state, subset, subset_spectrum(state, subset))

    @pytest.mark.parametrize("state", [_ghz(5), _random_state(6, seed=2004)], ids=["ghz", "random"])
    def test_states_with_no_sector_take_the_dense_route_exactly(self, state, monkeypatch):
        def no_sector(*args):
            raise AssertionError("sector blocks built for a state with no sector")

        monkeypatch.setattr(multipartite, "_sector_spectrum", no_sector)
        assert state._support is None
        for subset in _proper_subsets(state.n_qubits):
            got = subset_spectrum(state, subset)
            assert got.tobytes() == subset_spectrum_oracle(state, subset).tobytes(), subset

    def test_support_is_built_once_per_state(self, liquid23, monkeypatch):
        calls = []
        build = states._sector_support

        def counting(state):
            calls.append(state)
            return build(state)

        monkeypatch.setattr(states, "_sector_support", counting)
        state = assemble(liquid23)  # a fresh state: nothing cached yet
        odd_subset_audit(state, max_size=5)
        even_subset_audit(state, max_size=4)
        genuine_multipartite_certificate(state)
        assert len(calls) == 1 and calls[0] is state

    @pytest.mark.parametrize("subset", [(0, 1, 2, 3), (), (2, 0), (0, 4)])
    @pytest.mark.parametrize("route", ["sector", "dense"])
    def test_subset_checked_before_any_block(self, route, subset, monkeypatch):
        def no_block(*args):
            raise AssertionError("block built before the subset check")

        for name in ("_subset_block", "_sector_spectrum", "_dense_spectrum"):
            monkeypatch.setattr(multipartite, name, no_block)
        monkeypatch.setattr(states, "_sector_support", no_block)
        cov = DimerCovering(a_sites=(0, 2), b_partners=(1, 3))
        state = singlet_product(cov) if route == "sector" else _ghz(4)
        with pytest.raises(ValueError):
            subset_spectrum(state, subset)

    @PROPERTY_SETTINGS
    @given(equal_weight_ensembles(), st.data())
    def test_random_ensembles_match_the_dense_route(self, ensemble, data):
        state = assemble(ensemble)
        n = state.n_qubits
        assert state._support.down == n // 2
        # assembly sums each amplitude and its flipped partner with the
        # same terms in the same order, so the symmetry is exact
        assert state._support.flip == (-1) ** (n // 2)
        for _ in range(3):
            subset = data.draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)
                .map(sorted)
                .map(tuple)
            )
            _assert_matches_oracle(state, subset, subset_spectrum(state, subset))


def _random_sz0_state(n, seed):
    """Random amplitudes on every basis state with n/2 spins down, and none elsewhere."""
    down = np.array([bin(i).count("1") for i in range(2**n)])
    amps = np.where(down == n // 2, np.random.default_rng(seed).standard_normal(2**n), 0.0)
    return StateVector(n_qubits=n, amplitudes=amps / np.linalg.norm(amps))


def _eigvalsh_calls(monkeypatch):
    """Count the kernel's eigvalsh calls; it calls NumPy directly."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(multipartite.np.linalg, "eigvalsh", counting)
    return calls


def _blocks_over_1x1(n, subset, down, half):
    blocks = multipartite._sector_layout(n, len(subset), down)[0]
    return sum(
        min(r, c) > 1 for d, _, r, c in blocks if not (half and 2 * d > len(subset))
    )


class TestFlipPairing:
    """Mirrored S^z blocks: decided exactly once per state, then halved."""

    def test_random_sector_state_records_no_flip_and_takes_every_block(self, monkeypatch):
        state = _random_sz0_state(6, seed=2004)
        assert state._support.down == 3
        assert state._support.flip is None
        calls = _eigvalsh_calls(monkeypatch)
        for subset in _proper_subsets(6):
            before = len(calls)
            spectrum = subset_spectrum(state, subset)
            assert len(calls) - before == _blocks_over_1x1(6, subset, 3, half=False)
            _assert_matches_oracle(state, subset, spectrum, bipartition_verdict(state, subset))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_symmetrised_state_records_its_sign_and_halves(self, sign, monkeypatch):
        raw = _random_sz0_state(6, seed=7)
        # flipping every spin moves amplitude i to 2**n - 1 - i
        amps = raw.amplitudes + sign * raw.amplitudes[::-1]
        state = StateVector(n_qubits=6, amplitudes=amps / np.linalg.norm(amps))
        assert state._support.flip == sign
        calls = _eigvalsh_calls(monkeypatch)
        for subset in _proper_subsets(6):
            before = len(calls)
            spectrum = subset_spectrum(state, subset)
            assert len(calls) - before == _blocks_over_1x1(6, subset, 3, half=True)
            _assert_matches_oracle(state, subset, spectrum, bipartition_verdict(state, subset))

    @pytest.mark.parametrize("fixture", ["state23", "state24"])
    def test_one_ulp_breaks_the_symmetry(self, fixture, request):
        state = request.getfixturevalue(fixture)
        amps = state.amplitudes.copy()
        index = int(np.flatnonzero(amps)[0])
        amps[index] = np.nextafter(amps[index], np.inf)
        nudged = StateVector(n_qubits=state.n_qubits, amplitudes=amps)
        assert state._support.flip is not None
        assert nudged._support.flip is None
        for subset in _proper_subsets(nudged.n_qubits):
            spectrum = subset_spectrum(nudged, subset)
            _assert_matches_oracle(nudged, subset, spectrum, bipartition_verdict(nudged, subset))

    def test_support_not_closed_under_the_flip(self):
        # a sector state whose support misses the flip of one of its indices
        amps = np.zeros(16)
        amps[[0b0011, 0b0101, 0b1010]] = 1.0 / math.sqrt(3.0)
        state = StateVector(n_qubits=4, amplitudes=amps)
        assert state._support.down == 2
        assert state._support.flip is None
        for subset in _proper_subsets(4):
            _assert_matches_oracle(state, subset, subset_spectrum(state, subset))

    def test_audit_halves_the_eigensolves(self, state44, monkeypatch):
        calls = _eigvalsh_calls(monkeypatch)
        odd_subset_audit(state44, max_size=5)
        even_subset_audit(state44, max_size=4)
        # 24,172 with every block diagonalised
        assert len(calls) == 13_056


class TestBipartitionVerdict:
    def test_single_site_maximally_mixed(self, state44):
        v = bipartition_verdict(state44, (7,))
        assert v.entangled
        assert v.purity == pytest.approx(0.5, abs=1e-12)
        assert v.entropy_bits == pytest.approx(1.0, abs=1e-10)

    def test_product_cut_not_entangled(self, disjoint_singlets):
        v = bipartition_verdict(disjoint_singlets, (0, 1))
        assert not v.entangled
        assert v.purity == pytest.approx(1.0, abs=1e-12)

    def test_entangled_cut_inside_pair(self, disjoint_singlets):
        v = bipartition_verdict(disjoint_singlets, (0, 2))
        assert v.entangled


class TestAudits:
    def test_odd_audit_all_entangled(self, state23):
        result = odd_subset_audit(state23, max_size=5)
        assert result.all_entangled
        sizes = {len(v.subset) for v in result.verdicts}
        assert sizes == {1, 3, 5}
        expected = sum(math.comb(6, k) for k in (1, 3, 5))
        assert len(result.verdicts) == expected

    def test_even_audit_counts(self, state23):
        result = even_subset_audit(state23, max_size=4)
        expected = sum(math.comb(6, k) for k in (2, 4))
        assert len(result.verdicts) == expected
        assert result.all_entangled

    def test_even_pair_purity_bounded(self, state23):
        # a pair RDM of Werner form has purity (3p^2+1)/4 <= 7/16 for p <= ~0.745
        result = even_subset_audit(state23, max_size=2)
        for v in result.verdicts:
            assert v.purity < 1.0 - 1e-6

    def test_over_cap_raises_before_any_spectrum(self, state44, monkeypatch):
        # C(16,1) + C(16,3) + ... + C(16,9) = 27,824 odd subsets > 20,000
        def no_spectrum(*args):
            raise AssertionError("spectrum computed before the cap check")

        monkeypatch.setattr(multipartite, "subset_spectrum", no_spectrum)
        with pytest.raises(CapExceeded, match="20000 subsets; requested 27824"):
            odd_subset_audit(state44, max_size=9)

    def test_subsets_are_valid(self, state23):
        result = odd_subset_audit(state23, max_size=3)
        for v in result.verdicts:
            assert list(v.subset) == sorted(v.subset)
            assert len(v.subset) % 2 == 1

    def test_even_audit_requires_even_sizes(self, gas_state2):
        with pytest.raises(ValueError):
            even_subset_audit(gas_state2, max_size=1)


class TestCertificate:
    def test_gas_two_pairs_genuine(self, gas_state2):
        report = genuine_multipartite_certificate(gas_state2)
        assert report.genuine
        assert report.n_cuts == 2 ** (4 - 1) - 1
        assert report.min_entropy_bits > 0.4

    def test_liquid_23_genuine(self, state23):
        report = genuine_multipartite_certificate(state23)
        assert report.genuine
        assert report.n_cuts == 2 ** (6 - 1) - 1
        assert report.min_entropy_bits == pytest.approx(0.790767, abs=1e-5)

    def test_product_state_flagged(self, disjoint_singlets):
        report = genuine_multipartite_certificate(disjoint_singlets)
        assert not report.genuine
        assert report.min_entropy_bits == pytest.approx(0.0, abs=1e-10)
        assert set(report.min_cut) in ({0, 1}, {2, 3})

    def test_cut_enumeration_covers_all_bipartitions(self, gas_state2):
        # every proper cut containing site 0, each exactly once
        report = genuine_multipartite_certificate(gas_state2)
        expected = [
            subset
            for k in range(1, 4)
            for subset in itertools.combinations(range(4), k)
            if 0 in subset
        ]
        assert report.n_cuts == len(expected)

    def test_qubit_cap(self):
        lat = LatticeSpec.square_grid(2, 7)
        state = assemble(enumerate_liquid(lat))
        with pytest.raises(CapExceeded):
            genuine_multipartite_certificate(state)


class TestAgainstDirectConstruction:
    def test_w_like_state_all_cuts_entangled(self):
        # equal superposition of single-excitation states on 3 qubits
        amps = np.zeros(8)
        for i in range(3):
            amps[1 << i] = 1.0 / math.sqrt(3.0)
        state = StateVector(n_qubits=3, amplitudes=amps)
        report = genuine_multipartite_certificate(state)
        assert report.genuine

    def test_single_covering_product_flagged(self, grid24):
        single = custom_ensemble(grid24, [enumerate_liquid(grid24).coverings[0].pairs])
        state = assemble(single)
        report = genuine_multipartite_certificate(state)
        assert not report.genuine
