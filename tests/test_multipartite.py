import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PROPERTY_SETTINGS,
    audit_oracle,
    certificate_oracle,
    entropy_bits_oracle,
    equal_weight_ensembles,
    purity_entropy_oracle,
    sector_spectrum_oracle,
    subset_spectrum_oracle,
    traced_memory,
)
from rvblab import multipartite, states
from rvblab import (
    AuditResult,
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
def state44_periodic(grid44_periodic):
    return assemble(enumerate_liquid(grid44_periodic))


@pytest.fixture(scope="module")
def state34():
    return assemble(enumerate_liquid(LatticeSpec.square_grid(3, 4)))


@pytest.fixture(scope="module")
def state26_periodic():
    return assemble(enumerate_liquid(LatticeSpec.square_grid(2, 6, boundary="periodic")))


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
        assert state._support.orbit_bits is not None  # one spectrum per orbit
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

        monkeypatch.setattr(multipartite, "_sector_spectra", no_sector)
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

        for name in ("_subset_block", "_sector_spectra", "_dense_spectrum"):
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
    """One entry per matrix the kernel diagonalises; it calls NumPy directly.

    A stacked call on (m, r, r) counts m matrices, so the count does not
    depend on how the kernel batches them.
    """
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.extend([a.shape[-2:]] * math.prod(a.shape[:-2]))
        return eigvalsh(a)

    monkeypatch.setattr(multipartite.np.linalg, "eigvalsh", counting)
    return calls


def _blocks_over_1x1(n, subset, down, half):
    """S^z blocks of ``subset`` whose Gram matrix is over 1x1, the mirrored half skipped."""
    k = len(subset)
    return sum(
        min(math.comb(k, d), math.comb(n - k, down - d)) > 1
        for d in range(min(k, down) + 1)
        if not (half and 2 * d > k)
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
        # a copy carries no symmetry candidates: one spectrum per subset
        plain = StateVector(16, state44.amplitudes)
        odd_subset_audit(plain, max_size=5)
        even_subset_audit(plain, max_size=4)
        # 24,172 with every block diagonalised
        assert len(calls) == 13_056
        calls.clear()
        # the assembled state: one spectrum per orbit of its 8-element group
        odd_subset_audit(state44, max_size=5)
        even_subset_audit(state44, max_size=4)
        assert len(calls) == 1_736


def _group_perms(support):
    """The verified group as site permutations, one row per element."""
    return np.log2(support.orbit_bits).astype(np.int64)


def _closure_oracle(generators, n):
    """Every product of the generators, by repeated composition to a fixed point."""
    group = {tuple(range(n))}
    while True:
        grown = group | {tuple(h[s] for s in g) for g in group for h in generators}
        if grown == group:
            return group
        group = grown


def _orbit_count_oracle(lattice, sizes):
    """Distinct subset orbits under the closed lattice generators, by brute force."""
    n = lattice.site_count
    group = _closure_oracle(lattice.symmetry_generators(), n)
    return len(
        {
            min(tuple(sorted(g[s] for s in subset)) for g in group)
            for k in sizes
            for subset in itertools.combinations(range(n), k)
        }
    )


def _cut_index(cut, n):
    """Position of a cut in the certificate's enumeration order."""
    cuts = [(0,) + rest for k in range(1, n) for rest in itertools.combinations(range(1, n), k - 1)]
    return cuts.index(tuple(cut))


def _grids_up_to(max_sites):
    out = []
    for boundary in ("open", "periodic"):
        for rows in range(1, max_sites + 1):
            for cols in range(1, max_sites // rows + 1):
                try:
                    out.append(LatticeSpec.square_grid(rows, cols, boundary=boundary))
                except ValueError:  # odd site count, or an odd periodic side
                    pass
    return out


CERTIFICATE_GRIDS = _grids_up_to(multipartite.CERTIFICATE_MAX_QUBITS)

# grids where the unreduced scan picks its min_cut by rounding alone: a
# single site and its complement have one spectrum, and the complement's
# entropy comes out one ulp lower than the site's
ROUNDING_TIES = {(2, 6, "periodic"), (4, 2, "periodic"), (6, 2, "periodic")}


class TestOrbits:
    """One spectrum per lattice-symmetry orbit, pinned to the unreduced routes."""

    @pytest.mark.parametrize(
        "rows, cols, boundary, order",
        [(4, 4, "open", 8), (4, 4, "periodic", 128), (2, 4, "open", 4), (3, 4, "open", 4)],
    )
    def test_verified_group(self, rows, cols, boundary, order):
        lattice = LatticeSpec.square_grid(rows, cols, boundary=boundary)
        state = assemble(enumerate_liquid(lattice))
        n = state.n_qubits
        perms = _group_perms(state._support)
        assert perms.shape == (order, n)
        assert len({tuple(g) for g in perms}) == order
        assert {tuple(g) for g in perms} == _closure_oracle(lattice.symmetry_generators(), n)
        assert not state._support.orbit_bits.flags.writeable
        # every element maps the dense state to plus or minus itself
        psi = state.amplitudes
        basis = np.arange(2**n)
        for g in perms:
            image = sum(((basis >> s) & 1) << int(g[s]) for s in range(n))
            moved = np.empty_like(psi)
            moved[image] = psi
            assert np.array_equal(moved, psi) or np.array_equal(moved, -psi)

    @pytest.mark.parametrize(
        "fixture, lattice_fixture, orbits",
        [("state44", "grid44", 920), ("state44_periodic", "grid44_periodic", 102)],
    )
    def test_audit_computes_one_spectrum_per_orbit(
        self, fixture, lattice_fixture, orbits, request, monkeypatch
    ):
        state = _fresh(request.getfixturevalue(fixture))
        lattice = request.getfixturevalue(lattice_fixture)
        assert _orbit_count_oracle(lattice, (1, 2, 3, 4, 5)) == orbits
        computed = []
        spectra = multipartite._sector_spectra

        def counting(support, n, masks, k):
            computed.extend(int(mask) for mask in masks)
            return spectra(support, n, masks, k)

        monkeypatch.setattr(multipartite, "_sector_spectra", counting)
        odd = odd_subset_audit(state, max_size=5)
        even = even_subset_audit(state, max_size=4)
        assert len(odd.verdicts) + len(even.verdicts) == 6884
        assert len(computed) == len(set(computed)) == orbits
        # the memo keeps the last size only
        assert {rep.bit_count() for rep in state._support.spectra} == {4}

    def test_one_ulp_leaves_no_group(self, state44, grid44):
        amps = state44.amplitudes.copy()
        generators = grid44.symmetry_generators()
        # an entry that no generator (nor the flip) sends to itself
        n = state44.n_qubits
        for index in np.flatnonzero(amps):
            images = [sum(((int(index) >> s) & 1) << g[s] for s in range(n)) for g in generators]
            if index not in images:
                break
        else:
            pytest.fail("every support index is fixed by some generator")
        amps[index] = np.nextafter(amps[index], np.inf)
        nudged = StateVector(n, amps, _site_generators=generators)
        intact = StateVector(n, state44.amplitudes, _site_generators=generators)
        assert intact._support.orbit_bits.shape == (8, n)
        assert nudged._support.orbit_bits is None
        assert nudged._support.flip is None
        for subset in [(0,), (5, 6), (0, 5, 10), (1, 2, 7, 11), (0, 3, 12, 15)]:
            _assert_matches_oracle(nudged, subset, subset_spectrum(nudged, subset))

    def test_candidate_that_is_no_symmetry_is_rejected(self, state44, grid44):
        n = state44.n_qubits
        # swapping sites 0 and 1 exchanges a corner and an edge site
        swap = (1, 0) + tuple(range(2, n))
        row_reflection = grid44.symmetry_generators()[0]
        only_swap = StateVector(n, state44.amplitudes, _site_generators=(swap,))
        assert only_swap._support.orbit_bits is None
        mixed = StateVector(n, state44.amplitudes, _site_generators=(swap, row_reflection))
        assert {tuple(g) for g in _group_perms(mixed._support)} == {
            tuple(range(n)),
            row_reflection,
        }

    def test_states_without_candidates_keep_the_unreduced_route(self, state44, gas_state4):
        loaded = states.state_from_bytes(states.state_to_bytes(state44))
        for state in (StateVector(16, state44.amplitudes), loaded, gas_state4):
            assert state._support.orbit_bits is None

    def test_spectrum_is_a_function_of_state_and_subset(self, state44, monkeypatch):
        # bare calls, calls inside a scan, and calls after one agree bit for bit
        subsets = [(0,), (3,), (12,), (1, 2), (4, 8), (0, 5, 10), (5, 10, 15)]
        bare = [subset_spectrum(state44, s).tobytes() for s in subsets]
        seen = {}

        def recording(st_, subset):
            seen[tuple(subset)] = spectrum = subset_spectrum(st_, subset)
            return spectrum

        monkeypatch.setattr(multipartite, "subset_spectrum", recording)
        odd_subset_audit(state44, max_size=3)
        even_subset_audit(state44, max_size=2)
        monkeypatch.undo()
        assert [seen[s].tobytes() for s in subsets] == bare
        assert [subset_spectrum(state44, s).tobytes() for s in subsets] == bare
        # orbit members tie bit for bit: the four corners, then the centre
        assert len({subset_spectrum(state44, (s,)).tobytes() for s in (0, 3, 12, 15)}) == 1
        assert len({subset_spectrum(state44, (s,)).tobytes() for s in (5, 6, 9, 10)}) == 1

    def test_scan_hands_out_copies(self, state44):
        state = _fresh(state44)
        first = subset_spectrum(state, (0, 1))
        first[:] = -1.0
        # (2, 3) is the column mirror image of (0, 1): one memo entry serves both
        second = subset_spectrum(state, (2, 3))
        assert len(state._support.spectra) == 1
        _assert_matches_oracle(state, (2, 3), second)

    @pytest.mark.parametrize(
        "lattice",
        CERTIFICATE_GRIDS,
        ids=[f"{g.rows}x{g.cols}-{g.boundary.value}" for g in CERTIFICATE_GRIDS],
    )
    def test_certificate_equals_the_unreduced_scan(self, lattice):
        state = assemble(enumerate_liquid(lattice))
        n = state.n_qubits
        cert = genuine_multipartite_certificate(state)
        plain_state = StateVector(n, state.amplitudes)
        plain = genuine_multipartite_certificate(plain_state)
        assert (cert.genuine, cert.n_cuts) == (plain.genuine, plain.n_cuts)
        assert abs(cert.min_entropy_bits - plain.min_entropy_bits) <= 1e-12
        key = (lattice.rows, lattice.cols, lattice.boundary.value)
        if key not in ROUNDING_TIES:
            assert cert.min_cut == plain.min_cut
            return
        # the orbit scan keeps the earlier of two cuts that tie to one ulp
        tied = bipartition_verdict(plain_state, cert.min_cut).entropy_bits
        assert 0.0 < tied - plain.min_entropy_bits <= 1e-15
        assert _cut_index(cert.min_cut, n) < _cut_index(plain.min_cut, n)


# (genuine, n_cuts, min_cut, repr(min_entropy_bits)) of every certificate
# grid, as the scan computed them before subsets were mapped to
# representatives in one array pass per size
CERTIFICATE_PINS = {
    (1, 2, "open"): (True, 1, (0,), "0.9999999999999999"),
    (1, 4, "open"): (False, 7, (0, 1), "-0.0"),
    (1, 6, "open"): (False, 31, (0, 1), "1.6017132519074586e-16"),
    (1, 8, "open"): (False, 127, (0, 1), "-0.0"),
    (1, 10, "open"): (False, 511, (0, 1), "-3.2034265038149176e-16"),
    (1, 12, "open"): (False, 2047, (0, 1), "-0.0"),
    (2, 1, "open"): (True, 1, (0,), "0.9999999999999999"),
    (2, 2, "open"): (True, 7, (0,), "1.0"),
    (2, 3, "open"): (True, 31, (0, 3), "0.7907669479360191"),
    (2, 4, "open"): (True, 127, (0, 1, 4, 5), "0.44063469410271106"),
    (2, 5, "open"): (True, 511, (0, 1, 2, 5, 6, 7), "0.5861443237126076"),
    (2, 6, "open"): (True, 2047, (0, 1, 2, 3, 6, 7, 8, 9), "0.5260847921940384"),
    (3, 2, "open"): (True, 31, (0, 1), "0.7907669479360191"),
    (3, 4, "open"): (True, 2047, (0, 1, 4, 5, 8, 9), "0.384852173568554"),
    (4, 1, "open"): (False, 7, (0, 1), "-0.0"),
    (4, 2, "open"): (True, 127, (0, 1, 2, 3), "0.4406346941027144"),
    (4, 3, "open"): (True, 2047, (0, 1, 2, 3, 4, 5), "0.3848521735685579"),
    (5, 2, "open"): (True, 511, (0, 1, 2, 3), "0.5861443237126092"),
    (6, 1, "open"): (False, 31, (0, 1), "1.6017132519074586e-16"),
    (6, 2, "open"): (True, 2047, (0, 1, 2, 3, 4, 5, 6, 7), "0.5260847921940357"),
    (8, 1, "open"): (False, 127, (0, 1), "-0.0"),
    (10, 1, "open"): (False, 511, (0, 1), "-3.2034265038149176e-16"),
    (12, 1, "open"): (False, 2047, (0, 1), "-0.0"),
    (1, 2, "periodic"): (True, 1, (0,), "0.9999999999999999"),
    (1, 4, "periodic"): (True, 7, (0,), "1.0"),
    (1, 6, "periodic"): (True, 31, (0,), "1.0"),
    (1, 8, "periodic"): (True, 127, (0,), "0.9999999999999999"),
    (1, 10, "periodic"): (True, 511, (0,), "1.0"),
    (1, 12, "periodic"): (True, 2047, (0,), "1.0"),
    (2, 1, "periodic"): (True, 1, (0,), "0.9999999999999999"),
    (2, 2, "periodic"): (True, 7, (0,), "1.0"),
    (2, 4, "periodic"): (True, 127, (0,), "0.9999999999999999"),
    (2, 6, "periodic"): (True, 2047, (0,), "0.9999999999999999"),
    (4, 1, "periodic"): (True, 7, (0,), "1.0"),
    (4, 2, "periodic"): (True, 127, (0,), "1.0"),
    (6, 1, "periodic"): (True, 31, (0,), "1.0"),
    (6, 2, "periodic"): (True, 2047, (0,), "0.9999999999999999"),
    (8, 1, "periodic"): (True, 127, (0,), "0.9999999999999999"),
    (10, 1, "periodic"): (True, 511, (0,), "1.0"),
    (12, 1, "periodic"): (True, 2047, (0,), "1.0"),
}


def _mask(subset):
    return sum(1 << s for s in subset)


def _fresh(state):
    """A new state with ``state``'s amplitudes and generators: no memo filled yet."""
    return StateVector(
        state.n_qubits, state.amplitudes, _site_generators=state._site_generators
    )


def _per_subset_rep(support, subset):
    """The smallest image bitmask of one subset under the verified group."""
    return int(support.orbit_bits[:, list(subset)].sum(axis=1).min())


class TestSubsetListing:
    """One listing of each size's subsets serves the audits and the certificate."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_certificate_rows_are_the_cuts_that_hold_site_0(self, n):
        for k in range(1, n):
            listed = multipartite._subsets(n, k)
            assert listed.dtype == np.min_scalar_type(n - 1) and listed.shape == (math.comb(n, k), k)
            cuts = listed[: math.comb(n - 1, k - 1)].tolist()
            assert cuts == [[0, *rest] for rest in itertools.combinations(range(1, n), k - 1)]
            # and the rows after them are every other subset, still in order
            rest = listed[math.comb(n - 1, k - 1) :].tolist()
            assert rest == [list(c) for c in itertools.combinations(range(1, n), k)]


class TestRepresentativeTable:
    """One array pass per subset size, pinned to the per-subset route."""

    @pytest.mark.parametrize("fixture", ["state44", "state44_periodic"])
    def test_table_equals_the_per_subset_minimum(self, fixture, request):
        support = _fresh(request.getfixturevalue(fixture))._support
        assert support.reps.shape == (2**16,) and not np.any(support.reps)
        for k in range(1, 6):
            multipartite._map_representatives(support, multipartite._subsets(16, k))
            for subset in itertools.combinations(range(16), k):
                assert support.reps[_mask(subset)] == _per_subset_rep(support, subset)
        filled = sum(math.comb(16, k) for k in range(1, 6))
        assert np.count_nonzero(support.reps) == filled

    def test_certificate_cuts_map_to_the_per_subset_minimum(self, monkeypatch):
        state = assemble(enumerate_liquid(LatticeSpec.square_grid(3, 4)))
        support = state._support
        assert support.orbit_bits is not None
        fill = multipartite._map_representatives
        seen = []

        def checked(support_, sites):
            reps = fill(support_, sites)
            subsets = [tuple(row) for row in sites.tolist()]
            for subset, rep in zip(subsets, reps, strict=True):
                assert support_.reps[_mask(subset)] == rep == _per_subset_rep(support, subset)
            seen.extend(subsets)
            return reps

        monkeypatch.setattr(multipartite, "_map_representatives", checked)
        report = genuine_multipartite_certificate(state)
        assert len(seen) == len(set(seen)) == report.n_cuts == 2**11 - 1
        assert all(cut[0] == 0 for cut in seen)

    @pytest.mark.parametrize("fixture", ["state44", "state44_periodic", "copy44"])
    def test_audit_verdicts_equal_the_per_subset_route(self, fixture, request):
        if fixture == "copy44":
            state = StateVector(16, request.getfixturevalue("state44").amplitudes)
        else:
            state = request.getfixturevalue(fixture)
        audited, plain = _fresh(state), _fresh(state)
        tabled = odd_subset_audit(audited, 5).verdicts + even_subset_audit(audited, 4).verdicts
        # bare calls on a state whose table no size pass has filled: each
        # subset maps its own row and takes its own mixedness
        per_subset = tuple(bipartition_verdict(plain, v.subset) for v in tabled)
        table = plain._support.reps
        assert (table is None) == (fixture == "copy44")
        if table is not None:
            # every call wrote its own subset's entry, and each entry is the
            # direct minimum over the group
            written = np.flatnonzero(table).tolist()
            assert written == sorted(_mask(v.subset) for v in tabled)
            for v in tabled:
                assert table[_mask(v.subset)] == _per_subset_rep(plain._support, v.subset)
        assert len(tabled) == 6884
        assert tabled == per_subset

    def test_scan_verdicts_equal_bare_calls(self, state44):
        # purity and entropy come from the scan's memo, computed once per spectrum
        scanned = odd_subset_audit(state44, 5).verdicts + even_subset_audit(state44, 4).verdicts
        assert scanned == tuple(bipartition_verdict(state44, v.subset) for v in scanned)

    def test_unmapped_size_falls_back_to_the_direct_minimum(self, state44):
        subsets = [(0,), (15,), (1, 2), (4, 8), (0, 5, 10), (3, 6, 9, 12), (1, 2, 7, 11, 13)]
        bare = [subset_spectrum(_fresh(state44), s).tobytes() for s in subsets]
        state = _fresh(state44)
        support = state._support
        # a table of another size holds none of these
        multipartite._map_representatives(support, multipartite._subsets(16, 6))
        assert not any(support.reps[_mask(s)] for s in subsets)
        for subset, expected in zip(subsets, bare):
            assert subset_spectrum(state, subset).tobytes() == expected
            # the spectrum was entered under the direct minimum, and so was
            # the subset's table entry
            assert _per_subset_rep(support, subset) in support.spectra
            assert support.reps[_mask(subset)] == _per_subset_rep(support, subset)
            _assert_matches_oracle(state, subset, subset_spectrum(state, subset))

    @pytest.mark.parametrize(
        "scan",
        [
            lambda state: odd_subset_audit(state, 5),
            lambda state: even_subset_audit(state, 4),
            genuine_multipartite_certificate,
        ],
        ids=["odd", "even", "certificate"],
    )
    def test_failed_batch_enters_nothing(self, scan, state23, monkeypatch):
        expected = scan(_fresh(state23))
        state = _fresh(state23)
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def failing(a):
            calls.append(a.shape)
            if len(calls) == 3:
                raise RuntimeError("spectrum failed")
            return eigvalsh(a)

        # one subset per chunk, each chunk at least one eigensolve
        monkeypatch.setattr(multipartite, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(multipartite.np.linalg, "eigvalsh", failing)
        batches = []
        spectra = multipartite._sector_spectra

        def recording(support, n, masks, k):
            batches.append((len(calls), [int(m) for m in masks]))
            return spectra(support, n, masks, k)

        monkeypatch.setattr(multipartite, "_sector_spectra", recording)
        with pytest.raises(RuntimeError, match="spectrum failed"):
            scan(state)
        # the failing batch had finished a chunk and had subsets left
        solved_before, masks = batches[-1]
        assert solved_before < len(calls) - 1 and len(calls) - solved_before < len(masks)
        # ...and entered none of its spectra, not even the finished chunk's
        assert not state._support.spectra.keys() & set(masks)
        monkeypatch.undo()
        # the next scan equals the first
        assert scan(state) == expected

    @pytest.mark.parametrize(
        "lattice",
        CERTIFICATE_GRIDS,
        ids=[f"{g.rows}x{g.cols}-{g.boundary.value}" for g in CERTIFICATE_GRIDS],
    )
    def test_certificate_is_pinned(self, lattice):
        assert len(CERTIFICATE_PINS) == len(CERTIFICATE_GRIDS)
        cert = genuine_multipartite_certificate(assemble(enumerate_liquid(lattice)))
        got = (cert.genuine, cert.n_cuts, cert.min_cut, repr(cert.min_entropy_bits))
        assert got == CERTIFICATE_PINS[(lattice.rows, lattice.cols, lattice.boundary.value)]



def _assert_certificate_matches_oracle(state):
    cert = genuine_multipartite_certificate(state)
    want = certificate_oracle(state)
    assert cert == want
    # the whole repr: min_entropy_bits to the last digit, min_cut of plain ints
    assert repr(cert) == repr(want)
    return cert


class TestArrayCertificate:
    """Every cut's numbers read from the memo, pinned to the walk over one cut at a time."""

    @pytest.mark.parametrize(
        "lattice",
        CERTIFICATE_GRIDS,
        ids=[f"{g.rows}x{g.cols}-{g.boundary.value}" for g in CERTIFICATE_GRIDS],
    )
    def test_every_certificate_grid(self, lattice):
        _assert_certificate_matches_oracle(assemble(enumerate_liquid(lattice)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gas(self, n):
        cert = _assert_certificate_matches_oracle(
            assemble(enumerate_gas(LatticeSpec.complete_bipartite(n)))
        )
        assert cert.genuine and cert.n_cuts == 2 ** (2 * n - 1) - 1

    @pytest.mark.parametrize(
        "state", [_ghz(5), _random_state(6, 7), _random_state(7, 8)], ids=["ghz5", "random6", "random7"]
    )
    def test_states_with_no_sector_take_the_dense_route(self, state, monkeypatch):
        assert state._support is None
        calls = []
        spectrum = multipartite.subset_spectrum

        def counting(state_, subset):
            calls.append(tuple(subset))
            return spectrum(state_, subset)

        monkeypatch.setattr(multipartite, "subset_spectrum", counting)
        cert = genuine_multipartite_certificate(state)
        # one spectrum per cut, in enumeration order
        n = state.n_qubits
        cuts = [(0, *rest) for k in range(1, n) for rest in itertools.combinations(range(1, n), k - 1)]
        assert calls == cuts
        monkeypatch.undo()
        assert cert.n_cuts == len(calls)
        _assert_certificate_matches_oracle(state)

    def test_sector_route_reads_no_spectrum_per_cut(self, state34, monkeypatch):
        def no_spectrum(*args):
            raise AssertionError("subset_spectrum called on the sector route")

        state = _fresh(state34)
        monkeypatch.setattr(multipartite, "subset_spectrum", no_spectrum)
        cert = genuine_multipartite_certificate(state)
        monkeypatch.undo()
        assert cert == certificate_oracle(_fresh(state34))

    @pytest.mark.parametrize("cols", [4, 8])
    def test_product_cut_of_negative_zero_entropy(self, cols):
        # an open chain has one covering: a product of singlets on (0, 1), (2, 3), ...
        chain = assemble(enumerate_liquid(LatticeSpec.square_grid(1, cols)))
        cert = _assert_certificate_matches_oracle(chain)
        assert not cert.genuine
        assert cert.min_cut == (0, 1)
        assert repr(cert.min_entropy_bits) == "-0.0"


def _spectra_rows(kind, rng, rows, length):
    """Descending spectra of one kind: zero tails, no zeros, or one nonzero entry."""
    w = rng.random((rows, length)) ** rng.integers(1, 6, size=(rows, 1))
    if kind == "zero-tails":
        w[np.arange(length) >= rng.integers(1, length + 1, size=(rows, 1))] = 0.0
    elif kind == "one-nonzero":
        w[:, 1:] = 0.0
    w = -np.sort(-w, axis=1)
    return w / w.sum(axis=1, keepdims=True)


class TestMixednessRows:
    """Each row of a stacked ``_mixedness`` call has the bits of a one-spectrum call."""

    @pytest.mark.parametrize("kind", ["zero-tails", "no-zeros", "one-nonzero"])
    @pytest.mark.parametrize("length", [1, 2, 4, 9, 16, 64, 256])
    def test_rows_equal_one_spectrum_calls(self, kind, length):
        rng = np.random.default_rng(length)
        w = _spectra_rows(kind, rng, 40, length)
        purity, entropy, entangled = multipartite._mixedness(w)
        assert purity.shape == entropy.shape == entangled.shape == (40,)
        for row, p, e, flag in zip(w, purity.tolist(), entropy.tolist(), entangled.tolist()):
            want_p, want_e = purity_entropy_oracle(row)
            assert (p.hex(), repr(e)) == (want_p.hex(), repr(want_e))
            assert flag == (want_p < 1.0 - multipartite.ENTANGLED_PURITY_TOL)
            one = multipartite._mixedness(row[None])
            assert [c.tolist() for c in one] == [[p], [e], [flag]]
            assert repr(one[1][0].item()) == repr(e)

    def test_a_pure_row_has_negative_zero_entropy(self):
        purity, entropy, entangled = multipartite._mixedness(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert (purity.tolist(), repr(float(entropy[0])), entangled.tolist()) == ([1.0], "-0.0", [False])

class TestSpectrumMemo:
    """The spectra of one subset size, kept on the state's support."""

    def test_second_bare_pass_computes_no_spectrum(self, state44, monkeypatch):
        state = _fresh(state44)
        computed = []
        spectra = multipartite._sector_spectra

        def counting(support, n, masks, k):
            computed.extend(int(mask) for mask in masks)
            return spectra(support, n, masks, k)

        monkeypatch.setattr(multipartite, "_sector_spectra", counting)
        first = second = walked = 0
        # the audits' sizes, in their order; the memo keeps one size at a time
        for k in (1, 3, 5, 2, 4):
            before = len(computed)
            for subset in itertools.combinations(range(16), k):
                subset_spectrum(state, subset)
            first += len(computed) - before
            before = len(computed)
            for subset in itertools.combinations(range(16), k):
                subset_spectrum(state, subset)
                walked += 1
            second += len(computed) - before
        assert walked == 6884
        # one spectrum per orbit, then none
        assert (first, second) == (920, 0)

    @pytest.mark.parametrize("name", ["open44", "gas6", "ghz6"])
    def test_entries_hold_their_one_row_mixedness(self, name, state44):
        if name == "open44":
            state = _fresh(state44)
        elif name == "gas6":
            state = assemble(enumerate_gas(LatticeSpec.complete_bipartite(6)))
        else:
            state = _ghz(6)
        support = state._support
        shared = 0
        for scan, k in ((odd_subset_audit, 5), (even_subset_audit, 4)):
            # the memo keeps the last size, the audit's largest
            audit = scan(state, k)
            if support is None:
                # no memo: the stacked dense spectra take one _mixedness call
                for v in audit.verdicts:
                    one = multipartite._mixedness(subset_spectrum(state, v.subset)[None])
                    assert (v.purity, v.entropy_bits, v.entangled) == tuple(
                        column.item() for column in one
                    )
                continue
            memo = support.spectra
            assert {rep.bit_count() for rep in memo} == {k}
            for rep, (spectrum, stats) in memo.items():
                one = tuple(column.item() for column in multipartite._mixedness(spectrum[None]))
                assert [x.hex() for x in stats[:2]] == [x.hex() for x in one[:2]], rep
                assert stats[2] is one[2]
            # every verdict of the memo's size has its entry's bits
            by_rep = {}
            for v in audit.verdicts:
                if len(v.subset) != k:
                    continue
                rep = _mask(v.subset) if support.reps is None else int(support.reps[_mask(v.subset)])
                _, (purity, entropy, entangled) = memo[rep]
                assert (v.purity.hex(), v.entropy_bits.hex(), v.entangled) == (
                    purity.hex(),
                    entropy.hex(),
                    entangled,
                )
                by_rep.setdefault(rep, []).append(v)
            shared += sum(len(orbit) > 1 for orbit in by_rep.values())
        # the open 4x4 has orbits of several subsets; the gas has no group
        assert (shared > 0) == (name == "open44")

    def test_certificate_leaves_one_size(self):
        state = assemble(enumerate_liquid(LatticeSpec.square_grid(3, 4)))
        genuine_multipartite_certificate(state)
        assert {rep.bit_count() for rep in state._support.spectra} == {11}

    def test_states_share_no_memo(self, state44, monkeypatch):
        one, other = _fresh(state44), _fresh(state44)
        expected = subset_spectrum(one, (0, 1))
        assert one._support is not other._support
        assert not other._support.spectra and not np.any(other._support.reps)
        computed = []
        spectra = multipartite._sector_spectra

        def counting(support, n, masks, k):
            computed.append(support)
            return spectra(support, n, masks, k)

        monkeypatch.setattr(multipartite, "_sector_spectra", counting)
        assert subset_spectrum(other, (0, 1)).tobytes() == expected.tobytes()
        assert len(computed) == 1 and computed[0] is other._support


def _nudged(state):
    """``state`` with one amplitude one ulp up: no flip symmetry, no group."""
    amps = state.amplitudes.copy()
    index = int(np.flatnonzero(amps)[0])
    amps[index] = np.nextafter(amps[index], np.inf)
    return StateVector(n_qubits=state.n_qubits, amplitudes=amps)


def _every_subset_mask(state):
    n = state.n_qubits
    return {k: [_mask(s) for s in itertools.combinations(range(n), k)] for k in range(1, n)}


def _audit_representatives(state):
    n = state.n_qubits
    return {
        k: sorted({_per_subset_rep(state._support, s) for s in itertools.combinations(range(n), k)})
        for k in range(1, 6)
    }


class TestBatchedKernel:
    """The batched sector kernel, pinned bit for bit to the one-subset kernel."""

    @pytest.mark.parametrize(
        "fixture, masks, flip, group, count",
        [
            ("state44", _audit_representatives, 1, True, 920),
            ("state44_periodic", _audit_representatives, 1, True, 102),
            ("state23", _every_subset_mask, -1, True, 2**6 - 2),
            ("state34", _every_subset_mask, 1, True, 2**12 - 2),
            ("state26_periodic", _every_subset_mask, 1, True, 2**12 - 2),
            # the flip, but no lattice group to reduce by
            ("gas_state4", _every_subset_mask, 1, False, 2**8 - 2),
            # no flip: every block is diagonalised
            ("nudged24", _every_subset_mask, None, False, 2**8 - 2),
        ],
        ids=["open44-reps", "periodic44-reps", "open23", "open34", "periodic26", "gas4", "nudged24"],
    )
    def test_equals_the_one_subset_kernel(
        self, fixture, masks, flip, group, count, request, monkeypatch
    ):
        if fixture == "nudged24":
            state = _nudged(request.getfixturevalue("state24"))
        else:
            state = request.getfixturevalue(fixture)
        support = state._support
        n = state.n_qubits
        assert support.flip == flip
        assert (support.orbit_bits is not None) == group
        by_size = masks(state)
        assert sum(map(len, by_size.values())) == count
        for k, ks in by_size.items():
            expected = [
                sector_spectrum_oracle(support, n, tuple(s for s in range(n) if m >> s & 1))
                for m in ks
            ]
            single = [multipartite._sector_spectra(support, n, [m], k) for m in ks]
            assert [got.shape for got in single] == [(1, ref.size) for ref in expected]
            assert [got.tobytes() for got in single] == [ref.tobytes() for ref in expected]
            size = multipartite._sector_layout(n, k, support.down, flip is not None)[2]
            # one chunk, chunks of three, one subset per chunk
            for per_chunk in (len(ks), 3, 1):
                monkeypatch.setattr(multipartite, "_CHUNK_BYTES", 8 * size * per_chunk)
                got = multipartite._sector_spectra(support, n, np.array(ks), k)
                assert got.shape == (len(ks), expected[0].size)
                assert [row.tobytes() for row in got] == [ref.tobytes() for ref in expected]


class TestFloat32Recode:
    """The float32 recode of the support, pinned to integer bit moves."""

    def test_equals_the_integer_recode_for_every_subset_mask(self, state44):
        support = state44._support
        assert support.bits.dtype == np.float32 and support.bits.shape[1] == 16
        bits = support.bits.T
        index = (support.bits.astype(np.int64) << np.arange(16)).sum(axis=1)
        assert np.array_equal(index, np.flatnonzero(state44.amplitudes))
        low, high = index & 0xFF, index >> 8
        byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        checked = 0
        for k in range(1, 16):
            sites = multipartite._subsets(16, k).astype(np.int64)
            masks = np.left_shift(1, sites).sum(axis=1)
            member = np.zeros((masks.size, 16), dtype=bool)
            np.put_along_axis(member, sites, True, axis=1)
            # the rest's sites in ascending order: False sorts first, stably
            rest = np.argsort(member, axis=1, kind="stable")[:, : 16 - k]
            # place[r, s]: the bit site s moves to, its rank in the subset
            # or k plus its rank in the rest
            place = np.empty((masks.size, 16), dtype=np.int64)
            np.put_along_axis(place, sites, np.arange(k), axis=1)
            np.put_along_axis(place, rest, k + np.arange(16 - k), axis=1)
            for lo in range(0, masks.size, 512):
                moved = 1 << place[lo : lo + 512]
                # per subset, one table per byte of the index: where its set bits move
                expected = np.take(moved[:, :8] @ byte_bits.T, low, axis=1)
                expected += np.take(moved[:, 8:] @ byte_bits.T, high, axis=1)
                got = multipartite._recode(bits, masks[lo : lo + 512], k)
                assert got.dtype == expected.dtype and (got == expected).all(), k
                checked += got.shape[0]
        assert checked == 2**16 - 2


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


AUDIT_STATES = ["open24", "open34", "open44", "periodic44", "gas6", "ghz6"]


def _audit_state(name, request):
    if name == "gas6":
        return assemble(enumerate_gas(LatticeSpec.complete_bipartite(6)))
    if name == "ghz6":
        return _ghz(6)
    fixture = {
        "open24": "state24",
        "open34": "state34",
        "open44": "state44",
        "periodic44": "state44_periodic",
    }[name]
    return _fresh(request.getfixturevalue(fixture))


def _oracle_result(oracle, sizes):
    """The AuditResult that holds ``oracle``'s verdicts."""
    sites = tuple(np.array([v.subset for v in oracle if len(v.subset) == k]) for k in sizes)
    purity, entropy, entangled = (
        np.array([getattr(v, name) for v in oracle])
        for name in ("purity", "entropy_bits", "entangled")
    )
    return AuditResult(sites, purity, entropy, entangled)


class TestAuditArrays:
    """The audits' arrays, pinned bit for bit to the walk that made one verdict per subset."""

    @pytest.mark.parametrize("name", AUDIT_STATES)
    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_equal_the_per_subset_walk(self, name, parity, request):
        state = _audit_state(name, request)
        n = state.n_qubits
        assert (state._support is None) == (name == "ghz6")  # the dense route
        scan, first, max_size = {"odd": (odd_subset_audit, 1, 5), "even": (even_subset_audit, 2, 4)}[
            parity
        ]
        sizes = range(first, min(max_size, n - 1) + 1, 2)
        audit = scan(state, max_size)
        oracle = audit_oracle(_audit_state(name, request), sizes)
        # each size's narrow site array, as the listing gives it
        assert len(audit.sites) == len(sizes)
        for sites, k in zip(audit.sites, sizes):
            assert sites.dtype == np.min_scalar_type(n - 1)
            assert np.array_equal(sites, multipartite._subsets(n, k))
        # the three arrays, bit for bit
        assert (audit.purity.dtype, audit.entropy_bits.dtype, audit.entangled.dtype) == (
            np.float64,
            np.float64,
            np.bool_,
        )
        for name_ in ("purity", "entropy_bits", "entangled"):
            want = np.array([getattr(v, name_) for v in oracle])
            assert getattr(audit, name_).tobytes() == want.tobytes(), name_
        for array in (*audit.sites, audit.purity, audit.entropy_bits, audit.entangled):
            assert not array.flags.writeable
        # the verdicts view: the walk's tuples, of plain ints, floats and bools
        verdicts = audit.verdicts
        assert verdicts == oracle
        assert [
            (v.subset, v.purity.hex(), v.entropy_bits.hex(), v.entangled) for v in verdicts
        ] == [(v.subset, v.purity.hex(), v.entropy_bits.hex(), v.entangled) for v in oracle]
        assert {type(x) for v in verdicts for x in (*v.subset, v.purity, v.entangled)} == {
            int,
            float,
            bool,
        }
        # value equality, the length and the flag
        assert audit == _oracle_result(oracle, sizes)
        assert len(audit) == len(oracle) == sum(math.comb(n, k) for k in sizes)
        assert audit.all_entangled is all(v.entangled for v in oracle)

    def test_equality_is_by_value(self, state23):
        one, other = odd_subset_audit(_fresh(state23)), odd_subset_audit(_fresh(state23))
        assert one is not other and one == other
        entropy = one.entropy_bits.copy()
        entropy[-1] = np.nextafter(entropy[-1], 0.0)
        assert AuditResult(one.sites, one.purity, entropy, one.entangled) != one
        assert one != odd_subset_audit(state23, 3)  # a size fewer
        assert one != even_subset_audit(state23, 4)
        assert one != one.verdicts

    def test_product_cut_clears_all_entangled(self, disjoint_singlets):
        audit = even_subset_audit(disjoint_singlets, 2)
        assert not audit.all_entangled
        assert [v.subset for v in audit.verdicts if not v.entangled] == [(0, 1), (2, 3)]


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

    def test_each_subset_reaches_subset_spectrum_once(self, state44, monkeypatch):
        # the benchmark counts these calls on the open 4x4 (6,884 in all)
        calls = []
        spectrum = multipartite.subset_spectrum

        def counting(state, subset):
            calls.append(tuple(subset))
            return spectrum(state, subset)

        monkeypatch.setattr(multipartite, "subset_spectrum", counting)
        for audit, max_size, sizes, total in [
            (odd_subset_audit, 5, (1, 3, 5), 4944),
            (even_subset_audit, 4, (2, 4), 1940),
        ]:
            calls.clear()
            result = audit(state44, max_size)
            expected = [s for k in sizes for s in itertools.combinations(range(16), k)]
            assert len(calls) == len(expected) == total
            assert calls == expected == [v.subset for v in result.verdicts]

    def test_odd_audit_peak(self, state44):
        # each size's subsets are one uint8 array and its numbers three
        # arrays, with no tuple or verdict per subset: a tuple and a verdict
        # per subset peaked at 1.61 MB and held 1.50 MB, this route at about
        # 1.48 and 0.85 MB (both hold the memo's size-5 entries and the table)
        state = _fresh(state44)
        assert state._support is not None  # built before the trace
        result, peak, held = traced_memory(odd_subset_audit, state)
        assert len(result) == 4944
        assert peak <= 1.55e6, peak
        assert held <= 0.95e6, held

    def test_subsets_are_valid(self, state23):
        result = odd_subset_audit(state23, max_size=3)
        for v in result.verdicts:
            assert list(v.subset) == sorted(v.subset)
            assert len(v.subset) % 2 == 1

    def test_even_audit_requires_even_sizes(self, gas_state2):
        with pytest.raises(ValueError):
            even_subset_audit(gas_state2, max_size=1)

    @pytest.mark.parametrize("max_size", [0, -1, -5])
    def test_odd_audit_requires_odd_sizes(self, state23, max_size):
        with pytest.raises(ValueError, match="^no odd proper subset sizes available$"):
            odd_subset_audit(state23, max_size=max_size)

    def test_odd_audit_of_one_qubit_has_no_sizes(self):
        with pytest.raises(ValueError, match="^no odd proper subset sizes available$"):
            odd_subset_audit(StateVector(1, np.array([1.0, 0.0])))

    @pytest.mark.parametrize("audit", [odd_subset_audit, even_subset_audit])
    # operator.index(True) is 1, which would run the size-1 audit
    @pytest.mark.parametrize("max_size", [1.5, 4.0, "4", None, True, False, np.True_])
    def test_non_integer_max_size_is_one_line(self, state23, audit, max_size):
        with pytest.raises(ValueError, match="^max_size must be an integer, got .+$"):
            audit(state23, max_size=max_size)

    def test_integer_like_max_size_is_accepted(self, state23):
        sizes = {len(v.subset) for v in odd_subset_audit(state23, np.int64(3)).verdicts}
        assert sizes == {1, 3}


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
