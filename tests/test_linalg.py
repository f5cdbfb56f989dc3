import math
import warnings

import numpy as np
import pytest
from conftest import (
    jacobi_eigh_oracle,
    seam_concurrence_oracle,
    seam_eigh_oracle,
    seam_eigvalsh_oracle,
    seam_matrix_sqrt_oracle,
    seam_operator_norm_oracle,
    seam_rotational_invariance_oracle,
    seam_werner_fit_oracle,
)

from rvblab import (
    LatticeSpec,
    assemble,
    check_rotational_invariance,
    concurrence_two_qubit,
    eigvalsh_jacobi,
    enumerate_gas,
    enumerate_liquid,
    extract_werner_p,
    jacobi_eigh,
    linalg,
    matrix_sqrt_psd,
    monogamy_sum,
    operator_norm,
    reduced_density_matrix,
)
from rvblab.cli import main

SEAM = [jacobi_eigh, eigvalsh_jacobi, operator_norm, matrix_sqrt_psd]


def random_hermitian(n, seed, complex_entries=True):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


class TestJacobiEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 33, 64])
    def test_eigenvalues_match_lapack(self, n):
        a = random_hermitian(n, seed=n)
        w, _ = jacobi_eigh(a)
        expected = np.linalg.eigvalsh(a)
        assert np.max(np.abs(w - expected)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    def test_real_symmetric(self, n):
        a = random_hermitian(n, seed=100 + n, complex_entries=False)
        w, _ = jacobi_eigh(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 16, 32])
    def test_eigenvector_residual(self, n):
        a = random_hermitian(n, seed=7 * n + 1)
        w, v = jacobi_eigh(a)
        residual = np.max(np.abs(a @ v - v * w))
        assert residual < 1e-10

    @pytest.mark.parametrize("n", [2, 8, 24])
    def test_eigenvectors_unitary(self, n):
        a = random_hermitian(n, seed=13 * n)
        _, v = jacobi_eigh(a)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-11

    def test_eigenvalues_ascending(self):
        a = random_hermitian(12, seed=5)
        w, _ = jacobi_eigh(a)
        assert np.all(np.diff(w) >= 0)

    def test_degenerate_spectrum(self):
        # repeated eigenvalues through a projector-like construction
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        w_true = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 5.0])
        a = (q * w_true) @ q.conj().T
        w, v = jacobi_eigh(a)
        assert np.max(np.abs(np.sort(w) - w_true)) < 1e-11
        assert np.max(np.abs(a @ v - v * w)) < 1e-10

    def test_zero_matrix(self):
        w, v = jacobi_eigh(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.array_equal(v, np.eye(4))

    def test_diagonal_matrix(self):
        a = np.diag([3.0, -1.0, 2.0])
        w, _ = jacobi_eigh(a)
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_tiny_offdiagonal(self):
        # subnormal pivots must not stall or overflow the rotation
        a = np.array([[1.0, 1e-300], [1e-300, 2.0]])
        w, _ = jacobi_eigh(a)
        assert np.allclose(w, [1.0, 2.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigvalsh_wrapper(self):
        a = random_hermitian(6, seed=42)
        assert np.max(np.abs(eigvalsh_jacobi(a) - np.linalg.eigvalsh(a))) < 1e-10


class TestPinnedToJacobiOracle:
    # the LAPACK seam is pinned to the Jacobi route it replaced
    def test_all_pair_rdm_spectra_of_4x4_liquid(self, state44):
        pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
        assert len(pairs) == 120
        worst = 0.0
        for pair in pairs:
            rho = reduced_density_matrix(state44, pair).matrix
            w_ref, _ = jacobi_eigh_oracle(rho)
            worst = max(worst, float(np.max(np.abs(eigvalsh_jacobi(rho) - w_ref))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_random_hermitian_spectra(self, n):
        a = random_hermitian(n, seed=200 + n)
        w_ref, _ = jacobi_eigh_oracle(a)
        w, _ = jacobi_eigh(a)
        assert np.max(np.abs(w - w_ref)) <= 1e-12


class TestOperatorNorm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hermitian_matches_svd(self, seed):
        a = random_hermitian(8, seed=seed)
        assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-10

    def test_antihermitian(self):
        a = random_hermitian(6, seed=9)
        k = 1j * a  # anti-Hermitian
        assert abs(operator_norm(k) - np.linalg.norm(k, 2)) < 1e-10

    def test_general_matrix(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-9

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0


def _operator_norm_reference(a):
    """The route before the anti-Hermitian residual was deferred: both
    residuals on every call, then the same eigensolver inputs."""
    eigh = linalg.jacobi_eigh.__wrapped__
    a = np.asarray(a, dtype=np.complex128)
    peak = float(np.max(np.abs(a)))
    if a.shape[0] == a.shape[1]:
        herm_err = np.max(np.abs(a - a.conj().T))
        anti_err = np.max(np.abs(a + a.conj().T))
        tiny = 1e-12 * max(1.0, peak)
        if herm_err <= tiny:
            return float(np.max(np.abs(eigh(a)[0]))), a
        if anti_err <= tiny:
            return float(np.max(np.abs(eigh(1j * a)[0]))), 1j * a
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    w = eigh(gram)[0]
    return float(math.sqrt(max(0.0, float(w[-1])))), gram


def _operator_norm_cases():
    rng = np.random.default_rng(31)
    general = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = random_hermitian(4, seed=32)
    return {
        "1x1": np.array([[-3.0]]),
        "1x1-complex": np.array([[3.0 - 4.0j]]),
        "zero": np.zeros((3, 3)),
        "hermitian": herm,
        "hermitian-past-the-memo": random_hermitian(6, seed=33),
        "hermitian-within-tolerance": herm + 1e-13 * general,
        "anti-hermitian": 1j * herm,
        "anti-hermitian-real": np.array([[0.0, 2.0], [-2.0, 0.0]]),
        "general": general,
        "general-real": np.array([[1.0, 2.0], [0.0, 1.0]]),
        "wide": rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)),
        "tall": rng.standard_normal((5, 3)),
    }


class TestOperatorNormPinned:
    """Bit for bit, and on the same eigensolver input, as the route that
    computed both residuals on every call."""

    @pytest.mark.parametrize("name", list(_operator_norm_cases()))
    def test_same_bits_and_eigensolver_input(self, monkeypatch, name):
        a = _operator_norm_cases()[name]
        want, want_input = _operator_norm_reference(a)
        inputs = []

        def spy(m):
            inputs.append(m.copy())
            return eigh(m)

        eigh = linalg._eigh
        monkeypatch.setattr(linalg, "_eigh", spy)
        got = operator_norm(a)
        assert type(got) is float and got.hex() == want.hex()
        assert len(inputs) == 1
        assert inputs[0].tobytes() == want_input.tobytes()

    def test_values(self):
        cases = _operator_norm_cases()
        assert operator_norm(cases["1x1"]) == 3.0
        assert operator_norm(cases["1x1-complex"]) == 5.0
        assert operator_norm(cases["zero"]) == 0.0
        assert operator_norm(cases["anti-hermitian-real"]) == 2.0
        assert operator_norm(cases["general-real"]) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-15)
        for name in ("hermitian", "anti-hermitian", "general", "wide", "tall"):
            a = cases[name]
            assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-12

    @pytest.mark.parametrize("shape, entry", [((1, 1), (0, 0)), ((3, 3), (2, 0)), ((2, 4), (1, 3))])
    def test_nan_raises_before_any_residual(self, shape, entry):
        a = np.ones(shape, dtype=np.complex128)
        a[entry] = math.nan
        with pytest.raises(ValueError, match="^matrix has NaN or infinite entries$"):
            operator_norm(a)


class TestOneByOneChecked:
    # the 1 x 1 shortcut once returned before the Hermitian check, so a
    # complex entry gave its real part as the spectrum and the root
    @pytest.mark.parametrize("fn", [jacobi_eigh, eigvalsh_jacobi], ids=lambda fn: fn.__name__)
    def test_complex_entry_rejected(self, fn):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(skew norm 2\.000e\+00\)$"):
                fn(np.array([[1.0 + 1.0j]]))
        assert linalg._memo.cache_info().currsize == 0

    def test_complex_entry_has_no_root(self):
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(skew norm 6\.000e\+00\)$"):
            matrix_sqrt_psd(np.array([[4.0 + 3.0j]]))

    @pytest.mark.parametrize("entry", [4.0, -2.5, 0.0, 1.0 + 1e-12j])
    def test_real_entry_kept(self, entry):
        # within the tolerance a tiny imaginary part is round-off, as for n > 1
        w, v = jacobi_eigh(np.array([[entry]]))
        assert w.tolist() == [complex(entry).real] and v.tolist() == [[1.0]]
        if complex(entry).real >= 0.0:
            assert matrix_sqrt_psd(np.array([[entry]])).tolist() == [[math.sqrt(complex(entry).real)]]

    def test_operator_norm_unchanged(self):
        # a singular value is defined for any entry: |1 + 1j|
        assert operator_norm(np.array([[1.0 + 1.0j]])) == math.sqrt(2.0)


def _pair_and_single_rdms(state):
    n = state.n_qubits
    singles = [reduced_density_matrix(state, (i,)) for i in range(n)]
    pairs = [reduced_density_matrix(state, (i, j)) for i in range(n) for j in range(i + 1, n)]
    return singles, pairs


@pytest.fixture(
    scope="module",
    params=["open-4x4", "periodic-4x4", "gas-6"],
)
def seam_state(request):
    lattice = {
        "open-4x4": LatticeSpec.square_grid(4, 4),
        "periodic-4x4": LatticeSpec.square_grid(4, 4, boundary="periodic"),
        "gas-6": LatticeSpec.complete_bipartite(6),
    }[request.param]
    enumerate_ = enumerate_gas if request.param == "gas-6" else enumerate_liquid
    return assemble(enumerate_(lattice))


class TestPinnedToSeamOracle:
    """Each public call checks its input once and hands it to one LAPACK
    step; every number is the bits of the route that checked it twice."""

    def test_every_pair_rdm(self, seam_state):
        _, pairs = _pair_and_single_rdms(seam_state)
        assert len(pairs) == seam_state.n_qubits * (seam_state.n_qubits - 1) // 2
        for dm in pairs:
            # the pipeline's order: the fit, then the concurrence, whose
            # root hits the memo entry the fit's validation made
            fit = extract_werner_p(dm)
            want_p, want_residual = seam_werner_fit_oracle(dm.matrix)
            assert (fit.p.hex(), fit.residual.hex()) == (want_p.hex(), want_residual.hex()), dm.sites
            assert concurrence_two_qubit(dm).hex() == seam_concurrence_oracle(dm.matrix).hex()
            got = check_rotational_invariance(dm)
            assert got.hex() == seam_rotational_invariance_oracle(dm.matrix).hex(), dm.sites

    def test_every_single_and_pair_spectrum_and_root(self, seam_state):
        singles, pairs = _pair_and_single_rdms(seam_state)
        for dm in singles + pairs:
            m = dm.matrix
            assert eigvalsh_jacobi(m).tobytes() == seam_eigvalsh_oracle(m).tobytes(), dm.sites
            assert matrix_sqrt_psd(m).tobytes() == seam_matrix_sqrt_oracle(m).tobytes(), dm.sites
        for dm in singles:
            got = check_rotational_invariance(dm)
            assert got.hex() == seam_rotational_invariance_oracle(dm.matrix).hex(), dm.sites


def _outcome(fn, a):
    """What ``fn(a)`` gives: its bits, or the type and text of what it raised,
    with NumPy's floating-point warnings raised as they are in tier-1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = fn(a)
        except (ValueError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)
    return "value", _bits(out)


_SEAM_ORACLES = {
    jacobi_eigh: seam_eigh_oracle,
    eigvalsh_jacobi: seam_eigvalsh_oracle,
    operator_norm: seam_operator_norm_oracle,
    matrix_sqrt_psd: seam_matrix_sqrt_oracle,
}
_SKEWED = np.array([[1.0, 1.0], [0.0, 1.0]])
_NAN = np.array([[0.5, 0.0], [0.0, math.nan]])
# (input, what jacobi_eigh, eigvalsh_jacobi and matrix_sqrt_psd give,
#  what operator_norm gives); None for a value
_EDGE_CASES = {
    "nan": (_NAN, "matrix has NaN or infinite entries", "matrix has NaN or infinite entries"),
    "nan-4x4-past-hermitian": (
        np.pad(_SKEWED, 1) + np.pad(_NAN, 1) * 1j,
        "matrix has NaN or infinite entries",
        "matrix has NaN or infinite entries",
    ),
    "non-hermitian": (_SKEWED, r"matrix is not Hermitian (skew norm 1.414e+00)", None),
    "non-hermitian-complex": (
        np.array([[1.0, 1.0j], [1.0j, 1.0]]),
        r"matrix is not Hermitian (skew norm 2.828e+00)",
        None,
    ),
    "1e200": (np.diag([1e200, 2e200]), None, None),
    # the oracle's Gram matrix of a non-Hermitian input this large overflows;
    # operator_norm forms it at peak 1 (see _GRAM_SCALED)
    "1e200-non-hermitian": (
        1e200 * _SKEWED,
        r"matrix is not Hermitian (skew norm 1.414e+200)",
        None,
    ),
    "1e-170": (np.diag([1e-170, 2e-170]), None, None),
    # a skew this far below 1 passes jacobi_eigh's check; operator_norm judges
    # it against the peak, so the input takes the Gram route (see _GRAM_SCALED)
    "1e-170-non-hermitian": (1e-170 * _SKEWED, None, None),
}
# the entries on which operator_norm is checked against np.linalg.norm, with
# what the oracle gives: it forms the Gram matrix unscaled, whose entries
# overflow past about 1e154 and underflow to zero below about 1e-162
_GRAM_SCALED = {
    "1e200-non-hermitian": ("RuntimeWarning", "overflow encountered in matmul"),
    "1e-170-non-hermitian": ("value", [np.float64(0.0).tobytes()]),
}


def _assert_norm(got, a):
    """``got`` is ``np.linalg.norm(a, 2)`` to 1e-15 relative."""
    want = np.linalg.norm(a, 2)
    assert abs(got - want) <= 1e-15 * want, (got, want)


class TestEdgeInputsPinned:
    """NaN, non-Hermitian and extreme-scale inputs raise the same one-line
    errors as the route that checked them twice, or give the same bits."""

    @pytest.mark.parametrize("fn", SEAM, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("name", list(_EDGE_CASES))
    def test_same_outcome_as_the_oracle(self, fn, name):
        a, eig_message, norm_message = _EDGE_CASES[name]
        got = _outcome(fn, a)
        if fn is operator_norm and name in _GRAM_SCALED:
            assert _outcome(_SEAM_ORACLES[fn], a) == _GRAM_SCALED[name]
            assert got[0] == "value"
            _assert_norm(fn(a), a)
            return
        assert got == _outcome(_SEAM_ORACLES[fn], a)
        message = norm_message if fn is operator_norm else eig_message
        if message is None:
            assert got[0] == "value"
        else:
            assert got[1] == message

    def test_gram_overflow_without_the_warning_error(self):
        # with floating-point warnings silenced the oracle's overflow leaves
        # infinite and NaN Gram entries, which it rejects; operator_norm forms
        # the Gram matrix at peak 1 and multiplies the root back
        a = 1e200 * _SKEWED
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^matrix has NaN or infinite entries$"):
                seam_operator_norm_oracle(a)
            got = operator_norm(a)
        assert got == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0 * 1e200, rel=1e-15)
        _assert_norm(got, a)


class TestMatrixSqrt:
    def test_square_recovers(self):
        a = random_hermitian(6, seed=21)
        psd = a @ a.conj().T
        root = matrix_sqrt_psd(psd)
        assert np.max(np.abs(root @ root - psd)) < 1e-9

    def test_root_is_hermitian_psd(self):
        a = random_hermitian(5, seed=23)
        root = matrix_sqrt_psd(a @ a.conj().T)
        assert np.max(np.abs(root - root.conj().T)) < 1e-11
        assert np.min(np.linalg.eigvalsh(root)) > -1e-11

    def test_small_negative_eigenvalues_clipped(self):
        # round-off can push a PSD matrix slightly indefinite
        a = np.diag([1.0, -1e-14])
        root = matrix_sqrt_psd(a)
        assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-7)


class TestOperatorNormShapes:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_ones_rectangular(self, shape):
        # the Gram route; a 2x3 once died in the Hermitian test's broadcast
        assert operator_norm(np.ones(shape)) == pytest.approx(math.sqrt(6.0), abs=1e-15)

    @pytest.mark.parametrize("shape", [(3, 5), (7, 2)], ids=["wide", "tall-past-the-memo"])
    def test_rectangular_matches_svd(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-10

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a matrix, got shape \(3,\)$"):
            operator_norm(np.ones(3))


class TestNonFiniteRejected:
    # operator_norm([[nan, 0], [0, 1]]) once returned 0.0, jacobi_eigh gave
    # NaN eigenvalues with identity eigenvectors, and inf warned
    @pytest.mark.parametrize("fn", SEAM, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    @pytest.mark.parametrize(
        "n, entry", [(1, (0, 0)), (2, (0, 0)), (4, (1, 3)), (5, (4, 4))],
        ids=["1x1", "2x2-diagonal", "4x4-off-diagonal", "5x5-past-the-memo"],
    )
    def test_one_line_value_error(self, fn, value, n, entry):
        a = np.eye(n, dtype=np.complex128) / n
        a[entry] = value
        a[entry[::-1]] = np.conj(value)
        for _ in range(2):
            with pytest.raises(ValueError, match="^matrix has NaN or infinite entries$"):
                fn(a)
        assert linalg._memo.cache_info().currsize == 0


class TestExtremeScales:
    # the Hermitian check once took np.linalg.norm of the raw entries, whose
    # squares overflow past about 1e154 (a RuntimeWarning, an error here)
    # and underflow below about 1e-162 (a zero norm, so a zero spectrum)
    @pytest.mark.parametrize("fn", SEAM, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_diagonal_kept_exactly(self, fn, scale):
        a = np.diag([scale, 2 * scale])
        out = fn(a)
        if fn is operator_norm:
            assert out == 2 * scale
        elif fn is matrix_sqrt_psd:
            assert np.allclose(np.diag(out), np.sqrt([scale, 2 * scale]), rtol=1e-15, atol=0)
        else:
            w = out[0] if fn is jacobi_eigh else out
            assert w.tolist() == [scale, 2 * scale]

    def test_gram_route_of_a_huge_non_normal_matrix(self):
        # its Gram entries would reach about 1e401: formed at peak 1 instead
        a = 1e200 * np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 3.0], [0.5, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = operator_norm(a)
        _assert_norm(got, a)

    def test_gram_route_of_a_tiny_rectangle(self):
        # its Gram entries would underflow below the smallest subnormal
        a = 1e-170 * np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
        _assert_norm(operator_norm(a), a)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_skew_still_rejected(self, scale):
        a = np.array([[1.0, 1.0], [0.0, 1.0]]) * scale
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(skew norm 1.414e"):
            jacobi_eigh(a)


def _bits(out):
    parts = out if isinstance(out, tuple) else (out,)
    return [np.asarray(part).tobytes() for part in parts]


class TestMemo:
    @pytest.fixture
    def seam_inputs(self, monkeypatch):
        """Every memo call, each one's result checked bit for bit against
        the undecorated route on a fresh copy of its input.  A repeated
        input must get back the very objects of its first call."""
        memo = linalg._memo
        seen = []
        first = {}

        def pinned(compute, shape, data):
            out = memo(compute, shape, data)
            fresh = np.frombuffer(data, dtype=np.complex128).reshape(shape).copy()
            assert _bits(out) == _bits(compute(fresh)), (compute.__name__, shape)
            assert first.setdefault((compute, shape, data), out) is out
            seen.append((compute.__name__, shape, data))
            return out

        monkeypatch.setattr(linalg, "_memo", pinned)
        return seen

    @pytest.mark.parametrize(
        "lattice_args",
        [("complete-bipartite", "--n", "6"), ("square-grid", "--rows", "4", "--cols", "4")],
        ids=["gas-6", "open-4x4"],
    )
    def test_hits_match_the_undecorated_route(self, seam_inputs, lattice_args, tmp_path, state44):
        args = ["--lattice", *lattice_args, "--tasks", "werner-scan", "bounds"]
        assert main([*args, "--out", str(tmp_path)]) == 0
        state = state44 if "square-grid" in args else assemble(
            enumerate_gas(LatticeSpec.complete_bipartite(6))
        )
        for anchor in range(state.n_qubits):
            monogamy_sum(state, anchor, [s for s in range(state.n_qubits) if s != anchor])
        names = {name for name, shape, _ in seam_inputs if shape == (4, 4)}
        assert names == {"jacobi_eigh", "operator_norm", "matrix_sqrt_psd"}
        # most calls repeat an earlier input
        assert len(set(seam_inputs)) < len(seam_inputs) // 2

    def test_gas_6_werner_scan_hits_and_misses(self, tmp_path):
        # 66 pairs of two classes: 8 seam calls a pair plus the distance
        # profile's, from 19 distinct inputs
        args = ["--lattice", "complete-bipartite", "--n", "6", "--tasks", "werner-scan"]
        assert main([*args, "--out", str(tmp_path)]) == 0
        info = linalg._memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (524, 19, 19)

    def test_outputs_read_only_and_shared(self):
        for n in (4, 5):  # memoised, and past the memo
            a = random_hermitian(n, seed=n)
            w, v = jacobi_eigh(a)
            for out in (w, v, eigvalsh_jacobi(a), matrix_sqrt_psd(a @ a.conj().T)):
                with pytest.raises(ValueError, match="read-only"):
                    out[0] = 0.0
        a = random_hermitian(4, seed=4)
        w, v = jacobi_eigh(a)
        # the same bytes hit, whatever the dtype or memory order
        assert jacobi_eigh(np.asfortranarray(a))[0] is w
        assert eigvalsh_jacobi(a.real.astype(np.complex128) + 1j * a.imag) is w
        big = random_hermitian(5, seed=5)
        assert jacobi_eigh(big)[0] is not jacobi_eigh(big)[0]

    def test_key_holds_function_and_shape(self):
        x = np.array([1.0, 0.0, 0.0, 1.0])
        assert operator_norm(x.reshape(2, 2)) == 1.0
        assert operator_norm(x.reshape(1, 4)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        eigvalsh_jacobi(x.reshape(2, 2))
        info = linalg._memo.cache_info()
        assert (info.hits, info.misses) == (0, 3)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 3)),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
        ],
        ids=["non-square", "non-hermitian", "nan"],
    )
    def test_raising_input_raises_every_call_and_is_never_stored(self, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                jacobi_eigh(bad)
        info = linalg._memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_a_hit_runs_no_eigensolver(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        a = random_hermitian(4, seed=8)
        for _ in range(3):
            jacobi_eigh(a)
            eigvalsh_jacobi(a)
        assert calls == [(4, 4)]

    def test_memo_is_bounded(self):
        size = linalg._memo.cache_info().maxsize
        assert size is not None
        for k in range(size + 1):
            eigvalsh_jacobi(np.diag([1.0, float(k)]))
        info = linalg._memo.cache_info()
        assert (info.misses, info.currsize) == (size + 1, size)
