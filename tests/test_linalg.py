import numpy as np
import pytest
from conftest import jacobi_eigh_oracle

from rvblab import (
    eigvalsh_jacobi,
    jacobi_eigh,
    matrix_sqrt_psd,
    operator_norm,
    reduced_density_matrix,
)


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
