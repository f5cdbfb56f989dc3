"""Shared fixtures and independent test-side oracles.

The oracle helpers here deliberately reimplement counting and measure
computations with different algorithms than the package (brute-force
permutation filters, Ryser's permanent, the non-Hermitian concurrence
route, correlation-function Werner extraction, cyclic Jacobi rotations
for Hermitian spectra) so that agreement is evidence, not tautology.
"""

import itertools
import math
from collections import deque

import numpy as np
import pytest

from rvblab import (
    LatticeSpec,
    assemble,
    enumerate_gas,
    enumerate_liquid,
)

# ----------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def grid22():
    return LatticeSpec.square_grid(2, 2)


@pytest.fixture(scope="session")
def grid23():
    return LatticeSpec.square_grid(2, 3)


@pytest.fixture(scope="session")
def grid24():
    return LatticeSpec.square_grid(2, 4)


@pytest.fixture(scope="session")
def grid44():
    return LatticeSpec.square_grid(4, 4)


@pytest.fixture(scope="session")
def grid44_periodic():
    return LatticeSpec.square_grid(4, 4, boundary="periodic")


@pytest.fixture(scope="session")
def liquid22(grid22):
    return enumerate_liquid(grid22)


@pytest.fixture(scope="session")
def liquid23(grid23):
    return enumerate_liquid(grid23)


@pytest.fixture(scope="session")
def liquid24(grid24):
    return enumerate_liquid(grid24)


@pytest.fixture(scope="session")
def liquid44(grid44):
    return enumerate_liquid(grid44)


@pytest.fixture(scope="session")
def state22(liquid22):
    return assemble(liquid22)


@pytest.fixture(scope="session")
def state23(liquid23):
    return assemble(liquid23)


@pytest.fixture(scope="session")
def state24(liquid24):
    return assemble(liquid24)


@pytest.fixture(scope="session")
def state44(liquid44):
    return assemble(liquid44)


@pytest.fixture(scope="session")
def gas2():
    return enumerate_gas(LatticeSpec.complete_bipartite(2))


@pytest.fixture(scope="session")
def gas3():
    return enumerate_gas(LatticeSpec.complete_bipartite(3))


@pytest.fixture(scope="session")
def gas_state2(gas2):
    return assemble(gas2)


@pytest.fixture(scope="session")
def gas_state3(gas3):
    return assemble(gas3)


# ----------------------------------------------------------------------
# oracle: matchings and counting


def brute_force_matchings(lattice, nn_only):
    """All perfect matchings as tuples of (a, b) pairs, by permutation filter."""
    a_sites = lattice.a_sites()
    b_sites = lattice.b_sites()
    allowed = {
        a: set(b_sites) if not nn_only else {b for b in lattice.neighbors(a) if b in b_sites}
        for a in a_sites
    }
    found = []
    for perm in itertools.permutations(b_sites):
        if all(b in allowed[a] for a, b in zip(a_sites, perm)):
            found.append(tuple(zip(a_sites, perm)))
    return found


def ryser_permanent(mat):
    """Permanent of a square 0/1 matrix by Ryser's inclusion-exclusion."""
    mat = np.asarray(mat, dtype=np.int64)
    n = mat.shape[0]
    total = 0
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        prod = 1
        for i in range(n):
            prod *= int(mat[i, cols].sum())
            if prod == 0:
                break
        total += (-1) ** (n - len(cols)) * prod
    return total if n else 1


def biadjacency(lattice, nn_only):
    a_sites = lattice.a_sites()
    b_sites = lattice.b_sites()
    mat = np.zeros((len(a_sites), len(b_sites)), dtype=np.int64)
    for i, a in enumerate(a_sites):
        for j, b in enumerate(b_sites):
            if not nn_only or b in lattice.neighbors(a):
                mat[i, j] = 1
    return mat


def bfs_distances(lattice, start):
    """Graph distances over the nearest-neighbor adjacency."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        site = queue.popleft()
        for nxt in lattice.neighbors(site):
            if nxt not in dist:
                dist[nxt] = dist[site] + 1
                queue.append(nxt)
    return dist


# ----------------------------------------------------------------------
# oracle: two-qubit measures


def concurrence_oracle(rho):
    """Wootters concurrence via the non-Hermitian rho * rho_tilde spectrum."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
    tilde = yy @ rho.conj() @ yy
    vals = np.linalg.eigvals(rho @ tilde)
    roots = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def werner_p_from_correlator(rho):
    """p = -<sigma_x sigma_x>, valid for any state of Werner form."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return float(-np.trace(rho @ np.kron(sx, sx)).real)


def entropy_bits_oracle(rho):
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-14]
    return float(-(vals * np.log2(vals)).sum())


def binary_entropy_oracle(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ----------------------------------------------------------------------
# oracle: Hermitian eigensolver


def jacobi_eigh_oracle(a, tol=1e-13, max_sweeps=100):
    """Cyclic complex Jacobi rotations; the route the LAPACK seam replaced.

    Sweeps of plane rotations zero one off-diagonal element at a time
    until the off-diagonal Frobenius norm falls below ``tol`` times the
    matrix norm.  Returns ascending eigenvalues and unitary eigenvectors.
    """
    m = np.array(a, dtype=np.complex128, copy=True)
    n = m.shape[0]
    v = np.eye(n, dtype=np.complex128)
    threshold = tol * np.linalg.norm(m)
    for _ in range(max_sweeps):
        hollow = m.copy()
        np.fill_diagonal(hollow, 0.0)
        if np.linalg.norm(hollow) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                mag = abs(apq)
                if mag <= 1e-300:
                    continue
                phase = apq / mag
                tau = (m[q, q].real - m[p, p].real) / (2.0 * mag)
                sign = 1.0 if tau >= 0.0 else -1.0
                # hypot keeps sqrt(1 + tau^2) finite for huge tau
                t = sign / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # m <- r^dagger m r with r = [[c, s*phase], [-s*conj(phase), c]]
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * np.conj(phase) * col_q
                m[:, q] = s * phase * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * phase * row_q
                m[q, :] = s * np.conj(phase) * row_p + c * row_q
                m[p, p] = m[p, p].real
                m[q, q] = m[q, q].real
                m[p, q] = 0.0
                m[q, p] = 0.0
                vc_p = v[:, p].copy()
                vc_q = v[:, q].copy()
                v[:, p] = c * vc_p - s * np.conj(phase) * vc_q
                v[:, q] = s * phase * vc_p + c * vc_q
    else:
        raise np.linalg.LinAlgError(f"Jacobi did not converge in {max_sweeps} sweeps")
    w = np.diag(m).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
