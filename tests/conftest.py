"""Shared fixtures, hypothesis strategies and independent test-side oracles.

The oracle helpers here deliberately reimplement counting and measure
computations with different algorithms than the package (brute-force
permutation filters, Ryser's permanent, the non-Hermitian concurrence
route, correlation-function Werner extraction, cyclic Jacobi rotations
for Hermitian spectra, a site-by-site walk of every transition-graph
loop, dense Gram matrices for subset spectra, one subset and one
``eigvalsh`` per S^z block for the batched sector kernel, one scatter per
covering for state assembly, one ``DimerCovering`` object per covering
for the partner table, ``itertools.permutations`` for the gas table, one
``%`` format over every site for the ensemble JSON, the whole symmetry
group applied to every covering for the covering orbits, the closed-form
grid and gas geometry for the lattice's bond graph) so that
agreement is evidence, not tautology.  A few keep the route a fast path
replaced instead, to pin it bit for bit: the Jacobi rotations above, the
eigensolver seam and pair measures that checked every input twice,
the certificate's walk over one cut at a time, and the audits' walk that
made one verdict per subset.
"""

import itertools
import json
import math
import tracemalloc
from collections import deque
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from rvblab import (
    Boundary,
    DimerCovering,
    Kind,
    LatticeSpec,
    StateVector,
    Sublattice,
    assemble,
    custom_ensemble,
    enumerate_gas,
    enumerate_liquid,
)
from rvblab import linalg, multipartite
from rvblab.lattice import lattice_to_config

# ----------------------------------------------------------------------
# fixtures


@pytest.fixture(autouse=True)
def empty_linalg_memo():
    """Start every test with an empty eigensolver memo.

    A test that patches or counts ``np.linalg.eigh`` then sees the same
    calls whichever tests ran before it.
    """
    linalg._memo.cache_clear()


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
# strategies: random equal-weight ensembles
#
# Subsets of the enumerated coverings of small grids (2x2 up to 4x4,
# open, and the periodic 4x4) and of small gases.  Any equal-weight
# superposition of singlet coverings is a total singlet.

GRIDS = [
    (2, 2, "open"),
    (2, 3, "open"),
    (2, 4, "open"),
    (3, 4, "open"),
    (4, 3, "open"),
    (4, 4, "open"),
    (4, 4, "periodic"),
]
GAS_N = [1, 2, 3, 4]
MAX_SUBSET = 24

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def _source(kind, params):
    if kind == "grid":
        rows, cols, boundary = params
        return enumerate_liquid(LatticeSpec.square_grid(rows, cols, boundary=boundary))
    return enumerate_gas(LatticeSpec.complete_bipartite(params))


@st.composite
def equal_weight_ensembles(draw):
    kind = draw(st.sampled_from(["grid", "gas"]))
    params = draw(st.sampled_from(GRIDS if kind == "grid" else GAS_N))
    source = _source(kind, params)
    picks = draw(
        st.lists(
            st.integers(0, len(source) - 1),
            min_size=1,
            max_size=min(MAX_SUBSET, len(source)),
            unique=True,
        )
    )
    weight = draw(st.sampled_from([1.0, 0.5, 3.0]))
    return custom_ensemble(
        source.lattice,
        [source.coverings[k].pairs for k in picks],
        weights=[weight] * len(picks),
    )


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


# ----------------------------------------------------------------------
# oracle: the closed forms each lattice kind once answered its queries with


def closed_form_a_sites(lattice):
    """Sublattice A: the checkerboard rule on a grid, the first N sites of the gas."""
    if lattice.kind is Kind.COMPLETE_BIPARTITE:
        return tuple(range(lattice.n_per_sublattice))
    return tuple(s for s in range(lattice.site_count) if sum(divmod(s, lattice.cols)) % 2 == 0)


def closed_form_neighbors(lattice, site):
    """The four grid steps, wrapped when periodic; every other-side site on the gas."""
    if lattice.kind is Kind.COMPLETE_BIPARTITE:
        n = lattice.n_per_sublattice
        return tuple(range(n, 2 * n)) if site < n else tuple(range(n))
    rows, cols = lattice.rows, lattice.cols
    row, col = divmod(site, cols)
    out = set()
    for r, c in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
        if lattice.boundary is Boundary.PERIODIC:
            r, c = r % rows, c % cols
        elif not (0 <= r < rows and 0 <= c < cols):
            continue
        if r * cols + c != site:
            out.add(r * cols + c)
    return tuple(sorted(out))


def closed_form_distance(lattice, i, j):
    """Manhattan distance, min-image when periodic; 1 or 2 hops on the gas."""
    if lattice.kind is Kind.COMPLETE_BIPARTITE:
        n = lattice.n_per_sublattice
        return 0 if i == j else 1 if (i < n) != (j < n) else 2
    (ri, ci), (rj, cj) = divmod(i, lattice.cols), divmod(j, lattice.cols)
    dr, dc = abs(ri - rj), abs(ci - cj)
    if lattice.boundary is Boundary.PERIODIC:
        dr, dc = min(dr, lattice.rows - dr), min(dc, lattice.cols - dc)
    return dr + dc


def closed_form_max_distance(lattice):
    if lattice.kind is Kind.COMPLETE_BIPARTITE:
        return 1 if lattice.n_per_sublattice == 1 else 2
    if lattice.boundary is Boundary.PERIODIC:
        return lattice.rows // 2 + lattice.cols // 2
    return lattice.rows - 1 + lattice.cols - 1


def closed_form_generators(lattice):
    """Row and column reflections, the square's transpose, the torus's two shifts."""
    if lattice.kind is Kind.COMPLETE_BIPARTITE:
        return ()
    rows, cols = lattice.rows, lattice.cols
    maps = [lambda r, c: (rows - 1 - r, c), lambda r, c: (r, cols - 1 - c)]
    if rows == cols:
        maps.append(lambda r, c: (c, r))
    if lattice.boundary is Boundary.PERIODIC:
        maps += [lambda r, c: ((r + 1) % rows, c), lambda r, c: (r, (c + 1) % cols)]
    identity = tuple(range(rows * cols))
    out = []
    for f in maps:
        perm = tuple(r * cols + c for r, c in (f(*divmod(s, cols)) for s in identity))
        if perm != identity and perm not in out:
            out.append(perm)
    return tuple(out)


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
# oracle: covering objects, the routes the partner table replaced


def gas_coverings_oracle(lattice):
    """Every gas covering as a ``DimerCovering``, one per B permutation."""
    a_sites = lattice.a_sites()
    return tuple(
        DimerCovering(a_sites=a_sites, b_partners=perm)
        for perm in itertools.permutations(lattice.b_sites())
    )


def gas_partners_oracle(lattice):
    """The gas partner table as one tuple per B permutation, stacked by ``np.array``."""
    return np.array(list(itertools.permutations(lattice.b_sites())), dtype=np.int64)


def ensemble_json_oracle(ensemble):
    """The ensemble JSON text, with every covering written by one ``%`` format.

    The route the array writer replaced: each row fills one template with
    the lattice's A sites written in, the rows' B partners go into it as
    one tuple of Python ints, and ``json.dumps`` writes the rest.
    """
    doc = {
        "schema": 1,
        "lattice": lattice_to_config(ensemble.lattice),
        "variant": ensemble.variant.value,
        "weights": ensemble.weights.tolist(),
    }
    row = "[" + ", ".join(f"[{a}, %d]" for a in ensemble.lattice.a_sites()) + "]"
    rows = ", ".join([row] * len(ensemble)) % tuple(ensemble.partners.ravel().tolist())
    return '{"coverings": [' + rows + "], " + json.dumps(doc, sort_keys=True)[1:]


def liquid_coverings_oracle(lattice):
    """Nearest-neighbour coverings by recursion, as ``DimerCovering`` objects.

    Matches the lowest unmatched site to each unmatched neighbour in
    ascending order, so coverings come in the order of their bond
    sequences; each one is validated through ``from_pairs``.
    """
    n = lattice.site_count
    matched = [False] * n
    found = []

    def extend(bonds):
        site = next((s for s in range(n) if not matched[s]), None)
        if site is None:
            on_a = [lattice.sublattice_of(s) is Sublattice.A for s, _ in bonds]
            pairs = [(s, t) if a else (t, s) for (s, t), a in zip(bonds, on_a)]
            found.append(DimerCovering.from_pairs(lattice, pairs))
            return
        matched[site] = True
        for t in lattice.neighbors(site):
            if not matched[t]:
                matched[t] = True
                extend(bonds + [(site, t)])
                matched[t] = False
        matched[site] = False

    extend([])
    return tuple(found)


def partner_array(covering, n_sites):
    """site -> matched partner of one covering, as an int array of length ``n_sites``."""
    out = np.full(n_sites, -1, dtype=np.int64)
    for a, b in zip(covering.a_sites, covering.b_partners):
        out[a] = b
        out[b] = a
    return out


def partner_matrix_oracle(ensemble):
    """(coverings x sites) partner map, one ``partner_array`` per covering."""
    n_sites = ensemble.lattice.site_count
    return np.stack([partner_array(c, n_sites) for c in ensemble.coverings])


# ----------------------------------------------------------------------
# oracle: state assembly


def covering_terms_oracle(covering):
    """One covering's 2**N basis indices and singlet amplitudes, by two matmuls.

    Pattern ``u`` sets bit ``k`` when the A member of pair ``k`` is down,
    with amplitude ``(-1)**popcount(u) * 2**(-N/2)``.
    """
    n_pairs = covering.n_pairs
    u = np.arange(2**n_pairs, dtype=np.int64)
    bits = (u[:, None] >> np.arange(n_pairs, dtype=np.int64)) & 1
    signs = 1.0 - 2.0 * (np.sum(bits, axis=1) & 1)
    pow_a = np.asarray(covering.a_sites, dtype=np.int64)
    pow_b = np.asarray(covering.b_partners, dtype=np.int64)
    idx = bits @ (1 << pow_a) + (1 - bits) @ (1 << pow_b)
    return idx, signs * (1.0 / np.sqrt(2.0)) ** n_pairs


def assemble_oracle(ensemble):
    """Weighted covering sum, one covering at a time.

    The route the chunked scatter kernel replaced: per covering, the
    indices of :func:`covering_terms_oracle` and one ``np.add.at`` of its
    weighted amplitudes, in ensemble order; then the same fixed-order norm
    and zero-norm check as the package.
    """
    n_qubits = ensemble.lattice.site_count
    psi = np.zeros(2**n_qubits)
    for covering in ensemble.coverings:
        idx, amps = covering_terms_oracle(covering)
        np.add.at(psi, idx, covering.weight * amps)
    nrm = float(np.sqrt(np.sum(psi * psi)))
    if nrm <= 1e-12 * max(1.0, float(np.sum(np.abs(ensemble.weights)))):
        raise ValueError("ensemble sum cancels to the zero vector")
    return StateVector(n_qubits=n_qubits, amplitudes=psi / nrm, norm=nrm)


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
# oracle: subset spectra


def subset_spectrum_oracle(state, subset):
    """Descending Schmidt spectrum on the dense Gram route.

    The route the sector blocks replaced: transpose the whole amplitude
    tensor so the subset's qubits index rows (bit t of a row is site
    ``subset[t]``), then diagonalise the Gram matrix of the smaller side.
    States with no single S^z sector still take this route in the package,
    so there the two must agree bit for bit.
    """
    n = state.n_qubits
    tensor = state.amplitudes.reshape((2,) * n)
    # tensor axis j holds site n-1-j
    kept = [n - 1 - s for s in reversed(subset)]
    rest = [ax for ax in range(n) if ax not in kept]
    block = np.transpose(tensor, kept + rest).reshape(2 ** len(subset), -1)
    gram = block @ block.T if block.shape[0] <= block.shape[1] else block.T @ block
    return np.clip(np.linalg.eigvalsh(gram), 0.0, None)[::-1]


@lru_cache(maxsize=None)
def _sector_layout_oracle(n, k, down):
    """Every S^z block of a k-site subset in one flat buffer, and each row code's offset."""
    popcount = np.array([bin(code).count("1") for code in range(2 ** max(k, n - k))])
    rank = np.zeros(popcount.size, dtype=np.int64)
    for d in range(popcount.max() + 1):
        members = popcount == d
        rank[members] = np.arange(np.count_nonzero(members))
    shapes = [
        (math.comb(k, d), math.comb(n - k, down - d) if d <= down else 0) for d in range(k + 1)
    ]
    starts = np.cumsum([0] + [r * c for r, c in shapes])
    n_cols = np.array([c for _, c in shapes])
    d = popcount[: 2**k]
    row_offset = starts[d] + rank[: 2**k] * n_cols[d]
    blocks = [(d, int(start), r, c) for d, ((r, c), start) in enumerate(zip(shapes, starts)) if r * c]
    return blocks, row_offset, rank, int(starts[-1])


def sector_spectrum_oracle(support, n, sites):
    """One subset's Schmidt spectrum from its S^z blocks, one block at a time.

    The one-subset kernel the batched one replaced: recode the support
    indices for this subset alone, scatter them into a zero-filled buffer
    of every block, and call ``eigvalsh`` once per Gram matrix over 1x1.
    A flip-symmetric support takes the blocks with ``2 d <= k`` and counts
    each one below the middle twice.  The batched kernel must match it bit
    for bit.
    """
    k = len(sites)
    chosen = set(sites)
    order = list(sites) + [s for s in range(n) if s not in chosen]
    weights = np.empty(n)
    weights[order] = np.exp2(np.arange(n))
    code = (support.bits @ weights).astype(np.int64)
    blocks, row_offset, rank, size = _sector_layout_oracle(n, k, support.down)
    flat = np.zeros(size)
    flat[row_offset[code & ((1 << k) - 1)] + rank[code >> k]] = support.amplitudes
    mirrored = support.flip is not None
    pieces = []
    for d, start, r, c in blocks:
        if mirrored and 2 * d > k:
            continue
        block = flat[start : start + r * c].reshape(r, c)
        gram = block @ block.T if r <= c else block.T @ block
        w = gram.ravel() if gram.size == 1 else np.linalg.eigvalsh(gram)
        pieces.append(w)
        if mirrored and 2 * d < k:
            pieces.append(w)
    w = np.sort(np.clip(np.concatenate(pieces), 0.0, None))[::-1]
    spectrum = np.zeros(min(2**k, 2 ** (n - k)))
    spectrum[: w.size] = w
    return spectrum


def purity_entropy_oracle(spectrum):
    """Purity and entropy in bits of a reduced spectrum, with 0 log 0 = 0."""
    positive = spectrum[spectrum > 0.0]
    return float(np.sum(spectrum**2)), float(-np.sum(positive * np.log2(positive)))


def certificate_oracle(state):
    """The certificate by a walk over every cut, one spectrum at a time.

    The per-cut walk the array form replaced: each cut containing site 0,
    in enumeration order, takes ``subset_spectrum`` and the one-spectrum
    purity and entropy, and the first cut of strictly smaller entropy
    wins.  The array form must match it bit for bit, the ``repr`` of
    ``min_entropy_bits`` included.
    """
    n = state.n_qubits
    best_entropy, best_cut, genuine, n_cuts = math.inf, (), True, 0
    for k in range(1, n):
        for rest in itertools.combinations(range(1, n), k - 1):
            cut = (0, *rest)
            purity, entropy = purity_entropy_oracle(multipartite.subset_spectrum(state, cut))
            n_cuts += 1
            if entropy < best_entropy:
                best_entropy, best_cut = entropy, cut
            if not purity < 1.0 - multipartite.ENTANGLED_PURITY_TOL:
                genuine = False
    return multipartite.CertificateReport(genuine, n_cuts, float(best_entropy), best_cut)


def audit_oracle(state, sizes):
    """The audit by a walk that makes one verdict per subset, in order.

    The walk the array audit replaced: each size's subsets are listed as
    tuples, each subset reads its purity, entropy and flag from its orbit
    representative's memo entry (or, with no sector support, from one
    ``_mixedness`` call on the stacked dense spectra), and each verdict is
    made from the subset's tuple.  The audit's arrays and its ``verdicts``
    must match it bit for bit.
    """
    n = state.n_qubits
    support = state._support
    verdicts = []
    for k in sizes:
        subsets = list(itertools.combinations(range(n), k))
        if support is None:
            spectra = np.array([multipartite.subset_spectrum(state, s) for s in subsets])
            stats = list(zip(*(column.tolist() for column in multipartite._mixedness(spectra))))
        else:
            reps = multipartite._map_representatives(support, np.array(subsets)).tolist()
            memo = multipartite._memo_spectra(support, n, sorted(set(reps)), k)
            stats = [memo[rep][1] for rep in reps]
        verdicts.extend(
            multipartite.BipartitionVerdict(subset, *numbers)
            for subset, numbers in zip(subsets, stats)
        )
    return tuple(verdicts)


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


# ----------------------------------------------------------------------
# oracle: the seam routes that checked every input twice
#
# The eigensolver seam and the pair measures as they stood before each
# public call checked its input once: ``operator_norm`` sent every
# eigenproblem through the whole of ``jacobi_eigh``'s checks again,
# ``extract_werner_p`` built ``werner_state(p)`` from fresh constants, and
# a 1 x 1 input skipped the Hermitian check.  Unmemoised; the memo hands
# back the bits of its miss, so these give the seam's bits.  The norm is
# the exception: ``operator_norm`` now takes one SVD and gives the bits of
# ``operator_norm_oracle``, and ``seam_operator_norm_oracle`` (its retired
# Hermitian, anti-Hermitian and Gram routes) stays as a cross-check to
# 1e-12.


def seam_eigh_oracle(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    peak = float(np.max(np.abs(a), initial=0.0))
    if not math.isfinite(peak):
        raise ValueError("matrix has NaN or infinite entries")
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=np.complex128)
    if peak == 0.0:
        return np.zeros(n), np.eye(n, dtype=np.complex128)
    unit = a / peak
    skew = float(np.linalg.norm(unit - unit.conj().T))
    if skew > 1e-10 * max(1.0 / peak, float(np.linalg.norm(unit))):
        raise ValueError(f"matrix is not Hermitian (skew norm {skew * peak:.3e})")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w, v


def seam_eigvalsh_oracle(a):
    return seam_eigh_oracle(a)[0]


def seam_operator_norm_oracle(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    peak = float(np.max(np.abs(a)))
    if not math.isfinite(peak):
        raise ValueError("matrix has NaN or infinite entries")
    if a.shape[0] == a.shape[1]:
        tiny = 1e-12 * peak
        if np.max(np.abs(a - a.conj().T)) <= tiny:
            return float(np.max(np.abs(seam_eigh_oracle(a)[0])))
        if np.max(np.abs(a + a.conj().T)) <= tiny:
            return float(np.max(np.abs(seam_eigh_oracle(1j * a)[0])))
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    w, _ = seam_eigh_oracle(gram)
    return float(math.sqrt(max(0.0, float(w[-1]))))


def operator_norm_oracle(a):
    """``np.linalg.norm(a, 2)``: the bits :func:`rvblab.linalg.operator_norm` gives."""
    return float(np.linalg.norm(a, 2))


def seam_matrix_sqrt_oracle(a):
    w, v = seam_eigh_oracle(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def seam_validate_oracle(m):
    """``DensityMatrix.validate`` on the matrix ``m``."""
    if not np.isfinite(m).all():
        raise ValueError("matrix has NaN or infinite entries")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if not herm <= 1e-12:
        raise ValueError(f"matrix is not Hermitian; deviation {herm:.3e}")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= 1e-12:
        raise ValueError(f"trace is {tr}, expected 1")
    w_min = float(seam_eigvalsh_oracle((m + m.conj().T) / 2.0)[0])
    if not w_min >= -1e-10:
        raise ValueError(f"matrix has negative eigenvalue {w_min:.3e}")


_SINGLET = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)


def seam_werner_fit_oracle(rho, norm=operator_norm_oracle):
    """(p, residual) of ``extract_werner_p`` on the two-qubit matrix ``rho``,
    the residual taken by ``norm``."""
    seam_validate_oracle(rho)
    fidelity = float(np.real(_SINGLET @ rho @ _SINGLET))
    p = (4.0 * fidelity - 1.0) / 3.0
    clamped = float(min(max(p, -1.0 / 3.0), 1.0))
    werner = clamped * np.outer(_SINGLET, _SINGLET) + (1.0 - clamped) * np.eye(4) / 4.0
    return p, norm(rho - werner.astype(np.complex128))


_Y_KRON_Y = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def seam_concurrence_oracle(rho):
    seam_validate_oracle(rho)
    rho_tilde = _Y_KRON_Y @ rho.conj() @ _Y_KRON_Y
    root = seam_matrix_sqrt_oracle(rho)
    core = root @ rho_tilde @ root
    w = seam_eigvalsh_oracle((core + core.conj().T) / 2.0)
    lam = np.sqrt(np.clip(w, 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def seam_rotational_invariance_oracle(rho, norm=operator_norm_oracle):
    """Largest commutator norm with the total-spin generators, from Kronecker
    products, each norm taken by ``norm``."""
    n = int(rho.shape[0]).bit_length() - 1
    paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    worst = 0.0
    for pauli in paulis:
        total = np.zeros((2**n, 2**n), dtype=np.complex128)
        for t in range(n):
            # site t is bit t of the index: the last Kronecker factor is site 0
            factors = [pauli if u == t else np.eye(2) for u in range(n - 1, -1, -1)]
            total = total + reduce(np.kron, factors)
        comm = rho @ total - total @ rho
        worst = max(worst, norm(comm))
    return worst


# ----------------------------------------------------------------------
# oracle: loop sums


def _loop_labels_oracle(p_k, p_l):
    """Per-site loop labels and loop count, walking each loop site by site."""
    n_sites = p_k.shape[0]
    labels = np.full(n_sites, -1, dtype=np.int64)
    count = 0
    for start in range(n_sites):
        if labels[start] >= 0:
            continue
        s = start
        while labels[s] < 0:
            labels[s] = count
            t = p_k[s]
            labels[t] = count
            s = p_l[t]
        count += 1
    return labels, count


def loop_formula_scan_oracle(ensemble):
    """Loop-sum Werner matrix over every ordered covering pair, one at a time.

    The route the vectorised kernel replaced: a Python double loop over
    (k, l) that walks the loops of each transition graph and adds
    2**L to float sums, which stay exact integers at these sizes.
    """
    lattice = ensemble.lattice
    n_sites = lattice.site_count
    partners = partner_matrix_oracle(ensemble)
    numerator = np.zeros((n_sites, n_sites), dtype=np.float64)
    denominator = 0.0
    for p_k in partners:
        for p_l in partners:
            labels, count = _loop_labels_oracle(p_k, p_l)
            weight = float(2**count)
            same = labels[:, None] == labels[None, :]
            numerator += weight * same
            denominator += weight
    a_mask = np.array(
        [lattice.sublattice_of(s) is Sublattice.A for s in range(n_sites)]
    )
    sign = np.where(a_mask[:, None] == a_mask[None, :], -1.0, 1.0)
    p_matrix = sign * numerator / denominator
    np.fill_diagonal(p_matrix, 0.0)
    return p_matrix


def covering_orbits_oracle(ensemble):
    """Kept generators and covering orbits, by closing the whole group.

    A candidate generator is kept when it maps the multiset of partner
    rows onto itself.  The kept ones are closed into the full group of
    site permutations, every element is applied to every row, and each
    orbit is returned as the frozenset of partner rows (tuples) it holds.
    """
    rows = [tuple(p) for p in partner_matrix_oracle(ensemble).tolist()]
    n_sites = ensemble.lattice.site_count

    def image(g, row):
        q = [0] * n_sites
        for s in range(n_sites):
            q[g[s]] = g[row[s]]
        return tuple(q)

    kept = [
        g
        for g in ensemble.lattice.symmetry_generators()
        if sorted(image(g, row) for row in rows) == sorted(rows)
    ]
    group = {tuple(range(n_sites))}
    frontier = group
    while frontier:
        frontier = {tuple(h[s] for s in g) for g in frontier for h in kept} - group
        group |= frontier
    orbits = {frozenset(image(g, row) for g in group) for row in rows}
    return kept, orbits


# ----------------------------------------------------------------------
# allocation peaks


def traced_memory(fn, *args):
    """``fn(*args)``, and the peak and the held bytes traced above those held before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak, held


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced during the call above those held before it."""
    out, peak, _ = traced_memory(fn, *args)
    return out, peak
