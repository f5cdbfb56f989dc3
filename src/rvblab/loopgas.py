"""The loop-sum correlation route over the transition graphs of covering pairs.

Superimposing two dimer coverings decomposes the lattice into closed
loops: degenerate loops (the two coverings share a dimer, 2 sites) and
non-degenerate alternating loops (even length >= 4).  With all pairs
oriented A-first the overlap of two covering products is positive,
``<c_k|c_l> = 2**(L - N)`` where L counts the loops and N the dimers, so
an equal-weight superposition gives the two-site Werner parameter as a
ratio of integer loop sums:

    p(i, j) = sign(i, j) * sum_{k,l} X_ij(g_kl) 2**L(g_kl)
                         / sum_{k,l} 2**L(g_kl)

summed over ordered covering pairs, where X_ij is 1 when i and j lie on
the same loop, and sign is +1 for opposite sublattices, -1 otherwise.
Weights are exact powers of two, so numerator and denominator are exact
integers; this route never touches the exponentially large state vector
and serves as an independent check of the state-assembly pipeline.

The sums run through one NumPy kernel, ``_row_loops``, that labels the
loops of (k, l) for every l at once.  A loop of (k, l) is the union of
two orbits, of s and of p_k(s), under the permutation p_l o p_k, so
``ceil(log2(sites / 2))`` pointer-doubling steps of ``m = min(m, m[f]);
f = f[f]``, started from ``m = min(s, p_k(s))``, leave every site
labelled by the smallest site of its loop; a loop's smallest site is the
one site whose label is itself.

``loop_formula_scan`` sums one full row per covering orbit.  A site
permutation g of the lattice that maps the ensemble onto itself (checked
exactly on the partner arrays) maps the transition graph of (k, l) onto
that of (g(k), g(l)), so covering g(r)'s full row ``sum_l 2**L X_ij`` is
covering r's with sites i, j moved to g[i], g[j].  The scan labels the
full row of each orbit representative r and adds it once per orbit
member, under a g that maps r to the member; the row total enters the
denominator as often.  No division enters.  The scan sums in float64.
Every weight is a power of two, and every partial sum is a multiple of
the smallest weight 2**L_min and at most (covering pairs) * 2**(N -
L_min) times it, below 2**53 for any ensemble within ``MAX_GRAPH_PAIRS``
on up to 74 sites.  The float sums are then the exact integers in any
summation order, so the orbit rows give the same numerator and
denominator as the sum over every ordered pair, and each Werner
parameter is the correctly rounded quotient of two of them.  An orbit's
rows enter in one gather: entry (a, b) of member g(r)'s row is entry
(g^-1(a), g^-1(b)) of r's, so one fancy index over the orbit's inverse
site maps and one sum over them fold the whole orbit.

The scan runs once per ensemble.  Its matrix is kept read-only on the
ensemble, and each call of ``loop_formula_scan``, ``loop_formula_p`` or
``same_sublattice_scan`` gets a copy; the weight checks and the
``MAX_GRAPH_PAIRS`` cap still run on every call, and a scan that raises
keeps nothing.  ``loop_formula_p`` reads one entry of the scan.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .coverings import CoveringEnsemble
from .errors import CapExceeded
from .lattice import LatticeSpec, Sublattice, site_indices
from .states import reduced_density_matrix  # noqa: F401 - perfbench's tracer tests patch it

MAX_GRAPH_PAIRS = 100_000


def _partner_matrix(ensemble: CoveringEnsemble) -> np.ndarray:
    """(coverings x sites) array: row k maps each site to its partner in k."""
    a = np.broadcast_to(ensemble.lattice.a_sites(), ensemble.partners.shape)
    out = np.empty((len(ensemble), ensemble.lattice.site_count), dtype=np.int64)
    np.put_along_axis(out, np.hstack((a, ensemble.partners)), np.hstack((ensemble.partners, a)), 1)
    return out


def _row_loops(partners: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Loop labels and loop counts of (k, l) for every covering l.

    Row l of the labels gives each site the smallest site of its loop in
    the transition graph of coverings k and l.
    """
    p_k = partners[k]
    n_sites = p_k.shape[0]
    sites = np.arange(n_sites)
    f = partners[:, p_k]  # p_l o p_k, one row per l
    m = np.broadcast_to(np.minimum(sites, p_k), f.shape)
    # the orbits of p_l o p_k hold at most half the sites
    for _ in range((n_sites // 2 - 1).bit_length()):
        m = np.minimum(m, np.take_along_axis(m, f, axis=1))
        f = np.take_along_axis(f, f, axis=1)
    return m, np.count_nonzero(m == sites, axis=1)


def _kept_generators(
    lattice: LatticeSpec, partners: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The lattice's symmetry generators that map the coverings onto themselves.

    A site permutation g sends the covering with partner array p to the
    one with ``q[g[s]] = g[p[s]]``.  g is kept only if the image rows are
    the rows of ``partners`` again, compared exactly on integers and as a
    multiset, so that a covering listed twice must map to one listed
    twice.  Each kept g comes with ``cover``, the permutation it induces
    on the rows: row ``cover[k]`` is the image of row k.
    """
    kept = []
    order = np.lexsort(partners.T[::-1])
    for g in map(np.array, lattice.symmetry_generators()):
        image = np.empty_like(partners)
        image[:, g] = g[partners]
        image_order = np.lexsort(image.T[::-1])
        if np.array_equal(image[image_order], partners[order]):
            cover = np.empty_like(order)
            cover[image_order] = order
            kept.append((g, cover))
    return kept


def _covering_orbits(
    lattice: LatticeSpec, partners: np.ndarray
) -> list[tuple[int, list[np.ndarray]]]:
    """Each covering orbit as its representative r and its site maps.

    Walks the kept generators breadth-first from the lowest covering not
    yet reached.  Each covering k of the orbit gives one site permutation
    g with k = g(r), so the orbit holds ``len(maps)`` coverings.  Without
    a kept generator every covering is its own orbit.
    """
    kept = _kept_generators(lattice, partners)
    reached = np.zeros(len(partners), dtype=bool)
    identity = np.arange(partners.shape[1])
    orbits = []
    for r in range(len(partners)):
        if reached[r]:
            continue
        reached[r] = True
        orbit = [(r, identity)]
        for k, h in orbit:  # appending while iterating walks breadth-first
            for g, cover in kept:
                if not reached[cover[k]]:
                    reached[cover[k]] = True
                    orbit.append((cover[k], g[h]))
        orbits.append((r, [h for _, h in orbit]))
    return orbits


def _check_scannable(ensemble: CoveringEnsemble) -> None:
    if not ensemble.has_equal_weights:
        raise ValueError("loop-sum route requires an equal-weight ensemble")
    if ensemble.weights[0] == 0.0:
        raise ValueError("loop-sum route requires a nonzero covering weight")


def loop_formula_scan(ensemble: CoveringEnsemble) -> np.ndarray:
    """Werner parameters for all site pairs via the loop sum.

    Returns a symmetric (sites x sites) array with the sublattice sign
    applied; the diagonal is set to 0 (undefined).  Raises
    :class:`CapExceeded` above ``MAX_GRAPH_PAIRS`` ordered pairs.  The
    checks run on every call; the matrix is summed on the first call for
    an ensemble and kept on it read-only, and each call returns its own
    copy.
    """
    _check_scannable(ensemble)
    n_cov = len(ensemble)
    if n_cov * n_cov > MAX_GRAPH_PAIRS:
        raise CapExceeded(
            f"loop scan capped at {MAX_GRAPH_PAIRS} ordered covering pairs; "
            f"ensemble needs {n_cov * n_cov}"
        )
    memo = ensemble._memo
    if "loop_sum" not in memo:
        p_matrix = _loop_sum(ensemble)
        p_matrix.setflags(write=False)
        memo["loop_sum"] = p_matrix
    return memo["loop_sum"].copy()


def _loop_sum(ensemble: CoveringEnsemble) -> np.ndarray:
    """The signed loop-sum quotients, one full row per covering orbit."""
    lattice = ensemble.lattice
    n_sites = lattice.site_count
    partners = _partner_matrix(ensemble)
    numerator = np.zeros((n_sites, n_sites), dtype=np.float64)
    denominator = 0.0
    for r, maps in _covering_orbits(lattice, partners):
        labels, counts = _row_loops(partners, r)
        # 2**L scaled by 2**-pairs, which leaves every quotient unchanged and
        # keeps the weights finite
        weights = np.ldexp(1.0, counts - n_sites // 2)
        same = labels[:, :, None] == labels[:, None, :]
        row = (weights @ same.reshape(len(ensemble), -1)).reshape(n_sites, n_sites)
        # covering g(r)'s row is r's row with sites i, j moved to g[i], g[j],
        # so entry (a, b) of it is r's entry at the inverse images of a and b
        inv = np.argsort(maps, axis=1)
        numerator += row[inv[:, :, None], inv[:, None, :]].sum(axis=0)
        denominator += weights.sum() * len(maps)
    a_mask = np.array([lattice.sublattice_of(s) is Sublattice.A for s in range(n_sites)])
    sign = np.where(a_mask[:, None] == a_mask[None, :], -1.0, 1.0)
    p_matrix = sign * numerator / denominator
    np.fill_diagonal(p_matrix, 0.0)
    return p_matrix


def loop_formula_p(ensemble: CoveringEnsemble, i: int, j: int) -> float:
    """Werner parameter of one site pair: entry (i, j) of :func:`loop_formula_scan`.

    The scan's matrix is kept on the ensemble, so only the first call
    sums it; later calls copy it and read one entry.  Like the scan, it
    raises :class:`CapExceeded` above ``MAX_GRAPH_PAIRS`` ordered pairs.
    """
    _check_scannable(ensemble)
    i, j = site_indices((i, j))
    n_sites = ensemble.lattice.site_count
    if not (0 <= i < n_sites and 0 <= j < n_sites) or i == j:
        raise ValueError(f"need two distinct sites in [0, {n_sites}), got ({i}, {j})")
    return float(loop_formula_scan(ensemble)[i, j])


def same_sublattice_scan(ensemble: CoveringEnsemble) -> list[tuple[tuple[int, int], float]]:
    """((i, j), p) for every same-sublattice pair, via the loop sum.

    All values are <= 0 up to rounding: same-sublattice sites never see
    a positive singlet weight in an equal-weight covering superposition.
    """
    p_matrix = loop_formula_scan(ensemble)
    side = [ensemble.lattice.sublattice_of(s) for s in range(len(p_matrix))]
    pairs = combinations(range(len(p_matrix)), 2)
    return [((i, j), float(p_matrix[i, j])) for i, j in pairs if side[i] is side[j]]
