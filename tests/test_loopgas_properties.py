"""Property tests: the loop-sum route on random equal-weight ensembles.

Ensembles are drawn as subsets of the enumerated coverings of small grids
(2x2 up to 4x4, open, and the periodic 4x4) and of small gases.  Any
equal-weight superposition of singlet coverings is a total singlet, so
every two-site reduced density matrix is of Werner form and the loop sum
must reproduce its p.  Examples are derandomized, so every run draws the
same ones.
"""

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import loop_formula_scan_oracle
from rvblab import (
    LatticeSpec,
    assemble,
    custom_ensemble,
    enumerate_gas,
    enumerate_liquid,
    extract_werner_p,
    loop_formula_p,
    loop_formula_scan,
    reduced_density_matrix,
)

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


@PROPERTY_SETTINGS
@given(equal_weight_ensembles())
def test_scan_equals_loop_walk_oracle(ensemble):
    got = loop_formula_scan(ensemble)
    assert got.tobytes() == loop_formula_scan_oracle(ensemble).tobytes()


@PROPERTY_SETTINGS
@given(equal_weight_ensembles(), st.data())
def test_pointwise_equals_loop_walk_oracle(ensemble, data):
    n = ensemble.lattice.site_count
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda s: s != i))
    assert loop_formula_p(ensemble, i, j) == loop_formula_scan_oracle(ensemble)[i, j]


@PROPERTY_SETTINGS
@given(equal_weight_ensembles())
def test_scan_equals_state_vector_route(ensemble):
    p_matrix = loop_formula_scan(ensemble)
    state = assemble(ensemble)
    n = ensemble.lattice.site_count
    for i in range(n):
        for j in range(i + 1, n):
            dm = reduced_density_matrix(state, (i, j))
            rho = dm.matrix
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            assert abs(p_matrix[i, j] - extract_werner_p(dm).p) <= 1e-12, (i, j)
