"""Property tests: the loop-sum route on random equal-weight ensembles.

Ensembles are drawn by the shared strategy in ``conftest``: subsets of
the enumerated coverings of small grids (2x2 up to 4x4, open, and the
periodic 4x4) and of small gases.  Any equal-weight superposition of
singlet coverings is a total singlet, so every two-site reduced density
matrix is of Werner form and the loop sum must reproduce its p.  Examples
are derandomized, so every run draws the same ones.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY_SETTINGS, equal_weight_ensembles, loop_formula_scan_oracle
from rvblab import (
    assemble,
    extract_werner_p,
    loop_formula_p,
    loop_formula_scan,
    reduced_density_matrix,
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
