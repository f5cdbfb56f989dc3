"""Site indices must be integers: every entry point rejects a float, a string or a boolean.

``int()`` would truncate 1.9 to 1 or parse "1" as 1, and ``operator.index``
reads True as 1, and each would answer for a pair that was never asked for;
each entry point raises a one-line ValueError instead, and NumPy integers
still pass.
"""

import json

import numpy as np
import pytest

from rvblab import (
    custom_ensemble,
    ensemble_from_json,
    ensemble_to_json,
    enumerate_liquid,
    loop_formula_p,
    measure_pair,
    monogamy_sum,
    partial_trace,
    reduced_density_matrix,
)
from rvblab.coverings import DimerCovering
from rvblab.lattice import site_indices


def _rejects(call):
    with pytest.raises(ValueError) as info:
        call()
    assert "\n" not in str(info.value)


def test_reduced_density_matrix(state23):
    _rejects(lambda: reduced_density_matrix(state23, (0.5, 1.7)))


def test_partial_trace(state23):
    dm = reduced_density_matrix(state23, (0, 1, 2))
    _rejects(lambda: partial_trace(dm, (0, 1.0)))


def test_measure_pair(state23):
    _rejects(lambda: measure_pair(state23, (0, 1.9)))


def test_monogamy_sum(state23):
    _rejects(lambda: monogamy_sum(state23, 0, (1, 2.5)))
    _rejects(lambda: monogamy_sum(state23, 0.0, (1, 2)))


def test_from_pairs(grid22):
    _rejects(lambda: DimerCovering.from_pairs(grid22, [(0, 1), (3, "2")]))


@pytest.mark.parametrize("site", [1.9, "1"])
def test_ensemble_from_json(liquid22, site):
    doc = json.loads(ensemble_to_json(liquid22))
    assert doc["coverings"][0][0] == [0, 1]
    doc["coverings"][0][0][1] = site
    _rejects(lambda: ensemble_from_json(json.dumps(doc)))


def test_custom_ensemble(grid22):
    _rejects(lambda: custom_ensemble(grid22, [[(0, 1.0), (3, 2)]]))


def test_loop_formula_p(liquid23):
    _rejects(lambda: loop_formula_p(liquid23, 0, 1.9))


@pytest.mark.parametrize("sites", [(False, True), (0, True), (np.int64(0), False)])
def test_site_indices_rejects_booleans(sites):
    with pytest.raises(ValueError, match=r"^sites must be integers, got \(.+\)$"):
        site_indices(sites)


def test_booleans_rejected_at_every_entry_point(grid22, liquid23, state23):
    # each call would answer for the pair (0, 1) or the anchor 1 if True read as 1
    dm = reduced_density_matrix(state23, (0, 1, 2))
    _rejects(lambda: reduced_density_matrix(state23, (False, True)))
    _rejects(lambda: partial_trace(dm, (False, 1)))
    _rejects(lambda: measure_pair(state23, (0, True)))
    _rejects(lambda: loop_formula_p(liquid23, False, True))
    _rejects(lambda: monogamy_sum(state23, True, (0, 2)))
    _rejects(lambda: monogamy_sum(state23, 0, (True, 2)))
    _rejects(lambda: DimerCovering.from_pairs(grid22, [(False, 1), (3, 2)]))


@pytest.mark.parametrize("site", [True, np.True_], ids=["True", "np.True_"])
def test_custom_ensemble_rejects_a_boolean_among_integers(grid22, site):
    # stacked into one integer array, True would read as 1: the covering (0, 1), (3, 2)
    assert np.array([[(0, site), (3, 2)]]).dtype.kind == "i"
    with pytest.raises(ValueError, match="^covering sites must be integers, got a boolean$"):
        custom_ensemble(grid22, [[(0, site), (3, 2)]])


def test_ensemble_from_json_rejects_true_as_a_site(liquid22):
    doc = json.loads(ensemble_to_json(liquid22))
    doc["coverings"][0][0][1] = True
    text = json.dumps(doc)
    assert "[0, true]" in text
    with pytest.raises(ValueError, match="^covering sites must be integers, got a boolean$"):
        ensemble_from_json(text)


def test_numpy_integers_pass(grid23, liquid23, state23):
    i, j = np.int64(0), np.int32(1)
    assert reduced_density_matrix(state23, (i, j)).sites == (0, 1)
    assert measure_pair(state23, (i, j)).pair == (0, 1)
    assert loop_formula_p(liquid23, i, j) == loop_formula_p(liquid23, 0, 1)
    pairs = enumerate_liquid(grid23).coverings[0].pairs
    as_numpy = [tuple(np.int64(s) for s in pair) for pair in pairs]
    assert DimerCovering.from_pairs(grid23, as_numpy).pairs == pairs
    ens = custom_ensemble(grid23, [np.array(pairs, dtype=np.int32)])
    assert ens.coverings[0].pairs == pairs
