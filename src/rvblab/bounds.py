"""Monogamy and telecloning upper bounds on the Werner parameter.

A site with R equidistant opposite-sublattice partners shares the same p
with each of them, so monogamy of the tangle caps p at

    monogamy_bound(R)    = 1/3 + 2 / (3 sqrt(R)),

and the telecloning chain (teleportation fidelity (p+1)/2 to M equivalent
receivers cannot beat optimal 1 -> M cloning fidelity (2M+1)/(3M)) caps
it at the tighter

    telecloning_bound(M) = 1/3 + 2 / (3 M).

The gas variant quoted for complete-bipartite ensembles of N pairs is

    gas_monogamy_bound(N) = 1/3 + 2 sqrt(2) / (3 sqrt(N)).

All three are capped at 1 (p never exceeds 1) and decrease toward 1/3,
the separability threshold.  Each takes a count or an integer array of
counts: a scalar gives a Python float, and an array gives a float64
array whose entries have the bits of the scalar calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entanglement import extract_werner_p
from .lattice import Kind, LatticeSpec, interior_nn_bond
from .states import StateVector, reduced_density_matrix

SLACK_TOL = 1e-9


class BoundKind(enum.Enum):
    MONOGAMY_NN = "monogamy-nn"
    TELECLONING_NN = "telecloning-nn"
    MONOGAMY_EQUIDISTANT = "monogamy-equidistant"
    TELECLONING_EQUIDISTANT = "telecloning-equidistant"
    GAS_MONOGAMY = "gas-monogamy"
    GAS_TELECLONING = "gas-telecloning"


def _capped(
    count: int | np.ndarray, noun: str, value: Callable[[np.ndarray], np.ndarray]
) -> float | np.ndarray:
    """``min(1, value(count))`` of a count or of an integer array of counts.

    A scalar count gives a Python float, an array a float64 array of its
    shape, with the same bits per entry.  Raises ValueError if any count
    is below 1.
    """
    counts = np.asarray(count)
    low = counts < 1
    if low.any():
        bad = count if low.ndim == 0 else counts[low][0]
        raise ValueError(f"{noun} count must be at least 1, got {bad}")
    out = np.minimum(1.0, value(counts.astype(np.float64)))
    return float(out) if out.ndim == 0 else out


def monogamy_bound(r: int | np.ndarray) -> float | np.ndarray:
    """Upper bound on p from tangle monogamy over r equidistant partners."""
    return _capped(r, "partner", lambda r: 1.0 / 3.0 + 2.0 / (3.0 * np.sqrt(r)))


def telecloning_bound(m: int | np.ndarray) -> float | np.ndarray:
    """Upper bound on p from optimal 1 -> m cloning fidelity."""
    return _capped(m, "receiver", lambda m: 1.0 / 3.0 + 2.0 / (3.0 * m))


def gas_monogamy_bound(n: int | np.ndarray) -> float | np.ndarray:
    """Monogamy-type bound quoted for the gas of n pairs."""
    return _capped(n, "pair", lambda n: 1.0 / 3.0 + 2.0 * math.sqrt(2.0) / (3.0 * np.sqrt(n)))


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluated against a measured Werner parameter.

    ``slack = bound_value - measured_p``; satisfied means slack >= -1e-9.
    Reports without a measured value (pure table entries) are vacuously
    satisfied and carry ``measured_p = slack = None``.
    """

    bound_kind: BoundKind
    parameter: int
    bound_value: float
    measured_p: float | None
    satisfied: bool
    slack: float | None


def _report(kind: BoundKind, parameter: int, value: float, measured: float | None) -> BoundReport:
    if measured is None:
        return BoundReport(kind, parameter, value, None, True, None)
    slack = value - measured
    return BoundReport(kind, parameter, value, measured, slack >= -SLACK_TOL, slack)


def _pair_p(state: StateVector, i: int, j: int) -> float:
    dm = reduced_density_matrix(state, tuple(sorted((i, j))))
    return extract_werner_p(dm).p


def equidistant_class_min_p(
    state: StateVector, lattice: LatticeSpec, anchor: int, r: int
) -> float | None:
    """Smallest measured p among opposite-sublattice sites at distance r.

    Both bounds constrain only the weakest member of an equidistant
    class: R equal-or-better tangles must fit under the monogamy budget,
    and all R receivers must beat the symmetric cloning optimum.  On
    lattices whose class members are equivalent by symmetry the minimum
    coincides with every member, which is the translationally invariant
    case the bounds were stated for.  Returns None for an empty class.
    """
    values = [_pair_p(state, anchor, t) for t in lattice.equidistant_class(anchor, r)]
    return min(values) if values else None


def distance_classes(state: StateVector, lattice: LatticeSpec) -> list[tuple[int, int, float]]:
    """``(r, class_size, class_min_p)`` for each odd distance r with a nonempty class.

    The anchor is the first site of :func:`interior_nn_bond`, and each class
    is measured by one :func:`equidistant_class_min_p` call.
    """
    anchor, _ = interior_nn_bond(lattice)
    classes = []
    for r in range(1, lattice.max_distance() + 1, 2):
        count = lattice.equidistant_count(anchor, r)
        if count:
            classes.append((r, count, equidistant_class_min_p(state, lattice, anchor, r)))
    return classes


def compare(state: StateVector, lattice: LatticeSpec) -> list[BoundReport]:
    """Evaluate every applicable bound against measured values.

    Each class of :func:`distance_classes` feeds its minimum p to one pair
    of bounds whose parameter is the class size.  On grids r = 1 feeds the
    NN bounds and larger r the equidistant bounds.  On complete-bipartite
    lattices the one class is all N partners of site 0, and it feeds the
    gas bounds (permutation symmetry makes all cross pairs identical, which
    the test suite asserts separately).
    """
    if lattice.site_count != state.n_qubits:
        raise ValueError("state and lattice disagree on site count")
    if lattice.kind is Kind.COMPLETE_BIPARTITE:
        nn_bounds = (
            (BoundKind.GAS_MONOGAMY, gas_monogamy_bound),
            (BoundKind.GAS_TELECLONING, telecloning_bound),
        )
    else:
        nn_bounds = (
            (BoundKind.MONOGAMY_NN, monogamy_bound),
            (BoundKind.TELECLONING_NN, telecloning_bound),
        )
    far_bounds = (
        (BoundKind.MONOGAMY_EQUIDISTANT, monogamy_bound),
        (BoundKind.TELECLONING_EQUIDISTANT, telecloning_bound),
    )
    reports: list[BoundReport] = []
    for r, count, class_min in distance_classes(state, lattice):
        for kind, bound in nn_bounds if r == 1 else far_bounds:
            reports.append(_report(kind, count, bound(count), class_min))
    return reports


def bound_table(parameters: Sequence[int]) -> list[BoundReport]:
    """Unmeasured bound values for a list of parameters (plot/report data)."""
    out: list[BoundReport] = []
    for r in parameters:
        out.append(_report(BoundKind.MONOGAMY_EQUIDISTANT, r, monogamy_bound(r), None))
        out.append(_report(BoundKind.TELECLONING_EQUIDISTANT, r, telecloning_bound(r), None))
    return out
