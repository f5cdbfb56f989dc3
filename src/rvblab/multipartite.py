"""Bipartition mixedness audits and genuine multipartite entanglement.

For a pure global state, a subset is entangled with the rest exactly when
its reduced state is mixed, so subset purity/entropy scans certify
entanglement structure directly.  Spectra are computed on the Schmidt
route: reshape the amplitude tensor so the subset indexes rows, then take
the Gram matrix of the smaller side.  This keeps exhaustive scans over
thousands of subsets fast; the density-matrix module covers the same
quantities one subset at a time through its own eigensolver, and the
tests pin the two routes against each other.

Genuine multipartite entanglement of a pure state means every nontrivial
bipartition is entangled; the certificate scans all 2**(n-1) - 1 cuts
(subsets containing site 0, so each unordered cut appears once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .states import StateVector, _subset_block

ENTANGLED_PURITY_TOL = 1e-9
CERTIFICATE_MAX_QUBITS = 12
AUDIT_MAX_SUBSETS = 20_000


@dataclass(frozen=True)
class BipartitionVerdict:
    """Mixedness of one subset against the rest of a pure state."""

    subset: tuple[int, ...]
    purity: float
    entropy_bits: float
    entangled: bool


@dataclass(frozen=True)
class AuditResult:
    """Verdicts for every subset of an exhaustive audit."""

    verdicts: tuple[BipartitionVerdict, ...]

    @property
    def all_entangled(self) -> bool:
        return all(v.entangled for v in self.verdicts)


def subset_spectrum(state: StateVector, subset: Sequence[int]) -> np.ndarray:
    """Descending Schmidt spectrum (reduced eigenvalues) of a site subset."""
    block = _subset_block(state, subset)
    if not 0 < len(subset) < state.n_qubits:
        raise ValueError("subset must be a proper nonempty subset")
    if block.shape[0] <= block.shape[1]:
        gram = block @ block.T
    else:
        gram = block.T @ block
    w = np.linalg.eigvalsh(gram)
    w = np.clip(w, 0.0, None)[::-1]
    return w


def bipartition_verdict(state: StateVector, subset: Sequence[int]) -> BipartitionVerdict:
    w = subset_spectrum(state, subset)
    pur = float(np.sum(w * w))
    positive = w[w > 0.0]
    ent = float(-np.sum(positive * np.log2(positive)))
    return BipartitionVerdict(
        subset=tuple(int(s) for s in subset),
        purity=pur,
        entropy_bits=ent,
        entangled=pur < 1.0 - ENTANGLED_PURITY_TOL,
    )


def _audit(state: StateVector, sizes: Sequence[int]) -> AuditResult:
    """Verdicts for every subset of ``sizes``; checks the cap before any spectrum."""
    n = state.n_qubits
    total = sum(math.comb(n, k) for k in sizes)
    if total > AUDIT_MAX_SUBSETS:
        raise CapExceeded(
            f"subset audit capped at {AUDIT_MAX_SUBSETS} subsets; requested {total}"
        )
    subsets = (s for k in sizes for s in combinations(range(n), k))
    return AuditResult(verdicts=tuple(bipartition_verdict(state, s) for s in subsets))


def odd_subset_audit(state: StateVector, max_size: int = 5) -> AuditResult:
    """Verdicts for every odd-size proper subset up to ``max_size``.

    Odd subsets of a singlet superposition are always mixed (a dimer
    must cross the cut), so every verdict should come back entangled.
    Raises :class:`CapExceeded` above ``AUDIT_MAX_SUBSETS`` subsets.
    """
    return _audit(state, range(1, min(max_size, state.n_qubits - 1) + 1, 2))


def even_subset_audit(state: StateVector, max_size: int = 4) -> AuditResult:
    """Verdicts for every even-size proper subset up to ``max_size``; same cap."""
    sizes = range(2, min(max_size, state.n_qubits - 1) + 1, 2)
    if not sizes:
        raise ValueError("no even proper subset sizes available")
    return _audit(state, sizes)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the exhaustive bipartition scan of a pure state."""

    genuine: bool
    n_cuts: int
    min_entropy_bits: float
    min_cut: tuple[int, ...]


def genuine_multipartite_certificate(state: StateVector) -> CertificateReport:
    """Exhaustive check that every bipartition of a pure state is entangled.

    Scans the 2**(n-1) - 1 cuts whose subset contains site 0.  Raises
    :class:`CapExceeded` above 12 qubits (2047 cuts).
    """
    n = state.n_qubits
    if n > CERTIFICATE_MAX_QUBITS:
        raise CapExceeded(
            f"certificate capped at {CERTIFICATE_MAX_QUBITS} qubits; state has {n}"
        )
    if n < 2:
        raise ValueError("certificate needs at least two sites")
    best_entropy = math.inf
    best_cut: tuple[int, ...] = ()
    genuine = True
    n_cuts = 0
    for k in range(1, n):
        for rest in combinations(range(1, n), k - 1):
            subset = (0,) + rest
            n_cuts += 1
            verdict = bipartition_verdict(state, subset)
            if verdict.entropy_bits < best_entropy:
                best_entropy = verdict.entropy_bits
                best_cut = subset
            if not verdict.entangled:
                genuine = False
    return CertificateReport(
        genuine=genuine,
        n_cuts=n_cuts,
        min_entropy_bits=float(best_entropy),
        min_cut=best_cut,
    )
