"""Acceptance gate: ten criteria, one visible pass/fail line each.

Each test prints ``CRITERION k: PASS/FAIL - detail`` directly to the
terminal (bypassing capture) and then asserts, so the tee'd log always
carries one line per criterion.  Two criteria compare against published
reference values that the exact computation does not reproduce; those
tests fail by design and their messages carry the measured values.
"""

import time

import numpy as np
import pytest

from rvblab import (
    LatticeSpec,
    assemble,
    check_rotational_invariance,
    enumerate_gas,
    enumerate_liquid,
    eof_two_qubit,
    extract_werner_p,
    genuine_multipartite_certificate,
    interior_nn_bond,
    loop_formula_scan,
    monogamy_bound,
    monogamy_sum,
    odd_subset_audit,
    reduced_density_matrix,
    telecloning_bound,
    werner_state,
)
from rvblab.cli import main as cli_main

GAS_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
LIQUID_SHAPES = ((2, 2), (2, 3), (2, 4), (4, 4))


def emit(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def assembled_states():
    """Every state the suite certifies: gases N <= 8 and the four liquids."""
    out = {}
    for n in GAS_SIZES:
        lat = LatticeSpec.complete_bipartite(n)
        out[f"gas-{n}"] = (lat, assemble(enumerate_gas(lat)))
    for rows, cols in LIQUID_SHAPES:
        lat = LatticeSpec.square_grid(rows, cols)
        out[f"liquid-{rows}x{cols}"] = (lat, assemble(enumerate_liquid(lat)))
    return out


def test_criterion_1_liquid_44_interior_bond(capsys):
    reference, tol = 0.2004, 5e-4
    start = time.perf_counter()
    lat = LatticeSpec.square_grid(4, 4)
    state = assemble(enumerate_liquid(lat))
    bond = interior_nn_bond(lat)
    p_open = extract_werner_p(reduced_density_matrix(state, bond)).p
    elapsed = time.perf_counter() - start
    ok_open = abs(p_open - reference) <= tol

    detail = f"open interior bond p = {p_open:.6f} in {elapsed:.3f}s"
    if not ok_open:
        lat_p = LatticeSpec.square_grid(4, 4, boundary="periodic")
        state_p = assemble(enumerate_liquid(lat_p))
        bond_p = interior_nn_bond(lat_p)
        p_per = extract_werner_p(reduced_density_matrix(state_p, bond_p)).p
        ok_per = abs(p_per - reference) <= tol
        detail = (
            f"reference {reference} +/- {tol:g} missed by both boundaries: "
            f"open p = {p_open:.6f}, periodic p = {p_per:.6f} "
            f"(boundary-condition ambiguity; built in {elapsed:.3f}s)"
        )
        ok = ok_open or ok_per
    else:
        ok = True
    emit(capsys, 1, ok and elapsed < 10.0, detail)
    assert elapsed < 10.0, f"4x4 build took {elapsed:.2f}s, target < 10s"
    assert ok, (
        f"interior-bond p vs reference {reference} +/- {tol:g}: {detail}. "
        "The exact open-boundary value is 0.228112 and the periodic value is "
        "0.445758; both stay below (open) the separability threshold story the "
        "reference value tells, but neither matches its decimals."
    )


def test_criterion_2_gas_saturation(capsys):
    results = []
    elapsed_by_n = {}
    for n in (6, 8):
        start = time.perf_counter()
        lat = LatticeSpec.complete_bipartite(n)
        state = assemble(enumerate_gas(lat))
        expected = (n + 2) / (3.0 * n)
        devs = [
            abs(extract_werner_p(reduced_density_matrix(state, (0, b))).p - expected)
            for b in range(n, 2 * n)
        ]
        elapsed_by_n[n] = time.perf_counter() - start
        results.append((n, expected, max(devs)))
    ok = all(dev <= 1e-9 for _, _, dev in results) and elapsed_by_n[8] < 120.0
    detail = ", ".join(
        f"N={n}: p = {expected:.9f} (= {'4/9' if n == 6 else '5/12'}), "
        f"max dev {dev:.2e}"
        for n, expected, dev in results
    )
    emit(capsys, 2, ok, f"{detail}; N=8 in {elapsed_by_n[8]:.2f}s")
    for n, expected, dev in results:
        assert dev <= 1e-9, f"gas N={n} deviates from {expected} by {dev:.2e}"
    assert elapsed_by_n[8] < 120.0


def test_criterion_3_eof_anchor(capsys):
    reference, tol = 0.023, 1e-3
    measured = eof_two_qubit(werner_state(0.5))
    ok = abs(measured - reference) <= tol
    emit(
        capsys,
        3,
        ok,
        f"eof(rho_W(1/2)) = {measured:.6f} ebits vs reference {reference} +/- {tol}",
    )
    assert ok, (
        f"eof(rho_W(1/2)) = {measured:.15f} ebits, reference {reference} +/- {tol}. "
        "The closed form is h((1 + sqrt(1 - C^2))/2) with C = 1/4, i.e. h(x) at "
        "x = (1 + sqrt(15)/4)/2: both entropy terms together give 0.117619. The "
        "-x*log2(x) term alone equals 0.022723, matching the reference, so the "
        "reference value appears to drop the -(1-x)*log2(1-x) term."
    )


def test_criterion_4_bound_table(capsys):
    m4 = monogamy_bound(4)
    t4 = telecloning_bound(4)
    chain = all(
        telecloning_bound(r) <= monogamy_bound(r) for r in range(1, 10_001)
    )
    ok = m4 == 2.0 / 3.0 and t4 == 0.5 and chain
    emit(
        capsys,
        4,
        ok,
        f"monogamy_bound(4) = {m4!r}, telecloning_bound(4) = {t4!r}, "
        f"ordering holds on [1, 10^4]: {chain}",
    )
    assert m4 == 2.0 / 3.0
    assert t4 == 0.5
    assert chain


def test_criterion_5_werner_form_everywhere(capsys, assembled_states):
    worst_res, worst_comm, n_pairs = 0.0, 0.0, 0
    for label, (lat, state) in assembled_states.items():
        for i in range(state.n_qubits):
            for j in range(i + 1, state.n_qubits):
                dm = reduced_density_matrix(state, (i, j))
                worst_res = max(worst_res, extract_werner_p(dm).residual)
                worst_comm = max(worst_comm, check_rotational_invariance(dm))
                n_pairs += 1
    ok = worst_res < 1e-10 and worst_comm < 1e-12
    emit(
        capsys,
        5,
        ok,
        f"{n_pairs} pair RDMs over {len(assembled_states)} states: "
        f"max residual {worst_res:.2e}, max commutator {worst_comm:.2e}",
    )
    assert worst_res < 1e-10
    assert worst_comm < 1e-12


def test_criterion_6_loop_formula_oracle(capsys):
    worst = 0.0
    for rows, cols in ((2, 2), (2, 3), (4, 4)):
        lat = LatticeSpec.square_grid(rows, cols)
        ensemble = enumerate_liquid(lat)
        state = assemble(ensemble)
        p_matrix = loop_formula_scan(ensemble)
        for i in range(state.n_qubits):
            for j in range(i + 1, state.n_qubits):
                direct = extract_werner_p(reduced_density_matrix(state, (i, j))).p
                worst = max(worst, abs(p_matrix[i, j] - direct))
    ok = worst <= 1e-9
    emit(capsys, 6, ok, f"max |loop-sum p - direct p| = {worst:.2e} over three liquids")
    assert worst <= 1e-9


def test_criterion_7_same_sublattice_nonpositive(capsys, assembled_states):
    lat, state = assembled_states["liquid-4x4"]
    worst = -np.inf
    for i in range(16):
        for j in range(i + 1, 16):
            if lat.sublattice_of(i) is lat.sublattice_of(j):
                p = extract_werner_p(reduced_density_matrix(state, (i, j))).p
                worst = max(worst, p)
    ok = worst <= 1e-12
    emit(capsys, 7, ok, f"max same-sublattice p on the 4x4 liquid = {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_8_monogamy_everywhere(capsys, assembled_states):
    worst_sum, worst_agg = 0.0, 0.0
    n_anchors = 0
    for label, (_, state) in assembled_states.items():
        for anchor in range(state.n_qubits):
            partners = [s for s in range(state.n_qubits) if s != anchor]
            total, aggregate = monogamy_sum(state, anchor, partners)
            worst_sum = max(worst_sum, total)
            worst_agg = max(worst_agg, abs(aggregate - 1.0))
            n_anchors += 1
    ok = worst_sum <= 1.0 + 1e-9 and worst_agg <= 1e-9
    emit(
        capsys,
        8,
        ok,
        f"{n_anchors} anchors: max tangle sum {worst_sum:.9f}, "
        f"max |aggregate - 1| = {worst_agg:.2e}",
    )
    assert worst_sum <= 1.0 + 1e-9
    assert worst_agg <= 1e-9


def test_criterion_9_multipartite_structure(capsys, assembled_states):
    worst_single = 0.0
    for label, (_, state) in assembled_states.items():
        for site in range(state.n_qubits):
            rho = reduced_density_matrix(state, (site,)).matrix
            worst_single = max(worst_single, float(np.max(np.abs(rho - np.eye(2) / 2))))

    _, state44 = assembled_states["liquid-4x4"]
    odd = odd_subset_audit(state44, max_size=5)
    cert_gas = genuine_multipartite_certificate(assembled_states["gas-2"][1])
    cert_23 = genuine_multipartite_certificate(assembled_states["liquid-2x3"][1])
    ok = (
        worst_single <= 1e-12
        and odd.all_entangled
        and cert_gas.genuine
        and cert_23.genuine
    )
    emit(
        capsys,
        9,
        ok,
        f"single-site dev {worst_single:.2e}; {len(odd.verdicts)} odd subsets of the "
        f"4x4 liquid all mixed: {odd.all_entangled}; certificates gas-2 "
        f"{cert_gas.genuine}, 2x3 {cert_23.genuine}",
    )
    assert worst_single <= 1e-12
    assert odd.all_entangled
    assert len(odd.verdicts) == 4944  # C(16,1) + C(16,3) + C(16,5): none skipped
    assert cert_gas.genuine
    assert cert_23.genuine


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    args = [
        "--lattice", "square-grid", "--rows", "2", "--cols", "3",
        "--variant", "liquid", "--tasks", "reproduce-paper",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main([*args, "--out", str(out1)])
    code2 = cli_main([*args, "--out", str(out2)])
    names = ("report.json", "summary.txt", "distance_profile.csv", "werner_pairs.csv")
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    ok = identical and code1 == code2
    emit(
        capsys,
        10,
        ok,
        f"two reproduce-paper runs, exit {code1}/{code2}, "
        f"byte-identical outputs: {identical}",
    )
    assert code1 == code2
    assert identical, "reports differ between identical runs"
