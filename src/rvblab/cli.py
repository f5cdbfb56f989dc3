"""Command-line driver: batch scans and reproduction reports.

Runs a list of tasks against one configured lattice/ensemble and writes a
machine-readable ``report.json``, a human-readable ``summary.txt``, and
plot-ready CSV files into the output directory.  Reports are byte-stable:
identical configuration produces identical bytes: no path is randomized
(the seed is only echoed) and no timestamps or environment data are recorded.

Exit codes: 0 all checks passed; 1 at least one check failed (or the
computation itself failed); 2 configuration error or unwritable output;
3 resource cap exceeded.  Each nonzero exit prints a one-line diagnostic
to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import bounds as bounds_mod
from . import entanglement as ent
from . import loopgas, multipartite
from . import states as states_mod
from .coverings import (
    CoveringEnsemble,
    Variant,
    enumerate_gas,
    enumerate_liquid,
    ensemble_sha256,
)
from .errors import CapExceeded
from .lattice import (
    Boundary, Kind, LatticeSpec, interior_nn_bond, lattice_from_config, lattice_to_config,
)

# each variant's lattice kind and enumerator, by name so that a rebound name is the one called
_VARIANTS = {
    Variant.GAS: (Kind.COMPLETE_BIPARTITE, "enumerate_gas"),
    Variant.LIQUID: (Kind.SQUARE_GRID, "enumerate_liquid"),
}

REFERENCE_NN_P = 0.2004  # published value for the interior bond, 4x4 liquid
REFERENCE_EOF = 0.023  # published EoF of rho_W(1/2), in ebits
REFERENCE_EOF_TOL = 1e-3

WERNER_RESIDUAL_TOL = 1e-10
ROT_INV_TOL = 1e-12
SAME_SUBLATTICE_TOL = 1e-12
ORACLE_TOL = 1e-9
MONOGAMY_TOL = 1e-9
MIXED_ID_TOL = 1e-12
EXACT_TOL = 1e-15

CONFIG_KEYS = (
    "lattice", "rows", "cols", "boundary", "variant", "n", "tasks", "out", "tol", "seed",
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    lattice: LatticeSpec
    variant: Variant
    tasks: tuple[str, ...]
    out: Path = Path("rvblab-out")
    tol: float = 5e-4
    seed: int = 2004

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigError("task list is empty")
        for task in self.tasks:
            if task not in TASK_NAMES:
                raise ConfigError(f"unknown task {task!r}; choose from {', '.join(TASK_NAMES)}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tol}")
        # the first existing path on the way to the output must be a directory
        existing = next(p for p in (self.out, *self.out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output path {existing} exists and is not a directory")
        if self.variant is Variant.CUSTOM:
            raise ConfigError("custom ensembles need explicit coverings; use the library API")
        kind, _ = _VARIANTS[self.variant]
        if self.lattice.kind is not kind:
            raise ConfigError(f"{self.variant.value} variant requires --lattice {kind.value}")


@dataclass
class _Checks:
    rows: list[dict] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.rows.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if not r["passed"])


@dataclass
class _Context:
    """Lazily built shared objects so tasks never recompute the state."""

    config: RunConfig

    @cached_property
    def ensemble(self) -> CoveringEnsemble:
        _, enumerator = _VARIANTS[self.config.variant]
        return globals()[enumerator](self.config.lattice)

    @cached_property
    def state(self) -> states_mod.StateVector:
        return states_mod.assemble(self.ensemble)


def _round(x: float, digits: int = 12) -> float:
    # rounding stabilizes report bytes against accumulation-order jitter
    v = round(float(x), digits)
    return 0.0 if v == 0.0 else v  # canonical zero, avoids -0.0


def _pair_records(ctx: _Context) -> list[dict]:
    state = ctx.state
    lattice = ctx.config.lattice
    records = []
    for i in range(state.n_qubits):
        for j in range(i + 1, state.n_qubits):
            rec = ent.measure_pair(state, (i, j))
            dm = states_mod.reduced_density_matrix(state, (i, j))
            records.append(
                {
                    "pair": [i, j],
                    "distance": lattice.distance(i, j),
                    "same_sublattice": lattice.sublattice_of(i) is lattice.sublattice_of(j),
                    "p": _round(rec.p),
                    "residual": _round(rec.residual, 14),
                    "tangle": _round(rec.tangle),
                    "concurrence": _round(rec.concurrence),
                    "eof_ebits": _round(rec.eof_ebits),
                    "separable": rec.separable,
                    "rot_inv": _round(states_mod.check_rotational_invariance(dm), 14),
                }
            )
    return records


def _distance_profile(ctx: _Context) -> list[dict]:
    return [
        {
            "distance_r": r,
            "class_size": count,
            "p": _round(p_min),
            "monogamy_bound": _round(bounds_mod.monogamy_bound(count)),
            "telecloning_bound": _round(bounds_mod.telecloning_bound(count)),
        }
        for r, count, p_min in bounds_mod.distance_classes(ctx.state, ctx.config.lattice)
    ]


# ----------------------------------------------------------------------
# tasks


def _task_enumerate(ctx: _Context, checks: _Checks) -> dict:
    ensemble = ctx.ensemble
    digest = ensemble_sha256(ensemble)
    data = {
        "variant": ensemble.variant.value,
        "covering_count": len(ensemble),
        "n_pairs": ensemble.lattice.sublattice_size,
        "ensemble_sha256": digest,
    }
    checks.add("enumerate/nonempty", len(ensemble) > 0, f"{len(ensemble)} coverings")
    return data


def _task_assemble(ctx: _Context, checks: _Checks) -> dict:
    state = ctx.state
    digest = states_mod.state_sha256(state)
    nrm = state.amplitude_norm
    checks.add("assemble/normalized", abs(nrm - 1.0) <= 1e-12, f"|psi| = {nrm:.15f}")
    return {
        "n_qubits": state.n_qubits,
        "amplitude_count": int(state.amplitudes.size),
        "raw_norm": _round(state.norm),
        "state_sha256": digest,
    }


def _task_rdm(ctx: _Context, checks: _Checks) -> dict:
    state = ctx.state
    dev = 0.0
    for s in range(state.n_qubits):
        rho = states_mod.reduced_density_matrix(state, (s,))
        dev = max(dev, float(np.max(np.abs(rho.matrix - np.eye(2) / 2.0))))
    checks.add(
        "rdm/single-site-maximally-mixed",
        dev <= MIXED_ID_TOL,
        f"max deviation from I/2 = {dev:.3e}",
    )
    bond = interior_nn_bond(ctx.config.lattice)
    dm = states_mod.reduced_density_matrix(state, bond)
    matrix = [[[_round(z.real), _round(z.imag)] for z in row] for row in dm.matrix]
    return {
        "single_site_max_deviation": _round(dev, 14),
        "designated_pair": list(bond),
        "pair_matrix": matrix,
    }


def _task_werner_scan(ctx: _Context, checks: _Checks) -> dict:
    records = _pair_records(ctx)
    max_residual = max(r["residual"] for r in records)
    max_rot = max(r["rot_inv"] for r in records)
    checks.add(
        "werner/residuals",
        max_residual <= WERNER_RESIDUAL_TOL,
        f"max Werner-fit residual = {max_residual:.3e}",
    )
    checks.add(
        "werner/rotational-invariance",
        max_rot <= ROT_INV_TOL,
        f"max commutator norm = {max_rot:.3e}",
    )
    same = [r["p"] for r in records if r["same_sublattice"]]
    if same:
        checks.add(
            "werner/same-sublattice-nonpositive",
            max(same) <= SAME_SUBLATTICE_TOL,
            f"max same-sublattice p = {max(same):.3e}",
        )
    return {"pairs": records, "distance_profile": _distance_profile(ctx)}


def _task_bounds(ctx: _Context, checks: _Checks) -> dict:
    reports = bounds_mod.compare(ctx.state, ctx.config.lattice)
    rows = [
        {
            "bound_kind": rep.bound_kind.value,
            "parameter": rep.parameter,
            "bound_value": _round(rep.bound_value),
            "measured_p": None if rep.measured_p is None else _round(rep.measured_p),
            "satisfied": rep.satisfied,
            "slack": None if rep.slack is None else _round(rep.slack),
        }
        for rep in reports
    ]
    checks.add(
        "bounds/all-satisfied",
        all(rep.satisfied for rep in reports),
        f"{sum(rep.satisfied for rep in reports)}/{len(reports)} bounds satisfied",
    )
    return {"reports": rows}


def _task_loop_cf(ctx: _Context, checks: _Checks) -> dict:
    ensemble = ctx.ensemble
    n_cov = len(ensemble)
    # past the state-vector oracle's qubit cap the task exits 3, scanned or not
    qubits_ok = ensemble.lattice.site_count <= states_mod.ASSEMBLY_MAX_QUBITS
    if qubits_ok and n_cov * n_cov > loopgas.MAX_GRAPH_PAIRS:
        return {
            "skipped": (
                f"{n_cov * n_cov} ordered covering pairs exceed the direct-sum cap "
                f"{loopgas.MAX_GRAPH_PAIRS}; Werner scan covers these values via the "
                "state-vector route"
            )
        }
    state = ctx.state  # the state-vector oracle's qubit cap, before the scan
    p_matrix = loopgas.loop_formula_scan(ensemble)
    worst = 0.0
    n_sites = state.n_qubits
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            dm = states_mod.reduced_density_matrix(state, (i, j))
            worst = max(worst, abs(p_matrix[i, j] - ent.extract_werner_p(dm).p))
    checks.add(
        "loop-cf/oracle-equality",
        worst <= ORACLE_TOL,
        f"max |loop-sum p - state-vector p| = {worst:.3e}",
    )
    same = loopgas.same_sublattice_scan(ensemble)
    if same:
        same_max = max(p for _, p in same)
        checks.add(
            "loop-cf/same-sublattice-nonpositive",
            same_max <= SAME_SUBLATTICE_TOL,
            f"max same-sublattice loop-sum p = {same_max:.3e}",
        )
    return {
        "p_matrix": [[_round(x) for x in row] for row in p_matrix],
        "oracle_max_deviation": _round(worst, 14),
    }


def _task_multipartite(ctx: _Context, checks: _Checks) -> dict:
    state = ctx.state
    audits = {"odd": multipartite.odd_subset_audit(state, max_size=5)}
    if state.n_qubits > 3:
        audits["even"] = multipartite.even_subset_audit(state, max_size=4)
    data: dict = {}
    for parity, audit in audits.items():
        count = len(audit)
        checks.add(
            f"multipartite/{parity}-subsets-mixed",
            audit.all_entangled,
            f"{count} {parity} subsets scanned",
        )
        # audits are exhaustive; "sampled" stays for report schema 1
        data[f"{parity}_subsets"] = {
            "count": count,
            "sampled": False,
            "all_entangled": audit.all_entangled,
            "max_purity": _round(audit.purity.max()),
        }
    data["odd_subsets"]["min_entropy_bits"] = _round(audits["odd"].entropy_bits.min())
    if state.n_qubits <= multipartite.CERTIFICATE_MAX_QUBITS:
        cert = multipartite.genuine_multipartite_certificate(state)
        data["certificate"] = {
            "genuine": cert.genuine,
            "n_cuts": cert.n_cuts,
            "min_entropy_bits": _round(cert.min_entropy_bits),
            "min_cut": list(cert.min_cut),
        }
        checks.add(
            "multipartite/genuine-certificate",
            cert.genuine,
            # + 0.0 turns the -0.0 of a product cut into the canonical zero
            f"{cert.n_cuts} bipartitions, min entropy {cert.min_entropy_bits + 0.0:.6f} bits",
        )
    else:
        data["certificate"] = {
            "skipped": f"state has {state.n_qubits} qubits, certificate capped at "
            f"{multipartite.CERTIFICATE_MAX_QUBITS}"
        }
    return data


def _reference_nn_check(config: RunConfig, checks: _Checks) -> dict:
    """Interior-bond comparison against the published 4x4 liquid value.

    Evaluated for both boundary conditions; the check passes when either
    is within tolerance, and every NN bond of both variants is reported.
    """
    tables, candidates = {}, {}
    for boundary in (Boundary.OPEN, Boundary.PERIODIC):
        lattice = LatticeSpec.square_grid(4, 4, boundary=boundary)
        state = states_mod.assemble(enumerate_liquid(lattice))
        bond = interior_nn_bond(lattice)
        dm = states_mod.reduced_density_matrix(state, bond)
        p = ent.extract_werner_p(dm).p
        candidates[boundary.value] = p
        bond_rows = []
        for i, j in lattice.nn_bonds():
            dm_ij = states_mod.reduced_density_matrix(state, (i, j))
            bond_rows.append({"bond": [i, j], "p": _round(ent.extract_werner_p(dm_ij).p)})
        tables[boundary.value] = {
            "interior_bond": list(bond),
            "interior_p": _round(p),
            "all_nn_bonds": bond_rows,
        }
    p_open, p_periodic = candidates["open"], candidates["periodic"]
    ok_open = abs(p_open - REFERENCE_NN_P) <= config.tol
    ok_periodic = abs(p_periodic - REFERENCE_NN_P) <= config.tol
    detail = (
        f"reference {REFERENCE_NN_P} +/- {config.tol:g}: open interior p = {p_open:.6f}, "
        f"periodic p = {p_periodic:.6f}; neither boundary matches the reference "
        "(boundary-condition ambiguity reported; all NN bonds listed in the report)"
        if not (ok_open or ok_periodic)
        else f"matched with {'open' if ok_open else 'periodic'} boundary"
    )
    checks.add("reference/liquid-4x4-interior-p", ok_open or ok_periodic, detail)
    return {
        "reference_p": REFERENCE_NN_P,
        "tolerance": config.tol,
        "matched": ok_open or ok_periodic,
        "boundaries": tables,
    }


def _task_reproduce(ctx: _Context, checks: _Checks) -> dict:
    config = ctx.config
    data: dict = {}

    # bound-table anchors
    m4 = bounds_mod.monogamy_bound(4)
    t4 = bounds_mod.telecloning_bound(4)
    checks.add(
        "anchors/monogamy-bound-4",
        abs(m4 - 2.0 / 3.0) <= EXACT_TOL,
        f"monogamy_bound(4) = {m4!r}",
    )
    checks.add(
        "anchors/telecloning-bound-4",
        abs(t4 - 0.5) <= EXACT_TOL,
        f"telecloning_bound(4) = {t4!r}",
    )
    r = np.arange(1, 10_001)
    chain_ok = bool(
        np.all(bounds_mod.telecloning_bound(r) <= bounds_mod.monogamy_bound(r) + EXACT_TOL)
    )
    checks.add(
        "anchors/telecloning-below-monogamy",
        chain_ok,
        "telecloning_bound(R) <= monogamy_bound(R) for R in [1, 10^4]",
    )

    # EoF anchor for rho_W(1/2)
    eof_half = ent.eof_two_qubit(ent.werner_state(0.5))
    eof_ok = abs(eof_half - REFERENCE_EOF) <= REFERENCE_EOF_TOL
    checks.add(
        "anchors/eof-werner-half",
        eof_ok,
        f"eof(rho_W(1/2)) = {eof_half:.6f} ebits vs reference {REFERENCE_EOF} "
        f"+/- {REFERENCE_EOF_TOL}; the closed form h((1+sqrt(1-C^2))/2) with C = 1/4 "
        "gives 0.117619, of which the reference equals only the -x*log2(x) term "
        "(0.022723), so the reference omits the -(1-x)*log2(1-x) term",
    )
    data["anchors"] = {
        "monogamy_bound_4": _round(m4),
        "telecloning_bound_4": _round(t4),
        "eof_werner_half_ebits": _round(eof_half),
        "eof_reference_ebits": REFERENCE_EOF,
    }

    # configured ensemble: every other task, in table order
    for task, fn in _TASK_FNS.items():
        if fn is not _task_reproduce:
            data[task.replace("-", "_")] = fn(ctx, checks)

    # monogamy across every anchor
    state = ctx.state
    worst_sum = 0.0
    worst_agg = 0.0
    for anchor in range(state.n_qubits):
        partners = [s for s in range(state.n_qubits) if s != anchor]
        total, aggregate = ent.monogamy_sum(state, anchor, partners)
        worst_sum = max(worst_sum, total)
        worst_agg = max(worst_agg, abs(aggregate - 1.0))
    checks.add(
        "monogamy/pairwise-sum-bounded",
        worst_sum <= 1.0 + MONOGAMY_TOL,
        f"max anchor tangle sum = {worst_sum:.9f} <= 1",
    )
    checks.add(
        "monogamy/aggregate-tangle-unit",
        worst_agg <= MONOGAMY_TOL,
        f"max |aggregate - 1| = {worst_agg:.3e}",
    )
    data["monogamy"] = {
        "max_pairwise_sum": _round(worst_sum),
        "max_aggregate_deviation": _round(worst_agg, 14),
    }

    if config.variant is Variant.GAS:
        n = config.lattice.n_per_sublattice
        cross = [ent.measure_pair(state, (0, t)).p for t in range(n, 2 * n)]
        spread = max(cross) - min(cross)
        expected = (n + 2) / (3.0 * n)
        dev = max(abs(p - expected) for p in cross)
        tele = bounds_mod.telecloning_bound(n)
        checks.add(
            "gas/cross-pairs-uniform",
            spread <= 1e-12,
            f"cross-pair p spread = {spread:.3e}",
        )
        checks.add(
            "gas/saturates-telecloning-bound",
            dev <= MONOGAMY_TOL and abs(tele - expected) <= EXACT_TOL,
            f"measured p = {cross[0]:.12f}, bound 1/3 + 2/(3*{n}) = {tele:.12f}, "
            f"max deviation {dev:.3e}",
        )
        data["gas_saturation"] = {
            "n": n,
            "measured_p": _round(cross[0]),
            "telecloning_bound": _round(tele),
            "max_deviation": _round(dev, 14),
        }

    if config.variant is Variant.LIQUID and (config.lattice.rows, config.lattice.cols) == (4, 4):
        data["reference_nn"] = _reference_nn_check(config, checks)

    return data


_TASK_FNS = {
    "enumerate": _task_enumerate,
    "assemble": _task_assemble,
    "rdm": _task_rdm,
    "werner-scan": _task_werner_scan,
    "bounds": _task_bounds,
    "loop-cf": _task_loop_cf,
    "multipartite": _task_multipartite,
    "reproduce-paper": _task_reproduce,
}
TASK_NAMES = tuple(_TASK_FNS)


# ----------------------------------------------------------------------
# report rendering


def _config_doc(config: RunConfig) -> dict:
    return {
        "lattice": lattice_to_config(config.lattice),
        "variant": config.variant.value,
        "tasks": list(config.tasks),
        "tol": config.tol,
        "seed": config.seed,
    }


def emit_plot_data(report: dict, out_dir: Path) -> list[Path]:
    """Write plot-ready CSVs extracted from a completed report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scans = []
    for entry in report.get("tasks", []):
        payload = entry.get("data", {})
        if entry.get("task") == "werner-scan":
            scans.append(payload)
        if entry.get("task") == "reproduce-paper" and "werner_scan" in payload:
            scans.append(payload["werner_scan"])
    profile_rows = [
        (row["distance_r"], row["p"], row["monogamy_bound"], row["telecloning_bound"])
        for scan in scans
        for row in scan.get("distance_profile", [])
    ]
    pair_rows = [
        (*row["pair"], row["distance"], int(row["same_sublattice"]), row["p"],
         row["tangle"], row["eof_ebits"], int(row["separable"]))
        for scan in scans
        for row in scan.get("pairs", [])
    ]
    written: list[Path] = []
    for name, header, rows in (
        ("distance_profile.csv", "distance_r,p,monogamy_bound,telecloning_bound", profile_rows),
        ("werner_pairs.csv",
         "site_i,site_j,distance,same_sublattice,p,tangle,eof_ebits,separable", pair_rows),
    ):
        path = out_dir / name
        path.write_text("\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n")
        written.append(path)
    return written


def _write_summary(report: dict, path: Path) -> None:
    cfg = report["config"]
    lat = cfg["lattice"]
    lines = ["rvblab run summary", ""]
    lat_txt = " ".join(f"{k}={v}" for k, v in sorted(lat.items()))
    lines.append(f"lattice : {lat_txt}")
    lines.append(f"variant : {cfg['variant']}")
    lines.append(f"tasks   : {' '.join(cfg['tasks'])}")
    lines.append(f"seed    : {cfg['seed']}    tol : {cfg['tol']:g}")
    lines.append("")
    width = max((len(c["name"]) for c in report["checks"]), default=10)
    for check in report["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        lines.append(f"[{flag}] {check['name']:<{width}}  {check['detail']}")
    lines.append("")
    summary = report["summary"]
    lines.append(
        f"checks: {summary['n_checks'] - summary['n_failed']} passed, "
        f"{summary['n_failed']} failed"
    )
    path.write_text("\n".join(lines) + "\n")


def run(config: RunConfig) -> int:
    """Execute the configured tasks and write report files."""
    ctx = _Context(config)
    checks = _Checks()
    task_entries: list[dict] = []
    try:
        for task in config.tasks:
            data = _TASK_FNS[task](ctx, checks)
            task_entries.append({"task": task, "data": data})
    except CapExceeded as exc:
        print(f"rvblab: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"rvblab: computation failed: {exc}", file=sys.stderr)
        return 1

    report = {
        "schema": 1,
        "config": _config_doc(config),
        "tasks": task_entries,
        "checks": checks.rows,
        "summary": {"n_checks": len(checks.rows), "n_failed": checks.n_failed},
    }
    out_dir = config.out
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
        _write_summary(report, out_dir / "summary.txt")
        emit_plot_data(report, out_dir)
    except OSError as exc:
        print(
            f"rvblab: configuration error: cannot write {exc.filename or out_dir}: "
            f"{exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2

    if checks.n_failed:
        failed = next(c for c in checks.rows if not c["passed"])
        print(
            f"rvblab: {checks.n_failed} check(s) failed; first: {failed['name']}",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# argument handling


def _parse_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; choose from {', '.join(CONFIG_KEYS)}"
            )
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value.strip():
            raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
        out[key] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # one stderr line from main instead of a usage block and SystemExit(2)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rvblab",
        description="Exact dimer-covering superpositions on small lattices: "
        "enumeration, reduced density matrices, entanglement scans, reports.",
    )
    parser.add_argument("--config", type=Path, help="key=value config file; flags override")
    parser.add_argument(
        "--lattice", choices=[kind.value for kind in Kind], help="lattice kind"
    )
    parser.add_argument("--rows", type=int, help="grid rows")
    parser.add_argument("--cols", type=int, help="grid columns")
    parser.add_argument(
        "--boundary", choices=["open", "periodic"], help="grid boundary (default open)"
    )
    parser.add_argument("--variant", choices=[v.value for v in _VARIANTS], help="ensemble variant")
    parser.add_argument("--n", type=int, help="sublattice size for complete-bipartite")
    parser.add_argument(
        "--tasks",
        nargs="*",
        help=f"tasks to run, in order; choose from: {', '.join(TASK_NAMES)}",
    )
    parser.add_argument("--out", type=Path, help="output directory (default rvblab-out)")
    parser.add_argument(
        "--tol", type=float, help="tolerance for reference-value checks (default 5e-4)"
    )
    parser.add_argument("--seed", type=int, help="recorded in the report only (default 2004)")
    return parser


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse flags; a ``--config`` file's values become the flags' defaults.

    The second parse runs every file value through its flag's ``type``,
    and a flag given on the command line still wins.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        parser.set_defaults(**_parse_config_file(args.config))
        args = parser.parse_args(argv)
    return args


def build_config(args: argparse.Namespace) -> RunConfig:
    """Turn parsed flags into a RunConfig; ``None`` fields take the defaults."""
    try:
        lattice = lattice_from_config(vars(args))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    variant_name = args.variant
    if variant_name is None:
        variant_name = {kind: v.value for v, (kind, _) in _VARIANTS.items()}[lattice.kind]
    try:
        variant = Variant(variant_name)
    except ValueError as exc:
        raise ConfigError(f"unknown variant {variant_name!r}") from exc

    tasks = args.tasks or ()
    if isinstance(tasks, str):  # a config file's "tasks = a, b c"
        tasks = tasks.replace(",", " ").split()
    given = {k: getattr(args, k) for k in ("out", "tol", "seed") if getattr(args, k) is not None}
    return RunConfig(lattice=lattice, variant=variant, tasks=tuple(tasks), **given)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(_parse_args(argv))
    except ConfigError as exc:
        # a flag value may hold a line break; the error stays one line
        message = " ".join(str(exc).splitlines())
        print(f"rvblab: configuration error: {message}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
