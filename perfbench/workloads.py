"""The benchmark's workloads and the check of each run against its reference.

Each workload is one ``rvblab`` CLI call.  Its pinned reference is the
``report.json`` that a plain ``rvblab`` run with the default seed (2004)
wrote at the commit that introduced the benchmark, kept byte for byte in
``reference/<workload>.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 2004
# ROADMAP pinning rule: every reported number within 1e-12 of the reference
NUMBER_TOL = 1e-12
# Numbers inside text, such as check details, get the same tolerance.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# Digests of float64 data, which no tolerance can apply to.  The state's
# last bits follow the BLAS thread count; byte identity is reported apart.
FLOAT_DIGESTS = frozenset({"state_sha256"})


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    failed_checks: frozenset[str]

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"


WORKLOADS = {
    w.name: w
    for w in (
        # Headline run and the only one with every task: subset audits and
        # Jacobi eigensolves dominate, ~700 pair RDMs for 136 distinct subsets.
        # Criteria 1 and 3 fail by design, so the run exits 1.
        Workload(
            "liquid-open-4x4-reproduce",
            ("--lattice", "square-grid", "--rows", "4", "--cols", "4",
             "--tasks", "reproduce-paper"),
            1,
            frozenset({"anchors/eof-werner-half", "reference/liquid-4x4-interior-p"}),
        ),
        # ~95% loop sum (272 coverings scanned twice), ~1% Jacobi: moves with
        # a loop kernel, should not move with an eigensolver change.
        Workload(
            "liquid-periodic-4x4-loopcf",
            ("--lattice", "square-grid", "--rows", "4", "--cols", "4",
             "--boundary", "periodic", "--tasks", "loop-cf"),
            0,
            frozenset(),
        ),
        # Largest gas (8! coverings): enumeration, serialisation and assembly
        # matter, peak memory is highest, and every cross pair is identical.
        Workload(
            "gas-8-scan",
            ("--lattice", "complete-bipartite", "--n", "8",
             "--tasks", "enumerate", "assemble", "werner-scan"),
            0,
            frozenset(),
        ),
    )
}


def report_bytes(report: dict) -> bytes:
    """The bytes ``rvblab`` writes for ``report``."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def _diff(got, want, path: str, out: list[str]) -> None:
    if isinstance(want, bool) or isinstance(got, bool):
        if got is not want:
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if not (math.isfinite(got) and abs(got - want) <= NUMBER_TOL):
            out.append(f"{path}: {got!r} differs from {want!r} by more than {NUMBER_TOL}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        for key in want.keys() & got.keys() - FLOAT_DIGESTS:
            _diff(got[key], want[key], f"{path}/{key}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{path}/{i}", out)
    elif isinstance(want, str) and isinstance(got, str):
        if not _same_text(got, want):
            out.append(f"{path}: {got!r} != {want!r}")
    elif got != want or type(got) is not type(want):
        out.append(f"{path}: {got!r} != {want!r}")


def _same_text(got: str, want: str) -> bool:
    if got == want:
        return True
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    return all(
        g == w or abs(float(g) - float(w)) <= NUMBER_TOL
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want))
    )


def check_run(workload: Workload, seed: int, exit_code: int, report_path: Path) -> dict:
    """Compare one run's exit code and report with the pinned reference.

    The report's ``config.seed`` must be the seed passed to the CLI; with
    it set back to the reference seed, every other value must match the
    reference (numbers within ``NUMBER_TOL``).  Returns the run's sha256,
    whether its bytes equal the reference's once the seed is set back, and
    the list of mismatches (empty when the run is correct).
    """
    problems: list[str] = []
    if exit_code != workload.exit_code:
        problems.append(f"exit code {exit_code} != {workload.exit_code}")
    try:
        raw = report_path.read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return {"sha256": None, "byte_identical": False,
                "problems": problems + [f"report unreadable: {exc}"]}
    reference_raw = workload.reference_path.read_bytes()
    reference = json.loads(reference_raw)

    failed = {c.get("name") for c in report.get("checks", []) if not c.get("passed")}
    if failed != workload.failed_checks:
        problems.append(f"failed checks {sorted(failed)} != {sorted(workload.failed_checks)}")
    config = report.get("config", {})
    if config.get("seed") != seed:
        problems.append(f"config.seed {config.get('seed')!r} != {seed}")
    normalized = dict(report, config=dict(config, seed=REFERENCE_SEED))
    _diff(normalized, reference, "", problems)
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "byte_identical": report_bytes(normalized) == reference_raw,
        "problems": problems,
    }
