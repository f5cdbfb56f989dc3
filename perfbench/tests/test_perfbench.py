"""Tests of the benchmark itself: tracer patching, counts, report checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The workload tests run each workload twice in this process (about 30 s).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rvblab  # noqa: E402
import rvblab.cli  # noqa: E402
import spans  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, check_run, report_bytes  # noqa: E402

# The program is deterministic, so every per-layer count is pinned exactly.
COUNTS = {
    "liquid-open-4x4-reproduce": {
        "coverings.count": 344,  # 36 open coverings twice, 272 periodic once
        "states.rdm_calls": 707,
        "states.rot_inv_calls": 120,
        "linalg.eig_calls": 2071,
        "entanglement.pair_calls": 811,
        "loopgas.scan_calls": 2,
        "loopgas.graph_pairs": 2592,
        "multipartite.subsets": 6884,
        "states.rdm_distinct_ratio": 168 / 707,
        "loopgas.useful_pair_ratio": 666 / 2592,
    },
    "liquid-periodic-4x4-loopcf": {
        "coverings.count": 272,
        "states.rdm_calls": 120,
        "states.rot_inv_calls": 0,
        "linalg.eig_calls": 240,
        "entanglement.pair_calls": 120,
        "loopgas.scan_calls": 2,
        "loopgas.graph_pairs": 147968,
        "multipartite.subsets": 0,
        "states.rdm_distinct_ratio": 1.0,
        "loopgas.useful_pair_ratio": 37128 / 147968,
    },
    "gas-8-scan": {
        "coverings.count": 40320,
        "states.rdm_calls": 248,
        "states.rot_inv_calls": 120,
        "linalg.eig_calls": 976,
        "entanglement.pair_calls": 368,
        "loopgas.scan_calls": 0,
        "loopgas.graph_pairs": 0,
        "multipartite.subsets": 0,
        "states.rdm_distinct_ratio": 120 / 248,
        "loopgas.useful_pair_ratio": 0.0,
    },
}


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (mod.__name__, attr): obj
        for mod in spans.package_modules()
        for attr, obj in vars(mod).items()
    }


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert any(_bindings()[key] is not obj for key, obj in before.items())
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_install_rebinds_every_name_of_a_layer_function():
    originals = {id(fn) for fn in spans.layer_functions().values()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        leftover = [key for key, obj in _bindings().items() if id(obj) in originals]
        # names bound outside the defining module must be patched too
        for mod, name in [
            (rvblab.entanglement, "reduced_density_matrix"),
            (rvblab.bounds, "reduced_density_matrix"),
            (rvblab.loopgas, "reduced_density_matrix"),
            (rvblab.states, "eigvalsh_jacobi"),
            (rvblab.entanglement, "eigvalsh_jacobi"),
            (rvblab.cli, "enumerate_gas"),
            (rvblab, "measure_pair"),
        ]:
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod.__name__, name)
    finally:
        tracer.uninstall()
    assert leftover == []


def test_self_times_add_up_to_the_root():
    spans_ = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("entanglement.measure_pair", 1.0, 5.0, 0, None),
        ("states.reduced_density_matrix", 1.5, 2.5, 1, [0, [0, 1]]),
        ("linalg.jacobi_eigh", 2.0, 2.25, 2, None),
        ("linalg.eigvalsh_jacobi", 3.0, 4.0, 1, None),
        ("linalg.jacobi_eigh", 3.0, 3.5, 4, None),
    ]
    assert spans.self_times(spans_) == [6.0, 2.0, 0.75, 0.25, 0.5, 0.5]
    m = spans.summarize(spans_)
    assert m["trace.run_s"] == 10.0
    assert sum(m[name] for name in spans.TIME_METRICS) == 10.0
    assert m["linalg.eig_s"] == 1.25
    assert m["linalg.eig_calls"] == 2  # the nested jacobi_eigh is part of its caller
    assert m["states.rdm_calls"] == 1
    assert m["entanglement.pair_calls"] == 1


def test_check_run_applies_the_tolerance(tmp_path):
    workload = WORKLOADS["liquid-periodic-4x4-loopcf"]
    reference = json.loads(workload.reference_path.read_bytes())
    path = tmp_path / "report.json"

    def check(report, seed=REFERENCE_SEED, exit_code=0):
        path.write_bytes(report_bytes(report))
        return check_run(workload, seed, exit_code, path)

    assert check(reference) == {
        "sha256": check(reference)["sha256"], "byte_identical": True, "problems": []
    }
    near = copy.deepcopy(reference)
    near["tasks"][0]["data"]["p_matrix"][0][1] += 1e-13
    assert check(near)["problems"] == []
    assert check(near)["byte_identical"] is False
    far = copy.deepcopy(reference)
    far["tasks"][0]["data"]["p_matrix"][0][1] += 1e-9
    assert len(check(far)["problems"]) == 1
    detail = copy.deepcopy(reference)
    detail["checks"][0]["detail"] += " x"
    assert len(check(detail)["problems"]) == 1
    assert check(reference, seed=7)["problems"] == ["config.seed 2004 != 7"]
    assert check(reference, exit_code=1)["problems"] == ["exit code 1 != 0"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_byte_identical_and_counts_are_pinned(name, tmp_path):
    workload = WORKLOADS[name]
    args = list(workload.argv) + ["--seed", str(REFERENCE_SEED)]
    code = rvblab.cli.main(args + ["--out", str(tmp_path / "plain")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_code = tracer.call(
            spans.ROOT, rvblab.cli.main, args + ["--out", str(tmp_path / "traced")]
        )
    finally:
        tracer.uninstall()

    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain
    assert code == traced_code == workload.exit_code
    assert check_run(workload, REFERENCE_SEED, code, tmp_path / "plain" / "report.json")[
        "problems"
    ] == []
    metrics = spans.summarize(json.loads(json.dumps(tracer.spans)))
    assert {k: metrics[k] for k in COUNTS[name]} == COUNTS[name]
    covered = sum(metrics[k] for k in spans.TIME_METRICS)
    assert covered == pytest.approx(metrics["trace.run_s"], rel=1e-9)


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gas-8-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
