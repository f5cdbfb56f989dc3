import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import traced_peak
import rvblab.cli
from rvblab import LatticeSpec, assemble, enumerate_gas, enumerate_liquid, loopgas
from rvblab.cli import CONFIG_KEYS, RunConfig, build_config, emit_plot_data, main
from rvblab.states import state_sha256, state_to_bytes


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "--lattice", "complete-bipartite", "--n", "2",
            "--tasks", "enumerate", "assemble", "werner-scan", "bounds",
        )
        assert code == 0

    def test_empty_tasks_config_error(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "--lattice", "complete-bipartite", "--n", "2", "--tasks"
        )
        assert code == 2

    def test_unknown_task_config_error(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "--lattice", "complete-bipartite", "--n", "2", "--tasks", "fly",
        )
        assert code == 2

    def test_missing_lattice_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "--tasks", "enumerate")
        assert code == 2

    def test_variant_mismatch_config_error(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "2", "--cols", "2",
            "--variant", "gas", "--tasks", "enumerate",
        )
        assert code == 2

    def test_odd_grid_config_error(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "3", "--cols", "3",
            "--tasks", "enumerate",
        )
        assert code == 2

    def test_nonpositive_tol_config_error(self, tmp_path):
        # nan and inf would otherwise reach report.json as invalid JSON
        for tol in ("0", "nan", "inf"):
            code, _ = run_cli(
                tmp_path,
                "--lattice", "complete-bipartite", "--n", "2",
                "--tasks", "enumerate", "--tol", tol,
            )
            assert code == 2, tol

    @pytest.mark.parametrize(
        "bad",
        [("--rows", "abc"), ("--boundary", "twisted"), ("--bogus",), ("--cols",)],
    )
    def test_bad_flag_one_line_exit_two(self, tmp_path, capsys, bad):
        # argparse would print a usage block and raise SystemExit(2)
        code, out = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "2", "--cols", "2",
            "--tasks", "enumerate", *bad,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("rvblab: configuration error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "lattice,key",
        [
            (("--lattice", "square-grid", "--rows", "2", "--cols", "2", "--n", "5"), "n"),
            (("--lattice", "complete-bipartite", "--n", "2", "--rows", "3"), "rows"),
            (("--lattice", "complete-bipartite", "--n", "2", "--cols", "4"), "cols"),
            (("--lattice", "complete-bipartite", "--n", "2", "--boundary", "periodic"), "boundary"),
        ],
    )
    def test_lattice_flag_of_the_other_kind_exits_two(self, tmp_path, capsys, lattice, key):
        # the value was once dropped and the run went ahead without it
        code, out = run_cli(tmp_path, *lattice, "--tasks", "enumerate")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("rvblab: configuration error:")
        assert f"lattice takes no {key}; got " in err
        assert not out.exists()

    def test_out_is_existing_file_config_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code = main(
            [
                "--lattice", "complete-bipartite", "--n", "2",
                "--tasks", "enumerate", "--out", str(target),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a directory" in err

    def test_cap_exceeded_exits_three(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "--lattice", "complete-bipartite", "--n", "9", "--tasks", "enumerate",
        )
        assert code == 3

    @pytest.mark.parametrize("rows,cols", [(2, 1200), (8, 8)])
    def test_liquid_enumeration_cap_exits_three(self, tmp_path, capsys, rows, cols):
        # 2x1200 is 1200 dimers deep and 8x8 has 12,988,816 coverings; both
        # must stop at the stored-pair cap within seconds
        start = time.perf_counter()
        code, out = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", str(rows), "--cols", str(cols),
            "--tasks", "enumerate",
        )
        assert code == 3
        assert time.perf_counter() - start < 30.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stored pairs" in err
        assert not out.exists()

    def test_loop_cf_checks_assembly_cap_before_scan(self, tmp_path, monkeypatch, capsys):
        # the 4x6 grid (24 qubits) is within the loop-sum cap but not the
        # state-vector oracle's, so the task must stop before scanning
        def no_scan(ensemble):
            raise AssertionError("loop scan ran before the assembly cap check")

        monkeypatch.setattr(loopgas, "loop_formula_scan", no_scan)
        code, out = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "4", "--cols", "6", "--tasks", "loop-cf",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "16 qubits" in err

    def test_loop_cf_past_both_caps_exits_three(self, tmp_path, capsys):
        # the 2x14 ladder has 610 coverings, past the loop-sum cap, and 28
        # qubits, past the state-vector oracle's: no route covers its values
        code, out = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "2", "--cols", "14", "--tasks", "loop-cf",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "16 qubits" in err
        assert not out.exists()

    def test_loop_cf_past_the_pair_cap_skips_on_the_gas(self, tmp_path):
        # the gas at N = 6 fits the state-vector oracle, which covers the pairs
        code, out = run_cli(
            tmp_path, "--lattice", "complete-bipartite", "--n", "6", "--tasks", "loop-cf",
        )
        assert code == 0
        (task,) = json.loads((out / "report.json").read_text())["tasks"]
        assert task["data"] == {
            "skipped": "518400 ordered covering pairs exceed the direct-sum cap 100000; "
            "Werner scan covers these values via the state-vector route"
        }

    @pytest.mark.parametrize("name", ["report.json", "summary.txt"])
    def test_unwritable_output_file_exits_two(self, tmp_path, capsys, name):
        blocked = tmp_path / "out" / name
        blocked.mkdir(parents=True)
        code, _ = run_cli(
            tmp_path, "--lattice", "complete-bipartite", "--n", "2", "--tasks", "enumerate",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(blocked) in err

    def test_failed_check_exits_one(self, tmp_path):
        # reproduce-paper includes a reference EoF anchor that the closed
        # form does not match, so the bundle reports a failed check
        code, out = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "2", "--cols", "2",
            "--tasks", "reproduce-paper",
        )
        assert code == 1
        assert (out / "report.json").is_file()


@pytest.fixture(scope="module")
def gas3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gas3")
    code = main(
        [
            "--lattice", "complete-bipartite", "--n", "3",
            "--tasks", "enumerate", "assemble", "rdm", "werner-scan",
            "bounds", "loop-cf", "multipartite",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestOutputs:
    def test_files_exist(self, gas3_run):
        for name in (
            "report.json",
            "summary.txt",
            "distance_profile.csv",
            "werner_pairs.csv",
        ):
            assert (gas3_run / name).is_file()

    def test_report_shape(self, gas3_run):
        report = json.loads((gas3_run / "report.json").read_text())
        assert report["schema"] == 1
        assert [t["task"] for t in report["tasks"]] == [
            "enumerate", "assemble", "rdm", "werner-scan",
            "bounds", "loop-cf", "multipartite",
        ]
        assert report["summary"]["n_failed"] == 0
        assert all(c["passed"] for c in report["checks"])

    def test_summary_lines(self, gas3_run):
        text = (gas3_run / "summary.txt").read_text()
        assert "[PASS]" in text
        assert "[FAIL]" not in text

    def test_csv_columns(self, gas3_run):
        header = (gas3_run / "distance_profile.csv").read_text().splitlines()[0]
        assert header == "distance_r,p,monogamy_bound,telecloning_bound"
        rows = (gas3_run / "distance_profile.csv").read_text().splitlines()
        assert len(rows) == 2  # single distance class on the complete graph

    def test_pairs_csv_rows(self, gas3_run):
        rows = (gas3_run / "werner_pairs.csv").read_text().splitlines()
        assert rows[0].startswith("site_i,site_j,")
        assert len(rows) == 1 + 15  # all pairs of 6 sites

    def test_no_timestamps_in_report(self, gas3_run):
        text = (gas3_run / "report.json").read_text().lower()
        for word in ("time", "date", "host"):
            assert word not in text

    def test_csv_header_only_without_scan(self, tmp_path):
        out = tmp_path / "noscan"
        code = main(
            [
                "--lattice", "complete-bipartite", "--n", "2",
                "--tasks", "enumerate",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "distance_profile.csv").read_text().splitlines()
        assert rows == ["distance_r,p,monogamy_bound,telecloning_bound"]

    def test_certificate_detail_prints_canonical_zero(self, tmp_path):
        # a product cut's entropy is -np.sum([0.0]), which printed as -0.000000
        code, out = run_cli(
            tmp_path,
            "--lattice", "square-grid", "--rows", "1", "--cols", "4",
            "--tasks", "multipartite",
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        (row,) = [c for c in report["checks"] if c["name"] == "multipartite/genuine-certificate"]
        assert not row["passed"]
        assert row["detail"] == "7 bipartitions, min entropy 0.000000 bits"
        assert "-0.000000" not in (out / "summary.txt").read_text()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        args = [
            "--lattice", "square-grid", "--rows", "2", "--cols", "3",
            "--tasks", "werner-scan", "bounds", "multipartite",
        ]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        for name in ("report.json", "summary.txt", "distance_profile.csv", "werner_pairs.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of report.json from reproduce-paper, pinned so that a change to the
# multipartite scans (or anything else in the bundle) that moves one byte fails
REPORT_PINS = {
    "open-3x4": (
        ("--lattice", "square-grid", "--rows", "3", "--cols", "4"),
        "e186b3004a698d0c6b13bed8eac54603e82611e091d1d40d7465e329cdc316fb",
    ),
    "periodic-2x6": (
        ("--lattice", "square-grid", "--rows", "2", "--cols", "6", "--boundary", "periodic"),
        "06f1e006f387907ee08aff7310814eb76eebfea1c4a57521f51b918ab42ae6c0",
    ),
    # the gas carries no symmetry group
    "gas-6": (
        ("--lattice", "complete-bipartite", "--n", "6"),
        "9d1fe9745435e22a0ffcc177b2fac895331d7c62f46dd37d314789d26735ad8f",
    ),
}


# sha256 of the files rendered from each pinned report, in the order
# summary.txt, distance_profile.csv, werner_pairs.csv
RENDERED_PINS = {
    "open-3x4": (
        "35f14076963780e562304cfd7d8a44e41bb748a916468303320b8fcfcd6e1b06",
        "4dd61ba597674adb4e57b98460185431fd1ea007cb1d420712bd97cbd0c1878c",
        "fdd29680db8fc0375b4f772bd4be2486df6eb67e86a3b46a9643a09a7c2251ba",
    ),
    "periodic-2x6": (
        "932a2cf2ecd6945afe0ea844d65295571e4b0298cab1b0853b99f47cfb7d48ae",
        "a998414da6ad8ac5862b4210f7ab9a335bfde954f6b08dcf63daabe14c7190c2",
        "40a6e217e7061aac7d880c17b9a601056025f66e1bcf92ecd97dfbef043ea5a5",
    ),
    "gas-6": (
        "e8bf1d50ef73789c98e8accad0781943368d1b863ffd1273b9c05a149c144094",
        "a8b475be17a304ccacdd096a8613f8c39145aac05acb3bf41557faa33e1040c1",
        "cb722a017b005957e244bddaa3bf2d34f350b7e29188dd84d3b902db777729e7",
    ),
    "liquid-open-4x4-reproduce": (
        "5dbd3a81b6bbdb0406bc10f0e64627f2e382d23006e949dc0555bb49029b6707",
        "4db142651f04112a61bcc849ee25b4ef79bfc7de4392229a3c8719cfc1739fca",
        "65a1057a455ba10c2cc871878c772cddba9966c2677b707f67ebd76cdd33692a",
    ),
    # no scan task: both CSVs hold their header alone
    "liquid-periodic-4x4-loopcf": (
        "f12562a02706b3e8e373749c78140da6869a0a8b4eb9fb3eeafb778d973c60a6",
        "c74d12fda8daa90f949c0d6e63d7ea35740e1388d529ebae0b515c048f6a723d",
        "544eb77ec36202b548c9fdce56cce64a6c65bde3f5063bd4d320aaa5364119d3",
    ),
    "gas-8-scan": (
        "54c1e939b8857fe22ed6792065dac106a346f60c4955776c7a692a30096c145f",
        "7b5fbe058ff9488a526b2a5ee450511252bebda5e6ba1c95dc33b84b8456081b",
        "37efa2dc45ee4dd613a64c6c7e6f063163383623a9bd365ce63f190f58121774",
    ),
}


def assert_rendered_files_pinned(out, name):
    files = ("summary.txt", "distance_profile.csv", "werner_pairs.csv")
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files)
    assert digests == RENDERED_PINS[name]


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_reproduce_paper_report_is_pinned(tmp_path, name):
    args, digest = REPORT_PINS[name]
    code, out = run_cli(tmp_path, *args, "--tasks", "reproduce-paper")
    assert code == 1  # the reference EoF anchor fails by design
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest
    assert_rendered_files_pinned(out, name)


# the benchmark's three workloads at the default seed, pinned whole: the
# benchmark compares numbers to 1e-12 and skips the state digest
BENCHMARK_REPORT_PINS = {
    "liquid-open-4x4-reproduce": (
        ("--lattice", "square-grid", "--rows", "4", "--cols", "4", "--tasks", "reproduce-paper"),
        1,
        "13e9ad282bc3d1ce8f47c334f7075310ba2fb3dad2b1f2d48266df45b8ef4dd3",
    ),
    "liquid-periodic-4x4-loopcf": (
        ("--lattice", "square-grid", "--rows", "4", "--cols", "4", "--boundary", "periodic",
         "--tasks", "loop-cf"),
        0,
        "4ef4cbd66845cceb8f7b8cd3ee2ccf6f08f6a83f43358d732afdc9b4571461e6",
    ),
    "gas-8-scan": (
        ("--lattice", "complete-bipartite", "--n", "8",
         "--tasks", "enumerate", "assemble", "werner-scan"),
        0,
        "3ebbdd661937c67052d9d0a8f98823e96e3d580a0312b5c5717099d0b7edd5bb",
    ),
}


@pytest.mark.parametrize("name", list(BENCHMARK_REPORT_PINS))
def test_benchmark_report_is_pinned(tmp_path, name):
    args, exit_code, digest = BENCHMARK_REPORT_PINS[name]
    code, out = run_cli(tmp_path, *args)
    assert code == exit_code
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest
    assert_rendered_files_pinned(out, name)


# ensemble_sha256 of the gas N = 8, as pinned in tests/test_coverings.py
GAS8_ENSEMBLE_SHA256 = "4006ec8e34c4e667a0ba5129c4f2be14889d74e0f82a88ff2d2e2deff195a931"


# enumerate and assemble at odd pair counts, where assembly subtracts the
# spin-flip half of the state; no BLAS call, so no thread dependence
ASSEMBLY_REPORT_PINS = {
    "gas-3": (
        ("--lattice", "complete-bipartite", "--n", "3"),
        "51d7d109d0d028b6de5ae06537d14273610f40dc6fc1870b88fac39ec642aaae",
    ),
    "gas-7": (
        ("--lattice", "complete-bipartite", "--n", "7"),
        "3e5c49efa8f8537432616ff8fed5d5a77a7633f7be7197150be90d915e85ca33",
    ),
    "open-2x5": (
        ("--lattice", "square-grid", "--rows", "2", "--cols", "5"),
        "de3d141129636e0fdebf866f0cab3d9f0731813fc70bb833f55f15198aff52df",
    ),
}


@pytest.mark.parametrize("name", list(ASSEMBLY_REPORT_PINS))
def test_assembly_report_is_pinned(tmp_path, name):
    args, digest = ASSEMBLY_REPORT_PINS[name]
    code, out = run_cli(tmp_path, *args, "--tasks", "enumerate", "assemble")
    assert code == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest


class TestStateDigest:
    """The assemble task hashes the state's bytes without building them."""

    def test_reported_digest_is_that_of_the_state_bytes(self, tmp_path):
        args = ("--lattice", "square-grid", "--rows", "2", "--cols", "4", "--tasks", "assemble")
        code, out = run_cli(tmp_path, *args)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        state = assemble(enumerate_liquid(LatticeSpec.square_grid(2, 4)))
        want = hashlib.sha256(state_to_bytes(state)).hexdigest()
        assert report["tasks"][0]["data"]["state_sha256"] == want

    def test_gas8_digest_holds_no_copy(self):
        state = assemble(enumerate_gas(LatticeSpec.complete_bipartite(8)))
        digest, peak = traced_peak(state_sha256, state)
        assert peak < 64 * 2**10, peak
        assert digest == hashlib.sha256(state_to_bytes(state)).hexdigest()


# Run in a fresh interpreter, since pytest itself has loaded hashlib.  The
# script prints, after each step, whether OpenSSL (``_hashlib``) is loaded.
# The gas N = 8 runs last: its ensemble text, 3.1 MB, is the one payload
# past the built-in route's crossover, and OpenSSL stays loaded after it.
_HASHLIB_SCRIPT = """
import json, sys

out = sys.argv[1]
grid = ["--lattice", "square-grid", "--rows", "2", "--cols", "4", "--boundary", "periodic"]
gas3 = ["--lattice", "complete-bipartite", "--n", "3"]
seen = []
import rvblab
seen.append(["import rvblab", None, "_hashlib" in sys.modules])
import rvblab.cli
seen.append(["import rvblab.cli", None, "_hashlib" in sys.modules])
for name, args in [
    ("loop-cf", grid + ["--tasks", "loop-cf"]),
    ("werner-scan bounds", grid + ["--tasks", "werner-scan", "bounds"]),
    ("multipartite", grid + ["--tasks", "multipartite"]),
    ("enumerate assemble", gas3 + ["--tasks", "enumerate", "assemble"]),
    ("reproduce-paper", ["--lattice", "square-grid", "--rows", "4", "--cols", "4",
                         "--tasks", "reproduce-paper"]),
    ("enumerate gas8", ["--lattice", "complete-bipartite", "--n", "8", "--tasks", "enumerate"]),
]:
    code = rvblab.cli.main(args + ["--out", out + "/" + name.replace(" ", "-")])
    seen.append([name, code, "_hashlib" in sys.modules])
print(json.dumps(seen))
"""


class TestOpenSSLLoadedOnlyToHash:
    """Only a digest of more than ``coverings._BUILTIN_SHA256_MAX`` bytes
    loads OpenSSL: smaller ones take CPython's built-in SHA-256, and
    ``hashlib`` is imported where a large digest is taken, not with the
    package."""

    def test_fresh_interpreter(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p),
        }
        proc = subprocess.run(
            [sys.executable, "-c", _HASHLIB_SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            ["import rvblab", None, False],
            ["import rvblab.cli", None, False],
            ["loop-cf", 0, False],
            ["werner-scan bounds", 0, False],
            ["multipartite", 0, False],
            ["enumerate assemble", 0, False],
            ["reproduce-paper", 1, False],
            ["enumerate gas8", 0, True],
        ]
        report = (tmp_path / "enumerate-assemble" / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == ASSEMBLY_REPORT_PINS["gas-3"][1]
        report = (tmp_path / "reproduce-paper" / "report.json").read_bytes()
        pin = BENCHMARK_REPORT_PINS["liquid-open-4x4-reproduce"][2]
        assert hashlib.sha256(report).hexdigest() == pin
        data = json.loads((tmp_path / "enumerate-gas8" / "report.json").read_text())
        assert data["tasks"][0]["data"]["ensemble_sha256"] == GAS8_ENSEMBLE_SHA256


def _outputs_at_blas_threads(tmp_path, threads, tasks):
    """Every output file of an open 4x4 run in a child process at ``threads`` BLAS threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / f"{'-'.join(tasks)}-t{threads}"
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ),
    }
    proc = subprocess.run(
        [
            sys.executable, "-m", "rvblab.cli",
            "--lattice", "square-grid", "--rows", "4", "--cols", "4",
            "--tasks", *tasks, "--out", str(out),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestBlasThreads:
    def test_report_bytes_independent_of_blas_threads(self, tmp_path):
        # 4x4 is large enough that a BLAS norm splits its sum across threads
        reports = [
            _outputs_at_blas_threads(tmp_path, threads, ["assemble"])["report.json"]
            for threads in ("1", "2")
        ]
        assert reports[0] == reports[1]

    def test_pair_and_audit_outputs_independent_of_blas_threads(self, tmp_path):
        # every pair residual and commutator takes one gesdd call, and the
        # subset audits stack their block eigensolves
        tasks = ["werner-scan", "multipartite"]
        one, two = (_outputs_at_blas_threads(tmp_path, threads, tasks) for threads in ("1", "2"))
        assert "report.json" in one and "werner_pairs.csv" in one
        assert one == two


class TestConfigFile:
    def test_file_supplies_values(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "lattice = complete-bipartite\n"
            "n = 2\n"
            "tasks = enumerate, werner-scan\n"
            "# comment line\n"
            "seed = 7\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(conf), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 7
        assert report["config"]["tasks"] == ["enumerate", "werner-scan"]

    def test_flags_override_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lattice = complete-bipartite\nn = 2\ntasks = enumerate\nseed = 7\n")
        out = tmp_path / "out"
        assert main(["--config", str(conf), "--seed", "99", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 99

    def test_missing_file_config_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "absent.conf"), "--tasks", "enumerate"])
        assert code == 2

    def test_undecodable_file_config_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"lattice = complete-bipartite\nn = \xff\n")
        assert main(["--config", str(conf), "--tasks", "enumerate"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot be read" in err

    def test_malformed_line_config_error(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lattice complete-bipartite\n")
        assert main(["--config", str(conf), "--tasks", "enumerate"]) == 2

    def test_unknown_key_config_error(self, tmp_path, capsys):
        # a misspelt key must not fall back to the default boundary
        conf = tmp_path / "run.conf"
        conf.write_text("lattice = square-grid\nrows = 2\ncols = 2\nboundry = periodic\n")
        out = tmp_path / "out"
        assert main(["--config", str(conf), "--tasks", "enumerate", "--out", str(out)]) == 2
        assert "'boundry'" in capsys.readouterr().err
        assert not out.exists()


    def test_duplicate_key_config_error(self, tmp_path, capsys):
        # the second value used to win silently
        conf = tmp_path / "run.conf"
        conf.write_text("lattice = complete-bipartite\nn = 2\nn = 3\ntasks = enumerate\n")
        out = tmp_path / "out"
        assert main(["--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{conf}:3: duplicate key 'n'" in err
        assert not out.exists()

    def test_empty_value_config_error(self, tmp_path, capsys):
        # an empty out would otherwise write into the working directory
        conf = tmp_path / "run.conf"
        conf.write_text("lattice = complete-bipartite\nn = 2\ntasks = enumerate\nout =\n")
        assert main(["--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{conf}:4: key 'out' has no value" in err

    @pytest.mark.parametrize(
        "key,value",
        [("rows", "abc"), ("tol", "x"), ("seed", "1.5"), ("boundary", "twisted"),
         ("lattice", "grid"), ("n", "5")],
    )
    def test_bad_file_value_one_line_exit_two(self, tmp_path, capsys, key, value):
        values = {"lattice": "square-grid", "rows": "2", "cols": "2", "tasks": "enumerate"}
        values[key] = value
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = tmp_path / "out"
        assert main(["--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("rvblab: configuration error:")
        assert not out.exists()

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_file_value_equals_flag(self, tmp_path, key):
        # each key read from a file goes through the same parser as its flag
        if key == "n":
            run = {"lattice": ["complete-bipartite"], "n": ["2"], "variant": ["gas"]}
        else:
            run = {
                "lattice": ["square-grid"], "rows": ["2"], "cols": ["4"],
                "boundary": ["periodic"], "variant": ["liquid"],
            }
        run.update(tasks=["enumerate", "bounds"], tol=["1e-3"], seed=["7"])

        def flags(values):
            return [arg for k, v in values.items() for arg in (f"--{k}", *v)]

        by_flag = tmp_path / "flags"
        assert main(flags({**run, "out": [str(by_flag)]})) == 0
        by_file = tmp_path / "file"
        run["out"] = [str(by_file)]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {' '.join(run.pop(key))}\n")
        assert main(["--config", str(conf), *flags(run)]) == 0
        assert (by_file / "report.json").read_bytes() == (by_flag / "report.json").read_bytes()


class TestRunConfig:
    def test_build_config_defaults(self, tmp_path):
        import argparse

        ns = argparse.Namespace(
            config=None, lattice="complete-bipartite", rows=None, cols=None,
            boundary=None, variant=None, n=3, tasks=["enumerate"],
            out=tmp_path, tol=None, seed=None,
        )
        cfg = build_config(ns)
        assert isinstance(cfg, RunConfig)
        assert cfg.variant.value == "gas"
        assert cfg.tol == 5e-4
        assert cfg.seed == 2004

    def test_grid_defaults_to_liquid(self, tmp_path):
        import argparse

        ns = argparse.Namespace(
            config=None, lattice="square-grid", rows=2, cols=2,
            boundary=None, variant=None, n=None, tasks=["enumerate"],
            out=tmp_path, tol=None, seed=None,
        )
        assert build_config(ns).variant.value == "liquid"


def test_emit_plot_data_handles_empty_report(tmp_path):
    paths = emit_plot_data({"tasks": []}, tmp_path)
    for path in paths:
        lines = path.read_text().splitlines()
        assert len(lines) == 1  # header only


def _private_names_read(source):
    """Private names of other rvblab modules that ``source`` (a module of the package) reads."""
    modules, read = set(), []

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rvblab")):
            for alias in node.names:
                if node.module in (None, "rvblab"):
                    # from . import states as states_mod
                    modules.add(alias.asname or alias.name)
                if private(alias.name):
                    read.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rvblab."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        # states_mod._name, or rvblab.states._name after import rvblab.states
        if isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) in modules:
            read.append(ast.unparse(node))
    return read


def test_cli_reads_no_private_name_of_another_module():
    assert _private_names_read(Path(rvblab.cli.__file__).read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        "from . import states as states_mod\nx = states_mod._fixed_order_norm",
        "from .states import _subset_block",
        "from rvblab.multipartite import _mixedness",
        "import rvblab.states\nx = rvblab.states._support",
    ],
)
def test_private_name_check_sees_each_form(line):
    assert len(_private_names_read(line)) == 1
