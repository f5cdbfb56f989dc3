import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rvblab.cli import RunConfig, build_config, emit_plot_data, main


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


class TestBlasThreads:
    def test_report_bytes_independent_of_blas_threads(self, tmp_path):
        # 4x4 is large enough that a BLAS norm splits its sum across threads
        src = Path(__file__).resolve().parents[1] / "src"
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
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
                    "--tasks", "assemble", "--out", str(out),
                ],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


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
