"""rvblab benchmark: verified end-to-end runs, or per-layer spans from traced runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop of one client: one fresh Python process per CLI
call, one call at a time, the next started when the previous has been
checked.  Each process imports ``rvblab`` from ``src/`` of this checkout
and runs one workload from ``workloads.py`` with ``--seed N``; its report
is compared with the pinned reference before the next starts.

``--trace 0`` prints the end-to-end metrics: ``run_norm_s`` (median wall
time of one CLI call that writes its reports, rescaled by the run's median
NumPy import time to a nominal machine speed), ``setup_s`` (median time
from process start until ``rvblab`` is imported) and ``peak_rss_mb``
(median peak resident memory of a workload process).  The plain median
``run_s`` is printed with them.  ``--trace 1`` alternates
untraced and traced calls and prints the per-layer metrics from the
traced ones (see ``spans.py``), the traced run time and the tracing
overhead.  The last line of standard output is one JSON object; the lines
before it and ``.perfbench_out/`` hold the details: environment, every
sample and every report's sha256.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, check_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

# One BLAS thread: the same report bytes on every machine (the norm in
# states.assemble sums in a thread-count-dependent order, so 2 threads
# change the last bits) and steadier, faster calls on these tiny matrices.
BLAS_THREADS = "1"
MIN_CALLS = 2  # workload calls per run (trace: pairs of calls), even past --seconds
HARD_LIMIT_S = 165.0  # the whole benchmark process must end within 180 s
# run_norm_s rescales call times to a machine on which a fresh interpreter
# imports NumPy in this many seconds (about what the 2-core machine the
# benchmark was tuned on reads).  The host's speed drifted by 20% between
# runs minutes apart; the NumPy import time of the same run drifts with it
# and involves no rvblab code, so the ratio holds steady.
NOMINAL_NUMPY_S = 0.2


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts benchmark processes one at a time and measures each."""

    def __init__(self, start: float) -> None:
        self.deadline = start + HARD_LIMIT_S
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        self.env.pop("PYTHONPATH", None)

    def spawn(self, cli_args: list[str] = (), spans_path: Path | None = None) -> dict:
        """One process; returns its set-up times and the child's result."""
        cmd = [sys.executable, str(CHILD), str(SRC)]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        cmd += list(cli_args)
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise ChildFailed("out of time")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            numpy_line = proc.stdout.readline()
            numpy_at = time.perf_counter()
            ready = proc.stdout.readline()
            ready_at = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if (numpy_line, ready) != (b"numpy\n", b"ready\n") or proc.returncode != 0:
            raise ChildFailed(f"benchmark process exited {proc.returncode}")
        result = json.loads(rest) if cli_args else {}
        return dict(result, numpy_s=numpy_at - start, setup_s=ready_at - start)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": int(BLAS_THREADS),
        "clients": 1,
        "seed": seed,
    }


def _describe(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    text = (
        f"{name}: median {statistics.median(values):.4f} {unit}, "
        f"min {min(values):.4f}, max {max(values):.4f} (n={n})"
    )
    if n >= 20:
        # highest percentile with at least ten samples above it
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} {unit}"
    else:
        text += "; no tail percentile (needs n >= 20)"
    return text


def measure(workload, seed: int, seconds: int, trace: bool, runner: Runner) -> dict:
    """Closed loop of workload calls for ``seconds``; every call is checked."""
    cli_args = list(workload.argv) + ["--seed", str(seed)]
    out_dir = OUT / workload.name
    spans_path = out_dir / "spans.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner.spawn()  # warm-up: byte-compile and page in, not timed
    calls: list[dict] = []
    setups: list[float] = []
    layers: list[dict] = []
    yardsticks: list[float] = []
    begin = time.perf_counter()
    last = 0.0
    iteration = 0
    while iteration < MIN_CALLS or time.perf_counter() - begin + last <= seconds:
        t0 = time.perf_counter()
        modes = [False, True] if trace else [False]
        if iteration % 2:
            modes.reverse()
        try:
            probe = runner.spawn()
            setups.append(probe["setup_s"])
            yardsticks.append(probe["numpy_s"])
            for traced in modes:
                report_dir = out_dir / ("traced" if traced else "plain")
                (report_dir / "report.json").unlink(missing_ok=True)
                args = cli_args + ["--out", str(report_dir)]
                sample = runner.spawn(args, spans_path if traced else None)
                sample["traced"] = traced
                sample.update(check_run(workload, seed, sample["exit_code"],
                                        report_dir / "report.json"))
                if traced:
                    metrics = spans.summarize(json.loads(spans_path.read_text()))
                    layers.append(metrics)
                    sample["run_s"] = metrics["trace.run_s"]
                calls.append(sample)
                setups.append(sample["setup_s"])
                yardsticks.append(sample["numpy_s"])
        except ChildFailed as exc:
            calls.append({"traced": None, "problems": [str(exc)]})
            break
        last = time.perf_counter() - t0
        iteration += 1

    if len({c["sha256"] for c in calls if c.get("sha256")}) > 1:
        for c in calls:
            c["problems"].append("report bytes differ between runs of one seed")
    if layers:
        counts = [{k: m[k] for k in spans.COUNT_METRICS + spans.RATIO_METRICS} for m in layers]
        if any(c != counts[0] for c in counts):
            calls[-1]["problems"].append("per-layer counts differ between traced runs")
    return {"calls": calls, "setups": setups, "layers": layers, "yardsticks": yardsticks}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "rvblab" / "cli.py").is_file():
        print(f"perfbench: no rvblab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"perfbench: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"env: {json.dumps(env, sort_keys=True)}")

    result = measure(workload, args.seed, args.seconds, bool(args.trace), Runner(start))
    calls = result["calls"]
    failed = sum(1 for c in calls if c["problems"])
    for c in calls:
        for problem in c["problems"][:5]:
            print(f"FAIL: {problem}")
    plain = [c for c in calls if c["traced"] is False]
    run_s = [c["run_s"] for c in plain if "run_s" in c]
    rss = [c["peak_rss_mb"] for c in plain if "peak_rss_mb" in c]
    layers = result["layers"]
    if not run_s or (args.trace and not layers):
        print("perfbench: no call completed", file=sys.stderr)
        return 1
    print(f"calls: {len(calls)} attempted, {failed} failed, error_rate {failed / len(calls):g}")
    print(_describe("run_s", run_s, "s"))
    print(_describe("setup_s", result["setups"], "s"))
    print(_describe("peak_rss_mb", rss, "MB"))
    print(_describe("numpy_s", result["yardsticks"], "s"))
    numpy_s = statistics.median(result["yardsticks"])
    run_norm_s = statistics.median(run_s) * NOMINAL_NUMPY_S / numpy_s
    print(f"run_norm_s: {run_norm_s:.4f} s (median run_s x {NOMINAL_NUMPY_S} / median numpy_s)")
    shas = sorted({c.get("sha256") for c in calls if c.get("sha256")})
    identical = all(c.get("byte_identical") for c in calls)
    print(f"report sha256: {', '.join(shas)}; "
          f"equal to the reference with the seed set back: {'yes' if identical else 'no'}")

    if args.trace:
        traced = [m["trace.run_s"] for m in layers]
        per_layer = {}
        for name in spans.TIME_METRICS:
            per_layer[name] = _metric(statistics.median([m[name] for m in layers]), "s")
        for name in spans.COUNT_METRICS:
            per_layer[name] = _metric(layers[0][name], "count")
        for name in spans.RATIO_METRICS:
            per_layer[name] = _metric(layers[0][name], "ratio")
        overhead = statistics.median(traced) - statistics.median(run_s)
        per_layer["trace.run_s"] = _metric(statistics.median(traced), "s")
        per_layer["trace.overhead_s"] = _metric(overhead, "s")
        for m in layers:
            covered = sum(m[name] for name in spans.TIME_METRICS)
            print(f"traced run {m['trace.run_s']:.4f} s; time metrics sum to "
                  f"{covered / m['trace.run_s']:.9f} of it")
        for name, metric in per_layer.items():
            print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")
        metrics = per_layer
    else:
        metrics = {
            "run_norm_s": _metric(run_norm_s, "s"),
            "setup_s": _metric(statistics.median(result["setups"]), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        }

    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(
        {"environment": env, "workload": workload.name, "seconds": args.seconds,
         "calls": calls, "setup_s": result["setups"], "layers": layers,
         "numpy_s": result["yardsticks"],
         "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    print(f"details: {detail.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
