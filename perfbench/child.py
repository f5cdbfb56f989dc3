"""One benchmark process: import rvblab from source, then run one CLI call.

    python3 child.py SRC_DIR [--spans FILE] [CLI ARGS...]

Prints ``numpy`` once NumPy is imported and ``ready`` once ``rvblab`` is,
so the parent can time both from process start.  Without CLI arguments it exits there.  With
them it calls ``rvblab.cli.main`` once and prints one JSON line with the
exit code, the wall time of the call, the process's peak resident memory
and what the CLI wrote to stderr.
With ``--spans FILE`` the call runs under a :class:`spans.Tracer`, and the
spans are written to FILE after the call returns.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, from ``VmHWM``.

    ``ru_maxrss`` is no use here: across ``exec`` Linux carries over the
    peak of the image that forked, which is the benchmark's own process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    import numpy  # noqa: F401  (timed on its own: the machine-speed yardstick)

    print("numpy", flush=True)
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import rvblab.cli

    if not Path(rvblab.__file__).resolve().is_relative_to(src):
        print(f"rvblab imported from {rvblab.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    args = argv[1:]
    if not args:
        return 0

    spans_path = None
    if args[0] == "--spans":
        spans_path, args = Path(args[1]), args[2:]
    stderr = io.StringIO()
    if spans_path is None:
        with redirect_stderr(stderr):
            start = time.perf_counter()
            code = rvblab.cli.main(args)
            run_s = time.perf_counter() - start
    else:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            with redirect_stderr(stderr):
                start = time.perf_counter()
                code = tracer.call(spans.ROOT, rvblab.cli.main, args)
                run_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.spans, separators=(",", ":")))
    result = {"exit_code": code, "run_s": run_s, "peak_rss_mb": peak_rss_mb(),
              "stderr": stderr.getvalue()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
