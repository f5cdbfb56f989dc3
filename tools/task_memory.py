"""Resident memory after each task of one ``rvblab`` CLI call.

Runs ``rvblab.cli.main`` in this process on the arguments given and
prints one row after the imports, one after each task and one after the
reports are written: ``VmHWM`` (the peak so far) and ``VmRSS`` from
``/proc/self/status``, in MB, and whether OpenSSL's ``_hashlib`` is
loaded.  The tasks that ``reproduce-paper`` runs get a row each, and so
does its 4x4 ``_reference_nn_check``; ``reproduce-paper``'s own entry of
the task table stays as it is, since its loop finds the other entries by
comparing each with it.  Linux only.

Run from anywhere, with the CLI's arguments, for example the paper's
headline lattice:

    python3 tools/task_memory.py --lattice square-grid --rows 4 --cols 4 \\
        --tasks reproduce-paper --out rvblab-out

Exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rvblab.cli as cli  # noqa: E402  (from this checkout's src/)


def _memory_mb() -> tuple[float, float]:
    """``VmHWM`` and ``VmRSS`` of this process, in MB."""
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            name, _, value = line.partition(":")
            fields[name] = value
    return tuple(int(fields[key].split()[0]) / 1024 for key in ("VmHWM", "VmRSS"))


def _row(label: str) -> None:
    hwm, rss = _memory_mb()
    print(f"{label:<22} {hwm:9.2f} {rss:9.2f}  {'_hashlib' in sys.modules}", flush=True)


def _reporting(label: str, fn):
    """``fn``, printing a row after each call returns or raises."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            _row(label)

    return wrapped


def main(argv: list[str]) -> int:
    print(f"{'after':<22} {'VmHWM MB':>9} {'VmRSS MB':>9}  _hashlib loaded", flush=True)
    _row("imports")
    for name, fn in list(cli._TASK_FNS.items()):
        if fn is not cli._task_reproduce:
            cli._TASK_FNS[name] = _reporting(name, fn)
    cli._reference_nn_check = _reporting("_reference_nn_check", cli._reference_nn_check)
    code = cli.main(argv)
    _row("reports written")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
