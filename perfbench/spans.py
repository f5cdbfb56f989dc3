"""Per-layer spans recorded from outside the rvblab package.

A :class:`Tracer` wraps every public function defined in each layer
module and rebinds the wrapper under every name that binds the original in
any ``rvblab`` module namespace.  Modules that did ``from .states import
reduced_density_matrix`` hold their own binding, so patching only the
defining module would let those calls escape the spans.

Each call records ``(name, start, end, parent, extra)`` in memory; the
spans are written out once the run ends.  :func:`summarize` turns them
into the per-layer metrics.  Self time is a span's duration minus the
time its direct child spans cover, so the self times of all spans add up
to the root span (``cli.main``) exactly.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

PACKAGE = "rvblab"

# Modules whose public functions get a span.  lattice and errors do no
# measurable work and stay unwrapped; their time lands in the caller's span.
LAYERS = ("coverings", "states", "linalg", "entanglement", "bounds", "loopgas", "multipartite")

ROOT = "cli.main"

# Span name -> time metric.  A span not listed here reports under its
# layer's default time metric, so every span's self time lands in exactly
# one metric and the time metrics add up to the traced run time.
_TIME_METRIC = {
    "coverings.ensemble_to_json": "coverings.serialize_s",
    "states.assemble": "states.assemble_s",
    "states.singlet_product": "states.assemble_s",
    "states.reduced_density_matrix": "states.rdm_s",
    "states.check_rotational_invariance": "states.rot_inv_s",
}
_LAYER_TIME_METRIC = {
    "coverings": "coverings.enumerate_s",
    "states": "states.other_s",
    "linalg": "linalg.eig_s",
    "entanglement": "entanglement.pair_s",
    "bounds": "bounds.compare_s",
    "loopgas": "loopgas.scan_s",
    "multipartite": "multipartite.audit_s",
    "cli": "cli.self_s",
}
TIME_METRICS = (
    "coverings.enumerate_s",
    "coverings.serialize_s",
    "states.assemble_s",
    "states.rdm_s",
    "states.rot_inv_s",
    "states.other_s",
    "linalg.eig_s",
    "entanglement.pair_s",
    "bounds.compare_s",
    "loopgas.scan_s",
    "multipartite.audit_s",
    "cli.self_s",
)
COUNT_METRICS = (
    "coverings.count",
    "states.rdm_calls",
    "states.rot_inv_calls",
    "linalg.eig_calls",
    "entanglement.pair_calls",
    "loopgas.scan_calls",
    "loopgas.graph_pairs",
    "multipartite.subsets",
)
RATIO_METRICS = ("states.rdm_distinct_ratio", "loopgas.useful_pair_ratio")

_PAIR_FUNCTIONS = {
    "entanglement.measure_pair",
    "entanglement.extract_werner_p",
    "entanglement.concurrence_two_qubit",
    "entanglement.monogamy_sum",
}


def package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def layer_functions() -> dict[str, object]:
    """Span name -> original function, for every public layer function."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Wraps the layer functions of an imported ``rvblab`` in spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # id(array) -> (array, digest); holding the array keeps its id unique
        self._digests: dict[int, tuple[object, str]] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Rebind every binding of a layer function to its span wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (used for the root)."""
        return self._wrap(name, fn)(*args, **kwargs)

    # -- recording ----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if annotate is not None:
                spans[idx] = (name, start, end, parent, annotate(self, args, kwargs, result))
            return result

        return span

    def digest(self, array) -> str:
        entry = self._digests.get(id(array))
        if entry is None:
            entry = (array, hashlib.sha1(array.tobytes()).hexdigest())
            self._digests[id(array)] = entry
        return entry[1]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _annotate_rdm(tracer: Tracer, args, kwargs, result) -> list:
    state = _arg(args, kwargs, 0, "state")
    return [tracer.digest(state.amplitudes), list(result.sites)]


def _annotate_scan(tracer: Tracer, args, kwargs, result) -> list:
    ensemble = _arg(args, kwargs, 0, "ensemble")
    key = hashlib.sha1(repr(ensemble.coverings).encode()).hexdigest()
    return [len(ensemble.coverings), key]


def _annotate_enumerate(tracer: Tracer, args, kwargs, result) -> int:
    return len(result)


_ANNOTATE = {
    "coverings.enumerate_gas": _annotate_enumerate,
    "coverings.enumerate_liquid": _annotate_enumerate,
    "states.reduced_density_matrix": _annotate_rdm,
    "loopgas.loop_formula_scan": _annotate_scan,
}


# ----------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def time_metric(span_name: str) -> str:
    return _TIME_METRIC.get(span_name) or _LAYER_TIME_METRIC[span_name.split(".", 1)[0]]


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run whose root span is ``cli.main``.

    Returns every name in ``TIME_METRICS``, ``COUNT_METRICS`` and
    ``RATIO_METRICS`` plus ``trace.run_s``, the root span's duration.  A
    ratio whose base is zero (no calls into that layer) reads 0.
    """
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        raise ValueError(f"expected one root span {ROOT!r}, found {len(roots)}")
    out: dict[str, float] = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0)
    for span, self_s in zip(spans, self_times(spans)):
        out[time_metric(span[0])] += self_s

    rdm_keys = []
    scans: dict[str, int] = {}
    for name, _, _, parent, extra in spans:
        if name in ("coverings.enumerate_gas", "coverings.enumerate_liquid"):
            out["coverings.count"] += extra
        elif name == "states.reduced_density_matrix":
            rdm_keys.append((extra[0], tuple(extra[1])))
        elif name == "states.check_rotational_invariance":
            out["states.rot_inv_calls"] += 1
        elif name.startswith("linalg.") and not spans[parent][0].startswith("linalg."):
            out["linalg.eig_calls"] += 1
        elif name in _PAIR_FUNCTIONS:
            out["entanglement.pair_calls"] += 1
        elif name == "loopgas.loop_formula_scan":
            n_cov, key = extra
            out["loopgas.scan_calls"] += 1
            out["loopgas.graph_pairs"] += n_cov * n_cov
            scans[key] = n_cov
        elif name == "multipartite.subset_spectrum":
            out["multipartite.subsets"] += 1

    out["states.rdm_calls"] = len(rdm_keys)
    out["states.rdm_distinct_ratio"] = len(set(rdm_keys)) / len(rdm_keys) if rdm_keys else 0.0
    useful = sum(n * (n + 1) // 2 for n in scans.values())
    pairs = out["loopgas.graph_pairs"]
    out["loopgas.useful_pair_ratio"] = useful / pairs if pairs else 0.0
    root = spans[roots[0]]
    out["trace.run_s"] = root[2] - root[1]
    return out
