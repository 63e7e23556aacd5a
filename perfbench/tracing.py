"""Span tracer for traced benchmark passes.

``Tracer`` wraps every public function of the seven entropy_lab modules
(for ``cli`` only ``main``, whose span is named ``cli.<command>`` so that
argparse, CSV and JSON I/O land in that span's self time). Every reference
to a wrapped function inside the package is patched, so calls made through
``from .toeplitz import spectrum`` style imports are seen too. The package
runs unmodified whenever no tracer is installed.

Spans are ``[name, start, end, parent, counts]`` lists kept in memory; the
caller writes them out when the run ends. ``counts`` stays ``None`` when
the call raised. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time

import numpy as np

LAYERS = ("specio", "torus_sets", "toeplitz", "fejer", "oracle", "scaling", "cli")
COMMANDS = ("scan", "fit", "verify", "cantor", "fermi")

# Eigenvalues strictly inside (PLUNGE_EPS, 1 - PLUNGE_EPS) are the plunge
# region: the only part of the spectrum that adds to S_N.
PLUNGE_EPS = 1e-12


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _spectrum_counts(args, kwargs, result):
    n = _arg(args, kwargs, 0, "restriction").order
    lam = np.asarray(result)
    plunge = int(np.count_nonzero((lam > PLUNGE_EPS) & (lam < 1.0 - PLUNGE_EPS)))
    return {"n": n, "eigs": int(lam.size), "plunge": plunge}


def _coefficient_counts(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    pieces = sum(1 for _, _, v in f.pieces() if v != 0.0)
    return {"work": pieces * _arg(args, kwargs, 1, "n_max")}


def _points(position: int, name: str):
    def counts(args, kwargs, result):
        return {"points": int(np.size(_arg(args, kwargs, position, name)))}
    return counts


# Counts recorded at the layer boundary, computed from arguments and result.
COUNTERS = {
    "toeplitz.spectrum": _spectrum_counts,
    "toeplitz.fourier_coefficients": _coefficient_counts,
    "fejer.fejer_kernel": _points(1, "phi"),
    "torus_sets.overlap_deficit_profile": _points(1, "phis"),
}


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans accumulate in
    ``tracer.spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple] = []
        # Every span name a traced pass can record.
        self.span_names = {f"cli.{c}" for c in COMMANDS}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        named_by_command = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if named_by_command:
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}" if argv else name
            stack = self._stack()
            span = [span_name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"entropy_lab.{layer}")
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__ \
                        or attr.startswith("_"):
                    continue
                if layer == "cli" and attr != "main":
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                self.span_names.add(f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "entropy_lab" and not mod_name.startswith("entropy_lab."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched = []
        return False


def summarize(spans) -> dict:
    """Per-function and per-layer totals of one traced pass.

    For each function: calls, busy_s (time inside it, nested calls of the
    same function counted once) and self_s. For each layer (module): busy_s
    (time with at least one of its functions on the stack) and self_s.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    fns: dict[str, dict] = {}
    layers = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        layer = name.split(".")[0]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        fn = fns.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        fn["calls"] += 1
        fn["self_s"] += dur - child[i]
        if name not in ancestors:
            fn["busy_s"] += dur
        layers[layer]["self_s"] += dur - child[i]
        if not any(a.split(".")[0] == layer for a in ancestors):
            layers[layer]["busy_s"] += dur
        for key, value in (counts or {}).items():
            if key != "n":
                fn[key] = fn.get(key, 0) + value
    # A call that raised has no counts; the computed metrics use the others.
    spec = [s for s in spans if s[0] == "toeplitz.spectrum" and s[4] is not None]
    if spec:
        fn = fns["toeplitz.spectrum"]
        orders = [s[4]["n"] for s in spec]
        top = max(orders)
        fn["top_n"] = top
        fn["top_n_s"] = sum(s[2] - s[1] for s in spec if s[4]["n"] == top)
        fn["n3_sum"] = sum(n ** 3 for n in orders)
        fn["bytes_est"] = sum(16 * n * n for n in orders)
        fn["plunge_frac"] = fn["plunge"] / fn["eigs"]
    return {"functions": fns, "layers": layers}


def flatten(summary: dict) -> dict[str, float]:
    """``function.key`` and ``layer.<module>.key`` metric names."""
    flat = {}
    for name, fn in summary["functions"].items():
        for key, value in fn.items():
            flat[f"{name}.{key}"] = value
    for layer, values in summary["layers"].items():
        for key, value in values.items():
            flat[f"layer.{layer}.{key}"] = value
    return flat


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each metric; a metric absent from a pass
    counts as 0 there (the function was not called)."""
    names = sorted(set().union(*per_pass))
    return {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}
