"""What the benchmark in perfbench/ needs of the package, read from its
source without running or changing it.

The workloads call package functions by name and drive the CLI with fixed
argument lists, and a traced run (``perfbench/run.py --trace 1``) refuses a
per-layer metric of BENCHMARK.json whose function the tracer cannot wrap.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import entropy_lab
import entropy_lab.cli
from entropy_lab.torus_sets import canonicalize

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def _package_aliases(tree) -> dict:
    """Local name -> package object for every import of entropy_lab."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "entropy_lab":
                    aliases[alias.asname or alias.name] = entropy_lab
        elif isinstance(node, ast.ImportFrom) and node.module == "entropy_lab":
            for alias in node.names:
                aliases[alias.asname or alias.name] = getattr(entropy_lab, alias.name)
    return aliases


def _resolve(node, aliases, missing):
    """The package object an attribute chain names, or None; names the
    package lacks are added to ``missing``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if not isinstance(node, ast.Attribute):
        return None
    base = _resolve(node.value, aliases, missing)
    if base is None:
        return None
    if not hasattr(base, node.attr):
        missing.add(f"{ast.unparse(node.value)}.{node.attr}")
        return None
    return getattr(base, node.attr)


def test_benchmark_uses_only_names_the_package_has():
    seen, missing = 0, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = _package_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    _resolve(node, aliases, missing) is not None:
                seen += 1
    assert seen > 0
    assert not missing, f"perfbench calls names the package lacks: {sorted(missing)}"


def test_benchmark_cli_arguments_parse():
    parser = entropy_lab.cli.build_parser()
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [node.args[0] for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_main" and node.args
             and isinstance(node.args[0], ast.List)]
    assert calls
    for argv in calls:
        # values computed at run time only need to parse as a number or path
        args = [e.value if isinstance(e, ast.Constant) else "1" for e in argv.elts]
        parser.parse_args([str(a) for a in args])


def _tracing_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_can_produce_every_per_layer_metric(monkeypatch):
    tracing = _tracing_module(monkeypatch)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tracing.Tracer() as tracer:
        pass
    unknown = []
    for metric in contract["per_layer"]:
        name = metric["name"]
        head, _, key = name.partition(".")
        if head == "layer":
            ok = key.split(".")[0] in tracing.LAYERS
        elif head == "trace":
            ok = key in ("wall_s", "untraced_wall_s", "overhead_s")
        else:
            ok = name.rsplit(".", 1)[0] in tracer.span_names
        if not ok:
            unknown.append(name)
    assert not unknown, f"per-layer metrics the tracer cannot produce: {unknown}"


def test_traced_spectrum_spans_carry_their_counts(monkeypatch):
    # A traced benchmark pass reads n, eigs and plunge off every
    # toeplitz.spectrum span, for the half-order split ([0, 1/2) at N = 8
    # and 16, and two intervals alone) and for the order-N real form (their
    # asymmetric union), the three order-16 restrictions that
    # check_subadditivity solves. scan solves through entropy_result, not
    # spectrum, so [0, 1/2) is solved by spectrum directly.
    tracing = _tracing_module(monkeypatch)
    k1, k2 = canonicalize([(0.05, 0.3)]), canonicalize([(0.5, 0.62)])
    half = entropy_lab.SymbolFunction.indicator(canonicalize([(0.0, 0.5)]))
    with tracing.Tracer() as tracer:
        for n in (8, 16):
            entropy_lab.spectrum(entropy_lab.fourier_coefficients(half, n - 1))
        for K in (k1, k2, k1.union(k2)):
            entropy_lab.spectrum(entropy_lab.fourier_coefficients(
                entropy_lab.SymbolFunction.indicator(K), 15))
    counts = [s[4] for s in tracer.spans if s[0] == "toeplitz.spectrum"]
    assert [c["n"] for c in counts] == [8, 16, 16, 16, 16]
    for c in counts:
        assert c["eigs"] == c["n"] and 0 < c["plunge"] <= c["n"]
    metrics = tracing.flatten(tracing.summarize(tracer.spans))
    assert metrics["toeplitz.spectrum.calls"] == 5
    assert metrics["toeplitz.spectrum.eigs"] == 72
    assert metrics["toeplitz.spectrum.top_n"] == 16
    assert 0.0 < metrics["toeplitz.spectrum.plunge_frac"] <= 1.0
