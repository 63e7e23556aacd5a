"""Benchmark of entropy-lab's user-facing workloads.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run imports the package from ``src/`` of the checkout, makes the
workload's inputs from the seed, and repeats the workload for about
``--seconds`` seconds, set-up probes included (at least one pass, and no
pass that would end past the budget). Every pass's outputs are checked.
Untraced passes alternate with the workload's fixed reference computation,
and the mean pass time is also reported rescaled by the mean reference
time, so that the host's speed drifting between runs does not show as a
change of the program. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. A result file with provenance, samples, checks
and (traced) spans goes to ``.perfbench/`` in the checkout.

``--workload all`` runs every workload in its own process and prints one
table of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
# About the median time of setup_probe.reference on the 2-vCPU VM the
# benchmark was built on (see the README).
SETUP_REFERENCE_S = 0.09
# Workload names, needed before the package (and workloads.py) can be imported.
NAMES = ("fig2", "cantor-proxy", "routes-cantor")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
# Layers whose spans enclose a whole pass on the CLI workloads, so they lead
# any busy-time ranking there by construction.
ENTRY_LAYERS = ("cli", "scaling")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return f"p{100 * (i + 1) // n}", sorted(samples)[i]


def git_commit() -> str | None:
    """HEAD of a .git directory in the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def provenance(seed: int, specs, threads_env: str | None) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "ENTROPY_LAB_THREADS": threads_env,
        "git_commit": git_commit(),
        "source_digest": digest(sorted((SRC / "entropy_lab").glob("*.py"))),
        "seed": seed,
        "spec_digests": {Path(p).name: digest([p]) for p in specs if Path(p).is_file()},
    }


def setup_times(workload) -> list[tuple[float, float]]:
    """Set-up (import plus spec load and resolve) in fresh interpreters, each
    with the time of setup_probe.reference around it."""
    n_max = "none" if workload.resolve_n_max is None else str(workload.resolve_n_max)
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(SRC), n_max, *map(str, workload.specs)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        setup, ref = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append((setup, ref))
    return times


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def one_pass(workload):
    """Time one pass and check its outputs. A pass that raises counts as
    one failed check, so the run goes on and reports it."""
    t0 = time.perf_counter()
    try:
        raw = workload.run()
        wall = time.perf_counter() - t0
        return wall, workload.check(workload.outputs(raw))
    except Exception:
        wall = time.perf_counter() - t0
        return wall, [("pass raised", False, traceback.format_exc(limit=-3))]


def load_contract() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def run_workload(args) -> None:
    start = time.perf_counter()
    if not (SRC / "entropy_lab" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'entropy_lab'}")
    contract = load_contract()
    threads_env = os.environ.pop("ENTROPY_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import entropy_lab
    if Path(entropy_lab.__file__).resolve().parent != (SRC / "entropy_lab").resolve():
        fail(f"imported entropy_lab from {entropy_lab.__file__}, not {SRC}")
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()

    walls, traced_walls, checks, per_pass, spans = [], [], [], [], []
    setups = [] if args.trace else setup_times(workload)
    refs = [] if args.trace else [timed(workload.reference)]
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        if traced:
            with tracing.Tracer() as tracer:
                for spec in workload.specs:
                    entropy_lab.specio.load_spec(spec).resolve_set(
                        n_max=workload.resolve_n_max)
                wall, got = one_pass(workload)
            traced_walls.append(wall)
            per_pass.append(tracing.flatten(tracing.summarize(tracer.spans)))
            spans.append(tracer.spans)
        else:
            wall, got = one_pass(workload)
            walls.append(wall)
            if not args.trace:
                refs.append(timed(workload.reference))
        checks.extend(got)
        elapsed = time.perf_counter() - start
        done_both = bool(traced_walls) or not args.trace
        step = statistics.median(walls + traced_walls)
        if refs:
            step += statistics.median(refs)
        if done_both and elapsed + step > args.seconds:
            break

    failed = [c for c in checks if not c[1]]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, [*workload.specs, *workload.generated],
                                 threads_env),
        "wall_samples_s": walls, "reference_samples_s": refs,
        "setup_samples_s": [t for t, _ in setups],
        "setup_reference_samples_s": [r for _, r in setups],
        "checks_attempted": len(checks), "checks_failed": len(failed),
        "failed_checks": [{"name": n, "detail": d} for n, _, d in failed[:50]],
    }
    lines = [f"workload {args.workload}, seed {args.seed}: "
             f"{len(walls) + len(traced_walls)} pass(es)"]
    if args.trace:
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        result["traced_wall_samples_s"] = traced_walls
        result["layer_metrics"] = metrics
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(
            [[s[:4] for s in pass_spans] for pass_spans in spans]))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        wanted = contract["per_layer"]
        unknown = [m["name"] for m in wanted if m["name"] not in metrics
                   and m["name"].rsplit(".", 1)[0] not in tracer.span_names]
        if unknown:
            fail(f"per-layer metrics the tracer cannot produce: {unknown}")
        lines += layer_lines(metrics, tracing.LAYERS)
    else:
        # The run's passes and references interleave, so they see the same
        # mix of the host's fast and slow phases.
        wall_norm = statistics.fmean(walls) * workload.reference_s / statistics.fmean(refs)
        setup_norm = [t * SETUP_REFERENCE_S / r for t, r in setups]
        metrics = {"wall_norm_s": wall_norm,
                   "setup_s": statistics.median(setup_norm),
                   "peak_rss_mib": rss_mib}
        wanted = contract["end_to_end"]
        hi = tail(walls)
        result["wall_s"] = statistics.median(walls)
        result["setup_norm_samples_s"] = setup_norm
        lines += [
            f"  wall_norm_s   {wall_norm:.4f} s  mean of {len(walls)}, "
            f"at reference speed",
            f"  wall_s        {result['wall_s']:.4f} s  median of {len(walls)} "
            + (f"({hi[0]} {hi[1]:.4f} s)" if hi else "(no tail: needs 11 samples)"),
            f"  reference     {statistics.median(refs):.4f} s  median of {len(refs)}, "
            f"nominal {workload.reference_s:.4f} s",
            f"  setup_s       {metrics['setup_s']:.4f} s  median of {len(setups)} "
            f"fresh processes, at reference speed "
            f"({statistics.median(t for t, _ in setups):.4f} s as timed)",
            f"  peak_rss_mib  {rss_mib:.1f} MiB",
        ]
    lines.append(f"  failed_frac   {len(failed) / len(checks):.4g}  "
                 f"({len(failed)} of {len(checks)} checks)")
    lines += [f"  FAILED {n}: {d}" for n, _, d in failed[:10]]
    result["metrics"] = metrics
    result_path = workdir / "result.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n")
    lines.append(f"  result file   {result_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))


def layer_lines(metrics: dict, layer_names) -> list[str]:
    lines = ["  layer        busy_s     self_s"]
    lines += [f"  {layer:<11} {metrics[f'layer.{layer}.busy_s']:9.4f}  "
              f"{metrics[f'layer.{layer}.self_s']:9.4f}" for layer in layer_names]
    fns = {k[:-len(".self_s")]: v for k, v in metrics.items()
           if k.endswith(".self_s") and not k.startswith("layer.")}
    top = sorted(fns.items(), key=lambda kv: -kv[1])[:4]
    lines.append("  largest self time: " + ", ".join(f"{n} {v:.4f} s" for n, v in top))
    lead = max((layer for layer in layer_names if layer not in ENTRY_LAYERS),
               key=lambda layer: metrics[f"layer.{layer}.busy_s"])
    lines.append(f"  largest busy time, entry layers {' and '.join(ENTRY_LAYERS)} "
                 f"aside: {lead}")
    lines.append(f"  trace overhead {metrics['trace.overhead_s']:+.4f} s "
                 f"(traced {metrics['trace.wall_s']:.4f} s, untraced "
                 f"{metrics['trace.untraced_wall_s']:.4f} s)")
    return lines


def run_all(args) -> None:
    """Each workload in its own process; one table of the end-to-end metrics."""
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout[:done.stdout.rstrip().rfind("\n") + 1])
        if done.returncode != 0:
            fail(f"{name} exited {done.returncode}: {done.stderr.strip()}")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, last))
    print(f"{'workload':<14}" + "".join(f"{k:>22}" for k in rows[0][1]["metrics"])
          + f"{'failed_frac':>22}")
    for name, last in rows:
        cells = [f"{v['value']:.4f} {v['unit']}" for v in last["metrics"].values()]
        frac = f"{last['failed'] / last['attempted']:.3g} of {last['attempted']}"
        print(f"{name:<14}" + "".join(f"{c:>22}" for c in cells) + f"{frac:>22}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all" and args.trace:
        parser.error("--workload all prints the end-to-end metrics; use --trace 0")
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
