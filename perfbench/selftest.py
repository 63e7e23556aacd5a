"""Fault-injection self-test: each workload's checks must catch corrupted
outputs.

    python3 perfbench/selftest.py

For each workload one pass runs on seed 0, and its outputs must pass every
check. Then each of the workload's faults (a perturbed S_N or P_N, a wrong
alpha, a missing row, a non-zero exit, a shifted Fejer, oracle or
subadditivity value) corrupts a copy of those outputs, and the checks must
report failed_frac > 0. Last, a traced scan whose eigensolve fails must
exit 2 and still summarize. Exits 1 if a clean pass fails, a fault goes
unseen or the traced failure is mishandled.
"""

from __future__ import annotations

import copy
import shutil
import sys

from run import NAMES, OUT, SRC


def traced_eigensolve_failure(workdir) -> bool:
    """Scan 8..64 under a Tracer with eigh failing at N = 64: the scan must
    exit 2, and the spans must summarize with the failed call counted."""
    import numpy as np
    import tracing
    import workloads

    spec = workloads._write_spec(workdir / "half.json", {
        "version": 1, "type": "intervals", "intervals": [[0.0, 0.5]]})
    eigh = np.linalg.eigh

    def failing_eigh(mat):
        if len(mat) >= 64:
            raise np.linalg.LinAlgError("injected")
        return eigh(mat)

    np.linalg.eigh = failing_eigh
    try:
        with tracing.Tracer() as tracer:
            code, _ = workloads._main(["scan", "--set", spec, "--nmin", 8, "--nmax", 64,
                                       "--mode", "both", "--out", workdir / "half.csv"])
    finally:
        np.linalg.eigh = eigh
    metrics = tracing.flatten(tracing.summarize(tracer.spans))
    raised = sum(1 for s in tracer.spans if s[0] == "toeplitz.spectrum" and s[4] is None)
    ok = code == 2 and raised >= 1 and metrics["toeplitz.spectrum.top_n"] < 64
    print(f"{'traced scan':<14} {'eigh fails at N=64':<28} exit {code}, "
          f"{raised} failed spectrum span(s), "
          f"{metrics['toeplitz.spectrum.calls']} calls  {'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ok = True
    for name in NAMES:
        workdir = OUT / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload = WORKLOADS[name](0, workdir)
        workload.setup()
        out = workload.outputs(workload.run())
        cases = {"clean": out} | {label: fault(copy.deepcopy(out))
                                  for label, fault in workload.faults().items()}
        for label, outputs in cases.items():
            checks = workload.check(outputs)
            failed = [c for c in checks if not c[1]]
            caught = bool(failed) != (label == "clean")
            ok &= caught
            print(f"{name:<14} {label:<28} failed_frac "
                  f"{len(failed) / len(checks):.3f} ({len(failed)} of {len(checks)})"
                  f"  {'ok' if caught else 'MISSED' if failed == [] else 'FAILED'}"
                  + (f"  [{failed[0][0]}]" if failed else ""))
    workdir = OUT / "selftest-trace"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ok &= traced_eigensolve_failure(workdir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
