"""Time one set-up in a fresh interpreter: import entropy_lab, then load and
resolve each spec file. Prints the seconds taken and the mean time of a
fixed pure-Python reference run just before and just after it.

    python3 setup_probe.py <src dir> <n_max or "none"> [spec.json ...]
"""

import sys
import time


def reference() -> float:
    """Dict and str work, the kind of bytecode an import executes."""
    t0 = time.perf_counter()
    table = {}
    for i in range(400_000):
        table[i % 1000] = str(i)
    return time.perf_counter() - t0


def main(src: str, n_max: str, specs: list[str]) -> tuple[float, float]:
    before = reference()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from entropy_lab import specio

    for path in specs:
        specio.load_spec(path).resolve_set(
            n_max=None if n_max == "none" else int(n_max))
    setup = time.perf_counter() - t0
    return setup, (before + reference()) / 2


if __name__ == "__main__":
    print(*map(repr, main(sys.argv[1], sys.argv[2], sys.argv[3:])))
