"""The three benchmark workloads: inputs from a seed, one timed pass, and the
correctness checks on its outputs.

Each workload is driven from outside the package, through ``cli.main`` or
the public library functions. ``setup`` makes the inputs (spec files and a
translation phase) and the check references; it is not timed as wall time.
``run`` is one timed pass. ``outputs`` reads what the pass wrote, ``check``
judges it, and ``faults`` lists deliberate corruptions of those outputs that
the checks must catch. ``specs`` are the spec files set-up loads;
``generated`` are the ones a pass writes.

``reference`` is a fixed computation built from numpy and scipy alone, with
the instruction mix of the workload's hot loop. The run times it between
passes to read the host's speed at that moment; ``reference_s`` is about
its median time on the 2-vCPU VM the benchmark was built on (see the
README). Neither depends on
entropy_lab, so a change to the package moves the pass times and leaves the
reference where it was.

Every seed-drawn phase translates the spectral set. S_N and P_N are
translation invariant, so the references hold for every seed. For Cantor
sets the phase puts the seam inside a hole, so every seed gives the same
number of stored pieces and the same amount of work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import scipy.linalg

import entropy_lab as el
from entropy_lab import cli, specio, torus_sets

# Jin-Korepin constant of the single-interval asymptotics
# S_N = (1/3) ln(2 N sin(pi L)) + UPSILON (J. Stat. Phys. 116, 2004), to the
# seven digits published there; UPSILON_DIGITS is half a unit in the last one.
UPSILON = 0.4950179
UPSILON_DIGITS = 5e-8


def _main(argv) -> tuple[int, str]:
    """cli.main with its stdout and stderr captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def _seam_in_hole(K, rng: random.Random) -> float:
    """Phase that moves a random point of a random hole of K to the seam."""
    holes = K.complement().intervals
    a, b = holes[rng.randrange(len(holes))]
    return -(a + (b - a) * rng.uniform(0.25, 0.75))


def _toeplitz_eigensolve(n: int) -> float:
    """Dense Hermitian eigensolve plus residual, as toeplitz.spectrum does,
    on the order-n sine-kernel matrix of a translated half circle."""
    k = np.arange(n)
    q = np.where(k == 0, 0.5, np.sin(0.5 * np.pi * k) / (np.pi * np.maximum(k, 1)))
    q = q * np.exp(2j * np.pi * 0.123 * k)
    mat = scipy.linalg.toeplitz(q.conj(), q)
    w, v = np.linalg.eigh(mat)
    return float(np.max(np.linalg.norm(mat @ v - v * w, axis=0)))


def _coefficient_sums(pieces: int, orders: int) -> np.ndarray:
    """Closed-form Fourier coefficients of fixed pieces, as
    toeplitz.fourier_coefficients sums them."""
    ends = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, (pieces, 2)), axis=1)
    w = 2j * np.pi * np.arange(1, orders + 1)
    vals = np.zeros(orders, dtype=complex)
    for a, b in ends:
        vals += (np.exp(-w * a) - np.exp(-w * b)) / w
    return vals


def _pair_overlaps(intervals: int, points: int, rounds: int) -> float:
    """Interval-pair overlap sums over a point array inside Python loops, as
    torus_sets.overlap_deficit_profile evaluates them for fejer."""
    ends = np.sort(np.random.default_rng(2).uniform(0.0, 1.0, (intervals, 2)), axis=1)
    phis = np.linspace(-0.5, 0.5, points)
    total = 0.0
    for _ in range(rounds):
        overlap = np.zeros_like(phis)
        for a1, b1 in ends:
            for a2, b2 in ends:
                s = (a2 + phis) % 1.0
                e = s + (b2 - a2)
                overlap += np.maximum(0.0, np.minimum(b1, e) - np.maximum(a1, s))
                overlap += np.maximum(0.0, np.minimum(b1, e - 1.0) - np.maximum(a1, s - 1.0))
        total += float(overlap.sum())
    return total


def _write_spec(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


class Fig2:
    """scan of K = [phi, phi + 1/2), 8..1448, --mode both."""

    name = "fig2"
    generated = ()
    n_min, n_max = 8, 1448
    resolve_n_max = n_max
    reference_s = 1.16

    @staticmethod
    def reference():
        return _toeplitz_eigensolve(1024)

    def __init__(self, seed: int, workdir: Path):
        phase = random.Random(seed).uniform(0.0, 0.5)
        self.specs = [_write_spec(workdir / "fig2.json", {
            "version": 1, "type": "intervals", "intervals": [[phase, phase + 0.5]]})]
        self.csv = workdir / "fig2.csv"

    def setup(self):
        specio.load_spec(self.specs[0]).resolve_set(n_max=self.resolve_n_max)
        self.grid = el.default_grid(self.n_min, self.n_max)
        self.proxy_ref = {n: el.purity_proxy_single_interval_series(0.5, n)
                          for n in self.grid}

    @staticmethod
    def entropy_gate(n: int) -> float:
        """A few times the measured residual 2.5e-7 (N/256)^-2, floored by
        the precision of the published constant."""
        return max(1e-6 * (256.0 / n) ** 2, UPSILON_DIGITS)

    def run(self):
        return _main(["scan", "--set", self.specs[0], "--nmin", self.n_min,
                      "--nmax", self.n_max, "--mode", "both", "--out", self.csv])

    def outputs(self, raw):
        code, err = raw
        rows = {}
        if code == 0:
            with open(self.csv, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    rows[int(row["N"])] = (float(row["S_N"]), float(row["P_N"]))
        return {"exit": code, "stderr": err, "rows": rows}

    def check(self, out):
        checks = []
        _check(checks, "exit 0 (includes the scan's own route check)",
               out["exit"] == 0, out["stderr"])
        _check(checks, "grid", sorted(out["rows"]) == self.grid)
        for n, (s, p) in sorted(out["rows"].items()):
            ref = self.proxy_ref.get(n)
            _check(checks, f"P_{n} vs single-interval series",
                   ref is not None and abs(p - ref) <= 1e-8, f"{p!r} vs {ref!r}")
            if n >= 256:
                jk = math.log(2.0 * n) / 3.0 + UPSILON
                _check(checks, f"S_{n} vs Jin-Korepin",
                       abs(s - jk) <= self.entropy_gate(n),
                       f"residual {s - jk:.3e}, gate {self.entropy_gate(n):.1e}")
        return checks

    def faults(self):
        def entropy(out):
            s, p = out["rows"][1024]
            out["rows"][1024] = (s + 1e-6, p)
            return out

        def proxy(out):
            s, p = out["rows"][64]
            out["rows"][64] = (s, p + 1e-7)
            return out

        def route(out):
            out["exit"] = 2
            return out

        def row(out):
            del out["rows"][1448]
            return out

        return {"S_1024 + 1e-6": entropy, "P_64 + 1e-7": proxy,
                "scan exits 2": route, "row N=1448 missing": row}


CANTOR_NMAX = 16384


class CantorProxy:
    """cantor --nmax 16384, scan --mode proxy 128..16384, fit --set, for
    (q, a) = (1/4, 1) and (1/3, 0.9)."""

    name = "cantor-proxy"
    params = ((0.25, 1.0), (1.0 / 3.0, 0.9))
    resolve_n_max = CANTOR_NMAX
    reference_s = 0.20

    @staticmethod
    def reference():
        return _coefficient_sums(128, CANTOR_NMAX)

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.specs = [
            _write_spec(workdir / f"cantor{i}.json", {
                "version": 1, "type": "cantor", "q": q, "a": a, "depth": "auto"})
            for i, (q, a) in enumerate(self.params)]
        self.generated = [workdir / f"cantor{i}.{kind}.json"
                          for i in range(len(self.params)) for kind in ("out", "moved")]

    def setup(self):
        sets = [specio.load_spec(p).resolve_set(n_max=self.resolve_n_max)
                for p in self.specs]
        self.phases = [_seam_in_hole(K, self.rng) for K in sets]

    @staticmethod
    def expected_pieces(q: float, a: float) -> int:
        """2^m - 1 intervals at the depth m whose next holes are finer than
        1/(2 N_max); the two end pieces join across the seam."""
        m = 0
        while a * q ** (m + 1) >= 1.0 / (2 * CANTOR_NMAX):
            m += 1
        return 2 ** m - 1

    def run(self):
        results = []
        for i, ((q, a), phase) in enumerate(zip(self.params, self.phases)):
            raw, moved = self.generated[2 * i:2 * i + 2]
            table = self.workdir / f"cantor{i}.csv"
            report = self.workdir / f"cantor{i}.fit.json"
            codes = [_main(["cantor", "--q", repr(q), "--a", repr(a),
                            "--nmax", CANTOR_NMAX, "--out", raw])]
            if codes[-1][0] == 0:
                spec = specio.load_spec(raw)
                specio.dump_spec(specio.intervals_spec_dict(
                    spec.intervals.translate(phase), spec.metadata), moved)
                codes.append(_main(["scan", "--set", moved, "--mode", "proxy",
                                    "--nmin", 128, "--nmax", CANTOR_NMAX,
                                    "--out", table]))
            if codes[-1][0] == 0:
                codes.append(_main(["fit", "--csv", table, "--set", moved,
                                    "--series", "proxy", "--out", report]))
            results.append((codes, moved, report))
        return results

    def outputs(self, raw):
        sets = []
        for codes, moved, report in raw:
            ok = len(codes) == 3 and all(c == 0 for c, _ in codes)
            sets.append({
                "exits": [c for c, _ in codes],
                "stderr": [e for _, e in codes if e],
                "pieces": len(json.loads(moved.read_text())["intervals"]) if ok else None,
                "fit": json.loads(report.read_text()) if ok else None,
            })
        return {"sets": sets}

    def check(self, out):
        checks = []
        for (q, a), got in zip(self.params, out["sets"]):
            tag = f"q={q:.4g}"
            _check(checks, f"{tag}: cantor, scan, fit exit 0",
                   got["exits"] == [0, 0, 0], "; ".join(got["stderr"]))
            _check(checks, f"{tag}: interval count",
                   got["pieces"] == self.expected_pieces(q, a), str(got["pieces"]))
            target = math.log(2.0) / -math.log(q)
            fit = got["fit"] or {}
            _check(checks, f"{tag}: predicted_alpha",
                   abs(fit.get("predicted_alpha", math.inf) - target) <= 1e-12)
            alpha = fit.get("alpha", math.inf)
            _check(checks, f"{tag}: fitted alpha within 0.1 of {target:.4f}",
                   abs(alpha - target) <= 0.1, f"alpha {alpha!r}")
        return checks

    def faults(self):
        def alpha(out):
            out["sets"][0]["fit"]["alpha"] += 0.2
            return out

        def exit1(out):
            out["sets"][1]["exits"][1] = 1
            return out

        def pieces(out):
            out["sets"][1]["pieces"] += 1
            return out

        def predicted(out):
            out["sets"][0]["fit"]["predicted_alpha"] += 1e-9
            return out

        return {"alpha + 0.2": alpha, "scan exits 1": exit1,
                "interval count + 1": pieces, "predicted_alpha + 1e-9": predicted}


class RoutesCantor:
    """Coefficient, eigenvalue and Fejer routes to P_N on the depth-5
    q = 1/4 Cantor set at N = 64 and 256; the Fock-space oracle against
    the Toeplitz route to S_n for n = 1..6; and the subadditivity gap of
    20 random disjoint pairs at N = 4, 16 and 64, as in ``verify``."""

    name = "routes-cantor"
    sizes = (64, 256)
    oracle_sizes = range(1, 7)
    pair_count = 20
    pair_sizes = (4, 16, 64)
    resolve_n_max = None
    generated = ()
    reference_s = 0.40

    @staticmethod
    def reference():
        return _pair_overlaps(31, 2501, 5)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.specs = [_write_spec(workdir / "cantor5.json", {
            "version": 1, "type": "cantor", "q": 0.25, "a": 1.0, "depth": 5})]

    def setup(self):
        K = specio.load_spec(self.specs[0]).resolve_set(n_max=self.resolve_n_max)
        self.K = K.translate(_seam_in_hole(K, self.rng))
        pair_rng = np.random.default_rng(self.seed)
        self.pairs = [torus_sets.random_disjoint_pair(pair_rng)
                      for _ in range(self.pair_count)]

    def run(self):
        coeffs = el.fourier_coefficients(el.SymbolFunction.indicator(self.K),
                                         max(self.sizes) - 1)
        routes = {}
        for n in self.sizes:
            routes[n] = {
                "coefficient": el.purity_proxy_direct(coeffs, n),
                "eigenvalue": el.entropy_result(
                    el.restriction_from_coefficients(coeffs, n)).proxy,
                "fejer": el.purity_proxy_kernel(self.K, n),
            }
        f = el.SymbolFunction.indicator(self.K)
        entropies = {n: (el.block_entropy_oracle(self.K, n), el.block_entropy(f, n))
                     for n in self.oracle_sizes}
        gaps = [min(el.check_subadditivity(k1, k2, n) for n in self.pair_sizes)
                for k1, k2 in self.pairs]
        return routes, entropies, gaps

    def outputs(self, raw):
        return {"routes": raw[0], "entropies": raw[1], "gaps": raw[2]}

    def check(self, out):
        checks = []
        for n, r in sorted(out["routes"].items()):
            scale = max(abs(v) for v in r.values())
            for a, b in (("coefficient", "eigenvalue"), ("coefficient", "fejer"),
                         ("eigenvalue", "fejer")):
                gap = abs(r[a] - r[b]) / scale
                _check(checks, f"N={n}: {a} vs {b} within 1e-6 relative",
                       gap <= 1e-6, f"{gap:.3e}")
        for n, (oracle, toeplitz) in sorted(out["entropies"].items()):
            _check(checks, f"S_{n}: oracle vs Toeplitz within 1e-8",
                   abs(oracle - toeplitz) <= 1e-8, f"{oracle!r} vs {toeplitz!r}")
        for i, gap in enumerate(out["gaps"]):
            _check(checks, f"pair {i}: subadditivity gap >= -1e-9 (verify's gate)",
                   gap >= -1e-9, f"{gap!r}")
        return checks

    def faults(self):
        def fejer(out):
            out["routes"][256]["fejer"] *= 1.0 + 1e-5
            return out

        def oracle(out):
            s_oracle, s_toeplitz = out["entropies"][6]
            out["entropies"][6] = (s_oracle + 1e-7, s_toeplitz)
            return out

        def subadditivity(out):
            out["gaps"][3] = -1e-6
            return out

        return {"Fejer route x (1 + 1e-5)": fejer, "oracle S_6 + 1e-7": oracle,
                "pair 3 gap = -1e-6": subadditivity}


WORKLOADS = {w.name: w for w in (Fig2, CantorProxy, RoutesCantor)}
