"""Block-size sweeps, growth-law fits, and the cross-checks with their gates.

For symbols built from finite interval unions the block entropy S_N is
squeezed between c1 log N and c3 (log N)^2; for the fat-Cantor family it
grows like N^alpha with alpha = log 2 / (-log ratio). This module runs the
sweeps (entropy by eigensolve, proxy in O(N) from coefficients), fits the
growth models, and verifies subadditivity, monotonicity, and the two-sided
envelope on computed data. It holds the one implementation of each seeded
cross-check of the paper's claims and of the fit flags, each judged by one
named gate; ``verify``, ``fit`` and the acceptance tests call them at their
own sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .fejer import purity_proxy_kernel
from .oracle import block_entropy_oracle
from .toeplitz import (
    EntropyResult,
    SymbolFunction,
    block_entropy,
    build_restriction,
    entropy_result,
    eta_tilde,
    fourier_coefficients,
    proxy_scan,
    purity_proxy_direct,
    purity_proxy_single_interval_series,
    restriction_from_coefficients,
)
from .torus_sets import (
    CantorSpec,
    TorusIntervalSet,
    canonicalize,
    predicted_alpha,
    random_disjoint_pair,
    random_interval_set,
)

DEFAULT_EIG_CAP = 2048
DEFAULT_RATIO = math.sqrt(2.0)
# Sizes below this are dropped from fit windows by default; they carry the
# strongest finite-size transients.
DEFAULT_FIT_NMIN = 16
# Smallest N of the window on which bound_envelope fits c1 and c3.
ENVELOPE_NMIN = 8

# Gates of the cross-checks. GAP_TOL also bounds monotonicity and P_N <= S_N
# noise; subadditivity gaps must stay above -GAP_TOL.
GAP_TOL = 1e-9
ROUTE_TOL = 1e-6            # relative gap between the three routes to P_N
SERIES_TOL = 1e-8           # coefficient route vs single-interval series
ORACLE_TOL = 1e-8           # Toeplitz S_N vs Fock-space oracle
INVARIANCE_TOL = 1e-9       # S_N, P_N under complement and translation
ETA_C_MAX = 2.0             # eta_tilde <= eps - c log eps x(1-x) holds with c <= 2
LOG_R2_MIN = 0.995          # log-model R^2 of an interval-union scan
LOGSQ_RATIO_MAX = 0.1       # |logsq slope| / |log slope| stays below this
ALPHA_TOL = 0.1             # |fitted alpha - predicted alpha| for Cantor sets

# Points of the [0, 1] grid the pointwise eta_tilde bounds are checked on.
ETA_GRID_POINTS = 100_000

MODELS = ("power", "log", "logsq")


class VerificationError(RuntimeError):
    """An internal cross-check (route agreement) failed beyond tolerance."""


@dataclass(frozen=True)
class ScanRecord:
    """Per-block-size result: entropy is None in proxy-only scans."""

    n: int
    entropy: float | None
    proxy: float
    wall_time: float


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of one growth model in transformed coordinates.

    power: log S = slope * log N + intercept   (slope is the exponent alpha)
    log:   S = slope * log N + intercept
    logsq: S = slope * (log N)^2 + intercept
    """

    model: str
    slope: float
    intercept: float
    residual_rms: float
    r_squared: float
    window: tuple[int, int]
    n_points: int
    local_slopes: tuple[float, ...]


def default_grid(n_min: int, n_max: int, ratio: float = DEFAULT_RATIO) -> list[int]:
    """Geometric grid rounded to integers and deduplicated: the distinct
    values of round(n_min * ratio^k), k = 0, 1, ..., up to n_max.

    From each grid point the power k steps straight to the first one that
    rounds above it, estimated from logarithms and corrected by direct
    evaluation, so the cost is per grid point, not per power of the ratio.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad grid bounds [{n_min}, {n_max}]")
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise ValueError(f"grid ratio must be finite and exceed 1, got {ratio}")

    def point(k: int) -> float:
        try:
            return round(n_min * ratio ** k)
        except OverflowError:       # the point left the floats: it exceeds n_max
            return math.inf

    log_ratio = math.log(ratio)
    grid, k = [n_min], 0
    while True:
        # Smallest k' > k with point(k') > grid[-1]; the points never decrease.
        step = max(k + 1, math.ceil(math.log((grid[-1] + 0.5) / n_min) / log_ratio))
        while step - 1 > k and point(step - 1) > grid[-1]:
            step -= 1
        while point(step) <= grid[-1]:
            step += 1
        k, v = step, point(step)
        if v > n_max:
            return grid
        grid.append(int(v))


def scan(source, n_grid, mode: str = "both",
         eig_cap: int = DEFAULT_EIG_CAP) -> list[ScanRecord]:
    """Sweep block sizes and collect (S_N, P_N) records.

    ``mode`` is "both" or "proxy". The entropy of "both" needs the O(N^3)
    eigensolve and is refused above ``eig_cap``; the proxy always comes from
    the O(N) coefficient formula. Coefficients and proxies are computed once
    up to the largest N and shared, and each record's ``wall_time`` is an
    equal share of that stage plus its own eigensolve and checks. In mode
    "both" the eigenvalue route for P_N is checked against the coefficient
    route and a disagreement beyond 1e-6 relative raises VerificationError.
    Records come back in grid order.
    """
    grid = []
    for n in n_grid:
        try:
            integral = int(n) == n
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"block sizes must be integers, got {n!r}")
        grid.append(int(n))
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing and nonempty")
    if grid[0] < 1:
        raise ValueError("block sizes must be >= 1")
    if mode not in ("both", "proxy"):
        raise ValueError(f"unknown scan mode {mode!r}")
    want_entropy = mode == "both"
    if want_entropy and grid[-1] > eig_cap:
        raise ValueError(
            f"mode both needs N <= eig_cap = {eig_cap}, grid reaches {grid[-1]}"
        )

    t0 = time.perf_counter()
    f = SymbolFunction.of(source)
    coeffs = fourier_coefficients(f, grid[-1] - 1)
    proxies = dict(zip(grid, proxy_scan(coeffs, grid)))
    shared = (time.perf_counter() - t0) / len(grid)

    records = []
    for n in grid:
        t0 = time.perf_counter()
        p_direct = proxies[n]
        s_val = None
        if want_entropy:
            res: EntropyResult = entropy_result(restriction_from_coefficients(coeffs, n))
            s_val = res.entropy
            if abs(res.proxy - p_direct) > ROUTE_TOL * abs(p_direct) + 1e-9:
                raise VerificationError(
                    f"proxy routes disagree at N={n}: eigenvalue route "
                    f"{res.proxy!r} vs coefficient route {p_direct!r}"
                )
        records.append(ScanRecord(n=n, entropy=s_val, proxy=p_direct,
                                  wall_time=shared + time.perf_counter() - t0))
    return records


def _series(records, series: str) -> tuple[np.ndarray, np.ndarray]:
    ns = np.array([r.n for r in records], dtype=float)
    if series == "auto":
        series = "entropy" if all(r.entropy is not None for r in records) else "proxy"
    if series == "entropy":
        if any(r.entropy is None for r in records):
            raise ValueError("entropy series requested but records are proxy-only")
        ys = np.array([r.entropy for r in records], dtype=float)
    elif series == "proxy":
        ys = np.array([r.proxy for r in records], dtype=float)
    else:
        raise ValueError(f"unknown series {series!r}")
    return ns, ys


def fit_exponent(records, model: str, window: tuple[int, int] | None = None,
                 series: str = "auto") -> ExponentFit:
    """Ordinary least squares in the model's transformed coordinates.

    ``window`` bounds N inclusively; by default sizes below DEFAULT_FIT_NMIN
    are discarded. Also reports slopes between consecutive grid points in the
    same coordinates. A block size given twice, block sizes below 1 and
    non-finite values inside the window raise ValueError.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; pick one of {MODELS}")
    ns, ys = _series(sorted(records, key=lambda r: r.n), series)
    repeated = ns[1:] == ns[:-1]
    if np.any(repeated):
        raise ValueError(f"each block size may appear once, got N = "
                         f"{int(ns[1:][repeated][0])} more than once")
    if window is None:
        window = (max(DEFAULT_FIT_NMIN, int(ns[0])), int(ns[-1]))
    lo, hi = window
    if hi <= lo:
        raise ValueError(f"degenerate fit window [{lo}, {hi}]")
    keep = (ns >= lo) & (ns <= hi)
    ns, ys = ns[keep], ys[keep]
    if len(ns) < 4:
        raise ValueError(f"need >= 4 records inside window [{lo}, {hi}], have {len(ns)}")
    if ns[0] < 1:
        raise ValueError(f"block sizes must be >= 1, got N = {int(ns[0])}")
    bad = ~np.isfinite(ys)
    if np.any(bad):
        raise ValueError(f"growth fits need finite values, got {ys[bad][0]} "
                         f"at N = {int(ns[bad][0])}")
    if np.any(ys <= 0.0):
        raise ValueError("growth fits need strictly positive values")

    logn = np.log(ns)
    if model == "power":
        x, y = logn, np.log(ys)
    elif model == "log":
        x, y = logn, ys
    else:
        x, y = logn ** 2, ys

    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-20 else 1.0 - ss_res / ss_tot
    local = tuple(np.diff(y) / np.diff(x))
    return ExponentFit(model=model, slope=float(slope), intercept=float(intercept),
                       residual_rms=math.sqrt(ss_res / len(ns)),
                       r_squared=float(min(max(r2, 0.0), 1.0)),
                       window=(int(lo), int(hi)), n_points=len(ns),
                       local_slopes=local)


def fit_report(records, window=None, series="auto", cantor=None) -> dict:
    """All models fitted on one window, with the log-growth flags and, given
    ``cantor`` = {"q": ..., "a": ...}, the predicted-exponent flags."""
    fits = {}
    for model in MODELS:
        f = fit_exponent(records, model, window=window, series=series)
        fits[model] = {
            "slope": f.slope,
            "intercept": f.intercept,
            "residual_rms": f.residual_rms,
            "r_squared": f.r_squared,
            "local_slopes": list(f.local_slopes),
        }
        window = f.window      # lock all models to the same resolved window
    ratio = abs(fits["logsq"]["slope"]) / abs(fits["log"]["slope"]) \
        if fits["log"]["slope"] else float("inf")
    report = {
        "window": list(window),
        "series": series,
        "n_points": len([r for r in records if window[0] <= r.n <= window[1]]),
        "fits": fits,
        "alpha": fits["power"]["slope"],
        "flags": {
            "log_r2_ok": fits["log"]["r_squared"] >= LOG_R2_MIN,
            "logsq_over_log_ratio": ratio,
            "log_dominates_logsq": ratio < LOGSQ_RATIO_MAX,
        },
    }
    if cantor is not None:
        target = predicted_alpha(CantorSpec(cantor["q"], cantor["a"]))
        report["predicted_alpha"] = target
        report["flags"]["alpha_error"] = abs(report["alpha"] - target)
        report["flags"]["alpha_ok"] = abs(report["alpha"] - target) <= ALPHA_TOL
    return report


def check_subadditivity(k1: TorusIntervalSet, k2: TorusIntervalSet, n: int) -> float:
    """Gap S_N(K1) + S_N(K2) - S_N(K1 u K2) for disjoint K1, K2; the
    subadditivity bound makes it nonnegative up to eigensolve noise."""
    return _subadditivity_gaps(k1, k2, [n])[0]


def _subadditivity_gaps(k1: TorusIntervalSet, k2: TorusIntervalSet, sizes) -> list[float]:
    """check_subadditivity at each N in ``sizes``, from one coefficient pass
    per set up to the largest N."""
    sizes = list(sizes)
    top = max(sizes)
    if top > DEFAULT_EIG_CAP:
        raise ValueError(f"N={top} above eigensolve cap {DEFAULT_EIG_CAP}")
    if k1.intersection(k2).measure > 1e-12:
        raise ValueError("subadditivity check needs disjoint sets")
    c1, c2, c12 = (fourier_coefficients(SymbolFunction.indicator(K), top - 1)
                   for K in (k1, k2, k1.union(k2)))

    def s_of(coeffs, n: int) -> float:
        return entropy_result(restriction_from_coefficients(coeffs, n)).entropy

    return [s_of(c1, n) + s_of(c2, n) - s_of(c12, n) for n in sizes]


def check_monotonicity(records) -> bool:
    """True when S_N never decreases (beyond GAP_TOL) along the records."""
    recs = sorted(records, key=lambda r: r.n)
    if any(r.entropy is None for r in recs):
        raise ValueError("monotonicity check needs records with S_N (mode both)")
    return all(b.entropy >= a.entropy - GAP_TOL for a, b in zip(recs, recs[1:]))


@dataclass(frozen=True)
class EnvelopeReport:
    """Constants witnessing the log N lower and (log N)^2 upper envelope.

    c1 is the largest constant with S_N >= c1 log N on the window (positive
    iff the lower bound holds); c3 the smallest with S_N <= c3 (log N)^2;
    sandwich_c the smallest c with S_N <= 1 + c log N * P_N for N >= 2.
    """

    c1: float
    c3: float
    sandwich_c: float
    lower_bound_exists: bool
    proxy_below_entropy: bool
    window: tuple[int, int]


def bound_envelope(records) -> EnvelopeReport:
    recs = [r for r in sorted(records, key=lambda r: r.n) if r.n >= 2]
    if any(r.entropy is None for r in recs):
        raise ValueError("envelope check needs records with S_N (mode both)")
    if not recs:
        raise ValueError("no records with N >= 2")
    win = [r for r in recs if r.n >= ENVELOPE_NMIN]
    if not win:
        raise ValueError(f"no records with N >= {ENVELOPE_NMIN}")
    c1 = min(r.entropy / math.log(r.n) for r in win)
    c3 = max(r.entropy / math.log(r.n) ** 2 for r in win)
    sandwich = 0.0
    for r in recs:
        if r.proxy > 0.0:
            sandwich = max(sandwich, (r.entropy - 1.0) / (math.log(r.n) * r.proxy))
    proxy_ok = all(r.proxy <= r.entropy + GAP_TOL for r in recs)
    return EnvelopeReport(c1=c1, c3=c3, sandwich_c=sandwich,
                          lower_bound_exists=c1 > 0.0,
                          proxy_below_entropy=proxy_ok,
                          window=(win[0].n, win[-1].n))



# ---------------------------------------------------------------------------
# Seeded cross-checks. Each returns a JSON-ready dict with "passed", the
# measured values and "bounds", which maps each measured key to its gate.
# ---------------------------------------------------------------------------

def eta_bound_report(sizes) -> dict:
    """x(1-x) <= eta_tilde(x) on the grid, and for each N in ``sizes`` the
    smallest c with eta_tilde(x) <= eps - c log(eps) x(1-x), eps = 1/N."""
    xs = np.linspace(0.0, 1.0, ETA_GRID_POINTS)
    lower_ok = bool(np.all(xs * (1.0 - xs) <= eta_tilde(xs) + 1e-15))
    inner = xs[(xs > 0.0) & (xs < 1.0)]
    quad = inner * (1.0 - inner)
    eta_vals = eta_tilde(inner)
    smallest_c = {}
    for n in sizes:
        eps = 1.0 / n
        smallest_c[str(n)] = float(np.max((eta_vals - eps) / (-math.log(eps) * quad)))
    c_ok = all(c <= ETA_C_MAX for c in smallest_c.values())
    return {"passed": lower_ok and c_ok, "lower_bound_holds": lower_ok,
            "smallest_c": smallest_c, "c_at_most_2": c_ok,
            "bounds": {"smallest_c": ETA_C_MAX}}


def oracle_report(rng, n_sets: int, n_top: int) -> dict:
    """Toeplitz S_N against the Fock-space oracle for N = 1..n_top."""
    worst = 0.0
    for _ in range(n_sets):
        f = SymbolFunction.indicator(random_interval_set(rng))
        for n in range(1, n_top + 1):
            worst = max(worst, abs(block_entropy_oracle(f, n) - block_entropy(f, n)))
    return {"passed": worst <= ORACLE_TOL, "max_deviation": worst,
            "sets": n_sets, "n_top": n_top,
            "bounds": {"max_deviation": ORACLE_TOL}}


def route_report(rng, n_sets: int, sizes, series_sizes=None) -> dict:
    """Coefficient, Fejer and eigenvalue routes to P_N on random sets, and the
    coefficient route against the single-interval series at ``series_sizes``."""
    series_sizes = sizes if series_sizes is None else series_sizes
    worst_rel = 0.0
    for _ in range(n_sets):
        K = random_interval_set(rng)
        coeffs = fourier_coefficients(SymbolFunction.indicator(K), max(sizes) - 1)
        for n in sizes:
            direct = purity_proxy_direct(coeffs, n)
            kernel = purity_proxy_kernel(K, n)
            eig = entropy_result(restriction_from_coefficients(coeffs, n)).proxy
            scale = max(abs(direct), abs(kernel), abs(eig))
            worst_rel = max(worst_rel,
                            abs(direct - kernel) / scale,
                            abs(direct - eig) / scale,
                            abs(kernel - eig) / scale)
    series_worst = 0.0
    for length in (0.1, 0.25, 0.5):
        f = SymbolFunction.indicator(canonicalize([(0.0, length)]))
        coeffs = fourier_coefficients(f, max(series_sizes) - 1)
        for n in series_sizes:
            series = purity_proxy_single_interval_series(length, n)
            series_worst = max(series_worst, abs(purity_proxy_direct(coeffs, n) - series))
    return {"passed": worst_rel <= ROUTE_TOL and series_worst <= SERIES_TOL,
            "max_relative_route_gap": worst_rel,
            "max_series_deviation": series_worst,
            "bounds": {"max_relative_route_gap": ROUTE_TOL,
                       "max_series_deviation": SERIES_TOL}}


def subadditivity_report(rng, n_pairs: int, sizes) -> dict:
    """Smallest subadditivity gap over random disjoint pairs."""
    worst = math.inf
    for _ in range(n_pairs):
        k1, k2 = random_disjoint_pair(rng)
        worst = min(worst, *_subadditivity_gaps(k1, k2, sizes))
    return {"passed": worst >= -GAP_TOL, "min_gap": worst, "pairs": n_pairs,
            "bounds": {"min_gap": -GAP_TOL}}


def invariance_report(rng, n_sets: int, size: int) -> dict:
    """S_N and P_N of random sets against their complements and translates."""
    worst = 0.0
    for _ in range(n_sets):
        K = random_interval_set(rng)
        phi = float(rng.uniform(0.0, 1.0))
        base = entropy_result(build_restriction(SymbolFunction.indicator(K), size))
        for other_set in (K.complement(), K.translate(phi)):
            other = entropy_result(
                build_restriction(SymbolFunction.indicator(other_set), size))
            worst = max(worst, abs(base.entropy - other.entropy),
                        abs(base.proxy - other.proxy))
    return {"passed": worst <= INVARIANCE_TOL, "max_deviation": worst,
            "bounds": {"max_deviation": INVARIANCE_TOL}}
