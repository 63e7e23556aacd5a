"""Command-line interface: scan | fit | verify | cantor | fermi.

Entropy values are reported in nats unless --bits is given, in which case
the affected CSV columns are renamed with a _bits suffix so files stay
self-describing. CSV numbers carry 17 significant digits and round-trip
exactly. Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import fejer, oracle, scaling, specio, toeplitz, torus_sets

LOG2 = math.log(2.0)

CSV_COLUMNS = ("N", "S_N", "P_N", "S_over_logN", "P_over_logN", "wall_ms")
_BITS_RENAME = {"S_N": "S_N_bits", "S_over_logN": "S_over_logN_bits"}


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="") if path else sys.stdout


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _records_to_rows(records, bits: bool):
    conv = 1.0 / LOG2 if bits else 1.0
    rows = []
    for r in records:
        logn = math.log(r.n) if r.n > 1 else None
        s = None if r.entropy is None else r.entropy * conv
        rows.append({
            "N": str(r.n),
            "S_N": _fmt(s),
            "P_N": _fmt(r.proxy),
            "S_over_logN": _fmt(None if (s is None or logn is None) else s / logn),
            "P_over_logN": _fmt(None if logn is None else r.proxy / logn),
            "wall_ms": _fmt(r.wall_time * 1e3),
        })
    return rows


def write_scan_csv(records, stream, bits: bool = False) -> None:
    header = [_BITS_RENAME.get(c, c) if bits else c for c in CSV_COLUMNS]
    writer = csv.writer(stream)
    writer.writerow(header)
    for row in _records_to_rows(records, bits):
        writer.writerow([row[c] for c in CSV_COLUMNS])


def cmd_scan(args) -> int:
    spec = specio.load_spec(args.set)
    grid = scaling.default_grid(args.nmin, args.nmax, args.ratio)
    K = spec.resolve_set(n_max=args.nmax)
    records = scaling.scan(K, grid, mode=args.mode, eig_cap=args.eig_cap)
    out = _open_out(args.out)
    try:
        write_scan_csv(records, out, bits=args.bits)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def read_scan_csv(path):
    """Rows back as ScanRecords (bits columns converted to nats)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise specio.SpecFormatError(f"{path}: empty CSV")
        names = set(reader.fieldnames)
        if "S_N_bits" in names:
            s_col, conv = "S_N_bits", LOG2
        elif "S_N" in names:
            s_col, conv = "S_N", 1.0
        else:
            raise specio.SpecFormatError(f"{path}: no S_N column")
        if "N" not in names or "P_N" not in names:
            raise specio.SpecFormatError(f"{path}: need N and P_N columns")
        records = []
        for line in reader:
            try:
                n = int(line["N"])
                s_raw = line.get(s_col, "")
                entropy = float(s_raw) * conv if s_raw else None
                proxy = float(line["P_N"])
            except (TypeError, ValueError) as exc:
                raise specio.SpecFormatError(f"{path}: malformed row {line}") from exc
            records.append(scaling.ScanRecord(n=n, entropy=entropy, proxy=proxy,
                                              wall_time=0.0))
    if not records:
        raise specio.SpecFormatError(f"{path}: no data rows")
    return sorted(records, key=lambda r: r.n)


def _parse_window(text):
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError as exc:
        raise specio.SpecFormatError(f"bad --window {text!r}, expected LO:HI") from exc


def fit_report(records, window=None, series="auto", cantor=None) -> dict:
    fits = {}
    for model in scaling.MODELS:
        f = scaling.fit_exponent(records, model, window=window, series=series)
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
            "log_r2_ok": fits["log"]["r_squared"] >= 0.995,
            "logsq_over_log_ratio": ratio,
            "log_dominates_logsq": ratio < 0.1,
        },
    }
    if cantor is not None:
        target = scaling.predicted_alpha(
            torus_sets.CantorSpec(cantor["q"], cantor["a"]))
        report["predicted_alpha"] = target
        report["flags"]["alpha_error"] = abs(report["alpha"] - target)
        report["flags"]["alpha_ok"] = abs(report["alpha"] - target) <= 0.1
    return report


def cmd_fit(args) -> int:
    records = read_scan_csv(args.csv)
    cantor = None
    if args.set:
        spec = specio.load_spec(args.set)
        if spec.kind == "cantor":
            cantor = {"q": spec.cantor_ratio, "a": spec.cantor_amplitude}
        elif spec.metadata and {"q", "a"} <= set(spec.metadata):
            cantor = {"q": spec.metadata["q"], "a": spec.metadata["a"]}
    report = fit_report(records, window=_parse_window(args.window),
                        series=args.series, cantor=cantor)
    out = _open_out(args.out)
    try:
        json.dump(report, out, indent=2)
        out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_eta_bound() -> dict:
    xs = np.linspace(0.0, 1.0, 100_000)
    lower_ok = bool(np.all(xs * (1.0 - xs) <= toeplitz.eta_tilde(xs) + 1e-15))
    smallest_c = {}
    inner = xs[(xs > 0.0) & (xs < 1.0)]
    quad = inner * (1.0 - inner)
    eta_vals = toeplitz.eta_tilde(inner)
    for n in (2, 16, 256):
        eps = 1.0 / n
        smallest_c[str(n)] = float(np.max((eta_vals - eps) / (-math.log(eps) * quad)))
    c_ok = all(c <= 2.0 for c in smallest_c.values())
    return {"passed": lower_ok and c_ok, "lower_bound_holds": lower_ok,
            "smallest_c": smallest_c, "c_at_most_2": c_ok}


def _suite_oracle(rng, n_sets: int, n_top: int) -> dict:
    worst = 0.0
    for _ in range(n_sets):
        K = torus_sets.random_interval_set(rng)
        f = toeplitz.SymbolFunction.indicator(K)
        for n in range(1, n_top + 1):
            s_toeplitz = toeplitz.block_entropy(f, n)
            s_oracle = oracle.block_entropy_oracle(f, n)
            worst = max(worst, abs(s_oracle - s_toeplitz))
    return {"passed": worst <= 1e-8, "max_deviation": worst,
            "sets": n_sets, "n_top": n_top}


def _suite_routes(rng, n_sets: int, sizes) -> dict:
    worst_rel = 0.0
    for _ in range(n_sets):
        K = torus_sets.random_interval_set(rng)
        f = toeplitz.SymbolFunction.indicator(K)
        coeffs = toeplitz.fourier_coefficients(f, max(sizes) - 1)
        for n in sizes:
            direct = toeplitz.purity_proxy_direct(coeffs, n)
            kernel = fejer.purity_proxy_kernel(K, n)
            eig = toeplitz.entropy_result(
                toeplitz.restriction_from_coefficients(coeffs, n)).proxy
            scale = max(abs(direct), abs(kernel), abs(eig))
            worst_rel = max(worst_rel,
                            abs(direct - kernel) / scale,
                            abs(direct - eig) / scale,
                            abs(kernel - eig) / scale)
    series_worst = 0.0
    for length in (0.1, 0.25, 0.5):
        f = toeplitz.SymbolFunction.indicator(
            torus_sets.canonicalize([(0.0, length)]))
        coeffs = toeplitz.fourier_coefficients(f, max(sizes) - 1)
        for n in sizes:
            direct = toeplitz.purity_proxy_direct(coeffs, n)
            series = toeplitz.purity_proxy_single_interval_series(length, n)
            series_worst = max(series_worst, abs(direct - series))
    return {"passed": worst_rel <= 1e-6 and series_worst <= 1e-8,
            "max_relative_route_gap": worst_rel,
            "max_series_deviation": series_worst}


def _suite_subadditivity(rng, n_pairs: int, sizes) -> dict:
    worst = math.inf
    for _ in range(n_pairs):
        k1, k2 = torus_sets.random_disjoint_pair(rng)
        for n in sizes:
            worst = min(worst, scaling.check_subadditivity(k1, k2, n))
    return {"passed": worst >= -1e-9, "min_gap": worst, "pairs": n_pairs}


def _suite_invariances(rng, n_sets: int, size: int) -> dict:
    worst = 0.0
    for _ in range(n_sets):
        K = torus_sets.random_interval_set(rng)
        phi = float(rng.uniform(0.0, 1.0))
        base = toeplitz.entropy_result(
            toeplitz.build_restriction(toeplitz.SymbolFunction.indicator(K), size))
        for other_set in (K.complement(), K.translate(phi)):
            other = toeplitz.entropy_result(
                toeplitz.build_restriction(
                    toeplitz.SymbolFunction.indicator(other_set), size))
            worst = max(worst, abs(base.entropy - other.entropy),
                        abs(base.proxy - other.proxy))
    return {"passed": worst <= 1e-9, "max_deviation": worst}


def run_verification(seed: int = 0, quick: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    if quick:
        suites = {
            "eta_pointwise_bound": _suite_eta_bound(),
            "oracle_equivalence": _suite_oracle(rng, n_sets=2, n_top=4),
            "route_agreement": _suite_routes(rng, n_sets=2, sizes=(4, 16)),
            "subadditivity": _suite_subadditivity(rng, n_pairs=5, sizes=(4, 16)),
            "set_invariances": _suite_invariances(rng, n_sets=2, size=16),
        }
    else:
        suites = {
            "eta_pointwise_bound": _suite_eta_bound(),
            "oracle_equivalence": _suite_oracle(rng, n_sets=6, n_top=6),
            "route_agreement": _suite_routes(rng, n_sets=5, sizes=(4, 16, 64)),
            "subadditivity": _suite_subadditivity(rng, n_pairs=20, sizes=(4, 16, 64)),
            "set_invariances": _suite_invariances(rng, n_sets=4, size=32),
        }
    return {"seed": seed, "quick": quick, "suites": suites,
            "all_passed": all(s["passed"] for s in suites.values())}


def cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, quick=args.quick)
    for name, suite in report["suites"].items():
        print(f"{name}: {'PASS' if suite['passed'] else 'FAIL'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if report["all_passed"] else 2


# ---------------------------------------------------------------------------
# cantor / fermi spec emitters
# ---------------------------------------------------------------------------

def cmd_cantor(args) -> int:
    if args.depth == "auto":
        if args.nmax is None:
            raise specio.SpecFormatError("--depth auto needs --nmax")
        depth = scaling.cantor_depth_policy(
            torus_sets.CantorSpec(args.q, args.a), args.nmax)
    else:
        try:
            depth = int(args.depth)
        except ValueError as exc:
            raise specio.SpecFormatError(
                f"--depth must be an integer or 'auto', got {args.depth!r}") from exc
    payload = specio.cantor_spec_dict(args.q, args.a, depth)
    if args.out:
        specio.dump_spec(payload, args.out)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_fermi(args) -> int:
    spec = specio.load_spec(args.set)
    if spec.kind != "fermi":
        raise specio.SpecFormatError(f"fermi subcommand needs a fermi spec, "
                                     f"got type {spec.kind!r}")
    sea = torus_sets.fermi_sea(spec.dispersion, spec.filling)
    payload = specio.intervals_spec_dict(sea, metadata={
        "filling": spec.filling,
        "measure": sea.measure,
        "interval_count": sea.interval_count,
    })
    if args.out:
        specio.dump_spec(payload, args.out)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-lab",
        description="Block entropies of quasi-free spin-chain states from "
                    "their spectral sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="sweep block sizes, emit CSV")
    p_scan.add_argument("--set", required=True, help="JSON set specification")
    p_scan.add_argument("--nmin", type=int, default=8)
    p_scan.add_argument("--nmax", type=int, default=2048)
    p_scan.add_argument("--ratio", type=float, default=scaling.DEFAULT_RATIO)
    p_scan.add_argument("--mode", choices=("entropy", "proxy", "both"),
                        default="both")
    p_scan.add_argument("--eig-cap", type=int, default=scaling.DEFAULT_EIG_CAP)
    p_scan.add_argument("--out", default=None, help="CSV path (stdout default)")
    p_scan.add_argument("--bits", action="store_true",
                        help="report entropies in bits instead of nats")
    p_scan.set_defaults(func=cmd_scan)

    p_fit = sub.add_parser("fit", help="fit growth models to a scan CSV")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--set", default=None,
                       help="optional spec file; cantor specs add the "
                            "predicted exponent to the report")
    p_fit.add_argument("--series", choices=("auto", "entropy", "proxy"),
                       default="auto")
    p_fit.add_argument("--window", default=None, help="fit window as LO:HI")
    p_fit.add_argument("--out", default=None, help="JSON path (stdout default)")
    p_fit.set_defaults(func=cmd_fit)

    p_verify = sub.add_parser("verify", help="run the internal check suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced sweep sizes")
    p_verify.add_argument("--out", default=None, help="JSON report path")
    p_verify.set_defaults(func=cmd_verify)

    p_cantor = sub.add_parser("cantor", help="emit a Cantor truncation spec")
    p_cantor.add_argument("--q", type=float, required=True)
    p_cantor.add_argument("--a", type=float, required=True)
    p_cantor.add_argument("--depth", default="auto")
    p_cantor.add_argument("--nmax", type=int, default=None,
                          help="target largest block size for depth=auto")
    p_cantor.add_argument("--out", default=None)
    p_cantor.set_defaults(func=cmd_cantor)

    p_fermi = sub.add_parser("fermi", help="turn a fermi spec into intervals")
    p_fermi.add_argument("--set", required=True)
    p_fermi.add_argument("--out", default=None)
    p_fermi.set_defaults(func=cmd_fermi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (specio.SpecFormatError, torus_sets.TorusSetError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (scaling.VerificationError, fejer.QuadratureError,
            toeplitz.EigensolveError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
