"""Command-line interface: scan | fit | verify | cantor | fermi.

Entropy values are reported in nats unless --bits is given, in which case
the affected CSV columns are renamed with a _bits suffix so files stay
self-describing. CSV numbers carry 17 significant digits and round-trip
exactly. Exit codes: 0 success (also for --help), 1 invalid input or usage
(one "error:" line on stderr, also when a request is too large to
allocate), 2 verification failure (a ``FailedCheckError`` from any layer).

``verify`` and ``fit`` hold no checks of their own: they call the
cross-checks and gates in ``scaling`` (the same functions the acceptance
tests call, at larger sizes); this module only chooses the sizes, reads and
writes files, and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys

import numpy as np

from . import scaling, specio, torus_sets

LOG2 = math.log(2.0)

CSV_COLUMNS = ("N", "S_N", "P_N", "S_over_logN", "P_over_logN", "S_N_bracket", "wall_ms")
_BITS_RENAME = {"S_N": "S_N_bits", "S_over_logN": "S_over_logN_bits",
                "S_N_bracket": "S_N_bracket_bits"}


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


@contextlib.contextmanager
def _output(path):
    """The file at ``path``, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


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
            "S_N_bracket": _fmt(None if r.bracket is None else r.bracket * conv),
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
    with _output(args.out) as out:
        write_scan_csv(records, out, bits=args.bits)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def read_scan_csv(path):
    """Rows back as ScanRecords (bits columns converted to nats); the bracket
    is None where the file has no S_N_bracket column or leaves it blank."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise specio.SpecFormatError(f"{path}: empty CSV")
        names = set(reader.fieldnames)
        if _BITS_RENAME["S_N"] in names:
            s_col, b_col, conv = _BITS_RENAME["S_N"], _BITS_RENAME["S_N_bracket"], LOG2
        elif "S_N" in names:
            s_col, b_col, conv = "S_N", "S_N_bracket", 1.0
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
                b_raw = line.get(b_col)
                bracket = float(b_raw) * conv if b_raw else None
            except (TypeError, ValueError) as exc:
                raise specio.SpecFormatError(f"{path}: malformed row {line}") from exc
            records.append(scaling.ScanRecord(n=n, entropy=entropy, proxy=proxy,
                                              wall_time=0.0, bracket=bracket))
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


def cmd_fit(args) -> int:
    records = read_scan_csv(args.csv)
    cantor = specio.cantor_parameters(specio.load_spec(args.set)) if args.set else None
    report = scaling.fit_report(records, window=_parse_window(args.window),
                               series=args.series, cantor=cantor)
    specio.dump_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verification(seed: int = 0, quick: bool = False) -> dict:
    """Run the shared checks of ``scaling`` at the quick or the full sizes;
    the acceptance criteria run the same checks at larger sizes. ``seed``
    is a count of at least 0."""
    [seed] = torus_sets._counts([seed], "seed", 0)
    rng = np.random.default_rng(seed)
    # name: (check, quick arguments, full arguments), after the generator
    table = {
        "oracle_equivalence": (scaling.oracle_report, (2, 4), (6, 6)),
        "route_agreement": (scaling.route_report, (2, (4, 16)), (5, (4, 16, 64))),
        "subadditivity": (scaling.subadditivity_report, (5, (4, 16)), (20, (4, 16, 64))),
        "set_invariances": (scaling.invariance_report, (2, 16), (4, 32)),
        "solver_agreement": (scaling.solver_report, (2, 1024), (4, 1024)),
    }
    suites = {"eta_pointwise_bound": scaling.eta_bound_report((2, 16, 256))}
    for name, (check, quick_args, full_args) in table.items():
        suites[name] = check(rng, *(quick_args if quick else full_args))
    return {"seed": seed, "quick": quick, "suites": suites,
            "all_passed": all(s["passed"] for s in suites.values())}


def cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, quick=args.quick)
    for name, suite in report["suites"].items():
        print(f"{name}: {'PASS' if suite['passed'] else 'FAIL'}")
    specio.dump_json(report, args.out)
    return 0 if report["all_passed"] else 2


# ---------------------------------------------------------------------------
# cantor / fermi spec emitters
# ---------------------------------------------------------------------------

def cmd_cantor(args) -> int:
    depth = args.depth
    if depth != "auto":
        try:
            depth = int(depth)
        except ValueError as exc:
            raise specio.SpecFormatError(
                f"--depth must be an integer or 'auto', got {depth!r}") from exc
    depth = specio.resolve_cantor_depth(args.q, args.a, depth, args.nmax)
    payload = specio.cantor_spec_dict(args.q, args.a, depth)
    specio.dump_json(payload, args.out)
    return 0


def cmd_fermi(args) -> int:
    spec = specio.load_spec(args.set)
    if spec.kind != "fermi":
        raise specio.SpecFormatError(f"fermi subcommand needs a fermi spec, "
                                     f"got type {spec.kind!r}")
    sea = spec.resolve_set()
    payload = specio.intervals_spec_dict(sea, metadata={
        "filling": spec.filling,
        "measure": sea.measure,
        "interval_count": sea.interval_count,
    })
    specio.dump_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, which ``main`` reports as one
    "error:" line with exit 1, instead of printing usage and exiting 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_scan.add_argument("--mode", choices=("both", "proxy"), default="both")
    p_scan.add_argument("--eig-cap", type=int, default=scaling.DEFAULT_EIG_CAP,
                        help="largest N whose entropy may need a dense eigensolve; "
                             "above it only sizes whose blocks all take the "
                             "certified plunge path are solved (default "
                             f"{scaling.DEFAULT_EIG_CAP})")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: building it takes
    about 1.5 ms, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except torus_sets.FailedCheckError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
