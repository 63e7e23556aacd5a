import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from entropy_lab import cli, fejer, scaling, specio, toeplitz
from entropy_lab.torus_sets import canonicalize


def run_cli(*argv):
    """cli.main in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def test_module_entry_point_exit_codes():
    run = [sys.executable, "-m", "entropy_lab.cli"]
    res = subprocess.run([*run, "cantor", "--q", "0.25", "--a", "1", "--depth", "1"],
                         capture_output=True, text=True)
    assert res.returncode == 0 and json.loads(res.stdout)["type"] == "intervals"
    res = subprocess.run([*run, "scan", "--nmin", "abc"], capture_output=True, text=True)
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_csv(path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.CSV_COLUMNS)
        writer.writerows(rows)
    return str(path)


def test_cantor_subcommand_emits_truncation(tmp_path):
    out = tmp_path / "cantor.json"
    res = run_cli("cantor", "--q", "0.25", "--a", "1", "--depth", "1",
                  "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == 1
    assert payload["type"] == "intervals"
    assert payload["intervals"] == [[0.0, 0.375], [0.625, 1.0]]
    assert payload["metadata"]["predicted_alpha"] == pytest.approx(0.5)
    assert payload["metadata"]["depth"] == 1


def test_cantor_subcommand_rejects_bad_ratio():
    res = run_cli("cantor", "--q", "0.6", "--a", "1", "--depth", "1")
    assert res.returncode == 1
    assert "error" in res.stderr


def test_cantor_auto_depth(tmp_path):
    out = tmp_path / "auto.json"
    res = run_cli("cantor", "--q", "0.25", "--a", "1", "--nmax", "16384",
                  "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["metadata"]["depth"] == 7


def test_scan_csv_anchors(tmp_path):
    spec = write_spec(tmp_path / "half.json",
                      {"version": 1, "type": "intervals", "intervals": [[0, 0.5]]})
    out = tmp_path / "scan.csv"
    res = run_cli("scan", "--set", spec, "--nmin", "1", "--nmax", "2",
                  "--ratio", "2", "--out", str(out))
    assert res.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["N"] for r in rows] == ["1", "2"]
    assert float(rows[0]["S_N"]) == pytest.approx(math.log(2), abs=1e-12)
    assert float(rows[0]["P_N"]) == pytest.approx(0.25, abs=1e-12)
    assert float(rows[1]["S_N"]) == pytest.approx(0.9478932674675549, abs=1e-9)
    assert float(rows[1]["P_N"]) == pytest.approx(0.5 - 2 / math.pi ** 2, abs=1e-12)
    assert rows[0]["S_over_logN"] == ""          # log 1 = 0 has no quotient


def test_scan_proxy_mode_leaves_entropy_blank(tmp_path):
    spec = write_spec(tmp_path / "c.json",
                      {"version": 1, "type": "cantor", "q": 0.25, "a": 1.0,
                       "depth": "auto"})
    out = tmp_path / "proxy.csv"
    res = run_cli("scan", "--set", spec, "--mode", "proxy", "--nmin", "4",
                  "--nmax", "64", "--out", str(out))
    assert res.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert all(r["S_N"] == "" for r in rows)
    proxies = [float(r["P_N"]) for r in rows]
    assert all(b > a for a, b in zip(proxies, proxies[1:]))


def test_scan_full_torus_all_zero(tmp_path):
    spec = write_spec(tmp_path / "full.json",
                      {"version": 1, "type": "intervals", "intervals": [[0, 1]]})
    out = tmp_path / "full.csv"
    res = run_cli("scan", "--set", spec, "--nmin", "1", "--nmax", "8",
                  "--out", str(out))
    assert res.returncode == 0
    for row in csv.DictReader(out.open()):
        assert abs(float(row["S_N"])) < 1e-9
        assert abs(float(row["P_N"])) < 1e-9


def test_scan_bits_flag_renames_and_converts(tmp_path):
    spec = write_spec(tmp_path / "half.json",
                      {"version": 1, "type": "intervals", "intervals": [[0, 0.5]]})
    out = tmp_path / "bits.csv"
    res = run_cli("scan", "--set", spec, "--nmin", "1", "--nmax", "1",
                  "--bits", "--out", str(out))
    assert res.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert "S_N_bits" in rows[0]
    assert float(rows[0]["S_N_bits"]) == pytest.approx(1.0, abs=1e-12)


def test_round_trip_cantor_scan_bit_identical(tmp_path):
    # spec emitted by the cantor command, scanned from file, must match an
    # in-process scan on every value column
    cantor_file = tmp_path / "cantor.json"
    run_cli("cantor", "--q", "0.25", "--a", "1", "--depth", "4",
            "--out", str(cantor_file))
    out = tmp_path / "roundtrip.csv"
    res = run_cli("scan", "--set", str(cantor_file), "--nmin", "4",
                  "--nmax", "64", "--mode", "both", "--out", str(out))
    assert res.returncode == 0

    from entropy_lab.torus_sets import CantorSpec, cantor_generate
    K = cantor_generate(CantorSpec(0.25, 1.0, 4))
    records = scaling.scan(K, scaling.default_grid(4, 64), mode="both")
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert int(row["N"]) == rec.n
        assert row["S_N"] == f"{rec.entropy:.17g}"
        assert row["P_N"] == f"{rec.proxy:.17g}"


def test_scan_csv_carries_the_bracket(tmp_path):
    # [0.3, 0.55) over 8..362: only N = 362 takes the plunge path.
    spec = write_spec(tmp_path / "set.json",
                      {"version": 1, "type": "intervals", "intervals": [[0.3, 0.55]]})
    paths = {}
    for name, extra in (("nats", []), ("bits", ["--bits"]), ("proxy", ["--mode", "proxy"])):
        paths[name] = tmp_path / f"{name}.csv"
        assert run_cli("scan", "--set", spec, "--nmin", "8", "--nmax", "362",
                       "--out", str(paths[name]), *extra).returncode == 0
    nats = list(csv.DictReader(paths["nats"].open()))
    assert list(nats[0]) == list(cli.CSV_COLUMNS)
    assert all(r["S_N_bracket"] == "0" for r in nats[:-1])
    assert 0.0 < float(nats[-1]["S_N_bracket"]) <= toeplitz.CERTIFICATE_TOL
    bits = list(csv.DictReader(paths["bits"].open()))
    assert float(bits[-1]["S_N_bracket_bits"]) == pytest.approx(
        float(nats[-1]["S_N_bracket"]) / math.log(2), rel=1e-15)
    assert all(r["S_N_bracket"] == "" for r in csv.DictReader(paths["proxy"].open()))
    for name in ("nats", "bits"):
        back = cli.read_scan_csv(str(paths[name]))
        assert back[-1].bracket == pytest.approx(float(nats[-1]["S_N_bracket"]), rel=1e-15)
        assert back[0].bracket == 0.0
    assert cli.read_scan_csv(str(paths["proxy"]))[0].bracket is None


def test_read_scan_csv_without_a_bracket_column(tmp_path):
    path = tmp_path / "old.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "S_N", "P_N", "S_over_logN", "P_over_logN", "wall_ms"])
        writer.writerow([4, "2.0", "0.5", "", "", "0"])
    [record] = cli.read_scan_csv(str(path))
    assert (record.entropy, record.proxy, record.bracket) == (2.0, 0.5, None)


def test_scan_deterministic_run_to_run(tmp_path):
    spec = write_spec(tmp_path / "set.json",
                      {"version": 1, "type": "intervals",
                       "intervals": [[0.1, 0.35], [0.5, 0.8]]})
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        res = run_cli("scan", "--set", spec, "--nmin", "2", "--nmax", "32",
                      "--out", str(out))
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        outs.append([(r["N"], r["S_N"], r["P_N"], r["S_over_logN"],
                      r["P_over_logN"]) for r in rows])
    assert outs[0] == outs[1]


def _scan_exit(tmp_path, intervals, n_max):
    """Exit code and stderr of a both-mode scan of ``intervals`` over 8..n_max."""
    spec = write_spec(tmp_path / "set.json",
                      {"version": 1, "type": "intervals", "intervals": intervals})
    res = run_cli("scan", "--set", spec, "--nmin", "8", "--nmax", str(n_max),
                  "--mode", "both", "--out", str(tmp_path / "scan.csv"))
    return res.returncode, res.stderr


@pytest.mark.parametrize("intervals", [[[0.3, 0.55]],                 # half-order split
                                       [[0.0, 0.25], [0.5, 0.75]]])  # order-N real form
def test_scan_exits_2_when_eigensolve_fails(tmp_path, monkeypatch, intervals):
    def broken(mat):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    code, err = _scan_exit(tmp_path, intervals, 16)
    assert code == 2
    assert err.startswith("verification failure: eigensolve failed for N=8")
    assert err.count("\n") == 1


def _failing_from(order):
    """np.linalg.eigvalsh that raises LinAlgError on stacks of matrices of
    ``order`` or more."""
    eigvalsh = np.linalg.eigvalsh

    def failing(mat):
        if mat.shape[-1] >= order:
            raise np.linalg.LinAlgError("injected")
        return eigvalsh(mat)

    return failing


def test_scan_exits_2_when_a_half_order_block_fails(tmp_path, monkeypatch):
    # [0, 1/2) takes the half-order split, whose solves have order ceil(N/2):
    # on the grid 8, 11, .., 45, 64 only N = 64 reaches order 32.
    monkeypatch.setattr(np.linalg, "eigvalsh", _failing_from(32))
    code, err = _scan_exit(tmp_path, [[0.0, 0.5]], 64)
    assert code == 2
    assert err.startswith("verification failure: eigensolve failed for N=64")
    assert err.count("\n") == 1


def test_scan_exits_2_when_the_order_n_real_form_fails(tmp_path, monkeypatch):
    # An asymmetric union is solved at order N: on the same grid the failure
    # comes at N = 32 already.
    monkeypatch.setattr(np.linalg, "eigvalsh", _failing_from(32))
    code, err = _scan_exit(tmp_path, [[0.05, 0.3], [0.5, 0.62]], 64)
    assert code == 2
    assert err.startswith("verification failure: eigensolve failed for N=32")
    assert err.count("\n") == 1


@pytest.mark.parametrize("intervals", [[[0.3, 0.55]], [[0.05, 0.3], [0.5, 0.62]]])
def test_scan_exits_2_when_the_moment_gate_fails(tmp_path, monkeypatch, intervals):
    eigvalsh = np.linalg.eigvalsh

    def shifted(mat):
        w = eigvalsh(mat)
        w[0, -1] += 1e-6                            # the top of the stack's first slice
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    code, err = _scan_exit(tmp_path, intervals, 16)
    assert code == 2
    assert err.startswith("verification failure: trace moment 1 gap")
    assert "at N=8" in err and err.count("\n") == 1


# A single interval (half-order split) and a narrow asymmetric union (order-N
# real form), both of small measure so that at N = 8 the two lowest
# eigenvalues of every solve sit near 0.
@pytest.mark.parametrize("intervals", [[[0.3, 0.55]], [[0.05, 0.12], [0.5, 0.53]]])
def test_scan_exits_2_when_an_eigenvalue_leaves_the_unit_interval(tmp_path, monkeypatch,
                                                                 intervals):
    # A zero-sum change of the two lowest eigenvalues passes both trace
    # moments; only the range check of the spectrum sees it.
    eigvalsh = np.linalg.eigvalsh

    def below_zero(mat):
        w = eigvalsh(mat)
        shift = w[0, 0] + 1e-6                      # in the stack's first slice
        w[0, 0] -= shift
        w[0, 1] += shift
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", below_zero)
    code, err = _scan_exit(tmp_path, intervals, 16)
    assert code == 2
    assert err.startswith("verification failure: eigenvalue outside [0, 1] by 1e-06")
    assert "at N=8" in err and err.count("\n") == 1


def _quarter_plus(w):
    w[-1] = 0.25 + 1e-9
    return w


def _lowest_raised(w):
    w[0] += 1e-9
    return w


def _raise_linalg(w):
    raise np.linalg.LinAlgError("injected")


# [0.3, 0.55) over 8..362: only N = 362 has blocks (orders 181) on the
# plunge path, so every fault there names N=362.
@pytest.mark.parametrize("fault, message", [
    (_raise_linalg, "eigensolve failed for N=362: injected"),
    (_quarter_plus, "Ritz value 0.25 of H - H^2 above 1/4"),
    (_lowest_raised, "Ritz values sum "),
], ids=["ritz-linalg", "above-quarter", "sum-above-t"])
def test_scan_exits_2_when_the_plunge_path_fails(tmp_path, ritz_fault, fault, message):
    ritz_fault(fault)
    code, err = _scan_exit(tmp_path, [[0.3, 0.55]], 362)
    assert code == 2
    assert err.startswith(f"verification failure: {message}")
    assert "N=362" in err and err.count("\n") == 1


def test_scan_exits_2_when_the_plunge_qr_fails(tmp_path, monkeypatch):
    def broken(mat):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "qr", broken)
    code, err = _scan_exit(tmp_path, [[0.3, 0.55]], 362)
    assert code == 2
    assert err.startswith("verification failure: eigensolve failed for N=362: injected")
    assert err.count("\n") == 1


def test_scan_exits_2_when_a_plunge_block_leaves_its_trace(tmp_path, operator_coupling):
    # The even block's (0, 1) pair, about 0.23, lowered by 1e-9 in the
    # operator that applies it at N = 362 raises its t by about 9e-10 over
    # the t of the coefficients.
    operator_coupling(-1e-9, order=362)
    code, err = _scan_exit(tmp_path, [[0.3, 0.55]], 362)
    assert code == 2
    assert err.startswith("verification failure: Ritz values sum ")
    assert "exceeds the plunge trace" in err and "N=362" in err


def _raise_on_stack(w):
    raise np.linalg.LinAlgError("injected")


def _top_shifted(w):
    w[-1] += 1e-6
    return True


def _top_past_one(w):
    """The largest eigenvalue moved to 1 + 1e-6 and the next one down by as
    much, where both lie within 1e-9 of 1: the sum is unchanged and the sum
    of squares moves by about 2e-12, so only the range check sees it."""
    if not 1.0 - w[-2] < 1e-9:
        return False
    shift = 1.0 + 1e-6 - w[-1]
    w[-1] += shift
    w[-2] -= shift
    return True


def _one_stacked_set(fault):
    """np.linalg.eigvalsh that hands the eigenvalues of the slices of a
    stack of more than two blocks, which only several sets fill, to
    ``fault`` until it changes one, so that a single set of the stack is
    hit; other solves pass through."""
    eigvalsh = np.linalg.eigvalsh

    def stub(mat):
        w = eigvalsh(mat)
        if mat.ndim == 3 and len(mat) > 2:
            any(fault(row) for row in w)
        return w

    return stub


STACK_FAULTS = {
    "linalg": (_raise_on_stack, "eigensolve failed for N={n}: injected"),
    "shift": (_top_shifted, "trace moment 1 gap .* at N={n}"),
    "past-one": (_top_past_one, "eigenvalue outside \\[0, 1\\] by 1e-06.* at N={n}"),
}


@pytest.mark.parametrize("fault", STACK_FAULTS)
def test_check_subadditivity_fails_on_one_set_of_the_stack(monkeypatch, fault):
    # Both sets and their union lack a centre, so at N = 64 the three are
    # order-64 real forms, solved as one stack.
    corrupt, message = STACK_FAULTS[fault]
    k1 = canonicalize([(0.05, 0.3), (0.5, 0.62)])
    k2 = canonicalize([(0.7, 0.75), (0.8, 0.95)])
    monkeypatch.setattr(np.linalg, "eigvalsh", _one_stacked_set(corrupt))
    with pytest.raises(toeplitz.EigensolveError, match=message.format(n=64)):
        scaling.check_subadditivity(k1, k2, 64)


# verify --quick fills no stack of more than two blocks before its
# subadditivity suite. There the first such stack comes at N = 4, and the
# first with two eigenvalues within 1e-9 of 1 at N = 16.
@pytest.mark.parametrize("fault, n", [("linalg", 4), ("shift", 4), ("past-one", 16)])
def test_verify_exits_2_when_one_set_of_the_stack_fails(monkeypatch, capsys, fault, n):
    corrupt, message = STACK_FAULTS[fault]
    monkeypatch.setattr(np.linalg, "eigvalsh", _one_stacked_set(corrupt))
    assert cli.main(["verify", "--quick"]) == 2
    err = capsys.readouterr().err
    assert re.match(f"verification failure: {message.format(n=n)}", err)
    assert err.count("\n") == 1


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(True)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert cli.main(["scan"]) == 1
        assert cli.main(["fit", "--window"]) == 1
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().err.count("error:") == 2


def test_fit_recovers_synthetic_power_law(tmp_path):
    csv_path = tmp_path / "power.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.CSV_COLUMNS)
        for n in scaling.default_grid(16, 2048):
            s = 2.0 * n ** 0.75
            writer.writerow([n, f"{s:.17g}", f"{s:.17g}", "", "", "0"])
    out = tmp_path / "fit.json"
    res = run_cli("fit", "--csv", str(csv_path), "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["fits"]["power"]["slope"] == pytest.approx(0.75, abs=1e-10)
    assert report["fits"]["power"]["r_squared"] == pytest.approx(1.0, abs=1e-10)
    assert report["alpha"] == pytest.approx(0.75, abs=1e-10)


def test_fit_cantor_report_includes_prediction(tmp_path):
    spec = write_spec(tmp_path / "c.json",
                      {"version": 1, "type": "cantor", "q": 0.25, "a": 1.0,
                       "depth": "auto"})
    scan_out = tmp_path / "scan.csv"
    res = run_cli("scan", "--set", spec, "--mode", "proxy", "--nmin", "128",
                  "--nmax", "4096", "--out", str(scan_out))
    assert res.returncode == 0
    fit_out = tmp_path / "fit.json"
    res = run_cli("fit", "--csv", str(scan_out), "--set", spec,
                  "--series", "proxy", "--out", str(fit_out))
    assert res.returncode == 0
    report = json.loads(fit_out.read_text())
    assert report["predicted_alpha"] == pytest.approx(0.5)
    assert "alpha_ok" in report["flags"]


@pytest.mark.parametrize("q, a", [(0.25, 1.0), (1 / 3, 0.9)], ids=["quarter", "third"])
def test_fit_predicts_alpha_from_an_emitted_cantor_spec(tmp_path, q, a):
    # The cantor emitter writes an intervals spec that carries q and a in its
    # metadata; fit --set on it predicts alpha = log 2 / -log q. The same
    # spec with that metadata gone predicts nothing.
    spec, scan_out = tmp_path / "cantor.json", tmp_path / "scan.csv"
    assert cli.main(["cantor", "--q", str(q), "--a", str(a), "--nmax", "4096",
                     "--out", str(spec)]) == 0
    payload = json.loads(spec.read_text())
    assert payload["type"] == "intervals"
    assert cli.main(["scan", "--set", str(spec), "--mode", "proxy", "--nmin", "128",
                     "--nmax", "4096", "--out", str(scan_out)]) == 0
    del payload["metadata"]["q"], payload["metadata"]["a"]
    bare = write_spec(tmp_path / "bare.json", payload)
    reports = []
    for path in (str(spec), bare):
        fit_out = tmp_path / "fit.json"
        assert cli.main(["fit", "--csv", str(scan_out), "--set", path, "--series", "proxy",
                         "--out", str(fit_out)]) == 0
        reports.append(json.loads(fit_out.read_text()))
    cantor, plain = reports
    assert cantor["predicted_alpha"] == pytest.approx(math.log(2.0) / -math.log(q), abs=1e-15)
    assert "alpha_ok" in cantor["flags"]
    assert "predicted_alpha" not in plain and "alpha_ok" not in plain["flags"]
    assert plain["alpha"] == cantor["alpha"]


def test_fit_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    res = run_cli("fit", "--csv", str(bad))
    assert res.returncode == 1


def test_spec_validation_errors(tmp_path):
    unknown_field = write_spec(tmp_path / "u.json",
                               {"version": 1, "type": "intervals",
                                "intervals": [[0, 0.5]], "extra": True})
    assert run_cli("scan", "--set", unknown_field).returncode == 1
    bad_version = write_spec(tmp_path / "v.json",
                             {"version": 2, "type": "intervals",
                              "intervals": [[0, 0.5]]})
    assert run_cli("scan", "--set", bad_version).returncode == 1
    bad_type = write_spec(tmp_path / "t.json", {"version": 1, "type": "disc"})
    assert run_cli("scan", "--set", bad_type).returncode == 1
    assert run_cli("scan", "--set", str(tmp_path / "missing.json")).returncode == 1


def test_fermi_subcommand(tmp_path):
    import numpy as np
    th = np.linspace(0.0, 1.0, 201)[:-1]
    spec = write_spec(tmp_path / "fermi.json",
                      {"version": 1, "type": "fermi",
                       "samples": [[float(t), float(math.cos(2 * math.pi * t))]
                                   for t in th],
                       "filling": 0.5})
    out = tmp_path / "sea.json"
    res = run_cli("fermi", "--set", spec, "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    (a, b), = payload["intervals"]
    assert a == pytest.approx(0.25, abs=1e-9)
    assert b == pytest.approx(0.75, abs=1e-9)
    assert payload["metadata"]["filling"] == 0.5


def test_verify_default_passes(tmp_path):
    out = tmp_path / "verify.json"
    res = run_cli("verify", "--seed", "0", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert set(report["suites"]) == {
        "eta_pointwise_bound", "oracle_equivalence", "route_agreement",
        "subadditivity", "set_invariances", "solver_agreement",
    }
    assert all("PASS" in line for line in res.stdout.splitlines()[:6])
    for suite in report["suites"].values():
        assert suite["bounds"] and set(suite["bounds"]) <= set(suite)
    assert report["suites"]["route_agreement"]["bounds"] == {
        "max_relative_route_gap": 1e-6, "max_series_deviation": 1e-8}
    solver = report["suites"]["solver_agreement"]
    assert solver["bounds"] == {"max_excess": 5e-11}
    assert solver["plunge_blocks"] > 0 and solver["size"] == 1024


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    failing = {"seed": 0, "quick": False,
               "suites": {"oracle_equivalence": {"passed": False}},
               "all_passed": False}
    monkeypatch.setattr(cli, "run_verification", lambda **kw: failing)
    assert cli.main(["verify"]) == 2


def test_verify_exit_2_through_shared_check(monkeypatch, capsys):
    real = scaling.block_entropy_oracle
    monkeypatch.setattr(scaling, "block_entropy_oracle",
                        lambda f, n: real(f, n) + 1e-6)
    assert cli.main(["verify", "--quick"]) == 2
    assert "oracle_equivalence: FAIL" in capsys.readouterr().out.splitlines()


def test_verify_exit_2_on_quadrature_error(monkeypatch, capsys):
    real = fejer.fejer_kernel
    monkeypatch.setattr(fejer, "fejer_kernel",
                        lambda n, phi: real(n, phi) * (1.0 + 1e-6))
    assert cli.main(["verify", "--quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and "kernel mass" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_exit_2_on_a_failed_oracle_check(monkeypatch, capsys):
    # Only the oracle takes determinants; scaled ones break the Hermitian
    # check of its density matrix, a failed check, not bad input.
    real = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: real(a) * (1.0 + 0.01j))
    assert cli.main(["verify", "--quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verification failure: density matrix not Hermitian: deviation ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["cantor", "--q", "0.25", "--a", "1", "--depth", "auto"], 'depth "auto" needs a target N_max'),
    (["cantor", "--q", "0.25", "--a", "1", "--depth", "x"], "--depth must be an integer"),
    (["cantor", "--q", "0.49", "--a", "0.0367", "--nmax", str(2 ** 70)], "exceeds the cap 60"),
    (["fit", "--csv", "{good}", "--window", "1:x"], "bad --window '1:x'"),
    (["fit", "--csv", "{empty}"], "no data rows"),
    (["fit", "--csv", "{malformed}"], "malformed row"),
    (["fermi", "--set", "{half}"], "fermi subcommand needs a fermi spec"),
    (["fermi", "--set", "{plateau}"], "dispersion has a plateau"),
    (["scan", "--set", "{half}", "--ratio", "inf"], "grid ratio must be finite"),
    (["scan", "--set", "{half}", "--ratio", "nan"], "grid ratio must be finite"),
    (["scan", "--set", "{null_end}"], '"intervals" must hold numeric'),
    (["fermi", "--set", "{null_sample}"], '"samples" must hold numeric'),
    (["scan", "--set", "{bool_depth}", "--nmax", "8"], "depths must be integers, got True"),
    (["scan", "--set", "{bool_start}", "--nmax", "8"], '"intervals" must hold numeric'),
    (["scan", "--set", "{huge_end}", "--nmax", "8"], "integer too large for a float"),
    (["scan", "--set", "{bool_a}", "--nmax", "8"], 'cantor spec needs numeric "q" and "a"'),
    (["scan", "--set", "{string_q}", "--nmax", "8"], 'cantor spec needs numeric "q" and "a"'),
    (["fermi", "--set", "{string_sample}"], '"samples" must hold numeric'),
    (["fermi", "--set", "{bool_filling}"], 'fermi spec needs a numeric "filling"'),
    (["scan", "--set", "{full_then_nan}", "--mode", "proxy"], "non-finite interval endpoint"),
    (["scan", "--set", "{long_then_inf}", "--mode", "proxy"], "non-finite interval endpoint"),
    (["scan", "--set", "{full_then_empty}", "--mode", "proxy"], "zero-length interval"),
    (["scan", "--set", "{half}", "--nmin", "abc"], "argument --nmin: invalid int value"),
    (["scan", "--set", "{half}", "--mode", "entropy"], "argument --mode: invalid choice"),
    (["scan", "--mode", "proxy"], "the following arguments are required: --set"),
    (["scan", "--set", "{half}", "--bogus"], "unrecognized arguments: --bogus"),
    (["unknown"], "argument command: invalid choice"),
    ([], "the following arguments are required: command"),
    (["fit", "--csv", "{nan_proxy}"], "growth fits need finite values, got nan at N = 32"),
    (["fit", "--csv", "{inf_proxy}"], "growth fits need finite values, got inf at N = 64"),
    (["fit", "--csv", "{zero_n}", "--window", "0:4"], "block size must be >= 1, got 0"),
    (["fit", "--csv", "{repeated_n}"], "got N = 16 more than once"),
    (["fit", "--csv", "{blank}"], "empty CSV"),
    (["fit", "--csv", "{no_proxy_column}"], "need N and P_N columns"),
    (["fit", "--csv", "{good}", "--set", "{string_meta_q}"],
     'cantor metadata needs numeric "q" and "a"'),
    (["fit", "--csv", "{good}", "--set", "{null_meta_q}"],
     'cantor metadata needs numeric "q" and "a"'),
    (["fit", "--csv", "{good}", "--set", "{wide_meta_q}"], "ratio must lie in (0, 1/2)"),
    (["scan", "--set", "{not_json}"], "is not valid JSON"),
    (["scan", "--set", "{array_spec}"], "spec must be a JSON object"),
    (["scan", "--set", "{pairs_not_list}"], '"intervals" must be a list of [start, end] pairs'),
    (["scan", "--set", "{list_metadata}"], '"metadata" must be an object'),
    (["scan", "--set", "{bool_version}"], "unsupported spec version True"),
    (["verify", "--seed", "-1", "--quick"], "seed must be >= 0, got -1"),
    (["scan", "--set", "{half}", "--nmin", "64", "--nmax", "8"], "bad grid bounds [64, 8]"),
])
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, argv, message):
    files = {
        "half": write_spec(tmp_path / "half.json", {"version": 1, "type": "intervals",
                                                    "intervals": [[0, 0.5]]}),
        "good": write_csv(tmp_path / "good.csv", [[8, "1.0", "0.5", "", "", "0"]]),
        "empty": write_csv(tmp_path / "empty.csv", []),
        "malformed": write_csv(tmp_path / "bad.csv", [[8, "x", "0.5", "", "", "0"]]),
        "nan_proxy": write_csv(tmp_path / "nan.csv", [[n, "", p, "", "", "0"] for n, p in
                                                      [(16, "1"), (32, "nan"), (64, "2"), (128, "3")]]),
        "inf_proxy": write_csv(tmp_path / "inf.csv", [[n, "", p, "", "", "0"] for n, p in
                                                      [(16, "1"), (32, "2"), (64, "inf"), (128, "3")]]),
        "zero_n": write_csv(tmp_path / "zero_n.csv", [[n, "", p, "", "", "0"] for n, p in
                                                      [(0, "0.1"), (1, "0.25"), (2, "0.3"), (4, "0.4")]]),
        "repeated_n": write_csv(tmp_path / "repeated_n.csv", [[n, "", p, "", "", "0"] for n, p in
                                                              [(16, "1"), (16, "1.1"), (32, "2"),
                                                               (64, "3"), (128, "4")]]),
        "plateau": write_spec(tmp_path / "plateau.json", {
            "version": 1, "type": "fermi", "filling": 0.3,
            "samples": [[0.0, 0.0], [0.25, 0.0], [0.5, 1.0], [0.75, 0.0]]}),
        "null_end": write_spec(tmp_path / "null_end.json", {
            "version": 1, "type": "intervals", "intervals": [[0.1, None]]}),
        "null_sample": write_spec(tmp_path / "null_sample.json", {
            "version": 1, "type": "fermi", "filling": 0.5,
            "samples": [[0.0, 0.0], [0.5, None], [0.75, 1.0]]}),
        "bool_depth": write_spec(tmp_path / "bool_depth.json", {
            "version": 1, "type": "cantor", "q": 0.25, "a": 1.0, "depth": True}),
        "bool_start": write_spec(tmp_path / "bool_start.json", {
            "version": 1, "type": "intervals", "intervals": [[False, 0.5]]}),
        "huge_end": write_spec(tmp_path / "huge_end.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 10 ** 400]]}),
        "bool_a": write_spec(tmp_path / "bool_a.json", {
            "version": 1, "type": "cantor", "q": 0.25, "a": True, "depth": 3}),
        "string_q": write_spec(tmp_path / "string_q.json", {
            "version": 1, "type": "cantor", "q": "0.25", "a": 1.0, "depth": 3}),
        "string_sample": write_spec(tmp_path / "string_sample.json", {
            "version": 1, "type": "fermi", "filling": 0.5,
            "samples": [[0.0, 0.0], [0.5, "1"], [0.75, 0.5]]}),
        "bool_filling": write_spec(tmp_path / "bool_filling.json", {
            "version": 1, "type": "fermi", "filling": True,
            "samples": [[0.0, 0.0], [0.5, 1.0], [0.75, 0.5]]}),
        "full_then_nan": write_spec(tmp_path / "full_then_nan.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 1], [math.nan, 0.5]]}),
        "long_then_inf": write_spec(tmp_path / "long_then_inf.json", {
            "version": 1, "type": "intervals", "intervals": [[0.2, 1.4], [0.3, math.inf]]}),
        "full_then_empty": write_spec(tmp_path / "full_then_empty.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 1], [0.3, 0.3]]}),
        "blank": str(tmp_path / "blank.csv"),
        "no_proxy_column": str(tmp_path / "no_proxy_column.csv"),
        "string_meta_q": write_spec(tmp_path / "string_meta_q.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 0.5]],
            "metadata": {"q": "x", "a": 1}}),
        "null_meta_q": write_spec(tmp_path / "null_meta_q.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 0.5]],
            "metadata": {"q": None, "a": 1}}),
        "wide_meta_q": write_spec(tmp_path / "wide_meta_q.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 0.5]],
            "metadata": {"q": 0.7, "a": 1}}),
        "not_json": str(tmp_path / "not_json.json"),
        "array_spec": write_spec(tmp_path / "array_spec.json", [[0, 0.5]]),
        "pairs_not_list": write_spec(tmp_path / "pairs_not_list.json", {
            "version": 1, "type": "intervals", "intervals": 0.5}),
        "list_metadata": write_spec(tmp_path / "list_metadata.json", {
            "version": 1, "type": "intervals", "intervals": [[0, 0.5]],
            "metadata": ["q", 0.25]}),
        "bool_version": write_spec(tmp_path / "bool_version.json", {
            "version": True, "type": "intervals", "intervals": [[0, 0.5]]}),
    }
    (tmp_path / "blank.csv").write_text("")
    (tmp_path / "no_proxy_column.csv").write_text("N,S_N\n8,1.0\n")
    (tmp_path / "not_json.json").write_text('{"version": 1,')
    code = cli.main([a.format(**files) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_scan_ratio_past_the_floats_gives_one_row(tmp_path):
    spec = write_spec(tmp_path / "half.json",
                      {"version": 1, "type": "intervals", "intervals": [[0, 0.5]]})
    res = run_cli("scan", "--set", spec, "--ratio", "1e308")
    assert res.returncode == 0 and res.stderr == ""
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert [row["N"] for row in rows] == ["8"]


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 1.41 TiB for an array"), "Unable to allocate"),
    (MemoryError(), "allocation failed"),
])
def test_scan_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys,
                                                  exc, message):
    spec = write_spec(tmp_path / "half.json",
                      {"version": 1, "type": "intervals", "intervals": [[0, 0.5]]})

    def no_memory(*a, **kw):
        raise exc

    monkeypatch.setattr(scaling, "fourier_coefficients", no_memory)
    code = cli.main(["scan", "--set", spec, "--mode", "proxy",
                     "--nmax", "100000000000"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: out of memory: ") and message in err
    assert err.count("\n") == 1


def test_scan_route_disagreement_maps_to_exit_2(monkeypatch, tmp_path, capsys):
    # a coefficient route off by 1e-3 trips the route check inside scaling.scan
    spec = write_spec(tmp_path / "half.json",
                      {"version": 1, "type": "intervals", "intervals": [[0, 0.5]]})
    real = scaling.proxy_scan
    monkeypatch.setattr(scaling, "proxy_scan",
                        lambda coeffs, grid: [p + 1e-3 for p in real(coeffs, grid)])
    assert cli.main(["scan", "--set", spec, "--nmin", "1", "--nmax", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verification failure: proxy routes disagree at N=1")
    assert err.count("\n") == 1


def test_scan_accepts_start_just_below_the_seam(tmp_path, capsys):
    # -1e-20 % 1.0 rounds to 1.0; the piece must still start at 0
    rows = []
    for start in (-1e-20, 0.0):
        spec = write_spec(tmp_path / "seam.json", {
            "version": 1, "type": "intervals", "intervals": [[start, 0.5]]})
        assert cli.main(["scan", "--set", spec, "--nmin", "1", "--nmax", "4"]) == 0
        rows.append([r[:-1] for r in csv.reader(capsys.readouterr().out.splitlines())])
    assert rows[0] == rows[1]


def test_spec_parse_accepts_missing_version():
    spec = specio.parse_spec({"type": "intervals", "intervals": [[0.0, 0.5]]})
    assert spec.kind == "intervals"
    assert spec.intervals.intervals == canonicalize([(0.0, 0.5)]).intervals


def test_spec_parse_names_the_bad_value_deep_in_a_long_list():
    # The value types are checked in one scan; the first bad value is still
    # the one named, as is an integer too large for a float.
    pairs = [[i / 1024, (i + 0.5) / 1024] for i in range(511)]
    good = specio.parse_spec({"type": "intervals", "intervals": pairs})
    assert len(good.intervals.intervals) == 511
    pairs[400][1] = True
    pairs[450][0] = "0.5"
    with pytest.raises(specio.SpecFormatError,
                       match=r'^"intervals" must hold numeric \[start, end\] pairs, got True$'):
        specio.parse_spec({"type": "intervals", "intervals": pairs})
    pairs[400][1] = 10 ** 400
    pairs[450][0] = 450 / 1024
    with pytest.raises(specio.SpecFormatError, match="integer too large for a float"):
        specio.parse_spec({"type": "intervals", "intervals": pairs})
    ints = specio.parse_spec({"type": "intervals", "intervals": [[0, 0.5]]})
    assert ints.intervals.intervals == ((0.0, 0.5),)
    assert all(type(x) is float for x in ints.intervals.intervals[0])


def test_auto_depth_spec_needs_a_target_size():
    auto = specio.parse_spec({"type": "cantor", "q": 0.25, "a": 1.0, "depth": "auto"})
    with pytest.raises(specio.SpecFormatError, match='depth "auto" needs a target N_max'):
        auto.resolve_set()
    fixed = specio.parse_spec({"type": "cantor", "q": 0.25, "a": 1.0, "depth": 7})
    assert auto.resolve_set(n_max=16384) == fixed.resolve_set()


def test_read_scan_csv_converts_bits(tmp_path):
    path = tmp_path / "bits.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "S_N_bits", "P_N", "S_over_logN_bits",
                         "P_over_logN", "wall_ms"])
        writer.writerow([4, "2.0", "0.5", "", "", "0"])
        writer.writerow([8, "3.0", "0.6", "", "", "0"])
    records = cli.read_scan_csv(str(path))
    assert records[0].entropy == pytest.approx(2.0 * math.log(2.0))
    assert records[1].proxy == 0.6


def test_cantor_spec_reads_back_bit_identical(tmp_path):
    from entropy_lab.torus_sets import CantorSpec, cantor_generate
    for q, a, depth in ((0.25, 1.0, 7), (1 / 3, 0.9, 8)):
        out = tmp_path / "cantor.json"
        assert run_cli("cantor", "--q", repr(q), "--a", repr(a), "--depth", str(depth),
                       "--out", str(out)).returncode == 0
        spec = specio.load_spec(out)
        assert spec.intervals.intervals == cantor_generate(CantorSpec(q, a, depth)).intervals
        assert spec.metadata == specio.cantor_spec_dict(q, a, depth)["metadata"]


def _same_json(a, b):
    """Equal JSON values, NaN included, by their canonical encodings."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_json_outputs_read_back_as_the_indented_writer_wrote(tmp_path, monkeypatch):
    # Each command's object, as json.dump(obj, fh, indent=2) wrote it
    # before the single writer, must read back the same from the new file.
    written = []
    writer = specio.dump_json
    monkeypatch.setattr(specio, "dump_json", lambda obj, path=None: (
        written.append(obj), writer(obj, path)))
    fermi = write_spec(tmp_path / "fermi.json", {
        "version": 1, "type": "fermi", "filling": 0.3,
        "samples": [[t / 64, math.cos(2 * math.pi * t / 64)] for t in range(64)]})
    cantor = write_spec(tmp_path / "c.json",
                        {"version": 1, "type": "cantor", "q": 0.25, "a": 1.0, "depth": 4})
    table = tmp_path / "scan.csv"
    assert run_cli("scan", "--set", cantor, "--mode", "proxy", "--nmin", "16",
                   "--nmax", "512", "--out", str(table)).returncode == 0
    commands = {
        "fit": ["fit", "--csv", str(table), "--set", cantor],
        "verify": ["verify", "--quick", "--seed", "3"],
        "cantor": ["cantor", "--q", "0.3", "--a", "0.8", "--depth", "5"],
        "fermi": ["fermi", "--set", fermi],
    }
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        res = run_cli(*argv, "--out", str(out))
        assert res.returncode == 0, res.stderr
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert _same_json(json.loads(text), json.loads(json.dumps(written[-1], indent=2)))
    assert len(written) == len(commands)
    # Without --out the same line goes to stdout.
    res = run_cli("cantor", "--q", "0.3", "--a", "0.8", "--depth", "5")
    assert res.stdout == (tmp_path / "cantor.json").read_text()


def test_scan_refuses_a_dense_solve_above_the_eig_cap(tmp_path, monkeypatch):
    # The depth-5 Cantor set's blocks of order 724 at N = 1448 fail the
    # plunge rule; sizes above the cap are solved first, so the refusal comes
    # before any eigensolve and before any block is formed.
    solved, formed = [], []
    eigvalsh, real_matrices = np.linalg.eigvalsh, toeplitz._real_matrices

    def eigvalsh_spy(mat):
        solved.append(mat.shape)
        return eigvalsh(mat)

    def forming_spy(group, *args):
        formed.extend(sum(blocks[0]) for _, blocks, _ in group)
        return real_matrices(group, *args)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    monkeypatch.setattr(toeplitz, "_real_matrices", forming_spy)
    spec = write_spec(tmp_path / "c.json",
                      {"version": 1, "type": "cantor", "q": 0.25, "a": 1.0, "depth": 5})
    res = run_cli("scan", "--set", spec, "--nmin", "8", "--nmax", "1448",
                  "--eig-cap", "1024", "--out", str(tmp_path / "scan.csv"))
    assert res.returncode == 1
    assert res.stderr == ("error: N=1448 needs a dense eigensolve of a block of order "
                          "724, above eig_cap = 1024\n")
    assert solved == [] and formed == []


def test_scan_solves_plunge_sizes_above_the_eig_cap(tmp_path):
    # Every block of [0.3, 0.55) from N = 362 on takes the plunge path, so a
    # cap below the grid's top refuses nothing and changes no value.
    spec = write_spec(tmp_path / "set.json",
                      {"version": 1, "type": "intervals", "intervals": [[0.3, 0.55]]})
    rows = {}
    for cap in ("362", "2048"):
        out = tmp_path / f"{cap}.csv"
        assert run_cli("scan", "--set", spec, "--nmin", "8", "--nmax", "2048",
                       "--eig-cap", cap, "--out", str(out)).returncode == 0
        rows[cap] = [{k: v for k, v in row.items() if k != "wall_ms"}
                     for row in csv.DictReader(out.open())]
    assert rows["362"] == rows["2048"]
