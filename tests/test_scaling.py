import math
import time

import numpy as np
import pytest

from entropy_lab.scaling import (
    ScanRecord,
    bound_envelope,
    check_monotonicity,
    check_subadditivity,
    default_grid,
    fit_exponent,
    scan,
)
from entropy_lab.toeplitz import SymbolFunction
from entropy_lab.torus_sets import (
    CantorSpec,
    cantor_depth_policy,
    cantor_generate,
    canonicalize,
    full_torus,
    predicted_alpha,
    random_disjoint_pair,
)

HALF = canonicalize([(0.0, 0.5)])
S2_HALF = 0.9478932674675549


def _synthetic(values_by_n):
    return [ScanRecord(n=n, entropy=v, proxy=v, wall_time=0.0)
            for n, v in values_by_n.items()]


def test_default_grid():
    grid = default_grid(8, 2048)
    assert grid[0] == 8 and grid[-1] == 2048
    assert grid == sorted(set(grid))
    assert 16 in grid and 11 in grid
    with pytest.raises(ValueError):
        default_grid(0, 10)
    for bad in (0.9, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and exceed 1"):
            default_grid(4, 10, ratio=bad)
    assert default_grid(8, 2048, 1e308) == [8]      # 8 * 1e308 overflows to inf


def _grid_by_powers(n_min, n_max, ratio):
    """The distinct round(n_min * ratio^k) up to n_max, one power at a time."""
    grid, k = [], 0
    while (v := round(n_min * ratio ** k)) <= n_max:
        if not grid or v != grid[-1]:
            grid.append(v)
        k += 1
    return grid


@pytest.mark.parametrize("bounds", [(8, 2048), (8, 1448), (128, 16384)])
def test_default_grid_matches_the_powers_of_the_ratio(bounds):
    assert default_grid(*bounds) == _grid_by_powers(*bounds, math.sqrt(2.0))


def test_default_grid_steps_per_point_not_per_power():
    # A ratio of 1 + 1e-6 needs about 5.5e6 powers to get from 8 to 2048;
    # the grid is every integer in between.
    t0 = time.perf_counter()
    assert default_grid(8, 2048, 1.0 + 1e-6) == list(range(8, 2049))
    assert time.perf_counter() - t0 < 1.0


def test_scan_anchor_values():
    records = scan(HALF, [1, 2], mode="both")
    assert [r.n for r in records] == [1, 2]
    assert records[0].entropy == pytest.approx(math.log(2.0), abs=1e-12)
    assert records[1].entropy == pytest.approx(S2_HALF, abs=1e-9)
    assert records[1].proxy == pytest.approx(0.5 - 2 / math.pi ** 2, abs=1e-12)
    assert all(r.wall_time >= 0.0 for r in records)


def test_proxy_scan_wall_time_charges_the_shared_stage():
    # 511-interval truncation: the coefficients take nearly all of the scan
    spec = CantorSpec(1.0 / 3.0, 0.9)
    K = cantor_generate(CantorSpec(spec.ratio, spec.amplitude,
                                   cantor_depth_policy(spec, 16384)))
    assert K.interval_count == 511
    t0 = time.perf_counter()
    records = scan(K, default_grid(128, 16384), mode="proxy")
    elapsed = time.perf_counter() - t0
    charged = sum(r.wall_time for r in records)
    assert 0.5 * elapsed <= charged <= elapsed


def test_scan_proxy_only_full_torus():
    records = scan(full_torus(), [1, 4, 16], mode="proxy")
    assert all(r.entropy is None for r in records)
    assert all(abs(r.proxy) < 1e-12 for r in records)


def test_scan_proxy_below_entropy():
    for r in scan(HALF, [8, 16, 32], mode="both"):
        assert r.proxy <= r.entropy + 1e-12


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(HALF, [4, 4, 8])
    with pytest.raises(ValueError):
        scan(HALF, [8, 4])
    with pytest.raises(ValueError):
        scan(HALF, [4, 8], mode="both", eig_cap=6)
    with pytest.raises(ValueError):
        scan(HALF, [2], mode="everything")
    with pytest.raises(ValueError, match="got 8.7"):
        scan(HALF, [8.7, 16.2], mode="proxy")
    with pytest.raises(ValueError, match="got 'x'"):
        scan(HALF, [4, "x"], mode="proxy")
    records = scan(HALF, [8.0, np.int64(16)], mode="proxy")
    assert [r.n for r in records] == [8, 16]
    assert all(type(r.n) is int for r in records)


def test_scan_repeat_is_bit_identical():
    grid = default_grid(4, 64)
    first = scan(HALF, grid, mode="both")
    second = scan(HALF, grid, mode="both")
    for a, b in zip(first, second):
        assert a.n == b.n
        assert a.entropy == b.entropy        # bit-identical values
        assert a.proxy == b.proxy


def test_fit_exponent_power_fixture():
    grid = default_grid(16, 4096)
    recs = _synthetic({n: n ** 0.5 for n in grid})
    fit = fit_exponent(recs, "power")
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.residual_rms < 1e-12
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert all(s == pytest.approx(0.5, abs=1e-9) for s in fit.local_slopes)


def test_fit_exponent_log_fixture():
    grid = default_grid(16, 4096)
    recs = _synthetic({n: 3.0 * math.log(n) + 1.0 for n in grid})
    fit = fit_exponent(recs, "log")
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.intercept == pytest.approx(1.0, abs=1e-9)
    assert fit.residual_rms < 1e-12


def test_fit_exponent_logsq_fixture():
    grid = default_grid(16, 4096)
    recs = _synthetic({n: 0.25 * math.log(n) ** 2 + 2.0 for n in grid})
    fit = fit_exponent(recs, "logsq")
    assert fit.slope == pytest.approx(0.25, abs=1e-10)
    assert fit.intercept == pytest.approx(2.0, abs=1e-9)


def test_fit_exponent_window_handling():
    grid = default_grid(2, 512)
    recs = _synthetic({n: float(n) for n in grid})
    fit = fit_exponent(recs, "power")
    assert fit.window[0] >= 16                      # default discards N < 16
    narrow = fit_exponent(recs, "power", window=(32, 512))
    assert narrow.n_points < len(grid)
    with pytest.raises(ValueError):
        fit_exponent(recs, "power", window=(100, 90))
    with pytest.raises(ValueError):
        fit_exponent(recs[:3], "power", window=(2, 512))
    with pytest.raises(ValueError):
        fit_exponent(recs, "parabola")


def test_predicted_alpha():
    assert predicted_alpha(CantorSpec(0.25, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert predicted_alpha(CantorSpec(1 / 3, 0.9)) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-12)
    assert predicted_alpha(CantorSpec(0.499, 0.001)) == pytest.approx(1.0, abs=3e-3)


def test_subadditivity_examples():
    k1 = canonicalize([(0.0, 0.25)])
    k2 = canonicalize([(0.5, 0.75)])
    assert check_subadditivity(k1, k2, 8) >= -1e-9
    # empty partner: union equals the set itself, so the gap is exactly zero
    from entropy_lab.torus_sets import empty_set
    assert check_subadditivity(k1, empty_set(), 8) == 0.0
    with pytest.raises(ValueError):
        check_subadditivity(k1, canonicalize([(0.2, 0.3)]), 4)


def test_subadditivity_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(5):
        k1, k2 = random_disjoint_pair(rng)
        for n in (4, 16):
            assert check_subadditivity(k1, k2, n) >= -1e-9


def test_monotonicity():
    records = scan(HALF, list(range(1, 33)), mode="both")
    assert check_monotonicity(records)
    const = scan(SymbolFunction.constant(0.5), list(range(1, 9)), mode="both")
    values = [r.entropy for r in const]
    assert all(b > a for a, b in zip(values, values[1:]))
    flat = scan(full_torus(), list(range(1, 9)), mode="both")
    assert check_monotonicity(flat)
    assert all(abs(r.entropy) < 1e-12 for r in flat)


def test_bound_envelope_synthetic_log():
    grid = default_grid(8, 4096)
    recs = _synthetic({n: math.log(n) for n in grid})
    rep = bound_envelope(recs)
    assert rep.c1 == pytest.approx(1.0, abs=1e-12)
    assert rep.lower_bound_exists
    assert rep.c3 == pytest.approx(1.0 / math.log(8), abs=1e-12)
    assert rep.proxy_below_entropy


def test_bound_envelope_real_scan():
    records = scan(HALF, default_grid(8, 128), mode="both")
    rep = bound_envelope(records)
    assert rep.lower_bound_exists
    assert rep.c1 > 0.3
    assert math.isfinite(rep.c3)
    assert rep.sandwich_c <= 2.0
    assert rep.proxy_below_entropy


def test_cantor_depth_policy():
    spec = CantorSpec(0.25, 1.0)
    depth = cantor_depth_policy(spec, 2 ** 14)
    assert depth == 7
    scale = 1.0 / (2.0 * 2 ** 14)
    assert spec.hole_length(depth + 1) < scale <= spec.hole_length(depth)
    small = cantor_depth_policy(spec, 1)
    assert spec.hole_length(small + 1) < 0.5 <= spec.hole_length(small) or small == 0
    # slow hole decay needs much deeper truncation
    slow = cantor_depth_policy(CantorSpec(0.49, 0.02), 2 ** 14)
    assert slow > depth
    with pytest.raises(ValueError):
        cantor_depth_policy(CantorSpec(0.49, 0.0367), 2 ** 70)
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        cantor_depth_policy(spec, 0)


def _proxy_only(sizes):
    return [ScanRecord(n=n, entropy=None, proxy=1.0, wall_time=0.0) for n in sizes]


@pytest.mark.parametrize("call, message", [
    (lambda: scan(HALF, [0, 4], mode="proxy"), "block sizes must be >= 1"),
    (lambda: fit_exponent(_proxy_only([16, 32, 64, 128]), "log", series="entropy"),
     "entropy series requested but records are proxy-only"),
    (lambda: fit_exponent(_proxy_only([16, 32, 64, 128]), "log", series="purity"),
     "unknown series 'purity'"),
    (lambda: fit_exponent(_synthetic({16: 1.0, 32: 0.0, 64: 2.0, 128: 3.0}), "log"),
     "strictly positive"),
    (lambda: check_subadditivity(canonicalize([(0.0, 0.25)]),
                                 canonicalize([(0.5, 0.75)]), 4096),
     "N=4096 above eigensolve cap 2048"),
    (lambda: check_monotonicity(_proxy_only([4, 8])), "needs records with S_N"),
    (lambda: bound_envelope(_proxy_only([4, 8])), "needs records with S_N"),
    (lambda: bound_envelope(_synthetic({1: 0.5})), "no records with N >= 2"),
    (lambda: bound_envelope(_synthetic({2: 0.5, 4: 0.7})), "no records with N >= 8"),
], ids=["scan-size", "series-proxy-only", "series-unknown", "fit-nonpositive",
        "subadditivity-cap", "monotonicity-proxy-only", "envelope-proxy-only",
        "envelope-no-records", "envelope-below-window"])
def test_scaling_raises_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_exponent_route_equivalence_same_window():
    # entropy and proxy fits agree on a shared window for a Cantor truncation
    spec = CantorSpec(0.25, 1.0)
    depth = cantor_depth_policy(spec, 1024)
    K = cantor_generate(CantorSpec(0.25, 1.0, depth))
    records = scan(K, default_grid(32, 1024), mode="both", eig_cap=1024)
    window = (128, 1024)
    alpha_s = fit_exponent(records, "power", window=window, series="entropy").slope
    alpha_p = fit_exponent(records, "power", window=window, series="proxy").slope
    assert abs(alpha_s - alpha_p) <= 0.1
