import math

import numpy as np
import pytest

from entropy_lab import fejer, torus_sets
from entropy_lab.fejer import (
    QuadratureError,
    fejer_kernel,
    kernel_zeros,
    panel_rule,
    purity_proxy_kernel,
)
from entropy_lab.scaling import ROUTE_TOL
from entropy_lab.toeplitz import (
    SymbolFunction,
    entropy_result,
    fourier_coefficients,
    purity_proxy_direct,
    restriction_from_coefficients,
)
from entropy_lab.torus_sets import (
    CantorSpec,
    canonicalize,
    cantor_depth_policy,
    cantor_generate,
    empty_set,
    full_torus,
    random_interval_set,
)

P2_HALF = 0.5 - 2.0 / math.pi ** 2


def test_kernel_anchors():
    for n in (1, 2, 7, 64):
        assert fejer_kernel(n, 0.0) == pytest.approx(n, abs=1e-12)
    assert fejer_kernel(2, 0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        fejer_kernel(0, 0.1)


def test_kernel_zeros_and_periodicity():
    for n in (4, 9):
        zs = kernel_zeros(n)
        vals = fejer_kernel(n, zs[zs != 0.0])
        np.testing.assert_allclose(vals, 0.0, atol=1e-20)
    phis = np.linspace(-0.5, 0.5, 101)
    np.testing.assert_allclose(fejer_kernel(5, phis), fejer_kernel(5, phis + 3.0),
                               atol=1e-12)


def test_kernel_normalization():
    for n in (1, 2, 8, 64):
        phi, w = panel_rule(np.sort(np.concatenate([kernel_zeros(n), [-0.5, 0.5]])))
        assert float(w @ fejer_kernel(n, phi)) == pytest.approx(1.0, abs=1e-13)


def test_kernel_series_switchover_is_smooth():
    for n in (3, 50):
        below = fejer_kernel(n, 0.9e-8)
        above = fejer_kernel(n, 1.1e-8)
        assert below == pytest.approx(above, rel=1e-9)


def test_kernel_lower_bound_inside_central_lobe():
    for n in (4, 16, 64):
        phis = np.linspace(-0.5 / n, 0.5 / n, 201)
        assert np.all(fejer_kernel(n, phis) >= n / math.pi ** 2 - 1e-12)


def test_kernel_two_branch_majorant():
    for n in (4, 16, 64):
        phis = np.linspace(-0.5, 0.5, 2001)
        vals = fejer_kernel(n, phis)
        assert np.all(vals <= n + 1e-12)
        outside = np.abs(phis) > 1e-6
        bound = math.pi ** 2 / (2.0 * n) / phis[outside] ** 2
        assert np.all(vals[outside] <= bound + 1e-9)


def test_panel_rule_polynomial_exact():
    # 16 Gauss-Legendre points are exact up to degree 31 on every panel
    poly = np.polynomial.Polynomial(np.random.default_rng(5).uniform(-1.0, 1.0, 32))
    edges = np.array([-0.5, -0.31, -0.3, 0.0, 0.07, 0.4, 0.5])
    phi, w = panel_rule(edges)
    exact = poly.integ()(0.5) - poly.integ()(-0.5)
    assert float(w @ poly(phi)) == pytest.approx(exact, abs=1e-13)
    assert len(phi) == len(w) == 16 * (len(edges) - 1)
    phi, w = panel_rule([0.0, 0.25, 0.25 + 1e-16, 1.0])    # sliver panel dropped
    assert len(phi) == 32 and float(np.sum(w)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        panel_rule([0.0])


def test_kernel_mass_check_raises_quadrature_error(monkeypatch):
    real = fejer.fejer_kernel
    monkeypatch.setattr(fejer, "fejer_kernel",
                        lambda n, phi: real(n, phi) * (1.0 + 1e-6))
    with pytest.raises(QuadratureError, match="kernel mass"):
        purity_proxy_kernel(canonicalize([(0.0, 0.5)]), 8)


def test_proxy_kernel_builds_the_knot_list_once():
    K = cantor_generate(CantorSpec(0.25, 1.0, 5))
    torus_sets._deficit_knots.cache_clear()
    purity_proxy_kernel(K, 64)
    info = torus_sets._deficit_knots.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    x, D = torus_sets._deficit_knots(K)
    assert not x.flags.writeable and not D.flags.writeable


def test_proxy_kernel_anchors():
    half = canonicalize([(0.0, 0.5)])
    assert purity_proxy_kernel(half, 1) == pytest.approx(0.25, abs=1e-9)
    assert purity_proxy_kernel(half, 2) == pytest.approx(P2_HALF, abs=1e-9)
    # the empty and full sets take the general path, kernel-mass check included
    for n in (1, 2, 5, 7, 64):
        assert purity_proxy_kernel(full_torus(), n) == 0.0
        assert purity_proxy_kernel(empty_set(), n) == 0.0
    assert purity_proxy_kernel(empty_set().complement(), 5) == 0.0
    with pytest.raises(ValueError, match="block size must be >= 1, got 0"):
        purity_proxy_kernel(half, 0)


def test_hand_built_seam_set_is_one_interval_on_every_route():
    # ((0, 0.2), (0.8, 1)) is one interval crossing the seam, however built
    K = torus_sets.TorusIntervalSet(((0.0, 0.2), (0.8, 1.0)))
    assert K == canonicalize([(0.8, 1.0), (0.0, 0.2)])
    assert K.wraps and K.interval_count == 1
    direct = purity_proxy_direct(fourier_coefficients(SymbolFunction.indicator(K), 63), 64)
    assert abs(purity_proxy_kernel(K, 64) - direct) <= ROUTE_TOL * direct


def test_complement_route_equals_direct_route():
    half = canonicalize([(0.0, 0.5)])
    assert purity_proxy_kernel(half.complement(), 2) == pytest.approx(
        purity_proxy_kernel(half, 2), abs=1e-9)
    K = canonicalize([(0.0, 0.2)])
    assert purity_proxy_kernel(K.complement(), 4) == pytest.approx(
        purity_proxy_kernel(K, 4), abs=1e-6)


def test_three_route_agreement_random_sets():
    rng = np.random.default_rng(31)
    for _ in range(4):
        K = random_interval_set(rng)
        coeffs = fourier_coefficients(SymbolFunction.indicator(K), 63)
        for n in (4, 16, 64):
            direct = purity_proxy_direct(coeffs, n)
            kern = purity_proxy_kernel(K, n)
            comp = purity_proxy_kernel(K.complement(), n)
            assert kern == pytest.approx(direct, rel=1e-6)
            assert comp == pytest.approx(direct, rel=1e-6)


def test_kernel_route_matches_direct_route_to_1e_11():
    rng = np.random.default_rng(0)
    for _ in range(60):
        K = random_interval_set(rng, max_intervals=8, min_length=0.01)
        coeffs = fourier_coefficients(SymbolFunction.indicator(K), 332)
        for n in (1, 3, 17, 100, 333):
            direct = purity_proxy_direct(coeffs, n)
            assert purity_proxy_kernel(K, n) == pytest.approx(direct, rel=1e-11)
            assert purity_proxy_kernel(K.complement(), n) == pytest.approx(
                direct, rel=1e-11)


def test_routes_agree_on_the_cantor_sets_the_proxy_fits_use():
    # the depth-7 q = 1/4 truncation (127 intervals) and the auto-depth
    # q = 1/3, a = 0.9 truncation for N = 16384 (511 intervals)
    deep = cantor_generate(CantorSpec(0.25, 1.0, 7))
    spec = CantorSpec(1.0 / 3.0, 0.9)
    fine = cantor_generate(CantorSpec(spec.ratio, spec.amplitude,
                                      cantor_depth_policy(spec, 16384)))
    assert (deep.interval_count, fine.interval_count) == (127, 511)
    for K, sizes in ((deep, (256, 4096)), (fine, (16384,))):
        coeffs = fourier_coefficients(SymbolFunction.indicator(K), max(sizes) - 1)
        for n in sizes:
            direct = purity_proxy_direct(coeffs, n)
            assert purity_proxy_kernel(K, n) == pytest.approx(direct, rel=ROUTE_TOL)
            if n == 256:
                eig = entropy_result(restriction_from_coefficients(coeffs, n)).proxy
                assert eig == pytest.approx(direct, rel=ROUTE_TOL)
