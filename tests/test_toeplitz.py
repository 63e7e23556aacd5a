import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from entropy_lab import oracle, toeplitz
from entropy_lab.fejer import fejer_kernel, purity_proxy_kernel
from entropy_lab.oracle import block_entropy_oracle
from entropy_lab.toeplitz import (
    UPSILON,
    EigensolveError,
    EntropyDomainError,
    SymbolCoefficients,
    SymbolFunction,
    block_entropy,
    entropy_result,
    entropy_results,
    eta,
    eta_tilde,
    fourier_coefficients,
    joint_fourier_coefficients,
    proxy_scan,
    purity_proxy_direct,
    purity_proxy_single_interval_series,
    restriction_from_coefficients,
    spectrum,
)
from entropy_lab.scaling import (
    SOLVER_TOL,
    ScanRecord,
    check_subadditivity,
    default_grid,
    fit_exponent,
    scan,
    solver_gap,
)
from entropy_lab.torus_sets import (
    CantorSpec,
    canonicalize,
    cantor_depth_policy,
    cantor_generate,
    empty_set,
    full_torus,
    random_disjoint_pair,
    random_interval_set,
)

from references import entropy_density

HALF = canonicalize([(0.0, 0.5)])
# Symmetric about 0.425: the spectrum is taken from the half-order split.
TRANSLATED = canonicalize([(0.3, 0.55)])
# q(1) = 0, so the first row fixes no centre: the order-N real form.
TWO_QUARTERS = canonicalize([(0.0, 0.25), (0.5, 0.75)])


def _three_intervals(seed):
    rng = np.random.default_rng(seed)
    while True:
        K = random_interval_set(rng)
        if K.interval_count == 3:
            return K


# Asymmetric: the order-N real form.
THREE = _three_intervals(3)

# Frozen from the closed-form eigenvalues 1/2 +- 1/pi of the 2x2 block:
# S_2 = 2 * eta_tilde(1/2 + 1/pi).
S2_HALF = 0.9478932674675549
P2_HALF = 0.5 - 2.0 / math.pi ** 2

# Golden dual-route value for |K| = 1/4, N = 16 (direct and series routes
# agree to 3.5e-11 at freeze time).
GOLDEN_QUARTER_16 = 0.4756820424561736


def _matrix(restriction):
    """The complex Q_N whose first row is the coefficient array
    ``restriction``, as the oracle builds it: the reference of the real
    solves."""
    return oracle._hermitian_toeplitz(restriction.values)


def test_eta_tilde_anchors():
    assert eta_tilde(0.0) == 0.0
    assert eta_tilde(1.0) == 0.0
    assert eta_tilde(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    xs = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(eta_tilde(xs), eta_tilde(1.0 - xs), atol=1e-14)


def test_eta_and_clipping():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0
    assert eta(1.0 + 1e-10) == 0.0           # inside clip window
    with pytest.raises(EntropyDomainError):
        eta(1.0 + 1e-6)
    with pytest.raises(EntropyDomainError):
        eta_tilde(-1e-6)


def test_quadratic_lower_bound_on_eta_tilde():
    xs = np.linspace(0.0, 1.0, 20001)
    assert np.all(xs * (1.0 - xs) <= eta_tilde(xs) + 1e-15)


def test_fourier_coefficient_half_interval():
    coeffs = fourier_coefficients(SymbolFunction.indicator(HALF), 2)
    assert coeffs.values[0] == pytest.approx(0.5, abs=1e-15)
    assert coeffs.values[1] == pytest.approx(-1j / math.pi, abs=1e-15)
    assert coeffs.values[2] == pytest.approx(0.0, abs=1e-15)


def _per_piece(f, n_max):
    """q(1)..q(n_max) as the sum over pieces [a, b) with value v of
    v (e^{-2 pi i k a} - e^{-2 pi i k b}) / (2 pi i k)."""
    w = 2j * np.pi * np.arange(1, n_max + 1)
    return sum(v * (np.exp(-w * a) - np.exp(-w * b)) / w for a, b, v in f.pieces())


# 128 jumps, one whole matrix-product chunk, and 256, two chunks.
DEPTH6 = cantor_generate(CantorSpec(0.25, 1.0, 6)).translate(0.0123)
DEPTH7 = cantor_generate(CantorSpec(0.25, 1.0, 7)).translate(0.0123)


@pytest.mark.parametrize("n_max", [1, 2, 3, 15, 16, 17, 255, 256])
@pytest.mark.parametrize("f", [
    SymbolFunction.indicator(THREE),
    SymbolFunction.indicator(DEPTH6),
    SymbolFunction.indicator(DEPTH7),
    SymbolFunction((0.0, 0.2, 0.55, 1.0), (0.5, 0.25, 0.0)),
], ids=["three", "depth6", "depth7", "mixed"])
def test_fourier_coefficients_match_per_piece_sum(f, n_max):
    coeffs = fourier_coefficients(f, n_max)
    assert coeffs.values[0] == f.mean
    np.testing.assert_allclose(coeffs.values[1:], _per_piece(f, n_max),
                               rtol=0, atol=1e-14)


def _jump_symbol(jumps, seed=0):
    """A symbol with exactly ``jumps`` nonzero jumps: ``jumps`` pieces of
    distinct values, so each breakpoint and the wrap at 0 is a jump."""
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.choice(np.arange(1, 4096), jumps - 1, replace=False)) / 4096 + 1e-4
    values = rng.permutation(np.linspace(0.0, 1.0, jumps))
    return SymbolFunction((0.0, *inner.tolist(), 1.0), tuple(values.tolist()))


# B = isqrt(n_max) + 1 and rows = n_max // B + 1 are the lengths of the two
# exponential tables, which go to two levels at 2048 entries per chunk. With
# 64 jumps in a chunk that is length 32: 960 keeps both on one level, 961
# takes B = 32 to two, 992 both. With 128 (a whole chunk) it is length 16:
# 224 keeps both on one level, 225 and 239 take B = 16 to two, 240 both;
# with 127 it is length 17, at 256, 271 and 272. 1224..1297 straddle
# B = 36 = 6^2 (1295: B = rows = 36) and B^2 = 1296.
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 960, 961, 992, 1023, 1024,
                                   1224, 1225, 1295, 1296, 1297,
                                   224, 225, 239, 240, 255, 256, 271, 272])
@pytest.mark.parametrize("jumps", [63, 64, 65, toeplitz._ENDPOINT_CHUNK - 1,
                                   toeplitz._ENDPOINT_CHUNK, toeplitz._ENDPOINT_CHUNK + 1])
def test_fourier_coefficients_match_per_piece_sum_across_table_switches(jumps, n_max):
    f = _jump_symbol(jumps)
    assert np.count_nonzero(np.subtract(f.values, f.values[-1:] + f.values[:-1])) == jumps
    coeffs = fourier_coefficients(f, n_max)
    assert coeffs.order == n_max + 1 and coeffs.values[0] == f.mean
    np.testing.assert_allclose(coeffs.values[1:], _per_piece(f, n_max),
                               rtol=0, atol=1e-14)


# The low factor is centred on 0 with width w = ceil(sqrt(count)): count = w^2
# fills the last row of the outer product, w^2 + 1 opens a row with one entry
# and takes the next w; odd and even w centre differently.
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 10, 16, 17, 25, 26, 31, 32, 33, 35,
                                   36, 37, 48, 49, 50, 64, 65, 121, 122, 128, 144, 145])
@pytest.mark.parametrize("step", [1, 37, 11586])
def test_two_level_exponential_table_matches_one_level(monkeypatch, count, step):
    head, tail = toeplitz._split(np.random.default_rng(count).random(5))
    monkeypatch.setattr(toeplitz, "_TWO_LEVEL_MIN", 2 ** 62)
    one = toeplitz._exp_table(head, tail, count, step)
    monkeypatch.setattr(toeplitz, "_TWO_LEVEL_MIN", 0)
    two = toeplitz._exp_table(head, tail, count, step)
    assert two.shape == one.shape == (count, 5) and two.flags.c_contiguous
    np.testing.assert_allclose(two, one, rtol=0, atol=4e-15)
    assert np.all(two[0] == 1.0)         # H[0] = 1 exactly, as on one level


@pytest.mark.parametrize("count, step", [(1, 1), (2, 9), (16, 1), (16, 16), (39, 1),
                                         (38, 39), (31, 1), (15, 16)])
def test_one_level_exponential_table_keeps_its_arithmetic(count, step):
    # A small table is exp(-2 pi i (frac(t step head) + t step tail)), with the
    # fraction taken as np.mod took it, bit for bit: the tables of single
    # intervals to N = 1448 and of the depth-5 Cantor set to order 255.
    for jumps in (2, 64):
        if jumps * count >= toeplitz._TWO_LEVEL_MIN:
            continue
        head, tail = toeplitz._split(np.random.default_rng(count + jumps).random(jumps))
        t = np.arange(0, count * step, step)[:, None]
        expect = np.exp(-2j * np.pi * (np.mod(t * head, 1.0) + t * tail))
        assert np.array_equal(toeplitz._exp_table(head, tail, count, step), expect)


class _ExpCounter:
    """numpy, with the elements passed to ``exp`` counted."""

    def __init__(self):
        self.elements = 0

    def exp(self, z):
        self.elements += np.size(z)
        return np.exp(z)

    def __getattr__(self, name):
        return getattr(np, name)


def test_coefficient_pass_takes_order_n_to_the_quarter_exponentials(monkeypatch):
    # The 511-piece truncation the Cantor proxy scan runs to N = 16384.
    K = cantor_generate(CantorSpec(1 / 3, 0.9, cantor_depth_policy(
        CantorSpec(1 / 3, 0.9), 16384))).translate(0.0123)
    f = SymbolFunction.indicator(K)
    jumps = np.count_nonzero(np.subtract(f.values, f.values[-1:] + f.values[:-1]))
    counter = _ExpCounter()
    monkeypatch.setattr(toeplitz, "np", counter)
    fourier_coefficients(f, 16383)
    # Two tables of about 1.5 n^{1/4} exponentials per jump, 36 in all at
    # n = 16383; uncentred low factors would take 46 and one-level tables
    # 2 n^{1/2} = 256 per jump.
    assert jumps >= 1000
    assert 0 < counter.elements < 3.5 * jumps * 16384 ** 0.25


def test_constant_symbol_has_no_higher_coefficients():
    coeffs = fourier_coefficients(SymbolFunction.constant(0.3), 17)
    assert coeffs.values[0] == 0.3
    assert np.all(coeffs.values[1:] == 0.0)


def _jump_mass(f: SymbolFunction) -> float:
    """Sum of |c_j| over the jumps of f, wrapping at 0."""
    v = np.array(f.values)
    return float(np.abs(v - np.roll(v, 1)).sum())


def _union_pairs():
    """Random disjoint pairs, and a touching pair whose union merges two
    pieces into one: the union's own pass has no jump at 0.2, while the sum
    has two that cancel."""
    rng = np.random.default_rng(29)
    return [random_disjoint_pair(rng) for _ in range(12)] + [
        (canonicalize([(0.1, 0.2)]), canonicalize([(0.2, 0.3)]))]


UNION_PAIRS = _union_pairs()


@pytest.mark.parametrize("k1, k2", UNION_PAIRS)
def test_union_coefficients_are_the_sum_of_the_parts(k1, k2):
    # The indicator of a disjoint union is the sum of the indicators, so
    # q1 + q2 is the union's q(k) term by term, up to the rounding of both
    # passes: a few ulps of the jump mass sum |c_j| of the pair.
    f1, f2 = SymbolFunction.indicator(k1), SymbolFunction.indicator(k2)
    c1, c2 = joint_fourier_coefficients([f1, f2], 255)
    union = fourier_coefficients(SymbolFunction.indicator(k1.union(k2)), 255)
    ulp = np.finfo(float).eps * (_jump_mass(f1) + _jump_mass(f2))
    assert np.max(np.abs(c1.values + c2.values - union.values)) <= 4 * ulp
    # each set's share of the joint pass is its own pass, to the same few ulps
    for f, c in ((f1, c1), (f2, c2)):
        assert np.max(np.abs(c.values - fourier_coefficients(f, 255).values)) \
            <= 4 * np.finfo(float).eps * _jump_mass(f)


@pytest.mark.parametrize("n_max", [0, 63, 3000])
def test_joint_pass_matches_one_pass_per_symbol(n_max):
    # 64 + 4 + 64 jumps: the first chunk of 128 holds jumps of all three
    # symbols, the third spans two chunks, and at n_max = 3000 the tables
    # have two levels.
    cantor = cantor_generate(CantorSpec(0.25, 1.0, 5))
    symbols = [SymbolFunction.indicator(cantor.translate(0.0123)),
               SymbolFunction((0.0, 0.2, 0.45, 0.7, 1.0), (0.3, 1.0, 0.0, 0.6)),
               SymbolFunction.indicator(cantor.complement().translate(0.31))]
    for f, joint in zip(symbols, joint_fourier_coefficients(symbols, n_max)):
        alone = fourier_coefficients(f, n_max).values
        assert joint.values[0] == alone[0]
        assert np.max(np.abs(joint.values - alone)) \
            <= 4 * np.finfo(float).eps * _jump_mass(f)
    # one symbol alone is the single pass, bit for bit
    assert np.array_equal(joint_fourier_coefficients(symbols[:1], n_max)[0].values,
                          fourier_coefficients(symbols[0], n_max).values)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the order check")


def test_fourier_coefficients_refuse_orders_past_phase_reduction(monkeypatch):
    f = SymbolFunction.indicator(HALF)
    # Refused before numpy allocates anything: an array this long would take 2 GiB.
    monkeypatch.setattr(toeplitz, "np", _NoNumpy())
    with pytest.raises(ValueError, match=r"below 2\^27"):
        fourier_coefficients(f, 2 ** 27)


def _reference_coefficients(f, ks):
    """q(k) at 40 digits from the per-piece closed form, with the float
    endpoints taken as exact."""
    with mpmath.workdps(40):
        out = []
        for k in ks:
            total = mpmath.mpc(0)
            for a, b, v in f.pieces():
                if v != 0.0:
                    total += v * (mpmath.expjpi(-2 * k * mpmath.mpf(a))
                                  - mpmath.expjpi(-2 * k * mpmath.mpf(b)))
            out.append(complex(total / (2j * mpmath.pi * k)))
    return np.array(out)


@pytest.mark.parametrize("K, n_max, gate", [
    (cantor_generate(CantorSpec(0.25, 1.0, 5)).translate(0.0123), 2047, 5e-16),
    (cantor_generate(CantorSpec(1 / 3, 0.9, cantor_depth_policy(
        CantorSpec(1 / 3, 0.9), 16384))), 16383, 2e-15),
    (cantor_generate(CantorSpec(0.25, 1.0, 5)).translate(0.0123), 2 ** 20 - 1, 5e-16),
], ids=["depth5-translated", "q1/3-auto-16384", "depth5-translated-2^20"])
def test_fourier_coefficients_match_40_digit_reference(K, n_max, gate):
    f = SymbolFunction.indicator(K)
    rng = np.random.default_rng(5)
    ks = np.concatenate([rng.integers(1, n_max - 7, 40), np.arange(n_max - 7, n_max + 1)])
    coeffs = fourier_coefficients(f, n_max)
    err = np.abs(coeffs.values[ks] - _reference_coefficients(f, ks.tolist()))
    assert np.max(err) <= gate


def test_coefficients_do_not_lean_with_np_pi():
    # |q(k)|^2 = sin^2(pi k L) / (pi k)^2 on [0.123, 0.623), k = 1..16383. The
    # doubles 0.623 and 0.123 are exactly 1/2 apart, so q(k) is 0 at even k
    # and the relative bias is taken over the 8192 odd k. Dividing by
    # 2 np.pi k would make every |q(k)|^2 high: a median of 8.45e-17, that is
    # 2 (pi - np.pi) / pi = 7.8e-17 plus rounding.
    f = SymbolFunction.indicator(canonicalize([(0.123, 0.623)]))
    q = fourier_coefficients(f, 16383).values
    with mpmath.workdps(30):
        length = mpmath.mpf(0.623) - mpmath.mpf(0.123)
        rel = [float((mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2) * (mpmath.pi * k) ** 2
                     / mpmath.sin(mpmath.pi * k * length) ** 2 - 1)
               for k, z in zip(range(1, 16384, 2), q[1::2].tolist())]
    assert abs(float(np.median(rel))) < 1e-17


def test_mixed_symbol_coefficients():
    f = SymbolFunction((0.0, 0.5, 1.0), (0.5, 0.0))
    coeffs = fourier_coefficients(f, 4)
    assert coeffs.values[0] == pytest.approx(0.25, abs=1e-15)
    # half the pure half-interval coefficients
    pure = fourier_coefficients(SymbolFunction.indicator(HALF), 4)
    for k in range(1, 5):
        assert coeffs.values[k] == pytest.approx(0.5 * pure.values[k], abs=1e-14)


def test_build_restriction_entries():
    # The complex Q_n, which only the oracle builds, from q(0..n - 1).
    f = SymbolFunction.indicator(HALF)
    one = oracle._validated_window(f, 1)
    assert one.shape == (1, 1)
    assert one[0, 0] == pytest.approx(0.5)
    expect = np.array([[0.5, -1j / math.pi], [1j / math.pi, 0.5]])
    np.testing.assert_allclose(oracle._validated_window(f, 2), expect, atol=1e-15)
    with pytest.raises(ValueError):
        restriction_from_coefficients(fourier_coefficients(f, 1), 0)


def test_restriction_validation():
    with pytest.raises(ValueError, match="must be a 1-D array"):
        SymbolCoefficients(np.array([[0.5, 0.1j]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        SymbolCoefficients(np.array([0.5 + 1e-3j, 0.1j]))
    assert SymbolCoefficients(np.array([0.5, 0.1j, 0.0])).order == 3


def test_restriction_keeps_a_read_only_copy_of_its_row():
    row = np.array([0.5, 0.1j, 0.0])
    restriction = SymbolCoefficients(row)
    assert row.flags.writeable and not restriction.values.flags.writeable
    row[1] = 0.2j
    assert restriction.values[1] == 0.1j
    # A restriction of lower order is a read-only view of that copy.
    prefix = restriction_from_coefficients(restriction, 2)
    assert prefix.order == 2 and not prefix.values.flags.writeable
    assert prefix.values.base is restriction.values


def test_constant_symbol_restriction_is_scaled_identity():
    f = SymbolFunction.constant(0.5)
    np.testing.assert_allclose(oracle._validated_window(f, 5), 0.5 * np.eye(5), atol=1e-15)


def test_restriction_hermitian_random():
    rng = np.random.default_rng(9)
    for _ in range(5):
        K = random_interval_set(rng)
        mat = oracle._validated_window(SymbolFunction.indicator(K), 24)
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)


def test_spectrum_examples():
    lam = spectrum(fourier_coefficients(SymbolFunction.constant(0.5), 2))
    np.testing.assert_allclose(lam, [0.5, 0.5, 0.5], atol=1e-14)
    lam2 = spectrum(fourier_coefficients(SymbolFunction.indicator(HALF), 1))
    np.testing.assert_allclose(lam2, [0.5 - 1 / math.pi, 0.5 + 1 / math.pi],
                               atol=1e-12)
    lam_full = spectrum(fourier_coefficients(SymbolFunction.indicator(full_torus()), 3))
    np.testing.assert_allclose(lam_full, np.ones(4), atol=1e-12)
    assert np.all(np.diff(lam2) >= 0)


def test_entropy_anchors():
    f = SymbolFunction.indicator(HALF)
    assert block_entropy(f, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert block_entropy(f, 2) == pytest.approx(S2_HALF, abs=1e-12)
    # the closed form the frozen constant came from
    x = 0.5 + 1.0 / math.pi
    assert 2 * eta_tilde(x) == pytest.approx(S2_HALF, abs=1e-15)


def test_entropy_constant_half_symbol():
    f = SymbolFunction.constant(0.5)
    for n in (1, 8, 64):
        assert block_entropy(f, n) == pytest.approx(n * math.log(2.0), abs=1e-9)


def test_entropy_result_invariants():
    rng = np.random.default_rng(4)
    for _ in range(6):
        K = random_interval_set(rng)
        restriction = fourier_coefficients(SymbolFunction.indicator(K), 19)
        res = entropy_result(restriction)
        assert res.proxy >= 0.0
        assert res.entropy >= res.proxy - 1e-12
        assert res.entropy <= 20 * math.log(2.0) + 1e-12
        # Exactly the public formulas on the checked spectrum.
        lam = spectrum(restriction)
        assert res.entropy == float(np.sum(eta_tilde(lam)))
        assert res.proxy == float(np.sum(lam * (1.0 - lam)))


def test_purity_proxy_direct_anchors():
    f = SymbolFunction.indicator(HALF)
    coeffs = fourier_coefficients(f, 1)
    assert purity_proxy_direct(coeffs, 1) == pytest.approx(0.25, abs=1e-15)
    assert purity_proxy_direct(coeffs, 2) == pytest.approx(P2_HALF, abs=1e-15)
    full = fourier_coefficients(SymbolFunction.indicator(full_torus()), 9)
    for n in (1, 4, 10):
        assert purity_proxy_direct(full, n) == pytest.approx(0.0, abs=1e-12)


def test_purity_proxy_matches_eigenvalue_route():
    rng = np.random.default_rng(8)
    for _ in range(4):
        K = random_interval_set(rng)
        f = SymbolFunction.indicator(K)
        coeffs = fourier_coefficients(f, 511)
        for n in (3, 17, 128, 512):
            direct = purity_proxy_direct(coeffs, n)
            eig = entropy_result(restriction_from_coefficients(coeffs, n)).proxy
            assert direct == pytest.approx(eig, rel=1e-8, abs=1e-10)


# The two sets the Cantor proxy benchmark scans to N = 16384, translated so
# that no coefficient is real, on its 15-point grid.
CANTOR_PROXY_GRID = default_grid(128, 16384)


def _cantor_proxy_coefficients(q, a):
    K = cantor_generate(CantorSpec(q, a, cantor_depth_policy(CantorSpec(q, a), 16384)))
    return fourier_coefficients(SymbolFunction.indicator(K.translate(0.0123)), 16383)


def _mp_proxies(values, grid):
    """N q(0) - sum_{|s| < N} (N - |s|) |q(s)|^2 at each N of ``grid``, in 40
    digits from the float coefficients ``values``."""
    want, top, out = set(grid), max(grid), {}
    with mpmath.workdps(40):
        q0 = mpmath.mpf(float(values[0].real))
        total = weighted = mpmath.mpf(0)             # over 1 <= s < n
        for n in range(1, top + 1):
            if n in want:
                out[n] = n * (q0 - q0 * q0) - 2 * (n * total - weighted)
            if n < top:
                square = mpmath.mpf(float(values[n].real)) ** 2 \
                    + mpmath.mpf(float(values[n].imag)) ** 2
                total += square
                weighted += n * square
    return [out[n] for n in grid]


@pytest.mark.parametrize("q, a", [(0.25, 1.0), (1 / 3, 0.9)], ids=["quarter", "third"])
def test_proxy_scan_matches_40_digit_sums(q, a):
    # About one rounding of the exact sum: the terms near N q(0) are far
    # larger than P_N, so plain float sums would be off by about 1e-13 here.
    coeffs = _cantor_proxy_coefficients(q, a)
    for got, ref in zip(proxy_scan(coeffs, CANTOR_PROXY_GRID),
                        _mp_proxies(coeffs.values, CANTOR_PROXY_GRID), strict=True):
        assert abs(mpmath.mpf(got) - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("n", [2, 3, 17, 128, 1001, 2048])
def test_proxy_scan_is_the_real_form_plunge_trace(n):
    # One implementation of P_N: the coefficient route gives, bit for bit,
    # the plunge trace t of the order-N real form of the same row.
    coeffs = fourier_coefficients(SymbolFunction.indicator(THREE), 2047)
    [(t, _)] = toeplitz._plunge_traces(coeffs.values[:n])
    assert proxy_scan(coeffs, [n])[0] == purity_proxy_direct(coeffs, n) == t


def test_proxy_scan_takes_one_pass_to_the_top_of_its_grid(monkeypatch):
    # The squares of q(0..N_max - 1) are taken once, real and imaginary
    # parts, whatever the grid; one pass per grid point would take 111 258.
    coeffs = _cantor_proxy_coefficients(0.25, 1.0)
    two_product, elements = toeplitz._two_product, []

    def counted(a, b):
        elements.append(np.size(a))
        return two_product(a, b)

    monkeypatch.setattr(toeplitz, "_two_product", counted)
    proxy_scan(coeffs, CANTOR_PROXY_GRID)
    assert len(CANTOR_PROXY_GRID) == 15
    assert sum(elements) == 2 * 16384


@pytest.mark.parametrize("q, a", [(0.25, 1.0), (1 / 3, 0.9)], ids=["quarter", "third"])
def test_the_grid_does_not_change_proxy_scan(q, a):
    # The float rests are summed in an order fixed by the line, so the other
    # sizes of the grid cannot move a P_N by a bit; and each size alone, with
    # a shorter line, rounds to the same double.
    coeffs = _cantor_proxy_coefficients(q, a)
    grid = CANTOR_PROXY_GRID
    want = proxy_scan(coeffs, grid)
    assert [proxy_scan(coeffs, [n])[0] for n in grid] == want
    shuffled = [grid[i] for i in np.random.default_rng(23).permutation(len(grid))]
    shuffled.insert(5, shuffled[9])
    by_n = dict(zip(grid, want))
    assert proxy_scan(coeffs, shuffled) == [by_n[n] for n in shuffled]
    [(t, _)] = toeplitz._plunge_traces(coeffs.values[:16384])
    assert want[-1] == t


def test_proxy_scan_holds_few_line_arrays():
    # The pass keeps its rows and three line-sized accumulators, never a
    # (5, N) term array with a |term| copy (14 arrays at its peak): at most
    # 12 float64 arrays of length 16384 (8 measured).
    coeffs = _cantor_proxy_coefficients(1 / 3, 0.9)
    tracemalloc.start()
    try:
        proxy_scan(coeffs, CANTOR_PROXY_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 16384 * 8


def test_integral_floats_are_block_sizes():
    f = SymbolFunction.indicator(THREE)
    k1, k2 = canonicalize([(0.0, 0.25)]), canonicalize([(0.5, 0.6)])
    assert check_subadditivity(k1, k2, 4.0) == check_subadditivity(k1, k2, 4)
    assert block_entropy(f, 6.0) == block_entropy(f, 6)
    assert block_entropy_oracle(HALF, np.float64(3.0)) == block_entropy_oracle(HALF, 3)
    assert purity_proxy_kernel(HALF, 8.0) == purity_proxy_kernel(HALF, 8)
    # a Cantor depth is a count like any other: 2.0 is depth 2
    assert CantorSpec(0.25, 1.0, 2.0).depth == 2
    assert cantor_generate(CantorSpec(0.25, 1.0, 2.0)) == cantor_generate(CantorSpec(0.25, 1.0, 2))


def test_proxy_scan_of_no_size_is_empty():
    assert proxy_scan(_QUARTER_COEFFS, []) == []
    assert proxy_scan(_QUARTER_COEFFS, iter([])) == []
    assert proxy_scan(_QUARTER_COEFFS, [4.0, 2]) == proxy_scan(_QUARTER_COEFFS, [4, 2])


def test_series_route_half_interval():
    assert purity_proxy_single_interval_series(0.5, 1) == pytest.approx(0.25,
                                                                        abs=1e-10)
    assert purity_proxy_single_interval_series(0.5, 2) == pytest.approx(P2_HALF,
                                                                        abs=1e-8)


def test_series_route_golden_quarter():
    f = SymbolFunction.indicator(canonicalize([(0.0, 0.25)]))
    direct = purity_proxy_direct(fourier_coefficients(f, 15), 16)
    assert direct == pytest.approx(GOLDEN_QUARTER_16, abs=1e-13)
    series = purity_proxy_single_interval_series(0.25, 16)
    assert series == pytest.approx(direct, abs=1e-8)


def test_series_route_various_lengths():
    for length in (0.1, 0.25, 0.37, 0.5):
        K = canonicalize([(0.0, length)])
        coeffs = fourier_coefficients(SymbolFunction.indicator(K), 63)
        for n in (1, 2, 16, 64):
            direct = purity_proxy_direct(coeffs, n)
            series = purity_proxy_single_interval_series(length, n)
            assert series == pytest.approx(direct, abs=1e-8)
    with pytest.raises(ValueError):
        purity_proxy_single_interval_series(0.7, 4)


@pytest.mark.parametrize("m", ["smallest", 10 ** 5, 10 ** 7, 10 ** 9])
def test_series_trigamma_matches_mpmath(m):
    # The series route's smallest cutoff is its own cutoff at N = 1, L = 1/2.
    if m == "smallest":
        m = toeplitz._series_cutoff(0.5, 1)
        assert m == 31831
    with mpmath.workdps(40):
        exact = mpmath.psi(1, m)
        assert abs((mpmath.mpf(toeplitz._trigamma(m)) - exact) / exact) <= 4e-16


def test_import_path_is_numpy_only():
    code = ("import sys, entropy_lab, entropy_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(toeplitz.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout.strip() == "[]"


def test_entropy_density():
    rng = np.random.default_rng(14)
    for _ in range(5):
        K = random_interval_set(rng)
        assert entropy_density(SymbolFunction.indicator(K)) == 0.0
    assert entropy_density(SymbolFunction.constant(0.5)) == pytest.approx(
        math.log(2.0), abs=1e-15)
    f = SymbolFunction((0.0, 0.5, 1.0), (0.5, 0.0))
    assert entropy_density(f) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_complement_and_translation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(4):
        K = random_interval_set(rng)
        phi = float(rng.uniform())
        base = entropy_result(fourier_coefficients(SymbolFunction.indicator(K), 23))
        for other in (K.complement(), K.translate(phi)):
            res = entropy_result(fourier_coefficients(SymbolFunction.indicator(other), 23))
            assert res.entropy == pytest.approx(base.entropy, abs=1e-9)
            assert res.proxy == pytest.approx(base.proxy, abs=1e-9)


def test_szego_density_limit_for_mixed_symbol():
    # S_N / N approaches the entropy density from above as N grows
    f = SymbolFunction((0.0, 0.5, 1.0), (0.5, 0.0))
    density = entropy_density(f)
    per_site = {n: block_entropy(f, n) / n for n in (16, 64, 256)}
    assert per_site[256] == pytest.approx(density, abs=0.02)
    assert abs(per_site[256] - density) < abs(per_site[16] - density)


def test_symbol_validation():
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        SymbolFunction((0.0, 1.0), (1.5,))
    with pytest.raises(ValueError, match="one value per piece"):
        SymbolFunction((0.0, 0.5, 1.0), (1.0,))
    with pytest.raises(ValueError):
        SymbolFunction((0.0, 0.5, 0.4, 1.0), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        SymbolFunction((0.1, 1.0), (1.0,))        # must start at 0
    with pytest.raises(ValueError, match=r"^breakpoints must be finite, got \(0\.0, nan, 1\.0\)$"):
        SymbolFunction((0.0, math.nan, 1.0), (1.0, 0.0))


_QUARTER_COEFFS = fourier_coefficients(SymbolFunction.indicator(canonicalize([(0.0, 0.25)])), 4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SymbolCoefficients(np.array([[0.5, 0.1j]])),
     ValueError, "must be a 1-D array with at least one entry"),
    (lambda: SymbolCoefficients(np.array([], dtype=complex)),
     ValueError, "must be a 1-D array with at least one entry"),
    (lambda: SymbolCoefficients(np.array([0.5, np.nan, 0.1j])),
     ValueError, "coefficients must be finite"),
    (lambda: SymbolCoefficients(np.array([0.5 + 1e-9j, 0.1j])),
     ValueError, r"q\(0\) must be real"),
    (lambda: SymbolCoefficients(np.array([0.5, 0.6j])),
     ValueError, r"\|q\(k\)\| exceeds q\(0\)"),
    (lambda: fourier_coefficients(SymbolFunction.indicator(HALF), -1),
     ValueError, "coefficient order must be >= 0, got -1"),
    (lambda: restriction_from_coefficients(_QUARTER_COEFFS, 0),
     ValueError, "block size must be >= 1, got 0"),
    (lambda: SymbolCoefficients(np.zeros(0)),
     ValueError, "^coefficients must be a 1-D array with at least one entry$"),
    (lambda: restriction_from_coefficients(_QUARTER_COEFFS, 6),
     ValueError, "need coefficients up to 5, have 4"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [4, 0, 2]),
     ValueError, "block size must be >= 1, got 0"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [2, 6]),
     ValueError, "need coefficients up to 5, have 4"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [2.5]),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [2, "4"]),
     ValueError, "^block sizes must be integers, got '4'$"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [True, 2]),
     ValueError, "^block sizes must be integers, got True$"),
    (lambda: restriction_from_coefficients(_QUARTER_COEFFS, 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: block_entropy(SymbolFunction.indicator(HALF), 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: block_entropy_oracle(HALF, 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: block_entropy_oracle(HALF, True),
     ValueError, "^block sizes must be integers, got True$"),
    (lambda: purity_proxy_kernel(HALF, 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: fejer_kernel(np.True_, 0.25),
     ValueError, r"^block sizes must be integers, got (np\.)?True_?$"),
    (lambda: check_subadditivity(canonicalize([(0.0, 0.25)]), canonicalize([(0.5, 0.6)]),
                                 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: scan(HALF, [True, 4], mode="proxy"),
     ValueError, "^block sizes must be integers, got True$"),
    (lambda: purity_proxy_single_interval_series(0.25, 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: purity_proxy_single_interval_series(0.25, 0),
     ValueError, "block size must be >= 1, got 0"),
    (lambda: SymbolFunction.of([(0.0, 0.5)]),
     TypeError, "expected a SymbolFunction or TorusIntervalSet, got a list"),
    (lambda: default_grid(2.5, 10),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: default_grid(True, 4),
     ValueError, "^block sizes must be integers, got True$"),
    (lambda: fourier_coefficients(SymbolFunction.indicator(HALF), 2.5),
     ValueError, "^coefficient orders must be integers, got 2.5$"),
    (lambda: fourier_coefficients(SymbolFunction.indicator(HALF), True),
     ValueError, "^coefficient orders must be integers, got True$"),
    (lambda: cantor_depth_policy(CantorSpec(0.25, 1.0), 2.5),
     ValueError, "^block sizes must be integers, got 2.5$"),
    (lambda: cantor_depth_policy(CantorSpec(0.25, 1.0), True),
     ValueError, "^block sizes must be integers, got True$"),
    (lambda: CantorSpec(0.25, 1.0, True),
     ValueError, "^cantor depths must be integers, got True$"),
    (lambda: fit_exponent([ScanRecord(n=n, entropy=None, proxy=1.0 + n, wall_time=0.0)
                           for n in (0, 16, 32, 64, 128)], "log", window=(16, 128)),
     ValueError, "^block size must be >= 1, got 0$"),
    (lambda: SymbolCoefficients(np.array([0.5, np.nan, 0.1j])),
     ValueError, "^coefficients must be finite$"),
    (lambda: SymbolCoefficients(np.array([0.5, np.inf, 0.1j])),
     ValueError, "^coefficients must be finite$"),
    (lambda: SymbolCoefficients(np.array([0.5, 0.6j])),
     ValueError, r"^\|q\(k\)\| exceeds q\(0\); symbol not in \[0, 1\]$"),
    (lambda: SymbolCoefficients(np.array([-0.25, 0.0])),
     ValueError, r"^q\(0\) = -0\.25 outside \[0, 1\]; symbol not in \[0, 1\]$"),
    (lambda: SymbolCoefficients(np.array([2.0, 0.5j])),
     ValueError, r"^q\(0\) = 2\.0 outside \[0, 1\]; symbol not in \[0, 1\]$"),
    (lambda: eta_tilde(np.nan),
     EntropyDomainError,
     r"^eta_tilde argument outside \[0, 1\] beyond tolerance, or NaN: \[nan\]$"),
    (lambda: eta([0.5, np.nan]),
     EntropyDomainError, r"^eta argument outside \[0, 1\] beyond tolerance, or NaN: \[nan\]$"),
    (lambda: eta_tilde([0.25, 1.0 + 1e-6, np.nan]),
     EntropyDomainError, r"^eta_tilde argument outside \[0, 1\] beyond tolerance, or NaN: "
                         r"\[1\.000001 +nan\]$"),
    (lambda: eta([0.5, -0.25]),
     EntropyDomainError, r"^eta argument outside \[0, 1\] beyond tolerance: \[-0\.25\]$"),
], ids=["coeff-shape", "coeff-empty", "coeff-nan", "coeff-q0-complex",
        "coeff-exceeds-q0", "negative-n-max", "restriction-size", "restriction-empty-row",
        "restriction-order", "proxy-scan-size", "proxy-scan-order",
        "proxy-scan-fraction", "proxy-scan-string", "proxy-scan-bool",
        "restriction-fraction", "block-entropy-fraction",
        "oracle-fraction", "oracle-bool", "kernel-fraction", "fejer-kernel-bool",
        "subadditivity-fraction", "scan-bool", "series-fraction", "series-size",
        "symbol-source", "default-grid-fraction", "default-grid-bool",
        "coefficients-fraction", "coefficients-bool", "depth-policy-fraction",
        "depth-policy-bool", "cantor-depth-bool", "fit-size-outside-window",
        "restriction-nan", "restriction-inf", "restriction-exceeds-q0",
        "restriction-negative-q0", "coeff-q0-above-one", "eta-tilde-nan", "eta-nan",
        "eta-tilde-past-one-and-nan", "eta-below-zero"])
def test_library_raises_name_the_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


# The solver itself, kept for reference spectra while it is stubbed.
_EIGVALSH = np.linalg.eigvalsh


def _spy_eigvalsh(monkeypatch, result=None):
    """Record the dtype and shape of every matrix np.linalg.eigvalsh is
    given; ``result`` may replace its return value."""
    seen = []

    def spy(mat):
        seen.append((mat.dtype, mat.shape))
        w = _EIGVALSH(mat)
        return w if result is None else result(w)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


def _solves(n, split):
    """What _spy_eigvalsh records for one spectrum of order n: one stack per
    block order, the even and odd half-order blocks of the split (one stack
    of two at even n) or one order-n real form."""
    orders = [k for k in (((n + 1) // 2, n // 2) if split else (n,)) if k]
    return [(np.float64, (orders.count(k), k, k)) for k in dict.fromkeys(orders)]


def _no_complex_solve(monkeypatch):
    """Make eigenvector solves fail if anything uses them. No complex Q_N
    exists outside the oracle, and ``_spy_eigvalsh`` records the dtype of
    every matrix solved."""
    def refuse(*args, **kwargs):
        raise AssertionError("complex or eigenvector solve on the solve path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


@pytest.mark.parametrize("K, split", [pytest.param(TRANSLATED, True, id="K0-split"),
                                      pytest.param(THREE, False, id="K1-full"),
                                      pytest.param(TWO_QUARTERS, False, id="K2-full")])
def test_spectrum_path_choice(monkeypatch, K, split):
    restriction = fourier_coefficients(SymbolFunction.indicator(K), 63)
    ref = _EIGVALSH(_matrix(restriction))
    seen = _spy_eigvalsh(monkeypatch)
    _no_complex_solve(monkeypatch)
    lam = spectrum(restriction)
    assert seen == _solves(64, split)
    assert lam.shape == (64,)
    assert np.max(np.abs(lam - ref)) <= 1e-12


@pytest.mark.parametrize("K", [TRANSLATED, THREE])
def test_spectrum_eigh_failure_raises(monkeypatch, K):
    def broken(mat):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    with pytest.raises(EigensolveError, match="eigensolve failed for N=32"):
        spectrum(fourier_coefficients(SymbolFunction.indicator(K), 31))


@pytest.mark.parametrize("K, split", [pytest.param(TRANSLATED, True, id="K0"),
                                      pytest.param(THREE, False, id="K1")])
def test_spectrum_residual_gate_catches_shifted_eigenvalues(monkeypatch, K, split):
    seen = _spy_eigvalsh(monkeypatch, result=lambda w: w + 1e-6)
    with pytest.raises(EigensolveError, match="trace moment 1 gap"):
        spectrum(fourier_coefficients(SymbolFunction.indicator(K), 31))
    assert seen == _solves(32, split)


def _raise_top(delta):
    """Move the largest eigenvalue of every solve up by ``delta``."""
    def corrupt(w):
        out = w.copy()
        out[-1] += delta
        return out
    return corrupt


def _drop_one(w):
    """The stack's eigenvalues flattened, less the lowest of its first
    slice: one fewer than its blocks have."""
    return w.reshape(-1)[1:]


def _swap_mass(w):
    """+1e-6 on the largest and -1e-6 on the smallest eigenvalue: the sum
    is unchanged, the sum of squares moves by about 2e-6 (w_max - w_min)."""
    out = w.copy()
    out[-1] += 1e-6
    out[0] -= 1e-6
    return out


def _not_a_number(w):
    out = w.copy()
    out[0] = np.nan
    return out


def _in_slice(k, fault):
    """Apply ``fault`` to the eigenvalues of slice ``k`` of a stacked solve
    only; solves of one matrix, the Ritz solves of the plunge path, pass
    through."""
    def corrupt(w):
        if w.ndim == 1:
            return w
        out = w.copy()
        out[k] = fault(w[k])
        return out
    return corrupt


def _below_zero(w):
    """The smallest eigenvalue moved to -1e-6 and the next one up by as much:
    both sit near 0, so the sum is unchanged and the sum of squares moves far
    less than the second-moment gate allows."""
    out = w.copy()
    shift = out[0] + 1e-6
    out[0] -= shift
    out[1] += shift
    return out


# Each fault is injected into the first slice of every stacked solve (the
# drop into the stack as a whole, nan-odd into the second slice, which only
# the split has, so that the NaN gap is not the first) and must be caught by
# the named check. A zero-sum perturbation escapes the first moment and shows
# in the second as 1e-6 (w_i - w_j) / ||H||, so it is caught while the two
# eigenvalues are more than 1e-2 ||H|| apart. A third moment would move by
# 3e-6 (w_i - w_j)(w_i + w_j), which shrinks with the same gap. Two
# eigenvalues near 0 are that close, so an eigenvalue pushed below 0 by a
# zero-sum fault is caught by the range check instead.
FAULTS = {
    "shift": (_in_slice(0, _raise_top(1e-6)), "trace moment 1 gap"),
    "drop": (_drop_one, "eigensolve returned (31 eigenvalues for 2 blocks|15 eigenvalues "
                        "for a block) of order 16"),
    "zero-sum": (_in_slice(0, _swap_mass), "trace moment 2 gap"),
    "nan": (_in_slice(0, _not_a_number), "trace moment 1 gap nan"),
    "nan-odd": (_in_slice(1, _not_a_number), "trace moment 1 gap nan"),
    "below-zero": (_in_slice(0, _below_zero), "eigenvalue outside \\[0, 1\\] by 1e-06"),
}


@pytest.mark.parametrize("fault, K", [
    pytest.param(fault, K, id=f"{fault}-{layout}")
    for fault in FAULTS for layout, K in (("split", TRANSLATED), ("full", THREE))
    if layout == "split" or fault != "nan-odd"])
def test_fault_matrix(monkeypatch, K, fault):
    corrupt, message = FAULTS[fault]
    # Order 32 splits into two blocks of order 16, one stack of two; the real
    # form of THREE has order 16 itself, a stack of one.
    n = 32 if K is TRANSLATED else 16
    _spy_eigvalsh(monkeypatch, result=corrupt)
    with pytest.raises(EigensolveError, match=f"{message}.* at N={n}"):
        spectrum(fourier_coefficients(SymbolFunction.indicator(K), n - 1))


def test_real_path_matches_complex_solve(monkeypatch):
    rng = np.random.default_rng(17)
    sets = [canonicalize([(0.0, length)]).translate(float(rng.uniform()))
            for length in (0.5, 0.25, 0.7)]
    sets += [cantor_generate(spec).translate(float(rng.uniform()))
             for spec in (CantorSpec(0.25, 1.0, 5), CantorSpec(1.0 / 3.0, 0.9, 4))]
    seen = _spy_eigvalsh(monkeypatch)
    for K in sets:
        restriction = fourier_coefficients(SymbolFunction.indicator(K), 255)
        lam = spectrum(restriction)
        ref = np.clip(_EIGVALSH(_matrix(restriction)), 0.0, 1.0)
        assert np.max(np.abs(lam - ref)) <= 1e-10
        assert abs(np.sum(eta_tilde(lam)) - np.sum(eta_tilde(ref))) <= 1e-10
    assert seen == _solves(256, True) * len(sets)


@pytest.mark.parametrize("length, n, gate", [(0.5, 256, 1e-6), (0.5, 1024, 3e-8),
                                             (0.25, 256, 6e-6), (0.25, 1024, 3.5e-7)])
def test_jin_korepin_single_interval(length, n, gate):
    # Gates were set at four times the residuals measured with the 7-digit
    # constant 0.4950179. With the exact UPSILON the residuals are -2.54e-7,
    # -1.59e-8 (L = 1/2) and -1.53e-6, -9.54e-8 (L = 1/4): the O(N^-2)
    # correction that test_jin_korepin_correction_falls_as_n_minus_2 checks.
    phi = float(np.random.default_rng(n).uniform())
    K = canonicalize([(phi, phi + length)])
    s = block_entropy(SymbolFunction.indicator(K), n)
    assert abs(s - (math.log(2 * n * math.sin(math.pi * length)) / 3 + UPSILON)) <= gate


def test_upsilon_is_the_jin_korepin_integral():
    # UPSILON = int_0^inf g, g(t) = -e^-t/(3t) - 1/(t sinh^2(t/2))
    # + cosh(t/2)/(2 sinh^3(t/2)). The terms of g cancel like 4/t^3 near 0,
    # where g tends to 1/3: integrate from EPS at 60 digits and add the head
    # EPS/3, whose error is O(EPS^2).
    eps = mpmath.mpf("1e-12")

    def g(t):
        h = t / 2
        return (-mpmath.exp(-t) / (3 * t) - 1 / (t * mpmath.sinh(h) ** 2)
                + mpmath.cosh(h) / (2 * mpmath.sinh(h) ** 3))

    with mpmath.workdps(60):
        value = mpmath.quad(g, [eps, 1, mpmath.inf]) + eps / 3
        assert abs(value - mpmath.mpf(UPSILON)) <= 1e-16
    assert float(value) == UPSILON


@pytest.mark.parametrize("length", [0.5, 0.25])
def test_jin_korepin_correction_falls_as_n_minus_2(length):
    # N^2 (S_N - (1/3) ln(2 N sin(pi L)) - UPSILON) measured -0.016667 and
    # -0.016659 (L = 1/2), -0.10001 and -0.09999 (L = 1/4) at N = 256 and
    # 1024. The correction oscillates with N mod 4, so both sizes are 0 mod 4.
    scaled = []
    for n in (256, 1024):
        s = block_entropy(SymbolFunction.indicator(canonicalize([(0.0, length)])), n)
        residual = s - (math.log(2 * n * math.sin(math.pi * length)) / 3 + UPSILON)
        scaled.append(n * n * residual)
    assert abs(scaled[1] - scaled[0]) <= 0.01 * abs(scaled[0])


@pytest.mark.parametrize("pieces, gate", [
    ([(0.05, 0.25), (0.45, 0.65)], 5e-6),
    ([(0.0, 0.1), (0.3, 0.4), (0.6, 0.7)], 5e-5),
])
def test_interval_union_log_coefficient(pieces, gate):
    # m intervals give S_N ~ (m/3) ln N (Widom; Gioev & Klich, PRL 96,
    # 100503, 2006). Gates are about four times the deviations measured at
    # freeze time: 1.2e-6 (m = 2) and 1.2e-5 (m = 3). Both sets are symmetric
    # about 0.35, so they take the half-order split.
    f = SymbolFunction.indicator(canonicalize(pieces))
    slope = (block_entropy(f, 1024) - block_entropy(f, 512)) / math.log(2.0)
    assert abs(slope - len(pieces) / 3) <= gate


@pytest.mark.parametrize("n, gate", [(1024, 1.9e-6), (2048, 5.4e-7)])
def test_fisher_hartwig_constant_of_an_asymmetric_union(n, gate):
    # S_N = (m/3) ln N + m UPSILON
    #       - (1/3) sum_{r<s} e_r e_s ln|2 sin pi (x_r - x_s)| + O(N^-2)
    # over the endpoints x_r of m intervals, e_r = +1 at a start and -1 at an
    # end (Keating & Mezzadri, Commun. Math. Phys. 252, 2004; Its, Mezzadri &
    # Mo, Commun. Math. Phys. 284, 2008). The residuals measured here are
    # -6.4e-7 (N = 1024) and -1.8e-7 (N = 2048); the gates are three times
    # those. The set has no centre, so it takes the order-N real form.
    K = canonicalize([(0.05, 0.3), (0.5, 0.62)])
    ends = [(x, sign) for start, end in K.intervals for x, sign in ((start, 1), (end, -1))]
    m = K.interval_count
    pairs = sum(e1 * e2 * math.log(abs(2.0 * math.sin(math.pi * (x1 - x2))))
                for i, (x1, e1) in enumerate(ends) for x2, e2 in ends[i + 1:])
    predicted = m / 3 * math.log(n) + m * UPSILON - pairs / 3
    assert abs(block_entropy(SymbolFunction.indicator(K), n) - predicted) <= gate


def test_real_path_charges_weyl_bound(monkeypatch):
    # Centred half-interval row plus Im r(2) sized to use 0.9 of the
    # real-path budget, so Weyl's bound is 4.5e-10.
    n = 32
    k = np.arange(n)
    row = np.where(k == 0, 0.5, np.sin(0.5 * np.pi * k) / (np.pi * np.maximum(k, 1)))
    row = row.astype(complex)
    weyl = 0.9e-9 * 0.5
    row[2] += 1j * weyl / (2 * n - 1)
    restriction = SymbolCoefficients(row)
    top = float(np.max(_EIGVALSH(_matrix(restriction))))
    # A first-moment gap that passes the gate alone but not with the bound.
    delta = 1e-8 * top - weyl / 2
    seen = _spy_eigvalsh(monkeypatch, result=_raise_top_of_slice(0, delta))
    with pytest.raises(EigensolveError, match="real-form charge 4.5e-10"):
        spectrum(restriction)
    assert seen == _solves(n, True)


@pytest.mark.parametrize("n", [32, 33])
def test_real_path_charges_block_rounding(monkeypatch, n):
    # The centred half-interval row is exactly real, so Weyl's bound is 0 and
    # the charge is the rounding charge 1.5 N eps max |r(k)| alone.
    k = np.arange(n)
    row = np.where(k == 0, 0.5, np.sin(0.5 * np.pi * k) / (np.pi * np.maximum(k, 1)))
    restriction = SymbolCoefficients(row.astype(complex))
    charge = 1.5 * n * np.finfo(float).eps * 0.5
    _spy_eigvalsh(monkeypatch, result=lambda w: w + 1e-6)
    with pytest.raises(EigensolveError, match=f"real-form charge {charge:.3g} included"):
        spectrum(restriction)


@pytest.mark.parametrize("n", [16, 17])
def test_real_form_charges_its_rounding(monkeypatch, n):
    # THREE takes the order-N real form, charged N eps max |q(k)| = N eps q(0)
    # and nothing else.
    restriction = fourier_coefficients(SymbolFunction.indicator(THREE), n - 1)
    charge = n * np.finfo(float).eps * restriction.values[0].real
    seen = _spy_eigvalsh(monkeypatch, result=lambda w: w + 1e-6)
    with pytest.raises(EigensolveError, match=f"real-form charge {charge:.3g} included"):
        spectrum(restriction)
    assert seen == _solves(n, False)


# Sets for the centrosymmetric split: a translated single interval, a union
# symmetric about 0.35 and the depth-5 q = 1/4 Cantor set.
SPLIT_SETS = {
    "translated": TRANSLATED,
    "union": canonicalize([(0.05, 0.25), (0.45, 0.65)]),
    "cantor5": cantor_generate(CantorSpec(0.25, 1.0, 5)).translate(0.0123),
}
# Symbols without a centre, solved as the order-N real form: an asymmetric
# union, a mixed symbol and a symbol with q(1) = 0.
FULL_SYMBOLS = {
    "asymmetric": SymbolFunction.indicator(canonicalize([(0.05, 0.3), (0.5, 0.62)])),
    "mixed": SymbolFunction((0.0, 0.2, 0.45, 0.7, 1.0), (0.3, 1.0, 0.0, 0.6)),
    "q1-zero": SymbolFunction.indicator(TWO_QUARTERS),
}
SPLIT_ORDERS = list(range(1, 71)) + [255, 256, 511, 1024]


def _assert_matches_full_solve(monkeypatch, f, split):
    coeffs = fourier_coefficients(f, max(SPLIT_ORDERS) - 1)
    seen = _spy_eigvalsh(monkeypatch)
    for n in SPLIT_ORDERS:
        restriction = restriction_from_coefficients(coeffs, n)
        seen.clear()
        lam = spectrum(restriction)
        # Demodulation makes any row of order 1 or 2 real, so those split.
        assert seen == _solves(n, split or n <= 2)
        ref = _EIGVALSH(_matrix(restriction))
        assert np.max(np.abs(lam - ref)) <= 1e-12, n


@pytest.mark.parametrize("K", SPLIT_SETS.values(), ids=SPLIT_SETS.keys())
def test_split_spectrum_matches_full_solve(monkeypatch, K):
    _assert_matches_full_solve(monkeypatch, SymbolFunction.indicator(K), True)


@pytest.mark.parametrize("f", FULL_SYMBOLS.values(), ids=FULL_SYMBOLS.keys())
def test_real_form_matches_full_solve(monkeypatch, f):
    _assert_matches_full_solve(monkeypatch, f, False)


def test_real_form_entries():
    # M[l, k] = Re q(|k - l|) + sgn(h) Im q(|h|), h = l + k - N + 1, equals
    # U* Q_N U with U = (I + i J) / sqrt(2), formed here in complex arithmetic.
    for n in (1, 2, 7, 64):
        restriction = fourier_coefficients(FULL_SYMBOLS["asymmetric"], n - 1)
        u = (np.eye(n) + 1j * np.eye(n)[::-1]) / math.sqrt(2.0)
        ref = u.conj().T @ _matrix(restriction) @ u
        [form] = toeplitz._real_matrices([(0, toeplitz._blocks(restriction.values), 0)], n,
                                         np.empty((1, n, n)))
        assert form.dtype == np.float64
        assert np.max(np.abs(form - ref)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 63, 64, 65, 1448])
def test_strided_views_match_fancy_index_references(n):
    # The matrices are built as strided views; gathering the same entries by
    # fancy indexing must give bit-identical matrices.
    def same_bits(mat, ref):
        return mat.shape == ref.shape and mat.tobytes() == ref.tobytes()

    rng = np.random.default_rng(n)
    i, j = np.indices((n, n))
    a, g = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
    line = np.concatenate([a[:0:-1], a])            # a(|t - n + 1|), t < 2n - 1
    # the whole order and the leading corners of both split orders
    for p in {n, n - n // 2, n // 2} - {0}:
        ip, jp = i[:p, :p], j[:p, :p]
        for view, ref in ((toeplitz._window(line, p, -1), a[np.abs(ip - jp)]),
                          (toeplitz._window(g, p, 1), g[ip + jp])):
            assert not view.flags.writeable
            assert same_bits(view, ref)

    r = rng.standard_normal(n)
    m = n // 2
    even = np.empty((n - m, n - m))
    bi, bj = np.indices((m, m))
    even[:m, :m] = r[np.abs(bi - bj)] + r[n - 1 - bi - bj]
    if n % 2:
        even[m, :] = even[:, m] = math.sqrt(2.0) * r[m - np.arange(m + 1)]
        even[m, m] = r[0]
    split = [even, r[np.abs(bi - bj)] - r[n - 1 - bi - bj]][:1 + (m > 0)]

    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row[0] = row[0].real
    h = i + j - n + 1
    form = row.real[np.abs(i - j)] + np.where(h >= 0, row.imag[np.abs(h)],
                                              -row.imag[np.abs(h)])
    # Each block is formed into its slot of a stack of its order, after a
    # block of the same order from another line, a random one, went into the
    # slot before it; at even N both blocks of the split share one order.
    # spectrum passes the real part of a complex row, a strided view.
    other = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for lines, refs in (((other + 0j).real, (r + 0j).real), split), ((other, row), [form]):
        blocks = [toeplitz._blocks(line) for line in lines]
        assert blocks[1][0] == [len(ref) for ref in refs]
        shared = len(refs) == 2 and len(refs[0]) == len(refs[1])
        for b, ref in enumerate(refs):
            stack = np.empty((2,) + ref.shape)
            group = [(0, blocks[0], 1 - b if shared else b), (1, blocks[1], b)]
            assert toeplitz._real_matrices(group, len(ref), stack) is stack
            assert same_bits(stack[1], ref)

    # The oracle's complex Q_N of a checked row of a symbol in [0, 1]:
    # |q(k)| <= q(0).
    diff = j - i
    lag = np.abs(diff)
    row = row / (2.0 * np.abs(row).max())
    row[0] = 0.5
    matrix = _matrix(SymbolCoefficients(row))
    assert not matrix.flags.writeable
    assert same_bits(matrix, np.where(diff >= 0, row[lag], np.conj(row[lag])))


def _odd_block(restriction):
    """r(|i - j|) - r(N - 1 - i - j) for i, j < N // 2, from the centred row."""
    n = restriction.order
    r = toeplitz._centred_rows(restriction.values[None])[0].real
    i, j = np.indices((n // 2, n // 2))
    return r[np.abs(i - j)] - r[n - 1 - i - j]


@pytest.mark.parametrize("n", [32, 33])
def test_residual_gate_catches_a_shift_of_the_odd_block_only(monkeypatch, n):
    restriction = fourier_coefficients(SymbolFunction.indicator(TRANSLATED), n - 1)
    odd = _odd_block(restriction)
    shifted = []

    def spy(mat):
        w = _EIGVALSH(mat)
        for i, block in enumerate(mat):
            if np.array_equal(block, odd):
                shifted.append(block.shape)
                w[i] += 1e-6
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    with pytest.raises(EigensolveError, match=f"trace moment 1 gap .* at N={n}"):
        spectrum(restriction)
    assert shifted == [(n // 2, n // 2)]


@pytest.mark.parametrize("n", [32, 33])
def test_failure_of_the_second_block_names_the_full_order(monkeypatch, n):
    # The solve that holds the odd block fails: the stack of both blocks at
    # even N, the second stack at odd N.
    restriction = fourier_coefficients(SymbolFunction.indicator(TRANSLATED), n - 1)
    odd = _odd_block(restriction)
    calls = []

    def second_fails(mat):
        calls.append(mat.shape)
        if any(np.array_equal(block, odd) for block in mat):
            raise np.linalg.LinAlgError("injected")
        return _EIGVALSH(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", second_fails)
    with pytest.raises(EigensolveError, match=f"eigensolve failed for N={n}: injected"):
        spectrum(restriction)
    assert calls == [shape for _, shape in _solves(n, True)]


# Symbols of every path side by side: split sets, real forms and a mixed
# symbol, so one call of entropy_results stacks blocks of several sets.
STACK_SYMBOLS = [SymbolFunction.indicator(K) for K in SPLIT_SETS.values()] + \
    list(FULL_SYMBOLS.values())


def _stack_restrictions(n):
    return [fourier_coefficients(f, n - 1) for f in STACK_SYMBOLS]


# A disjoint pair with no shared centre, as check_subadditivity solves it:
# both sets and their union from the sum of their coefficients.
PAIR = (canonicalize([(0.1, 0.3)]), canonicalize([(0.45, 0.5), (0.6, 0.8)]))


def _pair_restrictions(n):
    c1, c2 = joint_fourier_coefficients([SymbolFunction.indicator(K) for K in PAIR], n - 1)
    return [c1, c2, SymbolCoefficients(c1.values + c2.values)]


# From N = 362 on some restrictions certify and others stack their dense
# blocks in one call.
@pytest.mark.parametrize("n, build", [
    *(pytest.param(n, _stack_restrictions, id=str(n))
      for n in (1, 2, 5, 16, 17, 64, 127, 200, 362, 1024)),
    pytest.param(200, _pair_restrictions, id="subadditivity-200"),
])
def test_entropy_results_equal_one_solve_per_restriction(monkeypatch, n, build):
    restrictions = build(n)
    alone = [entropy_result(r) for r in restrictions]
    seen = _spy_eigvalsh(monkeypatch)
    assert entropy_results(restrictions, n) == alone
    if n >= 362:
        assert any(r.plunge_blocks for r in alone) and any(r.dense_blocks for r in alone)
    # one dense solve per distinct block order, stacked over the restrictions;
    # the Ritz solves of the plunge path take one matrix each
    stacks = [shape for _, shape in seen if len(shape) == 3]
    orders = [shape[-1] for shape in stacks]
    assert len(orders) == len(set(orders)) and any(shape[0] > 1 for shape in stacks)
    if build is _pair_restrictions:
        s1, s2, s12 = (res.entropy for res in alone)
        assert check_subadditivity(*PAIR, n) == s1 + s2 - s12


def test_entropy_results_of_no_restriction_are_empty():
    assert entropy_results([], 8) == []
    assert entropy_results(iter([]), 8, eig_cap=8) == []


def test_coefficients_of_no_symbol_are_empty():
    assert joint_fourier_coefficients([], 8) == []
    assert joint_fourier_coefficients(iter([]), 0) == []


def test_a_symbol_given_as_lists_is_kept_as_tuples():
    # Any sequences give the symbol of their tuples, and its coefficients.
    listed = SymbolFunction([0.0, 0.2, 0.45, 1.0], [1.0, 0.0, 0.5])
    given = SymbolFunction((0.0, 0.2, 0.45, 1.0), (1.0, 0.0, 0.5))
    assert listed == given
    assert (type(listed.breakpoints), type(listed.values)) == (tuple, tuple)
    for one, other in zip(joint_fourier_coefficients([listed, SymbolFunction.indicator(HALF)], 40),
                          joint_fourier_coefficients([given, SymbolFunction.indicator(HALF)], 40)):
        assert one.values.tobytes() == other.values.tobytes()


def test_entropy_results_need_one_order():
    # Every set is solved at the one order N: a longer array gives a view of
    # its first N coefficients, a shorter one is refused.
    coeffs = [fourier_coefficients(SymbolFunction.indicator(HALF), n - 1) for n in (9, 8)]
    assert [res.n for res in entropy_results(coeffs, 8)] == [8, 8]
    with pytest.raises(ValueError, match="^need coefficients up to 8, have 7$"):
        entropy_results(coeffs, 9)


def _raise_top_of_slice(k, delta):
    """Move the largest eigenvalue of slice ``k`` of a stacked solve up by
    ``delta``; solves of one matrix pass through."""
    return _in_slice(k, _raise_top(delta))


def test_stacked_gates_take_each_set_on_its_own_scale(monkeypatch):
    # Both restrictions split into two blocks of order 8: one stack of four,
    # whose first slice is the even block of the first restriction. The
    # constant symbol 0.001 has ||Q|| = 0.001, so a 1e-10 shift of one of its
    # eigenvalues misses its gate of 1e-8 * 0.001; the same shift on the
    # other set, whose ||Q|| is near 1, stays inside that set's gate.
    faint = fourier_coefficients(SymbolFunction.constant(0.001), 15)
    bright = fourier_coefficients(SymbolFunction.indicator(TRANSLATED), 15)
    seen = _spy_eigvalsh(monkeypatch, result=_raise_top_of_slice(0, 1e-10))
    with pytest.raises(EigensolveError, match="trace moment 1 gap .* at N=16"):
        entropy_results([faint, bright], 16)
    assert seen == [(np.float64, (4, 8, 8))]
    entropy_results([bright, faint], 16)


def _bits(result):
    return (result.entropy.hex(), result.proxy.hex(), result.bracket.hex(),
            result.plunge_blocks, result.dense_blocks)


# Triples for one entropy_results call: split sets only (even N stacks both
# blocks of every set together, odd N stacks each block order on its own),
# real forms only, and both paths at once.
MIXED_TRIPLES = {
    "split": [SymbolFunction.indicator(K) for K in SPLIT_SETS.values()],
    "real-form": list(FULL_SYMBOLS.values()),
    "mixed": [FULL_SYMBOLS["asymmetric"], SymbolFunction.indicator(SPLIT_SETS["cantor5"]),
              FULL_SYMBOLS["mixed"]],
}


@pytest.mark.parametrize("symbols", MIXED_TRIPLES.values(), ids=MIXED_TRIPLES.keys())
def test_stacked_pass_is_each_restriction_alone_bit_for_bit(symbols):
    # S, P and the bracket of a stacked call equal those of each restriction
    # solved alone to the last bit, at every N from 1 to 130.
    coeffs = [fourier_coefficients(f, 129) for f in symbols]
    for n in range(1, 131):
        stacked = [_bits(res) for res in entropy_results(coeffs, n)]
        assert stacked == [_bits(entropy_result(restriction_from_coefficients(c, n)))
                           for c in coeffs], n


def test_stacked_pass_with_a_plunge_and_a_dense_restriction_is_bit_for_bit():
    # At N = 362 the translated interval takes the plunge path for both of its
    # blocks and the Cantor set solves both densely, in one call.
    restrictions = [fourier_coefficients(SymbolFunction.indicator(K), 361)
                    for K in (TRANSLATED, SPLIT_SETS["cantor5"])]
    alone = [entropy_result(r) for r in restrictions]
    assert [(r.plunge_blocks, r.dense_blocks) for r in alone] == [(2, 0), (0, 2)]
    assert [_bits(res) for res in entropy_results(restrictions, 362)] == \
        [_bits(r) for r in alone]


# Rows of every kind for one call: two split sets (both blocks of one order
# at even N, two orders at odd N) and two order-N real forms.
ROW_KINDS = [SymbolFunction.indicator(TRANSLATED), SymbolFunction.indicator(SPLIT_SETS["cantor5"]),
             FULL_SYMBOLS["asymmetric"], FULL_SYMBOLS["mixed"]]


@pytest.mark.parametrize("n, rows", [(4, 4), (17, 4), (64, 4), (362, 3)])
def test_each_row_is_its_own_solve_in_any_order(n, rows):
    # S, P, the bracket and the block counts of each restriction are the
    # same to the last bit solved alone and with the others in one call, in
    # every order: the stacked solves and the one eta_tilde pass over all the
    # rows leave no trace of the other rows. At N = 362 the translated
    # interval takes the plunge path for both blocks.
    coeffs = [fourier_coefficients(f, n - 1) for f in ROW_KINDS[:rows]]
    alone = [_bits(entropy_result(c)) for c in coeffs]
    if n == 362:
        assert [bits[3:] for bits in alone] == [(2, 0), (0, 2), (0, 1)]
    for order in itertools.permutations(range(rows)):
        together = entropy_results([coeffs[i] for i in order], n)
        assert [_bits(res) for res in together] == [alone[i] for i in order], order


@pytest.mark.parametrize("n, shapes", [(16, [(4, 8, 8), (2, 16, 16)]),
                                       (17, [(2, 9, 9), (2, 8, 8), (2, 17, 17)])])
def test_entropy_results_pays_its_fixed_costs_once_per_call(monkeypatch, n, shapes):
    # Four rows, two split and two real forms: one eigvalsh stack per block
    # order and one eta_tilde pass over all the rows' eigenvalues.
    coeffs = [fourier_coefficients(f, n - 1) for f in ROW_KINDS]
    seen = _spy_eigvalsh(monkeypatch)
    passes, eta_tilde_unit = [], toeplitz._eta_tilde_unit

    def counted(x):
        passes.append(x.shape)
        return eta_tilde_unit(x)

    monkeypatch.setattr(toeplitz, "_eta_tilde_unit", counted)
    entropy_results(coeffs, n)
    assert seen == [(np.float64, shape) for shape in shapes]
    assert passes == [(4, n)]


# A faint symbol without a centre: its real form has ||Q|| <= 0.003, so a
# 1e-10 shift of one of its eigenvalues misses its gate of 1e-8 ||Q||.
FAINT_FORM = SymbolFunction((0.0, 0.2, 0.45, 1.0), (0.003, 0.0, 0.001))


@pytest.mark.parametrize("fault, message", [
    (_raise_top(1e-10), r"trace moment 1 gap 1e-10 \(real-form charge [0-9.e-]+ included\) "
                        r"exceeds 1e-8 \* \|\|Q\|\| = [0-9.e-]+ at N=16$"),
    (_not_a_number, r"trace moment 1 gap nan \(real-form charge [0-9.e-]+ included\) "
                    r"exceeds 1e-8 \* \|\|Q\|\| = nan at N=16$"),
], ids=["shift", "nan"])
def test_fault_in_the_real_form_block_of_a_mixed_stack(monkeypatch, fault, message):
    # The split set's two blocks of order 8 form one stack; the two real forms
    # of order 16 another, whose first slice is the faint set's. Only that
    # slice is changed, and the faint set names the failure.
    restrictions = [fourier_coefficients(f, 15) for f in
                    (SymbolFunction.indicator(TRANSLATED), FAINT_FORM, FULL_SYMBOLS["asymmetric"])]
    assert np.iscomplexobj(toeplitz._real_lines([restrictions[1].values])[0][0])

    def corrupt(w):
        return _in_slice(0, fault)(w) if w.shape[-1] == 16 else w

    seen = _spy_eigvalsh(monkeypatch, result=corrupt)
    with pytest.raises(EigensolveError, match=f"^{message}"):
        entropy_results(restrictions, 16)
    assert seen == [(np.float64, (2, 8, 8)), (np.float64, (2, 16, 16))]


# ---------------------------------------------------------------------------
# Certified plunge path of entropy_result
# ---------------------------------------------------------------------------

def _linalg_error(w):
    raise np.linalg.LinAlgError("injected")


def _top_above_quarter(w):
    out = w.copy()
    out[-1] = 0.25 + 1e-9
    return out


def _lowest_raised(w):
    """The smallest Ritz value, about 1e-16, raised by 1e-9: the sum then
    exceeds t by far more than its charge while the top stays put."""
    out = w.copy()
    out[0] += 1e-9
    return out


def _drop_top(w):
    return w[:-1]


def _top_lowered(w):
    out = w.copy()
    out[-1] *= 1.0 - 1e-6
    return out


# Faults of the plunge path that fail the solve, with the message they raise.
PLUNGE_FAULTS = {
    "ritz-linalg": (_linalg_error, "eigensolve failed for N=1024: injected"),
    "above-quarter": (_top_above_quarter, "Ritz value 0.25 of H - H\\^2 above 1/4 .* at N=1024"),
    "nan": (_not_a_number, "Ritz value nan of H - H\\^2 above 1/4 .* at N=1024"),
    "sum-above-t": (_lowest_raised, "Ritz values sum .* exceeds the plunge trace .* at N=1024"),
}


@pytest.mark.parametrize("fault", PLUNGE_FAULTS.keys())
def test_plunge_path_fault_matrix(ritz_fault, fault):
    # TRANSLATED splits at N = 1024 into two blocks of order 512, both on the
    # plunge path without faults.
    corrupt, message = PLUNGE_FAULTS[fault]
    restriction = fourier_coefficients(SymbolFunction.indicator(TRANSLATED), 1023)
    ritz_fault(corrupt)
    with pytest.raises(EigensolveError, match=message):
        entropy_result(restriction)


def test_plunge_path_qr_failure_raises(monkeypatch):
    def broken(mat):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "qr", broken)
    with pytest.raises(EigensolveError, match="eigensolve failed for N=1024: injected"):
        entropy_result(fourier_coefficients(SymbolFunction.indicator(TRANSLATED), 1023))


@pytest.mark.parametrize("fault", [_drop_top, _top_lowered], ids=["dropped", "lowered"])
def test_missed_ritz_value_falls_back_to_the_dense_value(ritz_fault, fault):
    # A Ritz value left out or under-estimated leaves plunge trace uncaptured,
    # the bracket exceeds its budget and the block is solved densely.
    restriction = fourier_coefficients(SymbolFunction.indicator(TRANSLATED), 1023)
    dense = float(np.sum(eta_tilde(spectrum(restriction))))
    assert entropy_result(restriction).plunge_blocks == 2
    ritz_fault(fault)
    result = entropy_result(restriction)
    assert (result.plunge_blocks, result.dense_blocks, result.bracket) == (0, 2, 0.0)
    assert result.entropy == dense


def test_missed_first_pass_reruns_and_certifies(ritz_fault):
    # Only the first Ritz solve, that of the even block's first pass, has its
    # top value lowered, so that its bracket misses: that block runs again on
    # _PLUNGE_PAD more rows, all k, and certifies, and the odd block
    # certifies at its first pass. The result brackets the dense value.
    sizes = []

    def first_lowered(w):
        sizes.append(len(w))
        return _top_lowered(w) if len(sizes) == 1 else w

    ritz_fault(first_lowered)
    excess, result = solver_gap(TRANSLATED, 1024)
    assert (result.plunge_blocks, result.dense_blocks) == (2, 0)
    assert len(sizes) == 3 and sizes[1] == sizes[0] + toeplitz._PLUNGE_PAD
    assert 0.0 < result.bracket <= toeplitz.CERTIFICATE_TOL
    assert excess <= SOLVER_TOL


@pytest.mark.parametrize("K", [empty_set(), full_torus()], ids=["empty", "full"])
def test_plunge_pass_without_plunge_trace(K):
    # t = 0 gives k = _PLUNGE_PAD, so the first pass would have no rows: it
    # starts from one, and both blocks of order 256 certify S_N = 0.
    result = entropy_result(fourier_coefficients(SymbolFunction.indicator(K), 511))
    assert result.entropy == 0.0
    assert (result.plunge_blocks, result.dense_blocks) == (2, 0)
    assert result.bracket <= toeplitz.CERTIFICATE_TOL


def test_plunge_path_guard_on_the_fig2_scan(monkeypatch):
    # No dense solve of order 181 or more in the fig-2 scan of [phi, phi + 1/2)
    # over 8..1448, no block formed from N = 362 on, and no plunge block that
    # misses at its first pass and runs again; the depth-5 Cantor set keeps
    # its dense solves and forms its blocks.
    seen = _spy_eigvalsh(monkeypatch)
    missed, certify = [], toeplitz._certify

    def certify_spy(*args):
        part = certify(*args)
        missed.append(part is None)
        return part

    monkeypatch.setattr(toeplitz, "_certify", certify_spy)
    formed, real_matrices = [], toeplitz._real_matrices

    def forming_spy(group, p, out):
        formed.extend((sum(blocks[0]), b) for _, blocks, b in group)
        return real_matrices(group, p, out)

    monkeypatch.setattr(toeplitz, "_real_matrices", forming_spy)
    phi = float(np.random.default_rng(1448).uniform(0.0, 0.5))
    scan(canonicalize([(phi, phi + 0.5)]), default_grid(8, 1448), mode="both")
    assert seen and max(shape[-1] for _, shape in seen) < 181
    assert formed and max(n for n, _ in formed) < 362
    assert missed and not any(missed)
    cantor = SymbolFunction.indicator(SPLIT_SETS["cantor5"])
    for n in (256, 1024):
        seen.clear()
        formed.clear()
        result = entropy_result(fourier_coefficients(cantor, n - 1))
        assert seen == _solves(n, True) and formed == [(n, 0), (n, 1)]
        assert (result.plunge_blocks, result.dense_blocks) == (0, 2)


@pytest.mark.parametrize("K, largest", [(HALF, 254), (THREE, 127)], ids=["split", "real-form"])
def test_small_blocks_compute_no_plunge_trace(monkeypatch, K, largest):
    # Below _PLUNGE_MIN_ORDER no t is computed and no generator is built, so
    # the many small solves of Cantor and oracle runs pay nothing for the
    # plunge path; the first order with a block that large computes t once.
    traces, generators = [], []
    plunge_traces, default_rng = toeplitz._plunge_traces, np.random.default_rng

    def traces_spy(line):
        traces.append(len(line))
        return plunge_traces(line)

    def rng_spy(*args):
        generators.append(args)
        return default_rng(*args)

    monkeypatch.setattr(toeplitz, "_plunge_traces", traces_spy)
    monkeypatch.setattr(np.random, "default_rng", rng_spy)
    assert toeplitz._PLUNGE_MIN_ORDER == 128
    f = SymbolFunction.indicator(K)
    for n in (8, 64, largest):
        entropy_result(fourier_coefficients(f, n - 1))
    cantor = SymbolFunction.indicator(SPLIT_SETS["cantor5"])
    for n in range(1, 65):
        entropy_result(fourier_coefficients(cantor, n - 1))
    assert traces == [] and generators == []
    entropy_result(fourier_coefficients(f, largest))
    assert traces == [largest + 1]


def _line(row):
    """The line of the real blocks of one first row, as entropy_results
    reads it."""
    return toeplitz._real_lines([row])[0][0]


# Which way a 1e-9 coupling of the (0, 1) pair goes at N = 1024: past the
# sum-theta <= t check, or to the dense solve through a bracket past its budget.
COUPLING_FAILS = {("split", 1e-9): False, ("split", -1e-9): True,
                  ("real-form", 1e-9): True, ("real-form", -1e-9): False}


@pytest.mark.parametrize("delta", [1e-9, -1e-9], ids=["raised", "lowered"])
@pytest.mark.parametrize("layout, K", [("split", TRANSLATED),
                                       ("real-form", canonicalize([(0.05, 0.3), (0.5, 0.62)]))],
                         ids=["split", "real-form"])
def test_plunge_block_off_its_coefficients_never_certifies(operator_coupling, layout, K,
                                                          delta):
    # t comes from the coefficients, not from the operator: an operator whose
    # (0, 1) pair is coupled by 1e-9 more than the line says either fails the
    # sum-theta <= t check or sends its block to the dense solve; on each
    # layout one sign of the coupling reaches the check.
    restriction = fourier_coefficients(SymbolFunction.indicator(K), 1023)
    blocks = len(toeplitz._blocks(_line(restriction.values))[0])
    assert entropy_result(restriction).plunge_blocks == blocks
    operator_coupling(delta)
    if COUPLING_FAILS[layout, delta]:
        with pytest.raises(EigensolveError, match="exceeds the plunge trace .* at N=1024"):
            entropy_result(restriction)
    else:
        result = entropy_result(restriction)
        assert result.plunge_blocks == blocks - 1 and result.dense_blocks == 1


# Sets and sizes of the accuracy check, with the number of real blocks that
# take the plunge path: the translated interval splits in two at every size,
# and at odd N its even block carries the sqrt(1/2) border of D; the two
# asymmetric unions are one order-N block, and the three-interval one is dense
# at N = 512 by the cost rule (6 k > p).
PLUNGE_CASES = [
    pytest.param(K, n, blocks, id=f"{name}-{n}")
    for name, K, sizes, plunge in (
        ("translated", TRANSLATED, (512, 1023, 1024, 2047, 2048), (2, 2, 2, 2, 2)),
        ("asymmetric", canonicalize([(0.05, 0.3), (0.5, 0.62)]), (512, 1024, 2048), (1, 1, 1)),
        ("three", canonicalize([(0.0, 0.1), (0.3, 0.45), (0.6, 0.9)]), (512, 1024, 2048),
         (0, 1, 1)),
    )
    for n, blocks in zip(sizes, plunge)
]


@pytest.mark.parametrize("K, n, plunge", PLUNGE_CASES)
def test_certified_entropy_brackets_the_dense_value(K, n, plunge):
    # The dense value may sit SOLVER_TOL, its rounding allowance, outside
    # [S, S + bracket].
    excess, result = solver_gap(K, n)
    assert result.plunge_blocks == plunge
    assert 0.0 <= result.bracket <= toeplitz.CERTIFICATE_TOL
    assert excess <= SOLVER_TOL


def test_bracket_bounds_the_entropy_left_out():
    # h(v) <= v (2 - ln v) on (0, 1/10], and for synthetic plunge spectra
    # (geometric tails) with Ritz values below the top eigenvalues the exact
    # entropy lies inside [sum h(theta), sum h(theta) + R (2 - ln(R / p))].
    v = np.geomspace(1e-300, 0.1, 4000)
    assert np.all(toeplitz._pair_entropy(v) <= v * (2.0 - np.log(v)))
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = int(rng.integers(200, 2000))
        values = np.minimum(0.25, rng.uniform(0.05, 0.25)
                            * np.exp(-rng.uniform(0.3, 3.0) * np.arange(p)))
        exact = float(np.sum(toeplitz._pair_entropy(values)))
        k = int(rng.integers(1, 40))
        theta = values[:k] * (1.0 - rng.uniform(0.0, 1e-6, k))
        rest = float(np.sum(values) - np.sum(theta))
        lower = float(np.sum(toeplitz._pair_entropy(theta)))
        assert lower <= exact <= lower + toeplitz._bracket(rest, p) + 1e-15


def _mp_block_traces(line):
    """tr H - ||H||_F^2 of each real block formed from ``line`` in 40
    digits, entry by entry: r(|i - j|) +- r(N - 1 - i - j) with the
    sqrt(2) r(m - i) border and r(0) corner on the split, and
    Re q(|k - l|) + sgn(h) Im q(|h|) on the real form."""
    n, m = len(line), len(line) // 2
    with mpmath.workdps(40):
        re = [mpmath.mpf(float(v)) for v in line.real]
        if np.iscomplexobj(line):
            im = [mpmath.mpf(float(v)) for v in line.imag]
            blocks = [[[re[abs(i - j)] + mpmath.sign(i + j - n + 1) * im[abs(i + j - n + 1)]
                        for j in range(n)] for i in range(n)]]
        else:
            blocks = []
            for sign, order in ((1, n - m), (-1, m)):
                rows = [[re[abs(i - j)] + sign * re[n - 1 - i - j] for j in range(order)]
                        for i in range(order)]
                if sign > 0 and n % 2:
                    for i in range(m):
                        rows[i][m] = rows[m][i] = mpmath.sqrt(2) * re[m - i]
                    rows[m][m] = re[0]
                blocks.append(rows)
        return [mpmath.fsum(rows[i][i] for i in range(len(rows)))
                - mpmath.fsum(v * v for row in rows for v in row)
                for rows in blocks if rows]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 40, 41])
@pytest.mark.parametrize("K", [TRANSLATED, THREE, TWO_QUARTERS],
                         ids=["split", "real-form", "q1-zero"])
def test_plunge_trace_matches_40_digit_blocks(K, n):
    # The O(N) t of the line against tr H - ||H||_F^2 of the blocks formed
    # from the line in 40 digits.
    line = _line(fourier_coefficients(SymbolFunction.indicator(K), n - 1).values)
    blocks = toeplitz._blocks(line)
    traces = toeplitz._plunge_traces(line)
    refs = _mp_block_traces(line)
    assert len(traces) == len(refs) == len(blocks[0])
    for (t, charge), ref in zip(traces, refs):
        assert abs(mpmath.mpf(t) - ref) <= charge


def _mp_line_traces(line):
    """The sums of toeplitz._plunge_traces in 40 digits: t of the order-N
    real form, or t_even and t_odd of the half-order split."""
    n, m = len(line), len(line) // 2
    with mpmath.workdps(40):
        re = [mpmath.mpf(float(v)) for v in line.real]
        im = [mpmath.mpf(float(v)) for v in np.imag(line)]
        total = n * re[0] - n * (re[0] ** 2 + im[0] ** 2) - 2 * mpmath.fsum(
            (n - s) * (re[s] ** 2 + im[s] ** 2) for s in range(1, n))
        if np.iscomplexobj(line):
            return [total]
        prefix = [re[0], 2 * re[1]][:m]
        for j in range(2, m):
            prefix.append(prefix[j - 2] + 2 * re[j])
        cross = mpmath.fsum(re[n - 1 - s] * prefix[min(s, 2 * m - 2 - s)]
                            for s in range(2 * m - 1))
        diff = 2 * mpmath.fsum(re[n - 1 - 2 * i] for i in range(m)) - 4 * cross
        if n % 2:
            diff += re[0] - re[0] ** 2 - 4 * mpmath.fsum(v * v for v in re[1:m + 1])
        return [(total + diff) / 2, (total - diff) / 2]


@pytest.mark.parametrize("n", [511, 512, 1447, 1448, 2047, 2048])
@pytest.mark.parametrize("K", [TRANSLATED, THREE], ids=["split", "real-form"])
def test_plunge_trace_matches_40_digit_sums(K, n):
    line = _line(fourier_coefficients(SymbolFunction.indicator(K), n - 1).values)
    for (t, charge), ref in zip(toeplitz._plunge_traces(line), _mp_line_traces(line),
                                strict=True):
        assert abs(mpmath.mpf(t) - ref) <= charge


def _slices(x, axis=None):
    """Three slices of x, each a multiple of 2^(e - 20 s) for s = 1, 2, 3
    with |x| < 2^e along ``axis`` (over all of x when None): a product of
    two such slices is exact, and so is a sum of up to 2^13 of them in any
    order, as every partial sum is an integer below 2^53 on that grid.
    Their sum is x but for a rest below 2^(e - 60)."""
    top = np.max(np.abs(x), axis=axis, keepdims=axis is not None)
    e = np.frexp(np.maximum(top, np.finfo(float).tiny))[1]
    out = []
    for s in range(1, 4):
        sigma = np.ldexp(1.0, e + 52 - 20 * s)
        part = (sigma + x) - sigma
        out.append(part)
        x = x - part
    return out


def _exact_product(rows, line, b):
    """rows @ H_b to 64-bit mantissas, with H_b the real block b formed from
    ``line`` in exact arithmetic: D (T + s Hk) D, T = a(|i - j|) and
    Hk = g(i + j) from the entries of the line themselves, each product of
    slices exact in float64 and summed in np.longdouble; D scales the
    border of the odd-N even block by sqrt(1/2) in np.longdouble."""
    n = len(line)
    if np.iscomplexobj(line):
        p, a, g = n, line.real, np.concatenate([-line.imag[:0:-1], line.imag])
    else:
        p, a, g = (n - n // 2, n // 2)[b], line, line[::-1] * (-1.0 if b else 1.0)
    pieces = _slices(rows, axis=1)
    out = np.zeros((len(rows), p), dtype=np.longdouble)
    i, j = np.indices((p, p))
    for part, form in ((a, lambda x: x[np.abs(i - j)]), (g, lambda x: x[i + j])):
        # the pairs of slices whose products reach 2^-80 of the largest
        for t, piece in enumerate(_slices(np.ascontiguousarray(part[:2 * p - 1]))):
            product = np.concatenate(pieces[:3 - t]) @ form(piece)
            out += sum(product.reshape(3 - t, len(rows), p).astype(np.longdouble))
    if b == 0 and n % 2 and not np.iscomplexobj(line):
        root = np.sqrt(np.longdouble(0.5))
        edge = (a[np.abs(p - 1 - np.arange(p))].astype(np.longdouble)
                + g[p - 1 + np.arange(p)].astype(np.longdouble))
        out += (root - 1) * rows[:, -1:].astype(np.longdouble) * edge
        out[:, -1] *= root
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 362, 363, 1447, 1448])
@pytest.mark.parametrize("K", [TRANSLATED, THREE, TWO_QUARTERS],
                         ids=["split", "real-form", "q1-zero"])
def test_plunge_operator_matches_the_blocks(K, n):
    # Each row of the FFT products lies within its charge, times the row's
    # norm, of the product with the block formed from the line.
    line = _line(fourier_coefficients(SymbolFunction.indicator(K), n - 1).values)
    blocks = toeplitz._blocks(line)
    op = toeplitz._PlungeOperator(blocks)
    charge = toeplitz._fft_charge(blocks)
    rng = np.random.default_rng(n)
    for b, p in enumerate(blocks[0]):
        rows = rng.uniform(-1.0, 1.0, (3, p))
        image = op(b, rows)
        error = np.sqrt(np.sum(((image - _exact_product(rows, line, b)) ** 2).astype(float),
                               axis=1))
        assert np.all(error <= charge * np.linalg.norm(rows, axis=1))


@pytest.mark.parametrize("K, n", [(TRANSLATED, 362), (TRANSLATED, 1448), (TRANSLATED, 2048),
                                  (canonicalize([(0.05, 0.3), (0.5, 0.62)]), 1024),
                                  (canonicalize([(0.05, 0.3), (0.5, 0.62)]), 2048)],
                         ids=["split-362", "split-1448", "split-2048",
                              "real-form-1024", "real-form-2048"])
def test_ritz_values_within_their_charge(monkeypatch, K, n):
    # The Ritz values of the plunge path against the eigenvalues of
    # Z H Z^T - (Z H)(Z H)^T on the same orthonormal rows Z, with Z H taken
    # to 64-bit mantissas and each eigenvalue as the Rayleigh quotient, in
    # np.longdouble, of an eigenvector of that matrix.
    bases, solved = [], []
    qr, certify = np.linalg.qr, toeplitz._certify

    def qr_spy(mat):
        out = qr(mat)
        bases.append(out[0].T)
        return out

    def certify_spy(ritz, p, t, t_charge, ritz_charge, *args):
        solved.append((ritz, ritz_charge))
        return certify(ritz, p, t, t_charge, ritz_charge, *args)

    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    monkeypatch.setattr(toeplitz, "_certify", certify_spy)
    restriction = fourier_coefficients(SymbolFunction.indicator(K), n - 1)
    result = entropy_result(restriction)
    line = _line(restriction.values)
    blocks = toeplitz._blocks(line)
    assert result.plunge_blocks == len(bases) == len(solved) == len(blocks[0])
    for b, (basis, (ritz, charge)) in enumerate(zip(bases, solved)):
        image = _exact_product(basis, line, b)
        exact = image @ (basis.astype(np.longdouble) - image).T
        vectors = np.linalg.eigh(exact.astype(float))[1].astype(np.longdouble)
        reference = np.einsum("ij,ik,kj->j", vectors, exact, vectors).astype(float)
        assert np.all(np.abs(ritz - reference) <= charge)


def test_plunge_path_memory_stays_order_n():
    # [0.3, 0.55) at N = 4096: formed, its two order-2048 blocks would take
    # 64 MiB; the FFT products hold a few arrays of at most k = 32 rows of
    # length L = 4096 instead (the odd block misses at 24 rows and reruns on
    # 32). Traced peak 5.1 MiB measured, 6.0 MiB on a first call in a fresh
    # process; the bound is 1.3 times the larger.
    restriction = fourier_coefficients(SymbolFunction.indicator(TRANSLATED), 4095)
    tracemalloc.start()
    try:
        result = entropy_result(restriction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.plunge_blocks == 2
    assert peak <= 8 * 2 ** 20


def test_jin_korepin_anchor_at_16384():
    # [0.3, 0.55) at N = 16384 certifies through scan, far above eig_cap; its
    # residual against the Jin-Korepin asymptotics is the N^-2 term,
    # -0.1 / N^2 = -3.73e-10 (test_jin_korepin_correction_falls_as_n_minus_2
    # measures -0.10001 and -0.09999 at N = 256 and 1024). Gate: a quarter of
    # that term; measured -4.16e-10 with a bracket of 5.2e-11.
    n = 16384
    [record] = scan(TRANSLATED, [n], mode="both")
    assert 0.0 < record.bracket <= toeplitz.CERTIFICATE_TOL
    residual = record.entropy - (math.log(2 * n * math.sin(math.pi * 0.25)) / 3 + UPSILON)
    term = -0.1 / n ** 2
    assert abs(residual - term) <= 0.25 * abs(term)
