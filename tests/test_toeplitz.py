import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from entropy_lab import toeplitz
from entropy_lab.toeplitz import (
    UPSILON,
    EigensolveError,
    EntropyDomainError,
    SymbolCoefficients,
    SymbolFunction,
    ToeplitzRestriction,
    block_entropy,
    build_restriction,
    entropy_density,
    entropy_result,
    eta,
    eta_tilde,
    fourier_coefficients,
    proxy_scan,
    purity_proxy_direct,
    purity_proxy_single_interval_series,
    restriction_from_coefficients,
    spectrum,
)
from entropy_lab.torus_sets import (
    CantorSpec,
    canonicalize,
    cantor_depth_policy,
    cantor_generate,
    full_torus,
    random_interval_set,
)

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


# More than the 64 jumps of one matrix-product chunk.
DEPTH6 = cantor_generate(CantorSpec(0.25, 1.0, 6)).translate(0.0123)


@pytest.mark.parametrize("n_max", [1, 2, 3, 15, 16, 17, 255, 256])
@pytest.mark.parametrize("f", [
    SymbolFunction.indicator(THREE),
    SymbolFunction.indicator(DEPTH6),
    SymbolFunction((0.0, 0.2, 0.55, 1.0), (0.5, 0.25, 0.0)),
], ids=["three", "depth6", "mixed"])
def test_fourier_coefficients_match_per_piece_sum(f, n_max):
    coeffs = fourier_coefficients(f, n_max)
    assert coeffs.values[0] == f.mean
    np.testing.assert_allclose(coeffs.values[1:], _per_piece(f, n_max),
                               rtol=0, atol=1e-14)


def test_constant_symbol_has_no_higher_coefficients():
    coeffs = fourier_coefficients(SymbolFunction.constant(0.3), 17)
    assert coeffs.values[0] == 0.3
    assert np.all(coeffs.values[1:] == 0.0)


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
], ids=["depth5-translated", "q1/3-auto-16384"])
def test_fourier_coefficients_match_40_digit_reference(K, n_max, gate):
    f = SymbolFunction.indicator(K)
    rng = np.random.default_rng(5)
    ks = np.concatenate([rng.integers(1, n_max - 7, 40), np.arange(n_max - 7, n_max + 1)])
    coeffs = fourier_coefficients(f, n_max)
    err = np.abs(coeffs.values[ks] - _reference_coefficients(f, ks.tolist()))
    assert np.max(err) <= gate


def test_mixed_symbol_coefficients():
    f = SymbolFunction((0.0, 0.5, 1.0), (0.5, 0.0))
    coeffs = fourier_coefficients(f, 4)
    assert coeffs.values[0] == pytest.approx(0.25, abs=1e-15)
    # half the pure half-interval coefficients
    pure = fourier_coefficients(SymbolFunction.indicator(HALF), 4)
    for k in range(1, 5):
        assert coeffs.values[k] == pytest.approx(0.5 * pure.values[k], abs=1e-14)


def test_build_restriction_entries():
    f = SymbolFunction.indicator(HALF)
    one = build_restriction(f, 1)
    assert one.matrix.shape == (1, 1)
    assert one.matrix[0, 0] == pytest.approx(0.5)
    two = build_restriction(f, 2)
    expect = np.array([[0.5, -1j / math.pi], [1j / math.pi, 0.5]])
    np.testing.assert_allclose(two.matrix, expect, atol=1e-15)
    with pytest.raises(ValueError):
        build_restriction(f, 0)


def test_restriction_validation():
    with pytest.raises(ValueError, match="must be a 1-D array"):
        ToeplitzRestriction(np.array([[0.5, 0.1j]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        ToeplitzRestriction(np.array([0.5 + 1e-3j, 0.1j]))
    assert ToeplitzRestriction(np.array([0.5, 0.1j, 0.0])).order == 3


def test_constant_symbol_restriction_is_scaled_identity():
    f = SymbolFunction.constant(0.5)
    r = build_restriction(f, 5)
    np.testing.assert_allclose(r.matrix, 0.5 * np.eye(5), atol=1e-15)


def test_restriction_hermitian_random():
    rng = np.random.default_rng(9)
    for _ in range(5):
        K = random_interval_set(rng)
        mat = build_restriction(SymbolFunction.indicator(K), 24).matrix
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)


def test_spectrum_examples():
    lam = spectrum(build_restriction(SymbolFunction.constant(0.5), 3))
    np.testing.assert_allclose(lam, [0.5, 0.5, 0.5], atol=1e-14)
    lam2 = spectrum(build_restriction(SymbolFunction.indicator(HALF), 2))
    np.testing.assert_allclose(lam2, [0.5 - 1 / math.pi, 0.5 + 1 / math.pi],
                               atol=1e-12)
    lam_full = spectrum(build_restriction(SymbolFunction.indicator(full_torus()), 4))
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
        restriction = build_restriction(SymbolFunction.indicator(K), 20)
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
        base = entropy_result(build_restriction(SymbolFunction.indicator(K), 24))
        for other in (K.complement(), K.translate(phi)):
            res = entropy_result(build_restriction(SymbolFunction.indicator(other), 24))
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
     ValueError, "n_max must be nonnegative"),
    (lambda: restriction_from_coefficients(_QUARTER_COEFFS, 0),
     ValueError, "block size must be >= 1, got 0"),
    (lambda: restriction_from_coefficients(_QUARTER_COEFFS, 6),
     ValueError, "need coefficients up to 5, have 4"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [4, 0, 2]),
     ValueError, "block size must be >= 1, got 0"),
    (lambda: proxy_scan(_QUARTER_COEFFS, [2, 6]),
     ValueError, "need coefficients up to 5, have 4"),
    (lambda: purity_proxy_single_interval_series(0.25, 0),
     ValueError, "block size must be >= 1, got 0"),
    (lambda: SymbolFunction.of([(0.0, 0.5)]),
     TypeError, "expected a SymbolFunction or TorusIntervalSet, got a list"),
], ids=["coeff-shape", "coeff-empty", "coeff-nan", "coeff-q0-complex",
        "coeff-exceeds-q0", "negative-n-max", "restriction-size", "restriction-order",
        "proxy-scan-size", "proxy-scan-order", "series-size", "symbol-source"])
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
    """What _spy_eigvalsh records for one spectrum of order n: the even and
    odd half-order blocks of the split, or one order-n real form."""
    orders = ((n + 1) // 2, n // 2) if split else (n,)
    return [(np.float64, (k, k)) for k in orders if k]


def _no_complex_solve(monkeypatch):
    """Make eigenvector solves and the complex Q_N fail if anything uses them."""
    def refuse(*args, **kwargs):
        raise AssertionError("complex or eigenvector solve on the solve path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(ToeplitzRestriction, "matrix", property(refuse))


@pytest.mark.parametrize("K, split", [pytest.param(TRANSLATED, True, id="K0-split"),
                                      pytest.param(THREE, False, id="K1-full"),
                                      pytest.param(TWO_QUARTERS, False, id="K2-full")])
def test_spectrum_path_choice(monkeypatch, K, split):
    restriction = build_restriction(SymbolFunction.indicator(K), 64)
    ref = _EIGVALSH(restriction.matrix)
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
        spectrum(build_restriction(SymbolFunction.indicator(K), 32))


@pytest.mark.parametrize("K, split", [pytest.param(TRANSLATED, True, id="K0"),
                                      pytest.param(THREE, False, id="K1")])
def test_spectrum_residual_gate_catches_shifted_eigenvalues(monkeypatch, K, split):
    seen = _spy_eigvalsh(monkeypatch, result=lambda w: w + 1e-6)
    with pytest.raises(EigensolveError, match="trace moment 1 gap"):
        spectrum(build_restriction(SymbolFunction.indicator(K), 32))
    assert seen == _solves(32, split)


def _raise_top(delta):
    """Move the largest eigenvalue of every solve up by ``delta``."""
    def corrupt(w):
        out = w.copy()
        out[-1] += delta
        return out
    return corrupt


def _drop_one(w):
    return w[1:]


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


def _below_zero(w):
    """The smallest eigenvalue moved to -1e-6 and the next one up by as much:
    both sit near 0, so the sum is unchanged and the sum of squares moves far
    less than the second-moment gate allows."""
    out = w.copy()
    shift = out[0] + 1e-6
    out[0] -= shift
    out[1] += shift
    return out


# Each fault is injected into every solve and must be caught by the named
# check. A zero-sum perturbation escapes the first moment and shows in the
# second as 1e-6 (w_i - w_j) / ||H||, so it is caught while the two
# eigenvalues are more than 1e-2 ||H|| apart. A third moment would move by
# 3e-6 (w_i - w_j)(w_i + w_j), which shrinks with the same gap. Two
# eigenvalues near 0 are that close, so an eigenvalue pushed below 0 by a
# zero-sum fault is caught by the range check instead.
FAULTS = {
    "shift": (_raise_top(1e-6), "trace moment 1 gap"),
    "drop": (_drop_one, "eigensolve returned 15 eigenvalues for a block of order 16"),
    "zero-sum": (_swap_mass, "trace moment 2 gap"),
    "nan": (_not_a_number, "trace moment 1 gap nan"),
    "below-zero": (_below_zero, "eigenvalue outside \\[0, 1\\] by 1e-06"),
}


@pytest.mark.parametrize("K", [pytest.param(TRANSLATED, id="split"),
                               pytest.param(THREE, id="full")])
@pytest.mark.parametrize("fault", FAULTS.keys())
def test_fault_matrix(monkeypatch, K, fault):
    corrupt, message = FAULTS[fault]
    # Order 32 splits into blocks of order 16; the real form of THREE has
    # order 16 itself.
    n = 32 if K is TRANSLATED else 16
    _spy_eigvalsh(monkeypatch, result=corrupt)
    with pytest.raises(EigensolveError, match=f"{message}.* at N={n}"):
        spectrum(build_restriction(SymbolFunction.indicator(K), n))


def test_real_path_matches_complex_solve(monkeypatch):
    rng = np.random.default_rng(17)
    sets = [canonicalize([(0.0, length)]).translate(float(rng.uniform()))
            for length in (0.5, 0.25, 0.7)]
    sets += [cantor_generate(spec).translate(float(rng.uniform()))
             for spec in (CantorSpec(0.25, 1.0, 5), CantorSpec(1.0 / 3.0, 0.9, 4))]
    seen = _spy_eigvalsh(monkeypatch)
    for K in sets:
        restriction = build_restriction(SymbolFunction.indicator(K), 256)
        lam = spectrum(restriction)
        ref = np.clip(_EIGVALSH(restriction.matrix), 0.0, 1.0)
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
    restriction = ToeplitzRestriction(row)
    top = float(np.max(_EIGVALSH(restriction.matrix)))
    # A first-moment gap that passes the gate alone but not with the bound.
    delta = 1e-8 * top - weyl / 2
    seen = _spy_eigvalsh(monkeypatch, result=_raise_top(delta))
    with pytest.raises(EigensolveError, match="real-form charge 4.5e-10"):
        spectrum(restriction)
    assert seen == _solves(n, True)


@pytest.mark.parametrize("n", [32, 33])
def test_real_path_charges_block_rounding(monkeypatch, n):
    # The centred half-interval row is exactly real, so Weyl's bound is 0 and
    # the charge is the rounding charge 1.5 N eps max |r(k)| alone.
    k = np.arange(n)
    row = np.where(k == 0, 0.5, np.sin(0.5 * np.pi * k) / (np.pi * np.maximum(k, 1)))
    restriction = ToeplitzRestriction(row.astype(complex))
    charge = 1.5 * n * np.finfo(float).eps * 0.5
    _spy_eigvalsh(monkeypatch, result=lambda w: w + 1e-6)
    with pytest.raises(EigensolveError, match=f"real-form charge {charge:.3g} included"):
        spectrum(restriction)


@pytest.mark.parametrize("n", [16, 17])
def test_real_form_charges_its_rounding(monkeypatch, n):
    # THREE takes the order-N real form, charged N eps max |q(k)| = N eps q(0)
    # and nothing else.
    restriction = build_restriction(SymbolFunction.indicator(THREE), n)
    charge = n * np.finfo(float).eps * restriction.row[0].real
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
        ref = _EIGVALSH(restriction.matrix)
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
        restriction = build_restriction(FULL_SYMBOLS["asymmetric"], n)
        u = (np.eye(n) + 1j * np.eye(n)[::-1]) / math.sqrt(2.0)
        ref = u.conj().T @ restriction.matrix @ u
        form = toeplitz._real_form(restriction.row)
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
    for view, ref in ((toeplitz._toeplitz(a), a[np.abs(i - j)]),
                      (toeplitz._hankel(g, n), g[i + j]),
                      (toeplitz._hankel(g[::-1], n), g[::-1][i + j])):
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
    refs = [even, r[np.abs(bi - bj)] - r[n - 1 - bi - bj]][:1 + (m > 0)]
    # spectrum passes the real part of a complex row, a strided view.
    blocks = toeplitz._centrosymmetric_blocks((r + 0j).real)
    assert len(blocks) == len(refs)
    for block, ref in zip(blocks, refs):
        assert same_bits(block, ref)

    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row[0] = row[0].real
    h = i + j - n + 1
    ref = row.real[np.abs(i - j)] + np.where(h >= 0, row.imag[np.abs(h)],
                                             -row.imag[np.abs(h)])
    assert same_bits(toeplitz._real_form(row), ref)


def _odd_block(restriction):
    """r(|i - j|) - r(N - 1 - i - j) for i, j < N // 2, from the centred row."""
    n = restriction.order
    r, _ = toeplitz._centred_row(restriction.row)
    i, j = np.indices((n // 2, n // 2))
    return r[np.abs(i - j)] - r[n - 1 - i - j]


@pytest.mark.parametrize("n", [32, 33])
def test_residual_gate_catches_a_shift_of_the_odd_block_only(monkeypatch, n):
    restriction = build_restriction(SymbolFunction.indicator(TRANSLATED), n)
    odd = _odd_block(restriction)
    shifted = []

    def spy(mat):
        w = _EIGVALSH(mat)
        if np.array_equal(mat, odd):
            shifted.append(mat.shape)
            w = w + 1e-6
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    with pytest.raises(EigensolveError, match=f"trace moment 1 gap .* at N={n}"):
        spectrum(restriction)
    assert shifted == [(n // 2, n // 2)]


@pytest.mark.parametrize("n", [32, 33])
def test_failure_of_the_second_block_names_the_full_order(monkeypatch, n):
    calls = []

    def second_fails(mat):
        calls.append(mat.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected")
        return _EIGVALSH(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", second_fails)
    with pytest.raises(EigensolveError, match=f"eigensolve failed for N={n}: injected"):
        spectrum(build_restriction(SymbolFunction.indicator(TRANSLATED), n))
    assert calls == [((n + 1) // 2,) * 2, (n // 2,) * 2]
