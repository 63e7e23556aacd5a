import itertools
import math

import numpy as np
import pytest

from entropy_lab import oracle
from entropy_lab.oracle import (
    MAX_ORACLE_SITES,
    OracleError,
    block_entropy_oracle,
    density_matrix,
    vn_entropy,
    wick_expectation,
    FockDensityMatrix,
)
from entropy_lab.scaling import ORACLE_TOL
from entropy_lab.toeplitz import SymbolFunction, block_entropy
from entropy_lab.torus_sets import FailedCheckError, canonicalize, full_torus, random_interval_set

from references import density_matrix_from_matrix_units, matrix_unit_word, partial_trace_last_site

HALF = canonicalize([(0.0, 0.5)])
S2_HALF = 0.9478932674675549

# non-symmetric set: its Fourier coefficients are genuinely complex
SKEW = canonicalize([(0.05, 0.3), (0.45, 0.6), (0.7, 0.9)])


def _window(K, n):
    return oracle._validated_window(SymbolFunction.indicator(K), n)


def _random_two_point(rng, n):
    # Hermitian with spectrum drawn inside [0, 1]
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = np.linalg.qr(z)[0]
    lam = rng.uniform(0.05, 0.95, size=n)
    return (u * lam) @ u.conj().T


def test_wick_two_point():
    q = _window(SKEW, 2)
    assert wick_expectation([(0, True), (1, False)], q) == pytest.approx(q[0, 1])
    assert wick_expectation([(0, False), (1, True)], q) == pytest.approx(-q[1, 0])
    assert wick_expectation([(0, False), (0, True)], q) == pytest.approx(1 - q[0, 0])


def test_wick_vanishing_cases():
    q = _window(HALF, 2)
    assert wick_expectation([(0, False), (0, False)], q) == 0j
    assert wick_expectation([(0, True), (1, True)], q) == 0j       # unbalanced
    assert wick_expectation([(0, True)], q) == 0j                  # odd
    assert wick_expectation([], q) == 1


def test_wick_number_operator_pair():
    q = _window(SKEW, 2)
    value = wick_expectation([(0, True), (1, True), (1, False), (0, False)], q)
    expect = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    assert value == pytest.approx(expect, abs=1e-14)


def test_wick_matches_determinant_on_normal_ordered_words():
    rng = np.random.default_rng(23)
    for trial in range(12):
        n = int(rng.integers(2, 7))
        q = _random_two_point(rng, n)
        m = int(rng.integers(1, min(n, 4) + 1))
        creators = list(rng.integers(0, n, size=m))
        annihilators = list(rng.integers(0, n, size=m))
        word = [(i, True) for i in creators] + \
               [(j, False) for j in reversed(annihilators)]
        got = wick_expectation(word, q)
        expect = np.linalg.det(q[np.ix_(creators, annihilators)])
        assert got == pytest.approx(expect, abs=1e-12)


def test_wick_word_length_cap():
    q = _window(HALF, 2)
    with pytest.raises(OracleError):
        wick_expectation([(0, True)] * 25, q)
    with pytest.raises(OracleError):
        wick_expectation([(5, True), (5, False)], q)     # site outside window


def test_wick_rejects_bad_windows():
    word = [(0, True), (0, False)]
    with pytest.raises(OracleError, match="square"):
        wick_expectation(word, np.zeros((2, 3)))
    skewed = _window(SKEW, 2).copy()
    skewed[0, 1] += 0.1
    with pytest.raises(OracleError, match="Hermitian"):
        wick_expectation(word, skewed)


def test_matrix_unit_word_examples():
    assert matrix_unit_word(0, 1, 1, 2) == [(1, ((0, True), (0, False)))]
    assert matrix_unit_word(0, 2, 2, 2) == [(1, ((0, False), (0, True)))]
    expansion = matrix_unit_word(1, 1, 2, 2)
    assert sorted(expansion) == sorted([
        (2, ((0, True), (0, False), (1, True))),
        (-1, ((1, True),)),
    ])
    assert len(matrix_unit_word(3, 2, 1, 4)) == 8
    with pytest.raises(OracleError):
        matrix_unit_word(2, 1, 1, 2)
    with pytest.raises(OracleError):
        matrix_unit_word(0, 0, 1, 2)


def test_density_matrix_single_site():
    rho = density_matrix(HALF, 1)
    np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)
    rho_full = density_matrix(full_torus(), 1)
    np.testing.assert_allclose(rho_full.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_density_matrix_two_sites_entropy():
    rho = density_matrix(HALF, 2)
    assert vn_entropy(rho) == pytest.approx(S2_HALF, abs=1e-10)


def test_density_matrix_invariants():
    for K in (HALF, SKEW):
        for n in (1, 2, 3, 4):
            rho = density_matrix(K, n)
            mat = rho.matrix
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-10)
            assert np.trace(mat).real == pytest.approx(1.0, abs=1e-10)
            diag = np.diag(mat)
            assert np.all(np.abs(diag.imag) < 1e-12)
            assert np.all(diag.real > -1e-12)
            assert np.min(np.linalg.eigvalsh(mat)) > -1e-10


def test_density_matrix_matches_matrix_unit_reference():
    # the optimized string-cancelled assembly against the literal
    # matrix-unit-product definition
    cases = [(K, n) for K in (HALF, SKEW, canonicalize([(0.13, 0.77)]))
             for n in (1, 2, 3)] + [(SKEW, 4)]
    for K, n in cases:
        fast = density_matrix(K, n).matrix
        ref = density_matrix_from_matrix_units(K, n).matrix
        np.testing.assert_allclose(fast, ref, atol=1e-14)


def _jordan_wigner(n):
    # c_k = Z x .. x Z x a x I x .. x I, site 0 the most significant factor;
    # bit 0 is the occupied state, so a = |1><0| lowers it to empty
    z, a = np.diag([1.0, -1.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
    ops = []
    for k in range(n):
        op = np.ones((1, 1))
        for factor in [z] * k + [a] + [np.eye(2)] * (n - k - 1):
            op = np.kron(op, factor)
        ops.append(op)
    return ops


def test_density_matrix_reproduces_two_point_function():
    for n in (3, 8):
        rho = density_matrix(SKEW, n).matrix
        c = _jordan_wigner(n)
        q = _window(SKEW, n)
        got = np.array([[np.trace(rho @ c[i].T @ c[j]) for j in range(n)]
                        for i in range(n)])
        np.testing.assert_allclose(got, q, rtol=0, atol=1e-13)


def test_density_matrix_reproduces_four_point_wick_law():
    n = 8
    rho = density_matrix(SKEW, n).matrix
    c = _jordan_wigner(n)[:4]
    q = _window(SKEW, n)
    # Tr(rho c+_i c+_j c_l c_k) = sum over entries of (rho c+_i c+_j) * (c_l c_k)^T
    left = [[rho @ c[i].T @ c[j].T for j in range(4)] for i in range(4)]
    right = [[c[l] @ c[k] for k in range(4)] for l in range(4)]
    for i, j, k, l in itertools.product(range(4), repeat=4):
        got = np.sum(left[i][j] * right[l][k].T)
        expect = q[i, k] * q[j, l] - q[i, l] * q[j, k]
        assert abs(got - expect) <= 1e-13, (i, j, k, l)


def test_oracle_matches_toeplitz_at_largest_blocks():
    f = SymbolFunction.indicator(SKEW)
    for n in (7, MAX_ORACLE_SITES):
        assert abs(block_entropy_oracle(SKEW, n) - block_entropy(f, n)) <= ORACLE_TOL


@pytest.mark.parametrize("n", [1, 3, MAX_ORACLE_SITES])
def test_oracle_solves_rho_once_and_q_only_as_real_blocks(monkeypatch, n):
    # Q_n is checked by toeplitz.spectrum's real solves; rho is solved once,
    # for both its positivity check and its entropy.
    real = np.linalg.eigvalsh
    solved = []

    def spy(a, *args, **kwargs):
        solved.append((np.shape(a), np.iscomplexobj(a)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    block_entropy_oracle(SKEW, n)
    dim = 1 << n
    assert [s for s in solved if s[1]] == [((dim, dim), True)]
    # the real blocks come in stacks of shape (blocks, order, order)
    assert sum(math.prod(shape[:2]) for shape, complex_ in solved if not complex_) == n


def test_layout_is_built_once_per_n_across_sets():
    # The occupation-basis layout depends on n alone: three sets at n = 1..4
    # build it four times and reuse it for every other call.
    oracle._layout.cache_clear()
    for K in (HALF, SKEW, canonicalize([(0.13, 0.77)])):
        for n in range(1, 5):
            density_matrix(K, n)
    info = oracle._layout.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (4, 8, MAX_ORACLE_SITES)


def test_layout_arrays_refuse_writes():
    for group in oracle._layout(3):
        for array in group:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


def test_density_matrices_from_a_shared_layout_match_fresh_ones():
    # Two sets, interleaved over n = 1..6, against each built with the layout
    # cache cleared first.
    other = canonicalize([(0.13, 0.77)])
    fresh = {}
    for K in (SKEW, other):
        for n in range(1, 7):
            oracle._layout.cache_clear()
            fresh[K, n] = density_matrix(K, n).matrix.tobytes()
    for n in range(1, 7):
        for K in (SKEW, other, SKEW):
            assert density_matrix(K, n).matrix.tobytes() == fresh[K, n]


def test_density_matrix_size_guard():
    with pytest.raises(OracleError):
        density_matrix(HALF, 9)
    with pytest.raises(OracleError):
        density_matrix_from_matrix_units(HALF, 5)


def test_marginal_consistency():
    for K in (HALF, SKEW):
        rho4 = density_matrix(K, 4)
        rho3 = density_matrix(K, 3)
        traced = partial_trace_last_site(rho4)
        np.testing.assert_allclose(traced.matrix, rho3.matrix, atol=1e-10)
    with pytest.raises(OracleError):
        partial_trace_last_site(density_matrix(HALF, 1))


def test_vn_entropy_anchors():
    rho = FockDensityMatrix(n=1, matrix=np.diag([0.5, 0.5]).astype(complex))
    assert vn_entropy(rho) == pytest.approx(math.log(2.0), abs=1e-14)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert vn_entropy(FockDensityMatrix(n=2, matrix=pure)) == 0.0


def test_oracle_equivalence_small_sweep():
    rng = np.random.default_rng(40)
    for _ in range(3):
        K = random_interval_set(rng)
        f = SymbolFunction.indicator(K)
        for n in range(1, 5):
            assert block_entropy_oracle(K, n) == pytest.approx(
                block_entropy(f, n), abs=1e-8)


def test_density_matrix_validation():
    bad = np.eye(4, dtype=complex) * 0.25
    bad[0, 1] = 0.5                          # not Hermitian
    with pytest.raises(FailedCheckError, match="not Hermitian"):
        FockDensityMatrix(n=2, matrix=bad)
    with pytest.raises(FailedCheckError, match="trace"):
        FockDensityMatrix(n=2, matrix=np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="expected 4 x 4"):
        FockDensityMatrix(n=2, matrix=np.eye(2, dtype=complex) / 2)
    with pytest.raises(FailedCheckError, match="eigenvalue"):
        FockDensityMatrix(n=1, matrix=np.diag([1.5, -0.5]).astype(complex))
