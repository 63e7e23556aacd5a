"""Brute-force Fock-space oracle for small blocks.

The reduced density matrix of an n-site block is assembled entry by entry
from spin matrix units mapped through the Jordan-Wigner parity strings, using
the entries of the two-point matrix Q only. The complex Q = Q_n is built
here, from the coefficients q(0..n - 1) of the symbol, and nowhere else in
the package. Its spectrum is computed once, by ``toeplitz.spectrum`` on the
same coefficients, only to validate Q (eigenvalue count, trace moments and
range [0, 1]); no eigenvalue of Q enters the density matrix.
Diagonalizing that 2^n x 2^n matrix, once, both checks that it is positive
and gives the block entropy a second, independent way, which cross-checks
Tr eta_tilde(Q_n) from the Toeplitz route.

Entry (r, c) has column bit b and row bit b' at site k. Once its parity
strings cancel to a sign, it is the expectation of a word in site order:
c+c at (b, b') = (0, 0), cc+ at (1, 1), c+ at (0, 1) and c at (1, 0). In a
gauge-invariant quasi-free state only c+c and cc+ contractions survive, so
Wick's Pfaffian of the word is sgn(pi) det M, with C and A the sorted
creator and annihilator sites, M[i, j] = Q[C_i, A_j] - delta(C_i, A_j) when
b = b' = 1 at C_i (there the pair is cc+ = 1 - n), else Q[C_i, A_j], and pi
the permutation taking the word to C_1 A_1 C_2 A_2 ... Everything but Q in
that recipe, the entries' places, signs, sites and deltas, depends on n
alone and is built once per n (``_layout``, cached for n up to
MAX_ORACLE_SITES, read-only); each call reads Q into it, one batch of
determinants per word size. The Wick recursion ``wick_expectation`` is the
definitional reference that assembly is tested against, through a literal
matrix-unit assembly kept with the tests.

Conventions fixed here:
  * Basis index bit order: site 0 is the most significant bit.
  * Bit 0 at site k means matrix-unit index 1, i.e. the occupied state
    (the n=1 density matrix is diag(q(0), 1 - q(0))).
  * rho[j, i] carries the expectation of the product of E_{i_k j_k}
    matrix units, which is what Tr(rho E) = phi(E) requires.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .toeplitz import SymbolFunction, eta, fourier_coefficients, spectrum
from .torus_sets import FailedCheckError, TorusIntervalSet, _counts

MAX_WORD_LEN = 24
MAX_ORACLE_SITES = 8


class OracleError(ValueError):
    """Word or block size outside the oracle's brute-force range."""


def wick_expectation(word, q_window: np.ndarray) -> complex:
    """Quasi-free expectation of an operator word by Wick recursion.

    Elementary contractions: <c_i+ c_j> = Q[i, j], <c_i c_j+> =
    delta_ij - Q[j, i], and same-type pairs vanish. Words of odd length or
    with unequal creation and annihilation counts are zero outright. The
    recursion pairs the leftmost operator with each later partner,
    alternating signs, and memoizes on the bitmask of surviving positions.
    """
    word = tuple(word)
    length = len(word)
    if length > MAX_WORD_LEN:
        raise OracleError(f"word length {length} exceeds {MAX_WORD_LEN}")
    q_window = np.asarray(q_window)
    dim = q_window.shape[0]
    if q_window.shape != (dim, dim):
        raise OracleError("two-point matrix must be square")
    if np.max(np.abs(q_window - q_window.conj().T), initial=0.0) > 1e-10:
        raise OracleError("two-point matrix must be Hermitian")
    for site, _ in word:
        if not (0 <= site < dim):
            raise OracleError(f"site {site} outside the {dim}-site window")

    if length % 2 == 1:
        return 0j
    if sum(1 for _, dagger in word if dagger) * 2 != length:
        return 0j
    if length == 0:
        return 1 + 0j

    contraction = [[0j] * length for _ in range(length)]
    for x in range(length):
        sx, dx = word[x]
        for y in range(x + 1, length):
            sy, dy = word[y]
            if dx and not dy:
                contraction[x][y] = complex(q_window[sx, sy])
            elif not dx and dy:
                contraction[x][y] = (1.0 if sx == sy else 0.0) - complex(q_window[sy, sx])

    memo: dict[int, complex] = {}

    def paired(mask: int) -> complex:
        if mask == 0:
            return 1 + 0j
        cached = memo.get(mask)
        if cached is not None:
            return cached
        first = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << first)
        row = contraction[first]
        total = 0j
        sign = 1.0
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            m ^= 1 << j
            c = row[j]
            if c != 0:
                total += sign * c * paired(rest ^ (1 << j))
            sign = -sign
        memo[mask] = total
        return total

    return paired((1 << length) - 1)


@dataclass(eq=False)
class FockDensityMatrix:
    """Reduced density matrix on n sites in the occupation basis, with its
    ascending eigenvalues from the positivity check. A matrix of the wrong
    shape raises ValueError; one that fails the Hermitian, unit-trace or
    positivity check raises FailedCheckError."""

    n: int
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = 1 << self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"expected {dim} x {dim} matrix for n={self.n}")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > 1e-10:
            raise FailedCheckError(f"density matrix not Hermitian: deviation {herm:.3g}")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > 1e-10:
            raise FailedCheckError(f"density matrix trace {tr} differs from 1")
        self.eigenvalues = np.linalg.eigvalsh(self.matrix)
        pmin = float(self.eigenvalues[0])
        if pmin < -1e-10:
            raise FailedCheckError(f"density matrix has eigenvalue {pmin:.3g} < 0")
        self.matrix.setflags(write=False)
        self.eigenvalues.setflags(write=False)


def _validated_window(f: SymbolFunction, n: int) -> np.ndarray:
    """Q_n of ``f``, after ``spectrum`` has checked its eigenvalue count,
    trace moments and range [0, 1] (EigensolveError otherwise)."""
    coeffs = fourier_coefficients(f, n - 1)
    spectrum(coeffs)
    return _hermitian_toeplitz(coeffs.values)


def _hermitian_toeplitz(row: np.ndarray) -> np.ndarray:
    """Read-only view of the complex Q[l, k] = q(k - l) with first row
    ``row`` = q(0..n - 1): q(k - l) on and above the diagonal, conj q(l - k)
    below it."""
    n = len(row)
    line = np.concatenate([row[:0:-1].conj(), row])     # q(t - n + 1), t < 2n - 1
    return np.lib.stride_tricks.sliding_window_view(line, n)[::-1]


@functools.lru_cache(maxsize=MAX_ORACLE_SITES)
def _layout(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The part of ``density_matrix`` at n sites that depends on n alone,
    built once per n: for each word size m, the rows and columns of its
    entries, their signs (-1)^(P + H + G) sgn(pi), the sorted creator and
    annihilator sites of each entry (m of each), and where M takes the
    delta off (a cc+ pair, b = b' = 1 at a creator that is also an
    annihilator). All arrays are read-only.

    Pairing consecutive sites with b != b', the parity strings cancel to
    (-1)^(P + H + G): P pairs, H pairs whose first site holds c, and G
    units E_22 (cc+) between the two sites of a pair. Entries between
    occupation sectors of different particle number vanish by gauge
    invariance and are left out.
    """
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    weight = bits.sum(axis=1)
    rows, cols = np.nonzero(weight[:, None] == weight[None, :])
    b_row, b_col = bits[rows], bits[cols]

    off = b_row != b_col
    cc = (b_col == 1) & (b_row == 1)
    inside = np.cumsum(off, axis=1) % 2 == 1      # pair heads and the gaps after them
    flips = off.sum(axis=1) // 2 + np.sum(inside & ((off & (b_col == 1)) | cc), axis=1)

    # Two word slots per site: the first holds c+ of c+c and c+, or c of cc+
    # and c; the second the partner of c+c or cc+. Creator i goes to place
    # 2i and annihilator j to 2j + 1; sgn(pi) counts the places out of order.
    slot_c = np.stack([b_col == 0, cc], axis=2).reshape(len(rows), -1)
    slot_a = np.stack([b_col == 1, (b_col == 0) & (b_row == 0)], axis=2).reshape(len(rows), -1)
    place = np.where(slot_c, 2 * np.cumsum(slot_c, axis=1) - 2, 2 * np.cumsum(slot_a, axis=1) - 1)
    place = np.where(slot_c | slot_a, place, -1)
    out_of_order = np.triu(place[:, :, None] > place[:, None, :], 1) & (place[:, None, :] >= 0)
    sign = np.where((flips + out_of_order.sum(axis=(1, 2))) % 2 == 1, -1.0, 1.0)

    has_c, has_a = (b_col == 0) | (b_row == 1), (b_col == 1) | (b_row == 0)
    sizes = has_c.sum(axis=1)
    groups = []
    for m in np.unique(sizes):
        sel = np.flatnonzero(sizes == m)
        creators = np.nonzero(has_c[sel])[1].reshape(len(sel), m, 1)
        annihilators = np.nonzero(has_a[sel])[1].reshape(len(sel), 1, m)
        holes = np.take_along_axis(cc[sel, :, None], creators, axis=1) & (creators == annihilators)
        groups.append((rows[sel], cols[sel], sign[sel], creators, annihilators, holes))
    for array in itertools.chain(*groups):
        array.setflags(write=False)
    return tuple(groups)


def density_matrix(source, n: int) -> FockDensityMatrix:
    """Reduced density matrix of an n-site block, each entry one signed
    determinant (see the module docstring), batched by word size over the
    layout of n sites (``_layout``, built once per n).

    Every entry is evaluated independently (no Hermitian mirroring), so the
    Hermiticity of the result is a genuine consistency check.
    """
    [n] = _counts([n])
    if n > MAX_ORACLE_SITES:
        raise OracleError(f"oracle handles 1..{MAX_ORACLE_SITES} sites, got {n}")
    q = _validated_window(SymbolFunction.of(source), n)
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for rows, cols, sign, creators, annihilators, holes in _layout(n):
        rho[rows, cols] = sign * np.linalg.det(q[creators, annihilators] - holes)
    return FockDensityMatrix(n=n, matrix=rho)


def vn_entropy(rho: FockDensityMatrix) -> float:
    """Von Neumann entropy (nats) of the density matrix."""
    return float(np.sum(eta(rho.eigenvalues)))


def block_entropy_oracle(K: TorusIntervalSet | SymbolFunction, n: int) -> float:
    """Block entropy via the Fock-space route; the quantity that must agree
    with the Toeplitz eigenvalue route to oracle precision."""
    return vn_entropy(density_matrix(K, n))
