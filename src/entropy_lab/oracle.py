"""Brute-force Fock-space oracle for small blocks.

The reduced density matrix of an n-site block is assembled entry by entry
from spin matrix units mapped through the Jordan-Wigner parity strings, using
the entries of the two-point matrix Q only. The spectrum of Q is computed
once, by ``toeplitz.spectrum``, only to validate Q (eigenvalue count, trace
moments and range [0, 1]); no eigenvalue of Q enters the density matrix.
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
the permutation taking the word to C_1 A_1 C_2 A_2 ... The Wick recursion
``wick_expectation`` and the literal ``density_matrix_from_matrix_units``
are the definitional reference that assembly is tested against.

Conventions fixed here:
  * Basis index bit order: site 0 is the most significant bit.
  * Bit 0 at site k means matrix-unit index 1, i.e. the occupied state
    (the n=1 density matrix is diag(q(0), 1 - q(0))).
  * rho[j, i] carries the expectation of the product of E_{i_k j_k}
    matrix units, which is what Tr(rho E) = phi(E) requires.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .toeplitz import SymbolFunction, build_restriction, eta, spectrum
from .torus_sets import TorusIntervalSet

MAX_WORD_LEN = 24
MAX_ORACLE_SITES = 8

# (site, dagger) pairs; a word is a tuple of them, leftmost factor first.
FermionOp = tuple[int, bool]


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


def matrix_unit_word(site: int, a: int, b: int, n: int):
    """Expansion of the matrix unit E_ab at ``site`` into weighted fermion
    words.

    Diagonal units are single words c+c and cc+. Off-diagonal units carry the
    parity string prod_{l<site} (2 c+_l c_l - 1), expanded termwise into at
    most 2^site words with exactly representable +-2^j coefficients.
    """
    if not (0 <= site < n):
        raise OracleError(f"site {site} outside window of {n}")
    if a not in (1, 2) or b not in (1, 2):
        raise OracleError(f"matrix-unit indices must be 1 or 2, got ({a}, {b})")
    if a == 1 and b == 1:
        return [(1, ((site, True), (site, False)))]
    if a == 2 and b == 2:
        return [(1, ((site, False), (site, True)))]
    last: FermionOp = (site, True) if (a, b) == (1, 2) else (site, False)
    expansion = []
    for picks in itertools.product((False, True), repeat=site):
        coeff = 1
        ops: list[FermionOp] = []
        for l, take_number_op in enumerate(picks):
            if take_number_op:
                coeff *= 2
                ops += [(l, True), (l, False)]
            else:
                coeff *= -1
        expansion.append((coeff, tuple(ops) + (last,)))
    return expansion


@dataclass(eq=False)
class FockDensityMatrix:
    """Reduced density matrix on n sites in the occupation basis, with its
    ascending eigenvalues from the positivity check."""

    n: int
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = 1 << self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"expected {dim} x {dim} matrix for n={self.n}")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > 1e-10:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.3g}")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        self.eigenvalues = np.linalg.eigvalsh(self.matrix)
        pmin = float(self.eigenvalues[0])
        if pmin < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {pmin:.3g} < 0")
        self.matrix.setflags(write=False)
        self.eigenvalues.setflags(write=False)


def _validated_window(f: SymbolFunction, n: int) -> np.ndarray:
    """Q_n of ``f``, after ``spectrum`` has checked its eigenvalue count,
    trace moments and range [0, 1] (EigensolveError otherwise)."""
    restriction = build_restriction(f, n)
    spectrum(restriction)
    return restriction.matrix


def density_matrix(source, n: int) -> FockDensityMatrix:
    """Reduced density matrix of an n-site block, each entry one signed
    determinant (see the module docstring), batched by word size.

    Pairing consecutive sites with b != b', the parity strings cancel to
    (-1)^(P + H + G): P pairs, H pairs whose first site holds c, and G
    units E_22 (cc+) between the two sites of a pair. Every entry is
    evaluated independently (no Hermitian mirroring), so the Hermiticity of
    the result is a genuine consistency check. Entries between
    occupation sectors of different particle number vanish by gauge
    invariance and are skipped.
    """
    if not (1 <= n <= MAX_ORACLE_SITES):
        raise OracleError(f"oracle handles 1..{MAX_ORACLE_SITES} sites, got {n}")
    q = _validated_window(SymbolFunction.of(source), n)
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> np.arange(n - 1, -1, -1)) & 1
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
    rho = np.zeros((dim, dim), dtype=complex)
    for m in np.unique(sizes):
        sel = np.flatnonzero(sizes == m)
        creators = np.nonzero(has_c[sel])[1].reshape(len(sel), m)
        annihilators = np.nonzero(has_a[sel])[1].reshape(len(sel), m)
        hole = np.take_along_axis(cc[sel], creators, axis=1)[:, :, None]
        mat = (q[creators[:, :, None], annihilators[:, None, :]]
               - (hole & (creators[:, :, None] == annihilators[:, None, :])))
        rho[rows[sel], cols[sel]] = sign[sel] * np.linalg.det(mat)
    return FockDensityMatrix(n=n, matrix=rho)


def density_matrix_from_matrix_units(source, n: int) -> FockDensityMatrix:
    """Literal assembly from products of matrix_unit_word expansions.

    Exponentially more words than density_matrix (the parity strings are not
    cancelled), so it is capped at 4 sites; it exists as the definitional
    reference the optimized assembly is tested against.
    """
    if not (1 <= n <= 4):
        raise OracleError(f"reference assembly is capped at 4 sites, got {n}")
    q = _validated_window(SymbolFunction.of(source), n)
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        row_bits = [(r >> (n - 1 - k)) & 1 for k in range(n)]
        for c in range(dim):
            col_bits = [(c >> (n - 1 - k)) & 1 for k in range(n)]
            factors = [matrix_unit_word(k, col_bits[k] + 1, row_bits[k] + 1, n)
                       for k in range(n)]
            value = 0j
            for combo in itertools.product(*factors):
                coeff = 1
                word: tuple[FermionOp, ...] = ()
                for cf, ops in combo:
                    coeff *= cf
                    word += ops
                value += coeff * wick_expectation(word, q)
            rho[r, c] = value
    return FockDensityMatrix(n=n, matrix=rho)


def vn_entropy(rho: FockDensityMatrix) -> float:
    """Von Neumann entropy (nats) of the density matrix."""
    return float(np.sum(eta(rho.eigenvalues)))


def partial_trace_last_site(rho: FockDensityMatrix) -> FockDensityMatrix:
    """Trace out the last site (the least significant bit)."""
    if rho.n < 2:
        raise OracleError("nothing left after tracing a single site")
    dim = 1 << (rho.n - 1)
    small = np.zeros((dim, dim), dtype=complex)
    for s in (0, 1):
        small += rho.matrix[s::2, s::2]
    return FockDensityMatrix(n=rho.n - 1, matrix=small)


def block_entropy_oracle(K: TorusIntervalSet | SymbolFunction, n: int) -> float:
    """Block entropy via the Fock-space route; the quantity that must agree
    with the Toeplitz eigenvalue route to oracle precision."""
    return vn_entropy(density_matrix(K, n))
