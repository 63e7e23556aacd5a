"""Definitional references that only the tests use, kept out of the package.

The Fock-space oracle's density matrix is checked against a literal
assembly from products of matrix-unit expansions, each word evaluated by the
Wick recursion ``oracle.wick_expectation``, and against its own marginals;
the entropy density is the closed form that a scan's S_N / N approaches.
"""

import itertools

import numpy as np

from entropy_lab.oracle import FockDensityMatrix, OracleError, _validated_window, wick_expectation
from entropy_lab.toeplitz import SymbolFunction, eta_tilde
from entropy_lab.torus_sets import _counts

# (site, dagger) pairs; a word is a tuple of them, leftmost factor first.
FermionOp = tuple[int, bool]


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


def density_matrix_from_matrix_units(source, n: int) -> FockDensityMatrix:
    """Literal assembly from products of matrix_unit_word expansions.

    Exponentially more words than density_matrix (the parity strings are not
    cancelled), so it is capped at 4 sites; it exists as the definitional
    reference the optimized assembly is tested against.
    """
    [n] = _counts([n])
    if n > 4:
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


def partial_trace_last_site(rho: FockDensityMatrix) -> FockDensityMatrix:
    """Trace out the last site (the least significant bit)."""
    if rho.n < 2:
        raise OracleError("nothing left after tracing a single site")
    dim = 1 << (rho.n - 1)
    small = np.zeros((dim, dim), dtype=complex)
    for s in (0, 1):
        small += rho.matrix[s::2, s::2]
    return FockDensityMatrix(n=rho.n - 1, matrix=small)


def entropy_density(f: SymbolFunction) -> float:
    """Entropy per site of the infinite chain: integral of eta_tilde over the
    symbol. Exactly zero for pure symbols."""
    return float(sum((b - a) * eta_tilde(v) for a, b, v in f.pieces()))
