"""Symbols on the torus, their Toeplitz restrictions, and block entropies.

A shift-invariant quasi-free state is fixed by a symbol function
q^(theta) in [0, 1]. Its Fourier coefficients

    q(k) = integral over the torus of q^(theta) * exp(-2 pi i k theta)

fill the Hermitian Toeplitz matrix Q_N with entries Q[l, k] = q(k - l), and
the entropy of a block of N sites is S_N = sum of eta_tilde over the
eigenvalues of Q_N. The quadratic proxy P_N = Tr Q_N(1 - Q_N) bounds S_N
from below and shares its growth exponent; it is computable in O(N) from the
coefficients alone.

The coefficients of a piecewise-constant symbol come from its jumps: with
c_j the jump at breakpoint x_j, 2 pi i k q(k) = sum_j c_j e^{-2 pi i k x_j}
for k != 0. Writing k = r B + s with B = isqrt(n_max) + 1 turns q(1..n_max)
into one blocked matrix product of e^{-2 pi i r B x_j} against
c_j e^{-2 pi i s x_j}, so m jumps cost about 2 m sqrt(n_max) exponentials
instead of 2 m n_max. Each phase k x is reduced mod 1 exactly before its
exponential, by splitting x into a 26-bit head (k * head is exact in a
double for k < 2^27) and a tail, which keeps every q(k) correct to a few
ulps; orders n_max >= 2^27 are refused.

Spectra are computed from real symmetric matrices with eigenvalues only; no
eigenvector and no complex matrix enters the solve. A set symmetric about a
centre c (single intervals, Cantor truncations) has a symbol whose
demodulated coefficients r(k) = q(k) exp(2 pi i k c), with
c = -arg q(1) / (2 pi), are real; the demodulation is a diagonal unitary
similarity and keeps the spectrum. Dropping Im r moves each eigenvalue by at
most (2N - 1) max |Im r(k)| (Weyl's inequality); this split is taken only
when that bound is at most 1e-9 q(0). The real symmetric Toeplitz matrix T
of Re r is centrosymmetric, J T J = T with J the index reversal, so the
orthogonal similarity onto the vectors with u = +-J u splits it into two
Toeplitz-plus-Hankel blocks of half the order (Cantoni & Butler, Linear
Algebra Appl. 13, 1976). With m = N // 2 and i, j < m these are
r(|i - j|) +- r(N - 1 - i - j); for odd N the even block is bordered by the
column sqrt(2) r(m - i) and the corner r(0). Every other symbol (q(1) = 0,
asymmetric sets, mixed symbols without a centre) is solved at order N as
U* Q_N U with U = (I + i J) / sqrt(2): writing Q_N = A + i B, this is the
real symmetric Toeplitz-plus-Hankel matrix A + (J B - B J) / 2 with entries
Re q(|k - l|) + sgn(h) Im q(|h|), h = l + k - N + 1.

The eigenvalues w of each solved matrix H of order p are checked without
eigenvectors: there must be p of them, and |sum w - tr H| and
|sum w^2 - ||H||_F^2| / (2 ||H||) must stay within 1e-8 ||Q|| once the
charge for forming the real matrices (Weyl's bound on the split, and the
rounding of the matrix entries, at most 1.5 N eps max |q(k)|) is added.
Both moments cost O(p^2) against the O(p^3) solve. Every eigenvalue must
then lie within 1e-9 of [0, 1]; one further out fails the solve as a missed
moment does.

Entropies are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .torus_sets import TorusIntervalSet

# Eigenvalues and entropy arguments may poke this far outside [0, 1] before
# we refuse to clip them; eta_tilde has infinite slope at the endpoints, so
# anything worse than rounding noise must not be silently absorbed.
CLIP_TOL = 1e-9


class EntropyDomainError(ValueError):
    """Argument outside [0, 1] by more than the clip tolerance."""


class EigensolveError(RuntimeError):
    """Eigensolve failed, or its eigenvalues missed the trace-moment check."""


# ---------------------------------------------------------------------------
# Entropy functions
# ---------------------------------------------------------------------------

def _clip_unit(x, what: str):
    x = np.asarray(x, dtype=float)
    if np.any(x < -CLIP_TOL) or np.any(x > 1.0 + CLIP_TOL):
        bad = x[(x < -CLIP_TOL) | (x > 1.0 + CLIP_TOL)]
        raise EntropyDomainError(f"{what} outside [0, 1] beyond tolerance: {bad[:4]}")
    return np.clip(x, 0.0, 1.0)


def eta(x):
    """-x log x, continuously extended by eta(0) = 0."""
    x = _clip_unit(x, "eta argument")
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log(x[pos])
    return out if out.ndim else float(out)


def eta_tilde(x):
    """eta(x) + eta(1 - x): entropy of the (x, 1-x) pair, maximal log 2 at 1/2.

    Arguments more than CLIP_TOL outside [0, 1] raise EntropyDomainError;
    the rest are clipped into [0, 1] before ``_eta_tilde_unit``.
    """
    out = _eta_tilde_unit(_clip_unit(x, "eta_tilde argument"))
    return out if out.ndim else float(out)


def _eta_tilde_unit(x: np.ndarray) -> np.ndarray:
    """eta_tilde of a float array already inside [0, 1]; 0 at both ends."""
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log(xi) - (1.0 - xi) * np.log1p(-xi)
    return out


# ---------------------------------------------------------------------------
# Symbols and Fourier coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolFunction:
    """Piecewise-constant function torus -> [0, 1].

    ``breakpoints`` runs from 0.0 to 1.0; ``values[i]`` holds on
    [breakpoints[i], breakpoints[i+1]). Pure symbols (values all 0 or 1) are
    indicator functions of interval sets.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2 or self.breakpoints[0] != 0.0 \
                or self.breakpoints[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if len(self.values) != len(self.breakpoints) - 1:
            raise ValueError("need one value per piece")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")
        for v in self.values:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"symbol value {v} outside [0, 1]")

    @classmethod
    def indicator(cls, K: TorusIntervalSet) -> "SymbolFunction":
        bps = [0.0]
        vals = []
        cursor = 0.0
        for s, e in K.intervals:
            if s > cursor:
                bps.append(s)
                vals.append(0.0)
            bps.append(e)
            vals.append(1.0)
            cursor = e
        if cursor < 1.0:
            bps.append(1.0)
            vals.append(0.0)
        return cls(tuple(bps), tuple(vals))

    @classmethod
    def constant(cls, v: float) -> "SymbolFunction":
        return cls((0.0, 1.0), (float(v),))

    @classmethod
    def of(cls, source) -> "SymbolFunction":
        """``source`` itself if it is a symbol, else the indicator of the
        interval set ``source``."""
        if isinstance(source, SymbolFunction):
            return source
        if isinstance(source, TorusIntervalSet):
            return cls.indicator(source)
        raise TypeError(f"expected a SymbolFunction or TorusIntervalSet, "
                        f"got a {type(source).__name__}")

    def pieces(self):
        return zip(self.breakpoints, self.breakpoints[1:], self.values)

    @property
    def mean(self) -> float:
        """Integral of the symbol; equals the particle density and q(0)."""
        return sum((b - a) * v for a, b, v in self.pieces())


@dataclass(eq=False)
class SymbolCoefficients:
    """Fourier coefficients q(0)..q(n_max), finite, with n_max + 1 the
    length of ``values``; negative orders follow from q(-k) = conj(q(k))."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.ndim != 1 or not len(self.values):
            raise ValueError("coefficients must be a 1-D array with at least one entry")
        if not np.isfinite(self.values).all():
            raise ValueError("coefficients must be finite")
        if abs(self.values[0].imag) > 1e-13:
            raise ValueError(f"q(0) must be real, got {self.values[0]}")
        q0 = self.values[0].real
        if np.abs(self.values).max() > q0 + 1e-9:
            raise ValueError("|q(k)| exceeds q(0); symbol not in [0, 1]")
        self.values = self.values.copy()
        self.values[0] = q0
        self.values.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


# Phases are reduced mod 1 before the exponential: x is split into a head of
# _HEAD_BITS bits, whose product with an integer k < _MAX_ORDER is exact in a
# double, and a tail below 2^-26, whose product with k stays below 2.
_HEAD_BITS = 26
_MAX_ORDER = 2 ** (_HEAD_BITS + 1)
# Jumps per matrix product. It bounds the (rows, chunk) and (chunk, block)
# factors, so memory stays near the (rows, block) accumulator whatever the
# jump count.
_ENDPOINT_CHUNK = 64


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x in [0, 1) as head + tail, with a head of _HEAD_BITS bits and a tail
    below 2^-26."""
    head = np.floor(x * 2.0 ** _HEAD_BITS) / 2.0 ** _HEAD_BITS
    return head, x - head


def _phase(k: np.ndarray, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """k * x mod 1 to about one ulp, for integers 0 <= k < _MAX_ORDER and
    x = head + tail from ``_split``; the result lies in [0, 3)."""
    return np.mod(k * head, 1.0) + k * tail


def fourier_coefficients(f: SymbolFunction, n_max: int) -> SymbolCoefficients:
    """All of q(0)..q(n_max) as one blocked sum over the jumps of f.

    Summed over the pieces [a, b) with value v, the closed forms
    v (e^{-2 pi i k a} - e^{-2 pi i k b}) / (2 pi i k) telescope to

        2 pi i k q(k) = sum_j c_j e^{-2 pi i k x_j},   k != 0,

    over the breakpoints x_j in [0, 1), with jumps c_j = v_j - v_{j-1}
    (wrapping at 0, since e^{-2 pi i k} = 1); zero jumps drop out. With
    k = r B + s and B = isqrt(n_max) + 1 the sum is the matrix product
    (H @ L)[r, s] of H[r, j] = e^{-2 pi i r B x_j} and
    L[j, s] = c_j e^{-2 pi i s x_j}, so about 2 m sqrt(n_max) exponentials
    and one complex matrix product replace 2 m n_max exponentials. Every
    phase is reduced mod 1 exactly before its exponential (see ``_phase``),
    which keeps q(k) correct to a few ulps at any k and limits n_max to
    below 2^27.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max >= _MAX_ORDER:
        raise ValueError(f"n_max must be below 2^{_HEAD_BITS + 1} = {_MAX_ORDER}, "
                         f"the limit of exact phase reduction; got {n_max}")
    v = f.values
    jumps = np.subtract(v, v[-1:] + v[:-1])          # v_j - v_{j-1}, wrapping at 0
    keep = jumps != 0.0
    x, c = np.asarray(f.breakpoints[:-1])[keep], jumps[keep]
    block = math.isqrt(n_max) + 1
    rows = n_max // block + 1
    high = block * np.arange(rows)[:, None]
    low = np.arange(block)[None, :]
    acc = np.zeros((rows, block), dtype=complex)
    for lo in range(0, len(x), _ENDPOINT_CHUNK):
        head, tail = _split(x[lo:lo + _ENDPOINT_CHUNK])
        cs = c[lo:lo + _ENDPOINT_CHUNK, None]
        hmat = np.exp(-2j * np.pi * _phase(high, head, tail))
        lmat = cs * np.exp(-2j * np.pi * _phase(low, head[:, None], tail[:, None]))
        acc += hmat @ lmat
    vals = acc.ravel()[:n_max + 1]
    vals[1:] /= 2j * np.pi * np.arange(1, n_max + 1)
    vals[0] = f.mean
    return SymbolCoefficients(vals)


# ---------------------------------------------------------------------------
# Toeplitz restrictions and their spectra
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ToeplitzRestriction:
    """Hermitian N x N block Q_N with entries Q[l, k] = q(k - l).

    Stored as its first row q(0), ..., q(N - 1), from which ``spectrum``
    builds its real matrices; N is the row's length. ``matrix`` builds the
    complex Q_N on first use, for the Fock-space oracle; the solve never
    forms it.
    """

    row: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.row.ndim != 1:
            raise ValueError("first row must be a 1-D array")
        if self.order and self.row[0].imag != 0.0:
            raise ValueError(f"restriction not Hermitian: q(0) = {self.row[0]}")
        self.row.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.row)

    @cached_property
    def matrix(self) -> np.ndarray:
        diff = _lags(self.order)                    # diff[l, k] = k - l
        lag = np.abs(diff)
        mat = np.where(diff >= 0, self.row[lag], np.conj(self.row[lag]))
        mat.setflags(write=False)
        return mat


def _lags(n: int) -> np.ndarray:
    idx = np.arange(n)
    return idx[None, :] - idx[:, None]


def restriction_from_coefficients(coeffs: SymbolCoefficients, n: int) -> ToeplitzRestriction:
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    if coeffs.n_max < n - 1:
        raise ValueError(f"need coefficients up to {n - 1}, have {coeffs.n_max}")
    return ToeplitzRestriction(coeffs.values[:n])


def build_restriction(f: SymbolFunction, n: int) -> ToeplitzRestriction:
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    return restriction_from_coefficients(fourier_coefficients(f, n - 1), n)


# The eigenvalues pass when their first two trace moments, plus the rounding
# charge of forming the real matrices, stay within this fraction of ||Q||.
RESIDUAL_TOL = 1e-8
# The half-order split is taken only when dropping Im r costs at most this
# fraction of q(0) <= ||Q||, a tenth of the moment budget.
REAL_PATH_TOL = 1e-9


def _centred_row(row: np.ndarray) -> tuple[np.ndarray, float]:
    """Real part of the demodulated row r(k) = q(k) exp(2 pi i k c), with
    c = -arg q(1) / (2 pi), and the Weyl bound (2N - 1) max |Im r(k)| on how
    far dropping Im r moves any eigenvalue.

    A symbol symmetric about c (or c + 1/2) has every r(k) real; for any
    other the bound comes out large.
    """
    if len(row) < 2:
        return row.real, 0.0
    r = row * np.exp(-1j * np.angle(row[1]) * np.arange(len(row)))
    return r.real, (2 * len(row) - 1) * float(np.max(np.abs(r.imag)))


def _window(line: np.ndarray, p: int, row_step: int) -> np.ndarray:
    """Read-only p x p view W[i, j] = line[i + j] (row_step 1) or
    line[p - 1 - i + j] (row_step -1) of a contiguous line of length 2p - 1.

    Built as a strided ndarray on the line's buffer: the same view as
    ``sliding_window_view``, without its argument checks, which cost several
    times the view itself on small blocks.
    """
    size = line.itemsize
    view = np.ndarray((p, p), line.dtype, buffer=line,
                      offset=(p - 1) * size if row_step < 0 else 0,
                      strides=(row_step * size, size))
    view.flags.writeable = False
    return view


def _toeplitz(a: np.ndarray) -> np.ndarray:
    """Read-only view of the symmetric Toeplitz matrix T[i, j] = a(|i - j|)."""
    line = np.concatenate([a[:0:-1], a])            # a(|t - p + 1|), t < 2p - 1
    return _window(line, len(a), -1)


def _hankel(g: np.ndarray, p: int) -> np.ndarray:
    """Read-only view of the Hankel matrix H[i, j] = g(i + j) of order p."""
    return _window(np.ascontiguousarray(g[:2 * p - 1]), p, 1)


def _centrosymmetric_blocks(r: np.ndarray) -> list[np.ndarray]:
    """The blocks of the real symmetric Toeplitz matrix T[i, j] = r(|i - j|)
    of order N under the orthogonal similarity onto the vectors with
    u = +-J u: the even block of order ceil(N/2), then the odd block of
    order floor(N/2), which is left out when empty (N = 1).

    With m = N // 2 and i, j < m, the Toeplitz part r(|i - j|) plus or minus
    the Hankel part r(N - 1 - i - j) gives the even and odd blocks. For odd N
    the middle site pairs with the even vectors only: the even block is
    bordered by the column sqrt(2) r(m - i) and the corner r(0).
    """
    n = len(r)
    m = n // 2
    even = np.empty((n - m, n - m))
    if n % 2:
        border = math.sqrt(2.0) * r[m::-1]
        even[m, :] = even[:, m] = border
        even[m, m] = r[0]
    if not m:
        return [even]
    toeplitz, hankel = _toeplitz(r[:m]), _hankel(r[::-1], m)
    np.add(toeplitz, hankel, out=even[:m, :m])
    return [even, toeplitz - hankel]


def _real_form(row: np.ndarray) -> np.ndarray:
    """The real symmetric matrix U* Q_N U with U = (I + i J) / sqrt(2).

    Write Q_N = A + i B with A[l, k] = Re q(|k - l|) symmetric Toeplitz and
    B[l, k] = sgn(k - l) Im q(|k - l|) antisymmetric Toeplitz, so J A J = A
    and J B J = -B. Then U* Q_N U = A + (J B - B J) / 2, whose imaginary
    parts cancel because A J = J A. (J B - B J) / 2 is the Hankel matrix
    sgn(h) Im q(|h|) with h = l + k - N + 1.
    """
    n = len(row)
    im = row.imag                                   # Im q(0) = 0
    return _toeplitz(row.real) + _hankel(np.concatenate([-im[:0:-1], im]), n)


# Rounding charges of the real matrices. The similarities are exact, so a
# computed matrix H + D differs from its exact H only by the error matrix D of
# its entries, and by Weyl's inequality no eigenvalue moves by more than
# ||D||_2. On the half-order split each computed block entry is
# fl(r(a) +- r(b)) = (r(a) +- r(b))(1 + d) with |d| <= u = eps/2, off by at
# most 2 u rho where rho = max |r(k)| (= r(0) for a symbol with values in
# [0, 1], since Q_N >= 0); a border entry fl(fl(sqrt 2) r(k)) is off by at
# most sqrt(2) ((1 + u)^2 - 1) rho < 3 u rho, and the corner r(0) is exact.
# The error matrix D of a block of order p <= (N + 1)/2 <= N is symmetric, so
# ||D||_2 <= ||D||_inf <= p * 3 u rho <= 1.5 N eps rho.
_BLOCK_ROUNDING = 1.5 * np.finfo(float).eps
# On the order-N real form each entry is one rounded sum
# fl(Re q(a) + sgn(h) Im q(b)), off by at most u (|Re q(a)| + |Im q(b)|)
# <= 2 u rho = eps rho with rho = max |q(k)|; Re and Im are read exactly.
# Its error matrix is symmetric of order N, so ||D||_2 <= ||D||_inf
# <= N eps rho.
_FORM_ROUNDING = np.finfo(float).eps


def _real_matrices(row: np.ndarray) -> tuple[list[np.ndarray], float]:
    """Real symmetric matrices whose spectra together are the spectrum of
    Q_N, and the bound on how far forming them moves any eigenvalue.

    A row that is real up to REAL_PATH_TOL * q(0) after demodulation gives
    the two half-order blocks, charged with Weyl's bound and their rounding;
    any other row gives the order-N real form, charged with its rounding.
    """
    n = len(row)
    r, weyl = _centred_row(row)
    if weyl <= REAL_PATH_TOL * r[0]:
        rho = float(np.max(np.abs(r)))
        return _centrosymmetric_blocks(r), weyl + _BLOCK_ROUNDING * n * rho
    return [_real_form(row)], _FORM_ROUNDING * n * float(np.max(np.abs(row)))


def _moment_gaps(mat: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """|sum w - tr H| and |sum w^2 - ||H||_F^2| / (2 ||H||) for eigenvalues w
    of the symmetric matrix H, both on the scale of an eigenvalue shift; O(p^2)
    for order p. ||H|| is taken as max |w|."""
    scale = 2.0 * float(np.abs(w).max()) or 1.0
    flat = mat.ravel()
    first = float(w.sum()) - float(mat.trace())
    second = (float(w @ w) - float(flat @ flat)) / scale
    return abs(first), abs(second)


def spectrum(restriction: ToeplitzRestriction) -> np.ndarray:
    """Ascending eigenvalues, checked by their first two trace moments and
    by one range check, and clipped into [0, 1].

    Every restriction is solved as real symmetric matrices with eigenvalues
    only (``np.linalg.eigvalsh``); no eigenvector and no complex matrix is
    formed. When the demodulated first row is real up to REAL_PATH_TOL * q(0)
    in Weyl's bound, its real symmetric Toeplitz matrix T is centrosymmetric
    and an orthogonal similarity splits it into an even and an odd
    Toeplitz-plus-Hankel block of half the order (``_centrosymmetric_blocks``).
    Any other restriction is solved at order N as the real form
    U* Q_N U = A + (J B - B J) / 2 (``_real_form``).

    Each solved matrix H of order p must give exactly p eigenvalues w, and
    both |sum w - tr H| and |sum w^2 - ||H||_F^2| / (2 ||H||), plus the
    charge for forming the real matrices (Weyl's bound and rounding), must
    stay within 1e-8 ||Q||. Every eigenvalue must then lie within CLIP_TOL
    of [0, 1], since Q_N is a compression of a symbol with values in [0, 1];
    an eigenvalue further out is a failed solve and raises EigensolveError,
    like the checks before it. The checked eigenvalues are clipped into
    [0, 1], so ``_eta_tilde_unit`` applies to them without a second check.
    """
    n = restriction.order
    blocks, bound = _real_matrices(restriction.row)
    values, gaps = [], []
    for mat in blocks:
        try:
            w = np.linalg.eigvalsh(mat)
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(
                f"eigensolve failed for N={n}: {exc}; "
                f"matrix max |entry| {np.max(np.abs(mat)):.3g}"
            ) from exc
        if np.shape(w) != (len(mat),):
            raise EigensolveError(f"eigensolve returned {np.size(w)} eigenvalues for "
                                  f"a block of order {len(mat)} at N={n}")
        values.append(w)
        gaps.append(_moment_gaps(mat, w))
    # eigvalsh returns ascending values, so one block needs no sort.
    w = values[0] if len(values) == 1 else np.sort(np.concatenate(values))
    # A NaN anywhere makes lo, hi and so norm NaN, which fails the moment gates.
    lo, hi = float(w.min()), float(w.max())
    norm = max(-lo, hi)
    for moment, gap in enumerate(map(max, zip(*gaps)), start=1):
        gap += bound
        if not gap <= RESIDUAL_TOL * norm:
            raise EigensolveError(
                f"trace moment {moment} gap {gap:.3g} (real-form charge {bound:.3g} "
                f"included) exceeds 1e-8 * ||Q|| = {RESIDUAL_TOL * norm:.3g} at N={n}"
            )
    if lo < -CLIP_TOL or hi > 1.0 + CLIP_TOL:
        raise EigensolveError(
            f"eigenvalue outside [0, 1] by {max(-lo, hi - 1.0):.3g}, beyond the "
            f"clip tolerance {CLIP_TOL:g}, at N={n}"
        )
    return np.clip(w, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else w


@dataclass(frozen=True)
class EntropyResult:
    """Block size, entropy S_N (nats) and proxy P_N = sum l(1-l)."""

    n: int
    entropy: float
    proxy: float


def entropy_result(restriction: ToeplitzRestriction) -> EntropyResult:
    lam = spectrum(restriction)
    s = float(_eta_tilde_unit(lam).sum())
    p = float((lam * (1.0 - lam)).sum())
    return EntropyResult(n=restriction.order, entropy=s, proxy=p)


def block_entropy(f: SymbolFunction, n: int) -> float:
    return entropy_result(build_restriction(f, n)).entropy


# ---------------------------------------------------------------------------
# Quadratic proxy: O(N) coefficient route and single-interval series route
# ---------------------------------------------------------------------------

def purity_proxy_direct(coeffs: SymbolCoefficients, n: int) -> float:
    """Tr Q_N(1 - Q_N) = N q(0) - sum_{|m| < N} (N - |m|) |q(m)|^2."""
    return proxy_scan(coeffs, [n])[0]


def proxy_scan(coeffs: SymbolCoefficients, grid) -> list[float]:
    """purity_proxy_direct over a whole grid via cumulative sums (O(1) per N
    after an O(N_max) pass)."""
    grid = list(grid)
    if min(grid) < 1:
        raise ValueError(f"block size must be >= 1, got {min(grid)}")
    n_top = max(grid)
    if coeffs.n_max < n_top - 1:
        raise ValueError(f"need coefficients up to {n_top - 1}, have {coeffs.n_max}")
    q0 = coeffs.values[0].real
    sq = np.abs(coeffs.values[1:n_top]) ** 2
    cum = np.concatenate([[0.0], np.cumsum(sq)])             # sum of |q(m)|^2, m<=k
    mcum = np.concatenate([[0.0], np.cumsum(np.arange(1, n_top) * sq)])
    out = []
    for n in grid:
        s1, s2 = cum[n - 1], mcum[n - 1]
        out.append(float(n * q0 * (1.0 - q0) - 2.0 * (n * s1 - s2)))
    return out


# Jin-Korepin constant of the single-interval asymptotics
# S_N = (1/3) ln(2 N sin(pi L)) + UPSILON + O(N^-2) (J. Stat. Phys. 116,
# 2004): the double nearest to their integral
# -int_0^inf [e^-t/(3t) + 1/(t sinh^2(t/2)) - cosh(t/2)/(2 sinh^3(t/2))] dt.
UPSILON = 0.49501790813513705

# Oscillatory remainders are dropped only once their rigorous bound is below
# this; the bound comes from Abel summation of cos(2 pi n x)/n^2 tails.
_SERIES_TAIL_BOUND = 1e-10


def _series_cutoff(length: float, n: int) -> int:
    """Cutoff M of the series route: past M the oscillatory half of the tail,
    at most (N/pi^2) / (M^2 sin(pi L)), is below _SERIES_TAIL_BOUND."""
    sin_floor = math.sin(math.pi * length)
    need = math.sqrt(n / (math.pi ** 2 * _SERIES_TAIL_BOUND * sin_floor))
    return max(n + 1, int(math.ceil(need)))


def _trigamma(m: int) -> float:
    """psi_1(m) = sum_{j>=m} 1/j^2 for a series-route cutoff m."""
    # psi_1(M) = 1/M + 1/(2 M^2) + 1/(6 M^3) - 1/(30 M^5) + ... (Abramowitz &
    # Stegun 6.4.12). Since sin(pi L) <= 1 and N >= 1, _series_cutoff is at
    # least sqrt(1 / (pi^2 * 1e-10)), i.e. M >= 31831, where the first omitted
    # term is at most 3.3e-20 of psi_1(M), below double rounding.
    return 1.0 / m + 1.0 / (2.0 * m ** 2) + 1.0 / (6.0 * m ** 3)


def purity_proxy_single_interval_series(length: float, n: int) -> float:
    """Independent series route for a single interval of given length:

        Tr Q_N(1-Q_N) = (2N/pi^2) sum_{m>=N} sin^2(pi m L)/m^2
                      + (2/pi^2)  sum_{m<N}  sin^2(pi m L)/m.

    The infinite tail is summed term by term up to a cutoff M; past M the
    smooth half of sin^2 = (1 - cos)/2 is added as trigamma(M)/2 from the
    three-term series trigamma(M) = 1/M + 1/(2M^2) + 1/(6M^3), whose first
    omitted term is below 3.3e-20 relative since M >= 31831, and the
    oscillatory half is dropped, with its Abel bound 1/(M^2 sin(pi L))
    pushed below 1e-10. The sin^2 identity that would collapse this route
    back onto the coefficient route is never used.
    """
    if not (0.0 < length <= 0.5):
        raise ValueError(f"interval length must lie in (0, 1/2], got {length}")
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    cutoff = _series_cutoff(length, n)

    head = np.arange(1, n)
    term_head = (2.0 / math.pi ** 2) * float(
        np.sum(np.sin(math.pi * head * length) ** 2 / head))

    tail_sum = 0.0
    chunk = 1 << 20
    lo = n
    while lo < cutoff:
        hi = min(cutoff, lo + chunk)
        m = np.arange(lo, hi, dtype=float)
        tail_sum += float(np.sum(np.sin(math.pi * m * length) ** 2 / m ** 2))
        lo = hi
    # Flat part of the remaining tail: sum_{m>=M} 1/(2 m^2) = trigamma(M)/2.
    tail_sum += 0.5 * _trigamma(cutoff)
    return (2.0 * n / math.pi ** 2) * tail_sum + term_head


def entropy_density(f: SymbolFunction) -> float:
    """Entropy per site of the infinite chain: integral of eta_tilde over the
    symbol. Exactly zero for pure symbols."""
    return float(sum((b - a) * eta_tilde(v) for a, b, v in f.pieces()))

