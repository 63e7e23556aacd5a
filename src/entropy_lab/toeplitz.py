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

Spectra are verified: every eigenpair must satisfy
||Q v - lambda v|| <= 1e-8 ||Q||. A set symmetric about a centre c (single
intervals, Cantor truncations) has a symbol whose demodulated coefficients
r(k) = q(k) exp(2 pi i k c), with c = -arg q(1) / (2 pi), are real; the
demodulation is a diagonal unitary similarity and keeps the spectrum.
Dropping Im r moves each eigenvalue by at most (2N - 1) max |Im r(k)|
(Weyl's inequality); the real path is taken only when that bound is at most
1e-9 q(0). The real symmetric Toeplitz matrix T of Re r is centrosymmetric,
J T J = T with J the index reversal, so the orthogonal similarity onto the
vectors with u = +-J u splits it into two Toeplitz-plus-Hankel blocks of
half the order (Cantoni & Butler, Linear Algebra Appl. 13, 1976). With
m = N // 2 and i, j < m these are r(|i - j|) +- r(N - 1 - i - j); for odd N
the even block is bordered by the column sqrt(2) r(m - i) and the corner
r(0). ``spectrum`` solves the two blocks and never forms T, which takes
about a quarter of the work of one order-N solve and residual check.
Forming r +- r and sqrt(2) r rounds each block entry, which moves the
blocks by at most 1.5 N eps max |r(k)| in the 2-norm; that charge and the
Weyl bound are added to the eigenpair residual before the 1e-8 ||Q|| gate.
Every other symbol (q(1) = 0, asymmetric sets, mixed symbols without a
centre) is solved as the complex Hermitian Q_N.

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
    """Eigendecomposition failed or left large residuals."""


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
    """eta(x) + eta(1 - x): entropy of the (x, 1-x) pair, maximal log 2 at 1/2."""
    x = _clip_unit(x, "eta_tilde argument")
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log(xi) - (1.0 - xi) * np.log1p(-xi)
    return out if out.ndim else float(out)


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
        if K.is_empty:
            return cls((0.0, 1.0), (0.0,))
        if K.is_full:
            return cls((0.0, 1.0), (1.0,))
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
    """Fourier coefficients q(0)..q(n_max); negative orders follow from
    q(-k) = conj(q(k))."""

    n_max: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.shape != (self.n_max + 1,):
            raise ValueError("coefficient array must have n_max + 1 entries")
        if abs(self.values[0].imag) > 1e-13:
            raise ValueError(f"q(0) must be real, got {self.values[0]}")
        q0 = self.values[0].real
        if np.any(np.abs(self.values) > q0 + 1e-9):
            raise ValueError("|q(k)| exceeds q(0); symbol not in [0, 1]")
        self.values = self.values.copy()
        self.values[0] = q0
        self.values.setflags(write=False)


# Phases are reduced mod 1 before the exponential: x is split into a head of
# _HEAD_BITS bits, whose product with an integer k < _MAX_ORDER is exact in a
# double, and a tail below 2^-26, whose product with k stays below 2.
_HEAD_BITS = 26
_MAX_ORDER = 2 ** (_HEAD_BITS + 1)
# Jumps per matrix product. It bounds the (rows, chunk) and (chunk, block)
# factors, so memory stays near the (rows, block) accumulator whatever the
# jump count.
_ENDPOINT_CHUNK = 64


def _phase(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k * x mod 1 to about one ulp, for integers 0 <= k < _MAX_ORDER and
    x in [0, 1); the result lies in [0, 3)."""
    head = np.floor(x * 2.0 ** _HEAD_BITS) / 2.0 ** _HEAD_BITS
    return np.mod(k * head, 1.0) + k * (x - head)


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
    v = np.asarray(f.values)
    jumps = v - np.roll(v, 1)
    keep = jumps != 0.0
    x, c = np.asarray(f.breakpoints[:-1])[keep], jumps[keep]
    block = math.isqrt(n_max) + 1
    rows = n_max // block + 1
    high = block * np.arange(rows)[:, None]
    low = np.arange(block)[None, :]
    acc = np.zeros((rows, block), dtype=complex)
    for lo in range(0, len(x), _ENDPOINT_CHUNK):
        xs, cs = x[lo:lo + _ENDPOINT_CHUNK], c[lo:lo + _ENDPOINT_CHUNK]
        hmat = np.exp(-2j * np.pi * _phase(high, xs))
        lmat = cs[:, None] * np.exp(-2j * np.pi * _phase(low, xs[:, None]))
        acc += hmat @ lmat
    vals = acc.ravel()[:n_max + 1]
    vals[1:] /= 2j * np.pi * np.arange(1, n_max + 1)
    vals[0] = f.mean
    return SymbolCoefficients(n_max=n_max, values=vals)


# ---------------------------------------------------------------------------
# Toeplitz restrictions and their spectra
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ToeplitzRestriction:
    """Hermitian N x N block Q_N with entries Q[l, k] = q(k - l).

    Stored as its first row q(0), ..., q(N - 1); ``matrix`` builds Q_N on
    first use, so a spectrum taken on the real path never forms it.
    """

    order: int
    row: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.row.shape != (self.order,):
            raise ValueError("first row length does not match order")
        if self.order and self.row[0].imag != 0.0:
            raise ValueError(f"restriction not Hermitian: q(0) = {self.row[0]}")
        self.row.setflags(write=False)

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
    return ToeplitzRestriction(order=n, row=coeffs.values[:n])


def build_restriction(f: SymbolFunction, n: int) -> ToeplitzRestriction:
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    return restriction_from_coefficients(fourier_coefficients(f, n - 1), n)


# An eigenpair passes when ||Q v - lambda v|| plus any real-path bound stays
# within this fraction of ||Q||.
RESIDUAL_TOL = 1e-8
# The real path is taken only when dropping Im r costs at most this fraction
# of q(0) <= ||Q||, a tenth of the residual budget.
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
    idx = np.arange(m)
    toeplitz = r[np.abs(idx[None, :] - idx[:, None])]
    hankel = r[n - 1 - idx[None, :] - idx[:, None]]
    even = toeplitz + hankel
    odd = toeplitz - hankel
    if n % 2:
        border = math.sqrt(2.0) * r[m - idx]
        even = np.block([[even, border[:, None]], [border[None, :], r[:1, None]]])
    return [even, odd] if m else [even]


# Rounding charge of the real path. Each computed block entry is
# fl(r(a) +- r(b)) = (r(a) +- r(b))(1 + d) with |d| <= u = eps/2, off by at
# most 2 u rho where rho = max |r(k)| (= r(0) for a symbol with values in
# [0, 1], since Q_N >= 0); a border entry fl(fl(sqrt 2) r(k)) is off by at
# most sqrt(2) ((1 + u)^2 - 1) rho < 3 u rho, and the corner r(0) is exact.
# The error matrix D of a block of order p <= (N + 1)/2 <= N is symmetric, so
# ||D||_2 <= ||D||_inf <= p * 3 u rho <= 1.5 N eps rho. The eigenpairs of
# the computed block therefore satisfy ||H v - v w|| <= (computed residual)
# + 1.5 N eps rho for the exact block H, and the orthogonal similarity
# carries that residual unchanged to T.
_BLOCK_ROUNDING = 1.5 * np.finfo(float).eps


def spectrum(restriction: ToeplitzRestriction) -> np.ndarray:
    """Ascending eigenvalues, verified against the residual bound
    ||Q v - lambda v|| <= 1e-8 ||Q|| and clipped into [0, 1].

    When the demodulated first row is real up to REAL_PATH_TOL * q(0) in
    Weyl's bound, the real symmetric Toeplitz matrix T of its real part is
    solved instead of Q_N. T is centrosymmetric, so an orthogonal similarity
    splits it into an even and an odd Toeplitz-plus-Hankel block of half the
    order (``_centrosymmetric_blocks``); each block is solved and checked
    on its own, and T itself is never formed. Weyl's bound plus the rounding
    charge of forming the blocks (1.5 N eps max |r(k)|) is added to the
    residual before the gate. Any other restriction is solved as the
    complex Hermitian Q_N.
    """
    n = restriction.order
    r, weyl = _centred_row(restriction.row)
    if weyl <= REAL_PATH_TOL * r[0]:
        blocks = _centrosymmetric_blocks(r)
        bound = weyl + _BLOCK_ROUNDING * n * float(np.max(np.abs(r)))
    else:
        blocks, bound = [restriction.matrix], 0.0
    values, residual = [], 0.0
    for mat in blocks:
        try:
            w, v = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(
                f"eigendecomposition failed for N={n}: {exc}; "
                f"matrix max |entry| {np.max(np.abs(mat)):.3g}"
            ) from exc
        values.append(w)
        residual = max(residual, float(np.max(np.linalg.norm(mat @ v - v * w, axis=0))))
    w = np.sort(np.concatenate(values))
    norm = float(np.max(np.abs(w)))
    residual += bound
    if residual > RESIDUAL_TOL * norm:
        raise EigensolveError(
            f"eigenpair residual {residual:.3g} (real-path bound {bound:.3g} "
            f"included) exceeds 1e-8 * ||Q|| = {RESIDUAL_TOL * norm:.3g} at N={n}"
        )
    return _clip_unit(w, f"eigenvalue of Q_{n}")


@dataclass(frozen=True)
class EntropyResult:
    """Block size, entropy S_N (nats) and proxy P_N = sum l(1-l)."""

    n: int
    entropy: float
    proxy: float


def entropy_result(restriction: ToeplitzRestriction) -> EntropyResult:
    lam = spectrum(restriction)
    s = float(np.sum(eta_tilde(lam)))
    p = float(np.sum(lam * (1.0 - lam)))
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
        np.sum(np.sin(math.pi * head * length) ** 2 / head)) if n > 1 else 0.0

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

