"""Symbols on the torus, their Toeplitz restrictions, and block entropies.

A shift-invariant quasi-free state is fixed by a symbol function
q^(theta) in [0, 1]. Its Fourier coefficients

    q(k) = integral over the torus of q^(theta) * exp(-2 pi i k theta)

fill the Hermitian Toeplitz matrix Q_N with entries Q[l, k] = q(k - l), and
the entropy of a block of N sites is S_N = sum of eta_tilde over the
eigenvalues of Q_N. The first row of Q_N is q(0..N - 1), so one checked
array of coefficients (``SymbolCoefficients``) of order N is the
restriction Q_N, and a view of its first n entries is Q_n for every
n <= N. The quadratic proxy P_N = Tr Q_N(1 - Q_N) bounds S_N from below and
shares its growth exponent; it is computable in O(N) from the coefficients
alone.

The coefficients of a piecewise-constant symbol come from its jumps: with
c_j the jump at breakpoint x_j, 2 pi i k q(k) = sum_j c_j e^{-2 pi i k x_j}
for k != 0. Writing k = r B + s with B = isqrt(n_max) + 1 turns q(1..n_max)
into one blocked matrix product of e^{-2 pi i r B x_j} against
c_j e^{-2 pi i s x_j}. Each factor of a large pass is itself the outer
product of two tables of about B^{1/2} entries, the low one centred on 0 so
that half its entries are conjugates of the others, so m jumps cost about
3 m n_max^{1/4} exponentials instead of 2 m n_max. Each phase k x is
reduced mod 1 exactly before its exponential, by splitting x into a 26-bit
head (k * head is exact in a double for k < 2^27) and a tail, which keeps
every q(k) correct to a few ulps, and the division by 2 pi k carries the
tail of pi that np.pi drops; orders n_max >= 2^27 are refused.
Several symbols can share one pass (``joint_fourier_coefficients``), since
the tables depend on the jump positions only.

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
Algebra Appl. 13, 1976). Every other symbol (q(1) = 0, asymmetric sets,
mixed symbols without a centre) is solved at order N as U* Q_N U with
U = (I + i J) / sqrt(2): writing Q_N = A + i B, this is the real symmetric
Toeplitz-plus-Hankel matrix A + (J B - B J) / 2. Either way each real block
of order p is

    D (T + s Hk) D,   T[i, j] = a(|i - j|),   Hk[i, j] = g(i + j),   i, j < p,

and ``_blocks`` reads its column a, its Hankel line g, its sign s and D off
the line of ``_real_lines``. On the split a = r and g(k) = r(N - 1 - k), with
s = +1 for the even block, of order N - m, m = N // 2, and s = -1 for the
odd one, of order m; on the real form a = Re q, g(k) = sgn(h) Im q(|h|) with
h = k - N + 1, and s = +1. D is the identity but for the odd-N even block:
the middle site pairs with the even vectors only, and the last entry
sqrt(1/2) of D gives the border column sqrt(2) r(m - i) and the corner r(0).
Each restriction has its own line; the lines of one N are demodulated as
one stack. ``_blocks`` turns each line once into two contiguous lines of
length 2 p - 1, p the largest order: the Toeplitz line a(|k - p + 1|) and
the Hankel line g. A dense solve forms the blocks of one order from strided
windows of those lines, cut and stacked (``_real_matrices``); the plunge
pass below applies them through FFTs.

The eigenvalues w of each solved matrix H of order p are checked without
eigenvectors: there must be p of them, and |sum w - tr H| and
|sum w^2 - ||H||_F^2| / (2 ||H||) must stay within 1e-8 ||Q|| once the
charge for forming the real matrices (Weyl's bound on the split, and the
rounding of the matrix entries, at most 1.5 N eps max |q(k)|) is added.
Both moments cost O(p^2) against the O(p^3) solve. Every eigenvalue must
then lie within 1e-9 of [0, 1]; one further out fails the solve as a missed
moment does. The dense blocks of one order, from one restriction or from
several of one N (``entropy_results``), are formed into one stack and
solved as one ``eigvalsh`` call, whose moments, counts and extremes are
taken for all its blocks at once, and each restriction is checked on its
own.

``entropy_result`` needs only the plunge eigenvalues, the few away from 0
and 1, since eta_tilde vanishes at both ends. For a large block H of order p
whose plunge trace t = tr H - ||H||_F^2 = sum of v_i, v_i = l_i (1 - l_i), is
small, it takes the top k of M = H - H^2 by a Rayleigh-Ritz pass instead
of a dense solve (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011): from a
fixed-seed start W of uniform rows on [-1, 1), the orthonormal rows Z of
the row space of W M (two products with H and one QR), then the eigenvalues
theta_i of the matrix Z M Z^T (one more product). The pass runs on the
first k - 8 rows of W (at least one), and only when that bracket misses
does it run again on all k rows; t decides when to rerun, as in the
adaptive range finder of Halko, Martinsson & Tropp (section 4.4), capped at
the rank k of the selection rule. Each theta maps back through
h(v) = eta_tilde((1 - sqrt(1 - 4 v)) / 2), the entropy of the eigenvalue
pair with l (1 - l) = v, so S_block = sum h(v_i) over all p eigenvalues.
The result is certified, with k the number of rows of the pass:

    sum h(theta_i) <= S_block <= sum h(theta_i) + R (2 - ln(R / p)),
    R = t - sum theta_i.

Lower end: by Cauchy interlacing the i-th largest Ritz value is at most the
i-th largest v, and h increases. Upper end: h is concave on [0, 1/4] with
h(0) = 0, hence subadditive, so h(v_i) <= h(theta_i) + h(v_i - theta_i) for
i <= k; the p terms v_i - theta_i (i <= k) and v_i (i > k) are nonnegative
and sum to R, so by Jensen's inequality their h-values sum to at most
p h(R / p). Finally h(v) <= v (2 - ln v) for v <= 1/10: with
ln v = ln l + ln(1 - l) and -(1 - l) ln(1 - l) <= l, eta_tilde(l) <=
l (1 - ln v) = v (1 - ln v) / (1 - l), which is at most v (2 - ln v) when
l (2 - ln v) <= 1, and l <= 2 v makes that so for v <= 1/10. A bracket with
R / p > 1/10 exceeds 0.2 p and is never accepted, so every accepted one
is at most R (2 - ln(R / p)). h is concave because its slope,
ln((1 - l) / l) / (1 - 2 l) = 2 artanh(x) / x with x = 1 - 2 l, falls as l
grows. An eigenvalue of H outside [0, 1] makes some v negative, so that t
falls below the sum of the top k: sum theta > t is this path's moment check.
The start's distribution does not enter the certificate, which is checked
after the pass.

The pass never forms a block D (T + s Hk) D. Zero-padded to a length
L >= 2 p - 1, T x is the circular convolution of x with the symmetric column
c = a(min(j, L - j)), whose transform C is real (circulant embedding:
Strang, Stud. Appl. Math. 74, 1986; Chan & Ng, SIAM Rev. 38, 1996), and
Hk x that of g with x read backwards, whose transform is conj(X) for a real
row x with transform X. So one rfft of the rows of one block and one irfft
of C X + s G conj(X) apply that block (``_PlungeOperator``), one block at a
time. L is the smallest 5-smooth integer >= 2 p - 1 for the larger order p:
about N on the split, whose two blocks share C and G, and about 2 N on the
order-N real form. The path holds O(N k) numbers, no p x p array, so it runs
past any order a dense solve could take; a block that certifies at its
first pass holds k - 8 rows.

t is taken from the line the blocks are built from, in O(N). On the
order-N real form t = P_N = N q(0) - sum_{|s| < N} (N - |s|) |q(s)|^2,
since trace and Frobenius norm survive the unitary similarity. On the
half-order split t_even + t_odd is that sum on r, and
t_even - t_odd = 2 tr Hk - 4 <T, Hk> with Hk the Hankel part
r(N - 1 - i - j); grouped by s = i + j,
<T, Hk> = sum_{s < 2m - 1} r(N - 1 - s) F(min(s, 2m - 2 - s)) with
F(j) = sum of r(|d|) over d = -j, -j + 2, ..., j, the prefix sums of the even
and of the odd entries of r. For odd N the border adds
r(0) - r(0)^2 - 4 sum_{j = 1..m} r(j)^2 to t_even - t_odd.

These sums stay in float64 and are exact but for a few roundings (Ogita,
Rump & Oishi, SIAM J. Sci. Comput. 26, 2005). With c(0) = x(0) - |x(0)|^2
and c(s) = -2 |x(s)|^2 for s >= 1, P_N = N C(N) - W(N), where C(N) and W(N)
sum c(s) and s c(s) over s < N. So one O(n) pass over a line of length n
(``_proxies``) gives P_N at any sizes up to n; ``proxy_scan`` asks it for its
grid, the plunge trace for N = n alone. Each square is split into two
doubles exactly (Dekker's TwoProduct), so the terms of c, k = 3 or 5 rows of
n (x(0), then p and e of the real and of the imaginary parts), are exact.
The twist's prefix sums carry the exact error of each of their additions
(TwoSum), and its terms are exact but for the rounding of those corrections,
of second order. Each term is cut at the power of two
sigma > 4 (n S_P + S_T), S_P and S_T the sums of |term| over c and over the
twist. Its part above u sigma is a multiple of u sigma, and sigma bounds
every such part times s or N and every partial sum of those, so the parts
and their sums, products with s and N and differences are exact in any
order (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008) while
n C u <= 1/4, C = k n + C_T the count of terms: up to N = 2^24 (u = eps/2).
An e, at most u |p| < u sigma / 4, has no such part. The rests, at most
u sigma each, are cut once more in the same way at the power of two
sigma_2 > 4 u sigma (k n^2 + C_T), and those parts add up exactly too. The
parts go into three accumulators over s: the first parts, the second parts,
and the second rests, at most u sigma_2 each, in float. Only the sizes asked
for are totalled: the exact accumulators by segments between the sizes
(np.add.reduceat), the float one by prefix sums over every s, in an order
set by the line alone, so that no P_N depends on the other sizes. The
column sums of the second rests, at most k u sigma_2 each, pass through
their own sums and N C(N) - W(N) within k u^2 sigma_2 N^2 (3 N / 2 + k + 1/2)
to first order, and the rest of P_N, at most n C u sigma, is rounded once:
B = u^2 n C (sigma + 2 (n + k) sigma_2) covers both. It is at most the
u^2 n C (sigma + 3 C sigma_2) of double prefix sums over every N, since
2 (n + k) <= 3 k n. So P_N, and t on the real form, is within u |t| + B of
its exact value for the line's doubles. On the split the twist's rests,
summed in float, are off by at most u^2 C_T^2 sigma_2, its rest rounds
once, and the sum of the two groups' rests once more: 2 B covers all three,
for u |t| + 2 B + u^2 N^4 rho^2, rho = max |line|, where N^4 rho^2 bounds
the twist's prefix-sum corrections. That is t of the block formed from the
line in exact arithmetic, which is what the FFT products apply, so t
carries no charge for the rounding of formed entries. On [0.3, 0.55) at
N = 16384 the charge is 1.2e-16, with B = 1.4e-18; one extraction would
leave 2 u^2 sigma n C (n + k) = 4.6e-14, and the formed entries' rounding,
about 3 u tr H, 6.8e-13.

The Ritz values carry two charges. The Ritz matrix is
((Z - Y) Y^T + its transpose) / 2 with Y the computed rows Z H, from inner
products of length p whose worst-case bound, gamma_p |Z - Y| |Y|, is about
1e-12 per value at p = 724: over k = 30 values, ten times all the room R has
within the bracket. So each theta is charged the first-order probabilistic
bound for such products instead (Higham & Mary, SIAM J. Sci. Comput. 41,
2019), lambda u sqrt(p) ||M|| with lambda = 8 and ||M|| <= 1/4, that is
sqrt(p) eps. The products with H are FFTs (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., 2002, ch. 24). A transform of length L
runs through about log2 L stages, each rounding every entry by a few u at
most. Under the same model these errors are independent with mean zero, so
over the 2 log2 L stages of both transforms and the pointwise step they add
in quadrature, and the error of a row is a norm over L entries, which
concentrates about its root mean square. The pointwise step scales the
rows by at most max |C| + max |G| <= ||c||_1 + ||g||_1, which also bounds
||H|| and so the rounding of D. Per row x the computed H x is then off by
at most beta ||x||, with

    beta = 2 u sqrt(2 log2 L + 1) (||c||_1 + ||g||_1),

the factor 2 for the few u of a complex multiply-add; ||c||_1 counts a(0)
once and every other lag twice. With Y = Z H + E the computed Ritz matrix is
Z M Z^T + sym((Z - Y) E^T - E Y^T) to first order, and a Ritz value with
unit eigenvector v moves by v^T (Z - 2 Y) E^T v = (E^T v)^T (I - 2 H) Z^T v,
at most ||E^T v|| since 0 <= H <= I; E^T v weighs the rows' independent
errors with unit total, so its norm is about beta. Each theta is charged
sqrt(p) eps + beta. The explicit symmetrisation matters: eigvalsh reads one
triangle, and one triangle of (Z - Y) E^T would not have that quadratic
form. On interval unions at N = 2 to 2048 the FFT products stayed within
0.68 beta per row (at N = 2; 0.14 beta from N = 362 on). Against
64-bit-mantissa products on the same rows Z, the largest Ritz-value error
was 1.2% to 6.4% of its charge and at most 0.17 beta, at N = 362 to 2048.
beta is known before the operator is built, since L depends on p only: the
selection rule charges it at once.
The certified lower end takes each theta lowered by its charge, R takes the
t charge on top, and the block is accepted when its bracket is within its
share of CERTIFICATE_TOL; otherwise it is formed (``_real_matrices``) and
solved densely, as before. ``spectrum`` always solves densely.

Entropies are in nats throughout.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .torus_sets import FailedCheckError, TorusIntervalSet, _counts

# Eigenvalues and entropy arguments may poke this far outside [0, 1] before
# we refuse to clip them; eta_tilde has infinite slope at the endpoints, so
# anything worse than rounding noise must not be silently absorbed.
CLIP_TOL = 1e-9


class EntropyDomainError(ValueError):
    """Argument outside [0, 1] by more than the clip tolerance."""


class EigensolveError(FailedCheckError):
    """Eigensolve failed, or its eigenvalues missed the trace-moment check."""


# ---------------------------------------------------------------------------
# Entropy functions
# ---------------------------------------------------------------------------

def _clip_unit(x, what: str):
    x = np.asarray(x, dtype=float)
    inside = (x >= -CLIP_TOL) & (x <= 1.0 + CLIP_TOL)     # False for NaN
    if not inside.all():
        bad = x[~inside]
        nan = ", or NaN" if np.isnan(bad).any() else ""
        raise EntropyDomainError(f"{what} outside [0, 1] beyond tolerance{nan}: {bad[:4]}")
    return np.clip(x, 0.0, 1.0)


def eta(x):
    """-x log x, continuously extended by eta(0) = 0. Arguments more than
    CLIP_TOL outside [0, 1], and NaN, raise EntropyDomainError."""
    x = _clip_unit(x, "eta argument")
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log(x[pos])
    return out if out.ndim else float(out)


def eta_tilde(x):
    """eta(x) + eta(1 - x): entropy of the (x, 1-x) pair, maximal log 2 at 1/2.

    Arguments more than CLIP_TOL outside [0, 1], and NaN, raise
    EntropyDomainError; the rest are clipped into [0, 1] before
    ``_eta_tilde_unit``.
    """
    out = _eta_tilde_unit(_clip_unit(x, "eta_tilde argument"))
    return out if out.ndim else float(out)


def _eta_tilde_unit(x: np.ndarray) -> np.ndarray:
    """eta_tilde of a float array already inside [0, 1]; 0 at both ends."""
    out = np.zeros(x.shape)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    neg = -xi
    out[inner] = neg * np.log(xi) - (1.0 - xi) * np.log1p(neg)
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
        # kept as tuples, whatever sequences were given
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "values", tuple(self.values))
        if not all(math.isfinite(x) for x in self.breakpoints):
            raise ValueError(f"breakpoints must be finite, got {self.breakpoints}")
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
    """Fourier coefficients q(0)..q(N - 1) of a symbol with values in
    [0, 1], N = ``order`` >= 1 the length of ``values``; negative orders
    follow from q(-k) = conj(q(k)). As a whole they are the first row of the
    Hermitian Toeplitz restriction Q_N, Q[l, k] = q(k - l), and their first
    n are that of Q_n.

    Stored as a read-only copy with q(0) made real, checked once here: the
    coefficients must be finite, q(0) real within 1e-13 and inside
    [0, 1 + 1e-9], and every |q(k)| at most q(0) + 1e-9; anything else
    raises ValueError. The solves read views of the copy, at the order they
    need, and neither copy nor check it again.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values)
        if values.ndim != 1 or not len(values):
            raise ValueError("coefficients must be a 1-D array with at least one entry")
        largest = float(np.maximum.reduce(np.abs(values)))  # not finite if any entry is not
        if not math.isfinite(largest):
            raise ValueError("coefficients must be finite")
        first = values[0]
        if abs(first.imag) > 1e-13:
            raise ValueError(f"q(0) must be real, got {first}: Q_N not Hermitian")
        q0 = first.real
        if not 0.0 <= q0 <= 1.0 + 1e-9:
            raise ValueError(f"q(0) = {q0} outside [0, 1]; symbol not in [0, 1]")
        if largest > q0 + 1e-9:
            raise ValueError("|q(k)| exceeds q(0); symbol not in [0, 1]")
        values[0] = q0
        values.setflags(write=False)
        self.values = values

    @property
    def order(self) -> int:
        return len(self.values)


def _first_row(coeffs: SymbolCoefficients, n: int) -> np.ndarray:
    """q(0)..q(n - 1) of ``coeffs``, the first row of Q_n, as a read-only
    view; ValueError when the coefficients stop short of it."""
    if coeffs.order < n:
        raise ValueError(f"need coefficients up to {n - 1}, have {coeffs.order - 1}")
    return coeffs.values[:n]


# Phases are reduced mod 1 before the exponential: x is split into a head of
# _HEAD_BITS bits, whose product with an integer k < _MAX_ORDER is exact in a
# double, and a tail below 2^-26, whose product with k stays below 2.
_HEAD_BITS = 26
_MAX_ORDER = 2 ** (_HEAD_BITS + 1)
# Jumps per matrix product. It bounds the (rows, chunk) and (chunk, block)
# factors, so memory stays near the (rows, block) accumulator whatever the
# jump count. On 2 cores (numpy 2.4, OpenBLAS), in process and interleaved,
# the proxy scans to 16384 of the 127- and 511-interval Cantor truncations
# (254 and 1022 jumps) took 0.92 of their 64-jump time at 128 jumps, and the
# coefficient passes alone were slower at 80 or 96 than at either. The price
# is memory: 128-jump tables hold 256 KiB each, and the peak traced memory of
# the 1022-jump pass goes from 1.05 to 1.37 MiB (peak RSS +0.3 to 0.5 MiB).
_ENDPOINT_CHUNK = 128
# An exponential table with at least this many entries (jumps x length) is
# built from two short tables; a smaller one takes one exponential per
# entry, which is cheaper there. On 2 cores (numpy 2.4, OpenBLAS) a 64-jump
# table of length 32 (2048 entries) took 33 us in two levels against 65 us in
# one, and one of length 8 (512 entries) 23 us against 19 us; at 1024 entries
# two levels were 10-15% faster, too little to move the one-level tables of
# smaller passes to other bits. A single interval up to N = 1448 (2 jumps,
# tables up to 39 long) and the depth-5 Cantor set up to order 255 (64
# jumps, tables of 16) stay on one level.
_TWO_LEVEL_MIN = 2048
# 2 pi as a head of 26 bits, whose product with an order k < 2^27 is exact,
# and a tail that holds pi - np.pi = 1.2246467991473532e-16 as well, so that
# head k + tail k is 2 pi k to within one rounding. 2 np.pi k alone falls
# short by 3.9e-17 of itself, which makes every |q(k)|^2 high by 7.8e-17.
_TWO_PI_HEAD = math.floor(2 * math.pi * 2 ** 23) / 2 ** 23
_TWO_PI_TAIL = 2 * math.pi - _TWO_PI_HEAD + 2 * 1.2246467991473532e-16


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x in [0, 1) as head + tail, with a head of _HEAD_BITS bits and a tail
    below 2^-26."""
    head = np.floor(x * 2.0 ** _HEAD_BITS) / 2.0 ** _HEAD_BITS
    return head, x - head


def _phase(k: np.ndarray, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """k * x mod 1 to about one ulp, for integers 0 <= k < _MAX_ORDER and
    x = head + tail with head a multiple of 2^-26 in [0, 1), as from
    ``_split``; the result lies in [0, 1 + k * tail)."""
    t = k * head
    t -= np.floor(t)
    return t + k * tail


def _exp_table(head: np.ndarray, tail: np.ndarray, count: int, step: int) -> np.ndarray:
    """E[t, j] = e^{-2 pi i t step x_j} for t < count, with x = head + tail
    from ``_split`` and t * step < _MAX_ORDER.

    Below _TWO_LEVEL_MIN entries each entry is the exponential of its own
    reduced phase. Above, step x is first reduced to the pair
    y = (frac(step head), step tail): step head is exact, since step < 2^14
    and head has 26 bits, so frac(step head) is again a 26-bit head, while
    step tail < 2^-12 is one rounded product; re-splitting a rounded step x
    instead would lose up to ``count`` ulps in t step x. With
    w = ceil(sqrt(count)), h = floor(w / 2) and t = a w + h + d, the low
    part d centred in [-h, w - h), E[t] is then the product of
    e^{-2 pi i (a w + h) y} (a < ceil(count / w)) and e^{-2 pi i d y}, whose
    negative d are the exact conjugates of positive ones. So h + 1 +
    ceil(count / w) exponentials per jump, about 1.5 sqrt(count), replace
    ``count``; the first entries, t <= h, are h + 1 of them as they are, so
    E[0] is exactly 1 on either branch.

    Error: ``_phase`` reduces each (a w + h) y and d y exactly but for two
    roundings (k * tail and the sum), and every phase stays below 4, so each
    short-table entry is within a few ulps of its exact value, as a one-level
    entry is, and conjugation is exact. Their product adds one rounded
    complex product (below 2.3 ulps), so an entry of the long table is still
    within a few ulps.
    """
    if len(head) * count < _TWO_LEVEL_MIN:
        return np.exp(-2j * np.pi * _phase(np.arange(0, count * step, step)[:, None],
                                           head, tail))
    head, tail = step * head, step * tail
    head -= np.floor(head)
    width = math.isqrt(count - 1) + 1
    half = width // 2
    # d = 0..h, then the high offsets a w + h, from one exponential call
    orders = np.array([*range(half + 1), *range(half, count + half, width)])
    both = np.exp(-2j * np.pi * _phase(orders[:, None], head, tail))
    low = np.concatenate((both[half:0:-1].conj(), both[:width - half]))
    table = (both[half + 1:, None, :] * low).reshape(-1, len(head))[:count]
    table[:half + 1] = both[:half + 1]
    return table


def fourier_coefficients(f: SymbolFunction, n_max: int) -> SymbolCoefficients:
    """All of q(0)..q(n_max), coefficients of order n_max + 1, as one
    blocked sum over the jumps of f.

    Summed over the pieces [a, b) with value v, the closed forms
    v (e^{-2 pi i k a} - e^{-2 pi i k b}) / (2 pi i k) telescope to

        2 pi i k q(k) = sum_j c_j e^{-2 pi i k x_j},   k != 0,

    over the breakpoints x_j in [0, 1), with jumps c_j = v_j - v_{j-1}
    (wrapping at 0, since e^{-2 pi i k} = 1); zero jumps drop out. With
    k = r B + s and B = isqrt(n_max) + 1 the sum is the matrix product
    (H @ L)[r, s] of H[r, j] = e^{-2 pi i r B x_j} and
    L[j, s] = c_j e^{-2 pi i s x_j}. Each factor comes from ``_exp_table``,
    which builds a large one from two tables of about B^{1/2} entries per
    jump, the low one centred so that half of it is conjugates: about
    1.5 B^{1/2} exponentials per jump and factor, so about 3 m n_max^{1/4}
    exponentials and one complex matrix product replace 2 m n_max
    exponentials (36 per jump at n_max = 16383). Every phase is reduced
    mod 1 exactly before its exponential (see ``_phase``), which keeps q(k)
    correct to a few ulps at any k and limits n_max to below 2^27. The sums
    are divided by 2 pi k to within one rounding (see _TWO_PI_HEAD), so the
    q(k) lean neither way.
    """
    return joint_fourier_coefficients([f], n_max)[0]


def joint_fourier_coefficients(symbols, n_max: int) -> list[SymbolCoefficients]:
    """``fourier_coefficients`` of each of ``symbols`` up to ``n_max``, from
    one table pass: the exponential tables depend only on the jump
    positions, so each chunk of _ENDPOINT_CHUNK jumps of all the symbols
    gets its tables H and L once. With several symbols, L is widened to one
    block of columns per symbol, holding the rows of that symbol's jumps and
    zeros elsewhere, so one product gives every symbol's sums side by side.
    One symbol takes exactly the arithmetic of a pass of its own."""
    [n_max] = _counts([n_max], "coefficient order", 0)
    if n_max >= _MAX_ORDER:
        raise ValueError(f"n_max must be below 2^{_HEAD_BITS + 1} = {_MAX_ORDER}, "
                         f"the limit of exact phase reduction; got {n_max}")
    symbols = list(symbols)
    count = len(symbols)
    if not count:
        return []
    # v_j - v_{j-1}, wrapping at 0, and x_j of every symbol, as one array
    values, before, starts = np.array([sum(parts, ()) for parts in zip(
        *((f.values, f.values[-1:] + f.values[:-1], f.breakpoints[:-1]) for f in symbols))])
    jumps = values - before
    keep = jumps != 0.0
    x, c = starts[keep], jumps[keep]
    if count > 1:                                   # symbol i has the jumps x[ends[i]:ends[i + 1]]
        flags, ends, start = keep.tolist(), [0], 0
        for f in symbols:
            ends.append(ends[-1] + sum(flags[start:start + len(f.values)]))
            start += len(f.values)
    block = math.isqrt(n_max) + 1
    rows = n_max // block + 1
    acc = np.zeros((rows, count * block), dtype=complex)
    for lo in range(0, len(x), _ENDPOINT_CHUNK):
        hi = min(lo + _ENDPOINT_CHUNK, len(x))
        head, tail = _split(x[lo:hi])
        hmat = _exp_table(head, tail, rows, block)
        lmat = _exp_table(head, tail, block, 1)
        lmat = np.multiply(lmat, c[lo:hi], out=lmat).T   # in place, and a view: no copy
        if count > 1:
            wide = np.zeros((hi - lo, count, block), dtype=complex)
            for i, (first, last) in enumerate(zip(ends, ends[1:])):
                rows_i = slice(max(first, lo) - lo, max(min(last, hi) - lo, 0))
                wide[rows_i, i] = lmat[rows_i]
            lmat = wide.reshape(hi - lo, -1)
        acc += hmat @ lmat
    # each symbol's q(0..n_max): a view of acc for one symbol, a copy for several
    vals = acc.reshape(rows, count, block).transpose(1, 0, 2).reshape(count, -1)[:, :n_max + 1]
    # q(k) = -i sum / (2 pi k), with 2 pi k to within one rounding
    k = np.arange(1.0, n_max + 1)
    vals[:, 1:] /= _TWO_PI_HEAD * k + _TWO_PI_TAIL * k
    vals[:, 1:] *= -1j
    vals[:, 0] = [f.mean for f in symbols]
    return [SymbolCoefficients(v) for v in vals]


# ---------------------------------------------------------------------------
# Toeplitz restrictions and their spectra
# ---------------------------------------------------------------------------

def restriction_from_coefficients(coeffs: SymbolCoefficients, n: int) -> SymbolCoefficients:
    """The restriction Q_n of ``coeffs``: its first row q(0)..q(n - 1) as
    coefficients of order n, a view of the checked array, neither copied
    nor checked again."""
    [n] = _counts([n])
    prefix = copy.copy(coeffs)                      # no __post_init__: no second check
    prefix.values = _first_row(coeffs, n)
    return prefix


# The eigenvalues pass when their first two trace moments, plus the rounding
# charge of forming the real matrices, stay within this fraction of ||Q||.
RESIDUAL_TOL = 1e-8
# The half-order split is taken only when dropping Im r costs at most this
# fraction of q(0) <= ||Q||, a tenth of the moment budget.
REAL_PATH_TOL = 1e-9


def _centred_rows(rows: np.ndarray) -> np.ndarray:
    """The demodulated rows r(k) = q(k) exp(2 pi i k c), with
    c = -arg q(1) / (2 pi), of a stack of first rows of length N, one c per
    row. A symbol symmetric about c (or c + 1/2) has every r(k) real."""
    n = rows.shape[1]
    # the phase of q(1); at N = 1 that of q(0) >= 0, which is 0
    turn = rows[:, 1 % n, None]
    return rows * np.exp(-1j * np.arctan2(turn.imag, turn.real) * np.arange(n))


def _window(line: np.ndarray, p: int, row_step: int) -> np.ndarray:
    """Read-only p x p view W[i, j] = line[i + j] (row_step 1) or
    line[c - i + j] (row_step -1), c = L // 2 the centre, of a C-contiguous
    line of odd length L at least 2p - 1; of a C-contiguous stack of such
    lines, the stack of their views.

    Built as a strided ndarray on the line's buffer: the same view as
    ``sliding_window_view``, without its argument checks, which cost several
    times the view itself on small blocks.
    """
    size = line.itemsize
    view = np.ndarray(line.shape[:-1] + (p, p), line.dtype, buffer=line,
                      offset=line.shape[-1] // 2 * size if row_step < 0 else 0,
                      strides=line.strides[:-1] + (row_step * size, size))
    view.setflags(write=False)
    return view


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
_BLOCK_ROUNDING = 1.5 * float(np.finfo(float).eps)
# On the order-N real form each entry is one rounded sum
# fl(Re q(a) + sgn(h) Im q(b)), off by at most u (|Re q(a)| + |Im q(b)|)
# <= 2 u rho = eps rho with rho = max |q(k)|; Re and Im are read exactly.
# Its error matrix is symmetric of order N, so ||D||_2 <= ||D||_inf
# <= N eps rho.
_FORM_ROUNDING = float(np.finfo(float).eps)


def _real_lines(rows) -> list[tuple[np.ndarray, tuple, float]]:
    """For first rows ``rows``, all of one length N, per row: the line that
    the real symmetric matrices whose spectra together are the spectrum of
    its Q_N are built from, its blocks as ``_blocks`` reads them, and the
    bound on how far forming those matrices moves any eigenvalue.

    Dropping Im r of the demodulated row (``_centred_rows``) moves each
    eigenvalue by at most the Weyl bound (2N - 1) max |Im r(k)|. A row whose
    bound is at most REAL_PATH_TOL * q(0) gives the real line r of the two
    half-order blocks, charged with that bound and their rounding; any other
    row is itself the line of the order-N real form, charged with its
    rounding. A line is real exactly when it is that of the split. The rows
    are demodulated as one stack, with max |Im r| and max |r| of every row
    from one reduction each; each line is a view of its stack.
    """
    stack = np.array(rows, dtype=complex)
    n = stack.shape[1]
    centred = _centred_rows(stack)
    r = centred.real
    imags = np.maximum.reduce(np.abs(centred.imag), axis=1).tolist()
    reals = np.maximum.reduce(np.abs(r), axis=1).tolist()
    out = []
    for i, (imag, real, first) in enumerate(zip(imags, reals, r[:, 0].tolist())):
        weyl = (2 * n - 1) * imag
        if weyl <= REAL_PATH_TOL * first:
            line, bound = r[i], weyl + _BLOCK_ROUNDING * n * real
        else:
            line = stack[i]
            bound = _FORM_ROUNDING * n * float(np.abs(line).max())
        out.append((line, _blocks(line), bound))
    return out


def _blocks(line: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray, bool]:
    """The real blocks of a line from ``_real_lines``: their orders, largest
    first, two contiguous lines of length 2 p - 1 for the largest order p,
    and whether D borders the first block (odd N on the split). The lines
    are the Toeplitz line, a(|k - p + 1|) at k, whose second half
    a(0)..a(p - 1) is the column a, and the Hankel line g. Block b is
    D (T + s Hk) D with T[i, j] = a(|i - j|), Hk[i, j] = g(i + j) and
    s = (-1)^b; the module docstring derives a and g of the half-order split
    of a real line and of the order-N real form of a complex one."""
    n = len(line)
    if line.dtype.kind == "c":
        orders, a, border = [n], line.real, False
        g = np.concatenate([-line.imag[:0:-1], line.imag])
    else:
        p = n - n // 2
        orders, a, border = [p, n // 2][:1 + (n > 1)], line[:p], n % 2 == 1
        g = line[::-1][:2 * p - 1].copy()
    return orders, np.concatenate([a[:0:-1], a]), g, border


def _real_matrices(group, p: int, out: np.ndarray) -> np.ndarray:
    """The blocks of order p that ``group`` names, (set, blocks, b) triples
    for block b of a line's ``_blocks``, formed into the stack ``out`` in their
    order: the sums T + Hk of strided windows of order p over the cuts of
    length 2 p - 1 of their two lines, stacked, with Hk negated for the odd
    blocks (t + (-h) is t - h exactly). D then scales the last row and
    column of each odd-N even block by sqrt(1/2), which gives the border
    fl(sqrt 2) r(m - i) exactly, as fl(sqrt(1/2)) = fl(sqrt 2) / 2, and its
    corner is a(0)."""
    cuts, hankels, bordered = [], [], []
    for slot, (_, (_, toeplitz, hankel, border), b) in enumerate(group):
        centre = len(toeplitz) // 2
        cuts.append(toeplitz[centre - p + 1:centre + p])
        hankels.append(-hankel[:2 * p - 1] if b else hankel[:2 * p - 1])
        if border and not b:
            bordered.append(slot)
    lines = np.concatenate(cuts + hankels).reshape(2, len(group), 2 * p - 1)
    np.add(_window(lines[0], p, -1), _window(lines[1], p, 1), out=out)
    for slot in bordered:
        mat = out[slot]
        mat[-1] *= _HALF_ROOT
        mat[:, -1] *= _HALF_ROOT
        mat[-1, -1] = lines[0, slot, p - 1]
    return out


def spectrum(restriction: SymbolCoefficients) -> np.ndarray:
    """Ascending eigenvalues of Q_N, N = ``restriction.order``, whose first
    row is the whole coefficient array; checked by their first two trace
    moments and by one range check, and clipped into [0, 1].

    Every restriction is solved as real symmetric matrices with eigenvalues
    only (``np.linalg.eigvalsh``); no eigenvector and no complex matrix is
    formed. When the demodulated first row is real up to REAL_PATH_TOL * q(0)
    in Weyl's bound, its real symmetric Toeplitz matrix T is centrosymmetric
    and an orthogonal similarity splits it into an even and an odd block of
    half the order. Any other restriction is solved at order N as the real
    form U* Q_N U = A + (J B - B J) / 2. Each block is D (T + s Hk) D, as
    ``_blocks`` reads it off the line (module docstring), formed by
    ``_real_matrices``.

    Each solved matrix H of order p must give exactly p eigenvalues w, and
    both |sum w - tr H| and |sum w^2 - ||H||_F^2| / (2 ||H||), plus the
    charge for forming the real matrices (Weyl's bound and rounding), must
    stay within 1e-8 ||Q||. Every eigenvalue must then lie within CLIP_TOL
    of [0, 1], since Q_N is a compression of a symbol with values in [0, 1];
    an eigenvalue further out is a failed solve and raises EigensolveError,
    like the checks before it. The checked eigenvalues are clipped into
    [0, 1], so ``_eta_tilde_unit`` applies to them without a second check.
    This is ``_solve`` of the one row with every block dense.
    """
    return _solve([restriction.values], plunge=False)[1][0]


def _checked_eigenvalues(kept, bounds: list[float],
                         n: int) -> tuple[np.ndarray, list[int]]:
    """The eigenvalues of the real blocks ``kept``, (set, blocks, b) triples
    naming block b of a set's ``_blocks``, checked and clipped as
    ``spectrum`` describes: one array whose row i holds the eigenvalues of
    set i ascending, then NaN, and the number of them per set. ``bounds``
    are the sets' charges, and ``n`` names the order in messages.

    Each fixed cost is paid once per block order or once per call, not per
    block or per set. The blocks of one order are formed into one stack,
    set-major (``_real_matrices``), and solved as one ``eigvalsh`` call; its
    count check, both trace moments (``np.vecdot``) and the extremes of its
    eigenvalues are taken for all its blocks at once, into one array of
    statistics read back with one ``tolist``. Each block's eigenvalues go to
    its set's row, after those of the set's dense block 0, and all the rows
    are sorted and clipped at once. The gates are applied per set: the
    moment gaps of its blocks plus its own charge against RESIDUAL_TOL times
    its own ||Q||, and the range check of its eigenvalues, from each block's
    own minimum and maximum, so that an unsorted solver output cannot hide
    one; the first set that fails, in order, names its first failed check.
    A set without blocks gets no eigenvalues and no check. A NaN eigenvalue
    makes its block's gaps and extremes NaN, which fails the moment gates.
    """
    groups, counts = {}, [0] * len(bounds)          # order -> its (set, blocks, b) triples
    for i, blocks, b in kept:
        groups.setdefault(blocks[0][b], []).append((i, blocks, b))
        counts[i] += blocks[0][b]
    stats = [[] for _ in bounds]                   # per set: each block's gaps and extremes
    values = np.full((len(bounds), max(counts)), np.nan)    # NaN sorts after every eigenvalue
    for p, group in groups.items():
        size = len(group)
        mats = _real_matrices(group, p, np.empty((size, p, p)))
        try:
            w = np.linalg.eigvalsh(mats)
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"eigensolve failed for N={n}: {exc}; "
                                  f"matrix max |entry| {np.max(np.abs(mats)):.3g}") from exc
        if np.shape(w) != (size, p):
            what = f"{size} blocks" if size > 1 else "a block"
            raise EigensolveError(f"eigensolve returned {np.size(w)} eigenvalues for "
                                  f"{what} of order {p} at N={n}")
        # sum w, tr H, sum w^2, ||H||_F^2 and the extremes of each block
        sums = np.empty((6, size))
        np.add.reduce(w, axis=1, out=sums[0])
        mats.trace(axis1=1, axis2=2, out=sums[1])
        np.vecdot(w, w, out=sums[2])
        np.vecdot(*[mats.reshape(size, -1)] * 2, out=sums[3])
        np.minimum.reduce(w, axis=1, out=sums[4])
        np.maximum.reduce(w, axis=1, out=sums[5])
        for (i, blocks, b), lam, s, tr, sq, fr, lo, hi in zip(group, w, *sums.tolist()):
            top = max(-lo, hi)                      # ||H|| = max |w|
            stats[i].append((abs(s - tr), abs(sq - fr) / (2.0 * top or 1.0), top, lo, hi))
            start = blocks[0][0] if b and counts[i] > p else 0     # after a dense block 0
            values[i, start:start + p] = lam
    for blocks, bound in zip(stats, bounds):
        if not blocks:
            continue
        firsts, seconds, tops, lows, highs = zip(*blocks)
        limit = RESIDUAL_TOL * max(tops)
        for moment, gaps in (1, firsts), (2, seconds):
            # a NaN gap fails, and np.max, unlike max, keeps it in the message
            if not all([gap + bound <= limit for gap in gaps]):
                gap, norm = float(np.max(gaps)) + bound, float(np.max(tops))
                raise EigensolveError(
                    f"trace moment {moment} gap {gap:.3g} (real-form charge {bound:.3g} "
                    f"included) exceeds 1e-8 * ||Q|| = {RESIDUAL_TOL * norm:.3g} at N={n}")
        if min(lows) < -CLIP_TOL or max(highs) > 1.0 + CLIP_TOL:
            raise EigensolveError(
                f"eigenvalue outside [0, 1] by {max(-min(lows), max(highs) - 1.0):.3g}, "
                f"beyond the clip tolerance {CLIP_TOL:g}, at N={n}")
    values.sort(axis=1)
    return values.clip(0.0, 1.0, out=values), counts


# The certified plunge path is taken only when the bracket of S_N is at most
# this (nats): each of the real blocks may use its share.
CERTIFICATE_TOL = 1e-10
# Selection rule of the plunge path, from the order p and the plunge trace t
# alone. One block's share of the FFT Ritz passes over both blocks of the
# split (t, operator and start included) over a dense eigvalsh of the same
# order, with k forced, on [0.1234, 0.6234) at N = 2 p, first quartiles of 12
# runs on 2 cores (numpy 2.4, OpenBLAS):
#
#     p / k    p = 128   181   256   362   512   724   1024   2048
#     8            0.80  0.61  0.47  0.63  0.56  0.77  0.58   0.28
#     6            0.90  0.71  0.65  0.92  0.84  1.00  0.56   0.34
#     5            0.95  0.87  0.93  1.20  1.19  1.19  0.77   0.41
#     4            1.09  1.07  1.31  1.71  1.52  1.45  1.03   0.59
#
# The order-N real form, at twice the FFT length, reads 0.78 to 1.05 at
# p / k = 6. The pass grows like p k^2 through its QR and like k p log p
# through its FFTs, so 5 k <= p would cost about a dense solve or more from
# p = 256 to 724; 6 k <= p stays, at about a dense solve's cost there and
# well below it from p = 1024. A single interval's blocks take k = 27 to 31
# from p = 181 to 1024, p / k from 6.7 to 33. With t from the coefficients,
# a block pays O(N) for it, not O(p^2). The depth-5 q = 1/4
# Cantor set has t = 4.7 to 8.1 on its blocks of order 128..1024 (k = 220 to
# 370) and stays dense. k = ceil(45 t) + 8: on [0, .1) u [.3, .45) u [.6, .9)
# at N = 1448 (t = 2.5) the uncaptured trace was 2.2e-9 at 30 t, 7.1e-11 at
# 35 t, 1.3e-12 at 40 t and 4.1e-14 at 45 t, and only the last certifies under
# the rounding charges; single intervals need far less (1e-14 at 30 t).
# The table was measured with the pass at all k rows. The pass runs on the
# first k - _PLUNGE_PAD rows and reruns on all k only when that bracket
# misses, so the rule's k and its cost test bound the first pass from above.
# ceil(45 t) rows certify every admitted block of the fig-2 scan (8..1448),
# of [0.123, 0.623) up to N = 4096 and of [0, .1) u [.3, .45) u [.6, .9) and
# [0, .25) u [.5, .75) up to 2048; [0.05, 0.3) u [0.5, 0.62) reruns at
# N = 4096 (89 rows, 90 needed), and single intervals on some blocks of
# order 2048 and more (from N = 4096 on [0.3, 0.55), from 5793 on
# [0.123, 0.623)). The blocks of a single interval of length L first pass
# the rule at p = 120 (L = 0.01), 132 (0.05), 144 (0.1), 156 (0.25) and 162
# (0.5). A block of order below 128, where a dense solve takes under 0.7 ms,
# goes straight to eigvalsh without computing t (0.08 ms at N = 256), so the
# Cantor set's ~180 solves of order <= 64 per benchmark pass pay nothing; the
# fig-2 blocks of order 128 pay for a t that the rule then rejects.
_PLUNGE_MIN_ORDER = 128
_PLUNGE_SCALE = 45
_PLUNGE_PAD = 8
_PLUNGE_COST = 6
_PLUNGE_SEED = 20030604
_UNIT = float(np.finfo(float).eps) / 2
_HALF_ROOT = math.sqrt(0.5)


def _pair_entropy(v: np.ndarray) -> np.ndarray:
    """h(v) = eta_tilde(l) with l (1 - l) = v and l <= 1/2, for v in
    [0, 1/4]; l = 2 v / (1 + sqrt(1 - 4 v)) avoids the cancellation of
    (1 - sqrt(1 - 4 v)) / 2 at small v."""
    return _eta_tilde_unit(2.0 * v / (1.0 + np.sqrt(1.0 - 4.0 * v)))


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer L >= n >= 1."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        length = five
        while length < best:
            m = length
            while m < n:
                m *= 2
            best = min(best, m)
            length *= 3
        five *= 5
    return best


def _fft_charge(blocks) -> float:
    """beta = 2 u sqrt(2 log2 L + 1) (||c||_1 + ||g||_1), the rounding
    charge of one Ritz value, and of one unit row, for the FFT products with
    ``blocks`` (module docstring): ||c||_1 counts a(0) once and every other
    lag of the column twice, and each bounds the largest entry of its
    transform at any length."""
    _, toeplitz, g, _ = blocks
    a = toeplitz[len(toeplitz) // 2:]
    norms = 2.0 * float(np.abs(a).sum()) - abs(a[0]) + float(np.abs(g).sum())
    return 2.0 * _UNIT * math.sqrt(2.0 * math.log2(_fft_length(len(toeplitz))) + 1.0) * norms


def _ritz_charge(p: int, fft_charge: float) -> float:
    """Rounding charge of one Ritz value of H - H^2 for a block of order p:
    lambda u sqrt(p) ||M|| with lambda = 8 and ||M|| <= 1/4 for the inner
    products of the Ritz matrix, and ``fft_charge`` for the products with H."""
    return 2.0 * _UNIT * math.sqrt(p) + fft_charge


def _plunge_rank(p: int, t: float, t_charge: float, ritz_charge: float,
                 budget: float) -> int | None:
    """The number k of Ritz values a block of order p with plunge trace t
    takes, or None when the selection rule sends it to the dense solve: p of
    at least _PLUNGE_MIN_ORDER, _PLUNGE_COST k <= p, and a bracket within
    ``budget`` even if the Ritz values caught all of t, that is, from the
    rounding charges alone. A negative or NaN t is left to the dense checks,
    which name the fault."""
    if p < _PLUNGE_MIN_ORDER or not 0.0 <= t:
        return None
    k = math.ceil(_PLUNGE_SCALE * t) + _PLUNGE_PAD
    if _PLUNGE_COST * k > p or _bracket(t_charge + k * ritz_charge, p) > budget:
        return None
    return k


class _PlungeOperator:
    """The real blocks D (T + s Hk) D of one line, as ``_blocks`` gives
    them, applied to rows through FFTs of length L, the smallest 5-smooth
    L >= 2 p - 1 for the largest order p, without forming them (module
    docstring): C and G are the transforms of the Toeplitz column a and of
    the Hankel line g, shared by every block of the line."""

    def __init__(self, blocks):
        self.orders, toeplitz, g, self.border = blocks
        p = self.orders[0]
        self.length = _fft_length(2 * p - 1)
        column = np.zeros(self.length)
        column[:p] = toeplitz[p - 1:]
        column[self.length - p + 1:] = toeplitz[:p - 1]
        self.toeplitz = np.fft.rfft(column).real
        self.hankel = np.fft.rfft(g, self.length)

    def __call__(self, b: int, x: np.ndarray) -> np.ndarray:
        """H_b x for the rows x of block b, each of length p_b: one rfft of
        the rows, zero-padded and scaled by D, and one irfft of
        C X + s G conj(X), cut to p_b columns and scaled by D again."""
        bordered = b == 0 and self.border
        if bordered:
            x = x.copy()
            x[:, -1] *= _HALF_ROOT
        spectra = np.fft.rfft(x, self.length)
        cross = np.conj(spectra)
        cross *= self.hankel
        spectra *= self.toeplitz
        if b:
            spectra -= cross
        else:
            spectra += cross
        image = np.fft.irfft(spectra, self.length)[:, :self.orders[b]]
        if bordered:
            image[:, -1] *= _HALF_ROOT
        return image


def _plunge_entropies(line: np.ndarray, blocks,
                      n: int) -> list[tuple[float, float, float] | None]:
    """Per real block of ``line``, as ``_blocks`` gives them in ``blocks``,
    (S, sum of the Ritz values, bracket width) from its plunge subspace,
    certified as the module docstring derives, or None when the selection
    rule or a bracket beyond the block's share of CERTIFICATE_TOL sends it
    to the dense solve.

    Called only when the largest block reaches _PLUNGE_MIN_ORDER (no t is
    computed below it); each t comes from ``_plunge_traces`` of ``line``.
    Each admitted block b of order p_b and rank k_b runs a Rayleigh-Ritz
    pass through the line's ``_PlungeOperator`` on the first
    k_b - _PLUNGE_PAD rows (at least one) and p_b columns W of one
    fixed-seed start of uniform rows on [-1, 1), shared by the blocks: the
    images H W and H (H W), one QR of the rows of M W = H W - H (H W), the
    images H Z of the orthonormal rows Z, and the eigenvalues theta of the
    matrix Z M Z^T = ((Z - H Z) (H Z)^T + its transpose) / 2. Only when
    that bracket misses does the block run the same pass again on the first
    k_b rows of the start.

    A LinAlgError of a QR or of a Ritz solve, a Ritz value above 1/4 plus
    its charge, and Ritz values summing to more than t plus the charges are
    failed solves and raise EigensolveError.
    """
    orders = blocks[0]
    budget = CERTIFICATE_TOL / len(orders)
    traces = _plunge_traces(line)
    fft_charge = _fft_charge(blocks)
    ritz_charges = [_ritz_charge(p, fft_charge) for p in orders]
    ranks = [_plunge_rank(p, t, t_charge, charge, budget)
             for p, (t, t_charge), charge in zip(orders, traces, ritz_charges)]
    admitted = [b for b, k in enumerate(ranks) if k]
    parts = [None] * len(orders)
    if not admitted:
        return parts
    op = _PlungeOperator(blocks)
    start = np.random.default_rng(_PLUNGE_SEED).uniform(
        -1.0, 1.0, (max(ranks[b] for b in admitted), orders[0]))
    for b in admitted:
        p, k = orders[b], ranks[b]
        for rows in (max(k - _PLUNGE_PAD, 1), k):
            image = op(b, start[:rows, :p])
            basis = _linalg(np.linalg.qr, (image - op(b, image)).T, n, p, rows)[0].T
            image = op(b, basis)
            cross = (basis - image) @ image.T
            ritz = _linalg(np.linalg.eigvalsh, (cross + cross.T) / 2, n, p, rows)
            parts[b] = _certify(ritz, p, *traces[b], ritz_charges[b], n, budget)
            if parts[b] is not None:
                break
    return parts


def _linalg(solve, mat: np.ndarray, n: int, p: int, k: int):
    """``solve(mat)`` for the plunge subspace of a block of order p, with a
    LinAlgError raised again as EigensolveError."""
    try:
        return solve(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolve failed for N={n}: {exc}; plunge subspace "
                              f"of a block of order {p}, k = {k}") from exc


def _certify(ritz: np.ndarray, p: int, t: float, t_charge: float, ritz_charge: float,
             n: int, budget: float) -> tuple[float, float, float] | None:
    """(S, sum of the Ritz values, bracket width) of a block of order p from
    its Ritz values of H - H^2, or None when the bracket exceeds ``budget``.
    A Ritz value above 1/4 plus its charge, or Ritz values summing to more
    than t plus the charges, raise EigensolveError."""
    top = float(np.max(ritz))
    if not top <= 0.25 + ritz_charge:
        raise EigensolveError(f"Ritz value {top:.6g} of H - H^2 above 1/4 by more than "
                              f"its charge {ritz_charge:.3g} at N={n}")
    total = float(np.sum(ritz))
    charge = t_charge + len(ritz) * ritz_charge
    if not total <= t + charge:
        raise EigensolveError(f"Ritz values sum {total:.17g} exceeds the plunge trace "
                              f"{t:.17g} by more than its charge {charge:.3g} at N={n}")
    lower = np.clip(ritz - ritz_charge, 0.0, 0.25)
    bracket = _bracket(t + t_charge - float(np.sum(lower)), p)
    if bracket > budget:
        return None
    return float(_pair_entropy(lower).sum()), total, bracket


# Dekker's splitter: fl(c a) - (fl(c a) - a) with c = 2^27 + 1 cuts a double
# into two halves of at most 26 significant bits each, whose products with
# each other, or with an integer below 2^27, are exact.
_SPLITTER = 2.0 ** 27 + 1.0


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with a = hi + lo exactly, each of at most 26 bits (Dekker):
    hi = c - (c - a) with c = fl(2^27 a + a)."""
    hi = _SPLITTER * a
    lo = hi - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    return hi, lo


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p, e with p = fl(a b) and a b = p + e exactly (Dekker's TwoProduct),
    barring underflow: e = ((ah bh - p) + ah bl + al bh) + al bl, every
    step exact. In place where it can be: each fresh array costs more than
    the arithmetic on it."""
    p = a * b
    ah, al = _halves(a)
    bh, bl = (ah, al) if b is a else _halves(b)
    e = ah * bh
    e -= p
    step = ah * bl
    e += step
    e += np.multiply(al, bh, out=step)
    e += np.multiply(al, bl, out=step)
    return p, e


def _prefix_sums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo the prefix sums of ``a`` down axis 0 but for the
    rounding of lo: hi is np.cumsum, which adds in order, and lo the running
    sum of the exact error of each of its additions (Knuth's TwoSum)."""
    hi = np.cumsum(a, axis=0)
    s = hi[:-1] + a[1:]                             # = hi[1:]
    z = s - hi[:-1]
    lo = np.zeros_like(hi)
    np.cumsum((hi[:-1] - (s - z)) + (a[1:] - z), axis=0, out=lo[1:])
    return hi, lo


def _cut(bound: float) -> float:
    """The power of two above 4 ``bound``, and at most 8 times it."""
    return math.ldexp(1.0, math.frexp(4.0 * bound)[1])


def _peel(terms: np.ndarray, cut: float, out: np.ndarray) -> np.ndarray:
    """``out``, the parts fl(term + cut) - cut of ``terms``, with those parts
    taken off ``terms`` in place, which leaves their exact rests there."""
    np.add(terms, cut, out=out)
    out -= cut
    terms -= out
    return out


def _proxies(line: np.ndarray, sizes: list[int],
             *groups: np.ndarray) -> tuple[list[tuple], float]:
    """P_N = N x(0) - sum_{|s| < N} (N - |s|) |x(s)|^2 of a line x of
    length n with x(0) real, at each N of ``sizes`` (increasing and
    distinct, the last n), from one error-free pass (module docstring):
    the exact parts and the rests of those P_N as two arrays, then the
    exact part and the rest of the sum of each 1-D array of ``groups``,
    cut alike and overwritten, and the bound on each rest.

    The terms are x(0) at s = 0 and the exact squares p + e
    (``_two_product``) of the real and imaginary parts of x, times -1 at
    s = 0 and -2 at s >= 1: k = 3 or 5 rows, x(0) a row of one term. Each
    row is cut into three accumulators over s: exact first parts, exact
    second parts and float rests. With c(s) the sum of column s,
    P_N = N C(N) - W(N), C(N) and W(N) the sums of c(s) and of s c(s) over
    s < N: the exact parts are totalled by segments between the sizes,
    since they add up exactly in any order, the rests by prefix sums over
    every s, so that each P_N is the same whatever the other sizes."""
    n = len(line)
    rows = [(np.array([line[0].real]), True)]
    for part in (line.real, line.imag) if np.iscomplexobj(line) else (line,):
        p, e = _two_product(part, part)
        for row in p, e:
            row *= -2.0
            row[0] *= 0.5
        # |e| <= u |p| < u sigma / 4: e has no part above u sigma.
        rows += [(p, True), (e, False)]
    k, buf = len(rows), np.empty(n)
    size = n * sum(float(np.abs(row, out=buf[:len(row)]).sum()) for row, _ in rows)
    spares = [np.abs(g) for g in groups]
    sigma = _cut(size + sum(float(spare.sum()) for spare in spares))
    extra = sum(g.size for g in groups)
    second = _cut(_UNIT * sigma * (k * n * n + extra))
    # Line-sized arrays only: a larger one comes back as fresh pages on
    # every call, paid for in page faults.
    high, low, rest = (np.zeros(n) for _ in range(3))
    for row, above in rows:
        m = len(row)
        if above:
            high[:m] += _peel(row, sigma, buf[:m])
        low[:m] += _peel(row, second, buf[:m])
        rest[:m] += row
    del rows
    s = np.arange(n, dtype=float)
    ends = np.array(sizes, dtype=float)
    starts = [0, *sizes[:-1]]

    def exact(c):
        # Exact in any order: by segments between the sizes.
        return (ends * np.cumsum(np.add.reduceat(c, starts))
                - np.cumsum(np.add.reduceat(np.multiply(s, c, out=buf), starts)))

    # The float rests in one order for every N: prefix sums over all s.
    at = np.array(sizes) - 1
    floats = ends * np.cumsum(rest)[at] - np.cumsum(np.multiply(s, rest, out=buf))[at]
    sums = [(exact(high), exact(low) + floats)]
    for g, part in zip(groups, spares):
        first = float(_peel(g, sigma, part).sum())
        sums.append((first, float(_peel(g, second, part).sum()) + float(g.sum())))
    return sums, _UNIT * _UNIT * n * (k * n + extra) * (sigma + 2.0 * (n + k) * second)


def _plunge_traces(line: np.ndarray) -> list[tuple[float, float]]:
    """(t, charge) of each real block that ``_blocks`` reads off ``line``
    of length N >= 2, in its order: t = tr H - ||H||_F^2 of the
    block H formed from the line in exact arithmetic, from O(N) compensated
    sums, and the charge for those sums (module docstring). A complex line is
    the row of the order-N real form, whose t is its P_N, a real one the
    line r of the half-order split, whose t_even + t_odd is the P_N of r
    and t_even - t_odd a twist group cut at the same sigma: one
    ``_proxies`` pass at N alone either way."""
    n = len(line)
    if np.iscomplexobj(line):
        [(exact, rest)], spare = _proxies(line, [n])
        t = float(exact[0] + rest[0])
        return [(t, _UNIT * abs(t) + spare)]
    r, m = line, n // 2
    # <T, Hk> = sum over s < 2m - 1 of r(N - 1 - s) F(min(s, 2m - 2 - s)), with
    # F(j) = r(0) [j even] + 2 (r(j) + r(j - 2) + ...) over the j' >= 1 of j's
    # parity: prefix sums of the even and odd entries, as two columns.
    a = np.zeros(m + m % 2)
    a[:m] = 2.0 * r[:m]
    a[0] = r[0]
    fh, fl = (f.ravel()[:m] for f in _prefix_sums(a.reshape(-1, 2)))
    x = r[n - 1:n - 2 * m:-1]
    cross, cross_err = _two_product(x, np.concatenate([fh, fh[:m - 1][::-1]]))
    diff = [2.0 * x[::2], -4.0 * cross, -4.0 * cross_err,
            -4.0 * (x * np.concatenate([fl, fl[:m - 1][::-1]]))]
    if n % 2:
        head = r[:m + 1]
        p, e = _two_product(head, head)
        diff += [np.array([r[0], -p[0], -e[0]]), -4.0 * p[1:], -4.0 * e[1:]]
    [(proxy, proxy_rest), (twist, twist_rest)], spare = _proxies(r, [n], np.concatenate(diff))
    spare = 2.0 * spare + (_UNIT * n * n * float(np.abs(r).max())) ** 2
    traces = []
    for sign in (1.0, -1.0):
        t = float((proxy[0] + sign * twist) + (proxy_rest[0] + sign * twist_rest)) / 2
        traces.append((t, _UNIT * abs(t) + spare))
    return traces


def _bracket(rest: float, p: int) -> float:
    """R (2 - ln(R / p)), the bound on the entropy that R of uncaptured
    plunge trace can carry over p eigenvalues; 0 for R <= 0."""
    return rest * (2.0 - math.log(rest / p)) if rest > 0.0 else 0.0


@dataclass(frozen=True)
class EntropyResult:
    """Block size, entropy S_N (nats) and proxy P_N = sum l(1-l).

    S_N lies in [entropy, entropy + bracket]: ``bracket`` sums the
    certificates of the ``plunge_blocks`` real blocks taken from their plunge
    subspace, and is 0 when every block was solved densely (the
    ``dense_blocks``). For the plunge blocks ``proxy`` adds the Ritz values
    of H - H^2.
    """

    n: int
    entropy: float
    proxy: float
    bracket: float
    plunge_blocks: int
    dense_blocks: int


def entropy_result(restriction: SymbolCoefficients, *,
                   eig_cap: int | None = None) -> EntropyResult:
    """``entropy_results`` of ``restriction`` alone, at its whole order."""
    return entropy_results([restriction], restriction.order, eig_cap=eig_cap)[0]


def entropy_results(coeffs, n: int, *, eig_cap: int | None = None) -> list[EntropyResult]:
    """S_N and P_N at N = ``n`` of each coefficient array of ``coeffs``,
    from the real blocks of its restriction Q_n, whose first row is a view
    of its q(0)..q(n - 1): an array that stops short of it raises
    ValueError. Each block comes from its certified plunge subspace
    (``_plunge_entropies``) when the selection rule admits it and its share
    of CERTIFICATE_TOL covers its bracket, the others densely; ``_solve``
    does both. A call pays each fixed cost once, or once per block order,
    whatever the number of rows: the rows are demodulated as one stack
    (``_real_lines``), each row's plunge pass runs on its own line, and the
    blocks solved densely, the only ones formed, go to one
    ``_checked_eigenvalues`` call for all the rows: one ``eigvalsh`` stack
    per block order, with every gate applied per row. eta_tilde and
    l (1 - l) are taken in one pass each over all the rows' dense
    eigenvalues, and summed over each row's own ascending eigenvalues in
    their own order, so that a row's S and P are bit for bit those of the
    row solved alone. With ``eig_cap`` given (a count of at least 0; None
    sets no cap), an N above it with a block that does not take the plunge
    path raises ValueError as soon as that row's plunge pass is done, before
    the passes of the rows after it and before any dense solve starts. No
    coefficients give an empty list.
    """
    [n] = _counts([n])
    rows = [_first_row(c, n) for c in coeffs]
    if eig_cap is not None:
        [eig_cap] = _counts([eig_cap], "eig_cap", 0)
    if not rows:
        return []
    parts, lam, counts = _solve(rows, plunge=True, eig_cap=eig_cap)
    etas, pairs = _eta_tilde_unit(lam), lam * (1.0 - lam)
    results = []
    for part, e, v, count in zip(parts, etas, pairs, counts):
        entropy, proxy = float(np.add.reduce(e[:count])), float(np.add.reduce(v[:count]))
        bracket = 0.0
        certified = [entry for entry in part if entry is not None]
        for entry in certified:
            entropy, proxy, bracket = entropy + entry[0], proxy + entry[1], bracket + entry[2]
        results.append(EntropyResult(n=n, entropy=entropy, proxy=proxy, bracket=bracket,
                                     plunge_blocks=len(certified),
                                     dense_blocks=len(part) - len(certified)))
    return results


def _solve(rows, *, plunge: bool, eig_cap: int | None = None):
    """The real blocks of the Q_N with first rows ``rows``, checked
    coefficient views all of one length N: per row its
    ``_plunge_entropies`` (None for every block without ``plunge``), the
    checked eigenvalues of all the dense blocks, as
    ``_checked_eigenvalues`` gives them, and per row the number of them.
    ``_real_lines`` gives every row's line; one loop over the rows then runs
    each one's plunge pass, raises ValueError right after that pass when N
    is above ``eig_cap`` and a block stays dense, and keeps its dense blocks
    for the shared solve."""
    n = len(rows[0])
    lines = _real_lines(rows)
    parts, kept = [], []
    for i, (line, row_blocks, _) in enumerate(lines):
        orders = row_blocks[0]
        part = (_plunge_entropies(line, row_blocks, n)
                if plunge and orders[0] >= _PLUNGE_MIN_ORDER else [None] * len(orders))
        keep = [b for b, entry in enumerate(part) if entry is None]
        if eig_cap is not None and n > eig_cap and keep:
            raise ValueError(f"N={n} needs a dense eigensolve of a block of order "
                             f"{orders[keep[0]]}, above eig_cap = {eig_cap}")
        kept += [(i, row_blocks, b) for b in keep]
        parts.append(part)
    return parts, *_checked_eigenvalues(kept, [bound for *_, bound in lines], n)


def block_entropy(f: SymbolFunction, n: int) -> float:
    [n] = _counts([n])
    return entropy_results([fourier_coefficients(f, n - 1)], n)[0].entropy


# ---------------------------------------------------------------------------
# Quadratic proxy: O(N) coefficient route and single-interval series route
# ---------------------------------------------------------------------------

def purity_proxy_direct(coeffs: SymbolCoefficients, n: int) -> float:
    """Tr Q_N(1 - Q_N) = N q(0) - sum_{|m| < N} (N - |m|) |q(m)|^2."""
    return proxy_scan(coeffs, [n])[0]


def proxy_scan(coeffs: SymbolCoefficients, grid) -> list[float]:
    """purity_proxy_direct at each N of ``grid``, all from one O(N_max)
    pass of error-free sums over q(0)..q(N_max - 1) (``_proxies``, which
    also gives the plunge trace t of the order-N real form), totalled at
    the distinct N of the grid only: up to N = 2^24 each P_N is within
    u |P_N| and a far smaller bound of its exact value for the float
    coefficients (module docstring), and for one N_max the other sizes of
    the grid do not change its bits. An empty grid gives an empty list."""
    grid = _counts(grid)
    if not grid:
        return []
    sizes = sorted(set(grid))
    [(exact, rest)], _ = _proxies(_first_row(coeffs, sizes[-1]), sizes)
    proxies = dict(zip(sizes, (exact + rest).tolist()))
    return [proxies[n] for n in grid]


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
    [n] = _counts([n])
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

