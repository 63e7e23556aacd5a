"""Fejer-kernel integral route to the quadratic proxy Tr Q_N(1 - Q_N).

The proxy admits the representation

    Tr Q_N(1 - Q_N) = N * integral over [-1/2, 1/2] of
                      k_N(phi) * |K \\ (K + phi)| dphi,

with the positive normalized kernel k_N(phi) = sin^2(N pi phi) /
(N sin^2(pi phi)). The same value results with the complement K^c in place
of K. This module evaluates these integrals numerically as an independent
check on the coefficient and eigenvalue routes; it is a verification path,
not the fast path, and it never reads the Fourier coefficients.

The integral is split into panels at the kernel zeros j/N and at every kink
of the deficit profile. The kinks and the profile's values at them come from
one sorted list of endpoint differences (``torus_sets._deficit_knots``), so
the profile is exact between kinks and no kink can miss the panels. On each
panel the integrand is a trigonometric polynomial times an affine function,
and one fixed Gauss-Legendre rule integrates it with an error bounded in
advance (see ``GAUSS_POINTS``). The rule's own sum of w * k_N must reproduce
the kernel's unit mass within ``QUAD_TOL``; otherwise ``QuadratureError`` is
raised. For m intervals the route sorts (2m)^2 differences once and
evaluates 16 nodes on each of about N + (distinct kinks) panels: about
0.23 s for 511 intervals at N = 16384 on 2 cores.
"""

from __future__ import annotations

import math

import numpy as np

from .torus_sets import (
    FailedCheckError,
    TorusIntervalSet,
    _counts,
    deficit_breakpoints,
    overlap_deficit_profile,
)

# Every panel is at most 1/N wide. On it k_N is a trigonometric polynomial
# of degree N - 1 with |k_N(x + iy)| <= N e^{2 pi (N-1) |y|}, times an affine
# profile with |D| <= 1/2 and slope at most m, the interval count. Mapped to
# [-1, 1], the integrand is analytic in every Bernstein ellipse E_rho, and
# Gauss' bound (Trefethen, Approximation Theory and Approximation Practice,
# Thm 19.3) (64/15) M rho^{-2n} / (rho^2 - 1), scaled by the panel widths
# and minimised over rho, sums over all panels to below 1e-18 for
# N <= 2^20 and m <= 1024 at n = 16 points, far under the rounding of the
# sums (about 1e-13 relative). At 12 points it would be 2e-12 at N = 16384.
GAUSS_POINTS = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_POINTS)

# Largest accepted gap between the rule's kernel mass and 1.
QUAD_TOL = 1e-9

# Below this distance from an integer the kernel is evaluated by its Taylor
# expansion; the closed form loses digits to the 0/0 cancellation there.
_SMALL_PHI = 1e-8


class QuadratureError(FailedCheckError):
    """The quadrature rule failed to reproduce the kernel's unit mass."""


def fejer_kernel(n: int, phi) -> np.ndarray | float:
    """k_N(phi) = sin^2(N pi phi) / (N sin^2(pi phi)), period 1.

    The removable singularities at integer phi take the limit value N; near
    them a series evaluation N (1 - (N^2 - 1)(pi phi)^2 / 3) is used.
    """
    [n] = _counts([n])
    phi_arr = np.asarray(phi, dtype=float)
    r = phi_arr - np.round(phi_arr)
    small = np.abs(r) < _SMALL_PHI
    out = np.empty_like(r)
    out[small] = n * (1.0 - (n * n - 1.0) * (math.pi * r[small]) ** 2 / 3.0)
    rs = r[~small]
    out[~small] = np.sin(n * math.pi * rs) ** 2 / (n * np.sin(math.pi * rs) ** 2)
    return out if out.ndim else float(out)


def kernel_zeros(n: int) -> np.ndarray:
    """Zeros j/N of k_N inside [-1/2, 1/2], |j| <= N // 2, for a block size N
    (``torus_sets._counts``)."""
    [n] = _counts([n])
    return np.arange(-(n // 2), n // 2 + 1) / n


def panel_rule(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``GAUSS_POINTS``-point Gauss-Legendre rule
    on every panel between consecutive ``edges``; panels no wider than
    1e-15 are dropped. ``sum(weights * f(phi))`` integrates f from
    edges[0] to edges[-1]."""
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2:
        raise ValueError("need at least two panel edges")
    a, b = edges[:-1], edges[1:]
    keep = b - a > 1e-15
    half = 0.5 * (b[keep] - a[keep])[:, None]
    mid = 0.5 * (b[keep] + a[keep])[:, None]
    return (mid + half * _NODES).ravel(), (half * _WEIGHTS).ravel()


def purity_proxy_kernel(K: TorusIntervalSet, n: int) -> float:
    """Kernel-integral evaluation of Tr Q_N(1 - Q_N) for the pure symbol
    chi_K."""
    [n] = _counts([n])
    edges = np.unique(np.round(
        np.concatenate([kernel_zeros(n), deficit_breakpoints(K)]), 15))

    phi, weights = panel_rule(edges)
    kernel = fejer_kernel(n, phi)
    mass = float(weights @ kernel)
    if not abs(mass - 1.0) <= QUAD_TOL:
        raise QuadratureError(
            f"quadrature gives kernel mass {mass!r} at N={n}, not 1 within "
            f"{QUAD_TOL:.1g}; the rule cannot be trusted"
        )
    return float(weights @ (n * kernel * overlap_deficit_profile(K, phi)))
