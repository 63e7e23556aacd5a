"""Interval-union arithmetic on the unit torus [0, 1).

Every set handled here is a finite union of half-open intervals, stored in a
canonical form: pieces (s, e) with 0 <= s < e <= 1, sorted by start, split at
the seam 0 == 1, and separated by gaps wider than ``MERGE_TOL``. A start is
0 or lies in [MERGE_TOL, 1 - MERGE_TOL]; an end is 1 or at most
1 - MERGE_TOL. The constructor refuses any other form, so it accepts exactly
the fixed points of ``canonicalize``, which produces the form from arbitrary
pieces. An interval crossing the seam is stored as a first piece starting at
0 and a last piece ending at 1, which ``wraps`` detects, so interval counts
stay correct on the torus.

All values are immutable and all operations are pure functions; they can be
shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Endpoints closer than this are merged during canonicalization. Endpoint
# topology (open vs closed) is measure zero and never affects any computed
# quantity.
MERGE_TOL = 1e-12


class TorusSetError(ValueError):
    """Invalid interval data or set construction parameters."""


class DispersionPlateauError(TorusSetError):
    """Requested filling sits on a flat stretch of the dispersion relation."""


class FailedCheckError(RuntimeError):
    """A computed result failed one of the library's own consistency checks,
    as opposed to bad input (ValueError); the CLI exits 2 on it."""


def _counts(values, kind: str = "block size", least: int = 1) -> list[int]:
    """``values`` as ints: the one check of every count the library takes,
    block sizes (``least`` = 1), coefficient orders and Cantor depths
    (``least`` = 0). A value that is not an integer, is a bool or is below
    ``least`` raises ValueError naming it and its ``kind``."""
    counts = []
    for n in values:
        try:
            integral = not isinstance(n, (bool, np.bool_)) and int(n) == n
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"{kind}s must be integers, got {n!r}")
        n = int(n)
        if n < least:
            raise ValueError(f"{kind} must be >= {least}, got {n}")
        counts.append(n)
    return counts


@dataclass(frozen=True)
class TorusIntervalSet:
    """Finite union of disjoint half-open intervals on the torus.

    ``intervals`` holds (start, end) pairs in the canonical form of the
    module docstring, which the constructor checks (TorusSetError).
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -math.inf
        for s, e in self.intervals:
            if not (0.0 <= s < e <= 1.0 and s > prev_end + MERGE_TOL
                    and (s == 0.0 or MERGE_TOL <= s <= 1.0 - MERGE_TOL)
                    and (e == 1.0 or e <= 1.0 - MERGE_TOL)):
                raise TorusSetError(
                    f"piece ({s}, {e}) breaks the canonical form: 0 <= start < end <= 1, "
                    f"sorted, gaps above {MERGE_TOL:g}, no start within {MERGE_TOL:g} of "
                    f"the seam but 0, no end within it below 1 (canonicalize builds it)")
            prev_end = e

    @property
    def wraps(self) -> bool:
        """True when the first piece starts at 0 and the last ends at 1, so
        they are one interval crossing the seam."""
        ivs = self.intervals
        return len(ivs) > 1 and ivs[0][0] == 0.0 and ivs[-1][1] == 1.0

    @property
    def measure(self) -> float:
        return sum(e - s for s, e in self.intervals)

    @property
    def interval_count(self) -> int:
        """Number of intervals as subsets of the torus (seam-adjacent pieces
        count once)."""
        n = len(self.intervals)
        return n - 1 if self.wraps else n

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_full(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0] == (0.0, 1.0)

    def complement(self) -> "TorusIntervalSet":
        gaps = []
        prev = 0.0
        for s, e in self.intervals:
            if s > prev:
                gaps.append((prev, s))
            prev = e
        if prev < 1.0:
            gaps.append((prev, 1.0))
        return canonicalize(gaps)

    def translate(self, phi: float) -> "TorusIntervalSet":
        return canonicalize([(s + phi, e + phi) for s, e in self.intervals])

    def intersection(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        pieces = []
        for s1, e1 in self.intervals:
            for s2, e2 in other.intervals:
                lo, hi = max(s1, s2), min(e1, e2)
                if hi > lo:
                    pieces.append((lo, hi))
        return canonicalize(pieces)

    def union(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        return canonicalize([*self.intervals, *other.intervals])


def empty_set() -> TorusIntervalSet:
    return TorusIntervalSet(())


def full_torus() -> TorusIntervalSet:
    return TorusIntervalSet(((0.0, 1.0),))


def canonicalize(raw) -> TorusIntervalSet:
    """Reduce arbitrary (start, end) pairs to the canonical disjoint form.

    Accepts overlapping pieces, endpoints outside [0, 1), and wrapping pieces
    (given either as end > 1 or end < start). Intervals of length >= 1 cover
    the torus. A piece (s, e) whose start needs no move and with e > s keeps
    its end as given; any other gets start + length. Idempotent: canonical
    input comes back unchanged.
    """
    pieces = []
    for s, e in raw:
        s, e = float(s), float(e)
        if not (math.isfinite(s) and math.isfinite(e)):
            raise TorusSetError(f"non-finite interval endpoint: ({s}, {e})")
        if e - s >= 1.0:
            pieces.append((0.0, 1.0))
            continue
        length = (e - s) % 1.0
        start = s % 1.0
        # s % 1.0 rounds to exactly 1.0 for starts just below an integer
        if start < MERGE_TOL or start > 1.0 - MERGE_TOL:
            start = 0.0
        # s + (e - s) can round to a neighbour of e, so an unmoved end is kept
        end = e if start == s < e else start + length
        if end == start:    # also a length lost to rounding at the new start
            raise TorusSetError(f"zero-length interval (mod 1): ({s}, {e})")
        if end > 1.0 - MERGE_TOL:
            if end - 1.0 > MERGE_TOL:
                pieces.append((start, 1.0))
                pieces.append((0.0, end - 1.0))
            else:
                pieces.append((start, 1.0))
        else:
            pieces.append((start, end))

    merged = []
    for s, e in sorted(pieces):
        if merged and s <= merged[-1][1] + MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return TorusIntervalSet(tuple((s, e) for s, e in merged))


@functools.lru_cache(maxsize=1)
def _deficit_knots(K: TorusIntervalSet) -> tuple[np.ndarray, np.ndarray]:
    """Kinks 0 = x[0] < ... < x[-1] = 1 of phi -> |K \\ (K + phi)| and its
    values D there. Over the signed endpoints e_i (s = +1 at a start, -1 at
    an end) its second derivative is sum_{i,j} s_i s_j delta(phi - (e_i - e_j)).
    It is 0 at phi = 0, where its slope jumps from -m to m, m the interval
    count. Between kinks it is affine, so sorting the (2m)^2 differences mod 1
    and two cumulative sums give it exactly; D[-1] = 0 up to rounding. The
    arrays are read-only and cached for the last set, which the Fejer route
    asks for twice."""
    if K.is_empty or K.is_full:
        x, D = np.array([0.0, 1.0]), np.zeros(2)
        x.flags.writeable = D.flags.writeable = False
        return x, D
    pieces = np.asarray(K.intervals)
    starts, ends = pieces[:, 0], pieces[:, 1]
    if K.wraps:   # the seam cuts one interval; it is not an endpoint
        starts, ends = starts[1:], ends[:-1]
    m = len(starts)
    e = np.concatenate([starts, ends])
    s = np.concatenate([np.ones(m), -np.ones(m)])
    diffs = ((e[:, None] - e[None, :]) % 1.0).ravel()
    order = np.argsort(diffs)
    diffs, weights = diffs[order], np.outer(s, s).ravel()[order]
    first = np.flatnonzero(np.r_[True, np.diff(diffs) > 0.0])
    slopes = np.cumsum(np.add.reduceat(weights, first)) - m
    x = np.append(diffs[first], 1.0)
    D = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])
    x.flags.writeable = D.flags.writeable = False
    return x, D


def overlap_deficit_profile(K: TorusIntervalSet, phis: np.ndarray) -> np.ndarray:
    """|K \\ (K + phi)|, how much of K a shift by phi uncovers, for an array
    of shifts: exact (up to rounding) between the kinks, which it interpolates
    from ``_deficit_knots``. Symmetric in phi -> -phi and period 1."""
    x, D = _deficit_knots(K)
    return np.interp(np.asarray(phis, dtype=float) % 1.0, x, D)


def deficit_breakpoints(K: TorusIntervalSet) -> np.ndarray:
    """The kinks of ``overlap_deficit_profile`` mapped into [-1/2, 1/2] and
    mirrored, with -1/2, 0 and 1/2: the profile is affine between
    consecutive breakpoints."""
    x, _ = _deficit_knots(K)
    x = np.where(x > 0.5, x - 1.0, x)
    return np.unique(np.concatenate([x, -x, [-0.5, 0.0, 0.5]]))


# ---------------------------------------------------------------------------
# Cantor-like sets with geometrically shrinking holes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorSpec:
    """Parameters of the recursive fat-Cantor construction.

    Generation m removes, from the middle of each of the 2^(m-1) intervals
    present, an open hole of length ``amplitude * ratio**m``. The limit set
    keeps positive measure 1 - amplitude*ratio/(1 - 2*ratio), which the
    invariant amplitude*ratio/(1-2*ratio) < 1 guarantees.
    """

    ratio: float
    amplitude: float
    depth: int = 0

    def __post_init__(self):
        if not (0.0 < self.ratio < 0.5):
            raise TorusSetError(f"ratio must lie in (0, 1/2), got {self.ratio}")
        if not (self.amplitude > 0.0):
            raise TorusSetError(f"amplitude must be positive, got {self.amplitude}")
        removed = self.amplitude * self.ratio / (1.0 - 2.0 * self.ratio)
        if removed >= 1.0:
            raise TorusSetError(
                f"total removed measure {removed:.6g} >= 1; "
                "need amplitude*ratio/(1-2*ratio) < 1"
            )
        [depth] = _counts([self.depth], "cantor depth", 0)
        object.__setattr__(self, "depth", depth)

    def hole_length(self, m: int) -> float:
        return self.amplitude * self.ratio ** m

    @property
    def limit_measure(self) -> float:
        return 1.0 - self.amplitude * self.ratio / (1.0 - 2.0 * self.ratio)

    def truncated_measure(self) -> float:
        return 1.0 - sum(2 ** (m - 1) * self.hole_length(m)
                         for m in range(1, self.depth + 1))


def predicted_alpha(spec: CantorSpec) -> float:
    """Growth exponent log 2 / (-log ratio) of the fat-Cantor family."""
    return math.log(2.0) / (-math.log(spec.ratio))


MAX_CANTOR_DEPTH = 60


def cantor_depth_policy(spec: CantorSpec, n_max: int) -> int:
    """Smallest depth whose first omitted holes are finer than the resolution
    scale 1/(2 N_max); equivalently the depth m with
    hole(m) >= 1/(2 N_max) > hole(m+1)."""
    [n_max] = _counts([n_max])
    scale = 1.0 / (2.0 * n_max)
    for depth in range(MAX_CANTOR_DEPTH + 1):
        if spec.hole_length(depth + 1) < scale:
            return depth
    raise ValueError(
        f"depth needed for N_max={n_max} exceeds the cap {MAX_CANTOR_DEPTH} "
        f"(ratio {spec.ratio}, amplitude {spec.amplitude})"
    )

def cantor_generate(spec: CantorSpec) -> TorusIntervalSet:
    """Finite-depth truncation of the Cantor-like set.

    Returns 2**depth equal closed intervals; the holes cut at generation m
    have length exactly amplitude*ratio**m and sit centered in their parents.
    """
    if spec.depth > 0 and spec.hole_length(spec.depth) <= 10 * MERGE_TOL:
        raise TorusSetError(
            f"holes at depth {spec.depth} are below endpoint resolution "
            f"({spec.hole_length(spec.depth):.3g})"
        )
    pieces = [(0.0, 1.0)]
    for m in range(1, spec.depth + 1):
        hole = spec.hole_length(m)
        parent_len = pieces[0][1] - pieces[0][0]
        if hole >= parent_len:
            raise TorusSetError(
                f"hole {hole:.6g} at generation {m} does not fit inside "
                f"parent interval of length {parent_len:.6g}"
            )
        nxt = []
        for s, e in pieces:
            c = 0.5 * (s + e)
            nxt.append((s, c - 0.5 * hole))
            nxt.append((c + 0.5 * hole, e))
        pieces = nxt
    return canonicalize(pieces)


# ---------------------------------------------------------------------------
# Fermi-sea construction from a sampled dispersion relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionSamples:
    """Periodic dispersion sampled at strictly increasing momenta in [0, 1).

    Between samples the energy is interpolated linearly; the stretch from the
    last sample back to the first closes the circle.
    """

    thetas: tuple[float, ...]
    energies: tuple[float, ...]

    def __post_init__(self):
        if len(self.thetas) < 3:
            raise TorusSetError("need at least 3 dispersion samples")
        if len(self.thetas) != len(self.energies):
            raise TorusSetError("theta and energy sample counts differ")
        for t in self.thetas:
            if not (0.0 <= t < 1.0) or not math.isfinite(t):
                raise TorusSetError(f"sample momentum {t} outside [0, 1)")
        for a, b in zip(self.thetas, self.thetas[1:]):
            if b <= a:
                raise TorusSetError("sample momenta must be strictly increasing")
        if not all(math.isfinite(e) for e in self.energies):
            raise TorusSetError("non-finite energy sample")

    def segments(self):
        """(theta0, theta1, e0, e1) pieces covering one period; the last one
        extends past 1 to close the loop."""
        segs = []
        for i in range(len(self.thetas) - 1):
            segs.append((self.thetas[i], self.thetas[i + 1],
                         self.energies[i], self.energies[i + 1]))
        segs.append((self.thetas[-1], self.thetas[0] + 1.0,
                     self.energies[-1], self.energies[0]))
        return segs


def _sublevel(disp: DispersionSamples, level: float):
    """Pieces of {theta : dispersion(theta) <= level}, one per segment that
    is at or below the level somewhere, and their total length. Each length
    comes from the interpolation weights, not from end - start, and the
    lengths are added in segment order."""
    pieces, total = [], 0.0
    for t0, t1, e0, e1 in disp.segments():
        w = t1 - t0
        if e0 <= level and e1 <= level:
            length, piece = w, (t0, t1)
        elif e0 <= level < e1:
            length = w * (level - e0) / (e1 - e0)
            piece = (t0, t0 + length)
        elif e1 <= level < e0:
            length = w * (level - e1) / (e0 - e1)
            piece = (t1 - length, t1)
        else:
            continue
        pieces.append(piece)
        total += length
    return pieces, total


FERMI_TOL = 1e-9
_BISECTION_STEPS = 200


def fermi_sea(disp: DispersionSamples, filling: float) -> TorusIntervalSet:
    """Sublevel set {theta : dispersion(theta) <= e_F} with the Fermi level
    chosen so the set has measure ``filling``.

    The level is located by bisection on the piecewise-linear interpolant.
    When the dispersion is flat at the target level, no level attains the
    requested measure; this is reported as a DispersionPlateauError.
    """
    if not (0.0 <= filling <= 1.0):
        raise TorusSetError(f"filling must lie in [0, 1], got {filling}")
    if filling == 0.0:
        return empty_set()
    if filling == 1.0:
        return full_torus()

    lo = min(disp.energies) - 1.0
    hi = max(disp.energies)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _sublevel(disp, mid)[1] >= filling:
            hi = mid
        else:
            lo = mid
    level = hi
    pieces = [(a, b) for a, b in _sublevel(disp, level)[0] if b - a > 0.0]
    sea = canonicalize(pieces)
    if abs(sea.measure - filling) > FERMI_TOL:
        below = _sublevel(disp, lo)[1]
        above = _sublevel(disp, hi)[1]
        raise DispersionPlateauError(
            f"dispersion has a plateau at level {level:.12g}: sublevel measure "
            f"jumps from {below:.12g} to {above:.12g} across the target "
            f"filling {filling:.12g}"
        )
    return sea


# ---------------------------------------------------------------------------
# Seeded random sets for property sweeps
# ---------------------------------------------------------------------------

def _separated_slots(rng: np.random.Generator, m: int, min_length: float):
    """m consecutive (start, end) slots from 2m sorted uniform points, redrawn
    until every gap, the first point and 1 - the last point are at least
    ``min_length``."""
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, size=2 * m))
        if np.min(np.diff(pts)) >= min_length and pts[0] >= min_length \
                and 1.0 - pts[-1] >= min_length:
            return [(pts[2 * i], pts[2 * i + 1]) for i in range(m)]


def random_interval_set(rng: np.random.Generator, max_intervals: int = 3,
                        min_length: float = 0.02) -> TorusIntervalSet:
    """Random union of 1..max_intervals disjoint intervals, none touching the
    seam, with all interval and gap lengths at least ``min_length``."""
    m = int(rng.integers(1, max_intervals + 1))
    return canonicalize(_separated_slots(rng, m, min_length))


# Each set of a random disjoint pair has 1..PAIR_MAX_INTERVALS intervals;
# all interval and gap lengths are at least PAIR_MIN_LENGTH.
PAIR_MAX_INTERVALS = 2
PAIR_MIN_LENGTH = 0.02


def random_disjoint_pair(rng: np.random.Generator):
    """Two disjoint random interval sets (alternating slots of one point
    collection, so disjointness is exact)."""
    m1 = int(rng.integers(1, PAIR_MAX_INTERVALS + 1))
    m2 = int(rng.integers(1, PAIR_MAX_INTERVALS + 1))
    m = m1 + m2
    slots = _separated_slots(rng, m, PAIR_MIN_LENGTH)
    order = rng.permutation(m)
    k1 = canonicalize([slots[i] for i in order[:m1]])
    k2 = canonicalize([slots[i] for i in order[m1:]])
    return k1, k2
