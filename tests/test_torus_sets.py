import numpy as np
import pytest

from entropy_lab.toeplitz import SymbolFunction
from entropy_lab.torus_sets import (
    MERGE_TOL,
    CantorSpec,
    DispersionPlateauError,
    DispersionSamples,
    TorusIntervalSet,
    TorusSetError,
    _deficit_knots,
    _separated_slots,
    canonicalize,
    cantor_generate,
    deficit_breakpoints,
    empty_set,
    fermi_sea,
    full_torus,
    overlap_deficit_profile,
    random_disjoint_pair,
    random_interval_set,
)


def test_canonicalize_merges_overlap():
    K = canonicalize([(0.2, 0.5), (0.4, 0.7)])
    assert K.intervals == ((0.2, 0.7),)
    assert K.interval_count == 1


def test_canonicalize_wrap_stored_split():
    K = canonicalize([(0.8, 1.0), (0.0, 0.1)])
    assert K.intervals == ((0.0, 0.1), (0.8, 1.0))
    assert K.wraps
    assert K.interval_count == 1
    assert K.measure == pytest.approx(0.3, abs=1e-15)


def test_canonicalize_wrapping_raw_input():
    K = canonicalize([(0.9, 1.2)])
    assert K.wraps
    assert len(K.intervals) == 2
    assert K.intervals[0][0] == 0.0
    assert K.intervals[0][1] == pytest.approx(0.2, abs=1e-15)
    assert K.intervals[1] == (0.9, 1.0)
    K2 = canonicalize([(0.8, 0.1)])          # end < start means wrap
    assert K2.measure == pytest.approx(0.3, abs=1e-15)


def test_canonicalize_full_torus():
    K = canonicalize([(0.0, 1.0)])
    assert K.is_full
    assert K.measure == 1.0
    assert canonicalize([(0.3, 1.5)]).is_full
    assert canonicalize([(0.1, 0.2), (0.3, 1.3)]).is_full


def test_canonicalize_rejects_bad_endpoints():
    with pytest.raises(TorusSetError):
        canonicalize([(0.2, 0.2)])
    # 2e-21 is lost when the start moves from -1e-5 to 0.99999
    with pytest.raises(TorusSetError, match="zero-length interval"):
        canonicalize([(-1e-5, -1e-5 + 2e-21)])
    with pytest.raises(TorusSetError):
        canonicalize([(float("nan"), 0.5)])
    with pytest.raises(TorusSetError):
        canonicalize([(0.1, float("inf"))])
    # a piece of length >= 1 covers the torus, but every piece is still checked
    for raw in ([(0.0, 1.0), (float("nan"), 0.5)],
                [(0.2, 1.4), (0.3, float("inf"))],
                [(0.0, 1.0), (0.3, 0.3)]):
        with pytest.raises(TorusSetError):
            canonicalize(raw)


@pytest.mark.parametrize("intervals", [
    ((0.1, 0.5), (0.3, 0.6)),
    ((0.5, 0.6), (0.1, 0.2)),
    ((0.1, 0.2), (0.2 + MERGE_TOL / 2, 0.3)),
    ((0.2, 0.1),),
    ((0.3, 0.3),),
    ((-0.1, 0.2),),
    ((0.5, 1.5),),
    ((float("nan"), 0.5),),
    ((MERGE_TOL / 2, 0.5),),
    ((0.5, 1.0 - MERGE_TOL / 2),),
    ((1.0 - MERGE_TOL / 2, 1.0),),
], ids=["overlap", "unsorted", "gap", "reversed", "empty-piece", "below-0",
        "above-1", "nan", "start-next-to-0", "end-next-to-1", "start-next-to-1"])
def test_constructor_refuses_non_canonical_pieces(intervals):
    with pytest.raises(TorusSetError, match="canonical form"):
        TorusIntervalSet(intervals)


def test_canonicalize_moves_what_the_constructor_refuses_next_to_the_seam():
    assert canonicalize([(5e-13, 0.5)]).intervals == ((0.0, 0.4999999999995),)
    assert canonicalize([(0.5, 1.0 - 5e-13)]).intervals == ((0.5, 1.0),)
    assert canonicalize([(1.0 - 5e-13, 1.0)]).intervals == ((0.0, 5.000444502911705e-13),)
    edge = ((0.0, MERGE_TOL), (2 * MERGE_TOL + 1e-15, 1.0 - MERGE_TOL))
    assert canonicalize(edge) == TorusIntervalSet(edge)


def test_canonicalize_keeps_the_end_of_an_unmoved_piece():
    # s + (e - s) rounds to the neighbour above e here
    s, e = 2.174899149665066e-11, 0.9027301709186616
    assert s + (e - s) != e
    assert canonicalize([(s, e)]).intervals == ((s, e),) == TorusIntervalSet(((s, e),)).intervals
    # a moved piece still gets start + length
    assert canonicalize([(s + 1.0, e + 1.0)]).intervals[0][0] == pytest.approx(s, abs=1e-15)


def test_canonicalize_empty_and_idempotent():
    assert canonicalize([]).is_empty
    rng = np.random.default_rng(7)
    for _ in range(50):
        raw = [(rng.uniform(-1, 2), rng.uniform(-1, 2)) for _ in range(4)]
        raw = [(a, b) for a, b in raw if (b - a) % 1.0 != 0.0]
        K = canonicalize(raw)
        assert canonicalize(K.intervals).intervals == K.intervals


def test_canonicalize_snaps_start_just_below_the_seam():
    # s % 1.0 returns exactly 1.0 here; no (1.0, 1.0) piece may survive
    K = canonicalize([(0.3, 0.6)]).translate(-(0.1 + 0.2))
    assert K.intervals == ((0.0, pytest.approx(0.3, abs=1e-15)),)
    assert not K.wraps and K.interval_count == 1
    assert SymbolFunction.indicator(K).breakpoints[:2] == K.intervals[0]
    assert K.translate(0.25).intervals == ((0.25, pytest.approx(0.55, abs=1e-15)),)
    assert canonicalize([(-1e-20, 0.5)]) == canonicalize([(0.0, 0.5)])


def test_measure_examples():
    assert canonicalize([(0.0, 0.5)]).measure == 0.5
    assert full_torus().measure == 1.0
    assert empty_set().measure == 0.0


def test_complement_translate_examples():
    K = canonicalize([(0.0, 0.5)])
    assert K.complement().intervals == ((0.5, 1.0),)
    T = canonicalize([(0.0, 0.3)]).translate(0.9)
    assert len(T.intervals) == 2 and T.wraps
    assert T.intervals[0][0] == 0.0
    assert T.intervals[0][1] == pytest.approx(0.2, abs=1e-15)
    assert T.intervals[1] == (0.9, 1.0)
    assert K.translate(0.0).intervals == K.intervals


def test_complement_translate_measures():
    rng = np.random.default_rng(3)
    for _ in range(30):
        K = random_interval_set(rng)
        phi = float(rng.uniform())
        assert K.complement().measure == pytest.approx(1.0 - K.measure, abs=1e-12)
        assert K.translate(phi).measure == pytest.approx(K.measure, abs=1e-12)
        back = K.translate(phi).translate(-phi)
        assert back.measure == pytest.approx(K.measure, abs=1e-12)


def deficit(K, phi):
    return float(overlap_deficit_profile(K, phi))


def test_overlap_deficit_single_interval():
    K = canonicalize([(0.1, 0.4)])           # |K| = 0.3
    assert deficit(K, 0.1) == pytest.approx(0.1, abs=1e-12)
    assert deficit(K, 0.4) == pytest.approx(0.3, abs=1e-12)
    assert deficit(full_torus(), 0.37) == 0.0
    assert deficit(empty_set(), 0.37) == 0.0


def test_overlap_deficit_symmetry_and_complement():
    rng = np.random.default_rng(11)
    for _ in range(25):
        K = random_interval_set(rng)
        phi = float(rng.uniform(-0.5, 0.5))
        d = deficit(K, phi)
        assert d == pytest.approx(deficit(K, -phi), abs=1e-12)
        assert d == pytest.approx(deficit(K.complement(), phi), abs=1e-12)
        assert d == pytest.approx(K.measure - K.intersection(K.translate(phi)).measure,
                                  abs=1e-12)


def test_overlap_deficit_lower_bound_m_phi():
    # union of M intervals with all lengths and gaps above delta: the deficit
    # grows at least like M * phi up to delta
    K = canonicalize([(0.05, 0.2), (0.3, 0.5), (0.6, 0.85)])
    delta = 0.1
    for phi in np.linspace(0.0, delta, 40):
        assert deficit(K, phi) >= 3 * phi - 1e-12


def test_overlap_deficit_profile_matches_set_algebra():
    rng = np.random.default_rng(5)
    sets = [random_interval_set(rng, max_intervals=8, min_length=0.01)
            for _ in range(30)]
    sets += [K.translate(float(rng.uniform())) for K in sets[:10]]
    sets.append(cantor_generate(CantorSpec(0.25, 1.0, 7)))
    assert sum(K.wraps for K in sets) >= 3
    for K in sets:
        phis = rng.uniform(-1.0, 1.0, size=8)
        prof = overlap_deficit_profile(K, phis)
        for phi, val in zip(phis, prof):
            exact = K.measure - K.intersection(K.translate(float(phi))).measure
            assert abs(val - exact) <= 1e-13
        # the cumulative sums behind the profile return to 0 at phi = 1
        assert abs(deficit(K, 1.0)) <= 1e-13
        assert abs(_deficit_knots(K)[1][-1]) <= 1e-13


def test_deficit_breakpoints_cover_kinks():
    K = canonicalize([(0.1, 0.35), (0.5, 0.6)])
    bps = deficit_breakpoints(K)
    assert np.all(np.diff(bps) > 0)
    assert bps[0] == -0.5 and bps[-1] == 0.5
    # profile is affine between consecutive breakpoints
    for lo, hi in zip(bps[:-1], bps[1:]):
        xs = np.linspace(lo, hi, 9)
        ys = overlap_deficit_profile(K, xs)
        lin = ys[0] + (ys[-1] - ys[0]) * (xs - lo) / (hi - lo)
        assert np.max(np.abs(ys - lin)) < 1e-10


def test_cantor_examples():
    K1 = cantor_generate(CantorSpec(0.25, 1.0, 1))
    assert K1.intervals == ((0.0, 0.375), (0.625, 1.0))
    K2 = cantor_generate(CantorSpec(0.25, 1.0, 2))
    assert K2.intervals == ((0.0, 0.15625), (0.21875, 0.375),
                            (0.625, 0.78125), (0.84375, 1.0))
    assert cantor_generate(CantorSpec(0.25, 1.0, 0)).is_full


def test_cantor_measure_closed_form():
    for q, a in ((0.25, 1.0), (1 / 3, 0.9), (0.1, 2.0)):
        for depth in (1, 3, 6, 9):
            spec = CantorSpec(q, a, depth)
            K = cantor_generate(spec)
            removed = sum(2 ** (m - 1) * a * q ** m for m in range(1, depth + 1))
            assert K.measure == pytest.approx(1.0 - removed, abs=1e-12)
            assert K.measure == pytest.approx(spec.truncated_measure(), abs=1e-12)
            assert len(K.intervals) == 2 ** depth


def test_cantor_limit_measure():
    # q = 1/4, a = 1: the limit set keeps measure 1/2; truncations approach it
    spec = CantorSpec(0.25, 1.0)
    assert spec.limit_measure == pytest.approx(0.5, abs=1e-15)
    for depth in (2, 5, 10):
        K = cantor_generate(CantorSpec(0.25, 1.0, depth))
        assert K.measure == pytest.approx(0.5 + 2.0 ** (-depth - 1), abs=1e-12)


def test_cantor_invalid_specs():
    with pytest.raises(TorusSetError):
        CantorSpec(0.6, 1.0, 1)              # ratio >= 1/2
    with pytest.raises(TorusSetError):
        CantorSpec(0.25, 3.0, 1)             # removes more than everything
    with pytest.raises(ValueError, match="^cantor depth must be >= 0, got -1$"):
        CantorSpec(0.25, 1.0, -1)
    with pytest.raises(TorusSetError, match="amplitude must be positive"):
        CantorSpec(0.25, 0.0, 1)
    with pytest.raises(TorusSetError, match="below endpoint resolution"):
        cantor_generate(CantorSpec(0.25, 1.0, 20))   # holes of 0.25**20 < 1e-11
    # amplitude valid for the limit but hole too long for the unit parent
    with pytest.raises(TorusSetError):
        cantor_generate(CantorSpec(0.45, 2.2, 2))


def test_fermi_sea_cosine_band():
    th = np.linspace(0.0, 1.0, 401)[:-1]
    disp = DispersionSamples(tuple(th), tuple(np.cos(2 * np.pi * th)))
    K = fermi_sea(disp, 0.5)
    assert len(K.intervals) == 1
    (a, b), = K.intervals
    assert a == pytest.approx(0.25, abs=1e-9)
    assert b == pytest.approx(0.75, abs=1e-9)
    assert K.measure == pytest.approx(0.5, abs=1e-9)


def test_fermi_sea_inverted_band_wraps():
    th = np.linspace(0.0, 1.0, 401)[:-1]
    disp = DispersionSamples(tuple(th), tuple(-np.cos(2 * np.pi * th)))
    K = fermi_sea(disp, 0.5)
    assert K.wraps
    assert K.measure == pytest.approx(0.5, abs=1e-9)
    assert K.intervals[0][1] == pytest.approx(0.25, abs=1e-9)
    assert K.intervals[1][0] == pytest.approx(0.75, abs=1e-9)


def test_fermi_sea_edge_fillings():
    th = (0.0, 0.25, 0.5, 0.75)
    disp = DispersionSamples(th, (0.0, 1.0, 2.0, 1.0))
    assert fermi_sea(disp, 0.0).is_empty
    assert fermi_sea(disp, 1.0).is_full
    with pytest.raises(TorusSetError):
        fermi_sea(disp, 1.5)


def test_fermi_sea_plateau_reported():
    disp = DispersionSamples((0.0, 0.25, 0.5, 0.75), (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(DispersionPlateauError, match="plateau"):
        fermi_sea(disp, 0.5)


def test_fermi_sea_measure_tracks_filling():
    th = np.linspace(0.0, 1.0, 301)[:-1]
    disp = DispersionSamples(tuple(th), tuple(np.sin(4 * np.pi * th)))
    for lam in (0.1, 0.37, 0.62, 0.9):
        assert fermi_sea(disp, lam).measure == pytest.approx(lam, abs=1e-9)


def test_dispersion_validation():
    with pytest.raises(TorusSetError):
        DispersionSamples((0.0, 0.5), (0.0, 1.0))            # too few
    with pytest.raises(TorusSetError):
        DispersionSamples((0.0, 0.5, 0.4), (0.0, 1.0, 2.0))  # not increasing
    with pytest.raises(TorusSetError):
        DispersionSamples((0.0, 0.5, 1.0), (0.0, 1.0, 2.0))  # theta = 1
    with pytest.raises(TorusSetError, match="sample counts differ"):
        DispersionSamples((0.0, 0.3, 0.6), (0.0, 1.0))
    with pytest.raises(TorusSetError, match="non-finite energy"):
        DispersionSamples((0.0, 0.3, 0.6), (0.0, float("inf"), 1.0))


def test_random_generators_are_wellformed():
    rng = np.random.default_rng(0)
    for _ in range(20):
        K = random_interval_set(rng)
        assert 1 <= K.interval_count <= 3
        assert 0.0 < K.measure < 1.0
        k1, k2 = random_disjoint_pair(rng)
        assert k1.intersection(k2).measure == 0.0


def test_separated_slots_keep_min_length():
    rng = np.random.default_rng(3)
    for m in (1, 2, 4):
        slots = _separated_slots(rng, m, 0.05)
        pts = np.ravel(slots)
        assert len(slots) == m and np.all(np.diff(pts) >= 0.05)
        assert pts[0] >= 0.05 and 1.0 - pts[-1] >= 0.05


def test_random_draws_are_pinned():
    # verify and the benchmark's routes-cantor pairs replay these draws.
    rng = np.random.default_rng(0)
    assert random_interval_set(rng).intervals == (
        (0.033585575305464355, 0.17565562060255901),
        (0.2997118905373848, 0.5414612202490917),
        (0.7296554464299441, 0.8631789223498866))
    k1, k2 = random_disjoint_pair(np.random.default_rng(1))
    assert k1.intervals == ((0.303194829291645, 0.40311298644712923),)
    assert k2.intervals == ((0.13404169724716475, 0.20345524067614962),
                            (0.4534978894806515, 0.7884287034284043))
