"""Property tests for the set laws of ``torus_sets``: starts are drawn from
[-2, 3], so pieces cross the seam 0 == 1 and land next to it. Every set an
operation returns must be in canonical form, and the constructor must accept
exactly the fixed points of ``canonicalize``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_lab.specio import parse_spec
from entropy_lab.torus_sets import MERGE_TOL, TorusIntervalSet, TorusSetError, canonicalize


def canonical(K):
    """K, after checking its pieces apart from the constructor: each with
    0 <= s < e <= 1, sorted, and gaps wider than MERGE_TOL."""
    ivs = K.intervals
    assert all(0.0 <= s < e <= 1.0 for s, e in ivs)
    assert all(b[0] > a[1] + MERGE_TOL for a, b in zip(ivs, ivs[1:]))
    return K

piece = st.tuples(st.floats(min_value=-2.0, max_value=3.0),
                  st.floats(min_value=1e-6, max_value=0.9))
torus_set = st.lists(piece, min_size=1, max_size=4).map(
    lambda raw: canonicalize([(s, s + length) for s, length in raw]))
shift = st.floats(min_value=-2.0, max_value=3.0)

laws = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@laws
@given(torus_set)
def test_canonicalize_is_idempotent(K):
    assert canonicalize(canonical(K).intervals) == K


@laws
@given(torus_set)
def test_double_complement_is_identity(K):
    assert canonical(canonical(K.complement()).complement()) == K


@laws
@given(torus_set)
def test_set_and_complement_cover_the_torus(K):
    assert canonical(K.union(K.complement())).is_full
    assert K.measure + K.complement().measure == pytest.approx(1.0, abs=1e-12)


@laws
@given(torus_set, shift)
def test_translation_keeps_measure_and_count(K, phi):
    moved = canonical(K.translate(phi))
    assert moved.measure == pytest.approx(K.measure, abs=1e-12)
    assert moved.interval_count == K.interval_count


@laws
@given(torus_set, torus_set)
def test_union_and_intersection_measures_add_up(A, B):
    union, meet = canonical(A.union(B)), canonical(A.intersection(B))
    assert union.measure + meet.measure == pytest.approx(A.measure + B.measure, abs=1e-12)


# Endpoints anywhere, next to the seam or half an ulp-step apart.
endpoint = st.one_of(
    st.floats(min_value=-2.0, max_value=3.0),
    st.sampled_from([0.0, 1.0, MERGE_TOL / 2, MERGE_TOL, 1.0 - MERGE_TOL,
                     1.0 - MERGE_TOL / 2, -MERGE_TOL / 2, 1.0 + MERGE_TOL / 2]),
    st.integers(1, 2 ** 30).map(lambda k: (k + 0.5) * 2.0 ** -53),
)
raw_pairs = st.lists(st.tuples(endpoint, endpoint), max_size=4)
# Sorted points taken two by two: mostly canonical lists, as emitters write.
sorted_pairs = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                        max_size=8).map(lambda xs: sorted(xs)[:len(xs) // 2 * 2]).map(
    lambda xs: list(zip(xs[::2], xs[1::2])))


@laws
@given(st.one_of(raw_pairs, sorted_pairs))
def test_constructor_accepts_exactly_the_fixed_points_of_canonicalize(pairs):
    spec = {"version": 1, "type": "intervals", "intervals": [list(p) for p in pairs]}
    try:
        expected = canonicalize(pairs)
    except TorusSetError:
        with pytest.raises(TorusSetError):
            parse_spec(spec)
        return
    assert parse_spec(spec).intervals == canonical(expected)
    try:
        K = TorusIntervalSet(tuple(pairs))
    except TorusSetError:
        return
    assert expected == K
