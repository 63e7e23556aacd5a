"""Property tests for the set laws of ``torus_sets``: starts are drawn from
[-2, 3], so pieces cross the seam 0 == 1 and land next to it. Every set an
operation returns must be in canonical form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_lab.torus_sets import MERGE_TOL, canonicalize


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
