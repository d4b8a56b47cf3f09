"""Property-based tests for the covering decomposition and the Lemma 3.5 automaton."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covering import CoveringDecomposition, WindowCoverage, canonical_boundaries


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=400))
def test_canonical_boundaries_partition_the_range(start, width):
    end = start + width - 1
    pairs = canonical_boundaries(start, end)
    # Contiguous, covering exactly [start, end], last bucket is the singleton {end}.
    assert pairs[0][0] == start
    assert pairs[-1] == (end, end + 1)
    for (s1, e1), (s2, e2) in zip(pairs, pairs[1:]):
        assert e1 == s2
        assert e1 > s1
    assert sum(e - s for s, e in pairs) == width
    # Logarithmic count.
    assert len(pairs) <= 2 * max(width, 2).bit_length() + 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**31))
def test_incr_always_matches_the_canonical_decomposition(width, seed):
    rngs = [random.Random(seed), random.Random(seed + 1)]
    decomposition = CoveringDecomposition(rngs)
    for index in range(width):
        decomposition.incr(f"v{index}", index, float(index))
    assert decomposition.boundaries() == canonical_boundaries(0, width - 1)
    for bucket in decomposition.buckets:
        for lane in range(2):
            assert bucket.start <= bucket.r_samples[lane].index < bucket.end
            assert bucket.start <= bucket.q_samples[lane].index < bucket.end


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=200),
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
def test_window_coverage_invariants_on_arbitrary_arrival_gaps(gaps, t0, seed):
    """For any non-decreasing arrival pattern the automaton keeps its invariants:
    the newest element is always covered, the straddler (if any) is never wider
    than the suffix, and every lane's drawn sample is an active element."""
    coverage = WindowCoverage(t0, [random.Random(seed + lane) for lane in range(3)])
    query_rng = random.Random(seed + 1)
    now = 0.0
    for index, gap in enumerate(gaps):
        now += gap
        coverage.advance_time(now)
        coverage.observe(index, index, now)
        assert not coverage.is_empty  # the element just added is active
        assert coverage.decomposition.covered_end == index
        if coverage.case == 2:
            assert coverage.straddler.width <= coverage.decomposition.covered_width
        for candidate in coverage.draw_samples(query_rng):
            assert now - candidate.timestamp < t0
            assert candidate.index <= index


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=8.0, allow_nan=False), min_size=1, max_size=150),
    st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
def test_each_lane_is_an_independent_lone_automaton(gaps, t0, seed):
    """Lane independence: lane i of a shared automaton holds exactly the
    state of a lone single-lane automaton fed the same arrivals with lane
    i's generator — through straddler re-anchoring and whole-window expiry
    alike — and the geometry shared by the lanes is canonical."""
    lanes = 3
    shared = WindowCoverage(t0, [random.Random(seed + lane) for lane in range(lanes)])
    lone = [WindowCoverage(t0, [random.Random(seed + lane)]) for lane in range(lanes)]
    now = 0.0
    for index, gap in enumerate(gaps):
        now += gap
        for coverage in [shared, *lone]:
            coverage.advance_time(now)
            coverage.observe(index, index, now)
        assert shared.decomposition.is_canonical()
    states = shared.state_dicts()
    for lane in range(lanes):
        assert states[lane] == lone[lane].state_dicts()[0]
    # The word model charges the clock, t0 and each bucket's geometry once.
    geometry_buckets = shared.decomposition.bucket_count + (shared.straddler is not None)
    saved = sum(coverage.memory_words() for coverage in lone) - shared.memory_words()
    assert saved == (lanes - 1) * (2 + 4 * geometry_buckets)
