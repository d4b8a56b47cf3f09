"""Covering decompositions ζ(a, b) and the Incr operator — §3.2, Lemma 3.4."""

import random

import pytest

from repro.core.covering import CoveringDecomposition, canonical_boundaries, floor_log2
from repro.exceptions import EmptyWindowError, StreamOrderError


def build_decomposition(count, start=0, rng_seed=1, lanes=1):
    """Build ζ(start, start+count-1) by repeated Incr (lane i seeded rng_seed + i)."""
    rngs = [random.Random(rng_seed + lane) for lane in range(lanes)]
    decomposition = CoveringDecomposition(rngs)
    for offset in range(count):
        index = start + offset
        decomposition.incr(f"v{index}", index, float(index))
    return decomposition


class TestFloorLog2:
    @pytest.mark.parametrize(
        "value,expected",
        [(1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (8, 3), (1023, 9), (1024, 10)],
    )
    def test_values(self, value, expected):
        assert floor_log2(value) == expected

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            floor_log2(0)


class TestCanonicalBoundaries:
    def test_single_element(self):
        assert canonical_boundaries(5, 5) == [(5, 6)]

    def test_small_examples_match_definition(self):
        # ζ(0, 1): c = 0 + 2^(floor(log 2)-1) = 1 -> [(0,1), (1,2)]
        assert canonical_boundaries(0, 1) == [(0, 1), (1, 2)]
        # ζ(0, 2): c = 0 + 2^(floor(log 3)-1) = 1 -> [(0,1)] + ζ(1,2)
        assert canonical_boundaries(0, 2) == [(0, 1), (1, 2), (2, 3)]
        # ζ(0, 3): width 4 -> c = 2
        assert canonical_boundaries(0, 3) == [(0, 2), (2, 3), (3, 4)]

    def test_boundaries_are_contiguous_and_cover(self):
        for b in range(0, 70):
            pairs = canonical_boundaries(0, b)
            assert pairs[0][0] == 0
            assert pairs[-1] == (b, b + 1)
            for (s1, e1), (s2, e2) in zip(pairs, pairs[1:]):
                assert e1 == s2

    def test_width_is_logarithmic(self):
        for b in [10, 100, 1000, 10_000]:
            pairs = canonical_boundaries(0, b)
            assert len(pairs) <= 2 * (b + 1).bit_length() + 2

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            canonical_boundaries(3, 2)


class TestIncrMaintainsCanonicalForm:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 17, 64, 200])
    def test_incr_equals_definition(self, count):
        """Lemma 3.4: Incr(ζ(a, b)) has exactly the boundaries of ζ(a, b+1)."""
        decomposition = build_decomposition(count)
        assert decomposition.boundaries() == canonical_boundaries(0, count - 1)
        assert decomposition.is_canonical()

    def test_incr_with_nonzero_start(self):
        decomposition = build_decomposition(37, start=1000)
        assert decomposition.boundaries() == canonical_boundaries(1000, 1036)

    def test_incr_rejects_index_gaps(self):
        decomposition = build_decomposition(5)
        with pytest.raises(StreamOrderError):
            decomposition.incr("late", 99, 99.0)

    def test_covered_range_properties(self):
        decomposition = build_decomposition(10, start=3)
        assert decomposition.covered_start == 3
        assert decomposition.covered_end == 12
        assert decomposition.covered_width == 10

    def test_samples_lie_inside_their_buckets(self):
        decomposition = build_decomposition(300, rng_seed=7, lanes=3)
        for bucket in decomposition.buckets:
            for lane in range(3):
                assert bucket.start <= bucket.r_samples[lane].index < bucket.end
                assert bucket.start <= bucket.q_samples[lane].index < bucket.end

    def test_empty_decomposition_raises_on_queries(self):
        decomposition = CoveringDecomposition([random.Random(1)])
        assert decomposition.is_empty
        with pytest.raises(EmptyWindowError):
            _ = decomposition.covered_start
        with pytest.raises(EmptyWindowError):
            decomposition.draw_uniform(random.Random(2))

    def test_incr_on_empty_creates_singleton(self):
        decomposition = CoveringDecomposition([random.Random(1)])
        decomposition.incr("x", 5, 5.0)
        assert decomposition.boundaries() == [(5, 6)]


class TestLaneIndependence:
    """The lanes of one decomposition share the geometry and nothing else:
    lane i holds exactly the slots of a lone decomposition driven by lane
    i's generator, which ends at the same position."""

    @pytest.mark.parametrize("count", [1, 3, 64, 300])
    def test_each_lane_equals_a_lone_decomposition(self, count):
        shared = build_decomposition(count, rng_seed=20, lanes=4)
        for lane in range(4):
            lone = build_decomposition(count, rng_seed=20 + lane)
            assert shared.boundaries() == lone.boundaries()
            assert shared.state_dict(lane) == lone.state_dict(0)
            assert shared._rngs[lane].getstate() == lone._rngs[0].getstate()


class TestDrawUniform:
    def test_uniform_over_covered_elements(self):
        width = 33
        counts = {index: 0 for index in range(width)}
        runs = 6000
        for seed in range(runs):
            decomposition = build_decomposition(width, rng_seed=seed)
            candidate = decomposition.draw_uniform(random.Random(seed + 10_000))
            counts[candidate.index] += 1
        expected = runs / width
        for index, count in counts.items():
            assert abs(count - expected) < 0.45 * expected + 10, (index, count)

    def test_draw_returns_a_stored_sample(self):
        decomposition = build_decomposition(50, rng_seed=3, lanes=2)
        rng = random.Random(4)
        for lane in range(2):
            stored = {bucket.r_samples[lane].index for bucket in decomposition.buckets}
            for _ in range(20):
                assert decomposition.draw_uniform(rng, lane).index in stored


class TestSplitAtStraddler:
    def test_split_identifies_the_boundary_bucket(self):
        # Elements at timestamps 0..29, window span 10, now = 35 -> active are 26..29.
        decomposition = build_decomposition(30, rng_seed=2)
        straddler, discarded, suffix = decomposition.split_at_straddler(now=35.0, t0=10.0)
        assert straddler is not None
        # The straddler's first element is expired, the suffix's first is active.
        assert 35.0 - straddler.first_timestamp >= 10.0
        assert 35.0 - suffix[0].first_timestamp < 10.0
        # Together the discarded prefix, straddler and suffix are the original list.
        assert [*discarded, straddler, *suffix] == decomposition.buckets

    def test_split_when_nothing_expired(self):
        decomposition = build_decomposition(10)
        straddler, discarded, suffix = decomposition.split_at_straddler(now=5.0, t0=100.0)
        assert straddler is None
        assert discarded == []
        assert len(suffix) == len(decomposition.buckets)

    def test_split_when_everything_expired_raises(self):
        decomposition = build_decomposition(10)
        with pytest.raises(EmptyWindowError):
            decomposition.split_at_straddler(now=1_000.0, t0=1.0)


class TestBookkeeping:
    def test_memory_words_scale_with_bucket_count(self):
        decomposition = build_decomposition(1000)
        assert decomposition.memory_words() == 10 * decomposition.bucket_count

    def test_memory_words_count_the_geometry_once(self):
        decomposition = build_decomposition(1000, lanes=7)
        assert decomposition.memory_words() == (4 + 6 * 7) * decomposition.bucket_count

    def test_discard_all_empties(self):
        decomposition = build_decomposition(20)
        decomposition.discard_all()
        assert decomposition.is_empty
        assert decomposition.memory_words() == 0

    def test_len_and_iter_candidates(self):
        decomposition = build_decomposition(20, lanes=3)
        assert len(decomposition) == decomposition.bucket_count
        assert len(list(decomposition.iter_candidates())) == 2 * 3 * decomposition.bucket_count


class TestMergeRunGeometry:
    """The structural fact the batched ``Incr`` fast path relies on.

    ``WindowCoverage.observe_batch`` replaces the reference walk's full
    front-to-back scan with an O(1) probe: in a canonical decomposition
    ζ(a, b), the positions where ``Incr`` merges — those whose gap
    ``b + 2 - a_p`` is a power of two — always form a contiguous stride-2
    run ending at the third-from-last bucket, so "does this arrival merge at
    all?" is answered by that single bucket and the run front is found by a
    backward stride-2 gap scan.  This pins the claim against the reference
    walk for every canonical geometry up to a few thousand elements wide
    (every width is exercised, so every merge-cascade shape occurs).
    """

    @staticmethod
    def reference_walk_merges(bounds, newest):
        """Merge positions of ``CoveringDecomposition.incr``'s walk."""
        merges = []
        position = 0
        while len(bounds) - position > 1:
            a = bounds[position][0]
            if floor_log2(newest + 2 - a) == floor_log2(newest + 1 - a):
                position += 1
            else:
                merges.append(position)
                position += 2
        return merges

    @pytest.mark.parametrize("start", [0, 1, 7, 64, 1023])
    def test_merges_are_a_stride2_suffix_with_o1_detection(self, start):
        for width in range(1, 2050):
            newest = start + width - 1
            bounds = canonical_boundaries(start, newest)
            merges = self.reference_walk_merges(bounds, newest)
            count = len(bounds)
            # The O(1) probe used by observe_batch: a merge happens iff the
            # third-from-last bucket starts at index - 3 (gap exactly 4),
            # where index = newest + 1 is the arriving element.
            probe = count >= 3 and bounds[count - 3][0] == (newest + 1) - 3
            assert probe == bool(merges), (start, width, bounds[-4:], merges)
            # Merge positions are exactly the power-of-two gaps, and they
            # form the stride-2 run ending at position count - 3.
            power_of_two_gaps = [
                position
                for position in range(count - 1)
                if ((newest + 2 - bounds[position][0]) & (newest + 1 - bounds[position][0])) == 0
            ]
            assert merges == power_of_two_gaps, (start, width)
            if merges:
                assert merges[-1] == count - 3, (start, width, merges)
                assert merges == list(range(merges[0], count - 2, 2)), (start, width, merges)

    def test_incr_batch_shapes_still_canonical_after_mass_growth(self):
        """Belt and braces: growing a decomposition far past the probe's
        exercised widths keeps the stored boundaries canonical."""
        decomposition = build_decomposition(5000)
        assert decomposition.is_canonical()
