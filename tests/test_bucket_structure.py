"""Bucket structures BS(x, y) — §3.1 — with one R/Q slot pair per lane."""

import random

import pytest

from repro.core.bucket_structure import BucketStructure
from repro.core.tracking import CandidateObserver, SampleCandidate


class RecordingObserver(CandidateObserver):
    def __init__(self):
        self.selected = []
        self.discarded = []

    def on_select(self, candidate):
        self.selected.append(candidate)

    def on_discard(self, candidate):
        self.discarded.append(candidate)


def singleton(index, value=None, timestamp=None, observer=None, lanes=1):
    return BucketStructure.singleton(
        value if value is not None else f"v{index}",
        index,
        float(timestamp if timestamp is not None else index),
        lanes,
        observer,
    )


def coins(*seeds):
    return [random.Random(seed).random for seed in seeds]


class TestSingleton:
    def test_geometry(self):
        bucket = singleton(7)
        assert bucket.start == 7
        assert bucket.end == 8
        assert bucket.width == 1
        assert bucket.lanes == 1
        assert bucket.covers(7)
        assert not bucket.covers(8)

    def test_samples_equal_the_only_element(self):
        bucket = singleton(3, value="x", timestamp=9.0, lanes=4)
        for lane in range(4):
            assert bucket.r_samples[lane].value == "x"
            assert bucket.q_samples[lane].value == "x"
            assert bucket.r_samples[lane].index == 3
        assert bucket.first_timestamp == 9.0

    def test_observed_candidates_are_distinct_per_lane_and_slot(self):
        """Observer state is per retained candidate, so with an observer each
        lane's R and Q are their own records."""
        bucket = singleton(3, observer=RecordingObserver(), lanes=3)
        records = bucket.r_samples + bucket.q_samples
        assert len({id(candidate) for candidate in records}) == 6

    def test_unobserved_slots_share_one_record(self):
        bucket = singleton(3, lanes=3)
        records = bucket.r_samples + bucket.q_samples
        assert len({id(candidate) for candidate in records}) == 1

    def test_observer_sees_selections_lane_by_lane_r_before_q(self):
        observer = RecordingObserver()
        bucket = singleton(0, observer=observer, lanes=2)
        assert observer.selected == [
            bucket.r_samples[0],
            bucket.q_samples[0],
            bucket.r_samples[1],
            bucket.q_samples[1],
        ]

    def test_invalid_boundaries_rejected(self):
        candidate = SampleCandidate(value=1, index=0, timestamp=0.0)
        with pytest.raises(ValueError):
            BucketStructure(start=5, end=5, first_value=1, first_timestamp=0.0,
                            r_samples=[candidate], q_samples=[candidate])

    def test_mismatched_lane_counts_rejected(self):
        candidate = SampleCandidate(value=1, index=0, timestamp=0.0)
        with pytest.raises(ValueError):
            BucketStructure(start=0, end=1, first_value=1, first_timestamp=0.0,
                            r_samples=[candidate, candidate], q_samples=[candidate])


class TestAbsorb:
    def test_merge_geometry(self):
        left = BucketStructure.singleton("a", 0, 0.0)
        right = BucketStructure.singleton("b", 1, 1.0)
        left.absorb(right, coins(1))
        assert left.start == 0
        assert left.end == 2
        assert left.width == 2
        assert left.first_value == "a"
        assert left.first_timestamp == 0.0

    def test_merged_sample_comes_from_either_side(self):
        seen = set()
        for seed in range(50):
            left = BucketStructure.singleton("a", 0, 0.0)
            right = BucketStructure.singleton("b", 1, 1.0)
            left.absorb(right, coins(seed))
            seen.add(left.r_samples[0].value)
        assert seen == {"a", "b"}

    def test_merge_probability_is_one_half(self):
        kept_left = 0
        runs = 4000
        for seed in range(runs):
            left = BucketStructure.singleton("a", 0, 0.0)
            right = BucketStructure.singleton("b", 1, 1.0)
            left.absorb(right, coins(seed))
            if left.r_samples[0].value == "a":
                kept_left += 1
        assert abs(kept_left / runs - 0.5) < 0.03

    def test_each_lane_flips_its_own_coins_r_then_q(self):
        """Lane i of a shared merge equals a lone single-lane merge driven by
        the same generator, which ends at the same position."""
        seeds = [11, 12, 13]
        left = BucketStructure.singleton("a", 0, 0.0, lanes=3)
        right = BucketStructure.singleton("b", 1, 1.0, lanes=3)
        shared = [random.Random(seed) for seed in seeds]
        left.absorb(right, [rng.random for rng in shared])
        for lane, seed in enumerate(seeds):
            lone_left = BucketStructure.singleton("a", 0, 0.0)
            lone_right = BucketStructure.singleton("b", 1, 1.0)
            lone = random.Random(seed)
            lone_left.absorb(lone_right, [lone.random])
            assert left.r_samples[lane].value == lone_left.r_samples[0].value
            assert left.q_samples[lane].value == lone_left.q_samples[0].value
            assert shared[lane].getstate() == lone.getstate()

    def test_non_adjacent_merge_rejected(self):
        left = BucketStructure.singleton("a", 0, 0.0)
        right = BucketStructure.singleton("b", 5, 5.0)
        with pytest.raises(ValueError):
            left.absorb(right, coins(1))

    def test_unequal_width_merge_rejected(self):
        wide = BucketStructure.singleton("a", 0, 0.0)
        wide.absorb(BucketStructure.singleton("b", 1, 1.0), coins(1))
        tail = BucketStructure.singleton("c", 2, 2.0)
        with pytest.raises(ValueError):
            wide.absorb(tail, coins(1))

    def test_merge_notifies_discard_of_losing_samples(self):
        observer = RecordingObserver()
        left = BucketStructure.singleton("a", 0, 0.0, 2, observer)
        right = BucketStructure.singleton("b", 1, 1.0, 2, observer)
        candidates = set(map(id, left.r_samples + left.q_samples + right.r_samples + right.q_samples))
        left.absorb(right, coins(2, 3), observer)
        # Exactly one R and one Q sample lose per lane and are discarded.
        assert len(observer.discarded) == 4
        kept = set(map(id, left.r_samples + left.q_samples))
        assert set(map(id, observer.discarded)) == candidates - kept


class TestExpiryAndBookkeeping:
    def test_first_expired(self):
        bucket = singleton(0, timestamp=10.0)
        assert not bucket.first_expired(now=14.9, t0=5.0)
        assert bucket.first_expired(now=15.0, t0=5.0)

    def test_first_candidate_matches_first_element(self):
        bucket = singleton(4, value="first", timestamp=2.0)
        candidate = bucket.first_candidate()
        assert candidate.value == "first"
        assert candidate.index == 4
        assert candidate.timestamp == 2.0

    def test_iter_candidates_yields_r_and_q(self):
        assert len(list(singleton(0).iter_candidates())) == 2
        assert len(list(singleton(0, lanes=5).iter_candidates())) == 10

    def test_memory_words_count_the_geometry_once(self):
        assert singleton(0).memory_words() == 10
        # 4 words of geometry, then 6 words of R/Q samples per lane.
        assert singleton(0, lanes=400).memory_words() == 4 + 6 * 400

    def test_discard_notifies_observer(self):
        observer = RecordingObserver()
        bucket = singleton(0, observer=observer, lanes=2)
        bucket.discard(observer)
        assert observer.discarded == observer.selected

    def test_state_dicts_round_trip_per_lane(self):
        observer = RecordingObserver()
        left = BucketStructure.singleton("a", 0, 0.0, 3, observer)
        left.absorb(BucketStructure.singleton("b", 1, 1.0, 3, observer), coins(4, 5, 6))
        states = [left.state_dict(lane) for lane in range(3)]
        rebuilt = BucketStructure.from_state_dicts(states)
        assert [rebuilt.state_dict(lane) for lane in range(3)] == states
        assert (rebuilt.start, rebuilt.end, rebuilt.lanes) == (0, 2, 3)
