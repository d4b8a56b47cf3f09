"""state_dict / load_state_dict round trips for the paper's four samplers.

The contract: a snapshot taken mid-stream and loaded into a freshly
constructed sampler of the same shape yields (1) byte-identical current
samples and (2) identical behaviour for any identical suffix of the stream —
because candidates, counters *and* every generator position are captured.
"""

import pickle
import random

import pytest

from repro.core import (
    SequenceSamplerWOR,
    SequenceSamplerWR,
    TimestampSamplerWOR,
    TimestampSamplerWR,
    OccurrenceCounter,
    sliding_window_sampler,
)
from repro.exceptions import ConfigurationError


def poisson_stream(length, seed, rate=1.0):
    source = random.Random(seed)
    clock = 0.0
    stream = []
    for value in range(length):
        clock += source.expovariate(rate)
        stream.append((value, clock))
    return stream


SEQUENCE_FACTORIES = [
    ("seq-wr", lambda: SequenceSamplerWR(n=60, k=5, rng=13)),
    ("seq-wor", lambda: SequenceSamplerWOR(n=60, k=5, rng=13)),
]
TIMESTAMP_FACTORIES = [
    ("ts-wr", lambda: TimestampSamplerWR(t0=25.0, k=4, rng=13)),
    ("ts-wor", lambda: TimestampSamplerWOR(t0=25.0, k=4, rng=13)),
]


@pytest.mark.parametrize("label,factory", SEQUENCE_FACTORIES, ids=[f[0] for f in SEQUENCE_FACTORIES])
class TestSequenceRoundTrip:
    @pytest.mark.parametrize("cut", [1, 59, 60, 61, 137, 240])
    def test_restore_is_byte_identical_and_future_proof(self, label, factory, cut):
        original = factory()
        for value in range(cut):
            original.append(value)
        snapshot = original.state_dict()

        restored = factory()
        restored.load_state_dict(snapshot)
        assert restored.total_arrivals == original.total_arrivals
        assert pickle.dumps(restored.sample()) == pickle.dumps(original.sample())
        assert restored.memory_words() == original.memory_words()

        # Identical suffix => identical samples forever after.
        for value in range(cut, cut + 150):
            original.append(value)
            restored.append(value)
        assert restored.sample() == original.sample()
        assert restored.sample() == original.sample()  # repeated draws stay in lockstep

    def test_snapshot_survives_pickling(self, label, factory):
        original = factory()
        for value in range(100):
            original.append(value)
        snapshot = pickle.loads(pickle.dumps(original.state_dict()))
        restored = factory()
        restored.load_state_dict(snapshot)
        assert restored.sample() == original.sample()


@pytest.mark.parametrize("label,factory", TIMESTAMP_FACTORIES, ids=[f[0] for f in TIMESTAMP_FACTORIES])
class TestTimestampRoundTrip:
    @pytest.mark.parametrize("cut", [1, 5, 120, 300])
    def test_restore_is_byte_identical_and_future_proof(self, label, factory, cut):
        stream = poisson_stream(cut + 200, seed=5)
        original = factory()
        for value, timestamp in stream[:cut]:
            original.advance_time(timestamp)
            original.append(value, timestamp)
        snapshot = original.state_dict()

        restored = factory()
        restored.load_state_dict(snapshot)
        assert restored.now == original.now
        assert pickle.dumps(restored.sample()) == pickle.dumps(original.sample())
        assert restored.memory_words() == original.memory_words()

        for value, timestamp in stream[cut:]:
            for sampler in (original, restored):
                sampler.advance_time(timestamp)
                sampler.append(value, timestamp)
        assert restored.sample() == original.sample()

    def test_restore_before_any_arrival(self, label, factory):
        original = factory()
        restored = factory()
        restored.load_state_dict(original.state_dict())
        assert restored.total_arrivals == 0


class TestObserverStateSurvives:
    def test_occurrence_counters_resume_after_restore(self):
        values = [7, 7, 7, 7, 7, 7, 7, 7]  # constant stream: every candidate counts the rest

        def build():
            return SequenceSamplerWR(n=100, k=3, rng=3, observer=OccurrenceCounter())

        original = build()
        for value in values:
            original.append(value)
        restored = build()
        restored.load_state_dict(original.state_dict())

        def counts(sampler):
            return [OccurrenceCounter.count_of(c) for c in sampler.sample_candidates()]

        assert counts(restored) == counts(original)
        for sampler in (original, restored):
            sampler.append(7)
        assert counts(restored) == counts(original)


class TestSnapshotValidation:
    def test_type_mismatch_rejected(self):
        wr = SequenceSamplerWR(n=10, k=2, rng=1)
        wr.append(1)
        wor = SequenceSamplerWOR(n=10, k=2, rng=1)
        with pytest.raises(ConfigurationError):
            wor.load_state_dict(wr.state_dict())

    def test_k_mismatch_rejected(self):
        source = SequenceSamplerWR(n=10, k=2, rng=1)
        target = SequenceSamplerWR(n=10, k=3, rng=1)
        with pytest.raises(ConfigurationError):
            target.load_state_dict(source.state_dict())

    def test_window_parameter_mismatch_rejected(self):
        source = SequenceSamplerWR(n=10, k=2, rng=1)
        target = SequenceSamplerWR(n=20, k=2, rng=1)
        with pytest.raises(ConfigurationError):
            target.load_state_dict(source.state_dict())
        ts_source = TimestampSamplerWR(t0=5.0, k=2, rng=1)
        ts_target = TimestampSamplerWR(t0=9.0, k=2, rng=1)
        with pytest.raises(ConfigurationError):
            ts_target.load_state_dict(ts_source.state_dict())

    def test_format_and_missing_fields_rejected(self):
        sampler = SequenceSamplerWR(n=10, k=2, rng=1)
        state = sampler.state_dict()
        state["format"] = 999
        with pytest.raises(ConfigurationError):
            sampler.load_state_dict(state)
        with pytest.raises(ConfigurationError):
            sampler.load_state_dict({"format": 1})

    @staticmethod
    def _straddling_ts_wr_state():
        sampler = TimestampSamplerWR(t0=25.0, k=4, rng=13)
        for value, stamp in poisson_stream(200, seed=5):
            sampler.append(value, stamp)
        state = sampler.state_dict()
        assert all(lane["straddler"] is not None for lane in state["payload"]["coverages"])
        return state

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lane: lane["decomposition"]["buckets"][1].update(start=7, end=9),
            lambda lane: lane["decomposition"]["buckets"][0].update(first_timestamp=-1.0),
            lambda lane: lane["straddler"].update(first_timestamp=-1.0),
            lambda lane: lane.update(straddler=None),
            lambda lane: lane["decomposition"]["buckets"].pop(),
            lambda lane: lane.update(now=lane["now"] + 1.0),
        ],
        ids=["bounds", "first-timestamp", "straddler-geometry", "straddler-presence", "bucket-count", "clock"],
    )
    def test_ts_wr_lanes_that_disagree_on_geometry_are_rejected(self, edit):
        """The k lanes share one geometry: a snapshot whose lanes disagree
        (edited, or stitched from different samplers) names the first
        differing lane and leaves the receiving sampler untouched."""
        state = self._straddling_ts_wr_state()
        edit(state["payload"]["coverages"][2])
        target = TimestampSamplerWR(t0=25.0, k=4, rng=13)
        before = target.state_dict()
        with pytest.raises(ConfigurationError, match="lane 2 disagrees with lane 0"):
            target.load_state_dict(state)
        assert target.state_dict() == before

    def test_ts_wr_snapshot_with_consistent_lanes_loads(self):
        state = self._straddling_ts_wr_state()
        target = TimestampSamplerWR(t0=25.0, k=4, rng=99)
        target.load_state_dict(pickle.loads(pickle.dumps(state)))
        assert target.state_dict() == state

    def test_baselines_do_not_pretend_to_checkpoint(self):
        baseline = sliding_window_sampler("sequence", n=10, k=2, algorithm="chain", rng=1)
        with pytest.raises(NotImplementedError):
            baseline.state_dict()
