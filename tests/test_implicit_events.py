"""Generating implicit events — Lemmas 3.6, 3.7 and 3.8 (§3.3).

These tests verify the *distributions* promised by the lemmas, not just the
plumbing: Y follows the prescribed non-uniform law, X fires with probability
α/(β+γ) even though γ is never given to the code, and the combined sample V is
uniform over all active elements.
"""

import random
from collections import Counter

import pytest

from repro.core.bucket_structure import BucketStructure
from repro.core.implicit_events import combine_straddler_and_suffix, generate_x, generate_y
from repro.core.tracking import SampleCandidate


def make_straddler(alpha, q_index, start=0, timestamps=None):
    """A bucket structure B(start, start+alpha) whose Q sample sits at q_index."""
    timestamps = timestamps or {index: float(index) for index in range(start, start + alpha)}
    r_candidate = SampleCandidate(value=f"r", index=start, timestamp=timestamps[start])
    q_candidate = SampleCandidate(value=f"q", index=q_index, timestamp=timestamps[q_index])
    return BucketStructure(
        start=start,
        end=start + alpha,
        first_value="first",
        first_timestamp=timestamps[start],
        r_samples=[r_candidate],
        q_samples=[q_candidate],
    )


class TestGenerateY:
    def test_distribution_matches_lemma_3_6(self):
        """P(Y = p_{b-i}) = β/((β+i)(β+i-1)); the rest of the mass is on p_a."""
        alpha, beta = 4, 6
        runs = 40_000
        counts = Counter()
        rng = random.Random(0)
        for trial in range(runs):
            # Draw Q uniformly from the bucket, as the real algorithm does.
            q_index = rng.randrange(alpha)
            straddler = make_straddler(alpha, q_index)
            y = generate_y(straddler, beta, rng)
            counts[y.index] += 1
        for i in range(1, alpha):  # the element p_{b-i} has index alpha - i
            expected = beta / ((beta + i) * (beta + i - 1)) * runs
            observed = counts[alpha - i]
            assert abs(observed - expected) < 0.12 * expected + 30, (i, observed, expected)
        expected_first = beta / (beta + alpha - 1) * runs
        assert abs(counts[0] - expected_first) < 0.05 * expected_first

    def test_invalid_suffix_width_rejected(self):
        straddler = make_straddler(3, 1)
        with pytest.raises(ValueError):
            generate_y(straddler, 0, random.Random(1))

    def test_q_sample_outside_bucket_rejected(self):
        straddler = make_straddler(3, 1)
        straddler.q_samples[0] = SampleCandidate(value="bad", index=99, timestamp=99.0)
        with pytest.raises(ValueError):
            generate_y(straddler, 5, random.Random(1))


class TestGenerateX:
    @pytest.mark.parametrize("gamma", [0, 1, 3, 4])
    def test_probability_is_alpha_over_beta_plus_gamma(self, gamma):
        """γ (the number of active elements in the straddler) is implicit: it only
        enters through the timestamps, exactly as in the paper."""
        alpha, beta = 5, 8
        t0 = 100.0
        # Element i (0-based within the bucket) has timestamp i; choosing `now`
        # makes exactly `gamma` of the last elements active.
        now = t0 + (alpha - gamma) - 1 + 0.5
        runs = 30_000
        hits = 0
        rng = random.Random(42)
        for trial in range(runs):
            q_index = rng.randrange(alpha)
            straddler = make_straddler(alpha, q_index)
            if generate_x(straddler, beta, now=now, t0=t0, rng=rng):
                hits += 1
        expected = alpha / (beta + gamma)
        assert abs(hits / runs - expected) < 0.015, (gamma, hits / runs, expected)

    def test_alpha_larger_than_beta_rejected(self):
        straddler = make_straddler(6, 2)
        with pytest.raises(ValueError):
            generate_x(straddler, 3, now=100.0, t0=1.0, rng=random.Random(1))


class TestCombine:
    def test_combined_sample_is_uniform_over_active_elements(self):
        """Lemma 3.8 end to end: V is uniform over the β + γ active elements."""
        alpha, beta, gamma = 4, 6, 2
        t0 = 50.0
        now = t0 + (alpha - gamma) - 1 + 0.5
        suffix_indexes = list(range(alpha, alpha + beta))  # indexes of B2, all active
        runs = 40_000
        counts = Counter()
        rng = random.Random(7)
        for trial in range(runs):
            q_index = rng.randrange(alpha)
            r_index = rng.randrange(alpha)
            straddler = make_straddler(alpha, q_index)
            straddler.r_samples[0] = SampleCandidate(value="r", index=r_index, timestamp=float(r_index))

            def draw_suffix():
                index = rng.choice(suffix_indexes)
                return SampleCandidate(value="suffix", index=index, timestamp=now)

            chosen = combine_straddler_and_suffix(
                straddler, beta, draw_suffix, now=now, t0=t0, rng=rng
            )
            counts[chosen.index] += 1
        active_indexes = [index for index in range(alpha) if now - index < t0] + suffix_indexes
        assert len(active_indexes) == beta + gamma
        expected = runs / (beta + gamma)
        for index in active_indexes:
            assert abs(counts[index] - expected) < 0.07 * expected, (index, counts[index], expected)
        # No expired element is ever returned.
        expired = [index for index in range(alpha) if now - index >= t0]
        for index in expired:
            assert counts[index] == 0


class TestLanes:
    def test_each_lane_reads_its_own_r_and_q_slots(self):
        """A shared straddler serves every lane from that lane's R/Q pair."""
        straddler = make_straddler(4, 3)
        straddler.r_samples.append(SampleCandidate(value="r1", index=2, timestamp=2.0))
        straddler.q_samples.append(SampleCandidate(value="q1", index=1, timestamp=1.0))
        seen = set()
        for seed in range(200):
            y = generate_y(straddler, 6, random.Random(seed), lane=1)
            seen.add(y.index)
            chosen = combine_straddler_and_suffix(
                straddler, 6, lambda: None, now=3.5, t0=2.0, rng=random.Random(seed), lane=1
            )
            assert chosen is None or chosen.value == "r1"
        # Lane 1's Q sample sits at index 1; the rest of Y's mass is on p_0.
        assert seen == {0, 1}
