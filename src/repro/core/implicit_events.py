"""Generating implicit events (§3.3, Lemmas 3.6–3.8).

The timestamp-based window has an *unknown* size: when the straddling bucket
``B1 = B(a, b)`` partially overlaps the window, the number ``γ`` of its still
active elements is not stored anywhere (storing it would require Ω(n) bits in
the worst case).  The sampling rule of Lemma 3.8 nevertheless needs an event
of probability ``α / (β + γ)`` where ``α = |B1|`` and ``β = |B2|`` is the size
of the covered suffix.  The paper's trick:

* Lemma 3.6 — from the stored uniform sample ``Q1`` of ``B1``, generate a
  *non-uniform* random element ``Y`` of ``B1`` whose probability of being one
  of the last ``i`` elements of ``B1`` telescopes to ``i / (β + i)``... more
  precisely ``P(Y = p_{b-i}) = β / ((β+i)(β+i-1))`` and the leftover mass sits
  on the (expired) first element ``p_a``.
* Lemma 3.7 — then ``P(Y is expired) = β / (β + γ)`` *without knowing γ*, and
  AND-ing with an independent coin of known bias ``α / β`` gives the event
  ``X`` with ``P(X = 1) = α / (β + γ)``.
* Lemma 3.8 — output the straddler's other sample ``R1`` when ``R1`` is active
  and ``X = 1``, otherwise a uniform sample ``R2`` of the suffix ``B2``; the
  result is uniform over the ``β + γ`` active elements.

All three steps cost O(1) time and memory and consume only stored quantities
(``Q1``, ``R1``, timestamps) plus fresh coins of *known* bias.
"""

from __future__ import annotations

import random
from typing import Callable

from ..rng import bernoulli
from .bucket_structure import BucketStructure
from .tracking import SampleCandidate

__all__ = ["generate_y", "generate_x", "combine_straddler_and_suffix"]


def generate_y(
    straddler: BucketStructure,
    suffix_width: int,
    rng: random.Random,
    lane: int = 0,
) -> SampleCandidate:
    """Lemma 3.6: a non-uniform random element ``Y`` of the straddling bucket.

    Parameters
    ----------
    straddler:
        The bucket structure ``BS(a, b)`` whose first element is expired; its
        stored ``Q`` sample supplies the base randomness.
    suffix_width:
        ``β = |B2|``, the number of elements covered by the suffix
        decomposition (all of them active).
    rng:
        Source for the auxiliary coin ``H_i``.
    lane:
        Which of the straddler's independent samples to use.

    Returns the chosen element (as a candidate record): either the ``Q``
    sample's element ``p_{b-i}`` (kept with probability
    ``α·β / ((β+i)(β+i-1))``) or the bucket's first element ``p_a``.
    """
    alpha = straddler.width
    beta = int(suffix_width)
    if beta <= 0:
        raise ValueError("suffix width must be positive")
    q_sample = straddler.q_samples[lane]
    # The paper indexes elements of B(a, b) from the right: p_{b-i}, 1 <= i <= α.
    offset = straddler.end - q_sample.index
    if offset < 1 or offset > alpha:
        raise ValueError(
            f"Q sample index {q_sample.index} lies outside bucket [{straddler.start}, {straddler.end})"
        )
    if offset < alpha:
        keep_probability = (alpha * beta) / ((beta + offset) * (beta + offset - 1))
        if bernoulli(rng, keep_probability):
            return q_sample
    return straddler.first_candidate()


def generate_x(
    straddler: BucketStructure,
    suffix_width: int,
    now: float,
    t0: float,
    rng: random.Random,
    lane: int = 0,
) -> bool:
    """Lemma 3.7: an event of (unknown) probability ``α / (β + γ)``.

    ``γ`` — the number of active elements inside the straddling bucket — never
    appears in the computation: the expiry status of ``Y`` encodes it.
    Requires ``α <= β`` (guaranteed by the Lemma 3.5 invariant), so that the
    auxiliary coin bias ``α/β`` is a valid probability.
    """
    alpha = straddler.width
    beta = int(suffix_width)
    if alpha > beta:
        raise ValueError(f"Lemma 3.7 requires |B1| <= |B2|, got alpha={alpha}, beta={beta}")
    y = generate_y(straddler, beta, rng, lane)
    y_expired = (now - y.timestamp) >= t0
    if not y_expired:
        return False
    return bernoulli(rng, alpha / beta)


def combine_straddler_and_suffix(
    straddler: BucketStructure,
    suffix_width: int,
    draw_suffix_sample: Callable[[], SampleCandidate],
    now: float,
    t0: float,
    rng: random.Random,
    lane: int = 0,
) -> SampleCandidate:
    """Lemma 3.8: a uniform sample of all active elements.

    Combines the straddling bucket's ``R1`` sample (taken when it is active
    and the implicit event ``X`` fires) with a uniform sample ``R2`` of the
    covered suffix, drawn lazily via ``draw_suffix_sample`` (only called when
    needed, keeping the procedure O(1) beyond the suffix draw).  ``lane``
    picks which of the straddler's independent R/Q sample pairs to use.
    """
    x = generate_x(straddler, suffix_width, now, t0, rng, lane)
    r1 = straddler.r_samples[lane]
    r1_active = (now - r1.timestamp) < t0
    if r1_active and x:
        return r1
    return draw_suffix_sample()
