"""Bucket structures — the unit of the covering decomposition (§3.1).

A bucket ``B(x, y)`` is the set of stream elements with indexes in
``[x, y-1]``.  A *bucket structure* ``BS(x, y)`` is the constant-size summary
the timestamp algorithms keep for such a bucket:

    ``{p_x, x, y, T(p_x), R_{x,y}, Q_{x,y}, r, q}``

i.e. the bucket's first element and timestamp, its boundaries, and two
independent uniform random samples ``R`` and ``Q`` of the bucket together with
the indexes of the picked elements.  ``R`` is used to build the output sample
(Lemma 3.8); ``Q`` fuels the implicit-event generation (Lemmas 3.6–3.7);
keeping them independent is what makes the final combination uniform.

Theorem 3.9 keeps ``k`` independent copies of the structure.  Their
boundaries and first elements depend only on the arrivals, never on the
coins, so one :class:`BucketStructure` stores that *geometry* once and holds
one ``R`` and one ``Q`` slot per lane (``r_samples[lane]``,
``q_samples[lane]``); lane ``i`` of every structure together is exactly the
``i``-th independent copy.

Two bucket structures of equal width can be *merged* (used by the ``Incr``
operator): in each lane, the merged sample is either constituent's sample
with probability 1/2, which is again uniform because the widths are equal.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..memory import MemoryMeter, WORD_MODEL
from .serialization import decode_candidate, encode_candidate, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["BucketStructure"]


class BucketStructure:
    """The summary ``BS(start, end)`` of bucket ``B(start, end)`` (elements
    ``start .. end-1``), with one R/Q sample slot per lane."""

    __slots__ = ("start", "end", "first_value", "first_timestamp", "r_samples", "q_samples")

    def __init__(
        self,
        start: int,
        end: int,
        first_value: Any,
        first_timestamp: float,
        r_samples: List[SampleCandidate],
        q_samples: List[SampleCandidate],
    ) -> None:
        if end <= start:
            raise ValueError(f"bucket must be non-empty: start={start}, end={end}")
        if not r_samples or len(r_samples) != len(q_samples):
            raise ValueError(
                f"need one R and one Q sample per lane: {len(r_samples)} and {len(q_samples)}"
            )
        self.start = int(start)
        self.end = int(end)
        self.first_value = first_value
        self.first_timestamp = float(first_timestamp)
        self.r_samples = list(r_samples)
        self.q_samples = list(q_samples)

    # -- constructors --------------------------------------------------------

    @classmethod
    def singleton(
        cls,
        value: Any,
        index: int,
        timestamp: float,
        lanes: int = 1,
        observer: Optional[CandidateObserver] = None,
    ) -> "BucketStructure":
        """``BS(index, index+1)``: a bucket holding exactly one element, whose
        R and Q samples are necessarily that element in every lane.

        With an observer, each lane's R and Q get their own candidate record
        (observer state is per retained candidate), selected lane by lane, R
        before Q.  Without one, all slots share a single record: nothing
        reads or writes candidate state then, and snapshots encode each slot
        separately, so sharing is invisible.
        """
        bucket = cls.__new__(cls)
        bucket.start = index
        bucket.end = index + 1
        bucket.first_value = value
        bucket.first_timestamp = timestamp
        if observer is None:
            candidate = SampleCandidate(value, index, timestamp)
            bucket.r_samples = [candidate] * lanes
            bucket.q_samples = [candidate] * lanes
            return bucket
        select = observer.on_select
        r_samples = []
        q_samples = []
        for _ in range(lanes):
            r_candidate = SampleCandidate(value, index, timestamp)
            q_candidate = SampleCandidate(value, index, timestamp)
            select(r_candidate)
            select(q_candidate)
            r_samples.append(r_candidate)
            q_samples.append(q_candidate)
        bucket.r_samples = r_samples
        bucket.q_samples = q_samples
        return bucket

    def absorb(
        self,
        right: "BucketStructure",
        coins: Sequence[Callable[[], float]],
        observer: Optional[CandidateObserver] = None,
    ) -> None:
        """Merge the adjacent, equal-width ``right`` into this structure in place.

        Implements the unification step of the ``Incr`` operator: because
        ``|B(a,c)| == |B(c,d)|``, picking either constituent's uniform sample
        with probability 1/2 yields a uniform sample of ``B(a,d)``.  Lane
        ``i`` draws two coins from ``coins[i]`` (``coin() < 0.5`` keeps this
        side), R first, then Q, so the R and Q choices stay independent and
        each lane consumes its own generator exactly as a lone automaton
        would.  The observer hears about the losing R then the losing Q
        sample of each lane.
        """
        if self.end != right.start:
            raise ValueError(f"buckets are not adjacent: {self} and {right}")
        if self.end - self.start != right.end - right.start:
            raise ValueError(
                f"only equal-width buckets may be merged: widths {self.width} and {right.width}"
            )
        left_r = self.r_samples
        left_q = self.q_samples
        right_r = right.r_samples
        right_q = right.q_samples
        lane = 0
        if observer is None:
            for coin in coins:
                if coin() >= 0.5:
                    left_r[lane] = right_r[lane]
                if coin() >= 0.5:
                    left_q[lane] = right_q[lane]
                lane += 1
        else:
            discard = observer.on_discard
            for coin in coins:
                keep_left_r = coin() < 0.5
                keep_left_q = coin() < 0.5
                if keep_left_r:
                    discard(right_r[lane])
                else:
                    discard(left_r[lane])
                    left_r[lane] = right_r[lane]
                if keep_left_q:
                    discard(right_q[lane])
                else:
                    discard(left_q[lane])
                    left_q[lane] = right_q[lane]
                lane += 1
        self.end = right.end

    # -- snapshots ------------------------------------------------------------

    def state_dict(self, lane: int = 0) -> Dict[str, Any]:
        """Snapshot of one lane: boundaries, first element, and that lane's
        R/Q samples (the format of a lone single-sample structure)."""
        return {
            "start": self.start,
            "end": self.end,
            "first_value": self.first_value,
            "first_timestamp": self.first_timestamp,
            "r_sample": encode_candidate(self.r_samples[lane]),
            "q_sample": encode_candidate(self.q_samples[lane]),
        }

    @classmethod
    def from_state_dicts(cls, states: Sequence[Dict[str, Any]]) -> "BucketStructure":
        """Rebuild a structure from one :meth:`state_dict` per lane.

        The geometry is taken from the first lane; the caller checks that
        the other lanes agree with it.
        """
        for state in states:
            require_state_fields(
                state,
                ("start", "end", "first_value", "first_timestamp", "r_sample", "q_sample"),
                "BucketStructure",
            )
        first = states[0]
        return cls(
            start=int(first["start"]),
            end=int(first["end"]),
            first_value=first["first_value"],
            first_timestamp=float(first["first_timestamp"]),
            r_samples=[decode_candidate(state["r_sample"]) for state in states],
            q_samples=[decode_candidate(state["q_sample"]) for state in states],
        )

    # -- geometry ---------------------------------------------------------------

    @property
    def lanes(self) -> int:
        """Number of independent samples (R/Q slot pairs) held."""
        return len(self.r_samples)

    @property
    def width(self) -> int:
        """Number of stream elements summarised by this structure."""
        return self.end - self.start

    def covers(self, index: int) -> bool:
        """Whether the element with the given stream index lies in this bucket."""
        return self.start <= index < self.end

    # -- expiry -------------------------------------------------------------------

    def first_expired(self, now: float, t0: float) -> bool:
        """Whether the bucket's first element has expired at time ``now``."""
        return now - self.first_timestamp >= t0

    # -- bookkeeping -----------------------------------------------------------------

    def first_candidate(self) -> SampleCandidate:
        """The bucket's first element ``p_start`` as a candidate record
        (needed by Lemma 3.6, where ``Y`` may land on ``p_a``)."""
        return SampleCandidate(
            value=self.first_value, index=self.start, timestamp=self.first_timestamp
        )

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        """Every lane's R sample, then every lane's Q sample."""
        return chain(self.r_samples, self.q_samples)

    def discard(self, observer: Optional[CandidateObserver]) -> None:
        """Notify the observer that this structure's samples are being
        dropped: lane by lane, R before Q."""
        if observer is not None:
            discard = observer.on_discard
            for r_candidate, q_candidate in zip(self.r_samples, self.q_samples):
                discard(r_candidate)
                discard(q_candidate)

    def memory_words(self) -> int:
        """Footprint under the paper's model: the geometry (first element,
        two boundaries, its timestamp) once, plus two stored samples (value,
        index, timestamp each) per lane."""
        lanes = len(self.r_samples)
        meter = MemoryMeter(WORD_MODEL)
        meter.add_elements()  # p_x
        meter.add_indexes(2)  # x, y
        meter.add_timestamps()  # T(p_x)
        meter.add_elements(2 * lanes).add_indexes(2 * lanes).add_timestamps(2 * lanes)
        return meter.total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BS({self.start},{self.end}; first_t={self.first_timestamp}, "
            f"r@{[c.index for c in self.r_samples]}, q@{[c.index for c in self.q_samples]})"
        )
