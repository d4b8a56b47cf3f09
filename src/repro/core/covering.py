"""Covering decompositions and their maintenance (§3.2, Lemmas 3.4 and 3.5).

A *covering decomposition* ``ζ(a, b)`` is an ordered list of bucket structures
that together cover the index range ``[a, b]``, defined inductively
(Definition 3.1):

    ``ζ(b, b) = ⟨BS(b, b+1)⟩``
    ``ζ(a, b) = ⟨BS(a, c), ζ(c, b)⟩``   with ``c = a + 2^(⌊log(b+1-a)⌋ - 1)``

so the bucket widths shrink roughly geometrically towards the most recent
element and there are ``O(log(b - a))`` of them.  The ``Incr`` operator
extends ``ζ(a, b)`` to ``ζ(a, b+1)`` when element ``p_{b+1}`` arrives, merging
the first two buckets when the widths call for it (Lemma 3.4 proves the result
is exactly the canonical decomposition).

:class:`WindowCoverage` implements the Lemma 3.5 maintenance automaton on top:
at any time it holds either

1. ``ζ(l(t), N(t))`` — a decomposition starting exactly at the earliest active
   element, or
2. a *straddling* bucket structure ``BS(y, z)`` (whose first element is
   expired but which may contain active elements) followed by
   ``ζ(z, N(t))``, with the key invariant ``z - y <= N(t) + 1 - z`` needed by
   the implicit-event generation of §3.3.

Both states use ``O(log n(t))`` memory words per sample.

**Shared geometry.**  Theorem 3.9 runs ``k`` independent automata, but the
bucket boundaries, first elements, straddler and every Lemma 3.5 transition
are a deterministic function of the arrivals, never of the coins.  So one
automaton holds ``k`` *lanes*: a single geometry (each
:class:`~repro.core.bucket_structure.BucketStructure` stores its bounds and
first element once) and one R/Q slot column per lane, each lane with its own
generator.  Per arrival the expiry check, the ``Incr`` merge positions and the
new singleton's geometry are computed once; then, lane by lane, the singleton
candidates are selected (R, then Q) and every merge of the cascade draws that
lane's two coins from that lane's generator, front to back.  Each lane
therefore sees exactly the coin sequence of a lone automaton, and lane ``i``
of the shared automaton is bit-identical — slots and generator position — to
the ``i``-th independent automaton the paper describes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import partial
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, EmptyWindowError, StreamOrderError
from ..memory import MemoryMeter, WORD_MODEL
from ._cascade import CoinSlab, merge_cascade
from .bucket_structure import BucketStructure
from .implicit_events import combine_straddler_and_suffix
from .serialization import decode_rng_into, encode_rng, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = [
    "floor_log2",
    "canonical_boundaries",
    "estimate_active_count",
    "CoveringDecomposition",
    "WindowCoverage",
]


def estimate_active_count(coverage: "WindowCoverage", now: float) -> int:
    """Estimated number of active elements ``n(t)`` from one coverage automaton.

    Exact in case 1 of Lemma 3.5 (the decomposition starts at the earliest
    active element); in case 2 the straddling bucket holds an unknown number
    of active elements, so half its width is added — the error is at most
    half the straddler width, itself at most half the total.  Exact tracking
    is impossible in sublinear space for timestamp windows; this bound is the
    per-key weight used by the engine's merged cross-key estimates.
    """
    if now != float("-inf"):
        coverage.advance_time(now)
    if coverage.is_empty:
        return 0
    count = coverage.decomposition.covered_width
    if coverage.straddler is not None:
        count += coverage.straddler.width // 2
    return count


def floor_log2(x: int) -> int:
    """``⌊log2(x)⌋`` for a positive integer ``x``."""
    if x <= 0:
        raise ValueError("floor_log2 requires a positive integer")
    return x.bit_length() - 1


def canonical_boundaries(a: int, b: int) -> List[Tuple[int, int]]:
    """The bucket boundaries of the canonical decomposition ``ζ(a, b)``.

    Returns the list of ``(start, end)`` pairs prescribed by Definition 3.1;
    used by tests to check that ``Incr`` maintains exactly this structure
    (Lemma 3.4).
    """
    if b < a:
        raise ValueError("require a <= b")
    pairs: List[Tuple[int, int]] = []
    current = a
    while current < b:
        step = 2 ** (floor_log2(b + 1 - current) - 1)
        pairs.append((current, current + step))
        current += step
    pairs.append((b, b + 1))
    return pairs


class CoveringDecomposition:
    """A covering decomposition ``ζ(a, b)`` with its ``Incr`` operator, for
    one R/Q lane per generator in ``rngs``.

    The decomposition is stored as a list of :class:`BucketStructure`, oldest
    first.  ``incr`` must be called with consecutive stream elements
    (index ``covered_end + 1``); ``Incr`` costs ``O(log(b - a))`` time for the
    geometry plus ``O(k)`` per merge for the lanes' coins.
    """

    def __init__(
        self, rngs: Sequence[random.Random], observer: Optional[CandidateObserver] = None
    ) -> None:
        if not rngs:
            raise ValueError("a covering decomposition needs at least one lane generator")
        self._rngs = list(rngs)
        #: Per-lane coin sources of the default mode (bound, so restoring a
        #: generator's state in place keeps them valid).
        self._coins: List[Callable[[], float]] = [rng.random for rng in self._rngs]
        self._observer = observer
        self._buckets: List[BucketStructure] = []

    # -- geometry --------------------------------------------------------------

    @property
    def lanes(self) -> int:
        """Number of independent samples maintained."""
        return len(self._rngs)

    @property
    def is_empty(self) -> bool:
        return not self._buckets

    @property
    def buckets(self) -> List[BucketStructure]:
        """The bucket structures, oldest first (read-only view)."""
        return list(self._buckets)

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def covered_start(self) -> int:
        """Index ``a`` of the first covered element."""
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        return self._buckets[0].start

    @property
    def covered_end(self) -> int:
        """Index ``b`` of the last covered element (the newest stream element)."""
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        return self._buckets[-1].end - 1

    @property
    def covered_width(self) -> int:
        """Number of covered elements, ``b + 1 - a``."""
        return self.covered_end + 1 - self.covered_start

    def boundaries(self) -> List[Tuple[int, int]]:
        return [(bucket.start, bucket.end) for bucket in self._buckets]

    # -- the Incr operator --------------------------------------------------------

    def incr(
        self,
        value: Any,
        index: int,
        timestamp: float,
        coins: Optional[Sequence[Callable[[], float]]] = None,
    ) -> None:
        """Extend ``ζ(a, b)`` to ``ζ(a, b+1)`` with the newly arrived element.

        The new singleton ``BS(b+1, b+2)`` is built first (its candidates
        selected lane by lane), then the equal-width pairs that the inductive
        definition merges are merged in place.  Those merges sit
        where ``⌊log(b+2-a)⌋`` steps, which in a canonical decomposition is
        a stride-2 run ending at the third-from-last bucket, so one O(1)
        probe decides whether this arrival merges at all (see
        :mod:`repro.core._cascade`).  ``coins`` overrides the per-lane coin
        sources (the ``fast`` batched path passes coin slabs).
        """
        buckets = self._buckets
        if buckets and index != buckets[-1].end:
            raise StreamOrderError(f"Incr expects element index {buckets[-1].end}, got {index}")
        observer = self._observer
        singleton = BucketStructure.singleton(value, index, timestamp, len(self._rngs), observer)
        n = len(buckets)
        if n >= 3 and buckets[n - 3].start == index - 3:
            merge_cascade(buckets, index, self._coins if coins is None else coins, observer)
        buckets.append(singleton)

    # -- splitting (used by the Lemma 3.5 automaton) ----------------------------------

    def split_at_straddler(
        self, now: float, t0: float
    ) -> Tuple[Optional[BucketStructure], List[BucketStructure], List[BucketStructure]]:
        """Locate the unique bucket whose first element is expired while the
        next bucket's first element is active.

        Returns ``(straddler, discarded_prefix, suffix)`` where ``suffix`` is
        the (still canonical) decomposition that follows the straddler.
        Requires that the first bucket's first element is expired and the last
        bucket's first element is active.
        """
        if not self._buckets:
            raise EmptyWindowError("decomposition is empty")
        buckets = self._buckets
        if not buckets[0].first_expired(now, t0):
            return None, [], list(buckets)
        for position in range(len(buckets) - 1):
            if buckets[position].first_expired(now, t0) and not buckets[position + 1].first_expired(
                now, t0
            ):
                return (
                    buckets[position],
                    buckets[:position],
                    buckets[position + 1 :],
                )
        raise EmptyWindowError("all covered elements are expired")

    # -- sampling ----------------------------------------------------------------------

    def uniform_drawer(self, rng: random.Random) -> Callable[[int], SampleCandidate]:
        """A ``lane -> candidate`` function drawing a uniform sample of all
        covered elements for that lane.

        Each call chooses a bucket with probability proportional to its width
        (one ``rng.randrange(width)``) and returns that bucket's ``R`` sample
        in the lane — uniform because each bucket's sample is uniform within
        the bucket and buckets are disjoint.  The cumulative widths are
        computed once here, so drawing for all ``k`` lanes costs one pass
        over the geometry plus a bisection per lane.
        """
        buckets = self._buckets
        if not buckets:
            raise EmptyWindowError("decomposition is empty")
        base = buckets[0].start
        ends = [bucket.end - base for bucket in buckets]
        total = ends[-1]
        randrange = rng.randrange

        def draw(lane: int) -> SampleCandidate:
            return buckets[bisect_right(ends, randrange(total))].r_samples[lane]

        return draw

    def draw_uniform(self, rng: random.Random, lane: int = 0) -> SampleCandidate:
        """One lane's uniform sample of all covered elements."""
        return self.uniform_drawer(rng)(lane)

    # -- bookkeeping -------------------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        return chain.from_iterable(bucket.iter_candidates() for bucket in self._buckets)

    def discard_all(self) -> None:
        for bucket in self._buckets:
            bucket.discard(self._observer)
        self._buckets = []

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        for bucket in self._buckets:
            meter.add_words(bucket.memory_words())
        return meter.total

    def state_dict(self, lane: int = 0) -> Dict[str, Any]:
        """Snapshot of one lane: its bucket structures, oldest first.

        The generators are owned by the enclosing :class:`WindowCoverage` and
        serialised there, not here.
        """
        return {"buckets": [bucket.state_dict(lane) for bucket in self._buckets]}

    def is_canonical(self) -> bool:
        """Whether the stored boundaries equal Definition 3.1's (test helper)."""
        if not self._buckets:
            return True
        return self.boundaries() == canonical_boundaries(self.covered_start, self.covered_end)

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoveringDecomposition({self.boundaries() if self._buckets else []})"


def _lane_geometry(state: Dict[str, Any]) -> Tuple[Any, ...]:
    """``(clock, straddler bounds, bucket bounds)`` of one lane's snapshot:
    everything the lanes of one automaton must share."""
    require_state_fields(state, ("now", "straddler", "decomposition", "rng"), "WindowCoverage")
    require_state_fields(state["decomposition"], ("buckets",), "CoveringDecomposition")

    def bounds(bucket: Dict[str, Any]) -> Tuple[int, int, float]:
        require_state_fields(bucket, ("start", "end", "first_timestamp"), "BucketStructure")
        return int(bucket["start"]), int(bucket["end"]), float(bucket["first_timestamp"])

    straddler = state["straddler"]
    return (
        float(state["now"]),
        None if straddler is None else bounds(straddler),
        [bounds(bucket) for bucket in state["decomposition"]["buckets"]],
    )


class WindowCoverage:
    """The Lemma 3.5 maintenance automaton for ``k`` independent samples.

    Feeds arriving elements into a covering decomposition and tracks window
    expiry, keeping either ``ζ(l(t), N(t))`` (case 1) or a straddling bucket
    plus ``ζ(z_t, N(t))`` (case 2).  Exposes the raw material needed by the
    §3.3 sampling rule: the straddler (if any) and the suffix decomposition.
    ``rngs`` holds one generator per lane (one per independent sample); the
    geometry is shared by all lanes (see the module docstring).
    """

    def __init__(
        self,
        t0: float,
        rngs: Sequence[random.Random],
        observer: Optional[CandidateObserver] = None,
    ) -> None:
        if t0 <= 0:
            raise ValueError("window span t0 must be positive")
        self._t0 = float(t0)
        self._observer = observer
        self._straddler: Optional[BucketStructure] = None
        self._decomposition = CoveringDecomposition(rngs, observer)
        self._now = float("-inf")

    # -- state inspection -----------------------------------------------------------

    @property
    def t0(self) -> float:
        return self._t0

    @property
    def now(self) -> float:
        return self._now

    @property
    def lanes(self) -> int:
        """Number of independent samples (lanes) maintained."""
        return self._decomposition.lanes

    @property
    def straddler(self) -> Optional[BucketStructure]:
        return self._straddler

    @property
    def decomposition(self) -> CoveringDecomposition:
        return self._decomposition

    @property
    def is_empty(self) -> bool:
        """Whether no stored element is active (after the last refresh)."""
        return self._decomposition.is_empty

    @property
    def case(self) -> int:
        """1 or 2, matching Lemma 3.5's two states (0 when empty)."""
        if self._decomposition.is_empty:
            return 0
        return 2 if self._straddler is not None else 1

    def _expired(self, timestamp: float) -> bool:
        return self._now - timestamp >= self._t0

    # -- clock and ingestion ------------------------------------------------------------

    def advance_time(self, now: float) -> None:
        """Move the clock forward and apply the Lemma 3.5 expiry transitions."""
        if now < self._now:
            raise StreamOrderError(f"clock moved backwards: {now} < {self._now}")
        self._now = float(now)
        self._refresh()

    def observe(self, value: Any, index: int, timestamp: float) -> None:
        """Process the arrival of element ``p_index``.

        The element's timestamp advances the clock if it is ahead of it.  An
        element that is already expired on arrival (possible only in the
        delayed feeds of §4, and only while the coverage is empty) is skipped,
        exactly as prescribed by Lemma 4.1.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        self._refresh()
        if self._expired(timestamp):
            # Lemma 4.1: skip already-expired (delayed) elements; they can only
            # occur while no active element is stored.
            return
        self._decomposition.incr(value, index, timestamp)

    def observe_batch(
        self,
        values: Sequence[Any],
        base_index: int,
        stamps: Sequence[float],
        clocks: Optional[Sequence[float]] = None,
        fast: bool = False,
    ) -> None:
        """Process a whole chunk of arrivals: element ``p`` has stream index
        ``base_index + p`` and timestamp ``stamps[p]``; ``clocks[p]`` (default
        ``stamps[p]``) is the clock value advanced *before* observing it — the
        delayed feeds of §4 observe old elements at the current arrival time.

        Semantically this is exactly ``advance_time(clocks[p])`` followed by
        ``observe(values[p], base_index + p, stamps[p])`` for every ``p``, but
        the Lemma 3.5 transition can only fire once the clock passes the front
        bucket's first timestamp plus ``t0``, so the chunk pays one
        cached-threshold comparison per element and a full expiry scan only
        when the threshold is actually crossed (one scan per transition, not
        one per arrival).

        With ``fast=False`` every lane's generator is consumed exactly as the
        per-element path consumes it (two coins per merge, in cascade order),
        so the resulting state — buckets, straddler, clock *and* generator
        positions — is bit-identical.  ``fast=True`` takes each lane's merge
        coins from a per-lane :class:`~repro.core._cascade.CoinSlab` (one
        ``randbytes`` call buys 512 fair coins): distributionally exact,
        memoryless per-chunk redraws, but a different generator trajectory.

        Observer-carrying coverages fall back to the per-element path so the
        selection/discard callbacks keep firing.
        """
        count = len(values)
        if count == 0:
            return
        if self._observer is not None:
            clock_track = stamps if clocks is None else clocks
            for position in range(count):
                self.advance_time(clock_track[position])
                self.observe(values[position], base_index + position, stamps[position])
            return
        t0 = self._t0
        now = self._now
        decomposition = self._decomposition
        incr = decomposition.incr
        coins = (
            [CoinSlab(rng.randbytes).random for rng in decomposition._rngs]
            if fast
            else decomposition._coins
        )
        buckets = decomposition._buckets
        # Cached expiry threshold: no Lemma 3.5 transition can fire while
        # ``now - front_first_ts < t0`` (the exact per-element comparison, so
        # float rounding matches the reference path bit for bit).
        front_ts = buckets[0].first_timestamp if buckets else math.inf
        for position in range(count):
            ts = stamps[position]
            clock = ts if clocks is None else clocks[position]
            if clock > now:
                now = clock
            if now - front_ts >= t0:
                # Threshold crossed: run the full Lemma 3.5 transition (which
                # may re-anchor on a straddler or empty the decomposition),
                # then re-cache the bucket list and threshold.
                self._now = now
                self._refresh()
                buckets = decomposition._buckets
                front_ts = buckets[0].first_timestamp if buckets else math.inf
            if now - ts >= t0:
                # Lemma 4.1: a delayed element already expired on arrival is
                # skipped (only possible while nothing active is stored).
                continue
            if not buckets:
                front_ts = ts
            incr(values[position], base_index + position, ts, coins)
        self._now = now

    # -- the Lemma 3.5 transitions ----------------------------------------------------------

    def _refresh(self) -> None:
        decomposition = self._decomposition
        buckets = decomposition._buckets
        if not buckets:
            return
        if self._expired(buckets[-1].first_timestamp):
            # Cases 2(b)/3(b): even the most recent element expired — the
            # window is empty; drop everything and start afresh later.
            if self._straddler is not None:
                self._straddler.discard(self._observer)
                self._straddler = None
            decomposition.discard_all()
            return
        if not buckets[0].first_expired(self._now, self._t0):
            # Cases 2(a)/3(a): nothing expired at the front; state unchanged.
            return
        # Cases 2(c)/3(c): the front of the decomposition expired but the
        # newest element is active — re-anchor on the straddling bucket.
        straddler, discarded, suffix = decomposition.split_at_straddler(self._now, self._t0)
        if self._straddler is not None:
            self._straddler.discard(self._observer)
        for bucket in discarded:
            bucket.discard(self._observer)
        self._straddler = straddler
        decomposition._buckets = suffix
        self._check_invariant()

    def _check_invariant(self) -> None:
        """Case-2 invariant ``z - y <= N + 1 - z`` (needed by Lemma 3.8)."""
        if self._straddler is None or self._decomposition.is_empty:
            return
        alpha = self._straddler.width
        beta = self._decomposition.covered_width
        if alpha > beta:  # pragma: no cover - would indicate a logic error
            raise AssertionError(
                f"covering invariant violated: straddler width {alpha} > suffix width {beta}"
            )

    # -- sampling ---------------------------------------------------------------------------------

    def draw_samples(self, rng: random.Random) -> List[SampleCandidate]:
        """One uniform sample of the currently active elements per lane
        (Theorem 3.9's rule), drawing lane by lane from ``rng``.

        In case 1 the decomposition covers exactly the active elements, so a
        width-weighted choice among bucket ``R`` samples is uniform.  In case 2
        the straddling bucket is combined with the covered suffix through the
        implicit-event machinery of §3.3 (Lemma 3.8).  The suffix widths are
        computed once for all lanes.
        """
        decomposition = self._decomposition
        if decomposition.is_empty:
            raise EmptyWindowError("no active element in the window")
        draw_suffix = decomposition.uniform_drawer(rng)
        lanes = range(decomposition.lanes)
        straddler = self._straddler
        if straddler is None:
            return [draw_suffix(lane) for lane in lanes]
        suffix_width = decomposition.covered_width
        return [
            combine_straddler_and_suffix(
                straddler,
                suffix_width,
                partial(draw_suffix, lane),
                now=self._now,
                t0=self._t0,
                rng=rng,
                lane=lane,
            )
            for lane in lanes
        ]

    # -- bookkeeping ------------------------------------------------------------------------------

    def state_dicts(self) -> List[Dict[str, Any]]:
        """One snapshot per lane — clock, straddler, suffix decomposition and
        generator — each in the format of a lone single-sample automaton."""
        straddler = self._straddler
        decomposition = self._decomposition
        return [
            {
                "now": self._now,
                "straddler": None if straddler is None else straddler.state_dict(lane),
                "decomposition": decomposition.state_dict(lane),
                "rng": encode_rng(rng),
            }
            for lane, rng in enumerate(decomposition._rngs)
        ]

    def load_state_dicts(self, states: Sequence[Dict[str, Any]]) -> None:
        """Restore the per-lane snapshots of :meth:`state_dicts`.

        The lanes share one geometry, so every lane's snapshot must agree
        with lane 0's on the clock, straddler presence, and every bucket's
        bounds and first timestamp; a snapshot that does not (edited, or
        stitched together from different automata) raises
        :class:`~repro.exceptions.ConfigurationError` naming the first lane
        that differs, before anything is changed.
        """
        decomposition = self._decomposition
        if len(states) != decomposition.lanes:
            raise ConfigurationError(
                f"snapshot has {len(states)} lanes, coverage has {decomposition.lanes}"
            )
        reference = _lane_geometry(states[0])
        for lane in range(1, len(states)):
            geometry = _lane_geometry(states[lane])
            if geometry != reference:
                raise ConfigurationError(
                    f"snapshot lane {lane} disagrees with lane 0 on the shared geometry"
                    f" (clock, straddler, bucket bounds or first timestamps):"
                    f" {geometry} != {reference}"
                )
        straddler = (
            None
            if reference[1] is None
            else BucketStructure.from_state_dicts([state["straddler"] for state in states])
        )
        buckets = [
            BucketStructure.from_state_dicts(
                [state["decomposition"]["buckets"][position] for state in states]
            )
            for position in range(len(reference[2]))
        ]
        for rng, state in zip(decomposition._rngs, states):
            decode_rng_into(rng, state["rng"])
        self._now = reference[0]
        self._straddler = straddler
        decomposition._buckets = buckets

    def iter_candidates(self, before: Optional[int] = None) -> Iterator[SampleCandidate]:
        """Every retained candidate: the straddler's, then the suffix buckets'
        oldest first; within a bucket every lane's R, then every lane's Q.

        With ``before``, the newest bucket is left out when it starts at or
        after that index — the singleton of an arrival at ``before``, whose
        candidates are the arrival itself.
        """
        buckets = self._decomposition._buckets
        if before is not None and buckets and buckets[-1].start >= before:
            buckets = buckets[:-1]
        if self._straddler is not None:
            buckets = [self._straddler, *buckets]
        return chain.from_iterable(bucket.iter_candidates() for bucket in buckets)

    def memory_words(self) -> int:
        """The clock and span once, the geometry once, each lane's slots."""
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants()  # t0
        meter.add_timestamps()  # the clock
        if self._straddler is not None:
            meter.add_words(self._straddler.memory_words())
        meter.add_words(self._decomposition.memory_words())
        return meter.total
