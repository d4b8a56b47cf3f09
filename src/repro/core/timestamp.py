"""Optimal sampling with replacement from timestamp-based windows (§3, Theorem 3.9).

The ``k`` independent samples are the ``k`` lanes of one
:class:`~repro.core.covering.WindowCoverage` automaton (Lemma 3.5).  The
paper's ``k`` automata would hold identical bucket geometry — boundaries,
first elements, straddler, expiry transitions all follow from the arrivals
alone — so the geometry is kept once and each bucket carries ``k`` R/Q slot
columns.  Each lane keeps its own generator and consumes it exactly as a
lone automaton would: the singleton's candidates are selected lane by lane
(R, then Q), and every merge of the ``Incr`` cascade draws each lane's two
coins from that lane's generator, front to back.  Snapshots, generator
positions and samples are therefore bit-identical to running ``k``
separate automata, at one geometry walk per arrival instead of ``k``.

At query time each lane's sample is produced from the shared state:

* **case 1** — the covering decomposition starts exactly at the earliest
  active element: pick a bucket with probability proportional to its width and
  output that bucket's ``R`` sample;
* **case 2** — a straddling bucket precedes the decomposition: apply the
  implicit-event machinery of §3.3 (Lemma 3.8) to combine the straddler's
  sample with a uniform sample of the covered suffix.

The memory footprint is Θ(k · log n(t)) words — 4 words of geometry per
bucket once, plus 6 words of R/Q samples per bucket per lane — and is a
deterministic function of the arrival pattern — never of the algorithm's coin
flips — which is the paper's improvement over priority sampling.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..exceptions import ConfigurationError, StreamOrderError
from ..memory import MemoryMeter, WORD_MODEL
from ..rng import RngLike, ensure_rng, spawn
from .base import (
    TimestampWindowSampler,
    check_batch_lengths,
    coerce_batch_timestamps,
    init_sampler_kernel,
)
from .covering import WindowCoverage, estimate_active_count
from .serialization import decode_rng_into, encode_rng, require_state_fields
from .tracking import CandidateObserver, SampleCandidate

__all__ = ["TimestampSamplerWR"]


class TimestampSamplerWR(TimestampWindowSampler):
    """k samples *with replacement* from a timestamp window (Theorem 3.9).

    ``append(value, timestamp)`` processes an arrival (the timestamp defaults
    to the current clock); ``advance_time(now)`` moves the clock without an
    arrival; ``sample()`` returns ``k`` elements, each uniform over the active
    elements and mutually independent.
    """

    algorithm = "boz-ts-wr"
    with_replacement = True
    deterministic_memory = True

    def __init__(
        self,
        t0: float,
        k: int = 1,
        rng: RngLike = None,
        observer: Optional[CandidateObserver] = None,
        fast: bool = False,
        kernel: str = "python",
    ) -> None:
        super().__init__(t0, k, observer)
        root = ensure_rng(rng)
        #: ``fast=True`` switches the batched path's bucket-merge coins to
        #: coin slabs, one generator byte per coin (distributionally exact,
        #: not bit-identical to the ``append`` loop); the default consumes
        #: randomness exactly like per-element appends.
        self._fast = bool(fast)
        self._coverage = WindowCoverage(
            self._t0, [spawn(root, lane) for lane in range(self._k)], observer
        )
        self._query_rng = spawn(root, self._k + 1)
        # Resolved after every spawn so kernel choice never perturbs them.
        self._kernel, self._np_gen = init_sampler_kernel(kernel, root)
        self._now = float("-inf")

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance_time(self, now: float) -> None:
        if now < self._now:
            raise StreamOrderError(f"clock moved backwards: {now} < {self._now}")
        self._now = float(now)
        self._coverage.advance_time(self._now)

    # -- ingestion ----------------------------------------------------------------

    def append(self, value: Any, timestamp: Optional[float] = None) -> None:
        index = self._arrivals
        if timestamp is None:
            ts = self._now if self._now != float("-inf") else 0.0
        else:
            ts = float(timestamp)
        if ts < self._now:
            raise StreamOrderError(f"timestamps must be non-decreasing: {ts} < {self._now}")
        self._now = ts
        self._coverage.observe(value, index, ts)
        self._arrivals += 1
        self._notify_arrival(value, index, ts)

    def process_batch(
        self,
        values: Sequence[Any],
        timestamps: Optional[Sequence[Optional[float]]] = None,
    ) -> int:
        """Batched :meth:`append`: timestamps are validated up front, then the
        batch is fed through
        :meth:`~repro.core.covering.WindowCoverage.observe_batch` (each lane
        owns an independent generator, consumed in the per-element order, so
        the default mode is bit-identical to the ``append`` loop;
        ``fast=True`` switches the merge coins to per-lane coin slabs —
        distributionally exact, but a different generator trajectory).

        Unlike per-element appends, an out-of-order timestamp raises
        *before* any element is applied.  Observer-carrying samplers fall
        back to the per-element loop.
        """
        check_batch_lengths(values, timestamps)
        count = len(values)
        if count == 0:
            return 0
        if self._observer is not None:
            return super().process_batch(values, timestamps)
        stamps = coerce_batch_timestamps(count, timestamps, self._now)
        start = self._arrivals
        fast = self._fast
        if fast and self._np_gen is not None:
            # Vectorized kernel: per expiry run, the covering decomposition
            # is rebuilt structurally instead of cascading per element (see
            # repro.engine.kernels.coverage_observe_batch).
            from ..engine.kernels import as_float_array, coverage_observe_batch

            stamp_array = as_float_array(stamps)
            coverage_observe_batch(
                self._coverage, values, 0, start, stamp_array, stamp_array, self._np_gen
            )
        else:
            self._coverage.observe_batch(values, start, stamps, fast=fast)
        self._now = stamps[-1]
        self._arrivals = start + count
        return count

    # -- sampling -------------------------------------------------------------------

    def sample_candidates(self) -> List[SampleCandidate]:
        if self._now != float("-inf"):
            self._coverage.advance_time(self._now)
        return self._coverage.draw_samples(self._query_rng)

    @property
    def window_is_empty(self) -> bool:
        """Whether no stored element is currently active."""
        if self._arrivals == 0:
            return True
        self._coverage.advance_time(self._now)
        return self._coverage.is_empty

    def active_count_estimate(self) -> int:
        """Estimated number of currently active elements ``n(t)``
        (:func:`~repro.core.covering.estimate_active_count` on the shared
        covering decomposition)."""
        return estimate_active_count(self._coverage, self._now)

    # -- introspection ------------------------------------------------------------------

    def iter_candidates(self) -> Iterator[SampleCandidate]:
        return self._coverage.iter_candidates()

    def _notify_arrival(self, value: Any, index: int, timestamp: float) -> None:
        """One flat pass over the slot columns, leaving out the arrival's own
        singleton bucket (every other stored candidate is older)."""
        if self._observer is not None:
            self._observer.on_arrivals(
                self._coverage.iter_candidates(before=index), value, index, timestamp
            )

    def memory_words(self) -> int:
        meter = MemoryMeter(WORD_MODEL)
        meter.add_constants(2)  # t0 and k
        meter.add_counters()  # arrival counter
        meter.add_timestamps()  # the clock
        meter.add_words(self._coverage.memory_words())
        return meter.total

    # -- checkpointing ------------------------------------------------------------------

    def _encode_state(self) -> Dict[str, Any]:
        return {
            "t0": self._t0,
            "now": self._now,
            "coverages": self._coverage.state_dicts(),
            "query_rng": encode_rng(self._query_rng),
        }

    def _decode_state(self, payload: Dict[str, Any]) -> None:
        """Restore a snapshot: one per-lane ``"coverages"`` entry per sample,
        which must all describe the same geometry (see
        :meth:`~repro.core.covering.WindowCoverage.load_state_dicts`)."""
        require_state_fields(payload, ("t0", "now", "coverages", "query_rng"), type(self).__name__)
        if float(payload["t0"]) != self._t0:
            raise ConfigurationError(f"snapshot has t0={payload['t0']}, sampler has t0={self._t0}")
        if len(payload["coverages"]) != self._k:
            raise ConfigurationError(
                f"snapshot has {len(payload['coverages'])} coverages, sampler has {self._k}"
            )
        self._coverage.load_state_dicts(payload["coverages"])
        self._now = float(payload["now"])
        decode_rng_into(self._query_rng, payload["query_rng"])
