"""The ``Incr`` merge cascade (Lemma 3.4) as a compile-friendly module.

This is the innermost loop of :meth:`~repro.core.covering.CoveringDecomposition.
incr`, factored out so it can optionally be compiled with
`mypyc <https://mypyc.readthedocs.io/>`_ — the module deliberately sticks to
the mypyc-supported subset (plain functions, a ``__slots__``-free final class,
no dynamic attribute tricks, fully annotated signatures) so that

.. code-block:: console

   $ python -m mypyc src/repro/core/_cascade.py

produces a drop-in extension.  Nothing in the repository *requires* the
compiled form: the interpreted module is the reference, and
:data:`COMPILED` reports which one is active (surfaced by the engine's
``transport_report()``).

:func:`merge_cascade` mutates the bucket list **in place**.  The geometry of
the cascade is computed once for all lanes; each lane then draws its two
coins per merge, in cascade order, from its own coin source:

* the default mode passes each lane generator's ``random`` — byte-identical
  to a lone automaton's ``Incr`` walk;
* ``fast=True`` passes each lane's :class:`CoinSlab` ``random`` (one
  ``randbytes(512)`` slab buys 512 fair coins).

The callers keep the O(1) "does this arrival merge at all?" probe inline —
``n >= 3 and buckets[n - 3].start == index - 3`` — because most arrivals fail
it and a cross-module call would dominate the cost of the probe itself.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, List, Optional, Sequence

from .bucket_structure import BucketStructure
from .tracking import CandidateObserver

__all__ = ["COMPILED", "CoinSlab", "merge_cascade"]

#: True when this module is running as a compiled (mypyc) extension.
COMPILED = not __file__.endswith((".py", ".pyc"))

_BYTE_SCALE = 1.0 / 256.0


class CoinSlab:
    """Fair coins carved out of 512-byte ``randbytes`` slabs.

    Each byte of generator output is one coin: :attr:`random` returns
    ``byte / 256``, so the cascade's ``coin() < 0.5`` test reads the byte's
    high bit.  Slabs are drawn lazily — the first coin of a slab triggers its
    ``randbytes(512)`` call — and the unconsumed tail of the final slab is
    simply discarded, which is exact because the coins are i.i.d.  One
    instance per lane lives for one ``observe_batch`` chunk so consecutive
    merge runs share a slab.  The coin stream is a chain of C iterators, so
    a coin costs no Python frame.
    """

    def __init__(self, randbytes: Callable[[int], bytes]) -> None:
        slabs = iter(partial(randbytes, 512), None)
        #: One coarse uniform in ``[0, 1)``: below 0.5 keeps the left sample.
        self.random: Callable[[], float] = partial(
            next, map(_BYTE_SCALE.__mul__, chain.from_iterable(slabs))
        )


def _run_start(buckets: List[BucketStructure], index: int) -> int:
    """Front of the merge run ending at the third-from-last bucket.

    The walk merges exactly where ``⌊log(b+2-a)⌋`` steps — where ``b+2-a`` is
    a power of two — and in a canonical decomposition those positions always
    form a stride-2 run (pinned exhaustively against the reference walk in
    ``tests/test_covering_decomposition.py``).  The caller has already probed
    that the run is non-empty.
    """
    first = len(buckets) - 3
    while first >= 2:
        gap = index + 1 - buckets[first - 2].start
        if gap & (gap - 1):
            break
        first -= 2
    return first


def merge_cascade(
    buckets: List[BucketStructure],
    index: int,
    coins: Sequence[Callable[[], float]],
    observer: Optional[CandidateObserver] = None,
) -> None:
    """Run the in-place merge cascade for arrival ``index``.

    Merges the stride-2 run front to back; every merge draws two coins per
    lane from ``coins[lane]`` (see :meth:`BucketStructure.absorb`), so each
    lane's bucket slots *and* generator position are bit-identical to a lone
    automaton's reference walk.
    """
    n = len(buckets)
    write = _run_start(buckets, index)
    for read in range(write, n - 2, 2):
        left = buckets[read]
        left.absorb(buckets[read + 1], coins, observer)
        buckets[write] = left
        write += 1
    buckets[write] = buckets[n - 1]
    del buckets[write + 1 :]
