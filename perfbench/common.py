"""Shared pieces of the benchmark: import path, inputs, statistics, host facts.

Everything here is deterministic given a seed, except the clock readings the
workloads take.  The benchmark drives only the package's public surface; this
module just makes ``src/`` importable and turns latency samples into the
reported numbers.
"""

from __future__ import annotations

import math
import os
import random
import resource
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for checkpoints, journals, ready files and trace dumps; it is
#: inside the checkout and listed in the repository's .gitignore.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class BenchError(Exception):
    """A failed correctness gate: the run fails."""


class CheckoutError(BenchError):
    """The checkout holds no package to measure."""


def import_repro() -> Any:
    """Import ``repro`` from this checkout's ``src/`` (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise CheckoutError(f"no package sources under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise CheckoutError(f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


# -- inputs ------------------------------------------------------------------


def zipf_keys(rng: random.Random, universe: int, count: int, exponent: float = 1.1) -> List[str]:
    """``count`` keys drawn from ``universe`` ids with Zipf(``exponent``) weights."""
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, universe + 1):
        total += rank ** -exponent
        cumulative.append(total)
    ids = [f"u{rank}" for rank in range(universe)]
    return rng.choices(ids, cum_weights=cumulative, k=count)


def poisson_clock(rng: random.Random, count: int, rate: float) -> List[float]:
    """Arrival times of a Poisson process with ``rate`` arrivals per unit."""
    now = 0.0
    stamps = []
    for _ in range(count):
        now += rng.expovariate(rate)
        stamps.append(now)
    return stamps


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


#: The conventional percentiles a tail is reported at, highest first.  The
#: coarse steps keep well over ten samples beyond the reported tail at most
#: sample counts, which steadies it on a noisy host.
_TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it (else p50).

    Nearest-rank percentiles; returns ``(value, label)`` where the label
    states the percentile, the sample count and how many samples lie beyond.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in _TAIL_LADDER:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        beyond = count - rank
        if beyond >= 10 or percentile == _TAIL_LADDER[-1]:
            return float(ordered[rank - 1]), f"p{percentile:g} of {count} ({beyond} beyond)"
    raise AssertionError("unreachable")  # pragma: no cover


def end_to_end(result: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics of one untraced run, from the result keys every
    workload fills in; returns ``(metrics, notes)`` where the notes label
    each tail."""
    ingest_tail, ingest_label = tail(result["ingest_lat"])
    query_tail, query_label = tail(result["query_lat"])
    outcomes = result["outcomes"]
    metrics = {
        "setup_s": median(result["setups"]),
        "ingest_rps": result["records"] / result["ingest_s"],
        "ingest_p50_ms": median(result["ingest_lat"]) * 1e3,
        "ingest_tail_ms": ingest_tail * 1e3,
        "query_p50_ms": median(result["query_lat"]) * 1e3,
        "query_tail_ms": query_tail * 1e3,
        "checkpoint_s": median(result["checkpoint_times"]),
        "words_per_key": result["memory_words"] / result["key_count"],
        "rss_peak_mb": result["rss_mb"],
        "ok_ratio": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
    }
    return metrics, {"ingest_tail": ingest_label, "query_tail": query_label}


class Outcomes:
    """Attempted/failed operation counts behind ``failed`` and ``ok_ratio``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


# -- processes and host ------------------------------------------------------


def rss_peak_self_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_peak_pid_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"/proc/{pid}/status has no VmHWM line")


def host_facts(busy_processes: int) -> Dict[str, Any]:
    """Host shape recorded beside every result."""
    try:
        import numpy  # noqa: F401

        numpy_present = True
    except ImportError:
        numpy_present = False
    from repro.engine.kernels import resolve_kernel

    return {
        "nproc": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "numpy": numpy_present,
        "kernel": resolve_kernel("python"),
        "busy_processes": busy_processes,
    }


# -- driving -----------------------------------------------------------------


def call(tracer: Any, name: str, function: Any, *args: Any) -> Any:
    """``function(*args)``, inside a ``name`` span when tracing."""
    if tracer is None:
        return function(*args)
    with tracer.span(name):
        return function(*args)


def spaced(total: int, count: int) -> List[int]:
    """``count`` round indexes spread evenly over ``total`` rounds, the last
    one being the final round: checkpoints sample the whole run, not one
    stretch of it."""
    return [max(0, (total * (index + 1)) // count - 1) for index in range(count)]
