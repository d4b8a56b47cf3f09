"""``wide-lanes``: the Corollary 5.2 F2 estimator at k=400 on one timestamp stream.

``repro.applications.SlidingFrequencyMoment(order=2, window="timestamp",
estimators=400)`` takes its window size from an
``ExponentialHistogramCounter``.  Each round appends a fixed chunk of
elements and then asks for ``estimate()``; the stream is replayed in three
passes, each into a fresh estimator, and at evenly spaced rounds the live
estimator's state is written to disk and restored.  Nearly all the time is
covering and merge-cascade work repeated for each of the 400 lanes, and the
``OccurrenceCounter`` observer forces per-element work.  Engine, pool and
checkpoint layers are bypassed; the checkpoint round trip here is the
sampler's and counter's own ``state_dict`` pickled to a file and loaded back.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT_DIR,
    BenchError,
    Outcomes,
    call,
    poisson_clock,
    rss_peak_self_mb,
    spaced,
    zipf_keys,
)
from tracing import Tracer

BUSY_PROCESSES = 1
ESTIMATORS = 400
T0 = 200.0
EPSILON = 0.05
VALUES = 100
ELEMENTS_PER_SECOND = 120
CHUNK = 4
#: The stream is replayed this many times, each pass into a fresh, identical
#: estimator (same seed): one pass is too short to average out a shared
#: host's slow and fast stretches, so every operation is timed once per pass.
#: One estimator is live at a time, and every pass must give the same answers.
PASSES = 3
#: Estimator constructions timed for ``setup_s``, spread over the run's rounds.
SETUP_SAMPLES = 36
CHECKPOINTS = 15
#: Each estimate must lie within this many standard deviations of the exact
#: F2 (after removing the window-size sketch's own error, checked separately).
SIGMAS = 7.0


def make_inputs(seed: int, seconds: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    count = ELEMENTS_PER_SECOND * seconds
    elements = list(zip(zipf_keys(rng, VALUES, count), poisson_clock(rng, count, 1.0)))
    return {"elements": elements, "seed": seed}


def _build(seed: int) -> Tuple[Any, Any]:
    from repro.applications import SlidingFrequencyMoment
    from repro.sketches import ExponentialHistogramCounter

    counter = ExponentialHistogramCounter(T0, epsilon=EPSILON)
    estimator = SlidingFrequencyMoment(
        order=2,
        window="timestamp",
        t0=T0,
        estimators=ESTIMATORS,
        rng=seed,
        window_size_fn=counter.estimate,
    )
    return counter, estimator


def _append(counter: Any, estimator: Any, chunk: List[Tuple[str, float]]) -> None:
    for value, stamp in chunk:
        counter.append(stamp)
        estimator.append(value, stamp)


def _estimate(counter: Any, estimator: Any) -> Tuple[float, int]:
    return estimator.estimate(), counter.estimate()


def execute(inputs: Dict[str, Any], tracer: Optional[Tracer], full: bool = True) -> Dict[str, Any]:
    outcomes = Outcomes()
    elements = inputs["elements"]
    chunks = [elements[offset : offset + CHUNK] for offset in range(0, len(elements), CHUNK)]
    rounds = len(chunks) * PASSES
    checkpoint_rounds = spaced(rounds, CHECKPOINTS) if full else []
    setup_rounds = spaced(rounds, SETUP_SAMPLES) if full and tracer is None else []
    setups: List[float] = []
    path = os.path.join(OUT_DIR, f"wide-lanes-{os.getpid()}.pickle")
    ingest_lat: List[float] = []
    query_lat: List[float] = []
    checkpoint_times: List[float] = []
    estimates: List[List[Tuple[int, float, int]]] = []
    restored = None
    wall_start = time.perf_counter()
    for round_index in range(rounds):
        passed, index = divmod(round_index, len(chunks))
        if index == 0:
            counter = estimator = None  # release the previous pass's estimator first
            started = time.perf_counter()
            counter, estimator = _build(inputs["seed"])
            setups.append(time.perf_counter() - started)
            estimates.append([])
        elif round_index in setup_rounds:
            started = time.perf_counter()
            _build(inputs["seed"])
            setups.append(time.perf_counter() - started)
        started = time.perf_counter()
        try:
            call(tracer, "bench.ingest", _append, counter, estimator, chunks[index])
            ok = True
        except Exception:  # noqa: BLE001 - counted as a failed operation
            ok = False
        ingest_lat.append(time.perf_counter() - started)
        outcomes.record(ok, "append raised")

        started = time.perf_counter()
        try:
            estimate, size = call(tracer, "bench.query", _estimate, counter, estimator)
            estimates[passed].append((index, estimate, size))
            ok = True
        except Exception:  # noqa: BLE001
            ok = False
        query_lat.append(time.perf_counter() - started)
        outcomes.record(ok, "estimate raised")

        if round_index in checkpoint_rounds:
            restored = None
            started = time.perf_counter()
            restored = call(tracer, "bench.checkpoint", _round_trip, counter, estimator, path, inputs["seed"])
            checkpoint_times.append(time.perf_counter() - started)
    wall_end = time.perf_counter()

    result: Dict[str, Any] = {
        "setups": setups,
        "ingest_s": sum(ingest_lat),
        "ingest_lat": ingest_lat,
        "query_lat": query_lat,
        "records": len(elements) * PASSES,
        "outcomes": outcomes,
        "wall": (wall_start, wall_end),
        "phase_s": sum(ingest_lat) + sum(query_lat),
    }
    if any(answers != estimates[0] for answers in estimates):
        raise BenchError("wide-lanes: a replayed pass gave different estimates")
    if not full:
        result["f2_worst_sigmas"] = _check_estimates(chunks, estimator, estimates[0])
        return result

    # The restore comparison runs first: the estimate gate draws samples,
    # which advances the original's query generator.
    os.unlink(path)
    restored_counter, restored_estimator = restored
    if (
        restored_estimator.sampler.state_dict() != estimator.sampler.state_dict()
        or restored_counter.state_dict() != counter.state_dict()
        or restored_estimator.estimate() != estimator.estimate()
    ):
        raise BenchError("wide-lanes: restored estimator differs from the original")
    result["f2_worst_sigmas"] = _check_estimates(chunks, estimator, estimates[0])
    result.update(
        gates=[
            "every pass gives the same estimates",
            "candidates lie inside the window",
            "window-size sketch within epsilon",
            f"F2 estimates within {SIGMAS:g} sigma of exact",
            "restored estimator equals the original",
        ],
        checkpoint_times=checkpoint_times,
        memory_words=estimator.memory_words(),
        # One stream: the whole estimator is the one live key.
        key_count=1,
        rss_mb=rss_peak_self_mb(),
    )
    return result


def _exact_window(elements: List[Tuple[str, float]]) -> Tuple[float, int, int, int]:
    """``(now, N, F2, F3)`` of the active window after ``elements``."""
    now = elements[-1][1]
    frequencies = Counter(value for value, stamp in elements if now - stamp < T0).values()
    return (
        now,
        sum(frequencies),
        sum(f * f for f in frequencies),
        sum(f * f * f for f in frequencies),
    )


def _check_estimates(
    chunks: List[List[Tuple[str, float]]], estimator: Any, estimates: List[Tuple[int, float, int]]
) -> float:
    """Correctness gate; returns the worst estimate's distance in sigmas.

    Every candidate lies inside the final window, the window-size sketch is
    within its (1 +- eps) guarantee, and each F2 estimate (rescaled to the
    exact window size) is within SIGMAS standard deviations of the exact F2
    of the window it was asked about.  Var[X] <= (4/3) N F3 - F2^2 for one
    AMS estimator X = N (2r - 1); an estimate averages ESTIMATORS of them.
    """
    elements = [element for chunk in chunks for element in chunk]
    now = elements[-1][1]
    for candidate in estimator.sampler.sample_candidates():
        if not now - candidate.timestamp < T0:
            raise BenchError(f"wide-lanes: candidate at t={candidate.timestamp} is outside the window")
    worst = 0.0
    for index, estimate, approx_size in estimates:
        _now, size, f2, f3 = _exact_window(elements[: (index + 1) * CHUNK])
        if abs(approx_size - size) > EPSILON * size + 1:
            raise BenchError(f"wide-lanes: window-size sketch says {approx_size}, exact is {size}")
        sigma = math.sqrt(max(0.0, (4.0 / 3.0) * size * f3 - f2 * f2) / ESTIMATORS)
        deviation = abs(estimate * size / approx_size - f2)
        if deviation > SIGMAS * sigma:
            raise BenchError(f"wide-lanes: F2 estimate {estimate:.1f} is {deviation:.1f} from exact {f2}")
        if sigma:
            worst = max(worst, deviation / sigma)
    return worst


def _round_trip(counter: Any, estimator: Any, path: str, seed: int) -> Tuple[Any, Any]:
    with open(path, "wb") as handle:
        pickle.dump(
            {"counter": counter.state_dict(), "sampler": estimator.sampler.state_dict()},
            handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    with open(path, "rb") as handle:
        state = pickle.load(handle)
    restored_counter, restored_estimator = _build(seed)
    restored_counter.load_state_dict(state["counter"])
    restored_estimator.sampler.load_state_dict(state["sampler"])
    return restored_counter, restored_estimator


def notes(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "ingest_op": f"{CHUNK} appends to the counter and the estimator ({PASSES} passes)",
        "query_op": "estimate() plus the window-size estimate, after every chunk",
        "checkpoint": f"median of {CHECKPOINTS} state_dict pickle round trips, evenly spaced",
        "f2_worst_sigmas": round(result["f2_worst_sigmas"], 3),
    }


def per_layer(result: Dict[str, Any], baseline: Dict[str, Any]) -> Dict[str, float]:
    return {"core.memory_words": result["memory_words"]}
