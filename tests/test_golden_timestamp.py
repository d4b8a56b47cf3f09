"""Golden trajectories of the timestamp samplers.

The digests below were recorded on the per-lane implementation that kept one
independent covering automaton per sample.  The shared-geometry automaton
that replaced it must reproduce every one of them: the same ``state_dict()``
(retained candidates with their observer state, clock, every generator
position) and the same ``sample()`` draws, in the default mode, in the
python ``fast`` mode, with each bundled observer, across window-emptying
clock jumps and through ``process_batch``.

To re-derive a digest after an intentional trajectory change, print
``run(name)`` for the case and paste the two hex strings.
"""

import hashlib
import json
import random

import pytest

from repro.applications.triangles import TriangleWatcher
from repro.core import TimestampSamplerWOR, TimestampSamplerWR
from repro.core.tracking import OccurrenceCounter


def _digest(payload):
    encoded = json.dumps(payload, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _stream(count, seed, alphabet=12):
    """Poisson arrivals with zipf-ish repeated values."""
    source = random.Random(seed)
    clock = 0.0
    values, stamps = [], []
    for _ in range(count):
        clock += source.expovariate(1.0)
        values.append(int(alphabet * source.random() ** 2))
        stamps.append(clock)
    return values, stamps


def _edges(count, seed, vertices=9):
    source = random.Random(seed)
    clock = 0.0
    values, stamps = [], []
    for _ in range(count):
        clock += source.expovariate(1.0)
        a = source.randrange(vertices)
        b = (a + 1 + source.randrange(vertices - 1)) % vertices
        values.append((min(a, b), max(a, b)))
        stamps.append(clock)
    return values, stamps


def _draw(sampler, draws):
    """Append one ``sample()`` (or its absence) to the recorded draws."""
    try:
        elements = sampler.sample()
    except Exception as error:  # noqa: BLE001 - the error type is part of the trajectory
        draws.append(type(error).__name__)
        return
    draws.append([[element.value, element.index, element.timestamp] for element in elements])


def _drive_appends(sampler, values, stamps, every=37):
    draws = []
    for position, value in enumerate(values):
        sampler.append(value, stamps[position])
        if position % every == every - 1:
            _draw(sampler, draws)
            if hasattr(sampler, "active_count_estimate"):
                draws.append(sampler.active_count_estimate())
    return draws


def _drive_batches(sampler, values, stamps, sizes=(1, 7, 64, 3, 150, 29)):
    draws = []
    low = 0
    turn = 0
    while low < len(values):
        size = sizes[turn % len(sizes)]
        sampler.process_batch(values[low : low + size], stamps[low : low + size])
        low += size
        turn += 1
        _draw(sampler, draws)
    return draws


def case_default():
    sampler = TimestampSamplerWR(t0=25.0, k=8, rng=2024)
    values, stamps = _stream(700, seed=1)
    return sampler, _drive_appends(sampler, values, stamps)


def case_fast_python():
    sampler = TimestampSamplerWR(t0=25.0, k=8, rng=2025, fast=True)
    values, stamps = _stream(900, seed=2)
    return sampler, _drive_batches(sampler, values, stamps)


def case_occurrence_counter():
    sampler = TimestampSamplerWR(t0=30.0, k=6, rng=2026, observer=OccurrenceCounter())
    values, stamps = _stream(500, seed=3, alphabet=5)
    draws = _drive_appends(sampler, values, stamps)
    draws.append(
        [OccurrenceCounter.count_of(candidate) for candidate in sampler.sample_candidates()]
    )
    return sampler, draws


def case_triangle_watcher():
    root = random.Random(2027)
    sampler = TimestampSamplerWR(t0=20.0, k=6, rng=root, observer=TriangleWatcher(9, rng=root))
    values, stamps = _edges(400, seed=4)
    draws = _drive_appends(sampler, values, stamps)
    draws.append([TriangleWatcher.is_success(c) for c in sampler.sample_candidates()])
    return sampler, draws


def case_bursty_gaps():
    """Bursts at equal timestamps separated by clock jumps; every fifth jump
    empties the whole window."""
    sampler = TimestampSamplerWR(t0=10.0, k=5, rng=2028)
    source = random.Random(5)
    clock = 0.0
    index = 0
    draws = []
    for burst in range(60):
        for _ in range(source.randint(1, 40)):
            sampler.append(index % 17, clock)
            index += 1
        _draw(sampler, draws)
        clock += 30.0 if burst % 5 == 4 else source.uniform(0.0, 6.0)
        sampler.advance_time(clock)
        _draw(sampler, draws)
        draws.append(sampler.window_is_empty)
    return sampler, draws


def case_process_batch():
    sampler = TimestampSamplerWR(t0=25.0, k=8, rng=2029)
    values, stamps = _stream(900, seed=6)
    return sampler, _drive_batches(sampler, values, stamps)


def case_wor_default():
    sampler = TimestampSamplerWOR(t0=25.0, k=5, rng=2030)
    values, stamps = _stream(600, seed=7)
    draws = _drive_appends(sampler, values[:300], stamps[:300])
    draws.extend(_drive_batches(sampler, values[300:], stamps[300:]))
    return sampler, draws


CASES = {
    "default": case_default,
    "fast-python": case_fast_python,
    "occurrence-counter": case_occurrence_counter,
    "triangle-watcher": case_triangle_watcher,
    "bursty-gaps": case_bursty_gaps,
    "process-batch": case_process_batch,
    "wor-default": case_wor_default,
}


def run(name):
    """``(state digest, draws digest)`` of one golden case."""
    sampler, draws = CASES[name]()
    return _digest(sampler.state_dict()), _digest(draws)


GOLDEN = {
    "bursty-gaps": (
        "fe1e335ebd0f4c6d4e913fdb1796874b780cca47a8a7314dbdef4bfd823ce4b8",
        "3531d98a618bfdcb9a0066952459c33922e1458d6b59ea08b946cd648ca82f5e",
    ),
    "default": (
        "fe3cfe3795db9af09cad4fce0e2b39f613cf5f571050959b60b638823a650d70",
        "d3db459b49e778544a2d97e97ea7708b763d3d01401d130c7c48242976a605b4",
    ),
    "fast-python": (
        "ba8cf8ebefb5bad8190e22f6d7754bf0c0bc3589989042b7ba5b9578314684aa",
        "9d9d0480b8ca6bbe62aa6fb9a6a5d74bcc842c99dcf7e7d923484184650c8532",
    ),
    "occurrence-counter": (
        "42a7b070e3c893bead20b238ca908e96a980db8338414eaf8a5ed7d3fef5ef88",
        "b95e10bc76866a21afb895d4f96c1b58f8dda487c118d31acdfa7c5dc51ff6b9",
    ),
    "process-batch": (
        "963e4e83292eb155f736407f4fa0f8193662a3017266c20ca3ee518c30187f7a",
        "f027642f9f253314d049218ec9b171b0af73708d6a5c099258be16c8dce5fe0b",
    ),
    "triangle-watcher": (
        "07b81d29d4f30763a968479931fbf1311f0b5a141fe904b7e6af749d0c4131a3",
        "4f75ca88a1bbd65cdb02990a7037bbb438b1d857d5eb3d1a692ae8c59bb30fb6",
    ),
    "wor-default": (
        "c61bdf67fab9a9480b45c675aa4db885a9531926573e016cd300aafc792602c9",
        "d932acae67b09bfe066fce130906ad0910e9f1f269634bf037afa7cc881c547a",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_the_recorded_digest(name):
    assert run(name) == GOLDEN[name]
