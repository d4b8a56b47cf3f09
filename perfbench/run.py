"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wide-lanes --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the workload's ingest and query rounds untraced,
then installs span wrappers on every layer entry point (see
:mod:`tracing`) and runs the whole workload again; it reports per-layer self
times that sum, with ``unattributed_s``, to the traced wall time, plus the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host and how each number was taken.  Spans are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl.gz``.

The exit code is 0 when every correctness gate passed, 1 when a gate failed
(the result line then says ``"correct": false``), and 2 without a result
line when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    BenchError,
    CheckoutError,
    end_to_end,
    host_facts,
    import_repro,
)

WORKLOADS = {
    "wide-lanes": "wide_lanes",
    "serve-http": "serve_http",
    "fleet-wal": "fleet_wal",
}

#: Per-layer self-time metrics and the span each one sums.  Together with
#: ``unattributed_s`` they add up to ``trace.wall_s``.
SELF_METRICS = (
    ("core.apply_s", "core.apply"),
    ("core.query_s", "core.query"),
    ("applications.apply_s", "applications.apply"),
    ("applications.estimate_s", "applications.estimate"),
    ("sketches.count_s", "sketches.count"),
    ("pool.key_create_s", "pool.key_create"),
    ("pool.apply_s", "pool.apply"),
    ("engine.route_s", "engine.route"),
    ("engine.query_s", "engine.query"),
    ("checkpoint.write_s", "checkpoint.write"),
    ("checkpoint.restore_s", "checkpoint.restore"),
    ("source.parse_s", "source.parse"),
    ("serve.overhead_s", "serve.request"),
    ("executor.ingest_call_s", "executor.ingest_call"),
    ("executor.flush_wait_s", "executor.flush_wait"),
    ("executor.query_s", "executor.query"),
    ("transport.encode_s", "transport.encode"),
    ("wal.append_s", "wal.append"),
)

def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics declared
    in ``BENCHMARK.json``: the result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _mean_ms(calls: int, seconds: float, scale: float = 1e3) -> float:
    return seconds / calls * scale if calls else 0.0


def layer_metrics(
    spans: List[Tuple], counts: Dict[str, int], wall: Tuple[float, float]
) -> Dict[str, float]:
    """Per-layer numbers from the spans that lie inside the traced wall window."""
    from tracing import self_times, span_stats

    inside = [span for span in spans if span[4] >= wall[0] and span[5] <= wall[1]]
    own = self_times(inside)
    metrics: Dict[str, float] = {}
    attributed = 0.0
    for metric, name in SELF_METRICS:
        metrics[metric] = own.get(name, 0.0)
        attributed += metrics[metric]
    wall_s = wall[1] - wall[0]
    metrics["unattributed_s"] = wall_s - attributed
    metrics["trace.wall_s"] = wall_s
    metrics["trace.spans"] = len(inside)

    metrics["core.elements"] = span_stats(inside, "core.apply", outermost=True)[2]
    calls, seconds, _ = span_stats(inside, "applications.estimate")
    metrics["applications.estimate_ms"] = _mean_ms(calls, seconds)
    names = {span[0]: span[3] for span in inside}
    metrics["pool.keys_created"] = sum(
        1 for span in inside if span[3] == "pool.key_create" and names.get(span[1]) == "pool.apply"
    )
    calls, seconds, _ = span_stats(inside, "pool.key_create")
    metrics["pool.key_create_us"] = _mean_ms(calls, seconds, 1e6)
    lookups = counts.get("querycache.lookup", 0)
    metrics["querycache.hit_ratio"] = counts.get("querycache.lookup.hits", 0) / lookups if lookups else 0.0
    calls, _, _ = span_stats(inside, "serve.request")
    metrics["serve.overhead_ms"] = _mean_ms(calls, own.get("serve.request", 0.0))
    calls, seconds, _ = span_stats(inside, "executor.query")
    metrics["executor.query_roundtrip_ms"] = _mean_ms(calls, seconds)
    records = span_stats(inside, "executor.ingest_call")[2]
    for metric, name in (("transport.bytes_per_record", "transport.encode"), ("wal.bytes_per_record", "wal.append")):
        metrics[metric] = span_stats(inside, name)[2] / records if records else 0.0
    # Filled in by the workloads whose layers report them; zero where bypassed.
    for metric in (
        "core.memory_words",
        "checkpoint.bytes_per_key",
        "executor.backpressure_s",
        "worker.decode_s",
        "worker.apply_s",
    ):
        metrics[metric] = 0.0
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(result line, notes line)``."""
    import_repro()
    os.makedirs(OUT_DIR, exist_ok=True)
    module = importlib.import_module(WORKLOADS[workload])
    host = host_facts(module.BUSY_PROCESSES)
    if host["busy_processes"] > host["nproc"]:
        print(
            f"warning: {workload} keeps {host['busy_processes']} processes busy on a host with"
            f" nproc={host['nproc']}; its numbers are not comparable with a larger host's",
            file=sys.stderr,
        )
    inputs = module.make_inputs(seed, seconds)
    notes: Dict[str, Any] = {"workload": workload, "seed": seed, "seconds": seconds, "host": host}

    if not trace:
        result = module.execute(inputs, None)
        outcomes = result["outcomes"]
        values, tails = end_to_end(result)
        units = declared_units("end_to_end")
        notes.update(tails)
        notes.update(module.notes(result))
    else:
        from tracing import Tracer, install

        baseline = module.execute(inputs, None, full=False)
        tracer = Tracer()
        install(tracer)
        try:
            result = module.execute(inputs, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans + result.get("adopted_spans", [])
        counts = dict(tracer.counts)
        for name, value in result.get("adopted_counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        outcomes = result["outcomes"]
        outcomes.attempted += baseline["outcomes"].attempted
        outcomes.failed += baseline["outcomes"].failed
        values = layer_metrics(spans, counts, result["wall"])
        values["trace.overhead_ratio"] = result["phase_s"] / baseline["phase_s"]
        values.update(module.per_layer(result, baseline))
        units = declared_units("per_layer")
        dump = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl.gz")
        tracer.spans = spans
        tracer.counts = counts
        tracer.dump(dump)
        notes["trace_file"] = os.path.relpath(dump, os.getcwd())
        if "unadopted_roots" in result:
            notes["daemon_spans_outside_requests"] = result["unadopted_roots"]
        notes["untraced_phase_s"] = baseline["phase_s"]
        notes["traced_phase_s"] = result["phase_s"]

    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    notes["gates"] = result["gates"]
    notes["failed_ratio"] = outcomes.failed / outcomes.attempted
    notes["failures"] = outcomes.reasons
    line = {
        "correct": True,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return line, notes


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        line, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckoutError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(notes, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
