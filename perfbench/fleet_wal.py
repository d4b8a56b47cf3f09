"""``fleet-wal``: the journaled process fleet, driven in-process.

``ProcessEngine(workers=1, transport="columnar", wal_dir=..., wal_fsync="batch")``
on a sequence spec over Zipf keys.  The run is a series of blocks: batched
``ingest`` calls (each encodes, journals and dispatches sub-batches to the
worker) ending in ``flush``, then ``query_batch`` calls; at evenly spaced
blocks a checkpoint writes the worker's segments, truncates the journal and
is restored into a fresh one-worker fleet.  It is the only workload that runs
the executor, transport and WAL layers.  The final state is checked against a
serial ``ShardedEngine`` fed the same records, outside the timed region.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Dict, List, Optional

from common import OUT_DIR, BenchError, Outcomes, call, rss_peak_pid_mb, spaced, zipf_keys
from tracing import Tracer

#: The coordinator (this process) and one worker process.
BUSY_PROCESSES = 2
WINDOW_N = 256
K = 4
SHARDS = 8
SEED = 7
KEYS_AT_10S = 2000
RECORDS_PER_SECOND = 80_000
BATCH = 1024
QUERY_SAMPLES = 250
#: Ingest calls per block; each block ends with ``flush`` and then
#: QUERIES_PER_BLOCK ``query_batch`` calls, so ingest still pipelines into
#: the worker while reads run beside writes throughout the run.
BLOCK = 32
QUERIES_PER_BLOCK = 16
CHECKPOINTS = 3
#: Fleet starts timed for ``setup_s`` (the fleet in use plus probes started
#: and closed between blocks, spread over the run).
SETUP_PROBES = 16


def make_inputs(seed: int, seconds: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    universe = max(100, int(KEYS_AT_10S * min(1.0, seconds / 10.0)))
    count = RECORDS_PER_SECOND * seconds
    keys = zipf_keys(rng, universe, count)
    records = [(key, rng.randrange(1 << 16)) for key in keys]
    batches = [records[offset : offset + BATCH] for offset in range(0, count, BATCH)]
    # Queries after a block sample keys that block ingested, so every key
    # queried is live (sequence windows never empty).
    queries = []
    for start in range(0, len(batches), BLOCK):
        seen = [record[0] for batch in batches[start : start + BLOCK] for record in batch]
        for _ in range(QUERIES_PER_BLOCK):
            ops: List[Any] = [("sample", rng.choice(seen)) for _ in range(QUERY_SAMPLES)]
            queries.append(ops + [("hottest", 10)])
    return {"records": records, "batches": batches, "queries": queries}


def _spec(engine_mod: Any) -> Any:
    return engine_mod.SamplerSpec(window="sequence", n=WINDOW_N, k=K)


def _fleet(engine_mod: Any, wal_dir: str, registry: Any = None) -> Any:
    shutil.rmtree(wal_dir, ignore_errors=True)
    return engine_mod.ProcessEngine(
        _spec(engine_mod),
        workers=1,
        transport="columnar",
        shards=SHARDS,
        seed=SEED,
        wal_dir=wal_dir,
        wal_fsync="batch",
        registry=registry,
    )


def execute(inputs: Dict[str, Any], tracer: Optional[Tracer], full: bool = True) -> Dict[str, Any]:
    import repro.engine as engine_mod
    from repro.obs import MetricsRegistry

    outcomes = Outcomes()
    wal_dir = os.path.join(OUT_DIR, f"fleet-wal-{os.getpid()}")
    # The untraced pass of a traced run reads backpressure from the fleet's
    # own instruments, so no span wrapper's cost is counted in it.
    registry = MetricsRegistry() if not full else None
    started = time.perf_counter()
    engine = _fleet(engine_mod, wal_dir, registry)
    setup_s = time.perf_counter() - started
    try:
        result = _drive(engine, engine_mod, inputs, tracer, outcomes, full, wal_dir)
        result["setups"].append(setup_s)
        if registry is not None:
            counters = engine.metrics_snapshot()["counters"]
            result["backpressure_s"] = counters.get("executor.backpressure.seconds", 0.0)
        report = engine.transport_report()
        result["worker_decode_s"] = report["decode_seconds"]
        result["worker_apply_s"] = report["apply_seconds"]
        result["rss_mb"] = rss_peak_pid_mb(engine.liveness()["workers"][0]["pid"])
        if full:
            # Correctness gate: the fleet's final state equals a serial
            # engine fed the same records (sequence-window queries draw no
            # randomness, so the query phase leaves no trace in the state),
            # and the restored fleet equals the checkpointed one.
            reference = engine_mod.ShardedEngine(_spec(engine_mod), shards=SHARDS, seed=SEED)
            records = inputs["records"]
            for offset in range(0, len(records), BATCH):
                reference.ingest(records[offset : offset + BATCH])
            state = engine.state_dict()
            if state != reference.state_dict():
                raise BenchError("fleet-wal: fleet state differs from the serial reference engine")
            if result["restored_state"] != state:
                raise BenchError("fleet-wal: restored fleet state differs from the checkpointed fleet")
            result["gates"] = [
                "checkpoint truncated the journal",
                "fleet state equals the serial reference engine",
                "restored fleet equals the checkpointed fleet",
            ]
            result["memory_words"] = engine.memory_words()
            result["key_count"] = engine.key_count
    finally:
        engine.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    return result


def _drive(
    engine: Any,
    engine_mod: Any,
    inputs: Dict[str, Any],
    tracer: Optional[Tracer],
    outcomes: Outcomes,
    full: bool,
    wal_dir: str,
) -> Dict[str, Any]:
    batches = inputs["batches"]
    blocks = [batches[start : start + BLOCK] for start in range(0, len(batches), BLOCK)]
    checkpoint_blocks = spaced(len(blocks), CHECKPOINTS) if full else []
    probe_blocks = spaced(len(blocks), SETUP_PROBES) if full and tracer is None else []
    setups: List[float] = []
    queries = iter(inputs["queries"])
    ingest_lat: List[float] = []
    flush_s = 0.0
    query_lat: List[float] = []
    checkpoint_times: List[float] = []
    restored_state = None
    wall_start = time.perf_counter()
    for index, block in enumerate(blocks):
        if index in probe_blocks:
            started = time.perf_counter()
            probe = _fleet(engine_mod, f"{wal_dir}-probe")
            setups.append(time.perf_counter() - started)
            probe.close()
            shutil.rmtree(f"{wal_dir}-probe", ignore_errors=True)
        for batch in block:
            started = time.perf_counter()
            try:
                call(tracer, "bench.ingest", engine.ingest, batch)
                ok = True
            except Exception:  # noqa: BLE001 - counted as a failed operation
                ok = False
            ingest_lat.append(time.perf_counter() - started)
            outcomes.record(ok, "ingest raised")
        started = time.perf_counter()
        try:
            call(tracer, "bench.flush", engine.flush)
            ok = True
        except Exception:  # noqa: BLE001
            ok = False
        flush_s += time.perf_counter() - started
        outcomes.record(ok, "flush raised")

        for _ in range(QUERIES_PER_BLOCK):
            ops = next(queries)
            started = time.perf_counter()
            try:
                answers = call(tracer, "bench.query", engine.query_batch, ops)
                ok = all(answer[0] == "ok" for answer in answers)
            except Exception:  # noqa: BLE001
                ok = False
            query_lat.append(time.perf_counter() - started)
            outcomes.record(ok, "query error")

        if index in checkpoint_blocks:
            path = os.path.join(OUT_DIR, f"fleet-wal-ckpt-{os.getpid()}")
            shutil.rmtree(path, ignore_errors=True)
            started = time.perf_counter()
            restored = call(tracer, "bench.checkpoint", _round_trip, engine, engine_mod, path)
            checkpoint_times.append(time.perf_counter() - started)
            try:
                if index == checkpoint_blocks[-1]:
                    restored_state = restored.state_dict()
            finally:
                restored.close()
                shutil.rmtree(path, ignore_errors=True)
    wall_end = time.perf_counter()
    result: Dict[str, Any] = {
        "ingest_s": sum(ingest_lat) + flush_s,
        "ingest_lat": ingest_lat,
        "query_lat": query_lat,
        "records": sum(len(batch) for batch in batches),
        "outcomes": outcomes,
        "wall": (wall_start, wall_end),
        "phase_s": sum(ingest_lat) + flush_s + sum(query_lat),
        "setups": setups,
    }
    if not full:
        return result

    if os.path.isdir(wal_dir) and any(
        os.path.getsize(os.path.join(wal_dir, name)) for name in os.listdir(wal_dir)
    ):
        raise BenchError("fleet-wal: the committed checkpoint did not truncate the journal")
    result["checkpoint_times"] = checkpoint_times
    result["restored_state"] = restored_state
    return result


def _round_trip(engine: Any, engine_mod: Any, path: str) -> Any:
    engine_mod.write_checkpoint(engine, path)
    return engine_mod.load_checkpoint(path, workers=1, executor="process")


def notes(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "ingest_op": f"ProcessEngine.ingest of {BATCH} records (dispatch; the phase ends with flush)",
        "query_op": f"query_batch of {QUERY_SAMPLES} sample + hottest",
        "checkpoint": "write_checkpoint + load_checkpoint into a one-worker fleet",
        "rss": "worker process peak",
        "keys": result["key_count"],
    }


def per_layer(result: Dict[str, Any], baseline: Dict[str, Any]) -> Dict[str, float]:
    # Backpressure and the worker-side stages come from the untraced pass:
    # how long the coordinator waits on the worker depends on how fast the
    # coordinator runs, and the traced pass's coordinator is slowed by spans.
    return {
        "core.memory_words": result["memory_words"],
        "executor.backpressure_s": baseline["backpressure_s"],
        "worker.decode_s": baseline["worker_decode_s"],
        "worker.apply_s": baseline["worker_apply_s"],
    }
