"""``serve-http``: the ``swsample serve`` daemon driven over HTTP by this process.

The daemon runs in its own process (serial engine, ``--window sequence --n
256 -k 4 --shards 8 --track-occurrences``), started through
``serve_launcher.py``.  This process is the one single-threaded, closed-loop
client: it POSTs a 1024-record JSONL body, then one ``/query`` batch (25
``sample`` + ``hottest`` + ``moments``), and repeats.  Sequence sampling is
cheap, so HTTP handling, JSON parsing and the hand-off to the tenant's
engine thread dominate.  ``setup_s`` is the time from spawning a daemon to
its ready file appearing; ``checkpoint_s`` is ``POST /checkpoint`` followed
by a ``load_checkpoint`` of the written directory, at evenly spaced rounds.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT_DIR,
    ROOT,
    BenchError,
    Outcomes,
    call,
    rss_peak_pid_mb,
    spaced,
    zipf_keys,
)
from tracing import Tracer, adopt, load_dump

BUSY_PROCESSES = 2
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launcher.py")
WINDOW_N = 256
K = 4
SHARDS = 8
SEED = 7
KEYS_AT_10S = 2000
BODY_RECORDS = 1024
ROUNDS_PER_SECOND = 30
QUERY_SAMPLES = 25
#: Daemon starts timed for ``setup_s``: the daemon in use plus probes
#: started and stopped between rounds, spread over the run.
SETUP_PROBES = 4
CHECKPOINTS = 3
GATE_KEYS = 64
TENANT = "default"
READY_TIMEOUT_S = 60.0


def make_inputs(seed: int, seconds: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    universe = max(100, int(KEYS_AT_10S * min(1.0, seconds / 10.0)))
    rounds = max(3, ROUNDS_PER_SECOND * seconds)
    bodies = []
    queries = []
    records: List[Tuple[str, int]] = []
    for _ in range(rounds):
        keys = zipf_keys(rng, universe, BODY_RECORDS)
        batch = [(key, rng.randrange(1 << 16)) for key in keys]
        records.extend(batch)
        bodies.append("".join(json.dumps({"key": key, "value": value}) + "\n" for key, value in batch).encode())
        ops: List[Dict[str, Any]] = [{"op": "sample", "key": rng.choice(keys)} for _ in range(QUERY_SAMPLES)]
        ops.append({"op": "hottest", "top": 10})
        ops.append({"op": "moments", "order": 2})
        queries.append(json.dumps({"ops": ops}).encode())
    return {"bodies": bodies, "queries": queries, "records": records, "seed": seed}


class Daemon:
    """One ``swsample serve`` process; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, tag: str, trace_out: Optional[str] = None) -> None:
        self.ready_file = os.path.join(OUT_DIR, f"serve-{tag}.ready")
        self.checkpoint_dir = os.path.join(OUT_DIR, f"serve-{tag}-checkpoints")
        self.log_file = os.path.join(OUT_DIR, f"serve-{tag}.log")
        if os.path.exists(self.ready_file):
            os.unlink(self.ready_file)
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        command = [sys.executable, LAUNCHER]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += [
            "serve", "--window", "sequence", "--n", str(WINDOW_N), "-k", str(K),
            "--shards", str(SHARDS), "--seed", str(SEED), "--track-occurrences",
            "--port", "0", "--ready-file", self.ready_file,
            "--checkpoint-dir", self.checkpoint_dir,
        ]  # fmt: skip
        started = time.perf_counter()
        with open(self.log_file, "wb") as log:
            self.process = subprocess.Popen(command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            while not os.path.exists(self.ready_file):
                if self.process.poll() is not None:
                    raise BenchError(f"serve-http: daemon exited early; see {self.log_file}")
                if time.perf_counter() - started > READY_TIMEOUT_S:
                    raise BenchError("serve-http: daemon not ready in time")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - started
            with open(self.ready_file, encoding="utf-8") as handle:
                self.port = json.load(handle)["http_port"]
            # The daemon writes its ready file just before it installs its
            # SIGTERM handler; a SIGTERM in between kills it without a drain.
            # Once it answers HTTP, its event loop is past that point.
            _checked_json(*self.request("GET", "/healthz"), "healthz")
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (the daemon drains and writes its checkpoint), then reap
        and remove its files."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=120)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            raise BenchError(f"serve-http: daemon exited with {self.process.returncode}; see {self.log_file}")
        os.unlink(self.log_file)
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


def _checked_json(status: int, payload: bytes, what: str) -> Any:
    if status != 200:
        raise BenchError(f"serve-http: {what} answered {status}: {payload[:200]!r}")
    return json.loads(payload)


def execute(inputs: Dict[str, Any], tracer: Optional[Tracer], full: bool = True) -> Dict[str, Any]:
    import repro.engine as engine_mod

    outcomes = Outcomes()
    tag = f"{os.getpid()}-{'traced' if tracer is not None else 'plain'}"
    trace_out = os.path.join(OUT_DIR, f"serve-{tag}.spans.gz") if tracer is not None else None
    daemon = Daemon(tag, trace_out)
    try:
        result = _drive(daemon, inputs, tracer, outcomes, full, engine_mod, tag)
    finally:
        daemon.stop()
    result["setups"].append(daemon.setup_s)
    if tracer is not None:
        spans, counts = load_dump(trace_out)
        own = [span for span in tracer.spans if span[3] == "serve.request"]
        offset = max(span[0] for span in tracer.spans) + 1
        result["adopted_spans"], result["unadopted_roots"] = adopt(spans, own, offset, result["wall"])
        result["adopted_counts"] = counts
        os.unlink(trace_out)
    if full:
        _check_against_reference(inputs, result, engine_mod)
    return result


def _drive(
    daemon: Daemon,
    inputs: Dict[str, Any],
    tracer: Optional[Tracer],
    outcomes: Outcomes,
    full: bool,
    engine_mod: Any,
    tag: str,
) -> Dict[str, Any]:
    ingest_path = f"/v1/{TENANT}/ingest"
    query_path = f"/v1/{TENANT}/query"
    checkpoint_rounds = spaced(len(inputs["bodies"]), CHECKPOINTS) if full else []
    probe_rounds = spaced(len(inputs["bodies"]), SETUP_PROBES) if full and tracer is None else []
    setups: List[float] = []
    ingest_lat: List[float] = []
    query_lat: List[float] = []
    checkpoint_times: List[float] = []
    restored = written = None
    wall_start = time.perf_counter()
    for index, (body, query) in enumerate(zip(inputs["bodies"], inputs["queries"])):
        if index in probe_rounds:
            probe = Daemon(f"{tag}-probe")
            setups.append(probe.setup_s)
            probe.stop()
        started = time.perf_counter()
        status, _payload = call(tracer, "serve.request", daemon.request, "POST", ingest_path, body)
        ingest_lat.append(time.perf_counter() - started)
        outcomes.record(status == 200, f"ingest {status}")

        started = time.perf_counter()
        status, payload = call(tracer, "serve.request", daemon.request, "POST", query_path, query)
        query_lat.append(time.perf_counter() - started)
        ok = status == 200 and all(item["ok"] for item in json.loads(payload)["results"])
        outcomes.record(ok, f"query {status}")

        if index in checkpoint_rounds:
            restored = None
            started = time.perf_counter()
            status, payload = call(
                tracer, "serve.request", daemon.request, "POST", f"/v1/{TENANT}/checkpoint"
            )
            outcomes.record(status == 200, f"checkpoint {status}")
            written = _checked_json(status, payload, "checkpoint")["path"]
            restored = engine_mod.load_checkpoint(written)
            checkpoint_times.append(time.perf_counter() - started)
    wall_end = time.perf_counter()
    result: Dict[str, Any] = {
        "ingest_s": sum(ingest_lat),
        "ingest_lat": ingest_lat,
        "query_lat": query_lat,
        "records": len(inputs["records"]),
        "outcomes": outcomes,
        "wall": (wall_start, wall_end),
        "phase_s": sum(ingest_lat) + sum(query_lat),
        "setups": setups,
    }
    if not full:
        return result

    result["checkpoint_times"] = checkpoint_times
    stats = _checked_json(*daemon.request("GET", f"/v1/{TENANT}/stats"), "stats")
    result["rss_mb"] = rss_peak_pid_mb(daemon.process.pid)
    result["memory_words"] = stats["memory_words"]
    result["key_count"] = stats["keys"]
    result["checkpoint_bytes"] = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(written)
        for name in names
    )
    rng = random.Random(inputs["seed"])
    gate_keys = rng.sample(sorted({key for key, _value in inputs["records"]}), GATE_KEYS)
    answers = {}
    for key in gate_keys:
        status, payload = daemon.request("GET", f"/v1/{TENANT}/sample?key={key}")
        answers[key] = [
            (item["index"], item["value"]) for item in _checked_json(status, payload, "sample")["sample"]
        ]
    result["gate_answers"] = answers
    result["restored"] = restored
    return result


def _check_against_reference(inputs: Dict[str, Any], result: Dict[str, Any], engine_mod: Any) -> None:
    """Sampled ``/sample`` answers and the checkpoint written by the daemon
    equal a serial reference engine fed the same records."""
    spec = engine_mod.SamplerSpec(window="sequence", n=WINDOW_N, k=K)
    reference = engine_mod.ShardedEngine(spec, shards=SHARDS, seed=SEED, track_occurrences=True)
    records = inputs["records"]
    for offset in range(0, len(records), BODY_RECORDS):
        reference.ingest(records[offset : offset + BODY_RECORDS])
    for key, answer in result.pop("gate_answers").items():
        expected = [(element.index, element.value) for element in reference.sample(key)]
        if answer != expected:
            raise BenchError(f"serve-http: /sample of {key!r} differs from the reference engine")
    restored = result.pop("restored")
    for index, (mine, theirs) in enumerate(zip(reference.pools, restored.pools)):
        if mine.state_dict() != theirs.state_dict():
            raise BenchError(f"serve-http: checkpointed shard {index} differs from the reference engine")
    result["gates"] = ["/sample equals the reference engine", "checkpoint equals the reference engine"]


def notes(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "ingest_op": f"POST /ingest of {BODY_RECORDS} JSONL records",
        "query_op": f"POST /query of {QUERY_SAMPLES} sample + hottest + moments",
        "checkpoint": f"median of {CHECKPOINTS} POST /checkpoint + load_checkpoint, evenly spaced",
        "setup": f"median of {SETUP_PROBES + 1} daemon starts",
        "keys": result["key_count"],
    }


def per_layer(result: Dict[str, Any], baseline: Dict[str, Any]) -> Dict[str, float]:
    return {
        "core.memory_words": result["memory_words"],
        "checkpoint.bytes_per_key": result["checkpoint_bytes"] / result["key_count"],
    }
