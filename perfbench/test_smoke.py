"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

For every workload it runs ``run.py --seconds 1`` untraced and traced and
checks the result line: every metric named in ``BENCHMARK.json`` is present
with its unit, the run is correct with no failed operation, and every
correctness gate of the workload ran; a traced run must have no negative
self time, no stray daemon span and a fair share of attributed wall time.  It also
checks that the benchmark refuses to run, without a result line, where the
package sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import SELF_METRICS  # noqa: E402

ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
#: Correctness gates each workload must report as run.
GATES = {"wide-lanes": 5, "serve-http": 2, "fleet-wal": 3}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )  # fmt: skip


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_gate(workload: str, trace: int) -> None:
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    *_, notes_line, result_line = completed.stdout.strip().splitlines()
    result = json.loads(result_line)
    notes = json.loads(notes_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    assert len(notes["gates"]) == GATES[workload]
    assert notes["host"]["nproc"] >= 1
    if trace:
        metrics = {name: value["value"] for name, value in result["metrics"].items()}
        assert metrics["trace.overhead_ratio"] > 0
        # No span outlives its parent or overlaps a sibling (that would make
        # a self time or the unattributed rest negative), no daemon span fell
        # outside the client request it served, and the layer spans cover a
        # fair share of the traced wall time (at these tiny sizes the
        # benchmark's own checkpoint pickling is much of the rest).
        self_times = {metric: metrics[metric] for metric, _span in SELF_METRICS}
        for name, value in [*self_times.items(), ("unattributed_s", metrics["unattributed_s"])]:
            assert value >= -1e-9, f"{name} = {value}"
        assert notes.get("daemon_spans_outside_requests", 0) == 0
        assert sum(self_times.values()) >= 0.25 * metrics["trace.wall_s"]


def test_refuses_without_package_sources(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    completed = _run(str(tmp_path), WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert completed.stdout == ""
