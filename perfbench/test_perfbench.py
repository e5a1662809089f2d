"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import openloop  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    before = sorted(path.name for path in HERE.iterdir())
    done = run_benchmark("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # The temporary checkpoint is gone and nothing else was written.
    assert sorted(path.name for path in HERE.iterdir()
                  if path.name != "__pycache__") \
        == [name for name in before if name != "__pycache__"]


def test_workload_tables_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert workloads.END_TO_END == {metric["name"]: metric["unit"]
                                    for metric in SPEC["end_to_end"]}
    assert workloads.PER_LAYER == {metric["name"]: metric["unit"]
                                   for metric in SPEC["per_layer"]}
    assert sorted(WORKLOADS) == sorted(list(workloads.SERVING)
                                       + ["train_pipeline"])


def test_poisson_schedule_is_fixed_by_the_seed():
    first = openloop.poisson_schedule(500.0, 2.0, np.random.default_rng([7, 1]))
    again = openloop.poisson_schedule(500.0, 2.0, np.random.default_rng([7, 1]))
    other = openloop.poisson_schedule(500.0, 2.0, np.random.default_rng([8, 1]))
    np.testing.assert_array_equal(first, again)
    assert first.shape != other.shape or not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
    assert 800 < first.size < 1200


class Refused(Exception):
    pass


def test_open_loop_sends_overdue_requests_and_times_from_due():
    """A 100 ms stall on the first send: every request that fell due
    meanwhile goes out at once, and each latency runs from its due time."""
    sent_at = []

    def submit(request, clip_index):
        sent_at.append(time.perf_counter())
        if request == 0:
            time.sleep(0.1)
        future = Future()
        future.set_result(SimpleNamespace(label=clip_index))
        return future

    phase = openloop.run_open_loop("stall", submit, 1000.0, 0.3,
                                   np.random.default_rng(0), 4, Refused)
    due = phase.due[:phase.count]
    overdue = np.flatnonzero(due[1:] < due[0] + 0.1) + 1
    assert overdue.size > 50
    # Sent back to back once the stall ended, with no sleep between them.
    gaps = np.diff(np.array(sent_at)[overdue])
    assert gaps.max() < 0.005
    assert np.all(phase.lag_ms()[overdue] > 0)
    latency = phase.latencies_ms()
    assert np.all(latency >= phase.lag_ms() - 1e-6)
    assert phase.counts() == {"sent": phase.count, "succeeded": phase.count,
                              "failed": 0, "rejected": 0}
    assert phase.mismatches(np.arange(4)) == 0


def test_refused_and_failed_requests_miss_every_limit():
    def submit(request, clip_index):
        if request % 3 == 0:
            raise Refused()
        future = Future()
        if request % 3 == 1:
            future.set_exception(RuntimeError("boom"))
        else:
            future.set_result(SimpleNamespace(label=0))
        return future

    phase = openloop.run_open_loop("lossy", submit, 200.0, 0.2,
                                   np.random.default_rng(1), 4, Refused)
    counts = phase.counts()
    assert counts["rejected"] > 0 and counts["failed"] > 0
    latency = phase.latencies_ms()
    missed = phase.status[:phase.count] != openloop.SUCCEEDED
    assert latency[missed].min() >= latency[~missed].max()


def test_self_time_subtracts_children_and_wrappers_are_removed():
    class Work:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    original = Work.__dict__["outer"]
    with Tracer() as tracer:
        tracer.wrap(Work, "outer", "alpha.outer")
        tracer.wrap(Work, "inner", "beta.inner")
        Work().outer()
    assert Work.__dict__["outer"] is original
    outer, inner = tracer.spans
    assert inner.parent is outer and outer.parent is None
    self_seconds = tracer.self_seconds()
    assert self_seconds["alpha"] == pytest.approx(0.02, abs=0.01)
    assert self_seconds["beta"] == pytest.approx(0.03, abs=0.01)
    assert tracer.rows()[1][3] == 0


def test_compare_refuses_different_hosts(tmp_path):
    def row(nproc):
        return {"environment": {"host": {"nproc": nproc}},
                "workload": "serve_edge", "trace": 0,
                "result": {"metrics": {"setup_s": {"value": 1.0,
                                                   "unit": "s"}}}}

    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text(json.dumps(row(2)))
    head.write_text(json.dumps(row(4)))
    assert compare.main(["--base", str(base), "--head", str(head)]) == 2
    head.write_text(json.dumps(row(2)))
    assert compare.main(["--base", str(base), "--head", str(head)]) == 0
