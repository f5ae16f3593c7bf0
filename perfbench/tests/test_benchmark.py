"""Tests of the benchmark itself: run from the repository root with
``python3 -m pytest perfbench/tests -q`` (about two minutes)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from bench import END_TO_END  # noqa: E402
from ledger import PER_LAYER  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: work counts that must repeat exactly across two traced runs at one seed
WORK_COUNTS = (
    "authz.entity_reads_per_op",
    "store.commits_per_write",
    "audit.records_per_op",
    "replication.entries_applied_per_write",
    "authz.calls_per_op",
    "pipeline.dispatches_per_op",
    "cluster.fanout_per_op",
    "vending.mints_per_op",
)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _metrics(proc: subprocess.CompletedProcess) -> dict[str, float]:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    return {name: metric["value"] for name, metric in line["metrics"].items()}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == PER_LAYER[metric["name"]]


# query-contend is left out: its two clients interleave differently on
# every run, so its counts are not meant to repeat
@pytest.mark.parametrize("workload", ["query-hot", "rest-browse", "govern-write"])
def test_traced_work_counts_repeat_at_one_seed(workload):
    first = _metrics(_run(workload, 7, trace=1))
    second = _metrics(_run(workload, 7, trace=1))
    assert list(first) == list(PER_LAYER)
    assert {k: first[k] for k in WORK_COUNTS} == {k: second[k] for k in WORK_COUNTS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_another_seed_changes_the_op_sequence(workload):
    first, second, again = (WORKLOADS[workload](seed) for seed in (1, 2, 1))
    try:
        assert first.stream == again.stream
        assert first.stream != second.stream
    finally:
        for estate in (first, second, again):
            estate.close()


def test_untraced_run_reports_every_end_to_end_metric():
    values = _metrics(_run("govern-write", 3, trace=0))
    assert list(values) == list(END_TO_END)
    assert all(value > 0 for value in values.values())


def test_fails_without_the_catalog_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("query-hot", 1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
