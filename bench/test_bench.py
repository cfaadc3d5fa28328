"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Analyze, Search, Simulate  # noqa: E402

COUNT_METRICS = [
    name for name, unit, *_ in LAYER_METRICS
    if unit.startswith("count") or unit == "ratio"
]


def run_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_ops_complete_without_failures(workload):
    rounds = 2
    result = run_worker("--workload", workload, "--seed", str(DEFAULT_SEED),
                        "--rounds", str(rounds))
    assert result["attempted"] == rounds * len(WORKLOADS[workload].KINDS)
    assert result["failed"] == 0, result["failures"]
    assert result["setup_s"] > 0 and result["ops_per_s"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "7", "--rounds", "2", "--trace", "1")
    first, second = run_worker(*args), run_worker(*args)
    assert first["traced_ops"] == len(WORKLOADS[workload].KINDS)
    counts = {m: first["layers"][m] for m in COUNT_METRICS}
    assert counts == {m: second["layers"][m] for m in COUNT_METRICS}
    assert set(first["layers"]) == {m[0] for m in LAYER_METRICS}


def _corrupt_search(report):
    # a valid-looking report whose digest no longer matches
    cell = report.cells[0]
    trial = cell.trial + 1 if cell.trial + 1 < Search.TRIALS else cell.trial - 1
    cells = (dataclasses.replace(cell, trial=trial),) + report.cells[1:]
    return dataclasses.replace(report, cells=cells)


def _corrupt_simulate(stats):
    return dataclasses.replace(stats, success_lf=stats.success_lf - 1)


def _corrupt_analyze(params):
    # move one codeword between distance classes: the distribution still
    # sums to the cardinality, so only the oracle comparison can catch it
    dist = list(params.distribution)
    i = max(i for i in range(1, len(dist)) if dist[i])
    j = i - 1 if i > 1 else i + 1
    dist[i] -= 1
    dist[j] += 1
    nonzero = [h for h in range(1, len(dist)) if dist[h]]
    return dataclasses.replace(
        params, distribution=tuple(dist), min_distance=2 * nonzero[0]
    )


@pytest.mark.parametrize("cls, corrupt", [
    (Search, _corrupt_search),
    (Simulate, _corrupt_simulate),
    (Analyze, _corrupt_analyze),
])
def test_corrupted_outputs_count_as_failed(monkeypatch, cls, corrupt):
    original = cls.run
    monkeypatch.setattr(cls, "run", lambda self, kind, inp: corrupt(original(self, kind, inp)))
    result = worker.run(cls.name, DEFAULT_SEED, 0, trace=False, rounds=1)
    assert result["attempted"] == len(cls.KINDS)
    assert result["failed"] == result["attempted"]
