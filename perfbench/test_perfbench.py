"""Checks of the benchmark itself, kept apart from the program's tests:

    python3 -m pytest perfbench -q

The count test makes two traced runs of every workload, about two minutes on
two CPUs; select one workload with -k.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sample = run.Sample(1.0, 1.0, 1.0, 0, "", 0)
    reported = run.end_to_end_metrics([sample], [sample], 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in reported.items()
    }
    reported = run.layer_metrics(None, sample, sample)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()
    }
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    expected = run.load_expected()
    first_sample, first = run.traced_run(workload)
    second_sample, second = run.traced_run(workload)
    for sample in (first_sample, second_sample):
        assert run.matches(sample, expected["workloads"][workload])
    assert run.exact_counts(first) == run.exact_counts(second)
    # the recorded values are the seed commit's; a program change may move them
    if run.source_sha256() == expected["source_sha256"]:
        assert run.exact_counts(first) == expected["workloads"][workload]["counts"]


def test_refuses_to_run_without_the_program():
    stub = run.WORK / "stub"
    shutil.rmtree(stub, ignore_errors=True)
    stub.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", stub)
    shutil.copytree(
        run.HERE, stub / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "triples_p3",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stub, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(stub)
    assert proc.returncode != 0
    assert proc.stdout == ""
