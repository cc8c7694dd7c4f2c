"""The stage benchmark's checks on its two smallest cases, its counting
sweeps and its large-valence row, with one timing repeat, so that a change
to what the script calls fails here rather than in its next full run."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "closure_benchmark.py"


def test_stage_benchmark_checks_pass(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec = importlib.util.spec_from_file_location("closure_benchmark", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = {label: (group, valence) for label, group, valence in bench.CASES}
    # (sets, orders, classes, full-search maps) of each row
    expected = {"D12 valence 3": (7, 14, 0, 432), "Dic6 valence 5": (2, 48, 0, 432)}
    for label, counts in expected.items():
        fields = bench.check_case(label, *cases[label], repeat=1)[len(label) :].split()
        assert tuple(int(fields[i]) for i in (0, 1, 5, 6)) == counts, label
    ends = {
        3: "(both checked for n <= 500 and at the primes n = 1 mod p above it, 162)",
        211: "(both checked for n <= 300 and at the primes n = 1 mod p above it, 1)",
    }
    for p, check_n_max in bench.COUNT_CASES:
        line = bench.check_counting(1, p, check_n_max)
        assert line.startswith(f"\ncounting n=1..3000 at p={p}: triples_for ")
        assert line.endswith(ends[p]), line
    line = bench.check_large_valence(1)
    assert line.startswith("\ncounting n=30011 at p=3001: triples_for ")
    assert line.endswith("(3000 answers, checked against pow)"), line
